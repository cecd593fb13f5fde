//! Quarter-pel luma motion compensation — the `MC` Special Instruction
//! (Table 1: 3 Atom types `PointFilter`, `BytePack`, `Clip3`; 11
//! Molecules; composition shown in paper Figure 3).
//!
//! Half-pel samples come from the standard 6-tap filter
//! `(1, −5, 20, 20, −5, 1)` (the `PointFilter` Atom); results are clipped
//! to 8 bits (`Clip3`) and packed back to bytes (`BytePack`); quarter-pel
//! samples average the neighbouring integer/half-pel samples.
//!
//! The per-sample functions ([`sample_quarter_pel`], [`half_pel_h`] and
//! friends, [`compensate_16x16`]) are the reference definition. The
//! encoder reads through [`InterpolatedRef`] instead, which filters each
//! reference frame once and reproduces the reference bit for bit.

use std::array;

use crate::frame::Plane;

/// The H.264 6-tap half-pel interpolation kernel — one application of the
/// `PointFilter` Atom of Figure 3.
#[must_use]
pub fn point_filter(a: i32, b: i32, c: i32, d: i32, e: i32, f: i32) -> i32 {
    a - 5 * b + 20 * c + 20 * d - 5 * e + f
}

/// The `Clip3` Atom: clamps `x` into `[lo, hi]`.
#[must_use]
pub fn clip3(lo: i32, hi: i32, x: i32) -> i32 {
    x.clamp(lo, hi)
}

/// Rounds and clips a 6-tap filter output to an 8-bit sample — the
/// `Clip3` + `BytePack` tail of the Figure 3 data path.
#[must_use]
pub fn pack_half_pel(filtered: i32) -> u8 {
    clip3(0, 255, (filtered + 16) >> 5) as u8
}

/// Horizontal half-pel sample at integer position `(x, y)` (between
/// `(x, y)` and `(x+1, y)`).
#[must_use]
pub fn half_pel_h(plane: &Plane, x: isize, y: isize) -> u8 {
    let s = |dx: isize| i32::from(plane.sample_clamped(x + dx, y));
    pack_half_pel(point_filter(s(-2), s(-1), s(0), s(1), s(2), s(3)))
}

/// Vertical half-pel sample at integer position `(x, y)`.
#[must_use]
pub fn half_pel_v(plane: &Plane, x: isize, y: isize) -> u8 {
    let s = |dy: isize| i32::from(plane.sample_clamped(x, y + dy));
    pack_half_pel(point_filter(s(-2), s(-1), s(0), s(1), s(2), s(3)))
}

/// Diagonal half-pel sample: vertical 6-tap over horizontal 6-tap
/// intermediates (20-bit intermediate precision as in the standard).
#[must_use]
pub fn half_pel_hv(plane: &Plane, x: isize, y: isize) -> u8 {
    let h = |dy: isize| {
        let s = |dx: isize| i32::from(plane.sample_clamped(x + dx, y + dy));
        point_filter(s(-2), s(-1), s(0), s(1), s(2), s(3))
    };
    let v = point_filter(h(-2), h(-1), h(0), h(1), h(2), h(3));
    clip3(0, 255, (v + 512) >> 10) as u8
}

/// Samples the luma plane at quarter-pel position
/// `(4·x_int + frac_x, 4·y_int + frac_y)` with `frac ∈ [0, 3]`.
#[must_use]
pub fn sample_quarter_pel(plane: &Plane, x4: isize, y4: isize) -> u8 {
    let xi = x4.div_euclid(4);
    let yi = y4.div_euclid(4);
    let fx = x4.rem_euclid(4);
    let fy = y4.rem_euclid(4);
    let full = |dx: isize, dy: isize| plane.sample_clamped(xi + dx, yi + dy);
    match (fx, fy) {
        (0, 0) => full(0, 0),
        (2, 0) => half_pel_h(plane, xi, yi),
        (0, 2) => half_pel_v(plane, xi, yi),
        (2, 2) => half_pel_hv(plane, xi, yi),
        (1, 0) => average(full(0, 0), half_pel_h(plane, xi, yi)),
        (3, 0) => average(half_pel_h(plane, xi, yi), full(1, 0)),
        (0, 1) => average(full(0, 0), half_pel_v(plane, xi, yi)),
        (0, 3) => average(half_pel_v(plane, xi, yi), full(0, 1)),
        (1, 2) => average(half_pel_v(plane, xi, yi), half_pel_hv(plane, xi, yi)),
        (3, 2) => average(half_pel_hv(plane, xi, yi), half_pel_v(plane, xi + 1, yi)),
        (2, 1) => average(half_pel_h(plane, xi, yi), half_pel_hv(plane, xi, yi)),
        (2, 3) => average(half_pel_hv(plane, xi, yi), half_pel_h(plane, xi, yi + 1)),
        (1, 1) => average(half_pel_h(plane, xi, yi), half_pel_v(plane, xi, yi)),
        (3, 1) => average(half_pel_h(plane, xi, yi), half_pel_v(plane, xi + 1, yi)),
        (1, 3) => average(half_pel_h(plane, xi, yi + 1), half_pel_v(plane, xi, yi)),
        (3, 3) => average(half_pel_h(plane, xi, yi + 1), half_pel_v(plane, xi + 1, yi)),
        _ => unreachable!("fractions are in [0,3]"),
    }
}

/// Motion-compensates a 16×16 luma block: reads `reference` at the
/// quarter-pel motion vector `(mvx4, mvy4)` (quarter-pel units) for the
/// macroblock at `(mb_x, mb_y)` and writes the prediction into `out`. The
/// encoder compensates through [`InterpolatedRef::compensate_16x16`];
/// this is the reference that `kernel_properties.rs` checks it against.
pub fn compensate_16x16(
    reference: &Plane,
    mb_x: usize,
    mb_y: usize,
    mvx4: isize,
    mvy4: isize,
    out: &mut [u8; 256],
) {
    for row in 0..16 {
        for col in 0..16 {
            let x4 = 4 * (mb_x as isize + col as isize) + mvx4;
            let y4 = 4 * (mb_y as isize + row as isize) + mvy4;
            out[row * 16 + col] = sample_quarter_pel(reference, x4, y4);
        }
    }
}

/// Rounded average of two samples: the quarter-pel step of the MC SI.
fn average(a: u8, b: u8) -> u8 {
    ((u16::from(a) + u16::from(b) + 1) >> 1) as u8
}

/// Border, in samples, kept around each plane of an [`InterpolatedRef`].
///
/// From three samples outside the frame on, every 6-tap window is
/// clamped to the edge, so each plane is constant along that axis there.
/// Any border of at least 3 therefore lets a read clamp its coordinate
/// into the padded range and still equal the per-sample reference at any
/// motion vector.
const PAD: usize = 4;

/// The four sample grids of an [`InterpolatedRef`].
#[derive(Debug, Clone, Copy)]
enum Grid {
    Full,
    H,
    V,
    Hv,
}

/// A grid read `(dx, dy)` samples away from the integer position.
#[derive(Debug, Clone, Copy)]
struct Tap {
    grid: Grid,
    dx: isize,
    dy: isize,
}

const fn tap(grid: Grid, dx: isize, dy: isize) -> Tap {
    Tap { grid, dx, dy }
}

const F: Tap = tap(Grid::Full, 0, 0);
const F_RIGHT: Tap = tap(Grid::Full, 1, 0);
const F_BELOW: Tap = tap(Grid::Full, 0, 1);
const H: Tap = tap(Grid::H, 0, 0);
const H_BELOW: Tap = tap(Grid::H, 0, 1);
const V: Tap = tap(Grid::V, 0, 0);
const V_RIGHT: Tap = tap(Grid::V, 1, 0);
const HV: Tap = tap(Grid::Hv, 0, 0);

/// What [`sample_quarter_pel`] reads at phase `(fx, fy)`, indexed
/// `4·fy + fx`: one grid sample, or the rounded average of two.
#[rustfmt::skip]
const PHASE_TAPS: [(Tap, Option<Tap>); 16] = [
    (F, None),             (F, Some(H)),       (H, None),            (H, Some(F_RIGHT)),
    (F, Some(V)),          (H, Some(V)),       (H, Some(HV)),        (H, Some(V_RIGHT)),
    (V, None),             (V, Some(HV)),      (HV, None),           (HV, Some(V_RIGHT)),
    (V, Some(F_BELOW)),    (H_BELOW, Some(V)), (HV, Some(H_BELOW)),  (H_BELOW, Some(V_RIGHT)),
];

/// A reference plane interpolated once: its full-pel samples and its
/// horizontal, vertical and diagonal half-pel samples, each stored as a
/// plane edge-extended by a small border.
///
/// Reads reproduce the per-sample reference bit for bit at any motion
/// vector: [`Self::compensate_16x16`] equals [`compensate_16x16`] and
/// [`Self::sad_16x16`] equals [`sad_16x16`](crate::kernels::sad::sad_16x16)
/// over the source plane. Blocks inside the border are row-slice copies;
/// a block reaching past it falls back to clamped per-sample reads of the
/// same planes.
///
/// # Examples
///
/// ```
/// use rispp_h264::kernels::mc::{compensate_16x16, InterpolatedRef};
/// use rispp_h264::Plane;
///
/// let samples = (0..48 * 32).map(|i| (i * 7 % 251) as u8).collect();
/// let plane = Plane::from_samples(48, 32, samples);
/// let interpolated = InterpolatedRef::new(&plane);
/// let (mut fast, mut reference) = ([0u8; 256], [0u8; 256]);
/// interpolated.compensate_16x16(16, 16, -9, 6, &mut fast);
/// compensate_16x16(&plane, 16, 16, -9, 6, &mut reference);
/// assert_eq!(fast, reference);
/// ```
#[derive(Debug, Clone)]
pub struct InterpolatedRef {
    /// Width of each padded plane: the frame width plus `2·PAD`.
    stride: usize,
    /// Height of each padded plane.
    rows: usize,
    full: Vec<u8>,
    h: Vec<u8>,
    v: Vec<u8>,
    hv: Vec<u8>,
    /// Rolling window of six rows of unclipped horizontal 6-tap sums, the
    /// intermediates of the diagonal plane; row `r` sits in slot `r % 6`.
    sums: Vec<i32>,
}

impl InterpolatedRef {
    /// Interpolates `plane`.
    #[must_use]
    pub fn new(plane: &Plane) -> Self {
        let mut interpolated = InterpolatedRef {
            stride: 0,
            rows: 0,
            full: Vec::new(),
            h: Vec::new(),
            v: Vec::new(),
            hv: Vec::new(),
            sums: Vec::new(),
        };
        interpolated.rebuild(plane);
        interpolated
    }

    /// Re-interpolates from `plane` in place, reusing the buffers (no
    /// allocation unless `plane` is larger than any plane before it).
    pub fn rebuild(&mut self, plane: &Plane) {
        let (width, height) = (plane.width(), plane.height());
        let stride = width + 2 * PAD;
        let rows = height + 2 * PAD;
        self.stride = stride;
        self.rows = rows;
        let InterpolatedRef {
            full,
            h,
            v,
            hv,
            sums,
            ..
        } = self;
        for grid in [&mut *full, &mut *h, &mut *v, &mut *hv] {
            grid.resize(stride * rows, 0);
        }
        sums.resize(6 * stride, 0);

        let samples = plane.samples();
        for (py, row) in full.chunks_exact_mut(stride).enumerate() {
            let y = py.saturating_sub(PAD).min(height - 1);
            let src = &samples[y * width..][..width];
            let (left, rest) = row.split_at_mut(PAD);
            let (middle, right) = rest.split_at_mut(width);
            left.fill(src[0]);
            middle.copy_from_slice(src);
            right.fill(src[width - 1]);
        }

        let line = |r: usize| r * stride..(r + 1) * stride;
        let slot = |r: usize| line(r % 6);
        let mut summed = 0;
        for py in 0..rows {
            // Horizontal sums run three rows ahead of the vertical filters
            // that read them.
            while summed < rows.min(py + 4) {
                six_tap_sums(&full[line(summed)], &mut sums[slot(summed)]);
                for (out, &s) in h[line(summed)].iter_mut().zip(&sums[slot(summed)]) {
                    *out = pack_half_pel(s);
                }
                summed += 1;
            }
            let taps: [usize; 6] = array::from_fn(|k| (py + k).saturating_sub(2).min(rows - 1));
            let f = taps.map(|r| &full[line(r)]);
            for (x, out) in v[line(py)].iter_mut().enumerate() {
                let t = |k: usize| i32::from(f[k][x]);
                *out = pack_half_pel(point_filter(t(0), t(1), t(2), t(3), t(4), t(5)));
            }
            let s = taps.map(|r| &sums[slot(r)]);
            for (x, out) in hv[line(py)].iter_mut().enumerate() {
                let t = |k: usize| s[k][x];
                let filtered = point_filter(t(0), t(1), t(2), t(3), t(4), t(5));
                *out = clip3(0, 255, (filtered + 512) >> 10) as u8;
            }
        }
    }

    fn grid(&self, grid: Grid) -> &[u8] {
        match grid {
            Grid::Full => &self.full,
            Grid::H => &self.h,
            Grid::V => &self.v,
            Grid::Hv => &self.hv,
        }
    }

    /// `tap`'s grid from the sample for integer position `(x, y)` on,
    /// when the 16×16 block there lies inside the padded plane.
    fn block(&self, tap: Tap, x: isize, y: isize) -> Option<&[u8]> {
        let px = usize::try_from(x + tap.dx + PAD as isize).ok()?;
        let py = usize::try_from(y + tap.dy + PAD as isize).ok()?;
        (px + 16 <= self.stride && py + 16 <= self.rows)
            .then(|| &self.grid(tap.grid)[py * self.stride + px..])
    }

    /// `tap`'s sample for integer position `(x, y)`, the coordinate
    /// clamped into the padded plane (exact at any position, see `PAD`).
    fn sample(&self, tap: Tap, x: isize, y: isize) -> u8 {
        let px = (x + tap.dx + PAD as isize).clamp(0, self.stride as isize - 1) as usize;
        let py = (y + tap.dy + PAD as isize).clamp(0, self.rows as isize - 1) as usize;
        self.grid(tap.grid)[py * self.stride + px]
    }

    /// Motion-compensates the 16×16 block at `(mb_x, mb_y)` with the
    /// quarter-pel motion vector `(mvx4, mvy4)`: the same prediction as
    /// [`compensate_16x16`] over the source plane.
    pub fn compensate_16x16(
        &self,
        mb_x: usize,
        mb_y: usize,
        mvx4: isize,
        mvy4: isize,
        out: &mut [u8; 256],
    ) {
        let x = mb_x as isize + (mvx4 >> 2);
        let y = mb_y as isize + (mvy4 >> 2);
        let (first, second) = PHASE_TAPS[(4 * (mvy4 & 3) + (mvx4 & 3)) as usize];
        let stride = self.stride;
        match (self.block(first, x, y), second.map(|t| self.block(t, x, y))) {
            (Some(a), None) => {
                for (r, dst) in out.chunks_exact_mut(16).enumerate() {
                    dst.copy_from_slice(&a[r * stride..][..16]);
                }
            }
            (Some(a), Some(Some(b))) => {
                for (r, dst) in out.chunks_exact_mut(16).enumerate() {
                    let rows = a[r * stride..][..16].iter().zip(&b[r * stride..][..16]);
                    for (d, (&p, &q)) in dst.iter_mut().zip(rows) {
                        *d = average(p, q);
                    }
                }
            }
            _ => {
                for (i, d) in out.iter_mut().enumerate() {
                    let (sx, sy) = (x + (i % 16) as isize, y + (i / 16) as isize);
                    let s = self.sample(first, sx, sy);
                    *d = second.map_or(s, |t| average(s, self.sample(t, sx, sy)));
                }
            }
        }
    }

    /// SAD of the 16×16 block `cur` (row-major) against the full-pel block
    /// at `(x + mvx, y + mvy)`: the same value as
    /// [`sad_16x16`](crate::kernels::sad::sad_16x16) over the source plane
    /// with `cur` read from `(x, y)`.
    #[must_use]
    pub fn sad_16x16(&self, cur: &[u8; 256], x: usize, y: usize, mvx: isize, mvy: isize) -> u32 {
        let (x, y) = (x as isize + mvx, y as isize + mvy);
        let row_sad = |c: &[u8], r: &[u8]| -> u32 {
            c.iter()
                .zip(r)
                .map(|(&p, &q)| u32::from(p.abs_diff(q)))
                .sum()
        };
        match self.block(F, x, y) {
            Some(block) => cur
                .chunks_exact(16)
                .enumerate()
                .map(|(r, c)| row_sad(c, &block[r * self.stride..][..16]))
                .sum(),
            None => cur
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let r = self.sample(F, x + (i % 16) as isize, y + (i / 16) as isize);
                    u32::from(c.abs_diff(r))
                })
                .sum(),
        }
    }
}

/// Equal when built from equal planes; the rolling window is working
/// memory and is not compared.
impl PartialEq for InterpolatedRef {
    fn eq(&self, other: &Self) -> bool {
        (self.stride, self.rows) == (other.stride, other.rows)
            && self.full == other.full
            && self.h == other.h
            && self.v == other.v
            && self.hv == other.hv
    }
}

impl Eq for InterpolatedRef {}

/// Unclipped 6-tap sums along `line`: `out[i]` filters
/// `line[i-2..=i+3]`, reading past either end as the end sample.
fn six_tap_sums(line: &[u8], out: &mut [i32]) {
    let n = line.len();
    let at = |i: usize| i32::from(line[i.saturating_sub(2).min(n - 1)]);
    for i in (0..2).chain(n - 3..n) {
        out[i] = point_filter(at(i), at(i + 1), at(i + 2), at(i + 3), at(i + 4), at(i + 5));
    }
    for (o, w) in out[2..].iter_mut().zip(line.windows(6)) {
        let t = |k: usize| i32::from(w[k]);
        *o = point_filter(t(0), t(1), t(2), t(3), t(4), t(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_filter_matches_reference_taps() {
        assert_eq!(point_filter(1, 1, 1, 1, 1, 1), 32);
        assert_eq!(point_filter(0, 0, 1, 0, 0, 0), 20);
        assert_eq!(point_filter(0, 1, 0, 0, 0, 0), -5);
    }

    #[test]
    fn constant_plane_interpolates_to_constant() {
        let p = Plane::filled(32, 32, 77);
        assert_eq!(half_pel_h(&p, 10, 10), 77);
        assert_eq!(half_pel_v(&p, 10, 10), 77);
        assert_eq!(half_pel_hv(&p, 10, 10), 77);
        for fx in 0..4 {
            for fy in 0..4 {
                assert_eq!(sample_quarter_pel(&p, 40 + fx, 40 + fy), 77);
            }
        }
    }

    #[test]
    fn zero_mv_compensation_copies_block() {
        let mut p = Plane::filled(32, 32, 0);
        for y in 0..16 {
            for x in 0..16 {
                p.set_sample(x, y, (x * 16 + y) as u8);
            }
        }
        let mut out = [0u8; 256];
        compensate_16x16(&p, 0, 0, 0, 0, &mut out);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(out[y * 16 + x], p.sample(x, y));
            }
        }
    }

    #[test]
    fn half_pel_between_step_edge_is_smoothed() {
        // Step edge 0|255: the half-pel sample between them must be strictly
        // between the extremes.
        let mut p = Plane::filled(16, 4, 0);
        for y in 0..4 {
            for x in 8..16 {
                p.set_sample(x, y, 255);
            }
        }
        let h = half_pel_h(&p, 7, 1);
        assert!(h > 0 && h < 255, "got {h}");
    }

    #[test]
    fn clip3_bounds() {
        assert_eq!(clip3(0, 255, -7), 0);
        assert_eq!(clip3(0, 255, 300), 255);
        assert_eq!(clip3(0, 255, 128), 128);
    }

    #[test]
    fn quarter_pel_average_is_monotone() {
        let mut p = Plane::filled(32, 4, 0);
        for y in 0..4 {
            for x in 0..32 {
                p.set_sample(x, y, (x * 8).min(255) as u8);
            }
        }
        // Along an increasing ramp, quarter positions are non-decreasing.
        let s0 = sample_quarter_pel(&p, 40, 8);
        let s1 = sample_quarter_pel(&p, 41, 8);
        let s2 = sample_quarter_pel(&p, 42, 8);
        let s3 = sample_quarter_pel(&p, 43, 8);
        let s4 = sample_quarter_pel(&p, 44, 8);
        assert!(
            s0 <= s1 && s1 <= s2 && s2 <= s3 && s3 <= s4,
            "{s0} {s1} {s2} {s3} {s4}"
        );
    }

    #[test]
    fn negative_mv_uses_euclidean_fractions() {
        let p = Plane::filled(8, 8, 50);
        // x4 = -3 -> xi = -1, fx = 1: clamped constant plane stays 50.
        assert_eq!(sample_quarter_pel(&p, -3, -3), 50);
    }
}
