//! In-loop deblocking, boundary strength 4 — the `LF_BS4` Special
//! Instruction (Table 1: 2 Atom types `CondSub`, `Clip3`; 5 Molecules).
//!
//! BS4 is the strong filter applied to intra-macroblock edges. The
//! conditional strong/weak choice per line (`|p0−q0| < (α>>2)+2` etc.) is
//! the `CondSub` Atom; the output clamping is `Clip3`.

use crate::frame::Plane;

/// Alpha/beta thresholds for a (simplified, QP-indexed) filter decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Edge-activity threshold α.
    pub alpha: i32,
    /// Side-activity threshold β.
    pub beta: i32,
}

impl Thresholds {
    /// Standard-shaped thresholds for quantisation parameter `qp`.
    #[must_use]
    pub fn for_qp(qp: u8) -> Self {
        // Shapes follow Table 8-16 of the standard closely enough for
        // workload purposes: exponential in QP, zero below QP 16.
        let q = i32::from(qp.min(51));
        let alpha = if q < 16 { 0 } else { ((q - 12) * (q - 12)) / 8 };
        let beta = if q < 16 { 0 } else { (q - 10) / 2 };
        Thresholds { alpha, beta }
    }
}

/// Filters one line of samples across an edge with boundary strength 4.
///
/// `p` holds the four samples left/above of the edge (`p[0]` nearest), `q`
/// the four samples right/below. Returns the filtered `(p0..p2, q0..q2)`
/// samples, or `None` when the filter decision rejects the line.
#[must_use]
pub fn filter_line_bs4(p: &[u8; 4], q: &[u8; 4], t: Thresholds) -> Option<([u8; 3], [u8; 3])> {
    let pi = p.map(i32::from);
    let qi = q.map(i32::from);
    // Filter-on decision (CondSub atom).
    if (pi[0] - qi[0]).abs() >= t.alpha
        || (pi[1] - pi[0]).abs() >= t.beta
        || (qi[1] - qi[0]).abs() >= t.beta
    {
        return None;
    }
    let clip = |x: i32| x.clamp(0, 255) as u8;
    let strong_p = (pi[2] - pi[0]).abs() < t.beta && (pi[0] - qi[0]).abs() < (t.alpha >> 2) + 2;
    let strong_q = (qi[2] - qi[0]).abs() < t.beta && (pi[0] - qi[0]).abs() < (t.alpha >> 2) + 2;
    let new_p = if strong_p {
        [
            clip((pi[2] + 2 * pi[1] + 2 * pi[0] + 2 * qi[0] + qi[1] + 4) >> 3),
            clip((pi[2] + pi[1] + pi[0] + qi[0] + 2) >> 2),
            clip((2 * pi[3] + 3 * pi[2] + pi[1] + pi[0] + qi[0] + 4) >> 3),
        ]
    } else {
        [clip((2 * pi[1] + pi[0] + qi[1] + 2) >> 2), p[1], p[2]]
    };
    let new_q = if strong_q {
        [
            clip((qi[2] + 2 * qi[1] + 2 * qi[0] + 2 * pi[0] + pi[1] + 4) >> 3),
            clip((qi[2] + qi[1] + qi[0] + pi[0] + 2) >> 2),
            clip((2 * qi[3] + 3 * qi[2] + qi[1] + qi[0] + pi[0] + 4) >> 3),
        ]
    } else {
        [clip((2 * qi[1] + qi[0] + pi[1] + 2) >> 2), q[1], q[2]]
    };
    Some((new_p, new_q))
}

/// Applies the BS4 filter to a full 16-sample vertical edge at column `x`
/// (filtering across columns `x-4..x+4`) for the MB rows `y..y+16`.
/// Returns the number of lines actually filtered.
pub fn filter_vertical_edge_bs4(plane: &mut Plane, x: usize, y: usize, t: Thresholds) -> u32 {
    if x < 4 || x + 4 > plane.width() {
        return 0;
    }
    let mut filtered = 0;
    for row in 0..16 {
        let yy = y + row;
        if yy >= plane.height() {
            break;
        }
        let p = [
            plane.sample(x - 1, yy),
            plane.sample(x - 2, yy),
            plane.sample(x - 3, yy),
            plane.sample(x - 4, yy),
        ];
        let q = [
            plane.sample(x, yy),
            plane.sample(x + 1, yy),
            plane.sample(x + 2, yy),
            plane.sample(x + 3, yy),
        ];
        if let Some((np, nq)) = filter_line_bs4(&p, &q, t) {
            for (i, &v) in np.iter().enumerate() {
                plane.set_sample(x - 1 - i, yy, v);
            }
            for (i, &v) in nq.iter().enumerate() {
                plane.set_sample(x + i, yy, v);
            }
            filtered += 1;
        }
    }
    filtered
}

/// Applies the BS4 filter to a full 16-sample horizontal edge at row `y`
/// for the MB columns `x..x+16`. Returns the number of lines filtered.
pub fn filter_horizontal_edge_bs4(plane: &mut Plane, x: usize, y: usize, t: Thresholds) -> u32 {
    if y < 4 || y + 4 > plane.height() {
        return 0;
    }
    let mut filtered = 0;
    for col in 0..16 {
        let xx = x + col;
        if xx >= plane.width() {
            break;
        }
        let p = [
            plane.sample(xx, y - 1),
            plane.sample(xx, y - 2),
            plane.sample(xx, y - 3),
            plane.sample(xx, y - 4),
        ];
        let q = [
            plane.sample(xx, y),
            plane.sample(xx, y + 1),
            plane.sample(xx, y + 2),
            plane.sample(xx, y + 3),
        ];
        if let Some((np, nq)) = filter_line_bs4(&p, &q, t) {
            for (i, &v) in np.iter().enumerate() {
                plane.set_sample(xx, y - 1 - i, v);
            }
            for (i, &v) in nq.iter().enumerate() {
                plane.set_sample(xx, y + i, v);
            }
            filtered += 1;
        }
    }
    filtered
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Thresholds = Thresholds { alpha: 40, beta: 8 };

    #[test]
    fn flat_edge_stays_flat() {
        let p = [100u8; 4];
        let q = [100u8; 4];
        let (np, nq) = filter_line_bs4(&p, &q, T).expect("flat edge passes decision");
        assert_eq!(np, [100u8; 3]);
        assert_eq!(nq, [100u8; 3]);
    }

    #[test]
    fn strong_discontinuity_is_not_filtered() {
        // |p0 - q0| ≥ α: a real image edge, must be preserved.
        let p = [200u8, 200, 200, 200];
        let q = [100u8, 100, 100, 100];
        assert!(filter_line_bs4(&p, &q, T).is_none());
    }

    #[test]
    fn small_blocking_step_is_smoothed() {
        let p = [104u8, 104, 104, 104];
        let q = [96u8, 96, 96, 96];
        let (np, nq) = filter_line_bs4(&p, &q, T).expect("blocking artefact passes");
        // The step across the edge must shrink.
        let before = i32::from(p[0]) - i32::from(q[0]);
        let after = i32::from(np[0]) - i32::from(nq[0]);
        assert!(after.abs() < before.abs(), "{before} -> {after}");
    }

    #[test]
    fn vertical_edge_filter_counts_lines() {
        let mut plane = Plane::filled(32, 32, 100);
        // Create a mild step at column 16.
        for y in 0..32 {
            for x in 16..32 {
                plane.set_sample(x, y, 94);
            }
        }
        let n = filter_vertical_edge_bs4(&mut plane, 16, 0, T);
        assert_eq!(n, 16);
        // Edge is smoothed.
        assert!(plane.sample(15, 0) < 100);
        assert!(plane.sample(16, 0) > 94);
    }

    #[test]
    fn horizontal_edge_filter_counts_lines() {
        let mut plane = Plane::filled(32, 32, 100);
        for y in 16..32 {
            for x in 0..32 {
                plane.set_sample(x, y, 106);
            }
        }
        let n = filter_horizontal_edge_bs4(&mut plane, 0, 16, T);
        assert_eq!(n, 16);
    }

    #[test]
    fn qp_thresholds_are_monotone() {
        let a = Thresholds::for_qp(20);
        let b = Thresholds::for_qp(35);
        assert!(b.alpha > a.alpha);
        assert!(b.beta >= a.beta);
        assert_eq!(Thresholds::for_qp(10).alpha, 0);
    }

    #[test]
    fn border_edges_are_skipped() {
        let mut plane = Plane::filled(16, 16, 100);
        assert_eq!(filter_vertical_edge_bs4(&mut plane, 0, 0, T), 0);
        assert_eq!(filter_horizontal_edge_bs4(&mut plane, 0, 0, T), 0);
    }
}
