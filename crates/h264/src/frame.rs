use std::fmt;

/// Macroblock edge length in luma samples.
pub const MB_SIZE: usize = 16;

/// A rectangular plane of 8-bit samples (one colour component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    samples: Vec<u8>,
}

impl Plane {
    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    #[must_use]
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be positive");
        Plane {
            width,
            height,
            samples: vec![value; width * height],
        }
    }

    /// Creates a plane from row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != width * height`.
    #[must_use]
    pub fn from_samples(width: usize, height: usize, samples: Vec<u8>) -> Self {
        assert_eq!(samples.len(), width * height, "sample count mismatch");
        Plane {
            width,
            height,
            samples,
        }
    }

    /// Plane width in samples.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major samples.
    #[must_use]
    pub fn samples(&self) -> &[u8] {
        &self.samples
    }

    /// Sample at `(x, y)`, with coordinates clamped to the plane borders
    /// (H.264 unrestricted motion vectors pad by edge extension).
    #[must_use]
    pub fn sample_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.samples[y * self.width + x]
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn sample(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.samples[y * self.width + x]
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set_sample(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.samples[y * self.width + x] = value;
    }

    /// Copies the `n×n` block at `(x, y)` into `out` (row-major), clamping
    /// reads at the borders.
    pub fn read_block(&self, x: isize, y: isize, n: usize, out: &mut [u8]) {
        debug_assert!(out.len() >= n * n);
        for row in 0..n {
            for col in 0..n {
                out[row * n + col] = self.sample_clamped(x + col as isize, y + row as isize);
            }
        }
    }

    /// Writes the `n×n` block `data` (row-major) at `(x, y)`, clipping to
    /// the plane bounds.
    pub fn write_block(&mut self, x: usize, y: usize, n: usize, data: &[u8]) {
        debug_assert!(data.len() >= n * n);
        for row in 0..n {
            let py = y + row;
            if py >= self.height {
                break;
            }
            for col in 0..n {
                let px = x + col;
                if px >= self.width {
                    break;
                }
                self.samples[py * self.width + px] = data[row * n + col];
            }
        }
    }

    /// Sum of squared differences against another plane (PSNR building
    /// block).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn sse(&self, other: &Plane) -> u64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        self.samples
            .iter()
            .zip(&other.samples)
            .map(|(&a, &b)| {
                let d = i64::from(a) - i64::from(b);
                (d * d) as u64
            })
            .sum()
    }

    /// Peak signal-to-noise ratio in dB against a reference plane.
    #[must_use]
    pub fn psnr(&self, reference: &Plane) -> f64 {
        let sse = self.sse(reference);
        if sse == 0 {
            return f64::INFINITY;
        }
        let mse = sse as f64 / (self.width * self.height) as f64;
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

/// A YCbCr 4:2:0 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Luma plane.
    pub y: Plane,
    /// Blue-difference chroma plane (half resolution).
    pub cb: Plane,
    /// Red-difference chroma plane (half resolution).
    pub cr: Plane,
}

impl Frame {
    /// Creates a mid-grey frame of the given luma dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not multiples of [`MB_SIZE`].
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(MB_SIZE) && height.is_multiple_of(MB_SIZE),
            "frame dimensions must be multiples of the macroblock size"
        );
        Frame {
            y: Plane::filled(width, height, 128),
            cb: Plane::filled(width / 2, height / 2, 128),
            cr: Plane::filled(width / 2, height / 2, 128),
        }
    }

    /// Luma width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.y.height()
    }

    /// Macroblock columns.
    #[must_use]
    pub fn mb_cols(&self) -> usize {
        self.width() / MB_SIZE
    }

    /// Macroblock rows.
    #[must_use]
    pub fn mb_rows(&self) -> usize {
        self.height() / MB_SIZE
    }

    /// Luma PSNR against a reference frame.
    #[must_use]
    pub fn psnr_y(&self, reference: &Frame) -> f64 {
        self.y.psnr(&reference.y)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} 4:2:0 frame", self.width(), self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cif_geometry() {
        let f = Frame::new(352, 288);
        assert_eq!(f.mb_cols(), 22);
        assert_eq!(f.mb_rows(), 18);
        assert_eq!(f.cb.width(), 176);
        assert_eq!(f.to_string(), "352x288 4:2:0 frame");
    }

    #[test]
    fn clamped_sampling_extends_edges() {
        let mut p = Plane::filled(4, 4, 0);
        p.set_sample(0, 0, 77);
        p.set_sample(3, 3, 99);
        assert_eq!(p.sample_clamped(-5, -5), 77);
        assert_eq!(p.sample_clamped(10, 10), 99);
    }

    #[test]
    fn block_roundtrip() {
        let mut p = Plane::filled(8, 8, 0);
        let data: Vec<u8> = (0..16).collect();
        p.write_block(2, 2, 4, &data);
        let mut out = [0u8; 16];
        p.read_block(2, 2, 4, &mut out);
        assert_eq!(&out[..], &data[..]);
        assert_eq!(p.sample(2, 2), 0);
        assert_eq!(p.sample(5, 5), 15);
    }

    #[test]
    fn write_block_clips_at_border() {
        let mut p = Plane::filled(4, 4, 0);
        let data = [9u8; 16];
        p.write_block(2, 2, 4, &data);
        assert_eq!(p.sample(3, 3), 9);
        // No panic and untouched interior.
        assert_eq!(p.sample(1, 1), 0);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let p = Plane::filled(16, 16, 100);
        assert!(p.psnr(&p).is_infinite());
        let mut q = p.clone();
        q.set_sample(0, 0, 101);
        assert!(p.psnr(&q) > 40.0);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn unaligned_frame_panics() {
        let _ = Frame::new(100, 100);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_sample_panics() {
        let p = Plane::filled(2, 2, 0);
        let _ = p.sample(2, 0);
    }
}
