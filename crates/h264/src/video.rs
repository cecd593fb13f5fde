use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::frame::{Frame, Plane};

/// Deterministic synthetic CIF-style video generator.
///
/// Stands in for the paper's real 140-frame CIF sequence: a textured
/// background with global panning, several moving foreground objects with
/// individual velocities, a mid-sequence motion burst (so the SI
/// execution profile changes over time, the "non-predictable application
/// behaviour" the run-time system reacts to) and mild sensor noise.
///
/// # Examples
///
/// ```
/// use rispp_h264::SyntheticVideo;
///
/// let mut video = SyntheticVideo::new(352, 288, 42);
/// let first = video.next_frame();
/// let second = video.next_frame();
/// assert_eq!(first.mb_cols() * first.mb_rows(), 396);
/// assert_ne!(first, second); // motion between frames
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    width: usize,
    height: usize,
    rng: SmallRng,
    frame_index: u32,
    objects: Vec<MovingObject>,
}

#[derive(Debug, Clone, Copy)]
struct MovingObject {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    w: usize,
    h: usize,
    luma: u8,
}

impl SyntheticVideo {
    /// A sequence of arbitrary MB-aligned dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not multiples of 16.
    #[must_use]
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        assert!(width.is_multiple_of(16) && height.is_multiple_of(16));
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects = (0..5)
            .map(|i| MovingObject {
                x: rng.gen_range(0.0..width as f64 * 0.8),
                y: rng.gen_range(0.0..height as f64 * 0.8),
                vx: rng.gen_range(-3.0..3.0),
                vy: rng.gen_range(-2.0..2.0),
                w: 24 + 12 * (i % 3),
                h: 20 + 10 * (i % 4),
                luma: 60 + (i as u8) * 35,
            })
            .collect();
        SyntheticVideo {
            width,
            height,
            rng,
            frame_index: 0,
            objects,
        }
    }

    /// Current frame index (0-based, incremented by [`Self::next_frame`]).
    #[must_use]
    pub fn frame_index(&self) -> u32 {
        self.frame_index
    }

    /// Renders the next frame and advances the scene.
    pub fn next_frame(&mut self) -> Frame {
        let t = f64::from(self.frame_index);
        // Global pan accelerates in the middle third of a 140-frame clip
        // (a motion burst), and a scene cut at frame 70 jumps the
        // background: both shift the SI execution profile at run time, the
        // "non-predictable application behaviour" the paper targets.
        let burst = if (47.0..94.0).contains(&t) { 2.5 } else { 1.0 };
        let cut = if t >= 70.0 { 900.0 } else { 0.0 };
        let pan_x = t * 0.8 * burst + cut;
        let pan_y = t * 0.3 + cut * 0.4;

        // Textured background: two low-frequency gradients, a sine per
        // column and a cosine per row.
        let column_sin: Vec<f64> = (0..self.width)
            .map(|xx| ((xx as f64 + pan_x) * 0.05).sin())
            .collect();
        let mut y_samples = Vec::with_capacity(self.width * self.height);
        for yy in 0..self.height {
            let row_cos = ((yy as f64 + pan_y) * 0.07).cos();
            for &sin in &column_sin {
                let v = 110.0 + 35.0 * (sin + row_cos);
                y_samples.push(v.clamp(0.0, 255.0) as u8);
            }
        }
        let mut y = Plane::from_samples(self.width, self.height, y_samples);

        // Foreground objects.
        for obj in &self.objects {
            let ox = obj.x as isize;
            let oy = obj.y as isize;
            for dy in 0..obj.h as isize {
                for dx in 0..obj.w as isize {
                    let px = ox + dx;
                    let py = oy + dy;
                    if px >= 0
                        && py >= 0
                        && (px as usize) < self.width
                        && (py as usize) < self.height
                    {
                        // Simple shading for internal texture.
                        let shade = ((dx * 5 + dy * 3) % 32) as u8;
                        y.set_sample(px as usize, py as usize, obj.luma.saturating_add(shade));
                    }
                }
            }
        }

        // Sensor noise (±2 levels).
        for yy in 0..self.height {
            for xx in 0..self.width {
                let n: i16 = self.rng.gen_range(-2..=2);
                let v = i16::from(y.sample(xx, yy)) + n;
                y.set_sample(xx, yy, v.clamp(0, 255) as u8);
            }
        }

        // Advance the scene.
        for obj in &mut self.objects {
            obj.x += obj.vx * burst;
            obj.y += obj.vy * burst;
            if obj.x < -(obj.w as f64) {
                obj.x = self.width as f64;
            }
            if obj.x > self.width as f64 {
                obj.x = -(obj.w as f64);
            }
            if obj.y < -(obj.h as f64) {
                obj.y = self.height as f64;
            }
            if obj.y > self.height as f64 {
                obj.y = -(obj.h as f64);
            }
        }
        self.frame_index += 1;

        // Chroma: downsampled smooth fields (chroma SIs are not modelled
        // separately; EE chroma work is folded into the overhead cycles).
        let cw = self.width / 2;
        let ch = self.height / 2;
        let mut cb = Plane::filled(cw, ch, 128);
        let mut cr = Plane::filled(cw, ch, 128);
        for yy in 0..ch {
            for xx in 0..cw {
                cb.set_sample(xx, yy, (110 + (xx + yy) % 30) as u8);
                cr.set_sample(xx, yy, (120 + (xx * 2 + yy) % 20) as u8);
            }
        }
        Frame { y, cb, cr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = SyntheticVideo::new(352, 288, 7);
        let mut b = SyntheticVideo::new(352, 288, 7);
        assert_eq!(a.next_frame(), b.next_frame());
        assert_eq!(a.next_frame(), b.next_frame());
        assert_eq!(a.frame_index(), 2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticVideo::new(352, 288, 1);
        let mut b = SyntheticVideo::new(352, 288, 2);
        assert_ne!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn consecutive_frames_have_motion_but_similarity() {
        let mut v = SyntheticVideo::new(352, 288, 3);
        let f0 = v.next_frame();
        let f1 = v.next_frame();
        let psnr = f1.psnr_y(&f0);
        // Moving content: not identical, but strongly correlated.
        assert!(psnr.is_finite());
        assert!(psnr > 12.0, "frames too different: {psnr} dB");
        assert!(psnr < 50.0, "frames too similar: {psnr} dB");
    }

    #[test]
    fn motion_burst_increases_frame_difference() {
        let mut v = SyntheticVideo::new(352, 288, 4);
        let mut frames = Vec::new();
        for _ in 0..100 {
            frames.push(v.next_frame());
        }
        let calm = frames[10].psnr_y(&frames[9]);
        let burst = frames[60].psnr_y(&frames[59]);
        assert!(burst < calm, "burst {burst} should be below calm {calm}");
    }

    #[test]
    #[should_panic]
    fn unaligned_dimensions_panic() {
        let _ = SyntheticVideo::new(100, 100, 0);
    }
}
