//! Deterministic fault model for the reconfigurable fabric.
//!
//! Partial-reconfiguration fabrics fail in three characteristic ways, all of
//! which this module models with *seeded, reproducible* draws:
//!
//! 1. **CRC aborts** — a bitstream transfer is corrupted in flight and the
//!    configuration port rejects it at the end of the load. The port cycles
//!    are wasted and the target container ends up empty.
//! 2. **SEU corruption** — a single-event upset flips configuration bits of
//!    a *loaded* Atom some time after the load completes; the Atom becomes
//!    unusable until it is scrubbed and reloaded.
//! 3. **Permanent failures** — a container's reconfigurable tile dies for
//!    good at a scheduled cycle and must be quarantined.
//!
//! All randomness comes from one `xorshift64*` stream per [`Fabric`]
//! (seeded from [`FaultModel::seed`]), so a run is bit-identical regardless
//! of how many sweep threads execute it, and a model with every rate at
//! zero behaves exactly like no model at all.
//!
//! [`Fabric`]: crate::Fabric

/// Probability denominator: rates are expressed in parts per million so the
/// model stays `Copy + Eq + Hash` (no floats in configuration).
pub const PPM: u32 = 1_000_000;

/// Default horizon for permanent-failure scheduling (cycles). At the
/// prototype's 100 MHz this is 300 ms — early enough that even short
/// simulations observe scheduled tile deaths.
pub const DEFAULT_FAILURE_HORIZON: u64 = 30_000_000;

/// Seeded fault-injection parameters for a [`Fabric`](crate::Fabric).
///
/// All rates are integers (parts per million) so the model can ride inside
/// `Copy + Eq` simulation configs. A model where every rate is zero is
/// *null*: it draws nothing beyond the per-load CRC check and produces
/// bit-identical behaviour to a fabric without any model attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultModel {
    /// Seed of the per-fabric `xorshift64*` stream.
    pub seed: u64,
    /// Probability (ppm) that any single bitstream load aborts with a CRC
    /// error at the end of the transfer.
    pub crc_abort_ppm: u32,
    /// Expected SEU corruptions per loaded Atom per 10⁹ cycles. The
    /// lifetime of each loaded Atom is drawn from the corresponding
    /// exponential distribution when its load completes.
    pub seu_per_gcycle: u32,
    /// Probability (ppm) that a given container suffers a permanent tile
    /// failure somewhere inside the failure horizon.
    pub permanent_failure_ppm: u32,
    /// Horizon (cycles) within which scheduled permanent failures occur,
    /// uniformly distributed. Zero falls back to
    /// [`DEFAULT_FAILURE_HORIZON`].
    pub permanent_failure_horizon: u64,
}

impl FaultModel {
    /// A model that injects nothing (all rates zero).
    #[must_use]
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// A single-knob model: `rate` in `[0, 1]` scales all three mechanisms.
    ///
    /// CRC aborts hit `rate` of all loads; loaded Atoms suffer SEUs at
    /// `rate · 1000` per gigacycle (mean lifetime `10⁹ / (rate·1000)`
    /// cycles, i.e. 20 M cycles at `rate = 0.05`); each container has a
    /// `min(4·rate, 1)` chance of a permanent failure inside the default
    /// horizon.
    #[must_use]
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        FaultModel::uniform_ppm((rate * f64::from(PPM)).round() as u32, seed)
    }

    /// [`FaultModel::uniform`] with the rate already expressed in ppm.
    #[must_use]
    pub fn uniform_ppm(rate_ppm: u32, seed: u64) -> Self {
        let rate_ppm = rate_ppm.min(PPM);
        FaultModel {
            seed,
            crc_abort_ppm: rate_ppm,
            // ppm → per-gigacycle: 0.05 (50 000 ppm) → 50 SEU/gigacycle.
            seu_per_gcycle: rate_ppm / 1_000,
            permanent_failure_ppm: rate_ppm.saturating_mul(4).min(PPM),
            permanent_failure_horizon: DEFAULT_FAILURE_HORIZON,
        }
    }

    /// The effective permanent-failure horizon (default applied).
    #[must_use]
    pub fn failure_horizon(&self) -> u64 {
        if self.permanent_failure_horizon == 0 {
            DEFAULT_FAILURE_HORIZON
        } else {
            self.permanent_failure_horizon
        }
    }
}

/// `xorshift64*`: tiny, fast, and deterministic across platforms. Quality
/// is more than sufficient for fault draws and keeps the crate free of
/// external RNG dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        // Mix the seed so nearby seeds produce unrelated streams and the
        // all-zero fixed point is unreachable.
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        if s == 0 {
            s = 0x2545_F491_4F6C_DD1D;
        }
        XorShift64 { state: s }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `true` with probability `ppm / 10⁶`.
    pub(crate) fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.next_u64() % u64::from(PPM) < u64::from(ppm)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let scale = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * scale
    }

    /// Exponential lifetime draw for a loaded Atom: mean `10⁹ / rate`
    /// cycles, clamped to at least one cycle so corruption never lands on
    /// the load-completion instant itself.
    pub(crate) fn seu_lifetime(&mut self, seu_per_gcycle: u32) -> u64 {
        let u = self.unit_f64();
        let mean = 1e9 / f64::from(seu_per_gcycle);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cycles = (-(1.0 - u).ln() * mean).round() as u64;
        cycles.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scales_all_mechanisms() {
        let m = FaultModel::uniform(0.05, 7);
        assert_eq!(m.crc_abort_ppm, 50_000);
        assert_eq!(m.seu_per_gcycle, 50);
        assert_eq!(m.permanent_failure_ppm, 200_000);
        assert_eq!(m.failure_horizon(), DEFAULT_FAILURE_HORIZON);
        // Saturation at certainty.
        let m = FaultModel::uniform(0.9, 7);
        assert_eq!(m.permanent_failure_ppm, PPM);
    }

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(123);
        let mut b = XorShift64::new(123);
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
        }
        // Zero seed must not collapse to a stuck stream.
        let mut z = XorShift64::new(0x9E37_79B9_7F4A_7C15); // mixes to zero pre-guard
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn chance_ppm_extremes() {
        let mut rng = XorShift64::new(9);
        assert!(!(0..1_000).any(|_| rng.chance_ppm(0)));
        assert!((0..1_000).all(|_| rng.chance_ppm(PPM)));
    }

    #[test]
    fn seu_lifetime_is_positive_and_roughly_exponential() {
        let mut rng = XorShift64::new(11);
        let draws: Vec<u64> = (0..2_000).map(|_| rng.seu_lifetime(50)).collect();
        assert!(draws.iter().all(|&c| c >= 1));
        // Mean should be in the right ballpark of 1e9/50 = 20M cycles.
        #[allow(clippy::cast_precision_loss)]
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!((10e6..40e6).contains(&mean), "mean lifetime {mean:.0}");
    }
}
