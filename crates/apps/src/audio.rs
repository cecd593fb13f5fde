//! The audio filterbank application: FIR low-pass, parametric biquad
//! equalisation and decimation over synthesised audio.
//!
//! The per-stage SI mix is content-dependent: the equaliser stage adapts
//! its active band count to the signal's spectral tilt, so the run-time
//! system sees a drifting profile just like the H.264 encoder's
//! motion-dependent one.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{Burst, Invocation, Trace};

/// A 15-tap symmetric FIR low-pass (integer coefficients, gain-normalised
/// by the caller through the >> 8 in [`fir_filter`]).
pub const FIR_TAPS: [i32; 15] = [-2, -4, -2, 6, 18, 32, 42, 46, 42, 32, 18, 6, -2, -4, -2];

/// Applies the 15-tap FIR to `input`, producing `input.len()` samples
/// (edge samples use zero padding).
#[must_use]
pub fn fir_filter(input: &[i16]) -> Vec<i16> {
    let n = input.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut acc = 0i64;
        for (k, &tap) in FIR_TAPS.iter().enumerate() {
            let idx = i as isize + k as isize - 7;
            if idx >= 0 && (idx as usize) < n {
                acc += i64::from(tap) * i64::from(input[idx as usize]);
            }
        }
        out.push((acc >> 8).clamp(-32_768, 32_767) as i16);
    }
    out
}

/// Direct-form-I biquad with fixed-point coefficients (Q14).
#[derive(Debug, Clone, Copy)]
pub struct Biquad {
    /// Feed-forward coefficients (Q14).
    pub b: [i32; 3],
    /// Feedback coefficients `a1, a2` (Q14; `a0` normalised to 1).
    pub a: [i32; 2],
    x: [i32; 2],
    y: [i32; 2],
}

impl Biquad {
    /// A gentle peaking equaliser band (fixed example coefficients).
    #[must_use]
    pub fn peaking() -> Self {
        Biquad {
            b: [17_000, -30_000, 14_500],
            a: [-30_000, 15_000],
            x: [0; 2],
            y: [0; 2],
        }
    }

    /// Processes one sample.
    pub fn process(&mut self, x0: i32) -> i32 {
        let acc = i64::from(self.b[0]) * i64::from(x0)
            + i64::from(self.b[1]) * i64::from(self.x[0])
            + i64::from(self.b[2]) * i64::from(self.x[1])
            - i64::from(self.a[0]) * i64::from(self.y[0])
            - i64::from(self.a[1]) * i64::from(self.y[1]);
        let y0 = (acc >> 14).clamp(-(1 << 30), 1 << 30) as i32;
        self.x = [x0, self.x[0]];
        self.y = [y0, self.y[0]];
        y0
    }
}

/// The filterbank's Special Instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum AudioSi {
    /// One 15-tap FIR output sample group (8 samples).
    FirBlock = 0,
    /// One biquad band over a sample group.
    BiquadBand = 1,
    /// Decimation + repack of a sample group.
    Decimate = 2,
}

impl AudioSi {
    /// The SI id in [`audio_si_library`].
    #[must_use]
    pub fn id(self) -> SiId {
        SiId(self as u16)
    }
}

/// The filterbank's hot spots (pipeline stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum AudioHotSpot {
    /// FIR pre-filtering.
    PreFilter = 0,
    /// Parametric equalisation.
    Equalise = 1,
    /// Decimation / output packing.
    Output = 2,
}

impl AudioHotSpot {
    /// The engine-level id.
    #[must_use]
    pub fn id(self) -> HotSpotId {
        HotSpotId(self as u16)
    }
}

/// Builds the filterbank SI library: 3 SIs over 4 Atom types
/// (`MacUnit`, `DelayLine`, `CoeffBank`, `Repacker`).
///
/// # Panics
///
/// Never panics for the built-in tables.
#[must_use]
pub fn audio_si_library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("MacUnit")
            .with_bitstream_bytes(56_000)
            .with_slices(380),
        AtomTypeInfo::new("DelayLine")
            .with_bitstream_bytes(48_000)
            .with_slices(260),
        AtomTypeInfo::new("CoeffBank")
            .with_bitstream_bytes(52_000)
            .with_slices(300),
        AtomTypeInfo::new("Repacker")
            .with_bitstream_bytes(42_000)
            .with_slices(230),
    ])
    .expect("unique names");
    let mut b = SiLibraryBuilder::new(universe);
    let v = |counts: [u16; 4]| Molecule::from_counts(counts);
    {
        let mut si = b.special_instruction("FIR_BLOCK", 1_100).expect("unique");
        si.molecule(v([1, 1, 1, 0]), 380)
            .expect("valid")
            .molecule(v([2, 1, 1, 0]), 210)
            .expect("valid")
            .molecule(v([4, 1, 1, 0]), 110)
            .expect("valid")
            .molecule(v([4, 2, 2, 0]), 48)
            .expect("valid");
    }
    {
        let mut si = b.special_instruction("BIQUAD_BAND", 800).expect("unique");
        si.molecule(v([1, 1, 0, 0]), 280)
            .expect("valid")
            .molecule(v([2, 1, 0, 0]), 140)
            .expect("valid")
            .molecule(v([2, 2, 0, 0]), 60)
            .expect("valid");
    }
    {
        let mut si = b.special_instruction("DECIMATE", 300).expect("unique");
        si.molecule(v([0, 0, 0, 1]), 90)
            .expect("valid")
            .molecule(v([0, 0, 0, 2]), 40)
            .expect("valid");
    }
    b.build().expect("valid library")
}

/// Filterbank workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct FilterbankConfig {
    /// Audio frames to process (one PreFilter→Equalise→Output cycle each).
    pub frames: u32,
    /// Samples per frame.
    pub samples_per_frame: u32,
    /// Random seed for the synthesised input.
    pub seed: u64,
}

impl FilterbankConfig {
    /// A tiny configuration for tests.
    #[must_use]
    pub fn tiny() -> Self {
        FilterbankConfig {
            frames: 4,
            samples_per_frame: 512,
            seed: 5,
        }
    }
}

/// Generates the filterbank trace by really filtering synthesised audio.
/// Returns the trace and an output energy checksum.
#[must_use]
pub fn generate_filterbank_workload(config: &FilterbankConfig) -> (Trace, u64) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut trace = Trace::default();
    let mut energy = 0u64;
    let spf = config.samples_per_frame as usize;
    let groups = (config.samples_per_frame / 8).max(1);

    for frame in 0..config.frames {
        // Synthesise: a swept tone + noise; the sweep's brightness decides
        // how many equaliser bands engage (2..=6).
        let phase_step = 0.02 + 0.2 * f64::from(frame % 10) / 10.0;
        let input: Vec<i16> = (0..spf)
            .map(|i| {
                let tone = (i as f64 * phase_step).sin() * 12_000.0;
                let noise: i16 = rng.gen_range(-500..=500);
                (tone as i16).saturating_add(noise)
            })
            .collect();

        let filtered = fir_filter(&input);
        let brightness: u64 = filtered
            .windows(2)
            .map(|w| u64::from(w[0].abs_diff(w[1])))
            .sum::<u64>()
            / spf as u64;
        let bands = (2 + brightness / 400).min(6) as u32;

        let mut eq = vec![Biquad::peaking(); bands as usize];
        let mut out_energy = 0u64;
        for &s in &filtered {
            let mut acc = i32::from(s);
            for band in &mut eq {
                acc = band.process(acc);
            }
            out_energy += u64::from(acc.unsigned_abs()) >> 8;
        }
        energy ^= out_energy;

        trace.push(Invocation {
            hot_spot: AudioHotSpot::PreFilter.id(),
            prologue_cycles: 8_000,
            bursts: vec![Burst {
                si: AudioSi::FirBlock.id(),
                count: groups,
                overhead: 8,
            }],
            hints: vec![(AudioSi::FirBlock.id(), u64::from(groups))],
        });
        trace.push(Invocation {
            hot_spot: AudioHotSpot::Equalise.id(),
            prologue_cycles: 6_000,
            bursts: vec![Burst {
                si: AudioSi::BiquadBand.id(),
                count: groups * bands,
                overhead: 8,
            }],
            hints: vec![(AudioSi::BiquadBand.id(), u64::from(groups) * 4)],
        });
        trace.push(Invocation {
            hot_spot: AudioHotSpot::Output.id(),
            prologue_cycles: 4_000,
            bursts: vec![Burst {
                si: AudioSi::Decimate.id(),
                count: groups / 2,
                overhead: 6,
            }],
            hints: vec![(AudioSi::Decimate.id(), u64::from(groups / 2))],
        });
    }
    (trace, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::SchedulerKind;
    use rispp_sim::{simulate, SimConfig};

    #[test]
    fn fir_preserves_dc_scaling() {
        // Tap sum = 226; a constant input maps to ~constant·226/256.
        let input = vec![1_000i16; 64];
        let out = fir_filter(&input);
        let expected = (1_000i64 * FIR_TAPS.iter().map(|&t| i64::from(t)).sum::<i64>()) >> 8;
        assert_eq!(i64::from(out[32]), expected);
    }

    #[test]
    fn fir_attenuates_nyquist() {
        // Alternating ±A is the highest frequency; a low-pass must crush it.
        let input: Vec<i16> = (0..64)
            .map(|i| if i % 2 == 0 { 8_000 } else { -8_000 })
            .collect();
        let out = fir_filter(&input);
        assert!(out[32].unsigned_abs() < 800, "nyquist leak: {}", out[32]);
    }

    #[test]
    fn biquad_is_stable_on_bounded_input() {
        let mut bq = Biquad::peaking();
        let mut max = 0i32;
        for i in 0..10_000 {
            let x = if i % 7 == 0 { 20_000 } else { -15_000 };
            max = max.max(bq.process(x).abs());
        }
        assert!(max < 1 << 22, "biquad diverged: {max}");
    }

    #[test]
    fn workload_deterministic_and_structured() {
        let (a, ea) = generate_filterbank_workload(&FilterbankConfig::tiny());
        let (b, eb) = generate_filterbank_workload(&FilterbankConfig::tiny());
        assert_eq!(ea, eb);
        assert_eq!(a.total_si_executions(), b.total_si_executions());
        assert_eq!(a.len(), 12); // 4 frames × 3 stages
    }

    #[test]
    fn rispp_accelerates_the_filterbank() {
        let lib = audio_si_library();
        let (trace, _) = generate_filterbank_workload(&FilterbankConfig {
            frames: 12,
            samples_per_frame: 2_048,
            seed: 5,
        });
        let sw = simulate(&lib, &trace, &SimConfig::software_only());
        let hef = simulate(&lib, &trace, &SimConfig::rispp(6, SchedulerKind::Hef));
        assert!(hef.total_cycles < sw.total_cycles);
    }

    #[test]
    fn injected_software_backend_matches_enum_path() {
        use rispp_sim::{
            simulate_with, ExecutionSystem, RunStats, SimObserver, SoftwareBackend,
            DEFAULT_BUCKET_CYCLES,
        };
        let lib = audio_si_library();
        let (trace, _) = generate_filterbank_workload(&FilterbankConfig::tiny());
        let via_enum = simulate(&lib, &trace, &SimConfig::software_only());
        // Drive the same trace through a directly injected backend.
        let mut backend = SoftwareBackend::new(&lib);
        let mut stats = RunStats::new(backend.label(), lib.len(), DEFAULT_BUCKET_CYCLES, false);
        {
            let mut observers: [&mut dyn SimObserver; 1] = [&mut stats];
            simulate_with(&mut backend, &trace, &mut observers);
        }
        assert_eq!(via_enum, stats);
    }
}
