//! Synthesis-area and timing model for the HEF scheduler hardware
//! (paper Table 3).

/// Structural parameters the area estimate is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaParameters {
    /// FSM states (12 in the paper).
    pub states: u32,
    /// Atom-type universe size (comparator width of the cleaning test).
    pub atom_types: u32,
    /// Bits per candidate latency/expected-execution operand.
    pub operand_bits: u32,
    /// Candidate-memory depth (maximum Molecules per request).
    pub candidate_depth: u32,
    /// Hardware multipliers for the pipelined benefit computation.
    pub multipliers: u32,
}

impl Default for AreaParameters {
    fn default() -> Self {
        AreaParameters {
            states: 12,
            atom_types: 11,
            operand_bits: 18,
            candidate_depth: 32,
            multipliers: 5,
        }
    }
}

/// One row set of Table 3: resource usage of a synthesised block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Occupied slices.
    pub slices: u32,
    /// Look-up tables.
    pub luts: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// MULT18X18 hard multipliers.
    pub mult18x18: u32,
    /// Gate equivalents.
    pub gate_equivalents: u32,
    /// Clock delay in nanoseconds.
    pub clock_delay_ns: f64,
}

impl AreaReport {
    /// The paper's synthesis results for the HEF scheduler (Table 3).
    #[must_use]
    pub fn paper_hef() -> Self {
        AreaReport {
            slices: 549,
            luts: 915,
            ffs: 297,
            mult18x18: 5,
            gate_equivalents: 30_769,
            clock_delay_ns: 12.596,
        }
    }

    /// The paper's average Atom (Table 3).
    #[must_use]
    pub fn paper_average_atom() -> Self {
        AreaReport {
            slices: 421,
            luts: 839,
            ffs: 45,
            mult18x18: 0,
            gate_equivalents: 6_944,
            clock_delay_ns: 1.284,
        }
    }

    /// Whether this block fits into one Atom Container (1024 slices on the
    /// prototype) — the paper's headline: HEF needs only 3.83 % of the
    /// device and would fit into a single AC.
    #[must_use]
    pub fn fits_one_atom_container(&self) -> bool {
        self.slices <= 1_024
    }

    /// Utilisation of the xc2v3000's 14,336 slices, in percent.
    #[must_use]
    pub fn device_utilisation_percent(&self) -> f64 {
        f64::from(self.slices) * 100.0 / 14_336.0
    }
}

/// Parametric area estimate of the HEF FSM, calibrated against the paper's
/// synthesis flow. The estimate reproduces Table 3 within a few percent at
/// the default parameters and scales with universe size and candidate
/// depth for what-if studies.
#[must_use]
pub fn area_estimate(p: &AreaParameters) -> AreaReport {
    // Control: one-hot state register + next-state logic.
    let control_luts = p.states * 9;
    let control_ffs = p.states;
    // Datapath: cleaning comparators (per atom type), bestLatency update,
    // benefit pipeline registers.
    let datapath_luts = p.atom_types * 38 + p.operand_bits * 16 + p.candidate_depth * 3;
    let datapath_ffs = p.operand_bits * 12 + p.atom_types * 6 + 3;
    let luts = control_luts + datapath_luts;
    let ffs = control_ffs + datapath_ffs;
    // Two LUTs + two FFs per slice on Virtex-II, imperfect packing ~0.85.
    let slices = ((luts.max(ffs) as f64) / 2.0 / 0.85).round() as u32;
    // Gate equivalents: LUT ≈ 12 GE, FF ≈ 8 GE, MULT18X18 ≈ 3,500 GE.
    let gate_equivalents = luts * 12 + ffs * 8 + p.multipliers * 3_500;
    // Critical path: cross-multiply compare chain.
    let clock_delay_ns = 6.0 + 0.36 * f64::from(p.operand_bits);
    AreaReport {
        slices,
        luts,
        ffs,
        mult18x18: p.multipliers,
        gate_equivalents,
        clock_delay_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_matches_paper_within_ten_percent() {
        let est = area_estimate(&AreaParameters::default());
        let paper = AreaReport::paper_hef();
        let close = |a: u32, b: u32| {
            let (a, b) = (f64::from(a), f64::from(b));
            (a - b).abs() / b < 0.10
        };
        assert!(
            close(est.luts, paper.luts),
            "luts {} vs {}",
            est.luts,
            paper.luts
        );
        assert!(
            close(est.ffs, paper.ffs),
            "ffs {} vs {}",
            est.ffs,
            paper.ffs
        );
        assert!(
            close(est.slices, paper.slices),
            "slices {} vs {}",
            est.slices,
            paper.slices
        );
        assert!(
            close(est.gate_equivalents, paper.gate_equivalents),
            "ge {} vs {}",
            est.gate_equivalents,
            paper.gate_equivalents
        );
        assert_eq!(est.mult18x18, paper.mult18x18);
        assert!((est.clock_delay_ns - paper.clock_delay_ns).abs() < 1.5);
    }

    #[test]
    fn hef_fits_one_atom_container() {
        assert!(AreaReport::paper_hef().fits_one_atom_container());
        assert!(area_estimate(&AreaParameters::default()).fits_one_atom_container());
        // Paper: 3.83 % of the device.
        let util = AreaReport::paper_hef().device_utilisation_percent();
        assert!((util - 3.83).abs() < 0.05, "{util}");
    }

    #[test]
    fn estimate_scales_with_universe() {
        let small = area_estimate(&AreaParameters {
            atom_types: 4,
            ..AreaParameters::default()
        });
        let big = area_estimate(&AreaParameters {
            atom_types: 32,
            ..AreaParameters::default()
        });
        assert!(big.luts > small.luts);
        assert!(big.slices > small.slices);
    }

    #[test]
    fn scheduler_is_modestly_larger_than_average_atom() {
        // Paper: HEF needs only 1.30x the slices of the average atom.
        let hef = AreaReport::paper_hef();
        let atom = AreaReport::paper_average_atom();
        let ratio = f64::from(hef.slices) / f64::from(atom.slices);
        assert!((ratio - 1.30).abs() < 0.01);
    }
}
