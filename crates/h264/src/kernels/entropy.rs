//! Zig-zag scanning and a CAVLC-flavoured bit-cost estimate for quantised
//! 4×4 blocks.
//!
//! Entropy coding runs on the base processor in the paper's encoder (it is
//! part of the EE hot-spot prologue, not an SI), but its *cost model*
//! makes the encoder's rate statistics meaningful: the workload summary
//! reports estimated bits per frame alongside PSNR.

/// The H.264 zig-zag scan order for 4×4 blocks.
pub const ZIGZAG_4X4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];

/// Reorders a row-major 4×4 coefficient block into zig-zag scan order.
#[must_use]
pub fn zigzag_scan(block: &[i32; 16]) -> [i32; 16] {
    core::array::from_fn(|i| block[ZIGZAG_4X4[i]])
}

/// Inverse of [`zigzag_scan`]. The encoder never unscans; the
/// `zigzag_roundtrip` property test uses it to show the scan is a
/// permutation.
#[must_use]
pub fn zigzag_unscan(scanned: &[i32; 16]) -> [i32; 16] {
    let mut out = [0i32; 16];
    for (i, &v) in scanned.iter().enumerate() {
        out[ZIGZAG_4X4[i]] = v;
    }
    out
}

/// Run-level representation of a zig-zag scanned block: `(run, level)`
/// pairs of zero-run lengths before each non-zero coefficient.
#[must_use]
pub fn run_level(scanned: &[i32; 16]) -> Vec<(u8, i32)> {
    let mut out = Vec::new();
    let mut run = 0u8;
    for &v in scanned {
        if v == 0 {
            run += 1;
        } else {
            out.push((run, v));
            run = 0;
        }
    }
    out
}

/// CAVLC-flavoured bit estimate for one quantised 4×4 block: a fixed cost
/// for the coefficient-count token plus per-coefficient costs growing
/// logarithmically with magnitude and linearly with run length.
#[must_use]
pub fn estimate_block_bits(block: &[i32; 16]) -> u32 {
    let scanned = zigzag_scan(block);
    let pairs = run_level(&scanned);
    if pairs.is_empty() {
        return 1; // coded_block_flag only
    }
    let mut bits = 4 + pairs.len() as u32; // totalcoeff + trailing ones
    for (run, level) in pairs {
        let magnitude = level.unsigned_abs();
        bits += 33 - magnitude.leading_zeros(); // |level| suffix
        bits += 1; // sign
        bits += u32::from(run.min(6)) / 2 + 1; // run_before
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 16];
        for &i in &ZIGZAG_4X4 {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn scan_unscan_roundtrips() {
        let block: [i32; 16] = core::array::from_fn(|i| i as i32 * 3 - 7);
        assert_eq!(zigzag_unscan(&zigzag_scan(&block)), block);
    }

    #[test]
    fn zigzag_orders_low_frequencies_first() {
        // A DC-only block has its single coefficient at scan position 0.
        let mut block = [0i32; 16];
        block[0] = 9;
        let scanned = zigzag_scan(&block);
        assert_eq!(scanned[0], 9);
        assert!(scanned[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn run_level_counts_zero_runs() {
        let mut block = [0i32; 16];
        block[0] = 5;
        block[4] = -2; // zig-zag position 2
        let pairs = run_level(&zigzag_scan(&block));
        assert_eq!(pairs, vec![(0, 5), (1, -2)]);
    }

    #[test]
    fn empty_block_costs_one_bit() {
        assert_eq!(estimate_block_bits(&[0i32; 16]), 1);
    }

    #[test]
    fn more_energy_costs_more_bits() {
        let small: [i32; 16] = core::array::from_fn(|i| i32::from(i == 0));
        let big: [i32; 16] = core::array::from_fn(|i| (16 - i as i32) * 4);
        assert!(estimate_block_bits(&big) > estimate_block_bits(&small));
    }

    #[test]
    fn bits_monotone_in_magnitude() {
        let mut a = [0i32; 16];
        let mut b = [0i32; 16];
        a[0] = 2;
        b[0] = 200;
        assert!(estimate_block_bits(&b) > estimate_block_bits(&a));
    }
}
