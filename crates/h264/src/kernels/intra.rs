//! Intra 16×16 prediction — the `IPred HDC` (horizontal + DC) and
//! `IPred VDC` (vertical + DC) Special Instructions (Table 1: 4 and 3
//! Molecules, using the `CollapseAdd` and `Repack` Atom types).

use crate::frame::Plane;

/// Neighbour availability for a macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbours {
    /// The row above the MB is inside the frame.
    pub above: bool,
    /// The column left of the MB is inside the frame.
    pub left: bool,
}

/// DC prediction value of the 16×16 MB at `(x, y)` from the reconstructed
/// plane, following the standard's availability rules (mean of available
/// neighbours; 128 when none).
#[must_use]
pub fn predict_dc_16x16(recon: &Plane, x: usize, y: usize, n: Neighbours) -> u8 {
    let mut sum = 0u32;
    let mut count = 0u32;
    if n.above && y > 0 {
        for col in 0..16 {
            sum += u32::from(recon.sample(x + col, y - 1));
        }
        count += 16;
    }
    if n.left && x > 0 {
        for row in 0..16 {
            sum += u32::from(recon.sample(x - 1, y + row));
        }
        count += 16;
    }
    (sum + count / 2)
        .checked_div(count)
        .map_or(128, |avg| avg as u8)
}

/// Horizontal prediction: each row is filled with the left neighbour
/// sample. Falls back to DC when the left column is unavailable.
pub fn predict_h_16x16(recon: &Plane, x: usize, y: usize, n: Neighbours, out: &mut [u8; 256]) {
    if !(n.left && x > 0) {
        out.fill(predict_dc_16x16(recon, x, y, n));
        return;
    }
    for row in 0..16 {
        let v = recon.sample(x - 1, y + row);
        out[row * 16..row * 16 + 16].fill(v);
    }
}

/// Vertical prediction: each column is filled with the sample above.
/// Falls back to DC when the row above is unavailable.
pub fn predict_v_16x16(recon: &Plane, x: usize, y: usize, n: Neighbours, out: &mut [u8; 256]) {
    if !(n.above && y > 0) {
        out.fill(predict_dc_16x16(recon, x, y, n));
        return;
    }
    for col in 0..16 {
        let v = recon.sample(x + col, y - 1);
        for row in 0..16 {
            out[row * 16 + col] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_with_borders() -> Plane {
        let mut p = Plane::filled(48, 48, 0);
        for i in 0..48 {
            p.set_sample(i, 15, 200); // row above MB at (16,16)
            p.set_sample(15, i, 100); // column left of MB at (16,16)
        }
        p
    }

    const BOTH: Neighbours = Neighbours {
        above: true,
        left: true,
    };

    #[test]
    fn dc_is_mean_of_neighbours() {
        let p = plane_with_borders();
        // 16 samples of 200 + 16 of 100 -> mean 150.
        assert_eq!(predict_dc_16x16(&p, 16, 16, BOTH), 150);
    }

    #[test]
    fn dc_without_neighbours_is_128() {
        let p = plane_with_borders();
        let none = Neighbours {
            above: false,
            left: false,
        };
        assert_eq!(predict_dc_16x16(&p, 16, 16, none), 128);
        // Top-left MB has no in-frame neighbours regardless of flags.
        assert_eq!(predict_dc_16x16(&p, 0, 0, BOTH), 128);
    }

    #[test]
    fn horizontal_prediction_propagates_left_column() {
        let p = plane_with_borders();
        let mut out = [0u8; 256];
        predict_h_16x16(&p, 16, 16, BOTH, &mut out);
        assert!(out.iter().all(|&v| v == 100));
    }

    #[test]
    fn vertical_prediction_propagates_top_row() {
        let p = plane_with_borders();
        let mut out = [0u8; 256];
        predict_v_16x16(&p, 16, 16, BOTH, &mut out);
        assert!(out.iter().all(|&v| v == 200));
    }

    #[test]
    fn unavailable_neighbours_fall_back_to_dc() {
        let p = plane_with_borders();
        let mut out = [0u8; 256];
        predict_h_16x16(
            &p,
            16,
            16,
            Neighbours {
                above: true,
                left: false,
            },
            &mut out,
        );
        // DC over the top row only: 200.
        assert!(out.iter().all(|&v| v == 200));
    }

    #[test]
    fn dc_only_left() {
        let p = plane_with_borders();
        let left_only = Neighbours {
            above: false,
            left: true,
        };
        assert_eq!(predict_dc_16x16(&p, 16, 16, left_only), 100);
    }
}
