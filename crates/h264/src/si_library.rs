//! The H.264 Special Instruction library of paper Table 1: nine SIs over
//! nine Atom types, with exactly the paper's Molecule counts per SI.
//!
//! Per-Molecule latencies are hand-crafted tables, like the paper's
//! hand-developed Molecules: the smallest Molecule of an SI is roughly 3×
//! faster than the base-processor trap path (one Atom is already a wide,
//! pipelined data path), and each further upgrade step shaves another
//! 1.3–2×, spanning the multi-decade latency ladders visible in the
//! paper's Figure 8.

use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

/// The eleven Atom types of the H.264 library, in universe order.
///
/// The Hadamard butterfly (`HTrans`, used by SATD and the secondary DC
/// transforms) and the integer-DCT butterfly with its shift/add scaling
/// (`ITrans`) are distinct data paths, so Motion Estimation and the
/// Encoding Engine share only a few Atom types — which is why hot-spot
/// switches keep the reconfiguration port busy and the Atom loading
/// *order* matters (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum AtomKind {
    /// Sum of absolute values (SAD rows, SATD coefficient summation).
    Sav = 0,
    /// Quad subtraction (residual generation).
    QSub = 1,
    /// Hadamard butterfly stage (SATD, secondary DC transforms).
    HTrans = 2,
    /// Operand repacking between transform stages.
    Repack = 3,
    /// Integer-DCT butterfly with shift/add scaling.
    ITrans = 4,
    /// Quantisation/rescale multiplier stage.
    QuantRescale = 5,
    /// The 6-tap (1,−5,20,20,−5,1) interpolation filter of Figure 3.
    PointFilter = 6,
    /// Byte packing of filtered samples (Figure 3).
    BytePack = 7,
    /// Clamping to the 8-bit sample range (Figure 3).
    Clip3 = 8,
    /// Horizontal collapse-add (intra prediction sums).
    CollapseAdd = 9,
    /// Conditional subtract/compare (deblocking filter decisions).
    CondSub = 10,
}

impl AtomKind {
    /// All atom kinds in universe order.
    pub const ALL: [AtomKind; 11] = [
        AtomKind::Sav,
        AtomKind::QSub,
        AtomKind::HTrans,
        AtomKind::Repack,
        AtomKind::ITrans,
        AtomKind::QuantRescale,
        AtomKind::PointFilter,
        AtomKind::BytePack,
        AtomKind::Clip3,
        AtomKind::CollapseAdd,
        AtomKind::CondSub,
    ];

    /// Universe index of this atom kind.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AtomKind::Sav => "SAV",
            AtomKind::QSub => "QSub",
            AtomKind::HTrans => "HTrans",
            AtomKind::Repack => "Repack",
            AtomKind::ITrans => "ITrans",
            AtomKind::QuantRescale => "QuantRescale",
            AtomKind::PointFilter => "PointFilter",
            AtomKind::BytePack => "BytePack",
            AtomKind::Clip3 => "Clip3",
            AtomKind::CollapseAdd => "CollapseAdd",
            AtomKind::CondSub => "CondSub",
        }
    }

    /// Partial-bitstream size in bytes; the eleven sizes average exactly
    /// the paper's 60,488 bytes.
    #[must_use]
    pub fn bitstream_bytes(self) -> u32 {
        match self {
            AtomKind::Sav => 58_000,
            AtomKind::QSub => 52_000,
            AtomKind::HTrans => 66_000,
            AtomKind::Repack => 48_000,
            AtomKind::ITrans => 70_000,
            AtomKind::QuantRescale => 54_000,
            AtomKind::PointFilter => 82_000,
            AtomKind::BytePack => 56_000,
            AtomKind::Clip3 => 46_000,
            AtomKind::CollapseAdd => 64_000,
            AtomKind::CondSub => 69_368,
        }
    }

    /// Synthesised slice count; the eleven sizes average exactly the
    /// paper's 421 slices (Table 3).
    #[must_use]
    pub fn slices(self) -> u32 {
        match self {
            AtomKind::Sav => 430,
            AtomKind::QSub => 340,
            AtomKind::HTrans => 510,
            AtomKind::Repack => 300,
            AtomKind::ITrans => 560,
            AtomKind::QuantRescale => 420,
            AtomKind::PointFilter => 640,
            AtomKind::BytePack => 330,
            AtomKind::Clip3 => 270,
            AtomKind::CollapseAdd => 420,
            AtomKind::CondSub => 411,
        }
    }
}

/// The nine Special Instructions of Table 1, in library order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum SiKind {
    /// Sum of Absolute Differences (ME).
    Sad = 0,
    /// Sum of Absolute Transformed Differences (ME).
    Satd = 1,
    /// Forward + inverse 4×4 integer transform with (de)quantisation (EE).
    Dct = 2,
    /// Forward + inverse 2×2 chroma-DC Hadamard (EE).
    Ht2x2 = 3,
    /// Forward + inverse 4×4 luma-DC Hadamard (EE).
    Ht4x4 = 4,
    /// Quarter-pel luma motion compensation (EE).
    Mc = 5,
    /// Intra prediction, horizontal + DC modes (EE).
    IPredHdc = 6,
    /// Intra prediction, vertical + DC modes (EE).
    IPredVdc = 7,
    /// Deblocking filter, boundary strength 4 (LF).
    LfBs4 = 8,
}

impl SiKind {
    /// All SIs in library order.
    pub const ALL: [SiKind; 9] = [
        SiKind::Sad,
        SiKind::Satd,
        SiKind::Dct,
        SiKind::Ht2x2,
        SiKind::Ht4x4,
        SiKind::Mc,
        SiKind::IPredHdc,
        SiKind::IPredVdc,
        SiKind::LfBs4,
    ];

    /// The [`SiId`] of this SI in the library built by
    /// [`h264_si_library`].
    #[must_use]
    pub fn id(self) -> SiId {
        SiId(self as u16)
    }

    /// Display name as used in the paper's Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SiKind::Sad => "SAD",
            SiKind::Satd => "SATD",
            SiKind::Dct => "(I)DCT",
            SiKind::Ht2x2 => "(I)HT 2x2",
            SiKind::Ht4x4 => "(I)HT 4x4",
            SiKind::Mc => "MC",
            SiKind::IPredHdc => "IPred HDC",
            SiKind::IPredVdc => "IPred VDC",
            SiKind::LfBs4 => "LF_BS4",
        }
    }

    /// Base-processor (trap) latency in cycles.
    #[must_use]
    pub fn software_latency(self) -> u32 {
        match self {
            SiKind::Sad => 850,
            SiKind::Satd => 2_200,
            SiKind::Dct => 450,
            SiKind::Ht2x2 => 260,
            SiKind::Ht4x4 => 700,
            SiKind::Mc => 10_000,
            SiKind::IPredHdc => 900,
            SiKind::IPredVdc => 850,
            SiKind::LfBs4 => 2_600,
        }
    }
}

const N: usize = 11;

fn vector(entries: &[(AtomKind, u16)]) -> Molecule {
    let mut counts = [0u16; N];
    for &(kind, c) in entries {
        counts[kind.index()] = c;
    }
    Molecule::from_counts(counts)
}

/// Builds the H.264 SI library of paper Table 1.
///
/// Per SI: atom types used and Molecule count match the paper exactly
/// (SAD 1/3, SATD 4/20, (I)DCT 3/12, (I)HT 2×2 1/2, (I)HT 4×4 2/7,
/// MC 3/11, IPred HDC 2/4, IPred VDC 1/3, LF_BS4 2/5).
///
/// # Panics
///
/// Never panics for the built-in tables; the builder validates them.
#[must_use]
pub fn h264_si_library() -> SiLibrary {
    let universe = AtomUniverse::from_types(AtomKind::ALL.iter().map(|&k| {
        AtomTypeInfo::new(k.name())
            .with_bitstream_bytes(k.bitstream_bytes())
            .with_slices(k.slices())
    }))
    .expect("atom names are unique");

    let mut b = SiLibraryBuilder::new(universe);
    use AtomKind::*;

    // SAD: the 16x16 block is reduced in 4-sample groups by SAV atoms.
    add_si(
        &mut b,
        SiKind::Sad,
        &[(&[(Sav, 1)], 300), (&[(Sav, 2)], 120), (&[(Sav, 4)], 18)],
    );

    // SATD over a 16x16 region (16 Hadamard tiles): QSub -> HTrans -> SAV
    // with Repack between stages; 20 molecules including deliberately
    // unbalanced mixes (the m4 phenomenon of Section 4.3).
    add_si(
        &mut b,
        SiKind::Satd,
        &[
            (&[(QSub, 1), (HTrans, 1), (Sav, 1), (Repack, 1)], 750),
            (&[(QSub, 1), (HTrans, 2), (Sav, 1), (Repack, 1)], 560),
            (&[(QSub, 2), (HTrans, 2), (Sav, 1), (Repack, 1)], 460),
            (&[(QSub, 2), (HTrans, 2), (Sav, 2), (Repack, 1)], 380),
            (&[(QSub, 2), (HTrans, 2), (Sav, 2), (Repack, 2)], 330),
            (&[(QSub, 2), (HTrans, 4), (Sav, 2), (Repack, 2)], 240),
            (&[(QSub, 4), (HTrans, 4), (Sav, 2), (Repack, 2)], 200),
            (&[(QSub, 4), (HTrans, 4), (Sav, 4), (Repack, 2)], 160),
            (&[(QSub, 4), (HTrans, 4), (Sav, 4), (Repack, 4)], 110),
            (&[(QSub, 4), (HTrans, 8), (Sav, 4), (Repack, 4)], 24),
            (&[(QSub, 1), (HTrans, 4), (Sav, 1), (Repack, 1)], 520),
            (&[(QSub, 2), (HTrans, 4), (Sav, 1), (Repack, 1)], 430),
            (&[(QSub, 1), (HTrans, 2), (Sav, 2), (Repack, 1)], 540),
            (&[(QSub, 2), (HTrans, 4), (Sav, 2), (Repack, 1)], 300),
            (&[(QSub, 2), (HTrans, 8), (Sav, 2), (Repack, 2)], 210),
            (&[(QSub, 4), (HTrans, 8), (Sav, 2), (Repack, 2)], 180),
            (&[(QSub, 1), (HTrans, 1), (Sav, 2), (Repack, 1)], 720),
            (&[(QSub, 2), (HTrans, 1), (Sav, 2), (Repack, 2)], 640),
            (&[(QSub, 1), (HTrans, 8), (Sav, 1), (Repack, 1)], 500),
            (&[(QSub, 2), (HTrans, 2), (Sav, 4), (Repack, 2)], 310),
        ],
    );

    // (I)DCT: forward + inverse integer transform with requantisation on
    // its own data path (ITrans butterflies + QuantRescale multipliers).
    add_si(
        &mut b,
        SiKind::Dct,
        &[
            (&[(ITrans, 1), (QuantRescale, 1), (Repack, 1)], 160),
            (&[(ITrans, 1), (QuantRescale, 1), (Repack, 2)], 150),
            (&[(ITrans, 1), (QuantRescale, 2), (Repack, 1)], 140),
            (&[(ITrans, 1), (QuantRescale, 2), (Repack, 2)], 130),
            (&[(ITrans, 2), (QuantRescale, 1), (Repack, 1)], 110),
            (&[(ITrans, 2), (QuantRescale, 1), (Repack, 2)], 100),
            (&[(ITrans, 2), (QuantRescale, 2), (Repack, 1)], 88),
            (&[(ITrans, 2), (QuantRescale, 2), (Repack, 2)], 70),
            (&[(ITrans, 4), (QuantRescale, 1), (Repack, 1)], 85),
            (&[(ITrans, 4), (QuantRescale, 1), (Repack, 2)], 78),
            (&[(ITrans, 4), (QuantRescale, 2), (Repack, 1)], 40),
            (&[(ITrans, 4), (QuantRescale, 2), (Repack, 2)], 14),
        ],
    );

    // (I)HT 2x2 chroma DC.
    add_si(
        &mut b,
        SiKind::Ht2x2,
        &[(&[(HTrans, 1)], 90), (&[(HTrans, 2)], 20)],
    );

    // (I)HT 4x4 luma DC.
    add_si(
        &mut b,
        SiKind::Ht4x4,
        &[
            (&[(HTrans, 1), (Repack, 1)], 260),
            (&[(HTrans, 2), (Repack, 1)], 190),
            (&[(HTrans, 2), (Repack, 2)], 150),
            (&[(HTrans, 4), (Repack, 1)], 140),
            (&[(HTrans, 4), (Repack, 2)], 80),
            (&[(HTrans, 8), (Repack, 2)], 56),
            (&[(HTrans, 8), (Repack, 4)], 16),
        ],
    );

    // MC: 6-tap PointFilter chains with BytePack and Clip3, Figure 3.
    add_si(
        &mut b,
        SiKind::Mc,
        &[
            (&[(PointFilter, 1), (BytePack, 1), (Clip3, 1)], 3_400),
            (&[(PointFilter, 2), (BytePack, 1), (Clip3, 1)], 2_400),
            (&[(PointFilter, 2), (BytePack, 2), (Clip3, 1)], 1_900),
            (&[(PointFilter, 2), (BytePack, 2), (Clip3, 2)], 1_700),
            (&[(PointFilter, 3), (BytePack, 2), (Clip3, 2)], 1_250),
            (&[(PointFilter, 4), (BytePack, 2), (Clip3, 2)], 950),
            (&[(PointFilter, 4), (BytePack, 4), (Clip3, 2)], 720),
            (&[(PointFilter, 4), (BytePack, 4), (Clip3, 4)], 600),
            (&[(PointFilter, 6), (BytePack, 4), (Clip3, 4)], 380),
            (&[(PointFilter, 8), (BytePack, 4), (Clip3, 4)], 170),
            (&[(PointFilter, 8), (BytePack, 8), (Clip3, 8)], 52),
        ],
    );

    // IPred HDC.
    add_si(
        &mut b,
        SiKind::IPredHdc,
        &[
            (&[(CollapseAdd, 1), (Repack, 1)], 320),
            (&[(CollapseAdd, 2), (Repack, 1)], 210),
            (&[(CollapseAdd, 2), (Repack, 2)], 150),
            (&[(CollapseAdd, 4), (Repack, 2)], 40),
        ],
    );

    // IPred VDC.
    add_si(
        &mut b,
        SiKind::IPredVdc,
        &[
            (&[(CollapseAdd, 1)], 300),
            (&[(CollapseAdd, 2)], 150),
            (&[(CollapseAdd, 4)], 35),
        ],
    );

    // LF_BS4.
    add_si(
        &mut b,
        SiKind::LfBs4,
        &[
            (&[(CondSub, 1), (Clip3, 1)], 900),
            (&[(CondSub, 2), (Clip3, 1)], 600),
            (&[(CondSub, 2), (Clip3, 2)], 420),
            (&[(CondSub, 4), (Clip3, 2)], 230),
            (&[(CondSub, 4), (Clip3, 4)], 60),
        ],
    );

    b.build().expect("library tables are valid")
}

fn add_si(b: &mut SiLibraryBuilder, kind: SiKind, table: &[(&[(AtomKind, u16)], u32)]) {
    let mut si = b
        .special_instruction(kind.name(), kind.software_latency())
        .expect("unique name");
    for (entries, latency) in table {
        si.molecule(vector(entries), *latency)
            .expect("distinct molecules");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_matches_table_1() {
        let lib = h264_si_library();
        assert_eq!(lib.len(), 9);
        assert_eq!(lib.arity(), 11);
        let expected: [(SiKind, usize, usize); 9] = [
            (SiKind::Sad, 1, 3),
            (SiKind::Satd, 4, 20),
            (SiKind::Dct, 3, 12),
            (SiKind::Ht2x2, 1, 2),
            (SiKind::Ht4x4, 2, 7),
            (SiKind::Mc, 3, 11),
            (SiKind::IPredHdc, 2, 4),
            (SiKind::IPredVdc, 1, 3),
            (SiKind::LfBs4, 2, 5),
        ];
        for (kind, atom_types, molecules) in expected {
            let si = lib.si(kind.id()).expect("nine SIs");
            assert_eq!(si.name(), kind.name());
            assert_eq!(si.atom_type_count(), atom_types, "{}", kind.name());
            assert_eq!(si.molecule_count(), molecules, "{}", kind.name());
        }
    }

    #[test]
    fn average_bitstream_matches_paper() {
        let lib = h264_si_library();
        assert_eq!(lib.universe().average_bitstream_bytes(), 60_488);
    }

    #[test]
    fn average_atom_slices_match_table_3() {
        let total: u32 = AtomKind::ALL.iter().map(|k| k.slices()).sum();
        assert_eq!(total / 11, 421);
    }

    #[test]
    fn every_molecule_is_faster_than_software() {
        let lib = h264_si_library();
        for si in lib.iter() {
            for v in si.variants() {
                assert!(
                    v.latency < si.software_latency(),
                    "{}: molecule {} @{} not faster than software {}",
                    si.name(),
                    v.atoms,
                    v.latency,
                    si.software_latency()
                );
            }
        }
    }

    #[test]
    fn bigger_molecules_of_balanced_chains_are_faster() {
        let lib = h264_si_library();
        for kind in SiKind::ALL {
            let si = lib.si(kind.id()).expect("nine SIs");
            let smallest = si.smallest_variant();
            let largest = si.largest_variant();
            assert!(largest.latency < smallest.latency, "{}", kind.name());
        }
    }

    #[test]
    fn satd_has_wrong_mix_molecules() {
        // At least one SATD molecule pair: more atoms but slower (the m4
        // phenomenon of Section 4.3).
        let lib = h264_si_library();
        let si = lib.si(SiKind::Satd.id()).expect("satd");
        let vs = si.variants();
        let exists = vs.iter().any(|a| {
            vs.iter()
                .any(|b| a.atoms.total_atoms() > b.atoms.total_atoms() && a.latency > b.latency)
        });
        assert!(exists, "expected at least one unbalanced SATD molecule");
    }

    #[test]
    fn si_kind_ids_are_stable() {
        for (i, kind) in SiKind::ALL.iter().enumerate() {
            assert_eq!(kind.id().index(), i);
        }
        for (i, atom) in AtomKind::ALL.iter().enumerate() {
            assert_eq!(atom.index(), i);
        }
    }

    #[test]
    fn cross_hot_spot_sharing_is_partial() {
        // SATD (ME) and (I)HT 4x4 (EE) share the Hadamard data path, but
        // SATD and (I)DCT share only the Repack stage: hot-spot switches
        // must reload most of the fabric, which is what makes the Atom
        // loading order matter.
        let lib = h264_si_library();
        let sup = |kind: SiKind| {
            Molecule::supremum(
                lib.si(kind.id())
                    .unwrap()
                    .variants()
                    .iter()
                    .map(|v| &v.atoms),
            )
            .unwrap()
        };
        let satd_ht = sup(SiKind::Satd).intersect(&sup(SiKind::Ht4x4));
        assert!(satd_ht.total_atoms() > 0, "Hadamard path is shared");
        let satd_dct = sup(SiKind::Satd).intersect(&sup(SiKind::Dct));
        assert_eq!(
            satd_dct.atom_type_count(),
            1,
            "SATD and DCT share only Repack: {satd_dct}"
        );
    }
}
