//! The latency-ordered lookup of `SiDefinition` against the full scan it
//! replaces: `fastest_available_index`, `fastest_available` and
//! `best_latency` must agree with `filter(is_available).min_by_key(latency)`
//! over the variants, ties included (`min_by_key` keeps the first minimum,
//! the lowest index), on libraries built through `SiLibraryBuilder`.
//!
//! Universes of 1 to 80 atom types run both the path with one-word type
//! masks (at most 64 types) and the path without; the lookup gets both the
//! present-types mask a fabric keeps and the mask that filters nothing,
//! and each SI's `atom_types` must be its variants' supremum. Latencies come from a
//! small set, so equally fast variants are common, and the probed atom
//! sets include the empty one, exact fits, one atom short of a variant
//! (its types present, a count missing) and `0xFFFF` counts.

use proptest::prelude::*;
use rispp_model::{
    AtomTypeInfo, AtomUniverse, Molecule, SiDefinition, SiLibrary, SiLibraryBuilder,
};

/// Variant latencies: few values, so many variants of an SI tie.
const LATENCIES: [u32; 4] = [2, 3, 5, 8];

/// One variant: `(type, count)` entries (a type may repeat; the last
/// count wins) and an index into [`LATENCIES`].
type VariantDraw = (Vec<(usize, u16)>, usize);

/// One SI: its software latency and its variants.
type SiDraw = (u32, Vec<VariantDraw>);

/// One probe: its kind, and picks of an SI, a variant and a lane.
type ProbeDraw = (
    u8,
    prop::sample::Index,
    prop::sample::Index,
    prop::sample::Index,
);

fn case() -> impl Strategy<Value = (usize, Vec<SiDraw>, Vec<ProbeDraw>)> {
    (1usize..=80).prop_flat_map(|arity| {
        let variant = (
            prop::collection::vec((0..arity, 1u16..4), 1..4),
            0..LATENCIES.len(),
        );
        let si = (1u32..10, prop::collection::vec(variant, 1..25));
        let probe = (
            0u8..6,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        );
        (
            Just(arity),
            prop::collection::vec(si, 1..4),
            prop::collection::vec(probe, 1..16),
        )
    })
}

/// Builds the drawn library; a variant whose atoms repeat an earlier one
/// of its SI is refused by the builder and skipped.
fn library(arity: usize, sis: &[SiDraw]) -> SiLibrary {
    let types = (0..arity).map(|i| AtomTypeInfo::new(format!("T{i}")));
    let mut builder = SiLibraryBuilder::new(AtomUniverse::from_types(types).unwrap());
    for (k, (software, variants)) in sis.iter().enumerate() {
        let mut si = builder
            .special_instruction(format!("S{k}"), *software)
            .unwrap();
        for (entries, latency) in variants {
            let mut counts = vec![0u16; arity];
            for &(lane, count) in entries {
                counts[lane] = count;
            }
            let _ = si.molecule(Molecule::from_counts(counts), LATENCIES[*latency]);
        }
    }
    builder.build().unwrap()
}

/// The atom set a probe asks about.
fn probe(arity: usize, library: &SiLibrary, draw: &ProbeDraw) -> Molecule {
    let (kind, si, variant, lane) = draw;
    let si = library.iter().nth(si.index(library.len())).unwrap();
    let atoms = &si.variants()[variant.index(si.molecule_count())].atoms;
    match kind {
        0 => Molecule::zero(arity),
        1 => atoms.clone(),
        // One atom short: a lane the variant needs two or more of keeps
        // its type but misses a count.
        2 => {
            let mut short = atoms.clone();
            let lanes: Vec<usize> = (0..arity).filter(|&i| atoms.count(i) >= 2).collect();
            if let Some(&i) = lanes.get(lane.index(lanes.len().max(1))) {
                short.set_count(i, atoms.count(i) - 1);
            }
            short
        }
        3 => Molecule::from_counts(vec![0xFFFF; arity]),
        // Every variant of the SI but one lane dropped.
        4 => {
            let mut all = Molecule::supremum(si.variants().iter().map(|v| &v.atoms)).unwrap();
            all.set_count(lane.index(arity), 0);
            all
        }
        _ => atoms.union(&Molecule::unit(arity, lane.index(arity))),
    }
}

/// The scan the lookup replaces, kept as the reference.
fn reference(si: &SiDefinition, available: &Molecule) -> Option<usize> {
    si.variants()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_available(available))
        .min_by_key(|(_, v)| v.latency)
        .map(|(i, _)| i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lookup_equals_the_full_scan((arity, sis, probes) in case()) {
        let library = library(arity, &sis);
        prop_assert_eq!(library.iter().all(|si| si.variant_masks().is_empty()), arity > 64);
        for si in library.iter() {
            // The memo key's types: the supremum's nonzero components.
            let sup = Molecule::supremum(si.variants().iter().map(|v| &v.atoms)).unwrap();
            let types: Vec<(usize, u16)> = sup
                .counts()
                .iter()
                .enumerate()
                .filter(|&(_, &most)| most > 0)
                .map(|(t, &most)| (t, most))
                .collect();
            let kept: Vec<(usize, u16)> =
                si.atom_types().iter().map(|&(t, most)| (t.index(), most)).collect();
            prop_assert_eq!(kept, types);
        }
        for draw in &probes {
            let available = probe(arity, &library, draw);
            for si in library.iter() {
                for v in si.variants() {
                    prop_assert_eq!(v.is_available(&available), v.atoms <= available);
                }
                let expected = reference(si, &available);
                // The types present in `available`, as the fabric keeps
                // them, and the mask that filters nothing.
                let present = if arity > 64 {
                    u64::MAX
                } else {
                    available.nonzero_mask()
                };
                for mask in [present, u64::MAX] {
                    prop_assert_eq!(
                        si.fastest_available_index(&available, mask),
                        expected,
                        "{} over {} types, available {}, mask {:#x}",
                        si.name(),
                        arity,
                        available,
                        mask
                    );
                }
                prop_assert_eq!(
                    si.fastest_available(&available),
                    expected.map(|i| &si.variants()[i])
                );
                prop_assert_eq!(
                    si.best_latency(&available),
                    expected
                        .map_or(si.software_latency(), |i| si.variants()[i].latency)
                        .min(si.software_latency())
                );
            }
        }
    }
}
