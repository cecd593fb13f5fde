//! Scheduler shootout on a hand-built workload: watch FSFR starve a
//! secondary SI, ASF waste reconfiguration bandwidth on a rare SI, and HEF
//! balance both — the dynamics behind paper Figures 5 and 7.
//!
//! Run with: `cargo run --release --example scheduler_shootout`

use rispp::core::{FabricArbiter, SchedulerKind};
use rispp::model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp::monitor::HotSpotId;

/// Three SIs over four atom types: a dominant transform, a medium filter,
/// and a rarely-executed predictor.
fn build_library() -> Result<SiLibrary, Box<dyn std::error::Error>> {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("XF"),
        AtomTypeInfo::new("PK"),
        AtomTypeInfo::new("FLT"),
        AtomTypeInfo::new("PRED"),
    ])?;
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("TRANSFORM", 900)?
        .molecule(Molecule::from_counts([1, 1, 0, 0]), 300)?
        .molecule(Molecule::from_counts([2, 1, 0, 0]), 150)?
        .molecule(Molecule::from_counts([4, 2, 0, 0]), 40)?;
    b.special_instruction("FILTER", 4_000)?
        .molecule(Molecule::from_counts([0, 0, 1, 0]), 1_400)?
        .molecule(Molecule::from_counts([0, 1, 2, 0]), 500)?
        .molecule(Molecule::from_counts([0, 2, 4, 0]), 120)?;
    b.special_instruction("PREDICT", 700)?
        .molecule(Molecule::from_counts([0, 0, 0, 1]), 250)?
        .molecule(Molecule::from_counts([0, 1, 0, 2]), 90)?;
    Ok(b.build()?)
}

fn run(library: &SiLibrary, kind: SchedulerKind) -> u64 {
    let mut mgr = FabricArbiter::builder(library)
        .containers(8)
        .scheduler(kind)
        .build();
    // Expected profile: TRANSFORM dominates, FILTER is hot, PREDICT rare.
    let hints = [(SiId(0), 6_000), (SiId(1), 1_200), (SiId(2), 30)];
    mgr.enter_hot_spot(0, HotSpotId(0), &hints, 0)
        .expect("library and hints are consistent");
    let mut now = 0u64;
    let mut segments = Vec::new();
    // Interleaved execution mirroring a per-block pipeline.
    for block in 0..1_500u32 {
        let bursts: &[(SiId, u32)] = if block % 50 == 0 {
            &[(SiId(0), 4), (SiId(1), 1), (SiId(2), 1)]
        } else {
            &[(SiId(0), 4), (SiId(1), 1)]
        };
        for &(si, count) in bursts {
            mgr.execute_burst_into(0, si, count, 10, now, &mut segments);
            for seg in &segments {
                now = seg.start + seg.count * (u64::from(seg.latency) + 10);
            }
        }
    }
    mgr.exit_hot_spot(0, now);
    now
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = build_library()?;
    println!("one hot spot, cold fabric, 8 Atom Containers:");
    let mut results: Vec<(SchedulerKind, u64)> = SchedulerKind::ALL
        .iter()
        .map(|&kind| (kind, run(&library, kind)))
        .collect();
    let best = results.iter().map(|&(_, c)| c).min().unwrap_or(1);
    results.sort_by_key(|&(_, c)| c);
    for (kind, cycles) in results {
        println!(
            "  {:>4}: {:>9} cycles ({:+.2}% vs best)",
            kind.abbreviation(),
            cycles,
            (cycles as f64 / best as f64 - 1.0) * 100.0
        );
    }
    println!("\nHEF weights each upgrade by expected executions x latency gain");
    println!("per additional Atom — the paper's 'Highest Efficiency First'.");
    Ok(())
}
