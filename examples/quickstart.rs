//! Quickstart: build a tiny SI library, run the HEF scheduler by hand, and
//! watch an SI upgrade gradually while its Atoms stream in.
//!
//! Run with: `cargo run --release --example quickstart`

use rispp::core::{FabricArbiter, ScheduleRequest, SchedulerKind, SelectedMolecule};
use rispp::model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};
use rispp::monitor::HotSpotId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An Atom universe with two elementary data paths.
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("Butterfly"),
        AtomTypeInfo::new("Accumulate"),
    ])?;

    // 2. One Special Instruction with three Molecules trading area for
    //    latency, plus its base-processor (trap) fallback at 1,200 cycles.
    let mut builder = SiLibraryBuilder::new(universe);
    builder
        .special_instruction("TRANSFORM", 1_200)?
        .molecule(Molecule::from_counts([1, 1]), 400)?
        .molecule(Molecule::from_counts([2, 1]), 180)?
        .molecule(Molecule::from_counts([4, 2]), 60)?;
    let library = builder.build()?;

    // 3. Ask HEF for the Atom loading sequence to compose the big Molecule.
    let si = library.by_name("TRANSFORM").expect("just defined");
    let request = ScheduleRequest::new(
        &library,
        vec![SelectedMolecule::new(SiId(0), 2)],
        Molecule::zero(2),
        vec![5_000], // expected executions in the upcoming hot spot
    )?;
    let schedule = SchedulerKind::Hef.schedule(&request);
    println!("HEF atom loading sequence:");
    for (i, step) in schedule.steps().iter().enumerate() {
        let name = library
            .universe()
            .info(step.atom)
            .map(|t| t.name.as_str())
            .unwrap_or("?");
        match step.completes {
            Some((_, v)) => println!("  {:>2}. load {name} -> upgrades to molecule #{v}", i + 1),
            None => println!("  {:>2}. load {name}", i + 1),
        }
    }

    // 4. Drive the full run-time system as its only application (app 0):
    //    the SI starts on the trap path and gets faster as
    //    reconfigurations complete (~874 µs per Atom).
    let mut manager = FabricArbiter::builder(&library).containers(6).build();
    manager.enter_hot_spot(0, HotSpotId(0), &[(SiId(0), 5_000)], 0)?;
    println!("\nexecuting while the fabric reconfigures:");
    let mut now = 0u64;
    for _ in 0..12 {
        let execution = manager.execute_si(0, SiId(0), now);
        println!(
            "  cycle {:>9}: latency {:>5} cycles ({})",
            now,
            execution.latency,
            if execution.is_hardware() {
                "hardware molecule"
            } else {
                "software trap"
            }
        );
        now += u64::from(execution.latency) + 50_000; // other work between calls
    }
    manager.exit_hot_spot(0, now);

    let final_latency = si.best_latency(manager.available_atoms());
    println!(
        "\nfinal latency {final_latency} cycles — {:.0}x faster than the trap path",
        f64::from(si.software_latency()) / f64::from(final_latency)
    );
    Ok(())
}
