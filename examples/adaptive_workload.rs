//! Run-time adaptivity demo: the workload's hot-spot profile changes
//! mid-run (like the paper's "kind of motion in the input video"), the
//! online monitor learns the new profile, and selection + scheduling
//! follow — no design-time knowledge of the change.
//!
//! Run with: `cargo run --release --example adaptive_workload`

use rispp::core::{FabricArbiter, SchedulerKind};
use rispp::h264::{h264_si_library, SiKind};
use rispp::monitor::HotSpotId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = h264_si_library();
    let mut mgr = FabricArbiter::builder(&library)
        .containers(12)
        .scheduler(SchedulerKind::Hef)
        .build();

    // Encoding-engine hot spot. Design-time hints say inter-coding
    // dominates (MC heavy); after the "scene change" the real profile
    // flips to intra (IPred heavy).
    let hs = HotSpotId(1);
    let hints = [
        (SiKind::Dct.id(), 9_000),
        (SiKind::Mc.id(), 380),
        (SiKind::IPredVdc.id(), 10),
    ];

    let mut now = 0u64;
    let mut segments = Vec::new();
    for iteration in 0..8u32 {
        mgr.enter_hot_spot(0, hs, &hints, now)?;
        let selected: Vec<String> = mgr
            .selected(0)
            .iter()
            .map(|s| {
                let si = library.si(s.si).expect("selected SI exists");
                format!("{}#{}", si.name(), s.variant_index)
            })
            .collect();
        println!("iteration {iteration}: selected [{}]", selected.join(", "));

        // Phase change after iteration 3: MBs switch from inter to intra.
        let (mc_count, ipred_count) = if iteration < 4 { (380, 10) } else { (20, 370) };
        let bursts = std::iter::repeat_n((SiKind::Dct.id(), 24), 380).chain([
            (SiKind::Mc.id(), mc_count),
            (SiKind::IPredVdc.id(), ipred_count),
        ]);
        for (si, count) in bursts {
            mgr.execute_burst_into(0, si, count, 10, now, &mut segments);
            for seg in &segments {
                now = seg.start + seg.count * (u64::from(seg.latency) + 10);
            }
        }
        mgr.exit_hot_spot(0, now);

        let mc = mgr.monitor(0).expected(hs, SiKind::Mc.id());
        let ipred = mgr.monitor(0).expected(hs, SiKind::IPredVdc.id());
        println!("             monitor now expects MC {mc}, IPred VDC {ipred} executions");
        now += 200_000; // other hot spots in between
    }

    println!("\nafter the phase change the selection drops MC's Molecule in");
    println!("favour of IPred — run-time adaptation without re-synthesis.");
    Ok(())
}
