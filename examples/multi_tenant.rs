//! Multi-application fabric contention: two H.264 encoder instances and
//! a crypto-gateway-shaped packet stream share one 10-container fabric
//! under the [`FabricArbiter`](rispp::core::FabricArbiter), comparing the
//! `Shared` policy (cross-app Atom reuse, contention-aware eviction)
//! against hard `Partitioned` container quotas.
//!
//! Run with: `cargo run --release --example multi_tenant`

use rispp::core::SchedulerKind;
use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload, HotSpot, SiKind};
use rispp::sim::{
    simulate, simulate_multi, Burst, Invocation, SimConfig, TenancyConfig, TenantArbitration,
    TenantPolicy, Trace,
};

const CONTAINERS: u16 = 10;

/// A packet-gateway-shaped workload on the shared SI library: many short
/// invocations (one per packet batch) hammering the streaming kernels —
/// the traffic shape of the AES gateway of `rispp-cli reproduce
/// generality`, mapped onto this library's deblocking/transform SIs.
fn gateway_trace(batches: usize) -> Trace {
    (0..batches)
        .map(|b| Invocation {
            hot_spot: HotSpot::LoopFilter.id(),
            prologue_cycles: 8_000,
            bursts: vec![
                Burst {
                    si: SiKind::LfBs4.id(),
                    count: 220 + (b as u32 % 3) * 40,
                    overhead: 10,
                },
                Burst {
                    si: SiKind::Dct.id(),
                    count: 160,
                    overhead: 10,
                },
            ],
            hints: vec![(SiKind::LfBs4.id(), 220), (SiKind::Dct.id(), 160)],
        })
        .collect()
}

/// The same encoder workload phase-shifted by `offset` invocations, so
/// the two encoder instances are never in the same hot spot at once.
fn phase_shift(trace: &Trace, offset: usize) -> Trace {
    let invs = trace.invocations();
    let offset = offset % invs.len().max(1);
    Trace::from_invocations(
        invs[offset..]
            .iter()
            .chain(&invs[..offset])
            .cloned()
            .collect(),
    )
}

fn main() {
    let library = h264_si_library();
    let mut config = EncoderConfig::paper_cif();
    config.frames = 6;

    println!(
        "encoding {} CIF frames for the two encoder tenants...",
        config.frames
    );
    let workload = EncoderWorkload::generate(&config);
    let encoder_a = workload.trace().clone();
    let encoder_b = phase_shift(&encoder_a, 1);
    let gateway = gateway_trace(180);
    let traces = [encoder_a, encoder_b, gateway];
    let names = ["encoder-A", "encoder-B", "gateway"];

    println!("\ntenants contending for {CONTAINERS} Atom Containers (HEF):");
    for (name, t) in names.iter().zip(&traces) {
        println!(
            "  {:<10} {:>4} invocations, {:>8} SI executions",
            name,
            t.len(),
            t.total_si_executions()
        );
    }

    // Solo baselines: each app alone on the full fabric.
    let solo_cfg = SimConfig::rispp(CONTAINERS, SchedulerKind::Hef);
    let solo: Vec<u64> = traces
        .iter()
        .map(|t| simulate(&library, t, &solo_cfg).total_cycles)
        .collect();
    let software: Vec<u64> = traces
        .iter()
        .map(|t| simulate(&library, t, &SimConfig::software_only()).total_cycles)
        .collect();

    for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
        let cfg = solo_cfg.with_tenants(TenancyConfig {
            count: traces.len() as u16,
            policy,
            arbitration: TenantArbitration::RoundRobin,
        });
        let multi = simulate_multi(&library, &traces, &cfg);
        match policy {
            TenantPolicy::Shared => println!(
                "\nShared fabric ({CONTAINERS} containers, cross-app Atom reuse, \
                 contention-aware eviction):"
            ),
            TenantPolicy::Partitioned => println!(
                "\nPartitioned fabric ({} containers hard quota per app):",
                CONTAINERS / traces.len() as u16
            ),
        }
        for (i, name) in names.iter().enumerate() {
            let cycles = multi.per_tenant[i].total_cycles;
            println!(
                "  {:<10} {:>7.2} M cycles, {:>5.2}x vs software, {:>5.1}% of solo speed, \
                 {:>4} atoms shared",
                name,
                cycles as f64 / 1e6,
                software[i] as f64 / cycles as f64,
                100.0 * solo[i] as f64 / cycles as f64,
                multi.per_tenant[i].atoms_shared
            );
        }
        println!(
            "  aggregate {:.2} M cycles over a {:.2} M-cycle makespan, \
             {} atoms shared, {} contested evictions",
            multi.aggregate_cycles as f64 / 1e6,
            multi.makespan_cycles as f64 / 1e6,
            multi.atoms_shared,
            multi.evictions_contested
        );
    }

    println!("\nthe Shared policy lets an app reuse Atoms a co-tenant already");
    println!("loaded and weighs a victim's forecasted demand before evicting,");
    println!("so overlapping working sets beat hard partitioning — while the");
    println!("cISA trap path guarantees every tenant forward progress.");
}
