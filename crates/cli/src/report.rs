//! Table/series formatting for `rispp-cli reproduce`.

use rispp_core::SchedulerKind;
use rispp_model::SiId;
use rispp_sim::RunStats;

use crate::experiments::{Fig4Row, SchedulerSweep};

/// Formats cycles as the paper does: millions with one decimal.
#[must_use]
pub fn mcycles(cycles: u64) -> String {
    format!("{:.1}", cycles as f64 / 1e6)
}

/// Renders the Figure 7 series (execution time vs. #ACs per scheduler).
#[must_use]
pub fn fig7_table(sweep: &SchedulerSweep) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: execution time [M cycles] encoding the CIF sequence\n");
    out.push_str(&format!(
        "  0 ACs (pure software): {} M cycles (paper: 7,403 M)\n",
        mcycles(sweep.software_cycles)
    ));
    out.push_str("  #ACs");
    for kind in SchedulerKind::ALL {
        out.push_str(&format!("{:>10}", kind.abbreviation()));
    }
    out.push_str(&format!("{:>10}\n", "Molen"));
    for p in &sweep.points {
        out.push_str(&format!("  {:>4}", p.containers));
        for c in p.cycles {
            out.push_str(&format!("{:>10}", mcycles(c)));
        }
        out.push_str(&format!("{:>10}\n", mcycles(p.molen_cycles)));
    }
    out
}

/// Renders Table 2 (speedups HEF vs ASF, ASF vs Molen, HEF vs Molen).
#[must_use]
pub fn table2(sweep: &SchedulerSweep) -> String {
    let idx = |k: SchedulerKind| {
        SchedulerKind::ALL
            .iter()
            .position(|&x| x == k)
            .expect("kind in ALL")
    };
    let hef = idx(SchedulerKind::Hef);
    let asf = idx(SchedulerKind::Asf);
    let mut out = String::new();
    out.push_str("Table 2: speedups across Atom Container counts\n");
    out.push_str("  #ACs   HEF/ASF   ASF/Molen   HEF/Molen\n");
    let mut hef_molen = Vec::new();
    for p in &sweep.points {
        let s_hef_asf = p.cycles[asf] as f64 / p.cycles[hef] as f64;
        let s_asf_molen = p.molen_cycles as f64 / p.cycles[asf] as f64;
        let s_hef_molen = p.molen_cycles as f64 / p.cycles[hef] as f64;
        hef_molen.push(s_hef_molen);
        out.push_str(&format!(
            "  {:>4}   {:>7.2}   {:>9.2}   {:>9.2}\n",
            p.containers, s_hef_asf, s_asf_molen, s_hef_molen
        ));
    }
    let avg = hef_molen.iter().sum::<f64>() / hef_molen.len().max(1) as f64;
    let max = hef_molen.iter().cloned().fold(0.0f64, f64::max);
    out.push_str(&format!(
        "  HEF vs Molen: avg {avg:.2}x (paper 1.71x), max {max:.2}x (paper 2.38x)\n"
    ));
    out
}

/// Renders the Figure 2 series: SI executions per 100 K cycles for the ME
/// hot spot, with and without stepwise SI upgrades.
#[must_use]
pub fn fig2_series(with_upgrade: &RunStats, without: &RunStats, buckets: usize) -> String {
    let a = with_upgrade.combined_buckets();
    let b = without.combined_buckets();
    let mut out = String::new();
    out.push_str("Figure 2: SAD+SATD executions per 100K cycles (ME hot spot)\n");
    out.push_str("  t[100K]   with upgrade   no upgrade\n");
    for i in 0..buckets.min(a.len().max(b.len())) {
        out.push_str(&format!(
            "  {:>7}   {:>12}   {:>10}\n",
            i,
            a.get(i).copied().unwrap_or(0),
            b.get(i).copied().unwrap_or(0)
        ));
    }
    out.push_str(&format!(
        "  totals: with {} cycles, without {} cycles (upgrade {:.2}x faster)\n",
        with_upgrade.total_cycles,
        without.total_cycles,
        without.total_cycles as f64 / with_upgrade.total_cycles as f64
    ));
    out
}

/// Renders the Figure 4 availability tables (good vs. bad atom order).
#[must_use]
pub fn fig4_table(good: &[Fig4Row], bad: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: fastest available Molecule after each Atom load\n");
    out.push_str("  #loaded   good schedule   bad schedule\n");
    for (g, b) in good.iter().zip(bad) {
        let fmt = |r: &Fig4Row| {
            r.molecule
                .map(|m| format!("{} (lat {})", m, r.fastest_latency.unwrap_or(0)))
                .unwrap_or_else(|| "software".to_string())
        };
        out.push_str(&format!(
            "  {:>7}   {:<13}   {:<12}\n",
            g.atoms_loaded,
            fmt(g),
            fmt(b)
        ));
    }
    out
}

/// Renders the Figure 5 upgrade paths per scheduler.
#[must_use]
pub fn fig5_table(paths: &[(SchedulerKind, Vec<(u16, usize)>)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: Molecule upgrade paths for two SIs\n");
    for (kind, path) in paths {
        let steps: Vec<String> = path
            .iter()
            .map(|&(si, v)| format!("SI{}·m{}", si + 1, v + 1))
            .collect();
        out.push_str(&format!(
            "  {:>4}: {}\n",
            kind.abbreviation(),
            steps.join(" -> ")
        ));
    }
    out
}

/// Renders the Figure 8 detail: per-SI latency steps and execution buckets.
#[must_use]
pub fn fig8_table(stats: &RunStats, sis: &[(SiId, &str)], buckets: usize) -> String {
    let mut out = String::new();
    out.push_str("Figure 8: HEF detail (10 ACs) — latency steps\n");
    for &(si, name) in sis {
        let tl = stats
            .latency_timeline
            .get(si.index())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let steps: Vec<String> = tl
            .iter()
            .take(12)
            .map(|e| format!("@{:.1}: {}", e.at as f64 / 100_000.0, e.latency))
            .collect();
        out.push_str(&format!("  {:<10} {}\n", name, steps.join("  ")));
    }
    out.push_str("  executions per 100K-cycle bucket:\n");
    out.push_str("  t[100K]");
    for &(_, name) in sis {
        out.push_str(&format!("{:>10}", name));
    }
    out.push('\n');
    for b in 0..buckets {
        out.push_str(&format!("  {:>7}", b));
        for &(si, _) in sis {
            out.push_str(&format!("{:>10}", stats.executions_in_bucket(si, b)));
        }
        out.push('\n');
    }
    out
}

/// Renders Table 1 (implemented SIs).
#[must_use]
pub fn table1(rows: &[(String, usize, usize)]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: implemented SIs (paper values in parentheses)\n");
    out.push_str("  SI           #atom-types   #molecules\n");
    let paper: [(usize, usize); 9] = [
        (1, 3),
        (4, 20),
        (3, 12),
        (1, 2),
        (2, 7),
        (3, 11),
        (2, 4),
        (1, 3),
        (2, 5),
    ];
    for (i, (name, types, mols)) in rows.iter().enumerate() {
        let (pt, pm) = paper.get(i).copied().unwrap_or((0, 0));
        out.push_str(&format!(
            "  {name:<12} {types:>6} ({pt:>2})   {mols:>5} ({pm:>2})\n"
        ));
    }
    out
}

/// Renders Table 3 (HEF scheduler hardware results).
#[must_use]
pub fn table3(
    paper: &rispp_hw::AreaReport,
    estimate: &rispp_hw::AreaReport,
    fsm: &rispp_hw::FsmRun,
) -> String {
    let atom = rispp_hw::AreaReport::paper_average_atom();
    let mut out = String::new();
    out.push_str("Table 3: HEF scheduler hardware implementation\n");
    out.push_str("  characteristic      paper HEF   model HEF   avg atom\n");
    out.push_str(&format!(
        "  # slices            {:>9}   {:>9}   {:>8}\n",
        paper.slices, estimate.slices, atom.slices
    ));
    out.push_str(&format!(
        "  # LUTs              {:>9}   {:>9}   {:>8}\n",
        paper.luts, estimate.luts, atom.luts
    ));
    out.push_str(&format!(
        "  # FFs               {:>9}   {:>9}   {:>8}\n",
        paper.ffs, estimate.ffs, atom.ffs
    ));
    out.push_str(&format!(
        "  # MULT18X18         {:>9}   {:>9}   {:>8}\n",
        paper.mult18x18, estimate.mult18x18, atom.mult18x18
    ));
    out.push_str(&format!(
        "  gate equivalents    {:>9}   {:>9}   {:>8}\n",
        paper.gate_equivalents, estimate.gate_equivalents, atom.gate_equivalents
    ));
    out.push_str(&format!(
        "  clock delay [ns]    {:>9.3}   {:>9.3}   {:>8.3}\n",
        paper.clock_delay_ns, estimate.clock_delay_ns, atom.clock_delay_ns
    ));
    out.push_str(&format!(
        "  device utilisation: {:.2}% (paper 3.83%), fits one AC: {}\n",
        paper.device_utilisation_percent(),
        paper.fits_one_atom_container()
    ));
    out.push_str(&format!(
        "  FSM: {} cycles / {:.2} µs per scheduling decision ({} rounds) — far below one 874 µs atom load\n",
        fsm.cycles,
        fsm.wall_time_us(paper.clock_delay_ns),
        fsm.rounds
    ));
    out
}

/// Renders an ablation result list.
#[must_use]
pub fn ablation_table(title: &str, rows: &[(String, u64)]) -> String {
    let mut out = format!("{title}\n");
    let best = rows.iter().map(|&(_, c)| c).min().unwrap_or(1);
    for (label, cycles) in rows {
        out.push_str(&format!(
            "  {:<16} {:>9} M cycles  ({:+.2}% vs best)\n",
            label,
            mcycles(*cycles),
            (*cycles as f64 / best as f64 - 1.0) * 100.0
        ));
    }
    out
}
