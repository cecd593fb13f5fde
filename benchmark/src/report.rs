//! The metric catalogue, one workload's outcome, and how it is printed:
//! human-readable lines, the detailed results record, and the one-line
//! verdict that ends standard output.

use std::fmt::Write as _;

use rispp_telemetry::escape_json_into;

use crate::stats::Summary;

/// End-to-end metrics (untraced run), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), reported by every workload. Times are
/// per pass (median over traced passes).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("h264.encode_frame_us", "us"),
    ("h264.to_trace_us", "us"),
    ("sim.replay_us", "us"),
    ("sim.engine_self_us", "us"),
    ("core.enter_us", "us"),
    ("core.batched_us", "us"),
    ("core.single_us", "us"),
    ("monitor.exit_us", "us"),
    ("sim.observer_us", "us"),
    ("sim.host_ns_per_si", "ns"),
    ("sim.si_executions", "count"),
    ("sim.events", "count"),
    ("sim.batched_share", "ratio"),
    ("core.enter_calls", "count"),
    ("core.batched_calls", "count"),
    ("core.batched_bursts", "count"),
    ("core.single_calls", "count"),
    ("core.plan_hits", "count"),
    ("core.plan_misses", "count"),
    ("core.plan_hit_ratio", "ratio"),
    ("core.plan_epoch_bumps", "count"),
    ("fabric.faults_injected", "count"),
    ("core.load_retries", "count"),
    ("core.quarantined", "count"),
    ("core.atoms_shared", "count"),
    ("core.evictions_contested", "count"),
    ("core.multi_replay_share", "ratio"),
    ("telemetry.export_share", "ratio"),
    ("telemetry.export_bytes", "count"),
    ("serve.parse_share", "ratio"),
    ("serve.admit_share", "ratio"),
    ("serve.materialise_share", "ratio"),
    ("serve.simulate_share", "ratio"),
    ("serve.encode_share", "ratio"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.trace_cache_hit_ratio", "ratio"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("trace_overhead", "ratio"),
];

/// One measured value, with the samples' spread when it came from many.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the samples behind `value`, if any.
    pub summary: Option<Summary>,
}

/// One row of the per-layer self-time table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer (span or accumulator) name.
    pub layer: &'static str,
    /// Calls.
    pub calls: u64,
    /// Total microseconds.
    pub total_us: f64,
    /// Total minus what child layers cover.
    pub self_us: f64,
    /// Median per call.
    pub median_us: f64,
    /// 99th percentile per call.
    pub p99_us: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Timed passes (sweeps) or requests per phase (serve).
    pub passes: usize,
    /// Operations attempted: jobs, multi-tenant runs or requests.
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Broken invariants that are not one operation's failure.
    pub errors: Vec<String>,
    /// The metrics of the verdict line.
    pub metrics: Vec<Metric>,
    /// Further measurements, printed and recorded but not in the verdict.
    pub extra: Vec<Metric>,
    /// Per-layer self-time table (traced run).
    pub layers: Vec<LayerRow>,
    /// Informational lines (accuracy against the paper, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome. A traced run starts with every per-layer metric
    /// at 0, so layers the workload does not run read 0; those are all
    /// shares and counts, while every time metric is measured by every
    /// workload.
    #[must_use]
    pub fn new(workload: &'static str, traced: bool) -> Self {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    summary: None,
                })
                .collect()
        } else {
            Vec::new()
        };
        Outcome {
            workload,
            traced,
            passes: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics,
            extra: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every gate passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets verdict metric `name` (unit from the catalogue).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this run's catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        let unit = self
            .catalogue()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            summary,
        });
    }

    /// Records a measurement outside the verdict.
    pub fn note_metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        summary: Option<Summary>,
    ) {
        self.extra.push(Metric {
            name,
            unit,
            value,
            summary,
        });
    }

    /// Prints every metric, layer and note, one per line.
    pub fn print(&self) {
        let w = self.workload;
        for m in self.metrics.iter().chain(&self.extra) {
            let mut line = format!("{w} {} = {} {}", m.name, num(m.value), m.unit);
            if let Some(s) = &m.summary {
                let _ = write!(
                    line,
                    " (n={} median {} p10 {} p90 {} p99 {})",
                    s.samples,
                    num(s.median),
                    num(s.p10),
                    num(s.p90),
                    num(s.p99)
                );
            }
            println!("{line}");
        }
        if !self.layers.is_empty() {
            println!(
                "{w} layer {:<24} {:>10} {:>14} {:>14} {:>12} {:>12}",
                "name", "calls", "total_us", "self_us", "median_us", "p99_us"
            );
            for r in &self.layers {
                println!(
                    "{w} layer {:<24} {:>10} {:>14.1} {:>14.1} {:>12.3} {:>12.3}",
                    r.layer, r.calls, r.total_us, r.self_us, r.median_us, r.p99_us
                );
            }
        }
        for n in &self.notes {
            println!("{w} note {n}");
        }
        for e in &self.errors {
            println!("{w} ERROR {e}");
        }
        println!(
            "{w} error_ratio = {} ({} failed of {} attempted)",
            num(self.error_ratio()),
            self.failed,
            self.attempted
        );
    }

    /// Failed over attempted.
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing verdict line: `correct`, `attempted`, `failed` and
    /// exactly this run's catalogue of metrics.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric the workload did not set.
    pub fn verdict_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in self.catalogue().iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(m.value)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The detailed results record of this workload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"error_ratio\":{},\"passes\":{},\"metrics\":[",
            self.workload,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            num(self.error_ratio()),
            self.passes
        );
        for (i, m) in self.metrics.iter().chain(&self.extra).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{}",
                m.name,
                m.unit,
                num(m.value)
            );
            if let Some(s) = &m.summary {
                let _ = write!(
                    out,
                    ",\"samples\":{},\"median\":{},\"p10\":{},\"p90\":{},\"p99\":{}",
                    s.samples,
                    num(s.median),
                    num(s.p10),
                    num(s.p90),
                    num(s.p99)
                );
            }
            out.push('}');
        }
        out.push_str("],\"layers\":[");
        for (i, r) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{}\",\"calls\":{},\"total_us\":{},\"self_us\":{},\"median_us\":{},\"p99_us\":{}}}",
                r.layer,
                r.calls,
                num(r.total_us),
                num(r.self_us),
                num(r.median_us),
                num(r.p99_us)
            );
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().chain(&self.errors).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(n, &mut out);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

/// A finite number in full precision (non-finite values read 0, so the
/// output stays valid JSON).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_line_requires_every_catalogue_metric() {
        let mut o = Outcome::new("fig7", false);
        o.attempted = 10;
        for &(name, _) in END_TO_END {
            o.set(name, 1.5, None);
        }
        let line = o.verdict_line().unwrap();
        let v = rispp_telemetry::JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        o.metrics.pop();
        assert!(o.verdict_line().is_err());
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = rispp_telemetry::JsonValue::parse(&text).expect("valid BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
