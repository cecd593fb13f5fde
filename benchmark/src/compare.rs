//! `benchmark compare BASE.json... -- NEW.json...`: the repeated-runs
//! rule for claiming a gain or a regression, applied to every end-to-end
//! metric of every workload found in the results files (`--out`).
//!
//! For each (metric, workload) pair, with the i-th base run paired with
//! the i-th new run:
//!
//! * **improved** — the new side wins at least 9 in 10 pairs (ties count
//!   for neither) and the medians differ by more than the base runs'
//!   interquartile range;
//! * **unresolved** — the base runs' own spread exceeds the metric's bound
//!   and not every new run beats every base run;
//! * **regressed** — the new median is worse than the base median by more
//!   than the bound;
//! * **no worse** — otherwise.
//!
//! Bounds and directions come from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use rispp_telemetry::JsonValue;

use crate::stats::quartiles;

/// One end-to-end metric's direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the repeated-runs rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// The base runs spread wider than the bound.
    Unresolved,
}

/// Medians, quartiles and the verdict of one pair of run sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Base (q1, median, q3).
    pub base: (f64, f64, f64),
    /// New (q1, median, q3).
    pub new: (f64, f64, f64),
    /// Share of pairs the new side won.
    pub win_fraction: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rule to one metric's base and new runs (both non-empty).
#[must_use]
pub fn compare(rule: &Rule, base: &[f64], new: &[f64]) -> Comparison {
    let better = |a: f64, b: f64| if rule.higher_is_better { a > b } else { a < b };
    let b = quartiles(base);
    let n = quartiles(new);
    let pairs = base.len().min(new.len()).max(1);
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&old, &cur)| better(cur, old))
        .count();
    let win_fraction = wins as f64 / pairs as f64;
    // Positive when the new median is better.
    let gain = if rule.higher_is_better {
        n.1 - b.1
    } else {
        b.1 - n.1
    };
    let spread = (b.2 - b.0) / b.1.abs().max(f64::MIN_POSITIVE);
    let all_better = new
        .iter()
        .all(|&cur| base.iter().all(|&old| better(cur, old)));
    let verdict = if win_fraction >= 0.9 && gain > b.2 - b.0 {
        Verdict::Improved
    } else if spread > rule.bound && !all_better {
        Verdict::Unresolved
    } else if -gain > rule.bound * b.1.abs() {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    Comparison {
        base: b,
        new: n,
        win_fraction,
        verdict,
    }
}

/// The end-to-end rules of a `BENCHMARK.json`.
fn rules(spec: &JsonValue) -> Result<Vec<Rule>, String> {
    spec.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Every (workload, metric) value across `files`.
fn load(files: &[String]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or(format!("{file}: no workloads"))?;
        for w in workloads {
            let name = w
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            for m in w
                .get("metrics")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
            {
                if let (Some(metric), Some(value)) = (
                    m.get("name").and_then(JsonValue::as_str),
                    m.get("value").and_then(JsonValue::as_f64),
                ) {
                    values
                        .entry((name.to_string(), metric.to_string()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(values)
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(regressed) => {
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut base = Vec::new();
    let mut new = Vec::new();
    let mut after_separator = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            "--" => after_separator = true,
            file if after_separator => new.push(file.to_string()),
            file => base.push(file.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err(
            "usage: benchmark compare [--spec BENCHMARK.json] BASE.json... -- NEW.json...".into(),
        );
    }
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let rules = rules(&JsonValue::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let base = load(&base)?;
    let new = load(&new)?;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "base median", "base IQR", "new median", "new IQR", "wins"
    );
    let mut regressed = false;
    for ((workload, metric), base_values) in &base {
        let Some(rule) = rules.iter().find(|r| &r.name == metric) else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<16} {metric:<16} missing from the new runs");
            regressed = true;
            continue;
        };
        let c = compare(rule, base_values, new_values);
        regressed |= c.verdict == Verdict::Regressed;
        println!(
            "{workload:<16} {metric:<16} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>5.0}%  {}",
            c.base.1,
            c.base.2 - c.base.0,
            c.new.1,
            c.new.2 - c.new.0,
            c.win_fraction * 100.0,
            match c.verdict {
                Verdict::Improved => "improved",
                Verdict::NoWorse => "no worse",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn same_distribution_is_no_worse() {
        let runs = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let shuffled = [
            99.9, 100.1, 100.0, 99.5, 101.0, 99.8, 100.2, 100.5, 99.0, 100.0,
        ];
        assert_eq!(
            compare(&rule(true, 0.1), &runs, &shuffled).verdict,
            Verdict::NoWorse
        );
    }

    #[test]
    fn consistent_large_gain_is_improved_in_either_direction() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let faster: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let c = compare(&rule(true, 0.1), &base, &faster);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.win_fraction, 1.0);
        let lower: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            compare(&rule(false, 0.1), &base, &lower).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let slower: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            compare(&rule(true, 0.1), &base, &slower).verdict,
            Verdict::Regressed
        );
        // A 5% loss stays within a 10% bound.
        let slightly: Vec<f64> = base.iter().map(|v| v * 0.95).collect();
        assert_eq!(
            compare(&rule(true, 0.1), &base, &slightly).verdict,
            Verdict::NoWorse
        );
        // Lower-is-better: a 30% rise regresses.
        let higher: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            compare(&rule(false, 0.1), &base, &higher).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn noisy_base_is_unresolved_unless_every_new_run_is_better() {
        let base = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let slower: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            compare(&rule(true, 0.1), &base, &slower).verdict,
            Verdict::Unresolved
        );
        let far_better = [400.0; 10];
        assert_eq!(
            compare(&rule(true, 0.1), &base, &far_better).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = [1.0; 10];
        let c = compare(&rule(true, 0.1), &same, &same);
        assert_eq!(c.win_fraction, 0.0);
        assert_eq!(c.verdict, Verdict::NoWorse);
    }
}
