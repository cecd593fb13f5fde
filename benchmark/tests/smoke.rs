//! Every workload at smoke size (64x48 encoder, one pass, short serve
//! phases), untraced and traced, through the benchmark binary: each must
//! pass its correctness gates and end with a verdict line carrying
//! exactly its metric catalogue.

use std::process::Command;

use rispp_telemetry::JsonValue;

fn verdict(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--trace-dir",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    JsonValue::parse(stdout.lines().last().expect("a verdict line")).expect("the verdict is JSON")
}

#[test]
fn every_workload_passes_its_gates_untraced_and_traced() {
    for workload in ["fig7", "faults-tenants", "observed", "serve-mix"] {
        for (trace, metrics) in [(false, 4), (true, 39)] {
            let v = verdict(workload, trace);
            assert_eq!(
                v.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                v.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(
                v.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0) >= 1,
                "{workload}"
            );
            let m = v
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics object");
            assert_eq!(m.len(), metrics, "{workload} (trace {trace})");
            for (name, x) in m {
                let value = x.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                // Only shares and counts may read 0: every workload runs
                // every timed layer.
                let unit = x.get("unit").and_then(JsonValue::as_str);
                if matches!(unit, Some("us" | "ns" | "s" | "jobs/s" | "MB")) {
                    assert!(value.unwrap_or(0.0) > 0.0, "{workload} {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn compare_reads_results_files() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let files: Vec<String> = (0..2).map(|i| format!("{dir}/compare-{i}.json")).collect();
    for file in &files {
        let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["--workload", "faults-tenants", "--smoke", "--out", file])
            .output()
            .expect("the benchmark binary runs")
            .status;
        assert!(status.success());
    }
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["compare", "--spec", spec, &files[0], "--", &files[1]])
        .output()
        .expect("compare runs");
    // Two tiny runs may differ by more than a bound: either verdict is a
    // valid reading, but every end-to-end metric must get a row.
    assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
    let table = String::from_utf8(out.stdout).expect("UTF-8 output");
    for metric in ["setup_s", "jobs_per_s", "latency_p50_us", "peak_rss_mb"] {
        assert!(
            table
                .lines()
                .any(|l| l.starts_with("faults-tenants") && l.contains(metric)),
            "{table}"
        );
    }
}

#[test]
fn unset_tuning_variables_are_required() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "fig7", "--smoke"])
        .env("RISPP_THREADS", "2")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no verdict when refusing to run");
}
