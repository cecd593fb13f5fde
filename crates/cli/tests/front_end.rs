//! The `rispp-cli` binary as a user runs it: `reproduce` is the front end
//! for the paper's experiments, and every subcommand refuses options it
//! does not take instead of running without them.

use std::process::{Command, Output};

use rispp_telemetry::JsonValue;

fn rispp_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rispp-cli"))
        .args(args)
        .env("RISPP_THREADS", "1")
        .output()
        .expect("spawn rispp-cli")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_misspelt_option_fails_and_is_named() {
    let out = rispp_cli(&["simulate", "--frames", "1", "--fault-rat", "0.5", "--csv"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("`--fault-rat`"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "the run must not start");
}

#[test]
fn an_unknown_experiment_fails_and_lists_the_valid_ones() {
    let out = rispp_cli(&["reproduce", "nope"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    for name in "fig2 fig4 fig5 fig7 fig8 table1 table3 ablations resilience generality".split(' ') {
        assert!(err.contains(name), "`{name}` missing from: {err}");
    }
}

#[test]
fn reproduce_prints_table1() {
    let out = rispp_cli(&["reproduce", "table1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("Table 1: implemented SIs"), "{stdout}");
}

#[test]
fn reproduce_fig7_writes_only_the_cycle_pin() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("front_end_fig7.json");
    let _ = std::fs::remove_file(&path);
    let out = rispp_cli(&[
        "reproduce",
        "fig7",
        "--frames",
        "1",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("Figure 7:") && stdout.contains("Table 2:"),
        "{stdout}"
    );

    let record = std::fs::read_to_string(&path).expect("fig7 --json writes its record");
    let record = JsonValue::parse(&record).expect("the record is JSON");
    let keys: Vec<&str> = record
        .as_object()
        .expect("the record is an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["benchmark", "frames", "jobs", "simulated_cycles"]);
    assert_eq!(record.get("frames").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(record.get("jobs").and_then(JsonValue::as_u64), Some(101));
}
