//! `rispp-cli` — command-line interface to the RISPP run-time system.
//!
//! Subcommands: `inventory`, `schedule`, `simulate`, `reproduce`,
//! `profile`, `contend`, `check-trace`, `forensics`, `serve`, `submit`.
//! Run `rispp-cli help` for details.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod experiments;
mod report;
mod reproduce;
mod serving;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("inventory") => commands::inventory(&argv[1..]),
        Some("schedule") => commands::schedule(&argv[1..]),
        Some("simulate") => commands::simulate(&argv[1..]),
        Some("reproduce") => reproduce::reproduce(&argv[1..]),
        Some("profile") => commands::profile(&argv[1..]),
        Some("contend") => commands::contend(&argv[1..]),
        Some("check-trace") => commands::check_trace(&argv[1..]),
        Some("forensics") => commands::forensics(&argv[1..]),
        Some("serve") => serving::serve(&argv[1..]),
        Some("submit") => serving::submit(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n");
            eprint!("{}", HELP);
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
rispp-cli — run-time system for an extensible embedded processor (DATE'08)

USAGE:
    rispp-cli <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    inventory [--molecules]
        Print the H.264 SI library (paper Table 1); with --molecules also
        every Molecule's atom vector and latency.

    schedule [--acs N] [--scheduler KIND]
        Compute and print the Atom loading sequence for a representative
        Encoding-Engine hot spot on a cold fabric.

    simulate [--frames N] [--acs N] [--system KIND] [--oracle]
             [--bandwidth MBPS] [--fault-rate R] [--fault-seed S]
             [--max-retries N] [--csv] [--log-events PATH]
             [--metrics-out PATH] [--trace-out PATH] [--explain]
        Encode synthetic CIF video and replay the workload on one system.
        KIND: hef | asf | fsfr | sjf | molen | onechip | software.
        --fault-rate R (in [0, 1]) enables seeded fault injection: CRC
        load aborts, SEU corruption of loaded Atoms and permanent Atom
        Container failures, all healed by the run-time manager.
        --log-events streams the typed event log as JSONL (write-through).
        --metrics-out writes cycle-domain metrics as JSON (or Prometheus
        text when PATH ends in .prom/.txt); --trace-out writes a Chrome
        trace-event JSON timeline for https://ui.perfetto.dev; --explain
        prints every run-time decision with all scored candidates.

    reproduce EXPERIMENT [--frames N] [--json PATH]
        Regenerate one table or figure of the paper's evaluation:
          fig2 [--frames N]     ME with vs. without stepwise upgrade (4)
          fig4, fig5            the toy schedules and upgrade paths
          fig7 [--frames N] [--json PATH]
                                Figure 7 and Table 2: the scheduler sweep
                                over 5..=24 ACs (140); --json writes its
                                simulated-cycle pin
          fig8                  HEF detail at 10 ACs
          table1, table3        SI inventory; HEF hardware and FSM timing
          ablations [--frames N]
                                forecast policy and port bandwidth (30)
          resilience [--frames N] [--json PATH]
                                HEF speedup vs. fault rate with the
                                self-healing counters (20); exits 1 unless
                                the curve degrades gracefully
          generality            the AES gateway and the audio filterbank:
                                the run-time system beyond video
        Defaults in parentheses are frame counts.

    profile [--frames N] [--acs N] [--system KIND] [--metrics-out PATH]
            [--trace-out PATH]
        Run one telemetry-enabled simulation and print a cycle-domain
        profile: per-SI cycles and hardware share, per-container
        load/ready/idle time, reconfiguration-port pressure.

    contend [--frames N] [--apps K] [--from N] [--to N] [--scheduler KIND]
            [--arbitration rr|interleaved] [--csv] [--json [PATH]]
        Multi-application contention sweep: K phase-shifted encoder
        instances share one fabric across a container range, comparing
        the `shared` policy (cross-app Atom reuse, contention-aware
        eviction) against hard `partitioned` quotas. --json prints (or,
        with PATH, writes) the benchmark document.

    check-trace --file PATH
        Validate a --trace-out document: well-formed Chrome trace-event
        JSON with container tracks and scheduler decision events.

    forensics --file PATH
        Load a flight-recorder diagnostic bundle spilled by the serve
        daemon (`serve --flight-dir`) and render the causal chain behind
        the failure: admission identity, plan-cache state, retained
        scheduler decisions, fabric journal and event-tail statistics.

    serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
          [--deadline-ms MS] [--poison-threshold N] [--max-attempts N]
          [--cache-capacity N] [--metrics-out PATH] [--flight-dir DIR]
          [--flight-events N]
        Run the persistent job-server daemon: simulation jobs arrive as
        newline-delimited JSON over TCP, execute on a crash-isolated
        worker pool and return RunStats bit-identical to `simulate`.
        Backpressure (bounded queue), per-job deadlines, panic
        quarantine, warm trace caching, Prometheus metrics over the
        `metrics` op. SIGTERM drains gracefully: admission stops, every
        admitted job finishes, then the daemon exits 0. --flight-dir
        arms a per-job flight recorder that spills a diagnostic bundle
        (readable with `forensics`) on timeout, retry exhaustion or
        poison-listing; --flight-events sets its ring capacity.

    submit --addr HOST:PORT [--frames N] [--acs N | --from N --to N]
           [--scheduler KIND] [--repeat K] [--fault-rate R]
           [--fault-seed S] [--max-retries N] [--deadline-ms MS]
           [--chaos-panics N] [--compare-local] [--shutdown] [--health]
        Submit a fig7-shaped batch (one job per container count) to a
        running daemon and print each outcome. --compare-local re-runs
        every completed job through the batch path and verifies the
        returned stats are bit-identical; --shutdown asks the daemon to
        drain afterwards; --health just probes readiness.

    help
        Show this message.

ENVIRONMENT:
    RISPP_THREADS=N
        Worker threads for `reproduce`'s sweeps (default: all cores).
";
