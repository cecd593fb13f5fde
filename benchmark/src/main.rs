//! Layered end-to-end benchmark of the RISPP workspace.
//!
//! ```text
//! benchmark --workload fig7|faults-tenants|observed|serve-mix|all
//!           [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]
//!           [--out FILE] [--smoke]
//! benchmark compare [--spec BENCHMARK.json] BASE.json... -- NEW.json...
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is the one-line verdict (`correct`, `attempted`,
//! `failed`, `metrics`). `--trace 1` replays the workload through timing
//! shims and reports the per-layer split instead of the end-to-end
//! metrics. The exit code is 0 only when every correctness gate passed.
//! See `README.md` beside this crate for the workloads and metrics.

mod compare;
mod layers;
mod report;
mod serve_mix;
mod speed;
mod stats;
mod sweeps;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rispp_h264::{Encoder, EncoderConfig, EncoderWorkload, FrameReport};

use crate::layers::Tracer;
use crate::report::Outcome;
use crate::speed::HostSpeed;
use crate::stats::{median, Summary};

const USAGE: &str = "usage: benchmark --workload fig7|faults-tenants|observed|serve-mix|all \
[--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]\n       \
benchmark compare [--spec BENCHMARK.json] BASE.json... -- NEW.json...";

const WORKLOADS: [&str; 4] = ["fig7", "faults-tenants", "observed", "serve-mix"];

/// Settings that would silently change what is measured.
const REFUSED_ENV: [&str; 3] = ["RISPP_THREADS", "RISPP_PLAN_CACHE", "RISPP_KERNEL_TIER"];

/// The seed the committed records and pins were made with.
const DEFAULT_SEED: u64 = 2008;

/// Speed samples taken right before and right after each set-up.
const SAMPLES_AROUND_SETUP: usize = 4;

/// One run's settings plus the span recorder of a traced run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time; sizes pass counts and serve phases.
    pub seconds: u64,
    /// Tiny inputs and one pass, for tests.
    pub smoke: bool,
    /// Span recorder; `Some` in the traced run.
    pub tracer: Option<Tracer>,
    /// The host's speed, sampled around and inside every set-up and
    /// before every timed pass.
    pub speed: HostSpeed,
    /// Each set-up's measured seconds and the host's median slowdown over
    /// it.
    pub setups: Vec<(f64, f64)>,
}

impl Ctx {
    /// Whether this is the traced run.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Whether the committed cycle pins apply (seed 2008, full size).
    #[must_use]
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }

    /// Timed passes for a workload that runs `per_10s` passes in 10 s. A
    /// fixed function of `--seconds`, so both sides of a comparison do the
    /// same work.
    #[must_use]
    pub fn passes(&self, per_10s: usize) -> usize {
        if self.smoke {
            return 1;
        }
        let seconds = usize::try_from(self.seconds).unwrap_or(usize::MAX);
        (per_10s.saturating_mul(seconds) / 10).max(2)
    }

    /// The paper's CIF encoder over the seeded synthetic video (64x48 in
    /// smoke runs).
    #[must_use]
    pub fn encoder(&self, frames: u32) -> EncoderConfig {
        let mut config = EncoderConfig::paper_cif();
        config.frames = frames;
        config.seed = self.seed;
        if self.smoke {
            config.width = 64;
            config.height = 48;
        }
        config
    }

    /// Opens a span in the traced run.
    pub fn open(&mut self, name: &'static str, job: u64) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.open(name, job))
    }

    /// Closes a span opened with [`Ctx::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.close(id);
        }
    }

    /// Runs set-up `reps` times, recording each repetition in
    /// [`Ctx::setups`], and returns the last result. The host's speed is
    /// sampled before and after each repetition and inside it wherever
    /// the set-up samples it; time spent sampling inside is left out.
    pub fn timed_setup<T>(&mut self, reps: usize, mut setup: impl FnMut(&mut Ctx) -> T) -> T {
        let mut last = None;
        for rep in 0..reps {
            let around = self.speed.mark();
            self.sample_speed(SAMPLES_AROUND_SETUP);
            let inside = self.speed.mark();
            let span = self.open("setup", rep as u64);
            let started = Instant::now();
            last = Some(setup(self));
            let elapsed = started.elapsed() - self.speed.spent_since(inside);
            self.close(span);
            self.sample_speed(SAMPLES_AROUND_SETUP);
            let slowdown = median(self.speed.since(around));
            self.setups.push((elapsed.as_secs_f64(), slowdown));
        }
        last.expect("at least one set-up")
    }

    fn sample_speed(&mut self, samples: usize) {
        for _ in 0..samples {
            self.speed.sample();
        }
    }

    /// Reports `setup_s`: the median set-up at the reference speed, each
    /// repetition divided by the host's slowdown during it.
    pub fn report_setup(&self, o: &mut Outcome) {
        let measured: Vec<f64> = self.setups.iter().map(|&(s, _)| s).collect();
        let reference: Vec<f64> = self
            .setups
            .iter()
            .map(|&(s, slowdown)| s / slowdown)
            .collect();
        o.set("setup_s", median(&reference), Some(Summary::of(&reference)));
        o.note_metric(
            "measured_setup_s",
            "s",
            median(&measured),
            Some(Summary::of(&measured)),
        );
    }

    /// Encodes `config.frames` frames one at a time and converts them
    /// into a trace, sampling the host's speed between frames.
    pub fn encode(&mut self, config: &EncoderConfig) -> (Vec<FrameReport>, EncoderWorkload) {
        let mut encoder = Encoder::new(*config);
        let reports: Vec<FrameReport> = (0..config.frames)
            .map(|i| {
                self.speed.sample();
                let span = self.open("h264.encode_frame", u64::from(i));
                let report = encoder.encode_next_frame();
                self.close(span);
                report
            })
            .collect();
        let span = self.open("h264.to_trace", 0);
        let workload = EncoderWorkload::from_reports(config, &reports);
        self.close(span);
        (reports, workload)
    }
}

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: "all".into(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
            trace_dir: PathBuf::from("target/benchmark"),
            out: None,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                o.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => o.workload = value.clone(),
                "--seed" => o.seed = number()?,
                "--seconds" => o.seconds = number()?.max(1),
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--trace-dir" => o.trace_dir = PathBuf::from(value),
                "--out" => o.out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown option {other}")),
            }
        }
        if o.workload != "all" && !WORKLOADS.contains(&o.workload.as_str()) {
            return Err(format!("unknown workload `{}`", o.workload));
        }
        Ok(o)
    }

    /// The arguments that reproduce these options for one workload.
    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut args = vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
            "--trace-dir".into(),
            self.trace_dir.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".into());
        }
        args
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let options = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "error: {var} is set; unset it so the benchmark measures the default configuration"
        );
        return ExitCode::from(2);
    }
    if options.workload == "all" {
        run_all(&options)
    } else {
        run_one(&options)
    }
}

/// Runs one workload in this process.
fn run_one(options: &Options) -> ExitCode {
    let mut ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        smoke: options.smoke,
        tracer: options.trace.then(Tracer::new),
        speed: HostSpeed::default(),
        setups: Vec::new(),
    };
    let run: fn(&mut Ctx) -> Outcome = match options.workload.as_str() {
        "fig7" => sweeps::fig7,
        "faults-tenants" => sweeps::faults_tenants,
        "observed" => sweeps::observed,
        _ => serve_mix::serve_mix,
    };
    let mut outcome = run(&mut ctx);
    if !options.trace {
        if !outcome.metrics.iter().any(|m| m.name == "peak_rss_mb") {
            outcome.set("peak_rss_mb", peak_rss_mb(), None);
        }
        let slowdown = Summary::of(ctx.speed.all());
        outcome.note_metric("host.slowdown", "ratio", slowdown.median, Some(slowdown));
    }
    if let Some(tracer) = &ctx.tracer {
        let path = options
            .trace_dir
            .join(format!("trace-{}-{}.json", outcome.workload, options.seed));
        let written = std::fs::create_dir_all(&options.trace_dir).and_then(|()| {
            std::fs::write(
                &path,
                tracer.chrome_json(&format!("benchmark {}", outcome.workload)),
            )
        });
        match written {
            Ok(()) => outcome
                .notes
                .push(format!("chrome trace: {}", path.display())),
            Err(e) => outcome
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    let host = host_fingerprint();
    println!("{} host {host}", outcome.workload);
    outcome.print();
    let record = outcome.to_json();
    println!("result {record}");
    if let Some(path) = &options.out {
        if let Err(e) = write_results(path, options, &host, &[record]) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    match outcome.verdict_line() {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload in its own child process (so each one's peak
/// memory is its own) and prints each one's verdict; succeeds only if
/// every workload did.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut records = Vec::new();
    let mut verdicts = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(options.child_args(workload))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let verdict = lines.pop().unwrap_or_default();
        for line in &lines {
            match line.strip_prefix("result ") {
                Some(record) => records.push(record.to_string()),
                None => println!("{line}"),
            }
        }
        all_ok &= output.status.success();
        verdicts.push((workload, verdict.to_string()));
    }
    if let Some(path) = &options.out {
        if let Err(e) = write_results(path, options, &host_fingerprint(), &records) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    for (workload, verdict) in &verdicts {
        println!("{workload} verdict {verdict}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_results(
    path: &PathBuf,
    options: &Options,
    host: &str,
    records: &[String],
) -> Result<(), String> {
    let json = format!(
        "{{\"benchmark\":\"rispp\",\"seed\":{},\"seconds\":{},\"smoke\":{},\"host\":{host},\"workloads\":[\n{}\n]}}\n",
        options.seed,
        options.seconds,
        options.smoke,
        records.join(",\n")
    );
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine and toolchain the numbers were measured on, as JSON.
fn host_fingerprint() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let head = read(".git/HEAD");
    let head = head.trim();
    let git = match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).trim().to_string(),
        None => head.to_string(),
    };
    let mut out = String::from("{");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&format!("\"nproc\":{nproc}"));
    for (key, value) in [
        ("cpu", cpu.as_str()),
        ("kernel", read("/proc/sys/kernel/osrelease").trim()),
        ("rustc", rustc.as_str()),
        (
            "git_head",
            if git.is_empty() {
                "unknown"
            } else {
                git.as_str()
            },
        ),
    ] {
        out.push_str(&format!(",\"{key}\":\""));
        rispp_telemetry::escape_json_into(value, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_reject_bad_input() {
        let parse =
            |args: &[&str]| Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "fig8"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "ten"]).is_err());
        let o = parse(&["--workload", "serve-mix", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.trace, o.seconds),
            ("serve-mix", 7, true, 10)
        );
    }

    #[test]
    fn pass_counts_scale_with_seconds() {
        let ctx = |seconds, smoke| Ctx {
            seed: 1,
            seconds,
            smoke,
            tracer: None,
            speed: HostSpeed::default(),
            setups: Vec::new(),
        };
        assert_eq!(ctx(10, false).passes(8), 8);
        assert_eq!(ctx(20, false).passes(8), 16);
        assert_eq!(ctx(1, false).passes(8), 2);
        assert_eq!(ctx(10, true).passes(8), 1);
    }
}
