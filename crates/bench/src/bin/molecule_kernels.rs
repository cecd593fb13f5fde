//! Micro-benchmarks the [`Molecule`] lattice kernels twice per (op,
//! arity): on bare count slices (`rispp_model::kernels`) and through the
//! public `Molecule` call that runs the same kernel. The gap between the
//! two columns is what the `Molecule` wrapper costs: the arity check and,
//! for the zip ops, building the result Molecule.
//!
//! Times the zip kernels (`union`, `residual`) and the fused reductions
//! (`total_atoms`, `union_atoms`, `residual_atoms`) at arities 4/8/16/32
//! (the inline small-buffer range). With `--json` the results are written
//! as a record (default `BENCH_kernels.json`), so the kernel-level cost is
//! tracked separately from end-to-end sweep throughput.
//!
//! Usage: `molecule_kernels [iterations] [--json [PATH]]`

use std::hint::black_box;
use std::time::Instant;

use rispp_model::{kernels, Molecule};

/// Deterministic xorshift so every run benches identical inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Atom counts in `0..48`, the realistic per-SI demand range.
    fn counts(&mut self, arity: usize) -> Vec<u16> {
        (0..arity).map(|_| (self.next() % 48) as u16).collect()
    }
}

/// Times `f` over `iters` iterations (after a 10% warmup) and returns
/// nanoseconds per call.
fn bench_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Per-(op, arity) nanoseconds on slices and through `Molecule`.
struct Record {
    op: &'static str,
    arity: usize,
    kernel_ns: f64,
    molecule_ns: f64,
}

fn record(
    op: &'static str,
    arity: usize,
    iters: u32,
    kernel: impl FnMut(),
    molecule: impl FnMut(),
) -> Record {
    Record {
        op,
        arity,
        kernel_ns: bench_ns(iters, kernel),
        molecule_ns: bench_ns(iters, molecule),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters: u32 = 200_000;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            let path = args.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
            if path.is_some() {
                i += 1;
            }
            json_path = Some(path.unwrap_or_else(|| "BENCH_kernels.json".to_string()));
        } else if let Ok(n) = args[i].parse() {
            iters = n;
        } else {
            eprintln!("usage: molecule_kernels [iterations] [--json [PATH]]");
            std::process::exit(2);
        }
        i += 1;
    }

    let mut rng = Rng(0x5eed_cafe_f00d_d00d);
    let mut records = Vec::new();
    for &arity in &[4usize, 8, 16, 32] {
        let a = rng.counts(arity);
        let b = rng.counts(arity);
        let ma = Molecule::from_counts(a.iter().copied());
        let mb = Molecule::from_counts(b.iter().copied());
        let mut out = vec![0u16; arity];

        // The zip ops are timed on the `_into` kernels: the `Molecule`
        // call writes into a fresh inline Molecule, so neither side
        // allocates.
        records.push(record(
            "union",
            arity,
            iters,
            || kernels::union_into(black_box(&a), black_box(&b), black_box(&mut out)),
            || {
                black_box(black_box(&ma).union(black_box(&mb)));
            },
        ));
        records.push(record(
            "residual",
            arity,
            iters,
            || kernels::residual_into(black_box(&a), black_box(&b), black_box(&mut out)),
            || {
                black_box(black_box(&ma).residual(black_box(&mb)));
            },
        ));
        records.push(record(
            "total_atoms",
            arity,
            iters,
            || {
                black_box(kernels::total_atoms(black_box(&a)));
            },
            || {
                black_box(black_box(&ma).total_atoms());
            },
        ));
        // The fused reductions are what the selector/scheduler hot paths
        // actually call per candidate — no result molecule is
        // materialised on either side.
        records.push(record(
            "union_atoms",
            arity,
            iters,
            || {
                black_box(kernels::union_atoms(black_box(&a), black_box(&b)));
            },
            || {
                black_box(black_box(&ma).union_atoms(black_box(&mb)));
            },
        ));
        records.push(record(
            "residual_atoms",
            arity,
            iters,
            || {
                black_box(kernels::residual_atoms(black_box(&a), black_box(&b)));
            },
            || {
                black_box(black_box(&ma).residual_atoms(black_box(&mb)));
            },
        ));
    }

    println!(
        "{:<14} {:>6} {:>10} {:>12}",
        "op", "arity", "kernel_ns", "molecule_ns"
    );
    for r in &records {
        println!(
            "{:<14} {:>6} {:>10.2} {:>12.2}",
            r.op, r.arity, r.kernel_ns, r.molecule_ns
        );
    }

    if let Some(path) = json_path {
        let body: Vec<String> = records
            .iter()
            .map(|r| {
                format!(
                    "    {{\"op\": \"{}\", \"arity\": {}, \"kernel_ns\": {:.2}, \"molecule_ns\": {:.2}}}",
                    r.op, r.arity, r.kernel_ns, r.molecule_ns
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"benchmark\": \"molecule_kernels\",\n  \"iterations\": {iters},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        );
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
