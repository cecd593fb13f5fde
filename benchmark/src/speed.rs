//! The host's speed, measured beside the work.
//!
//! A shared host runs the same binary up to 2 times slower for minutes at
//! a stretch as its neighbours load it, longer than one run lasts, so no
//! choice of repeats or medians inside a run removes it. Most of that
//! slowdown comes from whoever shares the physical core: it takes
//! execution ports and cache from code that keeps several operations in
//! flight, as the simulator, the exporters and the request path do, and
//! hardly slows a single dependent chain of operations. So the probe here
//! is ordinary throughput-bound integer code in three parts: eight
//! independent multiply-rotate-xor chains, lookups in a 16 384-entry
//! `HashMap`, and numbers formatted into a growing `String`.
//!
//! Chosen by experiment on a 2-vCPU Xeon: 18 minutes of 0.1-0.3 s rounds
//! interleaving three workloads (a sweep, a faulty replay, a replay with
//! telemetry and exports) with candidate probes, while the workloads'
//! speed swung 1.5-1.8x. A single dependent chain correlated with the
//! workloads at 0.41-0.65, each of these parts at 0.87-0.99, an 8 MB copy
//! and random updates of an 8 MB table at 0.56-0.69. Read against the
//! blend (the first half had no formatting part), the workloads' quartile
//! spread over pseudo-runs of 10-22 rounds was 3-8%, against 5-38% as
//! measured.
//!
//! A sample's **slowdown** is the mean over the parts of each part's time
//! over its time at the reference speed, the fastest the part ran on that
//! host. The benchmark reports its CPU-bound times as they would read at
//! the reference speed, and records the measured values beside them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the eight chains per sample.
const CHAIN_ITERS: u64 = 250_000;
/// Nanoseconds per iteration of the eight chains at the reference speed.
const CHAIN_REFERENCE_NS: f64 = 3.0;
/// Lookups per sample.
const LOOKUPS: u64 = 50_000;
/// Nanoseconds per lookup at the reference speed.
const LOOKUP_REFERENCE_NS: f64 = 18.5;
/// Entries in the looked-up map (a power of two).
const MAP_ENTRIES: u64 = 1 << 14;
/// Formatted records per sample.
const FORMATS: u64 = 8_000;
/// Nanoseconds per formatted record at the reference speed.
const FORMAT_REFERENCE_NS: f64 = 95.0;

/// Every speed sample of one run, in order.
#[derive(Debug)]
pub struct HostSpeed {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    slowdowns: Vec<f64>,
    spent: Duration,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            map: (0..MAP_ENTRIES).map(|k| (k, k.wrapping_mul(3))).collect(),
            slowdowns: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

/// A point in a run's sample record.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    samples: usize,
    spent: Duration,
}

impl HostSpeed {
    /// Times one sample of the probe (about 2.5 ms at the reference
    /// speed).
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(chains(black_box(CHAIN_ITERS)));
        let chained = started.elapsed();
        black_box(lookups(&self.map, black_box(LOOKUPS)));
        let looked_up = started.elapsed();
        black_box(format_records(black_box(FORMATS)));
        let formatted = started.elapsed();
        self.spent += formatted;
        let parts = [
            (chained, CHAIN_ITERS, CHAIN_REFERENCE_NS),
            (looked_up - chained, LOOKUPS, LOOKUP_REFERENCE_NS),
            (formatted - looked_up, FORMATS, FORMAT_REFERENCE_NS),
        ];
        let slowdown: f64 = parts
            .iter()
            .map(|&(took, n, reference_ns)| took.as_nanos() as f64 / (n as f64 * reference_ns))
            .sum();
        self.slowdowns.push(slowdown / parts.len() as f64);
    }

    /// The current end of the record.
    #[must_use]
    pub fn mark(&self) -> Mark {
        Mark {
            samples: self.slowdowns.len(),
            spent: self.spent,
        }
    }

    /// The slowdown of every sample taken since `mark`.
    #[must_use]
    pub fn since(&self, mark: Mark) -> &[f64] {
        &self.slowdowns[mark.samples..]
    }

    /// Time spent sampling since `mark`, to leave out of an interval the
    /// samples ran inside.
    #[must_use]
    pub fn spent_since(&self, mark: Mark) -> Duration {
        self.spent - mark.spent
    }

    /// Every sample of the run.
    #[must_use]
    pub fn all(&self) -> &[f64] {
        &self.slowdowns
    }
}

/// The smallest of `slowdowns`: the host's least-disturbed moment.
#[must_use]
pub fn fastest(slowdowns: &[f64]) -> f64 {
    slowdowns.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Eight independent multiply-rotate-xor chains: each step waits only on
/// its own chain, so the core issues them as fast as its ports allow.
fn chains(iters: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..iters {
        for (j, v) in x.iter_mut().enumerate() {
            *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ (i + j as u64);
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// `n` JSON-like records with an integer and a float, appended to one
/// `String`.
fn format_records(n: u64) -> usize {
    let mut out = String::new();
    for i in 0..n {
        let _ = write!(out, "{{\"k{i}\":{},", i as f64 * 0.37);
    }
    out.len()
}

/// `n` lookups of xorshift-drawn keys, every one present.
fn lookups(map: &HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>, n: u64) -> u64 {
    let mut x = 0x1234_u64;
    let mut sum = 0u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(map.get(&(x & (MAP_ENTRIES - 1))).copied().unwrap_or(0));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_smallest_slowdown() {
        assert_eq!(fastest(&[3.0, 1.5, 9.0]), 1.5);
    }

    #[test]
    fn marks_split_the_record() {
        let mut speed = HostSpeed::default();
        speed.sample();
        let mark = speed.mark();
        assert!(speed.since(mark).is_empty());
        assert_eq!(speed.spent_since(mark), Duration::ZERO);
        speed.sample();
        speed.sample();
        assert_eq!(speed.since(mark).len(), 2);
        assert_eq!(speed.all().len(), 3);
        assert!(speed.spent_since(mark) > Duration::ZERO);
        assert!(speed.since(mark).iter().all(|&s| s > 0.0 && s.is_finite()));
    }

    #[test]
    fn records_are_formatted_in_full() {
        assert_eq!(format_records(2), r#"{"k0":0,{"k1":0.37,"#.len());
    }

    #[test]
    fn every_lookup_hits() {
        let speed = HostSpeed::default();
        let n = 1_000;
        let mut x = 0x1234_u64;
        let mut want = 0u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            want = want.wrapping_add((x & (MAP_ENTRIES - 1)).wrapping_mul(3));
        }
        assert_eq!(lookups(&speed.map, n), want);
    }
}
