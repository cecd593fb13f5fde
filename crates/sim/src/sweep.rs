//! Parallel sweep runner: fans independent simulation jobs across OS
//! threads with deterministic, input-ordered result collection.
//!
//! The paper's evaluation (Figure 7 and the ablations) sweeps the same
//! trace over many `(containers, scheduler, forecast, bandwidth)`
//! configurations. Each job is a pure function of its [`SimConfig`] and
//! trace, so the sweep parallelises trivially: a shared atomic work-queue
//! index hands jobs to `std::thread::scope` workers, each worker collects
//! `(index, result)` pairs locally, and the results are merged back into
//! input order afterwards. No locks are held while simulating and the
//! output is bit-identical to the sequential loop regardless of thread
//! count or scheduling interleavings.
//!
//! Thread count resolution order:
//!
//! 1. [`SweepRunner::with_threads`] — explicit, for tests and benches;
//! 2. the `RISPP_THREADS` environment variable (clamped to ≥ 1);
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

use rispp_core::PlanCacheHandle;
use rispp_model::SiLibrary;

use crate::engine::{simulate_observed_planned, SimConfig};
use crate::observer::SimObserver;
use crate::stats::RunStats;
use crate::trace::Trace;

/// Environment variable overriding the sweep worker count.
pub const THREADS_ENV: &str = "RISPP_THREADS";

/// One unit of sweep work: a simulation configuration applied to a trace.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob<'t> {
    /// Simulation parameters.
    pub config: SimConfig,
    /// The trace to replay.
    pub trace: &'t Trace,
}

impl<'t> SweepJob<'t> {
    /// Creates a job.
    #[must_use]
    pub fn new(config: SimConfig, trace: &'t Trace) -> Self {
        SweepJob { config, trace }
    }
}

/// Work-queue runner for embarrassingly parallel sweeps.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    /// Optional cross-job plan cache: jobs memoise planning decisions into
    /// one shared [`rispp_core::PlanCache`]. Results stay bit-identical at
    /// any thread count — a verified hit replays exactly what the planner
    /// would have produced — sharing only changes how often the planner
    /// actually runs.
    plan_cache: Option<PlanCacheHandle>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepRunner {
    /// Creates a runner with the worker count resolved from
    /// [`THREADS_ENV`], falling back to the machine's available
    /// parallelism. Unparseable or zero values of the variable are
    /// ignored/clamped to 1.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => n.max(1),
                Err(_) => Self::machine_parallelism(),
            },
            Err(_) => Self::machine_parallelism(),
        };
        SweepRunner {
            threads,
            plan_cache: None,
        }
    }

    /// Creates a runner with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            plan_cache: None,
        }
    }

    /// Attaches a cross-job plan cache (builder style): every job of this
    /// runner memoises into `handle`'s cache instead of a private per-run
    /// one. Jobs whose [`SimConfig::plan_cache`] is off ignore it.
    #[must_use]
    pub fn with_plan_cache(mut self, handle: PlanCacheHandle) -> Self {
        self.plan_cache = Some(handle);
        self
    }

    /// The cross-job plan cache, if one was attached.
    #[must_use]
    pub fn plan_cache(&self) -> Option<&PlanCacheHandle> {
        self.plan_cache.as_ref()
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn machine_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Runs `f(0..count)` across the workers and returns the results in
    /// index order. `f` must be a pure function of its index — the runner
    /// guarantees every index is evaluated exactly once, but on an
    /// unspecified worker.
    pub fn run_map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(count.max(1));
        if workers <= 1 {
            return (0..count).map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });

        // Merge the per-worker batches back into input order.
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for batch in &mut collected {
            for (i, result) in batch.drain(..) {
                debug_assert!(slots[i].is_none(), "index {i} produced twice");
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index evaluated"))
            .collect()
    }

    /// Simulates every job against `library`, in parallel, returning the
    /// statistics in job order.
    ///
    /// # Panics
    ///
    /// Panics if a trace references SIs outside `library` (propagated from
    /// [`simulate`](crate::simulate)).
    #[must_use]
    pub fn run(&self, library: &SiLibrary, jobs: &[SweepJob<'_>]) -> Vec<RunStats> {
        self.run_map(jobs.len(), |i| {
            let job = &jobs[i];
            simulate_observed_planned(
                library,
                job.trace,
                &job.config,
                self.plan_cache.as_ref(),
                &mut [],
            )
            .0
        })
    }

    /// Like [`SweepRunner::run`], but attaches per-job observers built by
    /// `observers(job_index)` — e.g. a fresh
    /// [`ProgressObserver`](crate::ProgressObserver) per job sharing one
    /// atomic counter across the sweep.
    ///
    /// The factory is invoked on the worker that executes the job; the
    /// boxes it returns live and die on that worker, so the observers
    /// themselves need not be `Send`. The [`RunStats`] results are
    /// unaffected by observers and remain bit-identical to
    /// [`SweepRunner::run`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if a trace references SIs outside `library` (propagated from
    /// [`simulate`](crate::simulate)).
    #[must_use]
    pub fn run_observed<'s, F>(
        &self,
        library: &SiLibrary,
        jobs: &[SweepJob<'_>],
        observers: F,
    ) -> Vec<RunStats>
    where
        F: Fn(usize) -> Vec<Box<dyn SimObserver + 's>> + Sync,
    {
        self.run_map(jobs.len(), |i| {
            let job = &jobs[i];
            let mut boxes = observers(i);
            let mut extra: Vec<&mut (dyn SimObserver + 's)> =
                boxes.iter_mut().map(|b| b.as_mut()).collect();
            simulate_observed_planned(
                library,
                job.trace,
                &job.config,
                self.plan_cache.as_ref(),
                &mut extra,
            )
            .0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert_eq!(SweepRunner::with_threads(7).threads(), 7);
    }

    #[test]
    fn run_map_preserves_input_order() {
        for threads in [1, 2, 8] {
            let runner = SweepRunner::with_threads(threads);
            let out = runner.run_map(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_map_handles_empty_and_tiny_inputs() {
        let runner = SweepRunner::with_threads(8);
        assert!(runner.run_map(0, |i| i).is_empty());
        assert_eq!(runner.run_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let runner = SweepRunner::with_threads(64);
        assert_eq!(runner.run_map(3, |i| i), vec![0, 1, 2]);
    }
}
