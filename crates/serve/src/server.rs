//! The job server: admission, worker pool, crash isolation, retry,
//! poisoning, deadlines and graceful drain.
//!
//! Lifecycle: [`Server::start`] spawns the worker pool (sized like a
//! [`rispp_sim::SweepRunner`] sweep by default) and the deadline
//! watchdog. [`Server::submit`] performs admission control — draining
//! and queue-full refusals are decided synchronously, *before* the job
//! touches any warm state — and hands back a [`JobTicket`] whose channel
//! delivers exactly one terminal [`JobOutcome`]. [`Server::drain`]
//! closes admission; already-admitted jobs still execute, so a drain
//! loses nothing that was ever acknowledged. [`Server::await_drained`]
//! joins the pool and the watchdog.
//!
//! Every job executes under `catch_unwind`: a panicking simulation is a
//! job failure, never a daemon failure. Panics retry with bounded
//! exponential backoff; repeated panics of the same config hash
//! quarantine that config on the poison list.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use rispp_core::{PlanCache, PlanCacheHandle};
use rispp_model::SiLibrary;
use rispp_sim::{
    simulate_observed_cancellable_shared, CancelCause, CancelToken, FlightRecorder, SimObserver,
    SweepRunner, Trace, TraceContext,
};
use rispp_telemetry::{MetricsRegistry, MetricsSnapshot};

use crate::cache::LruCache;
use crate::job::{
    check_detail_buckets, check_replayable, materialise_trace, validate_config, JobOutcome,
    JobSpec, JobStatus,
};
use crate::poison::PoisonList;
use crate::queue::{AdmissionQueue, PushError};
use crate::watchdog::DeadlineWatchdog;

/// Base retry backoff in milliseconds; doubles per attempt, capped at 2 s.
const RETRY_BACKOFF_MS: u64 = 10;

/// Latency-histogram bucket bounds in milliseconds.
const LATENCY_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000];

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; 0 resolves like a sweep
    /// ([`SweepRunner::from_env`]: `RISPP_THREADS` or the machine).
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Deadline applied to jobs that carry none (`None`: no default).
    pub default_deadline_ms: Option<u64>,
    /// Panics of one config hash before it is quarantined.
    pub poison_threshold: u32,
    /// Execution attempts per job (1 = no retry).
    pub max_attempts: u32,
    /// Warm-trace-cache capacity in entries.
    pub trace_cache_capacity: usize,
    /// Flight-recorder spill directory. `Some` attaches a bounded
    /// [`FlightRecorder`] to every job and dumps a diagnostic bundle
    /// there when a job terminally fails (panicked / poisoned /
    /// timeout). `None` (the default) disables forensics entirely —
    /// jobs then run with no extra observers attached.
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder event-ring capacity (events retained per job).
    pub flight_events: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: None,
            poison_threshold: 3,
            max_attempts: 3,
            trace_cache_capacity: 32,
            flight_dir: None,
            flight_events: 256,
        }
    }
}

struct QueuedJob {
    spec: JobSpec,
    submitted: Instant,
    /// Causal trace id minted at admission; stamps every attempt's
    /// [`TraceContext`] and names the job's flight bundle.
    trace_id: u64,
    token: CancelToken,
    respond: mpsc::Sender<JobOutcome>,
}

/// Handle to one admitted job.
pub struct JobTicket {
    /// Delivers exactly one terminal [`JobOutcome`].
    pub outcome: mpsc::Receiver<JobOutcome>,
    /// Cancels the job cooperatively (before or during execution).
    pub cancel: CancelToken,
}

/// Result of [`Server::submit`].
pub enum SubmitResult {
    /// Admitted; await the ticket.
    Enqueued(JobTicket),
    /// Refused at admission (rejected / draining); terminal outcome
    /// included — the job never executed and never will.
    Refused(Box<JobOutcome>),
}

struct ServerInner {
    config: ServerConfig,
    library: SiLibrary,
    queue: AdmissionQueue<QueuedJob>,
    /// Replayable traces with their worst-case cycle totals.
    cache: LruCache<(Trace, u64)>,
    /// Warm cross-request plan cache, namespaced per config hash. Repeat
    /// requests for the same `(config, trace)` replay memoised planning
    /// decisions instead of re-running the selector and scheduler; results
    /// are bit-identical either way, so this is invisible to clients.
    plan_cache: Arc<PlanCache>,
    poison: PoisonList,
    watchdog: Arc<DeadlineWatchdog>,
    metrics: Mutex<MetricsRegistry>,
    active: Mutex<HashMap<String, Vec<CancelToken>>>,
    /// Monotonic trace-id mint; ids are unique per daemon lifetime.
    trace_ids: AtomicU64,
    /// Flight-recorder bundles successfully spilled to disk.
    bundles_written: AtomicU64,
    draining: AtomicBool,
    /// Admitted-but-unresolved jobs (queued + executing). Zero together
    /// with `draining` means the drain is complete.
    pending: AtomicUsize,
    inflight: AtomicUsize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    watchdog_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The job-server daemon core. Cheap to clone; all clones share one
/// queue, pool and poison list.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Starts the worker pool and watchdog against `library`.
    #[must_use]
    pub fn start(library: SiLibrary, config: ServerConfig) -> Server {
        let workers = if config.workers == 0 {
            SweepRunner::from_env().threads()
        } else {
            config.workers
        };
        let watchdog = DeadlineWatchdog::new();
        let watchdog_thread = watchdog.spawn();
        let inner = Arc::new(ServerInner {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: LruCache::new(config.trace_cache_capacity),
            plan_cache: Arc::new(PlanCache::default()),
            poison: PoisonList::new(config.poison_threshold),
            watchdog,
            metrics: Mutex::new(MetricsRegistry::new()),
            active: Mutex::new(HashMap::new()),
            trace_ids: AtomicU64::new(0),
            bundles_written: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            watchdog_thread: Mutex::new(Some(watchdog_thread)),
            library,
            config,
        });
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rispp-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        *inner.workers.lock().expect("workers poisoned") = handles;
        Server { inner }
    }

    /// Admission control. Refusals (`draining`, `rejected`) are decided
    /// here and never execute, never touch the warm cache and never
    /// count an attempt.
    pub fn submit(&self, spec: JobSpec) -> SubmitResult {
        let inner = &self.inner;
        inner.counter("rispp_serve_jobs_submitted_total", 1);
        if inner.draining.load(Ordering::Acquire) {
            inner.counter("rispp_serve_jobs_drain_rejected_total", 1);
            return SubmitResult::Refused(Box::new(JobOutcome::refused(
                spec.id,
                JobStatus::Draining,
            )));
        }
        let (tx, rx) = mpsc::channel();
        let token = CancelToken::new();
        let job = QueuedJob {
            spec,
            submitted: Instant::now(),
            // Trace ids start at 1; 0 is the "no context" sentinel in
            // bundles dumped before any context was stamped.
            trace_id: inner.trace_ids.fetch_add(1, Ordering::Relaxed) + 1,
            token: token.clone(),
            respond: tx,
        };
        let id = job.spec.id.clone();
        inner.pending.fetch_add(1, Ordering::AcqRel);
        match inner.queue.try_push(job) {
            Ok(()) => {
                inner
                    .active
                    .lock()
                    .expect("active poisoned")
                    .entry(id)
                    .or_default()
                    .push(token.clone());
                inner.set_queue_gauge();
                SubmitResult::Enqueued(JobTicket {
                    outcome: rx,
                    cancel: token,
                })
            }
            Err(err) => {
                inner.pending.fetch_sub(1, Ordering::AcqRel);
                let status = match err {
                    PushError::Full { queue_depth } => {
                        inner.counter("rispp_serve_jobs_rejected_total", 1);
                        JobStatus::Rejected { queue_depth }
                    }
                    PushError::Closed => {
                        inner.counter("rispp_serve_jobs_drain_rejected_total", 1);
                        JobStatus::Draining
                    }
                };
                SubmitResult::Refused(Box::new(JobOutcome::refused(id, status)))
            }
        }
    }

    /// Cancels every active job submitted under `id`; returns how many
    /// tokens were fired.
    pub fn cancel(&self, id: &str) -> usize {
        let active = self.inner.active.lock().expect("active poisoned");
        match active.get(id) {
            Some(tokens) => {
                for token in tokens {
                    token.cancel();
                }
                tokens.len()
            }
            None => 0,
        }
    }

    /// Stops admitting work. Idempotent. Queued and in-flight jobs still
    /// run to their outcome — a drain never loses an admitted job.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner.queue.close();
    }

    /// Whether [`Server::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Whether the drain is complete: draining and no admitted job is
    /// still unresolved.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.is_draining() && self.inner.pending.load(Ordering::Acquire) == 0
    }

    /// Blocks until every worker has exited (requires a prior
    /// [`Server::drain`], which is issued here for safety) and stops the
    /// watchdog.
    pub fn await_drained(&self) {
        self.drain();
        let handles = std::mem::take(&mut *self.inner.workers.lock().expect("workers poisoned"));
        for handle in handles {
            handle
                .join()
                .expect("worker panicked outside job isolation");
        }
        self.inner.watchdog.shutdown();
        if let Some(handle) = self
            .inner
            .watchdog_thread
            .lock()
            .expect("watchdog handle poisoned")
            .take()
        {
            handle.join().expect("watchdog panicked");
        }
    }

    /// Current admission-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Jobs currently executing on workers.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::Acquire)
    }

    /// Admission-queue capacity.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.inner.queue.capacity()
    }

    /// `(hits, misses)` of the warm trace cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache.stats()
    }

    /// Lifetime totals of the warm cross-request plan cache. Racy under
    /// concurrent jobs (they are gauges, not per-run stats), but hits
    /// plus misses always equals completed planning lookups.
    #[must_use]
    pub fn plan_cache_totals(&self) -> rispp_core::PlanCacheStats {
        self.inner.plan_cache.totals()
    }

    /// Quarantined config count.
    #[must_use]
    pub fn poisoned_configs(&self) -> usize {
        self.inner.poison.quarantined()
    }

    /// Flight-recorder bundles successfully written to the flight
    /// directory over the daemon's lifetime. Always 0 with forensics
    /// disabled ([`ServerConfig::flight_dir`] `None`).
    #[must_use]
    pub fn bundles_written(&self) -> u64 {
        self.inner.bundles_written.load(Ordering::Relaxed)
    }

    /// Point-in-time metrics: counters and latency histogram from the
    /// registry plus live gauges (queue depth, in-flight, cache,
    /// quarantine).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut registry = self.inner.metrics.lock().expect("metrics poisoned").clone();
        registry.gauge_set(
            "rispp_serve_queue_depth",
            i64::try_from(self.queue_depth()).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_inflight",
            i64::try_from(self.inflight()).unwrap_or(i64::MAX),
        );
        let (hits, misses) = self.cache_stats();
        registry.gauge_set(
            "rispp_serve_trace_cache_hits",
            i64::try_from(hits).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_trace_cache_misses",
            i64::try_from(misses).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_configs_poisoned",
            i64::try_from(self.poisoned_configs()).unwrap_or(i64::MAX),
        );
        let plans = self.inner.plan_cache.totals();
        registry.gauge_set(
            "rispp_serve_plan_cache_hits",
            i64::try_from(plans.hits).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_plan_cache_misses",
            i64::try_from(plans.misses).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_plan_cache_insertions",
            i64::try_from(plans.insertions).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_plan_cache_evictions",
            i64::try_from(plans.evictions).unwrap_or(i64::MAX),
        );
        // A cache sitting at its bound while evictions climb is a working
        // set that has outgrown it.
        registry.gauge_set(
            "rispp_serve_plan_cache_entries",
            i64::try_from(self.inner.plan_cache.len()).unwrap_or(i64::MAX),
        );
        let (armed, fired, disarmed) = self.inner.watchdog.counts();
        registry.gauge_set(
            "rispp_serve_deadlines_armed",
            i64::try_from(armed).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_deadlines_fired",
            i64::try_from(fired).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_deadlines_disarmed",
            i64::try_from(disarmed).unwrap_or(i64::MAX),
        );
        registry.gauge_set(
            "rispp_serve_bundles_written",
            i64::try_from(self.bundles_written()).unwrap_or(i64::MAX),
        );
        registry.into_snapshot()
    }
}

impl ServerInner {
    fn counter(&self, name: &str, delta: u64) {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .counter_add(name, delta);
    }

    fn observe_latency(&self, ms: u64) {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .observe_with_bounds("rispp_serve_job_latency_ms", ms, &LATENCY_BOUNDS_MS);
    }

    fn set_queue_gauge(&self) {
        self.metrics.lock().expect("metrics poisoned").gauge_set(
            "rispp_serve_queue_depth",
            i64::try_from(self.queue.depth()).unwrap_or(i64::MAX),
        );
    }

    fn retire_active(&self, id: &str, token: &CancelToken) {
        let mut active = self.active.lock().expect("active poisoned");
        if let Some(tokens) = active.get_mut(id) {
            if let Some(pos) = tokens.iter().position(|t| t.same_flag(token)) {
                tokens.swap_remove(pos);
            }
            if tokens.is_empty() {
                active.remove(id);
            }
        }
    }
}

fn worker_loop(inner: &Arc<ServerInner>) {
    while let Some(job) = inner.queue.pop() {
        inner.set_queue_gauge();
        inner.inflight.fetch_add(1, Ordering::AcqRel);
        let outcome = run_job(inner, &job);
        inner.retire_active(&job.spec.id, &job.token);
        let status_counter = match &outcome.status {
            JobStatus::Completed => Some("rispp_serve_jobs_completed_total"),
            JobStatus::Timeout => Some("rispp_serve_jobs_timeout_total"),
            JobStatus::Cancelled => Some("rispp_serve_jobs_cancelled_total"),
            JobStatus::Panicked => Some("rispp_serve_jobs_panicked_total"),
            JobStatus::Poisoned => Some("rispp_serve_jobs_poisoned_total"),
            JobStatus::Error(_) => Some("rispp_serve_jobs_error_total"),
            JobStatus::Rejected { .. } | JobStatus::Draining => None,
        };
        if let Some(name) = status_counter {
            inner.counter(name, 1);
        }
        inner.observe_latency(outcome.latency_ms);
        inner.inflight.fetch_sub(1, Ordering::AcqRel);
        // The submitter may have hung up (disconnected client); the
        // outcome is then dropped, which is exactly "client gave up".
        let _ = job.respond.send(outcome);
        inner.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

fn run_job(inner: &Arc<ServerInner>, job: &QueuedJob) -> JobOutcome {
    let spec = &job.spec;
    let latency = |start: Instant| u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    let outcome = |status: JobStatus, stats, attempts| JobOutcome {
        id: spec.id.clone(),
        status,
        stats,
        attempts,
        latency_ms: latency(job.submitted),
    };

    // A job cancelled while queued never executes — and never touches
    // the warm cache or the poison list.
    if job.token.is_cancelled() {
        return outcome(JobStatus::Cancelled, None, 0);
    }
    // A config the engine cannot run is refused before the poison list,
    // the cache and the retry loop: every attempt would panic and poison
    // it. The wire decoder applies the same check; this one covers
    // in-process submitters.
    if let Err(e) = validate_config(&spec.config) {
        return outcome(JobStatus::Error(e), None, 0);
    }
    let config_hash = spec.config_hash();
    if inner.poison.is_poisoned(config_hash) {
        return outcome(JobStatus::Poisoned, None, 0);
    }

    // Deadlines are measured from admission: queueing time counts.
    let deadline = spec
        .deadline_ms
        .or(inner.config.default_deadline_ms)
        .map(|ms| job.submitted + Duration::from_millis(ms));
    let guard = deadline.map(|at| inner.watchdog.register(at, job.token.clone()));
    if deadline.is_some_and(|at| Instant::now() >= at) {
        return outcome(JobStatus::Timeout, None, 0);
    }

    // A trace the engine cannot replay is refused here, before the cache
    // and the retry loop: its panic would count against the config hash
    // and poison that config for every client. So is a detail run whose
    // buckets would grow without bound; that depends on the config, so it
    // is checked on cache hits too.
    let entry = match inner.cache.get_or_try_insert(&spec.trace_payload, || {
        let trace = materialise_trace(&spec.trace_payload)?;
        let worst_cycles = check_replayable(&trace, &inner.library)?;
        Ok((trace, worst_cycles))
    }) {
        Ok(entry) => entry,
        Err(e) => return outcome(JobStatus::Error(e), None, 0),
    };
    let (trace, worst_cycles) = &*entry;
    if let Err(e) = check_detail_buckets(*worst_cycles, &spec.config) {
        return outcome(JobStatus::Error(e), None, 0);
    }

    // The flight recorder lives outside the retry loop so its ring
    // allocations are paid once per job; each attempt resets and
    // re-stamps it, and only the final (failing) attempt is dumped.
    let mut recorder = inner
        .config
        .flight_dir
        .is_some()
        .then(|| FlightRecorder::with_capacity(inner.config.flight_events));
    // With forensics on, force explain + journal so bundles carry the
    // decision and fabric context. Neither influences simulated stats,
    // so completed results stay bit-identical to a recorder-less run.
    let mut run_config = spec.config;
    if recorder.is_some() {
        run_config = run_config.with_explain(true).with_journal(true);
    }

    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let ctx = TraceContext::new(job.trace_id).with_attempt(attempts);
        run_config = run_config.with_trace(ctx);
        if let Some(recorder) = recorder.as_mut() {
            // Stamp eagerly: a chaos panic that fires before the engine
            // hands contexts to observers still dumps the right id.
            recorder.reset();
            recorder.set_trace_context(ctx);
        }
        let chaos = attempts <= spec.chaos_panics;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            assert!(!chaos, "chaos: injected panic (attempt {attempts})");
            // The warm plan cache is namespaced by the config hash, so
            // jobs with different configs can never cross-hit each other.
            let plans =
                PlanCacheHandle::new(Arc::clone(&inner.plan_cache)).with_namespace(config_hash);
            let mut observers: Vec<&mut (dyn SimObserver + '_)> = Vec::new();
            if let Some(recorder) = recorder.as_mut() {
                observers.push(recorder);
            }
            simulate_observed_cancellable_shared(
                &inner.library,
                trace,
                &run_config,
                &job.token,
                Some(&plans),
                &mut observers,
            )
        }));
        match result {
            Ok(run) if !run.cancelled => {
                inner.poison.record_success(config_hash);
                return outcome(JobStatus::Completed, Some(run.stats), attempts);
            }
            Ok(_) => {
                // Disarm the deadline *before* any bundle work, then
                // classify off the token's recorded cause: a client
                // cancel racing the watchdog can never be misreported
                // (or dumped) as a timeout, and vice versa.
                drop(guard);
                let status = match job.token.cause() {
                    Some(CancelCause::Deadline) => JobStatus::Timeout,
                    _ => JobStatus::Cancelled,
                };
                if status == JobStatus::Timeout {
                    dump_bundle(inner, recorder.as_ref(), "timeout", spec, config_hash);
                }
                return outcome(status, None, attempts);
            }
            Err(_) => {
                inner.counter("rispp_serve_panics_total", 1);
                let newly_quarantined = inner.poison.record_panic(config_hash);
                if newly_quarantined {
                    inner.counter("rispp_serve_configs_poisoned_total", 1);
                }
                if inner.poison.is_poisoned(config_hash) {
                    dump_bundle(inner, recorder.as_ref(), "poisoned", spec, config_hash);
                    return outcome(JobStatus::Poisoned, None, attempts);
                }
                if attempts >= inner.config.max_attempts.max(1) {
                    dump_bundle(inner, recorder.as_ref(), "panicked", spec, config_hash);
                    return outcome(JobStatus::Panicked, None, attempts);
                }
                if job.token.is_cancelled() {
                    return outcome(JobStatus::Cancelled, None, attempts);
                }
                inner.counter("rispp_serve_retries_total", 1);
                let backoff = RETRY_BACKOFF_MS.saturating_mul(1 << (attempts - 1).min(10));
                std::thread::sleep(Duration::from_millis(backoff.min(2_000)));
            }
        }
    }
}

/// Spills `recorder`'s retained state as a diagnostic bundle into the
/// configured flight directory. No-op when forensics is disabled. A
/// write failure is counted and logged, never propagated — forensics
/// must not turn a diagnosable failure into a different failure.
fn dump_bundle(
    inner: &Arc<ServerInner>,
    recorder: Option<&FlightRecorder>,
    reason: &str,
    spec: &JobSpec,
    config_hash: u64,
) {
    let (Some(recorder), Some(dir)) = (recorder, inner.config.flight_dir.as_ref()) else {
        return;
    };
    let totals = inner.plan_cache.totals();
    let bundle = recorder.dump(reason, &spec.id, config_hash, totals.hits, totals.misses);
    let trace_id = recorder.context().unwrap_or_default().trace_id;
    let path = dir.join(format!("bundle-{trace_id}-{reason}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bundle)) {
        Ok(()) => {
            inner.bundles_written.fetch_add(1, Ordering::Relaxed);
            inner.counter(
                &format!(r#"rispp_serve_bundles_written_total{{reason="{reason}"}}"#),
                1,
            );
        }
        Err(e) => {
            inner.counter("rispp_serve_bundle_errors_total", 1);
            eprintln!(
                "rispp-serve: failed to write flight bundle {}: {e}",
                path.display()
            );
        }
    }
}
