//! Job specifications and the newline-delimited JSON wire codec.
//!
//! Every request and response is one JSON object per line. A submit
//! request carries a [`SimConfig`] and a trace payload; the trace is
//! either an inline `{"invocations": [...]}` object or a string naming a
//! built-in workload (`"fig7"` / `"fig7:FRAMES"`, the paper's CIF
//! encoder trace, at most the paper's 140 frames). Both forms are
//! normalised to a canonical payload string, which doubles as the
//! warm-trace-cache key, so resubmitting the same trace — in either
//! spelling — hits the cache.
//!
//! The codec is hand-rolled over [`rispp_telemetry::JsonValue`]; the
//! workspace is offline and carries no serde.

use std::fmt::Write as _;

use rispp_model::{SiId, SiLibrary};
use rispp_sim::{
    Burst, FaultConfig, Invocation, LatencyEvent, RunStats, SimConfig, SystemKind, Trace,
};
use rispp_telemetry::JsonValue;

/// 64-bit FNV-1a over a byte string — the stable, dependency-free hash
/// behind config-poisoning keys.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Escapes a string for embedding inside a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One admitted simulation job, fully decoded from a submit line.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen identifier, echoed verbatim in the response.
    pub id: String,
    /// The simulation configuration to run.
    pub config: SimConfig,
    /// Canonical trace payload (cache key): either `name:frames` for a
    /// built-in workload or the normalised inline-trace JSON.
    pub trace_payload: String,
    /// Per-job deadline in milliseconds; `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Test hook: the job panics on its first `chaos_panics` execution
    /// attempts before running for real — exercises crash isolation,
    /// retry and poisoning without corrupting any real state.
    pub chaos_panics: u32,
}

impl JobSpec {
    /// Stable hash of the configuration — the poison-list key. Two jobs
    /// with byte-identical canonical config encodings share a key.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        fnv1a(encode_config(&self.config).as_bytes())
    }
}

/// Why a job did not come back with statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; `stats` is present.
    Completed,
    /// Bounced at admission: the bounded queue was full. Carries the
    /// depth observed at rejection so clients can back off proportionally.
    Rejected {
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
    },
    /// Bounced at admission: the server is draining and admits nothing.
    Draining,
    /// Cancelled by the deadline watchdog; partial work was discarded.
    Timeout,
    /// Cancelled by an explicit `cancel` request.
    Cancelled,
    /// Every attempt panicked but the config is not (yet) quarantined.
    Panicked,
    /// The config hash is quarantined after repeated panics.
    Poisoned,
    /// Malformed request or internal failure; carries a message.
    Error(String),
}

impl JobStatus {
    /// Wire name of the status.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Rejected { .. } => "rejected",
            JobStatus::Draining => "draining",
            JobStatus::Timeout => "timeout",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Panicked => "panicked",
            JobStatus::Poisoned => "poisoned",
            JobStatus::Error(_) => "error",
        }
    }
}

/// Terminal result of one job, as delivered to the submitting client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The client-chosen job id.
    pub id: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Run statistics; present iff `status == Completed`.
    pub stats: Option<RunStats>,
    /// Execution attempts consumed (0 when the job never started).
    pub attempts: u32,
    /// Wall-clock milliseconds from admission to outcome.
    pub latency_ms: u64,
}

impl JobOutcome {
    /// An admission-time outcome (rejected / draining / error): no
    /// attempts, no stats.
    #[must_use]
    pub fn refused(id: impl Into<String>, status: JobStatus) -> Self {
        JobOutcome {
            id: id.into(),
            status,
            stats: None,
            attempts: 0,
            latency_ms: 0,
        }
    }

    /// Renders the outcome as one NDJSON response line (no trailing
    /// newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let ok = self.status == JobStatus::Completed;
        let mut out = format!(
            r#"{{"ok":{ok},"id":"{}","status":"{}","attempts":{},"latency_ms":{}"#,
            json_escape(&self.id),
            self.status.name(),
            self.attempts,
            self.latency_ms
        );
        match &self.status {
            JobStatus::Rejected { queue_depth } => {
                let _ = write!(out, r#","queue_depth":{queue_depth}"#);
            }
            JobStatus::Error(message) => {
                let _ = write!(out, r#","error":"{}""#, json_escape(message));
            }
            _ => {}
        }
        if let Some(stats) = &self.stats {
            let _ = write!(out, r#","stats":{}"#, encode_stats(stats));
        }
        out.push('}');
        out
    }
}

/// Parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Cancel a previously submitted job by its client-chosen id.
    Cancel {
        /// Id given at submission.
        id: String,
    },
    /// Liveness/readiness probe.
    Health,
    /// Metrics snapshot (JSON and Prometheus text).
    Metrics,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops or
/// invalid submit payloads.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing `op` field")?;
    match op {
        "submit" => Ok(Request::Submit(Box::new(parse_submit(&value)?))),
        "cancel" => {
            let id = value
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or("cancel requires an `id`")?;
            Ok(Request::Cancel { id: id.to_owned() })
        }
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn parse_submit(value: &JsonValue) -> Result<JobSpec, String> {
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or("submit requires a string `id`")?
        .to_owned();
    let config = decode_config(value.get("config").ok_or("submit requires a `config`")?)?;
    let trace_payload = canonical_trace_payload(
        value.get("trace").ok_or("submit requires a `trace`")?,
    )?;
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("`deadline_ms` must be a non-negative integer")?),
    };
    let chaos_panics = match value.get("chaos_panics") {
        None => 0,
        Some(v) => u32::try_from(
            v.as_u64().ok_or("`chaos_panics` must be a non-negative integer")?,
        )
        .map_err(|_| "`chaos_panics` out of range")?,
    };
    Ok(JobSpec {
        id,
        config,
        trace_payload,
        deadline_ms,
        chaos_panics,
    })
}

// ---------------------------------------------------------------------
// SimConfig codec
// ---------------------------------------------------------------------

fn system_name(system: SystemKind) -> &'static str {
    use rispp_core::SchedulerKind;
    match system {
        SystemKind::Rispp(SchedulerKind::Hef) => "hef",
        SystemKind::Rispp(SchedulerKind::Asf) => "asf",
        SystemKind::Rispp(SchedulerKind::Fsfr) => "fsfr",
        SystemKind::Rispp(SchedulerKind::Sjf) => "sjf",
        SystemKind::Molen => "molen",
        SystemKind::OneChip => "onechip",
        SystemKind::SoftwareOnly => "software",
    }
}

fn system_from_name(name: &str) -> Result<SystemKind, String> {
    use rispp_core::SchedulerKind;
    Ok(match name {
        "hef" => SystemKind::Rispp(SchedulerKind::Hef),
        "asf" => SystemKind::Rispp(SchedulerKind::Asf),
        "fsfr" => SystemKind::Rispp(SchedulerKind::Fsfr),
        "sjf" => SystemKind::Rispp(SchedulerKind::Sjf),
        "molen" => SystemKind::Molen,
        "onechip" => SystemKind::OneChip,
        "software" => SystemKind::SoftwareOnly,
        other => return Err(format!("unknown system `{other}`")),
    })
}

/// Canonical JSON encoding of a [`SimConfig`] — the submit-side encoder
/// and, hashed, the poison-list key. Field order is fixed; optional
/// fields are always present (`null` when unset) so equal configs always
/// encode to equal bytes.
#[must_use]
pub fn encode_config(config: &SimConfig) -> String {
    let mut out = format!(
        r#"{{"containers":{},"system":"{}","detail":{},"bucket_cycles":{},"oracle":{}"#,
        config.containers,
        system_name(config.system),
        config.detail,
        config.bucket_cycles,
        config.oracle
    );
    match config.port_bandwidth {
        Some(b) => {
            let _ = write!(out, r#","port_bandwidth":{b}"#);
        }
        None => out.push_str(r#","port_bandwidth":null"#),
    }
    match &config.fault {
        Some(f) => {
            let _ = write!(
                out,
                r#","fault":{{"rate_ppm":{},"seed":{},"max_retries":{}}}"#,
                f.rate_ppm, f.seed, f.max_retries
            );
        }
        None => out.push_str(r#","fault":null"#),
    }
    out.push('}');
    out
}

/// Decodes a submit-line `config` object. Unknown systems, non-integer
/// numerics and malformed fault blocks are rejected; `explain`/`journal`
/// and tenancy are server-side concerns and not accepted over the wire.
///
/// # Errors
///
/// Returns a human-readable message naming the offending field.
pub fn decode_config(value: &JsonValue) -> Result<SimConfig, String> {
    let containers = match value.get("containers") {
        None => 15,
        Some(v) => u16::try_from(v.as_u64().ok_or("`containers` must be an integer")?)
            .map_err(|_| "`containers` out of range")?,
    };
    let system = match value.get("system") {
        None => system_from_name("hef")?,
        Some(v) => system_from_name(v.as_str().ok_or("`system` must be a string")?)?,
    };
    let mut config = SimConfig {
        containers,
        system,
        ..SimConfig::rispp(containers, rispp_core::SchedulerKind::Hef)
    };
    if let Some(v) = value.get("detail") {
        config.detail = v.as_bool().ok_or("`detail` must be a boolean")?;
    }
    if let Some(v) = value.get("bucket_cycles") {
        config.bucket_cycles = v.as_u64().ok_or("`bucket_cycles` must be an integer")?;
        if config.bucket_cycles == 0 {
            return Err("`bucket_cycles` must be positive".into());
        }
    }
    if let Some(v) = value.get("oracle") {
        config.oracle = v.as_bool().ok_or("`oracle` must be a boolean")?;
    }
    match value.get("port_bandwidth") {
        None | Some(JsonValue::Null) => {}
        Some(v) => {
            config.port_bandwidth =
                Some(v.as_u64().ok_or("`port_bandwidth` must be an integer")?);
        }
    }
    match value.get("fault") {
        None | Some(JsonValue::Null) => {}
        Some(v) => {
            let rate_ppm = match v.get("rate_ppm") {
                Some(p) => {
                    let ppm = p.as_u64().ok_or("`fault.rate_ppm` must be an integer")?;
                    u32::try_from(ppm)
                        .ok()
                        .filter(|p| *p <= rispp_fabric::fault::PPM)
                        .ok_or_else(|| {
                            format!(
                                "`fault.rate_ppm` must be at most {} (= certainty)",
                                rispp_fabric::fault::PPM
                            )
                        })?
                }
                None => return Err("`fault` requires `rate_ppm`".into()),
            };
            let mut fault = FaultConfig::uniform(0.0);
            fault.rate_ppm = rate_ppm;
            if let Some(s) = v.get("seed") {
                fault.seed = s.as_u64().ok_or("`fault.seed` must be an integer")?;
            }
            if let Some(r) = v.get("max_retries") {
                fault.max_retries =
                    u32::try_from(r.as_u64().ok_or("`fault.max_retries` must be an integer")?)
                        .map_err(|_| "`fault.max_retries` out of range")?;
            }
            config.fault = Some(fault);
        }
    }
    Ok(config)
}

// ---------------------------------------------------------------------
// Trace codec
// ---------------------------------------------------------------------

/// Encodes a trace as the inline submit payload: compact arrays, one
/// burst per `[si, count, overhead]` triple.
#[must_use]
pub fn encode_trace(trace: &Trace) -> String {
    let mut out = String::from(r#"{"invocations":["#);
    for (i, inv) in trace.invocations().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"hot_spot":{},"prologue_cycles":{},"bursts":["#,
            inv.hot_spot.0, inv.prologue_cycles
        );
        for (j, b) in inv.bursts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{}]", b.si.index(), b.count, b.overhead);
        }
        out.push_str(r#"],"hints":["#);
        for (j, (si, executions)) in inv.hints.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{executions}]", si.index());
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Normalises a submit-line `trace` payload to its canonical string
/// form: named workloads become `name:frames`, inline traces are decoded
/// and re-encoded via [`encode_trace`], so formatting differences never
/// split the warm cache.
///
/// # Errors
///
/// Returns a message for unknown workload names, frame counts outside
/// `1..=140` (the paper's clip; the encode runs before the cancellable
/// replay, so no deadline could stop a longer one) or malformed inline
/// traces.
pub fn canonical_trace_payload(value: &JsonValue) -> Result<String, String> {
    match value {
        JsonValue::String(name) => {
            let (base, frames) = parse_workload_name(name)?;
            Ok(format!("{base}:{frames}"))
        }
        JsonValue::Object(_) => Ok(encode_trace(&decode_trace(value)?)),
        _ => Err("`trace` must be a workload name or an inline trace object".into()),
    }
}

fn parse_workload_name(name: &str) -> Result<(&str, u32), String> {
    let (base, frames) = match name.split_once(':') {
        Some((base, frames)) => (
            base,
            frames
                .parse::<u32>()
                .map_err(|_| format!("bad frame count in workload `{name}`"))?,
        ),
        None => (name, 20),
    };
    if base != "fig7" {
        return Err(format!("unknown workload `{base}` (supported: fig7[:FRAMES])"));
    }
    let max = rispp_h264::EncoderConfig::paper_cif().frames;
    if frames == 0 || frames > max {
        return Err(format!(
            "workload frame count must be between 1 and {max}, got {frames}"
        ));
    }
    Ok((base, frames))
}

/// Materialises a canonical trace payload (the output of
/// [`canonical_trace_payload`]) into a [`Trace`]. Named workloads run
/// the paper's CIF encoder — this is the expensive path the warm cache
/// exists to amortise.
///
/// # Errors
///
/// Returns a message for unknown names or malformed inline traces.
pub fn materialise_trace(payload: &str) -> Result<Trace, String> {
    if payload.starts_with('{') {
        return decode_trace(
            &JsonValue::parse(payload).map_err(|e| format!("bad trace payload: {e}"))?,
        );
    }
    let (_, frames) = parse_workload_name(payload)?;
    let mut config = rispp_h264::EncoderConfig::paper_cif();
    config.frames = frames;
    Ok(rispp_h264::EncoderWorkload::generate(&config).trace().clone())
}

fn decode_trace(value: &JsonValue) -> Result<Trace, String> {
    use rispp_monitor::HotSpotId;

    let invocations = value
        .get("invocations")
        .and_then(JsonValue::as_array)
        .ok_or("inline trace requires an `invocations` array")?;
    let mut decoded = Vec::with_capacity(invocations.len());
    for (i, inv) in invocations.iter().enumerate() {
        let hot_spot = inv
            .get("hot_spot")
            .and_then(JsonValue::as_u64)
            .and_then(|h| u16::try_from(h).ok())
            .ok_or_else(|| format!("invocation {i}: bad `hot_spot`"))?;
        let prologue_cycles = inv
            .get("prologue_cycles")
            .map_or(Some(0), JsonValue::as_u64)
            .ok_or_else(|| format!("invocation {i}: bad `prologue_cycles`"))?;
        let mut bursts = Vec::new();
        for (j, b) in inv
            .get("bursts")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("invocation {i}: missing `bursts`"))?
            .iter()
            .enumerate()
        {
            let triple = b
                .as_array()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| format!("invocation {i} burst {j}: expected [si,count,overhead]"))?;
            let field = |k: usize| {
                triple[k]
                    .as_u64()
                    .ok_or_else(|| format!("invocation {i} burst {j}: non-integer field"))
            };
            bursts.push(Burst {
                si: SiId(
                    u16::try_from(field(0)?)
                        .map_err(|_| format!("invocation {i} burst {j}: si out of range"))?,
                ),
                count: u32::try_from(field(1)?)
                    .map_err(|_| format!("invocation {i} burst {j}: count out of range"))?,
                overhead: u32::try_from(field(2)?)
                    .map_err(|_| format!("invocation {i} burst {j}: overhead out of range"))?,
            });
        }
        let mut hints = Vec::new();
        if let Some(pairs) = inv.get("hints").and_then(JsonValue::as_array) {
            for (j, h) in pairs.iter().enumerate() {
                let pair = h
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("invocation {i} hint {j}: expected [si,executions]"))?;
                let si = pair[0]
                    .as_u64()
                    .and_then(|s| u16::try_from(s).ok())
                    .ok_or_else(|| format!("invocation {i} hint {j}: bad si"))?;
                let executions = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("invocation {i} hint {j}: bad executions"))?;
                hints.push((SiId(si), executions));
            }
        }
        decoded.push(Invocation {
            hot_spot: HotSpotId(hot_spot),
            prologue_cycles,
            bursts,
            hints,
        });
    }
    Ok(Trace::from_invocations(decoded))
}

/// Checks that `trace` can be replayed against `library`: every burst and
/// hint names an SI of the library, and the worst-case cycle total fits
/// the engine's `u64` clock. The worst case prices every execution at its
/// SI's software latency plus the burst's overhead, since no backend runs
/// an SI slower than its software trap (Molen clamps its accelerators to
/// it, RISPP picks hardware only when it is faster). Returns that
/// worst-case total.
///
/// # Errors
///
/// Returns a message naming the first out-of-library SI, or the
/// worst-case total when it exceeds `u64::MAX`.
pub(crate) fn check_replayable(trace: &Trace, library: &SiLibrary) -> Result<u64, String> {
    let outside = |i: usize, what: &str, si: SiId| {
        format!(
            "invocation {i}: {what} names SI {} outside the {}-SI library",
            si.0,
            library.len()
        )
    };
    let mut worst = 0u128;
    for (i, inv) in trace.invocations().iter().enumerate() {
        if let Some(&(si, _)) = inv.hints.iter().find(|(si, _)| library.si(*si).is_none()) {
            return Err(outside(i, "a hint", si));
        }
        worst += u128::from(inv.prologue_cycles);
        for b in &inv.bursts {
            let def = library
                .si(b.si)
                .ok_or_else(|| outside(i, "a burst", b.si))?;
            worst +=
                u128::from(b.count) * (u128::from(def.software_latency()) + u128::from(b.overhead));
        }
    }
    // `worst` cannot wrap: each term is below 2^66, and a trace that fits
    // in memory has far fewer than 2^62 of them.
    u64::try_from(worst)
        .map_err(|_| format!("worst-case total of {worst} cycles overflows the 64-bit cycle clock"))
}

/// Most detail buckets a served run may keep per SI: 2^20 `u32` counts,
/// 4 MiB. The paper's 140-frame trace needs 65,246 at the default
/// 100,000-cycle width.
pub(crate) const MAX_DETAIL_BUCKETS: u64 = 1 << 20;

/// Checks that a run of `config` over a trace whose worst-case total is
/// `worst_cycles` (see [`check_replayable`]) keeps at most
/// [`MAX_DETAIL_BUCKETS`] detail buckets per SI: with `detail` on,
/// `RunStats` keeps one per `bucket_cycles` simulated cycles of each
/// executed SI.
///
/// # Errors
///
/// Returns a message naming the bucket count and the cap.
pub(crate) fn check_detail_buckets(worst_cycles: u64, config: &SimConfig) -> Result<(), String> {
    let buckets = worst_cycles.div_ceil(config.bucket_cycles.max(1));
    if config.detail && buckets > MAX_DETAIL_BUCKETS {
        return Err(format!(
            "detail at bucket_cycles {} needs up to {buckets} buckets per SI \
             (worst case {worst_cycles} cycles), above the cap of {MAX_DETAIL_BUCKETS}",
            config.bucket_cycles
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// RunStats codec
// ---------------------------------------------------------------------

fn encode_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Encodes [`RunStats`] as one JSON object. Every field is included —
/// the serve smoke compares this encoding byte-for-byte against a local
/// batch run to prove the daemon path is bit-identical.
#[must_use]
pub fn encode_stats(stats: &RunStats) -> String {
    let mut out = format!(
        r#"{{"system":"{}","total_cycles":{},"si_executions":"#,
        json_escape(&stats.system),
        stats.total_cycles
    );
    encode_u64_array(&mut out, &stats.si_executions);
    out.push_str(r#","hardware_executions":"#);
    encode_u64_array(&mut out, &stats.hardware_executions);
    let _ = write!(
        out,
        r#","bucket_cycles":{},"reconfigurations":{},"reconfiguration_cycles":{},"faults_injected":{},"load_retries":{},"containers_quarantined":{},"degraded_to_software":{},"fault_cycles_lost":{},"atoms_shared":{},"evictions_contested":{}"#,
        stats.bucket_cycles,
        stats.reconfigurations,
        stats.reconfiguration_cycles,
        stats.faults_injected,
        stats.load_retries,
        stats.containers_quarantined,
        stats.degraded_to_software,
        stats.fault_cycles_lost,
        stats.atoms_shared,
        stats.evictions_contested
    );
    out.push_str(r#","execution_buckets":["#);
    for (i, buckets) in stats.execution_buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, b) in buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push(']');
    }
    out.push_str(r#"],"latency_timeline":["#);
    for (i, timeline) in stats.latency_timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, LatencyEvent { at, latency }) in timeline.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{at},{latency}]");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Renders a submit request line for `spec` (the client-side encoder
/// mirroring [`parse_request`]).
#[must_use]
pub fn encode_submit(spec: &JobSpec) -> String {
    let trace = if spec.trace_payload.starts_with('{') {
        spec.trace_payload.clone()
    } else {
        format!(r#""{}""#, json_escape(&spec.trace_payload))
    };
    let mut out = format!(
        r#"{{"op":"submit","id":"{}","config":{},"trace":{trace}"#,
        json_escape(&spec.id),
        encode_config(&spec.config)
    );
    if let Some(d) = spec.deadline_ms {
        let _ = write!(out, r#","deadline_ms":{d}"#);
    }
    if spec.chaos_panics > 0 {
        let _ = write!(out, r#","chaos_panics":{}"#, spec.chaos_panics);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::SchedulerKind;

    fn tiny_trace() -> Trace {
        use rispp_monitor::HotSpotId;
        Trace::from_invocations(vec![Invocation {
            hot_spot: HotSpotId(1),
            prologue_cycles: 50,
            bursts: vec![
                Burst { si: SiId(0), count: 10, overhead: 3 },
                Burst { si: SiId(2), count: 7, overhead: 1 },
            ],
            hints: vec![(SiId(0), 10), (SiId(2), 7)],
        }])
    }

    #[test]
    fn config_round_trips_through_the_codec() {
        let mut config = SimConfig::rispp(9, SchedulerKind::Fsfr).with_detail(true);
        config.port_bandwidth = Some(12_500_000);
        config.fault = Some(FaultConfig {
            rate_ppm: 1_234,
            seed: 42,
            max_retries: 5,
        });
        let encoded = encode_config(&config);
        let decoded = decode_config(&JsonValue::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, config);
        // Canonical: encoding the decode reproduces the bytes.
        assert_eq!(encode_config(&decoded), encoded);
    }

    #[test]
    fn config_decode_rejects_bad_fields() {
        for bad in [
            r#"{"system":"warp9"}"#,
            r#"{"containers":-1}"#,
            r#"{"containers":70000}"#,
            r#"{"bucket_cycles":0}"#,
            r#"{"fault":{"rate_ppm":1000001}}"#,
            r#"{"fault":{"seed":1}}"#,
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(decode_config(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_round_trips_and_normalises() {
        let trace = tiny_trace();
        let encoded = encode_trace(&trace);
        let payload =
            canonical_trace_payload(&JsonValue::parse(&encoded).unwrap()).unwrap();
        assert_eq!(payload, encoded);
        let back = materialise_trace(&payload).unwrap();
        assert_eq!(back.invocations(), trace.invocations());
    }

    #[test]
    fn named_workloads_normalise_to_frame_counts() {
        let v = JsonValue::String("fig7".into());
        assert_eq!(canonical_trace_payload(&v).unwrap(), "fig7:20");
        let v = JsonValue::String("fig7:3".into());
        assert_eq!(canonical_trace_payload(&v).unwrap(), "fig7:3");
        assert!(canonical_trace_payload(&JsonValue::String("fig8".into())).is_err());
        assert!(canonical_trace_payload(&JsonValue::String("fig7:0".into())).is_err());
        let v = JsonValue::String("fig7:140".into());
        assert_eq!(canonical_trace_payload(&v).unwrap(), "fig7:140");
        for too_long in ["fig7:141", "fig7:4294967295"] {
            let err = canonical_trace_payload(&JsonValue::String(too_long.into())).unwrap_err();
            assert!(err.contains("between 1 and 140"), "{too_long}: {err}");
        }
    }

    #[test]
    fn submit_line_round_trips() {
        let spec = JobSpec {
            id: "job-1".into(),
            config: SimConfig::rispp(4, SchedulerKind::Hef),
            trace_payload: encode_trace(&tiny_trace()),
            deadline_ms: Some(2_000),
            chaos_panics: 2,
        };
        let line = encode_submit(&spec);
        let Request::Submit(parsed) = parse_request(&line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(parsed.id, spec.id);
        assert_eq!(parsed.config, spec.config);
        assert_eq!(parsed.trace_payload, spec.trace_payload);
        assert_eq!(parsed.deadline_ms, Some(2_000));
        assert_eq!(parsed.chaos_panics, 2);
        assert_eq!(parsed.config_hash(), spec.config_hash());
    }

    #[test]
    fn request_parser_covers_every_op() {
        assert!(matches!(parse_request(r#"{"op":"health"}"#), Ok(Request::Health)));
        assert!(matches!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics)));
        assert!(matches!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown)));
        assert!(matches!(
            parse_request(r#"{"op":"cancel","id":"j"}"#),
            Ok(Request::Cancel { .. })
        ));
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"launch"}"#).is_err());
        assert!(parse_request(r#"{"id":"x"}"#).is_err());
    }

    #[test]
    fn detail_buckets_are_capped_per_si() {
        let detail = |bucket_cycles| SimConfig {
            bucket_cycles,
            ..SimConfig::rispp(4, SchedulerKind::Hef).with_detail(true)
        };
        assert!(check_detail_buckets(MAX_DETAIL_BUCKETS, &detail(1)).is_ok());
        assert!(check_detail_buckets(MAX_DETAIL_BUCKETS + 1, &detail(1)).is_err());
        // A part-filled last bucket still counts.
        assert!(check_detail_buckets(MAX_DETAIL_BUCKETS * 1000, &detail(1000)).is_ok());
        assert!(check_detail_buckets(MAX_DETAIL_BUCKETS * 1000 + 1, &detail(1000)).is_err());
        // Without detail no bucket is kept, whatever the width.
        let plain = SimConfig {
            bucket_cycles: 1,
            ..SimConfig::rispp(4, SchedulerKind::Hef)
        };
        assert!(check_detail_buckets(u64::MAX, &plain).is_ok());
    }

    #[test]
    fn outcome_lines_carry_status_specific_fields() {
        let rejected = JobOutcome::refused(
            "a",
            JobStatus::Rejected { queue_depth: 8 },
        );
        let line = rejected.to_line();
        assert!(line.contains(r#""ok":false"#) && line.contains(r#""queue_depth":8"#));
        let err = JobOutcome::refused("b", JobStatus::Error("bad \"quote\"".into()));
        let parsed = JsonValue::parse(&err.to_line()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(JsonValue::as_str),
            Some("bad \"quote\"")
        );
    }
}
