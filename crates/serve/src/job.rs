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
//! The codec is hand-rolled; the workspace is offline and carries no
//! serde. Encoders write strings directly, and [`parse_request`] decodes
//! a line in one pass of a [`rispp_telemetry::json::Reader`], so wire
//! integers are exact up to `u64::MAX`.

use std::borrow::Cow;
use std::fmt::Write as _;

use rispp_model::{SiId, SiLibrary};
use rispp_sim::{
    Burst, FaultConfig, Invocation, LatencyEvent, RunStats, SimConfig, SystemKind, Trace,
};
use rispp_telemetry::json::{JsonError, Number, Reader, Token};
use rispp_telemetry::push_u64;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// The line is decoded in one pass of a [`Reader`], with no JSON tree:
/// the config goes straight into a [`SimConfig`] and an inline trace
/// straight into its canonical payload. As with [`JsonValue::get`], the
/// first occurrence of a member wins, later ones and unknown members are
/// only syntax-checked, and members may come in any order. A syntax
/// error anywhere refuses the line; a bad `config` or `trace` refuses
/// only a submit.
///
/// [`JsonValue::get`]: rispp_telemetry::JsonValue::get
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops or
/// invalid submit payloads.
pub fn parse_request(line: &str) -> Result<Request, String> {
    decode_request(line).map_err(|(_, message)| message)
}

/// [`parse_request`], with the id to answer a refusal under: the line's
/// first `id` member when it is a string read whole, even on a line that
/// turns out not to be valid JSON further on, `""` otherwise.
pub(crate) fn decode_request(line: &str) -> Result<Request, (String, String)> {
    let mut members = RequestMembers::default();
    let decoded = match read_request(line, &mut members) {
        Ok(()) => members.request(),
        Err(e) => Err(format!("bad JSON: {e}")),
    };
    decoded.map_err(|message| {
        let id = members
            .id
            .as_ref()
            .and_then(Leaf::as_str)
            .unwrap_or_default();
        (id.to_owned(), message)
    })
}

/// A member's value as far as the decoder reads it: a scalar whole, an
/// array or object only syntax-checked.
enum Leaf<'a> {
    Null,
    Bool(bool),
    Number(Number<'a>),
    Str(Cow<'a, str>),
    Nested,
}

impl Leaf<'_> {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Leaf::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Leaf::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Leaf::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The value that `first` begins, as a [`Leaf`].
fn leaf<'a>(r: &mut Reader<'a>, first: Token<'a>) -> Result<Leaf<'a>, JsonError> {
    Ok(match first {
        Token::Null => Leaf::Null,
        Token::Bool(b) => Leaf::Bool(b),
        Token::Number(n) => Leaf::Number(n),
        Token::String(s) => Leaf::Str(s),
        nested => {
            r.skip(&nested)?;
            Leaf::Nested
        }
    })
}

/// Reads the value after a key with `read` into `slot` if the key is new;
/// a repeated key's value is only syntax-checked, so the first occurrence
/// wins.
fn first_occurrence<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>, Token<'a>) -> Result<T, JsonError>,
) -> Result<(), JsonError> {
    let first = r.value()?;
    if slot.is_some() {
        return r.skip(&first);
    }
    *slot = Some(read(r, first)?);
    Ok(())
}

/// The members of a request line that the ops read. `config` and `trace`
/// are decoded as they are read; their errors wait for the op to need
/// them.
#[derive(Default)]
struct RequestMembers<'a> {
    op: Option<Leaf<'a>>,
    id: Option<Leaf<'a>>,
    config: Option<Result<SimConfig, String>>,
    trace: Option<Result<String, String>>,
    deadline_ms: Option<Leaf<'a>>,
    chaos_panics: Option<Leaf<'a>>,
}

/// Reads a whole request line into `m`. A line that is not an object has
/// no members, but must still be valid JSON. On a syntax error `m` keeps
/// the members read before it.
fn read_request<'a>(line: &'a str, m: &mut RequestMembers<'a>) -> Result<(), JsonError> {
    let mut r = Reader::new(line);
    let first = r.value()?;
    if matches!(first, Token::ObjectStart) {
        while let Some(key) = r.key()? {
            match &*key {
                "op" => first_occurrence(&mut m.op, &mut r, leaf)?,
                "id" => first_occurrence(&mut m.id, &mut r, leaf)?,
                "config" => first_occurrence(&mut m.config, &mut r, read_config)?,
                "trace" => first_occurrence(&mut m.trace, &mut r, read_trace)?,
                "deadline_ms" => first_occurrence(&mut m.deadline_ms, &mut r, leaf)?,
                "chaos_panics" => first_occurrence(&mut m.chaos_panics, &mut r, leaf)?,
                _ => r.skip_value()?,
            }
        }
    } else {
        r.skip(&first)?;
    }
    r.finish()
}

impl RequestMembers<'_> {
    fn request(&mut self) -> Result<Request, String> {
        let op = self
            .op
            .as_ref()
            .and_then(Leaf::as_str)
            .ok_or("missing `op` field")?;
        match op {
            "submit" => Ok(Request::Submit(Box::new(self.submit()?))),
            "cancel" => {
                let id = self
                    .id
                    .as_ref()
                    .and_then(Leaf::as_str)
                    .ok_or("cancel requires an `id`")?;
                Ok(Request::Cancel { id: id.to_owned() })
            }
            "health" => Ok(Request::Health),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn submit(&mut self) -> Result<JobSpec, String> {
        let id = self
            .id
            .as_ref()
            .and_then(Leaf::as_str)
            .ok_or("submit requires a string `id`")?
            .to_owned();
        let config = self.config.take().ok_or("submit requires a `config`")??;
        let trace_payload = self.trace.take().ok_or("submit requires a `trace`")??;
        let deadline_ms = match &self.deadline_ms {
            None | Some(Leaf::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("`deadline_ms` must be a non-negative integer")?,
            ),
        };
        let chaos_panics = match &self.chaos_panics {
            None => 0,
            Some(v) => u32::try_from(
                v.as_u64()
                    .ok_or("`chaos_panics` must be a non-negative integer")?,
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

/// The members of a submit line's `config` that the decoder reads.
#[derive(Default)]
struct ConfigMembers<'a> {
    containers: Option<Leaf<'a>>,
    system: Option<Leaf<'a>>,
    detail: Option<Leaf<'a>>,
    bucket_cycles: Option<Leaf<'a>>,
    oracle: Option<Leaf<'a>>,
    port_bandwidth: Option<Leaf<'a>>,
    /// `Some(None)` for `"fault": null`.
    fault: Option<Option<FaultMembers<'a>>>,
}

/// The members of a `fault` block; one that is not an object has none.
#[derive(Default)]
struct FaultMembers<'a> {
    rate_ppm: Option<Leaf<'a>>,
    seed: Option<Leaf<'a>>,
    max_retries: Option<Leaf<'a>>,
}

/// Reads a submit line's `config` and decodes it. A `config` that is not
/// an object, unknown systems, non-integer numerics and malformed fault
/// blocks are refused; `explain`/`journal` and tenancy are server-side
/// concerns and not accepted over the wire.
fn read_config<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
) -> Result<Result<SimConfig, String>, JsonError> {
    if !matches!(first, Token::ObjectStart) {
        r.skip(&first)?;
        return Ok(Err("`config` must be an object".into()));
    }
    let mut m = ConfigMembers::default();
    while let Some(key) = r.key()? {
        match &*key {
            "containers" => first_occurrence(&mut m.containers, r, leaf)?,
            "system" => first_occurrence(&mut m.system, r, leaf)?,
            "detail" => first_occurrence(&mut m.detail, r, leaf)?,
            "bucket_cycles" => first_occurrence(&mut m.bucket_cycles, r, leaf)?,
            "oracle" => first_occurrence(&mut m.oracle, r, leaf)?,
            "port_bandwidth" => first_occurrence(&mut m.port_bandwidth, r, leaf)?,
            "fault" => first_occurrence(&mut m.fault, r, read_fault)?,
            _ => r.skip_value()?,
        }
    }
    Ok(m.decode())
}

fn read_fault<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
) -> Result<Option<FaultMembers<'a>>, JsonError> {
    let mut m = FaultMembers::default();
    match first {
        Token::Null => return Ok(None),
        Token::ObjectStart => {
            while let Some(key) = r.key()? {
                match &*key {
                    "rate_ppm" => first_occurrence(&mut m.rate_ppm, r, leaf)?,
                    "seed" => first_occurrence(&mut m.seed, r, leaf)?,
                    "max_retries" => first_occurrence(&mut m.max_retries, r, leaf)?,
                    _ => r.skip_value()?,
                }
            }
        }
        other => r.skip(&other)?,
    }
    Ok(Some(m))
}

impl ConfigMembers<'_> {
    /// The config, its fields checked in a fixed order whatever order
    /// they came in, so a line with two bad fields always names the same
    /// one.
    fn decode(self) -> Result<SimConfig, String> {
        let containers = match self.containers {
            None => 15,
            Some(v) => u16::try_from(v.as_u64().ok_or("`containers` must be an integer")?)
                .map_err(|_| "`containers` out of range")?,
        };
        let system = match self.system {
            None => system_from_name("hef")?,
            Some(v) => system_from_name(v.as_str().ok_or("`system` must be a string")?)?,
        };
        let mut config = SimConfig {
            containers,
            system,
            ..SimConfig::rispp(containers, rispp_core::SchedulerKind::Hef)
        };
        if let Some(v) = self.detail {
            config.detail = v.as_bool().ok_or("`detail` must be a boolean")?;
        }
        if let Some(v) = self.bucket_cycles {
            config.bucket_cycles = v.as_u64().ok_or("`bucket_cycles` must be an integer")?;
        }
        if let Some(v) = self.oracle {
            config.oracle = v.as_bool().ok_or("`oracle` must be a boolean")?;
        }
        match self.port_bandwidth {
            None | Some(Leaf::Null) => {}
            Some(v) => {
                config.port_bandwidth =
                    Some(v.as_u64().ok_or("`port_bandwidth` must be an integer")?);
            }
        }
        if let Some(Some(f)) = self.fault {
            let ppm = f
                .rate_ppm
                .ok_or("`fault` requires `rate_ppm`")?
                .as_u64()
                .ok_or("`fault.rate_ppm` must be an integer")?;
            let mut fault = FaultConfig::uniform(0.0);
            fault.rate_ppm = u32::try_from(ppm)
                .ok()
                .filter(|p| *p <= rispp_fabric::fault::PPM)
                .ok_or_else(|| {
                    format!(
                        "`fault.rate_ppm` must be at most {} (= certainty)",
                        rispp_fabric::fault::PPM
                    )
                })?;
            if let Some(s) = f.seed {
                fault.seed = s.as_u64().ok_or("`fault.seed` must be an integer")?;
            }
            if let Some(r) = f.max_retries {
                fault.max_retries =
                    u32::try_from(r.as_u64().ok_or("`fault.max_retries` must be an integer")?)
                        .map_err(|_| "`fault.max_retries` out of range")?;
            }
            config.fault = Some(fault);
        }
        validate_config(&config)?;
        Ok(config)
    }
}

/// Refuses a configuration the engine would panic on at run time: a zero
/// statistics bucket width, or a reconfiguration port with zero
/// bandwidth. Every attempt of such a job would panic and poison its
/// config, so both the wire decoder and the job runner check it first.
///
/// # Errors
///
/// Names the offending field.
pub fn validate_config(config: &SimConfig) -> Result<(), String> {
    if config.bucket_cycles == 0 {
        return Err("`bucket_cycles` must be positive".into());
    }
    if let Some(bandwidth) = config.port_bandwidth {
        rispp_fabric::ReconfigPortConfig::with_bandwidth(bandwidth)
            .validate()
            .map_err(|e| format!("`port_bandwidth` {bandwidth}: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Trace codec
// ---------------------------------------------------------------------

/// Encodes a trace as the inline submit payload: compact arrays, one
/// burst per `[si, count, overhead]` triple. This is the canonical form
/// the wire decoder normalises every inline trace to.
#[must_use]
pub fn encode_trace(trace: &Trace) -> String {
    let mut out = String::from(r#"{"invocations":["#);
    for (i, inv) in trace.invocations().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_invocation(&mut out, inv);
    }
    out.push_str("]}");
    out
}

/// Appends one invocation in the canonical form of [`encode_trace`].
fn push_invocation(out: &mut String, inv: &Invocation) {
    out.push_str(r#"{"hot_spot":"#);
    push_u64(out, u64::from(inv.hot_spot.0));
    out.push_str(r#","prologue_cycles":"#);
    push_u64(out, inv.prologue_cycles);
    out.push_str(r#","bursts":["#);
    for (j, b) in inv.bursts.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, u64::from(b.si.0));
        out.push(',');
        push_u64(out, u64::from(b.count));
        out.push(',');
        push_u64(out, u64::from(b.overhead));
        out.push(']');
    }
    out.push_str(r#"],"hints":["#);
    for (j, (si, executions)) in inv.hints.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, u64::from(si.0));
        out.push(',');
        push_u64(out, *executions);
        out.push(']');
    }
    out.push_str("]}");
}

/// Reads a submit line's `trace` and normalises it to its canonical
/// payload: a named workload becomes `name:frames`, an inline trace is
/// decoded and re-encoded as [`encode_trace`] would, so formatting
/// differences never split the warm cache.
///
/// The trace's error is a message for unknown workload names, frame
/// counts outside `1..=140` (the paper's clip; the encode runs before the
/// cancellable replay, so no deadline could stop a longer one) or
/// malformed inline traces.
fn read_trace<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
) -> Result<Result<String, String>, JsonError> {
    match first {
        Token::String(name) => {
            Ok(parse_workload_name(&name).map(|(base, frames)| format!("{base}:{frames}")))
        }
        Token::ObjectStart => {
            let mut payload = String::from(r#"{"invocations":["#);
            let decoded = read_inline_trace(r, &mut |i, inv| {
                if i > 0 {
                    payload.push(',');
                }
                push_invocation(&mut payload, inv);
            })?;
            payload.push_str("]}");
            Ok(decoded.map(|()| payload))
        }
        other => {
            r.skip(&other)?;
            Ok(Err(
                "`trace` must be a workload name or an inline trace object".into(),
            ))
        }
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
        return Err(format!(
            "unknown workload `{base}` (supported: fig7[:FRAMES])"
        ));
    }
    let max = rispp_h264::EncoderConfig::paper_cif().frames;
    if frames == 0 || frames > max {
        return Err(format!(
            "workload frame count must be between 1 and {max}, got {frames}"
        ));
    }
    Ok((base, frames))
}

/// Materialises a canonical trace payload (a submit's
/// [`JobSpec::trace_payload`]) into a [`Trace`]. Named workloads run the
/// paper's CIF encoder — this is the expensive path the warm cache
/// exists to amortise; inline traces are decoded with the wire's reader.
///
/// # Errors
///
/// Returns a message for unknown names or malformed inline traces.
pub fn materialise_trace(payload: &str) -> Result<Trace, String> {
    if payload.starts_with('{') {
        let mut invocations = Vec::new();
        let mut r = Reader::new(payload);
        let decoded = (|| {
            r.value()?; // the payload's `{`
            let decoded = read_inline_trace(&mut r, &mut |_, inv| invocations.push(inv.clone()))?;
            r.finish()?;
            Ok::<_, JsonError>(decoded)
        })()
        .map_err(|e| format!("bad trace payload: {e}"))?;
        return decoded.map(|()| Trace::from_invocations(invocations));
    }
    let (_, frames) = parse_workload_name(payload)?;
    let mut config = rispp_h264::EncoderConfig::paper_cif();
    config.frames = frames;
    Ok(rispp_h264::EncoderWorkload::generate(&config)
        .trace()
        .clone())
}

/// Reads an inline trace object, its `{` already read, and hands each
/// decoded invocation to `emit` with its index, in order. Only the first
/// `invocations` member is decoded. The first bad invocation is the
/// error; what follows it is only syntax-checked.
fn read_inline_trace<'a>(
    r: &mut Reader<'a>,
    emit: &mut dyn FnMut(usize, &Invocation),
) -> Result<Result<(), String>, JsonError> {
    let mut decoded = None;
    while let Some(key) = r.key()? {
        if &*key == "invocations" {
            first_occurrence(&mut decoded, r, |r, first| read_invocations(r, first, emit))?;
        } else {
            r.skip_value()?;
        }
    }
    Ok(decoded.unwrap_or_else(|| Err("inline trace requires an `invocations` array".into())))
}

fn read_invocations<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    emit: &mut dyn FnMut(usize, &Invocation),
) -> Result<Result<(), String>, JsonError> {
    if !matches!(first, Token::ArrayStart) {
        r.skip(&first)?;
        return Ok(Err("inline trace requires an `invocations` array".into()));
    }
    // One invocation's buffers, reused for every invocation.
    let mut inv = Invocation {
        hot_spot: rispp_monitor::HotSpotId(0),
        prologue_cycles: 0,
        bursts: Vec::new(),
        hints: Vec::new(),
    };
    let mut i = 0;
    while let Some(first) = r.element()? {
        if let Err(e) = read_invocation(r, first, i, &mut inv)? {
            skip_elements(r)?;
            return Ok(Err(e));
        }
        emit(i, &inv);
        i += 1;
    }
    Ok(Ok(()))
}

/// Reads invocation `i` into `inv`. Its members may come in any order;
/// they are checked in a fixed one (`hot_spot`, `prologue_cycles`,
/// `bursts`, `hints`), so an invocation with two bad members always
/// names the same one.
fn read_invocation<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    i: usize,
    inv: &mut Invocation,
) -> Result<Result<(), String>, JsonError> {
    let mut hot_spot = None;
    let mut prologue_cycles = None;
    let mut bursts = None;
    let mut hints = None;
    inv.bursts.clear();
    inv.hints.clear();
    if matches!(first, Token::ObjectStart) {
        while let Some(key) = r.key()? {
            match &*key {
                "hot_spot" => first_occurrence(&mut hot_spot, r, leaf)?,
                "prologue_cycles" => first_occurrence(&mut prologue_cycles, r, leaf)?,
                "bursts" => first_occurrence(&mut bursts, r, |r, first| {
                    read_bursts(r, first, i, &mut inv.bursts)
                })?,
                "hints" => first_occurrence(&mut hints, r, |r, first| {
                    read_hints(r, first, i, &mut inv.hints)
                })?,
                _ => r.skip_value()?,
            }
        }
    } else {
        r.skip(&first)?;
    }
    let Some(hot_spot) = hot_spot
        .and_then(|v| v.as_u64())
        .and_then(|h| u16::try_from(h).ok())
    else {
        return Ok(Err(format!("invocation {i}: bad `hot_spot`")));
    };
    let Some(prologue_cycles) = prologue_cycles.map_or(Some(0), |v| v.as_u64()) else {
        return Ok(Err(format!("invocation {i}: bad `prologue_cycles`")));
    };
    let checked = bursts
        .unwrap_or_else(|| Err(format!("invocation {i}: missing `bursts`")))
        .and(hints.unwrap_or(Ok(())));
    inv.hot_spot = rispp_monitor::HotSpotId(hot_spot);
    inv.prologue_cycles = prologue_cycles;
    Ok(checked)
}

/// Reads an invocation's `bursts`, each an `[si, count, overhead]`
/// triple, into `out`.
fn read_bursts<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    i: usize,
    out: &mut Vec<Burst>,
) -> Result<Result<(), String>, JsonError> {
    if !matches!(first, Token::ArrayStart) {
        r.skip(&first)?;
        return Ok(Err(format!("invocation {i}: missing `bursts`")));
    }
    read_list(r, i, "burst", out, |r, first| {
        Ok(read_tuple(r, first)?
            .ok_or("expected [si,count,overhead]")
            .and_then(burst))
    })
}

/// The burst of an `[si, count, overhead]` triple's integer fields.
fn burst(fields: [Option<u64>; 3]) -> Result<Burst, &'static str> {
    let field = |k: usize| fields[k].ok_or("non-integer field");
    Ok(Burst {
        si: SiId(u16::try_from(field(0)?).map_err(|_| "si out of range")?),
        count: u32::try_from(field(1)?).map_err(|_| "count out of range")?,
        overhead: u32::try_from(field(2)?).map_err(|_| "overhead out of range")?,
    })
}

/// Reads an invocation's `hints`, each an `[si, executions]` pair, into
/// `out`.
fn read_hints<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    i: usize,
    out: &mut Vec<(SiId, u64)>,
) -> Result<Result<(), String>, JsonError> {
    if !matches!(first, Token::ArrayStart) {
        r.skip(&first)?;
        return Ok(Err(format!("invocation {i}: `hints` must be an array")));
    }
    read_list(r, i, "hint", out, |r, first| {
        Ok(read_tuple(r, first)?
            .ok_or("expected [si,executions]")
            .and_then(hint))
    })
}

/// The hint of an `[si, executions]` pair's integer fields.
fn hint([si, executions]: [Option<u64>; 2]) -> Result<(SiId, u64), &'static str> {
    let si = si.and_then(|s| u16::try_from(s).ok()).ok_or("bad si")?;
    Ok((SiId(si), executions.ok_or("bad executions")?))
}

/// Reads the elements of an open array of invocation `i` with `item`
/// into `out`. The first bad element is the error, named `what` and its
/// index; the elements after it are only syntax-checked.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    i: usize,
    what: &str,
    out: &mut Vec<T>,
    item: impl Fn(&mut Reader<'a>, Token<'a>) -> Result<Result<T, &'static str>, JsonError>,
) -> Result<Result<(), String>, JsonError> {
    let mut j = 0;
    while let Some(first) = r.element()? {
        match item(r, first)? {
            Ok(value) => out.push(value),
            Err(why) => {
                skip_elements(r)?;
                return Ok(Err(format!("invocation {i} {what} {j}: {why}")));
            }
        }
        j += 1;
    }
    Ok(Ok(()))
}

/// Reads an array of exactly `N` elements, each as an integer if it is
/// one; `None` for anything else.
fn read_tuple<'a, const N: usize>(
    r: &mut Reader<'a>,
    first: Token<'a>,
) -> Result<Option<[Option<u64>; N]>, JsonError> {
    if !matches!(first, Token::ArrayStart) {
        r.skip(&first)?;
        return Ok(None);
    }
    let mut fields = [None; N];
    let mut len = 0;
    while let Some(first) = r.element()? {
        let value = match first {
            Token::Number(n) => n.as_u64(),
            other => {
                r.skip(&other)?;
                None
            }
        };
        if let Some(field) = fields.get_mut(len) {
            *field = value;
        }
        len += 1;
    }
    Ok((len == N).then_some(fields))
}

/// Reads the rest of an open array.
fn skip_elements(r: &mut Reader<'_>) -> Result<(), JsonError> {
    while let Some(rest) = r.element()? {
        r.skip(&rest)?;
    }
    Ok(())
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
    use rispp_telemetry::JsonValue;

    fn tiny_trace() -> Trace {
        use rispp_monitor::HotSpotId;
        Trace::from_invocations(vec![Invocation {
            hot_spot: HotSpotId(1),
            prologue_cycles: 50,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: 10,
                    overhead: 3,
                },
                Burst {
                    si: SiId(2),
                    count: 7,
                    overhead: 1,
                },
            ],
            hints: vec![(SiId(0), 10), (SiId(2), 7)],
        }])
    }

    /// Parses a submit line with the given `config` and `trace` texts.
    fn submit(config: &str, trace: &str) -> Result<JobSpec, String> {
        let line = format!(r#"{{"op":"submit","id":"t","config":{config},"trace":{trace}}}"#);
        match parse_request(&line)? {
            Request::Submit(spec) => Ok(*spec),
            other => panic!("{line}: {other:?}"),
        }
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
        let decoded = submit(&encoded, r#""fig7""#).unwrap().config;
        assert_eq!(decoded, config);
        // Canonical: encoding the decode reproduces the bytes.
        assert_eq!(encode_config(&decoded), encoded);
        // Every field has a default.
        assert_eq!(
            submit("{}", r#""fig7""#).unwrap().config,
            SimConfig::rispp(15, SchedulerKind::Hef)
        );
    }

    #[test]
    fn config_decode_rejects_bad_fields() {
        for (bad, message) in [
            (r#"{"system":"warp9"}"#, "unknown system `warp9`"),
            (r#"{"containers":-1}"#, "`containers` must be an integer"),
            (r#"{"containers":70000}"#, "`containers` out of range"),
            (r#"{"bucket_cycles":0}"#, "`bucket_cycles` must be positive"),
            (
                r#"{"fault":{"rate_ppm":1000001}}"#,
                "`fault.rate_ppm` must be at most",
            ),
            (r#"{"fault":{"seed":1}}"#, "`fault` requires `rate_ppm`"),
            (r#"{"port_bandwidth":0}"#, "`port_bandwidth` 0"),
        ] {
            let err = submit(bad, r#""fig7""#).unwrap_err();
            assert!(err.starts_with(message), "{bad}: {err}");
        }
        // Fields are checked in a fixed order, whatever order they come in.
        let err = submit(r#"{"detail":1,"containers":"x"}"#, r#""fig7""#).unwrap_err();
        assert_eq!(err, "`containers` must be an integer");
    }

    #[test]
    fn trace_round_trips_and_normalises() {
        let trace = tiny_trace();
        let encoded = encode_trace(&trace);
        assert_eq!(submit("{}", &encoded).unwrap().trace_payload, encoded);
        let back = materialise_trace(&encoded).unwrap();
        assert_eq!(back.invocations(), trace.invocations());
        // Whitespace, member order, defaults and unknown members
        // normalise away.
        let spelled = r#" { "x" : [ {} ] , "invocations" : [ { "hints" : [ [0,10] , [2,7] ],
            "bursts":[[0,10,3],[2,7,1]], "hot_spot":1.0, "prologue_cycles":5e1, "y":null } ] } "#;
        assert_eq!(submit("{}", spelled).unwrap().trace_payload, encoded);
        assert_eq!(
            submit("{}", r#"{"invocations":[{"hot_spot":1,"bursts":[]}]}"#)
                .unwrap()
                .trace_payload,
            r#"{"invocations":[{"hot_spot":1,"prologue_cycles":0,"bursts":[],"hints":[]}]}"#
        );
    }

    #[test]
    fn inline_trace_errors_name_the_first_bad_invocation() {
        for (trace, message) in [
            (
                "[]",
                "`trace` must be a workload name or an inline trace object",
            ),
            ("{}", "inline trace requires an `invocations` array"),
            (
                r#"{"invocations":{}}"#,
                "inline trace requires an `invocations` array",
            ),
            (r#"{"invocations":[7]}"#, "invocation 0: bad `hot_spot`"),
            (
                r#"{"invocations":[{"hot_spot":1}]}"#,
                "invocation 0: missing `bursts`",
            ),
            (
                r#"{"invocations":[{"hot_spot":1,"bursts":[]},{"bursts":[[1,2]],"hot_spot":70000}]}"#,
                "invocation 1: bad `hot_spot`",
            ),
            (
                r#"{"invocations":[{"hot_spot":1,"bursts":[[0,1,2],[0,1,-2]]}]}"#,
                "invocation 0 burst 1: non-integer field",
            ),
            (
                r#"{"invocations":[{"hot_spot":1,"bursts":[[70000,1,2]]}]}"#,
                "invocation 0 burst 0: si out of range",
            ),
            (
                r#"{"invocations":[{"hints":[[1]],"hot_spot":1,"bursts":[]}]}"#,
                "invocation 0 hint 0: expected [si,executions]",
            ),
            (
                r#"{"invocations":[{"hot_spot":1,"bursts":[]},{"hot_spot":1,"bursts":[],"hints":{}}]}"#,
                "invocation 1: `hints` must be an array",
            ),
            (
                r#"{"invocations":[{"hot_spot":1,"bursts":[],"hints":5}]}"#,
                "invocation 0: `hints` must be an array",
            ),
        ] {
            let err = submit("{}", trace).unwrap_err();
            assert_eq!(err, message, "{trace}");
        }
        // Absent `hints` are none.
        assert!(submit("{}", r#"{"invocations":[{"hot_spot":1,"bursts":[]}]}"#).is_ok());
    }

    #[test]
    fn named_workloads_normalise_to_frame_counts() {
        let payload = |name: &str| submit("{}", &format!("{name:?}")).map(|s| s.trace_payload);
        assert_eq!(payload("fig7").unwrap(), "fig7:20");
        assert_eq!(payload("fig7:3").unwrap(), "fig7:3");
        assert_eq!(payload("fig7:140").unwrap(), "fig7:140");
        assert!(payload("fig8").is_err());
        assert!(payload("fig7:0").is_err());
        for too_long in ["fig7:141", "fig7:4294967295"] {
            let err = payload(too_long).unwrap_err();
            assert!(err.contains("between 1 and 140"), "{too_long}: {err}");
        }
    }

    #[test]
    fn the_first_occurrence_of_a_member_wins() {
        let spec = submit(
            r#"{"containers":4,"containers":5,"fault":{"rate_ppm":10,"seed":3,"seed":4}}"#,
            r#""fig7:2","trace":"fig7:3","id":"other""#,
        )
        .unwrap();
        assert_eq!(spec.id, "t");
        assert_eq!(spec.config.containers, 4);
        assert_eq!(spec.config.fault.map(|f| f.seed), Some(3));
        assert_eq!(spec.trace_payload, "fig7:2");
        // `op` may come last, and a non-submit line ignores a bad config.
        assert_eq!(
            parse_request(r#"{"config":{"system":"warp9"},"trace":7,"op":"health"}"#),
            Ok(Request::Health)
        );
        // A repeated key is still syntax-checked.
        assert!(parse_request(r#"{"op":"health","op":[1,}"#)
            .unwrap_err()
            .starts_with("bad JSON"));
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
        assert!(matches!(
            parse_request(r#"{"op":"health"}"#),
            Ok(Request::Health)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"cancel","id":"j"}"#),
            Ok(Request::Cancel { .. })
        ));
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"launch"}"#).is_err());
        assert!(parse_request(r#"{"id":"x"}"#).is_err());
    }

    #[test]
    fn a_refusal_carries_the_first_string_id_of_a_valid_line() {
        let id = |line: &str| decode_request(line).unwrap_err().0;
        assert_eq!(id(r#"{"op":"launch","id":"a","id":"b"}"#), "a");
        assert_eq!(
            id(r#"{"id":"\u0061","op":"submit","config":{"containers":-1}}"#),
            "a"
        );
        assert_eq!(id(r#"{"op":"launch","id":7,"id":"b"}"#), "");
        // A syntax error keeps the id read before it.
        assert_eq!(id(r#"{"op":"launch","id":"a"} x"#), "a");
        assert_eq!(
            id(r#"{"op":"submit","id":"job-a","config":{"containers":08},"trace":"fig7:1"}"#),
            "job-a"
        );
        assert_eq!(id(r#"{"op":"submit","config":08,"id":"job-a"}"#), "");
        assert_eq!(id(r#"{"id":"a\q"}"#), "");
        assert_eq!(id(r#"["id","a"]"#), "");
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
        let rejected = JobOutcome::refused("a", JobStatus::Rejected { queue_depth: 8 });
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
