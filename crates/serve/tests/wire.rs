//! The NDJSON wire decoder against the JSON-tree decoder it replaced.
//!
//! `parse_request` decodes a line in one pass of the telemetry crate's
//! pull reader. `reference` below is the earlier decoder: parse the line
//! into a `JsonValue` tree, walk the tree into a config and a trace,
//! re-encode the trace. It is kept as it was but for three refusals both
//! now make: numbers outside RFC 8259 (`08`, `1.`; the shared reader
//! refuses them as syntax), a `config` that is not an object and `hints`
//! that are not an array. The tree holds numbers as `f64`, so the
//! two are compared where that is exact: on lines whose every number reads
//! the same both ways (integers below 2^53). There they must return the
//! same request or the same refusal, on generated submit lines (shuffled
//! members and whitespace, unknown and duplicate members, escaped keys and
//! ids, inline traces with and without hints, named workloads with
//! out-of-range frame counts), on their truncations and on single-byte
//! mutations. Every line, arbitrary bytes included, must decode without a
//! panic, and every accepted inline payload must be the canonical
//! encoding of the trace it materialises to. Exact integers beyond 2^53
//! are checked by round trips of `encode_submit`.

use proptest::prelude::*;
use rispp_core::SchedulerKind;
use rispp_model::SiId;
use rispp_monitor::HotSpotId;
use rispp_serve::{
    encode_submit, encode_trace, materialise_trace, parse_request, JobSpec, Request,
};
use rispp_sim::{Burst, FaultConfig, Invocation, SimConfig, Trace};
use rispp_telemetry::json::{Reader, Token};
use rispp_telemetry::JsonValue;

/// The tree-based decoder that `parse_request` replaced.
mod reference {
    use std::fmt::Write as _;

    use rispp_model::SiId;
    use rispp_serve::{validate_config, JobSpec, Request};
    use rispp_sim::{Burst, FaultConfig, Invocation, SimConfig, SystemKind, Trace};
    use rispp_telemetry::JsonValue;

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
        let trace_payload =
            canonical_trace_payload(value.get("trace").ok_or("submit requires a `trace`")?)?;
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("`deadline_ms` must be a non-negative integer")?,
            ),
        };
        let chaos_panics = match value.get("chaos_panics") {
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

    fn decode_config(value: &JsonValue) -> Result<SimConfig, String> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err("`config` must be an object".into());
        }
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
        validate_config(&config)?;
        Ok(config)
    }

    fn encode_trace(trace: &Trace) -> String {
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

    fn canonical_trace_payload(value: &JsonValue) -> Result<String, String> {
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
                let triple = b.as_array().filter(|t| t.len() == 3).ok_or_else(|| {
                    format!("invocation {i} burst {j}: expected [si,count,overhead]")
                })?;
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
            if let Some(pairs) = inv.get("hints") {
                let pairs = pairs
                    .as_array()
                    .ok_or_else(|| format!("invocation {i}: `hints` must be an array"))?;
                for (j, h) in pairs.iter().enumerate() {
                    let pair = h.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                        format!("invocation {i} hint {j}: expected [si,executions]")
                    })?;
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
}

/// SplitMix64: the line generator's source of choices.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "  ", "\t", "\n", "\r\n "])
    }

    /// A whole number below 2^53, spelled one of the ways JSON allows.
    fn num(&mut self, value: u64) -> String {
        match self.below(10) {
            0 => format!("{value}.0"),
            1 => format!("{value}e0"),
            2 if value > 0 => format!("{value}0E-1"),
            3 if value == 0 => "-0".into(),
            4 if value > 0 => format!("{value}00e-2"),
            _ => value.to_string(),
        }
    }

    /// A value that no integer field accepts; the last four are numbers
    /// in Rust's float grammar but not in RFC 8259's.
    fn not_an_integer(&mut self) -> String {
        self.pick(&[
            "-1", "1.5", "1e-1", "\"7\"", "null", "true", "[1]", "{}", "08", "1.", "-.5", "1.e5",
        ])
        .into()
    }

    /// An integer field's value: usually `good`, sometimes not an integer.
    fn int(&mut self, good: u64) -> String {
        if self.chance(4) {
            self.not_an_integer()
        } else {
            self.num(good)
        }
    }

    /// A JSON string literal for `s`, with some characters escaped.
    fn string(&mut self, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c.is_ascii_alphanumeric() && self.chance(5) => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                '/' if self.chance(50) => out.push_str("\\/"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A nested value of no interest to the decoder.
    fn junk(&mut self) -> String {
        self.pick(&[
            "null",
            "[]",
            "{}",
            r#"[1,{"a":[2,"x"]},true]"#,
            r#"{"op":"health","invocations":[],"seed":1e400}"#,
            r#""😀""#,
            "-12.5e-3",
        ])
        .into()
    }

    /// An object of `members`, shuffled, with random whitespace and an
    /// occasional unknown member. A member may be listed twice.
    fn object(&mut self, mut members: Vec<(&str, String)>) -> String {
        if self.chance(20) {
            let junk = self.junk();
            members.push(("x-unknown", junk));
        }
        for i in (1..members.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            members.swap(i, j);
        }
        let mut out = format!("{{{}", self.ws());
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(&format!(",{}", self.ws()));
            }
            let key = self.string(key);
            let (a, b, c) = (self.ws(), self.ws(), self.ws());
            out.push_str(&format!("{key}{a}:{b}{value}{c}"));
        }
        out.push('}');
        out
    }

    /// An array of `items` with random whitespace.
    fn array(&mut self, items: Vec<String>) -> String {
        let mut out = format!("[{}", self.ws());
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ws = self.ws();
            out.push_str(&format!("{ws}{item}"));
        }
        out.push(']');
        out
    }

    /// Adds `key` with `percent` chance, occasionally twice with
    /// independently drawn values.
    fn member<'k>(
        &mut self,
        members: &mut Vec<(&'k str, String)>,
        key: &'k str,
        percent: u64,
        mut value: impl FnMut(&mut Gen) -> String,
    ) {
        if self.chance(percent) {
            let copies = if self.chance(15) { 2 } else { 1 };
            for _ in 0..copies {
                let v = value(self);
                members.push((key, v));
            }
        }
    }

    fn config(&mut self) -> String {
        if self.chance(5) {
            return self
                .pick(&["null", "5", r#"[1,{"a":2}]"#, r#""hef""#])
                .into();
        }
        let mut m = Vec::new();
        self.member(&mut m, "containers", 80, |g| {
            let n = if g.chance(5) {
                g.pick(&[65_536, 70_000])
            } else {
                g.pick(&[0, 4, 8, 15, 24, 65_535])
            };
            g.int(n)
        });
        self.member(&mut m, "system", 60, |g| {
            if g.chance(5) {
                return "5".into();
            }
            let name = g.pick(&["hef", "asf", "fsfr", "sjf", "molen", "onechip", "software"]);
            let name = if g.chance(5) { "warp9" } else { name };
            g.string(name)
        });
        self.member(&mut m, "detail", 30, |g| {
            let bad = g.chance(5);
            g.pick(if bad {
                &["1", "null"]
            } else {
                &["true", "false"]
            })
            .into()
        });
        self.member(&mut m, "bucket_cycles", 30, |g| {
            let n = if g.chance(5) {
                0
            } else {
                g.pick(&[1, 100_000, (1 << 53) - 1])
            };
            g.int(n)
        });
        self.member(&mut m, "oracle", 20, |g| {
            let bad = g.chance(5);
            g.pick(if bad {
                &["0", "\"true\""]
            } else {
                &["true", "false"]
            })
            .into()
        });
        self.member(&mut m, "port_bandwidth", 30, |g| {
            if g.chance(20) {
                return "null".into();
            }
            let n = if g.chance(5) {
                0
            } else {
                g.pick(&[1, 12_500_000])
            };
            g.int(n)
        });
        self.member(&mut m, "fault", 30, |g| {
            if g.chance(10) {
                return "null".into();
            }
            if g.chance(3) {
                return "7".into();
            }
            let mut f = Vec::new();
            g.member(&mut f, "rate_ppm", 95, |g| {
                let n = if g.chance(5) {
                    g.pick(&[1_000_001, 1 << 32])
                } else {
                    g.pick(&[0, 10_000, 1_000_000])
                };
                g.int(n)
            });
            g.member(&mut f, "seed", 70, |g| {
                let n = g.below(1 << 53);
                g.int(n)
            });
            g.member(&mut f, "max_retries", 40, |g| {
                let n = if g.chance(5) { 1 << 32 } else { g.below(8) };
                g.int(n)
            });
            g.object(f)
        });
        self.object(m)
    }

    fn trace(&mut self) -> String {
        match self.below(10) {
            0..=3 => {
                let frames = self.below(300);
                let name = match self.below(6) {
                    0 => "fig7".to_string(),
                    1 => "fig8".to_string(),
                    2 => "fig7:x".to_string(),
                    _ => format!("fig7:{frames}"),
                };
                self.string(&name)
            }
            4..=8 => self.inline_trace(),
            _ => self.pick(&["5", "null", "[1]"]).into(),
        }
    }

    fn inline_trace(&mut self) -> String {
        let mut m = Vec::new();
        self.member(&mut m, "invocations", 95, |g| {
            if g.chance(5) {
                return "{}".into();
            }
            let items = (0..g.below(4)).map(|_| g.invocation()).collect();
            g.array(items)
        });
        self.object(m)
    }

    fn invocation(&mut self) -> String {
        if self.chance(3) {
            return "3".into();
        }
        let mut m = Vec::new();
        self.member(&mut m, "hot_spot", 95, |g| {
            let n = if g.chance(3) { 65_536 } else { g.below(3) };
            g.int(n)
        });
        self.member(&mut m, "prologue_cycles", 70, |g| {
            let n = g.below(1 << 40);
            g.int(n)
        });
        self.member(&mut m, "bursts", 95, |g| {
            if g.chance(3) {
                return "null".into();
            }
            let items = (0..g.below(4)).map(|_| g.burst()).collect();
            g.array(items)
        });
        self.member(&mut m, "hints", 60, |g| {
            if g.chance(10) {
                return g.pick(&["null", "5", "{}"]).into();
            }
            let items = (0..g.below(3)).map(|_| g.hint()).collect();
            g.array(items)
        });
        self.object(m)
    }

    fn burst(&mut self) -> String {
        if self.chance(5) {
            return self
                .pick(&["[1,2]", "[1,2,3,4]", r#"[1,"2",3]"#, "{}", "[]"])
                .into();
        }
        let si = if self.chance(3) {
            70_000
        } else {
            self.below(12)
        };
        let count = if self.chance(3) {
            1 << 32
        } else {
            self.below(1_000)
        };
        let overhead = self.below(20);
        let items = vec![self.int(si), self.int(count), self.int(overhead)];
        self.array(items)
    }

    fn hint(&mut self) -> String {
        if self.chance(5) {
            return self.pick(&["[1]", "[1,2,3]", "7"]).into();
        }
        let si = if self.chance(3) {
            70_000
        } else {
            self.below(12)
        };
        let executions = self.below(1 << 53);
        let items = vec![self.int(si), self.int(executions)];
        self.array(items)
    }

    /// A request line, usually a submit.
    fn line(&mut self) -> String {
        if self.chance(3) {
            return self.pick(&["[]", "\"submit\"", "7", "null"]).into();
        }
        let mut m = Vec::new();
        self.member(&mut m, "op", 97, |g| {
            if g.chance(80) {
                return g.string("submit");
            }
            if g.chance(10) {
                return "1".into();
            }
            let op = g.pick(&["cancel", "health", "metrics", "shutdown", "launch"]);
            g.string(op)
        });
        self.member(&mut m, "id", 95, |g| {
            if g.chance(5) {
                return "42".into();
            }
            let id = g.pick(&[
                "job-1",
                "a \"quoted\" id",
                "back\\slash/é",
                "line\nbreak",
                "",
            ]);
            g.string(id)
        });
        self.member(&mut m, "config", 95, Gen::config);
        self.member(&mut m, "trace", 95, Gen::trace);
        self.member(&mut m, "deadline_ms", 30, |g| {
            if g.chance(20) {
                return "null".into();
            }
            let n = g.below(1_000_000);
            g.int(n)
        });
        self.member(&mut m, "chaos_panics", 15, |g| {
            let n = g.pick(&[0, 2, 1 << 32]);
            g.int(n)
        });
        let line = self.object(m);
        let (a, b) = (self.ws(), self.ws());
        format!("{a}{line}{b}")
    }
}

/// Whether every number of `line` (up to its first syntax error) reads
/// the same exactly and through the tree's `f64`.
fn numbers_agree(line: &str) -> bool {
    let mut r = Reader::new(line);
    while let Ok(Some(token)) = r.next_token() {
        if let Token::Number(n) = token {
            if n.as_u64() != JsonValue::Number(n.as_f64()).as_u64() {
                return false;
            }
        }
    }
    true
}

/// Decodes `line` (which must not panic), checks an accepted inline
/// payload against the trace it materialises to, and compares the
/// decode with the reference where the reference is exact.
fn check(line: &str) {
    let decoded = parse_request(line);
    if let Ok(Request::Submit(spec)) = &decoded {
        if spec.trace_payload.starts_with('{') {
            let trace = materialise_trace(&spec.trace_payload)
                .unwrap_or_else(|e| panic!("{line}: accepted payload fails: {e}"));
            assert_eq!(encode_trace(&trace), spec.trace_payload, "{line}");
        }
    }
    if numbers_agree(line) {
        assert_eq!(decoded, reference::parse_request(line), "{line}");
    }
}

/// The largest char boundary of `line` at or below `at`.
fn floor_boundary(line: &str, mut at: usize) -> usize {
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_one_pass_decoder_agrees_with_the_tree(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let line = g.line();
        check(&line);
        for _ in 0..4 {
            let cut = floor_boundary(&line, g.below(line.len() as u64 + 1) as usize);
            check(&line[..cut]);
        }
        let mut bytes = line.clone().into_bytes();
        for _ in 0..12 {
            let at = g.below(bytes.len() as u64) as usize;
            if !bytes[at].is_ascii() {
                continue;
            }
            let was = bytes[at];
            bytes[at] = g.pick(b"{}[]\",:0123456789-+.eE \t\\/untrfalsx");
            check(std::str::from_utf8(&bytes).expect("ASCII swapped for ASCII"));
            bytes[at] = was;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96), seed in any::<u64>()) {
        check(&String::from_utf8_lossy(&bytes));
        // Bytes drawn from JSON's own alphabet reach deeper.
        let mut g = Gen(seed);
        let alphabet = b"{}[]\",:0123456789-.eE \\unlltrue";
        let json_ish: String = bytes.iter().map(|_| char::from(g.pick(alphabet))).collect();
        check(&json_ish);
        let _ = materialise_trace(&format!("{{{json_ish}"));
    }

    #[test]
    fn submit_lines_round_trip_exactly(
        values in prop::collection::vec(any::<u64>(), 8),
        small in prop::collection::vec(any::<u32>(), 4),
        with_hints in any::<bool>(),
    ) {
        let fault = FaultConfig {
            rate_ppm: small[0] % 1_000_001,
            seed: values[0],
            max_retries: small[1],
        };
        let mut config = SimConfig::rispp(small[2] as u16, SchedulerKind::Asf).with_fault(fault);
        config.bucket_cycles = values[1].max(1);
        config.port_bandwidth = Some(values[2].max(1));
        let trace = Trace::from_invocations(vec![Invocation {
            hot_spot: HotSpotId(small[3] as u16),
            prologue_cycles: values[3],
            bursts: vec![Burst { si: SiId(small[0] as u16), count: small[1], overhead: small[2] }],
            hints: if with_hints { vec![(SiId(small[3] as u16), values[4])] } else { Vec::new() },
        }]);
        let spec = JobSpec {
            id: format!("job-{}", values[5]),
            config,
            trace_payload: encode_trace(&trace),
            deadline_ms: Some(values[6]),
            chaos_panics: small[3],
        };
        let line = encode_submit(&spec);
        check(&line);
        prop_assert_eq!(parse_request(&line), Ok(Request::Submit(Box::new(spec.clone()))));
        prop_assert_eq!(materialise_trace(&spec.trace_payload), Ok(trace));
    }
}

#[test]
fn wire_integers_are_exact_to_u64_max() {
    for seed in [(1 << 53) + 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
        let spec = JobSpec {
            id: "exact".into(),
            config: SimConfig::rispp(8, SchedulerKind::Hef).with_fault(FaultConfig {
                rate_ppm: 10_000,
                seed,
                max_retries: 3,
            }),
            trace_payload: "fig7:2".into(),
            deadline_ms: Some(seed),
            chaos_panics: 0,
        };
        assert_eq!(
            parse_request(&encode_submit(&spec)),
            Ok(Request::Submit(Box::new(spec)))
        );
    }
    let line = r#"{"op":"submit","id":"big","config":{"fault":{"rate_ppm":1,"seed":18446744073709551616}},"trace":"fig7"}"#;
    assert_eq!(
        parse_request(line),
        Err("`fault.seed` must be an integer".into())
    );
}

#[test]
fn a_line_that_is_not_an_object_is_refused_by_its_syntax_first() {
    assert_eq!(
        parse_request(&"[".repeat(10_000)),
        Err("bad JSON: JSON error at byte 128: arrays and objects nested too deeply".into())
    );
    assert_eq!(parse_request("[1,2]"), Err("missing `op` field".into()));
}
