//! Self-describing flight-recorder diagnostic bundles.
//!
//! A bundle is one JSONL file spilled by a flight recorder when a job
//! dies (panic, deadline timeout, retry exhaustion, poison-listing). It
//! is *self-describing*: the first line names the format, the failure
//! reason and the causal identity (trace id, tenant, attempt), so a
//! bundle can be understood years later without the config that produced
//! it. The layout is:
//!
//! 1. one header line (`{"bundle":"rispp-flight",...}`) — see
//!    [`BundleMeta`];
//! 2. the retained event tail: schema-v4 event rows exactly as the
//!    streaming event log would have written them (bit-identical to the
//!    suffix of a `--log-events` file recorded with the same context);
//! 3. zero or more `{"bundle_section":"explain",...}` lines — compact
//!    renderings of the last retained scheduler decisions;
//! 4. zero or more `{"bundle_section":"journal","entry":{...}}` lines —
//!    the last retained fabric container transitions;
//! 5. an optional `{"bundle_section":"perfetto","trace":{...}}` line
//!    embedding a Chrome trace-event fragment of the retained tail;
//! 6. a final `{"bundle_section":"end","lines":N}` line, so truncated
//!    bundles are detected instead of silently under-reporting.
//!
//! The writer side is string-append only (no I/O here); the reader side
//! ([`Bundle::parse`]) is the foundation of `rispp-cli forensics`.

use std::fmt::Write as _;

use crate::json::{JsonValue, Reader, Token};
use crate::perfetto::escape_json_into;

/// Version of the bundle container format. Independent of the event-log
/// schema version, which is carried per bundle in
/// [`BundleMeta::event_schema_version`].
pub const BUNDLE_FORMAT_VERSION: u32 = 1;

/// The header line of a diagnostic bundle: identity, failure reason and
/// the counters a reader needs to judge completeness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BundleMeta {
    /// Why the bundle was dumped (e.g. `panicked`, `timeout`,
    /// `poisoned`).
    pub reason: String,
    /// The serve-side job id the run belonged to (empty when unknown).
    pub job_id: String,
    /// Causal trace id minted at admission.
    pub trace_id: u64,
    /// Tenant the run was attributed to.
    pub tenant: u16,
    /// Retry attempt the bundle captured.
    pub attempt: u32,
    /// JSONL event-log schema version of the event-tail rows.
    pub event_schema_version: u32,
    /// FNV-1a hash of the job's canonical config encoding (the poison
    /// list and plan-cache namespace key).
    pub config_hash: u64,
    /// Plan-cache hits observed by the run (0 when unavailable).
    pub plan_hits: u64,
    /// Plan-cache misses observed by the run (0 when unavailable).
    pub plan_misses: u64,
    /// Events that fell off the ring before the dump.
    pub events_dropped: u64,
    /// Decision explains that fell off their ring before the dump.
    pub decisions_dropped: u64,
    /// Journal entries that fell off their ring before the dump.
    pub journal_dropped: u64,
}

/// Appends the bundle header line for `meta` to `out`.
pub fn write_bundle_header(out: &mut String, meta: &BundleMeta) {
    out.push_str("{\"bundle\":\"rispp-flight\",\"bundle_version\":");
    let _ = write!(out, "{BUNDLE_FORMAT_VERSION}");
    out.push_str(",\"reason\":\"");
    escape_json_into(&meta.reason, out);
    out.push_str("\",\"job_id\":\"");
    escape_json_into(&meta.job_id, out);
    // config_hash is a full u64; JSON readers parsing numbers as f64
    // would corrupt it above 2^53, so it travels as fixed-width hex.
    let _ = writeln!(
        out,
        "\",\"trace_id\":{},\"tenant\":{},\"attempt\":{},\"event_schema_version\":{},\"config_hash\":\"{:016x}\",\"plan_hits\":{},\"plan_misses\":{},\"events_dropped\":{},\"decisions_dropped\":{},\"journal_dropped\":{}}}",
        meta.trace_id,
        meta.tenant,
        meta.attempt,
        meta.event_schema_version,
        meta.config_hash,
        meta.plan_hits,
        meta.plan_misses,
        meta.events_dropped,
        meta.decisions_dropped,
        meta.journal_dropped,
    );
}

/// Appends one retained-decision line: the decision's cycle and a
/// compact one-line summary.
pub fn write_explain_line(out: &mut String, now: u64, summary: &str) {
    let _ = write!(
        out,
        "{{\"bundle_section\":\"explain\",\"now\":{now},\"summary\":\""
    );
    escape_json_into(summary, out);
    out.push_str("\"}\n");
}

/// Appends one retained-journal line wrapping `row` — a complete JSON
/// object rendered by the event-log writer (without its trailing
/// newline).
pub fn write_journal_line(out: &mut String, row: &str) {
    out.push_str("{\"bundle_section\":\"journal\",\"entry\":");
    out.push_str(row.trim_end());
    out.push_str("}\n");
}

/// Appends the Perfetto-fragment line embedding `trace_json` (a complete
/// Chrome trace-event JSON object). [`crate::TraceBuilder`] output spans
/// multiple lines; the newlines are inter-token whitespace (string
/// contents escape theirs), so they are dropped to keep the bundle one
/// object per line.
pub fn write_perfetto_line(out: &mut String, trace_json: &str) {
    out.push_str("{\"bundle_section\":\"perfetto\",\"trace\":");
    out.extend(
        trace_json
            .trim_end()
            .chars()
            .filter(|&c| c != '\n' && c != '\r'),
    );
    out.push_str("}\n");
}

/// Appends the final end line. `lines` is the number of lines written
/// before it (header + tail + sections); readers use it to detect
/// truncation.
pub fn write_end_line(out: &mut String, lines: usize) {
    let _ = writeln!(out, "{{\"bundle_section\":\"end\",\"lines\":{lines}}}");
}

/// A parsed diagnostic bundle.
#[derive(Debug, Clone, Default)]
pub struct Bundle {
    /// The header metadata.
    pub meta: BundleMeta,
    /// Parsed event-tail rows, in emission order.
    pub events: Vec<JsonValue>,
    /// The raw event-tail lines exactly as written (for bit-identity
    /// checks against `--log-events` suffixes).
    pub event_lines: Vec<String>,
    /// Retained decision summaries as `(cycle, summary)` pairs.
    pub explains: Vec<(u64, String)>,
    /// Parsed retained-journal rows.
    pub journal: Vec<JsonValue>,
    /// The embedded Perfetto fragment, re-serialised, if present.
    pub perfetto: Option<String>,
    /// Whether the end line was present and its line count matched.
    pub complete: bool,
}

/// The header's integer members, in the order they are checked.
const HEADER_NUMBERS: [&str; 10] = [
    "bundle_version",
    "trace_id",
    "tenant",
    "attempt",
    "event_schema_version",
    "plan_hits",
    "plan_misses",
    "events_dropped",
    "decisions_dropped",
    "journal_dropped",
];

/// The header's string members.
const HEADER_STRINGS: [&str; 4] = ["bundle", "reason", "job_id", "config_hash"];

/// Reads the header line with the pull reader, so its integers are exact
/// to `u64::MAX`: a [`JsonValue`] number is an `f64`, which rounds a
/// trace id or a counter above 2^53. The first occurrence of a member
/// counts, as [`JsonValue::get`] has it.
fn parse_header(line: &str) -> Result<BundleMeta, String> {
    let not_json = |e| format!("bundle header is not JSON: {e}");
    let mut numbers: [Option<Option<u64>>; HEADER_NUMBERS.len()] = Default::default();
    let mut strings: [Option<Option<String>>; HEADER_STRINGS.len()] = Default::default();
    let mut r = Reader::new(line);
    let first = r.value().map_err(not_json)?;
    if first == Token::ObjectStart {
        while let Some(key) = r.key().map_err(not_json)? {
            let value = r.value().map_err(not_json)?;
            if let Some(i) = HEADER_NUMBERS.iter().position(|n| *n == key) {
                let number = match &value {
                    Token::Number(n) => n.as_u64(),
                    _ => None,
                };
                numbers[i].get_or_insert(number);
            } else if let Some(i) = HEADER_STRINGS.iter().position(|n| *n == key) {
                let string = match &value {
                    Token::String(s) => Some(s.clone().into_owned()),
                    _ => None,
                };
                strings[i].get_or_insert(string);
            }
            r.skip(&value).map_err(not_json)?;
        }
    } else {
        r.skip(&first).map_err(not_json)?;
    }
    r.finish().map_err(not_json)?;
    let [magic, reason, job_id, config_hash] = strings.map(Option::flatten);
    if magic.as_deref() != Some("rispp-flight") {
        return Err(
            "not a rispp-flight bundle (missing `\"bundle\":\"rispp-flight\"` header)".into(),
        );
    }
    let number = |name: &str| {
        let i = HEADER_NUMBERS
            .iter()
            .position(|n| *n == name)
            .expect("a header number");
        numbers[i]
            .flatten()
            .ok_or_else(|| format!("bundle header missing numeric `{name}`"))
    };
    let version = number("bundle_version")?;
    if version != u64::from(BUNDLE_FORMAT_VERSION) {
        return Err(format!(
            "unsupported bundle_version {version} (this reader understands {BUNDLE_FORMAT_VERSION})"
        ));
    }
    let config_hash_hex = config_hash.ok_or("bundle header missing `config_hash`")?;
    let config_hash = u64::from_str_radix(&config_hash_hex, 16)
        .map_err(|_| format!("bundle config_hash `{config_hash_hex}` is not hex"))?;
    Ok(BundleMeta {
        reason: reason.unwrap_or_default(),
        job_id: job_id.unwrap_or_default(),
        trace_id: number("trace_id")?,
        tenant: u16::try_from(number("tenant")?).map_err(|_| "bundle tenant out of range")?,
        attempt: u32::try_from(number("attempt")?).map_err(|_| "bundle attempt out of range")?,
        event_schema_version: u32::try_from(number("event_schema_version")?)
            .map_err(|_| "bundle event_schema_version out of range")?,
        config_hash,
        plan_hits: number("plan_hits")?,
        plan_misses: number("plan_misses")?,
        events_dropped: number("events_dropped")?,
        decisions_dropped: number("decisions_dropped")?,
        journal_dropped: number("journal_dropped")?,
    })
}

impl Bundle {
    /// Parses a bundle file's text. Fails loudly on a missing or
    /// malformed header, unknown bundle versions, and unparseable lines;
    /// a missing or mismatched end line is reported softly via
    /// [`Bundle::complete`] so a truncated bundle can still be read.
    pub fn parse(text: &str) -> Result<Bundle, String> {
        let mut lines = text.lines();
        let meta = parse_header(lines.next().ok_or("empty bundle")?)?;
        let mut bundle = Bundle {
            meta,
            ..Bundle::default()
        };
        // `seen` counts the lines before the current one (header = 1),
        // so `seen + 1` is the current 1-based line number.
        for (seen, line) in (1usize..).zip(lines) {
            let value =
                JsonValue::parse(line).map_err(|e| format!("bundle line {} : {e}", seen + 1))?;
            match value.get("bundle_section").and_then(JsonValue::as_str) {
                None => {
                    if value.get("event").and_then(JsonValue::as_str).is_none() {
                        return Err(format!(
                            "bundle line {}: neither event nor section",
                            seen + 1
                        ));
                    }
                    bundle.event_lines.push(line.to_owned());
                    bundle.events.push(value);
                }
                Some("explain") => {
                    let now = value
                        .get("now")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("explain line {} missing `now`", seen + 1))?;
                    let summary = value
                        .get("summary")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    bundle.explains.push((now, summary));
                }
                Some("journal") => {
                    let entry = value
                        .get("entry")
                        .cloned()
                        .ok_or_else(|| format!("journal line {} missing `entry`", seen + 1))?;
                    bundle.journal.push(entry);
                }
                Some("perfetto") => {
                    if value.get("trace").is_some() {
                        // Keep the raw embedded object text for re-export.
                        let raw = line
                            .strip_prefix("{\"bundle_section\":\"perfetto\",\"trace\":")
                            .and_then(|rest| rest.strip_suffix('}'))
                            .unwrap_or(line);
                        bundle.perfetto = Some(raw.to_owned());
                    }
                }
                Some("end") => {
                    let lines_before = value.get("lines").and_then(JsonValue::as_u64).unwrap_or(0);
                    bundle.complete = lines_before == seen as u64;
                    return Ok(bundle);
                }
                Some(other) => {
                    return Err(format!(
                        "bundle line {}: unknown section `{other}`",
                        seen + 1
                    ));
                }
            }
        }
        // Ran out of lines without an end marker: truncated.
        bundle.complete = false;
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BundleMeta {
        BundleMeta {
            reason: "panicked".into(),
            job_id: "job-7".into(),
            trace_id: 42,
            tenant: 1,
            attempt: 3,
            event_schema_version: 4,
            config_hash: 0xDEAD_BEEF_0123_4567,
            plan_hits: 10,
            plan_misses: 2,
            events_dropped: 5,
            decisions_dropped: 0,
            journal_dropped: 1,
        }
    }

    fn sample_bundle_text() -> String {
        let mut out = String::new();
        write_bundle_header(&mut out, &meta());
        out.push_str("{\"event\":\"hot_spot_entered\",\"hot_spot\":0,\"now\":0,\"origin\":\"annotated\",\"trace_id\":42,\"trace_tenant\":1,\"attempt\":3}\n");
        out.push_str("{\"event\":\"run_finished\",\"total_cycles\":99,\"reconfigurations\":0,\"reconfiguration_cycles\":0,\"trace_id\":42,\"trace_tenant\":1,\"attempt\":3}\n");
        write_explain_line(&mut out, 55, "decision @ cycle 55: 2 selected, 1 upgrade");
        write_journal_line(
            &mut out,
            "{\"event\":\"container_transition\",\"kind\":\"load_started\",\"container\":0,\"atom\":1,\"at\":5,\"finish\":9}",
        );
        write_perfetto_line(&mut out, "{\"traceEvents\":[]}");
        let lines = out.lines().count();
        write_end_line(&mut out, lines);
        out
    }

    #[test]
    fn bundle_round_trips_through_the_parser() {
        let text = sample_bundle_text();
        let bundle = Bundle::parse(&text).expect("parses");
        assert!(bundle.complete, "end line must validate");
        assert_eq!(bundle.meta, meta());
        assert_eq!(bundle.events.len(), 2);
        assert_eq!(bundle.event_lines.len(), 2);
        assert!(bundle.event_lines[0].contains("\"trace_id\":42"));
        assert_eq!(bundle.explains.len(), 1);
        assert_eq!(bundle.explains[0].0, 55);
        assert_eq!(bundle.journal.len(), 1);
        assert_eq!(
            bundle.journal[0].get("kind").and_then(JsonValue::as_str),
            Some("load_started")
        );
        assert_eq!(bundle.perfetto.as_deref(), Some("{\"traceEvents\":[]}"));
    }

    #[test]
    fn truncated_bundle_reads_but_reports_incomplete() {
        let text = sample_bundle_text();
        // Drop the end line.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("\"end\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let bundle = Bundle::parse(&truncated).expect("still parses");
        assert!(!bundle.complete);
        assert_eq!(bundle.events.len(), 2);
    }

    #[test]
    fn wrong_magic_and_version_fail_loudly() {
        assert!(Bundle::parse("").is_err());
        assert!(Bundle::parse("{\"event\":\"schema\"}").is_err());
        let mut m = meta();
        m.reason = "x".into();
        let mut out = String::new();
        write_bundle_header(&mut out, &m);
        let bad = out.replace("\"bundle_version\":1", "\"bundle_version\":999");
        let err = Bundle::parse(&bad).unwrap_err();
        assert!(err.contains("unsupported bundle_version 999"), "{err}");
    }

    #[test]
    fn config_hash_survives_the_hex_round_trip() {
        let mut out = String::new();
        let mut m = meta();
        m.config_hash = u64::MAX; // would corrupt through f64
        write_bundle_header(&mut out, &m);
        write_end_line(&mut out, 1);
        let bundle = Bundle::parse(&out).expect("parses");
        assert_eq!(bundle.meta.config_hash, u64::MAX);
    }

    #[test]
    fn header_integers_are_exact_past_2_pow_53() {
        let mut m = meta();
        m.trace_id = u64::MAX;
        m.plan_hits = (1 << 53) + 1;
        m.plan_misses = u64::MAX - 1;
        m.events_dropped = (1 << 60) + 7;
        let mut out = String::new();
        write_bundle_header(&mut out, &m);
        write_end_line(&mut out, 1);
        assert_eq!(Bundle::parse(&out).expect("parses").meta, m);
    }
}
