//! Incremental Chrome trace-event JSON writer.
//!
//! Emits the legacy "JSON Array Format" that both `chrome://tracing` and
//! Perfetto (<https://ui.perfetto.dev>) load directly: an object with a
//! `traceEvents` array of `ph: "X"` (complete/duration), `ph: "i"`
//! (instant), `ph: "C"` (counter) and `ph: "M"` (metadata) events.
//!
//! Timestamps (`ts`) and durations (`dur`) are microseconds in the trace
//! format; the simulator maps **1 simulated cycle to 1 µs**, so a span of
//! 4 000 cycles reads as 4 ms on the Perfetto timeline. Tracks are
//! addressed by `(pid, tid)` pairs and named with metadata events.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal, appending to
/// `out` (no surrounding quotes).
pub fn escape_json_into(s: &str, out: &mut String) {
    // Every byte of a multi-byte UTF-8 scalar is >= 0x80, so a string
    // with no quote, backslash or control byte needs no escaping at all.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// Appends the decimal digits of `value` to `out`: the same text as
/// `value.to_string()`, without going through `core::fmt`.
pub fn push_u64(out: &mut String, mut value: u64) {
    // Track ids and Molecule variant indices are mostly one digit.
    if value < 10 {
        out.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while value > 0 {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Builds a Chrome trace-event JSON document incrementally.
///
/// ```
/// use rispp_telemetry::TraceBuilder;
/// let mut t = TraceBuilder::new();
/// t.process_name(1, "Atom Containers");
/// t.thread_name(1, 0, "AC0");
/// t.complete(1, 0, "load Atom3", 100, 4_000);
/// t.instant(1, 0, "quarantined", 9_000);
/// let json = t.finish();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    out: String,
    any: bool,
    events: usize,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceBuilder {
            out: String::from("{\"traceEvents\":[\n"),
            any: false,
            events: 0,
        }
    }

    /// Number of events emitted so far (metadata included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no events have been emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    fn sep(&mut self) {
        if self.any {
            self.out.push_str(",\n");
        }
        self.any = true;
        self.events += 1;
    }

    /// Names the process (track group) `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.sep();
        self.out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        let _ = write!(self.out, "{pid},\"tid\":0,\"args\":{{\"name\":\"");
        escape_json_into(name, &mut self.out);
        self.out.push_str("\"}}");
    }

    /// Names the thread (track) `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.sep();
        self.out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        let _ = write!(self.out, "{pid},\"tid\":{tid},\"args\":{{\"name\":\"");
        escape_json_into(name, &mut self.out);
        self.out.push_str("\"}}");
    }

    /// Emits a complete (`ph: "X"`) span of `dur` cycles starting at `ts`.
    pub fn complete(&mut self, pid: u64, tid: u64, name: &str, ts: u64, dur: u64) {
        self.complete_with_args(pid, tid, name, ts, dur, None);
    }

    /// Emits a complete span with an optional pre-rendered JSON `args`
    /// object (must be a valid JSON object literal, e.g. `{"si":3}`).
    pub fn complete_with_args(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts: u64,
        dur: u64,
        args_json: Option<&str>,
    ) {
        // The hot span writer (one call per burst segment): integers go
        // through `push_u64`, not `core::fmt`.
        self.sep();
        self.out.push_str("{\"ph\":\"X\",\"name\":\"");
        escape_json_into(name, &mut self.out);
        self.out.push_str("\",\"pid\":");
        push_u64(&mut self.out, pid);
        self.out.push_str(",\"tid\":");
        push_u64(&mut self.out, tid);
        self.out.push_str(",\"ts\":");
        push_u64(&mut self.out, ts);
        self.out.push_str(",\"dur\":");
        push_u64(&mut self.out, dur);
        if let Some(args) = args_json {
            self.out.push_str(",\"args\":");
            self.out.push_str(args);
        }
        self.out.push('}');
    }

    /// Emits a thread-scoped instant (`ph: "i"`) event at `ts`.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, ts: u64) {
        self.instant_with_args(pid, tid, name, ts, None);
    }

    /// Emits an instant event with an optional pre-rendered JSON `args`
    /// object.
    pub fn instant_with_args(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts: u64,
        args_json: Option<&str>,
    ) {
        self.sep();
        self.out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        escape_json_into(name, &mut self.out);
        let _ = write!(self.out, "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
        if let Some(args) = args_json {
            let _ = write!(self.out, ",\"args\":{args}");
        }
        self.out.push('}');
    }

    /// Emits a counter (`ph: "C"`) sample: one stacked series per
    /// `(name, value)` pair in `series`.
    pub fn counter(&mut self, pid: u64, name: &str, ts: u64, series: &[(&str, u64)]) {
        self.sep();
        self.out.push_str("{\"ph\":\"C\",\"name\":\"");
        escape_json_into(name, &mut self.out);
        let _ = write!(self.out, "\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"args\":{{");
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push('"');
            escape_json_into(k, &mut self.out);
            let _ = write!(self.out, "\":{v}");
        }
        self.out.push_str("}}");
    }

    /// Closes the document and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn builds_parseable_trace() {
        let mut t = TraceBuilder::new();
        t.process_name(1, "Atom \"Containers\"");
        t.thread_name(1, 2, "AC2");
        t.complete_with_args(1, 2, "load Atom3", 10, 400, Some("{\"atom\":3}"));
        t.instant(1, 2, "quarantined", 900);
        t.counter(1, "port busy", 0, &[("busy", 1)]);
        assert_eq!(t.len(), 5);
        let doc = JsonValue::parse(&t.finish()).expect("trace must parse");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("M"));
        assert_eq!(
            events[2].get("dur").and_then(JsonValue::as_u64),
            Some(400)
        );
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("atom")).and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape_json_into("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    /// Escapes one char at a time, with no fast path.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_fast_path_matches_per_char_escaping() {
        for s in [
            "",
            "AC3",
            "v2 ×1024",
            "software ×7",
            "é ü 😀 \u{7f}\u{80}",
            "quote \" inside",
            "back\\slash",
            "tab\tnew\nline\rreturn",
            "\u{0}\u{1}\u{1f}",
            "v1 ×3\"\\\n😀",
        ] {
            let mut out = String::from("prefix");
            escape_json_into(s, &mut out);
            assert_eq!(out, format!("prefix{}", escape_per_char(s)), "{s:?}");
        }
    }

    #[test]
    fn push_u64_writes_decimal_digits() {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let power = 10u64.pow(k);
            values.extend([power - 1, power, power + 1]);
        }
        for value in values {
            let mut out = String::from("x");
            push_u64(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
    }

    #[test]
    fn empty_trace_still_parses() {
        let doc = JsonValue::parse(&TraceBuilder::new().finish()).unwrap();
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert!(events.is_empty());
    }
}
