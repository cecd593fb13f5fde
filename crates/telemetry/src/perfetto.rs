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
//!
//! Every event is built in a fixed line buffer and appended to the
//! document with one `push_str`: literal pieces have constant length, and
//! integers are written in place, two digits at a time, after counting
//! their digits. The hottest event, one span per SI burst segment, has a
//! typed entry point ([`TraceBuilder::segment_span`]), so its name and
//! args are never composed as strings; the head of its name goes to the
//! document as text and the rest, all ASCII, through the line.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal, appending to
/// `out` (no surrounding quotes).
pub fn escape_json_into(s: &str, out: &mut String) {
    // Every byte of a multi-byte UTF-8 scalar is >= 0x80, so a string
    // with no quote, backslash or control byte needs no escaping at all.
    if !needs_escape(s) {
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

/// `"00"`, `"01"`, …, `"99"`: the two decimal digits of every value
/// below 100, so integers are written two digits at a time.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Decimal digits of `u64::MAX`, the longest integer written.
const U64_DIGITS: usize = 20;

/// Number of decimal digits of `value` (1 for 0).
fn digit_count(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes the decimal digits of `value` into `out`, which holds exactly
/// [`digit_count`]`(value)` bytes, two at a time from the last.
fn write_digits(out: &mut [u8], mut value: u64) {
    let mut end = out.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if value >= 10 {
        let pair = value as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + value as u8;
    }
}

/// Appends the decimal digits of `value` to `out`: the same text as
/// `value.to_string()`, without going through `core::fmt`.
pub fn push_u64(out: &mut String, value: u64) {
    if value < 10 {
        out.push(char::from(b'0' + value as u8));
        return;
    }
    let mut digits = [0u8; U64_DIGITS];
    let len = digit_count(value);
    write_digits(&mut digits[..len], value);
    out.push_str(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
}

/// Bytes one event is built in. Every event the simulator writes fits, so
/// each reaches the document with one `push_str`; a longer one is
/// appended in several, with the same text.
const LINE_BYTES: usize = 256;

/// The most bytes [`TraceBuilder::segment_span`] writes into the line,
/// everything after the span's name head (every integer at 20 digits), so
/// it fills an empty line without checking for room.
const SEGMENT_LINE_BYTES: usize = 205;

const _: () = assert!(SEGMENT_LINE_BYTES <= LINE_BYTES);

/// One event under construction in the builder's line buffer: literal
/// pieces are copied in, integers written in place, and [`Line::finish`]
/// appends the whole event to the document at once.
///
/// `put` and `put_int` assume room (a miscount panics on the slice
/// bound); `text` and `int` make it first.
struct Line<'a> {
    out: &'a mut String,
    buf: &'a mut [u8; LINE_BYTES],
    len: usize,
}

impl Line<'_> {
    /// Copies `bytes` in.
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    /// Writes the decimal digits of `value` in place.
    fn put_int(&mut self, value: u64) -> &mut Self {
        if value < 10 {
            self.buf[self.len] = b'0' + value as u8;
            self.len += 1;
        } else {
            let len = digit_count(value);
            write_digits(&mut self.buf[self.len..self.len + len], value);
            self.len += len;
        }
        self
    }

    /// Flushes the line unless `len` more bytes fit.
    fn room(&mut self, len: usize) -> &mut Self {
        if self.len + len > LINE_BYTES {
            self.flush();
        }
        self
    }

    /// Appends `text` as it is, however long.
    fn text(&mut self, text: &str) -> &mut Self {
        if text.len() > LINE_BYTES {
            self.flush();
            self.out.push_str(text);
            return self;
        }
        self.room(text.len()).put(text.as_bytes())
    }

    /// Appends `text` escaped for a JSON string literal.
    fn escaped(&mut self, text: &str) -> &mut Self {
        if needs_escape(text) {
            self.flush();
            escape_json_into(text, self.out);
            self
        } else {
            self.text(text)
        }
    }

    /// Appends the decimal digits of `value`.
    fn int(&mut self, value: u64) -> &mut Self {
        self.room(U64_DIGITS).put_int(value)
    }

    /// Moves the buffered bytes to the document.
    fn flush(&mut self) {
        // The buffer holds whole `&str` pieces and ASCII digits only.
        let text = std::str::from_utf8(&self.buf[..self.len]).expect("whole UTF-8 pieces");
        self.out.push_str(text);
        self.len = 0;
    }

    /// Appends the event to the document.
    fn finish(mut self) {
        self.flush();
    }
}

/// Whether `s` holds a byte that a JSON string literal must escape.
fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// One burst segment of a Special Instruction, the typed payload of
/// [`TraceBuilder::segment_span`]: `count` executions at `latency` cycles
/// each on Molecule `variant` (`None`: the software trap), spanning `dur`
/// cycles from `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// The Molecule variant, or `None` for the software path.
    pub variant: Option<usize>,
    /// Executions in the segment.
    pub count: u64,
    /// Cycles per execution.
    pub latency: u32,
    /// Whether the segment ran on accelerating hardware.
    pub hardware: bool,
    /// Start cycle.
    pub ts: u64,
    /// Length in cycles.
    pub dur: u64,
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
    /// The event being written (see [`Line`]). A buffer on the stack
    /// would be zeroed for every event.
    line: [u8; LINE_BYTES],
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
            line: [0; LINE_BYTES],
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

    /// Starts the next event, separator included.
    fn event(&mut self) -> Line<'_> {
        let first = !self.any;
        self.any = true;
        self.events += 1;
        let mut line = Line {
            out: &mut self.out,
            buf: &mut self.line,
            len: 0,
        };
        if !first {
            line.put(b",\n");
        }
        line
    }

    /// Names the process (track group) `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut line = self.event();
        line.text("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
            .int(pid)
            .text(",\"tid\":0,\"args\":{\"name\":\"")
            .escaped(name)
            .text("\"}}");
        line.finish();
    }

    /// Names the thread (track) `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut line = self.event();
        line.text("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
            .int(pid)
            .text(",\"tid\":")
            .int(tid)
            .text(",\"args\":{\"name\":\"")
            .escaped(name)
            .text("\"}}");
        line.finish();
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
        let mut line = self.event();
        line.text("{\"ph\":\"X\",\"name\":\"")
            .escaped(name)
            .text("\",\"pid\":")
            .int(pid)
            .text(",\"tid\":")
            .int(tid)
            .text(",\"ts\":")
            .int(ts)
            .text(",\"dur\":")
            .int(dur);
        if let Some(args) = args_json {
            line.text(",\"args\":").text(args);
        }
        line.text("}");
        line.finish();
    }

    /// Emits the complete span of one SI burst segment on track
    /// `(pid, tid)`: named `v{variant} ×{count}` (`software ×{count}`
    /// without a variant), with `count`, `latency` and `hardware` as its
    /// args. The same text as [`complete_with_args`](Self::complete_with_args)
    /// with that name and args, written without composing either.
    pub fn segment_span(&mut self, pid: u64, tid: u64, span: SegmentSpan) {
        // The name's head, which holds the span's one non-ASCII character,
        // goes to the document as text. The rest is ASCII, which
        // `str::from_utf8` checks in word-sized steps: a line with `×`
        // in it took 16 ns to check, one without 7 ns.
        if std::mem::replace(&mut self.any, true) {
            self.out.push_str(",\n");
        }
        self.events += 1;
        match span.variant {
            Some(variant) => {
                self.out.push_str("{\"ph\":\"X\",\"name\":\"v");
                push_u64(&mut self.out, variant as u64);
                self.out.push_str(" ×");
            }
            None => self.out.push_str("{\"ph\":\"X\",\"name\":\"software ×"),
        }
        // At most `SEGMENT_LINE_BYTES`: no room checks.
        let mut line = Line {
            out: &mut self.out,
            buf: &mut self.line,
            len: 0,
        };
        line.put_int(span.count)
            .put(b"\",\"pid\":")
            .put_int(pid)
            .put(b",\"tid\":")
            .put_int(tid)
            .put(b",\"ts\":")
            .put_int(span.ts)
            .put(b",\"dur\":")
            .put_int(span.dur)
            .put(b",\"args\":{\"count\":")
            .put_int(span.count)
            .put(b",\"latency\":")
            .put_int(u64::from(span.latency))
            .put(if span.hardware {
                b",\"hardware\":true}}"
            } else {
                b",\"hardware\":false}}"
            });
        line.finish();
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
        let mut line = self.event();
        line.text("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"")
            .escaped(name)
            .text("\",\"pid\":")
            .int(pid)
            .text(",\"tid\":")
            .int(tid)
            .text(",\"ts\":")
            .int(ts);
        if let Some(args) = args_json {
            line.text(",\"args\":").text(args);
        }
        line.text("}");
        line.finish();
    }

    /// Emits a counter (`ph: "C"`) sample: one stacked series per
    /// `(name, value)` pair in `series`.
    pub fn counter(&mut self, pid: u64, name: &str, ts: u64, series: &[(&str, u64)]) {
        let mut line = self.event();
        line.text("{\"ph\":\"C\",\"name\":\"")
            .escaped(name)
            .text("\",\"pid\":")
            .int(pid)
            .text(",\"tid\":0,\"ts\":")
            .int(ts)
            .text(",\"args\":{");
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                line.text(",");
            }
            line.text("\"").escaped(k).text("\":").int(*v);
        }
        line.text("}}");
        line.finish();
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
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("M"));
        assert_eq!(events[2].get("dur").and_then(JsonValue::as_u64), Some(400));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("atom"))
                .and_then(JsonValue::as_u64),
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

    /// 0, 9, 10, 99, 100, 10^k - 1, 10^k and 10^k + 1 for every k, and
    /// the largest `u32` and `u64`.
    fn digit_edges() -> Vec<u64> {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let power = 10u64.pow(k);
            values.extend([power - 1, power, power + 1]);
        }
        values
    }

    #[test]
    fn push_u64_writes_decimal_digits() {
        for value in digit_edges() {
            let mut out = String::from("x");
            push_u64(&mut out, value);
            assert_eq!(out, format!("x{value}"));
            assert_eq!(digit_count(value), value.to_string().len());
        }
    }

    #[test]
    fn line_writes_integers_in_place() {
        // At every offset the digits can start: `int` spills the line when
        // they do not fit, `put_int` is only called where they do.
        let body = |t: TraceBuilder| t.finish()["{\"traceEvents\":[\n".len()..].to_owned();
        for value in digit_edges() {
            for offset in [0, 1, 7, LINE_BYTES - 21, LINE_BYTES - 20, LINE_BYTES - 1] {
                let pad = "p".repeat(offset);
                let end = "\n],\"displayTimeUnit\":\"ms\"}\n";
                let mut t = TraceBuilder::new();
                let mut line = t.event();
                line.text(&pad).int(value).text("|");
                line.finish();
                assert_eq!(
                    body(t),
                    format!("{pad}{value}|{end}"),
                    "{value} at {offset}"
                );
                if offset + U64_DIGITS <= LINE_BYTES {
                    let mut t = TraceBuilder::new();
                    let mut line = t.event();
                    line.text(&pad).put_int(value);
                    line.finish();
                    assert_eq!(body(t), format!("{pad}{value}{end}"), "{value} at {offset}");
                }
            }
        }
    }

    /// A segment span as the observer composed it before the typed entry
    /// point: name and args rendered to strings, then a generic span.
    fn composed_segment_span(t: &mut TraceBuilder, pid: u64, tid: u64, span: SegmentSpan) {
        let name = match span.variant {
            Some(v) => format!("v{v} ×{}", span.count),
            None => format!("software ×{}", span.count),
        };
        let args = format!(
            "{{\"count\":{},\"latency\":{},\"hardware\":{}}}",
            span.count, span.latency, span.hardware
        );
        t.complete_with_args(pid, tid, &name, span.ts, span.dur, Some(&args));
    }

    #[test]
    fn segment_span_matches_the_composed_span() {
        let spans = [
            SegmentSpan {
                variant: None,
                count: 12,
                latency: 680,
                hardware: false,
                ts: 0,
                dur: 12 * 690,
            },
            SegmentSpan {
                variant: Some(3),
                count: 4_096,
                latency: 20,
                hardware: true,
                ts: 1_234_567,
                dur: 4_096 * 30,
            },
            SegmentSpan {
                variant: Some(17),
                count: 1,
                latency: 9,
                hardware: true,
                ts: 99,
                dur: 19,
            },
            SegmentSpan {
                variant: Some(0),
                count: 0,
                latency: 1,
                hardware: true,
                ts: 10_000,
                dur: 0,
            },
            // `dur` as `count.saturating_mul(per)` gives it past u64::MAX.
            SegmentSpan {
                variant: Some(usize::MAX),
                count: u64::MAX,
                latency: u32::MAX,
                hardware: false,
                ts: u64::MAX,
                dur: u64::MAX.saturating_mul(2),
            },
        ];
        let mut typed = TraceBuilder::new();
        let mut composed = TraceBuilder::new();
        for (i, span) in spans.into_iter().enumerate() {
            typed.segment_span(2, i as u64, span);
            composed_segment_span(&mut composed, 2, i as u64, span);
        }
        assert_eq!(typed.len(), composed.len());
        assert_eq!(typed.finish(), composed.finish());
    }

    #[test]
    fn the_longest_segment_span_fills_its_bound() {
        let mut t = TraceBuilder::new();
        t.instant(1, 0, "first", 0);
        let before = t.out.len();
        t.segment_span(
            u64::MAX,
            u64::MAX,
            SegmentSpan {
                variant: Some(usize::MAX),
                count: u64::MAX,
                latency: u32::MAX,
                hardware: false,
                ts: u64::MAX,
                dur: u64::MAX,
            },
        );
        // The separator, the name's head with a 20-digit variant (`usize`
        // is 64 bits on every host this runs) and the line.
        let head = ",\n{\"ph\":\"X\",\"name\":\"v".len() + U64_DIGITS + " ×".len();
        assert_eq!(t.out.len() - before, head + SEGMENT_LINE_BYTES);
    }

    #[test]
    fn long_and_escaped_names_spill_with_the_same_text() {
        let long = "n".repeat(3 * LINE_BYTES);
        let escaped = "a\"b\\c\nd";
        for name in [long.as_str(), escaped, "×"] {
            let mut t = TraceBuilder::new();
            t.thread_name(1, 2, name);
            t.complete_with_args(1, 2, name, 3, 4, Some(&format!("{{\"s\":\"{long}\"}}")));
            t.instant_with_args(1, 2, name, 5, None);
            t.counter(1, name, 6, &[(name, 7), ("b", 8)]);
            let mut e = String::new();
            escape_json_into(name, &mut e);
            let want = format!(
                "{{\"traceEvents\":[\n\
                 {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,\"args\":{{\"name\":\"{e}\"}}}},\n\
                 {{\"ph\":\"X\",\"name\":\"{e}\",\"pid\":1,\"tid\":2,\"ts\":3,\"dur\":4,\"args\":{{\"s\":\"{long}\"}}}},\n\
                 {{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{e}\",\"pid\":1,\"tid\":2,\"ts\":5}},\n\
                 {{\"ph\":\"C\",\"name\":\"{e}\",\"pid\":1,\"tid\":0,\"ts\":6,\"args\":{{\"{e}\":7,\"b\":8}}}}\n\
                 ],\"displayTimeUnit\":\"ms\"}}\n"
            );
            assert_eq!(t.finish(), want, "{name:?}");
        }
    }

    #[test]
    fn empty_trace_still_parses() {
        let doc = JsonValue::parse(&TraceBuilder::new().finish()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(events.is_empty());
    }
}
