//! Minimal JSON: a pull reader and a tree built on it.
//!
//! The workspace has no serde (offline, vendored-only dependencies), but
//! the telemetry acceptance tests and the CLI trace validator need to
//! *read back* the JSON the crate writes, and the job-server daemon
//! decodes every request line. Both go through one [`Reader`], which
//! yields the tokens of one document: strings come back borrowed when
//! they hold no escape, and numbers keep their text, so an integer
//! decodes exactly ([`Number::as_u64`]). [`JsonValue::parse`] builds a
//! tree from those tokens. The grammar is standard JSON (RFC 8259),
//! numbers included (`01`, `1.`, `-.5` and `1.e5` are refused). Arrays
//! and objects may nest at most 128 levels deep.

use std::borrow::Cow;

/// Deepest nesting of arrays and objects the reader accepts. The deepest
/// document the workspace writes is a serve submit line with an inline
/// trace, at 6 levels (line, trace, invocations, invocation, bursts,
/// burst). [`JsonValue::parse`] recurses once per level, so an unbounded
/// document could overflow the stack of the thread parsing it.
const MAX_DEPTH: usize = 128;

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A JSON number as written in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Number<'a>(&'a str);

impl Number<'_> {
    /// The nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        // Every RFC 8259 number is also a Rust float literal.
        self.0.parse().unwrap_or(f64::NAN)
    }

    /// The exact value, if the number is a whole number from 0 to
    /// `u64::MAX`. Fraction and exponent forms count when their value is
    /// whole (`1000.0`, `1e3`); `-0` is 0.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        // A plain literal of at most 19 digits cannot overflow.
        let digits = self.0.as_bytes();
        if digits.len() > 19 {
            return exact_integer(self.0);
        }
        let mut value = 0;
        for &d in digits {
            let d = d.wrapping_sub(b'0');
            if d > 9 {
                return exact_integer(self.0);
            }
            value = value * 10 + u64::from(d);
        }
        Some(value)
    }
}

/// The exact whole value of a number's text, if it has one in `u64`.
fn exact_integer(text: &str) -> Option<u64> {
    let (negative, unsigned) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let (mantissa, exponent) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, ""));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let (exp_negative, exp_digits) = match exponent.as_bytes().first() {
        Some(b'-') => (true, &exponent[1..]),
        Some(b'+') => (false, &exponent[1..]),
        _ => (false, exponent),
    };
    // Saturated far beyond any digit count a document can hold.
    let exp = exp_digits
        .bytes()
        .fold(0i64, |e, d| (e * 10 + i64::from(d - b'0')).min(1 << 40));
    // The value is `digits × 10^scale`, `digits` being `int` then `frac`.
    let len = int.len() + frac.len();
    let digit = |i: usize| match int.as_bytes().get(i) {
        Some(&d) => d,
        None => frac.as_bytes()[i - int.len()],
    };
    let mut scale = if exp_negative { -exp } else { exp } - frac.len() as i64;
    let Some(first) = (0..len).find(|&i| digit(i) != b'0') else {
        return Some(0);
    };
    if negative {
        return None;
    }
    let last = (first..len).rfind(|&i| digit(i) != b'0')?;
    scale += (len - 1 - last) as i64;
    if scale < 0 || (last + 1 - first) as i64 + scale > 20 {
        return None;
    }
    let mut value = 0u64;
    for i in first..=last {
        value = value
            .checked_mul(10)?
            .checked_add(u64::from(digit(i) - b'0'))?;
    }
    for _ in 0..scale {
        value = value.checked_mul(10)?;
    }
    Some(value)
}

/// One token of a JSON document, as [`Reader::next_token`] yields it.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`.
    ObjectStart,
    /// An object member's key; the reader has read its `:`.
    Key(Cow<'a, str>),
    /// `}`.
    ObjectEnd,
    /// `[`.
    ArrayStart,
    /// `]`.
    ArrayEnd,
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number<'a>),
    /// A string with escapes resolved, borrowed when it has none.
    String(Cow<'a, str>),
}

/// What the reader expects next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value: at the start, after a key, or after a `,` in an array.
    Value,
    /// Just inside `{`: a key or `}`.
    ObjectOpened,
    /// Just inside `[`: a value or `]`.
    ArrayOpened,
    /// After a value: `,` or the innermost container's close, or the end
    /// of the document at depth 0.
    AfterValue,
    /// The document has been read to its end.
    Done,
}

/// A pull reader over one JSON document.
///
/// [`Reader::next_token`] yields the document's tokens in order and checks
/// its syntax on the way; [`JsonValue::parse`] is built on it, so the
/// two accept the same documents and fail at the same byte with the same
/// message. The reader keeps no tree: a decoder reads the values it
/// wants and [`skip`](Reader::skip)s the rest.
///
/// ```
/// use rispp_telemetry::json::{Reader, Token};
/// let mut r = Reader::new(r#"{"seed":18446744073709551615,"tag":"x"}"#);
/// assert_eq!(r.value().unwrap(), Token::ObjectStart);
/// let mut seed = None;
/// while let Some(key) = r.key().unwrap() {
///     match (&*key, r.value().unwrap()) {
///         ("seed", Token::Number(n)) => seed = n.as_u64(),
///         (_, other) => r.skip(&other).unwrap(),
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(seed, Some(u64::MAX));
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
    /// Bit `d` is set when the container open at depth `d + 1` is an
    /// object, clear when it is an array.
    objects: u128,
    state: State,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        }
    }

    /// The next token, or `None` once the document's value is complete
    /// and only whitespace follows it.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, with the byte offset where it was
    /// found.
    #[inline]
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        self.skip_ws();
        match self.state {
            State::Value => self.value_token().map(Some),
            State::ObjectOpened if self.peek() == Some(b'}') => {
                Ok(Some(self.close(Token::ObjectEnd)))
            }
            State::ObjectOpened => self.key_token().map(Some),
            State::ArrayOpened if self.peek() == Some(b']') => {
                Ok(Some(self.close(Token::ArrayEnd)))
            }
            State::ArrayOpened => self.value_token().map(Some),
            State::AfterValue if self.depth == 0 => {
                if self.pos != self.text.len() {
                    return Err(self.err("trailing characters after JSON value"));
                }
                self.state = State::Done;
                Ok(None)
            }
            State::AfterValue => {
                let in_object = (self.objects >> (self.depth - 1)) & 1 == 1;
                match (self.peek(), in_object) {
                    (Some(b','), true) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.key_token().map(Some)
                    }
                    (Some(b','), false) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.value_token().map(Some)
                    }
                    (Some(b'}'), true) => Ok(Some(self.close(Token::ObjectEnd))),
                    (Some(b']'), false) => Ok(Some(self.close(Token::ArrayEnd))),
                    (_, true) => Err(self.err("expected ',' or '}' in object")),
                    (_, false) => Err(self.err("expected ',' or ']' in array")),
                }
            }
            State::Done => Ok(None),
        }
    }

    /// The first token of the value that comes next: at the start of the
    /// document or after a key.
    ///
    /// # Errors
    ///
    /// Returns the syntax error where a value should start.
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        match self.next_token()? {
            Some(Token::Key(_) | Token::ObjectEnd | Token::ArrayEnd) | None => {
                Err(self.err("expected a JSON value"))
            }
            Some(token) => Ok(token),
        }
    }

    /// Inside an object: the next member's key, or `None` once the object
    /// has closed. The member's value comes next.
    ///
    /// # Errors
    ///
    /// Returns the syntax error where a key or the close should be.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.next_token()? {
            Some(Token::Key(key)) => Ok(Some(key)),
            Some(Token::ObjectEnd) => Ok(None),
            _ => Err(self.err("expected an object member")),
        }
    }

    /// Inside an array: the first token of the next element, or `None`
    /// once the array has closed.
    ///
    /// # Errors
    ///
    /// Returns the syntax error where an element or the close should be.
    #[inline]
    pub fn element(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        match self.next_token()? {
            Some(Token::ArrayEnd) => Ok(None),
            Some(Token::Key(_) | Token::ObjectEnd) | None => {
                Err(self.err("expected an array element"))
            }
            Some(token) => Ok(Some(token)),
        }
    }

    /// Reads the rest of the value that `first` began: nothing for a
    /// scalar, through the matching close for `{` or `[`.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error inside the value.
    pub fn skip(&mut self, first: &Token<'a>) -> Result<(), JsonError> {
        if matches!(first, Token::ObjectStart | Token::ArrayStart) {
            let depth = self.depth;
            while self.depth >= depth {
                if self.next_token()?.is_none() {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Reads and discards the value that comes next.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error inside the value.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let first = self.value()?;
        self.skip(&first)
    }

    /// After the document's value: checks that only whitespace follows.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of trailing characters.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.next_token()? {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after JSON value")),
        }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.state = State::AfterValue;
        token
    }

    // `value_token` and `key_token` are inlined into `next_token`, so a token is
    // scanned without a further call: an inline-trace submit line is a
    // few thousand tokens, and the daemon reads every one.
    #[inline(always)]
    fn value_token(&mut self) -> Result<Token<'a>, JsonError> {
        let token = match self.peek() {
            Some(b'{') => return self.open(true),
            Some(b'[') => return self.open(false),
            Some(b'"') => Token::String(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b'-' | b'0'..=b'9') => Token::Number(self.number()?),
            _ => return Err(self.err("expected a JSON value")),
        };
        self.state = State::AfterValue;
        Ok(token)
    }

    /// Opens an object or array one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    #[inline]
    fn open(&mut self, object: bool) -> Result<Token<'a>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deeply"));
        }
        let bit = 1u128 << self.depth;
        self.depth += 1;
        self.pos += 1;
        if object {
            self.objects |= bit;
            self.state = State::ObjectOpened;
            Ok(Token::ObjectStart)
        } else {
            self.objects &= !bit;
            self.state = State::ArrayOpened;
            Ok(Token::ArrayStart)
        }
    }

    #[inline(always)]
    fn key_token(&mut self) -> Result<Token<'a>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':' after object key"));
        }
        self.pos += 1;
        self.state = State::Value;
        Ok(Token::Key(key))
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let start = self.pos + 1;
        // Every byte of a multi-byte UTF-8 scalar is at least 0x80, so the
        // scan stops only at ASCII, on a character boundary.
        let Some(len) = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        else {
            self.pos = self.text.len();
            return Err(self.err("unterminated string"));
        };
        self.pos = start + len;
        match self.text.as_bytes()[self.pos] {
            b'"' => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.text[start..start + len]))
            }
            b'\\' => self.escaped(start).map(Cow::Owned),
            _ => Err(self.err("unescaped control character in string")),
        }
    }

    /// The rest of a string from its first escape; `start` is its first
    /// byte after the opening quote.
    fn escaped(&mut self, start: usize) -> Result<String, JsonError> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(0..=0x1F) => return Err(self.err("unescaped control character in string")),
                Some(_) => {
                    let run = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// The character of a `\u` escape, its `\u` already read. Surrogate
    /// pairs are combined; a lone surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        if !(0xD800..0xDC00).contains(&code) {
            return Ok(char::from_u32(code).unwrap_or('\u{FFFD}'));
        }
        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            return Ok('\u{FFFD}');
        }
        self.pos += 2;
        let low = self.hex4()?;
        let combined = 0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
        Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    #[inline]
    fn digits(&mut self) -> usize {
        let n = self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n
    }

    /// `-? (0 | [1-9] digits*) (. digits+)? ([eE] [+-]? digits+)?`, RFC
    /// 8259's number: a leading zero stands alone, and a fraction or an
    /// exponent needs a digit.
    #[inline]
    fn number(&mut self) -> Result<Number<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        // Bitwise, not short-circuit: one branch on the outcome, not one
        // per digit count.
        let mut ok = (int_digits > 0) & !(leading_zero & (int_digits > 1));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.err("invalid number"));
        }
        Ok(Number(&self.text[start..self.pos]))
    }
}

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns the [`Reader`]'s first syntax error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut reader = Reader::new(input);
        let first = reader.value()?;
        let value = Self::build(&mut reader, first)?;
        reader.finish()?;
        Ok(value)
    }

    /// The value that `first` begins, read to its end.
    fn build<'a>(reader: &mut Reader<'a>, first: Token<'a>) -> Result<JsonValue, JsonError> {
        Ok(match first {
            Token::ObjectStart => {
                let mut members = Vec::new();
                while let Some(key) = reader.key()? {
                    let first = reader.value()?;
                    members.push((key.into_owned(), Self::build(reader, first)?));
                }
                JsonValue::Object(members)
            }
            Token::ArrayStart => {
                let mut items = Vec::new();
                while let Some(first) = reader.element()? {
                    items.push(Self::build(reader, first)?);
                }
                JsonValue::Array(items)
            }
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Number(n) => JsonValue::Number(n.as_f64()),
            Token::String(s) => JsonValue::String(s.into_owned()),
            Token::Key(_) | Token::ObjectEnd | Token::ArrayEnd => {
                return Err(reader.err("expected a JSON value"))
            }
        })
    }

    /// Object member lookup (linear; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number
    /// below 2^64. The tree holds `f64`, so integers above 2^53 come back
    /// rounded; read them exactly with a [`Reader`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc =
            JsonValue::parse("{\"a\":[1,2.5,-3],\"b\":{\"c\":null,\"d\":true},\"e\":\"x\\ny\"}")
                .unwrap();
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("d"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(doc.get("e").and_then(JsonValue::as_str), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("tru").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(JsonValue::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
                let err = JsonValue::parse(&nested(open, close, depth)).unwrap_err();
                assert_eq!(err.message, "arrays and objects nested too deeply");
                assert_eq!(err.at, MAX_DEPTH * open.len());
            }
        }
        // Unterminated openers are refused at the same point.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = JsonValue::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        // Lone surrogates become U+FFFD.
        let v = JsonValue::parse("\"\\ud83dx\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}x\u{FFFD}"));
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(
            JsonValue::parse("18446744073709551616").unwrap().as_u64(),
            None
        );
    }

    #[test]
    fn the_reader_yields_tokens_in_document_order() {
        let mut r = Reader::new(r#" {"a" : [1, "x\ty", true], "b": {}, "c": null} "#);
        let mut tokens = Vec::new();
        while let Some(token) = r.next_token().unwrap() {
            tokens.push(token);
        }
        let number = |text| Token::Number(Number(text));
        assert_eq!(
            tokens,
            [
                Token::ObjectStart,
                Token::Key("a".into()),
                Token::ArrayStart,
                number("1"),
                Token::String("x\ty".into()),
                Token::Bool(true),
                Token::ArrayEnd,
                Token::Key("b".into()),
                Token::ObjectStart,
                Token::ObjectEnd,
                Token::Key("c".into()),
                Token::Null,
                Token::ObjectEnd,
            ]
        );
        assert_eq!(r.next_token(), Ok(None));
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"["plain é", "esc\"aped"]"#);
        r.value().unwrap();
        assert!(matches!(
            r.element().unwrap(),
            Some(Token::String(Cow::Borrowed("plain é")))
        ));
        assert!(matches!(
            r.element().unwrap(),
            Some(Token::String(Cow::Owned(s))) if s == "esc\"aped"
        ));
    }

    #[test]
    fn integers_are_exact_to_u64_max() {
        let exact = |text: &str| {
            let mut r = Reader::new(text);
            match r.value().unwrap() {
                Token::Number(n) => n.as_u64(),
                other => panic!("{text}: {other:?}"),
            }
        };
        assert_eq!(exact("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(exact("11400714819323198485"), Some(0x9E37_79B9_7F4A_7C15));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("18446744073709551616"), None);
        assert_eq!(exact("99999999999999999999"), None);
        assert_eq!(exact("42.000000000000000000000"), Some(42));
        assert_eq!(exact("0.000000000000000000042e21"), Some(42));
        // Fraction and exponent forms count when their value is whole.
        assert_eq!(exact("1e3"), Some(1_000));
        assert_eq!(exact("1000.0"), Some(1_000));
        assert_eq!(exact("1.5E1"), Some(15));
        assert_eq!(exact("2500e-2"), Some(25));
        assert_eq!(exact("1.8446744073709551615e19"), Some(u64::MAX));
        assert_eq!(exact("1.8446744073709551616e19"), None);
        assert_eq!(exact("1.5"), None);
        assert_eq!(exact("1e-1"), None);
        assert_eq!(exact("1e999999999999999999999"), None);
        assert_eq!(exact("0e999999999999999999999"), Some(0));
        assert_eq!(exact("-0"), Some(0));
        assert_eq!(exact("-0.0e5"), Some(0));
        assert_eq!(exact("-1"), None);
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for ok in [
            "0", "-0", "7", "-10", "0.5", "-0.25", "1e5", "1E+2", "0e0", "1e-400", "1e400",
            "12.50e-3",
        ] {
            let v = JsonValue::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
            assert_eq!(v.as_f64(), ok.parse::<f64>().ok(), "{ok}");
        }
        // Rust's float grammar takes the first six; RFC 8259 does not.
        for (bad, at) in [
            ("08", 2),
            ("-01", 3),
            ("00", 2),
            ("1.", 2),
            ("-.5", 3),
            ("1.e5", 4),
            ("-", 1),
            ("-.", 2),
            ("1e", 2),
            ("1e+", 3),
            ("1.5e", 4),
            ("-.e1", 4),
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert_eq!((err.at, err.message), (at, "invalid number"), "{bad}");
        }
    }

    #[test]
    fn skipping_checks_syntax() {
        let mut r = Reader::new(r#"{"skip":[{"a":[1,{"b":"é"}]}],"keep":7}"#);
        r.value().unwrap();
        assert_eq!(r.key().unwrap().as_deref(), Some("skip"));
        r.skip_value().unwrap();
        assert_eq!(r.key().unwrap().as_deref(), Some("keep"));
        assert_eq!(r.value().unwrap(), Token::Number(Number("7")));
        assert_eq!(r.key().unwrap(), None);
        r.finish().unwrap();

        let mut r = Reader::new(r#"{"skip":[1,2,}"#);
        r.value().unwrap();
        r.key().unwrap();
        let err = r.skip_value().unwrap_err();
        assert_eq!((err.at, err.message), (13, "expected a JSON value"));
    }
}
