//! Hand-rolled JSON codec: a by-construction-well-formed value tree with
//! a renderer **and a parser**, plus the [`JsonCodec`] trait checkpoint
//! and artifact types implement.
//!
//! The workspace vendors no registry crates, so there is no serde: the
//! `#[cfg_attr(feature = "serde", ...)]` gates the early PRs sprinkled
//! around were unsatisfiable dead code (no stub crate exists and none can
//! be added offline). This module replaces them with something that
//! actually runs: build a [`Json`], render it, parse it back. The figure
//! harness's `softsnn_exp::artifact` re-exports [`Json`] so every
//! `figN.json` artifact and every campaign checkpoint share one emitter
//! and one parser.
//!
//! **Round-trip exactness is load-bearing.** Campaign checkpoints store
//! per-trial `f64` accuracies and must resume *bit-identically*; finite
//! numbers render via Rust's shortest-round-trip formatting (`{}`) and
//! parse via `str::parse::<f64>` (correctly rounded), so
//! `parse(render(x)) == x` to the bit for every finite `f64` — pinned by
//! tests below. Non-finite values render as `null` (JSON has no NaN);
//! checkpointed metrics are accuracies and therefore finite.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON document (or a typed value decoded from one) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at (0 for semantic decode errors).
    pub offset: usize,
    /// Human-readable reason.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A semantic (post-parse) decode error: the document was well-formed
    /// JSON but not the expected shape.
    pub fn decode(detail: impl Into<String>) -> Self {
        Self {
            offset: 0,
            detail: detail.into(),
        }
    }
}

/// Types that round-trip through the hand-rolled [`Json`] tree — the
/// replacement for the unsatisfiable serde feature gates. The contract is
/// `Self::from_json(&self.to_json()) == Ok(self)` (and, for the
/// checkpoint-critical types, *bit*-equality of every `f64` field).
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;
    /// Decodes a value, rejecting wrong shapes with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `json` is not the expected shape.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// An object builder: `Json::obj([("k", v), ...])`.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An array from anything that yields values convertible to [`Json`].
    pub fn arr<T: Into<Json>, I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The whole input must be one value (plus
    /// surrounding whitespace) — trailing garbage is an error, which is
    /// what makes a truncated-then-appended checkpoint line detectable.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the offending byte offset on malformed
    /// input.
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Required-field accessor for decoders: `obj.field("mean")?` with a
    /// shape-describing error instead of a bare `None`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::decode(format!("missing field `{key}`")))
    }

    /// Required finite-number field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is absent or not a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` must be a number")))
    }

    /// Required integer field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is absent or not a
    /// non-negative integer.
    pub fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        self.field(key)?.as_usize().ok_or_else(|| {
            JsonError::decode(format!("field `{key}` must be a non-negative integer"))
        })
    }

    /// Required string field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is absent or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` must be a string")))
    }

    /// Required array field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is absent or not an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` must be an array")))
    }

    /// Required `u64` field encoded as a decimal string (seeds and hashes
    /// exceed the 2^53 range where `f64` numbers stay exact, so they are
    /// stored as strings).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the field is absent or not a decimal
    /// string.
    pub fn u64_str_field(&self, key: &str) -> Result<u64, JsonError> {
        self.str_field(key)?
            .parse::<u64>()
            .map_err(|e| JsonError::decode(format!("field `{key}` must be a decimal u64: {e}")))
    }
}

/// Encodes a `u64` losslessly as a decimal string (see
/// [`Json::u64_str_field`]).
pub fn u64_json(v: u64) -> Json {
    Json::Str(v.to_string())
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Recursive-descent parser over the input bytes. Depth-limited so a
/// hostile checkpoint file cannot blow the stack.
struct Parser<'a> {
    /// The input, for char-wise string scanning.
    text: &'a str,
    /// The same input as bytes, for everything that is ASCII.
    bytes: &'a [u8],
    pos: usize,
}

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.value_at_depth(0)
    }

    fn value_at_depth(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value_at_depth(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value_at_depth(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > before
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let v: f64 = text
            .parse()
            .map_err(|e| self.err(format!("bad number `{text}`: {e}")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number `{text}` overflows f64")));
        }
        Ok(Json::Num(v))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Strings are scanned char-wise over the input text so
            // multi-byte characters pass through unmangled. `pos` only
            // ever advances by whole characters, so it is always a char
            // boundary and the slice costs O(1).
            let rest = self
                .text
                .get(self.pos..)
                .ok_or_else(|| self.err("string starts inside a character"))?;
            match rest.chars().next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{0008}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{000c}');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if (c as u32) < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `from_str_radix` alone would also take
        // a leading `+`.
        let code = self.bytes[self.pos..end]
            .iter()
            .try_fold(0_u32, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
            .ok_or_else(|| self.err("non-hex \\u escape"))?;
        self.pos = end;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let j = Json::parse(r#"{"a":62.5,"b":[1,2],"c":"x","d":true,"e":null}"#).unwrap();
        assert_eq!(j.f64_field("a").unwrap(), 62.5);
        assert_eq!(j.arr_field("b").unwrap().len(), 2);
        assert_eq!(j.str_field("c").unwrap(), "x");
        assert_eq!(j.field("d").unwrap().as_bool(), Some(true));
        assert_eq!(j.field("e").unwrap(), &Json::Null);
    }

    /// JSON's integer part is `0` or starts with a non-zero digit.
    #[test]
    fn numbers_with_leading_zeros_are_rejected() {
        for bad in ["01", "-007.5", "[00]", "00", "-00", "012e3", "{\"a\":05}"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.to_string().contains("leading zero"), "{bad}: {err}");
        }
        for (good, v) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("0e3", 0.0),
            ("10", 10.0),
        ] {
            let got = Json::parse(good).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), f64::to_bits(v), "{good}");
        }
        assert_eq!(Json::parse("[0,0.05]").unwrap(), Json::arr([0.0, 0.05]));
    }

    #[test]
    fn render_parse_round_trips_structures() {
        let j = Json::obj([
            ("s", Json::Str("he said \"hi\"\n\\ … ünïcödé".into())),
            ("n", Json::Num(-1.25e-7)),
            ("i", Json::Num(42.0)),
            (
                "nested",
                Json::arr([Json::arr([1.0_f64]), Json::Arr(vec![Json::Null])]),
            ),
            ("b", Json::Bool(false)),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    /// The checkpoint-critical property: every finite f64 survives
    /// render → parse to the bit.
    #[test]
    fn f64_round_trip_is_bit_exact() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut cases = vec![
            0.0,
            -0.0,
            62.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324,                                 // min subnormal
            f64::from_bits(98.0_f64.to_bits() - 1), // just below an integer
        ];
        // A few hundred pseudo-random bit patterns (finite ones).
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x);
            if v.is_finite() {
                cases.push(v);
            }
        }
        for v in cases {
            let rendered = Json::Num(v).render();
            let parsed = Json::parse(&rendered).unwrap();
            let got = parsed.as_f64().unwrap();
            assert_eq!(
                got.to_bits(),
                v.to_bits(),
                "{v:?} rendered as {rendered} reparsed as {got:?}"
            );
        }
    }

    #[test]
    fn u64_fields_round_trip_via_strings() {
        let j = Json::obj([("seed", u64_json(u64::MAX))]);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed.u64_str_field("seed").unwrap(), u64::MAX);
        assert!(parsed.u64_str_field("missing").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{"a":}"#,
            "tru",
            "1.2.3",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1] trailing",
            "nan",
            "1e999",
            "\"\u{0007}\"", // raw control char
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn truncated_document_is_detected() {
        // The exact corruption mode the checkpoint robustness tests use.
        let full = Json::obj([("trials", Json::arr([54.0_f64, 56.5]))]).render();
        for cut in 1..full.len() {
            assert!(
                Json::parse(&full[..cut]).is_err(),
                "prefix {:?} parsed",
                &full[..cut]
            );
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\t nl\n cr\r quote\" backslash\\ nul\u{1} emoji🦀";
        let rendered = Json::Str(s.into()).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::Str(s.into()));
        // Surrogate-pair escapes decode too.
        assert_eq!(Json::parse(r#""🦀""#).unwrap(), Json::Str("🦀".into()));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let j = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] , \"b\" : \"x\" }\r\n").unwrap();
        assert_eq!(j.arr_field("a").unwrap().len(), 2);
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u00g1""#, r#""\u00é""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must be refused");
        }
    }
}
