//! The workspace's one JSON codec (there is no serde offline): every
//! artifact is built as a [`Json`] value, printed by its `Display` writer
//! and read back by the validating [`parse`]r.
//!
//! The writer is compact and keeps object members in insertion order.
//! Finite numbers print in Rust's shortest round-trip form (integers bare),
//! so they parse back bit-exactly; non-finite numbers print as `null`.
//! Strings escape `"`, `\`, `\n`, `\r`, `\t` and other control characters
//! (as `\u00XX`), all of which the parser reads back.

use std::fmt;

use crate::{HistogramSnapshot, HwSnapshot};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64` (exact for the artifacts' counters,
    /// which stay well under 2^53).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order; [`get`](Json::get) finds the first
    /// member with a key.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>, V: Into<Json>>(members: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// The value at `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number this value holds, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number at `key`, if present (sugar for `get` + `as_f64`).
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// The string this value holds, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json { fn from($v: $t) -> Self { $e } })*
    };
}

from! {
    f64 => |n| Json::Num(n),
    u64 => |n| Json::Num(n as f64),
    u32 => |n| Json::Num(n.into()),
    usize => |n| Json::Num(n as f64),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    // Every counter, in `HwSnapshot::fields` order.
    &HwSnapshot => |hw| Json::obj(hw.fields()),
    // Count, mean and the p50/p90/p99/p999/max ladder, in nanoseconds.
    &HistogramSnapshot => |h| Json::obj([
        ("count", Json::from(h.count)),
        ("mean_ns", h.mean_ns().into()),
        ("p50_ns", h.p50_ns().into()),
        ("p90_ns", h.p90_ns().into()),
        ("p99_ns", h.p99_ns().into()),
        ("p999_ns", h.p999_ns().into()),
        ("max_ns", h.max_ns.into()),
    ]),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Compact JSON (see the module docs for the number and string rules).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            // Both forms print the shortest digits that parse back to `n`;
            // plain decimals stay readable, exponents keep 1e300 short.
            Json::Num(n) if *n == 0.0 || (1e-6..1e21).contains(&n.abs()) => write!(f, "{n}"),
            Json::Num(n) => write!(f, "{n:e}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => fmt::Write::write_char(f, c)?,
        }
    }
    f.write_str("\"")
}

/// A JSON array with one compact element per line between `[` and `]` —
/// the layout for long record streams (the chrome trace), which are
/// printed record by record and never held as one tree.
pub fn array_lines(items: impl IntoIterator<Item = Json>) -> String {
    use fmt::Write as _;
    let mut out = String::from("[");
    let mut sep = "\n";
    for item in items {
        let _ = write!(out, "{sep}{item}");
        sep = ",\n";
    }
    out.push_str("\n]\n");
    out
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
///
/// # Errors
///
/// [`JsonError`] on malformed input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'{' => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            b'[' => self.items(b']', Self::value).map(Json::Arr),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    /// The `,`-separated items of the array or object opening at `pos`,
    /// through its `close` delimiter.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the raw run up to the next delimiter. The input is a
            // valid &str and both delimiters are ASCII, so the run cannot
            // split a multi-byte character.
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("&str chunk"));
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        // Surrogates are not characters on their own, and
                        // the writer never emits them: rejected.
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            self.pos += 4;
                            hex.and_then(|h| {
                                u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                            })
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.err("malformed \\u escape"))?
                        }
                        _ => return Err(self.err("unsupported escape")),
                    };
                    s.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let v = parse(
            r#"{"name":"queued:rider","ts":1.5,"dur":2e3,"args":{"a":0,"b":3,"req":7},
                "flags":[true,false,null],"s":"t\"x"}"#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("queued:rider"));
        assert_eq!(v.num("dur"), Some(2000.0));
        assert_eq!(v.get("args").unwrap().num("req"), Some(7.0));
        assert_eq!(v.get("flags").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str(), Some("t\"x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\":}", "12 34", "{\"a\":1}x", "\"unterminated", "\"\\u12\""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_cover_scientific_notation() {
        assert_eq!(parse("1.25e-3").unwrap().as_f64(), Some(0.00125));
        assert_eq!(parse("-7").unwrap().as_f64(), Some(-7.0));
    }

    #[test]
    fn writer_is_compact_and_ordered() {
        let v = Json::obj([
            ("ph", Json::from("f")),
            ("bp", "e".into()),
            ("id", 42u64.into()),
            ("knee", None::<f64>.into()),
            ("ok", true.into()),
            ("xs", Json::Arr(vec![1.5.into(), Json::Arr(Vec::new()), Json::obj::<&str, Json>([])])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"ph":"f","bp":"e","id":42,"knee":null,"ok":true,"xs":[1.5,[],{}]}"#
        );
        let hw = HwSnapshot { dac_drives: 3, snapshot_misses: 1, ..HwSnapshot::default() };
        let hw = Json::from(&hw).to_string();
        assert!(hw.starts_with(r#"{"dac_drives":3,"adc_conversions":0,"#), "{hw}");
        assert!(hw.ends_with(r#""snapshot_misses":1}"#), "{hw}");
    }

    #[test]
    fn array_lines_puts_one_record_per_line() {
        let doc = array_lines([Json::from(1u64), Json::obj([("a", "b")])]);
        assert_eq!(doc, "[\n1,\n{\"a\":\"b\"}\n]\n");
        assert_eq!(array_lines([]), "[\n]\n");
        assert_eq!(parse(&array_lines([])).unwrap(), Json::Arr(Vec::new()));
    }

    /// `parse(&v.to_string())`, which must succeed.
    fn round_trip(v: &Json) -> Json {
        let text = v.to_string();
        parse(&text).unwrap_or_else(|e| panic!("{text:?} does not parse back: {e}"))
    }

    #[test]
    fn edge_strings_and_numbers_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t cr \r bell \u{7} µ → end";
        assert_eq!(round_trip(&Json::from(s)), Json::from(s));
        assert_eq!(Json::from("a\"b\\c\nd\te").to_string(), r#""a\"b\\c\nd\te""#);
        let two_53 = (1u64 << 53) as f64;
        for x in [0.1, -0.0, 0.0, 1e-300, 1e300, two_53, -two_53, 1e21, 1e-7, 5e-324, f64::MAX] {
            let back = round_trip(&Json::Num(x)).as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} did not round-trip bit-exactly");
        }
        assert_eq!(Json::Num(two_53).to_string(), "9007199254740992", "integers print bare");
        assert_eq!(Json::Num(1e300).to_string(), "1e300");
        assert_eq!(Json::Num(0.1).to_string(), "0.1");
        assert_eq!(Json::Num(-0.0).to_string(), "-0");
    }

    #[test]
    fn non_finite_numbers_write_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).to_string(), "null");
        }
        let v = Json::obj([("err", Json::Num(f64::NAN))]);
        assert_eq!(round_trip(&v).get("err"), Some(&Json::Null));
    }

    /// SplitMix64: a seeded source of random documents that needs no
    /// dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_string(rng: &mut SplitMix) -> String {
        const ALPHABET: [char; 12] =
            ['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', 'µ', '/'];
        (0..rng.below(8)).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
    }

    fn random_value(rng: &mut SplitMix, depth: u32) -> Json {
        let leaf_kinds = 4;
        let kinds = if depth == 0 { leaf_kinds } else { leaf_kinds + 2 };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => {
                // Any finite bit pattern, or a small integer.
                let x = f64::from_bits(rng.next());
                Json::Num(if x.is_finite() { x } else { rng.below(1 << 20) as f64 })
            }
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| random_value(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_nested_values_round_trip() {
        let mut rng = SplitMix(16);
        for _ in 0..2_000 {
            let v = random_value(&mut rng, 4);
            assert_eq!(round_trip(&v), v);
        }
    }
}
