//! A minimal JSON reader so `repro bench --compare` can load prior
//! `BENCH_*.json` files without pulling `serde` into an offline,
//! registry-free workspace. The writer side is `hostcc_sim::json`.
//!
//! The parser is a plain recursive-descent over the JSON grammar:
//! objects, arrays, strings (with the standard escapes incl. `\u`),
//! numbers, booleans, null. It is built for files this repo emits —
//! small, trusted, machine-written — so it favours clarity over speed
//! and rejects anything malformed with a character offset.

use std::collections::BTreeMap;

/// A parsed JSON document node.
///
/// Object keys are kept in a `BTreeMap`, so re-serialisation order is
/// deterministic (alphabetical) even when the input wasn't.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Stored as `f64`; u64 accessors re-check
    /// integrality.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("json: trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer that fits
    /// exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key→value map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("json: expected '{}' at byte {pos}", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("json: unexpected input at byte {pos}")),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("json: expected '{lit}' at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("json: expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("json: expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("json: unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("json: truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "json: bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "json: bad \\u escape".to_string())?;
                        // Surrogate pairs are not needed for the ASCII
                        // control chars we emit; replace lone surrogates.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("json: bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so the
                // boundaries are valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "json: invalid utf-8".to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("json: bad number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::json::{escape, float};
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let v = JsonValue::parse(
            r#"{"a": 1, "b": [true, null, -2.5e3], "c": {"d": "x\ny"}, "e": false}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        assert_eq!(arr[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Num(3.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e15).as_u64(), Some(1_000_000_000_000_000));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("true false").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn f64_formatting_round_trips_exactly() {
        for v in [
            0.0,
            1.0 / 3.0,
            123_456_789.123_456_78,
            f64::MIN_POSITIVE,
            -9.87e-300,
        ] {
            let text = float(v);
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
    }

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
        let wrapped = format!("\"{}\"", escape("tab\there"));
        assert_eq!(
            JsonValue::parse(&wrapped).unwrap().as_str(),
            Some("tab\there")
        );
    }

    proptest! {
        /// Whatever a report embeds — control characters, quotes,
        /// backslashes, multi-byte UTF-8 — escapes to a JSON string that
        /// parses back to exactly the original.
        #[test]
        fn escape_round_trips_through_the_parser(
            code_points in prop::collection::vec(
                prop_oneof![
                    0u32..0x20,
                    Just(u32::from('"')),
                    Just(u32::from('\\')),
                    0x20u32..0x7f,
                    0x80u32..0xd800,
                    0x1_0000u32..0x11_0000,
                ],
                0..24,
            )
        ) {
            let s: String = code_points
                .iter()
                .map(|&c| char::from_u32(c).expect("no surrogates drawn"))
                .collect();
            let parsed = JsonValue::parse(&format!("\"{}\"", escape(&s))).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn unicode_escape_and_raw_utf8() {
        let v = JsonValue::parse(r#""Aµ""#).unwrap();
        assert_eq!(v.as_str(), Some("Aµ"));
    }
}
