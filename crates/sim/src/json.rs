//! The one JSON writer every exported report renders through.
//!
//! The workspace carries no serialization dependency. Each report instead
//! renders its rows through [`Obj`], with each key written next to its
//! value. Every value goes through one of the leaf renderers here
//! ([`string`], [`float`], [`opt`], [`hex`]), so every report escapes
//! strings and renders numbers one way. (The trace exporters format
//! their own lines: their payload floats use `Display`.)
//!
//! An object is written in one of two styles, the two the committed
//! formats use: [`Obj::compact`] (`{"k":v,"k":v}`) or [`Obj::spaced`]
//! (`{"k": v, "k": v}`). A document picks its style in code. A layout
//! only one document uses (a newline before a member, one member per
//! line) is written by hand around writer-rendered rows.
//!
//! ```
//! use hostcc_sim::json::Obj;
//!
//! let row = Obj::compact()
//!     .str("name", "a\"b")
//!     .num("count", 3)
//!     .float("mean", 0.5)
//!     .opt("p99", None)
//!     .hex("fingerprint", 0xbeef)
//!     .list("iters", [1, 2])
//!     .finish();
//! assert_eq!(
//!     row,
//!     r#"{"name":"a\"b","count":3,"mean":0.5,"p99":null,"fingerprint":"0x000000000000beef","iters":[1,2]}"#
//! );
//! ```

use std::fmt::{self, Write as _};

/// A JSON object under construction: the members written so far.
pub struct Obj {
    out: String,
    /// What follows a key (`:` or `: `).
    colon: &'static str,
    /// What separates members and array items (`,` or `, `).
    comma: &'static str,
}

impl Obj {
    /// An object written `{"k":v,"k":v}`, arrays `[a,b]`.
    pub fn compact() -> Obj {
        Obj::new(":", ",")
    }

    /// An object written `{"k": v, "k": v}`, arrays `[a, b]`.
    pub fn spaced() -> Obj {
        Obj::new(": ", ", ")
    }

    fn new(colon: &'static str, comma: &'static str) -> Obj {
        let out = String::from("{");
        Obj { out, colon, comma }
    }

    /// Add `key: value` where `value` is already JSON: a nested [`Obj`], or
    /// a number in a fixed format such as `{:.3}`.
    pub fn raw(mut self, key: &str, value: impl fmt::Display) -> Obj {
        if self.out.len() > 1 {
            self.out.push_str(self.comma);
        }
        let _ = write!(self.out, "{}{}{value}", string(key), self.colon);
        self
    }

    /// Add an integer member.
    pub fn num(self, key: &str, value: u64) -> Obj {
        self.raw(key, value)
    }

    /// Add a `true`/`false` member.
    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, value)
    }

    /// Add a float member, in [`float`]'s form.
    pub fn float(self, key: &str, value: f64) -> Obj {
        self.raw(key, float(value))
    }

    /// Add an optional count: the number, or `null`.
    pub fn opt(self, key: &str, value: Option<u64>) -> Obj {
        self.raw(key, opt(value))
    }

    /// Add a quoted, escaped string member.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, string(value))
    }

    /// Add a fingerprint, in [`hex`]'s form.
    pub fn hex(self, key: &str, value: u64) -> Obj {
        self.raw(key, hex(value))
    }

    /// Add `key: [items…]`, the array in this object's style, of items
    /// that are already JSON (integers, nested objects, [`float`]s).
    pub fn list(self, key: &str, items: impl IntoIterator<Item = impl fmt::Display>) -> Obj {
        let mut array = String::from("[");
        for (i, item) in items.into_iter().enumerate() {
            array.push_str(if i == 0 { "" } else { self.comma });
            let _ = write!(array, "{item}");
        }
        array.push(']');
        self.raw(key, array)
    }

    /// Close the object and return its text.
    pub fn finish(self) -> String {
        self.out + "}"
    }
}

/// The closed object's text, for nesting it in another document.
impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}}}", self.out)
    }
}

/// Append `  "key": value,` and a newline, `value` already JSON: one member
/// of a document whose top level is laid out by hand, one member per line
/// (the sweep manifest, the BENCH file, the telemetry summary).
pub fn line(out: &mut String, key: &str, value: impl fmt::Display) {
    let _ = writeln!(out, "  {}: {value},", string(key));
}

/// Escape a string for embedding in a JSON document (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// A string as a JSON string: quoted and escaped.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A fingerprint as a JSON string: the quoted, zero-padded hex form
/// `"0x0123456789abcdef"`.
pub fn hex(v: u64) -> String {
    format!("\"{v:#018x}\"")
}

/// Render an `f64` so that parsing it back yields the identical bits:
/// Rust's `{:?}` shortest-round-trip form, with non-finite values mapped
/// to `null` (JSON has no NaN/inf).
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Render an optional count: the number, or `null`.
pub fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_pins_each_form() {
        assert_eq!(
            escape("a\"b\\c\n\r\t\u{1}µ"),
            "a\\\"b\\\\c\\n\\r\\t\\u0001µ"
        );
    }

    #[test]
    fn floats_use_the_round_trip_form() {
        assert_eq!(float(75.0), "75.0");
        assert_eq!(float(0.1), "0.1");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn both_styles_nest_and_list() {
        let inner = Obj::spaced().num("a", 1).list("xs", [1, 2]);
        assert_eq!(
            Obj::spaced()
                .raw("in", inner)
                .raw("t", format_args!("{:.3}", 1.4))
                .list("none", [0u64; 0])
                .finish(),
            r#"{"in": {"a": 1, "xs": [1, 2]}, "t": 1.400, "none": []}"#
        );
        assert_eq!(Obj::compact().finish(), "{}");
        assert_eq!(
            Obj::compact()
                .bool("ok", true)
                .float("nan", f64::NAN)
                .list("xs", [0.5, 2.0].map(float))
                .finish(),
            r#"{"ok":true,"nan":null,"xs":[0.5,2.0]}"#
        );
        let mut doc = String::new();
        line(&mut doc, "k\"", string("v"));
        assert_eq!(doc, "  \"k\\\"\": \"v\",\n");
    }

    #[test]
    fn optional_counts() {
        assert_eq!(opt(Some(7)), "7");
        assert_eq!(opt(None), "null");
    }
}
