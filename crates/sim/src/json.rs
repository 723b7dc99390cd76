//! The JSON rendering primitives every hand-rolled exporter shares.
//!
//! The workspace carries no serialization dependency, so each report
//! formats its own document; these are the three value renderers they all
//! call, so every document escapes strings and renders numbers one way.

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
    fn optional_counts() {
        assert_eq!(opt(Some(7)), "7");
        assert_eq!(opt(None), "null");
    }
}
