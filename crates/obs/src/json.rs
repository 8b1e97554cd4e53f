//! Minimal hand-rolled JSON writer (no external dependencies).
//!
//! Produces pretty-printed, deterministic output — object keys are written
//! in insertion order and the caller controls that order — so serialized
//! reports are stable enough for golden-file tests.

use std::fmt::Write as _;

/// Incremental JSON writer with automatic comma/indent handling.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once the first child was
    /// written (so the next child needs a leading comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Consumes the writer, returning the JSON text.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts a new element (comma + indentation when needed).
    fn element(&mut self) {
        if let Some(has_prev) = self.stack.last_mut() {
            if *has_prev {
                self.out.push(',');
            }
            *has_prev = true;
            self.newline_indent();
        }
    }

    /// Opens an object as the next array element / document root.
    pub fn begin_object(&mut self) -> &mut Self {
        self.element();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Opens an object under `key` inside the current object.
    pub fn begin_object_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        let had_children = self.stack.pop().expect("end_object without begin");
        if had_children {
            self.newline_indent();
        }
        self.out.push('}');
        self
    }

    /// Opens an array under `key` inside the current object.
    pub fn begin_array_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        let had_children = self.stack.pop().expect("end_array without begin");
        if had_children {
            self.newline_indent();
        }
        self.out.push(']');
        self
    }

    fn key(&mut self, key: &str) {
        self.element();
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
    }

    /// Writes `key: "value"`.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_escaped(&mut self.out, value);
        self
    }

    /// Writes `key: <integer>`.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `key: <integer>`, preserving the sign.
    pub fn i64_field(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `key: true` / `key: false`.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes `key: <float>` (rendered with up to 6 decimal places,
    /// trailing zeros trimmed; NaN/infinities become null).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let s = format!("{value:.6}");
            let s = s.trim_end_matches('0').trim_end_matches('.');
            self.out.push_str(if s.is_empty() || s == "-" { "0" } else { s });
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes `key: <raw>` where `raw` is already-valid JSON (a number,
    /// a quoted string from [`JsonWriter::quote`], …).
    pub fn raw_field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(raw);
        self
    }

    /// Returns `s` as a quoted, escaped JSON string literal.
    pub fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        write_escaped(&mut out, s);
        out
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.str_field("name", "run");
        w.u64_field("n", 4);
        w.i64_field("skew", -3);
        w.f64_field("ratio", 0.25);
        w.begin_array_key("items");
        w.begin_object().u64_field("id", 1).end_object();
        w.begin_object().u64_field("id", 2).end_object();
        w.end_array();
        w.begin_object_key("empty").end_object();
        w.end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"name\": \"run\",\n  \"n\": 4,\n  \"skew\": -3,\n  \"ratio\": 0.25,\n  \"items\": [\n    {\n      \"id\": 1\n    },\n    {\n      \"id\": 2\n    }\n  ],\n  \"empty\": {}\n}"
        );
    }

    #[test]
    fn escapes_control_chars() {
        let mut w = JsonWriter::new();
        w.begin_object().str_field("k", "a\"b\\c\nd\u{1}").end_object();
        assert!(w.finish().contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_object().f64_field("x", f64::NAN).end_object();
        assert!(w.finish().contains("\"x\": null"));
    }
}
