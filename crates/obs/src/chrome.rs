//! Chrome-trace JSON serialization (the `chrome://tracing` / Perfetto
//! array-of-events format, same shape as Clang's `-ftime-trace`).
//!
//! Hand-rolled writer — the environment has no serde — with *complete*
//! string escaping: quotes, backslashes, and every control character
//! (`\n`, `\t`, and the rest of U+0000..U+001F) per RFC 8259, so
//! arbitrary span names (file paths, generated symbols) always serialize
//! to valid JSON.

use std::fmt::Write as _;

use crate::event::{ArgValue, Event};

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite float without JSON-invalid forms (`NaN`, `inf`).
fn number(v: f64) -> String {
    if v.is_finite() {
        // One decimal of sub-µs precision, like the traces the paper's
        // artifact ships.
        format!("{v:.1}")
    } else {
        "0.0".to_string()
    }
}

/// Appends each `args` entry as `"key": value`, preceded by `", "`
/// unless `out` ends with the `{` that opens an object — the field
/// writer shared by the trace's `args` object and the event log's lines.
pub(crate) fn write_args(out: &mut String, args: &[(String, ArgValue)]) {
    for (k, v) in args {
        if !out.ends_with('{') {
            out.push_str(", ");
        }
        let _ = match v {
            ArgValue::Int(n) => write!(out, "\"{}\": {n}", escape_json(k)),
            ArgValue::Float(f) => write!(out, "\"{}\": {}", escape_json(k), number(*f)),
            ArgValue::Str(s) => write!(out, "\"{}\": \"{}\"", escape_json(k), escape_json(s)),
        };
    }
}

/// Serializes one event as a JSON object.
pub fn event_json(e: &Event) -> String {
    let mut out = format!(
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
        escape_json(&e.name),
        escape_json(&e.cat),
        e.ph.code(),
        number(e.ts_us),
        e.pid,
        e.tid,
    );
    if e.ph == crate::event::Phase::Complete {
        let _ = write!(out, ", \"dur\": {}", number(e.dur_us));
    }
    if e.ph == crate::event::Phase::Instant {
        out.push_str(", \"s\": \"t\"");
    }
    if e.req != 0 || !e.args.is_empty() {
        out.push_str(", \"args\": {");
        if e.req != 0 {
            let _ = write!(out, "\"req\": {}", e.req);
        }
        write_args(&mut out, &e.args);
        out.push('}');
    }
    out.push('}');
    out
}

/// Serializes events as a Chrome-trace JSON array.
pub fn to_json(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&event_json(e));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::json;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("\u{08}\u{0C}"), "\\b\\f");
    }

    #[test]
    fn complete_event_shape() {
        let e = Event::complete("parse", "engine", 1.25, 300.0, 2, 7);
        let j = event_json(&e);
        assert!(j.contains("\"ph\": \"X\""), "{j}");
        assert!(j.contains("\"dur\": 300.0"), "{j}");
        assert!(j.contains("\"pid\": 2"), "{j}");
        assert!(j.contains("\"tid\": 7"), "{j}");
    }

    #[test]
    fn counter_event_has_args_not_dur() {
        let e = Event::counter("files", 10.0, 42, 1, 1);
        let j = event_json(&e);
        assert!(j.contains("\"ph\": \"C\""), "{j}");
        assert!(j.contains("\"args\": {\"value\": 42}"), "{j}");
        assert!(!j.contains("dur"), "{j}");
    }

    #[test]
    fn metadata_event_labels_process() {
        let e = Event::process_name(3, "yalla config=pch");
        let j = event_json(&e);
        assert!(j.contains("\"ph\": \"M\""), "{j}");
        assert!(j.contains("\"name\": \"yalla config=pch\""), "{j}");
    }

    #[test]
    fn array_round_trips_through_the_json_parser() {
        let events = vec![
            Event::process_name(1, "tool"),
            Event::complete("a\"\\\n\u{02}", "c", 0.0, 5.0, 1, 1),
            Event::counter("n", 1.0, 3, 1, 1),
        ];
        let text = to_json(&events);
        let parsed = json::parse(&text).expect("valid JSON");
        let arr = parsed.as_array().expect("array");
        assert_eq!(arr.len(), 3);
        let name = arr[1]
            .get("name")
            .and_then(json::JsonValue::as_str)
            .unwrap();
        assert_eq!(name, "a\"\\\n\u{02}");
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        let mut e = Event::complete("x", "c", f64::NAN, f64::INFINITY, 1, 1);
        e.ph = Phase::Complete;
        let j = event_json(&e);
        json::parse(&format!("[{j}]")).expect("valid JSON despite non-finite input");
    }
}
