//! Structured JSONL event log (`--event-log <path>`): a rendering of the
//! profiler's event stream.
//!
//! Every [`crate::Profiler::event`] becomes one JSON object per line, written
//! append-only to the writer installed with [`crate::Profiler::log_to`]. Every
//! line carries the event's stamps:
//!
//! * `ts_us` — whole microseconds on the profiler's clock,
//! * `req`   — the ambient [`crate::reqid`] request id (0 when none),
//! * `tid`   — the recording thread's profiler tid,
//! * `kind`  — what happened (`request`, `stage`, `store`, `cancel`),
//!
//! followed by the event's fields, written by the same writer as a
//! Chrome trace's `args`. The `req` field is the join key: a daemon
//! `request` line and the `stage` and `store` lines its handler (and the
//! DAG workers it spawned) produced all share one id, so the log
//! reconstructs per-request causality end-to-end.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::chrome::{escape_json, write_args};
use crate::event::Event;

/// The JSONL writer slot a [`crate::Profiler`] renders its events into.
#[derive(Default)]
pub(crate) struct Writer(Mutex<Option<Box<dyn Write + Send>>>);

impl fmt::Debug for Writer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("log::Writer")
    }
}

impl Writer {
    /// Installs `out`; a replaced writer flushes as it drops.
    pub(crate) fn install(&self, out: Box<dyn Write + Send>) {
        *self.0.lock().expect("event log lock") = Some(out);
    }

    /// Appends `event` as one line, if a writer is installed.
    pub(crate) fn write(&self, event: &Event) {
        let line = line(event);
        if let Some(out) = self.0.lock().expect("event log lock").as_mut() {
            let _ = out.write_all(line.as_bytes());
        }
    }

    pub(crate) fn flush(&self) {
        if let Some(out) = self.0.lock().expect("event log lock").as_mut() {
            let _ = out.flush();
        }
    }
}

/// Renders `event` as one newline-terminated JSONL line.
fn line(event: &Event) -> String {
    let mut line = format!(
        "{{\"ts_us\": {}, \"req\": {}, \"tid\": {}, \"kind\": \"{}\"",
        event.ts_us as u64,
        event.req,
        event.tid,
        escape_json(&event.name),
    );
    write_args(&mut line, &event.args);
    line.push_str("}\n");
    line
}

/// Logs the global profiler's events to `path` (created/truncated).
pub fn init_file(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    crate::global().log_to(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Flushes the global profiler's event log (call before exiting so the
/// tail of the log reaches disk). No-op when no log is installed.
pub fn flush() {
    crate::global().flush_log();
}

#[cfg(test)]
mod tests {
    use crate::json::JsonValue;
    use crate::{ArgValue, Profiler};
    use std::sync::{Arc, Mutex};

    /// A writer handing every byte to a shared buffer the test can read.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn logged(p: &Profiler) -> Shared {
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        p.log_to(Box::new(buf.clone()));
        buf
    }

    fn text(buf: &Shared) -> String {
        String::from_utf8(buf.0.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn emits_joinable_jsonl_lines() {
        let p = Profiler::new();
        let buf = logged(&p);

        {
            let _req = crate::reqid::set(3);
            p.event("request", || {
                [("op", "rerun".into()), ("dur_us", ArgValue::Int(120))]
            });
            p.event("stage", || {
                [("stage", "parse".into()), ("quote\"me", "x\ny".into())]
            });
        }
        p.event("idle", || []);
        p.flush_log();

        let text = text(&buf);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let v = crate::json::parse(line).expect("each line is valid JSON");
            assert!(v.get("ts_us").is_some(), "{line}");
            assert!(v.get("kind").is_some(), "{line}");
        }
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("req").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(first.get("op").and_then(JsonValue::as_str), Some("rerun"));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("req").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(
            second.get("quote\"me").and_then(JsonValue::as_str),
            Some("x\ny"),
            "keys and values must be escaped"
        );
        let third = crate::json::parse(lines[2]).unwrap();
        assert_eq!(third.get("req").and_then(JsonValue::as_f64), Some(0.0));
    }

    /// CI's post-mortem step greps the daemon's log for this exact
    /// spelling, so the line prefix and its spacing are pinned here.
    #[test]
    fn line_shape_is_pinned() {
        let p = Profiler::new();
        let buf = logged(&p);
        {
            let _req = crate::reqid::set(9);
            p.event("cancel", || {
                [
                    ("project", "p".into()),
                    ("generation", ArgValue::Int(2)),
                    ("checkpoints", ArgValue::Int(5)),
                ]
            });
        }
        let text = text(&buf);
        assert!(text.starts_with("{\"ts_us\": "), "{text}");
        let tid = crate::profiler::current_tid();
        let tail = format!(
            ", \"req\": 9, \"tid\": {tid}, \"kind\": \"cancel\", \"project\": \"p\", \
             \"generation\": 2, \"checkpoints\": 5}}\n"
        );
        assert!(text.ends_with(&tail), "{text}");
        assert!(text.contains("\"kind\": \"cancel\""), "{text}");
    }

    #[test]
    fn trace_and_log_render_the_same_event() {
        let p = Profiler::new();
        p.set_enabled(true);
        let buf = logged(&p);
        {
            let _req = crate::reqid::set(4);
            p.event("store", || {
                [("ns", "parse".into()), ("hit", ArgValue::Int(1))]
            });
        }
        let events = p.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.name.as_str(), e.req), ("store", 4));
        let chrome = crate::chrome::event_json(e);
        assert!(
            chrome.contains("\"ph\": \"i\"")
                && chrome.contains("\"args\": {\"req\": 4, \"ns\": \"parse\", \"hit\": 1}"),
            "{chrome}"
        );
        let line = text(&buf);
        assert!(
            line.contains(&format!("\"ts_us\": {}, ", e.ts_us as u64)),
            "one clock for both renderings: {line} vs {chrome}"
        );
        assert!(
            line.ends_with("\"kind\": \"store\", \"ns\": \"parse\", \"hit\": 1}\n"),
            "{line}"
        );
    }

    #[test]
    fn no_sink_builds_no_fields() {
        let p = Profiler::new();
        p.event("stage", || -> [(&'static str, ArgValue); 0] {
            panic!("fields built with no sink listening")
        });
        assert!(p.events().is_empty());
    }
}
