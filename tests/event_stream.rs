//! One event stream, two renderings: a daemon request's events reach the
//! JSONL event log and the Chrome trace as the same events, joined by
//! the request id the response was stamped with.
//!
//! The test owns the process-global profiler (it installs a log and
//! enables tracing), so it is the only test in this binary.

use std::sync::{Arc, Mutex};

use yalla::core::serve::ServeState;
use yalla::exec::Executor;
use yalla::obs::json::{self, JsonValue};
use yalla::store::Store;

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

/// One event as both renderings spell it: kind, request id, thread and
/// fields, then the timestamp in µs (whole in the log, to 0.1 in the
/// trace).
type Key = (String, u64, u64, Vec<(String, String)>, f64);

fn num(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing `{key}`")) as u64
}

fn fields<'a>(entries: impl Iterator<Item = (&'a String, &'a JsonValue)>) -> Vec<(String, String)> {
    entries
        .map(|(k, v)| (k.clone(), format!("{v:?}")))
        .collect()
}

fn line_key(line: &JsonValue) -> Key {
    let entries = line.entries().expect("object");
    let rest = entries
        .iter()
        .filter(|(k, _)| !["ts_us", "req", "tid", "kind"].contains(&k.as_str()));
    (
        line.get("kind")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string(),
        num(line, "req"),
        num(line, "tid"),
        fields(rest),
        num(line, "ts_us") as f64,
    )
}

fn instant_key(event: &JsonValue) -> Key {
    let args = event.get("args");
    let req = args
        .and_then(|a| a.get("req"))
        .and_then(JsonValue::as_f64)
        .map_or(0, |n| n as u64);
    let rest = args
        .and_then(JsonValue::entries)
        .into_iter()
        .flatten()
        .filter(|(k, _)| k.as_str() != "req");
    (
        event
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string(),
        req,
        num(event, "tid"),
        fields(rest),
        event.get("ts").and_then(JsonValue::as_f64).unwrap(),
    )
}

#[test]
fn rerun_events_join_by_request_id_in_log_and_trace() {
    let buf = Shared(Arc::new(Mutex::new(Vec::new())));
    yalla::obs::global().log_to(Box::new(buf.clone()));
    yalla::obs::enable();

    let dir = std::env::temp_dir().join(format!("yalla-event-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir).expect("open store"));
    let state = ServeState::with_store(Executor::new(2), Some(store));

    let open = "{\"op\": \"open\", \"project\": \"p\", \"header\": \"lib.hpp\", \
                \"sources\": [\"main.cpp\"], \"files\": {\
                \"lib.hpp\": \"namespace K { class W { public: int id() const; }; }\\n\", \
                \"main.cpp\": \"#include \\\"lib.hpp\\\"\\nint f(K::W& w) { return w.id(); }\\n\"}}";
    let edit = "{\"op\": \"edit\", \"project\": \"p\", \"path\": \"main.cpp\", \
                \"text\": \"#include \\\"lib.hpp\\\"\\nint f(K::W& w) { return w.id() + 1; }\\n\"}";
    for line in [open, edit] {
        let r = state.handle_line(line);
        assert!(r.text.contains("\"ok\": true"), "{}", r.text);
    }
    let response = state
        .handle_line("{\"op\": \"rerun\", \"project\": \"p\"}")
        .text;
    assert!(response.contains("\"ok\": true"), "{response}");
    let req = num(&json::parse(&response).expect("valid response"), "req");
    yalla::obs::disable();
    yalla::obs::log::flush();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<JsonValue> = text
        .lines()
        .map(|l| json::parse(l).expect("every event-log line is valid JSON"))
        .collect();
    let of_rerun = |kind: &str| -> Vec<&JsonValue> {
        lines
            .iter()
            .filter(|v| v.get("kind").and_then(JsonValue::as_str) == Some(kind))
            .filter(|v| num(v, "req") == req)
            .collect()
    };

    // The rerun's request line, its six stage lines and its store
    // lookups all carry the id the response was stamped with.
    let requests = of_rerun("request");
    assert_eq!(requests.len(), 1, "{text}");
    assert_eq!(
        requests[0].get("op").and_then(JsonValue::as_str),
        Some("rerun")
    );
    assert_eq!(of_rerun("stage").len(), 6, "{text}");
    assert!(
        !of_rerun("store").is_empty(),
        "no store lookup joined to the rerun:\n{text}"
    );
    for kind in ["stage", "store"] {
        let stray = lines
            .iter()
            .filter(|v| v.get("kind").and_then(JsonValue::as_str) == Some(kind))
            .filter(|v| num(v, "req") != req);
        // Only the open and edit requests precede the rerun; no stage ran
        // outside a request.
        for v in stray {
            assert_ne!(
                num(v, "req"),
                0,
                "{kind} event outside any request:\n{text}"
            );
        }
    }

    // One stream, two renderings: the log lines and the trace's instant
    // events pair up one to one, on one clock.
    let trace = json::parse(&yalla::obs::global().chrome_trace()).expect("valid trace");
    let mut instants: Vec<Key> = trace
        .as_array()
        .expect("array of events")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
        .map(instant_key)
        .collect();
    let mut logged: Vec<Key> = lines.iter().map(line_key).collect();
    assert_eq!(instants.len(), logged.len(), "{text}");
    for keys in [&mut instants, &mut logged] {
        keys.sort_by(|a, b| {
            (&a.0, a.1, a.2, &a.3)
                .cmp(&(&b.0, b.1, b.2, &b.3))
                .then(a.4.total_cmp(&b.4))
        });
    }
    for (instant, line) in instants.iter().zip(&logged) {
        assert_eq!(
            (&instant.0, instant.1, instant.2, &instant.3),
            (&line.0, line.1, line.2, &line.3)
        );
        assert!((instant.4 - line.4).abs() <= 1.0, "{instant:?} vs {line:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
