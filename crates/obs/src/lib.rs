//! **yalla-obs** — self-profiling and metrics for the YALLA workspace.
//!
//! The paper's evaluation is built on knowing *where time goes*: Figure 7
//! phase breakdowns, Figure 10's tool-time / wrapper-compile / main-compile
//! decomposition, and the §5.5 startup-cost discussion all come from
//! `-ftime-trace`-style traces. This crate gives the reproduction the same
//! power over itself:
//!
//! * [`Profiler`] — hierarchical RAII [`Span`]s with wall-clock timing,
//!   thread-aware, with negligible overhead while disabled;
//! * [`MetricsRegistry`] — named counters and gauges (files preprocessed,
//!   symbols resolved, wrappers generated, …) that aggregate across
//!   threads; see [`metrics::names`] for the well-known keys;
//! * [`Histogram`] — log-bucketed latency histograms with exact
//!   cross-thread merge and pause-free snapshots, per request class;
//! * [`reqid`] — the ambient request id the serve daemon threads through
//!   sessions, DAG nodes, and store lookups for end-to-end causality;
//! * [`event`] — the one entry point for discrete events (a request, a
//!   stage decision, a store lookup, a cancel): each is one [`Event`] in
//!   the profiler's stream, stamped with its thread and request id;
//! * renderings of that stream — a Chrome-trace JSON writer ([`chrome`])
//!   sharing the [`Event`] model with the simulator's virtual-time
//!   traces, a structured JSONL event log ([`log`], `--event-log`), and
//!   a human-readable summary table ([`summary`]); plus a
//!   Prometheus text-format exporter of the metrics ([`export`], the
//!   daemon's `metrics` op);
//! * [`json`] — a tiny validating JSON parser used to test the writers.
//!
//! Most call sites use the process-global profiler through the free
//! functions:
//!
//! ```
//! yalla_obs::enable();
//! {
//!     let _outer = yalla_obs::span("demo", "outer");
//!     let _inner = yalla_obs::span("demo", "inner");
//!     yalla_obs::count("demo.items", 2);
//! }
//! let trace = yalla_obs::global().chrome_trace();
//! assert!(trace.contains("\"outer\""));
//! yalla_obs::disable();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profiler;
pub mod reqid;
pub mod summary;

pub use event::{ArgValue, Event, Phase};
pub use hist::{Histogram, HistogramRegistry, HistogramSnapshot};
pub use metrics::{Counter, Gauge, MetricKind, MetricsRegistry};
pub use profiler::{Profiler, Span};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Profiler> = OnceLock::new();

/// The process-global profiler (created disabled on first use).
pub fn global() -> &'static Profiler {
    GLOBAL.get_or_init(Profiler::new)
}

/// Enables recording on the global profiler.
pub fn enable() {
    global().set_enabled(true);
}

/// Disables recording on the global profiler.
pub fn disable() {
    global().set_enabled(false);
}

/// Whether the global profiler is recording.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Opens a span on the global profiler.
pub fn span(cat: &'static str, name: &str) -> Span {
    global().span(cat, name)
}

/// Bumps a counter on the global profiler (records a counter event when
/// enabled).
pub fn count(name: &str, delta: i64) {
    global().count(name, delta)
}

/// Sets a gauge on the global profiler.
pub fn gauge(name: &str, value: i64) {
    global().gauge(name, value)
}

/// Records one event of `kind` on the global profiler (see
/// [`Profiler::event`]): `fields` is called only when a trace or an
/// event log is listening.
pub fn event<'a, const N: usize>(kind: &str, fields: impl FnOnce() -> [(&'a str, ArgValue); N]) {
    global().event(kind, fields)
}

/// Records `value` (µs by convention) into the global latency histogram
/// `name`. Histograms, like metrics, aggregate whether or not trace
/// recording is enabled.
pub fn observe_us(name: &str, value: u64) {
    global().observe_us(name, value)
}

/// Records a [`std::time::Duration`] into the global latency histogram
/// `name` (in microseconds).
pub fn observe(name: &str, dur: std::time::Duration) {
    global().histogram(name).record_duration(dur)
}

#[cfg(test)]
mod tests {
    // NOTE: these tests share the one global profiler, so they must not
    // run concurrently with each other — serialize through a lock.
    use std::sync::Mutex;

    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn global_disabled_by_default_and_toggles() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        crate::disable();
        crate::global().reset();
        crate::span("t", "ignored").finish();
        assert!(crate::global().events().is_empty());
        crate::enable();
        crate::span("t", "seen").finish();
        assert_eq!(crate::global().events().len(), 1);
        crate::disable();
        crate::global().reset();
    }

    #[test]
    fn global_counters_visible_in_summary() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        crate::global().reset();
        crate::count("t.things", 4);
        let summary = crate::global().summary();
        assert!(summary.contains("t.things"), "{summary}");
        crate::global().reset();
    }
}
