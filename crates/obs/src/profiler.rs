//! The profiler: hierarchical RAII spans, counter samples and discrete
//! events, recorded against one wall-clock epoch — the one place an
//! event is recorded, whichever sinks render it.
//!
//! Design constraints (from the paper's own methodology — `-ftime-trace`
//! style attribution of where time goes):
//!
//! * **Negligible overhead when disabled.** `span()` always reads the
//!   clock (so callers can derive timings from spans whether or not a
//!   trace is being collected) but allocates and records nothing unless
//!   the profiler is enabled; the enabled check is one relaxed atomic
//!   load.
//! * **Thread-aware.** Each OS thread gets a stable small `tid` on first
//!   use; events from worker threads land on their own tracks.
//! * **One event model.** Events are [`crate::Event`]s, shared with the
//!   simulator's virtual-time traces, stamped with the recording
//!   thread's tid and ambient [`crate::reqid`].
//! * **One stream, several renderings.** A [`Profiler::event`] is
//!   buffered for the Chrome trace while tracing is enabled and written
//!   as a JSONL line once a log is installed ([`Profiler::log_to`]).

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{ArgValue, Event, Phase};
use crate::hist::{Histogram, HistogramRegistry};
use crate::metrics::MetricsRegistry;

/// [`Inner::sinks`] bit: trace events are buffered.
const TRACE: u8 = 1;
/// [`Inner::sinks`] bit: a JSONL event log is installed.
const LOG: u8 = 2;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's stable small profiler tid (assigned on first
/// use; also stamped on trace events and event-log lines).
pub fn current_tid() -> u64 {
    THREAD_TID.with(|t| *t)
}

#[derive(Debug)]
struct Inner {
    /// Which sinks listen ([`TRACE`], [`LOG`]): one load decides whether
    /// anything is recorded. `Relaxed` suffices: it publishes no data,
    /// since the event buffer and the log writer sit behind their own
    /// mutexes.
    sinks: AtomicU8,
    epoch: Instant,
    pid: AtomicU32,
    events: Mutex<Vec<Event>>,
    metrics: MetricsRegistry,
    hists: HistogramRegistry,
    log: crate::log::Writer,
}

/// A handle to a profiler; clones share the same recording.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A new, *disabled* profiler.
    pub fn new() -> Self {
        Profiler {
            inner: Arc::new(Inner {
                sinks: AtomicU8::new(0),
                epoch: Instant::now(),
                pid: AtomicU32::new(1),
                events: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
                hists: HistogramRegistry::new(),
                log: crate::log::Writer::default(),
            }),
        }
    }

    /// Whether trace events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.sinks.load(Ordering::Relaxed) & TRACE != 0
    }

    /// Turns trace recording on or off.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.inner.sinks.fetch_or(TRACE, Ordering::Relaxed);
        } else {
            self.inner.sinks.fetch_and(!TRACE, Ordering::Relaxed);
        }
    }

    /// Writes every later [`Profiler::event`] as one JSONL line to `out`
    /// (see [`crate::log`]), replacing any earlier log.
    pub fn log_to(&self, out: Box<dyn Write + Send>) {
        self.inner.log.install(out);
        self.inner.sinks.fetch_or(LOG, Ordering::Relaxed);
    }

    /// Flushes the installed event log, if any.
    pub fn flush_log(&self) {
        self.inner.log.flush();
    }

    /// Sets the pid stamped on events and pushes a `process_name`
    /// metadata event, so multiple profiles load side-by-side.
    pub fn set_process(&self, pid: u32, label: &str) {
        self.inner.pid.store(pid, Ordering::Relaxed);
        self.push(Event::process_name(pid, label));
    }

    fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, event: Event) {
        if self.is_enabled() {
            self.inner.events.lock().expect("events lock").push(event);
        }
    }

    /// Opens a span. The guard *always* measures wall time (so
    /// [`Span::finish`] returns a real duration even when profiling is
    /// off); an event is recorded only when the profiler is enabled at
    /// the time the span closes.
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        Span {
            profiler: self.clone(),
            // Skip the allocation when nothing will be recorded.
            name: self.is_enabled().then(|| name.to_string()),
            cat,
            ts_us: self.now_us(),
            start: Instant::now(),
            done: false,
        }
    }

    /// Records one event of `kind` carrying `fields`. With neither a
    /// trace nor a log listening this costs one relaxed atomic load and
    /// never calls `fields`; otherwise the event is buffered as a trace
    /// instant and/or written as an event-log line.
    pub fn event<'a, const N: usize>(
        &self,
        kind: &str,
        fields: impl FnOnce() -> [(&'a str, ArgValue); N],
    ) {
        let sinks = self.inner.sinks.load(Ordering::Relaxed);
        if sinks == 0 {
            return;
        }
        let mut event = self.here(kind.to_string(), "event", Phase::Instant, self.now_us());
        event.args = fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        if sinks & LOG != 0 {
            self.inner.log.write(&event);
        }
        if sinks & TRACE != 0 {
            self.push(event);
        }
    }

    /// An event of the calling thread, stamped with the profiler's pid,
    /// the thread's tid and its ambient request id.
    fn here(&self, name: String, cat: &str, ph: Phase, ts_us: f64) -> Event {
        Event {
            name,
            cat: cat.to_string(),
            ph,
            ts_us,
            dur_us: 0.0,
            pid: self.inner.pid.load(Ordering::Relaxed),
            tid: current_tid(),
            req: crate::reqid::current(),
            args: Vec::new(),
        }
    }

    /// Bumps the counter metric `name` by `delta`; when enabled, also
    /// records a counter event sampling the new total.
    pub fn count(&self, name: &str, delta: i64) {
        let total = self.inner.metrics.counter(name).add(delta);
        if self.is_enabled() {
            let mut event = self.here(name.to_string(), "metric", Phase::Counter, self.now_us());
            event.args.push(("value".to_string(), ArgValue::Int(total)));
            self.push(event);
        }
    }

    /// Sets the gauge metric `name` (no trace event).
    pub fn gauge(&self, name: &str, value: i64) {
        self.inner.metrics.gauge(name).set(value);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The latency-histogram registry.
    pub fn histograms(&self) -> &HistogramRegistry {
        &self.inner.hists
    }

    /// The latency histogram named `name` (created on first use).
    /// Recording is always on — histograms, like metrics, aggregate
    /// whether or not trace-event recording is enabled.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.hists.histogram(name)
    }

    /// Records `value` (µs by convention) into histogram `name`.
    pub fn observe_us(&self, name: &str, value: u64) {
        self.inner.hists.histogram(name).record(value);
    }

    /// A copy of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().expect("events lock").clone()
    }

    /// Clears events and zeroes metrics and histograms.
    pub fn reset(&self) {
        self.inner.events.lock().expect("events lock").clear();
        self.inner.metrics.reset();
        self.inner.hists.reset();
    }

    /// Serializes the recorded events as Chrome-trace JSON.
    pub fn chrome_trace(&self) -> String {
        crate::chrome::to_json(&self.events())
    }

    /// Renders the human-readable span + metrics summary.
    pub fn summary(&self) -> String {
        let mut out = crate::summary::span_table(&self.events());
        out.push_str(&crate::summary::metrics_table(&self.inner.metrics));
        out
    }

    fn record_span(&self, name: String, cat: &'static str, ts_us: f64, dur: Duration) {
        let mut event = self.here(name, cat, Phase::Complete, ts_us);
        event.dur_us = dur.as_secs_f64() * 1e6;
        self.push(event);
    }
}

/// RAII guard for one span. Dropping (or calling [`Span::finish`])
/// closes the span; recording happens iff the profiler was enabled when
/// the span opened.
#[derive(Debug)]
pub struct Span {
    profiler: Profiler,
    name: Option<String>,
    cat: &'static str,
    ts_us: f64,
    start: Instant,
    done: bool,
}

impl Span {
    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span and returns its measured wall-clock duration
    /// (valid whether or not profiling is enabled).
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        self.close(dur);
        dur
    }

    fn close(&mut self, dur: Duration) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(name) = self.name.take() {
            self.profiler.record_span(name, self.cat, self.ts_us, dur);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        self.close(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing_but_still_times() {
        let p = Profiler::new();
        let sp = p.span("t", "work");
        std::thread::sleep(Duration::from_millis(2));
        let dur = sp.finish();
        p.count("c", 3);
        p.event("marker", || [("k", ArgValue::Int(1))]);
        assert!(dur >= Duration::from_millis(2));
        assert!(
            p.events().is_empty(),
            "disabled profiler must record zero events"
        );
        // Metrics still aggregate while disabled.
        assert_eq!(p.metrics().counter("c").get(), 3);
    }

    #[test]
    fn enabled_mode_records_complete_events() {
        let p = Profiler::new();
        p.set_enabled(true);
        {
            let _outer = p.span("t", "outer");
            let _inner = p.span("t", "inner");
        }
        let events = p.events();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].encloses(&events[0]), "{events:?}");
    }

    #[test]
    fn spans_from_threads_get_distinct_tids() {
        let p = Profiler::new();
        p.set_enabled(true);
        let _main = p.span("t", "main").finish();
        let p2 = p.clone();
        std::thread::spawn(move || {
            p2.span("t", "worker").finish();
        })
        .join()
        .unwrap();
        let events = p.events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn counter_events_sample_running_total() {
        let p = Profiler::new();
        p.set_enabled(true);
        p.count("n", 2);
        p.count("n", 5);
        let events = p.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].args,
            vec![("value".to_string(), ArgValue::Int(2))]
        );
        assert_eq!(
            events[1].args,
            vec![("value".to_string(), ArgValue::Int(7))]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let p = Profiler::new();
        p.set_enabled(true);
        p.span("t", "s").finish();
        p.count("c", 1);
        p.reset();
        assert!(p.events().is_empty());
        assert_eq!(p.metrics().counter("c").get(), 0);
    }
}
