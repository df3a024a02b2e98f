//! The shared trace-event model.
//!
//! One event type serves every producer in the workspace: the tool's own
//! profiler (`-ftime-trace`-style self-profiling) and the simulator's
//! virtual-time traces both serialize through
//! [`chrome::to_json`](crate::chrome::to_json), so a tool self-profile
//! and a simulated build load side-by-side in `chrome://tracing` /
//! Perfetto.

/// The Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete duration event (`ph: "X"`).
    Complete,
    /// A counter sample (`ph: "C"`).
    Counter,
    /// An instant marker (`ph: "i"`).
    Instant,
    /// Process/thread metadata (`ph: "M"`), e.g. `process_name`.
    Metadata,
}

impl Phase {
    /// The single-letter Chrome-trace code.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Counter => "C",
            Phase::Instant => "i",
            Phase::Metadata => "M",
        }
    }
}

/// A value attached to an event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An integer argument.
    Int(i64),
    /// A float argument.
    Float(f64),
    /// A string argument.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (span name, counter name, or metadata kind).
    pub name: String,
    /// Category (e.g. `engine`, `pp`, `compile`).
    pub cat: String,
    /// Phase.
    pub ph: Phase,
    /// Start timestamp in microseconds (wall-clock for self-profiles,
    /// virtual time for simulator traces).
    pub ts_us: f64,
    /// Duration in microseconds (only meaningful for [`Phase::Complete`]).
    pub dur_us: f64,
    /// Process id — different producers (configs, runs) use different
    /// pids so their tracks stay separate in the viewer.
    pub pid: u32,
    /// Thread id.
    pub tid: u64,
    /// The [`crate::reqid`] request id the event belongs to (0 when
    /// none); rendered as the first `args` entry only when non-zero.
    pub req: u64,
    /// Arguments rendered into the event's `args` object.
    pub args: Vec<(String, ArgValue)>,
}

impl Event {
    /// A complete (duration) event.
    pub fn complete(name: &str, cat: &str, ts_us: f64, dur_us: f64, pid: u32, tid: u64) -> Self {
        Event {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: Phase::Complete,
            ts_us,
            dur_us,
            pid,
            tid,
            req: 0,
            args: Vec::new(),
        }
    }

    /// A counter sample carrying a single `value` argument.
    pub fn counter(name: &str, ts_us: f64, value: i64, pid: u32, tid: u64) -> Self {
        Event {
            name: name.to_string(),
            cat: "metric".to_string(),
            ph: Phase::Counter,
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            req: 0,
            args: vec![("value".to_string(), ArgValue::Int(value))],
        }
    }

    /// An instant marker (zero-width moment, e.g. "edit" in a dev-cycle
    /// timeline).
    pub fn instant(name: &str, cat: &str, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: Phase::Instant,
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            req: 0,
            args: Vec::new(),
        }
    }

    /// A `process_name` metadata event, so traces from several producers
    /// label their tracks when loaded together.
    pub fn process_name(pid: u32, label: &str) -> Self {
        Event {
            name: "process_name".to_string(),
            cat: "__metadata".to_string(),
            ph: Phase::Metadata,
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid: 0,
            req: 0,
            args: vec![("name".to_string(), ArgValue::Str(label.to_string()))],
        }
    }

    /// A `thread_name` metadata event.
    pub fn thread_name(pid: u32, tid: u64, label: &str) -> Self {
        Event {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: Phase::Metadata,
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid,
            req: 0,
            args: vec![("name".to_string(), ArgValue::Str(label.to_string()))],
        }
    }

    /// End timestamp (µs).
    pub fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }

    /// True when `other` lies strictly inside this event's time range on
    /// the same pid/tid — the nesting relation Chrome's flame view draws.
    pub fn encloses(&self, other: &Event) -> bool {
        self.pid == other.pid
            && self.tid == other.tid
            && self.ts_us <= other.ts_us
            && other.end_us() <= self.end_us()
            && self.dur_us > other.dur_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes() {
        assert_eq!(Phase::Complete.code(), "X");
        assert_eq!(Phase::Counter.code(), "C");
        assert_eq!(Phase::Instant.code(), "i");
        assert_eq!(Phase::Metadata.code(), "M");
    }

    #[test]
    fn enclosure_requires_same_track() {
        let outer = Event::complete("outer", "c", 0.0, 100.0, 1, 1);
        let inner = Event::complete("inner", "c", 10.0, 20.0, 1, 1);
        let other_thread = Event::complete("inner", "c", 10.0, 20.0, 1, 2);
        assert!(outer.encloses(&inner));
        assert!(!outer.encloses(&other_thread));
        assert!(!inner.encloses(&outer));
    }

    #[test]
    fn counter_carries_value() {
        let e = Event::counter("files", 5.0, 42, 1, 1);
        assert_eq!(e.args, vec![("value".to_string(), ArgValue::Int(42))]);
        assert_eq!(e.ph, Phase::Counter);
    }
}
