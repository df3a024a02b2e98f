//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing is added inside the program. They
//! stay in memory and are written once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// Operation id shared by every span of one operation (an edit, a
    /// replay, a request).
    pub op: u64,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; every call is a no-op when disabled, so
/// the untraced run pays nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Starts a new operation; spans opened until the next call share its id.
    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start = self.now_us();
        self.spans.push(Span {
            id,
            op: self.next_op,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us: start,
            end_us: start,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_if(true, name, f)
    }

    /// Runs `f`, inside a span named `name` only when `on`.
    pub fn span_if<T>(&mut self, on: bool, name: &str, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in microseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<String, f64> {
        let selfs = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(selfs) {
            *out.entry(span.name.clone()).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}{}",
                s.id,
                s.op,
                s.name,
                s.start_us,
                s.end_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            op: 1,
            parent,
            name: format!("s{id}"),
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 40.0),
            // Overlaps child 1 by 10 us: covered once, not twice.
            span(2, Some(0), 30.0, 60.0),
            span(3, Some(2), 35.0, 45.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50.0, 30.0, 20.0, 10.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op();
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_the_operation_id() {
        let mut t = Tracer::new(true);
        let op = t.begin_op();
        t.enter("outer");
        t.span("inner", || ());
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.op == op));
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
