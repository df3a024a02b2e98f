//! The metrics registry: named counters and gauges, shared across
//! threads.
//!
//! Counters are monotone sums (`files preprocessed`, `wrappers
//! generated`); gauges hold the latest value (`lines in current TU`).
//! Cells are `Arc<AtomicI64>`, so a handle obtained once can be bumped
//! from any thread without re-locking the registry, and concurrent adds
//! aggregate correctly.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

/// Well-known metric names, so producers and readers agree on spelling.
pub mod names {
    /// Files that entered preprocessing (the `pp.*` counters count the
    /// work done: a parse that reuses include fragments counts neither
    /// what they entered nor, once one is reused, the main file's lines
    /// in its leading block).
    pub const FILES_PREPROCESSED: &str = "pp.files_preprocessed";
    /// Active source lines delivered to the parser.
    pub const LINES_PREPROCESSED: &str = "pp.lines_preprocessed";
    /// `#include` directives resolved.
    pub const INCLUDES_RESOLVED: &str = "pp.includes_resolved";
    /// Macro expansions performed.
    pub const MACRO_EXPANSIONS: &str = "pp.macro_expansions";
    /// Top-level declarations parsed into ASTs (a parse that reuses
    /// include fragments counts only the ones it parsed).
    pub const AST_DECLS: &str = "parse.ast_decls";
    /// Parses that reused at least one include fragment of the main
    /// file's leading block (`yalla_cpp::preamble`) instead of
    /// preprocessing and parsing the include again.
    pub const PREAMBLE_REUSED: &str = "cpp.preamble_reused";
    /// Include fragments built: an include of a main file's leading
    /// block preprocessed and parsed on its own.
    pub const FRAGMENTS_BUILT: &str = "cpp.fragments_built";
    /// Include fragments found valid in the session's pool and replayed
    /// instead of being built.
    pub const FRAGMENTS_REUSED: &str = "cpp.fragments_reused";
    /// Entries inserted into symbol tables: every symbol of a table built
    /// from scratch; for a table extended from an include fragment's or a
    /// chain's, only the entries the rest of the TU added or changed.
    pub const SYMBOLS_RESOLVED: &str = "analysis.symbols_resolved";
    /// Memoized symbol tables of include fragments and chains used again
    /// instead of walking their declarations again.
    pub const SYMTAB_REUSED: &str = "analysis.symtab_reused";
    /// Classes/functions found used in the sources.
    pub const USED_SYMBOLS: &str = "analysis.used_symbols";
    /// Incomplete-type rule checks executed.
    pub const INCOMPLETE_CHECKS: &str = "analysis.incomplete_checks";
    /// Function + method wrappers generated.
    pub const WRAPPERS_GENERATED: &str = "engine.wrappers_generated";
    /// Source files rewritten.
    pub const REWRITES_APPLIED: &str = "engine.rewrites_applied";
    /// Engine runs completed.
    pub const ENGINE_RUNS: &str = "engine.runs";
    /// Cache hits, summed across every stage cache.
    pub const CACHE_HITS: &str = "cache.hits";
    /// Cache misses, summed across every stage cache.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Cached artifacts recomputed because their input keys changed.
    pub const CACHE_INVALIDATIONS: &str = "cache.invalidations";
    /// In-memory parse-cache entries evicted by the byte budget
    /// (`--mem-budget` / `YALLA_MEM_BUDGET`); an evicted entry is simply
    /// dropped, and the next parse of its root misses.
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Estimated bytes of parsed TUs currently resident in in-memory
    /// parse caches, process-wide (gauge).
    pub const CACHE_BYTES_RESIDENT: &str = "cache.bytes_resident";
    /// Session reruns executed (`Session::rerun`).
    pub const SESSION_RERUNS: &str = "session.reruns";
    /// Translation units actually re-parsed by session reruns (parse-stage
    /// cache misses; 0 on a fully warm rerun).
    pub const SESSION_TUS_REPARSED: &str = "session.tus_reparsed";
    /// Verify-stage wrappers checks answered from the session's memo:
    /// the wrappers TU's include closure was byte-identical to the last
    /// passing check, so the expensive header was not parsed again.
    pub const VERIFY_WRAPPERS_REUSED: &str = "verify.wrappers_reused";
    /// Simulated dev-cycle iterations assembled.
    pub const SIM_ITERATIONS: &str = "sim.iterations";
    /// Tasks executed by yalla-exec worker threads.
    pub const EXEC_TASKS_EXECUTED: &str = "exec.tasks_executed";
    /// Tasks a worker stole from a sibling's deque.
    pub const EXEC_TASKS_STOLEN: &str = "exec.tasks_stolen";
    /// Times a worker parked with no work available.
    pub const EXEC_PARKS: &str = "exec.parks";
    /// Tasks spawned at background priority (prefetch / warm-up work that
    /// only runs from idle capacity).
    pub const EXEC_TASKS_BACKGROUND: &str = "exec.tasks_background";
    /// Worker threads in the global executor (gauge).
    pub const EXEC_WORKERS: &str = "exec.workers";
    /// Requests handled by the `yalla serve` daemon.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Requests the daemon rejected (bad JSON, unknown project, busy).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Edits the daemon batched (queued without an immediate rerun).
    pub const SERVE_EDITS_BATCHED: &str = "serve.edits_batched";
    /// Reruns the daemon cancelled mid-flight because a newer edit
    /// superseded them (the cancelled attempt's edits coalesce into the
    /// retry).
    pub const SERVE_CANCELLED: &str = "serve.cancelled";
    /// Edits absorbed into an already-running rerun via supersede-and-retry
    /// coalescing (beyond plain pre-rerun batching).
    pub const SERVE_EDITS_COALESCED: &str = "serve.edits_coalesced";
    /// Background warm-up reruns completed by the daemon after a restart.
    pub const SERVE_PREFETCHES: &str = "serve.prefetches";
    /// Reruns the daemon executed on behalf of clients.
    pub const SERVE_RERUNS: &str = "serve.reruns";
    /// Project shards the daemon currently holds warm (gauge).
    pub const SERVE_SHARDS: &str = "serve.shards";
    /// On-disk store entries found valid on lookup.
    pub const STORE_HITS: &str = "store.hits";
    /// On-disk store hits served as zero-copy payload views (no copy out
    /// of the record buffer; subset of `store.hits`).
    pub const STORE_ZERO_COPY_HITS: &str = "store.zero_copy_hits";
    /// On-disk store lookups that found nothing.
    pub const STORE_MISSES: &str = "store.misses";
    /// On-disk store entries evicted by the LRU size bound.
    pub const STORE_EVICTIONS: &str = "store.evictions";
    /// On-disk store entries dropped as torn/corrupt (counted as misses too).
    pub const STORE_CORRUPT: &str = "store.corruptions";
    /// Bytes of entry payloads currently held by the on-disk store (gauge).
    pub const STORE_BYTES: &str = "store.bytes";
    /// Differential-fuzzer cases executed (`yalla fuzz`).
    pub const FUZZ_CASES: &str = "fuzz.cases";
    /// Differential-fuzzer divergences detected.
    pub const FUZZ_DIVERGENCES: &str = "fuzz.divergences";
    /// Successful shrinker deletions while minimizing a divergence.
    pub const FUZZ_SHRINK_STEPS: &str = "fuzz.shrink_steps";

    /// Name of the per-stage cache counter `cache.<stage>.<outcome>`
    /// (outcome is `hits`, `misses` or `invalidations`) — the names behind
    /// the session layer's per-stage hit/miss/invalidation accounting.
    pub fn stage_cache(stage: &str, outcome: &str) -> String {
        format!("cache.{stage}.{outcome}")
    }

    /// The session pipeline stages, in execution order — the `<stage>`
    /// axis of [`stage_cache`] and [`latency_stage`].
    pub const STAGES: [&str; 6] = ["parse", "analyze", "plan", "emit", "rewrite", "verify"];

    /// The per-stage cache outcomes — the `<outcome>` axis of
    /// [`stage_cache`].
    pub const CACHE_OUTCOMES: [&str; 3] = ["hits", "misses", "invalidations"];

    /// The serve-daemon request classes (protocol ops) — the `<op>` axis
    /// of [`serve_requests`] and [`latency_serve`].
    pub const REQUEST_CLASSES: [&str; 7] = [
        "open", "edit", "rerun", "get", "status", "metrics", "shutdown",
    ];

    /// Name of the per-class request counter `serve.requests.<op>`.
    pub fn serve_requests(op: &str) -> String {
        format!("serve.requests.{op}")
    }

    /// Name of the per-class serve latency histogram `latency.serve.<op>`
    /// (request wall time in µs, measured around the daemon handler).
    pub fn latency_serve(op: &str) -> String {
        format!("latency.serve.{op}")
    }

    /// Name of the per-stage latency histogram `latency.stage.<stage>`
    /// (stage wall time in µs for non-cached executions).
    pub fn latency_stage(stage: &str) -> String {
        format!("latency.stage.{stage}")
    }

    /// Store-lookup latency histogram for lookups that hit (µs).
    pub const LATENCY_STORE_HIT: &str = "latency.store.hit";
    /// Store-lookup latency histogram for lookups that missed (µs).
    pub const LATENCY_STORE_MISS: &str = "latency.store.miss";
    /// Latency histogram for rerun attempts that were cancelled mid-flight
    /// (µs from attempt start to the cooperative stop — the wasted work a
    /// supersede saves the client from waiting out).
    pub const LATENCY_SERVE_RERUN_CANCELLED: &str = "latency.serve.rerun_cancelled";

    /// Every well-known telemetry name — the static counter/gauge
    /// constants plus the expanded dynamic families (per-stage cache
    /// counters, per-class request counters, latency histograms) —
    /// sorted. A unit test pins this set against the checked-in
    /// `crates/obs/metrics.manifest`, so adding or renaming a metric is
    /// a deliberate, reviewed act.
    pub fn all() -> Vec<String> {
        let mut names: Vec<String> = [
            FILES_PREPROCESSED,
            LINES_PREPROCESSED,
            INCLUDES_RESOLVED,
            MACRO_EXPANSIONS,
            AST_DECLS,
            PREAMBLE_REUSED,
            FRAGMENTS_BUILT,
            FRAGMENTS_REUSED,
            SYMBOLS_RESOLVED,
            SYMTAB_REUSED,
            USED_SYMBOLS,
            INCOMPLETE_CHECKS,
            WRAPPERS_GENERATED,
            REWRITES_APPLIED,
            ENGINE_RUNS,
            CACHE_HITS,
            CACHE_MISSES,
            CACHE_INVALIDATIONS,
            CACHE_EVICTIONS,
            CACHE_BYTES_RESIDENT,
            SESSION_RERUNS,
            SESSION_TUS_REPARSED,
            VERIFY_WRAPPERS_REUSED,
            SIM_ITERATIONS,
            EXEC_TASKS_EXECUTED,
            EXEC_TASKS_STOLEN,
            EXEC_PARKS,
            EXEC_TASKS_BACKGROUND,
            EXEC_WORKERS,
            SERVE_REQUESTS,
            SERVE_REJECTED,
            SERVE_EDITS_BATCHED,
            SERVE_CANCELLED,
            SERVE_EDITS_COALESCED,
            SERVE_PREFETCHES,
            SERVE_RERUNS,
            SERVE_SHARDS,
            STORE_HITS,
            STORE_ZERO_COPY_HITS,
            STORE_MISSES,
            STORE_EVICTIONS,
            STORE_CORRUPT,
            STORE_BYTES,
            FUZZ_CASES,
            FUZZ_DIVERGENCES,
            FUZZ_SHRINK_STEPS,
            LATENCY_STORE_HIT,
            LATENCY_STORE_MISS,
            LATENCY_SERVE_RERUN_CANCELLED,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for stage in STAGES {
            for outcome in CACHE_OUTCOMES {
                names.push(stage_cache(stage, outcome));
            }
            names.push(latency_stage(stage));
        }
        for op in REQUEST_CLASSES {
            names.push(serve_requests(op));
            names.push(latency_serve(op));
        }
        names.sort();
        names
    }
}

/// What a metric slot is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum.
    Counter,
    /// Latest value.
    Gauge,
}

/// A cheap, thread-safe handle to one counter cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicI64>,
}

impl Counter {
    /// Adds `delta` and returns the new value.
    pub fn add(&self, delta: i64) -> i64 {
        self.cell.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A cheap, thread-safe handle to one gauge cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value, returning it.
    pub fn set(&self, value: i64) -> i64 {
        self.cell.store(value, Ordering::Relaxed);
        value
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct Slot {
    cell: Arc<AtomicI64>,
    kind: MetricKind,
}

/// A registry of named metric cells.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn cell(&self, name: &str, kind: MetricKind) -> Arc<AtomicI64> {
        let mut slots = self.slots.lock().expect("metrics lock");
        Arc::clone(
            &slots
                .entry(name.to_string())
                .or_insert_with(|| Slot {
                    cell: Arc::new(AtomicI64::new(0)),
                    kind,
                })
                .cell,
        )
    }

    /// The counter named `name` (created at zero on first use).
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.cell(name, MetricKind::Counter),
        }
    }

    /// The gauge named `name` (created at zero on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.cell(name, MetricKind::Gauge),
        }
    }

    /// A snapshot of every metric: `(name, kind, value)`, name-sorted.
    pub fn snapshot(&self) -> Vec<(String, MetricKind, i64)> {
        let slots = self.slots.lock().expect("metrics lock");
        slots
            .iter()
            .map(|(name, slot)| (name.clone(), slot.kind, slot.cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// Resets every cell to zero (slots stay registered).
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("metrics lock");
        for slot in slots.values() {
            slot.cell.store(0, Ordering::Relaxed);
        }
    }
}

/// A per-thread counter buffer for hot loops.
///
/// [`Counter`] handles are already thread-safe, but obtaining one takes
/// the registry lock, and a tight task loop bumping many names would
/// either hold handles for every name or re-lock per bump. A
/// `LocalCounters` accumulates deltas in a plain (unsynchronized, owned)
/// map and merges them into a shared [`MetricsRegistry`] in one pass at
/// quiescent points — the yalla-exec workers flush when they park and
/// when they exit. Dropping an unflushed buffer is a bug in the owner,
/// so `Drop` asserts emptiness in debug builds; prefer an explicit
/// [`flush_into`](LocalCounters::flush_into).
///
/// The aggregate across threads is exact: every delta is added to the
/// buffer exactly once and every buffer is flushed into atomic cells, so
/// no update can be lost or double-counted regardless of interleaving.
#[derive(Debug, Default)]
pub struct LocalCounters {
    pending: HashMap<&'static str, i64>,
}

impl LocalCounters {
    /// An empty buffer.
    pub fn new() -> Self {
        LocalCounters::default()
    }

    /// Buffers `delta` against `name` (no lock taken).
    pub fn add(&mut self, name: &'static str, delta: i64) {
        *self.pending.entry(name).or_insert(0) += delta;
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Merges every buffered delta into `registry` and empties the
    /// buffer. Zero-sum entries are dropped without touching the
    /// registry.
    pub fn flush_into(&mut self, registry: &MetricsRegistry) {
        for (name, delta) in self.pending.drain() {
            if delta != 0 {
                registry.counter(name).add(delta);
            }
        }
    }
}

impl Drop for LocalCounters {
    fn drop(&mut self) {
        debug_assert!(
            self.pending.is_empty(),
            "LocalCounters dropped with unflushed deltas: {:?}",
            self.pending
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter("a").add(2), 2);
        assert_eq!(reg.counter("a").add(3), 5);
        assert_eq!(reg.counter("a").get(), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.gauge("g").set(10);
        reg.gauge("g").set(7);
        assert_eq!(reg.gauge("g").get(), 7);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("z").set(1);
        reg.counter("a").add(4);
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![
                ("a".to_string(), MetricKind::Counter, 4),
                ("z".to_string(), MetricKind::Gauge, 1),
            ]
        );
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = reg.counter("shared");
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("shared").get(), 8000);
    }

    #[test]
    fn local_buffers_merge_exactly_from_eight_threads() {
        // Satellite requirement: hammer one counter from 8 threads
        // through per-thread buffers and check the exact total. Each
        // thread buffers 10_000 increments, flushing every 64 to
        // interleave flushes with other threads' flushes.
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut local = LocalCounters::new();
                    for i in 0..10_000 {
                        local.add("hammered", 1);
                        if i % 64 == 63 {
                            local.flush_into(&reg);
                        }
                    }
                    local.flush_into(&reg);
                });
            }
        });
        assert_eq!(reg.counter("hammered").get(), 80_000);
    }

    #[test]
    fn local_buffer_coalesces_and_skips_zero_sums() {
        let reg = MetricsRegistry::new();
        let mut local = LocalCounters::new();
        local.add("up", 5);
        local.add("up", 2);
        local.add("wash", 3);
        local.add("wash", -3);
        local.flush_into(&reg);
        assert!(local.is_empty());
        assert_eq!(reg.counter("up").get(), 7);
        // The zero-sum name never created a registry slot.
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_slots() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(9);
        reg.reset();
        assert_eq!(
            reg.snapshot(),
            vec![("a".to_string(), MetricKind::Counter, 0)]
        );
    }

    #[test]
    fn registered_names_match_manifest() {
        // Satellite requirement: the well-known name set is pinned by a
        // checked-in manifest, so renames/additions are deliberate and
        // every producer, DESIGN.md, and dashboards move together.
        use std::collections::BTreeSet;
        let manifest: BTreeSet<&str> = include_str!("../metrics.manifest")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let registered_vec = names::all();
        let registered: BTreeSet<&str> = registered_vec.iter().map(String::as_str).collect();
        let missing: Vec<&&str> = registered.difference(&manifest).collect();
        let stale: Vec<&&str> = manifest.difference(&registered).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "metrics.manifest drifted from names::all() —\n  not in manifest: {missing:?}\n  stale in manifest: {stale:?}"
        );
        assert_eq!(registered.len(), registered_vec.len(), "duplicate names");
    }

    #[test]
    fn dotted_name_families_share_one_scheme() {
        // The drift this guards against: `store.hit` vs `cache.hits`.
        // Every countable family uses plural leaf names.
        for name in [
            names::STORE_HITS,
            names::STORE_MISSES,
            names::STORE_EVICTIONS,
            names::STORE_CORRUPT,
            names::CACHE_HITS,
            names::CACHE_MISSES,
        ] {
            assert!(name.ends_with('s'), "{name} breaks the plural scheme");
        }
        assert_eq!(names::stage_cache("parse", "hits"), "cache.parse.hits");
        assert_eq!(names::serve_requests("rerun"), "serve.requests.rerun");
        assert_eq!(names::latency_serve("open"), "latency.serve.open");
        assert_eq!(names::latency_stage("verify"), "latency.stage.verify");
    }
}
