//! Persistent, incremental Header Substitution sessions.
//!
//! [`crate::Engine::run`] is one-shot: every invocation re-preprocesses,
//! re-parses and re-analyzes everything. A [`Session`] keeps the pipeline's
//! intermediate artifacts alive across runs and recomputes only the stages
//! whose *input keys* changed, turning the tool itself into the steady-state
//! loop the paper measures (Figure 6: after the initial build, only the
//! cheap step ④ re-runs).
//!
//! The pipeline is an explicit stage DAG, scheduled on a
//! [`yalla_exec::Executor`] ([`Session::rerun_on`]); [`Session::rerun`]
//! uses the process-wide pool sized by `YALLA_WORKERS`. Each stage is
//! memoized behind a content-addressed key:
//!
//! ```text
//! parse ──► analyze ──► plan ──► emit ────────┐
//!   │          │          └────► rewrite ─────┼──► verify
//!   └──────────┴───(per-source, parallel)─────┘
//! ```
//!
//! | stage   | key                                                        |
//! |---------|------------------------------------------------------------|
//! | parse   | `(main path, defines)` validated against the include closure's content hashes ([`yalla_cpp::cache::ParseCache`]) |
//! | analyze | closure hash + header + sources + `extra_symbols`          |
//! | plan    | usage fingerprint ([`crate::fingerprint`]) + pre-declare diagnostics |
//! | emit    | plan key                                                   |
//! | rewrite | per source: file hash + reachable source hashes + plan key |
//! | verify  | closure hash + emitted artifacts + rewritten source hashes |
//! | └ wrappers check | wrappers path + defines, validated against the wrappers TU's include closure (the parse-stage depfile rule) |
//!
//! A verify miss parses the substituted TU once, for the sources check,
//! the incomplete-type check and the after-statistics alike. The wrappers
//! check, which parses the whole expensive header, keeps a memo of its
//! last pass: the wrappers TU's `(path, content hash)` list and the
//! defines hash, no AST. While every recorded file (the emitted
//! lightweight header and wrappers file included) still hashes the same,
//! the pass is reused and `verify.wrappers_reused` counts it; a failed
//! check is never memoized.
//!
//! Before building the DAG, a *warm pre-pass* walks the key chain with
//! cheap hashing only ([`yalla_cpp::cache::ParseCache::probe`], then slot
//! key comparisons): every stage proven warm becomes a
//! [`yalla_exec::Dag::cached`] node that completes inline without ever
//! occupying a worker, so a fully warm rerun schedules nothing at all.
//! Stages whose keys cannot be proven (a predecessor must recompute
//! first) become live nodes that compute their key from their
//! predecessors' outputs and refresh their slot, so cache hits *behind*
//! an edited stage are still honored at run time. An edit that does not
//! grow the used-symbol set leaves the usage fingerprint unchanged, so
//! plan and emit are skipped entirely — the paper's §6 "no re-run
//! needed" claim, which `extra_symbols` extends to future symbols.
//! Independent per-source rewrites are separate DAG nodes and fan out
//! across the pool. Every stage reports hits/misses/invalidations to
//! [`yalla_obs`] under `cache.<stage>.*`.
//!
//! Artifacts are byte-identical at every worker count: stage closures
//! are pure functions of their memoized inputs, per-source rewrites are
//! independent, and the result map is assembled in source order — the
//! executor only changes *when* a node runs, never what it computes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use yalla_analysis::symbols::SymbolTable;
use yalla_analysis::usage::UsageReport;
use yalla_cpp::cache::{CachedParse, ParseCache};
use yalla_cpp::hash::{self, Fnv64};
use yalla_cpp::loc::FileId;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::ParsedTu;
use yalla_exec::{CancelToken, Dag, Executor, Priority};
use yalla_store::{Store, NS_RUN};

pub use yalla_cpp::cache::CacheLookup;

use crate::emit;
use crate::engine::{Options, SubstitutionResult, Timings, YallaError};
use crate::fingerprint::usage_fingerprint;
use crate::persist;
use crate::plan::{Diagnostic, DiagnosticKind, Plan};
use crate::report::{Report, TuStats, Verification};
use crate::rewrite::{rewrite_file, Transformer};
use crate::verify::{check_user_tu, VerifyInputs, WrappersMemo};

/// The engine's pipeline stages, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Preprocess + parse the translation unit.
    Parse,
    /// Symbol table, usage analysis, pre-declared symbols.
    Analyze,
    /// Plan construction (wrappers, functors, forward declarations).
    Plan,
    /// Lightweight header + wrappers file emission.
    Emit,
    /// Per-source rewriting.
    Rewrite,
    /// Verification + after-statistics.
    Verify,
}

impl Stage {
    /// Stable lowercase label (used in metric names and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Analyze => "analyze",
            Stage::Plan => "plan",
            Stage::Emit => "emit",
            Stage::Rewrite => "rewrite",
            Stage::Verify => "verify",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened to one stage during a rerun.
#[derive(Debug, Clone, Copy)]
pub struct StageOutcome {
    /// Which stage.
    pub stage: Stage,
    /// Cache hit, miss, or invalidation. For the rewrite stage this is the
    /// aggregate over all sources (a hit only when *every* source was
    /// served from cache).
    pub lookup: CacheLookup,
    /// Time spent recomputing ([`Duration::ZERO`] on a hit — the cached
    /// artifact was reused, so no stale duration is reported). For the
    /// rewrite stage this is the *sum* over recomputed sources, i.e. work
    /// time, not wall time — the sources rewrite concurrently.
    pub duration: Duration,
}

/// Everything one [`Session::rerun`] produced.
#[derive(Debug)]
pub struct SessionRun {
    /// The substitution result, identical in shape to what
    /// [`crate::Engine::run`] returns. Timings of cached stages are zero.
    pub result: SubstitutionResult,
    /// Per-stage cache outcomes, in pipeline order.
    pub stages: Vec<StageOutcome>,
    /// Translation units re-parsed during this rerun (0 on a warm no-op
    /// rerun; with multiple `tu_roots`, every root whose include closure
    /// changed counts).
    pub files_reparsed: usize,
    /// Source rewrites recomputed during this rerun.
    pub rewrites_recomputed: usize,
    /// Source rewrites served from cache.
    pub rewrites_cached: usize,
    /// Longest single-root parse this rerun (zero when every root hit).
    /// With many `tu_roots` this is the parse stage's critical path: the
    /// floor any worker count must still pay, which the `mega` bench
    /// uses to model parse scaling independently of host core count.
    pub parse_longest: Duration,
}

impl SessionRun {
    /// True when every stage was served from cache (a no-op rerun).
    pub fn fully_cached(&self) -> bool {
        self.stages.iter().all(|s| s.lookup.is_hit())
    }

    /// The outcome recorded for `stage`.
    pub fn outcome(&self, stage: Stage) -> CacheLookup {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.lookup)
            .expect("all stages recorded")
    }

    /// One-line summary (`parse=hit analyze=hit ... [2 reparsed]`), used
    /// by `yalla --iterate`.
    pub fn summary_line(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{}={}", s.stage, s.lookup.label()));
        }
        out.push_str(&format!(
            "  ({} reparsed, {} rewritten, {:.1} ms)",
            self.files_reparsed,
            self.rewrites_recomputed,
            self.result.timings.total().as_secs_f64() * 1e3,
        ));
        out
    }
}

/// The analyze stage's artifact: everything derived from the parsed TU
/// that the plan and rewrite stages consume.
#[derive(Debug)]
pub struct AnalysisArtifact {
    /// Symbol table of the whole TU.
    pub table: SymbolTable,
    /// Usage of the target header by the sources, with pre-declared
    /// symbols already merged in.
    pub usage: UsageReport,
    /// Diagnostics produced while resolving `extra_symbols`.
    pub predeclare_diags: Vec<String>,
    /// Files belonging to the substituted header (itself + transitive
    /// includes).
    pub target_files: HashSet<FileId>,
    /// The user source files.
    pub source_files: HashSet<FileId>,
    /// Fingerprint of the plan-relevant inputs
    /// ([`crate::fingerprint::usage_fingerprint`]).
    pub usage_fingerprint: u64,
}

#[derive(Debug, Clone)]
struct EmitArtifact {
    lightweight: String,
    wrappers: String,
}

#[derive(Debug, Clone)]
struct VerifyArtifact {
    verification: Verification,
    after: Option<TuStats>,
}

#[derive(Debug)]
struct Slot<T> {
    key: u64,
    artifact: T,
}

/// A memoized stage slot shared with DAG node closures. The mutex is
/// never held across a stage computation — only for the key comparison
/// and the artifact swap — and distinct stages own distinct slots, so
/// nodes never contend.
type SharedSlot<T> = Mutex<Option<Slot<Arc<T>>>>;

/// The cached artifact, if `key` matches the slot's current key.
fn slot_hit<T>(slot: &SharedSlot<T>, key: u64) -> Option<Arc<T>> {
    slot.lock()
        .expect("stage slot lock")
        .as_ref()
        .filter(|s| s.key == key)
        .map(|s| Arc::clone(&s.artifact))
}

/// Refreshes a memoized stage slot: reuse when the key matches, otherwise
/// recompute (without holding the lock) and replace.
fn refresh<T>(
    slot: &SharedSlot<T>,
    key: u64,
    compute: impl FnOnce() -> Result<T, YallaError>,
) -> Result<(Arc<T>, CacheLookup), YallaError> {
    if let Some(artifact) = slot_hit(slot, key) {
        return Ok((artifact, CacheLookup::Hit));
    }
    let stale = slot.lock().expect("stage slot lock").is_some();
    let artifact = Arc::new(compute()?);
    *slot.lock().expect("stage slot lock") = Some(Slot {
        key,
        artifact: Arc::clone(&artifact),
    });
    Ok((
        artifact,
        if stale {
            CacheLookup::Invalidated
        } else {
            CacheLookup::Miss
        },
    ))
}

/// Bumps `cache.<stage>.<outcome>` (and, when `totals`, the global
/// `cache.hits`/`cache.misses`/`cache.invalidations` the parse cache
/// already maintains for itself).
fn note(stage: Stage, lookup: CacheLookup, totals: bool) {
    use yalla_obs::metrics::names;
    let outcome = match lookup {
        CacheLookup::Hit => "hits",
        CacheLookup::Miss | CacheLookup::Invalidated => "misses",
    };
    yalla_obs::count(&names::stage_cache(stage.label(), outcome), 1);
    if lookup == CacheLookup::Invalidated {
        yalla_obs::count(&names::stage_cache(stage.label(), "invalidations"), 1);
    }
    if totals {
        match lookup {
            CacheLookup::Hit => yalla_obs::count(names::CACHE_HITS, 1),
            CacheLookup::Miss => yalla_obs::count(names::CACHE_MISSES, 1),
            CacheLookup::Invalidated => {
                yalla_obs::count(names::CACHE_MISSES, 1);
                yalla_obs::count(names::CACHE_INVALIDATIONS, 1);
            }
        }
    }
}

// ---- stage keys (pure hashing; shared by the warm pre-pass and nodes) ----

/// Content address of the whole run's parse inputs: a single root's
/// closure hash passes through unchanged (so existing single-TU disk
/// keys stay valid), multiple roots fold in root order.
fn combined_closure_hash(hashes: &[u64]) -> u64 {
    match hashes {
        [one] => *one,
        many => {
            let mut h = Fnv64::new();
            for c in many {
                h.write_u64(*c);
            }
            h.finish()
        }
    }
}

fn analyze_key_of(closure_hash: u64, opts: &Options) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(closure_hash);
    h.write_str(&opts.header);
    for s in &opts.sources {
        h.write_str(s);
    }
    for e in &opts.extra_symbols {
        h.write_str(e);
    }
    for r in &opts.tu_roots {
        h.write_str(r);
    }
    h.finish()
}

fn plan_key_of(analysis: &AnalysisArtifact) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(analysis.usage_fingerprint);
    for d in &analysis.predeclare_diags {
        h.write_str(d);
    }
    h.finish()
}

/// A source's rewrite depends on its own text, the text of every *source*
/// file it transitively includes (type information flows along user
/// includes), and the plan.
fn rewrite_key_of(
    vfs: &Vfs,
    parsed: &ParsedTu,
    analysis: &AnalysisArtifact,
    plan_key: u64,
    source: &str,
) -> u64 {
    let id = vfs.lookup(source).expect("sources validated");
    let mut h = Fnv64::new();
    h.write_u64(plan_key);
    let mut reach: Vec<FileId> = crate::engine::reachable_from(id, &parsed.stats.include_edges)
        .into_iter()
        .filter(|f| analysis.source_files.contains(f))
        .collect();
    reach.sort_by_key(|f| f.0);
    if !reach.contains(&id) {
        reach.push(id); // sources absent from the TU still rewrite
    }
    for f in reach {
        h.write_str(vfs.path(f));
        h.write_u64(vfs.file_hash(f));
    }
    h.finish()
}

fn verify_key_of(
    closure_hash: u64,
    plan_key: u64,
    opts: &Options,
    emit_art: &EmitArtifact,
    rewritten: &BTreeMap<String, Arc<String>>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(closure_hash);
    h.write_u64(plan_key);
    h.write_str(&opts.lightweight_name);
    h.write_str(&opts.wrappers_name);
    h.write_u64(hash::hash_str(&emit_art.lightweight));
    h.write_u64(hash::hash_str(&emit_art.wrappers));
    for (path, text) in rewritten {
        h.write_str(path);
        h.write_u64(hash::hash_str(text));
    }
    h.write_u64(u64::from(opts.verify));
    h.finish()
}

/// Per-stage bookkeeping the DAG nodes write and the assembly reads.
/// Parse is aggregated like rewrite: one counter set across every TU
/// root (a hit only when *all* roots hit; duration is summed work time).
#[derive(Debug, Default, Clone)]
struct RunLog {
    parse_dur: Duration,
    parse_longest: Duration,
    parse_misses: usize,
    parse_invalidated: bool,
    analyze: Option<(CacheLookup, Duration)>,
    plan: Option<(CacheLookup, Duration)>,
    emit: Option<(CacheLookup, Duration)>,
    verify: Option<(CacheLookup, Duration)>,
    files_reparsed: usize,
    rewrites_recomputed: usize,
    rewrites_cached: usize,
    rewrite_invalidated: bool,
    rewrite_dur: Duration,
}

/// A persistent Header Substitution session: the engine pipeline plus a
/// memoizing artifact cache and an editable file tree.
///
/// # Example
///
/// ```
/// use yalla_core::{Options, Session};
/// use yalla_cpp::vfs::Vfs;
///
/// let mut vfs = Vfs::new();
/// vfs.add_file("lib.hpp", "namespace K { class W { public: int id() const; }; }\n");
/// vfs.add_file("main.cpp", "#include \"lib.hpp\"\nint f(K::W& w) { return w.id(); }\n");
/// let mut session = Session::new(
///     Options {
///         header: "lib.hpp".into(),
///         sources: vec!["main.cpp".into()],
///         ..Options::default()
///     },
///     vfs,
/// );
/// let cold = session.rerun().unwrap();
/// assert!(!cold.fully_cached());
/// let warm = session.rerun().unwrap();
/// assert!(warm.fully_cached());
/// assert_eq!(warm.files_reparsed, 0);
/// ```
#[derive(Debug)]
pub struct Session {
    options: Options,
    vfs: Arc<Vfs>,
    parse_cache: Arc<ParseCache>,
    analysis: Arc<SharedSlot<AnalysisArtifact>>,
    plan: Arc<SharedSlot<Plan>>,
    emit: Arc<SharedSlot<EmitArtifact>>,
    rewrites: Arc<Mutex<HashMap<String, Slot<Arc<String>>>>>,
    verify: Arc<SharedSlot<VerifyArtifact>>,
    wrappers_memo: Arc<Mutex<Option<WrappersMemo>>>,
    store: Option<Arc<Store>>,
    reruns: u64,
}

impl Session {
    /// Creates a session over `vfs` with empty caches. When
    /// `YALLA_CACHE_DIR` names a cache directory, the process-wide
    /// on-disk store is attached automatically ([`Session::with_store`]
    /// controls this explicitly).
    pub fn new(options: Options, vfs: Vfs) -> Self {
        Session::with_store(options, vfs, Store::global())
    }

    /// Creates a session over `vfs` backed by `store` as a second cache
    /// tier (memory → disk → recompute), or purely in-memory when `None`.
    pub fn with_store(options: Options, vfs: Vfs, store: Option<Arc<Store>>) -> Self {
        Session {
            options,
            vfs: Arc::new(vfs),
            parse_cache: Arc::new(ParseCache::with_store(store.clone())),
            analysis: Arc::new(Mutex::new(None)),
            plan: Arc::new(Mutex::new(None)),
            emit: Arc::new(Mutex::new(None)),
            rewrites: Arc::new(Mutex::new(HashMap::new())),
            verify: Arc::new(Mutex::new(None)),
            wrappers_memo: Arc::new(Mutex::new(None)),
            store,
            reruns: 0,
        }
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The session's options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The session's file tree.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Number of completed reruns.
    pub fn reruns(&self) -> u64 {
        self.reruns
    }

    /// Applies an edit to the session's file tree (Figure 6 step ① of the
    /// next iteration). The file must already exist.
    ///
    /// # Errors
    ///
    /// Fails when `path` is not registered in the file tree.
    pub fn apply_edit(
        &mut self,
        path: &str,
        new_text: impl Into<String>,
    ) -> Result<FileId, YallaError> {
        // In-flight DAG nodes of a previous rerun hold their own Arc<Vfs>
        // snapshot; make_mut copies-on-write only if one is still alive.
        Arc::make_mut(&mut self.vfs)
            .apply_edit(path, new_text)
            .map_err(YallaError::Cpp)
    }

    /// Runs the pipeline on the process-wide executor, recomputing only
    /// stages whose input keys changed. The first call is a cold run
    /// (every stage misses).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::Engine::run`]; missing sources are
    /// all reported together in [`YallaError::SourcesNotFound`].
    pub fn rerun(&mut self) -> Result<SessionRun, YallaError> {
        self.rerun_on(Executor::global())
    }

    /// Runs the pipeline as a stage DAG on `exec`. Artifacts are
    /// byte-identical for every worker count; only scheduling changes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::rerun`].
    pub fn rerun_on(&mut self, exec: &Executor) -> Result<SessionRun, YallaError> {
        self.rerun_with(exec, &CancelToken::new(), Priority::Interactive)
    }

    /// Runs the pipeline as a stage DAG on `exec`, polling `cancel` at
    /// every *cancel point* and queueing every node at `priority`.
    ///
    /// Cancel points are the stage and per-source-rewrite boundaries
    /// plus the disk-store probe — the only places a run can stop with
    /// its caches guaranteed consistent: a stage either completed and
    /// published its artifact under its content key, or it never ran.
    /// Each point is a [`CancelToken::checkpoint`] call, so an armed
    /// token (`trip_after(k)`) deterministically cancels the run at its
    /// `k`-th boundary. A cancelled run returns
    /// [`YallaError::Cancelled`] after every in-flight node has
    /// finished; no result is assembled and no run bundle is persisted,
    /// but stages that completed before the cancel keep their memoized
    /// artifacts, so a retry resumes from them.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::rerun`], plus
    /// [`YallaError::Cancelled`].
    pub fn rerun_with(
        &mut self,
        exec: &Executor,
        cancel: &CancelToken,
        priority: Priority,
    ) -> Result<SessionRun, YallaError> {
        let _run_span = yalla_obs::span("engine", "substitute");
        yalla_obs::count(yalla_obs::metrics::names::ENGINE_RUNS, 1);
        yalla_obs::count(yalla_obs::metrics::names::SESSION_RERUNS, 1);
        self.reruns += 1;
        let opts = Arc::new(self.options.clone());
        let vfs = Arc::clone(&self.vfs);

        // ---- validate sources up front: report *all* missing paths -----
        let main_source = opts
            .sources
            .first()
            .ok_or_else(|| YallaError::SourceNotFound("<no sources given>".into()))?
            .clone();
        let roots: Arc<Vec<String>> = Arc::new(opts.parse_roots());
        let mut seen_missing = HashSet::new();
        let missing: Vec<String> = opts
            .sources
            .iter()
            .chain(roots.iter())
            .filter(|s| vfs.lookup(s).is_none() && seen_missing.insert(s.as_str().to_string()))
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Err(YallaError::SourcesNotFound(missing));
        }
        // Which TU a source's rewrite reads from: its own root when the
        // source names one, otherwise the primary root's TU (the classic
        // single-TU shape, where sources[1..] are support files).
        let root_index: HashMap<&str, usize> = roots
            .iter()
            .enumerate()
            .map(|(i, r)| (r.as_str(), i))
            .collect();
        let owners: Vec<usize> = opts
            .sources
            .iter()
            .map(|s| root_index.get(s.as_str()).copied().unwrap_or(0))
            .collect();

        // Cells carrying each stage's output to its dependents (one parse
        // cell per TU root; the analyze node reads them all).
        let parse_cells: Arc<Vec<OnceLock<CachedParse>>> =
            Arc::new((0..roots.len()).map(|_| OnceLock::new()).collect());
        let analysis_cell: Arc<OnceLock<Arc<AnalysisArtifact>>> = Arc::new(OnceLock::new());
        let plan_cell: Arc<OnceLock<(Arc<Plan>, u64)>> = Arc::new(OnceLock::new());
        let emit_cell: Arc<OnceLock<Arc<EmitArtifact>>> = Arc::new(OnceLock::new());
        let verify_cell: Arc<OnceLock<Arc<VerifyArtifact>>> = Arc::new(OnceLock::new());
        let log = Arc::new(Mutex::new(RunLog::default()));

        // Cancel point: run entry. A rerun superseded before it starts
        // costs nothing.
        if cancel.checkpoint() {
            return Err(YallaError::Cancelled);
        }

        // ---- warm pre-pass ---------------------------------------------
        // Walk the key chain with cheap hashing only; every stage proven
        // warm becomes a `cached` DAG node and never occupies a worker.
        // The chain stops at the first stage whose key needs a recomputed
        // predecessor — later stages become live nodes and re-check their
        // slots at run time.
        let warm_parses: Vec<Option<CachedParse>> = roots
            .iter()
            .map(|r| self.parse_cache.probe(&vfs, &opts.defines, r))
            .collect();
        let warm_closure: Option<u64> = warm_parses
            .iter()
            .map(|p| p.as_ref().map(|p| p.closure_hash))
            .collect::<Option<Vec<u64>>>()
            .map(|hashes| combined_closure_hash(&hashes));
        let warm_analysis = warm_closure
            .and_then(|closure| slot_hit(&self.analysis, analyze_key_of(closure, &opts)));
        let warm_plan = warm_analysis.as_ref().and_then(|a| {
            let key = plan_key_of(a);
            slot_hit(&self.plan, key).map(|p| (p, key))
        });
        let warm_emit = warm_plan
            .as_ref()
            .and_then(|(_, key)| slot_hit(&self.emit, *key));
        let rewrite_warm: Vec<bool> = match (&warm_closure, &warm_analysis, &warm_plan) {
            (Some(_), Some(a), Some((_, plan_key))) => {
                let map = self.rewrites.lock().expect("rewrites lock");
                opts.sources
                    .iter()
                    .zip(&owners)
                    .map(|(s, &owner)| {
                        let tu = &warm_parses[owner].as_ref().expect("all roots warm").tu;
                        let key = rewrite_key_of(&vfs, tu, a, *plan_key, s);
                        map.get(s).is_some_and(|slot| slot.key == key)
                    })
                    .collect()
            }
            _ => vec![false; opts.sources.len()],
        };
        let all_rewrites_warm = rewrite_warm.iter().all(|w| *w);
        let warm_verify = match (&warm_closure, &warm_plan, &warm_emit) {
            (Some(closure), Some((_, plan_key)), Some(e)) if all_rewrites_warm => {
                let map = self.rewrites.lock().expect("rewrites lock");
                let rewritten: BTreeMap<String, Arc<String>> = opts
                    .sources
                    .iter()
                    .map(|s| (s.clone(), Arc::clone(&map[s].artifact)))
                    .collect();
                let key = verify_key_of(*closure, *plan_key, &opts, e, &rewritten);
                slot_hit(&self.verify, key)
            }
            _ => None,
        };

        // Cancel point: store boundary. Guards the disk probe below (a
        // superseded rerun skips the store lookups entirely) and gives
        // fully-warm runs a second boundary before they publish.
        if cancel.checkpoint() {
            return Err(YallaError::Cancelled);
        }

        // ---- disk tier (memory → disk → recompute) ---------------------
        // When the memory tier cannot prove the whole run warm, ask the
        // on-disk store: a validated parse manifest recovers the closure
        // hash without preprocessing anything, and the closure hash plus
        // options plus source hashes addresses a whole-run artifact
        // bundle. A bundle hit is a complete answer — every stage reports
        // `hit` and nothing is scheduled, which is what makes a fresh
        // process (or a daemon restarted after `kill -9`) disk-warm.
        if warm_verify.is_none() {
            if let Some(store) = &self.store {
                let closure_hash = roots
                    .iter()
                    .zip(&warm_parses)
                    .map(|(root, warm)| {
                        warm.as_ref()
                            .map(|p| p.closure_hash)
                            .or_else(|| self.parse_cache.probe_disk(&vfs, &opts.defines, root))
                    })
                    .collect::<Option<Vec<u64>>>()
                    .map(|hashes| combined_closure_hash(&hashes));
                if let Some(closure_hash) = closure_hash {
                    let run_key = persist::run_key_of(closure_hash, &opts, &vfs);
                    // Zero-copy hit: the record is validated once and the
                    // bundle module decodes straight from the payload view.
                    let bundle = store
                        .get_view(NS_RUN, run_key)
                        .and_then(|view| persist::decode_run(&view));
                    if let Some(result) = bundle {
                        yalla_obs::global().instant("engine", "run (disk-warm)");
                        for _ in roots.iter() {
                            note(Stage::Parse, CacheLookup::Hit, false);
                        }
                        note(Stage::Analyze, CacheLookup::Hit, true);
                        note(Stage::Plan, CacheLookup::Hit, true);
                        note(Stage::Emit, CacheLookup::Hit, true);
                        for _ in &opts.sources {
                            note(Stage::Rewrite, CacheLookup::Hit, true);
                        }
                        note(Stage::Verify, CacheLookup::Hit, true);
                        let stages = [
                            Stage::Parse,
                            Stage::Analyze,
                            Stage::Plan,
                            Stage::Emit,
                            Stage::Rewrite,
                            Stage::Verify,
                        ]
                        .into_iter()
                        .map(|stage| StageOutcome {
                            stage,
                            lookup: CacheLookup::Hit,
                            duration: Duration::ZERO,
                        })
                        .collect();
                        return Ok(SessionRun {
                            result,
                            stages,
                            files_reparsed: 0,
                            rewrites_recomputed: 0,
                            rewrites_cached: opts.sources.len(),
                            parse_longest: Duration::ZERO,
                        });
                    }
                }
            }
        }

        // ---- build the stage DAG ---------------------------------------
        let mut dag: Dag<YallaError> = Dag::new();

        // One parse node per TU root, all independent — a mega project's
        // per-TU preprocessing and parsing fans out across the pool just
        // like per-source rewrites always have.
        let mut parse_ids = Vec::with_capacity(roots.len());
        for (i, root) in roots.iter().enumerate() {
            let label = if roots.len() == 1 {
                "parse".to_string()
            } else {
                format!("parse {root}")
            };
            match &warm_parses[i] {
                Some(p) => {
                    parse_cells[i].set(p.clone()).expect("fresh cell");
                    note(Stage::Parse, CacheLookup::Hit, false);
                    yalla_obs::global().instant("engine", "parse (cached)");
                    parse_ids.push(dag.cached(label, &[]));
                }
                None => {
                    let (cache, vfs, opts, root, cells, log, cancel) = (
                        Arc::clone(&self.parse_cache),
                        Arc::clone(&vfs),
                        Arc::clone(&opts),
                        root.clone(),
                        Arc::clone(&parse_cells),
                        Arc::clone(&log),
                        cancel.clone(),
                    );
                    parse_ids.push(dag.node(label, &[], move || {
                        if cancel.checkpoint() {
                            return Err(YallaError::Cancelled);
                        }
                        let span = yalla_obs::span("engine", "parse");
                        let parsed = cache.parse(&vfs, &opts.defines, &root)?;
                        let dur = span.finish();
                        note(Stage::Parse, parsed.lookup, false);
                        let dur = if parsed.lookup.is_hit() {
                            yalla_obs::global().instant("engine", "parse (cached)");
                            Duration::ZERO
                        } else {
                            yalla_obs::count(yalla_obs::metrics::names::SESSION_TUS_REPARSED, 1);
                            dur
                        };
                        let mut log = log.lock().expect("run log");
                        if !parsed.lookup.is_hit() {
                            log.files_reparsed += 1;
                            log.parse_misses += 1;
                            log.parse_invalidated |= parsed.lookup == CacheLookup::Invalidated;
                        }
                        log.parse_dur += dur;
                        log.parse_longest = log.parse_longest.max(dur);
                        cells[i].set(parsed).expect("parse node runs once");
                        Ok(())
                    }));
                }
            }
        }

        let analyze_id = match &warm_analysis {
            Some(a) => {
                analysis_cell.set(Arc::clone(a)).expect("fresh cell");
                note(Stage::Analyze, CacheLookup::Hit, true);
                yalla_obs::global().instant("engine", "analyze (cached)");
                log.lock().expect("run log").analyze = Some((CacheLookup::Hit, Duration::ZERO));
                dag.cached("analyze", &parse_ids)
            }
            None => {
                let (slot, vfs, opts, parse_cells, cell, log, cancel) = (
                    Arc::clone(&self.analysis),
                    Arc::clone(&vfs),
                    Arc::clone(&opts),
                    Arc::clone(&parse_cells),
                    Arc::clone(&analysis_cell),
                    Arc::clone(&log),
                    cancel.clone(),
                );
                dag.node("analyze", &parse_ids, move || {
                    if cancel.checkpoint() {
                        return Err(YallaError::Cancelled);
                    }
                    let parsed_roots: Vec<Arc<ParsedTu>> = parse_cells
                        .iter()
                        .map(|c| Arc::clone(&c.get().expect("parse completed").tu))
                        .collect();
                    let hashes: Vec<u64> = parse_cells
                        .iter()
                        .map(|c| c.get().expect("parse completed").closure_hash)
                        .collect();
                    let key = analyze_key_of(combined_closure_hash(&hashes), &opts);
                    let span = yalla_obs::span("engine", "analyze");
                    let (artifact, lookup) =
                        refresh(&slot, key, || stage_analyze(&parsed_roots, &vfs, &opts))?;
                    let dur = span.finish();
                    note(Stage::Analyze, lookup, true);
                    let dur = if lookup.is_hit() {
                        yalla_obs::global().instant("engine", "analyze (cached)");
                        Duration::ZERO
                    } else {
                        dur
                    };
                    log.lock().expect("run log").analyze = Some((lookup, dur));
                    cell.set(artifact).expect("analyze node runs once");
                    Ok(())
                })
            }
        };

        let plan_id = match &warm_plan {
            Some((p, key)) => {
                plan_cell.set((Arc::clone(p), *key)).expect("fresh cell");
                note(Stage::Plan, CacheLookup::Hit, true);
                yalla_obs::global().instant("engine", "plan (cached)");
                log.lock().expect("run log").plan = Some((CacheLookup::Hit, Duration::ZERO));
                dag.cached("plan", &[analyze_id])
            }
            None => {
                let (slot, opts, analysis_cell, cell, log, cancel) = (
                    Arc::clone(&self.plan),
                    Arc::clone(&opts),
                    Arc::clone(&analysis_cell),
                    Arc::clone(&plan_cell),
                    Arc::clone(&log),
                    cancel.clone(),
                );
                dag.node("plan", &[analyze_id], move || {
                    if cancel.checkpoint() {
                        return Err(YallaError::Cancelled);
                    }
                    let analysis = analysis_cell.get().expect("analyze completed");
                    let key = plan_key_of(analysis);
                    let span = yalla_obs::span("engine", "plan");
                    let (artifact, lookup) =
                        refresh(&slot, key, || Ok(stage_plan(analysis, &opts)))?;
                    let dur = span.finish();
                    note(Stage::Plan, lookup, true);
                    let dur = if lookup.is_hit() {
                        yalla_obs::global().instant("engine", "plan (cached)");
                        Duration::ZERO
                    } else {
                        dur
                    };
                    log.lock().expect("run log").plan = Some((lookup, dur));
                    cell.set((artifact, key)).expect("plan node runs once");
                    Ok(())
                })
            }
        };

        let emit_id = match &warm_emit {
            Some(e) => {
                emit_cell.set(Arc::clone(e)).expect("fresh cell");
                note(Stage::Emit, CacheLookup::Hit, true);
                log.lock().expect("run log").emit = Some((CacheLookup::Hit, Duration::ZERO));
                dag.cached("emit", &[plan_id])
            }
            None => {
                let (slot, opts, plan_cell, cell, log, cancel) = (
                    Arc::clone(&self.emit),
                    Arc::clone(&opts),
                    Arc::clone(&plan_cell),
                    Arc::clone(&emit_cell),
                    Arc::clone(&log),
                    cancel.clone(),
                );
                dag.node("emit", &[plan_id], move || {
                    if cancel.checkpoint() {
                        return Err(YallaError::Cancelled);
                    }
                    let (plan, plan_key) = plan_cell.get().expect("plan completed");
                    let span = yalla_obs::span("engine", "emit");
                    let (artifact, lookup) = refresh(&slot, *plan_key, || {
                        Ok(EmitArtifact {
                            lightweight: emit::lightweight_header(plan, &opts.header),
                            wrappers: emit::wrappers_file(
                                plan,
                                &opts.header,
                                &opts.lightweight_name,
                            ),
                        })
                    })?;
                    let dur = span.finish();
                    note(Stage::Emit, lookup, true);
                    let dur = if lookup.is_hit() { Duration::ZERO } else { dur };
                    log.lock().expect("run log").emit = Some((lookup, dur));
                    cell.set(artifact).expect("emit node runs once");
                    Ok(())
                })
            }
        };

        let mut rewrite_ids = Vec::with_capacity(opts.sources.len());
        for (i, source) in opts.sources.iter().enumerate() {
            if rewrite_warm[i] {
                note(Stage::Rewrite, CacheLookup::Hit, true);
                log.lock().expect("run log").rewrites_cached += 1;
                rewrite_ids.push(dag.cached(format!("rewrite {source}"), &[plan_id]));
                continue;
            }
            let owner = owners[i];
            let (map, vfs, opts, source, parse_cells, analysis_cell, plan_cell, log, cancel) = (
                Arc::clone(&self.rewrites),
                Arc::clone(&vfs),
                Arc::clone(&opts),
                source.clone(),
                Arc::clone(&parse_cells),
                Arc::clone(&analysis_cell),
                Arc::clone(&plan_cell),
                Arc::clone(&log),
                cancel.clone(),
            );
            rewrite_ids.push(dag.node(format!("rewrite {source}"), &[plan_id], move || {
                if cancel.checkpoint() {
                    return Err(YallaError::Cancelled);
                }
                let parsed = parse_cells[owner].get().expect("parse completed");
                let analysis = analysis_cell.get().expect("analyze completed");
                let (plan, plan_key) = plan_cell.get().expect("plan completed");
                let key = rewrite_key_of(&vfs, &parsed.tu, analysis, *plan_key, &source);
                let stale = {
                    let map = map.lock().expect("rewrites lock");
                    match map.get(&source) {
                        Some(slot) if slot.key == key => {
                            drop(map);
                            note(Stage::Rewrite, CacheLookup::Hit, true);
                            log.lock().expect("run log").rewrites_cached += 1;
                            return Ok(());
                        }
                        existing => existing.is_some(),
                    }
                };
                let lookup = if stale {
                    CacheLookup::Invalidated
                } else {
                    CacheLookup::Miss
                };
                note(Stage::Rewrite, lookup, true);
                let span = yalla_obs::span("engine", "rewrite");
                let text =
                    stage_rewrite_one(&vfs, &parsed.tu, plan, &analysis.table, &opts, &source);
                let dur = span.finish();
                map.lock().expect("rewrites lock").insert(
                    source,
                    Slot {
                        key,
                        artifact: Arc::new(text),
                    },
                );
                let mut log = log.lock().expect("run log");
                log.rewrites_recomputed += 1;
                log.rewrite_invalidated |= stale;
                log.rewrite_dur += dur;
                Ok(())
            }));
        }

        let mut verify_deps = vec![emit_id];
        verify_deps.extend(rewrite_ids.iter().copied());
        match &warm_verify {
            Some(v) => {
                verify_cell.set(Arc::clone(v)).expect("fresh cell");
                note(Stage::Verify, CacheLookup::Hit, true);
                yalla_obs::global().instant("engine", "verify (cached)");
                log.lock().expect("run log").verify = Some((CacheLookup::Hit, Duration::ZERO));
                dag.cached("verify", &verify_deps);
            }
            None => {
                let (slot, map, vfs, opts, main, parse_cells, plan_cell, emit_cell, cell, log) = (
                    Arc::clone(&self.verify),
                    Arc::clone(&self.rewrites),
                    Arc::clone(&vfs),
                    Arc::clone(&opts),
                    main_source.clone(),
                    Arc::clone(&parse_cells),
                    Arc::clone(&plan_cell),
                    Arc::clone(&emit_cell),
                    Arc::clone(&verify_cell),
                    Arc::clone(&log),
                );
                let (memo, cancel) = (Arc::clone(&self.wrappers_memo), cancel.clone());
                dag.node("verify", &verify_deps, move || {
                    if cancel.checkpoint() {
                        return Err(YallaError::Cancelled);
                    }
                    let hashes: Vec<u64> = parse_cells
                        .iter()
                        .map(|c| c.get().expect("parse completed").closure_hash)
                        .collect();
                    let closure_hash = combined_closure_hash(&hashes);
                    let (_, plan_key) = plan_cell.get().expect("plan completed");
                    let emit_art = emit_cell.get().expect("emit completed");
                    let rewritten: BTreeMap<String, Arc<String>> = {
                        let map = map.lock().expect("rewrites lock");
                        opts.sources
                            .iter()
                            .map(|s| (s.clone(), Arc::clone(&map[s].artifact)))
                            .collect()
                    };
                    let key = verify_key_of(closure_hash, *plan_key, &opts, emit_art, &rewritten);
                    let span = yalla_obs::span("engine", "verify");
                    let (artifact, lookup) = refresh(&slot, key, || {
                        Ok(stage_verify(
                            &vfs, &rewritten, emit_art, &opts, &main, &memo,
                        ))
                    })?;
                    let dur = span.finish();
                    note(Stage::Verify, lookup, true);
                    let dur = if lookup.is_hit() {
                        yalla_obs::global().instant("engine", "verify (cached)");
                        Duration::ZERO
                    } else {
                        dur
                    };
                    log.lock().expect("run log").verify = Some((lookup, dur));
                    cell.set(artifact).expect("verify node runs once");
                    Ok(())
                });
            }
        }

        // ---- run --------------------------------------------------------
        let run = dag.run_at(exec, priority);
        if let Some(err) = run.error {
            // A cancelled run returns only after every in-flight node has
            // finished (the DAG waits for the whole graph), so no node is
            // still writing into the stage slots when the caller retries.
            return Err(err);
        }

        // ---- assemble the result ----------------------------------------
        let log = log.lock().expect("run log").clone();
        let parsed = parse_cells[0].get().expect("parse completed");
        let closure_hash = combined_closure_hash(
            &parse_cells
                .iter()
                .map(|c| c.get().expect("parse completed").closure_hash)
                .collect::<Vec<u64>>(),
        );
        let (plan, _) = plan_cell.get().expect("plan completed");
        let emit_art = emit_cell.get().expect("emit completed");
        let verify_art = verify_cell.get().expect("verify completed");

        let rewrite_lookup = if log.rewrites_recomputed == 0 {
            yalla_obs::global().instant("engine", "rewrite (cached)");
            CacheLookup::Hit
        } else if log.rewrite_invalidated {
            CacheLookup::Invalidated
        } else {
            CacheLookup::Miss
        };
        let (parse_lookup, parse_dur) = (
            if log.parse_misses == 0 {
                CacheLookup::Hit
            } else if log.parse_invalidated {
                CacheLookup::Invalidated
            } else {
                CacheLookup::Miss
            },
            log.parse_dur,
        );
        let (analyze_lookup, analyze_dur) = log.analyze.expect("analyze recorded");
        let (plan_lookup, plan_dur) = log.plan.expect("plan recorded");
        let (emit_lookup, emit_dur) = log.emit.expect("emit recorded");
        let (verify_lookup, verify_dur) = log.verify.expect("verify recorded");
        let stages = vec![
            StageOutcome {
                stage: Stage::Parse,
                lookup: parse_lookup,
                duration: parse_dur,
            },
            StageOutcome {
                stage: Stage::Analyze,
                lookup: analyze_lookup,
                duration: analyze_dur,
            },
            StageOutcome {
                stage: Stage::Plan,
                lookup: plan_lookup,
                duration: plan_dur,
            },
            StageOutcome {
                stage: Stage::Emit,
                lookup: emit_lookup,
                duration: emit_dur,
            },
            StageOutcome {
                stage: Stage::Rewrite,
                lookup: rewrite_lookup,
                duration: log.rewrite_dur,
            },
            StageOutcome {
                stage: Stage::Verify,
                lookup: verify_lookup,
                duration: verify_dur,
            },
        ];
        let timings = Timings {
            parse: parse_dur,
            analyze: analyze_dur,
            plan: plan_dur,
            generate: emit_dur + log.rewrite_dur,
            verify: verify_dur,
        };

        // ---- latency telemetry ------------------------------------------
        // Recomputed stages feed the `latency.stage.<stage>` histograms
        // (cache hits report zero and would drown the distribution, so
        // they are skipped); one event-log line per stage carries the
        // lookup and duration, joined to the daemon request by the
        // ambient request id this handler thread holds.
        for outcome in &stages {
            if !outcome.lookup.is_hit() {
                yalla_obs::observe(
                    &yalla_obs::metrics::names::latency_stage(outcome.stage.label()),
                    outcome.duration,
                );
            }
            if yalla_obs::log::is_active() {
                let lookup = match outcome.lookup {
                    CacheLookup::Hit => "hit",
                    CacheLookup::Miss => "miss",
                    CacheLookup::Invalidated => "invalidated",
                };
                yalla_obs::log::emit(
                    "stage",
                    &[
                        ("stage", outcome.stage.label().into()),
                        ("lookup", lookup.into()),
                        (
                            "dur_us",
                            yalla_obs::ArgValue::Int(outcome.duration.as_micros() as i64),
                        ),
                    ],
                );
            }
        }

        let rewritten: BTreeMap<String, String> = {
            let map = self.rewrites.lock().expect("rewrites lock");
            opts.sources
                .iter()
                .map(|s| (s.clone(), (*map[s].artifact).clone()))
                .collect()
        };

        let mut report = Report::from_plan(plan);
        report.before = TuStats {
            loc: parsed.tu.stats.lines_compiled,
            headers: parsed.tu.stats.header_count(),
        };
        report.verification = verify_art.verification.clone();
        if let Some(after) = verify_art.after {
            report.after = after;
        }

        let result = SubstitutionResult {
            lightweight_header: emit_art.lightweight.clone(),
            wrappers_file: emit_art.wrappers.clone(),
            rewritten_sources: rewritten,
            plan: (**plan).clone(),
            report,
            timings,
        };

        // ---- persist the run bundle -------------------------------------
        // Anything that recomputed produces new artifacts worth keeping;
        // a fully-cached run only writes if the bundle has gone missing
        // (evicted, or a sabotaged earlier write). Best-effort by design.
        if let Some(store) = &self.store {
            let all_hit = stages.iter().all(|s| s.lookup.is_hit());
            let run_key = persist::run_key_of(closure_hash, &opts, &vfs);
            if !(all_hit && store.contains(NS_RUN, run_key)) {
                if let Some(payload) = persist::encode_run(&result) {
                    store.put(NS_RUN, run_key, &payload);
                }
            }
        }

        Ok(SessionRun {
            result,
            stages,
            files_reparsed: log.files_reparsed,
            rewrites_recomputed: log.rewrites_recomputed,
            rewrites_cached: log.rewrites_cached,
            parse_longest: log.parse_longest,
        })
    }
}

// ---- stage implementations ------------------------------------------------

/// The analyze stage: symbol table + usage collection + pre-declared
/// symbols (paper §6, Fig. 5 lines 2–10).
///
/// With multiple TU roots, the primary root (first entry) anchors the
/// symbol table, target-file set, and fingerprint; every other root
/// contributes its own usage of the same header — collected against its
/// own TU, merged in root order, so the combined report (and everything
/// planned from it) is byte-identical at any worker count. A secondary
/// root that does not include the target header simply contributes
/// nothing. All usage keys name header-side symbols, which the shared
/// header declares identically in every TU, so resolving the merged
/// report against the primary table is sound.
fn stage_analyze(
    parsed_roots: &[Arc<ParsedTu>],
    vfs: &Vfs,
    opts: &Options,
) -> Result<AnalysisArtifact, YallaError> {
    let parsed = &parsed_roots[0];
    let header_file = vfs
        .resolve_include(&opts.header, None, false)
        .map_err(|_| YallaError::HeaderNotIncluded(opts.header.clone()))?;
    if !parsed.stats.headers.contains(&header_file) {
        return Err(YallaError::HeaderNotIncluded(opts.header.clone()));
    }
    let target_files = crate::engine::reachable_from(header_file, &parsed.stats.include_edges);
    let mut source_files: HashSet<FileId> = HashSet::new();
    for s in &opts.sources {
        source_files.insert(vfs.lookup(s).expect("sources validated"));
    }

    let table = SymbolTable::build(&parsed.ast);
    let mut usage = UsageReport::collect(&parsed.ast, &table, &target_files, &source_files);
    for tu in &parsed_roots[1..] {
        if !tu.stats.headers.contains(&header_file) {
            continue;
        }
        let tu_targets = crate::engine::reachable_from(header_file, &tu.stats.include_edges);
        let tu_table = SymbolTable::build(&tu.ast);
        usage.merge_from(UsageReport::collect(
            &tu.ast,
            &tu_table,
            &tu_targets,
            &source_files,
        ));
    }
    // Pre-declared symbols (paper §6): force-listed classes/functions
    // enter the plan as if used, so the lightweight header covers them
    // before the sources grow into them.
    let mut predeclare_diags = Vec::new();
    for key in &opts.extra_symbols {
        match table.resolve(key) {
            Some(sym) if target_files.contains(&sym.file) => match &sym.kind {
                yalla_analysis::symbols::SymbolKind::Class(_) => {
                    usage.classes.entry(sym.key.clone()).or_default();
                }
                yalla_analysis::symbols::SymbolKind::Function(f) => {
                    usage.functions.entry(sym.key.clone()).or_insert_with(|| {
                        yalla_analysis::usage::UsedFunction {
                            key: sym.key.clone(),
                            decl: (**f).clone(),
                            calls: Vec::new(),
                        }
                    });
                }
                other => predeclare_diags.push(format!(
                    "pre-declared symbol `{key}` is a {}, which needs no declaration",
                    other.tag()
                )),
            },
            Some(_) => predeclare_diags.push(format!(
                "pre-declared symbol `{key}` is not defined by `{}`",
                opts.header
            )),
            None => predeclare_diags.push(format!("pre-declared symbol `{key}` not found")),
        }
    }
    let fingerprint = usage_fingerprint(&usage, &table, opts);
    Ok(AnalysisArtifact {
        table,
        usage,
        predeclare_diags,
        target_files,
        source_files,
        usage_fingerprint: fingerprint,
    })
}

/// The plan stage (Fig. 5 lines 11–25) plus diagnostic attachment.
fn stage_plan(analysis: &AnalysisArtifact, opts: &Options) -> Plan {
    let mut plan = Plan::build(&analysis.usage, &analysis.table);
    for message in &analysis.predeclare_diags {
        plan.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::UnknownSymbol,
            message: message.clone(),
            span: None,
        });
    }
    if analysis.usage.is_empty() {
        plan.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::Note,
            message: format!(
                "sources use nothing from `{}`; the include is simply dropped",
                opts.header
            ),
            span: None,
        });
    }
    yalla_obs::count(
        yalla_obs::metrics::names::WRAPPERS_GENERATED,
        (plan.fn_wrappers.len() + plan.method_wrappers.len()) as i64,
    );
    plan
}

/// Rewrites one source file (Fig. 5 lines 26–27, per-source half).
fn stage_rewrite_one(
    vfs: &Vfs,
    parsed: &ParsedTu,
    plan: &Plan,
    table: &SymbolTable,
    opts: &Options,
    source: &str,
) -> String {
    let id = vfs.lookup(source).expect("sources validated");
    let text = vfs.text(id);
    let all_decls: Vec<&yalla_cpp::ast::Decl> = parsed.ast.decls.iter().collect();
    let mut tr = Transformer::new(plan, table);
    rewrite_file(
        id,
        text,
        &opts.header,
        &opts.lightweight_name,
        &all_decls,
        &mut tr,
    )
}

/// The verify stage. One parse of the substituted TU feeds the sources
/// check, the incomplete-type check and the after-statistics; the
/// wrappers check is reused while `memo` still validates.
fn stage_verify(
    vfs: &Vfs,
    rewritten: &BTreeMap<String, Arc<String>>,
    emit_art: &EmitArtifact,
    opts: &Options,
    main_source: &str,
    memo: &Mutex<Option<WrappersMemo>>,
) -> VerifyArtifact {
    let inputs = VerifyInputs {
        original_vfs: vfs,
        lightweight_name: &opts.lightweight_name,
        lightweight: &emit_art.lightweight,
        wrappers_name: &opts.wrappers_name,
        wrappers: &emit_art.wrappers,
        defines: &opts.defines,
    };
    let (sources, after) = {
        let user_tu = inputs
            .parse_user_tu(
                rewritten
                    .iter()
                    .map(|(path, text)| (path.as_str(), text.as_str())),
                main_source,
            )
            .ok();
        let after = user_tu.as_ref().map(|tu| TuStats {
            loc: tu.stats.lines_compiled,
            headers: tu.stats.header_count(),
        });
        (opts.verify.then(|| check_user_tu(user_tu.as_ref())), after)
    };
    let verification = match sources {
        Some(sources) => Verification {
            wrappers_parse: wrappers_check(&inputs, memo),
            ..sources
        },
        None => Verification::default(),
    };
    VerifyArtifact {
        verification,
        after,
    }
}

/// Check 3 through the session's memo. Only a passing check is memoized,
/// and only once its parse has completed, so a failure re-parses next
/// time — like [`ParseCache`] errors, which are never cached.
fn wrappers_check(inputs: &VerifyInputs<'_>, memo: &Mutex<Option<WrappersMemo>>) -> bool {
    let reused = memo
        .lock()
        .expect("wrappers memo lock")
        .as_ref()
        .is_some_and(|m| inputs.reuses(m));
    if reused {
        yalla_obs::count(yalla_obs::metrics::names::VERIFY_WRAPPERS_REUSED, 1);
        return true;
    }
    match inputs.check_wrappers() {
        Some(fresh) => {
            *memo.lock().expect("wrappers memo lock") = Some(fresh);
            true
        }
        None => false,
    }
}
