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
//! parse[0] ──────────────────┐
//! parse[k] ──► usage[k] ─────┴─► analyze ──► plan ──► emit ────────┐
//!   │   (k ≥ 1: one per          │             └────► rewrite ─────┼──► verify
//!   │    secondary TU root)      │                                 │
//!   └────────────────────────────┴─────(per-source, parallel)──────┘
//! ```
//!
//! | stage   | key                                                        |
//! |---------|------------------------------------------------------------|
//! | parse   | `(main path, defines)` validated against the include closure's content hashes ([`yalla_cpp::cache::ParseCache`]); a miss parses through the session's include-fragment pool ([`yalla_cpp::preamble`]), reusing each `#include` of the main file's leading block whose incoming state and entered files still match |
//! | └ `usage[k]` | root `k`'s closure hash + header + sources (secondary roots only) |
//! | analyze | closure hash + header + sources + `extra_symbols`          |
//! | └ symbol table | per TU root: the table of its fragment chain's declarations, built once on the first fragment's shared table and owned by the chain ([`yalla_cpp::Chain::table`]), extended with the rest of the TU ([`SymbolTable::extend`]) |
//! | plan    | usage fingerprint ([`crate::fingerprint`]) + pre-declare diagnostics |
//! | emit    | plan key                                                   |
//! | rewrite | per source: file hash + reachable source hashes + plan key |
//! | verify  | closure hash + emitted artifacts + rewritten source hashes |
//! | └ user TU parse | the parse rule over the overlaid tree, in the session's second [`ParseCache`] (the same fragment pool) |
//! | └ wrappers check | wrappers path + defines, validated against the wrappers TU's include closure (the parse-stage depfile rule), for each of the last [`HISTORY`] passing checks; a new check reads the expensive header's fragment from the pool and keeps no declaration |
//!
//! A verify miss parses the substituted TU once, for the sources check,
//! the incomplete-type check and the after-statistics alike. The wrappers
//! check, which parses the whole expensive header, memoizes its passes:
//! a memo is the wrappers TU's `(path, content hash)` list and the
//! defines hash, no AST. While every file one memo recorded (the emitted
//! lightweight header and wrappers file included) still hashes the same,
//! its pass is reused and `verify.wrappers_reused` counts it; a failed
//! check is never memoized.
//!
//! For an undo, the session keeps the newest version of each key and the
//! one it replaced ([`HISTORY`]): each key of both parse caches, and the
//! wrappers memo (newest first, a reused check moved to the front). So
//! reverting the last edit, a Kokkos lambda body included, re-hits every
//! parse and preprocesses nothing.
//!
//! Each stage is declared once in [`Session::rerun_with`]: its
//! dependencies, a key function over its predecessors' artifacts, its
//! compute function and its memo. One driver turns the declarations into
//! a run. As each stage is declared, the *warm pre-pass* calls its key
//! function with cheap hashing only ([`yalla_cpp::cache::ParseCache::probe`],
//! then slot key comparisons): a stage whose predecessors are all warm
//! and whose memo holds its key becomes a [`yalla_exec::Dag::cached`]
//! node that completes inline without ever occupying a worker, so a fully
//! warm rerun schedules nothing at all. Every other stage becomes a live
//! node that calls the same key function once its predecessors have run
//! and refreshes its memo, so cache hits *behind* an edited stage are
//! still honored at run time. An edit that does not grow the used-symbol
//! set leaves the usage fingerprint unchanged, so plan and emit are
//! skipped entirely — the paper's §6 "no re-run needed" claim, which
//! `extra_symbols` extends to future symbols. Independent per-source
//! rewrites are separate DAG nodes and fan out across the pool. Every
//! stage instance's outcome is recorded in one place, which bumps
//! [`yalla_obs`]'s `cache.<stage>.*` counters; the run's per-stage
//! outcomes, counts and timings are one fold over those records.
//!
//! With several TU roots, each secondary root `k` has its own usage node
//! (recorded under the analyze stage): it depends on `parse[k]` alone and
//! memoizes only that root's [`UsageReport`], so an edit local to one TU
//! re-collects one TU's usage plus the analyze node, which builds the
//! primary root's table and merges the memoized reports in root order.
//! A single-root session declares no usage node at all.
//!
//! An [`AnalysisArtifact`]'s symbol table shares its declarations with
//! the parse instead of copying them: every class, enum, alias and
//! function entry holds an `Arc` into the memoized AST, and used
//! functions and enums in the usage report hold the same `Arc`s. A TU
//! parsed through include fragments does not walk their declarations
//! again either: its fragment chain owns the table of their
//! declarations, built once ([`yalla_cpp::Chain::table`]) on the first
//! fragment's table, which every root whose block starts with the same
//! header shares, and the analyze node, each usage node and verify's
//! incomplete-type check extend it with the rest of the TU
//! ([`CachedParse::table`]), counting `analysis.symtab_reused`.
//! A main-source edit therefore inserts only the body's symbols, and
//! swapping an old artifact out of its slot frees only its overlay. A
//! table dies with its chain (or with the last extended table still
//! holding it as a base), and the parse cache frees chains in the
//! warm pre-pass ([`ParseCache::make_room`]), while no stage runs.
//!
//! Verify's parse of the substituted TU goes through a second
//! [`ParseCache`], over the same fragment pool: it has the
//! parse stage's depfile rule, history and budget, so it reuses the
//! substituted main source's fragments after a body edit and hits after
//! a revert. The pool lives and dies with the session.
//!
//! Artifacts are byte-identical at every worker count: stage closures
//! are pure functions of their memoized inputs, per-source rewrites are
//! independent, per-root usage merges in root order and the result map is
//! assembled in source order — the executor only changes *when* a node
//! runs, never what it computes.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use yalla_analysis::symbols::SymbolTable;
use yalla_analysis::usage::UsageReport;
use yalla_cpp::cache::{CachedParse, ParseCache, HISTORY};
use yalla_cpp::hash::{self, Fnv64};
use yalla_cpp::loc::FileId;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::ParsedTu;
use yalla_exec::{CancelToken, Dag, Executor, NodeId, Priority};
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

/// Every stage, in pipeline order.
const STAGES: [Stage; 6] = [
    Stage::Parse,
    Stage::Analyze,
    Stage::Plan,
    Stage::Emit,
    Stage::Rewrite,
    Stage::Verify,
];

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
    /// With many `tu_roots` this approximates the parse stage's critical
    /// path, the floor any worker count must still pay; a root blocked on
    /// another root's build of a shared include fragment counts the wait.
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
    /// Symbol table of the whole TU, sharing its declarations with the
    /// primary root's parse.
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

/// A memoized stage slot, `(key, artifact)`, shared with DAG node
/// closures. The mutex is never held across a stage computation — only
/// for the key comparison and the artifact swap — and distinct stage
/// instances own distinct slots, so nodes never contend.
type SharedSlot<T> = Mutex<Option<(u64, Arc<T>)>>;

/// The cached artifact, if `key` matches the slot's current key.
fn slot_hit<T>(slot: &SharedSlot<T>, key: u64) -> Option<Arc<T>> {
    let slot = slot.lock().expect("stage slot lock");
    slot.as_ref()
        .filter(|s| s.0 == key)
        .map(|s| Arc::clone(&s.1))
}

/// Refreshes a memoized stage slot: reuse when the key matches, otherwise
/// recompute (without holding the lock) and replace.
fn refresh<T>(
    slot: &SharedSlot<T>,
    key: u64,
    compute: impl FnOnce() -> Result<T, YallaError>,
) -> Result<(CacheLookup, Arc<T>), YallaError> {
    let lookup = match &*slot.lock().expect("stage slot lock") {
        Some((k, artifact)) if *k == key => return Ok((CacheLookup::Hit, Arc::clone(artifact))),
        Some(_) => CacheLookup::Invalidated,
        None => CacheLookup::Miss,
    };
    let artifact = Arc::new(compute()?);
    *slot.lock().expect("stage slot lock") = Some((key, Arc::clone(&artifact)));
    Ok((lookup, artifact))
}

/// Content address of the whole run's parse inputs, once every root's
/// closure hash is known: a single root's passes through unchanged,
/// multiple roots fold in root order.
fn combined_closure_hash(hashes: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    let hashes: Vec<u64> = hashes.collect::<Option<_>>()?;
    if let [one] = hashes[..] {
        return Some(one);
    }
    let mut h = Fnv64::new();
    for c in hashes {
        h.write_u64(c);
    }
    Some(h.finish())
}

/// The one fold over a run's records (one per stage instance) into its
/// [`SessionRun`]. A stage with several instances (parse per TU root,
/// rewrite per source) is a hit only when every instance hit,
/// invalidated when any was, and its duration is the summed work time.
fn fold(mut result: SubstitutionResult, records: &[StageOutcome]) -> SessionRun {
    let of = |stage: Stage| records.iter().filter(move |r| r.stage == stage);
    let stages: Vec<StageOutcome> = STAGES
        .into_iter()
        .map(|stage| {
            let lookup = if of(stage).all(|r| r.lookup.is_hit()) {
                CacheLookup::Hit
            } else if of(stage).any(|r| r.lookup == CacheLookup::Invalidated) {
                CacheLookup::Invalidated
            } else {
                CacheLookup::Miss
            };
            let duration = of(stage).map(|r| r.duration).sum();
            StageOutcome {
                stage,
                lookup,
                duration,
            }
        })
        .collect();
    let dur = |stage: Stage| stages[stage as usize].duration;
    result.timings = Timings {
        parse: dur(Stage::Parse),
        analyze: dur(Stage::Analyze),
        plan: dur(Stage::Plan),
        generate: dur(Stage::Emit) + dur(Stage::Rewrite),
        verify: dur(Stage::Verify),
    };
    let misses = |stage: Stage| of(stage).filter(|r| !r.lookup.is_hit()).count();
    SessionRun {
        result,
        files_reparsed: misses(Stage::Parse),
        rewrites_recomputed: misses(Stage::Rewrite),
        rewrites_cached: of(Stage::Rewrite).count() - misses(Stage::Rewrite),
        parse_longest: of(Stage::Parse)
            .map(|r| r.duration)
            .max()
            .unwrap_or_default(),
        stages,
    }
}

/// The session's memos: the parse cache, one slot per stage (one per
/// secondary TU root for usage, one per source for rewrite, by
/// position), the parse cache of verify's substituted TU and the
/// wrappers-check memos.
#[derive(Debug, Default)]
struct Slots {
    parse: ParseCache,
    /// One per secondary TU root (root `k` at `k - 1`): that root's usage
    /// report alone, never its symbol table.
    usages: Vec<SharedSlot<UsageReport>>,
    analysis: SharedSlot<AnalysisArtifact>,
    plan: SharedSlot<Plan>,
    emit: SharedSlot<EmitArtifact>,
    rewrites: Vec<SharedSlot<String>>,
    verify: SharedSlot<VerifyArtifact>,
    /// Verify's parses of the substituted TU, over the overlaid tree.
    user_parse: ParseCache,
    /// Verify's last [`HISTORY`] passing wrappers checks, most recently
    /// used first.
    wrappers: Mutex<Vec<WrappersMemo>>,
}

/// One rerun: its inputs, the session's memos, the cells carrying each
/// stage's artifact to its dependents, and one outcome record per stage
/// instance (parse per TU root, usage per secondary root, rewrite per
/// source). The pre-pass fills the cell of a stage it proves warm; a live
/// node fills its own. An empty cell is how a key function learns, during
/// the pre-pass, that a predecessor must run first.
#[derive(Debug)]
struct Run {
    opts: Options,
    vfs: Arc<Vfs>,
    slots: Arc<Slots>,
    roots: Vec<String>,
    parses: Vec<OnceLock<Arc<CachedParse>>>,
    usages: Vec<OnceLock<Arc<UsageReport>>>,
    analysis: OnceLock<Arc<AnalysisArtifact>>,
    plan: OnceLock<Arc<Plan>>,
    emit: OnceLock<Arc<EmitArtifact>>,
    rewrites: Vec<OnceLock<Arc<String>>>,
    verify: OnceLock<Arc<VerifyArtifact>>,
    log: Mutex<Vec<StageOutcome>>,
}

/// A completed predecessor's artifact.
fn done<T>(cell: &OnceLock<Arc<T>>) -> &T {
    cell.get().expect("predecessor completed")
}

impl Run {
    fn new(opts: Options, vfs: Arc<Vfs>, slots: Arc<Slots>) -> Run {
        let roots = opts.parse_roots();
        Run {
            parses: roots.iter().map(|_| OnceLock::new()).collect(),
            usages: roots.iter().skip(1).map(|_| OnceLock::new()).collect(),
            rewrites: opts.sources.iter().map(|_| OnceLock::new()).collect(),
            opts,
            vfs,
            slots,
            roots,
            analysis: OnceLock::new(),
            plan: OnceLock::new(),
            emit: OnceLock::new(),
            verify: OnceLock::new(),
            log: Mutex::default(),
        }
    }

    /// The TU source `i`'s rewrite reads from: its own root's when the
    /// source names one, otherwise the primary root's (the classic
    /// single-TU shape, where sources[1..] are support files).
    fn owner_tu(&self, i: usize) -> Option<&ParsedTu> {
        let root = self.roots.iter().position(|r| *r == self.opts.sources[i]);
        Some(&self.parses[root.unwrap_or(0)].get()?.tu)
    }

    // ---- stage keys: pure hashing over the predecessors' cells, `None`
    // while one is still empty (which only the pre-pass can see) ----------

    fn closure_hash(&self) -> Option<u64> {
        combined_closure_hash(self.parses.iter().map(|c| Some(c.get()?.closure_hash)))
    }

    /// Secondary root `k`'s usage reads only that root's parse, the
    /// header name and the source set.
    fn usage_key(&self, k: usize) -> Option<u64> {
        let mut h = Fnv64::new();
        h.write_u64(self.parses[k].get()?.closure_hash);
        h.write_str(&self.opts.header);
        for s in &self.opts.sources {
            h.write_str(s);
        }
        Some(h.finish())
    }

    fn analyze_key(&self) -> Option<u64> {
        let (opts, mut h) = (&self.opts, Fnv64::new());
        h.write_u64(self.closure_hash()?);
        h.write_str(&opts.header);
        let names = opts.sources.iter().chain(&opts.extra_symbols);
        for s in names.chain(&opts.tu_roots) {
            h.write_str(s);
        }
        Some(h.finish())
    }

    fn plan_key(&self) -> Option<u64> {
        let (analysis, mut h) = (self.analysis.get()?, Fnv64::new());
        h.write_u64(analysis.usage_fingerprint);
        for d in &analysis.predeclare_diags {
            h.write_str(d);
        }
        Some(h.finish())
    }

    /// Emit depends on the plan alone, so its key is the plan key.
    fn emit_key(&self) -> Option<u64> {
        self.plan.get()?;
        self.plan_key()
    }

    /// A source's rewrite depends on its own text, the text of every
    /// *source* file it transitively includes (type information flows
    /// along user includes), and the plan.
    fn rewrite_key(&self, i: usize) -> Option<u64> {
        let parsed = self.owner_tu(i)?;
        let analysis = self.analysis.get()?;
        let mut h = Fnv64::new();
        h.write_u64(self.emit_key()?);
        let id = self
            .vfs
            .lookup(&self.opts.sources[i])
            .expect("sources validated");
        let mut reach: Vec<FileId> = crate::engine::reachable_from(id, &parsed.stats.include_edges)
            .into_iter()
            .filter(|f| analysis.source_files.contains(f))
            .collect();
        reach.sort_by_key(|f| f.0);
        if !reach.contains(&id) {
            reach.push(id); // sources absent from the TU still rewrite
        }
        for f in reach {
            h.write_str(self.vfs.path(f));
            h.write_u64(self.vfs.file_hash(f));
        }
        Some(h.finish())
    }

    fn verify_key(&self) -> Option<u64> {
        let (emit_art, mut h) = (self.emit.get()?, Fnv64::new());
        h.write_u64(self.closure_hash()?);
        h.write_u64(self.plan_key()?);
        h.write_str(&self.opts.lightweight_name);
        h.write_str(&self.opts.wrappers_name);
        h.write_u64(hash::hash_str(&emit_art.lightweight));
        h.write_u64(hash::hash_str(&emit_art.wrappers));
        for (path, text) in self.rewritten()? {
            h.write_str(path);
            h.write_u64(hash::hash_str(text));
        }
        h.write_u64(u64::from(self.opts.verify));
        Some(h.finish())
    }

    /// The run's depfile, for its bundle on disk: `(path, content hash)`
    /// of every file a TU root read, in root order, each file once.
    fn depfile(&self) -> Vec<(String, u64)> {
        let mut seen = HashSet::new();
        let files = self
            .parses
            .iter()
            .flat_map(|c| &done(c).tu.stats.files_entered);
        let files: Vec<FileId> = files.copied().filter(|&f| seen.insert(f)).collect();
        yalla_cpp::cache::depfile_of(&self.vfs, &files)
    }

    /// The rewritten sources by path, once every rewrite has its artifact.
    fn rewritten(&self) -> Option<BTreeMap<&str, &str>> {
        self.opts
            .sources
            .iter()
            .zip(&self.rewrites)
            .map(|(s, c)| Some((s.as_str(), c.get()?.as_str())))
            .collect()
    }

    /// Records one stage instance's outcome: the single place that bumps
    /// `cache.<stage>.{hits,misses,invalidations}` and appends to the run
    /// log. Parse also counts a re-parsed TU under `session.tus_reparsed`;
    /// every other stage also bumps the global `cache.hits` /
    /// `cache.misses` / `cache.invalidations`, which the parse cache
    /// maintains for itself.
    fn record(&self, stage: Stage, lookup: CacheLookup, duration: Duration) {
        use yalla_obs::{count, metrics::names};
        let (label, hit) = (stage.label(), lookup.is_hit());
        count(
            &names::stage_cache(label, if hit { "hits" } else { "misses" }),
            1,
        );
        match (stage, lookup) {
            (Stage::Parse, CacheLookup::Hit) => {}
            (Stage::Parse, _) => count(names::SESSION_TUS_REPARSED, 1),
            (_, CacheLookup::Hit) => count(names::CACHE_HITS, 1),
            (_, CacheLookup::Miss) => count(names::CACHE_MISSES, 1),
            (_, CacheLookup::Invalidated) => {
                count(names::CACHE_MISSES, 1);
                count(names::CACHE_INVALIDATIONS, 1);
            }
        }
        if lookup == CacheLookup::Invalidated {
            count(&names::stage_cache(label, "invalidations"), 1);
        }
        let duration = if hit { Duration::ZERO } else { duration };
        let record = StageOutcome {
            stage,
            lookup,
            duration,
        };
        self.log.lock().expect("run log").push(record);
    }

    /// The substitution result, assembled from the completed cells.
    fn result(&self) -> SubstitutionResult {
        let parsed = &done(&self.parses[0]).tu;
        let (plan, emit_art, verify_art) = (done(&self.plan), done(&self.emit), done(&self.verify));
        let mut report = Report::from_plan(plan);
        report.before = TuStats {
            loc: parsed.stats.lines_compiled,
            headers: parsed.stats.header_count(),
        };
        report.verification = verify_art.verification.clone();
        if let Some(after) = verify_art.after {
            report.after = after;
        }
        let rewritten = self.rewritten().expect("rewrites completed");
        SubstitutionResult {
            lightweight_header: emit_art.lightweight.clone(),
            wrappers_file: emit_art.wrappers.clone(),
            rewritten_sources: rewritten
                .into_iter()
                .map(|(path, text)| (path.to_string(), text.to_string()))
                .collect(),
            plan: plan.clone(),
            report,
            timings: Timings::default(),
        }
    }
}

/// Turns stage declarations into one rerun. It alone runs the warm
/// pre-pass, builds the DAG, plants the live nodes' cancel point, spans
/// them and records every stage instance's outcome.
struct Driver {
    run: Arc<Run>,
    cancel: CancelToken,
    dag: Dag<YallaError>,
    /// Every declared stage instance, and whether the pre-pass proved it
    /// warm.
    declared: Vec<(Stage, bool)>,
}

impl Driver {
    /// Declares an instance of `stage` after `deps`, memoized in the slot
    /// `place` names beside its cell. The one `key` function serves both
    /// the pre-pass probe and the live refresh.
    fn keyed<T: fmt::Debug + Send + Sync + 'static>(
        &mut self,
        stage: Stage,
        deps: &[NodeId],
        place: impl Fn(&Run) -> (&OnceLock<Arc<T>>, &SharedSlot<T>) + Copy + Send + 'static,
        key: impl Fn(&Run) -> Option<u64> + Copy + Send + 'static,
        compute: impl FnOnce(&Run) -> Result<T, YallaError> + Send + 'static,
    ) -> NodeId {
        self.memo(
            stage,
            deps,
            move |r| place(r).0,
            move |r| slot_hit(place(r).1, key(r)?),
            move |r| {
                refresh(place(r).1, key(r).expect("predecessors completed"), || {
                    compute(r)
                })
            },
        )
    }

    /// Declares an instance of `stage` after `deps` over any memo. The
    /// pre-pass calls `probe` now: a hit fills `cell` and becomes a cached
    /// node. Otherwise a live node calls `refresh` once its predecessors
    /// have filled theirs.
    fn memo<T: fmt::Debug + Send + Sync + 'static>(
        &mut self,
        stage: Stage,
        deps: &[NodeId],
        cell: impl Fn(&Run) -> &OnceLock<Arc<T>> + Send + 'static,
        probe: impl FnOnce(&Run) -> Option<Arc<T>>,
        refresh: impl FnOnce(&Run) -> Result<(CacheLookup, Arc<T>), YallaError> + Send + 'static,
    ) -> NodeId {
        let warm = probe(&self.run);
        self.declared.push((stage, warm.is_some()));
        if let Some(artifact) = warm {
            cell(&self.run).set(artifact).expect("fresh cell");
            return self.dag.cached(stage.label(), deps);
        }
        let (run, cancel) = (Arc::clone(&self.run), self.cancel.clone());
        self.dag.node(stage.label(), deps, move || {
            // Cancel point: the stage boundary of every live node.
            if cancel.checkpoint() {
                return Err(YallaError::Cancelled);
            }
            let span = yalla_obs::span("engine", stage.label());
            let (lookup, artifact) = refresh(&run)?;
            run.record(stage, lookup, span.finish());
            cell(&run).set(artifact).expect("stage node runs once");
            Ok(())
        })
    }

    /// Records every pre-pass hit — or every declared instance, when the
    /// disk tier answered the whole run — and hands over the DAG.
    fn finish(self, disk_warm: bool) -> Dag<YallaError> {
        for &(stage, warm) in &self.declared {
            if warm || disk_warm {
                self.run.record(stage, CacheLookup::Hit, Duration::ZERO);
            }
        }
        self.dag
    }
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
    slots: Arc<Slots>,
    store: Option<Arc<Store>>,
    /// `(run key, closure hash)` of the last run bundle this session
    /// wrote: the tree the record under that key describes, as far as the
    /// session knows.
    written: Option<(u64, u64)>,
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
        let parse = ParseCache::new();
        let slots = Slots {
            user_parse: ParseCache::new().with_pool(Arc::clone(parse.pool())),
            parse,
            usages: options
                .parse_roots()
                .iter()
                .skip(1)
                .map(|_| Mutex::default())
                .collect(),
            rewrites: options.sources.iter().map(|_| Mutex::default()).collect(),
            ..Slots::default()
        };
        Session {
            options,
            vfs: Arc::new(vfs),
            slots: Arc::new(slots),
            store,
            written: None,
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
        let (opts, vfs) = (self.options.clone(), Arc::clone(&self.vfs));
        let run = Arc::new(Run::new(opts, vfs, Arc::clone(&self.slots)));

        // ---- validate sources up front: report *all* missing paths -----
        if run.opts.sources.is_empty() {
            return Err(YallaError::SourceNotFound("<no sources given>".into()));
        }
        let mut seen_missing = HashSet::new();
        let missing: Vec<String> = run
            .opts
            .sources
            .iter()
            .chain(&run.roots)
            .filter(|s| run.vfs.lookup(s).is_none() && seen_missing.insert(s.as_str()))
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Err(YallaError::SourcesNotFound(missing));
        }

        // Cancel point: run entry. A rerun superseded before it starts
        // costs nothing.
        if cancel.checkpoint() {
            return Err(YallaError::Cancelled);
        }

        // ---- the stages, each declared once ----------------------------
        let mut d = Driver {
            run: Arc::clone(&run),
            cancel: cancel.clone(),
            dag: Dag::new(),
            declared: Vec::new(),
        };
        // One parse node per TU root, all independent — a mega project's
        // per-TU preprocessing and parsing fans out across the pool just
        // like per-source rewrites do. The parse cache is the memo: its
        // probe validates the key, `(root, defines)` plus the depfile. A
        // root about to miss has its oldest version evicted here, while no
        // parse runs (`ParseCache::make_room`).
        let mut parses = Vec::with_capacity(run.roots.len());
        for i in 0..run.roots.len() {
            let probe = move |r: &Run| {
                let (cache, defines, root) = (&r.slots.parse, &r.opts.defines, &r.roots[i]);
                let hit = cache.probe(&r.vfs, defines, root);
                if hit.is_none() {
                    cache.make_room(defines, root);
                }
                hit
            };
            parses.push(d.memo(
                Stage::Parse,
                &[],
                move |r| &r.parses[i],
                move |r| probe(r).map(Arc::new),
                move |r| {
                    let parsed = r.slots.parse.parse(&r.vfs, &r.opts.defines, &r.roots[i])?;
                    Ok((parsed.lookup, Arc::new(parsed)))
                },
            ));
        }
        // One usage node per secondary root, each after its own parse
        // only: a one-TU edit re-collects one TU's usage, and a cold run
        // fans the roots' analysis out as their parses finish.
        let mut analyze_deps = vec![parses[0]];
        for (k, &parse) in parses.iter().enumerate().skip(1) {
            analyze_deps.push(d.keyed(
                Stage::Analyze,
                &[parse],
                move |r| (&r.usages[k - 1], &r.slots.usages[k - 1]),
                move |r| r.usage_key(k),
                move |r| Ok(stage_usage(r, k)),
            ));
        }
        let analyze = d.keyed(
            Stage::Analyze,
            &analyze_deps,
            |r| (&r.analysis, &r.slots.analysis),
            Run::analyze_key,
            stage_analyze,
        );
        let plan = d.keyed(
            Stage::Plan,
            &[analyze],
            |r| (&r.plan, &r.slots.plan),
            Run::plan_key,
            |r| Ok(stage_plan(done(&r.analysis), &r.opts)),
        );
        let mut verify_deps = vec![d.keyed(
            Stage::Emit,
            &[plan],
            |r| (&r.emit, &r.slots.emit),
            Run::emit_key,
            |r| Ok(stage_emit(done(&r.plan), &r.opts)),
        )];
        for i in 0..run.opts.sources.len() {
            verify_deps.push(d.keyed(
                Stage::Rewrite,
                &[plan],
                move |r| (&r.rewrites[i], &r.slots.rewrites[i]),
                move |r| r.rewrite_key(i),
                move |r| Ok(stage_rewrite(r, i)),
            ));
        }
        d.keyed(
            Stage::Verify,
            &verify_deps,
            |r| (&r.verify, &r.slots.verify),
            Run::verify_key,
            |r| Ok(stage_verify(r)),
        );

        // Cancel point: store boundary. Guards the disk probe below (a
        // superseded rerun skips the store lookups entirely) and gives
        // fully-warm runs a second boundary before they publish.
        if cancel.checkpoint() {
            return Err(YallaError::Cancelled);
        }

        // ---- disk tier (memory → disk → recompute) ---------------------
        // When the memory tier cannot prove the whole run warm, ask the
        // on-disk store. A bundle hit is a complete answer — every stage
        // records `hit` and nothing is scheduled, which is what makes a
        // fresh process (or a daemon restarted after `kill -9`) disk-warm.
        let disk = self
            .store
            .as_ref()
            .map(|store| (store, persist::run_key_of(&run.opts, &run.vfs)));
        let bundle = disk
            .filter(|_| run.verify.get().is_none())
            .and_then(|(store, key)| {
                // Zero-copy hit: the record is validated once, and the bundle
                // checks its depfile and decodes straight from the payload view.
                let view = store.get_view(NS_RUN, key)?;
                persist::lookup_run(&view, &run.vfs)
            });
        let disk_hit = bundle.is_some();
        let dag = d.finish(disk_hit);
        let result = match bundle {
            Some(result) => result,
            None => {
                if let Some(err) = dag.run_at(exec, priority).error {
                    // A cancelled run returns only after every in-flight
                    // node has finished (the DAG waits for the whole
                    // graph), so no node is still writing into the stage
                    // slots when the caller retries.
                    return Err(err);
                }
                run.result()
            }
        };

        // ---- one fold over the run log ----------------------------------
        let records = std::mem::take(&mut *run.log.lock().expect("run log"));
        let session_run = fold(result, &records);

        // ---- latency telemetry ------------------------------------------
        // Recomputed stages feed the `latency.stage.<stage>` histograms
        // (cache hits report zero and would drown the distribution, so
        // they are skipped); one `stage` event per stage carries the
        // lookup and duration, joined to the daemon request by the
        // ambient request id this handler thread holds.
        for outcome in &session_run.stages {
            let (stage, duration) = (outcome.stage.label(), outcome.duration);
            if !outcome.lookup.is_hit() {
                yalla_obs::observe(&yalla_obs::metrics::names::latency_stage(stage), duration);
            }
            yalla_obs::event("stage", || {
                let lookup = match outcome.lookup {
                    CacheLookup::Hit => "hit",
                    CacheLookup::Miss => "miss",
                    CacheLookup::Invalidated => "invalidated",
                };
                [
                    ("stage", stage.into()),
                    ("lookup", lookup.into()),
                    ("dur_us", (duration.as_micros() as i64).into()),
                ]
            });
        }

        // ---- persist the run bundle -------------------------------------
        // Anything that recomputed produces new artifacts worth keeping. A
        // fully-cached run writes only when the record under its key may
        // describe another tree (a header edit keeps the key) or has gone
        // missing (evicted, or a sabotaged earlier write). A bundle read
        // from disk may come from another writer, so after one the session
        // no longer knows what any record holds. Best-effort by design.
        if let Some((store, key)) = disk {
            if disk_hit {
                self.written = None;
            } else if let Some(closure) = run.closure_hash() {
                let current = session_run.fully_cached()
                    && self.written == Some((key, closure))
                    && store.contains(NS_RUN, key);
                if !current {
                    let deps = run.depfile();
                    if let Some(payload) = persist::encode_run(&session_run.result, &deps) {
                        store.put(NS_RUN, key, &payload);
                        self.written = Some((key, closure));
                    }
                }
            }
        }
        Ok(session_run)
    }
}

// ---- stage implementations ------------------------------------------------

/// The user source files.
fn source_files(run: &Run) -> HashSet<FileId> {
    let vfs = &run.vfs;
    run.opts
        .sources
        .iter()
        .map(|s| vfs.lookup(s).expect("sources validated"))
        .collect()
}

/// Secondary root `k`'s usage of the target header, collected against its
/// own TU and symbol table; the table is dropped once the report is out.
/// A root that does not include the header uses nothing from it.
fn stage_usage(run: &Run, k: usize) -> UsageReport {
    let tu = &done(&run.parses[k]).tu;
    let header = run.vfs.resolve_include(&run.opts.header, None, false);
    let Some(header) = header.ok().filter(|h| tu.stats.headers.contains(h)) else {
        return UsageReport::default();
    };
    let targets = crate::engine::reachable_from(header, &tu.stats.include_edges);
    let table = done(&run.parses[k]).table();
    UsageReport::collect(&tu.ast, &table, &targets, &source_files(run))
}

/// The analyze stage: symbol table + usage collection + pre-declared
/// symbols (paper §6, Fig. 5 lines 2–10).
///
/// With multiple TU roots, the primary root (first entry) anchors the
/// symbol table, target-file set, and fingerprint; every other root's
/// usage of the same header comes from its own usage node
/// ([`stage_usage`]) and is merged in root order, so the combined report
/// (and everything planned from it) is byte-identical at any worker
/// count. All usage keys name header-side symbols, which the shared
/// header declares identically in every TU, so resolving the merged
/// report against the primary table is sound.
fn stage_analyze(run: &Run) -> Result<AnalysisArtifact, YallaError> {
    let (vfs, opts) = (&*run.vfs, &run.opts);
    let parsed = &*done(&run.parses[0]).tu;
    let header_file = vfs
        .resolve_include(&opts.header, None, false)
        .map_err(|_| YallaError::HeaderNotIncluded(opts.header.clone()))?;
    if !parsed.stats.headers.contains(&header_file) {
        return Err(YallaError::HeaderNotIncluded(opts.header.clone()));
    }
    let target_files = crate::engine::reachable_from(header_file, &parsed.stats.include_edges);
    let source_files = source_files(run);

    let table = done(&run.parses[0]).table();
    let mut usage = UsageReport::collect(&parsed.ast, &table, &target_files, &source_files);
    for cell in &run.usages {
        usage.merge_from(UsageReport::clone(done(cell)));
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
                            decl: Arc::clone(f),
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

/// The emit stage: lightweight header + wrappers file.
fn stage_emit(plan: &Plan, opts: &Options) -> EmitArtifact {
    EmitArtifact {
        lightweight: emit::lightweight_header(plan, &opts.header),
        wrappers: emit::wrappers_file(plan, &opts.header, &opts.lightweight_name),
    }
}

/// Rewrites source `i` (Fig. 5 lines 26–27, per-source half).
fn stage_rewrite(run: &Run, i: usize) -> String {
    let parsed = run.owner_tu(i).expect("predecessor completed");
    let id = run
        .vfs
        .lookup(&run.opts.sources[i])
        .expect("sources validated");
    let all_decls: Vec<&yalla_cpp::ast::Decl> = parsed.ast.decls.iter().collect();
    let mut tr = Transformer::new(done(&run.plan), &done(&run.analysis).table);
    rewrite_file(
        id,
        run.vfs.text(id),
        &run.opts.header,
        &run.opts.lightweight_name,
        &all_decls,
        &mut tr,
    )
}

/// The verify stage. One parse of the substituted TU feeds the sources
/// check, the incomplete-type check and the after-statistics; a wrappers
/// check is reused while one of the session's memos still validates.
fn stage_verify(run: &Run) -> VerifyArtifact {
    let (opts, emit_art) = (&run.opts, done(&run.emit));
    let inputs = VerifyInputs {
        original_vfs: &run.vfs,
        lightweight_name: &opts.lightweight_name,
        lightweight: &emit_art.lightweight,
        wrappers_name: &opts.wrappers_name,
        wrappers: &emit_art.wrappers,
        defines: &opts.defines,
        fragments: run.slots.parse.pool(),
    };
    // The overlaid tree and this run's hold on the user TU are dropped
    // before the wrappers check parses the expensive header.
    let (sources, after) = {
        let user_vfs = inputs.user_vfs(run.rewritten().expect("rewrites completed"));
        let user_tu = run
            .slots
            .user_parse
            .parse(&user_vfs, &opts.defines, &opts.sources[0])
            .ok();
        let after = user_tu.as_ref().map(|parsed| TuStats {
            loc: parsed.tu.stats.lines_compiled,
            headers: parsed.tu.stats.header_count(),
        });
        let sources = opts.verify.then(|| match &user_tu {
            Some(parsed) => check_user_tu(&parsed.tu, &parsed.table()),
            None => Verification::default(),
        });
        (sources, after)
    };
    let verification = match sources {
        Some(sources) => Verification {
            wrappers_parse: wrappers_check(&inputs, &run.slots.wrappers),
            ..sources
        },
        None => Verification::default(),
    };
    VerifyArtifact {
        verification,
        after,
    }
}

/// Check 3 through the session's memos. Only a passing check is
/// memoized, and only once its parse has completed, so a failure re-parses
/// next time — like [`ParseCache`] errors, which are never cached.
fn wrappers_check(inputs: &VerifyInputs<'_>, memos: &Mutex<Vec<WrappersMemo>>) -> bool {
    {
        let mut memos = memos.lock().expect("wrappers memo lock");
        if let Some(i) = memos.iter().position(|m| inputs.reuses(m)) {
            memos[..=i].rotate_right(1);
            yalla_obs::count(yalla_obs::metrics::names::VERIFY_WRAPPERS_REUSED, 1);
            return true;
        }
    }
    let Some(fresh) = inputs.check_wrappers() else {
        return false;
    };
    let mut memos = memos.lock().expect("wrappers memo lock");
    memos.insert(0, fresh);
    memos.truncate(HISTORY);
    true
}
