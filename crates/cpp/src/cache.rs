//! A content-addressed, dependency-validated parse cache.
//!
//! A real compiler discovers a translation unit's include closure only
//! *while* preprocessing it, so — exactly like `make` depfiles or ccache's
//! direct mode — the cache records the closure observed on the previous
//! parse and validates it against current file hashes on lookup:
//!
//! * **key**: `(main path, defines hash)` selects the entry;
//! * **validation**: the entry is a hit iff every file that entered the
//!   previous parse (the main file and all transitively included headers)
//!   still has the same content hash;
//! * **artifact**: the parsed TU behind an [`Arc`], so hits are O(closure)
//!   hash comparisons and one pointer clone — no preprocessing, no lexing,
//!   no parsing;
//! * **fragments**: a miss parses through the cache's
//!   [`FragmentPool`] ([`crate::preamble`]), so it re-processes only the
//!   includes of the main file's leading block whose inputs changed, and
//!   the rest of the main file; each entry keeps the resulting
//!   [`Chain`] (shared by the versions whose blocks resolved to the same
//!   fragments, and carrying the symbol table of their declarations),
//!   which keeps its fragments alive in the pool. One pool may serve
//!   several caches ([`ParseCache::with_pool`]), so that every root of a
//!   session shares one rebuild of a header they all include;
//! * **budget**: an entry's estimated bytes count the lines its chain did
//!   not deliver, and each fragment counts its own once, in its pool
//!   ([`FragmentPool::bytes`]), for as long as any entry holds it; the
//!   byte budget bounds the sum ([`ParseCache::resident_bytes`]).
//!
//! Every entry also carries a `closure_hash` content-addressing the whole
//! input set (main path + defines + every dependency's hash). Downstream
//! stages key *their* artifacts on it: if the closure hash is unchanged,
//! the parse — and anything derived only from it — cannot have changed.
//!
//! With an attached [`yalla_store::Store`], the cache additionally
//! persists each parse's *dependency manifest* (the depfile: every file in
//! the closure with its hash, plus the closure hash) to disk under the
//! `parse` namespace. ASTs never leave memory — the manifest exists so a
//! *fresh process* can prove via [`ParseCache::probe_disk`] that its input
//! set is byte-identical to a previous parse and recover the closure hash
//! without preprocessing anything, which is the anchor the session layer
//! needs to look up a whole-run artifact bundle on disk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use yalla_store::module::{ModuleBuilder, ModuleReader, PartitionBuilder};
use yalla_store::{Store, NS_PARSE};

use crate::error::Result;
use crate::frontend::{parse_with, ParsedTu};
use crate::hash::{self, Fnv64};
use crate::loc::FileId;
use crate::preamble::{Chain, FragmentPool};
use crate::symbols::SymbolTable;
use crate::vfs::Vfs;

/// Sentinel for "no explicit budget set — consult `YALLA_MEM_BUDGET`".
const BUDGET_UNSET: u64 = u64::MAX;

/// Process-wide in-memory byte budget, shared by every cache in
/// [`BudgetMode::Global`] mode. `BUDGET_UNSET` defers to the
/// `YALLA_MEM_BUDGET` environment variable; `0` means unlimited.
static GLOBAL_MEM_BUDGET: AtomicU64 = AtomicU64::new(BUDGET_UNSET);

/// Estimated bytes of parsed TUs resident across every in-memory parse
/// cache in the process, and the high-water mark since the last reset.
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

fn env_mem_budget() -> Option<u64> {
    static CACHED: OnceLock<Option<u64>> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let raw = std::env::var("YALLA_MEM_BUDGET").ok()?;
        // An unparsable value is ignored rather than fatal: the CLI flag
        // validates loudly; the env var is best-effort plumbing.
        parse_mem_budget(&raw).ok().filter(|&b| b > 0)
    })
}

/// Sets the process-wide parse-cache byte budget. `None` (or `Some(0)`)
/// disables eviction. Overrides `YALLA_MEM_BUDGET` for every cache in
/// [`BudgetMode::Global`] mode; the budget is consulted on each insert,
/// so a change applies to already-open caches too.
pub fn set_mem_budget(bytes: Option<u64>) {
    GLOBAL_MEM_BUDGET.store(bytes.unwrap_or(0), Ordering::Relaxed);
}

/// The effective process-wide budget: the explicit
/// [`set_mem_budget`] value if one was set, else `YALLA_MEM_BUDGET`,
/// else unlimited.
pub fn mem_budget() -> Option<u64> {
    match GLOBAL_MEM_BUDGET.load(Ordering::Relaxed) {
        BUDGET_UNSET => env_mem_budget(),
        0 => None,
        n => Some(n),
    }
}

/// Parses a human-readable byte budget: a decimal count with an
/// optional binary suffix (`k`/`K` = 2^10, `m`/`M` = 2^20, `g`/`G` =
/// 2^30), e.g. `64M`, `512k`, `2G`, `1048576`. `0` disables the budget.
///
/// # Errors
///
/// Returns a human-readable message for empty, non-numeric, or
/// overflowing inputs.
pub fn parse_mem_budget(s: &str) -> std::result::Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte budget {t:?} (want e.g. 64M, 512k, 1048576)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte budget {t:?} overflows u64"))
}

/// Estimated bytes of parsed TUs currently resident in in-memory parse
/// caches, process-wide.
pub fn bytes_resident() -> u64 {
    RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`bytes_resident`] since process start or the
/// last [`reset_peak_resident`].
pub fn peak_bytes_resident() -> u64 {
    PEAK_RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// Resets the [`peak_bytes_resident`] high-water mark to the current
/// resident total (benches call this between presets).
pub fn reset_peak_resident() {
    PEAK_RESIDENT_BYTES.store(RESIDENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

pub(crate) fn add_resident(bytes: u64) {
    let now = RESIDENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_RESIDENT_BYTES.fetch_max(now, Ordering::Relaxed);
    yalla_obs::gauge(yalla_obs::metrics::names::CACHE_BYTES_RESIDENT, now as i64);
}

pub(crate) fn sub_resident(bytes: u64) {
    let prev = RESIDENT_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    yalla_obs::gauge(
        yalla_obs::metrics::names::CACHE_BYTES_RESIDENT,
        prev.saturating_sub(bytes) as i64,
    );
}

/// Deterministic estimate of the memory that `lines` parsed lines and a
/// depfile hold: a per-line constant for the retained AST/tokens plus the
/// dep table. It is a *model*, not an allocator measurement — what
/// matters for the budget is that it is stable across runs and monotone
/// in TU size, so eviction decisions (and the bench's peak-resident
/// numbers) are reproducible.
pub(crate) fn approx_bytes(lines: usize, deps: &[(String, u64)]) -> u64 {
    let dep_bytes: u64 = deps.iter().map(|(p, _)| p.len() as u64 + 24).sum();
    lines as u64 * 160 + dep_bytes
}

/// Where a cache takes its in-memory byte budget from.
#[derive(Debug, Clone, Copy, Default)]
pub enum BudgetMode {
    /// Follow the process-wide budget ([`set_mem_budget`] /
    /// `YALLA_MEM_BUDGET`), re-read on every insert.
    #[default]
    Global,
    /// A fixed per-cache budget; `None` disables eviction. Used by
    /// tests and benches that must not depend on process-global state.
    Fixed(Option<u64>),
}

/// How a cache lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Valid entry found; the cached artifact was reused.
    Hit,
    /// No entry existed for the key; the artifact was computed.
    Miss,
    /// An entry existed but its inputs changed; the stale artifact was
    /// recomputed and replaced.
    Invalidated,
}

impl CacheLookup {
    /// True for [`CacheLookup::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheLookup::Hit)
    }

    /// Display label (`hit`, `miss`, `inval`).
    pub fn label(self) -> &'static str {
        match self {
            CacheLookup::Hit => "hit",
            CacheLookup::Miss => "miss",
            CacheLookup::Invalidated => "inval",
        }
    }
}

/// The depfile of a parse of `tu` over `vfs`: `(path, content hash)` of
/// every file that entered it, main file first. This is what
/// [`ParseCache`] records per entry and persists as the on-disk manifest.
pub fn depfile(vfs: &Vfs, tu: &ParsedTu) -> Vec<(String, u64)> {
    depfile_of(vfs, &tu.stats.files_entered)
}

/// `(path, content hash)` of each of `files`, in order: the depfile of
/// a parse whose statistics list `files` as entered.
pub fn depfile_of(vfs: &Vfs, files: &[FileId]) -> Vec<(String, u64)> {
    files
        .iter()
        .map(|&file| (vfs.path(file).to_string(), vfs.file_hash(file)))
        .collect()
}

/// The depfile rule: a recorded parse still describes the current inputs
/// iff every file in `deps` still has its recorded content hash under
/// `hash_of` (a file `hash_of` cannot find invalidates). Whatever the
/// parse produced — an AST, or only a verdict — can then be reused.
pub fn depfile_valid(deps: &[(String, u64)], hash_of: impl Fn(&str) -> Option<u64>) -> bool {
    deps.iter().all(|(dep, h)| hash_of(dep) == Some(*h))
}

/// A successfully validated (or freshly computed) cached parse.
#[derive(Debug, Clone)]
pub struct CachedParse {
    /// The parsed TU (shared; cloning is a pointer bump).
    pub tu: Arc<ParsedTu>,
    /// Content address of the parse's entire input set.
    pub closure_hash: u64,
    /// How the lookup resolved.
    pub lookup: CacheLookup,
    /// The include fragments of the main file's leading block (shared
    /// with the cache entry); the TU's top-level declarations start with
    /// their [`Chain::decls`].
    pub chain: Option<Arc<Chain>>,
}

impl CachedParse {
    /// The TU's symbol table: its chain's table ([`Chain::table`], built
    /// once per chain) extended with the rest of its declarations, or a
    /// whole build when it has no chain.
    pub fn table(&self) -> SymbolTable {
        match &self.chain {
            Some(c) => SymbolTable::extend(&c.table(), &self.tu.ast.decls[c.decls()..]),
            None => SymbolTable::build(&self.tu.ast),
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// `(path, content hash)` of every file that entered the parse, main
    /// file first.
    deps: Vec<(String, u64)>,
    closure_hash: u64,
    tu: Arc<ParsedTu>,
    /// The fragments of the main file's leading block. A fragment is
    /// freed, with its symbol table, with the last chain holding it, so
    /// that, like an evicted AST, it is freed by `make_room` before a
    /// parallel reparse and not by a parse while other workers parse.
    chain: Option<Arc<Chain>>,
    /// Deterministic estimate of this entry's in-memory footprint
    /// ([`approx_bytes`]) without its chain's fragments, which their pool
    /// counts.
    bytes: u64,
    /// LRU clock tick of the last hit or insert; the eviction scan
    /// removes the minimum-stamp entry first.
    stamp: u64,
}

/// Parse versions retained per `(path, defines)` key. A small history
/// makes edit-then-revert (comment out, rebuild, undo, rebuild — the
/// A/B pattern of an interactive session) a cache *hit* instead of a
/// recompute, at the cost of a few retained ASTs per TU.
const VERSIONS_PER_KEY: usize = 4;

/// Distinct chains a key's history holds. Versions of main-file edits
/// share one chain and cost only the main file's own declarations, but
/// each header edit's version holds fragments of its own: a Kokkos TU's
/// `functor.hpp` fragment is its whole ~110k-line closure, 86 MB of AST.
/// Two chains keep the version an edit replaced (the revert target)
/// without a header AST per older edit, so what a session holds does not
/// grow with the number of header edits in its history.
const CHAINS_PER_KEY: usize = 2;

/// True when two versions hold the very same chain (or both none).
fn same_chain(a: &Option<Arc<Chain>>, b: &Option<Arc<Chain>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Keeps the first `max_versions` of `versions` (most recent first)
/// whose chain is one of the first `max_chains` distinct chains in that
/// order, and returns the others.
fn trim_history(versions: &mut Vec<Entry>, max_versions: usize, max_chains: usize) -> Vec<Entry> {
    let mut chains: Vec<Option<Arc<Chain>>> = Vec::new();
    let (mut kept, mut dropped) = (Vec::new(), Vec::new());
    for entry in std::mem::take(versions) {
        let known = chains.iter().any(|c| same_chain(c, &entry.chain));
        if kept.len() < max_versions && (known || chains.len() < max_chains) {
            if !known {
                chains.push(entry.chain.clone());
            }
            kept.push(entry);
        } else {
            dropped.push(entry);
        }
    }
    *versions = kept;
    dropped
}

/// A per-TU parse cache keyed by `(main path, defines)` and validated
/// against file content hashes. Each key retains up to
/// [`VERSIONS_PER_KEY`] recent parses of at most [`CHAINS_PER_KEY`]
/// chains, so reverting an edit re-hits the version cached before the
/// edit.
///
/// The cache is internally synchronized: [`ParseCache::parse`] takes
/// `&self`, so one cache (behind an `Arc`) serves concurrent per-TU
/// parse tasks. The map lock is held only for lookup and insertion —
/// never across an actual parse — so misses on different TUs
/// preprocess and parse in parallel. Two threads missing the *same*
/// key may both parse; the loser's insert deduplicates by closure
/// hash, so the history stays consistent (the work is wasted, never
/// wrong).
///
/// A scheduler that knows a key will miss calls
/// [`ParseCache::make_room`] first, so the parse frees no old version
/// while other workers parse: freeing a whole AST makes the allocator's
/// per-thread arenas contend (the freed blocks belong to the arena of
/// the thread that parsed them), which slowed parallel reparses
/// several-fold.
///
/// # Example
///
/// ```
/// use yalla_cpp::cache::{CacheLookup, ParseCache};
/// use yalla_cpp::vfs::Vfs;
///
/// let mut vfs = Vfs::new();
/// vfs.add_file("a.hpp", "int x;");
/// vfs.add_file("m.cpp", "#include \"a.hpp\"\nint y;");
/// let cache = ParseCache::new();
/// let first = cache.parse(&vfs, &[], "m.cpp").unwrap();
/// assert_eq!(first.lookup, CacheLookup::Miss);
/// let second = cache.parse(&vfs, &[], "m.cpp").unwrap();
/// assert_eq!(second.lookup, CacheLookup::Hit);
/// assert_eq!(first.closure_hash, second.closure_hash);
/// ```
#[derive(Debug, Default)]
pub struct ParseCache {
    entries: Mutex<HashMap<(String, u64), Vec<Entry>>>,
    store: Option<Arc<Store>>,
    /// In-memory byte budget policy; enforced after every insert.
    budget: BudgetMode,
    /// Estimated bytes of *this* cache's entries (the budget is per
    /// cache; the process-wide gauge sums every cache and pool).
    resident: AtomicU64,
    /// Monotone LRU clock; bumped on every hit and insert.
    clock: AtomicU64,
    /// The include fragments misses parse through.
    pool: Arc<FragmentPool>,
}

impl ParseCache {
    /// An empty cache.
    pub fn new() -> Self {
        ParseCache::default()
    }

    /// An empty cache that persists dependency manifests to `store`.
    pub fn with_store(store: Option<Arc<Store>>) -> Self {
        ParseCache {
            entries: Mutex::new(HashMap::new()),
            store,
            budget: BudgetMode::Global,
            resident: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            pool: Arc::default(),
        }
    }

    /// This cache, parsing its misses through `pool` (shared with other
    /// caches) instead of a pool of its own.
    pub fn with_pool(mut self, pool: Arc<FragmentPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The fragment pool misses parse through.
    pub fn pool(&self) -> &Arc<FragmentPool> {
        &self.pool
    }

    /// An empty cache with a fixed per-cache byte budget (`None`
    /// disables eviction), independent of the process-global setting.
    pub fn with_budget(store: Option<Arc<Store>>, budget: Option<u64>) -> Self {
        let mut cache = ParseCache::with_store(store);
        cache.budget = BudgetMode::Fixed(budget);
        cache
    }

    /// The byte budget this cache enforces right now.
    pub fn effective_budget(&self) -> Option<u64> {
        match self.budget {
            BudgetMode::Fixed(b) => b.filter(|&b| b > 0),
            BudgetMode::Global => mem_budget(),
        }
    }

    /// Estimated bytes of parsed TUs this cache currently holds: its
    /// entries, and every fragment alive in its pool. The byte budget
    /// bounds this sum.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed) + self.pool.bytes()
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Key of the on-disk dependency manifest for `(path, defines)` with
    /// the root file's own content hash folded in. Without the root hash,
    /// an edited main file would leave the stale manifest squatting on
    /// the key (the dedup `contains` check would skip the overwrite) and
    /// every later process would probe the dead manifest forever; with
    /// it, each content generation gets its own slot and the LRU sweeps
    /// out the old ones.
    fn manifest_key(path: &str, defines_hash: u64, root_hash: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(path);
        h.write_u64(defines_hash);
        h.write_u64(root_hash);
        h.finish()
    }

    /// Manifest payloads are modules ([`yalla_store::module`]): dep paths
    /// interned once, one fixed 12-byte row (`path StrRef`, `content
    /// hash u64`) per closure file, closure hash in a meta partition.
    /// [`ParseCache::probe_disk`] validates the rows straight off the
    /// store's payload view without materializing a single `String`.
    const MODULE_KIND: u8 = 1;
    const PART_DEPS: u8 = 1;
    const PART_META: u8 = 2;
    const DEP_ROW_SIZE: usize = 12;

    fn encode_manifest(deps: &[(String, u64)], closure_hash: u64) -> Vec<u8> {
        let mut m = ModuleBuilder::new(Self::MODULE_KIND);
        let mut rows = PartitionBuilder::fixed(Self::PART_DEPS, Self::DEP_ROW_SIZE);
        for (path, hash) in deps {
            let path = m.intern(path);
            let row = rows.row();
            row.put_u32(path.0);
            row.put_u64(*hash);
        }
        m.push(rows);
        let mut meta = PartitionBuilder::var(Self::PART_META);
        meta.row().put_varint(closure_hash);
        m.push(meta);
        m.finish()
    }

    /// Best-effort write of the manifest for `deps` if the store does not
    /// already hold one for this content (`contains` is a cheap stat).
    fn persist_manifest(
        &self,
        key: &(String, u64),
        root_hash: Option<u64>,
        deps: &[(String, u64)],
        closure_hash: u64,
    ) {
        let (Some(store), Some(root_hash)) = (&self.store, root_hash) else {
            return;
        };
        let disk_key = Self::manifest_key(&key.0, key.1, root_hash);
        if !store.contains(NS_PARSE, disk_key) {
            store.put(
                NS_PARSE,
                disk_key,
                &Self::encode_manifest(deps, closure_hash),
            );
        }
    }

    /// Validates the *on-disk* dependency manifest for `path` against the
    /// current file tree: returns the previous parse's closure hash when
    /// every file in the recorded include closure still has the same
    /// content hash. No TU is produced (ASTs are not persisted) — the
    /// session layer uses the recovered closure hash to address whole-run
    /// artifact bundles on disk. Returns `None` (with no side effects
    /// beyond the store's own hit/miss counters) when no store is
    /// attached, no manifest exists, or any dependency changed.
    pub fn probe_disk(&self, vfs: &Vfs, defines: &[(String, String)], path: &str) -> Option<u64> {
        let store = self.store.as_ref()?;
        let root_hash = vfs.hash_of(path)?;
        let key = Self::manifest_key(path, hash::hash_defines(defines), root_hash);
        let view = store.get_view(NS_PARSE, key)?;
        // Zero-copy validation: each dep row is read in place from the
        // record's payload view — no paths are copied out of the buffer.
        let m = ModuleReader::parse(&view).ok()?;
        if m.kind() != Self::MODULE_KIND {
            return None;
        }
        for row in m.part(Self::PART_DEPS)?.iter() {
            let dep = m.get(row.str_at(0).ok()?).ok()?;
            let hash = row.u64_at(4).ok()?;
            if vfs.hash_of(dep) != Some(hash) {
                return None;
            }
        }
        m.part(Self::PART_META)?.reader().get_varint().ok()
    }

    /// Evicts the least recently used version of `(path, defines)` when
    /// its history is full, and every version whose chain is not the most
    /// recent version's, so that a parse about to miss on it evicts
    /// nothing whatever chain it resolves to. Call it before scheduling
    /// the parse (a session does, in its warm pre-pass), so the old AST
    /// is freed while no other parse runs.
    pub fn make_room(&self, defines: &[(String, String)], path: &str) {
        let key = (path.to_string(), hash::hash_defines(defines));
        let evicted: Vec<Entry> = {
            let mut entries = self.entries.lock().expect("parse cache lock");
            let Some(versions) = entries.get_mut(&key) else {
                return;
            };
            let evicted = trim_history(versions, VERSIONS_PER_KEY - 1, CHAINS_PER_KEY - 1);
            evicted.iter().for_each(|e| self.retire(e));
            evicted
        };
        drop(evicted);
    }

    /// Number of cached TUs.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("parse cache lock").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().expect("parse cache lock").is_empty()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("parse cache lock");
        entries.values().flatten().for_each(|e| self.retire(e));
        entries.clear();
    }

    /// Counts `e`, as it enters the map, into this cache's resident
    /// estimate, and its chain's fragments into the pool's.
    fn admit(&self, e: &Entry) {
        self.resident.fetch_add(e.bytes, Ordering::Relaxed);
        add_resident(e.bytes);
        if let Some(chain) = &e.chain {
            self.pool.hold(chain);
        }
    }

    /// Counts `e` out of both again, as it leaves the map.
    fn retire(&self, e: &Entry) {
        self.resident.fetch_sub(e.bytes, Ordering::Relaxed);
        sub_resident(e.bytes);
        if let Some(chain) = &e.chain {
            self.pool.release(chain);
        }
    }

    /// Looks up `path` without parsing: returns the validated cached TU
    /// on a hit (counting it exactly as [`ParseCache::parse`] would), or
    /// `None` — with no metric side effects — when a parse would be
    /// needed. The session layer probes before building its stage DAG so
    /// a warm parse short-circuits scheduling entirely.
    pub fn probe(
        &self,
        vfs: &Vfs,
        defines: &[(String, String)],
        path: &str,
    ) -> Option<CachedParse> {
        let key = (path.to_string(), hash::hash_defines(defines));
        self.lookup_and_repair(&key, vfs)
    }

    /// The hit path plus disk-manifest repair: a memory hit whose
    /// manifest is missing on disk (evicted, or a failed earlier write)
    /// re-persists it, so disk warmth converges back toward memory
    /// warmth.
    fn lookup_and_repair(&self, key: &(String, u64), vfs: &Vfs) -> Option<CachedParse> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let (cached, deps) = {
            let mut entries = self.entries.lock().expect("parse cache lock");
            let cached = Self::lookup_valid(&mut entries, key, vfs, tick)?;
            // lookup_valid promoted the hit to versions[0].
            let deps = self.store.is_some().then(|| entries[key][0].deps.clone());
            (cached, deps)
        };
        if let Some(deps) = deps {
            self.persist_manifest(key, vfs.hash_of(&key.0), &deps, cached.closure_hash);
        }
        Some(cached)
    }

    /// The shared hit path: finds a validated version for `key`, promotes
    /// it to most-recently-used, and counts the hit.
    fn lookup_valid(
        entries: &mut HashMap<(String, u64), Vec<Entry>>,
        key: &(String, u64),
        vfs: &Vfs,
        tick: u64,
    ) -> Option<CachedParse> {
        let versions = entries.get_mut(key)?;
        let valid = versions
            .iter()
            .position(|entry| depfile_valid(&entry.deps, |dep| vfs.hash_of(dep)))?;
        // Most-recently-used first, so the history evicts the version
        // least likely to come back.
        let mut entry = versions.remove(valid);
        entry.stamp = tick;
        let cached = CachedParse {
            tu: Arc::clone(&entry.tu),
            closure_hash: entry.closure_hash,
            lookup: CacheLookup::Hit,
            chain: entry.chain.clone(),
        };
        versions.insert(0, entry);
        yalla_obs::count(yalla_obs::metrics::names::CACHE_HITS, 1);
        Some(cached)
    }

    /// Parses `path` against `vfs` with `defines`, reusing the cached TU
    /// when the whole include closure is byte-identical to the previous
    /// parse.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (which are never cached).
    pub fn parse(
        &self,
        vfs: &Vfs,
        defines: &[(String, String)],
        path: &str,
    ) -> Result<CachedParse> {
        let key = (path.to_string(), hash::hash_defines(defines));
        if let Some(cached) = self.lookup_and_repair(&key, vfs) {
            return Ok(cached);
        }
        // A version's chain is kept when the miss resolves the block to
        // the same fragments, with the symbol table it may already hold.
        let (stale, chains): (bool, Vec<Arc<Chain>>) = {
            let entries = self.entries.lock().expect("parse cache lock");
            let versions = entries.get(&key);
            let chains = versions.into_iter().flatten();
            (
                versions.is_some(),
                chains.filter_map(|e| e.chain.clone()).collect(),
            )
        };
        // Lock released: the parse itself runs unsynchronized, so cache
        // misses on different TUs overlap on the executor.
        yalla_obs::count(yalla_obs::metrics::names::CACHE_MISSES, 1);
        if stale {
            yalla_obs::count(yalla_obs::metrics::names::CACHE_INVALIDATIONS, 1);
        }

        let parsed = parse_with(vfs, defines, path, &self.pool)?;
        let chain = parsed.chain.map(|chain| {
            chains
                .into_iter()
                .find(|old| old.same_fragments(&chain))
                .unwrap_or_else(|| Arc::new(chain))
        });
        let tu = Arc::new(parsed.tu);

        let deps = depfile(vfs, &tu);
        let mut closure = Fnv64::new();
        closure.write_str(path);
        closure.write_u64(key.1);
        for (dep_path, dep_hash) in &deps {
            closure.write_str(dep_path);
            closure.write_u64(*dep_hash);
        }
        let closure_hash = closure.finish();
        self.persist_manifest(&key, vfs.hash_of(path), &deps, closure_hash);
        let chain_lines = chain.as_ref().map_or(0, |c| c.lines());
        let bytes = 256 + approx_bytes(tu.stats.lines_compiled - chain_lines, &deps);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        // Replaced and evicted entries leave the map under the lock but are
        // dropped after it is released.
        let (replaced, spilled) = {
            let mut entries = self.entries.lock().expect("parse cache lock");
            let versions = entries.entry(key).or_default();
            let (mut replaced, kept): (Vec<Entry>, Vec<Entry>) = std::mem::take(versions)
                .into_iter()
                .partition(|e| e.closure_hash == closure_hash);
            *versions = kept;
            let entry = Entry {
                deps,
                closure_hash,
                tu: Arc::clone(&tu),
                chain: chain.clone(),
                bytes,
                stamp,
            };
            self.admit(&entry);
            versions.insert(0, entry);
            replaced.extend(trim_history(versions, VERSIONS_PER_KEY, CHAINS_PER_KEY));
            replaced.iter().for_each(|e| self.retire(e));
            let spilled = match self.effective_budget() {
                Some(budget) => self.enforce_budget(&mut entries, budget, stamp),
                None => Vec::new(),
            };
            (replaced, spilled)
        };
        drop(replaced);
        // Spill outside the map lock: each evicted entry's dependency
        // manifest is (re-)persisted to the store tier, so the record
        // round-trips — a later probe_disk recovers the closure hash and
        // the run-bundle tier rebuilds the artifacts without a cold parse.
        if !spilled.is_empty() {
            yalla_obs::count(
                yalla_obs::metrics::names::CACHE_EVICTIONS,
                spilled.len() as i64,
            );
            for (key, e) in &spilled {
                let root_hash = e.deps.first().map_or(0, |d| d.1);
                self.persist_manifest(key, Some(root_hash), &e.deps, e.closure_hash);
            }
        }
        Ok(CachedParse {
            tu,
            closure_hash,
            lookup: if stale {
                CacheLookup::Invalidated
            } else {
                CacheLookup::Miss
            },
            chain,
        })
    }

    /// Evicts least-recently-used entries (never the one stamped
    /// `keep_stamp`, so the insert that triggered enforcement always
    /// survives — a cache smaller than one TU still makes progress)
    /// until [`ParseCache::resident_bytes`] fits `budget`: an evicted
    /// entry takes its own bytes with it, and those of every fragment no
    /// other entry holds. Returns the evicted entries with their keys,
    /// for the caller to persist their manifests and drop them after the
    /// lock is released.
    fn enforce_budget(
        &self,
        entries: &mut HashMap<(String, u64), Vec<Entry>>,
        budget: u64,
        keep_stamp: u64,
    ) -> Vec<((String, u64), Entry)> {
        let mut spilled = Vec::new();
        while self.resident_bytes() > budget {
            let victim = entries
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(move |e| (e.stamp, k)))
                .filter(|&(stamp, _)| stamp != keep_stamp)
                .min_by_key(|&(stamp, _)| stamp)
                .map(|(stamp, k)| (stamp, k.clone()));
            let Some((stamp, key)) = victim else {
                break;
            };
            let versions = entries.get_mut(&key).expect("victim key present");
            let idx = versions
                .iter()
                .position(|e| e.stamp == stamp)
                .expect("victim version present");
            let e = versions.remove(idx);
            if versions.is_empty() {
                entries.remove(&key);
            }
            self.retire(&e);
            spilled.push((key, e));
        }
        spilled
    }
}

impl Drop for ParseCache {
    /// Returns this cache's resident estimate to the process-wide gauge,
    /// and its entries' hold on their fragments to the pool (serve shards
    /// come and go; neither count may leak their bytes).
    fn drop(&mut self) {
        let entries = std::mem::take(self.entries.get_mut().unwrap_or_else(|e| e.into_inner()));
        entries.values().flatten().for_each(|e| self.retire(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", "#pragma once\nnamespace l { class C; }\n");
        vfs.add_file("other.hpp", "#pragma once\nint unrelated;\n");
        vfs.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
        vfs
    }

    #[test]
    fn second_parse_is_a_hit_sharing_the_ast() {
        let v = vfs();
        let cache = ParseCache::new();
        let a = cache.parse(&v, &[], "main.cpp").unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(a.lookup, CacheLookup::Miss);
        assert_eq!(b.lookup, CacheLookup::Hit);
        assert!(Arc::ptr_eq(&a.tu, &b.tu));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn editing_a_dependency_invalidates() {
        let mut v = vfs();
        let cache = ParseCache::new();
        let a = cache.parse(&v, &[], "main.cpp").unwrap();
        v.apply_edit(
            "lib.hpp",
            "#pragma once\nnamespace l { class C; class D; }\n",
        )
        .unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Invalidated);
        assert_ne!(a.closure_hash, b.closure_hash);
        // Reverting restores the original closure hash and re-hits the
        // version cached before the edit — no reparse.
        v.apply_edit("lib.hpp", "#pragma once\nnamespace l { class C; }\n")
            .unwrap();
        let c = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(c.lookup, CacheLookup::Hit);
        assert_eq!(a.closure_hash, c.closure_hash);
        assert!(Arc::ptr_eq(&a.tu, &c.tu));
    }

    fn versions(cache: &ParseCache) -> usize {
        cache.entries.lock().unwrap()[&("main.cpp".to_string(), hash::hash_defines(&[]))].len()
    }

    #[test]
    fn version_history_is_bounded() {
        let mut v = vfs();
        let cache = ParseCache::new();
        // Main-file edits share one chain: the history holds the last
        // VERSIONS_PER_KEY of them.
        for i in 0..10 {
            v.apply_edit("main.cpp", format!("#include \"lib.hpp\"\nint y{i};\n"))
                .unwrap();
            cache.parse(&v, &[], "main.cpp").unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(versions(&cache), VERSIONS_PER_KEY);
        // Each header edit brings a chain of its own: the history holds
        // the last CHAINS_PER_KEY of them.
        for i in 0..10 {
            v.apply_edit("lib.hpp", format!("#pragma once\nint v{i};\n"))
                .unwrap();
            cache.parse(&v, &[], "main.cpp").unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(versions(&cache), CHAINS_PER_KEY);
        // The most recent content is still a hit...
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        // ...and re-caching identical content does not duplicate it.
        assert_eq!(versions(&cache), CHAINS_PER_KEY);
        // Reverting the last header edit re-hits the version it replaced.
        v.apply_edit("lib.hpp", "#pragma once\nint v8;\n").unwrap();
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
    }

    #[test]
    fn make_room_keeps_only_the_newest_versions_chain() {
        let mut v = vfs();
        let cache = ParseCache::new();
        let old = Arc::downgrade(&cache.parse(&v, &[], "main.cpp").unwrap().chain.unwrap());
        v.apply_edit("main.cpp", "#include \"lib.hpp\"\nint y2;\n")
            .unwrap();
        cache.parse(&v, &[], "main.cpp").unwrap();
        v.apply_edit("lib.hpp", "#pragma once\nint edited;\n")
            .unwrap();
        let new = cache.parse(&v, &[], "main.cpp").unwrap().chain.unwrap();
        assert_eq!(versions(&cache), 3);
        v.apply_edit("main.cpp", "#include \"lib.hpp\"\nint y3;\n")
            .unwrap();
        cache.make_room(&[], "main.cpp");
        // The two versions of the replaced header are gone, their chain
        // with them; the newest version stays, whatever the miss brings.
        assert_eq!(versions(&cache), 1);
        assert!(old.upgrade().is_none(), "the old chain is freed");
        assert!(Arc::ptr_eq(
            &cache.parse(&v, &[], "main.cpp").unwrap().chain.unwrap(),
            &new
        ));
        assert_eq!(versions(&cache), 2);
    }

    #[test]
    fn editing_an_unreached_file_keeps_the_hit() {
        let mut v = vfs();
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        v.apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Hit);
    }

    #[test]
    fn defines_partition_the_cache() {
        let v = vfs();
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        let defined = vec![("MODE".to_string(), "2".to_string())];
        let b = cache.parse(&v, &defined, "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Miss);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_tus_cache_independently() {
        let mut v = vfs();
        v.add_file("second.cpp", "#include \"other.hpp\"\nint z;\n");
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        cache.parse(&v, &[], "second.cpp").unwrap();
        // Editing other.hpp touches only second.cpp's closure.
        v.apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        assert_eq!(
            cache.parse(&v, &[], "second.cpp").unwrap().lookup,
            CacheLookup::Invalidated
        );
    }

    #[test]
    fn concurrent_parses_share_one_cache() {
        // 8 threads × 2 TUs through one &self cache: every thread gets a
        // correct TU, and at the end each TU re-hits.
        let mut v = vfs();
        v.add_file("second.cpp", "#include \"other.hpp\"\nint z;\n");
        let cache = ParseCache::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let v = &v;
                scope.spawn(move || {
                    let path = if t % 2 == 0 { "main.cpp" } else { "second.cpp" };
                    for _ in 0..4 {
                        cache.parse(v, &[], path).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        assert!(cache.parse(&v, &[], "second.cpp").unwrap().lookup.is_hit());
    }

    #[test]
    fn disk_manifest_probe_survives_process_restart() {
        let dir =
            std::env::temp_dir().join(format!("yalla-parsecache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let v = vfs();
        let cache = ParseCache::with_store(Some(Arc::clone(&store)));
        let parsed = cache.parse(&v, &[], "main.cpp").unwrap();

        // A fresh cache on the same store (a restarted process): the
        // memory tier is cold, but the disk manifest validates and
        // recovers the closure hash without parsing anything.
        let fresh = ParseCache::with_store(Some(Arc::clone(&store)));
        assert!(fresh.probe(&v, &[], "main.cpp").is_none());
        assert_eq!(
            fresh.probe_disk(&v, &[], "main.cpp"),
            Some(parsed.closure_hash)
        );

        // Editing a file in the closure defeats the manifest; editing an
        // unreached file does not.
        let mut edited = v.clone();
        edited
            .apply_edit("lib.hpp", "#pragma once\nnamespace l { class X; }\n")
            .unwrap();
        assert_eq!(fresh.probe_disk(&edited, &[], "main.cpp"), None);
        let mut unrelated = v.clone();
        unrelated
            .apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        assert_eq!(
            fresh.probe_disk(&unrelated, &[], "main.cpp"),
            Some(parsed.closure_hash)
        );

        // Without a store, probe_disk is inert.
        assert_eq!(ParseCache::new().probe_disk(&v, &[], "main.cpp"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_budget_suffixes_parse() {
        assert_eq!(parse_mem_budget("1048576"), Ok(1 << 20));
        assert_eq!(parse_mem_budget("512k"), Ok(512 << 10));
        assert_eq!(parse_mem_budget("64M"), Ok(64 << 20));
        assert_eq!(parse_mem_budget(" 2G "), Ok(2 << 30));
        assert_eq!(parse_mem_budget("0"), Ok(0));
        assert!(parse_mem_budget("").is_err());
        assert!(parse_mem_budget("lots").is_err());
        assert!(parse_mem_budget("99999999999G").is_err());
    }

    #[test]
    fn tiny_budget_evicts_lru_and_reparses_correctly() {
        let mut v = vfs();
        for i in 0..6 {
            v.add_file(
                &format!("tu{i}.cpp"),
                format!("#include \"lib.hpp\"\nint t{i};\n"),
            );
        }
        // A budget of one byte: after every insert, everything except the
        // newest entry is evicted.
        let cache = ParseCache::with_budget(None, Some(1));
        for i in 0..6 {
            cache.parse(&v, &[], &format!("tu{i}.cpp")).unwrap();
        }
        assert_eq!(cache.len(), 1, "only the newest TU survives");
        assert!(cache.resident_bytes() > 0);
        // Evicted TUs reparse as misses (not stale invalidations), and the
        // result is identical to the original parse.
        let again = cache.parse(&v, &[], "tu0.cpp").unwrap();
        assert_eq!(again.lookup, CacheLookup::Miss);
        // Unbounded cache on the same inputs agrees on the closure hash.
        let free = ParseCache::with_budget(None, None);
        assert_eq!(
            free.parse(&v, &[], "tu0.cpp").unwrap().closure_hash,
            again.closure_hash
        );
    }

    #[test]
    fn make_room_frees_the_version_the_next_miss_would_evict() {
        let mut v = vfs();
        let cache = ParseCache::new();
        let text = |i: usize| format!("#include \"lib.hpp\"\nint y{i};\n");
        let mut versions = Vec::new();
        for i in 0..VERSIONS_PER_KEY {
            v.apply_edit("main.cpp", text(i)).unwrap();
            versions.push(Arc::downgrade(
                &cache.parse(&v, &[], "main.cpp").unwrap().tu,
            ));
        }
        v.apply_edit("main.cpp", text(VERSIONS_PER_KEY)).unwrap();
        cache.make_room(&[], "main.cpp");
        assert!(versions[0].upgrade().is_none(), "oldest version freed");
        assert!(versions[1..].iter().all(|w| w.upgrade().is_some()));
        let resident = cache.resident_bytes();
        cache.parse(&v, &[], "main.cpp").unwrap();
        assert!(
            cache.resident_bytes() > resident,
            "the miss evicted nothing"
        );
        for i in 1..=VERSIONS_PER_KEY {
            v.apply_edit("main.cpp", text(i)).unwrap();
            assert_eq!(
                cache.parse(&v, &[], "main.cpp").unwrap().lookup,
                CacheLookup::Hit
            );
        }
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let mut v = vfs();
        v.add_file("a.cpp", "#include \"lib.hpp\"\nint a;\n");
        v.add_file("b.cpp", "#include \"lib.hpp\"\nint b;\n");
        // Size the budget from the real estimates: exactly two of these
        // near-identical TUs fit, a third overflows by well under the
        // 64-byte margin's complement.
        let sizer = ParseCache::with_budget(None, None);
        sizer.parse(&v, &[], "a.cpp").unwrap();
        sizer.parse(&v, &[], "b.cpp").unwrap();
        let budget = sizer.resident_bytes() + 64;
        let bounded = ParseCache::with_budget(None, Some(budget));
        bounded.parse(&v, &[], "a.cpp").unwrap();
        bounded.parse(&v, &[], "b.cpp").unwrap();
        // Touch a so b becomes the LRU victim when main.cpp arrives.
        assert!(bounded.probe(&v, &[], "a.cpp").is_some());
        bounded.parse(&v, &[], "main.cpp").unwrap();
        assert!(
            bounded.probe(&v, &[], "a.cpp").is_some(),
            "recently used survives"
        );
        assert!(
            bounded.probe(&v, &[], "b.cpp").is_none(),
            "LRU entry evicted"
        );
    }

    #[test]
    fn a_shared_fragment_counts_once_after_the_entry_that_built_it_is_evicted() {
        let mut v = vfs();
        v.add_file("b.cpp", "#include \"lib.hpp\"\nint b;\n");
        // Room for one of the two near-identical TUs and the fragment of
        // `lib.hpp` they share, not for both TUs.
        let sizer = ParseCache::with_budget(None, None);
        sizer.parse(&v, &[], "main.cpp").unwrap();
        let fragment = sizer.pool().bytes();
        assert!(fragment > 0);
        let bounded = ParseCache::with_budget(None, Some(sizer.resident_bytes() + 16));
        let builder = bounded.parse(&v, &[], "main.cpp").unwrap();
        let lib = Arc::downgrade(&builder.chain.as_ref().expect("a chain").fragments()[0]);
        drop(builder);
        assert_eq!(bounded.pool().bytes(), fragment);
        // `b.cpp` reuses the fragment, and its insert evicts `main.cpp`,
        // whose parse built it.
        bounded.parse(&v, &[], "b.cpp").unwrap();
        assert!(bounded.probe(&v, &[], "main.cpp").is_none());
        assert_eq!(bounded.len(), 1);
        // The fragment lives on in `b.cpp`'s chain, and still counts.
        assert!(lib.upgrade().is_some());
        assert_eq!(bounded.pool().bytes(), fragment);
        assert!(bounded.resident_bytes() > fragment);
        assert!(bounded.resident_bytes() <= sizer.resident_bytes() + 16);
        // With its last holder it leaves the count.
        bounded.clear();
        assert!(lib.upgrade().is_none());
        assert_eq!(bounded.resident_bytes(), 0);
    }

    #[test]
    fn evicted_entries_spill_manifests_to_the_store() {
        let dir =
            std::env::temp_dir().join(format!("yalla-parsecache-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let mut v = vfs();
        for i in 0..4 {
            v.add_file(
                &format!("tu{i}.cpp"),
                format!("#include \"lib.hpp\"\nint t{i};\n"),
            );
        }
        let cache = ParseCache::with_budget(Some(Arc::clone(&store)), Some(1));
        let mut hashes = Vec::new();
        for i in 0..4 {
            hashes.push(
                cache
                    .parse(&v, &[], &format!("tu{i}.cpp"))
                    .unwrap()
                    .closure_hash,
            );
        }
        // Every evicted TU's manifest round-trips: a fresh cache on the
        // same store recovers each closure hash from disk alone.
        let fresh = ParseCache::with_store(Some(store));
        for (i, expect) in hashes.iter().enumerate() {
            assert_eq!(
                fresh.probe_disk(&v, &[], &format!("tu{i}.cpp")),
                Some(*expect),
                "spilled manifest for tu{i}.cpp must validate from disk"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_not_cached() {
        let mut v = Vfs::new();
        v.add_file("bad.cpp", "#include \"missing.hpp\"\n");
        let cache = ParseCache::new();
        assert!(cache.parse(&v, &[], "bad.cpp").is_err());
        assert!(cache.is_empty());
        // Adding the header makes it parse (a miss, not a stale error).
        v.add_file("missing.hpp", "int ok;\n");
        let ok = cache.parse(&v, &[], "bad.cpp").unwrap();
        assert_eq!(ok.lookup, CacheLookup::Miss);
    }
}
