//! Include fragments: what each `#include` of a main file's leading
//! directive block, and each reach of the header unit, preprocessed and
//! parsed to, shared by every parse in the same state, so that a parse
//! re-processes only the includes whose inputs changed and the rest of
//! the main file.
//!
//! A main source is a short body under a long `#include` block, and the
//! block expands to nearly every line the TU holds; a project's TUs
//! mostly start with the same expensive header. clangd keeps one
//! snapshot of the whole block per file (its *preamble*) and a C++ module
//! builds a header's declarations once for every importer; here the unit
//! is one directive of the block, and a [`Fragment`] holds:
//!
//! * what the preprocessor produced for it ([`crate::pp`]): the macro
//!   table after it, the `#pragma once` entries it read and added, its
//!   own share of the [`crate::pp::PpStats`], the line of its last token
//!   and how deep it nested;
//! * the top-level declarations its tokens parse to on their own, and
//!   the parser's lambda counter after them;
//! * the symbol table of those declarations, built on first use
//!   ([`Fragment::table`]).
//!
//! **Key.** A fragment is found by the macro table it was processed
//! with (the predefined macros included), the lambda counter and the
//! directive's resolved target file, digested when it is looked up. The
//! tokens an include delivers depend on nothing else but the files it
//! reads and the `#pragma once` set: the preprocessor expands a file's
//! pending tokens before it leaves it, and the main file's block holds
//! no tokens of its own.
//!
//! **Validity.** A key may hold several fragments, most recent first; a
//! lookup takes the first that fits the current state: every file it
//! entered keeps its file id and recorded content hash (the rule of
//! [`crate::cache`]), every file it looked up in the `#pragma once` set
//! gets the same answer, and its nesting still fits under the
//! include-depth limit. A replay adds its `#pragma once` entries to the
//! current set.
//!
//! **Header units.** A pool may name one file, the session's substituted
//! header, as its header unit ([`FragmentPool::with_unit`]). Wherever a
//! fragment being built reaches the unit's `#include` before delivering
//! any token, at any include depth, the unit becomes a fragment of its
//! own, found and built like a block include, and the enclosing fragment
//! holds it ([`Fragment::unit`]) and starts with its declarations.
//! Anywhere else the include stays inline. So `Kokkos_Core.hpp` reached
//! through a kernel's `functor.hpp` and included directly by the wrappers
//! TU is one fragment: its `#pragma once` reads name only its own files.
//!
//! **Pool.** A [`FragmentPool`] holds every fragment of one session by
//! `Weak` reference, so a fragment lives as long as the parse-cache
//! versions whose [`Chain`] holds it, or a fragment that holds it as its
//! unit. The pool also counts the estimated bytes of the fragments that
//! parse-cache entries hold: a fragment's bytes join the count with the
//! first entry that holds it and leave with the last
//! (`FragmentPool::hold`, `FragmentPool::release`), so a fragment shared
//! by many TUs counts once against a parse cache's byte budget,
//! whichever entries hold it. A parse of a main file
//! ([`crate::frontend::parse_with`]) looks each include of the block up
//! in the pool and builds (and shares) only those that miss, so an edit
//! to a header reprocesses the fragments that entered it, and every
//! other root that includes the same header in the same state reuses the
//! first one's rebuild. A check that only needs a TU's verdict
//! ([`crate::frontend::check_with`]) reads the pool the same way but
//! builds no fragment, since nothing would hold it. When a fragment's
//! tokens do not parse on their own (a header that leaves a namespace
//! open for the main file to close), the TU is parsed from scratch
//! instead, and its result is the same either way: the same AST,
//! statistics and error.
//!
//! **Symbol tables.** A fragment's table extends its unit's, and a TU's
//! [`Chain`] owns the table of its fragments' declarations, which extends
//! the first fragment's, so every TU whose block starts with the same
//! header in the same state walks that header's declarations once, and
//! an edit to a header that holds the unit walks only its own.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

use yalla_obs::metrics::names;

use crate::ast::Decl;
use crate::cache::{add_resident, approx_bytes, depfile_of, sub_resident};
use crate::hash::Fnv64;
use crate::pp::IncludeEffect;
use crate::symbols::SymbolTable;
use crate::vfs::Vfs;

/// One `#include` of a main file's leading block, or of the header
/// unit, preprocessed and parsed. Built by
/// [`crate::frontend::parse_with`]; immutable and shared behind an `Arc`
/// by every TU that reaches the same include in the same state.
#[derive(Debug)]
pub struct Fragment {
    /// `(path, content hash)` of every file the include entered, in
    /// first-entry order (`pp.stats.files_entered`).
    deps: Vec<(String, u64)>,
    /// What the preprocessor did, the unit's share included.
    pub(crate) pp: IncludeEffect,
    /// The header unit the include reached before any token of its own,
    /// whose declarations come first.
    unit: Option<Arc<Fragment>>,
    /// The top-level declarations its own tokens parsed to (after the
    /// unit's).
    decls: Vec<Decl>,
    /// The parser's lambda counter after them.
    pub(crate) lambda_counter: u32,
    /// The symbol table of its declarations, built on first use.
    table: OnceLock<Arc<SymbolTable>>,
    /// Estimated bytes ([`approx_bytes`]) of what the unit does not hold.
    bytes: u64,
    /// Parse-cache entries holding it; changed under its pool's lock.
    holders: AtomicUsize,
}

/// The pool key of an include of `target` processed with the macro table
/// digested to `macros` ([`crate::pp::Preprocessor`]) after top-level
/// declarations that left the lambda counter at `lambda_counter`.
pub(crate) fn fragment_key(macros: u64, lambda_counter: u32, target: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(macros);
    h.write_u64(u64::from(lambda_counter));
    h.write_str(target);
    h.finish()
}

impl Fragment {
    pub(crate) fn new(
        vfs: &Vfs,
        pp: IncludeEffect,
        unit: Option<Arc<Fragment>>,
        decls: Vec<Decl>,
        lambda_counter: u32,
    ) -> Fragment {
        let deps = depfile_of(vfs, &pp.stats.files_entered);
        let own_lines = pp.stats.lines_compiled - unit.as_ref().map_or(0, |u| u.lines());
        Fragment {
            bytes: approx_bytes(own_lines, &deps),
            deps,
            pp,
            unit,
            decls,
            lambda_counter,
            table: OnceLock::new(),
            holders: AtomicUsize::new(0),
        }
    }

    /// True while every file the include entered keeps its file id and
    /// content hash in `vfs`.
    pub fn is_valid(&self, vfs: &Vfs) -> bool {
        self.pp
            .stats
            .files_entered
            .iter()
            .zip(&self.deps)
            .all(|(&id, (path, hash))| {
                (id.0 as usize) < vfs.len() && vfs.path(id) == path && vfs.file_hash(id) == *hash
            })
    }

    /// The header unit the include starts with, if any.
    pub fn unit(&self) -> Option<&Arc<Fragment>> {
        self.unit.as_ref()
    }

    /// The top-level declarations the include parsed to: the unit's, then
    /// its own.
    pub fn decls(&self) -> impl Iterator<Item = &Decl> {
        self.unit
            .iter()
            .flat_map(|u| u.decls.iter())
            .chain(&self.decls)
    }

    /// Number of [`Fragment::decls`].
    pub fn decl_count(&self) -> usize {
        self.unit.as_ref().map_or(0, |u| u.decls.len()) + self.decls.len()
    }

    /// Active lines the include delivered.
    pub fn lines(&self) -> usize {
        self.pp.stats.lines_compiled
    }

    /// The symbol table of [`Fragment::decls`]: the unit's table extended
    /// with its own declarations, built by the first caller and shared
    /// with every later one, which counts `analysis.symtab_reused`.
    pub fn table(&self) -> Arc<SymbolTable> {
        extended_table(&self.table, self.unit.as_deref(), || {
            Cow::Borrowed(&self.decls)
        })
    }

    /// The fragment and its unit.
    fn parts(self: &Arc<Self>) -> impl Iterator<Item = &Arc<Fragment>> {
        std::iter::once(self).chain(&self.unit)
    }
}

/// `cell`'s table: the table of `first`'s declarations extended with
/// `rest` ([`SymbolTable::extend`]), or `first`'s own table when `rest`
/// is empty, or the table of `rest` alone without a `first`. It is built
/// by the first caller and shared with every later one, which counts
/// `analysis.symtab_reused`; so is `first`'s.
fn extended_table<'d>(
    cell: &OnceLock<Arc<SymbolTable>>,
    first: Option<&Fragment>,
    rest: impl FnOnce() -> Cow<'d, [Decl]>,
) -> Arc<SymbolTable> {
    let mut built = false;
    let table = cell.get_or_init(|| {
        built = true;
        let rest = rest();
        Arc::new(match first {
            Some(first) if rest.is_empty() => return first.table(),
            Some(first) => SymbolTable::extend(&first.table(), &rest),
            None => SymbolTable::from_decls(&rest),
        })
    });
    if !built {
        yalla_obs::count(names::SYMTAB_REUSED, 1);
    }
    Arc::clone(table)
}

/// The fragments of one TU's leading block, in order, and the symbol
/// table of their declarations: the first [`Chain::decls`] top-level
/// declarations of the TU. A parse cache keeps one per version, shared by
/// the versions whose blocks resolved to the same fragments.
#[derive(Debug)]
pub struct Chain {
    fragments: Vec<Arc<Fragment>>,
    table: OnceLock<Arc<SymbolTable>>,
}

impl Chain {
    /// The chain of `fragments`; `None` when there are none.
    pub(crate) fn new(fragments: Vec<Arc<Fragment>>) -> Option<Chain> {
        (!fragments.is_empty()).then(|| Chain {
            fragments,
            table: OnceLock::new(),
        })
    }

    /// The fragments, in block order.
    pub fn fragments(&self) -> &[Arc<Fragment>] {
        &self.fragments
    }

    /// Number of the TU's top-level declarations the fragments hold.
    pub fn decls(&self) -> usize {
        self.fragments.iter().map(|f| f.decl_count()).sum()
    }

    /// Active lines of the TU the fragments delivered.
    pub fn lines(&self) -> usize {
        self.fragments.iter().map(|f| f.lines()).sum()
    }

    /// True when `other` holds the very same fragments.
    pub(crate) fn same_fragments(&self, other: &Chain) -> bool {
        self.fragments.len() == other.fragments.len()
            && self
                .fragments
                .iter()
                .zip(&other.fragments)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The symbol table of the fragments' declarations: the first
    /// fragment's table ([`Fragment::table`]) extended with the others'
    /// declarations, as a fragment's extends its unit's. Extend it with
    /// the rest of a TU's declarations ([`SymbolTable::extend`]) for that
    /// TU's table.
    pub fn table(&self) -> Arc<SymbolTable> {
        let (first, rest) = self
            .fragments
            .split_first()
            .expect("a chain is never empty");
        extended_table(&self.table, Some(first), || {
            Cow::Owned(rest.iter().flat_map(|f| f.decls().cloned()).collect())
        })
    }
}

/// Every fragment of a session, by `Weak` reference, under its key.
/// Internally synchronized: concurrent parses of different roots share
/// one pool. While one parse builds a fragment, another parse looking up
/// the same key waits for it instead of building it too.
#[derive(Debug, Default)]
pub struct FragmentPool {
    state: Mutex<PoolState>,
    built: Condvar,
    /// The path of the header unit.
    unit: Option<String>,
}

#[derive(Debug, Default)]
struct PoolState {
    /// Fragments by key, most recent first.
    fragments: HashMap<u64, Vec<Weak<Fragment>>>,
    /// Keys a parse is building a fragment for.
    building: Vec<u64>,
    /// Estimated bytes of the fragments parse-cache entries hold.
    held_bytes: u64,
}

/// How a pool lookup resolved.
#[derive(Debug)]
pub(crate) enum Lookup<'p> {
    /// A valid fragment.
    Hit(Arc<Fragment>),
    /// None: build it, and hand it to the ticket so that parses waiting
    /// for the key see it.
    Miss(Ticket<'p>),
}

/// The right to build the fragment of one key; dropping it without
/// [`Ticket::insert`] lets the next waiter build it.
#[derive(Debug)]
pub(crate) struct Ticket<'p> {
    pool: &'p FragmentPool,
    key: u64,
}

impl Ticket<'_> {
    /// Adds `fragment` to the pool.
    pub(crate) fn insert(self, fragment: &Arc<Fragment>) {
        let mut state = self.pool.lock();
        let versions = state.fragments.entry(self.key).or_default();
        versions.retain(|w| w.strong_count() > 0);
        versions.insert(0, Arc::downgrade(fragment));
        // Keys whose fragments all died leave the map on the way.
        if state.fragments.len() > 64 && state.fragments.len().is_power_of_two() {
            state
                .fragments
                .retain(|_, v| v.iter().any(|w| w.strong_count() > 0));
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        // No panic in a drop: a poisoned lock is taken over, since
        // removing the key leaves the state valid whatever the panic
        // interrupted.
        let mut state = self.pool.state.lock().unwrap_or_else(|e| e.into_inner());
        state.building.retain(|&k| k != self.key);
        drop(state);
        self.pool.built.notify_all();
    }
}

impl FragmentPool {
    /// An empty pool.
    pub fn new() -> Self {
        FragmentPool::default()
    }

    /// An empty pool whose parses make the file at `path` a header unit:
    /// an include fragment of its own wherever an include fragment being
    /// built reaches it before delivering any token.
    pub fn with_unit(path: impl Into<String>) -> Self {
        FragmentPool {
            unit: Some(path.into()),
            ..FragmentPool::default()
        }
    }

    /// The path of the header unit, if any.
    pub fn unit(&self) -> Option<&str> {
        self.unit.as_deref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().expect("fragment pool lock")
    }

    /// Number of fragments alive.
    pub fn len(&self) -> usize {
        self.lock()
            .fragments
            .values()
            .flatten()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// True when no fragment is alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes of the fragments that parse-cache entries hold,
    /// each counted once ([`crate::cache::ParseCache::resident_bytes`]
    /// counts them).
    pub fn bytes(&self) -> u64 {
        self.lock().held_bytes
    }

    /// Counts `chain`'s fragments as held by one more parse-cache entry:
    /// a fragment's bytes join the pool's count, and the process-wide
    /// resident gauge, with its first holder.
    pub(crate) fn hold(&self, chain: &Chain) {
        let mut state = self.lock();
        for f in chain.fragments.iter().flat_map(Fragment::parts) {
            if f.holders.fetch_add(1, Ordering::Relaxed) == 0 {
                state.held_bytes += f.bytes;
                add_resident(f.bytes);
            }
        }
    }

    /// Counts `chain`'s fragments as held by one entry fewer: a
    /// fragment's bytes leave the counts with its last holder.
    pub(crate) fn release(&self, chain: &Chain) {
        let mut state = self.lock();
        for f in chain.fragments.iter().flat_map(Fragment::parts) {
            if f.holders.fetch_sub(1, Ordering::Relaxed) == 1 {
                state.held_bytes -= f.bytes;
                sub_resident(f.bytes);
            }
        }
    }

    /// The most recent fragment of `key` that `fits`. A key another
    /// parse is building is waited for, and a miss returns the ticket to
    /// build it.
    pub(crate) fn lookup(&self, key: u64, fits: impl Fn(&Fragment) -> bool) -> Lookup<'_> {
        let mut state = self.lock();
        loop {
            let found = state
                .fragments
                .get(&key)
                .into_iter()
                .flatten()
                .filter_map(Weak::upgrade)
                .find(|f| fits(f));
            if let Some(fragment) = found {
                yalla_obs::count(names::FRAGMENTS_REUSED, 1);
                return Lookup::Hit(fragment);
            }
            if !state.building.contains(&key) {
                state.building.push(key);
                return Lookup::Miss(Ticket { pool: self, key });
            }
            state = self.built.wait(state).expect("fragment pool lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_with;

    fn vfs() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.add_file("a.hpp", "#pragma once\nnamespace a { int x; }\n");
        vfs.add_file("b.hpp", "#pragma once\nint b;\n");
        vfs.add_file("m.cpp", "#include \"a.hpp\"\n#include \"b.hpp\"\nint y;\n");
        vfs.add_file("n.cpp", "#include \"a.hpp\"\nint z;\n");
        vfs
    }

    #[test]
    fn roots_share_the_fragment_of_a_common_include() {
        let vfs = vfs();
        let pool = FragmentPool::new();
        let m = parse_with(&vfs, &[], "m.cpp", &pool).unwrap();
        let n = parse_with(&vfs, &[], "n.cpp", &pool).unwrap();
        let (m, n) = (m.chain.unwrap(), n.chain.unwrap());
        assert_eq!(m.fragments().len(), 2);
        assert!(Arc::ptr_eq(&m.fragments()[0], &n.fragments()[0]));
        assert_eq!(n.decls(), 1);
        // The pool holds them only while a chain does.
        assert_eq!(pool.len(), 2);
        drop((m, n));
        assert!(pool.is_empty());
    }

    #[test]
    fn a_fragment_is_valid_only_over_its_own_files() {
        let mut vfs = vfs();
        let pool = FragmentPool::new();
        let chain = parse_with(&vfs, &[], "m.cpp", &pool)
            .unwrap()
            .chain
            .unwrap();
        let [a, b] = chain.fragments() else {
            panic!("two fragments")
        };
        vfs.apply_edit("m.cpp", "#include \"a.hpp\"\nint changed;\n")
            .unwrap();
        assert!(a.is_valid(&vfs) && b.is_valid(&vfs));
        vfs.apply_edit("b.hpp", "#pragma once\nint b2;\n").unwrap();
        assert!(a.is_valid(&vfs) && !b.is_valid(&vfs));
        // Another tree that maps a path to another id does not fit.
        let mut other = Vfs::new();
        other.add_file("b.hpp", "#pragma once\nint b;\n");
        other.add_file("a.hpp", "#pragma once\nnamespace a { int x; }\n");
        assert!(!a.is_valid(&other));
    }

    #[test]
    fn concurrent_roots_build_a_shared_fragment_once() {
        // Each root includes `a.hpp` directly, or first thing in a header
        // of its own with `a.hpp` as the pool's header unit.
        for nested in [false, true] {
            let mut vfs = vfs();
            let roots: Vec<String> = (0..6).map(|i| format!("r{i}.cpp")).collect();
            for (i, root) in roots.iter().enumerate() {
                let mut include = "a.hpp".to_string();
                if nested {
                    include = format!("w{i}.hpp");
                    let text = format!("#pragma once\n#include \"a.hpp\"\nint w{i};\n");
                    vfs.add_file(&include, text);
                }
                vfs.add_file(root, format!("#include \"{include}\"\nint r{i};\n"));
            }
            let pool = match nested {
                true => FragmentPool::with_unit("a.hpp"),
                false => FragmentPool::new(),
            };
            let barrier = std::sync::Barrier::new(roots.len());
            let chains: Vec<Chain> = std::thread::scope(|scope| {
                let handles: Vec<_> = roots
                    .iter()
                    .map(|root| {
                        let (vfs, pool, barrier) = (&vfs, &pool, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            parse_with(vfs, &[], root, pool).unwrap().chain.unwrap()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("parse thread"))
                    .collect()
            });
            // Whichever root reached the key first built the fragment;
            // every other one waited for it or found it.
            let shared = |c: &Chain| {
                let first = &c.fragments()[0];
                Arc::clone(first.unit().unwrap_or(first))
            };
            let first = shared(&chains[0]);
            assert!(chains.iter().all(|c| Arc::ptr_eq(&shared(c), &first)));
            assert_eq!(pool.len(), if nested { 1 + roots.len() } else { 1 });
        }
    }
}
