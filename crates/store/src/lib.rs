//! yalla-store: a persistent, content-addressed on-disk artifact cache.
//!
//! The second cache tier behind the in-memory `ParseCache` and `Session`
//! stage slots (memory → disk → recompute), in the style of ccache's
//! direct mode and sccache's local storage: entries are addressed by the
//! FNV-64 stage fingerprints the pipeline already computes, so a fresh
//! process — or a daemon restarted after `kill -9` — re-reaches steady
//! state from disk instead of recomputing (see DESIGN.md §11).
//!
//! Guarantees, and how they are held:
//!
//! - **Crash safety.** Entries are written to a tmp file and `rename`d
//!   into place, so a reader never observes a half-written entry under
//!   its final name. A crash can at worst leak a tmp file (swept by the
//!   next eviction pass) or strand an entry missing from the index
//!   (re-adopted by directory scan at open).
//! - **Corruption degrades to a miss, never an error.** Every entry is a
//!   versioned record with an FNV-64 checksum footer ([`record`]); any
//!   decode failure deletes the entry, bumps `store.corruptions` (and
//!   `store.misses`), and reports a miss. The [`sabotage`] hook injects
//!   torn/flipped/partial writes to prove this in `tests/store_faults.rs`.
//! - **Shared directories are safe.** Writers serialize on a lock file
//!   ([`lock`]); readers are lock-free because entries are immutable once
//!   renamed in. Parallel daemons and CLI runs can point at one dir.
//! - **Bounded size.** An on-disk LRU index ([`index`]) tracks entry
//!   sizes and last-use ticks; puts evict least-recently-used entries
//!   until the total fits the capacity. Recency from pure reads is
//!   process-local until the next put persists it — cross-process LRU is
//!   approximate, which only costs eviction-order quality.
//!
//! Every operation is best-effort: I/O failures make the store quietly
//! smaller or colder, never take the pipeline down.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub mod codec;
pub mod index;
pub mod lock;
pub mod module;
pub mod record;
pub mod sabotage;

use index::Index;
use lock::LockGuard;
pub use record::FORMAT_VERSION;
pub use sabotage::Sabotage;

/// Namespace the parse cache once persisted dependency manifests in.
/// Nothing writes it any more (a run bundle carries its own depfile);
/// the name stays for tools that list every namespace.
pub const NS_PARSE: &str = "parse";
/// Namespace for whole-run artifact bundles (keyed by the run
/// fingerprint over options + root and source contents; the payload
/// carries the run's depfile, checked on lookup).
pub const NS_RUN: &str = "run";
/// Namespace for `yalla serve` project records (keyed by root content
/// hash; payload re-seeds a warm session after restart).
pub const NS_SERVE: &str = "serve";

/// Default capacity: plenty for every corpus subject many times over,
/// small enough that a forgotten cache dir can't eat a disk.
pub const DEFAULT_CAPACITY: u64 = 256 * 1024 * 1024;

/// Environment variable naming the shared cache directory.
pub const CACHE_DIR_ENV: &str = "YALLA_CACHE_DIR";

/// FNV-1a 64-bit over a byte slice — the same function the pipeline's
/// fingerprints use, re-implemented here so the store depends only on
/// yalla-obs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Point-in-time view of the store's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that returned a valid entry.
    pub hits: u64,
    /// Lookups that found nothing usable (includes corrupt entries).
    pub misses: u64,
    /// Entries evicted by the size bound.
    pub evictions: u64,
    /// Entries dropped because they failed to decode.
    pub corrupt: u64,
    /// Total entry bytes currently indexed.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicI64,
    misses: AtomicI64,
    evictions: AtomicI64,
    corrupt: AtomicI64,
}

/// A validated store hit served as a view: the guard owns the record's
/// file bytes and derefs to the payload slice inside them — the payload
/// is never copied out, and module readers borrow straight from it.
#[derive(Debug)]
pub struct PayloadView {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
}

impl std::ops::Deref for PayloadView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

/// A handle to one cache directory.
///
/// Handles are cheap to open and safe to use from many threads; distinct
/// handles (including in other processes) may share a directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    capacity: u64,
    state: Mutex<Index>,
    sabotage: Mutex<Sabotage>,
    counters: Counters,
}

impl Store {
    /// Opens (creating if needed) `dir` with the default capacity.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// Opens (creating if needed) `dir` with an explicit byte capacity.
    pub fn open_with_capacity(dir: impl Into<PathBuf>, capacity: u64) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut idx = Index::load(&dir);
        idx.adopt_orphans(&dir);
        let store = Store {
            dir,
            capacity,
            state: Mutex::new(idx),
            sabotage: Mutex::new(Sabotage::from_env()),
            counters: Counters::default(),
        };
        store.publish_bytes();
        Ok(store)
    }

    /// Opens the store named by `YALLA_CACHE_DIR`, if set and usable.
    pub fn from_env() -> Option<Store> {
        let dir = std::env::var(CACHE_DIR_ENV).ok()?;
        if dir.is_empty() {
            return None;
        }
        Store::open(dir).ok()
    }

    /// The process-wide store from `YALLA_CACHE_DIR` (resolved once), or
    /// `None` when no cache directory is configured.
    pub fn global() -> Option<Arc<Store>> {
        static GLOBAL: OnceLock<Option<Arc<Store>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Store::from_env().map(Arc::new))
            .clone()
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Overrides the write-time fault-injection mode (tests).
    pub fn set_sabotage(&self, mode: Sabotage) {
        *self.sabotage.lock().expect("sabotage lock") = mode;
    }

    fn entry_name(namespace: &str, key: u64) -> String {
        format!("{namespace}.{key:016x}.rec")
    }

    /// Looks up `(namespace, key)` and serves the hit zero-copy: the
    /// record file is read once, validated once (header + checksum),
    /// and the returned [`PayloadView`] borrows the payload bytes in
    /// place — no copy, no per-field allocation. A torn or corrupt entry
    /// is deleted and reported as a miss; hits bump
    /// `store.zero_copy_hits`.
    ///
    /// Every lookup is timed into the `latency.store.hit`/`.miss`
    /// histograms and recorded as a `store` event joined to the ambient
    /// request id — worker threads running DAG nodes inherit the daemon
    /// request's id, so these events trace back to the request that
    /// caused the lookup.
    pub fn get_view(&self, namespace: &str, key: u64) -> Option<PayloadView> {
        let span = yalla_obs::span("store", "get");
        let result = self.get_uninstrumented(namespace, key);
        let dur = span.finish();
        let hist = if result.is_some() {
            yalla_obs::count(yalla_obs::metrics::names::STORE_ZERO_COPY_HITS, 1);
            yalla_obs::metrics::names::LATENCY_STORE_HIT
        } else {
            yalla_obs::metrics::names::LATENCY_STORE_MISS
        };
        yalla_obs::observe(hist, dur);
        yalla_obs::event("store", || {
            [
                ("ns", namespace.into()),
                ("hit", i64::from(result.is_some()).into()),
                ("dur_us", (dur.as_micros() as i64).into()),
            ]
        });
        result
    }

    fn get_uninstrumented(&self, namespace: &str, key: u64) -> Option<PayloadView> {
        let name = Store::entry_name(namespace, key);
        let bytes = match fs::read(self.dir.join(&name)) {
            Ok(b) => b,
            Err(_) => {
                self.count_miss();
                return None;
            }
        };
        match record::decode_view(&bytes, namespace, key) {
            Ok(payload) => {
                let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
                let end = start + payload.len();
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                yalla_obs::count(yalla_obs::metrics::names::STORE_HITS, 1);
                // Recency is tracked in-memory and persisted by the next
                // put; a pure-read process never takes the lock.
                self.state.lock().expect("store state").touch(&name);
                Some(PayloadView { bytes, start, end })
            }
            Err(_) => {
                let _ = fs::remove_file(self.dir.join(&name));
                let mut state = self.state.lock().expect("store state");
                state.entries.remove(&name);
                drop(state);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                yalla_obs::count(yalla_obs::metrics::names::STORE_CORRUPT, 1);
                self.count_miss();
                self.publish_bytes();
                None
            }
        }
    }

    /// True when an entry file exists for `(namespace, key)`. A cheap
    /// stat that bumps no counters and validates nothing — used to skip
    /// redundant writes, where a false positive only costs a re-put on
    /// the next miss.
    pub fn contains(&self, namespace: &str, key: u64) -> bool {
        self.dir.join(Store::entry_name(namespace, key)).exists()
    }

    /// Stores `payload` under `(namespace, key)`. Best-effort: lock
    /// timeouts and I/O errors are swallowed (the entry is simply not
    /// cached). Evicts least-recently-used entries to stay under
    /// capacity, and persists recency ticks accumulated by reads.
    pub fn put(&self, namespace: &str, key: u64, payload: &[u8]) {
        let _span = yalla_obs::span("store", "put");
        let encoded = record::encode(namespace, key, payload);
        let damaged = self.sabotage.lock().expect("sabotage lock").apply(&encoded);
        let Some(bytes) = damaged else {
            return; // Enoent sabotage: the write never happens.
        };
        let Ok(_guard) = LockGuard::acquire(&self.dir) else {
            return;
        };
        let name = Store::entry_name(namespace, key);
        let tmp = self.dir.join(format!(
            "{name}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        if fs::write(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, self.dir.join(&name)).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let mut state = self.state.lock().expect("store state");
        // Fold in index changes other processes made since we last held
        // the lock (their inserts, their persisted recency).
        state.merge(&Index::load(&self.dir));
        state.insert(&name, bytes.len() as u64);
        let mut evicted = 0i64;
        while state.total_bytes() > self.capacity {
            let Some(victim) = state.lru() else { break };
            let _ = fs::remove_file(self.dir.join(&victim));
            state.entries.remove(&victim);
            evicted += 1;
        }
        let _ = state.save(&self.dir);
        drop(state);
        if evicted > 0 {
            self.counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
            yalla_obs::count(yalla_obs::metrics::names::STORE_EVICTIONS, evicted);
        }
        self.publish_bytes();
    }

    /// Every key currently stored under `namespace`, from a directory
    /// scan (so it sees entries written by other processes — the serve
    /// daemon uses this to rebuild its warm pool after a restart).
    pub fn keys(&self, namespace: &str) -> Vec<u64> {
        let prefix = format!("{namespace}.");
        let mut keys = BTreeSet::new();
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for dirent in read.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(hex) = rest.strip_suffix(".rec") else {
                continue;
            };
            // Tmp files ("<hex>.rec.tmp...") and foreign names fail the
            // 16-hex-digit shape and are skipped.
            if hex.len() != 16 {
                continue;
            }
            if let Ok(key) = u64::from_str_radix(hex, 16) {
                keys.insert(key);
            }
        }
        keys.into_iter().collect()
    }

    /// This handle's counters plus the indexed byte total.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed) as u64,
            misses: self.counters.misses.load(Ordering::Relaxed) as u64,
            evictions: self.counters.evictions.load(Ordering::Relaxed) as u64,
            corrupt: self.counters.corrupt.load(Ordering::Relaxed) as u64,
            bytes: self.state.lock().expect("store state").total_bytes(),
        }
    }

    fn count_miss(&self) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        yalla_obs::count(yalla_obs::metrics::names::STORE_MISSES, 1);
    }

    fn publish_bytes(&self) {
        let bytes = self.state.lock().expect("store state").total_bytes();
        yalla_obs::gauge(yalla_obs::metrics::names::STORE_BYTES, bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str, capacity: u64) -> Store {
        let dir =
            std::env::temp_dir().join(format!("yalla-store-lib-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open_with_capacity(dir, capacity).expect("open store")
    }

    fn cleanup(store: &Store) {
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = temp_store("roundtrip", DEFAULT_CAPACITY);
        assert_eq!(store.get_view(NS_RUN, 1).as_deref(), None);
        store.put(NS_RUN, 1, b"artifact");
        assert_eq!(
            store.get_view(NS_RUN, 1).as_deref(),
            Some(b"artifact".as_ref())
        );
        assert!(store.contains(NS_RUN, 1));
        assert!(!store.contains(NS_RUN, 2));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 1, 0));
        assert!(stats.bytes > 8);
        cleanup(&store);
    }

    #[test]
    fn get_view_serves_hits_without_copying_the_payload() {
        let store = temp_store("view", DEFAULT_CAPACITY);
        store.put(NS_RUN, 3, b"zero copy body");
        let view = store.get_view(NS_RUN, 3).expect("hit");
        assert_eq!(&*view, b"zero copy body");
        // The view is a window into the whole record file, not a copy:
        // the backing buffer is strictly larger than the payload.
        assert!(view.bytes.len() > view.len());
        assert!(store.get_view(NS_RUN, 999).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A module payload decodes straight from the view's bytes.
        let mut m = module::ModuleBuilder::new(1);
        m.intern("borrowed");
        store.put(NS_RUN, 4, &m.finish());
        let view = store.get_view(NS_RUN, 4).expect("hit");
        let reader = module::ModuleReader::parse(&view).expect("module parses");
        assert_eq!(reader.get(module::StrRef(0)).unwrap(), "borrowed");
        cleanup(&store);
    }

    #[test]
    fn namespaces_do_not_collide() {
        let store = temp_store("ns", DEFAULT_CAPACITY);
        store.put(NS_RUN, 7, b"run");
        store.put(NS_PARSE, 7, b"parse");
        assert_eq!(store.get_view(NS_RUN, 7).as_deref(), Some(b"run".as_ref()));
        assert_eq!(
            store.get_view(NS_PARSE, 7).as_deref(),
            Some(b"parse".as_ref())
        );
        assert_eq!(store.keys(NS_RUN), vec![7]);
        assert_eq!(store.keys(NS_SERVE), Vec::<u64>::new());
        cleanup(&store);
    }

    #[test]
    fn reopen_sees_entries() {
        let store = temp_store("reopen", DEFAULT_CAPACITY);
        store.put(NS_RUN, 42, b"persisted");
        let dir = store.dir().to_path_buf();
        drop(store);
        let again = Store::open(&dir).expect("reopen");
        assert_eq!(
            again.get_view(NS_RUN, 42).as_deref(),
            Some(b"persisted".as_ref())
        );
        cleanup(&again);
    }

    #[test]
    fn orphan_entry_survives_lost_index() {
        let store = temp_store("orphan", DEFAULT_CAPACITY);
        store.put(NS_RUN, 9, b"orphan-to-be");
        let dir = store.dir().to_path_buf();
        drop(store);
        fs::remove_file(dir.join(index::INDEX_FILE)).expect("lose index");
        let again = Store::open(&dir).expect("reopen");
        assert_eq!(
            again.get_view(NS_RUN, 9).as_deref(),
            Some(b"orphan-to-be".as_ref())
        );
        assert!(again.stats().bytes > 0, "orphan adopted into the index");
        cleanup(&again);
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_deleted() {
        let store = temp_store("corrupt", DEFAULT_CAPACITY);
        store.put(NS_RUN, 5, b"will be damaged");
        let path = store.dir().join(Store::entry_name(NS_RUN, 5));
        let mut bytes = fs::read(&path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, bytes).expect("damage entry");
        assert_eq!(store.get_view(NS_RUN, 5).as_deref(), None);
        assert!(!path.exists(), "corrupt entry deleted");
        let stats = store.stats();
        assert_eq!((stats.corrupt, stats.misses, stats.hits), (1, 1, 0));
        // The slot is clean again: a fresh put works.
        store.put(NS_RUN, 5, b"replacement");
        assert_eq!(
            store.get_view(NS_RUN, 5).as_deref(),
            Some(b"replacement".as_ref())
        );
        cleanup(&store);
    }

    #[test]
    fn eviction_keeps_total_under_capacity_and_prefers_lru() {
        // Capacity fits roughly two entries of this size; the third put
        // must evict the least-recently-used.
        let payload = vec![0xabu8; 400];
        let overhead = record::encode(NS_RUN, 0, &payload).len() as u64;
        let store = temp_store("evict", overhead * 2 + 16);
        store.put(NS_RUN, 1, &payload);
        store.put(NS_RUN, 2, &payload);
        // Touch 1 so 2 is the LRU.
        assert!(store.get_view(NS_RUN, 1).is_some());
        store.put(NS_RUN, 3, &payload);
        assert!(store.stats().bytes <= overhead * 2 + 16, "within bound");
        assert!(store.stats().evictions >= 1);
        assert!(!store.contains(NS_RUN, 2), "LRU entry evicted");
        assert!(store.contains(NS_RUN, 1), "recently-read entry kept");
        assert!(store.contains(NS_RUN, 3), "new entry kept");
        cleanup(&store);
    }

    #[test]
    fn two_handles_share_one_directory() {
        let a = temp_store("shared", DEFAULT_CAPACITY);
        let b = Store::open(a.dir()).expect("second handle");
        a.put(NS_RUN, 11, b"from a");
        assert_eq!(b.get_view(NS_RUN, 11).as_deref(), Some(b"from a".as_ref()));
        b.put(NS_RUN, 12, b"from b");
        assert_eq!(a.get_view(NS_RUN, 12).as_deref(), Some(b"from b".as_ref()));
        cleanup(&a);
    }

    #[test]
    fn concurrent_handles_hammering_one_dir() {
        // Satellite requirement: separate Store handles (as two daemons
        // would hold) on one directory under a 1 MiB cap — no deadlock,
        // no torn reads, size stays within bound.
        let cap = 1024 * 1024;
        let a = temp_store("hammer", cap as u64);
        let dir = a.dir().to_path_buf();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let dir = dir.clone();
                scope.spawn(move || {
                    let store = Store::open_with_capacity(&dir, cap as u64).expect("handle");
                    let payload = vec![t as u8; 8 * 1024];
                    for i in 0..40u64 {
                        let key = (t << 32) | i;
                        store.put(NS_RUN, key, &payload);
                        if let Some(back) = store.get_view(NS_RUN, key) {
                            // A read either misses (evicted/raced) or
                            // returns exactly what this thread wrote —
                            // never torn bytes.
                            assert_eq!(*back, *payload, "torn read on key {key:x}");
                        }
                        // Cross-thread reads must also be whole records.
                        let other = ((t + 1) % 4) << 32 | i;
                        if let Some(back) = store.get_view(NS_RUN, other) {
                            assert!(back.iter().all(|&b| b == back[0]), "torn cross-thread read");
                        }
                    }
                });
            }
        });
        let fresh = Store::open_with_capacity(&dir, cap as u64).expect("audit handle");
        assert!(
            fresh.stats().bytes <= cap as u64,
            "size bound violated: {} > {cap}",
            fresh.stats().bytes
        );
        cleanup(&a);
    }

    #[test]
    fn sabotage_modes_degrade_to_miss() {
        for (mode, corrupting) in [
            (Sabotage::Truncate, true),
            (Sabotage::FlipByte, true),
            (Sabotage::PartialWrite, true),
            (Sabotage::Enoent, false),
        ] {
            let store = temp_store("sabotage", DEFAULT_CAPACITY);
            store.set_sabotage(mode);
            store.put(NS_RUN, 1, b"doomed payload bytes");
            store.set_sabotage(Sabotage::None);
            assert_eq!(
                store.get_view(NS_RUN, 1).as_deref(),
                None,
                "{mode:?} must miss"
            );
            let stats = store.stats();
            assert_eq!(
                stats.corrupt,
                if corrupting { 1 } else { 0 },
                "{mode:?} corrupt count"
            );
            assert_eq!(stats.misses, 1, "{mode:?} miss count");
            // The store recovers: an honest put lands.
            store.put(NS_RUN, 1, b"recovered");
            assert_eq!(
                store.get_view(NS_RUN, 1).as_deref(),
                Some(b"recovered".as_ref())
            );
            cleanup(&store);
        }
    }

    #[test]
    fn keys_lists_only_well_formed_entries() {
        let store = temp_store("keys", DEFAULT_CAPACITY);
        store.put(NS_SERVE, 0xdead, b"project");
        store.put(NS_SERVE, 0xbeef, b"project");
        fs::write(store.dir().join("serve.nothex.rec"), b"junk").expect("junk");
        fs::write(store.dir().join("serve.rec"), b"junk").expect("junk");
        assert_eq!(store.keys(NS_SERVE), vec![0xbeef, 0xdead]);
        cleanup(&store);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Reference values for FNV-1a 64: empty input = offset basis;
        // "a" = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
