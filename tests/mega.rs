//! Mega-corpus integration suite: the generated 1k/4k-file trees driven
//! through the real engine.
//!
//! Four contracts on top of the generator's own property tests:
//!
//! * **Worker determinism** — a cold mega-1k run produces byte-identical
//!   artifacts at 1, 2, and 8 workers (every TU parsing as its own DAG
//!   node), and a fresh session against the cache dir a cold run
//!   populated is disk-warm with the same bytes.
//! * **Warm-edit determinism** — the same TU-local, private-header,
//!   shared-header and used-set-growth edits applied to a warm mega-1k
//!   session at 1, 2, and 8 workers give, after every edit, the same
//!   artifacts at every worker count and the same as a fresh cold
//!   session over the edited tree.
//! * **Eviction correctness** — mega-4k under a deliberately tiny
//!   `YALLA_MEM_BUDGET` (run in a child process so the process-wide
//!   budget cannot leak into threaded sibling tests) is byte-identical
//!   to the unbounded run, with `cache.evictions > 0`.
//! * **Disk round-trip** — the run bundle the tiny-budget run persisted
//!   warms a fresh session to the same bytes, and under the store's
//!   write-time sabotage modes the rerun still matches (a corrupt bundle
//!   degrades to recompute, never to wrong artifacts).

mod common;

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use yalla::exec::Executor;
use yalla::fuzz::{MegaConfig, MegaProject};
use yalla::store::Store;
use yalla::{Session, SessionRun};

fn fingerprint(run: &SessionRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(run.result.lightweight_header.as_bytes());
    eat(run.result.wrappers_file.as_bytes());
    for (path, text) in &run.result.rewritten_sources {
        eat(path.as_bytes());
        eat(text.as_bytes());
    }
    h
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yalla-mega-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mega_1k_is_byte_identical_across_worker_counts_and_disk_warm() {
    let cfg = MegaConfig::preset("mega-1k").unwrap();
    let project = MegaProject::generate(&cfg);
    let (vfs, options) = project.render();
    let cache_dir = temp_dir("workers");

    let mut baseline: Option<u64> = None;
    for workers in [1usize, 2, 8] {
        let exec = Executor::new(workers);
        let store = Arc::new(Store::open(&cache_dir).expect("open store"));
        let mut session = Session::with_store(options.clone(), vfs.clone(), Some(store));
        let run = session
            .rerun_on(&exec)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(run.result.report.verification.passed(), "{workers} workers");
        let hash = fingerprint(&run);
        match baseline {
            None => {
                // First run is genuinely cold: every TU parses.
                assert_eq!(run.files_reparsed, project.tus.len());
                baseline = Some(hash);
            }
            Some(base) => {
                assert_eq!(base, hash, "{workers} workers diverged from baseline");
                // Later sessions share the first run's cache dir: fresh
                // process state, disk-warm bytes, nothing recomputed.
                assert!(run.fully_cached(), "{workers} workers not disk-warm");
                assert_eq!(run.files_reparsed, 0);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn mega_1k_warm_edits_agree_across_worker_counts_and_with_cold() {
    let cfg = MegaConfig::preset("mega-1k").unwrap();
    let (vfs, options) = MegaProject::generate(&cfg).render();
    // A TU-local literal, one of another TU's private headers (both
    // local to one TU), a shared header under the facade, and a secondary
    // TU that starts calling a shared function no TU used before.
    type Edit = fn(&mut Session, &str);
    let grow: Edit =
        |s, path| common::append(s, path, "int grown(int a) { return mg::h1_0(a, 2); }");
    let edits: [(&str, bool, Edit); 4] = [
        ("tu_5.cpp", true, common::bump_literal),
        ("tu7_p3.hpp", true, common::bump_literal),
        ("mg_3_1.hpp", false, common::bump_literal),
        ("tu_9.cpp", true, grow),
    ];

    let mut by_workers: Vec<Vec<u64>> = Vec::new();
    let mut trees = Vec::new();
    for workers in [1usize, 2, 8] {
        let exec = Executor::new(workers);
        let mut session = Session::with_store(options.clone(), vfs.clone(), None);
        session.rerun_on(&exec).expect("cold run");
        let mut prints = Vec::new();
        for (path, local, edit) in edits {
            edit(&mut session, path);
            let run = session
                .rerun_on(&exec)
                .unwrap_or_else(|e| panic!("{path} at {workers} workers: {e}"));
            assert!(run.result.report.verification.passed(), "{path}");
            let reparsed = run.files_reparsed;
            assert_eq!(reparsed == 1, local, "{path}: {reparsed} TUs reparsed");
            prints.push(fingerprint(&run));
            if workers == 1 {
                trees.push(session.vfs().clone());
            }
        }
        by_workers.push(prints);
    }
    for (step, ((path, ..), tree)) in edits.iter().zip(trees).enumerate() {
        for prints in &by_workers[1..] {
            assert_eq!(
                prints[step], by_workers[0][step],
                "{path}: worker counts diverged"
            );
        }
        let mut fresh = Session::with_store(options.clone(), tree, None);
        let cold = fresh.rerun_on(&Executor::new(2)).expect("fresh cold run");
        assert_eq!(
            fingerprint(&cold),
            by_workers[0][step],
            "{path}: warm edit != cold"
        );
    }
}

/// What the tiny-budget child leg writes back to the parent.
const EVICT_OUT_ENV: &str = "YALLA_MEGA_EVICT_OUT";
const EVICT_STORE_ENV: &str = "YALLA_MEGA_EVICT_STORE";

#[test]
fn mega_4k_tiny_budget_is_invisible_to_artifacts_and_spills_round_trip() {
    // Child leg: YALLA_MEM_BUDGET is already set by the parent, so this
    // whole process runs under the tiny budget (the same path
    // `--mem-budget`/the env var give real users). Runs the cold pass,
    // then a fresh session over the same store to prove the run bundle
    // round-trips, and reports fingerprints + eviction count.
    if let Ok(out) = std::env::var(EVICT_OUT_ENV) {
        let cfg = MegaConfig::preset("mega-4k").unwrap();
        let project = MegaProject::generate(&cfg);
        let (vfs, options) = project.render();
        let store_dir = PathBuf::from(std::env::var(EVICT_STORE_ENV).unwrap());

        let store = Arc::new(Store::open(&store_dir).expect("open store"));
        let mut session = Session::with_store(options.clone(), vfs.clone(), Some(store));
        let cold = session.rerun().expect("tiny-budget cold run");
        assert!(cold.result.report.verification.passed());
        let evictions = yalla::obs::global()
            .metrics()
            .counter(yalla::obs::metrics::names::CACHE_EVICTIONS)
            .get();
        drop(session);

        let store = Arc::new(Store::open(&store_dir).expect("reopen store"));
        let mut fresh = Session::with_store(options, vfs, Some(store));
        let warm = fresh.rerun().expect("disk-warm rerun");

        std::fs::write(
            out,
            format!(
                "{:016x} {:016x} {evictions} {}",
                fingerprint(&cold),
                fingerprint(&warm),
                warm.files_reparsed
            ),
        )
        .unwrap();
        return;
    }

    // Parent: unbounded baseline in this process (no budget env set).
    let cfg = MegaConfig::preset("mega-4k").unwrap();
    let project = MegaProject::generate(&cfg);
    let (vfs, options) = project.render();
    let mut session = Session::with_store(options, vfs, None);
    let unbounded = session.rerun().expect("unbounded run");
    let baseline = fingerprint(&unbounded);

    let exe = std::env::current_exe().unwrap();
    let scratch = temp_dir("evict");
    std::fs::create_dir_all(&scratch).unwrap();

    // Child passes: a clean store, then every record written through
    // each sabotage mode (torn / bit-rot / missing records must degrade
    // to recompute, never to divergent artifacts).
    for mode in ["", "truncate", "flip-byte", "partial-write", "enoent"] {
        let tag = if mode.is_empty() { "clean" } else { mode };
        let out = scratch.join(format!("report-{tag}"));
        let store_dir = scratch.join(format!("store-{tag}"));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "mega_4k_tiny_budget_is_invisible_to_artifacts_and_spills_round_trip",
            "--exact",
        ])
        .env(EVICT_OUT_ENV, &out)
        .env(EVICT_STORE_ENV, &store_dir)
        .env("YALLA_MEM_BUDGET", "256k");
        if !mode.is_empty() {
            cmd.env("YALLA_STORE_SABOTAGE", mode);
        }
        let output = cmd.output().expect("spawn child");
        assert!(
            output.status.success(),
            "{tag} child failed:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
        let report = std::fs::read_to_string(&out).expect("child report");
        let mut parts = report.split_whitespace();
        let cold_hash = u64::from_str_radix(parts.next().unwrap(), 16).unwrap();
        let warm_hash = u64::from_str_radix(parts.next().unwrap(), 16).unwrap();
        let evictions: i64 = parts.next().unwrap().parse().unwrap();
        let reparsed: usize = parts.next().unwrap().parse().unwrap();

        assert_eq!(
            cold_hash, baseline,
            "{tag}: tiny-budget artifacts diverged from unbounded run"
        );
        assert_eq!(
            warm_hash, baseline,
            "{tag}: disk-warm rerun diverged from unbounded run"
        );
        assert!(evictions > 0, "{tag}: tiny budget evicted nothing");
        if mode.is_empty() {
            // Clean store: the run bundle must actually warm the
            // fresh session — nothing reparses.
            assert_eq!(reparsed, 0, "clean: the run bundle did not round-trip");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
