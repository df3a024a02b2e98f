//! Fault-injection tests for the on-disk artifact store as the session
//! layer sees it: every injected corruption (truncated record, flipped
//! byte, partial write, vanished file) must degrade to a cache *miss* —
//! never an error, never a wrong artifact — with the `store.corruptions`
//! counter recording detection, and the recomputed artifacts must be
//! byte-identical to a storeless cold run. Also covers cross-process
//! warm restarts (a fresh `Store` handle on the same dir), after edits to
//! sources and to headers alike, and two "processes" hammering one cache
//! dir concurrently.

use std::path::PathBuf;
use std::sync::Arc;

use yalla::corpus::subject_by_name;
use yalla::store::{Sabotage, Store};
use yalla::{Engine, Options, Session, SubstitutionResult, Vfs};

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yalla-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn project() -> (Vfs, Options) {
    let mut vfs = Vfs::new();
    vfs.add_file(
        "lib.hpp",
        "namespace K { class Widget { public: int id() const; int grow(int k) const; }; }\n",
    );
    vfs.add_file(
        "main.cpp",
        "#include \"lib.hpp\"\nint use(K::Widget& w) { return w.id() + w.grow(3); }\n",
    );
    vfs.add_file(
        "extra.cpp",
        "#include \"lib.hpp\"\nint more(K::Widget& w) { return w.grow(9); }\n",
    );
    let options = Options {
        header: "lib.hpp".into(),
        sources: vec!["main.cpp".into(), "extra.cpp".into()],
        ..Options::default()
    };
    (vfs, options)
}

fn storeless_cold() -> SubstitutionResult {
    let (vfs, options) = project();
    Engine::new(options).run(&vfs).expect("cold run")
}

fn assert_same_artifacts(got: &SubstitutionResult, want: &SubstitutionResult, context: &str) {
    assert_eq!(
        got.lightweight_header, want.lightweight_header,
        "{context}: lightweight header diverged"
    );
    assert_eq!(
        got.wrappers_file, want.wrappers_file,
        "{context}: wrappers file diverged"
    );
    assert_eq!(
        got.rewritten_sources, want.rewritten_sources,
        "{context}: rewritten sources diverged"
    );
}

#[test]
fn every_sabotage_mode_degrades_to_miss_with_identical_artifacts() {
    let want = storeless_cold();
    for (tag, mode, corrupting) in [
        ("truncate", Sabotage::Truncate, true),
        ("flip-byte", Sabotage::FlipByte, true),
        ("partial-write", Sabotage::PartialWrite, true),
        ("enoent", Sabotage::Enoent, false),
    ] {
        let dir = cache_dir(tag);

        // "Process" 1 writes every record through the sabotage hook.
        let writer = Arc::new(Store::open(&dir).expect("open store"));
        writer.set_sabotage(mode);
        let (vfs, options) = project();
        let run = Session::with_store(options, vfs, Some(Arc::clone(&writer)))
            .rerun()
            .expect("sabotaged writes must not fail the run");
        assert_same_artifacts(&run.result, &want, &format!("{tag}: writer run"));

        // "Process" 2 reads the damaged cache: every corrupted record is
        // detected, counted, and treated as a miss; the run recomputes
        // and still matches the cold artifacts exactly.
        let reader = Arc::new(Store::open(&dir).expect("reopen store"));
        let (vfs, options) = project();
        let run = Session::with_store(options, vfs, Some(Arc::clone(&reader)))
            .rerun()
            .expect("corrupt cache must degrade to recompute, not error");
        assert!(
            !run.fully_cached(),
            "{tag}: a sabotaged cache has nothing valid to serve"
        );
        assert_same_artifacts(&run.result, &want, &format!("{tag}: reader run"));
        let stats = reader.stats();
        if corrupting {
            assert!(
                stats.corrupt > 0,
                "{tag}: corruption must be detected and counted, stats = {stats:?}"
            );
        } else {
            // Enoent skips the write entirely: a plain miss, not corruption.
            assert_eq!(stats.corrupt, 0, "{tag}: stats = {stats:?}");
        }
        assert!(stats.misses > 0, "{tag}: stats = {stats:?}");

        // The reader re-persisted good records: a third handle is warm.
        let (vfs, options) = project();
        let rerun = Session::with_store(
            options,
            vfs,
            Some(Arc::new(Store::open(&dir).expect("third open"))),
        )
        .rerun()
        .expect("healed cache");
        assert!(
            rerun.fully_cached(),
            "{tag}: cache heals after one good run, got {}",
            rerun.summary_line()
        );
        assert_same_artifacts(&rerun.result, &want, &format!("{tag}: healed run"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn on_disk_torn_records_are_deleted_and_recomputed() {
    let dir = cache_dir("torn");
    let store = Arc::new(Store::open(&dir).expect("open store"));
    let (vfs, options) = project();
    Session::with_store(options, vfs, Some(Arc::clone(&store)))
        .rerun()
        .expect("cold run");

    // Tear every record on disk the way a crash mid-write (without the
    // atomic rename) or a bad sector would: chop each file in half.
    let mut torn = 0usize;
    for entry in std::fs::read_dir(&dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rec") {
            let bytes = std::fs::read(&path).expect("read record");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear record");
            torn += 1;
        }
    }
    assert_eq!(torn, 1, "expected the run record alone on disk");

    let reader = Arc::new(Store::open(&dir).expect("reopen"));
    let (vfs, options) = project();
    let run = Session::with_store(options, vfs, Some(Arc::clone(&reader)))
        .rerun()
        .expect("torn cache degrades to recompute");
    assert_same_artifacts(&run.result, &storeless_cold(), "torn cache");
    assert!(reader.stats().corrupt > 0, "{:?}", reader.stats());

    // Detection deletes the torn files, so the next handle sees only
    // freshly re-persisted good records and is warm again.
    let (vfs, options) = project();
    let healed = Session::with_store(
        options,
        vfs,
        Some(Arc::new(Store::open(&dir).expect("third open"))),
    )
    .rerun()
    .expect("healed");
    assert!(healed.fully_cached(), "{}", healed.summary_line());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_process_is_disk_warm_with_zero_recomputed_stages() {
    let dir = cache_dir("warm");
    let cold_store = Arc::new(Store::open(&dir).expect("open store"));
    let (vfs, options) = project();
    let cold = Session::with_store(options, vfs, Some(cold_store))
        .rerun()
        .expect("cold run");
    assert!(!cold.fully_cached());

    // A fresh handle on the same dir stands in for a new process: no
    // in-memory state survives, only the cache dir.
    let warm_store = Arc::new(Store::open(&dir).expect("reopen store"));
    let (vfs, options) = project();
    let warm = Session::with_store(options, vfs, Some(Arc::clone(&warm_store)))
        .rerun()
        .expect("warm run");
    assert!(
        warm.fully_cached(),
        "disk-warm run must hit every stage: {}",
        warm.summary_line()
    );
    assert_eq!(warm.files_reparsed, 0, "nothing reparsed");
    assert_eq!(warm.rewrites_recomputed, 0, "nothing rewritten");
    assert!(warm_store.stats().hits > 0, "{:?}", warm_store.stats());
    assert_same_artifacts(&warm.result, &cold.result, "disk-warm vs cold");

    // An edit defeats the bundle (recompute once), then warmth returns.
    let (vfs, options) = project();
    let mut session = Session::with_store(
        options,
        vfs,
        Some(Arc::new(Store::open(&dir).expect("third open"))),
    );
    session
        .apply_edit(
            "main.cpp",
            "#include \"lib.hpp\"\nint use(K::Widget& w) { return w.grow(4); }\n".to_string(),
        )
        .expect("edit");
    let edited = session.rerun().expect("edited run");
    assert!(!edited.fully_cached(), "{}", edited.summary_line());
    let (mut vfs, options) = project();
    vfs.add_file(
        "main.cpp",
        "#include \"lib.hpp\"\nint use(K::Widget& w) { return w.grow(4); }\n",
    );
    let warm_again = Session::with_store(
        options,
        vfs,
        Some(Arc::new(Store::open(&dir).expect("fourth open"))),
    )
    .rerun()
    .expect("warm again");
    assert!(warm_again.fully_cached(), "{}", warm_again.summary_line());
    assert_same_artifacts(
        &warm_again.result,
        &edited.result,
        "edited warm vs edited cold",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The text of `path` with `extra` appended.
fn appended(vfs: &Vfs, path: &str, extra: &str) -> String {
    let id = vfs.lookup(path).expect("file exists");
    format!("{}{extra}", vfs.text(id))
}

/// Each row edits a warm session's tree, reruns after every edit, then
/// restarts twice on the cache dir: a header edit keeps every root's
/// content, so only a record that lists the headers it read can tell
/// the edited tree from the one before it.
#[test]
fn restarts_after_an_edit_are_disk_warm_with_identical_artifacts() {
    type Row = fn() -> (Vfs, Options, Vec<(&'static str, String)>);
    let header_comment: Row = || {
        let (vfs, options) = project();
        let edit = appended(&vfs, "lib.hpp", "// edited\n");
        (vfs, options, vec![("lib.hpp", edit)])
    };
    let team_policy: Row = || {
        let subject = subject_by_name("team_policy").expect("subject exists");
        let edit = appended(&subject.vfs, "functor.hpp", "// edited\n");
        let options = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        (subject.vfs, options, vec![("functor.hpp", edit)])
    };
    let shared_header: Row = || {
        let (vfs, mut options) = project();
        options.tu_roots = vec!["main.cpp".into(), "extra.cpp".into()];
        let edit = appended(&vfs, "lib.hpp", "namespace K { int added(); }\n");
        (vfs, options, vec![("lib.hpp", edit)])
    };
    let there_and_back: Row = || {
        let (vfs, options) = project();
        let (edit, original) = (
            appended(&vfs, "lib.hpp", "// edited\n"),
            appended(&vfs, "lib.hpp", ""),
        );
        (vfs, options, vec![("lib.hpp", edit), ("lib.hpp", original)])
    };
    let rows = [
        ("header-comment", header_comment),
        ("team_policy-functor", team_policy),
        ("shared-header", shared_header),
        ("header-there-and-back", there_and_back),
    ];
    for (tag, row) in rows {
        let dir = cache_dir(tag);
        let (vfs, options, edits) = row();
        let mut session = Session::with_store(
            options.clone(),
            vfs,
            Some(Arc::new(Store::open(&dir).unwrap())),
        );
        session.rerun().expect("cold run");
        for (path, text) in edits {
            session.apply_edit(path, text).expect("edit");
            session.rerun().expect("edited run");
        }
        let want = Engine::new(options.clone())
            .run(session.vfs())
            .expect("storeless cold run");
        for restart in 1..=2 {
            let store = Arc::new(Store::open(&dir).expect("reopen store"));
            let run = Session::with_store(options.clone(), session.vfs().clone(), Some(store))
                .rerun()
                .expect("restart");
            assert!(
                run.fully_cached(),
                "{tag}: restart {restart} must be disk-warm: {}",
                run.summary_line()
            );
            assert_eq!(run.files_reparsed, 0, "{tag}: restart {restart}");
            assert_same_artifacts(&run.result, &want, &format!("{tag}: restart {restart}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two sessions share one cache dir and one key. The second writes tree
/// B; the first reads B back from disk, then returns to tree A with every
/// stage a memory hit. That rerun must replace the record, or a restart
/// on A is cold.
#[test]
fn a_memory_warm_rerun_replaces_a_record_another_session_wrote() {
    let dir = cache_dir("two-writers");
    let open = || Some(Arc::new(Store::open(&dir).expect("open store")));
    let (vfs, options) = project();
    let (a, b) = (
        appended(&vfs, "lib.hpp", ""),
        appended(&vfs, "lib.hpp", "// B\n"),
    );
    let mut first = Session::with_store(options.clone(), vfs.clone(), open());
    first.rerun().expect("A");
    let mut second = Session::with_store(options.clone(), vfs.clone(), open());
    second.apply_edit("lib.hpp", b.clone()).expect("edit");
    second.rerun().expect("B");
    first.apply_edit("lib.hpp", b).expect("edit");
    let from_disk = first.rerun().expect("B from disk");
    assert!(from_disk.fully_cached(), "{}", from_disk.summary_line());
    first.apply_edit("lib.hpp", a).expect("edit");
    let from_memory = first.rerun().expect("A from memory");
    assert!(from_memory.fully_cached(), "{}", from_memory.summary_line());
    let restart = Session::with_store(options, vfs, open())
        .rerun()
        .expect("restart on A");
    assert!(restart.fully_cached(), "{}", restart.summary_line());
    assert_same_artifacts(&restart.result, &storeless_cold(), "restart on A");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_handles_hammer_one_cache_dir_without_torn_reads() {
    let dir = cache_dir("hammer");
    // Small capacity keeps eviction churning while both run.
    let cap = 64 * 1024;
    let mut handles = Vec::new();
    for worker in 0..2 {
        let dir = dir.clone();
        handles.push(std::thread::spawn(move || {
            let want = storeless_cold();
            // Each thread owns a private Store handle (as a separate
            // process would) on the shared dir.
            let store = Arc::new(Store::open_with_capacity(&dir, cap).expect("open shared store"));
            for round in 0..6 {
                let (mut vfs, options) = project();
                if (round + worker) % 2 == 0 {
                    vfs.add_file(
                        "main.cpp",
                        "#include \"lib.hpp\"\nint use(K::Widget& w) { return w.grow(4); }\n",
                    );
                }
                let run = Session::with_store(options, vfs, Some(Arc::clone(&store)))
                    .rerun()
                    .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                // Whatever mix of hits/misses the race produced, the
                // artifacts are never torn or stale.
                if (round + worker) % 2 != 0 {
                    assert_same_artifacts(
                        &run.result,
                        &want,
                        &format!("worker {worker} round {round}"),
                    );
                }
            }
            store.stats()
        }));
    }
    let mut bytes = 0;
    for handle in handles {
        let stats = handle.join().expect("worker panicked");
        assert_eq!(
            stats.corrupt, 0,
            "no torn reads under contention: {stats:?}"
        );
        bytes = stats.bytes;
    }
    assert!(
        bytes <= cap,
        "eviction kept the dir under {cap} bytes: {bytes}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
