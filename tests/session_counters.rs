//! Session tests that assert exact deltas of the process-global counters.
//!
//! They live in their own test binary so that no test outside
//! [`COUNTER_LOCK`] can bump the same counters concurrently: every test
//! here holds the lock for its whole body.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use yalla::core::{CacheLookup, Stage};
use yalla::obs::metrics::names;
use yalla::{Engine, Options, Session};

use common::{append, bump_literal, kokkos_options, kokkos_session, kokkos_vfs};

/// The global profiler's counters are process-wide; every test in this
/// binary serializes behind this lock.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> i64 {
    yalla::obs::global().metrics().counter(name).get()
}

#[test]
fn noop_rerun_is_fully_cached_with_zero_reparses() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();
    assert!(!cold.fully_cached());
    assert_eq!(cold.files_reparsed, 1);
    assert_eq!(cold.rewrites_recomputed, 2);

    // Zero re-parses, asserted through the observability counters: not a
    // single file may enter the preprocessor during a warm no-op rerun.
    let files_before = counter(names::FILES_PREPROCESSED);
    let parse_hits_before = counter(&names::stage_cache("parse", "hits"));
    let reparsed_before = counter(names::SESSION_TUS_REPARSED);
    let warm = session.rerun().unwrap();
    assert_eq!(
        counter(names::FILES_PREPROCESSED),
        files_before,
        "a warm no-op rerun must not preprocess any file"
    );
    assert_eq!(
        counter(&names::stage_cache("parse", "hits")),
        parse_hits_before + 1
    );
    assert_eq!(counter(names::SESSION_TUS_REPARSED), reparsed_before);

    assert!(warm.fully_cached());
    assert_eq!(warm.files_reparsed, 0);
    assert_eq!(warm.rewrites_recomputed, 0);
    assert_eq!(warm.rewrites_cached, 2);
    for stage in [
        Stage::Parse,
        Stage::Analyze,
        Stage::Plan,
        Stage::Emit,
        Stage::Rewrite,
        Stage::Verify,
    ] {
        assert_eq!(warm.outcome(stage), CacheLookup::Hit, "{stage}");
    }
    // Cached stages report zero duration, never a stale measurement.
    assert_eq!(warm.result.timings.total(), Duration::ZERO);
    assert!(cold.result.timings.total() > Duration::ZERO);

    // The artifacts are byte-identical to the cold run's.
    assert_eq!(
        cold.result.lightweight_header,
        warm.result.lightweight_header
    );
    assert_eq!(cold.result.wrappers_file, warm.result.wrappers_file);
    assert_eq!(cold.result.rewritten_sources, warm.result.rewritten_sources);
}

#[test]
fn a_reverted_edit_rehits_verifys_substituted_tu_parse() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // No store: a disk bundle must not answer the revert.
    let mut session = Session::with_store(kokkos_options(), kokkos_vfs(), None);
    session.rerun().unwrap();
    let kernel = session.vfs().lookup("kernel.cpp").expect("fixture file");
    let original = session.vfs().text(kernel).to_string();
    append(&mut session, "kernel.cpp", "int yalla_probe = 1;");
    assert!(!session.rerun().unwrap().outcome(Stage::Verify).is_hit());
    session.apply_edit("kernel.cpp", original).unwrap();

    let lines_before = counter(names::LINES_PREPROCESSED);
    let revert = session.rerun().unwrap();
    assert_eq!(revert.outcome(Stage::Parse), CacheLookup::Hit);
    // The rewritten source moved back, so verify runs again; the wrappers
    // check is reused and the substituted TU is the version cached
    // before the edit, so nothing is preprocessed.
    assert!(!revert.outcome(Stage::Verify).is_hit());
    assert!(revert.result.report.verification.passed());
    assert_eq!(
        counter(names::LINES_PREPROCESSED),
        lines_before,
        "a revert must re-hit verify's parse of the substituted TU"
    );
}

/// The Kokkos fixture with a user header (`util.hpp`) that the main TU
/// includes but the wrappers TU never sees.
fn memo_fixture() -> Session {
    let mut vfs = kokkos_vfs();
    vfs.add_file(
        "util.hpp",
        "#pragma once\ninline int helper() { return 1; }\n",
    );
    let kernel = vfs.lookup("kernel.cpp").expect("fixture file");
    let kernel = format!("#include \"util.hpp\"\n{}", vfs.text(kernel));
    vfs.add_file("kernel.cpp", kernel);
    Session::new(kokkos_options(), vfs)
}

/// Replaces the first `from` in `path` with `to`.
fn replace(session: &mut Session, path: &str, from: &str, to: &str) {
    let id = session.vfs().lookup(path).expect("file exists");
    let text = session.vfs().text(id);
    assert!(text.contains(from), "{path} lacks {from:?}");
    let new_text = text.replacen(from, to, 1);
    session.apply_edit(path, new_text).expect("edit applies");
}

/// One memo-soundness case: a change to a warm session, and whether the
/// verify stage that re-runs after it may reuse the wrappers check.
struct MemoCase {
    name: &'static str,
    change: fn(Session) -> Session,
    reused: bool,
}

#[test]
fn wrappers_check_is_reused_exactly_while_its_closure_is_unchanged() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let cases = [
        MemoCase {
            name: "main-source comment",
            change: |mut s| {
                append(&mut s, "kernel.cpp", "// tweak");
                s
            },
            reused: true,
        },
        MemoCase {
            name: "main-source body",
            change: |mut s| {
                replace(
                    &mut s,
                    "kernel.cpp",
                    "int j = m.league_rank();",
                    "int j = m.league_rank();\n  int twice = j * 2;",
                );
                s
            },
            reused: true,
        },
        MemoCase {
            name: "header inside the wrappers closure, usage unchanged",
            change: |mut s| {
                append(
                    &mut s,
                    "Kokkos_Impl.hpp",
                    "namespace Kokkos { namespace Impl { struct Fresh {}; } }",
                );
                s
            },
            reused: false,
        },
        MemoCase {
            name: "used-set growth",
            change: |mut s| {
                append(
                    &mut s,
                    "kernel.cpp",
                    "int probe() { return Kokkos::clamp_index(7); }",
                );
                s
            },
            reused: false,
        },
        MemoCase {
            // A session's defines are fixed when it opens, so a define
            // change reaches verify as a new session over the same files.
            name: "define change",
            change: |s| {
                let options = Options {
                    defines: vec![("KOKKOS_ENABLE_DEBUG".into(), "1".into())],
                    ..s.options().clone()
                };
                Session::new(options, s.vfs().clone())
            },
            reused: false,
        },
        MemoCase {
            name: "file outside the wrappers closure",
            change: |mut s| {
                append(&mut s, "util.hpp", "inline int helper2() { return 2; }");
                s
            },
            reused: true,
        },
    ];
    for case in cases {
        let name = case.name;
        let mut session = memo_fixture();
        let first = session.rerun().unwrap();
        assert!(first.result.report.verification.passed(), "{name}");
        let mut session = (case.change)(session);

        let reused_before = counter(names::VERIFY_WRAPPERS_REUSED);
        let warm = session.rerun().unwrap();
        let reused = counter(names::VERIFY_WRAPPERS_REUSED) - reused_before;
        assert!(
            !warm.outcome(Stage::Verify).is_hit(),
            "{name}: verify re-runs"
        );
        assert_eq!(reused, i64::from(case.reused), "{name}: wrappers reuse");

        let cold = Engine::new(session.options().clone())
            .run(session.vfs())
            .unwrap();
        let report = &warm.result.report;
        assert_eq!(report.verification, cold.report.verification, "{name}");
        assert!(report.verification.passed(), "{name}");
        assert_eq!(report.before, cold.report.before, "{name}");
        assert_eq!(report.after, cold.report.after, "{name}");
    }
}

/// One row of the stage contract: a session prepared by `setup`, then one
/// measured rerun and everything observable about it.
struct ContractRow {
    name: &'static str,
    /// Builds the session (including any warm-up runs and the edit) whose
    /// next rerun is measured.
    setup: fn(&std::path::Path) -> Session,
    /// `SessionRun.stages` lookups, in pipeline order.
    stages: [CacheLookup; 6],
    /// `files_reparsed`, `rewrites_recomputed`, `rewrites_cached`.
    counts: [usize; 3],
    /// Per stage, the `cache.<stage>.{hits,misses,invalidations}` deltas.
    cache: [[i64; 3]; 6],
    /// `session.tus_reparsed` delta.
    tus_reparsed: i64,
    /// Checkpoints an unarmed token passes.
    checkpoints: u64,
}

const STAGES: [Stage; 6] = [
    Stage::Parse,
    Stage::Analyze,
    Stage::Plan,
    Stage::Emit,
    Stage::Rewrite,
    Stage::Verify,
];

/// A memory-only Kokkos session (no disk tier, whatever the environment
/// says) that has completed one cold run.
fn warm_kokkos(options: Options) -> Session {
    let mut session = Session::with_store(options, kokkos_vfs(), None);
    session.rerun().unwrap();
    session
}

fn cache_snapshot() -> [[i64; 3]; 6] {
    STAGES.map(|stage| {
        ["hits", "misses", "invalidations"].map(|o| counter(&names::stage_cache(stage.label(), o)))
    })
}

#[test]
fn stage_contract_is_pinned_for_every_run_kind() {
    use yalla::exec::{CancelToken, Executor, Priority};
    use yalla::store::Store;
    use CacheLookup::{Hit as H, Invalidated as I, Miss as M};

    let _guard = COUNTER_LOCK.lock().unwrap();
    let rows = [
        ContractRow {
            name: "cold",
            setup: |_| Session::with_store(kokkos_options(), kokkos_vfs(), None),
            stages: [M, M, M, M, M, M],
            counts: [1, 2, 0],
            cache: [
                [0, 1, 0],
                [0, 1, 0],
                [0, 1, 0],
                [0, 1, 0],
                [0, 2, 0],
                [0, 1, 0],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "no-op",
            setup: |_| warm_kokkos(kokkos_options()),
            stages: [H, H, H, H, H, H],
            counts: [0, 0, 2],
            cache: [
                [1, 0, 0],
                [1, 0, 0],
                [1, 0, 0],
                [1, 0, 0],
                [2, 0, 0],
                [1, 0, 0],
            ],
            tus_reparsed: 0,
            checkpoints: 2,
        },
        ContractRow {
            name: "main-source comment",
            setup: |_| {
                let mut s = warm_kokkos(kokkos_options());
                append(&mut s, "kernel.cpp", "// tweak");
                s
            },
            stages: [I, I, H, H, I, I],
            counts: [1, 1, 1],
            cache: [
                [0, 1, 1],
                [0, 1, 1],
                [1, 0, 0],
                [1, 0, 0],
                [1, 1, 1],
                [0, 1, 1],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "body edit",
            setup: |_| {
                let mut s = warm_kokkos(kokkos_options());
                replace(
                    &mut s,
                    "kernel.cpp",
                    "int j = m.league_rank();",
                    "int j = m.league_rank();\n  int twice = j * 2;",
                );
                s
            },
            stages: [I, I, I, I, I, I],
            counts: [1, 2, 0],
            cache: [
                [0, 1, 1],
                [0, 1, 1],
                [0, 1, 1],
                [0, 1, 1],
                [0, 2, 2],
                [0, 1, 1],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "used-set growth",
            setup: |_| {
                let mut s = warm_kokkos(kokkos_options());
                append(
                    &mut s,
                    "kernel.cpp",
                    "int probe() { return Kokkos::clamp_index(7); }",
                );
                s
            },
            stages: [I, I, I, I, I, I],
            counts: [1, 2, 0],
            cache: [
                [0, 1, 1],
                [0, 1, 1],
                [0, 1, 1],
                [0, 1, 1],
                [0, 2, 2],
                [0, 1, 1],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "--keep-absorbed growth",
            setup: |_| {
                let mut s = warm_kokkos(Options {
                    extra_symbols: vec!["Kokkos::clamp_index".into()],
                    ..kokkos_options()
                });
                append(
                    &mut s,
                    "kernel.cpp",
                    "int probe() { return Kokkos::clamp_index(7); }",
                );
                s
            },
            stages: [I, I, H, H, I, I],
            counts: [1, 1, 1],
            cache: [
                [0, 1, 1],
                [0, 1, 1],
                [1, 0, 0],
                [1, 0, 0],
                [1, 1, 1],
                [0, 1, 1],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "header edit inside the closure",
            setup: |_| {
                let mut s = warm_kokkos(kokkos_options());
                append(
                    &mut s,
                    "Kokkos_Impl.hpp",
                    "namespace Kokkos { namespace Impl { struct Fresh {}; } }",
                );
                s
            },
            stages: [I, I, H, H, H, I],
            counts: [1, 0, 2],
            cache: [
                [0, 1, 1],
                [0, 1, 1],
                [1, 0, 0],
                [1, 0, 0],
                [2, 0, 0],
                [0, 1, 1],
            ],
            tus_reparsed: 1,
            checkpoints: 9,
        },
        ContractRow {
            name: "fresh-session disk-warm",
            setup: |dir| {
                let store = Arc::new(Store::open(dir).expect("open store"));
                let mut first =
                    Session::with_store(kokkos_options(), kokkos_vfs(), Some(Arc::clone(&store)));
                first.rerun().unwrap();
                Session::with_store(kokkos_options(), kokkos_vfs(), Some(store))
            },
            stages: [H, H, H, H, H, H],
            counts: [0, 0, 2],
            cache: [
                [1, 0, 0],
                [1, 0, 0],
                [1, 0, 0],
                [1, 0, 0],
                [2, 0, 0],
                [1, 0, 0],
            ],
            tus_reparsed: 0,
            checkpoints: 2,
        },
    ];
    let exec = Executor::new(2);
    for row in rows {
        let name = row.name;
        let dir = std::env::temp_dir().join(format!(
            "yalla-contract-{}-{}",
            name.replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = (row.setup)(&dir);

        let cache_before = cache_snapshot();
        let reparsed_before = counter(names::SESSION_TUS_REPARSED);
        let token = CancelToken::new();
        let run = session
            .rerun_with(&exec, &token, Priority::Interactive)
            .unwrap();
        let cache_after = cache_snapshot();

        let stages: Vec<(Stage, CacheLookup)> =
            run.stages.iter().map(|s| (s.stage, s.lookup)).collect();
        let expected: Vec<(Stage, CacheLookup)> = STAGES.into_iter().zip(row.stages).collect();
        assert_eq!(stages, expected, "{name}: stages");
        assert_eq!(
            [
                run.files_reparsed,
                run.rewrites_recomputed,
                run.rewrites_cached
            ],
            row.counts,
            "{name}: files_reparsed, rewrites_recomputed, rewrites_cached"
        );
        for (i, stage) in STAGES.iter().enumerate() {
            let delta: [i64; 3] = std::array::from_fn(|k| cache_after[i][k] - cache_before[i][k]);
            assert_eq!(
                delta, row.cache[i],
                "{name}: cache.{stage}.{{hits,misses,invalidations}}"
            );
        }
        assert_eq!(
            counter(names::SESSION_TUS_REPARSED) - reparsed_before,
            row.tus_reparsed,
            "{name}: session.tus_reparsed"
        );
        assert_eq!(token.checkpoints(), row.checkpoints, "{name}: checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A three-TU mega tree: `tu_0.cpp` is the primary root, `tu_1.cpp` and
/// `tu_2.cpp` are secondary roots with private header chains, and all
/// three include the shared `mg_*` DAG through the facade header.
fn mega_fixture() -> Session {
    use yalla::fuzz::{MegaConfig, MegaProject};
    let cfg = MegaConfig {
        files: 24,
        depth: 2,
        fanout: 2,
        tus: 3,
        seed: 0x15,
    };
    let (vfs, options) = MegaProject::generate(&cfg).render();
    assert_eq!(options.tu_roots.len(), 3);
    Session::with_store(options, vfs, None)
}

fn warm_mega() -> Session {
    let mut session = mega_fixture();
    session.rerun().unwrap();
    session
}

/// One row of the multi-root contract.
struct MegaRow {
    name: &'static str,
    setup: fn() -> Session,
    stages: [CacheLookup; 6],
    files_reparsed: usize,
    /// `cache.analyze.{hits,misses,invalidations}` deltas: one instance
    /// per secondary root's usage plus the analyze node itself.
    analyze: [i64; 3],
}

#[test]
fn multi_root_stage_contract_reanalyzes_only_the_edited_roots() {
    use CacheLookup::{Hit as H, Invalidated as I, Miss as M};

    let _guard = COUNTER_LOCK.lock().unwrap();
    let rows = [
        MegaRow {
            name: "cold",
            setup: mega_fixture,
            stages: [M, M, M, M, M, M],
            files_reparsed: 3,
            analyze: [0, 3, 0],
        },
        MegaRow {
            name: "no-op",
            setup: warm_mega,
            stages: [H, H, H, H, H, H],
            files_reparsed: 0,
            analyze: [3, 0, 0],
        },
        MegaRow {
            name: "secondary TU literal",
            setup: || {
                let mut s = warm_mega();
                bump_literal(&mut s, "tu_1.cpp");
                s
            },
            stages: [I, I, H, H, I, I],
            files_reparsed: 1,
            analyze: [1, 2, 2],
        },
        MegaRow {
            name: "secondary private header",
            setup: || {
                let mut s = warm_mega();
                bump_literal(&mut s, "tu1_p0.hpp");
                s
            },
            stages: [I, I, H, H, H, I],
            files_reparsed: 1,
            analyze: [1, 2, 2],
        },
        MegaRow {
            name: "primary root literal",
            setup: || {
                let mut s = warm_mega();
                bump_literal(&mut s, "tu_0.cpp");
                s
            },
            stages: [I, I, H, H, I, I],
            files_reparsed: 1,
            analyze: [2, 1, 1],
        },
        MegaRow {
            name: "shared header",
            setup: || {
                let mut s = warm_mega();
                bump_literal(&mut s, "mg_1_0.hpp");
                s
            },
            stages: [I, I, H, H, H, I],
            files_reparsed: 3,
            analyze: [0, 3, 3],
        },
        MegaRow {
            name: "secondary used-set growth",
            setup: || {
                let mut s = warm_mega();
                append(
                    &mut s,
                    "tu_2.cpp",
                    "int grow2(int a) { return mg::h1_0(a, 2); }",
                );
                s
            },
            stages: [I, I, I, I, I, I],
            files_reparsed: 1,
            analyze: [1, 2, 2],
        },
    ];
    for row in rows {
        let name = row.name;
        let mut session = (row.setup)();
        let before = cache_snapshot()[Stage::Analyze as usize];
        let run = session.rerun().unwrap();
        let after = cache_snapshot()[Stage::Analyze as usize];

        let stages: Vec<(Stage, CacheLookup)> =
            run.stages.iter().map(|s| (s.stage, s.lookup)).collect();
        let expected: Vec<(Stage, CacheLookup)> = STAGES.into_iter().zip(row.stages).collect();
        assert_eq!(stages, expected, "{name}: stages");
        assert_eq!(
            run.files_reparsed, row.files_reparsed,
            "{name}: files_reparsed"
        );
        let delta: [i64; 3] = std::array::from_fn(|k| after[k] - before[k]);
        assert_eq!(
            delta, row.analyze,
            "{name}: cache.analyze.{{hits,misses,invalidations}}"
        );

        let cold = Engine::new(session.options().clone())
            .run(session.vfs())
            .unwrap();
        let result = &run.result;
        assert_eq!(result.lightweight_header, cold.lightweight_header, "{name}");
        assert_eq!(result.wrappers_file, cold.wrappers_file, "{name}");
        assert_eq!(result.rewritten_sources, cold.rewritten_sources, "{name}");
        let report = &result.report;
        assert!(report.verification.passed(), "{name}");
        assert_eq!(report.verification, cold.report.verification, "{name}");
        assert_eq!(report.before, cold.report.before, "{name}");
        assert_eq!(report.after, cold.report.after, "{name}");
    }
}

/// The fragment pool lives and dies with its session: a second session
/// over the same tree, opened while the first is still alive, builds
/// every include fragment again and reuses none of the first's, so a
/// cold run stays cold. Within one session, a shared-header edit
/// rebuilds the facade's fragment once, and every other root reuses it.
#[test]
fn a_fresh_session_builds_every_fragment_again() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    let cold = |session: &mut Session| {
        let built = counter(names::FRAGMENTS_BUILT);
        let reused = counter(names::FRAGMENTS_REUSED);
        session.rerun().unwrap();
        (
            counter(names::FRAGMENTS_BUILT) - built,
            counter(names::FRAGMENTS_REUSED) - reused,
        )
    };
    let mut first = mega_fixture();
    let first_cold = cold(&mut first);
    let mut second = mega_fixture();
    assert_eq!(
        cold(&mut second),
        first_cold,
        "the second cold run is as cold"
    );
    let (built, _) = first_cold;
    assert!(built > 0);

    // The facade's fragment is built once per cold run: the three roots
    // and the wrappers check share it.
    let options = first.options().clone();
    let facade = first_cold.1;
    assert!(
        facade >= options.tu_roots.len() as i64 - 1,
        "{facade} fragments reused across {} roots",
        options.tu_roots.len()
    );

    append(
        &mut first,
        "mg_1_0.hpp",
        "namespace mg { int edited_probe; }",
    );
    let (built, reused) = cold(&mut first);
    // The facade's fragment, once: the wrappers check builds none for
    // its include of the lightweight header.
    assert_eq!(built, 1, "one rebuild of the facade's fragment");
    assert!(reused >= options.tu_roots.len() as i64, "{reused} reused");
}
