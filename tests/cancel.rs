//! Cancellation interleaving suite (the tail-latency control guarantee).
//!
//! A rerun superseded by a newer edit stops cooperatively at its next
//! stage boundary. This suite proves the *safety* half of that design:
//! wherever the cancel lands — injected deterministically at every
//! checkpoint a run has, on every worker count — the final state must be
//! byte-identical to a run that was never cancelled. No half-cancelled
//! artifact may survive in the stage caches, the published slot, or the
//! on-disk store.
//!
//! Determinism of the injection matters: [`CancelToken::trip_after`]
//! counts checkpoints atomically, so "cancel at boundary N" means the
//! same boundary every time, regardless of thread timing — the sweep
//! below genuinely visits every boundary instead of sampling whatever
//! the scheduler happened to produce.
//!
//! The sessions and the serve state whose checkpoints and reruns are
//! counted have no store attached (`Session::with_store(.., None)`):
//! `Session::new` would attach the process-wide store when
//! `YALLA_CACHE_DIR` is set, and a disk-warm run passes fewer checkpoints
//! than the sweep expects.

mod common;

use std::sync::Arc;
use std::time::Duration;

use yalla::core::persist::decode_run;
use yalla::core::serve::ServeState;
use yalla::core::{CacheLookup, SessionRun, Stage};
use yalla::exec::{CancelToken, Executor, Priority};
use yalla::obs::json::JsonValue;
use yalla::store::{Store, NS_RUN};
use yalla::{Options, Session, SubstitutionResult, Vfs, YallaError};

use common::append;

/// A deliberately small project — two translation units over one header —
/// so the boundary sweep below (every checkpoint × every worker count)
/// stays cheap enough to run exhaustively. The corpus-subject anchor for
/// the same property lives in `tests/determinism.rs`.
fn small_project() -> (Options, Vfs) {
    let mut vfs = Vfs::new();
    vfs.add_file(
        "rc.hpp",
        "namespace rc { class Widget { public: int id() const; int scale(int k) const; int size() const; }; }\n",
    );
    vfs.add_file(
        "a.cpp",
        "#include \"rc.hpp\"\nint use_a(rc::Widget& w) { return w.id(); }\n",
    );
    vfs.add_file(
        "b.cpp",
        "#include \"rc.hpp\"\nint use_b(rc::Widget& w) { return w.scale(2); }\n",
    );
    let options = Options {
        header: "rc.hpp".to_string(),
        sources: vec!["a.cpp".to_string(), "b.cpp".to_string()],
        ..Options::default()
    };
    (options, vfs)
}

/// The small project's sources as three translation units, each its own
/// parse root: `a.cpp` is the primary root, `b.cpp` and `c.cpp` are
/// secondary roots with a usage node each.
fn three_root_project() -> (Options, Vfs) {
    let (options, mut vfs) = small_project();
    vfs.add_file(
        "c.cpp",
        "#include \"rc.hpp\"\nint use_c(rc::Widget& w) { return w.size(); }\n",
    );
    let sources: Vec<String> = ["a.cpp", "b.cpp", "c.cpp"].map(String::from).into();
    let options = Options {
        sources: sources.clone(),
        tu_roots: sources,
        ..options
    };
    (options, vfs)
}

type Project = fn() -> (Options, Vfs);

/// The observable output of one run, for byte-comparison.
fn fingerprint(result: &SubstitutionResult) -> (String, String, Vec<(String, String)>, String) {
    (
        result.lightweight_header.clone(),
        result.wrappers_file.clone(),
        result
            .rewritten_sources
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        format!("{:?}", result.report.verification),
    )
}

/// Counts how many checkpoints a cold run of the project passes: the
/// boundary axis of the sweep below.
fn boundary_count(options: &Options, vfs: &Vfs) -> u64 {
    let exec = Executor::new(1);
    let mut session = Session::with_store(options.clone(), vfs.clone(), None);
    let token = CancelToken::new();
    session
        .rerun_with(&exec, &token, Priority::Interactive)
        .expect("probe run");
    token.checkpoints()
}

type Edit = fn(&mut Session);

/// A session over `project`, ready for the measured run: cold when
/// `edit` is `None`, otherwise warmed by one run and then edited.
fn prepared(exec: &Executor, project: Project, edit: Option<Edit>) -> Session {
    let (options, vfs) = project();
    let mut session = Session::with_store(options, vfs, None);
    if let Some(edit) = edit {
        session.rerun_on(exec).expect("warm-up run");
        edit(&mut session);
    }
    session
}

/// Cancels the prepared run at every checkpoint it passes, on 1, 2 and 8
/// workers. Recovery on the same session must be byte-identical to an
/// uncancelled run, and the rerun after it fully cached. Returns the
/// number of boundaries swept and the uncancelled run.
fn sweep_every_boundary(project: Project, edit: Option<Edit>) -> (u64, SessionRun) {
    let (clean, boundaries) = {
        let exec = Executor::new(1);
        let mut session = prepared(&exec, project, edit);
        let token = CancelToken::new();
        let run = session
            .rerun_with(&exec, &token, Priority::Interactive)
            .expect("clean run");
        (run, token.checkpoints())
    };
    let baseline = fingerprint(&clean.result);
    for workers in [1usize, 2, 8] {
        let exec = Executor::new(workers);
        for boundary in 1..=boundaries {
            let mut session = prepared(&exec, project, edit);
            let token = CancelToken::new();
            token.trip_after(boundary);
            match session.rerun_with(&exec, &token, Priority::Interactive) {
                Err(YallaError::Cancelled) => {}
                Ok(_) => panic!(
                    "run survived a token armed for boundary {boundary}/{boundaries} \
                     on {workers} workers"
                ),
                Err(e) => panic!("unexpected error at boundary {boundary}: {e}"),
            }
            // Recovery on the *same session*: whatever the cancelled
            // attempt left memoized must compose into byte-identical
            // artifacts, not a Franken-run.
            let run = session.rerun_on(&exec).unwrap_or_else(|e| {
                panic!("recovery after boundary {boundary} on {workers} workers: {e}")
            });
            assert_eq!(
                fingerprint(&run.result),
                baseline,
                "artifacts diverged after a cancel at boundary {boundary}/{boundaries} \
                 on {workers} workers"
            );
            // And the recovered session is genuinely warm: one more
            // rerun must hit every stage cache.
            let warm = session.rerun_on(&exec).expect("warm rerun");
            assert!(
                warm.fully_cached(),
                "caches poisoned by a cancel at boundary {boundary} on {workers} workers: {}",
                warm.summary_line()
            );
        }
    }
    (boundaries, clean)
}

#[test]
fn cancellation_at_every_boundary_leaves_artifacts_byte_identical() {
    // Entry + store boundary + one checkpoint per live node (parse,
    // analyze, plan, emit, one per rewritten source, verify): 2 + 4 +
    // 2 + 1 for this two-source project.
    assert_eq!(
        sweep_every_boundary(small_project, None).0,
        9,
        "expected 9 cancel points for a two-source cold run"
    );
}

/// Warm edits mix cached and live nodes: a comment on `a.cpp` re-parses
/// and re-analyzes, and plan and emit re-run as live nodes that hit.
#[test]
fn cancellation_during_a_warm_comment_edit_leaves_artifacts_byte_identical() {
    let (boundaries, clean) =
        sweep_every_boundary(small_project, Some(|s| append(s, "a.cpp", "// tweak")));
    assert_eq!(
        boundaries, 9,
        "every stage is a live node after a parse miss"
    );
    assert!(
        clean.outcome(Stage::Plan).is_hit(),
        "{}",
        clean.summary_line()
    );
}

/// Used-set growth: `a.cpp` starts calling a method no source used, so
/// plan and emit recompute too.
#[test]
fn cancellation_during_used_set_growth_leaves_artifacts_byte_identical() {
    let (boundaries, clean) = sweep_every_boundary(
        small_project,
        Some(|s| append(s, "a.cpp", "int grow_a(rc::Widget& w) { return w.size(); }")),
    );
    assert_eq!(
        boundaries, 9,
        "every stage is a live node after a parse miss"
    );
    assert_eq!(
        clean.outcome(Stage::Plan),
        CacheLookup::Invalidated,
        "{}",
        clean.summary_line()
    );
}

/// Three roots, cold: entry + store boundary + one checkpoint per live
/// node (three parses, two secondary-root usages, analyze, plan, emit,
/// three rewrites, verify).
#[test]
fn cancellation_of_a_cold_multi_root_run_leaves_artifacts_byte_identical() {
    let (boundaries, clean) = sweep_every_boundary(three_root_project, None);
    assert_eq!(
        boundaries, 14,
        "expected 14 cancel points for a three-root cold run"
    );
    assert_eq!(clean.files_reparsed, 3);
}

/// A comment on secondary root `b.cpp`: only its parse and usage nodes
/// are live among the roots; `a.cpp`'s parse and `c.cpp`'s parse and
/// usage are cached nodes with no cancel point.
#[test]
fn cancellation_during_a_secondary_root_edit_leaves_artifacts_byte_identical() {
    let (boundaries, clean) =
        sweep_every_boundary(three_root_project, Some(|s| append(s, "b.cpp", "// tweak")));
    assert_eq!(
        boundaries, 11,
        "entry + store + parse b + usage b + analyze + plan + emit + 3 rewrites + verify"
    );
    assert_eq!(clean.files_reparsed, 1);
    assert!(
        clean.outcome(Stage::Plan).is_hit(),
        "{}",
        clean.summary_line()
    );
}

#[test]
fn cancelled_runs_persist_no_torn_store_records() {
    let dir = std::env::temp_dir().join(format!("yalla-cancel-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir).expect("open store"));
    let (options, vfs) = small_project();
    let baseline = {
        let exec = Executor::new(1);
        let mut session = Session::with_store(options.clone(), vfs.clone(), None);
        fingerprint(&session.rerun_on(&exec).expect("clean run").result)
    };
    let boundaries = boundary_count(&options, &vfs);
    // Hammer the same store with runs cancelled at every boundary. As
    // stages land on disk the later sweeps start disk-warm, so the
    // injection point drifts across the whole lookup-and-recompute
    // surface — exactly the interleavings a busy daemon produces.
    for boundary in 1..=boundaries {
        let exec = Executor::new(2);
        let mut session =
            Session::with_store(options.clone(), vfs.clone(), Some(Arc::clone(&store)));
        let token = CancelToken::new();
        token.trip_after(boundary);
        let _ = session.rerun_with(&exec, &token, Priority::Interactive);
    }
    // Oracle 1: every run bundle in the store decodes whole. A cancelled
    // attempt either never persisted its bundle or persisted all of it.
    for key in store.keys(NS_RUN) {
        let view = store.get_view(NS_RUN, key).expect("readable record");
        assert!(
            decode_run(&view).is_some(),
            "torn run bundle under key {key:016x}"
        );
    }
    // Oracle 2: a fresh session over that store still answers
    // byte-identically to the never-cancelled baseline.
    let exec = Executor::new(2);
    let mut session = Session::with_store(options, vfs, Some(Arc::clone(&store)));
    let run = session.rerun_on(&exec).expect("disk-warm run");
    assert_eq!(fingerprint(&run.result), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

fn field_u64(response: &str, key: &str) -> u64 {
    yalla::obs::json::parse(response)
        .expect("valid JSON")
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing `{key}` in {response}")) as u64
}

fn serve_source(rev: u64) -> String {
    format!("#include \\\"lib.hpp\\\"\\nint f(K::W& w) {{ return w.id() + {rev}; }}\\n")
}

#[test]
fn superseding_edits_cancel_the_inflight_rerun_and_coalesce() {
    let state = Arc::new(ServeState::with_store(Executor::new(2), None));
    // A slow subject: 300ms of modeled build latency gives the edits
    // below a wide window to land mid-rerun.
    let open = format!(
        "{{\"op\": \"open\", \"project\": \"slow\", \"header\": \"lib.hpp\", \
         \"sources\": [\"main.cpp\"], \"build_latency_us\": 300000, \"files\": {{\
         \"lib.hpp\": \"namespace K {{ class W {{ public: int id() const; }}; }}\\n\", \
         \"main.cpp\": \"{}\"}}}}",
        serve_source(0)
    );
    let r = state.handle_line(&open);
    assert!(r.text.contains("\"created\": true"), "{}", r.text);

    let rerun = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || state.handle_line("{\"op\": \"rerun\", \"project\": \"slow\"}"))
    };
    // Two superseding edits while the rerun sleeps its modeled build.
    std::thread::sleep(Duration::from_millis(60));
    for rev in [1u64, 2] {
        let edit = format!(
            "{{\"op\": \"edit\", \"project\": \"slow\", \"path\": \"main.cpp\", \"text\": \"{}\"}}",
            serve_source(rev)
        );
        let r = state.handle_line(&edit);
        assert!(r.text.contains("\"ok\": true"), "{}", r.text);
        std::thread::sleep(Duration::from_millis(60));
    }
    let response = rerun.join().expect("rerun thread").text;
    // Exactly one rerun completed, having absorbed both edits through at
    // least one cancelled round.
    assert!(response.contains("\"ok\": true"), "{response}");
    assert_eq!(field_u64(&response, "reruns"), 1, "{response}");
    assert_eq!(field_u64(&response, "edits_applied"), 2, "{response}");
    assert!(field_u64(&response, "superseded") >= 1, "{response}");
    // The published artifact is the *final* source, not a stale one.
    let got = state
        .handle_line("{\"op\": \"get\", \"project\": \"slow\", \"artifact\": \"source:main.cpp\"}");
    assert!(got.text.contains("+ 2"), "{}", got.text);
    let status = state.handle_line("{\"op\": \"status\"}");
    assert!(status.text.contains("\"cancelled\":"), "{}", status.text);
}
