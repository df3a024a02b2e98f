//! End-to-end tests of the incremental session layer: cache invalidation
//! granularity and the §6 "no re-run needed" steady state. Tests that
//! assert on process-global counters live in `session_counters.rs`.

mod common;

use proptest::prelude::*;
use yalla::core::{CacheLookup, Stage};
use yalla::{Engine, Options, Session, Vfs};

use common::{append, kokkos_options, kokkos_session, kokkos_vfs};

#[test]
fn editing_one_source_reparses_one_tu_and_keeps_the_plan() {
    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();

    // A trailing comment after the lambda: the TU must re-parse, but the
    // used-symbol set (and every span the plan stores) is unchanged, so
    // plan and emit are skipped — the paper's §6 steady state.
    append(&mut session, "kernel.cpp", "// tweak");
    let run = session.rerun().unwrap();
    assert_eq!(run.files_reparsed, 1, "exactly one TU re-parses");
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Analyze), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
    // Only the edited source's rewrite recomputes.
    assert_eq!(run.rewrites_recomputed, 1);
    assert_eq!(run.rewrites_cached, 1);
    assert_eq!(
        run.result.rewritten_sources["functor.hpp"],
        cold.result.rewritten_sources["functor.hpp"]
    );
    assert!(run.result.rewritten_sources["kernel.cpp"].contains("// tweak"));
    // The generated artifacts did not change.
    assert_eq!(
        run.result.lightweight_header,
        cold.result.lightweight_header
    );
    assert_eq!(run.result.wrappers_file, cold.result.wrappers_file);
}

#[test]
fn editing_a_header_dependency_invalidates_downstream() {
    let mut session = kokkos_session();
    session.rerun().unwrap();

    // Growing the *header* changes the include closure, so parse and
    // analyze recompute; the used set is unchanged, so the plan holds.
    append(
        &mut session,
        "Kokkos_Impl.hpp",
        "namespace Kokkos { namespace Impl { struct Fresh {}; } }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.files_reparsed, 1);
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
}

#[test]
fn growing_the_used_set_recomputes_plan_and_emit() {
    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();
    assert!(!cold.result.lightweight_header.contains("clamp_index"));

    // The edit starts using a header function no source used before: the
    // usage fingerprint changes and plan/emit must re-run (§6: this is
    // the one edit class that needs the tool again).
    append(
        &mut session,
        "kernel.cpp",
        "int probe() { return Kokkos::clamp_index(7); }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Invalidated);
    assert!(
        run.result.lightweight_header.contains("clamp_index"),
        "{}",
        run.result.lightweight_header
    );
}

#[test]
fn pre_declared_symbols_absorb_growth_into_them() {
    // With `clamp_index` pre-declared (§6 extra symbols), the same growth
    // edit leaves the fingerprint stable: the symbol was already planned
    // for, so plan and emit stay cached.
    let options = Options {
        extra_symbols: vec!["Kokkos::clamp_index".into()],
        ..kokkos_options()
    };
    let mut session = Session::new(options, kokkos_vfs());
    let cold = session.rerun().unwrap();
    assert!(cold.result.lightweight_header.contains("clamp_index"));

    append(
        &mut session,
        "kernel.cpp",
        "int probe() { return Kokkos::clamp_index(7); }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
    assert_eq!(
        run.result.lightweight_header,
        cold.result.lightweight_header
    );
    // `clamp_index` is forward declared in the (pre-built) lightweight
    // header, so the new call stays direct and needs no rewriting.
    assert!(
        run.result.rewritten_sources["kernel.cpp"].contains("Kokkos::clamp_index(7)"),
        "{}",
        run.result.rewritten_sources["kernel.cpp"]
    );
}

#[test]
fn all_missing_sources_are_reported_in_one_error() {
    let options = Options {
        sources: vec![
            "kernel.cpp".into(),
            "missing_a.cpp".into(),
            "functor.hpp".into(),
            "missing_b.cpp".into(),
        ],
        ..kokkos_options()
    };
    let err = Session::new(options, kokkos_vfs()).rerun().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("missing_a.cpp") && msg.contains("missing_b.cpp"),
        "{msg}"
    );
}

#[test]
fn verification_preprocesses_with_the_run_defines() {
    // The header only compiles with `WITH_BIG` set, which the run passes
    // as a `-D`: every verify parse must see it, like the parse stage.
    let mut vfs = Vfs::new();
    vfs.add_file(
        "lib.hpp",
        "#pragma once\n#ifdef WITH_BIG\nnamespace L { class Big { public: int id(); }; }\n\
         #else\n#error WITH_BIG required\n#endif\n",
    );
    vfs.add_file(
        "main.cpp",
        "#include <lib.hpp>\nint f(L::Big& b) { return b.id(); }\n",
    );
    let options = Options {
        header: "lib.hpp".into(),
        sources: vec!["main.cpp".into()],
        defines: vec![("WITH_BIG".into(), "1".into())],
        ..Options::default()
    };
    let result = Engine::new(options).run(&vfs).unwrap();
    let v = &result.report.verification;
    assert!(v.sources_parse && v.wrappers_parse, "{v:?}");
    assert!(v.passed());
}

#[test]
fn apply_edit_rejects_unknown_paths() {
    let mut session = kokkos_session();
    assert!(session.apply_edit("nope.cpp", "int x;").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical reruns are always 100% cache hits, however many times.
    #[test]
    fn identical_reruns_always_hit(n in 1usize..4) {
        let mut session = kokkos_session();
        session.rerun().unwrap();
        for _ in 0..n {
            // `touch`: rewrite a file with identical content — the hash is
            // unchanged, so this must not invalidate anything.
            let id = session.vfs().lookup("kernel.cpp").unwrap();
            let same = session.vfs().text(id).to_string();
            session.apply_edit("kernel.cpp", same).unwrap();
            let run = session.rerun().unwrap();
            prop_assert!(run.fully_cached());
            prop_assert_eq!(run.files_reparsed, 0);
        }
    }

    /// Trailing-comment edits re-parse but never rebuild the plan: the
    /// used-symbol set is unchanged, whatever the comment says.
    #[test]
    fn trailing_comments_never_rebuild_the_plan(comments in prop::collection::vec("[ a-zA-Z0-9_+*()]{0,24}", 1..4)) {
        let mut session = kokkos_session();
        let cold = session.rerun().unwrap();
        for c in &comments {
            append(&mut session, "kernel.cpp", &format!("// {c}"));
            let run = session.rerun().unwrap();
            prop_assert_eq!(run.files_reparsed, 1);
            prop_assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
            prop_assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
            prop_assert_eq!(
                run.result.lightweight_header.clone(),
                cold.result.lightweight_header.clone()
            );
        }
    }
}
