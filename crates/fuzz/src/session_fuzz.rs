//! Session-backed edit-stream fuzzing.
//!
//! This mode stresses the incremental layer's cache keys: it holds one
//! warm [`Session`] over a generated project, applies a random stream of
//! syntactically valid edits (new user statements, new library
//! functions, identical-content touches, driver edits outside the
//! engine's input set, and a `#define` added to or removed from the main
//! source's include block that the library tests with `#ifdef`, which a
//! stale include fragment would miss), and after every edit asserts that the warm
//! rerun's artifacts are byte-identical to a cold engine run over the
//! same file state, and that its verification verdict and before/after
//! statistics are equal to the cold run's. Any difference means a cache
//! key failed to capture an input.
//!
//! A second leg ([`run_shared_define_case`]) makes the driver a second
//! TU root, so that the roots share the library header's include
//! fragment, and defines the library's flag in one root's include block
//! at a time: the fragment must miss for that root alone.
//!
//! With a store dir attached, every step additionally simulates a
//! process restart: a *fresh* session (fresh [`Store`] handle, empty
//! memory caches) over the same file state reruns warm-from-disk and is
//! held to the same byte-identical oracle, and must be fully cached
//! whenever the step persisted a bundle — fuzzing the on-disk cache keys
//! the same way the in-memory ones are fuzzed.

use std::path::Path;
use std::sync::Arc;

use yalla_core::{Engine, Session, SubstitutionResult};
use yalla_corpus::gen::DetRng;
use yalla_store::Store;

use crate::grammar::{ProjectModel, UserStmt, DRIVER_SOURCE, LIB_HEADER, MAIN_SOURCE, WIDE_FLAG};

/// One warm-vs-cold mismatch.
#[derive(Debug, Clone)]
pub struct SessionMismatch {
    /// Edit number (1-based) after which the mismatch appeared.
    pub step: usize,
    /// What the edit was.
    pub edit: String,
    /// Which artifact differed.
    pub artifact: String,
}

/// Outcome of one session-fuzz case.
#[derive(Debug)]
pub struct SessionCaseReport {
    /// Edits applied.
    pub edits: usize,
    /// Description of every edit, in application order. Because the edit
    /// stream is a pure function of the case seed (see
    /// [`edit_stream_seed`]), replaying the same case seed must
    /// reproduce this log byte-for-byte — the replay-stability test
    /// holds it to that.
    pub edit_log: Vec<String>,
    /// Mismatches found (empty on success).
    pub mismatches: Vec<SessionMismatch>,
    /// Identical-content touches that still re-ran a stage (cache
    /// over-invalidation; informational, not a failure).
    pub touch_recomputes: usize,
}

/// The random edits the stream draws from.
#[derive(Debug, Clone, Copy)]
enum EditKind {
    AppendUserStmt,
    AppendLibFn,
    TouchMain,
    TouchDriver,
    TweakDriver,
    /// Adds or removes the main source's `#define` of the flag the
    /// library tests with `#ifdef`: an edit inside the include block
    /// that changes the library's expansion.
    ToggleDefine,
}

/// Derives the edit-stream RNG seed from a case seed — a pure
/// splitmix64-style mix, so the stream is a function of the case seed
/// *alone*. Campaign position (`--iters`, `--session-every` cadence)
/// must never leak into it: a divergence replayed later, under a
/// different iteration budget, has to walk the exact same edits.
pub fn edit_stream_seed(case_seed: u64) -> u64 {
    let mut z = case_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one session-fuzz case: `edits` random edits against the project
/// generated from `seed`, checking warm-vs-cold equivalence after each.
///
/// # Errors
///
/// Returns a diagnostic when the engine itself fails (which the
/// generator is expected to avoid).
pub fn run_session_case(seed: u64, edits: usize) -> Result<SessionCaseReport, String> {
    run_session_case_with_store(seed, edits, None)
}

/// Like [`run_session_case`], optionally backed by an on-disk store at
/// `store_dir`: after each edit's warm-vs-cold check, a fresh session
/// (simulating a restarted process that has only the cache dir) reruns
/// warm-from-disk and its artifacts are compared against the cold oracle
/// too. Disk mismatches are reported with a `disk:` artifact prefix, and
/// a restart that recomputes after a step that persisted its bundle as
/// `disk:warmth`.
///
/// # Errors
///
/// Returns a diagnostic when the engine fails or the store dir cannot be
/// opened.
pub fn run_session_case_with_store(
    seed: u64,
    edits: usize,
    store_dir: Option<&Path>,
) -> Result<SessionCaseReport, String> {
    let store = match store_dir {
        Some(dir) => {
            Some(Arc::new(Store::open(dir).map_err(|e| {
                format!("opening store {}: {e}", dir.display())
            })?))
        }
        None => None,
    };
    let mut model = ProjectModel::generate(seed);
    model.wide_flag = Some(false);
    let (vfs, options) = model.render();
    let mut session = Session::with_store(options.clone(), vfs, store.clone());
    session.rerun().map_err(|e| format!("cold run: {e}"))?;

    let mut rng = DetRng::new(edit_stream_seed(seed));
    let mut report = SessionCaseReport {
        edits: 0,
        edit_log: Vec::new(),
        mismatches: Vec::new(),
        touch_recomputes: 0,
    };
    let mut extra_lib_fns = 0usize;

    for step in 1..=edits {
        let kind = match rng.next(6) {
            0 => EditKind::AppendUserStmt,
            1 => EditKind::AppendLibFn,
            2 => EditKind::TouchMain,
            3 => EditKind::TouchDriver,
            4 => EditKind::TweakDriver,
            _ => EditKind::ToggleDefine,
        };
        let description = apply_edit(&mut session, &mut model, kind, &mut rng, &mut extra_lib_fns)?;
        report.edits += 1;
        report.edit_log.push(description.clone());

        let warm = session.rerun().map_err(|e| format!("warm rerun: {e}"))?;
        if matches!(kind, EditKind::TouchMain | EditKind::TouchDriver) && !warm.fully_cached() {
            report.touch_recomputes += 1;
        }
        let cold = Engine::new(options.clone())
            .run(session.vfs())
            .map_err(|e| format!("cold comparison run: {e}"))?;

        for artifact in differing_outputs(&warm.result, &cold) {
            report.mismatches.push(SessionMismatch {
                step,
                edit: description.clone(),
                artifact: artifact.to_string(),
            });
        }

        // Restart simulation: a fresh session with a fresh store handle
        // on the same dir — only the cache dir survives — must reproduce
        // the cold artifacts from disk, and must not recompute when the
        // warm rerun persisted its bundle (a run whose verification found
        // violations persists none).
        if let Some(dir) = store_dir {
            let restart_store = Arc::new(
                Store::open(dir).map_err(|e| format!("reopening store {}: {e}", dir.display()))?,
            );
            let restart =
                Session::with_store(options.clone(), session.vfs().clone(), Some(restart_store))
                    .rerun()
                    .map_err(|e| format!("disk-warm rerun: {e}"))?;
            let persisted = warm.result.report.verification.violations.is_empty();
            let cold_restart = (persisted && !restart.fully_cached()).then_some("warmth");
            for artifact in differing_outputs(&restart.result, &cold)
                .into_iter()
                .chain(cold_restart)
            {
                report.mismatches.push(SessionMismatch {
                    step,
                    edit: description.clone(),
                    artifact: format!("disk:{artifact}"),
                });
            }
        }
    }
    Ok(report)
}

/// The shared-fragment leg. The project generated from `seed` gets its
/// driver as a second TU root, so both roots (and the wrappers check)
/// reach the library header in the same state and share one include
/// fragment of it. The leg then defines the flag the library tests with
/// `#ifdef` in one root's include block, first the driver's, then the
/// main source's, and removes it again: the edited root's include of the
/// library must miss the shared fragment while the other root's still
/// reuses it. After every step the warm rerun must equal a cold engine
/// run over the same files.
///
/// # Errors
///
/// Returns a diagnostic when the engine fails.
pub fn run_shared_define_case(seed: u64) -> Result<SessionCaseReport, String> {
    let mut model = ProjectModel::generate(seed);
    model.wide_flag = Some(false);
    let (vfs, mut options) = model.render();
    options.tu_roots = vec![MAIN_SOURCE.to_string(), DRIVER_SOURCE.to_string()];
    let text_of = |vfs: &yalla_cpp::vfs::Vfs, path: &str| {
        vfs.lookup(path)
            .map(|id| vfs.text(id).to_string())
            .ok_or_else(|| format!("no `{path}` in the project"))
    };
    let (driver, main) = (text_of(&vfs, DRIVER_SOURCE)?, text_of(&vfs, MAIN_SOURCE)?);
    let mut session = Session::with_store(options.clone(), vfs, None);
    session.rerun().map_err(|e| format!("cold run: {e}"))?;
    model.wide_flag = Some(true);
    let steps = [
        (DRIVER_SOURCE, format!("#define {WIDE_FLAG} 1\n{driver}")),
        (MAIN_SOURCE, model.render_main()),
        (DRIVER_SOURCE, driver),
        (MAIN_SOURCE, main),
    ];
    let mut report = SessionCaseReport {
        edits: 0,
        edit_log: Vec::new(),
        mismatches: Vec::new(),
        touch_recomputes: 0,
    };
    for (step, (path, text)) in steps.into_iter().enumerate() {
        let defined = text.contains(&format!("#define {WIDE_FLAG}"));
        let description = format!(
            "{} {WIDE_FLAG} in {path}",
            if defined { "define" } else { "undefine" }
        );
        session.apply_edit(path, text).map_err(|e| e.to_string())?;
        let warm = session
            .rerun()
            .map_err(|e| format!("warm rerun after `{description}`: {e}"))?;
        let cold = Engine::new(options.clone())
            .run(session.vfs())
            .map_err(|e| format!("cold comparison run: {e}"))?;
        for artifact in differing_outputs(&warm.result, &cold) {
            report.mismatches.push(SessionMismatch {
                step: step + 1,
                edit: description.clone(),
                artifact: artifact.to_string(),
            });
        }
        report.edits += 1;
        report.edit_log.push(description);
    }
    Ok(report)
}

/// The outputs in which a warm run differs from the cold oracle: the
/// three artifacts, plus the verdict and the before/after statistics, so
/// a stale cached verification cannot go unnoticed.
fn differing_outputs(warm: &SubstitutionResult, cold: &SubstitutionResult) -> Vec<&'static str> {
    let (w, c) = (&warm.report, &cold.report);
    [
        (
            "lightweight_header",
            warm.lightweight_header != cold.lightweight_header,
        ),
        ("wrappers_file", warm.wrappers_file != cold.wrappers_file),
        (
            "rewritten_sources",
            warm.rewritten_sources != cold.rewritten_sources,
        ),
        ("verification", w.verification != c.verification),
        ("before", w.before != c.before),
        ("after", w.after != c.after),
    ]
    .into_iter()
    .filter_map(|(artifact, differs)| differs.then_some(artifact))
    .collect()
}

fn apply_edit(
    session: &mut Session,
    model: &mut ProjectModel,
    kind: EditKind,
    rng: &mut DetRng,
    extra_lib_fns: &mut usize,
) -> Result<String, String> {
    let text_of = |session: &Session, path: &str| -> Result<String, String> {
        let id = session
            .vfs()
            .lookup(path)
            .ok_or_else(|| format!("no `{path}` in session"))?;
        Ok(session.vfs().text(id).to_string())
    };
    match kind {
        EditKind::AppendUserStmt => {
            let f = rng.next(model.user_fns.len().max(1));
            let stmt = match rng.next(3) {
                0 => UserStmt::Probe(6_000 + rng.next(400) as i64),
                1 => UserStmt::Update {
                    n: 0,
                    op: '+',
                    expr: format!("{}", 1 + rng.next(30)),
                },
                _ => UserStmt::ProbeLocal(0),
            };
            // Keep the trailing probe/return shape: insert before the end.
            let fun = &mut model.user_fns[f];
            let at = fun.stmts.len().saturating_sub(1);
            fun.stmts.insert(at, stmt);
            let index = fun.index;
            session
                .apply_edit(MAIN_SOURCE, model.render_main())
                .map_err(|e| e.to_string())?;
            Ok(format!("append statement to u{index}"))
        }
        EditKind::AppendLibFn => {
            *extra_lib_fns += 1;
            model.free_fns.push(crate::grammar::FreeFnModel {
                name: format!("ffx{extra_lib_fns}"),
                k: 1 + rng.next(9) as i64,
            });
            session
                .apply_edit(LIB_HEADER, model.render_lib())
                .map_err(|e| e.to_string())?;
            Ok(format!("add library function ffx{extra_lib_fns}"))
        }
        EditKind::TouchMain => {
            let same = text_of(session, MAIN_SOURCE)?;
            session
                .apply_edit(MAIN_SOURCE, same)
                .map_err(|e| e.to_string())?;
            Ok("touch main.cpp".to_string())
        }
        EditKind::TouchDriver => {
            let same = text_of(session, DRIVER_SOURCE)?;
            session
                .apply_edit(DRIVER_SOURCE, same)
                .map_err(|e| e.to_string())?;
            Ok("touch driver.cpp".to_string())
        }
        EditKind::ToggleDefine => {
            let defined = !model.wide_flag.unwrap_or(false);
            model.wide_flag = Some(defined);
            session
                .apply_edit(MAIN_SOURCE, model.render_main())
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "{} {WIDE_FLAG} in main.cpp",
                if defined { "define" } else { "undefine" }
            ))
        }
        EditKind::TweakDriver => {
            let mut text = text_of(session, DRIVER_SOURCE)?;
            text.push_str(&format!("// pad {}\n", rng.next(1_000_000)));
            session
                .apply_edit(DRIVER_SOURCE, text)
                .map_err(|e| e.to_string())?;
            Ok("append comment to driver.cpp".to_string())
        }
    }
}
