//! **yalla-fuzz** — differential semantic-preservation fuzzing for the
//! Header Substitution engine.
//!
//! The paper's core guarantee (§3, §4.4) is that substitution preserves
//! behavior, not just compilability. This crate machine-checks that
//! claim end to end:
//!
//! * [`grammar`] draws whole random projects — an expensive header
//!   exercising every Table-1 symbol kind plus user sources with
//!   executable entry bodies — from a deterministic RNG;
//! * [`oracle`] runs each project twice on the simulator's abstract
//!   machine (original vs. post-substitution, wrappers TU included) and
//!   compares the observable traces and the `verify` outcome;
//! * [`mod@shrink`] greedily deletes model elements on divergence until a
//!   minimal repro remains;
//! * [`repro`] serializes minimal repros as ready-to-run fixtures under
//!   `tests/repros/`;
//! * [`session_fuzz`] fuzzes *edit streams* through a warm
//!   [`yalla_core::Session`], asserting warm reruns match cold runs
//!   byte for byte;
//! * [`race`] fuzzes *request schedules* against one `yalla serve`
//!   shard from several real threads, asserting concurrent edit/rerun
//!   serialize (or reject) cleanly with no torn cache fingerprints.
//!
//! The `yalla fuzz` CLI subcommand drives a whole campaign.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grammar;
pub mod mega;
pub mod oracle;
pub mod race;
pub mod repro;
pub mod session_fuzz;
pub mod shrink;

pub use grammar::ProjectModel;
pub use mega::{MegaConfig, MegaProject};
pub use oracle::{CaseOutcome, Divergence, ExecTrace, Sabotage};
pub use race::{run_race_case, RaceCaseReport, RaceMismatch};
pub use repro::{parse_fixture, render_fixture, Repro};
pub use session_fuzz::{
    edit_stream_seed, run_session_case, run_session_case_with_store, run_shared_define_case,
    SessionCaseReport,
};
pub use shrink::{shrink, Shrunk};

use yalla_obs::metrics::names;

/// Campaign configuration (`yalla fuzz` flags).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; case seeds are derived from it deterministically.
    pub seed: u64,
    /// Number of differential cases to run.
    pub iters: u64,
    /// Shrink diverging cases to minimal repros.
    pub shrink: bool,
    /// Known-bad rewrite injection (testing hook; `None` in CI).
    pub sabotage: Sabotage,
    /// Also run the session edit-stream mode every this many cases
    /// (0 disables it).
    pub session_every: u64,
    /// Also run the daemon shard-race mode every this many cases
    /// (0 disables it).
    pub race_every: u64,
    /// In race cases, arm the daemon's deterministic cancel-injection:
    /// the first attempt of every rerun trips its cancel token at this
    /// checkpoint, on top of real supersedes from racing edits (0
    /// disables injection).
    pub cancel_every: u64,
    /// Cache dir for session-fuzz cases: each step additionally checks a
    /// warm-from-disk restart against the cold oracle (`None` disables).
    pub store_dir: Option<std::path::PathBuf>,
    /// Entry arguments handed to `fuzz_entry`.
    pub entry_args: (i64, i64),
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 200,
            shrink: false,
            sabotage: Sabotage::None,
            session_every: 25,
            race_every: 50,
            cancel_every: 0,
            store_dir: None,
            entry_args: (3, 5),
        }
    }
}

/// One diverging case, with its optional minimized repro.
#[derive(Debug)]
pub struct DivergenceCase {
    /// Case seed (regenerate with [`ProjectModel::generate`]).
    pub case_seed: u64,
    /// What diverged.
    pub divergence: Divergence,
    /// Minimized repro fixture text, when shrinking was on.
    pub fixture: Option<String>,
    /// Non-blank line count of the minimized project, when shrunk.
    pub shrunk_lines: Option<usize>,
    /// Shrinker deletions performed.
    pub shrink_steps: usize,
}

/// Campaign results.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Differential cases executed.
    pub cases: u64,
    /// Session-fuzz cases executed.
    pub session_cases: u64,
    /// The case seed each session-fuzz case ran under, in order. A
    /// session case at campaign position `i` is seeded by position `i`'s
    /// case seed alone, so this list's prefix is identical across
    /// campaigns that differ only in `--iters` — the replay-stability
    /// test pins that.
    pub session_case_seeds: Vec<u64>,
    /// Warm-vs-cold mismatches across all session cases.
    pub session_mismatches: usize,
    /// Shard-race cases executed.
    pub race_cases: u64,
    /// Race-contract violations across all race cases.
    pub race_mismatches: usize,
    /// Diverging cases.
    pub divergences: Vec<DivergenceCase>,
}

impl CampaignReport {
    /// True when no case diverged and no session or race mismatch
    /// appeared.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty() && self.session_mismatches == 0 && self.race_mismatches == 0
    }
}

/// Runs a whole fuzzing campaign.
///
/// # Errors
///
/// Returns a diagnostic when the session-fuzz mode hits an engine error
/// (differential-case engine errors are recorded as divergences, not
/// returned).
pub fn run_campaign(config: &FuzzConfig) -> Result<CampaignReport, String> {
    let mut master = yalla_corpus::gen::DetRng::new(config.seed);
    let mut report = CampaignReport::default();

    for i in 0..config.iters {
        let case_seed = master.next_u64();
        let model = ProjectModel::generate(case_seed);
        let outcome = oracle::run_case(&model, config.sabotage, config.entry_args);
        report.cases += 1;
        yalla_obs::count(names::FUZZ_CASES, 1);
        if let CaseOutcome::Diverged(divergence) = outcome {
            yalla_obs::count(names::FUZZ_DIVERGENCES, 1);
            let mut case = DivergenceCase {
                case_seed,
                divergence: *divergence,
                fixture: None,
                shrunk_lines: None,
                shrink_steps: 0,
            };
            if config.shrink {
                if let Some(s) = shrink::shrink(&model, config.sabotage, config.entry_args) {
                    case.shrunk_lines = Some(s.model.line_count());
                    case.shrink_steps = s.steps;
                    case.divergence = s.divergence;
                    case.fixture = Some(repro::render_fixture(
                        &s.model,
                        config.sabotage,
                        config.entry_args,
                        &format!("{}", case.divergence),
                    ));
                }
            }
            report.divergences.push(case);
        }

        if config.session_every > 0 && (i + 1) % config.session_every == 0 {
            // The session case is seeded by the case seed directly (the
            // edit stream derives from it inside run_session_case), so a
            // recorded case seed replays the identical project and edit
            // stream no matter what `--iters` the replay runs under.
            let session = session_fuzz::run_session_case_with_store(
                case_seed,
                6,
                config.store_dir.as_deref(),
            )?;
            let shared = session_fuzz::run_shared_define_case(case_seed)?;
            report.session_cases += 1;
            report.session_case_seeds.push(case_seed);
            report.session_mismatches += session.mismatches.len() + shared.mismatches.len();
        }

        if config.race_every > 0 && (i + 1) % config.race_every == 0 {
            let race =
                race::run_race_case_with_cancel(case_seed ^ 0x5a5a, 4, 8, config.cancel_every)?;
            report.race_cases += 1;
            report.race_mismatches += race.mismatches.len();
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_divergence_free() {
        let report = run_campaign(&FuzzConfig {
            seed: 42,
            iters: 10,
            session_every: 5,
            ..FuzzConfig::default()
        })
        .unwrap();
        assert_eq!(report.cases, 10);
        if let Some(d) = report.divergences.first() {
            panic!("seed {} diverged: {}", d.case_seed, d.divergence);
        }
        assert_eq!(report.session_mismatches, 0);
    }

    #[test]
    fn a_define_in_one_roots_include_block_matches_the_cold_run() {
        for seed in [1, 2, 3, 42, 4242] {
            let report = run_shared_define_case(seed).unwrap();
            assert_eq!(report.edits, 4);
            assert!(
                report.mismatches.is_empty(),
                "seed {seed}: {:?}",
                report.mismatches
            );
        }
    }

    #[test]
    fn session_cases_with_a_store_fuzz_disk_warm_restarts_cleanly() {
        let dir = std::env::temp_dir().join(format!("yalla-fuzz-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_campaign(&FuzzConfig {
            seed: 1717,
            iters: 6,
            session_every: 3,
            race_every: 0,
            store_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        })
        .unwrap();
        assert_eq!(report.session_cases, 2);
        assert_eq!(
            report.session_mismatches, 0,
            "warm-from-disk restarts must match the cold oracle and be warm"
        );
        // The streams edit the library header, which changes no root.
        let edits_lib = |seed| {
            let log = run_session_case(seed, 6).unwrap().edit_log;
            log.iter().any(|e| e.starts_with("add library function"))
        };
        assert!(report.session_case_seeds.iter().any(|&s| edits_lib(s)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_case_seeding_is_stable_across_iteration_budgets() {
        // Two campaigns from the same master seed, differing only in
        // `--iters`: the shorter campaign's session-case seeds must be a
        // prefix of the longer one's — replaying under a bigger budget
        // never drifts the cases already seen.
        let short = run_campaign(&FuzzConfig {
            seed: 99,
            iters: 4,
            session_every: 2,
            ..FuzzConfig::default()
        })
        .unwrap();
        let long = run_campaign(&FuzzConfig {
            seed: 99,
            iters: 8,
            session_every: 2,
            ..FuzzConfig::default()
        })
        .unwrap();
        assert_eq!(short.session_case_seeds.len(), 2);
        assert_eq!(long.session_case_seeds.len(), 4);
        assert_eq!(
            short.session_case_seeds,
            long.session_case_seeds[..2],
            "session-case seeds drifted with --iters"
        );
        // And a recorded case seed replays the identical edit stream.
        let a = run_session_case(short.session_case_seeds[0], 5).unwrap();
        let b = run_session_case(short.session_case_seeds[0], 5).unwrap();
        assert_eq!(a.edit_log, b.edit_log);
        assert!(!a.edit_log.is_empty());
    }

    #[test]
    fn sabotage_is_caught_and_shrinks_small() {
        let report = run_campaign(&FuzzConfig {
            seed: 7,
            iters: 3,
            shrink: true,
            sabotage: Sabotage::ProbeOffset,
            session_every: 0,
            ..FuzzConfig::default()
        })
        .unwrap();
        assert!(
            !report.divergences.is_empty(),
            "known-bad rewrite must be detected"
        );
        for d in &report.divergences {
            let lines = d.shrunk_lines.expect("shrunk");
            assert!(d.shrink_steps > 0, "shrinker made no progress");
            assert!(lines <= 25, "repro too large: {lines} lines");
            assert!(d.fixture.is_some());
        }
    }
}
