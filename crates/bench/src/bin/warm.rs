//! Measures cold vs. warm incremental-session reruns across the corpus.
//!
//! For every evaluation subject the bench holds one [`Session`] and times:
//!
//! * **tool-cold** — the first `rerun()` (every stage misses; this is what
//!   a one-shot `Engine::run` costs),
//! * **tool-warm** — an immediate no-op `rerun()` (every stage hits; the
//!   cost of revalidating the content hashes),
//! * **tool-warm-edit** — a `rerun()` after appending a trailing comment
//!   to the main source (one TU re-parses, but the used-symbol set is
//!   unchanged so plan/emit stay cached — the paper's §6 steady state),
//! * **tool-warm-body-edit** — a `rerun()` after bumping the first integer
//!   literal inside a function body of the main source
//!   ([`yalla_corpus::bump_body_literal`]); subjects without one have no
//!   such row.
//!
//! Each record's phases are the engine's span-measured [`Timings`] (zero
//! for cached stages) plus a `wall` entry with the end-to-end rerun time.
//! Writes `results/BENCH_warm.json`, and prints each subject's
//! warm-edit and warm-body-edit / cold ratios against the 25 % target.
//! Exits non-zero when a run fails, a no-op rerun is not below cold, or a
//! warm edit of either kind costs half a cold run or more.

use std::time::Instant;

use yalla_bench::results::{write_records, RunRecord};
use yalla_core::{Options, Session, SessionRun, Timings, YallaError};
use yalla_corpus::{all_subjects, bump_body_literal};

fn record(subject: &str, config: &str, timings: &Timings, wall_us: f64) -> RunRecord {
    RunRecord {
        subject: subject.to_string(),
        config: config.to_string(),
        phase_us: vec![
            ("parse".to_string(), timings.parse.as_secs_f64() * 1e6),
            ("analyze".to_string(), timings.analyze.as_secs_f64() * 1e6),
            ("plan".to_string(), timings.plan.as_secs_f64() * 1e6),
            ("generate".to_string(), timings.generate.as_secs_f64() * 1e6),
            ("verify".to_string(), timings.verify.as_secs_f64() * 1e6),
            ("wall".to_string(), wall_us),
        ],
    }
}

fn timed(session: &mut Session) -> Result<(SessionRun, f64), YallaError> {
    let start = Instant::now();
    let run = session.rerun()?;
    Ok((run, start.elapsed().as_secs_f64() * 1e6))
}

fn main() {
    let mut records = Vec::new();
    let mut failures = 0usize;
    println!(
        "{:<10} {:>12} {:>12} {:>14}  warm speedup",
        "subject", "cold (µs)", "warm (µs)", "warm+edit (µs)"
    );
    for subject in all_subjects() {
        let options = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        let mut session = Session::new(options, subject.vfs.clone());
        let (cold, cold_us) = match timed(&mut session) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: cold run failed: {e}", subject.name);
                failures += 1;
                continue;
            }
        };
        let (warm, warm_us) = match timed(&mut session) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: warm run failed: {e}", subject.name);
                failures += 1;
                continue;
            }
        };
        assert!(
            warm.fully_cached() && warm.files_reparsed == 0,
            "{}: no-op rerun must be fully cached",
            subject.name
        );

        // Trailing comment on the main source: reparse, same used set.
        let main = &subject.main_source;
        let id = session.vfs().lookup(main).expect("main source exists");
        let edited = format!("{}\n// bench tweak\n", session.vfs().text(id));
        session.apply_edit(main, edited).expect("edit applies");
        let (edit, edit_us) = match timed(&mut session) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: warm-edit run failed: {e}", subject.name);
                failures += 1;
                continue;
            }
        };
        // A literal in a function body: reparse, same used set.
        let body = bump_body_literal(session.vfs().text(id)).map(|bumped| {
            session.apply_edit(main, bumped).expect("edit applies");
            timed(&mut session)
        });
        let body = match body.transpose() {
            Ok(body) => body,
            Err(e) => {
                eprintln!("{}: warm-body-edit run failed: {e}", subject.name);
                failures += 1;
                continue;
            }
        };

        if warm_us >= cold_us {
            eprintln!(
                "{}: warm rerun ({warm_us:.0} µs) not below cold ({cold_us:.0} µs)",
                subject.name
            );
            failures += 1;
        }
        let body_us = body.as_ref().map(|(_, us)| *us);
        for (kind, us) in [("edit", Some(edit_us)), ("body edit", body_us)] {
            let Some(us) = us.filter(|&us| us >= 0.5 * cold_us) else {
                continue;
            };
            eprintln!(
                "{}: warm {kind} ({us:.0} µs) not below half of cold ({cold_us:.0} µs)",
                subject.name
            );
            failures += 1;
        }
        let percent = |us: f64| {
            let ratio = us / cold_us;
            let target = if ratio <= 0.25 { "within" } else { "above" };
            format!("{:>5.1} % ({target} the 25 % target)", ratio * 100.0)
        };
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>14.0}  {:>6.0}x  edit/cold {}, body/cold {}, edit reparsed {}",
            subject.name,
            cold_us,
            warm_us,
            edit_us,
            cold_us / warm_us.max(1.0),
            percent(edit_us),
            body_us.map_or("-".to_string(), percent),
            edit.files_reparsed,
        );
        records.push(record(
            subject.name,
            "tool-cold",
            &cold.result.timings,
            cold_us,
        ));
        records.push(record(
            subject.name,
            "tool-warm",
            &warm.result.timings,
            warm_us,
        ));
        records.push(record(
            subject.name,
            "tool-warm-edit",
            &edit.result.timings,
            edit_us,
        ));
        if let Some((body, body_us)) = body {
            records.push(record(
                subject.name,
                "tool-warm-body-edit",
                &body.result.timings,
                body_us,
            ));
        }
    }

    match write_records(std::path::Path::new("results"), "warm", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
}
