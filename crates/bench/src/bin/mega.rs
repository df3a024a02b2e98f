//! Mega-corpus bench: cold/warm wall-clock and peak resident bytes for
//! the generated 1k–10k-file project trees at 1, 2, and 8 workers.
//!
//! For every preset (`mega-1k`, `mega-4k`, `mega-10k`) and worker count
//! the bench runs a cold session (every TU parses) and an immediate warm
//! rerun (everything hits), recording wall-clock, total parse work, the
//! parse critical path (longest single-TU parse), and the parse cache's
//! peak resident bytes. It then replays the preset under a deliberately
//! tiny `--mem-budget` and asserts the artifacts stay byte-identical to
//! the unbounded run while `cache.evictions` climbs — eviction is a
//! memory knob, never a correctness knob.
//!
//! Each worker count also times two warm edits on its session: a
//! literal edit local to one secondary TU (`edit-tu-w{w}`) and an edit
//! of a shared `mg_*` header every TU includes (`edit-shared-w{w}`),
//! each recording wall, parse and analyze time, the TUs reparsed and the
//! include fragments reused. A TU-local edit must reparse exactly one TU
//! and record at most two analyze misses (that TU's usage plus the
//! merge), and a shared-header edit must reuse at least one include
//! fragment (every TU's private chain, and the facade's rebuild in all
//! but the first TU), or the bench fails: this is the edit-proportional
//! contract, gated in CI by `--smoke`.
//!
//! Parse *scaling* is reported two ways: the measured cold wall ratio,
//! and a work/critical-path model `total_parse / max(longest_parse,
//! total_parse / workers)` — the measured ratio collapses to ~1x on
//! single-core hosts (CI containers), so the model records what the DAG
//! exposes while `host_cpus` records what the host could exploit. The
//! acceptance bound (>=2x modeled parse speedup at 8 workers on
//! mega-4k) checks the *shape* of the fan-out, not the host.
//!
//! Writes `results/BENCH_mega.json`. Flags: `--smoke` (mega-1k only,
//! workers 1/2, for the CI 120 s budget), `--preset NAME`, `--slo
//! slo.toml` (checks the mega-1k cold wall at 1 worker against
//! `[slo.mega-1k-cold]`), `--event-log PATH` (stage-level event log,
//! uploaded by CI when the smoke fails).

use std::path::Path;
use std::time::Instant;

use yalla_bench::results::{write_records, RunRecord};
use yalla_bench::slo::Slo;
use yalla_core::{Options, Session, SessionRun, YallaError};
use yalla_cpp::cache;
use yalla_cpp::vfs::Vfs;
use yalla_exec::Executor;
use yalla_fuzz::{MegaConfig, MegaProject};
use yalla_obs::metrics::names;

/// Worker counts the full bench sweeps.
const WORKERS: &[usize] = &[1, 2, 8];
/// Budget for the eviction pass: small enough that every preset's
/// resident set blows through it many times over.
const TINY_BUDGET: u64 = 256 * 1024;

/// FNV-64 over every artifact a run produces — the byte-identity
/// fingerprint compared across worker counts and budget settings.
fn artifact_hash(run: &SessionRun) -> u64 {
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

struct Timed {
    run: SessionRun,
    wall_us: f64,
}

fn timed(session: &mut Session, exec: &Executor) -> Result<Timed, YallaError> {
    let start = Instant::now();
    let run = session.rerun_on(exec)?;
    Ok(Timed {
        run,
        wall_us: start.elapsed().as_secs_f64() * 1e6,
    })
}

fn counter(name: &str) -> i64 {
    yalla_obs::global().metrics().counter(name).get()
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The two timed warm edits: a literal in one secondary TU, and a
/// trailing declaration in the deepest shared header (which every TU's
/// closure reaches, but no TU uses).
fn warm_edits(project: &MegaProject, depth: usize) -> [(&'static str, String, String); 2] {
    let tu = project.tus[project.tus.len() / 2].clone();
    let text = |path: &str| {
        let (_, text) = project
            .files
            .iter()
            .find(|(p, _)| p == path)
            .expect("generated file");
        text.clone()
    };
    let tu_text = text(&tu);
    assert!(tu_text.contains("% 31 + 1"), "{tu} lacks its call literal");
    let shared = format!("mg_{}_0.hpp", depth - 1);
    let shared_text = format!(
        "{}namespace mg {{ inline int edited() {{ return 1; }} }}\n",
        text(&shared)
    );
    [
        ("edit-tu", tu, tu_text.replacen("% 31 + 1", "% 37 + 1", 1)),
        ("edit-shared", shared, shared_text),
    ]
}

/// One preset's full sweep: cold+warm at each worker count, then the
/// tiny-budget eviction pass. Returns the records plus the mega-4k
/// modeled 8-worker parse speedup (for the acceptance bound).
fn run_preset(
    preset: &str,
    workers: &[usize],
    records: &mut Vec<RunRecord>,
    failures: &mut usize,
) -> Option<f64> {
    let cfg = MegaConfig::preset(preset).expect("known preset");
    let project = MegaProject::generate(&cfg);
    let (vfs, options) = project.render();
    let host_cpus = yalla_bench::results::host_cpus();
    println!(
        "{preset}: {} files ({} shared headers, {} private, {} TUs)",
        project.file_count(),
        project.shared_headers,
        project.private_headers,
        project.tus.len()
    );

    let mut baseline_hash: Option<u64> = None;
    let mut speedup_8w = None;
    for &w in workers {
        let exec = Executor::new(w);
        cache::reset_peak_resident();
        let mut session = session_for(&options, &vfs);
        let cold = match timed(&mut session, &exec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{preset} w{w}: cold run failed: {e}");
                *failures += 1;
                continue;
            }
        };
        let peak = cache::peak_bytes_resident();
        let warm = match timed(&mut session, &exec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{preset} w{w}: warm rerun failed: {e}");
                *failures += 1;
                continue;
            }
        };
        if !warm.run.fully_cached() {
            eprintln!("{preset} w{w}: warm rerun was not fully cached");
            *failures += 1;
        }
        let hash = artifact_hash(&cold.run);
        match baseline_hash {
            None => baseline_hash = Some(hash),
            Some(base) if base != hash => {
                eprintln!("{preset} w{w}: artifacts differ from 1-worker run");
                *failures += 1;
            }
            Some(_) => {}
        }

        let parse_us = us(cold.run.result.timings.parse);
        let longest_us = us(cold.run.parse_longest);
        // Work/critical-path model: W workers can't beat the longest
        // single TU parse, nor do better than an even split of the work.
        let model_us = longest_us.max(parse_us / w as f64).max(1.0);
        let model_speedup = parse_us / model_us;
        if preset == "mega-4k" && w == 8 {
            speedup_8w = Some(model_speedup);
        }
        println!(
            "  w{w}: cold {:>9.0} us  warm {:>7.0} us  parse {:>9.0} us \
             (longest {:>8.0} us, modeled {model_speedup:.2}x)  peak {:>6} KiB",
            cold.wall_us,
            warm.wall_us,
            parse_us,
            longest_us,
            peak / 1024,
        );
        records.push(RunRecord {
            subject: preset.to_string(),
            config: format!("cold-w{w}"),
            phase_us: vec![
                ("wall".to_string(), cold.wall_us),
                ("parse".to_string(), parse_us),
                ("parse_longest".to_string(), longest_us),
                ("parse_model".to_string(), model_us),
                ("analyze".to_string(), us(cold.run.result.timings.analyze)),
                ("peak_resident_bytes".to_string(), peak as f64),
                ("host_cpus".to_string(), host_cpus as f64),
            ],
        });
        records.push(RunRecord {
            subject: preset.to_string(),
            config: format!("warm-w{w}"),
            phase_us: vec![("wall".to_string(), warm.wall_us)],
        });

        for (config, path, text) in warm_edits(&project, cfg.depth) {
            session.apply_edit(&path, text).expect("generated file");
            let misses_before = counter(&names::stage_cache("analyze", "misses"));
            let reused_before = counter(names::FRAGMENTS_REUSED);
            let edit = match timed(&mut session, &exec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{preset} w{w}: {config} rerun failed: {e}");
                    *failures += 1;
                    continue;
                }
            };
            let misses = counter(&names::stage_cache("analyze", "misses")) - misses_before;
            let reused = counter(names::FRAGMENTS_REUSED) - reused_before;
            let (reparsed, timings) = (edit.run.files_reparsed, &edit.run.result.timings);
            if config == "edit-tu" && (reparsed > 1 || misses > 2) {
                eprintln!(
                    "{preset} w{w}: a TU-local edit reparsed {reparsed} TU(s) and recorded \
                     {misses} analyze misses (bound: 1 and 2)"
                );
                *failures += 1;
            }
            if config == "edit-shared" && reused == 0 {
                eprintln!("{preset} w{w}: a shared-header edit reused no include fragment");
                *failures += 1;
            }
            println!(
                "  w{w}: {config:<11} {:>9.0} us  parse {:>9.0} us  analyze {:>9.0} us  \
                 {reparsed} reparsed, {misses} analyze misses, {reused} fragments reused",
                edit.wall_us,
                us(timings.parse),
                us(timings.analyze),
            );
            records.push(RunRecord {
                subject: preset.to_string(),
                config: format!("{config}-w{w}"),
                phase_us: vec![
                    ("wall".to_string(), edit.wall_us),
                    ("parse".to_string(), us(timings.parse)),
                    ("analyze".to_string(), us(timings.analyze)),
                    ("files_reparsed".to_string(), reparsed as f64),
                    ("fragments_reused".to_string(), reused as f64),
                ],
            });
        }
    }

    // Eviction pass: same preset, tiny budget, must stay byte-identical.
    cache::set_mem_budget(Some(TINY_BUDGET));
    cache::reset_peak_resident();
    let before = counter(names::CACHE_EVICTIONS);
    let exec = Executor::new(1);
    let mut session = session_for(&options, &vfs);
    let outcome = timed(&mut session, &exec);
    drop(session);
    cache::set_mem_budget(None);
    match outcome {
        Ok(t) => {
            let evicted = counter(names::CACHE_EVICTIONS) - before;
            let peak = cache::peak_bytes_resident();
            if Some(artifact_hash(&t.run)) != baseline_hash {
                eprintln!("{preset}: tiny-budget artifacts differ from unbounded run");
                *failures += 1;
            }
            if evicted == 0 {
                eprintln!("{preset}: tiny budget evicted nothing");
                *failures += 1;
            }
            if peak > TINY_BUDGET.saturating_mul(4) {
                eprintln!("{preset}: peak {peak} B far above the {TINY_BUDGET} B budget");
                *failures += 1;
            }
            println!(
                "  eviction: cold {:>9.0} us under {} KiB budget, {evicted} evictions, \
                 peak {} KiB, artifacts byte-identical",
                t.wall_us,
                TINY_BUDGET / 1024,
                peak / 1024,
            );
            records.push(RunRecord {
                subject: preset.to_string(),
                config: "cold-w1-tiny-budget".to_string(),
                phase_us: vec![
                    ("wall".to_string(), t.wall_us),
                    ("evictions".to_string(), evicted as f64),
                    ("peak_resident_bytes".to_string(), peak as f64),
                ],
            });
        }
        Err(e) => {
            eprintln!("{preset}: tiny-budget run failed: {e}");
            *failures += 1;
        }
    }
    speedup_8w
}

fn session_for(options: &Options, vfs: &Vfs) -> Session {
    // No store: every cold run must actually pay for parsing, and runs
    // must not warm each other through a shared disk tier.
    Session::with_store(options.clone(), vfs.clone(), None)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut preset_filter: Option<String> = None;
    let mut slo_path: Option<String> = None;
    let mut event_log: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--preset" => {
                i += 1;
                preset_filter = Some(args.get(i).expect("--preset NAME").clone());
            }
            "--slo" => {
                i += 1;
                slo_path = Some(args.get(i).expect("--slo PATH").clone());
            }
            "--event-log" => {
                i += 1;
                event_log = Some(args.get(i).expect("--event-log PATH").clone());
            }
            other => {
                eprintln!(
                    "unknown flag {other} (expected --smoke, --preset NAME, --slo PATH, \
                     --event-log PATH)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = &event_log {
        if let Err(e) = yalla_obs::log::init_file(Path::new(path)) {
            eprintln!("opening event log {path}: {e}");
            std::process::exit(2);
        }
    }

    let presets: Vec<&str> = match &preset_filter {
        Some(name) => {
            if MegaConfig::preset(name).is_none() {
                eprintln!(
                    "unknown preset {name} (have {:?})",
                    MegaConfig::preset_names()
                );
                std::process::exit(2);
            }
            vec![MegaConfig::preset_names()
                .iter()
                .find(|p| *p == name)
                .copied()
                .unwrap()]
        }
        None if smoke => vec!["mega-1k"],
        None => MegaConfig::preset_names().to_vec(),
    };
    let workers: &[usize] = if smoke { &[1, 2] } else { WORKERS };

    let mut records = Vec::new();
    let mut failures = 0usize;
    let mut mega4k_speedup = None;
    for preset in &presets {
        if let Some(s) = run_preset(preset, workers, &mut records, &mut failures) {
            mega4k_speedup = Some(s);
        }
    }

    if let Some(speedup) = mega4k_speedup {
        if speedup < 2.0 {
            eprintln!("mega-4k modeled parse speedup at 8 workers {speedup:.2}x < 2x bound");
            failures += 1;
        } else {
            println!("mega-4k modeled parse speedup at 8 workers: {speedup:.2}x (bound 2x)");
        }
    }

    if let Some(path) = slo_path {
        let slo = match Slo::load(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("loading {path}: {e}");
                std::process::exit(2);
            }
        };
        let measured: Vec<(String, String, u64)> = records
            .iter()
            .filter(|r| r.config == "cold-w1")
            .filter_map(|r| {
                let wall = r.phase_us.iter().find(|(k, _)| k == "wall")?.1;
                Some((format!("{}-cold", r.subject), r.config.clone(), wall as u64))
            })
            .collect();
        for v in slo.check(&measured) {
            eprintln!("{v}");
            failures += 1;
        }
        println!("SLO check against {path}: {} class(es)", measured.len());
    }

    match write_records(Path::new("results"), "mega", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("writing results: {e}");
            failures += 1;
        }
    }
    // The log's buffered tail would be lost at exit, and CI uploads the
    // log exactly when this run fails.
    yalla_obs::log::flush();
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
}
