//! The in-process workloads: `corpus-edit` and `mega-edit` drive
//! `yalla_core::Session` directly on a 2-worker executor.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use yalla_core::{Options, Session, SessionRun};
use yalla_cpp::cache::ParseCache;
use yalla_cpp::vfs::Vfs;
use yalla_exec::Executor;
use yalla_fuzz::mega::{MegaConfig, MegaProject};
use yalla_obs::metrics::names;

use crate::check::{artifact_hash, artifacts_of, diff, Artifacts, Ledger};
use crate::edits::{corpus_stream, mega_stream, Kind, Rng, Step};
use crate::metrics::{self, Outcome, Scrape};
use crate::replay::{replay, Work};
use crate::stats::{self, iqm, median, Scheduled};
use crate::trace::Tracer;
use crate::{sys, Config, WORKERS};

/// The corpus subjects every run edits, in seeded order: four of the 18,
/// one per substituted header (Kokkos, RapidJSON, OpenCV, Asio). Every
/// run uses the same four so that runs with different seeds measure the
/// same work; seeded subsets differed by a quarter in cost.
pub const CORPUS_SUBJECTS: [&str; 4] = ["team_policy", "archiver", "laplace", "chat_server"];
/// Corpus edits per second of `--seconds` (three per block, whole
/// blocks per subject).
const CORPUS_EDITS_PER_S: f64 = 1.2;
/// Mega edit blocks (three TU-local edits and one shared-header edit)
/// per second of `--seconds`.
const MEGA_BLOCKS_PER_S: f64 = 1.0;
/// The mega tree's shape.
const MEGA_PRESET: &str = "mega-4k";
/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;
/// Cold and restart runs of a single-project workload (their
/// interquartile mean is reported).
const SINGLE_PROJECT_REPS: usize = 7;
/// Back-to-back timed reruns per no-op step (the fastest is the step's
/// `noop_ms` sample).
pub const NOOP_REPS: usize = 5;
/// Rate of the open-loop readers.
pub const READ_HZ: f64 = 200.0;

/// One project: its options, initial tree and seeded edit stream.
struct Project {
    name: String,
    options: Options,
    vfs: Vfs,
    steps: Vec<Step>,
    /// Checked-in expected cold artifacts (corpus subjects only).
    golden: Option<Artifacts>,
}

pub fn files_of(vfs: &Vfs) -> BTreeMap<String, String> {
    vfs.iter()
        .map(|(id, _)| (vfs.path(id).to_string(), vfs.text(id).to_string()))
        .collect()
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median wall time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

pub fn read_golden(name: &str) -> Result<Artifacts, String> {
    let mut out = Artifacts::new();
    for kind in ["lightweight", "wrappers"] {
        let path = format!("tests/goldens/{name}.{kind}.expected");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        out.insert(kind.to_string(), text);
    }
    Ok(out)
}

/// The named corpus subjects, in seeded order.
pub fn subjects(names: &[&str], rng: &mut Rng) -> Vec<yalla_corpus::Subject> {
    let mut subjects: Vec<_> = yalla_corpus::all_subjects()
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .collect();
    rng.shuffle(&mut subjects);
    subjects
}

pub fn corpus_edit(cfg: &Config) -> Result<Outcome, String> {
    let edits = (cfg.seconds * CORPUS_EDITS_PER_S).round().max(3.0) as usize;
    let blocks = edits.div_ceil(3 * CORPUS_SUBJECTS.len()).max(1);
    let (projects, setup_s) = timed_setup(|| {
        let mut rng = Rng::for_workload(&cfg.workload, cfg.seed);
        subjects(&CORPUS_SUBJECTS, &mut rng)
            .into_iter()
            .map(|s| {
                let files = files_of(&s.vfs);
                Ok(Project {
                    name: s.name.to_string(),
                    options: Options {
                        header: s.header.clone(),
                        sources: s.sources.clone(),
                        ..Options::default()
                    },
                    steps: corpus_stream(&files, &s.sources, blocks, true, &mut rng),
                    golden: Some(read_golden(s.name)?),
                    vfs: s.vfs,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    drive(cfg, projects, setup_s, false)
}

pub fn mega_edit(cfg: &Config) -> Result<Outcome, String> {
    let blocks = (cfg.seconds * MEGA_BLOCKS_PER_S).round().max(1.0) as usize;
    let (projects, setup_s) = timed_setup(|| {
        let mut rng = Rng::for_workload(&cfg.workload, cfg.seed);
        let config = MegaConfig {
            seed: rng.next_u64(),
            ..MegaConfig::preset(MEGA_PRESET).expect("preset exists")
        };
        let project = MegaProject::generate(&config);
        let (vfs, options) = project.render();
        let steps = mega_stream(&files_of(&vfs), blocks, &mut rng);
        Ok(vec![Project {
            name: MEGA_PRESET.to_string(),
            options,
            vfs,
            steps,
            golden: None,
        }])
    })?;
    drive(cfg, projects, setup_s, true)
}

/// An open-loop reader thread: calls `read(i)` for the `i`-th request at
/// [`READ_HZ`] without waiting for slow reads to catch up, and records
/// each request's due, send and completion times (latency counts from the
/// due time, so a stall is charged to every read it delayed).
pub struct Poller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<Scheduled>, Vec<String>)>,
}

impl Poller {
    pub fn start(mut read: impl FnMut(usize) -> Result<(), String> + Send + 'static) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let (mut reads, mut errors) = (Vec::new(), Vec::new());
            for i in 0.. {
                let due = stats::due_time(i, READ_HZ);
                let now = start.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                let sent = start.elapsed().as_secs_f64();
                if let Err(e) = read(i) {
                    errors.push(e);
                }
                let done = start.elapsed().as_secs_f64();
                reads.push(Scheduled { due, sent, done });
            }
            (reads, errors)
        });
        Poller { stop, handle }
    }

    /// Stops the reader; returns every read's schedule and the errors.
    pub fn finish(self) -> (Vec<Scheduled>, Vec<String>) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("poller thread")
    }
}

/// The in-process read: a `status`-style look at the program's always-on
/// counters (reruns, reparsed TUs, resident cache bytes).
fn status_read() -> Result<(), String> {
    let m = yalla_obs::global().metrics();
    std::hint::black_box((
        m.counter(names::SESSION_RERUNS).get(),
        m.counter(names::SESSION_TUS_REPARSED).get(),
        yalla_cpp::cache::bytes_resident(),
    ));
    Ok(())
}

/// Per-edit layer figures gathered on traced edits.
#[derive(Default)]
struct LayerAcc {
    edits: usize,
    stage_ms: BTreeMap<&'static str, f64>,
    parse_critical_ms: f64,
    deltas: Scrape,
    cpu_s: f64,
    wall_s: f64,
}

fn stage_ms(run: &SessionRun) -> BTreeMap<&'static str, f64> {
    run.stages
        .iter()
        .map(|s| (s.stage.label(), s.duration.as_secs_f64() * 1e3))
        .collect()
}

fn verified(run: &SessionRun) -> Result<(), String> {
    if run.result.report.verification.passed() {
        Ok(())
    } else {
        Err(format!(
            "verification failed: {:?}",
            run.result.report.verification
        ))
    }
}

fn drive(
    cfg: &Config,
    projects: Vec<Project>,
    setup_s: f64,
    mega: bool,
) -> Result<Outcome, String> {
    let me = std::process::id();
    let reps = if projects.len() == 1 {
        SINGLE_PROJECT_REPS
    } else {
        1
    };
    let exec = Executor::new(WORKERS);
    let mut tracer = Tracer::new(cfg.trace);
    let mut ledger = Ledger::default();
    let mut cold_s = 0.0;
    let mut restart_s = 0.0;
    let mut cpu_s = 0.0;
    let mut edit_ms: Vec<f64> = Vec::new();
    let mut edit_kinds: Vec<Kind> = Vec::new();
    let mut unattributed_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut noop_ms: Vec<f64> = Vec::new();
    let mut noop_uncached = 0usize;
    let mut edit_groups: Vec<Vec<f64>> = Vec::new();
    let mut noop_groups: Vec<Vec<f64>> = Vec::new();
    let mut acc = LayerAcc::default();
    let mut project_rows: Vec<(String, f64)> = Vec::new();
    let mut finals: Vec<(Options, Vfs, Artifacts)> = Vec::new();
    yalla_cpp::cache::reset_peak_resident();

    // An untimed warm-up run: the process's first run pays for growing
    // its heap (a corpus subject's cold run took 2.1 s instead of 1.25 s
    // when the seed put it first), which would charge whichever project
    // comes first.
    if let Some(first) = projects.first() {
        let _ = Session::with_store(first.options.clone(), first.vfs.clone(), None).rerun_on(&exec);
    }
    let poller = Poller::start(|_| status_read());
    for project in projects {
        // A single-project workload repeats its cold run and reports the
        // interquartile mean. The last run's session goes on to the edit
        // stream; every earlier one must match it.
        let cpu0 = sys::cpu_s(me).unwrap_or(0.0);
        let mut times = Vec::new();
        let mut earlier = Vec::new();
        let (mut session, cold) = loop {
            let mut fresh = Session::with_store(project.options.clone(), project.vfs.clone(), None);
            tracer.begin_op();
            let t = Instant::now();
            let cold = tracer.span("cold", || fresh.rerun_on(&exec));
            times.push(t.elapsed().as_secs_f64());
            if times.len() == reps {
                break (fresh, cold);
            }
            drop(fresh);
            match cold {
                Ok(run) => {
                    ledger.op(verified(&run).map_err(|e| format!("{} cold: {e}", project.name)));
                    earlier.push(artifacts_of(&run.result));
                }
                Err(e) => ledger.op(Err(format!("{} cold: {e}", project.name))),
            }
        };
        cold_s += iqm(&times);
        project_rows.push((format!("cold_s.{}", project.name), iqm(&times)));
        let edit0 = edit_ms.len();
        let mut step_fastest = Vec::new();
        let mut last = match cold {
            Ok(run) => {
                ledger.op(verified(&run).map_err(|e| format!("{} cold: {e}", project.name)));
                if let Some(golden) = &project.golden {
                    let got: Artifacts = artifacts_of(&run.result)
                        .into_iter()
                        .filter(|(k, _)| golden.contains_key(k))
                        .collect();
                    ledger.check(diff(
                        &format!("{} cold vs golden", project.name),
                        &got,
                        golden,
                    ));
                }
                artifacts_of(&run.result)
            }
            Err(e) => {
                ledger.op(Err(format!("{} cold: {e}", project.name)));
                continue;
            }
        };
        for (i, artifacts) in earlier.iter().enumerate() {
            ledger.check(diff(
                &format!("{} cold run {} vs the last", project.name, i + 1),
                artifacts,
                &last,
            ));
        }

        for step in &project.steps {
            match step {
                Step::Edit { path, text, kind } => {
                    let traced = cfg.trace && edit_ms.len().is_multiple_of(2);
                    let before = traced.then(|| (metrics::local_scrape(), sys::cpu_s(me)));
                    tracer.begin_op();
                    if traced {
                        tracer.enter(&format!("edit.{}", kind.label()));
                    }
                    let t = Instant::now();
                    let run = tracer
                        .span_if(traced, "apply_edit", || {
                            session.apply_edit(path, text.as_str())
                        })
                        .and_then(|_| {
                            tracer.span_if(traced, "rerun_on", || session.rerun_on(&exec))
                        });
                    let wall = t.elapsed();
                    if traced {
                        tracer.exit();
                    }
                    let ms = wall.as_secs_f64() * 1e3;
                    edit_ms.push(ms);
                    edit_kinds.push(*kind);
                    if cfg.trace {
                        if traced {
                            &mut traced_ms
                        } else {
                            &mut untraced_ms
                        }
                        .push(ms);
                    }
                    match run {
                        Ok(run) => {
                            ledger.op(verified(&run).map_err(|e| {
                                format!("{} {} edit of {path}: {e}", project.name, kind.label())
                            }));
                            let stages = stage_ms(&run);
                            // Parse roots run in parallel: charge the
                            // parse stage its work spread over the workers,
                            // but never less than its longest root.
                            let parse_wall = (stages["parse"] / WORKERS as f64)
                                .max(run.parse_longest.as_secs_f64() * 1e3);
                            let attributed =
                                stages.values().sum::<f64>() - stages["parse"] + parse_wall;
                            unattributed_ms.push(ms - attributed);
                            if let Some((scrape0, cpu_before)) = before {
                                for (k, v) in stages {
                                    *acc.stage_ms.entry(k).or_default() += v;
                                }
                                acc.parse_critical_ms += run.parse_longest.as_secs_f64() * 1e3;
                                metrics::accumulate(
                                    &mut acc.deltas,
                                    &scrape0,
                                    &metrics::local_scrape(),
                                );
                                acc.cpu_s +=
                                    sys::cpu_s(me).unwrap_or(0.0) - cpu_before.unwrap_or(0.0);
                                acc.wall_s += wall.as_secs_f64();
                                acc.edits += 1;
                            }
                            last = artifacts_of(&run.result);
                        }
                        Err(e) => ledger.op(Err(format!(
                            "{} {} edit of {path}: {e}",
                            project.name,
                            kind.label()
                        ))),
                    }
                }
                Step::Noop => {
                    let mut fastest = f64::INFINITY;
                    for _ in 0..NOOP_REPS {
                        tracer.begin_op();
                        let t = Instant::now();
                        let run = tracer.span("noop", || session.rerun_on(&exec));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        noop_ms.push(ms);
                        fastest = fastest.min(ms);
                        match run {
                            Ok(run) => {
                                noop_uncached += usize::from(!run.fully_cached());
                                ledger.op(verified(&run));
                            }
                            Err(e) => ledger.op(Err(format!("{} noop: {e}", project.name))),
                        }
                    }
                    step_fastest.push(fastest);
                }
            }
        }

        edit_groups.push(edit_ms[edit0..].to_vec());
        noop_groups.push(step_fastest);
        // Restart: a fresh session (no store, so nothing survives) brings
        // the final tree back; it is also the cold-run oracle the
        // incremental result must equal.
        let final_vfs = session.vfs().clone();
        drop(session);
        let mut times = Vec::new();
        let mut fresh = None;
        for _ in 0..reps {
            tracer.begin_op();
            let t = Instant::now();
            fresh = Some(tracer.span("restart", || {
                Session::with_store(project.options.clone(), final_vfs.clone(), None)
                    .rerun_on(&exec)
            }));
            times.push(t.elapsed().as_secs_f64());
        }
        let fresh = fresh.expect("reps >= 1");
        restart_s += iqm(&times);
        cpu_s += sys::cpu_s(me).unwrap_or(0.0) - cpu0;
        match fresh {
            Ok(run) => {
                let oracle = artifacts_of(&run.result);
                ledger.check(diff(
                    &format!("{} final vs cold run", project.name),
                    &last,
                    &oracle,
                ));
            }
            Err(e) => ledger.op(Err(format!("{} restart: {e}", project.name))),
        }
        finals.push((project.options, final_vfs, last));
    }
    let (reads, _) = poller.finish();
    drop(exec);

    let mut out = Outcome::default();
    let peak_rss = sys::peak_rss_mb(me).unwrap_or(0.0);

    // Checks outside the timed window.
    if mega {
        for (options, vfs, last) in &finals {
            let one = Executor::new(1);
            match Session::with_store(options.clone(), vfs.clone(), None).rerun_on(&one) {
                Ok(run) => {
                    let oracle = artifacts_of(&run.result);
                    let (a, b) = (artifact_hash(last), artifact_hash(&oracle));
                    ledger.check(if a == b {
                        Vec::new()
                    } else {
                        vec![format!(
                            "mega final hash {a:016x} != 1-worker cold run {b:016x}"
                        )]
                    });
                    out.row(
                        "final_hash_match",
                        f64::from(u8::from(a == b)),
                        "bool",
                        format!("{a:016x} vs 1-worker cold run {b:016x}"),
                    );
                }
                Err(e) => ledger.op(Err(format!("1-worker cold run: {e}"))),
            }
        }
    }

    // End-to-end metrics.
    let tail = stats::tail(&edit_ms, 10);
    let read_ms: Vec<f64> = reads.iter().map(|r| r.latency() * 1e3).collect();
    let late_ms: Vec<f64> = reads.iter().map(|r| r.lateness() * 1e3).collect();
    out.set(
        "setup_s",
        setup_s,
        format!("median of {} set-ups", SETUP_REPS),
    );
    out.set(
        "cold_s",
        cold_s,
        format!(
            "{} project(s), interquartile mean of {reps} cold run(s) each",
            finals.len()
        ),
    );
    out.set(
        "edit_ms",
        stats::per_project(&edit_groups),
        format!(
            "n={} over {} project(s): geometric mean of per-project interquartile means",
            edit_ms.len(),
            edit_groups.len()
        ),
    );
    out.set(
        "edit_tail_ms",
        tail.value,
        format!("p{} of n={} ({} beyond)", tail.pct, tail.n, tail.beyond),
    );
    out.set(
        "noop_ms",
        stats::per_project(&noop_groups),
        format!(
            "n={} ({} not fully cached): fastest of {NOOP_REPS} per no-op step, geometric \
             mean of per-project interquartile means",
            noop_ms.len(),
            noop_uncached
        ),
    );
    out.row(
        "edit_p50_ms",
        median(&edit_ms),
        "ms",
        "pooled median of all edits; not gated (edit_ms is)",
    );
    out.row(
        "noop_p50_ms",
        median(&noop_ms),
        "ms",
        "pooled median of all no-op reruns; not gated (noop_ms is)",
    );
    out.set(
        "read_p50_ms",
        median(&read_ms),
        format!(
            "counter reads at {READ_HZ} Hz from due time, n={}",
            read_ms.len()
        ),
    );
    out.row(
        "read_p99_ms",
        stats::percentile(&read_ms, 99.0),
        "ms",
        format!(
            "n={}; not gated: varies more between runs than any allowed bound",
            read_ms.len()
        ),
    );
    out.set(
        "restart_s",
        restart_s,
        format!(
            "fresh session, no store: cold rebuild of the final tree, interquartile mean of {reps}"
        ),
    );
    out.set("cpu_s", cpu_s, "benchmark process, timed operations");
    out.set("peak_rss_mb", peak_rss, "VmHWM of the benchmark process");
    for kind in [
        Kind::Comment,
        Kind::Literal,
        Kind::Revert,
        Kind::Local,
        Kind::Shared,
    ] {
        let of_kind: Vec<f64> = edit_ms
            .iter()
            .zip(&edit_kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(ms, _)| *ms)
            .collect();
        if !of_kind.is_empty() {
            out.row(
                &format!("edit_p50_ms.{}", kind.label()),
                median(&of_kind),
                "ms",
                format!("n={}", of_kind.len()),
            );
        }
    }
    for (name, v) in &project_rows {
        out.row(name, *v, "s", "cold run of one project");
    }
    out.row(
        "fail_ratio",
        ledger.fail_ratio(),
        "ratio",
        format!("{} of {} operations", ledger.failed, ledger.attempted),
    );

    // Per-layer metrics of a traced run.
    if cfg.trace {
        let n = acc.edits.max(1) as f64;
        let st = |k: &str| acc.stage_ms.get(k).copied().unwrap_or(0.0) / n;
        out.set(
            "cpp.parse_ms_per_edit",
            st("parse"),
            format!("stage duration, {} traced edits", acc.edits),
        );
        out.set("analysis.ms_per_edit", st("analyze"), "stage duration");
        out.set("core.plan_ms_per_edit", st("plan"), "stage duration");
        out.set("core.emit_ms_per_edit", st("emit"), "stage duration");
        out.set(
            "core.rewrite_ms_per_edit",
            st("rewrite"),
            "stage duration (work time)",
        );
        out.set("core.verify_ms_per_edit", st("verify"), "stage duration");
        out.set(
            "core.unattributed_ms_per_edit",
            stats::mean(&unattributed_ms),
            "edit wall minus stage durations (parse as work / workers)",
        );
        out.set(
            "exec.parse_critical_ms",
            acc.parse_critical_ms / n,
            "SessionRun.parse_longest",
        );
        out.set(
            "exec.cpu_util",
            if acc.wall_s > 0.0 {
                acc.cpu_s / (acc.wall_s * WORKERS as f64)
            } else {
                0.0
            },
            "CPU s / (wall s x workers) over traced edits",
        );
        metrics::layers_from_deltas(&mut out, &acc.deltas, acc.edits);
        out.set(
            "cpp.cache_peak_mb",
            yalla_cpp::cache::peak_bytes_resident() as f64 / (1024.0 * 1024.0),
            "parse cache peak resident bytes",
        );
        out.set(
            "loadgen.late_p99_ms",
            stats::percentile(&late_ms, 99.0),
            format!("n={}", late_ms.len()),
        );
        out.set(
            "bench.trace_overhead",
            median(&traced_ms) / median(&untraced_ms).max(1e-9),
            format!(
                "p50 of {} traced / {} untraced edits",
                traced_ms.len(),
                untraced_ms.len()
            ),
        );
        replay_layers(&mut out, &mut tracer, &mut ledger, &finals)?;
        if mega {
            probe_layer(&mut out, &finals[0]);
        }
    }
    out.row(
        "unattributed_ms_per_edit",
        stats::mean(&unattributed_ms),
        "ms",
        "edit wall minus stage durations (parse as work / workers)",
    );
    out.ledger = ledger;
    out.tracer = cfg.trace.then_some(tracer);
    Ok(out)
}

/// Replays every project's final state through the stage functions and
/// derives the replay-based layer figures from the spans' self times.
fn replay_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    finals: &[(Options, Vfs, Artifacts)],
) -> Result<(), String> {
    let before = tracer.self_time_by_name();
    let mut work = Work::default();
    for (options, vfs, last) in finals {
        match replay(tracer, vfs, options) {
            Ok((artifacts, passed, w)) => {
                ledger.check(diff("replay vs session", &artifacts, last));
                ledger.op(if passed {
                    Ok(())
                } else {
                    Err("replay verification failed".into())
                });
                work.bytes_lexed += w.bytes_lexed;
                work.lines_preprocessed += w.lines_preprocessed;
                work.decls_parsed += w.decls_parsed;
            }
            Err(e) => ledger.op(Err(format!("replay: {e}"))),
        }
    }
    let after = tracer.self_time_by_name();
    let self_s = |name: &str| {
        (after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)) / 1e6
    };
    let per = |name: &str| self_s(name) * 1e3 / finals.len().max(1) as f64;
    let rate = |amount: usize, name: &str| {
        let s = self_s(name);
        if s > 0.0 {
            amount as f64 / s
        } else {
            0.0
        }
    };
    out.set(
        "cpp.lex_mb_s",
        rate(work.bytes_lexed, "lex") / 1e6,
        format!("replay: {} bytes", work.bytes_lexed),
    );
    out.set(
        "cpp.pp_klines_s",
        rate(work.lines_preprocessed, "pp") / 1e3,
        format!("replay: {} lines", work.lines_preprocessed),
    );
    out.set(
        "cpp.parse_kdecls_s",
        rate(work.decls_parsed, "parse") / 1e3,
        format!("replay: {} top-level decls", work.decls_parsed),
    );
    out.set(
        "analysis.symtab_ms",
        per("symtab"),
        "replay self time per project state",
    );
    out.set(
        "analysis.usage_ms",
        per("usage"),
        "replay self time per project state",
    );
    out.set(
        "core.verify_check_ms",
        per("verify.check"),
        "replay self time per project state",
    );
    out.set(
        "core.verify_afterstats_ms",
        per("verify.afterstats"),
        "replay self time per project state",
    );
    Ok(())
}

/// Times `ParseCache::probe` over every TU root of a warm cache: the
/// revalidation a no-op rerun pays.
fn probe_layer(out: &mut Outcome, (options, vfs, _): &(Options, Vfs, Artifacts)) {
    let cache = ParseCache::with_store(None);
    let roots = options.parse_roots();
    for root in &roots {
        let _ = cache.parse(vfs, &options.defines, root);
    }
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let hits = roots
            .iter()
            .filter(|r| cache.probe(vfs, &options.defines, r).is_some())
            .count();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(hits);
    }
    out.set(
        "cpp.probe_ms",
        median(&times),
        format!("median of 5 probes of {} roots", roots.len()),
    );
}
