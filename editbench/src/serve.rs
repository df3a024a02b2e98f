//! The `serve-mixed` workload: a `yalla serve --workers 2` daemon on a
//! Unix socket, one closed-loop developer connection and one open-loop
//! poller connection, then a disk-warm restart on the same cache dir.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use yalla_core::{Options, Session};
use yalla_exec::Executor;
use yalla_obs::chrome::escape_json;
use yalla_obs::json::JsonValue;
use yalla_store::{Store, NS_PARSE, NS_RUN, NS_SERVE};

use crate::check::{artifacts_of, diff, Artifacts, Ledger};
use crate::edits::{corpus_stream, Rng, Step};
use crate::inproc::{files_of, read_golden, subjects, timed_setup, Poller, NOOP_REPS, READ_HZ};
use crate::metrics::{self, parse_prometheus, series, Outcome, Scrape};
use crate::stats::{self, iqm, median};
use crate::trace::Tracer;
use crate::{sys, Config, WORKERS};

/// The served subjects, one per library family (Kokkos, RapidJSON,
/// OpenCV) and a subset of the corpus-edit subjects; the seed sets their
/// order and edit streams.
const SERVE_SUBJECTS: [&str; 3] = ["team_policy", "archiver", "laplace"];
/// Developer edits per second of `--seconds` (a comment and a literal
/// edit per block, whole blocks per project, all in the project's main
/// source). No reverts: a revert the daemon serves from its caches in
/// ~10 ms would split the sample in two. Main source only: when the last
/// edit lands in `team_policy`'s `functor.hpp` (a source that is also a
/// header of the closure) the restart is not fully disk-warm, which made
/// `restart_s` depend on the seed.
const SERVE_EDITS_PER_S: f64 = 1.2;
/// How long a request may go unanswered before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);
/// How a passing verification reads in the `report` artifact (the Debug
/// form of `yalla_core::report::Verification`).
const VERIFIED: &str = "sources_parse: true, wrappers_parse: true, violations: []";
/// Disk-warm restarts per run (`restart_s` is their interquartile mean).
const RESTARTS: usize = 11;

/// One client connection speaking the line-delimited JSON protocol.
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request; returns the raw response line and the time
    /// until it arrived (the client-observed latency, before parsing).
    fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        let t = Instant::now();
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                let dur = t.elapsed();
                if ok(&out) {
                    Ok((out, dur))
                } else {
                    Err(format!("refused: {}", out.trim()))
                }
            }
            Err(e) => Err(format!("unanswered: {e}")),
        }
    }

    fn json(&mut self, line: &str) -> Result<(JsonValue, Duration), String> {
        let (raw, dur) = self.call(line)?;
        Ok((yalla_obs::json::parse(raw.trim())?, dur))
    }
}

/// Whether a response line reports success (`"ok": true` comes right
/// after the request id).
fn ok(raw: &str) -> bool {
    raw.get(..raw.len().min(48))
        .is_some_and(|head| head.contains("\"ok\": true"))
}

/// A spawned daemon; killed and reaped on drop unless shut down cleanly.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(cfg: &Config, socket: &Path, cache: &Path, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(&cfg.yalla)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--workers", &WORKERS.to_string()])
            .arg("--cache-dir")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfg.yalla.display()))?;
        Ok(Daemon { child })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects once the socket accepts.
    fn connect(&mut self, socket: &Path) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(conn) = Conn::connect(socket) {
                return Ok(conn);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon socket never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the daemon to shut down over `conn` and waits for it to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.call("{\"op\": \"shutdown\"}")?;
        self.child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One served project: request lines and the seeded edit stream.
struct Project {
    name: String,
    options: Options,
    files: BTreeMap<String, String>,
    steps: Vec<Step>,
    golden: Artifacts,
}

fn open_line(p: &Project, files: &BTreeMap<String, String>) -> String {
    let files: Vec<String> = files
        .iter()
        .map(|(path, text)| format!("\"{}\": \"{}\"", escape_json(path), escape_json(text)))
        .collect();
    let sources: Vec<String> = p
        .options
        .sources
        .iter()
        .map(|s| format!("\"{}\"", escape_json(s)))
        .collect();
    format!(
        "{{\"op\": \"open\", \"project\": \"{}\", \"header\": \"{}\", \"sources\": [{}], \"files\": {{{}}}}}",
        p.name,
        escape_json(&p.options.header),
        sources.join(", "),
        files.join(", ")
    )
}

fn rerun_line(name: &str) -> String {
    format!("{{\"op\": \"rerun\", \"project\": \"{name}\"}}")
}

fn get_line(name: &str, artifact: &str) -> String {
    format!(
        "{{\"op\": \"get\", \"project\": \"{name}\", \"artifact\": \"{}\"}}",
        escape_json(artifact)
    )
}

/// Reads every artifact of `p` back from the daemon.
fn fetch(conn: &mut Conn, p: &Project) -> Result<Artifacts, String> {
    let mut names = vec!["lightweight".to_string(), "wrappers".to_string()];
    names.extend(p.options.sources.iter().map(|s| format!("source:{s}")));
    let mut out = Artifacts::new();
    for name in names {
        let (v, _) = conn.json(&get_line(&p.name, &name))?;
        let text = v
            .get("text")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        out.insert(name, text.to_string());
    }
    Ok(out)
}

/// Pipeline time the daemon reports in a rerun's summary line
/// (`... (N reparsed, M rewritten, X ms)`).
fn summary_ms(raw: &str) -> Option<f64> {
    let v = yalla_obs::json::parse(raw.trim()).ok()?;
    let summary = v.get("summary")?.as_str()?;
    let tail = summary.rsplit(", ").next()?;
    tail.trim_end_matches(')')
        .trim_end_matches(" ms")
        .parse()
        .ok()
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let (v, _) = conn.json("{\"op\": \"metrics\"}")?;
    Ok(parse_prometheus(
        v.get("text")
            .and_then(JsonValue::as_str)
            .unwrap_or_default(),
    ))
}

/// Client-observed latencies per request class (ms).
#[derive(Default)]
struct Client {
    by_op: BTreeMap<&'static str, Vec<f64>>,
}

impl Client {
    fn call(
        &mut self,
        conn: &mut Conn,
        op: &'static str,
        line: &str,
    ) -> Result<(String, Duration), String> {
        let r = conn.call(line);
        if let Ok((_, dur)) = &r {
            self.by_op
                .entry(op)
                .or_default()
                .push(dur.as_secs_f64() * 1e3);
        }
        r
    }

    fn p50(&self, op: &str) -> f64 {
        self.by_op.get(op).map_or(0.0, |v| median(v))
    }
}

pub fn serve_mixed(cfg: &Config) -> Result<Outcome, String> {
    let stem = format!("serve-mixed-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let socket = cfg.out.join(format!("{stem}.sock"));
    let cache = cfg.out.join(format!("{stem}.cache"));
    let log = cfg.out.join(format!("{stem}.daemon.log"));
    let result = run(cfg, &socket, &cache, &log);
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&cache);
    result
}

fn run(cfg: &Config, socket: &Path, cache: &Path, log: &Path) -> Result<Outcome, String> {
    let edits = (cfg.seconds * SERVE_EDITS_PER_S).round().max(3.0) as usize;
    let blocks = edits.div_ceil(2 * SERVE_SUBJECTS.len()).max(1);

    // Set-up: inputs, a daemon on an empty cache dir, socket readiness.
    let ((projects, daemon, mut conn), setup_s) = timed_setup(|| {
        let mut rng = Rng::for_workload(&cfg.workload, cfg.seed);
        let projects = subjects(&SERVE_SUBJECTS, &mut rng)
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
                    steps: corpus_stream(&files, &s.sources[..1], blocks, false, &mut rng),
                    golden: read_golden(s.name)?,
                    files,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let _ = std::fs::remove_dir_all(cache);
        let mut daemon = Daemon::spawn(cfg, socket, cache, log)?;
        let conn = daemon.connect(socket)?;
        Ok((projects, daemon, conn))
    })?;

    let me = daemon.pid();
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut client = Client::default();
    let mut cpu_s = 0.0;
    let cpu0 = sys::cpu_s(me).unwrap_or(0.0);

    // Cold: open + first rerun per project, client-observed.
    let mut cold_s = 0.0;
    let mut cold_rows = Vec::new();
    for p in &projects {
        tracer.begin_op();
        tracer.enter("cold");
        let t = Instant::now();
        let r = client
            .call(&mut conn, "open", &open_line(p, &p.files))
            .and_then(|_| client.call(&mut conn, "rerun", &rerun_line(&p.name)));
        cold_s += t.elapsed().as_secs_f64();
        cold_rows.push((p.name.clone(), t.elapsed().as_secs_f64()));
        tracer.exit();
        ledger.op(r.map(drop).map_err(|e| format!("{} cold: {e}", p.name)));
        match fetch(&mut conn, p) {
            Ok(got) => {
                let got: Artifacts = got
                    .into_iter()
                    .filter(|(k, _)| p.golden.contains_key(k))
                    .collect();
                ledger.check(diff(&format!("{} cold vs golden", p.name), &got, &p.golden));
            }
            Err(e) => ledger.op(Err(format!("{} cold get: {e}", p.name))),
        }
    }

    // Developer loop beside the open-loop poller.
    // The poller alternates `status` and `get` on its own connection.
    let mut poll_conn = Conn::connect(socket).map_err(|e| format!("poller connect: {e}"))?;
    let names: Vec<String> = projects.iter().map(|p| p.name.clone()).collect();
    let poller = Poller::start(move |i| {
        let line = if i % 2 == 0 {
            "{\"op\": \"status\"}".to_string()
        } else {
            get_line(&names[(i / 2) % names.len()], "lightweight")
        };
        poll_conn
            .call(&line)
            .map(drop)
            .map_err(|e| format!("poller: {e}"))
    });
    let mut edit_ms = Vec::new();
    let mut edit_rows: Vec<(String, f64)> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut noop_ms = Vec::new();
    let mut noop_uncached = 0usize;
    let mut unattributed_ms = Vec::new();
    let mut deltas = Scrape::new();
    let (mut traced_edits, mut traced_cpu, mut traced_wall) = (0usize, 0.0, 0.0);
    let mut finals: Vec<BTreeMap<String, String>> = Vec::new();
    let mut edit_groups: Vec<Vec<f64>> = Vec::new();
    let mut noop_groups: Vec<Vec<f64>> = Vec::new();
    for p in &projects {
        let edit0 = edit_ms.len();
        let mut step_fastest = Vec::new();
        let mut files = p.files.clone();
        for step in &p.steps {
            match step {
                Step::Edit { path, text, kind } => {
                    let traced = cfg.trace && edit_ms.len().is_multiple_of(2);
                    let before = if traced {
                        Some((scrape(&mut conn)?, sys::cpu_s(me)))
                    } else {
                        None
                    };
                    files.insert(path.clone(), text.clone());
                    let edit = format!(
                        "{{\"op\": \"edit\", \"project\": \"{}\", \"path\": \"{}\", \"text\": \"{}\"}}",
                        p.name,
                        escape_json(path),
                        escape_json(text)
                    );
                    tracer.begin_op();
                    if traced {
                        tracer.enter(&format!("edit.{}", kind.label()));
                    }
                    let t = Instant::now();
                    let r = tracer
                        .span_if(traced, "edit", || client.call(&mut conn, "edit", &edit))
                        .and_then(|_| {
                            tracer.span_if(traced, "rerun", || {
                                client.call(&mut conn, "rerun", &rerun_line(&p.name))
                            })
                        });
                    let wall = t.elapsed();
                    if traced {
                        tracer.exit();
                    }
                    let ms = wall.as_secs_f64() * 1e3;
                    edit_ms.push(ms);
                    edit_rows.push((format!("{}.{}", p.name, kind.label()), ms));
                    if cfg.trace {
                        if traced {
                            &mut traced_ms
                        } else {
                            &mut untraced_ms
                        }
                        .push(ms);
                    }
                    match r {
                        Ok((raw, _)) => {
                            if let Some(pipeline) = summary_ms(&raw) {
                                unattributed_ms.push(ms - pipeline);
                            }
                            ledger.op(Ok(()));
                        }
                        Err(e) => ledger.op(Err(format!("{} {} edit: {e}", p.name, kind.label()))),
                    }
                    if let Some((s0, c0)) = before {
                        metrics::accumulate(&mut deltas, &s0, &scrape(&mut conn)?);
                        traced_cpu += sys::cpu_s(me).unwrap_or(0.0) - c0.unwrap_or(0.0);
                        traced_wall += wall.as_secs_f64();
                        traced_edits += 1;
                    }
                    // The developer reads the verification report back:
                    // every edit's rerun must pass verification.
                    let r = client.call(&mut conn, "get", &get_line(&p.name, "report"));
                    ledger.op(r.and_then(|(raw, _)| {
                        if raw.contains(VERIFIED) {
                            Ok(())
                        } else {
                            Err(format!(
                                "{} {} edit: verification failed: {}",
                                p.name,
                                kind.label(),
                                raw.trim()
                            ))
                        }
                    }));
                }
                Step::Noop => {
                    let mut fastest = f64::INFINITY;
                    for _ in 0..NOOP_REPS {
                        tracer.begin_op();
                        let t = Instant::now();
                        let r = tracer.span("noop", || {
                            client.call(&mut conn, "rerun", &rerun_line(&p.name))
                        });
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        noop_ms.push(ms);
                        fastest = fastest.min(ms);
                        match r {
                            Ok((raw, _)) => {
                                noop_uncached +=
                                    usize::from(!raw.contains("\"fully_cached\": true"));
                                ledger.op(Ok(()));
                            }
                            Err(e) => ledger.op(Err(format!("{} noop: {e}", p.name))),
                        }
                    }
                    step_fastest.push(fastest);
                }
            }
        }
        edit_groups.push(edit_ms[edit0..].to_vec());
        noop_groups.push(step_fastest);
        finals.push(files);
    }
    let (reads, poll_errors) = poller.finish();
    let status_ms: Vec<f64> = reads
        .iter()
        .step_by(2)
        .map(|r| (r.done - r.sent) * 1e3)
        .collect();
    for e in &poll_errors {
        ledger.op(Err(e.clone()));
    }
    for _ in 0..reads.len() - poll_errors.len() {
        ledger.op(Ok(()));
    }
    cpu_s += sys::cpu_s(me).unwrap_or(0.0) - cpu0;
    let peak_rss = sys::peak_rss_mb(me).unwrap_or(0.0);

    // Oracle: a cold in-process run on each final tree; the daemon's
    // artifacts must equal it before and after the restart.
    let exec = Executor::new(WORKERS);
    let mut oracles = Vec::new();
    for (p, files) in projects.iter().zip(&finals) {
        let mut vfs = yalla_cpp::vfs::Vfs::new();
        for (path, text) in files {
            vfs.add_file(path, text.clone());
        }
        match Session::with_store(p.options.clone(), vfs, None).rerun_on(&exec) {
            Ok(run) => oracles.push(artifacts_of(&run.result)),
            Err(e) => {
                ledger.op(Err(format!("{} oracle: {e}", p.name)));
                oracles.push(Artifacts::new());
            }
        }
    }
    drop(exec);
    for (p, oracle) in projects.iter().zip(&oracles) {
        match fetch(&mut conn, p) {
            Ok(got) => ledger.check(diff(&format!("{} final vs cold run", p.name), &got, oracle)),
            Err(e) => ledger.op(Err(format!("{} final get: {e}", p.name))),
        }
    }
    let phase1 = scrape(&mut conn)?;
    daemon.shutdown(&mut conn)?;

    // Disk-warm restart: a fresh daemon on the same cache dir restores
    // every project's latest tree from the store; the developer re-sends
    // the same `open` as at the start and reruns. Repeated, interquartile
    // mean reported: the first rerun races the daemon's background warm-up.
    let mut restarts = Vec::new();
    let mut restarted = None;
    for _ in 0..RESTARTS {
        if let Some((daemon, mut conn)) = restarted.take() {
            Daemon::shutdown(daemon, &mut conn)?;
        }
        tracer.begin_op();
        tracer.enter("restart");
        let t = Instant::now();
        let mut daemon = Daemon::spawn(cfg, socket, cache, log)?;
        let pid = daemon.pid();
        let mut conn = daemon.connect(socket)?;
        let cpu1 = sys::cpu_s(pid).unwrap_or(0.0);
        for p in &projects {
            let r = conn
                .call(&open_line(p, &p.files))
                .and_then(|_| conn.call(&rerun_line(&p.name)));
            ledger.op(r.map(drop).map_err(|e| format!("{} restart: {e}", p.name)));
        }
        restarts.push(t.elapsed().as_secs_f64());
        tracer.exit();
        cpu_s += sys::cpu_s(pid).unwrap_or(0.0) - cpu1;
        for (p, oracle) in projects.iter().zip(&oracles) {
            match fetch(&mut conn, p) {
                Ok(got) => ledger.check(diff(
                    &format!("{} after restart vs cold run", p.name),
                    &got,
                    oracle,
                )),
                Err(e) => ledger.op(Err(format!("{} restart get: {e}", p.name))),
            }
        }
        restarted = Some((daemon, conn));
    }
    let restart_s = iqm(&restarts);
    let each: Vec<String> = restarts.iter().map(|s| format!("{s:.3}")).collect();
    let (daemon, mut conn) = restarted.expect("at least one restart");
    let phase2 = scrape(&mut conn)?;
    daemon.shutdown(&mut conn)?;

    // Results.
    let mut out = Outcome::default();
    let tail = stats::tail(&edit_ms, 10);
    let read_ms: Vec<f64> = reads.iter().map(|r| r.latency() * 1e3).collect();
    let late_ms: Vec<f64> = reads.iter().map(|r| r.lateness() * 1e3).collect();
    out.set(
        "setup_s",
        setup_s,
        format!(
            "median of {} set-ups (inputs, spawn, socket ready)",
            crate::inproc::SETUP_REPS
        ),
    );
    out.set(
        "cold_s",
        cold_s,
        format!("open + first rerun of {} projects", projects.len()),
    );
    out.set(
        "edit_ms",
        stats::per_project(&edit_groups),
        format!(
            "edit + rerun, n={}: geometric mean of per-project interquartile means",
            edit_ms.len()
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
            "rerun with nothing pending, n={} ({} not fully cached): fastest of {NOOP_REPS} \
             per no-op step, geometric mean of per-project interquartile means",
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
            "poller status/get at {READ_HZ} Hz from due time, n={}",
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
            "spawn until every project's first rerun returned; interquartile mean of [{}]",
            each.join(", ")
        ),
    );
    out.set("cpu_s", cpu_s, "daemon process, timed operations");
    out.set("peak_rss_mb", peak_rss, "VmHWM of the daemon");
    for (name, s) in &cold_rows {
        out.row(&format!("cold_s.{name}"), *s, "s", "open + first rerun");
    }
    let mut by_group: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, ms) in &edit_rows {
        by_group.entry(k.as_str()).or_default().push(*ms);
    }
    for (k, v) in by_group {
        out.row(
            &format!("edit_p50_ms.{k}"),
            median(&v),
            "ms",
            format!("n={}", v.len()),
        );
    }
    out.row(
        "fail_ratio",
        ledger.fail_ratio(),
        "ratio",
        format!("{} of {} operations", ledger.failed, ledger.attempted),
    );
    out.row(
        "unattributed_ms_per_edit",
        stats::mean(&unattributed_ms),
        "ms",
        "client edit+rerun wall minus the pipeline time the daemon reports",
    );
    for (phase, s) in [("main", &phase1), ("restart", &phase2)] {
        for name in [
            "store.hits",
            "store.misses",
            "store.zero_copy_hits",
            "store.bytes",
        ] {
            out.row(
                &format!("{name}[{phase}]"),
                series(s, name),
                "count",
                "daemon metrics scrape",
            );
        }
    }

    if cfg.trace {
        let n = traced_edits.max(1) as f64;
        let stage_ms = |s: &str| {
            deltas
                .get(&format!(
                    "{}_sum",
                    yalla_obs::export::prometheus_name(&format!("latency.stage.{s}"))
                ))
                .copied()
                .unwrap_or(0.0)
                / 1e3
                / n
        };
        out.set(
            "cpp.parse_ms_per_edit",
            stage_ms("parse"),
            format!("latency.stage sums, {traced_edits} traced edits"),
        );
        out.set(
            "analysis.ms_per_edit",
            stage_ms("analyze"),
            "latency.stage sums",
        );
        out.set(
            "core.plan_ms_per_edit",
            stage_ms("plan"),
            "latency.stage sums",
        );
        out.set(
            "core.emit_ms_per_edit",
            stage_ms("emit"),
            "latency.stage sums",
        );
        out.set(
            "core.rewrite_ms_per_edit",
            stage_ms("rewrite"),
            "latency.stage sums",
        );
        out.set(
            "core.verify_ms_per_edit",
            stage_ms("verify"),
            "latency.stage sums",
        );
        out.set(
            "core.unattributed_ms_per_edit",
            stats::mean(&unattributed_ms),
            "client wall minus daemon pipeline time",
        );
        metrics::layers_from_deltas(&mut out, &deltas, traced_edits);
        out.set(
            "exec.cpu_util",
            if traced_wall > 0.0 {
                traced_cpu / (traced_wall * WORKERS as f64)
            } else {
                0.0
            },
            "daemon CPU s / (wall s x workers) over traced edits",
        );
        for name in ["hits", "misses", "zero_copy_hits"] {
            out.set(
                &format!("store.{name}"),
                series(&phase2, &format!("store.{name}")),
                "restarted daemon",
            );
        }
        out.set(
            "store.bytes",
            series(&phase1, "store.bytes"),
            "cache dir bytes after the main phase",
        );
        let (h, m) = (
            series(&phase2, "store.hits"),
            series(&phase2, "store.misses"),
        );
        out.set(
            "store.restart_hit_ratio",
            if h + m > 0.0 { h / (h + m) } else { 0.0 },
            format!("of {} lookups", h + m),
        );
        let p50 = |op: &str| {
            let id = format!(
                "{}{{quantile=\"0.5\"}}",
                yalla_obs::export::prometheus_name(&format!("latency.serve.{op}"))
            );
            phase1.get(&id).copied().unwrap_or(0.0) / 1e3
        };
        for op in ["open", "edit", "rerun", "get", "status"] {
            out.set(
                &format!("serve.server_p50_ms.{op}"),
                p50(op),
                "latency.serve histogram",
            );
            let client_p50 = if op == "status" {
                median(&status_ms)
            } else {
                client.p50(op)
            };
            out.set(
                &format!("serve.overhead_ms.{op}"),
                client_p50 - p50(op),
                "client p50 minus server p50",
            );
        }
        for name in ["cancelled", "edits_coalesced", "rejected"] {
            out.set(
                &format!("serve.{name}"),
                series(&phase1, &format!("serve.{name}")),
                "daemon metrics scrape",
            );
        }
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
        store_layer(
            &mut out,
            &mut tracer,
            cache,
            &cfg.out.join("serve-put-replay"),
        )?;
    }
    out.ledger = ledger;
    out.tracer = cfg.trace.then_some(tracer);
    Ok(out)
}

/// Reads every record of the run's cache dir through `Store::get_view`
/// and replays each payload as a `put` into a scratch store.
fn store_layer(
    out: &mut Outcome,
    tracer: &mut Tracer,
    cache: &Path,
    scratch: &Path,
) -> Result<(), String> {
    let store = Store::open(cache).map_err(|e| format!("opening the store: {e}"))?;
    let mut payloads = Vec::new();
    tracer.begin_op();
    tracer.enter("store.get");
    let t = Instant::now();
    for ns in [NS_PARSE, NS_RUN, NS_SERVE] {
        for key in store.keys(ns) {
            if let Some(view) = store.get_view(ns, key) {
                payloads.push((ns, key, view.to_vec()));
            }
        }
    }
    let get_s = t.elapsed().as_secs_f64();
    tracer.exit();
    let bytes: usize = payloads.iter().map(|(_, _, p)| p.len()).sum();
    out.set(
        "store.get_mb_s",
        if get_s > 0.0 {
            bytes as f64 / get_s / 1e6
        } else {
            0.0
        },
        format!("{} records, {bytes} bytes", payloads.len()),
    );

    let _ = std::fs::remove_dir_all(scratch);
    let put_store = Store::open(scratch).map_err(|e| format!("opening the scratch store: {e}"))?;
    tracer.enter("store.put");
    let t = Instant::now();
    for (ns, key, payload) in &payloads {
        put_store.put(ns, *key, payload);
    }
    let put_s = t.elapsed().as_secs_f64();
    tracer.exit();
    drop(put_store);
    let _ = std::fs::remove_dir_all(scratch);
    out.set(
        "store.put_ms",
        put_s * 1e3 / payloads.len().max(1) as f64,
        "mean per put",
    );
    Ok(())
}
