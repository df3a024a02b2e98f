//! The `yalla` command-line tool: Header Substitution on real files.
//!
//! Mirrors the original tool's interface (paper §4.1: "the user provides a
//! source file and the header file they want substituted"):
//!
//! ```text
//! yalla --header <NAME> [--include-dir <DIR>]... [--out-dir <DIR>]
//!       [--define NAME=VALUE]... [--keep <SYMBOL>]... [--no-verify]
//!       [--iterate <SCRIPT>] [--cache-dir <DIR>] [--mem-budget <BYTES[k|M|G]>]
//!       [--self-profile <OUT.json>] [--event-log <OUT.jsonl>] [--metrics]
//!       <SOURCES>...
//! ```
//!
//! With `--cache-dir <DIR>` (or the `YALLA_CACHE_DIR` environment
//! variable) artifacts persist to an on-disk store shared across
//! processes: a rerun of an unchanged project in a *fresh* process is
//! disk-warm — no stage recomputes. Corrupt or torn cache entries are
//! detected by checksum and silently recomputed.
//!
//! Sources and every file reachable through `--include-dir` are loaded
//! into the in-memory file system, the engine runs, and the artifacts
//! (lightweight header, wrappers file, rewritten sources) are written to
//! `--out-dir` (default `yalla-out/`). Exit status is non-zero when the
//! engine fails or verification does not pass.
//!
//! The `serve` subcommand starts the long-lived daemon: a pool of warm
//! incremental sessions (one shard per project tree) behind a
//! line-delimited JSON protocol on a Unix socket:
//!
//! ```text
//! yalla serve --socket <PATH> [--workers N|max] [--cache-dir <DIR>]
//!             [--mem-budget <BYTES[k|M|G]>] [--event-log <OUT.jsonl>]
//!             [--metrics]
//! yalla stat <SOCKET>
//! ```
//!
//! With a cache dir, the daemon persists each project's record and run
//! artifacts as it serves, and a restarted daemon (clean exit *or*
//! `kill -9`) rebuilds its warm pool from disk: the first rerun per
//! project after restart is fully cached.
//!
//! Clients send one JSON object per line (`open`, `edit`, `rerun`,
//! `get`, `status`, `metrics`, `shutdown`) and read one response line
//! per request; edits batch on the shard until the next rerun. The
//! daemon exits when any client sends `shutdown`. `yalla stat <SOCKET>`
//! scrapes a running daemon and prints its live counters and latency
//! quantiles in Prometheus text format. With `--event-log <PATH>`
//! (accepted by both one-shot runs and the daemon) every request,
//! pipeline stage, and store lookup appends one JSON line stamped with
//! the request id that caused it, so a slow request can be joined to
//! its stage timings end to end.
//!
//! The `dump` subcommand inspects one record of the on-disk store
//! (DESIGN.md §13) without running anything:
//!
//! ```text
//! yalla dump --cache-dir <DIR> --key <HEX> [--ns run|serve]
//!            [--format summary|text]
//! ```
//!
//! `--format=summary` prints the record's binary-module layout
//! (partitions, row counts, interned strings); `--format=text` renders a
//! `run` bundle's artifacts in the line-oriented text form — the debug
//! path kept when the wire format went binary.
//!
//! The `fuzz` subcommand runs the differential semantic-preservation
//! fuzzer instead:
//!
//! ```text
//! yalla fuzz [--seed N] [--iters K] [--shrink] [--sabotage KIND]
//!            [--session-every N] [--store <DIR>] [--repro-dir <DIR>]
//!            [--metrics]
//! yalla fuzz --replay <FIXTURE>...
//! ```
//!
//! Each iteration generates a random project, substitutes its expensive
//! header, executes original and substituted variants on the simulator's
//! abstract machine, and reports any observable-behavior divergence.
//! `--shrink` minimizes diverging cases and writes ready-to-run fixtures
//! into `--repro-dir` (default `tests/repros`); `--replay` re-checks
//! checked-in fixtures. `--sabotage probe-offset|zero-return` injects a
//! known-bad rewrite to demonstrate the oracle end to end.
//!
//! With `--iterate <SCRIPT>` the tool holds one incremental
//! [`yalla::Session`] and replays an edit script through it, printing the
//! per-stage cache outcome of every rerun. Script lines (blank lines and
//! `#` comments are skipped):
//!
//! ```text
//! edit <vfs-path> <disk-path>   # replace a file's text with a file on disk
//! append <vfs-path> <text...>   # append a line of text to a file
//! touch <vfs-path>              # rewrite a file with identical content
//! rerun                         # rerun the pipeline incrementally
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use yalla::{Options, Session, SubstitutionResult, Vfs};

struct Cli {
    header: String,
    sources: Vec<String>,
    include_dirs: Vec<PathBuf>,
    out_dir: PathBuf,
    defines: Vec<(String, String)>,
    keep: Vec<String>,
    verify: bool,
    iterate: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    self_profile: Option<PathBuf>,
    event_log: Option<PathBuf>,
    metrics: bool,
    mem_budget: Option<u64>,
}

const USAGE: &str = "usage: yalla --header <NAME> [--include-dir <DIR>]... \
[--out-dir <DIR>] [--define NAME=VALUE]... [--keep <SYMBOL>]... [--no-verify] \
[--iterate <SCRIPT>] [--cache-dir <DIR>] [--mem-budget <BYTES[k|M|G]>] \
[--self-profile <OUT.json>] [--event-log <OUT.jsonl>] [--metrics] <SOURCES>...";

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        header: String::new(),
        sources: Vec::new(),
        include_dirs: Vec::new(),
        out_dir: PathBuf::from("yalla-out"),
        defines: Vec::new(),
        keep: Vec::new(),
        verify: true,
        iterate: None,
        cache_dir: None,
        self_profile: None,
        event_log: None,
        metrics: false,
        mem_budget: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--header" => {
                cli.header = args.next().ok_or("--header needs a value")?;
            }
            "--include-dir" | "-I" => {
                cli.include_dirs.push(PathBuf::from(
                    args.next().ok_or("--include-dir needs a value")?,
                ));
            }
            "--out-dir" | "-o" => {
                cli.out_dir = PathBuf::from(args.next().ok_or("--out-dir needs a value")?);
            }
            "--define" | "-D" => {
                let kv = args.next().ok_or("--define needs NAME=VALUE")?;
                match kv.split_once('=') {
                    Some((k, v)) => cli.defines.push((k.to_string(), v.to_string())),
                    None => cli.defines.push((kv, "1".to_string())),
                }
            }
            "--keep" => {
                cli.keep.push(args.next().ok_or("--keep needs a symbol")?);
            }
            "--no-verify" => cli.verify = false,
            "--iterate" => {
                cli.iterate = Some(PathBuf::from(
                    args.next().ok_or("--iterate needs a script path")?,
                ));
            }
            "--cache-dir" => {
                cli.cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            "--mem-budget" => {
                let v = args.next().ok_or("--mem-budget needs a value")?;
                cli.mem_budget = Some(
                    yalla::cpp::cache::parse_mem_budget(&v)
                        .map_err(|e| format!("bad --mem-budget: {e}"))?,
                );
            }
            "--self-profile" => {
                cli.self_profile = Some(PathBuf::from(
                    args.next().ok_or("--self-profile needs a path")?,
                ));
            }
            "--event-log" => {
                cli.event_log = Some(PathBuf::from(
                    args.next().ok_or("--event-log needs a path")?,
                ));
            }
            "--metrics" => cli.metrics = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            source => cli.sources.push(source.to_string()),
        }
    }
    if cli.header.is_empty() {
        return Err(format!("missing --header\n{USAGE}"));
    }
    if cli.sources.is_empty() {
        return Err(format!("no source files given\n{USAGE}"));
    }
    Ok(cli)
}

/// Resolves the on-disk artifact store: an explicit `--cache-dir` wins,
/// else the `YALLA_CACHE_DIR` environment variable, else no store.
fn open_store(
    cache_dir: Option<&Path>,
) -> Result<Option<std::sync::Arc<yalla::store::Store>>, String> {
    match cache_dir {
        Some(dir) => yalla::store::Store::open(dir)
            .map(|s| Some(std::sync::Arc::new(s)))
            .map_err(|e| format!("opening cache dir {}: {e}", dir.display())),
        None => Ok(yalla::store::Store::global()),
    }
}

/// Loads a directory tree (C++ files only) into the VFS under its
/// directory-relative paths.
fn load_dir(vfs: &mut Vfs, dir: &Path) -> std::io::Result<usize> {
    let mut loaded = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let is_cpp = path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| matches!(e, "h" | "hpp" | "hh" | "hxx" | "cpp" | "cc" | "cxx"));
            if !is_cpp {
                continue;
            }
            let rel = path
                .strip_prefix(dir)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            vfs.add_file(&rel, text);
            loaded += 1;
        }
    }
    Ok(loaded)
}

/// Replays an edit script through one incremental [`Session`], printing
/// each rerun's per-stage cache outcome. Returns the last rerun's result.
fn iterate(
    options: Options,
    vfs: Vfs,
    script: &Path,
    store: Option<std::sync::Arc<yalla::store::Store>>,
) -> Result<SubstitutionResult, String> {
    let text = std::fs::read_to_string(script)
        .map_err(|e| format!("reading {}: {e}", script.display()))?;
    let mut session = Session::with_store(options, vfs, store);
    let run = session.rerun().map_err(|e| e.to_string())?;
    println!("iteration 0 (cold): {}", run.summary_line());
    let mut result = run.result;
    let mut iteration = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("{}:{}: {msg}", script.display(), lineno + 1);
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match cmd {
            "edit" => {
                let (path, from) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("edit needs <vfs-path> <disk-path>".into()))?;
                let new_text = std::fs::read_to_string(from.trim())
                    .map_err(|e| err(format!("reading {}: {e}", from.trim())))?;
                session
                    .apply_edit(path, new_text)
                    .map_err(|e| err(e.to_string()))?;
            }
            "append" => {
                let (path, extra) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("append needs <vfs-path> <text>".into()))?;
                let id = session
                    .vfs()
                    .lookup(path)
                    .ok_or_else(|| err(format!("no such file `{path}`")))?;
                let mut new_text = session.vfs().text(id).to_string();
                new_text.push_str(extra);
                new_text.push('\n');
                session
                    .apply_edit(path, new_text)
                    .map_err(|e| err(e.to_string()))?;
            }
            "touch" => {
                let path = rest.trim();
                let id = session
                    .vfs()
                    .lookup(path)
                    .ok_or_else(|| err(format!("no such file `{path}`")))?;
                let same = session.vfs().text(id).to_string();
                session
                    .apply_edit(path, same)
                    .map_err(|e| err(e.to_string()))?;
            }
            "rerun" => {
                iteration += 1;
                let run = session.rerun().map_err(|e| e.to_string())?;
                println!("iteration {iteration}: {}", run.summary_line());
                result = run.result;
            }
            other => return Err(err(format!("unknown command `{other}`"))),
        }
    }
    Ok(result)
}

fn run() -> Result<(), String> {
    let cli = parse_args()?;
    if cli.self_profile.is_some() || cli.metrics {
        yalla::obs::enable();
        yalla::obs::global().set_process(1, "yalla");
    }
    if let Some(path) = &cli.event_log {
        yalla::obs::log::init_file(path)
            .map_err(|e| format!("opening event log {}: {e}", path.display()))?;
    }
    if let Some(bytes) = cli.mem_budget {
        yalla::cpp::cache::set_mem_budget(Some(bytes));
    }
    let mut vfs = Vfs::new();
    for dir in &cli.include_dirs {
        let n = load_dir(&mut vfs, dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        vfs.add_search_path("");
        eprintln!("loaded {n} files from {}", dir.display());
    }
    let mut source_names = Vec::new();
    for src in &cli.sources {
        let text = std::fs::read_to_string(src).map_err(|e| format!("reading {src}: {e}"))?;
        let name = Path::new(src)
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_else(|| src.clone());
        vfs.add_file(&name, text);
        source_names.push(name);
    }

    let options = Options {
        header: cli.header.clone(),
        sources: source_names,
        defines: cli.defines.clone(),
        extra_symbols: cli.keep.clone(),
        verify: cli.verify,
        ..Options::default()
    };
    let store = open_store(cli.cache_dir.as_deref())?;
    let result = match &cli.iterate {
        Some(script) => iterate(options.clone(), vfs, script, store)?,
        // A one-shot run is one session rerun: with a store attached it
        // both probes the disk tier (a fresh process on an unchanged
        // project is disk-warm) and persists its artifacts on the way out.
        None => {
            Session::with_store(options.clone(), vfs, store)
                .rerun()
                .map_err(|e| e.to_string())?
                .result
        }
    };

    print!("{}", result.report);
    for d in &result.plan.diagnostics {
        eprintln!("note: {}", d.message);
    }
    if cli.verify && !result.report.verification.passed() {
        return Err(format!(
            "verification failed: {:?}",
            result.report.verification
        ));
    }

    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("creating {}: {e}", cli.out_dir.display()))?;
    let write = |name: &str, text: &str| -> Result<(), String> {
        let path = cli.out_dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    write(&options.lightweight_name, &result.lightweight_header)?;
    write(&options.wrappers_name, &result.wrappers_file)?;
    for (name, text) in &result.rewritten_sources {
        write(name, text)?;
    }

    if let Some(path) = &cli.self_profile {
        let trace = yalla::obs::global().chrome_trace();
        std::fs::write(path, trace).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if cli.metrics {
        print!("{}", yalla::obs::global().summary());
    }
    yalla::obs::log::flush();
    Ok(())
}

const FUZZ_USAGE: &str = "usage: yalla fuzz [--seed N] [--iters K] [--shrink] \
[--sabotage none|probe-offset|zero-return] [--session-every N] [--race-every N] \
[--cancel-every N] [--store <DIR>] [--repro-dir <DIR>] [--metrics] | \
yalla fuzz --replay <FIXTURE>...";

/// Replays checked-in repro fixtures: each must run divergence-free.
fn replay_fixtures(paths: &[String]) -> Result<(), String> {
    let mut failures = 0usize;
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let repro = yalla::fuzz::parse_fixture(&text).map_err(|e| format!("{path}: {e}"))?;
        let (vfs, options) = repro.project();
        let outcome = yalla::fuzz::oracle::run_case_on(
            &vfs,
            &options,
            yalla::fuzz::Sabotage::None,
            repro.entry_args,
        );
        match outcome {
            yalla::fuzz::CaseOutcome::Agree(trace) => {
                println!("replay {path}: ok ({} probes)", trace.probes.len());
            }
            yalla::fuzz::CaseOutcome::Diverged(d) => {
                eprintln!("replay {path}: DIVERGED\n{d}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} fixture(s) diverged"));
    }
    Ok(())
}

fn run_fuzz(args: &[String]) -> Result<(), String> {
    let mut config = yalla::fuzz::FuzzConfig::default();
    let mut repro_dir = PathBuf::from("tests/repros");
    let mut metrics = false;
    let mut replay: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--iters" => {
                config.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?;
            }
            "--shrink" => config.shrink = true,
            "--sabotage" => {
                let s = value("--sabotage")?;
                config.sabotage = yalla::fuzz::Sabotage::parse(&s)
                    .ok_or(format!("unknown sabotage kind `{s}`\n{FUZZ_USAGE}"))?;
            }
            "--session-every" => {
                config.session_every = value("--session-every")?
                    .parse()
                    .map_err(|e| format!("bad --session-every: {e}"))?;
            }
            "--race-every" => {
                config.race_every = value("--race-every")?
                    .parse()
                    .map_err(|e| format!("bad --race-every: {e}"))?;
            }
            "--cancel-every" => {
                // Race cases arm the daemon's cancel-injection hook: every
                // rerun's first attempt trips at this checkpoint and must
                // recover by retrying with the same oracles holding.
                config.cancel_every = value("--cancel-every")?
                    .parse()
                    .map_err(|e| format!("bad --cancel-every: {e}"))?;
            }
            "--store" => config.store_dir = Some(PathBuf::from(value("--store")?)),
            "--repro-dir" => repro_dir = PathBuf::from(value("--repro-dir")?),
            "--metrics" => metrics = true,
            "--replay" => { /* the remaining positionals are fixtures */ }
            "--help" | "-h" => {
                println!("{FUZZ_USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{FUZZ_USAGE}"));
            }
            fixture => replay.push(fixture.to_string()),
        }
    }
    if metrics {
        yalla::obs::enable();
    }
    if !replay.is_empty() {
        return replay_fixtures(&replay);
    }

    let report = yalla::fuzz::run_campaign(&config)?;
    println!(
        "fuzz: {} cases ({} session, {} race), {} divergence(s), {} session mismatch(es), \
         {} race mismatch(es)",
        report.cases,
        report.session_cases,
        report.race_cases,
        report.divergences.len(),
        report.session_mismatches,
        report.race_mismatches
    );
    for case in &report.divergences {
        eprintln!("case seed {:#x}: {}", case.case_seed, case.divergence);
        if let Some(fixture) = &case.fixture {
            std::fs::create_dir_all(&repro_dir)
                .map_err(|e| format!("creating {}: {e}", repro_dir.display()))?;
            let path = repro_dir.join(format!("repro_{:016x}.txt", case.case_seed));
            std::fs::write(&path, fixture)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!(
                "  minimized to {} line(s) in {} step(s); fixture: {}",
                case.shrunk_lines.unwrap_or(0),
                case.shrink_steps,
                path.display()
            );
        }
    }
    if metrics {
        print!("{}", yalla::obs::global().summary());
    }
    if report.clean() {
        Ok(())
    } else {
        Err("divergences found".to_string())
    }
}

const SERVE_USAGE: &str = "usage: yalla serve --socket <PATH> [--workers N|max] \
[--cache-dir <DIR>] [--mem-budget <BYTES[k|M|G]>] [--event-log <OUT.jsonl>] \
[--metrics]";

#[cfg(unix)]
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut event_log: Option<PathBuf> = None;
    let mut metrics = false;
    let mut mem_budget: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--mem-budget" => {
                let v = value("--mem-budget")?;
                mem_budget = Some(
                    yalla::cpp::cache::parse_mem_budget(&v)
                        .map_err(|e| format!("bad --mem-budget: {e}"))?,
                );
            }
            "--event-log" => event_log = Some(PathBuf::from(value("--event-log")?)),
            "--workers" => {
                let v = value("--workers")?;
                workers = Some(if v == "max" {
                    0 // Executor::new(0) sizes to hardware threads.
                } else {
                    v.parse().map_err(|e| format!("bad --workers: {e}"))?
                });
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => {
                println!("{SERVE_USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`\n{SERVE_USAGE}")),
        }
    }
    let socket = socket.ok_or(format!("missing --socket\n{SERVE_USAGE}"))?;
    if metrics {
        yalla::obs::enable();
    }
    if let Some(bytes) = mem_budget {
        // Every shard's ParseCache consults the process-wide budget, so
        // setting it before the server starts bounds the whole pool.
        yalla::cpp::cache::set_mem_budget(Some(bytes));
    }
    if let Some(path) = &event_log {
        yalla::obs::log::init_file(path)
            .map_err(|e| format!("opening event log {}: {e}", path.display()))?;
    }
    let exec = match workers {
        Some(n) => yalla::exec::Executor::new(n),
        None => yalla::exec::Executor::global().clone(),
    };
    let workers = exec.workers();
    let store = open_store(cache_dir.as_deref())?;
    let cache_note = store
        .as_ref()
        .map(|s| format!(", cache {}", s.dir().display()))
        .unwrap_or_default();
    let server = yalla::core::serve::Server::start_with_store(&socket, exec, store)
        .map_err(|e| format!("binding {}: {e}", socket.display()))?;
    println!(
        "yalla serve: listening on {} ({workers} workers{cache_note}, {} warm shard(s))",
        socket.display(),
        server.state().shard_count()
    );
    while !server.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let requests = server.state().requests();
    server.join();
    println!("yalla serve: shutdown after {requests} request(s)");
    if metrics {
        print!("{}", yalla::obs::global().summary());
    }
    yalla::obs::log::flush();
    Ok(())
}

#[cfg(not(unix))]
fn run_serve(_args: &[String]) -> Result<(), String> {
    Err("yalla serve requires a platform with Unix sockets".to_string())
}

const DUMP_USAGE: &str = "usage: yalla dump --cache-dir <DIR> --key <HEX> \
[--ns run|serve] [--format summary|text]";

/// Inspects one on-disk store record: validates it (header + checksum)
/// and prints either the binary module's layout (`--format=summary`,
/// the default) or — for `run` bundles — the full text rendering of the
/// persisted artifacts (`--format=text`, the debug path that replaced
/// text on the wire).
fn run_dump(args: &[String]) -> Result<(), String> {
    let mut cache_dir: Option<PathBuf> = None;
    let mut key: Option<u64> = None;
    let mut ns = yalla::store::NS_RUN.to_string();
    let mut format = "summary".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{DUMP_USAGE}");
                return Ok(());
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .ok_or(format!("--cache-dir needs a value\n{DUMP_USAGE}"))?;
                cache_dir = Some(PathBuf::from(dir));
            }
            "--key" => {
                let hex = it
                    .next()
                    .ok_or(format!("--key needs a value\n{DUMP_USAGE}"))?;
                let hex = hex.trim_start_matches("0x");
                key = Some(
                    u64::from_str_radix(hex, 16).map_err(|e| format!("bad --key `{hex}`: {e}"))?,
                );
            }
            "--ns" => {
                ns = it
                    .next()
                    .ok_or(format!("--ns needs a value\n{DUMP_USAGE}"))?
                    .clone();
            }
            other if other.starts_with("--format") => {
                format = match other.strip_prefix("--format=") {
                    Some(v) => v.to_string(),
                    None => it
                        .next()
                        .ok_or(format!("--format needs a value\n{DUMP_USAGE}"))?
                        .clone(),
                };
            }
            other => return Err(format!("unknown argument `{other}`\n{DUMP_USAGE}")),
        }
    }
    let cache_dir = cache_dir.ok_or(format!("missing --cache-dir\n{DUMP_USAGE}"))?;
    let key = key.ok_or(format!("missing --key\n{DUMP_USAGE}"))?;
    let store = yalla::store::Store::open(&cache_dir)
        .map_err(|e| format!("opening store {}: {e}", cache_dir.display()))?;
    let view = store
        .get_view(&ns, key)
        .ok_or_else(|| format!("no valid record for ({ns}, {key:016x})"))?;
    match format.as_str() {
        "text" => {
            let result = yalla::core::persist::decode_run(&view)
                .ok_or("record payload is not a run bundle (try --ns run, or --format summary)")?;
            print!("{}", yalla::core::persist::render_text(&result));
        }
        "summary" => {
            let m = yalla::store::module::ModuleReader::parse(&view)
                .map_err(|e| format!("payload is not a module: {e}"))?;
            println!(
                "record ({ns}, {key:016x}): {} payload bytes, module kind {}, format v{}",
                view.len(),
                m.kind(),
                yalla::store::FORMAT_VERSION,
            );
            for (tag, part) in m.parts() {
                println!("  partition tag={tag}: {} rows", part.rows());
            }
            println!("  strings: {} interned", m.str_count());
        }
        other => return Err(format!("unknown format `{other}`\n{DUMP_USAGE}")),
    }
    Ok(())
}

const STAT_USAGE: &str = "usage: yalla stat <SOCKET>";

/// Scrapes a running daemon: sends one `metrics` request over the Unix
/// socket and prints the returned Prometheus text exposition to stdout.
#[cfg(unix)]
fn run_stat(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{STAT_USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{STAT_USAGE}"));
            }
            path => {
                if socket.is_some() {
                    return Err(format!("more than one socket given\n{STAT_USAGE}"));
                }
                socket = Some(PathBuf::from(path));
            }
        }
    }
    let socket = socket.ok_or(format!("missing socket path\n{STAT_USAGE}"))?;
    let mut stream = std::os::unix::net::UnixStream::connect(&socket)
        .map_err(|e| format!("connecting to {}: {e}", socket.display()))?;
    let response = yalla::core::serve::client_request(&mut stream, "{\"op\": \"metrics\"}")?;
    let text = response
        .get("text")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("malformed metrics response: {response:?}"))?;
    print!("{text}");
    Ok(())
}

#[cfg(not(unix))]
fn run_stat(_args: &[String]) -> Result<(), String> {
    Err("yalla stat requires a platform with Unix sockets".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&argv[1..]),
        Some("serve") => run_serve(&argv[1..]),
        Some("stat") => run_stat(&argv[1..]),
        Some("dump") => run_dump(&argv[1..]),
        _ => run(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yalla: {e}");
            ExitCode::FAILURE
        }
    }
}
