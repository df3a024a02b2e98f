//! `yalla serve` daemon tests over a real Unix socket: a smoke test
//! (start → one request cycle → clean shutdown) and a stress test — 8
//! client threads firing hundreds of interleaved `edit`/`rerun`/`get`/
//! `status` requests at several projects on one daemon, then checking
//! that no request deadlocked, no artifact bled across project shards,
//! and every project's final artifacts are byte-identical to a cold
//! single-threaded run over the same final file state.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use yalla::core::serve::{client_request, Server};
use yalla::cpp::vfs::Vfs;
use yalla::exec::Executor;
use yalla::obs::chrome::escape_json;
use yalla::obs::json::JsonValue;
use yalla::{Engine, Options};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("yalla-test-{tag}-{}.sock", std::process::id()))
}

fn connect(path: &std::path::Path) -> UnixStream {
    // The accept loop may still be binding; retry briefly.
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("could not connect to {}", path.display());
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok") == Some(&JsonValue::Bool(true))
}

/// Project `p`'s header. Each project gets its own marker class name, so
/// any cross-shard bleed is visible in every generated artifact.
fn header_text(p: usize) -> String {
    format!(
        "namespace pj{p} {{\nclass Marker{p} {{\n public:\n  int id() const;\n  int scale(int k) const;\n}};\n}}  // namespace pj{p}\n"
    )
}

/// Thread-private source file `t` of project `p` at revision `rev`.
fn source_text(p: usize, t: usize, rev: usize) -> String {
    format!(
        "#include \"pj{p}.hpp\"\nint use{t}(pj{p}::Marker{p}& m) {{ return m.id() + m.scale({rev}); }}\n"
    )
}

fn source_name(t: usize) -> String {
    format!("s{t}.cpp")
}

/// The `open` request for project `p` with `per` thread-private sources.
fn open_request(p: usize, per: usize) -> String {
    let mut files = vec![format!(
        "\"pj{p}.hpp\": \"{}\"",
        escape_json(&header_text(p))
    )];
    let mut sources = Vec::new();
    for t in 0..per {
        files.push(format!(
            "\"{}\": \"{}\"",
            source_name(t),
            escape_json(&source_text(p, t, 0))
        ));
        sources.push(format!("\"{}\"", source_name(t)));
    }
    format!(
        "{{\"op\": \"open\", \"project\": \"pj{p}\", \"header\": \"pj{p}.hpp\", \
         \"sources\": [{}], \"files\": {{{}}}}}",
        sources.join(", "),
        files.join(", ")
    )
}

fn cold_run(p: usize, final_revs: &[usize]) -> yalla::SubstitutionResult {
    let mut vfs = Vfs::new();
    vfs.add_file(&format!("pj{p}.hpp"), header_text(p));
    let mut sources = Vec::new();
    for (t, &rev) in final_revs.iter().enumerate() {
        vfs.add_file(&source_name(t), source_text(p, t, rev));
        sources.push(source_name(t));
    }
    Engine::new(Options {
        header: format!("pj{p}.hpp"),
        sources,
        ..Options::default()
    })
    .run(&vfs)
    .unwrap_or_else(|e| panic!("cold run of pj{p}: {e}"))
}

#[test]
fn smoke_open_rerun_get_shutdown() {
    let path = socket_path("smoke");
    let server = Server::start(&path, Executor::new(2)).expect("start server");
    let mut stream = connect(&path);

    let r = client_request(&mut stream, &open_request(0, 1)).unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"pj0\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(
        &mut stream,
        "{\"op\": \"get\", \"project\": \"pj0\", \"artifact\": \"lightweight\"}",
    )
    .unwrap();
    assert!(
        r.get("text")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .contains("class Marker0;"),
        "{r:?}"
    );
    let r = client_request(&mut stream, "{\"op\": \"shutdown\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    server.join();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Hostile input: a header whose macros nest 100k deep. The rerun that
/// preprocesses it answers with a typed error instead of overflowing a
/// worker's stack, and the daemon keeps serving.
#[test]
fn deep_macro_nesting_fails_the_rerun_and_the_daemon_stays_up() {
    let path = socket_path("deep-macro");
    let server = Server::start(&path, Executor::new(2)).expect("start server");
    let mut stream = connect(&path);

    let depth = 100_000;
    let mut header: String = (0..depth)
        .map(|i| format!("#define M{i} M{}\n", i + 1))
        .collect();
    header.push_str(&format!("#define M{depth} int\nclass W {{}};\nM0 x;\n"));
    let open = format!(
        "{{\"op\": \"open\", \"project\": \"deep\", \"header\": \"deep.hpp\", \
         \"sources\": [\"main.cpp\"], \"files\": {{\"deep.hpp\": \"{}\", \
         \"main.cpp\": \"#include \\\"deep.hpp\\\"\\nint f(W& w);\\n\"}}}}",
        escape_json(&header)
    );
    let r = client_request(&mut stream, &open).unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"deep\"}").unwrap();
    assert!(!ok(&r), "{r:?}");
    let error = r.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("macro expansion nested too deeply"), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"status\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"shutdown\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    server.join();
}

/// Crash recovery end to end against the real binary: a `yalla serve`
/// daemon with a cache dir is driven through open/edit/rerun, killed
/// with SIGKILL mid-steady-state (no shutdown handshake, no flush), and
/// restarted on the same cache dir. The restarted daemon must rebuild
/// its warm pool from disk — the very first rerun is fully cached — and
/// serve artifacts byte-identical to the pre-crash ones.
#[test]
fn sigkill_and_restart_on_same_cache_dir_is_disk_warm() {
    let cache = std::env::temp_dir().join(format!("yalla-test-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let spawn = |sock: &std::path::Path| -> std::process::Child {
        std::process::Command::new(env!("CARGO_BIN_EXE_yalla"))
            .args(["serve", "--socket"])
            .arg(sock)
            .arg("--cache-dir")
            .arg(&cache)
            .args(["--workers", "2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn yalla serve")
    };

    // Generation 1: open, warm up, edit, rerun; capture the artifacts.
    let sock1 = socket_path("crash-gen1");
    let mut daemon = spawn(&sock1);
    let mut stream = connect(&sock1);
    let r = client_request(&mut stream, &open_request(0, 1)).unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"pj0\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    let edit = format!(
        "{{\"op\": \"edit\", \"project\": \"pj0\", \"path\": \"s0.cpp\", \"text\": \"{}\"}}",
        escape_json(&source_text(0, 0, 3))
    );
    let r = client_request(&mut stream, &edit).unwrap();
    assert!(ok(&r), "{r:?}");
    let r = client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"pj0\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    let before: Vec<String> = ["lightweight", "wrappers", "source:s0.cpp"]
        .iter()
        .map(|artifact| {
            let r = client_request(
                &mut stream,
                &format!("{{\"op\": \"get\", \"project\": \"pj0\", \"artifact\": \"{artifact}\"}}"),
            )
            .unwrap();
            r.get("text")
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{artifact}: {r:?}"))
                .to_string()
        })
        .collect();

    // SIGKILL: no shutdown request, no clean exit path runs.
    daemon.kill().expect("SIGKILL the daemon");
    daemon.wait().expect("reap the daemon");
    let _ = std::fs::remove_file(&sock1);

    // Generation 2 on the same cache dir: the warm pool is rebuilt from
    // disk, so the first rerun recomputes nothing.
    let sock2 = socket_path("crash-gen2");
    let mut daemon = spawn(&sock2);
    let mut stream = connect(&sock2);
    let r = client_request(&mut stream, "{\"op\": \"status\"}").unwrap();
    assert_eq!(
        r.get("shards")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(1),
        "warm pool rebuilt before any open: {r:?}"
    );
    let r = client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"pj0\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    assert_eq!(
        r.get("fully_cached"),
        Some(&JsonValue::Bool(true)),
        "first rerun after kill -9 must be disk-warm: {r:?}"
    );
    for (artifact, want) in ["lightweight", "wrappers", "source:s0.cpp"]
        .iter()
        .zip(&before)
    {
        let r = client_request(
            &mut stream,
            &format!("{{\"op\": \"get\", \"project\": \"pj0\", \"artifact\": \"{artifact}\"}}"),
        )
        .unwrap();
        assert_eq!(
            r.get("text").and_then(JsonValue::as_str),
            Some(want.as_str()),
            "`{artifact}` diverged across the crash"
        );
    }
    let r = client_request(&mut stream, "{\"op\": \"shutdown\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "clean exit: {status:?}");
    let _ = std::fs::remove_dir_all(&cache);
}

/// A slow subject's rerun is superseded twice by fast edits from another
/// connection: exactly one final rerun completes (absorbing both edits
/// through cancelled rounds), `serve.cancelled` counts the aborted
/// attempts, and `status` never reports a cancelled generation as
/// current — mid-flight it still shows the last *published* generation.
#[test]
fn superseded_rerun_coalesces_edits_and_cancels_cleanly() {
    let path = socket_path("supersede");
    let server = Server::start(&path, Executor::new(2)).expect("start server");

    // A slow project: 400ms of modeled build latency per rerun attempt
    // gives the superseding edits a wide window to land.
    let mut setup = connect(&path);
    let open = format!(
        "{{\"op\": \"open\", \"project\": \"slow\", \"header\": \"slow.hpp\", \
         \"sources\": [\"s0.cpp\"], \"build_latency_us\": 400000, \"files\": {{\
         \"slow.hpp\": \"{}\", \"s0.cpp\": \"{}\"}}}}",
        escape_json(&header_text(9)).replace("pj9", "slow"),
        escape_json(&source_text(9, 0, 0)).replace("pj9", "slow")
    );
    let r = client_request(&mut setup, &open).unwrap();
    assert!(ok(&r), "{r:?}");
    // Cold warm-up rerun: publishes generation 0.
    let r = client_request(&mut setup, "{\"op\": \"rerun\", \"project\": \"slow\"}").unwrap();
    assert!(ok(&r), "{r:?}");

    // The slow rerun, on its own connection.
    let rerun = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut stream = connect(&path);
            client_request(&mut stream, "{\"op\": \"rerun\", \"project\": \"slow\"}").unwrap()
        })
    };
    // Two superseding edits while the rerun sleeps its modeled build.
    std::thread::sleep(std::time::Duration::from_millis(80));
    for rev in [1usize, 2] {
        let edit = format!(
            "{{\"op\": \"edit\", \"project\": \"slow\", \"path\": \"s0.cpp\", \"text\": \"{}\"}}",
            escape_json(&source_text(9, 0, rev)).replace("pj9", "slow")
        );
        let r = client_request(&mut setup, &edit).unwrap();
        assert!(ok(&r), "{r:?}");
        // Status right after the supersede: the cancelled attempt must
        // not surface — the published generation is still the last
        // *completed* one (0, from the warm-up rerun).
        let status = client_request(&mut setup, "{\"op\": \"status\"}").unwrap();
        let shard = &status.get("shards").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(
            shard.get("generation").and_then(JsonValue::as_f64),
            Some(0.0),
            "cancelled generation leaked into status: {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(80));
    }

    let r = rerun.join().expect("rerun thread");
    assert!(ok(&r), "{r:?}");
    // Exactly one final rerun completed (the warm-up plus this one),
    // having absorbed both edits through at least one cancelled round.
    assert_eq!(
        r.get("reruns").and_then(JsonValue::as_f64),
        Some(2.0),
        "{r:?}"
    );
    assert_eq!(
        r.get("edits_applied").and_then(JsonValue::as_f64),
        Some(2.0),
        "{r:?}"
    );
    assert!(
        r.get("superseded")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "expected at least one cancelled round: {r:?}"
    );
    assert_eq!(
        r.get("generation").and_then(JsonValue::as_f64),
        Some(2.0),
        "{r:?}"
    );

    // The published artifact is the final source, not a stale one.
    let got = client_request(
        &mut setup,
        "{\"op\": \"get\", \"project\": \"slow\", \"artifact\": \"source:s0.cpp\"}",
    )
    .unwrap();
    assert!(
        got.get("text")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .contains("scale(m, 2)"),
        "{got:?}"
    );

    // The daemon counted the aborted attempts.
    let metrics = client_request(&mut setup, "{\"op\": \"metrics\"}").unwrap();
    let text = metrics.get("text").and_then(JsonValue::as_str).unwrap();
    let cancelled: i64 = text
        .lines()
        .find_map(|l| l.strip_prefix("yalla_serve_cancelled "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    assert!(
        cancelled >= 1,
        "serve.cancelled should count the aborted attempts:\n{text}"
    );
    let status = client_request(&mut setup, "{\"op\": \"status\"}").unwrap();
    let shard = &status.get("shards").and_then(JsonValue::as_array).unwrap()[0];
    assert!(
        shard
            .get("cancelled")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{status:?}"
    );

    let r = client_request(&mut setup, "{\"op\": \"shutdown\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    server.join();
}

#[test]
fn stress_eight_clients_no_deadlock_no_bleed() {
    const PROJECTS: usize = 4;
    const THREADS: usize = 8;
    const THREADS_PER_PROJECT: usize = THREADS / PROJECTS;
    const REQUESTS_PER_THREAD: usize = 70; // 8 × 70 = 560 ≥ 500

    let path = socket_path("stress");
    let server = Server::start(&path, Executor::new(4)).expect("start server");

    // Open every project (and run it once so racing `get`s always have a
    // completed run) before the clients start.
    let mut setup = connect(&path);
    for p in 0..PROJECTS {
        let r = client_request(&mut setup, &open_request(p, THREADS_PER_PROJECT)).unwrap();
        assert!(ok(&r), "{r:?}");
        let r = client_request(
            &mut setup,
            &format!("{{\"op\": \"rerun\", \"project\": \"pj{p}\"}}"),
        )
        .unwrap();
        assert!(ok(&r), "{r:?}");
    }

    let rejected = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let path = path.clone();
        let rejected = Arc::clone(&rejected);
        handles.push(std::thread::spawn(move || {
            let p = thread % PROJECTS;
            let t = thread / PROJECTS; // this thread's private source file
            let mut stream = connect(&path);
            let mut rev = 0usize;
            // A fixed per-thread schedule keyed off the request index:
            // edits, reruns, artifact reads, and status checks interleave.
            for i in 0..REQUESTS_PER_THREAD {
                let request = match i % 7 {
                    0 | 3 => {
                        rev += 1;
                        format!(
                            "{{\"op\": \"edit\", \"project\": \"pj{p}\", \"path\": \"{}\", \"text\": \"{}\"}}",
                            source_name(t),
                            escape_json(&source_text(p, t, rev))
                        )
                    }
                    1 | 4 => format!("{{\"op\": \"rerun\", \"project\": \"pj{p}\"}}"),
                    2 => format!(
                        "{{\"op\": \"get\", \"project\": \"pj{p}\", \"artifact\": \"lightweight\"}}"
                    ),
                    5 => format!(
                        "{{\"op\": \"get\", \"project\": \"pj{p}\", \"artifact\": \"source:{}\"}}",
                        source_name(t)
                    ),
                    _ => "{\"op\": \"status\"}".to_string(),
                };
                let response = client_request(&mut stream, &request)
                    .unwrap_or_else(|e| panic!("thread {thread} request {i}: {e}"));
                if !ok(&response) {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            rev
        }));
    }
    let mut final_revs = vec![vec![0usize; THREADS_PER_PROJECT]; PROJECTS];
    for (thread, handle) in handles.into_iter().enumerate() {
        let rev = handle.join().expect("client thread panicked");
        final_revs[thread % PROJECTS][thread / PROJECTS] = rev;
    }
    assert_eq!(
        rejected.load(Ordering::Relaxed),
        0,
        "every request in the schedule is valid"
    );

    // Per project: drain pending edits, then the final artifacts must be
    // byte-identical to a cold single-threaded run over the final file
    // state, and must mention only this project's marker class.
    for (p, revs) in final_revs.iter().enumerate() {
        let r = client_request(
            &mut setup,
            &format!("{{\"op\": \"rerun\", \"project\": \"pj{p}\"}}"),
        )
        .unwrap();
        assert!(ok(&r), "{r:?}");
        let cold = cold_run(p, revs);
        let mut artifacts: BTreeMap<String, String> = BTreeMap::new();
        artifacts.insert("lightweight".into(), cold.lightweight_header.clone());
        artifacts.insert("wrappers".into(), cold.wrappers_file.clone());
        for (name, text) in &cold.rewritten_sources {
            artifacts.insert(format!("source:{name}"), text.clone());
        }
        for (artifact, expected) in &artifacts {
            let r = client_request(
                &mut setup,
                &format!(
                    "{{\"op\": \"get\", \"project\": \"pj{p}\", \"artifact\": \"{artifact}\"}}"
                ),
            )
            .unwrap();
            let got = r.get("text").and_then(JsonValue::as_str).unwrap_or("");
            assert_eq!(
                got, expected,
                "pj{p} `{artifact}` differs from the cold single-threaded run"
            );
            assert!(
                got.contains(&format!("Marker{p}")) || artifact.starts_with("source:"),
                "pj{p} `{artifact}` lost its own marker"
            );
            for other in 0..PROJECTS {
                if other != p {
                    assert!(
                        !got.contains(&format!("Marker{other}")),
                        "pj{p} `{artifact}` bled project pj{other}'s artifacts"
                    );
                }
            }
        }
    }

    let status = client_request(&mut setup, "{\"op\": \"status\"}").unwrap();
    assert_eq!(
        status
            .get("shards")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(PROJECTS),
        "one shard per project: {status:?}"
    );
    let r = client_request(&mut setup, "{\"op\": \"shutdown\"}").unwrap();
    assert!(ok(&r), "{r:?}");
    server.join();
}
