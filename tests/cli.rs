//! End-to-end test of the `yalla` command-line tool on real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_yalla")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yalla-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("include")).expect("mkdir");
    dir
}

#[test]
fn cli_substitutes_a_header_on_disk() {
    let dir = scratch("basic");
    std::fs::write(
        dir.join("include/widgets.hpp"),
        "#pragma once\nnamespace w {\nclass Widget {\npublic:\n  int id() const;\n};\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <widgets.hpp>\nint describe(w::Widget& widget) { return widget.id(); }\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "widgets.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let lw = std::fs::read_to_string(dir.join("out/yalla_lightweight.hpp")).unwrap();
    assert!(lw.contains("class Widget;"), "{lw}");
    let app = std::fs::read_to_string(dir.join("out/app.cpp")).unwrap();
    assert!(app.contains("yalla_lightweight.hpp"), "{app}");
    assert!(app.contains("id(widget)"), "{app}");
    let wrappers = std::fs::read_to_string(dir.join("out/yalla_wrappers.cpp")).unwrap();
    assert!(wrappers.contains("#include <widgets.hpp>"), "{wrappers}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_self_profile_emits_nested_chrome_trace() {
    use yalla::obs::json::{self, JsonValue};

    let dir = scratch("profile");
    std::fs::write(
        dir.join("include/widgets.hpp"),
        "#pragma once\nnamespace w {\nclass Widget {\npublic:\n  int id() const;\n};\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <widgets.hpp>\nint describe(w::Widget& widget) { return widget.id(); }\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "widgets.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "--self-profile",
            "prof.json",
            "--metrics",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace parses as JSON and holds the whole engine pipeline.
    let text = std::fs::read_to_string(dir.join("prof.json")).unwrap();
    let parsed = json::parse(&text).expect("self-profile is valid JSON");
    let events = parsed.as_array().expect("array of events");
    let span_names: Vec<(&str, f64, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("name").and_then(JsonValue::as_str).unwrap(),
                e.get("ts").and_then(JsonValue::as_f64).unwrap(),
                e.get("dur").and_then(JsonValue::as_f64).unwrap(),
            )
        })
        .collect();
    for phase in [
        "preprocess",
        "parse",
        "analyze",
        "plan",
        "emit",
        "rewrite",
        "verify",
    ] {
        assert!(
            span_names.iter().any(|(n, _, _)| *n == phase),
            "missing span `{phase}` in {span_names:?}"
        );
    }
    // Nesting: every phase span lies inside the enclosing `substitute` span.
    let (_, sub_ts, sub_dur) = *span_names
        .iter()
        .find(|(n, _, _)| *n == "substitute")
        .expect("run span present");
    for phase in ["parse", "analyze", "plan", "emit", "rewrite"] {
        let (_, ts, dur) = *span_names.iter().find(|(n, _, _)| *n == phase).unwrap();
        assert!(
            sub_ts <= ts && ts + dur <= sub_ts + sub_dur,
            "`{phase}` not nested in `substitute`"
        );
    }
    // Counter events made it too.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("C")
                && e.get("name").and_then(JsonValue::as_str) == Some("pp.files_preprocessed")
        }),
        "no pp.files_preprocessed counter event"
    );

    // --metrics prints the summary tables on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("pp.files_preprocessed"), "{stdout}");
    assert!(stdout.contains("engine.runs"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_without_profile_flag_writes_no_trace() {
    let dir = scratch("noprofile");
    std::fs::write(dir.join("include/lib.hpp"), "#pragma once\nclass A;\n").unwrap();
    std::fs::write(dir.join("app.cpp"), "#include <lib.hpp>\nint x;\n").unwrap();
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "lib.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("prof.json").exists());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("metrics:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_missing_header_flag() {
    let out = Command::new(bin())
        .args(["app.cpp"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--header"));
}

#[test]
fn cli_fails_cleanly_on_missing_source() {
    let dir = scratch("missing");
    let out = Command::new(bin())
        .current_dir(&dir)
        .args(["--header", "x.hpp", "nope.cpp"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.cpp"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_iterate_replays_edits_through_one_session() {
    let dir = scratch("iterate");
    std::fs::write(
        dir.join("include/widgets.hpp"),
        "#pragma once\nnamespace w {\nclass Widget {\npublic:\n  int id() const;\n};\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <widgets.hpp>\nint describe(w::Widget& widget) { return widget.id(); }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app_v2.cpp"),
        "#include <widgets.hpp>\nint describe(w::Widget& widget) { return widget.id() + 1; }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("edits.txt"),
        "# warm no-op rerun\nrerun\n\
         # body edit from disk, then rerun\nedit app.cpp app_v2.cpp\nrerun\n\
         # append a trailing comment, then rerun\nappend app.cpp // done\nrerun\n\
         touch app.cpp\nrerun\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "widgets.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "--iterate",
            "edits.txt",
            "--metrics",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The cold run misses; the immediate rerun and the touch rerun hit.
    assert!(
        stdout.contains("iteration 0 (cold): parse=miss"),
        "{stdout}"
    );
    assert!(stdout.contains("iteration 1: parse=hit"), "{stdout}");
    assert!(stdout.contains("iteration 2: parse=inval"), "{stdout}");
    assert!(stdout.contains("iteration 4: parse=hit"), "{stdout}");
    // Body edits never rebuild the plan (§6 steady state).
    assert!(!stdout.contains("plan=inval"), "{stdout}");
    // --metrics surfaces the per-stage cache counters.
    assert!(stdout.contains("cache.parse.hits"), "{stdout}");
    assert!(stdout.contains("session.reruns"), "{stdout}");
    // The artifacts on disk come from the *last* rerun.
    let app = std::fs::read_to_string(dir.join("out/app.cpp")).unwrap();
    assert!(app.contains("id(widget) + 1"), "{app}");
    assert!(app.contains("// done"), "{app}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_keep_predeclares_symbols() {
    let dir = scratch("keep");
    std::fs::write(
        dir.join("include/lib.hpp"),
        "#pragma once\nnamespace L {\nclass Used { public:\n  int id() const;\n};\nclass Spare;\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <lib.hpp>\nint f(L::Used& u) { return u.id(); }\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "lib.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "--keep",
            "L::Spare",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lw = std::fs::read_to_string(dir.join("out/yalla_lightweight.hpp")).unwrap();
    assert!(lw.contains("class Spare;"), "{lw}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_event_log_writes_joinable_jsonl() {
    use yalla::obs::json;

    let dir = scratch("eventlog");
    std::fs::write(
        dir.join("include/lib.hpp"),
        "#pragma once\nnamespace E {\nclass Thing {\npublic:\n  int id() const;\n};\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <lib.hpp>\nint f(E::Thing& t) { return t.id(); }\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "--header",
            "lib.hpp",
            "--include-dir",
            "include",
            "--out-dir",
            "out",
            "--event-log",
            "events.jsonl",
            "app.cpp",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let log = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let mut stage_lines = 0usize;
    for line in log.lines() {
        let v = json::parse(line).expect("every event-log line is valid JSON");
        assert!(v.get("ts_us").is_some(), "missing ts_us: {line}");
        assert!(v.get("req").is_some(), "missing req: {line}");
        let kind = v.get("kind").and_then(|k| k.as_str()).expect("kind");
        if kind == "stage" {
            stage_lines += 1;
            assert!(v.get("dur_us").is_some(), "stage without dur_us: {line}");
        }
    }
    assert!(stage_lines > 0, "expected stage events, got:\n{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh process answered from the on-disk run bundle still writes one
/// event-log line per stage, each a hit.
#[test]
fn cli_disk_warm_run_logs_every_stage_as_a_hit() {
    use yalla::obs::json;

    let dir = scratch("diskwarm-log");
    std::fs::write(
        dir.join("include/lib.hpp"),
        "#pragma once\nnamespace E {\nclass Thing {\npublic:\n  int id() const;\n};\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("app.cpp"),
        "#include <lib.hpp>\nint f(E::Thing& t) { return t.id(); }\n",
    )
    .unwrap();
    let run = |log: &str| {
        let out = Command::new(bin())
            .current_dir(&dir)
            .args([
                "--header",
                "lib.hpp",
                "--include-dir",
                "include",
                "--out-dir",
                "out",
                "--cache-dir",
                "cache",
                "--event-log",
                log,
                "app.cpp",
            ])
            .output()
            .expect("cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join(log)).unwrap()
    };
    run("cold.jsonl");
    let log = run("warm.jsonl");
    let stages: Vec<json::JsonValue> = log
        .lines()
        .map(|line| json::parse(line).expect("every event-log line is valid JSON"))
        .filter(|v| v.get("kind").and_then(|k| k.as_str()) == Some("stage"))
        .collect();
    assert_eq!(stages.len(), 6, "one line per stage, got:\n{log}");
    for v in &stages {
        assert_eq!(
            v.get("lookup").and_then(|l| l.as_str()),
            Some("hit"),
            "disk-warm stage must hit: {log}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `yalla stat <socket>` scrapes a live daemon: the output is Prometheus
/// text exposition, and a second scrape includes the latency summary for
/// the first scrape's own `metrics` request.
#[cfg(unix)]
#[test]
fn cli_stat_scrapes_a_running_daemon() {
    let dir = scratch("stat");
    let socket = dir.join("yalla.sock");
    let socket_str = socket.to_str().unwrap().to_string();
    let mut daemon = Command::new(bin())
        .args(["serve", "--socket", &socket_str, "--workers", "1"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut ready = false;
    for _ in 0..500 {
        if socket.exists() {
            ready = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ready, "daemon never bound {}", socket.display());

    let first = Command::new(bin())
        .args(["stat", &socket_str])
        .output()
        .expect("stat runs");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(text.contains("# TYPE"), "{text}");
    assert!(text.contains("yalla_serve_requests "), "{text}");

    let second = Command::new(bin())
        .args(["stat", &socket_str])
        .output()
        .expect("stat runs twice");
    let text = String::from_utf8_lossy(&second.stdout);
    assert!(
        text.contains("yalla_latency_serve_metrics{quantile=\"0.99\"}"),
        "{text}"
    );

    use std::io::Write;
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stream.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
