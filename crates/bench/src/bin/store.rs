//! Measures the persistent on-disk store across a real process boundary.
//!
//! The disk tier's whole point is that warmth survives the process: a
//! `yalla` invocation (or a restarted daemon) that has *only* the cache
//! dir must skip recomputation. Holding both runs in one process would
//! let the in-memory caches leak into the measurement, so this bench
//! re-executes itself:
//!
//! * the parent spawns `current_exe() --child <dir>` — a fresh process
//!   that runs every corpus subject with the store attached, populating
//!   the (initially empty) cache dir from nothing;
//! * it then spawns the same child again — another fresh process whose
//!   only shared state with the first is the cache dir — and requires
//!   every subject to come back fully cached with zero files reparsed;
//! * each child prints one tab-separated line per subject (wall µs,
//!   cached flag, reparse count); the parent checks the contract,
//!   prints the speedup table, and writes `results/BENCH_store.json`
//!   with `store-cold` / `store-warm` records.
//!
//! The parent also measures the **on-disk footprint** of each subject's
//! run bundle: the binary module encoding (what the store persists,
//! DESIGN.md §13) against the line-oriented text rendering
//! (`yalla dump --format=text`) as the size baseline. The binary form
//! must be smaller for every subject; `store-bytes` records carry both
//! numbers (in bytes, despite the field name's µs convention —
//! `config` disambiguates).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use yalla_bench::results::{write_records, RunRecord};
use yalla_core::persist::{encode_run, render_text};
use yalla_core::{Engine, Options, Session};
use yalla_corpus::all_subjects;
use yalla_store::Store;

/// One subject's measurement as reported by a child process.
struct Measured {
    subject: String,
    wall_us: f64,
    fully_cached: bool,
    files_reparsed: usize,
}

fn child(dir: &Path) -> Result<(), String> {
    let store = Arc::new(Store::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?);
    for subject in all_subjects() {
        let options = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        let mut session =
            Session::with_store(options, subject.vfs.clone(), Some(Arc::clone(&store)));
        let start = Instant::now();
        let run = session
            .rerun()
            .map_err(|e| format!("{}: {e}", subject.name))?;
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        println!(
            "{}\t{wall_us:.1}\t{}\t{}",
            subject.name,
            run.fully_cached(),
            run.files_reparsed
        );
    }
    Ok(())
}

fn spawn_child(dir: &Path) -> Result<Vec<Measured>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--child")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut measured = Vec::new();
    for line in stdout.lines() {
        let mut cols = line.split('\t');
        let parse = || format!("bad child line: {line:?}");
        measured.push(Measured {
            subject: cols.next().ok_or_else(parse)?.to_string(),
            wall_us: cols.next().and_then(|v| v.parse().ok()).ok_or_else(parse)?,
            fully_cached: cols.next().and_then(|v| v.parse().ok()).ok_or_else(parse)?,
            files_reparsed: cols.next().and_then(|v| v.parse().ok()).ok_or_else(parse)?,
        });
    }
    Ok(measured)
}

fn parent() -> Result<usize, String> {
    let dir = std::env::temp_dir().join(format!("yalla-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = spawn_child(&dir)?;
    let warm = spawn_child(&dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    if cold.len() != warm.len() || cold.is_empty() {
        return Err(format!(
            "child runs disagree: {} cold vs {} warm subjects",
            cold.len(),
            warm.len()
        ));
    }

    let mut failures = 0usize;
    let mut records = Vec::new();
    println!(
        "{:<10} {:>14} {:>14}  disk-warm speedup",
        "subject", "cold (µs)", "disk-warm (µs)"
    );
    for (c, w) in cold.iter().zip(&warm) {
        if c.subject != w.subject {
            return Err(format!(
                "subject order differs: {} vs {}",
                c.subject, w.subject
            ));
        }
        if !w.fully_cached || w.files_reparsed != 0 {
            eprintln!(
                "{}: fresh process was not disk-warm (cached={}, reparsed={})",
                w.subject, w.fully_cached, w.files_reparsed
            );
            failures += 1;
        }
        if c.fully_cached {
            eprintln!("{}: cold run hit a cache in a fresh dir", c.subject);
            failures += 1;
        }
        println!(
            "{:<10} {:>14.0} {:>14.0}  {:>6.1}x",
            c.subject,
            c.wall_us,
            w.wall_us,
            c.wall_us / w.wall_us.max(1.0)
        );
        records.push(RunRecord {
            subject: c.subject.clone(),
            config: "store-cold".to_string(),
            phase_us: vec![("wall".to_string(), c.wall_us)],
        });
        records.push(RunRecord {
            subject: w.subject.clone(),
            config: "store-warm".to_string(),
            phase_us: vec![("wall".to_string(), w.wall_us)],
        });
    }

    // Size pass: one in-process engine run per subject, encoded both
    // ways. The binary module format must beat the text rendering on
    // every subject, or the compactness claim regressed.
    println!();
    println!(
        "{:<10} {:>12} {:>12}  binary/text",
        "subject", "binary (B)", "text (B)"
    );
    for subject in all_subjects() {
        let options = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        let result = match Engine::new(options).run(&subject.vfs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: size pass engine run: {e}", subject.name);
                failures += 1;
                continue;
            }
        };
        // Artifacts only: the text rendering has no depfile to compare the
        // bundle's depfile rows against.
        let Some(binary) = encode_run(&result, &[]) else {
            eprintln!("{}: run bundle not persistable", subject.name);
            failures += 1;
            continue;
        };
        let text = render_text(&result);
        if binary.len() >= text.len() {
            eprintln!(
                "{}: binary bundle ({} B) is not smaller than the text rendering ({} B)",
                subject.name,
                binary.len(),
                text.len()
            );
            failures += 1;
        }
        println!(
            "{:<10} {:>12} {:>12}  {:>10.2}",
            subject.name,
            binary.len(),
            text.len(),
            binary.len() as f64 / text.len() as f64
        );
        records.push(RunRecord {
            subject: subject.name.to_string(),
            config: "store-bytes".to_string(),
            phase_us: vec![
                ("binary_bytes".to_string(), binary.len() as f64),
                ("text_bytes".to_string(), text.len() as f64),
            ],
        });
    }

    match write_records(Path::new("results"), "store", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            failures += 1;
        }
    }
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        let dir = args.get(2).expect("--child takes the cache dir");
        if let Err(e) = child(Path::new(dir)) {
            eprintln!("store bench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    match parent() {
        Ok(0) => {}
        Ok(failures) => {
            eprintln!("{failures} failure(s)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("store bench: {e}");
            std::process::exit(1);
        }
    }
}
