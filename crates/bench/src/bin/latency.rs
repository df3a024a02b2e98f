//! Client-observed request latency per request class (`yalla serve`).
//!
//! Drives a `yalla serve` daemon over its real Unix socket through the
//! shared load driver ([`yalla_bench::daemon`]) and measures what a
//! *client* waits per request — not the server-side stage spans —
//! classified by request class (`open`, `edit`, `rerun`, `get`,
//! `status`). Each client walks its share of the corpus subjects through
//! the development cycle: one `open` (cold pipeline), then steady-state
//! `edit`→`rerun` iterations, a few artifact `get`s, and one `status`.
//! Unlike the throughput bench no modeled build latency is injected —
//! this bench measures the tool and daemon themselves.
//!
//! Two configurations run back to back, cold each time:
//!
//! * **clients1** — 1 client, 1 executor worker (no contention);
//! * **clients8** — 8 executor workers and up to 8 clients (contended
//!   tails). Subjects are dealt round-robin to 8 client slots and a slot
//!   with no subject runs no client, so fewer than 8 subjects (e.g.
//!   `--subjects 3`) means one client per subject. The label stays
//!   `clients8` either way; the pass line prints the real client count.
//!
//! Per configuration the samples feed the same log-bucketed histograms
//! the daemon exports (`yalla_obs::Histogram`), and the report prints
//! P50/P95/P99 per class. Writes `results/BENCH_latency.json` with one
//! record per subject and configuration plus `corpus` aggregates.
//!
//! With `--slo <slo.toml>` every per-class aggregate P99 is checked
//! against its pinned bound and the run exits non-zero on a violation —
//! the CI latency gate. `--subjects N` trims the corpus for smoke runs;
//! `--event-log <path>` streams the daemon's JSONL span log for
//! post-mortem joins when the gate fails.

#[cfg(not(unix))]
fn main() {
    eprintln!("the latency bench drives a Unix-socket daemon; unix only");
}

#[cfg(unix)]
fn main() {
    imp::main();
}

#[cfg(unix)]
mod imp {
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    use yalla_bench::daemon::{run_pass, split, Class, Workload};
    use yalla_bench::results::{write_records, RunRecord};
    use yalla_bench::slo::Slo;
    use yalla_corpus::all_subjects;
    use yalla_obs::Histogram;

    /// Steady-state `edit`→`rerun` pairs per subject (after the cold open).
    const ITERATIONS: usize = 8;
    /// Artifact `get` requests per subject.
    const GETS: usize = 4;
    /// Client slots (and workers) in the contended configuration.
    const FLEET: usize = 8;

    const USAGE: &str =
        "usage: latency [--subjects N] [--slo <slo.toml>] [--event-log <OUT.jsonl>]";

    /// Each subject's requests: open, edit/rerun pairs, gets, status.
    pub(super) fn script() -> Vec<Class> {
        let mut script = vec![Class::Open];
        for _ in 0..ITERATIONS {
            script.extend([Class::Edit, Class::Rerun]);
        }
        script.extend([Class::Get; GETS]);
        script.push(Class::Status);
        script
    }

    /// Latency histograms per request class.
    type Classes = BTreeMap<&'static str, Histogram>;

    /// P50/P95/P99 and count per class, as `<class>.<stat>` entries.
    fn quantile_entries(hists: &Classes) -> Vec<(String, f64)> {
        hists
            .iter()
            .flat_map(|(class, hist)| {
                let snap = hist.snapshot();
                [
                    ("p50", snap.quantile(0.50) as f64),
                    ("p95", snap.quantile(0.95) as f64),
                    ("p99", snap.quantile(0.99) as f64),
                    ("count", snap.count as f64),
                ]
                .map(|(stat, v)| (format!("{class}.{stat}"), v))
            })
            .collect()
    }

    pub(super) fn main() {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut subjects_cap: Option<usize> = None;
        let mut slo_path: Option<PathBuf> = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .cloned()
                    .unwrap_or_else(|| panic!("{name} needs a value\n{USAGE}"))
            };
            match arg.as_str() {
                "--subjects" => {
                    subjects_cap = Some(
                        value("--subjects")
                            .parse()
                            .unwrap_or_else(|e| panic!("bad --subjects: {e}")),
                    );
                }
                "--slo" => slo_path = Some(PathBuf::from(value("--slo"))),
                "--event-log" => {
                    let path = PathBuf::from(value("--event-log"));
                    yalla_obs::log::init_file(&path)
                        .unwrap_or_else(|e| panic!("opening event log {}: {e}", path.display()));
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    return;
                }
                other => panic!("unknown argument `{other}`\n{USAGE}"),
            }
        }
        let slo = slo_path.map(|p| Slo::load(&p).unwrap_or_else(|e| panic!("{e}")));

        let subjects = all_subjects();
        let take = subjects_cap.unwrap_or(subjects.len()).min(subjects.len());
        let loads: Vec<Workload> = subjects
            .iter()
            .take(take)
            .map(|s| Workload::new(s, None, script()))
            .collect();

        println!("clients1 pass (1 client, 1 worker, {take} subject(s))...");
        let seq = run_pass("latency-seq", 1, &[loads.iter().collect()]);
        let groups = split(&loads, FLEET, |_| 1.0);
        println!(
            "clients8 pass ({} client(s), {FLEET} workers, {take} subject(s))...",
            groups.len()
        );
        let par = run_pass("latency-par", FLEET, &groups);

        let mut records = Vec::new();
        let mut measured = Vec::new();
        println!(
            "\n{:<10} {:<9} {:>7} {:>12} {:>12} {:>12}",
            "config", "class", "count", "p50 (us)", "p95 (us)", "p99 (us)"
        );
        for (config, pass) in [("clients1", &seq), ("clients8", &par)] {
            // Per-class histograms over the whole corpus (the printed
            // table, the `corpus` record and the SLO gate) and per subject.
            let mut corpus = Classes::new();
            let mut subjects: BTreeMap<&str, Classes> = BTreeMap::new();
            for s in &pass.samples {
                for hists in [&mut corpus, subjects.entry(s.subject).or_default()] {
                    hists.entry(s.class.name()).or_default().record(s.us);
                }
            }
            for (class, hist) in &corpus {
                let snap = hist.snapshot();
                println!(
                    "{config:<10} {class:<9} {:>7} {:>12} {:>12} {:>12}",
                    snap.count,
                    snap.quantile(0.50),
                    snap.quantile(0.95),
                    snap.quantile(0.99)
                );
                measured.push((class.to_string(), config.to_string(), snap.quantile(0.99)));
            }
            for (subject, hists) in
                std::iter::once(("corpus", &corpus)).chain(subjects.iter().map(|(s, h)| (*s, h)))
            {
                records.push(RunRecord {
                    subject: subject.to_string(),
                    config: config.to_string(),
                    phase_us: quantile_entries(hists),
                });
            }
        }

        let out =
            write_records(&PathBuf::from("results"), "latency", &records).expect("write results");
        println!("\nwrote {}", out.display());
        yalla_obs::log::flush();

        if let Some(slo) = slo {
            let violations = slo.check(&measured);
            for v in &violations {
                eprintln!("{v}");
            }
            if !violations.is_empty() {
                std::process::exit(1);
            }
            println!(
                "SLO check passed: {} class bound(s), {} measurement(s)",
                slo.len(),
                measured.len()
            );
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use yalla_bench::daemon::Class;

    #[test]
    fn script_is_open_eight_edit_reruns_four_gets_and_status() {
        let script = super::imp::script();
        let count = |class| script.iter().filter(|c| **c == class).count();
        assert_eq!(
            [
                Class::Open,
                Class::Edit,
                Class::Rerun,
                Class::Get,
                Class::Status
            ]
            .map(count),
            [1, 8, 8, 4, 1]
        );
        assert_eq!(script.len(), 22);
        assert_eq!(script[0], Class::Open);
        assert_eq!(script[1..17], [Class::Edit, Class::Rerun].repeat(8));
    }
}
