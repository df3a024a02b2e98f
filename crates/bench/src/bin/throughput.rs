//! Daemon throughput under concurrent clients (`yalla serve`).
//!
//! Drives one `yalla serve` daemon over its real Unix socket through the
//! shared load driver ([`yalla_bench::daemon`]) with K synthetic
//! clients, each iterating the paper's development cycle over its share
//! of the 18 corpus subjects: open the project, one cold rerun (the full
//! pipeline), then steady-state edit→rerun iterations — edits that leave
//! the substitution inputs unchanged, the paper's §6 common case, so the
//! warm session revalidates in milliseconds. Every rerun carries the
//! subject's *modeled build latency* — the simulator's
//! default-configuration compile time for that TU, injected as a real
//! sleep inside the rerun task — so an iteration costs what it costs the
//! developer: the tool run plus the client-blocking compile.
//!
//! Two configurations run back to back, cold each time (fresh daemon,
//! fresh shards, same request scripts, same injected latencies):
//!
//! * **sequential** — 1 client, 1 executor worker: every build serializes,
//!   the classic one-developer-at-a-time baseline;
//! * **parallel8** — 8 clients, 8 executor workers: reruns overlap, the
//!   executor schedules them across workers. Subjects go heaviest first
//!   to the client with the least modeled work so far.
//!
//! The report compares measured wall-clock against the list-scheduling
//! model ([`yalla_sim::concurrent_makespan`]) over the per-subject
//! modeled costs. Writes `results/BENCH_throughput.json`.

#[cfg(not(unix))]
fn main() {
    eprintln!("the throughput bench drives a Unix-socket daemon; unix only");
}

#[cfg(unix)]
fn main() {
    imp::main();
}

#[cfg(unix)]
mod imp {
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    use yalla_bench::daemon::{run_pass, split, Class, Pass, Workload};
    use yalla_bench::results::{write_records, RunRecord};
    use yalla_corpus::all_subjects;
    use yalla_sim::build::compile_default;
    use yalla_sim::{concurrent_makespan, CompilerProfile};

    /// Edit→rerun iterations per subject (the first is the cold one).
    /// High enough that the steady-state iterations — whose cost is the
    /// modeled compile, not the tool — dominate the one-time cold run,
    /// as they do across a development session (§6).
    const ITERATIONS: usize = 10;
    /// Clients (and workers) in the parallel configuration.
    const FLEET: usize = 8;

    /// Each subject's requests: open, then edit/rerun pairs.
    pub(super) fn script() -> Vec<Class> {
        let mut script = vec![Class::Open];
        for _ in 0..ITERATIONS {
            script.extend([Class::Edit, Class::Rerun]);
        }
        script
    }

    /// A subject's modeled build time over all its reruns (µs).
    fn modeled_us(w: &Workload) -> f64 {
        w.build_latency_us().unwrap_or(0.0) * ITERATIONS as f64
    }

    /// Every subject's workload, heaviest modeled build first.
    fn build_workloads() -> Vec<Workload> {
        let profile = CompilerProfile::clang();
        let mut loads: Vec<Workload> = all_subjects()
            .iter()
            .map(|s| {
                let compiled = compile_default(&s.vfs, &s.main_source, &profile, &[])
                    .unwrap_or_else(|e| panic!("{}: sim compile: {e}", s.name));
                Workload::new(s, Some(compiled.phases.total_ms() * 1_000.0), script())
            })
            .collect();
        loads.sort_by(|a, b| modeled_us(b).total_cmp(&modeled_us(a)));
        loads
    }

    /// Prints the pass line and returns each subject's wall-clock (open
    /// plus all iterations, µs) and how many of its reruns recomputed a
    /// stage (all but the cold one should be fully cached — the
    /// steady-state premise), keyed by subject name.
    fn per_subject(tag: &str, pass: &Pass) -> BTreeMap<&'static str, (f64, usize)> {
        println!(
            "  {tag}: wall {:.2} s, user {:.2} s, sys {:.2} s, {} rerun(s) recomputed a stage",
            pass.wall_us / 1e6,
            pass.user_s,
            pass.sys_s,
            pass.recomputed()
        );
        let mut walls: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &pass.samples {
            let entry = walls.entry(s.subject).or_default();
            entry.0 += s.us as f64;
            entry.1 += usize::from(s.recomputed());
        }
        walls
    }

    pub(super) fn main() {
        let loads = build_workloads();
        let modeled: Vec<f64> = loads.iter().map(|w| modeled_us(w) / 1e3).collect();

        println!("sequential pass (1 client, 1 worker)...");
        let seq = run_pass("throughput-seq", 1, &[loads.iter().collect()]);
        let seq_walls = per_subject("seq", &seq);
        println!("parallel pass ({FLEET} clients, {FLEET} workers)...");
        let par = run_pass(
            "throughput-par",
            FLEET,
            &split(&loads, FLEET, |w| modeled_us(w)),
        );
        let par_walls = per_subject("par", &par);

        let speedup = seq.wall_us / par.wall_us;
        let modeled_speedup = modeled.iter().sum::<f64>() / concurrent_makespan(&modeled, FLEET);
        println!(
            "modeled sleep total {:.2} s (chains of {} iterations)",
            modeled.iter().sum::<f64>() / 1e3,
            ITERATIONS
        );
        println!(
            "\n{:<24} {:>14} {:>14} {:>10}",
            "subject", "seq (ms)", "par8 (ms)", "recomputed"
        );
        let mut records = Vec::new();
        for ((name, (seq_us, seq_rec)), (par_name, (par_us, par_rec))) in
            seq_walls.iter().zip(&par_walls)
        {
            assert_eq!(name, par_name);
            println!(
                "{name:<24} {:>14.1} {:>14.1} {:>6}/{:<3}",
                seq_us / 1e3,
                par_us / 1e3,
                seq_rec,
                par_rec
            );
            for (config, us) in [("sequential", seq_us), ("parallel8", par_us)] {
                records.push(RunRecord {
                    subject: name.to_string(),
                    config: config.to_string(),
                    phase_us: vec![("wall".to_string(), *us)],
                });
            }
        }
        println!(
            "\ncorpus total: sequential {:.2} s, parallel8 {:.2} s — speedup {speedup:.2}x \
             (sleep-only list-scheduling model: {modeled_speedup:.2}x)",
            seq.wall_us / 1e6,
            par.wall_us / 1e6
        );
        records.push(RunRecord {
            subject: "corpus".to_string(),
            config: "sequential".to_string(),
            phase_us: vec![("wall".to_string(), seq.wall_us)],
        });
        records.push(RunRecord {
            subject: "corpus".to_string(),
            config: "parallel8".to_string(),
            phase_us: vec![
                ("wall".to_string(), par.wall_us),
                ("speedup_x1000".to_string(), speedup * 1e3),
                ("modeled_speedup_x1000".to_string(), modeled_speedup * 1e3),
            ],
        });

        let out = write_records(&PathBuf::from("results"), "throughput", &records)
            .expect("write results");
        println!("wrote {}", out.display());
        assert!(
            speedup >= 3.0,
            "parallel daemon must beat the sequential baseline by >= 3x, got {speedup:.2}x"
        );
    }
}

#[cfg(all(test, unix))]
mod tests {
    use yalla_bench::daemon::Class;

    #[test]
    fn script_is_open_then_ten_edit_reruns() {
        let script = super::imp::script();
        let mut expected = vec![Class::Open];
        expected.extend([Class::Edit, Class::Rerun].repeat(10));
        assert_eq!(script, expected);
    }
}
