//! `editbench`: the edit-loop benchmark.
//!
//! ```text
//! editbench --workload corpus-edit|mega-edit|serve-mixed --seed N \
//!           --seconds S --trace 0|1 [--yalla PATH] [--out DIR]
//! ```
//!
//! Each invocation runs one workload in a fresh process, so caches start
//! cold and the peak-memory figure belongs to that workload alone. With
//! `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` it is the per-layer result of a traced run of the same
//! workload and seed, and the spans are written to `--out`. Every output
//! is checked; the exit code is non-zero when any check fails.

mod check;
mod edits;
mod inproc;
mod metrics;
mod replay;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, Provenance};

/// Executor workers the program runs with in every workload.
pub const WORKERS: usize = 2;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `yalla` CLI binary (serve-mixed spawns its daemon).
    pub yalla: PathBuf,
    /// Directory for run records, spans and scratch state.
    pub out: PathBuf,
}

const USAGE: &str = "usage: editbench --workload corpus-edit|mega-edit|serve-mixed \
--seed N --seconds S --trace 0|1 [--yalla PATH] [--out DIR]";

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        yalla: PathBuf::from("yalla"),
        out: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => cfg.trace = value()? == "1",
            "--yalla" => cfg.yalla = PathBuf::from(value()?),
            "--out" => cfg.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("editbench: cannot create {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    let steal0 = sys::steal_s().unwrap_or(0.0);
    let outcome: Result<Outcome, String> = match cfg.workload.as_str() {
        "corpus-edit" => inproc::corpus_edit(&cfg),
        "mega-edit" => inproc::mega_edit(&cfg),
        "serve-mixed" => serve::serve_mixed(&cfg),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("editbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.row(
        "host_steal_s",
        sys::steal_s().unwrap_or(0.0) - steal0,
        "s",
        "CPU time the hypervisor took from this machine during the run",
    );
    let prov = Provenance::new();
    let ok = outcome.ledger.correct();
    if let Err(e) = metrics::emit(&cfg, &prov, &outcome) {
        eprintln!("editbench: {e}");
        return ExitCode::FAILURE;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
