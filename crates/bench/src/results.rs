//! Machine-readable benchmark results.
//!
//! Every figure/table binary can dump what it measured as one JSON file
//! per run — `results/BENCH_<bin>.json` — so downstream tooling (plots,
//! regression checks, CI) reads numbers instead of scraping the printed
//! tables. Each file is an envelope
//! `{schema_version, git, profile, host_cpus, records: [...]}` — the
//! version and the `git describe` of the producing tree let
//! perf-trajectory tooling trust (or discard) old records, and the build
//! profile and host CPU count say what produced the numbers — and a
//! record is
//! `{subject, config, phase_us: {...}}`, phase times in microseconds to
//! match the Chrome-trace unit.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use yalla_obs::chrome::escape_json;
use yalla_sim::phases::PhaseBreakdown;

use crate::harness::SubjectEvaluation;

/// One measured run: a subject under one build configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Subject name (Table 2 "File").
    pub subject: String,
    /// Configuration label (`default`, `pch`, `yalla`, `wrappers`, `tool`).
    pub config: String,
    /// Named phase durations in microseconds.
    pub phase_us: Vec<(String, f64)>,
}

impl RunRecord {
    /// A record from a simulated compile's phase breakdown.
    pub fn from_phases(subject: &str, config: &str, phases: &PhaseBreakdown) -> Self {
        RunRecord {
            subject: subject.to_string(),
            config: config.to_string(),
            phase_us: vec![
                ("preprocess".to_string(), phases.preprocess_ms * 1000.0),
                ("parse_sema".to_string(), phases.parse_sema_ms * 1000.0),
                ("instantiate".to_string(), phases.instantiate_ms * 1000.0),
                ("optimize".to_string(), phases.optimize_ms * 1000.0),
                ("codegen".to_string(), phases.codegen_ms * 1000.0),
            ],
        }
    }

    /// Total of all phases (µs).
    pub fn total_us(&self) -> f64 {
        self.phase_us.iter().map(|(_, v)| v).sum()
    }
}

/// The standard record set for one evaluated subject: the three compile
/// configurations, the wrappers compile, and the tool run itself — the
/// tool record's phases are the *real* span-derived engine timings
/// ([`yalla_core::Timings`]), not modeled values.
pub fn records_for(eval: &SubjectEvaluation) -> Vec<RunRecord> {
    let t = &eval.substitution.timings;
    vec![
        RunRecord::from_phases(eval.name, "default", &eval.default.phases),
        RunRecord::from_phases(eval.name, "pch", &eval.pch.phases),
        RunRecord::from_phases(eval.name, "yalla", &eval.yalla.phases),
        RunRecord::from_phases(eval.name, "wrappers", &eval.wrappers.phases),
        RunRecord {
            subject: eval.name.to_string(),
            config: "tool".to_string(),
            phase_us: vec![
                ("parse".to_string(), t.parse.as_secs_f64() * 1e6),
                ("analyze".to_string(), t.analyze.as_secs_f64() * 1e6),
                ("plan".to_string(), t.plan.as_secs_f64() * 1e6),
                ("generate".to_string(), t.generate.as_secs_f64() * 1e6),
                ("verify".to_string(), t.verify.as_secs_f64() * 1e6),
            ],
        },
    ]
}

/// Version of the `BENCH_*.json` envelope; bump on breaking layout
/// changes. Version 2 introduced the envelope itself (version 1 files
/// were a bare record array).
pub const SCHEMA_VERSION: u64 = 2;

/// `git describe --always --dirty` of the producing tree, or `unknown`
/// when git (or the repository) is unavailable — record files must still
/// be writable from an exported tarball.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build profile of this binary: `debug` when debug assertions are
/// compiled in, else `release`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// CPUs available to this process (1 when the host does not say).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serializes records as the versioned envelope (stable key order,
/// valid RFC 8259), stamped with [`SCHEMA_VERSION`], [`git_describe`],
/// [`build_profile`] and [`host_cpus`].
pub fn to_json(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\": {SCHEMA_VERSION}, \"git\": \"{}\", \"profile\": \"{}\", \
         \"host_cpus\": {}, \"records\": ",
        escape_json(&git_describe()),
        build_profile(),
        host_cpus()
    );
    out.push_str(&records_json(records));
    out.push_str("}\n");
    out
}

/// The bare record array (the envelope's `records` field).
fn records_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "  {{\"subject\": \"{}\", \"config\": \"{}\", \"phase_us\": {{",
            escape_json(&r.subject),
            escape_json(&r.config)
        );
        for (j, (name, us)) in r.phase_us.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let v = if us.is_finite() { *us } else { 0.0 };
            let _ = write!(out, "\"{}\": {v:.1}", escape_json(name));
        }
        out.push_str("}}");
    }
    out.push_str("\n]");
    out
}

/// Writes `records` to `<dir>/BENCH_<bin>.json` and returns the path.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_records(dir: &Path, bin: &str, records: &[RunRecord]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{bin}.json"));
    std::fs::write(&path, to_json(records))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_obs::json::{self, JsonValue};

    #[test]
    fn records_serialize_to_valid_json() {
        let records = vec![
            RunRecord::from_phases(
                "02",
                "default",
                &PhaseBreakdown {
                    preprocess_ms: 1.0,
                    parse_sema_ms: 2.0,
                    ..PhaseBreakdown::default()
                },
            ),
            RunRecord {
                subject: "we\"ird".to_string(),
                config: "tool".to_string(),
                phase_us: vec![("parse".to_string(), 12.5)],
            },
        ];
        let text = to_json(&records);
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema_version").and_then(JsonValue::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        let git = parsed.get("git").and_then(JsonValue::as_str).unwrap();
        assert!(!git.is_empty());
        assert_eq!(
            parsed.get("profile").and_then(JsonValue::as_str),
            Some(build_profile())
        );
        assert!(parsed
            .get("host_cpus")
            .and_then(JsonValue::as_f64)
            .is_some_and(|n| n >= 1.0));
        let arr = parsed.get("records").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("config").and_then(JsonValue::as_str),
            Some("default")
        );
        assert_eq!(
            arr[0]
                .get("phase_us")
                .and_then(|p| p.get("preprocess"))
                .and_then(JsonValue::as_f64),
            Some(1000.0)
        );
        assert_eq!(
            arr[1].get("subject").and_then(JsonValue::as_str),
            Some("we\"ird")
        );
    }

    #[test]
    fn totals_sum_phases() {
        let r = RunRecord {
            subject: "s".into(),
            config: "c".into(),
            phase_us: vec![("a".into(), 1.5), ("b".into(), 2.5)],
        };
        assert_eq!(r.total_us(), 4.0);
    }

    #[test]
    fn write_records_creates_bench_file() {
        let dir = std::env::temp_dir().join("yalla-results-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_records(&dir, "unit", &[]).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&text).expect("valid JSON");
        assert!(
            parsed
                .get("records")
                .and_then(JsonValue::as_array)
                .is_some_and(|records| records.is_empty()),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_describe_never_panics_and_is_nonempty() {
        let describe = git_describe();
        assert!(!describe.is_empty());
        assert!(!describe.contains('\n'));
    }
}
