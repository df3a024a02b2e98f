//! Metric names, result records and output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::Ledger;
use crate::trace::Tracer;
use crate::{Config, WORKERS};

/// End-to-end metrics, reported by every workload of an untraced run.
/// `read_p99_ms` and `fail_ratio` are printed beside them but are not part
/// of the machine-read result.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("edit_ms", "ms"),
    ("edit_tail_ms", "ms"),
    ("noop_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("restart_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric and workload it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const CE: &str = "corpus-edit";
const ME: &str = "mega-edit";
const SM: &str = "serve-mixed";

/// Per-layer metrics, reported by every workload of a traced run (0 where
/// a layer is not exercised; the human-readable output says so).
pub const PER_LAYER: [Layer; 53] = [
    layer("cpp.parse_ms_per_edit", "ms", "lower", "edit_ms", CE),
    layer(
        "cpp.pp_lines_per_edit",
        "count",
        "lower",
        "edit_ms, cpu_s",
        CE,
    ),
    layer(
        "cpp.decls_parsed_per_edit",
        "count",
        "lower",
        "edit_ms, cpu_s",
        CE,
    ),
    layer(
        "cpp.tus_reparsed_per_edit",
        "count",
        "lower",
        "edit_tail_ms",
        ME,
    ),
    layer("cpp.parse_hit_ratio", "ratio", "higher", "edit_ms", CE),
    layer("cpp.lex_mb_s", "MB/s", "higher", "cold_s", CE),
    layer("cpp.pp_klines_s", "klines/s", "higher", "cold_s", CE),
    layer("cpp.parse_kdecls_s", "kdecls/s", "higher", "cold_s", CE),
    layer("cpp.probe_ms", "ms", "lower", "noop_ms", ME),
    layer("cpp.cache_peak_mb", "MB", "lower", "peak_rss_mb", ME),
    layer("analysis.ms_per_edit", "ms", "lower", "edit_ms", ME),
    layer("analysis.symtab_ms", "ms", "lower", "edit_ms", ME),
    layer("analysis.usage_ms", "ms", "lower", "edit_ms", ME),
    layer(
        "analysis.symbols_resolved_per_edit",
        "count",
        "lower",
        "edit_ms",
        ME,
    ),
    layer("core.plan_ms_per_edit", "ms", "lower", "edit_ms", CE),
    layer("core.emit_ms_per_edit", "ms", "lower", "edit_ms", CE),
    layer("core.rewrite_ms_per_edit", "ms", "lower", "edit_ms", CE),
    layer(
        "core.verify_ms_per_edit",
        "ms",
        "lower",
        "edit_ms, cold_s",
        CE,
    ),
    layer("core.verify_check_ms", "ms", "lower", "cold_s, edit_ms", CE),
    layer(
        "core.verify_afterstats_ms",
        "ms",
        "lower",
        "cold_s, edit_ms",
        CE,
    ),
    layer(
        "core.hit_ratio.analyze",
        "ratio",
        "higher",
        "edit_ms",
        "corpus-edit, mega-edit",
    ),
    layer(
        "core.hit_ratio.plan",
        "ratio",
        "higher",
        "edit_ms",
        "corpus-edit, mega-edit",
    ),
    layer(
        "core.hit_ratio.emit",
        "ratio",
        "higher",
        "edit_ms",
        "corpus-edit, mega-edit",
    ),
    layer(
        "core.hit_ratio.rewrite",
        "ratio",
        "higher",
        "edit_ms",
        "corpus-edit, mega-edit",
    ),
    layer(
        "core.hit_ratio.verify",
        "ratio",
        "higher",
        "edit_ms",
        "corpus-edit, mega-edit",
    ),
    layer(
        "core.unattributed_ms_per_edit",
        "ms",
        "lower",
        "edit_ms, noop_ms",
        CE,
    ),
    layer("exec.tasks_per_edit", "count", "lower", "edit_tail_ms", ME),
    layer("exec.steals_per_edit", "count", "lower", "edit_tail_ms", ME),
    layer("exec.parks_per_edit", "count", "lower", "edit_tail_ms", ME),
    layer(
        "exec.cpu_util",
        "ratio",
        "higher",
        "edit_tail_ms, cold_s",
        ME,
    ),
    layer(
        "exec.parse_critical_ms",
        "ms",
        "lower",
        "cold_s, edit_tail_ms",
        ME,
    ),
    layer("store.hits", "count", "higher", "restart_s", SM),
    layer("store.misses", "count", "lower", "restart_s", SM),
    layer("store.zero_copy_hits", "count", "higher", "restart_s", SM),
    layer("store.bytes", "bytes", "lower", "restart_s", SM),
    layer(
        "store.restart_hit_ratio",
        "ratio",
        "higher",
        "restart_s",
        SM,
    ),
    layer("store.get_mb_s", "MB/s", "higher", "restart_s", SM),
    layer("store.put_ms", "ms", "lower", "restart_s, edit_ms", SM),
    layer(
        "serve.server_p50_ms.open",
        "ms",
        "lower",
        "edit_ms, read_p50_ms",
        SM,
    ),
    layer(
        "serve.server_p50_ms.edit",
        "ms",
        "lower",
        "edit_ms, read_p50_ms",
        SM,
    ),
    layer(
        "serve.server_p50_ms.rerun",
        "ms",
        "lower",
        "edit_ms, read_p50_ms",
        SM,
    ),
    layer(
        "serve.server_p50_ms.get",
        "ms",
        "lower",
        "edit_ms, read_p50_ms",
        SM,
    ),
    layer(
        "serve.server_p50_ms.status",
        "ms",
        "lower",
        "edit_ms, read_p50_ms",
        SM,
    ),
    layer(
        "serve.overhead_ms.open",
        "ms",
        "lower",
        "read_p99_ms, cold_s",
        SM,
    ),
    layer(
        "serve.overhead_ms.edit",
        "ms",
        "lower",
        "read_p99_ms, cold_s",
        SM,
    ),
    layer(
        "serve.overhead_ms.rerun",
        "ms",
        "lower",
        "read_p99_ms, cold_s",
        SM,
    ),
    layer(
        "serve.overhead_ms.get",
        "ms",
        "lower",
        "read_p99_ms, cold_s",
        SM,
    ),
    layer(
        "serve.overhead_ms.status",
        "ms",
        "lower",
        "read_p99_ms, cold_s",
        SM,
    ),
    layer("serve.cancelled", "count", "lower", "fail_ratio", SM),
    layer("serve.edits_coalesced", "count", "lower", "fail_ratio", SM),
    layer("serve.rejected", "count", "lower", "fail_ratio", SM),
    layer(
        "loadgen.late_p99_ms",
        "ms",
        "lower",
        "validity of read_p50_ms, read_p99_ms",
        SM,
    ),
    layer(
        "bench.trace_overhead",
        "ratio",
        "lower",
        "none (report only)",
        "all",
    ),
];

/// One reported value with a human-readable note (sample count,
/// percentile used, what was measured).
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub note: String,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub values: BTreeMap<String, Metric>,
    /// Extra printed rows (`fail_ratio`, the unattributed row, per-phase
    /// store counters) that are not part of the machine-read result.
    pub rows: Vec<(String, f64, String, String)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.values.insert(
            name.to_string(),
            Metric {
                value,
                note: note.into(),
            },
        );
    }

    pub fn row(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.rows
            .push((name.to_string(), value, unit.to_string(), note.into()));
    }
}

/// Where a result came from. Every number is measured on this run;
/// nothing is modeled.
#[derive(Debug)]
pub struct Provenance {
    pub profile: &'static str,
    pub host_cpus: usize,
    pub git_rev: String,
}

impl Provenance {
    pub fn new() -> Self {
        Provenance {
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            host_cpus: crate::sys::host_cpus(),
            git_rev: std::env::var("EDITBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        }
    }

    fn json(&self, cfg: &Config) -> String {
        format!(
            "{{\"measured\": true, \"modeled\": false, \"profile\": \"{}\", \"host_cpus\": {}, \
             \"workers\": {WORKERS}, \"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \
             \"seconds\": {}, \"traced\": {}}}",
            self.profile,
            self.host_cpus,
            self.git_rev,
            cfg.workload,
            cfg.seed,
            cfg.seconds,
            cfg.trace
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints the human-readable table, writes the run record (and the span
/// file of a traced run) under `cfg.out`, and prints the result object as
/// the last stdout line.
pub fn emit(cfg: &Config, prov: &Provenance, out: &Outcome) -> Result<(), String> {
    let names: Vec<(&str, &str, String)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.name,
                    l.unit,
                    format!("[{} is better; moves {} on {}] ", l.better, l.moves, l.on),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, String::new()))
            .collect()
    };
    let mut text = format!(
        "editbench {} seed={} traced={}\nprovenance: {}\n",
        cfg.workload,
        cfg.seed,
        cfg.trace,
        prov.json(cfg)
    );
    let mut result = Vec::new();
    for (name, unit, role) in names {
        let m = out.values.get(name).cloned().unwrap_or(Metric {
            value: 0.0,
            note: "n/a on this workload".into(),
        });
        let _ = writeln!(
            text,
            "  {name:<36} {:>14.4} {unit:<9} {role}{}",
            m.value, m.note
        );
        result.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(m.value)
        ));
    }
    for (name, value, unit, note) in &out.rows {
        let _ = writeln!(text, "  {name:<36} {value:>14.4} {unit:<9} {note}");
    }
    for p in out.ledger.problems.iter().take(20) {
        let _ = writeln!(text, "  FAILED: {p}");
    }
    print!("{text}");

    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let record = format!(
        "{{\"provenance\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        prov.json(cfg),
        out.ledger.attempted,
        out.ledger.failed,
        result.join(", ")
    );
    std::fs::write(cfg.out.join(format!("{stem}.json")), record)
        .map_err(|e| format!("writing the run record: {e}"))?;
    if let Some(tracer) = &out.tracer {
        let path = cfg.out.join(format!("{stem}.spans.json"));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "  spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ledger.correct(),
        out.ledger.attempted.max(1),
        out.ledger.failed,
        result.join(", ")
    );
    Ok(())
}

/// A telemetry snapshot: Prometheus series name → value.
pub type Scrape = BTreeMap<String, f64>;

/// Parses Prometheus text exposition (the `metrics` op's format).
pub fn parse_prometheus(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Snapshot of this process's always-on telemetry.
pub fn local_scrape() -> Scrape {
    parse_prometheus(&yalla_obs::export::prometheus(yalla_obs::global()))
}

/// The value of the program metric `name` (e.g. `cache.parse.hits`).
pub fn series(s: &Scrape, name: &str) -> f64 {
    s.get(&yalla_obs::export::prometheus_name(name))
        .copied()
        .unwrap_or(0.0)
}

/// Adds `after - before` into `acc`, series by series.
pub fn accumulate(acc: &mut Scrape, before: &Scrape, after: &Scrape) {
    for (k, v) in after {
        *acc.entry(k.clone()).or_default() += v - before.get(k).copied().unwrap_or(0.0);
    }
}

fn hit_ratio(d: &Scrape, stage: &str) -> (f64, f64) {
    let hits = series(d, &format!("cache.{stage}.hits"));
    let lookups = hits
        + series(d, &format!("cache.{stage}.misses"))
        + series(d, &format!("cache.{stage}.invalidations"));
    (if lookups > 0.0 { hits / lookups } else { 0.0 }, lookups)
}

/// The per-edit counter figures, from counter deltas summed over `edits`
/// traced edits.
pub fn layers_from_deltas(out: &mut Outcome, d: &Scrape, edits: usize) {
    let n = edits.max(1) as f64;
    let per = |name: &str| series(d, name) / n;
    let note = format!("counter delta over {edits} traced edits");
    out.set(
        "cpp.pp_lines_per_edit",
        per("pp.lines_preprocessed"),
        note.clone(),
    );
    out.set(
        "cpp.decls_parsed_per_edit",
        per("parse.ast_decls"),
        note.clone(),
    );
    out.set(
        "cpp.tus_reparsed_per_edit",
        per("session.tus_reparsed"),
        note.clone(),
    );
    out.set(
        "analysis.symbols_resolved_per_edit",
        per("analysis.symbols_resolved"),
        note.clone(),
    );
    out.set(
        "exec.tasks_per_edit",
        per("exec.tasks_executed"),
        note.clone(),
    );
    out.set(
        "exec.steals_per_edit",
        per("exec.tasks_stolen"),
        note.clone(),
    );
    out.set("exec.parks_per_edit", per("exec.parks"), note);
    let (r, lookups) = hit_ratio(d, "parse");
    out.set("cpp.parse_hit_ratio", r, format!("of {lookups} lookups"));
    for stage in ["analyze", "plan", "emit", "rewrite", "verify"] {
        let (r, lookups) = hit_ratio(d, stage);
        out.set(
            &format!("core.hit_ratio.{stage}"),
            r,
            format!("of {lookups} lookups"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_obs::json::JsonValue;

    fn field<'a>(v: &'a JsonValue, k: &str) -> &'a str {
        v.get(k).and_then(JsonValue::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let b = yalla_obs::json::parse(&text).expect("valid JSON");
        let e2e: Vec<(&str, &str)> = b
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(&str, &str, &str)> = b
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit, l.better))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn prometheus_text_parses_into_series() {
        let s = parse_prometheus(
            "# TYPE yalla_cache_parse_hits counter\nyalla_cache_parse_hits 7\n\
             yalla_latency_serve_get{quantile=\"0.5\"} 42\n",
        );
        assert_eq!(series(&s, "cache.parse.hits"), 7.0);
        assert_eq!(s["yalla_latency_serve_get{quantile=\"0.5\"}"], 42.0);
        let mut acc = Scrape::new();
        let mut later = s.clone();
        later.insert("yalla_cache_parse_hits".into(), 10.0);
        accumulate(&mut acc, &s, &later);
        assert_eq!(series(&acc, "cache.parse.hits"), 3.0);
    }
}
