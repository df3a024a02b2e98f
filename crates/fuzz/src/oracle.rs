//! The differential execution oracle.
//!
//! A generated project is run twice on the same [`Machine`] natives:
//! once as written (the expensive header's inline bodies are
//! interpreted in the user's TU) and once post-substitution (rewritten
//! sources include the lightweight header; the wrappers TU is loaded as
//! its own translation unit, exactly like the bench harness loads
//! subjects). The observable trace — probe-callback sequence, entry
//! return value, and any [`yalla_sim::ir::ExecError`] — must be identical; virtual
//! cycle counts are deliberately *excluded* (the cycle difference is the
//! paper's intended effect, not a bug). The engine's own `verify` pass
//! must also report success.

use std::cell::RefCell;
use std::rc::Rc;

use yalla_core::{Engine, Options, SubstitutionResult};
use yalla_cpp::vfs::Vfs;
use yalla_sim::ir::{ExecConfig, Machine, Value};

use crate::grammar::{ProjectModel, DRIVER_SOURCE, ENTRY, MAIN_SOURCE};

/// Everything observable about one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecTrace {
    /// Values passed to `probe`, in call order.
    pub probes: Vec<i64>,
    /// The entry point's return value (when execution succeeded).
    pub ret: Option<i64>,
    /// Execution error message (when execution failed).
    pub error: Option<String>,
}

/// Why the oracle flagged a case.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// The engine itself failed on a generated project.
    EngineError(String),
    /// The engine's verification pass rejected its own output.
    VerifyFailed(String),
    /// One side failed to parse/load on the machine.
    MachineError {
        /// Which side (`"original"` / `"substituted"`).
        side: &'static str,
        /// The machine-layer failure.
        message: String,
    },
    /// The two runs produced different observable traces.
    TraceMismatch {
        /// Original-run trace.
        original: ExecTrace,
        /// Substituted-run trace.
        substituted: ExecTrace,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::EngineError(e) => write!(f, "engine error: {e}"),
            Divergence::VerifyFailed(e) => write!(f, "verification failed: {e}"),
            Divergence::MachineError { side, message } => {
                write!(f, "machine error ({side}): {message}")
            }
            Divergence::TraceMismatch {
                original,
                substituted,
            } => write!(
                f,
                "trace mismatch:\n  original:    {original:?}\n  substituted: {substituted:?}"
            ),
        }
    }
}

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Both runs agreed.
    Agree(ExecTrace),
    /// The runs disagreed (or the pipeline failed).
    Diverged(Box<Divergence>),
}

/// A deliberately wrong rewrite rule, injectable for testing the oracle
/// and the shrinker (the ISSUE's "known-bad rewrite" hook). Applied to
/// the rewritten main source *after* the engine runs, standing in for a
/// transformer bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No sabotage: the engine's real output runs.
    #[default]
    None,
    /// Offsets the argument of the first `probe(` call in the rewritten
    /// main source — a minimal stand-in for a miscompiled call argument.
    ProbeOffset,
    /// Deletes the first `return` statement's expression, replacing it
    /// with `0` — a stand-in for a dropped rewrite.
    ZeroReturn,
}

impl Sabotage {
    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Sabotage::None),
            "probe-offset" => Some(Sabotage::ProbeOffset),
            "zero-return" => Some(Sabotage::ZeroReturn),
            _ => None,
        }
    }

    /// Applies the bad rewrite to rewritten source text.
    pub fn apply(self, text: &str) -> String {
        match self {
            Sabotage::None => text.to_string(),
            Sabotage::ProbeOffset => match text.find("probe(") {
                Some(i) => {
                    let mut out = String::with_capacity(text.len() + 4);
                    out.push_str(&text[..i + "probe(".len()]);
                    out.push_str("1 + ");
                    out.push_str(&text[i + "probe(".len()..]);
                    out
                }
                None => text.to_string(),
            },
            Sabotage::ZeroReturn => match text.find("return ") {
                Some(i) => {
                    let end = text[i..].find(';').map(|e| i + e).unwrap_or(text.len());
                    let mut out = String::with_capacity(text.len());
                    out.push_str(&text[..i]);
                    out.push_str("return 0");
                    out.push_str(&text[end..]);
                    out
                }
                None => text.to_string(),
            },
        }
    }
}

/// Runs one full differential case for `model`.
pub fn run_case(model: &ProjectModel, sabotage: Sabotage, entry_args: (i64, i64)) -> CaseOutcome {
    let (vfs, options) = model.render();
    run_case_on(&vfs, &options, sabotage, entry_args)
}

/// Runs one differential case on an already-rendered project — also the
/// replay path for checked-in repro fixtures.
pub fn run_case_on(
    vfs: &Vfs,
    options: &Options,
    sabotage: Sabotage,
    entry_args: (i64, i64),
) -> CaseOutcome {
    let result = match Engine::new(options.clone()).run(vfs) {
        Ok(r) => r,
        Err(e) => return CaseOutcome::Diverged(Box::new(Divergence::EngineError(e.to_string()))),
    };
    if options.verify && !result.report.verification.passed() {
        return CaseOutcome::Diverged(Box::new(Divergence::VerifyFailed(format!(
            "sources_parse={} wrappers_parse={} violations={:?}",
            result.report.verification.sources_parse,
            result.report.verification.wrappers_parse,
            result.report.verification.violations
        ))));
    }

    let original = match execute(vfs, None, entry_args) {
        Ok(t) => t,
        Err(message) => {
            return CaseOutcome::Diverged(Box::new(Divergence::MachineError {
                side: "original",
                message,
            }))
        }
    };

    let mut sub_vfs = vfs.clone();
    result.install_into(&mut sub_vfs, options);
    if sabotage != Sabotage::None {
        if let Some(text) = result.rewritten_sources.get(MAIN_SOURCE) {
            sub_vfs.add_file(MAIN_SOURCE, sabotage.apply(text));
        }
    }
    let substituted = match execute(&sub_vfs, Some(&options.wrappers_name), entry_args) {
        Ok(t) => t,
        Err(message) => {
            return CaseOutcome::Diverged(Box::new(Divergence::MachineError {
                side: "substituted",
                message,
            }))
        }
    };

    if original == substituted {
        CaseOutcome::Agree(original)
    } else {
        CaseOutcome::Diverged(Box::new(Divergence::TraceMismatch {
            original,
            substituted,
        }))
    }
}

/// Executes one side on the machine and captures its observable trace.
///
/// TU layout mirrors the bench harness: TU 0 is the (possibly rewritten)
/// user source, TU 1 the wrappers file (substituted side only), TU 2 the
/// driver. Unlike the harness, the library header is *not* stubbed —
/// its inline bodies are interpreted, which is what makes the original
/// and substituted runs comparable value-for-value.
fn execute(
    vfs: &Vfs,
    wrappers_name: Option<&str>,
    entry_args: (i64, i64),
) -> Result<ExecTrace, String> {
    let parse = |path: &str| -> Result<yalla_cpp::ast::TranslationUnit, String> {
        let fe = yalla_cpp::Frontend::new(vfs.clone());
        fe.parse_translation_unit(path)
            .map(|tu| tu.ast)
            .map_err(|e| format!("machine parse of {path}: {e}"))
    };

    let mut machine = Machine::new(ExecConfig::default());
    machine.load_tu(&parse(MAIN_SOURCE)?, 0);
    if let Some(w) = wrappers_name {
        machine.load_tu(&parse(w)?, 1);
    }
    machine.load_tu(&parse(DRIVER_SOURCE)?, 2);

    let trace: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = trace.clone();
    machine.register_native("probe", move |_m, args| {
        let v = args.first().and_then(Value::as_i64).unwrap_or(0);
        sink.borrow_mut().push(v);
        Ok(Value::Int(v))
    });

    machine.reset_counters();
    let outcome = machine.call(
        ENTRY,
        vec![Value::Int(entry_args.0), Value::Int(entry_args.1)],
        2,
    );
    let probes = trace.borrow().clone();
    Ok(match outcome {
        Ok(v) => ExecTrace {
            probes,
            ret: Some(v.as_i64().unwrap_or(0)),
            error: None,
        },
        Err(e) => ExecTrace {
            probes,
            ret: None,
            error: Some(e.message),
        },
    })
}

/// Re-runs only the engine for `model`, returning the substitution
/// artifacts (used by tests and the repro writer).
pub fn substitution_for(model: &ProjectModel) -> Result<SubstitutionResult, String> {
    let (vfs, options) = model.render();
    Engine::new(options).run(&vfs).map_err(|e| e.to_string())
}
