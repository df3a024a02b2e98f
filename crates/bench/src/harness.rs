//! The shared evaluation harness: everything the table/figure binaries
//! need for one subject, computed once.
//!
//! For each subject the harness produces the three build configurations
//! the paper compares (default, PCH, YALLA), the Table 3 statistics, the
//! Figure 10 one-off costs, and — where the subject has a kernel — the
//! dynamic cycle counts that give Figure 8 its run times.

use yalla_core::{Engine, Options, SubstitutionResult};
use yalla_corpus::{runtime, KernelSpec, Subject};
use yalla_cpp::vfs::Vfs;
use yalla_sim::build::{build_pch, compile_default, compile_using_pch, CompiledTu};
use yalla_sim::ir::{ExecConfig, Machine, Value};
use yalla_sim::pch::PchFile;
use yalla_sim::phases::PhaseBreakdown;
use yalla_sim::{BuildConfig, CompilerProfile, DevCycleSim};

/// YALLA's own analysis+generation cost per line of the original TU
/// (virtual µs). Calibrated so the Kokkos subjects' tool run lands near
/// the paper's Figure 10 (~1.5 s): the tool re-parses the whole TU and
/// runs its analysis, costing a few times a compiler frontend pass.
pub const TOOL_PER_LINE_US: f64 = 13.0;

/// Everything measured for one subject.
#[derive(Debug)]
pub struct SubjectEvaluation {
    /// Subject name (Table 2 "File").
    pub name: &'static str,
    /// Suite name (Table 2 "Subject").
    pub suite: &'static str,
    /// Default compile of the user TU.
    pub default: CompiledTu,
    /// Compile using the PCH.
    pub pch: CompiledTu,
    /// The PCH itself (build cost, size).
    pub pch_file: PchFile,
    /// Compile of the substituted user TU.
    pub yalla: CompiledTu,
    /// Compile of the generated wrappers TU (one-off, Figure 6 step ③).
    pub wrappers: CompiledTu,
    /// Virtual tool time (Figure 10 "yalla" bar).
    pub tool_ms: f64,
    /// The engine's substitution result (plan, report, artifacts).
    pub substitution: SubstitutionResult,
    /// Dynamic cycles of one kernel run under the default build.
    pub run_cycles_default: Option<u64>,
    /// Dynamic cycles of one kernel run under the YALLA build.
    pub run_cycles_yalla: Option<u64>,
}

impl SubjectEvaluation {
    /// Table 2: speedup of YALLA over default.
    pub fn yalla_speedup(&self) -> f64 {
        self.default.phases.total_ms() / self.yalla.phases.total_ms()
    }

    /// Table 2: speedup of PCH over default.
    pub fn pch_speedup(&self) -> f64 {
        self.default.phases.total_ms() / self.pch.phases.total_ms()
    }

    /// Figure 8: one dev-cycle iteration per configuration
    /// (default, PCH, YALLA — in that order).
    pub fn dev_cycles(&self, profile: &CompilerProfile) -> Vec<yalla_sim::CycleReport> {
        let sim = DevCycleSim::new(*profile);
        let run_default = self.run_cycles_default.unwrap_or(0);
        let run_yalla = self.run_cycles_yalla.unwrap_or(run_default);
        vec![
            sim.cycle(
                BuildConfig::Default,
                &self.default.phases,
                &[self.default.object],
                run_default,
                0.0,
            ),
            sim.cycle(
                BuildConfig::Pch,
                &self.pch.phases,
                &[self.pch.object],
                run_default,
                self.pch_file.build.total_ms(),
            ),
            sim.cycle(
                BuildConfig::Yalla,
                &self.yalla.phases,
                &[self.yalla.object, self.wrappers.object],
                run_yalla,
                self.tool_ms + self.wrappers.phases.total_ms(),
            ),
        ]
    }
}

/// Runs the whole harness for one subject.
///
/// # Errors
///
/// Returns a string diagnostic when any stage fails (frontend error,
/// engine error, failed verification, kernel execution error).
pub fn evaluate_subject(
    subject: &Subject,
    profile: &CompilerProfile,
) -> Result<SubjectEvaluation, String> {
    // --- default ---------------------------------------------------------
    let default = compile_default(&subject.vfs, &subject.main_source, profile, &[])
        .map_err(|e| format!("{}: default compile: {e}", subject.name))?;

    // --- PCH ----------------------------------------------------------------
    let pch_refs: Vec<&str> = subject.pch_headers.iter().map(|s| s.as_str()).collect();
    let pch_file = build_pch(&subject.vfs, &pch_refs, profile, &[])
        .map_err(|e| format!("{}: pch build: {e}", subject.name))?;
    let pch = compile_using_pch(&subject.vfs, &subject.main_source, &pch_file, profile, &[])
        .map_err(|e| format!("{}: pch compile: {e}", subject.name))?;

    // --- YALLA ----------------------------------------------------------------
    let options = Options {
        header: subject.header.clone(),
        sources: subject.sources.clone(),
        ..Options::default()
    };
    let substitution = Engine::new(options.clone())
        .run(&subject.vfs)
        .map_err(|e| format!("{}: engine: {e}", subject.name))?;
    if !substitution.report.verification.passed() {
        return Err(format!(
            "{}: verification failed: parse={} wrappers={} violations={:?}",
            subject.name,
            substitution.report.verification.sources_parse,
            substitution.report.verification.wrappers_parse,
            substitution.report.verification.violations
        ));
    }
    let mut sub_vfs = subject.vfs.clone();
    substitution.install_into(&mut sub_vfs, &options);
    let yalla = compile_default(&sub_vfs, &subject.main_source, profile, &[])
        .map_err(|e| format!("{}: yalla compile: {e}", subject.name))?;
    let wrappers = compile_default(&sub_vfs, &options.wrappers_name, profile, &[])
        .map_err(|e| format!("{}: wrappers compile: {e}", subject.name))?;
    let tool_ms = default.work.lines as f64 * TOOL_PER_LINE_US / 1000.0;

    // --- kernel runs --------------------------------------------------------
    let (run_cycles_default, run_cycles_yalla) = match &subject.kernel {
        Some(spec) => {
            let d = run_kernel(subject, spec, None)
                .map_err(|e| format!("{}: default run: {e}", subject.name))?;
            let y = run_kernel(subject, spec, Some((&substitution, &options)))
                .map_err(|e| format!("{}: yalla run: {e}", subject.name))?;
            (Some(d), Some(y))
        }
        None => (None, None),
    };

    Ok(SubjectEvaluation {
        name: subject.name,
        suite: subject.suite.name(),
        default,
        pch,
        pch_file,
        yalla,
        wrappers,
        tool_ms,
        substitution,
        run_cycles_default,
        run_cycles_yalla,
    })
}

/// Executes a subject's kernel on the abstract machine, under the default
/// build (artifacts `None`) or the YALLA build.
///
/// Library headers are stubbed out for the machine (their behaviour comes
/// from natives), so only the user's code — original or rewritten — is
/// interpreted.
///
/// # Errors
///
/// Returns a diagnostic on parse or execution failure.
pub fn run_kernel(
    subject: &Subject,
    spec: &KernelSpec,
    artifacts: Option<(&SubstitutionResult, &Options)>,
) -> Result<u64, String> {
    run_kernel_full(subject, spec, artifacts).map(|(cycles, _)| cycles)
}

/// Like [`run_kernel`] but also returns the kernel's result value — used
/// to check that the substituted program computes the *same answer* as
/// the original (the paper's "runs correctly" guarantee).
///
/// # Errors
///
/// Returns a diagnostic on parse or execution failure.
pub fn run_kernel_full(
    subject: &Subject,
    spec: &KernelSpec,
    artifacts: Option<(&SubstitutionResult, &Options)>,
) -> Result<(u64, i64), String> {
    run_kernel_cfg(subject, spec, artifacts, ExecConfig::default())
}

/// Like [`run_kernel_full`] with an explicit machine configuration (used
/// by the LTO ablation: `ExecConfig { lto: true, .. }` removes the
/// cross-TU call penalty, modeling link-time inlining).
///
/// # Errors
///
/// Returns a diagnostic on parse or execution failure.
pub fn run_kernel_cfg(
    subject: &Subject,
    spec: &KernelSpec,
    artifacts: Option<(&SubstitutionResult, &Options)>,
    config: ExecConfig,
) -> Result<(u64, i64), String> {
    // Build the machine's file tree: stub everything except user files.
    let mut keep: Vec<String> = subject.sources.clone();
    keep.push("driver.cpp".to_string());
    let mut mvfs = Vfs::new();
    for (_, file) in subject.vfs.iter() {
        if keep.contains(&file.path) {
            mvfs.add_file(&file.path, file.text.clone());
        } else {
            mvfs.add_file(&file.path, "#pragma once\n");
        }
    }
    let mut wrappers_name = None;
    if let Some((result, options)) = artifacts {
        for (path, text) in &result.rewritten_sources {
            mvfs.add_file(path, text.clone());
        }
        mvfs.add_file(&options.lightweight_name, result.lightweight_header.clone());
        mvfs.add_file(&options.wrappers_name, result.wrappers_file.clone());
        wrappers_name = Some(options.wrappers_name.clone());
    }

    let parse = |path: &str| -> Result<yalla_cpp::ast::TranslationUnit, String> {
        let fe = yalla_cpp::Frontend::new(mvfs.clone());
        fe.parse_translation_unit(path)
            .map(|tu| tu.ast)
            .map_err(|e| format!("machine parse of {path}: {e}"))
    };

    let mut machine = Machine::new(config);
    // TU 0: the user's (possibly rewritten) kernel TU.
    machine.load_tu(&parse(&subject.main_source)?, 0);
    // TU 1: the wrappers TU (YALLA only).
    if let Some(w) = &wrappers_name {
        machine.load_tu(&parse(w)?, 1);
    }
    // TU 2: the driver (never rewritten).
    machine.load_tu(&parse("driver.cpp")?, 2);
    runtime::install(&mut machine, spec.runtime);

    let args: Vec<Value> = spec.args.iter().map(|v| Value::Int(*v)).collect();
    machine.reset_counters();
    let result = machine
        .call(&spec.entry, args, 2)
        .map_err(|e| format!("kernel `{}`: {e}", spec.entry))?;
    Ok((
        machine.cycles * spec.repeat as u64,
        result.as_i64().unwrap_or(0),
    ))
}

/// Evaluates every subject in parallel (order preserved). Failures are
/// reported per subject rather than aborting the sweep.
pub fn evaluate_all(profile: &CompilerProfile) -> Vec<Result<SubjectEvaluation, String>> {
    let subjects = yalla_corpus::all_subjects();
    let mut results: Vec<Option<Result<SubjectEvaluation, String>>> =
        (0..subjects.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for subject in &subjects {
            let profile = *profile;
            handles.push(scope.spawn(move || evaluate_subject(subject, &profile)));
        }
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = Some(
                handle
                    .join()
                    .unwrap_or_else(|_| Err("evaluation thread panicked".to_string())),
            );
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("slot filled"))
        .collect()
}

/// Pretty-prints a phase breakdown in the Figure 7 style.
pub fn phase_row(label: &str, p: &PhaseBreakdown) -> String {
    format!(
        "{label:<10} frontend {:>8.1} ms   backend {:>8.1} ms   total {:>8.1} ms",
        p.frontend_ms(),
        p.backend_ms(),
        p.total_ms()
    )
}
