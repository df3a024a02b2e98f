//! Substitution reports: what was generated, and the before/after
//! translation-unit statistics the paper reports in Table 3.

use std::fmt;

use yalla_analysis::incomplete::IncompleteViolation;

use crate::plan::{Diagnostic, Plan};

/// Size statistics of one translation unit (Table 3 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuStats {
    /// Non-blank lines of code entering the compilation.
    pub loc: usize,
    /// Distinct headers included, directly or transitively.
    pub headers: usize,
}

/// Outcome of the post-substitution verification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verification {
    /// The rewritten sources re-parse successfully.
    pub sources_parse: bool,
    /// The generated wrappers file parses against the original header.
    pub wrappers_parse: bool,
    /// Incomplete-type rule violations found in the rewritten sources
    /// (empty on success).
    pub violations: Vec<IncompleteViolation>,
}

impl Verification {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.sources_parse && self.wrappers_parse && self.violations.is_empty()
    }
}

/// Summary of one Header Substitution run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Classes forward declared in the lightweight header.
    pub classes_forward_declared: usize,
    /// Functions forward declared as-is.
    pub functions_forward_declared: usize,
    /// Function wrappers generated.
    pub function_wrappers: usize,
    /// Method/field wrappers generated.
    pub method_wrappers: usize,
    /// Functors generated from lambdas.
    pub functors: usize,
    /// Enums replaced by their underlying type.
    pub enums_replaced: usize,
    /// Explicit template instantiations emitted in the wrappers file.
    pub explicit_instantiations: usize,
    /// Diagnostics accumulated by the engine.
    pub diagnostics: Vec<Diagnostic>,
    /// TU statistics before substitution (original include).
    pub before: TuStats,
    /// TU statistics after substitution (lightweight include).
    pub after: TuStats,
    /// Verification outcome.
    pub verification: Verification,
}

impl Report {
    /// Builds the generation counts from a plan.
    pub fn from_plan(plan: &Plan) -> Report {
        Report {
            classes_forward_declared: plan.classes.len(),
            functions_forward_declared: plan.functions.len(),
            function_wrappers: plan.fn_wrappers.len(),
            method_wrappers: plan.method_wrappers.len(),
            functors: plan.functors.len(),
            enums_replaced: plan.enums.len(),
            explicit_instantiations: plan
                .fn_wrappers
                .iter()
                .map(|w| w.instantiations.len())
                .sum::<usize>()
                + plan
                    .method_wrappers
                    .iter()
                    .map(|w| w.instantiations.len())
                    .sum::<usize>(),
            diagnostics: plan.diagnostics.clone(),
            ..Report::default()
        }
    }

    /// LOC reduction factor (before / after), the headline quantity behind
    /// the paper's compile-time speedups.
    pub fn loc_reduction(&self) -> f64 {
        if self.after.loc == 0 {
            return f64::INFINITY;
        }
        self.before.loc as f64 / self.after.loc as f64
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "header substitution report")?;
        writeln!(
            f,
            "  forward declarations: {} classes, {} functions",
            self.classes_forward_declared, self.functions_forward_declared
        )?;
        writeln!(
            f,
            "  wrappers: {} function, {} method/field; {} functors; {} enums replaced",
            self.function_wrappers, self.method_wrappers, self.functors, self.enums_replaced
        )?;
        writeln!(
            f,
            "  explicit instantiations: {}",
            self.explicit_instantiations
        )?;
        writeln!(
            f,
            "  LOC {} -> {} ({:.1}x), headers {} -> {}",
            self.before.loc,
            self.after.loc,
            self.loc_reduction(),
            self.before.headers,
            self.after.headers
        )?;
        writeln!(
            f,
            "  verification: {}",
            if self.verification.passed() {
                "passed"
            } else {
                "FAILED"
            }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  note: {}", d.message)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_reduction_math() {
        let mut r = Report {
            before: TuStats {
                loc: 111301,
                headers: 581,
            },
            after: TuStats {
                loc: 77,
                headers: 2,
            },
            ..Report::default()
        };
        assert!((r.loc_reduction() - 1445.5).abs() < 1.0);
        r.after.loc = 0;
        assert!(r.loc_reduction().is_infinite());
    }

    #[test]
    fn display_is_informative() {
        let r = Report::default();
        let text = r.to_string();
        assert!(text.contains("forward declarations"));
        assert!(text.contains("verification"));
    }
}
