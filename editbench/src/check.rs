//! Output checks: artifact comparison against an oracle, plus the
//! failure accounting every workload reports.

use std::collections::BTreeMap;

use yalla_core::engine::SubstitutionResult;

/// The artifacts a run produces, by name: `lightweight`, `wrappers` and
/// `source:<path>` for every rewritten source.
pub type Artifacts = BTreeMap<String, String>;

/// Collects a run's artifacts under the names the serve `get` op uses.
pub fn artifacts_of(result: &SubstitutionResult) -> Artifacts {
    let mut out = Artifacts::new();
    out.insert("lightweight".into(), result.lightweight_header.clone());
    out.insert("wrappers".into(), result.wrappers_file.clone());
    for (path, text) in &result.rewritten_sources {
        out.insert(format!("source:{path}"), text.clone());
    }
    out
}

/// FNV-64 over every artifact in name order.
pub fn artifact_hash(artifacts: &Artifacts) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (name, text) in artifacts {
        for b in name.bytes().chain([0]).chain(text.bytes()).chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Describes every difference between `actual` and `expected`; empty when
/// they are byte-identical.
pub fn diff(what: &str, actual: &Artifacts, expected: &Artifacts) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match actual.get(name) {
            None => out.push(format!("{what}: artifact `{name}` missing")),
            Some(got) if got != want => {
                let at = got
                    .bytes()
                    .zip(want.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| got.len().min(want.len()));
                out.push(format!(
                    "{what}: artifact `{name}` differs at byte {at} ({} vs {} bytes)",
                    got.len(),
                    want.len()
                ));
            }
            Some(_) => {}
        }
    }
    for name in actual.keys().filter(|n| !expected.contains_key(*n)) {
        out.push(format!("{what}: unexpected artifact `{name}`"));
    }
    out
}

/// Counts operations and failures; a failure is an error return, a failed
/// verification, an artifact mismatch or a refused or unanswered request.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// Records one operation; `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Records an output check: a check that finds differences is one
    /// failed operation.
    pub fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.problems.push(e);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arts() -> Artifacts {
        let mut a = Artifacts::new();
        a.insert("lightweight".into(), "namespace k { class V; }\n".into());
        a.insert("wrappers".into(), "int w() { return 1; }\n".into());
        a.insert("source:main.cpp".into(), "int main() {}\n".into());
        a
    }

    #[test]
    fn identical_artifacts_pass() {
        assert!(diff("x", &arts(), &arts()).is_empty());
        assert_eq!(artifact_hash(&arts()), artifact_hash(&arts()));
    }

    #[test]
    fn one_altered_byte_is_reported_and_fails_the_run() {
        let mut bad = arts();
        let w = bad.get_mut("wrappers").unwrap();
        *w = w.replacen('1', "2", 1);
        let problems = diff("final", &bad, &arts());
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("`wrappers` differs at byte 17"),
            "{problems:?}"
        );
        assert_ne!(artifact_hash(&bad), artifact_hash(&arts()));

        let mut ledger = Ledger::default();
        ledger.check(diff("cold", &arts(), &arts()));
        ledger.check(problems);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(!ledger.correct());
        assert_eq!(ledger.fail_ratio(), 0.5);
    }

    #[test]
    fn missing_and_extra_artifacts_are_reported() {
        let mut a = arts();
        a.remove("source:main.cpp");
        a.insert("source:other.cpp".into(), String::new());
        assert_eq!(diff("x", &a, &arts()).len(), 2);
    }
}
