//! The engine: the paper's Figure 5 `SubstituteHeader(sources, header)`
//! driver, plus the workflow integration of Figure 6.
//!
//! [`Engine::run`] is the one-shot entry point; it is a thin wrapper over
//! a single cold [`crate::Session`] run, so the one-shot and incremental
//! paths can never drift apart.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::time::Duration;

use yalla_cpp::loc::FileId;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::CppError;

use crate::emit::{LIGHTWEIGHT_HEADER_NAME, WRAPPERS_FILE_NAME};
use crate::plan::Plan;
use crate::report::Report;
use crate::session::Session;

/// Errors the engine can return.
#[derive(Debug)]
pub enum YallaError {
    /// The frontend failed on the original sources.
    Cpp(CppError),
    /// The header to substitute was never included by the sources.
    HeaderNotIncluded(String),
    /// A source path was not found in the virtual file system.
    SourceNotFound(String),
    /// One or more source paths were not found in the virtual file system.
    /// Every missing path is reported at once, so a typo in source three
    /// does not hide a typo in source five.
    SourcesNotFound(Vec<String>),
    /// The run was cooperatively cancelled at a stage boundary (a newer
    /// edit superseded it). No partial artifact was published; the
    /// session's caches stay consistent and a retry picks up where the
    /// completed stages left off.
    Cancelled,
}

impl fmt::Display for YallaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YallaError::Cpp(e) => write!(f, "frontend error: {e}"),
            YallaError::HeaderNotIncluded(h) => {
                write!(f, "header `{h}` is not included by the sources")
            }
            YallaError::SourceNotFound(s) => write!(f, "source file not found: {s}"),
            YallaError::SourcesNotFound(paths) => {
                write!(f, "source files not found: {}", paths.join(", "))
            }
            YallaError::Cancelled => write!(f, "run cancelled (superseded by a newer edit)"),
        }
    }
}

impl std::error::Error for YallaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            YallaError::Cpp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CppError> for YallaError {
    fn from(e: CppError) -> Self {
        YallaError::Cpp(e)
    }
}

/// Engine configuration — mirrors the tool's CLI (`yalla <sources>
/// --header <hdr>`).
#[derive(Debug, Clone)]
pub struct Options {
    /// Header to substitute, as written in the `#include` (e.g.
    /// `Kokkos_Core.hpp`).
    pub header: String,
    /// User source files; the first is the translation-unit root and all
    /// of them are rewritten.
    pub sources: Vec<String>,
    /// File name of the generated lightweight header.
    pub lightweight_name: String,
    /// File name of the generated wrappers file.
    pub wrappers_name: String,
    /// Predefined macros for preprocessing (like `-D`).
    pub defines: Vec<(String, String)>,
    /// Extra header symbols (fully qualified class or function keys, e.g.
    /// `Kokkos::View`) to forward declare even when the sources do not use
    /// them *yet*. This implements the paper's §6 plan of letting
    /// developers pre-declare everything they expect to need, so the tool
    /// does not have to re-run when the used-symbol set grows.
    pub extra_symbols: Vec<String>,
    /// Run the verification pass (on by default).
    pub verify: bool,
    /// Translation-unit roots to preprocess + parse, each as its own DAG
    /// node fanning out across the executor. Empty (the default) keeps
    /// the classic single-TU shape: only `sources[0]` roots a parse and
    /// every other source is a support file of that TU. Usage analysis
    /// unions every root's usage of the target header (in root order, so
    /// artifacts stay byte-identical at any worker count); a source that
    /// names a root is rewritten against its own TU, any other source
    /// against the primary root's.
    pub tu_roots: Vec<String>,
}

impl Options {
    /// The effective parse roots: `tu_roots` when set, else the classic
    /// single root `sources[0]`. The first entry is the *primary* root —
    /// the TU that must include the target header and that anchors
    /// analysis, verification, and the `Report`'s before/after stats.
    pub fn parse_roots(&self) -> Vec<String> {
        if self.tu_roots.is_empty() {
            self.sources.first().cloned().into_iter().collect()
        } else {
            self.tu_roots.clone()
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            header: String::new(),
            sources: Vec::new(),
            lightweight_name: LIGHTWEIGHT_HEADER_NAME.into(),
            wrappers_name: WRAPPERS_FILE_NAME.into(),
            defines: Vec::new(),
            extra_symbols: Vec::new(),
            verify: true,
            tu_roots: Vec::new(),
        }
    }
}

/// Wall-clock timings of the engine phases (the paper's Figure 10 "tool
/// time" breakdown). Each field is the measured duration of the matching
/// `engine/*` span — the pipeline closes a [`yalla_obs::Span`] per phase
/// and stores what it returns, so the Report and the Chrome trace can never
/// disagree. A phase served from a session's artifact cache reports
/// [`Duration::ZERO`] (never a stale measurement from an earlier run);
/// the record of the hit is its per-stage event-log line.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Preprocess + parse of the original TU.
    pub parse: Duration,
    /// Symbol table + usage analysis.
    pub analyze: Duration,
    /// Plan building (wrapper synthesis, functors).
    pub plan: Duration,
    /// Emission + source rewriting.
    pub generate: Duration,
    /// Verification pass.
    pub verify: Duration,
}

impl Timings {
    /// Total engine time.
    pub fn total(&self) -> Duration {
        self.parse + self.analyze + self.plan + self.generate + self.verify
    }
}

/// Everything a substitution run produces.
#[derive(Debug)]
pub struct SubstitutionResult {
    /// The generated lightweight header text.
    pub lightweight_header: String,
    /// The generated wrappers file text.
    pub wrappers_file: String,
    /// Rewritten source texts by original path.
    pub rewritten_sources: BTreeMap<String, String>,
    /// The plan that produced the artifacts.
    pub plan: Plan,
    /// Summary report (Table 3 stats, verification outcome).
    pub report: Report,
    /// Phase timings.
    pub timings: Timings,
}

impl SubstitutionResult {
    /// Installs the generated artifacts into a file system (Figure 6 step
    /// ②): rewritten sources replace the originals, and the lightweight
    /// header + wrappers file are added. Returns the wrappers file path.
    pub fn install_into(&self, vfs: &mut Vfs, options: &Options) -> String {
        for (path, text) in &self.rewritten_sources {
            vfs.add_file(path, text.clone());
        }
        vfs.add_file(&options.lightweight_name, self.lightweight_header.clone());
        vfs.add_file(&options.wrappers_name, self.wrappers_file.clone());
        options.wrappers_name.clone()
    }
}

/// The Header Substitution engine.
#[derive(Debug, Clone)]
pub struct Engine {
    options: Options,
}

impl Engine {
    /// Creates an engine with the given options.
    pub fn new(options: Options) -> Self {
        Engine { options }
    }

    /// The engine's options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Runs Header Substitution (Figure 5) against `vfs`.
    ///
    /// This is a single cold run of the staged pipeline — equivalent to
    /// `Session::new(options, vfs.clone()).rerun()` with the caches thrown
    /// away afterwards. Callers that re-run after edits should hold a
    /// [`Session`] instead.
    ///
    /// # Errors
    ///
    /// Fails when the sources do not parse, a source path is missing, or
    /// the header is never included. Unsupported constructs (nested
    /// classes, failed deductions) do *not* fail the run; they surface as
    /// [`crate::plan::Diagnostic`]s in the report and the affected symbol
    /// keeps its original form.
    pub fn run(&self, vfs: &Vfs) -> Result<SubstitutionResult, YallaError> {
        Session::new(self.options.clone(), vfs.clone())
            .rerun()
            .map(|run| run.result)
    }
}

/// Files reachable from `root` in the include graph (including `root`),
/// in time linear in the edge count: the adjacency is built once, then
/// walked depth-first.
pub(crate) fn reachable_from(root: FileId, edges: &[(FileId, FileId)]) -> HashSet<FileId> {
    let mut includes: HashMap<FileId, Vec<FileId>> = HashMap::new();
    for &(from, to) in edges {
        includes.entry(from).or_default().push(to);
    }
    let mut reach: HashSet<FileId> = HashSet::new();
    let mut stack = vec![root];
    while let Some(f) = stack.pop() {
        if reach.insert(f) {
            stack.extend(includes.get(&f).into_iter().flatten());
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kokkos_vfs() -> Vfs {
        let mut vfs = Vfs::new();
        // Filler internals standing in for the real header's bulk (the
        // actual Kokkos_Core.hpp expands to ~111k lines; see Table 3).
        let mut bulk = String::from("#pragma once\nnamespace Kokkos { namespace Impl {\n");
        for i in 0..200 {
            bulk.push_str(&format!(
                "inline int detail_fn_{i}(int x) {{ return x + {i}; }}\n"
            ));
        }
        bulk.push_str("} }\n");
        vfs.add_file("Kokkos_Bulk.hpp", bulk);
        vfs.add_file(
            "Kokkos_Core.hpp",
            r#"
#pragma once
#include <Kokkos_Impl.hpp>
#include <Kokkos_Bulk.hpp>
namespace Kokkos {
  class OpenMP;
  class LayoutRight {};
  template<class D, class L> class View {
  public:
    View();
    int& operator()(int i, int j);
    int extent(int d) const;
  };
  template<class S> class TeamPolicy {
  public:
    using member_type = Impl::HostThreadTeamMember<S>;
  };
  template<class M> Impl::TeamThreadRangeBoundariesStruct TeamThreadRange(M& m, int n);
  template<class R, class F> void parallel_for(R range, F functor);
}
"#,
        );
        vfs.add_file(
            "Kokkos_Impl.hpp",
            r#"
#pragma once
namespace Kokkos { namespace Impl {
  struct TeamThreadRangeBoundariesStruct { int lo; int hi; };
  template<class P> class HostThreadTeamMember {
  public:
    int league_rank() const;
  };
} }
"#,
        );
        vfs.add_file(
            "functor.hpp",
            r#"#pragma once
#include <Kokkos_Core.hpp>
using sp_t = Kokkos::OpenMP;
using member_t = Kokkos::TeamPolicy<sp_t>::member_type;
struct add_y {
  int y;
  Kokkos::View<int**, Kokkos::LayoutRight> x;
  void operator()(member_t &m);
};
"#,
        );
        vfs.add_file(
            "kernel.cpp",
            r#"#include "functor.hpp"
void add_y::operator()(member_t &m) {
  int j = m.league_rank();
  Kokkos::parallel_for(
    Kokkos::TeamThreadRange(m, 5),
    [&](int i) { x(j, i) += y; });
}
"#,
        );
        vfs
    }

    fn run_kokkos() -> SubstitutionResult {
        Engine::new(Options {
            header: "Kokkos_Core.hpp".into(),
            sources: vec!["kernel.cpp".into(), "functor.hpp".into()],
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap()
    }

    #[test]
    fn figure_4a_lightweight_header_contents() {
        let r = run_kokkos();
        let lw = &r.lightweight_header;
        // Forward declared classes (paper Fig. 4a lines 2–7).
        assert!(lw.contains("class OpenMP;"), "{lw}");
        assert!(lw.contains("class LayoutRight;"), "{lw}");
        assert!(lw.contains("class View;"), "{lw}");
        assert!(lw.contains("class HostThreadTeamMember;"), "{lw}");
        assert!(
            lw.contains("struct TeamThreadRangeBoundariesStruct;"),
            "{lw}"
        );
        // Function wrappers (lines 10–16).
        assert!(lw.contains("TeamThreadRange_w"), "{lw}");
        assert!(lw.contains("parallel_for_w"), "{lw}");
        // Method wrappers (lines 18–21).
        assert!(
            lw.contains("league_rank(ObjectT& obj)") || lw.contains("league_rank(ObjectT&"),
            "{lw}"
        );
        assert!(lw.contains("paren_operator"), "{lw}");
        // Functor replacing the lambda (lines 23–28).
        assert!(lw.contains("struct yalla_functor_0"), "{lw}");
        assert!(lw.contains("void operator()(int i) const"), "{lw}");
    }

    #[test]
    fn figure_4b_source_rewrites() {
        let r = run_kokkos();
        let functor_hpp = &r.rewritten_sources["functor.hpp"];
        // Include swapped (Fig. 4b line 3).
        assert!(
            functor_hpp.contains("#include \"yalla_lightweight.hpp\""),
            "{functor_hpp}"
        );
        assert!(!functor_hpp.contains("Kokkos_Core.hpp"), "{functor_hpp}");
        // member_t re-aliased to the non-nested class (line 8).
        assert!(
            functor_hpp.contains("HostThreadTeamMember"),
            "{functor_hpp}"
        );
        // Field pointerized (line 12).
        assert!(
            functor_hpp.contains("Kokkos::View<int**, Kokkos::LayoutRight>* x;"),
            "{functor_hpp}"
        );
        let kernel = &r.rewritten_sources["kernel.cpp"];
        // Method call through wrapper (line 18).
        assert!(kernel.contains("league_rank(m)"), "{kernel}");
        // Wrapped function calls (lines 19–21).
        assert!(kernel.contains("parallel_for_w("), "{kernel}");
        assert!(kernel.contains("TeamThreadRange_w(m, 5)"), "{kernel}");
        // Lambda replaced by functor construction (line 21).
        assert!(kernel.contains("yalla_functor_0{x, j, y}"), "{kernel}");
    }

    #[test]
    fn wrappers_file_structure() {
        let r = run_kokkos();
        let wf = &r.wrappers_file;
        assert!(wf.contains("#include <Kokkos_Core.hpp>"), "{wf}");
        assert!(wf.contains("#include \"yalla_lightweight.hpp\""), "{wf}");
        // Heap allocation for incomplete return (paper §3.2.2).
        assert!(
            wf.contains("return new Kokkos::Impl::TeamThreadRangeBoundariesStruct"),
            "{wf}"
        );
        // Explicit instantiations (paper §3.4).
        assert!(wf.contains("template "), "{wf}");
        assert!(
            wf.contains("yalla_functor_0"),
            "lambda functor must appear in an explicit instantiation: {wf}"
        );
    }

    #[test]
    fn verification_passes_on_figure_3() {
        let r = run_kokkos();
        assert!(
            r.report.verification.passed(),
            "verification failed: parse={} wrappers={} violations={:?}\n--- lightweight:\n{}\n--- kernel:\n{}\n--- functor:\n{}",
            r.report.verification.sources_parse,
            r.report.verification.wrappers_parse,
            r.report.verification.violations,
            r.lightweight_header,
            r.rewritten_sources["kernel.cpp"],
            r.rewritten_sources["functor.hpp"],
        );
    }

    #[test]
    fn table_3_stats_shrink() {
        let r = run_kokkos();
        assert!(r.report.before.loc > r.report.after.loc, "{:?}", r.report);
        assert!(r.report.before.headers > r.report.after.headers);
        assert!(r.report.loc_reduction() > 2.0);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = Engine::new(Options {
            header: "NotThere.hpp".into(),
            sources: vec!["kernel.cpp".into()],
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap_err();
        assert!(matches!(err, YallaError::HeaderNotIncluded(_)));
    }

    #[test]
    fn missing_source_is_an_error() {
        let err = Engine::new(Options {
            header: "Kokkos_Core.hpp".into(),
            sources: vec!["nope.cpp".into()],
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap_err();
        assert!(matches!(err, YallaError::SourcesNotFound(ref p) if p == &["nope.cpp"]));
    }

    #[test]
    fn all_missing_sources_reported_together() {
        let err = Engine::new(Options {
            header: "Kokkos_Core.hpp".into(),
            sources: vec![
                "kernel.cpp".into(),
                "nope.cpp".into(),
                "functor.hpp".into(),
                "also_nope.cpp".into(),
            ],
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap_err();
        match err {
            YallaError::SourcesNotFound(paths) => {
                assert_eq!(paths, vec!["nope.cpp", "also_nope.cpp"]);
            }
            other => panic!("expected SourcesNotFound, got {other}"),
        }
        // The Display form names every missing path.
        let err = Engine::new(Options {
            header: "Kokkos_Core.hpp".into(),
            sources: vec!["nope.cpp".into(), "also_nope.cpp".into()],
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("nope.cpp") && msg.contains("also_nope.cpp"),
            "{msg}"
        );
    }

    #[test]
    fn empty_sources_is_an_error() {
        let err = Engine::new(Options {
            header: "Kokkos_Core.hpp".into(),
            ..Options::default()
        })
        .run(&kokkos_vfs())
        .unwrap_err();
        assert!(matches!(err, YallaError::SourceNotFound(_)));
    }

    #[test]
    fn reachability_includes_transitive() {
        let edges = vec![
            (FileId(0), FileId(1)),
            (FileId(1), FileId(2)),
            (FileId(3), FileId(4)),
        ];
        let reach = reachable_from(FileId(0), &edges);
        assert!(reach.contains(&FileId(0)));
        assert!(reach.contains(&FileId(1)));
        assert!(reach.contains(&FileId(2)));
        assert!(!reach.contains(&FileId(4)));
    }

    /// The edge-rescanning walk `reachable_from` replaced, kept as the
    /// reference its result must equal.
    fn reachable_by_rescan(root: FileId, edges: &[(FileId, FileId)]) -> HashSet<FileId> {
        let mut reach = HashSet::new();
        let mut stack = vec![root];
        while let Some(f) = stack.pop() {
            if reach.insert(f) {
                stack.extend(
                    edges
                        .iter()
                        .filter(|(from, _)| *from == f)
                        .map(|(_, to)| *to),
                );
            }
        }
        reach
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// Random graphs over a dozen files: self-loops, cycles, diamonds
        /// and repeated edges all occur.
        #[test]
        fn reachability_matches_the_edge_rescan(
            raw in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
            root in 0u32..12,
        ) {
            let edges: Vec<(FileId, FileId)> =
                raw.iter().map(|&(a, b)| (FileId(a), FileId(b))).collect();
            let root = FileId(root);
            proptest::prop_assert_eq!(
                reachable_from(root, &edges),
                reachable_by_rescan(root, &edges)
            );
        }
    }

    #[test]
    fn timings_are_recorded() {
        let r = run_kokkos();
        assert!(r.timings.total() > Duration::ZERO);
    }

    #[test]
    fn install_into_swaps_files() {
        let r = run_kokkos();
        let opts = Options {
            header: "Kokkos_Core.hpp".into(),
            sources: vec!["kernel.cpp".into(), "functor.hpp".into()],
            ..Options::default()
        };
        let mut vfs = kokkos_vfs();
        let wrappers = r.install_into(&mut vfs, &opts);
        assert_eq!(wrappers, "yalla_wrappers.cpp");
        assert!(vfs.lookup("yalla_lightweight.hpp").is_some());
        assert!(vfs
            .text(vfs.lookup("kernel.cpp").unwrap())
            .contains("parallel_for_w"));
    }
}

#[cfg(test)]
mod extra_symbol_tests {
    use super::*;

    #[test]
    fn pre_declared_symbols_enter_the_lightweight_header() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "namespace L { class Used { public: int id() const; }; class Unused; template<class T> T helper(T v); }",
        );
        vfs.add_file(
            "main.cpp",
            "#include \"lib.hpp\"\nint f(L::Used& u) { return u.id(); }\n",
        );
        let result = Engine::new(Options {
            header: "lib.hpp".into(),
            sources: vec!["main.cpp".into()],
            extra_symbols: vec!["L::Unused".into(), "L::helper".into()],
            ..Options::default()
        })
        .run(&vfs)
        .unwrap();
        let lw = &result.lightweight_header;
        assert!(lw.contains("class Unused;"), "{lw}");
        assert!(lw.contains("helper"), "{lw}");
        assert!(result.report.verification.passed());
    }

    #[test]
    fn unknown_pre_declared_symbol_is_a_diagnostic_not_an_error() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "namespace L { class C { public: int id() const; }; }",
        );
        vfs.add_file(
            "main.cpp",
            "#include \"lib.hpp\"\nint f(L::C& c) { return c.id(); }\n",
        );
        let result = Engine::new(Options {
            header: "lib.hpp".into(),
            sources: vec!["main.cpp".into()],
            extra_symbols: vec!["L::Nope".into()],
            ..Options::default()
        })
        .run(&vfs)
        .unwrap();
        assert!(result
            .plan
            .diagnostics
            .iter()
            .any(|d| d.message.contains("L::Nope")));
    }
}

/// The result of substituting several headers in sequence (the paper's §6
/// plan to "apply Header Substitution to entire projects").
#[derive(Debug)]
pub struct MultiSubstitutionResult {
    /// Per-header substitution results, in application order. Each step's
    /// rewritten sources are the input of the next.
    pub steps: Vec<(String, SubstitutionResult)>,
    /// Final rewritten source texts (after the last step).
    pub rewritten_sources: BTreeMap<String, String>,
    /// Names of every generated artifact (lightweight headers + wrapper
    /// files), in creation order.
    pub artifacts: Vec<String>,
}

impl MultiSubstitutionResult {
    /// Installs all artifacts and the final sources into `vfs`. Returns the
    /// wrapper-file names (each must be compiled once, Figure 6 step ③).
    pub fn install_into(&self, vfs: &mut Vfs) -> Vec<String> {
        let mut wrappers = Vec::new();
        // `artifacts` alternates lightweight header / wrappers file, one
        // pair per step.
        for (i, (_, step)) in self.steps.iter().enumerate() {
            let lw_name = &self.artifacts[i * 2];
            let wr_name = &self.artifacts[i * 2 + 1];
            vfs.add_file(lw_name, step.lightweight_header.clone());
            vfs.add_file(wr_name, step.wrappers_file.clone());
            wrappers.push(wr_name.clone());
        }
        for (path, text) in &self.rewritten_sources {
            vfs.add_file(path, text.clone());
        }
        wrappers
    }
}

/// Substitutes each of `headers` in `sources`, sequentially: the rewritten
/// output of one substitution is the input of the next, and each header
/// gets its own lightweight header + wrappers file
/// (`yalla_lightweight_<i>.hpp` / `yalla_wrappers_<i>.cpp`).
///
/// # Errors
///
/// Fails if any step fails. A header that is no longer included by the
/// (already rewritten) sources is skipped with a diagnostic in that step's
/// predecessor — callers see it simply missing from `steps`.
pub fn substitute_headers(
    vfs: &Vfs,
    headers: &[String],
    sources: &[String],
) -> Result<MultiSubstitutionResult, YallaError> {
    let mut working = vfs.clone();
    let mut steps = Vec::new();
    let mut artifacts = Vec::new();
    let mut rewritten: BTreeMap<String, String> = BTreeMap::new();
    for (i, header) in headers.iter().enumerate() {
        let options = Options {
            header: header.clone(),
            sources: sources.to_vec(),
            lightweight_name: format!("yalla_lightweight_{i}.hpp"),
            wrappers_name: format!("yalla_wrappers_{i}.cpp"),
            ..Options::default()
        };
        let result = match Engine::new(options.clone()).run(&working) {
            Ok(r) => r,
            Err(YallaError::HeaderNotIncluded(_)) => continue,
            Err(e) => return Err(e),
        };
        result.install_into(&mut working, &options);
        for (path, text) in &result.rewritten_sources {
            rewritten.insert(path.clone(), text.clone());
        }
        artifacts.push(options.lightweight_name.clone());
        artifacts.push(options.wrappers_name.clone());
        steps.push((header.clone(), result));
    }
    Ok(MultiSubstitutionResult {
        steps,
        rewritten_sources: rewritten,
        artifacts,
    })
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use yalla_cpp::frontend::Frontend;

    fn two_lib_vfs() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "liba.hpp",
            "#pragma once\nnamespace a { class Alpha { public: int get() const; }; }\n",
        );
        vfs.add_file(
            "libb.hpp",
            "#pragma once\nnamespace b { class Beta { public: int put(int v); }; }\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include <liba.hpp>\n#include <libb.hpp>\nint go(a::Alpha& x, b::Beta& y) { return y.put(x.get()); }\n",
        );
        vfs
    }

    #[test]
    fn two_headers_substituted_in_sequence() {
        let vfs = two_lib_vfs();
        let multi = substitute_headers(
            &vfs,
            &["liba.hpp".into(), "libb.hpp".into()],
            &["main.cpp".into()],
        )
        .unwrap();
        assert_eq!(multi.steps.len(), 2);
        let final_main = &multi.rewritten_sources["main.cpp"];
        assert!(
            final_main.contains("yalla_lightweight_0.hpp"),
            "{final_main}"
        );
        assert!(
            final_main.contains("yalla_lightweight_1.hpp"),
            "{final_main}"
        );
        assert!(!final_main.contains("liba.hpp"));
        assert!(!final_main.contains("libb.hpp"));
        // Both method calls rewritten through wrappers.
        assert!(final_main.contains("get(x)"), "{final_main}");
        assert!(final_main.contains("put(y"), "{final_main}");
        // Each step verified.
        for (h, step) in &multi.steps {
            assert!(step.report.verification.passed(), "{h}");
        }
    }

    #[test]
    fn missing_header_is_skipped() {
        let vfs = two_lib_vfs();
        let multi = substitute_headers(
            &vfs,
            &[
                "liba.hpp".into(),
                "not_included.hpp".into(),
                "libb.hpp".into(),
            ],
            &["main.cpp".into()],
        );
        // not_included.hpp is not in the VFS at all → engine reports
        // HeaderNotIncluded → skipped.
        let multi = multi.unwrap();
        assert_eq!(multi.steps.len(), 2);
    }

    #[test]
    fn install_into_provides_all_artifacts() {
        let vfs = two_lib_vfs();
        let multi = substitute_headers(
            &vfs,
            &["liba.hpp".into(), "libb.hpp".into()],
            &["main.cpp".into()],
        )
        .unwrap();
        let mut out = vfs.clone();
        let wrappers = multi.install_into(&mut out);
        assert_eq!(
            wrappers,
            vec!["yalla_wrappers_0.cpp", "yalla_wrappers_1.cpp"]
        );
        // Substituted TU parses.
        let fe = Frontend::new(out);
        fe.parse_translation_unit("main.cpp").unwrap();
    }
}
