//! Exact work counters over fixed edit scripts.
//!
//! Wall time on a shared host drifts by tens of percent within minutes,
//! so it cannot catch a change that doubles the work an edit does. These
//! counters can: each step of a fixed edit script records how many lines
//! the preprocessor delivered, how many top-level declarations the parser
//! built, how many parses reused an include fragment, how many include
//! fragments were built and reused, how many symbol-table entries
//! analysis and verification inserted and how many TUs the session
//! re-parsed, and the whole table is compared exactly with
//! `tests/goldens/work_counters.txt`.
//!
//! The scripts replay, on the four editbench corpus subjects and the
//! Kokkos subject `02`: a cold run, a trailing comment on the main
//! source, a literal edit in a function body (for subjects that have one;
//! on `02` it sits in a lambda that becomes a functor in the wrappers
//! file, so verify's wrappers check parses the whole expensive header
//! again), a revert of the previous edit, a directive appended to the
//! main source's include block and, for team_policy, an edit to
//! `functor.hpp` (a source the main file includes). On mega-1k: a cold
//! run, a literal edit in `tu_1.cpp`, a literal edit in `tu1_p0.hpp` (a
//! header only `tu_1.cpp` includes), a directive appended to `tu_1.cpp`'s
//! include block and a literal edit in a shared header every TU includes.
//!
//! To accept an intentional change, regenerate the table:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test work_counters
//! ```

use std::path::PathBuf;
use std::sync::Mutex;

use yalla::corpus::{bump_body_literal, subject_by_name};
use yalla::exec::Executor;
use yalla::fuzz::mega::{MegaConfig, MegaProject};
use yalla::obs::metrics::names;
use yalla::Session;

/// The profiler's counters are process-wide; the test holds this lock so
/// that a test added to this binary later cannot bump them concurrently.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The recorded counters, in column order.
const COUNTERS: [(&str, &str); 7] = [
    ("pp_lines", names::LINES_PREPROCESSED),
    ("ast_decls", names::AST_DECLS),
    ("preamble_reused", names::PREAMBLE_REUSED),
    ("fragments_built", names::FRAGMENTS_BUILT),
    ("fragments_reused", names::FRAGMENTS_REUSED),
    ("symbols_resolved", names::SYMBOLS_RESOLVED),
    ("tus_reparsed", names::SESSION_TUS_REPARSED),
];

fn counter(name: &str) -> i64 {
    yalla::obs::global().metrics().counter(name).get()
}

/// Replays a script and renders one line per step.
struct Script {
    name: String,
    session: Session,
    exec: Executor,
    out: String,
}

impl Script {
    fn new(name: &str, session: Session) -> Script {
        Script {
            name: name.to_string(),
            session,
            exec: Executor::new(2),
            out: String::new(),
        }
    }

    fn text(&self, path: &str) -> String {
        let id = self.session.vfs().lookup(path).expect("file exists");
        self.session.vfs().text(id).to_string()
    }

    /// Applies `edit` (if any), reruns and records the counter deltas.
    fn step(&mut self, label: &str, edit: Option<(&str, String)>) {
        if let Some((path, text)) = edit {
            self.session.apply_edit(path, text).expect("edit applies");
        }
        let before = COUNTERS.map(|(_, name)| counter(name));
        let run = self
            .session
            .rerun_on(&self.exec)
            .unwrap_or_else(|e| panic!("{} {label}: {e}", self.name));
        assert!(
            run.result.report.verification.passed(),
            "{} {label}: verification failed",
            self.name
        );
        let mut line = format!("{} {label}", self.name);
        for ((column, name), before) in COUNTERS.iter().zip(before) {
            line.push_str(&format!(" {column}={}", counter(name) - before));
        }
        line.push('\n');
        self.out.push_str(&line);
    }
}

/// Inserts `directive` on the line after the last `#include` of the main
/// source's leading directive block.
fn append_to_include_block(text: &str, directive: &str) -> String {
    let (mut offset, mut at) = (0, None);
    for line in text.split_inclusive('\n') {
        let t = line.trim();
        if t.starts_with("#include") {
            at = Some(offset + line.len());
        } else if !(t.is_empty() || t.starts_with('#') || t.starts_with("//")) {
            break;
        }
        offset += line.len();
    }
    let at = at.expect("the main source starts with an include block");
    let mut out = text.to_string();
    out.insert_str(at, &format!("{directive}\n"));
    out
}

fn corpus_script(name: &str) -> String {
    let subject = subject_by_name(name).expect("subject exists");
    let options = yalla::Options {
        header: subject.header.clone(),
        sources: subject.sources.clone(),
        ..yalla::Options::default()
    };
    let main = subject.main_source.clone();
    let mut script = Script::new(
        name,
        Session::with_store(options, subject.vfs.clone(), None),
    );
    script.step("cold", None);

    let original = script.text(&main);
    script.step(
        "comment",
        Some((&main, format!("{original}// counter tweak\n"))),
    );
    let commented = script.text(&main);
    match bump_body_literal(&commented) {
        Some(bumped) => {
            script.step("body-literal", Some((&main, bumped)));
            script.step("revert", Some((&main, commented)));
        }
        None => script.step("revert", Some((&main, original.clone()))),
    }
    let current = script.text(&main);
    script.step(
        "directive",
        Some((
            &main,
            append_to_include_block(&current, "#define YALLA_COUNTER_PROBE 1"),
        )),
    );
    if name == "team_policy" {
        let functor = script.text("functor.hpp");
        script.step(
            "functor-edit",
            Some(("functor.hpp", format!("{functor}// counter tweak\n"))),
        );
    }
    script.out
}

fn mega_script() -> String {
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, options) = MegaProject::generate(&config).render();
    let mut script = Script::new("mega-1k", Session::with_store(options, vfs, None));
    script.step("cold", None);
    let literal = |script: &Script, path: &str| {
        let text = script.text(path);
        bump_body_literal(&text).unwrap_or_else(|| panic!("{path} has no body literal"))
    };
    for (label, path) in [
        ("tu_1-literal", "tu_1.cpp"),
        ("private-literal", "tu1_p0.hpp"),
    ] {
        let bumped = literal(&script, path);
        script.step(label, Some((path, bumped)));
    }
    let tu = script.text("tu_1.cpp");
    script.step(
        "define",
        Some((
            "tu_1.cpp",
            append_to_include_block(&tu, "#define YALLA_COUNTER_PROBE 1"),
        )),
    );
    let bumped = literal(&script, "mg_0_0.hpp");
    script.step("shared-literal", Some(("mg_0_0.hpp", bumped)));
    script.out
}

#[test]
fn work_counters_match_the_checked_in_baseline() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut actual = String::new();
    for name in ["team_policy", "archiver", "laplace", "chat_server", "02"] {
        actual.push_str(&corpus_script(name));
    }
    actual.push_str(&mega_script());

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/work_counters.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write baseline");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDENS=1 cargo test --test work_counters",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "work counters moved");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

#[test]
fn directives_land_after_the_include_block() {
    let text = "// head\n#include \"a.hpp\"\n\n#include \"b.hpp\"\nint main() {}\n";
    assert_eq!(
        append_to_include_block(text, "#define X 1"),
        "// head\n#include \"a.hpp\"\n\n#include \"b.hpp\"\n#define X 1\nint main() {}\n"
    );
}
