//! A parse through a pool of include fragments equals a parse from
//! scratch.
//!
//! For every corpus subject, every mega-1k TU root and a set of
//! grammar-fuzz projects, the unedited main source is parsed through a
//! fragment pool, then each edit below is applied and the parse through
//! the same pool is compared with a parse from scratch of the edited
//! tree: the same AST, the same `PpStats`, or the same error (kind,
//! message and span).
//!
//! * edits below the include block reuse every fragment and build none
//!   (`cpp.fragments_built` does not move): a trailing comment, a body
//!   literal, a directive appended after the include block, a syntax
//!   error and a missing include in the body;
//! * edits that must not reuse a fragment: a changed define (every
//!   fragment's incoming state changes) and an edit to the first file the
//!   block entered (the first fragment's depfile changes).
//!
//! Beside them: the mega-1k roots and the corpus subjects parsed through
//! one shared pool in a seeded order, and table-driven cases in which a
//! fragment must miss or no fragment boundary exists.
//!
//! The counters are process-wide, so every test here parses behind
//! [`COUNTER_LOCK`].

use std::sync::{Arc, Mutex, MutexGuard};

use yalla_corpus::gen::DetRng;
use yalla_corpus::{all_subjects, bump_body_literal};
use yalla_cpp::frontend::{check_with, parse_with};
use yalla_cpp::vfs::Vfs;
use yalla_cpp::{Chain, Fragment, FragmentPool, Frontend, ParsedTu, Result};
use yalla_fuzz::grammar::ProjectModel;
use yalla_fuzz::mega::{MegaConfig, MegaProject};
use yalla_obs::metrics::names;

type Defines = Vec<(String, String)>;

/// Serializes every test of this binary, so that no other test builds a
/// fragment while one reads `cpp.fragments_built`.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fragments_built() -> i64 {
    yalla_obs::global()
        .metrics()
        .counter(names::FRAGMENTS_BUILT)
        .get()
}

/// Asserts that two parses agree: equal declarations (their derived
/// `PartialEq` holds exactly when their derived `Debug` texts are equal,
/// and is far cheaper on a 100k-line TU), equal `PpStats` `Debug` text,
/// or equal errors (kind, message and span).
fn assert_same(warm: &Result<ParsedTu>, cold: &Result<ParsedTu>, what: &str) {
    match (warm, cold) {
        (Ok(w), Ok(c)) => {
            assert!(w.ast.decls == c.ast.decls, "{what}: ASTs differ");
            assert_eq!(
                format!("{:?}", w.stats),
                format!("{:?}", c.stats),
                "{what}: stats differ"
            );
        }
        (Err(w), Err(c)) => assert_eq!(w, c, "{what}: errors differ"),
        _ => panic!("{what}: one parse failed, the other did not"),
    }
}

/// Parses `main` over `vfs` through `pool`.
fn pooled(
    vfs: &Vfs,
    defines: &Defines,
    main: &str,
    pool: &FragmentPool,
) -> (Result<ParsedTu>, Option<Chain>) {
    match parse_with(vfs, defines, main, pool) {
        Ok(parsed) => (Ok(parsed.tu), parsed.chain),
        Err(e) => (Err(e), None),
    }
}

/// Parses `main` over `vfs` from scratch.
fn scratch(vfs: &Vfs, defines: &Defines, main: &str) -> Result<ParsedTu> {
    Frontend::with_defines(vfs.clone(), defines).parse_translation_unit(main)
}

/// Checks `main` through `pool` (`check_with`) and asserts that the
/// check built no fragment and has `cold`'s verdict and statistics.
fn assert_check_same(
    vfs: &Vfs,
    defines: &Defines,
    main: &str,
    pool: &FragmentPool,
    cold: &Result<ParsedTu>,
    what: &str,
) {
    let built = fragments_built();
    let checked = check_with(vfs, defines, main, pool);
    assert_eq!(
        fragments_built(),
        built,
        "{what}: the check built a fragment"
    );
    match (&checked, cold) {
        (Ok(stats), Ok(c)) => assert_eq!(
            format!("{stats:?}"),
            format!("{:?}", c.stats),
            "{what}: check stats differ"
        ),
        (Err(w), Err(c)) => assert_eq!(w, c, "{what}: check errors differ"),
        _ => panic!("{what}: the check and the parse disagree"),
    }
}

/// Parses through `pool` and from scratch, and asserts they agree, and
/// that a check through `pool` agrees with both.
fn check_one(
    vfs: &Vfs,
    defines: &Defines,
    main: &str,
    pool: &FragmentPool,
    what: &str,
) -> Option<Chain> {
    let (warm, chain) = pooled(vfs, defines, main, pool);
    let cold = scratch(vfs, defines, main);
    assert_same(&warm, &cold, what);
    assert_check_same(vfs, defines, main, pool, &cold, what);
    chain
}

/// True when `chain` holds `fragment` itself.
fn holds(chain: &Chain, fragment: &Arc<Fragment>) -> bool {
    chain.fragments().iter().any(|f| Arc::ptr_eq(f, fragment))
}

fn with_text(vfs: &Vfs, path: &str, text: String) -> Vfs {
    let mut vfs = vfs.clone();
    vfs.add_file(path, text);
    vfs
}

fn text_of(vfs: &Vfs, path: &str) -> String {
    vfs.text(vfs.lookup(path).expect("file exists")).to_string()
}

/// Inserts `line` after the last `#include` of the leading directive
/// block (at the top when there is none).
fn after_include_block(text: &str, line: &str) -> String {
    let (mut offset, mut at) = (0, 0);
    for l in text.split_inclusive('\n') {
        let t = l.trim();
        if t.starts_with("#include") {
            at = offset + l.len();
        } else if !(t.is_empty() || t.starts_with('#') || t.starts_with("//")) {
            break;
        }
        offset += l.len();
    }
    let mut out = text.to_string();
    out.insert_str(at, &format!("{line}\n"));
    out
}

/// Runs every edit on one input; returns how many parses reused the
/// whole chain (an erroneous parse counts when it built no fragment).
fn check(name: &str, vfs: &Vfs, defines: &Defines, main: &str) -> usize {
    let pool = FragmentPool::new();
    // A check through an empty pool parses every include on its own.
    let cold = scratch(vfs, defines, main);
    assert_check_same(vfs, defines, main, &pool, &cold, &format!("{name}: check"));
    drop(cold);
    let (base, chain) = pooled(vfs, defines, main, &pool);
    let base = base.unwrap_or_else(|e| panic!("{name}: {e}"));
    let Some(chain) = chain else {
        return 0;
    };
    let original = text_of(vfs, main);
    let mut resumed = 0;

    // Edits below the block: reuse every fragment, build none, and equal
    // a parse from scratch (which builds no fragment either).
    let mut below = vec![
        ("comment", format!("{original}// tail\n")),
        (
            "directive",
            after_include_block(&original, "#define YALLA_PREAMBLE_PROBE 1"),
        ),
        ("syntax-error", format!("{original}int broken(;\n")),
        (
            "missing-include",
            format!("{original}#include \"yalla_missing.hpp\"\n"),
        ),
    ];
    if let Some(bumped) = bump_body_literal(&original) {
        below.push(("body-literal", bumped));
    }
    for (edit, text) in below {
        let edited = with_text(vfs, main, text);
        let built = fragments_built();
        let warm = check_one(&edited, defines, main, &pool, &format!("{name}: {edit}"));
        assert_eq!(fragments_built(), built, "{name}: {edit} built a fragment");
        if let Some(warm) = warm {
            assert!(
                chain.fragments().iter().all(|f| holds(&warm, f)),
                "{name}: {edit} replaced a fragment"
            );
        }
        resumed += 1;
    }

    // Edits that must miss.
    let mut changed_define = defines.clone();
    changed_define.push(("YALLA_PREAMBLE_D".into(), "1".into()));
    let warm = check_one(
        vfs,
        &changed_define,
        main,
        &pool,
        &format!("{name}: define"),
    );
    assert!(
        warm.is_some_and(|w| chain.fragments().iter().all(|f| !holds(&w, f))),
        "{name}: a fragment ignored the changed define"
    );
    if let Some(&header) = base.stats.files_entered.get(1) {
        let header = vfs.path(header);
        let text = format!("{}\n// edited\n", text_of(vfs, header));
        let edited = with_text(vfs, header, text);
        let warm = check_one(&edited, defines, main, &pool, &format!("{name}: {header}"));
        assert!(
            warm.is_some_and(|w| !holds(&w, &chain.fragments()[0])),
            "{name}: the fragment that entered {header} survived its edit"
        );
    }
    resumed
}

#[test]
fn corpus_subjects_reuse_their_fragments_to_the_same_parse() {
    let _guard = counter_lock();
    for subject in all_subjects() {
        let resumed = check(
            subject.name,
            &subject.vfs,
            &Vec::new(),
            &subject.main_source,
        );
        assert!(
            resumed >= 4,
            "{}: only {resumed} edits resumed",
            subject.name
        );
    }
}

#[test]
fn mega_roots_reuse_their_fragments_to_the_same_parse() {
    let _guard = counter_lock();
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, options) = MegaProject::generate(&config).render();
    for root in &options.tu_roots {
        let resumed = check(root, &vfs, &options.defines, root);
        assert!(resumed >= 4, "{root}: only {resumed} edits resumed");
    }
}

#[test]
fn grammar_fuzz_projects_reuse_their_fragments_to_the_same_parse() {
    let _guard = counter_lock();
    for seed in 0..24 {
        let (vfs, options) = ProjectModel::generate(seed).render();
        let main = &options.sources[0];
        let resumed = check(
            &format!("grammar seed {seed}"),
            &vfs,
            &options.defines,
            main,
        );
        assert!(resumed >= 4, "seed {seed}: only {resumed} edits resumed");
    }
}

#[test]
fn mega_roots_and_subjects_share_one_pool_in_a_seeded_order() {
    let _guard = counter_lock();
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (mega, options) = MegaProject::generate(&config).render();
    let subjects = all_subjects();
    let mut tus: Vec<(&Vfs, &str)> = options
        .tu_roots
        .iter()
        .map(|root| (&mega, root.as_str()))
        .collect();
    tus.extend(subjects.iter().map(|s| (&s.vfs, s.main_source.as_str())));
    let mut rng = DetRng::new(0x5eed);
    for i in (1..tus.len()).rev() {
        tus.swap(i, rng.next(i + 1));
    }
    let pool = FragmentPool::new();
    // Chains are kept alive so that later parses can reuse them; a second
    // pass reuses every fragment.
    let mut chains = Vec::new();
    for pass in 0..2 {
        for &(vfs, main) in &tus {
            let what = format!("pass {pass}: {main}");
            chains.push(check_one(vfs, &Vec::new(), main, &pool, &what));
        }
    }
    let shared = chains[..tus.len()]
        .iter()
        .flatten()
        .filter(|c| {
            chains[..tus.len()]
                .iter()
                .flatten()
                .any(|o| !std::ptr::eq(*c, o) && holds(o, &c.fragments()[0]))
        })
        .count();
    assert!(
        shared >= 24,
        "only {shared} chains share their first fragment"
    );
    for (first, second) in chains[..tus.len()].iter().zip(&chains[tus.len()..]) {
        if let (Some(first), Some(second)) = (first, second) {
            assert!(first.fragments().iter().all(|f| holds(second, f)));
        }
    }
}

/// One table-driven case: the trees are parsed in order through one
/// pool, each compared with a parse from scratch.
struct Case {
    name: &'static str,
    files: &'static [(&'static str, &'static str)],
    /// `(main, defines)` per parse, in order.
    parses: &'static [(&'static str, &'static [(&'static str, &'static str)])],
}

const LIB: &str = "#ifdef WIDE\nint wide;\n#else\nint narrow;\n#endif\n";

#[test]
fn fragments_miss_when_their_incoming_state_changes() {
    let _guard = counter_lock();
    let cases = [
        Case {
            name: "a define before the shared include",
            files: &[
                ("lib.hpp", LIB),
                ("a.cpp", "#include \"lib.hpp\"\nint a;\n"),
                ("b.cpp", "#define WIDE 1\n#include \"lib.hpp\"\nint b;\n"),
            ],
            parses: &[("a.cpp", &[]), ("b.cpp", &[])],
        },
        Case {
            name: "the same header under other predefined defines",
            files: &[
                ("lib.hpp", LIB),
                ("a.cpp", "#include \"lib.hpp\"\nint a;\n"),
            ],
            parses: &[("a.cpp", &[]), ("a.cpp", &[("WIDE", "1")])],
        },
        Case {
            name: "a once header first reached through another directive",
            files: &[
                ("once.hpp", "#pragma once\nint once;\n"),
                ("wrap.hpp", "#include \"once.hpp\"\nint wrap;\n"),
                (
                    "c.cpp",
                    "#include \"wrap.hpp\"\n#include \"once.hpp\"\nint c;\n",
                ),
                ("d.cpp", "#include \"once.hpp\"\nint d;\n"),
            ],
            parses: &[("d.cpp", &[]), ("c.cpp", &[])],
        },
        Case {
            name: "a guarded header first reached through another directive",
            files: &[
                ("g.hpp", "#ifndef G\n#define G\nint g;\n#endif\n"),
                ("wrap.hpp", "#include \"g.hpp\"\nint wrap;\n"),
                (
                    "c.cpp",
                    "#include \"wrap.hpp\"\n#include \"g.hpp\"\nint c;\n",
                ),
                ("d.cpp", "#include \"g.hpp\"\nint d;\n"),
            ],
            parses: &[("d.cpp", &[]), ("c.cpp", &[])],
        },
    ];
    for case in &cases {
        let mut vfs = Vfs::new();
        for (path, text) in case.files {
            vfs.add_file(path, *text);
        }
        let pool = FragmentPool::new();
        let mut chains: Vec<Chain> = Vec::new();
        for (i, (main, defines)) in case.parses.iter().enumerate() {
            let defines: Defines = defines
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let what = format!("{}: parse {i}", case.name);
            let chain = check_one(&vfs, &defines, main, &pool, &what).expect("a chain");
            // The state the shared header is reached in differs from every
            // earlier parse's, so none of their fragments is reused.
            for earlier in &chains {
                assert!(
                    earlier.fragments().iter().all(|f| !holds(&chain, f)),
                    "{what}: reused a fragment"
                );
            }
            chains.push(chain);
        }
    }
}

#[test]
fn a_header_that_leaves_a_namespace_open_falls_back_to_a_full_parse() {
    let _guard = counter_lock();
    let mut vfs = Vfs::new();
    vfs.add_file("open.hpp", "namespace n {\nint a;\n");
    vfs.add_file("main.cpp", "#include \"open.hpp\"\nint b;\n}\nint c;\n");
    let pool = FragmentPool::new();
    let chain = check_one(&vfs, &Vec::new(), "main.cpp", &pool, "open namespace");
    assert!(chain.is_none());
    assert!(pool.is_empty());
    let tu = scratch(&vfs, &Vec::new(), "main.cpp").expect("parses");
    assert_eq!(tu.ast.decls.len(), 2);
}
