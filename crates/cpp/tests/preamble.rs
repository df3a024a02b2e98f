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
//! Each input's pool makes its substituted header the header unit, so a
//! fragment that reaches it first starts with the unit's fragment.
//!
//! Beside them: the mega-1k roots and the corpus subjects parsed through
//! one shared pool in a seeded order, table-driven cases in which a
//! fragment must miss or no fragment boundary exists, and cases in which
//! the header unit is shared, must miss, is not offered or nests too
//! deep.
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

/// A pool whose header unit is `header` resolved in `vfs`, as a session's.
fn pool_for(vfs: &Vfs, header: &str) -> FragmentPool {
    let unit = vfs.resolve_include(header, None, false).expect("header");
    FragmentPool::with_unit(vfs.path(unit))
}

/// Runs every edit on one input; returns how many parses reused the
/// whole chain (an erroneous parse counts when it built no fragment).
fn check(name: &str, vfs: &Vfs, defines: &Defines, main: &str, header: &str) -> usize {
    let pool = pool_for(vfs, header);
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
            &subject.header,
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
        let resumed = check(root, &vfs, &options.defines, root, &options.header);
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
            &options.header,
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

fn tree(files: &[(&str, &str)]) -> Vfs {
    let mut vfs = Vfs::new();
    for (path, text) in files {
        vfs.add_file(path, *text);
    }
    vfs
}

/// The header unit `chain`'s first fragment starts with, or the first
/// fragment itself when it is the unit.
fn unit_of(chain: &Chain) -> Arc<Fragment> {
    let first = &chain.fragments()[0];
    Arc::clone(first.unit().unwrap_or(first))
}

#[test]
fn the_header_unit_is_one_fragment_at_any_depth() {
    let _guard = counter_lock();
    let vfs = tree(&[
        ("unit.hpp", "#pragma once\n#include \"part.hpp\"\nint u;\n"),
        ("part.hpp", "#pragma once\nint part;\n"),
        ("mid.hpp", "#pragma once\n#include \"unit.hpp\"\nint mid;\n"),
        (
            "outer.hpp",
            "#pragma once\n#include \"mid.hpp\"\nint outer;\n",
        ),
        ("a.cpp", "#include \"outer.hpp\"\nint a;\n"),
        ("b.cpp", "#include \"unit.hpp\"\nint b;\n"),
    ]);
    // Either root first: the unit reached through two non-unit headers'
    // leading blocks and the unit included directly are one fragment.
    for order in [["a.cpp", "b.cpp"], ["b.cpp", "a.cpp"]] {
        let pool = FragmentPool::with_unit("unit.hpp");
        let chains: Vec<Chain> = order
            .iter()
            .map(|main| check_one(&vfs, &Vec::new(), main, &pool, main).expect("a chain"))
            .collect();
        let units: Vec<Arc<Fragment>> = chains.iter().map(unit_of).collect();
        assert!(Arc::ptr_eq(&units[0], &units[1]), "{order:?}: two units");
        let outer = chains[usize::from(order[0] != "a.cpp")].fragments()[0].clone();
        assert!(outer.unit().is_some(), "{order:?}: outer.hpp holds no unit");
        assert_eq!(outer.decl_count(), 4, "{order:?}: part, u, mid, outer");
        assert_eq!(pool.len(), 2, "{order:?}: the unit and outer.hpp");
    }
}

#[test]
fn the_header_unit_misses_when_its_incoming_state_changes() {
    let _guard = counter_lock();
    let unit =
        "#pragma once\n#include \"part.hpp\"\n#ifdef WIDE\nint wide;\n#else\nint narrow;\n#endif\n";
    let vfs = tree(&[
        ("unit.hpp", unit),
        ("part.hpp", "#pragma once\nint part;\n"),
        ("mid.hpp", "#pragma once\n#include \"unit.hpp\"\nint mid;\n"),
        ("def.hpp", "#define WIDE 1\n"),
        ("undef.hpp", "#undef WIDE\n"),
        ("first.cpp", "#include \"mid.hpp\"\nint a;\n"),
        (
            "define.cpp",
            "#include \"def.hpp\"\n#include \"mid.hpp\"\nint b;\n",
        ),
        (
            "undef.cpp",
            "#include \"undef.hpp\"\n#include \"mid.hpp\"\nint c;\n",
        ),
        (
            "entered.cpp",
            "#include \"part.hpp\"\n#include \"mid.hpp\"\nint d;\n",
        ),
    ]);
    let wide: Defines = vec![("WIDE".into(), "1".into())];
    // `(case, second root, defines of both parses)`: `first.cpp` builds
    // the unit under `mid.hpp`, and the second root reaches it there in
    // another state.
    let cases: [(&str, &str, &Defines); 3] = [
        (
            "a sibling defines a macro the unit tests",
            "define.cpp",
            &Vec::new(),
        ),
        (
            "a sibling undefines a macro the unit tests",
            "undef.cpp",
            &wide,
        ),
        (
            "a sibling entered one of the unit's files",
            "entered.cpp",
            &Vec::new(),
        ),
    ];
    for (name, then, defines) in cases {
        let pool = FragmentPool::with_unit("unit.hpp");
        let first = check_one(&vfs, defines, "first.cpp", &pool, name).expect("a chain");
        let built = unit_of(&first);
        let second = check_one(&vfs, defines, then, &pool, name).expect("a chain");
        let mid = second.fragments().last().expect("mid.hpp");
        let reached = mid.unit().expect("the unit is offered");
        assert!(!Arc::ptr_eq(&built, reached), "{name}: the unit hit");
    }
}

#[test]
fn the_header_unit_is_not_offered_inside_a_declaration() {
    let _guard = counter_lock();
    let vfs = tree(&[
        ("unit.hpp", "int u;\n"),
        (
            "mid.hpp",
            "#pragma once\nnamespace n {\n#include \"unit.hpp\"\n}\nint mid;\n",
        ),
        ("a.cpp", "#include \"mid.hpp\"\nint a;\n"),
        ("b.cpp", "namespace m {\n#include \"unit.hpp\"\n}\nint b;\n"),
    ]);
    let pool = FragmentPool::with_unit("unit.hpp");
    let chain = check_one(&vfs, &Vec::new(), "a.cpp", &pool, "in a namespace").expect("a chain");
    assert!(chain.fragments()[0].unit().is_none());
    assert_eq!(pool.len(), 1, "only mid.hpp");
    // Below the main file's leading block the unit is processed inline.
    assert!(check_one(&vfs, &Vec::new(), "b.cpp", &pool, "in the body").is_none());
    assert_eq!(pool.len(), 1);
}

#[test]
fn the_header_unit_reached_too_deep_reports_the_scratch_error() {
    let _guard = counter_lock();
    // `unit.hpp` and the 11 headers below it nest 12 files deep;
    // `deep.cpp` reaches it through a chain of `links` headers, each
    // including the next before any token.
    let mut files: Vec<(String, String)> = (1..=10)
        .map(|i| {
            (
                format!("u{i}.hpp"),
                format!("#include \"u{}.hpp\"\nint u{i};\n", i + 1),
            )
        })
        .collect();
    files.push(("u11.hpp".into(), "int u11;\n".into()));
    files.push(("unit.hpp".into(), "#include \"u1.hpp\"\nint u;\n".into()));
    files.push((
        "direct.cpp".into(),
        "#include \"unit.hpp\"\nint d;\n".into(),
    ));
    for links in [185, 187, 188, 190] {
        let mut vfs = Vfs::new();
        for (path, text) in &files {
            vfs.add_file(path, text.as_str());
        }
        for i in 0..links {
            let next = if i + 1 == links {
                "unit.hpp".to_string()
            } else {
                format!("c{}.hpp", i + 1)
            };
            vfs.add_file(
                &format!("c{i}.hpp"),
                format!("#include \"{next}\"\nint c{i};\n"),
            );
        }
        vfs.add_file("deep.cpp", "#include \"c0.hpp\"\nint e;\n");
        let pool = FragmentPool::with_unit("unit.hpp");
        let what = format!("{links} links");
        let direct = check_one(&vfs, &Vec::new(), "direct.cpp", &pool, &what).expect("a chain");
        let deep = check_one(&vfs, &Vec::new(), "deep.cpp", &pool, &what);
        // The main file, `links` headers, the unit and its 11 files.
        let fits = 1 + links + 12 <= 200;
        assert_eq!(deep.is_some(), fits, "{what}");
        if let Some(deep) = deep {
            let reused = Arc::ptr_eq(&unit_of(&direct), &unit_of(&deep));
            assert!(reused, "{what}: the unit missed");
        }
    }
}
