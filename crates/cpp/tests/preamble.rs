//! A parse that resumes from a preamble equals a parse from scratch.
//!
//! For every corpus subject, every mega-1k TU root and a set of
//! grammar-fuzz projects, a preamble is built on the unedited main
//! source, then each edit below is applied and the parse that resumes
//! from that preamble (when it still fits) is compared with a parse from
//! scratch of the edited tree: the same AST, the same `PpStats`, or the
//! same error (kind, message and span).
//!
//! * edits below the preamble resume: a trailing comment, a body literal,
//!   a directive appended after the include block, a syntax error and a
//!   missing include in the body;
//! * edits that must not resume: `#define X 1` → `#define X 12` on the
//!   preamble's last line, an edit to a file the preamble entered and a
//!   changed define. A miss runs the very code path of a parse without a
//!   preamble, so for those the test checks that the preamble was not
//!   used.
//!
//! A main file whose include block does not parse on its own (a header
//! opens a namespace the main file closes) gets no preamble at all.

use std::sync::Arc;

use yalla_corpus::{all_subjects, bump_body_literal};
use yalla_cpp::vfs::Vfs;
use yalla_cpp::{Frontend, ParsedTu, Preamble, Result};
use yalla_fuzz::grammar::ProjectModel;
use yalla_fuzz::mega::{MegaConfig, MegaProject};

type Defines = Vec<(String, String)>;

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

/// Parses `main` over `vfs`, resuming from `preamble` when it fits.
fn parse(
    vfs: &Vfs,
    defines: &Defines,
    main: &str,
    preamble: Option<&Arc<Preamble>>,
) -> (Result<ParsedTu>, Option<Arc<Preamble>>) {
    match Frontend::with_defines(vfs.clone(), defines).parse_resuming(main, preamble) {
        Ok((tu, used)) => (Ok(tu), used),
        Err(e) => (Err(e), None),
    }
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

/// Runs every edit on one input; returns how many parses resumed.
fn check(name: &str, vfs: &Vfs, defines: &Defines, main: &str) -> usize {
    let (base, preamble) = parse(vfs, defines, main, None);
    let base = base.unwrap_or_else(|e| panic!("{name}: {e}"));
    let Some(preamble) = preamble else {
        return 0;
    };
    let original = text_of(vfs, main);
    let mut resumed = 0;

    // Edits below the preamble: resume, and equal a parse from scratch.
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
        let fits = preamble.fits(&edited, defines, main);
        let (warm, used) = parse(&edited, defines, main, Some(&preamble));
        let (cold, _) = parse(&edited, defines, main, None);
        assert_same(&warm, &cold, &format!("{name}: {edit}"));
        if warm.is_ok() {
            assert_eq!(
                used.is_some_and(|u| Arc::ptr_eq(&u, &preamble)),
                fits,
                "{name}: {edit}"
            );
        }
        resumed += usize::from(fits);
    }

    // Edits that must miss.
    let mut changed_define = defines.clone();
    changed_define.push(("YALLA_PREAMBLE_D".into(), "1".into()));
    let mut misses = vec![("changed-define", vfs.clone(), changed_define)];
    if let Some(&header) = base.stats.files_entered.get(1) {
        let header = vfs.path(header);
        let text = format!("{}\n// edited\n", text_of(vfs, header));
        misses.push((
            "entered-file",
            with_text(vfs, header, text),
            defines.clone(),
        ));
    }
    let x1 = after_include_block(&original, "#define YALLA_PREAMBLE_X 1");
    let (_, x1_preamble) = parse(&with_text(vfs, main, x1), defines, main, None);
    let x12 = after_include_block(&original, "#define YALLA_PREAMBLE_X 12");
    for (edit, edited, defines) in &misses {
        assert!(!preamble.fits(edited, defines, main), "{name}: {edit}");
    }
    if let Some(x1_preamble) = x1_preamble {
        let edited = with_text(vfs, main, x12);
        assert!(
            !x1_preamble.fits(&edited, defines, main),
            "{name}: X 1 -> 12"
        );
    }
    resumed
}

#[test]
fn corpus_subjects_resume_to_the_same_parse() {
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
fn mega_roots_resume_to_the_same_parse() {
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, options) = MegaProject::generate(&config).render();
    for root in &options.tu_roots {
        let resumed = check(root, &vfs, &options.defines, root);
        assert!(resumed >= 4, "{root}: only {resumed} edits resumed");
    }
}

#[test]
fn grammar_fuzz_projects_resume_to_the_same_parse() {
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
fn a_block_that_does_not_parse_on_its_own_gets_no_preamble() {
    let mut vfs = Vfs::new();
    vfs.add_file("open.hpp", "namespace n {\nint a;\n");
    vfs.add_file("main.cpp", "#include \"open.hpp\"\nint b;\n}\nint c;\n");
    let (tu, preamble) = parse(&vfs, &Vec::new(), "main.cpp", None);
    assert_eq!(tu.expect("parses").ast.decls.len(), 2);
    assert!(preamble.is_none());
}
