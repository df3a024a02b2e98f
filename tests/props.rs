//! Property-based tests over the frontend and the substitution engine.

use proptest::prelude::*;
use yalla::cpp::lex::lex_str;
use yalla::cpp::parse::parse_str;
use yalla::cpp::pretty::print_tu;
use yalla::{Engine, Options, Vfs};

// ---------- generators -------------------------------------------------------

/// A C++-ish identifier.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| format!("id_{s}"))
}

/// A simple type spelling.
fn simple_type() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("int".to_string()),
        Just("double".to_string()),
        Just("bool".to_string()),
        ident().prop_map(|c| format!("Cls_{c}")),
        ident().prop_map(|c| format!("Cls_{c}*")),
        ident().prop_map(|c| format!("Cls_{c}&")),
    ]
}

/// A small, well-formed declaration.
fn decl() -> impl Strategy<Value = String> {
    prop_oneof![
        // variable
        (simple_type(), ident()).prop_map(|(t, n)| {
            let t = t.trim_end_matches(['&']).to_string(); // no ref globals
            format!("{t} {n};")
        }),
        // function declaration
        (simple_type(), ident(), simple_type(), ident())
            .prop_map(|(r, f, p, a)| format!("{r} fn_{f}({p} {a});")),
        // class with a field and method
        (ident(), simple_type(), ident()).prop_map(|(c, t, m)| {
            let t = t.trim_end_matches(['&', '*']).to_string();
            format!("class Cls_{c} {{\npublic:\n  {t} field_;\n  {t} get_{m}() const;\n}};")
        }),
        // function template with a body
        (ident(), ident()).prop_map(|(f, p)| format!(
            "template <typename T>\nT tfn_{f}(T {p}) {{ return {p}; }}"
        )),
        // enum
        (ident(), ident(), ident())
            .prop_map(|(e, a, b)| format!("enum class En_{e} {{ A_{a} = 1, B_{b} = 4, }};")),
        // namespace wrapping a class
        (ident(), ident()).prop_map(|(n, c)| format!("namespace ns_{n} {{ class Cls_{c}; }}")),
    ]
}

fn translation_unit() -> impl Strategy<Value = String> {
    prop::collection::vec(decl(), 1..12).prop_map(|ds| ds.join("\n"))
}

// ---------- properties ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lexer never panics, whatever bytes it gets.
    #[test]
    fn lexer_never_panics(input in "\\PC*") {
        let _ = lex_str(&input);
    }

    /// The parser never panics on arbitrary token soup (it may error).
    #[test]
    fn parser_never_panics(input in "[a-zA-Z0-9_{}();:<>,&*+=\\-\\. \n]*") {
        let _ = parse_str(&input);
    }

    /// print → parse → print is a fixed point on generated declarations.
    #[test]
    fn pretty_print_round_trips(src in translation_unit()) {
        let tu = parse_str(&src).expect("generated decls parse");
        let once = print_tu(&tu);
        let tu2 = parse_str(&once).unwrap_or_else(|e| panic!("reparse failed: {e}\n{once}"));
        let twice = print_tu(&tu2);
        prop_assert_eq!(once, twice);
    }

    /// Lexing is insensitive to trailing whitespace/comments.
    #[test]
    fn lexer_ignores_trailing_trivia(src in translation_unit()) {
        let a = lex_str(&src).expect("lexes");
        let b = lex_str(&format!("{src}   // trailing comment\n/* block */  ")).expect("lexes");
        let strip = |mut v: Vec<yalla::cpp::lex::Token>| {
            v.pop();
            v.into_iter().map(|t| t.kind).collect::<Vec<_>>()
        };
        prop_assert_eq!(strip(a), strip(b));
    }

    /// Header Substitution, run on a generated library header plus a tiny
    /// user file, always produces output that passes its own verification
    /// (or reports a structured diagnostic — never panics, never emits
    /// invalid code silently).
    #[test]
    fn engine_output_always_verifies(decls in prop::collection::vec(decl(), 1..8), use_class in ident()) {
        let mut header = String::from("#pragma once\nnamespace lib {\n");
        for d in &decls {
            header.push_str(d);
            header.push('\n');
        }
        header.push_str(&format!("class Target_{use_class} {{ public: int size() const; }};\n"));
        header.push_str("}\n");

        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", header);
        vfs.add_file(
            "main.cpp",
            format!(
                "#include \"lib.hpp\"\nint use_it(lib::Target_{use_class}& t) {{ return t.size(); }}\n"
            ),
        );
        let result = Engine::new(Options {
            header: "lib.hpp".into(),
            sources: vec!["main.cpp".into()],
            ..Options::default()
        })
        .run(&vfs)
        .expect("engine runs");
        prop_assert!(
            result.report.verification.passed(),
            "verification failed: {:?}\nheader:\n{}\nlightweight:\n{}",
            result.report.verification,
            vfs.text(vfs.lookup("lib.hpp").unwrap()),
            result.lightweight_header
        );
    }

    /// The simulator is monotone: adding lines never makes a compile faster.
    #[test]
    fn cost_model_is_monotone(lines in 1usize..200_000, extra in 1usize..50_000) {
        use yalla::sim::tu::TuWork;
        let profile = yalla::CompilerProfile::clang();
        let small = TuWork { lines, tokens: lines * 6, ..TuWork::default() };
        let large = TuWork { lines: lines + extra, tokens: (lines + extra) * 6, ..TuWork::default() };
        prop_assert!(profile.compile(&large).total_ms() > profile.compile(&small).total_ms());
    }

    /// Content hashing changes iff the content changes: equal strings hash
    /// equal, and distinct strings hash distinct (FNV-1a collisions are
    /// astronomically unlikely over these generators — a failure here
    /// means the hasher lost input bytes).
    #[test]
    fn hash_changes_iff_content_changes(a in "[ -~\n]{0,64}", b in "[ -~\n]{0,64}") {
        use yalla::cpp::hash::hash_str;
        prop_assert_eq!(hash_str(&a) == hash_str(&b), a == b);
        // Appending anything changes the hash.
        prop_assert_ne!(hash_str(&format!("{a}x")), hash_str(&a));
    }

    /// A no-op `apply_edit` (identical text) preserves `hash_of`, and a
    /// real edit changes it.
    #[test]
    fn noop_edit_preserves_hash(text in "[ -~\n]{0,80}", extra in "[a-z]{1,8}") {
        let mut vfs = Vfs::new();
        vfs.add_file("f.hpp", text.clone());
        let before = vfs.hash_of("f.hpp").unwrap();
        vfs.apply_edit("f.hpp", text.clone()).unwrap();
        prop_assert_eq!(vfs.hash_of("f.hpp").unwrap(), before);
        vfs.apply_edit("f.hpp", format!("{text}{extra}")).unwrap();
        prop_assert_ne!(vfs.hash_of("f.hpp").unwrap(), before);
        // Reverting restores the original hash exactly.
        vfs.apply_edit("f.hpp", text).unwrap();
        prop_assert_eq!(vfs.hash_of("f.hpp").unwrap(), before);
    }

    /// Edit-then-revert restores the original content hash and re-hits
    /// the `ParseCache` — reverting an edit must not cost a reparse —
    /// whether the edit is to the main file or to the header it includes,
    /// and whether or not `make_room` ran before the edited parse (as a
    /// session's warm pre-pass runs it).
    #[test]
    fn edit_then_revert_rehits_parse_cache(marker in "[a-z]{1,8}") {
        use yalla::cpp::cache::{CacheLookup, ParseCache};
        let main = "#include \"lib.hpp\"\nint keep;\n".to_string();
        let lib = "#pragma once\nnamespace l { class C; }\n".to_string();
        for (path, original, make_room) in [
            ("main.cpp", &main, false),
            ("lib.hpp", &lib, false),
            ("main.cpp", &main, true),
            ("lib.hpp", &lib, true),
        ] {
            let mut vfs = Vfs::new();
            vfs.add_file("lib.hpp", lib.clone());
            vfs.add_file("main.cpp", main.clone());
            let cache = ParseCache::new();

            let cold = cache.parse(&vfs, &[], "main.cpp").unwrap();
            prop_assert_eq!(cold.lookup, CacheLookup::Miss);
            let hash_before = vfs.hash_of(path).unwrap();

            vfs.apply_edit(path, format!("{original}int ed_{marker};\n")).unwrap();
            if make_room {
                cache.make_room(&[], "main.cpp");
            }
            let edited = cache.parse(&vfs, &[], "main.cpp").unwrap();
            prop_assert_eq!(edited.lookup, CacheLookup::Invalidated);
            prop_assert_ne!(vfs.hash_of(path).unwrap(), hash_before);

            vfs.apply_edit(path, original.clone()).unwrap();
            prop_assert_eq!(vfs.hash_of(path).unwrap(), hash_before);
            let reverted = cache.parse(&vfs, &[], "main.cpp").unwrap();
            prop_assert_eq!(reverted.lookup, CacheLookup::Hit);
            prop_assert_eq!(reverted.closure_hash, cold.closure_hash);
        }
    }
}
