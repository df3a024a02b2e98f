//! A symbol table extended from an include chain's table equals the table
//! built from the whole TU.
//!
//! For every corpus subject, every mega-1k TU root and a set of
//! grammar-fuzz projects, the main source is parsed once through a
//! fragment pool, which produces the chain of its leading block's include
//! fragments, and the chain's table is built once. For the unedited TU
//! and for each edit below, appended to the main source so that the parse
//! reuses every fragment of that chain, `SymbolTable::extend` of the
//! chain's table with the rest of the TU's declarations is compared with
//! `SymbolTable::build` of the whole TU:
//! the length, every entry (key, scope, `nested_in_class`, kind, file and
//! `decl_count`), the iterated key set, and `resolve` of every key, of
//! every unqualified name and of every key's last two segments.
//!
//! The edits, each alone and all together:
//! * a new class;
//! * the definition of a class the prefix only forward-declares (the
//!   entry's payload is upgraded);
//! * a prefix namespace reopened with a new function;
//! * an overload, with a body, of a prefix function (a bodyless one when
//!   the prefix has one, so its payload is upgraded too);
//! * a class that makes a prefix class's unqualified name ambiguous.

use std::collections::BTreeSet;
use std::sync::Arc;

use yalla::analysis::symbols::{SymbolInfo, SymbolKind, SymbolTable};
use yalla::corpus::all_subjects;
use yalla::cpp::{FragmentPool, Frontend};
use yalla::fuzz::grammar::ProjectModel;
use yalla::fuzz::mega::{MegaConfig, MegaProject};
use yalla::Vfs;

type Defines = Vec<(String, String)>;

/// True when two kinds print the same `Debug` text. Payloads shared
/// through one `Arc` are equal without printing them.
fn same_kind(a: &SymbolKind, b: &SymbolKind) -> bool {
    let shared = match (a, b) {
        (SymbolKind::Class(x), SymbolKind::Class(y)) => Arc::ptr_eq(x, y),
        (SymbolKind::Enum(x), SymbolKind::Enum(y)) => Arc::ptr_eq(x, y),
        (SymbolKind::Alias(x), SymbolKind::Alias(y)) => Arc::ptr_eq(x, y),
        (SymbolKind::Function(x), SymbolKind::Function(y)) => Arc::ptr_eq(x, y),
        _ => false,
    };
    shared || format!("{a:?}") == format!("{b:?}")
}

fn assert_same_entry(e: &SymbolInfo, f: &SymbolInfo, what: &str) {
    let key = &f.key;
    assert_eq!(e.key, f.key, "{what}: key");
    assert_eq!(e.scope, f.scope, "{what}: {key} scope");
    assert_eq!(
        e.nested_in_class, f.nested_in_class,
        "{what}: {key} nested_in_class"
    );
    assert!(same_kind(&e.kind, &f.kind), "{what}: {key} kind");
    assert_eq!(e.file, f.file, "{what}: {key} file");
    assert_eq!(e.decl_count, f.decl_count, "{what}: {key} decl_count");
}

/// Asserts that `extended` answers every query as `full` does.
fn assert_same(extended: &SymbolTable, full: &SymbolTable, what: &str) {
    assert_eq!(extended.len(), full.len(), "{what}: len");
    assert_eq!(extended.is_empty(), full.is_empty(), "{what}: is_empty");
    let mut queries = BTreeSet::new();
    for f in full.iter() {
        let e = extended
            .get(&f.key)
            .unwrap_or_else(|| panic!("{what}: {} missing", f.key));
        assert_same_entry(e, f, what);
        let segs: Vec<&str> = f.key.rsplit("::").take(2).collect();
        queries.insert(f.key.clone());
        queries.insert(segs[0].to_string());
        if let [last, outer] = segs[..] {
            queries.insert(format!("{outer}::{last}"));
        }
    }
    let iterated: Vec<&str> = extended.iter().map(|s| s.key.as_str()).collect();
    let distinct: BTreeSet<&str> = iterated.iter().copied().collect();
    assert_eq!(iterated.len(), distinct.len(), "{what}: iter repeats a key");
    let expected: BTreeSet<&str> = full.iter().map(|s| s.key.as_str()).collect();
    assert!(distinct == expected, "{what}: iterated keys differ");
    for e in extended.iter() {
        assert_same_entry(e, full.get(&e.key).expect("key present"), what);
    }
    for q in &queries {
        assert_eq!(
            extended.resolve(q).map(|s| &s.key),
            full.resolve(q).map(|s| &s.key),
            "{what}: resolve({q})"
        );
    }
}

/// `namespace a { namespace b { <inner> } }` for the scope `[a, b]`.
fn in_scope(scope: &[String], inner: &str) -> String {
    let mut out = String::new();
    for ns in scope {
        out.push_str(&format!("namespace {ns} {{\n"));
    }
    out.push_str(inner);
    out.push('\n');
    for _ in scope {
        out.push_str("}\n");
    }
    out
}

/// The first entry by key that `pick` accepts, among the prefix's
/// symbols declared at namespace scope.
fn first(prefix: &SymbolTable, pick: impl Fn(&SymbolInfo) -> bool) -> Option<&SymbolInfo> {
    prefix
        .iter()
        .filter(|s| !s.nested_in_class && pick(s))
        .min_by(|a, b| a.key.cmp(&b.key))
}

fn name_of(s: &SymbolInfo) -> &str {
    s.key.rsplit("::").next().unwrap_or(&s.key)
}

/// The body edits of the module docs that `prefix` offers targets for,
/// each appended to the main source.
fn edits(prefix: &SymbolTable) -> Vec<(&'static str, String)> {
    let mut edits = vec![(
        "new-class",
        "struct YallaProbeNew { int a; int get() const { return a; } };\n".to_string(),
    )];
    let forward = first(prefix, |s| {
        matches!(&s.kind, SymbolKind::Class(c)
            if !c.is_definition && c.template.is_none() && c.spec_args.is_none())
    });
    if let Some(s) = forward {
        let class = format!("class {} {{ public: int yalla_probe; }};", name_of(s));
        edits.push(("define-forward-class", in_scope(&s.scope, &class)));
    }
    if let Some(s) = first(prefix, |s| matches!(s.kind, SymbolKind::Namespace)) {
        let mut scope = s.scope.to_vec();
        scope.push(name_of(s).to_string());
        let f = "int yalla_probe_fn(int a) { return a + 1; }";
        edits.push(("reopen-namespace", in_scope(&scope, f)));
    }
    let function = |bodyless: bool| {
        first(
            prefix,
            move |s| matches!(&s.kind, SymbolKind::Function(f) if !bodyless || f.body.is_none()),
        )
    };
    if let Some(s) = function(true).or_else(|| function(false)) {
        let overload = format!(
            "int {}(int yalla_a, int yalla_b, int yalla_c, int yalla_d, int yalla_e) {{ return yalla_a; }}",
            name_of(s)
        );
        edits.push(("overload-function", in_scope(&s.scope, &overload)));
    }
    let unique = first(prefix, |s| {
        matches!(s.kind, SymbolKind::Class(_))
            && !s.scope.is_empty()
            && prefix.resolve(name_of(s)).is_some_and(|r| r.key == s.key)
    });
    if let Some(s) = unique {
        let class = format!("class {} {{ }};", name_of(s));
        edits.push(("ambiguous-name", in_scope(&["yalla_probe".into()], &class)));
    }
    let all = edits.iter().map(|(_, e)| e.as_str()).collect::<String>();
    edits.push(("all", all));
    edits
}

fn text_of(vfs: &Vfs, path: &str) -> String {
    vfs.text(vfs.lookup(path).expect("file exists")).to_string()
}

/// Checks the unedited TU and every edit of one input; returns the edits
/// checked (none when the main source has no include chain).
fn check(name: &str, vfs: &Vfs, defines: &Defines, main: &str) -> Vec<&'static str> {
    let pool = FragmentPool::new();
    let parse = |vfs: &Vfs| {
        Frontend::with_defines(vfs.clone(), defines)
            .parse_with(main, &pool)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let parsed = parse(vfs);
    let (tu, Some(chain)) = (parsed.tu, parsed.chain) else {
        return Vec::new();
    };
    let prefix = chain.table();
    let n = chain.decls();
    assert_same(
        &SymbolTable::extend(&prefix, &tu.ast.decls[n..]),
        &SymbolTable::build(&tu.ast),
        &format!("{name}: unedited"),
    );
    let original = text_of(vfs, main);
    let edits = edits(&prefix);
    for (edit, text) in &edits {
        let mut edited = vfs.clone();
        edited.add_file(main, format!("{original}{text}"));
        let parsed = parse(&edited);
        let same = |c: &yalla::cpp::Chain| {
            c.fragments().len() == chain.fragments().len()
                && c.fragments()
                    .iter()
                    .zip(chain.fragments())
                    .all(|(a, b)| Arc::ptr_eq(a, b))
        };
        assert!(
            parsed.chain.as_ref().is_some_and(same),
            "{name}: {edit} did not reuse the chain"
        );
        let tu = parsed.tu;
        assert_same(
            &SymbolTable::extend(&prefix, &tu.ast.decls[n..]),
            &SymbolTable::build(&tu.ast),
            &format!("{name}: {edit}"),
        );
    }
    edits.into_iter().map(|(edit, _)| edit).collect()
}

/// Asserts that each edit was checked on at least `min` inputs.
fn assert_covered(checked: &[Vec<&str>], min: usize) {
    for edit in [
        "new-class",
        "define-forward-class",
        "reopen-namespace",
        "overload-function",
        "ambiguous-name",
        "all",
    ] {
        let n = checked.iter().filter(|c| c.contains(&edit)).count();
        assert!(n >= min, "{edit}: checked on {n} inputs");
    }
}

#[test]
fn corpus_subjects_extend_to_the_whole_table() {
    let subjects = all_subjects();
    // Two threads, each over half of the subjects.
    let checked: Vec<_> = std::thread::scope(|scope| {
        let halves: Vec<_> = subjects
            .chunks(subjects.len().div_ceil(2))
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|s| check(s.name, &s.vfs, &Vec::new(), &s.main_source))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("subjects checked"))
            .collect()
    });
    assert!(checked.iter().all(|c| c.len() >= 5), "{checked:?}");
    assert_covered(&checked, 10);
}

#[test]
fn mega_roots_extend_to_the_whole_table() {
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, options) = MegaProject::generate(&config).render();
    for root in &options.tu_roots {
        let checked = check(root, &vfs, &options.defines, root);
        assert!(checked.len() >= 4, "{root}: {checked:?}");
    }
}

#[test]
fn grammar_fuzz_projects_extend_to_the_whole_table() {
    let checked: Vec<_> = (0..24)
        .map(|seed| {
            let (vfs, options) = ProjectModel::generate(seed).render();
            let name = format!("grammar seed {seed}");
            check(&name, &vfs, &options.defines, &options.sources[0])
        })
        .collect();
    let with_chain = checked.iter().filter(|c| !c.is_empty()).count();
    assert!(with_chain >= 12, "{with_chain} of 24 had an include chain");
}
