//! Golden digests of the symbol table and the usage fingerprint.
//!
//! For each corpus subject, and for mega-1k's `tu_0.cpp`, the primary
//! TU's [`SymbolTable`] is digested entry by entry in key order: key,
//! scope, `nested_in_class`, kind tag, declaring file, `decl_count` and
//! the payload's `Debug` text. The subject's usage fingerprint is pinned
//! beside it. A change to how the table stores its entries must leave
//! every line of `tests/goldens/symtab.digest` byte-identical.
//!
//! To accept an intentional change, regenerate the file:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test symtab_digest
//! ```

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;

use yalla::analysis::symbols::SymbolTable;
use yalla::analysis::usage::UsageReport;
use yalla::core::fingerprint::usage_fingerprint;
use yalla::cpp::hash::Fnv64;
use yalla::cpp::loc::FileId;
use yalla::fuzz::mega::{MegaConfig, MegaProject};
use yalla::{Frontend, Options, Vfs};

/// Streams `Debug` text into the hash without materializing it.
struct HashWriter<'a>(&'a mut Fnv64);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_str(s);
        Ok(())
    }
}

/// Files reachable from `root` over the include edges.
fn reachable(root: FileId, edges: &[(FileId, FileId)]) -> HashSet<FileId> {
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(f) = stack.pop() {
        if seen.insert(f) {
            stack.extend(edges.iter().filter(|(a, _)| *a == f).map(|(_, b)| *b));
        }
    }
    seen
}

/// One golden line: `name symbols=N table=<hex> usage=<hex>`.
fn digest_line(name: &str, vfs: &Vfs, opts: &Options, root: &str) -> String {
    let tu = Frontend::with_defines(vfs.clone(), &opts.defines)
        .parse_translation_unit(root)
        .unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    let table = SymbolTable::build(&tu.ast);

    let mut entries: Vec<_> = table.iter().collect();
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    let mut h = Fnv64::new();
    for s in &entries {
        write!(
            HashWriter(&mut h),
            "{}\u{1}{:?}\u{1}{}\u{1}{}\u{1}{}\u{1}{}\u{1}{:?}\u{2}",
            s.key,
            s.scope,
            s.nested_in_class,
            s.kind.tag(),
            vfs.path(s.file),
            s.decl_count,
            s.kind,
        )
        .expect("hashing never fails");
    }

    let header = vfs
        .resolve_include(&opts.header, None, false)
        .unwrap_or_else(|e| panic!("{name}: header: {e}"));
    let targets = reachable(header, &tu.stats.include_edges);
    let sources: HashSet<FileId> = opts
        .sources
        .iter()
        .map(|s| vfs.lookup(s).expect("source exists"))
        .collect();
    let usage = UsageReport::collect(&tu.ast, &table, &targets, &sources);
    format!(
        "{name} symbols={} table={:016x} usage={:016x}\n",
        entries.len(),
        h.finish(),
        usage_fingerprint(&usage, &table, opts)
    )
}

#[test]
fn symbol_tables_and_usage_fingerprints_match_golden_digests() {
    let mut actual = String::new();
    for subject in yalla::corpus::all_subjects() {
        let opts = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        actual.push_str(&digest_line(
            subject.name,
            &subject.vfs,
            &opts,
            &subject.main_source,
        ));
    }
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, opts) = MegaProject::generate(&config).render();
    let primary = opts.parse_roots()[0].clone();
    assert!(primary.ends_with("tu_0.cpp"), "primary root is {primary}");
    actual.push_str(&digest_line("mega-1k:tu_0.cpp", &vfs, &opts, &primary));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/symtab.digest");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDENS=1 cargo test --test symtab_digest",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "symbol-table digest moved");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
