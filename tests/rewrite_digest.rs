//! Golden digests of the rewritten sources.
//!
//! For each corpus subject, every rewritten source is digested (FNV-64 of
//! its text) and pinned, one line per source, in
//! `tests/goldens/rewrite.digest`; mega-1k's `tu_0.cpp` is pinned beside
//! them. The artifact goldens only see functor bodies; these lines see
//! every call, member, name and lambda rewrite the engine splices back
//! into user files.
//!
//! To accept an intentional change, regenerate the file:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test rewrite_digest
//! ```

use std::path::PathBuf;

use yalla::cpp::hash::hash_str;
use yalla::fuzz::mega::{MegaConfig, MegaProject};
use yalla::{Engine, Options};

/// One golden line: `name path bytes=N digest=<hex>`.
fn digest_line(name: &str, path: &str, text: &str) -> String {
    format!(
        "{name} {path} bytes={} digest={:016x}\n",
        text.len(),
        hash_str(text)
    )
}

#[test]
fn rewritten_sources_match_golden_digests() {
    let mut actual = String::new();
    for subject in yalla::corpus::all_subjects() {
        let opts = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        let result = Engine::new(opts)
            .run(&subject.vfs)
            .unwrap_or_else(|e| panic!("{}: engine: {e}", subject.name));
        for (path, text) in &result.rewritten_sources {
            actual.push_str(&digest_line(subject.name, path, text));
        }
    }
    let config = MegaConfig::preset("mega-1k").expect("preset exists");
    let (vfs, opts) = MegaProject::generate(&config).render();
    let primary = opts.parse_roots()[0].clone();
    assert!(primary.ends_with("tu_0.cpp"), "primary root is {primary}");
    let result = Engine::new(opts)
        .run(&vfs)
        .unwrap_or_else(|e| panic!("mega-1k: engine: {e}"));
    actual.push_str(&digest_line(
        "mega-1k",
        &primary,
        &result.rewritten_sources[&primary],
    ));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/rewrite.digest");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDENS=1 cargo test --test rewrite_digest",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "rewritten-source digest moved");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
