//! Format-stability gates for the binary artifact store (DESIGN.md §13).
//!
//! Three layers of pinning:
//!
//! 1. A **checked-in golden record** (`tests/goldens/format/`) must keep
//!    decoding under the current `FORMAT_VERSION`, and re-encoding its
//!    content must reproduce the checked-in bytes exactly. Any change to
//!    the record framing, module container, or varint coding fails here
//!    until `FORMAT_VERSION` is bumped and the golden regenerated
//!    (`UPDATE_GOLDENS=1 cargo test --test binfmt`).
//! 2. **Encode → decode → encode byte stability** across every corpus
//!    subject's run bundle: the format has one canonical serialization.
//! 3. A **disk-warm determinism run** must serve its artifacts through
//!    the zero-copy read path (`store.zero_copy_hits` > 0) and produce
//!    bytes identical to the cold run.

use std::path::PathBuf;
use std::sync::Arc;

use yalla::core::persist::{decode_run, encode_run};
use yalla::corpus::all_subjects;
use yalla::cpp::cache::depfile_of;
use yalla::obs::metrics::names::STORE_ZERO_COPY_HITS;
use yalla::store::module::{ModuleBuilder, ModuleReader, PartitionBuilder};
use yalla::store::{record, Store, FORMAT_VERSION};
use yalla::{Engine, Options, Session, Vfs};

const GOLDEN_NS: &str = "golden";
const GOLDEN_KEY: u64 = 0x59_41_4C_4C_41; // "YALLA"
const GOLDEN_KIND: u8 = 9;
const PART_DEPS: u8 = 1;
const PART_META: u8 = 2;

/// A hand-built module with every format feature: interned strings,
/// a fixed-layout partition, and a varint-stream partition. Deliberately
/// *not* engine output — the golden must only change when the format
/// changes, never when engine behavior does.
fn golden_payload() -> Vec<u8> {
    let mut m = ModuleBuilder::new(GOLDEN_KIND);
    let hdr = m.intern("include/widget.hpp");
    let src = m.intern("src/main.cpp");
    assert_eq!(m.intern("include/widget.hpp"), hdr, "interning dedups");
    let mut deps = PartitionBuilder::fixed(PART_DEPS, 12);
    for (s, h) in [(hdr, 0xDEAD_BEEF_u64), (src, 0xCAFE_F00D_u64)] {
        let row = deps.row();
        row.put_u32(s.0);
        row.put_u64(h);
    }
    m.push(deps);
    let mut meta = PartitionBuilder::var(PART_META);
    let w = meta.row();
    w.put_varint(42);
    w.put_vstr("format golden — regenerate only on a FORMAT_VERSION bump");
    m.push(meta);
    m.finish()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("format")
        .join(format!("record_v{FORMAT_VERSION}.bin"))
}

#[test]
fn checked_in_golden_record_decodes_under_current_format_version() {
    let path = golden_path();
    let fresh = record::encode(GOLDEN_NS, GOLDEN_KEY, &golden_payload());
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir goldens/format");
        std::fs::write(&path, &fresh).expect("write golden record");
        return;
    }
    let pinned = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden record {} ({e}); after a deliberate FORMAT_VERSION \
             bump run UPDATE_GOLDENS=1 cargo test --test binfmt",
            path.display()
        )
    });
    assert_eq!(
        fresh, pinned,
        "encoder output diverged from the checked-in v{FORMAT_VERSION} golden: \
         bump FORMAT_VERSION and regenerate (UPDATE_GOLDENS=1 cargo test --test binfmt)"
    );

    // The pinned bytes must decode end to end: record framing, then the
    // module container, then every partition and string.
    let payload = record::decode_view(&pinned, GOLDEN_NS, GOLDEN_KEY)
        .unwrap_or_else(|e| panic!("golden record rejected by current decoder: {e:?}"));
    let m = ModuleReader::parse(payload).expect("golden module parses");
    assert_eq!(m.kind(), GOLDEN_KIND);
    assert_eq!(m.str_count(), 2);
    let deps = m.part(PART_DEPS).expect("deps partition");
    assert_eq!(deps.rows(), 2);
    let row = deps.row(0).unwrap();
    assert_eq!(m.get(row.str_at(0).unwrap()).unwrap(), "include/widget.hpp");
    assert_eq!(row.u64_at(4).unwrap(), 0xDEAD_BEEF);
    let row = deps.row(1).unwrap();
    assert_eq!(m.get(row.str_at(0).unwrap()).unwrap(), "src/main.cpp");
    assert_eq!(row.u64_at(4).unwrap(), 0xCAFE_F00D);
    let mut r = m.part(PART_META).expect("meta partition").reader();
    assert_eq!(r.get_varint().unwrap(), 42);
    assert_eq!(
        r.get_vstr().unwrap(),
        "format golden — regenerate only on a FORMAT_VERSION bump"
    );
}

#[test]
fn run_bundles_reencode_byte_identically_across_the_corpus() {
    let subjects = all_subjects();
    assert!(subjects.len() >= 18, "corpus shrank to {}", subjects.len());
    for subject in subjects {
        let options = Options {
            header: subject.header.clone(),
            sources: subject.sources.clone(),
            ..Options::default()
        };
        let result = Engine::new(options)
            .run(&subject.vfs)
            .unwrap_or_else(|e| panic!("{}: engine: {e}", subject.name));
        // Every file of the subject stands in for the run's depfile.
        let ids: Vec<_> = subject.vfs.iter().map(|(id, _)| id).collect();
        let deps = depfile_of(&subject.vfs, &ids);
        let bytes = encode_run(&result, &deps)
            .unwrap_or_else(|| panic!("{}: clean run must be persistable", subject.name));
        ModuleReader::parse(&bytes)
            .unwrap_or_else(|e| panic!("{}: bundle is not a valid module: {e:?}", subject.name));
        let decoded = decode_run(&bytes)
            .unwrap_or_else(|| panic!("{}: bundle failed to decode", subject.name));
        // Decoded artifacts are the originals, byte for byte.
        assert_eq!(decoded.lightweight_header, result.lightweight_header);
        assert_eq!(decoded.wrappers_file, result.wrappers_file);
        assert_eq!(decoded.rewritten_sources, result.rewritten_sources);
        // And the format has one canonical serialization.
        let reencoded = encode_run(&decoded, &deps)
            .unwrap_or_else(|| panic!("{}: decoded run must re-encode", subject.name));
        assert_eq!(
            reencoded, bytes,
            "{}: encode(decode(encode(run))) is not byte-identical",
            subject.name
        );
    }
}

#[test]
fn disk_warm_run_is_served_zero_copy_with_identical_artifacts() {
    let dir = std::env::temp_dir().join(format!("yalla-binfmt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut vfs = Vfs::new();
    vfs.add_file(
        "lib.hpp",
        "namespace K { class Widget { public: int id() const; int grow(int k) const; }; }\n",
    );
    vfs.add_file(
        "main.cpp",
        "#include \"lib.hpp\"\nint use(K::Widget& w) { return w.id() + w.grow(3); }\n",
    );
    let options = Options {
        header: "lib.hpp".into(),
        sources: vec!["main.cpp".into()],
        ..Options::default()
    };

    let cold = Session::with_store(
        options.clone(),
        vfs.clone(),
        Some(Arc::new(Store::open(&dir).expect("open store"))),
    )
    .rerun()
    .expect("cold run");

    let before = yalla::obs::global()
        .metrics()
        .counter(STORE_ZERO_COPY_HITS)
        .get();
    // A fresh handle on the same dir stands in for a restarted process.
    let warm = Session::with_store(
        options,
        vfs,
        Some(Arc::new(Store::open(&dir).expect("reopen store"))),
    )
    .rerun()
    .expect("warm run");
    let after = yalla::obs::global()
        .metrics()
        .counter(STORE_ZERO_COPY_HITS)
        .get();

    assert!(warm.fully_cached(), "{}", warm.summary_line());
    assert!(
        after > before,
        "disk-warm reads must go through the zero-copy path \
         (store.zero_copy_hits {before} -> {after})"
    );
    assert_eq!(
        warm.result.lightweight_header,
        cold.result.lightweight_header
    );
    assert_eq!(warm.result.wrappers_file, cold.result.wrappers_file);
    assert_eq!(warm.result.rewritten_sources, cold.result.rewritten_sources);
    let _ = std::fs::remove_dir_all(&dir);
}
