//! On-disk persistence of session artifacts (DESIGN.md §11).
//!
//! The in-memory stage caches hold ASTs and symbol tables — structures
//! that are impractical to serialize and cheap to avoid serializing:
//! what a *restarted* process actually needs is not the intermediate
//! state but the ability to prove "nothing changed" and hand back the
//! previous answer. So the disk tier persists two payloads, both written
//! by this module:
//!
//! 1. **Run bundles** (`run` namespace): every final artifact of one
//!    pipeline run — lightweight header, wrappers file, rewritten
//!    sources, and the report's counts/diagnostics/stats — plus the
//!    run's *depfile*, the union of every TU root's include closure with
//!    each file's content hash. A bundle is keyed on the options and the
//!    path and content hash of each root and each source
//!    (`run_key_of`), and a lookup checks every depfile row against the
//!    current tree before it decodes anything (`lookup_run`): a hit is
//!    a *whole-run* disk hit, all six stages report `hit` and nothing is
//!    recomputed. Like a Clang module file, the bundle carries the list
//!    of its inputs and checks it when it loads, so no second record has
//!    to agree with it.
//! 2. **Project records** (`serve` namespace): what `yalla serve` needs
//!    to rebuild a warm shard after a crash — name, options, and the
//!    current file tree.
//!
//! Each key holds one bundle, the last one written: an edit to a header
//! (which leaves the key unchanged) replaces the bundle of the tree
//! before it.
//!
//! The tradeoff is deliberate: a fully-warm restart costs zero
//! recomputation, while a restart followed by an edit recomputes the
//! whole pipeline once (there is no partially-warm disk state to resume
//! from) and is then warm again, both in memory and on disk.
//!
//! Bundles whose verification found incomplete-type violations are never
//! persisted — violations carry source spans that do not survive
//! serialization, and a failing run is not worth resuming into anyway.

use std::collections::BTreeMap;
use std::time::Duration;

use yalla_cpp::hash::Fnv64;
use yalla_cpp::vfs::Vfs;
use yalla_store::module::{ModuleBuilder, ModuleReader, PartitionBuilder};

use crate::engine::{Options, SubstitutionResult, Timings};
use crate::plan::{Diagnostic, DiagnosticKind, Plan};
use crate::report::{Report, TuStats, Verification};

/// Bundle payload format version; bump on any layout change so old
/// bundles degrade to misses (the record decoder treats a short or
/// reshaped payload as corrupt, but an explicit version keeps additive
/// changes honest too).
const BUNDLE_VERSION: u8 = 3;

/// Module kind byte of run-bundle payloads (DESIGN.md §13).
const MODULE_KIND_RUN: u8 = 2;
/// Module kind byte of serve project records.
pub(crate) const MODULE_KIND_PROJECT: u8 = 3;

// Run-bundle partitions.
/// Var: bundle version, report counts, TU stats, verification flags.
const PART_META: u8 = 1;
/// Var: lightweight header text, wrappers file text.
const PART_TEXTS: u8 = 2;
/// Fixed 8-byte rows: `(path StrRef, text StrRef)` per rewritten source.
const PART_SOURCES: u8 = 3;
/// Fixed 5-byte rows: `(kind u8, message StrRef)` per diagnostic.
const PART_DIAGS: u8 = 4;
/// Fixed 8-byte rows: `(path StrRef, text StrRef)` per project file
/// (project records only).
const PART_FILES: u8 = 5;
/// Fixed 12-byte rows: `(path StrRef, content hash u64)` per file of the
/// run's depfile (run bundles only).
const PART_DEPS: u8 = 6;
const DEP_ROW_SIZE: usize = 12;

/// Key of the whole-run artifact bundle: every option that shapes the
/// output plus the path and content hash of each TU root and each source
/// (sources outside every root's closure still get rewritten, so their
/// text is an input too). The headers the roots include are not in the
/// key; the bundle's depfile covers them.
pub(crate) fn run_key_of(opts: &Options, vfs: &Vfs) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&opts.header);
    h.write_str(&opts.lightweight_name);
    h.write_str(&opts.wrappers_name);
    for (k, v) in &opts.defines {
        h.write_str(k);
        h.write_str(v);
    }
    for e in &opts.extra_symbols {
        h.write_str(e);
    }
    h.write_u64(u64::from(opts.verify));
    for s in opts.sources.iter().chain(&opts.tu_roots) {
        h.write_str(s);
        h.write_u64(vfs.hash_of(s).unwrap_or(0));
    }
    h.finish()
}

fn diag_tag(kind: DiagnosticKind) -> u8 {
    match kind {
        DiagnosticKind::NestedClassUnsupported => 0,
        DiagnosticKind::DeductionFailed => 1,
        DiagnosticKind::UnknownSymbol => 2,
        DiagnosticKind::Note => 3,
    }
}

fn diag_kind(tag: u8) -> Option<DiagnosticKind> {
    Some(match tag {
        0 => DiagnosticKind::NestedClassUnsupported,
        1 => DiagnosticKind::DeductionFailed,
        2 => DiagnosticKind::UnknownSymbol,
        3 => DiagnosticKind::Note,
        _ => return None,
    })
}

/// Encodes a run's final artifacts and its depfile (`(path, content
/// hash)` of every file its TU roots read) as a run-bundle module
/// payload, or `None` when the run is not persistable (verification
/// violations carry spans). Paths, texts, and messages are interned into
/// the module's string table; per-source, per-diagnostic and per-file
/// data are fixed-layout rows holding `StrRef`s.
pub fn encode_run(result: &SubstitutionResult, deps: &[(String, u64)]) -> Option<Vec<u8>> {
    if !result.report.verification.violations.is_empty() {
        return None;
    }
    let r = &result.report;
    let mut m = ModuleBuilder::new(MODULE_KIND_RUN);

    let mut meta = PartitionBuilder::var(PART_META);
    {
        let w = meta.row();
        w.put_u8(BUNDLE_VERSION);
        for count in [
            r.classes_forward_declared,
            r.functions_forward_declared,
            r.function_wrappers,
            r.method_wrappers,
            r.functors,
            r.enums_replaced,
            r.explicit_instantiations,
        ] {
            w.put_varint(count as u64);
        }
        for stat in [r.before, r.after] {
            w.put_varint(stat.loc as u64);
            w.put_varint(stat.headers as u64);
        }
        w.put_u8(u8::from(r.verification.sources_parse));
        w.put_u8(u8::from(r.verification.wrappers_parse));
    }
    m.push(meta);

    let mut texts = PartitionBuilder::var(PART_TEXTS);
    {
        let w = texts.row();
        w.put_vstr(&result.lightweight_header);
        w.put_vstr(&result.wrappers_file);
    }
    m.push(texts);

    let mut sources = PartitionBuilder::fixed(PART_SOURCES, 8);
    for (path, text) in &result.rewritten_sources {
        let path = m.intern(path);
        let text = m.intern(text);
        let row = sources.row();
        row.put_u32(path.0);
        row.put_u32(text.0);
    }
    m.push(sources);

    let mut diags = PartitionBuilder::fixed(PART_DIAGS, 5);
    for d in &r.diagnostics {
        let message = m.intern(&d.message);
        let row = diags.row();
        row.put_u8(diag_tag(d.kind));
        row.put_u32(message.0);
    }
    m.push(diags);

    let mut rows = PartitionBuilder::fixed(PART_DEPS, DEP_ROW_SIZE);
    for (path, hash) in deps {
        let path = m.intern(path);
        let row = rows.row();
        row.put_u32(path.0);
        row.put_u64(*hash);
    }
    m.push(rows);

    Some(m.finish())
}

/// Decodes a bundle payload back into a [`SubstitutionResult`], without
/// checking its depfile. Timings are zero (nothing ran) and diagnostic
/// spans are gone (not persisted); everything else is byte-identical to
/// the run that was stored.
pub fn decode_run(bytes: &[u8]) -> Option<SubstitutionResult> {
    decode_module(&run_module(bytes)?)
}

/// Decodes a bundle payload if it still describes `vfs`: every depfile
/// row is checked against the file's current content hash, straight off
/// the payload and before anything is decoded, and a file that changed
/// or vanished makes the lookup a miss.
pub(crate) fn lookup_run(bytes: &[u8], vfs: &Vfs) -> Option<SubstitutionResult> {
    let m = run_module(bytes)?;
    for row in m.part(PART_DEPS)?.iter() {
        let dep = m.get(row.str_at(0).ok()?).ok()?;
        if vfs.hash_of(dep) != Some(row.u64_at(4).ok()?) {
            return None;
        }
    }
    decode_module(&m)
}

/// The payload as a run-bundle module, validated once.
fn run_module(bytes: &[u8]) -> Option<ModuleReader<'_>> {
    let m = ModuleReader::parse(bytes).ok()?;
    (m.kind() == MODULE_KIND_RUN).then_some(m)
}

/// The artifacts of a validated run-bundle module; every string is read
/// in place and copied exactly once into its owned slot in the result.
fn decode_module(m: &ModuleReader<'_>) -> Option<SubstitutionResult> {
    let meta = m.part(PART_META)?;
    let mut r = meta.reader();
    if r.get_u8().ok()? != BUNDLE_VERSION {
        return None;
    }
    let mut counts = [0u64; 7];
    for slot in &mut counts {
        *slot = r.get_varint().ok()?;
    }
    let mut stats = [TuStats::default(); 2];
    for stat in &mut stats {
        stat.loc = r.get_varint().ok()? as usize;
        stat.headers = r.get_varint().ok()? as usize;
    }
    let sources_parse = r.get_u8().ok()? != 0;
    let wrappers_parse = r.get_u8().ok()? != 0;
    if !r.is_exhausted() {
        return None;
    }

    let texts = m.part(PART_TEXTS)?;
    let mut r = texts.reader();
    let lightweight_header = r.get_vstr().ok()?.to_string();
    let wrappers_file = r.get_vstr().ok()?.to_string();
    if !r.is_exhausted() {
        return None;
    }

    let mut rewritten_sources = BTreeMap::new();
    for row in m.part(PART_SOURCES)?.iter() {
        let path = m.get(row.str_at(0).ok()?).ok()?;
        let text = m.get(row.str_at(4).ok()?).ok()?;
        rewritten_sources.insert(path.to_string(), text.to_string());
    }

    let diags = m.part(PART_DIAGS)?;
    let mut diagnostics = Vec::with_capacity(diags.rows());
    for row in diags.iter() {
        let kind = diag_kind(row.u8_at(0).ok()?)?;
        let message = m.get(row.str_at(1).ok()?).ok()?.to_string();
        diagnostics.push(Diagnostic {
            kind,
            message,
            span: None,
        });
    }

    let report = Report {
        classes_forward_declared: counts[0] as usize,
        functions_forward_declared: counts[1] as usize,
        function_wrappers: counts[2] as usize,
        method_wrappers: counts[3] as usize,
        functors: counts[4] as usize,
        enums_replaced: counts[5] as usize,
        explicit_instantiations: counts[6] as usize,
        diagnostics: diagnostics.clone(),
        before: stats[0],
        after: stats[1],
        verification: Verification {
            sources_parse,
            wrappers_parse,
            violations: Vec::new(),
        },
    };
    Some(SubstitutionResult {
        lightweight_header,
        wrappers_file,
        rewritten_sources,
        plan: Plan {
            diagnostics,
            ..Plan::default()
        },
        report,
        timings: Timings::default(),
    })
}

/// What `yalla serve` persists per shard so a restarted daemon can
/// rebuild its warm pool: the project's identity, options, and the
/// *current* file tree (edits included — the shard key stays the opened
/// tree's hash while the contents evolve, matching the daemon's
/// reattach-by-open-hash semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProjectRecord {
    pub name: String,
    pub header: String,
    pub sources: Vec<String>,
    pub build_latency: Duration,
    pub files: Vec<(String, String)>,
}

impl ProjectRecord {
    /// Encodes as a module of kind [`MODULE_KIND_PROJECT`]: identity and
    /// source list in the meta partition (as `StrRef` varints), the file
    /// tree as fixed `(path, text)` rows over the string table.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut m = ModuleBuilder::new(MODULE_KIND_PROJECT);
        let name = m.intern(&self.name);
        let header = m.intern(&self.header);
        let sources: Vec<_> = self.sources.iter().map(|s| m.intern(s)).collect();
        let mut meta = PartitionBuilder::var(PART_META);
        {
            let w = meta.row();
            w.put_u8(BUNDLE_VERSION);
            w.put_varint(u64::from(name.0));
            w.put_varint(u64::from(header.0));
            w.put_varint(self.build_latency.as_micros() as u64);
            w.put_varint(sources.len() as u64);
            for s in sources {
                w.put_varint(u64::from(s.0));
            }
        }
        m.push(meta);
        let mut files = PartitionBuilder::fixed(PART_FILES, 8);
        for (path, text) in &self.files {
            let path = m.intern(path);
            let text = m.intern(text);
            let row = files.row();
            row.put_u32(path.0);
            row.put_u32(text.0);
        }
        m.push(files);
        m.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<ProjectRecord> {
        let m = ModuleReader::parse(bytes).ok()?;
        if m.kind() != MODULE_KIND_PROJECT {
            return None;
        }
        let str_of = |r: &mut yalla_store::codec::ByteReader<'_>| -> Option<String> {
            let idx = u32::try_from(r.get_varint().ok()?).ok()?;
            Some(m.get(yalla_store::module::StrRef(idx)).ok()?.to_string())
        };
        let meta = m.part(PART_META)?;
        let mut r = meta.reader();
        if r.get_u8().ok()? != BUNDLE_VERSION {
            return None;
        }
        let name = str_of(&mut r)?;
        let header = str_of(&mut r)?;
        let build_latency = Duration::from_micros(r.get_varint().ok()?);
        let n_sources = r.get_varint().ok()?;
        let mut sources = Vec::with_capacity(usize::try_from(n_sources).ok()?);
        for _ in 0..n_sources {
            sources.push(str_of(&mut r)?);
        }
        if !r.is_exhausted() {
            return None;
        }
        let files_part = m.part(PART_FILES)?;
        let mut files = Vec::with_capacity(files_part.rows());
        for row in files_part.iter() {
            let path = m.get(row.str_at(0).ok()?).ok()?.to_string();
            let text = m.get(row.str_at(4).ok()?).ok()?.to_string();
            files.push((path, text));
        }
        Some(ProjectRecord {
            name,
            header,
            sources,
            build_latency,
            files,
        })
    }
}

/// Renders a decoded run bundle as the line-oriented text form — the
/// debug/goldens path the binary format replaced on the wire (`yalla
/// dump --format=text`). Also the size baseline the store bench reports
/// binary shrinkage against.
pub fn render_text(result: &SubstitutionResult) -> String {
    use std::fmt::Write;
    let r = &result.report;
    let mut out = String::new();
    let section = |out: &mut String, title: &str, body: &str| {
        let _ = writeln!(out, "=== {title} ({} bytes)", body.len());
        out.push_str(body);
        if !body.ends_with('\n') {
            out.push('\n');
        }
    };
    let _ = writeln!(out, "yalla run bundle v{BUNDLE_VERSION} (text)");
    let _ = writeln!(
        out,
        "counts: classes_fwd={} functions_fwd={} fn_wrappers={} method_wrappers={} functors={} enums={} instantiations={}",
        r.classes_forward_declared,
        r.functions_forward_declared,
        r.function_wrappers,
        r.method_wrappers,
        r.functors,
        r.enums_replaced,
        r.explicit_instantiations,
    );
    let _ = writeln!(
        out,
        "stats: before={}loc/{}hdr after={}loc/{}hdr verify={}/{}",
        r.before.loc,
        r.before.headers,
        r.after.loc,
        r.after.headers,
        r.verification.sources_parse,
        r.verification.wrappers_parse,
    );
    for d in &r.diagnostics {
        let _ = writeln!(out, "diag[{}]: {}", diag_tag(d.kind), d.message);
    }
    section(&mut out, "lightweight header", &result.lightweight_header);
    section(&mut out, "wrappers", &result.wrappers_file);
    for (path, text) in &result.rewritten_sources {
        section(&mut out, &format!("source {path}"), text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> SubstitutionResult {
        let mut rewritten = BTreeMap::new();
        rewritten.insert("main.cpp".to_string(), "int main() {}\n".to_string());
        rewritten.insert("b.cpp".to_string(), "int b;\n".to_string());
        SubstitutionResult {
            lightweight_header: "class W;\n".into(),
            wrappers_file: "#include \"lib.hpp\"\n".into(),
            rewritten_sources: rewritten,
            plan: Plan::default(),
            report: Report {
                classes_forward_declared: 3,
                function_wrappers: 2,
                diagnostics: vec![Diagnostic {
                    kind: DiagnosticKind::Note,
                    message: "nothing used".into(),
                    span: None,
                }],
                before: TuStats {
                    loc: 1000,
                    headers: 12,
                },
                after: TuStats { loc: 9, headers: 1 },
                verification: Verification {
                    sources_parse: true,
                    wrappers_parse: true,
                    violations: Vec::new(),
                },
                ..Report::default()
            },
            timings: Timings::default(),
        }
    }

    fn sample_deps() -> Vec<(String, u64)> {
        vec![("main.cpp".into(), 1), ("lib.hpp".into(), 2)]
    }

    #[test]
    fn run_bundle_roundtrips() {
        let result = sample_result();
        let bytes = encode_run(&result, &sample_deps()).expect("persistable");
        let back = decode_run(&bytes).expect("decodes");
        assert_eq!(back.lightweight_header, result.lightweight_header);
        assert_eq!(back.wrappers_file, result.wrappers_file);
        assert_eq!(back.rewritten_sources, result.rewritten_sources);
        let (a, b) = (&back.report, &result.report);
        assert_eq!(a.classes_forward_declared, b.classes_forward_declared);
        assert_eq!(a.function_wrappers, b.function_wrappers);
        assert_eq!(a.before, b.before);
        assert_eq!(a.after, b.after);
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].kind, DiagnosticKind::Note);
        assert_eq!(
            format!("{:?}", a.verification),
            format!("{:?}", b.verification)
        );
    }

    #[test]
    fn runs_with_violations_are_not_persisted() {
        let mut result = sample_result();
        result.report.verification.violations.push(
            yalla_analysis::incomplete::IncompleteViolation {
                class: "K::W".into(),
                reason: "by-value use".into(),
                span: yalla_cpp::loc::Span {
                    file: yalla_cpp::loc::FileId(0),
                    start: 0,
                    end: 1,
                },
            },
        );
        assert!(encode_run(&result, &sample_deps()).is_none());
    }

    #[test]
    fn truncated_bundles_decode_to_none() {
        let bytes = encode_run(&sample_result(), &sample_deps()).expect("persistable");
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_run(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_run(&long).is_none(), "trailing garbage");
    }

    #[test]
    fn project_record_roundtrips() {
        let record = ProjectRecord {
            name: "alpha".into(),
            header: "lib.hpp".into(),
            sources: vec!["main.cpp".into(), "b.cpp".into()],
            build_latency: Duration::from_micros(1500),
            files: vec![
                ("lib.hpp".into(), "class W;".into()),
                ("main.cpp".into(), "int main() {}".into()),
            ],
        };
        let back = ProjectRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(back, record);
        assert!(ProjectRecord::decode(&record.encode()[..7]).is_none());
    }

    #[test]
    fn run_key_tracks_every_input() {
        let mut vfs = Vfs::new();
        vfs.add_file("main.cpp", "int a;\n");
        vfs.add_file("b.cpp", "int b;\n");
        vfs.add_file("lib.hpp", "int l;\n");
        let opts = Options {
            header: "lib.hpp".into(),
            sources: vec!["main.cpp".into(), "b.cpp".into()],
            ..Options::default()
        };
        let base = run_key_of(&opts, &vfs);
        assert_eq!(run_key_of(&opts, &vfs), base, "deterministic");
        let mut other_opts = opts.clone();
        other_opts.verify = false;
        assert_ne!(run_key_of(&other_opts, &vfs), base, "options");
        let mut edited = vfs.clone();
        edited.apply_edit("b.cpp", "int b2;\n").unwrap();
        assert_ne!(run_key_of(&opts, &edited), base, "source content");
        // A header edit keeps the key: the bundle's depfile covers it.
        let mut header = vfs.clone();
        header.apply_edit("lib.hpp", "int l2;\n").unwrap();
        assert_eq!(run_key_of(&opts, &header), base, "header content");
    }

    #[test]
    fn a_bundle_hits_only_while_its_depfile_matches_the_tree() {
        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", "namespace l { class C; }\n");
        vfs.add_file("other.hpp", "int unrelated;\n");
        vfs.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
        let deps = yalla_cpp::cache::depfile_of(
            &vfs,
            &["main.cpp", "lib.hpp"].map(|p| vfs.lookup(p).expect("file")),
        );
        let result = sample_result();
        let bytes = encode_run(&result, &deps).expect("persistable");
        let hit = lookup_run(&bytes, &vfs).expect("the tree it describes");
        assert_eq!(hit.rewritten_sources, result.rewritten_sources);

        // Editing a file in the closure defeats the bundle; editing an
        // unreached file does not; a closure file that vanished does.
        let mut edited = vfs.clone();
        edited
            .apply_edit("lib.hpp", "namespace l { class X; }\n")
            .unwrap();
        assert!(lookup_run(&bytes, &edited).is_none(), "closure edit");
        let mut unrelated = vfs.clone();
        unrelated.apply_edit("other.hpp", "int changed;\n").unwrap();
        assert!(lookup_run(&bytes, &unrelated).is_some(), "unreached edit");
        let mut gone = Vfs::new();
        gone.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
        assert!(lookup_run(&bytes, &gone).is_none(), "vanished header");
    }
}
