//! Replay: re-executes one project state through the public stage
//! functions, each call timed as a span, so a traced run can attribute
//! time to lex, preprocess, parse, symbol table, usage, plan, emit,
//! rewrite, verify and the after-stats parse. The replay's artifacts must
//! equal the session's.

use std::collections::{BTreeMap, HashSet};

use yalla_analysis::symbols::SymbolTable;
use yalla_analysis::usage::UsageReport;
use yalla_core::{emit, rewrite, verify, Options, Plan};
use yalla_cpp::loc::FileId;
use yalla_cpp::vfs::Vfs;

use crate::check::Artifacts;
use crate::trace::Tracer;

/// Work counts of one replay, for throughput figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub bytes_lexed: usize,
    pub lines_preprocessed: usize,
    pub decls_parsed: usize,
}

/// Files reachable from `root` over `edges` (including `root`).
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

/// Replays `opts` on `vfs` under a `replay` operation of `tracer`.
pub fn replay(
    tracer: &mut Tracer,
    vfs: &Vfs,
    opts: &Options,
) -> Result<(Artifacts, bool, Work), String> {
    let err = |e: yalla_cpp::CppError| e.to_string();
    let mut work = Work::default();
    tracer.begin_op();
    tracer.enter("replay");
    let header = vfs
        .resolve_include(&opts.header, None, false)
        .map_err(err)?;
    let source_files: HashSet<FileId> = opts
        .sources
        .iter()
        .map(|s| vfs.lookup(s).ok_or(format!("missing source {s}")))
        .collect::<Result<_, _>>()?;

    // Frontend, per TU root: lex every file of the closure, then
    // preprocess and parse the root.
    let mut tus = Vec::new();
    for root in opts.parse_roots() {
        let pp_out = tracer.span("pp", || {
            let mut pp = yalla_cpp::pp::Preprocessor::new(vfs);
            for (k, v) in &opts.defines {
                pp.define(k, v);
            }
            pp.run(&root)
        });
        let pp_out = pp_out.map_err(err)?;
        let mut files: Vec<FileId> = pp_out.stats.files_entered.clone();
        files.sort();
        files.dedup();
        tracer.enter("lex");
        for id in files {
            let text = vfs.text(id);
            work.bytes_lexed += text.len();
            yalla_cpp::lex::lex_file(id, text).map_err(err)?;
        }
        tracer.exit();
        work.lines_preprocessed += pp_out.stats.lines_compiled;
        let stats = pp_out.stats;
        let ast = tracer
            .span("parse", || yalla_cpp::parse::parse_tokens(pp_out.tokens))
            .map_err(err)?;
        work.decls_parsed += ast.decls.len();
        tus.push((root, ast, stats));
    }

    // Analysis: the primary root's table and usage, merged with every
    // other root that includes the header.
    let (_, primary_ast, primary_stats) = &tus[0];
    if !primary_stats.headers.contains(&header) {
        return Err(format!("header `{}` not included", opts.header));
    }
    let targets = reachable(header, &primary_stats.include_edges);
    let table = tracer.span("symtab", || SymbolTable::build(primary_ast));
    let mut usage = tracer.span("usage", || {
        UsageReport::collect(primary_ast, &table, &targets, &source_files)
    });
    for (_, ast, stats) in &tus[1..] {
        if !stats.headers.contains(&header) {
            continue;
        }
        let targets = reachable(header, &stats.include_edges);
        let tu_table = tracer.span("symtab", || SymbolTable::build(ast));
        tracer.span("usage", || {
            usage.merge_from(UsageReport::collect(
                ast,
                &tu_table,
                &targets,
                &source_files,
            ));
        });
    }

    let plan = tracer.span("plan", || Plan::build(&usage, &table));
    let (lightweight, wrappers) = tracer.span("emit", || {
        (
            emit::lightweight_header(&plan, &opts.header),
            emit::wrappers_file(&plan, &opts.header, &opts.lightweight_name),
        )
    });

    let rewritten: BTreeMap<String, String> = tracer.span("rewrite", || {
        opts.sources
            .iter()
            .map(|s| {
                let owner = tus.iter().position(|(r, _, _)| r == s).unwrap_or(0);
                let id = vfs.lookup(s).expect("sources checked");
                let decls: Vec<&yalla_cpp::ast::Decl> = tus[owner].1.decls.iter().collect();
                let mut tr = rewrite::Transformer::new(&plan, &table);
                let text = rewrite::rewrite_file(
                    id,
                    vfs.text(id),
                    &opts.header,
                    &opts.lightweight_name,
                    &decls,
                    &mut tr,
                );
                (s.clone(), text)
            })
            .collect()
    });

    let main = &opts.sources[0];
    let verification = tracer.span("verify.check", || {
        verify::verify(
            vfs,
            &rewritten,
            &opts.lightweight_name,
            &lightweight,
            &opts.wrappers_name,
            &wrappers,
            main,
        )
    });
    tracer.span("verify.afterstats", || {
        let mut after = vfs.clone();
        for (path, text) in &rewritten {
            after.add_file(path, text.clone());
        }
        after.add_file(&opts.lightweight_name, lightweight.clone());
        yalla_cpp::Frontend::new(after)
            .parse_translation_unit(main)
            .ok();
    });
    tracer.exit();

    let mut artifacts = Artifacts::new();
    artifacts.insert("lightweight".into(), lightweight);
    artifacts.insert("wrappers".into(), wrappers);
    for (path, text) in rewritten {
        artifacts.insert(format!("source:{path}"), text);
    }
    Ok((artifacts, verification.passed(), work))
}
