//! The preprocessing engine: directives, include resolution, token output.

use std::collections::HashSet;

use crate::error::{CppError, Result};
use crate::lex::{lex_file, Lexer, Punct, Token, TokenKind};
use crate::loc::{FileId, Span};
use crate::pp::cond::eval_condition;
use crate::pp::macros::{MacroDef, MacroTable};
use crate::pp::stats::PpStats;
use crate::vfs::Vfs;

/// Maximum `#include` nesting depth before we assume a cycle.
const MAX_INCLUDE_DEPTH: usize = 200;

/// The result of preprocessing one translation unit.
#[derive(Debug)]
pub struct PpOutput {
    /// The macro-expanded, include-spliced token stream (ends with EOF).
    pub tokens: Vec<Token>,
    /// Statistics about what entered the TU.
    pub stats: PpStats,
}

/// Preprocesses `main_path` against `vfs` with an empty initial macro table.
///
/// # Errors
///
/// Fails when the main file is missing, an include cannot be resolved, a
/// directive is malformed, or nesting exceeds the cycle limit.
pub fn preprocess(vfs: &Vfs, main_path: &str) -> Result<PpOutput> {
    Preprocessor::new(vfs).run(main_path)
}

/// A configurable preprocessor (predefine macros before running).
#[derive(Debug)]
pub struct Preprocessor<'v> {
    vfs: &'v Vfs,
    macros: MacroTable,
    pragma_once: HashSet<FileId>,
    stats: PpStats,
    out: Vec<Token>,
    depth: usize,
}

#[derive(Debug, Clone, Copy)]
struct CondFrame {
    /// Whether any branch of this `#if` chain has been taken.
    taken: bool,
    /// Whether the current branch is active.
    active: bool,
    /// Whether the enclosing context was active.
    parent_active: bool,
}

/// Where the scan of one file's tokens stands.
#[derive(Debug, Default)]
struct FileScan {
    /// Index of the next token to process.
    pos: usize,
    /// Line of the previous token (0 before the first).
    prev_line: u32,
    /// Open conditionals, innermost last.
    conds: Vec<CondFrame>,
    /// Active non-directive tokens not yet macro-expanded.
    pending: Vec<Token>,
    /// The file's active lines counted so far.
    counted: HashSet<u32>,
}

/// The preprocessor's state at the end of a main file's leading
/// directive block: everything the rest of the file is preprocessed
/// against. [`crate::preamble::Preamble`] wraps it with the parsed
/// prefix and the rule for when it may be reused.
#[derive(Debug)]
pub(crate) struct PpSnapshot {
    /// The macro table, with its expansion count.
    pub(crate) macros: MacroTable,
    /// Files that declared `#pragma once`.
    pub(crate) pragma_once: HashSet<FileId>,
    /// Statistics so far; the main file's own lines are in `main_lines`.
    pub(crate) stats: PpStats,
    /// The main file's active lines counted so far.
    pub(crate) main_lines: HashSet<u32>,
    /// Byte offset in the main file just past the newline that ends the
    /// block's last directive.
    pub(crate) offset: usize,
    /// The lexer's line counter at `offset`.
    pub(crate) line: u32,
    /// Tokens the block delivered (every one from an included file).
    pub(crate) tokens: usize,
    /// Line of the last of those tokens.
    pub(crate) last_line: Option<u32>,
}

impl<'v> Preprocessor<'v> {
    /// Creates a preprocessor over `vfs`.
    pub fn new(vfs: &'v Vfs) -> Self {
        Preprocessor {
            vfs,
            macros: MacroTable::new(),
            pragma_once: HashSet::new(),
            stats: PpStats::default(),
            out: Vec::new(),
            depth: 0,
        }
    }

    /// Predefines an object-like macro (like `-DNAME=VALUE`).
    pub fn define(&mut self, name: &str, value: &str) {
        self.macros.define(name, MacroDef::object(value));
    }

    /// Runs the preprocessor on `main_path` and returns the TU tokens and
    /// stats.
    ///
    /// # Errors
    ///
    /// See [`preprocess`].
    pub fn run(self, main_path: &str) -> Result<PpOutput> {
        self.run_main(main_path, None).map(|(out, _)| out)
    }

    /// Preprocesses `main_path`. Without `resume`, the whole TU is
    /// preprocessed and the state at the end of the main file's leading
    /// directive block is snapshotted on the way (when the block ends
    /// where a preamble can: see [`Preprocessor::snapshot`]). With it,
    /// that state is restored and only the rest of the main file is
    /// lexed and preprocessed: the output holds the rest's tokens and the
    /// whole TU's statistics. The `pp.*` counters count the work done.
    pub(crate) fn run_main(
        mut self,
        main_path: &str,
        resume: Option<&PpSnapshot>,
    ) -> Result<(PpOutput, Option<PpSnapshot>)> {
        let main = self
            .vfs
            .lookup(main_path)
            .ok_or_else(|| CppError::FileNotFound {
                path: main_path.into(),
            })?;
        let text = self.vfs.text(main);
        let _file_span = yalla_obs::span("pp", self.vfs.path(main));
        let mut snapshot = None;
        let mut scan = FileScan::default();
        let base = match resume {
            None => {
                let tokens = self.enter(main, true)?;
                self.scan(main, &tokens, &mut scan, true)?;
                snapshot = self.snapshot(main, &tokens, &scan);
                self.scan(main, &tokens, &mut scan, false)?;
                None
            }
            Some(snap) => {
                self.macros = snap.macros.clone();
                self.pragma_once = snap.pragma_once.clone();
                self.stats = snap.stats.clone();
                self.depth = 1;
                scan.counted = snap.main_lines.clone();
                let tokens = {
                    let _lex_span = yalla_obs::span("pp", "lex");
                    Lexer::resume(main, text, snap.offset, snap.line).run()?
                };
                self.scan(main, &tokens, &mut scan, false)?;
                Some(snap)
            }
        };
        self.leave(main, scan)?;
        self.stats.macro_expansions = self.macros.expansions;
        {
            use yalla_obs::metrics::names;
            // Work done: on a resumed run, the main file plus whatever
            // entered after its leading block.
            let (files, lines, edges, expansions) = match base {
                None => (0, 0, 0, 0),
                Some(b) => (
                    b.stats.files_entered.len() - 1,
                    b.stats.lines_compiled + b.main_lines.len(),
                    b.stats.include_edges.len(),
                    b.macros.expansions,
                ),
            };
            let s = &self.stats;
            yalla_obs::count(
                names::FILES_PREPROCESSED,
                (s.files_entered.len() - files) as i64,
            );
            yalla_obs::count(names::LINES_PREPROCESSED, (s.lines_compiled - lines) as i64);
            yalla_obs::count(
                names::INCLUDES_RESOLVED,
                (s.include_edges.len() - edges) as i64,
            );
            yalla_obs::count(
                names::MACRO_EXPANSIONS,
                (s.macro_expansions - expansions) as i64,
            );
        }
        let last_line = self
            .out
            .last()
            .map(|t| t.line)
            .or(base.and_then(|b| b.last_line))
            .unwrap_or(1);
        self.out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(main, 0, 0),
            line: last_line,
        });
        let out = PpOutput {
            tokens: self.out,
            stats: self.stats,
        };
        Ok((out, snapshot))
    }

    /// The state after the main file's leading directive block, which
    /// the first scan of `tokens` stopped behind. There is none when:
    ///
    /// * the block is empty, or a conditional is still open where it
    ///   ends;
    /// * no newline ends its last directive: the preamble's bytes run
    ///   through that newline, so that an edit to the directive's line
    ///   (`#define X 1` → `#define X 12`) leaves them no longer a prefix
    ///   of the new text;
    /// * lexing from that newline does not give the tokens the whole-file
    ///   lex gave (a block comment or a line splice straddles it);
    /// * the block includes the main file itself, whose later text it
    ///   would then depend on.
    fn snapshot(&self, main: FileId, tokens: &[Token], scan: &FileScan) -> Option<PpSnapshot> {
        if scan.pos == 0 || !scan.conds.is_empty() {
            return None;
        }
        let text = self.vfs.text(main);
        let last = &tokens[scan.pos - 1];
        let offset = last.span.end as usize + text[last.span.end as usize..].find('\n')? + 1;
        let line = last.line + 1;
        let rest = Lexer::resume(main, text, offset, line).run().ok()?;
        if rest[..] != tokens[scan.pos..]
            || self.stats.include_edges.iter().any(|&(_, to)| to == main)
        {
            return None;
        }
        Some(PpSnapshot {
            macros: self.macros.clone(),
            pragma_once: self.pragma_once.clone(),
            stats: self.stats.clone(),
            main_lines: scan.counted.clone(),
            offset,
            line,
            tokens: self.out.len(),
            last_line: self.out.last().map(|t| t.line),
        })
    }

    /// Enters `file`, within the include-depth limit, and lexes it.
    fn enter(&mut self, file: FileId, is_main: bool) -> Result<Vec<Token>> {
        if self.depth >= MAX_INCLUDE_DEPTH {
            return Err(CppError::IncludeCycle {
                name: self.vfs.path(file).to_string(),
                span: Span::new(file, 0, 0),
            });
        }
        self.depth += 1;
        self.stats.enter_file(file, is_main);
        let _lex_span = yalla_obs::span("pp", "lex");
        lex_file(file, self.vfs.text(file))
    }

    /// Finishes `file`'s scan: expands what is pending and counts its
    /// lines.
    fn leave(&mut self, file: FileId, mut scan: FileScan) -> Result<()> {
        self.flush(&mut scan.pending)?;
        self.stats.add_lines(file, scan.counted.len());
        self.depth -= 1;
        Ok(())
    }

    fn process_file(&mut self, file: FileId, is_main: bool) -> Result<()> {
        if self.pragma_once.contains(&file) {
            return Ok(());
        }
        // One span per file entry; recursion through `handle_include` nests
        // these, so the trace mirrors the include tree.
        let _file_span = yalla_obs::span("pp", self.vfs.path(file));
        let tokens = self.enter(file, is_main)?;
        let mut scan = FileScan::default();
        self.scan(file, &tokens, &mut scan, false)?;
        self.leave(file, scan)
    }

    /// Processes `tokens` of `file` from `scan.pos`: directives are
    /// handled, active tokens macro-expanded into the output. With
    /// `stop_at_code`, stops before the first active token that is not
    /// part of a directive (the end of a leading directive block).
    fn scan(
        &mut self,
        file: FileId,
        tokens: &[Token],
        scan: &mut FileScan,
        stop_at_code: bool,
    ) -> Result<()> {
        while scan.pos < tokens.len() {
            let tok = &tokens[scan.pos];
            if matches!(tok.kind, TokenKind::Eof) {
                break;
            }
            let at_line_start = tok.line != scan.prev_line;
            let active = scan.conds.iter().all(|c| c.active);

            if at_line_start && tok.kind.is_punct(Punct::Hash) {
                // Collect the directive's tokens (same logical line).
                let dir_line = tok.line;
                let mut j = scan.pos + 1;
                while j < tokens.len()
                    && tokens[j].line == dir_line
                    && !matches!(tokens[j].kind, TokenKind::Eof)
                {
                    j += 1;
                }
                let dir = &tokens[scan.pos + 1..j];
                self.flush(&mut scan.pending)?;
                if active {
                    scan.counted.insert(dir_line);
                }
                self.handle_directive(file, dir, tok.span, &mut scan.conds, active)?;
                scan.pos = j;
                scan.prev_line = dir_line;
                continue;
            }

            if active {
                if stop_at_code {
                    return Ok(());
                }
                scan.counted.insert(tok.line);
                scan.pending.push(tok.clone());
            }
            scan.prev_line = tok.line;
            scan.pos += 1;
        }
        Ok(())
    }

    fn flush(&mut self, pending: &mut Vec<Token>) -> Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        self.macros.expand(pending, &mut self.out)?;
        pending.clear();
        Ok(())
    }

    fn handle_directive(
        &mut self,
        file: FileId,
        dir: &[Token],
        hash_span: Span,
        conds: &mut Vec<CondFrame>,
        active: bool,
    ) -> Result<()> {
        let name = match dir.first().map(|t| &t.kind) {
            Some(TokenKind::Ident(n)) => n.as_str(),
            // A lone `#` is a null directive.
            None => return Ok(()),
            _ => {
                return Err(CppError::Directive {
                    message: "expected directive name after `#`".into(),
                    span: hash_span,
                })
            }
        };
        let rest = &dir[1..];
        match name {
            "include" => {
                if active {
                    self.handle_include(file, rest, hash_span)?;
                }
            }
            "define" => {
                if active {
                    self.handle_define(rest, hash_span)?;
                }
            }
            "undef" => {
                if active {
                    if let Some(TokenKind::Ident(n)) = rest.first().map(|t| &t.kind) {
                        self.macros.undef(n);
                    }
                }
            }
            "ifdef" | "ifndef" => {
                let defined = match rest.first().map(|t| &t.kind) {
                    Some(TokenKind::Ident(n)) => self.macros.is_defined(n),
                    _ => {
                        return Err(CppError::Directive {
                            message: format!("#{name} requires a macro name"),
                            span: hash_span,
                        })
                    }
                };
                let cond = if name == "ifdef" { defined } else { !defined };
                conds.push(CondFrame {
                    taken: active && cond,
                    active: active && cond,
                    parent_active: active,
                });
            }
            "if" => {
                let cond = if active {
                    eval_condition(rest, &mut self.macros, hash_span)?
                } else {
                    false
                };
                conds.push(CondFrame {
                    taken: active && cond,
                    active: active && cond,
                    parent_active: active,
                });
            }
            "elif" => {
                let frame = conds.last_mut().ok_or_else(|| CppError::Directive {
                    message: "#elif without #if".into(),
                    span: hash_span,
                })?;
                if frame.taken || !frame.parent_active {
                    frame.active = false;
                } else {
                    let parent = frame.parent_active;
                    // Evaluate in the parent context.
                    let cond = eval_condition(rest, &mut self.macros, hash_span)?;
                    let frame = conds.last_mut().expect("frame still present");
                    frame.active = parent && cond;
                    frame.taken |= frame.active;
                }
            }
            "else" => {
                let frame = conds.last_mut().ok_or_else(|| CppError::Directive {
                    message: "#else without #if".into(),
                    span: hash_span,
                })?;
                frame.active = frame.parent_active && !frame.taken;
                frame.taken = true;
            }
            "endif" => {
                conds.pop().ok_or_else(|| CppError::Directive {
                    message: "#endif without #if".into(),
                    span: hash_span,
                })?;
            }
            "pragma" => {
                if active && rest.first().is_some_and(|t| t.kind.is_ident("once")) {
                    self.pragma_once.insert(file);
                }
            }
            "error" => {
                if active {
                    let msg: Vec<String> = rest.iter().map(|t| t.kind.to_string()).collect();
                    return Err(CppError::Directive {
                        message: format!("#error: {}", msg.join(" ")),
                        span: hash_span,
                    });
                }
            }
            // Ignored directives.
            "warning" | "line" => {}
            other => {
                return Err(CppError::Directive {
                    message: format!("unknown directive #{other}"),
                    span: hash_span,
                })
            }
        }
        Ok(())
    }

    fn handle_include(&mut self, includer: FileId, rest: &[Token], span: Span) -> Result<()> {
        let (name, quoted) = match rest.first().map(|t| &t.kind) {
            Some(TokenKind::Str(s)) => (s.clone(), true),
            Some(TokenKind::Punct(Punct::Lt)) => {
                // Reconstruct the header name from the original text
                // between `<` and the final `>` of the directive.
                let lt = &rest[0];
                let gt = rest
                    .iter()
                    .rev()
                    .find(|t| t.kind.is_punct(Punct::Gt))
                    .ok_or_else(|| CppError::Directive {
                        message: "unterminated <...> include".into(),
                        span,
                    })?;
                let text = self.vfs.text(includer);
                let name = text
                    .get(lt.span.end as usize..gt.span.start as usize)
                    .unwrap_or("")
                    .trim()
                    .to_string();
                (name, false)
            }
            _ => {
                return Err(CppError::Directive {
                    message: "#include expects \"file\" or <file>".into(),
                    span,
                })
            }
        };
        let target = self
            .vfs
            .resolve_include(&name, Some(includer), quoted)
            .map_err(|_| CppError::IncludeNotFound {
                name: name.clone(),
                span,
            })?;
        self.stats.include_edges.push((includer, target));
        self.process_file(target, false)
    }

    fn handle_define(&mut self, rest: &[Token], span: Span) -> Result<()> {
        let (name, name_tok) = match rest.first() {
            Some(t) => match &t.kind {
                TokenKind::Ident(n) => (n.clone(), t),
                _ => {
                    return Err(CppError::Directive {
                        message: "#define requires a name".into(),
                        span,
                    })
                }
            },
            None => {
                return Err(CppError::Directive {
                    message: "#define requires a name".into(),
                    span,
                })
            }
        };
        // Function-like only when `(` directly abuts the macro name.
        let is_function_like = rest
            .get(1)
            .is_some_and(|t| t.kind.is_punct(Punct::LParen) && t.span.start == name_tok.span.end);
        if !is_function_like {
            self.macros.define(
                name,
                MacroDef {
                    params: None,
                    variadic: false,
                    body: rest[1..].to_vec(),
                },
            );
            return Ok(());
        }
        let mut params = Vec::new();
        let mut variadic = false;
        let mut i = 2;
        loop {
            match rest.get(i).map(|t| &t.kind) {
                Some(TokenKind::Punct(Punct::RParen)) => {
                    i += 1;
                    break;
                }
                Some(TokenKind::Ident(p)) => {
                    params.push(p.clone());
                    i += 1;
                    if rest.get(i).is_some_and(|t| t.kind.is_punct(Punct::Comma)) {
                        i += 1;
                    }
                }
                Some(TokenKind::Punct(Punct::Ellipsis)) => {
                    variadic = true;
                    i += 1;
                }
                _ => {
                    return Err(CppError::Directive {
                        message: "malformed macro parameter list".into(),
                        span,
                    })
                }
            }
        }
        self.macros.define(
            name,
            MacroDef {
                params: Some(params),
                variadic,
                body: rest[i..].to_vec(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::macros::MAX_MACRO_DEPTH;

    fn render(out: &PpOutput) -> String {
        out.tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Eof))
            .map(|t| t.kind.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn pp(files: &[(&str, &str)], main: &str) -> PpOutput {
        let mut vfs = Vfs::new();
        for (p, t) in files {
            vfs.add_file(p, *t);
        }
        preprocess(&vfs, main).unwrap()
    }

    #[test]
    fn include_splices_tokens() {
        let out = pp(
            &[
                ("a.hpp", "int a;"),
                ("main.cpp", "#include \"a.hpp\"\nint b;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int a ; int b ;");
        assert_eq!(out.stats.header_count(), 1);
        assert_eq!(out.stats.lines_compiled, 3); // a.hpp:1 + main:2
    }

    #[test]
    fn angled_include_with_path() {
        let mut vfs = Vfs::new();
        vfs.add_file("sys/deep/x.hpp", "int x;");
        vfs.add_file("main.cpp", "#include <deep/x.hpp>\n");
        vfs.add_search_path("sys");
        let out = preprocess(&vfs, "main.cpp").unwrap();
        assert_eq!(render(&out), "int x ;");
    }

    #[test]
    fn missing_include_is_error() {
        let mut vfs = Vfs::new();
        vfs.add_file("main.cpp", "#include \"nope.hpp\"\n");
        let err = preprocess(&vfs, "main.cpp").unwrap_err();
        assert!(matches!(err, CppError::IncludeNotFound { .. }));
    }

    #[test]
    fn include_guard_prevents_double_entry() {
        let out = pp(
            &[
                ("g.hpp", "#ifndef G_HPP\n#define G_HPP\nint g;\n#endif\n"),
                ("main.cpp", "#include \"g.hpp\"\n#include \"g.hpp\"\nint m;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int g ; int m ;");
        // Both include edges recorded even though second entry emitted nothing.
        assert_eq!(out.stats.include_edges.len(), 2);
    }

    #[test]
    fn pragma_once_prevents_reentry() {
        let out = pp(
            &[
                ("p.hpp", "#pragma once\nint p;\n"),
                ("main.cpp", "#include \"p.hpp\"\n#include \"p.hpp\"\n"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int p ;");
    }

    #[test]
    fn transitive_includes_counted() {
        let out = pp(
            &[
                ("a.hpp", "#include \"b.hpp\"\nint a;"),
                ("b.hpp", "#include \"c.hpp\"\nint b;"),
                ("c.hpp", "int c;"),
                ("main.cpp", "#include \"a.hpp\"\nint m;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int c ; int b ; int a ; int m ;");
        assert_eq!(out.stats.header_count(), 3);
        assert_eq!(out.stats.files_entered.len(), 4);
    }

    #[test]
    fn include_cycle_is_detected() {
        let mut vfs = Vfs::new();
        vfs.add_file("a.hpp", "#include \"b.hpp\"\n");
        vfs.add_file("b.hpp", "#include \"a.hpp\"\n");
        vfs.add_file("main.cpp", "#include \"a.hpp\"\n");
        let err = preprocess(&vfs, "main.cpp").unwrap_err();
        assert!(matches!(err, CppError::IncludeCycle { .. }));
    }

    /// `#define M0 M1` … `#define M{depth} int`, then `M0 x;`: expanding
    /// `M0` nests `depth + 1` macro expansions.
    fn macro_chain(depth: usize) -> String {
        let mut src: String = (0..depth)
            .map(|i| format!("#define M{i} M{}\n", i + 1))
            .collect();
        src.push_str(&format!("#define M{depth} int\nM0 x;\n"));
        src
    }

    #[test]
    fn deep_macro_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread's default stack size, where an unbounded chain
        // used to abort the process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut vfs = Vfs::new();
                vfs.add_file("chain.cpp", macro_chain(100_000));
                let nested = "F(".repeat(2_000) + "0" + &")".repeat(2_000);
                vfs.add_file("args.cpp", format!("#define F(v) v\nint y = {nested};\n"));
                vfs.add_file("ok.cpp", macro_chain(MAX_MACRO_DEPTH - 1));
                for main in ["chain.cpp", "args.cpp"] {
                    let err = preprocess(&vfs, main).unwrap_err();
                    assert!(
                        matches!(err, CppError::MacroNesting { .. }),
                        "{main}: {err}"
                    );
                }
                let out = preprocess(&vfs, "ok.cpp").unwrap();
                assert_eq!(render(&out), "int x ;");
            })
            .expect("spawn")
            .join()
            .expect("deep nesting fails without overflowing the stack");
    }

    #[test]
    fn object_macro_definition_and_use() {
        let out = pp(&[("m.cpp", "#define N 4\nint x = N;")], "m.cpp");
        assert_eq!(render(&out), "int x = 4 ;");
    }

    #[test]
    fn function_macro_requires_adjacent_paren() {
        // `#define F (x)` is object-like with body `(x)`.
        let out = pp(&[("m.cpp", "#define F (x)\nF")], "m.cpp");
        assert_eq!(render(&out), "( x )");
        let out = pp(&[("m.cpp", "#define F(a) a+a\nF(2)")], "m.cpp");
        assert_eq!(render(&out), "2 + 2");
    }

    #[test]
    fn conditionals_select_branches() {
        let src = "#define A 1\n#if A\nint yes;\n#else\nint no;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int yes ;");
    }

    #[test]
    fn elif_chains() {
        let src = "#define V 2\n#if V == 1\nint one;\n#elif V == 2\nint two;\n#elif V == 3\nint three;\n#else\nint other;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int two ;");
    }

    #[test]
    fn nested_inactive_regions_stay_inactive() {
        let src = "#if 0\n#if 1\nint hidden;\n#endif\n#else\nint shown;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int shown ;");
    }

    #[test]
    fn inactive_includes_are_skipped() {
        let out = pp(
            &[("m.cpp", "#if 0\n#include \"missing.hpp\"\n#endif\nint x;")],
            "m.cpp",
        );
        assert_eq!(render(&out), "int x ;");
    }

    #[test]
    fn ifdef_and_ifndef() {
        let src = "#define X\n#ifdef X\nint a;\n#endif\n#ifndef X\nint b;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int a ;");
    }

    #[test]
    fn error_directive_fires_only_when_active() {
        let ok = pp(&[("m.cpp", "#if 0\n#error bad\n#endif\nint x;")], "m.cpp");
        assert_eq!(render(&ok), "int x ;");
        let mut vfs = Vfs::new();
        vfs.add_file("m.cpp", "#error boom\n");
        assert!(preprocess(&vfs, "m.cpp").is_err());
    }

    #[test]
    fn multiline_define_via_splice() {
        let src = "#define SUM(a, b) \\\n  ((a) + (b))\nint x = SUM(1, 2);";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int x = ( ( 1 ) + ( 2 ) ) ;");
    }

    #[test]
    fn lines_skipped_by_conditionals_are_not_counted() {
        let src = "#if 0\nint a;\nint b;\nint c;\n#endif\nint live;\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        // Counted: the `#if` line (seen while active) and the live line.
        // Everything inside the inactive region, including its `#endif`,
        // is skipped.
        assert_eq!(out.stats.lines_compiled, 2);
    }

    #[test]
    fn predefined_macros_via_define_api() {
        let mut vfs = Vfs::new();
        vfs.add_file("m.cpp", "#ifdef FAST\nint fast;\n#endif\n");
        let mut pp = Preprocessor::new(&vfs);
        pp.define("FAST", "1");
        let out = pp.run("m.cpp").unwrap();
        assert_eq!(render(&out), "int fast ;");
    }

    #[test]
    fn macro_expansion_count_recorded() {
        let out = pp(&[("m.cpp", "#define A 1\nint x = A + A;")], "m.cpp");
        assert_eq!(out.stats.macro_expansions, 2);
    }
}
