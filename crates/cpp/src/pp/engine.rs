//! The preprocessing engine: directives, include resolution, token output.

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::{CppError, Result};
use crate::lex::{lex_file, Punct, Token, TokenKind};
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
    /// Shared, like the macro table's definitions, until changed.
    pragma_once: Arc<HashSet<FileId>>,
    stats: PpStats,
    out: Vec<Token>,
    depth: usize,
    /// Set while [`Preprocessor::next_block_include`] scans the main
    /// file: an `#include` then stops the scan instead of entering the
    /// file, which it leaves in `paused`.
    pausing: bool,
    paused: Option<FileId>,
    /// The `#pragma once` reads of the includes being processed apart,
    /// innermost last.
    once_logs: Vec<OnceLog>,
    /// Deepest include nesting reached (`depth` after an entry) since
    /// the innermost include processed apart began.
    reach: usize,
    /// Line of the last token delivered beside the output (by an include
    /// replayed or processed apart).
    beside_line: Option<u32>,
    /// Work the replayed includes stand in for: files first entered,
    /// lines, include edges (the includer's own included) and macro
    /// expansions.
    replayed: [usize; 4],
    /// Where the header unit's include goes when an include processed
    /// apart reaches it first.
    units: Option<&'v dyn UnitSite>,
    /// True while an include processed apart, other than the header
    /// unit, has included no unit; the unit is offered only while the
    /// output is also empty.
    offering: bool,
}

/// Where the header unit's `#include` goes when an include processed
/// apart ([`Preprocessor::process_apart`]) reaches it before delivering
/// any token ([`crate::preamble`]): the unit then becomes an include
/// fragment of its own, which the enclosing one starts with.
pub(crate) trait UnitSite: std::fmt::Debug {
    /// The header unit.
    fn file(&self) -> FileId;
    /// Processes the unit's include in `pp`'s state, replaying it
    /// ([`Preprocessor::replay`]) or processing it apart
    /// ([`Preprocessor::process_apart`]); `false` leaves it to be
    /// processed inline.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing failures.
    fn include(&self, pp: &mut Preprocessor<'_>) -> Result<bool>;
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

/// What one `#include` processed apart did: the preprocessor's state
/// after it and the `#pragma once` answers it depended on, its own share
/// of the statistics (what it would add to an empty [`PpStats`], with
/// the expansions it performed in `macro_expansions`), the line of the
/// last token it delivered and how deep it nested.
/// [`crate::preamble::Fragment`] wraps it with the tokens'
/// declarations; [`Preprocessor::replay`] replays it.
#[derive(Debug)]
pub(crate) struct IncludeEffect {
    /// The macro table after the include.
    pub(crate) macros: MacroTable,
    /// Its `#pragma once` reads and entries.
    pub(crate) once: OnceReads,
    /// The include's share of the statistics.
    pub(crate) stats: PpStats,
    /// Line of the last token it delivered, if any.
    pub(crate) last_line: Option<u32>,
    /// Deepest nesting it reached, counted from its includer: 1 when it
    /// entered only its own file, 0 when it entered none.
    pub(crate) reach: usize,
}

/// The `#pragma once` set as an include processed apart read and changed
/// it.
#[derive(Debug, Default)]
pub(crate) struct OnceReads {
    /// Each file it looked up in the set it came in with, and whether the
    /// file was there (skipped) or not (entered); a file it added itself
    /// is not a read.
    pub(crate) reads: Vec<(FileId, bool)>,
    /// The files it added.
    pub(crate) adds: Vec<FileId>,
}

/// [`OnceReads`] while the include is processed, with every file it has
/// read or added.
#[derive(Debug, Default)]
struct OnceLog {
    once: OnceReads,
    seen: HashSet<FileId>,
}

impl OnceLog {
    fn read(&mut self, file: FileId, present: bool) {
        if self.seen.insert(file) {
            self.once.reads.push((file, present));
        }
    }

    fn add(&mut self, file: FileId) {
        self.seen.insert(file);
        self.once.adds.push(file);
    }

    /// Takes in what an include processed or replayed inside this one
    /// read and added.
    fn absorb(&mut self, inner: &OnceReads) {
        for &(file, present) in &inner.reads {
            self.read(file, present);
        }
        inner.adds.iter().for_each(|&file| self.add(file));
    }
}

/// A main file preprocessed one leading-block `#include` at a time
/// ([`Preprocessor::open_main`]).
#[derive(Debug)]
pub(crate) struct MainFile {
    id: FileId,
    tokens: Vec<Token>,
    scan: FileScan,
    /// False once the scan has passed the leading directive block.
    in_block: bool,
    /// The main file's lines counted through the last replayed include.
    replayed_main_lines: usize,
}

impl<'v> Preprocessor<'v> {
    /// Creates a preprocessor over `vfs`.
    pub fn new(vfs: &'v Vfs) -> Self {
        Preprocessor {
            vfs,
            macros: MacroTable::new(),
            pragma_once: Arc::default(),
            stats: PpStats::default(),
            out: Vec::new(),
            depth: 0,
            pausing: false,
            paused: None,
            once_logs: Vec::new(),
            reach: 0,
            beside_line: None,
            replayed: [0; 4],
            units: None,
            offering: false,
        }
    }

    /// Predefines an object-like macro (like `-DNAME=VALUE`).
    pub fn define(&mut self, name: &str, value: &str) {
        self.macros.define(name, MacroDef::object(value));
    }

    /// Hands the header unit's include to `units` wherever an include
    /// processed apart reaches it before delivering any token.
    pub(crate) fn offer_units(&mut self, units: &'v dyn UnitSite) {
        self.units = Some(units);
    }

    /// Runs the preprocessor on `main_path` and returns the TU tokens and
    /// stats.
    ///
    /// # Errors
    ///
    /// See [`preprocess`].
    pub fn run(mut self, main_path: &str) -> Result<PpOutput> {
        let main = self.open_main(main_path)?;
        self.finish_main(main)
    }

    /// Enters and lexes the main file. Its leading directive block is
    /// then scanned with [`Preprocessor::next_block_include`] and the
    /// rest with [`Preprocessor::finish_main`].
    pub(crate) fn open_main(&mut self, main_path: &str) -> Result<MainFile> {
        let id = self
            .vfs
            .lookup(main_path)
            .ok_or_else(|| CppError::FileNotFound {
                path: main_path.into(),
            })?;
        let tokens = self.enter(id, true)?;
        Ok(MainFile {
            id,
            tokens,
            scan: FileScan::default(),
            in_block: true,
            replayed_main_lines: 0,
        })
    }

    /// Scans the main file's leading directive block (everything before
    /// its first active token outside a directive) up to its next active
    /// `#include`, records the include edge and returns the included file
    /// without entering it; the caller then processes it apart
    /// ([`Preprocessor::process_apart`]) or replays it
    /// ([`Preprocessor::apply`]). `None` once the block has ended.
    pub(crate) fn next_block_include(&mut self, main: &mut MainFile) -> Result<Option<FileId>> {
        if !main.in_block {
            return Ok(None);
        }
        self.pausing = true;
        let scanned = self.scan(main.id, &main.tokens, &mut main.scan, true);
        self.pausing = false;
        scanned?;
        let paused = self.paused.take();
        main.in_block = paused.is_some();
        Ok(paused)
    }

    /// A digest of the macro table (the predefined macros included): with
    /// the `#pragma once` answers an include read ([`Preprocessor::admits`]),
    /// the state the next include would be processed in.
    pub(crate) fn macro_digest(&self) -> u64 {
        self.macros.digest()
    }

    /// True when replaying `effect` here does what processing its include
    /// would: every file it looked up in the `#pragma once` set has the
    /// same answer, and its nesting stays within the include-depth limit.
    pub(crate) fn admits(&self, effect: &IncludeEffect) -> bool {
        self.depth + effect.reach <= MAX_INCLUDE_DEPTH
            && effect
                .once
                .reads
                .iter()
                .all(|(file, present)| self.pragma_once.contains(file) == *present)
    }

    /// Processes an include of `target` apart from the output: returns
    /// the tokens it delivers and what it did. Its statistics and
    /// `#pragma once` reads are added to those of the includes around it.
    pub(crate) fn process_apart(&mut self, target: FileId) -> Result<(Vec<Token>, IncludeEffect)> {
        let stats = std::mem::take(&mut self.stats);
        let out = std::mem::take(&mut self.out);
        let beside = self.beside_line.take();
        let (site, reach) = (self.depth, self.reach);
        self.reach = site;
        let offering = self.offering;
        self.offering = self.units.is_some_and(|u| u.file() != target);
        self.once_logs.push(OnceLog::default());
        let expansions = self.macros.expansions;
        let processed = self.process_file(target, false);
        let log = self.once_logs.pop().expect("pushed above");
        self.offering = offering;
        let mut share = std::mem::replace(&mut self.stats, stats);
        let tokens = std::mem::replace(&mut self.out, out);
        let inner_reach = std::mem::replace(&mut self.reach, reach);
        let last_line = tokens.last().map(|t| t.line).or(self.beside_line);
        self.beside_line = beside;
        processed?;
        share.macro_expansions = self.macros.expansions - expansions;
        let effect = IncludeEffect {
            macros: self.macros.clone(),
            once: log.once,
            stats: share,
            last_line,
            reach: inner_reach - site,
        };
        self.absorb(&effect);
        Ok((tokens, effect))
    }

    /// Replays an include that [`Preprocessor::next_block_include`]
    /// returned ([`Preprocessor::replay`]).
    pub(crate) fn apply(&mut self, main: &mut MainFile, effect: &IncludeEffect) {
        self.replay(effect);
        main.replayed_main_lines = main.scan.counted.len();
    }

    /// Replays an include from what a processing of it in the same state
    /// ([`Preprocessor::admits`]) did: the macro table after it is
    /// restored, its `#pragma once` entries added, and its statistics
    /// added, without entering a file.
    pub(crate) fn replay(&mut self, effect: &IncludeEffect) {
        let expansions = self.macros.expansions + effect.stats.macro_expansions;
        self.macros = effect.macros.clone();
        self.macros.expansions = expansions;
        if !effect.once.adds.is_empty() {
            Arc::make_mut(&mut self.pragma_once).extend(&effect.once.adds);
        }
        let files = self.absorb(effect);
        let work = [
            files,
            effect.stats.lines_compiled,
            effect.stats.include_edges.len() + 1,
            effect.stats.macro_expansions,
        ];
        for (total, n) in self.replayed.iter_mut().zip(work) {
            *total += n;
        }
    }

    /// True once an include has been replayed.
    pub(crate) fn replayed(&self) -> bool {
        // Each replay stands in for its own include edge at least.
        self.replayed[2] > 0
    }

    /// Adds what an include processed apart or replayed did to what the
    /// includes around it did; returns how many of its files entered
    /// first.
    fn absorb(&mut self, effect: &IncludeEffect) -> usize {
        if let Some(log) = self.once_logs.last_mut() {
            log.absorb(&effect.once);
        }
        self.reach = self.reach.max(self.depth + effect.reach);
        self.beside_line = effect.last_line.or(self.beside_line);
        self.stats.merge(&effect.stats)
    }

    /// Preprocesses the rest of the main file and returns the output:
    /// the tokens the main file delivered after the includes processed
    /// apart or replayed (all of its tokens when there were none), and
    /// the whole TU's statistics. The `pp.*` counters count the work
    /// done: everything but the replayed includes and the main file's
    /// lines through the last of them.
    pub(crate) fn finish_main(mut self, mut main: MainFile) -> Result<PpOutput> {
        let _file_span = yalla_obs::span("pp", self.vfs.path(main.id));
        self.scan(main.id, &main.tokens, &mut main.scan, false)?;
        self.leave(main.id, main.scan)?;
        self.stats.macro_expansions = self.macros.expansions;
        {
            use yalla_obs::metrics::names;
            let [files, lines, edges, expansions] = self.replayed;
            let lines = lines + main.replayed_main_lines;
            let s = &self.stats;
            let done = |total: usize, replayed: usize| total.saturating_sub(replayed) as i64;
            yalla_obs::count(
                names::FILES_PREPROCESSED,
                done(s.files_entered.len(), files),
            );
            yalla_obs::count(names::LINES_PREPROCESSED, done(s.lines_compiled, lines));
            yalla_obs::count(names::INCLUDES_RESOLVED, done(s.include_edges.len(), edges));
            yalla_obs::count(
                names::MACRO_EXPANSIONS,
                done(s.macro_expansions, expansions),
            );
        }
        let last_line = self
            .out
            .last()
            .map(|t| t.line)
            .or(self.beside_line)
            .unwrap_or(1);
        self.out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(main.id, 0, 0),
            line: last_line,
        });
        Ok(PpOutput {
            tokens: self.out,
            stats: self.stats,
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
        self.reach = self.reach.max(self.depth);
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
        let skipped = self.pragma_once.contains(&file);
        if let Some(log) = self.once_logs.last_mut() {
            log.read(file, skipped);
        }
        if skipped {
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
                if self.paused.is_some() {
                    return Ok(());
                }
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
                if active
                    && rest.first().is_some_and(|t| t.kind.is_ident("once"))
                    && !self.pragma_once.contains(&file)
                {
                    Arc::make_mut(&mut self.pragma_once).insert(file);
                    if let Some(log) = self.once_logs.last_mut() {
                        log.add(file);
                    }
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
        if self.pausing {
            self.paused = Some(target);
            return Ok(());
        }
        let unit = self
            .units
            .filter(|u| self.offering && self.out.is_empty() && u.file() == target);
        if let Some(units) = unit {
            // One unit per include processed apart: it holds the first
            // declarations, and any later token follows it.
            self.offering = false;
            if units.include(self)? {
                return Ok(());
            }
        }
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
