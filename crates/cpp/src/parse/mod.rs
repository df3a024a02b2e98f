//! Recursive-descent parser for the C++ subset.
//!
//! The parser consumes the preprocessor's token stream and produces a
//! [`TranslationUnit`]. It is deliberately scoped to the slice of C++ the
//! Header Substitution paper exercises (see crate docs) but is defensive:
//! unexpected input yields a [`crate::CppError::Parse`], never a panic.
//!
//! Ambiguities are resolved the way industrial parsers do:
//! * `>` tokens are never merged by the lexer; the parser re-merges two
//!   adjacent `>`s into `>>` only in expression context;
//! * `name < ...` is tried speculatively as a template-id (with full
//!   backtracking) and falls back to a relational comparison;
//! * statement-level `T x = ...;` vs expression is tried declaration-first
//!   with backtracking.

mod decls;
mod exprs;
mod stmts;
mod types;

use crate::ast::TranslationUnit;
use crate::error::{CppError, Result};
use crate::lex::{Punct, Token, TokenKind};
use crate::loc::Span;

/// Parses a preprocessed token stream into a translation unit.
///
/// # Errors
///
/// Returns the first syntax error encountered.
pub fn parse_tokens(tokens: Vec<Token>) -> Result<TranslationUnit> {
    let mut p = Parser::new(tokens);
    p.parse_translation_unit()
}

/// Parses a bare string (lex + parse, no preprocessing). Convenient for
/// tests and for re-parsing generated code.
///
/// # Errors
///
/// Returns lexing or parsing errors.
pub fn parse_str(src: &str) -> Result<TranslationUnit> {
    let tokens = crate::lex::lex_str(src)?;
    parse_tokens(tokens)
}

/// The parser state.
#[derive(Debug)]
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Monotone counter used to give each lambda a stable id.
    lambda_counter: u32,
    /// Current nesting depth (expressions, blocks, namespaces, template
    /// argument lists share one budget) — guards the recursive-descent
    /// stack against pathological inputs.
    depth: u32,
}

/// Maximum combined nesting depth before the parser reports an error
/// instead of risking a stack overflow. 64 is far beyond real C++ nesting
/// but keeps the recursive descent comfortably inside even a 2 MB test
/// thread stack in debug builds.
pub(crate) const MAX_NESTING_DEPTH: u32 = 64;

impl Parser {
    /// Creates a parser over `toks` (which must end with an EOF token).
    pub fn new(mut toks: Vec<Token>) -> Self {
        if !matches!(toks.last().map(|t| &t.kind), Some(TokenKind::Eof)) {
            toks.push(Token::eof());
        }
        Parser {
            toks,
            pos: 0,
            lambda_counter: 0,
            depth: 0,
        }
    }

    /// Creates a parser over `toks` that continues a translation unit
    /// whose earlier top-level declarations left the lambda counter at
    /// `lambda_counter`. The parser keeps no other state from one
    /// top-level declaration to the next, and never looks past the token
    /// that ends one, so parsing a TU's tokens in pieces that each end
    /// with a whole declaration gives the declarations of one parse.
    pub(crate) fn resume(toks: Vec<Token>, lambda_counter: u32) -> Self {
        let mut p = Parser::new(toks);
        p.lambda_counter = lambda_counter;
        p
    }

    /// The next lambda id: after a parse, what a parse of the following
    /// tokens resumes from ([`Parser::resume`]).
    pub(crate) fn lambda_counter(&self) -> u32 {
        self.lambda_counter
    }

    /// Parses until EOF.
    pub fn parse_translation_unit(&mut self) -> Result<TranslationUnit> {
        let mut decls = Vec::new();
        while !self.at_eof() {
            decls.push(self.parse_decl()?);
        }
        Ok(TranslationUnit { decls })
    }

    /// Parses until EOF like [`Parser::parse_translation_unit`], but drops
    /// each top-level declaration once it is parsed; returns how many it
    /// parsed. For a check that needs only the verdict.
    pub(crate) fn skim_translation_unit(&mut self) -> Result<usize> {
        let mut decls = 0;
        while !self.at_eof() {
            self.parse_decl()?;
            decls += 1;
        }
        Ok(decls)
    }

    // ----- cursor helpers -------------------------------------------------

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    pub(crate) fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    pub(crate) fn peek_at(&self, n: usize) -> &Token {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)]
    }

    pub(crate) fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn save(&self) -> usize {
        self.pos
    }

    pub(crate) fn restore(&mut self, save: usize) {
        self.pos = save;
    }

    pub(crate) fn span(&self) -> Span {
        self.peek().span
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> CppError {
        CppError::Parse {
            message: format!("{} (found `{}`)", message.into(), self.peek().kind),
            span: self.peek().span,
        }
    }

    // ----- token predicates ----------------------------------------------

    pub(crate) fn check_punct(&self, p: Punct) -> bool {
        self.peek().kind.is_punct(p)
    }

    pub(crate) fn eat_punct(&mut self, p: Punct) -> bool {
        if self.check_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_punct(&mut self, p: Punct) -> Result<Span> {
        if self.check_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{p}`")))
        }
    }

    pub(crate) fn check_kw(&self, kw: &str) -> bool {
        self.peek().kind.is_ident(kw)
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if self.check_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> Result<Span> {
        if self.check_kw(kw) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    /// Consumes an identifier token and returns its text and span.
    pub(crate) fn ident(&mut self) -> Result<(String, Span)> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                let span = self.bump().span;
                Ok((s, span))
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// Renders the tokens in `[from, to)` positions as text with minimal
    /// spacing — used for default arguments, enum values, and other
    /// payloads YALLA only needs verbatim.
    pub(crate) fn render_range(&self, from: usize, to: usize) -> String {
        let mut out = String::new();
        for (k, t) in self.toks[from..to.min(self.toks.len())].iter().enumerate() {
            if k > 0 && needs_space(&self.toks[from + k - 1].kind, &t.kind) {
                out.push(' ');
            }
            match &t.kind {
                TokenKind::Str(s) => {
                    out.push('"');
                    out.push_str(&s.replace('\\', "\\\\").replace('"', "\\\""));
                    out.push('"');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        out
    }

    /// Skips tokens until (but not including) one of `stops` at bracket
    /// depth 0. A closing bracket at depth 0 also stops (without being
    /// consumed) even when not listed.
    pub(crate) fn skip_until_top_level(&mut self, stops: &[Punct]) {
        let mut depth = 0usize;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Punct(p) => {
                    match p {
                        Punct::LParen | Punct::LBrace | Punct::LBracket => depth += 1,
                        Punct::RParen | Punct::RBrace | Punct::RBracket => {
                            if depth == 0 {
                                return;
                            }
                            depth -= 1;
                        }
                        _ => {
                            if depth == 0 && stops.contains(p) {
                                return;
                            }
                        }
                    }
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Enters one nesting level; errors beyond [`MAX_NESTING_DEPTH`].
    pub(crate) fn enter_depth(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            self.depth -= 1;
            return Err(self.err("input is nested too deeply"));
        }
        Ok(())
    }

    /// Leaves one nesting level.
    pub(crate) fn leave_depth(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    pub(crate) fn next_lambda_id(&mut self) -> u32 {
        let id = self.lambda_counter;
        self.lambda_counter += 1;
        id
    }
}

/// True when `s` may serve as a declared variable/parameter name (i.e. it
/// is not a reserved word of the subset).
pub(crate) fn types_allows_decl_name(s: &str) -> bool {
    !matches!(
        s,
        "if" | "else"
            | "for"
            | "while"
            | "do"
            | "return"
            | "break"
            | "continue"
            | "new"
            | "delete"
            | "this"
            | "true"
            | "false"
            | "nullptr"
            | "sizeof"
            | "operator"
            | "template"
            | "namespace"
            | "using"
            | "typedef"
            | "public"
            | "private"
            | "protected"
            | "const"
            | "class"
            | "struct"
            | "enum"
            | "static"
            | "inline"
            | "virtual"
            | "constexpr"
            | "noexcept"
            | "override"
    )
}

fn needs_space(prev: &TokenKind, next: &TokenKind) -> bool {
    // Words next to words need a space; everything else can abut except a
    // few readability cases.
    let word = |k: &TokenKind| {
        matches!(
            k,
            TokenKind::Ident(_) | TokenKind::Int(_) | TokenKind::Float(_)
        )
    };
    if word(prev) && word(next) {
        return true;
    }
    if prev.is_punct(Punct::Comma) {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_never_walks_past_eof() {
        let mut p = Parser::new(vec![Token::eof()]);
        assert!(p.at_eof());
        p.bump();
        p.bump();
        assert!(p.at_eof());
    }

    #[test]
    fn render_range_spacing() {
        let toks = crate::lex::lex_str("a + b, f(x)").unwrap();
        let p = Parser::new(toks);
        assert_eq!(p.render_range(0, 8), "a+b, f(x)");
    }

    #[test]
    fn skip_until_top_level_respects_nesting() {
        let toks = crate::lex::lex_str("f(a, b), c;").unwrap();
        let mut p = Parser::new(toks);
        p.skip_until_top_level(&[Punct::Comma]);
        // Should stop at the comma *after* the call, not inside it.
        assert!(p.check_punct(Punct::Comma));
        assert_eq!(p.save(), 6);
    }
}
