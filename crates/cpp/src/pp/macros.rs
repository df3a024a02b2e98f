//! Macro definitions and expansion.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::error::{CppError, Result};
use crate::hash::{self, Fnv64};
use crate::lex::{lex_str, Punct, Token, TokenKind};
use crate::loc::Span;

/// Deepest macro-within-macro expansion accepted. Expansion recurses once
/// per level (argument pre-expansion included), so, like the include and
/// parser nesting limits, the cap turns a pathological chain into an
/// error instead of a stack overflow.
pub(crate) const MAX_MACRO_DEPTH: usize = 256;

/// A single `#define`.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroDef {
    /// Parameter names; `None` for object-like macros.
    pub params: Option<Vec<String>>,
    /// True when the parameter list ends with `...` (`__VA_ARGS__`).
    pub variadic: bool,
    /// Replacement-list tokens (no trailing EOF).
    pub body: Vec<Token>,
}

impl MacroDef {
    /// Convenience constructor for an object-like macro whose body is
    /// lexed from `text`.
    ///
    /// # Panics
    ///
    /// Panics if `text` does not lex — intended for tests and builtins.
    pub fn object(text: &str) -> Self {
        let mut body = lex_str(text).expect("macro body must lex");
        body.pop(); // EOF
        MacroDef {
            params: None,
            variadic: false,
            body,
        }
    }
}

/// The macro environment during preprocessing. Definitions are shared:
/// an expansion holds its definition without copying the body.
#[derive(Debug, Clone, Default)]
pub struct MacroTable {
    /// Shared until changed: a clone of the table, which a snapshot of
    /// the preprocessor's state takes, copies no definition.
    defs: Arc<HashMap<String, Arc<MacroDef>>>,
    /// Wrapping sum of the scrambled hashes of every `(name, definition)`.
    digest: u64,
    /// Number of expansions performed (work proxy for the cost model).
    pub expansions: usize,
}

impl MacroTable {
    /// An empty table.
    pub fn new() -> Self {
        MacroTable::default()
    }

    /// Defines (or redefines) a macro.
    pub fn define(&mut self, name: impl Into<String>, def: MacroDef) {
        let name = name.into();
        let added = entry_hash(&name, &def);
        let removed = self.defs.get(&name).map_or(0, |old| entry_hash(&name, old));
        self.digest = self.digest.wrapping_add(added).wrapping_sub(removed);
        Arc::make_mut(&mut self.defs).insert(name, Arc::new(def));
    }

    /// Removes a macro; succeeds silently when absent (like `#undef`).
    pub fn undef(&mut self, name: &str) {
        if !self.defs.contains_key(name) {
            return;
        }
        if let Some(old) = Arc::make_mut(&mut self.defs).remove(name) {
            self.digest = self.digest.wrapping_sub(entry_hash(name, &old));
        }
    }

    /// A digest of the definitions (not of the expansion count): equal
    /// tables have equal digests, whatever order they were built in. It
    /// is kept up to date by [`MacroTable::define`] and
    /// [`MacroTable::undef`], so reading it costs nothing.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// True if `name` is currently defined.
    pub fn is_defined(&self, name: &str) -> bool {
        self.defs.contains_key(name)
    }

    /// Looks up a macro definition.
    pub fn get(&self, name: &str) -> Option<&MacroDef> {
        self.defs.get(name).map(Arc::as_ref)
    }

    /// Fully macro-expands `input`, appending the result to `out`.
    ///
    /// Expanded tokens are re-spanned to `use_span`-less positions: body
    /// tokens take the span and line of the *invocation*, so everything the
    /// parser sees points at user-visible source (the same convention Clang
    /// uses for its "expansion location").
    ///
    /// # Errors
    ///
    /// Returns [`CppError::MacroNesting`] when expansions nest deeper than
    /// `MAX_MACRO_DEPTH` levels.
    pub fn expand(&mut self, input: &[Token], out: &mut Vec<Token>) -> Result<()> {
        self.expand_inner(input, out, &mut HashSet::new(), 0)
    }

    /// Expands `input` inside `depth` enclosing macro expansions.
    fn expand_inner(
        &mut self,
        input: &[Token],
        out: &mut Vec<Token>,
        hide: &mut HashSet<String>,
        depth: usize,
    ) -> Result<()> {
        let mut i = 0;
        while i < input.len() {
            let tok = &input[i];
            let expansion = match &tok.kind {
                TokenKind::Ident(name) if !hide.contains(name) => {
                    self.defs.get(name).map(|def| (name, Arc::clone(def)))
                }
                _ => None,
            };
            let Some((name, def)) = expansion else {
                out.push(tok.clone());
                i += 1;
                continue;
            };
            if depth >= MAX_MACRO_DEPTH {
                return Err(CppError::MacroNesting {
                    name: name.clone(),
                    span: tok.span,
                });
            }
            match &def.params {
                None => {
                    self.expansions += 1;
                    let body = respan(&def.body, tok.span, tok.line);
                    hide.insert(name.clone());
                    self.expand_inner(&body, out, hide, depth + 1)?;
                    hide.remove(name);
                    i += 1;
                }
                Some(params) => {
                    // Function-like: require an immediate '('.
                    if i + 1 >= input.len() || !input[i + 1].kind.is_punct(Punct::LParen) {
                        out.push(tok.clone());
                        i += 1;
                        continue;
                    }
                    let (args, consumed) = match collect_args(&input[i + 1..]) {
                        Some(x) => x,
                        None => {
                            // Unbalanced parens: emit as-is.
                            out.push(tok.clone());
                            i += 1;
                            continue;
                        }
                    };
                    self.expansions += 1;
                    let substituted =
                        self.substitute(&def, params, &args, tok.span, tok.line, depth + 1)?;
                    hide.insert(name.clone());
                    self.expand_inner(&substituted, out, hide, depth + 1)?;
                    hide.remove(name);
                    i += 1 + consumed;
                }
            }
        }
        Ok(())
    }

    /// Substitutes arguments into a function-like macro body, handling
    /// `#param` (stringify) and `a ## b` (paste). Arguments are expanded
    /// at `depth`, the level of the macro being substituted.
    fn substitute(
        &mut self,
        def: &MacroDef,
        params: &[String],
        args: &[Vec<Token>],
        use_span: Span,
        use_line: u32,
        depth: usize,
    ) -> Result<Vec<Token>> {
        let variadic = def.variadic;
        let arg_for = |pname: &str| -> Option<Vec<Token>> {
            if let Some(idx) = params.iter().position(|p| p == pname) {
                return Some(args.get(idx).cloned().unwrap_or_default());
            }
            if variadic && pname == "__VA_ARGS__" {
                let rest: Vec<Token> = args
                    .iter()
                    .skip(params.len())
                    .enumerate()
                    .flat_map(|(k, a)| {
                        let mut v = Vec::new();
                        if k > 0 {
                            v.push(Token {
                                kind: TokenKind::Punct(Punct::Comma),
                                span: use_span,
                                line: use_line,
                            });
                        }
                        v.extend(a.iter().cloned());
                        v
                    })
                    .collect();
                return Some(rest);
            }
            None
        };

        let body = respan(&def.body, use_span, use_line);
        let mut out: Vec<Token> = Vec::with_capacity(body.len());
        let mut i = 0;
        while i < body.len() {
            // Stringify: # ident
            if body[i].kind.is_punct(Punct::Hash) && i + 1 < body.len() {
                if let TokenKind::Ident(p) = &body[i + 1].kind {
                    if let Some(arg) = arg_for(p) {
                        let text: Vec<String> = arg.iter().map(|t| t.kind.to_string()).collect();
                        out.push(Token {
                            kind: TokenKind::Str(text.join(" ")),
                            span: use_span,
                            line: use_line,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            // Paste: prev ## next — concatenate identifier/number spellings.
            if i + 2 < body.len() && body[i + 1].kind.is_punct(Punct::HashHash) {
                let left = expand_one(&body[i], &arg_for);
                let right = expand_one(&body[i + 2], &arg_for);
                let l = left.last().map(|t| t.kind.to_string()).unwrap_or_default();
                let r = right
                    .first()
                    .map(|t| t.kind.to_string())
                    .unwrap_or_default();
                let pasted = format!("{l}{r}");
                out.extend(left.iter().take(left.len().saturating_sub(1)).cloned());
                out.push(Token {
                    kind: TokenKind::Ident(pasted),
                    span: use_span,
                    line: use_line,
                });
                out.extend(right.iter().skip(1).cloned());
                i += 3;
                continue;
            }
            if let TokenKind::Ident(p) = &body[i].kind {
                if let Some(arg) = arg_for(p) {
                    // Arguments are fully expanded before substitution.
                    let mut expanded = Vec::new();
                    self.expand_inner(&arg, &mut expanded, &mut HashSet::new(), depth)?;
                    out.extend(respan(&expanded, use_span, use_line));
                    i += 1;
                    continue;
                }
            }
            out.push(body[i].clone());
            i += 1;
        }
        Ok(out)
    }
}

fn expand_one(tok: &Token, arg_for: &impl Fn(&str) -> Option<Vec<Token>>) -> Vec<Token> {
    if let TokenKind::Ident(p) = &tok.kind {
        if let Some(arg) = arg_for(p) {
            return arg;
        }
    }
    vec![tok.clone()]
}

/// The scrambled hash of one definition: what an expansion reads of it
/// (parameters, variadic flag and the kinds of its body tokens, whose
/// spans every expansion replaces).
fn entry_hash(name: &str, def: &MacroDef) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name);
    match &def.params {
        None => h.write(&[0]),
        Some(params) => {
            h.write(&[1, u8::from(def.variadic)]);
            for p in params {
                h.write_str(p);
            }
        }
    }
    h.write_u64(def.body.len() as u64);
    for tok in &def.body {
        match &tok.kind {
            TokenKind::Ident(s) => {
                h.write(&[1]);
                h.write_str(s);
            }
            TokenKind::Int(v) => {
                h.write(&[2]);
                h.write_u64(*v as u64);
            }
            TokenKind::Float(v) => {
                h.write(&[3]);
                h.write_u64(v.to_bits());
            }
            TokenKind::Str(s) => {
                h.write(&[4]);
                h.write_str(s);
            }
            TokenKind::Char(c) => {
                h.write(&[5]);
                h.write_u64(u64::from(*c));
            }
            TokenKind::Punct(p) => {
                h.write(&[6]);
                h.write_str(p.as_str());
            }
            TokenKind::Eof => h.write(&[7]),
        }
    }
    hash::mix(h.finish())
}

fn respan(tokens: &[Token], span: Span, line: u32) -> Vec<Token> {
    tokens
        .iter()
        .map(|t| Token {
            kind: t.kind.clone(),
            span,
            line,
        })
        .collect()
}

/// Collects the argument lists of a function-like macro invocation whose
/// tokens start at the opening paren (`input[0]`). Returns the arguments
/// (split on top-level commas) and the number of tokens consumed
/// (including both parens). Returns `None` when parens never balance.
fn collect_args(input: &[Token]) -> Option<(Vec<Vec<Token>>, usize)> {
    debug_assert!(input[0].kind.is_punct(Punct::LParen));
    let mut depth = 0usize;
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    for (i, tok) in input.iter().enumerate() {
        match &tok.kind {
            TokenKind::Punct(Punct::LParen) => {
                depth += 1;
                if depth > 1 {
                    args.last_mut().unwrap().push(tok.clone());
                }
            }
            TokenKind::Punct(Punct::RParen) => {
                depth -= 1;
                if depth == 0 {
                    if args.len() == 1 && args[0].is_empty() {
                        args.clear();
                    }
                    return Some((args, i + 1));
                }
                args.last_mut().unwrap().push(tok.clone());
            }
            TokenKind::Punct(Punct::Comma) if depth == 1 => args.push(Vec::new()),
            TokenKind::Eof => return None,
            _ => args.last_mut().unwrap().push(tok.clone()),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand_text(table: &mut MacroTable, text: &str) -> String {
        let mut toks = lex_str(text).unwrap();
        toks.pop();
        let mut out = Vec::new();
        table.expand(&toks, &mut out).unwrap();
        out.iter()
            .map(|t| t.kind.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn object_like_expansion() {
        let mut t = MacroTable::new();
        t.define("N", MacroDef::object("42"));
        assert_eq!(expand_text(&mut t, "int x = N;"), "int x = 42 ;");
        assert_eq!(t.expansions, 1);
    }

    #[test]
    fn nested_object_like() {
        let mut t = MacroTable::new();
        t.define("A", MacroDef::object("B + 1"));
        t.define("B", MacroDef::object("2"));
        assert_eq!(expand_text(&mut t, "A"), "2 + 1");
    }

    #[test]
    fn self_reference_does_not_loop() {
        let mut t = MacroTable::new();
        t.define("X", MacroDef::object("X + 1"));
        assert_eq!(expand_text(&mut t, "X"), "X + 1");
    }

    #[test]
    fn mutual_recursion_does_not_loop() {
        let mut t = MacroTable::new();
        t.define("A", MacroDef::object("B"));
        t.define("B", MacroDef::object("A"));
        // A -> B -> A (hidden) stops.
        assert_eq!(expand_text(&mut t, "A"), "A");
    }

    fn fnlike(params: &[&str], body: &str) -> MacroDef {
        let mut toks = lex_str(body).unwrap();
        toks.pop();
        MacroDef {
            params: Some(params.iter().map(|s| s.to_string()).collect()),
            variadic: false,
            body: toks,
        }
    }

    #[test]
    fn function_like_expansion() {
        let mut t = MacroTable::new();
        t.define("MAX", fnlike(&["a", "b"], "((a) > (b) ? (a) : (b))"));
        assert_eq!(
            expand_text(&mut t, "MAX(x, y + 1)"),
            "( ( x ) > ( y + 1 ) ? ( x ) : ( y + 1 ) )"
        );
    }

    #[test]
    fn function_like_without_parens_is_untouched() {
        let mut t = MacroTable::new();
        t.define("F", fnlike(&["x"], "x"));
        assert_eq!(expand_text(&mut t, "F + 1"), "F + 1");
    }

    #[test]
    fn nested_call_arguments() {
        let mut t = MacroTable::new();
        t.define("ID", fnlike(&["x"], "x"));
        assert_eq!(expand_text(&mut t, "ID(f(a, b))"), "f ( a , b )");
    }

    #[test]
    fn stringify() {
        let mut t = MacroTable::new();
        t.define("S", fnlike(&["x"], "#x"));
        assert_eq!(expand_text(&mut t, "S(hello world)"), "\"hello world\"");
    }

    #[test]
    fn token_paste() {
        let mut t = MacroTable::new();
        t.define("GLUE", fnlike(&["a", "b"], "a ## b"));
        assert_eq!(expand_text(&mut t, "GLUE(foo, bar)"), "foobar");
    }

    #[test]
    fn variadic_macro() {
        let mut t = MacroTable::new();
        let mut body = lex_str("f(__VA_ARGS__)").unwrap();
        body.pop();
        t.define(
            "CALL",
            MacroDef {
                params: Some(vec![]),
                variadic: true,
                body,
            },
        );
        assert_eq!(expand_text(&mut t, "CALL(1, 2, 3)"), "f ( 1 , 2 , 3 )");
    }

    #[test]
    fn undef_removes() {
        let mut t = MacroTable::new();
        t.define("X", MacroDef::object("1"));
        assert!(t.is_defined("X"));
        t.undef("X");
        assert!(!t.is_defined("X"));
        assert_eq!(expand_text(&mut t, "X"), "X");
    }

    #[test]
    fn empty_argument_list() {
        let mut t = MacroTable::new();
        t.define("Z", fnlike(&[], "0"));
        assert_eq!(expand_text(&mut t, "Z()"), "0");
    }
}
