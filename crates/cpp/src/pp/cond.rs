//! Conditional-compilation expression evaluation (`#if` and friends).

use crate::error::{CppError, Result};
use crate::lex::{Punct, Token, TokenKind};
use crate::loc::Span;
use crate::pp::macros::MacroTable;

/// Evaluates the controlling expression of an `#if`/`#elif` directive.
///
/// Semantics follow the preprocessor rules: `defined(X)` / `defined X`
/// are resolved first, remaining identifiers expand as macros, and any
/// identifier still left evaluates to `0`.
///
/// # Errors
///
/// Returns [`CppError::Directive`] for malformed expressions.
pub fn eval_condition(tokens: &[Token], macros: &mut MacroTable, span: Span) -> Result<bool> {
    // Pass 1: resolve `defined`.
    let mut resolved: Vec<Token> = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind.is_ident("defined") {
            let (name, consumed) =
                if i + 1 < tokens.len() && tokens[i + 1].kind.is_punct(Punct::LParen) {
                    match tokens.get(i + 2).map(|t| &t.kind) {
                        Some(TokenKind::Ident(n))
                            if tokens
                                .get(i + 3)
                                .is_some_and(|t| t.kind.is_punct(Punct::RParen)) =>
                        {
                            (n.clone(), 4)
                        }
                        _ => {
                            return Err(CppError::Directive {
                                message: "malformed defined()".into(),
                                span,
                            })
                        }
                    }
                } else {
                    match tokens.get(i + 1).map(|t| &t.kind) {
                        Some(TokenKind::Ident(n)) => (n.clone(), 2),
                        _ => {
                            return Err(CppError::Directive {
                                message: "defined requires a name".into(),
                                span,
                            })
                        }
                    }
                };
            resolved.push(Token {
                kind: TokenKind::Int(i64::from(macros.is_defined(&name))),
                span,
                line: tokens[i].line,
            });
            i += consumed;
        } else {
            resolved.push(tokens[i].clone());
            i += 1;
        }
    }
    // Pass 2: macro-expand everything else.
    let mut expanded = Vec::new();
    macros.expand(&resolved, &mut expanded)?;
    // Pass 3: evaluate.
    let mut p = CondParser {
        toks: &expanded,
        pos: 0,
        span,
    };
    let v = p.ternary()?;
    Ok(v != 0)
}

struct CondParser<'a> {
    toks: &'a [Token],
    pos: usize,
    span: Span,
}

impl CondParser<'_> {
    fn err(&self, message: &str) -> CppError {
        CppError::Directive {
            message: message.into(),
            span: self.span,
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_some_and(|k| k.is_punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ternary(&mut self) -> Result<i64> {
        let cond = self.or()?;
        if self.eat_punct(Punct::Question) {
            let t = self.ternary()?;
            if !self.eat_punct(Punct::Colon) {
                return Err(self.err("expected `:` in conditional"));
            }
            let e = self.ternary()?;
            return Ok(if cond != 0 { t } else { e });
        }
        Ok(cond)
    }

    fn or(&mut self) -> Result<i64> {
        let mut v = self.and()?;
        while self.eat_punct(Punct::PipePipe) {
            let r = self.and()?;
            v = i64::from(v != 0 || r != 0);
        }
        Ok(v)
    }

    fn and(&mut self) -> Result<i64> {
        let mut v = self.bitor()?;
        while self.eat_punct(Punct::AmpAmp) {
            let r = self.bitor()?;
            v = i64::from(v != 0 && r != 0);
        }
        Ok(v)
    }

    fn bitor(&mut self) -> Result<i64> {
        let mut v = self.bitxor()?;
        while self.eat_punct(Punct::Pipe) {
            v |= self.bitxor()?;
        }
        Ok(v)
    }

    fn bitxor(&mut self) -> Result<i64> {
        let mut v = self.bitand()?;
        while self.eat_punct(Punct::Caret) {
            v ^= self.bitand()?;
        }
        Ok(v)
    }

    fn bitand(&mut self) -> Result<i64> {
        let mut v = self.equality()?;
        while self.eat_punct(Punct::Amp) {
            v &= self.equality()?;
        }
        Ok(v)
    }

    fn equality(&mut self) -> Result<i64> {
        let mut v = self.relational()?;
        loop {
            if self.eat_punct(Punct::EqEq) {
                v = i64::from(v == self.relational()?);
            } else if self.eat_punct(Punct::BangEq) {
                v = i64::from(v != self.relational()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn relational(&mut self) -> Result<i64> {
        let mut v = self.shift()?;
        loop {
            if self.eat_punct(Punct::Lt) {
                v = i64::from(v < self.shift()?);
            } else if self.eat_punct(Punct::Gt) {
                v = i64::from(v > self.shift()?);
            } else if self.eat_punct(Punct::LtEq) {
                v = i64::from(v <= self.shift()?);
            } else if self.eat_punct(Punct::GtEq) {
                v = i64::from(v >= self.shift()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn shift(&mut self) -> Result<i64> {
        let mut v = self.additive()?;
        loop {
            if self.eat_punct(Punct::Shl) {
                v = v.wrapping_shl(self.additive()? as u32);
            } else if self.peek().is_some_and(|k| k.is_punct(Punct::Gt))
                && self
                    .toks
                    .get(self.pos + 1)
                    .is_some_and(|t| t.kind.is_punct(Punct::Gt))
            {
                self.pos += 2;
                v = v.wrapping_shr(self.additive()? as u32);
            } else {
                return Ok(v);
            }
        }
    }

    fn additive(&mut self) -> Result<i64> {
        let mut v = self.multiplicative()?;
        loop {
            if self.eat_punct(Punct::Plus) {
                v = v.wrapping_add(self.multiplicative()?);
            } else if self.eat_punct(Punct::Minus) {
                v = v.wrapping_sub(self.multiplicative()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<i64> {
        let mut v = self.unary()?;
        loop {
            if self.eat_punct(Punct::Star) {
                v = v.wrapping_mul(self.unary()?);
            } else if self.eat_punct(Punct::Slash) {
                let d = self.unary()?;
                if d == 0 {
                    return Err(self.err("division by zero in #if"));
                }
                v /= d;
            } else if self.eat_punct(Punct::Percent) {
                let d = self.unary()?;
                if d == 0 {
                    return Err(self.err("division by zero in #if"));
                }
                v %= d;
            } else {
                return Ok(v);
            }
        }
    }

    fn unary(&mut self) -> Result<i64> {
        if self.eat_punct(Punct::Bang) {
            return Ok(i64::from(self.unary()? == 0));
        }
        if self.eat_punct(Punct::Minus) {
            return Ok(self.unary()?.wrapping_neg());
        }
        if self.eat_punct(Punct::Plus) {
            return self.unary();
        }
        if self.eat_punct(Punct::Tilde) {
            return Ok(!self.unary()?);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<i64> {
        match self.peek().cloned() {
            Some(TokenKind::Int(v)) => {
                self.pos += 1;
                Ok(v)
            }
            Some(TokenKind::Char(c)) => {
                self.pos += 1;
                Ok(c as i64)
            }
            // Any identifier surviving macro expansion evaluates to 0,
            // including `true`/`false` handled specially.
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(match name.as_str() {
                    "true" => 1,
                    _ => 0,
                })
            }
            Some(TokenKind::Punct(Punct::LParen)) => {
                self.pos += 1;
                let v = self.ternary()?;
                if !self.eat_punct(Punct::RParen) {
                    return Err(self.err("expected `)`"));
                }
                Ok(v)
            }
            _ => Err(self.err("expected primary expression in #if")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex_str;
    use crate::pp::macros::MacroDef;

    fn eval(src: &str, macros: &mut MacroTable) -> bool {
        let mut toks = lex_str(src).unwrap();
        toks.pop();
        eval_condition(&toks, macros, Span::dummy()).unwrap()
    }

    #[test]
    fn arithmetic_and_logic() {
        let mut m = MacroTable::new();
        assert!(eval("1 + 1 == 2", &mut m));
        assert!(eval("(3 * 4) > 10 && !0", &mut m));
        assert!(!eval("0 || 0", &mut m));
        assert!(eval("1 ? 1 : 0", &mut m));
        assert!(eval("2 < 3 && 3 <= 3 && 4 >= 4 && 5 > 4", &mut m));
    }

    #[test]
    fn defined_operator() {
        let mut m = MacroTable::new();
        m.define("FOO", MacroDef::object("1"));
        assert!(eval("defined(FOO)", &mut m));
        assert!(eval("defined FOO", &mut m));
        assert!(!eval("defined(BAR)", &mut m));
        assert!(eval("!defined(BAR)", &mut m));
    }

    #[test]
    fn macros_expand_in_condition() {
        let mut m = MacroTable::new();
        m.define("VERSION", MacroDef::object("30100"));
        assert!(eval("VERSION >= 30000", &mut m));
        assert!(!eval("VERSION < 30000", &mut m));
    }

    #[test]
    fn unknown_identifiers_are_zero() {
        let mut m = MacroTable::new();
        assert!(!eval("UNKNOWN_THING", &mut m));
        assert!(eval("UNKNOWN_THING == 0", &mut m));
        assert!(eval("true", &mut m));
    }

    #[test]
    fn bitwise_ops() {
        let mut m = MacroTable::new();
        assert!(eval("(1 << 4) == 16", &mut m));
        assert!(eval("(0xFF & 0x0F) == 15", &mut m));
        assert!(eval("(1 | 2) == 3", &mut m));
        assert!(eval("(5 ^ 1) == 4", &mut m));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut m = MacroTable::new();
        let mut toks = lex_str("1 / 0").unwrap();
        toks.pop();
        assert!(eval_condition(&toks, &mut m, Span::dummy()).is_err());
    }
}
