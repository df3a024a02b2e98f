//! The lexer proper.
//!
//! Lexes a complete file (or string fragment) into [`Token`]s. Comments are
//! stripped; line splices (`\` + newline) are honoured; preprocessor
//! directives are *not* interpreted here — the `#` simply becomes a
//! [`Punct::Hash`] token and the preprocessor works on the token stream
//! using the recorded line numbers.

use crate::error::{CppError, Result};
use crate::lex::token::{Punct, Token, TokenKind};
use crate::loc::{FileId, Span};

/// Streaming lexer over a single file's text.
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a [u8],
    file: FileId,
    pos: usize,
    line: u32,
}

/// Lexes all of `text` (registered as `file`) into tokens, ending with EOF.
///
/// # Errors
///
/// Returns a [`CppError::Lex`] for unterminated strings/comments or stray
/// characters.
pub fn lex_file(file: FileId, text: &str) -> Result<Vec<Token>> {
    Lexer::new(file, text).run()
}

/// Lexes a string that has no backing file (spans carry
/// [`FileId::UNKNOWN`]). Used for macro replacement lists and tests.
///
/// # Errors
///
/// Same failure modes as [`lex_file`].
pub fn lex_str(text: &str) -> Result<Vec<Token>> {
    Lexer::new(FileId::UNKNOWN, text).run()
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `text` belonging to `file`.
    pub fn new(file: FileId, text: &'a str) -> Self {
        Lexer {
            text: text.as_bytes(),
            file,
            pos: 0,
            line: 1,
        }
    }

    fn span(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    fn err(&self, start: usize, message: impl Into<String>) -> CppError {
        CppError::Lex {
            message: message.into(),
            span: self.span(start),
        }
    }

    fn peek(&self) -> u8 {
        self.text.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, n: usize) -> u8 {
        self.text.get(self.pos + n).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    /// Skips whitespace, comments, and line splices. Returns an error for
    /// unterminated block comments.
    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'\\'
                    if self.peek_at(1) == b'\n'
                        || (self.peek_at(1) == b'\r' && self.peek_at(2) == b'\n') =>
                {
                    // A line splice joins two physical lines into one
                    // logical line: advance past the newline *without*
                    // bumping the line counter, so the preprocessor sees
                    // spliced directives as a single line.
                    self.pos += if self.peek_at(1) == b'\r' { 3 } else { 2 };
                }
                b'/' if self.peek_at(1) == b'/' => {
                    while self.pos < self.text.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'/' if self.peek_at(1) == b'*' => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.text.len() {
                            return Err(self.err(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek_at(1) == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes the whole input, appending a final EOF token.
    pub fn run(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            if self.pos >= self.text.len() {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(self.file, self.pos as u32, self.pos as u32),
                    line: self.line,
                });
                return Ok(out);
            }
            out.push(self.next_token()?);
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        let start = self.pos;
        let line = self.line;
        let b = self.peek();
        let kind = if b.is_ascii_alphabetic() || b == b'_' {
            self.lex_ident_or_prefixed_literal(start)?
        } else if b.is_ascii_digit() || (b == b'.' && self.peek_at(1).is_ascii_digit()) {
            self.lex_number(start)?
        } else if b == b'"' {
            self.lex_string(start)?
        } else if b == b'\'' {
            self.lex_char(start)?
        } else {
            self.lex_punct(start)?
        };
        Ok(Token {
            kind,
            span: self.span(start),
            line,
        })
    }

    fn lex_ident_or_prefixed_literal(&mut self, start: usize) -> Result<TokenKind> {
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.text[start..self.pos])
            .map_err(|_| self.err(start, "invalid utf-8 in identifier"))?;
        // String-literal prefixes: u8"", u"", U"", L"", R"(...)".
        if self.peek() == b'"' {
            if text == "R" {
                return self.lex_raw_string(start);
            }
            if matches!(text, "u8" | "u" | "U" | "L") {
                return self.lex_string(start);
            }
        }
        Ok(TokenKind::Ident(text.to_string()))
    }

    fn lex_number(&mut self, start: usize) -> Result<TokenKind> {
        let mut is_float = false;
        if self.peek() == b'0' && matches!(self.peek_at(1), b'x' | b'X') {
            self.bump();
            self.bump();
            let hex_start = self.pos;
            while self.peek().is_ascii_hexdigit() || self.peek() == b'\'' {
                self.bump();
            }
            let digits: String = std::str::from_utf8(&self.text[hex_start..self.pos])
                .unwrap_or("")
                .chars()
                .filter(|c| *c != '\'')
                .collect();
            self.skip_int_suffix();
            let value = i64::from_str_radix(&digits, 16)
                .map_err(|_| self.err(start, "invalid hex literal"))?;
            return Ok(TokenKind::Int(value));
        }
        while self.peek().is_ascii_digit() || self.peek() == b'\'' {
            self.bump();
        }
        if self.peek() == b'.' && self.peek_at(1) != b'.' {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() || self.peek() == b'\'' {
                self.bump();
            }
        }
        if matches!(self.peek(), b'e' | b'E')
            && (self.peek_at(1).is_ascii_digit()
                || (matches!(self.peek_at(1), b'+' | b'-') && self.peek_at(2).is_ascii_digit()))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), b'+' | b'-') {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let end = self.pos;
        let digits: String = std::str::from_utf8(&self.text[start..end])
            .unwrap_or("")
            .chars()
            .filter(|c| *c != '\'')
            .collect();
        if is_float {
            if matches!(self.peek(), b'f' | b'F' | b'l' | b'L') {
                self.bump();
            }
            let value: f64 = digits
                .parse()
                .map_err(|_| self.err(start, "invalid float literal"))?;
            Ok(TokenKind::Float(value))
        } else {
            self.skip_int_suffix();
            let value: i64 = digits
                .parse()
                .map_err(|_| self.err(start, "integer literal out of range"))?;
            Ok(TokenKind::Int(value))
        }
    }

    fn skip_int_suffix(&mut self) {
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L' | b'z' | b'Z') {
            self.bump();
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<TokenKind> {
        debug_assert_eq!(self.peek(), b'"');
        self.bump();
        let mut value = String::new();
        loop {
            if self.pos >= self.text.len() {
                return Err(self.err(start, "unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => value.push(self.lex_escape(start)?),
                b'\n' => return Err(self.err(start, "newline in string literal")),
                b => value.push(b as char),
            }
        }
        Ok(TokenKind::Str(value))
    }

    fn lex_raw_string(&mut self, start: usize) -> Result<TokenKind> {
        debug_assert_eq!(self.peek(), b'"');
        self.bump();
        let mut delim = String::new();
        while self.peek() != b'(' {
            if self.pos >= self.text.len() || delim.len() > 16 {
                return Err(self.err(start, "invalid raw string delimiter"));
            }
            delim.push(self.bump() as char);
        }
        self.bump(); // (
        let close = format!("){delim}\"");
        let close = close.as_bytes();
        let mut value = String::new();
        loop {
            if self.pos + close.len() > self.text.len() {
                return Err(self.err(start, "unterminated raw string literal"));
            }
            if &self.text[self.pos..self.pos + close.len()] == close {
                for _ in 0..close.len() {
                    self.bump();
                }
                break;
            }
            value.push(self.bump() as char);
        }
        Ok(TokenKind::Str(value))
    }

    fn lex_char(&mut self, start: usize) -> Result<TokenKind> {
        debug_assert_eq!(self.peek(), b'\'');
        self.bump();
        let c = match self.bump() {
            0 => return Err(self.err(start, "unterminated character literal")),
            b'\\' => self.lex_escape(start)?,
            b'\'' => return Err(self.err(start, "empty character literal")),
            b => b as char,
        };
        if self.bump() != b'\'' {
            return Err(self.err(start, "unterminated character literal"));
        }
        Ok(TokenKind::Char(c))
    }

    fn lex_escape(&mut self, start: usize) -> Result<char> {
        Ok(match self.bump() {
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'0' => '\0',
            b'\\' => '\\',
            b'\'' => '\'',
            b'"' => '"',
            b'a' => '\x07',
            b'b' => '\x08',
            b'f' => '\x0c',
            b'v' => '\x0b',
            0 => return Err(self.err(start, "unterminated escape sequence")),
            b => b as char,
        })
    }

    fn lex_punct(&mut self, start: usize) -> Result<TokenKind> {
        use Punct::*;
        let b = self.bump();
        let two = self.peek();
        let three = self.peek_at(1);
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b'~' => Tilde,
            b':' if two == b':' => {
                self.bump();
                ColonColon
            }
            b':' => Colon,
            b'.' if two == b'.' && three == b'.' => {
                self.bump();
                self.bump();
                Ellipsis
            }
            b'.' if two == b'*' => {
                self.bump();
                DotStar
            }
            b'.' => Dot,
            b'+' if two == b'+' => {
                self.bump();
                PlusPlus
            }
            b'+' if two == b'=' => {
                self.bump();
                PlusEq
            }
            b'+' => Plus,
            b'-' if two == b'-' => {
                self.bump();
                MinusMinus
            }
            b'-' if two == b'=' => {
                self.bump();
                MinusEq
            }
            b'-' if two == b'>' && three == b'*' => {
                self.bump();
                self.bump();
                ArrowStar
            }
            b'-' if two == b'>' => {
                self.bump();
                Arrow
            }
            b'-' => Minus,
            b'*' if two == b'=' => {
                self.bump();
                StarEq
            }
            b'*' => Star,
            b'/' if two == b'=' => {
                self.bump();
                SlashEq
            }
            b'/' => Slash,
            b'%' if two == b'=' => {
                self.bump();
                PercentEq
            }
            b'%' => Percent,
            b'&' if two == b'&' => {
                self.bump();
                AmpAmp
            }
            b'&' if two == b'=' => {
                self.bump();
                AmpEq
            }
            b'&' => Amp,
            b'|' if two == b'|' => {
                self.bump();
                PipePipe
            }
            b'|' if two == b'=' => {
                self.bump();
                PipeEq
            }
            b'|' => Pipe,
            b'^' if two == b'=' => {
                self.bump();
                CaretEq
            }
            b'^' => Caret,
            b'!' if two == b'=' => {
                self.bump();
                BangEq
            }
            b'!' => Bang,
            b'=' if two == b'=' => {
                self.bump();
                EqEq
            }
            b'=' => Eq,
            b'<' if two == b'<' && three == b'=' => {
                self.bump();
                self.bump();
                ShlEq
            }
            b'<' if two == b'<' => {
                self.bump();
                Shl
            }
            b'<' if two == b'=' => {
                self.bump();
                LtEq
            }
            b'<' => Lt,
            // Note: `>>` is intentionally lexed as two `>` tokens; see the
            // `Punct` docs. `>=` is still one token.
            b'>' if two == b'=' => {
                self.bump();
                GtEq
            }
            b'>' => Gt,
            b'#' if two == b'#' => {
                self.bump();
                HashHash
            }
            b'#' => Hash,
            other => {
                return Err(self.err(start, format!("stray character {:?}", other as char)));
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let mut toks = lex_str(src).unwrap();
        assert_eq!(toks.pop().unwrap().kind, TokenKind::Eof);
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_keywords_are_idents() {
        assert_eq!(
            kinds("class Foo _bar x1"),
            vec![
                TokenKind::Ident("class".into()),
                TokenKind::Ident("Foo".into()),
                TokenKind::Ident("_bar".into()),
                TokenKind::Ident("x1".into()),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 0x1F 3.5 1e3 2.5e-2 100u 7L 1'000'000"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(31),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Int(100),
                TokenKind::Int(7),
                TokenKind::Int(1_000_000),
            ]
        );
    }

    #[test]
    fn float_suffix() {
        assert_eq!(kinds("1.5f"), vec![TokenKind::Float(1.5)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Float(0.5)]);
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            kinds(r#""hi\n" 'a' '\t' L"wide""#),
            vec![
                TokenKind::Str("hi\n".into()),
                TokenKind::Char('a'),
                TokenKind::Char('\t'),
                TokenKind::Str("wide".into()),
            ]
        );
    }

    #[test]
    fn raw_strings() {
        assert_eq!(
            kinds(r###"R"(a\b"c)" R"xx(y)zz)xx)xx""###),
            vec![
                TokenKind::Str(r#"a\b"c"#.into()),
                TokenKind::Str("y)zz)xx".into()),
            ]
        );
    }

    #[test]
    fn comments_are_stripped() {
        assert_eq!(
            kinds("a // line\nb /* block\nmulti */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn line_splice_inside_tokens_stream() {
        assert_eq!(
            kinds("foo \\\n bar"),
            vec![
                TokenKind::Ident("foo".into()),
                TokenKind::Ident("bar".into()),
            ]
        );
    }

    #[test]
    fn two_gt_never_merge() {
        let ks = kinds("Vec<Vec<int>> x; a >> b");
        let gts = ks.iter().filter(|k| k.is_punct(Punct::Gt)).count();
        assert_eq!(gts, 4, "all > tokens stay separate: {ks:?}");
    }

    #[test]
    fn compound_punctuators() {
        assert_eq!(
            kinds(":: -> .* ->* ... <<= << <= !="),
            vec![
                TokenKind::Punct(Punct::ColonColon),
                TokenKind::Punct(Punct::Arrow),
                TokenKind::Punct(Punct::DotStar),
                TokenKind::Punct(Punct::ArrowStar),
                TokenKind::Punct(Punct::Ellipsis),
                TokenKind::Punct(Punct::ShlEq),
                TokenKind::Punct(Punct::Shl),
                TokenKind::Punct(Punct::LtEq),
                TokenKind::Punct(Punct::BangEq),
            ]
        );
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex_str("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn spans_point_into_source() {
        let src = "int foo;";
        let toks = lex_file(FileId(7), src).unwrap();
        let span = toks[1].span;
        assert_eq!(span.file, FileId(7));
        assert_eq!(&src[span.start as usize..span.end as usize], "foo");
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex_str("\"abc").is_err());
        assert!(lex_str("/* never closed").is_err());
        assert!(lex_str("'x").is_err());
    }

    #[test]
    fn stray_character_is_error() {
        let err = lex_str("int $x;").unwrap_err();
        assert!(err.to_string().contains("stray character"));
    }

    #[test]
    fn hash_tokens_survive() {
        assert_eq!(
            kinds("# ##"),
            vec![
                TokenKind::Punct(Punct::Hash),
                TokenKind::Punct(Punct::HashHash)
            ]
        );
    }
}
