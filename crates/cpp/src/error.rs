//! Error types for the C++ frontend.

use std::fmt;

use crate::loc::Span;

/// Convenient result alias used throughout the frontend.
pub type Result<T> = std::result::Result<T, CppError>;

/// An error produced by any stage of the C++ frontend.
///
/// The frontend is deliberately strict: rather than silently producing a
/// partial AST it reports the first problem it encounters, carrying the
/// source [`Span`] where available so callers can render a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CppError {
    /// A file could not be found in the virtual file system.
    FileNotFound {
        /// Path as requested (after search-path resolution attempts).
        path: String,
    },
    /// An `#include` could not be resolved against the search paths.
    IncludeNotFound {
        /// The header name as written between quotes or angle brackets.
        name: String,
        /// Location of the `#include` directive.
        span: Span,
    },
    /// `#include` recursion exceeded the nesting limit (include cycle).
    IncludeCycle {
        /// The header that closed the cycle.
        name: String,
        /// Location of the offending `#include`.
        span: Span,
    },
    /// Macro expansions nested deeper than the preprocessor's limit.
    MacroNesting {
        /// The macro whose expansion crossed the limit.
        name: String,
        /// Location of the invocation that was being expanded.
        span: Span,
    },
    /// A malformed preprocessor directive.
    Directive {
        /// Human-readable description of the problem.
        message: String,
        /// Location of the directive.
        span: Span,
    },
    /// A lexical error (unterminated string, stray character, ...).
    Lex {
        /// Human-readable description of the problem.
        message: String,
        /// Location of the offending character(s).
        span: Span,
    },
    /// A syntax error found by the parser.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// Location of the unexpected token.
        span: Span,
    },
}

impl CppError {
    /// The source span associated with this error, if any.
    pub fn span(&self) -> Option<Span> {
        match self {
            CppError::FileNotFound { .. } => None,
            CppError::IncludeNotFound { span, .. }
            | CppError::IncludeCycle { span, .. }
            | CppError::MacroNesting { span, .. }
            | CppError::Directive { span, .. }
            | CppError::Lex { span, .. }
            | CppError::Parse { span, .. } => Some(*span),
        }
    }
}

impl fmt::Display for CppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CppError::FileNotFound { path } => write!(f, "file not found: {path}"),
            CppError::IncludeNotFound { name, .. } => {
                write!(f, "include not found: {name}")
            }
            CppError::IncludeCycle { name, .. } => {
                write!(f, "include cycle detected while including {name}")
            }
            CppError::MacroNesting { name, .. } => {
                write!(f, "macro expansion nested too deeply in {name}")
            }
            CppError::Directive { message, .. } => {
                write!(f, "invalid preprocessor directive: {message}")
            }
            CppError::Lex { message, .. } => write!(f, "lexical error: {message}"),
            CppError::Parse { message, .. } => write!(f, "syntax error: {message}"),
        }
    }
}

impl std::error::Error for CppError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::FileId;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = CppError::FileNotFound {
            path: "missing.hpp".into(),
        };
        assert_eq!(err.to_string(), "file not found: missing.hpp");
        assert!(err.span().is_none());
    }

    #[test]
    fn span_is_carried() {
        let span = Span::new(FileId(3), 10, 20);
        let err = CppError::Parse {
            message: "expected `;`".into(),
            span,
        };
        assert_eq!(err.span(), Some(span));
        assert!(err.to_string().contains("expected `;`"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CppError>();
    }
}
