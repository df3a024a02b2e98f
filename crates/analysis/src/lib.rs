//! Semantic analysis for Header Substitution.
//!
//! This crate plays the role Clang's semantic layer and AST-matcher library
//! play in the original YALLA tool: over the parsed translation unit's
//! symbol table ([`symbols`], which lives in the frontend so that an
//! include fragment can carry its own), it resolves type aliases, collects which
//! symbols from a *target header* are actually used by the user's *source
//! files* (with the usage's "nature" — by value, pointer, reference,
//! template argument, as §4.1 of the paper describes), and implements the
//! incomplete-type rules that decide when a forward declaration suffices
//! and when a function/method wrapper is required (§3.2).
//!
//! The same rules power the engine's *verification* pass: after Header
//! Substitution rewrites the sources, the checker proves the output still
//! compiles under C++'s incomplete-type restrictions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aliases;
pub mod incomplete;
pub mod scope;
pub mod usage;

pub use yalla_cpp::symbols;

pub use aliases::AliasResolver;
pub use incomplete::{check_incomplete_rules, wrapper_need, IncompleteViolation, WrapperNeed};
pub use symbols::{SymbolInfo, SymbolKind, SymbolTable};
pub use usage::{ClassUsage, EnumUsage, MethodUsage, UsageNature, UsageReport, UsedFunction};
