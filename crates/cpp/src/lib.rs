//! A self-contained C++ *subset* frontend used by the YALLA Header
//! Substitution reproduction.
//!
//! The crate provides everything the Header Substitution algorithm (CGO'25)
//! needs from a compiler frontend, implemented from scratch in Rust:
//!
//! * a virtual file system ([`vfs::Vfs`]) so whole header trees live in
//!   memory and experiments are hermetic,
//! * a byte-accurate source map ([`loc`]),
//! * a lexer ([`lex`]) producing tokens that remember the file they came
//!   from (even through `#include` splicing and macro expansion),
//! * a preprocessor ([`pp`]) with include resolution, include guards,
//!   `#pragma once`, object- and function-like macros and conditionals,
//!   which also records the statistics the paper reports in Table 3
//!   (lines of code entering a translation unit, headers pulled in),
//! * an AST ([`ast`]) and recursive-descent parser ([`parse`]) for the C++
//!   subset exercised by the paper: namespaces, classes with templates and
//!   nested types, enums, aliases, (member) functions, lambdas, and a full
//!   expression grammar,
//! * include fragments ([`preamble`]): what each `#include` of a main
//!   file's leading block preprocessed and parsed to, shared by every
//!   parse that reaches it in the same state, so a re-parse processes
//!   only the includes whose files changed and the rest of the main
//!   file, with the symbol table ([`symbols`]) of their declarations
//!   built once,
//! * a pretty printer ([`pretty`]) used when emitting generated headers.
//!
//! # Example
//!
//! ```
//! use yalla_cpp::vfs::Vfs;
//! use yalla_cpp::frontend::Frontend;
//!
//! let mut vfs = Vfs::new();
//! vfs.add_file("add.hpp", "template<typename T> T g_add(T x, T y) { return x + y; }");
//! vfs.add_file("main.cpp", "#include \"add.hpp\"\nint main() { g_add<int>(1, 2); return 0; }");
//!
//! let fe = Frontend::new(vfs);
//! let tu = fe.parse_translation_unit("main.cpp").unwrap();
//! assert!(tu.ast.decls.len() >= 2); // g_add + main
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod cache;
pub mod error;
pub mod frontend;
pub mod hash;
pub mod intern;
pub mod lex;
pub mod loc;
pub mod parse;
pub mod pp;
pub mod preamble;
pub mod pretty;
pub mod symbols;
pub mod vfs;

pub use cache::{CacheLookup, ParseCache};
pub use error::{CppError, Result};
pub use frontend::{Frontend, ParsedTu, PooledParse};
pub use intern::Sym;
pub use preamble::{Chain, Fragment, FragmentPool};

pub use loc::{FileId, Span};
