//! The evaluation corpus: synthetic miniature libraries and the 18 test
//! subjects of the paper's Tables 2 and 3.
//!
//! The paper evaluates YALLA on examples from PyKokkos/Kokkos, RapidJSON,
//! OpenCV and Boost.Asio. Those libraries cannot be vendored here, so this
//! crate builds *synthetic* stand-ins with the same structural statistics
//! the paper reports in Table 3 — how many headers a subject pulls in, how
//! many lines of code enter the translation unit, and how much of that a
//! substitution can remove — while exposing miniature APIs that exercise
//! every Header Substitution rule (classes, templates, nested-type
//! aliases, functions returning incomplete types by value, methods, call
//! operators, lambdas, enums).
//!
//! Each [`Subject`] carries a complete virtual file tree, knows which
//! header gets substituted, and (where the paper's Figure 8 needs a run
//! step) provides a kernel the [`yalla_sim::ir::Machine`] can execute
//! against the [`runtime`] natives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod miniasio;
pub mod minicv;
pub mod minijson;
pub mod minikokkos;
pub mod ministd;
pub mod runtime;
pub mod subjects;

use yalla_cpp::vfs::Vfs;

/// A subject (or per-suite generator) name that is not in the paper's
/// Table 2. Returned instead of panicking so callers driving subject
/// selection from external input — CLI arguments, bench configs, a cache
/// index — degrade to a reportable error, not an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSubject {
    /// The name that failed to resolve.
    pub name: String,
    /// The family the name was looked up in (e.g. `"Table 2"`,
    /// `"kokkos kernel"`).
    pub family: &'static str,
}

impl UnknownSubject {
    /// A lookup failure of `name` within `family`.
    pub fn new(family: &'static str, name: impl Into<String>) -> Self {
        UnknownSubject {
            name: name.into(),
            family,
        }
    }
}

impl std::fmt::Display for UnknownSubject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown {} subject `{}`", self.family, self.name)
    }
}

impl std::error::Error for UnknownSubject {}

/// Which library family a subject belongs to (Table 2 "Subject" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// A PyKokkos-generated kernel (`02`, `team_policy`, `nstream`).
    PyKokkos,
    /// An ExaMiniMD kernel (also PyKokkos-generated, larger app).
    ExaMiniMd,
    /// RapidJSON example.
    RapidJson,
    /// OpenCV example.
    OpenCv,
    /// Boost.Asio example.
    BoostAsio,
}

impl Suite {
    /// Display name matching the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Suite::PyKokkos => "PyKokkos",
            Suite::ExaMiniMd => "ExaMiniMD",
            Suite::RapidJson => "RapidJSON",
            Suite::OpenCv => "OpenCV",
            Suite::BoostAsio => "Boost.Asio",
        }
    }
}

/// Which native runtime a subject's kernel needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// The mini-Kokkos parallel runtime.
    Kokkos,
    /// The mini-RapidJSON document runtime.
    Json,
    /// The mini-OpenCV image runtime.
    Cv,
    /// The mini-Asio session runtime.
    Asio,
}

/// How to execute a subject's kernel on the abstract machine.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Entry function name (must exist in the subject's sources).
    pub entry: String,
    /// Integer arguments passed to the entry.
    pub args: Vec<i64>,
    /// Natives to install.
    pub runtime: RuntimeKind,
    /// Times the entry is invoked per "run" (models the small-input runs
    /// of §5.4).
    pub repeat: u32,
}

/// One evaluation subject (a row of Tables 2 and 3).
#[derive(Debug, Clone)]
pub struct Subject {
    /// File/subject name (Table 2 "File" column).
    pub name: &'static str,
    /// Library family.
    pub suite: Suite,
    /// The complete file tree (library + subject files).
    pub vfs: Vfs,
    /// Translation-unit root.
    pub main_source: String,
    /// All user files (rewritten by YALLA).
    pub sources: Vec<String>,
    /// The expensive header the subject substitutes.
    pub header: String,
    /// Headers covered by the PCH configuration (often broader than the
    /// substituted header — real projects precompile a prefix header).
    pub pch_headers: Vec<String>,
    /// Kernel to run for development-cycle measurements, when applicable.
    pub kernel: Option<KernelSpec>,
}

pub use subjects::{all_subjects, subject_by_name, try_subject_by_name};

/// `text` with the first integer literal inside a function body bumped
/// in its last digit (`9` wraps to `0`, so no span moves), or `None`
/// when there is none. A function body is a brace block opened right
/// after `)` or a trailing `const`; comments, string and character
/// literals and preprocessor lines are skipped, and a literal right after
/// `<` or `[` (a template argument or an array bound) does not count.
/// Changing such a literal leaves the set of used header symbols as it
/// was: it is the "body edit" of the incremental benches and tests.
pub fn bump_body_literal(text: &str) -> Option<String> {
    let b = text.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    // One entry per open brace: whether it opens (or sits in) a body.
    let mut braces: Vec<bool> = Vec::new();
    let (mut i, mut line_start, mut prev) = (0usize, true, 0u8);
    let mut prev_word = String::new();
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line_start = true;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if line_start && c == b'#' {
            while i < b.len() && !(b[i] == b'\n' && b[i - 1] != b'\\') {
                i += 1;
            }
            continue;
        }
        line_start = false;
        match c {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i += 2;
                continue;
            }
            b'"' | b'\'' => {
                i += 1;
                while i < b.len() && b[i] != c {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'{' => {
                let in_body = braces.last() == Some(&true);
                braces.push(in_body || prev == b')' || prev_word == "const");
                i += 1;
            }
            b'}' => {
                braces.pop();
                i += 1;
            }
            _ if word(c) => {
                let start = i;
                while i < b.len() && word(b[i]) {
                    i += 1;
                }
                let is_int = b[start..i].iter().all(u8::is_ascii_digit);
                if is_int && braces.last() == Some(&true) && prev != b'<' && prev != b'[' {
                    let at = i - 1;
                    let digit = (b[at] - b'0' + 1) % 10;
                    let mut out = text.to_string();
                    out.replace_range(at..=at, &digit.to_string());
                    return Some(out);
                }
                prev_word = text[start..i].to_string();
                prev = b[i - 1];
                continue;
            }
            _ => i += 1,
        }
        prev = c;
        prev_word.clear();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::bump_body_literal;

    #[test]
    fn bumps_only_literals_inside_function_bodies() {
        let src = "#define N 4\nint g = 7;\ntemplate <int K> struct A { int a[3]; };\n\
                   // 5\nint f(int x) const { A<2> y; return x + 19; }\n";
        let out = bump_body_literal(src).unwrap();
        assert_eq!(out, src.replace("x + 19", "x + 10"));
        assert_eq!(bump_body_literal("int f() { return g<3>(); }"), None);
        assert_eq!(bump_body_literal("struct S { int v = 1; };"), None);
        assert_eq!(
            bump_body_literal("void f() { [&](int i) { h(i, 8); }; }").as_deref(),
            Some("void f() { [&](int i) { h(i, 9); }; }")
        );
    }
}
