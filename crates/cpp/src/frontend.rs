//! The frontend driver: preprocess + parse in one call.

use std::sync::Arc;

use yalla_obs::metrics::names;

use crate::ast::TranslationUnit;
use crate::error::Result;
use crate::parse::Parser;
use crate::pp::{PpStats, Preprocessor};
use crate::preamble::Preamble;
use crate::vfs::Vfs;

/// A parsed translation unit together with its preprocessing statistics.
#[derive(Debug)]
pub struct ParsedTu {
    /// The AST.
    pub ast: TranslationUnit,
    /// Preprocessing statistics (LOC, headers — the paper's Table 3 data).
    pub stats: PpStats,
}

/// Owns a [`Vfs`] and runs the full frontend pipeline on files in it.
///
/// # Example
///
/// ```
/// use yalla_cpp::vfs::Vfs;
/// use yalla_cpp::frontend::Frontend;
///
/// let mut vfs = Vfs::new();
/// vfs.add_file("add.hpp", "template<typename T> T g_add(T x, T y) { return x + y; }");
/// vfs.add_file("main.cpp", "#include \"add.hpp\"\nint main() { g_add<int>(1, 2); return 0; }");
/// let fe = Frontend::new(vfs);
/// let tu = fe.parse_translation_unit("main.cpp").unwrap();
/// assert_eq!(tu.stats.header_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Frontend {
    vfs: Vfs,
    defines: Vec<(String, String)>,
}

impl Frontend {
    /// Creates a frontend over a virtual file system.
    pub fn new(vfs: Vfs) -> Self {
        Frontend {
            vfs,
            defines: Vec::new(),
        }
    }

    /// Creates a frontend over `vfs` with `defines` predefined, as
    /// [`Frontend::define`] would add them one by one.
    pub fn with_defines(vfs: Vfs, defines: &[(String, String)]) -> Self {
        Frontend {
            vfs,
            defines: defines.to_vec(),
        }
    }

    /// Access to the underlying file system.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Adds a predefined macro (like `-DNAME=VALUE`) applied to every
    /// translation unit this frontend parses.
    pub fn define(&mut self, name: &str, value: &str) {
        self.defines.push((name.into(), value.into()));
    }

    /// Preprocesses and parses `main_path`.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and parsing failures.
    pub fn parse_translation_unit(&self, main_path: &str) -> Result<ParsedTu> {
        self.parse_resuming(main_path, None).map(|(tu, _)| tu)
    }

    /// Preprocesses and parses `main_path`, resuming from `preamble` when
    /// it fits: [`parse_resuming`] over this frontend's files and
    /// defines.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and parsing failures.
    pub fn parse_resuming(
        &self,
        main_path: &str,
        preamble: Option<&Arc<Preamble>>,
    ) -> Result<(ParsedTu, Option<Arc<Preamble>>)> {
        parse_resuming(&self.vfs, &self.defines, main_path, preamble)
    }
}

/// Preprocesses and parses `main_path` over `vfs` with `defines`
/// predefined, resuming from `preamble` when it [fits](Preamble::fits)
/// the current files and defines. A resumed parse lexes, preprocesses
/// and parses only the main file's text after the preamble and counts
/// `cpp.preamble_reused`; otherwise the whole TU is parsed and its
/// preamble captured on the way. Either way the result equals a parse
/// from scratch, and the preamble used or built (`None` when the main
/// file's leading block cannot end one) is returned beside it. The file
/// tree is borrowed, never copied.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures.
pub fn parse_resuming(
    vfs: &Vfs,
    defines: &[(String, String)],
    main_path: &str,
    preamble: Option<&Arc<Preamble>>,
) -> Result<(ParsedTu, Option<Arc<Preamble>>)> {
    let reuse = preamble.filter(|p| p.fits(vfs, defines, main_path));
    let (out, snapshot) = {
        let _span = yalla_obs::span("frontend", "preprocess");
        let mut pp = Preprocessor::new(vfs);
        for (k, v) in defines {
            pp.define(k, v);
        }
        pp.run_main(main_path, reuse.map(|p| &p.pp))?
    };
    let _span = yalla_obs::span("frontend", "parse");
    let (ast, preamble) = match reuse {
        Some(pre) => {
            let rest = Parser::resume(out.tokens, pre.checkpoint).parse_translation_unit()?;
            yalla_obs::count(names::AST_DECLS, rest.decls.len() as i64);
            yalla_obs::count(names::PREAMBLE_REUSED, 1);
            let mut decls = Vec::with_capacity(pre.decls.len() + rest.decls.len());
            decls.extend(pre.decls.iter().cloned());
            decls.extend(rest.decls);
            (TranslationUnit { decls }, Some(Arc::clone(pre)))
        }
        None => {
            let at = snapshot.as_ref().map_or(usize::MAX, |s| s.tokens);
            let (ast, checkpoint) = Parser::new(out.tokens).parse_through(at)?;
            yalla_obs::count(names::AST_DECLS, ast.decls.len() as i64);
            let preamble = snapshot.zip(checkpoint).map(|(pp, checkpoint)| {
                let decls = ast.decls[..checkpoint.decls].to_vec();
                Arc::new(Preamble::new(vfs, defines, pp, decls, checkpoint))
            });
            (ast, preamble)
        }
    };
    Ok((
        ParsedTu {
            ast,
            stats: out.stats,
        },
        preamble,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_figure_2() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "add.hpp",
            "template<typename T>\nT g_add(T x, T y) {\n  return x + y;\n}\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include \"add.hpp\"\n\nint main() {\n  g_add<int>(1, 2);\n  return 0;\n}\n",
        );
        let fe = Frontend::new(vfs);
        let tu = fe.parse_translation_unit("main.cpp").unwrap();
        assert_eq!(tu.ast.decls.len(), 2);
        assert_eq!(tu.stats.header_count(), 1);
        assert!(tu.stats.lines_compiled >= 8);
    }

    #[test]
    fn defines_apply() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "m.cpp",
            "#if MODE == 2\nint two;\n#else\nint other;\n#endif\n",
        );
        let mut fe = Frontend::new(vfs);
        fe.define("MODE", "2");
        let tu = fe.parse_translation_unit("m.cpp").unwrap();
        assert_eq!(
            tu.ast.decls[0].declared_name().map(crate::Sym::as_str),
            Some("two")
        );
    }

    #[test]
    fn missing_main_file_errors() {
        let fe = Frontend::new(Vfs::new());
        assert!(fe.parse_translation_unit("nope.cpp").is_err());
    }
}
