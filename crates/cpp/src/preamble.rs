//! The tool-side preamble: the frontend's state at the end of a main
//! file's leading directive block, so that an edit below the block
//! re-processes only the rest of the file.
//!
//! A main source is a short body under a long `#include` block, and the
//! block expands to nearly every line the TU holds. clangd keeps the same
//! kind of snapshot (its *preamble*) and a compiler's precompiled header
//! is the same idea; here it is a plain in-memory value:
//!
//! * the preprocessor's state: the macro table with its expansion count,
//!   the `#pragma once` set, the statistics so far and the main file's
//!   counted lines;
//! * the top-level declarations the block's tokens parse to, and the
//!   parser's lambda counter after them (the parser keeps no other state
//!   from one top-level declaration to the next);
//! * the symbol table of those declarations, built on first use and
//!   shared as the base of every TU table extended from it
//!   ([`Preamble::table`]), and freed with the preamble unless such a
//!   table still holds it.
//!
//! **Where it ends.** The first scan of the main file stops before its
//! first active token outside a directive. The preamble's bytes run from
//! the start of the file through the newline that ends the block's last
//! directive: without that newline, `#define X 1` would be a byte prefix
//! of `#define X 12`. There is no preamble when a conditional is still
//! open there, when a comment or a line splice straddles that newline,
//! when the block includes the main file itself, or when no top-level
//! declaration ends exactly where the block's tokens do (a header that
//! leaves a namespace open for the main file to close); the parse then
//! runs over the whole token stream as before.
//!
//! **When it is reused** ([`Preamble::fits`]): the new main text starts
//! with the preamble's bytes, the defines are equal, and every other file
//! the block entered still has its recorded content hash and file id —
//! the depfile rule of [`crate::cache`]. A resumed parse then lexes,
//! preprocesses and parses only the rest of the main file, and its
//! result equals a parse from scratch: the same AST, the same
//! [`crate::pp::PpStats`], the same error.

use std::sync::{Arc, OnceLock};

use crate::ast::Decl;
use crate::cache::{depfile_of, depfile_valid};
use crate::loc::FileId;
use crate::parse::Checkpoint;
use crate::pp::PpSnapshot;
use crate::symbols::SymbolTable;
use crate::vfs::Vfs;

/// A snapshot of the frontend at the end of a main file's leading
/// directive block. Build one with
/// [`crate::Frontend::parse_resuming`]; it is immutable and shared
/// behind an `Arc` by every parse that resumes from it.
#[derive(Debug)]
pub struct Preamble {
    /// The main file.
    main: FileId,
    /// The main file's bytes through the newline that ends the block.
    text: String,
    /// The predefined macros the block was preprocessed with.
    defines: Vec<(String, String)>,
    /// `(path, content hash)` of every other file the block entered,
    /// in first-entry order (`pp.stats.files_entered[1..]`).
    deps: Vec<(String, u64)>,
    /// The preprocessor's state after the block.
    pub(crate) pp: PpSnapshot,
    /// The top-level declarations the block parsed to.
    pub(crate) decls: Vec<Decl>,
    /// The parser's state after them.
    pub(crate) checkpoint: Checkpoint,
    /// The symbol table of `decls`, built on first use.
    table: OnceLock<Arc<SymbolTable>>,
}

impl Preamble {
    pub(crate) fn new(
        vfs: &Vfs,
        defines: &[(String, String)],
        pp: PpSnapshot,
        decls: Vec<Decl>,
        checkpoint: Checkpoint,
    ) -> Preamble {
        let main = pp.stats.files_entered[0];
        Preamble {
            main,
            text: vfs.text(main)[..pp.offset].to_string(),
            defines: defines.to_vec(),
            deps: depfile_of(vfs, &pp.stats.files_entered[1..]),
            pp,
            decls,
            checkpoint,
            table: OnceLock::new(),
        }
    }

    /// True when a parse of `main_path` over `vfs` with `defines` may
    /// resume from this preamble: the main file starts with the
    /// preamble's bytes, the defines are equal, and every other file the
    /// preamble entered keeps its file id and content hash.
    pub fn fits(&self, vfs: &Vfs, defines: &[(String, String)], main_path: &str) -> bool {
        self.defines == defines
            && vfs.lookup(main_path) == Some(self.main)
            && vfs.text(self.main).starts_with(&self.text)
            && self.pp.stats.files_entered[1..]
                .iter()
                .zip(&self.deps)
                .all(|(&id, (path, _))| vfs.lookup(path) == Some(id))
            && depfile_valid(&self.deps, |path| vfs.hash_of(path))
    }

    /// The top-level declarations the block parsed to: the first ones of
    /// every TU parsed from this preamble.
    pub fn decls(&self) -> &[Decl] {
        &self.decls
    }

    /// The symbol table of [`Preamble::decls`], built by the first
    /// caller and shared with every later one, which counts
    /// `analysis.symtab_reused`. Extend it with the rest of a TU's
    /// declarations ([`SymbolTable::extend`]) for that TU's table.
    pub fn table(&self) -> Arc<SymbolTable> {
        let mut built = false;
        let table = self.table.get_or_init(|| {
            built = true;
            Arc::new(SymbolTable::from_decls(&self.decls))
        });
        if !built {
            yalla_obs::count(yalla_obs::metrics::names::SYMTAB_REUSED, 1);
        }
        Arc::clone(table)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::frontend::Frontend;

    fn preamble_of(main: &str) -> Option<Arc<Preamble>> {
        let mut vfs = Vfs::new();
        vfs.add_file("a.hpp", "#pragma once\nnamespace a { int x; }\n");
        vfs.add_file("m.cpp", main);
        let (_, preamble) = Frontend::new(vfs).parse_resuming("m.cpp", None).unwrap();
        preamble
    }

    #[test]
    fn the_block_ends_after_the_newline_of_its_last_directive() {
        let p = preamble_of("#include \"a.hpp\"\n#define N 2 // two\n\nint y = N;\n").unwrap();
        assert_eq!(p.text, "#include \"a.hpp\"\n#define N 2 // two\n");
        assert_eq!(p.decls.len(), 1);
        // A file of directives alone is all preamble.
        let p = preamble_of("#include \"a.hpp\"\n").unwrap();
        assert_eq!(p.text, "#include \"a.hpp\"\n");
    }

    #[test]
    fn no_preamble_where_the_block_cannot_end_cleanly() {
        for main in [
            // No directive at all.
            "int y;\n",
            // A conditional is open at the first declaration.
            "#include \"a.hpp\"\n#ifndef A\nint y;\n#endif\n",
            // A block comment straddles the newline.
            "#include \"a.hpp\" /* one\ntwo */ int y;\n",
            // A line splice joins the next line to the directive's.
            "#include \"a.hpp\"\n#define N 2 \\\n\nint y;\n",
            // No newline ends the last directive.
            "#include \"a.hpp\"",
        ] {
            assert!(preamble_of(main).is_none(), "{main:?}");
        }
    }

    #[test]
    fn a_preamble_fits_only_its_own_prefix_defines_and_files() {
        let mut vfs = Vfs::new();
        vfs.add_file("a.hpp", "int x;\n");
        vfs.add_file("m.cpp", "#include \"a.hpp\"\n#define N 1\nint y = N;\n");
        let fe = Frontend::new(vfs.clone());
        let (_, p) = fe.parse_resuming("m.cpp", None).unwrap();
        let p = p.unwrap();
        let edited = |path: &str, text: &str| {
            let mut v = vfs.clone();
            v.add_file(path, text);
            v
        };
        assert!(p.fits(&vfs, &[], "m.cpp"));
        assert!(p.fits(
            &edited("m.cpp", "#include \"a.hpp\"\n#define N 1\nint z = N;\n"),
            &[],
            "m.cpp"
        ));
        assert!(!p.fits(
            &edited("m.cpp", "#include \"a.hpp\"\n#define N 12\nint y = N;\n"),
            &[],
            "m.cpp"
        ));
        assert!(!p.fits(&edited("a.hpp", "int x2;\n"), &[], "m.cpp"));
        assert!(!p.fits(&vfs, &[("D".into(), "1".into())], "m.cpp"));
        assert!(!p.fits(&vfs, &[], "a.hpp"));
    }
}
