//! Post-substitution verification.
//!
//! The paper claims Header Substitution "replaces include statements in
//! source files while guaranteeing that the code still compiles and runs
//! correctly". This module provides that guarantee for the reproduction:
//! after the engine rewrites everything, it
//!
//! 1. re-parses the rewritten sources against the generated lightweight
//!    header (the user-TU compile of Figure 6 step ④),
//! 2. checks the incomplete-type rules over the re-parsed TU (what a real
//!    compiler's semantic analysis would reject),
//! 3. parses the generated wrappers file against the *original* expensive
//!    header (the wrapper compile of Figure 6 step ③).
//!
//! Checks 1 and 2 share one parse of the substituted tree
//! (`VerifyInputs::user_vfs`), which also yields the after-substitution
//! statistics; a session runs it through a
//! [`yalla_cpp::cache::ParseCache`] of its own, so it re-processes only
//! the main file's body while the lightweight header and the other
//! included files are unchanged, and not at all after a revert. Check 3
//! (`VerifyInputs::check_wrappers`) parses the wrappers TU, whose block
//! starts with the expensive header: in a session it reads that
//! include's fragment from the parse stage's pool
//! ([`yalla_cpp::FragmentPool`]) instead of preprocessing the header
//! again, and keeps no declaration of it
//! ([`yalla_cpp::frontend::check_with`]). A passing check leaves a
//! `WrappersMemo` (the wrappers TU's depfile), and a later check whose
//! inputs still match it (`VerifyInputs::reuses`) has the same verdict
//! without a parse. A session keeps the last
//! [`HISTORY`](yalla_cpp::cache::HISTORY) memos, so reverting an edit
//! that changed the emitted artifacts reuses the check from before it.

use std::collections::{BTreeMap, HashSet};

use yalla_analysis::incomplete::check_incomplete_rules;
use yalla_analysis::symbols::{SymbolKind, SymbolTable};
use yalla_cpp::cache::{depfile_of, depfile_valid};
use yalla_cpp::frontend::{check_with, Frontend, ParsedTu};
use yalla_cpp::hash;
use yalla_cpp::vfs::{self, Vfs};
use yalla_cpp::FragmentPool;

use crate::report::Verification;

/// What every check reads: the pre-substitution file tree, the generated
/// artifacts, and the predefined macros (`-D`) the run preprocesses with.
#[derive(Debug)]
pub(crate) struct VerifyInputs<'a> {
    /// The pre-substitution file system.
    pub original_vfs: &'a Vfs,
    /// File name of the generated lightweight header.
    pub lightweight_name: &'a str,
    /// The generated lightweight header.
    pub lightweight: &'a str,
    /// File name of the generated wrappers file.
    pub wrappers_name: &'a str,
    /// The generated wrappers file.
    pub wrappers: &'a str,
    /// Predefined macros applied to both parses.
    pub defines: &'a [(String, String)],
    /// The parse stage's include fragments, which the wrappers check
    /// parses through.
    pub fragments: &'a FragmentPool,
}

/// A passing wrappers check, reduced to what proves it still passes: the
/// wrappers TU's depfile and the defines it was preprocessed with. It
/// holds paths and hashes only, never an AST.
#[derive(Debug)]
pub(crate) struct WrappersMemo {
    wrappers_name: String,
    defines_hash: u64,
    deps: Vec<(String, u64)>,
}

impl VerifyInputs<'_> {
    /// The tree behind checks 1 and 2: the original tree with the
    /// `rewritten` `(path, text)` sources and the lightweight header
    /// overlaid. The substituted user TU is its main source's parse.
    pub(crate) fn user_vfs<'s>(
        &self,
        rewritten: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> Vfs {
        let mut user_vfs = self.original_vfs.clone();
        for (path, text) in rewritten {
            user_vfs.add_file(path, text);
        }
        user_vfs.add_file(self.lightweight_name, self.lightweight);
        user_vfs
    }

    /// Check 3: parses the wrappers file against the real header, through
    /// the include fragments of [`VerifyInputs::fragments`], keeping no
    /// declaration ([`check_with`]). Returns the memo of a
    /// passing check, `None` when the parse fails.
    pub(crate) fn check_wrappers(&self) -> Option<WrappersMemo> {
        let mut wrap_vfs = self.original_vfs.clone();
        wrap_vfs.add_file(self.lightweight_name, self.lightweight);
        wrap_vfs.add_file(self.wrappers_name, self.wrappers);
        let stats = check_with(&wrap_vfs, self.defines, self.wrappers_name, self.fragments).ok()?;
        Some(WrappersMemo {
            wrappers_name: self.wrappers_name.to_string(),
            defines_hash: hash::hash_defines(self.defines),
            deps: depfile_of(&wrap_vfs, &stats.files_entered),
        })
    }

    /// True when [`VerifyInputs::check_wrappers`] would parse exactly what
    /// `memo`'s check parsed, so its passing verdict carries over: the
    /// same wrappers file and defines, and every file that entered the
    /// wrappers TU still has its recorded hash. This is the
    /// [`yalla_cpp::cache::ParseCache`] depfile rule, with the generated
    /// artifacts hashed from the texts about to be checked.
    pub(crate) fn reuses(&self, memo: &WrappersMemo) -> bool {
        if memo.wrappers_name != self.wrappers_name
            || memo.defines_hash != hash::hash_defines(self.defines)
        {
            return false;
        }
        // Overlaid as in `check_wrappers`: the wrappers file wins a clash.
        let overlay = [
            (
                vfs::normalize(self.wrappers_name),
                hash::hash_str(self.wrappers),
            ),
            (
                vfs::normalize(self.lightweight_name),
                hash::hash_str(self.lightweight),
            ),
        ];
        depfile_valid(&memo.deps, |path| {
            overlay
                .iter()
                .find(|(name, _)| name == path)
                .map(|(_, h)| *h)
                .or_else(|| self.original_vfs.hash_of(path))
        })
    }
}

/// Checks 1 and 2 over the substituted user TU, which parsed, and its
/// symbol table. `wrappers_parse` is left for check 3 to set.
pub(crate) fn check_user_tu(tu: &ParsedTu, table: &SymbolTable) -> Verification {
    // Forward-declared-only classes are the incomplete set.
    let incomplete: HashSet<String> = table
        .iter()
        .filter_map(|s| match &s.kind {
            SymbolKind::Class(c) if !c.is_definition => Some(s.key.clone()),
            _ => None,
        })
        .collect();
    Verification {
        sources_parse: true,
        wrappers_parse: false,
        violations: check_incomplete_rules(&tu.ast, &incomplete, table),
    }
}

/// Runs the verification pass without predefined macros: checks 1 and 2
/// over one parse of the substituted TU, then check 3.
///
/// `original_vfs` is the pre-substitution file system; `rewritten` maps
/// source paths to their rewritten text; `lightweight` and `wrappers` are
/// the generated artifacts; `main_source` is the TU root.
pub fn verify(
    original_vfs: &Vfs,
    rewritten: &BTreeMap<String, String>,
    lightweight_name: &str,
    lightweight: &str,
    wrappers_name: &str,
    wrappers: &str,
    main_source: &str,
) -> Verification {
    let inputs = VerifyInputs {
        original_vfs,
        lightweight_name,
        lightweight,
        wrappers_name,
        wrappers,
        defines: &[],
        fragments: &FragmentPool::new(),
    };
    let user_vfs = inputs.user_vfs(
        rewritten
            .iter()
            .map(|(path, text)| (path.as_str(), text.as_str())),
    );
    let sources = match Frontend::new(user_vfs).parse_translation_unit(main_source) {
        Ok(tu) => check_user_tu(&tu, &SymbolTable::build(&tu.ast)),
        Err(_) => Verification::default(),
    };
    Verification {
        wrappers_parse: inputs.check_wrappers().is_some(),
        ..sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn verify_catches_bad_rewrites() {
        // A "rewrite" that leaves a by-value field of a forward-declared
        // class must fail the incomplete-type check.
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "#pragma once\nnamespace L { class Big { public: int id(); }; }\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include <lib.hpp>\nstruct S { L::Big field; };\n",
        );
        let mut rewritten = BTreeMap::new();
        // Broken output: include swapped but the field not pointerized.
        rewritten.insert(
            "main.cpp".to_string(),
            "#include \"lw.hpp\"\nstruct S { L::Big field; };\n".to_string(),
        );
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "namespace L { class Big; }\n",
            "w.cpp",
            "#include <lib.hpp>\n#include \"lw.hpp\"\n",
            "main.cpp",
        );
        assert!(v.sources_parse);
        assert!(v.wrappers_parse);
        assert!(!v.violations.is_empty(), "by-value field must be flagged");
        assert!(!v.passed());
    }

    #[test]
    fn verify_catches_syntax_errors_in_rewrites() {
        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", "#pragma once\nnamespace L { class C; }\n");
        vfs.add_file("main.cpp", "#include <lib.hpp>\nint f();\n");
        let mut rewritten = BTreeMap::new();
        rewritten.insert("main.cpp".to_string(), "int f( {{{".to_string());
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "namespace L { class C; }\n",
            "w.cpp",
            "#include <lib.hpp>\n",
            "main.cpp",
        );
        assert!(!v.sources_parse);
        assert!(!v.passed());
    }

    fn big_lib_vfs() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "#pragma once\n#ifdef WITH_BIG\nnamespace L { class Big { public: int id(); }; }\n\
             #else\n#error WITH_BIG required\n#endif\n",
        );
        vfs.add_file("other.hpp", "#pragma once\nint unrelated;\n");
        vfs
    }

    fn big_inputs<'a>(
        vfs: &'a Vfs,
        defines: &'a [(String, String)],
        pool: &'a FragmentPool,
    ) -> VerifyInputs<'a> {
        VerifyInputs {
            original_vfs: vfs,
            lightweight_name: "lw.hpp",
            lightweight: "#pragma once\nnamespace L { class Big; }\n",
            wrappers_name: "w.cpp",
            wrappers: "#include <lib.hpp>\n#include \"lw.hpp\"\n",
            defines,
            fragments: pool,
        }
    }

    #[test]
    fn wrappers_check_reuses_the_pool_and_leaves_nothing_in_it() {
        let mut vfs = big_lib_vfs();
        vfs.add_file("m.cpp", "#include <lib.hpp>\nint m;\n");
        let defines = [("WITH_BIG".to_string(), "1".to_string())];
        let pool = FragmentPool::new();
        let root = yalla_cpp::frontend::parse_with(&vfs, &defines, "m.cpp", &pool).unwrap();
        assert_eq!(pool.len(), 1);
        let memo = big_inputs(&vfs, &defines, &pool)
            .check_wrappers()
            .expect("passes");
        // The check builds no fragment for its own include.
        assert_eq!(pool.len(), 1, "the check added to the pool");
        // The memo records the header the fragment stood in for.
        assert!(memo.deps.iter().any(|(path, _)| path == "lib.hpp"));
        drop(root);
    }

    #[test]
    fn wrappers_check_honours_defines() {
        let vfs = big_lib_vfs();
        let defines = [("WITH_BIG".to_string(), "1".to_string())];
        let pool = FragmentPool::new();
        assert!(big_inputs(&vfs, &defines, &pool).check_wrappers().is_some());
        assert!(big_inputs(&vfs, &[], &pool).check_wrappers().is_none());
    }

    #[test]
    fn wrappers_memo_is_reused_only_under_its_depfile_and_defines() {
        let mut vfs = big_lib_vfs();
        let defines = [("WITH_BIG".to_string(), "1".to_string())];
        let pool = FragmentPool::new();
        let inputs = big_inputs(&vfs, &defines, &pool);
        let memo = inputs.check_wrappers().expect("passes");
        assert!(inputs.reuses(&memo));
        // Files outside the wrappers closure do not matter.
        vfs.add_file("other.hpp", "#pragma once\nint changed;\n");
        assert!(big_inputs(&vfs, &defines, &pool).reuses(&memo));
        // A different define set, emitted text, or file name misses.
        let other = [("WITH_BIG".to_string(), "2".to_string())];
        assert!(!big_inputs(&vfs, &other, &pool).reuses(&memo));
        let lw = VerifyInputs {
            lightweight: "#pragma once\nnamespace L { class Big; class Small; }\n",
            ..big_inputs(&vfs, &defines, &pool)
        };
        assert!(!lw.reuses(&memo));
        let wrappers = VerifyInputs {
            wrappers: "#include <lib.hpp>\n#include \"lw.hpp\"\nint pad;\n",
            ..big_inputs(&vfs, &defines, &pool)
        };
        assert!(!wrappers.reuses(&memo));
        let renamed = VerifyInputs {
            wrappers_name: "w2.cpp",
            ..big_inputs(&vfs, &defines, &pool)
        };
        assert!(!renamed.reuses(&memo));
        // So does an edit to the header inside the closure.
        vfs.add_file("lib.hpp", "#pragma once\n#define WITH_BIG_SEEN 1\n");
        assert!(!big_inputs(&vfs, &defines, &pool).reuses(&memo));
    }

    #[test]
    fn verify_accepts_a_correct_rewrite() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "#pragma once\nnamespace L { class Big { public: int id(); }; }\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include <lib.hpp>\nstruct S { L::Big field; };\n",
        );
        let mut rewritten = BTreeMap::new();
        rewritten.insert(
            "main.cpp".to_string(),
            "#include \"lw.hpp\"\nstruct S { L::Big* field; };\n".to_string(),
        );
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "#pragma once\nnamespace L { class Big; }\n",
            "w.cpp",
            "#include <lib.hpp>\n#include \"lw.hpp\"\n",
            "main.cpp",
        );
        assert!(v.passed(), "{v:?}");
    }
}
