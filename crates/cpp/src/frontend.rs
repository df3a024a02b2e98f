//! The frontend driver: preprocess + parse in one call, from scratch or
//! through a pool of include fragments ([`crate::preamble`]).

use std::sync::Arc;

use yalla_obs::metrics::names;

use crate::ast::TranslationUnit;
use crate::error::Result;
use crate::parse::Parser;
use crate::pp::{PpStats, Preprocessor};
use crate::preamble::{fragment_key, Chain, Fragment, FragmentPool, Lookup};
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
        parse_scratch(&self.vfs, &self.defines, main_path)
    }
}

/// A parse through a [`FragmentPool`].
#[derive(Debug)]
pub struct PooledParse {
    /// The parsed TU.
    pub tu: ParsedTu,
    /// The fragments of the main file's leading block (`None` when it
    /// includes nothing, or the TU was parsed from scratch because a
    /// fragment's tokens do not parse on their own). The TU's top-level
    /// declarations start with theirs.
    pub chain: Option<Chain>,
}

/// Preprocesses and parses `main_path` over `vfs` with `defines`
/// predefined, from scratch. The file tree is borrowed, never copied.
fn parse_scratch(vfs: &Vfs, defines: &[(String, String)], main_path: &str) -> Result<ParsedTu> {
    let out = {
        let _span = yalla_obs::span("frontend", "preprocess");
        preprocessor(vfs, defines).run(main_path)?
    };
    let _span = yalla_obs::span("frontend", "parse");
    let ast = Parser::new(out.tokens).parse_translation_unit()?;
    yalla_obs::count(names::AST_DECLS, ast.decls.len() as i64);
    Ok(ParsedTu {
        ast,
        stats: out.stats,
    })
}

fn preprocessor<'v>(vfs: &'v Vfs, defines: &[(String, String)]) -> Preprocessor<'v> {
    let mut pp = Preprocessor::new(vfs);
    for (k, v) in defines {
        pp.define(k, v);
    }
    pp
}

/// Preprocesses and parses `main_path` over `vfs` with `defines`
/// predefined, one include of the main file's leading block at a time
/// ([`crate::preamble`]): an include whose fragment `pool` holds, valid
/// and in the same incoming state, is replayed from it and counts
/// `cpp.fragments_reused`; any other is processed and parsed on its own
/// and counts `cpp.fragments_built`, and its fragment joins the pool. The
/// rest of the main file is then preprocessed and parsed
/// after the fragments' declarations; a parse that reused a fragment
/// counts `cpp.preamble_reused`. When a fragment's tokens do not parse on
/// their own, the TU is parsed from scratch. Either way the result
/// equals a parse from scratch. The file tree is borrowed, never copied.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures.
pub fn parse_with(
    vfs: &Vfs,
    defines: &[(String, String)],
    main_path: &str,
    pool: &FragmentPool,
) -> Result<PooledParse> {
    match parse_chained(vfs, defines, main_path, pool, true)? {
        Some(parsed) => Ok(parsed),
        None => Ok(PooledParse {
            tu: parse_scratch(vfs, defines, main_path)?,
            chain: None,
        }),
    }
}

/// Preprocesses and parses `main_path` as [`parse_with`] does and
/// returns its statistics, keeping no declaration: a check that a TU
/// parses needs only the verdict. An include that `pool` holds is
/// replayed from its fragment; any other is parsed on its own and builds
/// no fragment, since nothing would hold it once the check returns. Each
/// top-level declaration is dropped once parsed, so a miss on a whole
/// closure holds its tokens but not its AST. The verdict and statistics
/// equal those of a parse from scratch.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures.
pub fn check_with(
    vfs: &Vfs,
    defines: &[(String, String)],
    main_path: &str,
    pool: &FragmentPool,
) -> Result<PpStats> {
    if let Some(parsed) = parse_chained(vfs, defines, main_path, pool, false)? {
        return Ok(parsed.tu.stats);
    }
    let out = {
        let _span = yalla_obs::span("frontend", "preprocess");
        preprocessor(vfs, defines).run(main_path)?
    };
    let _span = yalla_obs::span("frontend", "parse");
    let decls = Parser::new(out.tokens).skim_translation_unit()?;
    yalla_obs::count(names::AST_DECLS, decls as i64);
    Ok(out.stats)
}

/// [`parse_with`] (or, without `keep`, [`check_with`], whose result holds
/// no declarations and no chain), or `None` when an include's tokens do
/// not parse on their own.
fn parse_chained(
    vfs: &Vfs,
    defines: &[(String, String)],
    main_path: &str,
    pool: &FragmentPool,
    keep: bool,
) -> Result<Option<PooledParse>> {
    let mut pp = preprocessor(vfs, defines);
    let mut main = {
        let _span = yalla_obs::span("frontend", "preprocess");
        pp.open_main(main_path)?
    };
    let (mut fragments, mut decls) = (Vec::new(), Vec::new());
    let (mut lambda_counter, mut resumed) = (0, false);
    loop {
        let target = {
            let _span = yalla_obs::span("frontend", "preprocess");
            pp.next_block_include(&mut main)?
        };
        let Some(target) = target else {
            break;
        };
        let key = fragment_key(pp.state_digest(), lambda_counter, vfs.path(target));
        let fragment = match pool.lookup(key, vfs) {
            Lookup::Hit(fragment) => {
                pp.apply(&mut main, &fragment.pp);
                resumed = true;
                fragment
            }
            Lookup::Miss(ticket) => {
                let (tokens, effect) = {
                    let _span = yalla_obs::span("frontend", "preprocess");
                    pp.include_apart(&mut main, target)?
                };
                let _span = yalla_obs::span("frontend", "parse");
                let mut parser = Parser::resume(tokens, lambda_counter);
                if !keep {
                    // Dropping the ticket lets a waiting parse build it.
                    let Ok(decls) = parser.skim_translation_unit() else {
                        return Ok(None);
                    };
                    yalla_obs::count(names::AST_DECLS, decls as i64);
                    lambda_counter = parser.lambda_counter();
                    continue;
                }
                let Ok(ast) = parser.parse_translation_unit() else {
                    return Ok(None);
                };
                yalla_obs::count(names::AST_DECLS, ast.decls.len() as i64);
                yalla_obs::count(names::FRAGMENTS_BUILT, 1);
                let fragment = Arc::new(Fragment::new(
                    vfs,
                    effect,
                    ast.decls,
                    parser.lambda_counter(),
                ));
                ticket.insert(&fragment);
                fragment
            }
        };
        lambda_counter = fragment.lambda_counter;
        if keep {
            decls.extend(fragment.decls.iter().cloned());
            fragments.push(fragment);
        }
    }
    let out = {
        let _span = yalla_obs::span("frontend", "preprocess");
        pp.finish_main(main)?
    };
    let _span = yalla_obs::span("frontend", "parse");
    let mut parser = Parser::resume(out.tokens, lambda_counter);
    if keep {
        let rest = parser.parse_translation_unit()?;
        yalla_obs::count(names::AST_DECLS, rest.decls.len() as i64);
        decls.extend(rest.decls);
    } else {
        let rest = parser.skim_translation_unit()?;
        yalla_obs::count(names::AST_DECLS, rest as i64);
    }
    if resumed {
        yalla_obs::count(names::PREAMBLE_REUSED, 1);
    }
    Ok(Some(PooledParse {
        tu: ParsedTu {
            ast: TranslationUnit { decls },
            stats: out.stats,
        },
        chain: Chain::new(fragments),
    }))
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
