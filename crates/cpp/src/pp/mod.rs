//! The preprocessor.
//!
//! Consumes a main file plus the [`crate::vfs::Vfs`] and produces the token
//! stream of the *translation unit* — the `#include`-spliced,
//! macro-expanded token sequence a C++ compiler's later phases see — while
//! recording the statistics the paper's Table 3 reports: how many lines of
//! code and how many distinct header files enter the compilation.

mod cond;
mod engine;
mod macros;
mod stats;

pub use engine::{preprocess, PpOutput, Preprocessor};
pub(crate) use engine::{IncludeEffect, UnitSite};
pub use macros::{MacroDef, MacroTable};
pub use stats::PpStats;
