//! Preprocessing statistics (the raw material of the paper's Table 3).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::loc::FileId;

/// Statistics gathered while preprocessing one translation unit.
///
/// These are the quantities the paper correlates with compile time:
/// *"YALLA reduces the LOC from 111301 to 77 by substituting
/// `Kokkos_Core.hpp` ... which pulls in 581 headers in total"* (§5.3).
#[derive(Debug, Clone, Default)]
pub struct PpStats {
    /// Every distinct file that entered the translation unit, in first-entry
    /// order. The first entry is the main file.
    pub files_entered: Vec<FileId>,
    /// Distinct headers included (directly or transitively) — excludes the
    /// main file. This is Table 3's "Headers" column.
    pub headers: BTreeSet<FileId>,
    /// Non-blank lines of code delivered to the compiler across all files
    /// (active preprocessor regions only). This is Table 3's "LOCs" column.
    pub lines_compiled: usize,
    /// Per-file breakdown of `lines_compiled`.
    pub lines_per_file: BTreeMap<FileId, usize>,
    /// Include edges `(includer, includee)` in resolution order; one edge
    /// per `#include` that was actually entered (guard-skipped re-includes
    /// still add an edge, since the file was looked up again).
    pub include_edges: Vec<(FileId, FileId)>,
    /// Number of macro expansions performed (a frontend-work proxy used by
    /// the compilation-cost model).
    pub macro_expansions: usize,
}

impl PpStats {
    /// Number of distinct headers pulled into the TU.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Records that `lines` active lines of `file` were delivered.
    pub(crate) fn add_lines(&mut self, file: FileId, lines: usize) {
        self.lines_compiled += lines;
        *self.lines_per_file.entry(file).or_insert(0) += lines;
    }

    /// Adds `share`, the statistics of a part of the TU preprocessed on
    /// its own from an empty [`PpStats`], as if that part had been
    /// preprocessed here: its files are entered in order, its lines and
    /// include edges added. Expansions are left to the caller. Returns
    /// how many of its files entered the TU first.
    pub(crate) fn merge(&mut self, share: &PpStats) -> usize {
        let mut seen: HashSet<FileId> = self.files_entered.iter().copied().collect();
        let before = self.files_entered.len();
        for &file in &share.files_entered {
            if seen.insert(file) {
                self.files_entered.push(file);
            }
        }
        self.headers.extend(share.headers.iter().copied());
        self.lines_compiled += share.lines_compiled;
        for (&file, &lines) in &share.lines_per_file {
            *self.lines_per_file.entry(file).or_insert(0) += lines;
        }
        self.include_edges.extend_from_slice(&share.include_edges);
        self.files_entered.len() - before
    }

    /// Records the first entry of `file` into the TU.
    pub(crate) fn enter_file(&mut self, file: FileId, is_main: bool) {
        if !self.files_entered.contains(&file) {
            self.files_entered.push(file);
        }
        if !is_main {
            self.headers.insert(file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_count_excludes_main() {
        let mut s = PpStats::default();
        s.enter_file(FileId(0), true);
        s.enter_file(FileId(1), false);
        s.enter_file(FileId(1), false); // re-entry is idempotent
        s.enter_file(FileId(2), false);
        assert_eq!(s.header_count(), 2);
        assert_eq!(s.files_entered.len(), 3);
    }

    #[test]
    fn line_accounting_accumulates() {
        let mut s = PpStats::default();
        s.add_lines(FileId(0), 10);
        s.add_lines(FileId(0), 5);
        s.add_lines(FileId(1), 7);
        assert_eq!(s.lines_compiled, 22);
        assert_eq!(s.lines_per_file[&FileId(0)], 15);
    }
}
