//! In-memory virtual file system.
//!
//! All experiments in this repository are hermetic: header trees (the
//! synthetic mini-Kokkos, mini-OpenCV, ... libraries) live in a [`Vfs`]
//! rather than on disk. The `Vfs` doubles as the source map — it owns the
//! text of every file and hands out [`FileId`]s.

use std::collections::HashMap;

use crate::error::{CppError, Result};
use crate::hash;
use crate::loc::{FileId, LineMap};

/// A single registered file.
#[derive(Debug, Clone)]
pub struct VfsFile {
    /// Normalized path under which the file was registered.
    pub path: String,
    /// Complete file contents.
    pub text: String,
    /// Number of physical lines (used for the paper's LOC statistics).
    pub lines: usize,
    /// FNV-1a hash of `text` — the file's content address. Every cache in
    /// the incremental pipeline keys on this, so two files (or two
    /// generations of one file) with identical text share artifacts.
    pub hash: u64,
}

/// An in-memory file system with `#include` search-path resolution.
///
/// Paths use `/` separators. Lookups are exact after normalization; the
/// preprocessor combines relative header names with the including file's
/// directory (for `"quoted"` includes) and the configured search paths
/// (for `<angled>` includes), mirroring a real compiler's `-I` handling.
///
/// # Example
///
/// ```
/// use yalla_cpp::vfs::Vfs;
/// let mut vfs = Vfs::new();
/// let id = vfs.add_file("include/lib/a.hpp", "int x;");
/// assert_eq!(vfs.file(id).lines, 1);
/// assert!(vfs.lookup("include/lib/a.hpp").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: Vec<VfsFile>,
    by_path: HashMap<String, FileId>,
    search_paths: Vec<String>,
}

/// The normalized form under which [`Vfs::add_file`] registers `path`
/// (`.` segments and empty segments dropped, `..` resolved).
pub fn normalize(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    out.join("/")
}

impl Vfs {
    /// Creates an empty file system with no search paths.
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Registers `text` under `path`, replacing any existing file at the
    /// same (normalized) path. Returns the file's id.
    pub fn add_file(&mut self, path: &str, text: impl Into<String>) -> FileId {
        let norm = normalize(path);
        let text = text.into();
        let lines = LineMap::new(&text).line_count();
        let hash = hash::hash_str(&text);
        if let Some(&id) = self.by_path.get(&norm) {
            self.files[id.0 as usize] = VfsFile {
                path: norm,
                text,
                lines,
                hash,
            };
            return id;
        }
        let id = FileId(self.files.len() as u32);
        self.files.push(VfsFile {
            path: norm.clone(),
            text,
            lines,
            hash,
        });
        self.by_path.insert(norm, id);
        id
    }

    /// Replaces the contents of an *existing* file — the edit step of the
    /// paper's Figure 6 loop. Unlike [`Vfs::add_file`] this refuses to
    /// create new files, so a session replaying an edit script cannot
    /// silently fork its file tree on a typo'd path. The file keeps its
    /// [`FileId`]; only its text, line count and content hash change.
    ///
    /// # Errors
    ///
    /// Returns [`CppError::FileNotFound`] when `path` is not registered.
    pub fn apply_edit(&mut self, path: &str, new_text: impl Into<String>) -> Result<FileId> {
        let norm = normalize(path);
        if self.by_path.contains_key(&norm) {
            Ok(self.add_file(&norm, new_text))
        } else {
            Err(CppError::FileNotFound { path: norm })
        }
    }

    /// Adds a directory to the `<angled>` include search path.
    pub fn add_search_path(&mut self, dir: &str) {
        self.search_paths.push(normalize(dir));
    }

    /// The configured search paths, in resolution order.
    pub fn search_paths(&self) -> &[String] {
        &self.search_paths
    }

    /// Looks up a file by exact (normalized) path.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.by_path.get(&normalize(path)).copied()
    }

    /// Returns the file registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this `Vfs`.
    pub fn file(&self, id: FileId) -> &VfsFile {
        &self.files[id.0 as usize]
    }

    /// Text of the file registered under `id`.
    pub fn text(&self, id: FileId) -> &str {
        &self.file(id).text
    }

    /// Path of the file registered under `id`.
    pub fn path(&self, id: FileId) -> &str {
        &self.file(id).path
    }

    /// Content hash of the file registered under `id`.
    pub fn file_hash(&self, id: FileId) -> u64 {
        self.file(id).hash
    }

    /// Content hash of the file at `path`, if registered.
    pub fn hash_of(&self, path: &str) -> Option<u64> {
        self.lookup(path).map(|id| self.file_hash(id))
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over all registered files in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &VfsFile)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, f)| (FileId(i as u32), f))
    }

    /// Resolves an include name to a file id.
    ///
    /// For `quoted` includes the directory of `includer` is tried first,
    /// then the search paths; for `<angled>` includes only the search
    /// paths are consulted — the same order a conventional compiler uses.
    ///
    /// # Errors
    ///
    /// Returns [`CppError::FileNotFound`] when no candidate exists.
    pub fn resolve_include(
        &self,
        name: &str,
        includer: Option<FileId>,
        quoted: bool,
    ) -> Result<FileId> {
        if quoted {
            if let Some(inc) = includer {
                let dir = match self.path(inc).rfind('/') {
                    Some(pos) => &self.path(inc)[..pos],
                    None => "",
                };
                let candidate = if dir.is_empty() {
                    name.to_string()
                } else {
                    format!("{dir}/{name}")
                };
                if let Some(id) = self.lookup(&candidate) {
                    return Ok(id);
                }
            }
            if let Some(id) = self.lookup(name) {
                return Ok(id);
            }
        }
        for sp in &self.search_paths {
            let candidate = if sp.is_empty() {
                name.to_string()
            } else {
                format!("{sp}/{name}")
            };
            if let Some(id) = self.lookup(&candidate) {
                return Ok(id);
            }
        }
        // Fall back to an exact match for angled includes too; several of
        // the corpus subjects register headers by their full name.
        if let Some(id) = self.lookup(name) {
            return Ok(id);
        }
        Err(CppError::FileNotFound { path: name.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_normalizes() {
        let mut vfs = Vfs::new();
        let id = vfs.add_file("./a/b/../c.hpp", "x");
        assert_eq!(vfs.lookup("a/c.hpp"), Some(id));
        assert_eq!(vfs.path(id), "a/c.hpp");
    }

    #[test]
    fn replacing_a_file_keeps_its_id() {
        let mut vfs = Vfs::new();
        let id1 = vfs.add_file("a.hpp", "old");
        let id2 = vfs.add_file("a.hpp", "new\ntext");
        assert_eq!(id1, id2);
        assert_eq!(vfs.text(id1), "new\ntext");
        assert_eq!(vfs.file(id1).lines, 2);
        assert_eq!(vfs.len(), 1);
    }

    #[test]
    fn quoted_include_prefers_includer_directory() {
        let mut vfs = Vfs::new();
        let near = vfs.add_file("proj/inc.hpp", "near");
        let far = vfs.add_file("sys/inc.hpp", "far");
        let main = vfs.add_file("proj/main.cpp", "");
        vfs.add_search_path("sys");
        assert_eq!(
            vfs.resolve_include("inc.hpp", Some(main), true).unwrap(),
            near
        );
        assert_eq!(
            vfs.resolve_include("inc.hpp", Some(main), false).unwrap(),
            far
        );
    }

    #[test]
    fn angled_include_uses_search_paths_in_order() {
        let mut vfs = Vfs::new();
        let first = vfs.add_file("p1/h.hpp", "1");
        let _second = vfs.add_file("p2/h.hpp", "2");
        vfs.add_search_path("p1");
        vfs.add_search_path("p2");
        assert_eq!(vfs.resolve_include("h.hpp", None, false).unwrap(), first);
    }

    #[test]
    fn missing_include_is_an_error() {
        let vfs = Vfs::new();
        let err = vfs.resolve_include("nope.hpp", None, false).unwrap_err();
        assert!(matches!(err, CppError::FileNotFound { .. }));
    }

    #[test]
    fn content_hash_tracks_text() {
        let mut vfs = Vfs::new();
        let a = vfs.add_file("a.hpp", "int x;");
        let b = vfs.add_file("b.hpp", "int x;");
        let c = vfs.add_file("c.hpp", "int y;");
        assert_eq!(vfs.file_hash(a), vfs.file_hash(b));
        assert_ne!(vfs.file_hash(a), vfs.file_hash(c));
        assert_eq!(vfs.hash_of("a.hpp"), Some(vfs.file_hash(a)));
        assert_eq!(vfs.hash_of("missing.hpp"), None);
    }

    #[test]
    fn apply_edit_replaces_in_place() {
        let mut vfs = Vfs::new();
        let id = vfs.add_file("a.hpp", "old");
        let before = vfs.file_hash(id);
        let edited = vfs.apply_edit("a.hpp", "new text").unwrap();
        assert_eq!(edited, id);
        assert_eq!(vfs.text(id), "new text");
        assert_ne!(vfs.file_hash(id), before);
        // Reverting the edit restores the original content address.
        vfs.apply_edit("a.hpp", "old").unwrap();
        assert_eq!(vfs.file_hash(id), before);
    }

    #[test]
    fn apply_edit_refuses_unknown_paths() {
        let mut vfs = Vfs::new();
        let err = vfs.apply_edit("nope.cpp", "x").unwrap_err();
        assert!(matches!(err, CppError::FileNotFound { .. }));
        assert!(vfs.is_empty(), "failed edit must not create files");
    }

    #[test]
    fn angled_include_falls_back_to_exact_path() {
        let mut vfs = Vfs::new();
        let id = vfs.add_file("Kokkos_Core.hpp", "");
        assert_eq!(
            vfs.resolve_include("Kokkos_Core.hpp", None, false).unwrap(),
            id
        );
    }
}
