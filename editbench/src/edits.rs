//! Seeded inputs: subject order, edit streams and generator seeds are pure
//! functions of `(workload, seed)`; the program only ever sees the files
//! they produce.

use std::collections::BTreeMap;

/// SplitMix64: tiny, seedable, identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(workload, seed)`: the workload name is hashed in,
    /// so two workloads never share a stream for the same seed.
    pub fn for_workload(workload: &str, seed: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in workload.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng(h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What an edit does to its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Appends a trailing comment.
    Comment,
    /// Changes one integer literal in a body, leaving the set of used
    /// header symbols unchanged.
    Literal,
    /// Restores the file touched by the previous edit to its text before
    /// that edit (the parse cache's most-recently-used path).
    Revert,
    /// Literal edit in a TU or one of its private headers (mega).
    Local,
    /// Literal edit in a shared header every TU includes (mega).
    Shared,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Comment => "comment",
            Kind::Literal => "literal",
            Kind::Revert => "revert",
            Kind::Local => "local",
            Kind::Shared => "shared",
        }
    }
}

/// One step of an edit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Replace `path`'s text, then rerun (a timed edit).
    Edit {
        path: String,
        text: String,
        kind: Kind,
    },
    /// Rerun with nothing changed (a timed, fully cached no-op).
    Noop,
}

/// Byte ranges of numeric literals that can be changed without changing
/// which header symbols a file uses: plain decimal, in code inside a
/// brace (a function or class body), not in a comment, string or
/// preprocessor line, and not a template argument, array bound or case
/// label.
pub fn literal_sites(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let (mut i, mut depth, mut line_start) = (0usize, 0usize, true);
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line_start = true;
            i += 1;
            continue;
        }
        if line_start && c == b'#' {
            // Preprocessor line (with backslash continuations).
            while i < b.len() && !(b[i] == b'\n' && b[i - 1] != b'\\') {
                i += 1;
            }
            continue;
        }
        if !c.is_ascii_whitespace() {
            line_start = false;
        }
        match c {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i += 2;
            }
            b'"' | b'\'' => {
                i += 1;
                while i < b.len() && b[i] != c {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ if ident(c) => {
                let start = i;
                while i < b.len() && (ident(b[i]) || b[i] == b'.') {
                    i += 1;
                }
                let token = &text[start..i];
                let prev = text[..start].trim_end().bytes().last();
                let next = text[i..].trim_start().bytes().next();
                let ok = depth > 0
                    && is_number(token)
                    && token.len() <= 6
                    && !matches!(prev, Some(b'<' | b'[' | b'.'))
                    && !matches!(next, Some(b'>' | b']' | b':' | b'.'))
                    && !text[..start].trim_end().ends_with("case");
                if ok {
                    out.push((start, i));
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// A plain decimal literal: `0`, `12` or `0.5` (no octal, hex, exponent
/// or suffix).
fn is_number(token: &str) -> bool {
    let int = |t: &str| !t.is_empty() && t.bytes().all(|d| d.is_ascii_digit());
    match token.split_once('.') {
        None => int(token) && (token == "0" || !token.starts_with('0')),
        Some((whole, frac)) => int(whole) && int(frac),
    }
}

/// Replaces a seeded literal of `text` with a different seeded value of
/// the same kind (integer or decimal). `None` when the text has no
/// replaceable literal.
pub fn edit_literal(text: &str, rng: &mut Rng) -> Option<String> {
    let sites = literal_sites(text);
    if sites.is_empty() {
        return None;
    }
    let (a, z) = sites[rng.below(sites.len())];
    let old = &text[a..z];
    let mut new = old.to_string();
    while new == old {
        new = if old.contains('.') {
            format!("{}.{}", rng.below(10), 1 + rng.below(99))
        } else {
            rng.below(98).to_string()
        };
    }
    Some(format!("{}{new}{}", &text[..a], &text[z..]))
}

/// Appends a seeded trailing comment.
pub fn edit_comment(text: &str, n: usize, rng: &mut Rng) -> String {
    let sep = if text.ends_with('\n') || text.is_empty() {
        ""
    } else {
        "\n"
    };
    format!("{text}{sep}// edit {n} {:08x}\n", rng.next_u64() as u32)
}

/// The corpus edit stream of one subject: `blocks` blocks of three edits
/// each — a comment and a literal edit in seeded order, then a revert of
/// the second — so the three kinds come in equal shares; without
/// `revert`, blocks are just the comment and the literal edit. A subject
/// whose sources hold no numeric literal (`team_policy`) gets a second
/// comment edit instead. A no-op rerun follows every edit.
pub fn corpus_stream(
    files: &BTreeMap<String, String>,
    sources: &[String],
    blocks: usize,
    revert: bool,
    rng: &mut Rng,
) -> Vec<Step> {
    let mut cur = files.clone();
    let literal_files: Vec<&String> = sources
        .iter()
        .filter(|s| !literal_sites(&cur[*s]).is_empty())
        .collect();
    let mut steps = Vec::new();
    let mut n = 0;
    for _ in 0..blocks {
        let mut pair = [Kind::Comment, Kind::Literal];
        if literal_files.is_empty() {
            pair = [Kind::Comment, Kind::Comment];
        }
        rng.shuffle(&mut pair);
        let mut last: Option<(String, String)> = None;
        for kind in pair {
            let (path, text) = match kind {
                Kind::Literal => {
                    let path = literal_files[rng.below(literal_files.len())].clone();
                    let text = edit_literal(&cur[&path], rng).expect("literal site");
                    (path, text)
                }
                _ => {
                    let path = sources[rng.below(sources.len())].clone();
                    n += 1;
                    (path.clone(), edit_comment(&cur[&path], n, rng))
                }
            };
            let before = cur.insert(path.clone(), text.clone()).expect("known file");
            last = Some((path.clone(), before));
            steps.push(Step::Edit { path, text, kind });
            steps.push(Step::Noop);
        }
        let (path, before) = last.expect("two edits per block");
        if !revert {
            continue;
        }
        cur.insert(path.clone(), before.clone());
        steps.push(Step::Edit {
            path,
            text: before,
            kind: Kind::Revert,
        });
        steps.push(Step::Noop);
    }
    steps
}

/// The mega edit stream: `blocks` blocks of four edits in seeded order —
/// three TU-local literal edits (in `tu_<k>.cpp` or one of its private
/// `tu<k>_p<j>.hpp` headers) and one shared-header edit
/// (`mg_<l>_<i>.hpp`), so shared edits are exactly a quarter. A no-op
/// rerun follows every block.
pub fn mega_stream(files: &BTreeMap<String, String>, blocks: usize, rng: &mut Rng) -> Vec<Step> {
    let mut cur = files.clone();
    let editable = |p: &String, t: &String| !literal_sites(t).is_empty() && p.ends_with("pp");
    let shared: Vec<String> = cur
        .iter()
        .filter(|(p, t)| p.starts_with("mg_") && editable(p, t))
        .map(|(p, _)| p.clone())
        .collect();
    let tus: Vec<String> = cur
        .keys()
        .filter(|p| p.starts_with("tu_") && p.ends_with(".cpp"))
        .cloned()
        .collect();
    let mut steps = Vec::new();
    for _ in 0..blocks {
        let mut kinds = [Kind::Local, Kind::Local, Kind::Local, Kind::Shared];
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let path = match kind {
                Kind::Shared => shared[rng.below(shared.len())].clone(),
                _ => {
                    let tu = &tus[rng.below(tus.len())];
                    let k = &tu["tu_".len()..tu.len() - ".cpp".len()];
                    let private: Vec<&String> = cur
                        .keys()
                        .filter(|p| p.starts_with(&format!("tu{k}_p")))
                        .collect();
                    if private.is_empty() || rng.below(2) == 0 {
                        tu.clone()
                    } else {
                        private[rng.below(private.len())].clone()
                    }
                }
            };
            let text = edit_literal(&cur[&path], rng).expect("literal site");
            cur.insert(path.clone(), text.clone());
            steps.push(Step::Edit { path, text, kind });
        }
        steps.push(Step::Noop);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    #[test]
    fn literal_sites_skip_comments_strings_directives_and_types() {
        let text = "#define N 4\nint g[3];\nint f(int a) {\n  // 7 in a comment\n  \
                    auto s = \"9\";\n  View<int, 5> v;\n  int b[6];\n  switch (a) { case 2: break; }\n  \
                    return a * 12 + 0 + 1.5 + 0x1f + 07 + 2u + foo(33);\n}\n";
        let found: Vec<&str> = literal_sites(text)
            .iter()
            .map(|&(a, z)| &text[a..z])
            .collect();
        assert_eq!(found, vec!["12", "0", "1.5", "33"]);
    }

    #[test]
    fn literal_edit_changes_exactly_one_literal() {
        let text = "int f(int a) { return a * 12 + 7; }\n";
        let mut rng = Rng::for_workload("test", 5);
        let out = edit_literal(text, &mut rng).unwrap();
        assert_ne!(out, text);
        assert_eq!(out.len() + 2 >= text.len(), true);
        assert!(out.starts_with("int f(int a) { return a * "));
        assert_eq!(edit_literal("int x;", &mut rng), None);
    }

    #[test]
    fn one_seed_yields_an_identical_stream_twice() {
        let f = files(&[
            (
                "main.cpp",
                "#include \"lib.hpp\"\nint main() { return g(3) + 41; }\n",
            ),
            ("aux.cpp", "int h(int x) { return x + 2; }\n"),
        ]);
        let sources = vec!["main.cpp".to_string(), "aux.cpp".to_string()];
        let a = corpus_stream(
            &f,
            &sources,
            4,
            true,
            &mut Rng::for_workload("corpus-edit", 9),
        );
        let b = corpus_stream(
            &f,
            &sources,
            4,
            true,
            &mut Rng::for_workload("corpus-edit", 9),
        );
        let c = corpus_stream(
            &f,
            &sources,
            4,
            true,
            &mut Rng::for_workload("corpus-edit", 10),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Equal shares of the three kinds, a no-op after every edit.
        let kinds: Vec<Kind> = a
            .iter()
            .filter_map(|s| match s {
                Step::Edit { kind, .. } => Some(*kind),
                Step::Noop => None,
            })
            .collect();
        for k in [Kind::Comment, Kind::Literal, Kind::Revert] {
            assert_eq!(kinds.iter().filter(|&&x| x == k).count(), 4);
        }
        assert_eq!(a.len(), 24);
        let plain = corpus_stream(&f, &sources, 4, false, &mut Rng::for_workload("x", 9));
        assert_eq!(plain.len(), 16);
        assert!(!plain.iter().any(|s| matches!(
            s,
            Step::Edit {
                kind: Kind::Revert,
                ..
            }
        )));
    }

    #[test]
    fn a_revert_restores_the_previous_text() {
        let f = files(&[("m.cpp", "int main() { return 41; }\n")]);
        let steps = corpus_stream(
            &f,
            &["m.cpp".to_string()],
            1,
            true,
            &mut Rng::for_workload("test", 1),
        );
        let texts: Vec<&String> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Edit { text, .. } => Some(text),
                Step::Noop => None,
            })
            .collect();
        assert_eq!(texts[2], texts[0]);
    }

    #[test]
    fn mega_stream_is_a_quarter_shared() {
        let f = files(&[
            ("mg_0_0.hpp", "#pragma once\nnamespace mg {\ninline int h0_0(int a, int b) { return a * 3 + b; }\n}\n"),
            ("tu_0.cpp", "int tu0_fn(int a) {\n  return a % 31 + 1;\n}\n"),
            ("tu0_p0.hpp", "#pragma once\ninline int p0_0(int a) { return a + 4; }\n"),
        ]);
        let steps = mega_stream(&f, 5, &mut Rng::for_workload("test", 3));
        let shared = steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Edit {
                        kind: Kind::Shared,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(shared, 5);
        assert_eq!(steps.len(), 25);
        assert_eq!(steps, mega_stream(&f, 5, &mut Rng::for_workload("test", 3)));
    }
}
