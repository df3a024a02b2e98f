//! Symbol table construction.
//!
//! Walks a parsed translation unit and records every named declaration
//! with its fully qualified key (`Kokkos::View`), its kind, the file it
//! was declared in, and enough of its shape (template head, members,
//! signature) for the Header Substitution engine to generate forward
//! declarations and wrappers.
//!
//! The table shares the parse's declarations rather than copying them:
//! each class, enum, alias and function entry holds a clone of the AST's
//! `Arc`, and every symbol of one scope shares that scope's path. Building
//! a table costs one key per symbol, and dropping it frees no declaration
//! the parse still holds.
//!
//! **Extending a prefix table.** A TU whose declarations start with those
//! of its include fragments ([`crate::preamble`]) need not walk them
//! again: the fragments' chain builds the table of their declarations
//! once ([`crate::Chain::table`]), and [`SymbolTable::extend`] keeps that
//! table as a shared, read-only base behind an `Arc` and inserts only the
//! rest of the TU's declarations into an overlay. A base may itself
//! extend a base (a chain's table extends the table of its first
//! fragment), so no table is ever copied. A new key goes into the
//! overlay; a key a base already holds (a reopened namespace, a
//! redeclaration, the definition of a class the base only declares) is
//! copied into the overlay first and changed there, so no base is ever
//! written. Lookups read the overlay, then each base in turn; unqualified
//! candidates are the innermost base's keys, then each overlay's, in
//! insertion order. The result answers every query exactly as
//! [`SymbolTable::build`] of the whole TU would.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{
    AliasDecl, ClassDecl, Decl, DeclKind, EnumDecl, FunctionDecl, TranslationUnit, Type,
};
use crate::loc::FileId;

/// What a symbol is.
#[derive(Debug, Clone, PartialEq)]
pub enum SymbolKind {
    /// A class or struct; payload keeps the declaration (with members when
    /// this entry saw the definition).
    Class(Arc<ClassDecl>),
    /// An enum.
    Enum(Arc<EnumDecl>),
    /// A type alias; payload is the aliased type.
    Alias(Arc<AliasDecl>),
    /// A free function (overload set collapses to the first seen
    /// declaration plus a count).
    Function(Arc<FunctionDecl>),
    /// A namespace.
    Namespace,
    /// A global variable.
    Variable(Box<Type>),
}

impl SymbolKind {
    /// Short tag for diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            SymbolKind::Class(_) => "class",
            SymbolKind::Enum(_) => "enum",
            SymbolKind::Alias(_) => "alias",
            SymbolKind::Function(_) => "function",
            SymbolKind::Namespace => "namespace",
            SymbolKind::Variable(_) => "variable",
        }
    }
}

/// A symbol table entry.
#[derive(Debug, Clone)]
pub struct SymbolInfo {
    /// Fully qualified key, e.g. `Kokkos::TeamPolicy`.
    pub key: String,
    /// Namespace path enclosing the symbol (empty for global scope),
    /// shared by every symbol of that scope. Enclosing *classes* also
    /// appear here for nested declarations; the `nested_in_class` flag
    /// distinguishes the two.
    pub scope: Arc<[String]>,
    /// True when the innermost enclosing scope is a class (the symbol is a
    /// nested type/member) — the case the paper cannot forward declare.
    pub nested_in_class: bool,
    /// What the symbol is.
    pub kind: SymbolKind,
    /// File of the (first) declaration.
    pub file: FileId,
    /// Number of declarations merged into this entry (overloads,
    /// redeclarations).
    pub decl_count: usize,
}

/// A queryable symbol table for one translation unit.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// The shared table of a declaration prefix this table extends.
    base: Option<Arc<SymbolTable>>,
    /// The entries this table inserted: new keys, and base entries its
    /// own declarations changed (copied on write).
    by_key: HashMap<String, SymbolInfo>,
    /// Secondary index over the new keys: unqualified name → keys in
    /// insertion order (for unqualified lookup).
    by_base: HashMap<String, Vec<String>>,
    /// Number of keys `by_key` holds that no base does.
    added: usize,
}

/// An enclosing scope during the walk: its path, allocated once and
/// shared by every symbol declared in it, and its key prefix
/// (`Kokkos::Impl::`, empty at global scope).
#[derive(Default)]
struct Scope {
    path: Arc<[String]>,
    prefix: String,
}

impl Scope {
    fn child(&self, name: &str) -> Scope {
        Scope {
            path: [&self.path[..], &[name.to_string()]].concat().into(),
            prefix: format!("{}{name}::", self.prefix),
        }
    }
}

impl SymbolTable {
    /// Builds the table from a translation unit.
    pub fn build(tu: &TranslationUnit) -> Self {
        Self::from_decls(&tu.decls)
    }

    /// Builds the table of a sequence of top-level declarations, such as
    /// an include fragment's.
    pub fn from_decls(decls: &[Decl]) -> Self {
        Self::insert_all(SymbolTable::default(), decls)
    }

    /// The table of a TU whose top-level declarations are those `prefix`
    /// was built from followed by `decls`: `prefix` is shared, not
    /// copied, and only `decls` are walked. Every query answers as
    /// [`SymbolTable::build`] of the whole TU would.
    pub fn extend(prefix: &Arc<SymbolTable>, decls: &[Decl]) -> Self {
        let table = SymbolTable {
            base: Some(Arc::clone(prefix)),
            ..SymbolTable::default()
        };
        Self::insert_all(table, decls)
    }

    /// This table and its bases, innermost base first.
    fn levels(&self) -> Vec<&SymbolTable> {
        let mut levels: Vec<&SymbolTable> =
            std::iter::successors(Some(self), |t| t.base.as_deref()).collect();
        levels.reverse();
        levels
    }

    /// Walks `decls` into `table` and counts the entries it inserted.
    fn insert_all(mut table: SymbolTable, decls: &[Decl]) -> Self {
        let _span = yalla_obs::span("analysis", "symbol_table");
        let before = table.by_key.len();
        let global = Scope::default();
        for d in decls {
            table.add_decl(d, &global, false);
        }
        yalla_obs::count(
            yalla_obs::metrics::names::SYMBOLS_RESOLVED,
            (table.by_key.len() - before) as i64,
        );
        table
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len()) + self.added
    }

    /// True when no symbols were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a symbol by fully qualified key (no template args).
    pub fn get(&self, key: &str) -> Option<&SymbolInfo> {
        self.by_key
            .get(key)
            .or_else(|| self.base.as_ref()?.get(key))
    }

    /// The keys whose unqualified name is `name`: the innermost base's,
    /// then each overlay's, each in insertion order.
    fn keys_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a String> {
        self.levels()
            .into_iter()
            .filter_map(move |t| t.by_base.get(name))
            .flatten()
    }

    /// Resolves a possibly-unqualified name against the table: tries the
    /// exact key first, then unique match on the base name.
    ///
    /// An unqualified name that matches several scopes resolves only if
    /// exactly one candidate exists (mirroring what name lookup would do
    /// with the using-directives the corpus uses).
    pub fn resolve(&self, key: &str) -> Option<&SymbolInfo> {
        if let Some(s) = self.get(key) {
            return Some(s);
        }
        let base = key.rsplit("::").next().unwrap_or(key);
        let mut found = self.keys_named(base).filter_map(|k| self.get(k));
        if key.contains("::") {
            // Qualified name with a suffix match (`View` looked up as
            // `Kokkos::View` when the qualifier is a namespace alias).
            return found.find(|s| s.key.ends_with(key));
        }
        let first = found.next();
        match found.next() {
            Some(_) => None, // ambiguous
            None => first,
        }
    }

    /// Iterates over all symbols: each level's entries that no later
    /// level copied, innermost base first.
    pub fn iter(&self) -> impl Iterator<Item = &SymbolInfo> {
        let levels = self.levels();
        (0..levels.len()).flat_map(move |i| {
            let later: Vec<&SymbolTable> = levels[i + 1..]
                .iter()
                .copied()
                .filter(|t| t.by_key.len() > t.added)
                .collect();
            levels[i]
                .by_key
                .values()
                .filter(move |s| later.iter().all(|t| !t.by_key.contains_key(&s.key)))
        })
    }

    fn add_decl(&mut self, decl: &Decl, scope: &Scope, in_class: bool) {
        let (name, kind) = match &decl.kind {
            // Anonymous namespaces and `extern "C"` blocks are transparent.
            DeclKind::Namespace(ns) if ns.name.is_empty() => {
                for d in &ns.decls {
                    self.add_decl(d, scope, false);
                }
                return;
            }
            DeclKind::Namespace(ns) => (ns.name.as_str(), SymbolKind::Namespace),
            DeclKind::Class(c) if !c.is_explicit_instantiation => {
                (c.name.as_str(), SymbolKind::Class(Arc::clone(c)))
            }
            DeclKind::Enum(e) if !e.name.is_empty() => {
                (e.name.as_str(), SymbolKind::Enum(Arc::clone(e)))
            }
            DeclKind::Alias(a) => (a.name.as_str(), SymbolKind::Alias(Arc::clone(a))),
            // Methods are reachable through their class entry; free
            // functions get their own entries. Out-of-line method
            // definitions (`add_y::operator()`) are skipped: their
            // in-class declaration already created the entry. Free
            // operator overloads are out of scope.
            DeclKind::Function(f) if !in_class && f.qualifier.is_none() => {
                match f.name.as_ident() {
                    Some(name) => (name, SymbolKind::Function(Arc::clone(f))),
                    None => return,
                }
            }
            // Fields live in their ClassDecl.
            DeclKind::Variable(v) if !in_class => (
                v.name.as_str(),
                SymbolKind::Variable(Box::new(v.ty.clone())),
            ),
            _ => return,
        };
        self.insert(scope, name, kind, decl.span.file, in_class);
        // Enter the new scope: namespace contents, and class members for
        // nested types.
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                let inner = scope.child(name);
                for d in &ns.decls {
                    self.add_decl(d, &inner, false);
                }
            }
            DeclKind::Class(c) if !c.members.is_empty() => {
                let inner = scope.child(name);
                for m in &c.members {
                    self.add_decl(&m.decl, &inner, true);
                }
            }
            _ => {}
        }
    }

    fn insert(
        &mut self,
        scope: &Scope,
        name: &str,
        kind: SymbolKind,
        file: FileId,
        nested_in_class: bool,
    ) {
        let key = format!("{}{name}", scope.prefix);
        let existing = match self.by_key.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match self.base.as_ref().and_then(|b| b.get(e.key())) {
                // Copy on write: the base is shared and never changed.
                Some(info) => e.insert(info.clone()),
                None => {
                    // Most names have one key: no room for four.
                    self.by_base
                        .entry(name.to_string())
                        .or_insert_with(|| Vec::with_capacity(1))
                        .push(e.key().clone());
                    self.added += 1;
                    let key = e.key().clone();
                    e.insert(SymbolInfo {
                        key,
                        scope: Arc::clone(&scope.path),
                        nested_in_class,
                        kind,
                        file,
                        decl_count: 1,
                    });
                    return;
                }
            },
        };
        existing.decl_count += 1;
        // A definition beats a forward declaration as the retained payload.
        let upgrade = matches!(
            (&existing.kind, &kind),
            (SymbolKind::Class(old), SymbolKind::Class(new))
                if !old.is_definition && new.is_definition
        ) || matches!(
            (&existing.kind, &kind),
            (SymbolKind::Function(old), SymbolKind::Function(new))
                if old.body.is_none() && new.body.is_some()
        );
        if upgrade {
            existing.kind = kind;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn table(src: &str) -> SymbolTable {
        SymbolTable::build(&parse_str(src).unwrap())
    }

    #[test]
    fn namespaced_class() {
        let t = table("namespace Kokkos { class OpenMP; template<class T> class View { public: int extent(int d) const; }; }");
        let view = t.get("Kokkos::View").unwrap();
        assert_eq!(view.kind.tag(), "class");
        assert_eq!(*view.scope, ["Kokkos".to_string()]);
        assert!(!view.nested_in_class);
        assert!(t.get("Kokkos::OpenMP").is_some());
        assert!(t.get("Kokkos").is_some());
    }

    #[test]
    fn nested_class_is_flagged() {
        let t = table("namespace K { class TeamPolicy { public: class member_type {}; }; }");
        let nested = t.get("K::TeamPolicy::member_type").unwrap();
        assert!(nested.nested_in_class);
        let parent = t.get("K::TeamPolicy").unwrap();
        assert!(!parent.nested_in_class);
    }

    #[test]
    fn functions_and_aliases() {
        let t = table(
            "namespace Kokkos { template<class F> void parallel_for(int n, F f); using DefaultSpace = OpenMP; }",
        );
        let f = t.get("Kokkos::parallel_for").unwrap();
        assert_eq!(f.kind.tag(), "function");
        assert_eq!(t.get("Kokkos::DefaultSpace").unwrap().kind.tag(), "alias");
    }

    #[test]
    fn definition_upgrades_forward_declaration() {
        let t = table("class V; class V { public: int x; };");
        match &t.get("V").unwrap().kind {
            SymbolKind::Class(c) => assert!(c.is_definition),
            other => panic!("bad kind: {other:?}"),
        }
        assert_eq!(t.get("V").unwrap().decl_count, 2);
    }

    #[test]
    fn unqualified_resolution() {
        let t = table("namespace Kokkos { class LayoutRight; }");
        assert_eq!(t.resolve("LayoutRight").unwrap().key, "Kokkos::LayoutRight");
        assert!(t.resolve("Kokkos::LayoutRight").is_some());
    }

    #[test]
    fn ambiguous_unqualified_resolution_fails() {
        let t = table("namespace A { class X; } namespace B { class X; }");
        assert!(t.resolve("X").is_none());
        assert!(t.resolve("A::X").is_some());
    }

    #[test]
    fn out_of_line_method_does_not_create_symbol() {
        let t = table("struct S { void run(); }; void S::run() { }");
        assert!(t.get("S").is_some());
        assert!(t.get("run").is_none());
        assert!(t.get("S::run").is_none()); // methods live in ClassDecl
    }

    #[test]
    fn file_origin_recorded() {
        // parse_str produces FileId::UNKNOWN spans; just assert the field
        // exists and is consistent.
        let t = table("class C;");
        assert_eq!(t.get("C").unwrap().file, crate::loc::FileId::UNKNOWN);
    }

    #[test]
    fn overloads_merge() {
        let t = table("void f(int a); void f(double b);");
        assert_eq!(t.get("f").unwrap().decl_count, 2);
    }

    /// Every entry and lookup of `extended` as in `full`.
    fn assert_same(extended: &SymbolTable, full: &SymbolTable) {
        let text = |t: &SymbolTable| {
            let mut entries: Vec<String> = t.iter().map(|s| format!("{s:?}")).collect();
            entries.sort();
            entries
        };
        assert_eq!(text(extended), text(full));
        assert_eq!(extended.len(), full.len());
        for name in ["A::X", "X", "B::X", "f", "N::f", "V", "N::V", "A", "N"] {
            let key = |t: &SymbolTable| t.resolve(name).map(|s| s.key.clone());
            assert_eq!(key(extended), key(full), "{name}");
        }
    }

    #[test]
    fn an_extended_table_answers_as_the_whole_build() {
        let prefix = "namespace A { class X; } namespace N { class V; void f(int a); }";
        let prefix_tu = parse_str(prefix).unwrap();
        let base = Arc::new(SymbolTable::build(&prefix_tu));
        for body in [
            "class Y {};",
            // The definition of a class the prefix only declares, an
            // overload with a body and a reopened namespace.
            "namespace N { class V { public: int v; }; void f(int a, int b) { } }",
            // `X` becomes ambiguous; `B::X` is found after `A::X`.
            "namespace B { class X {}; }",
        ] {
            let whole = parse_str(&format!("{prefix}{body}")).unwrap();
            let rest = &whole.decls[prefix_tu.decls.len()..];
            let extended = SymbolTable::extend(&base, rest);
            assert_same(&extended, &SymbolTable::build(&whole));
            // Extending an extended table stacks a second overlay.
            let (first, second) = rest.split_at(rest.len() / 2);
            let twice = SymbolTable::extend(&Arc::new(SymbolTable::extend(&base, first)), second);
            assert_same(&twice, &SymbolTable::build(&whole));
        }
        assert_eq!(
            base.get("N::V").unwrap().decl_count,
            1,
            "the base is unchanged"
        );
    }

    #[test]
    fn global_variables() {
        let t = table("int counter = 0;");
        assert_eq!(t.get("counter").unwrap().kind.tag(), "variable");
    }
}
