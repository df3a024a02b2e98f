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

use std::collections::HashMap;
use std::sync::Arc;

use yalla_cpp::ast::{
    AliasDecl, ClassDecl, Decl, DeclKind, EnumDecl, FunctionDecl, TranslationUnit, Type,
};
use yalla_cpp::loc::FileId;

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
    by_key: HashMap<String, SymbolInfo>,
    /// Secondary index: unqualified name → keys (for unqualified lookup).
    by_base: HashMap<String, Vec<String>>,
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
        let _span = yalla_obs::span("analysis", "symbol_table");
        let mut table = SymbolTable::default();
        let global = Scope::default();
        for d in &tu.decls {
            table.add_decl(d, &global, false);
        }
        yalla_obs::count(
            yalla_obs::metrics::names::SYMBOLS_RESOLVED,
            table.len() as i64,
        );
        table
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when no symbols were recorded.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Looks up a symbol by fully qualified key (no template args).
    pub fn get(&self, key: &str) -> Option<&SymbolInfo> {
        self.by_key.get(key)
    }

    /// Resolves a possibly-unqualified name against the table: tries the
    /// exact key first, then unique match on the base name.
    ///
    /// An unqualified name that matches several scopes resolves only if
    /// exactly one candidate exists (mirroring what name lookup would do
    /// with the using-directives the corpus uses).
    pub fn resolve(&self, key: &str) -> Option<&SymbolInfo> {
        if let Some(s) = self.by_key.get(key) {
            return Some(s);
        }
        let base = key.rsplit("::").next().unwrap_or(key);
        match self.by_base.get(base) {
            Some(keys) if !key.contains("::") => {
                let mut found: Option<&SymbolInfo> = None;
                for k in keys {
                    if let Some(s) = self.by_key.get(k) {
                        if found.is_some() {
                            return None; // ambiguous
                        }
                        found = Some(s);
                    }
                }
                found
            }
            // Qualified name with a suffix match (`View` looked up as
            // `Kokkos::View` when the qualifier is a namespace alias):
            Some(keys) => keys
                .iter()
                .filter_map(|k| self.by_key.get(k))
                .find(|s| s.key.ends_with(key)),
            None => None,
        }
    }

    /// Iterates over all symbols.
    pub fn iter(&self) -> impl Iterator<Item = &SymbolInfo> {
        self.by_key.values()
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
        if let Some(existing) = self.by_key.get_mut(&key) {
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
            return;
        }
        self.by_base
            .entry(name.to_string())
            .or_default()
            .push(key.clone());
        self.by_key.insert(
            key.clone(),
            SymbolInfo {
                key,
                scope: Arc::clone(&scope.path),
                nested_in_class,
                kind,
                file,
                decl_count: 1,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_cpp::parse::parse_str;

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
        assert_eq!(t.get("C").unwrap().file, yalla_cpp::loc::FileId::UNKNOWN);
    }

    #[test]
    fn overloads_merge() {
        let t = table("void f(int a); void f(double b);");
        assert_eq!(t.get("f").unwrap().decl_count, 2);
    }

    #[test]
    fn global_variables() {
        let t = table("int counter = 0;");
        assert_eq!(t.get("counter").unwrap().kind.tag(), "variable");
    }
}
