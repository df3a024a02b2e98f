//! Type-alias resolution.
//!
//! The paper's algorithm resolves aliases before forward declaring
//! (Fig. 5 line 4): `Kokkos::TeamPolicy<sp_t>::member_type` is an alias
//! for `Kokkos::Impl::HostThreadTeamMember<sp_t>`, and *that* class is the
//! one YALLA forward declares (§3.2.1). The resolver follows alias chains
//! transitively, with a depth limit to survive accidental cycles.

use yalla_cpp::ast::{Type, TypeKind};

use crate::symbols::{SymbolKind, SymbolTable};

/// Maximum alias-chain length before giving up (cycle guard).
const MAX_ALIAS_DEPTH: usize = 64;

/// Resolves alias chains against a symbol table.
#[derive(Debug, Clone, Copy)]
pub struct AliasResolver<'t> {
    table: &'t SymbolTable,
}

impl<'t> AliasResolver<'t> {
    /// Creates a resolver over `table`.
    pub fn new(table: &'t SymbolTable) -> Self {
        AliasResolver { table }
    }

    /// Fully resolves `ty`: while the core named type refers to an alias,
    /// substitute the alias target (keeping the original's qualifiers and
    /// indirections). Returns the input unchanged when nothing resolves.
    ///
    /// Member-type aliases are also followed: for
    /// `Kokkos::TeamPolicy::member_type` the resolver looks for an alias
    /// member declared inside the `TeamPolicy` class.
    pub fn resolve_type(&self, ty: &Type) -> Type {
        let mut current = ty.clone();
        for _ in 0..MAX_ALIAS_DEPTH {
            match self.step(&current) {
                Some(next) => current = next,
                None => break,
            }
        }
        current
    }

    /// Like [`AliasResolver::resolve_type`] but also resolves aliases
    /// appearing *inside* template arguments, recursively. Used when a type
    /// must be spelled in a context where the user's local aliases are not
    /// visible (explicit instantiations in the generated wrappers file).
    pub fn resolve_type_deep(&self, ty: &Type) -> Type {
        let mut out = self.resolve_type(ty);
        match &mut out.kind {
            TypeKind::Named(name) => {
                for seg in &mut name.segs {
                    if let Some(args) = &mut seg.args {
                        for a in args.iter_mut() {
                            if let yalla_cpp::ast::TemplateArg::Type(t) = a {
                                *t = self.resolve_type_deep(t);
                            }
                        }
                    }
                }
            }
            TypeKind::Pointer(inner)
            | TypeKind::LValueRef(inner)
            | TypeKind::RValueRef(inner)
            | TypeKind::Array(inner, _) => {
                **inner = self.resolve_type_deep(inner);
            }
            _ => {}
        }
        out
    }

    /// Resolves a symbol key through alias entries to the final class key,
    /// when the chain ends at a class. Returns `None` when the name never
    /// resolves to a class.
    pub fn resolve_key_to_class(&self, key: &str) -> Option<String> {
        let mut current = key.to_string();
        for _ in 0..MAX_ALIAS_DEPTH {
            let sym = self.table.resolve(&current)?;
            match &sym.kind {
                SymbolKind::Class(_) => return Some(sym.key.clone()),
                SymbolKind::Alias(a) => {
                    let target = a.target.core_name()?;
                    // Try resolving relative to the alias's own scope first
                    // (aliases inside `namespace Kokkos` see siblings
                    // unqualified).
                    let scoped = if sym.scope.is_empty() {
                        None
                    } else {
                        // The alias's scope may include a class for member
                        // aliases; strip back one level at a time.
                        let mut scopes = &sym.scope[..];
                        let mut found = None;
                        while let [outer @ .., _] = scopes {
                            let candidate = format!("{}::{}", scopes.join("::"), target.key());
                            if self.table.get(&candidate).is_some() {
                                found = Some(candidate);
                                break;
                            }
                            scopes = outer;
                        }
                        found
                    };
                    current = scoped.unwrap_or_else(|| target.key());
                }
                _ => return None,
            }
        }
        None
    }

    fn step(&self, ty: &Type) -> Option<Type> {
        match &ty.kind {
            TypeKind::Named(name) => {
                let sym = self.table.resolve(&name.key())?;
                let alias = match &sym.kind {
                    SymbolKind::Alias(a) => a,
                    _ => return None,
                };
                let mut out = alias.target.clone();
                out.is_const |= ty.is_const;
                out.is_volatile |= ty.is_volatile;
                // Requalify the target against the alias's own scope: an
                // alias written inside `namespace K` names siblings
                // unqualified, but the resolved type must be spelled from
                // global scope (it lands in the generated lightweight
                // header).
                if let TypeKind::Named(target_name) = &mut out.kind {
                    if self.table.get(&target_name.key()).is_none() {
                        let mut scopes = &sym.scope[..];
                        while let [outer @ .., _] = scopes {
                            let candidate = format!("{}::{}", scopes.join("::"), target_name.key());
                            if self.table.get(&candidate).is_some() {
                                let mut segs: Vec<yalla_cpp::ast::NameSeg> = scopes
                                    .iter()
                                    .map(|s| yalla_cpp::ast::NameSeg::plain(s.clone()))
                                    .collect();
                                segs.extend(target_name.segs.clone());
                                target_name.segs = segs;
                                break;
                            }
                            scopes = outer;
                        }
                    }
                }
                // Substitute template arguments positionally when the alias
                // is an alias template (`template<class T> using V = W<T>`).
                if let (Some(header), Some(args)) = (&alias.template, name.last().args.as_ref()) {
                    let params: Vec<&str> = header.params.iter().map(|p| p.name()).collect();
                    out = substitute_params(&out, &params, args);
                }
                // Member alias of a class template: `TeamPolicy<sp_t>::
                // member_type` substitutes the *class's* template
                // parameters with the arguments written on the class
                // segment of the qualified name.
                if sym.nested_in_class && name.segs.len() >= 2 {
                    let class_seg = &name.segs[name.segs.len() - 2];
                    if let Some(args) = &class_seg.args {
                        if let Some(SymbolKind::Class(class)) =
                            self.table.get(&sym.scope.join("::")).map(|s| &s.kind)
                        {
                            if let Some(header) = &class.template {
                                let params: Vec<&str> =
                                    header.params.iter().map(|p| p.name()).collect();
                                out = substitute_params(&out, &params, args);
                            }
                        }
                    }
                }
                Some(out)
            }
            TypeKind::Pointer(inner) => self.step(inner).map(|t| {
                let mut out = Type::pointer(t);
                out.is_const = ty.is_const;
                out
            }),
            TypeKind::LValueRef(inner) => self.step(inner).map(Type::lvalue_ref),
            TypeKind::RValueRef(inner) => self.step(inner).map(Type::rvalue_ref),
            _ => None,
        }
    }
}

/// Positional substitution of template parameters in `ty`: every bare
/// occurrence of `params[i]` is replaced by `args[i]`. Used for alias
/// templates and for concretizing method-wrapper signatures from a
/// receiver's template arguments.
pub fn substitute_params(ty: &Type, params: &[&str], args: &[yalla_cpp::ast::TemplateArg]) -> Type {
    use yalla_cpp::ast::TemplateArg;
    let mut out = ty.clone();
    match &mut out.kind {
        TypeKind::Named(name) => {
            // A bare parameter name (`T`) is replaced by the whole arg type.
            if name.segs.len() == 1 && name.segs[0].args.is_none() {
                if let Some(idx) = params.iter().position(|p| *p == name.segs[0].ident) {
                    if let Some(TemplateArg::Type(t)) = args.get(idx) {
                        let mut t = t.clone();
                        t.is_const |= out.is_const;
                        return t;
                    }
                }
            }
            for seg in &mut name.segs {
                if let Some(seg_args) = &mut seg.args {
                    for a in seg_args.iter_mut() {
                        if let TemplateArg::Type(t) = a {
                            *t = substitute_params(t, params, args);
                        } else if let TemplateArg::Value(v) = a {
                            if let Some(idx) = params.iter().position(|p| p == v) {
                                if let Some(arg) = args.get(idx) {
                                    *a = arg.clone();
                                }
                            }
                        }
                    }
                }
            }
        }
        TypeKind::Pointer(inner)
        | TypeKind::LValueRef(inner)
        | TypeKind::RValueRef(inner)
        | TypeKind::Array(inner, _) => {
            **inner = substitute_params(inner, params, args);
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;
    use yalla_cpp::parse::parse_str;

    fn setup(src: &str) -> SymbolTable {
        SymbolTable::build(&parse_str(src).unwrap())
    }

    fn resolve(table: &SymbolTable, ty_src: &str) -> String {
        let tu = parse_str(&format!("{ty_src} __probe;")).unwrap();
        let ty = match &tu.decls.last().unwrap().kind {
            yalla_cpp::ast::DeclKind::Variable(v) => v.ty.clone(),
            other => panic!("probe parse failed: {other:?}"),
        };
        AliasResolver::new(table).resolve_type(&ty).to_string()
    }

    #[test]
    fn simple_alias_chain() {
        let t = setup("namespace K { class OpenMP; } using sp_t = K::OpenMP;");
        assert_eq!(resolve(&t, "sp_t"), "K::OpenMP");
    }

    #[test]
    fn transitive_chain() {
        let t = setup("class A; using B = A; using C = B; using D = C;");
        assert_eq!(resolve(&t, "D"), "A");
    }

    #[test]
    fn non_alias_is_unchanged() {
        let t = setup("class A;");
        assert_eq!(resolve(&t, "A"), "A");
        assert_eq!(resolve(&t, "A*"), "A*");
    }

    #[test]
    fn alias_cycle_terminates() {
        // Illegal C++, but the resolver must not hang.
        let t = setup("using A = B; using B = A;");
        let _ = resolve(&t, "A");
    }

    #[test]
    fn member_type_alias_resolves_to_non_nested_class() {
        // The paper's §3.2.1 example: member_type is an alias to
        // HostThreadTeamMember which is NOT nested.
        let t = setup(
            "namespace Kokkos { template<class P> class HostThreadTeamMember { public: int league_rank() const; };\n  template<class S> class TeamPolicy { public: using member_type = HostThreadTeamMember<S>; }; }",
        );
        let r = AliasResolver::new(&t);
        let resolved = r.resolve_key_to_class("Kokkos::TeamPolicy::member_type");
        assert_eq!(resolved.as_deref(), Some("Kokkos::HostThreadTeamMember"));
    }

    #[test]
    fn alias_template_substitutes_args() {
        let t = setup(
            "namespace K { template<class T, class L> class View; template<class T> using RightView = View<T, LayoutRight>; }",
        );
        assert_eq!(
            resolve(&t, "K::RightView<int>"),
            "K::View<int, LayoutRight>"
        );
    }

    #[test]
    fn qualifiers_survive_resolution() {
        let t = setup("class A; using B = A;");
        assert_eq!(resolve(&t, "const B&"), "const A&");
    }

    #[test]
    fn resolve_key_through_alias() {
        let t = setup("namespace K { class Real; using Fake = Real; }");
        let r = AliasResolver::new(&t);
        assert_eq!(
            r.resolve_key_to_class("K::Fake").as_deref(),
            Some("K::Real")
        );
        assert_eq!(
            r.resolve_key_to_class("K::Real").as_deref(),
            Some("K::Real")
        );
        assert!(r.resolve_key_to_class("K::Missing").is_none());
    }
}

#[cfg(test)]
mod deep_tests {
    use super::*;
    use crate::symbols::SymbolTable;
    use yalla_cpp::parse::parse_str;

    #[test]
    fn deep_resolution_rewrites_template_args() {
        let table = SymbolTable::build(
            &parse_str(
                "namespace K { class OpenMP; template<class P> class Member; } using sp_t = K::OpenMP; using member_t = K::Member<sp_t>;",
            )
            .unwrap(),
        );
        let tu = parse_str("member_t& __probe;").unwrap();
        let ty = match &tu.decls[0].kind {
            yalla_cpp::ast::DeclKind::Variable(v) => v.ty.clone(),
            _ => unreachable!(),
        };
        let r = AliasResolver::new(&table);
        assert_eq!(r.resolve_type(&ty).to_string(), "K::Member<sp_t>&");
        assert_eq!(
            r.resolve_type_deep(&ty).to_string(),
            "K::Member<K::OpenMP>&"
        );
    }
}

#[cfg(test)]
mod member_alias_tests {
    use super::*;
    use crate::symbols::SymbolTable;
    use yalla_cpp::parse::parse_str;

    #[test]
    fn member_alias_substitutes_class_template_args() {
        let table = SymbolTable::build(
            &parse_str(
                "namespace K { template<class P> class HostMember; template<class S> class TeamPolicy { public: using member_type = HostMember<S>; }; class OpenMP; }",
            )
            .unwrap(),
        );
        let tu = parse_str("K::TeamPolicy<K::OpenMP>::member_type __probe;").unwrap();
        let ty = match &tu.decls[0].kind {
            yalla_cpp::ast::DeclKind::Variable(v) => v.ty.clone(),
            _ => unreachable!(),
        };
        let r = AliasResolver::new(&table);
        assert_eq!(r.resolve_type(&ty).to_string(), "K::HostMember<K::OpenMP>");
    }
}
