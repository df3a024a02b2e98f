//! Incomplete-type rules: wrapper-need decisions and output verification.
//!
//! Two jobs, both straight from the paper:
//!
//! 1. **Decide** (§3.2.2/§3.2.3): a used function needs a *wrapper* when
//!    its signature involves a soon-to-be-incomplete class **by value**
//!    (return or parameter); methods and fields of forward-declared
//!    classes always need wrappers; everything else can be forward
//!    declared directly.
//! 2. **Verify**: after the engine rewrites sources, prove the result
//!    still compiles under C++'s incomplete-type restrictions — no
//!    by-value declarations of forward-declared classes, no member access
//!    on them, no `new`/`delete` of them in user code, and no pointer to
//!    one initialized from an object or reference of it (`W* w = r;`,
//!    which does not convert).

use std::collections::HashSet;

use yalla_cpp::ast::visit::{walk_expr, walk_stmt, walk_stmts, Visitor};
use yalla_cpp::ast::{
    ClassDecl, Decl, DeclKind, Expr, ExprKind, ForInit, FunctionDecl, Stmt, StmtKind,
    TranslationUnit, Type, TypeKind, VarDecl,
};
use yalla_cpp::loc::Span;

use crate::aliases::AliasResolver;
use crate::scope::Scopes;
use crate::symbols::SymbolTable;

/// Why (and whether) a function needs a wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapperNeed {
    /// Plain forward declaration suffices.
    ForwardDeclarable,
    /// Returns an incomplete type by value — wrapper returns a pointer to a
    /// heap-allocated result (§3.2.2).
    ReturnsIncompleteByValue {
        /// Key of the offending class.
        class: String,
    },
    /// Takes an incomplete type by value — wrapper takes a pointer
    /// (§3.2.2, the `parallel_for` case).
    ParamIncompleteByValue {
        /// Key of the offending class.
        class: String,
        /// Index of the offending parameter.
        param_index: usize,
    },
}

/// Decides whether `f` can be forward declared as-is, given the set of
/// classes that will become incomplete (`incomplete`, by symbol key).
///
/// When several reasons apply, the return-type reason wins (the wrapper
/// generator handles parameters too once it knows a wrapper is needed).
pub fn wrapper_need(
    f: &FunctionDecl,
    incomplete: &HashSet<String>,
    table: &SymbolTable,
) -> WrapperNeed {
    let aliases = AliasResolver::new(table);
    let is_incomplete_by_value = |ty: &Type| -> Option<String> {
        if !ty.is_by_value() {
            return None;
        }
        let resolved = aliases.resolve_type(ty);
        let core = resolved.core_name()?;
        let key = table.resolve(&core.key()).map(|s| s.key.clone())?;
        incomplete.contains(&key).then_some(key)
    };
    if let Some(ret) = &f.ret {
        if let Some(class) = is_incomplete_by_value(ret) {
            return WrapperNeed::ReturnsIncompleteByValue { class };
        }
    }
    for (i, p) in f.params.iter().enumerate() {
        if let Some(class) = is_incomplete_by_value(&p.ty) {
            return WrapperNeed::ParamIncompleteByValue {
                class,
                param_index: i,
            };
        }
    }
    WrapperNeed::ForwardDeclarable
}

/// A violation of the incomplete-type rules found during verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncompleteViolation {
    /// Key of the incomplete class involved.
    pub class: String,
    /// What went wrong, human-readable.
    pub reason: String,
    /// Where.
    pub span: Span,
}

/// Checks that `tu` (typically: the rewritten sources re-parsed) never
/// uses any class in `incomplete` in a way C++ forbids for incomplete
/// types: by-value declarations, member access, `new`/`delete`, and a
/// local pointer initialized from an object or reference of the class.
///
/// Function *declarations* may mention incomplete types by value (that is
/// legal C++ as long as the function is not defined/called), so parameters
/// of bodyless declarations are exempt — matching the paper's reliance on
/// that rule for forward declarations.
pub fn check_incomplete_rules(
    tu: &TranslationUnit,
    incomplete: &HashSet<String>,
    table: &SymbolTable,
) -> Vec<IncompleteViolation> {
    let _span = yalla_obs::span("analysis", "incomplete_rules");
    yalla_obs::count(yalla_obs::metrics::names::INCOMPLETE_CHECKS, 1);
    let mut v = Checker {
        incomplete,
        scopes: Scopes::new(table),
        violations: Vec::new(),
    };
    for d in &tu.decls {
        v.decl(d);
    }
    v.violations
}

struct Checker<'a> {
    incomplete: &'a HashSet<String>,
    /// The symbol table, the enclosing namespaces and the locals in scope.
    scopes: Scopes<'a>,
    violations: Vec<IncompleteViolation>,
}

impl Checker<'_> {
    fn incomplete_core(&self, ty: &Type) -> Option<String> {
        if !ty.is_by_value() {
            return None;
        }
        let resolved = self.scopes.aliases().resolve_type(ty);
        let core = resolved.core_name()?;
        let key = self
            .scopes
            .table()
            .resolve(&core.key())
            .map(|s| s.key.clone())
            .unwrap_or_else(|| core.key());
        self.incomplete.contains(&key).then_some(key)
    }

    /// The incomplete class `var` points to when its initializer is an
    /// object or a reference of that class: `L::W* w = r;` with `r` an
    /// `L::W&`, what retyping a by-value local leaves behind.
    fn pointer_from_object(&self, var: &VarDecl) -> Option<String> {
        let TypeKind::Pointer(pointee) = &var.ty.kind else {
            return None;
        };
        let key = self.incomplete_core(pointee)?;
        let init = self.scopes.infer_type(var.init.as_ref()?)?;
        let object = matches!(
            init.kind,
            TypeKind::Named(_) | TypeKind::LValueRef(_) | TypeKind::RValueRef(_)
        );
        (object && self.scopes.class_key_of(&init)? == key).then_some(key)
    }

    fn flag(&mut self, class: String, reason: impl Into<String>, span: Span) {
        self.violations.push(IncompleteViolation {
            class,
            reason: reason.into(),
            span,
        });
    }

    fn decl(&mut self, decl: &Decl) {
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                self.scopes.enter_namespace(&ns.name);
                for d in &ns.decls {
                    self.decl(d);
                }
                self.scopes.leave_namespace();
            }
            DeclKind::Class(c) => {
                for m in &c.members {
                    match &m.decl.kind {
                        DeclKind::Variable(var) => {
                            if let Some(k) = self.incomplete_core(&var.ty) {
                                self.flag(
                                    k,
                                    "field of incomplete type (must be pointerized)",
                                    m.decl.span,
                                );
                            }
                        }
                        DeclKind::Function(f) => self.function(f, Some(c)),
                        _ => self.decl(&m.decl),
                    }
                }
            }
            DeclKind::Function(f) => self.function(f, None),
            DeclKind::Variable(var) => {
                if let Some(k) = self.incomplete_core(&var.ty) {
                    self.flag(k, "variable of incomplete type", decl.span);
                }
            }
            _ => {}
        }
    }

    /// Checks a function's signature and walks its body with the fields
    /// of its class (`member_of`, or the qualifier's) and its parameters
    /// in scope.
    fn function(&mut self, f: &FunctionDecl, member_of: Option<&ClassDecl>) {
        // Bodyless declarations may mention incomplete types by value.
        let Some(body) = &f.body else { return };
        if let Some(ret) = &f.ret {
            if let Some(k) = self.incomplete_core(ret) {
                self.flag(
                    k,
                    "defined function returns incomplete type by value",
                    body.span,
                );
            }
        }
        for p in &f.params {
            if let Some(k) = self.incomplete_core(&p.ty) {
                self.flag(
                    k,
                    "defined function takes incomplete type by value",
                    body.span,
                );
            }
        }
        self.scopes.push_function(f, member_of);
        walk_stmts(self, &body.stmts);
        self.scopes.pop();
    }
}

/// The checker's own arms: everything else is the shared walk.
impl Visitor for Checker<'_> {
    fn visit_stmt(&mut self, stmt: &Stmt) {
        let local = match &stmt.kind {
            StmtKind::Decl(v) => Some((v, "local variable of incomplete type")),
            StmtKind::For { init, .. } => match init.as_ref() {
                ForInit::Decl(v) => Some((v, "loop variable of incomplete type")),
                _ => None,
            },
            StmtKind::RangeFor { var, .. } => Some((var, "loop variable of incomplete type")),
            _ => None,
        };
        if let Some((var, reason)) = local {
            if let Some(k) = self.incomplete_core(&var.ty) {
                self.flag(k, reason, stmt.span);
            }
            if let Some(k) = self.pointer_from_object(var) {
                self.flag(
                    k,
                    "pointer to incomplete type initialized from an object",
                    stmt.span,
                );
            }
        }
        walk_stmt(self, stmt);
    }

    fn visit_expr(&mut self, e: &Expr) {
        let constructed = match &e.kind {
            ExprKind::New { ty, .. } => Some((ty, "new of incomplete type in user code")),
            ExprKind::BraceInit { ty: Some(ty), .. } => {
                Some((ty, "construction of incomplete type"))
            }
            _ => None,
        };
        if let Some((ty, reason)) = constructed {
            if let Some(k) = self.incomplete_core(ty) {
                self.flag(k, reason, e.span);
            }
        }
        walk_expr(self, e);
    }

    /// Only the types the arms above name are checked.
    fn visit_type(&mut self, _: &Type) {}

    fn enter_scope(&mut self) {
        self.scopes.push([]);
    }

    fn leave_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: &Type) {
        self.scopes.declare(name, ty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_cpp::parse::parse_str;

    fn setup(src: &str) -> (TranslationUnit, SymbolTable) {
        let tu = parse_str(src).unwrap();
        let table = SymbolTable::build(&tu);
        (tu, table)
    }

    fn fn_decl(src: &str) -> (std::sync::Arc<FunctionDecl>, SymbolTable) {
        let (tu, table) = setup(src);
        let f = tu
            .decls
            .iter()
            .find_map(|d| match &d.kind {
                DeclKind::Function(f) => Some(f.clone()),
                DeclKind::Namespace(ns) => ns.decls.iter().find_map(|d| match &d.kind {
                    DeclKind::Function(f) => Some(f.clone()),
                    _ => None,
                }),
                _ => None,
            })
            .expect("function in source");
        (f, table)
    }

    fn incomplete(keys: &[&str]) -> HashSet<String> {
        keys.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plain_function_is_forward_declarable() {
        let (f, t) = fn_decl("namespace K { struct B {}; } void f(int x, K::B* b);");
        assert_eq!(
            wrapper_need(&f, &incomplete(&["K::B"]), &t),
            WrapperNeed::ForwardDeclarable
        );
    }

    #[test]
    fn incomplete_return_by_value_needs_wrapper() {
        // The paper's TeamThreadRange case.
        let (f, t) = fn_decl(
            "namespace K { struct BoundsStruct { int lo; }; template<class M> BoundsStruct TeamThreadRange(M& m, int n); }",
        );
        assert_eq!(
            wrapper_need(&f, &incomplete(&["K::BoundsStruct"]), &t),
            WrapperNeed::ReturnsIncompleteByValue {
                class: "K::BoundsStruct".into()
            }
        );
    }

    #[test]
    fn incomplete_param_by_value_needs_wrapper() {
        // The paper's parallel_for case.
        let (f, t) = fn_decl(
            "namespace K { struct BoundsStruct { int lo; }; template<class F> void parallel_for(BoundsStruct range, F f); }",
        );
        assert_eq!(
            wrapper_need(&f, &incomplete(&["K::BoundsStruct"]), &t),
            WrapperNeed::ParamIncompleteByValue {
                class: "K::BoundsStruct".into(),
                param_index: 0
            }
        );
    }

    #[test]
    fn reference_and_pointer_params_are_fine() {
        let (f, t) = fn_decl("namespace K { struct B {}; void f(B& a, const B* b); }");
        assert_eq!(
            wrapper_need(&f, &incomplete(&["K::B"]), &t),
            WrapperNeed::ForwardDeclarable
        );
    }

    #[test]
    fn return_reason_wins_over_param() {
        let (f, t) = fn_decl("namespace K { struct B {}; B both(B x); }");
        assert!(matches!(
            wrapper_need(&f, &incomplete(&["K::B"]), &t),
            WrapperNeed::ReturnsIncompleteByValue { .. }
        ));
    }

    #[test]
    fn alias_to_incomplete_detected() {
        let (f, t) = fn_decl("namespace K { struct B {}; using Alias = B; Alias g(); }");
        assert!(matches!(
            wrapper_need(&f, &incomplete(&["K::B"]), &t),
            WrapperNeed::ReturnsIncompleteByValue { .. }
        ));
    }

    #[test]
    fn checker_accepts_pointerized_code() {
        let (tu, t) = setup(
            "namespace K { class View; }\nstruct add_y { int y; K::View* x; };\nvoid f(K::View& v) { K::View* p = &v; }",
        );
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::View"]), &t);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn checker_flags_by_value_field() {
        let (tu, t) = setup("namespace K { class View; }\nstruct S { K::View v; };");
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::View"]), &t);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].reason.contains("field"));
    }

    #[test]
    fn checker_flags_local_and_new() {
        let (tu, t) =
            setup("namespace K { class View; }\nvoid f() { K::View v; auto* p = new K::View(); }");
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::View"]), &t);
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn checker_allows_bodyless_declarations() {
        // Forward-declared functions may mention incomplete types by value.
        let (tu, t) = setup("namespace K { class B; }\nK::B make(K::B x);");
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::B"]), &t);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn checker_flags_defined_function_with_by_value_param() {
        let (tu, t) = setup("namespace K { class B; }\nvoid f(K::B x) { }");
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::B"]), &t);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn checker_flags_pointer_initialized_from_an_object() {
        let header = "namespace L { class W; }\n";
        for (body, flagged) in [
            ("int f(L::W& r) { L::W* w = r; return 0; }", true),
            (
                "int f(L::W& r) { for (L::W* w = r; w; w = 0) { } return 0; }",
                true,
            ),
            ("int f(L::W* p) { L::W* w = *p; return 0; }", true),
            ("namespace L { int f(W& r) { W* w = r; return 0; } }", true),
            ("int f(L::W& r) { L::W* w = &r; return 0; }", false),
            ("int f(L::W* p) { L::W* w = p; return 0; }", false),
            ("int f(L::W& r) { L::W* w = nullptr; return 0; }", false),
        ] {
            let (tu, t) = setup(&format!("{header}{body}"));
            let violations = check_incomplete_rules(&tu, &incomplete(&["L::W"]), &t);
            let found = violations
                .iter()
                .any(|v| v.class == "L::W" && v.reason.contains("initialized from an object"));
            assert_eq!(found, flagged, "{body}: {violations:?}");
        }
    }

    #[test]
    fn checker_descends_into_lambdas() {
        let (tu, t) =
            setup("namespace K { class B; }\nvoid f() { auto l = [](int i) { K::B local; }; }");
        let violations = check_incomplete_rules(&tu, &incomplete(&["K::B"]), &t);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }
}
