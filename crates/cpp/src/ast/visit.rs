//! AST traversal: the one place that lists each node's children.
//!
//! Two walks share one shape:
//!
//! * [`Visitor`] is read-only. Usage collection (lambda captures
//!   included), the incomplete-type checker, mutated-capture discovery
//!   and the compile-work counters are visitors.
//! * [`VisitMut`] rebuilds statements and expressions in place. Source
//!   rewriting and the functor builder's capture dereferencing are
//!   rebuilding visitors.
//!
//! Each hook's default calls the matching `walk_*` function, which visits
//! the node's children. A pass overrides only the hooks where it does
//! something of its own; it walks the children by calling `walk_*`, or
//! handles them itself by not calling it. This plays the role Clang's
//! `RecursiveASTVisitor` plays in the original tool.
//!
//! Both walks report lexical scopes the same way: `enter_scope` and
//! `leave_scope` bracket every block, `for` statement, range-`for`
//! statement, lambda and function body, and `declare` names each local
//! variable (after its initializer is walked) and each parameter.

use crate::ast::decl::{Decl, DeclKind, FunctionDecl, TranslationUnit, VarDecl};
use crate::ast::expr::{Expr, ExprKind};
use crate::ast::stmt::{Block, ForInit, Stmt, StmtKind};
use crate::ast::types::{Type, TypeKind};

/// A read-only AST visitor. Every hook defaults to walking the node's
/// children.
#[allow(unused_variables)]
pub trait Visitor: Sized {
    /// Called for every declaration.
    fn visit_decl(&mut self, decl: &Decl) {
        walk_decl(self, decl);
    }
    /// Called for every statement.
    fn visit_stmt(&mut self, stmt: &Stmt) {
        walk_stmt(self, stmt);
    }
    /// Called for every expression.
    fn visit_expr(&mut self, expr: &Expr) {
        walk_expr(self, expr);
    }
    /// Called for every type written in a declaration or expression.
    fn visit_type(&mut self, ty: &Type) {
        walk_type(self, ty);
    }
    /// A lexical scope opens.
    fn enter_scope(&mut self) {}
    /// The innermost lexical scope closes.
    fn leave_scope(&mut self) {}
    /// `name` of type `ty` is now in scope.
    fn declare(&mut self, name: &str, ty: &Type) {}
}

/// Walks a whole translation unit.
pub fn walk_tu<V: Visitor>(v: &mut V, tu: &TranslationUnit) {
    for d in &tu.decls {
        v.visit_decl(d);
    }
}

/// Walks one declaration's children.
pub fn walk_decl<V: Visitor>(v: &mut V, decl: &Decl) {
    match &decl.kind {
        DeclKind::Namespace(ns) => {
            for d in &ns.decls {
                v.visit_decl(d);
            }
        }
        DeclKind::Class(c) => {
            for (_, base) in &c.bases {
                v.visit_type(base);
            }
            for m in &c.members {
                v.visit_decl(&m.decl);
            }
        }
        DeclKind::Enum(e) => {
            if let Some(u) = &e.underlying {
                v.visit_type(u);
            }
        }
        DeclKind::Alias(a) => v.visit_type(&a.target),
        DeclKind::UsingDecl(_) | DeclKind::UsingNamespace(_) => {}
        DeclKind::Function(f) => walk_function(v, f),
        DeclKind::Variable(var) => {
            v.visit_type(&var.ty);
            if let Some(init) = &var.init {
                v.visit_expr(init);
            }
        }
        DeclKind::StaticAssert | DeclKind::Access(_) => {}
    }
}

/// Walks a function's signature types, then its body (when defined) in
/// a scope holding the parameters.
fn walk_function<V: Visitor>(v: &mut V, f: &FunctionDecl) {
    if let Some(ret) = &f.ret {
        v.visit_type(ret);
    }
    for p in &f.params {
        v.visit_type(&p.ty);
    }
    if let Some(body) = &f.body {
        v.enter_scope();
        for p in &f.params {
            v.declare(&p.name, &p.ty);
        }
        walk_stmts(v, &body.stmts);
        v.leave_scope();
    }
}

/// Walks a block in its own scope.
fn walk_block<V: Visitor>(v: &mut V, block: &Block) {
    v.enter_scope();
    walk_stmts(v, &block.stmts);
    v.leave_scope();
}

/// Visits statements in order, in the current scope.
pub fn walk_stmts<V: Visitor>(v: &mut V, stmts: &[Stmt]) {
    for s in stmts {
        v.visit_stmt(s);
    }
}

/// Walks a local variable: its type, its initializer, then declares it.
fn walk_local<V: Visitor>(v: &mut V, var: &VarDecl) {
    v.visit_type(&var.ty);
    if let Some(init) = &var.init {
        v.visit_expr(init);
    }
    v.declare(&var.name, &var.ty);
}

/// Walks one statement's children.
pub fn walk_stmt<V: Visitor>(v: &mut V, stmt: &Stmt) {
    match &stmt.kind {
        StmtKind::Expr(e) => v.visit_expr(e),
        StmtKind::Decl(var) => walk_local(v, var),
        StmtKind::Block(b) => walk_block(v, b),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            v.visit_expr(cond);
            v.visit_stmt(then_branch);
            if let Some(e) = else_branch {
                v.visit_stmt(e);
            }
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            v.enter_scope();
            match init.as_ref() {
                ForInit::Decl(var) => walk_local(v, var),
                ForInit::Expr(e) => v.visit_expr(e),
                ForInit::Empty => {}
            }
            if let Some(c) = cond {
                v.visit_expr(c);
            }
            if let Some(i) = inc {
                v.visit_expr(i);
            }
            v.visit_stmt(body);
            v.leave_scope();
        }
        StmtKind::RangeFor { var, range, body } => {
            v.enter_scope();
            v.visit_expr(range);
            walk_local(v, var);
            v.visit_stmt(body);
            v.leave_scope();
        }
        StmtKind::While { cond, body } => {
            v.visit_expr(cond);
            v.visit_stmt(body);
        }
        StmtKind::DoWhile { body, cond } => {
            v.visit_stmt(body);
            v.visit_expr(cond);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
    }
}

/// Walks one expression's children. A lambda's parameters and body share
/// one scope.
pub fn walk_expr<V: Visitor>(v: &mut V, expr: &Expr) {
    match &expr.kind {
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::Str(_)
        | ExprKind::Char(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Name(_)
        | ExprKind::Sizeof(_) => {}
        ExprKind::Unary { expr, .. } | ExprKind::Paren(expr) | ExprKind::Delete { expr, .. } => {
            v.visit_expr(expr)
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            v.visit_expr(lhs);
            v.visit_expr(rhs);
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => {
            v.visit_expr(cond);
            v.visit_expr(then_expr);
            v.visit_expr(else_expr);
        }
        ExprKind::Call { callee, args } => {
            v.visit_expr(callee);
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::Member { base, .. } => v.visit_expr(base),
        ExprKind::Index { base, index } => {
            v.visit_expr(base);
            v.visit_expr(index);
        }
        ExprKind::Lambda(l) => {
            v.enter_scope();
            for (ty, name) in &l.params {
                v.visit_type(ty);
                v.declare(name, ty);
            }
            walk_stmts(v, &l.body.stmts);
            v.leave_scope();
        }
        ExprKind::New { ty, args } => {
            v.visit_type(ty);
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::Cast { ty, expr, .. } => {
            v.visit_type(ty);
            v.visit_expr(expr);
        }
        ExprKind::BraceInit { ty, args } => {
            if let Some(t) = ty {
                v.visit_type(t);
            }
            for a in args {
                v.visit_expr(a);
            }
        }
    }
}

/// Walks one type's children: pointees, template arguments, function
/// types' parts.
pub fn walk_type<V: Visitor>(v: &mut V, ty: &Type) {
    match &ty.kind {
        TypeKind::Named(n) => {
            for seg in &n.segs {
                for arg in seg.args.iter().flatten() {
                    if let crate::ast::name::TemplateArg::Type(t) = arg {
                        v.visit_type(t);
                    }
                }
            }
        }
        TypeKind::Builtin(_) => {}
        TypeKind::Pointer(t)
        | TypeKind::LValueRef(t)
        | TypeKind::RValueRef(t)
        | TypeKind::Array(t, _) => v.visit_type(t),
        TypeKind::Function { ret, params } => {
            v.visit_type(ret);
            for p in params {
                v.visit_type(p);
            }
        }
    }
}

/// A rebuilding visitor over statements and expressions: hooks receive
/// nodes mutably and may replace them. Types are leaves; a pass that
/// rewrites a type does so in its own arm.
#[allow(unused_variables)]
pub trait VisitMut: Sized {
    /// Called for every statement.
    fn visit_stmt_mut(&mut self, stmt: &mut Stmt) {
        walk_stmt_mut(self, stmt);
    }
    /// Called for every expression.
    fn visit_expr_mut(&mut self, expr: &mut Expr) {
        walk_expr_mut(self, expr);
    }
    /// Called for every local variable: declaration statements, `for`
    /// initializers and range-`for` variables.
    fn visit_local_mut(&mut self, var: &mut VarDecl) {
        walk_local_mut(self, var);
    }
    /// A lexical scope opens.
    fn enter_scope(&mut self) {}
    /// The innermost lexical scope closes.
    fn leave_scope(&mut self) {}
    /// `name` of type `ty` is now in scope.
    fn declare(&mut self, name: &str, ty: &Type) {}
}

/// Visits statements in order, in the current scope.
pub fn walk_stmts_mut<V: VisitMut>(v: &mut V, stmts: &mut [Stmt]) {
    for s in stmts {
        v.visit_stmt_mut(s);
    }
}

/// Walks a local variable's initializer, then declares it.
pub fn walk_local_mut<V: VisitMut>(v: &mut V, var: &mut VarDecl) {
    if let Some(init) = &mut var.init {
        v.visit_expr_mut(init);
    }
    v.declare(&var.name, &var.ty);
}

/// Walks one statement's children, mirroring [`walk_stmt`].
pub fn walk_stmt_mut<V: VisitMut>(v: &mut V, stmt: &mut Stmt) {
    match &mut stmt.kind {
        StmtKind::Expr(e) => v.visit_expr_mut(e),
        StmtKind::Decl(var) => v.visit_local_mut(var),
        StmtKind::Block(b) => {
            v.enter_scope();
            walk_stmts_mut(v, &mut b.stmts);
            v.leave_scope();
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            v.visit_expr_mut(cond);
            v.visit_stmt_mut(then_branch);
            if let Some(e) = else_branch {
                v.visit_stmt_mut(e);
            }
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            v.enter_scope();
            match init.as_mut() {
                ForInit::Decl(var) => v.visit_local_mut(var),
                ForInit::Expr(e) => v.visit_expr_mut(e),
                ForInit::Empty => {}
            }
            if let Some(c) = cond {
                v.visit_expr_mut(c);
            }
            if let Some(i) = inc {
                v.visit_expr_mut(i);
            }
            v.visit_stmt_mut(body);
            v.leave_scope();
        }
        StmtKind::RangeFor { var, range, body } => {
            v.enter_scope();
            v.visit_expr_mut(range);
            v.visit_local_mut(var);
            v.visit_stmt_mut(body);
            v.leave_scope();
        }
        StmtKind::While { cond, body } => {
            v.visit_expr_mut(cond);
            v.visit_stmt_mut(body);
        }
        StmtKind::DoWhile { body, cond } => {
            v.visit_stmt_mut(body);
            v.visit_expr_mut(cond);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr_mut(e);
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
    }
}

/// Walks one expression's children, mirroring [`walk_expr`].
pub fn walk_expr_mut<V: VisitMut>(v: &mut V, expr: &mut Expr) {
    match &mut expr.kind {
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::Str(_)
        | ExprKind::Char(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Name(_)
        | ExprKind::Sizeof(_) => {}
        ExprKind::Unary { expr, .. } | ExprKind::Paren(expr) | ExprKind::Delete { expr, .. } => {
            v.visit_expr_mut(expr)
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            v.visit_expr_mut(lhs);
            v.visit_expr_mut(rhs);
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => {
            v.visit_expr_mut(cond);
            v.visit_expr_mut(then_expr);
            v.visit_expr_mut(else_expr);
        }
        ExprKind::Call { callee, args } => {
            v.visit_expr_mut(callee);
            for a in args {
                v.visit_expr_mut(a);
            }
        }
        ExprKind::Member { base, .. } => v.visit_expr_mut(base),
        ExprKind::Index { base, index } => {
            v.visit_expr_mut(base);
            v.visit_expr_mut(index);
        }
        ExprKind::Lambda(l) => {
            v.enter_scope();
            for (ty, name) in &l.params {
                v.declare(name, ty);
            }
            walk_stmts_mut(v, &mut l.body.stmts);
            v.leave_scope();
        }
        ExprKind::New { args, .. } | ExprKind::BraceInit { args, .. } => {
            for a in args {
                v.visit_expr_mut(a);
            }
        }
        ExprKind::Cast { expr, .. } => v.visit_expr_mut(expr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::ast::expr::LambdaExpr;
    use crate::ast::name::QualName;
    use crate::loc::Span;

    #[derive(Default)]
    struct Counter {
        decls: usize,
        exprs: usize,
        types: usize,
        lambdas: usize,
    }

    impl Visitor for Counter {
        fn visit_decl(&mut self, decl: &Decl) {
            self.decls += 1;
            walk_decl(self, decl);
        }
        fn visit_expr(&mut self, expr: &Expr) {
            self.exprs += 1;
            self.lambdas += matches!(expr.kind, ExprKind::Lambda(_)) as usize;
            walk_expr(self, expr);
        }
        fn visit_type(&mut self, ty: &Type) {
            self.types += 1;
            walk_type(self, ty);
        }
    }

    #[test]
    fn counts_nested_nodes() {
        // int f(double x) { return g([](int i){ return i; }); }
        let lambda = Expr::new(
            ExprKind::Lambda(LambdaExpr {
                id: 0,
                captures: vec![],
                params: vec![(Type::builtin(crate::ast::types::Builtin::Int), "i".into())],
                body: Block {
                    stmts: vec![Stmt::new(
                        StmtKind::Return(Some(Expr::new(
                            ExprKind::Name(QualName::ident("i")),
                            Span::dummy(),
                        ))),
                        Span::dummy(),
                    )],
                    span: Span::dummy(),
                },
            }),
            Span::dummy(),
        );
        let call = Expr::new(
            ExprKind::Call {
                callee: Box::new(Expr::new(
                    ExprKind::Name(QualName::ident("g")),
                    Span::dummy(),
                )),
                args: vec![lambda],
            },
            Span::dummy(),
        );
        let f = Decl::new(
            DeclKind::Function(Arc::new(FunctionDecl {
                name: crate::ast::decl::FunctionName::Ident("f".into()),
                qualifier: None,
                template: None,
                ret: Some(Type::builtin(crate::ast::types::Builtin::Int)),
                params: vec![crate::ast::decl::Param {
                    ty: Type::builtin(crate::ast::types::Builtin::Double),
                    name: "x".into(),
                    default: None,
                }],
                specs: Default::default(),
                body: Some(Block {
                    stmts: vec![Stmt::new(StmtKind::Return(Some(call)), Span::dummy())],
                    span: Span::dummy(),
                }),
            })),
            Span::dummy(),
        );
        let tu = TranslationUnit { decls: vec![f] };
        let mut c = Counter::default();
        walk_tu(&mut c, &tu);
        assert_eq!(c.decls, 1);
        assert_eq!(c.lambdas, 1);
        // g, lambda, call, i-name = 4 expressions
        assert_eq!(c.exprs, 4);
        // ret int, param double, lambda param int = 3 types
        assert_eq!(c.types, 3);
    }

    /// Records every name use as `name@depth` and every declaration as
    /// `+name@depth`, where depth counts the open scopes.
    #[derive(Default)]
    struct ScopeTrace {
        depth: usize,
        events: Vec<String>,
    }

    impl Visitor for ScopeTrace {
        fn visit_expr(&mut self, expr: &Expr) {
            if let ExprKind::Name(n) = &expr.kind {
                self.events.push(format!("{}@{}", n, self.depth));
            }
            walk_expr(self, expr);
        }
        fn enter_scope(&mut self) {
            self.depth += 1;
        }
        fn leave_scope(&mut self) {
            self.depth -= 1;
        }
        fn declare(&mut self, name: &str, _: &Type) {
            self.events.push(format!("+{name}@{}", self.depth));
        }
    }

    #[test]
    fn scopes_bracket_bodies_loops_and_lambdas() {
        let tu = crate::parse::parse_str(
            "void f(int a) { int b = a; for (int i = b; i; ) { int c = i; } \
             for (int x : xs) { } auto l = [](int p) { return p; }; }",
        )
        .unwrap();
        let mut t = ScopeTrace::default();
        walk_tu(&mut t, &tu);
        assert_eq!(t.depth, 0);
        assert_eq!(
            t.events,
            [
                "+a@1", "a@1", "+b@1", "b@2", "+i@2", "i@2", "i@3", "+c@3", "xs@2", "+x@2", "+p@2",
                "p@2", "+l@1",
            ]
        );
    }

    /// Renames every `x` to `y`, and leaves callees alone.
    struct Rename;

    impl VisitMut for Rename {
        fn visit_expr_mut(&mut self, expr: &mut Expr) {
            match &mut expr.kind {
                ExprKind::Name(n) if n.base_ident() == "x" => *n = QualName::ident("y"),
                ExprKind::Call { args, .. } => args.iter_mut().for_each(|a| self.visit_expr_mut(a)),
                _ => walk_expr_mut(self, expr),
            }
        }
    }

    #[test]
    fn rebuilding_walk_reaches_every_expression_position() {
        let src = "void f() { for (int i = x; x; x++) { if (x) x = static_cast<int>(x); \
                   else while (x) x = *new int(x); } do { x(x); } while (x); \
                   auto l = [&](int p) { return x ? x : -x; }; int a[2] = {x, x}; return; }";
        let tu = crate::parse::parse_str(src).unwrap();
        let DeclKind::Function(f) = &tu.decls[0].kind else {
            panic!("function expected")
        };
        let mut body = f.body.clone().unwrap();
        walk_stmts_mut(&mut Rename, &mut body.stmts);
        let out: String = body.stmts.iter().map(crate::pretty::print_stmt).collect();
        assert!(!out.replace("x(", "").contains('x'), "{out}");
        assert!(out.contains("x(y)"), "{out}");
    }
}
