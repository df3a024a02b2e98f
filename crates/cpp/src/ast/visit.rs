//! AST traversal.
//!
//! [`Visitor`] is a read-only, pre-order walker over declarations,
//! statements, expressions and types. The YALLA analysis passes (usage
//! collection, lambda discovery) are implemented as visitors, playing the
//! role Clang's `RecursiveASTVisitor` / AST matchers play in the original
//! tool.

use crate::ast::decl::{Decl, DeclKind, FunctionDecl, Param, TranslationUnit, VarDecl};
use crate::ast::expr::{Expr, ExprKind, LambdaExpr};
use crate::ast::stmt::{Block, ForInit, Stmt, StmtKind};
use crate::ast::types::{Type, TypeKind};

/// A read-only AST visitor. Override the hooks you care about; each hook is
/// called before the node's children are walked.
#[allow(unused_variables)]
pub trait Visitor {
    /// Called for every declaration.
    fn visit_decl(&mut self, decl: &Decl) {}
    /// Called for every statement.
    fn visit_stmt(&mut self, stmt: &Stmt) {}
    /// Called for every expression.
    fn visit_expr(&mut self, expr: &Expr) {}
    /// Called for every type written in a declaration/expression.
    fn visit_type(&mut self, ty: &Type) {}
    /// Called for every lambda (also visited as an expression).
    fn visit_lambda(&mut self, lambda: &LambdaExpr) {}
}

/// Walks a whole translation unit.
pub fn walk_tu<V: Visitor>(v: &mut V, tu: &TranslationUnit) {
    for d in &tu.decls {
        walk_decl(v, d);
    }
}

/// Walks one declaration (pre-order).
pub fn walk_decl<V: Visitor>(v: &mut V, decl: &Decl) {
    v.visit_decl(decl);
    match &decl.kind {
        DeclKind::Namespace(ns) => {
            for d in &ns.decls {
                walk_decl(v, d);
            }
        }
        DeclKind::Class(c) => {
            for (_, base) in &c.bases {
                walk_type(v, base);
            }
            for m in &c.members {
                walk_decl(v, &m.decl);
            }
        }
        DeclKind::Enum(e) => {
            if let Some(u) = &e.underlying {
                walk_type(v, u);
            }
        }
        DeclKind::Alias(a) => walk_type(v, &a.target),
        DeclKind::UsingDecl(_) | DeclKind::UsingNamespace(_) => {}
        DeclKind::Function(f) => walk_function(v, f),
        DeclKind::Variable(var) => walk_var(v, var),
        DeclKind::StaticAssert | DeclKind::Access(_) => {}
    }
}

fn walk_function<V: Visitor>(v: &mut V, f: &FunctionDecl) {
    if let Some(ret) = &f.ret {
        walk_type(v, ret);
    }
    for Param { ty, .. } in &f.params {
        walk_type(v, ty);
    }
    if let Some(body) = &f.body {
        walk_block(v, body);
    }
}

fn walk_var<V: Visitor>(v: &mut V, var: &VarDecl) {
    walk_type(v, &var.ty);
    if let Some(init) = &var.init {
        walk_expr(v, init);
    }
}

/// Walks a block.
pub fn walk_block<V: Visitor>(v: &mut V, block: &Block) {
    for s in &block.stmts {
        walk_stmt(v, s);
    }
}

/// Walks one statement (pre-order).
pub fn walk_stmt<V: Visitor>(v: &mut V, stmt: &Stmt) {
    v.visit_stmt(stmt);
    match &stmt.kind {
        StmtKind::Expr(e) => walk_expr(v, e),
        StmtKind::Decl(var) => walk_var(v, var),
        StmtKind::Block(b) => walk_block(v, b),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            walk_expr(v, cond);
            walk_stmt(v, then_branch);
            if let Some(e) = else_branch {
                walk_stmt(v, e);
            }
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            match init.as_ref() {
                ForInit::Decl(var) => walk_var(v, var),
                ForInit::Expr(e) => walk_expr(v, e),
                ForInit::Empty => {}
            }
            if let Some(c) = cond {
                walk_expr(v, c);
            }
            if let Some(i) = inc {
                walk_expr(v, i);
            }
            walk_stmt(v, body);
        }
        StmtKind::RangeFor { var, range, body } => {
            walk_var(v, var);
            walk_expr(v, range);
            walk_stmt(v, body);
        }
        StmtKind::While { cond, body } => {
            walk_expr(v, cond);
            walk_stmt(v, body);
        }
        StmtKind::DoWhile { body, cond } => {
            walk_stmt(v, body);
            walk_expr(v, cond);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                walk_expr(v, e);
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
    }
}

/// Walks one expression (pre-order).
pub fn walk_expr<V: Visitor>(v: &mut V, expr: &Expr) {
    v.visit_expr(expr);
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
        ExprKind::Unary { expr, .. } => walk_expr(v, expr),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(v, lhs);
            walk_expr(v, rhs);
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => {
            walk_expr(v, cond);
            walk_expr(v, then_expr);
            walk_expr(v, else_expr);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(v, callee);
            for a in args {
                walk_expr(v, a);
            }
        }
        ExprKind::Member { base, .. } => walk_expr(v, base),
        ExprKind::Index { base, index } => {
            walk_expr(v, base);
            walk_expr(v, index);
        }
        ExprKind::Lambda(l) => {
            v.visit_lambda(l);
            for (ty, _) in &l.params {
                walk_type(v, ty);
            }
            walk_block(v, &l.body);
        }
        ExprKind::New { ty, args } => {
            walk_type(v, ty);
            for a in args {
                walk_expr(v, a);
            }
        }
        ExprKind::Delete { expr, .. } => walk_expr(v, expr),
        ExprKind::Cast { ty, expr, .. } => {
            walk_type(v, ty);
            walk_expr(v, expr);
        }
        ExprKind::BraceInit { ty, args } => {
            if let Some(t) = ty {
                walk_type(v, t);
            }
            for a in args {
                walk_expr(v, a);
            }
        }
        ExprKind::Paren(inner) => walk_expr(v, inner),
    }
}

/// Walks one type (pre-order), visiting nested types and template args.
pub fn walk_type<V: Visitor>(v: &mut V, ty: &Type) {
    v.visit_type(ty);
    match &ty.kind {
        TypeKind::Named(n) => {
            for seg in &n.segs {
                if let Some(args) = &seg.args {
                    for arg in args {
                        if let crate::ast::name::TemplateArg::Type(t) = arg {
                            walk_type(v, t);
                        }
                    }
                }
            }
        }
        TypeKind::Builtin(_) => {}
        TypeKind::Pointer(t)
        | TypeKind::LValueRef(t)
        | TypeKind::RValueRef(t)
        | TypeKind::Array(t, _) => walk_type(v, t),
        TypeKind::Function { ret, params } => {
            walk_type(v, ret);
            for p in params {
                walk_type(v, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        fn visit_decl(&mut self, _: &Decl) {
            self.decls += 1;
        }
        fn visit_expr(&mut self, _: &Expr) {
            self.exprs += 1;
        }
        fn visit_type(&mut self, _: &Type) {
            self.types += 1;
        }
        fn visit_lambda(&mut self, _: &LambdaExpr) {
            self.lambdas += 1;
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
}
