//! Lambda → functor transformation (§3.4).
//!
//! A lambda passed as a template argument has an unutterable type, so a
//! templated wrapper taking it cannot be explicitly instantiated. Header
//! Substitution therefore replaces each such lambda with a generated
//! *functor*: a struct whose fields are the captured variables (with
//! pointerized types where the captured object's class became incomplete)
//! and whose `operator()` holds the lambda body, itself rewritten to call
//! wrappers instead of methods of incomplete classes.
//!
//! Captured variables the body **mutates** become pointer fields: the
//! construction site passes `&var` and body uses dereference — that keeps
//! the generated `operator()` `const` (required since the functor may be
//! passed by value into library templates) while preserving the
//! reference-capture semantics of the original `[&]` lambda.

use std::collections::HashSet;

use yalla_analysis::symbols::SymbolTable;
use yalla_analysis::usage::LambdaUse;
use yalla_cpp::ast::visit::{
    walk_expr, walk_expr_mut, walk_stmts, walk_stmts_mut, VisitMut, Visitor,
};
use yalla_cpp::ast::{Expr, ExprKind, QualName, Type, TypeKind, UnaryOp};

use crate::plan::{mentions_pointerized, pointerize_if_needed, Functor, Plan};
use crate::rewrite::Transformer;

/// Prefix of generated functor names.
pub const FUNCTOR_PREFIX: &str = "yalla_functor_";

/// Builds the functor replacing lambda `lu` (the `index`-th functor).
///
/// The functor's fields are the lambda's captures in first-use order —
/// this fixes the field order that the construction-site `{...}`
/// initializer list must follow.
pub fn make_functor(index: usize, lu: &LambdaUse, plan: &Plan, table: &SymbolTable) -> Functor {
    let name = format!("{FUNCTOR_PREFIX}{index}");

    // Which captures does the body assign to?
    let mut mutated = Mutated::default();
    walk_stmts(&mut mutated, &lu.lambda.body.stmts);
    // A mutated capture is reached through its address, unless it is a
    // reference (assignable from a `const` call operator as it is) or
    // an object of a pointerized class (already a pointer, mutated
    // through wrappers).
    let mutated_captures: HashSet<String> = lu
        .captured
        .iter()
        .filter(|(n, t)| {
            mutated.0.contains(n)
                && !matches!(t.kind, TypeKind::LValueRef(_) | TypeKind::RValueRef(_))
                && !mentions_pointerized(t, &plan.pointerized_classes, table)
        })
        .map(|(n, _)| n.clone())
        .collect();

    let fields: Vec<(String, Type)> = lu
        .captured
        .iter()
        .map(|(n, t)| {
            let ty = if mutated_captures.contains(n) {
                Type::pointer(t.clone())
            } else {
                pointerize_if_needed(t, &plan.pointerized_classes, table)
            };
            (n.clone(), ty)
        })
        .collect();

    // Rewrite the body: method/operator calls on captured objects go
    // through wrappers, and mutated captures read through their pointer.
    let mut body = lu.lambda.body.clone();
    let mut tr = Transformer::new(plan, table);
    tr.push_scope(fields.iter().cloned());
    tr.push_scope(lu.lambda.params.iter().map(|(t, n)| (n.clone(), t.clone())));
    walk_stmts_mut(&mut tr, &mut body.stmts);
    if !mutated_captures.is_empty() {
        walk_stmts_mut(&mut DerefMutated(&mutated_captures), &mut body.stmts);
    }

    Functor {
        name,
        fields,
        mutated_captures,
        params: lu.lambda.params.clone(),
        body,
        span: lu.span,
    }
}

/// Collects the names assigned (or incremented) anywhere in a body.
#[derive(Default)]
struct Mutated(HashSet<String>);

impl Visitor for Mutated {
    fn visit_expr(&mut self, e: &Expr) {
        let target = match &e.kind {
            ExprKind::Binary { op, lhs, .. } if op.is_assignment() => lhs.as_name(),
            ExprKind::Unary {
                op: UnaryOp::PreInc | UnaryOp::PostInc | UnaryOp::PreDec | UnaryOp::PostDec,
                expr,
            } => expr.as_name(),
            _ => None,
        };
        if let Some(n) = target.filter(|n| n.segs.len() == 1) {
            self.0.insert(n.segs[0].ident.clone());
        }
        walk_expr(self, e);
    }

    fn visit_type(&mut self, _: &Type) {}
}

/// Rewrites uses of mutated captures to `(*name)`.
struct DerefMutated<'a>(&'a HashSet<String>);

impl VisitMut for DerefMutated<'_> {
    fn visit_expr_mut(&mut self, expr: &mut Expr) {
        match &mut expr.kind {
            ExprKind::Name(n) if n.segs.len() == 1 && self.0.contains(&n.segs[0].ident) => {
                let name = Expr::new(ExprKind::Name(QualName::ident(&n.segs[0].ident)), expr.span);
                let deref = Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::Deref,
                        expr: Box::new(name),
                    },
                    expr.span,
                );
                expr.kind = ExprKind::Paren(Box::new(deref));
            }
            // The callee itself is left alone: calling through a mutated
            // capture is not in the subset.
            ExprKind::Call { args, .. } => args.iter_mut().for_each(|a| self.visit_expr_mut(a)),
            _ => walk_expr_mut(self, expr),
        }
    }
}
