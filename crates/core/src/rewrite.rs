//! Source rewriting: the code transformations of §3.3.
//!
//! Two layers:
//!
//! * [`Transformer`] — a pure AST→AST mapping that redirects call sites to
//!   wrappers, pointerizes declarations of now-incomplete classes,
//!   replaces enum constants with literals, and swaps lambdas for functor
//!   construction;
//! * [`apply_edits`] / [`rewrite_file`] — text splicing that writes those
//!   transformations back into the user's files at statement granularity,
//!   keyed by byte spans (the same strategy as Clang's `Rewriter`).

use std::collections::HashMap;
use std::sync::Arc;

use yalla_analysis::aliases::AliasResolver;
use yalla_analysis::symbols::{SymbolKind, SymbolTable};
use yalla_cpp::ast::{
    Decl, DeclKind, Expr, ExprKind, ForInit, NameSeg, QualName, Stmt, StmtKind, Type, VarDecl,
};
use yalla_cpp::loc::{FileId, Span};
use yalla_cpp::pretty;

use crate::plan::{MemberKind, Plan};

/// One text replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Byte range to replace.
    pub span: Span,
    /// Replacement text.
    pub replacement: String,
}

/// Applies `edits` to `text`. Edits contained inside another edit are
/// dropped (the outer edit's replacement already reflects the inner
/// transformation, because transformations are computed on whole
/// statements). Remaining edits must be non-overlapping.
pub fn apply_edits(text: &str, mut edits: Vec<Edit>) -> String {
    edits.sort_by_key(|e| (e.span.start, std::cmp::Reverse(e.span.end)));
    // Drop edits contained in an earlier (larger) edit.
    let mut kept: Vec<Edit> = Vec::with_capacity(edits.len());
    for e in edits {
        if let Some(prev) = kept.last() {
            if e.span.start >= prev.span.start && e.span.end <= prev.span.end {
                continue;
            }
        }
        kept.push(e);
    }
    let mut out = String::with_capacity(text.len());
    let mut cursor = 0usize;
    for e in kept {
        let start = e.span.start as usize;
        let end = e.span.end as usize;
        if start < cursor || end > text.len() {
            continue; // overlapping or out-of-range edit: skip defensively
        }
        out.push_str(&text[cursor..start]);
        out.push_str(&e.replacement);
        cursor = end;
    }
    out.push_str(&text[cursor..]);
    out
}

/// The AST transformer implementing Table 1's usage rewrites.
pub struct Transformer<'p> {
    plan: &'p Plan,
    table: &'p SymbolTable,
    /// Lexical scopes (name → declared type as written).
    scopes: Vec<HashMap<String, Type>>,
    /// Wrapper lookup: function key → wrapper name.
    fn_wrapper_names: HashMap<String, String>,
    /// Wrapper lookup: (class key, member) → (wrapper name, kind).
    member_wrappers: HashMap<(String, String), (String, MemberKind)>,
    /// Enum constants: (enum key, constant) → value; plus enum key → underlying.
    enum_constants: HashMap<(String, String), i64>,
    /// Functors by lambda span.
    functors_by_span: HashMap<Span, usize>,
}

impl<'p> Transformer<'p> {
    /// Creates a transformer for `plan`.
    pub fn new(plan: &'p Plan, table: &'p SymbolTable) -> Self {
        let fn_wrapper_names = plan
            .fn_wrappers
            .iter()
            .map(|w| (w.original_key.clone(), w.wrapper_name.clone()))
            .collect();
        let member_wrappers = plan
            .method_wrappers
            .iter()
            .map(|w| {
                (
                    (w.class_key.clone(), w.member.clone()),
                    (w.wrapper_name.clone(), w.kind),
                )
            })
            .collect();
        let mut enum_constants = HashMap::new();
        for e in &plan.enums {
            for (name, value) in &e.constants {
                enum_constants.insert((e.key.clone(), name.clone()), *value);
            }
        }
        let functors_by_span = plan
            .functors
            .iter()
            .enumerate()
            .map(|(i, f)| (f.span, i))
            .collect();
        Transformer {
            plan,
            table,
            scopes: Vec::new(),
            fn_wrapper_names,
            member_wrappers,
            enum_constants,
            functors_by_span,
        }
    }

    /// Pushes a scope of known variable types (captures, params).
    pub fn push_scope(&mut self, vars: impl IntoIterator<Item = (String, Type)>) {
        self.scopes.push(vars.into_iter().collect());
    }

    /// Pops the innermost scope.
    pub fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn lookup(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// The class key a written type resolves to, through aliases.
    fn class_key_of(&self, ty: &Type) -> Option<String> {
        let aliases = AliasResolver::new(self.table);
        let resolved = aliases.resolve_type(ty);
        let core = resolved.core_name()?;
        aliases
            .resolve_key_to_class(&core.key())
            .or_else(|| self.table.resolve(&core.key()).map(|s| s.key.clone()))
    }

    /// Rewrites a variable declaration: pointerize the type when it is a
    /// by-value use of a pointerized class; swap enum types for their
    /// underlying type.
    pub fn transform_var_decl(&mut self, v: &VarDecl) -> VarDecl {
        let mut out = v.clone();
        if out.ty.is_by_value() {
            if let Some(key) = self.class_key_of(&out.ty) {
                if self.plan.pointerized_classes.contains(&key) {
                    out.ty = Type::pointer(out.ty.clone());
                }
            }
            if let Some(u) = self.enum_underlying(&out.ty) {
                out.ty = u;
            }
        }
        if let Some(init) = &mut out.init {
            *init = self.transform_expr(init);
        }
        out
    }

    fn enum_underlying(&self, ty: &Type) -> Option<Type> {
        let core = ty.core_name()?;
        let sym = self.table.resolve(&core.key())?;
        let e = self.plan.enums.iter().find(|e| e.key == sym.key)?;
        let parsed = yalla_cpp::parse::parse_str(&format!("{} __x;", e.underlying)).ok()?;
        match &parsed.decls.first()?.kind {
            DeclKind::Variable(v) => Some(v.ty.clone()),
            _ => None,
        }
    }

    /// Rewrites a statement tree.
    pub fn transform_stmt(&mut self, stmt: &Stmt) -> Stmt {
        let kind = match &stmt.kind {
            StmtKind::Expr(e) => StmtKind::Expr(self.transform_expr(e)),
            StmtKind::Decl(v) => {
                let nv = self.transform_var_decl(v);
                if let Some(scope) = self.scopes.last_mut() {
                    scope.insert(v.name.clone(), v.ty.clone());
                }
                StmtKind::Decl(nv)
            }
            StmtKind::Block(b) => {
                self.scopes.push(HashMap::new());
                let stmts = b.stmts.iter().map(|s| self.transform_stmt(s)).collect();
                self.scopes.pop();
                StmtKind::Block(yalla_cpp::ast::Block {
                    stmts,
                    span: b.span,
                })
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => StmtKind::If {
                cond: self.transform_expr(cond),
                then_branch: Box::new(self.transform_stmt(then_branch)),
                else_branch: else_branch
                    .as_ref()
                    .map(|e| Box::new(self.transform_stmt(e))),
            },
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let init = match init.as_ref() {
                    ForInit::Decl(v) => {
                        let nv = self.transform_var_decl(v);
                        if let Some(scope) = self.scopes.last_mut() {
                            scope.insert(v.name.clone(), v.ty.clone());
                        }
                        ForInit::Decl(nv)
                    }
                    ForInit::Expr(e) => ForInit::Expr(self.transform_expr(e)),
                    ForInit::Empty => ForInit::Empty,
                };
                let out = StmtKind::For {
                    init: Box::new(init),
                    cond: cond.as_ref().map(|e| self.transform_expr(e)),
                    inc: inc.as_ref().map(|e| self.transform_expr(e)),
                    body: Box::new(self.transform_stmt(body)),
                };
                self.scopes.pop();
                out
            }
            StmtKind::RangeFor { var, range, body } => {
                self.scopes.push(HashMap::new());
                let nv = self.transform_var_decl(var);
                if let Some(scope) = self.scopes.last_mut() {
                    scope.insert(var.name.clone(), var.ty.clone());
                }
                let out = StmtKind::RangeFor {
                    var: nv,
                    range: self.transform_expr(range),
                    body: Box::new(self.transform_stmt(body)),
                };
                self.scopes.pop();
                out
            }
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.transform_expr(cond),
                body: Box::new(self.transform_stmt(body)),
            },
            StmtKind::DoWhile { body, cond } => StmtKind::DoWhile {
                body: Box::new(self.transform_stmt(body)),
                cond: self.transform_expr(cond),
            },
            StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(|e| self.transform_expr(e))),
            other => other.clone(),
        };
        Stmt::new(kind, stmt.span)
    }

    /// Rewrites an expression tree.
    pub fn transform_expr(&mut self, expr: &Expr) -> Expr {
        let kind = match &expr.kind {
            ExprKind::Call { callee, args } => return self.transform_call(expr, callee, args),
            ExprKind::Member {
                base,
                arrow,
                member,
            } => {
                // Bare field access via wrapper.
                if let Some(class_key) = self.infer_type(base).and_then(|t| self.class_key_of(&t)) {
                    if let Some((wname, MemberKind::Field)) = self
                        .member_wrappers
                        .get(&(class_key.clone(), member.ident.clone()))
                        .cloned()
                    {
                        let new_base = self.transform_expr(base);
                        return Expr::new(
                            ExprKind::Call {
                                callee: Box::new(Expr::new(
                                    ExprKind::Name(QualName::ident(wname)),
                                    expr.span,
                                )),
                                args: vec![new_base],
                            },
                            expr.span,
                        );
                    }
                }
                ExprKind::Member {
                    base: Box::new(self.transform_expr(base)),
                    arrow: *arrow,
                    member: member.clone(),
                }
            }
            ExprKind::Name(n) => {
                // Enum constant → literal: `Enum::CONST` or, for unscoped
                // enums, `Namespace::CONST`.
                if n.segs.len() >= 2 {
                    let prefix = QualName {
                        global: n.global,
                        segs: n.segs[..n.segs.len() - 1].to_vec(),
                    };
                    let base = n.base_ident().to_string();
                    if let Some(sym) = self.table.resolve(&prefix.key()) {
                        if let Some(v) = self.enum_constants.get(&(sym.key.clone(), base.clone())) {
                            return Expr::new(ExprKind::Int(*v), expr.span);
                        }
                        // Unscoped-enum constant through the namespace: any
                        // replaced enum directly inside `prefix`.
                        let ns = sym.key.clone();
                        if let Some(v) = self.enum_constants.iter().find_map(|((ek, c), v)| {
                            let parent = ek.rsplit_once("::").map(|(p, _)| p).unwrap_or("");
                            (parent == ns && *c == base).then_some(*v)
                        }) {
                            return Expr::new(ExprKind::Int(v), expr.span);
                        }
                    }
                }
                ExprKind::Name(n.clone())
            }
            ExprKind::Lambda(_) => {
                // Lambda replaced by functor construction.
                if let Some(&idx) = self.functors_by_span.get(&expr.span) {
                    let functor = &self.plan.functors[idx];
                    let args: Vec<Expr> = functor
                        .fields
                        .iter()
                        .map(|(name, _)| {
                            let base =
                                Expr::new(ExprKind::Name(QualName::ident(name.clone())), expr.span);
                            if functor.mutated_captures.contains(name) {
                                // Mutated captures are pointer fields:
                                // pass the variable's address.
                                Expr::new(
                                    ExprKind::Unary {
                                        op: yalla_cpp::ast::UnaryOp::AddrOf,
                                        expr: Box::new(base),
                                    },
                                    expr.span,
                                )
                            } else {
                                base
                            }
                        })
                        .collect();
                    return Expr::new(
                        ExprKind::BraceInit {
                            ty: Some(Type::named(QualName::ident(functor.name.clone()))),
                            args,
                        },
                        expr.span,
                    );
                }
                expr.kind.clone()
            }
            ExprKind::Unary { op, expr: e } => ExprKind::Unary {
                op: *op,
                expr: Box::new(self.transform_expr(e)),
            },
            ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                op: *op,
                lhs: Box::new(self.transform_expr(lhs)),
                rhs: Box::new(self.transform_expr(rhs)),
            },
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => ExprKind::Conditional {
                cond: Box::new(self.transform_expr(cond)),
                then_expr: Box::new(self.transform_expr(then_expr)),
                else_expr: Box::new(self.transform_expr(else_expr)),
            },
            ExprKind::Index { base, index } => ExprKind::Index {
                base: Box::new(self.transform_expr(base)),
                index: Box::new(self.transform_expr(index)),
            },
            ExprKind::Paren(e) => ExprKind::Paren(Box::new(self.transform_expr(e))),
            ExprKind::Cast { kind, ty, expr: e } => {
                let new_ty = self.enum_underlying(ty).unwrap_or_else(|| ty.clone());
                ExprKind::Cast {
                    kind: kind.clone(),
                    ty: new_ty,
                    expr: Box::new(self.transform_expr(e)),
                }
            }
            ExprKind::New { ty, args } => ExprKind::New {
                ty: ty.clone(),
                args: args.iter().map(|a| self.transform_expr(a)).collect(),
            },
            ExprKind::BraceInit { ty, args } => ExprKind::BraceInit {
                ty: ty.clone(),
                args: args.iter().map(|a| self.transform_expr(a)).collect(),
            },
            ExprKind::Delete { array, expr: e } => ExprKind::Delete {
                array: *array,
                expr: Box::new(self.transform_expr(e)),
            },
            other => other.clone(),
        };
        Expr::new(kind, expr.span)
    }

    fn transform_call(&mut self, whole: &Expr, callee: &Expr, args: &[Expr]) -> Expr {
        // Method call via member access.
        if let ExprKind::Member { base, member, .. } = &callee.kind {
            if let Some(class_key) = self.infer_type(base).and_then(|t| self.class_key_of(&t)) {
                if let Some((wname, _)) = self
                    .member_wrappers
                    .get(&(class_key.clone(), member.ident.clone()))
                    .cloned()
                {
                    let mut new_args = vec![self.transform_expr(base)];
                    new_args.extend(args.iter().map(|a| self.transform_expr(a)));
                    return Expr::new(
                        ExprKind::Call {
                            callee: Box::new(Expr::new(
                                ExprKind::Name(QualName::ident(wname)),
                                callee.span,
                            )),
                            args: new_args,
                        },
                        whole.span,
                    );
                }
            }
        }
        // Call-operator call on a known object, or wrapped free function.
        if let ExprKind::Name(n) = &callee.kind {
            if n.segs.len() == 1 {
                if let Some(ty) = self.lookup(&n.segs[0].ident).cloned() {
                    if let Some(class_key) = self.class_key_of(&ty) {
                        if let Some((wname, MemberKind::CallOperator)) = self
                            .member_wrappers
                            .get(&(class_key.clone(), "operator()".to_string()))
                            .cloned()
                        {
                            let mut new_args =
                                vec![Expr::new(ExprKind::Name(n.clone()), callee.span)];
                            new_args.extend(args.iter().map(|a| self.transform_expr(a)));
                            return Expr::new(
                                ExprKind::Call {
                                    callee: Box::new(Expr::new(
                                        ExprKind::Name(QualName::ident(wname)),
                                        callee.span,
                                    )),
                                    args: new_args,
                                },
                                whole.span,
                            );
                        }
                    }
                }
            }
            // Free function with a wrapper.
            if let Some(sym) = self.table.resolve(&n.key()) {
                if let Some(wname) = self.fn_wrapper_names.get(&sym.key).cloned() {
                    // The wrapper lives at global scope; keep any explicit
                    // template args from the original call.
                    let new_callee = QualName {
                        global: false,
                        segs: vec![NameSeg {
                            ident: wname,
                            args: n.last().args.clone(),
                        }],
                    };
                    let new_args: Vec<Expr> = args.iter().map(|a| self.transform_expr(a)).collect();
                    return Expr::new(
                        ExprKind::Call {
                            callee: Box::new(Expr::new(ExprKind::Name(new_callee), callee.span)),
                            args: new_args,
                        },
                        whole.span,
                    );
                }
            }
        }
        Expr::new(
            ExprKind::Call {
                callee: Box::new(self.transform_expr(callee)),
                args: args.iter().map(|a| self.transform_expr(a)).collect(),
            },
            whole.span,
        )
    }

    /// Minimal local type inference (mirrors the analysis collector).
    fn infer_type(&self, expr: &Expr) -> Option<Type> {
        match &expr.kind {
            ExprKind::Name(n) => {
                if n.segs.len() == 1 {
                    if let Some(t) = self.lookup(&n.segs[0].ident) {
                        return Some(t.clone());
                    }
                }
                match &self.table.resolve(&n.key())?.kind {
                    SymbolKind::Variable(t) => Some((**t).clone()),
                    _ => None,
                }
            }
            ExprKind::Paren(e) => self.infer_type(e),
            ExprKind::Unary { op, expr: e } => {
                let t = self.infer_type(e)?;
                match op {
                    yalla_cpp::ast::UnaryOp::Deref => match t.kind {
                        yalla_cpp::ast::TypeKind::Pointer(inner) => Some(*inner),
                        _ => Some(t),
                    },
                    yalla_cpp::ast::UnaryOp::AddrOf => Some(Type::pointer(t)),
                    _ => Some(t),
                }
            }
            ExprKind::Member { base, member, .. } => {
                let class_key = self.infer_type(base).and_then(|t| self.class_key_of(&t))?;
                match &self.table.get(&class_key)?.kind {
                    SymbolKind::Class(c) => c
                        .fields()
                        .find(|(_, f)| f.name == member.ident)
                        .map(|(_, f)| f.ty.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// Rewrites one source file: swaps the `#include` of `header_name` for the
/// lightweight header, and applies the transformer at statement/member
/// granularity for every declaration belonging to `file`.
pub fn rewrite_file(
    file: FileId,
    text: &str,
    header_name: &str,
    lightweight_name: &str,
    decls: &[&Decl],
    transformer: &mut Transformer<'_>,
) -> String {
    let mut edits = Vec::new();
    // 1. Replace the include directive (textual scan).
    for (start, line) in line_offsets(text) {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('#') {
            continue;
        }
        let rest = trimmed[1..].trim_start();
        if !rest.starts_with("include") {
            continue;
        }
        if line.contains(&format!("<{header_name}>"))
            || line.contains(&format!("\"{header_name}\""))
            || header_basename_matches(line, header_name)
        {
            let span = Span::new(file, start as u32, (start + line.len()) as u32);
            edits.push(Edit {
                span,
                replacement: format!("#include \"{lightweight_name}\""),
            });
        }
    }
    // 2. Transform declarations.
    for decl in decls {
        collect_decl_edits(decl, file, transformer, &mut edits);
    }
    yalla_obs::count(
        yalla_obs::metrics::names::REWRITES_APPLIED,
        edits.len() as i64,
    );
    apply_edits(text, edits)
}

fn header_basename_matches(line: &str, header_name: &str) -> bool {
    let base = header_name.rsplit('/').next().unwrap_or(header_name);
    (line.contains(&format!("/{base}>")) || line.contains(&format!("/{base}\"")))
        && (line.contains('<') || line.contains('"'))
}

fn line_offsets(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        out.push((start, line.trim_end_matches(['\n', '\r'])));
        start += line.len();
    }
    out
}

fn collect_decl_edits(decl: &Decl, file: FileId, tr: &mut Transformer<'_>, edits: &mut Vec<Edit>) {
    match &decl.kind {
        DeclKind::Namespace(ns) => {
            for d in &ns.decls {
                collect_decl_edits(d, file, tr, edits);
            }
        }
        DeclKind::Class(c) => {
            for m in &c.members {
                if m.decl.span.file != file {
                    continue;
                }
                match &m.decl.kind {
                    DeclKind::Variable(v) => {
                        let nv = tr.transform_var_decl(v);
                        if nv != *v {
                            let mut text = pretty_var(&nv);
                            text.push(';');
                            edits.push(Edit {
                                span: m.decl.span,
                                replacement: text,
                            });
                        }
                    }
                    DeclKind::Function(f) => {
                        collect_function_edits(f, &m.decl, file, Some(c), tr, edits);
                    }
                    _ => {}
                }
            }
        }
        DeclKind::Function(f) => {
            if decl.span.file != file {
                return;
            }
            // Out-of-line method definitions get the owning class's fields
            // in scope.
            let class =
                f.qualifier
                    .as_ref()
                    .and_then(|q| match &tr.table.resolve(&q.key())?.kind {
                        SymbolKind::Class(c) => Some(Arc::clone(c)),
                        _ => None,
                    });
            collect_function_edits(f, decl, file, class.as_deref(), tr, edits);
        }
        DeclKind::Variable(v) => {
            if decl.span.file != file {
                return;
            }
            let nv = tr.transform_var_decl(v);
            if nv != *v {
                let mut text = pretty_var(&nv);
                text.push(';');
                edits.push(Edit {
                    span: decl.span,
                    replacement: text,
                });
            }
        }
        DeclKind::Alias(a) => {
            if decl.span.file != file {
                return;
            }
            // Aliases whose target goes through a *nested* member alias
            // must be re-pointed at the resolved (non-nested) class — the
            // paper's member_type rewrite (Figure 4b line 8).
            let aliases = AliasResolver::new(tr.table);
            if let Some(core) = a.target.core_name() {
                if let Some(sym) = tr.table.resolve(&core.key()) {
                    if sym.nested_in_class {
                        let resolved = aliases.resolve_type(&a.target);
                        if resolved != a.target {
                            edits.push(Edit {
                                span: decl.span,
                                replacement: format!("using {} = {};", a.name, resolved),
                            });
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

fn collect_function_edits(
    f: &yalla_cpp::ast::FunctionDecl,
    decl: &Decl,
    _file: FileId,
    class: Option<&yalla_cpp::ast::ClassDecl>,
    tr: &mut Transformer<'_>,
    edits: &mut Vec<Edit>,
) {
    let Some(body) = &f.body else { return };
    let mut scope: Vec<(String, Type)> = Vec::new();
    if let Some(c) = class {
        for (_, field) in c.fields() {
            // Fields are seen *post-transformation*: pointerized classes
            // have pointer-typed fields by the time this body compiles.
            let transformed = tr.transform_var_decl(field);
            scope.push((field.name.clone(), transformed.ty));
        }
    }
    for p in &f.params {
        if !p.name.is_empty() {
            scope.push((p.name.clone(), p.ty.clone()));
        }
    }
    tr.push_scope(scope);
    for stmt in &body.stmts {
        let new_stmt = tr.transform_stmt(stmt);
        if new_stmt != *stmt {
            let rendered = pretty::print_stmt(&new_stmt);
            edits.push(Edit {
                span: stmt.span,
                replacement: rendered.trim_end().to_string(),
            });
        }
    }
    tr.pop_scope();
    let _ = decl;
}

fn pretty_var(v: &VarDecl) -> String {
    // Reuse the pretty printer through a wrapping declaration.
    let d = Decl::new(DeclKind::Variable(v.clone()), Span::dummy());
    pretty::print_decl(&d)
        .trim_end()
        .trim_end_matches(';')
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_edits_basic() {
        let text = "hello cruel world";
        let edits = vec![Edit {
            span: Span::new(FileId(0), 6, 11),
            replacement: "kind".into(),
        }];
        assert_eq!(apply_edits(text, edits), "hello kind world");
    }

    #[test]
    fn apply_edits_multiple_out_of_order() {
        let text = "a b c";
        let edits = vec![
            Edit {
                span: Span::new(FileId(0), 4, 5),
                replacement: "C".into(),
            },
            Edit {
                span: Span::new(FileId(0), 0, 1),
                replacement: "A".into(),
            },
        ];
        assert_eq!(apply_edits(text, edits), "A b C");
    }

    #[test]
    fn contained_edits_are_dropped() {
        let text = "f(g(x))";
        let edits = vec![
            Edit {
                span: Span::new(FileId(0), 0, 7),
                replacement: "F(G(X))".into(),
            },
            Edit {
                span: Span::new(FileId(0), 2, 6),
                replacement: "IGNORED".into(),
            },
        ];
        assert_eq!(apply_edits(text, edits), "F(G(X))");
    }

    #[test]
    fn insertion_via_empty_span() {
        let text = "int x;";
        let edits = vec![Edit {
            span: Span::new(FileId(0), 3, 3),
            replacement: "*".into(),
        }];
        assert_eq!(apply_edits(text, edits), "int* x;");
    }

    #[test]
    fn line_offsets_cover_whole_text() {
        let text = "a\nbb\n\nccc";
        let lines = line_offsets(text);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], (0, "a"));
        assert_eq!(lines[1], (2, "bb"));
        assert_eq!(lines[3], (6, "ccc"));
    }
}
