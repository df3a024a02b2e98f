//! Source rewriting: the code transformations of §3.3.
//!
//! Two layers:
//!
//! * [`Transformer`] — a rebuilding AST visitor that redirects call sites to
//!   wrappers, pointerizes declarations of now-incomplete classes,
//!   replaces enum constants with literals, and swaps lambdas for functor
//!   construction;
//! * [`apply_edits`] / [`rewrite_file`] — text splicing that writes those
//!   transformations back into the user's files at statement granularity,
//!   keyed by byte spans (the same strategy as Clang's `Rewriter`).

use std::collections::HashMap;

use yalla_analysis::scope::Scopes;
use yalla_analysis::symbols::SymbolTable;
use yalla_cpp::ast::visit::{walk_expr_mut, walk_local_mut, VisitMut};
use yalla_cpp::ast::{
    ClassDecl, Decl, DeclKind, Expr, ExprKind, FunctionDecl, NameSeg, QualName, Type, UnaryOp,
    VarDecl,
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

/// The AST transformer implementing Table 1's usage rewrites: a
/// rebuilding visitor whose own arms are the call, member, name, lambda
/// and cast rewrites. Receivers are inferred by the same [`Scopes`] model
/// the usage collector used to plan the wrappers.
pub struct Transformer<'p> {
    plan: &'p Plan,
    scopes: Scopes<'p>,
    /// Wrapper lookup: function key → wrapper name.
    fn_wrapper_names: HashMap<String, String>,
    /// Wrapper lookup: (class key, member) → (wrapper name, kind).
    member_wrappers: HashMap<(String, String), (String, MemberKind)>,
    /// Enum constants: (enum key, constant) → value.
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
            scopes: Scopes::new(table),
            fn_wrapper_names,
            member_wrappers,
            enum_constants,
            functors_by_span,
        }
    }

    /// Pushes a scope of known variable types (captures, params).
    pub fn push_scope(&mut self, vars: impl IntoIterator<Item = (String, Type)>) {
        self.scopes.push(vars);
    }

    /// Pointerizes a by-value use of a pointerized class; swaps an enum
    /// type for its underlying type.
    fn retype(&self, v: &mut VarDecl) {
        if !v.ty.is_by_value() {
            return;
        }
        if let Some(key) = self.scopes.class_key_of(&v.ty) {
            if self.plan.pointerized_classes.contains(&key) {
                v.ty = Type::pointer(v.ty.clone());
            }
        }
        if let Some(u) = self.enum_underlying(&v.ty) {
            v.ty = u;
        }
    }

    fn enum_underlying(&self, ty: &Type) -> Option<Type> {
        let sym = self.scopes.resolve(ty.core_name()?)?;
        let e = self.plan.enums.iter().find(|e| e.key == sym.key)?;
        let parsed = yalla_cpp::parse::parse_str(&format!("{} __x;", e.underlying)).ok()?;
        match &parsed.decls.first()?.kind {
            DeclKind::Variable(v) => Some(v.ty.clone()),
            _ => None,
        }
    }

    /// The value of an enum constant `Enum::CONST` or, for unscoped
    /// enums, `Namespace::CONST`.
    fn enum_constant(&self, n: &QualName) -> Option<i64> {
        let prefix = n.prefix()?;
        let base = n.base_ident();
        let key = &self.scopes.resolve(&prefix)?.key;
        if let Some(v) = self.enum_constants.get(&(key.clone(), base.to_string())) {
            return Some(*v);
        }
        // Unscoped-enum constant through the namespace: any replaced enum
        // directly inside `prefix`.
        self.enum_constants.iter().find_map(|((ek, c), v)| {
            let parent = ek.rsplit_once("::").map(|(p, _)| p).unwrap_or("");
            (parent == key && c == base).then_some(*v)
        })
    }

    /// The wrapper planned for `member` of the object `base` denotes.
    fn member_wrapper(&self, base: &Expr, member: &str) -> Option<&(String, MemberKind)> {
        let class_key = self.scopes.infer_class_of(base)?;
        self.member_wrappers.get(&(class_key, member.to_string()))
    }

    /// The replacement for `expr` itself, when one of Table 1's rewrites
    /// applies; the walk then rewrites the replacement's children.
    fn rewrite(&self, expr: &Expr) -> Option<Expr> {
        let call = |callee: QualName, callee_span: Span, args: Vec<Expr>| {
            let callee = Box::new(Expr::new(ExprKind::Name(callee), callee_span));
            Expr::new(ExprKind::Call { callee, args }, expr.span)
        };
        match &expr.kind {
            ExprKind::Call { callee, args } => match &callee.kind {
                // Method call via member access: the receiver becomes the
                // wrapper's first argument.
                ExprKind::Member { base, member, .. } => {
                    let (wname, _) = self.member_wrapper(base, &member.ident)?;
                    let args = std::iter::once((**base).clone()).chain(args.iter().cloned());
                    Some(call(QualName::ident(wname), callee.span, args.collect()))
                }
                ExprKind::Name(n) => {
                    // Call-operator call on a known object.
                    if let Some(ty) = self.scopes.lookup(&n.key()) {
                        let key = (self.scopes.class_key_of(ty)?, "operator()".to_string());
                        let (wname, MemberKind::CallOperator) = self.member_wrappers.get(&key)?
                        else {
                            return None;
                        };
                        let object = Expr::new(ExprKind::Name(n.clone()), callee.span);
                        let args = std::iter::once(object).chain(args.iter().cloned());
                        return Some(call(QualName::ident(wname), callee.span, args.collect()));
                    }
                    // Free function with a wrapper. The wrapper lives at
                    // global scope; keep any explicit template args.
                    let wname = self.fn_wrapper_names.get(&self.scopes.resolve(n)?.key)?;
                    let callee_name = QualName {
                        global: false,
                        segs: vec![NameSeg {
                            ident: wname.clone(),
                            args: n.last().args.clone(),
                        }],
                    };
                    Some(call(callee_name, callee.span, args.clone()))
                }
                _ => None,
            },
            // Bare field access via its accessor wrapper.
            ExprKind::Member { base, member, .. } => {
                match self.member_wrapper(base, &member.ident)? {
                    (wname, MemberKind::Field) => Some(call(
                        QualName::ident(wname),
                        expr.span,
                        vec![(**base).clone()],
                    )),
                    _ => None,
                }
            }
            // Lambda replaced by functor construction.
            ExprKind::Lambda(_) => {
                let functor = &self.plan.functors[*self.functors_by_span.get(&expr.span)?];
                let args = functor
                    .fields
                    .iter()
                    .map(|(name, _)| {
                        let base = Expr::new(ExprKind::Name(QualName::ident(name)), expr.span);
                        if !functor.mutated_captures.contains(name) {
                            return base;
                        }
                        // Mutated captures are pointer fields: pass the
                        // variable's address.
                        Expr::new(
                            ExprKind::Unary {
                                op: UnaryOp::AddrOf,
                                expr: Box::new(base),
                            },
                            expr.span,
                        )
                    })
                    .collect();
                let ty = Some(Type::named(QualName::ident(&functor.name)));
                Some(Expr::new(ExprKind::BraceInit { ty, args }, expr.span))
            }
            _ => None,
        }
    }
}

impl VisitMut for Transformer<'_> {
    fn visit_expr_mut(&mut self, expr: &mut Expr) {
        match &mut expr.kind {
            ExprKind::Cast { ty, .. } => {
                if let Some(u) = self.enum_underlying(ty) {
                    *ty = u;
                }
            }
            ExprKind::Name(n) => {
                if let Some(v) = self.enum_constant(n) {
                    expr.kind = ExprKind::Int(v);
                }
            }
            _ => {
                if let Some(new) = self.rewrite(expr) {
                    *expr = new;
                }
            }
        }
        walk_expr_mut(self, expr);
    }

    fn visit_local_mut(&mut self, var: &mut VarDecl) {
        self.retype(var);
        walk_local_mut(self, var);
    }

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

/// Rewrites a member or global variable declaration, its type and its
/// initializer, into an edit when anything changed.
fn push_var_edit(tr: &mut Transformer<'_>, v: &VarDecl, span: Span, edits: &mut Vec<Edit>) {
    let mut nv = v.clone();
    tr.retype(&mut nv);
    if let Some(init) = &mut nv.init {
        tr.visit_expr_mut(init);
    }
    if nv != *v {
        let mut text = pretty_var(&nv);
        text.push(';');
        edits.push(Edit {
            span,
            replacement: text,
        });
    }
}

fn collect_decl_edits(decl: &Decl, file: FileId, tr: &mut Transformer<'_>, edits: &mut Vec<Edit>) {
    match &decl.kind {
        DeclKind::Namespace(ns) => {
            tr.scopes.enter_namespace(&ns.name);
            for d in &ns.decls {
                collect_decl_edits(d, file, tr, edits);
            }
            tr.scopes.leave_namespace();
        }
        DeclKind::Class(c) => {
            for m in &c.members {
                if m.decl.span.file != file {
                    continue;
                }
                match &m.decl.kind {
                    DeclKind::Variable(v) => push_var_edit(tr, v, m.decl.span, edits),
                    DeclKind::Function(f) => collect_function_edits(f, Some(c), tr, edits),
                    _ => {}
                }
            }
        }
        _ if decl.span.file != file => {}
        // Out-of-line method definitions get the owning class's fields in
        // scope through their qualifier.
        DeclKind::Function(f) => collect_function_edits(f, None, tr, edits),
        DeclKind::Variable(v) => push_var_edit(tr, v, decl.span, edits),
        DeclKind::Alias(a) => {
            // Aliases whose target goes through a *nested* member alias
            // must be re-pointed at the resolved (non-nested) class — the
            // paper's member_type rewrite (Figure 4b line 8).
            let Some(sym) = a.target.core_name().and_then(|n| tr.scopes.resolve(n)) else {
                return;
            };
            if sym.nested_in_class {
                let resolved = tr.scopes.aliases().resolve_type(&a.target);
                if resolved != a.target {
                    edits.push(Edit {
                        span: decl.span,
                        replacement: format!("using {} = {};", a.name, resolved),
                    });
                }
            }
        }
        _ => {}
    }
}

fn collect_function_edits(
    f: &FunctionDecl,
    member_of: Option<&ClassDecl>,
    tr: &mut Transformer<'_>,
    edits: &mut Vec<Edit>,
) {
    let Some(body) = &f.body else { return };
    tr.scopes.push_function(f, member_of);
    for stmt in &body.stmts {
        let mut new_stmt = stmt.clone();
        tr.visit_stmt_mut(&mut new_stmt);
        if new_stmt != *stmt {
            let rendered = pretty::print_stmt(&new_stmt);
            edits.push(Edit {
                span: stmt.span,
                replacement: rendered.trim_end().to_string(),
            });
        }
    }
    tr.scopes.pop();
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
