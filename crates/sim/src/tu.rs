//! Measuring the *work* a translation unit represents.
//!
//! Everything the cost model consumes is counted here, from a real
//! preprocess + parse of the TU by this repository's frontend — no magic
//! numbers per subject. The quantities mirror what drives a real
//! compiler's phases (§2.1 of the paper): preprocessed lines and headers
//! (frontend), template instantiations (middle), and statements inside
//! function bodies that actually enter the TU (backend).

use std::collections::HashSet;

use yalla_cpp::ast::visit::{walk_decl, walk_expr, walk_tu, walk_type, Visitor};
use yalla_cpp::ast::{Decl, DeclKind, Expr, ExprKind, Stmt, TranslationUnit, Type, TypeKind};
use yalla_cpp::pp::Preprocessor;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::Result;

/// The measured work of one translation unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuWork {
    /// Non-blank lines entering the TU (paper Table 3 "LOCs").
    pub lines: usize,
    /// Distinct headers included (Table 3 "Headers").
    pub headers: usize,
    /// Tokens after preprocessing.
    pub tokens: usize,
    /// Macro expansions performed.
    pub macro_expansions: usize,
    /// Declarations in the AST (all nesting levels).
    pub decls: usize,
    /// Statements inside non-template function bodies (always optimized
    /// and code-generated).
    pub concrete_body_stmts: usize,
    /// Statements inside template function bodies that are *used* in this
    /// TU (instantiated, hence optimized and code-generated).
    pub instantiated_template_stmts: usize,
    /// Statements inside template bodies that are never instantiated here
    /// (parsed, but no backend cost).
    pub uninstantiated_template_stmts: usize,
    /// Distinct template instantiations observed (template-ids in types
    /// and calls, plus explicit instantiation declarations).
    pub instantiations: usize,
}

impl TuWork {
    /// Total statements that reach the backend.
    pub fn backend_stmts(&self) -> usize {
        self.concrete_body_stmts + self.instantiated_template_stmts
    }
}

/// Preprocesses and parses `main` inside `vfs` and counts its work.
///
/// # Errors
///
/// Propagates frontend errors.
pub fn measure_tu(vfs: &Vfs, main: &str, defines: &[(String, String)]) -> Result<TuWork> {
    let mut pp = Preprocessor::new(vfs);
    for (k, v) in defines {
        pp.define(k, v);
    }
    let out = pp.run(main)?;
    let tokens = out.tokens.len();
    let stats = out.stats;
    let ast = yalla_cpp::parse::parse_tokens(out.tokens)?;
    let mut counts = Counter::default();
    // Pass 1: what is called/used (drives which templates count as
    // instantiated).
    walk_tu(&mut counts, &ast);
    // Pass 2: attribute body statements.
    let mut attr = Attributor {
        used_names: &counts.used_names,
        concrete: 0,
        instantiated: 0,
        uninstantiated: 0,
    };
    attr.walk(&ast);
    Ok(TuWork {
        lines: stats.lines_compiled,
        headers: stats.header_count(),
        tokens,
        macro_expansions: stats.macro_expansions,
        decls: counts.decls,
        concrete_body_stmts: attr.concrete,
        instantiated_template_stmts: attr.instantiated,
        uninstantiated_template_stmts: attr.uninstantiated,
        instantiations: counts.instantiation_keys.len(),
    })
}

/// First pass: counts declarations and records used names + instantiations.
#[derive(Default)]
struct Counter {
    decls: usize,
    used_names: HashSet<String>,
    instantiation_keys: HashSet<String>,
}

impl Visitor for Counter {
    fn visit_decl(&mut self, decl: &Decl) {
        self.decls += 1;
        // Explicit instantiations count directly.
        match &decl.kind {
            DeclKind::Class(c) if c.is_explicit_instantiation => {
                self.instantiation_keys.insert(format!(
                    "{}{}",
                    c.name,
                    c.spec_args.as_deref().unwrap_or("")
                ));
            }
            DeclKind::Function(f) if f.specs.is_explicit_instantiation => {
                self.instantiation_keys
                    .insert(f.name.spelling().as_str().to_string());
            }
            _ => {}
        }
        walk_decl(self, decl);
    }

    fn visit_expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Call { callee, .. } => {
                if let Some(name) = callee.as_name() {
                    self.used_names.insert(name.base_ident().to_string());
                    if name.last().args.is_some() {
                        self.instantiation_keys.insert(name.to_string());
                    }
                }
                if let ExprKind::Member { member, .. } = &callee.kind {
                    self.used_names.insert(member.ident.clone());
                }
            }
            ExprKind::Name(n) => {
                self.used_names.insert(n.base_ident().to_string());
            }
            _ => {}
        }
        walk_expr(self, expr);
    }

    fn visit_type(&mut self, ty: &Type) {
        if let TypeKind::Named(n) = &ty.kind {
            self.used_names.insert(n.base_ident().to_string());
            if n.segs.iter().any(|s| s.args.is_some()) {
                self.instantiation_keys.insert(n.to_string());
            }
        }
        walk_type(self, ty);
    }
}

/// Second pass: splits body statements into concrete / instantiated
/// template / uninstantiated template.
struct Attributor<'a> {
    used_names: &'a HashSet<String>,
    concrete: usize,
    instantiated: usize,
    uninstantiated: usize,
}

impl Attributor<'_> {
    fn walk(&mut self, tu: &TranslationUnit) {
        for d in &tu.decls {
            self.decl(d, false, true);
        }
    }

    /// `templated`: whether an enclosing template head applies;
    /// `used`: whether the enclosing entity is referenced in this TU.
    fn decl(&mut self, decl: &Decl, templated: bool, used: bool) {
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                for d in &ns.decls {
                    self.decl(d, templated, used);
                }
            }
            DeclKind::Class(c) => {
                let class_templated = templated || c.template.is_some();
                let class_used = self.used_names.contains(&c.name);
                for m in &c.members {
                    self.decl(&m.decl, class_templated, class_used);
                }
            }
            DeclKind::Function(f) => {
                let Some(body) = &f.body else { return };
                let stmts = count_stmts(&body.stmts);
                let is_template = templated || f.template.is_some();
                if !is_template {
                    self.concrete += stmts;
                } else {
                    let name_used = match &f.name {
                        yalla_cpp::ast::FunctionName::Ident(n) => {
                            self.used_names.contains(n.split('<').next().unwrap_or(n))
                        }
                        yalla_cpp::ast::FunctionName::CallOperator => used,
                        other => self.used_names.contains(other.spelling().as_str()),
                    };
                    if name_used && (used || !templated) {
                        self.instantiated += stmts;
                    } else {
                        self.uninstantiated += stmts;
                    }
                }
            }
            _ => {}
        }
    }
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    use yalla_cpp::ast::StmtKind;
    let mut n = 0;
    for s in stmts {
        n += 1;
        match &s.kind {
            StmtKind::Block(b) => n += count_stmts(&b.stmts),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                n += count_stmts(std::slice::from_ref(then_branch));
                if let Some(e) = else_branch {
                    n += count_stmts(std::slice::from_ref(e));
                }
            }
            StmtKind::For { body, .. }
            | StmtKind::RangeFor { body, .. }
            | StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. } => {
                n += count_stmts(std::slice::from_ref(body));
            }
            _ => {}
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(files: &[(&str, &str)], main: &str) -> TuWork {
        let mut vfs = Vfs::new();
        for (p, t) in files {
            vfs.add_file(p, *t);
        }
        measure_tu(&vfs, main, &[]).unwrap()
    }

    #[test]
    fn counts_lines_and_headers() {
        let w = measure(
            &[
                ("h.hpp", "int h1;\nint h2;\n"),
                ("m.cpp", "#include \"h.hpp\"\nint m;\n"),
            ],
            "m.cpp",
        );
        assert_eq!(w.headers, 1);
        assert_eq!(w.lines, 4);
        assert!(w.tokens > 6);
        assert_eq!(w.decls, 3);
    }

    #[test]
    fn concrete_bodies_count_backend_stmts() {
        let w = measure(
            &[("m.cpp", "int f() { int a = 1; int b = 2; return a + b; }")],
            "m.cpp",
        );
        assert_eq!(w.concrete_body_stmts, 3);
        assert_eq!(w.backend_stmts(), 3);
    }

    #[test]
    fn uninstantiated_templates_have_no_backend_cost() {
        let w = measure(
            &[(
                "m.cpp",
                "template<class T> T unused(T x) { int a; int b; int c; return x; }\nint main() { return 0; }",
            )],
            "m.cpp",
        );
        assert_eq!(w.uninstantiated_template_stmts, 4);
        assert_eq!(w.instantiated_template_stmts, 0);
        assert_eq!(w.concrete_body_stmts, 1);
    }

    #[test]
    fn called_templates_are_instantiated() {
        let w = measure(
            &[(
                "m.cpp",
                "template<class T> T g_add(T x, T y) { return x + y; }\nint main() { return g_add<int>(1, 2); }",
            )],
            "m.cpp",
        );
        assert_eq!(w.instantiated_template_stmts, 1);
        assert!(w.instantiations >= 1);
    }

    #[test]
    fn template_ids_in_types_count_as_instantiations() {
        let w = measure(
            &[(
                "m.cpp",
                "template<class A, class B> class View {};\nView<int, double> v;\nView<int, int> u;\n",
            )],
            "m.cpp",
        );
        assert_eq!(w.instantiations, 2);
    }

    #[test]
    fn bigger_header_means_more_work() {
        let small = measure(&[("m.cpp", "int x;\n")], "m.cpp");
        let mut big_header = String::new();
        for i in 0..100 {
            big_header.push_str(&format!("inline int f{i}(int v) {{ return v + {i}; }}\n"));
        }
        let big = measure(
            &[
                ("big.hpp", big_header.as_str()),
                ("m.cpp", "#include \"big.hpp\"\nint x;\n"),
            ],
            "m.cpp",
        );
        assert!(big.lines > small.lines + 90);
        assert!(big.concrete_body_stmts >= 100);
    }
}
