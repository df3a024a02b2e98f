//! Pretty printer: renders AST nodes back to compilable C++ text.
//!
//! YALLA's generated artifacts (the lightweight header, the wrappers file,
//! functors replacing lambdas) are built as AST fragments and rendered with
//! this printer. The output is verified by re-parsing in the engine's
//! validation step, so the printer and parser form a round-trip pair.

use std::fmt::Write as _;

use crate::ast::{
    AccessSpecifier, Block, Decl, DeclKind, Expr, ExprKind, ForInit, FunctionDecl, LambdaCapture,
    Stmt, StmtKind, TranslationUnit, UnaryOp, VarDecl,
};

/// Renders a whole translation unit.
pub fn print_tu(tu: &TranslationUnit) -> String {
    let mut p = Printer::new();
    for d in &tu.decls {
        p.decl(d);
    }
    p.finish()
}

/// Renders a single declaration.
pub fn print_decl(decl: &Decl) -> String {
    let mut p = Printer::new();
    p.decl(decl);
    p.finish()
}

/// Renders a single statement.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(stmt);
    p.finish()
}

/// The pretty-printing state: an output buffer plus indentation level.
#[derive(Debug, Default)]
pub struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    /// A fresh printer.
    pub fn new() -> Self {
        Printer::default()
    }

    /// Consumes the printer and returns the rendered text.
    pub fn finish(self) -> String {
        self.out
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self, text: &str) {
        self.indent = self.indent.saturating_sub(1);
        self.line(text);
    }

    /// Prints a declaration.
    pub fn decl(&mut self, decl: &Decl) {
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                if ns.name.is_empty() {
                    self.open("namespace {");
                } else {
                    let kw = if ns.is_inline {
                        "inline namespace"
                    } else {
                        "namespace"
                    };
                    self.open(&format!("{kw} {} {{", ns.name));
                }
                for d in &ns.decls {
                    self.decl(d);
                }
                self.close(&format!("}} // namespace {}", ns.name));
            }
            DeclKind::Class(c) => {
                if let Some(t) = &c.template {
                    self.line(&t.render());
                }
                let mut head = String::new();
                if c.is_explicit_instantiation {
                    head.push_str("template ");
                }
                let _ = write!(head, "{} {}", c.key, c.name);
                if let Some(args) = &c.spec_args {
                    head.push_str(args);
                }
                if !c.is_definition {
                    head.push(';');
                    self.line(&head);
                    return;
                }
                if !c.bases.is_empty() {
                    head.push_str(" : ");
                    for (i, (acc, base)) in c.bases.iter().enumerate() {
                        if i > 0 {
                            head.push_str(", ");
                        }
                        let _ = write!(head, "{} {base}", access_str(*acc));
                    }
                }
                head.push_str(" {");
                self.open(&head);
                let mut current = match c.key {
                    crate::ast::ClassKey::Class => AccessSpecifier::Private,
                    crate::ast::ClassKey::Struct => AccessSpecifier::Public,
                };
                for m in &c.members {
                    if m.access != current {
                        self.indent -= 1;
                        self.line(&format!("{}:", access_str(m.access)));
                        self.indent += 1;
                        current = m.access;
                    }
                    self.decl(&m.decl);
                }
                self.close("};");
            }
            DeclKind::Enum(e) => {
                let mut head = String::from("enum ");
                if e.scoped {
                    head.push_str("class ");
                }
                head.push_str(&e.name);
                if let Some(u) = &e.underlying {
                    let _ = write!(head, " : {u}");
                }
                head.push_str(" {");
                self.open(&head);
                for en in &e.enumerators {
                    match &en.value {
                        Some(v) => self.line(&format!("{} = {v},", en.name)),
                        None => self.line(&format!("{},", en.name)),
                    }
                }
                self.close("};");
            }
            DeclKind::Alias(a) => {
                if let Some(t) = &a.template {
                    self.line(&t.render());
                }
                self.line(&format!("using {} = {};", a.name, a.target));
            }
            DeclKind::UsingDecl(n) => self.line(&format!("using {n};")),
            DeclKind::UsingNamespace(n) => self.line(&format!("using namespace {n};")),
            DeclKind::Function(f) => self.function(f),
            DeclKind::Variable(v) => {
                let mut s = self.var_text(v);
                s.push(';');
                self.line(&s);
            }
            DeclKind::StaticAssert => self.line("static_assert(true, \"\");"),
            DeclKind::Access(a) => {
                self.indent = self.indent.saturating_sub(1);
                self.line(&format!("{}:", access_str(*a)));
                self.indent += 1;
            }
        }
    }

    fn function(&mut self, f: &FunctionDecl) {
        if let Some(t) = &f.template {
            self.line(&t.render());
        }
        let mut head = String::new();
        if f.specs.is_explicit_instantiation {
            head.push_str("template ");
        }
        if f.specs.is_static {
            head.push_str("static ");
        }
        if f.specs.is_virtual {
            head.push_str("virtual ");
        }
        if f.specs.is_inline {
            head.push_str("inline ");
        }
        if f.specs.is_constexpr {
            head.push_str("constexpr ");
        }
        if f.specs.is_explicit {
            head.push_str("explicit ");
        }
        if let Some(ret) = &f.ret {
            let _ = write!(head, "{ret} ");
        }
        if let Some(q) = &f.qualifier {
            let _ = write!(head, "{q}::");
        }
        let _ = write!(head, "{}(", f.name.spelling());
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                head.push_str(", ");
            }
            let _ = write!(head, "{}", p.ty);
            if !p.name.is_empty() {
                let _ = write!(head, " {}", p.name);
            }
            if let Some(d) = &p.default {
                let _ = write!(head, " = {d}");
            }
        }
        head.push(')');
        if f.specs.is_const {
            head.push_str(" const");
        }
        if f.specs.is_noexcept {
            head.push_str(" noexcept");
        }
        if f.specs.is_override {
            head.push_str(" override");
        }
        if f.specs.is_defaulted {
            head.push_str(" = default;");
            self.line(&head);
            return;
        }
        if f.specs.is_deleted {
            head.push_str(" = delete;");
            self.line(&head);
            return;
        }
        match &f.body {
            Some(body) => {
                head.push_str(" {");
                self.open(&head);
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close("}");
            }
            None => {
                head.push(';');
                self.line(&head);
            }
        }
    }

    fn var_text(&mut self, v: &VarDecl) -> String {
        let mut s = String::new();
        if v.is_static {
            s.push_str("static ");
        }
        if v.is_constexpr {
            s.push_str("constexpr ");
        }
        // Arrays render as `T name[n]`.
        if let crate::ast::TypeKind::Array(inner, len) = &v.ty.kind {
            let _ = write!(s, "{inner} {}", v.name);
            match len {
                Some(n) => {
                    let _ = write!(s, "[{n}]");
                }
                None => s.push_str("[]"),
            }
        } else {
            let _ = write!(s, "{} {}", v.ty, v.name);
        }
        if let Some(init) = &v.init {
            if v.brace_init {
                if let ExprKind::BraceInit { args, .. } = &init.kind {
                    s.push('{');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&expr_text(a));
                    }
                    s.push('}');
                    return s;
                }
            }
            let _ = write!(s, " = {}", expr_text(init));
        }
        s
    }

    /// Prints a statement.
    pub fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) => self.line(&format!("{};", expr_text(e))),
            StmtKind::Decl(v) => {
                let mut s = self.var_text(v);
                s.push(';');
                self.line(&s);
            }
            StmtKind::Block(b) => {
                self.open("{");
                for s in &b.stmts {
                    self.stmt(s);
                }
                self.close("}");
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.open(&format!("if ({}) {{", expr_text(cond)));
                self.stmt_unwrapped(then_branch);
                if let Some(e) = else_branch {
                    self.close("} else {");
                    self.indent += 1;
                    self.stmt_unwrapped(e);
                }
                self.close("}");
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                let init_s = match init.as_ref() {
                    ForInit::Decl(v) => self.var_text(v),
                    ForInit::Expr(e) => expr_text(e),
                    ForInit::Empty => String::new(),
                };
                let cond_s = cond.as_ref().map(expr_text).unwrap_or_default();
                let inc_s = inc.as_ref().map(expr_text).unwrap_or_default();
                self.open(&format!("for ({init_s}; {cond_s}; {inc_s}) {{"));
                self.stmt_unwrapped(body);
                self.close("}");
            }
            StmtKind::RangeFor { var, range, body } => {
                self.open(&format!(
                    "for ({} {} : {}) {{",
                    var.ty,
                    var.name,
                    expr_text(range)
                ));
                self.stmt_unwrapped(body);
                self.close("}");
            }
            StmtKind::While { cond, body } => {
                self.open(&format!("while ({}) {{", expr_text(cond)));
                self.stmt_unwrapped(body);
                self.close("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.open("do {");
                self.stmt_unwrapped(body);
                self.close(&format!("}} while ({});", expr_text(cond)));
            }
            StmtKind::Return(Some(e)) => self.line(&format!("return {};", expr_text(e))),
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Empty => self.line(";"),
        }
    }

    /// Prints a statement, flattening a block body (used inside `if`/`for`
    /// which already printed their own braces).
    fn stmt_unwrapped(&mut self, stmt: &Stmt) {
        if let StmtKind::Block(b) = &stmt.kind {
            for s in &b.stmts {
                self.stmt(s);
            }
        } else {
            self.stmt(stmt);
        }
    }

    /// Prints an expression (single line, no trailing newline handling).
    pub fn expr(&mut self, expr: &Expr) {
        let text = expr_text(expr);
        self.out.push_str(&text);
    }
}

fn access_str(a: AccessSpecifier) -> &'static str {
    match a {
        AccessSpecifier::Public => "public",
        AccessSpecifier::Protected => "protected",
        AccessSpecifier::Private => "private",
    }
}

fn block_text(b: &Block) -> String {
    let mut s = String::from("{ ");
    for st in &b.stmts {
        let mut p = Printer::new();
        p.stmt(st);
        let rendered = p.finish();
        s.push_str(rendered.trim_end_matches('\n').trim_start());
        s.push(' ');
    }
    s.push('}');
    s
}

/// Renders an expression as a single-line string.
pub fn expr_text(expr: &Expr) -> String {
    match &expr.kind {
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Float(v) => {
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        ExprKind::Char(c) => format!("'{c}'"),
        ExprKind::Null => "nullptr".into(),
        ExprKind::This => "this".into(),
        ExprKind::Name(n) => n.to_string(),
        ExprKind::Unary { op, expr } => match op {
            UnaryOp::PostInc => format!("{}++", expr_text(expr)),
            UnaryOp::PostDec => format!("{}--", expr_text(expr)),
            _ => format!("{}{}", op.as_str(), expr_text(expr)),
        },
        ExprKind::Binary { op, lhs, rhs } => {
            format!("{} {} {}", expr_text(lhs), op.as_str(), expr_text(rhs))
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => format!(
            "{} ? {} : {}",
            expr_text(cond),
            expr_text(then_expr),
            expr_text(else_expr)
        ),
        ExprKind::Call { callee, args } => {
            let args_s: Vec<String> = args.iter().map(expr_text).collect();
            format!("{}({})", expr_text(callee), args_s.join(", "))
        }
        ExprKind::Member {
            base,
            arrow,
            member,
        } => {
            format!(
                "{}{}{member}",
                expr_text(base),
                if *arrow { "->" } else { "." }
            )
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", expr_text(base), expr_text(index))
        }
        ExprKind::Lambda(l) => {
            let caps: Vec<String> = l
                .captures
                .iter()
                .map(|c| match c {
                    LambdaCapture::AllByRef => "&".to_string(),
                    LambdaCapture::AllByValue => "=".to_string(),
                    LambdaCapture::ByValue(n) => n.clone(),
                    LambdaCapture::ByRef(n) => format!("&{n}"),
                    LambdaCapture::This => "this".to_string(),
                })
                .collect();
            let params: Vec<String> = l
                .params
                .iter()
                .map(|(t, n)| {
                    if n.is_empty() {
                        t.to_string()
                    } else {
                        format!("{t} {n}")
                    }
                })
                .collect();
            format!(
                "[{}]({}) {}",
                caps.join(", "),
                params.join(", "),
                block_text(&l.body)
            )
        }
        ExprKind::New { ty, args } => {
            let args_s: Vec<String> = args.iter().map(expr_text).collect();
            format!("new {ty}({})", args_s.join(", "))
        }
        ExprKind::Delete { array, expr } => {
            format!(
                "delete{} {}",
                if *array { "[]" } else { "" },
                expr_text(expr)
            )
        }
        ExprKind::Cast { kind, ty, expr } => {
            if kind == "functional" {
                format!("{ty}({})", expr_text(expr))
            } else {
                format!("{kind}<{ty}>({})", expr_text(expr))
            }
        }
        ExprKind::BraceInit { ty, args } => {
            let args_s: Vec<String> = args.iter().map(expr_text).collect();
            match ty {
                Some(t) => format!("{t}{{{}}}", args_s.join(", ")),
                None => format!("{{{}}}", args_s.join(", ")),
            }
        }
        ExprKind::Paren(e) => format!("({})", expr_text(e)),
        ExprKind::Sizeof(s) => format!("sizeof({s})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn round_trip(src: &str) -> String {
        let tu = parse_str(src).unwrap();
        print_tu(&tu)
    }

    fn round_trip_twice_is_stable(src: &str) {
        let once = round_trip(src);
        let tu2 = parse_str(&once)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- emitted:\n{once}"));
        let twice = print_tu(&tu2);
        assert_eq!(once, twice, "print→parse→print must be a fixed point");
    }

    #[test]
    fn function_round_trip() {
        round_trip_twice_is_stable("template<typename T> T g_add(T x, T y) { return x + y; }");
    }

    #[test]
    fn class_round_trip() {
        round_trip_twice_is_stable(
            "namespace Kokkos { template <class T> class View { public: T& operator()(int i, int j) const; int extent_; }; }",
        );
    }

    #[test]
    fn figure_3_round_trip() {
        round_trip_twice_is_stable(
            "struct add_y { int y; Kokkos::View<int**, LayoutRight> x; void operator()(member_t &m); };\nvoid add_y::operator()(member_t &m) { int j = m.league_rank(); Kokkos::parallel_for(Kokkos::TeamThreadRange(m, 5), [&](int i) { x(j, i) += y; }); }",
        );
    }

    #[test]
    fn statements_round_trip() {
        round_trip_twice_is_stable(
            "void f() { int i = 0; for (i = 0; i < 10; i++) { if (i > 5) break; else continue; } while (i) i--; do { i++; } while (i < 3); return; }",
        );
    }

    #[test]
    fn enum_and_alias_round_trip() {
        round_trip_twice_is_stable(
            "enum class Layout : int { Left, Right = 4, };\nusing sp_t = Kokkos::OpenMP;\ntemplate <typename T> using Vec = std::vector<T>;",
        );
    }

    #[test]
    fn forward_declarations_render() {
        let out = round_trip("namespace Kokkos { class OpenMP; template <class T> class View; }");
        assert!(out.contains("class OpenMP;"));
        assert!(out.contains("template <class T>") || out.contains("template <typename T>"));
        assert!(out.contains("class View;"));
    }

    #[test]
    fn explicit_instantiation_renders() {
        let out = round_trip("template int g_add<int>(int x, int y);");
        assert!(
            out.contains("template int g_add<int>(int x, int y);"),
            "{out}"
        );
        round_trip_twice_is_stable("template int g_add<int>(int x, int y);");
    }

    #[test]
    fn access_specifiers_render() {
        let out = round_trip("class C { int a; public: int b; };");
        assert!(out.contains("public:"));
        round_trip_twice_is_stable("class C { int a; public: int b; };");
    }

    #[test]
    fn expr_text_forms() {
        let tu = parse_str("int x = a ? b + 1 : c[2];").unwrap();
        let out = print_tu(&tu);
        assert!(out.contains("int x = a ? b + 1 : c[2];"));
    }

    #[test]
    fn lambda_renders_inline() {
        let out = round_trip("void f() { run([&](int i) { x(j, i) += y; }); }");
        assert!(out.contains("[&](int i) { x(j, i) += y; }"), "{out}");
    }

    #[test]
    fn defaulted_and_deleted() {
        round_trip_twice_is_stable("struct S { S() = default; S(const S& o) = delete; };");
    }

    #[test]
    fn pointer_field_round_trip() {
        // The paper's pointerization output must round-trip.
        round_trip_twice_is_stable(
            "struct add_y { int y; Kokkos::View<int**, Kokkos::LayoutRight>* x; };",
        );
    }
}

#[cfg(test)]
mod expr_render_tests {
    use super::*;
    use crate::parse::parse_str;

    fn rendered(src: &str) -> String {
        print_tu(&parse_str(src).unwrap())
    }

    #[test]
    fn casts_render_distinctly() {
        let out = rendered("int f() { return static_cast<int>(x) + int(y); }");
        assert!(out.contains("static_cast<int>(x)"), "{out}");
        assert!(out.contains("int(y)"), "{out}");
    }

    #[test]
    fn new_and_delete_render() {
        let out = rendered("void f() { auto p = new K::Box(1, 2); delete p; delete[] q; }");
        assert!(out.contains("new K::Box(1, 2)"), "{out}");
        assert!(out.contains("delete p;"), "{out}");
        assert!(out.contains("delete[] q;"), "{out}");
    }

    #[test]
    fn sizeof_and_conditional_render() {
        let out = rendered("int f() { return x ? sizeof(double) : 0; }");
        assert!(out.contains("x ? sizeof(double) : 0"), "{out}");
    }

    #[test]
    fn post_and_pre_increment_render() {
        let out = rendered("void f() { i++; ++j; k--; --m; }");
        assert!(out.contains("i++;"), "{out}");
        assert!(out.contains("++j;"), "{out}");
        assert!(out.contains("k--;"), "{out}");
        assert!(out.contains("--m;"), "{out}");
    }

    #[test]
    fn float_literals_keep_a_decimal_point() {
        let out = rendered("double d = 2.0;");
        // `2` alone would change the C++ type.
        assert!(out.contains("2.0") || out.contains("2."), "{out}");
    }

    #[test]
    fn string_escapes_survive() {
        let out = rendered(r#"const char* s = "a\"b\\c";"#);
        assert!(out.contains(r#""a\"b\\c""#), "{out}");
        // And the output re-parses to the same string.
        let again = rendered(&out);
        assert_eq!(out, again);
    }

    #[test]
    fn do_while_renders_and_round_trips() {
        let src = "void f() { do { step(); } while (more()); }";
        let once = rendered(src);
        assert!(once.contains("do {"), "{once}");
        assert!(once.contains("} while (more());"), "{once}");
        assert_eq!(once, rendered(&once));
    }
}
