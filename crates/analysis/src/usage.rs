//! Usage analysis: which symbols from the target header do the sources use,
//! and *how*.
//!
//! This is the analysis phase of the paper's Figure 5 (`getUsedClasses`,
//! `getUsedFunctions`, `getLambdas`) plus the usage-*nature* recording of
//! §4.1: for every class the collector notes whether it is used by value,
//! by pointer, by reference, or as a template argument; for every function
//! and method it records the call sites with best-effort inferred argument
//! types (needed later for explicit wrapper instantiation).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use yalla_cpp::ast::{
    ClassDecl, Decl, DeclKind, Expr, ExprKind, ForInit, FunctionDecl, LambdaExpr, QualName, Stmt,
    StmtKind, TranslationUnit, Type, TypeKind,
};
use yalla_cpp::loc::{FileId, Span};
use yalla_cpp::Sym;

use crate::aliases::AliasResolver;
use crate::symbols::{SymbolKind, SymbolTable};

/// How a class is used at some site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UsageNature {
    /// Declared/passed by value (`View v;`) — illegal on incomplete types,
    /// so these sites must be pointerized.
    ByValue,
    /// Behind a pointer — legal on incomplete types.
    Pointer,
    /// Behind a reference — legal on incomplete types.
    Reference,
    /// Mentioned as a template argument.
    TemplateArg,
    /// Named as the target of a type alias in the sources.
    AliasTarget,
}

/// Aggregated usage of one class from the target header.
#[derive(Debug, Clone, Default)]
pub struct ClassUsage {
    /// All the natures observed.
    pub natures: std::collections::BTreeSet<UsageNature>,
    /// Source spans of by-value declarations that must be pointerized.
    pub by_value_spans: Vec<Span>,
}

impl ClassUsage {
    /// True when at least one use requires the complete type by value.
    pub fn has_by_value(&self) -> bool {
        self.natures.contains(&UsageNature::ByValue)
    }
}

/// One call site of a used function or method.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Span of the whole call expression.
    pub span: Span,
    /// Span of just the callee name (rewritten to the wrapper name).
    pub callee_span: Span,
    /// Inferred argument types (None where inference failed).
    pub arg_types: Vec<Option<Type>>,
    /// Explicit template arguments written at the call site, rendered.
    pub explicit_targs: Option<Vec<String>>,
    /// For method calls: the inferred type of the receiver object.
    pub receiver: Option<Type>,
}

/// A free function from the target header used by the sources.
#[derive(Debug, Clone)]
pub struct UsedFunction {
    /// Fully qualified key.
    pub key: String,
    /// The declaration (signature) from the header, shared with the parse.
    pub decl: Arc<FunctionDecl>,
    /// Call sites in the sources.
    pub calls: Vec<CallSite>,
}

/// A method (or call operator, or field) of a target-header class used by
/// the sources.
#[derive(Debug, Clone)]
pub struct MethodUsage {
    /// Key of the class that owns the member.
    pub class_key: String,
    /// Member name as spelled (`league_rank`, `operator()`).
    pub method: String,
    /// Call sites.
    pub calls: Vec<CallSite>,
}

/// A field of a target-header class accessed by the sources.
#[derive(Debug, Clone)]
pub struct FieldUsage {
    /// Key of the class that owns the field.
    pub class_key: String,
    /// Field name.
    pub field: String,
    /// Access spans.
    pub spans: Vec<Span>,
    /// Inferred receiver types at the access sites.
    pub receiver_types: Vec<Type>,
}

/// A lambda passed as an argument to a used function/method.
#[derive(Debug, Clone)]
pub struct LambdaUse {
    /// The lambda itself.
    pub lambda: LambdaExpr,
    /// Span of the lambda expression in the source.
    pub span: Span,
    /// Key of the function whose call receives the lambda, when that
    /// function comes from the target header.
    pub target_function: Option<String>,
    /// Index of the lambda among the call's arguments.
    pub arg_index: usize,
    /// Variables captured from the enclosing scope (free variables of the
    /// body), with their declared types — the functor generator turns
    /// these into fields (§3.4).
    pub captured: Vec<(String, Type)>,
}

/// An enum from the target header used by the sources.
#[derive(Debug, Clone)]
pub struct EnumUsage {
    /// Fully qualified key of the enum.
    pub key: String,
    /// The enum declaration (for underlying type and enumerator values),
    /// shared with the parse.
    pub decl: Arc<yalla_cpp::ast::EnumDecl>,
    /// Spans of expressions naming an enumerator (`Layout::Right`),
    /// with the enumerator name.
    pub constants: Vec<(Span, String)>,
    /// Spans of declarations whose type names the enum.
    pub type_decl_spans: Vec<Span>,
}

/// Everything the sources use from the target header.
#[derive(Debug, Clone, Default)]
pub struct UsageReport {
    /// Used classes by key.
    pub classes: BTreeMap<String, ClassUsage>,
    /// Used free functions by key.
    pub functions: BTreeMap<String, UsedFunction>,
    /// Used methods by `(class_key, method)`.
    pub methods: BTreeMap<(String, String), MethodUsage>,
    /// Used fields by `(class_key, field)`.
    pub fields: BTreeMap<(String, String), FieldUsage>,
    /// Lambdas passed to used functions.
    pub lambdas: Vec<LambdaUse>,
    /// Used enums by key.
    pub enums: BTreeMap<String, EnumUsage>,
}

impl UsageReport {
    /// Collects usage of symbols declared in `target_files` by code living
    /// in `source_files`.
    pub fn collect(
        tu: &TranslationUnit,
        table: &SymbolTable,
        target_files: &HashSet<FileId>,
        source_files: &HashSet<FileId>,
    ) -> Self {
        let _span = yalla_obs::span("analysis", "usage_collection");
        let mut c = Collector {
            table,
            aliases: AliasResolver::new(table),
            target_files,
            source_files,
            report: UsageReport::default(),
            scopes: Vec::new(),
            namespace_ctx: Vec::new(),
        };
        c.walk_decls(&tu.decls);
        let used = c.report.classes.len()
            + c.report.functions.len()
            + c.report.methods.len()
            + c.report.fields.len()
            + c.report.enums.len();
        yalla_obs::count(yalla_obs::metrics::names::USED_SYMBOLS, used as i64);
        c.report
    }

    /// True when nothing from the target header is used.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
            && self.functions.is_empty()
            && self.methods.is_empty()
            && self.fields.is_empty()
            && self.enums.is_empty()
    }

    /// Merges another TU's usage of the *same* target header into this
    /// report. Symbol entries union by key; call sites, spans, and
    /// lambdas append in merge order — so merging reports in a fixed TU
    /// order yields a deterministic combined report. This is how a
    /// multi-root session folds per-TU usage into one plan: every key
    /// names a header-side symbol, so the union resolves against any
    /// TU's symbol table that includes the header.
    pub fn merge_from(&mut self, other: UsageReport) {
        use std::collections::btree_map::Entry;
        for (key, usage) in other.classes {
            let entry = self.classes.entry(key).or_default();
            entry.natures.extend(usage.natures);
            entry.by_value_spans.extend(usage.by_value_spans);
        }
        for (key, f) in other.functions {
            match self.functions.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().calls.extend(f.calls),
                Entry::Vacant(e) => {
                    e.insert(f);
                }
            }
        }
        for (key, m) in other.methods {
            match self.methods.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().calls.extend(m.calls),
                Entry::Vacant(e) => {
                    e.insert(m);
                }
            }
        }
        for (key, f) in other.fields {
            match self.fields.entry(key) {
                Entry::Occupied(mut e) => {
                    let existing = e.get_mut();
                    existing.spans.extend(f.spans);
                    existing.receiver_types.extend(f.receiver_types);
                }
                Entry::Vacant(e) => {
                    e.insert(f);
                }
            }
        }
        self.lambdas.extend(other.lambdas);
        for (key, en) in other.enums {
            match self.enums.entry(key) {
                Entry::Occupied(mut e) => {
                    let existing = e.get_mut();
                    existing.constants.extend(en.constants);
                    existing.type_decl_spans.extend(en.type_decl_spans);
                }
                Entry::Vacant(e) => {
                    e.insert(en);
                }
            }
        }
    }
}

struct Collector<'a> {
    table: &'a SymbolTable,
    aliases: AliasResolver<'a>,
    target_files: &'a HashSet<FileId>,
    source_files: &'a HashSet<FileId>,
    report: UsageReport,
    /// Lexical scopes: name → declared type.
    scopes: Vec<HashMap<String, Type>>,
    namespace_ctx: Vec<String>,
}

impl<'a> Collector<'a> {
    fn in_sources(&self, span: Span) -> bool {
        self.source_files.contains(&span.file)
    }

    /// Resolves a written type name to the key of a class declared in the
    /// target header (following aliases). Returns `None` for anything else.
    fn target_class_key(&self, name: &QualName) -> Option<String> {
        let key = self.resolve_in_context(name)?;
        let class_key = self.aliases.resolve_key_to_class(&key)?;
        let sym = self.table.get(&class_key)?;
        if self.target_files.contains(&sym.file) {
            Some(class_key)
        } else {
            None
        }
    }

    /// Resolves `name` first as written, then against enclosing namespaces.
    fn resolve_in_context(&self, name: &QualName) -> Option<String> {
        if let Some(sym) = self.table.resolve(&name.key()) {
            return Some(sym.key.clone());
        }
        let mut ctx = self.namespace_ctx.clone();
        while !ctx.is_empty() {
            let candidate = format!("{}::{}", ctx.join("::"), name.key());
            if let Some(sym) = self.table.resolve(&candidate) {
                return Some(sym.key.clone());
            }
            ctx.pop();
        }
        None
    }

    fn record_class(&mut self, key: String, nature: UsageNature, span: Span) {
        let entry = self.report.classes.entry(key).or_default();
        entry.natures.insert(nature);
        if nature == UsageNature::ByValue {
            entry.by_value_spans.push(span);
        }
    }

    /// Records every class mentioned in a written type. The top-level
    /// shape determines the nature; nested template arguments are
    /// `TemplateArg` uses.
    fn record_type(&mut self, ty: &Type, span: Span, top_nature_override: Option<UsageNature>) {
        let top = match &ty.kind {
            TypeKind::Named(_) => Some(UsageNature::ByValue),
            TypeKind::Pointer(_) => Some(UsageNature::Pointer),
            TypeKind::LValueRef(_) | TypeKind::RValueRef(_) => Some(UsageNature::Reference),
            _ => None,
        };
        let top = top_nature_override.or(top);
        // Core class.
        if let Some(core) = ty.core_name() {
            if let Some(key) = self.target_class_key(core) {
                self.record_class(key, top.unwrap_or(UsageNature::ByValue), span);
            }
            self.maybe_record_enum_type(core, span);
            // Template arguments anywhere in the name.
            let mut arg_names = Vec::new();
            core_template_arg_names(core, &mut arg_names);
            for n in arg_names {
                if let Some(key) = self.target_class_key(&n) {
                    self.record_class(key, UsageNature::TemplateArg, span);
                }
            }
        }
    }

    // ----- declaration walking ---------------------------------------------

    fn walk_decls(&mut self, decls: &[Decl]) {
        for d in decls {
            self.walk_decl(d);
        }
    }

    #[allow(clippy::collapsible_match)] // arm-level span guards read better uncollapsed
    fn walk_decl(&mut self, decl: &Decl) {
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                self.namespace_ctx.push(ns.name.clone());
                self.walk_decls(&ns.decls);
                self.namespace_ctx.pop();
            }
            DeclKind::Class(c) => {
                if !self.in_sources(decl.span) {
                    return;
                }
                for m in &c.members {
                    match &m.decl.kind {
                        DeclKind::Variable(v) => {
                            self.record_type(&v.ty, m.decl.span, None);
                        }
                        DeclKind::Function(f) => {
                            self.walk_signature(f, m.decl.span);
                            if f.body.is_some() {
                                self.walk_method_body(f, Some(c));
                            }
                        }
                        DeclKind::Alias(a) => {
                            self.record_type(
                                &a.target,
                                m.decl.span,
                                Some(UsageNature::AliasTarget),
                            );
                        }
                        _ => {}
                    }
                }
            }
            DeclKind::Alias(a) => {
                if self.in_sources(decl.span) {
                    self.record_type(&a.target, decl.span, Some(UsageNature::AliasTarget));
                }
            }
            DeclKind::UsingDecl(n) => {
                if self.in_sources(decl.span) {
                    if let Some(key) = self.target_class_key(n) {
                        self.record_class(key, UsageNature::AliasTarget, decl.span);
                    }
                }
            }
            DeclKind::Function(f) => {
                if !self.in_sources(decl.span) {
                    return;
                }
                self.walk_signature(f, decl.span);
                if f.body.is_some() {
                    // Out-of-line method definition: bring the class's
                    // fields into scope.
                    let class = f.qualifier.as_ref().and_then(|q| {
                        let key = self.resolve_in_context(q)?;
                        match &self.table.get(&key)?.kind {
                            SymbolKind::Class(c) => Some(Arc::clone(c)),
                            _ => None,
                        }
                    });
                    self.walk_method_body(f, class.as_deref());
                }
            }
            DeclKind::Variable(v) => {
                if self.in_sources(decl.span) {
                    self.record_type(&v.ty, decl.span, None);
                    if let Some(init) = &v.init {
                        self.scopes.push(HashMap::new());
                        self.walk_expr(init, None);
                        self.scopes.pop();
                    }
                }
            }
            _ => {}
        }
    }

    fn walk_signature(&mut self, f: &FunctionDecl, span: Span) {
        if let Some(ret) = &f.ret {
            self.record_type(ret, span, None);
        }
        for p in &f.params {
            self.record_type(&p.ty, span, None);
        }
    }

    fn walk_method_body(&mut self, f: &FunctionDecl, class: Option<&ClassDecl>) {
        let mut scope = HashMap::new();
        if let Some(c) = class {
            for (_, field) in c.fields() {
                scope.insert(field.name.clone(), field.ty.clone());
            }
        }
        for p in &f.params {
            if !p.name.is_empty() {
                scope.insert(p.name.clone(), p.ty.clone());
            }
        }
        self.scopes.push(scope);
        if let Some(body) = &f.body {
            for s in &body.stmts {
                self.walk_stmt(s);
            }
        }
        self.scopes.pop();
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) => self.walk_expr(e, None),
            StmtKind::Decl(v) => {
                if self.in_sources(stmt.span) {
                    self.record_type(&v.ty, stmt.span, None);
                }
                if let Some(init) = &v.init {
                    self.walk_expr(init, None);
                }
                self.declare_local(&v.name, &v.ty);
            }
            StmtKind::Block(b) => {
                self.scopes.push(HashMap::new());
                for s in &b.stmts {
                    self.walk_stmt(s);
                }
                self.scopes.pop();
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.walk_expr(cond, None);
                self.walk_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.walk_stmt(e);
                }
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                self.scopes.push(HashMap::new());
                match init.as_ref() {
                    ForInit::Decl(v) => {
                        if let Some(i) = &v.init {
                            self.walk_expr(i, None);
                        }
                        self.declare_local(&v.name, &v.ty);
                    }
                    ForInit::Expr(e) => self.walk_expr(e, None),
                    ForInit::Empty => {}
                }
                if let Some(c) = cond {
                    self.walk_expr(c, None);
                }
                if let Some(i) = inc {
                    self.walk_expr(i, None);
                }
                self.walk_stmt(body);
                self.scopes.pop();
            }
            StmtKind::RangeFor { var, range, body } => {
                self.scopes.push(HashMap::new());
                self.walk_expr(range, None);
                self.declare_local(&var.name, &var.ty);
                self.walk_stmt(body);
                self.scopes.pop();
            }
            StmtKind::While { cond, body } => {
                self.walk_expr(cond, None);
                self.walk_stmt(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.walk_stmt(body);
                self.walk_expr(cond, None);
            }
            StmtKind::Return(Some(e)) => self.walk_expr(e, None),
            _ => {}
        }
    }

    fn declare_local(&mut self, name: &str, ty: &Type) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), ty.clone());
        }
    }

    fn lookup_local(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    // ----- expression walking ------------------------------------------------

    /// Walks an expression. `enclosing_call` carries the key of the
    /// target-header function whose argument list we are inside (for
    /// lambda attribution) together with the argument index.
    fn walk_expr(&mut self, expr: &Expr, enclosing_call: Option<(&str, usize)>) {
        match &expr.kind {
            ExprKind::Call { callee, args } => {
                let fn_key = self.handle_call(callee, args, expr.span);
                for (i, a) in args.iter().enumerate() {
                    self.walk_expr(a, fn_key.as_deref().map(|k| (k, i)));
                }
            }
            ExprKind::Member {
                base,
                member,
                arrow: _,
            } => {
                // Bare member access (not a call — calls are handled above):
                // a field use.
                if let Some(class_key) = self.infer_class_of(base) {
                    if self.is_target_class(&class_key) && self.in_sources(expr.span) {
                        let receiver = self.infer_type(base);
                        let entry = self
                            .report
                            .fields
                            .entry((class_key.clone(), member.ident.clone()))
                            .or_insert_with(|| FieldUsage {
                                class_key,
                                field: member.ident.clone(),
                                spans: Vec::new(),
                                receiver_types: Vec::new(),
                            });
                        entry.spans.push(expr.span);
                        if let Some(r) = receiver {
                            entry.receiver_types.push(r);
                        }
                    }
                }
                self.walk_expr(base, None);
            }
            ExprKind::Lambda(l) => {
                if self.in_sources(expr.span) {
                    let captured = self.lambda_captures(l);
                    self.report.lambdas.push(LambdaUse {
                        lambda: l.clone(),
                        span: expr.span,
                        target_function: enclosing_call.map(|(k, _)| k.to_string()),
                        arg_index: enclosing_call.map(|(_, i)| i).unwrap_or(0),
                        captured,
                    });
                }
                self.scopes.push(
                    l.params
                        .iter()
                        .filter(|(_, n)| !n.is_empty())
                        .map(|(t, n)| (n.clone(), t.clone()))
                        .collect(),
                );
                for s in &l.body.stmts {
                    self.walk_stmt(s);
                }
                self.scopes.pop();
            }
            ExprKind::Unary { expr: e, .. }
            | ExprKind::Paren(e)
            | ExprKind::Delete { expr: e, .. } => self.walk_expr(e, enclosing_call),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs, None);
                self.walk_expr(rhs, None);
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.walk_expr(cond, None);
                self.walk_expr(then_expr, None);
                self.walk_expr(else_expr, None);
            }
            ExprKind::Index { base, index } => {
                self.walk_expr(base, None);
                self.walk_expr(index, None);
            }
            ExprKind::New { ty, args } => {
                if self.in_sources(expr.span) {
                    // `new T` requires the complete type but the result is
                    // a pointer; record as by-value (needs definition).
                    self.record_type(ty, expr.span, Some(UsageNature::ByValue));
                }
                for a in args {
                    self.walk_expr(a, None);
                }
            }
            ExprKind::Cast { ty, expr: e, .. } => {
                if self.in_sources(expr.span) {
                    self.record_type(ty, expr.span, None);
                }
                self.walk_expr(e, None);
            }
            ExprKind::BraceInit { ty, args } => {
                if let Some(t) = ty {
                    if self.in_sources(expr.span) {
                        self.record_type(t, expr.span, Some(UsageNature::ByValue));
                    }
                }
                for a in args {
                    self.walk_expr(a, None);
                }
            }
            ExprKind::Name(n) => {
                self.maybe_record_enum_constant(n, expr.span);
                // A bare name use of a target *function* (passed as a
                // function pointer, say) still counts as a use.
                if self.in_sources(expr.span) && self.lookup_local(&n.key()).is_none() {
                    if let Some(key) = self.resolve_in_context(n) {
                        if let Some(sym) = self.table.get(&key) {
                            if matches!(sym.kind, SymbolKind::Function(_))
                                && self.target_files.contains(&sym.file)
                            {
                                self.record_function_use(&key, None, expr.span, expr.span, &[]);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Handles a call expression; returns the key of the called
    /// target-header function (for lambda attribution).
    fn handle_call(&mut self, callee: &Expr, args: &[Expr], call_span: Span) -> Option<String> {
        match &callee.kind {
            ExprKind::Name(name) => {
                // Object with overloaded operator()?
                let base = name.key();
                if let Some(ty) = self.lookup_local(&base).cloned() {
                    if let Some(class_key) = self.class_key_of_type(&ty) {
                        if self.is_target_class(&class_key) && self.in_sources(call_span) {
                            self.record_method_use(
                                &class_key,
                                "operator()",
                                call_span,
                                callee.span,
                                args,
                                Some(ty.clone()),
                            );
                        }
                    }
                    return None;
                }
                // Free function from the target header?
                let key = self.resolve_in_context(name)?;
                let sym = self.table.get(&key)?;
                if !matches!(sym.kind, SymbolKind::Function(_)) {
                    return None;
                }
                if self.target_files.contains(&sym.file) && self.in_sources(call_span) {
                    let explicit: Vec<String> = name
                        .last()
                        .args
                        .as_ref()
                        .map(|a| a.iter().map(|x| x.to_string()).collect())
                        .unwrap_or_default();
                    self.record_function_use(
                        &key,
                        if explicit.is_empty() {
                            None
                        } else {
                            Some(explicit)
                        },
                        call_span,
                        callee.span,
                        args,
                    );
                    return Some(key);
                }
                None
            }
            ExprKind::Member { base, member, .. } => {
                let class_key = self.infer_class_of(base)?;
                if self.is_target_class(&class_key) && self.in_sources(call_span) {
                    let receiver = self.infer_type(base);
                    self.record_method_use(
                        &class_key,
                        &member.ident,
                        call_span,
                        callee.span,
                        args,
                        receiver,
                    );
                }
                self.walk_expr(base, None);
                None
            }
            ExprKind::Paren(inner) | ExprKind::Unary { expr: inner, .. } => {
                self.handle_call(inner, args, call_span)
            }
            other => {
                // Walk exotic callees for completeness.
                let dummy = Expr::new(other.clone(), callee.span);
                self.walk_expr(&dummy, None);
                None
            }
        }
    }

    fn record_function_use(
        &mut self,
        key: &str,
        explicit_targs: Option<Vec<String>>,
        span: Span,
        callee_span: Span,
        args: &[Expr],
    ) {
        let decl = match self.table.get(key).map(|s| &s.kind) {
            Some(SymbolKind::Function(f)) => Arc::clone(f),
            _ => return,
        };
        let arg_types = args.iter().map(|a| self.infer_type(a)).collect();
        self.report
            .functions
            .entry(key.to_string())
            .or_insert_with(|| UsedFunction {
                key: key.to_string(),
                decl,
                calls: Vec::new(),
            })
            .calls
            .push(CallSite {
                span,
                callee_span,
                arg_types,
                explicit_targs,
                receiver: None,
            });
    }

    fn record_method_use(
        &mut self,
        class_key: &str,
        method: &str,
        span: Span,
        callee_span: Span,
        args: &[Expr],
        receiver: Option<Type>,
    ) {
        let arg_types = args.iter().map(|a| self.infer_type(a)).collect();
        self.report
            .methods
            .entry((class_key.to_string(), method.to_string()))
            .or_insert_with(|| MethodUsage {
                class_key: class_key.to_string(),
                method: method.to_string(),
                calls: Vec::new(),
            })
            .calls
            .push(CallSite {
                span,
                callee_span,
                arg_types,
                explicit_targs: None,
                receiver,
            });
    }

    /// Computes the free variables of a lambda's body that refer to the
    /// enclosing scope, in first-use order, with their declared types.
    fn lambda_captures(&self, l: &LambdaExpr) -> Vec<(String, Type)> {
        // The walk speaks interned `Sym`s — the bound set and first-use
        // list allocate nothing per occurrence; names become `String`s
        // only at the captured-variable boundary below.
        let mut bound: HashSet<Sym> = l.params.iter().map(|(_, n)| Sym::intern(n)).collect();
        let mut captured: Vec<(String, Type)> = Vec::new();
        let mut order = Vec::new();
        collect_free_names(&l.body.stmts, &mut bound, &mut order);
        for name in order {
            if captured.iter().any(|(n, _)| name == n.as_str()) {
                continue;
            }
            if let Some(ty) = self.lookup_local(name.as_str()) {
                captured.push((name.as_str().to_string(), ty.clone()));
            }
        }
        captured
    }

    /// Records a type usage of a target-header enum.
    fn maybe_record_enum_type(&mut self, name: &QualName, span: Span) {
        if !self.in_sources(span) {
            return;
        }
        let Some(key) = self.resolve_in_context(name) else {
            return;
        };
        let Some(sym) = self.table.get(&key) else {
            return;
        };
        let SymbolKind::Enum(decl) = &sym.kind else {
            return;
        };
        if !self.target_files.contains(&sym.file) {
            return;
        }
        let decl = Arc::clone(decl);
        self.report
            .enums
            .entry(key.clone())
            .or_insert_with(|| EnumUsage {
                key,
                decl,
                constants: Vec::new(),
                type_decl_spans: Vec::new(),
            })
            .type_decl_spans
            .push(span);
    }

    /// Records `Enum::Constant` expression uses.
    fn maybe_record_enum_constant(&mut self, name: &QualName, span: Span) {
        if name.segs.len() < 2 || !self.in_sources(span) {
            return;
        }
        let prefix = QualName {
            global: name.global,
            segs: name.segs[..name.segs.len() - 1].to_vec(),
        };
        let constant = name.base_ident().to_string();
        let Some(key) = self.resolve_in_context(&prefix) else {
            return;
        };
        let Some(sym) = self.table.get(&key) else {
            return;
        };
        // Two spellings reach an enumerator: `Enum::CONST` (prefix is the
        // enum) and — for unscoped enums — `Namespace::CONST` (the
        // constant leaks into the enclosing namespace).
        let (key, decl) = match &sym.kind {
            SymbolKind::Enum(decl)
                if self.target_files.contains(&sym.file)
                    && decl.enumerators.iter().any(|e| e.name == constant) =>
            {
                (sym.key.clone(), Arc::clone(decl))
            }
            SymbolKind::Namespace => {
                let ns_key = sym.key.clone();
                let Some(found) = self.table.iter().find_map(|s| match &s.kind {
                    SymbolKind::Enum(d)
                        if !d.scoped
                            && s.scope.join("::") == ns_key
                            && self.target_files.contains(&s.file)
                            && d.enumerators.iter().any(|e| e.name == constant) =>
                    {
                        Some((s.key.clone(), Arc::clone(d)))
                    }
                    _ => None,
                }) else {
                    return;
                };
                found
            }
            _ => return,
        };
        self.report
            .enums
            .entry(key.clone())
            .or_insert_with(|| EnumUsage {
                key,
                decl,
                constants: Vec::new(),
                type_decl_spans: Vec::new(),
            })
            .constants
            .push((span, constant));
    }

    fn is_target_class(&self, key: &str) -> bool {
        self.table
            .get(key)
            .is_some_and(|s| self.target_files.contains(&s.file))
    }

    /// The (alias-resolved) class key of a written type, if any.
    fn class_key_of_type(&self, ty: &Type) -> Option<String> {
        let resolved = self.aliases.resolve_type(ty);
        let core = resolved.core_name()?;
        let key = self.resolve_in_context(core)?;
        self.aliases.resolve_key_to_class(&key)
    }

    /// Best-effort: the class key of the object an expression denotes.
    fn infer_class_of(&self, expr: &Expr) -> Option<String> {
        let ty = self.infer_type(expr)?;
        self.class_key_of_type(&ty)
    }

    /// Best-effort type inference for call-site arguments.
    fn infer_type(&self, expr: &Expr) -> Option<Type> {
        match &expr.kind {
            ExprKind::Int(_) => Some(Type::builtin(yalla_cpp::ast::Builtin::Int)),
            ExprKind::Float(_) => Some(Type::builtin(yalla_cpp::ast::Builtin::Double)),
            ExprKind::Bool(_) => Some(Type::builtin(yalla_cpp::ast::Builtin::Bool)),
            ExprKind::Name(n) => {
                if let Some(t) = self.lookup_local(&n.key()) {
                    return Some(t.clone());
                }
                let key = self.resolve_in_context(n)?;
                match &self.table.get(&key)?.kind {
                    SymbolKind::Variable(t) => Some((**t).clone()),
                    _ => None,
                }
            }
            ExprKind::Paren(e) => self.infer_type(e),
            ExprKind::Unary { op, expr: e } => {
                let t = self.infer_type(e)?;
                match op {
                    yalla_cpp::ast::UnaryOp::Deref => match t.kind {
                        TypeKind::Pointer(inner) => Some(*inner),
                        _ => Some(t),
                    },
                    yalla_cpp::ast::UnaryOp::AddrOf => Some(Type::pointer(t)),
                    _ => Some(t),
                }
            }
            ExprKind::Member { base, member, .. } => {
                let class_key = self.infer_class_of(base)?;
                let class = match &self.table.get(&class_key)?.kind {
                    SymbolKind::Class(c) => c,
                    _ => return None,
                };
                class
                    .fields()
                    .find(|(_, f)| f.name == member.ident)
                    .map(|(_, f)| f.ty.clone())
            }
            ExprKind::Call { callee, .. } => {
                // Return type of the called function, when resolvable.
                if let ExprKind::Name(n) = &callee.kind {
                    let key = self.resolve_in_context(n)?;
                    if let SymbolKind::Function(f) = &self.table.get(&key)?.kind {
                        return f.ret.clone();
                    }
                }
                None
            }
            ExprKind::New { ty, .. } => Some(Type::pointer(ty.clone())),
            ExprKind::Cast { ty, .. } => Some(ty.clone()),
            ExprKind::BraceInit { ty, .. } => ty.clone(),
            _ => None,
        }
    }
}

/// Collects unqualified names used in `stmts` that are not bound locally,
/// in first-use order. `bound` starts with the lambda parameters and grows
/// with local declarations. Both collections hold interned `Sym`s: the
/// bound set is order-insensitive membership and the out list preserves
/// first-use order by position, so interning changes no observable order.
#[allow(clippy::collapsible_match)] // arm-level guards read better uncollapsed
fn collect_free_names(stmts: &[Stmt], bound: &mut HashSet<Sym>, out: &mut Vec<Sym>) {
    #[allow(clippy::collapsible_match)]
    fn expr_names(e: &Expr, bound: &HashSet<Sym>, out: &mut Vec<Sym>) {
        match &e.kind {
            ExprKind::Name(n) => {
                if n.segs.len() == 1 && !n.global {
                    let name = Sym::intern(&n.segs[0].ident);
                    if !bound.contains(&name) {
                        out.push(name);
                    }
                }
            }
            ExprKind::Unary { expr, .. }
            | ExprKind::Paren(expr)
            | ExprKind::Delete { expr, .. } => expr_names(expr, bound, out),
            ExprKind::Binary { lhs, rhs, .. } => {
                expr_names(lhs, bound, out);
                expr_names(rhs, bound, out);
            }
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                expr_names(cond, bound, out);
                expr_names(then_expr, bound, out);
                expr_names(else_expr, bound, out);
            }
            ExprKind::Call { callee, args } => {
                // Callees that are unqualified names are only captures when
                // they denote objects (operator() calls); qualified callees
                // are functions. We conservatively record unqualified ones —
                // the collector's scope lookup filters out non-locals.
                expr_names(callee, bound, out);
                for a in args {
                    expr_names(a, bound, out);
                }
            }
            ExprKind::Member { base, .. } => expr_names(base, bound, out),
            ExprKind::Index { base, index } => {
                expr_names(base, bound, out);
                expr_names(index, bound, out);
            }
            ExprKind::Cast { expr, .. } => expr_names(expr, bound, out),
            ExprKind::New { args, .. } | ExprKind::BraceInit { args, .. } => {
                for a in args {
                    expr_names(a, bound, out);
                }
            }
            ExprKind::Lambda(inner) => {
                // Nested lambda: its free names are free here too, minus
                // its own params.
                let mut inner_bound = bound.clone();
                inner_bound.extend(inner.params.iter().map(|(_, n)| Sym::intern(n)));
                collect_free_names(&inner.body.stmts, &mut inner_bound, out);
            }
            _ => {}
        }
    }
    for s in stmts {
        match &s.kind {
            StmtKind::Expr(e) => expr_names(e, bound, out),
            StmtKind::Decl(v) => {
                if let Some(i) = &v.init {
                    expr_names(i, bound, out);
                }
                bound.insert(Sym::intern(&v.name));
            }
            StmtKind::Block(b) => collect_free_names(&b.stmts, &mut bound.clone(), out),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expr_names(cond, bound, out);
                collect_free_names(std::slice::from_ref(then_branch), &mut bound.clone(), out);
                if let Some(e) = else_branch {
                    collect_free_names(std::slice::from_ref(e), &mut bound.clone(), out);
                }
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                let mut inner = bound.clone();
                match init.as_ref() {
                    ForInit::Decl(v) => {
                        if let Some(i) = &v.init {
                            expr_names(i, &inner, out);
                        }
                        inner.insert(Sym::intern(&v.name));
                    }
                    ForInit::Expr(e) => expr_names(e, &inner, out),
                    ForInit::Empty => {}
                }
                if let Some(c) = cond {
                    expr_names(c, &inner, out);
                }
                if let Some(i) = inc {
                    expr_names(i, &inner, out);
                }
                collect_free_names(std::slice::from_ref(body), &mut inner, out);
            }
            StmtKind::RangeFor { var, range, body } => {
                expr_names(range, bound, out);
                let mut inner = bound.clone();
                inner.insert(Sym::intern(&var.name));
                collect_free_names(std::slice::from_ref(body), &mut inner, out);
            }
            StmtKind::While { cond, body } => {
                expr_names(cond, bound, out);
                collect_free_names(std::slice::from_ref(body), &mut bound.clone(), out);
            }
            StmtKind::DoWhile { body, cond } => {
                collect_free_names(std::slice::from_ref(body), &mut bound.clone(), out);
                expr_names(cond, bound, out);
            }
            StmtKind::Return(Some(e)) => expr_names(e, bound, out),
            _ => {}
        }
    }
}

/// Collects the names appearing in template arguments anywhere in `name`.
fn core_template_arg_names(name: &QualName, out: &mut Vec<QualName>) {
    for seg in &name.segs {
        if let Some(args) = &seg.args {
            for a in args {
                if let yalla_cpp::ast::TemplateArg::Type(t) = a {
                    if let Some(n) = t.core_name() {
                        out.push(n.clone());
                        core_template_arg_names(n, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_cpp::frontend::Frontend;
    use yalla_cpp::vfs::Vfs;

    /// Analyzes `source` against the standard mini-Kokkos header.
    pub(super) fn analyze_pair(source: &str) -> UsageReport {
        analyze(KOKKOS_MINI, source)
    }

    /// Parses a header + source pair and runs usage collection with the
    /// header as the substitution target.
    pub(super) fn analyze(header: &str, source: &str) -> UsageReport {
        let mut vfs = Vfs::new();
        let h = vfs.add_file("lib.hpp", header);
        let s = vfs.add_file("main.cpp", format!("#include \"lib.hpp\"\n{source}"));
        let fe = Frontend::new(vfs);
        let tu = fe.parse_translation_unit("main.cpp").unwrap();
        let table = SymbolTable::build(&tu.ast);
        let targets: HashSet<FileId> = [h].into_iter().collect();
        let sources: HashSet<FileId> = [s].into_iter().collect();
        UsageReport::collect(&tu.ast, &table, &targets, &sources)
    }

    pub(super) const KOKKOS_MINI: &str = r#"
namespace Kokkos {
  class OpenMP;
  class LayoutRight {};
  template<class D, class L> class View {
  public:
    View();
    int& operator()(int i, int j);
    int extent(int d) const;
    int rank;
  };
  template<class P> class HostThreadTeamMember {
  public:
    int league_rank() const;
  };
  template<class S> class TeamPolicy {
  public:
    using member_type = HostThreadTeamMember<S>;
  };
  struct BoundsStruct { int lo; int hi; };
  template<class M> BoundsStruct TeamThreadRange(M& m, int n);
  template<class R, class F> void parallel_for(R range, F functor);
}
"#;

    #[test]
    fn field_and_value_usage_natures() {
        let r = analyze(
            KOKKOS_MINI,
            "struct add_y { int y; Kokkos::View<int**, Kokkos::LayoutRight> x; };",
        );
        let view = &r.classes["Kokkos::View"];
        assert!(view.has_by_value());
        assert_eq!(view.by_value_spans.len(), 1);
        let layout = &r.classes["Kokkos::LayoutRight"];
        assert!(layout.natures.contains(&UsageNature::TemplateArg));
        assert!(!layout.has_by_value());
    }

    #[test]
    fn pointer_and_reference_natures() {
        let r = analyze(
            KOKKOS_MINI,
            "void f(Kokkos::View<int, int>* p, Kokkos::View<int, int>& q);",
        );
        let view = &r.classes["Kokkos::View"];
        assert!(view.natures.contains(&UsageNature::Pointer));
        assert!(view.natures.contains(&UsageNature::Reference));
        assert!(!view.has_by_value());
    }

    #[test]
    fn alias_target_usage() {
        let r = analyze(KOKKOS_MINI, "using sp_t = Kokkos::OpenMP;");
        assert!(r.classes["Kokkos::OpenMP"]
            .natures
            .contains(&UsageNature::AliasTarget));
    }

    #[test]
    fn member_type_alias_resolves_to_host_member() {
        let r = analyze(
            KOKKOS_MINI,
            "using sp_t = Kokkos::OpenMP;\nusing member_t = Kokkos::TeamPolicy<sp_t>::member_type;",
        );
        // member_type resolves to HostThreadTeamMember (the paper's §3.2.1).
        assert!(
            r.classes.contains_key("Kokkos::HostThreadTeamMember"),
            "classes: {:?}",
            r.classes.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn free_function_call_recorded() {
        let r = analyze(
            KOKKOS_MINI,
            "void go() { Kokkos::View<int,int>* v; Kokkos::parallel_for(1, 2); }",
        );
        let pf = &r.functions["Kokkos::parallel_for"];
        assert_eq!(pf.calls.len(), 1);
        assert_eq!(pf.calls[0].arg_types.len(), 2);
    }

    #[test]
    fn figure_3_method_calls() {
        let source = r#"
using sp_t = Kokkos::OpenMP;
using member_t = Kokkos::TeamPolicy<sp_t>::member_type;
struct add_y {
  int y;
  Kokkos::View<int**, Kokkos::LayoutRight> x;
  void operator()(member_t &m);
};
void add_y::operator()(member_t &m) {
  int j = m.league_rank();
  Kokkos::parallel_for(
    Kokkos::TeamThreadRange(m, 5),
    [&](int i) { x(j, i) += y; });
}
"#;
        let r = analyze(KOKKOS_MINI, source);
        // league_rank on the (alias-resolved) member class.
        assert!(
            r.methods
                .contains_key(&("Kokkos::HostThreadTeamMember".into(), "league_rank".into())),
            "methods: {:?}",
            r.methods.keys().collect::<Vec<_>>()
        );
        // x(j, i) — operator() on the View.
        assert!(
            r.methods
                .contains_key(&("Kokkos::View".into(), "operator()".into())),
            "methods: {:?}",
            r.methods.keys().collect::<Vec<_>>()
        );
        // Both free functions.
        assert!(r.functions.contains_key("Kokkos::TeamThreadRange"));
        assert!(r.functions.contains_key("Kokkos::parallel_for"));
        // The lambda is attributed to parallel_for as argument 1.
        assert_eq!(r.lambdas.len(), 1);
        assert_eq!(
            r.lambdas[0].target_function.as_deref(),
            Some("Kokkos::parallel_for")
        );
        assert_eq!(r.lambdas[0].arg_index, 1);
    }

    #[test]
    fn uses_in_header_itself_do_not_count() {
        // The header's own internals are not "usage by the sources".
        let r = analyze(KOKKOS_MINI, "int unrelated;");
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn method_call_through_local_variable() {
        let r = analyze(
            KOKKOS_MINI,
            "void f() { Kokkos::View<int,int> v; int e = v.extent(0); }",
        );
        assert!(r
            .methods
            .contains_key(&("Kokkos::View".into(), "extent".into())));
        assert!(r.classes["Kokkos::View"].has_by_value());
    }

    #[test]
    fn field_access_recorded() {
        let r = analyze(
            KOKKOS_MINI,
            "void f(Kokkos::View<int,int>& v) { int r = v.rank; }",
        );
        assert!(r
            .fields
            .contains_key(&("Kokkos::View".into(), "rank".into())));
    }

    #[test]
    fn new_expression_is_by_value_use() {
        let r = analyze(
            KOKKOS_MINI,
            "void f() { auto* p = new Kokkos::LayoutRight(); }",
        );
        assert!(r.classes["Kokkos::LayoutRight"].has_by_value());
    }

    #[test]
    fn call_argument_types_inferred() {
        let r = analyze(
            KOKKOS_MINI,
            "void f(Kokkos::HostThreadTeamMember<Kokkos::OpenMP>& m) { Kokkos::TeamThreadRange(m, 5); }",
        );
        let ttr = &r.functions["Kokkos::TeamThreadRange"];
        let t0 = ttr.calls[0].arg_types[0].as_ref().unwrap();
        assert!(t0.to_string().contains("HostThreadTeamMember"));
        let t1 = ttr.calls[0].arg_types[1].as_ref().unwrap();
        assert_eq!(t1.to_string(), "int");
    }
}

#[cfg(test)]
mod capture_tests {
    use super::tests::analyze_pair;

    #[test]
    fn lambda_captures_enclosing_variables_in_order() {
        let source = r#"
struct add_y {
  int y;
  Kokkos::View<int**, Kokkos::LayoutRight> x;
  void operator()(int m);
};
void add_y::operator()(int m) {
  int j = m;
  Kokkos::parallel_for(Kokkos::TeamThreadRange(j, 5), [&](int i) { x(j, i) += y; });
}
"#;
        let r = analyze_pair(source);
        assert_eq!(r.lambdas.len(), 1);
        let caps: Vec<&str> = r.lambdas[0]
            .captured
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        // First-use order: x (receiver of the call), j, y.
        assert_eq!(caps, vec!["x", "j", "y"]);
        let x_ty = &r.lambdas[0].captured[0].1;
        assert!(x_ty.to_string().contains("View"));
    }

    #[test]
    fn lambda_params_and_locals_are_not_captured() {
        let source = r#"
void go(int outer) {
  Kokkos::parallel_for(1, [&](int i) { int t = i + outer; t += 1; });
}
"#;
        let r = analyze_pair(source);
        let caps: Vec<&str> = r.lambdas[0]
            .captured
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(caps, vec!["outer"]);
    }
}

#[cfg(test)]
mod enum_tests {
    use super::tests::analyze;

    const HEADER: &str = r#"
namespace cv {
  enum class LineType : int { Solid = 1, Dashed = 4, AntiAliased = 16 };
  enum Flags { READ, WRITE, APPEND };
}
"#;

    #[test]
    fn enum_type_and_constant_usage() {
        let r = analyze(
            HEADER,
            "void draw(cv::LineType t);\nint pick() { int k = static_cast<int>(cv::LineType::Dashed); return k; }",
        );
        let e = &r.enums["cv::LineType"];
        assert_eq!(e.type_decl_spans.len(), 1);
        assert_eq!(e.constants.len(), 1);
        assert_eq!(e.constants[0].1, "Dashed");
        assert_eq!(e.decl.enumerators.len(), 3);
    }

    #[test]
    fn unscoped_enum_constant() {
        let r = analyze(HEADER, "int m() { return cv::Flags::WRITE; }");
        assert_eq!(r.enums["cv::Flags"].constants.len(), 1);
    }

    #[test]
    fn unrelated_enum_untouched() {
        let r = analyze(HEADER, "enum Local { A }; Local use_it() { return A; }");
        assert!(r.enums.is_empty());
    }
}
