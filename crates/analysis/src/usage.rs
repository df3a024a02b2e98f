//! Usage analysis: which symbols from the target header do the sources use,
//! and *how*.
//!
//! This is the analysis phase of the paper's Figure 5 (`getUsedClasses`,
//! `getUsedFunctions`, `getLambdas`) plus the usage-*nature* recording of
//! §4.1: for every class the collector notes whether it is used by value,
//! by pointer, by reference, or as a template argument; for every function
//! and method it records the call sites with best-effort inferred argument
//! types (needed later for explicit wrapper instantiation).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use yalla_cpp::ast::visit::{walk_expr, walk_stmt, walk_stmts, Visitor};
use yalla_cpp::ast::{
    ClassDecl, Decl, DeclKind, Expr, ExprKind, FunctionDecl, LambdaExpr, QualName, Stmt, StmtKind,
    TranslationUnit, Type, TypeKind,
};
use yalla_cpp::loc::{FileId, Span};

use crate::scope::Scopes;
use crate::symbols::{SymbolInfo, SymbolKind, SymbolTable};

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
            scopes: Scopes::new(table),
            target_files,
            source_files,
            report: UsageReport::default(),
            enclosing_call: None,
            open_lambdas: Vec::new(),
        };
        for d in &tu.decls {
            c.decl(d);
        }
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
    scopes: Scopes<'a>,
    target_files: &'a HashSet<FileId>,
    source_files: &'a HashSet<FileId>,
    report: UsageReport,
    /// The target-header call whose argument is being walked, with the
    /// argument's index: a lambda argument is attributed to that call.
    enclosing_call: Option<(String, usize)>,
    /// Lambdas whose bodies are being walked: index into
    /// `report.lambdas` and the depth of the scope their parameters open.
    open_lambdas: Vec<(usize, usize)>,
}

impl<'a> Collector<'a> {
    fn in_sources(&self, span: Span) -> bool {
        self.source_files.contains(&span.file)
    }

    /// Resolves a written type name to the key of a class declared in the
    /// target header (following aliases). Returns `None` for anything else.
    fn target_class_key(&self, name: &QualName) -> Option<String> {
        let key = &self.scopes.resolve(name)?.key;
        let class_key = self.scopes.aliases().resolve_key_to_class(key)?;
        self.is_target_class(&class_key).then_some(class_key)
    }

    fn is_target_class(&self, key: &str) -> bool {
        self.scopes
            .table()
            .get(key)
            .is_some_and(|s| self.target_files.contains(&s.file))
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

    // ----- declarations ------------------------------------------------------

    /// Walks one declaration. Only declarations written in the sources
    /// count; namespaces are entered wherever they are declared.
    fn decl(&mut self, decl: &Decl) {
        if let DeclKind::Namespace(ns) = &decl.kind {
            self.scopes.enter_namespace(&ns.name);
            for d in &ns.decls {
                self.decl(d);
            }
            self.scopes.leave_namespace();
            return;
        }
        if !self.in_sources(decl.span) {
            return;
        }
        match &decl.kind {
            DeclKind::Class(c) => {
                for m in &c.members {
                    match &m.decl.kind {
                        DeclKind::Function(f) => self.function(f, m.decl.span, Some(c)),
                        DeclKind::Variable(_) | DeclKind::Alias(_) => self.decl(&m.decl),
                        _ => {}
                    }
                }
            }
            DeclKind::Alias(a) => {
                self.record_type(&a.target, decl.span, Some(UsageNature::AliasTarget))
            }
            DeclKind::UsingDecl(n) => {
                if let Some(key) = self.target_class_key(n) {
                    self.record_class(key, UsageNature::AliasTarget, decl.span);
                }
            }
            DeclKind::Function(f) => self.function(f, decl.span, None),
            DeclKind::Variable(v) => {
                self.record_type(&v.ty, decl.span, None);
                if let Some(init) = &v.init {
                    self.visit_expr(init);
                }
            }
            _ => {}
        }
    }

    /// Records a function's signature types and walks its body with the
    /// fields of its class (`member_of`, or the qualifier's) in scope.
    fn function(&mut self, f: &FunctionDecl, span: Span, member_of: Option<&ClassDecl>) {
        if let Some(ret) = &f.ret {
            self.record_type(ret, span, None);
        }
        for p in &f.params {
            self.record_type(&p.ty, span, None);
        }
        if let Some(body) = &f.body {
            self.scopes.push_function(f, member_of);
            walk_stmts(self, &body.stmts);
            self.scopes.pop();
        }
    }

    // ----- expressions -----------------------------------------------------

    /// Handles the callee of a call expression; returns the key of the
    /// called target-header function (for lambda attribution).
    fn call(&mut self, callee: &Expr, args: &[Expr], call_span: Span) -> Option<String> {
        match &callee.kind {
            ExprKind::Name(name) => {
                self.capture(name);
                // Object with overloaded operator()?
                if let Some(ty) = self.scopes.lookup(&name.key()).cloned() {
                    if let Some(class_key) = self.scopes.class_key_of(&ty) {
                        if self.is_target_class(&class_key) && self.in_sources(call_span) {
                            self.record_method_use(
                                &class_key,
                                "operator()",
                                call_span,
                                callee.span,
                                args,
                                Some(ty),
                            );
                        }
                    }
                    return None;
                }
                // Free function from the target header?
                let sym = self.scopes.resolve(name)?;
                if !matches!(sym.kind, SymbolKind::Function(_))
                    || !self.target_files.contains(&sym.file)
                    || !self.in_sources(call_span)
                {
                    return None;
                }
                let explicit: Vec<String> = name
                    .last()
                    .args
                    .iter()
                    .flatten()
                    .map(|x| x.to_string())
                    .collect();
                let explicit = (!explicit.is_empty()).then_some(explicit);
                self.record_function_use(sym, explicit, call_span, callee.span, args);
                Some(sym.key.clone())
            }
            ExprKind::Member { base, member, .. } => {
                if let Some(class_key) = self.scopes.infer_class_of(base) {
                    if self.is_target_class(&class_key) && self.in_sources(call_span) {
                        let receiver = self.scopes.infer_type(base);
                        self.record_method_use(
                            &class_key,
                            &member.ident,
                            call_span,
                            callee.span,
                            args,
                            receiver,
                        );
                    }
                }
                self.visit_expr(base);
                None
            }
            ExprKind::Paren(inner) | ExprKind::Unary { expr: inner, .. } => {
                self.call(inner, args, call_span)
            }
            _ => {
                self.visit_expr(callee);
                None
            }
        }
    }

    /// Notes a use of `name`: an unqualified local bound outside an open
    /// lambda is one of that lambda's captures, kept in first-use order
    /// with its declared type.
    fn capture(&mut self, name: &QualName) {
        if self.open_lambdas.is_empty() || name.global || name.segs.len() != 1 {
            return;
        }
        let ident = &name.segs[0].ident;
        let Some((depth, ty)) = self.scopes.find(ident) else {
            return;
        };
        for &(index, base) in &self.open_lambdas {
            let captured = &mut self.report.lambdas[index].captured;
            if depth < base && !captured.iter().any(|(n, _)| n == ident) {
                captured.push((ident.clone(), ty.clone()));
            }
        }
    }

    fn record_function_use(
        &mut self,
        sym: &SymbolInfo,
        explicit_targs: Option<Vec<String>>,
        span: Span,
        callee_span: Span,
        args: &[Expr],
    ) {
        let SymbolKind::Function(decl) = &sym.kind else {
            return;
        };
        let arg_types = args.iter().map(|a| self.scopes.infer_type(a)).collect();
        self.report
            .functions
            .entry(sym.key.clone())
            .or_insert_with(|| UsedFunction {
                key: sym.key.clone(),
                decl: Arc::clone(decl),
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
        let arg_types = args.iter().map(|a| self.scopes.infer_type(a)).collect();
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

    /// Records a type usage of a target-header enum.
    fn maybe_record_enum_type(&mut self, name: &QualName, span: Span) {
        if !self.in_sources(span) {
            return;
        }
        let Some(sym) = self.scopes.resolve(name) else {
            return;
        };
        let SymbolKind::Enum(decl) = &sym.kind else {
            return;
        };
        if !self.target_files.contains(&sym.file) {
            return;
        }
        self.report
            .enums
            .entry(sym.key.clone())
            .or_insert_with(|| EnumUsage {
                key: sym.key.clone(),
                decl: Arc::clone(decl),
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
        let Some(sym) = self.scopes.resolve(&prefix) else {
            return;
        };
        let table = self.scopes.table();
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
                let ns_key = &sym.key;
                let Some(found) = table.iter().find_map(|s| match &s.kind {
                    SymbolKind::Enum(d)
                        if !d.scoped
                            && s.scope.join("::") == *ns_key
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
}

/// The collector's own arms: everything else is the shared walk.
impl Visitor for Collector<'_> {
    fn visit_stmt(&mut self, stmt: &Stmt) {
        if let StmtKind::Decl(v) = &stmt.kind {
            if self.in_sources(stmt.span) {
                self.record_type(&v.ty, stmt.span, None);
            }
        }
        walk_stmt(self, stmt);
    }

    fn visit_expr(&mut self, expr: &Expr) {
        // Only a lambda argument, possibly behind unary operators and
        // parentheses, is attributed to the call receiving it.
        let enclosing_call = self.enclosing_call.take();
        let in_sources = self.in_sources(expr.span);
        match &expr.kind {
            ExprKind::Call { callee, args } => {
                let fn_key = self.call(callee, args, expr.span);
                for (i, a) in args.iter().enumerate() {
                    self.enclosing_call = fn_key.clone().map(|k| (k, i));
                    self.visit_expr(a);
                }
                return;
            }
            ExprKind::Member { base, member, .. } => {
                // Bare member access (calls are handled above): a field use.
                let class_key = self.scopes.infer_class_of(base);
                if let Some(class_key) = class_key.filter(|k| self.is_target_class(k)) {
                    if in_sources {
                        let receiver = self.scopes.infer_type(base);
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
                        entry.receiver_types.extend(receiver);
                    }
                }
            }
            ExprKind::Lambda(l) if in_sources => {
                self.open_lambdas
                    .push((self.report.lambdas.len(), self.scopes.depth()));
                self.report.lambdas.push(LambdaUse {
                    lambda: l.clone(),
                    span: expr.span,
                    arg_index: enclosing_call.as_ref().map(|(_, i)| *i).unwrap_or(0),
                    target_function: enclosing_call.map(|(k, _)| k),
                    captured: Vec::new(),
                });
                walk_expr(self, expr);
                self.open_lambdas.pop();
                return;
            }
            ExprKind::Unary { .. } | ExprKind::Paren(_) | ExprKind::Delete { .. } => {
                self.enclosing_call = enclosing_call;
            }
            // `new T` requires the complete type but the result is a
            // pointer; record as by-value (needs definition).
            ExprKind::New { ty, .. } if in_sources => {
                self.record_type(ty, expr.span, Some(UsageNature::ByValue))
            }
            ExprKind::Cast { ty, .. } if in_sources => self.record_type(ty, expr.span, None),
            ExprKind::BraceInit { ty: Some(t), .. } if in_sources => {
                self.record_type(t, expr.span, Some(UsageNature::ByValue))
            }
            ExprKind::Name(n) => {
                self.capture(n);
                self.maybe_record_enum_constant(n, expr.span);
                // A bare name use of a target *function* (passed as a
                // function pointer, say) still counts as a use.
                if in_sources && self.scopes.lookup(&n.key()).is_none() {
                    if let Some(sym) = self.scopes.resolve(n) {
                        if matches!(sym.kind, SymbolKind::Function(_))
                            && self.target_files.contains(&sym.file)
                        {
                            self.record_function_use(sym, None, expr.span, expr.span, &[]);
                        }
                    }
                }
            }
            _ => {}
        }
        walk_expr(self, expr);
    }

    /// Types are recorded where they are written, with their nature.
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
