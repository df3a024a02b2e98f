//! The substitution plan: everything the engine decided to generate.
//!
//! The plan is the bridge between analysis (what is used, and how) and
//! code generation (what to emit and rewrite). Building the plan is the
//! body of the paper's Figure 5 algorithm: classify every used symbol per
//! Table 1, synthesize wrapper signatures, convert lambdas to functors,
//! and record the rewrites the sources need.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use yalla_analysis::aliases::AliasResolver;
use yalla_analysis::incomplete::{wrapper_need, WrapperNeed};
use yalla_analysis::symbols::{SymbolKind, SymbolTable};
use yalla_analysis::usage::UsageReport;
use yalla_cpp::ast::{
    Block, ClassKey, EnumDecl, FunctionDecl, Param, TemplateHeader, Type, TypeKind,
};
use yalla_cpp::loc::Span;

use crate::lambda;
use crate::wrappers;

/// A problem (or note) the engine wants to surface. Diagnostics never
/// abort the substitution; the affected symbol keeps its original form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Category.
    pub kind: DiagnosticKind,
    /// Human-readable explanation.
    pub message: String,
    /// Source location, when known.
    pub span: Option<Span>,
}

/// Categories of diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A used class is nested inside another class and its parent must be
    /// forward declared — the paper's documented unsupported case (§3.2.1).
    NestedClassUnsupported,
    /// Template-argument deduction for an explicit wrapper instantiation
    /// failed; the wrapper is emitted but that instantiation is skipped.
    DeductionFailed,
    /// A name could not be resolved against the symbol table.
    UnknownSymbol,
    /// Informational.
    Note,
}

/// A class to forward declare in the lightweight header.
#[derive(Debug, Clone)]
pub struct ForwardClass {
    /// Fully qualified key.
    pub key: String,
    /// Enclosing namespace path.
    pub namespace: Vec<String>,
    /// Unqualified name.
    pub name: String,
    /// `class` or `struct` (must match the original declaration).
    pub class_key: ClassKey,
    /// Template head, carried over (including defaults) when present.
    pub template: Option<TemplateHeader>,
    /// Whether by-value uses of this class get pointerized.
    pub pointerize: bool,
}

/// A function that can be forward declared directly (Table 1 row 4a).
#[derive(Debug, Clone)]
pub struct ForwardFunction {
    /// Fully qualified key.
    pub key: String,
    /// Enclosing namespace path.
    pub namespace: Vec<String>,
    /// Signature to declare (types requalified to global spelling).
    pub decl: FunctionDecl,
}

/// A function wrapper (Table 1 row 4b).
#[derive(Debug, Clone)]
pub struct FnWrapper {
    /// Key of the wrapped function.
    pub original_key: String,
    /// Wrapper name (`TeamThreadRange_w`).
    pub wrapper_name: String,
    /// Why the wrapper exists.
    pub need: WrapperNeed,
    /// The wrapper's own signature (declared at global scope in the
    /// lightweight header).
    pub decl: FunctionDecl,
    /// Original (requalified) signature, used to emit the definition.
    pub original: FunctionDecl,
    /// Indices of parameters converted from by-value incomplete types to
    /// pointers.
    pub pointerized_params: Vec<usize>,
    /// Explicit template instantiations to emit (rendered argument lists,
    /// e.g. `["Kokkos::BoundsStruct", "yalla_functor_0"]`).
    pub instantiations: Vec<Vec<String>>,
    /// Partially deduced instantiations awaiting lambda→functor patching:
    /// `(call span, per-template-param deduced spelling)`.
    pub(crate) pending_insts: Vec<(Span, Vec<Option<String>>)>,
}

/// What kind of member a method wrapper wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberKind {
    /// An ordinary method.
    Method,
    /// The overloaded call operator.
    CallOperator,
    /// A data member (wrapper returns a reference to it).
    Field,
}

/// A method/field wrapper (Table 1 row 5).
#[derive(Debug, Clone)]
pub struct MethodWrapper {
    /// Key of the owning class.
    pub class_key: String,
    /// Member name as spelled in the class.
    pub member: String,
    /// Wrapper function name (`league_rank`, `paren_operator`,
    /// `yalla_get_rank`).
    pub wrapper_name: String,
    /// Member kind.
    pub kind: MemberKind,
    /// Return type of the wrapper (for fields: reference to field type).
    pub ret: Type,
    /// Non-receiver parameters (copied from the method).
    pub params: Vec<Param>,
    /// Whether the wrapped method is const (receiver passed as const ref).
    pub is_const: bool,
    /// Receiver types to explicitly instantiate with (rendered; pointer
    /// types mean the call site passes a pointerized object).
    pub instantiations: Vec<String>,
}

/// A functor generated from a lambda (Table 1 row 6, §3.4).
#[derive(Debug, Clone)]
pub struct Functor {
    /// Generated name (`yalla_functor_0`).
    pub name: String,
    /// Captured variables as fields (types already pointerized).
    pub fields: Vec<(String, Type)>,
    /// Names of captured variables that the body *mutates*: their fields
    /// are pointers, the construction site passes `&name`, and body uses
    /// read `(*name)` — mutation through a pointer keeps the call
    /// operator `const`, matching the paper's functor shape.
    pub mutated_captures: std::collections::HashSet<String>,
    /// Call-operator parameters.
    pub params: Vec<(Type, String)>,
    /// Call-operator body (already rewritten to use wrappers).
    pub body: Block,
    /// Span of the original lambda in the source (replaced by a
    /// constructor call).
    pub span: Span,
}

/// An enum whose usages get replaced with its underlying type (Table 1
/// row 3).
#[derive(Debug, Clone)]
pub struct EnumReplacement {
    /// Fully qualified key of the enum.
    pub key: String,
    /// The declaration (kept for documentation/reporting).
    pub decl: Arc<EnumDecl>,
    /// Spelling of the underlying type (defaults to `int`).
    pub underlying: String,
    /// Evaluated enumerator values.
    pub constants: BTreeMap<String, i64>,
}

/// The complete substitution plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Classes to forward declare.
    pub classes: Vec<ForwardClass>,
    /// Functions forward declared as-is.
    pub functions: Vec<ForwardFunction>,
    /// Function wrappers.
    pub fn_wrappers: Vec<FnWrapper>,
    /// Method/field wrappers.
    pub method_wrappers: Vec<MethodWrapper>,
    /// Functors generated from lambdas.
    pub functors: Vec<Functor>,
    /// Enum replacements.
    pub enums: Vec<EnumReplacement>,
    /// Keys of classes whose by-value uses must be pointerized.
    pub pointerized_classes: HashSet<String>,
    /// Diagnostics accumulated while planning.
    pub diagnostics: Vec<Diagnostic>,
}

impl Plan {
    /// Builds the plan from a usage report (Figure 5, lines 2–25).
    pub fn build(usage: &UsageReport, table: &SymbolTable) -> Plan {
        let mut plan = Plan::default();
        let aliases = AliasResolver::new(table);

        // ---- classes (Fig. 5 lines 11–14) --------------------------------
        let mut class_keys: Vec<String> = usage.classes.keys().cloned().collect();
        // Classes referenced by used functions' signatures are also needed
        // (Fig. 5 lines 7–10).
        for f in usage.functions.values() {
            let mut mention = |ty: &Type| {
                let resolved = aliases.resolve_type(ty);
                resolved.for_each_named(&mut |n| {
                    if let Some(key) = aliases.resolve_key_to_class(&n.key()) {
                        if table.get(&key).is_some() && !class_keys.contains(&key) {
                            class_keys.push(key);
                        }
                    }
                });
            };
            if let Some(ret) = &f.decl.ret {
                mention(ret);
            }
            for p in &f.decl.params {
                mention(&p.ty);
            }
        }
        class_keys.sort();
        class_keys.dedup();

        for key in &class_keys {
            let Some(sym) = table.get(key) else {
                plan.diagnostics.push(Diagnostic {
                    kind: DiagnosticKind::UnknownSymbol,
                    message: format!("used class `{key}` not found in symbol table"),
                    span: None,
                });
                continue;
            };
            let SymbolKind::Class(class) = &sym.kind else {
                continue;
            };
            if sym.nested_in_class {
                // §3.2.1: nested classes cannot be forward declared when
                // the parent is forward declared. Try the alias route is
                // already done upstream; at this point we must refuse.
                plan.diagnostics.push(Diagnostic {
                    kind: DiagnosticKind::NestedClassUnsupported,
                    message: format!(
                        "`{key}` is a nested class and cannot be forward declared; \
                         Header Substitution does not support this case (paper §3.2.1)"
                    ),
                    span: None,
                });
                continue;
            }
            let pointerize = usage
                .classes
                .get(key)
                .map(|u| u.has_by_value())
                .unwrap_or(false);
            plan.classes.push(ForwardClass {
                key: key.clone(),
                namespace: sym.scope.to_vec(),
                name: class.name.clone(),
                class_key: class.key,
                template: class.template.clone(),
                pointerize,
            });
            if pointerize {
                plan.pointerized_classes.insert(key.clone());
            }
        }

        // ---- enums (Table 1 row 3) ---------------------------------------
        for (key, eu) in &usage.enums {
            let underlying = eu
                .decl
                .underlying
                .as_ref()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "int".to_string());
            let mut constants = BTreeMap::new();
            let mut next = 0i64;
            for en in &eu.decl.enumerators {
                let value = match &en.value {
                    Some(text) => match text.trim().parse::<i64>() {
                        Ok(v) => v,
                        Err(_) => {
                            plan.diagnostics.push(Diagnostic {
                                kind: DiagnosticKind::Note,
                                message: format!(
                                    "enumerator `{key}::{}` has a non-literal value `{text}`; \
                                     using sequential numbering",
                                    en.name
                                ),
                                span: None,
                            });
                            next
                        }
                    },
                    None => next,
                };
                constants.insert(en.name.clone(), value);
                next = value + 1;
            }
            plan.enums.push(EnumReplacement {
                key: key.clone(),
                decl: eu.decl.clone(),
                underlying,
                constants,
            });
        }

        // ---- functions (Fig. 5 lines 16–22) ------------------------------
        let incomplete: HashSet<String> = plan.classes.iter().map(|c| c.key.clone()).collect();
        for (key, used) in &usage.functions {
            let sym = table.get(key);
            let namespace = sym.map(|s| s.scope.to_vec()).unwrap_or_default();
            let requalified = wrappers::requalify_signature(&used.decl, &namespace, table);
            // Call-site refinement: a by-value parameter whose written type
            // is a bare template parameter still needs pointerizing when
            // some call site passes an incomplete class by value through it
            // (the paper's `parallel_for(TeamThreadRange(...), ...)` case).
            let forced =
                wrappers::call_site_incomplete_params(&requalified, used, &incomplete, table);
            let need = match wrapper_need(&requalified, &incomplete, table) {
                WrapperNeed::ForwardDeclarable if forced.is_empty() => {
                    plan.functions.push(ForwardFunction {
                        key: key.clone(),
                        namespace,
                        decl: requalified,
                    });
                    continue;
                }
                WrapperNeed::ForwardDeclarable => WrapperNeed::ParamIncompleteByValue {
                    class: String::new(),
                    param_index: forced[0],
                },
                need => need,
            };
            let wrapper = wrappers::make_fn_wrapper(
                key,
                &requalified,
                &need,
                &incomplete,
                table,
                usage,
                &forced,
                &mut plan.diagnostics,
            );
            plan.fn_wrappers.push(wrapper);
        }

        // ---- methods & fields (Table 1 row 5) -----------------------------
        for ((class_key, method), mu) in &usage.methods {
            match wrappers::make_method_wrapper(class_key, method, mu, table) {
                Ok(w) => plan.method_wrappers.push(w),
                Err(d) => plan.diagnostics.push(d),
            }
        }
        for ((class_key, field), fu) in &usage.fields {
            match wrappers::make_field_wrapper(class_key, field, fu, table) {
                Ok(w) => plan.method_wrappers.push(w),
                Err(d) => plan.diagnostics.push(d),
            }
        }

        // ---- lambdas (Fig. 5 lines 23–25) ---------------------------------
        let mut functors = Vec::new();
        for lu in &usage.lambdas {
            // Only lambdas flowing into substituted functions need the
            // functor treatment.
            if lu.target_function.is_none() {
                continue;
            }
            let functor = lambda::make_functor(functors.len(), lu, &plan, table);
            functors.push(functor);
        }
        plan.functors = functors;

        // Patch function-wrapper instantiations that involve lambdas: the
        // deduced type of a lambda argument is its functor's name.
        wrappers::patch_lambda_instantiations(&mut plan);

        plan
    }
}

/// Helper: true when a type (after stripping indirection) names one of the
/// pointerized classes.
pub(crate) fn mentions_pointerized(
    ty: &Type,
    pointerized: &HashSet<String>,
    table: &SymbolTable,
) -> bool {
    let aliases = AliasResolver::new(table);
    let resolved = aliases.resolve_type(ty);
    match resolved.core_name() {
        Some(core) => {
            let key = aliases
                .resolve_key_to_class(&core.key())
                .unwrap_or_else(|| core.key());
            pointerized.contains(&key)
        }
        None => false,
    }
}

/// Helper: pointerize a type if its core names a pointerized class and the
/// use is by value.
pub(crate) fn pointerize_if_needed(
    ty: &Type,
    pointerized: &HashSet<String>,
    table: &SymbolTable,
) -> Type {
    if !ty.is_by_value() {
        return ty.clone();
    }
    if matches!(ty.kind, TypeKind::Builtin(_)) {
        return ty.clone();
    }
    if mentions_pointerized(ty, pointerized, table) {
        Type::pointer(ty.clone())
    } else {
        ty.clone()
    }
}
