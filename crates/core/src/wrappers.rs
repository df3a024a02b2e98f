//! Wrapper synthesis: function wrappers (§3.2.2) and method/field wrappers
//! (§3.2.3).
//!
//! A *function wrapper* `f_w` shadows a function `f` whose signature uses
//! a soon-to-be-incomplete class by value: an incomplete return type
//! becomes a pointer to a heap-allocated result, an incomplete by-value
//! parameter becomes a pointer parameter. A *method wrapper* exposes a
//! method of a forward-declared class as a free template function taking
//! the object as its first argument; the call operator wrapper is named
//! `paren_operator` (Figure 4a).

use std::collections::{HashMap, HashSet};

use yalla_analysis::aliases::AliasResolver;
use yalla_analysis::incomplete::WrapperNeed;
use yalla_analysis::symbols::{SymbolKind, SymbolTable};
use yalla_analysis::usage::{FieldUsage, MethodUsage, UsageReport};
use yalla_cpp::ast::{ClassDecl, FunctionDecl, FunctionName, Param, Type, TypeKind};

use crate::plan::{Diagnostic, DiagnosticKind, FnWrapper, MemberKind, MethodWrapper, Plan};

/// Suffix appended to wrapped function names (the paper's `_w`).
pub const WRAPPER_SUFFIX: &str = "_w";

/// Name of the call-operator method wrapper (Figure 4a line 20).
pub const PAREN_OPERATOR: &str = "paren_operator";

/// Prefix for field-accessor wrappers.
pub const FIELD_WRAPPER_PREFIX: &str = "yalla_get_";

/// Requalifies every named type in a function signature so it is spelled
/// correctly from global scope (the lightweight header lives outside the
/// library's namespaces).
pub fn requalify_signature(
    decl: &FunctionDecl,
    namespace: &[String],
    table: &SymbolTable,
) -> FunctionDecl {
    let mut out = decl.clone();
    if let Some(ret) = &mut out.ret {
        *ret = requalify_type(ret, namespace, table, out.template.as_ref());
    }
    for p in &mut out.params {
        p.ty = requalify_type(&p.ty, namespace, table, out.template.as_ref());
    }
    out
}

/// Requalifies one type against an enclosing namespace path. Template
/// parameters of the function itself are left untouched.
pub fn requalify_type(
    ty: &Type,
    namespace: &[String],
    table: &SymbolTable,
    template: Option<&yalla_cpp::ast::TemplateHeader>,
) -> Type {
    let tparams: HashSet<&str> = template
        .map(|t| t.params.iter().map(|p| p.name()).collect())
        .unwrap_or_default();
    requalify_rec(ty, namespace, table, &tparams)
}

fn requalify_rec(
    ty: &Type,
    namespace: &[String],
    table: &SymbolTable,
    tparams: &HashSet<&str>,
) -> Type {
    let mut out = ty.clone();
    match &mut out.kind {
        TypeKind::Named(name) => {
            // Leave template parameters alone.
            if name.segs.len() == 1 && tparams.contains(name.segs[0].ident.as_str()) {
                return out;
            }
            // Requalify template args first.
            for seg in &mut name.segs {
                if let Some(args) = &mut seg.args {
                    for a in args.iter_mut() {
                        if let yalla_cpp::ast::TemplateArg::Type(t) = a {
                            *t = requalify_rec(t, namespace, table, tparams);
                        }
                    }
                }
            }
            if table.get(&name.key()).is_some() {
                return out; // already fully qualified
            }
            let mut scopes = namespace.to_vec();
            while !scopes.is_empty() {
                let candidate = format!("{}::{}", scopes.join("::"), name.key());
                if table.get(&candidate).is_some() {
                    let mut segs: Vec<yalla_cpp::ast::NameSeg> = scopes
                        .iter()
                        .map(|s| yalla_cpp::ast::NameSeg::plain(s.clone()))
                        .collect();
                    segs.extend(name.segs.clone());
                    name.segs = segs;
                    break;
                }
                scopes.pop();
            }
            out
        }
        TypeKind::Pointer(inner)
        | TypeKind::LValueRef(inner)
        | TypeKind::RValueRef(inner)
        | TypeKind::Array(inner, _) => {
            **inner = requalify_rec(inner, namespace, table, tparams);
            out
        }
        _ => out,
    }
}

/// Indices of by-value parameters that receive an incomplete class by
/// value at some call site, even though the parameter's *written* type is
/// a bare template parameter (the paper's `parallel_for` case, §3.2.2).
pub fn call_site_incomplete_params(
    decl: &FunctionDecl,
    used: &yalla_analysis::usage::UsedFunction,
    incomplete: &HashSet<String>,
    table: &SymbolTable,
) -> Vec<usize> {
    let aliases = AliasResolver::new(table);
    let mut out = Vec::new();
    for (i, p) in decl.params.iter().enumerate() {
        if !p.ty.is_by_value() {
            continue;
        }
        let receives_incomplete = used.calls.iter().any(|c| {
            let Some(Some(arg_ty)) = c.arg_types.get(i) else {
                return false;
            };
            if !arg_ty.is_by_value() {
                return false;
            }
            let resolved = aliases.resolve_type(arg_ty);
            resolved
                .core_name()
                .and_then(|n| table.resolve(&n.key()).map(|s| s.key.clone()))
                .is_some_and(|k| incomplete.contains(&k))
        });
        if receives_incomplete {
            out.push(i);
        }
    }
    out
}

/// Builds a function wrapper for `original` (already requalified).
#[allow(clippy::too_many_arguments)]
pub fn make_fn_wrapper(
    key: &str,
    original: &FunctionDecl,
    need: &WrapperNeed,
    incomplete: &HashSet<String>,
    table: &SymbolTable,
    usage: &UsageReport,
    forced_param_ptrs: &[usize],
    diagnostics: &mut Vec<Diagnostic>,
) -> FnWrapper {
    let aliases = AliasResolver::new(table);
    let base = original.name.as_ident().unwrap_or("wrapped").to_string();
    let wrapper_name = format!("{base}{WRAPPER_SUFFIX}");

    let is_incomplete_by_value = |ty: &Type| -> bool {
        if !ty.is_by_value() {
            return false;
        }
        let resolved = aliases.resolve_type(ty);
        resolved
            .core_name()
            .and_then(|c| table.resolve(&c.key()).map(|s| s.key.clone()))
            .is_some_and(|k| incomplete.contains(&k))
    };

    let mut decl = original.clone();
    decl.name = FunctionName::Ident(wrapper_name.clone());
    decl.qualifier = None;
    decl.body = None;
    // Incomplete return by value → pointer to heap-allocated result.
    if let Some(ret) = &mut decl.ret {
        if is_incomplete_by_value(ret) {
            *ret = Type::pointer(ret.clone());
        }
    }
    // Incomplete by-value params → pointers (statically visible or forced
    // by call-site evidence).
    let mut pointerized_params = Vec::new();
    for (i, p) in decl.params.iter_mut().enumerate() {
        if is_incomplete_by_value(&p.ty) || forced_param_ptrs.contains(&i) {
            p.ty = Type::pointer(p.ty.clone());
            pointerized_params.push(i);
        }
    }

    // Deduce explicit instantiations per call site.
    let tparam_names: Vec<String> = original
        .template
        .as_ref()
        .map(|t| t.params.iter().map(|p| p.name().to_string()).collect())
        .unwrap_or_default();
    let mut pending = Vec::new();
    if let Some(used) = usage.functions.get(key) {
        for call in &used.calls {
            if tparam_names.is_empty() {
                continue; // non-template wrapper: nothing to instantiate
            }
            let mut deduced: Vec<Option<String>> = vec![None; tparam_names.len()];
            if let Some(explicit) = &call.explicit_targs {
                for (i, a) in explicit.iter().enumerate() {
                    if i < deduced.len() {
                        deduced[i] = Some(a.clone());
                    }
                }
            }
            for (pi, param) in original.params.iter().enumerate() {
                let Some(bound) = template_param_of(&param.ty, &tparam_names) else {
                    continue;
                };
                if deduced[bound].is_some() {
                    continue;
                }
                if let Some(Some(arg_ty)) = call.arg_types.get(pi) {
                    let mut t = strip_ref(arg_ty);
                    t.is_const = false;
                    let resolved = aliases.resolve_type_deep(&t);
                    deduced[bound] = Some(resolved.to_string());
                }
            }
            pending.push((call.span, deduced));
        }
    }
    if tparam_names.is_empty() && original.template.is_some() {
        diagnostics.push(Diagnostic {
            kind: DiagnosticKind::Note,
            message: format!("wrapper for `{key}` has an empty template head"),
            span: None,
        });
    }

    FnWrapper {
        original_key: key.to_string(),
        wrapper_name,
        need: need.clone(),
        decl,
        original: original.clone(),
        pointerized_params,
        instantiations: Vec::new(),
        pending_insts: pending,
    }
}

/// If `ty`'s core is exactly one of the function's template parameters,
/// return that parameter's index.
fn template_param_of(ty: &Type, tparams: &[String]) -> Option<usize> {
    let core = ty.core_name()?;
    if core.segs.len() != 1 || core.segs[0].args.is_some() {
        return None;
    }
    tparams.iter().position(|p| *p == core.segs[0].ident)
}

fn strip_ref(ty: &Type) -> Type {
    match &ty.kind {
        TypeKind::LValueRef(inner) | TypeKind::RValueRef(inner) => (**inner).clone(),
        _ => ty.clone(),
    }
}

/// Builds a method wrapper for `class_key::method`.
pub fn make_method_wrapper(
    class_key: &str,
    method: &str,
    mu: &MethodUsage,
    table: &SymbolTable,
) -> Result<MethodWrapper, Diagnostic> {
    let (class, class_scope) = lookup_class(class_key, table)?;
    // Locate the method declaration in the class definition.
    let target_spelling = yalla_cpp::Sym::intern(method);
    let found = class.methods().find(|(_, f)| {
        f.name.spelling() == target_spelling
            || (target_spelling == "operator()" && f.name == FunctionName::CallOperator)
    });
    let Some((_, mdecl)) = found else {
        return Err(Diagnostic {
            kind: DiagnosticKind::UnknownSymbol,
            message: format!("method `{method}` not found in `{class_key}`"),
            span: None,
        });
    };
    // A method of a class template may spell its types in terms of the
    // class's template parameters (`DataType& operator()(...)`). The
    // wrapper is generated for the *usage*, so concretize those
    // parameters from the first receiver's template arguments (paper
    // Fig. 4a writes `int& paren_operator(...)` for a specific View).
    let aliases0 = AliasResolver::new(table);
    let class_args: Option<Vec<yalla_cpp::ast::TemplateArg>> = mu.calls.iter().find_map(|c| {
        let recv = c.receiver.as_ref()?;
        let resolved = aliases0.resolve_type_deep(&strip_ref(recv));
        resolved.core_name()?.last().args.clone()
    });
    let class_params: Vec<String> = class
        .template
        .as_ref()
        .map(|t| t.params.iter().map(|p| p.name().to_string()).collect())
        .unwrap_or_default();
    let concretize = |ty: &Type| -> Type {
        let q = requalify_type(ty, &class_scope, table, mdecl.template.as_ref());
        match (&class_args, class_params.is_empty()) {
            (Some(args), false) => {
                let params: Vec<&str> = class_params.iter().map(|s| s.as_str()).collect();
                yalla_analysis::aliases::substitute_params(&q, &params, args)
            }
            _ => q,
        }
    };
    let ret = mdecl
        .ret
        .as_ref()
        .map(&concretize)
        .unwrap_or_else(Type::void);
    let params: Vec<Param> = mdecl
        .params
        .iter()
        .map(|p| Param {
            ty: concretize(&p.ty),
            name: p.name.clone(),
            default: None,
        })
        .collect();
    let wrapper_name = if method == "operator()" {
        PAREN_OPERATOR.to_string()
    } else {
        method.to_string()
    };
    // Receiver instantiations, with pointerized classes spelled as pointers.
    let aliases = AliasResolver::new(table);
    let mut instantiations = Vec::new();
    for call in &mu.calls {
        if let Some(recv) = &call.receiver {
            let rendered = render_receiver(recv, &aliases);
            if !instantiations.contains(&rendered) {
                instantiations.push(rendered);
            }
        }
    }
    Ok(MethodWrapper {
        class_key: class_key.to_string(),
        member: method.to_string(),
        wrapper_name,
        kind: if method == "operator()" {
            MemberKind::CallOperator
        } else {
            MemberKind::Method
        },
        ret,
        params,
        is_const: mdecl.specs.is_const,
        instantiations,
    })
}

/// Builds a field-accessor wrapper for `class_key::field`.
pub fn make_field_wrapper(
    class_key: &str,
    field: &str,
    fu: &FieldUsage,
    table: &SymbolTable,
) -> Result<MethodWrapper, Diagnostic> {
    let (class, class_scope) = lookup_class(class_key, table)?;
    let Some((_, fdecl)) = class.fields().find(|(_, f)| f.name == field) else {
        return Err(Diagnostic {
            kind: DiagnosticKind::UnknownSymbol,
            message: format!("field `{field}` not found in `{class_key}`"),
            span: None,
        });
    };
    let field_ty = requalify_type(&fdecl.ty, &class_scope, table, None);
    let aliases = AliasResolver::new(table);
    let mut instantiations = Vec::new();
    for recv in &fu.receiver_types {
        let rendered = render_receiver(recv, &aliases);
        if !instantiations.contains(&rendered) {
            instantiations.push(rendered);
        }
    }
    Ok(MethodWrapper {
        class_key: class_key.to_string(),
        member: field.to_string(),
        wrapper_name: format!("{FIELD_WRAPPER_PREFIX}{field}"),
        kind: MemberKind::Field,
        ret: Type::lvalue_ref(field_ty),
        params: Vec::new(),
        is_const: false,
        instantiations,
    })
}

/// The class `class_key` names in `table`, with the scope path that
/// spells its members (the class's own scope plus its name).
fn lookup_class<'t>(
    class_key: &str,
    table: &'t SymbolTable,
) -> Result<(&'t ClassDecl, Vec<String>), Diagnostic> {
    let unknown = |message| Diagnostic {
        kind: DiagnosticKind::UnknownSymbol,
        message,
        span: None,
    };
    let sym = table
        .get(class_key)
        .ok_or_else(|| unknown(format!("class `{class_key}` not in symbol table")))?;
    let SymbolKind::Class(class) = &sym.kind else {
        return Err(unknown(format!("`{class_key}` is not a class")));
    };
    let mut class_scope = sym.scope.to_vec();
    class_scope.push(class.name.clone());
    Ok((class, class_scope))
}

/// A receiver type as a wrapper instantiation argument: reference and
/// top-level `const` dropped, aliases resolved.
fn render_receiver(recv: &Type, aliases: &AliasResolver<'_>) -> String {
    let mut t = strip_ref(recv);
    t.is_const = false;
    aliases.resolve_type_deep(&t).to_string()
}

/// Fills lambda-typed template arguments in pending wrapper
/// instantiations with the generated functor names, then finalizes all
/// instantiation lists (dropping — with a diagnostic — any that still
/// have unknown arguments).
pub fn patch_lambda_instantiations(plan: &mut Plan) {
    // Map: (target function key, lambda span) → functor name. The functor
    // list is parallel to usage.lambdas filtered by target.
    let functor_spans: Vec<(yalla_cpp::loc::Span, String)> = plan
        .functors
        .iter()
        .map(|f| (f.span, f.name.clone()))
        .collect();
    let mut diagnostics = Vec::new();
    for w in &mut plan.fn_wrappers {
        let pending = std::mem::take(&mut w.pending_insts);
        for (call_span, mut deduced) in pending {
            // A lambda whose span lies inside this call fills the first
            // still-unknown parameter (lambdas bind to the functor/functor
            // template parameter, conventionally the last).
            for (lspan, fname) in &functor_spans {
                let contained = lspan.file == call_span.file
                    && lspan.start >= call_span.start
                    && lspan.end <= call_span.end;
                if contained {
                    if let Some(slot) = deduced.iter_mut().rev().find(|d| d.is_none()) {
                        *slot = Some(fname.clone());
                    }
                }
            }
            if deduced.iter().all(|d| d.is_some()) {
                let args: Vec<String> = deduced.into_iter().map(|d| d.unwrap()).collect();
                if !w.instantiations.contains(&args) {
                    w.instantiations.push(args);
                }
            } else {
                diagnostics.push(Diagnostic {
                    kind: DiagnosticKind::DeductionFailed,
                    message: format!(
                        "could not deduce all template arguments for an explicit \
                         instantiation of `{}`; that call site keeps the wrapper \
                         as an implicit template",
                        w.wrapper_name
                    ),
                    span: Some(call_span),
                });
            }
        }
    }
    // Rename colliding method-wrapper names (same name from different
    // classes with identical parameter lists would clash).
    let mut seen: HashMap<String, usize> = HashMap::new();
    for mw in &mut plan.method_wrappers {
        let count = seen.entry(mw.wrapper_name.clone()).or_insert(0);
        *count += 1;
        if *count > 1 {
            mw.wrapper_name = format!("{}_{}", mw.wrapper_name, *count - 1);
        }
    }
    plan.diagnostics.extend(diagnostics);
}
