//! Lexical scopes and local type inference.
//!
//! One model serves every pass that asks what a name inside a function
//! body denotes. Usage collection asks it for the class of each method
//! call's receiver; the rewriter asks the same question at the same
//! sites, so every call the collector planned a wrapper for is a call the
//! rewriter redirects. A name resolves innermost-first through the block
//! scopes, then through the symbol table: as written, then relative to
//! each enclosing namespace, innermost first.

use std::collections::HashMap;
use std::sync::Arc;

use yalla_cpp::ast::{
    Builtin, ClassDecl, Expr, ExprKind, FunctionDecl, QualName, Type, TypeKind, UnaryOp,
};

use crate::aliases::AliasResolver;
use crate::symbols::{SymbolInfo, SymbolKind, SymbolTable};

/// The enclosing namespaces and block scopes of a walk over one TU.
pub struct Scopes<'t> {
    table: &'t SymbolTable,
    aliases: AliasResolver<'t>,
    namespaces: Vec<String>,
    /// Innermost last: name → declared type.
    frames: Vec<HashMap<String, Type>>,
}

impl<'t> Scopes<'t> {
    /// Global scope over `table`.
    pub fn new(table: &'t SymbolTable) -> Self {
        Scopes {
            table,
            aliases: AliasResolver::new(table),
            namespaces: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// The symbol table names resolve against.
    pub fn table(&self) -> &'t SymbolTable {
        self.table
    }

    /// The alias resolver over the same table.
    pub fn aliases(&self) -> AliasResolver<'t> {
        self.aliases
    }

    /// Enters `namespace name { ... }`.
    pub fn enter_namespace(&mut self, name: &str) {
        self.namespaces.push(name.to_string());
    }

    /// Leaves the innermost namespace.
    pub fn leave_namespace(&mut self) {
        self.namespaces.pop();
    }

    /// Opens a block scope holding `vars`.
    pub fn push(&mut self, vars: impl IntoIterator<Item = (String, Type)>) {
        self.frames.push(vars.into_iter().collect());
    }

    /// Closes the innermost block scope.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// Number of open block scopes.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Declares `name` in the innermost block scope (outside any block,
    /// locals are not tracked).
    pub fn declare(&mut self, name: &str, ty: &Type) {
        if let Some(frame) = self.frames.last_mut() {
            frame.insert(name.to_string(), ty.clone());
        }
    }

    /// The innermost local binding of `name`: the index of its scope
    /// (0 is outermost) and its declared type.
    pub fn find(&self, name: &str) -> Option<(usize, &Type)> {
        self.frames
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, f)| f.get(name).map(|t| (i, t)))
    }

    /// The declared type of local `name`.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.find(name).map(|(_, t)| t)
    }

    /// Opens the scope of `f`'s body: the fields of its class, then its
    /// named parameters. `member_of` is the class whose body declares
    /// `f`; an out-of-line definition finds its class through its
    /// qualifier.
    pub fn push_function(&mut self, f: &FunctionDecl, member_of: Option<&ClassDecl>) {
        let owner: Option<Arc<ClassDecl>> = match member_of {
            Some(_) => None,
            None => f
                .qualifier
                .as_ref()
                .and_then(|q| match &self.resolve(q)?.kind {
                    SymbolKind::Class(c) => Some(Arc::clone(c)),
                    _ => None,
                }),
        };
        let fields = member_of
            .or(owner.as_deref())
            .into_iter()
            .flat_map(|c| c.fields())
            .map(|(_, v)| (v.name.clone(), v.ty.clone()));
        let params = f
            .params
            .iter()
            .filter(|p| !p.name.is_empty())
            .map(|p| (p.name.clone(), p.ty.clone()));
        self.push(fields.chain(params));
    }

    /// Resolves `name` as written, then against the enclosing namespaces.
    pub fn resolve(&self, name: &QualName) -> Option<&'t SymbolInfo> {
        let key = name.key();
        self.table.resolve(&key).or_else(|| {
            (1..=self.namespaces.len()).rev().find_map(|n| {
                let candidate = format!("{}::{key}", self.namespaces[..n].join("::"));
                self.table.resolve(&candidate)
            })
        })
    }

    /// The (alias-resolved) class key of a written type, if any.
    pub fn class_key_of(&self, ty: &Type) -> Option<String> {
        let resolved = self.aliases.resolve_type(ty);
        let sym = self.resolve(resolved.core_name()?)?;
        self.aliases.resolve_key_to_class(&sym.key)
    }

    /// Best effort: the class key of the object `expr` denotes.
    pub fn infer_class_of(&self, expr: &Expr) -> Option<String> {
        self.class_key_of(&self.infer_type(expr)?)
    }

    /// Best-effort local type inference: literals, names, dereference and
    /// address-of, field access, calls of named functions, `new`, casts
    /// and typed brace initialization.
    pub fn infer_type(&self, expr: &Expr) -> Option<Type> {
        match &expr.kind {
            ExprKind::Int(_) => Some(Type::builtin(Builtin::Int)),
            ExprKind::Float(_) => Some(Type::builtin(Builtin::Double)),
            ExprKind::Bool(_) => Some(Type::builtin(Builtin::Bool)),
            ExprKind::Name(n) => {
                if let Some(t) = self.lookup(&n.key()) {
                    return Some(t.clone());
                }
                match &self.resolve(n)?.kind {
                    SymbolKind::Variable(t) => Some((**t).clone()),
                    _ => None,
                }
            }
            ExprKind::Paren(e) => self.infer_type(e),
            ExprKind::Unary { op, expr: e } => {
                let t = self.infer_type(e)?;
                match op {
                    UnaryOp::Deref => match t.kind {
                        TypeKind::Pointer(inner) => Some(*inner),
                        _ => Some(t),
                    },
                    UnaryOp::AddrOf => Some(Type::pointer(t)),
                    _ => Some(t),
                }
            }
            ExprKind::Member { base, member, .. } => {
                let class_key = self.infer_class_of(base)?;
                match &self.table.get(&class_key)?.kind {
                    SymbolKind::Class(c) => c
                        .fields()
                        .find(|(_, f)| f.name == member.ident)
                        .map(|(_, f)| f.ty.clone()),
                    _ => None,
                }
            }
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Name(n) => match &self.resolve(n)?.kind {
                    SymbolKind::Function(f) => f.ret.clone(),
                    _ => None,
                },
                _ => None,
            },
            ExprKind::New { ty, .. } => Some(Type::pointer(ty.clone())),
            ExprKind::Cast { ty, .. } => Some(ty.clone()),
            ExprKind::BraceInit { ty, .. } => ty.clone(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_cpp::parse::parse_str;

    fn expr(src: &str) -> Expr {
        let tu = parse_str(&format!("int probe = {src};")).unwrap();
        match &tu.decls[0].kind {
            yalla_cpp::ast::DeclKind::Variable(v) => v.init.clone().unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn names_resolve_innermost_first_then_through_namespaces() {
        let tu = parse_str(
            "namespace L { struct W { int id; }; W& make(); struct V { W w; }; }\n\
             namespace K { struct V {}; }",
        )
        .unwrap();
        let table = SymbolTable::build(&tu);
        let mut s = Scopes::new(&table);
        let int = Type::builtin(Builtin::Int);
        s.push([("v".to_string(), int.clone())]);
        s.push([]);
        s.declare("v", &Type::named(QualName::ident("V")));
        assert_eq!(s.find("v").map(|(d, _)| d), Some(1));
        // `V` is ambiguous until `namespace L` encloses the use.
        assert_eq!(s.infer_class_of(&expr("v")), None);
        s.enter_namespace("L");
        assert_eq!(s.infer_class_of(&expr("v")).as_deref(), Some("L::V"));
        assert_eq!(s.infer_class_of(&expr("v.w")).as_deref(), Some("L::W"));
        assert_eq!(s.infer_class_of(&expr("make()")).as_deref(), Some("L::W"));
        assert_eq!(s.infer_class_of(&expr("(&v)->w")).as_deref(), Some("L::W"));
        s.leave_namespace();
        s.pop();
        assert_eq!(s.lookup("v"), Some(&int));
        s.pop();
        assert_eq!(s.depth(), 0);
    }
}
