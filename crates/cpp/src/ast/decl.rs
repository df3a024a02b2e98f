//! Declarations: namespaces, classes, enums, aliases, functions, variables.

use std::fmt;
use std::sync::Arc;

use crate::ast::expr::Expr;
use crate::ast::name::QualName;
use crate::ast::stmt::Block;
use crate::ast::types::Type;
use crate::intern::Sym;
use crate::loc::Span;

/// A whole parsed translation unit.
#[derive(Debug, Clone, Default)]
pub struct TranslationUnit {
    /// Top-level declarations in source order (after `#include` splicing,
    /// so declarations from headers appear before the user's own).
    pub decls: Vec<Decl>,
}

impl TranslationUnit {
    /// Iterates over all declarations recursively (entering namespaces and
    /// classes), depth-first in source order.
    pub fn walk(&self) -> Vec<&Decl> {
        let mut out = Vec::new();
        fn rec<'a>(decls: &'a [Decl], out: &mut Vec<&'a Decl>) {
            for d in decls {
                out.push(d);
                match &d.kind {
                    DeclKind::Namespace(ns) => rec(&ns.decls, out),
                    DeclKind::Class(c) => {
                        for m in &c.members {
                            out.push(&m.decl);
                            if let DeclKind::Namespace(ns) = &m.decl.kind {
                                rec(&ns.decls, out);
                            } else if let DeclKind::Class(inner) = &m.decl.kind {
                                let nested: Vec<&Decl> =
                                    inner.members.iter().map(|m| &m.decl).collect();
                                for n in nested {
                                    out.push(n);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        rec(&self.decls, &mut out);
        out
    }
}

/// `class` vs `struct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKey {
    /// Declared with `class`.
    Class,
    /// Declared with `struct`.
    Struct,
}

impl fmt::Display for ClassKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClassKey::Class => "class",
            ClassKey::Struct => "struct",
        })
    }
}

/// Member access control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSpecifier {
    /// `public:`.
    Public,
    /// `protected:`.
    Protected,
    /// `private:`.
    Private,
}

/// One template parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateParam {
    /// `typename T` / `class T` (optionally a pack, optionally defaulted).
    Type {
        /// Parameter name (may be empty for anonymous parameters).
        name: String,
        /// True for `typename... T`.
        pack: bool,
        /// Default argument, rendered.
        default: Option<String>,
    },
    /// `int N` style non-type parameter.
    NonType {
        /// Parameter type.
        ty: Type,
        /// Parameter name.
        name: String,
        /// Default argument, rendered.
        default: Option<String>,
    },
}

impl TemplateParam {
    /// The parameter's name.
    pub fn name(&self) -> &str {
        match self {
            TemplateParam::Type { name, .. } | TemplateParam::NonType { name, .. } => name,
        }
    }
}

/// A `template<...>` head attached to a class, function, alias or variable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TemplateHeader {
    /// Parameters in order. An empty list models an explicit
    /// specialization's `template<>`.
    pub params: Vec<TemplateParam>,
}

impl TemplateHeader {
    /// Renders the head as C++ (`template <typename T, int N>`).
    pub fn render(&self) -> String {
        let mut out = String::from("template <");
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match p {
                TemplateParam::Type {
                    name,
                    pack,
                    default,
                } => {
                    out.push_str("typename");
                    if *pack {
                        out.push_str("...");
                    }
                    if !name.is_empty() {
                        out.push(' ');
                        out.push_str(name);
                    }
                    if let Some(d) = default {
                        out.push_str(" = ");
                        out.push_str(d);
                    }
                }
                TemplateParam::NonType { ty, name, default } => {
                    out.push_str(&ty.to_string());
                    if !name.is_empty() {
                        out.push(' ');
                        out.push_str(name);
                    }
                    if let Some(d) = default {
                        out.push_str(" = ");
                        out.push_str(d);
                    }
                }
            }
        }
        out.push('>');
        out
    }
}

/// A namespace with its contents.
#[derive(Debug, Clone, PartialEq)]
pub struct NamespaceDecl {
    /// Namespace name; empty for anonymous namespaces.
    pub name: String,
    /// `inline namespace`.
    pub is_inline: bool,
    /// Contained declarations.
    pub decls: Vec<Decl>,
}

/// A class member: a declaration plus its access level.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// Access control in effect at the member's declaration.
    pub access: AccessSpecifier,
    /// The member declaration itself (fields are [`DeclKind::Variable`],
    /// methods are [`DeclKind::Function`], nested types are
    /// [`DeclKind::Class`]/[`DeclKind::Alias`]/[`DeclKind::Enum`]).
    pub decl: Decl,
}

/// A class or struct declaration/definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// `class` or `struct`.
    pub key: ClassKey,
    /// The class name (unqualified).
    pub name: String,
    /// Template head, when this is a class template (or specialization).
    pub template: Option<TemplateHeader>,
    /// Explicit specialization arguments (`struct V<int>` ⇒ `"<int>"`).
    pub spec_args: Option<String>,
    /// Base classes with their access.
    pub bases: Vec<(AccessSpecifier, Type)>,
    /// Members, in source order. Empty for a pure declaration.
    pub members: Vec<Member>,
    /// True when a body was present (i.e. this is a *definition*).
    pub is_definition: bool,
    /// True for an explicit class-template instantiation
    /// (`template class View<int>;`).
    pub is_explicit_instantiation: bool,
}

impl ClassDecl {
    /// Iterates over members that are methods.
    pub fn methods(&self) -> impl Iterator<Item = (&Member, &FunctionDecl)> {
        self.members.iter().filter_map(|m| match &m.decl.kind {
            DeclKind::Function(f) => Some((m, &**f)),
            _ => None,
        })
    }

    /// Iterates over members that are data fields.
    pub fn fields(&self) -> impl Iterator<Item = (&Member, &VarDecl)> {
        self.members.iter().filter_map(|m| match &m.decl.kind {
            DeclKind::Variable(v) => Some((m, v)),
            _ => None,
        })
    }
}

/// One enumerator of an enum.
#[derive(Debug, Clone, PartialEq)]
pub struct Enumerator {
    /// Enumerator name.
    pub name: String,
    /// Explicit value expression, rendered, when present.
    pub value: Option<String>,
}

/// An `enum` / `enum class` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    /// Enum name (may be empty for anonymous enums).
    pub name: String,
    /// True for `enum class` / `enum struct`.
    pub scoped: bool,
    /// Underlying type, when specified (`enum E : int`).
    pub underlying: Option<Type>,
    /// The enumerators.
    pub enumerators: Vec<Enumerator>,
}

/// A type alias: `using X = T;` or `typedef T X;`.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasDecl {
    /// The introduced name.
    pub name: String,
    /// Template head for alias templates.
    pub template: Option<TemplateHeader>,
    /// The aliased type.
    pub target: Type,
}

/// How a function is named.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FunctionName {
    /// An ordinary identifier.
    Ident(String),
    /// `operator()`.
    CallOperator,
    /// Any other overloaded operator, by its token spelling (`"+"`, `"[]"`,
    /// `"=="`, ...).
    Operator(String),
    /// A constructor (name matches the class).
    Constructor(String),
    /// A destructor (`~Name`).
    Destructor(String),
}

impl FunctionName {
    /// The name as written in source (e.g. `operator()`), interned.
    /// `Ident`/`Constructor`/`CallOperator` never allocate after their
    /// spelling's first intern; `Operator`/`Destructor` compose one
    /// short temporary per call before the intern dedups it — identifier
    /// names are the hot case, and callers now compare `Sym`s instead
    /// of fresh `String`s.
    pub fn spelling(&self) -> Sym {
        match self {
            FunctionName::Ident(s) => Sym::intern(s),
            FunctionName::CallOperator => Sym::intern("operator()"),
            FunctionName::Operator(op) => Sym::intern(&format!("operator{op}")),
            FunctionName::Constructor(s) => Sym::intern(s),
            FunctionName::Destructor(s) => Sym::intern(&format!("~{s}")),
        }
    }

    /// The plain identifier when this is an ordinary function.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            FunctionName::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for FunctionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling().as_str())
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name (may be empty in declarations).
    pub name: String,
    /// Default argument, rendered, when present.
    pub default: Option<String>,
}

/// Specifiers attached to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunctionSpecs {
    /// `inline`.
    pub is_inline: bool,
    /// `static`.
    pub is_static: bool,
    /// `virtual`.
    pub is_virtual: bool,
    /// `constexpr`.
    pub is_constexpr: bool,
    /// `explicit`.
    pub is_explicit: bool,
    /// Trailing `const` (methods only).
    pub is_const: bool,
    /// `noexcept`.
    pub is_noexcept: bool,
    /// `override`.
    pub is_override: bool,
    /// `= default`.
    pub is_defaulted: bool,
    /// `= delete`.
    pub is_deleted: bool,
    /// This declaration is an explicit template instantiation
    /// (`template void f<int>(int);`).
    pub is_explicit_instantiation: bool,
}

/// A function (or method) declaration or definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// The function's name.
    pub name: FunctionName,
    /// For out-of-line member definitions, the class path
    /// (`add_y` in `void add_y::operator()(...)`).
    pub qualifier: Option<QualName>,
    /// Template head for function templates.
    pub template: Option<TemplateHeader>,
    /// Return type; `None` for constructors/destructors.
    pub ret: Option<Type>,
    /// Parameters.
    pub params: Vec<Param>,
    /// Specifiers.
    pub specs: FunctionSpecs,
    /// The body when this is a definition.
    pub body: Option<Block>,
}

impl FunctionDecl {
    /// True if this node carries a body.
    pub fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

/// A variable (or field) declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Declared type.
    pub ty: Type,
    /// Variable name.
    pub name: String,
    /// `static`.
    pub is_static: bool,
    /// `constexpr`.
    pub is_constexpr: bool,
    /// Initializer, when present.
    pub init: Option<Expr>,
    /// True when the initializer used `{}` rather than `=` or `()`.
    pub brace_init: bool,
}

/// The kind of a declaration.
///
/// Namespace, class, enum, alias and function payloads sit behind an
/// [`Arc`], so a symbol table (or any other index over a parse) shares
/// them with the AST instead of copying them, and so does a preamble's
/// copy of its top-level declarations; `Arc`'s `Debug` is its payload's,
/// so the rendered tree reads the same.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclKind {
    /// A namespace.
    Namespace(Arc<NamespaceDecl>),
    /// A class/struct (declaration or definition).
    Class(Arc<ClassDecl>),
    /// An enum.
    Enum(Arc<EnumDecl>),
    /// A type alias (`using`/`typedef`), possibly templated.
    Alias(Arc<AliasDecl>),
    /// A using-declaration `using Kokkos::LayoutRight;`.
    UsingDecl(QualName),
    /// `using namespace N;`.
    UsingNamespace(QualName),
    /// A function or method.
    Function(Arc<FunctionDecl>),
    /// A variable or field.
    Variable(VarDecl),
    /// `static_assert(...)` — retained for fidelity, contents ignored.
    StaticAssert,
    /// An access specifier label inside a class (bookkeeping node; the
    /// parser folds these into [`Member::access`], but keeps the node so
    /// spans remain contiguous).
    Access(AccessSpecifier),
}

/// A declaration with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// What the declaration is.
    pub kind: DeclKind,
    /// Source range of the whole declaration (including any template head).
    pub span: Span,
}

impl Decl {
    /// Creates a declaration node.
    pub fn new(kind: DeclKind, span: Span) -> Self {
        Decl { kind, span }
    }

    /// The declared name, for kinds that introduce exactly one name —
    /// interned, so repeated calls stop allocating a fresh `String`.
    pub fn declared_name(&self) -> Option<Sym> {
        match &self.kind {
            DeclKind::Namespace(ns) => Some(Sym::intern(&ns.name)),
            DeclKind::Class(c) => Some(Sym::intern(&c.name)),
            DeclKind::Enum(e) => Some(Sym::intern(&e.name)),
            DeclKind::Alias(a) => Some(Sym::intern(&a.name)),
            DeclKind::Function(f) => Some(f.name.spelling()),
            DeclKind::Variable(v) => Some(Sym::intern(&v.name)),
            DeclKind::UsingDecl(_)
            | DeclKind::UsingNamespace(_)
            | DeclKind::StaticAssert
            | DeclKind::Access(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::types::Builtin;

    #[test]
    fn function_name_spellings() {
        assert_eq!(FunctionName::Ident("f".into()).spelling(), "f");
        assert_eq!(FunctionName::CallOperator.spelling(), "operator()");
        assert_eq!(FunctionName::Operator("+=".into()).spelling(), "operator+=");
        assert_eq!(FunctionName::Destructor("V".into()).spelling(), "~V");
        assert_eq!(FunctionName::Ident("f".into()).as_ident(), Some("f"));
        assert_eq!(FunctionName::CallOperator.as_ident(), None);
    }

    #[test]
    fn template_header_render() {
        let th = TemplateHeader {
            params: vec![
                TemplateParam::Type {
                    name: "T".into(),
                    pack: false,
                    default: None,
                },
                TemplateParam::NonType {
                    ty: Type::builtin(Builtin::Int),
                    name: "N".into(),
                    default: Some("4".into()),
                },
                TemplateParam::Type {
                    name: "Ts".into(),
                    pack: true,
                    default: None,
                },
            ],
        };
        assert_eq!(
            th.render(),
            "template <typename T, int N = 4, typename... Ts>"
        );
    }

    #[test]
    fn empty_template_header_is_explicit_specialization() {
        assert_eq!(TemplateHeader::default().render(), "template <>");
    }

    #[test]
    fn class_member_iterators() {
        let method = Decl::new(
            DeclKind::Function(Arc::new(FunctionDecl {
                name: FunctionName::CallOperator,
                qualifier: None,
                template: None,
                ret: Some(Type::void()),
                params: vec![],
                specs: FunctionSpecs::default(),
                body: None,
            })),
            Span::dummy(),
        );
        let field = Decl::new(
            DeclKind::Variable(VarDecl {
                ty: Type::builtin(Builtin::Int),
                name: "y".into(),
                is_static: false,
                is_constexpr: false,
                init: None,
                brace_init: false,
            }),
            Span::dummy(),
        );
        let class = ClassDecl {
            key: ClassKey::Struct,
            name: "add_y".into(),
            template: None,
            spec_args: None,
            bases: vec![],
            members: vec![
                Member {
                    access: AccessSpecifier::Public,
                    decl: field,
                },
                Member {
                    access: AccessSpecifier::Public,
                    decl: method,
                },
            ],
            is_definition: true,
            is_explicit_instantiation: false,
        };
        assert_eq!(class.methods().count(), 1);
        assert_eq!(class.fields().count(), 1);
        assert_eq!(class.fields().next().unwrap().1.name, "y");
    }

    #[test]
    fn walk_enters_namespaces() {
        let inner = Decl::new(
            DeclKind::Class(Arc::new(ClassDecl {
                key: ClassKey::Class,
                name: "OpenMP".into(),
                template: None,
                spec_args: None,
                bases: vec![],
                members: vec![],
                is_definition: false,
                is_explicit_instantiation: false,
            })),
            Span::dummy(),
        );
        let ns = Decl::new(
            DeclKind::Namespace(Arc::new(NamespaceDecl {
                name: "Kokkos".into(),
                is_inline: false,
                decls: vec![inner],
            })),
            Span::dummy(),
        );
        let tu = TranslationUnit { decls: vec![ns] };
        let all = tu.walk();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].declared_name().map(Sym::as_str), Some("OpenMP"));
    }
}
