//! Declaration parsing: namespaces, classes, templates, functions,
//! aliases, enums, variables.

use crate::ast::{
    AccessSpecifier, AliasDecl, ClassDecl, ClassKey, Decl, DeclKind, EnumDecl, Enumerator,
    FunctionDecl, FunctionName, FunctionSpecs, Member, NamespaceDecl, Param, QualName,
    TemplateHeader, TemplateParam,
};
use std::sync::Arc;

use crate::error::Result;
use crate::lex::{Punct, TokenKind};
use crate::parse::Parser;

impl Parser {
    /// Parses one declaration at namespace scope.
    pub(crate) fn parse_decl(&mut self) -> Result<Decl> {
        let start = self.span();
        // namespace
        if self.check_kw("namespace")
            || (self.check_kw("inline") && self.peek_at(1).kind.is_ident("namespace"))
        {
            let is_inline = self.eat_kw("inline");
            self.expect_kw("namespace")?;
            let mut names = Vec::new();
            if let TokenKind::Ident(_) = self.peek().kind {
                loop {
                    let (n, _) = self.ident()?;
                    names.push(n);
                    if !self.eat_punct(Punct::ColonColon) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::LBrace)?;
            let mut decls = Vec::new();
            while !self.check_punct(Punct::RBrace) {
                if self.at_eof() {
                    return Err(self.err("unterminated namespace"));
                }
                decls.push(self.parse_decl()?);
            }
            let end = self.expect_punct(Punct::RBrace)?;
            // `namespace A::B { ... }` nests right-to-left.
            let mut name_iter = names.into_iter().rev();
            let innermost = name_iter.next().unwrap_or_default();
            let mut decl = Decl::new(
                DeclKind::Namespace(Arc::new(NamespaceDecl {
                    name: innermost,
                    is_inline,
                    decls,
                })),
                start.to(end),
            );
            for outer in name_iter {
                decl = Decl::new(
                    DeclKind::Namespace(Arc::new(NamespaceDecl {
                        name: outer,
                        is_inline: false,
                        decls: vec![decl],
                    })),
                    start.to(end),
                );
            }
            return Ok(decl);
        }
        // template
        if self.check_kw("template") {
            return self.parse_templated_decl();
        }
        // using / typedef
        if self.check_kw("using") {
            return self.parse_using();
        }
        if self.check_kw("typedef") {
            self.bump();
            let target = self.parse_type()?;
            let (name, _) = self.ident()?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(
                DeclKind::Alias(Arc::new(AliasDecl {
                    name,
                    template: None,
                    target,
                })),
                start.to(end),
            ));
        }
        // class / struct (not elaborated-type variable decls)
        if self.check_kw("class") || self.check_kw("struct") {
            return self.parse_class(None, false);
        }
        if self.check_kw("enum") {
            return self.parse_enum();
        }
        if self.check_kw("static_assert") {
            self.bump();
            self.expect_punct(Punct::LParen)?;
            self.skip_until_top_level(&[]);
            self.expect_punct(Punct::RParen)?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(DeclKind::StaticAssert, start.to(end)));
        }
        // extern "C" { ... } — contents parsed transparently.
        if self.check_kw("extern") && matches!(self.peek_at(1).kind, TokenKind::Str(_)) {
            self.bump();
            self.bump();
            if self.check_punct(Punct::LBrace) {
                self.bump();
                let mut decls = Vec::new();
                while !self.check_punct(Punct::RBrace) {
                    if self.at_eof() {
                        return Err(self.err("unterminated extern block"));
                    }
                    decls.push(self.parse_decl()?);
                }
                let end = self.expect_punct(Punct::RBrace)?;
                return Ok(Decl::new(
                    DeclKind::Namespace(Arc::new(NamespaceDecl {
                        name: String::new(),
                        is_inline: true,
                        decls,
                    })),
                    start.to(end),
                ));
            }
            // `extern "C" decl;`
            return self.parse_decl();
        }
        // Function or variable.
        self.parse_function_or_variable(None)
    }

    fn parse_using(&mut self) -> Result<Decl> {
        let start = self.expect_kw("using")?;
        if self.eat_kw("namespace") {
            let name = self.parse_qual_name(false)?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(DeclKind::UsingNamespace(name), start.to(end)));
        }
        // `using X = T;` vs `using A::b;`
        if matches!(self.peek().kind, TokenKind::Ident(_))
            && self.peek_at(1).kind.is_punct(Punct::Eq)
        {
            let (name, _) = self.ident()?;
            self.bump(); // =
            let target = self.parse_type()?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(
                DeclKind::Alias(Arc::new(AliasDecl {
                    name,
                    template: None,
                    target,
                })),
                start.to(end),
            ));
        }
        let name = self.parse_qual_name(true)?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl::new(DeclKind::UsingDecl(name), start.to(end)))
    }

    /// Parses `template <...> decl`, `template <> decl` (explicit
    /// specialization) and `template decl` (explicit instantiation).
    fn parse_templated_decl(&mut self) -> Result<Decl> {
        let start = self.expect_kw("template")?;
        if !self.check_punct(Punct::Lt) {
            // Explicit instantiation: `template class V<int>;` or
            // `template void f<int>(int, int);`
            if self.check_kw("class") || self.check_kw("struct") {
                let key = if self.eat_kw("class") {
                    ClassKey::Class
                } else {
                    self.expect_kw("struct")?;
                    ClassKey::Struct
                };
                let name = self.parse_qual_name(false)?;
                let spec_from = self.save();
                if self.check_punct(Punct::Lt) {
                    self.parse_template_args()?;
                }
                let spec_args = Some(self.render_range(spec_from, self.save()));
                let end = self.expect_punct(Punct::Semi)?;
                return Ok(Decl::new(
                    DeclKind::Class(Arc::new(ClassDecl {
                        key,
                        name: name.key(),
                        template: None,
                        spec_args,
                        bases: vec![],
                        members: vec![],
                        is_definition: false,
                        is_explicit_instantiation: true,
                    })),
                    start.to(end),
                ));
            }
            let mut decl = self.parse_function_or_variable(None)?;
            if let DeclKind::Function(f) = &mut decl.kind {
                Arc::make_mut(f).specs.is_explicit_instantiation = true;
            }
            decl.span = start.to(decl.span);
            return Ok(decl);
        }
        let header = self.parse_template_header()?;
        if self.check_kw("class") || self.check_kw("struct") {
            let mut d = self.parse_class(Some(header), false)?;
            d.span = start.to(d.span);
            return Ok(d);
        }
        if self.check_kw("using") {
            // Alias template.
            self.bump();
            let (name, _) = self.ident()?;
            self.expect_punct(Punct::Eq)?;
            let target = self.parse_type()?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(
                DeclKind::Alias(Arc::new(AliasDecl {
                    name,
                    template: Some(header),
                    target,
                })),
                start.to(end),
            ));
        }
        if self.check_kw("template") {
            // Nested template-template cases are outside the subset; parse
            // the inner declaration and attach the outer header.
            let mut d = self.parse_templated_decl()?;
            d.span = start.to(d.span);
            return Ok(d);
        }
        let mut d = self.parse_function_or_variable(Some(header))?;
        d.span = start.to(d.span);
        Ok(d)
    }

    /// Parses `<typename T, int N = 4, typename... Ts>`.
    pub(crate) fn parse_template_header(&mut self) -> Result<TemplateHeader> {
        self.expect_punct(Punct::Lt)?;
        let mut params = Vec::new();
        if self.eat_punct(Punct::Gt) {
            return Ok(TemplateHeader { params });
        }
        loop {
            if self.check_kw("typename") || self.check_kw("class") {
                self.bump();
                let pack = self.eat_punct(Punct::Ellipsis);
                let name = match &self.peek().kind {
                    TokenKind::Ident(n) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                let default = if self.eat_punct(Punct::Eq) {
                    let from = self.save();
                    self.skip_template_default();
                    Some(self.render_range(from, self.save()))
                } else {
                    None
                };
                params.push(TemplateParam::Type {
                    name,
                    pack,
                    default,
                });
            } else {
                let ty = self.parse_type()?;
                let name = match &self.peek().kind {
                    TokenKind::Ident(n) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                let default = if self.eat_punct(Punct::Eq) {
                    let from = self.save();
                    self.skip_template_default();
                    Some(self.render_range(from, self.save()))
                } else {
                    None
                };
                params.push(TemplateParam::NonType { ty, name, default });
            }
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.expect_punct(Punct::Gt)?;
            break;
        }
        Ok(TemplateHeader { params })
    }

    /// Skips a template default argument (stops at `,` or `>` at angle
    /// depth 0).
    fn skip_template_default(&mut self) {
        let mut angle = 0i32;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Punct(Punct::Lt) => {
                    angle += 1;
                    self.bump();
                }
                TokenKind::Punct(Punct::Gt) => {
                    if angle == 0 {
                        return;
                    }
                    angle -= 1;
                    self.bump();
                }
                TokenKind::Punct(Punct::Comma) if angle == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Parses a class/struct declaration or definition. `in_class` tells
    /// whether we are parsing a nested class (affects default access only
    /// through the caller).
    pub(crate) fn parse_class(
        &mut self,
        template: Option<TemplateHeader>,
        _in_class: bool,
    ) -> Result<Decl> {
        let start = self.span();
        let key = if self.eat_kw("class") {
            ClassKey::Class
        } else {
            self.expect_kw("struct")?;
            ClassKey::Struct
        };
        let (name, _) = self.ident()?;
        // Explicit specialization arguments: `struct V<int> { ... }`.
        let spec_args = if self.check_punct(Punct::Lt) {
            let from = self.save();
            self.parse_template_args()?;
            Some(self.render_range(from, self.save()))
        } else {
            None
        };
        // Forward declaration.
        if self.check_punct(Punct::Semi) {
            let end = self.bump().span;
            return Ok(Decl::new(
                DeclKind::Class(Arc::new(ClassDecl {
                    key,
                    name,
                    template,
                    spec_args,
                    bases: vec![],
                    members: vec![],
                    is_definition: false,
                    is_explicit_instantiation: false,
                })),
                start.to(end),
            ));
        }
        // `final`
        self.eat_kw("final");
        // Bases.
        let mut bases = Vec::new();
        if self.eat_punct(Punct::Colon) {
            loop {
                let access = if self.eat_kw("public") {
                    AccessSpecifier::Public
                } else if self.eat_kw("protected") {
                    AccessSpecifier::Protected
                } else if self.eat_kw("private") {
                    AccessSpecifier::Private
                } else if key == ClassKey::Struct {
                    AccessSpecifier::Public
                } else {
                    AccessSpecifier::Private
                };
                self.eat_kw("virtual");
                let base = self.parse_type()?;
                bases.push((access, base));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let mut access = match key {
            ClassKey::Class => AccessSpecifier::Private,
            ClassKey::Struct => AccessSpecifier::Public,
        };
        let mut members = Vec::new();
        while !self.check_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated class body"));
            }
            // Access labels.
            if self.check_kw("public") && self.peek_at(1).kind.is_punct(Punct::Colon) {
                self.bump();
                self.bump();
                access = AccessSpecifier::Public;
                continue;
            }
            if self.check_kw("protected") && self.peek_at(1).kind.is_punct(Punct::Colon) {
                self.bump();
                self.bump();
                access = AccessSpecifier::Protected;
                continue;
            }
            if self.check_kw("private") && self.peek_at(1).kind.is_punct(Punct::Colon) {
                self.bump();
                self.bump();
                access = AccessSpecifier::Private;
                continue;
            }
            // friend declarations: skip to `;`.
            if self.check_kw("friend") {
                self.skip_until_top_level(&[Punct::Semi]);
                self.eat_punct(Punct::Semi);
                continue;
            }
            let decl = self.parse_member(&name)?;
            members.push(Member { access, decl });
        }
        self.expect_punct(Punct::RBrace)?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl::new(
            DeclKind::Class(Arc::new(ClassDecl {
                key,
                name,
                template,
                spec_args,
                bases,
                members,
                is_definition: true,
                is_explicit_instantiation: false,
            })),
            start.to(end),
        ))
    }

    /// Parses one class member.
    fn parse_member(&mut self, class_name: &str) -> Result<Decl> {
        let start = self.span();
        if self.check_kw("template") {
            return self.parse_templated_decl();
        }
        if self.check_kw("using") {
            return self.parse_using();
        }
        if self.check_kw("typedef") {
            self.bump();
            let target = self.parse_type()?;
            let (name, _) = self.ident()?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(
                DeclKind::Alias(Arc::new(AliasDecl {
                    name,
                    template: None,
                    target,
                })),
                start.to(end),
            ));
        }
        if self.check_kw("class") || self.check_kw("struct") {
            return self.parse_class(None, true);
        }
        if self.check_kw("enum") {
            return self.parse_enum();
        }
        if self.check_kw("static_assert") {
            self.bump();
            self.expect_punct(Punct::LParen)?;
            self.skip_until_top_level(&[]);
            self.expect_punct(Punct::RParen)?;
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(DeclKind::StaticAssert, start.to(end)));
        }
        // Constructor: `ClassName(...)`.
        if self.peek().kind.is_ident(class_name) && self.peek_at(1).kind.is_punct(Punct::LParen) {
            self.bump();
            return self.parse_function_tail(
                FunctionName::Constructor(class_name.to_string()),
                None,
                None,
                FunctionSpecs::default(),
                start,
            );
        }
        // explicit Constructor.
        if self.check_kw("explicit") {
            self.bump();
            let specs = FunctionSpecs {
                is_explicit: true,
                ..FunctionSpecs::default()
            };
            if self.peek().kind.is_ident(class_name) {
                self.bump();
                return self.parse_function_tail(
                    FunctionName::Constructor(class_name.to_string()),
                    None,
                    None,
                    specs,
                    start,
                );
            }
            return Err(self.err("expected constructor after `explicit`"));
        }
        // Destructor: `~ClassName()`.
        if self.check_punct(Punct::Tilde) {
            self.bump();
            let (n, _) = self.ident()?;
            return self.parse_function_tail(
                FunctionName::Destructor(n),
                None,
                None,
                FunctionSpecs::default(),
                start,
            );
        }
        self.parse_function_or_variable(None)
    }

    /// Parses `enum [class] Name [: type] { enumerators };`
    fn parse_enum(&mut self) -> Result<Decl> {
        let start = self.expect_kw("enum")?;
        let scoped = self.eat_kw("class") || self.eat_kw("struct");
        let name = match &self.peek().kind {
            TokenKind::Ident(n) => {
                let n = n.clone();
                self.bump();
                n
            }
            _ => String::new(),
        };
        let underlying = if self.eat_punct(Punct::Colon) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let mut enumerators = Vec::new();
        if self.eat_punct(Punct::LBrace) {
            while !self.check_punct(Punct::RBrace) {
                let (ename, _) = self.ident()?;
                let value = if self.eat_punct(Punct::Eq) {
                    let from = self.save();
                    self.skip_until_top_level(&[Punct::Comma]);
                    Some(self.render_range(from, self.save()))
                } else {
                    None
                };
                enumerators.push(Enumerator { name: ename, value });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl::new(
            DeclKind::Enum(Arc::new(EnumDecl {
                name,
                scoped,
                underlying,
                enumerators,
            })),
            start.to(end),
        ))
    }

    /// Parses a function or variable declaration starting at the specifier
    /// sequence (after any template header, which is passed in).
    pub(crate) fn parse_function_or_variable(
        &mut self,
        template: Option<TemplateHeader>,
    ) -> Result<Decl> {
        let start = self.span();
        let mut specs = FunctionSpecs::default();
        let mut is_static = false;
        let mut is_constexpr = false;
        loop {
            if self.eat_kw("inline") {
                specs.is_inline = true;
            } else if self.eat_kw("static") {
                specs.is_static = true;
                is_static = true;
            } else if self.eat_kw("virtual") {
                specs.is_virtual = true;
            } else if self.eat_kw("constexpr") {
                specs.is_constexpr = true;
                is_constexpr = true;
            } else if self.eat_kw("extern") {
                // storage-class only; ignored
            } else {
                break;
            }
        }
        // Destructor with leading specifiers: `virtual ~Base() = default;`.
        if self.check_punct(Punct::Tilde) {
            self.bump();
            let (n, _) = self.ident()?;
            return self.parse_function_tail(
                FunctionName::Destructor(n),
                None,
                template,
                specs,
                start,
            );
        }
        let ret = self.parse_type()?;
        // Declarator: optionally qualified name, `operator` forms.
        let (qualifier, fname) = self.parse_declarator_name()?;
        if self.check_punct(Punct::LParen) {
            let mut full_specs = specs;
            full_specs.is_static = specs.is_static;
            return self
                .parse_function_tail(fname, qualifier, template, full_specs, start)
                .map(|mut d| {
                    if let DeclKind::Function(f) = &mut d.kind {
                        // A trailing return type (`auto f() -> int`) wins
                        // over the leading `auto`.
                        if f.ret.is_none() {
                            Arc::make_mut(f).ret = Some(ret.clone());
                        }
                    }
                    d
                });
        }
        // Variable.
        let name = match fname {
            FunctionName::Ident(n) => n,
            other => return Err(self.err(format!("unexpected declarator `{other}`"))),
        };
        let mut ty = ret;
        while self.check_punct(Punct::LBracket) {
            self.bump();
            let len = match &self.peek().kind {
                TokenKind::Int(v) => {
                    let v = *v as u64;
                    self.bump();
                    Some(v)
                }
                _ => None,
            };
            self.expect_punct(Punct::RBracket)?;
            ty = crate::ast::Type::new(crate::ast::TypeKind::Array(Box::new(ty), len));
        }
        let (init, brace_init) = if self.eat_punct(Punct::Eq) {
            (Some(self.parse_expr()?), false)
        } else if self.check_punct(Punct::LBrace) {
            let bstart = self.span();
            self.bump();
            let args = self.parse_call_args()?;
            let bend = self.expect_punct(Punct::RBrace)?;
            (
                Some(crate::ast::Expr::new(
                    crate::ast::ExprKind::BraceInit {
                        ty: Some(ty.clone()),
                        args,
                    },
                    bstart.to(bend),
                )),
                true,
            )
        } else {
            (None, false)
        };
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl::new(
            DeclKind::Variable(crate::ast::VarDecl {
                ty,
                name,
                is_static,
                is_constexpr,
                init,
                brace_init,
            }),
            start.to(end),
        ))
    }

    /// Parses the declarator name of a function/variable: an optionally
    /// `::`-qualified path whose last component may be `operator...`.
    /// Returns `(qualifier, name)`.
    fn parse_declarator_name(&mut self) -> Result<(Option<QualName>, FunctionName)> {
        let mut segs: Vec<crate::ast::NameSeg> = Vec::new();
        loop {
            if self.check_kw("operator") {
                self.bump();
                let op = self.parse_operator_token()?;
                let qualifier = if segs.is_empty() {
                    None
                } else {
                    Some(QualName {
                        global: false,
                        segs,
                    })
                };
                let name = if op == "()" {
                    FunctionName::CallOperator
                } else {
                    FunctionName::Operator(op)
                };
                return Ok((qualifier, name));
            }
            if self.check_punct(Punct::Tilde) {
                self.bump();
                let (n, _) = self.ident()?;
                let qualifier = if segs.is_empty() {
                    None
                } else {
                    Some(QualName {
                        global: false,
                        segs,
                    })
                };
                return Ok((qualifier, FunctionName::Destructor(n)));
            }
            let (ident, _) = self.ident()?;
            // A qualifying segment may carry template args:
            // `View<T>::method`.
            let args = if self.check_punct(Punct::Lt) && !self.peek_at(1).kind.is_punct(Punct::Lt) {
                let save = self.save();
                match self.parse_template_args() {
                    Ok(a)
                        if self.check_punct(Punct::ColonColon)
                            || self.check_punct(Punct::LParen)
                            || self.check_punct(Punct::Semi) =>
                    {
                        Some(a)
                    }
                    _ => {
                        self.restore(save);
                        None
                    }
                }
            } else {
                None
            };
            segs.push(crate::ast::NameSeg { ident, args });
            if self.check_punct(Punct::ColonColon) {
                self.bump();
                continue;
            }
            let last = segs.pop().expect("at least one segment parsed");
            let qualifier = if segs.is_empty() {
                None
            } else {
                Some(QualName {
                    global: false,
                    segs,
                })
            };
            // Explicit instantiation/specialization of a function keeps its
            // template args in the name; YALLA renders them back verbatim.
            let name = if let Some(args) = last.args {
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                FunctionName::Ident(format!("{}<{}>", last.ident, rendered.join(", ")))
            } else {
                FunctionName::Ident(last.ident)
            };
            return Ok((qualifier, name));
        }
    }

    /// Parses the token(s) after `operator`: `()`, `[]`, or a punctuator.
    fn parse_operator_token(&mut self) -> Result<String> {
        if self.check_punct(Punct::LParen) && self.peek_at(1).kind.is_punct(Punct::RParen) {
            self.bump();
            self.bump();
            return Ok("()".into());
        }
        if self.check_punct(Punct::LBracket) && self.peek_at(1).kind.is_punct(Punct::RBracket) {
            self.bump();
            self.bump();
            return Ok("[]".into());
        }
        match &self.peek().kind {
            TokenKind::Punct(p) => {
                let s = p.as_str().to_string();
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected operator symbol after `operator`")),
        }
    }

    /// Parses a function from its parameter list onward. `start` is the
    /// span where the whole declaration began.
    fn parse_function_tail(
        &mut self,
        name: FunctionName,
        qualifier: Option<QualName>,
        template: Option<TemplateHeader>,
        mut specs: FunctionSpecs,
        start: crate::loc::Span,
    ) -> Result<Decl> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.check_punct(Punct::RParen) {
            loop {
                if self.eat_punct(Punct::Ellipsis) {
                    break;
                }
                let ty = self.parse_type()?;
                let pname = match &self.peek().kind {
                    TokenKind::Ident(n) if crate::parse::types_allows_decl_name(n) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                let default = if self.eat_punct(Punct::Eq) {
                    let from = self.save();
                    self.skip_until_top_level(&[Punct::Comma]);
                    Some(self.render_range(from, self.save()))
                } else {
                    None
                };
                params.push(Param {
                    ty,
                    name: pname,
                    default,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        // Suffix specifiers.
        loop {
            if self.eat_kw("const") {
                specs.is_const = true;
            } else if self.eat_kw("noexcept") {
                specs.is_noexcept = true;
                if self.check_punct(Punct::LParen) {
                    self.bump();
                    self.skip_until_top_level(&[]);
                    self.expect_punct(Punct::RParen)?;
                }
            } else if self.eat_kw("override") {
                specs.is_override = true;
            } else if self.eat_kw("final") {
                // ignored
            } else {
                break;
            }
        }
        // Trailing return type.
        let trailing_ret = if self.eat_punct(Punct::Arrow) {
            Some(self.parse_type()?)
        } else {
            None
        };
        // `= default`, `= delete`, `= 0`.
        if self.eat_punct(Punct::Eq) {
            if self.eat_kw("default") {
                specs.is_defaulted = true;
            } else if self.eat_kw("delete") {
                specs.is_deleted = true;
            } else if matches!(self.peek().kind, TokenKind::Int(0)) {
                self.bump(); // pure virtual
            } else {
                return Err(self.err("expected `default`, `delete`, or `0` after `=`"));
            }
            let end = self.expect_punct(Punct::Semi)?;
            return Ok(Decl::new(
                DeclKind::Function(Arc::new(FunctionDecl {
                    name,
                    qualifier,
                    template,
                    ret: trailing_ret,
                    params,
                    specs,
                    body: None,
                })),
                start.to(end),
            ));
        }
        // Constructor initializer list: consumed, not modelled.
        if self.check_punct(Punct::Colon) {
            self.bump();
            // Skip `name(expr), name{expr}, ...` up to the body brace.
            loop {
                let _ = self.ident()?;
                if self.check_punct(Punct::LParen) {
                    self.bump();
                    self.skip_until_top_level(&[]);
                    self.expect_punct(Punct::RParen)?;
                } else if self.check_punct(Punct::LBrace) {
                    self.bump();
                    self.skip_until_top_level(&[]);
                    self.expect_punct(Punct::RBrace)?;
                }
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        // Body or `;`.
        if self.check_punct(Punct::LBrace) {
            let body = self.parse_block()?;
            let span = start.to(body.span);
            return Ok(Decl::new(
                DeclKind::Function(Arc::new(FunctionDecl {
                    name,
                    qualifier,
                    template,
                    ret: trailing_ret,
                    params,
                    specs,
                    body: Some(body),
                })),
                span,
            ));
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl::new(
            DeclKind::Function(Arc::new(FunctionDecl {
                name,
                qualifier,
                template,
                ret: trailing_ret,
                params,
                specs,
                body: None,
            })),
            start.to(end),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn first(src: &str) -> Decl {
        parse_str(src).unwrap().decls.remove(0)
    }

    trait Remove0 {
        fn remove(self, i: usize) -> Decl;
    }
    impl Remove0 for Vec<Decl> {
        fn remove(mut self, i: usize) -> Decl {
            Vec::remove(&mut self, i)
        }
    }

    #[test]
    fn simple_function_definition() {
        let d = first("int add(int x, int y) { return x + y; }");
        match d.kind {
            DeclKind::Function(f) => {
                assert_eq!(f.name.spelling(), "add");
                assert_eq!(f.params.len(), 2);
                assert!(f.is_definition());
                assert_eq!(f.ret.as_ref().unwrap().to_string(), "int");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn function_template_from_figure_2() {
        let d = first("template<typename T>\nT g_add(T x, T y) {\n  return x + y;\n}");
        match d.kind {
            DeclKind::Function(f) => {
                assert_eq!(f.template.as_ref().unwrap().params.len(), 1);
                assert_eq!(f.name.spelling(), "g_add");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn forward_declaration_of_template_function() {
        let d = first("template<typename T>\nT g_add(T x, T y);");
        match d.kind {
            DeclKind::Function(f) => assert!(!f.is_definition()),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn explicit_instantiation_of_function() {
        let d = first("template int g_add<int>(int x, int y);");
        match d.kind {
            DeclKind::Function(f) => {
                assert!(f.specs.is_explicit_instantiation);
                assert_eq!(f.name.spelling(), "g_add<int>");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn explicit_specialization_definition() {
        let d = first("template<> int g_add<int>(int x, int y) { return x + y; }");
        match d.kind {
            DeclKind::Function(f) => {
                let t = f.template.as_ref().unwrap();
                assert!(t.params.is_empty());
                assert_eq!(f.name.spelling(), "g_add<int>");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn explicit_class_instantiation() {
        let d = first("template class View<int, LayoutRight>;");
        match d.kind {
            DeclKind::Class(c) => {
                assert!(c.is_explicit_instantiation);
                assert_eq!(c.name, "View");
                assert_eq!(c.spec_args.as_deref(), Some("<int, LayoutRight>"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn namespace_with_members() {
        let d = first("namespace Kokkos { class OpenMP; class LayoutRight; }");
        match d.kind {
            DeclKind::Namespace(ns) => {
                assert_eq!(ns.name, "Kokkos");
                assert_eq!(ns.decls.len(), 2);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn nested_namespace_sugar() {
        let d = first("namespace A::B { int x; }");
        match d.kind {
            DeclKind::Namespace(ns) => {
                assert_eq!(ns.name, "A");
                match &ns.decls[0].kind {
                    DeclKind::Namespace(inner) => assert_eq!(inner.name, "B"),
                    other => panic!("bad parse: {other:?}"),
                }
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn functor_struct_from_figure_3() {
        let src = "struct add_y {\n  int y;\n  Kokkos::View<int**, LayoutRight> x;\n  void operator()(member_t &m);\n};";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                assert_eq!(c.name, "add_y");
                assert!(c.is_definition);
                assert_eq!(c.fields().count(), 2);
                let (_, f) = c.methods().next().unwrap();
                assert_eq!(f.name, FunctionName::CallOperator);
                assert!(!f.is_definition());
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn out_of_line_method_definition() {
        let d = first("void add_y::operator()(member_t &m) { int j = m.league_rank(); }");
        match d.kind {
            DeclKind::Function(f) => {
                assert_eq!(f.qualifier.as_ref().unwrap().key(), "add_y");
                assert_eq!(f.name, FunctionName::CallOperator);
                assert!(f.is_definition());
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn class_template_with_members() {
        let src = "template <class DataType, class Layout = LayoutRight>\nclass View {\npublic:\n  View();\n  ~View();\n  int extent(int dim) const;\n  DataType& operator()(int i, int j) const;\nprivate:\n  int dims_[8];\n};";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                assert_eq!(c.name, "View");
                let th = c.template.as_ref().unwrap();
                assert_eq!(th.params.len(), 2);
                assert_eq!(c.methods().count(), 4);
                let names: Vec<&str> = c
                    .methods()
                    .map(|(_, f)| f.name.spelling().as_str())
                    .collect();
                assert!(names.contains(&"View"));
                assert!(names.contains(&"~View"));
                assert!(names.contains(&"operator()"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn access_specifiers_apply() {
        let src = "class C { int a; public: int b; protected: int c; };";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                let accesses: Vec<AccessSpecifier> = c.members.iter().map(|m| m.access).collect();
                assert_eq!(
                    accesses,
                    vec![
                        AccessSpecifier::Private,
                        AccessSpecifier::Public,
                        AccessSpecifier::Protected
                    ]
                );
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn type_aliases() {
        let tu = parse_str(
            "using sp_t = Kokkos::OpenMP;\nusing member_t = Kokkos::TeamPolicy<sp_t>::member_type;\ntypedef int myint;\nusing Kokkos::LayoutRight;\nusing namespace std;",
        )
        .unwrap();
        assert_eq!(tu.decls.len(), 5);
        assert!(matches!(tu.decls[0].kind, DeclKind::Alias(_)));
        match &tu.decls[1].kind {
            DeclKind::Alias(a) => {
                assert_eq!(a.name, "member_t");
                assert_eq!(
                    a.target.core_name().unwrap().key(),
                    "Kokkos::TeamPolicy::member_type"
                );
            }
            other => panic!("bad parse: {other:?}"),
        }
        assert!(matches!(tu.decls[2].kind, DeclKind::Alias(_)));
        assert!(matches!(tu.decls[3].kind, DeclKind::UsingDecl(_)));
        assert!(matches!(tu.decls[4].kind, DeclKind::UsingNamespace(_)));
    }

    #[test]
    fn alias_template() {
        let d = first("template <typename T> using Vec = std::vector<T>;");
        match d.kind {
            DeclKind::Alias(a) => {
                assert_eq!(a.name, "Vec");
                assert!(a.template.is_some());
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn enums() {
        let d = first("enum class Layout : int { Left, Right = 4, Stride };");
        match d.kind {
            DeclKind::Enum(e) => {
                assert!(e.scoped);
                assert_eq!(e.enumerators.len(), 3);
                assert_eq!(e.enumerators[1].value.as_deref(), Some("4"));
                assert_eq!(e.underlying.as_ref().unwrap().to_string(), "int");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn global_variables() {
        let tu = parse_str("int g = 5;\nstatic const double PI = 3.14159;\nKokkos::View<int> v;")
            .unwrap();
        assert_eq!(tu.decls.len(), 3);
        match &tu.decls[1].kind {
            DeclKind::Variable(v) => {
                assert!(v.is_static);
                assert!(v.ty.is_const);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn virtual_and_pure_virtual() {
        let src = "class Base { public: virtual void run() = 0; virtual ~Base() = default; };";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                let methods: Vec<_> = c.methods().collect();
                assert!(methods[0].1.specs.is_virtual);
                assert!(methods[0].1.body.is_none());
                assert!(methods[1].1.specs.is_defaulted);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn constructor_with_init_list() {
        let src =
            "class P { public: P(int x) : x_(x), y_{0} { run(); } private: int x_; int y_; };";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                let (_, ctor) = c.methods().next().unwrap();
                assert_eq!(ctor.name, FunctionName::Constructor("P".into()));
                assert!(ctor.is_definition());
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn inheritance() {
        let d = first("class D : public B, private C { };");
        match d.kind {
            DeclKind::Class(c) => {
                assert_eq!(c.bases.len(), 2);
                assert_eq!(c.bases[0].0, AccessSpecifier::Public);
                assert_eq!(c.bases[1].0, AccessSpecifier::Private);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn operator_overloads() {
        let src = "struct V { V operator+(const V& o) const; int& operator[](int i); bool operator==(const V& o) const; };";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                let names: Vec<&str> = c
                    .methods()
                    .map(|(_, f)| f.name.spelling().as_str())
                    .collect();
                assert_eq!(names, vec!["operator+", "operator[]", "operator=="]);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn default_arguments() {
        let d = first("void f(int a, double b = 3.5, const char* c = \"hi\");");
        match d.kind {
            DeclKind::Function(f) => {
                assert_eq!(f.params[1].default.as_deref(), Some("3.5"));
                assert!(f.params[2].default.as_deref().unwrap().contains("hi"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn variadic_function() {
        let d = first("int printf(const char* fmt, ...);");
        match d.kind {
            DeclKind::Function(f) => assert_eq!(f.params.len(), 1),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn trailing_return_type() {
        let d = first("auto get() -> int { return 3; }");
        match d.kind {
            DeclKind::Function(f) => {
                assert_eq!(f.ret.as_ref().unwrap().to_string(), "int");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn static_assert_top_level() {
        let d = first("static_assert(sizeof(int) == 4, \"size\");");
        assert!(matches!(d.kind, DeclKind::StaticAssert));
    }

    #[test]
    fn whole_figure_3_parses() {
        let src = r#"
struct add_y {
  int y;
  Kokkos::View<int**, LayoutRight> x;
  void operator()(member_t &m);
};
void add_y::operator()(member_t &m) {
  int j = m.league_rank();
  Kokkos::parallel_for(
    Kokkos::TeamThreadRange(m, 5),
    [&](int i) { x(j, i) += y; });
}
"#;
        let tu = parse_str(src).unwrap();
        assert_eq!(tu.decls.len(), 2);
    }

    #[test]
    fn nested_classes() {
        let src =
            "class TeamPolicy { public: class member_type { public: int league_rank() const; }; };";
        let d = first(src);
        match d.kind {
            DeclKind::Class(c) => {
                let nested = c
                    .members
                    .iter()
                    .find_map(|m| match &m.decl.kind {
                        DeclKind::Class(n) => Some(n),
                        _ => None,
                    })
                    .unwrap();
                assert_eq!(nested.name, "member_type");
                assert_eq!(nested.methods().count(), 1);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn main_function_with_template_call() {
        let tu = parse_str("int main() { g_add<int>(1, 2); return 0; }").unwrap();
        assert_eq!(tu.decls.len(), 1);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(parse_str("int f( {").is_err());
        assert!(parse_str("class {").is_err());
        assert!(parse_str("}}}}").is_err());
        assert!(parse_str("template second").is_err());
    }
}
