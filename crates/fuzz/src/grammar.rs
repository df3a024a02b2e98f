//! Grammar-based random project generation.
//!
//! A [`ProjectModel`] is a structured description of a whole project —
//! an expensive library header plus user sources plus a driver — drawn
//! from [`DetRng`] so the same seed always yields the same project. The
//! model covers the paper's Table 1 symbol kinds: classes (reached both
//! directly and through aliases), methods, fields, call operators, free
//! functions, scoped and unscoped enums, and templated calls taking
//! lambdas (which the engine turns into functors). Rendering the model
//! yields parseable C++ text; the model — not the text — is the unit the
//! shrinker deletes from.

use yalla_core::Options;
use yalla_corpus::gen::DetRng;
use yalla_cpp::vfs::Vfs;

/// Library header path inside generated projects.
pub const LIB_HEADER: &str = "fz_lib.hpp";
/// User source path.
pub const MAIN_SOURCE: &str = "main.cpp";
/// Support header (declares the probe; never substituted).
pub const SUPPORT_HEADER: &str = "support.hpp";
/// Driver path (loaded as its own machine TU; never rewritten).
pub const DRIVER_SOURCE: &str = "driver.cpp";
/// Namespace wrapping all generated library code.
pub const LIB_NAMESPACE: &str = "fz";
/// Entry point the oracle calls on the machine (defined by the driver).
pub const ENTRY: &str = "fuzz_entry";
/// Macro the library tests with `#ifdef` when
/// [`ProjectModel::wide_flag`] is set.
pub const WIDE_FLAG: &str = "FZ_WIDE";

/// One method of a generated library class.
#[derive(Debug, Clone)]
pub struct MethodModel {
    /// Method name (`m0_0`, ...).
    pub name: String,
    /// True when the method mutates a field and returns void.
    pub mutates: bool,
    /// Small constant folded into the body.
    pub k: i64,
}

/// A generated library class.
#[derive(Debug, Clone)]
pub struct ClassModel {
    /// Class name (`C0`, ...).
    pub name: String,
    /// Number of `int` fields (`f0..`), at least one.
    pub fields: usize,
    /// Methods.
    pub methods: Vec<MethodModel>,
    /// Whether the class has an `operator()(int)` reading a field.
    pub call_operator: bool,
}

/// A generated enum.
#[derive(Debug, Clone)]
pub struct EnumModel {
    /// Enum name (`E0`, ...).
    pub name: String,
    /// `enum class` when true.
    pub scoped: bool,
    /// Enumerators: name plus optional explicit value.
    pub variants: Vec<(String, Option<i64>)>,
}

/// A generated free function (`int ff0(int a, int b)`).
#[derive(Debug, Clone)]
pub struct FreeFnModel {
    /// Function name.
    pub name: String,
    /// Constant folded into the body.
    pub k: i64,
}

/// One statement inside a generated user function, modeled structurally
/// so the shrinker can delete statements one at a time.
#[derive(Debug, Clone)]
pub enum UserStmt {
    /// `probe(<tag>);` — the observable event.
    Probe(i64),
    /// `int x<n> = <expr>;`
    Local {
        /// Local index (`x{n}`).
        n: usize,
        /// Rendered initializer expression.
        expr: String,
    },
    /// `x<n> = x<n> <op> <expr>;`
    Update {
        /// Local index.
        n: usize,
        /// `+`, `-`, `*`, `^`.
        op: char,
        /// Rendered right-hand side.
        expr: String,
    },
    /// `a.<method>(<expr>);` — void method call on the class parameter.
    CallMutator {
        /// Method name.
        method: String,
        /// Rendered argument.
        expr: String,
    },
    /// `if (x<n> > <c>) { probe(<t1>); } else { x<n> = x<n> + <c2>; }`
    Branch {
        /// Local tested.
        n: usize,
        /// Comparison constant.
        c: i64,
        /// Probe tag in the then-branch.
        t1: i64,
        /// Added constant in the else-branch.
        c2: i64,
    },
    /// `for (int i = 0; i < <n>; i++) { x<t> = x<t> + i * <k>; }`
    Loop {
        /// Trip count.
        trips: i64,
        /// Local accumulated into.
        target: usize,
        /// Step multiplier.
        k: i64,
    },
    /// A lambda handed to the library's templated `apply`:
    /// `fz::apply([&](int i) { x<t> = x<t> + i * <k>; }, <n>);`
    Lambda {
        /// Local mutated by the lambda (captured by reference).
        target: usize,
        /// Step multiplier inside the lambda body.
        k: i64,
        /// Trip count passed to `apply`.
        trips: i64,
    },
    /// `probe(x<n>);`
    ProbeLocal(usize),
}

/// A generated user function: `int u<i>(fz::<Cls>& a, int k) { ... }`.
#[derive(Debug, Clone)]
pub struct UserFnModel {
    /// Function index (name `u{index}`).
    pub index: usize,
    /// The class parameter's spelled type (class or alias name, without
    /// namespace).
    pub param_type: String,
    /// Body statements.
    pub stmts: Vec<UserStmt>,
}

/// One driver statement: construct a class instance and call a user
/// function with it, folding the result into the accumulator.
#[derive(Debug, Clone)]
pub struct DriverCall {
    /// Class constructed for the call.
    pub class: String,
    /// Constructor field values.
    pub ctor_args: Vec<i64>,
    /// User function called (`u{index}`).
    pub user_fn: usize,
    /// Extra integer passed as `k`.
    pub k: i64,
}

/// A whole generated project.
#[derive(Debug, Clone)]
pub struct ProjectModel {
    /// Seed the model was drawn from.
    pub seed: u64,
    /// Library classes.
    pub classes: Vec<ClassModel>,
    /// Library enums.
    pub enums: Vec<EnumModel>,
    /// Library free functions.
    pub free_fns: Vec<FreeFnModel>,
    /// Aliases: `using A<i> = C<j>;` pairs (alias name, class name).
    pub aliases: Vec<(String, String)>,
    /// Whether the library defines the templated `apply` taking a functor.
    pub has_apply: bool,
    /// User functions.
    pub user_fns: Vec<UserFnModel>,
    /// Driver calls.
    pub driver_calls: Vec<DriverCall>,
    /// `Some(defined)` makes the library declare one more function under
    /// `#ifdef` [`WIDE_FLAG`], and the main source `#define` it at the
    /// top of its include block when `defined`: toggling it changes the
    /// library's expansion through the main source's directives alone.
    /// `None` (what [`ProjectModel::generate`] draws) leaves both out.
    pub wide_flag: Option<bool>,
}

impl ProjectModel {
    /// Draws a random project from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let n_classes = 1 + rng.next(2); // 1..=2
        let n_enums = rng.next(3); // 0..=2
        let n_free = 1 + rng.next(3); // 1..=3
        let has_apply = rng.next(100) < 70;

        let classes: Vec<ClassModel> = (0..n_classes)
            .map(|c| {
                let fields = 1 + rng.next(3);
                let n_methods = 1 + rng.next(3);
                let methods = (0..n_methods)
                    .map(|m| MethodModel {
                        name: format!("m{c}_{m}"),
                        mutates: rng.next(100) < 30,
                        k: 1 + rng.next(9) as i64,
                    })
                    .collect();
                ClassModel {
                    name: format!("C{c}"),
                    fields,
                    methods,
                    call_operator: rng.next(100) < 40,
                }
            })
            .collect();

        let enums: Vec<EnumModel> = (0..n_enums)
            .map(|e| {
                let scoped = rng.next(100) < 50;
                let n_variants = 2 + rng.next(3);
                let variants = (0..n_variants)
                    .map(|v| {
                        let explicit = rng.next(100) < 35;
                        let value = explicit.then(|| rng.next(40) as i64);
                        (format!("V{e}_{v}"), value)
                    })
                    .collect();
                EnumModel {
                    name: format!("E{e}"),
                    scoped,
                    variants,
                }
            })
            .collect();

        let free_fns: Vec<FreeFnModel> = (0..n_free)
            .map(|f| FreeFnModel {
                name: format!("ff{f}"),
                k: 1 + rng.next(9) as i64,
            })
            .collect();

        let mut aliases = Vec::new();
        for (i, c) in classes.iter().enumerate() {
            if rng.next(100) < 50 {
                aliases.push((format!("A{i}"), c.name.clone()));
            }
        }

        let n_user = 1 + rng.next(2);
        let mut model = ProjectModel {
            seed,
            classes,
            enums,
            free_fns,
            aliases,
            has_apply,
            user_fns: Vec::new(),
            driver_calls: Vec::new(),
            wide_flag: None,
        };
        for u in 0..n_user {
            let fun = model.gen_user_fn(u, &mut rng);
            model.user_fns.push(fun);
        }

        let n_calls = 1 + rng.next(3);
        for _ in 0..n_calls {
            let user_fn = rng.next(model.user_fns.len().max(1));
            let class = model.class_behind(&model.user_fns[user_fn].param_type);
            let fields = model
                .classes
                .iter()
                .find(|c| c.name == class)
                .map(|c| c.fields)
                .unwrap_or(1);
            let ctor_args = (0..fields).map(|_| 1 + rng.next(20) as i64).collect();
            model.driver_calls.push(DriverCall {
                class,
                ctor_args,
                user_fn,
                k: 1 + rng.next(30) as i64,
            });
        }
        model
    }

    /// The class a spelled parameter type (class or alias) names.
    pub fn class_behind(&self, spelled: &str) -> String {
        self.aliases
            .iter()
            .find(|(a, _)| a == spelled)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| spelled.to_string())
    }

    fn gen_user_fn(&self, index: usize, rng: &mut DetRng) -> UserFnModel {
        let class = &self.classes[rng.next(self.classes.len())];
        // Reach the class through an alias half the time one exists.
        let param_type = self
            .aliases
            .iter()
            .find(|(_, c)| *c == class.name)
            .filter(|_| rng.next(100) < 50)
            .map(|(a, _)| a.clone())
            .unwrap_or_else(|| class.name.clone());

        let mut stmts = vec![
            // Every user function opens with a top-level probe so every
            // call is observable (and the sabotage hook always bites).
            UserStmt::Probe(7_000 + index as i64),
            UserStmt::Local {
                n: 0,
                expr: "k".to_string(),
            },
        ];
        let mut locals = 1usize;
        let n_extra = 2 + rng.next(5);
        for _ in 0..n_extra {
            stmts.push(self.gen_stmt(class, rng, &mut locals));
        }
        stmts.push(UserStmt::ProbeLocal(0));
        UserFnModel {
            index,
            param_type,
            stmts,
        }
    }

    fn gen_stmt(&self, class: &ClassModel, rng: &mut DetRng, locals: &mut usize) -> UserStmt {
        let pick_local = |rng: &mut DetRng, locals: usize| rng.next(locals.max(1));
        let small_expr = |this: &Self, rng: &mut DetRng, locals: usize, class: &ClassModel| {
            this.gen_expr(rng, locals, class)
        };
        match rng.next(8) {
            0 => {
                let n = *locals;
                *locals += 1;
                UserStmt::Local {
                    n,
                    expr: small_expr(self, rng, n, class),
                }
            }
            1 => UserStmt::Update {
                n: pick_local(rng, *locals),
                op: ['+', '-', '*', '^'][rng.next(4)],
                expr: small_expr(self, rng, *locals, class),
            },
            2 if class.methods.iter().any(|m| m.mutates) => {
                let muts: Vec<&MethodModel> = class.methods.iter().filter(|m| m.mutates).collect();
                UserStmt::CallMutator {
                    method: muts[rng.next(muts.len())].name.clone(),
                    expr: small_expr(self, rng, *locals, class),
                }
            }
            3 => UserStmt::Branch {
                n: pick_local(rng, *locals),
                c: rng.next(60) as i64,
                t1: 8_000 + rng.next(100) as i64,
                c2: 1 + rng.next(9) as i64,
            },
            4 => UserStmt::Loop {
                trips: 1 + rng.next(6) as i64,
                target: pick_local(rng, *locals),
                k: 1 + rng.next(5) as i64,
            },
            5 if self.has_apply => UserStmt::Lambda {
                target: pick_local(rng, *locals),
                k: 1 + rng.next(5) as i64,
                trips: 1 + rng.next(5) as i64,
            },
            6 => UserStmt::Probe(9_000 + rng.next(500) as i64),
            _ => UserStmt::Update {
                n: pick_local(rng, *locals),
                op: '+',
                expr: small_expr(self, rng, *locals, class),
            },
        }
    }

    /// A small integer expression over in-scope names: locals, `k`, the
    /// class parameter `a` (fields, methods, call operator), free
    /// functions, enum constants, literals.
    fn gen_expr(&self, rng: &mut DetRng, locals: usize, class: &ClassModel) -> String {
        let atom = |rng: &mut DetRng, this: &Self| -> String {
            match rng.next(7) {
                0 => format!("{}", 1 + rng.next(50)),
                1 => "k".to_string(),
                2 if locals > 0 => format!("x{}", rng.next(locals)),
                3 if !this.free_fns.is_empty() => {
                    let f = &this.free_fns[rng.next(this.free_fns.len())];
                    format!("{LIB_NAMESPACE}::{}(k, {})", f.name, 1 + rng.next(12))
                }
                4 if !this.enums.is_empty() => {
                    let e = &this.enums[rng.next(this.enums.len())];
                    let (v, _) = &e.variants[rng.next(e.variants.len())];
                    if e.scoped {
                        format!("{LIB_NAMESPACE}::{}::{v}", e.name)
                    } else {
                        format!("{LIB_NAMESPACE}::{v}")
                    }
                }
                5 => {
                    // A non-mutating method or the call operator on `a`.
                    let getters: Vec<&MethodModel> =
                        class.methods.iter().filter(|m| !m.mutates).collect();
                    if class.call_operator && (getters.is_empty() || rng.next(2) == 0) {
                        format!("a({})", rng.next(8))
                    } else if let Some(m) = getters.first() {
                        format!("a.{}({})", m.name, 1 + rng.next(10))
                    } else {
                        format!("{}", 1 + rng.next(50))
                    }
                }
                _ => "k".to_string(),
            }
        };
        let a = atom(rng, self);
        if rng.next(100) < 45 {
            let b = atom(rng, self);
            let op = ['+', '-', '*'][rng.next(3)];
            format!("{a} {op} {b}")
        } else {
            a
        }
    }

    // ----- rendering ----------------------------------------------------

    /// Renders the library header.
    pub fn render_lib(&self) -> String {
        let mut out = String::from("#pragma once\n");
        out.push_str(&format!("namespace {LIB_NAMESPACE} {{\n"));
        for e in &self.enums {
            let kw = if e.scoped { "enum class" } else { "enum" };
            let vars: Vec<String> = e
                .variants
                .iter()
                .map(|(n, v)| match v {
                    Some(v) => format!("{n} = {v}"),
                    None => n.clone(),
                })
                .collect();
            out.push_str(&format!("{kw} {} {{ {} }};\n", e.name, vars.join(", ")));
        }
        for c in &self.classes {
            out.push_str(&format!("class {} {{\npublic:\n", c.name));
            for f in 0..c.fields {
                out.push_str(&format!("  int f{f};\n"));
            }
            for m in &c.methods {
                if m.mutates {
                    out.push_str(&format!(
                        "  void {}(int a0) {{ f0 = f0 + a0 * {}; }}\n",
                        m.name, m.k
                    ));
                } else {
                    out.push_str(&format!(
                        "  int {}(int a0) const {{ return f0 * {} + a0; }}\n",
                        m.name, m.k
                    ));
                }
            }
            if c.call_operator {
                out.push_str("  int operator()(int i) const { return f0 + i * 3; }\n");
            }
            out.push_str("};\n");
        }
        for (a, c) in &self.aliases {
            out.push_str(&format!("using {a} = {c};\n"));
        }
        for f in &self.free_fns {
            out.push_str(&format!(
                "inline int {}(int a, int b) {{ return a * {} + b; }}\n",
                f.name, f.k
            ));
        }
        if self.has_apply {
            out.push_str(
                "template <typename F>\ninline int apply(F f, int n) {\n  int acc = 0;\n  for (int i = 0; i < n; i++) { f(i); acc = acc + i; }\n  return acc;\n}\n",
            );
        }
        if self.wide_flag.is_some() {
            out.push_str(&format!(
                "#ifdef {WIDE_FLAG}\ninline int wide(int a) {{ return a * 2; }}\n#endif\n"
            ));
        }
        out.push_str(&format!("}} // namespace {LIB_NAMESPACE}\n"));
        out
    }

    /// Renders the user source.
    pub fn render_main(&self) -> String {
        let mut out = String::new();
        if self.wide_flag == Some(true) {
            out.push_str(&format!("#define {WIDE_FLAG} 1\n"));
        }
        out.push_str(&format!("#include \"{LIB_HEADER}\"\n"));
        out.push_str(&format!("#include \"{SUPPORT_HEADER}\"\n"));
        for f in &self.user_fns {
            out.push_str(&format!(
                "int u{}({LIB_NAMESPACE}::{}& a, int k) {{\n",
                f.index, f.param_type
            ));
            for s in &f.stmts {
                out.push_str(&render_stmt(s));
            }
            out.push_str("  return x0;\n}\n");
        }
        out
    }

    /// Renders the support header (probe declaration; never substituted).
    pub fn render_support(&self) -> String {
        "#pragma once\nint probe(int v);\n".to_string()
    }

    /// Renders the driver (its own TU; never rewritten).
    pub fn render_driver(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("#include \"{LIB_HEADER}\"\n"));
        out.push_str(&format!("#include \"{SUPPORT_HEADER}\"\n"));
        out.push_str(&format!("int {ENTRY}(int s0, int s1) {{\n"));
        out.push_str("  int acc = s0 * 31 + s1;\n");
        for (i, call) in self.driver_calls.iter().enumerate() {
            let args: Vec<String> = call.ctor_args.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "  {LIB_NAMESPACE}::{} o{i} = {LIB_NAMESPACE}::{}({});\n",
                call.class,
                call.class,
                args.join(", ")
            ));
            out.push_str(&format!(
                "  acc = acc + u{}(o{i}, acc % 17 + {});\n",
                call.user_fn, call.k
            ));
            out.push_str("  probe(acc);\n");
        }
        out.push_str("  return acc;\n}\n");
        out
    }

    /// Renders the whole project into a fresh VFS plus matching engine
    /// options.
    pub fn render(&self) -> (Vfs, Options) {
        let mut vfs = Vfs::new();
        vfs.add_file(LIB_HEADER, self.render_lib());
        vfs.add_file(SUPPORT_HEADER, self.render_support());
        vfs.add_file(MAIN_SOURCE, self.render_main());
        vfs.add_file(DRIVER_SOURCE, self.render_driver());
        let options = Options {
            header: LIB_HEADER.to_string(),
            sources: vec![MAIN_SOURCE.to_string()],
            ..Options::default()
        };
        (vfs, options)
    }

    /// Non-blank line count of all four rendered files — the size measure
    /// the shrinker minimizes and acceptance criteria bound.
    pub fn line_count(&self) -> usize {
        [
            self.render_lib(),
            self.render_support(),
            self.render_main(),
            self.render_driver(),
        ]
        .iter()
        .flat_map(|t| t.lines())
        .filter(|l| !l.trim().is_empty())
        .count()
    }
}

fn render_stmt(s: &UserStmt) -> String {
    match s {
        UserStmt::Probe(tag) => format!("  probe({tag});\n"),
        UserStmt::Local { n, expr } => format!("  int x{n} = {expr};\n"),
        UserStmt::Update { n, op, expr } => format!("  x{n} = x{n} {op} ({expr});\n"),
        UserStmt::CallMutator { method, expr } => format!("  a.{method}({expr});\n"),
        UserStmt::Branch { n, c, t1, c2 } => format!(
            "  if (x{n} > {c}) {{ probe({t1}); }} else {{ x{n} = x{n} + {c2}; }}\n"
        ),
        UserStmt::Loop { trips, target, k } => format!(
            "  for (int i = 0; i < {trips}; i++) {{ x{target} = x{target} + i * {k}; }}\n"
        ),
        UserStmt::Lambda { target, k, trips } => format!(
            "  {LIB_NAMESPACE}::apply([&](int i) {{ x{target} = x{target} + i * {k}; }}, {trips});\n"
        ),
        UserStmt::ProbeLocal(n) => format!("  probe(x{n});\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ProjectModel::generate(7);
        let b = ProjectModel::generate(7);
        assert_eq!(a.render_lib(), b.render_lib());
        assert_eq!(a.render_main(), b.render_main());
        assert_eq!(a.render_driver(), b.render_driver());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProjectModel::generate(1);
        let b = ProjectModel::generate(2);
        assert_ne!(
            a.render_lib().len() + a.render_main().len(),
            b.render_lib().len() + b.render_main().len()
        );
    }

    #[test]
    fn rendered_project_parses() {
        for seed in 1..=20u64 {
            let model = ProjectModel::generate(seed);
            let (vfs, _) = model.render();
            for path in [MAIN_SOURCE, DRIVER_SOURCE] {
                let fe = yalla_cpp::Frontend::new(vfs.clone());
                fe.parse_translation_unit(path)
                    .unwrap_or_else(|e| panic!("seed {seed}: parse {path}: {e}"));
            }
        }
    }
}
