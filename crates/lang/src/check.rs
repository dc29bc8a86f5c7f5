//! The type checker.
//!
//! Every rejection is a structured [`Diagnostic`] carrying an `E…`
//! code and, for parsed programs, the byte span of the offending
//! declaration or statement.

use crate::ast::{BinOp, Expr, GlobalInit, Program, Stmt, Ty};
use crate::diag::{Diagnostic, NodePath, Owner, Span};
use crate::LangError;

/// Scope of one checking pass: the parameters in scope and whether
/// globals may be referenced.
struct Ctx<'p> {
    program: &'p Program,
    params: &'p [(String, Ty)],
    allow_params: bool,
    /// The node diagnostics raised while checking the current statement
    /// or expression point at; its span is looked up only when one is.
    at: Site,
    /// The current statement's path, for [`Site::Stmt`].
    prefix: Vec<u32>,
    errors: Vec<Diagnostic>,
}

/// What a diagnostic raised now points at.
enum Site {
    /// Nothing (no source position).
    Nowhere,
    /// A declaration or expression slot.
    Node(NodePath),
    /// The statement of this body at [`Ctx::prefix`].
    Stmt(Owner),
}

/// `Ok` for a well-typed program, else its type errors: the guard each
/// public pass that assumes a checked program runs first.
pub(crate) fn checked(program: &Program) -> Result<(), LangError> {
    let errors = check(program);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(LangError::TypeErrors(errors))
    }
}

/// Type-checks a program, returning all diagnostics (empty = well typed).
pub fn check(program: &Program) -> Vec<Diagnostic> {
    let mut errors = Vec::new();

    // Globals: unique names, valid initialisers. Duplicates point at the
    // later declaration, with a note at the original.
    for (i, g) in program.globals.iter().enumerate() {
        if let Some(first) = program.globals[..i].iter().position(|o| o.name == g.name) {
            errors.push(
                Diagnostic::error("E0001", format!("duplicate global {:?}", g.name))
                    .at(program.spans.get(&NodePath::Global(i)))
                    .note(program.spans.get(&NodePath::Global(first)), "first declared here")
                    .suggest("rename one of the declarations"),
            );
        }
        let at = program.spans.get(&NodePath::Global(i));
        match &g.init {
            GlobalInit::FromField(field) => match program.field_ty(field) {
                None => errors.push(
                    Diagnostic::error(
                        "E0002",
                        format!("global {:?} initialised from unknown field {:?}", g.name, field),
                    )
                    .at(at),
                ),
                Some(ft) if ft != g.ty => errors.push(
                    Diagnostic::error(
                        "E0003",
                        format!(
                            "global {:?} has type {:?} but field {:?} has {:?}",
                            g.name, g.ty, field, ft
                        ),
                    )
                    .at(at),
                ),
                Some(_) => {}
            },
            GlobalInit::Const(_) => {
                if g.ty != Ty::UInt {
                    errors.push(
                        Diagnostic::error(
                            "E0004",
                            format!("constant-initialised global {:?} must be UInt", g.name),
                        )
                        .at(at),
                    );
                }
            }
            GlobalInit::CreatorAddress => {
                if g.ty != Ty::Address {
                    errors.push(
                        Diagnostic::error(
                            "E0005",
                            format!("creator-address global {:?} must be Address", g.name),
                        )
                        .at(at),
                    );
                }
            }
        }
    }
    for (i, m) in program.maps.iter().enumerate() {
        if let Some(first) = program.maps[..i].iter().position(|o| o.name == m.name) {
            errors.push(
                Diagnostic::error("E0006", format!("duplicate map {:?}", m.name))
                    .at(program.spans.get(&NodePath::Map(i)))
                    .note(program.spans.get(&NodePath::Map(first)), "first declared here")
                    .suggest("rename one of the declarations"),
            );
        }
        if m.value_bytes == 0 {
            errors.push(
                Diagnostic::error("E0007", format!("map {:?} has zero-size values", m.name))
                    .at(program.spans.get(&NodePath::Map(i))),
            );
        }
    }

    // Constructor body: creator fields in scope.
    {
        let mut ctx = Ctx {
            program,
            params: &program.creator.fields,
            allow_params: true,
            at: Site::Nowhere,
            prefix: Vec::new(),
            errors: Vec::new(),
        };
        check_block(&mut ctx, Owner::Constructor, &program.constructor);
        errors.extend(ctx.errors);
    }

    if program.phases.is_empty() {
        errors.push(
            Diagnostic::error("E0008", "program has no phases")
                .at(program.spans.get(&NodePath::ContractName)),
        );
    }

    let mut api_sites: std::collections::HashMap<&str, (usize, usize)> =
        std::collections::HashMap::new();
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        // Phase conditions range over globals only.
        let mut ctx = Ctx {
            program,
            params: &[],
            allow_params: false,
            at: Site::Node(NodePath::PhaseCond(phase_idx)),
            prefix: Vec::new(),
            errors: Vec::new(),
        };
        ctx.expect(&phase.while_cond, Ty::Bool, "phase condition");
        ctx.at = Site::Node(NodePath::Invariant(phase_idx));
        ctx.expect(&phase.invariant, Ty::Bool, "phase invariant");
        errors.extend(ctx.errors);

        for (api_idx, api) in phase.apis.iter().enumerate() {
            let api_node = NodePath::Api { phase: phase_idx, api: api_idx };
            match api_sites.entry(api.name.as_str()) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    let &(fp, fa) = first.get();
                    errors.push(
                        Diagnostic::error("E0009", format!("duplicate api {:?}", api.name))
                            .at(program.spans.get(&api_node))
                            .note(
                                program.spans.get(&NodePath::Api { phase: fp, api: fa }),
                                "first declared here",
                            )
                            .suggest("api names are the dispatch symbols and must be unique"),
                    );
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert((phase_idx, api_idx));
                }
            }
            let mut ctx = Ctx {
                program,
                params: &api.params,
                allow_params: true,
                at: Site::Node(api_node),
                prefix: Vec::new(),
                errors: Vec::new(),
            };
            if let Some(pay) = &api.pay {
                ctx.at = Site::Node(NodePath::ApiPay { phase: phase_idx, api: api_idx });
                ctx.expect(pay, Ty::UInt, "pay amount");
            }
            let owner = Owner::Api { phase: phase_idx as u32, api: api_idx as u32 };
            check_block(&mut ctx, owner, &api.body);
            ctx.at = Site::Node(NodePath::ApiReturns { phase: phase_idx, api: api_idx });
            ctx.expect(&api.returns, Ty::UInt, "api return");
            errors.extend(ctx.errors.into_iter().map(|mut d| {
                d.message = format!("api {:?}: {}", api.name, d.message);
                d
            }));
        }
    }
    errors
}

/// Checks every statement of a body, pointing `ctx.at` at each
/// statement's span before descending so expression-level diagnostics
/// land on the right source line.
fn check_block(ctx: &mut Ctx<'_>, owner: Owner, stmts: &[Stmt]) {
    for (i, stmt) in stmts.iter().enumerate() {
        ctx.prefix.push(i as u32);
        ctx.at = Site::Stmt(owner);
        ctx.check_stmt_shallow(stmt);
        if let Stmt::If { then, otherwise, .. } = stmt {
            ctx.prefix.push(0);
            check_block(ctx, owner, then);
            ctx.prefix.pop();
            ctx.prefix.push(1);
            check_block(ctx, owner, otherwise);
            ctx.prefix.pop();
        }
        ctx.prefix.pop();
    }
}

impl Ctx<'_> {
    fn err(&mut self, code: &'static str, message: impl Into<String>) {
        let spans = &self.program.spans;
        let span = match &self.at {
            Site::Nowhere => Span::DUMMY,
            Site::Node(node) => spans.get(node),
            Site::Stmt(owner) => spans.get(&NodePath::Stmt(*owner, self.prefix.clone())),
        };
        self.errors.push(Diagnostic::error(code, message).at(span));
    }

    /// Checks one statement without descending into `If` arms (the
    /// walker does that with the correct span context).
    fn check_stmt_shallow(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Require(cond) => self.expect(cond, Ty::Bool, "require"),
            Stmt::GlobalSet { name, value } => match self.global_ty(name) {
                None => self.err("E0010", format!("assignment to unknown global {name:?}")),
                Some(Ty::Bytes(_)) => {
                    if let Some(ty) = self.infer(value) {
                        if ty.is_word() {
                            self.err(
                                "E0017",
                                format!("byte global {name:?} must be set from byte data"),
                            );
                        }
                    }
                }
                Some(ty) => self.expect(value, ty, "global assignment"),
            },
            Stmt::MapSet { map, key, value } => {
                if self.program.map_index(map).is_none() {
                    self.err("E0013", format!("unknown map {map:?}"));
                }
                self.expect(key, Ty::UInt, "map key");
                if value.is_empty() {
                    self.err("E0018", format!("map {map:?} set with empty value"));
                }
                for part in value {
                    let _ = self.infer(part); // any typed expr is storable
                }
            }
            Stmt::MapDelete { map, key } => {
                if self.program.map_index(map).is_none() {
                    self.err("E0013", format!("unknown map {map:?}"));
                }
                self.expect(key, Ty::UInt, "map key");
            }
            Stmt::Transfer { to, amount } => {
                if self.infer(to) != Some(Ty::Address) {
                    self.err("E0020", "transfer recipient must be an Address");
                }
                self.expect(amount, Ty::UInt, "transfer amount");
            }
            Stmt::If { cond, .. } => self.expect(cond, Ty::Bool, "if condition"),
            Stmt::Log(parts) => {
                for part in parts {
                    let _ = self.infer(part);
                }
            }
        }
    }

    fn global_ty(&self, name: &str) -> Option<Ty> {
        self.program.globals.iter().find(|g| g.name == name).map(|g| g.ty)
    }

    fn expect(&mut self, expr: &Expr, want: Ty, what: &str) {
        match self.infer(expr) {
            Some(got) if got == want => {}
            Some(got) => self.err("E0014", format!("{what}: expected {want:?}, got {got:?}")),
            None => {} // error already recorded
        }
    }

    fn infer(&mut self, expr: &Expr) -> Option<Ty> {
        match expr {
            Expr::UInt(_) => Some(Ty::UInt),
            Expr::Param(name) => {
                if !self.allow_params {
                    self.err("E0012", format!("parameter {name:?} referenced outside an api body"));
                    return None;
                }
                match self.params.iter().find(|(n, _)| n == name) {
                    Some((_, ty)) => Some(*ty),
                    None => {
                        self.err("E0011", format!("unknown parameter {name:?}"));
                        None
                    }
                }
            }
            Expr::Global(name) => match self.global_ty(name) {
                Some(ty) => Some(ty),
                None => {
                    self.err("E0010", format!("unknown global {name:?}"));
                    None
                }
            },
            Expr::Caller => Some(Ty::Address),
            Expr::Balance => Some(Ty::UInt),
            Expr::MapGet { map, key } | Expr::MapContains { map, key } => {
                if self.program.map_index(map).is_none() {
                    self.err("E0013", format!("unknown map {map:?}"));
                }
                self.expect(key, Ty::UInt, "map key");
                match expr {
                    Expr::MapGet { .. } => Some(Ty::Bytes(32)),
                    _ => Some(Ty::Bool),
                }
            }
            Expr::Hash(parts) => {
                if parts.is_empty() {
                    self.err("E0019", "hash of nothing");
                }
                for part in parts {
                    let _ = self.infer(part);
                }
                Some(Ty::Bytes(32))
            }
            Expr::Bin(op, lhs, rhs) => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        if lt != Ty::UInt || rt != Ty::UInt {
                            self.err("E0016", format!("{op:?} needs UInt operands"));
                            None
                        } else {
                            Some(Ty::UInt)
                        }
                    }
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                        if lt != Ty::UInt || rt != Ty::UInt {
                            self.err("E0016", format!("{op:?} needs UInt operands"));
                            None
                        } else {
                            Some(Ty::Bool)
                        }
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if lt != rt {
                            self.err("E0015", format!("{op:?} operands differ: {lt:?} vs {rt:?}"));
                            None
                        } else {
                            Some(Ty::Bool)
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        if lt != Ty::Bool || rt != Ty::Bool {
                            self.err("E0016", format!("{op:?} needs Bool operands"));
                            None
                        } else {
                            Some(Ty::Bool)
                        }
                    }
                }
            }
            Expr::Not(inner) => {
                self.expect(inner, Ty::Bool, "not");
                Some(Ty::Bool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn counter_is_well_typed() {
        assert!(check(&Program::counter_example()).is_empty());
    }

    #[test]
    fn unknown_global_reported() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0]
            .body
            .push(Stmt::GlobalSet { name: "nope".into(), value: Expr::UInt(1) });
        let errs = check(&p);
        assert!(errs.iter().any(|e| e.message.contains("unknown global \"nope\"")), "{errs:?}");
        assert!(errs.iter().all(|e| e.is_error()));
    }

    #[test]
    fn arithmetic_on_bool_rejected() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body.push(Stmt::Require(Expr::Bin(
            BinOp::Add,
            Box::new(Expr::UInt(1)),
            Box::new(Expr::UInt(2)),
        )));
        let errs = check(&p);
        assert!(errs.iter().any(|e| e.message.contains("expected Bool")), "{errs:?}");
    }

    #[test]
    fn phase_condition_cannot_use_params() {
        let mut p = Program::counter_example();
        p.phases[0].while_cond = Expr::gt(Expr::param("by"), Expr::UInt(0));
        let errs = check(&p);
        assert!(errs.iter().any(|e| e.message.contains("outside an api body")), "{errs:?}");
    }

    #[test]
    fn eq_type_mismatch_reported() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body.push(Stmt::Require(Expr::eq(Expr::Caller, Expr::UInt(0))));
        let errs = check(&p);
        assert!(errs.iter().any(|e| e.message.contains("operands differ")), "{errs:?}");
    }

    #[test]
    fn missing_phase_reported() {
        let mut p = Program::counter_example();
        p.phases.clear();
        assert!(check(&p).iter().any(|e| e.message.contains("no phases")));
    }

    #[test]
    fn duplicate_api_names_reported() {
        let mut p = Program::counter_example();
        let api = p.phases[0].apis[0].clone();
        p.phases[0].apis.push(api);
        let errs = check(&p);
        assert!(errs.iter().any(|e| e.message.contains("duplicate api") && e.code == "E0009"));
    }

    #[test]
    fn duplicate_names_report_both_spans() {
        let src = r"
            contract dup {
                participant P { cap: uint }
                global left: uint = field(cap);
                global left: uint = 0;
                phase p while left > 0 invariant left >= 0 {
                    api f() -> left { left = left - 1; }
                }
            }
        ";
        let p = crate::parse::parse(src).unwrap();
        let errs = check(&p);
        let dup = errs.iter().find(|e| e.code == "E0001").expect("duplicate reported");
        // Primary span: the second declaration; note span: the first.
        assert_eq!(&src[dup.span.start..dup.span.end], "left");
        assert_eq!(dup.notes.len(), 1);
        let note = &dup.notes[0];
        assert_eq!(&src[note.span.start..note.span.end], "left");
        assert!(note.span.start < dup.span.start, "note points at the earlier declaration");
    }
}
