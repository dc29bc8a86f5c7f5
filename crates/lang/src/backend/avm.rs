//! The AVM code generator.
//!
//! Mapping of the contract model onto Algorand's application model:
//!
//! * globals → application **global state** under their declared names
//!   (plus `_phase` and `_creator`);
//! * maps → **boxes** keyed `"<map>:" ‖ itob(key)`, holding the 32-byte
//!   Keccak commitment of the payload; raw payloads are `log`ged;
//! * transfers → **inner payment transactions** from the app account;
//! * API dispatch → first application argument is the method name;
//! * creation (`ApplicationID == 0`) runs the constructor, reading the
//!   creator's fields from the creation arguments.

use crate::ast::{Api, BinOp, Expr, GlobalInit, Program, Stmt, Ty};
use crate::backend::AbiValue;
use crate::LangError;
use pol_avm::opcode::{AvmOp, TxnField};
use pol_avm::program::AvmProgram;
use std::collections::HashMap;

/// Reserved global-state keys.
pub(crate) const KEY_PHASE: &[u8] = b"_phase";
/// The creator's address key.
pub(crate) const KEY_CREATOR: &[u8] = b"_creator";

/// The compiled AVM artifact.
#[derive(Debug, Clone)]
pub struct CompiledAvm {
    /// The approval program.
    pub program: AvmProgram,
    /// Creator field types, in creation-argument order.
    field_tys: Vec<(String, Ty)>,
    /// API parameter types.
    api_params: HashMap<String, Vec<(String, Ty)>>,
}

impl CompiledAvm {
    /// Encodes creation arguments for `Chain::deploy_app`-style
    /// entry points.
    ///
    /// # Errors
    ///
    /// [`LangError::Backend`] on arity or type mismatch.
    pub fn encode_create_args(&self, args: &[AbiValue]) -> Result<Vec<Vec<u8>>, LangError> {
        encode_args(&self.field_tys, args)
    }

    /// Encodes a call's application arguments: method name first.
    ///
    /// # Errors
    ///
    /// [`LangError::Backend`] for unknown APIs or argument mismatches.
    pub fn encode_call(&self, api: &str, args: &[AbiValue]) -> Result<Vec<Vec<u8>>, LangError> {
        let params = self
            .api_params
            .get(api)
            .ok_or_else(|| LangError::Backend(format!("unknown api {api:?}")))?;
        let mut out = vec![api.as_bytes().to_vec()];
        out.extend(encode_args(params, args)?);
        Ok(out)
    }

    /// The TEAL-like listing of the program.
    pub fn teal(&self) -> String {
        pol_avm::teal::render(&self.program)
    }
}

fn encode_args(params: &[(String, Ty)], args: &[AbiValue]) -> Result<Vec<Vec<u8>>, LangError> {
    if params.len() != args.len() {
        return Err(LangError::Backend(format!(
            "expected {} arguments, got {}",
            params.len(),
            args.len()
        )));
    }
    let mut out = Vec::with_capacity(args.len());
    for ((name, ty), value) in params.iter().zip(args) {
        if !value.matches(ty) {
            return Err(LangError::Backend(format!("argument {name:?} does not match {ty:?}")));
        }
        out.push(match value {
            AbiValue::Word(w) => u64::try_from(*w)
                .map_err(|_| {
                    LangError::Backend(format!("argument {name:?} does not fit the AVM's uint64"))
                })?
                .to_be_bytes()
                .to_vec(),
            AbiValue::Address(a) => a.0.to_vec(),
            AbiValue::Bytes(b) => {
                let cap = match ty {
                    Ty::Bytes(cap) => *cap,
                    _ => b.len(),
                };
                let mut padded = b.clone();
                padded.resize(cap, 0);
                padded
            }
        });
    }
    Ok(out)
}

/// Compiles one API in isolation: the ops the AVM verifier and the X0402
/// gate check. The API's body in the approval program is these ops with
/// their labels renumbered.
///
/// # Errors
///
/// As for [`compile`].
pub fn api_fragment(
    program: &Program,
    phase_idx: usize,
    api: &Api,
) -> Result<Vec<AvmOp>, LangError> {
    crate::check::checked(program)?;
    addressable_params(Some(&api.name), &api.params)?;
    Ok(fragment(program, phase_idx, api, Vec::new())?.0)
}

/// The first label a fragment numbers; [`emit`] renumbers them into
/// the program's sequence.
const FRAGMENT_FIRST_LABEL: usize = 1000;

/// [`api_fragment`] for a program already checked and [`addressable`],
/// pushed onto the empty `ops`: the ops, and how many labels they number
/// from [`FRAGMENT_FIRST_LABEL`] on.
fn fragment(
    program: &Program,
    phase_idx: usize,
    api: &Api,
    ops: Vec<AvmOp>,
) -> Result<(Vec<AvmOp>, usize), LangError> {
    let mut ctx = Ctx::new(program, FRAGMENT_FIRST_LABEL);
    ctx.ops = ops;
    ctx.bind_params(Some(&api.name), &api.params);
    ctx.compile_api(phase_idx, api)?;
    Ok((ctx.ops, ctx.next_label - FRAGMENT_FIRST_LABEL))
}

/// The AVM backend's one refusal: the argument index of
/// `txna ApplicationArgs` is one byte, so a parameter list that runs past
/// index 255 is refused rather than wrapped onto the first arguments.
/// Every API is checked, in declaration order, before the creator.
/// [`emit`] runs this before it generates code, and
/// [`crate::analyze::analyze`] in place of generating it.
///
/// # Errors
///
/// [`LangError::Backend`] naming the first list that is too long.
pub(crate) fn addressable(program: &Program) -> Result<(), LangError> {
    for (_, api) in program.all_apis() {
        addressable_params(Some(&api.name), &api.params)?;
    }
    addressable_params(None, &program.creator.fields)
}

/// [`addressable`] for the parameters of `api` (application arguments
/// 1.., after the method name) or, for `None`, the creator's fields
/// (creation arguments 0..).
fn addressable_params(api: Option<&str>, params: &[(String, Ty)]) -> Result<(), LangError> {
    let limit = 256 - usize::from(api.is_some());
    if params.len() > limit {
        let owner = api.map_or("the creator".to_string(), |name| format!("api {name:?}"));
        return Err(LangError::Backend(format!(
            "{owner} declares {} parameters; the AVM backend addresses at most {limit}",
            params.len()
        )));
    }
    Ok(())
}

struct Ctx<'p> {
    program: &'p Program,
    /// The bound parameters; the first is application argument `base`.
    /// Index 0 is the method name for calls; constructor params start
    /// at 0.
    params: &'p [(String, Ty)],
    base: u8,
    ops: Vec<AvmOp>,
    next_label: usize,
}

/// Compiles a program to an AVM approval program.
///
/// # Errors
///
/// [`LangError::TypeErrors`] when the program fails the type checker;
/// [`LangError::Backend`] on model restrictions: an API or the creator
/// declares more parameters than `txna ApplicationArgs` can index.
pub fn compile(program: &Program) -> Result<CompiledAvm, LangError> {
    crate::check::checked(program)?;
    emit(program, &mut |_, _, _, _| {})
}

/// Reads one API's standalone fragment: the program, then the API's
/// phase, its index in the phase and the API.
pub(crate) type FragmentGate<'g> = dyn FnMut(&AvmProgram, usize, usize, &Api) + 'g;

/// [`compile`] for a program already checked. Each API is generated as a
/// standalone fragment (what [`api_fragment`] returns) that `gate` reads,
/// with the API's phase and index, before its ops are moved in behind the
/// API's dispatch label, their labels renumbered into the program's
/// sequence. `gate` sees the APIs in declaration order.
pub(crate) fn emit(
    program: &Program,
    gate: &mut FragmentGate<'_>,
) -> Result<CompiledAvm, LangError> {
    addressable(program)?;
    let mut ctx = Ctx::new(program, 0);

    // if ApplicationID == 0 -> creation branch
    let create_label = ctx.fresh_label();
    ctx.ops.push(AvmOp::Txn(TxnField::ApplicationId));
    ctx.ops.push(AvmOp::Bz(create_label));

    // ---- Call dispatch: arg0 = method name ----
    let mut api_params = HashMap::new();
    let reject_label = ctx.fresh_label();
    let mut entries = Vec::new();
    let apis = program.phases.iter().enumerate().flat_map(|(phase_idx, phase)| {
        phase.apis.iter().enumerate().map(move |(api_idx, api)| (phase_idx, api_idx, api))
    });
    for (phase_idx, api_idx, api) in apis {
        let label = ctx.fresh_label();
        entries.push((phase_idx, api_idx, api, label));
        api_params.insert(
            api.name.clone(),
            api.params.iter().map(|(n, t)| (n.clone(), *t)).collect::<Vec<_>>(),
        );
    }
    let close_label = ctx.fresh_label();
    // Like the branch below, behind any API of the same name.
    api_params.entry("closeContract".to_string()).or_default();
    for (_, _, api, label) in &entries {
        ctx.ops.push(AvmOp::TxnArg(0));
        ctx.ops.push(AvmOp::PushBytes(api.name.as_bytes().to_vec()));
        ctx.ops.push(AvmOp::Eq);
        ctx.ops.push(AvmOp::Bnz(*label));
    }
    ctx.ops.push(AvmOp::TxnArg(0));
    ctx.ops.push(AvmOp::PushBytes(b"closeContract".to_vec()));
    ctx.ops.push(AvmOp::Eq);
    ctx.ops.push(AvmOp::Bnz(close_label));
    ctx.ops.push(AvmOp::B(reject_label));

    // ---- API bodies ----
    // Moving a fragment's ops into the program empties their buffer, which
    // then holds the next fragment.
    let mut spare = Vec::new();
    for (phase_idx, api_idx, api, label) in entries {
        ctx.ops.push(AvmOp::Label(label));
        let (ops, labels) = fragment(program, phase_idx, api, spare)?;
        let standalone = AvmProgram::new(ops);
        gate(&standalone, phase_idx, api_idx, api);
        let mut ops = standalone.into_ops();
        let shift = ctx.next_label;
        for op in &mut ops {
            if let AvmOp::Label(id) | AvmOp::B(id) | AvmOp::Bz(id) | AvmOp::Bnz(id) = op {
                *id = *id - FRAGMENT_FIRST_LABEL + shift;
            }
        }
        ctx.next_label += labels;
        ctx.ops.append(&mut ops);
        spare = ops;
    }

    // ---- closeContract ----
    ctx.ops.push(AvmOp::Label(close_label));
    ctx.ops.push(AvmOp::PushBytes(KEY_PHASE.to_vec()));
    ctx.ops.push(AvmOp::AppGlobalGet);
    ctx.ops.push(AvmOp::Pop); // presence flag
    ctx.ops.push(AvmOp::PushInt(program.phases.len() as u64));
    ctx.ops.push(AvmOp::Eq);
    ctx.ops.push(AvmOp::Assert);
    // pay app balance to the creator
    ctx.ops.push(AvmOp::PushBytes(KEY_CREATOR.to_vec()));
    ctx.ops.push(AvmOp::AppGlobalGet);
    ctx.ops.push(AvmOp::Pop);
    ctx.ops.push(AvmOp::AppBalance);
    ctx.ops.push(AvmOp::InnerPay);
    ctx.ops.push(AvmOp::PushInt(1));
    ctx.ops.push(AvmOp::Return);

    // ---- reject ----
    ctx.ops.push(AvmOp::Label(reject_label));
    ctx.ops.push(AvmOp::PushInt(0));
    ctx.ops.push(AvmOp::Return);

    // ---- creation branch ----
    ctx.ops.push(AvmOp::Label(create_label));
    ctx.ops.push(AvmOp::PushBytes(KEY_CREATOR.to_vec()));
    ctx.ops.push(AvmOp::Txn(TxnField::Sender));
    ctx.ops.push(AvmOp::AppGlobalPut);
    ctx.ops.push(AvmOp::PushBytes(KEY_PHASE.to_vec()));
    ctx.ops.push(AvmOp::PushInt(0));
    ctx.ops.push(AvmOp::AppGlobalPut);
    ctx.bind_params(None, &program.creator.fields);
    for global in &program.globals {
        ctx.ops.push(AvmOp::PushBytes(global.name.as_bytes().to_vec()));
        match &global.init {
            GlobalInit::Const(c) => ctx.ops.push(AvmOp::PushInt(*c)),
            GlobalInit::CreatorAddress => ctx.ops.push(AvmOp::Txn(TxnField::Sender)),
            GlobalInit::FromField(field) => {
                let ty = program.field_ty(field).expect("checked");
                if matches!(ty, Ty::Bytes(_)) {
                    ctx.emit_bytes(&Expr::Param(field.clone()))?;
                    ctx.ops.push(AvmOp::Keccak256); // store the commitment
                } else {
                    ctx.emit_expr(&Expr::Param(field.clone()))?;
                }
            }
        }
        ctx.ops.push(AvmOp::AppGlobalPut);
    }
    for stmt in &program.constructor {
        ctx.emit_stmt(stmt)?;
    }
    ctx.ops.push(AvmOp::PushInt(1));
    ctx.ops.push(AvmOp::Return);

    Ok(CompiledAvm {
        program: AvmProgram::new(ctx.ops),
        field_tys: program.creator.fields.clone(),
        api_params,
    })
}

impl<'p> Ctx<'p> {
    fn new(program: &'p Program, next_label: usize) -> Ctx<'p> {
        Ctx { program, params: &[], base: 0, ops: Vec::new(), next_label }
    }

    fn fresh_label(&mut self) -> usize {
        self.next_label += 1;
        self.next_label - 1
    }

    /// Binds the parameters of `api` (application arguments 1.., after the
    /// method name) or, for `None`, the creator's fields (creation
    /// arguments 0..). The list has passed [`addressable_params`].
    fn bind_params(&mut self, api: Option<&str>, params: &'p [(String, Ty)]) {
        debug_assert!(addressable_params(api, params).is_ok());
        self.params = params;
        self.base = u8::from(api.is_some());
    }

    /// The argument index and type of the parameter `name`; of repeated
    /// names, the last. Parameter lists are short, so a scan beats
    /// building a map per body.
    fn param(&self, name: &str) -> Result<(u8, Ty), LangError> {
        let pos = self
            .params
            .iter()
            .rposition(|(param, _)| param == name)
            .ok_or_else(|| LangError::Backend(format!("unknown parameter {name:?}")))?;
        let idx = u8::try_from(usize::from(self.base) + pos).expect("the list is addressable");
        Ok((idx, self.params[pos].1))
    }

    fn compile_api(&mut self, phase_idx: usize, api: &Api) -> Result<(), LangError> {
        let phase = &self.program.phases[phase_idx];
        // require _phase == phase_idx
        self.ops.push(AvmOp::PushBytes(KEY_PHASE.to_vec()));
        self.ops.push(AvmOp::AppGlobalGet);
        self.ops.push(AvmOp::Pop);
        self.ops.push(AvmOp::PushInt(phase_idx as u64));
        self.ops.push(AvmOp::Eq);
        self.ops.push(AvmOp::Assert);
        // require while_cond
        self.emit_expr(&phase.while_cond)?;
        self.ops.push(AvmOp::Assert);
        // payment
        match &api.pay {
            Some(pay) => {
                self.emit_expr(pay)?;
                self.ops.push(AvmOp::Txn(TxnField::Amount));
                self.ops.push(AvmOp::Eq);
                self.ops.push(AvmOp::Assert);
            }
            None => {
                self.ops.push(AvmOp::Txn(TxnField::Amount));
                self.ops.push(AvmOp::NotL);
                self.ops.push(AvmOp::Assert);
            }
        }
        for stmt in &api.body {
            self.emit_stmt(stmt)?;
        }
        // phase advance
        let keep = self.fresh_label();
        self.emit_expr(&phase.while_cond)?;
        self.ops.push(AvmOp::Bnz(keep));
        self.ops.push(AvmOp::PushBytes(KEY_PHASE.to_vec()));
        self.ops.push(AvmOp::PushInt(phase_idx as u64 + 1));
        self.ops.push(AvmOp::AppGlobalPut);
        self.ops.push(AvmOp::Label(keep));
        // log the return value and approve
        self.emit_expr(&api.returns)?;
        self.ops.push(AvmOp::Itob);
        self.ops.push(AvmOp::Log);
        self.ops.push(AvmOp::PushInt(1));
        self.ops.push(AvmOp::Return);
        Ok(())
    }

    fn emit_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Require(cond) => {
                self.emit_expr(cond)?;
                self.ops.push(AvmOp::Assert);
                Ok(())
            }
            Stmt::GlobalSet { name, value } => {
                let idx = self.program.global_index(name).expect("checked");
                let ty = self.program.globals[idx].ty;
                self.ops.push(AvmOp::PushBytes(name.as_bytes().to_vec()));
                if matches!(ty, Ty::Bytes(_)) {
                    self.emit_bytes(value)?;
                    self.ops.push(AvmOp::Keccak256);
                } else {
                    self.emit_expr(value)?;
                }
                self.ops.push(AvmOp::AppGlobalPut);
                Ok(())
            }
            Stmt::MapSet { map, key, value } => {
                // box_put(key, keccak(payload)); log payload
                self.emit_box_key(map, key)?;
                self.emit_concat(value)?;
                self.ops.push(AvmOp::Dup);
                self.ops.push(AvmOp::Log);
                self.ops.push(AvmOp::Keccak256);
                self.ops.push(AvmOp::BoxPut);
                Ok(())
            }
            Stmt::MapDelete { map, key } => {
                self.emit_box_key(map, key)?;
                self.ops.push(AvmOp::BoxDel);
                self.ops.push(AvmOp::Pop);
                Ok(())
            }
            Stmt::Transfer { to, amount } => {
                self.emit_bytes(to)?;
                self.emit_expr(amount)?;
                self.ops.push(AvmOp::InnerPay);
                Ok(())
            }
            Stmt::If { cond, then, otherwise } => {
                let else_label = self.fresh_label();
                let end_label = self.fresh_label();
                self.emit_expr(cond)?;
                self.ops.push(AvmOp::Bz(else_label));
                for s in then {
                    self.emit_stmt(s)?;
                }
                self.ops.push(AvmOp::B(end_label));
                self.ops.push(AvmOp::Label(else_label));
                for s in otherwise {
                    self.emit_stmt(s)?;
                }
                self.ops.push(AvmOp::Label(end_label));
                Ok(())
            }
            Stmt::Log(parts) => {
                self.emit_concat(parts)?;
                self.ops.push(AvmOp::Log);
                Ok(())
            }
        }
    }

    /// Pushes the box key for `map[key]`.
    fn emit_box_key(&mut self, map: &str, key: &Expr) -> Result<(), LangError> {
        let mut prefix = map.as_bytes().to_vec();
        prefix.push(b':');
        self.ops.push(AvmOp::PushBytes(prefix));
        self.emit_expr(key)?;
        self.ops.push(AvmOp::Itob);
        self.ops.push(AvmOp::Concat);
        Ok(())
    }

    /// Pushes the concatenation of the parts as one byte string.
    fn emit_concat(&mut self, parts: &[Expr]) -> Result<(), LangError> {
        let mut first = true;
        for part in parts {
            self.emit_bytes(part)?;
            if !first {
                self.ops.push(AvmOp::Concat);
            }
            first = false;
        }
        Ok(())
    }

    /// Emits an expression as a byte string (word values via `itob`).
    fn emit_bytes(&mut self, expr: &Expr) -> Result<(), LangError> {
        match expr {
            Expr::Param(name) => {
                let (idx, ty) = self.param(name)?;
                self.ops.push(AvmOp::TxnArg(idx));
                if !matches!(ty, Ty::Bytes(_) | Ty::Address) {
                    // already raw 8-byte big-endian; keep as bytes
                }
                Ok(())
            }
            Expr::Caller => {
                self.ops.push(AvmOp::Txn(TxnField::Sender));
                Ok(())
            }
            Expr::Global(name) => {
                let idx = self.program.global_index(name).expect("checked");
                let ty = self.program.globals[idx].ty;
                self.ops.push(AvmOp::PushBytes(name.as_bytes().to_vec()));
                self.ops.push(AvmOp::AppGlobalGet);
                self.ops.push(AvmOp::Pop);
                if ty == Ty::UInt || ty == Ty::Bool {
                    self.ops.push(AvmOp::Itob);
                }
                Ok(())
            }
            Expr::Hash(_) | Expr::MapGet { .. } => self.emit_expr(expr),
            word => {
                self.emit_expr(word)?;
                self.ops.push(AvmOp::Itob);
                Ok(())
            }
        }
    }

    /// Emits an expression in its natural stack type.
    fn emit_expr(&mut self, expr: &Expr) -> Result<(), LangError> {
        match expr {
            Expr::UInt(v) => {
                self.ops.push(AvmOp::PushInt(*v));
                Ok(())
            }
            Expr::Param(name) => {
                let (idx, ty) = self.param(name)?;
                self.ops.push(AvmOp::TxnArg(idx));
                match ty {
                    Ty::UInt | Ty::Bool => self.ops.push(AvmOp::Btoi),
                    Ty::Address | Ty::Bytes(_) => {}
                }
                Ok(())
            }
            Expr::Global(name) => {
                self.ops.push(AvmOp::PushBytes(name.as_bytes().to_vec()));
                self.ops.push(AvmOp::AppGlobalGet);
                self.ops.push(AvmOp::Pop);
                Ok(())
            }
            Expr::Caller => {
                self.ops.push(AvmOp::Txn(TxnField::Sender));
                Ok(())
            }
            Expr::Balance => {
                self.ops.push(AvmOp::AppBalance);
                Ok(())
            }
            Expr::MapGet { map, key } => {
                self.emit_box_key(map, key)?;
                self.ops.push(AvmOp::BoxGet);
                self.ops.push(AvmOp::Pop); // presence flag; absent = empty bytes
                Ok(())
            }
            Expr::MapContains { map, key } => {
                self.emit_box_key(map, key)?;
                self.ops.push(AvmOp::BoxGet);
                self.ops.push(AvmOp::Swap);
                self.ops.push(AvmOp::Pop); // drop value, keep flag
                Ok(())
            }
            Expr::Hash(parts) => {
                self.emit_concat(parts)?;
                self.ops.push(AvmOp::Keccak256);
                Ok(())
            }
            Expr::Bin(op, lhs, rhs) => {
                self.emit_expr(lhs)?;
                self.emit_expr(rhs)?;
                self.ops.push(match op {
                    BinOp::Add => AvmOp::Add,
                    BinOp::Sub => AvmOp::Sub,
                    BinOp::Mul => AvmOp::Mul,
                    BinOp::Div => AvmOp::Div,
                    BinOp::Lt => AvmOp::Lt,
                    BinOp::Gt => AvmOp::Gt,
                    BinOp::Le => AvmOp::Le,
                    BinOp::Ge => AvmOp::Ge,
                    BinOp::Eq => AvmOp::Eq,
                    BinOp::Ne => AvmOp::Ne,
                    BinOp::And => AvmOp::AndL,
                    BinOp::Or => AvmOp::OrL,
                });
                Ok(())
            }
            Expr::Not(inner) => {
                self.emit_expr(inner)?;
                self.ops.push(AvmOp::NotL);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_avm::{AppCallParams, Avm, TealValue};
    use pol_ledger::Address;

    fn create(
        program: &Program,
        args: &[AbiValue],
    ) -> (Avm, u64, CompiledAvm, pol_avm::interpreter::Balances) {
        let compiled = compile(program).unwrap();
        let mut avm = Avm::new();
        let mut balances = pol_avm::interpreter::Balances::new();
        let creator = Address([0xaa; 20]);
        balances.insert(creator, 10_000_000);
        let app_id = avm
            .create_app_with_args(
                creator,
                compiled.program.clone(),
                compiled.encode_create_args(args).unwrap(),
                &mut balances,
            )
            .unwrap();
        (avm, app_id, compiled, balances)
    }

    #[test]
    fn counter_creation_sets_globals() {
        let program = Program::counter_example();
        let (avm, app_id, _, _) = create(&program, &[AbiValue::Word(3)]);
        assert_eq!(avm.global(app_id, b"remaining"), Some(TealValue::Uint(3)));
        assert_eq!(avm.global(app_id, b"count"), Some(TealValue::Uint(0)));
        assert_eq!(avm.global(app_id, b"_phase"), Some(TealValue::Uint(0)));
    }

    #[test]
    fn counter_bump_and_phase_end() {
        let program = Program::counter_example();
        let (mut avm, app_id, compiled, mut balances) = create(&program, &[AbiValue::Word(2)]);
        let caller = Address([1; 20]);
        for expected_remaining in [1u64, 0] {
            let out = avm
                .call(
                    AppCallParams::new(caller, app_id)
                        .with_args(compiled.encode_call("bump", &[AbiValue::Word(4)]).unwrap()),
                    &mut balances,
                )
                .unwrap();
            assert!(out.approved);
            assert_eq!(out.logs[0], expected_remaining.to_be_bytes().to_vec());
        }
        // Phase over.
        let out = avm
            .call(
                AppCallParams::new(caller, app_id)
                    .with_args(compiled.encode_call("bump", &[AbiValue::Word(1)]).unwrap()),
                &mut balances,
            )
            .unwrap();
        assert!(!out.approved);
        assert_eq!(avm.global(app_id, b"count"), Some(TealValue::Uint(8)));
        assert_eq!(avm.global(app_id, b"_phase"), Some(TealValue::Uint(1)));
    }

    #[test]
    fn close_drains_to_creator() {
        let program = Program::counter_example();
        let (mut avm, app_id, compiled, mut balances) = create(&program, &[AbiValue::Word(1)]);
        let caller = Address([1; 20]);
        let out = avm
            .call(
                AppCallParams::new(caller, app_id)
                    .with_args(compiled.encode_call("bump", &[AbiValue::Word(1)]).unwrap()),
                &mut balances,
            )
            .unwrap();
        assert!(out.approved);
        // Fund the app account, then close.
        let app_addr = Avm::app_address(app_id);
        balances.insert(app_addr, 5_000);
        let creator = Address([0xaa; 20]);
        let before = balances[&creator];
        let out = avm
            .call(
                AppCallParams::new(caller, app_id)
                    .with_args(compiled.encode_call("closeContract", &[]).unwrap()),
                &mut balances,
            )
            .unwrap();
        assert!(out.approved, "{out:?}");
        assert_eq!(balances[&app_addr], 0);
        assert_eq!(balances[&creator], before + 5_000);
    }

    #[test]
    fn unknown_method_rejected() {
        let program = Program::counter_example();
        let (mut avm, app_id, _, mut balances) = create(&program, &[AbiValue::Word(1)]);
        let out = avm
            .call(
                AppCallParams::new(Address([1; 20]), app_id).with_args(vec![b"nonsense".to_vec()]),
                &mut balances,
            )
            .unwrap();
        assert!(!out.approved);
    }

    /// A contract whose creator has `fields` fields and whose one API has
    /// `params` parameters and adds the first to the last.
    fn wide(fields: usize, params: usize) -> Program {
        let list = |prefix: &str, n: usize| {
            (0..n).map(|i| format!("{prefix}{i}: uint")).collect::<Vec<_>>().join(", ")
        };
        crate::parse(&format!(
            "contract wide {{ participant Creator {{ {} }}
             global open: uint = field(c{}) view; global acc: uint = 0 view;
             phase live while open > 0 invariant open >= 0 {{
                 api f({}) -> acc {{ acc = p0 + p{}; }}
             }} }}",
            list("c", fields),
            fields - 1,
            list("p", params),
            params - 1
        ))
        .unwrap()
    }

    fn backend_error<T: std::fmt::Debug>(result: Result<T, LangError>) -> String {
        match result {
            Err(LangError::Backend(message)) => message,
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    /// Index 0 is the method name, so 255 parameters reach the last index
    /// one byte can hold; creation arguments start at 0.
    #[test]
    fn last_addressable_argument_is_255() {
        let program = wide(1, 255);
        let ops = compile(&program).unwrap().program.ops().to_vec();
        assert!(ops.contains(&AvmOp::TxnArg(1)) && ops.contains(&AvmOp::TxnArg(255)));
        assert!(crate::backend::compile(&program).is_ok());
        let ops = compile(&wide(256, 1)).unwrap().program.ops().to_vec();
        assert!(ops.contains(&AvmOp::TxnArg(255)));
    }

    /// A word past 2⁶⁴ is itself on the EVM; truncating it here would give
    /// one source two meanings.
    #[test]
    fn word_argument_past_u64_is_refused() {
        let compiled = compile(&Program::counter_example()).unwrap();
        let wide = [AbiValue::Word((1u128 << 64) + 5)];
        for message in [
            backend_error(compiled.encode_call("bump", &wide)),
            backend_error(compiled.encode_create_args(&wide)),
        ] {
            assert!(message.contains("uint64"), "{message}");
        }
        let max = AbiValue::Word(u128::from(u64::MAX));
        assert_eq!(compiled.encode_call("bump", &[max]).unwrap()[1], [0xff; 8]);
    }

    /// `p256` must not alias `ApplicationArgs 1` (release) or overflow the
    /// index (debug): every entry point refuses the program.
    #[test]
    fn api_with_260_parameters_is_refused() {
        let program = wide(1, 260);
        let api = &program.phases[0].apis[0];
        for message in [
            backend_error(compile(&program)),
            backend_error(api_fragment(&program, 0, api)),
            backend_error(crate::backend::compile(&program)),
            backend_error(crate::analyze::analyze(&program)),
        ] {
            assert!(message.contains("api \"f\"") && message.contains("255"), "{message}");
        }
    }

    #[test]
    fn creator_with_260_fields_is_refused() {
        let program = wide(260, 1);
        for message in [
            backend_error(compile(&program)),
            backend_error(crate::backend::compile(&program)),
            backend_error(crate::analyze::analyze(&program)),
        ] {
            assert!(message.contains("the creator") && message.contains("256"), "{message}");
        }
    }

    /// `analyze` runs the refusal rule in place of emitting the program;
    /// it must refuse exactly what `compile` refuses, with its words.
    #[test]
    fn analyze_and_compile_agree_on_refusal() {
        for (fields, params) in [(1, 255), (1, 256), (256, 1), (257, 1), (1, 260), (260, 1)] {
            let program = wide(fields, params);
            let verdict = |result: Result<(), LangError>| result.map_err(|e| e.to_string());
            let compiled = verdict(compile(&program).map(drop));
            assert_eq!(verdict(crate::analyze::analyze(&program).map(drop)), compiled);
            assert_eq!(compiled.is_ok(), params <= 255 && fields <= 256, "{fields}/{params}");
        }
    }

    #[test]
    fn teal_listing_renders() {
        let compiled = compile(&Program::counter_example()).unwrap();
        let teal = compiled.teal();
        assert!(teal.contains("txn ApplicationID"));
        assert!(teal.contains("app_global_put"));
    }
}
