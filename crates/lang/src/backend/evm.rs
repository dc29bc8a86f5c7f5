//! The EVM code generator.
//!
//! Storage model (the Reach state-commitment layout that keeps call gas
//! low — see DESIGN.md):
//!
//! * slot 0 — the phase counter;
//! * slot 1 — the creator (deployer) address;
//! * slots 2… — globals in declaration order (byte-typed globals hold the
//!   Keccak-256 commitment of their payload);
//! * map entries — `keccak(key ‖ 0x1000+map_index)` holds the commitment
//!   of the concatenated payload; the raw payload is emitted as a LOG so
//!   clients (and the explorer) can recover it and check it against the
//!   commitment.
//!
//! Deployment follows the real `CREATE` protocol: the init code runs the
//! constructor (reading its arguments from the code tail via `CODECOPY`)
//! and returns the runtime image.

use crate::access::MethodKind;
use crate::ast::{Api, BinOp, Expr, GlobalInit, Program, Stmt, Ty};
use crate::backend::AbiValue;
use crate::LangError;
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_evm::word::Word;
use std::collections::HashMap;

/// Reserved storage slots before the globals.
pub(crate) const SLOT_PHASE: u64 = 0;
/// Slot holding the creator's address.
pub(crate) const SLOT_CREATOR: u64 = 1;
/// First slot assigned to declared globals (in declaration order).
pub(crate) const GLOBAL_SLOT_BASE: u64 = 2;
/// Base constant mixed into map-slot derivation.
pub(crate) const MAP_SLOT_BASE: u64 = 0x1000;

/// The storage slot assigned to the `idx`-th declared global.
pub(crate) fn global_slot(idx: usize) -> u64 {
    GLOBAL_SLOT_BASE + idx as u64
}
/// Memory scratch area for slot derivation.
const SCRATCH: u64 = 0x00;
/// Memory base for staging byte payloads.
const STAGING: u64 = 0x80;

/// Padding appended to the runtime image, emulating the size of the
/// runtime library the production Reach compiler links into every
/// contract (dead code behind a terminal revert; never executed). The
/// chain charges its code deposit, so the pad sizes the deployment fee
/// the simulated contract pays.
pub(crate) const DEFAULT_RUNTIME_PAD: usize = 4096;

/// The compiled EVM artifact.
#[derive(Debug, Clone)]
pub struct CompiledEvm {
    /// Init code *without* constructor arguments appended.
    pub init_code: Vec<u8>,
    /// Length of the runtime image (deposit gas = 200 × this).
    pub runtime_len: usize,
    /// Dispatch selectors per API (plus `closeContract` and views).
    pub selectors: HashMap<String, [u8; 4]>,
    /// Constructor field layout `(name, ty, offset, padded_len)`.
    field_layout: Vec<(String, Ty, usize, usize)>,
    /// Per-API parameter layout.
    param_layouts: HashMap<String, Vec<(String, Ty, usize, usize)>>,
}

impl CompiledEvm {
    /// Produces the full deployment payload: init code with the encoded
    /// constructor arguments appended.
    ///
    /// # Errors
    ///
    /// [`LangError::Backend`] when argument count or types mismatch.
    pub fn init_with_args(&self, args: &[AbiValue]) -> Result<Vec<u8>, LangError> {
        let mut out = self.init_code.clone();
        out.extend(encode_values(&self.field_layout, args)?);
        Ok(out)
    }

    /// Encodes a call to `api` with the given arguments.
    ///
    /// # Errors
    ///
    /// [`LangError::Backend`] for unknown APIs or argument mismatches.
    pub fn encode_call(&self, api: &str, args: &[AbiValue]) -> Result<Vec<u8>, LangError> {
        let selector = self
            .selectors
            .get(api)
            .ok_or_else(|| LangError::Backend(format!("unknown api {api:?}")))?;
        let layout = self
            .param_layouts
            .get(api)
            .ok_or_else(|| LangError::Backend(format!("unknown api {api:?}")))?;
        let mut out = selector.to_vec();
        out.extend(encode_values(layout, args)?);
        Ok(out)
    }
}

fn encode_values(
    layout: &[(String, Ty, usize, usize)],
    args: &[AbiValue],
) -> Result<Vec<u8>, LangError> {
    if layout.len() != args.len() {
        return Err(LangError::Backend(format!(
            "expected {} arguments, got {}",
            layout.len(),
            args.len()
        )));
    }
    let total: usize = layout.iter().map(|(_, _, _, len)| len).sum();
    let mut out = vec![0u8; total];
    for ((name, ty, off, len), value) in layout.iter().zip(args) {
        if !value.matches(ty) {
            return Err(LangError::Backend(format!("argument {name:?} does not match {ty:?}")));
        }
        match value {
            AbiValue::Word(w) => {
                out[*off..off + 32].copy_from_slice(&Word::from_u128(*w).to_be_bytes());
            }
            AbiValue::Address(a) => {
                out[*off..off + 32].copy_from_slice(&Word::from(*a).to_be_bytes());
            }
            AbiValue::Bytes(b) => {
                out[*off..off + b.len()].copy_from_slice(b);
            }
        }
        let _ = len;
    }
    Ok(out)
}

/// Where an API's byte parameters live at run time.
#[derive(Clone, Copy)]
enum ParamSource {
    /// Message-call parameters (after the 4-byte selector).
    CallData,
    /// Constructor arguments in the code tail, at this base offset.
    Code(usize),
}

/// Per-function compilation context.
struct Ctx<'p> {
    program: &'p Program,
    source: ParamSource,
    /// name → (ty, offset within the args area, padded length).
    params: HashMap<&'p str, (Ty, usize, usize)>,
    asm: Asm,
    revert_label: pol_evm::assembler::Label,
    staging_top: u64,
}

/// Computes the `(name, ty, offset, padded_len)` layout for a parameter
/// or field list (offsets relative to the start of the argument area).
pub(crate) fn layout(params: &[(String, Ty)]) -> Vec<(String, Ty, usize, usize)> {
    layout_iter(params).map(|(name, ty, off, len)| (name.to_string(), ty, off, len)).collect()
}

/// [`layout`], borrowing the names.
pub(crate) fn layout_iter(
    params: &[(String, Ty)],
) -> impl Iterator<Item = (&str, Ty, usize, usize)> {
    let mut off = 0usize;
    params.iter().map(move |(name, ty)| {
        let len = match ty {
            Ty::Bytes(cap) => cap.div_ceil(32) * 32,
            _ => 32,
        };
        off += len;
        (name.as_str(), *ty, off - len, len)
    })
}

/// The canonical signature used for selector derivation.
pub(crate) fn signature(name: &str, params: &[(String, Ty)]) -> String {
    let tys: Vec<String> = params
        .iter()
        .map(|(_, ty)| match ty {
            Ty::UInt => "uint256".to_string(),
            Ty::Bool => "bool".to_string(),
            Ty::Address => "address".to_string(),
            Ty::Bytes(n) => format!("bytes{n}"),
        })
        .collect();
    format!("{name}({})", tys.join(","))
}

/// Where one entry of the runtime dispatcher leads.
pub(crate) enum DispatchTarget<'p> {
    /// The phase API `api`, which is `program.phases[phase].apis[api_idx]`.
    Api { phase: usize, api_idx: usize, api: &'p Api },
    /// The generated read-only accessor of `program.globals[global]`.
    View { global: usize },
    /// The generated `closeContract`.
    Close,
}

/// One dispatchable method: what the runtime dispatcher probes for.
pub(crate) struct DispatchEntry<'p> {
    /// Dispatch name (`put`, `view_open`, `closeContract`, …).
    pub name: String,
    /// The four-byte selector derived from the name and parameter types.
    pub selector: [u8; 4],
    /// What the entry runs.
    pub target: DispatchTarget<'p>,
}

impl<'p> DispatchEntry<'p> {
    /// The declared parameters (views and `closeContract` take none).
    pub(crate) fn params(&self) -> &'p [(String, Ty)] {
        match self.target {
            DispatchTarget::Api { api, .. } => &api.params,
            DispatchTarget::View { .. } | DispatchTarget::Close => &[],
        }
    }

    /// The entry's kind and, for APIs, its phase's name — as the
    /// published summaries and certificates label it.
    pub(crate) fn kind_and_phase(&self, program: &Program) -> (MethodKind, Option<String>) {
        match self.target {
            DispatchTarget::Api { phase, .. } => {
                (MethodKind::Api, Some(program.phases[phase].name.clone()))
            }
            DispatchTarget::View { .. } => (MethodKind::View, None),
            DispatchTarget::Close => (MethodKind::Close, None),
        }
    }
}

/// The method table: every dispatchable entry in the order the runtime
/// dispatcher probes them — phase APIs, `view_<global>` for viewable
/// globals, `closeContract`. The code generator, the access summaries
/// and the gas certificates all enumerate methods through this.
pub(crate) fn dispatch_table(program: &Program) -> Vec<DispatchEntry<'_>> {
    let entry = |name: String, params: &[(String, Ty)], target| {
        let selector = pol_evm::abi::selector(&signature(&name, params));
        DispatchEntry { name, selector, target }
    };
    let apis = program.phases.iter().enumerate().flat_map(|(phase, decl)| {
        decl.apis.iter().enumerate().map(move |(api_idx, api)| {
            entry(api.name.clone(), &api.params, DispatchTarget::Api { phase, api_idx, api })
        })
    });
    let views =
        program.globals.iter().enumerate().filter(|(_, g)| g.viewable).map(|(global, decl)| {
            entry(format!("view_{}", decl.name), &[], DispatchTarget::View { global })
        });
    let close = entry("closeContract".into(), &[], DispatchTarget::Close);
    apis.chain(views).chain(std::iter::once(close)).collect()
}

/// Compiles a program to EVM bytecode with the default runtime pad.
///
/// # Errors
///
/// [`LangError::TypeErrors`] when the program fails the type checker;
/// [`LangError::Backend`] on model restrictions (e.g. byte values used in
/// word context — normally excluded by the type checker).
pub fn compile(program: &Program) -> Result<CompiledEvm, LangError> {
    compile_with_pad(program, DEFAULT_RUNTIME_PAD)
}

/// Compiles with an explicit runtime pad. Only tests call it: to run
/// unpadded bytecode, and to check that the pad lands in the runtime
/// image alone.
///
/// # Errors
///
/// As for [`compile`].
pub fn compile_with_pad(program: &Program, runtime_pad: usize) -> Result<CompiledEvm, LangError> {
    crate::check::checked(program)?;
    emit(program, &dispatch_table(program), runtime_pad)
}

/// [`compile_with_pad`] for a program already checked, over its
/// [`dispatch_table`].
pub(crate) fn emit(
    program: &Program,
    table: &[DispatchEntry<'_>],
    runtime_pad: usize,
) -> Result<CompiledEvm, LangError> {
    let mut selectors = HashMap::new();
    let mut param_layouts = HashMap::new();

    // ---- Runtime image ----
    let mut asm = Asm::new();
    let revert_label = asm.new_label();

    // selector = calldata[0..4]: CALLDATALOAD(0) / 2^224
    asm = asm.push_u64(0).op(Op::CallDataLoad);
    let mut shift = [0u8; 29];
    shift[0] = 1;
    asm = asm.push_bytes(&shift).swap(1).op(Op::Div);

    // Dispatch table.
    let mut labels = Vec::with_capacity(table.len());
    for entry in table {
        selectors.insert(entry.name.clone(), entry.selector);
        param_layouts.insert(entry.name.clone(), layout(entry.params()));
        let label = asm.new_label();
        labels.push(label);
        asm =
            asm.op(Op::Dup1).push_bytes(&entry.selector).op(Op::Eq).push_label(label).op(Op::JumpI);
    }
    // Unknown selector: revert.
    asm = asm.jump(revert_label);

    // Function bodies.
    for (entry, label) in table.iter().zip(labels) {
        asm = asm.bind(label).op(Op::Pop); // discard selector copy
        match entry.target {
            DispatchTarget::View { global } => {
                asm = asm
                    .push_u64(global_slot(global))
                    .op(Op::SLoad)
                    .push_u64(0)
                    .op(Op::MStore)
                    .push_u64(32)
                    .push_u64(0)
                    .op(Op::Return);
            }
            DispatchTarget::Close => {
                let n_phases = program.phases.len() as u64;
                // require phase == n_phases
                asm = asm
                    .push_u64(SLOT_PHASE)
                    .op(Op::SLoad)
                    .push_u64(n_phases)
                    .op(Op::Eq)
                    .op(Op::IsZero)
                    .push_label(revert_label)
                    .op(Op::JumpI);
                // transfer self balance to creator
                asm = asm
                    .push_u64(0) // out_size
                    .push_u64(0) // out_off
                    .push_u64(0) // in_size
                    .push_u64(0) // in_off
                    .op(Op::SelfBalance) // value
                    .push_u64(SLOT_CREATOR)
                    .op(Op::SLoad) // to
                    .push_u64(0) // gas
                    .op(Op::Call)
                    .op(Op::Pop)
                    .op(Op::Stop);
            }
            DispatchTarget::Api { phase, api, .. } => {
                let mut ctx =
                    Ctx::new(program, ParamSource::CallData, &api.params, asm, revert_label);
                ctx.compile_api(phase, api)?;
                asm = ctx.asm;
            }
        }
    }

    // Terminal revert.
    asm = asm.bind(revert_label).push_u64(0).push_u64(0).op(Op::Revert);
    let mut runtime = asm.build();
    // Runtime-library pad (never reached; behind the terminal revert).
    runtime.extend(std::iter::repeat_n(0xfeu8, runtime_pad));
    let runtime_len = runtime.len();

    // ---- Constructor (two-pass for the args offset) ----
    let field_layout = layout(&program.creator.fields);
    let constructor_len = emit_constructor(program, &field_layout, 0)?.len();
    let args_off = constructor_len + pol_evm::assembler::DEPLOY_WRAPPER_LEN + runtime_len;
    let constructor = emit_constructor(program, &field_layout, args_off)?;
    debug_assert_eq!(constructor.len(), constructor_len);
    let init_code = Asm::initcode(&constructor, &runtime);

    Ok(CompiledEvm { init_code, runtime_len, selectors, field_layout, param_layouts })
}

fn emit_constructor(
    program: &Program,
    field_layout: &[(String, Ty, usize, usize)],
    args_off: usize,
) -> Result<Vec<u8>, LangError> {
    let mut asm = Asm::new();
    let revert_label = asm.new_label();
    // _creator = CALLER
    asm = asm.op(Op::Caller).push_u64(SLOT_CREATOR).op(Op::SStore);
    let fields = &program.creator.fields;
    let mut ctx = Ctx::new(program, ParamSource::Code(args_off), fields, asm, revert_label);
    let _ = field_layout;

    // Globals.
    for (i, global) in program.globals.iter().enumerate() {
        let slot = GLOBAL_SLOT_BASE + i as u64;
        match &global.init {
            GlobalInit::Const(0) => {}
            GlobalInit::Const(c) => {
                ctx.asm = std::mem::take(&mut ctx.asm).push_u64(*c).push_u64(slot).op(Op::SStore);
            }
            GlobalInit::CreatorAddress => {
                ctx.asm = std::mem::take(&mut ctx.asm).op(Op::Caller).push_u64(slot).op(Op::SStore);
            }
            GlobalInit::FromField(field) => {
                let ty = program.field_ty(field).expect("checked");
                if ty.is_word() {
                    ctx.emit_expr(&Expr::Param(field.clone()))?;
                } else {
                    // Commit the byte payload.
                    ctx.emit_expr(&Expr::Hash(vec![Expr::Param(field.clone())]))?;
                }
                ctx.asm = std::mem::take(&mut ctx.asm).push_u64(slot).op(Op::SStore);
            }
        }
    }
    // Constructor body.
    for stmt in &program.constructor {
        ctx.emit_stmt(stmt)?;
    }
    // Jump over the terminal revert into the deploy wrapper that follows.
    let done = ctx.asm.new_label();
    ctx.asm = std::mem::take(&mut ctx.asm).jump(done);
    ctx.asm =
        std::mem::take(&mut ctx.asm).bind(revert_label).push_u64(0).push_u64(0).op(Op::Revert);
    ctx.asm = std::mem::take(&mut ctx.asm).bind(done);
    Ok(ctx.asm.build())
}

impl<'p> Ctx<'p> {
    fn new(
        program: &'p Program,
        source: ParamSource,
        params: &'p [(String, Ty)],
        asm: Asm,
        revert_label: pol_evm::assembler::Label,
    ) -> Ctx<'p> {
        let mut map = HashMap::with_capacity(params.len());
        for (name, ty, off, len) in layout_iter(params) {
            map.insert(name, (ty, off, len));
        }
        let staging_top = STAGING + map.values().map(|(_, _, len)| *len as u64).sum::<u64>();
        Ctx { program, source, params: map, asm, revert_label, staging_top }
    }

    fn compile_api(&mut self, phase_idx: usize, api: &Api) -> Result<(), LangError> {
        let phase = &self.program.phases[phase_idx];
        // require _phase == phase_idx
        self.asm = std::mem::take(&mut self.asm)
            .push_u64(SLOT_PHASE)
            .op(Op::SLoad)
            .push_u64(phase_idx as u64)
            .op(Op::Eq);
        self.require_top()?;
        // require while_cond
        self.emit_expr(&phase.while_cond)?;
        self.require_top()?;
        // payment check
        match &api.pay {
            Some(pay) => {
                self.emit_expr(pay)?;
                self.asm = std::mem::take(&mut self.asm).op(Op::CallValue).op(Op::Eq);
                self.require_top()?;
            }
            None => {
                self.asm = std::mem::take(&mut self.asm).op(Op::CallValue).op(Op::IsZero);
                self.require_top()?;
            }
        }
        for stmt in &api.body {
            self.emit_stmt(stmt)?;
        }
        // Phase advance: if !while_cond { _phase += 1 }
        let keep = self.asm.new_label();
        self.emit_expr(&phase.while_cond)?;
        self.asm = std::mem::take(&mut self.asm).push_label(keep).op(Op::JumpI);
        self.asm = std::mem::take(&mut self.asm)
            .push_u64(SLOT_PHASE)
            .op(Op::SLoad)
            .push_u64(1)
            .op(Op::Add)
            .push_u64(SLOT_PHASE)
            .op(Op::SStore);
        self.asm = std::mem::take(&mut self.asm).bind(keep);
        // Return value.
        self.emit_expr(&api.returns)?;
        self.asm = std::mem::take(&mut self.asm)
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return);
        Ok(())
    }

    /// Consumes the boolean on top of the stack, reverting when zero.
    fn require_top(&mut self) -> Result<(), LangError> {
        self.asm = std::mem::take(&mut self.asm)
            .op(Op::IsZero)
            .push_label(self.revert_label)
            .op(Op::JumpI);
        Ok(())
    }

    fn emit_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Require(cond) => {
                self.emit_expr(cond)?;
                self.require_top()
            }
            Stmt::GlobalSet { name, value } => {
                let idx = self.program.global_index(name).expect("checked");
                let global = &self.program.globals[idx];
                if global.ty.is_word() {
                    self.emit_expr(value)?;
                } else {
                    self.emit_expr(&Expr::Hash(vec![value.clone()]))?;
                }
                self.asm = std::mem::take(&mut self.asm)
                    .push_u64(GLOBAL_SLOT_BASE + idx as u64)
                    .op(Op::SStore);
                Ok(())
            }
            Stmt::MapSet { map, key, value } => {
                // commitment = keccak(staged value)
                let (base, len) = self.stage(value)?;
                self.asm =
                    std::mem::take(&mut self.asm).push_u64(len).push_u64(base).op(Op::Keccak256);
                self.emit_map_slot(map, key)?;
                self.asm = std::mem::take(&mut self.asm).op(Op::SStore);
                // LOG1 raw payload with the key as topic (stack top-down:
                // offset, size, topic — the interpreter's pop order).
                self.emit_expr(key)?;
                self.asm = std::mem::take(&mut self.asm).push_u64(len).push_u64(base).op(Op::Log1);
                Ok(())
            }
            Stmt::MapDelete { map, key } => {
                self.asm = std::mem::take(&mut self.asm).push_u64(0);
                self.emit_map_slot(map, key)?;
                self.asm = std::mem::take(&mut self.asm).op(Op::SStore);
                Ok(())
            }
            Stmt::Transfer { to, amount } => {
                self.asm =
                    std::mem::take(&mut self.asm).push_u64(0).push_u64(0).push_u64(0).push_u64(0);
                self.emit_expr(amount)?;
                self.emit_expr(to)?;
                self.asm = std::mem::take(&mut self.asm).push_u64(0).op(Op::Call).op(Op::Pop);
                Ok(())
            }
            Stmt::If { cond, then, otherwise } => {
                let else_label = self.asm.new_label();
                let end_label = self.asm.new_label();
                self.emit_expr(cond)?;
                self.asm = std::mem::take(&mut self.asm)
                    .op(Op::IsZero)
                    .push_label(else_label)
                    .op(Op::JumpI);
                for s in then {
                    self.emit_stmt(s)?;
                }
                self.asm = std::mem::take(&mut self.asm).jump(end_label).bind(else_label);
                for s in otherwise {
                    self.emit_stmt(s)?;
                }
                self.asm = std::mem::take(&mut self.asm).bind(end_label);
                Ok(())
            }
            Stmt::Log(parts) => {
                let (base, len) = self.stage(parts)?;
                self.asm = std::mem::take(&mut self.asm).push_u64(len).push_u64(base).op(Op::Log0);
                Ok(())
            }
        }
    }

    /// Computes the storage slot for `map[key]`, leaving it on the stack.
    fn emit_map_slot(&mut self, map: &str, key: &Expr) -> Result<(), LangError> {
        let idx = self.program.map_index(map).expect("checked") as u64;
        self.emit_expr(key)?;
        self.asm = std::mem::take(&mut self.asm)
            .push_u64(SCRATCH)
            .op(Op::MStore)
            .push_u64(MAP_SLOT_BASE + idx)
            .push_u64(SCRATCH + 32)
            .op(Op::MStore)
            .push_u64(64)
            .push_u64(SCRATCH)
            .op(Op::Keccak256);
        Ok(())
    }

    /// Stages a list of expressions contiguously in memory, returning
    /// `(base, total_len)`.
    fn stage(&mut self, parts: &[Expr]) -> Result<(u64, u64), LangError> {
        let base = self.staging_top;
        let mut cursor = base;
        for part in parts {
            match part {
                Expr::Param(name) if !self.param_ty(name)?.is_word() => {
                    let (_, off, len) = self.params[name.as_str()];
                    match self.source {
                        ParamSource::CallData => {
                            self.asm = std::mem::take(&mut self.asm)
                                .push_u64(len as u64)
                                .push_u64(4 + off as u64)
                                .push_u64(cursor)
                                .op(Op::CallDataCopy);
                        }
                        ParamSource::Code(args_off) => {
                            // Fixed-width push: the constructor is sized
                            // before the final args offset is known.
                            self.asm = std::mem::take(&mut self.asm)
                                .push_u64(len as u64)
                                .push_bytes(&((args_off + off) as u32).to_be_bytes())
                                .push_u64(cursor)
                                .op(Op::CodeCopy);
                        }
                    }
                    cursor += len as u64;
                }
                word_expr => {
                    self.emit_expr(word_expr)?;
                    self.asm = std::mem::take(&mut self.asm).push_u64(cursor).op(Op::MStore);
                    cursor += 32;
                }
            }
        }
        Ok((base, cursor - base))
    }

    fn param_ty(&self, name: &str) -> Result<Ty, LangError> {
        self.params
            .get(name)
            .map(|(ty, _, _)| *ty)
            .ok_or_else(|| LangError::Backend(format!("unknown parameter {name:?}")))
    }

    fn emit_expr(&mut self, expr: &Expr) -> Result<(), LangError> {
        match expr {
            Expr::UInt(v) => {
                self.asm = std::mem::take(&mut self.asm).push_u64(*v);
                Ok(())
            }
            Expr::Param(name) => {
                let (ty, off, _) = *self
                    .params
                    .get(name.as_str())
                    .ok_or_else(|| LangError::Backend(format!("unknown parameter {name:?}")))?;
                if !ty.is_word() {
                    return Err(LangError::Backend(format!(
                        "byte parameter {name:?} used in word context"
                    )));
                }
                match self.source {
                    ParamSource::CallData => {
                        self.asm = std::mem::take(&mut self.asm)
                            .push_u64(4 + off as u64)
                            .op(Op::CallDataLoad);
                    }
                    ParamSource::Code(args_off) => {
                        // CODECOPY to scratch, then MLOAD; fixed-width
                        // push so both sizing passes agree.
                        self.asm = std::mem::take(&mut self.asm)
                            .push_u64(32)
                            .push_bytes(&((args_off + off) as u32).to_be_bytes())
                            .push_u64(SCRATCH)
                            .op(Op::CodeCopy)
                            .push_u64(SCRATCH)
                            .op(Op::MLoad);
                    }
                }
                Ok(())
            }
            Expr::Global(name) => {
                let idx = self.program.global_index(name).expect("checked");
                self.asm = std::mem::take(&mut self.asm)
                    .push_u64(GLOBAL_SLOT_BASE + idx as u64)
                    .op(Op::SLoad);
                Ok(())
            }
            Expr::Caller => {
                self.asm = std::mem::take(&mut self.asm).op(Op::Caller);
                Ok(())
            }
            Expr::Balance => {
                self.asm = std::mem::take(&mut self.asm).op(Op::SelfBalance);
                Ok(())
            }
            Expr::MapGet { map, key } => {
                self.emit_map_slot(map, key)?;
                self.asm = std::mem::take(&mut self.asm).op(Op::SLoad);
                Ok(())
            }
            Expr::MapContains { map, key } => {
                self.emit_map_slot(map, key)?;
                self.asm =
                    std::mem::take(&mut self.asm).op(Op::SLoad).op(Op::IsZero).op(Op::IsZero);
                Ok(())
            }
            Expr::Hash(parts) => {
                let (base, len) = self.stage(parts)?;
                self.asm =
                    std::mem::take(&mut self.asm).push_u64(len).push_u64(base).op(Op::Keccak256);
                Ok(())
            }
            Expr::Bin(op, lhs, rhs) => {
                // Emit right then left so the left operand is on top,
                // matching the interpreter's pop order.
                self.emit_expr(rhs)?;
                self.emit_expr(lhs)?;
                let asm = std::mem::take(&mut self.asm);
                self.asm = match op {
                    BinOp::Add => asm.op(Op::Add),
                    BinOp::Sub => asm.op(Op::Sub),
                    BinOp::Mul => asm.op(Op::Mul),
                    BinOp::Div => asm.op(Op::Div),
                    BinOp::Lt => asm.op(Op::Lt),
                    BinOp::Gt => asm.op(Op::Gt),
                    BinOp::Le => asm.op(Op::Gt).op(Op::IsZero),
                    BinOp::Ge => asm.op(Op::Lt).op(Op::IsZero),
                    BinOp::Eq => asm.op(Op::Eq),
                    BinOp::Ne => asm.op(Op::Eq).op(Op::IsZero),
                    BinOp::And => asm.op(Op::And),
                    BinOp::Or => asm.op(Op::Or),
                };
                Ok(())
            }
            Expr::Not(inner) => {
                self.emit_expr(inner)?;
                self.asm = std::mem::take(&mut self.asm).op(Op::IsZero);
                Ok(())
            }
        }
    }
}

/// Compiles one API in isolation, for the bytecode verifier and the
/// X0401 gate (the fragment is verified and scanned, never executed).
///
/// # Errors
///
/// As for [`compile`].
pub fn api_fragment(program: &Program, phase_idx: usize, api: &Api) -> Result<Vec<u8>, LangError> {
    crate::check::checked(program)?;
    fragment(program, phase_idx, api)
}

/// [`api_fragment`] for a program already checked.
pub(crate) fn fragment(
    program: &Program,
    phase_idx: usize,
    api: &Api,
) -> Result<Vec<u8>, LangError> {
    let mut asm = Asm::new();
    let revert_label = asm.new_label();
    let mut ctx = Ctx::new(program, ParamSource::CallData, &api.params, asm, revert_label);
    ctx.compile_api(phase_idx, api)?;
    ctx.asm =
        std::mem::take(&mut ctx.asm).bind(revert_label).push_u64(0).push_u64(0).op(Op::Revert);
    Ok(ctx.asm.build())
}

/// Total padded byte width of an API's parameters (calldata size minus
/// the selector).
pub fn params_width(api: &Api) -> usize {
    layout_iter(&api.params).map(|(_, _, _, len)| len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_evm::{CallParams, Evm};
    use pol_ledger::Address;

    fn deploy(
        program: &Program,
        args: &[AbiValue],
    ) -> (Evm, Address, CompiledEvm, pol_evm::interpreter::Balances) {
        let compiled = compile_with_pad(program, 0).unwrap();
        let init = compiled.init_with_args(args).unwrap();
        let mut evm = Evm::new();
        let mut balances = pol_evm::interpreter::Balances::new();
        let deployer = Address([0xaa; 20]);
        let (addr, outcome) = evm.deploy(deployer, &init, 30_000_000, &mut balances).unwrap();
        assert!(outcome.success);
        (evm, addr, compiled, balances)
    }

    #[allow(clippy::too_many_arguments)]
    fn call(
        evm: &mut Evm,
        balances: &mut pol_evm::interpreter::Balances,
        addr: Address,
        compiled: &CompiledEvm,
        api: &str,
        args: &[AbiValue],
        caller: Address,
        value: u128,
    ) -> pol_evm::ExecOutcome {
        let data = compiled.encode_call(api, args).unwrap();
        evm.call(CallParams::new(caller, addr).with_data(data).with_value(value), balances).unwrap()
    }

    #[test]
    fn counter_constructor_and_views() {
        let program = Program::counter_example();
        let (mut evm, addr, compiled, mut balances) = deploy(&program, &[AbiValue::Word(3)]);
        // view_remaining == 3
        let data = compiled.encode_call("view_remaining", &[]).unwrap();
        let out =
            evm.call(CallParams::new(Address::ZERO, addr).with_data(data), &mut balances).unwrap();
        assert!(out.success);
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(3));
    }

    #[test]
    fn counter_bump_until_phase_ends() {
        let program = Program::counter_example();
        let (mut evm, addr, compiled, mut balances) = deploy(&program, &[AbiValue::Word(2)]);
        let caller = Address([1; 20]);
        let out =
            call(&mut evm, &mut balances, addr, &compiled, "bump", &[AbiValue::Word(5)], caller, 0);
        assert!(out.success, "{:?}", out);
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(1)); // remaining
        let out =
            call(&mut evm, &mut balances, addr, &compiled, "bump", &[AbiValue::Word(7)], caller, 0);
        assert!(out.success);
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(0));
        // Phase over: next bump reverts.
        let out =
            call(&mut evm, &mut balances, addr, &compiled, "bump", &[AbiValue::Word(1)], caller, 0);
        assert!(!out.success);
        // count == 12 via view
        let data = compiled.encode_call("view_count", &[]).unwrap();
        let out =
            evm.call(CallParams::new(Address::ZERO, addr).with_data(data), &mut balances).unwrap();
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(12));
    }

    #[test]
    fn close_after_phases_returns_balance_to_creator() {
        let program = Program::counter_example();
        let (mut evm, addr, compiled, mut balances) = deploy(&program, &[AbiValue::Word(1)]);
        let caller = Address([1; 20]);
        // Exhaust the phase.
        let out =
            call(&mut evm, &mut balances, addr, &compiled, "bump", &[AbiValue::Word(1)], caller, 0);
        assert!(out.success);
        // Give the contract a balance, then close.
        balances.insert(addr, 777);
        let deployer = Address([0xaa; 20]);
        let out = call(&mut evm, &mut balances, addr, &compiled, "closeContract", &[], caller, 0);
        assert!(out.success, "{out:?}");
        assert_eq!(balances[&addr], 0, "token linearity: balance must drain");
        assert_eq!(balances[&deployer], 777);
    }

    #[test]
    fn close_before_phases_end_reverts() {
        let program = Program::counter_example();
        let (mut evm, addr, compiled, mut balances) = deploy(&program, &[AbiValue::Word(5)]);
        let out = call(
            &mut evm,
            &mut balances,
            addr,
            &compiled,
            "closeContract",
            &[],
            Address([1; 20]),
            0,
        );
        assert!(!out.success);
    }

    #[test]
    fn unknown_selector_reverts() {
        let program = Program::counter_example();
        let (mut evm, addr, _, mut balances) = deploy(&program, &[AbiValue::Word(5)]);
        let out = evm
            .call(CallParams::new(Address::ZERO, addr).with_data(vec![1, 2, 3, 4]), &mut balances)
            .unwrap();
        assert!(!out.success);
    }

    #[test]
    fn unpaid_api_rejects_value() {
        let program = Program::counter_example();
        let (mut evm, addr, compiled, mut balances) = deploy(&program, &[AbiValue::Word(5)]);
        let caller = Address([1; 20]);
        balances.insert(caller, 1_000);
        let out = call(
            &mut evm,
            &mut balances,
            addr,
            &compiled,
            "bump",
            &[AbiValue::Word(1)],
            caller,
            100,
        );
        assert!(!out.success, "paying a non-payable api must revert");
    }

    #[test]
    fn pad_inflates_runtime_only() {
        let program = Program::counter_example();
        let a = compile_with_pad(&program, 0).unwrap();
        let b = compile_with_pad(&program, 1000).unwrap();
        assert_eq!(b.runtime_len, a.runtime_len + 1000);
    }
}
