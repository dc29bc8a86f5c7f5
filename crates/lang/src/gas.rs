//! Static worst-case gas certificates: the `polc gas` cost-bound pass.
//!
//! For every dispatchable method of a contract (constructor, phase
//! APIs, generated `view_*` accessors, `closeContract`) this module
//! derives a **sound worst-case gas certificate** for both backends by
//! abstract interpretation over the lowered CFG (`crate::ir`):
//!
//! * the cost walker mirrors the code generators' emission
//!   ([`crate::backend::evm`], [`crate::backend::avm`]) op for op, so
//!   per-path costs are exact for everything the compilers produce;
//! * path costs are **maximised over the branch DAG** — the language is
//!   loop-free and blocks are topologically ordered, so the longest
//!   path is one reverse sweep, shared by both backends through the
//!   `CostModel` hooks their walkers implement;
//! * branches the interval domain proves dead are pruned, and a phase
//!   the domain proves cannot end drops the phase-writeback arm —
//!   the same narrowing [`crate::access`] uses;
//! * EVM certificates price storage and account accesses *cold* (the
//!   worst case for a fresh transaction), charge linear memory
//!   expansion once at the frame's peak, and are affine in calldata
//!   length: `21000 + 4·len + 12·nonzero + exec`, reported as
//!   [`GasBound::Affine`]. AVM certificates are opcode-budget constants
//!   ([`GasBound::Const`]).
//!
//! Two EVM pricings share the EVM walker. `EvmModel::Cold` prices ops
//! the way [`pol_evm`]'s interpreter worst case does and yields the
//! runtime certificates consumed by the executor's scheduler seeding,
//! `pol-node` admission and the Fig. 5.1 report
//! ([`crate::analyze`]). `EvmModel::Verifier` prices every op exactly
//! like [`pol_evm::verifier::conservative_op_gas`] at a fixed payload
//! width and skips memory accounting, so the *unpruned* bound can be
//! sandwiched between the bytecode verifier's observed worst path and
//! the straight-line bound — the two-sided X0401/X0402 gate in
//! [`crate::backend`].

use crate::access::json_str;
use crate::ast::{Api, Expr, GlobalInit, Program, Ty};
use crate::backend::evm::{self as evm_backend, CompiledEvm, DispatchEntry, DispatchTarget};
use crate::ir::{BodyAnalysis, Cfg, Inst, ProgramFlows, Term};
use crate::LangError;
use pol_evm::gas as evm_gas;
use pol_evm::opcode::Op;
use pol_evm::verifier::conservative_op_gas;
use std::collections::HashMap;

/// Block gas budget certificates are linted against (L0008): an API
/// whose proven worst case cannot fit in one block is unschedulable.
pub const DEFAULT_BLOCK_GAS_BUDGET: u64 = 30_000_000;

/// A proven worst-case cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasBound {
    /// A constant bound (AVM opcode budgets).
    Const(u64),
    /// Affine in the call payload: worst case is
    /// `base + per_byte · max_bytes`, where `base` already prices every
    /// payload byte at the zero-byte intrinsic rate and `per_byte` is
    /// the nonzero-byte surcharge.
    Affine {
        /// Execution worst case plus the all-zero-byte intrinsic.
        base: u64,
        /// Intrinsic surcharge per nonzero payload byte.
        per_byte: u64,
        /// Honest payload width (selector + padded parameters).
        max_bytes: u64,
    },
    /// No bound could be proven (⊤). Never produced for compilable
    /// contracts — kept as the lattice top so downstream consumers
    /// (lint L0008, the runtime registries) handle it explicitly.
    Top,
}

impl GasBound {
    /// The scalar worst case, `None` for ⊤.
    pub fn worst_case(&self) -> Option<u64> {
        match self {
            GasBound::Const(c) => Some(*c),
            GasBound::Affine { base, per_byte, max_bytes } => {
                Some(base.saturating_add(per_byte.saturating_mul(*max_bytes)))
            }
            GasBound::Top => None,
        }
    }

    /// Whether the bound degraded to ⊤.
    pub fn is_top(&self) -> bool {
        matches!(self, GasBound::Top)
    }
}

// ------------------------------------------------------ EVM walker --

/// Memory scratch area for slot derivation (mirrors the backend).
const SCRATCH: u64 = 0x00;
/// Memory base for staging byte payloads (mirrors the backend).
const STAGING: u64 = 0x80;

/// How the walker prices individual ops.
#[derive(Debug, Clone, Copy)]
enum EvmModel {
    /// Interpreter worst case: cold storage/account charges, real
    /// payload sizes, linear memory expansion at the frame peak.
    Cold,
    /// Bytecode-verifier mirror: every op charged
    /// [`conservative_op_gas`] at this payload width, no memory
    /// accounting. Used only by the X0401 gate.
    Verifier {
        /// The `payload_bytes` the verifier was configured with.
        payload: u64,
    },
}

/// Mirrors the EVM backend's emission, summing gas instead of bytes.
struct EvmWalk<'p> {
    program: &'p Program,
    /// name → (ty, offset, padded len), as laid out by the backend.
    params: HashMap<&'p str, (Ty, u64, u64)>,
    /// Constructor parameters live in the code tail (`CODECOPY`),
    /// API parameters in calldata.
    code_args: bool,
    staging_top: u64,
    model: EvmModel,
    /// Highest memory offset any op touches (frame peak).
    mem_hi: u64,
}

impl<'p> EvmWalk<'p> {
    fn new(
        program: &'p Program,
        params: &'p [(String, Ty)],
        code_args: bool,
        model: EvmModel,
    ) -> EvmWalk<'p> {
        let mut map = HashMap::with_capacity(params.len());
        for (name, ty, off, len) in evm_backend::layout_iter(params) {
            map.insert(name, (ty, off as u64, len as u64));
        }
        let staging_top = STAGING + map.values().map(|(_, _, len)| *len).sum::<u64>();
        EvmWalk { program, params: map, code_args, staging_top, model, mem_hi: 0 }
    }

    fn touch(&mut self, hi: u64) {
        self.mem_hi = self.mem_hi.max(hi);
    }

    /// A non-dynamic op (both models charge its base cost; the verifier
    /// model routes through [`conservative_op_gas`] so the numbers can
    /// never drift apart).
    fn plain(&self, op: Op) -> u64 {
        match self.model {
            EvmModel::Cold => op.base_gas(),
            EvmModel::Verifier { payload } => conservative_op_gas(op, payload),
        }
    }

    fn push(&self) -> u64 {
        self.plain(Op::Push1)
    }

    fn sload(&self) -> u64 {
        match self.model {
            EvmModel::Cold => evm_gas::G_COLDSLOAD,
            EvmModel::Verifier { payload } => conservative_op_gas(Op::SLoad, payload),
        }
    }

    fn sstore(&self) -> u64 {
        match self.model {
            EvmModel::Cold => evm_gas::G_SSET + evm_gas::G_COLDSLOAD,
            EvmModel::Verifier { payload } => conservative_op_gas(Op::SStore, payload),
        }
    }

    fn call_op(&self) -> u64 {
        match self.model {
            EvmModel::Cold => {
                evm_gas::G_COLDACCOUNTACCESS + evm_gas::G_CALLVALUE - evm_gas::G_CALLSTIPEND
            }
            EvmModel::Verifier { payload } => conservative_op_gas(Op::Call, payload),
        }
    }

    fn keccak(&mut self, at: u64, size: u64) -> u64 {
        self.touch(at + size);
        match self.model {
            EvmModel::Cold => {
                evm_gas::G_KECCAK256 + evm_gas::G_KECCAK256WORD * evm_gas::words(size as usize)
            }
            EvmModel::Verifier { payload } => conservative_op_gas(Op::Keccak256, payload),
        }
    }

    fn log(&mut self, topics: u64, at: u64, size: u64) -> u64 {
        self.touch(at + size);
        let op = if topics == 0 { Op::Log0 } else { Op::Log1 };
        match self.model {
            EvmModel::Cold => {
                evm_gas::G_LOG + evm_gas::G_LOGTOPIC * topics + evm_gas::G_LOGDATA * size
            }
            EvmModel::Verifier { payload } => conservative_op_gas(op, payload),
        }
    }

    fn copy(&mut self, op: Op, at: u64, size: u64) -> u64 {
        self.touch(at + size);
        match self.model {
            EvmModel::Cold => evm_gas::G_VERYLOW + evm_gas::G_COPY * evm_gas::words(size as usize),
            EvmModel::Verifier { payload } => conservative_op_gas(op, payload),
        }
    }

    fn mstore(&mut self, at: u64) -> u64 {
        self.touch(at + 32);
        self.plain(Op::MStore)
    }

    /// `IsZero; PUSH label; JUMPI` — the `require_top` sequence.
    fn require_top(&self) -> u64 {
        self.plain(Op::IsZero) + self.push() + self.plain(Op::JumpI)
    }

    /// Mirrors `emit_expr` (word context).
    fn expr(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::UInt(_) => self.push(),
            Expr::Param(_) => {
                if self.code_args {
                    // PUSH 32; PUSH off; PUSH scratch; CODECOPY;
                    // PUSH scratch; MLOAD
                    let copy = self.copy(Op::CodeCopy, SCRATCH, 32);
                    self.touch(SCRATCH + 32);
                    3 * self.push() + copy + self.push() + self.plain(Op::MLoad)
                } else {
                    self.push() + self.plain(Op::CallDataLoad)
                }
            }
            Expr::Global(_) => self.push() + self.sload(),
            Expr::Caller => self.plain(Op::Caller),
            Expr::Balance => self.plain(Op::SelfBalance),
            Expr::MapGet { key, .. } => self.map_slot(key) + self.sload(),
            Expr::MapContains { key, .. } => {
                self.map_slot(key) + self.sload() + 2 * self.plain(Op::IsZero)
            }
            Expr::Hash(parts) => self.hash_of(parts),
            Expr::Bin(op, lhs, rhs) => {
                use crate::ast::BinOp;
                let operands = self.expr(rhs) + self.expr(lhs);
                operands
                    + match op {
                        BinOp::Add => self.plain(Op::Add),
                        BinOp::Sub => self.plain(Op::Sub),
                        BinOp::Mul => self.plain(Op::Mul),
                        BinOp::Div => self.plain(Op::Div),
                        BinOp::Lt => self.plain(Op::Lt),
                        BinOp::Gt => self.plain(Op::Gt),
                        BinOp::Le => self.plain(Op::Gt) + self.plain(Op::IsZero),
                        BinOp::Ge => self.plain(Op::Lt) + self.plain(Op::IsZero),
                        BinOp::Eq => self.plain(Op::Eq),
                        BinOp::Ne => self.plain(Op::Eq) + self.plain(Op::IsZero),
                        BinOp::And => self.plain(Op::And),
                        BinOp::Or => self.plain(Op::Or),
                    }
            }
            Expr::Not(inner) => self.expr(inner) + self.plain(Op::IsZero),
        }
    }

    /// Mirrors `emit_map_slot`: key, two scratch stores, keccak(64).
    fn map_slot(&mut self, key: &Expr) -> u64 {
        let k = self.expr(key);
        let stores =
            self.push() + self.mstore(SCRATCH) + 2 * self.push() + self.mstore(SCRATCH + 32);
        let hash = 2 * self.push() + self.keccak(SCRATCH, 64);
        k + stores + hash
    }

    /// Mirrors `stage`: returns `(gas, base, total_len)`.
    fn stage(&mut self, parts: &[Expr]) -> (u64, u64, u64) {
        let base = self.staging_top;
        let mut cursor = base;
        let mut gas = 0u64;
        for part in parts {
            if let Expr::Param(name) = part {
                let byte_param = self
                    .params
                    .get(name.as_str())
                    .map(|(ty, _, len)| (!ty.is_word()).then_some(*len))
                    .unwrap_or(None);
                if let Some(len) = byte_param {
                    let op = if self.code_args { Op::CodeCopy } else { Op::CallDataCopy };
                    gas += 3 * self.push() + self.copy(op, cursor, len);
                    cursor += len;
                    continue;
                }
            }
            gas += self.expr(part) + self.push() + self.mstore(cursor);
            cursor += 32;
        }
        (gas, base, cursor - base)
    }

    /// Stage + `PUSH len; PUSH base; KECCAK256` (the `Hash` expression
    /// and byte-global commitments).
    fn hash_of(&mut self, parts: &[Expr]) -> u64 {
        let (gas, base, len) = self.stage(parts);
        gas + 2 * self.push() + self.keccak(base, len)
    }
}

// -------------------------------------------------- DAG max-path DP --

/// What a backend charges around the straight-line instructions of a
/// body: the hooks the longest-path sweep and the API frame price.
/// [`EvmWalk`] and [`AvmWalk`] implement them by mirroring their code
/// generator's emission.
trait CostModel {
    /// One straight-line instruction.
    fn inst(&mut self, inst: Inst<'_>) -> u64;
    /// Evaluating a `require`/`if` condition and testing it.
    fn check(&mut self, cond: &Expr) -> u64;
    /// The jump that closes a then-arm (else arms fall through).
    fn then_exit(&self) -> u64;
    /// Entering a block the backend binds a jump label at.
    fn label_entry(&self) -> u64;
    /// What a failing `require` still executes.
    fn require_fail(&self) -> u64;
    /// The API prologue's `_phase == phase_idx` guard.
    fn phase_guard(&self) -> u64;
    /// The attached-payment check wedged between the entry `require`
    /// and the body.
    fn pay_check(&mut self, pay: Option<&Expr>) -> u64;
    /// The API epilogue at the body's `Return`: re-check the phase
    /// condition, advance the counter when `advance`, return the value.
    fn epilogue(&mut self, while_cond: &Expr, returns: &Expr, advance: bool) -> u64;
}

/// Which blocks a backend binds a jump label at: else arms and if-joins.
fn jump_targets(cfg: &Cfg) -> Vec<bool> {
    let mut jd = vec![false; cfg.blocks.len()];
    for blk in &cfg.blocks {
        match blk.term {
            Term::Branch { else_b, .. } => jd[else_b] = true,
            Term::Goto(t) => jd[t] = true,
            _ => {}
        }
    }
    jd
}

/// Longest-path sweep over the body DAG: `down[b]` is the worst-case
/// cost from block `b` to any exit. `ret_cost` is charged at the body's
/// `Return`; with `prune`, blocks the flow analysis proves dead cost 0.
fn body_max<M: CostModel>(m: &mut M, flow: &BodyAnalysis, prune: bool, ret_cost: u64) -> Vec<u64> {
    let cfg = &flow.cfg;
    let live = |b: usize| !prune || flow.reachable(b);
    let labelled = jump_targets(cfg);
    let enter = |b: usize, m: &M| if labelled[b] { m.label_entry() } else { 0 };
    let mut down = vec![0u64; cfg.blocks.len()];
    for (b, block) in cfg.blocks.iter().enumerate().rev() {
        if !live(b) {
            continue;
        }
        let mut cost: u64 = cfg.insts(b).iter().map(|i| m.inst(*i)).sum();
        cost += match block.term {
            Term::Goto(t) => {
                let jump = if block.closes_then { m.then_exit() } else { 0 };
                jump + enter(t, m) + down[t]
            }
            // A dead successor was skipped above, so its `down` is 0.
            Term::Require { cond, next, .. } => m.check(cond) + m.require_fail().max(down[next]),
            Term::Branch { cond, then_b, else_b, .. } => {
                let else_arm = if live(else_b) { enter(else_b, m) + down[else_b] } else { 0 };
                m.check(cond) + down[then_b].max(else_arm)
            }
            Term::Return => ret_cost,
        };
        down[b] = cost;
    }
    down
}

/// Whether the phase-advance writeback is reachable: `false` only when
/// the interval state at the body's exit proves the `while`
/// condition still holds (the phase cannot end on this call).
fn phase_can_advance(flow: &BodyAnalysis, while_cond: &Expr, prune: bool) -> bool {
    if !prune {
        return true;
    }
    let ret_block = flow
        .cfg
        .blocks
        .iter()
        .position(|b| matches!(b.term, Term::Return))
        .filter(|&b| flow.reachable(b));
    match ret_block.and_then(|b| flow.term_env(b)) {
        Some(env) => env.interval_of(while_cond).lo == 0,
        None => true,
    }
}

/// Cost of one compiled API *fragment* (phase guard, while require,
/// payment check, body, phase advance, return — plus whatever failing
/// paths still execute), maximised over the branch DAG: exactly what
/// `api_fragment` emits on the model's backend. Excludes dispatch and,
/// on the EVM, intrinsic gas and memory expansion; [`certify`] adds
/// those for runtime certificates.
fn api_fragment_max<M: CostModel>(
    m: &mut M,
    program: &Program,
    phase_idx: usize,
    api: &Api,
    flow: &BodyAnalysis,
    prune: bool,
) -> u64 {
    let while_cond = &program.phases[phase_idx].while_cond;
    let advance = phase_can_advance(flow, while_cond, prune);
    let ret_cost = m.epilogue(while_cond, &api.returns, advance);
    let down = body_max(m, flow, prune, ret_cost);
    // Entry block: `require while_cond` with the payment check wedged
    // between it and the body (the backends emit them in that order).
    let body = match flow.cfg.blocks[0].term {
        Term::Require { cond, next, .. } => {
            let (check, fail) = (m.check(cond), m.require_fail());
            if prune && !flow.reachable(next) {
                check + fail
            } else {
                check + fail.max(m.pay_check(api.pay.as_ref()) + down[next])
            }
        }
        // Defensive: lower_api always emits the entry require.
        _ => down[0],
    };
    m.phase_guard() + body
}

impl CostModel for EvmWalk<'_> {
    /// Mirrors `emit_stmt` for the straight-line instructions.
    fn inst(&mut self, inst: Inst<'_>) -> u64 {
        match inst {
            Inst::Set { name, value, .. } => {
                let idx = self.program.global_index(name).expect("checked");
                let v = if self.program.globals[idx].ty.is_word() {
                    self.expr(value)
                } else {
                    self.hash_of(std::slice::from_ref(value))
                };
                v + self.push() + self.sstore()
            }
            Inst::MapPut { key, value, .. } => {
                let commit = self.hash_of(value);
                let (_, base, len) = {
                    // Re-derive the staging extent for the LOG1 payload
                    // without double-charging: stage() is deterministic.
                    let base = self.staging_top;
                    let len: u64 = value
                        .iter()
                        .map(|p| match p {
                            Expr::Param(name) => self
                                .params
                                .get(name.as_str())
                                .filter(|(ty, _, _)| !ty.is_word())
                                .map_or(32, |(_, _, len)| *len),
                            _ => 32,
                        })
                        .sum();
                    (0u64, base, len)
                };
                let store = self.map_slot(key) + self.sstore();
                let log = self.expr(key) + 2 * self.push() + self.log(1, base, len);
                commit + store + log
            }
            Inst::MapDel { key, .. } => self.push() + self.map_slot(key) + self.sstore(),
            Inst::Transfer { to, amount, .. } => {
                4 * self.push()
                    + self.expr(amount)
                    + self.expr(to)
                    + self.push()
                    + self.call_op()
                    + self.plain(Op::Pop)
            }
            Inst::Emit { parts, .. } => {
                let (gas, base, len) = self.stage(parts);
                gas + 2 * self.push() + self.log(0, base, len)
            }
        }
    }

    fn check(&mut self, cond: &Expr) -> u64 {
        self.expr(cond) + self.require_top()
    }

    fn then_exit(&self) -> u64 {
        self.push() + self.plain(Op::Jump)
    }

    fn label_entry(&self) -> u64 {
        self.plain(Op::JumpDest)
    }

    /// `JUMPDEST; PUSH 0; PUSH 0; REVERT` — the shared revert tail a
    /// failing require lands on.
    fn require_fail(&self) -> u64 {
        self.plain(Op::JumpDest) + 2 * self.push() + self.plain(Op::Revert)
    }

    fn phase_guard(&self) -> u64 {
        self.push() + self.sload() + self.push() + self.plain(Op::Eq) + self.require_top()
    }

    fn pay_check(&mut self, pay: Option<&Expr>) -> u64 {
        let value = match pay {
            Some(pay) => self.expr(pay) + self.plain(Op::CallValue) + self.plain(Op::Eq),
            None => self.plain(Op::CallValue) + self.plain(Op::IsZero),
        };
        value + self.require_top()
    }

    fn epilogue(&mut self, while_cond: &Expr, returns: &Expr, advance: bool) -> u64 {
        let recheck = self.expr(while_cond);
        let keep = self.push() + self.plain(Op::JumpI) + self.plain(Op::JumpDest);
        let adv = self.push()
            + self.plain(Op::JumpI)
            + self.push()
            + self.sload()
            + self.push()
            + self.plain(Op::Add)
            + self.push()
            + self.sstore()
            + self.plain(Op::JumpDest);
        let arms = if advance { keep.max(adv) } else { keep };
        let ret_seq = self.expr(returns)
            + self.push()
            + self.mstore(0)
            + 2 * self.push()
            + self.plain(Op::Return);
        recheck + arms + ret_seq
    }
}

/// Runtime-dispatcher cost up to and including the bound entry of the
/// `i`-th dispatch entry: selector preamble, `i + 1` comparison probes,
/// the entry's `JUMPDEST; POP`.
fn evm_dispatch_cost(entry_idx: usize) -> u64 {
    let preamble = Op::Push1.base_gas() * 2
        + Op::CallDataLoad.base_gas()
        + Op::Swap1.base_gas()
        + Op::Div.base_gas();
    // DUP1; PUSH selector; EQ; PUSH label; JUMPI
    let probe =
        Op::Dup1.base_gas() + 2 * Op::Push1.base_gas() + Op::Eq.base_gas() + Op::JumpI.base_gas();
    let enter = Op::JumpDest.base_gas() + Op::Pop.base_gas();
    preamble + probe * (entry_idx as u64 + 1) + enter
}

/// Frame memory expansion at peak `mem_hi` (linear model, charged once).
fn mem_expansion(mem_hi: u64) -> u64 {
    evm_gas::G_MEMORY * evm_gas::words(mem_hi as usize)
}

/// The affine full-transaction bound for an EVM entry with execution
/// worst case `exec` and honest payload `max_bytes` (selector + padded
/// parameters, or init code for deployments).
fn evm_affine(exec: u64, max_bytes: u64, create: bool) -> GasBound {
    let create_gas = if create { evm_gas::G_TXCREATE } else { 0 };
    GasBound::Affine {
        base: evm_gas::G_TRANSACTION + create_gas + evm_gas::G_TXDATAZERO * max_bytes + exec,
        per_byte: evm_gas::G_TXDATANONZERO - evm_gas::G_TXDATAZERO,
        max_bytes,
    }
}

// ------------------------------------------------------ AVM walker --

/// Cost of one AVM op class (mirrors [`pol_avm::cost::op_cost`]).
const A_OP: u64 = 1;
const A_KECCAK: u64 = 130;
const A_BOX: u64 = 10;
const A_INNER_PAY: u64 = 20;

/// Mirrors the AVM backend's emission, summing opcode budget.
struct AvmWalk<'p> {
    program: &'p Program,
    /// Parameter name → type (TxnArg indices don't affect cost).
    params: HashMap<&'p str, Ty>,
}

impl<'p> AvmWalk<'p> {
    fn new(program: &'p Program, params: &'p [(String, Ty)]) -> AvmWalk<'p> {
        AvmWalk { program, params: params.iter().map(|(name, ty)| (name.as_str(), *ty)).collect() }
    }

    fn box_key(&self, key: &Expr) -> u64 {
        // PushBytes prefix; key; Itob; Concat
        A_OP + self.expr(key) + 2 * A_OP
    }

    fn concat(&self, parts: &[Expr]) -> u64 {
        let joins = parts.len().saturating_sub(1) as u64 * A_OP;
        parts.iter().map(|p| self.bytes(p)).sum::<u64>() + joins
    }

    /// Mirrors `emit_bytes`.
    fn bytes(&self, e: &Expr) -> u64 {
        match e {
            Expr::Param(_) | Expr::Caller => A_OP,
            Expr::Global(name) => {
                let idx = self.program.global_index(name).expect("checked");
                let itob = matches!(self.program.globals[idx].ty, Ty::UInt | Ty::Bool);
                3 * A_OP + if itob { A_OP } else { 0 }
            }
            Expr::Hash(_) | Expr::MapGet { .. } => self.expr(e),
            word => self.expr(word) + A_OP, // + Itob
        }
    }

    /// Mirrors `emit_expr`.
    fn expr(&self, e: &Expr) -> u64 {
        match e {
            Expr::UInt(_) | Expr::Caller | Expr::Balance => A_OP,
            Expr::Param(name) => {
                let btoi = self
                    .params
                    .get(name.as_str())
                    .is_some_and(|ty| matches!(ty, Ty::UInt | Ty::Bool));
                A_OP + if btoi { A_OP } else { 0 }
            }
            Expr::Global(_) => 3 * A_OP,
            Expr::MapGet { key, .. } => self.box_key(key) + A_BOX + A_OP,
            Expr::MapContains { key, .. } => self.box_key(key) + A_BOX + 2 * A_OP,
            Expr::Hash(parts) => self.concat(parts) + A_KECCAK,
            Expr::Bin(_, lhs, rhs) => self.expr(lhs) + self.expr(rhs) + A_OP,
            Expr::Not(inner) => self.expr(inner) + A_OP,
        }
    }
}

impl CostModel for AvmWalk<'_> {
    fn inst(&mut self, inst: Inst<'_>) -> u64 {
        match inst {
            Inst::Set { name, value, .. } => {
                let idx = self.program.global_index(name).expect("checked");
                let v = if matches!(self.program.globals[idx].ty, Ty::Bytes(_)) {
                    self.bytes(value) + A_KECCAK
                } else {
                    self.expr(value)
                };
                A_OP + v + A_OP // PushBytes name; value; AppGlobalPut
            }
            Inst::MapPut { key, value, .. } => {
                // box key; payload; Dup; Log; Keccak256; BoxPut
                self.box_key(key) + self.concat(value) + 2 * A_OP + A_KECCAK + A_BOX
            }
            Inst::MapDel { key, .. } => self.box_key(key) + A_BOX + A_OP,
            Inst::Transfer { to, amount, .. } => self.bytes(to) + self.expr(amount) + A_INNER_PAY,
            Inst::Emit { parts, .. } => self.concat(parts) + A_OP,
        }
    }

    /// The condition, then `Assert` (require) or `Bz` (if).
    fn check(&mut self, cond: &Expr) -> u64 {
        self.expr(cond) + A_OP
    }

    /// `b join`.
    fn then_exit(&self) -> u64 {
        A_OP
    }

    /// Labels are free.
    fn label_entry(&self) -> u64 {
        0
    }

    /// A failing `assert` terminates immediately, its cost already charged.
    fn require_fail(&self) -> u64 {
        0
    }

    /// `PushBytes; AppGlobalGet; Pop; PushInt; Eq; Assert`.
    fn phase_guard(&self) -> u64 {
        6 * A_OP
    }

    /// `[pay;] Txn Amount; Eq | NotL; Assert`.
    fn pay_check(&mut self, pay: Option<&Expr>) -> u64 {
        pay.map_or(0, |pay| self.expr(pay)) + 3 * A_OP
    }

    fn epilogue(&mut self, while_cond: &Expr, returns: &Expr, advance: bool) -> u64 {
        // Bnz keep; [PushBytes; PushInt; AppGlobalPut]; Label keep
        let arms = if advance { 3 * A_OP } else { 0 };
        // returns; Itob; Log; PushInt 1; Return
        self.expr(while_cond) + A_OP + arms + self.expr(returns) + 4 * A_OP
    }
}

/// Dispatch-scan cost for the `i`-th API entry: `txn ApplicationID; bz`
/// plus `i + 1` four-op probes (the match's `bnz` is taken; the body
/// label is free).
fn avm_dispatch_cost(entry_idx: usize) -> u64 {
    2 * A_OP + 4 * A_OP * (entry_idx as u64 + 1)
}

// -------------------------------------------------- certificates --

/// A dispatchable method with its certificates.
#[derive(Debug, Clone)]
pub struct MethodGas {
    /// Dispatch name (`put`, `view_open`, `closeContract`, …).
    pub name: String,
    /// Phase name for APIs, `None` for views/close.
    pub phase: Option<String>,
    /// Dispatch kind.
    pub kind: crate::access::MethodKind,
    /// The EVM dispatch selector.
    pub selector: [u8; 4],
    /// Full-transaction EVM bound (intrinsic + execution), affine in
    /// calldata length.
    pub evm: GasBound,
    /// Execution-only worst case (dispatch, body, memory — everything
    /// but the intrinsic). Runtime resolvers add the exact intrinsic of
    /// the observed calldata to this.
    pub evm_exec: u64,
    /// AVM opcode-budget bound. For views (EVM-only entries) this is
    /// the dispatcher's unknown-symbol rejection cost.
    pub avm: GasBound,
}

/// Worst-case gas certificates for every dispatchable method of one
/// contract, resolvable against concrete calls on either backend.
#[derive(Debug, Clone)]
pub struct ContractGasBounds {
    /// Contract name.
    pub name: String,
    /// Deployment bound: affine in the init-code payload, including the
    /// deploy wrapper and the code-deposit charge at the default
    /// runtime pad. Reporting only — deployments resolve conservatively
    /// at runtime.
    pub constructor_evm: GasBound,
    /// App-creation opcode budget.
    pub constructor_avm: GasBound,
    /// Certificates for phase APIs, EVM views and `closeContract`.
    pub methods: Vec<MethodGas>,
    /// Execution cost of an unknown-selector revert.
    evm_unknown_exec: u64,
    /// Opcode cost of an unknown-symbol rejection.
    avm_unknown_cost: u64,
}

/// Runs the cost-bound pass over a program.
///
/// # Errors
///
/// [`LangError::TypeErrors`] when the program fails the type checker;
/// [`LangError::Backend`] when it does not compile (the constructor
/// certificate prices the deployment payload, which needs the compiled
/// artifact's dimensions).
pub fn certify(program: &Program) -> Result<ContractGasBounds, LangError> {
    crate::check::checked(program)?;
    let table = evm_backend::dispatch_table(program);
    let compiled = evm_backend::emit(program, &table, evm_backend::DEFAULT_RUNTIME_PAD)?;
    Ok(certify_compiled(program, &ProgramFlows::new(program), &compiled, &table))
}

/// [`certify`] over the flows, the EVM artifact and the method table the
/// caller already built (the compile pipeline's, see
/// [`crate::backend::compile`]).
pub(crate) fn certify_compiled(
    program: &Program,
    flows: &ProgramFlows,
    compiled: &CompiledEvm,
    table: &[DispatchEntry<'_>],
) -> ContractGasBounds {
    let n_apis = program.all_apis().count() as u64;
    // txn ApplicationID; bz; n_apis failed probes; the close probe.
    let avm_scan = 2 * A_OP + 4 * A_OP * n_apis + 4 * A_OP;
    let avm_unknown_cost = avm_scan + 3 * A_OP;

    let methods = table
        .iter()
        .enumerate()
        .map(|(entry, e)| {
            let (body, avm) = match e.target {
                DispatchTarget::Api { phase, api_idx, api } => {
                    let flow = &flows.apis[phase][api_idx];
                    let mut w = EvmWalk::new(program, &api.params, false, EvmModel::Cold);
                    let frag = api_fragment_max(&mut w, program, phase, api, flow, true);
                    let mut a = AvmWalk::new(program, &api.params);
                    let avm = api_fragment_max(&mut a, program, phase, api, flow, true);
                    (frag + mem_expansion(w.mem_hi), avm_dispatch_cost(entry) + avm)
                }
                // PUSH slot; SLOAD; PUSH 0; MSTORE; PUSH 32; PUSH 0; RETURN.
                // Views are EVM-only entries: the AVM rejects the symbol.
                DispatchTarget::View { .. } => {
                    let body = Op::Push1.base_gas() * 4
                        + evm_gas::G_COLDSLOAD
                        + Op::MStore.base_gas()
                        + Op::Return.base_gas();
                    (body + mem_expansion(32), avm_unknown_cost)
                }
                // closeContract: phase guard then self-balance transfer.
                DispatchTarget::Close => {
                    let guard = Op::Push1.base_gas() * 3
                        + evm_gas::G_COLDSLOAD
                        + Op::Eq.base_gas()
                        + Op::IsZero.base_gas()
                        + Op::JumpI.base_gas();
                    let fail = Op::JumpDest.base_gas() + 2 * Op::Push1.base_gas();
                    let payout = 5 * Op::Push1.base_gas()
                        + Op::SelfBalance.base_gas()
                        + evm_gas::G_COLDSLOAD
                        + Op::Push1.base_gas()
                        + (evm_gas::G_COLDACCOUNTACCESS + evm_gas::G_CALLVALUE
                            - evm_gas::G_CALLSTIPEND)
                        + Op::Pop.base_gas();
                    // The close body: asserts, payout, approve.
                    (guard + payout.max(fail), avm_scan + 10 * A_OP + A_INNER_PAY + 2 * A_OP)
                }
            };
            let exec = evm_dispatch_cost(entry) + body;
            let width: u64 = evm_backend::layout_iter(e.params()).map(|l| l.3 as u64).sum();
            let (kind, phase) = e.kind_and_phase(program);
            MethodGas {
                name: e.name.clone(),
                phase,
                kind,
                selector: e.selector,
                evm: evm_affine(exec, 4 + width, false),
                evm_exec: exec,
                avm: GasBound::Const(avm),
            }
        })
        .collect();

    // Constructor: init stores, globals, body, deploy wrapper, deposit.
    let constructor_evm = {
        let mut w = EvmWalk::new(program, &program.creator.fields, true, EvmModel::Cold);
        let mut exec = w.plain(Op::Caller) + w.push() + w.sstore();
        for global in &program.globals {
            exec += match &global.init {
                GlobalInit::Const(0) => 0,
                GlobalInit::Const(_) => 2 * w.push() + w.sstore(),
                GlobalInit::CreatorAddress => w.plain(Op::Caller) + w.push() + w.sstore(),
                GlobalInit::FromField(field) => {
                    let ty = program.field_ty(field).expect("checked");
                    let v = if ty.is_word() {
                        w.expr(&Expr::Param(field.clone()))
                    } else {
                        w.hash_of(&[Expr::Param(field.clone())])
                    };
                    v + w.push() + w.sstore()
                }
            };
        }
        let ret_cost = w.push() + w.plain(Op::Jump) + w.plain(Op::JumpDest);
        exec += body_max(&mut w, &flows.constructor, true, ret_cost)[0];
        // Deploy wrapper: PUSH×3; CODECOPY; PUSH×2; RETURN at offset 0.
        let runtime_len = compiled.runtime_len as u64;
        exec += 5 * w.push() + w.copy(Op::CodeCopy, 0, runtime_len);
        exec += mem_expansion(w.mem_hi);
        let deposit = evm_gas::G_CODEDEPOSIT * runtime_len;
        let fields_width: u64 = evm_backend::layout_iter(&program.creator.fields)
            .map(|(_, _, _, len)| len as u64)
            .sum();
        let payload = compiled.init_code.len() as u64 + fields_width;
        evm_affine(exec + deposit, payload, true)
    };

    let constructor_avm = {
        let mut w = AvmWalk::new(program, &program.creator.fields);
        // txn ApplicationID; bz (taken); creator + phase stores.
        let mut cost = 2 * A_OP + 6 * A_OP;
        for global in &program.globals {
            cost += A_OP // PushBytes name
                + match &global.init {
                    GlobalInit::Const(_) | GlobalInit::CreatorAddress => A_OP,
                    GlobalInit::FromField(field) => {
                        let ty = program.field_ty(field).expect("checked");
                        if matches!(ty, Ty::Bytes(_)) {
                            w.bytes(&Expr::Param(field.clone())) + A_KECCAK
                        } else {
                            w.expr(&Expr::Param(field.clone()))
                        }
                    }
                }
                + A_OP; // AppGlobalPut
        }
        GasBound::Const(cost + body_max(&mut w, &flows.constructor, true, 2 * A_OP)[0])
    };

    ContractGasBounds {
        name: program.name.clone(),
        constructor_evm,
        constructor_avm,
        methods,
        evm_unknown_exec: evm_dispatch_cost(table.len() - 1)
            // The scan runs all probes without binding an entry, then
            // jumps to the shared revert tail.
            - (Op::JumpDest.base_gas() + Op::Pop.base_gas())
            + Op::Push1.base_gas()
            + Op::Jump.base_gas()
            + Op::JumpDest.base_gas()
            + 2 * Op::Push1.base_gas(),
        avm_unknown_cost,
    }
}

/// The middle of the X0401 gate: the unpruned worst-path cost of one
/// API's EVM fragment priced exactly like the bytecode verifier at
/// `payload_bytes`. By construction it lies between the verifier's
/// observed worst path (which may prune constant branches) and the
/// straight-line sum over the fragment.
pub(crate) fn evm_fragment_bound(
    program: &Program,
    flows: &ProgramFlows,
    phase_idx: usize,
    api_idx: usize,
    payload_bytes: u64,
) -> u64 {
    let api = &program.phases[phase_idx].apis[api_idx];
    let model = EvmModel::Verifier { payload: payload_bytes };
    let mut w = EvmWalk::new(program, &api.params, false, model);
    api_fragment_max(&mut w, program, phase_idx, api, &flows.apis[phase_idx][api_idx], false)
}

/// Unpruned worst-path opcode cost of one API's AVM fragment. Lies
/// between the AVM verifier's observed worst path and
/// [`pol_avm::cost::program_cost`] of the fragment.
pub(crate) fn avm_fragment_bound(
    program: &Program,
    flows: &ProgramFlows,
    phase_idx: usize,
    api_idx: usize,
) -> u64 {
    let api = &program.phases[phase_idx].apis[api_idx];
    let mut w = AvmWalk::new(program, &api.params);
    api_fragment_max(&mut w, program, phase_idx, api, &flows.apis[phase_idx][api_idx], false)
}

impl ContractGasBounds {
    /// Looks up a method certificate by dispatch name.
    pub(crate) fn method(&self, name: &str) -> Option<&MethodGas> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// The proven worst-case gas of a concrete EVM call: the exact
    /// intrinsic of the observed calldata plus the certified execution
    /// worst case of the selected method (unknown selectors price the
    /// dispatcher's revert scan). `None` when the method's bound is ⊤.
    pub fn resolve_evm_call(&self, calldata: &[u8]) -> Option<u64> {
        let mut selector = [0u8; 4];
        for (i, b) in selector.iter_mut().enumerate() {
            *b = calldata.get(i).copied().unwrap_or(0);
        }
        let exec = match self.methods.iter().find(|m| m.selector == selector) {
            Some(m) => {
                if m.evm.is_top() {
                    return None;
                }
                m.evm_exec
            }
            None => self.evm_unknown_exec,
        };
        Some(evm_gas::intrinsic_gas(calldata, false).saturating_add(exec))
    }

    /// The proven worst-case opcode cost of a concrete AVM application
    /// call (first argument is the dispatch symbol). `None` when the
    /// method's bound is ⊤.
    pub fn resolve_app_call(&self, args: &[Vec<u8>]) -> Option<u64> {
        let Some(symbol) = args.first() else {
            return Some(self.avm_unknown_cost);
        };
        match self.methods.iter().find(|m| m.name.as_bytes() == symbol.as_slice()) {
            Some(m) => m.avm.worst_case(),
            None => Some(self.avm_unknown_cost),
        }
    }

    /// Deterministic JSON rendering (the `polc gas --json` artifact).
    pub fn to_json(&self, file: &str, indent: &str) -> String {
        let methods = self
            .methods
            .iter()
            .map(|m| {
                format!(
                    "{indent}    {{\"name\": {}, \"phase\": {}, \"kind\": {}, \
                     \"selector\": \"0x{}\", \"evm\": {}, \"evm_exec\": {}, \"avm\": {}}}",
                    json_str(&m.name),
                    m.phase.as_ref().map_or("null".to_string(), |p| json_str(p)),
                    json_str(m.kind.label()),
                    hex4(&m.selector),
                    bound_json(&m.evm),
                    m.evm_exec,
                    bound_json(&m.avm),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{indent}{{\n{indent}  \"file\": {},\n{indent}  \"name\": {},\n\
             {indent}  \"block_gas_budget\": {},\n{indent}  \"avm_call_budget\": {},\n\
             {indent}  \"constructor\": {{\"evm\": {}, \"avm\": {}}},\n\
             {indent}  \"methods\": [\n{methods}\n{indent}  ]\n{indent}}}",
            json_str(file),
            json_str(&self.name),
            DEFAULT_BLOCK_GAS_BUDGET,
            pol_avm::cost::CALL_BUDGET,
            bound_json(&self.constructor_evm),
            bound_json(&self.constructor_avm),
        )
    }

    /// Human-readable rendering (the `polc gas` text output).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "contract {} (block budget {}, avm budget {})\n",
            self.name,
            DEFAULT_BLOCK_GAS_BUDGET,
            pol_avm::cost::CALL_BUDGET
        );
        out.push_str(&format!(
            "  {:<18} evm<= {:>9}  avm {:>5}\n",
            "constructor",
            bound_worst_label(&self.constructor_evm),
            bound_worst_label(&self.constructor_avm),
        ));
        for m in &self.methods {
            let over_block = m.evm.worst_case().is_none_or(|w| w > DEFAULT_BLOCK_GAS_BUDGET);
            let over_budget = m.avm.worst_case().is_none_or(|w| w > pol_avm::cost::CALL_BUDGET);
            let mut flags = String::new();
            if matches!(m.kind, crate::access::MethodKind::Api) && over_block {
                flags.push_str("  !block-budget");
            }
            if matches!(m.kind, crate::access::MethodKind::Api) && over_budget {
                flags.push_str("  !avm-budget");
            }
            out.push_str(&format!(
                "  {:<18} evm<= {:>9} (exec {:>7})  avm {:>5}{}\n",
                m.name,
                bound_worst_label(&m.evm),
                m.evm_exec,
                bound_worst_label(&m.avm),
                flags,
            ));
        }
        out
    }
}

fn hex4(sel: &[u8; 4]) -> String {
    sel.iter().map(|b| format!("{b:02x}")).collect()
}

fn bound_worst_label(b: &GasBound) -> String {
    match b.worst_case() {
        Some(w) => w.to_string(),
        None => "top".into(),
    }
}

fn bound_json(b: &GasBound) -> String {
    match b {
        GasBound::Const(c) => format!("{{\"form\": \"const\", \"worst_case\": {c}}}"),
        GasBound::Affine { base, per_byte, max_bytes } => format!(
            "{{\"form\": \"affine\", \"base\": {base}, \"per_byte\": {per_byte}, \
             \"max_bytes\": {max_bytes}, \"worst_case\": {}}}",
            base + per_byte * max_bytes
        ),
        GasBound::Top => "{\"form\": \"top\"}".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::avm as avm_backend;
    use crate::backend::AbiValue;
    use pol_avm::{AppCallParams, Avm};
    use pol_evm::{CallParams, Evm};
    use pol_ledger::Address;

    fn v1() -> Program {
        let src = include_str!("../../core/contracts/proof_of_location.pol");
        let program = crate::parse(src).expect("parses");
        assert!(crate::check::check(&program).is_empty());
        program
    }

    #[test]
    fn counter_apis_certified_on_both_backends() {
        let program = Program::counter_example();
        let bounds = certify(&program).expect("certifies");
        for m in &bounds.methods {
            assert!(!m.evm.is_top(), "{} evm bound degraded", m.name);
            assert!(!m.avm.is_top(), "{} avm bound degraded", m.name);
        }
        let bump = bounds.method("bump").expect("api");
        assert!(matches!(bump.evm, GasBound::Affine { .. }));
        assert!(matches!(bump.avm, GasBound::Const(_)));
    }

    #[test]
    fn observed_evm_gas_stays_under_certificates() {
        let program = Program::counter_example();
        let bounds = certify(&program).expect("certifies");
        let compiled = evm_backend::compile(&program).unwrap();
        let init = compiled.init_with_args(&[AbiValue::Word(2)]).unwrap();
        let mut evm = Evm::new();
        let mut balances = pol_evm::interpreter::Balances::new();
        let deployer = Address([0xaa; 20]);
        let (addr, deploy_out) = evm.deploy(deployer, &init, 30_000_000, &mut balances).unwrap();
        assert!(deploy_out.success);
        let ctor_bound = bounds.constructor_evm.worst_case().expect("bounded");
        assert!(
            deploy_out.gas_used <= ctor_bound,
            "deploy {} > bound {ctor_bound}",
            deploy_out.gas_used
        );

        let caller = Address([1; 20]);
        // Exercise: api call (twice: phase advance arm + keep arm),
        // view, close, unknown selector.
        let mut datas = vec![
            compiled.encode_call("bump", &[AbiValue::Word(5)]).unwrap(),
            compiled.encode_call("bump", &[AbiValue::Word(7)]).unwrap(),
            compiled.encode_call("bump", &[AbiValue::Word(1)]).unwrap(), // reverts: phase over
            compiled.encode_call("view_count", &[]).unwrap(),
            compiled.encode_call("closeContract", &[]).unwrap(),
            vec![0xde, 0xad, 0xbe, 0xef],
        ];
        for data in datas.drain(..) {
            let bound = bounds.resolve_evm_call(&data).expect("bounded");
            let out = evm
                .call(CallParams::new(caller, addr).with_data(data.clone()), &mut balances)
                .unwrap();
            assert!(
                out.gas_used <= bound,
                "call {:02x?} used {} > bound {bound}",
                &data[..4.min(data.len())],
                out.gas_used
            );
            // Pinned slack: certificates stay within 4x of a successful
            // execution (reverting paths stop early, so the full-path
            // bound says nothing about their spend).
            if out.success {
                assert!(
                    bound <= out.gas_used.saturating_mul(4),
                    "bound {bound} looser than 4x observed {}",
                    out.gas_used
                );
            }
        }
    }

    #[test]
    fn observed_avm_cost_stays_under_certificates() {
        let program = Program::counter_example();
        let bounds = certify(&program).expect("certifies");
        let compiled = avm_backend::compile(&program).unwrap();
        let mut avm = Avm::new();
        let mut balances = pol_avm::interpreter::Balances::new();
        let creator = Address([0xaa; 20]);
        balances.insert(creator, 10_000_000);
        let app_id = avm
            .create_app_with_args(
                creator,
                compiled.program.clone(),
                compiled.encode_create_args(&[AbiValue::Word(1)]).unwrap(),
                &mut balances,
            )
            .unwrap();
        let caller = Address([1; 20]);
        let calls = vec![
            compiled.encode_call("bump", &[AbiValue::Word(4)]).unwrap(),
            vec![b"closeContract".to_vec()],
            vec![b"nonsense".to_vec()],
        ];
        for args in calls {
            let bound = bounds.resolve_app_call(&args).expect("bounded");
            let out = avm
                .call(AppCallParams::new(caller, app_id).with_args(args.clone()), &mut balances)
                .unwrap();
            assert!(
                out.cost <= bound,
                "call {:?} cost {} > bound {bound}",
                String::from_utf8_lossy(&args[0]),
                out.cost
            );
        }
    }

    #[test]
    fn fragment_bounds_sandwich_the_bytecode_verifiers() {
        for program in [Program::counter_example(), v1()] {
            let flows = ProgramFlows::new(&program);
            let payload = program
                .all_apis()
                .map(|(_, api)| evm_backend::params_width(api) as u64)
                .max()
                .unwrap_or(0);
            for (phase_idx, phase) in program.phases.iter().enumerate() {
                for (api_idx, api) in phase.apis.iter().enumerate() {
                    // EVM: verifier worst path <= static unpruned <= linear.
                    let fragment =
                        evm_backend::api_fragment(&program, phase_idx, api).expect("compiles");
                    let report = pol_evm::verifier::verify(
                        &fragment,
                        &pol_evm::verifier::VerifyConfig {
                            allowed_post_call_sstore_keys: &[evm_backend::SLOT_PHASE],
                            payload_bytes: payload,
                        },
                    )
                    .expect("verifies");
                    let stat = evm_fragment_bound(&program, &flows, phase_idx, api_idx, payload);
                    let linear = crate::backend::evm_linear_bound(&fragment, payload);
                    assert!(
                        report.worst_case_gas <= stat,
                        "{}: verifier {} > static {stat}",
                        api.name,
                        report.worst_case_gas
                    );
                    assert!(stat <= linear, "{}: static {stat} > linear {linear}", api.name);

                    // AVM: verifier worst path <= static unpruned <= linear.
                    let ops =
                        avm_backend::api_fragment(&program, phase_idx, api).expect("compiles");
                    let aprog = pol_avm::program::AvmProgram::new(ops);
                    let areport = pol_avm::verifier::verify(&aprog).expect("verifies");
                    let astat = avm_fragment_bound(&program, &flows, phase_idx, api_idx);
                    let alinear = pol_avm::cost::program_cost(aprog.ops());
                    assert!(
                        areport.worst_case_cost <= astat,
                        "{}: avm verifier {} > static {astat}",
                        api.name,
                        areport.worst_case_cost
                    );
                    assert!(
                        astat <= alinear,
                        "{}: avm static {astat} > linear {alinear}",
                        api.name
                    );
                }
            }
        }
    }

    #[test]
    fn v1_apis_certified_and_within_block_budget() {
        let program = v1();
        let bounds = certify(&program).expect("certifies");
        for m in bounds.methods.iter().filter(|m| m.kind == crate::access::MethodKind::Api) {
            let w = m.evm.worst_case().expect("bounded");
            assert!(w <= DEFAULT_BLOCK_GAS_BUDGET, "{} worst {w} exceeds block budget", m.name);
            assert!(!m.avm.is_top(), "{} avm degraded", m.name);
        }
    }

    #[test]
    fn dead_branch_is_pruned_from_the_certificate() {
        // `if 0 == 1 { expensive } else {}` — the interval domain kills
        // the then arm, so the pruned certificate must beat the live
        // one by at least the map-write cost.
        use crate::ast::*;
        let expensive =
            Stmt::MapSet { map: "m".into(), key: Expr::UInt(1), value: vec![Expr::UInt(2)] };
        let mk = |body: Vec<Stmt>| Program {
            name: "prune".into(),
            creator: Participant { name: "C".into(), fields: vec![] },
            constructor: vec![],
            globals: vec![GlobalDecl {
                name: "live".into(),
                ty: Ty::UInt,
                init: GlobalInit::Const(1),
                viewable: false,
            }],
            maps: vec![MapDecl { name: "m".into(), value_bytes: 32 }],
            phases: vec![Phase {
                name: "p".into(),
                while_cond: Expr::Bin(
                    BinOp::Gt,
                    Box::new(Expr::Global("live".into())),
                    Box::new(Expr::UInt(0)),
                ),
                invariant: Expr::ge(Expr::global("live"), Expr::UInt(0)),
                apis: vec![Api {
                    name: "go".into(),
                    params: vec![],
                    pay: None,
                    body,
                    returns: Expr::UInt(0),
                }],
            }],
            spans: crate::diag::SpanTable::default(),
        };
        let dead = mk(vec![Stmt::If {
            cond: Expr::eq(Expr::UInt(0), Expr::UInt(1)),
            then: vec![expensive.clone()],
            otherwise: vec![],
        }]);
        let live = mk(vec![Stmt::If {
            cond: Expr::gt(Expr::global("live"), Expr::UInt(0)),
            then: vec![expensive],
            otherwise: vec![],
        }]);
        let dead_bound = certify(&dead).unwrap().method("go").unwrap().evm_exec;
        let live_bound = certify(&live).unwrap().method("go").unwrap().evm_exec;
        assert!(
            dead_bound + 20_000 < live_bound,
            "pruning had no effect: dead {dead_bound} vs live {live_bound}"
        );
    }

    #[test]
    fn render_and_json_are_stable() {
        let bounds = certify(&Program::counter_example()).expect("certifies");
        let text = bounds.render_text();
        assert!(text.contains("contract counter"));
        assert!(text.contains("constructor"));
        assert!(text.contains("bump"));
        let json = bounds.to_json("counter.pol", "");
        assert!(json.contains("\"block_gas_budget\": 30000000"));
        assert!(json.contains("\"form\": \"affine\""));
        assert!(json.contains("\"form\": \"const\""));
    }
}
