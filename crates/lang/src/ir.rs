//! A CFG-based intermediate representation for API and constructor
//! bodies, plus the dataflow passes that run over it.
//!
//! The surface language has structured control flow only (`if`/`else`,
//! no loops), so every body lowers to a *directed acyclic* control-flow
//! graph whose blocks are created in topological order — each pass is a
//! single forward (or backward) sweep, no widening needed.
//!
//! Passes provided here:
//!
//! * **interval / constant propagation** — an abstract interpretation
//!   over `u64` intervals with guard refinement at `require` and branch
//!   edges; proves subtraction safety where the syntactic dominating-
//!   guard matcher of [`crate::verify`] gives up, folds constant
//!   conditions and discovers unreachable blocks;
//! * **reaching definitions** — which global assignments reach each
//!   block entry; powers def-use chains;
//! * **dead-store detection** — definitions whose value is never read
//!   (globals observable at normal exit count as read);
//! * **map lifetime** — the reachable `MapSet`/`MapDelete` sites per
//!   map, for the path-sensitive leaked-entry lint.
//!
//! The forward passes over one body are a [`BodyAnalysis`]; those of a
//! whole program are a [`ProgramFlows`], built once per compile and
//! borrowed by every consumer.

use crate::ast::{BinOp, Expr, GlobalInit, Program, Stmt};
use crate::dbm::{self, ZVar, Zone, ZoneStats};
use crate::diag::Owner;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------- IR --

/// A non-branching instruction, tagged with its source statement path
/// (see [`crate::diag::NodePath::Stmt`]).
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// `name = value`.
    Set {
        /// Global name.
        name: String,
        /// Assigned value.
        value: Expr,
        /// Source statement path.
        path: Vec<u32>,
    },
    /// `map[key] = commit(value…)`.
    MapPut {
        /// Map name.
        map: String,
        /// Key expression.
        key: Expr,
        /// Value parts.
        value: Vec<Expr>,
        /// Source statement path.
        path: Vec<u32>,
    },
    /// `delete map[key]`.
    MapDel {
        /// Map name.
        map: String,
        /// Key expression.
        key: Expr,
        /// Source statement path.
        path: Vec<u32>,
    },
    /// `transfer(to, amount)`.
    Transfer {
        /// Recipient.
        to: Expr,
        /// Amount.
        amount: Expr,
        /// Source statement path.
        path: Vec<u32>,
    },
    /// `log(parts…)`.
    Emit {
        /// Logged parts.
        parts: Vec<Expr>,
        /// Source statement path.
        path: Vec<u32>,
    },
}

impl Inst {
    /// The source statement path of the instruction.
    pub(crate) fn path(&self) -> &[u32] {
        match self {
            Inst::Set { path, .. }
            | Inst::MapPut { path, .. }
            | Inst::MapDel { path, .. }
            | Inst::Transfer { path, .. }
            | Inst::Emit { path, .. } => path,
        }
    }

    /// All expressions the instruction evaluates.
    fn exprs(&self) -> Vec<&Expr> {
        match self {
            Inst::Set { value, .. } => vec![value],
            Inst::MapPut { key, value, .. } => {
                let mut v = vec![key];
                v.extend(value.iter());
                v
            }
            Inst::MapDel { key, .. } => vec![key],
            Inst::Transfer { to, amount, .. } => vec![to, amount],
            Inst::Emit { parts, .. } => parts.iter().collect(),
        }
    }
}

/// Where a `Require` terminator came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Src {
    /// A source `require(…)` statement at this path.
    Stmt(Vec<u32>),
    /// The phase's `while` condition, checked at API entry.
    PhaseCond,
}

/// Block terminators.
#[derive(Debug, Clone)]
pub(crate) enum Term {
    /// Unconditional fallthrough.
    Goto(usize),
    /// Two-way branch on a condition (an `if` statement).
    Branch {
        /// Condition.
        cond: Expr,
        /// Block when true.
        then_b: usize,
        /// Block when false.
        else_b: usize,
        /// Source statement path of the `if`.
        path: Vec<u32>,
    },
    /// Revert unless the condition holds, else continue.
    Require {
        /// Condition.
        cond: Expr,
        /// Successor when the condition holds.
        next: usize,
        /// Provenance.
        src: Src,
    },
    /// Normal exit of the body.
    Return,
}

/// One basic block.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
    /// Whether the block's `Goto` closes the *then*-arm of an `if`: the
    /// backends emit a real jump there (`PUSH; JUMP` on the EVM, `b` on
    /// the AVM) while the else side falls through into the join label.
    pub closes_then: bool,
}

/// A lowered body. Block 0 is the entry; successor edges always point
/// at higher block indices (the builder emits blocks topologically).
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    /// Blocks in topological order.
    pub blocks: Vec<Block>,
    /// The body this CFG was lowered from.
    pub owner: Owner,
}

impl Cfg {
    /// Successor block indices of a block.
    pub(crate) fn successors(&self, b: usize) -> Vec<usize> {
        match &self.blocks[b].term {
            Term::Goto(n) => vec![*n],
            Term::Branch { then_b, else_b, .. } => vec![*then_b, *else_b],
            Term::Require { next, .. } => vec![*next],
            Term::Return => vec![],
        }
    }

    /// Predecessor lists for every block.
    pub(crate) fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in 0..self.blocks.len() {
            for s in self.successors(b) {
                preds[s].push(b);
            }
        }
        preds
    }
}

struct Builder {
    blocks: Vec<Block>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block { insts: Vec::new(), term: Term::Return, closes_then: false });
        self.blocks.len() - 1
    }

    /// Lowers a statement list into `cur`, returning the block that
    /// control reaches afterwards.
    fn lower_stmts(&mut self, mut cur: usize, stmts: &[Stmt], prefix: &mut Vec<u32>) -> usize {
        for (i, stmt) in stmts.iter().enumerate() {
            prefix.push(i as u32);
            match stmt {
                Stmt::Require(cond) => {
                    let next = self.new_block();
                    self.blocks[cur].term =
                        Term::Require { cond: cond.clone(), next, src: Src::Stmt(prefix.clone()) };
                    cur = next;
                }
                Stmt::If { cond, then, otherwise } => {
                    let then_b = self.new_block();
                    let else_b = self.new_block();
                    self.blocks[cur].term =
                        Term::Branch { cond: cond.clone(), then_b, else_b, path: prefix.clone() };
                    prefix.push(0);
                    let then_end = self.lower_stmts(then_b, then, prefix);
                    prefix.pop();
                    prefix.push(1);
                    let else_end = self.lower_stmts(else_b, otherwise, prefix);
                    prefix.pop();
                    let join = self.new_block();
                    self.blocks[then_end].term = Term::Goto(join);
                    self.blocks[then_end].closes_then = true;
                    self.blocks[else_end].term = Term::Goto(join);
                    cur = join;
                }
                Stmt::GlobalSet { name, value } => self.blocks[cur].insts.push(Inst::Set {
                    name: name.clone(),
                    value: value.clone(),
                    path: prefix.clone(),
                }),
                Stmt::MapSet { map, key, value } => self.blocks[cur].insts.push(Inst::MapPut {
                    map: map.clone(),
                    key: key.clone(),
                    value: value.clone(),
                    path: prefix.clone(),
                }),
                Stmt::MapDelete { map, key } => self.blocks[cur].insts.push(Inst::MapDel {
                    map: map.clone(),
                    key: key.clone(),
                    path: prefix.clone(),
                }),
                Stmt::Transfer { to, amount } => self.blocks[cur].insts.push(Inst::Transfer {
                    to: to.clone(),
                    amount: amount.clone(),
                    path: prefix.clone(),
                }),
                Stmt::Log(parts) => self.blocks[cur]
                    .insts
                    .push(Inst::Emit { parts: parts.clone(), path: prefix.clone() }),
            }
            prefix.pop();
        }
        cur
    }
}

/// Lowers one API body (the phase's `while` condition becomes an entry
/// `Require`, as the generated code checks it before the body runs).
pub(crate) fn lower_api(program: &Program, phase_idx: usize, api_idx: usize) -> Cfg {
    let phase = &program.phases[phase_idx];
    let api = &phase.apis[api_idx];
    let mut b = Builder { blocks: Vec::new() };
    let entry = b.new_block();
    let body_start = b.new_block();
    b.blocks[entry].term =
        Term::Require { cond: phase.while_cond.clone(), next: body_start, src: Src::PhaseCond };
    b.lower_stmts(body_start, &api.body, &mut Vec::new());
    Cfg { blocks: b.blocks, owner: Owner::Api { phase: phase_idx as u32, api: api_idx as u32 } }
}

/// Lowers the constructor body.
pub(crate) fn lower_constructor(program: &Program) -> Cfg {
    let mut b = Builder { blocks: Vec::new() };
    let entry = b.new_block();
    b.lower_stmts(entry, &program.constructor, &mut Vec::new());
    Cfg { blocks: b.blocks, owner: Owner::Constructor }
}

// --------------------------------------------------- interval domain --

/// A `u64` interval `[lo, hi]`; booleans live in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Itv {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Itv {
    /// The full range (no information).
    pub(crate) const TOP: Itv = Itv { lo: 0, hi: u64::MAX };
    /// The boolean range.
    pub(crate) const BOOL: Itv = Itv { lo: 0, hi: 1 };

    /// A single value.
    pub(crate) fn exact(v: u64) -> Itv {
        Itv { lo: v, hi: v }
    }

    /// `Some(v)` when the interval is the single value `v`.
    pub(crate) fn as_const(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn join(a: Itv, b: Itv) -> Itv {
        Itv { lo: a.lo.min(b.lo), hi: a.hi.max(b.hi) }
    }

    /// Intersection; `None` when empty (an infeasible fact).
    fn meet(a: Itv, b: Itv) -> Option<Itv> {
        let lo = a.lo.max(b.lo);
        let hi = a.hi.min(b.hi);
        (lo <= hi).then_some(Itv { lo, hi })
    }
}

/// An abstract variable tracked by the interval analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Var {
    Global(String),
    Param(String),
    Balance,
}

/// An abstract store: variables not present map to [`Itv::TOP`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Env {
    vars: HashMap<Var, Itv>,
}

impl Env {
    fn get(&self, v: &Var) -> Itv {
        self.vars.get(v).copied().unwrap_or(Itv::TOP)
    }

    fn set(&mut self, v: Var, itv: Itv) {
        if itv == Itv::TOP {
            self.vars.remove(&v);
        } else {
            self.vars.insert(v, itv);
        }
    }

    /// Evaluates an expression to its interval at this store — the
    /// read-only view the access-summary pass uses to narrow map-key
    /// expressions (overflow tracking is the analysis's concern, not
    /// the caller's).
    pub(crate) fn interval_of(&self, expr: &Expr) -> Itv {
        let mut overflow = false;
        self.eval(expr, &mut overflow)
    }

    /// Pointwise join; variables known on only one side become TOP.
    fn join(a: &Env, b: &Env) -> Env {
        let mut out = Env::default();
        for (k, va) in &a.vars {
            if let Some(vb) = b.vars.get(k) {
                out.set(k.clone(), Itv::join(*va, *vb));
            }
        }
        out
    }

    /// Evaluates an expression to an interval. Sets `overflow` when the
    /// arithmetic *must* overflow `u64` (lower bounds already overflow).
    fn eval(&self, expr: &Expr, overflow: &mut bool) -> Itv {
        match expr {
            Expr::UInt(v) => Itv::exact(*v),
            Expr::Param(p) => self.get(&Var::Param(p.clone())),
            Expr::Global(g) => self.get(&Var::Global(g.clone())),
            Expr::Balance => self.get(&Var::Balance),
            Expr::Caller | Expr::MapGet { .. } | Expr::Hash(_) => Itv::TOP,
            Expr::MapContains { .. } => Itv::BOOL,
            Expr::Not(inner) => {
                let v = self.eval(inner, overflow);
                match v.as_const() {
                    Some(0) => Itv::exact(1),
                    Some(_) => Itv::exact(0),
                    None => Itv::BOOL,
                }
            }
            Expr::Bin(op, lhs, rhs) => {
                let a = self.eval(lhs, overflow);
                let b = self.eval(rhs, overflow);
                match op {
                    BinOp::Add => {
                        if a.lo.checked_add(b.lo).is_none() {
                            *overflow = true;
                        }
                        // If the high end can wrap, the runtime result
                        // may be anything (EVM arithmetic is modular),
                        // so the low bound is unsound too: widen to TOP.
                        match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
                            (Some(lo), Some(hi)) => Itv { lo, hi },
                            _ => Itv::TOP,
                        }
                    }
                    BinOp::Mul => {
                        if a.lo.checked_mul(b.lo).is_none() {
                            *overflow = true;
                        }
                        match (a.lo.checked_mul(b.lo), a.hi.checked_mul(b.hi)) {
                            (Some(lo), Some(hi)) => Itv { lo, hi },
                            _ => Itv::TOP,
                        }
                    }
                    BinOp::Sub => {
                        if a.hi.checked_sub(b.lo).is_none() {
                            *overflow = true;
                        }
                        // Like Add/Mul: if the low end can wrap, the EVM
                        // result may be anything, so a saturated bound
                        // would be unsound — subtractions in guard
                        // positions are never V0102-checked, and a guard
                        // like `require(a <= p - q)` must not launder a
                        // wrapping `p - q` into a tight bound on `a`.
                        match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
                            (Some(lo), Some(hi)) => Itv { lo, hi },
                            _ => Itv::TOP,
                        }
                    }
                    BinOp::Div => match a.hi.checked_div(b.lo) {
                        // Division by zero yields 0 on both VMs' checked
                        // paths; stay conservative.
                        None => Itv { lo: 0, hi: a.hi },
                        Some(hi) => Itv { lo: a.lo / b.hi, hi },
                    },
                    BinOp::Lt => Itv::cmp_result(a.hi < b.lo, a.lo >= b.hi),
                    BinOp::Gt => Itv::cmp_result(a.lo > b.hi, a.hi <= b.lo),
                    BinOp::Le => Itv::cmp_result(a.hi <= b.lo, a.lo > b.hi),
                    BinOp::Ge => Itv::cmp_result(a.lo >= b.hi, a.hi < b.lo),
                    BinOp::Eq => {
                        if uint_comparable(lhs) && uint_comparable(rhs) {
                            match (a.as_const(), b.as_const()) {
                                (Some(x), Some(y)) if x == y => Itv::exact(1),
                                _ if a.hi < b.lo || b.hi < a.lo => Itv::exact(0),
                                _ => Itv::BOOL,
                            }
                        } else {
                            Itv::BOOL
                        }
                    }
                    BinOp::Ne => {
                        if uint_comparable(lhs) && uint_comparable(rhs) {
                            match (a.as_const(), b.as_const()) {
                                (Some(x), Some(y)) if x == y => Itv::exact(0),
                                _ if a.hi < b.lo || b.hi < a.lo => Itv::exact(1),
                                _ => Itv::BOOL,
                            }
                        } else {
                            Itv::BOOL
                        }
                    }
                    BinOp::And => {
                        let (ca, cb) = (a.as_const(), b.as_const());
                        if ca == Some(0) || cb == Some(0) {
                            Itv::exact(0)
                        } else if ca.is_some_and(|v| v != 0) && cb.is_some_and(|v| v != 0) {
                            Itv::exact(1)
                        } else {
                            Itv::BOOL
                        }
                    }
                    BinOp::Or => {
                        let (ca, cb) = (a.as_const(), b.as_const());
                        if ca.is_some_and(|v| v != 0) || cb.is_some_and(|v| v != 0) {
                            Itv::exact(1)
                        } else if ca == Some(0) && cb == Some(0) {
                            Itv::exact(0)
                        } else {
                            Itv::BOOL
                        }
                    }
                }
            }
        }
    }
}

impl Itv {
    fn cmp_result(definitely: bool, definitely_not: bool) -> Itv {
        if definitely {
            Itv::exact(1)
        } else if definitely_not {
            Itv::exact(0)
        } else {
            Itv::BOOL
        }
    }
}

/// Whether interval comparison of this expression is meaningful (UInt
/// arithmetic, not an opaque address/byte value).
fn uint_comparable(expr: &Expr) -> bool {
    !matches!(expr, Expr::Caller | Expr::MapGet { .. } | Expr::Hash(_))
}

fn as_var(expr: &Expr) -> Option<Var> {
    match expr {
        Expr::Param(p) => Some(Var::Param(p.clone())),
        Expr::Global(g) => Some(Var::Global(g.clone())),
        Expr::Balance => Some(Var::Balance),
        _ => None,
    }
}

/// Refines `env` under the assumption `cond == truth`. Returns `false`
/// when the assumption is infeasible (the refined edge is dead).
fn refine(env: &mut Env, cond: &Expr, truth: bool) -> bool {
    let mut of = false;
    if let Some(c) = env.eval(cond, &mut of).as_const() {
        if (c != 0) != truth {
            return false;
        }
    }
    match cond {
        Expr::Not(inner) => refine(env, inner, !truth),
        Expr::Bin(BinOp::And, lhs, rhs) if truth => {
            refine(env, lhs, true) && refine(env, rhs, true)
        }
        Expr::Bin(BinOp::Or, lhs, rhs) if !truth => {
            refine(env, lhs, false) && refine(env, rhs, false)
        }
        Expr::Bin(op, lhs, rhs)
            if matches!(
                op,
                BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
            ) =>
        {
            // Constrain a variable on either side against the other
            // side's interval.
            let mut feasible = true;
            if let Some(v) = as_var(lhs) {
                let bound = env.eval(rhs, &mut of);
                feasible &= constrain(env, &v, *op, bound, truth);
            }
            if feasible {
                if let Some(v) = as_var(rhs) {
                    let bound = env.eval(lhs, &mut of);
                    feasible &= constrain(env, &v, mirror(*op), bound, truth);
                }
            }
            feasible
        }
        _ => true,
    }
}

/// The comparison as seen from the right operand (`a < b` ⇔ `b > a`).
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Applies `v OP bound == truth` to the variable's interval. Returns
/// `false` when the resulting interval is empty.
fn constrain(env: &mut Env, v: &Var, op: BinOp, bound: Itv, truth: bool) -> bool {
    let cur = env.get(v);
    // Normalise to the asserted relation.
    let op = if truth {
        op
    } else {
        match op {
            BinOp::Lt => BinOp::Ge,
            BinOp::Ge => BinOp::Lt,
            BinOp::Gt => BinOp::Le,
            BinOp::Le => BinOp::Gt,
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            other => other,
        }
    };
    let refined = match op {
        // v < bound ⇒ v ≤ bound.hi - 1.
        BinOp::Lt => match bound.hi.checked_sub(1) {
            Some(h) => Itv::meet(cur, Itv { lo: 0, hi: h }),
            None => None,
        },
        BinOp::Le => Itv::meet(cur, Itv { lo: 0, hi: bound.hi }),
        // v > bound ⇒ v ≥ bound.lo + 1.
        BinOp::Gt => match bound.lo.checked_add(1) {
            Some(l) => Itv::meet(cur, Itv { lo: l, hi: u64::MAX }),
            None => None,
        },
        BinOp::Ge => Itv::meet(cur, Itv { lo: bound.lo, hi: u64::MAX }),
        BinOp::Eq => Itv::meet(cur, bound),
        BinOp::Ne => match (cur.as_const(), bound.as_const()) {
            (Some(a), Some(b)) if a == b => None,
            _ => Some(cur),
        },
        _ => Some(cur),
    };
    match refined {
        Some(itv) => {
            env.set(v.clone(), itv);
            true
        }
        None => false,
    }
}

// ------------------------------------------------------ body analysis --

/// A constant-folded condition discovered by the flow analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConstCond {
    /// Where the condition came from.
    pub src: Src,
    /// Its constant truth value.
    pub value: bool,
}

/// How a subtraction theorem was (or was not) discharged by the flow
/// analyses. See [`BodyAnalysis::sub_safety`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubProof {
    /// The non-relational interval domain proved `minuend ≥ subtrahend`.
    Interval,
    /// The interval domain gave up but the relational zone domain
    /// ([`crate::dbm`]) entails the bound from the path conditions.
    Relational,
    /// Neither domain can prove the subtraction safe.
    Unproven,
}

/// The result of running all forward passes over one body.
#[derive(Debug)]
pub(crate) struct BodyAnalysis {
    /// The lowered CFG.
    pub cfg: Cfg,
    /// Entry env per block; `None` = unreachable.
    pub envs: Vec<Option<Env>>,
    /// Abstract store immediately before each instruction, by path.
    stmt_envs: HashMap<Vec<u32>, Env>,
    /// Zone immediately before each instruction, by path (empty when
    /// the relational pass is disabled).
    stmt_zones: HashMap<Vec<u32>, Zone>,
    /// Conditions that folded to a constant on every reachable path.
    pub const_conds: Vec<ConstCond>,
    /// Instruction paths whose arithmetic must overflow `u64`.
    pub definite_overflows: Vec<Vec<u32>>,
    /// `Require` sites the interval domain considers feasible but whose
    /// accumulated path conditions the zone solver proves
    /// unsatisfiable — dead `require` chains (lint L0006).
    pub unsat_requires: Vec<Src>,
    /// Aggregate solver counters for this body.
    pub zone_stats: ZoneStats,
}

/// The flow analysis of every body of one program: the single set of
/// static facts the verifier, the lints, the access summaries, the gas
/// certificates and the bytecode cross-check all borrow. Built once per
/// compile (see [`crate::backend::compile`]).
#[derive(Debug)]
pub(crate) struct ProgramFlows {
    /// The constructor body.
    pub constructor: BodyAnalysis,
    /// API bodies, indexed `[phase][api]`.
    pub apis: Vec<Vec<BodyAnalysis>>,
}

impl ProgramFlows {
    /// Analyses every body once; `relational` toggles the zone pass.
    pub(crate) fn new(program: &Program, relational: bool) -> ProgramFlows {
        let apis = program.phases.iter().enumerate().map(|(pi, phase)| {
            (0..phase.apis.len()).map(|ai| analyze_api(program, pi, ai, relational)).collect()
        });
        ProgramFlows { constructor: analyze_constructor(program, relational), apis: apis.collect() }
    }

    /// Every body: the constructor, then the APIs in dispatch order.
    pub(crate) fn bodies(&self) -> impl Iterator<Item = &BodyAnalysis> {
        std::iter::once(&self.constructor).chain(self.apis.iter().flatten())
    }
}

/// Runs the interval analysis (and, when `relational`, the zone pass)
/// over one API body.
pub(crate) fn analyze_api(
    program: &Program,
    phase_idx: usize,
    api_idx: usize,
    relational: bool,
) -> BodyAnalysis {
    let cfg = lower_api(program, phase_idx, api_idx);
    run_flow(cfg, entry_env_api(program), relational.then(Zone::new))
}

/// Runs the interval analysis (and, when `relational`, the zone pass)
/// over the constructor body.
pub(crate) fn analyze_constructor(program: &Program, relational: bool) -> BodyAnalysis {
    let cfg = lower_constructor(program);
    let zone = relational.then(|| {
        let mut z = Zone::new();
        let mut stats = ZoneStats::default();
        for g in &program.globals {
            if let GlobalInit::Const(v) = g.init {
                z.assign_bounds(&ZVar::Global(g.name.clone()), v, v, &mut stats);
            }
        }
        z
    });
    run_flow(cfg, entry_env_constructor(program), zone)
}

/// API entry: globals hold arbitrary values (any number of calls may
/// have preceded this one), parameters are adversarial.
fn entry_env_api(_program: &Program) -> Env {
    Env::default()
}

/// Constructor entry: constant-initialised globals hold their exact
/// value; field-initialised ones are arbitrary.
fn entry_env_constructor(program: &Program) -> Env {
    let mut env = Env::default();
    for g in &program.globals {
        if let GlobalInit::Const(v) = g.init {
            env.set(Var::Global(g.name.clone()), Itv::exact(v));
        }
    }
    env
}

/// Merges an incoming zone into a successor's entry zone.
fn feed_zone(zones: &mut [Option<Zone>], succ: usize, incoming: Zone, stats: &mut ZoneStats) {
    zones[succ] = Some(match zones[succ].take() {
        Some(existing) => Zone::join(&existing, &incoming, stats),
        None => incoming,
    });
}

/// Transfers `name := value` over the zone. Assignments of the shape
/// `src ± k` keep their relational content when the zone proves the
/// arithmetic wrap-free; everything else degrades to the interval
/// bounds of the assigned value (which is still sound and lets later
/// relational queries chain with interval facts).
fn zone_assign(zone: &mut Zone, name: &str, value: &Expr, itv: Itv, stats: &mut ZoneStats) {
    let dst = ZVar::Global(name.to_string());
    match dbm::term(value) {
        Some((Some(src), k)) if dbm::term_wrap_free(zone, &(Some(src.clone()), k)) => {
            if src == dst {
                zone.shift(&dst, k);
            } else {
                zone.assign_var(&dst, &src, k, stats);
            }
        }
        _ => zone.assign_bounds(&dst, itv.lo, itv.hi, stats),
    }
}

fn run_flow(cfg: Cfg, entry: Env, entry_zone: Option<Zone>) -> BodyAnalysis {
    let n = cfg.blocks.len();
    let mut envs: Vec<Option<Env>> = vec![None; n];
    envs[0] = Some(entry);
    let mut zones: Vec<Option<Zone>> = vec![None; n];
    zones[0] = entry_zone;
    let mut stmt_envs = HashMap::new();
    let mut stmt_zones = HashMap::new();
    let mut const_conds = Vec::new();
    let mut definite_overflows = Vec::new();
    let mut unsat_requires = Vec::new();
    let mut stats = ZoneStats::default();

    // Blocks are emitted topologically, so one in-order sweep reaches a
    // fixpoint on this DAG. The zone rides along with the interval env
    // as a *pure refinement*: reachability (which edges feed) stays
    // interval-driven, so enabling the zone can only discharge more
    // theorems, never change which lints fire (monotone precision).
    for b in 0..n {
        let Some(mut env) = envs[b].clone() else { continue };
        let mut zone = zones[b].clone();
        for inst in &cfg.blocks[b].insts {
            stmt_envs.insert(inst.path().to_vec(), env.clone());
            if let Some(z) = &zone {
                stmt_zones.insert(inst.path().to_vec(), z.clone());
            }
            let mut overflow = false;
            for e in inst.exprs() {
                let _ = env.eval(e, &mut overflow);
            }
            if overflow {
                definite_overflows.push(inst.path().to_vec());
            }
            match inst {
                Inst::Set { name, value, .. } => {
                    let mut of = false;
                    let itv = env.eval(value, &mut of);
                    if let Some(z) = zone.as_mut() {
                        zone_assign(z, name, value, itv, &mut stats);
                    }
                    env.set(Var::Global(name.clone()), itv);
                }
                Inst::Transfer { .. } => {
                    // The balance shrinks by a dynamic amount.
                    env.set(Var::Balance, Itv::TOP);
                    if let Some(z) = zone.as_mut() {
                        z.forget(&ZVar::Balance);
                    }
                }
                _ => {}
            }
        }
        let feed = |envs: &mut Vec<Option<Env>>, succ: usize, incoming: Env| {
            envs[succ] = Some(match envs[succ].take() {
                Some(existing) => Env::join(&existing, &incoming),
                None => incoming,
            });
        };
        match cfg.blocks[b].term.clone() {
            Term::Goto(next) => {
                feed(&mut envs, next, env);
                if let Some(z) = zone {
                    feed_zone(&mut zones, next, z, &mut stats);
                }
            }
            Term::Require { cond, next, src } => {
                let mut of = false;
                if let Some(c) = env.eval(&cond, &mut of).as_const() {
                    const_conds.push(ConstCond { src: src.clone(), value: c != 0 });
                }
                let mut pass = env;
                let interval_ok = refine(&mut pass, &cond, true);
                let mut zpass = zone;
                if let Some(z) = zpass.as_mut() {
                    let zone_ok = dbm::assume(z, &cond, true, &mut stats);
                    if interval_ok && !zone_ok {
                        unsat_requires.push(src.clone());
                    }
                }
                if interval_ok {
                    feed(&mut envs, next, pass);
                    // A zone-unsat edge is fed anyway (sound: an unsat
                    // zone entails everything) so reachability and every
                    // interval-driven lint stay byte-identical with the
                    // relational pass on or off.
                    if let Some(z) = zpass {
                        feed_zone(&mut zones, next, z, &mut stats);
                    }
                }
            }
            Term::Branch { cond, then_b, else_b, path } => {
                let mut of = false;
                if let Some(c) = env.eval(&cond, &mut of).as_const() {
                    const_conds.push(ConstCond { src: Src::Stmt(path.clone()), value: c != 0 });
                }
                let mut t_env = env.clone();
                if refine(&mut t_env, &cond, true) {
                    feed(&mut envs, then_b, t_env);
                    if let Some(z) = &zone {
                        let mut zt = z.clone();
                        dbm::assume(&mut zt, &cond, true, &mut stats);
                        feed_zone(&mut zones, then_b, zt, &mut stats);
                    }
                }
                let mut f_env = env;
                if refine(&mut f_env, &cond, false) {
                    feed(&mut envs, else_b, f_env);
                    if let Some(z) = zone {
                        let mut zf = z.clone();
                        dbm::assume(&mut zf, &cond, false, &mut stats);
                        feed_zone(&mut zones, else_b, zf, &mut stats);
                    }
                }
            }
            Term::Return => {}
        }
    }

    BodyAnalysis {
        cfg,
        envs,
        stmt_envs,
        stmt_zones,
        const_conds,
        definite_overflows,
        unsat_requires,
        zone_stats: stats,
    }
}

/// A global-definition site found by the reaching-definitions pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Def {
    /// Defined global.
    pub name: String,
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub inst: usize,
    /// Source statement path.
    pub path: Vec<u32>,
}

impl BodyAnalysis {
    /// Whether block `b` is reachable from the entry.
    pub(crate) fn reachable(&self, b: usize) -> bool {
        self.envs[b].is_some()
    }

    /// The reachable blocks with their indices, in topological order.
    pub(crate) fn reachable_blocks(&self) -> impl Iterator<Item = (usize, &Block)> {
        self.cfg.blocks.iter().enumerate().filter(|(b, _)| self.reachable(*b))
    }

    /// Whether the interval analysis proves `minuend - subtrahend`
    /// cannot underflow at the statement with this path. This is the
    /// fallback consulted when the syntactic guard matcher gives up.
    pub(crate) fn proves_sub_safe(&self, path: &[u32], minuend: &Expr, subtrahend: &Expr) -> bool {
        let Some(env) = self.stmt_envs.get(path) else { return false };
        let mut of = false;
        let m = env.eval(minuend, &mut of);
        let s = env.eval(subtrahend, &mut of);
        m.lo >= s.hi
    }

    /// How (if at all) `minuend - subtrahend` at this statement is
    /// proven underflow-free: intervals first, then the relational zone
    /// domain over the accumulated path conditions.
    pub(crate) fn sub_safety(&self, path: &[u32], minuend: &Expr, subtrahend: &Expr) -> SubProof {
        if self.proves_sub_safe(path, minuend, subtrahend) {
            return SubProof::Interval;
        }
        if let Some(zone) = self.stmt_zones.get(path) {
            if dbm::entails_ge(zone, minuend, subtrahend) {
                return SubProof::Relational;
            }
        }
        SubProof::Unproven
    }

    /// The zone at a statement, for callers layering extra relational
    /// queries (e.g. the cross-contract conservation check).
    pub(crate) fn zone_at(&self, path: &[u32]) -> Option<&Zone> {
        self.stmt_zones.get(path)
    }

    /// The abstract store observed just before the statement at `path`
    /// (`None` when the statement is unreachable).
    pub(crate) fn env_at(&self, path: &[u32]) -> Option<&Env> {
        self.stmt_envs.get(path)
    }

    /// The abstract store at a block's terminator: the block-entry
    /// store with the block's assignments replayed — the same transfer
    /// function `run_flow` applies, minus the relational zone. Lets the
    /// access-summary pass narrow map keys read inside `if`/`require`
    /// conditions soundly.
    pub(crate) fn term_env(&self, b: usize) -> Option<Env> {
        let mut env = self.envs.get(b)?.clone()?;
        for inst in &self.cfg.blocks[b].insts {
            match inst {
                Inst::Set { name, value, .. } => {
                    let itv = env.interval_of(value);
                    env.set(Var::Global(name.clone()), itv);
                }
                Inst::Transfer { .. } => env.set(Var::Balance, Itv::TOP),
                _ => {}
            }
        }
        Some(env)
    }

    /// Source paths of statements that can never execute, one per
    /// unreachable region (the first instruction of each unreachable
    /// block all of whose predecessors are reachable-or-entry).
    pub(crate) fn unreachable_stmts(&self) -> Vec<Vec<u32>> {
        let preds = self.cfg.predecessors();
        let mut out = Vec::new();
        for (b, block_preds) in preds.iter().enumerate() {
            if self.reachable(b) || self.cfg.blocks[b].insts.is_empty() {
                continue;
            }
            // Frontier blocks only: a reachable predecessor exists, so
            // this is where the dead region starts.
            if block_preds.iter().any(|p| self.reachable(*p)) {
                out.push(self.cfg.blocks[b].insts[0].path().to_vec());
            }
        }
        out
    }

    /// Reaching definitions: all global-definition sites, plus for each
    /// block the set of definition indices reaching its entry.
    pub(crate) fn reaching_defs(&self) -> (Vec<Def>, Vec<HashSet<usize>>) {
        let n = self.cfg.blocks.len();
        let mut defs = Vec::new();
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Inst::Set { name, path, .. } = inst {
                    defs.push(Def { name: name.clone(), block: b, inst: i, path: path.clone() });
                }
            }
        }
        let gen_kill = |b: usize, input: &HashSet<usize>| -> HashSet<usize> {
            let mut out = input.clone();
            for (i, inst) in self.cfg.blocks[b].insts.iter().enumerate() {
                if let Inst::Set { name, .. } = inst {
                    let d = defs
                        .iter()
                        .position(|def| def.block == b && def.inst == i)
                        .expect("def indexed");
                    // A definition kills every other definition of the
                    // same name and generates itself.
                    out.retain(|o| defs[*o].name != *name);
                    out.insert(d);
                }
            }
            out
        };
        let mut ins: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        // One topological sweep suffices on the DAG.
        let mut outs: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for (b, _) in self.reachable_blocks() {
            outs[b] = gen_kill(b, &ins[b]);
            for s in self.cfg.successors(b) {
                ins[s] = ins[s].union(&outs[b]).copied().collect();
            }
        }
        (defs, ins)
    }

    /// Dead stores: reachable global assignments whose value no later
    /// read can observe. Globals live at a normal `Return` count as
    /// read (they are observable through views and later calls), so
    /// only assignments overwritten before any use are flagged.
    pub(crate) fn dead_stores(&self) -> Vec<Def> {
        let (defs, ins) = self.reaching_defs();
        if defs.is_empty() {
            return Vec::new();
        }
        let mut used: Vec<bool> = vec![false; defs.len()];
        for (b, block) in self.reachable_blocks() {
            // current[name] = def ids currently reaching this point.
            let mut current: HashMap<&str, Vec<usize>> = HashMap::new();
            for &d in &ins[b] {
                current.entry(defs[d].name.as_str()).or_default().push(d);
            }
            let mark_reads =
                |current: &HashMap<&str, Vec<usize>>, used: &mut Vec<bool>, exprs: Vec<&Expr>| {
                    let mut reads = Vec::new();
                    for e in exprs {
                        expr_global_reads(e, &mut reads);
                    }
                    for name in reads {
                        if let Some(ds) = current.get(name.as_str()) {
                            for &d in ds {
                                used[d] = true;
                            }
                        }
                    }
                };
            for (i, inst) in block.insts.iter().enumerate() {
                mark_reads(&current, &mut used, inst.exprs());
                if let Inst::Set { name, .. } = inst {
                    let d = defs
                        .iter()
                        .position(|def| def.block == b && def.inst == i)
                        .expect("def indexed");
                    current.insert(name.as_str(), vec![d]);
                }
            }
            match &block.term {
                Term::Branch { cond, .. } | Term::Require { cond, .. } => {
                    mark_reads(&current, &mut used, vec![cond]);
                }
                Term::Return => {
                    // Every global is observable after a normal exit.
                    for ds in current.values() {
                        for &d in ds {
                            used[d] = true;
                        }
                    }
                }
                Term::Goto(_) => {}
            }
        }
        defs.iter()
            .enumerate()
            .filter(|(d, def)| !used[*d] && self.reachable(def.block))
            .map(|(_, def)| def.clone())
            .collect()
    }

    /// Reachable map writes and deletes: `(map name, statement path)`.
    pub(crate) fn map_ops(&self) -> (Vec<MapSite>, Vec<MapSite>) {
        let mut puts = Vec::new();
        let mut dels = Vec::new();
        for (_, block) in self.reachable_blocks() {
            for inst in &block.insts {
                match inst {
                    Inst::MapPut { map, path, .. } => puts.push((map.clone(), path.clone())),
                    Inst::MapDel { map, path, .. } => dels.push((map.clone(), path.clone())),
                    _ => {}
                }
            }
        }
        (puts, dels)
    }
}

/// A reachable map operation site: `(map name, statement path)`.
pub(crate) type MapSite = (String, Vec<u32>);

/// Collects global names read by an expression.
fn expr_global_reads(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Global(g) => out.push(g.clone()),
        Expr::Bin(_, lhs, rhs) => {
            expr_global_reads(lhs, out);
            expr_global_reads(rhs, out);
        }
        Expr::Not(inner) => expr_global_reads(inner, out),
        Expr::Hash(parts) => {
            for p in parts {
                expr_global_reads(p, out);
            }
        }
        Expr::MapGet { key, .. } | Expr::MapContains { key, .. } => expr_global_reads(key, out),
        Expr::UInt(_) | Expr::Param(_) | Expr::Caller | Expr::Balance => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn counter_with_body(body: Vec<Stmt>) -> Program {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body = body;
        p
    }

    #[test]
    fn counter_lowers_to_dag() {
        let p = Program::counter_example();
        let cfg = lower_api(&p, 0, 0);
        // Every edge goes forward: topological by construction.
        for b in 0..cfg.blocks.len() {
            for s in cfg.successors(b) {
                assert!(s > b, "edge {b} -> {s} must go forward");
            }
        }
        let flow = analyze_api(&p, 0, 0, true);
        assert!(flow.envs.iter().all(|e| e.is_some()), "counter has no dead code");
        assert!(flow.const_conds.is_empty());
        assert!(flow.definite_overflows.is_empty());
    }

    #[test]
    fn then_side_mark_is_set_where_a_then_arm_closes() {
        // if by > 1 { if by > 2 { count = 1 } else { count = 2 } }
        // else { count = 3 }
        let set = |v| vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(v) }];
        let inner = Stmt::If {
            cond: Expr::gt(Expr::param("by"), Expr::UInt(2)),
            then: set(1),
            otherwise: set(2),
        };
        let p = counter_with_body(vec![Stmt::If {
            cond: Expr::gt(Expr::param("by"), Expr::UInt(1)),
            then: vec![inner],
            otherwise: set(3),
        }]);
        let cfg = lower_api(&p, 0, 0);
        // 0 entry require, 1 outer branch, 2 outer then = inner branch,
        // 3 outer else, 4 inner then, 5 inner else, 6 inner join (the
        // end of the outer then-arm), 7 outer join.
        let marked: Vec<usize> =
            (0..cfg.blocks.len()).filter(|&b| cfg.blocks[b].closes_then).collect();
        assert_eq!(marked, vec![4, 6]);
        assert!(matches!(cfg.blocks[4].term, Term::Goto(6)));
        assert!(matches!(cfg.blocks[5].term, Term::Goto(6)), "inner else falls through");
        assert!(matches!(cfg.blocks[6].term, Term::Goto(7)));
        assert!(matches!(cfg.blocks[3].term, Term::Goto(7)), "outer else falls through");
    }

    #[test]
    fn intervals_prove_guarded_subtraction() {
        // require(by >= 5); count = by - 3;  — the syntactic matcher
        // wants `by >= 3` or `by > 0`; intervals know by ∈ [5, MAX].
        let p = counter_with_body(vec![
            Stmt::Require(Expr::ge(Expr::param("by"), Expr::UInt(5))),
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::param("by"), Expr::UInt(3)),
            },
        ]);
        let flow = analyze_api(&p, 0, 0, true);
        assert!(flow.proves_sub_safe(&[1], &Expr::param("by"), &Expr::UInt(3)));
        assert!(!flow.proves_sub_safe(&[1], &Expr::param("by"), &Expr::UInt(6)));
    }

    #[test]
    fn unguarded_subtraction_not_proved() {
        let p = counter_with_body(vec![Stmt::GlobalSet {
            name: "count".into(),
            value: Expr::sub(Expr::global("count"), Expr::UInt(1)),
        }]);
        let flow = analyze_api(&p, 0, 0, true);
        assert!(!flow.proves_sub_safe(&[0], &Expr::global("count"), &Expr::UInt(1)));
    }

    #[test]
    fn contradictory_branch_is_unreachable() {
        // require(by >= 5); if by < 5 { count = 1; }
        let p = counter_with_body(vec![
            Stmt::Require(Expr::ge(Expr::param("by"), Expr::UInt(5))),
            Stmt::If {
                cond: Expr::Bin(BinOp::Lt, Box::new(Expr::param("by")), Box::new(Expr::UInt(5))),
                then: vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(1) }],
                otherwise: vec![],
            },
        ]);
        let flow = analyze_api(&p, 0, 0, true);
        let dead = flow.unreachable_stmts();
        assert_eq!(dead, vec![vec![1, 0, 0]]);
        assert!(flow.const_conds.iter().any(|c| c.src == Src::Stmt(vec![1]) && !c.value));
    }

    #[test]
    fn dead_store_detected_and_last_write_survives() {
        let p = counter_with_body(vec![
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(5) },
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(7) },
        ]);
        let flow = analyze_api(&p, 0, 0, true);
        let dead = flow.dead_stores();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].path, vec![0]);
    }

    #[test]
    fn store_read_before_overwrite_is_live() {
        let p = counter_with_body(vec![
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(5) },
            Stmt::GlobalSet { name: "remaining".into(), value: Expr::global("count") },
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(7) },
        ]);
        let flow = analyze_api(&p, 0, 0, true);
        assert!(flow.dead_stores().is_empty());
    }

    #[test]
    fn reaching_defs_flow_through_branches() {
        let p = counter_with_body(vec![Stmt::If {
            cond: Expr::gt(Expr::param("by"), Expr::UInt(1)),
            then: vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(1) }],
            otherwise: vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(2) }],
        }]);
        let flow = analyze_api(&p, 0, 0, true);
        let (defs, ins) = flow.reaching_defs();
        assert_eq!(defs.len(), 2);
        // The join block sees both definitions.
        let ret = flow.cfg.blocks.iter().position(|b| matches!(b.term, Term::Return)).unwrap();
        assert_eq!(ins[ret].len(), 2);
        // Neither is dead: both reach the return.
        assert!(flow.dead_stores().is_empty());
    }

    #[test]
    fn map_ops_skip_unreachable_sites() {
        let mut p = counter_with_body(vec![
            Stmt::MapSet {
                map: "m".into(),
                key: Expr::param("by"),
                value: vec![Expr::param("by")],
            },
            Stmt::If {
                cond: Expr::Bin(BinOp::Lt, Box::new(Expr::UInt(1)), Box::new(Expr::UInt(1))),
                then: vec![Stmt::MapDelete { map: "m".into(), key: Expr::param("by") }],
                otherwise: vec![],
            },
        ]);
        p.maps.push(MapDecl { name: "m".into(), value_bytes: 64 });
        let flow = analyze_api(&p, 0, 0, true);
        let (puts, dels) = flow.map_ops();
        assert_eq!(puts.len(), 1);
        assert!(dels.is_empty(), "the delete is behind an always-false branch");
    }

    #[test]
    fn definite_overflow_flagged() {
        let p = counter_with_body(vec![Stmt::GlobalSet {
            name: "count".into(),
            value: Expr::Bin(BinOp::Add, Box::new(Expr::UInt(u64::MAX)), Box::new(Expr::UInt(1))),
        }]);
        let flow = analyze_api(&p, 0, 0, true);
        assert_eq!(flow.definite_overflows, vec![vec![0]]);
    }

    #[test]
    fn constructor_constants_propagate() {
        let mut p = Program::counter_example();
        // count starts at 0; if count > 0 in the constructor is dead.
        p.constructor = vec![Stmt::If {
            cond: Expr::gt(Expr::global("count"), Expr::UInt(0)),
            then: vec![Stmt::Log(vec![Expr::UInt(1)])],
            otherwise: vec![],
        }];
        let flow = analyze_constructor(&p, true);
        assert_eq!(flow.unreachable_stmts(), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn zone_discharges_mirrored_guard() {
        // require(floor < by); count = by - floor; — the minuend sits
        // on the *right* of the comparison (mirrored form), so the
        // syntactic matcher fails, and with two opaque parameters the
        // intervals cannot relate them either. Only the zone proves it.
        let mut p = Program::counter_example();
        p.phases[0].apis[0].params.push(("floor".into(), Ty::UInt));
        p.phases[0].apis[0].body = vec![
            Stmt::Require(Expr::Bin(
                BinOp::Lt,
                Box::new(Expr::param("floor")),
                Box::new(Expr::param("by")),
            )),
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::param("by"), Expr::param("floor")),
            },
        ];
        let flow = analyze_api(&p, 0, 0, true);
        assert!(!flow.proves_sub_safe(&[1], &Expr::param("by"), &Expr::param("floor")));
        assert_eq!(
            flow.sub_safety(&[1], &Expr::param("by"), &Expr::param("floor")),
            SubProof::Relational
        );
        // Disabled: only the (failing) interval verdict remains.
        let base = analyze_api(&p, 0, 0, false);
        assert_eq!(
            base.sub_safety(&[1], &Expr::param("by"), &Expr::param("floor")),
            SubProof::Unproven
        );
        assert_eq!(base.zone_stats, ZoneStats::default());
    }

    #[test]
    fn zone_proves_transitive_chain() {
        // a > b, b > c ⊢ a - c safe.
        let mut p = Program::counter_example();
        for extra in ["a", "b", "c"] {
            p.phases[0].apis[0].params.push((extra.into(), Ty::UInt));
        }
        p.phases[0].apis[0].body = vec![
            Stmt::Require(Expr::gt(Expr::param("a"), Expr::param("b"))),
            Stmt::Require(Expr::gt(Expr::param("b"), Expr::param("c"))),
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::param("a"), Expr::param("c")),
            },
        ];
        let flow = analyze_api(&p, 0, 0, true);
        assert_eq!(
            flow.sub_safety(&[2], &Expr::param("a"), &Expr::param("c")),
            SubProof::Relational
        );
        assert!(flow.unsat_requires.is_empty());
        assert!(flow.zone_stats.constraints > 0);
    }

    #[test]
    fn zone_survives_tracked_decrement() {
        // require(count < remaining); remaining = remaining - 1 keeps
        // remaining ≥ count, so a later remaining - count is safe.
        let p = counter_with_body(vec![
            Stmt::Require(Expr::Bin(
                BinOp::Lt,
                Box::new(Expr::global("count")),
                Box::new(Expr::global("remaining")),
            )),
            Stmt::GlobalSet {
                name: "remaining".into(),
                value: Expr::sub(Expr::global("remaining"), Expr::UInt(1)),
            },
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::global("remaining"), Expr::global("count")),
            },
        ]);
        let flow = analyze_api(&p, 0, 0, true);
        assert_eq!(
            flow.sub_safety(&[2], &Expr::global("remaining"), &Expr::global("count")),
            SubProof::Relational
        );
    }

    #[test]
    fn contradictory_requires_recorded_as_unsat() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].params.push(("lo".into(), Ty::UInt));
        p.phases[0].apis[0].body = vec![
            Stmt::Require(Expr::gt(Expr::param("by"), Expr::param("lo"))),
            Stmt::Require(Expr::gt(Expr::param("lo"), Expr::param("by"))),
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(1) },
        ];
        let flow = analyze_api(&p, 0, 0, true);
        assert_eq!(flow.unsat_requires, vec![Src::Stmt(vec![1])]);
        // Reachability stays interval-driven: the trailing statement is
        // NOT reported unreachable (monotone with the zone off).
        assert!(flow.unreachable_stmts().is_empty());
        let base = analyze_api(&p, 0, 0, false);
        assert!(base.unsat_requires.is_empty());
    }
}
