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
//!
//! The interval passes allocate per body, not per statement or
//! variable. A per-program [`Names`] table gives every global and map a
//! dense id, and a body's [`Slots`] add its own parameters and the
//! balance; an abstract store is one `Itv` per slot;
//! instructions borrow their expressions from the AST and address their
//! statement paths in one arena per body; and the per-instruction facts
//! are flat vectors indexed by the instruction's position.

use crate::ast::{BinOp, Expr, GlobalInit, Program, Stmt, Ty};
use crate::diag::Owner;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

// ------------------------------------------------------------- names --

/// Dense ids for the names a program declares: each global (by its
/// first declaration) and each map. A name no declaration introduces
/// has no id: the interval analysis reads it as ⊤ and drops assignments
/// to it, which only an ill-typed program can ask for.
#[derive(Debug)]
pub(crate) struct Names<'p> {
    globals: HashMap<&'p str, usize>,
    maps: HashMap<&'p str, usize>,
}

impl<'p> Names<'p> {
    pub(crate) fn new(program: &'p Program) -> Names<'p> {
        /// Gives `name` the next id unless it has one.
        fn intern<'p>(table: &mut HashMap<&'p str, usize>, name: &'p str) {
            let next = table.len();
            table.entry(name).or_insert(next);
        }
        let mut globals = HashMap::with_capacity(program.globals.len());
        for g in &program.globals {
            intern(&mut globals, &g.name);
        }
        let mut maps = HashMap::with_capacity(program.maps.len());
        for m in &program.maps {
            intern(&mut maps, &m.name);
        }
        Names { globals, maps }
    }

    /// A map's id: its position among the distinct declared map names.
    pub(crate) fn map(&self, name: &str) -> Option<usize> {
        self.maps.get(name).copied()
    }
}

/// The store layout of one body: the program's globals, then the body's
/// own parameters (an API's, or the creator's fields in the
/// constructor), then the balance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slots<'a> {
    names: &'a Names<'a>,
    params: &'a [(String, Ty)],
}

impl Slots<'_> {
    /// Slots in a store.
    fn len(&self) -> usize {
        self.balance() + 1
    }

    fn balance(&self) -> usize {
        self.names.globals.len() + self.params.len()
    }

    /// The slot of a global.
    fn global(&self, name: &str) -> Option<usize> {
        self.names.globals.get(name).copied()
    }

    /// The slot an expression names, when it is a variable.
    fn var(&self, expr: &Expr) -> Option<usize> {
        match expr {
            Expr::Global(g) => self.global(g),
            Expr::Param(p) => {
                let i = self.params.iter().position(|(name, _)| name == p)?;
                Some(self.names.globals.len() + i)
            }
            Expr::Balance => Some(self.balance()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- IR --

/// A statement path (see [`crate::diag::NodePath::Stmt`]), stored in its
/// body's path arena; [`Cfg::path`] reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathId {
    start: u32,
    end: u32,
}

/// A non-branching instruction, borrowing its expressions from the AST
/// and tagged with its source statement path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Inst<'p> {
    /// `name = value`.
    Set {
        /// Global name.
        name: &'p str,
        /// Assigned value.
        value: &'p Expr,
        /// Source statement path.
        path: PathId,
    },
    /// `map[key] = commit(value…)`.
    MapPut {
        /// Map name.
        map: &'p str,
        /// Key expression.
        key: &'p Expr,
        /// Value parts.
        value: &'p [Expr],
        /// Source statement path.
        path: PathId,
    },
    /// `delete map[key]`.
    MapDel {
        /// Map name.
        map: &'p str,
        /// Key expression.
        key: &'p Expr,
        /// Source statement path.
        path: PathId,
    },
    /// `transfer(to, amount)`.
    Transfer {
        /// Recipient.
        to: &'p Expr,
        /// Amount.
        amount: &'p Expr,
        /// Source statement path.
        path: PathId,
    },
    /// `log(parts…)`.
    Emit {
        /// Logged parts.
        parts: &'p [Expr],
        /// Source statement path.
        path: PathId,
    },
}

impl<'p> Inst<'p> {
    /// The source statement path of the instruction.
    pub(crate) fn path(&self) -> PathId {
        match *self {
            Inst::Set { path, .. }
            | Inst::MapPut { path, .. }
            | Inst::MapDel { path, .. }
            | Inst::Transfer { path, .. }
            | Inst::Emit { path, .. } => path,
        }
    }

    /// All expressions the instruction evaluates, in evaluation order.
    fn exprs(&self) -> impl Iterator<Item = &'p Expr> {
        let (first, second, rest): (Option<&'p Expr>, Option<&'p Expr>, &'p [Expr]) = match *self {
            Inst::Set { value, .. } => (Some(value), None, &[]),
            Inst::MapPut { key, value, .. } => (Some(key), None, value),
            Inst::MapDel { key, .. } => (Some(key), None, &[]),
            Inst::Transfer { to, amount, .. } => (Some(to), Some(amount), &[]),
            Inst::Emit { parts, .. } => (None, None, parts),
        };
        first.into_iter().chain(second).chain(rest)
    }
}

/// Where a `Require` terminator came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A source `require(…)` statement at this path.
    Stmt(PathId),
    /// The phase's `while` condition, checked at API entry.
    PhaseCond,
}

/// Block terminators.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term<'p> {
    /// Unconditional fallthrough.
    Goto(usize),
    /// Two-way branch on a condition (an `if` statement).
    Branch {
        /// Condition.
        cond: &'p Expr,
        /// Block when true.
        then_b: usize,
        /// Block when false.
        else_b: usize,
        /// Source statement path of the `if`.
        path: PathId,
    },
    /// Revert unless the condition holds, else continue.
    Require {
        /// Condition.
        cond: &'p Expr,
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
pub(crate) struct Block<'p> {
    /// Positions of the block's straight-line instructions in
    /// [`Cfg::insts`].
    pub insts: Range<usize>,
    /// Terminator.
    pub term: Term<'p>,
    /// Whether the block's `Goto` closes the *then*-arm of an `if`: the
    /// backends emit a real jump there (`PUSH; JUMP` on the EVM, `b` on
    /// the AVM) while the else side falls through into the join label.
    pub closes_then: bool,
}

/// A lowered body. Block 0 is the entry; successor edges always point
/// at higher block indices (the builder emits blocks topologically).
/// Instructions sit in source order, which is also the order of their
/// statement paths; each block's instructions are contiguous.
#[derive(Debug, Clone)]
pub(crate) struct Cfg<'p> {
    /// Blocks in topological order.
    pub blocks: Vec<Block<'p>>,
    /// Every instruction of the body, in source order.
    pub insts: Vec<Inst<'p>>,
    /// The arena [`PathId`]s index.
    paths: Vec<u32>,
    /// The body this CFG was lowered from.
    pub owner: Owner,
}

impl<'p> Cfg<'p> {
    /// Successor block indices of a block.
    pub(crate) fn successors(&self, b: usize) -> impl Iterator<Item = usize> {
        let (first, second) = match self.blocks[b].term {
            Term::Goto(n) => (Some(n), None),
            Term::Branch { then_b, else_b, .. } => (Some(then_b), Some(else_b)),
            Term::Require { next, .. } => (Some(next), None),
            Term::Return => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// A block's instructions.
    pub(crate) fn insts(&self, b: usize) -> &[Inst<'p>] {
        &self.insts[self.blocks[b].insts.clone()]
    }

    /// The statement path an id names.
    pub(crate) fn path(&self, id: PathId) -> &[u32] {
        &self.paths[id.start as usize..id.end as usize]
    }

    /// The position of the instruction lowered from the statement at
    /// `path`, for consumers that start from the AST.
    fn inst_at(&self, path: &[u32]) -> Option<usize> {
        self.insts.binary_search_by(|inst| self.path(inst.path()).cmp(path)).ok()
    }
}

struct Builder<'p> {
    blocks: Vec<Block<'p>>,
    insts: Vec<Inst<'p>>,
    paths: Vec<u32>,
}

impl<'p> Builder<'p> {
    fn new() -> Builder<'p> {
        Builder { blocks: Vec::new(), insts: Vec::new(), paths: Vec::new() }
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block { insts: 0..0, term: Term::Return, closes_then: false });
        self.blocks.len() - 1
    }

    fn path(&mut self, prefix: &[u32]) -> PathId {
        let start = self.paths.len() as u32;
        self.paths.extend_from_slice(prefix);
        PathId { start, end: self.paths.len() as u32 }
    }

    /// Appends an instruction to block `cur`. A block receives all its
    /// instructions before the builder moves on, so its range stays
    /// contiguous.
    fn push(&mut self, cur: usize, inst: Inst<'p>) {
        let at = self.insts.len();
        let range = &mut self.blocks[cur].insts;
        if range.start == range.end {
            *range = at..at;
        }
        debug_assert_eq!(range.end, at, "a block's instructions are contiguous");
        range.end = at + 1;
        self.insts.push(inst);
    }

    /// Lowers a statement list into `cur`, returning the block that
    /// control reaches afterwards.
    fn lower_stmts(&mut self, mut cur: usize, stmts: &'p [Stmt], prefix: &mut Vec<u32>) -> usize {
        for (i, stmt) in stmts.iter().enumerate() {
            prefix.push(i as u32);
            let path = self.path(prefix);
            match stmt {
                Stmt::Require(cond) => {
                    let next = self.new_block();
                    self.blocks[cur].term = Term::Require { cond, next, src: Src::Stmt(path) };
                    cur = next;
                }
                Stmt::If { cond, then, otherwise } => {
                    let then_b = self.new_block();
                    let else_b = self.new_block();
                    self.blocks[cur].term = Term::Branch { cond, then_b, else_b, path };
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
                Stmt::GlobalSet { name, value } => self.push(cur, Inst::Set { name, value, path }),
                Stmt::MapSet { map, key, value } => {
                    self.push(cur, Inst::MapPut { map, key, value, path })
                }
                Stmt::MapDelete { map, key } => self.push(cur, Inst::MapDel { map, key, path }),
                Stmt::Transfer { to, amount } => {
                    self.push(cur, Inst::Transfer { to, amount, path })
                }
                Stmt::Log(parts) => self.push(cur, Inst::Emit { parts, path }),
            }
            prefix.pop();
        }
        cur
    }

    fn finish(self, owner: Owner) -> Cfg<'p> {
        Cfg { blocks: self.blocks, insts: self.insts, paths: self.paths, owner }
    }
}

/// Lowers one API body (the phase's `while` condition becomes an entry
/// `Require`, as the generated code checks it before the body runs).
pub(crate) fn lower_api(program: &Program, phase_idx: usize, api_idx: usize) -> Cfg<'_> {
    let phase = &program.phases[phase_idx];
    let api = &phase.apis[api_idx];
    let mut b = Builder::new();
    let entry = b.new_block();
    let body_start = b.new_block();
    b.blocks[entry].term =
        Term::Require { cond: &phase.while_cond, next: body_start, src: Src::PhaseCond };
    b.lower_stmts(body_start, &api.body, &mut Vec::new());
    b.finish(Owner::Api { phase: phase_idx as u32, api: api_idx as u32 })
}

/// Lowers the constructor body.
pub(crate) fn lower_constructor(program: &Program) -> Cfg<'_> {
    let mut b = Builder::new();
    let entry = b.new_block();
    b.lower_stmts(entry, &program.constructor, &mut Vec::new());
    b.finish(Owner::Constructor)
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

/// An abstract store: one interval per [`Slots`] slot. A slot past the
/// end of `vals` reads as [`Itv::TOP`], so an empty store knows nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Env<'a> {
    slots: Slots<'a>,
    vals: &'a [Itv],
}

impl<'a> Env<'a> {
    fn get(&self, slot: Option<usize>) -> Itv {
        slot.and_then(|s| self.vals.get(s)).copied().unwrap_or(Itv::TOP)
    }

    /// Evaluates an expression to its interval at this store — the
    /// read-only view the access-summary pass uses to narrow map-key
    /// expressions (overflow tracking is the analysis's concern, not
    /// the caller's).
    pub(crate) fn interval_of(&self, expr: &Expr) -> Itv {
        let mut overflow = false;
        self.eval(expr, &mut overflow)
    }

    /// Evaluates an expression to an interval. Sets `overflow` when the
    /// arithmetic *must* overflow `u64` (lower bounds already overflow).
    fn eval(&self, expr: &Expr, overflow: &mut bool) -> Itv {
        match expr {
            Expr::UInt(v) => Itv::exact(*v),
            Expr::Param(_) | Expr::Global(_) | Expr::Balance => self.get(self.slots.var(expr)),
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
                        // A zero divisor yields 0 on the EVM and aborts
                        // the call on the AVM; [0, a.hi] covers the EVM
                        // result, and an aborted call has none.
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

/// The store the flow pass carries through a block: a slot per name.
struct Store<'a> {
    slots: Slots<'a>,
    vals: Vec<Itv>,
}

impl<'a> Store<'a> {
    fn view(&self) -> Env<'_> {
        Env { slots: self.slots, vals: &self.vals }
    }

    fn eval(&self, expr: &Expr, overflow: &mut bool) -> Itv {
        self.view().eval(expr, overflow)
    }

    /// Assigns a slot; a name with no slot is not tracked.
    fn set(&mut self, slot: Option<usize>, itv: Itv) {
        if let Some(s) = slot {
            self.vals[s] = itv;
        }
    }

    /// Refines the store under the assumption `cond == truth`. Returns
    /// `false` when the assumption is infeasible (the refined edge is
    /// dead).
    fn refine(&mut self, cond: &Expr, truth: bool) -> bool {
        let mut of = false;
        if let Some(c) = self.eval(cond, &mut of).as_const() {
            if (c != 0) != truth {
                return false;
            }
        }
        match cond {
            Expr::Not(inner) => self.refine(inner, !truth),
            Expr::Bin(BinOp::And, lhs, rhs) if truth => {
                self.refine(lhs, true) && self.refine(rhs, true)
            }
            Expr::Bin(BinOp::Or, lhs, rhs) if !truth => {
                self.refine(lhs, false) && self.refine(rhs, false)
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
                    let bound = self.eval(rhs, &mut of);
                    feasible &= self.constrain(v, *op, bound, truth);
                }
                if feasible {
                    if let Some(v) = as_var(rhs) {
                        let bound = self.eval(lhs, &mut of);
                        feasible &= self.constrain(v, mirror(*op), bound, truth);
                    }
                }
                feasible
            }
            _ => true,
        }
    }

    /// Applies `v OP bound == truth` to the variable's interval. Returns
    /// `false` when the resulting interval is empty.
    fn constrain(&mut self, v: &Expr, op: BinOp, bound: Itv, truth: bool) -> bool {
        let slot = self.slots.var(v);
        let cur = self.view().get(slot);
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
                self.set(slot, itv);
                true
            }
            None => false,
        }
    }
}

/// Whether interval comparison of this expression is meaningful (UInt
/// arithmetic, not an opaque address/byte value).
fn uint_comparable(expr: &Expr) -> bool {
    !matches!(expr, Expr::Caller | Expr::MapGet { .. } | Expr::Hash(_))
}

/// The expression itself when it is a tracked variable.
fn as_var(expr: &Expr) -> Option<&Expr> {
    matches!(expr, Expr::Param(_) | Expr::Global(_) | Expr::Balance).then_some(expr)
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

// ------------------------------------------------------ body analysis --

/// A constant-folded condition discovered by the flow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConstCond {
    /// Where the condition came from.
    pub src: Src,
    /// Its constant truth value.
    pub value: bool,
}

/// The result of running all forward passes over one body. Facts about
/// instructions are indexed by the instruction's position in
/// [`Cfg::insts`]; facts about blocks by the block index.
#[derive(Debug)]
pub(crate) struct BodyAnalysis<'p> {
    /// The lowered CFG.
    pub cfg: Cfg<'p>,
    names: Rc<Names<'p>>,
    /// The body's parameters, which lay out its stores with `names`.
    params: &'p [(String, Ty)],
    /// Whether each block is reachable from the entry.
    reached: Vec<bool>,
    /// The store at each block's terminator, one slot run per block
    /// (read only for reachable blocks).
    term_envs: Vec<Itv>,
    /// Whether each instruction is reachable.
    inst_reached: Vec<bool>,
    /// The store just before each instruction, one slot run per
    /// instruction (read only for reachable ones).
    inst_envs: Vec<Itv>,
    /// Conditions that folded to a constant on every reachable path.
    pub const_conds: Vec<ConstCond>,
    /// Instruction paths whose arithmetic must overflow `u64`.
    pub definite_overflows: Vec<PathId>,
}

/// The flow analysis of every body of one program: the single set of
/// static facts the verifier, the lints, the access summaries, the gas
/// certificates and the bytecode cross-check all borrow. Built once per
/// public call (see [`crate::backend::compile`]).
#[derive(Debug)]
pub(crate) struct ProgramFlows<'p> {
    names: Rc<Names<'p>>,
    /// The constructor body.
    pub constructor: BodyAnalysis<'p>,
    /// API bodies, indexed `[phase][api]`.
    pub apis: Vec<Vec<BodyAnalysis<'p>>>,
}

impl<'p> ProgramFlows<'p> {
    /// Analyses every body once.
    pub(crate) fn new(program: &'p Program) -> ProgramFlows<'p> {
        let names = Rc::new(Names::new(program));
        let constructor = constructor_flow(program, &names);
        let apis = program.phases.iter().enumerate().map(|(pi, phase)| {
            (0..phase.apis.len()).map(|ai| api_flow(program, &names, pi, ai)).collect()
        });
        ProgramFlows { constructor, apis: apis.collect(), names }
    }

    /// Every body: the constructor, then the APIs in dispatch order.
    pub(crate) fn bodies(&self) -> impl Iterator<Item = &BodyAnalysis<'p>> {
        std::iter::once(&self.constructor).chain(self.apis.iter().flatten())
    }

    /// The program's name table.
    pub(crate) fn names(&self) -> &Names<'p> {
        &self.names
    }
}

/// Runs the interval analysis over one API body.
#[cfg(test)]
pub(crate) fn analyze_api(program: &Program, phase_idx: usize, api_idx: usize) -> BodyAnalysis<'_> {
    api_flow(program, &Rc::new(Names::new(program)), phase_idx, api_idx)
}

/// Runs the interval analysis over the constructor body.
#[cfg(test)]
pub(crate) fn analyze_constructor(program: &Program) -> BodyAnalysis<'_> {
    constructor_flow(program, &Rc::new(Names::new(program)))
}

/// The range a phase `invariant` leaves global `name`, refining a store
/// that knows nothing else; `None` when the invariant cannot hold.
pub(crate) fn invariant_range(program: &Program, invariant: &Expr, name: &str) -> Option<Itv> {
    let names = Names::new(program);
    let slots = Slots { names: &names, params: &[] };
    let mut store = Store { slots, vals: vec![Itv::TOP; slots.len()] };
    store.refine(invariant, true).then(|| store.view().get(slots.global(name)))
}

/// API entry: globals hold arbitrary values (any number of calls may
/// have preceded this one), parameters are adversarial — every slot ⊤.
fn api_flow<'p>(
    program: &'p Program,
    names: &Rc<Names<'p>>,
    phase_idx: usize,
    api_idx: usize,
) -> BodyAnalysis<'p> {
    let cfg = lower_api(program, phase_idx, api_idx);
    let params = &program.phases[phase_idx].apis[api_idx].params;
    let entry = vec![Itv::TOP; Slots { names, params }.len()];
    run_flow(cfg, Rc::clone(names), params, entry)
}

/// Constructor entry: constant-initialised globals hold their exact
/// value; field-initialised ones are arbitrary.
fn constructor_flow<'p>(program: &'p Program, names: &Rc<Names<'p>>) -> BodyAnalysis<'p> {
    let cfg = lower_constructor(program);
    let params = &program.creator.fields;
    let slots = Slots { names, params };
    let mut entry = vec![Itv::TOP; slots.len()];
    for g in &program.globals {
        if let (GlobalInit::Const(v), Some(slot)) = (&g.init, slots.global(&g.name)) {
            entry[slot] = Itv::exact(*v);
        }
    }
    run_flow(cfg, Rc::clone(names), params, entry)
}

/// Joins `incoming` into block `succ`'s entry store (`slots` wide),
/// or seeds it when no edge reached the block yet.
fn feed(envs: &mut [Itv], reached: &mut [bool], succ: usize, incoming: &[Itv]) {
    let slots = incoming.len();
    let entry = &mut envs[succ * slots..(succ + 1) * slots];
    if reached[succ] {
        for (e, i) in entry.iter_mut().zip(incoming) {
            *e = Itv::join(*e, *i);
        }
    } else {
        entry.copy_from_slice(incoming);
        reached[succ] = true;
    }
}

fn run_flow<'p>(
    cfg: Cfg<'p>,
    names: Rc<Names<'p>>,
    params: &'p [(String, Ty)],
    entry: Vec<Itv>,
) -> BodyAnalysis<'p> {
    let n = cfg.blocks.len();
    let layout = Slots { names: &names, params };
    let slots = layout.len();
    let mut reached = vec![false; n];
    let mut envs = vec![Itv::TOP; n * slots];
    feed(&mut envs, &mut reached, 0, &entry);
    let mut term_envs = vec![Itv::TOP; n * slots];
    let mut inst_reached = vec![false; cfg.insts.len()];
    let mut inst_envs = vec![Itv::TOP; cfg.insts.len() * slots];
    let mut const_conds = Vec::new();
    let mut definite_overflows = Vec::new();
    // The working store, and a second one for a branch's then-edge.
    let mut store = Store { slots: layout, vals: entry };
    let mut then_store = Store { slots: layout, vals: vec![Itv::TOP; slots] };

    // Blocks are emitted topologically, so one in-order sweep reaches a
    // fixpoint on this DAG.
    for b in 0..n {
        if !reached[b] {
            continue;
        }
        store.vals.copy_from_slice(&envs[b * slots..(b + 1) * slots]);
        for i in cfg.blocks[b].insts.clone() {
            let inst = cfg.insts[i];
            inst_reached[i] = true;
            inst_envs[i * slots..(i + 1) * slots].copy_from_slice(&store.vals);
            let mut overflow = false;
            for e in inst.exprs() {
                let _ = store.eval(e, &mut overflow);
            }
            if overflow {
                definite_overflows.push(inst.path());
            }
            match inst {
                Inst::Set { name, value, .. } => {
                    let itv = store.view().interval_of(value);
                    store.set(layout.global(name), itv);
                }
                Inst::Transfer { .. } => {
                    // The balance shrinks by a dynamic amount.
                    store.vals[layout.balance()] = Itv::TOP;
                }
                _ => {}
            }
        }
        term_envs[b * slots..(b + 1) * slots].copy_from_slice(&store.vals);
        match cfg.blocks[b].term {
            Term::Goto(next) => {
                feed(&mut envs, &mut reached, next, &store.vals);
            }
            Term::Require { cond, next, src } => {
                let mut of = false;
                if let Some(c) = store.eval(cond, &mut of).as_const() {
                    const_conds.push(ConstCond { src, value: c != 0 });
                }
                if store.refine(cond, true) {
                    feed(&mut envs, &mut reached, next, &store.vals);
                }
            }
            Term::Branch { cond, then_b, else_b, path } => {
                let mut of = false;
                if let Some(c) = store.eval(cond, &mut of).as_const() {
                    const_conds.push(ConstCond { src: Src::Stmt(path), value: c != 0 });
                }
                then_store.vals.copy_from_slice(&store.vals);
                if then_store.refine(cond, true) {
                    feed(&mut envs, &mut reached, then_b, &then_store.vals);
                }
                if store.refine(cond, false) {
                    feed(&mut envs, &mut reached, else_b, &store.vals);
                }
            }
            Term::Return => {}
        }
    }

    drop((store, then_store));
    BodyAnalysis {
        cfg,
        names,
        params,
        reached,
        term_envs,
        inst_reached,
        inst_envs,
        const_conds,
        definite_overflows,
    }
}

/// A global-definition site found by the reaching-definitions pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Def<'p> {
    /// Defined global.
    pub name: &'p str,
    /// Block index.
    pub block: usize,
    /// Source statement path.
    pub path: PathId,
}

/// A reachable map write or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MapOp<'p> {
    /// Map name.
    pub map: &'p str,
    /// Whether the site deletes (rather than writes) the entry.
    pub delete: bool,
    /// Source statement path.
    pub path: PathId,
}

impl<'p> BodyAnalysis<'p> {
    /// Whether block `b` is reachable from the entry.
    pub(crate) fn reachable(&self, b: usize) -> bool {
        self.reached[b]
    }

    /// The reachable blocks with their indices, in topological order.
    pub(crate) fn reachable_blocks(&self) -> impl Iterator<Item = (usize, &Block<'p>)> {
        self.cfg.blocks.iter().enumerate().filter(|(b, _)| self.reachable(*b))
    }

    /// The statement path an id names.
    pub(crate) fn path(&self, id: PathId) -> &[u32] {
        self.cfg.path(id)
    }

    fn layout(&self) -> Slots<'_> {
        Slots { names: &self.names, params: self.params }
    }

    /// The run of a flat fact vector that belongs to item `i`.
    fn slots(&self, i: usize) -> Range<usize> {
        let slots = self.layout().len();
        i * slots..(i + 1) * slots
    }

    /// The store that knows nothing: what expressions evaluated around
    /// the body (payment, return value) are classified against.
    pub(crate) fn top(&self) -> Env<'_> {
        Env { slots: self.layout(), vals: &[] }
    }

    /// The abstract store just before instruction `i` (`None` when the
    /// instruction is unreachable).
    pub(crate) fn env_before(&self, i: usize) -> Option<Env<'_>> {
        self.inst_reached[i]
            .then(|| Env { slots: self.layout(), vals: &self.inst_envs[self.slots(i)] })
    }

    /// The abstract store at a block's terminator: the block-entry store
    /// with the block's assignments applied. Lets the access-summary
    /// pass narrow map keys read inside `if`/`require` conditions
    /// soundly.
    pub(crate) fn term_env(&self, b: usize) -> Option<Env<'_>> {
        self.reached[b].then(|| Env { slots: self.layout(), vals: &self.term_envs[self.slots(b)] })
    }

    /// Whether the interval analysis proves `minuend - subtrahend`
    /// cannot underflow at the statement with this path. This is the
    /// fallback consulted when the syntactic guard matcher gives up.
    pub(crate) fn proves_sub_safe(&self, path: &[u32], minuend: &Expr, subtrahend: &Expr) -> bool {
        let Some(env) = self.cfg.inst_at(path).and_then(|i| self.env_before(i)) else {
            return false;
        };
        let mut of = false;
        let m = env.eval(minuend, &mut of);
        let s = env.eval(subtrahend, &mut of);
        m.lo >= s.hi
    }

    /// Source paths of statements that can never execute, one per
    /// unreachable region (the first instruction of each unreachable
    /// block with a reachable predecessor).
    pub(crate) fn unreachable_stmts(&self) -> Vec<PathId> {
        let mut fed = vec![false; self.cfg.blocks.len()];
        for (b, _) in self.reachable_blocks() {
            for s in self.cfg.successors(b) {
                fed[s] = true;
            }
        }
        // Frontier blocks only: a reachable predecessor exists, so this
        // is where the dead region starts.
        (0..self.cfg.blocks.len())
            .filter(|&b| !self.reachable(b) && fed[b])
            .filter_map(|b| self.cfg.insts(b).first().map(Inst::path))
            .collect()
    }

    /// Reaching definitions: all global-definition sites in block
    /// order, and for each block the definitions reaching its entry
    /// (`ins[b * defs.len() + d]`).
    pub(crate) fn reaching_defs(&self) -> (Vec<Def<'p>>, Vec<bool>) {
        let mut defs = Vec::new();
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            for inst in &self.cfg.insts[block.insts.clone()] {
                if let Inst::Set { name, path, .. } = *inst {
                    defs.push(Def { name, block: b, path });
                }
            }
        }
        let nd = defs.len();
        let mut ins = vec![false; self.cfg.blocks.len() * nd];
        let mut out = vec![false; nd];
        let mut first_def = 0;
        // One topological sweep suffices on the DAG.
        for b in 0..self.cfg.blocks.len() {
            let d0 = first_def;
            first_def += defs[d0..].iter().take_while(|d| d.block == b).count();
            if !self.reachable(b) {
                continue;
            }
            out.copy_from_slice(&ins[b * nd..(b + 1) * nd]);
            // A definition kills every other definition of the same
            // name and generates itself.
            for d in d0..first_def {
                kill(&defs, &mut out, defs[d].name);
                out[d] = true;
            }
            for s in self.cfg.successors(b) {
                for (i, o) in ins[s * nd..(s + 1) * nd].iter_mut().zip(&out) {
                    *i |= *o;
                }
            }
        }
        (defs, ins)
    }

    /// Dead stores: reachable global assignments whose value no later
    /// read can observe. Globals live at a normal `Return` count as
    /// read (they are observable through views and later calls), so
    /// only assignments overwritten before any use are flagged.
    pub(crate) fn dead_stores(&self) -> Vec<Def<'p>> {
        let (defs, ins) = self.reaching_defs();
        let nd = defs.len();
        if nd == 0 {
            return Vec::new();
        }
        let mut used = vec![false; nd];
        // The definitions currently reaching the walk's position.
        let mut current = vec![false; nd];
        let mut d = 0;
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            if !self.reachable(b) {
                d += defs[d..].iter().take_while(|def| def.block == b).count();
                continue;
            }
            current.copy_from_slice(&ins[b * nd..(b + 1) * nd]);
            for inst in self.cfg.insts(b) {
                for e in inst.exprs() {
                    mark_reads(e, &defs, &current, &mut used);
                }
                if let Inst::Set { name, .. } = *inst {
                    kill(&defs, &mut current, name);
                    current[d] = true;
                    d += 1;
                }
            }
            match block.term {
                Term::Branch { cond, .. } | Term::Require { cond, .. } => {
                    mark_reads(cond, &defs, &current, &mut used);
                }
                Term::Return => {
                    // Every global is observable after a normal exit.
                    for (u, c) in used.iter_mut().zip(&current) {
                        *u |= *c;
                    }
                }
                Term::Goto(_) => {}
            }
        }
        defs.iter()
            .zip(&used)
            .filter(|(def, used)| !**used && self.reachable(def.block))
            .map(|(def, _)| *def)
            .collect()
    }

    /// Reachable map writes and deletes, in block order.
    pub(crate) fn map_ops(&self) -> impl Iterator<Item = MapOp<'p>> + '_ {
        let insts = self.reachable_blocks().flat_map(|(b, _)| self.cfg.insts(b));
        insts.filter_map(|inst| match *inst {
            Inst::MapPut { map, path, .. } => Some(MapOp { map, delete: false, path }),
            Inst::MapDel { map, path, .. } => Some(MapOp { map, delete: true, path }),
            _ => None,
        })
    }
}

/// Clears every definition of `name` from a definition set.
fn kill(defs: &[Def<'_>], set: &mut [bool], name: &str) {
    for (s, def) in set.iter_mut().zip(defs) {
        if def.name == name {
            *s = false;
        }
    }
}

/// Marks as used every current definition of a global `expr` reads.
fn mark_reads(expr: &Expr, defs: &[Def<'_>], current: &[bool], used: &mut [bool]) {
    match expr {
        Expr::Global(g) => {
            for ((u, c), def) in used.iter_mut().zip(current).zip(defs) {
                if *c && def.name == g {
                    *u = true;
                }
            }
        }
        Expr::Bin(_, lhs, rhs) => {
            mark_reads(lhs, defs, current, used);
            mark_reads(rhs, defs, current, used);
        }
        Expr::Not(inner) => mark_reads(inner, defs, current, used),
        Expr::Hash(parts) => {
            for p in parts {
                mark_reads(p, defs, current, used);
            }
        }
        Expr::MapGet { key, .. } | Expr::MapContains { key, .. } => {
            mark_reads(key, defs, current, used)
        }
        Expr::UInt(_) | Expr::Param(_) | Expr::Caller | Expr::Balance => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn paths(flow: &BodyAnalysis, ids: Vec<PathId>) -> Vec<Vec<u32>> {
        ids.into_iter().map(|id| flow.path(id).to_vec()).collect()
    }

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
        let flow = analyze_api(&p, 0, 0);
        assert!((0..cfg.blocks.len()).all(|b| flow.reachable(b)), "counter has no dead code");
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
        let flow = analyze_api(&p, 0, 0);
        assert!(flow.proves_sub_safe(&[1], &Expr::param("by"), &Expr::UInt(3)));
        assert!(!flow.proves_sub_safe(&[1], &Expr::param("by"), &Expr::UInt(6)));
    }

    #[test]
    fn unguarded_subtraction_not_proved() {
        let p = counter_with_body(vec![Stmt::GlobalSet {
            name: "count".into(),
            value: Expr::sub(Expr::global("count"), Expr::UInt(1)),
        }]);
        let flow = analyze_api(&p, 0, 0);
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
        let flow = analyze_api(&p, 0, 0);
        let dead = paths(&flow, flow.unreachable_stmts());
        assert_eq!(dead, vec![vec![1, 0, 0]]);
        assert!(flow
            .const_conds
            .iter()
            .any(|c| matches!(c.src, Src::Stmt(p) if flow.path(p) == [1]) && !c.value));
    }

    #[test]
    fn dead_store_detected_and_last_write_survives() {
        let p = counter_with_body(vec![
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(5) },
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(7) },
        ]);
        let flow = analyze_api(&p, 0, 0);
        let dead = flow.dead_stores();
        assert_eq!(dead.len(), 1);
        assert_eq!(flow.path(dead[0].path), [0]);
    }

    #[test]
    fn store_read_before_overwrite_is_live() {
        let p = counter_with_body(vec![
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(5) },
            Stmt::GlobalSet { name: "remaining".into(), value: Expr::global("count") },
            Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(7) },
        ]);
        let flow = analyze_api(&p, 0, 0);
        assert!(flow.dead_stores().is_empty());
    }

    #[test]
    fn reaching_defs_flow_through_branches() {
        let p = counter_with_body(vec![Stmt::If {
            cond: Expr::gt(Expr::param("by"), Expr::UInt(1)),
            then: vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(1) }],
            otherwise: vec![Stmt::GlobalSet { name: "count".into(), value: Expr::UInt(2) }],
        }]);
        let flow = analyze_api(&p, 0, 0);
        let (defs, ins) = flow.reaching_defs();
        assert_eq!(defs.len(), 2);
        // The join block sees both definitions.
        let ret = flow.cfg.blocks.iter().position(|b| matches!(b.term, Term::Return)).unwrap();
        assert_eq!(ins[ret * defs.len()..(ret + 1) * defs.len()], [true, true]);
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
        let flow = analyze_api(&p, 0, 0);
        let ops: Vec<MapOp> = flow.map_ops().collect();
        assert_eq!(ops.len(), 1);
        assert!(!ops[0].delete, "the delete is behind an always-false branch");
    }

    #[test]
    fn definite_overflow_flagged() {
        let p = counter_with_body(vec![Stmt::GlobalSet {
            name: "count".into(),
            value: Expr::Bin(BinOp::Add, Box::new(Expr::UInt(u64::MAX)), Box::new(Expr::UInt(1))),
        }]);
        let flow = analyze_api(&p, 0, 0);
        assert_eq!(paths(&flow, flow.definite_overflows.clone()), vec![vec![0]]);
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
        let flow = analyze_constructor(&p);
        assert_eq!(paths(&flow, flow.unreachable_stmts()), vec![vec![0, 0, 0]]);
    }
}
