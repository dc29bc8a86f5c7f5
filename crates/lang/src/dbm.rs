//! A difference-logic solver over `u64` — the *zone* abstract domain.
//!
//! A zone is a conjunction of constraints of the form `x - y ≤ c` over
//! program variables plus a distinguished zero variable, stored as a
//! difference-bound matrix (DBM). Keeping the matrix *closed* (every
//! entry is the weight of the shortest constraint path, computed by an
//! incremental Floyd–Warshall step on each insertion) makes both
//! satisfiability (no negative diagonal) and entailment (a single
//! matrix lookup) O(1) per query.
//!
//! The zone is strictly more precise than the interval domain of
//! `crate::ir` on *relational* facts: `require(b < a)` records
//! `b - a ≤ -1`, which later discharges `a - b` underflow theorems that
//! neither the syntactic dominating-guard matcher nor intervals can
//! prove, and transitive chains (`a > b, b > c ⊢ a > c`) fall out of
//! path closure for free.
//!
//! **Wrap-soundness.** All variables range over `u64` and the VMs
//! compute modulo 2⁶⁴, so a syntactic term `v + k` / `v - k` only
//! translates to the difference constraint it suggests when the zone
//! already entails that the arithmetic cannot wrap (`v ≤ MAX - k`
//! resp. `v ≥ k`). Terms that may wrap are dropped, never laundered
//! into bounds — mirroring the interval domain's widen-to-TOP rule.

use crate::ast::{BinOp, Expr};
use std::collections::HashMap;

/// A variable tracked by the zone (the zero variable is implicit).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ZVar {
    /// A contract global.
    Global(String),
    /// An API parameter.
    Param(String),
    /// The contract balance.
    Balance,
}

/// Aggregate solver counters, reported in `results/relational_verify.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Difference constraints asserted into some zone.
    pub constraints: u64,
    /// Incremental / full closure passes that tightened a matrix.
    pub closures: u64,
}

impl ZoneStats {
    /// Accumulates another counter set into this one.
    pub(crate) fn absorb(&mut self, other: ZoneStats) {
        self.constraints += other.constraints;
        self.closures += other.closures;
    }
}

/// Largest representable variable value: every `u64` variable satisfies
/// `v - 0 ≤ BOUND` and `0 - v ≤ 0`.
const BOUND: i128 = u64::MAX as i128;

/// A closed difference-bound matrix. Index 0 is the zero variable;
/// program variables are interned at 1.. on first mention. Entry
/// `m[i][j]` is the tightest proven upper bound on `vᵢ - vⱼ`.
#[derive(Debug, Clone)]
pub(crate) struct Zone {
    vars: Vec<ZVar>,
    index: HashMap<ZVar, usize>,
    m: Vec<i128>,
    dim: usize,
    unsat: bool,
}

impl Default for Zone {
    fn default() -> Self {
        Zone::new()
    }
}

impl Zone {
    /// The unconstrained zone (every variable in `[0, u64::MAX]`).
    pub(crate) fn new() -> Zone {
        Zone { vars: Vec::new(), index: HashMap::new(), m: vec![0], dim: 1, unsat: false }
    }

    /// Whether the conjunction is still satisfiable.
    pub(crate) fn is_sat(&self) -> bool {
        !self.unsat
    }

    fn at(&self, i: usize, j: usize) -> i128 {
        self.m[i * self.dim + j]
    }

    fn set(&mut self, i: usize, j: usize, v: i128) {
        self.m[i * self.dim + j] = v;
    }

    /// Interns a variable, growing the matrix with the closed default
    /// bounds of a fresh `u64` variable.
    fn intern(&mut self, v: &ZVar) -> usize {
        if let Some(&i) = self.index.get(v) {
            return i;
        }
        let old = self.dim;
        let new = old + 1;
        let mut m = vec![0i128; new * new];
        for i in 0..old {
            for j in 0..old {
                m[i * new + j] = self.at(i, j);
            }
        }
        // Fresh v ∈ [0, MAX]: closure routes every relation through the
        // zero variable (m[0][j] ≤ 0 and m[j][0] ≤ BOUND hold for all j,
        // so no entry here exceeds 2·BOUND — far from overflow).
        for j in 0..old {
            m[old * new + j] = BOUND + self.at(0, j);
            m[j * new + old] = self.at(j, 0);
        }
        m[old * new + old] = 0;
        self.m = m;
        self.dim = new;
        self.vars.push(v.clone());
        self.index.insert(v.clone(), old);
        old
    }

    fn lookup(&self, v: &ZVar) -> Option<usize> {
        self.index.get(v).copied()
    }

    /// Asserts `vᵢ - vⱼ ≤ c` and restores closure incrementally.
    /// Returns the new satisfiability.
    fn add_ub(&mut self, x: usize, y: usize, c: i128, stats: &mut ZoneStats) -> bool {
        stats.constraints += 1;
        if self.unsat {
            return false;
        }
        if x == y {
            if c < 0 {
                self.unsat = true;
            }
            return !self.unsat;
        }
        if c >= self.at(x, y) {
            return true;
        }
        stats.closures += 1;
        self.set(x, y, c);
        for i in 0..self.dim {
            for j in 0..self.dim {
                let via = self.at(i, x) + c + self.at(y, j);
                if via < self.at(i, j) {
                    self.set(i, j, via);
                }
            }
        }
        if (0..self.dim).any(|i| self.at(i, i) < 0) {
            self.unsat = true;
        }
        !self.unsat
    }

    /// Asserts `a - b ≤ c` where `None` denotes the zero variable.
    pub(crate) fn add_diff(
        &mut self,
        a: Option<&ZVar>,
        b: Option<&ZVar>,
        c: i128,
        stats: &mut ZoneStats,
    ) -> bool {
        let x = match a {
            Some(v) => self.intern(v),
            None => 0,
        };
        let y = match b {
            Some(v) => self.intern(v),
            None => 0,
        };
        self.add_ub(x, y, c, stats)
    }

    /// Tightest proven upper bound on `a - b` (`None` = zero variable).
    /// Variables never mentioned keep their fresh `[0, MAX]` defaults.
    pub(crate) fn bound(&self, a: Option<&ZVar>, b: Option<&ZVar>) -> i128 {
        if a == b {
            return 0;
        }
        let ia = a.map(|v| self.lookup(v));
        let ib = b.map(|v| self.lookup(v));
        match (ia, ib) {
            (None, None) => 0,
            (Some(Some(i)), Some(Some(j))) => self.at(i, j),
            (Some(Some(i)), None) => self.at(i, 0),
            (None, Some(Some(j))) => self.at(0, j),
            // A fresh variable relates to the rest only through zero.
            (Some(None), Some(Some(j))) => BOUND + self.at(0, j),
            (Some(Some(i)), Some(None)) => self.at(i, 0),
            (Some(None), None) => BOUND,
            (None, Some(None)) => 0,
            (Some(None), Some(None)) => BOUND,
        }
    }

    /// Whether the zone proves `a - b ≤ c`. An unsatisfiable zone
    /// entails everything (the program point is unreachable).
    pub(crate) fn entails_diff(&self, a: Option<&ZVar>, b: Option<&ZVar>, c: i128) -> bool {
        self.unsat || self.bound(a, b) <= c
    }

    /// Least upper bound: the weakest zone implied by both arguments
    /// (pointwise maximum over the union of tracked variables, then
    /// re-closed).
    pub(crate) fn join(a: &Zone, b: &Zone, stats: &mut ZoneStats) -> Zone {
        if a.unsat {
            return b.clone();
        }
        if b.unsat {
            return a.clone();
        }
        let mut out = Zone::new();
        for v in a.vars.iter().chain(&b.vars) {
            out.intern(v);
        }
        let vref =
            |out: &Zone, i: usize| -> Option<ZVar> { (i > 0).then(|| out.vars[i - 1].clone()) };
        for i in 0..out.dim {
            for j in 0..out.dim {
                if i == j {
                    continue;
                }
                let (vi, vj) = (vref(&out, i), vref(&out, j));
                let val = a.bound(vi.as_ref(), vj.as_ref()).max(b.bound(vi.as_ref(), vj.as_ref()));
                out.set(i, j, val);
            }
        }
        out.close_full(stats);
        out
    }

    /// Full Floyd–Warshall closure (joins may leave slack entries).
    fn close_full(&mut self, stats: &mut ZoneStats) {
        stats.closures += 1;
        for k in 0..self.dim {
            for i in 0..self.dim {
                for j in 0..self.dim {
                    let via = self.at(i, k) + self.at(k, j);
                    if via < self.at(i, j) {
                        self.set(i, j, via);
                    }
                }
            }
        }
        if (0..self.dim).any(|i| self.at(i, i) < 0) {
            self.unsat = true;
        }
    }

    /// Drops everything known about `v` (back to `[0, MAX]`, no
    /// relations). Preserves closure.
    pub(crate) fn forget(&mut self, v: &ZVar) {
        let Some(x) = self.lookup(v) else { return };
        if self.unsat {
            return;
        }
        for j in 0..self.dim {
            if j == x {
                continue;
            }
            let zx = BOUND + self.at(0, j);
            self.set(x, j, zx);
            let xz = self.at(j, 0);
            self.set(j, x, xz);
        }
    }

    /// The image of `v := v + delta` (caller must have proven the
    /// addition cannot wrap). Preserves closure.
    pub(crate) fn shift(&mut self, v: &ZVar, delta: i128) {
        let Some(x) = self.lookup(v) else { return };
        if self.unsat || delta == 0 {
            return;
        }
        for j in 0..self.dim {
            if j == x {
                continue;
            }
            let up = self.at(x, j) + delta;
            self.set(x, j, up);
            let dn = self.at(j, x) - delta;
            self.set(j, x, dn);
        }
    }

    /// The image of `dst := src + delta` for `dst ≠ src` (wrap-freedom
    /// proven by the caller).
    pub(crate) fn assign_var(
        &mut self,
        dst: &ZVar,
        src: &ZVar,
        delta: i128,
        stats: &mut ZoneStats,
    ) {
        self.forget(dst);
        self.add_diff(Some(&dst.clone()), Some(&src.clone()), delta, stats);
        self.add_diff(Some(&src.clone()), Some(&dst.clone()), -delta, stats);
    }

    /// The image of `dst := e` where only the interval `[lo, hi]` of `e`
    /// is known: all relations are dropped, the bounds are kept.
    pub(crate) fn assign_bounds(&mut self, dst: &ZVar, lo: u64, hi: u64, stats: &mut ZoneStats) {
        self.forget(dst);
        if hi < u64::MAX {
            self.add_diff(Some(&dst.clone()), None, hi as i128, stats);
        }
        if lo > 0 {
            self.add_diff(None, Some(&dst.clone()), -(lo as i128), stats);
        }
    }

    /// Largest value `v` may take (`u64::MAX` when unconstrained, `None`
    /// when the zone is unsatisfiable).
    pub(crate) fn var_max(&self, v: &ZVar) -> Option<u64> {
        if self.unsat {
            return None;
        }
        Some(self.bound(Some(v), None).clamp(0, BOUND) as u64)
    }

    /// Smallest value `v` may take.
    pub(crate) fn var_min(&self, v: &ZVar) -> Option<u64> {
        if self.unsat {
            return None;
        }
        Some((-self.bound(None, Some(v))).clamp(0, BOUND) as u64)
    }
}

// ------------------------------------------------- expr translation --

/// A difference-logic term: an optional variable plus a constant
/// offset. `(None, k)` is the constant `k`.
pub(crate) type DiffTerm = (Option<ZVar>, i128);

/// Translates an expression into a difference term, or `None` when it
/// is not of the form `var`, `const`, `var + const` or `var - const`.
pub(crate) fn term(expr: &Expr) -> Option<DiffTerm> {
    match expr {
        Expr::UInt(v) => Some((None, *v as i128)),
        Expr::Param(p) => Some((Some(ZVar::Param(p.clone())), 0)),
        Expr::Global(g) => Some((Some(ZVar::Global(g.clone())), 0)),
        Expr::Balance => Some((Some(ZVar::Balance), 0)),
        Expr::Bin(BinOp::Add, lhs, rhs) => match (term(lhs), term(rhs)) {
            (Some((Some(v), a)), Some((None, b))) | (Some((None, b)), Some((Some(v), a))) => {
                Some((Some(v), a + b))
            }
            (Some((None, a)), Some((None, b))) => Some((None, a + b)),
            _ => None,
        },
        Expr::Bin(BinOp::Sub, lhs, rhs) => match (term(lhs), term(rhs)) {
            (Some((v, a)), Some((None, b))) => Some((v, a - b)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether a term's runtime value provably equals its mathematical
/// value (no modular wrap) under the zone. Constant offsets on a
/// variable require the zone to entail headroom first.
pub(crate) fn term_wrap_free(zone: &Zone, t: &DiffTerm) -> bool {
    match t {
        (None, k) => (0..=BOUND).contains(k),
        (Some(_), 0) => true,
        // v + k wraps unless v ≤ MAX - k.
        (Some(v), k) if *k > 0 => zone.entails_diff(Some(v), None, BOUND - k),
        // v - k wraps unless v ≥ k.
        (Some(v), k) => zone.entails_diff(None, Some(v), *k),
    }
}

fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Gt => BinOp::Le,
        BinOp::Le => BinOp::Gt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Assumes `cond == truth` into the zone, returning the resulting
/// satisfiability. Atoms outside the difference fragment (opaque
/// values, disjunctions, may-wrap terms) are soundly skipped.
pub(crate) fn assume(zone: &mut Zone, cond: &Expr, truth: bool, stats: &mut ZoneStats) -> bool {
    match cond {
        Expr::Not(inner) => assume(zone, inner, !truth, stats),
        Expr::Bin(BinOp::And, lhs, rhs) if truth => {
            assume(zone, lhs, true, stats) && assume(zone, rhs, true, stats)
        }
        Expr::Bin(BinOp::Or, lhs, rhs) if !truth => {
            assume(zone, lhs, false, stats) && assume(zone, rhs, false, stats)
        }
        Expr::Bin(op, lhs, rhs)
            if matches!(
                op,
                BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
            ) =>
        {
            let (Some(ta), Some(tb)) = (term(lhs), term(rhs)) else { return zone.is_sat() };
            if !term_wrap_free(zone, &ta) || !term_wrap_free(zone, &tb) {
                return zone.is_sat();
            }
            let op = if truth { *op } else { negate(*op) };
            let (va, ca) = (&ta.0, ta.1);
            let (vb, cb) = (&tb.0, tb.1);
            match op {
                // va + ca < vb + cb ⇔ va - vb ≤ cb - ca - 1.
                BinOp::Lt => zone.add_diff(va.as_ref(), vb.as_ref(), cb - ca - 1, stats),
                BinOp::Le => zone.add_diff(va.as_ref(), vb.as_ref(), cb - ca, stats),
                BinOp::Gt => zone.add_diff(vb.as_ref(), va.as_ref(), ca - cb - 1, stats),
                BinOp::Ge => zone.add_diff(vb.as_ref(), va.as_ref(), ca - cb, stats),
                BinOp::Eq => {
                    zone.add_diff(va.as_ref(), vb.as_ref(), cb - ca, stats)
                        && zone.add_diff(vb.as_ref(), va.as_ref(), ca - cb, stats)
                }
                // A single disequality is not a difference constraint.
                _ => zone.is_sat(),
            }
        }
        _ => zone.is_sat(),
    }
}

/// Whether the zone proves `minuend ≥ subtrahend` — the underflow
/// obligation for `minuend - subtrahend`. Both sides must be wrap-free
/// difference terms for the comparison to be meaningful.
pub(crate) fn entails_ge(zone: &Zone, minuend: &Expr, subtrahend: &Expr) -> bool {
    if !zone.is_sat() {
        return true;
    }
    let (Some(tm), Some(ts)) = (term(minuend), term(subtrahend)) else { return false };
    if !term_wrap_free(zone, &tm) || !term_wrap_free(zone, &ts) {
        return false;
    }
    // m + cm ≥ s + cs ⇔ s - m ≤ cm - cs.
    zone.entails_diff(ts.0.as_ref(), tm.0.as_ref(), tm.1 - ts.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(a: &str, b: &str) -> Expr {
        Expr::gt(Expr::param(a), Expr::param(b))
    }

    #[test]
    fn mirrored_guard_discharges_subtraction() {
        // require(b < a) ⊢ a - b safe — beyond the syntactic matcher
        // (wrong operand order) and beyond intervals (both TOP).
        let mut z = Zone::new();
        let mut st = ZoneStats::default();
        assert!(assume(
            &mut z,
            &Expr::Bin(BinOp::Lt, Box::new(Expr::param("b")), Box::new(Expr::param("a"))),
            true,
            &mut st
        ));
        assert!(entails_ge(&z, &Expr::param("a"), &Expr::param("b")));
        assert!(!entails_ge(&z, &Expr::param("b"), &Expr::param("a")));
        assert!(st.constraints >= 1);
    }

    #[test]
    fn transitive_chain_closes() {
        // a > b, b > c ⊢ a > c (and a - c ≥ 2).
        let mut z = Zone::new();
        let mut st = ZoneStats::default();
        assert!(assume(&mut z, &gt("a", "b"), true, &mut st));
        assert!(assume(&mut z, &gt("b", "c"), true, &mut st));
        assert!(entails_ge(&z, &Expr::param("a"), &Expr::param("c")));
        // a ≥ c + 2 via closure.
        assert!(z.entails_diff(Some(&ZVar::Param("c".into())), Some(&ZVar::Param("a".into())), -2));
    }

    #[test]
    fn contradiction_detected() {
        let mut z = Zone::new();
        let mut st = ZoneStats::default();
        assert!(assume(&mut z, &gt("a", "b"), true, &mut st));
        assert!(!assume(&mut z, &gt("b", "a"), true, &mut st));
        assert!(!z.is_sat());
        // Unsat zones entail everything (vacuous truth).
        assert!(entails_ge(&z, &Expr::param("b"), &Expr::param("a")));
    }

    #[test]
    fn symmetric_range_via_conjunction() {
        // require(lo <= x && x <= hi) keeps both bounds.
        let cond = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Bin(BinOp::Le, Box::new(Expr::param("lo")), Box::new(Expr::param("x")))),
            Box::new(Expr::Bin(BinOp::Le, Box::new(Expr::param("x")), Box::new(Expr::param("hi")))),
        );
        let mut z = Zone::new();
        let mut st = ZoneStats::default();
        assert!(assume(&mut z, &cond, true, &mut st));
        assert!(entails_ge(&z, &Expr::param("x"), &Expr::param("lo")));
        assert!(entails_ge(&z, &Expr::param("hi"), &Expr::param("x")));
        assert!(!entails_ge(&z, &Expr::param("lo"), &Expr::param("x")));
    }

    #[test]
    fn may_wrap_offset_terms_are_dropped() {
        // Nothing is known about p, so `p - 3` may wrap: asserting
        // `a <= p - 3` must not bound a (the verify_soundness pin).
        let mut z = Zone::new();
        let mut st = ZoneStats::default();
        let cond = Expr::Bin(
            BinOp::Le,
            Box::new(Expr::param("a")),
            Box::new(Expr::sub(Expr::param("p"), Expr::UInt(3))),
        );
        assert!(assume(&mut z, &cond, true, &mut st));
        assert!(!entails_ge(&z, &Expr::param("p"), &Expr::param("a")));

        // With p ≥ 3 established first, the same guard is usable.
        let mut z2 = Zone::new();
        assert!(assume(&mut z2, &Expr::ge(Expr::param("p"), Expr::UInt(3)), true, &mut st));
        assert!(assume(&mut z2, &cond, true, &mut st));
        assert!(entails_ge(&z2, &Expr::param("p"), &Expr::param("a")));
    }

    #[test]
    fn join_keeps_common_facts_only() {
        let mut st = ZoneStats::default();
        let mut z1 = Zone::new();
        assume(&mut z1, &gt("a", "b"), true, &mut st);
        assume(&mut z1, &Expr::ge(Expr::param("a"), Expr::UInt(10)), true, &mut st);
        let mut z2 = Zone::new();
        assume(&mut z2, &gt("a", "b"), true, &mut st);
        let j = Zone::join(&z1, &z2, &mut st);
        // a > b survives (in both); a ≥ 10 does not (only one side).
        assert!(entails_ge(&j, &Expr::param("a"), &Expr::param("b")));
        assert_eq!(j.var_min(&ZVar::Param("a".into())), Some(1));
    }

    #[test]
    fn join_with_unsat_side_is_identity() {
        let mut st = ZoneStats::default();
        let mut dead = Zone::new();
        assume(&mut dead, &gt("a", "b"), true, &mut st);
        assume(&mut dead, &gt("b", "a"), true, &mut st);
        assert!(!dead.is_sat());
        let mut live = Zone::new();
        assume(&mut live, &gt("a", "b"), true, &mut st);
        let j = Zone::join(&live, &dead, &mut st);
        assert!(j.is_sat());
        assert!(entails_ge(&j, &Expr::param("a"), &Expr::param("b")));
    }

    #[test]
    fn shift_tracks_increments_and_decrements() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        let g = ZVar::Global("g".into());
        assume(&mut z, &Expr::ge(Expr::global("g"), Expr::UInt(5)), true, &mut st);
        // g := g - 2 (wrap-free: g ≥ 5).
        z.shift(&g, -2);
        assert_eq!(z.var_min(&g), Some(3));
        z.shift(&g, 10);
        assert_eq!(z.var_min(&g), Some(13));
    }

    #[test]
    fn assign_var_relates_destination() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        assume(&mut z, &Expr::ge(Expr::param("a"), Expr::UInt(7)), true, &mut st);
        let g = ZVar::Global("g".into());
        // g := a + 1 (a ≤ MAX - 1 not entailed — but assign_var is only
        // called by ir.rs after proving wrap-freedom; here delta -1).
        z.assign_var(&g, &ZVar::Param("a".into()), -1, &mut st);
        assert_eq!(z.var_min(&g), Some(6));
        // g < a is now entailed.
        assert!(z.entails_diff(Some(&g), Some(&ZVar::Param("a".into())), -1));
    }

    #[test]
    fn assign_bounds_seeds_interval_facts() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        let g = ZVar::Global("g".into());
        z.assign_bounds(&g, 4, 20, &mut st);
        assert_eq!(z.var_min(&g), Some(4));
        assert_eq!(z.var_max(&g), Some(20));
    }

    #[test]
    fn constant_false_atom_is_unsat() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        let one_lt_one = Expr::Bin(BinOp::Lt, Box::new(Expr::UInt(1)), Box::new(Expr::UInt(1)));
        assert!(!assume(&mut z, &one_lt_one, true, &mut st));
        assert!(!z.is_sat());
    }

    #[test]
    fn equality_is_two_inequalities() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        assume(&mut z, &Expr::eq(Expr::param("a"), Expr::param("b")), true, &mut st);
        assert!(entails_ge(&z, &Expr::param("a"), &Expr::param("b")));
        assert!(entails_ge(&z, &Expr::param("b"), &Expr::param("a")));
    }

    #[test]
    fn opaque_atoms_are_skipped() {
        let mut st = ZoneStats::default();
        let mut z = Zone::new();
        let cond = Expr::eq(Expr::param("w"), Expr::Caller);
        assert!(assume(&mut z, &cond, true, &mut st));
        assert_eq!(st.constraints, 0);
    }
}
