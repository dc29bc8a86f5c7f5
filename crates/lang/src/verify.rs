//! The theorem verifier.
//!
//! Before any code is emitted the program is checked against a battery of
//! safety theorems, in the two assumption modes Reach uses (Fig. 2.11):
//! once assuming **all participants are honest** and once assuming **none
//! are** (every parameter adversarial). The checks are syntactic/
//! structural — dominating-guard analysis rather than SMT — but they
//! discharge the same obligations the paper highlights:
//!
//! * **token linearity** — the contract can always reach a state with an
//!   empty balance (the implicit `closeContract` pays the remainder to
//!   the creator), and every `Transfer` is dominated by a guard that the
//!   balance covers the amount;
//! * **map cleanup** — every map that is written is also deleted from on
//!   some path (the verification flow of §4.1.5 deletes each DID entry);
//! * **arithmetic safety** — every subtraction is dominated by a guard
//!   bounding the minuend (phase conditions count, as they gate entry;
//!   a guard reads the same either way round, so `b < a` bounds `a - b`
//!   as `a > b` does, and a guard lapses once a global or map it reads
//!   is written); when the syntactic matcher gives up, the interval
//!   analysis of `crate::ir` is consulted before a failure is reported.
//!   Neither relates two guards, so `a > b` and `b > c` do not
//!   discharge `a - c`;
//! * **effect ordering** — no state writes after a `Transfer`
//!   (checks-effects-interactions);
//! * **knowledge/privacy** — byte payloads are stored as commitments,
//!   never raw.
//!
//! Failures are structured [`Diagnostic`]s (codes `V0101`–`V0105`) with
//! source spans, renderable by `crate::pretty::render_diagnostic`.

use crate::ast::{BinOp, Expr, Program, Stmt};
use crate::diag::{Diagnostic, NodePath, Owner};
use crate::ir::{self, ProgramFlows};

/// The participant-assumption mode of a verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// All participants follow the protocol: `pay` declarations hold.
    AllHonest,
    /// No participant is trusted: every parameter is adversarial and
    /// only on-chain guards count.
    NoneHonest,
}

/// Outcome of verification.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Number of theorems checked across all passes.
    pub theorems_checked: usize,
    /// Structured failures (empty = verified).
    pub failures: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Whether all theorems passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Verifying knowledge assertions")?;
        writeln!(f, "Verifying for generic connector")?;
        writeln!(f, "Verifying when ALL participants are honest")?;
        writeln!(f, "Verifying when NO participants are honest")?;
        if self.failures.is_empty() {
            write!(f, "Checked {} theorems; No failures!", self.theorems_checked)
        } else {
            writeln!(
                f,
                "Checked {} theorems; {} FAILURES:",
                self.theorems_checked,
                self.failures.len()
            )?;
            for failure in &self.failures {
                writeln!(f, "  ✗ {}", failure.message)?;
            }
            Ok(())
        }
    }
}

/// Verifies a program, returning the aggregated report.
pub fn verify(program: &Program) -> VerifyReport {
    verify_flows(program, &ProgramFlows::new(program))
}

/// [`verify`] over flows the caller already computed (the compile
/// pipeline's, see [`crate::backend::compile`]).
pub(crate) fn verify_flows(program: &Program, flows: &ProgramFlows) -> VerifyReport {
    let mut theorems = 0usize;
    let mut failures = Vec::new();

    // --- Knowledge assertions: byte payloads are committed, not stored.
    for (_, api) in program.all_apis() {
        for_each_stmt(&api.body, &mut |stmt| {
            if let Stmt::MapSet { .. } = stmt {
                // Structural by construction: the backends store
                // commitments only. One theorem per write site.
                theorems += 1;
            }
        });
        // One theorem per byte-typed parameter: its raw content never
        // enters persistent state (commitment discipline).
        theorems +=
            api.params.iter().filter(|(_, ty)| matches!(ty, crate::ast::Ty::Bytes(_))).count();
    }
    // Byte-typed constructor fields are likewise committed, one theorem
    // each.
    theorems += program
        .creator
        .fields
        .iter()
        .filter(|(_, ty)| matches!(ty, crate::ast::Ty::Bytes(_)))
        .count();

    // --- Generic connector: map cleanup and token linearity. One walk
    // over every body finds, per map, the first write and whether any
    // delete exists.
    let names = flows.names();
    let mut first_write: Vec<Option<(Owner, Vec<u32>)>> = vec![None; program.maps.len()];
    let mut deleted = vec![false; program.maps.len()];
    let apis = program.phases.iter().enumerate().flat_map(|(phase_idx, phase)| {
        phase.apis.iter().enumerate().map(move |(api_idx, api)| {
            (Owner::Api { phase: phase_idx as u32, api: api_idx as u32 }, &api.body)
        })
    });
    let mut prefix = Vec::new();
    for (owner, stmts) in std::iter::once((Owner::Constructor, &program.constructor)).chain(apis) {
        for_each_stmt_path(stmts, &mut prefix, &mut |stmt, path| match stmt {
            Stmt::MapSet { map, .. } => {
                if let Some(first) = names.map(map).map(|id| &mut first_write[id]) {
                    first.get_or_insert_with(|| (owner, path.to_vec()));
                }
            }
            Stmt::MapDelete { map, .. } => {
                if let Some(id) = names.map(map) {
                    deleted[id] = true;
                }
            }
            _ => {}
        });
    }
    for (map_idx, map) in program.maps.iter().enumerate() {
        theorems += 1;
        let Some(id) = names.map(&map.name) else { continue };
        if let (Some((owner, path)), false) = (&first_write[id], deleted[id]) {
            failures.push(
                Diagnostic::error(
                    "V0105",
                    format!(
                        "map {:?} is written but never deleted: storage leaks past finalization",
                        map.name
                    ),
                )
                .at(program.spans.get(&NodePath::Map(map_idx)))
                .note(program.spans.get(&NodePath::Stmt(*owner, path.clone())), "written here")
                .suggest("add a `delete` for the entry on some path before finalization"),
            );
        }
    }
    // Token linearity: the implicit close pays the full balance to the
    // creator, so the terminal balance is zero; one theorem per phase
    // boundary that can reach close, plus the final close-pays-creator
    // obligation itself.
    theorems += program.phases.len() + 1;

    // --- Per-API passes in both modes. The interval analysis is mode-
    // independent (it already treats every parameter as adversarial), so
    // both modes read the same flow.
    for mode in [Mode::AllHonest, Mode::NoneHonest] {
        for (phase_idx, phase) in program.phases.iter().enumerate() {
            for (api_idx, api) in phase.apis.iter().enumerate() {
                let (t, fails) =
                    verify_api(program, phase_idx, api_idx, mode, &flows.apis[phase_idx][api_idx]);
                theorems += t;
                for mut d in fails {
                    d.message = format!("[{mode:?}] api {:?}: {}", api.name, d.message);
                    failures.push(d);
                }
            }
        }
        // Phase invariants are range-over-globals Booleans; one theorem
        // per phase per mode.
        theorems += program.phases.len();
    }

    VerifyReport { theorems_checked: theorems, failures }
}

/// Verifies one API under the given mode. Returns the theorem count and
/// the failures.
fn verify_api(
    program: &Program,
    phase_idx: usize,
    api_idx: usize,
    mode: Mode,
    flow: &ir::BodyAnalysis,
) -> (usize, Vec<Diagnostic>) {
    let phase = &program.phases[phase_idx];
    let api = &phase.apis[api_idx];
    let owner = Owner::Api { phase: phase_idx as u32, api: api_idx as u32 };
    let at = |path: &[u32]| program.spans.get(&NodePath::Stmt(owner, path.to_vec()));
    let mut theorems = 0usize;
    let mut failures = Vec::new();

    // Pay well-formedness.
    if api.pay.is_some() {
        theorems += 1;
    }
    // Return totality.
    theorems += 1;
    // Phase progress: the phase counter is monotone across this API (it
    // only ever advances by the epilogue's condition re-check).
    theorems += 1;

    let mut guards = vec![Guard::Holds(&phase.while_cond)];
    // In honest mode the declared payment is a usable fact.
    if mode == Mode::AllHonest {
        if let Some(pay) = &api.pay {
            guards.push(Guard::BalanceCovers(pay));
        }
    }

    let mut transferred = false;
    walk_guarded(&api.body, &mut guards, &mut Vec::new(), &mut |stmt, guards, path| match stmt {
        Stmt::Transfer { amount, .. } => {
            theorems += 1;
            if !guards_cover_balance(guards, amount) {
                failures.push(
                    Diagnostic::error(
                        "V0101",
                        format!("transfer of {amount:?} is not dominated by a balance guard"),
                    )
                    .at(at(path))
                    .suggest("guard the transfer with `require(balance >= amount)` or an `if`"),
                );
            }
            transferred = true;
        }
        Stmt::GlobalSet { value, .. } => {
            for_each_sub(value, &mut |minuend, subtrahend| {
                theorems += 1;
                // Syntactic dominating-guard matcher first; the interval
                // analysis proves more (e.g. `require(x >= 5); g = x - 3;`,
                // where no guard names the subtrahend).
                if !guards_bound_minuend(guards, minuend, subtrahend)
                    && !flow.proves_sub_safe(path, minuend, subtrahend)
                {
                    failures.push(
                        Diagnostic::error(
                            "V0102",
                            format!("subtraction {minuend:?} - {subtrahend:?} may underflow"),
                        )
                        .at(at(path))
                        .suggest("add a dominating guard bounding the minuend from below"),
                    );
                }
            });
            if transferred {
                failures.push(
                    Diagnostic::error("V0103", "state write after transfer (effect ordering)")
                        .at(at(path))
                        .suggest("move all state writes before the transfer"),
                );
            }
            theorems += 1; // effect-ordering theorem per write
        }
        Stmt::MapSet { .. } | Stmt::MapDelete { .. } => {
            if transferred && matches!(stmt, Stmt::MapSet { .. }) {
                failures.push(
                    Diagnostic::error("V0104", "map write after transfer (effect ordering)")
                        .at(at(path))
                        .suggest("move all map writes before the transfer"),
                );
            }
            theorems += 1;
        }
        _ => {}
    });

    (theorems, failures)
}

/// Visits every statement, recursing into `If` arms.
fn for_each_stmt(stmts: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for stmt in stmts {
        f(stmt);
        if let Stmt::If { then, otherwise, .. } = stmt {
            for_each_stmt(then, f);
            for_each_stmt(otherwise, f);
        }
    }
}

/// Visits every statement with its [`NodePath::Stmt`]-style path
/// (child index, with `0`/`1` arm markers inside `if` statements).
fn for_each_stmt_path(stmts: &[Stmt], prefix: &mut Vec<u32>, f: &mut impl FnMut(&Stmt, &[u32])) {
    for (i, stmt) in stmts.iter().enumerate() {
        prefix.push(i as u32);
        f(stmt, prefix);
        if let Stmt::If { then, otherwise, .. } = stmt {
            prefix.push(0);
            for_each_stmt_path(then, prefix, f);
            prefix.pop();
            prefix.push(1);
            for_each_stmt_path(otherwise, prefix, f);
            prefix.pop();
        }
        prefix.pop();
    }
}

/// A fact that dominates a statement, borrowed from the AST. An
/// else-arm's negated condition is no guard: neither matcher below has
/// a pattern it could satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Guard<'a> {
    /// The condition holds (a phase condition, an earlier `require`,
    /// the `if` whose then-arm encloses the statement).
    Holds(&'a Expr),
    /// `balance >= amount`: an honest caller attached the declared
    /// payment.
    BalanceCovers(&'a Expr),
}

impl<'a> Guard<'a> {
    /// The guard as a binary relation `lhs OP rhs`, when it is one; a
    /// `<` or `<=` guard reads mirrored, as `>` or `>=`.
    fn relation(self) -> Option<(BinOp, &'a Expr, &'a Expr)> {
        static BALANCE: Expr = Expr::Balance;
        match self {
            Guard::Holds(Expr::Bin(BinOp::Lt, lhs, rhs)) => Some((BinOp::Gt, rhs, lhs)),
            Guard::Holds(Expr::Bin(BinOp::Le, lhs, rhs)) => Some((BinOp::Ge, rhs, lhs)),
            Guard::Holds(Expr::Bin(op, lhs, rhs)) => Some((*op, lhs, rhs)),
            Guard::BalanceCovers(amount) => Some((BinOp::Ge, &BALANCE, amount)),
            Guard::Holds(_) => None,
        }
    }

    /// Whether the guard reads a value `hit` matches.
    fn reads(self, hit: &impl Fn(&Expr) -> bool) -> bool {
        match self {
            Guard::Holds(cond) => reads(cond, hit),
            Guard::BalanceCovers(amount) => reads(amount, hit),
        }
    }

    /// What the guard still says once `amount` has left the balance:
    /// `balance >= a + b` becomes `balance >= b` after `a` is paid (the
    /// §2.8 witness reward pays both summands in turn). Any other guard
    /// that reads the balance no longer holds.
    fn after_transfer(self, amount: &Expr) -> Option<Guard<'a>> {
        let reads_balance = |g: Guard<'_>| match g {
            Guard::BalanceCovers(_) => true,
            Guard::Holds(_) => g.reads(&|e| *e == Expr::Balance),
        };
        if !reads_balance(self) {
            return Some(self);
        }
        let Some((BinOp::Ge | BinOp::Gt, Expr::Balance, Expr::Bin(BinOp::Add, lhs, rhs))) =
            self.relation()
        else {
            return None;
        };
        let rest = if **lhs == *amount {
            Guard::BalanceCovers(rhs)
        } else if **rhs == *amount {
            Guard::BalanceCovers(lhs)
        } else {
            return None;
        };
        (!rest.reads(&|e| *e == Expr::Balance)).then_some(rest)
    }
}

/// Whether `hit` matches `expr` or any expression inside it.
fn reads(expr: &Expr, hit: &impl Fn(&Expr) -> bool) -> bool {
    hit(expr)
        || match expr {
            Expr::Bin(_, lhs, rhs) => reads(lhs, hit) || reads(rhs, hit),
            Expr::Not(inner) => reads(inner, hit),
            Expr::Hash(parts) => parts.iter().any(|p| reads(p, hit)),
            Expr::MapGet { key, .. } | Expr::MapContains { key, .. } => reads(key, hit),
            _ => false,
        }
}

/// Visits statements with the dominating guard set (phase conditions,
/// earlier `Require`s, enclosing `If` conditions) and the statement
/// path. A guard lasts only while what it reads is unchanged: a write
/// to a global or a map drops every guard that reads it, a transfer
/// spends what a balance guard covered, and after an `if` only the
/// guards both arms kept remain.
pub(crate) fn walk_guarded<'a>(
    stmts: &'a [Stmt],
    guards: &mut Vec<Guard<'a>>,
    prefix: &mut Vec<u32>,
    f: &mut impl FnMut(&'a Stmt, &[Guard<'a>], &[u32]),
) {
    for (i, stmt) in stmts.iter().enumerate() {
        prefix.push(i as u32);
        f(stmt, guards, prefix);
        match stmt {
            Stmt::Require(cond) => guards.push(Guard::Holds(cond)),
            Stmt::GlobalSet { name, .. } => {
                guards.retain(|g| !g.reads(&|e| matches!(e, Expr::Global(n) if n == name)));
            }
            Stmt::MapSet { map, .. } | Stmt::MapDelete { map, .. } => guards.retain(|g| {
                !g.reads(&|e| {
                    matches!(e, Expr::MapGet { map: m, .. } | Expr::MapContains { map: m, .. }
                        if m == map)
                })
            }),
            Stmt::Transfer { amount, .. } => {
                guards.retain_mut(|g| match g.after_transfer(amount) {
                    Some(rest) => {
                        *g = rest;
                        true
                    }
                    None => false,
                })
            }
            Stmt::If { cond, then, otherwise } => {
                let mut other = guards.clone();
                guards.push(Guard::Holds(cond));
                prefix.push(0);
                walk_guarded(then, guards, prefix, f);
                prefix.pop();
                prefix.push(1);
                walk_guarded(otherwise, &mut other, prefix, f);
                prefix.pop();
                guards.retain(|g| other.contains(g));
            }
            Stmt::Log(_) => {}
        }
        prefix.pop();
    }
}

/// Whether some dominating guard proves `Balance >= amount`.
///
/// A guard `Balance >= a₁ + a₂ + …` also covers each summand
/// individually: the summands may be paid out sequentially and their
/// total is bounded by the balance (the §2.8 witness-reward contract
/// pays the prover and the witness under one combined guard).
pub(crate) fn guards_cover_balance(guards: &[Guard<'_>], amount: &Expr) -> bool {
    fn add_leaves<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::Bin(BinOp::Add, lhs, rhs) => {
                add_leaves(lhs, out);
                add_leaves(rhs, out);
            }
            other => out.push(other),
        }
    }
    guards.iter().any(|g| match g.relation() {
        Some((BinOp::Ge | BinOp::Gt, lhs, rhs)) if *lhs == Expr::Balance => {
            if *rhs == *amount {
                return true;
            }
            let mut leaves = Vec::new();
            add_leaves(rhs, &mut leaves);
            leaves.len() > 1 && leaves.contains(&amount)
        }
        Some((BinOp::Eq, lhs, rhs)) => {
            (*lhs == Expr::Balance && *rhs == *amount) || (*rhs == Expr::Balance && *lhs == *amount)
        }
        _ => false,
    })
}

/// Whether some guard bounds `minuend` so `minuend - subtrahend` cannot
/// underflow: `minuend > 0` (for unit decrements), `minuend >= sub`, or
/// `minuend > sub`.
fn guards_bound_minuend(guards: &[Guard<'_>], minuend: &Expr, subtrahend: &Expr) -> bool {
    guards.iter().any(|g| match g.relation() {
        Some((BinOp::Gt, lhs, rhs)) => {
            *lhs == *minuend
                && (*rhs == *subtrahend || (*rhs == Expr::UInt(0) && *subtrahend == Expr::UInt(1)))
        }
        Some((BinOp::Ge, lhs, rhs)) => *lhs == *minuend && *rhs == *subtrahend,
        _ => false,
    })
}

/// Visits every `a - b` inside an expression.
fn for_each_sub(expr: &Expr, f: &mut impl FnMut(&Expr, &Expr)) {
    match expr {
        Expr::Bin(BinOp::Sub, lhs, rhs) => {
            f(lhs, rhs);
            for_each_sub(lhs, f);
            for_each_sub(rhs, f);
        }
        Expr::Bin(_, lhs, rhs) => {
            for_each_sub(lhs, f);
            for_each_sub(rhs, f);
        }
        Expr::Not(inner) => for_each_sub(inner, f),
        Expr::Hash(parts) => {
            for p in parts {
                for_each_sub(p, f);
            }
        }
        Expr::MapGet { key, .. } | Expr::MapContains { key, .. } => for_each_sub(key, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn counter_verifies() {
        let report = verify(&Program::counter_example());
        assert!(report.ok(), "{report}");
        assert!(report.theorems_checked > 0);
        assert!(report.to_string().contains("No failures!"));
    }

    #[test]
    fn unguarded_transfer_fails() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body.push(Stmt::Transfer { to: Expr::Caller, amount: Expr::UInt(100) });
        let report = verify(&p);
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.message.contains("balance guard")), "{report}");
        assert!(report.failures.iter().all(|f| f.code == "V0101"));
    }

    #[test]
    fn guarded_transfer_passes() {
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body.push(Stmt::If {
            cond: Expr::ge(Expr::Balance, Expr::UInt(100)),
            then: vec![Stmt::Transfer { to: Expr::Caller, amount: Expr::UInt(100) }],
            otherwise: vec![],
        });
        let report = verify(&p);
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn unguarded_subtraction_fails() {
        let mut p = Program::counter_example();
        // remove the while-cond guard by subtracting a different global
        p.phases[0].apis[0].body.push(Stmt::GlobalSet {
            name: "count".into(),
            value: Expr::sub(Expr::global("count"), Expr::UInt(1)),
        });
        let report = verify(&p);
        assert!(report.failures.iter().any(|f| f.message.contains("underflow")), "{report}");
        assert!(report.failures.iter().all(|f| f.code == "V0102"));
    }

    #[test]
    fn interval_analysis_discharges_nonmatching_guard() {
        // `require(by >= 5); count = by - 3;` — no guard names the
        // subtrahend 3, so the syntactic matcher fails, but intervals
        // know by ∈ [5, MAX].
        let mut p = Program::counter_example();
        p.phases[0].apis[0].body = vec![
            Stmt::Require(Expr::ge(Expr::param("by"), Expr::UInt(5))),
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::param("by"), Expr::UInt(3)),
            },
        ];
        let report = verify(&p);
        assert!(report.ok(), "{report}");
    }

    /// The counter program with extra `uint` parameters and this body.
    fn counter_with(params: &[&str], body: Vec<Stmt>) -> Program {
        let mut p = Program::counter_example();
        let api = &mut p.phases[0].apis[0];
        api.params.extend(params.iter().map(|name| (name.to_string(), Ty::UInt)));
        api.body = body;
        p
    }

    /// `count = minuend - subtrahend` after `require(guard)`.
    fn sub_after(params: &[&str], guard: Expr, minuend: &str, subtrahend: &str) -> Program {
        counter_with(
            params,
            vec![
                Stmt::Require(guard),
                Stmt::GlobalSet {
                    name: "count".into(),
                    value: Expr::sub(Expr::param(minuend), Expr::param(subtrahend)),
                },
            ],
        )
    }

    #[test]
    fn mirrored_guard_discharges_subtraction() {
        // `require(floor < by); count = by - floor;` — the minuend sits
        // on the right; the matcher reads the guard as `by > floor`. Two
        // opaque parameters leave the intervals nothing to relate.
        for op in [BinOp::Lt, BinOp::Le] {
            let guard = Expr::Bin(op, Box::new(Expr::param("floor")), Box::new(Expr::param("by")));
            let report = verify(&sub_after(&["floor"], guard, "by", "floor"));
            assert!(report.ok(), "{op:?}: {report}");
        }
    }

    #[test]
    fn wrong_way_mirrored_guard_still_fails() {
        // `require(by < floor)` bounds `floor - by`, not `by - floor`.
        let guard =
            Expr::Bin(BinOp::Lt, Box::new(Expr::param("by")), Box::new(Expr::param("floor")));
        let report = verify(&sub_after(&["floor"], guard, "by", "floor"));
        assert!(!report.ok());
        assert!(report.failures.iter().all(|f| f.code == "V0102"), "{report}");
    }

    /// `lhs < rhs`.
    fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(lhs), Box::new(rhs))
    }

    /// `name = value`.
    fn set(name: &str, value: Expr) -> Stmt {
        Stmt::GlobalSet { name: name.into(), value }
    }

    #[test]
    fn phase_condition_lapses_once_its_global_is_written() {
        // `while (count < 10)` read mirrored is `10 > count`, but after
        // `count = count + 5` it no longer bounds `10 - count`.
        let mut p = counter_with(
            &[],
            vec![
                set(
                    "count",
                    Expr::Bin(BinOp::Add, Box::new(Expr::global("count")), Box::new(Expr::UInt(5))),
                ),
                set("remaining", Expr::sub(Expr::UInt(10), Expr::global("count"))),
            ],
        );
        p.phases[0].while_cond = lt(Expr::global("count"), Expr::UInt(10));
        let report = verify(&p);
        assert_eq!(report.failures.len(), 2, "{report}");
        assert!(report.failures.iter().all(|f| f.code == "V0102"));
    }

    #[test]
    fn guard_lapses_once_its_global_is_written() {
        // `require(floor < count); count = 0; remaining = count - floor;`
        // and the same with the write in one arm of an `if`.
        let guard = || Stmt::Require(lt(Expr::param("floor"), Expr::global("count")));
        let gap = || set("remaining", Expr::sub(Expr::global("count"), Expr::param("floor")));
        let reset = || set("count", Expr::UInt(0));
        let bodies = [
            vec![guard(), gap()],
            vec![guard(), reset(), gap()],
            vec![
                guard(),
                Stmt::If {
                    cond: Expr::gt(Expr::param("by"), Expr::UInt(1)),
                    then: vec![reset()],
                    otherwise: vec![],
                },
                gap(),
            ],
        ];
        let failures: Vec<usize> = bodies
            .into_iter()
            .map(|body| verify(&counter_with(&["floor"], body)).failures.len())
            .collect();
        assert_eq!(failures, [0, 2, 2]);
    }

    #[test]
    fn transfer_spends_its_balance_guard() {
        let pay = |amount: &str| Stmt::Transfer { to: Expr::Caller, amount: Expr::param(amount) };
        let sum = Expr::Bin(BinOp::Add, Box::new(Expr::param("a")), Box::new(Expr::param("b")));
        let bodies = [
            // `require(a < balance)` covers one payment of `a`, not two.
            vec![Stmt::Require(lt(Expr::param("a"), Expr::Balance)), pay("a")],
            vec![Stmt::Require(lt(Expr::param("a"), Expr::Balance)), pay("a"), pay("a")],
            // `require(balance >= a + b)` covers `a` then `b`, not `a` twice.
            vec![Stmt::Require(Expr::ge(Expr::Balance, sum.clone())), pay("a"), pay("b")],
            vec![Stmt::Require(Expr::ge(Expr::Balance, sum)), pay("a"), pay("a")],
        ];
        let v0101 = |body| {
            let report = verify(&counter_with(&["a", "b"], body));
            report.failures.iter().filter(|f| f.code == "V0101").count()
        };
        let failures: Vec<usize> = bodies.into_iter().map(v0101).collect();
        assert_eq!(failures, [0, 2, 0, 2]);
    }

    #[test]
    fn transitive_chain_is_not_discharged() {
        // `a > b` and `b > c` imply `a > c`, but neither matcher relates
        // two guards: the subtraction is rejected, once per mode.
        let p = counter_with(
            &["a", "b", "c"],
            vec![
                Stmt::Require(Expr::gt(Expr::param("a"), Expr::param("b"))),
                Stmt::Require(Expr::gt(Expr::param("b"), Expr::param("c"))),
                Stmt::GlobalSet {
                    name: "count".into(),
                    value: Expr::sub(Expr::param("a"), Expr::param("c")),
                },
            ],
        );
        let report = verify(&p);
        assert_eq!(report.failures.len(), 2, "{report}");
        assert!(report.failures.iter().all(|f| f.code == "V0102"));
    }

    #[test]
    fn may_wrap_guard_still_rejected() {
        // The verify_soundness pin: `require(a <= p - q)` must not
        // launder a possibly-wrapping `p - q` into a bound on `a`.
        let mut p = Program::counter_example();
        for extra in ["a", "p", "q"] {
            p.phases[0].apis[0].params.push((extra.into(), Ty::UInt));
        }
        p.phases[0].apis[0].body = vec![
            Stmt::Require(Expr::Bin(
                BinOp::Le,
                Box::new(Expr::param("a")),
                Box::new(Expr::sub(Expr::param("p"), Expr::param("q"))),
            )),
            Stmt::GlobalSet {
                name: "count".into(),
                value: Expr::sub(Expr::param("p"), Expr::param("a")),
            },
        ];
        let report = verify(&p);
        assert!(!report.ok(), "wrapping guard must not discharge the theorem");
        assert!(report.failures.iter().all(|f| f.code == "V0102"));
    }

    #[test]
    fn write_after_transfer_fails() {
        let mut p = Program::counter_example();
        let api = &mut p.phases[0].apis[0];
        api.body.insert(
            0,
            Stmt::If {
                cond: Expr::ge(Expr::Balance, Expr::UInt(1)),
                then: vec![Stmt::Transfer { to: Expr::Caller, amount: Expr::UInt(1) }],
                otherwise: vec![],
            },
        );
        // The counter updates now happen *after* the transfer.
        let report = verify(&p);
        assert!(report.failures.iter().any(|f| f.message.contains("effect ordering")), "{report}");
        assert!(report.failures.iter().any(|f| f.code == "V0103"));
    }

    #[test]
    fn map_leak_detected() {
        let mut p = Program::counter_example();
        p.maps.push(MapDecl { name: "m".into(), value_bytes: 64 });
        p.phases[0].apis[0].body.push(Stmt::MapSet {
            map: "m".into(),
            key: Expr::param("by"),
            value: vec![Expr::param("by")],
        });
        let report = verify(&p);
        assert!(report.failures.iter().any(|f| f.message.contains("never deleted")), "{report}");
        assert!(report.failures.iter().any(|f| f.code == "V0105" && f.notes.len() == 1));
    }

    #[test]
    fn map_with_cleanup_passes() {
        let mut p = Program::counter_example();
        p.maps.push(MapDecl { name: "m".into(), value_bytes: 64 });
        p.phases[0].apis[0].body.push(Stmt::MapSet {
            map: "m".into(),
            key: Expr::param("by"),
            value: vec![Expr::param("by")],
        });
        p.phases[0].apis[0].body.push(Stmt::MapDelete { map: "m".into(), key: Expr::param("by") });
        let report = verify(&p);
        assert!(report.ok(), "{report}");
    }
}
