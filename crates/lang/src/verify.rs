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
//!   bounding the minuend (phase conditions count, as they gate entry);
//!   when the syntactic matcher gives up, the interval analysis of
//!   `crate::ir` is consulted, and when *that* gives up the
//!   relational zone domain of [`crate::dbm`] (difference constraints
//!   collected from the path conditions) is the last fallback before a
//!   failure is reported — see [`VerifyReport::relationally_discharged`];
//! * **effect ordering** — no state writes after a `Transfer`
//!   (checks-effects-interactions);
//! * **knowledge/privacy** — byte payloads are stored as commitments,
//!   never raw.
//!
//! Failures are structured [`Diagnostic`]s (codes `V0101`–`V0105`) with
//! source spans, renderable by `crate::pretty::render_diagnostic`.

use crate::ast::{BinOp, Expr, Program, Stmt};
use crate::dbm::ZoneStats;
use crate::diag::{Diagnostic, NodePath, Owner, Span};
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
    /// Theorems neither the syntactic matcher nor the interval domain
    /// could discharge that the relational zone domain proved.
    pub relationally_discharged: usize,
    /// Aggregate difference-logic solver counters across all bodies.
    pub zone_stats: ZoneStats,
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
            write!(f, "Checked {} theorems; No failures!", self.theorems_checked)?;
            if self.relationally_discharged > 0 {
                write!(f, " ({} discharged relationally)", self.relationally_discharged)?;
            }
            Ok(())
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
    verify_with(program, true)
}

/// [`verify`] with the relational zone fallback toggleable
/// (`polc --no-relational` disables it for baseline comparisons).
pub fn verify_with(program: &Program, relational: bool) -> VerifyReport {
    verify_flows(program, &ProgramFlows::new(program, relational))
}

/// [`verify`] over flows the caller already computed (the compile
/// pipeline's, see [`crate::backend::compile`]); whether the zone
/// fallback applies is a property of those flows.
pub(crate) fn verify_flows(program: &Program, flows: &ProgramFlows) -> VerifyReport {
    let mut theorems = 0usize;
    let mut failures = Vec::new();
    let mut relationally_discharged = 0usize;

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
    let mut zone_stats = ZoneStats::default();
    for flow in flows.apis.iter().flatten() {
        zone_stats.absorb(flow.zone_stats);
    }
    for mode in [Mode::AllHonest, Mode::NoneHonest] {
        for (phase_idx, phase) in program.phases.iter().enumerate() {
            for (api_idx, api) in phase.apis.iter().enumerate() {
                let (t, fails, rel) =
                    verify_api(program, phase_idx, api_idx, mode, &flows.apis[phase_idx][api_idx]);
                theorems += t;
                relationally_discharged += rel;
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

    VerifyReport { theorems_checked: theorems, failures, relationally_discharged, zone_stats }
}

/// Verifies one API under the given mode. Returns the theorem count,
/// the failures, and how many theorems only the zone domain proved.
fn verify_api(
    program: &Program,
    phase_idx: usize,
    api_idx: usize,
    mode: Mode,
    flow: &ir::BodyAnalysis,
) -> (usize, Vec<Diagnostic>, usize) {
    let phase = &program.phases[phase_idx];
    let api = &phase.apis[api_idx];
    let owner = Owner::Api { phase: phase_idx as u32, api: api_idx as u32 };
    let at = |path: &[u32]| program.spans.get(&NodePath::Stmt(owner, path.to_vec()));
    let mut theorems = 0usize;
    let mut failures = Vec::new();
    let mut relational = 0usize;

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
                // where no guard names the subtrahend); the relational
                // zone domain proves the remainder (mirrored guards
                // like `require(b < a); g = a - b;`, transitive chains).
                if !guards_bound_minuend(guards, minuend, subtrahend) {
                    match flow.sub_safety(path, minuend, subtrahend) {
                        ir::SubProof::Interval => {}
                        ir::SubProof::Relational => relational += 1,
                        ir::SubProof::Unproven => failures.push(
                            Diagnostic::error(
                                "V0102",
                                format!("subtraction {minuend:?} - {subtrahend:?} may underflow"),
                            )
                            .at(at(path))
                            .note(Span::DUMMY, "not provable relationally from the path conditions")
                            .suggest("add a dominating guard bounding the minuend from below"),
                        ),
                    }
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

    (theorems, failures, relational)
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
#[derive(Debug, Clone, Copy)]
pub(crate) enum Guard<'a> {
    /// The condition holds (a phase condition, an earlier `require`,
    /// the `if` whose then-arm encloses the statement).
    Holds(&'a Expr),
    /// `balance >= amount`: an honest caller attached the declared
    /// payment.
    BalanceCovers(&'a Expr),
}

impl<'a> Guard<'a> {
    /// The guard as a binary relation `lhs OP rhs`, when it is one.
    fn relation(self) -> Option<(BinOp, &'a Expr, &'a Expr)> {
        static BALANCE: Expr = Expr::Balance;
        match self {
            Guard::Holds(Expr::Bin(op, lhs, rhs)) => Some((*op, lhs, rhs)),
            Guard::BalanceCovers(amount) => Some((BinOp::Ge, &BALANCE, amount)),
            Guard::Holds(_) => None,
        }
    }
}

/// Visits statements with the dominating guard set (phase conditions,
/// earlier `Require`s, enclosing `If` conditions) and the statement
/// path.
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
            Stmt::If { cond, then, otherwise } => {
                guards.push(Guard::Holds(cond));
                prefix.push(0);
                walk_guarded(then, guards, prefix, f);
                prefix.pop();
                guards.pop();
                prefix.push(1);
                walk_guarded(otherwise, guards, prefix, f);
                prefix.pop();
            }
            _ => {}
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

    #[test]
    fn zone_discharges_mirrored_guard() {
        // `require(floor < by); count = by - floor;` — mirrored operand
        // order defeats the syntactic matcher, and two opaque params
        // defeat the intervals; only the zone domain proves it.
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
        let report = verify(&p);
        assert!(report.ok(), "{report}");
        // Proved once per mode.
        assert_eq!(report.relationally_discharged, 2);
        assert!(report.zone_stats.constraints > 0);
        assert!(report.to_string().contains("discharged relationally"), "{report}");

        // With the solver off, the same program fails (baseline).
        let base = verify_with(&p, false);
        assert!(!base.ok());
        assert!(base.failures.iter().all(|f| f.code == "V0102"));
        assert_eq!(base.relationally_discharged, 0);
        assert_eq!(base.zone_stats, crate::dbm::ZoneStats::default());
    }

    #[test]
    fn zone_discharges_transitive_chain() {
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
        let report = verify(&p);
        assert!(report.ok(), "{report}");
        assert_eq!(report.relationally_discharged, 2);
        assert!(!verify_with(&p, false).ok());
    }

    #[test]
    fn may_wrap_guard_still_rejected_with_zone() {
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
