//! Cross-contract system analysis.
//!
//! A deployment is rarely one contract: a factory and its children, or
//! two protocol versions sharing a storage namespace, form a *system*.
//! [`analyze_system`] links the members into a graph — edges are
//! same-named globals (shared storage slots) and same-named maps — and
//! checks properties no single-contract pass can see:
//!
//! * **X0501** — two contracts share a global (by name) but place it at
//!   a different storage slot, give it a different type, or constrain
//!   it with phase invariants whose value ranges are *provably
//!   disjoint* (one contract can never produce a state the other
//!   accepts). Ranges come from the interval domain of `crate::ir`:
//!   each phase invariant refines a store that knows nothing else, and
//!   the global's bounds are unioned with its declared constant
//!   initialiser.
//! * **X0502** — the *compiled* artifacts write state the source never
//!   declares: an EVM `SSTORE` to a constant key outside the declared
//!   layout (phase slot, creator slot, one slot per global), map-style
//!   keccak-keyed writes without a declared map, or an AVM program
//!   whose box/global write sites contradict the declarations.
//! * **X0503** — a map shared across contracts with incompatible value
//!   capacities (the commitment payloads cannot round-trip).
//! * **X0504** — a transfer whose amount is not covered by a dominating
//!   balance guard, matched as [`crate::verify`] matches V0101 (so
//!   `amt < balance` covers `amt`). When every edge is covered, the
//!   system as a whole conserves value: the sum of outgoing transfers
//!   never exceeds the deposits the guards account for (factory
//!   aggregate conservation).

use crate::ast::{GlobalInit, Program, Stmt, Ty};
use crate::backend::{evm as evm_backend, CompiledContract};
use crate::diag::{Diagnostic, NodePath, Owner};
use crate::{ir, verify};
use std::collections::HashSet;

/// One contract in the system under analysis.
pub struct SystemMember<'a> {
    /// Display name (defaults to the program's contract name).
    pub name: String,
    /// The checked source program.
    pub program: &'a Program,
    /// Compiled artifacts, when available; enables the bytecode-level
    /// layout checks (X0502).
    pub compiled: Option<&'a CompiledContract>,
}

impl<'a> SystemMember<'a> {
    /// A member named after its contract.
    pub fn new(program: &'a Program, compiled: Option<&'a CompiledContract>) -> Self {
        SystemMember { name: program.name.clone(), program, compiled }
    }
}

/// A linkage edge between two system members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemEdge {
    /// First contract name.
    pub a: String,
    /// Second contract name.
    pub b: String,
    /// What links them, e.g. `global toVerify` or `map provers`.
    pub via: String,
}

/// What the cross-contract pass proved about a system.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Number of contracts analysed.
    pub contracts: usize,
    /// Linkage edges (shared globals and maps) between members.
    pub edges: Vec<SystemEdge>,
    /// Transfer sites across all members.
    pub transfer_edges: usize,
    /// Transfer sites a balance guard covers.
    pub conserved_transfers: usize,
    /// Whether every transfer edge is covered — the aggregate
    /// conservation theorem (total outflow ≤ proven deposits).
    pub aggregate_conserved: bool,
    /// X0501–X0504 findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl SystemReport {
    /// Whether the system passed (no error-severity findings).
    pub fn ok(&self) -> bool {
        self.diagnostics.iter().all(|d| !d.is_error())
    }
}

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "system of {} contract{}: {} linkage edge{}, {} transfer site{} \
             ({} conserved); ",
            self.contracts,
            if self.contracts == 1 { "" } else { "s" },
            self.edges.len(),
            if self.edges.len() == 1 { "" } else { "s" },
            self.transfer_edges,
            if self.transfer_edges == 1 { "" } else { "s" },
            self.conserved_transfers,
        )?;
        if !self.ok() {
            let errors = self.diagnostics.iter().filter(|d| d.is_error()).count();
            write!(f, "{errors} failure{}", if errors == 1 { "" } else { "s" })
        } else if self.aggregate_conserved {
            write!(f, "aggregate conservation holds")
        } else {
            write!(f, "aggregate conservation unproved")
        }
    }
}

/// The value range `[lo, hi]` a contract's declarations and phase
/// invariants permit for one uint global. Returns the full
/// `[0, u64::MAX]` when nothing constrains it (an unknown initialiser,
/// or an invariant the interval domain cannot narrow).
fn global_range(program: &Program, name: &str) -> (u64, u64) {
    let Some(g) = program.globals.iter().find(|g| g.name == name) else {
        return (0, u64::MAX);
    };
    let (mut lo, mut hi) = match g.init {
        GlobalInit::Const(v) => (v, v),
        // Field- or creator-initialised: deployment value is unknown.
        _ => return (0, u64::MAX),
    };
    for phase in &program.phases {
        // Unsatisfiable invariants mean the phase is unreachable and
        // contributes no states.
        if let Some(range) = ir::invariant_range(program, &phase.invariant, name) {
            lo = lo.min(range.lo);
            hi = hi.max(range.hi);
        }
    }
    (lo, hi)
}

/// Runs the cross-contract checks over a system of members.
pub fn analyze_system(members: &[SystemMember<'_>]) -> SystemReport {
    let mut diagnostics = Vec::new();
    let mut edges = Vec::new();

    // --- linkage graph + X0501/X0503: pairwise shared-state checks ---
    for (i, a) in members.iter().enumerate() {
        for b in &members[i + 1..] {
            for (slot_a, ga) in a.program.globals.iter().enumerate() {
                let Some((slot_b, gb)) =
                    b.program.globals.iter().enumerate().find(|(_, g)| g.name == ga.name)
                else {
                    continue;
                };
                edges.push(SystemEdge {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    via: format!("global {}", ga.name),
                });
                if slot_a != slot_b {
                    diagnostics.push(
                        Diagnostic::error(
                            "X0501",
                            format!(
                                "global {:?} sits at slot {} in {} but slot {} in {}",
                                ga.name,
                                evm_backend::global_slot(slot_a),
                                a.name,
                                evm_backend::global_slot(slot_b),
                                b.name
                            ),
                        )
                        .suggest("align the global declaration order across the system"),
                    );
                    continue;
                }
                if ga.ty != gb.ty {
                    diagnostics.push(
                        Diagnostic::error(
                            "X0501",
                            format!(
                                "global {:?} is typed differently in {} and {}",
                                ga.name, a.name, b.name
                            ),
                        )
                        .suggest("shared slots must agree on the stored type"),
                    );
                    continue;
                }
                if ga.ty == Ty::UInt {
                    let (alo, ahi) = global_range(a.program, &ga.name);
                    let (blo, bhi) = global_range(b.program, &gb.name);
                    if alo > bhi || blo > ahi {
                        diagnostics.push(
                            Diagnostic::error(
                                "X0501",
                                format!(
                                    "global {:?}: {} keeps it in [{alo}, {ahi}] but {} requires \
                                     [{blo}, {bhi}] — no state satisfies both",
                                    ga.name, a.name, b.name
                                ),
                            )
                            .suggest("reconcile the phase invariants before sharing the slot"),
                        );
                    }
                }
            }
            for ma in &a.program.maps {
                let Some(mb) = b.program.maps.iter().find(|m| m.name == ma.name) else {
                    continue;
                };
                edges.push(SystemEdge {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    via: format!("map {}", ma.name),
                });
                if ma.value_bytes != mb.value_bytes {
                    diagnostics.push(
                        Diagnostic::error(
                            "X0503",
                            format!(
                                "map {:?} stores {} bytes in {} but {} bytes in {}",
                                ma.name, ma.value_bytes, a.name, mb.value_bytes, b.name
                            ),
                        )
                        .suggest("shared maps must agree on the committed value capacity"),
                    );
                }
            }
        }
    }

    // --- X0502: bytecode writes vs the declared storage layout ---
    for member in members {
        let Some(compiled) = member.compiled else { continue };
        check_bytecode_layout(member, compiled, &mut diagnostics);
    }

    // --- X0504 + aggregate conservation: every transfer edge covered ---
    let mut transfer_edges = 0usize;
    let mut conserved_transfers = 0usize;
    for member in members {
        let program = member.program;
        for (phase_idx, phase) in program.phases.iter().enumerate() {
            for (api_idx, api) in phase.apis.iter().enumerate() {
                let mut guards = Vec::new();
                let mut prefix: Vec<u32> = Vec::new();
                verify::walk_guarded(
                    &api.body,
                    &mut guards,
                    &mut prefix,
                    &mut |stmt, guards, path| {
                        let Stmt::Transfer { amount, .. } = stmt else { return };
                        transfer_edges += 1;
                        if verify::guards_cover_balance(guards, amount) {
                            conserved_transfers += 1;
                            return;
                        }
                        diagnostics.push(
                            Diagnostic::error(
                                "X0504",
                                format!(
                                    "{}: api {:?} transfers an amount no balance guard covers",
                                    member.name, api.name
                                ),
                            )
                            .at(program.spans.get(&NodePath::Stmt(
                                Owner::Api { phase: phase_idx as u32, api: api_idx as u32 },
                                path.to_vec(),
                            )))
                            .suggest(
                                "guard the transfer with `require(balance >= amount)` so the \
                                 system-wide deposit sum provably covers it",
                            ),
                        );
                    },
                );
            }
        }
    }

    let aggregate_conserved = transfer_edges == conserved_transfers;
    SystemReport {
        contracts: members.len(),
        edges,
        transfer_edges,
        conserved_transfers,
        aggregate_conserved,
        diagnostics,
    }
}

/// X0502: the compiled artifacts must only write state the source
/// declares.
fn check_bytecode_layout(
    member: &SystemMember<'_>,
    compiled: &CompiledContract,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let program = member.program;
    let declared: HashSet<u64> = [evm_backend::SLOT_PHASE, evm_backend::SLOT_CREATOR]
        .into_iter()
        .chain((0..program.globals.len()).map(evm_backend::global_slot))
        .collect();
    let allowed = [evm_backend::SLOT_PHASE];
    let max_payload =
        program.all_apis().map(|(_, api)| evm_backend::params_width(api) as u64).max().unwrap_or(0);
    let cfg = pol_evm::verifier::VerifyConfig {
        allowed_post_call_sstore_keys: &allowed,
        payload_bytes: max_payload,
    };
    let runtime_start = compiled.evm.init_code.len() - compiled.evm.runtime_len;
    let images = [
        ("init code", &compiled.evm.init_code[..]),
        ("runtime", &compiled.evm.init_code[runtime_start..]),
    ];
    for (what, image) in images {
        let Ok(report) = pol_evm::verifier::verify(image, &cfg) else {
            // Unverifiable images are rejected by the compile pipeline
            // (B0301) before a system is ever assembled.
            continue;
        };
        for &key in &report.constant_sstore_keys {
            if !declared.contains(&key) {
                diagnostics.push(
                    Diagnostic::error(
                        "X0502",
                        format!(
                            "{}: EVM {what} writes storage slot {key}, which the source \
                             never declares",
                            member.name
                        ),
                    )
                    .suggest("the artifact does not match the declared storage layout"),
                );
            }
        }
        if report.unknown_key_sstores > 0 && program.maps.is_empty() {
            diagnostics.push(
                Diagnostic::error(
                    "X0502",
                    format!(
                        "{}: EVM {what} performs {} keccak-keyed store(s) but the source \
                         declares no maps",
                        member.name, report.unknown_key_sstores
                    ),
                )
                .suggest("map-style writes require a declared map"),
            );
        }
    }
    if let Ok(report) = pol_avm::verifier::verify(&compiled.avm.program) {
        if (report.box_puts > 0 || report.box_dels > 0) && program.maps.is_empty() {
            diagnostics.push(
                Diagnostic::error(
                    "X0502",
                    format!(
                        "{}: AVM program has {} box write(s) and {} box delete(s) but the \
                         source declares no maps",
                        member.name, report.box_puts, report.box_dels
                    ),
                )
                .suggest("box state requires a declared map"),
            );
        }
        if report.global_puts == 0 && !program.globals.is_empty() {
            diagnostics.push(
                Diagnostic::error(
                    "X0502",
                    format!(
                        "{}: AVM program never writes global state yet the source declares \
                         {} global(s)",
                        member.name,
                        program.globals.len()
                    ),
                )
                .suggest("the artifact does not match the declared storage layout"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn member(program: &Program) -> SystemMember<'_> {
        SystemMember::new(program, None)
    }

    #[test]
    fn compatible_contracts_link_cleanly() {
        let a = parse(
            "contract a {\n    participant P { }\n    global total: uint = 0;\n    map audit[32];\n\
             \n    phase run while (total < 10) invariant (total <= 10) {\n        api bump() -> total {\n            total = (total + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let b = parse(
            "contract b {\n    participant P { }\n    global total: uint = 5;\n    map audit[32];\n\
             \n    phase run while (total < 10) invariant (total <= 10) {\n        api bump() -> total {\n            total = (total + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&a), member(&b)]);
        assert!(report.ok(), "{:?}", report.diagnostics);
        assert_eq!(report.edges.len(), 2, "shared global + shared map");
        assert!(report.aggregate_conserved);
    }

    #[test]
    fn slot_type_mismatch_fires_x0501() {
        let a = parse(
            "contract a {\n    participant P { }\n    global x: uint = 0;\n\
             \n    phase run while (x < 1) invariant (x <= 1) {\n        api f() -> x {\n            x = 1;\n        }\n    }\n}\n",
        )
        .unwrap();
        let b = parse(
            "contract b {\n    participant P { }\n    global x: bool = 0;\n\
             \n    phase run while (x == 0) invariant (x <= 1) {\n        api f() -> x {\n            x = 1;\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&a), member(&b)]);
        assert!(!report.ok());
        assert!(report.diagnostics.iter().any(|d| d.code == "X0501"), "{:?}", report.diagnostics);
    }

    #[test]
    fn disjoint_invariant_ranges_fire_x0501() {
        // a keeps x in [0, 10]; b pins it to at least 100 via a
        // constant initialiser of 100 — no shared state exists.
        let a = parse(
            "contract a {\n    participant P { }\n    global x: uint = 0;\n\
             \n    phase run while (x < 10) invariant (x <= 10) {\n        api f() -> x {\n            x = (x + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let b = parse(
            "contract b {\n    participant P { }\n    global x: uint = 100;\n\
             \n    phase run while (x < 200) invariant (x >= 100) {\n        api f() -> x {\n            x = (x + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&a), member(&b)]);
        let x0501: Vec<_> = report.diagnostics.iter().filter(|d| d.code == "X0501").collect();
        assert_eq!(x0501.len(), 1, "{:?}", report.diagnostics);
        assert!(x0501[0].message.contains("no state satisfies both"));
    }

    #[test]
    fn map_capacity_mismatch_fires_x0503() {
        let a = parse(
            "contract a {\n    participant P { }\n    global n: uint = 0;\n    map m[32];\n\
             \n    phase run while (n < 1) invariant (n <= 1) {\n        api f() -> n {\n            n = 1;\n        }\n    }\n}\n",
        )
        .unwrap();
        let b = parse(
            "contract b {\n    participant P { }\n    global n: uint = 0;\n    map m[64];\n\
             \n    phase run while (n < 1) invariant (n <= 1) {\n        api f() -> n {\n            n = 1;\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&a), member(&b)]);
        assert!(report.diagnostics.iter().any(|d| d.code == "X0503"), "{:?}", report.diagnostics);
    }

    #[test]
    fn relational_guard_conserves_transfer() {
        // `amt < balance` covers `amt`: the matcher reads the guard
        // mirrored, as `balance > amt`.
        let p = parse(
            "contract pot {\n    participant P { }\n    global n: uint = 0;\n\
             \n    phase run while (n < 10) invariant (n <= 10) {\n        api out(amt: uint) -> n {\n            require((amt < balance));\n            transfer(caller, amt);\n            n = (n + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&p)]);
        assert!(report.ok(), "{:?}", report.diagnostics);
        assert_eq!(report.transfer_edges, 1);
        assert_eq!(report.conserved_transfers, 1);
        assert!(report.aggregate_conserved);
        assert!(report.to_string().contains("aggregate conservation holds"));
    }

    #[test]
    fn uncovered_transfer_fires_x0504() {
        let p = parse(
            "contract leak {\n    participant P { }\n    global n: uint = 0;\n\
             \n    phase run while (n < 10) invariant (n <= 10) {\n        api out(amt: uint) -> n {\n            transfer(caller, amt);\n            n = (n + 1);\n        }\n    }\n}\n",
        )
        .unwrap();
        let report = analyze_system(&[member(&p)]);
        assert!(!report.ok());
        assert!(report.diagnostics.iter().any(|d| d.code == "X0504"), "{:?}", report.diagnostics);
        assert!(!report.aggregate_conserved);
        assert_eq!(report.conserved_transfers, 0);
        assert!(report.to_string().contains("1 failure"));
    }

    #[test]
    fn compiled_contract_passes_bytecode_layout() {
        let p = Program::counter_example();
        let compiled = crate::backend::compile(&p).unwrap();
        let report = analyze_system(&[SystemMember::new(&p, Some(&compiled))]);
        assert!(report.ok(), "{:?}", report.diagnostics);
    }
}
