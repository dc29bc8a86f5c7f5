//! The proof-of-location contract, written once in the
//! blockchain-agnostic language and compiled for every chain (§4.1).
//!
//! Shape (matching the paper's Reach program):
//!
//! * **Creator** publishes `did`, `position`, `maxUsers` and `reward`;
//!   the creator then inserts their own entry through the same
//!   `insert_data` API as everyone else (Fig. 3.1 shows deploy and
//!   insert as separate transactions);
//! * **phase "attach"** (`parallelReduce` #1): provers call
//!   `insert_data(data, did)` while seats remain; each entry is stored
//!   as `provers[did] = commit(data)` and the raw record is logged;
//! * **phase "verification"** (`parallelReduce` #2): the verifier funds
//!   the contract with `insert_money(amount)` and validates provers with
//!   `verify(did, wallet, data)` — the contract re-derives the
//!   commitment from the submitted record, pays the reward if the
//!   balance allows, and deletes the map entry;
//! * once every entry is verified, anyone may `closeContract`, sending
//!   the residue back to the creator (token linearity).

#[cfg(test)]
use crate::proof::ENTRY_CAPACITY;
use pol_lang::ast::*;

/// Seats per area contract (creator included), §5.1: "every smart
/// contract must have four users attached to it".
pub(crate) const MAX_USERS: u64 = 4;
/// Capacity of the `position` constructor field (an OLC string).
pub(crate) const POSITION_CAPACITY: usize = 16;

/// The contract's source text, in the blockchain-agnostic language
/// (`contracts/proof_of_location.pol` — the project's `index.rsh`).
pub const POL_SOURCE: &str = include_str!("../contracts/proof_of_location.pol");

/// The §2.8 extension variant: witnesses are rewarded too, once the
/// verifier has checked their signature on the proof.
pub const POL_V2_SOURCE: &str = include_str!("../contracts/proof_of_location_v2.pol");

/// The witness-rewarding variant of the program, parsed from
/// [`POL_V2_SOURCE`].
///
/// # Panics
///
/// Panics if the bundled source fails to parse — a build-level
/// invariant.
pub fn pol_program_v2() -> Program {
    pol_lang::parse::parse(POL_V2_SOURCE).expect("bundled v2 contract source parses")
}

/// The proof-of-location program, parsed from [`POL_SOURCE`].
///
/// # Panics
///
/// Panics if the bundled source fails to parse — a build-level
/// invariant, covered by `source_matches_builder_ast`.
pub fn pol_program() -> Program {
    pol_lang::parse::parse(POL_SOURCE).expect("bundled contract source parses")
}

/// The same program constructed through the AST builder API — kept as
/// executable documentation of the AST shape and as the oracle for the
/// parser (`source_matches_builder_ast`).
#[cfg(test)]
fn pol_program_ast() -> Program {
    let data_ty = Ty::Bytes(ENTRY_CAPACITY);
    Program {
        name: "proof_of_location".into(),
        creator: Participant {
            name: "Creator".into(),
            fields: vec![
                ("did".into(), Ty::UInt),
                ("position".into(), Ty::Bytes(POSITION_CAPACITY)),
                ("maxUsers".into(), Ty::UInt),
                ("reward".into(), Ty::UInt),
            ],
        },
        constructor: vec![
            // The deployment announces the area it serves.
            Stmt::Log(vec![Expr::param("position")]),
        ],
        globals: vec![
            GlobalDecl {
                name: "creatorDid".into(),
                ty: Ty::UInt,
                init: GlobalInit::FromField("did".into()),
                viewable: true,
            },
            GlobalDecl {
                name: "position".into(),
                ty: Ty::Bytes(POSITION_CAPACITY),
                init: GlobalInit::FromField("position".into()),
                viewable: true,
            },
            GlobalDecl {
                name: "availableSits".into(),
                ty: Ty::UInt,
                init: GlobalInit::FromField("maxUsers".into()),
                viewable: true,
            },
            GlobalDecl {
                name: "toVerify".into(),
                ty: Ty::UInt,
                init: GlobalInit::Const(0),
                viewable: true,
            },
            GlobalDecl {
                name: "reward".into(),
                ty: Ty::UInt,
                init: GlobalInit::FromField("reward".into()),
                viewable: true,
            },
        ],
        maps: vec![MapDecl { name: "provers".into(), value_bytes: ENTRY_CAPACITY }],
        phases: vec![
            Phase {
                name: "attach".into(),
                while_cond: Expr::gt(Expr::global("availableSits"), Expr::UInt(0)),
                invariant: Expr::ge(Expr::global("availableSits"), Expr::UInt(0)),
                apis: vec![Api {
                    name: "insert_data".into(),
                    params: vec![("data".into(), data_ty), ("did".into(), Ty::UInt)],
                    pay: None,
                    body: vec![
                        // A DID may only hold one pending entry.
                        Stmt::Require(Expr::Not(Box::new(Expr::MapContains {
                            map: "provers".into(),
                            key: Box::new(Expr::param("did")),
                        }))),
                        Stmt::MapSet {
                            map: "provers".into(),
                            key: Expr::param("did"),
                            value: vec![Expr::param("data")],
                        },
                        Stmt::GlobalSet {
                            name: "availableSits".into(),
                            value: Expr::sub(Expr::global("availableSits"), Expr::UInt(1)),
                        },
                        Stmt::GlobalSet {
                            name: "toVerify".into(),
                            value: Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::global("toVerify")),
                                Box::new(Expr::UInt(1)),
                            ),
                        },
                    ],
                    returns: Expr::global("availableSits"),
                }],
            },
            Phase {
                name: "verification".into(),
                while_cond: Expr::gt(Expr::global("toVerify"), Expr::UInt(0)),
                invariant: Expr::ge(Expr::global("toVerify"), Expr::UInt(0)),
                apis: vec![
                    Api {
                        name: "insert_money".into(),
                        params: vec![("money".into(), Ty::UInt)],
                        pay: Some(Expr::param("money")),
                        body: vec![Stmt::Require(Expr::gt(Expr::param("money"), Expr::UInt(0)))],
                        returns: Expr::Balance,
                    },
                    Api {
                        name: "verify".into(),
                        params: vec![
                            ("did".into(), Ty::UInt),
                            ("wallet".into(), Ty::Address),
                            ("data".into(), data_ty),
                        ],
                        pay: None,
                        body: vec![
                            Stmt::Require(Expr::MapContains {
                                map: "provers".into(),
                                key: Box::new(Expr::param("did")),
                            }),
                            // On-chain integrity: the record supplied by
                            // the verifier must match the prover's
                            // commitment.
                            Stmt::Require(Expr::eq(
                                Expr::Hash(vec![Expr::param("data")]),
                                Expr::MapGet {
                                    map: "provers".into(),
                                    key: Box::new(Expr::param("did")),
                                },
                            )),
                            Stmt::If {
                                cond: Expr::ge(Expr::Balance, Expr::global("reward")),
                                then: vec![
                                    Stmt::MapDelete {
                                        map: "provers".into(),
                                        key: Expr::param("did"),
                                    },
                                    Stmt::GlobalSet {
                                        name: "toVerify".into(),
                                        value: Expr::sub(Expr::global("toVerify"), Expr::UInt(1)),
                                    },
                                    Stmt::Transfer {
                                        to: Expr::param("wallet"),
                                        amount: Expr::global("reward"),
                                    },
                                    // reportVerification(did, verifier)
                                    Stmt::Log(vec![Expr::param("did"), Expr::Caller]),
                                ],
                                otherwise: vec![
                                    // issueDuringVerification(did)
                                    Stmt::Log(vec![Expr::param("did")]),
                                ],
                            },
                        ],
                        returns: Expr::global("toVerify"),
                    },
                ],
            },
        ],
        spans: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_lang::{analyze, check, gas, verify};

    #[test]
    fn v2_witness_reward_variant_compiles_and_verifies() {
        let program = pol_program_v2();
        assert!(check::check(&program).is_empty());
        let report = verify::verify(&program);
        // `set_reward_gap` guards its subtraction with the mirrored
        // `witnessShare < total`, which the guard matcher reads as
        // `total > witnessShare`.
        assert!(report.ok(), "{report}");
        assert!(pol_lang::backend::compile(&program).is_ok());
        // Two transfers under the combined-balance guard.
        let verify_api = &program.phases[1].apis[1];
        let transfers = verify_api
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::If { then, .. } => {
                    Some(then.iter().filter(|s| matches!(s, Stmt::Transfer { .. })).count())
                }
                _ => None,
            })
            .sum::<usize>();
        assert_eq!(transfers, 2);
    }

    #[test]
    fn source_matches_builder_ast() {
        // The .pol source and the hand-built AST are the same program.
        assert_eq!(pol_program(), pol_program_ast());
    }

    #[test]
    fn source_round_trips_through_pretty_printer() {
        let reprinted = pol_lang::pretty::to_source(&pol_program());
        assert_eq!(pol_lang::parse::parse(&reprinted).unwrap(), pol_program());
    }

    #[test]
    fn pol_program_type_checks() {
        let errors = check::check(&pol_program());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn pol_program_verifies() {
        let report = verify::verify(&pol_program());
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn pol_program_compiles_for_both_vms() {
        let compiled = pol_lang::backend::compile(&pol_program()).unwrap();
        assert!(compiled.evm.runtime_len > 0);
        assert!(!compiled.avm.program.is_empty());
    }

    #[test]
    fn analysis_matches_paper_figure_5_1() {
        // Fig. 5.1 prints the certificates admission is held to.
        // Fig. 2.11: "Checked 42 theorems; No failures!".
        let program = pol_program();
        let analysis = analyze::analyze(&program).unwrap();
        let bounds = gas::certify(&program).unwrap();
        let deploy = (bounds.constructor_evm.worst_case(), bounds.constructor_avm.worst_case());
        assert_eq!((Some(analysis.evm_deploy_gas), Some(analysis.avm_create_cost)), deploy);
        let names: Vec<_> = analysis.apis.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["insert_data", "insert_money", "verify"]);
        assert_eq!(analysis.maps, 1);
        for api in &analysis.apis {
            let m = bounds.methods.iter().find(|m| m.name == api.name).unwrap();
            let certified = (m.evm.worst_case(), m.avm.worst_case());
            assert_eq!((Some(api.evm_gas), Some(api.avm_cost)), certified, "{}", api.name);
        }
        assert_eq!(analysis.theorems, 42);
        assert!(analysis.verified);
        let report = verify::verify(&program);
        assert!(report.to_string().contains("Checked 42 theorems; No failures!"));
    }
}
