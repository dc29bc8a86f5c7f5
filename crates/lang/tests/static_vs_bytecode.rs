//! Differential test between the *source-level* static pipeline and the
//! *bytecode-level* verifiers: for every generated program, the two
//! verdicts must agree.
//!
//! * When the source-level pipeline (type check + theorem verifier +
//!   error-severity lints) accepts a program, the emitted bytecode must
//!   pass both post-emission verifiers and every cost cross-check —
//!   i.e. [`pol_lang::backend::compile`] must succeed, since codegen is
//!   meant to be total on verified programs.
//! * The verified worst-case costs must respect the conservative
//!   straight-line bounds the analysis reports (the X0401/X0402
//!   invariants), which we re-check here explicitly per API fragment.
//!
//! Generated programs mirror `differential.rs` (Add/Mul only — no
//! subtraction, so the verifier's underflow theorems never fire and the
//! source verdict is decided by structure, not arithmetic luck).

use pol_lang::ast::*;
use pol_lang::backend;
use proptest::prelude::*;

const GLOBALS: [&str; 2] = ["g1", "g2"];
const PARAMS: [&str; 2] = ["a", "b"];

fn uexpr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0u64..512).prop_map(Expr::UInt),
        prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])].prop_map(|g| Expr::Global(g.to_string())),
        prop_oneof![Just(PARAMS[0]), Just(PARAMS[1])].prop_map(|p| Expr::Param(p.to_string())),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = uexpr(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::Bin(
            BinOp::Add,
            Box::new(x),
            Box::new(y)
        )),
        (inner, 1u64..8).prop_map(|(x, k)| Expr::Bin(
            BinOp::Mul,
            Box::new(x),
            Box::new(Expr::UInt(k))
        )),
    ]
    .boxed()
}

fn bexpr() -> impl Strategy<Value = Expr> {
    (uexpr(1), uexpr(1), any::<u8>()).prop_map(|(x, y, op)| {
        let op = match op % 6 {
            0 => BinOp::Lt,
            1 => BinOp::Gt,
            2 => BinOp::Le,
            3 => BinOp::Ge,
            4 => BinOp::Eq,
            _ => BinOp::Ne,
        };
        Expr::Bin(op, Box::new(x), Box::new(y))
    })
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let set = |depth: u32| {
        (prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])], uexpr(depth))
            .prop_map(|(g, v)| Stmt::GlobalSet { name: g.to_string(), value: v })
    };
    prop_oneof![
        set(2),
        bexpr().prop_map(Stmt::Require),
        (bexpr(), proptest::collection::vec(set(1), 0..2), proptest::collection::vec(set(1), 0..2))
            .prop_map(|(cond, then, otherwise)| Stmt::If { cond, then, otherwise }),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec(stmt(), 1..6), uexpr(2), 0u64..256).prop_map(
        |(body, returns, g1_init)| Program {
            name: "diff".into(),
            creator: Participant {
                name: "Creator".into(),
                fields: vec![("seed".into(), Ty::UInt)],
            },
            constructor: vec![],
            globals: vec![
                GlobalDecl {
                    name: GLOBALS[0].into(),
                    ty: Ty::UInt,
                    init: GlobalInit::Const(g1_init),
                    viewable: true,
                },
                GlobalDecl {
                    name: GLOBALS[1].into(),
                    ty: Ty::UInt,
                    init: GlobalInit::FromField("seed".into()),
                    viewable: true,
                },
            ],
            maps: vec![],
            phases: vec![Phase {
                name: "p".into(),
                while_cond: Expr::gt(Expr::global(GLOBALS[1]), Expr::UInt(0)),
                invariant: Expr::ge(Expr::global(GLOBALS[0]), Expr::UInt(0)),
                apis: vec![Api {
                    name: "f".into(),
                    params: vec![(PARAMS[0].into(), Ty::UInt), (PARAMS[1].into(), Ty::UInt)],
                    pay: None,
                    body,
                    returns,
                }],
            }],
            spans: Default::default(),
        },
    )
}

/// The source-level verdict: type check, theorem verifier and
/// error-severity lints all pass.
fn source_accepts(program: &Program) -> bool {
    pol_lang::check::check(program).is_empty()
        && pol_lang::verify::verify(program).ok()
        && pol_lang::lint::lint(program).iter().all(|d| !d.is_error())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Source-level acceptance implies bytecode-level acceptance: the
    /// full pipeline (including both post-emission verifiers and the
    /// cost cross-checks) succeeds on every program the static layer
    /// accepts.
    #[test]
    fn source_verdict_agrees_with_bytecode_verdict(program in program()) {
        if source_accepts(&program) {
            let compiled = backend::compile(&program)
                .unwrap_or_else(|e| panic!("bytecode layer disagreed with source layer: {e}"));
            prop_assert!(compiled.warnings.iter().all(|d| !d.is_error()));
        } else {
            // The pipeline must reject it too (never panic).
            prop_assert!(backend::compile(&program).is_err());
        }
    }

    /// The verified worst-case path costs never exceed the conservative
    /// straight-line bounds the analysis reports, on either target.
    #[test]
    fn verified_worst_case_respects_conservative_bounds(program in program()) {
        if !source_accepts(&program) {
            return;
        }
        let api = &program.phases[0].apis[0];

        let fragment = backend::evm::api_fragment(&program, 0, api).expect("evm fragment");
        let payload = backend::evm::params_width(api) as u64;
        let cfg = pol_evm::verifier::VerifyConfig {
            allowed_post_call_sstore_keys: &[],
            payload_bytes: payload,
        };
        let report = pol_evm::verifier::verify(&fragment, &cfg).expect("evm fragment verifies");
        let linear = {
            let mut total = 0u64;
            let mut pc = 0usize;
            while pc < fragment.len() {
                let (op, variant) =
                    pol_evm::opcode::Op::decode(fragment[pc]).expect("decodable");
                pc += 1;
                if op == pol_evm::opcode::Op::Push1 {
                    pc += variant as usize + 1;
                }
                total += pol_evm::verifier::conservative_op_gas(op, payload);
            }
            total
        };
        prop_assert!(report.worst_case_gas <= linear,
            "EVM worst path {} > linear bound {linear}", report.worst_case_gas);

        let ops = backend::avm::api_fragment(&program, 0, api).expect("avm fragment");
        let avm_fragment = pol_avm::program::AvmProgram::new(ops);
        let avm_report = pol_avm::verifier::verify(&avm_fragment).expect("avm fragment verifies");
        let avm_bound = pol_avm::cost::program_cost(avm_fragment.ops());
        prop_assert!(avm_report.worst_case_cost <= avm_bound,
            "AVM worst path {} > linear bound {avm_bound}", avm_report.worst_case_cost);
    }
}
