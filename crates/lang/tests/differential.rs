//! Differential fuzzing of the two backends: the *blockchain-agnostic*
//! claim, tested. Random well-typed programs are compiled to both the
//! EVM and the AVM, driven with the same call sequences, and every
//! observable — acceptance, return value, final global state — must
//! agree between the machines.
//!
//! Generated programs stay inside the semantic intersection of the VMs:
//! values are kept far below 2^64 (the AVM rejects overflow where the
//! EVM wraps) and subtraction/division are excluded for the same reason.

use pol_lang::ast::*;
use pol_lang::backend::{self, AbiValue};
use pol_ledger::Address;
use proptest::prelude::*;

const GLOBALS: [&str; 2] = ["g1", "g2"];
const PARAMS: [&str; 2] = ["a", "b"];

/// Bounded UInt expressions: Add of anything, Mul only by small
/// constants, comparisons and logic — total value growth stays far below
/// u64 over a short call sequence.
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

/// Boolean expressions over the bounded UInt ones.
fn bexpr() -> impl Strategy<Value = Expr> {
    let cmp = (uexpr(1), uexpr(1), any::<u8>()).prop_map(|(x, y, op)| {
        let op = match op % 6 {
            0 => BinOp::Lt,
            1 => BinOp::Gt,
            2 => BinOp::Le,
            3 => BinOp::Ge,
            4 => BinOp::Eq,
            _ => BinOp::Ne,
        };
        Expr::Bin(op, Box::new(x), Box::new(y))
    });
    cmp.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(x, y, and)| {
                let op = if and { BinOp::And } else { BinOp::Or };
                Expr::Bin(op, Box::new(x), Box::new(y))
            }),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])], uexpr(2))
            .prop_map(|(g, v)| { Stmt::GlobalSet { name: g.to_string(), value: v } }),
        bexpr().prop_map(Stmt::Require),
        (
            bexpr(),
            proptest::collection::vec(
                (prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])], uexpr(1))
                    .prop_map(|(g, v)| Stmt::GlobalSet { name: g.to_string(), value: v }),
                0..2,
            ),
            proptest::collection::vec(
                (prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])], uexpr(1))
                    .prop_map(|(g, v)| Stmt::GlobalSet { name: g.to_string(), value: v }),
                0..2,
            )
        )
            .prop_map(|(cond, then, otherwise)| Stmt::If { cond, then, otherwise }),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec(stmt(), 1..5), uexpr(2), 0u64..256).prop_map(
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
                // Run effectively forever (bounded call sequences).
                while_cond: Expr::Bin(BinOp::Lt, Box::new(Expr::UInt(0)), Box::new(Expr::UInt(1))),
                invariant: Expr::Bin(
                    BinOp::Ge,
                    Box::new(Expr::global(GLOBALS[0])),
                    Box::new(Expr::UInt(0)),
                ),
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

/// One observable step: whether the call was accepted, the returned
/// value (when accepted), and the global state afterwards.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    accepted: bool,
    returned: Option<u64>,
    globals: [u64; 2],
}

fn run_evm(program: &Program, seed: u64, calls: &[(u64, u64)]) -> Vec<Observation> {
    let compiled = backend::evm::compile_with_pad(program, 0).expect("compiles");
    let mut evm = pol_evm::Evm::new();
    let mut balances = pol_evm::interpreter::Balances::new();
    let init = compiled.init_with_args(&[AbiValue::Word(u128::from(seed))]).unwrap();
    let (addr, _) = evm.deploy(Address::ZERO, &init, 50_000_000, &mut balances).expect("deploys");
    let caller = Address([1; 20]);
    let mut out = Vec::new();
    for &(a, b) in calls {
        let data = compiled
            .encode_call("f", &[AbiValue::Word(u128::from(a)), AbiValue::Word(u128::from(b))])
            .unwrap();
        let result = evm
            .call(pol_evm::CallParams::new(caller, addr).with_data(data), &mut balances)
            .expect("no machine faults");
        let mut read_global = |name: &str| {
            let data = compiled.encode_call(&format!("view_{name}"), &[]).unwrap();
            let view = evm
                .call(pol_evm::CallParams::new(caller, addr).with_data(data), &mut balances)
                .expect("views execute");
            pol_evm::Word::from_be_slice(&view.output).as_u64()
        };
        let globals = [read_global(GLOBALS[0]), read_global(GLOBALS[1])];
        out.push(Observation {
            accepted: result.success,
            returned: result.success.then(|| pol_evm::Word::from_be_slice(&result.output).as_u64()),
            globals,
        });
    }
    out
}

fn run_avm(program: &Program, seed: u64, calls: &[(u64, u64)]) -> Vec<Observation> {
    let compiled = backend::avm::compile(program).expect("compiles");
    let mut avm = pol_avm::Avm::new();
    let mut balances = pol_avm::interpreter::Balances::new();
    let args = compiled.encode_create_args(&[AbiValue::Word(u128::from(seed))]).unwrap();
    let app = avm
        .create_app_with_args(Address::ZERO, compiled.program.clone(), args, &mut balances)
        .expect("creates");
    let caller = Address([1; 20]);
    let mut out = Vec::new();
    for &(a, b) in calls {
        let args = compiled
            .encode_call("f", &[AbiValue::Word(u128::from(a)), AbiValue::Word(u128::from(b))])
            .unwrap();
        let result = avm
            .call(pol_avm::AppCallParams::new(caller, app).with_args(args), &mut balances)
            .expect("no machine faults");
        let read_global = |name: &str| match avm.global(app, name.as_bytes()) {
            Some(pol_avm::TealValue::Uint(v)) => v,
            _ => 0,
        };
        let returned = result.approved.then(|| {
            let log = result.logs.last().expect("return value logged");
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(log);
            u64::from_be_bytes(bytes)
        });
        out.push(Observation {
            accepted: result.approved,
            returned,
            globals: [read_global(GLOBALS[0]), read_global(GLOBALS[1])],
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same program, the same calls, two virtual machines: identical
    /// observations.
    #[test]
    fn backends_agree(
        program in program(),
        seed in 0u64..256,
        calls in proptest::collection::vec((0u64..512, 0u64..512), 1..6),
    ) {
        // Only well-typed programs reach the backends.
        prop_assume!(pol_lang::check::check(&program).is_empty());
        let evm_trace = run_evm(&program, seed, &calls);
        let avm_trace = run_avm(&program, seed, &calls);
        prop_assert_eq!(
            evm_trace,
            avm_trace,
            "program:\n{}",
            pol_lang::pretty::to_source(&program)
        );
    }

    /// `analyze` stands in the AVM's refusal rule for its code generator:
    /// on every generated program it accepts or refuses as
    /// `avm::compile` does, with the same message.
    #[test]
    fn analyze_and_avm_compile_agree_on_refusal(program in program()) {
        let verdict = |result: Result<(), pol_lang::LangError>| result.map_err(|e| e.to_string());
        prop_assert_eq!(
            verdict(pol_lang::analyze::analyze(&program).map(drop)),
            verdict(backend::avm::compile(&program).map(drop))
        );
    }
}
