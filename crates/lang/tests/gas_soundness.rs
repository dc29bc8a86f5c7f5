//! Differential soundness of the static worst-case gas certificates:
//! random well-typed programs are certified, compiled to both backends,
//! and driven with random call storms — every observed spend (EVM
//! `gas_used`, AVM opcode cost) must stay at or below the certificate
//! that admission and scheduling consume. A fixture test pins the other
//! side: on the shipped proof-of-location contract the certificates stay
//! within a fixed slack factor of a successful execution, so the bounds
//! are tight enough to be worth scheduling against.

use pol_lang::ast::*;
use pol_lang::backend::{self, AbiValue};
use pol_lang::gas;
use pol_ledger::Address;
use proptest::prelude::*;

const GLOBALS: [&str; 2] = ["g1", "g2"];
const PARAMS: [&str; 2] = ["a", "b"];

/// Bounded UInt expressions (mirrors `differential.rs`: growth stays far
/// below u64 over a short call storm, so the VMs agree and no path
/// aborts on overflow).
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
    prop_oneof![
        (prop_oneof![Just(GLOBALS[0]), Just(GLOBALS[1])], uexpr(2))
            .prop_map(|(g, v)| Stmt::GlobalSet { name: g.to_string(), value: v }),
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

/// Random certified programs. `with_map` appends a write-then-delete
/// pair over a param-keyed map entry, exercising the storage cost model
/// on both backends without ever deleting a missing AVM box.
fn program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec(stmt(), 1..4), uexpr(2), 0u64..256, any::<bool>()).prop_map(
        |(mut body, returns, g1_init, with_map)| {
            if with_map {
                body.push(Stmt::MapSet {
                    map: "m".into(),
                    key: Expr::param(PARAMS[0]),
                    value: vec![Expr::param(PARAMS[1])],
                });
                body.push(Stmt::MapDelete { map: "m".into(), key: Expr::param(PARAMS[0]) });
            }
            Program {
                name: "gassound".into(),
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
                maps: if with_map {
                    vec![MapDecl { name: "m".into(), value_bytes: 32 }]
                } else {
                    vec![]
                },
                phases: vec![Phase {
                    name: "p".into(),
                    while_cond: Expr::Bin(
                        BinOp::Lt,
                        Box::new(Expr::UInt(0)),
                        Box::new(Expr::UInt(1)),
                    ),
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
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Certificates are sound under randomized call storms on both
    /// virtual machines: no committed execution ever spends past its
    /// static worst-case bound — accepted, reverted or misdispatched.
    #[test]
    fn observed_spend_never_exceeds_the_certificate(
        program in program(),
        seed in 0u64..256,
        calls in proptest::collection::vec((0u64..512, 0u64..512), 1..6),
    ) {
        prop_assume!(pol_lang::check::check(&program).is_empty());
        let bounds = gas::certify(&program).expect("certifies");
        let source = pol_lang::pretty::to_source(&program);

        // EVM: deploy + call storm + a wrong selector.
        let compiled = backend::evm::compile(&program).expect("compiles");
        let mut evm = pol_evm::Evm::new();
        let mut balances = pol_evm::interpreter::Balances::new();
        let init = compiled.init_with_args(&[AbiValue::Word(u128::from(seed))]).unwrap();
        let (addr, deploy_out) =
            evm.deploy(Address::ZERO, &init, 50_000_000, &mut balances).expect("deploys");
        let ctor_bound = bounds.constructor_evm.worst_case().expect("bounded");
        prop_assert!(
            deploy_out.gas_used <= ctor_bound,
            "deploy used {} > bound {ctor_bound}\n{source}",
            deploy_out.gas_used
        );
        let caller = Address([1; 20]);
        let mut datas: Vec<Vec<u8>> = calls
            .iter()
            .map(|&(a, b)| {
                compiled
                    .encode_call(
                        "f",
                        &[AbiValue::Word(u128::from(a)), AbiValue::Word(u128::from(b))],
                    )
                    .unwrap()
            })
            .collect();
        datas.push(vec![0xde, 0xad, 0xbe, 0xef]);
        for data in &datas {
            let bound = bounds.resolve_evm_call(data).expect("bounded");
            let out = evm
                .call(pol_evm::CallParams::new(caller, addr).with_data(data.clone()), &mut balances)
                .expect("no machine faults");
            prop_assert!(
                out.gas_used <= bound,
                "evm call used {} > bound {bound}\n{source}",
                out.gas_used
            );
        }

        // AVM: create + the same storm + a wrong dispatch symbol.
        let compiled = backend::avm::compile(&program).expect("compiles");
        let mut avm = pol_avm::Avm::new();
        let mut balances = pol_avm::interpreter::Balances::new();
        let creator = Address([0xaa; 20]);
        balances.insert(creator, 10_000_000);
        let app_id = avm
            .create_app_with_args(
                creator,
                compiled.program.clone(),
                compiled.encode_create_args(&[AbiValue::Word(u128::from(seed))]).unwrap(),
                &mut balances,
            )
            .expect("creates");
        let mut storms: Vec<Vec<Vec<u8>>> = calls
            .iter()
            .map(|&(a, b)| {
                compiled
                    .encode_call(
                        "f",
                        &[AbiValue::Word(u128::from(a)), AbiValue::Word(u128::from(b))],
                    )
                    .unwrap()
            })
            .collect();
        storms.push(vec![b"nonsense".to_vec()]);
        for args in &storms {
            let bound = bounds.resolve_app_call(args).expect("bounded");
            let out = avm
                .call(
                    pol_avm::AppCallParams::new(caller, app_id).with_args(args.clone()),
                    &mut balances,
                )
                .expect("no machine faults");
            prop_assert!(
                out.cost <= bound,
                "avm call cost {} > bound {bound}\n{source}",
                out.cost
            );
        }
    }
}

/// The shipped v1 contract's attach phase, driven for real on both
/// machines: sound (observed ≤ bound) *and* tight (bound within a pinned
/// 4x slack of a successful execution) — loose certificates would make
/// the scheduler's seeds and the admission precheck worthless.
#[test]
fn v1_attach_certificates_are_sound_and_tight() {
    let src = include_str!("../../core/contracts/proof_of_location.pol");
    let program = pol_lang::parse::parse(src).expect("parses");
    assert!(pol_lang::check::check(&program).is_empty());
    let bounds = gas::certify(&program).expect("certifies");
    let entry = |did: u64| {
        let mut data = vec![0u8; 224];
        data[0] = did as u8;
        data
    };
    let insert = |did: u64| (entry(did), did);

    // EVM.
    let compiled = backend::evm::compile(&program).expect("compiles");
    let ctor_args = [
        AbiValue::Word(7),
        AbiValue::Bytes(vec![0x11; 16]),
        AbiValue::Word(4), // maxUsers: storm stays inside the attach phase
        AbiValue::Word(5),
    ];
    let init = compiled.init_with_args(&ctor_args).unwrap();
    let mut evm = pol_evm::Evm::new();
    let mut balances = pol_evm::interpreter::Balances::new();
    let (addr, deploy_out) =
        evm.deploy(Address([0xaa; 20]), &init, 30_000_000, &mut balances).expect("deploys");
    assert!(deploy_out.success);
    let ctor_bound = bounds.constructor_evm.worst_case().expect("bounded");
    assert!(deploy_out.gas_used <= ctor_bound);
    let caller = Address([1; 20]);
    for did in [3u64, 4, 5] {
        let (data, did) = insert(did);
        let calldata = compiled
            .encode_call("insert_data", &[AbiValue::Bytes(data), AbiValue::Word(u128::from(did))])
            .unwrap();
        let bound = bounds.resolve_evm_call(&calldata).expect("bounded");
        let out = evm
            .call(pol_evm::CallParams::new(caller, addr).with_data(calldata), &mut balances)
            .expect("no machine faults");
        assert!(out.success, "insert_data({did}) reverted");
        assert!(out.gas_used <= bound, "used {} > bound {bound}", out.gas_used);
        assert!(
            bound <= out.gas_used.saturating_mul(4),
            "bound {bound} looser than 4x observed {}",
            out.gas_used
        );
    }

    // AVM.
    let compiled = backend::avm::compile(&program).expect("compiles");
    let mut avm = pol_avm::Avm::new();
    let mut balances = pol_avm::interpreter::Balances::new();
    let creator = Address([0xaa; 20]);
    balances.insert(creator, 10_000_000);
    let create_args = compiled.encode_create_args(&ctor_args).unwrap();
    let app_id = avm
        .create_app_with_args(creator, compiled.program.clone(), create_args, &mut balances)
        .expect("creates");
    for did in [3u64, 4, 5] {
        let (data, did) = insert(did);
        let args = compiled
            .encode_call("insert_data", &[AbiValue::Bytes(data), AbiValue::Word(u128::from(did))])
            .unwrap();
        let bound = bounds.resolve_app_call(&args).expect("bounded");
        let out = avm
            .call(pol_avm::AppCallParams::new(caller, app_id).with_args(args), &mut balances)
            .expect("no machine faults");
        assert!(out.approved, "insert_data({did}) rejected");
        assert!(out.cost <= bound, "cost {} > bound {bound}", out.cost);
        assert!(
            bound <= out.cost.saturating_mul(4),
            "avm bound {bound} looser than 4x observed {}",
            out.cost
        );
    }
}

/// Metering is exact at the out-of-gas threshold: with `need` the spend
/// at a generous limit, every limit below `need` is `OutOfGas` with no
/// write surviving, and every limit at or above it reproduces the same
/// `gas_used` and output. Two programs: a hand-assembled one over the
/// dispatch pairs the compiler emits most (`PUSH`+`ADD`, `DUP`+`MUL`,
/// `PUSH`+`JUMPI`, `PUSH`+`JUMP`), and the shipped contract's
/// `insert_data`.
#[test]
fn out_of_gas_threshold_is_exact() {
    use pol_evm::assembler::Asm;
    use pol_evm::opcode::Op;
    use pol_evm::{call_contract, deploy_contract, CallParams, CodeCache, EvmError};
    use pol_ledger::{Overlay, WorldState};

    let caller = Address([1; 20]);
    let sweep = |init: &[u8], calldata: Vec<u8>, span: u64| {
        let cache = CodeCache::new();
        let mut world = WorldState::new();
        let mut view = Overlay::new(&world);
        let (addr, _) = deploy_contract(&mut view, Address([0xaa; 20]), init, 30_000_000, &cache)
            .expect("deploys");
        let deployed = view.into_writes();
        world.apply(deployed);
        // The world is never written again, so every call sees it fresh.
        let call = |gas_limit: u64| {
            let mut view = Overlay::new(&world);
            let params =
                CallParams::new(caller, addr).with_data(calldata.clone()).with_gas_limit(gas_limit);
            let result = call_contract(&mut view, params, &cache);
            (result, view.into_writes())
        };
        let (reference, writes) = call(10_000_000);
        let reference = reference.expect("no machine faults");
        assert!(reference.success && !writes.is_empty(), "the call must store something");
        let need = reference.gas_used;
        for limit in need.saturating_sub(span)..need {
            let (result, writes) = call(limit);
            assert!(matches!(result, Err(EvmError::OutOfGas { .. })), "limit {limit}: {result:?}");
            assert!(writes.is_empty(), "limit {limit}: a write survived out-of-gas");
        }
        for limit in [need, need + 1] {
            let out = call(limit).0.expect("enough gas");
            assert!(out.success, "limit {limit}");
            assert_eq!((out.gas_used, &out.output), (need, &reference.output), "limit {limit}");
        }
    };

    // (5 + 7)² stored to slot 1 behind a taken JUMPI and a JUMP, then
    // loaded back and returned.
    let mut asm = Asm::new();
    let (skip, end) = (asm.new_label(), asm.new_label());
    let runtime = asm
        .push_u64(5)
        .push_u64(7)
        .op(Op::Add)
        .dup(1)
        .op(Op::Mul)
        .push_u64(1)
        .jump_if(skip)
        .op(Op::Stop)
        .bind(skip)
        .jump(end)
        .bind(end)
        .push_u64(1)
        .op(Op::SStore)
        .push_u64(1)
        .op(Op::SLoad)
        .push_u64(0)
        .op(Op::MStore)
        .push_u64(32)
        .push_u64(0)
        .op(Op::Return)
        .build();
    sweep(&Asm::deploy_wrapper(&runtime), Vec::new(), u64::MAX);

    let src = include_str!("../../core/contracts/proof_of_location.pol");
    let program = pol_lang::parse::parse(src).expect("parses");
    let compiled = backend::evm::compile(&program).expect("compiles");
    let ctor_args =
        [AbiValue::Word(7), AbiValue::Bytes(vec![0x11; 16]), AbiValue::Word(4), AbiValue::Word(5)];
    let init = compiled.init_with_args(&ctor_args).unwrap();
    let mut entry = vec![0u8; 224];
    entry[0] = 3;
    let calldata =
        compiled.encode_call("insert_data", &[AbiValue::Bytes(entry), AbiValue::Word(3)]).unwrap();
    sweep(&init, calldata, 40);
}
