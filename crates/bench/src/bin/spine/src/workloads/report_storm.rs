//! `report-storm`: 256 devices send location reports and verification
//! queries to three regions' contracts through `NodeService`.
//!
//! Every transaction touches its own storage slot and executes in
//! microseconds, so admission (signature checks, nonce tracking and
//! parking, the mempool) does nearly all the work and the executor, VM
//! and state backend almost none. An executor or VM change must show no
//! change here; an admission change shows here first.

use super::node_driver::{self, Expect, NodeOp, Refusal};
use super::{timed_setup, Cfg, Outcome};
use crate::gen::{Mix, Rng};
use crate::layers::{self, Account, Arg, Backend, ContractId, DevChain, Fees, Node, Template};
use crate::trace::Tracer;

pub const NAME: &str = "report-storm";
pub const WHY: &str = "own-slot microsecond transactions: admission (signatures, nonces, parking, mempool) does nearly all the work, executor and VM almost none";

const DEVICES: usize = 256;
const REGIONS: usize = 3;
/// Transactions arriving per 100 ms virtual block (2 000 tx/s virtual).
const TX_PER_BLOCK: usize = 200;
const BLOCK_MS: u64 = 100;
/// Transactions per second of `--seconds`: what the 2-core host admits.
const OPS_PER_SECOND: f64 = 2_200.0;
const FUNDS: u128 = 1_000_000_000_000_000_000_000_000;
const FEES: Fees = Fees { max_fee_per_gas: 200_000_000_000, priority_fee_per_gas: 1_500_000_000 };

#[derive(Debug, Clone, Copy)]
enum Class {
    Report,
    Verify,
    BadSignature,
    FeeOverflow,
    Underfunded,
    Starved,
    OutOfOrderPair,
}

/// 80/20 report/verify among honest traffic; 5 % of submissions carry an
/// expected refusal or parking, one share per class.
const MIX: [(Class, f64); 7] = [
    (Class::Report, 76.0),
    (Class::Verify, 19.0),
    (Class::BadSignature, 1.0),
    (Class::FeeOverflow, 1.0),
    (Class::Underfunded, 1.0),
    (Class::Starved, 1.0),
    (Class::OutOfOrderPair, 1.0),
];

struct Region {
    report: ContractId,
    verify: ContractId,
    sink: ContractId,
}

struct World {
    chain: DevChain,
    regions: Vec<Region>,
    devices: Vec<Account>,
    sink: Template,
}

/// Accounts funded and contracts deployed — everything a twin needs.
fn build_world(seed: u64, backend: Backend) -> World {
    let mut keys = Rng::fork(seed, "report-storm.accounts");
    let mut chain = DevChain::new(seed, backend);
    let sink = Template::from_source(super::GAS_SINK_SOURCE);
    let regions = (0..REGIONS)
        .map(|_| {
            let deployer = Account::from_seed(&keys.bytes());
            chain.fund(deployer.address, FUNDS);
            let report = chain.deploy_evm(&deployer, layers::report_init_code());
            let verify = chain.deploy_evm(&deployer, layers::verify_init_code());
            let sink_id = chain.deploy_evm(&deployer, sink.evm_init_code(&[Arg::Word(1)]));
            chain.register_static_facts(sink_id, &sink);
            Region { report, verify, sink: sink_id }
        })
        .collect();
    let devices = (0..DEVICES)
        .map(|_| {
            let account = Account::from_seed(&keys.bytes());
            chain.fund(account.address, FUNDS);
            account
        })
        .collect();
    World { chain, regions, devices, sink }
}

/// Draws and pre-signs the whole schedule.
fn sign_ops(world: &World, seed: u64, target: usize) -> Vec<NodeOp> {
    let mut rng = Rng::fork(seed, "report-storm.ops");
    let mix = Mix::new(&MIX);
    let mut nonces = vec![0u64; DEVICES];
    let t0 = world.chain.now_ms();
    let mut ops: Vec<NodeOp> = Vec::with_capacity(target + 1);
    let push = |ops: &mut Vec<NodeOp>, tx: layers::Tx, expect: Expect| {
        let at_ms = t0 + BLOCK_MS * (ops.len() / TX_PER_BLOCK + 1) as u64;
        ops.push(NodeOp { id: layers::tx_id(&tx), tx, at_ms, expect });
    };
    while ops.len() < target {
        let d = rng.below(DEVICES as u64) as usize;
        let device = &world.devices[d];
        let region = &world.regions[d % REGIONS];
        let nonce = nonces[d];
        let location = rng.next_u64().to_be_bytes().to_vec();
        let report = |nonce: u64, fees: Fees| {
            layers::sign_call(device, region.report, location.clone(), 0, nonce, 200_000, fees)
        };
        match mix.sample(&mut rng) {
            Class::Report => {
                push(&mut ops, report(nonce, FEES), Expect::Confirm);
                nonces[d] += 1;
            }
            Class::Verify => {
                let tx =
                    layers::sign_call(device, region.verify, Vec::new(), 0, nonce, 100_000, FEES);
                push(&mut ops, tx, Expect::Confirm);
                nonces[d] += 1;
            }
            Class::BadSignature => {
                let tx = layers::corrupt_signature(report(nonce, FEES));
                push(&mut ops, tx, Expect::Refuse(Refusal::BadSignature));
            }
            Class::FeeOverflow => {
                let fees = Fees { max_fee_per_gas: u128::MAX, ..FEES };
                push(&mut ops, report(nonce, fees), Expect::Refuse(Refusal::FeeOverflow));
            }
            Class::Underfunded => {
                let tx = layers::sign_transfer(
                    device,
                    layers::Address::ZERO,
                    u128::MAX / 4,
                    nonce,
                    FEES,
                );
                push(&mut ops, tx, Expect::Refuse(Refusal::Underfunded));
            }
            Class::Starved => {
                let args = [Arg::Word(u128::from(rng.below(64))), Arg::Word(1)];
                let data = world.sink.evm_call("bump", &args);
                let bound = world.sink.evm_gas_bound(&data).expect("bump is certified");
                // Safely below the certificate: the intrinsic-gas spread
                // over calldata is under 5 000.
                let tx =
                    layers::sign_call(device, region.sink, data, 0, nonce, bound - 5_000, FEES);
                push(&mut ops, tx, Expect::Refuse(Refusal::OverBudget));
            }
            Class::OutOfOrderPair => {
                push(&mut ops, report(nonce + 1, FEES), Expect::ParkThenConfirm);
                push(&mut ops, report(nonce, FEES), Expect::Confirm);
                nonces[d] += 2;
            }
        }
    }
    ops
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let target = cfg.count(OPS_PER_SECOND, 10 * TX_PER_BLOCK);
    let ((world, ops), setup_s) = timed_setup(tracer, || {
        let world = build_world(cfg.seed, Backend::Memory);
        let ops = sign_ops(&world, cfg.seed, target);
        (world, ops)
    });
    out.push("setup_s", setup_s, "s");
    out.inputs_fp = node_driver::fingerprint(&ops);

    // The untraced pass gives every end-to-end number.
    let mut quiet = Tracer::new(false);
    let mut node = Node::new(world.chain, cfg.seed);
    let run = node_driver::drive(&mut node, &ops, &mut quiet);
    let judged = node_driver::judge(&node, &ops, &run);
    node_driver::push_e2e(&mut out, &node, &run, &judged);
    node_driver::oracle(&mut out, &node, &run, build_world(cfg.seed, Backend::Memory).chain);

    if tracer.enabled() {
        // The same schedule again with spans on, then the twins.
        let mut traced_node = Node::new(build_world(cfg.seed, Backend::Memory).chain, cfg.seed);
        let traced = node_driver::drive(&mut traced_node, &ops, tracer);
        let traced_rate = crate::stats::segment_rates(&traced.seg_confirmable, &traced.seg_wall_s);
        node_driver::layer_metrics(&mut out, &traced_node, &traced, &ops, tracer, |backend| {
            build_world(cfg.seed, backend).chain
        });
        out.layer_trace_overhead(&traced_rate);
    }
    out
}
