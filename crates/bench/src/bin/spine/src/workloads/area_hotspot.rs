//! `area-hotspot`: 256 provers `insert_data` into 8 area instances of the
//! paper's compiled contract, chosen Zipf(1.0); then the verifier funds
//! each area and calls `verify` for every entry. That sequence runs five
//! times over, each round on eight fresh instances, so each of the five
//! measured segments holds one whole round — an insert phase and a verify
//! phase — and a quartile over segments compares like with like.
//!
//! Calls into one area conflict on `availableSits` / `toVerify`, and the
//! verifier's calls on its own balance, so the executor, the EVM and the
//! ledger's overlay/validation do the most work they ever do on the node
//! path (speculation, aborts, re-validation, keccak map slots, transfers,
//! logs). Admission cost is the same as `report-storm`'s, which isolates
//! the block-level difference.

use super::node_driver::{self, Expect, NodeOp};
use super::{timed_setup, Cfg, Outcome};
use crate::gen::{Rng, Zipf};
use crate::layers::{self, Account, Arg, Backend, ContractId, DevChain, Fees, Node, Template};
use crate::stats::{self, SEGMENTS};
use crate::trace::Tracer;

pub const NAME: &str = "area-hotspot";
pub const WHY: &str = "Zipf-skewed calls into 8 instances of the paper's contract conflict on shared globals: executor, EVM and ledger validation do the most work they ever do on the node path";

const PROVERS: usize = 256;
const AREAS: usize = 8;
/// Insert-then-verify rounds, one per measured segment.
const ROUNDS: usize = SEGMENTS;
const ZIPF_S: f64 = 1.0;
const TX_PER_BLOCK: usize = 64;
const BLOCK_MS: u64 = 100;
/// Transactions per second of `--seconds` (half inserts, half verifies).
const OPS_PER_SECOND: f64 = 1_300.0;
const ENTRY_BYTES: usize = 224;
const REWARD: u128 = 1_000;
const FUNDS: u128 = 1_000_000_000_000_000_000_000_000;
const GAS_LIMIT: u64 = 1_000_000;
const FEES: Fees = Fees { max_fee_per_gas: 200_000_000_000, priority_fee_per_gas: 1_500_000_000 };

/// One prover's entry: which area instance it goes to (`round × AREAS +
/// Zipf rank`) and what it carries.
struct Entry {
    prover: usize,
    area: usize,
    did: u128,
    data: Vec<u8>,
}

/// The seeded draw of every round's entries — drawn before anything is
/// deployed, because each instance's seat count is its number of entries
/// (the verification phase opens when the last seat is taken).
fn draw_entries(seed: u64, inserts_per_round: usize) -> Vec<Vec<Entry>> {
    let mut rng = Rng::fork(seed, "area-hotspot.entries");
    let zipf = Zipf::new(AREAS, ZIPF_S);
    (0..ROUNDS)
        .map(|round| {
            (0..inserts_per_round)
                .map(|i| {
                    let mut data = vec![0u8; ENTRY_BYTES];
                    rng.fill(&mut data);
                    Entry {
                        prover: rng.below(PROVERS as u64) as usize,
                        area: round * AREAS + zipf.sample(&mut rng),
                        did: 1 + (round * inserts_per_round + i) as u128,
                        data,
                    }
                })
                .collect()
        })
        .collect()
}

fn entries_of(rounds: &[Vec<Entry>], area: usize) -> usize {
    rounds[area / AREAS].iter().filter(|e| e.area == area).count()
}

struct World {
    chain: DevChain,
    template: Template,
    areas: Vec<ContractId>,
    provers: Vec<Account>,
    verifier: Account,
}

fn constructor(area: usize, seats: usize) -> [Arg; 4] {
    [
        Arg::Word(9_000 + area as u128),
        Arg::Bytes(format!("7H369F4W+Q{area}").into_bytes()),
        Arg::Word(seats as u128),
        Arg::Word(REWARD),
    ]
}

fn build_world(seed: u64, backend: Backend, rounds: &[Vec<Entry>]) -> World {
    let mut keys = Rng::fork(seed, "area-hotspot.accounts");
    let mut chain = DevChain::new(seed, backend);
    let template = Template::proof_of_location();
    let deployer = Account::from_seed(&keys.bytes());
    chain.fund(deployer.address, FUNDS);
    let areas = (0..ROUNDS * AREAS)
        .map(|area| {
            // An area nobody drew still deploys, with one seat never taken.
            let seats = entries_of(rounds, area).max(1);
            let id = chain.deploy_evm(&deployer, template.evm_init_code(&constructor(area, seats)));
            chain.register_static_facts(id, &template);
            id
        })
        .collect();
    let mut account = |chain: &mut DevChain| {
        let account = Account::from_seed(&keys.bytes());
        chain.fund(account.address, FUNDS);
        account
    };
    let provers = (0..PROVERS).map(|_| account(&mut chain)).collect();
    let verifier = account(&mut chain);
    World { chain, template, areas, provers, verifier }
}

fn insert_call(template: &Template, entry: &Entry) -> Vec<u8> {
    template.evm_call("insert_data", &[Arg::Bytes(entry.data.clone()), Arg::Word(entry.did)])
}

/// Pre-signs the schedule, round by round: every insert, then one
/// `insert_money` per area, then every `verify` in the order the entries
/// were inserted (so the verify phase keeps the Zipf interleaving across
/// areas).
fn sign_ops(world: &World, rounds: &[Vec<Entry>]) -> Vec<NodeOp> {
    let t0 = world.chain.now_ms();
    let mut ops: Vec<NodeOp> = Vec::new();
    let mut push = |tx: layers::Tx| {
        let at_ms = t0 + BLOCK_MS * (ops.len() / TX_PER_BLOCK + 1) as u64;
        ops.push(NodeOp { id: layers::tx_id(&tx), tx, at_ms, expect: Expect::Confirm });
    };
    let mut nonces = vec![0u64; PROVERS];
    let mut verifier_nonce = 0u64;
    let mut verifier_call = |contract: ContractId, data: Vec<u8>, value: u128| {
        let nonce = verifier_nonce;
        verifier_nonce += 1;
        layers::sign_call(&world.verifier, contract, data, value, nonce, GAS_LIMIT, FEES)
    };
    for (round, entries) in rounds.iter().enumerate() {
        for e in entries {
            let data = insert_call(&world.template, e);
            let prover = &world.provers[e.prover];
            let nonce = nonces[e.prover];
            nonces[e.prover] += 1;
            push(layers::sign_call(prover, world.areas[e.area], data, 0, nonce, GAS_LIMIT, FEES));
        }
        for area in round * AREAS..(round + 1) * AREAS {
            let count = entries_of(rounds, area);
            if count > 0 {
                let budget = REWARD * count as u128;
                let data = world.template.evm_call("insert_money", &[Arg::Word(budget)]);
                push(verifier_call(world.areas[area], data, budget));
            }
        }
        for e in entries {
            let args = [
                Arg::Word(e.did),
                Arg::Address(world.provers[e.prover].address),
                Arg::Bytes(e.data.clone()),
            ];
            let data = world.template.evm_call("verify", &args);
            push(verifier_call(world.areas[e.area], data, 0));
        }
    }
    ops
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inserts_per_round = cfg.count(OPS_PER_SECOND, 10 * TX_PER_BLOCK) / 2 / ROUNDS;
    let entries = draw_entries(cfg.seed, inserts_per_round);
    let ((world, ops), setup_s) = timed_setup(tracer, || {
        let world = build_world(cfg.seed, Backend::Memory, &entries);
        let ops = sign_ops(&world, &entries);
        (world, ops)
    });
    out.push("setup_s", setup_s, "s");
    out.inputs_fp = node_driver::fingerprint(&ops);

    let mut quiet = Tracer::new(false);
    let mut node = Node::new(world.chain, cfg.seed);
    let run = node_driver::drive(&mut node, &ops, &mut quiet);
    let judged = node_driver::judge(&node, &ops, &run);
    node_driver::push_e2e(&mut out, &node, &run, &judged);
    node_driver::oracle(
        &mut out,
        &node,
        &run,
        build_world(cfg.seed, Backend::Memory, &entries).chain,
    );

    if tracer.enabled() {
        let twin_world = build_world(cfg.seed, Backend::Memory, &entries);
        let mut traced_node = Node::new(twin_world.chain, cfg.seed);
        let traced = node_driver::drive(&mut traced_node, &ops, tracer);
        let traced_rate = stats::segment_rates(&traced.seg_confirmable, &traced.seg_wall_s);
        node_driver::layer_metrics(&mut out, &traced_node, &traced, &ops, tracer, |backend| {
            build_world(cfg.seed, backend, &entries).chain
        });
        let sample = &entries[0][..inserts_per_round.min(1_000)];
        let calls = sample.iter().map(|e| insert_call(&world.template, e)).collect();
        super::evm_standalone(&mut out, &constructor(0, sample.len() + 1), calls, tracer);
        out.layer_trace_overhead(&traced_rate);
    }
    out
}
