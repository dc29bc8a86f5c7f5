//! The adapter: every call the benchmark makes into a workspace crate
//! goes through this module, so the list of public signatures the
//! benchmark pins is the list of calls below (README.md repeats it).
//! Workload modules see only the wrappers and the plain data types
//! re-exported here; they never name a `pol_*` crate themselves.

use crate::gen::Rng;
use pol_chainsim::{Chain, ExecutionMode};
use pol_core::factory::Factory;
use pol_crypto::ed25519::Keypair;
use pol_lang::backend::AbiValue;
use pol_ledger::{StateKey, StateValue, Transaction, WorldState, WriteSet};
use pol_node::{NodeConfig, NodeService, TxTerminal};
use pol_store::{MemoryBackend, StateBackend, TrieBackend, WalBackend};
use std::path::Path;

pub use pol_chainsim::ExecStats;
pub use pol_ledger::{Address, ContractId, LedgerError, Receipt, TxId};
pub use pol_node::{Admission, AdmissionError, DrainReport, LatencySummary, RejectionCounts};

/// A signed (or deliberately mis-signed) transaction.
pub type Tx = Transaction;

// ---------------------------------------------------------------------
// pol-crypto / pol-ledger: accounts and transactions
// ---------------------------------------------------------------------

/// A keypair and the address it controls, derived from benchmark-owned
/// seed bytes (not from a chain's RNG) so inputs depend on `--seed` only.
pub struct Account {
    keys: Keypair,
    pub address: Address,
}

impl Account {
    pub fn from_seed(seed: &[u8; 32]) -> Account {
        let keys = Keypair::from_seed(seed);
        Account { address: Address::from_public_key(&keys.public), keys }
    }
}

/// Fee fields every pre-signed transaction carries: a cap generous
/// enough to outlive any base-fee drift of the run, so no transaction is
/// signed (or re-priced) inside the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Fees {
    pub max_fee_per_gas: u128,
    pub priority_fee_per_gas: u128,
}

pub fn sign_call(
    from: &Account,
    contract: ContractId,
    data: Vec<u8>,
    value: u128,
    nonce: u64,
    gas_limit: u64,
    fees: Fees,
) -> Tx {
    Transaction::call(from.address, contract, data, value, nonce)
        .with_gas_limit(gas_limit)
        .with_fees(fees.max_fee_per_gas, fees.priority_fee_per_gas)
        .signed(&from.keys)
}

pub fn sign_transfer(from: &Account, to: Address, value: u128, nonce: u64, fees: Fees) -> Tx {
    Transaction::transfer(from.address, to, value, nonce)
        .with_fees(fees.max_fee_per_gas, fees.priority_fee_per_gas)
        .signed(&from.keys)
}

/// Invalidates a signed transaction's signature by changing a signed
/// field afterwards: verification runs the full curve check and fails,
/// which is what a forged transaction costs the node.
pub fn corrupt_signature(mut tx: Tx) -> Tx {
    tx.gas_limit += 1;
    tx
}

pub fn verify_signature(tx: &Tx) -> bool {
    tx.verify_signature()
}

pub fn tx_id(tx: &Tx) -> TxId {
    tx.id()
}

pub fn tx_signing_bytes(tx: &Tx) -> Vec<u8> {
    tx.signing_bytes()
}

pub fn receipt_ok(receipt: &Receipt) -> bool {
    receipt.status.is_success()
}

// ---------------------------------------------------------------------
// pol-evm: hand-assembled contracts of the report-storm workload
// ---------------------------------------------------------------------

/// `storage[caller] = calldata[0..32]` behind the deploy wrapper — each
/// device overwrites its own slot, so reports never conflict.
pub fn report_init_code() -> Vec<u8> {
    use pol_evm::{assembler::Asm, opcode::Op};
    let runtime = Asm::new()
        .push_u64(0)
        .op(Op::CallDataLoad)
        .op(Op::Caller)
        .op(Op::SStore)
        .op(Op::Stop)
        .build();
    Asm::deploy_wrapper(&runtime)
}

/// Returns `storage[caller]`.
pub fn verify_init_code() -> Vec<u8> {
    use pol_evm::{assembler::Asm, opcode::Op};
    let runtime = Asm::new()
        .op(Op::Caller)
        .op(Op::SLoad)
        .push_u64(0)
        .op(Op::MStore)
        .push_u64(32)
        .push_u64(0)
        .op(Op::Return)
        .build();
    Asm::deploy_wrapper(&runtime)
}

/// A standalone EVM over its own `WorldState`: the VM's public call
/// entry point without a chain, mempool or executor around it.
#[derive(Default)]
pub struct EvmSandbox {
    evm: pol_evm::Evm,
    balances: pol_evm::interpreter::Balances,
}

impl EvmSandbox {
    pub fn fund(&mut self, address: Address, amount: u128) {
        self.balances.insert(address, amount);
    }

    pub fn deploy(&mut self, deployer: Address, init_code: &[u8]) -> Address {
        self.evm
            .deploy(deployer, init_code, 5_000_000, &mut self.balances)
            .expect("sandbox deploy succeeds")
            .0
    }

    /// `(success, gas_used)` of one message call.
    pub fn call(
        &mut self,
        caller: Address,
        contract: Address,
        data: Vec<u8>,
        value: u128,
    ) -> (bool, u64) {
        let params = pol_evm::CallParams::new(caller, contract)
            .with_data(data)
            .with_value(value)
            .with_gas_limit(1_000_000);
        let outcome = self.evm.call(params, &mut self.balances).expect("sandbox call runs");
        (outcome.success, outcome.gas_used)
    }
}

// ---------------------------------------------------------------------
// pol-lang / pol-core: compiled templates the node workloads deploy
// ---------------------------------------------------------------------

/// A compiled contract template with its static facts: what
/// `pol_core::factory::Factory` holds for the paper's contract.
pub struct Template {
    factory: Factory,
}

/// A constructor or API argument.
pub enum Arg {
    Word(u128),
    Address(Address),
    Bytes(Vec<u8>),
}

fn abi(args: &[Arg]) -> Vec<AbiValue> {
    args.iter()
        .map(|a| match a {
            Arg::Word(w) => AbiValue::Word(*w),
            Arg::Address(a) => AbiValue::Address(*a),
            Arg::Bytes(b) => AbiValue::Bytes(b.clone()),
        })
        .collect()
}

impl Template {
    /// The paper's proof-of-location contract through the factory.
    pub fn proof_of_location() -> Template {
        let factory =
            Factory::new(pol_core::contract::pol_program()).expect("the PoL program compiles");
        Template { factory }
    }

    /// Any source text through the same factory path.
    pub fn from_source(source: &str) -> Template {
        let program = pol_lang::parse(source).expect("template source parses");
        Template { factory: Factory::new(program).expect("template compiles") }
    }

    pub fn evm_init_code(&self, ctor: &[Arg]) -> Vec<u8> {
        self.factory.evm_init_code(&abi(ctor)).expect("constructor arguments match")
    }

    pub fn evm_call(&self, api: &str, args: &[Arg]) -> Vec<u8> {
        self.factory.compiled().evm.encode_call(api, &abi(args)).expect("api arguments match")
    }

    pub fn avm_call(&self, api: &str, args: &[Arg]) -> Vec<Vec<u8>> {
        self.factory.compiled().avm.encode_call(api, &abi(args)).expect("api arguments match")
    }

    pub fn avm_create_args(&self, ctor: &[Arg]) -> Vec<Vec<u8>> {
        self.factory.avm_create_args(&abi(ctor)).expect("constructor arguments match")
    }

    /// The certified worst-case gas of one EVM call.
    pub fn evm_gas_bound(&self, calldata: &[u8]) -> Option<u64> {
        self.factory.gas_bounds().resolve_evm_call(calldata)
    }
}

// ---------------------------------------------------------------------
// pol-chainsim: a devnet chain, as the node owns it and as twins replay it
// ---------------------------------------------------------------------

/// Block execution modes the paired twins compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sequential,
    Parallel,
    ParallelStatic,
}

/// State backend a chain commits through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    Trie,
}

pub struct DevChain {
    chain: Chain,
}

/// The shipped node configuration except for a mempool bound no
/// workload can reach: refusals are the workload's own, never
/// back-pressure.
fn node_config(seed: u64) -> NodeConfig {
    let mut config = NodeConfig::default();
    config.seed = seed;
    config.mempool_capacity = 1 << 20;
    config
}

impl DevChain {
    /// `devnet-evm` in the node's default execution mode.
    pub fn new(seed: u64, backend: Backend) -> DevChain {
        let config = node_config(seed);
        let preset = config.preset().expect("default preset exists");
        let mut chain = match backend {
            Backend::Memory => preset.build(seed),
            Backend::Trie => preset.build_with_backend(seed, Box::new(TrieBackend::new())),
        };
        chain.set_execution_mode(config.execution_mode().expect("default mode parses"));
        DevChain { chain }
    }

    pub fn set_mode(&mut self, mode: Mode) {
        let config = NodeConfig::default();
        let workers = config.workers;
        self.chain.set_execution_mode(match mode {
            Mode::Sequential => ExecutionMode::Sequential,
            Mode::Parallel => ExecutionMode::Parallel { workers },
            Mode::ParallelStatic => ExecutionMode::ParallelStatic { workers },
        });
    }

    pub fn set_code_cache(&mut self, enabled: bool) {
        self.chain.set_code_cache_enabled(enabled);
    }

    pub fn fund(&mut self, to: Address, amount: u128) {
        self.chain.fund(to, amount);
    }

    /// Deploys through a closed-loop submit-and-wait (set-up only).
    pub fn deploy_evm(&mut self, deployer: &Account, init_code: Vec<u8>) -> ContractId {
        let receipt =
            self.chain.deploy_evm(&deployer.keys, init_code, 5_000_000).expect("deploy submits");
        receipt.created.unwrap_or_else(|| panic!("deploy reverted: {:?}", receipt.status))
    }

    /// Registers the template's access summaries and gas certificates
    /// for one deployed instance, as `PolSystem` does after a deploy.
    pub fn register_static_facts(&mut self, contract: ContractId, template: &Template) {
        let ContractId::Evm(addr) = contract else { panic!("devnet-evm deploys EVM contracts") };
        let summaries = template.factory.summaries();
        let bounds = template.factory.gas_bounds();
        self.chain.register_access_resolver(
            contract,
            Box::new(move |q: &pol_chainsim::AccessQuery<'_>| {
                summaries.resolve_evm_call(addr, q.sender, q.value, q.calldata)
            }),
        );
        self.chain.register_gas_resolver(
            contract,
            Box::new(move |q: &pol_chainsim::GasQuery<'_>| bounds.resolve_evm_call(q.calldata)),
        );
    }

    pub fn now_ms(&self) -> u64 {
        self.chain.now_ms()
    }

    pub fn advance_to(&mut self, target_ms: u64) {
        self.chain.advance_to(target_ms);
    }

    pub fn submit(&mut self, tx: Tx) -> Result<TxId, LedgerError> {
        self.chain.submit(tx)
    }

    pub fn receipt(&self, id: TxId) -> Option<Receipt> {
        self.chain.poll_receipt(id)
    }

    pub fn state_digest(&self) -> [u8; 32] {
        self.chain.state_digest()
    }

    pub fn total_burned(&self) -> u128 {
        self.chain.total_burned()
    }

    pub fn exec_stats(&self) -> ExecStats {
        self.chain.exec_stats()
    }

    pub fn gas_precheck_clamps(&self) -> u64 {
        self.chain.gas_precheck_clamps()
    }
}

// ---------------------------------------------------------------------
// pol-node: the service under test
// ---------------------------------------------------------------------

pub struct Node {
    service: NodeService,
}

/// What became of an admitted transaction.
pub enum Terminal {
    Confirmed(Receipt),
    Dropped,
    Missing,
}

impl Node {
    pub fn new(chain: DevChain, seed: u64) -> Node {
        Node { service: NodeService::new(chain.chain, &node_config(seed)) }
    }

    pub fn submit_at(&mut self, at_ms: u64, tx: Tx) -> Result<Admission, AdmissionError> {
        self.service.submit_at(at_ms, tx)
    }

    pub fn run_until(&mut self, target_ms: u64) {
        self.service.run_until(target_ms);
    }

    pub fn shutdown(&mut self) -> DrainReport {
        self.service.shutdown()
    }

    pub fn now_ms(&self) -> u64 {
        self.service.chain().now_ms()
    }

    pub fn terminal(&self, id: TxId) -> Terminal {
        match self.service.terminal(id) {
            Some(TxTerminal::Confirmed(receipt)) => Terminal::Confirmed(receipt.clone()),
            Some(TxTerminal::Dropped(_)) => Terminal::Dropped,
            None => Terminal::Missing,
        }
    }

    pub fn admitted_log(&self) -> &[(u64, Tx)] {
        self.service.admitted_log()
    }

    pub fn counts(&self) -> (u64, u64, u64) {
        (self.service.admitted(), self.service.confirmed(), self.service.dropped())
    }

    pub fn rejections(&self) -> RejectionCounts {
        self.service.rejections()
    }

    pub fn latency_summary(&self) -> LatencySummary {
        self.service.latency_summary()
    }

    pub fn state_digest(&self) -> [u8; 32] {
        self.service.chain().state_digest()
    }

    pub fn total_burned(&self) -> u128 {
        self.service.chain().total_burned()
    }

    pub fn exec_stats(&self) -> ExecStats {
        self.service.chain().exec_stats()
    }
}

// ---------------------------------------------------------------------
// pol-ledger / pol-store: the state layer without a chain
// ---------------------------------------------------------------------

/// One write of a transaction-shaped write set.
pub enum Write {
    Balance(Address, u128),
    Nonce(Address, u64),
    Storage(Address, [u8; 32], [u8; 32]),
    DeleteStorage(Address, [u8; 32]),
}

/// Key of an authenticated read.
pub enum ProofKey {
    Balance(Address),
    Storage(Address, [u8; 32]),
}

impl ProofKey {
    fn state_key(&self) -> StateKey {
        match self {
            ProofKey::Balance(a) => StateKey::Balance(*a),
            ProofKey::Storage(a, slot) => StateKey::Storage(*a, *slot),
        }
    }
}

fn write_set(writes: &[Write]) -> WriteSet {
    let mut set = WriteSet::new();
    for w in writes {
        let (key, value) = match w {
            Write::Balance(a, v) => (StateKey::Balance(*a), Some(StateValue::U128(*v))),
            Write::Nonce(a, n) => (StateKey::Nonce(*a), Some(StateValue::U64(*n))),
            Write::Storage(a, slot, word) => {
                (StateKey::Storage(*a, *slot), Some(StateValue::Word(*word)))
            }
            Write::DeleteStorage(a, slot) => (StateKey::Storage(*a, *slot), None),
        };
        set.insert(key, value);
    }
    set
}

/// Encoded size of a write set in the storage codec — the "user bytes"
/// `write_amp` divides by.
pub fn encoded_len(writes: &[Write]) -> usize {
    write_set(writes)
        .iter()
        .map(|(k, v)| {
            pol_ledger::codec::encode_key(k).len()
                + v.as_ref().map_or(0, |v| pol_ledger::codec::encode_value(v).len())
        })
        .sum()
}

/// The same writes as the byte batch `WorldState::apply` hands its
/// backend, for feeding a bare [`RawBackend`].
pub fn encoded_batch(writes: &[Write]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let mut batch: Vec<_> = write_set(writes)
        .into_iter()
        .map(|(k, v)| {
            (pol_ledger::codec::encode_key(&k), v.as_ref().map(pol_ledger::codec::encode_value))
        })
        .collect();
    batch.sort_by(|a, b| a.0.cmp(&b.0));
    batch
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Memory,
    Wal,
    Trie,
}

impl StoreKind {
    pub const ALL: [StoreKind; 3] = [StoreKind::Memory, StoreKind::Wal, StoreKind::Trie];

    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Memory => "memory",
            StoreKind::Wal => "wal",
            StoreKind::Trie => "trie",
        }
    }
}

/// Log records between WAL snapshots: large enough that the measured
/// phase appends and the restart genuinely replays the log.
const WAL_SNAPSHOT_EVERY: u64 = 1 << 30;

fn open_backend(kind: StoreKind, wal_dir: &Path) -> Box<dyn StateBackend> {
    match kind {
        StoreKind::Memory => Box::new(MemoryBackend::new()),
        StoreKind::Trie => Box::new(TrieBackend::new()),
        StoreKind::Wal => {
            Box::new(WalBackend::open(wal_dir, WAL_SNAPSHOT_EVERY).expect("wal directory opens"))
        }
    }
}

/// A `WorldState` over one backend.
pub struct World {
    world: WorldState,
}

/// An inclusion or exclusion proof and the key it speaks for.
pub struct Proof {
    key: Vec<u8>,
    proof: pol_store::MerkleProof,
}

impl World {
    pub fn open(kind: StoreKind, wal_dir: &Path) -> World {
        World { world: WorldState::with_backend(open_backend(kind, wal_dir)).0 }
    }

    pub fn apply(&mut self, writes: &[Write]) {
        self.world.apply(write_set(writes));
    }

    pub fn flush_block(&mut self, height: u64) {
        self.world.flush_block(height).expect("backend flush");
    }

    pub fn state_root(&self) -> [u8; 32] {
        self.world.state_root()
    }

    /// `None` on backends that cannot prove (all but the trie).
    pub fn prove(&self, key: &ProofKey) -> Option<Proof> {
        let state_key = key.state_key();
        let proof = self.world.prove(&state_key)?;
        Some(Proof { key: pol_ledger::codec::encode_key(&state_key), proof })
    }
}

/// `Ok(true)` for a valid inclusion proof, `Ok(false)` for a valid
/// exclusion proof, `Err` when the proof does not bind the key to `root`.
pub fn verify_proof(root: &[u8; 32], proof: &Proof) -> Result<bool, String> {
    pol_store::verify_proof(root, &proof.key, &proof.proof)
        .map(|value| value.is_some())
        .map_err(|e| e.to_string())
}

/// The same proof with one sibling hash flipped (or, for a path-less
/// proof, speaking for another key): must fail verification.
pub fn tampered(proof: &Proof) -> Proof {
    let mut bad = Proof { key: proof.key.clone(), proof: proof.proof.clone() };
    match bad.proof.siblings.first_mut() {
        Some(sibling) => sibling[0] ^= 1,
        None => bad.key.push(0xFF),
    }
    bad
}

/// Reopens a WAL directory cold and returns the replayed root.
pub fn wal_reopen_root(wal_dir: &Path) -> [u8; 32] {
    WalBackend::open(wal_dir, WAL_SNAPSHOT_EVERY).expect("wal directory reopens").root()
}

/// A bare `StateBackend`, for the traced run's per-backend costs.
pub struct RawBackend {
    backend: Box<dyn StateBackend>,
}

impl RawBackend {
    pub fn open(kind: StoreKind, wal_dir: &Path) -> RawBackend {
        RawBackend { backend: open_backend(kind, wal_dir) }
    }

    pub fn commit(&mut self, batch: &[(Vec<u8>, Option<Vec<u8>>)]) {
        self.backend.commit(batch).expect("backend commit");
    }

    pub fn flush_block(&mut self, height: u64) {
        self.backend.flush_block(height).expect("backend flush");
    }

    pub fn root(&self) -> [u8; 32] {
        self.backend.root()
    }
}

// ---------------------------------------------------------------------
// pol-crowdsense / pol-core: the paper's campaign, call by call
// ---------------------------------------------------------------------

pub use pol_crowdsense::simulation::GROUP_SIZE;

/// Where one group of a campaign stands: a witness at the cell centre
/// and [`GROUP_SIZE`] provers a few metres apart inside the cell —
/// exactly the placement of `pol_crowdsense::simulation::run`.
pub struct GroupPlan {
    pub witness: (f64, f64),
    pub provers: Vec<(f64, f64)>,
}

pub fn campaign_plan(users: usize) -> Vec<GroupPlan> {
    let positions = pol_crowdsense::simulation::paper_positions();
    (0..users / GROUP_SIZE)
        .map(|g| {
            let (_, center) = &positions[g % positions.len()];
            let shifted = center
                .offset_m(120.0 * (g / positions.len()) as f64, 0.0)
                .expect("offset stays valid");
            let center = pol_geo::olc::encode(shifted, 10).expect("valid coordinates").center();
            let provers = (0..GROUP_SIZE)
                .map(|k| {
                    let pos = center
                        .offset_m(-3.0 + 1.5 * k as f64, -3.0 + 1.5 * k as f64)
                        .expect("offset stays valid");
                    (pos.latitude(), pos.longitude())
                })
                .collect();
            GroupPlan { witness: (center.latitude(), center.longitude()), provers }
        })
        .collect()
}

/// The report payload user `user` uploads (as the simulation words it).
pub fn report_bytes(user: usize) -> Vec<u8> {
    pol_crowdsense::Report::new(
        format!("report #{user}"),
        format!("automated report from user {user}"),
        pol_crowdsense::ReportCategory::Other,
    )
    .to_bytes()
}

/// Networks of the paper's evaluation, in presentation order.
pub fn evaluation_network_count() -> usize {
    pol_chainsim::presets::evaluation_networks().len()
}

/// One interaction as the paper's tables count it.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    pub deploy: bool,
    pub latency_ms: u64,
    pub fee_base_units: u128,
    pub txs: usize,
}

fn interactions(results: &pol_crowdsense::SimulationResults) -> Vec<Interaction> {
    results
        .measurements
        .iter()
        .map(|m| Interaction {
            deploy: m.kind == pol_core::system::OpKind::Deploy,
            latency_ms: m.latency_ms,
            fee_base_units: m.fee.base_units(),
            txs: m.txs,
        })
        .collect()
}

fn simulation_config(users: usize, seed: u64) -> pol_crowdsense::SimulationConfig {
    pol_crowdsense::SimulationConfig { users, seed, verify: false, ..Default::default() }
}

/// Wallet funding of a campaign. `SystemConfig`'s default (10¹⁸) cannot
/// cover 32 worst-case-priced `verify` calls on Goerli at some seeds
/// (`simulation::run` with `verify: true` then fails with
/// `InsufficientBalance`, as the repository's `tables` bin does), so
/// campaigns fund wallets a thousandfold. Balances never enter a latency
/// or a fee.
const CAMPAIGN_FUNDS: u128 = 1_000_000_000_000_000_000_000;

/// `pol_crowdsense::simulation::run` itself (verifier pass off: it runs
/// after every measured interaction) — the reference the call-by-call
/// campaign must reproduce.
///
/// `None` when the simulation itself fails at this seed: its wallets
/// hold the default funding, which a Goerli base-fee spike outruns.
pub fn reference_campaign(network: usize, users: usize, seed: u64) -> Option<Vec<Interaction>> {
    let preset = &pol_chainsim::presets::evaluation_networks()[network];
    let results = pol_crowdsense::simulation::run(preset, &simulation_config(users, seed)).ok()?;
    Some(interactions(&results))
}

/// One campaign on one network, built as `simulation::run` builds it and
/// driven through `PolSystem`'s public calls so each can be timed.
pub struct Campaign {
    system: pol_core::PolSystem,
    areas: Vec<pol_geo::OlcCode>,
}

impl Campaign {
    pub fn new(network: usize, seed: u64) -> Campaign {
        let preset = &pol_chainsim::presets::evaluation_networks()[network];
        let reward = simulation_config(GROUP_SIZE, seed).reward;
        let config = pol_core::SystemConfig {
            max_users: GROUP_SIZE as u64,
            reward,
            seed,
            initial_funds: CAMPAIGN_FUNDS,
            ..pol_core::SystemConfig::default()
        };
        Campaign { system: pol_core::PolSystem::new(preset.build(seed), config), areas: Vec::new() }
    }

    pub fn register_witness(&mut self, at: (f64, f64)) -> usize {
        self.system.register_witness(at.0, at.1).expect("witness registers").0
    }

    pub fn register_prover(&mut self, at: (f64, f64)) -> usize {
        self.system.register_prover(at.0, at.1).expect("prover registers").0
    }

    /// The client-visible call; remembers the area for the verifier.
    pub fn submit_report(&mut self, prover: usize, witness: usize, report: Vec<u8>) -> bool {
        let outcome = self.system.submit_report(
            pol_core::system::ProverId(prover),
            pol_core::system::WitnessId(witness),
            report,
        );
        match outcome {
            Ok(o) => {
                if !self.areas.contains(&o.area) {
                    self.areas.push(o.area);
                }
                true
            }
            Err(_) => false,
        }
    }

    pub fn area_count(&self) -> usize {
        self.areas.len()
    }

    /// The verifier pass over one area; returns provers verified.
    pub fn run_verifier(&mut self, area: usize) -> usize {
        let area = self.areas[area].clone();
        self.system.run_verifier(&area).expect("verifier pass runs")
    }

    fn results(&self) -> pol_crowdsense::SimulationResults {
        use pol_core::system::OpKind;
        let chain = self.system.chain();
        pol_crowdsense::SimulationResults {
            network: chain.config.name.clone(),
            currency: chain.config.currency,
            measurements: self
                .system
                .operations()
                .iter()
                .filter(|op| matches!(op.kind, OpKind::Deploy | OpKind::Attach))
                .map(|op| pol_crowdsense::UserMeasurement {
                    user: op.user,
                    kind: op.kind,
                    latency_ms: op.latency_ms,
                    fee: op.fee,
                    txs: op.txs,
                })
                .collect(),
        }
    }

    pub fn interactions(&self) -> Vec<Interaction> {
        interactions(&self.results())
    }

    /// `(confirmed transactions, their summed gas_used)` over the
    /// campaign's whole chain.
    pub fn gas_totals(&self) -> (u64, u64) {
        let chain = self.system.chain();
        let mut txs = 0u64;
        let mut gas = 0u64;
        for height in 1..=chain.height() {
            for tx in &chain.block(height).expect("height in range").transactions {
                if let Some(receipt) = chain.poll_receipt(tx.id()) {
                    txs += 1;
                    gas += receipt.gas_used;
                }
            }
        }
        (txs, gas)
    }

    pub fn hypercube_hops(&self) -> (u64, u64) {
        let stats = self.system.hypercube.stats();
        (stats.lookups, stats.total_hops)
    }
}

/// `pol_bench::shape_report` over one campaign per evaluation network.
pub fn shape_checks(campaigns: &[&Campaign]) -> Vec<(String, bool)> {
    let results: Vec<_> = campaigns.iter().map(|c| c.results()).collect();
    pol_bench::shape_report(&results)
}

/// The off-chain half of `submit_report`, stood up on its own so each
/// public call can be timed without a chain: DFS upload, DID
/// challenge–response, witness attestation, hypercube lookup.
pub struct OffChain {
    dfs: pol_dfs::DfsNetwork,
    peer: pol_dfs::PeerId,
    registry: pol_did::DidRegistry,
    prover: pol_core::actors::Prover,
    witness: pol_core::actors::Witness,
    document: pol_did::DidDocument,
    hypercube: pol_hypercube::Hypercube,
    area: pol_geo::OlcCode,
}

impl OffChain {
    pub fn new(rng: &mut Rng) -> OffChain {
        let plan = campaign_plan(GROUP_SIZE).remove(0);
        let coords = |(lat, lon)| pol_geo::Coordinates::new(lat, lon).expect("planned coordinates");
        let dfs = pol_dfs::DfsNetwork::new();
        let peer = dfs.create_peer();
        let registry = pol_did::DidRegistry::new();
        let mut ca =
            pol_core::actors::CertificationAuthority::new(pol_did::Identity::from_seed(0xCA));
        let prover = pol_core::actors::Prover::new(
            pol_did::Identity::generate(rng),
            coords(plan.provers[0]),
        );
        let document = registry.register_identity(&prover.identity, 0).expect("prover registers");
        let witness_identity = pol_did::Identity::generate(rng);
        registry.register_identity(&witness_identity, 0).expect("witness registers");
        let credential = ca.enroll_witness(&witness_identity, 0);
        let witness =
            pol_core::actors::Witness::new(witness_identity, coords(plan.witness), credential);
        let area = pol_geo::olc::encode(prover.position, 10).expect("valid coordinates");
        let hypercube =
            pol_hypercube::Hypercube::new(pol_core::SystemConfig::default().hypercube_dims);
        hypercube.register_contract(&area, "0xa11ce".to_string()).expect("area registers");
        OffChain { dfs, peer, registry, prover, witness, document, hypercube, area }
    }

    pub fn dfs_add(&self, report: Vec<u8>) -> String {
        self.dfs.add(self.peer, report).expect("dfs upload").as_str().to_string()
    }

    pub fn did_authenticate(&self, rng: &mut Rng) -> bool {
        pol_did::auth::authenticate(rng, &self.document, &self.prover.identity).is_ok()
    }

    pub fn attest(&mut self, rng: &mut Rng, report: &[u8]) -> bool {
        let request = pol_core::ProofRequest {
            did: self.prover.identity.did.clone(),
            olc: self.area.clone(),
            nonce: self.witness.issue_nonce(),
            cid: pol_dfs::Cid::for_content(report),
            wallet: self.prover.wallet,
        };
        self.witness
            .attest(rng, &self.registry, request, &self.prover.identity, &self.prover.position)
            .is_ok()
    }

    pub fn hypercube_find(&self) -> bool {
        self.hypercube.find_contract(&self.area).expect("lookup routes").is_some()
    }
}

/// `Factory::new` on the paper's program: what every `PolSystem::new`
/// pays before its first transaction.
pub fn factory_new() {
    std::hint::black_box(Template::proof_of_location());
}

/// A standalone AVM over its own `WorldState`.
#[derive(Default)]
pub struct AvmSandbox {
    avm: pol_avm::Avm,
    balances: pol_avm::interpreter::Balances,
}

impl AvmSandbox {
    pub fn fund(&mut self, address: Address, amount: u128) {
        self.balances.insert(address, amount);
    }

    /// Creates the template's application and funds its escrow.
    pub fn create(&mut self, creator: Address, template: &Template, ctor: &[Arg]) -> u64 {
        let program = template.factory.compiled().avm.program.clone();
        let app = self
            .avm
            .create_app_with_args(
                creator,
                program,
                template.avm_create_args(ctor),
                &mut self.balances,
            )
            .expect("sandbox app creation succeeds");
        self.balances.insert(pol_avm::Avm::app_address(app), 1_000_000_000);
        app
    }

    /// Whether the call was approved.
    pub fn call(&mut self, sender: Address, app: u64, args: Vec<Vec<u8>>) -> bool {
        let params = pol_avm::AppCallParams::new(sender, app).with_args(args);
        self.avm.call(params, &mut self.balances).map(|o| o.approved).unwrap_or(false)
    }
}

// ---------------------------------------------------------------------
// pol-lang: every pass of the compiler, one call each
// ---------------------------------------------------------------------

/// The bundled proof-of-location sources.
pub const POL_V1_SOURCE: &str = pol_core::contract::POL_SOURCE;
pub const POL_V2_SOURCE: &str = pol_core::contract::POL_V2_SOURCE;

macro_rules! lint_fixture {
    ($name:literal) => {
        LintFixture {
            name: $name,
            source: include_str!(concat!("../../../../../../examples/lint/", $name, ".pol")),
            expected: include_str!(concat!(
                "../../../../../../examples/lint/",
                $name,
                ".pol.expected"
            )),
        }
    };
}

/// One `examples/lint` fixture with its golden diagnostics.
pub struct LintFixture {
    pub name: &'static str,
    pub source: &'static str,
    pub expected: &'static str,
}

pub const LINT_FIXTURES: [LintFixture; 10] = [
    lint_fixture!("clean_counter"),
    lint_fixture!("dead_store"),
    lint_fixture!("gas_bound"),
    lint_fixture!("leaked_map"),
    lint_fixture!("relational_guard"),
    lint_fixture!("top_key"),
    lint_fixture!("unguarded_subtraction"),
    lint_fixture!("unreachable_branch"),
    lint_fixture!("unsat_require"),
    lint_fixture!("write_after_transfer"),
];

/// `polc lint`'s source-level pipeline (parse → check → verify + lint),
/// one stable line per diagnostic as the goldens spell them.
pub fn lint_diagnostics(source: &str) -> Vec<String> {
    let program = match pol_lang::parse(source) {
        Ok(p) => p,
        Err(e) => return vec![format!("error[P0001] {}:{} {}", e.line, e.col, e.message)],
    };
    let mut diags = pol_lang::check::check(&program);
    if diags.is_empty() {
        diags = pol_lang::verify::verify(&program).failures;
        diags.extend(pol_lang::lint::lint(&program));
    }
    diags
        .iter()
        .map(|d| {
            let pos = match d.span.line_col(source) {
                Some((line, col)) => format!("{line}:{col}"),
                None => "-".to_string(),
            };
            format!("{}[{}] {pos} {}", d.severity, d.code, d.message)
        })
        .collect()
}

/// What a full pipeline run produced, reduced to what the oracles and
/// the counting metrics need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compiled {
    /// Every emitted artifact, concatenated: EVM init code, TEAL text,
    /// access-summary JSON and gas-certificate JSON.
    pub artifact: Vec<u8>,
    pub evm_runtime_bytes: usize,
    pub avm_ops: usize,
    pub theorems: usize,
    /// Sum of the certified EVM worst cases; `None` when any method's
    /// bound is the lattice top.
    pub certified_gas: Option<u64>,
}

/// The seven passes in pipeline order; [`compile_pipeline`] opens one
/// span per pass under these names.
pub const PASSES: [&str; 7] = [
    "lang.parse",
    "lang.check",
    "lang.verify",
    "lang.analyze",
    "lang.access",
    "lang.gas",
    "lang.backend",
];

/// `parse → check → verify → analyze → access summaries → gas::certify →
/// backend::compile` on one source text. `Err` carries the first pass
/// that refused the program.
pub fn compile_pipeline(
    source: &str,
    op_id: u32,
    tracer: &mut crate::trace::Tracer,
) -> Result<Compiled, String> {
    let program = tracer
        .span(PASSES[0], op_id, || pol_lang::parse(source))
        .map_err(|e| format!("parse: {}:{} {}", e.line, e.col, e.message))?;
    let type_errors = tracer.span(PASSES[1], op_id, || pol_lang::check::check(&program));
    if !type_errors.is_empty() {
        return Err(format!("check: {} type errors", type_errors.len()));
    }
    let report = tracer.span(PASSES[2], op_id, || pol_lang::verify::verify(&program));
    if !report.ok() {
        return Err(format!("verify: {} failures", report.failures.len()));
    }
    tracer
        .span(PASSES[3], op_id, || pol_lang::analyze::analyze(&program))
        .map_err(|e| format!("analyze: {e}"))?;
    let summaries = tracer.span(PASSES[4], op_id, || pol_lang::access::summarize(&program));
    let bounds = tracer
        .span(PASSES[5], op_id, || pol_lang::gas::certify(&program))
        .map_err(|e| format!("gas: {e}"))?;
    let compiled = tracer
        .span(PASSES[6], op_id, || pol_lang::backend::compile(&program))
        .map_err(|e| format!("backend: {e}"))?;

    let mut artifact = compiled.evm.init_code.clone();
    artifact.extend_from_slice(compiled.avm.teal().as_bytes());
    artifact.extend_from_slice(summaries.to_json("-", "").as_bytes());
    artifact.extend_from_slice(bounds.to_json("-", "").as_bytes());
    let certified_gas = std::iter::once(&bounds.constructor_evm)
        .chain(bounds.methods.iter().map(|m| &m.evm))
        .map(pol_lang::gas::GasBound::worst_case)
        .sum::<Option<u64>>();
    Ok(Compiled {
        artifact,
        evm_runtime_bytes: compiled.evm.runtime_len,
        avm_ops: compiled.avm.program.len(),
        theorems: report.theorems_checked,
        certified_gas,
    })
}

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

/// Lets crate functions that draw randomness (`Identity::generate`,
/// `Witness::attest`) draw it from the benchmark's own generator.
impl rand::RngCore for Rng {
    fn next_u32(&mut self) -> u32 {
        (Rng::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}
