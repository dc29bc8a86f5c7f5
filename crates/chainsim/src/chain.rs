//! One simulated blockchain: clock, mempool, fee market, consensus, VM.

use crate::congestion::CongestionModel;
use crate::executor::{self, ExecCtx, ExecStats, ExecutionMode};
use crate::facts::{AccessResolver, GasResolver, StaticFacts};
use crate::feemarket;
use pol_avm::{AvmProgram, AvmView};
use pol_consensus::StakeRegistry;
use pol_crypto::ed25519::Keypair;
use pol_crypto::sha256;
use pol_evm::CodeCache;
use pol_ledger::{
    Address, Block, BlockHash, ContractId, Currency, LedgerError, Receipt, Transaction, TxId,
    VerifiedTx, WorldState,
};
use pol_store::StateBackend;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// Which virtual machine the chain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmKind {
    /// EVM-style (Ropsten, Goerli, Mumbai).
    Evm,
    /// AVM-style (Algorand).
    Avm,
}

/// Static configuration of a simulated network.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Human-readable network name ("Ethereum Goerli", …).
    pub name: String,
    /// Native currency.
    pub currency: Currency,
    /// Virtual machine family.
    pub vm: VmKind,
    /// Block (or round) interval, milliseconds.
    pub block_ms: u64,
    /// Uniform ± jitter applied to each block time.
    pub block_jitter_ms: u64,
    /// Probability that a slot goes unfilled (missed proposal), delaying
    /// the next block by a full interval — a visible source of latency
    /// variance on the public Ethereum testnets.
    pub missed_slot_prob: f64,
    /// Blocks that must follow a transaction's block before clients treat
    /// it as confirmed (0 = instant finality, as on Algorand).
    pub confirmations: u64,
    /// EIP-1559 per-block gas target (EVM chains).
    pub gas_target: u64,
    /// Hard per-block gas limit (EVM chains; 2 × target on mainnet).
    pub gas_limit: u64,
    /// Starting base fee (wei) for EVM chains.
    pub initial_base_fee: u128,
    /// Default priority fee (wei) suggested to clients.
    pub priority_fee: u128,
    /// Flat per-transaction fee (µAlgo) for AVM chains.
    pub flat_fee: u128,
    /// Background-congestion process.
    pub congestion: CongestionModel,
    /// Uniform client→mempool propagation delay bounds, milliseconds.
    pub propagation_ms: (u64, u64),
    /// Uniform client-side overhead after a confirmation is observable
    /// (node-provider RPC polling, signing); dithers the phase at which
    /// the next transaction of a sequential workload lands in a slot.
    pub client_delay_ms: (u64, u64),
    /// Number of equal-stake validators; each block's proposer is a
    /// stake-weighted draw among them.
    pub validators: usize,
}

pub(crate) struct PendingTx {
    pub(crate) tx: Transaction,
    /// `tx.id()`, hashed once when the signature was checked.
    pub(crate) id: TxId,
    pub(crate) submitted_ms: u64,
    pub(crate) arrival_ms: u64,
}

/// Off-ledger payload for AVM transactions: compiled programs and
/// argument vectors travel beside the opaque `tx.data` (which carries
/// their digest so ids and fees still depend on content).
pub(crate) enum AvmPayload {
    Create { program: AvmProgram, args: Vec<Vec<u8>> },
    Call { args: Vec<Vec<u8>> },
}

/// One simulated chain.
pub struct Chain {
    /// The network configuration.
    pub config: ChainConfig,
    now_ms: u64,
    blocks: Vec<Block>,
    /// The hash of the last block, hashed once when it was produced.
    tip: BlockHash,
    base_fee: u128,
    mempool: Vec<PendingTx>,
    world: WorldState,
    avm_payloads: HashMap<TxId, AvmPayload>,
    receipts: HashMap<TxId, PendingReceipt>,
    rng: StdRng,
    registry: StakeRegistry,
    randao: [u8; 32],
    total_burned: u128,
    exec_mode: ExecutionMode,
    exec_stats: ExecStats,
    code_cache: CodeCache,
    facts: StaticFacts,
    sanitize: bool,
    gas_precheck_clamps: u64,
}

struct PendingReceipt {
    receipt: Receipt,
    included_height: u64,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("name", &self.config.name)
            .field("height", &self.height())
            .field("now_ms", &self.now_ms)
            .finish()
    }
}

impl Chain {
    /// Creates a chain from a configuration and RNG seed, over the
    /// default in-memory state backend.
    pub(crate) fn new(config: ChainConfig, seed: u64) -> Chain {
        Chain::with_world(config, seed, WorldState::new())
    }

    /// Creates a chain whose world state commits through `backend` —
    /// e.g. a `pol_store::WalBackend` for crash-restart durability or a
    /// `pol_store::TrieBackend` for per-block roots and Merkle proofs.
    /// Entries already persisted in the backend are restored into the
    /// typed world.
    ///
    /// # Panics
    ///
    /// Panics, naming the keys, if the backend holds entries the typed
    /// world cannot restore (compiled AVM programs persist only as content
    /// digests; see `WorldState::with_backend`): a chain that kept the
    /// app's state but not its program would fail every call while its
    /// digest still committed to the program.
    pub(crate) fn new_with_backend(
        config: ChainConfig,
        seed: u64,
        backend: Box<dyn StateBackend>,
    ) -> Chain {
        let (world, opaque) = WorldState::with_backend(backend);
        if !opaque.is_empty() {
            let keys: Vec<String> = opaque.iter().map(|key| pol_crypto::hex::encode(key)).collect();
            panic!("state backend holds entries the chain cannot restore: {}", keys.join(", "));
        }
        Chain::with_world(config, seed, world)
    }

    fn with_world(config: ChainConfig, seed: u64, world: WorldState) -> Chain {
        let registry = StakeRegistry::equal_stake(config.validators.max(1), 32);
        let genesis = Block {
            number: 0,
            parent: BlockHash::GENESIS_PARENT,
            timestamp_ms: 0,
            proposer: Address::ZERO,
            base_fee_per_gas: config.initial_base_fee,
            gas_used: 0,
            transactions: Vec::new(),
        };
        Chain {
            base_fee: config.initial_base_fee,
            config,
            now_ms: 0,
            tip: genesis.hash(),
            blocks: vec![genesis],
            mempool: Vec::new(),
            world,
            avm_payloads: HashMap::new(),
            receipts: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            registry,
            randao: sha256(b"genesis-randao"),
            total_burned: 0,
            exec_mode: ExecutionMode::Sequential,
            exec_stats: ExecStats::default(),
            code_cache: CodeCache::new(),
            facts: StaticFacts::default(),
            // Debug builds (the whole test suite) cross-check every
            // commit against its static access claims; release builds
            // (benches) skip the bookkeeping unless asked.
            sanitize: cfg!(debug_assertions),
            gas_precheck_clamps: 0,
        }
    }

    /// Selects how blocks execute their transactions (default:
    /// [`ExecutionMode::Sequential`]). The parallel mode is observably
    /// identical — receipts, gas, fees and burn match byte for byte.
    pub fn set_execution_mode(&mut self, mode: ExecutionMode) {
        self.exec_mode = mode;
    }

    /// Cumulative executor counters (blocks, speculation, conflicts).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// Registers the static access resolver for a deployed contract —
    /// the compile-time summaries that let
    /// [`ExecutionMode::ParallelStatic`] prove transactions disjoint and
    /// the commit-time sanitizer cross-check observed footprints.
    pub fn register_access_resolver(&mut self, contract: ContractId, resolver: AccessResolver) {
        self.facts.register_access(contract, resolver);
    }

    /// Enables or disables the shared pre-decoded EVM program cache
    /// (default: on; AVM chains never consult it). With it off every
    /// execution re-decodes its program from scratch — the baseline the
    /// benchmark measures the cache against
    /// (`chainsim.block_us_per_tx_nocache`). Toggling replaces the cache,
    /// so previously memoized programs are dropped either way.
    pub fn set_code_cache_enabled(&mut self, enabled: bool) {
        self.code_cache = if enabled { CodeCache::new() } else { CodeCache::disabled() };
    }

    /// Forces the commit-time access sanitizer on or off (default: on in
    /// debug builds, off in release). With it on, any committed
    /// transaction whose observed read/write sets escape its static
    /// claims panics — the summaries' soundness contract.
    pub fn set_access_sanitizer(&mut self, enabled: bool) {
        self.sanitize = enabled;
    }

    /// Registers the static worst-case gas resolver for a deployed
    /// contract. Certified calls seed the parallel scheduler's gas
    /// estimates, shrink the worst-case-fee admission precheck, and are
    /// rejected outright when provisioned below their proven need; the
    /// commit-time gas sanitizer cross-checks observed spends against
    /// the certificates.
    pub fn register_gas_resolver(&mut self, contract: ContractId, resolver: GasResolver) {
        self.facts.register_gas(contract, resolver);
    }

    /// How many admitted transactions had their worst-case-fee precheck
    /// priced from a static gas certificate below their `gas_limit`.
    pub fn gas_precheck_clamps(&self) -> u64 {
        self.gas_precheck_clamps
    }

    /// The authenticated commitment over the full world state (balances,
    /// nonces, contracts, apps): the canonical Merkle-trie root the state
    /// backend maintains — equal digests mean observably identical
    /// chains, on every backend and in every execution mode, and Merkle
    /// proofs from a trie backend verify against exactly this value.
    pub fn state_digest(&self) -> [u8; 32] {
        self.world.state_root()
    }

    /// The name of the state backend the world commits through.
    pub fn state_backend_name(&self) -> &'static str {
        self.world.backend_name()
    }

    /// An inclusion/exclusion proof for one state key against
    /// [`Chain::state_digest`], on backends that support proving (the
    /// Merkle trie; others return `None`).
    pub fn prove_state(&self, key: &pol_ledger::StateKey) -> Option<pol_store::MerkleProof> {
        self.world.prove(key)
    }

    /// Current simulation time, milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64 - 1
    }

    /// The prevailing base fee per gas (wei), or the flat fee on AVM
    /// chains.
    pub fn base_fee(&self) -> u128 {
        match self.config.vm {
            VmKind::Evm => self.base_fee,
            VmKind::Avm => self.config.flat_fee,
        }
    }

    /// Total base fees burned so far (EVM chains).
    pub fn total_burned(&self) -> u128 {
        self.total_burned
    }

    /// An account's balance in base units.
    pub fn balance(&self, address: Address) -> u128 {
        self.world.balance(address)
    }

    /// The nonce the account's next transaction must carry.
    pub fn next_nonce(&self, address: Address) -> u64 {
        self.world.nonce(address)
    }

    /// Mints `amount` base units to an address (testnet faucet semantics).
    pub fn fund(&mut self, to: Address, amount: u128) {
        let balance = self.world.balance(to);
        self.world.set_balance(to, balance + amount);
    }

    /// Generates a fresh keypair and funds its address.
    pub fn create_funded_account(&mut self, amount: u128) -> (Keypair, Address) {
        let mut seed = [0u8; 32];
        self.rng.fill_bytes(&mut seed);
        let kp = Keypair::from_seed(&seed);
        let addr = Address::from_public_key(&kp.public);
        self.fund(addr, amount);
        (kp, addr)
    }

    /// Suggested `(max_fee_per_gas, priority_fee)` for prompt inclusion.
    pub fn suggested_fees(&self) -> (u128, u128) {
        let max_fee = self.base_fee.saturating_mul(2).saturating_add(self.config.priority_fee);
        (max_fee, self.config.priority_fee)
    }

    /// Read-through to the AVM-owned state.
    pub fn avm(&self) -> AvmView<'_> {
        AvmView::new(&self.world)
    }

    /// Submits a signed transaction to the mempool: checks the signature,
    /// then [`Chain::submit_verified`].
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadSignature`] for a missing or invalid signature,
    /// else whatever [`Chain::submit_verified`] refuses.
    pub fn submit(&mut self, tx: Transaction) -> Result<TxId, LedgerError> {
        self.submit_verified(VerifiedTx::new(tx)?)
    }

    /// Submits a transaction whose signature has already been checked —
    /// the node's admission path, which verifies once before parking.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::BadNonce`] — nonce gap;
    /// * [`LedgerError::FeeOverflow`] — `value + gas_limit ×
    ///   max_fee_per_gas` exceeds `u128`; wrapping would let an
    ///   underfunded transaction pass the balance check below;
    /// * [`LedgerError::GasOverBudget`] — a certified call provisioned
    ///   less gas than its static worst-case certificate;
    /// * [`LedgerError::InsufficientBalance`] — value plus worst-case fee
    ///   (certificate-priced for certified calls) exceeds the balance.
    pub fn submit_verified(&mut self, verified: VerifiedTx) -> Result<TxId, LedgerError> {
        let tx = verified.tx();
        let expected = self.next_nonce(tx.from);
        if tx.nonce != expected {
            return Err(LedgerError::BadNonce { expected, got: tx.nonce });
        }
        let fee_overflow = || LedgerError::FeeOverflow {
            value: tx.value,
            gas_limit: tx.gas_limit,
            max_fee_per_gas: tx.max_fee_per_gas,
        };
        // Admission against the static gas certificates: a certified
        // call provisioned below its proven worst-case need can only
        // run out of gas, so it is rejected before execution; a
        // certified call provisioned above it has its worst-case fee
        // priced from the certificate instead of the full `gas_limit`.
        // AVM payloads are looked up by transaction id, so callers
        // stash them before submitting.
        let id = verified.id();
        let bound = self.facts.tx_gas_bound(self.config.vm, &self.avm_payloads, tx, id);
        let mut clamped = false;
        let worst_fee = match self.config.vm {
            VmKind::Evm => {
                let priced_gas = match bound {
                    Some(certified) if tx.gas_limit < certified => {
                        return Err(LedgerError::GasOverBudget {
                            certified,
                            gas_limit: tx.gas_limit,
                        });
                    }
                    Some(certified) => {
                        clamped = certified < tx.gas_limit;
                        certified
                    }
                    None => tx.gas_limit,
                };
                u128::from(priced_gas).checked_mul(tx.max_fee_per_gas).ok_or_else(fee_overflow)?
            }
            VmKind::Avm => self.config.flat_fee,
        };
        let needed = tx.value.checked_add(worst_fee).ok_or_else(fee_overflow)?;
        let available = self.balance(tx.from);
        if available < needed {
            return Err(LedgerError::InsufficientBalance { address: tx.from, needed, available });
        }
        if clamped {
            self.gas_precheck_clamps += 1;
        }
        let (lo, hi) = self.config.propagation_ms;
        let delay = if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
        self.world.set_nonce(tx.from, expected + 1);
        self.mempool.push(PendingTx {
            tx: verified.into_tx(),
            id,
            submitted_ms: self.now_ms,
            arrival_ms: self.now_ms + delay,
        });
        Ok(id)
    }

    /// Non-blocking receipt lookup: the confirmed receipt of `id`, or
    /// `None` while the transaction is still pending (in the mempool, or
    /// included but short of its confirmation depth). Unlike
    /// [`Chain::await_tx`] this never produces blocks, never advances the
    /// clock and adds no client-side observation delay — the entry point
    /// a long-lived node's run loop polls between ticks instead of
    /// busy-waiting inside `await_tx`.
    pub fn poll_receipt(&self, id: TxId) -> Option<Receipt> {
        let pending = self.receipts.get(&id)?;
        let confirm_height = pending.included_height + self.config.confirmations;
        if self.height() < confirm_height {
            return None;
        }
        let mut receipt = pending.receipt.clone();
        receipt.confirmed_ms = self.blocks[confirm_height as usize].timestamp_ms;
        Some(receipt)
    }

    /// The receipt `id` got when its block included it, confirmed or not
    /// (the explorer reads inclusion facts; clients wait for
    /// [`Chain::poll_receipt`]).
    pub(crate) fn inclusion_receipt(&self, id: TxId) -> Option<&Receipt> {
        self.receipts.get(&id).map(|pending| &pending.receipt)
    }

    /// Whether `id` is known to the chain: waiting in the mempool, or
    /// already included (confirmed or not).
    pub(crate) fn knows_tx(&self, id: TxId) -> bool {
        self.receipts.contains_key(&id) || self.mempool.iter().any(|p| p.id == id)
    }

    /// Transactions currently waiting in the chain's mempool.
    pub fn mempool_depth(&self) -> usize {
        self.mempool.len()
    }

    /// Produces exactly one block (possibly empty) on the chain's slot
    /// grid, advancing the virtual clock past it — the run-loop tick of a
    /// long-lived node service.
    pub fn step_block(&mut self) {
        self.produce_block();
    }

    /// Advances the chain until `id` is confirmed, returning its receipt.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::ExecutionFailed`] for an unknown id (never
    /// submitted or evicted).
    pub fn await_tx(&mut self, id: TxId) -> Result<Receipt, LedgerError> {
        let mut guard = 0;
        loop {
            if let Some(receipt) = self.poll_receipt(id) {
                // Client-side observation overhead (RPC polling etc.).
                let (lo, hi) = self.config.client_delay_ms;
                let delay = if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
                self.now_ms = self.now_ms.max(receipt.confirmed_ms) + delay;
                return Ok(receipt);
            }
            if !self.knows_tx(id) {
                return Err(LedgerError::ExecutionFailed(format!("unknown transaction {id}")));
            }
            self.produce_block();
            guard += 1;
            if guard > 100_000 {
                return Err(LedgerError::ExecutionFailed(format!(
                    "transaction {id} starved for 100000 blocks"
                )));
            }
        }
    }

    /// Convenience: submit then await.
    ///
    /// # Errors
    ///
    /// Propagates [`Chain::submit`] and [`Chain::await_tx`] failures.
    pub fn submit_and_wait(&mut self, tx: Transaction) -> Result<Receipt, LedgerError> {
        let id = self.submit(tx)?;
        self.await_tx(id)
    }

    /// Produces blocks until `target_ms` has passed (lets time flow when
    /// nothing is being awaited).
    pub fn advance_to(&mut self, target_ms: u64) {
        while self.now_ms < target_ms {
            self.produce_block();
        }
    }

    /// Deploys an EVM contract: builds, signs, submits and awaits.
    ///
    /// # Errors
    ///
    /// Propagates submission errors; a reverted deploy surfaces as a
    /// receipt with `status != Success` and no `created` id.
    pub fn deploy_evm(
        &mut self,
        keypair: &Keypair,
        init_code: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Receipt, LedgerError> {
        let from = Address::from_public_key(&keypair.public);
        let (max_fee, priority) = self.suggested_fees();
        let tx = Transaction::create(from, init_code, self.next_nonce(from))
            .with_gas_limit(gas_limit)
            .with_fees(max_fee, priority)
            .signed(keypair);
        self.submit_and_wait(tx)
    }

    /// Submits an EVM contract call without awaiting it — the batch
    /// building block: submit a storm of calls, then await their ids, and
    /// they land in the same block where the executor can run them
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Propagates [`Chain::submit`] failures.
    pub fn submit_call_evm(
        &mut self,
        keypair: &Keypair,
        contract: ContractId,
        data: Vec<u8>,
        value: u128,
        gas_limit: u64,
    ) -> Result<TxId, LedgerError> {
        let from = Address::from_public_key(&keypair.public);
        let (max_fee, priority) = self.suggested_fees();
        let tx = Transaction::call(from, contract, data, value, self.next_nonce(from))
            .with_gas_limit(gas_limit)
            .with_fees(max_fee, priority)
            .signed(keypair);
        self.submit(tx)
    }

    /// Calls an EVM contract.
    ///
    /// # Errors
    ///
    /// Propagates submission errors.
    pub fn call_evm(
        &mut self,
        keypair: &Keypair,
        contract: ContractId,
        data: Vec<u8>,
        value: u128,
        gas_limit: u64,
    ) -> Result<Receipt, LedgerError> {
        let id = self.submit_call_evm(keypair, contract, data, value, gas_limit)?;
        self.await_tx(id)
    }

    /// Creates an AVM application (the program object travels beside the
    /// transaction; `tx.data` carries its digest).
    ///
    /// # Errors
    ///
    /// Propagates submission errors.
    pub fn deploy_app(
        &mut self,
        keypair: &Keypair,
        program: AvmProgram,
        args: Vec<Vec<u8>>,
    ) -> Result<Receipt, LedgerError> {
        let from = Address::from_public_key(&keypair.public);
        let digest = program_digest(&program, &args);
        let tx = Transaction::create(from, digest, self.next_nonce(from)).signed(keypair);
        let id = tx.id();
        self.avm_payloads.insert(id, AvmPayload::Create { program, args });
        let submitted = self.submit(tx);
        match submitted {
            Ok(id) => self.await_tx(id),
            Err(e) => {
                self.avm_payloads.remove(&id);
                Err(e)
            }
        }
    }

    /// Submits an AVM application call without awaiting it (the AVM
    /// counterpart of [`Chain::submit_call_evm`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Chain::submit`] failures.
    pub fn submit_call_app(
        &mut self,
        keypair: &Keypair,
        app_id: u64,
        args: Vec<Vec<u8>>,
        payment: u128,
    ) -> Result<TxId, LedgerError> {
        let from = Address::from_public_key(&keypair.public);
        let mut digest = Vec::new();
        for a in &args {
            digest.extend_from_slice(&sha256(a));
        }
        let tx = Transaction::call(
            from,
            ContractId::App(app_id),
            digest,
            payment,
            self.next_nonce(from),
        )
        .signed(keypair);
        let id = tx.id();
        self.avm_payloads.insert(id, AvmPayload::Call { args });
        match self.submit(tx) {
            Ok(id) => Ok(id),
            Err(e) => {
                self.avm_payloads.remove(&id);
                Err(e)
            }
        }
    }

    /// Calls an AVM application.
    ///
    /// # Errors
    ///
    /// Propagates submission errors.
    pub fn call_app(
        &mut self,
        keypair: &Keypair,
        app_id: u64,
        args: Vec<Vec<u8>>,
        payment: u128,
    ) -> Result<Receipt, LedgerError> {
        let id = self.submit_call_app(keypair, app_id, args, payment)?;
        self.await_tx(id)
    }

    /// The block at `height`, if produced.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    fn produce_block(&mut self) {
        // Next block boundary with jitter, anchored to the previous block
        // so the slot grid is independent of when clients submit.
        let jitter = if self.config.block_jitter_ms > 0 {
            self.rng
                .gen_range(0..=self.config.block_jitter_ms * 2)
                .saturating_sub(self.config.block_jitter_ms)
        } else {
            0
        };
        let mut interval = self.config.block_ms.saturating_add(jitter).max(1);
        // Missed proposals push the next block out by whole slots.
        while self.config.missed_slot_prob > 0.0
            && self.rng.gen_bool(self.config.missed_slot_prob.min(0.9))
        {
            interval += self.config.block_ms;
        }
        let last_time = self.blocks.last().expect("genesis exists").timestamp_ms;
        // Anchor to the previous block's slot grid. When the clock has
        // leapt ahead (idle periods between workload phases), jump
        // straight to the first boundary at or after the clock instead of
        // grinding out one empty block per elapsed slot.
        let block_time = if self.now_ms > last_time {
            let steps = (self.now_ms - last_time).div_ceil(interval).max(1);
            last_time + steps * interval
        } else {
            last_time + interval
        };
        let height = self.blocks.len() as u64;

        // Consensus: a hash-chained, stake-weighted proposer pick.
        let mut preimage = self.randao.to_vec();
        preimage.extend_from_slice(&height.to_be_bytes());
        let digest = sha256(&preimage);
        self.randao = digest;
        let mut b = [0u8; 8];
        b.copy_from_slice(&digest[..8]);
        let point = u64::from_le_bytes(b) % self.registry.total_stake();
        let proposer = self.registry.by_stake_point(point).address;

        // Congestion: background traffic eats block capacity.
        let load = self.config.congestion.step(&mut self.rng);
        let background_gas = (load * self.config.gas_limit as f64) as u64;
        let remaining_gas = self.config.gas_limit.saturating_sub(background_gas);

        // Priority ordering on EVM chains; FIFO on Algorand.
        if self.config.vm == VmKind::Evm {
            self.mempool.sort_by_key(|p| std::cmp::Reverse(p.tx.max_priority_fee_per_gas));
        }

        let pool = std::mem::take(&mut self.mempool);
        let ctx = ExecCtx {
            vm: self.config.vm,
            flat_fee: self.config.flat_fee,
            base_fee: self.base_fee,
            currency: self.config.currency,
            height,
            block_time,
            avm_payloads: &self.avm_payloads,
            facts: &self.facts,
            sanitize: self.sanitize,
            cache: &self.code_cache,
        };
        let outcome = executor::run_block(
            &ctx,
            &mut self.world,
            pool,
            remaining_gas,
            self.exec_mode,
            &mut self.exec_stats,
        );
        let block_gas_used = background_gas + outcome.tx_gas;
        self.total_burned += outcome.burned;
        let mut included = Vec::new();
        let mut ids = Vec::new();
        for (pending, receipt) in outcome.committed {
            self.avm_payloads.remove(&pending.id);
            self.receipts.insert(pending.id, PendingReceipt { receipt, included_height: height });
            included.push(pending.tx);
            ids.push(pending.id);
        }
        self.mempool = outcome.leftover;

        // Fee market update.
        if self.config.vm == VmKind::Evm {
            self.base_fee =
                feemarket::next_base_fee(self.base_fee, block_gas_used, self.config.gas_target);
        }

        let block = Block {
            number: height,
            parent: self.tip,
            timestamp_ms: block_time,
            proposer,
            base_fee_per_gas: self.base_fee,
            gas_used: block_gas_used,
            transactions: included,
        };
        self.tip = block.hash_with_ids(&ids);
        self.blocks.push(block);
        // Block boundary: the WAL's durability flush / snapshot policy,
        // the trie's hashing of what the block dirtied (a no-op for the
        // memory backend).
        self.world.flush_block(height).expect("state backend flush failed");
        self.now_ms = self.now_ms.max(block_time);
    }
}

fn program_digest(program: &AvmProgram, args: &[Vec<u8>]) -> Vec<u8> {
    let teal = pol_avm::teal::render(program);
    let mut preimage = teal.into_bytes();
    for a in args {
        preimage.extend_from_slice(a);
    }
    sha256(&preimage).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use pol_ledger::TxStatus;

    #[test]
    fn transfer_on_goerli() {
        let mut chain = presets::goerli().build(1);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (_, bob_addr) = chain.create_funded_account(0);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 1_000, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        let receipt = chain.submit_and_wait(tx).unwrap();
        assert!(receipt.status.is_success());
        assert_eq!(chain.balance(bob_addr), 1_000);
        // Latency at least one slot plus confirmations.
        let min_latency = chain.config.block_ms * (1 + chain.config.confirmations);
        assert!(receipt.latency_ms() >= min_latency - chain.config.block_ms);
        // Fee charged at 21 000 gas.
        assert_eq!(receipt.gas_used, 21_000);
        assert!(receipt.fee.base_units() > 0);
    }

    #[test]
    fn unsigned_rejected() {
        let mut chain = presets::goerli().build(2);
        let (_, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let tx = Transaction::transfer(alice_addr, Address::ZERO, 1, 0);
        assert_eq!(chain.submit(tx), Err(LedgerError::BadSignature));
    }

    #[test]
    fn raw_submit_checks_and_verified_submit_skips_only_the_signature() {
        let mut chain = presets::goerli().build(2);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (max_fee, prio) = chain.suggested_fees();
        let signed = |nonce: u64| {
            Transaction::transfer(alice_addr, Address::ZERO, 1, nonce)
                .with_fees(max_fee, prio)
                .signed(&alice)
        };
        let mut tampered = signed(0);
        tampered.value = 2;
        assert_eq!(chain.submit(tampered), Err(LedgerError::BadSignature));

        let verified = VerifiedTx::new(signed(0)).unwrap();
        let id = verified.id();
        assert_eq!(chain.submit_verified(verified), Ok(id));
        // Every other admission rule still applies to a verified transaction.
        let gap = VerifiedTx::new(signed(5)).unwrap();
        assert!(matches!(
            chain.submit_verified(gap),
            Err(LedgerError::BadNonce { expected: 1, got: 5 })
        ));
        assert!(chain.await_tx(id).unwrap().status.is_success());
    }

    #[test]
    fn nonce_gap_rejected() {
        let mut chain = presets::goerli().build(3);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let tx = Transaction::transfer(alice_addr, Address::ZERO, 1, 5).signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::BadNonce { expected: 0, got: 5 })));
    }

    #[test]
    fn insufficient_funds_rejected() {
        let mut chain = presets::goerli().build(4);
        let (alice, alice_addr) = chain.create_funded_account(100);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, Address::ZERO, 50, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::InsufficientBalance { .. })));
    }

    /// Regression: `submit` computed `gas_limit × max_fee_per_gas`
    /// unchecked — an adversarial fee cap panicked debug builds and
    /// wrapped past the balance check in release, admitting a transaction
    /// that could never pay its worst-case fee. It must reject with the
    /// typed overflow error instead (this test panics on the pre-fix
    /// code).
    #[test]
    fn adversarial_fee_cap_rejected_with_typed_overflow() {
        let mut chain = presets::goerli().build(40);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let tx = Transaction::transfer(alice_addr, Address::ZERO, 1, 0)
            .with_fees(u128::MAX, 0)
            .signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::FeeOverflow { .. })));
        // The rejected transaction must not have consumed the nonce.
        assert_eq!(chain.next_nonce(alice_addr), 0);
    }

    /// Regression: `value + worst_fee` also wrapped — a `u128::MAX` value
    /// plus any fee wrapped to a tiny `needed`, passing the balance check
    /// while promising more than the sender holds.
    #[test]
    fn adversarial_value_plus_fee_rejected_with_typed_overflow() {
        let mut chain = presets::goerli().build(41);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, Address::ZERO, u128::MAX, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::FeeOverflow { .. })));
        // A merely-too-large (but non-overflowing) value still gets the
        // ordinary insufficient-balance rejection.
        let tx = Transaction::transfer(alice_addr, Address::ZERO, 10u128.pow(19), 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::InsufficientBalance { .. })));
    }

    /// The same overflow on the AVM side: the flat fee can't overflow the
    /// multiply, but `value + flat_fee` still wraps at the extreme.
    #[test]
    fn avm_value_overflow_rejected() {
        let mut chain = presets::devnet_algo().build(42);
        let (alice, alice_addr) = chain.create_funded_account(10_000_000);
        let tx = Transaction::transfer(alice_addr, Address::ZERO, u128::MAX, 0).signed(&alice);
        assert!(matches!(chain.submit(tx), Err(LedgerError::FeeOverflow { .. })));
    }

    /// Admission against a static gas certificate: a limit below the
    /// proven need is refused before it can burn a fee, a limit above it
    /// freezes only the certificate's worst-case fee, and a call no
    /// certificate covers is still priced from its full limit.
    #[test]
    fn certified_call_is_refused_below_its_certificate_and_priced_from_it_above() {
        const CERTIFIED: u64 = 50_000;
        let mut chain = presets::devnet_evm().build(44);
        let certified = ContractId::Evm(Address([0xce; 20]));
        let uncertified = ContractId::Evm(Address([0xcf; 20]));
        chain.register_gas_resolver(certified, Box::new(|_| Some(CERTIFIED)));
        let (max_fee, prio) = chain.suggested_fees();
        // Funded for the certificate's worst-case fee, not ten times it.
        let (alice, alice_addr) = chain.create_funded_account(u128::from(CERTIFIED) * max_fee);
        let call = |to: ContractId, gas_limit: u64| {
            Transaction::call(alice_addr, to, Vec::new(), 0, 0)
                .with_gas_limit(gas_limit)
                .with_fees(max_fee, prio)
                .signed(&alice)
        };

        assert_eq!(
            chain.submit(call(certified, CERTIFIED - 1)),
            Err(LedgerError::GasOverBudget { certified: CERTIFIED, gas_limit: CERTIFIED - 1 })
        );
        assert!(matches!(
            chain.submit(call(uncertified, 10 * CERTIFIED)),
            Err(LedgerError::InsufficientBalance { .. })
        ));
        assert_eq!(chain.next_nonce(alice_addr), 0, "a refusal must not consume the nonce");
        assert_eq!(chain.gas_precheck_clamps(), 0);

        chain.submit(call(certified, 10 * CERTIFIED)).expect("priced from the certificate");
        assert_eq!(chain.gas_precheck_clamps(), 1);
        assert_eq!(chain.next_nonce(alice_addr), 1);
    }

    #[test]
    fn poll_receipt_is_non_blocking_and_matches_await() {
        let mut chain = presets::devnet_evm().build(43);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (_, bob_addr) = chain.create_funded_account(0);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 9, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        let id = chain.submit(tx).unwrap();
        // Nothing confirmed yet, and polling must not mint blocks.
        let height = chain.height();
        assert!(chain.poll_receipt(id).is_none());
        assert_eq!(chain.height(), height);
        assert!(chain.knows_tx(id));
        assert_eq!(chain.mempool_depth(), 1);
        // Tick the run loop until the receipt surfaces.
        let mut guard = 0;
        let receipt = loop {
            if let Some(r) = chain.poll_receipt(id) {
                break r;
            }
            chain.step_block();
            guard += 1;
            assert!(guard < 100, "transfer starved on the devnet");
        };
        assert!(receipt.status.is_success());
        assert_eq!(chain.mempool_depth(), 0);
        assert_eq!(chain.balance(bob_addr), 9);
        // Polling again returns the same confirmed receipt.
        assert_eq!(format!("{receipt:?}"), format!("{:?}", chain.poll_receipt(id).unwrap()));
        assert!(!chain.knows_tx(TxId([0xee; 32])));
    }

    #[test]
    fn algorand_flat_fees_and_fast_finality() {
        let mut chain = presets::algorand_testnet().build(5);
        let (alice, alice_addr) = chain.create_funded_account(10_000_000);
        let (_, bob_addr) = chain.create_funded_account(0);
        let tx = Transaction::transfer(alice_addr, bob_addr, 1_000, 0).signed(&alice);
        let receipt = chain.submit_and_wait(tx).unwrap();
        assert!(receipt.status.is_success());
        assert_eq!(receipt.fee.base_units(), 1_000); // flat min fee
                                                     // Instant finality: exactly the inclusion round.
        assert_eq!(receipt.block_number + chain.config.confirmations, receipt.block_number);
    }

    #[test]
    fn evm_deploy_and_call_through_chain() {
        use pol_evm::assembler::Asm;
        use pol_evm::opcode::Op;
        let mut chain = presets::devnet_evm().build(6);
        let (alice, _) = chain.create_funded_account(10u128.pow(20));
        // Runtime: return 7.
        let runtime = Asm::new()
            .push_u64(7)
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let receipt = chain.deploy_evm(&alice, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
        let contract = receipt.created.expect("deployed");
        let call = chain.call_evm(&alice, contract, vec![], 0, 1_000_000).unwrap();
        assert!(call.status.is_success());
        assert_eq!(pol_evm::Word::from_be_slice(&call.output), pol_evm::Word::from_u64(7));
    }

    #[test]
    fn avm_deploy_and_call_through_chain() {
        use pol_avm::opcode::AvmOp::*;
        let mut chain = presets::devnet_algo().build(7);
        let (alice, _) = chain.create_funded_account(10_000_000);
        let program = AvmProgram::new(vec![PushInt(1), Return]);
        let receipt = chain.deploy_app(&alice, program, vec![]).unwrap();
        let app_id = receipt.created.and_then(|c| c.as_app()).expect("created");
        let call = chain.call_app(&alice, app_id, vec![b"arg".to_vec()], 0).unwrap();
        assert!(call.status.is_success());
    }

    #[test]
    fn idle_catch_up_skips_empty_slots() {
        let mut chain = presets::devnet_algo().build(11);
        let h0 = chain.height();
        chain.now_ms += 1_000 * chain.config.block_ms;
        let target = chain.now_ms() + 1;
        chain.advance_to(target);
        // The idle gap must not materialise as a thousand empty blocks.
        assert!(chain.height() <= h0 + 2, "empty slots materialised: height {}", chain.height());
        // Catch-up blocks stay on the slot grid.
        let last = chain.block(chain.height()).unwrap().timestamp_ms;
        assert_eq!(last % chain.config.block_ms, 0, "off-grid timestamp {last}");
    }

    #[test]
    fn idle_gap_then_await_still_confirms() {
        let mut chain = presets::devnet_evm().build(12);
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (_, bob_addr) = chain.create_funded_account(0);
        chain.now_ms += 500 * chain.config.block_ms;
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 7, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        let before = chain.height();
        let receipt = chain.submit_and_wait(tx).unwrap();
        assert!(receipt.status.is_success());
        assert_eq!(chain.balance(bob_addr), 7);
        assert!(chain.height() <= before + 3, "await busy-looped: height {}", chain.height());
    }

    #[test]
    fn exec_stats_count_parallel_blocks_default_seeding_and_cache_hits() {
        use pol_evm::assembler::Asm;
        use pol_evm::opcode::Op;
        let mut chain = presets::devnet_evm().build(2);
        chain.set_execution_mode(ExecutionMode::Parallel { workers: 2 });
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(19));
        let (_, bob_addr) = chain.create_funded_account(0);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 5, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        chain.submit_and_wait(tx).unwrap();
        let stats = chain.exec_stats();
        assert_eq!((stats.committed_txs, stats.speculative_runs, stats.conflicts), (1, 1, 0));
        assert!(stats.parallel_blocks > 0, "{stats:?}");
        // No gas certificates are registered, so every scheduler
        // estimate fell back to its tx-kind default.
        assert_eq!(stats.static_gas_seeded, 0);
        assert!(stats.default_seeded > 0, "{stats:?}");

        // Calling the same contract twice reuses its decoded program.
        let runtime = Asm::new().op(Op::Stop).build();
        let receipt = chain.deploy_evm(&alice, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
        let contract = receipt.created.unwrap();
        chain.call_evm(&alice, contract, Vec::new(), 0, 100_000).unwrap();
        chain.call_evm(&alice, contract, Vec::new(), 0, 100_000).unwrap();
        assert!(chain.exec_stats().code_cache_hits > 0, "{:?}", chain.exec_stats());
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let run = |mode: ExecutionMode| {
            let mut chain = presets::devnet_evm().build(13);
            chain.set_execution_mode(mode);
            let mut accounts = Vec::new();
            for _ in 0..4 {
                accounts.push(chain.create_funded_account(10u128.pow(19)));
            }
            // A batch of cross-account transfers (conflict-heavy: every
            // pair shares balance keys) submitted before any block runs.
            let mut ids = Vec::new();
            for round in 0..3u64 {
                for (i, (kp, addr)) in accounts.iter().enumerate() {
                    let to = accounts[(i + 1) % accounts.len()].1;
                    let (max_fee, prio) = chain.suggested_fees();
                    let tx = Transaction::transfer(*addr, to, 100 + round as u128, round)
                        .with_fees(max_fee, prio)
                        .signed(kp);
                    ids.push(chain.submit(tx).unwrap());
                }
            }
            let receipts: Vec<String> =
                ids.into_iter().map(|id| format!("{:?}", chain.await_tx(id).unwrap())).collect();
            (receipts, chain.total_burned(), chain.state_digest(), chain.exec_stats())
        };
        let (seq_receipts, seq_burned, seq_digest, seq_stats) = run(ExecutionMode::Sequential);
        let (par_receipts, par_burned, par_digest, par_stats) =
            run(ExecutionMode::Parallel { workers: 4 });
        assert_eq!(seq_receipts, par_receipts);
        assert_eq!(seq_burned, par_burned);
        assert_eq!(seq_digest, par_digest);
        assert_eq!(seq_stats.committed_txs, par_stats.committed_txs);
        assert!(par_stats.parallel_blocks > 0, "parallel path exercised");
        assert!(par_stats.speculative_runs >= par_stats.committed_txs);
    }

    /// Regression: the AVM up-front fee used to burn the full flat fee
    /// even when the sender's balance had been drained below it by an
    /// earlier transaction in the same block, so `total_burned` drifted
    /// from the actual supply change. The fee is now capped at the
    /// balance and supply is conserved exactly.
    #[test]
    fn avm_fee_burn_never_exceeds_debited_balance() {
        let mut chain = presets::devnet_algo().build(14);
        let fee = chain.config.flat_fee;
        let funded = 2 * fee + 10;
        let (alice, alice_addr) = chain.create_funded_account(funded);
        let (_, bob_addr) = chain.create_funded_account(0);
        // tx1 drains alice to 1 base unit (funded - fee - value); tx2's
        // balance check passed at submission, before tx1 executed.
        let tx1 = Transaction::transfer(alice_addr, bob_addr, fee + 9, 0).signed(&alice);
        let tx2 = Transaction::transfer(alice_addr, bob_addr, 0, 1).signed(&alice);
        let id1 = chain.submit(tx1).unwrap();
        let id2 = chain.submit(tx2).unwrap();
        assert!(chain.await_tx(id1).unwrap().status.is_success());
        let r2 = chain.await_tx(id2).unwrap();
        // tx2 could only pay 1 base unit of its flat fee.
        assert_eq!(r2.fee.base_units(), 1);
        assert_eq!(chain.balance(alice_addr), 0);
        // Supply conservation: what alice and bob hold plus what was
        // burned is exactly what was minted.
        assert_eq!(
            chain.balance(alice_addr) + chain.balance(bob_addr) + chain.total_burned(),
            funded,
            "burned more than was debited"
        );
    }

    /// The tip hash a block is produced with, from the ids the chain
    /// already holds, is `Block::hash()` of that block: every block's
    /// parent is its predecessor's hash, and the tip is the last one's.
    #[test]
    fn produced_blocks_chain_by_their_hashes() {
        for (preset, seed) in [(presets::devnet_evm(), 18), (presets::devnet_algo(), 19)] {
            let mut chain = preset.build(seed);
            let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
            let (_, bob_addr) = chain.create_funded_account(0);
            let (max_fee, prio) = chain.suggested_fees();
            for round in 0..3u64 {
                let ids: Vec<TxId> = (0..3)
                    .map(|i| {
                        let tx = Transaction::transfer(alice_addr, bob_addr, 1, 3 * round + i)
                            .with_fees(max_fee, prio)
                            .signed(&alice);
                        chain.submit(tx).unwrap()
                    })
                    .collect();
                for id in ids {
                    assert!(chain.await_tx(id).unwrap().status.is_success());
                }
                chain.step_block();
            }
            let height = chain.height();
            let blocks: Vec<&Block> = (0..=height).map(|h| chain.block(h).unwrap()).collect();
            assert!(blocks.iter().any(|b| b.transactions.len() > 1), "{}", chain.config.name);
            for pair in blocks.windows(2) {
                assert_eq!(pair[1].parent, pair[0].hash(), "block {}", pair[1].number);
            }
            assert_eq!(chain.tip, blocks[height as usize].hash());
        }
    }

    /// Each block's proposer is a stake-weighted draw from a hash chain
    /// seeded by `sha256(b"genesis-randao")`, and the proposer is part of
    /// every block hash. The first proposers and the tip after 64 empty
    /// blocks are pinned, so neither the validator addresses nor the seed
    /// chain can move silently.
    #[test]
    fn proposers_are_registry_validators_drawn_from_the_pinned_seed_chain() {
        use std::collections::HashSet;
        let cases = [
            (
                presets::goerli(),
                [
                    "0x7c049707b92a0a881ae21cf8452b9e975d0020ef",
                    "0xfdc4ffc3dfe6a703ab89b5e03495f4f61d8279d8",
                    "0xa552ee0df603b0b49830efcab56b3d5497fe13ab",
                    "0x04221bb69cfb457d21953d55bf70c27de19ed811",
                    "0xa552ee0df603b0b49830efcab56b3d5497fe13ab",
                    "0xab92e7a23c065ec5985ac9d73cbc0088a57b41c3",
                    "0xe3f45cec9ebb0a154827aada051c505bd8d3dec0",
                    "0xe3f45cec9ebb0a154827aada051c505bd8d3dec0",
                ],
                "0x164e7d02b2245a9ce2ef3433bf17ecb36947847b24abef46b523515bd1ad990e",
            ),
            (
                presets::algorand_testnet(),
                [
                    "0x7c049707b92a0a881ae21cf8452b9e975d0020ef",
                    "0xfdc4ffc3dfe6a703ab89b5e03495f4f61d8279d8",
                    "0xe70a3b36f9bbf7380105da068dcd73e06ac3bbd2",
                    "0x7c049707b92a0a881ae21cf8452b9e975d0020ef",
                    "0xe70a3b36f9bbf7380105da068dcd73e06ac3bbd2",
                    "0x8e9af17c1fd3527c5484a4a27aa19ac11f62a910",
                    "0xfdc4ffc3dfe6a703ab89b5e03495f4f61d8279d8",
                    "0xfdc4ffc3dfe6a703ab89b5e03495f4f61d8279d8",
                ],
                "0x3530b23dbca624b8a7434f7bb03620ae5f7748a7f0b4b1e21f1085ba8cd61735",
            ),
        ];
        for (preset, first_eight, tip) in cases {
            let mut chain = preset.build(7);
            for _ in 0..64 {
                chain.step_block();
            }
            let registry = &chain.registry;
            let validators: HashSet<Address> =
                (0..registry.total_stake()).map(|p| registry.by_stake_point(p).address).collect();
            let proposers: Vec<Address> =
                (1..=64).map(|h| chain.block(h).unwrap().proposer).collect();
            let unknown: Vec<&Address> =
                proposers.iter().filter(|p| !validators.contains(p)).collect();
            assert!(unknown.is_empty(), "{}: proposed by non-validators {unknown:?}", preset.name);
            let distinct: HashSet<&Address> = proposers.iter().collect();
            assert!(distinct.len() > 1, "{}: one validator proposed every block", preset.name);
            let first: Vec<String> = proposers[..8].iter().map(Address::to_string).collect();
            assert_eq!(first, first_eight, "{}", preset.name);
            assert_eq!(chain.tip.to_string(), tip, "{}", preset.name);
        }
    }

    /// Regression: a transfer carrying no recipient used to credit
    /// [`Address::ZERO`] silently; it must revert with a typed status on
    /// the EVM path.
    #[test]
    fn evm_transfer_without_recipient_reverts() {
        let mut chain = presets::devnet_evm().build(15);
        let funded = 10u128.pow(18);
        let (alice, alice_addr) = chain.create_funded_account(funded);
        let (max_fee, prio) = chain.suggested_fees();
        let mut tx = Transaction::transfer(alice_addr, Address::ZERO, 5_000, 0);
        tx.to = None;
        let receipt = chain.submit_and_wait(tx.with_fees(max_fee, prio).signed(&alice)).unwrap();
        assert_eq!(receipt.status, TxStatus::Reverted(crate::executor::MISSING_RECIPIENT.into()));
        assert_eq!(chain.balance(Address::ZERO), 0, "zero address silently credited");
        // The revert still pays for its gas, and only its gas.
        assert_eq!(chain.balance(alice_addr), funded - receipt.fee.base_units());
    }

    /// Same regression on the AVM path: the flat fee is kept, the value
    /// stays with the sender.
    #[test]
    fn avm_transfer_without_recipient_reverts() {
        let mut chain = presets::devnet_algo().build(16);
        let funded = 10_000_000u128;
        let (alice, alice_addr) = chain.create_funded_account(funded);
        let mut tx = Transaction::transfer(alice_addr, Address::ZERO, 5_000, 0);
        tx.to = None;
        let receipt = chain.submit_and_wait(tx.signed(&alice)).unwrap();
        assert_eq!(receipt.status, TxStatus::Reverted(crate::executor::MISSING_RECIPIENT.into()));
        assert_eq!(chain.balance(Address::ZERO), 0, "zero address silently credited");
        assert_eq!(chain.balance(alice_addr), funded - chain.config.flat_fee);
    }

    /// Hot-key block through the whole chain pipeline: even-indexed
    /// senders all credit one shared sink, odd-indexed senders pay
    /// disjoint sinks. The parallel path must agree with the oracle byte
    /// for byte, and only the stale hot transactions re-execute, once
    /// each.
    #[test]
    fn half_hot_block_on_chain_matches_sequential_and_reexecutes_only_the_stale() {
        let hot_sink = Address([9u8; 20]);
        let run = |mode: ExecutionMode| {
            let mut chain = presets::devnet_evm().build(17);
            chain.set_execution_mode(mode);
            let mut ids = Vec::new();
            for i in 0..8u8 {
                let (kp, addr) = chain.create_funded_account(10u128.pow(19));
                let to = if i % 2 == 0 { hot_sink } else { Address([100 + i; 20]) };
                let (max_fee, prio) = chain.suggested_fees();
                let tx = Transaction::transfer(addr, to, 1_000 + u128::from(i), 0)
                    .with_fees(max_fee, prio)
                    .signed(&kp);
                ids.push(chain.submit(tx).unwrap());
            }
            let receipts: Vec<String> =
                ids.into_iter().map(|id| format!("{:?}", chain.await_tx(id).unwrap())).collect();
            (receipts, chain.total_burned(), chain.state_digest(), chain.exec_stats())
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel { workers: 4 });
        assert_eq!(seq.0, par.0);
        assert_eq!((seq.1, seq.2), (par.1, par.2));
        // One block: hot transactions 2, 4 and 6 were speculated against
        // a sink balance that tx 0 and each other have since moved, and
        // each re-executes once; the cold ones commit their first run.
        let stats = par.3;
        assert_eq!(stats.conflicts, 3, "{stats:?}");
        assert_eq!(stats.speculative_runs, 8 + 3, "only conflicts re-execute: {stats:?}");
        assert_eq!(stats.revalidations, 0, "{stats:?}");
    }

    #[test]
    fn congestion_raises_base_fee() {
        let mut preset = presets::goerli();
        preset.config.congestion = CongestionModel::new(0.95, 0.02);
        let mut chain = preset.build(8);
        let initial = chain.base_fee();
        chain.advance_to(chain.config.block_ms * 50);
        assert!(chain.base_fee() > initial, "{} !> {}", chain.base_fee(), initial);
    }

    #[test]
    fn goerli_latency_is_variable_algorand_is_not() {
        let mut goerli = presets::goerli().build(9);
        let mut algo = presets::algorand_testnet().build(9);
        let mut goerli_lat = Vec::new();
        let mut algo_lat = Vec::new();
        for i in 0..10u64 {
            let (kp, addr) = goerli.create_funded_account(10u128.pow(19));
            let (max_fee, prio) = goerli.suggested_fees();
            let tx = Transaction::transfer(addr, Address::ZERO, 1, 0)
                .with_fees(max_fee, prio)
                .signed(&kp);
            goerli_lat.push(goerli.submit_and_wait(tx).unwrap().latency_ms() as f64);

            let (kp, addr) = algo.create_funded_account(10_000_000);
            let tx = Transaction::transfer(addr, Address::ZERO, 1, 0).signed(&kp);
            algo_lat.push(algo.submit_and_wait(tx).unwrap().latency_ms() as f64);
            let _ = i;
        }
        let std = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(std(&goerli_lat) > std(&algo_lat), "goerli should be noisier");
    }
}
