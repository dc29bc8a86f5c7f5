//! The fully wired proof-of-location deployment: chain + hypercube +
//! DFS + DID registry + actors, with the per-chain interaction scripts
//! whose latencies Chapter 5 measures.
//!
//! Those scripts (the "connector protocols") are data: `connector`
//! holds the deploy and attach step lists of each VM, `run_script` is
//! the one loop that executes a list and meters it into an
//! [`OpRecord`], and `submit_api` is the one place a call is encoded
//! for the chain that will run it. Funding, verifying and closing are
//! one-call scripts on every chain.

use crate::actors::{CertificationAuthority, Prover, Witness};
use crate::contract::{pol_program, MAX_USERS, POSITION_CAPACITY};
use crate::factory::Factory;
use crate::proof::{ProofRequest, SubmittedEntry, ENTRY_CAPACITY};
use crate::PolError;
use pol_chainsim::{AccessQuery, Chain, GasQuery, VmKind};
use pol_crypto::ed25519::Keypair;
use pol_dfs::{Cid, DfsNetwork, PeerId};
use pol_did::{Did, DidRegistry, Identity};
use pol_geo::{olc, Coordinates, OlcCode};
use pol_hypercube::Hypercube;
use pol_lang::backend::AbiValue;
use pol_ledger::{Address, Amount, ContractId, Receipt, Transaction, TxId, TxStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// Handle to a registered prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProverId(pub usize);

/// Handle to a registered witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WitnessId(pub usize);

/// What kind of chain operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// First prover in an area: deploy + insert.
    Deploy,
    /// Subsequent prover: attach + insert.
    Attach,
    /// Verifier funds the contract.
    Fund,
    /// Verifier validates one prover.
    Verify,
    /// Contract closure.
    Close,
}

/// One measured chain interaction (the unit of Figs. 5.2–5.5).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operation kind.
    pub kind: OpKind,
    /// Acting user's index (prover id, or usize::MAX for the verifier).
    pub user: usize,
    /// Total wall-clock latency (all transactions of the script), ms.
    pub latency_ms: u64,
    /// Total fees paid across the script.
    pub fee: Amount,
    /// Number of transactions in the script.
    pub txs: usize,
}

/// Outcome of a report submission.
#[derive(Debug, Clone)]
pub struct SubmissionOutcome {
    /// The area the report belongs to.
    pub area: OlcCode,
    /// The area's contract.
    pub contract: ContractId,
    /// Whether this submission deployed the contract or attached.
    pub kind: OpKind,
    /// End-to-end latency of the chain script, ms.
    pub latency_ms: u64,
    /// Fees paid.
    pub fee: Amount,
    /// The report's CID.
    pub cid: Cid,
}

/// Tunables of a deployment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Hypercube dimensionality r.
    pub hypercube_dims: u8,
    /// Reward per verified prover, base units.
    pub reward: u128,
    /// When set, deploy the §2.8 variant contract that also rewards the
    /// attesting witness with this many base units per verification.
    pub witness_reward: Option<u128>,
    /// Seats per area contract.
    pub max_users: u64,
    /// Initial wallet funding, base units.
    pub initial_funds: u128,
    /// RNG seed (drives identities, challenges and chain noise).
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            hypercube_dims: 8,
            reward: 1_000_000,
            witness_reward: None,
            max_users: MAX_USERS,
            initial_funds: 10u128.pow(21),
            seed: 1,
        }
    }
}

/// One transaction of a connector script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Publish the sender's DID digest to the DID-generation contract.
    Anchor,
    /// Create the area's EVM contract from the factory template.
    CreateContract,
    /// Create the area's AVM application from the factory template.
    CreateApp,
    /// Pay this many base units into the contract's account.
    Pay(u128),
    /// Call this API of the contract (Fig. 3.1: a transaction of its own,
    /// also for the creator).
    Call(&'static str),
}

/// Minimum-balance requirement for one box entry, µAlgo
/// (2500 + 400 × (key + value bytes), per the Algorand spec).
const BOX_MBR: u128 = 2_500 + 400 * (16 + ENTRY_CAPACITY as u128);

/// The connector protocols: the `(deploy, attach)` scripts a prover
/// runs on chains of one VM. Algorand "executed more transactions … in
/// the deployment phase" (§5.1.5) because an application's account is
/// funded and opted into by explicit payments.
fn connector(vm: VmKind) -> (&'static [Step], &'static [Step]) {
    use Step::{Anchor, Call, CreateApp, CreateContract, Pay};
    match vm {
        VmKind::Evm => {
            (&[Anchor, CreateContract, Call("insert_data")], &[Anchor, Call("insert_data")])
        }
        VmKind::Avm => (
            &[
                Anchor,
                CreateApp,
                Pay(100_000),    // account minimum balance
                Pay(28_500 * 7), // global-state MBR
                Pay(100_000),    // extra program page
                Pay(0),          // opt-in
                Pay(BOX_MBR),
                Call("insert_data"),
            ],
            &[Anchor, Pay(0), Pay(BOX_MBR), Call("insert_data")],
        ),
    }
}

/// What the steps of one script send.
#[derive(Default)]
struct Payload<'a> {
    /// `Anchor`: the sender's DID digest.
    did_digest: u64,
    /// `Create*`: the constructor arguments.
    ctor: &'a [AbiValue],
    /// `Call`: the API's arguments and the value attached to it.
    args: &'a [AbiValue],
    value: u128,
}

/// The wired system.
pub struct PolSystem {
    chain: Chain,
    /// The off-chain location index.
    pub hypercube: Hypercube,
    /// The distributed file store.
    pub dfs: DfsNetwork,
    /// The DID registry (verifiable data registry).
    pub did_registry: DidRegistry,
    ca: CertificationAuthority,
    factory: Factory,
    config: SystemConfig,
    provers: Vec<Prover>,
    prover_peers: Vec<PeerId>,
    witnesses: Vec<Witness>,
    /// The designated verifier's wallet keys; its witness list is the
    /// Certification Authority's.
    verifier: Option<Keypair>,
    rng: StdRng,
    /// Sink address standing in for the DID-generation contract the
    /// anchor transactions reference (§2.4's "first smart contract").
    did_anchor: Address,
    /// Each area's entries awaiting the verifier, by DID digest: the
    /// order it submits them in. The area's contract is the factory's
    /// record.
    pending: HashMap<String, BTreeMap<u64, (SubmittedEntry, Did)>>,
    ops: Vec<OpRecord>,
}

impl std::fmt::Debug for PolSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolSystem")
            .field("chain", &self.chain.config.name)
            .field("provers", &self.provers.len())
            .field("witnesses", &self.witnesses.len())
            .field("areas", &self.factory.instances().len())
            .finish()
    }
}

impl PolSystem {
    /// Wires a system over a chain.
    ///
    /// # Panics
    ///
    /// Panics if the proof-of-location program fails to compile — a
    /// build-level invariant.
    pub fn new(chain: Chain, config: SystemConfig) -> PolSystem {
        let program = if config.witness_reward.is_some() {
            crate::contract::pol_program_v2()
        } else {
            pol_program()
        };
        let factory = Factory::new(program).expect("the PoL program compiles");
        let rng = StdRng::seed_from_u64(config.seed);
        let hypercube = Hypercube::new(config.hypercube_dims);
        PolSystem {
            chain,
            hypercube,
            dfs: DfsNetwork::new(),
            did_registry: DidRegistry::new(),
            ca: CertificationAuthority::new(Identity::from_seed(0xCA)),
            factory,
            config,
            provers: Vec::new(),
            prover_peers: Vec::new(),
            witnesses: Vec::new(),
            verifier: None,
            rng,
            did_anchor: Address([0xD1; 20]),
            pending: HashMap::new(),
            ops: Vec::new(),
        }
    }

    /// The underlying chain (inspection, time control).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable chain access (advanced scenarios, fault injection).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// The factory holding the compiled template.
    pub fn factory(&self) -> &Factory {
        &self.factory
    }

    /// Recorded chain operations, in execution order.
    pub fn operations(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Registers a prover at the given coordinates: identity generation,
    /// DID registration, wallet funding and a DFS peer.
    ///
    /// # Errors
    ///
    /// Invalid coordinates or DID registration failures.
    pub fn register_prover(&mut self, lat: f64, lon: f64) -> Result<ProverId, PolError> {
        let position = Coordinates::new(lat, lon)?;
        let identity = Identity::generate(&mut self.rng);
        self.did_registry.register_identity(&identity, self.chain.now_ms())?;
        let prover = Prover::new(identity, position);
        self.chain.fund(prover.wallet, self.config.initial_funds);
        self.provers.push(prover);
        self.prover_peers.push(self.dfs.create_peer());
        Ok(ProverId(self.provers.len() - 1))
    }

    /// Registers and credentials a witness at the given coordinates.
    ///
    /// # Errors
    ///
    /// Invalid coordinates or DID registration failures.
    pub fn register_witness(&mut self, lat: f64, lon: f64) -> Result<WitnessId, PolError> {
        let position = Coordinates::new(lat, lon)?;
        let identity = Identity::generate(&mut self.rng);
        self.did_registry.register_identity(&identity, self.chain.now_ms())?;
        let credential = self.ca.enroll_witness(&identity, self.chain.now_ms());
        self.witnesses.push(Witness::new(identity, position, credential));
        Ok(WitnessId(self.witnesses.len() - 1))
    }

    /// A prover's view (read-only).
    ///
    /// # Errors
    ///
    /// [`PolError::Unknown`] for an unregistered id.
    pub fn prover(&self, id: ProverId) -> Result<&Prover, PolError> {
        self.provers.get(id.0).ok_or_else(|| PolError::Unknown(format!("prover {}", id.0)))
    }

    /// A witness's identity (read-only).
    ///
    /// # Errors
    ///
    /// [`PolError::Unknown`] for an unregistered id.
    pub fn witness_identity(&self, id: WitnessId) -> Result<&Identity, PolError> {
        self.witnesses
            .get(id.0)
            .map(|w| &w.identity)
            .ok_or_else(|| PolError::Unknown(format!("witness {}", id.0)))
    }

    /// The area code for a prover's current position.
    ///
    /// # Errors
    ///
    /// Unknown prover or encoding failure.
    pub(crate) fn area_of(&self, id: ProverId) -> Result<OlcCode, PolError> {
        Ok(olc::encode(self.prover(id)?.position, 10)?)
    }

    /// Runs the full submission flow for one report: DFS upload, witness
    /// attestation (with DID challenge–response and proximity check),
    /// hypercube lookup, and the per-chain deploy-or-attach script.
    ///
    /// # Errors
    ///
    /// Any stage's failure; nothing is submitted on-chain when the proof
    /// cannot be obtained.
    pub fn submit_report(
        &mut self,
        prover_id: ProverId,
        witness_id: WitnessId,
        report: Vec<u8>,
    ) -> Result<SubmissionOutcome, PolError> {
        let peer = *self
            .prover_peers
            .get(prover_id.0)
            .ok_or_else(|| PolError::Unknown(format!("prover {}", prover_id.0)))?;
        if witness_id.0 >= self.witnesses.len() {
            return Err(PolError::Unknown(format!("witness {}", witness_id.0)));
        }
        // 1. Upload the report; only its CID goes on-chain.
        let cid = self.dfs.add(peer, report)?;

        // 2. Witness attestation.
        let area = self.area_of(prover_id)?;
        let (request, entry) = {
            let witness = &mut self.witnesses[witness_id.0];
            let prover = &self.provers[prover_id.0];
            let nonce = witness.issue_nonce();
            let request = ProofRequest {
                did: prover.identity.did.clone(),
                olc: area.clone(),
                nonce,
                cid: cid.clone(),
                wallet: prover.wallet,
            };
            let proof = witness.attest(
                &mut self.rng,
                &self.did_registry,
                request.clone(),
                &prover.identity,
                &prover.position,
            )?;
            (request, SubmittedEntry::from_proof(&proof))
        };

        // 3. Hypercube lookup, then the chain script.
        let existing = self.hypercube.find_contract(&area)?;
        let keys = self.provers[prover_id.0].wallet_keys().clone();
        let did_digest = request.did.numeric_id();
        let ctor = self.constructor_args(&request);
        let payload = Payload {
            did_digest,
            ctor: &ctor,
            args: &[AbiValue::Bytes(entry.to_bytes()), AbiValue::Word(u128::from(did_digest))],
            value: 0,
        };
        let (deploy, attach) = connector(self.chain.config.vm);
        let (kind, steps, known) = match existing {
            None => (OpKind::Deploy, deploy, None),
            Some(_) => (OpKind::Attach, attach, Some(self.area_contract(&area)?)),
        };
        let (contract, op) = self.run_script(kind, prover_id.0, &keys, known, steps, &payload)?;
        if known.is_none() {
            self.hypercube.register_contract(&area, contract.to_string())?;
            let deployed_ms = self.chain.now_ms();
            self.factory.track(contract, area.as_str().to_string(), deployed_ms);
        }
        // Cache the pending entry for the verifier (recovered from the
        // insert transaction's log in a real deployment).
        self.pending
            .entry(area.as_str().to_string())
            .or_default()
            .insert(did_digest, (entry, request.did.clone()));
        let outcome = SubmissionOutcome {
            area,
            contract,
            kind: op.kind,
            latency_ms: op.latency_ms,
            fee: op.fee,
            cid,
        };
        self.ops.push(op);
        Ok(outcome)
    }

    fn area_contract(&self, area: &OlcCode) -> Result<ContractId, PolError> {
        self.factory
            .instance_for(area.as_str())
            .map(|instance| instance.contract)
            .ok_or_else(|| PolError::Unknown(format!("area {area}")))
    }

    fn constructor_args(&self, request: &ProofRequest) -> Vec<AbiValue> {
        let mut position = request.olc.as_str().as_bytes().to_vec();
        position.truncate(POSITION_CAPACITY);
        let mut args = vec![
            AbiValue::Word(u128::from(request.did.numeric_id())),
            AbiValue::Bytes(position),
            AbiValue::Word(u128::from(self.config.max_users)),
            AbiValue::Word(self.config.reward),
        ];
        if let Some(witness_reward) = self.config.witness_reward {
            args.push(AbiValue::Word(witness_reward));
        }
        args
    }

    /// Runs `steps` as `keys`' transactions, each awaited before the
    /// next, against `contract` (or the one a `Create*` step makes), and
    /// meters them: the record's latency, fee and transaction count are
    /// the whole script's.
    fn run_script(
        &mut self,
        kind: OpKind,
        user: usize,
        keys: &Keypair,
        mut contract: Option<ContractId>,
        steps: &[Step],
        payload: &Payload<'_>,
    ) -> Result<(ContractId, OpRecord), PolError> {
        let start_ms = self.chain.now_ms();
        let fee = Amount::zero(self.chain.config.currency);
        let mut op = OpRecord { kind, user, latency_ms: 0, fee, txs: 0 };
        for step in steps {
            let receipt = match *step {
                Step::Anchor => {
                    let data = payload.did_digest.to_be_bytes().to_vec();
                    self.transfer(keys, self.did_anchor, 0, data)?
                }
                Step::CreateContract => {
                    let init = self.factory.evm_init_code(payload.ctor)?;
                    self.chain.deploy_evm(keys, init, 3_000_000)?
                }
                Step::CreateApp => {
                    let args = self.factory.avm_create_args(payload.ctor)?;
                    let program = self.factory.compiled().avm.program.clone();
                    self.chain.deploy_app(keys, program, args)?
                }
                Step::Pay(amount) => {
                    let account = match contract.expect("scripts create before they pay") {
                        ContractId::Evm(address) => address,
                        ContractId::App(app_id) => pol_avm::Avm::app_address(app_id),
                    };
                    self.transfer(keys, account, amount, Vec::new())?
                }
                Step::Call(api) => {
                    let contract = contract.expect("scripts create before they call");
                    let id = self.submit_api(keys, contract, api, payload.args, payload.value)?;
                    expect_success(self.chain.await_tx(id)?)?
                }
            };
            if matches!(step, Step::CreateContract | Step::CreateApp) {
                let created = receipt.created.ok_or_else(|| {
                    PolError::Ledger(pol_ledger::LedgerError::ExecutionFailed(format!(
                        "contract creation rejected: {:?}",
                        receipt.status
                    )))
                })?;
                self.register_static_resolvers(created);
                contract = Some(created);
            }
            op.fee = op.fee.checked_add(&receipt.fee).expect("same currency");
            op.txs += 1;
        }
        op.latency_ms = self.chain.now_ms().saturating_sub(start_ms);
        Ok((contract.expect("every script names or creates its contract"), op))
    }

    /// A plain payment from `keys`' wallet, awaited.
    fn transfer(
        &mut self,
        keys: &Keypair,
        to: Address,
        value: u128,
        data: Vec<u8>,
    ) -> Result<Receipt, PolError> {
        let from = Address::from_public_key(&keys.public);
        let (max_fee, prio) = self.chain.suggested_fees();
        let mut tx = Transaction::transfer(from, to, value, self.chain.next_nonce(from))
            .with_fees(max_fee, prio);
        tx.data = data;
        Ok(self.chain.submit_and_wait(tx.signed(keys))?)
    }

    /// Encodes `api(args)` for the VM `contract` lives on and submits the
    /// call without awaiting it: the only place that knows how a chain
    /// is called.
    fn submit_api(
        &mut self,
        keys: &Keypair,
        contract: ContractId,
        api: &str,
        args: &[AbiValue],
        value: u128,
    ) -> Result<TxId, PolError> {
        let compiled = self.factory.compiled();
        Ok(match contract {
            ContractId::Evm(_) => {
                let data = compiled.evm.encode_call(api, args)?;
                self.chain.submit_call_evm(keys, contract, data, value, 1_000_000)?
            }
            ContractId::App(app_id) => {
                let args = compiled.avm.encode_call(api, args)?;
                self.chain.submit_call_app(keys, app_id, args, value)?
            }
        })
    }

    /// Hands the template's static access summaries and worst-case gas
    /// certificates to the chain. The system's chain keeps the default
    /// sequential executor, so by default the summaries and certificates
    /// feed the commit-time access and gas sanitizers (on by default in
    /// debug builds) and the certificates price admission; only where a
    /// caller selects a parallel execution mode do the summaries also
    /// lane-partition calls and the certificates seed the scheduler's
    /// gas estimates.
    fn register_static_resolvers(&mut self, contract: ContractId) {
        let summaries = self.factory.summaries();
        let bounds = self.factory.gas_bounds();
        match contract {
            ContractId::Evm(addr) => {
                self.chain.register_access_resolver(
                    contract,
                    Box::new(move |q: &AccessQuery<'_>| {
                        summaries.resolve_evm_call(addr, q.sender, q.value, q.calldata)
                    }),
                );
                self.chain.register_gas_resolver(
                    contract,
                    Box::new(move |q: &GasQuery<'_>| bounds.resolve_evm_call(q.calldata)),
                );
            }
            ContractId::App(app_id) => {
                self.chain.register_access_resolver(
                    contract,
                    Box::new(move |q: &AccessQuery<'_>| {
                        let payment = u64::try_from(q.value).ok()?;
                        summaries.resolve_app_call(app_id, q.sender, payment, q.app_args)
                    }),
                );
                self.chain.register_gas_resolver(
                    contract,
                    Box::new(move |q: &GasQuery<'_>| bounds.resolve_app_call(q.app_args)),
                );
            }
        }
    }

    /// The verifier's wallet keys. The first use designates the verifier:
    /// a fresh identity with a funded wallet.
    fn verifier_keys(&mut self) -> Keypair {
        let keys = self.verifier.get_or_insert_with(|| {
            let keys = Identity::generate(&mut self.rng).signing;
            self.chain.fund(Address::from_public_key(&keys.public), self.config.initial_funds);
            keys
        });
        keys.clone()
    }

    /// The verifier pass over one area (§4.1.5): fund the contract, then
    /// for each pending entry validate the proof off-chain (the
    /// Certification Authority's witness list, digest reconstruction from
    /// the submitter's DID, report availability on the DFS) and, when
    /// valid, call the contract's `verify` API — which re-checks the
    /// commitment, pays the reward and deletes the entry — and finally
    /// insert the CID into the hypercube ("garbage-in"). Returns how many
    /// provers were verified.
    ///
    /// Every submitted `verify` is awaited, and each settles its entry: a
    /// success is paid and listed, a revert (the entry was already taken,
    /// say) is refused. Either way the entry leaves the pending set, and
    /// one entry's revert leaves the rest of the pass standing. An entry
    /// that fails the off-chain checks is never submitted and stays
    /// pending.
    ///
    /// # Errors
    ///
    /// Chain or routing failures; invalid proofs and reverted `verify`
    /// calls are *skipped*, not errors.
    pub fn run_verifier(&mut self, area: &OlcCode) -> Result<usize, PolError> {
        let keys = self.verifier_keys();
        let contract = self.area_contract(area)?;
        let pending: Vec<(u64, SubmittedEntry, Did)> = self
            .pending
            .get(area.as_str())
            .into_iter()
            .flatten()
            .map(|(k, (e, d))| (*k, e.clone(), d.clone()))
            .collect();
        if pending.is_empty() {
            return Ok(0);
        }

        // Fund the contract with enough for every pending reward.
        let budget =
            (self.config.reward + self.config.witness_reward.unwrap_or(0)) * pending.len() as u128;
        let fund = Payload { args: &[AbiValue::Word(budget)], value: budget, ..Payload::default() };
        let script = &[Step::Call("insert_money")];
        let (_, op) =
            self.run_script(OpKind::Fund, usize::MAX, &keys, Some(contract), script, &fund)?;
        self.ops.push(op);

        // Submit the whole verify storm before awaiting anything: the
        // burst lands in as few blocks as possible instead of paying one
        // block per prover. (The chain executes them in order; only a
        // caller that selects a parallel execution mode has them
        // speculated concurrently.)
        let mut awaiting = Vec::new();
        for (did_digest, entry, did) in pending {
            // Off-chain validation first (garbage-in filter), and the
            // report must actually be retrievable.
            if entry.verify_against(&did, area, self.ca.witness_list()).is_err()
                || self.dfs.get(&entry.cid).is_err()
            {
                continue;
            }
            let start = self.chain.now_ms();
            let mut verify_args =
                vec![AbiValue::Word(u128::from(did_digest)), AbiValue::Address(entry.wallet)];
            if self.config.witness_reward.is_some() {
                // §2.8: the witness's wallet, derived from the attesting
                // key carried by the entry itself.
                verify_args.push(AbiValue::Address(Address::from_public_key(&entry.witness)));
            }
            verify_args.push(AbiValue::Bytes(entry.to_bytes()));
            let id = self.submit_api(&keys, contract, "verify", &verify_args, 0)?;
            awaiting.push((did_digest, entry, id, start));
        }

        let mut verified = 0usize;
        for (did_digest, entry, id, start) in awaiting {
            let receipt = self.chain.await_tx(id)?;
            // Paid or refused, the contract has settled this entry.
            self.pending.get_mut(area.as_str()).expect("entry was pending").remove(&did_digest);
            if !receipt.status.is_success() {
                continue;
            }
            self.hypercube.append_cid(area, entry.cid.as_str())?;
            verified += 1;
            self.ops.push(OpRecord {
                kind: OpKind::Verify,
                user: usize::MAX,
                latency_ms: self.chain.now_ms().saturating_sub(start),
                fee: receipt.fee,
                txs: 1,
            });
        }
        Ok(verified)
    }

    /// Closes an area's contract after verification, returning residual
    /// funds to the creator.
    ///
    /// # Errors
    ///
    /// Chain failures, or a revert when phases are still active.
    pub fn close_area(&mut self, area: &OlcCode) -> Result<(), PolError> {
        let keys = self.verifier_keys();
        let contract = self.area_contract(area)?;
        let script = &[Step::Call("closeContract")];
        let (_, op) = self.run_script(
            OpKind::Close,
            usize::MAX,
            &keys,
            Some(contract),
            script,
            &Payload::default(),
        )?;
        self.ops.push(op);
        Ok(())
    }
}

fn expect_success(receipt: Receipt) -> Result<Receipt, PolError> {
    match &receipt.status {
        TxStatus::Success => Ok(receipt),
        TxStatus::Reverted(msg) => Err(PolError::Ledger(pol_ledger::LedgerError::ExecutionFailed(
            format!("reverted: {msg}"),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_chainsim::presets;

    fn devnet_system_sized(vm: VmKind, max_users: u64) -> PolSystem {
        let preset = match vm {
            VmKind::Evm => presets::devnet_evm(),
            VmKind::Avm => presets::devnet_algo(),
        };
        let config = SystemConfig { max_users, ..SystemConfig::default() };
        PolSystem::new(preset.build(3), config)
    }

    fn devnet_system(vm: VmKind) -> PolSystem {
        devnet_system_sized(vm, MAX_USERS)
    }

    fn full_flow(vm: VmKind) {
        // Two provers fill the area's two seats, opening verification.
        let mut system = devnet_system_sized(vm, 2);
        let p1 = system.register_prover(44.4949, 11.3426).unwrap();
        let p2 = system.register_prover(44.49491, 11.34261).unwrap();
        let w = system.register_witness(44.49492, 11.34262).unwrap();

        let out1 = system.submit_report(p1, w, b"hole in the road".to_vec()).unwrap();
        assert_eq!(out1.kind, OpKind::Deploy);
        let out2 = system.submit_report(p2, w, b"abandoned waste".to_vec()).unwrap();
        assert_eq!(out2.kind, OpKind::Attach);
        assert_eq!(out1.contract, out2.contract);
        assert_eq!(out1.area, out2.area);

        // Hypercube knows the contract.
        assert_eq!(
            system.hypercube.find_contract(&out1.area).unwrap(),
            Some(out1.contract.to_string())
        );

        // Verify both; provers get rewarded.
        let wallet1 = system.prover(p1).unwrap().wallet;
        let before = system.chain().balance(wallet1);
        let verified = system.run_verifier(&out1.area).unwrap();
        assert_eq!(verified, 2);
        let after = system.chain().balance(wallet1);
        assert!(after > before, "reward paid: {before} -> {after}");

        // Verified CIDs are in the hypercube.
        let record = system.hypercube.record(&out1.area).unwrap().unwrap();
        assert_eq!(record.cids.len(), 2);
        assert!(record.cids.contains(&out1.cid.to_string()));
    }

    #[test]
    fn full_flow_on_evm() {
        full_flow(VmKind::Evm);
    }

    #[test]
    fn full_flow_on_avm() {
        full_flow(VmKind::Avm);
    }

    #[test]
    fn deploy_tx_counts_match_connector_protocols() {
        for (vm, deploy_txs, attach_txs) in [(VmKind::Evm, 3, 2), (VmKind::Avm, 8, 4)] {
            let mut system = devnet_system(vm);
            let p1 = system.register_prover(44.4949, 11.3426).unwrap();
            let p2 = system.register_prover(44.49491, 11.34261).unwrap();
            let w = system.register_witness(44.49492, 11.34262).unwrap();
            system.submit_report(p1, w, b"r1".to_vec()).unwrap();
            system.submit_report(p2, w, b"r2".to_vec()).unwrap();
            let ops = system.operations();
            assert_eq!(ops[0].kind, OpKind::Deploy);
            assert_eq!(ops[0].txs, deploy_txs, "{vm:?} deploy txs");
            assert_eq!(ops[1].kind, OpKind::Attach);
            assert_eq!(ops[1].txs, attach_txs, "{vm:?} attach txs");
            // The table and the run cannot disagree.
            let (deploy, attach) = connector(vm);
            assert_eq!((deploy.len(), attach.len()), (deploy_txs, attach_txs), "{vm:?} scripts");
        }
    }

    #[test]
    fn unattested_report_never_reaches_chain() {
        let mut system = devnet_system(VmKind::Avm);
        let p = system.register_prover(44.4949, 11.3426).unwrap();
        // Witness is in Milan; prover claims Bologna.
        let w = system.register_witness(45.4642, 9.19).unwrap();
        let ops_before = system.operations().len();
        let err = system.submit_report(p, w, b"fake".to_vec()).unwrap_err();
        assert!(matches!(err, PolError::OutOfRange { .. }));
        assert_eq!(system.operations().len(), ops_before);
    }

    #[test]
    fn an_area_without_a_contract_is_unknown() {
        let mut system = devnet_system(VmKind::Evm);
        let area = olc::encode(Coordinates::new(44.4949, 11.3426).unwrap(), 10).unwrap();
        assert!(matches!(system.run_verifier(&area), Err(PolError::Unknown(_))));
        assert!(matches!(system.close_area(&area), Err(PolError::Unknown(_))));
    }

    /// One seeded campaign filling all four seats, so both phases
    /// complete: reports, the verifier pass and the close.
    fn four_prover_campaign(vm: VmKind) -> PolSystem {
        let mut system = devnet_system(vm);
        let base = (44.4949, 11.3426);
        let w = system.register_witness(base.0, base.1 + 0.00001).unwrap();
        let mut area = None;
        for i in 0..4 {
            let p = system.register_prover(base.0 + 0.000001 * i as f64, base.1).unwrap();
            area = Some(system.submit_report(p, w, b"report".to_vec()).unwrap().area);
        }
        let area = area.unwrap();
        assert_eq!(system.run_verifier(&area).unwrap(), 4);
        system.close_area(&area).unwrap();
        system
    }

    #[test]
    fn close_returns_residue_to_creator() {
        four_prover_campaign(VmKind::Avm);
    }

    #[test]
    fn verifier_submits_in_a_fixed_order() {
        let block_hashes = |vm| {
            let system = four_prover_campaign(vm);
            (0..).map_while(|h| system.chain().block(h)).map(|b| b.hash()).collect::<Vec<_>>()
        };
        for vm in [VmKind::Evm, VmKind::Avm] {
            assert_eq!(block_hashes(vm), block_hashes(vm), "{vm:?}");
        }
    }
}
