//! Adversarial scenarios: every way the paper says the system must stop
//! a cheater, exercised end to end through the public API.

use proof_of_location as pol;

use pol::chainsim::explorer::contract_history;
use pol::chainsim::presets;
use pol::core::proof::{LocationProof, ProofRequest, SubmittedEntry};
use pol::core::system::{PolSystem, ProverId, SystemConfig, WitnessId};
use pol::core::PolError;
use pol::crypto::{ed25519::Keypair, sha256};
use pol::dfs::Cid;
use pol::did::Identity;
use pol::geo::{olc, Coordinates};
use pol::ledger::{Address, ContractId};
use std::collections::BTreeSet;

const BASE: (f64, f64) = (44.4949, 11.3426);

fn system_with(max_users: u64, seed: u64) -> PolSystem {
    let config = SystemConfig { max_users, seed, ..SystemConfig::default() };
    PolSystem::new(presets::devnet_algo().build(seed), config)
}

/// Adversary `i`: keys `sha256("adversary" ‖ i)`, funded with `amount`.
/// Every protocol participant's keys come from a generator seeded with
/// the system's seed, and so do the chain faucet's, so a faucet account
/// can be a participant; a labelled hash cannot.
fn adversary(system: &mut PolSystem, i: u8, amount: u128) -> (Keypair, Address) {
    let keys = Keypair::from_seed(&sha256(&[&b"adversary"[..], &[i]].concat()));
    let wallet = Address::from_public_key(&keys.public);
    system.chain_mut().fund(wallet, amount);
    (keys, wallet)
}

/// Asserts that `outsider` is none of the wallets the protocol gave a
/// part in `contract`'s area: a prover's, a witness's, the creator's
/// (the deployment's sender) or the verifier's (the one sender of every
/// call from history row `verifier_rows` on).
fn assert_outsider(
    system: &PolSystem,
    outsider: Address,
    contract: ContractId,
    provers: &[ProverId],
    witnesses: &[WitnessId],
    verifier_rows: usize,
) {
    let name = &system.chain().config.name;
    let history = contract_history(system.chain(), contract);
    assert_eq!(history[0].method, "Contract Creation", "{name}");
    let verifiers: BTreeSet<Address> = history[verifier_rows..].iter().map(|r| r.from).collect();
    assert_eq!(verifiers.len(), 1, "{name}: one verifier");
    let mut known: BTreeSet<Address> =
        provers.iter().map(|&p| system.prover(p).unwrap().wallet).collect();
    known.extend(
        witnesses.iter().map(|&w| {
            Address::from_public_key(&system.witness_identity(w).unwrap().signing.public)
        }),
    );
    known.insert(history[0].from);
    known.extend(verifiers);
    assert!(!known.contains(&outsider), "{name}: the adversary is a participant");
}

#[test]
fn gps_spoofing_is_stopped_by_radio_range() {
    // The Uber-style attack (§1.1): the prover reports coordinates far
    // from where they are. The witness only hears devices in radio
    // range, so the attestation fails.
    let mut system = system_with(1, 1);
    let liar = system.register_prover(45.4642, 9.19).unwrap(); // claims Milan
    let witness = system.register_witness(BASE.0, BASE.1).unwrap(); // is in Bologna
    let err = system.submit_report(liar, witness, b"fake".to_vec()).unwrap_err();
    assert!(matches!(err, PolError::OutOfRange { .. }));
    assert_eq!(system.operations().len(), 0, "nothing reached the chain");
}

#[test]
fn unlisted_witness_is_filtered_by_garbage_in() {
    // A proof signed by a witness the Certification Authority never
    // enrolled is rejected by the verifier's off-chain pass, so the CID
    // never enters the hypercube.
    let prover = Identity::from_seed(10);
    let rogue_witness = Identity::from_seed(11);
    let area = olc::encode(Coordinates::new(BASE.0, BASE.1).unwrap(), 10).unwrap();
    let request = ProofRequest {
        did: prover.did.clone(),
        olc: area.clone(),
        nonce: 0,
        cid: Cid::for_content(b"spam"),
        wallet: pol::ledger::Address([9; 20]),
    };
    let proof = LocationProof::issue(&rogue_witness.signing, request);
    let entry = SubmittedEntry::from_proof(&proof);
    // Whitelist contains someone else entirely.
    let lists = vec![Identity::from_seed(12).signing.public];
    assert!(matches!(entry.verify_against(&prover.did, &area, &lists), Err(PolError::BadProof(_))));
}

#[test]
fn tampered_entry_is_rejected_on_chain() {
    // Submit honestly, then have the verifier present altered data: the
    // contract recomputes the commitment and reverts the verify call.
    let mut system = system_with(1, 2);
    let p = system.register_prover(BASE.0, BASE.1).unwrap();
    let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
    let out = system.submit_report(p, w, b"honest report".to_vec()).unwrap();

    // Forge: different CID (i.e. different report) under the same DID.
    let did_digest = system.prover(p).unwrap().identity.did.numeric_id();
    let compiled = system.factory().compiled().avm.clone();
    let app_id = out.contract.as_app().unwrap();
    let mut forged_bytes = vec![0u8; pol::core::proof::ENTRY_CAPACITY];
    forged_bytes[0] = 0xff;
    let args = compiled
        .encode_call(
            "verify",
            &[
                pol::lang::backend::AbiValue::Word(u128::from(did_digest)),
                pol::lang::backend::AbiValue::Address(pol::ledger::Address([7; 20])),
                pol::lang::backend::AbiValue::Bytes(forged_bytes),
            ],
        )
        .unwrap();
    let (attacker, attacker_wallet) = adversary(&mut system, 1, 10_000_000);
    let receipt = system.chain_mut().call_app(&attacker, app_id, args, 0).unwrap();
    assert!(!receipt.status.is_success(), "commitment mismatch must reject: {:?}", receipt.status);

    // The honest entry is still the verifier's to pay.
    let verifier_rows = contract_history(system.chain(), out.contract).len();
    assert_eq!(system.run_verifier(&out.area).unwrap(), 1);
    assert_outsider(&system, attacker_wallet, out.contract, &[p], &[w], verifier_rows);
}

#[test]
fn duplicate_did_insert_rejected_by_contract() {
    // One DID, one pending entry: a second insert under the same DID
    // reverts (`Require(!MapContains(did))`).
    let mut system = system_with(4, 3);
    let p = system.register_prover(BASE.0, BASE.1).unwrap();
    let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
    system.submit_report(p, w, b"first".to_vec()).unwrap();
    let err = system.submit_report(p, w, b"second".to_vec()).unwrap_err();
    assert!(matches!(err, PolError::Ledger(_)), "{err:?}");
}

#[test]
fn unavailable_report_is_not_verified() {
    // If the report data vanished from the DFS (nobody hosts it), the
    // verifier skips the entry: no reward, no hypercube insertion.
    let mut system = system_with(1, 4);
    let p = system.register_prover(BASE.0, BASE.1).unwrap();
    let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
    let out = system.submit_report(p, w, b"will vanish".to_vec()).unwrap();
    // Unpin + GC at the only provider.
    let peer = pol::dfs::PeerId(0);
    system.dfs.unpin(peer, &out.cid).unwrap();
    system.dfs.gc(peer).unwrap();
    assert_eq!(system.run_verifier(&out.area).unwrap(), 0);
    let record = system.hypercube.record(&out.area).unwrap().unwrap();
    assert!(record.cids.is_empty());
}

#[test]
fn replayed_request_cannot_get_a_second_proof() {
    // Protocol-level replay: reusing a witness nonce fails.
    use pol::core::actors::{CertificationAuthority, Prover, Witness};
    use pol::did::DidRegistry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let mut ca = CertificationAuthority::new(Identity::from_seed(100));
    let registry = DidRegistry::new();
    let position = Coordinates::new(BASE.0, BASE.1).unwrap();
    let prover = Prover::new(Identity::from_seed(1), position);
    registry.register_identity(&prover.identity, 0).unwrap();
    let wid = Identity::from_seed(2);
    let cred = ca.enroll_witness(&wid, 0);
    let mut witness = Witness::new(wid, position.offset_m(3.0, 3.0).unwrap(), cred);

    let nonce = witness.issue_nonce();
    let request = ProofRequest {
        did: prover.identity.did.clone(),
        olc: olc::encode(position, 10).unwrap(),
        nonce,
        cid: Cid::for_content(b"x"),
        wallet: prover.wallet,
    };
    witness
        .attest(&mut rng, &registry, request.clone(), &prover.identity, &prover.position)
        .unwrap();
    let err = witness
        .attest(&mut rng, &registry, request, &prover.identity, &prover.position)
        .unwrap_err();
    assert!(matches!(err, PolError::ReplayDetected(_)));
}

#[test]
fn underfunded_contract_pays_nobody_but_keeps_entry() {
    // The contract's `verify` takes the else-branch
    // (issueDuringVerification, §4.1.5) when the balance cannot cover
    // the reward: the call succeeds, nothing is transferred, and the
    // entry stays pending for a later, funded pass. Exercised directly
    // at the contract level.
    use pol::lang::backend::AbiValue;

    let program = pol::core::contract::pol_program();
    let compiled = pol::lang::backend::compile(&program).unwrap();
    let mut chain = presets::devnet_algo().build(6);
    let (creator, _) = chain.create_funded_account(10_000_000);
    let reward: u128 = 50_000;
    let entry = vec![0xabu8; pol::core::proof::ENTRY_CAPACITY];
    let did: u128 = 777;
    let wallet = pol::ledger::Address([5; 20]);

    let ctor = vec![
        AbiValue::Word(did),
        AbiValue::Bytes(b"8FPHF8VV+X2".to_vec()),
        AbiValue::Word(1), // one seat: verification opens after insert
        AbiValue::Word(reward),
    ];
    let args = compiled.avm.encode_create_args(&ctor).unwrap();
    let receipt = chain.deploy_app(&creator, compiled.avm.program.clone(), args).unwrap();
    let app_id = receipt.created.unwrap().as_app().unwrap();

    let insert = compiled
        .avm
        .encode_call("insert_data", &[AbiValue::Bytes(entry.clone()), AbiValue::Word(did)])
        .unwrap();
    assert!(chain.call_app(&creator, app_id, insert, 0).unwrap().status.is_success());

    // verify with matching data but an empty contract balance.
    let verify = compiled
        .avm
        .encode_call(
            "verify",
            &[AbiValue::Word(did), AbiValue::Address(wallet), AbiValue::Bytes(entry)],
        )
        .unwrap();
    let receipt = chain.call_app(&creator, app_id, verify, 0).unwrap();
    assert!(receipt.status.is_success(), "else-branch must not revert");
    assert_eq!(chain.balance(wallet), 0, "no reward without funds");
    assert_eq!(chain.avm().box_count(app_id), 1, "entry still pending");
}

#[test]
fn a_stranger_squats_a_seat_and_locks_the_area() {
    // Seat squatting, pinned as the contract behaves today: it has no
    // deadline and no way to free a seat. `insert_data` admits any
    // caller, so a funded stranger who never met a witness stores a
    // zeroed entry in the second of two seats. The honest late prover is
    // refused, the verifier verifies only the honest entry, and
    // `toVerify` never reaches zero, so the area cannot close.
    use pol::lang::backend::AbiValue;
    use pol::ledger::Transaction;

    for preset in [presets::devnet_evm(), presets::devnet_algo()] {
        let config = SystemConfig { max_users: 2, seed: 5, ..SystemConfig::default() };
        let mut system = PolSystem::new(preset.build(5), config);
        let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
        let first = system.register_prover(BASE.0, BASE.1).unwrap();
        let late = system.register_prover(BASE.0 + 0.000001, BASE.1).unwrap();
        let out = system.submit_report(first, w, b"honest".to_vec()).unwrap();

        let compiled = system.factory().compiled().clone();
        let args =
            [AbiValue::Bytes(vec![0; pol::core::proof::ENTRY_CAPACITY]), AbiValue::Word(0xBAD)];
        let (stranger, from) = adversary(&mut system, 2, 10u128.pow(21));
        let chain = system.chain_mut();
        let receipt = match out.contract {
            ContractId::Evm(_) => {
                let data = compiled.evm.encode_call("insert_data", &args).unwrap();
                chain.call_evm(&stranger, out.contract, data, 0, 1_000_000).unwrap()
            }
            ContractId::App(app_id) => {
                // The attach script's opt-in and box-MBR payments.
                let box_mbr = 2_500 + 400 * (16 + pol::core::proof::ENTRY_CAPACITY as u128);
                let escrow = pol::avm::Avm::app_address(app_id);
                for amount in [0, box_mbr] {
                    let (max_fee, priority) = chain.suggested_fees();
                    let pay = Transaction::transfer(from, escrow, amount, chain.next_nonce(from))
                        .with_fees(max_fee, priority)
                        .signed(&stranger);
                    assert!(chain.submit_and_wait(pay).unwrap().status.is_success());
                }
                let call = compiled.avm.encode_call("insert_data", &args).unwrap();
                chain.call_app(&stranger, app_id, call, 0).unwrap()
            }
        };
        let name = system.chain().config.name.clone();
        assert!(receipt.status.is_success(), "{name}: squat {:?}", receipt.status);

        let refused = system.submit_report(late, w, b"too late".to_vec()).unwrap_err();
        assert!(matches!(refused, PolError::Ledger(_)), "{name}: {refused:?}");
        let verifier_rows = contract_history(system.chain(), out.contract).len();
        assert_eq!(system.run_verifier(&out.area).unwrap(), 1, "{name}");
        assert!(system.close_area(&out.area).is_err(), "{name}: the squatter's seat never frees");
        assert_outsider(&system, from, out.contract, &[first, late], &[w], verifier_rows);
    }
}

#[test]
fn a_stolen_reward_reverts_one_verify_and_the_pass_keeps_the_rest() {
    // A stranger takes one entry's reward before the verifier's pass:
    // the entry's bytes are public (they are `insert_data`'s calldata),
    // and `verify` pays whichever wallet its caller names. The verifier's
    // own `verify` for that entry then reverts. That revert is the
    // entry's outcome alone: the other two entries are paid, exactly
    // their CIDs reach the hypercube, and nothing is left for a second
    // pass. The theft itself is pinned as the contract allows it today.
    use pol::lang::backend::AbiValue;

    for preset in [presets::devnet_evm(), presets::devnet_algo()] {
        let config = SystemConfig { max_users: 3, seed: 9, ..SystemConfig::default() };
        let reward = config.reward;
        let mut system = PolSystem::new(preset.build(9), config);
        let name = system.chain().config.name.clone();
        let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
        let provers: Vec<_> = (0..3)
            .map(|i| system.register_prover(BASE.0 + 0.000001 * f64::from(i), BASE.1).unwrap())
            .collect();
        let outs: Vec<_> = provers
            .iter()
            .enumerate()
            .map(|(i, &p)| system.submit_report(p, w, format!("report {i}").into_bytes()).unwrap())
            .collect();
        let (area, contract) = (outs[0].area.clone(), outs[0].contract);
        assert!(outs.iter().all(|out| out.area == area && out.contract == contract), "{name}");

        // The first prover's entry, as its insert carried it: the witness
        // issued nonces 0, 1 and 2 in submission order.
        let victim = system.prover(provers[0]).unwrap();
        let did = victim.identity.did.clone();
        let request = ProofRequest {
            did: did.clone(),
            olc: area.clone(),
            nonce: 0,
            cid: outs[0].cid.clone(),
            wallet: victim.wallet,
        };
        let witness = system.witness_identity(w).unwrap().signing.clone();
        let entry = SubmittedEntry::from_proof(&LocationProof::issue(&witness, request));

        let (thief, thief_wallet) = adversary(&mut system, 0, 10u128.pow(21));
        let compiled = system.factory().compiled().clone();
        let call = |system: &mut PolSystem, api: &str, args: &[AbiValue], value: u128| {
            let chain = system.chain_mut();
            match contract {
                ContractId::Evm(_) => {
                    let data = compiled.evm.encode_call(api, args).unwrap();
                    chain.call_evm(&thief, contract, data, value, 1_000_000).unwrap()
                }
                ContractId::App(app_id) => {
                    let args = compiled.avm.encode_call(api, args).unwrap();
                    chain.call_app(&thief, app_id, args, value).unwrap()
                }
            }
        };
        let funded = call(&mut system, "insert_money", &[AbiValue::Word(reward)], reward);
        assert!(funded.status.is_success(), "{name}: fund {:?}", funded.status);
        let before = system.chain().balance(thief_wallet);
        let args = [
            AbiValue::Word(u128::from(did.numeric_id())),
            AbiValue::Address(thief_wallet),
            AbiValue::Bytes(entry.to_bytes()),
        ];
        let stolen = call(&mut system, "verify", &args, 0);
        assert!(stolen.status.is_success(), "{name}: theft {:?}", stolen.status);
        assert_eq!(
            system.chain().balance(thief_wallet),
            before - stolen.fee.base_units() + reward,
            "{name}: the stranger was paid"
        );

        let history = contract_history(system.chain(), contract).len();
        assert_eq!(system.run_verifier(&area).unwrap(), 2, "{name}");
        let paid: BTreeSet<String> = outs[1..].iter().map(|out| out.cid.to_string()).collect();
        let listed = system.hypercube.record(&area).unwrap().unwrap().cids;
        assert_eq!(listed.iter().cloned().collect::<BTreeSet<_>>(), paid, "{name}");
        assert_eq!(listed.len(), 2, "{name}");
        assert_eq!(system.run_verifier(&area).unwrap(), 0, "{name}: a second pass");
        system.close_area(&area).unwrap();

        assert_outsider(&system, thief_wallet, contract, &provers, &[w], history);
    }
}
