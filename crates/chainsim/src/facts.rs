//! Per-contract static facts: the bridge between what the compiler
//! proves about a contract (`pol-lang`'s access summaries and worst-case
//! gas certificates) and the runtime's consumers of those proofs.
//!
//! * **Access claims** feed the executor's static lane partitioning and
//!   the commit-time access sanitizer.
//! * **Gas bounds** seed the executor's gas-priority scheduler, price
//!   `Chain::submit`'s worst-case-fee precheck, reject certified calls
//!   provisioned below their proven need, and back the gas sanitizer.
//!
//! `pol-chainsim` deliberately does not depend on the language crate, so
//! both facts are registered as closures: whoever deploys a contract
//! (e.g. `pol-core`'s deploy script) owns the compiled program, runs the
//! analyses, and registers closures that resolve a concrete call into
//! claims or a bound. The two are resolved separately — admission needs
//! only the bound, lane formation only the claims.
//!
//! A resolver may return `None` — "no sound fact for this call" — and
//! the runtime falls back to the fact-free behaviour (the optimistic
//! path counted as a `summary_fallback`; tx-kind default estimates and
//! `gas_limit`-priced admission). Returning an unsound fact (claims that
//! miss an access, a bound below the real spend) is the one forbidden
//! move; the commit-time sanitizers exist to catch exactly that.

use crate::chain::{AvmPayload, VmKind};
use pol_ledger::{AccessClaims, Address, ContractId, Transaction, TxId, TxKind};
use std::collections::HashMap;

/// The concrete call being resolved against a contract's static facts.
#[derive(Debug, Clone, Copy)]
pub struct CallQuery<'a> {
    /// Transaction sender.
    pub sender: Address,
    /// Attached value (EVM wei or AVM microalgo payment).
    pub value: u128,
    /// EVM calldata (selector + ABI-encoded args); empty on AVM calls.
    pub calldata: &'a [u8],
    /// AVM application args (dispatch symbol + encoded params); empty on
    /// EVM calls.
    pub app_args: &'a [Vec<u8>],
}

/// The query an `AccessResolver` receives.
pub type AccessQuery<'a> = CallQuery<'a>;

/// The query a `GasResolver` receives (sender and value never change a
/// worst-case bound, but the call is the same call).
pub type GasQuery<'a> = CallQuery<'a>;

/// Concrete call → sound access claims, or `None` when no sound claim
/// can be made.
pub(crate) type AccessResolver = Box<dyn Fn(&CallQuery<'_>) -> Option<AccessClaims> + Send + Sync>;

/// Concrete call → proven worst-case gas (execution + intrinsic for EVM
/// calls, opcode budget for AVM calls), or `None` when no certificate
/// covers the call.
pub(crate) type GasResolver = Box<dyn Fn(&CallQuery<'_>) -> Option<u64> + Send + Sync>;

impl<'a> CallQuery<'a> {
    /// The query for a pending contract call: calldata on EVM chains, the
    /// stashed application args on AVM chains. `None` when an AVM call's
    /// payload is missing — such a call reverts before touching the app.
    /// `id` is `tx.id()`, which every caller already holds.
    pub(crate) fn for_tx(
        vm: VmKind,
        avm_payloads: &'a HashMap<TxId, AvmPayload>,
        tx: &'a Transaction,
        id: TxId,
    ) -> Option<CallQuery<'a>> {
        let (calldata, app_args): (&[u8], &[Vec<u8>]) = match vm {
            VmKind::Evm => (&tx.data, &[]),
            VmKind::Avm => match avm_payloads.get(&id) {
                Some(AvmPayload::Call { args }) => (&[], args),
                _ => return None,
            },
        };
        Some(CallQuery { sender: tx.from, value: tx.value, calldata, app_args })
    }
}

#[derive(Default)]
struct ContractFacts {
    access: Option<AccessResolver>,
    gas: Option<GasResolver>,
}

/// The static facts of every deployed contract that registered any,
/// owned by a [`crate::chain::Chain`].
#[derive(Default)]
pub(crate) struct StaticFacts {
    contracts: HashMap<ContractId, ContractFacts>,
}

impl StaticFacts {
    /// Registers (or replaces) a contract's access resolver.
    pub(crate) fn register_access(&mut self, contract: ContractId, resolver: AccessResolver) {
        self.contracts.entry(contract).or_default().access = Some(resolver);
    }

    /// Registers (or replaces) a contract's gas resolver.
    pub(crate) fn register_gas(&mut self, contract: ContractId, resolver: GasResolver) {
        self.contracts.entry(contract).or_default().gas = Some(resolver);
    }

    /// The access claims of a call, if the contract registered a
    /// resolver and it can make a sound claim.
    pub(crate) fn claims(
        &self,
        contract: &ContractId,
        query: &CallQuery<'_>,
    ) -> Option<AccessClaims> {
        self.contracts.get(contract)?.access.as_ref()?(query)
    }

    /// The proven worst-case gas of a call, if the contract registered a
    /// resolver and a certificate covers the call.
    fn gas_bound(&self, contract: &ContractId, query: &CallQuery<'_>) -> Option<u64> {
        self.contracts.get(contract)?.gas.as_ref()?(query)
    }

    /// [`StaticFacts::gas_bound`] of a pending transaction: `None` for
    /// anything but a contract call whose payload is at hand.
    pub(crate) fn tx_gas_bound(
        &self,
        vm: VmKind,
        avm_payloads: &HashMap<TxId, AvmPayload>,
        tx: &Transaction,
        id: TxId,
    ) -> Option<u64> {
        let TxKind::ContractCall(contract) = &tx.kind else { return None };
        self.gas_bound(contract, &CallQuery::for_tx(vm, avm_payloads, tx, id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ledger::StateKey;

    #[test]
    fn facts_dispatch_by_contract_and_kind() {
        let mut facts = StaticFacts::default();
        let target = ContractId::Evm(Address([1u8; 20]));
        facts.register_access(
            target,
            Box::new(|q| {
                let mut claims = AccessClaims::default();
                claims.read_write(StateKey::Balance(q.sender));
                Some(claims)
            }),
        );
        facts.register_gas(ContractId::App(7), Box::new(|_| None));
        facts.register_gas(ContractId::App(9), Box::new(|q| Some(700 + q.app_args.len() as u64)));

        let args = [vec![0xab; 4]];
        let q = CallQuery { sender: Address([9u8; 20]), value: 0, calldata: &[], app_args: &args };
        assert!(facts.claims(&target, &q).expect("registered resolver").is_exact());
        assert_eq!(facts.gas_bound(&target, &q), None, "only the access half is registered");
        assert_eq!(facts.gas_bound(&ContractId::App(9), &q), Some(701));
        assert_eq!(facts.gas_bound(&ContractId::App(7), &q), None, "resolver declined");
        assert_eq!(facts.claims(&ContractId::App(8), &q), None, "unregistered contract");
    }
}
