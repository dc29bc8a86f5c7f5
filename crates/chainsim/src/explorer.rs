//! A block-explorer view over a chain (EtherScan / PolygonScan /
//! AlgoExplorer, as used in Fig. 3.1 of the paper to inspect the
//! contract's lifecycle).

use crate::chain::Chain;
use pol_ledger::{Address, ContractId, TxKind};

/// One row of an explorer's transaction history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRow {
    /// Transaction id as displayed.
    pub txn_hash: String,
    /// Block height.
    pub block: u64,
    /// Block timestamp, ms.
    pub timestamp_ms: u64,
    /// Sender.
    pub from: Address,
    /// Displayed method: "Contract Creation", "Transfer" or a call tag.
    pub method: String,
    /// Value moved, base units.
    pub value: u128,
}

/// Lists all transactions that touched `contract`, oldest first — the
/// explorer page of Fig. 3.1 (deploy at the bottom, later interactions on
/// top when reversed).
pub fn contract_history(chain: &Chain, contract: ContractId) -> Vec<HistoryRow> {
    let mut rows = Vec::new();
    let mut height = 0u64;
    while let Some(block) = chain.block(height) {
        for tx in &block.transactions {
            let relevant = match &tx.kind {
                TxKind::ContractCall(id) => *id == contract,
                // Every creation looks alike from the transaction; its own
                // inclusion receipt names the contract it made.
                TxKind::ContractCreate => chain
                    .inclusion_receipt(tx.id())
                    .is_some_and(|receipt| receipt.created == Some(contract)),
                TxKind::Transfer => false,
            };
            if relevant {
                rows.push(HistoryRow {
                    txn_hash: tx.id().to_string(),
                    block: block.number,
                    timestamp_ms: block.timestamp_ms,
                    from: tx.from,
                    method: match &tx.kind {
                        TxKind::ContractCreate => "Contract Creation".to_string(),
                        TxKind::ContractCall(_) => format!(
                            "0x{}",
                            tx.data.iter().take(4).map(|b| format!("{b:02x}")).collect::<String>()
                        ),
                        TxKind::Transfer => "Transfer".to_string(),
                    },
                    value: tx.value,
                });
            }
        }
        height += 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use pol_evm::assembler::Asm;
    use pol_evm::opcode::Op;

    #[test]
    fn history_shows_creation_then_calls() {
        let mut chain = presets::devnet_evm().build(1);
        let (alice, _) = chain.create_funded_account(10u128.pow(20));
        let init = Asm::deploy_wrapper(&Asm::new().op(Op::Stop).build());
        let first = chain.deploy_evm(&alice, init.clone(), 5_000_000).unwrap().created.unwrap();
        let second = chain.deploy_evm(&alice, init, 5_000_000).unwrap().created.unwrap();
        chain.call_evm(&alice, first, vec![0xaa, 0xbb, 0xcc, 0xdd], 0, 100_000).unwrap();
        let rows = contract_history(&chain, first);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].method, "Contract Creation");
        assert_eq!(rows[1].method, "0xaabbccdd");
        assert!(rows[0].block <= rows[1].block);
        // The other contract's page holds its own creation and nothing else.
        let rows = contract_history(&chain, second);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_ne!(rows[0].txn_hash, contract_history(&chain, first)[0].txn_hash);
    }

    #[test]
    fn app_history_holds_only_its_own_creation() {
        use pol_avm::opcode::AvmOp::{PushInt, Return};
        let mut chain = presets::devnet_algo().build(1);
        let (alice, _) = chain.create_funded_account(10_000_000);
        let program = pol_avm::AvmProgram::new(vec![PushInt(1), Return]);
        let first = chain.deploy_app(&alice, program.clone(), vec![]).unwrap().created.unwrap();
        let second = chain.deploy_app(&alice, program, vec![]).unwrap().created.unwrap();
        let methods = |contract| {
            contract_history(&chain, contract).into_iter().map(|r| r.method).collect::<Vec<_>>()
        };
        assert_eq!(methods(first), ["Contract Creation"]);
        assert_eq!(methods(second), ["Contract Creation"]);
    }
}
