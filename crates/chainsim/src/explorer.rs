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
            let relevant = match (&tx.kind, contract) {
                (TxKind::ContractCall(id), c) => *id == c,
                (TxKind::ContractCreate, ContractId::Evm(addr)) => {
                    tx.to.is_none() && created_matches_evm(chain, addr, tx.from)
                }
                (TxKind::ContractCreate, ContractId::App(_)) => true,
                _ => false,
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

fn created_matches_evm(chain: &Chain, addr: Address, _deployer: Address) -> bool {
    chain.evm().is_contract(addr)
}

/// Formats the block executor's cumulative counters — the explorer's
/// "node diagnostics" footer. Shows how many blocks ran through the
/// optimistic-parallel path and how much speculation it cost.
pub fn execution_report(chain: &Chain) -> String {
    let s = chain.exec_stats();
    let mut report = format!(
        "{}: {} blocks ({} parallel), {} txs committed, {} speculative runs, {} conflicts",
        chain.config.name,
        s.blocks,
        s.parallel_blocks,
        s.committed_txs,
        s.speculative_runs,
        s.conflicts,
    );
    if s.static_lanes > 0 || s.summary_fallbacks > 0 {
        report.push_str(&format!(
            ", {} static lanes ({} validations skipped, {} summary fallbacks)",
            s.static_lanes, s.speculation_skipped, s.summary_fallbacks,
        ));
    }
    if s.static_gas_seeded + s.default_seeded > 0 {
        report.push_str(&format!(
            ", gas estimates {} certificate-seeded / {} default-seeded",
            s.static_gas_seeded, s.default_seeded,
        ));
    }
    if s.code_cache_hits + s.code_cache_misses > 0 {
        report.push_str(&format!(
            ", code cache {} hits / {} misses ({} decode ns)",
            s.code_cache_hits, s.code_cache_misses, s.decode_ns,
        ));
    }
    report
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
        let runtime = Asm::new().op(Op::Stop).build();
        let receipt = chain.deploy_evm(&alice, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
        let contract = receipt.created.unwrap();
        chain.call_evm(&alice, contract, vec![0xaa, 0xbb, 0xcc, 0xdd], 0, 100_000).unwrap();
        let rows = contract_history(&chain, contract);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].method, "Contract Creation");
        assert_eq!(rows[1].method, "0xaabbccdd");
        assert!(rows[0].block <= rows[1].block);
    }

    #[test]
    fn execution_report_counts_parallel_blocks() {
        use crate::executor::ExecutionMode;
        use pol_ledger::Transaction;
        let mut chain = presets::devnet_evm().build(2);
        chain.set_execution_mode(ExecutionMode::Parallel { workers: 2 });
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(19));
        let (_, bob_addr) = chain.create_funded_account(0);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 5, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        chain.submit_and_wait(tx).unwrap();
        let report = execution_report(&chain);
        assert!(report.contains("1 txs committed"), "{report}");
        assert!(report.contains("parallel"), "{report}");
        assert!(report.contains("1 speculative runs, 0 conflicts"), "{report}");
        // No gas certificates are registered, so every scheduler
        // estimate fell back to its tx-kind default.
        assert!(report.contains("gas estimates 0 certificate-seeded"), "{report}");
        assert!(chain.exec_stats().default_seeded > 0, "{report}");
        assert!(chain.exec_stats().parallel_blocks > 0);

        // Executing contract code surfaces the code-cache segment.
        let runtime = Asm::new().op(Op::Stop).build();
        let receipt = chain.deploy_evm(&alice, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
        let contract = receipt.created.unwrap();
        chain.call_evm(&alice, contract, Vec::new(), 0, 100_000).unwrap();
        chain.call_evm(&alice, contract, Vec::new(), 0, 100_000).unwrap();
        let report = execution_report(&chain);
        assert!(report.contains("code cache"), "{report}");
        assert!(chain.exec_stats().code_cache_hits > 0, "{report}");
    }
}
