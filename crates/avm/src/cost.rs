//! The AVM opcode-cost model.
//!
//! Unlike the EVM's gas *market*, Algorand charges a flat transaction fee
//! and instead bounds computation with an opcode **budget** per
//! application call. Costs follow the published TEAL cost table (hashes
//! are expensive, everything else costs 1).

use crate::opcode::AvmOp;

/// Opcode budget for a single application call.
pub const CALL_BUDGET: u64 = 700;
/// Flat minimum fee per transaction, in µAlgo.
pub const MIN_TXN_FEE: u64 = 1000;

/// Cost of one instruction.
pub(crate) fn op_cost(op: &AvmOp) -> u64 {
    match op {
        AvmOp::Sha256 => 35,
        AvmOp::Keccak256 => 130,
        AvmOp::BoxPut | AvmOp::BoxGet | AvmOp::BoxDel => 10,
        AvmOp::InnerPay => 20,
        AvmOp::Label(_) => 0,
        _ => 1,
    }
}

/// Conservative (worst-case straight-line) cost of a whole program.
pub fn program_cost(ops: &[AvmOp]) -> u64 {
    ops.iter().map(op_cost).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ops_cost_more() {
        assert_eq!(op_cost(&AvmOp::Sha256), 35);
        assert_eq!(op_cost(&AvmOp::Keccak256), 130);
        assert_eq!(op_cost(&AvmOp::Add), 1);
        assert_eq!(op_cost(&AvmOp::Label(3)), 0);
    }

    #[test]
    fn program_cost_sums() {
        let ops = vec![AvmOp::PushInt(1), AvmOp::Sha256, AvmOp::Return];
        assert_eq!(program_cost(&ops), 1 + 35 + 1);
    }
}
