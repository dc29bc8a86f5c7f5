//! Programs and label resolution.

use crate::opcode::AvmOp;
use std::collections::HashMap;

/// An AVM program with its derived per-instruction rows: resolved branch
/// targets and opcode costs, computed once at construction so the
/// interpreter's hot loop neither looks a label up per branch nor
/// re-matches the cost table per op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvmProgram {
    ops: Vec<AvmOp>,
    /// Per-instruction branch target ([`UNRESOLVED`] when the
    /// instruction is not a branch or its label does not exist — the
    /// latter only fails if the branch is actually taken).
    targets: Vec<u32>,
    /// Per-instruction opcode cost (the TEAL cost table, pre-applied).
    costs: Vec<u64>,
}

/// Sentinel for "no target here".
const UNRESOLVED: u32 = u32::MAX;

impl AvmProgram {
    /// Builds a program, resolving its branch targets and cost rows.
    ///
    /// # Panics
    ///
    /// Panics if a label id appears twice — programs are built by the
    /// compiler backend, so this is a codegen bug, not an input error.
    pub fn new(ops: Vec<AvmOp>) -> AvmProgram {
        let mut labels = HashMap::new();
        for (idx, op) in ops.iter().enumerate() {
            if let AvmOp::Label(id) = op {
                let prev = labels.insert(*id, idx as u32);
                assert!(prev.is_none(), "duplicate label {id}");
            }
        }
        let targets = ops
            .iter()
            .map(|op| match op {
                AvmOp::B(label) | AvmOp::Bz(label) | AvmOp::Bnz(label) => {
                    labels.get(label).copied().unwrap_or(UNRESOLVED)
                }
                _ => UNRESOLVED,
            })
            .collect();
        let costs = ops.iter().map(crate::cost::op_cost).collect();
        AvmProgram { ops, targets, costs }
    }

    /// The instruction list.
    pub fn ops(&self) -> &[AvmOp] {
        &self.ops
    }

    /// The instruction index the branch at `idx` jumps to, or `None`
    /// when `idx` is not a branch or its label does not exist.
    pub(crate) fn branch_target(&self, idx: usize) -> Option<usize> {
        match self.targets[idx] {
            UNRESOLVED => None,
            target => Some(target as usize),
        }
    }

    /// The opcode cost of instruction `idx`.
    pub(crate) fn cost(&self, idx: usize) -> u64 {
        self.costs[idx]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Programs are stored in the journaled world state as shared blobs, so
/// speculative executors re-reading an installed app clone an `Arc`, not
/// the instruction list.
impl pol_ledger::StateBlob for AvmProgram {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn blob_eq(&self, other: &dyn pol_ledger::StateBlob) -> bool {
        other.as_any().downcast_ref::<AvmProgram>() == Some(self)
    }

    fn digest_bytes(&self) -> Vec<u8> {
        crate::teal::render(self).into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::{AvmError, Balances};
    use crate::opcode::TxnField;
    use crate::{AppCallParams, Avm};
    use pol_ledger::Address;

    /// Targets are resolved at construction: a branch to a missing label
    /// keeps the sentinel and only fails when the interpreter takes it.
    #[test]
    fn labels_resolve() {
        let p = AvmProgram::new(vec![
            AvmOp::Txn(TxnField::NumAppArgs),
            AvmOp::Bnz(8),
            AvmOp::B(7),
            AvmOp::Label(7),
            AvmOp::PushInt(1),
            AvmOp::Return,
        ]);
        assert_eq!(p.branch_target(2), Some(3));
        assert_eq!(p.branch_target(1), None, "label 8 does not exist");
        assert_eq!(p.branch_target(0), None, "not a branch");
        assert_eq!(p.cost(3), 0, "labels are free");
        assert_eq!(p.len(), 6);

        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let id = avm.create_app_with_args(Address::ZERO, p, Vec::new(), &mut balances).unwrap();
        let untaken = AppCallParams::new(Address::ZERO, id);
        assert!(avm.call(untaken.clone(), &mut balances).unwrap().approved);
        let taken = untaken.with_args(vec![vec![1]]);
        assert_eq!(avm.call(taken, &mut balances).unwrap_err(), AvmError::BadBranch(8));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_labels_panic() {
        let _ = AvmProgram::new(vec![AvmOp::Label(1), AvmOp::Label(1)]);
    }
}
