//! Post-emission program verifier.
//!
//! Abstractly interprets an [`AvmProgram`] tracking only the stack
//! *depth*: every reachable path is explored (both arms of `bz`/`bnz`)
//! and the verifier proves, without executing:
//!
//! * **stack-effect balance** — no opcode ever pops from an empty
//!   stack and the depth never exceeds the AVM's 1000-item limit;
//! * **branch resolution** — every reachable branch targets a label
//!   the program actually defines;
//! * **worst-case opcode cost** — the maximum `crate::cost::op_cost`
//!   sum over all paths, comparable against both the per-call budget
//!   ([`crate::cost::CALL_BUDGET`]) and the conservative straight-line
//!   bound ([`crate::cost::program_cost`]).

use crate::cost;
use crate::opcode::AvmOp;
use crate::program::AvmProgram;

/// The AVM stack-depth limit.
pub(crate) const MAX_STACK: usize = 1000;

/// Exploration budget: instructions walked, summed over every path,
/// before giving up. Every step counts, so a backward jump that keeps
/// raising the path's cost ends here instead of walking forever. The
/// compiler emits loop-free programs; the longest walk among the bundled
/// contracts and the 256-API benchmark contract is about 19,000 steps, so
/// hitting this means the input is not something the backend produced.
const WALK_BUDGET: usize = 1_000_000;

/// What the verifier proved about a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramReport {
    /// Maximum stack depth over all reachable states.
    pub max_stack: usize,
    /// Maximum opcode cost over all halting paths.
    pub worst_case_cost: u64,
    /// Static count of `app_global_put` sites. Cross-contract analysis
    /// compares these against the contract's declared storage layout.
    pub global_puts: usize,
    /// Static count of `box_put` sites (map writes).
    pub box_puts: usize,
    /// Static count of `box_del` sites (map deletes).
    pub box_dels: usize,
}

/// Rejection reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An opcode pops more items than the stack holds.
    StackUnderflow {
        /// Offending instruction index.
        idx: usize,
    },
    /// The stack exceeds `MAX_STACK`.
    StackOverflow {
        /// Offending instruction index.
        idx: usize,
    },
    /// A branch references a label the program never defines.
    UnresolvedLabel {
        /// Offending instruction index.
        idx: usize,
        /// The missing label id.
        label: usize,
    },
    /// The exploration budget of instructions walked was exhausted
    /// (cyclic or adversarial code).
    StateBudgetExceeded,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::StackUnderflow { idx } => {
                write!(f, "stack underflow at instruction {idx}")
            }
            VerifyError::StackOverflow { idx } => {
                write!(f, "stack overflow at instruction {idx}")
            }
            VerifyError::UnresolvedLabel { idx, label } => {
                write!(f, "branch at instruction {idx} targets undefined label {label}")
            }
            VerifyError::StateBudgetExceeded => write!(f, "state exploration budget exceeded"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// `(pops, pushes)` for the non-branching opcodes.
fn stack_effect(op: &AvmOp) -> (usize, usize) {
    match op {
        AvmOp::PushInt(_)
        | AvmOp::PushBytes(_)
        | AvmOp::Txn(_)
        | AvmOp::TxnArg(_)
        | AvmOp::Global(_)
        | AvmOp::Load(_)
        | AvmOp::AppBalance => (0, 1),
        AvmOp::Add
        | AvmOp::Sub
        | AvmOp::Mul
        | AvmOp::Div
        | AvmOp::Mod
        | AvmOp::Lt
        | AvmOp::Gt
        | AvmOp::Le
        | AvmOp::Ge
        | AvmOp::Eq
        | AvmOp::Ne
        | AvmOp::AndL
        | AvmOp::OrL
        | AvmOp::Concat => (2, 1),
        AvmOp::NotL
        | AvmOp::Sha256
        | AvmOp::Keccak256
        | AvmOp::Len
        | AvmOp::Itob
        | AvmOp::Btoi
        | AvmOp::BoxDel => (1, 1),
        AvmOp::Dup | AvmOp::AppGlobalGet | AvmOp::BoxGet => (1, 2),
        AvmOp::Swap => (2, 2),
        AvmOp::Pop
        | AvmOp::Store(_)
        | AvmOp::Assert
        | AvmOp::Log
        | AvmOp::Bz(_)
        | AvmOp::Bnz(_)
        | AvmOp::Return => (1, 0),
        AvmOp::AppGlobalPut | AvmOp::BoxPut | AvmOp::InnerPay => (2, 0),
        AvmOp::B(_) | AvmOp::Label(_) => (0, 0),
    }
}

/// The exploration memo: the best cost seen per `(idx, depth)`, so a
/// state is re-explored only when it improves the bound. The key space
/// is exact; the container is a table instead of a hash map. `head[idx]`
/// names the row of the latest depth seen at instruction `idx` and
/// `Row::next` chains the earlier ones (both 1-based, 0 = none). Programs
/// the compiler emits reach every instruction at one depth, so a lookup
/// is two indexed loads; only programs from outside the backend can grow
/// a chain.
struct Memo {
    head: Vec<usize>,
    rows: Vec<Row>,
}

struct Row {
    depth: usize,
    spent: u64,
    next: usize,
}

impl Memo {
    fn new(instructions: usize) -> Memo {
        Memo { head: vec![0; instructions], rows: Vec::new() }
    }

    /// Whether a state is worth exploring: its key is new, or `spent`
    /// beats the best recorded under the key. Either way the memo then
    /// holds `spent` for it.
    fn improves(&mut self, idx: usize, depth: usize, spent: u64) -> bool {
        let first = self.head[idx];
        let mut link = first;
        while link != 0 {
            let row = &mut self.rows[link - 1];
            if row.depth == depth {
                let better = spent > row.spent;
                row.spent = row.spent.max(spent);
                return better;
            }
            link = row.next;
        }
        self.rows.push(Row { depth, spent, next: first });
        self.head[idx] = self.rows.len();
        true
    }
}

/// Verifies a program from entry (instruction 0).
///
/// # Errors
///
/// A [`VerifyError`] describing the first violation found.
pub fn verify(program: &AvmProgram) -> Result<ProgramReport, VerifyError> {
    let ops = program.ops();
    let mut memo = Memo::new(ops.len());
    let mut worklist = vec![(0usize, 0usize, 0u64)];
    let mut max_stack = 0usize;
    let mut worst_case_cost = 0u64;
    let mut steps = 0usize;

    while let Some((mut idx, mut depth, mut spent)) = worklist.pop() {
        loop {
            if idx >= ops.len() {
                // Falling off the end halts the program.
                worst_case_cost = worst_case_cost.max(spent);
                break;
            }
            if !memo.improves(idx, depth, spent) {
                break;
            }
            steps += 1;
            if steps > WALK_BUDGET {
                return Err(VerifyError::StateBudgetExceeded);
            }
            let op = &ops[idx];
            spent += cost::op_cost(op);
            let (pops, pushes) = stack_effect(op);
            if depth < pops {
                return Err(VerifyError::StackUnderflow { idx });
            }
            depth = depth - pops + pushes;
            if depth > MAX_STACK {
                return Err(VerifyError::StackOverflow { idx });
            }
            max_stack = max_stack.max(depth);

            let target = |label: usize| {
                program.branch_target(idx).ok_or(VerifyError::UnresolvedLabel { idx, label })
            };
            match op {
                AvmOp::Return => {
                    worst_case_cost = worst_case_cost.max(spent);
                    break;
                }
                AvmOp::B(label) => idx = target(*label)?,
                AvmOp::Bz(label) | AvmOp::Bnz(label) => {
                    // Fork: taken branch queued, fallthrough continues
                    // inline.
                    worklist.push((target(*label)?, depth, spent));
                    idx += 1;
                }
                _ => idx += 1,
            }
        }
    }

    let mut global_puts = 0usize;
    let mut box_puts = 0usize;
    let mut box_dels = 0usize;
    for op in ops {
        match op {
            AvmOp::AppGlobalPut => global_puts += 1,
            AvmOp::BoxPut => box_puts += 1,
            AvmOp::BoxDel => box_dels += 1,
            _ => {}
        }
    }

    Ok(ProgramReport { max_stack, worst_case_cost, global_puts, box_puts, box_dels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{GlobalField, TxnField};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The verifier as it stood before its memo became a table: best cost in
    /// a hash map keyed `(idx, depth)`. Kept verbatim as the differential
    /// oracle.
    fn reference_verify(program: &AvmProgram) -> Result<ProgramReport, VerifyError> {
        let ops = program.ops();
        // Best cost seen per (idx, depth); a state is re-explored only when
        // it improves the bound.
        let mut best: HashMap<(usize, usize), u64> = HashMap::new();
        let mut worklist = vec![(0usize, 0usize, 0u64)];
        let mut max_stack = 0usize;
        let mut worst_case_cost = 0u64;
        let mut steps = 0usize;

        while let Some((mut idx, mut depth, mut spent)) = worklist.pop() {
            loop {
                if idx >= ops.len() {
                    // Falling off the end halts the program.
                    worst_case_cost = worst_case_cost.max(spent);
                    break;
                }
                let key = (idx, depth);
                match best.get(&key) {
                    Some(&c) if c >= spent => break,
                    _ => {
                        best.insert(key, spent);
                    }
                }
                steps += 1;
                if steps > WALK_BUDGET {
                    return Err(VerifyError::StateBudgetExceeded);
                }
                let op = &ops[idx];
                spent += cost::op_cost(op);
                let (pops, pushes) = stack_effect(op);
                if depth < pops {
                    return Err(VerifyError::StackUnderflow { idx });
                }
                depth = depth - pops + pushes;
                if depth > MAX_STACK {
                    return Err(VerifyError::StackOverflow { idx });
                }
                max_stack = max_stack.max(depth);

                let target = |label: usize| {
                    program.branch_target(idx).ok_or(VerifyError::UnresolvedLabel { idx, label })
                };
                match op {
                    AvmOp::Return => {
                        worst_case_cost = worst_case_cost.max(spent);
                        break;
                    }
                    AvmOp::B(label) => idx = target(*label)?,
                    AvmOp::Bz(label) | AvmOp::Bnz(label) => {
                        // Fork: taken branch queued, fallthrough continues
                        // inline.
                        worklist.push((target(*label)?, depth, spent));
                        idx += 1;
                    }
                    _ => idx += 1,
                }
            }
        }

        let mut global_puts = 0usize;
        let mut box_puts = 0usize;
        let mut box_dels = 0usize;
        for op in ops {
            match op {
                AvmOp::AppGlobalPut => global_puts += 1,
                AvmOp::BoxPut => box_puts += 1,
                AvmOp::BoxDel => box_dels += 1,
                _ => {}
            }
        }

        Ok(ProgramReport { max_stack, worst_case_cost, global_puts, box_puts, box_dels })
    }

    fn prog(ops: Vec<AvmOp>) -> AvmProgram {
        AvmProgram::new(ops)
    }

    /// Both verifiers on one program: whole `Result`s must be equal.
    fn agree(ops: Vec<AvmOp>) -> Result<ProgramReport, VerifyError> {
        let program = prog(ops);
        let got = verify(&program);
        assert_eq!(got, reference_verify(&program), "program {:?}", program.ops());
        got
    }

    #[test]
    fn accepts_straight_line_approval() {
        let p = prog(vec![AvmOp::PushInt(1), AvmOp::Return]);
        let report = verify(&p).unwrap();
        assert_eq!(report.max_stack, 1);
        assert_eq!(report.worst_case_cost, 2);
    }

    #[test]
    fn rejects_underflow() {
        let p = prog(vec![AvmOp::Add]);
        assert_eq!(verify(&p), Err(VerifyError::StackUnderflow { idx: 0 }));
    }

    #[test]
    fn rejects_unresolved_branch_label() {
        let p = prog(vec![AvmOp::PushInt(0), AvmOp::Bnz(99), AvmOp::PushInt(1), AvmOp::Return]);
        assert_eq!(verify(&p), Err(VerifyError::UnresolvedLabel { idx: 1, label: 99 }));
    }

    #[test]
    fn both_branch_arms_are_checked() {
        // The taken arm underflows even though the fallthrough is fine.
        let p = prog(vec![
            AvmOp::PushInt(0),
            AvmOp::Bnz(1),
            AvmOp::PushInt(1),
            AvmOp::Return,
            AvmOp::Label(1),
            AvmOp::Pop, // nothing on the stack here
        ]);
        assert_eq!(verify(&p), Err(VerifyError::StackUnderflow { idx: 5 }));
    }

    #[test]
    fn worst_case_takes_the_expensive_arm() {
        let p = prog(vec![
            AvmOp::PushInt(0),
            AvmOp::Bnz(1),
            // cheap arm
            AvmOp::PushInt(1),
            AvmOp::Return,
            AvmOp::Label(1),
            // expensive arm
            AvmOp::PushBytes(b"x".to_vec()),
            AvmOp::Keccak256,
            AvmOp::Pop,
            AvmOp::PushInt(1),
            AvmOp::Return,
        ]);
        let report = verify(&p).unwrap();
        // push(1) + bnz(1) + label(0) + pushbytes(1) + keccak(130) + pop(1)
        // + push(1) + return(1)
        assert_eq!(report.worst_case_cost, 136);
    }

    #[test]
    fn worst_path_bounded_by_straight_line_cost() {
        let p = prog(vec![
            AvmOp::PushInt(0),
            AvmOp::Bnz(1),
            AvmOp::Sha256, // only on fallthrough — needs an operand
            AvmOp::Pop,
            AvmOp::PushInt(1),
            AvmOp::Return,
            AvmOp::Label(1),
            AvmOp::PushInt(1),
            AvmOp::Return,
        ]);
        // Sha256 on the fallthrough arm underflows (operand consumed by
        // Bnz), so give it one.
        let p = prog([vec![AvmOp::PushBytes(b"seed".to_vec())], p.ops().to_vec()].concat());
        let report = verify(&p).unwrap();
        assert!(report.worst_case_cost <= cost::program_cost(p.ops()));
    }

    #[test]
    fn counts_state_write_sites() {
        let p = prog(vec![
            AvmOp::PushBytes(b"k".to_vec()),
            AvmOp::PushInt(1),
            AvmOp::AppGlobalPut,
            AvmOp::PushBytes(b"b".to_vec()),
            AvmOp::PushBytes(b"v".to_vec()),
            AvmOp::BoxPut,
            AvmOp::PushBytes(b"b".to_vec()),
            AvmOp::BoxDel,
            AvmOp::Pop,
            AvmOp::PushInt(1),
            AvmOp::Return,
        ]);
        let report = verify(&p).unwrap();
        assert_eq!(report.global_puts, 1);
        assert_eq!(report.box_puts, 1);
        assert_eq!(report.box_dels, 1);
    }

    #[test]
    fn dup_and_swap_effects_balance() {
        let p = prog(vec![AvmOp::PushInt(1), AvmOp::Dup, AvmOp::Swap, AvmOp::Pop, AvmOp::Return]);
        let report = verify(&p).unwrap();
        assert_eq!(report.max_stack, 2);
    }

    /// The memo's edges, one program each: against the reference, and
    /// against the verdict only an exact `(idx, depth)` key space reaches.
    #[test]
    fn memo_edges_agree_with_the_reference() {
        use AvmOp::{Bnz, Keccak256, Label, Pop, PushInt, Return, B};
        // `bnz 1` queues the taken arm (behind `Label(1)`) and walks the
        // fallthrough first; both meet at `Label(2)`.
        let diamond = |fallthrough: Vec<AvmOp>, taken: Vec<AvmOp>, join: Vec<AvmOp>| {
            [
                vec![PushInt(0), Bnz(1)],
                fallthrough,
                vec![B(2), Label(1)],
                taken,
                vec![Label(2)],
                join,
            ]
            .concat()
        };

        // Later and dearer: the join is explored a second time and the
        // report carries the dear path.
        let dear = vec![PushInt(7), Keccak256, Pop];
        let report = agree(diamond(vec![], dear, vec![PushInt(1), Return])).unwrap();
        assert_eq!(report.worst_case_cost, 2 + (1 + 130 + 1) + 2);

        // Later, cheaper and shallower: a second depth at the join is a
        // second key, not a dominated state, and its underflow is found.
        let program = diamond(vec![PushInt(7), Keccak256], vec![], vec![Pop]);
        let at = program.len() - 1;
        assert_eq!(agree(program), Err(VerifyError::StackUnderflow { idx: at }));

        // A label nothing defines fails where it is reached — on the arm
        // explored second, too — and not where it is not.
        let program = diamond(vec![PushInt(1), Return], vec![B(9)], vec![B(9)]);
        assert_eq!(agree(program), Err(VerifyError::UnresolvedLabel { idx: 6, label: 9 }));
        assert!(agree(vec![PushInt(1), Return, B(9)]).is_ok());

        // A backward bnz queues one dearer state per round: the budget of
        // instructions walked ends it.
        let spin = vec![Label(0), PushInt(1), Bnz(0)];
        assert_eq!(agree(spin), Err(VerifyError::StateBudgetExceeded));
    }

    /// A backward `b` queues nothing: the walk goes round inline, dearer
    /// each time, and only counting every instruction ends it.
    #[test]
    fn a_backward_branch_ends_on_the_budget() {
        let spin = vec![AvmOp::Label(0), AvmOp::B(0)];
        assert_eq!(agree(spin), Err(VerifyError::StateBudgetExceeded));
    }

    /// A drawn instruction: labels are numbered and branches aimed once
    /// the whole list is known.
    #[derive(Debug, Clone)]
    enum Slot {
        Plain(AvmOp),
        Label,
        /// `b`, `bz` or `bnz` by `kind`; `aim` picks among the labels it may
        /// reach, unless `dangling` is 0 (one in eight), which aims it at a
        /// label nothing defines.
        Branch {
            kind: u8,
            aim: usize,
            dangling: u8,
            backward: u8,
        },
    }

    /// Numbers the labels in order, so each is defined once, and aims the
    /// branches forwards — but for one branch in sixteen (`backward` is 0),
    /// which may go back: a loop the budget ends.
    fn resolve(slots: Vec<Slot>) -> Vec<AvmOp> {
        let labels = slots.iter().filter(|slot| matches!(slot, Slot::Label)).count();
        let mut seen = 0;
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Plain(op) => op,
                Slot::Label => {
                    seen += 1;
                    AvmOp::Label(seen - 1)
                }
                Slot::Branch { kind, aim, dangling, backward } => {
                    let from = if backward == 0 { 0 } else { seen };
                    let label = match labels - from {
                        reachable if reachable > 0 && dangling > 0 => from + aim % reachable,
                        _ => labels,
                    };
                    [AvmOp::B, AvmOp::Bz, AvmOp::Bnz][usize::from(kind)](label)
                }
            })
            .collect()
    }

    fn slot() -> BoxedStrategy<Slot> {
        let plain = vec![
            AvmOp::PushBytes(b"k".to_vec()),
            AvmOp::Add,
            AvmOp::Sub,
            AvmOp::Mul,
            AvmOp::Div,
            AvmOp::Mod,
            AvmOp::Lt,
            AvmOp::Gt,
            AvmOp::Le,
            AvmOp::Ge,
            AvmOp::Eq,
            AvmOp::Ne,
            AvmOp::AndL,
            AvmOp::OrL,
            AvmOp::NotL,
            AvmOp::Sha256,
            AvmOp::Keccak256,
            AvmOp::Concat,
            AvmOp::Len,
            AvmOp::Itob,
            AvmOp::Btoi,
            AvmOp::Dup,
            AvmOp::Swap,
            AvmOp::Pop,
            AvmOp::Store(3),
            AvmOp::Load(3),
            AvmOp::Txn(TxnField::Sender),
            AvmOp::TxnArg(1),
            AvmOp::Global(GlobalField::Round),
            AvmOp::Assert,
            AvmOp::AppGlobalPut,
            AvmOp::AppGlobalGet,
            AvmOp::BoxPut,
            AvmOp::BoxGet,
            AvmOp::BoxDel,
            AvmOp::InnerPay,
            AvmOp::Log,
            AvmOp::AppBalance,
            AvmOp::Return,
        ];
        let push = (0u64..4).prop_map(|v| Slot::Plain(AvmOp::PushInt(v)));
        let plain = (0..plain.len()).prop_map(move |i| Slot::Plain(plain[i].clone()));
        let branch = (0u8..3, any::<usize>(), 0u8..8, 0u8..16).prop_map(
            |(kind, aim, dangling, backward)| Slot::Branch { kind, aim, dangling, backward },
        );
        let options = [
            (6, push.boxed()),
            (3, plain.boxed()),
            (2, Just(Slot::Label).boxed()),
            (3, branch.boxed()),
        ];
        Union::new(options.into_iter().flat_map(|(weight, option)| vec![option; weight]).collect())
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Op lists from anywhere: same verdict, same report, no panic.
        #[test]
        fn arbitrary_programs_agree_with_the_reference(slots in collection::vec(slot(), 0..40)) {
            // A few words to start on and a label to end on, so that fewer
            // walks end at once.
            let start = vec![Slot::Plain(AvmOp::PushInt(1)); 3];
            let _ = agree(resolve([start, slots, vec![Slot::Label]].concat()));
        }
    }
}
