//! Post-emission bytecode verifier.
//!
//! Abstractly interprets a bytecode image from entry, tracking the stack
//! as a vector of *maybe-known* words. Every reachable path is explored
//! (conditional jumps with unknown conditions fork) and the verifier
//! proves, without executing:
//!
//! * **stack safety** — no underflow, depth never exceeds the EVM's
//!   1024-item limit;
//! * **decodability** — every reachable byte is an implemented opcode
//!   (unreachable padding such as `0xfe` runtime-library filler is
//!   never decoded);
//! * **jump validity** — every reachable `JUMP`/`JUMPI` has a
//!   statically-known target that lands on a `JUMPDEST` outside push
//!   immediates (the real EVM's jumpdest analysis);
//! * **opcode-level checks-effects-interactions** — after a `CALL` on
//!   the same path, the only permitted `SSTORE`s are to an explicit
//!   allow-list of constant keys (the compiler's phase-counter
//!   epilogue), so no value transfer is ever followed by an
//!   unaccounted state write;
//! * **worst-case gas** — the maximum conservative gas over all paths,
//!   using the same warm-state dynamic model as the language's
//!   straight-line bound, so the compiler's cost gate can compare them.

use crate::gas;
use crate::opcode::Op;
use std::collections::BTreeSet;

/// The EVM stack-depth limit.
pub(crate) const MAX_STACK: usize = 1024;

/// Exploration budget: abstract states processed before giving up. The
/// compiler emits loop-free code, so hitting this means the image is
/// not something the backend produced.
const STATE_BUDGET: usize = 200_000;

/// Verification parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyConfig<'a> {
    /// Constant `SSTORE` keys still permitted after a `CALL` on the
    /// same path (the language backend's phase-advance epilogue writes
    /// the phase slot after a transfer's `CALL`; everything else is a
    /// checks-effects-interactions violation).
    pub allowed_post_call_sstore_keys: &'a [u64],
    /// Payload-size bound (bytes) for the dynamic parts of the gas
    /// model (hash words, log data, copies).
    pub payload_bytes: u64,
}

/// What the verifier proved about an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeReport {
    /// Maximum stack depth over all reachable states.
    pub max_stack: usize,
    /// Maximum conservative gas over all halting paths.
    pub worst_case_gas: u64,
    /// Number of distinct reachable program counters.
    pub visited_pcs: usize,
    /// Statically-known `SSTORE` keys observed on reachable paths,
    /// sorted and deduplicated. Cross-contract analysis checks these
    /// against the declared storage layout (slots the source never
    /// declares must not be written).
    pub constant_sstore_keys: Vec<u64>,
    /// Reachable `SSTORE` sites whose key is not statically known
    /// (map writes behind `keccak`-derived keys).
    pub unknown_key_sstores: usize,
}

/// Rejection reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An opcode pops more items than the stack holds.
    StackUnderflow {
        /// Offending program counter.
        pc: usize,
    },
    /// The stack exceeds `MAX_STACK`.
    StackOverflow {
        /// Offending program counter.
        pc: usize,
    },
    /// A reachable byte is not an implemented opcode.
    InvalidOpcode {
        /// Offending program counter.
        pc: usize,
        /// The byte found there.
        byte: u8,
    },
    /// A jump target is known but is not a `JUMPDEST`.
    InvalidJumpTarget {
        /// Offending program counter.
        pc: usize,
        /// The target that is not a jump destination.
        target: usize,
    },
    /// A jump target could not be determined statically.
    UnknownJumpTarget {
        /// Offending program counter.
        pc: usize,
    },
    /// An `SSTORE` after a `CALL` on the same path, outside the
    /// allow-list (checks-effects-interactions violation).
    StorePastCall {
        /// Offending program counter.
        pc: usize,
    },
    /// The exploration budget was exhausted (cyclic or adversarial
    /// code).
    StateBudgetExceeded,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::StackUnderflow { pc } => write!(f, "stack underflow at pc {pc}"),
            VerifyError::StackOverflow { pc } => write!(f, "stack overflow at pc {pc}"),
            VerifyError::InvalidOpcode { pc, byte } => {
                write!(f, "invalid opcode 0x{byte:02x} at pc {pc}")
            }
            VerifyError::InvalidJumpTarget { pc, target } => {
                write!(f, "jump at pc {pc} targets {target}, which is not a JUMPDEST")
            }
            VerifyError::UnknownJumpTarget { pc } => {
                write!(f, "jump at pc {pc} has a statically unknown target")
            }
            VerifyError::StorePastCall { pc } => {
                write!(
                    f,
                    "SSTORE at pc {pc} after a CALL on the same path (checks-effects-interactions)"
                )
            }
            VerifyError::StateBudgetExceeded => write!(f, "state exploration budget exceeded"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The conservative cost of one opcode under the same warm-state model
/// the language's straight-line bound uses, so path bounds and linear
/// bounds are directly comparable.
pub fn conservative_op_gas(op: Op, payload_bytes: u64) -> u64 {
    op.base_gas()
        + match op {
            Op::SLoad => gas::G_WARMACCESS,
            Op::SStore => gas::G_SRESET,
            Op::Keccak256 => gas::G_KECCAK256WORD * gas::words(payload_bytes as usize),
            Op::Call => gas::G_COLDACCOUNTACCESS + gas::G_CALLVALUE,
            Op::Log0 | Op::Log1 => gas::G_LOGDATA * payload_bytes,
            Op::CallDataCopy | Op::CodeCopy => gas::G_COPY * gas::words(payload_bytes as usize),
            _ => 0,
        }
}

/// Jumpdest analysis: `0x5b` bytes outside push immediates. The sweep
/// from pc 0 runs on demand and only as far as the furthest target asked
/// about, so bytes behind the last jump target (the runtime pad) are
/// never swept.
struct JumpDests<'a> {
    code: &'a [u8],
    /// Instruction boundaries below `swept` that hold a `JUMPDEST`.
    valid: Vec<bool>,
    /// The next instruction boundary the sweep has not looked at.
    swept: usize,
}

impl JumpDests<'_> {
    fn new(code: &[u8]) -> JumpDests<'_> {
        JumpDests { code, valid: vec![false; code.len()], swept: 0 }
    }

    fn is_valid(&mut self, target: usize) -> bool {
        if target >= self.code.len() {
            return false;
        }
        while self.swept <= target {
            let byte = self.code[self.swept];
            if byte == Op::JumpDest as u8 {
                self.valid[self.swept] = true;
            }
            self.swept += 1;
            if (0x60..=0x7f).contains(&byte) {
                self.swept += (byte - 0x60) as usize + 1;
            }
        }
        self.valid[target]
    }
}

/// An abstract machine state: known-constant stack slots, whether a
/// `CALL` already happened on this path, and the gas consumed so far.
#[derive(Debug, Clone)]
struct State {
    pc: usize,
    stack: Vec<Option<u64>>,
    called: bool,
    gas: u64,
}

/// The exploration memo: the best gas seen per `(pc, depth, called)`, so
/// a state is re-explored only when it improves the bound. The key space
/// is exact; the container is a table instead of a hash map. `head[pc]`
/// names the row of the latest key seen at `pc` and `Row::next` chains
/// the earlier ones (both 1-based, 0 = none). Code the compiler emits
/// reaches every pc under one key, so a lookup is two indexed loads;
/// only bytes outside the backend can grow a chain. Rows exist for
/// reached pcs alone, so unreachable bytes — the `0xfe` runtime pad —
/// cost one zeroed word of `head` each and nothing else.
struct Memo {
    head: Vec<usize>,
    rows: Vec<Row>,
    /// Distinct pcs with at least one row.
    visited_pcs: usize,
}

struct Row {
    depth: usize,
    called: bool,
    gas: u64,
    next: usize,
}

impl Memo {
    fn new(code_len: usize) -> Memo {
        Memo { head: vec![0; code_len], rows: Vec::new(), visited_pcs: 0 }
    }

    /// Whether `st` is worth exploring: its key is new, or its gas beats
    /// the best recorded under the key. Either way the memo then holds
    /// `st.gas` for it.
    fn improves(&mut self, st: &State) -> bool {
        let first = self.head[st.pc];
        let mut link = first;
        while link != 0 {
            let row = &mut self.rows[link - 1];
            if row.depth == st.stack.len() && row.called == st.called {
                let better = st.gas > row.gas;
                row.gas = row.gas.max(st.gas);
                return better;
            }
            link = row.next;
        }
        self.visited_pcs += usize::from(first == 0);
        self.rows.push(Row { depth: st.stack.len(), called: st.called, gas: st.gas, next: first });
        self.head[st.pc] = self.rows.len();
        true
    }
}

/// Verifies a bytecode image from entry (pc 0).
///
/// # Errors
///
/// A [`VerifyError`] describing the first violation found.
pub fn verify(code: &[u8], cfg: &VerifyConfig) -> Result<BytecodeReport, VerifyError> {
    let mut jumpdests = JumpDests::new(code);
    let mut memo = Memo::new(code.len());
    let mut worklist = vec![State { pc: 0, stack: Vec::new(), called: false, gas: 0 }];
    let mut max_stack = 0usize;
    let mut worst_case_gas = 0u64;
    let mut steps = 0usize;
    let mut constant_sstore_keys: BTreeSet<u64> = BTreeSet::new();
    let mut unknown_sstore_pcs: BTreeSet<usize> = BTreeSet::new();

    while let Some(mut st) = worklist.pop() {
        steps += 1;
        if steps > STATE_BUDGET {
            return Err(VerifyError::StateBudgetExceeded);
        }
        loop {
            if st.pc >= code.len() {
                // Implicit STOP.
                worst_case_gas = worst_case_gas.max(st.gas);
                break;
            }
            if !memo.improves(&st) {
                break;
            }
            let byte = code[st.pc];
            let Some((op, variant)) = Op::decode(byte) else {
                return Err(VerifyError::InvalidOpcode { pc: st.pc, byte });
            };
            st.gas += conservative_op_gas(op, cfg.payload_bytes);
            let pc = st.pc;
            let mut next_pc = pc + 1;

            // The item `below` the top, when it is there and known.
            let peek = |st: &State, below: usize| {
                st.stack.len().checked_sub(below + 1).and_then(|at| st.stack[at])
            };
            let pop = |st: &mut State, n: usize| -> Result<(), VerifyError> {
                let kept = st.stack.len().checked_sub(n);
                st.stack.truncate(kept.ok_or(VerifyError::StackUnderflow { pc })?);
                Ok(())
            };

            match op {
                Op::Stop | Op::Return | Op::Revert => {
                    if op != Op::Stop {
                        pop(&mut st, 2)?;
                    }
                    worst_case_gas = worst_case_gas.max(st.gas);
                    break;
                }
                Op::Push1 => {
                    let width = variant as usize + 1;
                    let imm = code.get(pc + 1..pc + 1 + width);
                    let value = imm.and_then(|bytes| {
                        (width <= 8)
                            .then(|| bytes.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b)))
                    });
                    st.stack.push(value);
                    next_pc = pc + 1 + width;
                }
                Op::Dup1 => {
                    let n = variant as usize + 1;
                    if st.stack.len() < n {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    let copied = st.stack[st.stack.len() - n];
                    st.stack.push(copied);
                }
                Op::Swap1 => {
                    let n = variant as usize + 1;
                    if st.stack.len() < n + 1 {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    let top = st.stack.len() - 1;
                    st.stack.swap(top, top - n);
                }
                Op::Jump => {
                    let target = peek(&st, 0);
                    pop(&mut st, 1)?;
                    let Some(t) = target else {
                        return Err(VerifyError::UnknownJumpTarget { pc });
                    };
                    let t = t as usize;
                    if !jumpdests.is_valid(t) {
                        return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                    }
                    next_pc = t;
                }
                Op::JumpI => {
                    let (target, cond) = (peek(&st, 0), peek(&st, 1));
                    pop(&mut st, 2)?;
                    let Some(t) = target else {
                        return Err(VerifyError::UnknownJumpTarget { pc });
                    };
                    let t = t as usize;
                    match cond {
                        Some(0) => {} // fall through only
                        Some(_) => {
                            if !jumpdests.is_valid(t) {
                                return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                            }
                            next_pc = t;
                        }
                        None => {
                            if !jumpdests.is_valid(t) {
                                return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                            }
                            // Fork: taken branch queued, fallthrough
                            // continues inline.
                            let mut taken = st.clone();
                            taken.pc = t;
                            worklist.push(taken);
                        }
                    }
                }
                Op::SStore => {
                    let key_val = peek(&st, 0);
                    pop(&mut st, 2)?;
                    match key_val {
                        Some(k) => {
                            constant_sstore_keys.insert(k);
                        }
                        None => {
                            unknown_sstore_pcs.insert(pc);
                        }
                    }
                    if st.called {
                        let allowed = match key_val {
                            Some(k) => cfg.allowed_post_call_sstore_keys.contains(&k),
                            None => false,
                        };
                        if !allowed {
                            return Err(VerifyError::StorePastCall { pc });
                        }
                    }
                }
                Op::Call => {
                    pop(&mut st, 7)?;
                    st.stack.push(None);
                    st.called = true;
                }
                _ => {
                    let (pops, pushes) = stack_effect(op);
                    pop(&mut st, pops)?;
                    for _ in 0..pushes {
                        st.stack.push(None);
                    }
                }
            }
            if st.stack.len() > MAX_STACK {
                return Err(VerifyError::StackOverflow { pc });
            }
            max_stack = max_stack.max(st.stack.len());
            st.pc = next_pc;
        }
    }

    Ok(BytecodeReport {
        max_stack,
        worst_case_gas,
        visited_pcs: memo.visited_pcs,
        constant_sstore_keys: constant_sstore_keys.into_iter().collect(),
        unknown_key_sstores: unknown_sstore_pcs.len(),
    })
}

/// `(pops, pushes)` for the uniform opcodes (control flow, pushes,
/// dups, swaps, `CALL` and halts are handled specially).
fn stack_effect(op: Op) -> (usize, usize) {
    match op {
        Op::Add
        | Op::Mul
        | Op::Sub
        | Op::Div
        | Op::Mod
        | Op::Exp
        | Op::Lt
        | Op::Gt
        | Op::Eq
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::Shr
        | Op::Keccak256 => (2, 1),
        Op::AddMod | Op::MulMod => (3, 1),
        Op::IsZero | Op::Not | Op::CallDataLoad | Op::MLoad | Op::SLoad => (1, 1),
        Op::Address
        | Op::SelfBalance
        | Op::Caller
        | Op::CallValue
        | Op::CallDataSize
        | Op::Timestamp
        | Op::Number => (0, 1),
        Op::CallDataCopy | Op::CodeCopy | Op::Log1 => (3, 0),
        Op::Pop => (1, 0),
        Op::MStore | Op::Log0 => (2, 0),
        Op::JumpDest => (0, 0),
        // Handled in the main match; unreachable here.
        Op::Stop
        | Op::Return
        | Op::Revert
        | Op::Push1
        | Op::Dup1
        | Op::Swap1
        | Op::Jump
        | Op::JumpI
        | Op::SStore
        | Op::Call => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::Asm;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// Jumpdest analysis: `0x5b` bytes outside push immediates.
    fn valid_jumpdests(code: &[u8]) -> Vec<bool> {
        let mut valid = vec![false; code.len()];
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            if byte == Op::JumpDest as u8 {
                valid[pc] = true;
            }
            pc += 1;
            if (0x60..=0x7f).contains(&byte) {
                pc += (byte - 0x60) as usize + 1;
            }
        }
        valid
    }

    /// The verifier as it stood before its memo became a table: best gas in
    /// a hash map keyed `(pc, depth, called)`, visited pcs in a hash set, an
    /// eager jumpdest sweep. Kept verbatim as the differential oracle.
    fn reference_verify(code: &[u8], cfg: &VerifyConfig) -> Result<BytecodeReport, VerifyError> {
        let jumpdests = valid_jumpdests(code);
        // Best gas seen per (pc, depth, called); a state is re-explored only
        // when it improves the bound.
        let mut best: HashMap<(usize, usize, bool), u64> = HashMap::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut worklist = vec![State { pc: 0, stack: Vec::new(), called: false, gas: 0 }];
        let mut max_stack = 0usize;
        let mut worst_case_gas = 0u64;
        let mut steps = 0usize;
        let mut constant_sstore_keys: HashSet<u64> = HashSet::new();
        let mut unknown_sstore_pcs: HashSet<usize> = HashSet::new();

        while let Some(mut st) = worklist.pop() {
            steps += 1;
            if steps > STATE_BUDGET {
                return Err(VerifyError::StateBudgetExceeded);
            }
            loop {
                if st.pc >= code.len() {
                    // Implicit STOP.
                    worst_case_gas = worst_case_gas.max(st.gas);
                    break;
                }
                let key = (st.pc, st.stack.len(), st.called);
                match best.get(&key) {
                    Some(&g) if g >= st.gas => break,
                    _ => {
                        best.insert(key, st.gas);
                    }
                }
                visited.insert(st.pc);
                let byte = code[st.pc];
                let Some((op, variant)) = Op::decode(byte) else {
                    return Err(VerifyError::InvalidOpcode { pc: st.pc, byte });
                };
                st.gas += conservative_op_gas(op, cfg.payload_bytes);
                let pc = st.pc;
                let mut next_pc = pc + 1;

                let pop = |st: &mut State, n: usize| -> Result<Vec<Option<u64>>, VerifyError> {
                    if st.stack.len() < n {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    let at = st.stack.len() - n;
                    Ok(st.stack.split_off(at).into_iter().rev().collect())
                };

                match op {
                    Op::Stop | Op::Return | Op::Revert => {
                        if op != Op::Stop {
                            pop(&mut st, 2)?;
                        }
                        worst_case_gas = worst_case_gas.max(st.gas);
                        break;
                    }
                    Op::Push1 => {
                        let width = variant as usize + 1;
                        let imm = code.get(pc + 1..pc + 1 + width);
                        let value = imm.and_then(|bytes| {
                            (width <= 8).then(|| {
                                bytes.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b))
                            })
                        });
                        st.stack.push(value);
                        next_pc = pc + 1 + width;
                    }
                    Op::Dup1 => {
                        let n = variant as usize + 1;
                        if st.stack.len() < n {
                            return Err(VerifyError::StackUnderflow { pc });
                        }
                        let copied = st.stack[st.stack.len() - n];
                        st.stack.push(copied);
                    }
                    Op::Swap1 => {
                        let n = variant as usize + 1;
                        if st.stack.len() < n + 1 {
                            return Err(VerifyError::StackUnderflow { pc });
                        }
                        let top = st.stack.len() - 1;
                        st.stack.swap(top, top - n);
                    }
                    Op::Jump => {
                        let target = pop(&mut st, 1)?[0];
                        let Some(t) = target else {
                            return Err(VerifyError::UnknownJumpTarget { pc });
                        };
                        let t = t as usize;
                        if !jumpdests.get(t).copied().unwrap_or(false) {
                            return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                        }
                        next_pc = t;
                    }
                    Op::JumpI => {
                        let popped = pop(&mut st, 2)?;
                        let (target, cond) = (popped[0], popped[1]);
                        let Some(t) = target else {
                            return Err(VerifyError::UnknownJumpTarget { pc });
                        };
                        let t = t as usize;
                        match cond {
                            Some(0) => {} // fall through only
                            Some(_) => {
                                if !jumpdests.get(t).copied().unwrap_or(false) {
                                    return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                                }
                                next_pc = t;
                            }
                            None => {
                                if !jumpdests.get(t).copied().unwrap_or(false) {
                                    return Err(VerifyError::InvalidJumpTarget { pc, target: t });
                                }
                                // Fork: taken branch queued, fallthrough
                                // continues inline.
                                let mut taken = st.clone();
                                taken.pc = t;
                                worklist.push(taken);
                            }
                        }
                    }
                    Op::SStore => {
                        let popped = pop(&mut st, 2)?;
                        let key_val = popped[0];
                        match key_val {
                            Some(k) => {
                                constant_sstore_keys.insert(k);
                            }
                            None => {
                                unknown_sstore_pcs.insert(pc);
                            }
                        }
                        if st.called {
                            let allowed = match key_val {
                                Some(k) => cfg.allowed_post_call_sstore_keys.contains(&k),
                                None => false,
                            };
                            if !allowed {
                                return Err(VerifyError::StorePastCall { pc });
                            }
                        }
                    }
                    Op::Call => {
                        pop(&mut st, 7)?;
                        st.stack.push(None);
                        st.called = true;
                    }
                    _ => {
                        let (pops, pushes) = stack_effect(op);
                        pop(&mut st, pops)?;
                        for _ in 0..pushes {
                            st.stack.push(None);
                        }
                    }
                }
                if st.stack.len() > MAX_STACK {
                    return Err(VerifyError::StackOverflow { pc });
                }
                max_stack = max_stack.max(st.stack.len());
                st.pc = next_pc;
            }
        }

        let mut constant_sstore_keys: Vec<u64> = constant_sstore_keys.into_iter().collect();
        constant_sstore_keys.sort_unstable();
        Ok(BytecodeReport {
            max_stack,
            worst_case_gas,
            visited_pcs: visited.len(),
            constant_sstore_keys,
            unknown_key_sstores: unknown_sstore_pcs.len(),
        })
    }

    fn cfg() -> VerifyConfig<'static> {
        VerifyConfig { allowed_post_call_sstore_keys: &[], payload_bytes: 0 }
    }

    #[test]
    fn accepts_straight_line_return() {
        let code = Asm::new()
            .push_u64(42)
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let report = verify(&code, &cfg()).unwrap();
        assert!(report.worst_case_gas > 0);
        assert_eq!(report.max_stack, 2);
    }

    #[test]
    fn rejects_stack_underflow() {
        let code = Asm::new().op(Op::Add).build();
        assert_eq!(verify(&code, &cfg()), Err(VerifyError::StackUnderflow { pc: 0 }));
    }

    #[test]
    fn rejects_jump_into_push_immediate() {
        // PUSH2 0x5b00 disguises a fake JUMPDEST inside an immediate.
        let code =
            Asm::new().push_bytes(&[0x5b, 0x00]).op(Op::Pop).push_u64(1).op(Op::Jump).build();
        assert!(matches!(verify(&code, &cfg()), Err(VerifyError::InvalidJumpTarget { .. })));
    }

    #[test]
    fn rejects_computed_jump() {
        let code = Asm::new().op(Op::CallValue).op(Op::Jump).build();
        assert!(matches!(verify(&code, &cfg()), Err(VerifyError::UnknownJumpTarget { pc: 1 })));
    }

    #[test]
    fn never_decodes_bytes_behind_a_halt() {
        let mut code = Asm::new().push_u64(0).push_u64(0).op(Op::Revert).build();
        code.extend(vec![0xfeu8; 64]); // invalid pad, unreachable
        assert!(verify(&code, &cfg()).is_ok());
    }

    #[test]
    fn rejects_reachable_invalid_opcode() {
        let code = vec![0xfe];
        assert_eq!(verify(&code, &cfg()), Err(VerifyError::InvalidOpcode { pc: 0, byte: 0xfe }));
    }

    #[test]
    fn rejects_store_after_call_outside_allow_list() {
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(1)
            .op(Op::Caller)
            .push_u64(0)
            .op(Op::Call)
            .op(Op::Pop)
            .push_u64(7)
            .push_u64(5) // SSTORE key 5: not allowed
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        assert!(matches!(verify(&code, &cfg()), Err(VerifyError::StorePastCall { .. })));
        // The same image passes when key 5 is allow-listed.
        let cfg_allow = VerifyConfig { allowed_post_call_sstore_keys: &[5], payload_bytes: 0 };
        assert!(verify(&code, &cfg_allow).is_ok());
    }

    #[test]
    fn store_before_call_is_fine() {
        let code = Asm::new().push_u64(7).push_u64(5).op(Op::SStore).op(Op::Stop).build();
        assert!(verify(&code, &cfg()).is_ok());
    }

    #[test]
    fn reports_observed_sstore_keys() {
        let code = Asm::new()
            .push_u64(1)
            .push_u64(9)
            .op(Op::SStore)
            .push_u64(1)
            .push_u64(3)
            .op(Op::SStore)
            .push_u64(1)
            .op(Op::CallValue) // unknown key
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        let report = verify(&code, &cfg()).unwrap();
        assert_eq!(report.constant_sstore_keys, vec![3, 9]);
        assert_eq!(report.unknown_key_sstores, 1);
    }

    #[test]
    fn branch_forks_explore_both_paths() {
        let mut asm = Asm::new();
        let target = asm.new_label();
        // if callvalue != 0 jump; both arms halt.
        let code = asm
            .op(Op::CallValue)
            .push_label(target)
            .op(Op::JumpI)
            .push_u64(0)
            .push_u64(0)
            .op(Op::Revert)
            .bind(target)
            .op(Op::Stop)
            .build();
        let report = verify(&code, &cfg()).unwrap();
        // The revert arm (two pushes) costs more than the stop arm.
        assert!(report.worst_case_gas >= 6);
    }

    #[test]
    fn worst_path_bounded_by_linear_sum() {
        let mut asm = Asm::new();
        let a = asm.new_label();
        let code = asm
            .op(Op::CallValue)
            .push_label(a)
            .op(Op::JumpI)
            .push_u64(1)
            .push_u64(2)
            .op(Op::SStore)
            .op(Op::Stop)
            .bind(a)
            .op(Op::Stop)
            .build();
        let report = verify(&code, &cfg()).unwrap();
        let linear: u64 = {
            let mut total = 0;
            let mut pc = 0usize;
            while pc < code.len() {
                let (op, variant) = Op::decode(code[pc]).unwrap();
                pc += 1;
                if op == Op::Push1 {
                    pc += variant as usize + 1;
                }
                total += conservative_op_gas(op, 0);
            }
            total
        };
        assert!(report.worst_case_gas <= linear);
    }

    /// Both verifiers on one image: whole `Result`s must be equal.
    fn agree(code: &[u8], cfg: &VerifyConfig) -> Result<BytecodeReport, VerifyError> {
        let got = verify(code, cfg);
        assert_eq!(got, reference_verify(code, cfg), "code {code:02x?}");
        got
    }

    /// A piece of a generated image. Jumps appear only inside `Branch`
    /// and only forwards, and pushes only whole, so every image is
    /// aligned and loop-free: both verifiers terminate on it.
    #[derive(Debug, Clone)]
    enum Piece {
        /// `PUSH1 k`, or `CALLVALUE` for an unknown word.
        Word(Option<u8>),
        /// One byte as it is: any opcode but a jump or a push, or no
        /// opcode at all.
        Byte(u8),
        /// `PUSH1 1; <key>; SSTORE`.
        Store(Option<u8>),
        /// Seven zero arguments, `CALL`, `POP`.
        Call,
        /// `<cond>; JUMPI else; then…; JUMP end | STOP; else: otherwise…; end:`
        Branch { cond: Option<u8>, then: Vec<Piece>, otherwise: Vec<Piece>, joins: bool },
    }

    fn emit(code: &mut Vec<u8>, pieces: &[Piece]) {
        fn word(code: &mut Vec<u8>, known: Option<u8>) {
            match known {
                Some(k) => code.extend([0x60, k]),
                None => code.push(Op::CallValue as u8),
            }
        }
        /// `PUSH2 0`, returning where the target is patched in.
        fn push_target(code: &mut Vec<u8>) -> usize {
            code.extend([0x61, 0, 0]);
            code.len() - 2
        }
        /// A `JUMPDEST` here, named by the `PUSH2` at `at`.
        fn bind(code: &mut Vec<u8>, at: usize) {
            let here = u16::try_from(code.len()).unwrap().to_be_bytes();
            code[at..at + 2].copy_from_slice(&here);
            code.push(Op::JumpDest as u8);
        }
        for piece in pieces {
            match piece {
                Piece::Word(known) => word(code, *known),
                Piece::Byte(byte) => code.push(*byte),
                Piece::Store(key) => {
                    word(code, Some(1));
                    word(code, *key);
                    code.push(Op::SStore as u8);
                }
                Piece::Call => {
                    (0..7).for_each(|_| word(code, Some(0)));
                    code.extend([Op::Call as u8, Op::Pop as u8]);
                }
                Piece::Branch { cond, then, otherwise, joins } => {
                    word(code, *cond);
                    let to_else = push_target(code);
                    code.push(Op::JumpI as u8);
                    emit(code, then);
                    let to_end = joins.then(|| push_target(code));
                    code.push(if *joins { Op::Jump } else { Op::Stop } as u8);
                    bind(code, to_else);
                    emit(code, otherwise);
                    if let Some(at) = to_end {
                        bind(code, at);
                    }
                }
            }
        }
    }

    fn image(pieces: &[Piece]) -> Vec<u8> {
        let mut code = Vec::new();
        emit(&mut code, pieces);
        code
    }

    /// A choice among `options`, each as likely as its weight.
    fn weighted<T>(options: Vec<(usize, BoxedStrategy<T>)>) -> Union<T> {
        Union::new(options.into_iter().flat_map(|(weight, option)| vec![option; weight]).collect())
    }

    /// A word that is known `known` times in four.
    fn word(known: usize) -> BoxedStrategy<Option<u8>> {
        weighted(vec![(known, (0u8..8).prop_map(Some).boxed()), (4 - known, Just(None).boxed())])
            .boxed()
    }

    fn piece() -> BoxedStrategy<Piece> {
        let plain = prop_oneof![
            Just(Op::Pop),
            Just(Op::Add),
            Just(Op::IsZero),
            Just(Op::Dup1),
            Just(Op::Swap1),
            Just(Op::SLoad),
            Just(Op::JumpDest),
        ]
        .prop_map(|op| Piece::Byte(op as u8));
        // Dense in opcodes below 0xa0; the rest is invalid.
        let raw = (0u8..0xb0).prop_map(|byte| match byte {
            0x56 | 0x57 | 0x60..=0x7f => Piece::Byte(Op::Stop as u8),
            byte => Piece::Byte(byte),
        });
        let leaf = weighted(vec![
            (4, word(3).prop_map(Piece::Word).boxed()),
            (3, plain.boxed()),
            (2, word(3).prop_map(Piece::Store).boxed()),
            (1, Just(Piece::Call).boxed()),
            (1, raw.boxed()),
        ]);
        leaf.prop_recursive(2, 48, 4, |inner| {
            let arm = || collection::vec(inner.clone(), 0..4);
            (word(1), arm(), arm(), 0u8..4).prop_map(|(cond, then, otherwise, joins)| {
                Piece::Branch { cond, then, otherwise, joins: joins > 0 }
            })
        })
    }

    /// The memo's edges, one image each: against the reference, and
    /// against the verdict only an exact `(pc, depth, called)` key space
    /// reaches.
    #[test]
    fn memo_edges_agree_with_the_reference() {
        use Piece::{Branch, Byte, Call, Store, Word};
        // The fallthrough arm (`then`) is explored first, the taken arm
        // (`otherwise`) later; both meet at the join.
        let diamond = |then: Vec<Piece>, otherwise: Vec<Piece>| Branch {
            cond: None,
            then,
            otherwise,
            joins: true,
        };
        let strict = cfg();
        let lenient = VerifyConfig { allowed_post_call_sstore_keys: &[5], payload_bytes: 0 };

        // Later and dearer: everything past the join is explored a second
        // time, and the report carries the dear path.
        let adds = vec![Word(Some(1)), Byte(Op::Add as u8), Word(Some(1)), Byte(Op::Add as u8)];
        let code = image(&[Word(Some(0)), diamond(vec![], adds), Store(Some(2))]);
        let dear_path = [
            vec![Op::Push1, Op::CallValue, Op::Push1, Op::JumpI, Op::JumpDest],
            vec![Op::Push1, Op::Add, Op::Push1, Op::Add, Op::JumpDest],
            vec![Op::Push1, Op::Push1, Op::SStore],
        ];
        let report = agree(&code, &strict).unwrap();
        let gas = |op: &Op| conservative_op_gas(*op, 0);
        assert_eq!(report.worst_case_gas, dear_path.iter().flatten().map(gas).sum::<u64>());
        assert_eq!(report.visited_pcs, dear_path.iter().flatten().count() + 2);

        // Later, cheaper and shallower: a second depth at the join's pc is
        // a second key, not a dominated state, and its underflow is found.
        let code = image(&[diamond(vec![Word(Some(9))], vec![]), Byte(Op::Pop as u8)]);
        let at = code.len() - 1;
        assert_eq!(agree(&code, &strict), Err(VerifyError::StackUnderflow { pc: at }));

        // Later, cheaper and past a CALL: `called` is part of the key, so
        // the store behind the join is judged on the path that called.
        let stores = vec![Store(Some(1)), Store(Some(1)), Store(Some(1))];
        let code = image(&[diamond(stores, vec![Call]), Store(Some(5))]);
        let at = code.len() - 1;
        assert_eq!(agree(&code, &strict), Err(VerifyError::StorePastCall { pc: at }));
        assert_eq!(agree(&code, &lenient).unwrap().constant_sstore_keys, vec![1, 5]);
        // An unknown key is on no allow-list.
        let code = image(&[Call, Store(None)]);
        let at = code.len() - 1;
        assert_eq!(agree(&code, &lenient), Err(VerifyError::StorePastCall { pc: at }));

        // A backward JUMPI queues one dearer state per round: the budget of
        // worklist pops ends it.
        let mut spin = Asm::new();
        let top = spin.new_label();
        let spin = spin.bind(top).op(Op::CallValue).jump_if(top).build();
        assert_eq!(agree(&spin, &strict), Err(VerifyError::StateBudgetExceeded));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bytes from anywhere: same verdict, same report, no panic.
        #[test]
        fn arbitrary_bytes_agree_with_the_reference(
            code in collection::vec(any::<u8>(), 0..513),
            allow in any::<bool>(),
            payload_bytes in 0u64..96,
        ) {
            let allowed: &[u64] = if allow { &[0, 5] } else { &[] };
            let _ = agree(&code, &VerifyConfig { allowed_post_call_sstore_keys: allowed, payload_bytes });
        }

        /// Loop-free images with joins: arms of different cost, depth and
        /// call history meet at one pc, so states are re-explored past the
        /// join and one pc carries several memo keys.
        #[test]
        fn structured_images_agree_with_the_reference(
            pieces in collection::vec(piece(), 0..10),
            allow in any::<bool>(),
            payload_bytes in 0u64..96,
        ) {
            let allowed: &[u64] = if allow { &[0, 1, 2, 3, 4, 5] } else { &[] };
            let code = image(&[vec![Piece::Word(Some(7)); 3], pieces].concat());
            let _ = agree(&code, &VerifyConfig { allowed_post_call_sstore_keys: allowed, payload_bytes });
        }
    }
}
