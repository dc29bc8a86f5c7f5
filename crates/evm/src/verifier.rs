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
//!   conservative analysis, so the two bounds are comparable.

use crate::gas;
use crate::opcode::Op;
use std::collections::{HashMap, HashSet};

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
/// the language's straight-line analysis uses, so path bounds and
/// linear bounds are directly comparable.
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

/// An abstract machine state: known-constant stack slots, whether a
/// `CALL` already happened on this path, and the gas consumed so far.
#[derive(Debug, Clone)]
struct State {
    pc: usize,
    stack: Vec<Option<u64>>,
    called: bool,
    gas: u64,
}

/// Verifies a bytecode image from entry (pc 0).
///
/// # Errors
///
/// A [`VerifyError`] describing the first violation found.
pub fn verify(code: &[u8], cfg: &VerifyConfig) -> Result<BytecodeReport, VerifyError> {
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
}
