//! Pre-decoded program representation.
//!
//! The interpreter historically re-derived everything from raw bytes on
//! every call: a `HashSet` of jump destinations, then byte-at-a-time
//! `Op::decode` in the dispatch loop, then bounds-checked immediate reads
//! for every `PUSH`. [`EvmProgram::decode`] hoists all of that to
//! validation time: one pass turns the bytecode into a `Vec<Instr>` of
//! (op, variant, inline immediate) entries, resolves `JUMPDEST` byte
//! offsets to instruction indices, and fuses the hottest adjacent pairs —
//! `PUSH`+op and `DUP`+op — into superinstructions so the run loop
//! dispatches once (and charges gas once) where it used to dispatch
//! twice.
//!
//! Decoding is semantics-preserving, not validating: unknown opcode
//! bytes become [`Instr::Invalid`] and a `PUSH` whose immediate runs past
//! the end of code becomes [`Instr::TruncatedPush`], both of which fail
//! only if execution *reaches* them — dead bytes after a terminal op
//! must not reject a program the byte-walking interpreter accepted.
//!
//! Fusion safety: a jump may only land on a `JUMPDEST` byte, and a
//! `JUMPDEST` is never fused as the second element of a pair, so no
//! control flow can enter the middle of a superinstruction. Charging the
//! pair's combined static gas up front is observationally identical to
//! charging each half in turn because the only effect between the two
//! charge points is a local stack push/dup, which an out-of-gas halt
//! discards anyway.

use crate::opcode::Op;
use crate::word::Word;
use std::collections::HashMap;

/// One pre-decoded instruction (possibly a fused pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// A plain opcode with its family variant (Dup/Swap/… offset).
    Plain(Op, u8),
    /// A `PUSH` with its immediate decoded inline.
    Push(Word),
    /// Fused `PUSH` immediate followed by a non-control opcode.
    PushOp(Word, Op, u8),
    /// Fused `PUSH dest; JUMP` with the target pre-resolved to an
    /// instruction index (`None` = not a `JUMPDEST`, fails if reached).
    PushJump {
        /// The byte destination (for the error message).
        dest: usize,
        /// Pre-resolved instruction index of the target.
        target: Option<u32>,
    },
    /// Fused `PUSH dest; JUMPI`, conditionally taken.
    PushJumpI {
        /// The byte destination (for the error message).
        dest: usize,
        /// Pre-resolved instruction index of the target.
        target: Option<u32>,
    },
    /// Fused `DUPn` followed by another opcode.
    DupOp(u8, Op, u8),
    /// An unknown opcode byte — errors with `InvalidOpcode` if reached.
    Invalid(u8),
    /// A `PUSH` whose immediate runs past the end of code — charges the
    /// push gas, then errors with `InvalidOpcode` if reached (matching
    /// the byte-walking interpreter exactly).
    TruncatedPush(u8),
}

/// A contract's code, decoded once and shared (via the
/// [`crate::cache::CodeCache`]) across every call, speculation attempt
/// and execution mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvmProgram {
    code: Vec<u8>,
    instrs: Vec<Instr>,
    /// `JUMPDEST` byte offset → instruction index, for dynamic jumps.
    jumpdests: HashMap<usize, u32>,
}

/// Decoder-internal: one instruction before fusion, tagged with its byte
/// offset.
enum Raw {
    Op(Op, u8),
    Push(Word),
    Invalid(u8),
    TruncatedPush(u8),
}

/// Whether `op` may be the second element of a fused pair. `JUMPDEST` is
/// excluded because it is a jump target (control flow could enter the
/// middle of the pair); `PUSH` never appears here (it decodes to
/// [`Raw::Push`], not [`Raw::Op`]).
fn fusable_second(op: Op) -> bool {
    op != Op::JumpDest
}

impl EvmProgram {
    /// Decodes `code` in one pass: instruction boundaries, inline push
    /// immediates, jumpdest resolution, then superinstruction fusion.
    pub fn decode(code: Vec<u8>) -> EvmProgram {
        // Pass 1: instruction boundaries and raw decode.
        let mut raw: Vec<(usize, Raw)> = Vec::with_capacity(code.len() / 2);
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            let at = pc;
            pc += 1;
            match Op::decode(byte) {
                Some((Op::Push1, variant)) => {
                    let n = variant as usize + 1;
                    if pc + n > code.len() {
                        raw.push((at, Raw::TruncatedPush(byte)));
                        break;
                    }
                    raw.push((at, Raw::Push(Word::from_be_slice(&code[pc..pc + n]))));
                    pc += n;
                }
                Some((op, variant)) => raw.push((at, Raw::Op(op, variant))),
                None => raw.push((at, Raw::Invalid(byte))),
            }
        }

        // Pass 2: greedy left-to-right pair fusion.
        let mut instrs: Vec<Instr> = Vec::with_capacity(raw.len());
        let mut jumpdests: HashMap<usize, u32> = HashMap::new();
        let mut i = 0usize;
        while i < raw.len() {
            let (at, item) = &raw[i];
            let next_op = match raw.get(i + 1) {
                Some((_, Raw::Op(op, variant))) if fusable_second(*op) => Some((*op, *variant)),
                _ => None,
            };
            let fused = match (item, next_op) {
                (Raw::Push(imm), Some((Op::Jump, _))) => {
                    Some(Instr::PushJump { dest: imm.as_u64() as usize, target: None })
                }
                (Raw::Push(imm), Some((Op::JumpI, _))) => {
                    Some(Instr::PushJumpI { dest: imm.as_u64() as usize, target: None })
                }
                (Raw::Push(imm), Some((op, variant))) => Some(Instr::PushOp(*imm, op, variant)),
                (Raw::Op(Op::Dup1, n), Some((op, variant))) => Some(Instr::DupOp(*n, op, variant)),
                _ => None,
            };
            let instr = match fused {
                Some(instr) => {
                    i += 2;
                    instr
                }
                None => {
                    let instr = match item {
                        Raw::Op(Op::JumpDest, _) => {
                            jumpdests.insert(*at, instrs.len() as u32);
                            Instr::Plain(Op::JumpDest, 0)
                        }
                        Raw::Op(op, variant) => Instr::Plain(*op, *variant),
                        Raw::Push(imm) => Instr::Push(*imm),
                        Raw::Invalid(byte) => Instr::Invalid(*byte),
                        Raw::TruncatedPush(byte) => Instr::TruncatedPush(*byte),
                    };
                    i += 1;
                    instr
                }
            };
            instrs.push(instr);
        }

        // Pass 3: resolve fused jump targets against the finished table.
        for instr in &mut instrs {
            match instr {
                Instr::PushJump { dest, target } | Instr::PushJumpI { dest, target } => {
                    *target = jumpdests.get(dest).copied();
                }
                _ => {}
            }
        }

        EvmProgram { code, instrs, jumpdests }
    }

    /// The raw bytecode (still needed by `CODECOPY`).
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The decoded instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Resolves a dynamic jump's byte destination to an instruction
    /// index, if it lands on a `JUMPDEST`.
    pub fn jump_target(&self, dest: usize) -> Option<u32> {
        self.jumpdests.get(&dest).copied()
    }

    /// Number of fused superinstructions (telemetry for the benches).
    pub fn fused_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|instr| {
                matches!(
                    instr,
                    Instr::PushOp(..)
                        | Instr::PushJump { .. }
                        | Instr::PushJumpI { .. }
                        | Instr::DupOp(..)
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::Asm;

    #[test]
    fn fuses_push_pairs_and_resolves_jumps() {
        // JUMPDEST; PUSH 1; PUSH 2; ADD; POP; PUSH 0; JUMP
        let mut asm = Asm::new();
        let top = asm.new_label();
        let code = asm.bind(top).push_u64(1).push_u64(2).op(Op::Add).op(Op::Pop).jump(top).build();
        let program = EvmProgram::decode(code);
        assert!(program.fused_count() >= 2, "push+add and push+jump must fuse");
        let jump = program
            .instrs()
            .iter()
            .find_map(|instr| match instr {
                Instr::PushJump { dest, target } => Some((*dest, *target)),
                _ => None,
            })
            .expect("fused jump");
        assert_eq!(jump.0, 0, "loop head at byte 0");
        assert_eq!(jump.1, Some(0), "jumpdest is instruction 0");
        assert_eq!(program.jump_target(0), Some(0));
    }

    #[test]
    fn jumpdest_is_never_fused_as_second_element() {
        // PUSH 7; JUMPDEST — the JUMPDEST is a live jump target and must
        // stay its own instruction.
        let code = Asm::new().push_u64(7).build();
        let mut code = code;
        code.push(Op::JumpDest as u8);
        let program = EvmProgram::decode(code.clone());
        assert_eq!(program.fused_count(), 0);
        let dest = code.len() - 1;
        assert!(program.jump_target(dest).is_some());
    }

    #[test]
    fn dead_invalid_bytes_decode_without_rejecting() {
        // STOP followed by garbage: decoding must succeed, with the
        // garbage reachable only as explicit Invalid instructions.
        let program = EvmProgram::decode(vec![Op::Stop as u8, 0xfe, 0x05]);
        assert_eq!(program.instrs().len(), 3);
        assert!(matches!(program.instrs()[1], Instr::Invalid(0xfe)));
        assert!(matches!(program.instrs()[2], Instr::Invalid(0x05)));
    }

    #[test]
    fn truncated_push_is_preserved_not_rejected() {
        // PUSH32 with only one immediate byte present.
        let program = EvmProgram::decode(vec![0x7f, 0xaa]);
        assert_eq!(program.instrs().len(), 1);
        assert!(matches!(program.instrs()[0], Instr::TruncatedPush(0x7f)));
    }

    #[test]
    fn push_immediates_never_spawn_jumpdests() {
        // PUSH2 0x5b5b: the 0x5b bytes are immediate data, not JUMPDESTs.
        let program = EvmProgram::decode(vec![0x61, 0x5b, 0x5b]);
        assert_eq!(program.jump_target(1), None);
        assert_eq!(program.jump_target(2), None);
    }
}
