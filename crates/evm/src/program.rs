//! Pre-decoded program representation.
//!
//! The interpreter historically re-derived everything from raw bytes on
//! every call: a `HashSet` of jump destinations, then byte-at-a-time
//! `Op::decode` in the dispatch loop, then bounds-checked immediate reads
//! for every `PUSH`. [`EvmProgram::decode`] hoists all of that to
//! validation time: one pass turns the bytecode into a `Vec<Instr>` — one
//! (op, variant) or inline `PUSH` immediate per opcode — and records each
//! `JUMPDEST`'s instruction index in a table indexed by byte offset.
//!
//! Decoding is semantics-preserving, not validating: unknown opcode
//! bytes become [`Instr::Invalid`] and a `PUSH` whose immediate runs past
//! the end of code becomes [`Instr::TruncatedPush`], both of which fail
//! only if execution *reaches* them — dead bytes after a terminal op
//! must not reject a program the byte-walking interpreter accepted.

use crate::opcode::Op;
use crate::word::Word;

/// `EvmProgram::jumpdests` entry of a byte offset that is no `JUMPDEST`.
const NO_TARGET: u32 = u32::MAX;

/// One pre-decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Instr {
    /// A plain opcode with its family variant (Dup/Swap/… offset).
    Plain(Op, u8),
    /// A `PUSH` with its immediate decoded inline.
    Push(Word),
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
    /// Instruction index of the `JUMPDEST` at each byte offset of `code`
    /// (`NO_TARGET` everywhere else): a dynamic jump is one indexed load.
    jumpdests: Vec<u32>,
}

impl EvmProgram {
    /// Decodes `code` in one pass: instruction boundaries, inline push
    /// immediates and the `JUMPDEST` table.
    pub fn decode(code: Vec<u8>) -> EvmProgram {
        let mut instrs: Vec<Instr> = Vec::with_capacity(code.len() / 2);
        let mut jumpdests = vec![NO_TARGET; code.len()];
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            let at = pc;
            pc += 1;
            match Op::decode(byte) {
                Some((Op::Push1, variant)) => {
                    let n = variant as usize + 1;
                    if pc + n > code.len() {
                        instrs.push(Instr::TruncatedPush(byte));
                        break;
                    }
                    instrs.push(Instr::Push(Word::from_be_slice(&code[pc..pc + n])));
                    pc += n;
                }
                Some((Op::JumpDest, _)) => {
                    jumpdests[at] = instrs.len() as u32;
                    instrs.push(Instr::Plain(Op::JumpDest, 0));
                }
                Some((op, variant)) => instrs.push(Instr::Plain(op, variant)),
                None => instrs.push(Instr::Invalid(byte)),
            }
        }
        EvmProgram { code, instrs, jumpdests }
    }

    /// The raw bytecode (still needed by `CODECOPY`).
    pub(crate) fn code(&self) -> &[u8] {
        &self.code
    }

    /// The decoded instruction stream.
    pub(crate) fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Resolves a dynamic jump's byte destination to an instruction
    /// index, if it lands on a `JUMPDEST`.
    pub(crate) fn jump_target(&self, dest: usize) -> Option<u32> {
        self.jumpdests.get(dest).copied().filter(|target| *target != NO_TARGET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // PUSH2 0x5b5b; JUMPDEST: the first two 0x5b bytes are immediate
        // data, the third is a real target at instruction 1.
        let program = EvmProgram::decode(vec![0x61, 0x5b, 0x5b, 0x5b]);
        assert_eq!(program.jump_target(1), None);
        assert_eq!(program.jump_target(2), None);
        assert_eq!(program.jump_target(3), Some(1));
    }
}
