//! A small bytecode assembler used by the language backend and tests.

use crate::opcode::Op;
use crate::word::Word;

/// Size in bytes of the init-code wrapper emitted by
/// [`Asm::initcode`] after the constructor section.
pub const DEPLOY_WRAPPER_LEN: usize = 18;

/// A forward-referenceable jump label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Bytecode builder with label patching.
///
/// Jump targets are assembled as fixed-width `PUSH3` immediates so label
/// offsets can be patched after layout.
#[derive(Debug, Default, Clone)]
pub struct Asm {
    code: Vec<u8>,
    // (patch position, label id)
    fixups: Vec<(usize, usize)>,
    // label id -> resolved offset
    labels: Vec<Option<usize>>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Empties the assembler for reuse: its buffers keep their capacity.
    pub fn clear(&mut self) {
        self.code.clear();
        self.fixups.clear();
        self.labels.clear();
    }

    /// Appends a plain opcode.
    pub fn op(mut self, op: Op) -> Asm {
        self.code.push(op as u8);
        self
    }

    /// Pushes an immediate word using the smallest PUSH variant.
    pub fn push_word(mut self, w: Word) -> Asm {
        let bytes = w.to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(31);
        let imm = &bytes[first..];
        self.code.push(0x60 + (imm.len() as u8 - 1));
        self.code.extend_from_slice(imm);
        self
    }

    /// Pushes a `u64` immediate.
    pub fn push_u64(self, v: u64) -> Asm {
        self.push_word(Word::from_u64(v))
    }

    /// Pushes up to 32 raw bytes as an immediate.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty or longer than 32.
    pub fn push_bytes(mut self, bytes: &[u8]) -> Asm {
        assert!(!bytes.is_empty() && bytes.len() <= 32, "push immediate must be 1..=32 bytes");
        self.code.push(0x60 + (bytes.len() as u8 - 1));
        self.code.extend_from_slice(bytes);
        self
    }

    /// `DUPn` (n in 1..=16).
    pub fn dup(mut self, n: u8) -> Asm {
        assert!((1..=16).contains(&n));
        self.code.push(0x80 + n - 1);
        self
    }

    /// `SWAPn` (n in 1..=16).
    pub fn swap(mut self, n: u8) -> Asm {
        assert!((1..=16).contains(&n));
        self.code.push(0x90 + n - 1);
        self
    }

    /// Allocates a label for later placement.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Places a label here, emitting the `JUMPDEST` marker.
    pub fn bind(mut self, label: Label) -> Asm {
        self.labels[label.0] = Some(self.code.len());
        self.code.push(Op::JumpDest as u8);
        self
    }

    /// Pushes a label's offset (PUSH3, patched at build).
    pub fn push_label(mut self, label: Label) -> Asm {
        self.code.push(0x62); // PUSH3
        self.fixups.push((self.code.len(), label.0));
        self.code.extend_from_slice(&[0, 0, 0]);
        self
    }

    /// Unconditional jump to a label.
    pub fn jump(self, label: Label) -> Asm {
        self.push_label(label).op(Op::Jump)
    }

    /// Conditional jump to a label (consumes the condition under the
    /// target).
    pub fn jump_if(self, label: Label) -> Asm {
        self.push_label(label).op(Op::JumpI)
    }

    /// Finalizes the bytecode, patching all label references.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound or lies beyond PUSH3
    /// range.
    pub fn build(mut self) -> Vec<u8> {
        self.resolve();
        self.code
    }

    /// Patches every label reference in place and returns the code. The
    /// assembler keeps its labels, so it can still be
    /// [`splice`](Asm::splice)d into another one afterwards.
    ///
    /// # Panics
    ///
    /// As for [`Asm::build`].
    pub fn resolve(&mut self) -> &[u8] {
        for &(pos, label_id) in &self.fixups {
            let target = self.labels[label_id].expect("label bound before build");
            assert!(target <= 0xff_ffff, "label offset exceeds PUSH3 range");
            let bytes = (target as u32).to_be_bytes();
            self.code[pos..pos + 3].copy_from_slice(&bytes[1..]);
        }
        &self.code
    }

    /// Appends `other`'s code up to the offset its label `cut` is bound
    /// at. `other`'s labels are renumbered after this assembler's own and
    /// shifted by the code already here; references to `cut` become
    /// references to `to`. Every reference is a fixed-width `PUSH3`, so
    /// no byte of `other` moves.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is unbound in `other`.
    pub fn splice(mut self, other: &Asm, cut: Label, to: Label) -> Asm {
        let end = other.labels[cut.0].expect("cut label bound");
        let (shift, first) = (self.code.len(), self.labels.len());
        self.code.extend_from_slice(&other.code[..end]);
        self.labels.extend(other.labels.iter().map(|at| at.map(|at| at + shift)));
        self.fixups.extend(other.fixups.iter().filter(|(pos, _)| *pos < end).map(
            |&(pos, label_id)| {
                let label_id = if label_id == cut.0 { to.0 } else { first + label_id };
                (pos + shift, label_id)
            },
        ));
        self
    }

    /// Builds init code that runs `constructor` (straight-line storage
    /// initialisation) and then returns `runtime` as the deployed image —
    /// the `CREATE` protocol the real EVM uses.
    pub fn initcode(constructor: &[u8], runtime: &[u8]) -> Vec<u8> {
        let offset = constructor.len() + DEPLOY_WRAPPER_LEN;
        let len = runtime.len();
        assert!(len <= 0xff_ffff && offset <= 0xff_ffff, "runtime too large");
        let mut out = Vec::with_capacity(offset + len);
        out.extend_from_slice(constructor);
        // PUSH3 len, PUSH3 offset, PUSH1 0, CODECOPY
        out.push(0x62);
        out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
        out.push(0x62);
        out.extend_from_slice(&(offset as u32).to_be_bytes()[1..]);
        out.extend_from_slice(&[0x60, 0x00]);
        out.push(Op::CodeCopy as u8);
        // PUSH3 len, PUSH1 0, RETURN
        out.push(0x62);
        out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
        out.extend_from_slice(&[0x60, 0x00]);
        out.push(Op::Return as u8);
        debug_assert_eq!(out.len(), offset);
        out.extend_from_slice(runtime);
        out
    }

    /// Init code with an empty constructor.
    pub fn deploy_wrapper(runtime: &[u8]) -> Vec<u8> {
        Asm::initcode(&[], runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_push_width() {
        let code = Asm::new().push_u64(0xff).build();
        assert_eq!(code, vec![0x60, 0xff]);
        let code = Asm::new().push_u64(0x1234).build();
        assert_eq!(code, vec![0x61, 0x12, 0x34]);
    }

    #[test]
    fn zero_pushes_one_byte() {
        assert_eq!(Asm::new().push_u64(0).build(), vec![0x60, 0x00]);
    }

    #[test]
    fn labels_patch() {
        let mut asm = Asm::new();
        let target = asm.new_label();
        let code = asm.jump(target).op(Op::Stop).bind(target).op(Op::Stop).build();
        // PUSH3 xx xx xx JUMP STOP JUMPDEST STOP
        assert_eq!(code[4], Op::Jump as u8);
        let dest = u32::from_be_bytes([0, code[1], code[2], code[3]]) as usize;
        assert_eq!(code[dest], Op::JumpDest as u8);
    }

    /// A spliced fragment keeps its bytes: its own labels land shifted by
    /// the code before it, and its cut label becomes the host's.
    #[test]
    fn splice_shifts_labels_and_redirects_the_cut() {
        let mut fragment = Asm::new();
        let exit = fragment.new_label();
        let inner = fragment.new_label();
        let fragment =
            fragment.jump_if(exit).jump(inner).bind(inner).op(Op::Stop).bind(exit).op(Op::Return);
        let mut host = Asm::new();
        let shared = host.new_label();
        let host = host.op(Op::Stop).splice(&fragment, exit, shared).bind(shared).op(Op::Revert);
        let code = host.build();
        let target = |at: usize| u32::from_be_bytes([0, code[at], code[at + 1], code[at + 2]]);
        // STOP | PUSH3 shared JUMPI | PUSH3 inner JUMP | JUMPDEST STOP | JUMPDEST REVERT
        assert_eq!(code.len(), 1 + 5 + 5 + 2 + 2);
        assert_eq!(target(2), 13, "the cut label's reference lands on the host's label");
        assert_eq!(target(7), 11, "a fragment label is shifted by the host's code");
        assert_eq!(code[11], Op::JumpDest as u8);
    }

    #[test]
    fn wrapper_layout() {
        let runtime = vec![0x00u8; 7];
        let init = Asm::deploy_wrapper(&runtime);
        assert_eq!(init.len(), DEPLOY_WRAPPER_LEN + 7);
        assert_eq!(&init[DEPLOY_WRAPPER_LEN..], &runtime[..]);
    }

    #[test]
    #[should_panic(expected = "label bound")]
    fn unbound_label_panics() {
        let mut asm = Asm::new();
        let l = asm.new_label();
        let _ = asm.jump(l).build();
    }
}
