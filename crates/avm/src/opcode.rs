//! The AVM instruction set (assembly-level, TEAL-style).

/// One AVM instruction.
///
/// Branch targets reference [`crate::program::AvmProgram`] label indices,
/// resolved when the program is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvmOp {
    /// Push an integer constant.
    PushInt(u64),
    /// Push a byte-string constant.
    PushBytes(Vec<u8>),
    /// Pop two ints, push their sum.
    ///
    /// # Panics (at run time → `crate::AvmError::Arithmetic`)
    ///
    /// Overflow rejects the program, as on the real AVM.
    Add,
    /// Pop two ints, push the difference (underflow rejects).
    Sub,
    /// Pop two ints, push the product (overflow rejects).
    Mul,
    /// Pop two ints, push the quotient (division by zero rejects).
    Div,
    /// Pop two ints, push the remainder (modulo zero rejects).
    Mod,
    /// Pop two ints, push `a < b`.
    Lt,
    /// Pop two ints, push `a > b`.
    Gt,
    /// Pop two ints, push `a <= b`.
    Le,
    /// Pop two ints, push `a >= b`.
    Ge,
    /// Pop two values (same type), push equality as 0/1.
    Eq,
    /// Pop two values (same type), push inequality as 0/1.
    Ne,
    /// Pop two ints, push logical AND.
    AndL,
    /// Pop two ints, push logical OR.
    OrL,
    /// Pop an int, push logical NOT.
    NotL,
    /// Pop bytes, push SHA-256 digest.
    Sha256,
    /// Pop bytes, push Keccak-256 digest.
    Keccak256,
    /// Pop two byte strings, push their concatenation.
    Concat,
    /// Pop bytes, push length as int.
    Len,
    /// Pop an int, push its 8-byte big-endian encoding.
    Itob,
    /// Pop 8 bytes, push the big-endian integer.
    Btoi,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two values.
    Swap,
    /// Discard the top of stack.
    Pop,
    /// Store top of stack into scratch slot.
    Store(u8),
    /// Load scratch slot onto the stack.
    Load(u8),
    /// Push a transaction field.
    Txn(TxnField),
    /// Push application argument `i` (bytes).
    TxnArg(u8),
    /// Push a global field.
    Global(GlobalField),
    /// Unconditional branch to label.
    B(usize),
    /// Pop an int; branch if zero.
    Bz(usize),
    /// Pop an int; branch if non-zero.
    Bnz(usize),
    /// Label marker (no-op; branch target).
    Label(usize),
    /// Pop an int; reject the call if it is zero.
    Assert,
    /// Pop key and value; write application global state.
    AppGlobalPut,
    /// Pop key; push global state value (or 0-int if absent) then a
    /// presence flag — `app_global_get_ex` semantics.
    AppGlobalGet,
    /// Pop key and value (bytes); write a box.
    BoxPut,
    /// Pop key; push box contents and a presence flag.
    BoxGet,
    /// Pop key; delete a box, pushing whether it existed.
    BoxDel,
    /// Pop receiver (bytes, 20-byte address) and amount; pay out of the
    /// application account (an inner transaction).
    InnerPay,
    /// Pop bytes; append to the call's log.
    Log,
    /// Push the application account's balance (µAlgo).
    AppBalance,
    /// Pop an int; halt, approving iff non-zero.
    Return,
}

/// Transaction fields exposed to programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnField {
    /// The call's sender address (bytes).
    Sender,
    /// The called application id (0 during creation).
    ApplicationId,
    /// Number of application arguments.
    NumAppArgs,
    /// µAlgo payment grouped with the call.
    Amount,
}

/// Global fields exposed to programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalField {
    /// Current round.
    Round,
    /// Latest block timestamp (seconds).
    LatestTimestamp,
    /// The executing application's id.
    CurrentApplicationId,
}
