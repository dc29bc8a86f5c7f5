//! The bytecode interpreter over the journaled world state.
//!
//! Execution is expressed as free functions over an [`Overlay`]
//! ([`deploy_contract`], [`call_contract`]) so the chain simulator can run
//! transactions inside speculative overlays; the [`Evm`] façade wraps a
//! private [`WorldState`] and keeps the historical standalone API (with
//! balances threaded through as a mutable map) for tests and tooling.
//!
//! Reverts no longer restore a cloned snapshot of the whole storage map:
//! the interpreter takes a journal checkpoint and rolls the overlay back,
//! which undoes exactly the writes the frame made.

use crate::cache::CodeCache;
use crate::gas;
use crate::opcode::Op;
use crate::program::{EvmProgram, Instr};
use crate::word::Word;
use pol_crypto::keccak256;
use pol_ledger::state::{self, BalancePatchBase, Overlay, StateKey, StateValue, WorldState};
use pol_ledger::{address, Address};
use std::collections::{HashMap, HashSet};

/// Hard cap on VM memory to keep simulations bounded.
const MAX_MEMORY: usize = 1 << 20;
/// EVM stack depth limit.
const MAX_STACK: usize = 1024;

/// Machine-level failures (these consume the whole gas limit, like the
/// real EVM's exceptional halts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvmError {
    /// Call target does not exist.
    UnknownContract(Address),
    /// Gas limit exhausted.
    OutOfGas {
        /// The limit that was exhausted.
        limit: u64,
    },
    /// A pop on an empty stack or overflowing push.
    StackError,
    /// Jump to a non-`JUMPDEST` destination.
    InvalidJump(usize),
    /// Unknown or unimplemented opcode byte.
    InvalidOpcode(u8),
    /// Memory grew beyond the simulator cap.
    MemoryOverflow,
    /// Init code failed to return a runtime image.
    BadDeploy(String),
    /// Caller balance below the transferred value.
    InsufficientValue,
}

impl std::fmt::Display for EvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvmError::UnknownContract(a) => write!(f, "unknown contract {a}"),
            EvmError::OutOfGas { limit } => write!(f, "out of gas (limit {limit})"),
            EvmError::StackError => write!(f, "stack underflow or overflow"),
            EvmError::InvalidJump(d) => write!(f, "invalid jump destination {d}"),
            EvmError::InvalidOpcode(b) => write!(f, "invalid opcode 0x{b:02x}"),
            EvmError::MemoryOverflow => write!(f, "memory limit exceeded"),
            EvmError::BadDeploy(msg) => write!(f, "deployment failed: {msg}"),
            EvmError::InsufficientValue => write!(f, "insufficient balance for value transfer"),
        }
    }
}

impl std::error::Error for EvmError {}

/// Outcome of a successful machine run (including reverts, which are a
/// *successful* halt with `success == false`).
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Whether execution ended in `STOP`/`RETURN` rather than `REVERT`.
    pub success: bool,
    /// Gas consumed, refunds already applied.
    pub gas_used: u64,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Emitted log records (raw data segments).
    pub logs: Vec<Vec<u8>>,
}

/// Parameters of a message call.
#[derive(Debug, Clone)]
pub struct CallParams {
    /// Transaction sender.
    pub caller: Address,
    /// Contract being called.
    pub contract: Address,
    /// Value transferred with the call (base units).
    pub value: u128,
    /// Calldata.
    pub data: Vec<u8>,
    /// Gas limit for the call.
    pub gas_limit: u64,
    /// Current block number (exposed via `NUMBER`).
    pub block_number: u64,
    /// Current block timestamp in seconds (exposed via `TIMESTAMP`).
    pub timestamp_s: u64,
}

impl CallParams {
    /// Builds default parameters for calling `contract` from `caller`.
    pub fn new(caller: Address, contract: Address) -> CallParams {
        CallParams {
            caller,
            contract,
            value: 0,
            data: Vec::new(),
            gas_limit: 10_000_000,
            block_number: 1,
            timestamp_s: 1,
        }
    }

    /// Sets calldata (builder style).
    pub fn with_data(mut self, data: Vec<u8>) -> CallParams {
        self.data = data;
        self
    }

    /// Sets the value transferred (builder style).
    pub fn with_value(mut self, value: u128) -> CallParams {
        self.value = value;
        self
    }

    /// Sets the gas limit (builder style).
    pub fn with_gas_limit(mut self, gas_limit: u64) -> CallParams {
        self.gas_limit = gas_limit;
        self
    }
}

/// Balance map threaded through the standalone [`Evm`] façade's calls.
pub type Balances = HashMap<Address, u128>;

fn storage_key(contract: Address, slot: Word) -> StateKey {
    StateKey::Storage(contract, slot.to_be_bytes())
}

fn load_storage(state: &mut Overlay<'_>, contract: Address, slot: Word) -> Word {
    state
        .get(&storage_key(contract, slot))
        .and_then(|v| v.as_word())
        .map(|w| Word::from_be_bytes(&w))
        .unwrap_or(Word::ZERO)
}

/// Runs `init_code` as a deployment from `deployer` against an overlay,
/// storing whatever it returns as the new contract's runtime code. The
/// init code's decode is counted and timed on `cache` but not retained:
/// init code carries its constructor arguments and never runs again.
///
/// Returns the new contract's address and the execution outcome (whose
/// `gas_used` includes intrinsic, execution and code-deposit gas). All
/// state effects of failed deployments are rolled back via the journal.
///
/// # Errors
///
/// Machine errors, plus [`EvmError::BadDeploy`] if the init code reverts
/// or returns nothing.
pub fn deploy_contract(
    state: &mut Overlay<'_>,
    deployer: Address,
    init_code: &[u8],
    gas_limit: u64,
    cache: &CodeCache,
) -> Result<(Address, ExecOutcome), EvmError> {
    let deploys = state.get(&StateKey::DeployCount).and_then(|v| v.as_u64()).unwrap_or(0);
    let address = address::contract_address(&deployer, deploys);
    let intrinsic = gas::intrinsic_gas(init_code, true);
    if intrinsic > gas_limit {
        return Err(EvmError::OutOfGas { limit: gas_limit });
    }
    let checkpoint = state.checkpoint();
    let program = cache.decode(init_code.to_vec());
    let params = CallParams {
        caller: deployer,
        contract: address,
        value: 0,
        data: Vec::new(),
        gas_limit: gas_limit - intrinsic,
        block_number: 1,
        timestamp_s: 1,
    };
    match execute(state, &params, &program) {
        Ok(mut outcome) if outcome.success && !outcome.output.is_empty() => {
            let deposit = gas::G_CODEDEPOSIT * outcome.output.len() as u64;
            if intrinsic + outcome.gas_used + deposit > gas_limit {
                state.rollback_to(checkpoint);
                return Err(EvmError::OutOfGas { limit: gas_limit });
            }
            let runtime = std::mem::take(&mut outcome.output);
            state.put(StateKey::Code(address), StateValue::Bytes(runtime));
            state.put(StateKey::DeployCount, StateValue::U64(deploys + 1));
            outcome.gas_used += intrinsic + deposit;
            Ok((address, outcome))
        }
        Ok(outcome) => {
            state.rollback_to(checkpoint);
            Err(EvmError::BadDeploy(if outcome.success {
                "init code returned no runtime image".to_string()
            } else {
                format!("init code reverted: {}", String::from_utf8_lossy(&outcome.output))
            }))
        }
        Err(e) => {
            state.rollback_to(checkpoint);
            Err(e)
        }
    }
}

/// Executes a message call against a deployed contract through an
/// overlay, resolving the contract's pre-decoded program through `cache` so
/// repeated calls (and every speculation attempt across the executor's
/// modes) skip re-decoding. The code is read from state once; a call
/// that fails before its frame starts never consults the cache.
///
/// The `gas_used` in the outcome includes the transaction-intrinsic gas.
/// Value is moved from caller to contract before the checkpoint (matching
/// the simulator's historical semantics: the transfer survives a revert),
/// and every write the frame makes afterwards is undone on revert or
/// machine error by rolling the journal back.
///
/// # Errors
///
/// Machine errors ([`EvmError`]); reverts are NOT errors.
pub fn call_contract(
    state: &mut Overlay<'_>,
    params: CallParams,
    cache: &CodeCache,
) -> Result<ExecOutcome, EvmError> {
    let code = match state.get(&StateKey::Code(params.contract)) {
        Some(StateValue::Bytes(code)) => code,
        Some(_) => Vec::new(),
        None => return Err(EvmError::UnknownContract(params.contract)),
    };
    let intrinsic = gas::intrinsic_gas(&params.data, false);
    if intrinsic > params.gas_limit {
        return Err(EvmError::OutOfGas { limit: params.gas_limit });
    }
    // Move the call value.
    if params.value > 0 {
        let from_balance = state.balance_of(params.caller);
        if from_balance < params.value {
            return Err(EvmError::InsufficientValue);
        }
        state.set_balance_of(params.caller, from_balance - params.value);
        let to_balance = state.balance_of(params.contract);
        state.set_balance_of(params.contract, to_balance + params.value);
    }
    let program = cache.resolve(params.contract, code);
    let checkpoint = state.checkpoint();
    let inner = CallParams { gas_limit: params.gas_limit - intrinsic, ..params };
    match execute(state, &inner, &program) {
        Ok(mut outcome) => {
            outcome.gas_used += intrinsic;
            if !outcome.success {
                // Revert state, keep charging gas.
                state.rollback_to(checkpoint);
            }
            Ok(outcome)
        }
        Err(e) => {
            state.rollback_to(checkpoint);
            Err(e)
        }
    }
}

/// A stack operand used as an offset, a size or a jump target: `None`
/// when it does not fit `usize`, so that no site acts on a truncated low
/// limb. What `None` means is the site's: a memory error, an invalid
/// jump, or a source offset past the end of anything.
fn operand(word: Word) -> Option<usize> {
    if word.fits_u64() {
        usize::try_from(word.as_u64()).ok()
    } else {
        None
    }
}

#[allow(clippy::too_many_lines)]
fn execute(
    state: &mut Overlay<'_>,
    params: &CallParams,
    program: &EvmProgram,
) -> Result<ExecOutcome, EvmError> {
    let instrs = program.instrs();
    let mut stack: Vec<Word> = Vec::with_capacity(64);
    let mut memory: Vec<u8> = Vec::new();
    let mut ip = 0usize;
    let mut gas_used = 0u64;
    let mut refund = 0u64;
    let mut warm_slots: HashSet<Word> = HashSet::new();
    let mut logs = Vec::new();

    macro_rules! charge {
        ($amount:expr) => {{
            gas_used = gas_used.saturating_add($amount);
            if gas_used > params.gas_limit {
                return Err(EvmError::OutOfGas { limit: params.gas_limit });
            }
        }};
    }
    macro_rules! pop {
        () => {
            stack.pop().ok_or(EvmError::StackError)?
        };
    }
    macro_rules! push {
        ($w:expr) => {{
            if stack.len() >= MAX_STACK {
                return Err(EvmError::StackError);
            }
            stack.push($w);
        }};
    }
    /// Pops a memory offset or size: one past `usize` is past the cap.
    macro_rules! pop_mem {
        () => {
            operand(pop!()).ok_or(EvmError::MemoryOverflow)?
        };
    }
    /// Pops a calldata or code offset: one past `usize` is past the end
    /// of either, where every byte reads as zero.
    macro_rules! pop_src {
        () => {
            operand(pop!()).unwrap_or(usize::MAX)
        };
    }
    /// Takes a jump to the byte offset `$dest` (a `JUMPDEST`, or a fault).
    macro_rules! jump {
        ($dest:expr) => {{
            let dest = operand($dest);
            match dest.and_then(|dest| program.jump_target(dest)) {
                Some(target) => ip = target as usize,
                None => return Err(EvmError::InvalidJump(dest.unwrap_or(usize::MAX))),
            }
        }};
    }

    /// Grows memory to cover `[off, off + size)` and returns the region's
    /// end with the expansion gas. Offsets come from the contract's stack:
    /// a sum past `usize` is past the cap like any other.
    fn expand(memory: &mut Vec<u8>, off: usize, size: usize) -> Result<(usize, u64), EvmError> {
        let end = off
            .checked_add(size)
            .filter(|end| *end <= MAX_MEMORY)
            .ok_or(EvmError::MemoryOverflow)?;
        if end <= memory.len() {
            return Ok((end, 0));
        }
        let old_words = gas::words(memory.len());
        let new_len = end.div_ceil(32) * 32;
        memory.resize(new_len, 0);
        Ok((end, (gas::words(new_len) - old_words) * gas::G_MEMORY))
    }

    while ip < instrs.len() {
        // Stage 1: indexed dispatch on the pre-decoded instruction.
        let instr = &instrs[ip];
        ip += 1;
        let (op, variant) = match instr {
            Instr::Plain(op, variant) => {
                charge!(op.base_gas());
                (*op, *variant)
            }
            Instr::Push(imm) => {
                charge!(gas::G_VERYLOW);
                push!(*imm);
                continue;
            }
            // Reached-only failures: dead garbage bytes never reject a
            // program, exactly like the byte-walking interpreter.
            Instr::Invalid(byte) => return Err(EvmError::InvalidOpcode(*byte)),
            Instr::TruncatedPush(byte) => {
                charge!(gas::G_VERYLOW);
                return Err(EvmError::InvalidOpcode(*byte));
            }
        };
        // Stage 2: shared per-op execution (dynamic gas stays here).
        match op {
            Op::Stop => {
                return Ok(finish(true, gas_used, refund, Vec::new(), logs));
            }
            Op::Add => {
                let (a, b) = (pop!(), pop!());
                push!(a.wrapping_add(&b));
            }
            Op::Mul => {
                let (a, b) = (pop!(), pop!());
                push!(a.wrapping_mul(&b));
            }
            Op::Sub => {
                let (a, b) = (pop!(), pop!());
                push!(a.wrapping_sub(&b));
            }
            Op::Div => {
                let (a, b) = (pop!(), pop!());
                push!(a.div(&b));
            }
            Op::Mod => {
                let (a, b) = (pop!(), pop!());
                push!(a.rem(&b));
            }
            Op::AddMod => {
                let (a, b, m) = (pop!(), pop!(), pop!());
                push!(a.add_mod(&b, &m));
            }
            Op::MulMod => {
                let (a, b, m) = (pop!(), pop!(), pop!());
                push!(a.mul_mod(&b, &m));
            }
            Op::Exp => {
                let (a, e) = (pop!(), pop!());
                charge!(gas::G_EXPBYTE * e.byte_len());
                push!(a.pow(&e));
            }
            Op::Shl => {
                let (shift, value) = (pop!(), pop!());
                push!(value.shl(&shift));
            }
            Op::Shr => {
                let (shift, value) = (pop!(), pop!());
                push!(value.shr(&shift));
            }
            Op::Lt => {
                let (a, b) = (pop!(), pop!());
                push!(bool_word(a.cmp_u(&b) == std::cmp::Ordering::Less));
            }
            Op::Gt => {
                let (a, b) = (pop!(), pop!());
                push!(bool_word(a.cmp_u(&b) == std::cmp::Ordering::Greater));
            }
            Op::Eq => {
                let (a, b) = (pop!(), pop!());
                push!(bool_word(a == b));
            }
            Op::IsZero => {
                let a = pop!();
                push!(bool_word(a.is_zero()));
            }
            Op::And => {
                let (a, b) = (pop!(), pop!());
                push!(a.and(&b));
            }
            Op::Or => {
                let (a, b) = (pop!(), pop!());
                push!(a.or(&b));
            }
            Op::Xor => {
                let (a, b) = (pop!(), pop!());
                push!(a.xor(&b));
            }
            Op::Not => {
                let a = pop!();
                push!(a.not());
            }
            Op::Keccak256 => {
                let off = pop_mem!();
                let size = pop_mem!();
                charge!(gas::G_KECCAK256WORD * gas::words(size));
                let (end, grow) = expand(&mut memory, off, size)?;
                charge!(grow);
                push!(Word::from_be_bytes(&keccak256(&memory[off..end])));
            }
            Op::Address => push!(Word::from(params.contract)),
            Op::SelfBalance => {
                push!(Word::from_u128(state.balance_of(params.contract)))
            }
            Op::Caller => push!(Word::from(params.caller)),
            Op::CallValue => push!(Word::from_u128(params.value)),
            Op::CallDataLoad => {
                let off = pop_src!();
                let mut buf = [0u8; 32];
                for (i, slot) in buf.iter_mut().enumerate() {
                    *slot = byte_at(&params.data, off, i);
                }
                push!(Word::from_be_bytes(&buf));
            }
            Op::CallDataSize => push!(Word::from_u64(params.data.len() as u64)),
            Op::CallDataCopy | Op::CodeCopy => {
                let mem_off = pop_mem!();
                let src_off = pop_src!();
                let size = pop_mem!();
                charge!(gas::G_COPY * gas::words(size));
                let (end, grow) = expand(&mut memory, mem_off, size)?;
                charge!(grow);
                let src: &[u8] = if op == Op::CallDataCopy { &params.data } else { program.code() };
                for (i, slot) in memory[mem_off..end].iter_mut().enumerate() {
                    *slot = byte_at(src, src_off, i);
                }
            }
            Op::Timestamp => push!(Word::from_u64(params.timestamp_s)),
            Op::Number => push!(Word::from_u64(params.block_number)),
            Op::Pop => {
                let _ = pop!();
            }
            Op::MLoad => {
                let off = pop_mem!();
                let (end, grow) = expand(&mut memory, off, 32)?;
                charge!(grow);
                let mut buf = [0u8; 32];
                buf.copy_from_slice(&memory[off..end]);
                push!(Word::from_be_bytes(&buf));
            }
            Op::MStore => {
                let off = pop_mem!();
                let value = pop!();
                let (end, grow) = expand(&mut memory, off, 32)?;
                charge!(grow);
                memory[off..end].copy_from_slice(&value.to_be_bytes());
            }
            Op::SLoad => {
                let key = pop!();
                let cost =
                    if warm_slots.insert(key) { gas::G_COLDSLOAD } else { gas::G_WARMACCESS };
                charge!(cost);
                push!(load_storage(state, params.contract, key));
            }
            Op::SStore => {
                let key = pop!();
                let value = pop!();
                let cold = warm_slots.insert(key);
                let current = load_storage(state, params.contract, key);
                let mut cost = if current == value {
                    gas::G_WARMACCESS
                } else if current.is_zero() {
                    gas::G_SSET
                } else {
                    gas::G_SRESET
                };
                if cold {
                    cost += gas::G_COLDSLOAD;
                }
                charge!(cost);
                if value.is_zero() && !current.is_zero() {
                    refund += gas::R_SCLEAR;
                }
                if value.is_zero() {
                    state.delete(storage_key(params.contract, key));
                } else {
                    state.put(
                        storage_key(params.contract, key),
                        StateValue::Word(value.to_be_bytes()),
                    );
                }
            }
            Op::Jump => jump!(pop!()),
            Op::JumpI => {
                let (dest, cond) = (pop!(), pop!());
                if !cond.is_zero() {
                    jump!(dest);
                }
            }
            Op::JumpDest => {}
            Op::Push1 => {
                // Pushes decode to `Instr::Push`; a plain `Op::Push1`
                // cannot reach the dispatch loop.
                return Err(EvmError::InvalidOpcode(0x60 + variant));
            }
            Op::Dup1 => {
                let n = variant as usize;
                if stack.len() <= n {
                    return Err(EvmError::StackError);
                }
                let w = stack[stack.len() - 1 - n];
                push!(w);
            }
            Op::Swap1 => {
                let n = variant as usize + 1;
                let top = stack.len().checked_sub(1).ok_or(EvmError::StackError)?;
                let other = top.checked_sub(n).ok_or(EvmError::StackError)?;
                stack.swap(top, other);
            }
            Op::Log0 | Op::Log1 => {
                let off = pop_mem!();
                let size = pop_mem!();
                if op == Op::Log1 {
                    let _topic = pop!();
                }
                charge!(gas::G_LOGDATA.saturating_mul(size as u64));
                let (end, grow) = expand(&mut memory, off, size)?;
                charge!(grow);
                logs.push(memory[off..end].to_vec());
            }
            Op::Call => {
                // Simplified: plain value send (no reentrant execution).
                let _gas = pop!();
                let to = pop!().to_address();
                let word = pop!();
                let _in_off = pop!();
                let _in_size = pop!();
                let _out_off = pop!();
                let _out_size = pop!();
                let mut cost = gas::G_COLDACCOUNTACCESS;
                if !word.is_zero() {
                    cost += gas::G_CALLVALUE - gas::G_CALLSTIPEND;
                }
                charge!(cost);
                let value = word.as_u128();
                let self_balance = state.balance_of(params.contract);
                // A value past `u128` exceeds every balance.
                if !word.fits_u128() || self_balance < value {
                    push!(Word::ZERO);
                } else {
                    state.set_balance_of(params.contract, self_balance - value);
                    let to_balance = state.balance_of(to);
                    state.set_balance_of(to, to_balance + value);
                    push!(Word::ONE);
                }
            }
            Op::Return | Op::Revert => {
                let off = pop_mem!();
                let size = pop_mem!();
                let (end, grow) = expand(&mut memory, off, size)?;
                charge!(grow);
                let output = memory[off..end].to_vec();
                return Ok(finish(op == Op::Return, gas_used, refund, output, logs));
            }
        }
    }
    Ok(finish(true, gas_used, refund, Vec::new(), logs))
}

/// The standalone EVM world: a private [`WorldState`] holding deployed
/// contracts and their storage.
///
/// Account balances live outside the machine (the caller owns them) and
/// are threaded through each call as a mutable map, so the VM can apply
/// value transfers while the caller remains the source of truth. Each
/// call runs inside a journaled [`Overlay`] whose write set is split back
/// into the balance map and the world afterwards.
#[derive(Debug, Default)]
pub struct Evm {
    world: WorldState,
    /// Decoded programs shared across this façade's calls.
    cache: CodeCache,
}

impl Evm {
    /// Creates an empty world.
    pub fn new() -> Evm {
        Evm::default()
    }

    /// Read-only view of a contract's storage slot.
    pub fn storage_at(&self, contract: Address, key: &Word) -> Word {
        self.world
            .get(&storage_key(contract, *key))
            .and_then(|v| v.as_word())
            .map(|w| Word::from_be_bytes(&w))
            .unwrap_or(Word::ZERO)
    }

    /// Runs `init_code` as a deployment from `deployer` (see
    /// [`deploy_contract`]).
    ///
    /// # Errors
    ///
    /// Machine errors, plus [`EvmError::BadDeploy`] if the init code
    /// reverts or returns nothing.
    pub fn deploy(
        &mut self,
        deployer: Address,
        init_code: &[u8],
        gas_limit: u64,
        balances: &mut Balances,
    ) -> Result<(Address, ExecOutcome), EvmError> {
        let (result, writes) = {
            let base = BalancePatchBase::new(&self.world, balances);
            let mut view = Overlay::new(&base);
            let result = deploy_contract(&mut view, deployer, init_code, gas_limit, &self.cache);
            (result, view.into_writes())
        };
        // Failed paths already rolled their journal back, so the write
        // set only ever holds effects that should stick.
        state::apply_split(writes, &mut self.world, balances);
        result
    }

    /// Executes a message call against a deployed contract (see
    /// [`call_contract`]).
    ///
    /// # Errors
    ///
    /// Machine errors ([`EvmError`]); reverts are NOT errors.
    pub fn call(
        &mut self,
        params: CallParams,
        balances: &mut Balances,
    ) -> Result<ExecOutcome, EvmError> {
        let (result, writes) = {
            let base = BalancePatchBase::new(&self.world, balances);
            let mut view = Overlay::new(&base);
            let result = call_contract(&mut view, params, &self.cache);
            (result, view.into_writes())
        };
        state::apply_split(writes, &mut self.world, balances);
        result
    }
}

fn finish(
    success: bool,
    gas_used: u64,
    refund: u64,
    output: Vec<u8>,
    logs: Vec<Vec<u8>>,
) -> ExecOutcome {
    // EIP-3529 caps refunds at one fifth of the gas consumed; reverts
    // forfeit refunds entirely.
    let gas_used = if success { gas_used - refund.min(gas_used / 5) } else { gas_used };
    ExecOutcome { success, gas_used, output, logs }
}

/// Byte `off + i` of `src`, reading zero past its end (or past `usize`).
fn byte_at(src: &[u8], off: usize, i: usize) -> u8 {
    off.checked_add(i).and_then(|at| src.get(at)).copied().unwrap_or(0)
}

fn bool_word(b: bool) -> Word {
    if b {
        Word::ONE
    } else {
        Word::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::Asm;

    fn run(runtime: Vec<u8>, data: Vec<u8>) -> (Evm, Address, ExecOutcome, Balances) {
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let out = evm
            .call(CallParams::new(Address([1; 20]), addr).with_data(data), &mut balances)
            .unwrap();
        (evm, addr, out, balances)
    }

    fn return_top() -> Asm {
        // Store the stack top at mem[0] and return it.
        Asm::new().push_u64(0).op(Op::MStore).push_u64(32).push_u64(0).op(Op::Return)
    }

    #[test]
    fn arithmetic_program() {
        // (7 + 5) * 3 = 36
        let runtime = {
            let mut c =
                Asm::new().push_u64(5).push_u64(7).op(Op::Add).push_u64(3).op(Op::Mul).build();
            c.extend(return_top().build());
            c
        };
        let (_, _, out, _) = run(runtime, vec![]);
        assert!(out.success);
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(36));
    }

    #[test]
    fn storage_round_trip_and_gas() {
        // SSTORE slot 1 = 99, then SLOAD and return.
        let runtime = {
            let mut c = Asm::new()
                .push_u64(99)
                .push_u64(1)
                .op(Op::SStore)
                .push_u64(1)
                .op(Op::SLoad)
                .build();
            c.extend(return_top().build());
            c
        };
        let (evm, addr, out, _) = run(runtime, vec![]);
        assert!(out.success);
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(99));
        assert_eq!(evm.storage_at(addr, &Word::from_u64(1)), Word::from_u64(99));
        // Cold SSTORE to empty slot must cost at least G_SSET + cold sload.
        assert!(out.gas_used > gas::G_SSET + gas::G_COLDSLOAD + gas::G_TRANSACTION);
    }

    #[test]
    fn revert_rolls_back_storage() {
        // SSTORE slot 0 = 7 then REVERT.
        let runtime = Asm::new()
            .push_u64(7)
            .push_u64(0)
            .op(Op::SStore)
            .push_u64(0)
            .push_u64(0)
            .op(Op::Revert)
            .build();
        let (evm, addr, out, _) = run(runtime, vec![]);
        assert!(!out.success);
        assert_eq!(evm.storage_at(addr, &Word::ZERO), Word::ZERO);
    }

    #[test]
    fn revert_restores_inner_call_and_storage_exactly() {
        // Regression for the journal-checkpoint rollback that replaced the
        // whole-map storage snapshot: a frame that SSTOREs, sends value out
        // via CALL, and then REVERTs must leave storage AND every balance
        // it touched exactly as they were before the frame ran.
        let target = Address([7; 20]);
        let runtime = Asm::new()
            .push_u64(5)
            .push_u64(2)
            .op(Op::SStore)
            .push_u64(0) // out_size
            .push_u64(0) // out_off
            .push_u64(0) // in_size
            .push_u64(0) // in_off
            .push_u64(100) // value
            .push_word(Word::from(target))
            .push_u64(0) // gas
            .op(Op::Call)
            .op(Op::Pop)
            .push_u64(0)
            .push_u64(0)
            .op(Op::Revert)
            .build();
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        balances.insert(addr, 500);
        let out = evm.call(CallParams::new(Address([1; 20]), addr), &mut balances).unwrap();
        assert!(!out.success);
        assert_eq!(evm.storage_at(addr, &Word::from_u64(2)), Word::ZERO);
        assert_eq!(balances.get(&target).copied().unwrap_or(0), 0, "inner send rolled back");
        assert_eq!(balances[&addr], 500, "contract balance restored exactly");
    }

    #[test]
    fn calldata_echo() {
        // Return calldata word 0.
        let runtime = {
            let mut c = Asm::new().push_u64(0).op(Op::CallDataLoad).build();
            c.extend(return_top().build());
            c
        };
        let w = Word::from_u64(0xdeadbeef);
        let (_, _, out, _) = run(runtime, w.to_be_bytes().to_vec());
        assert_eq!(Word::from_be_slice(&out.output), w);
    }

    #[test]
    fn out_of_gas_detected() {
        let runtime = {
            let mut asm = Asm::new();
            let top = asm.new_label();
            asm.bind(top).jump(top).build()
        };
        // An infinite loop must exhaust any budget.
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let err = evm
            .call(CallParams::new(Address::ZERO, addr).with_gas_limit(100_000), &mut balances)
            .unwrap_err();
        assert!(matches!(err, EvmError::OutOfGas { .. }));
    }

    /// Offsets, sizes and jump targets come off the contract's stack as
    /// 256-bit words: sums past `usize`, and operands of 2⁶⁴ + k whose low
    /// limb alone would land on valid ground, must end in the typed error
    /// (or read as zero bytes where the EVM pads), never in a wrapped or
    /// truncated index or a panic.
    #[test]
    fn offsets_near_usize_max_fail_typed_or_read_zero() {
        const HUGE: u64 = 0xffff_ffff_ffff_fff5;
        let huge = Word::from_u64(HUGE);
        let past = |k: u64| Word::from_u128((1u128 << 64) + u128::from(k));
        let deploy_and_call = |runtime: Vec<u8>| {
            let mut evm = Evm::new();
            let mut balances = Balances::new();
            let init = Asm::deploy_wrapper(&runtime);
            let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
            evm.call(CallParams::new(Address::ZERO, addr).with_data(vec![0xab; 64]), &mut balances)
        };
        let mut overflowing: Vec<(String, Asm)> = Vec::new();
        for (what, off) in [("HUGE", huge), ("2^64", past(0))] {
            overflowing.push((format!("mload {what}"), Asm::new().push_word(off).op(Op::MLoad)));
            let mstore = Asm::new().push_u64(1).push_word(off).op(Op::MStore);
            overflowing.push((format!("mstore {what}"), mstore));
        }
        for (what, off, size) in [
            ("offset HUGE", huge, Word::from_u64(32)),
            ("offset 2^64", past(0), Word::from_u64(32)),
            ("size 2^64+32", Word::ZERO, past(32)),
        ] {
            let sized = [
                ("keccak256", Op::Keccak256),
                ("return", Op::Return),
                ("revert", Op::Revert),
                ("log0", Op::Log0),
            ];
            for (name, op) in sized {
                let asm = Asm::new().push_word(size).push_word(off).op(op);
                overflowing.push((format!("{name} {what}"), asm));
            }
            let log1 = Asm::new().push_u64(0).push_word(size).push_word(off).op(Op::Log1);
            overflowing.push((format!("log1 {what}"), log1));
            for (name, op) in [("calldatacopy", Op::CallDataCopy), ("codecopy", Op::CodeCopy)] {
                let asm = Asm::new().push_word(size).push_u64(0).push_word(off).op(op);
                overflowing.push((format!("{name} {what}"), asm));
            }
        }
        for (name, asm) in overflowing {
            assert_eq!(
                deploy_and_call(asm.build()).unwrap_err(),
                EvmError::MemoryOverflow,
                "{name}"
            );
        }
        // A log whose data charge alone overflows `u64` runs out of gas.
        let err = deploy_and_call(Asm::new().push_u64(HUGE).push_u64(0).op(Op::Log0).build());
        assert!(matches!(err, Err(EvmError::OutOfGas { .. })), "{err:?}");
        // Source offsets past the end of calldata (0xab throughout) or of
        // the code read as zeros.
        for (what, src_off) in [("HUGE", huge), ("2^64", past(0))] {
            let zero_padded = [
                (
                    "calldataload",
                    Asm::new().push_word(src_off).op(Op::CallDataLoad).push_u64(0).op(Op::MStore),
                ),
                (
                    "calldatacopy",
                    Asm::new().push_u64(32).push_word(src_off).push_u64(0).op(Op::CallDataCopy),
                ),
                (
                    "codecopy",
                    Asm::new().push_u64(32).push_word(src_off).push_u64(0).op(Op::CodeCopy),
                ),
            ];
            for (name, asm) in zero_padded {
                let out =
                    deploy_and_call(asm.push_u64(32).push_u64(0).op(Op::Return).build()).unwrap();
                assert_eq!(out.output, vec![0u8; 32], "{name} {what}");
            }
        }
        // `PUSH9 2⁶⁴ + k; JUMP; INVALID; JUMPDEST; STOP` with the `JUMPDEST`
        // at byte k: the low limb alone is a valid target.
        let landing = [0xfe, Op::JumpDest as u8, Op::Stop as u8];
        let mut jump = Asm::new().push_word(past(12)).op(Op::Jump).build();
        jump.extend(landing);
        assert_eq!(jump[12], Op::JumpDest as u8);
        assert_eq!(deploy_and_call(jump).unwrap_err(), EvmError::InvalidJump(usize::MAX));
        let mut jumpi = Asm::new().push_u64(1).push_word(past(14)).op(Op::JumpI).build();
        jumpi.extend(landing);
        assert_eq!(jumpi[14], Op::JumpDest as u8);
        assert_eq!(deploy_and_call(jumpi).unwrap_err(), EvmError::InvalidJump(usize::MAX));
        // An untaken `JUMPI` never looks at its target.
        let untaken = Asm::new().push_u64(0).push_word(past(14)).op(Op::JumpI).op(Op::Stop);
        assert!(deploy_and_call(untaken.build()).unwrap().success);
    }

    #[test]
    fn invalid_jump_rejected() {
        let runtime = Asm::new().push_u64(1).op(Op::Jump).build();
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let err = evm.call(CallParams::new(Address::ZERO, addr), &mut balances).unwrap_err();
        assert_eq!(err, EvmError::InvalidJump(1));
    }

    #[test]
    fn value_transfer_and_selfbalance() {
        let runtime = {
            let mut c = Asm::new().op(Op::SelfBalance).build();
            c.extend(return_top().build());
            c
        };
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let sender = Address([9; 20]);
        balances.insert(sender, 1_000_000);
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let out =
            evm.call(CallParams::new(sender, addr).with_value(250_000), &mut balances).unwrap();
        assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(250_000));
        assert_eq!(balances[&sender], 750_000);
        assert_eq!(balances[&addr], 250_000);
    }

    #[test]
    fn call_sends_value_out() {
        // Send 100 wei from the contract to address 0x...07, return success flag.
        let target = Address([7; 20]);
        let runtime = {
            let mut c = Asm::new()
                .push_u64(0) // out_size
                .push_u64(0) // out_off
                .push_u64(0) // in_size
                .push_u64(0) // in_off
                .push_u64(100) // value
                .push_word(Word::from(target))
                .push_u64(0) // gas
                .op(Op::Call)
                .build();
            c.extend(return_top().build());
            c
        };
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let sender = Address([9; 20]);
        balances.insert(sender, 1_000);
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let out = evm.call(CallParams::new(sender, addr).with_value(500), &mut balances).unwrap();
        assert!(out.success);
        assert_eq!(Word::from_be_slice(&out.output), Word::ONE);
        assert_eq!(balances[&target], 100);
        assert_eq!(balances[&addr], 400);
    }

    /// A `CALL` value of 2¹²⁸ + 5 is more than any balance: it pays the
    /// value-bearing cost, pushes 0 and moves nothing, where its low 128
    /// bits alone (5) would go through.
    #[test]
    fn call_value_past_u128_sends_nothing() {
        let target = Address([7; 20]);
        let send = |value: Word| {
            let mut runtime = Asm::new()
                .push_u64(0) // out_size
                .push_u64(0) // out_off
                .push_u64(0) // in_size
                .push_u64(0) // in_off
                .push_word(value)
                .push_word(Word::from(target))
                .push_u64(0) // gas
                .op(Op::Call)
                .build();
            runtime.extend(return_top().build());
            let mut evm = Evm::new();
            let mut balances = Balances::new();
            let init = Asm::deploy_wrapper(&runtime);
            let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
            balances.insert(addr, 1_000);
            let out = evm.call(CallParams::new(Address([9; 20]), addr), &mut balances).unwrap();
            assert!(out.success);
            let flag = Word::from_be_slice(&out.output);
            (flag, out.gas_used, balances.get(&target).copied().unwrap_or(0), balances[&addr])
        };
        let (flag, gas_small, to, from) = send(Word::from_u64(5));
        assert_eq!((flag, to, from), (Word::ONE, 5, 995));
        let (flag, gas_huge, to, from) = send(Word([5, 0, 1, 0]));
        assert_eq!((flag, to, from), (Word::ZERO, 0, 1_000));
        assert_eq!(gas_huge, gas_small);
    }

    #[test]
    fn insufficient_value_is_rejected() {
        let runtime = Asm::new().op(Op::Stop).build();
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let err = evm
            .call(CallParams::new(Address([3; 20]), addr).with_value(1), &mut balances)
            .unwrap_err();
        assert_eq!(err, EvmError::InsufficientValue);
    }

    /// The checks before a frame starts keep their order (no contract,
    /// then intrinsic gas, then value), and a call that fails one of them
    /// is no cache lookup.
    #[test]
    fn calls_refused_before_their_frame_never_consult_the_cache() {
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&Asm::new().op(Op::Stop).build());
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let after_deploy = evm.cache.stats();
        let poor = Address([3; 20]);
        let nowhere = Address([4; 20]);
        let refused = [
            (CallParams::new(poor, nowhere).with_gas_limit(1), EvmError::UnknownContract(nowhere)),
            (
                CallParams::new(poor, addr).with_value(1).with_gas_limit(1),
                EvmError::OutOfGas { limit: 1 },
            ),
            (CallParams::new(poor, addr).with_value(1), EvmError::InsufficientValue),
        ];
        for (params, expected) in refused {
            assert_eq!(evm.call(params, &mut balances).unwrap_err(), expected);
        }
        assert_eq!(evm.cache.stats(), after_deploy);
    }

    #[test]
    fn deploy_charges_code_deposit() {
        let runtime = Asm::new().op(Op::Stop).build();
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (_, out) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        assert!(out.gas_used >= gas::G_TRANSACTION + gas::G_TXCREATE + gas::G_CODEDEPOSIT);
    }

    #[test]
    fn repeated_calls_hit_the_code_cache_with_identical_outcomes() {
        let runtime = {
            let mut c =
                Asm::new().push_u64(1).push_u64(3).op(Op::SStore).push_u64(3).op(Op::SLoad).build();
            c.extend(return_top().build());
            c
        };
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        let init = Asm::deploy_wrapper(&runtime);
        let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
        let first = evm.call(CallParams::new(Address::ZERO, addr), &mut balances).unwrap();
        let second = evm.call(CallParams::new(Address::ZERO, addr), &mut balances).unwrap();
        // Gas differs legitimately (first store is zero→1, second 1→1);
        // outputs must not.
        assert_eq!(first.output, second.output);
        let third = evm.call(CallParams::new(Address::ZERO, addr), &mut balances).unwrap();
        assert_eq!(second.gas_used, third.gas_used, "steady-state gas must be stable");
        let stats = evm.cache.stats();
        assert!(stats.hits > 0, "second call must reuse the decoded program: {stats:?}");
    }

    /// Init code carries its constructor arguments, so every deployment's
    /// is distinct and none can run again: only the runtime image the
    /// instances share may stay decoded.
    #[test]
    fn deployments_retain_the_runtime_image_and_no_init_code() {
        let runtime = Asm::new().push_u64(0).op(Op::SLoad).op(Op::Pop).op(Op::Stop).build();
        let mut evm = Evm::new();
        let mut balances = Balances::new();
        for argument in 1..=6 {
            let constructor = Asm::new().push_u64(argument).push_u64(0).op(Op::SStore).build();
            let init = Asm::initcode(&constructor, &runtime);
            let (addr, _) = evm.deploy(Address::ZERO, &init, 30_000_000, &mut balances).unwrap();
            assert_eq!(evm.storage_at(addr, &Word::ZERO), Word::from_u64(argument));
            assert!(evm.call(CallParams::new(Address::ZERO, addr), &mut balances).unwrap().success);
        }
        assert_eq!(evm.cache.retained(), 1, "{:?}", evm.cache);
        // Six init decodes and one runtime decode; five instances found
        // the template's program under its content hash.
        let stats = evm.cache.stats();
        assert_eq!((stats.hits, stats.misses), (5, 7));
    }

    #[test]
    fn keccak_matches_library() {
        // keccak256 of 32 zero bytes.
        let runtime = {
            let mut b = Asm::new()
                .push_u64(32) // size (popped second)
                .push_u64(0) // offset (popped first)
                .op(Op::Keccak256)
                .build();
            b.extend(return_top().build());
            b
        };
        let (_, _, out, _) = run(runtime, vec![]);
        let expect = keccak256(&[0u8; 32]);
        assert_eq!(out.output, expect);
    }
}
