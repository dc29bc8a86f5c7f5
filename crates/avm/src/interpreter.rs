//! The AVM interpreter over the journaled world state.
//!
//! Like the EVM, execution is expressed as free functions over an
//! [`Overlay`] ([`create_app`], [`call_app`]) so the chain simulator can
//! run application calls inside speculative overlays, while the [`Avm`]
//! façade wraps a private [`WorldState`] and keeps the historical
//! standalone API with balances threaded through as a mutable map.
//!
//! Application programs live in the state as shared [`StateValue::Blob`]s:
//! re-reading an installed app clones an `Arc`, not the instruction list,
//! and rejection rollback is a journal truncation instead of re-inserting
//! a cloned copy of the app's state.

use crate::cost::CALL_BUDGET;
use crate::opcode::{AvmOp, GlobalField, TxnField};
use crate::program::AvmProgram;
use crate::state::TealValue;
use pol_crypto::{keccak256, sha256};
use pol_ledger::state::{self, BalancePatchBase, Overlay, StateKey, StateValue, WorldState};
use pol_ledger::Address;
use std::collections::HashMap;
use std::sync::Arc;

/// Machine-level failures. Program *rejection* is not an error — it is a
/// normal [`AppOutcome`] with `approved == false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvmError {
    /// Call target does not exist.
    UnknownApp(u64),
    /// Pop on an empty stack.
    StackError,
    /// An operand had the wrong TEAL type.
    TypeError(&'static str),
    /// Overflow, underflow or division by zero.
    Arithmetic(&'static str),
    /// The per-call opcode budget was exhausted.
    BudgetExceeded {
        /// The budget in force.
        budget: u64,
    },
    /// Branch to an unknown label.
    BadBranch(usize),
    /// The installed `AppProgram` blob is not an [`AvmProgram`] — the
    /// state entry was corrupted by something outside the AVM.
    CorruptProgram(u64),
    /// The grouped payment exceeds the sender's balance.
    InsufficientPayment,
    /// Creation program rejected.
    CreateRejected,
}

impl std::fmt::Display for AvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AvmError::UnknownApp(id) => write!(f, "unknown application {id}"),
            AvmError::StackError => write!(f, "stack underflow"),
            AvmError::TypeError(msg) => write!(f, "type error: {msg}"),
            AvmError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            AvmError::BudgetExceeded { budget } => write!(f, "opcode budget {budget} exceeded"),
            AvmError::BadBranch(l) => write!(f, "branch to unknown label {l}"),
            AvmError::CorruptProgram(id) => {
                write!(f, "application {id} program blob is not an AVM program")
            }
            AvmError::InsufficientPayment => write!(f, "insufficient balance for payment"),
            AvmError::CreateRejected => write!(f, "creation program rejected"),
        }
    }
}

impl std::error::Error for AvmError {}

/// Parameters of an application call.
#[derive(Debug, Clone)]
pub struct AppCallParams {
    /// The calling account.
    pub sender: Address,
    /// Application to call (`0` only internally, during creation).
    pub app_id: u64,
    /// Application arguments.
    pub args: Vec<Vec<u8>>,
    /// µAlgo payment grouped with the call (credited to the app account).
    pub payment: u64,
    /// Current round.
    pub round: u64,
    /// Latest block timestamp, seconds.
    pub timestamp_s: u64,
}

impl AppCallParams {
    /// Builds default parameters for calling `app_id` from `sender`.
    pub fn new(sender: Address, app_id: u64) -> AppCallParams {
        AppCallParams { sender, app_id, args: Vec::new(), payment: 0, round: 1, timestamp_s: 1 }
    }

    /// Sets the application arguments (builder style).
    pub fn with_args(mut self, args: Vec<Vec<u8>>) -> AppCallParams {
        self.args = args;
        self
    }

    /// Sets the grouped payment (builder style).
    pub fn with_payment(mut self, payment: u64) -> AppCallParams {
        self.payment = payment;
        self
    }
}

/// Result of an application call.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Whether the approval program approved.
    pub approved: bool,
    /// Opcode budget consumed.
    pub cost: u64,
    /// `log` records emitted.
    pub logs: Vec<Vec<u8>>,
    /// Inner payments executed (receiver, µAlgo).
    pub inner_payments: Vec<(Address, u64)>,
}

/// µAlgo balances, threaded through the standalone [`Avm`] façade's calls.
pub type Balances = HashMap<Address, u128>;

/// The escrow address of an application account.
pub fn app_address(app_id: u64) -> Address {
    let mut preimage = b"algorand-app".to_vec();
    preimage.extend_from_slice(&app_id.to_be_bytes());
    let digest = keccak256(&preimage);
    let mut out = [0u8; 20];
    out.copy_from_slice(&digest[12..]);
    Address(out)
}

fn teal_to_state(value: TealValue) -> StateValue {
    match value {
        TealValue::Uint(v) => StateValue::U64(v),
        TealValue::Bytes(b) => StateValue::Bytes(b),
    }
}

fn state_to_teal(value: StateValue) -> TealValue {
    match value {
        StateValue::U64(v) => TealValue::Uint(v),
        StateValue::Bytes(b) => TealValue::Bytes(b),
        other => unreachable!("AVM state entries are uint64 or bytes, found {other:?}"),
    }
}

/// Creates an application against an overlay: runs `program` once with
/// `ApplicationID == 0` (creation semantics); if it approves, the app is
/// installed and its id returned. All effects of failed creations are
/// rolled back via the journal.
///
/// # Errors
///
/// Machine errors, or [`AvmError::CreateRejected`] if the creation run
/// rejects.
pub fn create_app(
    state: &mut Overlay<'_>,
    creator: Address,
    program: AvmProgram,
    args: Vec<Vec<u8>>,
) -> Result<u64, AvmError> {
    let app_id = state.get(&StateKey::AppCount).and_then(|v| v.as_u64()).unwrap_or(1);
    let checkpoint = state.checkpoint();
    state.put(StateKey::AppProgram(app_id), StateValue::Blob(Arc::new(program)));
    state.put(StateKey::AppCreator(app_id), StateValue::Bytes(creator.0.to_vec()));
    let params =
        AppCallParams { sender: creator, app_id, args, payment: 0, round: 1, timestamp_s: 1 };
    match run(state, &params, true) {
        Ok(outcome) if outcome.approved => {
            state.put(StateKey::AppCount, StateValue::U64(app_id + 1));
            Ok(app_id)
        }
        Ok(_) => {
            state.rollback_to(checkpoint);
            Err(AvmError::CreateRejected)
        }
        Err(e) => {
            state.rollback_to(checkpoint);
            Err(e)
        }
    }
}

/// Executes an application call against an overlay. State changes,
/// the grouped payment and inner payments are all rolled back when the
/// program rejects or faults.
///
/// # Errors
///
/// Machine errors ([`AvmError`]); rejection is NOT an error.
pub fn call_app(state: &mut Overlay<'_>, params: AppCallParams) -> Result<AppOutcome, AvmError> {
    if state.get(&StateKey::AppProgram(params.app_id)).is_none() {
        return Err(AvmError::UnknownApp(params.app_id));
    }
    run(state, &params, false)
}

fn run(
    state: &mut Overlay<'_>,
    params: &AppCallParams,
    creating: bool,
) -> Result<AppOutcome, AvmError> {
    let escrow = app_address(params.app_id);
    // Checkpoint BEFORE the grouped payment: unlike the EVM's call value,
    // a rejected app call refunds the payment too.
    let checkpoint = state.checkpoint();
    if params.payment > 0 {
        let from = state.balance_of(params.sender);
        if from < u128::from(params.payment) {
            return Err(AvmError::InsufficientPayment);
        }
        state.set_balance_of(params.sender, from - u128::from(params.payment));
        let to = state.balance_of(escrow);
        state.set_balance_of(escrow, to + u128::from(params.payment));
    }
    let result = execute(state, params, creating, escrow);
    match &result {
        Ok(outcome) if outcome.approved => {}
        _ => {
            // Reject or machine error: roll everything back.
            state.rollback_to(checkpoint);
        }
    }
    result
}

#[allow(clippy::too_many_lines)]
fn execute(
    state: &mut Overlay<'_>,
    params: &AppCallParams,
    creating: bool,
    app_address: Address,
) -> Result<AppOutcome, AvmError> {
    let program_blob = state
        .get(&StateKey::AppProgram(params.app_id))
        .and_then(|v| v.as_blob().cloned())
        .ok_or(AvmError::UnknownApp(params.app_id))?;
    let program = program_blob
        .as_any()
        .downcast_ref::<AvmProgram>()
        .ok_or(AvmError::CorruptProgram(params.app_id))?;
    let mut stack: Vec<TealValue> = Vec::with_capacity(16);
    // Scratch slots are dense small integers in compiler output: a
    // lazily-grown vector beats hashing every store/load.
    let mut scratch: Vec<Option<TealValue>> = Vec::new();
    let mut pc = 0usize;
    let mut cost = 0u64;
    let mut logs = Vec::new();
    let mut inner_payments = Vec::new();

    macro_rules! pop {
        () => {
            stack.pop().ok_or(AvmError::StackError)?
        };
    }
    macro_rules! pop_int {
        () => {
            pop!().as_uint().ok_or(AvmError::TypeError("expected uint64"))?
        };
    }
    macro_rules! pop_bytes {
        () => {
            match pop!() {
                TealValue::Bytes(b) => b,
                TealValue::Uint(_) => return Err(AvmError::TypeError("expected bytes")),
            }
        };
    }
    // `pc` has already been advanced past the branch when an arm fires,
    // so its own instruction index — where its target row lives — is
    // `pc - 1`.
    macro_rules! branch {
        ($label:expr) => {{
            pc = program.branch_target(pc - 1).ok_or(AvmError::BadBranch($label))?;
            continue;
        }};
    }

    let ops = program.ops();
    while pc < ops.len() {
        let op = &ops[pc];
        cost += program.cost(pc);
        if cost > CALL_BUDGET {
            return Err(AvmError::BudgetExceeded { budget: CALL_BUDGET });
        }
        pc += 1;
        match op {
            AvmOp::PushInt(v) => stack.push(TealValue::Uint(*v)),
            AvmOp::PushBytes(b) => stack.push(TealValue::Bytes(b.clone())),
            AvmOp::Add => {
                let (b, a) = (pop_int!(), pop_int!());
                stack.push(TealValue::Uint(
                    a.checked_add(b).ok_or(AvmError::Arithmetic("overflow"))?,
                ));
            }
            AvmOp::Sub => {
                let (b, a) = (pop_int!(), pop_int!());
                stack.push(TealValue::Uint(
                    a.checked_sub(b).ok_or(AvmError::Arithmetic("underflow"))?,
                ));
            }
            AvmOp::Mul => {
                let (b, a) = (pop_int!(), pop_int!());
                stack.push(TealValue::Uint(
                    a.checked_mul(b).ok_or(AvmError::Arithmetic("overflow"))?,
                ));
            }
            AvmOp::Div => {
                let (b, a) = (pop_int!(), pop_int!());
                stack.push(TealValue::Uint(
                    a.checked_div(b).ok_or(AvmError::Arithmetic("division by zero"))?,
                ));
            }
            AvmOp::Mod => {
                let (b, a) = (pop_int!(), pop_int!());
                stack.push(TealValue::Uint(
                    a.checked_rem(b).ok_or(AvmError::Arithmetic("modulo zero"))?,
                ));
            }
            AvmOp::Lt => cmp_int(&mut stack, |a, b| a < b)?,
            AvmOp::Gt => cmp_int(&mut stack, |a, b| a > b)?,
            AvmOp::Le => cmp_int(&mut stack, |a, b| a <= b)?,
            AvmOp::Ge => cmp_int(&mut stack, |a, b| a >= b)?,
            AvmOp::Eq => {
                let (b, a) = (pop!(), pop!());
                stack.push(TealValue::Uint(u64::from(a == b)));
            }
            AvmOp::Ne => {
                let (b, a) = (pop!(), pop!());
                stack.push(TealValue::Uint(u64::from(a != b)));
            }
            AvmOp::AndL => cmp_int(&mut stack, |a, b| a != 0 && b != 0)?,
            AvmOp::OrL => cmp_int(&mut stack, |a, b| a != 0 || b != 0)?,
            AvmOp::NotL => {
                let a = pop_int!();
                stack.push(TealValue::Uint(u64::from(a == 0)));
            }
            AvmOp::Sha256 => {
                let b = pop_bytes!();
                stack.push(TealValue::Bytes(sha256(&b).to_vec()));
            }
            AvmOp::Keccak256 => {
                let b = pop_bytes!();
                stack.push(TealValue::Bytes(keccak256(&b).to_vec()));
            }
            AvmOp::Concat => {
                let b = pop_bytes!();
                let mut a = pop_bytes!();
                a.extend_from_slice(&b);
                stack.push(TealValue::Bytes(a));
            }
            AvmOp::Len => {
                let b = pop_bytes!();
                stack.push(TealValue::Uint(b.len() as u64));
            }
            AvmOp::Itob => {
                let v = pop_int!();
                stack.push(TealValue::Bytes(v.to_be_bytes().to_vec()));
            }
            AvmOp::Btoi => {
                let b = pop_bytes!();
                if b.len() > 8 {
                    return Err(AvmError::TypeError("btoi input longer than 8 bytes"));
                }
                let mut buf = [0u8; 8];
                buf[8 - b.len()..].copy_from_slice(&b);
                stack.push(TealValue::Uint(u64::from_be_bytes(buf)));
            }
            AvmOp::Dup => {
                let v = stack.last().ok_or(AvmError::StackError)?.clone();
                stack.push(v);
            }
            AvmOp::Swap => {
                let len = stack.len();
                if len < 2 {
                    return Err(AvmError::StackError);
                }
                stack.swap(len - 1, len - 2);
            }
            AvmOp::Pop => {
                let _ = pop!();
            }
            AvmOp::Store(slot) => {
                let v = pop!();
                let idx = usize::from(*slot);
                if scratch.len() <= idx {
                    scratch.resize(idx + 1, None);
                }
                scratch[idx] = Some(v);
            }
            AvmOp::Load(slot) => {
                stack.push(
                    scratch
                        .get(usize::from(*slot))
                        .and_then(Option::clone)
                        .unwrap_or(TealValue::Uint(0)),
                );
            }
            AvmOp::Txn(field) => stack.push(match field {
                TxnField::Sender => TealValue::Bytes(params.sender.0.to_vec()),
                TxnField::ApplicationId => {
                    TealValue::Uint(if creating { 0 } else { params.app_id })
                }
                TxnField::NumAppArgs => TealValue::Uint(params.args.len() as u64),
                TxnField::Amount => TealValue::Uint(params.payment),
            }),
            AvmOp::TxnArg(i) => {
                let arg = params.args.get(*i as usize).cloned().unwrap_or_default();
                stack.push(TealValue::Bytes(arg));
            }
            AvmOp::Global(field) => stack.push(match field {
                GlobalField::Round => TealValue::Uint(params.round),
                GlobalField::LatestTimestamp => TealValue::Uint(params.timestamp_s),
                GlobalField::CurrentApplicationId => TealValue::Uint(params.app_id),
            }),
            AvmOp::B(l) => branch!(*l),
            AvmOp::Bz(l) => {
                if pop_int!() == 0 {
                    branch!(*l);
                }
            }
            AvmOp::Bnz(l) => {
                if pop_int!() != 0 {
                    branch!(*l);
                }
            }
            AvmOp::Label(_) => {}
            AvmOp::Assert => {
                if pop_int!() == 0 {
                    return Ok(AppOutcome { approved: false, cost, logs, inner_payments });
                }
            }
            AvmOp::AppGlobalPut => {
                let value = pop!();
                let key = pop_bytes!();
                state.put(StateKey::AppGlobal(params.app_id, key), teal_to_state(value));
            }
            AvmOp::AppGlobalGet => {
                let key = pop_bytes!();
                match state.get(&StateKey::AppGlobal(params.app_id, key)) {
                    Some(v) => {
                        stack.push(state_to_teal(v));
                        stack.push(TealValue::Uint(1));
                    }
                    None => {
                        stack.push(TealValue::Uint(0));
                        stack.push(TealValue::Uint(0));
                    }
                }
            }
            AvmOp::BoxPut => {
                let value = pop_bytes!();
                let key = pop_bytes!();
                state.put(StateKey::AppBox(params.app_id, key), StateValue::Bytes(value));
            }
            AvmOp::BoxGet => {
                let key = pop_bytes!();
                match state.get(&StateKey::AppBox(params.app_id, key)) {
                    Some(v) => {
                        stack.push(TealValue::Bytes(
                            v.as_bytes().map(<[u8]>::to_vec).unwrap_or_default(),
                        ));
                        stack.push(TealValue::Uint(1));
                    }
                    None => {
                        stack.push(TealValue::Bytes(Vec::new()));
                        stack.push(TealValue::Uint(0));
                    }
                }
            }
            AvmOp::BoxDel => {
                let key = pop_bytes!();
                let box_key = StateKey::AppBox(params.app_id, key);
                let existed = state.get(&box_key).is_some();
                state.delete(box_key);
                stack.push(TealValue::Uint(u64::from(existed)));
            }
            AvmOp::InnerPay => {
                let amount = pop_int!();
                let receiver_bytes = pop_bytes!();
                if receiver_bytes.len() != 20 {
                    return Err(AvmError::TypeError("receiver must be a 20-byte address"));
                }
                let mut addr = [0u8; 20];
                addr.copy_from_slice(&receiver_bytes);
                let receiver = Address(addr);
                let app_balance = state.balance_of(app_address);
                if app_balance < u128::from(amount) {
                    // Inner transaction failure rejects the whole call.
                    return Ok(AppOutcome { approved: false, cost, logs, inner_payments });
                }
                state.set_balance_of(app_address, app_balance - u128::from(amount));
                let receiver_balance = state.balance_of(receiver);
                state.set_balance_of(receiver, receiver_balance + u128::from(amount));
                inner_payments.push((receiver, amount));
            }
            AvmOp::Log => {
                let b = pop_bytes!();
                logs.push(b);
            }
            AvmOp::AppBalance => {
                let bal = state.balance_of(app_address);
                stack.push(TealValue::Uint(bal.min(u128::from(u64::MAX)) as u64));
            }
            AvmOp::Return => {
                let approved = pop_int!() != 0;
                return Ok(AppOutcome { approved, cost, logs, inner_payments });
            }
        }
    }
    // Falling off the end rejects, as on the real AVM.
    Ok(AppOutcome { approved: false, cost, logs, inner_payments })
}

/// Read-only view over the AVM-owned entries of a world state (installed
/// apps, global state and boxes). The explorer and tests inspect the
/// chain through this instead of holding a whole `Avm`.
pub struct AvmView<'a> {
    world: &'a WorldState,
}

impl<'a> AvmView<'a> {
    /// Opens a view over a world.
    pub fn new(world: &'a WorldState) -> AvmView<'a> {
        AvmView { world }
    }

    /// Reads a global state value.
    pub(crate) fn global(&self, app_id: u64, key: &[u8]) -> Option<TealValue> {
        self.world.get(&StateKey::AppGlobal(app_id, key.to_vec())).map(|v| state_to_teal(v.clone()))
    }

    /// Number of boxes held by an app.
    pub fn box_count(&self, app_id: u64) -> usize {
        self.world.keys().filter(|k| matches!(k, StateKey::AppBox(id, _) if *id == app_id)).count()
    }
}

/// The standalone AVM application ledger: a private [`WorldState`]
/// holding installed programs, global state and boxes.
///
/// µAlgo balances live outside the machine (the caller owns them) and
/// are threaded through each call as a mutable map. Each call runs inside
/// a journaled [`Overlay`] whose write set is split back into the balance
/// map and the world afterwards.
#[derive(Debug, Default)]
pub struct Avm {
    world: WorldState,
}

impl Avm {
    /// Creates an empty ledger.
    pub fn new() -> Avm {
        Avm::default()
    }

    /// The escrow address of an application account.
    pub fn app_address(app_id: u64) -> Address {
        app_address(app_id)
    }

    /// Reads a global state value.
    pub fn global(&self, app_id: u64, key: &[u8]) -> Option<TealValue> {
        AvmView::new(&self.world).global(app_id, key)
    }

    /// Creates an application with creation arguments (constructor
    /// values); see the [`create_app`] free function.
    ///
    /// # Errors
    ///
    /// Machine errors, or [`AvmError::CreateRejected`] if the creation run
    /// rejects.
    pub fn create_app_with_args(
        &mut self,
        creator: Address,
        program: AvmProgram,
        args: Vec<Vec<u8>>,
        balances: &mut Balances,
    ) -> Result<u64, AvmError> {
        let (result, writes) = {
            let base = BalancePatchBase::new(&self.world, balances);
            let mut view = Overlay::new(&base);
            let result = create_app(&mut view, creator, program, args);
            (result, view.into_writes())
        };
        state::apply_split(writes, &mut self.world, balances);
        result
    }

    /// Executes an application call (see the [`call_app`] free function).
    ///
    /// # Errors
    ///
    /// Machine errors ([`AvmError`]); rejection is NOT an error.
    pub fn call(
        &mut self,
        params: AppCallParams,
        balances: &mut Balances,
    ) -> Result<AppOutcome, AvmError> {
        let (result, writes) = {
            let base = BalancePatchBase::new(&self.world, balances);
            let mut view = Overlay::new(&base);
            let result = call_app(&mut view, params);
            (result, view.into_writes())
        };
        state::apply_split(writes, &mut self.world, balances);
        result
    }
}

fn cmp_int(stack: &mut Vec<TealValue>, f: impl Fn(u64, u64) -> bool) -> Result<(), AvmError> {
    let b = stack
        .pop()
        .ok_or(AvmError::StackError)?
        .as_uint()
        .ok_or(AvmError::TypeError("expected uint64"))?;
    let a = stack
        .pop()
        .ok_or(AvmError::StackError)?
        .as_uint()
        .ok_or(AvmError::TypeError("expected uint64"))?;
    stack.push(TealValue::Uint(u64::from(f(a, b))));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::AvmOp::*;

    fn approve_program(body: Vec<AvmOp>) -> AvmProgram {
        let mut ops = body;
        ops.push(PushInt(1));
        ops.push(Return);
        AvmProgram::new(ops)
    }

    fn setup(body: Vec<AvmOp>) -> (Avm, u64, Balances) {
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let id = avm
            .create_app_with_args(Address::ZERO, approve_program(body), Vec::new(), &mut balances)
            .unwrap();
        (avm, id, balances)
    }

    #[test]
    fn create_and_call() {
        let (mut avm, id, mut balances) = setup(vec![]);
        let out = avm.call(AppCallParams::new(Address::ZERO, id), &mut balances).unwrap();
        assert!(out.approved);
    }

    #[test]
    fn rejecting_create_fails() {
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let program = AvmProgram::new(vec![PushInt(0), Return]);
        assert_eq!(
            avm.create_app_with_args(Address::ZERO, program, Vec::new(), &mut balances),
            Err(AvmError::CreateRejected)
        );
        assert_eq!(avm.world.keys().count(), 0, "a rejected creation installs nothing");
    }

    #[test]
    fn global_state_round_trip() {
        let body = vec![PushBytes(b"Creator".to_vec()), Txn(TxnField::Sender), AppGlobalPut];
        let (avm, id, _) = setup(body);
        assert_eq!(avm.global(id, b"Creator"), Some(TealValue::Bytes(Address::ZERO.0.to_vec())));
    }

    #[test]
    fn boxes_round_trip() {
        // On create: put box. On call: read it, check presence, delete it.
        let lbl_create = 0;
        let ops = vec![
            Txn(TxnField::ApplicationId),
            Bz(lbl_create),
            PushBytes(b"did-1".to_vec()),
            BoxGet,
            Assert, // present
            PushBytes(b"proof".to_vec()),
            Eq,
            Assert, // value matches
            PushBytes(b"did-1".to_vec()),
            BoxDel,
            Assert, // existed
            PushInt(1),
            Return,
            Label(lbl_create),
            PushBytes(b"did-1".to_vec()),
            PushBytes(b"proof".to_vec()),
            BoxPut,
            PushInt(1),
            Return,
        ];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let id = avm
            .create_app_with_args(Address::ZERO, AvmProgram::new(ops), Vec::new(), &mut balances)
            .unwrap();
        assert_eq!(AvmView::new(&avm.world).box_count(id), 1);
        let out = avm.call(AppCallParams::new(Address::ZERO, id), &mut balances).unwrap();
        assert!(out.approved);
        assert_eq!(AvmView::new(&avm.world).box_count(id), 0);
    }

    #[test]
    fn arithmetic_overflow_is_error() {
        let body = vec![PushInt(u64::MAX), PushInt(1), Add, Pop];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let err = avm
            .create_app_with_args(Address::ZERO, approve_program(body), Vec::new(), &mut balances)
            .unwrap_err();
        assert_eq!(err, AvmError::Arithmetic("overflow"));
    }

    #[test]
    fn budget_enforced() {
        // A loop that never terminates must exhaust the budget.
        let body = vec![Label(0), PushInt(1), Pop, B(0)];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let err = avm
            .create_app_with_args(Address::ZERO, approve_program(body), Vec::new(), &mut balances)
            .unwrap_err();
        assert_eq!(err, AvmError::BudgetExceeded { budget: CALL_BUDGET });
    }

    #[test]
    fn rejection_rolls_back_state() {
        // Approve at creation (app_id==0 path), write a box then reject on call.
        let lbl_create = 0;
        let ops = vec![
            Txn(TxnField::ApplicationId),
            Bz(lbl_create),
            PushBytes(b"k".to_vec()),
            PushBytes(b"v".to_vec()),
            BoxPut,
            PushInt(0),
            Return,
            Label(lbl_create),
            PushInt(1),
            Return,
        ];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        let id = avm
            .create_app_with_args(Address::ZERO, AvmProgram::new(ops), Vec::new(), &mut balances)
            .unwrap();
        let out = avm.call(AppCallParams::new(Address::ZERO, id), &mut balances).unwrap();
        assert!(!out.approved);
        assert_eq!(AvmView::new(&avm.world).box_count(id), 0, "rejected writes must roll back");
    }

    #[test]
    fn payment_and_inner_pay() {
        // On call: pay 300 to the sender from the app account.
        let lbl_create = 0;
        let sender = Address([7; 20]);
        let ops = vec![
            Txn(TxnField::ApplicationId),
            Bz(lbl_create),
            Txn(TxnField::Sender),
            PushInt(300),
            InnerPay,
            PushInt(1),
            Return,
            Label(lbl_create),
            PushInt(1),
            Return,
        ];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        balances.insert(sender, 10_000);
        let id = avm
            .create_app_with_args(Address::ZERO, AvmProgram::new(ops), Vec::new(), &mut balances)
            .unwrap();
        let out =
            avm.call(AppCallParams::new(sender, id).with_payment(1_000), &mut balances).unwrap();
        assert!(out.approved);
        assert_eq!(out.inner_payments, vec![(sender, 300)]);
        // Sender paid 1000 in, got 300 back.
        assert_eq!(balances[&sender], 10_000 - 1_000 + 300);
        assert_eq!(balances[&Avm::app_address(id)], 700);
    }

    #[test]
    fn insufficient_inner_pay_rejects_and_rolls_back() {
        let lbl_create = 0;
        let sender = Address([8; 20]);
        let ops = vec![
            Txn(TxnField::ApplicationId),
            Bz(lbl_create),
            Txn(TxnField::Sender),
            PushInt(1_000_000),
            InnerPay,
            PushInt(1),
            Return,
            Label(lbl_create),
            PushInt(1),
            Return,
        ];
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        balances.insert(sender, 5_000);
        let id = avm
            .create_app_with_args(Address::ZERO, AvmProgram::new(ops), Vec::new(), &mut balances)
            .unwrap();
        let out =
            avm.call(AppCallParams::new(sender, id).with_payment(2_000), &mut balances).unwrap();
        assert!(!out.approved);
        // Payment rolled back too.
        assert_eq!(balances[&sender], 5_000);
    }

    #[test]
    fn concat_len_itob_btoi() {
        let body = vec![
            PushBytes(b"ab".to_vec()),
            PushBytes(b"cd".to_vec()),
            Concat,
            Len,
            Itob,
            Btoi,
            PushInt(4),
            Eq,
            Assert,
        ];
        let (_, id, _) = setup(body);
        assert!(id > 0);
    }

    #[test]
    fn unknown_app_rejected() {
        let mut avm = Avm::new();
        let mut balances = Balances::new();
        assert!(matches!(
            avm.call(AppCallParams::new(Address::ZERO, 42), &mut balances),
            Err(AvmError::UnknownApp(42))
        ));
    }
}
