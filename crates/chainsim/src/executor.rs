//! Deterministic block execution: a sequential reference path and an
//! optimistic-parallel path (Block-STM style) that must agree with it
//! byte for byte.
//!
//! The parallel executor speculates every arrived transaction of a block
//! once, against the block-start world, on a scoped worker pool — longest
//! estimated transaction first (static gas certificate, else a tx-kind
//! default) — then commits in one scan in submission order, validating
//! each speculation's recorded read set against the state left by the
//! already-committed prefix.
//!
//! A speculation whose reads went stale is re-executed in place, on the
//! scan thread, against the world as committed so far. That base *is*
//! the committed prefix the sequential path would have run the
//! transaction on, so the re-execution commits unvalidated: a block costs
//! at most two executions and one validation per transaction, and yields
//! exactly the receipts, gas accounting and fee burn of the sequential
//! path.

use crate::chain::{AvmPayload, PendingTx, VmKind};
use crate::facts::{CallQuery, StaticFacts};
use crate::feemarket;
use pol_avm::{call_app, create_app, AppCallParams};
use pol_evm::{call_contract, deploy_contract, CallParams, CodeCache};
use pol_ledger::{
    AccessClaims, Address, Amount, ContractId, Currency, Overlay, ReadSet, Receipt, StateKey,
    Transaction, TxId, TxKind, TxStatus, WorldState, WriteSet,
};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Typed revert reason for a [`TxKind::Transfer`] carrying no recipient
/// (`tx.to == None`): such a transfer used to credit [`Address::ZERO`]
/// silently; it now reverts with this status on both VM paths.
pub(crate) const MISSING_RECIPIENT: &str = "missing recipient";

/// How a chain turns a block's transactions into state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One transaction at a time, in submission order — the reference
    /// semantics and the differential oracle for the parallel path.
    #[default]
    Sequential,
    /// Optimistic-parallel execution: one speculation round over a
    /// scoped thread pool, then one commit scan in submission order that
    /// re-executes a stale speculation in place; receipts, gas and burn
    /// are byte-identical to [`ExecutionMode::Sequential`].
    Parallel {
        /// Worker threads of the speculation round (clamped to ≥ 1).
        workers: usize,
    },
    /// [`ExecutionMode::Parallel`] plus static lane partitioning: before
    /// speculation, each arrived transaction's compile-time access
    /// claims (resolved through the chain's registered access
    /// resolvers) are checked pairwise for commutativity. A transaction proven disjoint
    /// from every other arrived transaction commits *without* read-set
    /// validation — the sequential commit-scan work Block-STM pays for
    /// dynamic conflict discovery. Transactions without claims (or
    /// overlapping ones) take the ordinary optimistic path. Receipts,
    /// gas and burn stay byte-identical to [`ExecutionMode::Sequential`].
    ParallelStatic {
        /// Worker threads of the speculation round (clamped to ≥ 1).
        workers: usize,
    },
}

/// Cumulative executor counters, exposed through
/// [`crate::chain::Chain::exec_stats`] and the explorer report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Blocks produced (both modes).
    pub blocks: u64,
    /// Blocks whose transactions ran through the parallel path.
    pub parallel_blocks: u64,
    /// Transactions committed into blocks.
    pub committed_txs: u64,
    /// Executions launched by the parallel path: the speculation round
    /// plus the in-place re-executions of stale speculations.
    pub speculative_runs: u64,
    /// Read-set validations that failed: the speculation was discarded
    /// and the transaction re-executed in place.
    pub conflicts: u64,
    /// Always 0: a speculation is validated once, when the commit scan
    /// reaches it, and never again. The field stays only because the
    /// frozen benchmark reads it (`chainsim.revalidations_per_tx`); it
    /// goes at the next benchmark re-anchor.
    pub revalidations: u64,
    /// Wall-clock nanoseconds spent in executions that committed — the
    /// work a sequential executor would have done.
    pub committed_exec_ns: u128,
    /// Transactions proven pairwise-disjoint by their static access
    /// claims and placed on a validation-free lane
    /// ([`ExecutionMode::ParallelStatic`]).
    pub static_lanes: u64,
    /// Commit-scan read-set validations skipped because the committing
    /// transaction rode a static lane.
    pub speculation_skipped: u64,
    /// Arrived transactions whose access claims could not be resolved
    /// (no registered resolver, unknown method, malformed arguments) in
    /// a [`ExecutionMode::ParallelStatic`] block — they poison lane
    /// formation for that block and fall back to the optimistic path.
    pub summary_fallbacks: u64,
    /// Wall-clock nanoseconds the commit scan spent validating read
    /// sets. This is *sequential* work — the scan runs on one thread —
    /// and static lanes exist to delete it.
    pub validation_ns: u128,
    /// Code-cache hits: EVM executions that reused a pre-decoded program
    /// instead of decoding it again. Snapshot of the chain's
    /// [`CodeCache`] counters, taken after each block; AVM programs carry
    /// their derived rows themselves, so on AVM chains the three cache
    /// counters stay 0.
    pub code_cache_hits: u64,
    /// Code-cache misses: executions that had to decode.
    pub code_cache_misses: u64,
    /// Wall-clock nanoseconds spent decoding bytecode — paid once per
    /// distinct program when the cache is on, once per execution when
    /// it is off.
    pub decode_ns: u64,
    /// Never-executed transactions whose scheduler priority was seeded
    /// from a static worst-case gas certificate (resolved through the
    /// chain's registered gas resolvers) instead of a tx-kind default.
    pub static_gas_seeded: u64,
    /// Never-executed transactions that fell back to the tx-kind default
    /// estimate (no certificate registered, or the resolver declined).
    pub default_seeded: u64,
}

/// Per-block execution context shared by every transaction of the block.
pub(crate) struct ExecCtx<'a> {
    pub(crate) vm: VmKind,
    pub(crate) flat_fee: u128,
    pub(crate) base_fee: u128,
    pub(crate) currency: Currency,
    pub(crate) height: u64,
    pub(crate) block_time: u64,
    pub(crate) avm_payloads: &'a HashMap<TxId, AvmPayload>,
    /// Per-contract access and gas resolvers: claims for static lane
    /// partitioning, bounds to seed the scheduler's priority estimates,
    /// and both for the commit-time sanitizers.
    pub(crate) facts: &'a StaticFacts,
    /// When set, every commit re-resolves the transaction's access
    /// claims and panics if the observed read/write sets escape them —
    /// the soundness contract of the static summaries, enforced on
    /// every test run.
    pub(crate) sanitize: bool,
    /// Shared pre-decoded EVM program cache: one decode per distinct
    /// program, reused across executions, execution modes and blocks.
    pub(crate) cache: &'a CodeCache,
}

/// What one speculative (or sequential) execution produced.
struct TxOutcome {
    receipt: Receipt,
    gas_used: u64,
    burned: u128,
    reads: ReadSet,
    writes: WriteSet,
    exec_ns: u128,
}

/// Everything a block execution decided.
pub(crate) struct BlockOutcome {
    /// Transactions included in the block, in submission order, with
    /// their receipts.
    pub(crate) committed: Vec<(PendingTx, Receipt)>,
    /// Transactions returned to the mempool (not yet arrived, or out of
    /// block gas), in their original relative order.
    pub(crate) leftover: Vec<PendingTx>,
    /// Gas consumed by the included transactions (EVM chains).
    pub(crate) tx_gas: u64,
    /// Base fees (or flat fees) burned by the included transactions.
    pub(crate) burned: u128,
}

/// Executes one block's candidate transactions against `world`.
pub(crate) fn run_block(
    ctx: &ExecCtx<'_>,
    world: &mut WorldState,
    pool: Vec<PendingTx>,
    gas_budget: u64,
    mode: ExecutionMode,
    stats: &mut ExecStats,
) -> BlockOutcome {
    stats.blocks += 1;
    let outcome = match mode {
        ExecutionMode::Sequential => run_sequential(ctx, world, pool, gas_budget, stats),
        ExecutionMode::Parallel { workers } => {
            stats.parallel_blocks += 1;
            let lane = vec![false; pool.len()];
            run_parallel(ctx, world, pool, gas_budget, workers.max(1), lane, stats)
        }
        ExecutionMode::ParallelStatic { workers } => {
            stats.parallel_blocks += 1;
            let lane = compute_lanes(ctx, &pool, stats);
            run_parallel(ctx, world, pool, gas_budget, workers.max(1), lane, stats)
        }
    };
    // The cache counters are cumulative on the chain's `CodeCache`;
    // snapshot them so `exec_stats` stays a single coherent view.
    let cache_stats = ctx.cache.stats();
    stats.code_cache_hits = cache_stats.hits;
    stats.code_cache_misses = cache_stats.misses;
    stats.decode_ns = cache_stats.decode_ns;
    outcome
}

/// The static access claims of one pending transaction, including the
/// fee-settlement footprint the executor adds around the VM call, or
/// `None` when no sound claim can be made (deployments, unresolved
/// contract calls).
fn tx_claims(ctx: &ExecCtx<'_>, pending: &PendingTx) -> Option<AccessClaims> {
    let tx = &pending.tx;
    // Both fee paths read and write the sender balance: the AVM debits
    // its flat fee up front, the EVM settles measured gas afterwards.
    let mut claims = AccessClaims::default();
    claims.read_write(StateKey::Balance(tx.from));
    match &tx.kind {
        TxKind::Transfer => {
            if let Some(to) = tx.to {
                claims.read_write(StateKey::Balance(to));
            }
            Some(claims)
        }
        TxKind::ContractCreate => None,
        TxKind::ContractCall(cid) => {
            // A call without its payload reverts before touching the
            // app; only the fee claims remain.
            let Some(query) = CallQuery::for_tx(ctx.vm, ctx.avm_payloads, tx, pending.id) else {
                return Some(claims);
            };
            claims.extend(ctx.facts.claims(cid, &query)?);
            Some(claims)
        }
    }
}

/// Panics if a committing outcome's observed read/write sets escape the
/// transaction's static claims — the summaries' soundness contract,
/// checked on every commit while [`ExecCtx::sanitize`] is set — or if
/// its observed `gas_used` exceeds the transaction's static gas
/// certificate, the cost pass's soundness contract, in every debug build
/// (so on every test run).
fn sanitize_commit(ctx: &ExecCtx<'_>, pending: &PendingTx, out: &TxOutcome) {
    // A machine error reports `gas_used = gas_limit` (not a metered
    // spend), so the certificate says nothing about it.
    if cfg!(debug_assertions) && out.gas_used < pending.tx.gas_limit {
        let bound = ctx.facts.tx_gas_bound(ctx.vm, ctx.avm_payloads, &pending.tx, pending.id);
        if let Some(bound) = bound {
            assert!(
                out.gas_used <= bound,
                "gas sanitizer: tx {:?} used {} gas, exceeding its static certificate {bound}",
                pending.id,
                out.gas_used,
            );
        }
    }
    if !ctx.sanitize {
        return;
    }
    let Some(claims) = tx_claims(ctx, pending) else { return };
    if let Some(key) = claims.first_uncovered_read(&out.reads) {
        panic!("access sanitizer: tx {:?} read {key:?} outside its static summary", pending.id);
    }
    if let Some(key) = claims.first_uncovered_write(&out.writes) {
        panic!("access sanitizer: tx {:?} wrote {key:?} outside its static summary", pending.id);
    }
}

/// Computes the static lane assignment for a block: `lane[i]` is set
/// when transaction `i` has resolved claims and commutes with *every*
/// other arrived transaction, so its speculation (taken against the
/// block-start world) provably survives any interleaving of
/// the block's commits and can commit without validation. One arrived
/// transaction without claims poisons the whole block: it could write
/// anything, so nothing is provably disjoint from it.
fn compute_lanes(ctx: &ExecCtx<'_>, pool: &[PendingTx], stats: &mut ExecStats) -> Vec<bool> {
    let n = pool.len();
    let mut lane = vec![false; n];
    let arrived: Vec<usize> = (0..n).filter(|&i| pool[i].arrival_ms <= ctx.block_time).collect();
    let claims: Vec<Option<AccessClaims>> =
        arrived.iter().map(|&i| tx_claims(ctx, &pool[i])).collect();
    let fallbacks = claims.iter().filter(|c| c.is_none()).count();
    stats.summary_fallbacks += fallbacks as u64;
    if fallbacks == 0 {
        for (a, &i) in arrived.iter().enumerate() {
            let ca = claims[a].as_ref().expect("checked above");
            lane[i] = claims
                .iter()
                .enumerate()
                .all(|(b, cb)| b == a || ca.commutes_with(cb.as_ref().expect("checked above")));
        }
    }
    stats.static_lanes += lane.iter().filter(|&&l| l).count() as u64;
    lane
}

/// Whether a transaction can still be included given the remaining block
/// gas and the prevailing base fee.
fn fits(ctx: &ExecCtx<'_>, tx: &Transaction, remaining_gas: u64) -> bool {
    match ctx.vm {
        VmKind::Evm => {
            tx.gas_limit <= remaining_gas
                && feemarket::effective_gas_price(
                    ctx.base_fee,
                    tx.max_fee_per_gas,
                    tx.max_priority_fee_per_gas,
                )
                .is_some()
        }
        VmKind::Avm => true,
    }
}

fn run_sequential(
    ctx: &ExecCtx<'_>,
    world: &mut WorldState,
    pool: Vec<PendingTx>,
    gas_budget: u64,
    stats: &mut ExecStats,
) -> BlockOutcome {
    let mut committed = Vec::new();
    let mut leftover = Vec::new();
    let mut remaining = gas_budget;
    let mut tx_gas = 0u64;
    let mut burned = 0u128;
    for pending in pool {
        if pending.arrival_ms > ctx.block_time || !fits(ctx, &pending.tx, remaining) {
            leftover.push(pending);
            continue;
        }
        let out = execute_tx(ctx, world, &pending);
        sanitize_commit(ctx, &pending, &out);
        world.apply(out.writes);
        if ctx.vm == VmKind::Evm {
            remaining = remaining.saturating_sub(out.gas_used);
            tx_gas += out.gas_used;
        }
        burned += out.burned;
        stats.committed_txs += 1;
        stats.committed_exec_ns += out.exec_ns;
        committed.push((pending, out.receipt));
    }
    BlockOutcome { committed, leftover, tx_gas, burned }
}

/// The gas estimate that orders a transaction in the speculation round:
/// the static worst-case certificate when the chain's gas resolvers
/// produce one (counted as `static_gas_seeded`), otherwise a tx-kind
/// default (counted as `default_seeded`).
fn initial_gas_estimate(ctx: &ExecCtx<'_>, pending: &PendingTx, stats: &mut ExecStats) -> u64 {
    let tx = &pending.tx;
    if let Some(bound) = ctx.facts.tx_gas_bound(ctx.vm, ctx.avm_payloads, tx, pending.id) {
        stats.static_gas_seeded += 1;
        // A certificate larger than the provisioned gas is clamped: the
        // transaction can never spend past its limit.
        return match ctx.vm {
            VmKind::Evm => bound.min(tx.gas_limit),
            VmKind::Avm => bound,
        };
    }
    stats.default_seeded += 1;
    match (ctx.vm, &tx.kind) {
        (_, TxKind::Transfer) => 21_000,
        (VmKind::Evm, _) => tx.gas_limit,
        (VmKind::Avm, TxKind::ContractCreate) => 50_000,
        (VmKind::Avm, TxKind::ContractCall(_)) => 10_000,
    }
}

/// The host's available parallelism, resolved once.
fn host_parallelism() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The optimistic-parallel path. `lane[i]` marks transaction `i` as
/// statically proven disjoint from every other arrived transaction (see
/// [`compute_lanes`]); plain [`ExecutionMode::Parallel`] passes all
/// `false`.
fn run_parallel(
    ctx: &ExecCtx<'_>,
    world: &mut WorldState,
    pool: Vec<PendingTx>,
    gas_budget: u64,
    workers: usize,
    lane: Vec<bool>,
    stats: &mut ExecStats,
) -> BlockOutcome {
    // The speculation round: every arrived transaction runs once against
    // the block-start world, longest estimated transaction first, so the
    // greedy worker pool packs the work that dominates the round's
    // critical path tightest (ties break on submission index for
    // determinism).
    let mut todo: Vec<(Reverse<u64>, usize)> = pool
        .iter()
        .enumerate()
        .filter(|(_, p)| p.arrival_ms <= ctx.block_time)
        .map(|(i, p)| (Reverse(initial_gas_estimate(ctx, p, stats)), i))
        .collect();
    todo.sort_unstable();
    let spec: Vec<Mutex<Option<TxOutcome>>> = pool.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let base: &WorldState = world;
    let worker = || loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&(_, i)) = todo.get(k) else { break };
        let out = execute_tx(ctx, base, &pool[i]);
        *spec[i].lock().expect("worker panicked") = Some(out);
    };
    // Spawn at most as many real threads as the host can run: extra
    // configured workers only add scheduling overhead on an
    // oversubscribed host.
    match workers.min(todo.len()).min(host_parallelism()) {
        0 | 1 => worker(),
        spawn_workers => std::thread::scope(|scope| {
            for _ in 0..spawn_workers {
                scope.spawn(worker);
            }
        }),
    }
    let spec: Vec<Option<TxOutcome>> =
        spec.into_iter().map(|slot| slot.into_inner().expect("worker panicked")).collect();
    stats.speculative_runs += todo.len() as u64;

    // The commit scan, in submission order: in-order commit is what keeps
    // gas, fee and receipt accounting byte-identical to the sequential
    // oracle, and a transaction is left over exactly where that oracle
    // would leave it.
    let mut committed = Vec::new();
    let mut leftover = Vec::new();
    let mut remaining = gas_budget;
    let mut tx_gas = 0u64;
    let mut burned = 0u128;
    for ((pending, spec), lane) in pool.into_iter().zip(spec).zip(lane) {
        if pending.arrival_ms > ctx.block_time || !fits(ctx, &pending.tx, remaining) {
            leftover.push(pending);
            continue;
        }
        let mut out = spec.expect("arrived transactions were speculated");
        if lane {
            // Lane transactions commit without validation: every commit
            // since their speculation base was a provably commuting
            // transaction, so the recorded reads still hold by
            // construction.
            stats.speculation_skipped += 1;
        } else {
            let started = Instant::now();
            let valid = world.validates(&out.reads);
            stats.validation_ns += started.elapsed().as_nanos();
            if !valid {
                // Stale: re-execute in place. The base is now the
                // committed prefix — the world the sequential oracle runs
                // this transaction on — so the outcome needs no
                // validation.
                stats.conflicts += 1;
                stats.speculative_runs += 1;
                out = execute_tx(ctx, world, &pending);
            }
        }
        sanitize_commit(ctx, &pending, &out);
        world.apply(out.writes);
        if ctx.vm == VmKind::Evm {
            remaining = remaining.saturating_sub(out.gas_used);
            tx_gas += out.gas_used;
        }
        burned += out.burned;
        stats.committed_txs += 1;
        stats.committed_exec_ns += out.exec_ns;
        committed.push((pending, out.receipt));
    }
    BlockOutcome { committed, leftover, tx_gas, burned }
}

/// Executes one transaction speculatively against `base`, returning its
/// receipt together with the recorded read and write sets. Pure in the
/// sense that only the returned write set carries effects.
fn execute_tx(ctx: &ExecCtx<'_>, base: &WorldState, pending: &PendingTx) -> TxOutcome {
    let started = Instant::now();
    let mut view = Overlay::new(base);
    let tx = &pending.tx;
    let id = pending.id;
    let mut status = TxStatus::Success;
    let mut gas_used = 0u64;
    let mut created = None;
    let mut output = Vec::new();
    let mut logs = Vec::new();
    let mut burned = 0u128;

    // AVM chains charge the flat fee up front, before execution; it is
    // kept even when the application call rejects — but never more than
    // the sender actually holds: the burn counter must track what was
    // debited, or `total_burned` drifts from the real supply change.
    let fee_units: u128 = match ctx.vm {
        VmKind::Evm => 0, // charged after execution, from measured gas
        VmKind::Avm => ctx.flat_fee,
    };
    let mut charged_upfront = 0u128;
    if fee_units > 0 {
        let balance = view.balance_of(tx.from);
        charged_upfront = fee_units.min(balance);
        view.set_balance_of(tx.from, balance - charged_upfront);
        burned += charged_upfront;
    }

    match (ctx.vm, &tx.kind) {
        (_, TxKind::Transfer) => {
            gas_used = 21_000;
            match tx.to {
                None => status = TxStatus::Reverted(MISSING_RECIPIENT.into()),
                Some(to) => {
                    let from_balance = view.balance_of(tx.from);
                    if from_balance < tx.value {
                        status = TxStatus::Reverted("insufficient balance".into());
                    } else {
                        view.set_balance_of(tx.from, from_balance - tx.value);
                        let to_balance = view.balance_of(to);
                        view.set_balance_of(to, to_balance + tx.value);
                    }
                }
            }
        }
        (VmKind::Evm, TxKind::ContractCreate) => {
            match deploy_contract(&mut view, tx.from, &tx.data, tx.gas_limit, ctx.cache) {
                Ok((addr, outcome)) => {
                    gas_used = outcome.gas_used;
                    created = Some(ContractId::Evm(addr));
                    logs = outcome
                        .logs
                        .iter()
                        .map(|l| String::from_utf8_lossy(l).into_owned())
                        .collect();
                }
                Err(e) => {
                    gas_used = tx.gas_limit;
                    status = TxStatus::Reverted(e.to_string());
                }
            }
        }
        (VmKind::Evm, TxKind::ContractCall(cid)) => {
            let target = cid.as_evm().unwrap_or(Address::ZERO);
            let params = CallParams {
                caller: tx.from,
                contract: target,
                value: tx.value,
                data: tx.data.clone(),
                gas_limit: tx.gas_limit,
                block_number: ctx.height,
                timestamp_s: ctx.block_time / 1000,
            };
            match call_contract(&mut view, params, ctx.cache) {
                Ok(outcome) => {
                    gas_used = outcome.gas_used;
                    output = outcome.output.clone();
                    if !outcome.success {
                        status = TxStatus::Reverted(
                            String::from_utf8_lossy(&outcome.output).into_owned(),
                        );
                    }
                    logs = outcome
                        .logs
                        .iter()
                        .map(|l| String::from_utf8_lossy(l).into_owned())
                        .collect();
                }
                Err(e) => {
                    gas_used = tx.gas_limit;
                    status = TxStatus::Reverted(e.to_string());
                }
            }
        }
        (VmKind::Avm, TxKind::ContractCreate) => match ctx.avm_payloads.get(&id) {
            Some(AvmPayload::Create { program, args }) => {
                match create_app(&mut view, tx.from, program.clone(), args.clone()) {
                    Ok(app_id) => created = Some(ContractId::App(app_id)),
                    Err(e) => status = TxStatus::Reverted(e.to_string()),
                }
            }
            _ => status = TxStatus::Reverted("missing program payload".into()),
        },
        (VmKind::Avm, TxKind::ContractCall(cid)) => {
            let app_id = cid.as_app().unwrap_or(0);
            match ctx.avm_payloads.get(&id) {
                Some(AvmPayload::Call { args }) => {
                    let params = AppCallParams {
                        sender: tx.from,
                        app_id,
                        args: args.clone(),
                        payment: tx.value.min(u128::from(u64::MAX)) as u64,
                        round: ctx.height,
                        timestamp_s: ctx.block_time / 1000,
                    };
                    match call_app(&mut view, params) {
                        Ok(outcome) => {
                            if !outcome.approved {
                                status = TxStatus::Reverted("application rejected".into());
                            }
                            // The AVM's opcode budget spend; the flat fee
                            // is unaffected, but the scheduler and the gas
                            // sanitizer both consume the measurement.
                            gas_used = outcome.cost;
                            logs = outcome
                                .logs
                                .iter()
                                .map(|l| String::from_utf8_lossy(l).into_owned())
                                .collect();
                        }
                        Err(e) => status = TxStatus::Reverted(e.to_string()),
                    }
                }
                _ => status = TxStatus::Reverted("missing call payload".into()),
            }
        }
    }

    // EVM fee settlement from measured gas: charge the effective price —
    // capped at what the sender still holds — and burn the base-fee
    // share of what was actually debited, so burn never exceeds the real
    // supply change.
    let fee = match ctx.vm {
        VmKind::Evm => {
            let price = feemarket::effective_gas_price(
                ctx.base_fee,
                tx.max_fee_per_gas,
                tx.max_priority_fee_per_gas,
            )
            .unwrap_or(ctx.base_fee);
            // `gas_used × price` fits in u128 for any admitted transaction
            // (submission rejects `gas_limit × max_fee_per_gas` overflow
            // with `FeeOverflow`); saturating keeps that invariant local
            // instead of trusting every caller forever.
            let fee = u128::from(gas_used).saturating_mul(price);
            let balance = view.balance_of(tx.from);
            let charged = fee.min(balance);
            view.set_balance_of(tx.from, balance - charged);
            burned += u128::from(gas_used).saturating_mul(ctx.base_fee.min(price)).min(charged);
            charged
        }
        VmKind::Avm => charged_upfront,
    };

    let receipt = Receipt {
        tx: id,
        block_number: ctx.height,
        submitted_ms: pending.submitted_ms,
        confirmed_ms: ctx.block_time,
        status,
        gas_used,
        fee: Amount::from_base_units(fee, ctx.currency),
        created,
        output,
        logs,
    };
    let (reads, writes) = view.into_parts();
    TxOutcome { receipt, gas_used, burned, reads, writes, exec_ns: started.elapsed().as_nanos() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    fn empty_facts() -> &'static StaticFacts {
        use std::sync::OnceLock;
        static EMPTY: OnceLock<StaticFacts> = OnceLock::new();
        EMPTY.get_or_init(StaticFacts::default)
    }

    fn shared_cache() -> &'static CodeCache {
        use std::sync::OnceLock;
        static CACHE: OnceLock<CodeCache> = OnceLock::new();
        CACHE.get_or_init(CodeCache::new)
    }

    fn ctx_evm(payloads: &HashMap<TxId, AvmPayload>) -> ExecCtx<'_> {
        ExecCtx {
            vm: VmKind::Evm,
            flat_fee: 0,
            base_fee: 1,
            currency: Currency::Eth,
            height: 1,
            block_time: 1_000,
            avm_payloads: payloads,
            facts: empty_facts(),
            // The sanitizer runs on every commit in the executor test
            // suite: any transfer claim that under-approximates the
            // observed footprint panics the test.
            sanitize: true,
            cache: shared_cache(),
        }
    }

    fn pending(tx: Transaction) -> PendingTx {
        PendingTx { id: tx.id(), tx, submitted_ms: 0, arrival_ms: 0 }
    }

    fn transfer(from: u8, to: u8, value: u128) -> PendingTx {
        pending(Transaction::transfer(addr(from), addr(to), value, 0).with_fees(2, 1))
    }

    #[test]
    fn gas_estimates_fall_back_to_tx_kind_defaults() {
        let payloads = HashMap::new();
        let ctx = ctx_evm(&payloads);
        let mut stats = ExecStats::default();
        let t = pending(Transaction::transfer(addr(1), addr(2), 1, 0));
        assert_eq!(initial_gas_estimate(&ctx, &t, &mut stats), 21_000);
        let c = pending(
            Transaction::call(addr(1), ContractId::Evm(addr(9)), vec![], 0, 0)
                .with_gas_limit(777_000),
        );
        assert_eq!(initial_gas_estimate(&ctx, &c, &mut stats), 777_000);
        let avm_ctx = ExecCtx { vm: VmKind::Avm, ..ctx_evm(&payloads) };
        assert_eq!(initial_gas_estimate(&avm_ctx, &c, &mut stats), 10_000);
        assert_eq!(stats.static_gas_seeded, 0);
        assert_eq!(stats.default_seeded, 3);
    }

    #[test]
    fn gas_estimates_seed_from_static_certificates() {
        let payloads = HashMap::new();
        let target = ContractId::Evm(addr(9));
        let mut facts = StaticFacts::default();
        facts.register_gas(target, Box::new(|_| Some(130_000)));
        let mut ctx = ctx_evm(&payloads);
        ctx.facts = &facts;
        let mut stats = ExecStats::default();
        let call = |to: ContractId, data: Vec<u8>, nonce: u64, gas: u64| {
            pending(Transaction::call(addr(1), to, data, 0, nonce).with_gas_limit(gas))
        };
        let c = call(target, vec![0xab; 4], 0, 777_000);
        // A certified call is seeded from its proven bound, not the
        // EVM's gas-limit default.
        assert_eq!(initial_gas_estimate(&ctx, &c, &mut stats), 130_000);
        // A certificate above the provisioned gas is clamped: the tx can
        // never spend past its limit.
        let tight = call(target, vec![0xab; 4], 1, 100_000);
        assert_eq!(initial_gas_estimate(&ctx, &tight, &mut stats), 100_000);
        // Uncertified contracts still fall back to the default.
        let other = call(ContractId::Evm(addr(8)), vec![], 0, 777_000);
        assert_eq!(initial_gas_estimate(&ctx, &other, &mut stats), 777_000);
        assert_eq!(stats.static_gas_seeded, 2);
        assert_eq!(stats.default_seeded, 1);
    }

    /// Only the round's candidates are resolved and counted: a
    /// transaction still in flight waits in the pool without an estimate
    /// or a speculation, block after block.
    #[test]
    fn seeding_counters_count_speculated_transactions_only() {
        let payloads = HashMap::new();
        let ctx = ctx_evm(&payloads);
        let mut world = WorldState::new();
        world.set_balance(addr(1), 1_000_000_000);
        world.set_balance(addr(2), 1_000_000_000);
        let mut late = transfer(2, 102, 50);
        late.arrival_ms = ctx.block_time + 1;
        let pool = vec![transfer(1, 101, 50), late];
        let mut stats = ExecStats::default();
        let mode = ExecutionMode::Parallel { workers: 2 };
        let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
        assert_eq!((outcome.committed.len(), outcome.leftover.len()), (1, 1));
        assert_eq!(stats.static_gas_seeded + stats.default_seeded, 1, "{stats:?}");
        assert_eq!(stats.speculative_runs, 1, "{stats:?}");
    }

    /// A half-hot block: even-indexed senders all credit one shared sink
    /// (each reads the sink balance, so they serialise through the
    /// commit scan), odd-indexed senders pay disjoint cold sinks. The
    /// parallel path must agree with the oracle byte for byte, and only
    /// the stale hot transactions re-execute, once each.
    #[test]
    fn half_hot_block_matches_sequential_and_reexecutes_only_the_stale() {
        let run = |mode: ExecutionMode| {
            let payloads = HashMap::new();
            let ctx = ctx_evm(&payloads);
            let mut world = WorldState::new();
            let mut pool = Vec::new();
            for i in 1..=8u8 {
                world.set_balance(addr(i), 1_000_000_000);
                let to = if i % 2 == 0 { 99 } else { 100 + i };
                pool.push(transfer(i, to, 1_000 + u128::from(i)));
            }
            let mut stats = ExecStats::default();
            let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
            let receipts: Vec<String> =
                outcome.committed.iter().map(|(_, r)| format!("{r:?}")).collect();
            (receipts, outcome.tx_gas, outcome.burned, world.digest_input(), stats)
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel { workers: 4 });
        assert_eq!(seq.0, par.0, "parallel receipts diverge from sequential");
        assert_eq!((seq.1, seq.2), (par.1, par.2));
        assert_eq!(seq.3, par.3, "world digests diverge");

        // The hot transactions 4, 6 and 8 were speculated against a sink
        // balance that tx 2 and each other have since moved; the cold
        // ones and tx 2 commit their first run.
        let stats = par.4;
        assert_eq!(stats.committed_txs, 8);
        assert_eq!(stats.conflicts, 3, "{stats:?}");
        assert_eq!(stats.speculative_runs, 8 + 3, "only conflicts re-execute: {stats:?}");
        assert_eq!(stats.revalidations, 0, "{stats:?}");
    }

    /// The bound under the worst contention: 64 transfers into one sink.
    /// Every transaction behind the first is stale when the scan reaches
    /// it and runs exactly twice — never once per earlier hot commit.
    #[test]
    fn pure_hot_key_block_executes_every_transaction_at_most_twice() {
        let run = |mode: ExecutionMode| {
            let payloads = HashMap::new();
            let ctx = ctx_evm(&payloads);
            let mut world = WorldState::new();
            let mut pool = Vec::new();
            for i in 1..=64u8 {
                world.set_balance(addr(i), 1_000_000_000);
                pool.push(transfer(i, 99, 10 + u128::from(i)));
            }
            let mut stats = ExecStats::default();
            let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
            let receipts: Vec<String> =
                outcome.committed.iter().map(|(_, r)| format!("{r:?}")).collect();
            (receipts, outcome.burned, world.digest_input(), stats)
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel { workers: 4 });
        assert_eq!(seq.0, par.0);
        assert_eq!(seq.1, par.1);
        assert_eq!(seq.2, par.2);
        let stats = par.3;
        assert_eq!(stats.committed_txs, 64);
        assert_eq!(stats.conflicts, 63, "{stats:?}");
        assert_eq!(stats.speculative_runs, 64 + 63, "one re-execution per conflict: {stats:?}");
    }

    /// With every transaction touching the same keys every speculation
    /// but the first is stale; the scan must still agree with the oracle
    /// and never commit out of order.
    #[test]
    fn pure_hot_key_block_still_matches_sequential() {
        let run = |mode: ExecutionMode| {
            let payloads = HashMap::new();
            let ctx = ctx_evm(&payloads);
            let mut world = WorldState::new();
            let mut pool = Vec::new();
            for i in 1..=6u8 {
                world.set_balance(addr(i), 1_000_000_000);
                pool.push(transfer(i, 99, 10 + u128::from(i)));
            }
            let mut stats = ExecStats::default();
            let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
            let receipts: Vec<String> =
                outcome.committed.iter().map(|(_, r)| format!("{r:?}")).collect();
            (receipts, world.digest_input(), stats)
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel { workers: 3 });
        assert_eq!(seq.0, par.0);
        assert_eq!(seq.1, par.1);
        assert!(par.2.conflicts > 0);
        assert!(par.2.speculative_runs >= par.2.committed_txs);
    }

    /// Pairwise-disjoint transfers: static lane partitioning proves all
    /// of them commute (transfer claims need no registry), every commit
    /// skips validation, and the result stays byte-identical to the
    /// sequential oracle.
    #[test]
    fn disjoint_transfers_all_ride_static_lanes() {
        let run = |mode: ExecutionMode| {
            let payloads = HashMap::new();
            let ctx = ctx_evm(&payloads);
            let mut world = WorldState::new();
            let mut pool = Vec::new();
            for i in 1..=8u8 {
                world.set_balance(addr(i), 1_000_000_000);
                pool.push(transfer(i, 100 + i, 1_000 + u128::from(i)));
            }
            let mut stats = ExecStats::default();
            let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
            let receipts: Vec<String> =
                outcome.committed.iter().map(|(_, r)| format!("{r:?}")).collect();
            (receipts, outcome.tx_gas, outcome.burned, world.digest_input(), stats)
        };
        let seq = run(ExecutionMode::Sequential);
        let lanes = run(ExecutionMode::ParallelStatic { workers: 4 });
        assert_eq!(seq.0, lanes.0, "lane receipts diverge from sequential");
        assert_eq!((seq.1, seq.2), (lanes.1, lanes.2));
        assert_eq!(seq.3, lanes.3, "world digests diverge");
        let stats = lanes.4;
        assert_eq!(stats.static_lanes, 8, "all disjoint txs must lane: {stats:?}");
        assert_eq!(stats.speculation_skipped, 8);
        assert_eq!(stats.summary_fallbacks, 0);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.validation_ns, 0, "no commit paid for validation");
    }

    /// A hot sink poisons lanes only for the transactions that share
    /// it: the cold half still lanes and skips validation, the hot half
    /// validates as usual, and everything matches the oracle.
    #[test]
    fn overlapping_transfers_fall_back_to_validation() {
        let run = |mode: ExecutionMode| {
            let payloads = HashMap::new();
            let ctx = ctx_evm(&payloads);
            let mut world = WorldState::new();
            let mut pool = Vec::new();
            for i in 1..=8u8 {
                world.set_balance(addr(i), 1_000_000_000);
                let to = if i % 2 == 0 { 99 } else { 100 + i };
                pool.push(transfer(i, to, 1_000 + u128::from(i)));
            }
            let mut stats = ExecStats::default();
            let outcome = run_block(&ctx, &mut world, pool, 10_000_000, mode, &mut stats);
            let receipts: Vec<String> =
                outcome.committed.iter().map(|(_, r)| format!("{r:?}")).collect();
            (receipts, world.digest_input(), stats)
        };
        let seq = run(ExecutionMode::Sequential);
        let lanes = run(ExecutionMode::ParallelStatic { workers: 4 });
        assert_eq!(seq.0, lanes.0);
        assert_eq!(seq.1, lanes.1);
        let stats = lanes.2;
        assert_eq!(stats.static_lanes, 4, "only the cold half lanes: {stats:?}");
        assert_eq!(stats.speculation_skipped, 4);
        assert!(stats.conflicts > 0, "the hot half still conflicts: {stats:?}");
        assert_eq!(stats.committed_txs, 8);
    }

    /// A deployment has no static claims: it poisons lane formation for
    /// the whole block (it could write anything), every arrived claim
    /// miss is counted, and execution still matches the oracle.
    #[test]
    fn unresolved_claims_poison_the_block_and_count_fallbacks() {
        let payloads = HashMap::new();
        let ctx = ctx_evm(&payloads);
        let mut world = WorldState::new();
        let mut pool = Vec::new();
        for i in 1..=3u8 {
            world.set_balance(addr(i), 1_000_000_000);
            pool.push(transfer(i, 100 + i, 50));
        }
        world.set_balance(addr(9), 1_000_000_000);
        let deploy =
            Transaction::create(addr(9), vec![0x00], 0).with_gas_limit(100_000).with_fees(2, 1);
        pool.push(pending(deploy));
        let mut stats = ExecStats::default();
        let outcome = run_block(
            &ctx,
            &mut world,
            pool,
            10_000_000,
            ExecutionMode::ParallelStatic { workers: 2 },
            &mut stats,
        );
        assert_eq!(outcome.committed.len(), 4);
        assert_eq!(stats.summary_fallbacks, 1, "{stats:?}");
        assert_eq!(stats.static_lanes, 0, "an unclaimed tx forbids every lane");
        assert_eq!(stats.speculation_skipped, 0);
    }

    #[test]
    fn transfer_without_recipient_reverts_instead_of_crediting_zero() {
        let payloads = HashMap::new();
        let ctx = ctx_evm(&payloads);
        let mut world = WorldState::new();
        world.set_balance(addr(1), 1_000_000_000);
        let mut tx = transfer(1, 0, 5_000).tx;
        tx.to = None;
        let mut stats = ExecStats::default();
        let outcome = run_block(
            &ctx,
            &mut world,
            vec![pending(tx)],
            10_000_000,
            ExecutionMode::Sequential,
            &mut stats,
        );
        let (_, receipt) = &outcome.committed[0];
        assert_eq!(receipt.status, TxStatus::Reverted(MISSING_RECIPIENT.into()));
        assert_eq!(world.balance(Address::ZERO), 0, "zero address silently credited");
        // The revert still pays for its 21 000 gas, like any EVM revert.
        assert_eq!(receipt.gas_used, 21_000);
    }
}
