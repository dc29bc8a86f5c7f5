//! Code generators: one contract source, one artifact per chain family,
//! with post-emission bytecode verification.
//!
//! [`compile`] runs the full pipeline: type checking, one flow analysis
//! per body (`ProgramFlows`), source-level verification, the access
//! summaries, the gas certificates and the dataflow lints over those
//! flows, code generation, and finally the *bytecode-level* verifiers
//! from [`pol_evm::verifier`] and [`pol_avm::verifier`] — so a codegen
//! bug that emits an unbalanced stack, a bogus jump or a post-transfer
//! state write is caught before the artifact ever reaches a chain. Per
//! API, on both targets, the two-sided cost gate (X0401/X0402) holds the
//! verified worst-case costs under the static certificates and those
//! under the straight-line opcode sum. Everything the pipeline derives
//! on the way — warnings, summaries, certificates — is returned with the
//! artifacts.

pub mod avm;
pub mod evm;

use crate::access::ContractSummaries;
use crate::ast::Ty;
use crate::diag::{Diagnostic, NodePath};
use crate::gas::ContractGasBounds;
use crate::ir::ProgramFlows;
use std::sync::Arc;

/// A runtime argument value passed to constructors and API calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbiValue {
    /// A word (UInt / Address-as-word / Bool).
    Word(u128),
    /// An address.
    Address(pol_ledger::Address),
    /// A byte payload (padded to the declared capacity on the wire).
    Bytes(Vec<u8>),
}

impl AbiValue {
    /// Whether this value is acceptable for a parameter of type `ty`.
    pub(crate) fn matches(&self, ty: &Ty) -> bool {
        match (self, ty) {
            (AbiValue::Word(_), Ty::UInt | Ty::Bool) => true,
            (AbiValue::Address(_), Ty::Address) => true,
            (AbiValue::Bytes(b), Ty::Bytes(cap)) => b.len() <= *cap,
            _ => false,
        }
    }
}

/// The compiled forms of one program for every supported chain — the
/// `index.main.mjs` bundle Reach produces (§2.9.3).
#[derive(Debug, Clone)]
pub struct CompiledContract {
    /// EVM artifact (Ropsten / Goerli / Mumbai).
    pub evm: evm::CompiledEvm,
    /// AVM artifact (Algorand).
    pub avm: avm::CompiledAvm,
    /// Warning-severity lint diagnostics (non-fatal; render with
    /// [`crate::pretty::render_diagnostics`]).
    pub warnings: Vec<Diagnostic>,
    /// The static access summaries of every dispatchable method — what
    /// [`crate::access::summarize`] returns, shared so each deployed
    /// instance can register a cheap clone as its access resolver.
    pub summaries: Arc<ContractSummaries>,
    /// The static worst-case gas certificates — what
    /// [`crate::gas::certify`] returns, shared likewise.
    pub gas_bounds: Arc<ContractGasBounds>,
}

/// Compiles a program for every chain after checking, verifying and
/// linting it, then verifies the emitted bytecode itself.
///
/// # Errors
///
/// [`crate::LangError::TypeErrors`],
/// [`crate::LangError::VerificationFailed`] or
/// [`crate::LangError::LintErrors`] when the program is rejected before
/// code generation; [`crate::LangError::BytecodeRejected`] when an
/// emitted artifact fails post-emission verification or a cost
/// cross-check.
pub fn compile(program: &crate::ast::Program) -> Result<CompiledContract, crate::LangError> {
    crate::check::checked(program)?;
    // Every body is analysed, and the method table derived, once; each
    // later stage borrows them and hands what it derives forward.
    let flows = ProgramFlows::new(program);
    let report = crate::verify::verify_flows(program, &flows);
    if !report.ok() {
        return Err(crate::LangError::VerificationFailed(report.failures));
    }
    let table = evm::dispatch_table(program);
    // EVM codegen runs ahead of the lints because L0008 prices the
    // deployment payload; its own failure still surfaces after theirs.
    let evm_and_bounds = evm::emit(program, &table, evm::DEFAULT_RUNTIME_PAD).map(|evm| {
        let bounds = crate::gas::certify_compiled(program, &flows, &evm, &table);
        (evm, bounds)
    });
    let summaries = crate::access::summarize_flows(program, &flows, &table);
    let gas_bounds = evm_and_bounds.as_ref().ok().map(|(_, bounds)| bounds);
    let (lint_errors, warnings): (Vec<_>, Vec<_>) =
        crate::lint::lint_facts(program, &flows, &summaries, gas_bounds)
            .into_iter()
            .partition(|d| d.is_error());
    if !lint_errors.is_empty() {
        return Err(crate::LangError::LintErrors(lint_errors));
    }
    let (compiled_evm, gas_bounds) = evm_and_bounds?;
    let compiled_avm = avm::emit(program)?;
    let rejections = verify_bytecode(program, &flows, &compiled_evm, &compiled_avm);
    if !rejections.is_empty() {
        return Err(crate::LangError::BytecodeRejected(rejections));
    }
    Ok(CompiledContract {
        evm: compiled_evm,
        avm: compiled_avm,
        warnings,
        summaries: Arc::new(summaries),
        gas_bounds: Arc::new(gas_bounds),
    })
}

/// Runs the post-emission bytecode verifiers over every artifact
/// (B0301–B0303) and the two-sided cost gate on each API's fragments
/// (X0401–X0402).
fn verify_bytecode(
    program: &crate::ast::Program,
    flows: &ProgramFlows,
    compiled_evm: &evm::CompiledEvm,
    compiled_avm: &avm::CompiledAvm,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // The phase-advance epilogue stores the phase counter after a
    // transfer's CALL; every other post-call SSTORE is a
    // checks-effects-interactions violation.
    let allowed = [evm::SLOT_PHASE];
    let max_payload =
        program.all_apis().map(|(_, api)| evm::params_width(api) as u64).max().unwrap_or(0);

    // Whole EVM images: the init code (constructor → deploy wrapper; the
    // runtime tail is unreachable data) and the runtime image itself.
    let image_cfg = pol_evm::verifier::VerifyConfig {
        allowed_post_call_sstore_keys: &allowed,
        payload_bytes: max_payload,
    };
    if let Err(e) = pol_evm::verifier::verify(&compiled_evm.init_code, &image_cfg) {
        diags.push(
            Diagnostic::error("B0301", format!("EVM init code rejected: {e}"))
                .at(program.spans.get(&NodePath::ContractName)),
        );
    }
    let runtime_start = compiled_evm.init_code.len() - compiled_evm.runtime_len;
    if let Err(e) = pol_evm::verifier::verify(&compiled_evm.init_code[runtime_start..], &image_cfg)
    {
        diags.push(
            Diagnostic::error("B0301", format!("EVM runtime image rejected: {e}"))
                .at(program.spans.get(&NodePath::ContractName)),
        );
    }

    // The whole AVM approval program.
    if let Err(e) = pol_avm::verifier::verify(&compiled_avm.program) {
        diags.push(
            Diagnostic::error("B0302", format!("AVM approval program rejected: {e}"))
                .at(program.spans.get(&NodePath::ContractName)),
        );
    }

    // Per-API fragments: verify each and gate the verified worst path
    // against the certificate and the straight-line bound.
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        for (api_idx, api) in phase.apis.iter().enumerate() {
            let at = program.spans.get(&NodePath::Api { phase: phase_idx, api: api_idx });
            let payload = evm::params_width(api) as u64;
            let cfg = pol_evm::verifier::VerifyConfig {
                allowed_post_call_sstore_keys: &allowed,
                payload_bytes: payload,
            };
            // A fragment that cannot be regenerated is as unverified as
            // one the verifier refuses: both are the target's B-code.
            let evm_checked = evm::fragment(program, phase_idx, api)
                .map_err(|e| format!("not generated: {e}"))
                .and_then(|fragment| match pol_evm::verifier::verify(&fragment, &cfg) {
                    Ok(report) => Ok((fragment, report)),
                    Err(e) => Err(format!("rejected: {e}")),
                });
            match evm_checked {
                Ok((fragment, report)) => {
                    let stat =
                        crate::gas::evm_fragment_bound(program, flows, phase_idx, api_idx, payload);
                    let bound = evm_linear_bound(&fragment, payload);
                    let observed = report.worst_case_gas;
                    diags.extend(two_sided_gate(
                        "X0401", &api.name, "gas", observed, stat, bound, at,
                    ));
                }
                Err(why) => diags.push(
                    Diagnostic::error("B0301", format!("api {:?}: EVM fragment {why}", api.name))
                        .at(at),
                ),
            }
            let avm_checked = avm::fragment(program, phase_idx, api)
                .map_err(|e| format!("not generated: {e}"))
                .map(pol_avm::program::AvmProgram::new)
                .and_then(|fragment| match pol_avm::verifier::verify(&fragment) {
                    Ok(report) => Ok((fragment, report)),
                    Err(e) => Err(format!("rejected: {e}")),
                });
            match avm_checked {
                Ok((fragment, report)) => {
                    if report.worst_case_cost > pol_avm::cost::CALL_BUDGET {
                        diags.push(
                            Diagnostic::error(
                                "B0303",
                                format!(
                                    "api {:?}: verified worst-case cost {} exceeds the per-call \
                                     budget {}",
                                    api.name,
                                    report.worst_case_cost,
                                    pol_avm::cost::CALL_BUDGET
                                ),
                            )
                            .at(at),
                        );
                    }
                    let stat = crate::gas::avm_fragment_bound(program, flows, phase_idx, api_idx);
                    let bound = pol_avm::cost::program_cost(fragment.ops());
                    let observed = report.worst_case_cost;
                    diags.extend(two_sided_gate(
                        "X0402", &api.name, "cost", observed, stat, bound, at,
                    ));
                }
                Err(why) => diags.push(
                    Diagnostic::error("B0302", format!("api {:?}: AVM fragment {why}", api.name))
                        .at(at),
                ),
            }
        }
    }
    diags
}

/// The two-sided gate (X0401 on the EVM, X0402 on the AVM): the bytecode
/// verifier's observed worst path must stay under the static
/// certificate `stat`, which in turn must stay under the straight-line
/// opcode sum `bound`. Either violation means a cost model drifted from
/// the emitter.
fn two_sided_gate(
    code: &'static str,
    api: &str,
    unit: &str,
    observed: u64,
    stat: u64,
    bound: u64,
    at: crate::diag::Span,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if observed > stat {
        let msg = format!(
            "api {api:?}: verified worst-case {unit} {observed} exceeds the static certificate \
             {stat} (bytecode side)"
        );
        diags.push(Diagnostic::error(code, msg).at(at));
    }
    if stat > bound {
        let msg = format!(
            "api {api:?}: static certificate {stat} exceeds the conservative bound {bound} \
             (static side)"
        );
        diags.push(Diagnostic::error(code, msg).at(at));
    }
    diags
}

/// The straight-line gas bound of a fragment, the upper side of the
/// X0401 gate: the linear opcode sum the certificates are held under.
/// On the loop-free code this backend emits, every execution path is a
/// subsequence of the instruction stream, so the verified worst path can
/// never exceed this.
///
/// Storage costs follow the Reach runtime's *warm-state* accounting: the
/// runtime touches its (single-commitment) state at call entry, so
/// subsequent slot accesses are warm (`G_warmaccess`) and writes are
/// resets (`G_sreset`) — zero→non-zero transitions are amortized against
/// the entry deposit the runtime collects. Hashing, logging and copy
/// costs are bounded by `payload_bytes`.
pub(crate) fn evm_linear_bound(code: &[u8], payload_bytes: u64) -> u64 {
    let mut total = 0u64;
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        pc += 1;
        let Some((op, variant)) = pol_evm::opcode::Op::decode(byte) else { continue };
        if op == pol_evm::opcode::Op::Push1 {
            pc += variant as usize + 1;
        }
        total += pol_evm::verifier::conservative_op_gas(op, payload_bytes);
    }
    total
}
