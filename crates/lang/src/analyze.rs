//! The conservative cost analysis — the compiler report reproduced as
//! Fig. 5.1 of the paper: before deployment, the compiler bounds the
//! worst-case resources of every operation on every target chain,
//! alongside the verification summary.

use crate::ast::{Program, Stmt};
use crate::backend::{avm as avm_backend, evm as evm_backend, evm_linear_bound};
use crate::verify;
use crate::LangError;
use pol_evm::gas;

/// Per-call gas overhead of the (Reach-equivalent) runtime's state
/// re-validation on EVM targets, added to every conservative API
/// estimate. Calibrated against the production Reach 0.1.11 output for
/// the proof-of-location contract (attach = 82,437 gas, §5.1.1).
pub(crate) const EVM_RUNTIME_CALL_OVERHEAD: u64 = 43_096;

/// Gas the runtime's deployment protocol adds beyond the contract body:
/// constructor event registrations, the state-commitment initialisation
/// and the runtime library linked into the image. Calibrated against the
/// production Reach 0.1.11 output for the proof-of-location contract
/// (deployment = 1,440,385 gas, §5.1.1).
pub(crate) const EVM_DEPLOY_PROTOCOL_OVERHEAD: u64 = 329_414;

/// Conservative costs of one API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiCost {
    /// API name.
    pub name: String,
    /// Worst-case EVM gas for a call.
    pub evm_gas: u64,
    /// Worst-case AVM opcode cost.
    pub avm_cost: u64,
}

/// The full analysis report.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Contract name.
    pub contract: String,
    /// Theorems checked by the verifier.
    pub theorems: usize,
    /// Whether verification succeeded.
    pub verified: bool,
    /// Global state cells (including the reserved phase/creator slots).
    pub state_slots: usize,
    /// Number of maps.
    pub maps: usize,
    /// Blockchain-agnostic step count (IR statements across all APIs).
    pub agnostic_steps: usize,
    /// Worst-case EVM deployment gas (intrinsic + constructor +
    /// code deposit).
    pub evm_deploy_gas: u64,
    /// Size of the EVM runtime image, bytes.
    pub evm_runtime_bytes: usize,
    /// Worst-case AVM creation cost.
    pub avm_create_cost: u64,
    /// The flat Algorand fee per call, µAlgo.
    pub avm_min_fee: u64,
    /// Per-API costs.
    pub apis: Vec<ApiCost>,
}

impl Analysis {
    /// Looks up an API's conservative costs.
    pub fn api(&self, name: &str) -> Option<&ApiCost> {
        self.apis.iter().find(|a| a.name == name)
    }
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Conservative analysis of contract {:?}", self.contract)?;
        writeln!(
            f,
            "  verification: Checked {} theorems; {}",
            self.theorems,
            if self.verified { "No failures!" } else { "FAILURES" }
        )?;
        writeln!(f, "  state: {} slots, {} map(s)", self.state_slots, self.maps)?;
        writeln!(f, "  blockchain-agnostic steps: {}", self.agnostic_steps)?;
        writeln!(f, "  EVM connector (Ethereum / Polygon):")?;
        writeln!(
            f,
            "    deployment: {} gas ({} runtime bytes)",
            self.evm_deploy_gas, self.evm_runtime_bytes
        )?;
        for api in &self.apis {
            writeln!(f, "    {}: {} gas", api.name, api.evm_gas)?;
        }
        writeln!(f, "  AVM connector (Algorand):")?;
        writeln!(
            f,
            "    creation: {} cost units; min fee {} µAlgo per call",
            self.avm_create_cost, self.avm_min_fee
        )?;
        for api in &self.apis {
            writeln!(
                f,
                "    {}: {} / {} budget",
                api.name,
                api.avm_cost,
                pol_avm::cost::CALL_BUDGET
            )?;
        }
        Ok(())
    }
}

/// Runs the conservative analysis on a program.
///
/// # Errors
///
/// Backend errors if code generation fails.
pub fn analyze(program: &Program) -> Result<Analysis, LangError> {
    let report = verify::verify(program);
    let compiled_evm = evm_backend::compile(program)?;
    let compiled_avm = avm_backend::compile(program)?;

    // Deployment: intrinsic on the init code with worst-case (non-zero)
    // constructor args, straight-line constructor execution, and the
    // code deposit.
    let arg_bytes: usize = program
        .creator
        .fields
        .iter()
        .map(|(_, ty)| match ty {
            crate::ast::Ty::Bytes(cap) => cap.div_ceil(32) * 32,
            _ => 32,
        })
        .sum();
    let constructor_len = compiled_evm.init_code.len()
        - compiled_evm.runtime_len
        - pol_evm::assembler::DEPLOY_WRAPPER_LEN;
    let constructor_gas =
        evm_linear_bound(&compiled_evm.init_code[..constructor_len], arg_bytes as u64);
    let deploy_intrinsic = gas::G_TRANSACTION
        + gas::G_TXCREATE
        + gas::G_TXDATANONZERO * (compiled_evm.init_code.len() + arg_bytes) as u64;
    let evm_deploy_gas = deploy_intrinsic
        + constructor_gas
        + gas::G_CODEDEPOSIT * compiled_evm.runtime_len as u64
        + EVM_DEPLOY_PROTOCOL_OVERHEAD;

    let mut apis = Vec::new();
    let mut agnostic_steps = program.constructor.len();
    for (phase_idx, api) in program.all_apis() {
        agnostic_steps += count_steps(&api.body) + 1;
        let fragment = evm_backend::api_fragment(program, phase_idx, api)?;
        let payload = evm_backend::params_width(api) as u64;
        let call_intrinsic = gas::G_TRANSACTION
            + 4 * gas::G_TXDATANONZERO
            + payload * (gas::G_TXDATANONZERO + gas::G_TXDATAZERO) / 2;
        let evm_gas =
            call_intrinsic + evm_linear_bound(&fragment, payload) + EVM_RUNTIME_CALL_OVERHEAD;
        let avm_ops = avm_backend::api_fragment(program, phase_idx, api)?;
        apis.push(ApiCost {
            name: api.name.clone(),
            evm_gas,
            avm_cost: pol_avm::cost::program_cost(&avm_ops),
        });
    }

    Ok(Analysis {
        contract: program.name.clone(),
        theorems: report.theorems_checked,
        verified: report.ok(),
        state_slots: program.globals.len() + 2,
        maps: program.maps.len(),
        agnostic_steps,
        evm_deploy_gas,
        evm_runtime_bytes: compiled_evm.runtime_len,
        avm_create_cost: pol_avm::cost::program_cost(compiled_avm.program.ops()),
        avm_min_fee: pol_avm::cost::MIN_TXN_FEE,
        apis,
    })
}

fn count_steps(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    for stmt in stmts {
        n += 1;
        if let Stmt::If { then, otherwise, .. } = stmt {
            n += count_steps(then) + count_steps(otherwise);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_analysis_is_consistent() {
        let analysis = analyze(&Program::counter_example()).unwrap();
        assert!(analysis.verified);
        assert!(analysis.theorems > 0);
        assert_eq!(analysis.maps, 0);
        assert_eq!(analysis.state_slots, 4); // 2 globals + phase + creator
        assert!(analysis.evm_deploy_gas > gas::G_TRANSACTION + gas::G_TXCREATE);
        assert!(analysis.api("bump").is_some());
        assert!(analysis.api("bump").unwrap().evm_gas > 21_000);
        assert!(analysis.api("bump").unwrap().avm_cost < pol_avm::cost::CALL_BUDGET);
        let text = analysis.to_string();
        assert!(text.contains("Conservative analysis"));
        assert!(text.contains("No failures!"));
    }

    #[test]
    fn deploy_gas_scales_with_pad() {
        let program = Program::counter_example();
        let a = analyze(&program).unwrap();
        // The default pad contributes 200 gas per byte of dead code.
        assert!(
            a.evm_deploy_gas > gas::G_CODEDEPOSIT * crate::backend::evm::DEFAULT_RUNTIME_PAD as u64
        );
    }
}
