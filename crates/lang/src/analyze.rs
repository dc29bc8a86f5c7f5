//! The conservative cost analysis — the compiler report reproduced as
//! Fig. 5.1 of the paper: before deployment, the compiler bounds the
//! worst-case resources of every operation on every target chain,
//! alongside the verification summary. Every figure is the scalar worst
//! case of a [`crate::gas`] certificate, so the report prints exactly
//! what admission and the scheduler are later held to.

use crate::access::MethodKind;
use crate::ast::{Program, Stmt};
use crate::backend::{avm as avm_backend, evm as evm_backend};
use crate::gas::{certify_compiled, GasBound};
use crate::ir::ProgramFlows;
use crate::verify::verify_flows;
use crate::LangError;

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
/// [`LangError::TypeErrors`] when the program fails the type checker;
/// backend errors if code generation fails on either target.
pub fn analyze(program: &Program) -> Result<Analysis, LangError> {
    crate::check::checked(program)?;
    let flows = ProgramFlows::new(program);
    let report = verify_flows(program, &flows);
    let table = evm_backend::dispatch_table(program);
    let compiled_evm = evm_backend::emit(program, &table, evm_backend::DEFAULT_RUNTIME_PAD)?;
    // The AVM backend refuses some programs the EVM one accepts (an
    // argument index past one byte); either refusal means no report.
    avm_backend::emit(program)?;
    let bounds = certify_compiled(program, &flows, &compiled_evm, &table);

    // The phase APIs in declaration order; the generated views and
    // `closeContract` are not in the report.
    let apis = bounds
        .methods
        .iter()
        .filter(|m| m.kind == MethodKind::Api)
        .map(|m| ApiCost {
            name: m.name.clone(),
            evm_gas: worst_case(&m.evm),
            avm_cost: worst_case(&m.avm),
        })
        .collect();
    let agnostic_steps = program.constructor.len()
        + program.all_apis().map(|(_, api)| count_steps(&api.body) + 1).sum::<usize>();

    Ok(Analysis {
        contract: program.name.clone(),
        theorems: report.theorems_checked,
        verified: report.ok(),
        state_slots: program.globals.len() + 2,
        maps: program.maps.len(),
        agnostic_steps,
        evm_deploy_gas: worst_case(&bounds.constructor_evm),
        evm_runtime_bytes: compiled_evm.runtime_len,
        avm_create_cost: worst_case(&bounds.constructor_avm),
        avm_min_fee: pol_avm::cost::MIN_TXN_FEE,
        apis,
    })
}

/// A certificate's scalar worst case; ⊤ (never produced for a program
/// that compiles) reads as unbounded.
fn worst_case(bound: &GasBound) -> u64 {
    bound.worst_case().unwrap_or(u64::MAX)
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
    use crate::gas::certify;
    use crate::parse::parse;
    use pol_evm::gas;

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
    fn every_figure_is_a_certificate_worst_case() {
        let programs = [
            Program::counter_example(),
            parse(include_str!("../../core/contracts/proof_of_location.pol")).expect("parses"),
            parse(include_str!("../../core/contracts/proof_of_location_v2.pol")).expect("parses"),
        ];
        for program in &programs {
            let (analysis, bounds) = (analyze(program).unwrap(), certify(program).unwrap());
            let deploy = (bounds.constructor_evm.worst_case(), bounds.constructor_avm.worst_case());
            assert_eq!((Some(analysis.evm_deploy_gas), Some(analysis.avm_create_cost)), deploy);
            let names: Vec<_> = program.all_apis().map(|(_, api)| &api.name).collect();
            assert_eq!(analysis.apis.iter().map(|a| &a.name).collect::<Vec<_>>(), names);
            for api in &analysis.apis {
                let m = bounds.method(&api.name).unwrap();
                let certified = (m.evm.worst_case(), m.avm.worst_case());
                assert_eq!((Some(api.evm_gas), Some(api.avm_cost)), certified, "{}", api.name);
            }
        }
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
