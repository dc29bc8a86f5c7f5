//! The factory pattern for per-area contract instances (§2.4.1).
//!
//! One compiled template is reused for every deployment, so users only
//! need to trust a single source artifact: the factory records every
//! instance it spawns and can attest that an instance's code is the
//! template's (the "improved contract security" the paper credits the
//! pattern with), and it gives a single place to track and monitor all
//! area contracts.

use crate::PolError;
use pol_lang::access::ContractSummaries;
use pol_lang::backend::{AbiValue, CompiledContract};
use pol_lang::gas::ContractGasBounds;
use pol_lang::Program;
use pol_ledger::ContractId;
use std::sync::Arc;

/// A record of one deployed instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The on-chain contract.
    pub contract: ContractId,
    /// The Open Location Code the instance serves.
    pub olc: String,
    /// Deployment simulation time, ms.
    pub deployed_ms: u64,
}

/// A contract factory for one compiled template.
#[derive(Debug)]
pub struct Factory {
    compiled: CompiledContract,
    instances: Vec<Instance>,
}

impl Factory {
    /// Compiles `program` (checking and verifying it) into a factory
    /// template. The one pipeline call also yields the access summaries
    /// and gas certificates the factory hands out.
    ///
    /// # Errors
    ///
    /// Propagates compiler-pipeline failures.
    pub fn new(program: Program) -> Result<Factory, PolError> {
        let compiled = pol_lang::backend::compile(&program)?;
        Ok(Factory { compiled, instances: Vec::new() })
    }

    /// The template's compiled artifacts.
    pub fn compiled(&self) -> &CompiledContract {
        &self.compiled
    }

    /// The template's static access summaries, shared so every deployed
    /// instance can register a cheap clone of them as its chain-side
    /// access resolver.
    pub fn summaries(&self) -> Arc<ContractSummaries> {
        Arc::clone(&self.compiled.summaries)
    }

    /// The template's static worst-case gas certificates, shared so
    /// every deployed instance can register a cheap clone of them as
    /// its chain-side gas resolver (scheduler seeding, admission
    /// pricing, commit-time soundness checks).
    pub fn gas_bounds(&self) -> Arc<ContractGasBounds> {
        Arc::clone(&self.compiled.gas_bounds)
    }

    /// EVM init code for a new instance with the given constructor args.
    ///
    /// # Errors
    ///
    /// Argument mismatches surface as [`PolError::Lang`].
    pub fn evm_init_code(&self, args: &[AbiValue]) -> Result<Vec<u8>, PolError> {
        Ok(self.compiled.evm.init_with_args(args)?)
    }

    /// AVM creation arguments for a new instance.
    ///
    /// # Errors
    ///
    /// Argument mismatches surface as [`PolError::Lang`].
    pub fn avm_create_args(&self, args: &[AbiValue]) -> Result<Vec<Vec<u8>>, PolError> {
        Ok(self.compiled.avm.encode_create_args(args)?)
    }

    /// Records an instance the factory spawned.
    pub(crate) fn track(&mut self, contract: ContractId, olc: String, deployed_ms: u64) {
        self.instances.push(Instance { contract, olc, deployed_ms });
    }

    /// All tracked instances, in deployment order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The instance serving an area, if any.
    pub fn instance_for(&self, olc: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.olc == olc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::pol_program;

    #[test]
    fn factory_compiles_template_once() {
        let factory = Factory::new(pol_program()).unwrap();
        assert!(!factory.compiled().evm.init_code.is_empty());
        assert!(factory.instances().is_empty());
    }

    #[test]
    fn tracks_instances_per_area() {
        let mut factory = Factory::new(pol_program()).unwrap();
        factory.track(ContractId::App(1), "8FPH47Q3+HM".into(), 100);
        factory.track(ContractId::App(2), "8FPH47Q4+22".into(), 200);
        assert_eq!(factory.instances().len(), 2);
        assert_eq!(factory.instance_for("8FPH47Q3+HM").unwrap().contract, ContractId::App(1));
        assert!(factory.instance_for("nowhere").is_none());
    }

    #[test]
    fn rejects_unverifiable_template() {
        use pol_lang::ast::*;
        // A program with an unguarded transfer must be refused.
        let mut bad = Program::counter_example();
        bad.phases[0].apis[0].body.push(Stmt::Transfer { to: Expr::Caller, amount: Expr::UInt(5) });
        assert!(matches!(Factory::new(bad), Err(PolError::Lang(_))));
    }
}
