//! The compile pipeline derives every static fact once and returns it
//! with the artifacts. This pins "handed forward = computed standalone":
//! what `compile` and `Factory` hand out is exactly what the public
//! `summarize`, `certify` and `lint` passes compute on their own — and
//! that the facts published under `results/` for the paper's contracts
//! stay precise, certified and inside the budgets the runtimes enforce.

use proof_of_location as pol;

use pol::core::contract::{pol_program, pol_program_v2};
use pol::core::factory::Factory;
use pol::lang::access::MethodKind;
use pol::lang::{access, backend, check, gas, lint, parse, Program};
use std::path::Path;
use std::sync::Arc;

/// The two paper contracts, the counter example and every lint fixture
/// that compiles.
fn corpus() -> Vec<Program> {
    let mut programs = vec![pol_program(), pol_program_v2(), Program::counter_example()];
    let mut fixtures: Vec<_> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lint"))
            .expect("examples/lint exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "pol"))
            .collect();
    fixtures.sort();
    for path in fixtures {
        let program = parse(&std::fs::read_to_string(&path).expect("readable")).expect("parses");
        if check::check(&program).is_empty() && backend::compile(&program).is_ok() {
            programs.push(program);
        }
    }
    assert!(programs.len() >= 9, "only {} programs compile", programs.len());
    programs
}

#[test]
fn compile_and_factory_hand_out_what_the_standalone_passes_compute() {
    let mut warned = 0;
    for program in corpus() {
        let name = program.name.clone();
        let summaries = access::summarize(&program).to_json(&name, "");
        let bounds = gas::certify(&program).expect("certifies").to_json(&name, "");

        let compiled = backend::compile(&program).expect("compiles");
        assert_eq!(compiled.summaries.to_json(&name, ""), summaries, "{name}: summaries");
        assert_eq!(compiled.gas_bounds.to_json(&name, ""), bounds, "{name}: certificates");
        // The program compiled, so the lints raised no error: every
        // diagnostic of the standalone pass is a warning, in order.
        assert_eq!(compiled.warnings, lint::lint(&program), "{name}: warnings");
        warned += compiled.warnings.len();

        let factory = Factory::new(program).expect("template compiles");
        assert!(Arc::ptr_eq(&factory.summaries(), &factory.compiled().summaries));
        assert!(Arc::ptr_eq(&factory.gas_bounds(), &factory.compiled().gas_bounds));
        assert_eq!(factory.summaries().to_json(&name, ""), summaries, "{name}: factory");
        assert_eq!(factory.gas_bounds().to_json(&name, ""), bounds, "{name}: factory");
    }
    assert!(warned > 0, "no fixture exercised the warning path");
}

#[test]
fn paper_contract_facts_stay_precise_certified_and_inside_both_budgets() {
    for program in [pol_program(), pol_program_v2()] {
        let name = &program.name;
        let summaries = access::summarize(&program);
        assert!(summaries.constructor.is_precise(), "{name}: constructor degraded");
        for m in &summaries.methods {
            // closeContract is conservative by construction: its transfer
            // recipient is only known at close time.
            assert!(
                m.kind == MethodKind::Close || m.summary.is_precise(),
                "{name}.{} degraded to top: {:?}",
                m.name,
                m.summary.degradations()
            );
        }

        let bounds = gas::certify(&program).expect("certifies");
        assert!(!bounds.constructor_evm.is_top(), "{name}: constructor is top on the EVM");
        assert!(!bounds.constructor_avm.is_top(), "{name}: constructor is top on the AVM");
        for m in &bounds.methods {
            let evm = m.evm.worst_case().unwrap_or_else(|| panic!("{name}.{} top on EVM", m.name));
            let avm = m.avm.worst_case().unwrap_or_else(|| panic!("{name}.{} top on AVM", m.name));
            assert!(evm > 0 && avm > 0, "{name}.{}: evm {evm}, avm {avm}", m.name);
            if m.kind == MethodKind::Api {
                assert!(evm <= gas::DEFAULT_BLOCK_GAS_BUDGET, "{name}.{}: {evm}", m.name);
                assert!(avm <= pol::avm::cost::CALL_BUDGET, "{name}.{}: {avm}", m.name);
            }
        }
    }

    // The fixture that exists to exercise the imprecise path must keep
    // exercising it, or the precision checks above prove nothing.
    let top_key = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lint/top_key.pol"),
    )
    .expect("readable");
    let summaries = access::summarize(&parse(&top_key).expect("parses"));
    assert!(!summaries.methods[0].summary.is_precise(), "top_key.put became precise");
}
