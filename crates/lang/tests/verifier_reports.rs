//! Recorded-table guard over the two bytecode verifiers as `pol-lang`
//! drives them.
//!
//! `pol_evm::verifier` and `pol_avm::verifier` each carry a differential
//! proptest against the hash-map implementation they replaced, but those
//! reference oracles are private to their crates. Here the guard is the
//! table below: every field of every report the pipeline asks for — init
//! code, runtime image, whole approval program and each per-API fragment
//! pair — for the bundled contracts, the lint fixtures that compile and a
//! 64-API synthetic contract, recorded from the hash-map verifiers before
//! they were replaced.

use pol_evm::verifier::{BytecodeReport, VerifyConfig};
use pol_lang::ast::{Api, Program};
use pol_lang::backend;

/// The phase-counter slot: the only `SSTORE` key `backend::compile`
/// allows after a `CALL`.
const ALLOWED: [u64; 1] = [0];

macro_rules! lint_fixture {
    ($name:literal) => {
        ($name, include_str!(concat!("../../../examples/lint/", $name, ".pol")))
    };
}

/// A contract of `apis` APIs over `apis / 8` maps in the shape of the
/// benchmark's synthetic corpus: one deleting API per map, the rest
/// cycling through its four bodies (map write, guarded subtraction,
/// branch, log).
fn synthetic(apis: usize) -> String {
    let maps = (apis / 8).max(1);
    let mut src = format!(
        "contract synth_{apis} {{\n    participant Creator {{\n        slots: uint,\n    }}\n\n    \
         global open: uint = field(slots) view;\n    global acc: uint = 0 view;\n"
    );
    for m in 0..maps {
        src.push_str(&format!("    map m{m}[32];\n"));
    }
    src.push_str("\n    phase live while open > 0 invariant open >= 0 {\n");
    for i in 0..apis {
        let (m, c) = (i % maps, 1 + i % 9);
        let body = if i < maps {
            format!("delete m{m}[k];")
        } else {
            match (i - maps) % 4 {
                0 => format!("acc = acc + v; m{m}[k] = [v];"),
                1 => format!("require(v >= {c}); acc = acc + (v - {c});"),
                2 => format!("if v > {c} {{ acc = acc + 1; }} else {{ m{m}[k] = [(v + {c})]; }}"),
                _ => format!("acc = acc + {c}; log(k, v);"),
            }
        };
        src.push_str(&format!("        api f{i}(k: uint, v: uint) -> acc {{ {body} }}\n"));
    }
    src.push_str("    }\n}\n");
    src
}

fn all_apis(program: &Program) -> impl Iterator<Item = (usize, &Api)> {
    program
        .phases
        .iter()
        .enumerate()
        .flat_map(|(idx, phase)| phase.apis.iter().map(move |a| (idx, a)))
}

fn evm_row(report: &BytecodeReport) -> String {
    format!(
        "{}/{}/{}/{:?}/{}",
        report.max_stack,
        report.worst_case_gas,
        report.visited_pcs,
        report.constant_sstore_keys,
        report.unknown_key_sstores
    )
}

fn avm_row(ops: Vec<pol_avm::opcode::AvmOp>) -> String {
    let report = pol_avm::verifier::verify(&pol_avm::program::AvmProgram::new(ops))
        .expect("emitted AVM code verifies");
    format!(
        "{}/{}/{}/{}/{}",
        report.max_stack,
        report.worst_case_cost,
        report.global_puts,
        report.box_puts,
        report.box_dels
    )
}

/// One line per artifact: `program artifact evm <report> avm <report>`,
/// fields in declaration order.
fn rows(name: &str, program: &Program) -> Vec<String> {
    let compiled = backend::compile(program).expect("corpus program compiles");
    let max_payload =
        all_apis(program).map(|(_, api)| backend::evm::params_width(api) as u64).max().unwrap_or(0);
    let evm = |code: &[u8], payload_bytes: u64| {
        let cfg = VerifyConfig { allowed_post_call_sstore_keys: &ALLOWED, payload_bytes };
        evm_row(&pol_evm::verifier::verify(code, &cfg).expect("emitted EVM code verifies"))
    };
    let init = &compiled.evm.init_code;
    let mut rows = vec![format!(
        "{name} image evm-init {} evm-runtime {} avm {}",
        evm(init, max_payload),
        evm(&init[init.len() - compiled.evm.runtime_len..], max_payload),
        avm_row(compiled.avm.program.ops().to_vec()),
    )];
    for (phase_idx, api) in all_apis(program) {
        let fragment = backend::evm::api_fragment(program, phase_idx, api).expect("EVM fragment");
        let ops = backend::avm::api_fragment(program, phase_idx, api).expect("AVM fragment");
        rows.push(format!(
            "{name} {} evm {} avm {}",
            api.name,
            evm(&fragment, backend::evm::params_width(api) as u64),
            avm_row(ops),
        ));
    }
    rows
}

#[test]
fn reports_match_the_recorded_hash_map_verifiers() {
    let synth = synthetic(64);
    let corpus = [
        ("pol_v1", include_str!("../../core/contracts/proof_of_location.pol")),
        ("pol_v2", include_str!("../../core/contracts/proof_of_location_v2.pol")),
        lint_fixture!("clean_counter"),
        lint_fixture!("dead_store"),
        lint_fixture!("relational_guard"),
        lint_fixture!("top_key"),
        lint_fixture!("unreachable_branch"),
        lint_fixture!("unsat_require"),
        ("synth_64", synth.as_str()),
    ];
    let got: Vec<String> = corpus
        .iter()
        .flat_map(|(name, source)| rows(name, &pol_lang::parse(source).expect("corpus parses")))
        .collect();
    let want: Vec<&str> = RECORDED.lines().collect();
    assert!(
        got.iter().map(String::as_str).eq(want.iter().copied()),
        "verifier reports moved; got:\n{}",
        got.join("\n")
    );
}

/// Recorded at `48fb7c7` (hash-map memos in both verifiers).
const RECORDED: &str = "\
pol_v1 image evm-init 3/17562/53/[1, 2, 3, 4, 6]/0 evm-runtime 7/24798/400/[0, 4, 5]/2 avm 3/270/13/1/1
pol_v1 insert_data evm 3/15710/95/[0, 4, 5]/1 avm 3/212/3/1/0
pol_v1 insert_money evm 2/3457/51/[0]/0 avm 2/36/1/0/0
pol_v1 verify evm 7/24712/139/[0, 5]/1 avm 3/256/2/0/1
pol_v2 image evm-init 3/20793/61/[1, 2, 3, 4, 6, 7]/0 evm-runtime 7/36913/503/[0, 4, 5, 8]/2 avm 4/298/17/1/1
pol_v2 insert_data evm 3/15710/95/[0, 4, 5]/1 avm 3/212/3/1/0
pol_v2 insert_money evm 2/3457/51/[0]/0 avm 2/36/1/0/0
pol_v2 verify evm 7/36827/153/[0, 5]/1 avm 4/284/2/0/1
pol_v2 set_reward_gap evm 2/6470/58/[0, 8]/0 avm 3/44/2/0/0
clean_counter image evm-init 3/5862/21/[1, 2]/0 evm-runtime 7/11958/130/[0, 2, 3]/0 avm 3/55/7/0/0
clean_counter bump evm 2/9479/63/[0, 2, 3]/0 avm 3/49/3/0/0
dead_store image evm-init 3/5862/21/[1, 2]/0 evm-runtime 7/12405/128/[0, 2, 3]/0 avm 3/56/8/0/0
dead_store bump evm 2/12363/61/[0, 2, 3]/0 avm 3/50/4/0/0
relational_guard image evm-init 3/5862/21/[1, 2]/0 evm-runtime 7/11958/131/[0, 2, 3]/0 avm 3/59/7/0/0
relational_guard spend evm 2/9676/64/[0, 2, 3]/0 avm 3/53/3/0/0
top_key image evm-init 3/5868/21/[1, 2]/0 evm-runtime 7/11936/140/[0]/2 avm 3/207/4/1/1
top_key put evm 3/10823/87/[0]/2 avm 3/201/1/1/1
unreachable_branch image evm-init 3/5862/21/[1, 2]/0 evm-runtime 7/11958/141/[0, 2, 3]/0 avm 3/62/7/0/0
unreachable_branch bump evm 2/9616/74/[0, 2, 3]/0 avm 3/56/3/0/0
unsat_require image evm-init 3/2941/13/[1]/0 evm-runtime 7/11936/118/[0, 2]/0 avm 3/56/5/0/0
unsat_require claim evm 2/6595/65/[0, 2]/0 avm 3/50/2/0/0
synth_64 image evm-init 3/5868/21/[1, 2]/0 evm-runtime 7/13344/4588/[0, 3]/36 avm 4/442/124/28/8
synth_64 f0 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f1 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f2 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f3 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f4 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f5 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f6 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f7 evm 3/6493/55/[0]/1 avm 2/47/1/0/1
synth_64 f8 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f9 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f10 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f11 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f12 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f13 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f14 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f15 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f16 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f17 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f18 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f19 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f20 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f21 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f22 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f23 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f24 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f25 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f26 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f27 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f28 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f29 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f30 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f31 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f32 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f33 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f34 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f35 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f36 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f37 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f38 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f39 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f40 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f41 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f42 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f43 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f44 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f45 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f46 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f47 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f48 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f49 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f50 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f51 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f52 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f53 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f54 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f55 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f56 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f57 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f58 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f59 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0
synth_64 f60 evm 3/10839/73/[0, 3]/1 avm 3/187/2/1/0
synth_64 f61 evm 2/6573/60/[0, 3]/0 avm 4/46/2/0/0
synth_64 f62 evm 3/7860/85/[0, 3]/1 avm 3/188/2/1/0
synth_64 f63 evm 2/7450/60/[0, 3]/0 avm 3/42/2/0/0";
