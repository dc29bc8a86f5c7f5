//! Recorded-table guard over the bytes `backend::compile` ships, and the
//! splice invariant that ties them to what the cost gate verifies.
//!
//! Each row pins a SHA-256 of the EVM init code and of the TEAL listing
//! (label numbers included) for the programs of the benchmark's
//! `compile-corpus` workload: the bundled contracts, its two small
//! storage contracts, the lint fixtures that compile and 4-, 16- and
//! 64-API synthetic contracts, plus one contract that repeats parameter
//! and field names. A moved byte in either image fails here,
//! not only in the benchmark's determinism check.
//!
//! The images are assembled from the per-API fragments the X0401/X0402
//! gate verifies; [`fragments_are_the_shipped_bodies`] checks that each
//! API's fragment, as `evm::api_fragment` and `avm::api_fragment` return
//! it, is that API's body in the shipped image.

use pol_avm::opcode::AvmOp;
use pol_evm::opcode::Op;
use pol_lang::ast::{Api, Program};
use pol_lang::backend;

macro_rules! lint_fixture {
    ($name:literal) => {
        ($name, include_str!(concat!("../../../examples/lint/", $name, ".pol")).to_string())
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

/// One map written and cleared by two APIs.
const GAS_SINK: &str = "contract gas_sink {
    participant Creator { slots: uint, }
    global open: uint = field(slots) view;
    global acc: uint = 0 view;
    map m0[32];
    phase live while open > 0 invariant open >= 0 {
        api bump(key: uint, val: uint) -> acc { acc = acc + val; m0[key] = [val]; }
        api clear(key: uint) -> acc { delete m0[key]; }
    }
}";

/// Four maps written and cleared together.
const DISJOINT_STORE: &str = "contract disjoint_store {
    participant Creator { slots: uint, }
    global open: uint = field(slots) view;
    map m0[32]; map m1[32]; map m2[32]; map m3[32];
    phase live while (open > 0) invariant (open >= 0) {
        api put(key: uint, val: uint) -> open {
            m0[key] = [val]; m1[key] = [(val + 1)]; m2[key] = [(val + 2)]; m3[key] = [(val + 3)];
        }
        api clear(key: uint) -> open {
            delete m0[key]; delete m1[key]; delete m2[key]; delete m3[key];
        }
    }
}";

/// Repeated parameter and field names, which the checker accepts: the
/// backends address the last of each, and the EVM stages each name once.
const REPEATED_NAMES: &str = "contract repeated_names {
    participant Creator { slots: uint, slots: uint, }
    global open: uint = field(slots) view;
    global acc: uint = 0 view;
    map m0[32];
    map m1[64];
    phase live while open > 0 invariant open >= 0 {
        api put(k: uint, v: uint, v: uint) -> acc { acc = acc + v; m0[k] = [v]; }
        api tag(k: uint, b: bytes[32], b: bytes[32]) -> acc { m1[k] = [b, k]; log(k, b); }
        api clear(k: uint, k: uint) -> acc { delete m0[k]; delete m1[k]; }
    }
}";

/// Every program of the guard, by name.
fn corpus() -> Vec<(&'static str, Program)> {
    let sources = [
        ("pol_v1", include_str!("../../core/contracts/proof_of_location.pol").to_string()),
        ("pol_v2", include_str!("../../core/contracts/proof_of_location_v2.pol").to_string()),
        ("gas_sink", GAS_SINK.to_string()),
        ("disjoint_store", DISJOINT_STORE.to_string()),
        lint_fixture!("clean_counter"),
        lint_fixture!("dead_store"),
        lint_fixture!("relational_guard"),
        lint_fixture!("top_key"),
        lint_fixture!("unreachable_branch"),
        lint_fixture!("unsat_require"),
        ("synth_4", synthetic(4)),
        ("synth_16", synthetic(16)),
        ("synth_64", synthetic(64)),
        ("repeated_names", REPEATED_NAMES.to_string()),
    ];
    sources
        .into_iter()
        .map(|(name, source)| (name, pol_lang::parse(&source).expect("corpus parses")))
        .collect()
}

fn all_apis(program: &Program) -> impl Iterator<Item = (usize, &Api)> {
    program
        .phases
        .iter()
        .enumerate()
        .flat_map(|(idx, phase)| phase.apis.iter().map(move |a| (idx, a)))
}

fn digest(bytes: &[u8]) -> String {
    pol_crypto::hex::encode(&pol_crypto::sha256(bytes))
}

#[test]
fn shipped_images_match_the_recorded_digests() {
    let got: Vec<String> = corpus()
        .iter()
        .map(|(name, program)| {
            let compiled = backend::compile(program).expect("corpus program compiles");
            format!(
                "{name} evm-init {} teal {}",
                digest(&compiled.evm.init_code),
                digest(compiled.avm.teal().as_bytes())
            )
        })
        .collect();
    let want: Vec<&str> = RECORDED.lines().collect();
    assert!(
        got.iter().map(String::as_str).eq(want.iter().copied()),
        "emitted bytes moved; got:\n{}",
        got.join("\n")
    );
}

/// The value of the `PUSH3` at `pc`.
fn push3(code: &[u8], pc: usize) -> usize {
    assert_eq!(code[pc], 0x62, "PUSH3 at pc {pc}");
    usize::from(code[pc + 1]) << 16 | usize::from(code[pc + 2]) << 8 | usize::from(code[pc + 3])
}

/// The pc an instruction at `pc` is followed by.
fn next_pc(code: &[u8], pc: usize) -> usize {
    match code[pc] {
        byte @ 0x60..=0x7f => pc + 2 + usize::from(byte - 0x60),
        _ => pc + 1,
    }
}

/// The EVM side: the dispatcher's entry for `selector` is
/// `DUP1 PUSH4 selector EQ PUSH3 body JUMPI`, and the body is
/// `JUMPDEST POP` followed by the fragment without its revert tail
/// (`JUMPDEST PUSH1 0 PUSH1 0 REVERT`). Every label reference — a `PUSH3`
/// that feeds a `JUMP` or `JUMPI` — is shifted by the body's offset, and
/// one to the fragment's revert tail lands on the image's shared revert.
fn evm_body_matches(runtime: &[u8], selector: [u8; 4], fragment: &[u8], api: &str) {
    const TAIL: [u8; 6] = [0x5b, 0x60, 0x00, 0x60, 0x00, 0xfd];
    let probe = [[0x80, 0x63].as_slice(), &selector, &[0x14]].concat();
    let at = runtime.windows(probe.len()).position(|w| w == probe).expect("dispatch entry");
    let entry = push3(runtime, at + probe.len());
    assert_eq!(runtime[entry..entry + 2], [Op::JumpDest as u8, Op::Pop as u8]);
    let base = entry + 2;
    let tail = fragment.len() - TAIL.len();
    assert_eq!(fragment[tail..], TAIL, "api {api:?}: fragment ends in its revert tail");
    // The image's shared revert is the dispatcher's fallback jump target.
    let mut fallback = 0;
    while runtime[fallback] != Op::Jump as u8 {
        fallback = next_pc(runtime, fallback);
    }
    let shared_revert = push3(runtime, fallback - 4);

    let mut pc = 0;
    while pc < tail {
        let next = next_pc(fragment, pc);
        let is_label = fragment[pc] == 0x62
            && matches!(fragment.get(next), Some(&b) if b == Op::Jump as u8 || b == Op::JumpI as u8);
        if is_label {
            let (target, shipped) = (push3(fragment, pc), push3(runtime, base + pc));
            let want = if target == tail { shared_revert } else { base + target };
            assert_eq!(shipped, want, "api {api:?}: label reference at fragment pc {pc}");
        } else {
            assert_eq!(
                fragment[pc..next],
                runtime[base + pc..base + next],
                "api {api:?}: fragment pc {pc}"
            );
        }
        pc = next;
    }
}

/// The AVM side: the dispatcher's `bnz` for the API's name leads to a
/// label, and the ops behind it are the fragment's, with labels renumbered
/// one-to-one.
fn avm_body_matches(image: &[AvmOp], name: &str, fragment: &[AvmOp]) {
    let probe = [AvmOp::TxnArg(0), AvmOp::PushBytes(name.as_bytes().to_vec()), AvmOp::Eq];
    let at = image.windows(3).position(|w| w == probe).expect("dispatch entry");
    let AvmOp::Bnz(entry) = image[at + 3] else { panic!("bnz after the {name:?} probe") };
    let start = image.iter().position(|op| *op == AvmOp::Label(entry)).expect("entry label") + 1;
    let body = &image[start..start + fragment.len()];

    let mut renumbered = std::collections::HashMap::new();
    let mut same_label = |ours: usize, shipped: usize| {
        assert_eq!(*renumbered.entry(ours).or_insert(shipped), shipped, "label {ours} renumbered");
    };
    for (ours, shipped) in fragment.iter().zip(body) {
        match (ours, shipped) {
            (AvmOp::Label(a), AvmOp::Label(b))
            | (AvmOp::B(a), AvmOp::B(b))
            | (AvmOp::Bz(a), AvmOp::Bz(b))
            | (AvmOp::Bnz(a), AvmOp::Bnz(b)) => same_label(*a, *b),
            _ => assert_eq!(ours, shipped, "api {name:?}"),
        }
    }
    let mut targets: Vec<_> = renumbered.values().collect();
    targets.sort();
    targets.dedup();
    assert_eq!(targets.len(), renumbered.len(), "api {name:?}: labels renumbered one-to-one");
}

/// `analyze` runs the AVM's refusal rule in place of emitting the
/// program: it must accept or refuse as `avm::compile` does, in the same
/// words.
#[test]
fn analyze_and_avm_compile_agree_on_refusal() {
    let verdict = |result: Result<(), pol_lang::LangError>| result.map_err(|e| e.to_string());
    for (name, program) in corpus() {
        let analyzed = verdict(pol_lang::analyze::analyze(&program).map(drop));
        assert_eq!(analyzed, verdict(backend::avm::compile(&program).map(drop)), "{name}");
    }
}

#[test]
fn fragments_are_the_shipped_bodies() {
    for (_, program) in corpus() {
        let compiled = backend::compile(&program).expect("corpus program compiles");
        let init = &compiled.evm.init_code;
        let runtime = &init[init.len() - compiled.evm.runtime_len..];
        for (phase_idx, api) in all_apis(&program) {
            let fragment = backend::evm::api_fragment(&program, phase_idx, api).expect("EVM");
            evm_body_matches(runtime, compiled.evm.selectors[&api.name], &fragment, &api.name);
            let ops = backend::avm::api_fragment(&program, phase_idx, api).expect("AVM");
            avm_body_matches(compiled.avm.program.ops(), &api.name, &ops);
        }
    }
}

/// Recorded at `db92a12`, before the images were spliced from the gated
/// fragments.
const RECORDED: &str = "\
pol_v1 evm-init 191cf34983e222eec6a371baa189bd56a0953e4cea656f6292114a771e291bfc teal 598db42af14b2cd9b0cf9b75362c283a7b6e92758e0f3703baf4dc6569c79acb
pol_v2 evm-init 144ea4618a2c61e14d80d97fde1585f02d68752c0e5b2839eb1ad43ad623eec2 teal 85b01fc2dbdfddcc444ef2ca2166fd5094ea215ea94696a4c7ccdaa4a7e9d9bb
gas_sink evm-init b87f168ef4c6eeed29d3e8882736f0af05b6113ab36eb058b1c862364b69bd58 teal af8fae5b6382f5f970c3d8da15d3262d7b6580167f6527d7940b4f2c5b16948f
disjoint_store evm-init 308aaa8db59f0f67e59e9e47f580f0b0f7aaf6b809e973a4fd5800f9b4b60b4c teal afbfc13b01d706d56324e1f87a6d9e60286124efd475145f28756cb7d75e07c1
clean_counter evm-init 8e0fc85c8217a88e63625c4826944195daa8e81af11584d47b322a7a2fead64d teal 86f5ba177c1546a96ce25576d67243cf7523ee5635643905cd9b2800dbb6df2b
dead_store evm-init febead963477813cfd52ea378f9ff7ffc9677ea94558f07ae45a32c875a186ea teal 331c3f913bcc7a0495a8d2c298119a945088956ecde66905fe8e2c1fc5394224
relational_guard evm-init 65c85f117a4d8d044a3ed7634a8bbfd284801397bf00d87e670d7766ae0ef524 teal ec3f2d02f10bfdc8ae4416315627f00c99443cdd24a4b7f8b0b655747ffbb5ab
top_key evm-init 9387782be3335452763ce4de06401b536c964ff61571c14d09cb2845e10967b4 teal a7cb61d17cebd4f1094bd089d8e6d2cf3e65050854c5ac42f9aa30102acfce6d
unreachable_branch evm-init e1240703b173ddfb3662b9529f2e26dee97a5e6b210a69e51c825ae47a338668 teal 9c08e4fc00dca8141ed6a9ed81d8e891a97f5c7ea9c39c20cd94e6c413eec796
unsat_require evm-init 5d163422adf3ff8695438bb9732182e15c233064dd35383b70f84a5401183bd2 teal 44e2c86c5e3636d754ac274f12836137f5f0ac810ddfad551d1d0ed29fce4f11
synth_4 evm-init ebd392ac9e5afe00dc7b67920d9997f9aa47e03a37c25da092508ee1b96489e9 teal 0bc0f29dfb1fff2749c30b53cc18d430224b59c2563dd2848637c493ed3bc244
synth_16 evm-init dd19951f35701db04f3e525367ff7737f6673bba7853d9b026c19eaf57eb4dff teal a5dfc102565b0aa45dc521427be2833f29dc4490c67f6411a433c939ff52651a
synth_64 evm-init cdc6764497a6dd67fc99264b911f24d8c3df7867d4c88b2ffba72af6c13aaae1 teal 962f02275b0e7f6be8d86dd29e3039598c5c6f231a1ed2ff5ef22ab4ee8c1f8a
repeated_names evm-init 054021a40e534607babb4829bf70c52484bfec0111f58d5f882f8742fc03ebc3 teal cc9bb91c5bb96dff4068dee50839e8019bbe93128989b4bc7c5117df1c518672";
