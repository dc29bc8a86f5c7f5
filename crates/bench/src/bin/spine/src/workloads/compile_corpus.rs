//! `compile-corpus`: every program through `parse → check → verify →
//! analyze → access summaries → gas::certify → backend::compile`.
//!
//! `pol-lang` is the largest crate (three abstract interpreters, the
//! zone domain's closure) and program size is the input property its
//! cost depends on, so the corpus spans the bundled contracts, the lint
//! fixtures that compile and seeded synthetic contracts with 4, 16 and
//! 64 APIs. No other workload spends more than about a millisecond in
//! the compiler.

use super::{timed_setup, Cfg, Outcome};
use crate::gen::{Fingerprint, Rng};
use crate::layers::{self, Compiled};
use crate::stats::{self, SEGMENTS};
use crate::trace::{Tracer, NO_OP};
use std::time::Instant;

pub const NAME: &str = "compile-corpus";
pub const WHY: &str = "pol-lang alone, over programs from 1 to 64 APIs: the largest crate, loaded by no other workload for more than a millisecond";

/// Passes over the whole corpus per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 29.0;

const DISJOINT_STORE: &str = r#"
contract disjoint_store {
    participant Creator {
        slots: uint,
    }

    global open: uint = field(slots) view;
    map m0[32];
    map m1[32];
    map m2[32];
    map m3[32];

    phase live while (open > 0) invariant (open >= 0) {
        api put(key: uint, val: uint) -> open {
            m0[key] = [val];
            m1[key] = [(val + 1)];
            m2[key] = [(val + 2)];
            m3[key] = [(val + 3)];
        }
        api clear(key: uint) -> open {
            delete m0[key];
            delete m1[key];
            delete m2[key];
            delete m3[key];
        }
    }
}
"#;

/// Lint fixtures whose diagnostics are warnings only, so the whole
/// pipeline accepts them.
const COMPILING_FIXTURES: [&str; 6] = [
    "clean_counter",
    "dead_store",
    "relational_guard",
    "top_key",
    "unreachable_branch",
    "unsat_require",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeClass {
    Small,
    Api4,
    Api16,
    Api64,
}

impl SizeClass {
    fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Api4 => "api4",
            SizeClass::Api16 => "api16",
            SizeClass::Api64 => "api64",
        }
    }
}

struct Program {
    name: String,
    class: SizeClass,
    source: String,
}

/// A synthetic contract with `apis` APIs over `apis / 8` maps. Each map
/// gets one deleting API (no entry may leak); the rest take their body
/// from four shapes in equal numbers and seeded order, so the verifier,
/// the interval and zone domains, the access pass and both emitters all
/// see branching, guarded arithmetic, map traffic and logs, and the
/// amount of work does not depend on the seed — only its arrangement.
fn synthetic(rng: &mut Rng, apis: usize) -> String {
    let maps = (apis / 8).max(1);
    let mut shapes: Vec<usize> = (0..apis - maps).map(|i| i % 4).collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut src = format!(
        "contract synth_{apis} {{\n    participant Creator {{\n        slots: uint,\n    }}\n\n    global open: uint = field(slots) view;\n    global acc: uint = 0 view;\n"
    );
    for m in 0..maps {
        src.push_str(&format!("    map m{m}[32];\n"));
    }
    src.push_str("\n    phase live while open > 0 invariant open >= 0 {\n");
    for i in 0..apis {
        let m = if i < maps { i } else { rng.below(maps as u64) as usize };
        let c = 1 + rng.below(9);
        let body = if i < maps {
            format!("            delete m{m}[k];\n")
        } else {
            match shapes[i - maps] {
                0 => format!("            acc = acc + v;\n            m{m}[k] = [v];\n"),
                1 => format!("            require(v >= {c});\n            acc = acc + (v - {c});\n"),
                2 => format!(
                    "            if v > {c} {{\n                acc = acc + 1;\n            }} else {{\n                m{m}[k] = [(v + {c})];\n            }}\n"
                ),
                _ => format!("            acc = acc + {c};\n            log(k, v);\n"),
            }
        };
        src.push_str(&format!("        api f{i}(k: uint, v: uint) -> acc {{\n{body}        }}\n"));
    }
    src.push_str("    }\n}\n");
    src
}

fn corpus(seed: u64) -> Vec<Program> {
    let mut rng = Rng::fork(seed, "compile-corpus.synthetic");
    let small = |name: &str, source: &str| Program {
        name: name.to_string(),
        class: SizeClass::Small,
        source: source.to_string(),
    };
    let mut programs = vec![
        small("proof_of_location", layers::POL_V1_SOURCE),
        small("proof_of_location_v2", layers::POL_V2_SOURCE),
        small("gas_sink", super::GAS_SINK_SOURCE),
        small("disjoint_store", DISJOINT_STORE),
    ];
    for fixture in &layers::LINT_FIXTURES {
        if COMPILING_FIXTURES.contains(&fixture.name) {
            programs.push(small(fixture.name, fixture.source));
        }
    }
    for (class, apis) in [(SizeClass::Api4, 4), (SizeClass::Api16, 16), (SizeClass::Api64, 64)] {
        programs.push(Program {
            name: format!("synth_{apis}"),
            class,
            source: synthetic(&mut rng, apis),
        });
    }
    programs
}

struct Inputs {
    programs: Vec<Program>,
    /// The reference compile of each program: later compiles must be
    /// byte-identical to it.
    reference: Vec<Compiled>,
}

/// Generates the corpus and compiles it once: the reference outputs, and
/// the warm-up that lets lazy initialisation finish before timing.
fn setup(seed: u64) -> Inputs {
    let programs = corpus(seed);
    let mut quiet = Tracer::new(false);
    let reference = programs
        .iter()
        .map(|p| {
            layers::compile_pipeline(&p.source, 0, &mut quiet)
                .unwrap_or_else(|e| panic!("corpus program {} must compile: {e}", p.name))
        })
        .collect();
    Inputs { programs, reference }
}

struct Pass {
    program_us: Vec<f64>,
    seg_wall_s: [f64; SEGMENTS],
    seg_programs: [f64; SEGMENTS],
    identical: bool,
    wall_s: f64,
}

fn drive(inputs: &Inputs, rounds: usize, tracer: &mut Tracer) -> Pass {
    let n = inputs.programs.len();
    let mut pass = Pass {
        program_us: Vec::with_capacity(rounds * n),
        seg_wall_s: [0.0; SEGMENTS],
        seg_programs: [0.0; SEGMENTS],
        identical: true,
        wall_s: 0.0,
    };
    let started = Instant::now();
    tracer.enter("spine.measure", NO_OP);
    for (seg, range) in stats::segment_bounds(rounds).into_iter().enumerate() {
        let seg_start = Instant::now();
        for round in range {
            for (i, program) in inputs.programs.iter().enumerate() {
                let op = (round * n + i) as u32;
                let t = Instant::now();
                tracer.enter("lang.program", op);
                let compiled = layers::compile_pipeline(&program.source, op, tracer);
                tracer.exit();
                pass.program_us.push(t.elapsed().as_secs_f64() * 1e6);
                pass.identical &= compiled.as_ref() == Ok(&inputs.reference[i]);
                pass.seg_programs[seg] += 1.0;
            }
        }
        pass.seg_wall_s[seg] = seg_start.elapsed().as_secs_f64();
    }
    tracer.exit();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Median µs of one span name over the programs of one class (`None` =
/// the whole corpus), per program.
fn pass_us(tracer: &Tracer, inputs: &Inputs, name: &str, class: Option<SizeClass>) -> f64 {
    let n = inputs.programs.len();
    let us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.op_id != NO_OP)
        .filter(|s| class.is_none_or(|c| inputs.programs[s.op_id as usize % n].class == c))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    if us.is_empty() {
        0.0
    } else {
        stats::median(&us)
    }
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let rounds = cfg.count(ROUNDS_PER_SECOND, SEGMENTS);
    let (inputs, setup_s) = timed_setup(tracer, || setup(cfg.seed));
    out.push("setup_s", setup_s, "s");
    let mut fp = Fingerprint::default();
    for p in &inputs.programs {
        fp.update(p.source.as_bytes());
    }
    out.inputs_fp = fp.value();

    let mut quiet = Tracer::new(false);
    let pass = drive(&inputs, rounds, &mut quiet);
    let rates = stats::segment_rates(&pass.seg_programs, &pass.seg_wall_s);
    out.push_op_metrics(rates, pass.program_us.clone());
    let code_bytes: usize = inputs.reference.iter().map(|c| c.evm_runtime_bytes).sum();
    out.push("code_bytes", code_bytes as f64, "B");
    out.attempted = (rounds * inputs.programs.len()) as u64;

    // Oracles.
    out.check("every compile is byte-identical to the reference compile", pass.identical, "");
    let mut goldens = 0;
    let mut golden_ok = true;
    for fixture in &layers::LINT_FIXTURES {
        let want: Vec<&str> = fixture.expected.lines().filter(|l| !l.trim().is_empty()).collect();
        let got = layers::lint_diagnostics(fixture.source);
        let ok = got.iter().map(String::as_str).eq(want.iter().copied());
        if !ok {
            out.check(
                format!("lint fixture {} matches its .expected", fixture.name),
                false,
                got.join(" | "),
            );
        }
        golden_ok &= ok;
        goldens += 1;
    }
    out.check(
        "lint fixtures' diagnostics match their .expected files",
        golden_ok,
        format!("{goldens} fixtures"),
    );
    let top: Vec<&str> = inputs
        .programs
        .iter()
        .zip(&inputs.reference)
        .filter(|(_, c)| c.certified_gas.is_none())
        .map(|(p, _)| p.name.as_str())
        .collect();
    out.check(
        "every program's gas certificate is below the lattice top",
        top.is_empty(),
        top.join(", "),
    );
    out.failed = u64::from(!pass.identical);
    out.push("failed_share", out.failed as f64 / out.attempted.max(1) as f64, "share");
    let mut vfp = Fingerprint::default();
    for c in &inputs.reference {
        vfp.update(&c.artifact);
    }
    out.virtual_fp = vfp.value();

    if tracer.enabled() {
        let traced = drive(&inputs, rounds, tracer);
        let mut lang_ns = 0u64;
        for name in layers::PASSES {
            lang_ns += tracer.total_ns(name);
            out.layer(format!("{name}_us"), pass_us(tracer, &inputs, name, None), "us");
        }
        for class in [SizeClass::Small, SizeClass::Api4, SizeClass::Api16, SizeClass::Api64] {
            let total = pass_us(tracer, &inputs, "lang.program", Some(class));
            out.layer(format!("lang.{}.total_us", class.label()), total, "us");
        }
        for name in ["lang.verify", "lang.gas", "lang.backend"] {
            let suffix = name.trim_start_matches("lang.");
            let us = pass_us(tracer, &inputs, name, Some(SizeClass::Api64));
            out.layer(format!("lang.api64.{suffix}_us"), us, "us");
        }
        let sum = |f: fn(&Compiled) -> u64| inputs.reference.iter().map(f).sum::<u64>() as f64;
        out.layer("lang.theorems", sum(|c| c.theorems as u64), "count");
        out.layer("lang.avm_ops", sum(|c| c.avm_ops as u64), "count");
        out.layer("lang.certified_gas_sum", sum(|c| c.certified_gas.unwrap_or(0)), "gas");
        out.layer("lang.wall_share", lang_ns as f64 / 1e9 / traced.wall_s, "share");
        out.layer("spine.sum_gap_share", super::sum_gap_share(tracer, "spine.measure"), "share");
        let traced_rate = stats::segment_rates(&traced.seg_programs, &traced.seg_wall_s);
        out.layer_trace_overhead(&traced_rate);
    }
    out
}
