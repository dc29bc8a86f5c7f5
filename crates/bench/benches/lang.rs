//! Compiler-pipeline benchmarks and the factory ablation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pol_core::contract::{pol_program, POL_SOURCE};
use pol_core::factory::Factory;
use pol_lang::backend::AbiValue;
use pol_lang::{access, analyze, backend, check, gas, verify};
use std::hint::black_box;

fn pipeline(c: &mut Criterion) {
    let program = pol_program();
    c.bench_function("lang/check", |b| b.iter(|| check::check(black_box(&program))));
    c.bench_function("lang/verify", |b| b.iter(|| verify::verify(black_box(&program))));
    c.bench_function("lang/analyze", |b| b.iter(|| analyze::analyze(black_box(&program)).unwrap()));
    c.bench_function("lang/compile-both-backends", |b| {
        b.iter(|| backend::compile(black_box(&program)).unwrap())
    });
}

/// A contract of `apis` APIs over `apis / 8` maps in the shape of the
/// spine's `compile-corpus` synthetics: one deleting API per map, the
/// rest cycling through its four bodies (map write, guarded subtraction,
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

/// The lexer and parser, the access summaries and the gas certificates
/// — the passes `compile-corpus` runs besides those above — on the
/// paper's contract and on the 64-API synthetic.
fn passes(c: &mut Criterion) {
    let api64 = synthetic(64);
    for (label, source) in [("pol-v1", POL_SOURCE), ("api64", api64.as_str())] {
        let program = pol_lang::parse(source).expect("contract parses");
        c.bench_function(format!("lang/parse/{label}"), |b| {
            b.iter(|| pol_lang::parse(black_box(source)).unwrap())
        });
        c.bench_function(format!("lang/summarize/{label}"), |b| {
            b.iter(|| access::summarize(black_box(&program)))
        });
        c.bench_function(format!("lang/certify/{label}"), |b| {
            b.iter(|| gas::certify(black_box(&program)).unwrap())
        });
    }
}

/// The size sweep: the back half of the pipeline over 4 to 256 APIs,
/// with the per-API rate beside each timing so superlinear growth reads
/// as a falling rate.
fn size_sweep(c: &mut Criterion) {
    let programs: Vec<_> = [4usize, 16, 64, 256]
        .into_iter()
        .map(|apis| (apis, pol_lang::parse(&synthetic(apis)).expect("synthetic contract parses")))
        .collect();
    let mut group = c.benchmark_group("lang/compile-apis");
    for (apis, program) in &programs {
        group.throughput(Throughput::Elements(*apis as u64));
        group.bench_function(apis.to_string(), |b| {
            b.iter(|| backend::compile(black_box(program)).unwrap())
        });
    }
    group.finish();
    let mut group = c.benchmark_group("lang/analyze-apis");
    for (apis, program) in &programs {
        group.throughput(Throughput::Elements(*apis as u64));
        group.bench_function(apis.to_string(), |b| {
            b.iter(|| analyze::analyze(black_box(program)).unwrap())
        });
    }
    group.finish();
}

fn factory_ablation(c: &mut Criterion) {
    // Factory pattern vs. naive per-area compilation: the factory
    // compiles (and verifies) the template once and stamps instances;
    // without it every deployment repeats the whole pipeline.
    let mut group = c.benchmark_group("factory-ablation");
    let args = vec![
        AbiValue::Word(1),
        AbiValue::Bytes(b"8FPHF8VV+X2".to_vec()),
        AbiValue::Word(4),
        AbiValue::Word(1_000),
    ];
    group.bench_function("with-factory", |b| {
        let factory = Factory::new(pol_program()).unwrap();
        b.iter(|| factory.evm_init_code(black_box(&args)).unwrap())
    });
    group.bench_function("naive-per-area", |b| {
        b.iter(|| {
            let factory = Factory::new(pol_program()).unwrap();
            factory.evm_init_code(black_box(&args)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, pipeline, passes, size_sweep, factory_ablation);
criterion_main!(benches);
