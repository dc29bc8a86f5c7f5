//! Interpreter cost-model measurements, written to
//! `results/interp_bench.json`.
//!
//! ```sh
//! cargo run --release -p pol-bench --bin interp_bench [-- --iters N]
//! ```
//!
//! Measures, on this host:
//!
//! * per-opcode dispatch cost for a representative set of EVM and AVM
//!   opcodes, by differencing: a program repeating the opcode `K` times
//!   is timed against an otherwise-identical empty program, and the
//!   delta divided by `K`;
//! * EVM cached vs uncached call latency on a loop-heavy contract (what
//!   the pre-decoded program cache buys per call), with the cache's hit
//!   rate and cumulative decode time over the measured calls;
//! * AVM call latency on a loop-heavy program.
//!
//! Timings are machine-dependent by nature: CI checks this file's shape
//! and the EVM cache hit rate, never the nanosecond values.

use pol_avm::{call_app, create_app, AppCallParams, AvmProgram};
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_evm::{call_contract, deploy_contract, CallParams, CodeCache};
use pol_ledger::{Address, Overlay, WorldState};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the measured opcode inside one call.
const REPS: u64 = 120;

/// A world with one deployed EVM contract.
struct EvmFixture {
    world: WorldState,
    addr: Address,
}

impl EvmFixture {
    fn deploy(runtime: &[u8]) -> EvmFixture {
        let mut world = WorldState::new();
        let cache = CodeCache::disabled();
        let (addr, writes) = {
            let mut view = Overlay::new(&world);
            let (addr, _) = deploy_contract(
                &mut view,
                Address::ZERO,
                &Asm::deploy_wrapper(runtime),
                30_000_000,
                &cache,
            )
            .expect("bench runtime deploys");
            (addr, view.into_writes())
        };
        world.apply(writes);
        EvmFixture { world, addr }
    }

    /// Mean ns per call over `iters` calls through `cache`.
    fn call_ns(&self, iters: u64, cache: &CodeCache) -> f64 {
        let params = || CallParams {
            caller: Address::ZERO,
            contract: self.addr,
            value: 0,
            data: Vec::new(),
            gas_limit: 10_000_000,
            block_number: 1,
            timestamp_s: 1,
        };
        let started = Instant::now();
        for _ in 0..iters {
            let mut view = Overlay::new(&self.world);
            black_box(
                call_contract(&mut view, params(), cache).expect("bench call succeeds").gas_used,
            );
        }
        started.elapsed().as_nanos() as f64 / iters as f64
    }
}

/// A runtime that repeats `body` `REPS` times between a fixed prolog
/// and epilog, so differencing two runtimes isolates the body cost.
fn repeated(body: impl Fn(Asm) -> Asm) -> Vec<u8> {
    let mut asm = Asm::new();
    for _ in 0..REPS {
        asm = body(asm);
    }
    asm.op(Op::Stop).build()
}

/// (name, runtime) pairs for the EVM per-opcode table. Each body leaves
/// the stack empty so `REPS` repetitions compose.
fn evm_opcode_programs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("add", repeated(|a| a.push_u64(7).push_u64(9).op(Op::Add).op(Op::Pop))),
        ("mul", repeated(|a| a.push_u64(7).push_u64(9).op(Op::Mul).op(Op::Pop))),
        ("dup_swap", repeated(|a| a.push_u64(7).dup(1).swap(1).op(Op::Pop).op(Op::Pop))),
        ("mstore", repeated(|a| a.push_u64(42).push_u64(0).op(Op::MStore))),
        ("keccak256", repeated(|a| a.push_u64(32).push_u64(0).op(Op::Keccak256).op(Op::Pop))),
        ("sstore_warm", repeated(|a| a.push_u64(1).push_u64(0).op(Op::SStore))),
    ]
}

/// Baseline runtime: prolog/epilog only.
fn evm_empty_program() -> Vec<u8> {
    Asm::new().op(Op::Stop).build()
}

/// AVM program repeating `body` `reps` times inside the 700 budget.
fn avm_repeated(reps: u64, body: &[pol_avm::opcode::AvmOp]) -> AvmProgram {
    use pol_avm::opcode::AvmOp::*;
    let mut ops = Vec::new();
    for _ in 0..reps {
        ops.extend_from_slice(body);
    }
    ops.push(PushInt(1));
    ops.push(Return);
    AvmProgram::new(ops)
}

struct AvmFixture {
    world: WorldState,
    app_id: u64,
}

impl AvmFixture {
    fn install(program: AvmProgram) -> AvmFixture {
        let mut world = WorldState::new();
        let (app_id, writes) = {
            let mut view = Overlay::new(&world);
            let app_id = create_app(&mut view, Address::ZERO, program, Vec::new())
                .expect("bench app installs");
            (app_id, view.into_writes())
        };
        world.apply(writes);
        AvmFixture { world, app_id }
    }

    fn call_ns(&self, iters: u64) -> f64 {
        let started = Instant::now();
        for _ in 0..iters {
            let mut view = Overlay::new(&self.world);
            black_box(
                call_app(&mut view, AppCallParams::new(Address::ZERO, self.app_id))
                    .expect("bench call succeeds")
                    .cost,
            );
        }
        started.elapsed().as_nanos() as f64 / iters as f64
    }
}

fn avm_opcode_programs() -> Vec<(&'static str, AvmProgram, u64)> {
    use pol_avm::opcode::AvmOp::*;
    const AVM_REPS: u64 = 100;
    vec![
        ("add", avm_repeated(AVM_REPS, &[PushInt(7), PushInt(9), Add, Pop]), AVM_REPS),
        ("store_load", avm_repeated(AVM_REPS, &[PushInt(7), Store(0), Load(0), Pop]), AVM_REPS),
        ("concat", avm_repeated(50, &[PushBytes(vec![1]), PushBytes(vec![2]), Concat, Pop]), 50),
        ("sha256", avm_repeated(15, &[PushBytes(vec![0; 32]), Sha256, Pop]), 15),
    ]
}

fn json_map(pairs: &[(&str, f64)], indent: &str) -> String {
    let body = pairs
        .iter()
        .map(|(k, v)| format!("{indent}  \"{k}\": {v:.1}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n{indent}}}")
}

fn main() {
    let iters: u64 = std::env::args()
        .skip_while(|a| a != "--iters")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    println!("=== interpreter bench ({iters} calls per measurement) ===");

    // EVM: per-opcode differencing against the empty program.
    let cache = CodeCache::new();
    let empty = EvmFixture::deploy(&evm_empty_program());
    let base_ns = empty.call_ns(iters, &cache);
    let mut evm_rows: Vec<(&str, f64)> = Vec::new();
    for (name, runtime) in evm_opcode_programs() {
        let fixture = EvmFixture::deploy(&runtime);
        let ns = (fixture.call_ns(iters, &cache) - base_ns).max(0.0) / REPS as f64;
        println!("evm/{name:<12} {ns:8.1} ns/op");
        evm_rows.push((name, ns));
    }

    // EVM: cached vs uncached call latency on a loop-heavy contract.
    let mut loop_asm = Asm::new();
    let top = loop_asm.new_label();
    loop_asm = loop_asm.push_u64(200).bind(top);
    loop_asm = loop_asm.push_u64(1).swap(1).op(Op::Sub);
    loop_asm = loop_asm.dup(1).jump_if(top);
    let loop_runtime = loop_asm.op(Op::Pop).op(Op::Stop).build();
    let loop_fixture = EvmFixture::deploy(&loop_runtime);
    let evm_cached_ns = loop_fixture.call_ns(iters, &cache);
    let evm_uncached_ns = loop_fixture.call_ns(iters, &CodeCache::disabled());
    let evm_stats = cache.stats();
    let evm_hit_rate = evm_stats.hits as f64 / (evm_stats.hits + evm_stats.misses).max(1) as f64;
    println!(
        "evm/call: cached {evm_cached_ns:.0} ns, uncached {evm_uncached_ns:.0} ns \
         (hit rate {evm_hit_rate:.3})"
    );

    // AVM: per-opcode differencing.
    let avm_empty = AvmFixture::install(avm_repeated(0, &[]));
    let avm_base_ns = avm_empty.call_ns(iters);
    let mut avm_rows: Vec<(&str, f64)> = Vec::new();
    for (name, program, reps) in avm_opcode_programs() {
        let fixture = AvmFixture::install(program);
        let ns = (fixture.call_ns(iters) - avm_base_ns).max(0.0) / reps as f64;
        println!("avm/{name:<12} {ns:8.1} ns/op");
        avm_rows.push((name, ns));
    }

    // AVM: call latency on a loop-heavy program.
    use pol_avm::opcode::AvmOp::*;
    let avm_loop = AvmProgram::new(vec![
        PushInt(0),
        Store(0),
        Label(0),
        Load(0),
        PushInt(1),
        Add,
        Store(0),
        Load(0),
        PushInt(75),
        Lt,
        Bnz(0),
        PushInt(1),
        Return,
    ]);
    let avm_call_ns = AvmFixture::install(avm_loop).call_ns(iters);
    println!("avm/call: {avm_call_ns:.0} ns");

    let json = format!(
        r#"{{
  "bench": "interp_bench",
  "iters": {iters},
  "note": "nanosecond values are host-dependent; CI checks shape and the EVM hit rate only",
  "evm": {{
    "per_opcode_ns": {evm_ops},
    "call_ns_cached": {evm_cached_ns:.1},
    "call_ns_uncached": {evm_uncached_ns:.1},
    "cache_hits": {evm_hits},
    "cache_misses": {evm_misses},
    "cache_hit_rate": {evm_hit_rate:.4},
    "decode_ns_total": {evm_decode_ns}
  }},
  "avm": {{
    "per_opcode_ns": {avm_ops},
    "call_ns": {avm_call_ns:.1}
  }}
}}
"#,
        evm_ops = json_map(&evm_rows, "    "),
        avm_ops = json_map(&avm_rows, "    "),
        evm_hits = evm_stats.hits,
        evm_misses = evm_stats.misses,
        evm_decode_ns = evm_stats.decode_ns,
    );

    let _ = std::fs::create_dir_all("results");
    let path = "results/interp_bench.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    if evm_stats.hits == 0 {
        eprintln!("FAIL: the EVM code cache never hit during the measured calls");
        std::process::exit(1);
    }
}
