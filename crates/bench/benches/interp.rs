//! Interpreter micro-benchmarks: EVM pre-decode cost, what the shared
//! code cache buys per call, what a cached call costs as the contract's
//! image grows around the same executed body, and AVM call latency.
//!
//! ```sh
//! cargo bench -p pol-bench --bench interp
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pol_avm::{call_app, create_app, AppCallParams, AvmProgram};
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_evm::{call_contract, deploy_contract, CallParams, CodeCache, EvmProgram};
use pol_ledger::{Address, Overlay, WorldState};
use std::hint::black_box;

/// A runtime that loops `iters` times over cheap arithmetic — enough
/// dispatches per call that decode cost is visible beside execution.
fn loop_runtime(iters: u64) -> Vec<u8> {
    let mut asm = Asm::new();
    let top = asm.new_label();
    // counter on the stack; loop: counter -= 1; jumpi top while != 0
    asm = asm.push_u64(iters).bind(top);
    asm = asm.push_u64(1).swap(1).op(Op::Sub);
    asm = asm.dup(1).jump_if(top);
    asm.op(Op::Pop).op(Op::Stop).build()
}

/// Deploys `runtime` into a fresh world, returning the world and the
/// contract address — the base every measured call overlays.
fn deployed_world(runtime: &[u8]) -> (WorldState, Address) {
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
    (world, addr)
}

fn call_params(addr: Address) -> CallParams {
    CallParams {
        caller: Address::ZERO,
        contract: addr,
        value: 0,
        data: Vec::new(),
        gas_limit: 10_000_000,
        block_number: 1,
        timestamp_s: 1,
    }
}

fn evm_benches(c: &mut Criterion) {
    let runtime = loop_runtime(200);
    let (world, addr) = deployed_world(&runtime);

    let mut group = c.benchmark_group("interp/evm");
    group.throughput(Throughput::Bytes(runtime.len() as u64));
    group.bench_function("decode", |b| b.iter(|| EvmProgram::decode(black_box(runtime.clone()))));
    group.finish();

    bench_call(c, "interp/evm/call-cached", &world, addr, &CodeCache::new());
    bench_call(c, "interp/evm/call-uncached", &world, addr, &CodeCache::disabled());

    // The same eight-iteration body in images of growing size (4,805
    // bytes is the PoL contract's runtime): a call should cost what it
    // executes, so the three read alike.
    for size in [64usize, 1024, 4805] {
        let mut image = loop_runtime(8);
        image.resize(size, Op::Stop as u8);
        let (world, addr) = deployed_world(&image);
        let id = format!("interp/evm/call-cached/{size}");
        bench_call(c, &id, &world, addr, &CodeCache::new());
    }
}

/// Times one call of `addr` per iteration, each on a fresh overlay.
fn bench_call(c: &mut Criterion, id: &str, world: &WorldState, addr: Address, cache: &CodeCache) {
    c.bench_function(id, |b| {
        b.iter(|| {
            let mut view = Overlay::new(world);
            call_contract(&mut view, call_params(addr), cache)
                .expect("bench call succeeds")
                .gas_used
        })
    });
}

/// A loop that stays inside the 700-unit budget while dispatching a few
/// hundred ops per call.
fn avm_loop_program() -> AvmProgram {
    use pol_avm::opcode::AvmOp::*;
    AvmProgram::new(vec![
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
    ])
}

fn avm_benches(c: &mut Criterion) {
    let mut world = WorldState::new();
    let writes = {
        let mut view = Overlay::new(&world);
        create_app(&mut view, Address::ZERO, avm_loop_program(), Vec::new())
            .expect("bench app installs");
        view.into_writes()
    };
    world.apply(writes);

    c.bench_function("interp/avm/call", |b| {
        b.iter(|| {
            let mut view = Overlay::new(&world);
            call_app(&mut view, AppCallParams::new(Address::ZERO, 1))
                .expect("bench call succeeds")
                .cost
        })
    });
}

criterion_group!(benches, evm_benches, avm_benches);
criterion_main!(benches);
