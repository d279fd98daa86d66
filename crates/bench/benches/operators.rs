//! Criterion micro-benchmarks of the HetExchange building blocks.
//!
//! These measure the *wall-clock* performance of the reproduction's own
//! components (routing throughput, the pack terminal, join-table probes, hash
//! join pipelines, DMA scheduling, the simulated GPU), complementing the
//! figure harnesses, which report *simulated* times on the modeled server.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hetex_common::{Block, BlockHandle, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
use hetex_core::plan::RouterPolicy;
use hetex_core::router::{ConsumerSlot, Router};
use hetex_gpu_sim::device::standalone_gpu;
use hetex_gpu_sim::LaunchConfig;
use hetex_jit::state::{JoinHashTable, JoinMatches};
use hetex_jit::{
    AggSpec, CompiledPipeline, ExecCtx, Expr, SharedState, Step, TerminalStep, VEC_CHUNK,
};
use hetex_topology::{Affinity, DeviceId, DeviceKind, DmaEngine, ServerTopology, SimTime};
use std::sync::Arc;

fn block_of(rows: usize) -> BlockHandle {
    let a: Vec<i64> = (0..rows as i64).map(|i| i % 1000).collect();
    let b: Vec<i64> = (0..rows as i64).collect();
    let block = Block::new(vec![ColumnData::Int64(a), ColumnData::Int64(b)], rows).unwrap();
    BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)))
}

fn bench_router(c: &mut Criterion) {
    let slots: Vec<ConsumerSlot> = (0..26)
        .map(|i| ConsumerSlot {
            kind: DeviceKind::CpuCore,
            affinity: Affinity::cpu(DeviceId::new(i)),
        })
        .collect();
    let router = Router::new(RouterPolicy::LeastLoaded, &slots).unwrap();
    let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
    let loads: Vec<u64> = (0..26).map(|i| (i as u64) * 1000).collect();
    let mut group = c.benchmark_group("router");
    group.throughput(Throughput::Elements(1));
    group.bench_function("least_loaded_route", |b| {
        b.iter(|| router.route(std::hint::black_box(&meta), std::hint::black_box(&loads)))
    });
    group.finish();
}

/// The production pack: a `TerminalStep::Pack` pipeline run through
/// `CompiledPipeline::process_block` on a fresh instance, then finalized, over
/// 64k tuples of three `Int32` columns into 4096-tuple blocks. Divide the
/// mean by the tuple count for ns/tuple.
fn bench_pack(c: &mut Criterion) {
    let rows = 64 * 1024;
    let column = |f: fn(i32) -> i32| ColumnData::Int32((0..rows as i32).map(f).collect());
    let block = Block::new(vec![column(|i| i), column(|i| i * 2), column(|i| i % 1000)], rows);
    let handle =
        BlockHandle::new(block.unwrap(), BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0)));
    let state = SharedState::new();
    let mut group = c.benchmark_group("pack");
    group.throughput(Throughput::Elements(rows as u64));
    group.sample_size(30);
    let pipeline = CompiledPipeline::new(
        PipelineId::new(3),
        DeviceKind::CpuCore,
        3,
        Vec::new(),
        TerminalStep::Pack { exprs: vec![Expr::col(0), Expr::col(1), Expr::col(2)] },
    )
    .unwrap();
    group.bench_function("pack_64k_tuples", |b| {
        b.iter(|| {
            let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 4096);
            let mut blocks = pipeline.process_block(&handle, &state, &mut ctx).unwrap().blocks;
            blocks.extend(pipeline.finalize_instance(&state, &mut ctx).unwrap().blocks);
            blocks
        })
    });
    group.finish();
}

/// `probe_batch` over 64k random keys in `VEC_CHUNK`-key chunks, one read
/// guard per chunk as the chunk kernel takes it, for each index a join
/// table's seal builds: a `direct` key index, or a `hashed` one. (A table
/// never sealed is indexed the same way by its first read.) A table holds every even key of a span of 1k, 20k or 500k, so
/// about half the probes hit, each key once (`unique`) or three times
/// (`chains3`). The hashed tables hold the same keys times a large odd
/// stride, which puts their span past any direct index without changing
/// their key count, hit rate or chains. Divide the mean by 65,536 for
/// ns/probe.
fn bench_probe(c: &mut Criterion) {
    const PROBES: usize = 64 * 1024;
    let mut group = c.benchmark_group("probe");
    group.throughput(Throughput::Elements(PROBES as u64));
    group.sample_size(30);
    for (span_label, span) in [("1k", 1_000i64), ("20k", 20_000), ("500k", 500_000)] {
        let even: Vec<i64> = (0..span / 2).map(|i| 2 * i).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let probes: Vec<i64> = (0..PROBES)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) % span as u64) as i64
            })
            .collect();
        for (chain_label, copies) in [("unique", 1), ("chains3", 3)] {
            for (kind, stride) in [("direct", 1), ("hashed", 1_000_003)] {
                let keys: Vec<i64> = even.iter().map(|&k| k * stride).collect();
                let table = JoinHashTable::new(1);
                for _ in 0..copies {
                    table.insert_batch(&keys, std::slice::from_ref(&keys));
                }
                table.seal();
                assert_eq!(table.is_direct(), kind == "direct", "{kind} table, span {span}");
                let probes: Vec<i64> = probes.iter().map(|&k| k * stride).collect();
                let mut matches = JoinMatches::default();
                group.bench_function(&format!("{kind}_{chain_label}_span_{span_label}"), |b| {
                    b.iter(|| {
                        let mut found = 0;
                        for chunk in probes.chunks(VEC_CHUNK) {
                            table.read().probe_batch(chunk, &mut matches);
                            found += matches.rows.len();
                        }
                        found
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_pipelines(c: &mut Criterion) {
    let mut state = SharedState::new();
    let ht = state.add_hash_table(1);
    for k in 0..1_000 {
        state.hash_table(ht).unwrap().insert(k, vec![k * 10]);
    }
    let acc = state.add_accumulators(&[AggSpec::sum(Expr::col(2)), AggSpec::count()]);

    let cpu_pipeline = CompiledPipeline::new(
        PipelineId::new(1),
        DeviceKind::CpuCore,
        2,
        vec![
            Step::Filter { predicate: Expr::col(0).gt_lit(10) },
            Step::HashJoinProbe { key: Expr::col(0), slot: ht, payload_width: 1 },
        ],
        TerminalStep::Reduce {
            aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count()],
            slot: acc,
        },
    )
    .unwrap();
    let gpu_pipeline = CompiledPipeline::new(
        PipelineId::new(2),
        DeviceKind::Gpu,
        2,
        cpu_pipeline.steps().to_vec(),
        cpu_pipeline.terminal().clone(),
    )
    .unwrap();

    let handle = block_of(64 * 1024);
    let mut group = c.benchmark_group("compiled_pipeline");
    group.throughput(Throughput::Elements(handle.rows() as u64));
    group.bench_function("cpu_filter_probe_reduce_64k", |b| {
        let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 1024);
        b.iter(|| cpu_pipeline.process_block(&handle, &state, &mut ctx).unwrap())
    });
    group.bench_function("gpu_filter_probe_reduce_64k", |b| {
        let gpu = Arc::new(standalone_gpu());
        let mut ctx = ExecCtx::gpu(gpu, 1024);
        ctx.launch_config = LaunchConfig::new(16, 128);
        b.iter(|| gpu_pipeline.process_block(&handle, &state, &mut ctx).unwrap())
    });
    group.finish();
}

fn bench_dma(c: &mut Criterion) {
    let topology = ServerTopology::paper_server();
    let dma = DmaEngine::new(topology);
    let mut group = c.benchmark_group("dma");
    group.bench_function("schedule_pcie_transfer", |b| {
        b.iter(|| {
            dma.schedule(
                std::hint::black_box(1 << 20) as f64,
                MemoryNodeId::new(0),
                MemoryNodeId::new(2),
                SimTime::ZERO,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_gpu_sim(c: &mut Criterion) {
    let gpu = standalone_gpu();
    let data: Vec<i64> = (0..256 * 1024).collect();
    let mut group = c.benchmark_group("gpu_sim");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("grid_stride_sum_256k", |b| {
        b.iter(|| {
            let acc = hetex_gpu_sim::DeviceAtomicI64::new(0);
            gpu.launch(LaunchConfig::new(16, 128), |t| {
                let mut local = 0;
                for i in t.grid_stride(data.len()) {
                    local += data[i];
                }
                acc.fetch_add(local);
            });
            acc.load()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_router,
    bench_pack,
    bench_probe,
    bench_pipelines,
    bench_dma,
    bench_gpu_sim
);
criterion_main!(benches);
