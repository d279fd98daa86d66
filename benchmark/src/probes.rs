//! Single-thread micro-probes of the crates' public functions: the unit
//! costs behind the per-layer metrics. Each probe is the median over
//! [`Probes::batches`] timed batches (after one untimed batch), carries its
//! sample count, and sits inside one trace span. Probe inputs are fixed, not
//! workload data, so a probe's number is comparable across workloads.

use crate::load::{splitmix64, SERVE_STREAMS};
use crate::run::{Measured, Metrics};
use crate::stats::median;
use crate::trace::Tracer;
use hetex_common::{
    Block, BlockHandle, BlockId, BlockMeta, ColumnData, DataType, EngineConfig, MemoryNodeId,
    PipelineId, ReoptConfig, Result,
};
use hetex_core::plan::RouterPolicy;
use hetex_core::reopt::{reoptimize, PlanFeedback, StageObservation};
use hetex_core::router::{ConsumerSlot, LoadEstimator, Router};
use hetex_core::{BlockQueue, CostModel, FairTimeline, Packer, ServeSession, Unpacker};
use hetex_gpu_sim::device::standalone_gpu;
use hetex_gpu_sim::{DeviceAtomicI64, LaunchConfig};
use hetex_jit::{AggSpec, CompiledPipeline, ExecCtx, Expr, SharedState, Step, TerminalStep};
use hetex_ssb::SsbGenerator;
use hetex_storage::{BlockManager, Catalog, ExhaustionPolicy, TableBuilder};
use hetex_topology::{
    Affinity, DeviceId, DeviceKind, DeviceProfile, DmaEngine, ServerTopology, SimTime,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the block every kernel probe processes (4k when `quick`).
const BLOCK_ROWS: usize = 64 * 1024;

/// Consumers of the routing probes: the paper server's 24 cores + 2 GPUs.
const CONSUMERS: usize = 26;

fn block_of(columns: Vec<Vec<i64>>) -> Result<BlockHandle> {
    let rows = columns[0].len();
    let block = Block::new(columns.into_iter().map(ColumnData::Int64).collect(), rows)?;
    Ok(BlockHandle::new(block, BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0))))
}

/// One kernel probe's two clocks, per input tuple.
#[derive(Clone, Copy)]
struct KernelCost {
    host_ns: f64,
    sim_ns: f64,
}

pub struct Probes<'a> {
    pub tracer: &'a mut Tracer,
    /// Timed batches behind every median.
    pub batches: usize,
    /// Shrinks the large inputs (unit tests).
    pub quick: bool,
    pub out: Metrics,
}

impl Probes<'_> {
    /// Median nanoseconds per unit over the timed batches of `batch`, which
    /// returns the units it processed and the time that counts.
    fn ns_per_unit(
        &mut self,
        span: &'static str,
        mut batch: impl FnMut() -> Result<(usize, Duration)>,
    ) -> Result<f64> {
        let id = self.tracer.begin(span, None);
        batch()?;
        let mut samples = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let (units, elapsed) = batch()?;
            samples.push(elapsed.as_nanos() as f64 / units.max(1) as f64);
        }
        self.tracer.end(id);
        Ok(median(&samples))
    }

    /// Median nanoseconds per call of `call`, timed `calls` at a time.
    fn ns_per_call(
        &mut self,
        span: &'static str,
        calls: usize,
        mut call: impl FnMut() -> Result<()>,
    ) -> Result<f64> {
        self.ns_per_unit(span, || {
            let start = Instant::now();
            for _ in 0..calls {
                call()?;
            }
            Ok((calls, start.elapsed()))
        })
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, Measured { value, n: self.batches, note: String::new() });
    }

    /// Run every probe.
    pub fn run(&mut self) -> Result<()> {
        self.setup_layers()?;
        self.staging_layers()?;
        self.routing()?;
        self.queues()?;
        self.pack()?;
        self.serving()?;
        self.kernels()?;
        self.gpu_sim()
    }

    /// What set-up is made of: generate, build + register, probe.
    fn setup_layers(&mut self) -> Result<()> {
        let topology = ServerTopology::paper_server();
        let nodes = topology.cpu_memory_nodes();
        let generator = SsbGenerator::new(if self.quick { 0.001 } else { 0.1 });
        let ns = self.ns_per_call("probe.ssb_generate", 1, || {
            black_box(generator.generate(&nodes)?);
            Ok(())
        })?;
        self.put("ssb.generate_s", ns / 1e9);

        let rows = if self.quick { 10_000 } else { 1_000_000 };
        let ns = self.ns_per_unit("probe.storage_register", || {
            let a = ColumnData::Int32((0..rows as i32).collect());
            let b = ColumnData::Int64((0..rows as i64).collect());
            let start = Instant::now();
            let table = TableBuilder::new("t")
                .column("a", DataType::Int32, a)
                .column("b", DataType::Int64, b)
                .build(&nodes, rows / 8)?;
            black_box(Catalog::new().register(table));
            Ok((1, start.elapsed()))
        })?;
        self.put("storage.register_ms", ns / 1e6);

        let ns = self.ns_per_call("probe.topology_probe", 1, || {
            black_box(hetex_topology::probe::probe(&topology));
            Ok(())
        })?;
        self.put("topology.probe_ms", ns / 1e6);
        Ok(())
    }

    /// Lease cycle (alone and against a second thread) and DMA scheduling.
    fn staging_layers(&mut self) -> Result<()> {
        const CYCLES: usize = 1_000;
        let manager = BlockManager::new(MemoryNodeId::new(0), 64 << 20);
        let cycle = || -> Result<()> {
            manager.acquire_local(64 * 1024, ExhaustionPolicy::Error)?.release();
            Ok(())
        };
        let ns = self.ns_per_call("probe.lease_cycle", CYCLES, cycle)?;
        self.put("storage.lease_cycle_ns", ns);

        let stop = AtomicBool::new(false);
        let ns = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    // The arena is 1000x one lease: acquisition cannot fail.
                    let _ = cycle();
                }
            });
            let ns = self.ns_per_call("probe.lease_cycle_contended", CYCLES, cycle);
            stop.store(true, Ordering::SeqCst);
            ns
        })?;
        self.put("storage.lease_cycle_contended_ns", ns);

        let dma = DmaEngine::new(ServerTopology::paper_server().with_private_clocks());
        let (from, to) = (MemoryNodeId::new(0), MemoryNodeId::new(2));
        let ns = self.ns_per_call("probe.dma_schedule", CYCLES, || {
            black_box(dma.schedule(black_box((1 << 20) as f64), from, to, SimTime::ZERO)?);
            Ok(())
        })?;
        self.put("topology.dma_schedule_ns", ns);
        Ok(())
    }

    /// The per-block routing decision: route, project loads, compose.
    fn routing(&mut self) -> Result<()> {
        const CALLS: usize = 1_000;
        let slots: Vec<ConsumerSlot> = (0..CONSUMERS)
            .map(|i| ConsumerSlot {
                kind: DeviceKind::CpuCore,
                affinity: Affinity::cpu(DeviceId::new(i)),
            })
            .collect();
        let router = Router::new(RouterPolicy::LeastLoaded, &slots)?;
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let loads: Vec<u64> = (0..CONSUMERS as u64).map(|i| i * 1_000).collect();
        let ns = self.ns_per_call("probe.route", CALLS, || {
            black_box(router.route(black_box(&meta), black_box(&loads))?);
            Ok(())
        })?;
        self.put("core.route_ns", ns);

        let estimator = LoadEstimator::new(CONSUMERS);
        for (i, load) in loads.iter().enumerate() {
            estimator.commit(i, *load);
        }
        let penalties = vec![0u64; CONSUMERS];
        let slowdowns = vec![1.25f64; CONSUMERS];
        let ns = self.ns_per_call("probe.load_project", CALLS, || {
            let costs = black_box(&loads);
            black_box(estimator.projected_with_feedback(costs, &penalties, 500, &slowdowns));
            Ok(())
        })?;
        self.put("core.load_project_ns", ns);

        let cost = CostModel::default();
        let ns = self.ns_per_call("probe.cost_compose", 10 * CALLS, || {
            black_box(cost.compose_projection(black_box(40_000), black_box(35_000), false, true));
            Ok(())
        })?;
        self.put("core.cost_compose_ns", ns);
        Ok(())
    }

    /// Queue hand-off, steal and byte admission, 16 handles at a time.
    fn queues(&mut self) -> Result<()> {
        const DEPTH: usize = 16;
        const ROUNDS: usize = 64;
        let handle = block_of(vec![vec![0; 16]])?;
        let queue = BlockQueue::bounded(1, DEPTH);
        let fill = || (0..DEPTH).try_for_each(|_| queue.push(handle.clone()));
        let ns = self.ns_per_call("probe.queue_push_pop", ROUNDS, || {
            fill()?;
            for _ in 0..DEPTH {
                black_box(queue.pop());
            }
            Ok(())
        })?;
        self.put("core.queue_push_pop_ns", ns / DEPTH as f64);

        let ns = self.ns_per_unit("probe.queue_steal", || {
            let mut stealing = Duration::ZERO;
            for _ in 0..ROUNDS {
                fill()?;
                let start = Instant::now();
                for _ in 0..DEPTH {
                    black_box(queue.steal());
                }
                stealing += start.elapsed();
            }
            Ok((ROUNDS * DEPTH, stealing))
        })?;
        self.put("core.queue_steal_ns", ns);

        let governed = BlockQueue::bounded(1, DEPTH).with_byte_quota(1 << 20);
        let ns = self.ns_per_call("probe.queue_admit", ROUNDS * DEPTH, || {
            black_box(governed.admit(4_096)?);
            Ok(())
        })?;
        self.put("core.queue_admit_ns", ns);
        Ok(())
    }

    /// Row-major pack and unpack of 10k three-column tuples.
    fn pack(&mut self) -> Result<()> {
        const TUPLES: i64 = 10_000;
        let rows: Vec<Vec<i64>> = (0..TUPLES).map(|i| vec![i, i * 2, i * 3]).collect();
        let ns = self.ns_per_unit("probe.pack", || {
            let rows = rows.clone();
            let start = Instant::now();
            let mut packer = Packer::new(1_024, MemoryNodeId::new(0));
            let mut blocks = Vec::new();
            for row in rows {
                blocks.extend(packer.push(row)?);
            }
            blocks.extend(packer.flush()?);
            black_box(blocks);
            Ok((TUPLES as usize, start.elapsed()))
        })?;
        self.put("core.pack_ns_per_tuple", ns);

        let handle = block_of(vec![
            (0..TUPLES).collect(),
            (0..TUPLES).map(|i| i * 2).collect(),
            (0..TUPLES).map(|i| i * 3).collect(),
        ])?;
        let ns = self.ns_per_call("probe.unpack", 1, || {
            black_box(Unpacker::rows(black_box(&handle)).map(|r| r[0]).sum::<i64>());
            Ok(())
        })?;
        self.put("core.unpack_ns_per_tuple", ns / TUPLES as f64);
        Ok(())
    }

    /// The serving layer's post-hoc replay (52 sessions) and the reoptimizer.
    fn serving(&mut self) -> Result<()> {
        const FOOTPRINT: u64 = 64 << 20;
        let sessions: Vec<ServeSession> = (0..52u64)
            .map(|i| {
                let isolated_ns = 100_000_000 + i * 7_000_000;
                ServeSession {
                    isolated: SimTime(isolated_ns),
                    busy_ns: vec![isolated_ns * 4, isolated_ns / 2],
                    priority: SERVE_STREAMS[i as usize % SERVE_STREAMS.len()],
                    footprint_bytes: FOOTPRINT,
                }
            })
            .collect();
        let timeline = FairTimeline::new(vec![24.0, 2.0], 2 * FOOTPRINT, 2, CostModel::default());
        let ns = self.ns_per_call("probe.fair_replay", 1, || {
            black_box(timeline.replay(&sessions)?);
            Ok(())
        })?;
        self.put("core.fair_replay_ms", ns / 1e6);

        let topology = ServerTopology::paper_server();
        let mut config = EngineConfig::hybrid(24, 2);
        config.reopt = ReoptConfig::enabled();
        let stage = |rows_in, rows_out, completion_ns| StageObservation {
            rows_in,
            rows_out,
            completion_ns,
        };
        let feedback = PlanFeedback {
            fingerprint: 1,
            target: config.target,
            cpu_dop: config.cpu_dop,
            gpu_dop: config.gpu_dop,
            sim_time_ns: 1e9,
            observed_slowdowns: vec![1.0; topology.devices().len()],
            stages: vec![
                stage(30_000, 3_000, 200_000_000),
                stage(6_000_000, 90_000, 1_000_000_000),
            ],
            remote_control_acquisitions: 4_000,
            bytes_transferred: 2e9,
            runs: 1,
        };
        let cost = CostModel::from_config(&config);
        let ns = self.ns_per_call("probe.reoptimize", 1, || {
            black_box(reoptimize(&config, black_box(&feedback), &topology, &cost));
            Ok(())
        })?;
        self.put("core.reoptimize_us", ns / 1e3);
        Ok(())
    }

    /// One kernel shape over the 64k-row block: host and simulated ns per
    /// input tuple. `remake` rebuilds the shared state before every batch
    /// (a hash build would otherwise grow its chains batch by batch).
    #[allow(clippy::too_many_arguments)]
    fn kernel(
        &mut self,
        span: &'static str,
        device: DeviceKind,
        steps: Vec<Step>,
        terminal: TerminalStep,
        block: &BlockHandle,
        mut state: SharedState,
        remake: Option<&dyn Fn() -> SharedState>,
    ) -> Result<KernelCost> {
        let width = block.block().width();
        let pipeline = CompiledPipeline::new(PipelineId::new(1), device, width, steps, terminal)?;
        let mut ctx = match device {
            DeviceKind::CpuCore => ExecCtx::cpu(MemoryNodeId::new(0), 1_024),
            DeviceKind::Gpu => {
                let mut ctx = ExecCtx::gpu(Arc::new(standalone_gpu()), 1_024);
                ctx.launch_config = LaunchConfig::new(16, 128);
                ctx
            }
        };
        let core = DeviceProfile::paper_cpu_core(0, MemoryNodeId::new(0));
        let model = hetex_topology::CostModel::new();
        let mut sim_ns = 0.0;
        let host_ns = self.ns_per_unit(span, || {
            if let Some(remake) = remake {
                state = remake();
            }
            let start = Instant::now();
            let output = pipeline.process_block(block, &state, &mut ctx)?;
            let elapsed = start.elapsed();
            sim_ns = model.time_ns(&output.work, &core) as f64 / block.rows() as f64;
            black_box(output);
            Ok((block.rows(), elapsed))
        })?;
        Ok(KernelCost { host_ns, sim_ns })
    }

    /// `CompiledPipeline::process_block` in the default kernel mode, shape by
    /// shape, and the gap between the two clocks' relative costs.
    fn kernels(&mut self) -> Result<()> {
        let large_keys: i64 = if self.quick { 10_000 } else { 1_000_000 };
        let mut rng = 7;
        // Columns: 0 = i % 1000, 1 = i, 2 = i % 64, 3 = uniform in 64k,
        // 4 = uniform in the large build's key range.
        let n = if self.quick { 4 * 1024 } else { BLOCK_ROWS as i64 };
        let block = block_of(vec![
            (0..n).map(|i| i % 1_000).collect(),
            (0..n).collect(),
            (0..n).map(|i| i % 64).collect(),
            (0..n).map(|_| (splitmix64(&mut rng) % (64 * 1024)) as i64).collect(),
            (0..n).map(|_| (splitmix64(&mut rng) % large_keys as u64) as i64).collect(),
        ])?;
        let cpu = DeviceKind::CpuCore;
        let mtps = |cost: KernelCost| 1e3 / cost.host_ns;
        let aggs = |col| vec![AggSpec::sum(Expr::col(col)), AggSpec::count()];
        // SUM(col), COUNT(*) into accumulators registered in `state`.
        let reduce = |state: &mut SharedState, col| {
            let slot = state.add_accumulators(&aggs(col));
            TerminalStep::Reduce { aggs: aggs(col), slot }
        };
        // A probe of the first `keys` integers on column `key_col`, whose
        // payload lands in column 5.
        let probe = |state: &mut SharedState, keys: i64, key_col| -> Result<Step> {
            let slot = state.add_hash_table(1);
            let table = state.hash_table(slot)?;
            for k in 0..keys {
                table.insert(k, vec![k * 10]);
            }
            Ok(Step::HashJoinProbe { key: Expr::col(key_col), slot, payload_width: 1 })
        };

        let mut costs = Vec::new();
        for (span, keep) in
            [("probe.filter_sel01", 10), ("probe.filter_sel50", 500), ("probe.filter_sel90", 900)]
        {
            let mut state = SharedState::new();
            let terminal = reduce(&mut state, 1);
            let steps = vec![Step::Filter { predicate: Expr::col(0).lt_lit(keep) }];
            costs.push(self.kernel(span, cpu, steps, terminal, &block, state, None)?);
        }
        let (sel01, sel50, sel90) = (costs[0], costs[1], costs[2]);
        self.put("jit.filter_sel01_mtps", mtps(sel01));
        self.put("jit.filter_sel50_mtps", mtps(sel50));
        self.put("jit.filter_sel90_mtps", mtps(sel90));

        let mut state = SharedState::new();
        let terminal = reduce(&mut state, 1);
        let plain = self.kernel("probe.reduce", cpu, Vec::new(), terminal, &block, state, None)?;
        self.put("jit.reduce_mtps", mtps(plain));

        let empty_table = || {
            let mut state = SharedState::new();
            state.add_hash_table(1);
            state
        };
        let mut state = SharedState::new();
        let slot = state.add_hash_table(1);
        let terminal =
            TerminalStep::HashJoinBuild { key: Expr::col(1), payload: vec![Expr::col(0)], slot };
        let built = self.kernel(
            "probe.build",
            cpu,
            Vec::new(),
            terminal,
            &block,
            state,
            Some(&empty_table),
        )?;
        self.put("jit.build_mtps", mtps(built));

        let mut probed = Vec::new();
        for (span, keys, key_col) in
            [("probe.probe_small", 1_000, 0), ("probe.probe_large", large_keys, 4)]
        {
            let mut state = SharedState::new();
            let steps = vec![probe(&mut state, keys, key_col)?];
            let terminal = reduce(&mut state, 5);
            probed.push(self.kernel(span, cpu, steps, terminal, &block, state, None)?);
        }
        let (small, large) = (probed[0], probed[1]);
        self.put("jit.probe_small_mtps", mtps(small));
        self.put("jit.probe_large_mtps", mtps(large));

        let mut grouped = Vec::new();
        for (span, key_col) in [("probe.groupby_64", 2), ("probe.groupby_64k", 3)] {
            let mut state = SharedState::new();
            let slot = state.add_group_by(&aggs(1));
            let terminal =
                TerminalStep::GroupBy { keys: vec![Expr::col(key_col)], aggs: aggs(1), slot };
            grouped.push(self.kernel(span, cpu, Vec::new(), terminal, &block, state, None)?);
        }
        let (g64, g64k) = (grouped[0], grouped[1]);
        self.put("jit.groupby_64_mtps", mtps(g64));
        self.put("jit.groupby_64k_mtps", mtps(g64k));

        let mut state = SharedState::new();
        let steps =
            vec![Step::Filter { predicate: Expr::col(0).gt_lit(10) }, probe(&mut state, 1_000, 0)?];
        let terminal = reduce(&mut state, 5);
        let gpu = self.kernel(
            "probe.gpu_filter_probe_reduce",
            DeviceKind::Gpu,
            steps,
            terminal,
            &block,
            state,
            None,
        )?;
        self.put("jit.gpu_filter_probe_reduce_mtps", mtps(gpu));

        // Two-clock gap: how far the host's cost of a shape relative to
        // `filter_sel50` is from the cost model's. Reported as max(r, 1/r),
        // so 1.0 is agreement and lower is better; the note keeps r itself
        // (r > 1: the host finds the shape dearer than the model prices it).
        for (name, cost) in [
            ("jit.model_gap_filter_sel01", sel01),
            ("jit.model_gap_probe_small", small),
            ("jit.model_gap_probe_large", large),
            ("jit.model_gap_groupby_64k", g64k),
        ] {
            let r = (cost.host_ns / sel50.host_ns) / (cost.sim_ns / sel50.sim_ns);
            let note = format!("host/model relative cost r = {r:.3}");
            self.out.insert(name, Measured { value: r.max(1.0 / r), n: self.batches, note });
        }
        Ok(())
    }

    /// The GPU simulator alone: an empty launch and a grid-stride sum.
    fn gpu_sim(&mut self) -> Result<()> {
        let gpu = standalone_gpu();
        let config = LaunchConfig::new(16, 128);
        let ns = self.ns_per_call("probe.gpu_launch", 10, || {
            black_box(gpu.launch(config, |_| {}));
            Ok(())
        })?;
        self.put("gpusim.launch_us", ns / 1e3);

        let data: Vec<i64> = (0..256 * 1024).collect();
        let ns = self.ns_per_call("probe.gpu_grid_stride_sum", 1, || {
            let acc = DeviceAtomicI64::new(0);
            gpu.launch(config, |t| {
                let mut local = 0;
                for i in t.grid_stride(data.len()) {
                    local += data[i];
                }
                acc.fetch_add(local);
            });
            black_box(acc.load());
            Ok(())
        })?;
        self.put("gpusim.grid_stride_sum_mtps", 1e3 * data.len() as f64 / ns);
        Ok(())
    }
}
