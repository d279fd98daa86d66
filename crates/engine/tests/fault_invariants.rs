//! Chaos invariants of the fault-tolerance ladder: random queries under
//! random injected fault schedules must either produce byte-identical rows
//! (with zero leaked staging bytes and bounded simulated time) or fail with
//! a clean, structured error — never wrong rows, never a hang, never a
//! leaked lease.
//!
//! The case count and seed come from the environment so CI can randomize
//! while every failure stays reproducible:
//!
//! * `HETEX_CHAOS_SEED`  — base seed (decimal or 0x-hex; default fixed)
//! * `HETEX_CHAOS_CASES` — number of random cases (default 12)
//!
//! A failing case prints its own derived seed; re-running with
//! `HETEX_CHAOS_SEED=<that seed> HETEX_CHAOS_CASES=1` replays exactly it.

use hetex_common::{ColumnData, DataType, EngineConfig};
use hetex_engine::Proteus;
use hetex_jit::{AggSpec, Expr};
use hetex_storage::TableBuilder;
use hetex_topology::{DeviceId, FaultPlan, ServerTopology, SimTime};
use std::sync::Arc;

/// Splitmix64: tiny, seedable, good enough to scatter fault schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    match std::env::var(key) {
        Ok(v) => {
            let v = v.trim();
            v.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| v.parse())
                .unwrap_or_else(|_| panic!("{key} must be a u64, got {v:?}"))
        }
        Err(_) => default,
    }
}

#[test]
fn random_fault_schedules_never_corrupt_rows_or_leak() {
    let base_seed = env_u64("HETEX_CHAOS_SEED", 0xC0FF_EE00_5EED);
    let cases = env_u64("HETEX_CHAOS_CASES", 12);
    println!("chaos: base seed {base_seed:#x}, {cases} cases");
    for case in 0..cases {
        let case_seed = Rng(base_seed ^ case.wrapping_mul(0xA5A5_A5A5)).next();
        run_case(case, case_seed);
    }
}

fn run_case(case: u64, seed: u64) {
    let mut rng = Rng(seed);
    let topology = ServerTopology::paper_server();
    let gpus = topology.gpus();
    let cores = topology.cpu_cores();

    // Random engine configuration.
    let mut config = match rng.below(3) {
        0 => EngineConfig::cpu_only(1 + rng.below(4) as usize),
        1 => EngineConfig::gpu_only(1 + rng.below(2) as usize),
        _ => EngineConfig::hybrid(1 + rng.below(8) as usize, 1 + rng.below(2) as usize),
    };
    config.block_capacity = [1024, 2048, 4096][rng.below(3) as usize];
    // Half the cases stage under a tight budget (a few times the floor),
    // the rest under the default one.
    let tight = rng.chance(0.5);
    if tight {
        config.staging_bytes = config.min_staging_bytes() * (2 + rng.below(6));
    }

    // Random fault schedule: 1-3 faults, biased toward the GPUs (the likely
    // workers). Device *busy* clocks for these small runs only reach on the
    // order of 100µs, so onsets are drawn from [0, 150µs) to actually land
    // mid-stream (including 0 = dead on arrival).
    let mut plan = FaultPlan::new();
    let mut wedges = 0u32;
    for _ in 0..1 + rng.below(3) {
        let device: DeviceId = if rng.chance(0.6) {
            gpus[rng.below(gpus.len() as u64) as usize]
        } else {
            cores[rng.below(cores.len() as u64) as usize]
        };
        let onset = SimTime::from_nanos(rng.below(50_000));
        match rng.below(4) {
            0 => plan = plan.abort_device(device, onset),
            1 => {
                // GPU busy clocks only reach a few µs at the default scale,
                // so a window starting later than that would never open:
                // transient windows cover the whole run (delayed window
                // starts are exercised by the topology unit tests).
                let p = 0.1 + 0.5 * ((rng.next() >> 11) as f64 / (1u64 << 53) as f64);
                plan = plan.transient_window(
                    device,
                    SimTime::ZERO,
                    SimTime::from_millis(10_000),
                    p,
                    seed,
                );
            }
            // Wedges cost real watchdog wall time; cap them per case.
            2 if wedges == 0 => {
                wedges += 1;
                plan = plan.wedge_worker(device, onset);
            }
            _ => {
                if tight {
                    let nodes = topology.cpu_memory_nodes();
                    let node = nodes[rng.below(nodes.len() as u64) as usize];
                    let bytes = config.staging_bytes / 2;
                    plan = plan.arena_burst(node, bytes, onset, SimTime::from_millis(2));
                } else {
                    plan = plan.abort_device(device, onset);
                }
            }
        }
    }

    let rows = 10_000 + rng.below(5) as usize * 10_000;
    let join = rng.chance(0.5);
    let faulted = topology.with_fault_plan(plan.clone()).expect("valid fault plan");
    let engine = Proteus::new(Arc::clone(&faulted));
    let nodes = faulted.cpu_memory_nodes();
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32((0..rows as i32).map(|i| i % 100).collect()),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..rows as i64).collect()))
        .build(&nodes, config.block_capacity)
        .expect("build fact");
    engine.register_table(fact);
    let rel = if join {
        let dim = TableBuilder::new("dim")
            .column("k", DataType::Int32, ColumnData::Int32((0..100).collect()))
            .column("attr", DataType::Int32, ColumnData::Int32((0..100).map(|i| i % 7).collect()))
            .build(&nodes, config.block_capacity)
            .expect("build dim");
        engine.register_table(dim);
        // SELECT SUM(value), COUNT(*) FROM fact JOIN dim ON key = k WHERE attr < 3
        let dim_plan =
            hetex_core::RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
        hetex_core::RelNode::scan("fact", &["key", "value"])
            .hash_join(dim_plan, 0, 0, &[1])
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
    } else {
        hetex_core::RelNode::scan("fact", &["key", "value"])
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
    };
    let expected = if join {
        let (mut sum, mut cnt) = (0i64, 0i64);
        for i in 0..rows as i64 {
            if (i % 100) % 7 < 3 {
                sum += i;
                cnt += 1;
            }
        }
        vec![vec![sum, cnt]]
    } else {
        vec![vec![(0..rows as i64).sum(), rows as i64]]
    };

    let label = format!(
        "case {case} (seed {seed:#x}): target {:?} dop {}+{} cap {} tight {tight} \
         join {join} rows {rows} plan {plan:?}",
        config.target, config.cpu_dop, config.gpu_dop, config.block_capacity
    );
    match engine.session().execute(&rel, &config) {
        Ok(outcome) => {
            assert_eq!(outcome.rows, expected, "wrong rows under faults — {label}");
            assert_eq!(outcome.stats.staging_leaked_bytes, 0, "leaked staging bytes — {label}");
            assert!(
                outcome.sim_time < SimTime::from_millis(600_000),
                "unbounded simulated time {} — {label}",
                outcome.sim_time
            );
            // Per-attempt accounting: one entry per attempt (restarts + the
            // final success), the last entry is the reported sim time, and
            // the total is their sum.
            let attempts = &outcome.stats.attempt_sim_times;
            assert_eq!(
                attempts.len(),
                outcome.stats.degraded_restarts + 1,
                "attempt count disagrees with restarts — {label}"
            );
            assert_eq!(
                attempts.last().copied(),
                Some(outcome.sim_time),
                "last attempt time is not the reported sim time — {label}"
            );
            let sum = attempts.iter().fold(SimTime::ZERO, |acc, t| acc.add_nanos(t.as_nanos()));
            assert_eq!(
                outcome.stats.total_sim_time(),
                sum,
                "total_sim_time is not the attempt sum — {label}"
            );
            assert!(
                outcome.stats.total_sim_time() >= outcome.sim_time,
                "total below final-attempt time — {label}"
            );
        }
        Err(e) => {
            // A clean structured failure is acceptable; silent corruption or
            // an unstructured panic is not. `execution` covers degraded
            // exhaustion, `memory` a burst-starved staging arena.
            let allowed = ["device-lost", "execution", "memory"];
            assert!(
                allowed.contains(&e.category()),
                "unexpected error category {:?} ({e}) — {label}",
                e.category()
            );
        }
    }
}

#[test]
fn failed_attempts_record_their_burned_time() {
    // Both GPUs abort mid-stream (onset past the first blocks), so the GPU
    // stage dies with no surviving sibling and forces a degraded restart
    // after the attempt has burned real simulated time.
    // That burned time must be captured from the failing executor — never
    // silently accounted as zero — so `total_sim_time` exceeds the final
    // attempt's `sim_time` by exactly the recorded burn.
    let topology = ServerTopology::paper_server();
    let gpus = topology.gpus();
    let faulted = topology
        .with_fault_plan(
            FaultPlan::new()
                .abort_device(gpus[0], SimTime::from_nanos(3_000))
                .abort_device(gpus[1], SimTime::from_nanos(3_000)),
        )
        .expect("valid fault plan");
    let engine = Proteus::new(Arc::clone(&faulted));
    let nodes = faulted.cpu_memory_nodes();
    let rows = 200_000usize;
    let table = TableBuilder::new("fact")
        .column("key", DataType::Int32, ColumnData::Int32((0..rows as i32).collect()))
        .column("value", DataType::Int64, ColumnData::Int64((0..rows as i64).collect()))
        .build(&nodes, 1024)
        .expect("build fact");
    engine.register_table(table);
    let rel = hetex_core::RelNode::scan("fact", &["key", "value"])
        .reduce(vec![AggSpec::sum(Expr::col(1))], &["sum_v"]);
    let mut config = EngineConfig::gpu_only(2);
    config.block_capacity = 1024;
    let outcome = engine.session().execute(&rel, &config).expect("degraded restart succeeds");
    assert_eq!(outcome.rows, vec![vec![(0..rows as i64).sum::<i64>()]]);
    assert!(outcome.stats.degraded_restarts >= 1, "the mid-stream abort must force a restart");
    let attempts = &outcome.stats.attempt_sim_times;
    assert_eq!(attempts.len(), outcome.stats.degraded_restarts + 1);
    assert!(
        attempts[..attempts.len() - 1].iter().any(|t| *t > SimTime::ZERO),
        "a mid-stream device loss burned simulated time, but every failed attempt \
         recorded zero — the burn was dropped, not captured: {attempts:?}"
    );
    assert!(
        outcome.stats.total_sim_time() > outcome.sim_time,
        "total time must pay for the burned attempt"
    );
}
