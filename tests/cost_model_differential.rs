//! Differential testing of the unified cost model (DESIGN.md §5).
//!
//! Every CostModel term — demand-weighted staging quotas, the cross-node
//! control-plane charge, the critical-path gate estimate, the
//! link-congestion steal term — and the straggler estimator that routing,
//! stealing and claim pacing read only move block handles between
//! *equivalent* consumers of the same stage: none of them may ever change a
//! query's result. This harness generates random server topologies (1–4
//! sockets, 0–4 GPUs, random per-device slowdowns and PCIe link widths) and
//! random small plans, executes each plan, and asserts the rows are
//! byte-identical to `reference_execute` — the independent single-threaded
//! oracle that shares no routing, queue or kernel code with the executor.
//! None of these mechanisms is a toggle: every run prices them, under a
//! deliberately tight staging budget so quota admission, leases and the
//! demand re-split genuinely engage. Every run also checks the estimator
//! itself: every device but the hidden straggler reads exactly 1.0.
//!
//! A standalone property pins the chunk kernel's selection-vector
//! refinement primitive (ordered-subset, monotone shrinking, in-bounds).
//!
//! The **re-optimization axis**: `ReoptConfig::disabled()` takes exactly
//! the pre-reopt code path, an enabled run with a cold feedback cache
//! applies no rewrite and matches the disabled run's rows and plan shape,
//! and a warm-cache run may substitute a searched placement but must
//! preserve the rows byte-for-byte.
//!
//! Every scenario also draws the dimension's key stride (`KEY_STRIDES`):
//! dense keys seal the join's build table to a direct key index, sparse ones
//! leave it hashed, so the sweep row-checks both ways of probing it.
//!
//! Seeding: the vendored proptest derives a deterministic per-function seed
//! from the property's name, so every run (local and CI) explores the same
//! fixed case sequence and failures reproduce exactly. The case budget is
//! `HETEX_DIFF_CASES` generated scenarios (default 72), each run once
//! against one reference run.

use hetexchange::common::{ColumnData, DataType, EngineConfig, HetError};
use hetexchange::core_ops::cost::{SlowdownObserver, SLOWDOWN_EWMA_ALPHA};
use hetexchange::core_ops::RelNode;
use hetexchange::engine::{reference_execute, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;
use hetexchange::topology::{DeviceId, ServerTopology, TopologyBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// Generated-case budget: `HETEX_DIFF_CASES` scenarios (default 72). CI pins
/// the default; the knob exists so a local soak can raise it.
fn case_budget() -> u32 {
    std::env::var("HETEX_DIFF_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(72)
}

/// A random heterogeneous server: `sockets` sockets of `cores_per_socket`
/// cores, `gpus` GPUs spread round-robin across sockets, a randomized PCIe
/// width, and one randomly chosen device marked as a hidden straggler.
fn random_topology(
    sockets: usize,
    cores_per_socket: usize,
    gpus: usize,
    pcie_gbps: f64,
    slow_pick: usize,
    slowdown: f64,
) -> Result<Arc<ServerTopology>, HetError> {
    let mut builder = TopologyBuilder::new();
    for _ in 0..sockets {
        builder.add_socket(cores_per_socket);
    }
    for gpu in 0..gpus {
        builder.add_gpu(gpu % sockets);
    }
    builder.pcie_bandwidth_gbps(pcie_gbps);
    let topology = Arc::new(builder.build()?);
    if slowdown > 1.0 {
        let device = DeviceId::new(slow_pick % topology.devices().len());
        topology.with_device_slowdown(device, slowdown)
    } else {
        Ok(topology)
    }
}

/// Dimension key strides: 1 keeps the build keys dense, so the sealed
/// join table indexes them directly; at 1,000 their span (at least 149,001
/// for the smallest dimension) is past `DIRECT_FLOOR` and four times the
/// slot count, so it stays hashed.
const KEY_STRIDES: [i32; 2] = [1, 1_000];

/// An engine with a fact table (`key`, `value`) and a quarter-sized
/// dimension (`k`, `attr`) loaded on the topology's CPU nodes. Dimension
/// row `i` has key `i × key_stride`, and the fact keys match.
fn engine_with_tables(topology: Arc<ServerTopology>, fact_rows: usize, key_stride: i32) -> Proteus {
    let dim_rows = (fact_rows / 4).max(1);
    let engine = Proteus::new(topology);
    let nodes = engine.topology().cpu_memory_nodes();
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32(
                (0..fact_rows as i32).map(|i| i % dim_rows as i32 * key_stride).collect(),
            ),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..fact_rows as i64).collect()))
        .build(&nodes, 256)
        .unwrap();
    let dim = TableBuilder::new("dim")
        .column(
            "k",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i * key_stride).collect()),
        )
        .column(
            "attr",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
        )
        .build(&nodes, 256)
        .unwrap();
    engine.register_table(fact);
    engine.register_table(dim);
    engine
}

/// The fact filter, from one of three classes the chunk kernel runs
/// differently: one atom, a two-atom conjunction (refining the selection in
/// place, the second atom mirrored), or a shape the kernel leaves to its tree
/// walker (an `Or` over arithmetic inside a comparison).
fn fact_filter(class: usize, filter_lit: i64) -> Expr {
    let atom = Expr::col(0).lt_lit(filter_lit * 100);
    match class % 3 {
        0 => atom,
        1 => atom.and(Expr::Le(Box::new(Expr::lit(filter_lit * 50)), Box::new(Expr::col(1)))),
        _ => atom.or(Expr::col(1).sub(Expr::col(0)).gt_lit(filter_lit * 300)),
    }
}

/// One of three plan shapes: a filtered scan+reduce (ungated single
/// pipeline), a hash join+reduce (gated probe — the critical-path and
/// congestion terms engage), or a join+group-by (multi-row, key-sorted
/// output so row comparison is order-stable).
fn random_plan(plan_pick: usize, filter_class: usize, filter_lit: i64) -> RelNode {
    match plan_pick % 3 {
        0 => RelNode::scan("fact", &["key", "value"])
            .filter(fact_filter(filter_class, filter_lit))
            .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"]),
        1 => {
            let dim = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(filter_lit));
            RelNode::scan("fact", &["key", "value"])
                .hash_join(dim, 0, 0, &[1])
                .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"])
        }
        _ => {
            let dim = RelNode::scan("dim", &["k", "attr"]);
            RelNode::scan("fact", &["key", "value"]).hash_join(dim, 0, 0, &[1]).group_by(
                &[2],
                vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
                &["s", "c"],
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_budget()))]

    /// The centerpiece: across random topologies and plans, execution
    /// produces byte-identical rows to the `reference_execute` oracle, stays
    /// within its staging budget, and observes no slowdown on any device but
    /// the hidden straggler — the invariant that keeps a healthy server on
    /// the path it would take with no straggler estimator at all.
    #[test]
    fn prop_every_toggle_configuration_matches_the_reference(
        sockets in 1usize..5,
        cores_per_socket in 2usize..5,
        gpus in 0usize..5,
        pcie_gbps_x10 in 40u64..160,
        slow_pick in 0usize..64,
        slowdown_x10 in 10u64..80,
        fact_rows in 600usize..3_000,
        plan_pick in 0usize..3,
        filter_lit in 1i64..7,
        filter_class in 0usize..3,
        cpu_dop_raw in 1usize..9,
        stride_pick in 0usize..2,
    ) {
        let topology = random_topology(
            sockets,
            cores_per_socket,
            gpus,
            pcie_gbps_x10 as f64 / 10.0,
            slow_pick,
            slowdown_x10 as f64 / 10.0,
        ).unwrap();
        let key_stride = KEY_STRIDES[stride_pick];
        let engine = engine_with_tables(Arc::clone(&topology), fact_rows, key_stride);
        let plan = random_plan(plan_pick, filter_class, filter_lit);

        let cpu_dop = cpu_dop_raw.min(sockets * cores_per_socket);
        let gpu_dop = gpus.min(2);
        let mut config = if gpu_dop == 0 {
            EngineConfig::cpu_only(cpu_dop)
        } else {
            EngineConfig::hybrid(cpu_dop, gpu_dop)
        };
        config.block_capacity = 256;
        // A deliberately tight (but valid) budget so quota admission, leases
        // and the demand re-split genuinely engage.
        config.staging_bytes = config.min_staging_bytes() * 2;

        let expected = reference_execute(&plan, engine.catalog()).unwrap();

        let outcome = engine.session().execute(&plan, &config).unwrap();
        let case = format!(
            "sockets={sockets} cores={cores_per_socket} gpus={gpus} pcie={pcie_gbps_x10} \
             slow=({slow_pick}, {slowdown_x10}) fact_rows={fact_rows} plan={plan_pick} \
             dop=({cpu_dop}, {gpu_dop}) key_stride={key_stride}"
        );
        prop_assert_eq!(&outcome.rows, &expected, "rows changed on {}", case);
        // The demand re-split may never oversubscribe the arena.
        for (node, peak) in &outcome.stats.staging_peaks {
            prop_assert!(
                *peak <= config.staging_bytes,
                "node {} peaked at {} > budget {} on {}",
                node, peak, config.staging_bytes, case
            );
        }
        // Healthy devices are charged exactly their nominal cost, so their
        // EWMAs never leave 1.0.
        let straggler = (slowdown_x10 > 10).then(|| slow_pick % topology.devices().len());
        for (device, &ewma) in outcome.stats.observed_slowdowns.iter().enumerate() {
            if Some(device) != straggler {
                prop_assert_eq!(ewma, 1.0, "healthy device {} observed slow on {}", device, case);
            }
        }
    }

    /// Selection-vector refinement invariants (the chunk kernel's one
    /// nontrivial primitive): refining a selection by a flag vector keeps
    /// exactly the flagged lanes, **in order** — the surviving selection is
    /// the order-preserving subset of the input, it never grows, and no
    /// index outside the input selection can appear. The row order of both
    /// lowerings rests on this.
    #[test]
    fn prop_selection_refinement_is_an_ordered_subset(
        base in proptest::collection::vec(0u32..10_000, 0..600),
        flag_seed in proptest::collection::vec(0u32..2, 0..600),
    ) {
        // A selection is a strictly increasing index list (as produced by
        // the identity selection and preserved by every refinement).
        let mut sel: Vec<u32> = base.clone();
        sel.sort_unstable();
        sel.dedup();
        let flags: Vec<i64> = sel
            .iter()
            .enumerate()
            .map(|(j, _)| flag_seed.get(j % flag_seed.len().max(1)).copied().unwrap_or(0) as i64)
            .collect();
        let before = sel.clone();
        hetexchange::jit::refine_selection(&mut sel, &flags);

        // Monotone shrinking: never more lanes than before.
        prop_assert!(sel.len() <= before.len());
        // Exactly the flagged lanes survive, in their original order.
        let expected: Vec<u32> = before
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f != 0)
            .map(|(&idx, _)| idx)
            .collect();
        prop_assert_eq!(&sel, &expected);
        // No index outside the input selection appears (subset property),
        // and the output stays strictly increasing (order-preserving over a
        // strictly increasing input).
        prop_assert!(sel.iter().all(|idx| before.binary_search(idx).is_ok()));
        prop_assert!(sel.windows(2).all(|w| w[0] < w[1]));
    }

    /// Straggler-estimator soundness: the `SlowdownObserver` EWMA is monotone
    /// in the injected `exec_slowdown` — a device hidden-slowed by a larger
    /// factor can never be *observed* as less slow, whatever the nominal
    /// per-block costs and however many blocks were folded in. (The routing
    /// multiplier inherits the monotonicity, so feedback can never rank a
    /// worse straggler as the better consumer on identical backlogs.)
    #[test]
    fn prop_slowdown_observer_ewma_is_monotone_in_injected_slowdown(
        nominal_ns in 1u64..2_000_000,
        blocks in 1usize..48,
        slowdowns_x10 in proptest::collection::vec(5u64..120, 2..8),
    ) {
        let mut sorted = slowdowns_x10.clone();
        sorted.sort_unstable();
        let mut previous: Option<(u64, f64)> = None;
        for &sx10 in &sorted {
            let slowdown = sx10 as f64 / 10.0;
            // One observer per injected factor, fed the same block stream:
            // every block is charged `nominal × slowdown`, exactly how the
            // executor's charge path applies `DeviceProfile::exec_slowdown`.
            let observer = SlowdownObserver::new(1);
            for _ in 0..blocks {
                observer.record(0, (nominal_ns as f64 * slowdown) as u64, nominal_ns);
            }
            let ewma = observer.slowdown(0);
            // Identical samples keep the EWMA at the (floored) sample…
            let sample = ((nominal_ns as f64 * slowdown) as u64 as f64
                / nominal_ns as f64).max(1.0);
            prop_assert!(
                (ewma - sample).abs() < 1e-9 * sample.max(1.0),
                "uniform stream must converge to its sample: {ewma} vs {sample}"
            );
            // …and a larger injected slowdown never observes smaller.
            if let Some((prev_sx10, prev_ewma)) = previous {
                prop_assert!(
                    ewma >= prev_ewma,
                    "slowdown {sx10}/10 observed {ewma} < {prev_ewma} at {prev_sx10}/10"
                );
            }
            previous = Some((sx10, ewma));
        }
        // A mixed stream stays between the extremes: fold the smallest and
        // largest factors alternately and check the EWMA lands within the
        // bracket scaled by the smoothing factor's reach.
        let low = sorted[0] as f64 / 10.0;
        let high = sorted[sorted.len() - 1] as f64 / 10.0;
        let observer = SlowdownObserver::new(1);
        for i in 0..blocks * 2 {
            let s = if i % 2 == 0 { high } else { low };
            observer.record(0, (nominal_ns as f64 * s) as u64, nominal_ns);
        }
        let mixed = observer.slowdown(0);
        // Every folded sample is within [low, high] after integer truncation
        // of the charge and the ≥1.0 floor, so the EWMA must stay within the
        // same bracket — with any smoothing factor in (0, 1], which pins
        // SLOWDOWN_EWMA_ALPHA's range.
        prop_assert!((0.0..=1.0).contains(&SLOWDOWN_EWMA_ALPHA));
        let ratio = |s: f64| ((nominal_ns as f64 * s) as u64 as f64 / nominal_ns as f64).max(1.0);
        let (low_f, high_f) = (ratio(low), ratio(high));
        prop_assert!(
            mixed + 1e-9 >= low_f && mixed <= high_f + 1e-9,
            "mixed EWMA {mixed} escaped the sample bracket [{low_f}, {high_f}]"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_budget()))]

    /// The serving toggle (PR 9) is inert on the single-query path:
    /// attaching an enabled `ServeConfig` to a config changes nothing about
    /// a direct `execute` — byte-identical rows and the same compiled plan
    /// shape as the default serve-off run.
    #[test]
    fn prop_serving_toggle_is_inert_on_single_queries(
        sockets in 1usize..4,
        cores_per_socket in 2usize..5,
        gpus in 0usize..4,
        pcie_gbps_x10 in 40u64..160,
        fact_rows in 600usize..3_000,
        plan_pick in 0usize..3,
        filter_lit in 1i64..7,
        filter_class in 0usize..3,
        cpu_dop_raw in 1usize..9,
        stride_pick in 0usize..2,
    ) {
        use hetexchange::common::ServeConfig;
        let topology = random_topology(
            sockets, cores_per_socket, gpus, pcie_gbps_x10 as f64 / 10.0, 0, 1.0,
        ).unwrap();
        let engine =
            engine_with_tables(Arc::clone(&topology), fact_rows, KEY_STRIDES[stride_pick]);
        let plan = random_plan(plan_pick, filter_class, filter_lit);
        let cpu_dop = cpu_dop_raw.min(sockets * cores_per_socket);
        let gpu_dop = gpus.min(2);
        let mut config = if gpu_dop == 0 {
            EngineConfig::cpu_only(cpu_dop)
        } else {
            EngineConfig::hybrid(cpu_dop, gpu_dop)
        };
        config.block_capacity = 256;

        let off = engine.session().execute(&plan, &config).unwrap();
        let on = engine
            .session().execute(&plan, &config.clone().with_serve(ServeConfig::serving()))
            .unwrap();
        // Simulated instants can vary with wall-clock worker interleaving
        // even between two identical runs on gated random-topology plans
        // (queue-admission waits are charged in arrival order), so — like
        // every other property in this sweep — the bit-identity bar is the
        // rows and the plan shape. The paper-server serving suite pins
        // sim-time equality where execution is fully deterministic.
        prop_assert_eq!(&on.rows, &off.rows, "serving toggle changed the rows");
        prop_assert_eq!(on.stats.stages, off.stats.stages, "serving toggle changed the plan");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_budget()))]

    /// The re-optimization toggle (PR 10) is inert until it has feedback,
    /// and result-preserving once it does. On one engine: the
    /// `ReoptConfig::disabled()` run takes exactly the pre-reopt code path
    /// and returns the `reference_execute` oracle's rows;
    /// the first `ReoptConfig::enabled()` run finds a cold feedback cache,
    /// must apply no rewrite, and must match the disabled run's rows and
    /// compiled plan shape; the second enabled run may substitute a searched
    /// placement but must still return byte-identical rows.
    #[test]
    fn prop_reopt_is_cold_inert_and_rewrites_preserve_rows(
        sockets in 1usize..4,
        cores_per_socket in 2usize..5,
        gpus in 0usize..4,
        pcie_gbps_x10 in 40u64..160,
        fact_rows in 600usize..3_000,
        plan_pick in 0usize..3,
        filter_lit in 1i64..7,
        filter_class in 0usize..3,
        cpu_dop_raw in 1usize..9,
        stride_pick in 0usize..2,
    ) {
        use hetexchange::common::ReoptConfig;
        let topology = random_topology(
            sockets, cores_per_socket, gpus, pcie_gbps_x10 as f64 / 10.0, 0, 1.0,
        ).unwrap();
        let engine =
            engine_with_tables(Arc::clone(&topology), fact_rows, KEY_STRIDES[stride_pick]);
        let plan = random_plan(plan_pick, filter_class, filter_lit);
        let cpu_dop = cpu_dop_raw.min(sockets * cores_per_socket);
        let gpu_dop = gpus.min(2);
        let mut config = if gpu_dop == 0 {
            EngineConfig::cpu_only(cpu_dop)
        } else {
            EngineConfig::hybrid(cpu_dop, gpu_dop)
        };
        config.block_capacity = 256;

        // Disabled runs record no feedback, so the enabled run that follows
        // still sees a cold cache for this plan fingerprint.
        let off = engine.session().execute(&plan, &config).unwrap();
        prop_assert!(off.stats.reopt_applied.is_none());
        prop_assert_eq!(&off.rows, &reference_execute(&plan, engine.catalog()).unwrap());

        let enabled = config.clone().with_reopt(ReoptConfig::enabled());
        let cold = engine.session().execute(&plan, &enabled).unwrap();
        prop_assert!(
            cold.stats.reopt_applied.is_none(),
            "a cold feedback cache must never rewrite: {:?}",
            cold.stats.reopt_applied
        );
        prop_assert_eq!(&cold.rows, &off.rows, "cold-cache reopt changed the rows");
        prop_assert_eq!(cold.stats.stages, off.stats.stages, "cold-cache reopt changed the plan");

        // Warm cache: the search may now substitute a placement, but the
        // result must stay byte-identical (a rewrite only re-degrees the
        // same plan).
        let warm = engine.session().execute(&plan, &enabled).unwrap();
        prop_assert_eq!(&warm.rows, &off.rows, "a feedback-driven rewrite changed the rows");
    }
}
