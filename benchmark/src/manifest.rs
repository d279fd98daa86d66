//! The benchmark's contract, as data: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is
//! [`benchmark_json`] verbatim (`benchmark --emit-manifest`); a unit test
//! fails when the two drift, and another when a run prints a name this table
//! lacks or omits one it has.

use crate::load::Workload;

/// Seconds one run measures for (`run_seconds`; the driver passes it back
/// as `--seconds`). Sized so that the slowest workload's pass (hybrid_paper,
/// ~1.2 s) still yields a dozen samples behind every median while a whole
/// run — three set-ups, the timed passes, the oracle — stays near 20 s.
pub const RUN_SECONDS: u64 = 15;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Why each workload is in the set (one line each; `load.rs` has the long
/// form).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::ScanCpu => {
            "SSB Q1.x at SF 0.5 on 2 CPU workers: dense filter+reduce, so vectorized kernels \
             dominate and hash state is bypassed"
        }
        Workload::JoinCpu => {
            "SSB Q2.1-Q4.3 at SF 0.1 on 2 CPU workers: star joins and group-bys against \
             cache-resident build sides, so hash tables dominate and filters do little"
        }
        Workload::JoinLargeCpu => {
            "synthetic 500k x 500k join (215k-key build, 64k groups) on 2 CPU workers: the same \
             hash layer past the cache, with the build side timed, bypassing SSB and filters"
        }
        Workload::HybridPaper => {
            "all 13 SSB queries modelling SF1000 on hybrid(24,2), the paper's Figure 5: router, \
             queues, leases, DMA, stealing and the GPU simulator run; kernels are a minority"
        }
        Workload::ServeMixed => {
            "QueryServer bursts of 4 priority streams x 4 SSB queries on hybrid(6,1), 2 workers: \
             admission, shared pool and fair-timeline replay, which single-query runs bypass"
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports all three. Simulated seconds carry the unit
/// `sim_s` so that the modelled server's clock is never read as the host's;
/// the two host metrics count CPU seconds of the process, which the
/// hypervisor's stolen time does not inflate (see README.md).
///
/// Bounds, from ten-seed batches on the two-vCPU box they were sized on: the
/// simulated clock spreads (quartile distance over median) by up to 0.7%
/// (block claiming depends on thread interleaving); CPU-time throughput by
/// 4-11%, following the box's memory system, which drifts by +-15% over
/// minutes; set-up is a median of three short set-ups.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "sim_s", unit: "sim_s", better: "lower", bound: 0.03 },
    EndToEnd {
        name: "host_mtuples_per_cpu_s",
        unit: "Mtuples/cpu_s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// A per-layer metric: `(name, unit, better)`. The prefix is the crate or
/// module the number belongs to. A metric that does not apply to a workload
/// (the `paper.*` ratios outside `hybrid_paper`, GPU counts on CPU-only
/// runs) reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 80] = [
    // hetex-ssb, hetex-storage, hetex-topology: what set-up is made of, and
    // the unit costs of the staging data plane.
    ("ssb.generate_s", "s", "lower"),
    ("storage.register_ms", "ms", "lower"),
    ("storage.lease_cycle_ns", "ns", "lower"),
    ("storage.lease_cycle_contended_ns", "ns", "lower"),
    ("storage.peak_leased_bytes", "bytes", "lower"),
    ("topology.probe_ms", "ms", "lower"),
    ("topology.dma_schedule_ns", "ns", "lower"),
    ("topology.private_clocks_us", "us", "lower"),
    // hetex-core plan side and hetex-analysis: expected < 1% of a session.
    ("core.parallelize_us", "us", "lower"),
    ("core.compile_us", "us", "lower"),
    ("core.stages_per_plan", "count", "lower"),
    ("analysis.analyze_us", "us", "lower"),
    ("analysis.diagnostics", "count", "lower"),
    // hetex-core data plane: per-block unit costs.
    ("core.route_ns", "ns", "lower"),
    ("core.load_project_ns", "ns", "lower"),
    ("core.cost_compose_ns", "ns", "lower"),
    ("core.queue_push_pop_ns", "ns", "lower"),
    ("core.queue_steal_ns", "ns", "lower"),
    ("core.queue_admit_ns", "ns", "lower"),
    ("core.pack_ns_per_tuple", "ns/tuple", "lower"),
    ("core.unpack_ns_per_tuple", "ns/tuple", "lower"),
    ("core.fair_replay_ms", "ms", "lower"),
    ("core.reoptimize_us", "us", "lower"),
    // hetex-jit: kernel rates over 64k-row blocks, and the two-clock gap.
    ("jit.filter_sel01_mtps", "Mtuples/s", "higher"),
    ("jit.filter_sel50_mtps", "Mtuples/s", "higher"),
    ("jit.filter_sel90_mtps", "Mtuples/s", "higher"),
    ("jit.reduce_mtps", "Mtuples/s", "higher"),
    ("jit.build_mtps", "Mtuples/s", "higher"),
    ("jit.probe_small_mtps", "Mtuples/s", "higher"),
    ("jit.probe_large_mtps", "Mtuples/s", "higher"),
    ("jit.groupby_64_mtps", "Mtuples/s", "higher"),
    ("jit.groupby_64k_mtps", "Mtuples/s", "higher"),
    ("jit.gpu_filter_probe_reduce_mtps", "Mtuples/s", "higher"),
    ("jit.model_gap_filter_sel01", "ratio", "lower"),
    ("jit.model_gap_probe_small", "ratio", "lower"),
    ("jit.model_gap_probe_large", "ratio", "lower"),
    ("jit.model_gap_groupby_64k", "ratio", "lower"),
    // hetex-gpu-sim.
    ("gpusim.launch_us", "us", "lower"),
    ("gpusim.grid_stride_sum_mtps", "Mtuples/s", "higher"),
    // hetex-engine: spans around the five public calls of a session.
    ("engine.session_ms_p50", "ms", "lower"),
    ("engine.session_ms_p90", "ms", "lower"),
    ("engine.pass_ms_p50", "ms", "lower"),
    ("engine.pass_ms_p90", "ms", "lower"),
    ("engine.execute_ms_p50", "ms", "lower"),
    ("engine.execute_share", "ratio", "lower"),
    ("engine.plan_share", "ratio", "lower"),
    ("engine.teardown_share", "ratio", "lower"),
    ("engine.executor_new_us", "us", "lower"),
    ("engine.execute_fixed_ms", "ms", "lower"),
    ("engine.blocks_processed", "count", "lower"),
    ("engine.host_us_per_block", "us", "lower"),
    ("engine.host_peak_rss_mb", "MB", "lower"),
    ("engine.cpu_busy_sim_s", "sim_s", "lower"),
    ("engine.gpu_busy_sim_s", "sim_s", "lower"),
    ("engine.blocks_stolen", "count", "lower"),
    ("engine.remote_control_acquisitions", "count", "lower"),
    ("engine.bytes_transferred", "bytes", "lower"),
    ("engine.sim_spread_pct", "%", "lower"),
    ("engine.control_plane_share_est", "ratio", "lower"),
    // hetex-engine's QueryServer.
    ("server.new_ms", "ms", "lower"),
    ("server.submit_us", "us", "lower"),
    ("server.ticket_wait_ms_p50", "ms", "lower"),
    ("server.shutdown_ms", "ms", "lower"),
    ("server.host_qps", "1/s", "higher"),
    ("server.sim_makespan_s", "sim_s", "lower"),
    ("server.sim_latency_s_p50", "sim_s", "lower"),
    ("server.sim_latency_s_p90", "sim_s", "lower"),
    ("server.admission_wait_sim_s_p50", "sim_s", "lower"),
    ("server.peak_admitted_bytes", "bytes", "lower"),
    ("server.sim_speedup_vs_serial", "ratio", "higher"),
    // The oracle's own cost, so it is never mistaken for engine time.
    ("reference.execute_ms", "ms", "lower"),
    // The paper's printed ratios, via hetex-baselines (hybrid_paper only).
    ("paper.sim_hybrid_efficiency", "ratio", "higher"),
    ("paper.hybrid_over_cpu_geomean", "ratio", "higher"),
    ("paper.hybrid_over_gpu_geomean", "ratio", "higher"),
    ("paper.hybrid_over_dbms_c_geomean", "ratio", "higher"),
    ("paper.hybrid_over_dbms_c_max", "ratio", "higher"),
    ("paper.hybrid_over_dbms_g_geomean", "ratio", "higher"),
    ("paper.hybrid_over_dbms_g_max", "ratio", "higher"),
    // The tracer itself.
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let lines = |items: Vec<String>| items.join(",\n");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), why(*w)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_once() {
        let mut seen = HashSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(is_name(name, 64, "_.-"), "bad name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "bad start {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(is_name(unit, 16, "_/%.-"), "bad unit {unit}");
        }
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains(['\n', '"']), "bad why for {w:?}");
        }
    }

    #[test]
    fn directions_and_bounds_are_within_the_contract() {
        for m in &END_TO_END {
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        assert!(PER_LAYER.iter().all(|m| m.2 == "lower" || m.2 == "higher"));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `benchmark --emit-manifest > BENCHMARK.json`"
        );
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
