//! Pins of the baselines' inputs and outputs on the 13 SSB queries.
//!
//! DBMS C and DBMS G price a query from the [`PlanProfile`] the row
//! interpreter fills in as it evaluates the plan. This test holds every
//! profile field and every modelled time to the exact values below, recorded
//! on Figure 5's setup (SF1000 modelled; 24 cores for DBMS C, 2 GPUs streaming
//! CPU-resident data and 2 GPUs over resident data for DBMS G) from a small
//! physical dataset. A change to how plans are evaluated or profiled that
//! moves any `paper.hybrid_over_dbms_*` input fails here first.

use hetexchange::baselines::{profile_plan, DbmsC, DbmsG, PlanProfile};
use hetexchange::bench::SsbWorkload;
use hetexchange::common::config::DataPlacement;
use hetexchange::common::{EngineConfig, Result};
use std::sync::Arc;

/// One line per query: every profile field (floats in their shortest
/// round-trip form, so equal text is equal bits), then DBMS C's seconds and
/// DBMS G's seconds or error category, streaming and resident.
fn pin_line(
    profile: &PlanProfile,
    c: Result<f64>,
    g_streaming: Result<f64>,
    g_resident: Result<f64>,
) -> String {
    let time = |r: Result<f64>| match r {
        Ok(s) => format!("{s:?}"),
        Err(e) => e.category().to_string(),
    };
    let spine: Vec<String> = profile
        .spine_columns
        .iter()
        .map(|s| s.as_ref().map_or("-".to_string(), |(t, c)| format!("{t}.{c}")))
        .collect();
    format!(
        "fact {:?}/{:?} dim {:?} joins {} filter {:?} after {:?} width {} result {:?} \
         keys {} range {} weight {:?} domain {:?} spine [{}] | C {} G {} Gres {}",
        profile.fact_bytes,
        profile.fact_rows,
        profile.dim_bytes,
        profile.joins,
        profile.rows_after_filter,
        profile.rows_after_each_join,
        profile.spine_width,
        profile.result_rows,
        profile.group_keys,
        profile.has_string_range_filter,
        profile.spine_weight,
        profile.group_domain_product,
        spine.join(" "),
        time(c),
        time(g_streaming),
        time(g_resident),
    )
}

/// The pins, recorded from the evaluator before it was rewritten.
const PINS: [(&str, &str); 13] = [
    (
        "Q1.1",
        "fact 120000000000.0/6000000000.0 dim 40912.0 joins 1 filter 781000000.0 after [104200000.0] width 4 result 1.0 keys 0 range false weight 200000.0 domain 1.0 \
         spine [lineorder.lo_orderdate lineorder.lo_discount lineorder.lo_quantity lineorder.lo_extendedprice] \
         | C 1.528876831 G 11.141114899 Gres 1.931561146",
    ),
    (
        "Q1.2",
        "fact 120000000000.0/6000000000.0 dim 40912.0 joins 1 filter 332800000.0 after [2200000.0] width 4 result 1.0 keys 0 range false weight 200000.0 domain 1.0 \
         spine [lineorder.lo_orderdate lineorder.lo_discount lineorder.lo_quantity lineorder.lo_extendedprice] \
         | C 1.381221202 G 11.141114899 Gres 1.931561146",
    ),
    (
        "Q1.3",
        "fact 120000000000.0/6000000000.0 dim 40912.0 joins 1 filter 324800000.0 after [800000.0] width 4 result 1.0 keys 0 range false weight 200000.0 domain 1.0 \
         spine [lineorder.lo_orderdate lineorder.lo_discount lineorder.lo_quantity lineorder.lo_extendedprice] \
         | C 1.379031357 G 11.141114899 Gres 1.931561146",
    ),
    (
        "Q2.1",
        "fact 120000000000.0/6000000000.0 dim 42338328.0 joins 3 filter 6000000000.0 after [257600000.0, 52600000.0, 52600000.0] width 6 result 132.0 keys 2 range false weight 200000.0 domain 8000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_partkey lineorder.lo_suppkey lineorder.lo_revenue part.p_brand1 date.d_year] \
         | C 7.53127451 G 11.145031327 Gres 4.355825215",
    ),
    (
        "Q2.2",
        "fact 120000000000.0/6000000000.0 dim 42338328.0 joins 3 filter 6000000000.0 after [28200000.0, 6200000.0, 6200000.0] width 6 result 17.0 keys 2 range true weight 200000.0 domain 8000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_partkey lineorder.lo_suppkey lineorder.lo_revenue part.p_brand1 date.d_year] \
         | C 7.134019608 G unsupported Gres unsupported",
    ),
    (
        "Q2.3",
        "fact 120000000000.0/6000000000.0 dim 42338328.0 joins 3 filter 6000000000.0 after [13200000.0, 2400000.0, 2400000.0] width 6 result 6.0 keys 2 range false weight 200000.0 domain 8000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_partkey lineorder.lo_suppkey lineorder.lo_revenue part.p_brand1 date.d_year] \
         | C 7.105941176 G 11.145031327 Gres 4.355825215",
    ),
    (
        "Q3.1",
        "fact 120000000000.0/6000000000.0 dim 512030684.0 joins 3 filter 6000000000.0 after [1255000000.0, 253800000.0, 212800000.0] width 7 result 120.0 keys 3 range false weight 200000.0 domain 5000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_revenue customer.c_nation supplier.s_nation date.d_year] \
         | C 9.359588235 G 11.18852136 Gres 4.355825215",
    ),
    (
        "Q3.2",
        "fact 120000000000.0/6000000000.0 dim 512030684.0 joins 3 filter 6000000000.0 after [269600000.0, 12800000.0, 11000000.0] width 7 result 34.0 keys 3 range false weight 200000.0 domain 500000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_revenue customer.c_city supplier.s_city date.d_year] \
         | C 7.441941176 G 11.18852136 Gres 4.355825215",
    ),
    (
        "Q3.3",
        "fact 120000000000.0/6000000000.0 dim 512030684.0 joins 3 filter 6000000000.0 after [0.0, 0.0, 0.0] width 7 result 0.0 keys 3 range false weight 200000.0 domain 500000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_revenue customer.c_city supplier.s_city date.d_year] \
         | C 7.083823529 G 11.18852136 Gres 4.355825215",
    ),
    (
        "Q3.4",
        "fact 120000000000.0/6000000000.0 dim 512030684.0 joins 3 filter 6000000000.0 after [0.0, 0.0, 0.0] width 7 result 0.0 keys 3 range false weight 200000.0 domain 500000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_revenue customer.c_city supplier.s_city date.d_year] \
         | C 7.083823529 G 11.18852136 Gres 4.355825215",
    ),
    (
        "Q4.1",
        "fact 192000000000.0/6000000000.0 dim 547110952.0 joins 4 filter 6000000000.0 after [1593200000.0, 316400000.0, 125600000.0, 125600000.0] width 8 result 35.0 keys 2 range false weight 200000.0 domain 200.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_partkey lineorder.lo_revenue lineorder.lo_supplycost customer.c_nation date.d_year] \
         | C 9.675196078 G 17.858436199 Gres 5.727056275",
    ),
    (
        "Q4.2",
        "fact 192000000000.0/6000000000.0 dim 547110952.0 joins 4 filter 6000000000.0 after [1593200000.0, 316400000.0, 125600000.0, 35800000.0] width 9 result 63.0 keys 3 range false weight 200000.0 domain 5000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_partkey lineorder.lo_revenue lineorder.lo_supplycost supplier.s_nation part.p_category date.d_year] \
         | C 9.562411765 G 17.858436199 Gres 5.727056275",
    ),
    (
        "Q4.3",
        "fact 192000000000.0/6000000000.0 dim 547110952.0 joins 4 filter 6000000000.0 after [1593200000.0, 73600000.0, 1200000.0, 600000.0] width 9 result 3.0 keys 3 range false weight 200000.0 domain 2000000.0 \
         spine [lineorder.lo_orderdate lineorder.lo_custkey lineorder.lo_suppkey lineorder.lo_partkey lineorder.lo_revenue lineorder.lo_supplycost supplier.s_city part.p_brand1 date.d_year] \
         | C 9.047588235 G memory Gres 5.727056275",
    ),
];

#[test]
fn ssb_profiles_and_modelled_times_are_pinned() {
    let workload = SsbWorkload::build(0.005, 1000.0, false).expect("SSB workload");
    let catalog = &workload.catalog_cpu;
    let topology = &workload.topology;
    let dbms_c = DbmsC::new(Arc::clone(topology), 24);
    let streaming = DbmsG::new(Arc::clone(topology), 2, DataPlacement::CpuResident);
    let resident = DbmsG::new(Arc::clone(topology), 2, DataPlacement::GpuResident);
    let c_weights = workload.config(EngineConfig::cpu_only(24));
    let g_weights = workload.config(EngineConfig::gpu_only(2));
    assert_eq!(workload.queries.len(), PINS.len());
    for (query, (name, pin)) in workload.queries.iter().zip(PINS) {
        assert_eq!(query.name, name);
        let (profile, _) = profile_plan(&query.plan, catalog, &c_weights).expect("profile");
        let c = dbms_c.execute(&query.plan, catalog, &c_weights).map(|o| o.seconds());
        let g = streaming.execute(&query.plan, catalog, &g_weights).map(|o| o.seconds());
        let gr = resident.execute(&query.plan, catalog, &g_weights).map(|o| o.seconds());
        assert_eq!(pin_line(&profile, c, g, gr), pin, "{name}");
    }
}
