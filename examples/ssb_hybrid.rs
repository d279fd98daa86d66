//! Run Star Schema Benchmark queries on every Proteus configuration and on
//! the two baseline systems, over the same generated dataset — a miniature of
//! the paper's Figure 5 experiment.
//!
//! Run with: `cargo run --release --example ssb_hybrid [physical_sf]`

use hetexchange::bench::systems::{run_query, System};
use hetexchange::bench::workload::SsbWorkload;

fn main() -> hetexchange::common::Result<()> {
    let physical_sf: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0.01);
    println!("generating SSB at physical SF {physical_sf}, modeling SF1000 (CPU-resident)…");
    let workload = SsbWorkload::build(physical_sf, 1000.0, false)?;

    let queries = ["Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q4.3"];
    println!(
        "{:<8}{:>16}{:>16}{:>18}{:>16}{:>12}",
        "query", "DBMS C", "Proteus CPUs", "Proteus Hybrid", "Proteus GPUs", "DBMS G"
    );
    for name in queries {
        let query = workload.query(name).expect("known query").clone();
        let mut cells = Vec::new();
        for system in System::figure5_lineup() {
            let row = run_query(&workload, system, &query, false);
            cells.push(match row.seconds {
                Some(s) => format!("{s:.3}s"),
                None => "FAIL".to_string(),
            });
        }
        println!(
            "{:<8}{:>16}{:>16}{:>18}{:>16}{:>12}",
            name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!("\n(Hybrid should win every row; DBMS G fails Q4.3 — see EXPERIMENTS.md.)");
    Ok(())
}
