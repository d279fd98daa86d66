//! Regenerates Figure 5: SSB with non-GPU-fitting working sets (nominal
//! SF1000), pre-loaded in CPU memory for all systems.
//!
//! Usage: `cargo run --release -p hetex-bench --bin fig5`

fn main() {
    let sf = hetex_bench::workload::physical_sf_from_env();
    println!("physical SF = {sf}, modeling nominal SF1000\n");
    if let Err(e) = hetex_bench::figures::figure5(sf) {
        eprintln!("figure 5 failed: {e}");
        std::process::exit(1);
    }
}
