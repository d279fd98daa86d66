//! Regenerates Figure 6: scalability of Proteus on SSB SF1000 — speed-up per
//! query group versus the number of CPU cores, with and without two GPUs.
//!
//! Usage: `cargo run --release -p hetex-bench --bin fig6`

fn main() {
    let sf = hetex_bench::workload::physical_sf_from_env();
    println!("physical SF = {sf}, modeling nominal SF1000\n");
    let cores = [0, 1, 2, 4, 8, 12, 16, 20, 24];
    if let Err(e) = hetex_bench::figures::figure6(sf, &cores) {
        eprintln!("figure 6 failed: {e}");
        std::process::exit(1);
    }
}
