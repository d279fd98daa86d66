//! Regenerates Figure 4: SSB with GPU-fitting working sets (nominal SF100),
//! data resident in GPU device memory for the GPU systems.
//!
//! Usage: `cargo run --release -p hetex-bench --bin fig4`
//! (set `HETEX_PHYSICAL_SF` to change the physical dataset size).

fn main() {
    let sf = hetex_bench::workload::physical_sf_from_env();
    println!("physical SF = {sf}, modeling nominal SF100\n");
    if let Err(e) = hetex_bench::figures::figure4(sf) {
        eprintln!("figure 4 failed: {e}");
        std::process::exit(1);
    }
}
