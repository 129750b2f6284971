//! Runs every experiment in sequence — the full evaluation suite.

use btr_bench::{bench_rows, bench_seed, experiments as e};

type Experiment = fn(usize, u64) -> String;

fn main() {
    let (rows, seed) = (bench_rows(), bench_seed());
    let suite: Vec<(&str, Experiment)> = vec![
        ("table2", e::table2::run),
        ("figure4", e::figure4::run),
        ("figure5", e::figure5::run),
        ("figure6", e::figure6::run),
        ("figure7", e::figure7::run),
        ("table3", e::table3::run),
        ("pde_pool", e::pde_pool::run),
        ("figure8", e::figure8::run),
        ("table4", e::table4::run),
        ("scan_cost", e::scan_cost::run),
        ("column_scan", e::column_scan::run),
        ("compression_speed", e::compression_speed::run),
        ("scalar_ablation", e::scalar_ablation::run),
    ];
    for (name, run) in suite {
        eprintln!(">>> running {name} (rows={rows}, seed={seed})");
        println!("{}\n{}", "=".repeat(78), run(rows, seed));
    }
}
