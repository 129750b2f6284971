//! Regenerates the paper's compression_speed experiment; see `btr_bench::experiments::compression_speed`.

fn main() {
    println!(
        "{}",
        btr_bench::experiments::compression_speed::run(btr_bench::bench_rows(), btr_bench::bench_seed())
    );
}
