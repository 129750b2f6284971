//! One module per table/figure of the paper's evaluation section.
//!
//! Every module exposes `run(rows, seed) -> String`, returning the rendered
//! table/series. Binaries under `src/bin/` print these; `bin/all` runs the
//! full suite. `EXPERIMENTS.md` records the paper-vs-measured comparison.

pub mod column_scan;
pub mod compression_speed;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod pde_pool;
pub mod scalar_ablation;
pub mod scan_cost;
pub mod table2;
pub mod table3;
pub mod table4;
