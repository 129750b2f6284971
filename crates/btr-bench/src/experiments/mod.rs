//! One module per byte-count table/figure of the paper's evaluation section.
//!
//! Every module exposes `run(rows, seed) -> String`, returning the rendered
//! table/series; [`crate::tables`] concatenates them.

pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod pde_pool;
pub mod table2;
pub mod table3;
pub mod table4;
