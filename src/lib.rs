//! Umbrella crate for the BtrBlocks reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests can use a
//! single dependency. See `README.md` for an overview and `DESIGN.md` for the
//! system inventory and experiment index.

pub use btr_bitpacking as bitpacking;
pub use btr_datagen as datagen;
pub use btr_float as float;
pub use btr_fsst as fsst;
pub use btr_lz as lz;
pub use btr_roaring as roaring;
pub use btr_s3sim as s3sim;
pub use btr_scan as scan;
pub use btrblocks;
pub use orc_lite;
pub use parquet_lite;
