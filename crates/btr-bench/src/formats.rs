//! Uniform wrappers over the storage formats the byte-count tables compare.

use btr_lz::Codec;
use btrblocks::{Config, Relation};

/// A format variant of the paper's ratio comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// BtrBlocks with default config.
    Btr,
    /// parquet-lite with a general-purpose codec on top.
    Parquet(Codec),
}

impl Format {
    /// Label matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Format::Btr => "btrblocks",
            Format::Parquet(Codec::None) => "parquet",
            Format::Parquet(Codec::SnappyLike) => "parquet+snappy",
            Format::Parquet(Codec::Heavy) => "parquet+zstd",
        }
    }

    /// The Parquet-family lineup of Table 2 / Figure 7.
    pub fn table2_lineup() -> Vec<Format> {
        vec![
            Format::Parquet(Codec::None),
            Format::Parquet(Codec::SnappyLike),
            Format::Parquet(Codec::Heavy),
            Format::Btr,
        ]
    }

    /// Serializes `rel` in this format.
    pub fn compress(self, rel: &Relation) -> Vec<u8> {
        match self {
            Format::Btr => btrblocks::compress(rel, &Config::default())
                .expect("compress")
                .to_bytes(),
            Format::Parquet(codec) => parquet_lite::write(
                rel,
                &parquet_lite::WriteOptions {
                    codec,
                    ..parquet_lite::WriteOptions::default()
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrblocks::{Column, ColumnData, StringArena};

    #[test]
    fn btr_beats_plain_parquet_on_ratio() {
        // The qualitative Table 2 relationship on compressible data.
        let strings: Vec<String> = (0..3_000).map(|i| format!("v{}", i % 9)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![
            Column::new("i", ColumnData::Int((0..3_000).map(|i| i % 40).collect())),
            Column::new(
                "d",
                ColumnData::Double((0..3_000).map(|i| (i % 70) as f64 * 0.25).collect()),
            ),
            Column::new("s", ColumnData::Str(StringArena::from_strs(&refs))),
        ]);
        let btr = Format::Btr.compress(&rel).len();
        let parquet = Format::Parquet(Codec::None).compress(&rel).len();
        assert!(btr < parquet, "btr {btr} vs parquet {parquet}");
    }
}
