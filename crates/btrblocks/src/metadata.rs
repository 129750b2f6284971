//! Zone-map sidecar: per-block statistics tracked *outside* the data file.
//!
//! The paper deliberately keeps the data format metadata-free (§2.1):
//! "one would like to prune data using statistics and indices *before*
//! accessing a file through a high-latency network. […] Metadata, statistics
//! and indices are completely orthogonal and may be added on top or tracked
//! separately." This module is that orthogonal companion: a compact sidecar
//! holding per-block min/max (ints and doubles) and counts, plus predicate
//! pruning that decides which blocks a scan can skip entirely.

use crate::types::{CmpOp, Literal};
use crate::types::{ColumnData, ColumnType};
use crate::writer::{Reader, WriteLe};
use crate::{Error, Result};

/// Per-block zone map.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockZone {
    /// Integer block: `(min, max)`.
    Int { min: i32, max: i32 },
    /// Double block: `(min, max)` over non-NaN values plus a NaN flag.
    Double { min: f64, max: f64, has_nan: bool },
    /// String block: no ordering stats tracked (dictionary order is not
    /// value order); only the value count.
    Str,
}

/// Sidecar for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name (matches the data file).
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
    /// Value count per block.
    pub block_rows: Vec<u32>,
    /// Zone map per block.
    pub zones: Vec<BlockZone>,
}

/// Sidecar for a whole relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sidecar {
    /// Per-column metadata, in file order.
    pub columns: Vec<ColumnMeta>,
}

/// Zone of one integer block slice, via the SIMD min/max kernel.
fn zone_of_int(values: &[i32], mode: crate::config::SimdMode) -> BlockZone {
    match crate::simd::minmax_i32(values, mode) {
        Some((min, max)) => BlockZone::Int { min, max },
        None => BlockZone::Int { min: 0, max: 0 },
    }
}

/// Zone of one double block slice: NaN-aware SIMD min/max plus the NaN flag.
fn zone_of_f64(values: &[f64], mode: crate::config::SimdMode) -> BlockZone {
    let (mut min, mut max, has_nan) = crate::simd::minmax_f64(values, mode);
    if min > max {
        // All NaN or empty.
        min = 0.0;
        max = 0.0;
    }
    BlockZone::Double { min, max, has_nan }
}

impl Sidecar {
    /// Builds the sidecar while (re)scanning the uncompressed column blocks.
    /// `block_size` must match the compression config.
    pub fn build(rel: &crate::relation::Relation, block_size: usize) -> Sidecar {
        Sidecar::build_with(rel, block_size, crate::config::SimdMode::Auto)
    }

    /// [`Sidecar::build`] with explicit SIMD dispatch (the §6.8 ablation).
    /// Zones are computed directly over block-sized slices of the column —
    /// no per-block copies — with the min/max folds vectorized.
    pub fn build_with(
        rel: &crate::relation::Relation,
        block_size: usize,
        mode: crate::config::SimdMode,
    ) -> Sidecar {
        let bs = block_size.max(1);
        let columns = rel
            .columns
            .iter()
            .map(|col| {
                let n = col.data.len();
                let mut block_rows = Vec::new();
                let mut zones = Vec::new();
                let mut start = 0usize;
                loop {
                    let end = (start + bs).min(n);
                    let zone = match &col.data {
                        // lint: allow(indexing) start..end is clamped to v.len() above
                        ColumnData::Int(v) => zone_of_int(&v[start..end], mode),
                        // lint: allow(indexing) start..end is clamped to v.len() above
                        ColumnData::Double(v) => zone_of_f64(&v[start..end], mode),
                        // No string zone stats (dictionary order is not
                        // value order); only the count is tracked.
                        ColumnData::Str(_) => BlockZone::Str,
                    };
                    // lint: allow(cast) end - start is at most block_size
                    block_rows.push((end - start) as u32);
                    zones.push(zone);
                    start = end;
                    if start >= n {
                        break;
                    }
                }
                ColumnMeta {
                    name: col.name.clone(),
                    column_type: col.data.column_type(),
                    block_rows,
                    zones,
                }
            })
            .collect();
        Sidecar { columns }
    }

    /// Finds a column's metadata by name.
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Serializes the sidecar (the separate metadata file of §2.1).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"BTRM");
        // lint: allow(cast) encode side: in-memory field sizes fit the wire widths
        out.put_u32(self.columns.len() as u32);
        for col in &self.columns {
            let name = col.name.as_bytes();
            // lint: allow(cast) encode side: column names are short identifiers
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.put_u8(col.column_type.tag());
            // lint: allow(cast) encode side: zone count fits u32
            out.put_u32(col.zones.len() as u32);
            for (rows, zone) in col.block_rows.iter().zip(&col.zones) {
                out.put_u32(*rows);
                match zone {
                    BlockZone::Int { min, max } => {
                        out.put_u8(0);
                        out.put_i32(*min);
                        out.put_i32(*max);
                    }
                    BlockZone::Double { min, max, has_nan } => {
                        out.put_u8(1);
                        out.put_f64(*min);
                        out.put_f64(*max);
                        out.put_u8(u8::from(*has_nan));
                    }
                    BlockZone::Str => out.put_u8(2),
                }
            }
        }
        out
    }

    /// Parses a sidecar produced by [`Sidecar::to_bytes`]. Counts are
    /// checked against the remaining input before anything is reserved.
    pub fn from_bytes(bytes: &[u8]) -> Result<Sidecar> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != b"BTRM" {
            return Err(Error::Corrupt("bad sidecar magic"));
        }
        let n_cols = r.u32()? as usize;
        // A column needs at least name_len + tag + block_count bytes.
        if n_cols > r.remaining() / 7 {
            return Err(Error::LimitExceeded("sidecar column count exceeds input"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name_len = r.u16()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| Error::Corrupt("sidecar name not utf-8"))?;
            let column_type =
                ColumnType::from_tag(r.u8()?).ok_or(Error::Corrupt("bad sidecar type"))?;
            let n_blocks = r.u32()? as usize;
            // A block needs at least rows + zone tag bytes.
            if n_blocks > r.remaining() / 5 {
                return Err(Error::LimitExceeded("sidecar block count exceeds input"));
            }
            let mut block_rows = Vec::with_capacity(n_blocks);
            let mut zones = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                block_rows.push(r.u32()?);
                match r.u8()? {
                    0 => zones.push(BlockZone::Int {
                        min: r.i32()?,
                        max: r.i32()?,
                    }),
                    1 => zones.push(BlockZone::Double {
                        min: r.f64()?,
                        max: r.f64()?,
                        has_nan: r.u8()? != 0,
                    }),
                    2 => zones.push(BlockZone::Str),
                    _ => return Err(Error::Corrupt("bad zone tag")),
                }
            }
            columns.push(ColumnMeta {
                name,
                column_type,
                block_rows,
                zones,
            });
        }
        if !r.rest().is_empty() {
            return Err(Error::Corrupt("trailing bytes after sidecar"));
        }
        Ok(Sidecar { columns })
    }
}

impl BlockZone {
    /// Whether a block with this zone may contain rows matching the
    /// predicate. `true` means "must be fetched"; `false` means "prune".
    pub fn may_match(&self, op: CmpOp, literal: &Literal) -> bool {
        match (self, literal) {
            (BlockZone::Int { min, max }, Literal::Int(l)) => range_may_match(*min, *max, op, *l),
            (BlockZone::Double { min, max, has_nan }, Literal::Double(l)) => {
                // NaN never matches any comparison, so it cannot *add*
                // matches, but it also does not widen min/max.
                let _ = has_nan;
                if l.is_nan() {
                    return false;
                }
                range_may_match(*min, *max, op, *l)
            }
            // No string zone stats: never prune.
            (BlockZone::Str, _) => true,
            // Type-mismatched predicate: be safe, fetch the block.
            _ => true,
        }
    }
}

fn range_may_match<T: PartialOrd>(min: T, max: T, op: CmpOp, lit: T) -> bool {
    match op {
        CmpOp::Eq => min <= lit && lit <= max,
        CmpOp::Lt => min < lit,
        CmpOp::Le => min <= lit,
        CmpOp::Gt => max > lit,
        CmpOp::Ge => max >= lit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Column, Relation};
    use crate::Config;

    fn sample() -> (Relation, Config) {
        let cfg = Config {
            block_size: 1_000,
            ..Config::default()
        };
        // Sorted data → disjoint block ranges → aggressive pruning.
        let rel = Relation::new(vec![Column::new(
            "sorted",
            ColumnData::Int((0..10_000).collect()),
        )]);
        (rel, cfg)
    }

    #[test]
    fn sidecar_roundtrips() {
        let (rel, cfg) = sample();
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        let bytes = sidecar.to_bytes();
        assert_eq!(Sidecar::from_bytes(&bytes).unwrap(), sidecar);
        assert!(Sidecar::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Sidecar::from_bytes(b"junk").is_err());
    }

    #[test]
    fn hostile_counts_are_capped() {
        // A column count no input could hold, before any column.
        let mut bytes = b"BTRM".to_vec();
        bytes.put_u32(u32::MAX);
        assert_eq!(
            Sidecar::from_bytes(&bytes),
            Err(Error::LimitExceeded("sidecar column count exceeds input"))
        );
        // One column that claims u32::MAX blocks.
        let mut bytes = b"BTRM".to_vec();
        bytes.put_u32(1);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'c');
        bytes.put_u8(ColumnType::Integer.tag());
        bytes.put_u32(u32::MAX);
        assert_eq!(
            Sidecar::from_bytes(&bytes),
            Err(Error::LimitExceeded("sidecar block count exceeds input"))
        );
        // Trailing bytes after a valid sidecar.
        let (rel, cfg) = sample();
        let mut bytes = Sidecar::build(&rel, cfg.block_size).to_bytes();
        bytes.push(0);
        assert!(Sidecar::from_bytes(&bytes).is_err());
    }

    #[test]
    fn every_truncation_is_an_error() {
        let (rel, cfg) = sample();
        let bytes = Sidecar::build(&rel, cfg.block_size).to_bytes();
        for cut in 0..bytes.len() {
            assert!(Sidecar::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn zones_capture_min_max() {
        let (rel, cfg) = sample();
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        match sidecar.columns[0].zones[3] {
            BlockZone::Int { min, max } => {
                assert_eq!(min, 3_000);
                assert_eq!(max, 3_999);
            }
            ref other => panic!("unexpected zone {other:?}"),
        }
    }

    /// Blocks of column 0 whose zone may match `op literal`: the blocks a
    /// scan fetches.
    fn surviving(sidecar: &Sidecar, op: CmpOp, literal: &Literal) -> Vec<usize> {
        let zones = sidecar.columns[0].zones.iter().enumerate();
        zones.filter_map(|(i, z)| z.may_match(op, literal).then_some(i)).collect()
    }

    #[test]
    fn zones_skip_blocks() {
        let (rel, cfg) = sample();
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        // Equality on a sorted column: only the containing block survives.
        assert_eq!(surviving(&sidecar, CmpOp::Eq, &Literal::Int(4_321)), vec![4]);
        // Range predicate: a prefix of blocks.
        assert_eq!(surviving(&sidecar, CmpOp::Lt, &Literal::Int(2_500)), vec![0, 1, 2]);
    }

    #[test]
    fn double_zone_nan_handling() {
        for mode in [crate::config::SimdMode::Auto, crate::config::SimdMode::ForceScalar] {
            let zone = zone_of_f64(&[1.0, f64::NAN, 3.0], mode);
            match zone {
                BlockZone::Double { min, max, has_nan } => {
                    assert_eq!(min, 1.0);
                    assert_eq!(max, 3.0);
                    assert!(has_nan);
                }
                _ => panic!(),
            }
            assert!(!zone.may_match(CmpOp::Eq, &Literal::Double(f64::NAN)));
            assert!(zone.may_match(CmpOp::Eq, &Literal::Double(2.0)));
            assert!(!zone.may_match(CmpOp::Gt, &Literal::Double(3.0)));
        }
    }

    #[test]
    fn sidecar_simd_modes_agree() {
        // The SIMD and scalar zone builders must produce identical sidecars.
        let rel = crate::relation::Relation::new(vec![crate::relation::Column::new(
            "v",
            ColumnData::Int((0..10_000).map(|i| (i * 31) % 997 - 400).collect()),
        )]);
        let auto = Sidecar::build_with(&rel, 700, crate::config::SimdMode::Auto);
        let scalar = Sidecar::build_with(&rel, 700, crate::config::SimdMode::ForceScalar);
        assert_eq!(auto, scalar);
    }

    #[test]
    fn string_zones_never_prune() {
        let zone = BlockZone::Str;
        assert!(zone.may_match(CmpOp::Eq, &Literal::Str(b"x".to_vec())));
    }

    /// Reference filter, row by row over the raw values. Pruning is only
    /// correct if it keeps every block holding a row this finds.
    fn reference_double_filter(values: &[f64], op: CmpOp, lit: f64) -> Vec<u32> {
        values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| op.matches(v, &lit).then_some(i as u32))
            .collect()
    }

    #[test]
    fn all_nan_blocks_prune_safely() {
        let cfg = Config {
            block_size: 100,
            ..Config::default()
        };
        // Block 0: plain values. Block 1: all NaN. Block 2: plain values.
        let mut values = vec![0.0f64; 300];
        for (i, v) in values.iter_mut().enumerate() {
            *v = match i / 100 {
                0 => i as f64,
                1 => f64::NAN,
                _ => i as f64 - 200.0,
            };
        }
        let rel = Relation::new(vec![Column::new(
            "d",
            ColumnData::Double(values.clone()),
        )]);
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        // The all-NaN block's zone collapses to (0.0, 0.0) + has_nan.
        match sidecar.columns[0].zones[1] {
            BlockZone::Double { min, max, has_nan } => {
                assert_eq!((min, max), (0.0, 0.0));
                assert!(has_nan);
            }
            ref other => panic!("unexpected zone {other:?}"),
        }
        for (op, lit) in [
            (CmpOp::Eq, 0.0),
            (CmpOp::Eq, 50.0),
            (CmpOp::Lt, 10.0),
            (CmpOp::Ge, 0.0),
            (CmpOp::Gt, 98.5),
            (CmpOp::Eq, f64::NAN),
        ] {
            // Every block holding a matching row survives.
            let kept = surviving(&sidecar, op, &Literal::Double(lit));
            for row in reference_double_filter(&values, op, lit) {
                assert!(kept.contains(&(row as usize / 100)), "op {op:?} lit {lit} row {row}");
            }
        }
        // A NaN literal prunes everything outright: NaN matches no comparison.
        assert!(surviving(&sidecar, CmpOp::Eq, &Literal::Double(f64::NAN)).is_empty());
    }

    #[test]
    fn has_nan_does_not_widen_range_pruning() {
        // NaN values in a block must not stop range predicates from pruning
        // on the non-NaN min/max — NaN can never satisfy the predicate.
        let cfg = Config {
            block_size: 4,
            ..Config::default()
        };
        let values = vec![1.0, 2.0, f64::NAN, 3.0, 10.0, f64::NAN, 11.0, 12.0];
        let rel = Relation::new(vec![Column::new(
            "d",
            ColumnData::Double(values),
        )]);
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        // Gt(5): block 0 (max 3) prunes even though it contains NaN.
        assert_eq!(surviving(&sidecar, CmpOp::Gt, &Literal::Double(5.0)), vec![1]);
        // Le(3): block 1 (min 10) prunes.
        assert_eq!(surviving(&sidecar, CmpOp::Le, &Literal::Double(3.0)), vec![0]);
        // Boundary checks on the zone itself: max is 3.0 (not NaN-poisoned).
        match sidecar.columns[0].zones[0] {
            BlockZone::Double { min, max, has_nan } => {
                assert_eq!((min, max), (1.0, 3.0));
                assert!(has_nan);
            }
            ref other => panic!("unexpected zone {other:?}"),
        }
    }

    #[test]
    fn string_columns_are_never_pruned_incorrectly() {
        // String zones carry no min/max, so every block must survive.
        let cfg = Config {
            block_size: 50,
            ..Config::default()
        };
        let strings: Vec<String> = (0..250).map(|i| format!("k-{:03}", i % 60)).collect();
        let refs: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
        let rel = Relation::new(vec![Column::new(
            "s",
            ColumnData::Str(crate::types::StringArena::from_strs(&refs)),
        )]);
        let sidecar = Sidecar::build(&rel, cfg.block_size);
        assert!(sidecar.columns[0]
            .zones
            .iter()
            .all(|z| matches!(z, BlockZone::Str)));
        for (op, lit) in [(CmpOp::Eq, "k-007"), (CmpOp::Lt, "k-002")] {
            let lit = Literal::Str(lit.as_bytes().to_vec());
            assert_eq!(surviving(&sidecar, op, &lit), vec![0, 1, 2, 3, 4], "{op:?}");
        }
    }
}
