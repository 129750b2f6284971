//! §6.4 compression-speed table: single-threaded MB/s from CSV and from the
//! in-memory binary format, plus the resulting compression factor.

use crate::formats::Format;
use crate::{time_it, Table};
use btr_datagen::pbi;
use btr_lz::Codec;
use btrblocks::{Column, ColumnData, ColumnType, Relation, StringArena};

/// Renders a relation as CSV (no quoting — the generators avoid commas).
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    out.push_str(
        &rel.columns
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in 0..rel.rows() {
        let mut first = true;
        for col in &rel.columns {
            if !first {
                out.push(',');
            }
            first = false;
            match &col.data {
                ColumnData::Int(v) => out.push_str(&v[row].to_string()),
                ColumnData::Double(v) => out.push_str(&format!("{}", v[row])),
                ColumnData::Str(a) => {
                    out.push_str(std::str::from_utf8(a.get(row)).unwrap_or("?"))
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses CSV produced by [`to_csv`] given the column types.
pub fn parse_csv(csv: &str, types: &[(String, ColumnType)]) -> Relation {
    let mut lines = csv.lines();
    let _header = lines.next();
    let mut ints: Vec<Vec<i32>> = Vec::new();
    let mut doubles: Vec<Vec<f64>> = Vec::new();
    let mut strings: Vec<StringArena> = Vec::new();
    // Column -> slot in its typed pool.
    let mut slots = Vec::new();
    for (_, ty) in types {
        match ty {
            ColumnType::Integer => {
                slots.push((0usize, ints.len()));
                ints.push(Vec::new());
            }
            ColumnType::Double => {
                slots.push((1, doubles.len()));
                doubles.push(Vec::new());
            }
            ColumnType::String => {
                slots.push((2, strings.len()));
                strings.push(StringArena::new());
            }
        }
    }
    for line in lines {
        for (field, &(kind, idx)) in line.split(',').zip(&slots) {
            match kind {
                0 => ints[idx].push(field.parse().unwrap_or(0)),
                1 => doubles[idx].push(field.parse().unwrap_or(0.0)),
                _ => strings[idx].push(field.as_bytes()),
            }
        }
    }
    let columns = types
        .iter()
        .zip(&slots)
        .map(|((name, _), &(kind, idx))| {
            let data = match kind {
                0 => ColumnData::Int(std::mem::take(&mut ints[idx])),
                1 => ColumnData::Double(std::mem::take(&mut doubles[idx])),
                _ => ColumnData::Str(std::mem::take(&mut strings[idx])),
            };
            Column::new(name.clone(), data)
        })
        .collect();
    Relation::new(columns)
}

/// Regenerates the §6.4 compression-speed table.
pub fn run(rows: usize, seed: u64) -> String {
    // CSV-friendly subset (commas never appear in these generators).
    let cols: Vec<_> = pbi::registry(rows, seed)
        .into_iter()
        .filter(|c| !matches!(c.data, ColumnData::Str(ref a) if a.iter().any(|s| s.contains(&b','))))
        .collect();
    let rel = btr_datagen::dataset_relation(cols);
    let types: Vec<(String, ColumnType)> = rel
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.data.column_type()))
        .collect();
    let csv = to_csv(&rel);
    let csv_mb = csv.len() as f64 / 1e6;
    let bin_mb = rel.heap_size() as f64 / 1e6;

    let mut table = Table::new(&["format", "from CSV MB/s", "from binary MB/s", "compr. factor"]);
    for fmt in [
        Format::Btr,
        Format::Parquet(Codec::SnappyLike),
        Format::Parquet(Codec::Heavy),
    ] {
        let (bytes, bin_secs) = time_it(|| fmt.compress(&rel));
        let (_, csv_secs) = time_it(|| {
            let parsed = parse_csv(&csv, &types);
            fmt.compress(&parsed)
        });
        table.row(vec![
            fmt.name().to_string(),
            format!("{:.1}", csv_mb / csv_secs.max(1e-12)),
            format!("{:.1}", bin_mb / bin_secs.max(1e-12)),
            format!("{:.2}", rel.heap_size() as f64 / bytes.len().max(1) as f64),
        ]);
    }
    format!(
        "Section 6.4: single-threaded compression speed ({} rows, CSV {:.1} MB, binary {:.1} MB)\n\n{}",
        rows, csv_mb, bin_mb,
        table.render()
    )
}
