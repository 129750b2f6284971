//! `btr` — a small CLI for the BtrBlocks reproduction.
//!
//! ```text
//! btr compress   <in.csv> <out.btr>   compress a CSV file (types inferred)
//! btr decompress <in.btr> <out.csv>   restore the CSV
//! btr inspect    <in.btr>             per-column schemes, blocks, sizes
//! btr filter     <in.btr> <column> <op> <literal>   count matching rows
//!                                      (predicate runs on compressed blocks)
//! ```
//!
//! CSV handling is deliberately simple (no quoting/escapes): the tool exists
//! to exercise the library end-to-end from a shell, not to be a CSV parser.
//! A column is typed Integer or Double only when every field prints back to
//! the text it was parsed from, so `decompress` restores the input byte for
//! byte: `00501`, `+7` and `12.50` parse as numbers but stay strings.

use btrblocks_repro::btrblocks::{
    self, CmpOp, Column, ColumnData, ColumnType, Config, Literal, Relation, StringArena,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("compress") if args.len() == 3 => compress(&args[1], &args[2]),
        Some("decompress") if args.len() == 3 => decompress(&args[1], &args[2]),
        Some("inspect") if args.len() == 2 => inspect(&args[1]),
        Some("filter") if args.len() == 5 => filter(&args[1], &args[2], &args[3], &args[4]),
        _ => {
            eprintln!(
                "usage:\n  btr compress   <in.csv> <out.btr>\n  btr decompress <in.btr> <out.csv>\n  btr inspect    <in.btr>\n  btr filter     <in.btr> <column> <eq|lt|le|gt|ge> <literal>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Parses a column as `T` if every field is the text `T` prints (`to_csv`
/// uses the same `{}`), so typing it cannot change what comes back. `None`
/// for an empty column.
fn parse_faithful<T: std::str::FromStr + ToString>(fields: &[&str]) -> Option<Vec<T>> {
    if fields.is_empty() {
        return None;
    }
    fields.iter().map(|f| f.parse::<T>().ok().filter(|v| v.to_string() == *f)).collect()
}

/// Infers each column's type from its values: Integer ⊂ Double ⊂ String.
fn infer_relation(csv: &str) -> Result<Relation, AnyError> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().ok_or("empty csv")?.split(',').collect();
    let rows: Vec<Vec<&str>> = lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .collect();
    for (i, r) in rows.iter().enumerate() {
        if r.len() != header.len() {
            return Err(format!("row {} has {} fields, expected {}", i + 2, r.len(), header.len()).into());
        }
    }
    let columns = header
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let fields: Vec<&str> = rows.iter().map(|r| r[ci]).collect();
            let data = if let Some(ints) = parse_faithful(&fields) {
                ColumnData::Int(ints)
            } else if let Some(doubles) = parse_faithful(&fields) {
                ColumnData::Double(doubles)
            } else {
                let mut arena = StringArena::new();
                for f in &fields {
                    arena.push(f.as_bytes());
                }
                ColumnData::Str(arena)
            };
            Column::new(name.trim().to_string(), data)
        })
        .collect();
    Ok(Relation::new(columns))
}

fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    out.push_str(
        &rel.columns.iter().map(|c| c.name.as_str()).collect::<Vec<_>>().join(","),
    );
    out.push('\n');
    for row in 0..rel.rows() {
        for (i, col) in rel.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &col.data {
                ColumnData::Int(v) => out.push_str(&v[row].to_string()),
                ColumnData::Double(v) => out.push_str(&format!("{}", v[row])),
                ColumnData::Str(a) => {
                    out.push_str(&String::from_utf8_lossy(a.get(row)));
                }
            }
        }
        out.push('\n');
    }
    out
}

fn compress(input: &str, output: &str) -> Result<(), AnyError> {
    let csv = std::fs::read_to_string(input)?;
    let rel = infer_relation(&csv)?;
    let cfg = Config::default();
    let compressed = btrblocks::compress(&rel, &cfg)?;
    let bytes = compressed.to_bytes();
    std::fs::write(output, &bytes)?;
    println!(
        "{} rows x {} columns: {} -> {} bytes ({:.2}x)",
        rel.rows(),
        rel.columns.len(),
        rel.heap_size(),
        bytes.len(),
        rel.heap_size() as f64 / bytes.len().max(1) as f64
    );
    for col in &compressed.columns {
        println!(
            "  {:<24} {:>8}  {}",
            col.name,
            match col.column_type {
                ColumnType::Integer => "integer",
                ColumnType::Double => "double",
                ColumnType::String => "string",
            },
            col.schemes.first().map(|s| s.name()).unwrap_or("-"),
        );
    }
    Ok(())
}

fn decompress(input: &str, output: &str) -> Result<(), AnyError> {
    let bytes = std::fs::read(input)?;
    let rel = btrblocks::decompress(&bytes, &Config::default())?;
    std::fs::write(output, to_csv(&rel))?;
    println!("restored {} rows x {} columns", rel.rows(), rel.columns.len());
    Ok(())
}

fn inspect(input: &str) -> Result<(), AnyError> {
    let bytes = std::fs::read(input)?;
    let compressed = btrblocks::CompressedRelation::from_bytes(&bytes)?;
    println!("rows: {}, columns: {}, file: {} bytes", compressed.rows, compressed.columns.len(), bytes.len());
    for col in &compressed.columns {
        let size: usize = col.blocks.iter().map(|b| b.len()).sum();
        let schemes: Vec<&str> = col.schemes.iter().map(|s| s.name()).collect();
        println!(
            "  {:<24} {:>7} blocks {:>10} bytes  nulls:{:>2}  schemes: {}",
            col.name,
            col.blocks.len(),
            size,
            if col.nulls.is_empty() { "no" } else { "yes" },
            schemes.join(", "),
        );
    }
    Ok(())
}

fn filter(input: &str, column: &str, op: &str, literal: &str) -> Result<(), AnyError> {
    let bytes = std::fs::read(input)?;
    let compressed = btrblocks::CompressedRelation::from_bytes(&bytes)?;
    let cfg = Config::default();
    let col = compressed
        .columns
        .iter()
        .find(|c| c.name == column)
        .ok_or_else(|| format!("no column named {column:?}"))?;
    let op = match op {
        "eq" => CmpOp::Eq,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(format!("unknown op {other:?} (use eq|lt|le|gt|ge)").into()),
    };
    let lit = match col.column_type {
        ColumnType::Integer => Literal::Int(literal.parse()?),
        ColumnType::Double => Literal::Double(literal.parse()?),
        ColumnType::String => Literal::Str(literal.as_bytes().to_vec()),
    };
    let mut matches = 0u64;
    for block in &col.blocks {
        matches +=
            btrblocks_repro::btrblocks::filter_block(block, col.column_type, op, &lit, &cfg)?
                .cardinality();
    }
    println!("{matches} rows match (evaluated on compressed blocks)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_that_do_not_print_back_are_not_numeric() {
        for field in ["00501", "+7", "1.50", "2.00", "1e3", "-0.0"] {
            assert_eq!(parse_faithful::<i32>(&[field]), None, "{field} as i32");
            assert_eq!(parse_faithful::<f64>(&[field]), None, "{field} as f64");
        }
        // `-0` is no integer (0 prints `0`) but is the text of the double -0.0.
        assert_eq!(parse_faithful::<i32>(&["-0"]), None);
        assert!(parse_faithful::<f64>(&["-0"]).is_some_and(|v| v[0].is_sign_negative()));
        // One unfaithful field makes the whole column a string.
        assert_eq!(parse_faithful::<i32>(&["7", "08"]), None);
        assert_eq!(parse_faithful::<i32>(&[]), None);
    }

    #[test]
    fn fields_that_print_back_are_numeric() {
        assert_eq!(parse_faithful::<i32>(&["7", "-12"]), Some(vec![7, -12]));
        assert_eq!(parse_faithful::<i32>(&["1.5"]), None);
        assert_eq!(parse_faithful::<f64>(&["7", "-12", "1.5"]), Some(vec![7.0, -12.0, 1.5]));
        assert!(parse_faithful::<f64>(&["NaN"]).is_some_and(|v| v[0].is_nan()));
    }

    #[test]
    fn inferred_relation_prints_back_to_its_csv() {
        let csv = "zip,price,qty\n00501,1.50,+7\n02134,2.00,8\n";
        let rel = infer_relation(csv).expect("well-formed csv");
        assert!(rel.columns.iter().all(|c| matches!(c.data, ColumnData::Str(_))));
        assert_eq!(to_csv(&rel), csv);
        let csv = "id,ratio,tag\n7,1.5,a\n-12,NaN,b\n";
        let rel = infer_relation(csv).expect("well-formed csv");
        assert!(matches!(rel.columns[0].data, ColumnData::Int(_)));
        assert!(matches!(rel.columns[1].data, ColumnData::Double(_)));
        assert_eq!(to_csv(&rel), csv);
    }
}
