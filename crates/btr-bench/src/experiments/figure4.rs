//! Figure 4: compression ratio as encoding techniques are successively added
//! to the scheme pool, per type.

use crate::Table;
use btr_datagen::pbi;
use btrblocks::{ColumnData, Config, Relation, SchemeCode};

fn columns_of_type(rows: usize, seed: u64, want: fn(&ColumnData) -> bool) -> Vec<Relation> {
    pbi::registry(rows, seed)
        .into_iter()
        .filter(|c| want(&c.data))
        .map(|c| Relation::new(vec![c.into_column()]))
        .collect()
}

fn ratio(rels: &[Relation], pool: &[SchemeCode]) -> f64 {
    let cfg = Config::default().with_pool(pool);
    let mut unc = 0usize;
    let mut comp = 0usize;
    for rel in rels {
        unc += rel.heap_size();
        comp += btrblocks::compress(rel, &cfg)
            .expect("compress")
            .to_bytes()
            .len();
    }
    unc as f64 / comp.max(1) as f64
}

fn sequence(
    out: &mut String,
    label: &str,
    rels: &[Relation],
    steps: &[(&str, &[SchemeCode])],
) {
    let mut table = Table::new(&["pool", "compression-ratio"]);
    for (name, pool) in steps {
        table.row(vec![name.to_string(), format!("{:.2}", ratio(rels, pool))]);
    }
    out.push_str(&format!("== {label} ==\n"));
    out.push_str(&table.render());
    out.push('\n');
}

/// Regenerates Figure 4's ratio panel for all three types.
pub fn run(rows: usize, seed: u64) -> String {
    use SchemeCode::*;
    let mut out =
        String::from("Figure 4: compression ratio while successively enabling techniques\n\n");

    let doubles = columns_of_type(rows, seed, |d| matches!(d, ColumnData::Double(_)));
    sequence(
        &mut out,
        "double",
        &doubles,
        &[
            ("uncompressed", &[]),
            ("+onevalue", &[OneValue]),
            ("+dictionary", &[OneValue, Dict]),
            ("+rle", &[OneValue, Dict, Rle]),
            ("+frequency", &[OneValue, Dict, Rle, Frequency]),
            ("+pseudodecimal", &[OneValue, Dict, Rle, Frequency, Pseudodecimal, FastBp128, FastPfor]),
        ],
    );

    let ints = columns_of_type(rows, seed, |d| matches!(d, ColumnData::Int(_)));
    sequence(
        &mut out,
        "integer",
        &ints,
        &[
            ("uncompressed", &[]),
            ("+onevalue", &[OneValue]),
            ("+fastbp128", &[OneValue, FastBp128]),
            ("+fastpfor", &[OneValue, FastBp128, FastPfor]),
            ("+rle", &[OneValue, FastBp128, FastPfor, Rle]),
            ("+dictionary", &[OneValue, FastBp128, FastPfor, Rle, Dict]),
            ("+frequency", &[OneValue, FastBp128, FastPfor, Rle, Dict, Frequency]),
        ],
    );

    let strings = columns_of_type(rows, seed, |d| matches!(d, ColumnData::Str(_)));
    sequence(
        &mut out,
        "string",
        &strings,
        &[
            ("uncompressed", &[]),
            ("+onevalue", &[OneValue]),
            ("+fsst", &[OneValue, Fsst]),
            ("+dictionary", &[OneValue, Fsst, Dict, FastBp128, FastPfor, Rle]),
            ("+dict-fsst", &[OneValue, Fsst, Dict, DictFsst, FastBp128, FastPfor, Rle]),
        ],
    );
    out
}
