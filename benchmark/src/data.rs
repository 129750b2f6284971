//! Inputs: the two dataset workloads, the query classes over them, and the
//! set-up step (datagen → compress → upload) every run starts with.
//!
//! Everything is a function of `(workload, seed)`; the program under test
//! only ever sees the generated relation and the queries built here.

use btr_expr::{col, lit, Aggregate, Expr};
use btr_s3sim::{ObjectStore, RetryPolicy};
use btr_scan::{BlockSource, ObjectStoreSource, RelationLayout, ScanSpec};
use btrblocks::{CmpOp, ColumnData, CompressedRelation, Config, Literal, Relation, Sidecar};
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["pbi", "tpch"];

/// Object keys the file is uploaded under; the service registers both.
pub const HOT: &str = "hot";
pub const COLD: &str = "cold";

/// The columns each query class touches, by name.
#[derive(Debug, Clone, Copy)]
pub struct QueryColumns {
    /// Non-decreasing integer key: zone maps prune range queries on it.
    pub key: &'static str,
    /// High-cardinality string column (the expensive projection).
    pub wide: &'static str,
    /// Unsorted filter columns: one integer, two doubles.
    pub f_int: &'static str,
    pub f_dbl_a: &'static str,
    pub f_dbl_b: &'static str,
    /// Double column the aggregate class sums.
    pub measure: &'static str,
    /// The unfiltered 4-column projection.
    pub full: [&'static str; 4],
    /// The service's 3-column full scan.
    pub svc_full: [&'static str; 3],
}

const PBI_COLUMNS: QueryColumns = QueryColumns {
    key: "Medicare2/row_id",
    wide: "Generico/url",
    f_int: "Telco/cell_id",
    f_dbl_a: "Telco/TOTAL_MINS_P1",
    f_dbl_b: "CommonGovernment/10",
    measure: "Telco/TOTA_OUTGOING_REV_P3",
    full: [
        "Medicare2/row_id",
        "Telco/TOTA_OUTGOING_REV_P3",
        "Redfin2/property_type",
        "Generico/url",
    ],
    svc_full: ["Telco/cell_id", "CMSProvider/1", "PanCreactomy1/STREET1"],
};

const TPCH_COLUMNS: QueryColumns = QueryColumns {
    key: "tpch/l_orderkey",
    wide: "tpch/l_comment",
    f_int: "tpch/l_shipdate",
    f_dbl_a: "tpch/l_discount",
    f_dbl_b: "tpch/l_quantity",
    measure: "tpch/l_extendedprice",
    full: [
        "tpch/l_orderkey",
        "tpch/l_extendedprice",
        "tpch/l_shipmode",
        "tpch/l_comment",
    ],
    svc_full: ["tpch/l_partkey", "tpch/l_extendedprice", "tpch/l_comment"],
};

/// Rows per workload. `smoke` is the size `cargo test` runs.
pub fn rows_of(workload: &str, smoke: bool) -> usize {
    match (workload, smoke) {
        (_, true) => 16_000,
        ("pbi", false) => 256_000,
        _ => 512_000,
    }
}

/// One query: a conjunction of `column op literal` leaves over a projection
/// or a list of aggregates. The engine's [`ScanSpec`] and the naive oracle
/// are both derived from this one description.
#[derive(Debug, Clone)]
pub struct Query {
    pub leaves: Vec<(&'static str, CmpOp, Literal)>,
    pub project: Vec<&'static str>,
    pub aggs: Vec<Aggregate>,
}

impl Query {
    /// The spec handed to the scan engine or service.
    pub fn spec(&self) -> ScanSpec {
        let spec = if self.aggs.is_empty() {
            ScanSpec::project(self.project.iter().copied())
        } else {
            ScanSpec::aggregate(self.aggs.iter().cloned())
        };
        match self.filter() {
            Some(expr) => spec.with_expr(expr),
            None => spec,
        }
    }

    /// The leaves as one `AND` expression.
    pub fn filter(&self) -> Option<Expr> {
        self.leaves
            .iter()
            .map(|(name, op, literal)| {
                let (c, l) = (col(*name), lit(literal.clone()));
                match op {
                    CmpOp::Eq => c.eq(l),
                    CmpOp::Lt => c.lt(l),
                    CmpOp::Le => c.le(l),
                    CmpOp::Gt => c.gt(l),
                    CmpOp::Ge => c.ge(l),
                }
            })
            .reduce(Expr::and)
    }
}

/// Everything a run needs after set-up.
pub struct Prepared {
    pub workload: &'static str,
    pub cfg: Config,
    pub relation: Relation,
    pub columns: QueryColumns,
    pub compressed: CompressedRelation,
    pub bytes: Vec<u8>,
    pub sidecar: Sidecar,
    pub layout: RelationLayout,
    pub store: Arc<ObjectStore>,
    key_range: (i32, i32),
    filter_leaves: Vec<(&'static str, CmpOp, Literal)>,
}

/// Datagen + compress + serialize + sidecar + upload: the work a user does
/// once before any scan. `setup_s` times exactly this function.
pub fn setup(workload: &'static str, seed: u64, smoke: bool) -> Prepared {
    let rows = rows_of(workload, smoke);
    let (generated, columns) = match workload {
        "pbi" => (btr_datagen::pbi::registry(rows, seed), PBI_COLUMNS),
        "tpch" => (btr_datagen::tpch::registry(rows, seed), TPCH_COLUMNS),
        other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
    };
    let relation = btr_datagen::dataset_relation(generated);
    let cfg = Config::default();
    let compressed =
        btrblocks::compress(&relation, &cfg).expect("compress never fails on generated data");
    let bytes = compressed.to_bytes();
    let sidecar = Sidecar::build(&relation, cfg.block_size);
    let layout = RelationLayout::of(&compressed);
    let store = Arc::new(ObjectStore::new());
    store.put(HOT, bytes.clone());
    store.put(COLD, bytes.clone());

    let key = ints(&relation, columns.key);
    assert!(
        key.windows(2).all(|w| w[0] <= w[1]),
        "{} must be sorted",
        columns.key
    );
    let key_range = (key[0], key[key.len() - 1]);
    // Literals come from the data's own quantiles, so every seed keeps the
    // same selectivities: 20 % x 40 % x 50 % = about 4 % of rows survive.
    let f_int = sorted_ints(&relation, columns.f_int);
    let f_a = sorted_doubles(&relation, columns.f_dbl_a);
    let f_b = sorted_doubles(&relation, columns.f_dbl_b);
    let filter_leaves = vec![
        (
            columns.f_int,
            CmpOp::Ge,
            Literal::Int(quantile(&f_int, 0.40)),
        ),
        (
            columns.f_int,
            CmpOp::Lt,
            Literal::Int(quantile(&f_int, 0.60)),
        ),
        (
            columns.f_dbl_a,
            CmpOp::Ge,
            Literal::Double(quantile(&f_a, 0.30)),
        ),
        (
            columns.f_dbl_a,
            CmpOp::Le,
            Literal::Double(quantile(&f_a, 0.70)),
        ),
        (
            columns.f_dbl_b,
            CmpOp::Lt,
            Literal::Double(quantile(&f_b, 0.50)),
        ),
    ];
    Prepared {
        workload,
        cfg,
        relation,
        columns,
        compressed,
        bytes,
        sidecar,
        layout,
        store,
        key_range,
        filter_leaves,
    }
}

impl Prepared {
    /// A fresh source over the uploaded object `key` ([`HOT`] or [`COLD`]).
    pub fn source(&self, key: &str) -> Arc<dyn BlockSource> {
        Arc::new(ObjectStoreSource::new(
            self.store.clone(),
            key,
            self.layout.clone(),
            RetryPolicy::default(),
        ))
    }

    /// Rows whose key lies in a window `width` of the key domain wide,
    /// starting `offset` (0..1) of the way through it; projects `project`.
    pub fn key_window(&self, offset: f64, width: f64, project: Vec<&'static str>) -> Query {
        let (min, max) = self.key_range;
        let span = f64::from(max) - f64::from(min);
        let lo = f64::from(min) + offset.clamp(0.0, 1.0 - width) * span;
        Query {
            leaves: vec![
                (self.columns.key, CmpOp::Ge, Literal::Int(lo as i32)),
                (
                    self.columns.key,
                    CmpOp::Lt,
                    Literal::Int((lo + width * span) as i32),
                ),
            ],
            project,
            aggs: Vec::new(),
        }
    }

    /// `range`: a 2 % key window projecting the wide string column.
    pub fn range(&self, offset: f64) -> Query {
        self.key_window(offset, 0.02, vec![self.columns.wide])
    }

    /// `filter`: a Q6-like conjunct over three unsorted columns.
    pub fn filter(&self) -> Query {
        Query {
            leaves: self.filter_leaves.clone(),
            project: vec![self.columns.measure, self.columns.f_dbl_a],
            aggs: Vec::new(),
        }
    }

    /// `agg`: SUM and COUNT under the same filter.
    pub fn agg(&self) -> Query {
        Query {
            leaves: self.filter_leaves.clone(),
            project: Vec::new(),
            aggs: vec![
                Aggregate::sum(self.columns.measure),
                Aggregate::count(self.columns.key),
            ],
        }
    }

    /// `full`: the unfiltered 4-column projection.
    pub fn full(&self) -> Query {
        Query {
            leaves: Vec::new(),
            project: self.columns.full.to_vec(),
            aggs: Vec::new(),
        }
    }

    /// The service's point query: a 1 % key window over key, measure and the
    /// wide string.
    pub fn svc_point(&self, offset: f64) -> Query {
        let c = &self.columns;
        self.key_window(offset, 0.01, vec![c.key, c.measure, c.wide])
    }

    /// The service's 3-column full scan.
    pub fn svc_full(&self) -> Query {
        Query {
            leaves: Vec::new(),
            project: self.columns.svc_full.to_vec(),
            aggs: Vec::new(),
        }
    }
}

/// The named column's values.
pub fn column<'a>(rel: &'a Relation, name: &str) -> &'a ColumnData {
    &rel.columns
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no column {name:?} in the generated relation"))
        .data
}

fn ints<'a>(rel: &'a Relation, name: &str) -> &'a [i32] {
    match column(rel, name) {
        ColumnData::Int(v) => v,
        _ => panic!("{name} is not an integer column"),
    }
}

fn sorted_ints(rel: &Relation, name: &str) -> Vec<i32> {
    let mut v = ints(rel, name).to_vec();
    v.sort_unstable();
    v
}

fn sorted_doubles(rel: &Relation, name: &str) -> Vec<f64> {
    let ColumnData::Double(v) = column(rel, name) else {
        panic!("{name} is not a double column")
    };
    let mut v: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_unstable_by(f64::total_cmp);
    v
}

fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}
