//! Encode-path guard: pins the root scheme, length and CRC-32C of every
//! block the `pbi` and `tpch` generators compress to at 64,000 rows, seed
//! 42, default `Config` (one block per column, 57 blocks).
//!
//! A change to statistics, selection or any scheme's encoder that moves a
//! single byte fails here with the column it moved; the failure message
//! carries the whole computed table, ready to paste over `GOLDEN` when the
//! format change is intended.

use btrblocks::crc32c::crc32c;
use btrblocks::{compress, Config};
use btr_datagen::{dataset_relation, pbi, tpch};

const ROWS: usize = 64_000;
const SEED: u64 = 42;

/// `(column, root scheme, block bytes, CRC-32C of the block)`.
const GOLDEN: &[(&str, &str, usize, u32)] = &[
    ("SalariesFrance/LIBDOM1", "Dictionary", 188, 0x5df6a444),
    ("MulheresMil/ped", "Dictionary", 1355, 0xc1249d8a),
    ("Redfin2/property_type", "Dictionary", 528, 0x53b4aa83),
    ("Motos/Medio", "OneValue", 14, 0xbb07512d),
    ("NYC/Community Board", "Dictionary", 58172, 0x5c076f90),
    ("PanCreactomy1/STREET1", "FSST", 324674, 0x2e201e41),
    ("Provider/nppes_provider_city", "Dictionary", 48963, 0xdf48280f),
    ("PanCreactomy1/CITY", "Dictionary", 48989, 0xe7c2660d),
    ("Uberlandia/municipio_da_ue", "Dictionary", 40818, 0x79adf7f0),
    ("Generico/url", "FSST", 702201, 0xc21064a7),
    ("TrainsUK1/station", "FSST", 237884, 0xf03374dc),
    ("Arade/descriptor", "Dict+FSST", 100360, 0xa0d82aee),
    ("RealEstate1/New Build?", "OneValue", 9, 0xff296abd),
    ("Medicare1/TOTAL_DAY_SUPPLY", "FastPFOR", 107793, 0xa428e7f7),
    ("Uberlandia/cod_ibge_da_ue", "Dictionary", 73962, 0xabf69c46),
    ("Eixo/cod_ibge_da_ue", "Dictionary", 75018, 0xe303541a),
    ("CommonGovernment/agency_key", "RLE", 423, 0x65361c02),
    ("Hatred/flag", "Dictionary", 7878, 0xd0950712),
    ("Medicare2/row_id", "FastBP128", 120341, 0xf10e718c),
    ("Telco/cell_id", "Dictionary", 122878, 0xcf78d8a5),
    ("Food/year", "RLE", 115, 0x96db8079),
    ("Telco/CHARGD_SMS_P3", "Dictionary", 23718, 0xf950c70b),
    ("Telco/TOTA_OUTGOING_REV_P3", "Dictionary", 39506, 0x15bee3f8),
    ("Telco/RECHRG_USED_P1", "Frequency", 159969, 0x8c31e4d7),
    ("Motos/InversionQ", "Pseudodec.", 84643, 0x95c90173),
    ("Telco/TOTAL_MINS_P1", "Pseudodec.", 170336, 0xd159b9cb),
    ("Redfin4/median_sale_price_mom", "Dictionary", 474518, 0xdddd308b),
    ("CommonGovernment/10", "Pseudodec.", 202292, 0x440e9d64),
    ("CommonGovernment/26", "Frequency", 3900, 0x3c3eb689),
    ("CommonGovernment/30", "RLE", 48294, 0x880c36f6),
    ("CommonGovernment/31", "Frequency", 37363, 0x59165c97),
    ("CommonGovernment/40", "RLE", 108, 0x46c5ad78),
    ("Arade/4", "Pseudodec.", 241051, 0xacbb19ae),
    ("NYC/29", "Uncompressed", 512005, 0x6ee6813a),
    ("CMSProvider/1", "Pseudodec.", 226272, 0xf3a76c95),
    ("CMSProvider/9", "Dictionary", 103734, 0xa8db58b4),
    ("CMSProvider/25", "Uncompressed", 512005, 0x9739889c),
    ("Medicare/1", "Pseudodec.", 218288, 0x0e54267a),
    ("Medicare/9", "Dictionary", 99954, 0xfb068f8f),
    ("tpch/l_orderkey", "RLE", 40108, 0x73703203),
    ("tpch/l_partkey", "FastBP128", 144517, 0xc2a28cba),
    ("tpch/l_suppkey", "FastBP128", 112517, 0xfcc7b71e),
    ("tpch/l_linenumber", "Dictionary", 24554, 0x3fcdb938),
    ("tpch/l_quantity", "Dictionary", 48926, 0xa4cac272),
    ("tpch/l_extendedprice", "Pseudodec.", 202444, 0x4fa8774f),
    ("tpch/l_discount", "Dictionary", 32614, 0x3bb6d571),
    ("tpch/l_tax", "Dictionary", 32598, 0x46d26828),
    ("tpch/l_returnflag", "Dictionary", 16549, 0xe817edb6),
    ("tpch/l_linestatus", "Dictionary", 8544, 0x63013146),
    ("tpch/l_shipdate", "FastBP128", 96517, 0x83ec709a),
    ("tpch/l_shipinstruct", "Dictionary", 16598, 0x53a6a3d3),
    ("tpch/l_shipmode", "Dictionary", 24592, 0x9902bc69),
    ("tpch/l_comment", "FSST", 547722, 0xcf71e312),
    ("tpch/o_orderstatus", "Dictionary", 14017, 0x896ee840),
    ("tpch/o_totalprice", "Pseudodec.", 218128, 0x52ccb5de),
    ("tpch/o_custkey", "FastBP128", 152517, 0x7566fa41),
    ("tpch/o_comment", "FSST", 684755, 0xfa04027f),
];

fn blocks() -> Vec<(String, &'static str, usize, u32)> {
    let cfg = Config::default();
    let mut rows = Vec::new();
    for generated in [pbi::registry(ROWS, SEED), tpch::registry(ROWS, SEED)] {
        let compressed = compress(&dataset_relation(generated), &cfg).unwrap();
        for col in &compressed.columns {
            for (block, scheme) in col.blocks.iter().zip(&col.schemes) {
                rows.push((col.name.clone(), scheme.name(), block.len(), crc32c(block)));
            }
        }
    }
    rows
}

#[test]
fn every_generated_block_keeps_its_bytes() {
    let got = blocks();
    let same = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|(g, &(name, scheme, len, crc))| {
            (g.0.as_str(), g.1, g.2, g.3) == (name, scheme, len, crc)
        });
    if !same {
        let moved: Vec<&str> = got
            .iter()
            .zip(GOLDEN)
            .filter(|(g, w)| (g.0.as_str(), g.1, g.2, g.3) != **w)
            .map(|(g, _)| g.0.as_str())
            .collect();
        let table: String = got
            .iter()
            .map(|(name, scheme, len, crc)| format!("    ({name:?}, {scheme:?}, {len}, 0x{crc:08x}),\n"))
            .collect();
        panic!(
            "{} blocks computed, {} pinned; moved: {moved:?}\ncomputed table:\n{table}",
            got.len(),
            GOLDEN.len()
        );
    }
}
