//! The one list of workload and metric names. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to a file; a test fails if
//! the two ever differ, and a run fails if it does not produce exactly these
//! metrics.

use crate::phases::ladder::SCHEME_PAIRS;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "pbi",
        "Public-BI-like, 39 columns x 256k rows: string-heavy, skewed, long runs, so Dict, FSST and \
         RLE cascades and string materialisation decide every phase; zone maps prune 3 of 4 groups",
    ),
    (
        "tpch",
        "TPC-H-like, 18 columns x 512k rows: unique keys, uniform numerics, random text, so \
         bit-packing and Pseudodecimal decide and strings barely compress; 8 row groups to prune",
    ),
];

/// `(name, unit, better, bound)`: what a user of the system sees. Measured
/// with tracing off; a later change may worsen a metric by at most `bound`
/// of the parent's median.
pub const END_TO_END: [(&str, &str, &str, f64); 14] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("decode_scan_gbps", "GB/s", "higher", 0.25),
    ("decompress_gbps", "GB/s", "higher", 0.25),
    ("encode_mbps", "MB/s", "higher", 0.25),
    ("compression_ratio", "ratio", "higher", 0.03),
    ("range_p50_ms", "ms", "lower", 0.25),
    ("filter_p50_ms", "ms", "lower", 0.25),
    ("agg_p50_ms", "ms", "lower", 0.25),
    ("full_rows_per_s", "rows/s", "higher", 0.25),
    ("warm_full_rows_per_s", "rows/s", "higher", 0.25),
    ("svc_scans_per_s", "1/s", "higher", 0.25),
    ("svc_point_p95_ms", "ms", "lower", 0.25),
    ("svc_full_p50_ms", "ms", "lower", 0.25),
];

/// Per-class scan counters and stage times; suffixed `_range` and `_full`.
const SCAN_CLASS_METRICS: [(&str, &str, &str); 10] = [
    ("plan_us", "us", "lower"),
    ("fetch_ms", "ms", "lower"),
    ("fetch_bytes", "count", "lower"),
    ("fetch_requests", "count", "lower"),
    ("blocks_pruned", "count", "higher"),
    ("blocks_fast_path", "count", "higher"),
    ("blocks_decoded", "count", "lower"),
    ("process_self_ms", "ms", "lower"),
    ("decode_ms", "ms", "lower"),
    ("emit_ms", "ms", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, prefix = crate name.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| out.push((name.to_string(), unit, better));
    add("host.memcpy_gbps", "GB/s", "higher");
    add("host.nproc", "count", "higher");
    for kernel in [
        "bp128_decode",
        "bp128_encode",
        "fastpfor_decode",
        "fastpfor_encode",
    ] {
        add(&format!("btr-bitpacking.{kernel}_gbps"), "GB/s", "higher");
    }
    add("btr-fsst.decode_gbps", "GB/s", "higher");
    add("btr-fsst.encode_gbps", "GB/s", "higher");
    add("btr-fsst.train_ms", "ms", "lower");
    add("btr-roaring.decode_ns_per_value", "ns", "lower");
    add("btr-roaring.and_ns_per_value", "ns", "lower");
    for (name, _) in SCHEME_PAIRS {
        add(
            &format!("btrblocks.scheme.{name}_decode_gbps"),
            "GB/s",
            "higher",
        );
        add(
            &format!("btrblocks.scheme.{name}_encode_mbps"),
            "MB/s",
            "higher",
        );
    }
    add("btrblocks.from_bytes_ms", "ms", "lower");
    add("btrblocks.crc32c_gbps", "GB/s", "higher");
    add("btrblocks.block_decode_ms", "ms", "lower");
    add("btrblocks.decode_int_gbps", "GB/s", "higher");
    add("btrblocks.decode_double_gbps", "GB/s", "higher");
    add("btrblocks.decode_str_gbps", "GB/s", "higher");
    add("btrblocks.assemble_ms", "ms", "lower");
    add("btrblocks.warm_decode_allocs", "count", "lower");
    add("btrblocks.parallel_decode_gbps_t2", "GB/s", "higher");
    add("btrblocks.parallel_decode_speedup_t2", "ratio", "higher");
    add("btrblocks.stats_ms", "ms", "lower");
    add("btrblocks.pick_ms", "ms", "lower");
    add("btrblocks.selection_share", "ratio", "lower");
    add("btrblocks.compress_blocks_ms", "ms", "lower");
    add("btrblocks.to_bytes_ms", "ms", "lower");
    add("btrblocks.sidecar_build_ms", "ms", "lower");
    add("btrblocks.parallel_encode_mbps_t2", "MB/s", "higher");
    add("btrblocks.ratio_int", "ratio", "higher");
    add("btrblocks.ratio_double", "ratio", "higher");
    add("btrblocks.ratio_str", "ratio", "higher");
    add("btrblocks.compressed_bytes", "count", "lower");
    for codec in ["plain", "snappy", "zstd"] {
        add(
            &format!("parquet-lite.{codec}_decode_gbps"),
            "GB/s",
            "higher",
        );
    }
    add("parquet-lite.snappy_ratio", "ratio", "higher");
    add("parquet-lite.zstd_ratio", "ratio", "higher");
    add("parquet-lite.snappy_encode_mbps", "MB/s", "higher");
    add("orc-lite.decode_gbps", "GB/s", "higher");
    add("btr-s3sim.scan_cost_usd_per_tb", "usd/TB", "lower");
    add("btr-s3sim.tc_gbit_s", "Gbit/s", "higher");
    add("btr-expr.compile_us", "us", "lower");
    add("btr-expr.filter_leaf_fast_ns_per_row", "ns", "lower");
    add("btr-expr.filter_decoded_ns_per_row", "ns", "lower");
    add("btr-expr.selection_and_gbps", "GB/s", "higher");
    add("btr-expr.agg_fold_ns_per_row", "ns", "lower");
    for class in ["range", "full"] {
        for (name, unit, better) in SCAN_CLASS_METRICS {
            add(&format!("btr-scan.{name}_{class}"), unit, better);
        }
    }
    for class in ["range", "filter", "agg", "full"] {
        add(
            &format!("btr-scan.stage_sum_over_wall_{class}"),
            "ratio",
            "higher",
        );
    }
    add("btr-scan.cache_get_ns", "ns", "lower");
    add("btr-scan.cache_insert_ns", "ns", "lower");
    add("btr-scan.cache_hit_rate_warm", "ratio", "higher");
    add("btr-scan.workers2_speedup_full", "ratio", "higher");
    add("btr-s3sim.get_range_gbps", "GB/s", "higher");
    add("btr-server.submit_us", "us", "lower");
    add("btr-server.queue_wait_p50_us", "us", "lower");
    add("btr-server.queue_wait_p95_us", "us", "lower");
    add("btr-server.dedup_hits", "count", "higher");
    add("btr-server.coalesced_get_ratio", "ratio", "higher");
    add("btr-server.store_gets", "count", "lower");
    add("btr-server.cache_hit_rate", "ratio", "higher");
    add("btr-server.cache_evictions", "count", "lower");
    add("btr-server.admission_rejections", "count", "lower");
    add("btr-server.point_p50_ms", "ms", "lower");
    add("btr-server.point_p99_ms", "ms", "lower");
    add("btr-server.tenant_b_over_a_point_p95", "ratio", "lower");
    add("btr-sync.morsel_claim_ns", "ns", "lower");
    add("trace_overhead_pct", "%", "lower");
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_respects_the_contract_limits() {
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.0.to_string())
            .chain(END_TO_END.iter().map(|m| m.0.to_string()))
            .chain(per_layer().into_iter().map(|m| m.0))
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(benchmark_json().len() <= 64 << 10);
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(per_layer().iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
