//! Compression configuration.

use crate::scheme::SchemeCode;

/// How decompression kernels are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Use AVX2 kernels when the CPU supports them (runtime-detected).
    #[default]
    Auto,
    /// Always use the scalar kernels — the ablation of paper §6.8.
    ForceScalar,
}

/// Tuning knobs for compression and scheme selection.
///
/// Defaults match the paper: 64 000-value blocks, cascade depth 3, samples of
/// ten 64-value runs (1 % of a block).
#[derive(Debug, Clone)]
pub struct Config {
    /// Values per column block.
    pub block_size: usize,
    /// Maximum cascade recursion depth; at depth 0 data is left uncompressed.
    pub max_cascade_depth: u8,
    /// Number of sample runs drawn from non-overlapping parts of a block.
    pub sample_runs: usize,
    /// Values per sample run.
    pub sample_run_len: usize,
    /// Scalar/SIMD dispatch for decompression.
    pub simd: SimdMode,
    /// Schemes the selector may choose from. Shrinking this pool reproduces
    /// the paper's Figure 4 (adding techniques one at a time).
    pub scheme_pool: Vec<SchemeCode>,
    /// Augment sample-based estimates with analytic ones derived from exact
    /// full-block statistics (dictionary size, RLE run-count floor). Disable
    /// to study pure sampling behaviour, as the Figure 5 experiment does.
    pub analytic_estimates: bool,
    /// Decompression rejects any block frame claiming more values than this.
    /// Corrupt or adversarial headers could otherwise demand absurd
    /// allocations (a 5-byte OneValue frame can claim 2^32 values). Raise it
    /// when reading files written with unusually large `block_size`.
    pub max_block_values: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            block_size: 64_000,
            max_cascade_depth: 3,
            sample_runs: 10,
            sample_run_len: 64,
            simd: SimdMode::Auto,
            scheme_pool: SchemeCode::full_pool(),
            analytic_estimates: true,
            max_block_values: 1 << 24,
        }
    }
}

impl Config {
    /// Total sampled values per block.
    pub fn sample_size(&self) -> usize {
        self.sample_runs * self.sample_run_len
    }

    /// Returns true if `code` is allowed by the configured pool.
    pub fn allows(&self, code: SchemeCode) -> bool {
        self.scheme_pool.contains(&code)
    }

    /// A config with a restricted scheme pool (plus `Uncompressed`, which is
    /// always permitted as the fallback).
    pub fn with_pool(mut self, pool: &[SchemeCode]) -> Self {
        let mut p = pool.to_vec();
        if !p.contains(&SchemeCode::Uncompressed) {
            p.push(SchemeCode::Uncompressed);
        }
        self.scheme_pool = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.block_size, 64_000);
        assert_eq!(c.max_cascade_depth, 3);
        assert_eq!(c.sample_size(), 640);
        assert!((c.sample_size() as f64 / c.block_size as f64 - 0.01).abs() < 1e-9);
    }

    #[test]
    fn with_pool_keeps_uncompressed() {
        let c = Config::default().with_pool(&[SchemeCode::Rle]);
        assert!(c.allows(SchemeCode::Rle));
        assert!(c.allows(SchemeCode::Uncompressed));
        assert!(!c.allows(SchemeCode::Dict));
    }
}
