//! Order statistics and the timed-loop helper every phase measures with.

use std::time::Instant;

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Calls `op(i)` for `i = 0, 1, …` until `budget_s` seconds of wall time have
/// passed and at least `min_iters` calls were made. `op` returns the seconds
/// it measured itself, so its own set-up and checking stay outside the sample
/// while still counting against the budget.
pub fn sample(budget_s: f64, min_iters: usize, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed().as_secs_f64() < budget_s {
        out.push(op(out.len()));
    }
    out
}

/// Seconds `f` takes, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of one call of `f`, repeated for `budget_s` seconds (at
/// least `min_iters` calls) after one warm-up call. For the micro-benchmarks
/// of the layer ladder, whose single calls are far above timer resolution.
pub fn median_call_s(budget_s: f64, min_iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    median(&sample(budget_s, min_iters, |_| time(&mut f).1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_honours_min_iters() {
        assert_eq!(sample(0.0, 3, |i| i as f64), vec![0.0, 1.0, 2.0]);
    }
}
