//! The repository's benchmark: two dataset workloads (`pbi`, `tpch`), each a
//! run of the whole user-visible pipeline (encode → file → decode → scans →
//! service), measured once untraced for the end-to-end metrics and once
//! traced for the per-layer ladder. See `benchmark/README.md`.
//!
//! This package is a *consumer* of the crates: every layer is measured from
//! outside, by timing calls into public items.

pub mod alloc;
pub mod data;
pub mod env;
pub mod manifest;
pub mod oracle;
pub mod phases {
    pub mod codec;
    pub mod ladder;
    pub mod scan;
    pub mod service;
}
pub mod run;
pub mod stats;
pub mod trace;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Metric values by name, as a run collects them, and beside them the sample
/// count behind each timed loop (for the result file; not metrics).
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: std::collections::BTreeMap<String, f64>,
    samples: Vec<(&'static str, usize)>,
}

impl Metrics {
    /// Records `name`; a metric is measured once a run.
    pub fn put(&mut self, name: &str, value: f64) {
        let previous = self.values.insert(name.to_string(), value);
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Records that `samples` timings stand behind the loop called `name`.
    pub fn note_samples(&mut self, name: &'static str, samples: usize) {
        self.samples.push((name, samples));
    }

    pub fn samples(&self) -> &[(&'static str, usize)] {
        &self.samples
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// Operations attempted and operations that failed, errored or answered
/// wrongly. Every correctness check of a run goes through here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is reported on standard error with
    /// the place that checked it.
    #[track_caller]
    pub fn check(&mut self, ok: bool) {
        if !ok {
            eprintln!("check failed at {}", std::panic::Location::caller());
        }
        self.add(1, u64::from(!ok));
    }

    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// One phase's part of the end-to-end pass. The pass calls every load's
/// [`Load::step`] in turn, round after round, until the run's seconds are
/// spent: each metric then samples the whole run, so a burst of host noise
/// lands on a few samples of every metric instead of on all samples of one.
pub trait Load {
    /// Runs this phase's operations for one round, keeping their timings.
    fn step(&mut self, tally: &mut Tally);
    /// Reduces the kept timings to this phase's end-to-end metrics.
    fn finish(&self, m: &mut Metrics);
}
