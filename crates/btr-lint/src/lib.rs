//! btr-lint: the decode-path safety-contract checker.
//!
//! A dependency-free static-analysis tool (no `syn`, no registry crates —
//! the linter must stay hermetic so it can gate the build on any machine
//! that has a Rust toolchain). It lexes every Rust source in the workspace
//! with a hand-rolled tokenizer and enforces the contract established by
//! the corruption-hardening work: *corrupt bytes surface as typed errors,
//! never as panics*, and every `unsafe` block states its invariant.
//!
//! Rules (see [`rules`] for scope details):
//!
//! * **U1** `unsafe_no_safety` — every `unsafe` needs `// SAFETY:` directly
//!   above (or on the same line).
//! * **U2** `unsafe_outside_allowlist` — `unsafe` only in modules listed in
//!   `btr-lint.toml`.
//! * **U3** `intrinsic_outside_target_feature` — an `_mm…` intrinsic is
//!   called only inside a `#[target_feature(enable = …)]` fn.
//! * **P1** `indexing` — no `expr[idx]` in decode-path lib code; use
//!   `.get()` + typed errors, or `// lint: allow(indexing) <reason>`.
//! * **P2** `cast` — no `as`-casts to ≤32-bit integer types in decode-path
//!   lib code; use `From`/`TryFrom`, or `// lint: allow(cast) <reason>`.
//! * **P3** `banned_macro` — no `todo!`/`unimplemented!`/`dbg!`/`println!`
//!   in any library target.
//!
//! The concurrency contract (DESIGN.md §15) adds four rules:
//!
//! * **C1** `rawlock` — no raw `std::sync::Mutex`/`RwLock`/`Condvar` in
//!   crates listed under `[concurrency]`; use the `btr-sync` ordered
//!   wrappers, or `// lint: allow(rawlock) <reason>`.
//! * **C2** `lock_rank` — every `Ordered*::new(RANK, …)` in a concurrency
//!   crate names a constant whose rank exists in the `[lock_order]`
//!   hierarchy table, and every table row is backed by a declaration (in
//!   any lib target, btr-sync's own included) that is actually constructed.
//! * **C3** `atomic_ordering` — every `Ordering::<mode>` token carries an
//!   `// ordering: <reason>` annotation (same line or the comment block
//!   directly above) unless the file is listed under `[atomics] allow`.
//! * **C4** `bare_wait` — no bare `Condvar::wait` (use `wait_while`) and
//!   no `thread::sleep` in concurrency-crate lib targets.
//!
//! Violation counts are diffed against `lint-ratchet.toml`: `--check` fails
//! on any count above the committed value, so new debt cannot land, while
//! existing debt is burned down by lowering the committed numbers.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use config::{Config, Ratchet};
pub use rules::{analyze, FileRules, Rule};
pub use workspace::{run, LintRun};

use std::path::Path;

/// Names of the two state files at the workspace root.
pub const CONFIG_FILE: &str = "btr-lint.toml";
/// See [`CONFIG_FILE`].
pub const RATCHET_FILE: &str = "lint-ratchet.toml";

/// Loads config + ratchet and lints the workspace rooted at `root`.
/// Returns the run and the parsed ratchet.
pub fn run_workspace(root: &Path) -> Result<(LintRun, Ratchet), String> {
    let config_text = std::fs::read_to_string(root.join(CONFIG_FILE))
        .map_err(|e| format!("reading {CONFIG_FILE}: {e}"))?;
    let config = Config::parse(&config_text).map_err(|e| format!("{CONFIG_FILE}: {e}"))?;
    let ratchet = match std::fs::read_to_string(root.join(RATCHET_FILE)) {
        Ok(text) => Ratchet::parse(&text).map_err(|e| format!("{RATCHET_FILE}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ratchet::default(),
        Err(e) => return Err(format!("reading {RATCHET_FILE}: {e}")),
    };
    let run = workspace::run(root, &config).map_err(|e| format!("scanning workspace: {e}"))?;
    Ok((run, ratchet))
}
