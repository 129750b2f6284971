//! Workspace discovery and the lint driver.
//!
//! Crates are discovered by scanning `crates/*/Cargo.toml` plus the root
//! package. Targets are classified from the conventional cargo layout:
//! everything under `src/` except `src/main.rs` and `src/bin/` is the lib
//! target; `src/main.rs`, `src/bin/`, `tests/`, `examples/` and `benches/`
//! are non-lib. U1/U2 run on every `.rs` file of every target; P1/P2 run on
//! lib files of decode-path crates; P3 runs on lib files of every crate.

use crate::config::{Config, Ratchet};
use crate::rules::{analyze, FileRules, RankDecl, Rule, UnsafeSite, Violation, WrapperSite};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One discovered workspace member.
#[derive(Debug)]
pub struct Crate {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Crate root directory, workspace-relative.
    pub dir: PathBuf,
}

/// A violation bound to its file and crate.
#[derive(Debug)]
pub struct SitedViolation {
    pub krate: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub violation: Violation,
}

/// An `unsafe` inventory entry bound to its file.
#[derive(Debug)]
pub struct SitedUnsafe {
    pub krate: String,
    pub file: String,
    pub site: UnsafeSite,
    pub allowlisted: bool,
}

/// One `[lock_order]` row joined with the evidence found in source — the
/// report's lock inventory.
#[derive(Debug, Clone)]
pub struct LockInventory {
    /// Hierarchy name (the `Rank`'s string).
    pub name: String,
    /// Numeric rank.
    pub rank: u64,
    /// File declaring the rank const (from the table).
    pub file: String,
    /// Guarded field(s), for the human reader.
    pub field: String,
    /// The Rust const backing the row (empty when the cross-check failed).
    pub const_name: String,
    /// Ordered-wrapper construction sites naming this rank.
    pub construction_sites: u64,
}

/// Aggregated result of linting the workspace.
#[derive(Debug, Default)]
pub struct LintRun {
    pub violations: Vec<SitedViolation>,
    pub unsafe_inventory: Vec<SitedUnsafe>,
    /// The lock hierarchy with per-rank construction evidence (C2).
    pub lock_inventory: Vec<LockInventory>,
    /// `crate → rule key → violation count` (all crates present, all rules).
    pub counts: BTreeMap<String, BTreeMap<String, u64>>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Escape hatches honoured.
    pub suppressed: usize,
}

impl LintRun {
    /// Current counts as a ratchet (for `--update-ratchet`).
    pub fn to_ratchet(&self) -> Ratchet {
        Ratchet {
            counts: self.counts.clone(),
        }
    }

    /// Compares against an allowed ratchet. Returns `(regressions,
    /// improvements)`: regressions are `(crate, rule, current, allowed)`
    /// with `current > allowed`; improvements have `current < allowed`.
    #[allow(clippy::type_complexity)]
    pub fn diff_ratchet(
        &self,
        ratchet: &Ratchet,
    ) -> (Vec<(String, String, u64, u64)>, Vec<(String, String, u64, u64)>) {
        let mut regressions = Vec::new();
        let mut improvements = Vec::new();
        // Every (crate, rule) present on either side is compared.
        let mut keys: Vec<(String, String)> = Vec::new();
        for (k, rules) in self.counts.iter().chain(ratchet.counts.iter()) {
            for r in rules.keys() {
                if !keys.iter().any(|(ck, cr)| ck == k && cr == r) {
                    keys.push((k.clone(), r.clone()));
                }
            }
        }
        for (k, r) in keys {
            let current = self
                .counts
                .get(&k)
                .and_then(|m| m.get(&r))
                .copied()
                .unwrap_or(0);
            let allowed = ratchet.allowed(&k, &r);
            if current > allowed {
                regressions.push((k.clone(), r.clone(), current, allowed));
            } else if current < allowed {
                improvements.push((k.clone(), r.clone(), current, allowed));
            }
        }
        (regressions, improvements)
    }
}

/// Discovers workspace members: the root package plus `crates/*`.
pub fn discover_crates(root: &Path) -> std::io::Result<Vec<Crate>> {
    let mut out = Vec::new();
    if let Some(name) = package_name(&root.join("Cargo.toml"))? {
        out.push(Crate {
            name,
            dir: PathBuf::new(),
        });
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for dir in entries {
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            if let Some(name) = package_name(&manifest)? {
                let rel = dir
                    .strip_prefix(root)
                    .unwrap_or(&dir)
                    .to_path_buf();
                out.push(Crate { name, dir: rel });
            }
        }
    }
    Ok(out)
}

/// First `name = "…"` in a manifest (the `[package]` name by convention).
fn package_name(manifest: &Path) -> std::io::Result<Option<String>> {
    let text = std::fs::read_to_string(manifest)?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                let v = v.trim().trim_matches('"');
                return Ok(Some(v.to_string()));
            }
        }
        if line.starts_with('[') && line != "[package]" {
            // Left the [package] table without a name — unusual; stop.
            break;
        }
    }
    Ok(None)
}

/// Recursively collects `.rs` files under `dir` (sorted for determinism).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Whether `rel` (crate-relative) belongs to the crate's lib target.
fn is_lib_file(rel: &Path) -> bool {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match comps.next().as_deref() {
        Some("src") => !matches!(comps.next().as_deref(), Some("bin" | "main.rs")),
        _ => false,
    }
}

/// Lints the whole workspace under `root`.
pub fn run(root: &Path, config: &Config) -> std::io::Result<LintRun> {
    let crates = discover_crates(root)?;
    let mut run = LintRun::default();
    // C2 raw material, accumulated across files as `(crate, file, item)`.
    let mut rank_decls: Vec<(String, String, RankDecl)> = Vec::new();
    let mut wrapper_sites: Vec<(String, String, WrapperSite)> = Vec::new();
    for krate in &crates {
        // Seed the counts map so clean crates appear explicitly as zeros.
        let slot = run.counts.entry(krate.name.clone()).or_default();
        for rule in Rule::ALL {
            slot.insert(rule.key().to_string(), 0);
        }
        let decode = config.decode_path_crates.contains(&krate.name);
        let concurrency = config.concurrency_crates.contains(&krate.name);
        let crate_root = root.join(&krate.dir);
        for sub in ["src", "tests", "examples", "benches"] {
            let dir = crate_root.join(sub);
            if !dir.is_dir() {
                continue;
            }
            for file in rs_files(&dir) {
                let rel_to_crate = file
                    .strip_prefix(&crate_root)
                    .unwrap_or(&file)
                    .to_path_buf();
                let rel_to_root = file.strip_prefix(root).unwrap_or(&file);
                let rel_str = rel_to_root
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let lib = sub == "src" && is_lib_file(&rel_to_crate);
                let rules = FileRules {
                    unsafe_allowed: config.unsafe_allow.contains(&rel_str),
                    decode_path: decode && lib,
                    lib_target: lib,
                    concurrency_lib: concurrency && lib,
                    atomics: lib && !config.atomics_allow.contains(&rel_str),
                };
                let src = std::fs::read_to_string(&file)?;
                let analysis = analyze(&src, rules);
                run.files_scanned += 1;
                run.suppressed += analysis.suppressed;
                for v in analysis.violations {
                    let slot = run.counts.entry(krate.name.clone()).or_default();
                    *slot.entry(v.rule.key().to_string()).or_insert(0) += 1;
                    run.violations.push(SitedViolation {
                        krate: krate.name.clone(),
                        file: rel_str.clone(),
                        violation: v,
                    });
                }
                for site in analysis.unsafe_sites {
                    run.unsafe_inventory.push(SitedUnsafe {
                        krate: krate.name.clone(),
                        file: rel_str.clone(),
                        site,
                        allowlisted: rules.unsafe_allowed,
                    });
                }
                for d in analysis.rank_decls {
                    rank_decls.push((krate.name.clone(), rel_str.clone(), d));
                }
                for w in analysis.wrapper_sites {
                    wrapper_sites.push((krate.name.clone(), rel_str.clone(), w));
                }
            }
        }
    }
    cross_check_lock_order(&mut run, config, &crates, &rank_decls, &wrapper_sites);
    run.violations.sort_by(|a, b| {
        (&a.file, a.violation.line).cmp(&(&b.file, b.violation.line))
    });
    run.unsafe_inventory
        .sort_by(|a, b| (&a.file, a.site.line).cmp(&(&b.file, b.site.line)));
    Ok(run)
}

/// Records a C2 violation into both the counts map and the violation list.
fn record_lock_rank(run: &mut LintRun, krate: &str, file: &str, line: u32, what: String) {
    let slot = run.counts.entry(krate.to_string()).or_default();
    *slot.entry(Rule::LockRank.key().to_string()).or_insert(0) += 1;
    run.violations.push(SitedViolation {
        krate: krate.to_string(),
        file: file.to_string(),
        violation: Violation {
            rule: Rule::LockRank,
            line,
            what,
        },
    });
}

/// The crate owning a workspace-relative file path (longest dir prefix).
fn crate_of_file<'a>(crates: &'a [Crate], file: &str) -> &'a str {
    let mut best: Option<(&str, usize)> = None;
    for c in crates {
        let dir = c
            .dir
            .components()
            .map(|p| p.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let matches = dir.is_empty() || file.starts_with(&format!("{dir}/"));
        if matches && best.is_none_or(|(_, len)| dir.len() >= len) {
            best = Some((c.name.as_str(), dir.len()));
        }
    }
    best.map(|(name, _)| name).unwrap_or("workspace")
}

/// Rule C2: the `[lock_order]` table, the `Rank` consts, and the wrapper
/// construction sites must tell one consistent story — every declared rank
/// appears in the table (same number, same file), every table row is backed
/// by a declaration that is actually used, ranks and names are unique, and
/// every wrapper construction names a known rank const.
fn cross_check_lock_order(
    run: &mut LintRun,
    config: &Config,
    crates: &[Crate],
    rank_decls: &[(String, String, RankDecl)],
    wrapper_sites: &[(String, String, WrapperSite)],
) {
    // Duplicate rank numbers or hierarchy names among declarations.
    for (i, (krate, file, d)) in rank_decls.iter().enumerate() {
        for (_, file2, d2) in rank_decls.iter().take(i) {
            if d.rank == d2.rank {
                record_lock_rank(
                    run,
                    krate,
                    file,
                    d.line,
                    format!(
                        "rank {} of `{}` duplicates `{}` ({file2})",
                        d.rank, d.name, d2.name
                    ),
                );
            }
            if d.name == d2.name {
                record_lock_rank(
                    run,
                    krate,
                    file,
                    d.line,
                    format!("lock name `{}` already declared in {file2}", d.name),
                );
            }
        }
    }
    // Every declaration against the table.
    for (krate, file, d) in rank_decls {
        match config.lock_order.iter().find(|e| e.name == d.name) {
            None => record_lock_rank(
                run,
                krate,
                file,
                d.line,
                format!(
                    "`{}` (rank {}, `{}`) is not in btr-lint.toml's [lock_order] table",
                    d.const_name, d.rank, d.name
                ),
            ),
            Some(e) => {
                if e.rank != d.rank {
                    record_lock_rank(
                        run,
                        krate,
                        file,
                        d.line,
                        format!(
                            "`{}` declares rank {} but [lock_order.{}] says {}",
                            d.const_name, d.rank, d.name, e.rank
                        ),
                    );
                }
                if e.file != *file {
                    record_lock_rank(
                        run,
                        krate,
                        file,
                        d.line,
                        format!(
                            "`{}` lives in {file} but [lock_order.{}] says {}",
                            d.const_name, d.name, e.file
                        ),
                    );
                }
            }
        }
    }
    // Every table row backed by a declaration (an unbacked row is stale
    // documentation, which is worse than none).
    for e in &config.lock_order {
        if !rank_decls.iter().any(|(_, _, d)| d.name == e.name) {
            record_lock_rank(
                run,
                crate_of_file(crates, &e.file),
                &e.file,
                0,
                format!("[lock_order.{}] has no backing Rank declaration", e.name),
            );
        }
    }
    // Every wrapper construction in a concurrency crate names a known rank
    // const, and every rank const is constructed with at least once (unused
    // ranks rot). btr-sync's generic tables (SingleFlight) build wrappers
    // from rank parameters; the consts are checked where callers pass them.
    for (krate, file, w) in wrapper_sites {
        if config.concurrency_crates.contains(krate)
            && !rank_decls.iter().any(|(_, _, d)| d.const_name == w.rank_const)
        {
            record_lock_rank(
                run,
                krate,
                file,
                w.line,
                format!(
                    "{}::new's rank `{}` is not a declared Rank const (ranks must be named consts)",
                    w.wrapper, w.rank_const
                ),
            );
        }
    }
    for (krate, file, d) in rank_decls {
        if !wrapper_sites.iter().any(|(_, _, w)| w.rank_const == d.const_name) {
            record_lock_rank(
                run,
                krate,
                file,
                d.line,
                format!("rank const `{}` (`{}`) is never used", d.const_name, d.name),
            );
        }
    }
    // The inventory: table rows joined with their evidence, in rank order.
    run.lock_inventory = config
        .lock_order
        .iter()
        .map(|e| LockInventory {
            name: e.name.clone(),
            rank: e.rank,
            file: e.file.clone(),
            field: e.field.clone(),
            const_name: rank_decls
                .iter()
                .find(|(_, _, d)| d.name == e.name)
                .map(|(_, _, d)| d.const_name.clone())
                .unwrap_or_default(),
            construction_sites: wrapper_sites
                .iter()
                .filter(|(_, _, w)| {
                    rank_decls
                        .iter()
                        .any(|(_, _, d)| d.name == e.name && d.const_name == w.rank_const)
                })
                .count() as u64,
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, &str, u64)]) -> BTreeMap<String, BTreeMap<String, u64>> {
        let mut out: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for &(k, r, n) in pairs {
            out.entry(k.into()).or_default().insert(r.into(), n);
        }
        out
    }

    #[test]
    fn ratchet_diff_finds_regressions_and_improvements() {
        let run = LintRun {
            counts: counts(&[("a", "indexing", 3), ("a", "cast", 0), ("c", "indexing", 1)]),
            ..LintRun::default()
        };
        let ratchet = Ratchet {
            counts: counts(&[("a", "indexing", 1), ("a", "cast", 2), ("b", "banned_macro", 5)]),
        };
        let (reg, imp) = run.diff_ratchet(&ratchet);
        // Counts above the ratchet are regressions — including a crate the
        // ratchet has never seen (absent ⇒ allowed 0).
        assert_eq!(
            reg,
            vec![
                ("a".to_string(), "indexing".to_string(), 3, 1),
                ("c".to_string(), "indexing".to_string(), 1, 0),
            ]
        );
        // Counts below the ratchet are improvements (burn-down candidates),
        // including ratchet entries for crates missing from the run.
        assert_eq!(
            imp,
            vec![
                ("a".to_string(), "cast".to_string(), 0, 2),
                ("b".to_string(), "banned_macro".to_string(), 0, 5),
            ]
        );
    }

    #[test]
    fn tightened_ratchet_matches_current_counts_exactly() {
        let run = LintRun {
            counts: counts(&[("a", "indexing", 1)]),
            ..LintRun::default()
        };
        let tightened = run.to_ratchet();
        assert_eq!(tightened.allowed("a", "indexing"), 1);
        let (reg, imp) = run.diff_ratchet(&tightened);
        assert!(reg.is_empty() && imp.is_empty());
    }

    #[test]
    fn lib_file_classification() {
        assert!(is_lib_file(Path::new("src/lib.rs")));
        assert!(is_lib_file(Path::new("src/scheme/mod.rs")));
        assert!(!is_lib_file(Path::new("src/main.rs")));
        assert!(!is_lib_file(Path::new("src/bin/tool.rs")));
        assert!(!is_lib_file(Path::new("tests/roundtrip.rs")));
    }
}
