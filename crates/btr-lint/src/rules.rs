//! The lint rules, run over one file's token stream.
//!
//! | Rule | Key                                | Scope                             |
//! |------|------------------------------------|-----------------------------------|
//! | U1   | `unsafe_no_safety`                 | every target, whole workspace     |
//! | U2   | `unsafe_outside_allowlist`         | every target, whole workspace     |
//! | U3   | `intrinsic_outside_target_feature` | every target, whole workspace     |
//! | P1   | `indexing`                         | lib targets of decode-path crates |
//! | P2   | `cast`                             | lib targets of decode-path crates |
//! | P3   | `banned_macro`                     | lib targets of every crate        |
//! | C1   | `rawlock`                          | lib targets of concurrency crates |
//! | C2   | `lock_rank`                        | lib targets of every crate        |
//! | C3   | `atomic_ordering`                  | lib targets of every crate        |
//! | C4   | `bare_wait`                        | lib targets of concurrency crates |
//! |      | `bad_annotation`                   | wherever an escape hatch is used  |
//!
//! Escape hatches: `// lint: allow(indexing) <reason>`,
//! `// lint: allow(cast) <reason>`, and `// lint: allow(rawlock) <reason>`.
//! A whole-line annotation suppresses the next code line; a trailing
//! annotation suppresses its own line. The reason is mandatory — a bare
//! annotation is itself reported (`bad_annotation`) and suppresses nothing,
//! so the hatch cannot be used silently.
//!
//! The concurrency rules enforce the contract in DESIGN.md §15: locks in
//! concurrency crates are `btr_sync` wrappers carrying a declared rank from
//! the `[lock_order]` hierarchy in `btr-lint.toml` (C1; the cross-check of
//! construction sites against the table is C2, finished by the workspace
//! driver; it reads every lib target, so a rank btr-sync declares for its
//! own lock is checked too), every `Ordering::<mode>` token states *why* the
//! chosen ordering suffices via an `// ordering: <reason>` comment on the
//! same line or the comment block directly above (C3), and blocking
//! primitives that invite lost-wakeup bugs — bare `Condvar::wait`,
//! `thread::sleep` — are banned in favor of `wait_while` and the simulated
//! clock (C4).
//!
//! Test code (a `#[cfg(test)]` module, a `#[test]` fn, or any item under a
//! test-gated brace region) is exempt from P1/P2/P3 but not from U1/U2:
//! an unsound `unsafe` block is no more acceptable in a test.
//!
//! U3 exists because the compiler does not complain: an `_mm…` intrinsic
//! called from a fn without `#[target_feature(enable = …)]` still compiles,
//! but cannot be inlined into its caller, so each call becomes a function
//! call around one instruction. The rule flags an intrinsic call that is not
//! inside the brace region of a `#[target_feature(…)]` item.

use crate::lexer::{lex, TokKind, Token};

/// Stable machine-readable rule identifiers (ratchet and report keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// U1: `unsafe` without an immediately-preceding `// SAFETY:` comment.
    UnsafeNoSafety,
    /// U2: `unsafe` in a file missing from the `btr-lint.toml` allowlist.
    UnsafeOutsideAllowlist,
    /// U3: an `_mm…` intrinsic called outside a `#[target_feature(…)]` fn.
    IntrinsicOutsideTargetFeature,
    /// P1: direct slice/array indexing `expr[idx]` on a decode path.
    Indexing,
    /// P2: `as` cast to a ≤32-bit integer type on a decode path.
    Cast,
    /// P3: `todo!`/`unimplemented!`/`dbg!`/`println!` in a library target.
    BannedMacro,
    /// C1: raw `std::sync` `Mutex`/`RwLock`/`Condvar` in a concurrency
    /// crate (use the `btr_sync` ordered wrappers).
    RawLock,
    /// C2: a lock construction or rank declaration inconsistent with the
    /// `[lock_order]` hierarchy table.
    LockRank,
    /// C3: an atomic `Ordering::<mode>` token without an
    /// `// ordering: <reason>` annotation.
    AtomicOrdering,
    /// C4: bare `Condvar::wait` or `thread::sleep` in a concurrency crate's
    /// lib target (use `wait_while` / the simulated clock).
    BareWait,
    /// An allow-annotation with no reason or an unknown kind.
    BadAnnotation,
}

impl Rule {
    /// Ratchet/report key.
    pub fn key(self) -> &'static str {
        match self {
            Rule::UnsafeNoSafety => "unsafe_no_safety",
            Rule::UnsafeOutsideAllowlist => "unsafe_outside_allowlist",
            Rule::IntrinsicOutsideTargetFeature => "intrinsic_outside_target_feature",
            Rule::Indexing => "indexing",
            Rule::Cast => "cast",
            Rule::BannedMacro => "banned_macro",
            Rule::RawLock => "rawlock",
            Rule::LockRank => "lock_rank",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::BareWait => "bare_wait",
            Rule::BadAnnotation => "bad_annotation",
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::UnsafeNoSafety,
        Rule::UnsafeOutsideAllowlist,
        Rule::IntrinsicOutsideTargetFeature,
        Rule::Indexing,
        Rule::Cast,
        Rule::BannedMacro,
        Rule::RawLock,
        Rule::LockRank,
        Rule::AtomicOrdering,
        Rule::BareWait,
        Rule::BadAnnotation,
    ];
}

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub line: u32,
    /// Short human-readable context (token text, never a full line).
    pub what: String,
}

/// Inventory entry for one `unsafe` occurrence (report output).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
    /// `block`, `fn`, `impl`, `trait` or `extern`.
    pub kind: &'static str,
    pub has_safety_comment: bool,
}

/// Per-file rule toggles, derived from crate + target kind by the driver.
#[derive(Debug, Clone, Copy)]
pub struct FileRules {
    /// File appears in the `[unsafe] allow` list (U2).
    pub unsafe_allowed: bool,
    /// P1/P2 apply (lib target of a decode-path crate).
    pub decode_path: bool,
    /// P3 applies (lib target of any crate).
    pub lib_target: bool,
    /// C1/C4 apply (lib target of a concurrency crate).
    pub concurrency_lib: bool,
    /// C3 applies (lib target not on the `[atomics] allow` list).
    pub atomics: bool,
}

/// A `const NAME: Rank = Rank::new(rank, "name")` declaration found in a
/// lib target (raw material for the C2 cross-check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankDecl {
    /// The Rust const (or static) identifier.
    pub const_name: String,
    /// Numeric rank argument.
    pub rank: u64,
    /// Hierarchy name argument (the string literal, unquoted).
    pub name: String,
    pub line: u32,
}

/// An `Ordered{Mutex,RwLock,Condvar}::new(SOME_RANK, …)` construction site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperSite {
    /// `OrderedMutex`, `OrderedRwLock`, or `OrderedCondvar`.
    pub wrapper: String,
    /// Last identifier of the first argument — must name a `RankDecl`
    /// (ranks are always named consts, never inline `Rank::new(...)`).
    pub rank_const: String,
    pub line: u32,
}

/// Everything the analysis found in one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub violations: Vec<Violation>,
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Rank consts declared in this file (lib targets only).
    pub rank_decls: Vec<RankDecl>,
    /// Ordered-wrapper construction sites (lib targets only).
    pub wrapper_sites: Vec<WrapperSite>,
    /// Count of correctly-used escape hatches (for the report).
    pub suppressed: usize,
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [0u8; 4]`, `if let [a, b] = …`, `x as [u8; 4]`, …).
/// `self` is deliberately *not* here: `self[i]` is real indexing.
const NON_INDEXING_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod",
    "move", "mut", "pub", "ref", "return", "static", "struct", "trait",
    "type", "unsafe", "use", "where", "while", "yield", "Self",
];

/// Integer types an `as` cast can silently truncate into on a 64-bit
/// target. Widening casts to `u64`/`i64`/`usize` are not flagged; a cast to
/// anything here either truncates or should be written as `From`/`TryFrom`.
const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Macros banned from library targets (P3).
const BANNED_MACROS: &[&str] = &["todo", "unimplemented", "dbg", "println"];

/// Raw `std::sync` primitives banned from concurrency crates (C1). The
/// `btr_sync` wrappers (`OrderedMutex`, …) lex as distinct identifiers.
const RAW_SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// The atomic memory-ordering variants (C3). `cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) are not in this set, so comparison code never
/// trips the rule.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The `btr_sync` types whose `::new` takes ranks (C2 evidence), with how
/// many leading arguments are ranks: the lock wrappers take one, a
/// `SingleFlight` takes its table lock's, its slot locks' and its slot
/// condvars'.
const ORDERED_WRAPPERS: &[(&str, usize)] = &[
    ("OrderedMutex", 1),
    ("OrderedRwLock", 1),
    ("OrderedCondvar", 1),
    ("SingleFlight", 3),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AllowKind {
    Indexing,
    Cast,
    RawLock,
}

/// Runs every applicable rule over `src` and returns the findings.
pub fn analyze(src: &str, rules: FileRules) -> FileAnalysis {
    let tokens = lex(src);
    let mut out = FileAnalysis::default();
    let allows = collect_allows(&tokens, &mut out);
    let lines = LineMap::build(&tokens);
    let test_lines = attr_region_lines(&tokens, attr_is_test_marker);
    let feature_lines = attr_region_lines(&tokens, attr_is_target_feature);

    let in_test = |line: u32| covers(&test_lines, line);
    let in_target_feature = |line: u32| covers(&feature_lines, line);
    let mut suppressed_hits = 0usize;
    // Most recent `const`/`static` identifier, for naming rank decls.
    let mut last_decl_name: Option<String> = None;

    // Significant (non-comment) token indices for prev/next lookups.
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    for (si, &ti) in sig.iter().enumerate() {
        let tok = &tokens[ti];
        let prev = si.checked_sub(1).map(|p| &tokens[sig[p]]);
        let next = sig.get(si + 1).map(|&n| &tokens[n]);

        match tok.kind {
            TokKind::Ident if tok.text == "unsafe" => {
                let kind = match next.map(|t| (t.kind, t.text)) {
                    Some((TokKind::Punct('{'), _)) => "block",
                    Some((TokKind::Ident, "fn")) => "fn",
                    Some((TokKind::Ident, "impl")) => "impl",
                    Some((TokKind::Ident, "trait")) => "trait",
                    Some((TokKind::Ident, "extern")) => "extern",
                    // `pub unsafe fn` handled above; anything else (e.g. a
                    // macro fragment) still counts as an unsafe site.
                    _ => "other",
                };
                let has_safety = lines.has_safety_near(tok.line);
                out.unsafe_sites.push(UnsafeSite {
                    line: tok.line,
                    kind,
                    has_safety_comment: has_safety,
                });
                if !has_safety {
                    out.violations.push(Violation {
                        rule: Rule::UnsafeNoSafety,
                        line: tok.line,
                        what: format!("unsafe {kind} without a `// SAFETY:` comment"),
                    });
                }
                if !rules.unsafe_allowed {
                    out.violations.push(Violation {
                        rule: Rule::UnsafeOutsideAllowlist,
                        line: tok.line,
                        what: format!("unsafe {kind} outside the allowlisted module set"),
                    });
                }
            }
            // U3: a call (plain or turbofish) of an `_mm…` intrinsic.
            TokKind::Ident
                if is_simd_intrinsic(tok.text)
                    && matches!(
                        next.map(|t| t.kind),
                        Some(TokKind::Punct('(') | TokKind::Punct(':'))
                    )
                    && !in_target_feature(tok.line) =>
            {
                out.violations.push(Violation {
                    rule: Rule::IntrinsicOutsideTargetFeature,
                    line: tok.line,
                    what: format!("`{}` called outside a `#[target_feature]` fn", tok.text),
                });
            }
            TokKind::Punct('[')
                if rules.decode_path && !in_test(tok.line) && is_indexing(prev) =>
            {
                if allows.covers(tok.line, AllowKind::Indexing) {
                    suppressed_hits += 1;
                } else {
                    let on = prev.map(|p| p.text).unwrap_or("");
                    out.violations.push(Violation {
                        rule: Rule::Indexing,
                        line: tok.line,
                        what: format!("direct indexing `{on}[…]` (use .get()/typed error)"),
                    });
                }
            }
            TokKind::Ident
                if tok.text == "as" && rules.decode_path && !in_test(tok.line) =>
            {
                if let Some(n) = next {
                    if n.kind == TokKind::Ident && NARROW_INT_TYPES.contains(&n.text) {
                        if allows.covers(tok.line, AllowKind::Cast) {
                            suppressed_hits += 1;
                        } else {
                            out.violations.push(Violation {
                                rule: Rule::Cast,
                                line: tok.line,
                                what: format!(
                                    "possibly-truncating cast `as {}` (use From/TryFrom)",
                                    n.text
                                ),
                            });
                        }
                    }
                }
            }
            TokKind::Ident
                if rules.lib_target
                    && !in_test(tok.line)
                    && BANNED_MACROS.contains(&tok.text)
                    && matches!(next.map(|t| t.kind), Some(TokKind::Punct('!'))) =>
            {
                out.violations.push(Violation {
                    rule: Rule::BannedMacro,
                    line: tok.line,
                    what: format!("`{}!` in a library target", tok.text),
                });
            }
            // C1: raw lock primitives. Any mention of the bare identifier
            // counts — a type position, a `use`, or a `Mutex::new` call all
            // mean the file is not speaking btr-sync's vocabulary.
            TokKind::Ident
                if rules.concurrency_lib
                    && !in_test(tok.line)
                    && RAW_SYNC_PRIMITIVES.contains(&tok.text) =>
            {
                if allows.covers(tok.line, AllowKind::RawLock) {
                    suppressed_hits += 1;
                } else {
                    out.violations.push(Violation {
                        rule: Rule::RawLock,
                        line: tok.line,
                        what: format!(
                            "raw `{}` in a concurrency crate (use btr_sync::Ordered{})",
                            tok.text, tok.text
                        ),
                    });
                }
            }
            // C3: `Ordering::<mode>` without an `// ordering:` annotation.
            TokKind::Ident
                if rules.atomics
                    && !in_test(tok.line)
                    && ATOMIC_ORDERINGS.contains(&tok.text)
                    && is_ordering_path(&tokens, &sig, si)
                    && !lines.has_ordering_near(tok.line) =>
            {
                out.violations.push(Violation {
                    rule: Rule::AtomicOrdering,
                    line: tok.line,
                    what: format!(
                        "`Ordering::{}` without an `// ordering: <reason>` annotation",
                        tok.text
                    ),
                });
            }
            // C4: bare blocking calls. `.wait(` loses wakeups without a
            // hand-rolled predicate loop; `thread::sleep` stalls real time
            // the simulated clock can't account for.
            TokKind::Ident
                if rules.concurrency_lib
                    && !in_test(tok.line)
                    && (tok.text == "wait" || tok.text == "sleep")
                    && matches!(next.map(|t| t.kind), Some(TokKind::Punct('(')))
                    && matches!(
                        prev.map(|t| t.kind),
                        Some(TokKind::Punct('.') | TokKind::Punct(':'))
                    ) =>
            {
                let fix = if tok.text == "wait" {
                    "use OrderedCondvar::wait_while"
                } else {
                    "use SimClock::advance_seconds"
                };
                out.violations.push(Violation {
                    rule: Rule::BareWait,
                    line: tok.line,
                    what: format!("bare `{}()` in a concurrency crate ({fix})", tok.text),
                });
            }
            _ => {}
        }

        // C2 raw material (cross-checked against the `[lock_order]` table by
        // the workspace driver): rank-const declarations and ordered-wrapper
        // construction sites.
        if rules.lib_target && !in_test(tok.line) {
            if tok.kind == TokKind::Ident && (tok.text == "const" || tok.text == "static") {
                last_decl_name = next
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.to_string());
            }
            if tok.kind == TokKind::Ident && tok.text == "Rank" {
                if let Some(decl) = rank_decl_at(&tokens, &sig, si, last_decl_name.as_deref()) {
                    out.rank_decls.push(decl);
                }
            }
            let wrapper = ORDERED_WRAPPERS.iter().find(|(name, _)| *name == tok.text);
            if let (TokKind::Ident, Some(&(_, ranks))) = (tok.kind, wrapper) {
                out.wrapper_sites.extend(wrapper_sites_at(&tokens, &sig, si, ranks));
            }
        }
    }
    out.suppressed = suppressed_hits;
    out
}

/// Whether the significant token at `sig[si]` (an ordering variant name) is
/// preceded by `Ordering` `::`, i.e. forms an `Ordering::<mode>` path.
fn is_ordering_path(tokens: &[Token<'_>], sig: &[usize], si: usize) -> bool {
    if si < 3 {
        return false;
    }
    let at = |k: usize| &tokens[sig[k]];
    matches!(at(si - 1).kind, TokKind::Punct(':'))
        && matches!(at(si - 2).kind, TokKind::Punct(':'))
        && at(si - 3).kind == TokKind::Ident
        && at(si - 3).text == "Ordering"
}

/// Parses `Rank::new(<number>, "<name>")` starting at the `Rank` token;
/// `decl_name` is the most recent `const`/`static` identifier.
fn rank_decl_at(
    tokens: &[Token<'_>],
    sig: &[usize],
    si: usize,
    decl_name: Option<&str>,
) -> Option<RankDecl> {
    let at = |k: usize| sig.get(k).map(|&i| &tokens[i]);
    let expect = |k: usize, kind: TokKind, text: Option<&str>| {
        at(k).is_some_and(|t| t.kind == kind && text.is_none_or(|x| t.text == x))
    };
    if !(expect(si + 1, TokKind::Punct(':'), None)
        && expect(si + 2, TokKind::Punct(':'), None)
        && expect(si + 3, TokKind::Ident, Some("new"))
        && expect(si + 4, TokKind::Punct('('), None)
        && expect(si + 6, TokKind::Punct(','), None))
    {
        return None;
    }
    let rank_tok = at(si + 5)?;
    let name_tok = at(si + 7)?;
    if rank_tok.kind != TokKind::Number || name_tok.kind != TokKind::Str {
        return None;
    }
    let digits: String = rank_tok.text.chars().take_while(|c| c.is_ascii_digit()).collect();
    Some(RankDecl {
        const_name: decl_name.unwrap_or("<unnamed>").to_string(),
        rank: digits.parse().ok()?,
        name: name_tok.text.trim_matches('"').to_string(),
        line: tokens[sig[si]].line,
    })
}

/// Parses `Wrapper::new(<rank-arg>, …)` starting at the wrapper token and
/// returns one site per leading rank argument (`ranks` of them), each
/// carrying the last identifier of its argument (the rank const).
fn wrapper_sites_at(
    tokens: &[Token<'_>],
    sig: &[usize],
    si: usize,
    ranks: usize,
) -> Vec<WrapperSite> {
    let at = |k: usize| sig.get(k).map(|&i| &tokens[i]);
    let is = |k: usize, kind: TokKind, text: Option<&str>| {
        at(k).is_some_and(|t| t.kind == kind && text.is_none_or(|x| t.text == x))
    };
    if !(is(si + 1, TokKind::Punct(':'), None)
        && is(si + 2, TokKind::Punct(':'), None)
        && is(si + 3, TokKind::Ident, Some("new"))
        && is(si + 4, TokKind::Punct('('), None))
    {
        return Vec::new();
    }
    // Last identifier of each top-level argument; a trailing comma leaves
    // an empty last entry, which the truncation below drops.
    let mut args: Vec<Option<String>> = vec![None];
    let mut depth = 1i32;
    let mut j = si + 5;
    while let Some(t) = at(j) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct(',') if depth == 1 => args.push(None),
            TokKind::Ident => {
                if let Some(last) = args.last_mut() {
                    *last = Some(t.text.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    args.truncate(ranks);
    args.into_iter()
        .map(|rank_const| WrapperSite {
            wrapper: tokens[sig[si]].text.to_string(),
            rank_const: rank_const.unwrap_or_default(),
            line: tokens[sig[si]].line,
        })
        .collect()
}

/// Whether a `[` forms an index expression, judged by the preceding
/// significant token: an identifier (that is not a keyword), a closing
/// `)`/`]`, a `?`, or a literal can all be indexed into; everything else
/// (`&`, `=`, `:`, `,`, `<`, `#`, `!`, a lifetime, …) introduces a slice
/// type, array literal, attribute, or pattern.
fn is_indexing(prev: Option<&Token<'_>>) -> bool {
    match prev {
        Some(t) => match t.kind {
            TokKind::Ident => !NON_INDEXING_KEYWORDS.contains(&t.text),
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
            TokKind::Str | TokKind::Number => true,
            _ => false,
        },
        None => false,
    }
}

/// Escape-hatch annotations, resolved to the lines they cover.
struct Allows {
    /// Sorted `(line, kind)` pairs.
    entries: Vec<(u32, AllowKind)>,
}

impl Allows {
    fn covers(&self, line: u32, kind: AllowKind) -> bool {
        self.entries.iter().any(|&(l, k)| l == line && k == kind)
    }
}

/// Parses allow-annotation comments. A comment that is the only
/// token on its line covers the next line holding a non-comment token; a
/// trailing comment covers its own line. Unknown kinds and missing reasons
/// are reported and ignored.
fn collect_allows(tokens: &[Token<'_>], out: &mut FileAnalysis) -> Allows {
    // Lines that hold at least one non-comment token, sorted (tokens are in
    // source order, so pushes arrive sorted; dedup adjacent).
    let mut code_lines: Vec<u32> = Vec::new();
    let mut comment_only: Vec<bool> = Vec::new(); // parallel to tokens: token starts its line?
    let mut last_line = 0u32;
    for t in tokens {
        comment_only.push(t.line != last_line);
        if !t.is_comment() && code_lines.last() != Some(&t.line) {
            code_lines.push(t.line);
        }
        let end = t.line + t.text.matches('\n').count() as u32;
        last_line = end.max(last_line);
    }

    let mut entries = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let Some(rest) = t.text.find("lint:").map(|p| &t.text[p + 5..]) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            out.violations.push(Violation {
                rule: Rule::BadAnnotation,
                line: t.line,
                what: "malformed `lint: allow(...)` annotation".into(),
            });
            continue;
        };
        let kind = match args[..close].trim() {
            "indexing" => AllowKind::Indexing,
            "cast" => AllowKind::Cast,
            "rawlock" => AllowKind::RawLock,
            other => {
                out.violations.push(Violation {
                    rule: Rule::BadAnnotation,
                    line: t.line,
                    what: format!("unknown lint allow kind `{other}`"),
                });
                continue;
            }
        };
        let reason = args[close + 1..].trim_matches(|c: char| {
            c.is_whitespace() || c == '*' || c == '/'
        });
        if reason.is_empty() {
            out.violations.push(Violation {
                rule: Rule::BadAnnotation,
                line: t.line,
                what: "lint allow annotation requires a reason".into(),
            });
            continue;
        }
        // Whole-line comment → covers the next code line; trailing → its own.
        let starts_line = comment_only.get(i).copied().unwrap_or(true);
        let own_line_has_code = code_lines.binary_search(&t.line).is_ok();
        let target = if starts_line && !own_line_has_code {
            match code_lines.binary_search(&t.line) {
                Ok(_) => Some(t.line),
                Err(pos) => code_lines.get(pos).copied(),
            }
        } else {
            Some(t.line)
        };
        if let Some(line) = target {
            entries.push((line, kind));
        }
    }
    Allows { entries }
}

/// Per-line comment facts used by the U1 SAFETY and C3 ordering searches.
struct LineMap {
    /// Sorted list of lines fully or partially covered by a comment.
    comment_lines: Vec<u32>,
    /// Subset of `comment_lines` whose comment text contains `SAFETY:`.
    safety_lines: Vec<u32>,
    /// Subset of `comment_lines` whose comment text contains `ordering:`.
    ordering_lines: Vec<u32>,
    /// Lines holding at least one non-comment token.
    code_lines: Vec<u32>,
}

impl LineMap {
    fn build(tokens: &[Token<'_>]) -> LineMap {
        let mut comment_lines = Vec::new();
        let mut safety_lines = Vec::new();
        let mut ordering_lines = Vec::new();
        let mut code_lines = Vec::new();
        for t in tokens {
            if t.is_comment() {
                let span = t.text.matches('\n').count() as u32;
                for l in t.line..=t.line + span {
                    push_sorted(&mut comment_lines, l);
                    if t.text.contains("SAFETY:") {
                        push_sorted(&mut safety_lines, l);
                    }
                    if t.text.contains("ordering:") {
                        push_sorted(&mut ordering_lines, l);
                    }
                }
            } else {
                push_sorted(&mut code_lines, t.line);
            }
        }
        LineMap {
            comment_lines,
            safety_lines,
            ordering_lines,
            code_lines,
        }
    }

    /// U1 acceptance: a `SAFETY:` comment on the `unsafe` line itself, or on
    /// the contiguous run of comment-only lines directly above it.
    fn has_safety_near(&self, line: u32) -> bool {
        self.has_marker_near(&self.safety_lines, line)
    }

    /// C3 acceptance: an `// ordering:` comment on the token's line, or on
    /// the contiguous run of comment-only lines directly above it (which,
    /// inside a multi-line expression, is the annotation's natural home).
    fn has_ordering_near(&self, line: u32) -> bool {
        self.has_marker_near(&self.ordering_lines, line)
    }

    fn has_marker_near(&self, marker_lines: &[u32], line: u32) -> bool {
        if marker_lines.binary_search(&line).is_ok() {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let is_comment = self.comment_lines.binary_search(&l).is_ok();
            let is_code = self.code_lines.binary_search(&l).is_ok();
            if is_comment && !is_code {
                if marker_lines.binary_search(&l).is_ok() {
                    return true;
                }
                continue; // keep walking up the comment block
            }
            // First non-comment line above (code or blank) ends the search,
            // except a trailing comment on a code line directly above.
            return l == line - 1 && is_comment && marker_lines.binary_search(&l).is_ok();
        }
        false
    }
}

fn push_sorted(v: &mut Vec<u32>, x: u32) {
    if v.last() != Some(&x) {
        v.push(x);
    }
}

/// Computes the line ranges governed by a marker attribute: any brace region
/// whose item carries an attribute `is_marker` accepts — [`attr_is_test_marker`]
/// for test-gated code, [`attr_is_target_feature`] for SIMD kernels.
/// Returns disjoint sorted `(start, end)` inclusive line ranges.
fn attr_region_lines(
    tokens: &[Token<'_>],
    is_marker: fn(&[&Token<'_>]) -> bool,
) -> Vec<(u32, u32)> {
    let sig: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut stack: Vec<bool> = Vec::new(); // marker flag per open brace
    let mut region_start: Vec<u32> = Vec::new();
    let mut pending = false;
    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];
        match t.kind {
            TokKind::Punct('#') => {
                // Attribute: `#` (`!`)? `[` … `]` with nested brackets.
                let mut j = i + 1;
                if matches!(sig.get(j).map(|t| t.kind), Some(TokKind::Punct('!'))) {
                    j += 1;
                }
                if matches!(sig.get(j).map(|t| t.kind), Some(TokKind::Punct('['))) {
                    let mut depth = 0i32;
                    let mut attr_tokens: Vec<&Token<'_>> = Vec::new();
                    while j < sig.len() {
                        match sig[j].kind {
                            TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(']') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        attr_tokens.push(sig[j]);
                        j += 1;
                    }
                    if is_marker(&attr_tokens) {
                        pending = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            TokKind::Punct('{') => {
                let parent_marked = stack.iter().any(|&b| b);
                let marked = pending || parent_marked;
                if marked && !parent_marked {
                    region_start.push(t.line);
                }
                stack.push(pending || parent_marked);
                pending = false;
            }
            TokKind::Punct('}') => {
                let was_marked = stack.pop().unwrap_or(false);
                let still_marked = stack.iter().any(|&b| b);
                if was_marked && !still_marked {
                    if let Some(start) = region_start.pop() {
                        ranges.push((start, t.line));
                    }
                }
            }
            TokKind::Punct(';') => {
                // `#[cfg(test)] use foo;` — attribute consumed by the item.
                pending = false;
            }
            _ => {}
        }
        i += 1;
    }
    ranges.sort_unstable();
    ranges
}

/// Whether an attribute's inner tokens mark test-only code: the attribute
/// path is exactly `test`, or exactly `cfg` with `test` appearing anywhere
/// in its arguments. (`cfg_attr` does *not* gate the item out of non-test
/// builds, so it is not a marker.)
fn attr_is_test_marker(inner: &[&Token<'_>]) -> bool {
    // `inner` starts at the opening `[`.
    let first_ident = inner.iter().find(|t| t.kind == TokKind::Ident);
    match first_ident.map(|t| t.text) {
        Some("test") => true,
        Some("cfg") => inner
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test"),
        _ => false,
    }
}

/// Whether an attribute's inner tokens are `target_feature(…)`.
fn attr_is_target_feature(inner: &[&Token<'_>]) -> bool {
    let first_ident = inner.iter().find(|t| t.kind == TokKind::Ident);
    first_ident.is_some_and(|t| t.text == "target_feature")
}

/// Whether `ident` names an x86 SIMD intrinsic: `_mm`, optional width
/// digits, `_` (`_mm_popcnt_u32`, `_mm256_set1_epi32`, `_mm512_…`).
fn is_simd_intrinsic(ident: &str) -> bool {
    ident
        .strip_prefix("_mm")
        .is_some_and(|rest| rest.trim_start_matches(|c: char| c.is_ascii_digit()).starts_with('_'))
}

/// Whether `line` falls in one of the disjoint sorted inclusive `ranges`.
fn covers(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges
        .binary_search_by(|r| {
            if line < r.0 {
                std::cmp::Ordering::Greater
            } else if line > r.1 {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECODE: FileRules = FileRules {
        unsafe_allowed: false,
        decode_path: true,
        lib_target: true,
        concurrency_lib: false,
        atomics: false,
    };

    /// A concurrency-crate lib target with every rule family on.
    const CONCURRENCY: FileRules = FileRules {
        unsafe_allowed: false,
        decode_path: false,
        lib_target: true,
        concurrency_lib: true,
        atomics: true,
    };

    fn rule_count(a: &FileAnalysis, rule: Rule) -> usize {
        a.violations.iter().filter(|v| v.rule == rule).count()
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bare = analyze("fn f() { unsafe { g() } }", DECODE);
        assert_eq!(rule_count(&bare, Rule::UnsafeNoSafety), 1);
        assert_eq!(rule_count(&bare, Rule::UnsafeOutsideAllowlist), 1);
        assert_eq!(bare.unsafe_sites.len(), 1);
        assert_eq!(bare.unsafe_sites[0].kind, "block");

        let documented = analyze(
            "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g() }\n}",
            DECODE,
        );
        assert_eq!(rule_count(&documented, Rule::UnsafeNoSafety), 0);
        // U2 still applies: the file is not on the allowlist.
        assert_eq!(rule_count(&documented, Rule::UnsafeOutsideAllowlist), 1);

        let allowed = analyze(
            "// SAFETY: fine\nunsafe fn f() {}",
            FileRules {
                unsafe_allowed: true,
                ..DECODE
            },
        );
        assert!(allowed.violations.is_empty());
        assert_eq!(allowed.unsafe_sites[0].kind, "fn");
    }

    #[test]
    fn safety_comment_block_above_is_accepted() {
        // A multi-line comment block directly above, with SAFETY on its
        // first line, still counts.
        let src = "fn f() {\n    // SAFETY: the buffer outlives the call\n    // and the length was validated.\n    unsafe { g() }\n}";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::UnsafeNoSafety), 0);
        // A blank line between the comment and the `unsafe` breaks the run.
        let gap = "fn f() {\n    // SAFETY: stale\n\n    unsafe { g() }\n}";
        let b = analyze(gap, DECODE);
        assert_eq!(rule_count(&b, Rule::UnsafeNoSafety), 1);
    }

    #[test]
    fn unsafe_in_string_literals_is_invisible() {
        let src =
            r##"fn f() { let a = "unsafe { }"; let b = r#"unsafe fn"#; let c = b"unsafe"; }"##;
        let a = analyze(src, DECODE);
        assert!(a.unsafe_sites.is_empty());
        assert!(a.violations.is_empty());
    }

    #[test]
    fn test_gated_code_skips_p_rules_but_not_u_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(v: &Vec<u8>) -> u8 {\n        println!(\"{}\", v[0]);\n        v[1] as u8\n    }\n    fn g() { unsafe { h() } }\n}\n";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::Indexing), 0);
        assert_eq!(rule_count(&a, Rule::Cast), 0);
        assert_eq!(rule_count(&a, Rule::BannedMacro), 0);
        // `unsafe` in tests still needs SAFETY and allowlisting.
        assert_eq!(rule_count(&a, Rule::UnsafeNoSafety), 1);
        assert_eq!(rule_count(&a, Rule::UnsafeOutsideAllowlist), 1);
    }

    #[test]
    fn intrinsic_in_a_plain_fn_is_flagged() {
        let src = "fn sum(v: &[u8]) -> u32 {\n    let mut c = 0;\n    for &b in v { c += _mm_popcnt_u32(b); }\n    c\n}\n\
                   fn gather(d: *const i32, i: __m256i) -> __m256i { unsafe { _mm256_i32gather_epi32::<4>(d, i) } }\n";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::IntrinsicOutsideTargetFeature), 2, "{:?}", a.violations);
        // Tests are not exempt: the deoptimisation is the same there.
        let in_test = analyze("#[test]\nfn t() { _mm_setzero_si128(); }", DECODE);
        assert_eq!(rule_count(&in_test, Rule::IntrinsicOutsideTargetFeature), 1);
    }

    #[test]
    fn intrinsic_under_target_feature_is_not_flagged() {
        let src = "use std::arch::x86_64::{_mm_popcnt_u32, _mm_popcnt_u64};\n\
                   #[cfg(target_arch = \"x86_64\")]\n#[target_feature(enable = \"sse4.2\")]\n\
                   unsafe fn kernel(v: &[u8]) -> u32 {\n    let mut c = 0;\n    for &b in v {\n        c += _mm_popcnt_u32(b);\n    }\n    c\n}\n\
                   fn not_an_intrinsic() { _mmap(); _mm(); my_mm_popcnt_u32(); }\n";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::IntrinsicOutsideTargetFeature), 0, "{:?}", a.violations);
    }

    #[test]
    fn braces_in_literals_do_not_distort_test_regions() {
        let src = "#[cfg(test)]\nmod t {\n    const S: &str = \"}\";\n    const C: char = '{';\n    fn f(v: &Vec<u8>) -> u8 { v[0] as u8 }\n}\nfn g(v: &Vec<u8>) -> u8 { v[1] as u8 }\n";
        let a = analyze(src, DECODE);
        // Only g(), outside the test module, is flagged.
        assert_eq!(rule_count(&a, Rule::Indexing), 1);
        assert_eq!(rule_count(&a, Rule::Cast), 1);
        assert!(a.violations.iter().all(|v| v.line == 7), "{:?}", a.violations);
    }

    #[test]
    fn indexing_only_flags_index_expressions() {
        for (src, expect) in [
            ("v[i]", 1),
            ("f()[0]", 1),
            ("x?[0]", 1),
            ("m[k][j]", 2),
            ("let [a, b] = p;", 0),  // pattern
            ("fn t(x: &[u8]) {}", 0), // slice type
            ("let a = [0u8; 4];", 0), // array literal
            ("x as [u8; 4]", 0),      // cast to array type
            ("#[derive(Debug)]", 0),  // attribute
        ] {
            let a = analyze(src, DECODE);
            assert_eq!(rule_count(&a, Rule::Indexing), expect, "{src}");
        }
        // Outside decode-path lib targets the rule is off entirely.
        let off = analyze(
            "v[i]",
            FileRules {
                decode_path: false,
                ..DECODE
            },
        );
        assert!(off.violations.is_empty());
    }

    #[test]
    fn cast_flags_narrow_integer_targets_only() {
        for (src, expect) in [
            ("x as u8", 1),
            ("x as u16", 1),
            ("x as i32", 1),
            ("x as usize", 0),
            ("x as u64", 0),
            ("x as i64", 0),
            ("x as f64", 0),
        ] {
            let a = analyze(src, DECODE);
            assert_eq!(rule_count(&a, Rule::Cast), expect, "{src}");
        }
    }

    #[test]
    fn banned_macros_in_lib_targets() {
        let a = analyze(
            "fn f() { todo!() }\nfn g() { dbg!(1); println!(\"x\"); }",
            DECODE,
        );
        assert_eq!(rule_count(&a, Rule::BannedMacro), 3);
        // Non-lib targets (bins, tests/, benches/) may print.
        let bin = analyze(
            "fn main() { println!(\"x\"); }",
            FileRules {
                decode_path: false,
                lib_target: false,
                ..DECODE
            },
        );
        assert_eq!(rule_count(&bin, Rule::BannedMacro), 0);
        // `println` as a plain identifier (no `!`) is fine.
        let ident = analyze("fn println() {}", DECODE);
        assert_eq!(rule_count(&ident, Rule::BannedMacro), 0);
    }

    #[test]
    fn whole_line_annotation_covers_next_code_line_only() {
        let src = "fn f(v: &Vec<u8>) -> u8 {\n    // lint: allow(indexing) checked by caller\n    let a = v[0] + v[1];\n    let b = v[2];\n    a + b\n}\n";
        let a = analyze(src, DECODE);
        assert_eq!(a.suppressed, 2, "both hits on the covered line");
        assert_eq!(rule_count(&a, Rule::Indexing), 1, "the line after is not covered");
        assert_eq!(rule_count(&a, Rule::BadAnnotation), 0);
    }

    #[test]
    fn trailing_annotation_covers_its_own_line() {
        let src = "fn f(v: &Vec<u8>) -> u8 { v[0] } // lint: allow(indexing) fixture\n";
        let a = analyze(src, DECODE);
        assert!(a.violations.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn annotation_without_reason_is_reported_and_suppresses_nothing() {
        let src = "fn f(v: &Vec<u8>) -> u8 {\n    // lint: allow(indexing)\n    v[0]\n}\n";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::BadAnnotation), 1);
        assert_eq!(rule_count(&a, Rule::Indexing), 1);
        assert_eq!(a.suppressed, 0);
    }

    #[test]
    fn unknown_or_mismatched_annotation_kinds() {
        let unknown = analyze("// lint: allow(unwrap) because\nlet x = v[0];", DECODE);
        assert_eq!(rule_count(&unknown, Rule::BadAnnotation), 1);
        assert_eq!(rule_count(&unknown, Rule::Indexing), 1);
        // allow(cast) does not excuse indexing.
        let mismatch = analyze("// lint: allow(cast) wrong kind\nlet x = v[0];", DECODE);
        assert_eq!(rule_count(&mismatch, Rule::Indexing), 1);
        assert_eq!(mismatch.suppressed, 0);
    }

    #[test]
    fn rawlock_flags_std_sync_primitives_in_concurrency_crates() {
        let src = "use std::sync::{Arc, Mutex};\nstruct S { m: Mutex<u32>, c: Condvar, r: RwLock<u8> }\n";
        let a = analyze(src, CONCURRENCY);
        assert_eq!(rule_count(&a, Rule::RawLock), 4, "{:?}", a.violations);
        // The ordered wrappers are distinct identifiers and pass.
        let ok = analyze("struct S { m: OrderedMutex<u32>, c: OrderedCondvar }", CONCURRENCY);
        assert_eq!(rule_count(&ok, Rule::RawLock), 0);
        // Outside concurrency crates the rule is off.
        let off = analyze("struct S { m: Mutex<u32> }", DECODE);
        assert_eq!(rule_count(&off, Rule::RawLock), 0);
        // Test code is exempt (std locks are fine in unit tests).
        let test = analyze("#[cfg(test)]\nmod t {\n    fn f() { let m = Mutex::new(0); }\n}\n", CONCURRENCY);
        assert_eq!(rule_count(&test, Rule::RawLock), 0);
        // The escape hatch works and demands a reason.
        let allowed = analyze(
            "static INIT: Mutex<bool> = Mutex::new(false); // lint: allow(rawlock) process-global init flag, no ordering\n",
            CONCURRENCY,
        );
        assert_eq!(rule_count(&allowed, Rule::RawLock), 0);
        assert_eq!(allowed.suppressed, 2);
    }

    #[test]
    fn atomic_ordering_needs_an_annotation() {
        let bare = analyze("fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }", CONCURRENCY);
        assert_eq!(rule_count(&bare, Rule::AtomicOrdering), 1);
        let trailing = analyze(
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter\n}",
            CONCURRENCY,
        );
        assert_eq!(rule_count(&trailing, Rule::AtomicOrdering), 0);
        // A comment block directly above works, even when the marker is not
        // on the last comment line (multi-line justifications).
        let above = analyze(
            "fn f(c: &AtomicU64) {\n    // ordering: statistics counter, read only\n    // after the workers joined\n    c.load(Ordering::Acquire);\n}",
            CONCURRENCY,
        );
        assert_eq!(rule_count(&above, Rule::AtomicOrdering), 0);
        // `cmp::Ordering` variants never match.
        let cmp = analyze("fn f() -> Ordering { Ordering::Equal }", CONCURRENCY);
        assert_eq!(rule_count(&cmp, Rule::AtomicOrdering), 0);
        // A bare variant ident without the `Ordering::` path is invisible.
        let bare_ident = analyze("fn f(c: &AtomicU64) { c.load(Relaxed); }", CONCURRENCY);
        assert_eq!(rule_count(&bare_ident, Rule::AtomicOrdering), 0);
        // Off for files on the atomics allowlist.
        let off = analyze(
            "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }",
            FileRules {
                atomics: false,
                ..CONCURRENCY
            },
        );
        assert_eq!(rule_count(&off, Rule::AtomicOrdering), 0);
    }

    #[test]
    fn bare_wait_and_sleep_are_banned_in_concurrency_libs() {
        let a = analyze(
            "fn f() { let g = cv.wait(g).unwrap(); std::thread::sleep(d); }",
            CONCURRENCY,
        );
        assert_eq!(rule_count(&a, Rule::BareWait), 2, "{:?}", a.violations);
        // `wait_while` is the sanctioned form; `wait` as a field or a plain
        // ident is not a call.
        let ok = analyze("fn f() { let g = cv.wait_while(g, |s| s.busy); let wait = 3; }", CONCURRENCY);
        assert_eq!(rule_count(&ok, Rule::BareWait), 0);
        // Tests may sleep (timing-based fixtures).
        let test = analyze(
            "#[cfg(test)]\nmod t {\n    fn f() { std::thread::sleep(d); }\n}\n",
            CONCURRENCY,
        );
        assert_eq!(rule_count(&test, Rule::BareWait), 0);
    }

    #[test]
    fn rank_decls_and_wrapper_sites_are_collected() {
        let src = "\
const CACHE_RANK: Rank = Rank::new(70, \"scan.cache.shard\");\n\
pub(crate) static OTHER_RANK: Rank = Rank::new(90, \"scan.health\");\n\
fn f() {\n\
    let m = OrderedMutex::new(CACHE_RANK, Shard::default());\n\
    let c = OrderedCondvar::new(OTHER_RANK);\n\
    let r = OrderedRwLock::new(CACHE_RANK, vec![1]);\n\
    let s = SingleFlight::new(\n        CACHE_RANK,\n        OTHER_RANK,\n        CACHE_RANK,\n    );\n\
}\n";
        let a = analyze(src, CONCURRENCY);
        assert_eq!(a.rank_decls.len(), 2, "{:?}", a.rank_decls);
        assert_eq!(a.rank_decls[0].const_name, "CACHE_RANK");
        assert_eq!(a.rank_decls[0].rank, 70);
        assert_eq!(a.rank_decls[0].name, "scan.cache.shard");
        assert_eq!(a.rank_decls[1].const_name, "OTHER_RANK");
        // One site per lock wrapper, three for the single-flight table (its
        // table lock, slot locks, and slot condvars).
        assert_eq!(a.wrapper_sites.len(), 6, "{:?}", a.wrapper_sites);
        let flight: Vec<_> = a.wrapper_sites[3..].iter().map(|w| w.rank_const.as_str()).collect();
        assert_eq!(flight, ["CACHE_RANK", "OTHER_RANK", "CACHE_RANK"]);
        assert_eq!(a.wrapper_sites[5].wrapper, "SingleFlight");
        assert_eq!(a.wrapper_sites[0].wrapper, "OrderedMutex");
        assert_eq!(a.wrapper_sites[0].rank_const, "CACHE_RANK");
        assert_eq!(a.wrapper_sites[1].wrapper, "OrderedCondvar");
        assert_eq!(a.wrapper_sites[1].rank_const, "OTHER_RANK");
        // Non-lib files (tests, examples) collect nothing.
        let off = analyze(src, FileRules { lib_target: false, ..CONCURRENCY });
        assert!(off.rank_decls.is_empty() && off.wrapper_sites.is_empty());
    }

    #[test]
    fn inline_rank_in_wrapper_does_not_resolve_to_a_const() {
        // `Rank::new` inline (not behind a named const): the collected
        // rank_const is the trailing `new` ident, which the workspace
        // cross-check will fail to resolve — by design.
        let a = analyze(
            "fn f() { let m = OrderedMutex::new(Rank::new(5, \"x\"), 0u32); }",
            CONCURRENCY,
        );
        assert_eq!(a.wrapper_sites.len(), 1);
        assert_eq!(a.wrapper_sites[0].rank_const, "new");
    }

    #[test]
    fn annotation_inside_string_is_not_an_annotation() {
        let src = "fn f(v: &Vec<u8>) -> u8 {\n    let s = \"// lint: allow(indexing) nope\";\n    v[0]\n}\n";
        let a = analyze(src, DECODE);
        assert_eq!(rule_count(&a, Rule::Indexing), 1);
        assert_eq!(a.suppressed, 0);
    }
}
