//! The static half of model conformance: a repo-specific source
//! analyzer.
//!
//! The paper's guarantees (Section 1.1) and every number in
//! `EXPERIMENTS.md` rest on the simulation being a *deterministic*
//! implementation of the sleeping model — and since the sharded send
//! half-step put real threads inside the kernel, on that parallelism
//! being confined to provably disjoint state. This crate enforces the
//! source hygiene that keeps both true; the dynamic half (the trace
//! auditor) lives in `netsim::validate`. No external dependencies: the
//! analyzer is a real tokenizer ([`lexer`]) plus a lightweight scope
//! tracker ([`scope`]), tuned to this workspace's idioms rather than
//! general Rust. Tokens, not line regexes: string literals, char
//! literals, raw strings, and nested block comments can never be
//! mistaken for code, and `use … as` aliases resolve back to the names
//! the rules lint.
//!
//! # Rules
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | `hash-container` | netsim, core, bench, lowerbound, root (tests included) | `HashMap`/`HashSet` (aliases resolved): iteration order is randomized per process, which has already produced a real nondeterminism bug (the A1 merge-depth BFS now in `examples/ablations.rs`) |
//! | `wall-clock` | every crate, non-test | `std::time`, `SystemTime`, `Instant::now`, `thread_rng`: ambient nondeterminism outside the vendored, seeded shims |
//! | `print-in-lib` | every crate, non-bin, non-test | `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!`: library code must return strings; only binaries print |
//! | `bare-unwrap` | netsim, core, non-test | `.unwrap()` with no message: hot-path panics must be typed errors or `.expect("reason")` documenting the invariant |
//! | `engine-panic-path` | `netsim/src/engine.rs`, `netsim/src/sim.rs`, non-test | any panic machinery (`unwrap`, `expect`, `panic!`, `unreachable!`, …): the executor hot path returns `SimError`, never panics |
//! | `fault-stream` | `netsim/src/faults.rs`, non-test | touching any RNG source other than the plan's own `fault_seed` (`master_seed`, `rng_seed`, `thread_rng`, `SmallRng`): fault decisions must be a pure function of `(fault_seed, tag, round, edge)` so both executors reach identical verdicts and `run --json` replays exactly |
//! | `shard-safety` | lane-executed code, non-test | shared-mutable primitives (`Mutex`, `RwLock`, `Atomic*`, `Cell`, `RefCell`, `UnsafeCell`, `OnceLock`/`OnceCell`/`LazyLock`/`LazyCell`, `thread_local!`, `static mut`, `mpsc`) and unordered parallel iteration (`rayon`, `par_iter` & friends): shard workers may touch only disjoint state, merged in lane order |
//! | `determinism` | netsim, core, graphlib, lowerbound + every `Protocol` impl, non-test | `f32`/`f64` types, casts, and float-shaped literals (weights are `u64`; float creep is the classic way fingerprints rot) and `sort_unstable_by`/`sort_unstable_by_key` (tied keys reorder across toolchains; plain `sort_unstable` on the values themselves is fine — equal values are indistinguishable) |
//! | `bad-pragma` | everywhere | a `lint:allow` pragma naming an unknown rule or missing its ` -- reason` |
//! | `stale-pragma` | everywhere | a well-formed `lint:allow` that suppresses nothing: the code it covered is gone, so the waiver must go too |
//!
//! **Lane-executed code** is everything a shard worker can run during
//! the parallel send and receive half-steps: all of `netsim` (the
//! kernel, drivers, and executor machinery), `mst-core` except the
//! orchestration layer above the kernel (`exec.rs`, `runner.rs`,
//! `registry.rs`), and the body of *any* `impl … Protocol for …` block
//! wherever it lives (protocol `send` and `deliver` run inside shard
//! workers — the scope tracker marks these blocks, so a bench workload
//! protocol is held to the same rule as a netsim one).
//!
//! `graphlib` is deliberately outside the `hash-container` scope: its
//! hash sets back membership-only rejection sampling (insert/contains,
//! order never observed), and its generators are seeded. It *is* inside
//! the `determinism` scope — graph weights and MST references are
//! deterministic state.
//!
//! # Allow pragma lifecycle
//!
//! A finding is suppressed by a pragma on the same line or on a comment
//! line directly above, naming the rule and giving a reason:
//!
//! ```text
//! // lint:allow(wall-clock) -- throughput report needs real elapsed time
//! let started = std::time::Instant::now();
//! ```
//!
//! The lifecycle is add → justify → stale-detected → remove: a pragma
//! with an unknown rule name or without the ` -- reason` tail is
//! reported (`bad-pragma`) and **not** honored; a well-formed pragma
//! that no longer suppresses anything is reported (`stale-pragma`) so
//! waivers cannot outlive the code they excused. The full inventory of
//! active pragmas is auditable via `conformance-lint --pragmas`.
//!
//! # Machine-readable findings
//!
//! [`render_findings_json`] serializes findings into a byte-deterministic
//! artifact (fixed key order, findings sorted by file/line/rule/message,
//! no timestamps or absolute paths). CI regenerates it and `cmp`s against
//! the committed zero-findings baseline `conformance-baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod scope;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Tok, TokKind};

/// Names of every rule the analyzer knows, in report order.
pub const RULE_NAMES: &[&str] = &[
    "hash-container",
    "wall-clock",
    "print-in-lib",
    "bare-unwrap",
    "engine-panic-path",
    "fault-stream",
    "shard-safety",
    "determinism",
    "bad-pragma",
    "stale-pragma",
];

/// Crates whose sources are checked for `hash-container` (directory names
/// under `crates/`, plus `sleeping-mst` for the root package).
const HASH_SCOPE: &[&str] = &["netsim", "core", "bench", "lowerbound", "sleeping-mst"];

/// Crates whose non-test sources are checked for `bare-unwrap`.
const UNWRAP_SCOPE: &[&str] = &["netsim", "core"];

/// Crates whose non-test sources are checked for `determinism`: the ones
/// that own deterministic simulation state. `bench` and the root crate
/// are excluded — they fit exponents and render reports, where floats
/// are the point — but their `Protocol` impls are still in scope via the
/// scope tracker.
const DET_SCOPE: &[&str] = &["netsim", "core", "graphlib", "lowerbound"];

/// `mst-core` files *above* the kernel (spawn/capture/registry
/// orchestration) — not lane-executed, so outside `shard-safety`. The
/// panic-capture `thread_local!` in `exec.rs` is the legitimate use this
/// carve-out exists for.
const CORE_NON_LANE: &[&str] = &["exec.rs", "runner.rs", "registry.rs"];

/// Shared-mutable primitives forbidden in lane-executed code.
const SHARED_MUTABLE: &[&str] = &[
    "Mutex",
    "RwLock",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicPtr",
    "mpsc",
];

/// Unordered-parallel-iteration markers forbidden in lane-executed code.
const PARALLEL_ITER: &[&str] = &[
    "rayon",
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
];

/// One lint finding, reported as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The violated rule (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One active, well-formed `lint:allow` pragma, for the `--pragmas`
/// inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaEntry {
    /// Workspace-relative path of the file carrying the pragma.
    pub file: String,
    /// 1-indexed line of the pragma comment.
    pub line: usize,
    /// The rule it waives.
    pub rule: String,
    /// The justification after ` -- `.
    pub reason: String,
}

impl fmt::Display for PragmaEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.reason
        )
    }
}

/// How a file is classified for rule scoping, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileCtx<'a> {
    /// Directory name under `crates/`, or `sleeping-mst` for the root
    /// package's `src/`.
    crate_name: &'a str,
    /// Binary target (`src/bin/…` or `src/main.rs`): prints are its job.
    is_bin: bool,
    /// The executor hot path held to the zero-panic rule.
    is_engine_hot_path: bool,
    /// The fault-decision module: its randomness must derive only from
    /// the plan's own `fault_seed`, never the protocol RNG streams.
    is_fault_plane: bool,
    /// Lane-executed file: every line is in `shard-safety` scope (the
    /// kernel, drivers, and protocol-state modules a shard worker runs).
    is_lane_file: bool,
    /// Deterministic-state crate: every non-test line is in
    /// `determinism` scope.
    is_det_scope: bool,
}

fn classify(path: &str) -> FileCtx<'_> {
    let crate_name = match path.find("crates/") {
        Some(i) => {
            let rest = &path[i + "crates/".len()..];
            rest.split('/').next().unwrap_or("")
        }
        None if path.starts_with("src/") || path.contains("/src/") => "sleeping-mst",
        None => "",
    };
    let file_name = path.rsplit('/').next().unwrap_or(path);
    let is_bin = path.contains("/bin/") || path.ends_with("main.rs");
    FileCtx {
        crate_name,
        is_bin,
        is_engine_hot_path: path.ends_with("crates/netsim/src/engine.rs")
            || path.ends_with("crates/netsim/src/sim.rs")
            || path == "crates/netsim/src/engine.rs"
            || path == "crates/netsim/src/sim.rs",
        is_fault_plane: path.ends_with("crates/netsim/src/faults.rs")
            || path == "crates/netsim/src/faults.rs",
        is_lane_file: (crate_name == "netsim" && !is_bin)
            || (crate_name == "core" && !is_bin && !CORE_NON_LANE.contains(&file_name)),
        is_det_scope: DET_SCOPE.contains(&crate_name),
    }
}

/// A parsed `lint:allow` pragma occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PragmaSite {
    /// 1-indexed line of the pragma text.
    line: usize,
    rule: String,
    reason: String,
    /// Known rule name *and* has a reason (honored iff true).
    valid: bool,
    /// Suppressed at least one finding in this run.
    used: bool,
}

/// Extracts a `lint:allow(<rule>) -- reason` pragma from one line of
/// comment text, if any.
fn parse_pragma(line: &str) -> Option<(String, Option<String>)> {
    let start = line.find("lint:allow(")?;
    let after = &line[start + "lint:allow(".len()..];
    let close = after.find(')')?;
    let rule = after[..close].trim().to_string();
    let tail = &after[close + 1..];
    let reason = tail
        .trim_start()
        .strip_prefix("--")
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(|r| {
            // A pragma inside a block comment must not swallow the
            // comment terminator into its reason.
            r.trim_end_matches("*/").trim_end().to_string()
        })
        .filter(|r| !r.is_empty());
    Some((rule, reason))
}

/// Per-file analysis state shared by the lint and the pragma inventory.
struct Analysis<'a> {
    toks: Vec<Tok<'a>>,
    scopes: scope::ScopeMap,
    /// `line_toks[l]` = indices of the code tokens starting on line `l`
    /// (1-indexed; index 0 unused).
    line_toks: Vec<Vec<usize>>,
    pragmas: Vec<PragmaSite>,
    /// `coverage[l]` = pragma indices covering line `l`.
    coverage: Vec<Vec<usize>>,
    line_count: usize,
}

fn analyze(source: &str) -> Analysis<'_> {
    let toks = lexer::lex(source);
    let scopes = scope::analyze(&toks);
    let line_count = source.lines().count();
    let mut line_toks: Vec<Vec<usize>> = vec![Vec::new(); line_count + 2];
    for (i, t) in toks.iter().enumerate() {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let l = (t.line as usize).min(line_count + 1);
        line_toks[l].push(i);
    }
    // Pragmas live in comment tokens only: a string literal spelling
    // `lint:allow(…)` is data, not a waiver.
    let mut pragmas = Vec::new();
    for t in &toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        for (off, text) in t.text.lines().enumerate() {
            if let Some((rule, reason)) = parse_pragma(text) {
                let valid = RULE_NAMES.contains(&rule.as_str()) && reason.is_some();
                pragmas.push(PragmaSite {
                    line: t.line as usize + off,
                    rule,
                    reason: reason.unwrap_or_default(),
                    valid,
                    used: false,
                });
            }
        }
    }
    let mut coverage: Vec<Vec<usize>> = vec![Vec::new(); line_count + 2];
    for (idx, p) in pragmas.iter().enumerate() {
        if !p.valid {
            continue;
        }
        if p.line < coverage.len() {
            coverage[p.line].push(idx);
        }
        // A pragma on a pure comment line also covers the line below.
        let own_line_has_code = line_toks.get(p.line).is_some_and(|v| !v.is_empty());
        if !own_line_has_code && p.line + 1 < coverage.len() {
            coverage[p.line + 1].push(idx);
        }
    }
    Analysis {
        toks,
        scopes,
        line_toks,
        pragmas,
        coverage,
        line_count,
    }
}

// --- token-sequence matchers ------------------------------------------

/// `true` when `toks[i]` is the ident `name`.
fn is_ident(toks: &[&Tok<'_>], i: usize, name: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

/// `true` when `toks[i]` is the punct `c`.
fn is_punct(toks: &[&Tok<'_>], i: usize, c: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
}

/// `.name(` at position `i` (the `.`); `closed` additionally requires
/// the immediate `)` of a zero-argument call.
fn is_method_call(toks: &[&Tok<'_>], i: usize, name: &str, closed: bool) -> bool {
    is_punct(toks, i, ".")
        && is_ident(toks, i + 1, name)
        && is_punct(toks, i + 2, "(")
        && (!closed || is_punct(toks, i + 3, ")"))
}

/// `a::b` starting at position `i`.
fn is_path2(toks: &[&Tok<'_>], i: usize, a: &str, b: &str) -> bool {
    is_ident(toks, i, a)
        && is_punct(toks, i + 1, ":")
        && is_punct(toks, i + 2, ":")
        && is_ident(toks, i + 3, b)
}

/// `name!` at position `i`.
fn is_macro(toks: &[&Tok<'_>], i: usize, name: &str) -> bool {
    is_ident(toks, i, name) && is_punct(toks, i + 1, "!")
}

/// Lints one source file. `path` is the workspace-relative path (used for
/// rule scoping and in findings); `source` its full contents.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let ctx = classify(path);
    if ctx.crate_name == "conformance" {
        // The analyzer's own sources and fixtures mention every needle.
        return Vec::new();
    }

    let mut analysis = analyze(source);
    let mut findings = Vec::new();

    // Malformed pragmas are findings themselves (and never honored).
    for p in &analysis.pragmas {
        if p.valid {
            continue;
        }
        if !RULE_NAMES.contains(&p.rule.as_str()) {
            findings.push(Finding {
                file: path.to_string(),
                line: p.line,
                rule: "bad-pragma",
                message: format!(
                    "unknown rule '{}' (known: {})",
                    p.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else {
            findings.push(Finding {
                file: path.to_string(),
                line: p.line,
                rule: "bad-pragma",
                message: format!(
                    "pragma for '{}' lacks a reason; write `lint:allow({}) -- why`",
                    p.rule, p.rule
                ),
            });
        }
    }

    // Rule pass, line by line over code tokens.
    for line in 1..=analysis.line_count {
        let idxs = std::mem::take(&mut analysis.line_toks[line]);
        if idxs.is_empty() {
            analysis.line_toks[line] = idxs;
            continue;
        }
        let toks: Vec<&Tok<'_>> = idxs.iter().map(|&i| &analysis.toks[i]).collect();
        let in_test = analysis.scopes.in_test[idxs[0]];
        let in_proto = idxs.iter().any(|&i| analysis.scopes.in_protocol_impl[i]);
        let aliases = &analysis.scopes.aliases;
        let resolve = |name: &str| -> String {
            aliases
                .get(name)
                .cloned()
                .unwrap_or_else(|| name.to_string())
        };

        // (rule, message) matches for this line, at most one per rule.
        let mut matched: Vec<(&'static str, String)> = Vec::new();
        let hit =
            |rule: &'static str, message: String, matched: &mut Vec<(&'static str, String)>| {
                if !matched.iter().any(|(r, _)| *r == rule) {
                    matched.push((rule, message));
                }
            };

        // hash-container: tests included — trace-pinning and differential
        // tests are exactly where iteration order corrupts expectations.
        if HASH_SCOPE.contains(&ctx.crate_name) {
            for t in &toks {
                if t.kind == TokKind::Ident {
                    let r = resolve(t.text);
                    if r == "HashMap" || r == "HashSet" {
                        hit(
                            "hash-container",
                            "std hash containers iterate in randomized order; use \
                             BTreeMap/BTreeSet or sort the keys"
                                .to_string(),
                            &mut matched,
                        );
                    }
                }
            }
        }

        if !in_test {
            if !ctx.crate_name.is_empty() {
                let wall = (0..toks.len()).any(|i| {
                    is_path2(&toks, i, "std", "time")
                        || is_ident(&toks, i, "SystemTime")
                        || (is_path2(&toks, i, "Instant", "now") && is_punct(&toks, i + 4, "("))
                        || is_ident(&toks, i, "thread_rng")
                });
                if wall {
                    hit(
                        "wall-clock",
                        "ambient time/randomness breaks run reproducibility; derive \
                         everything from the seeded shims"
                            .to_string(),
                        &mut matched,
                    );
                }
            }

            if !ctx.crate_name.is_empty() && !ctx.is_bin {
                let prints = (0..toks.len()).any(|i| {
                    ["println", "eprintln", "print", "eprint", "dbg"]
                        .iter()
                        .any(|m| is_macro(&toks, i, m))
                });
                if prints {
                    hit(
                        "print-in-lib",
                        "library code must not print; return a String and let the binary \
                         emit it"
                            .to_string(),
                        &mut matched,
                    );
                }
            }

            if UNWRAP_SCOPE.contains(&ctx.crate_name)
                && (0..toks.len()).any(|i| is_method_call(&toks, i, "unwrap", true))
            {
                hit(
                    "bare-unwrap",
                    "unreasoned panic in protocol/engine code; use a typed error or \
                     .expect(\"invariant\")"
                        .to_string(),
                    &mut matched,
                );
            }

            if ctx.is_engine_hot_path {
                let panics = (0..toks.len()).any(|i| {
                    is_method_call(&toks, i, "unwrap", true)
                        || is_method_call(&toks, i, "expect", false)
                        || ["panic", "unreachable", "todo", "unimplemented"]
                            .iter()
                            .any(|m| is_macro(&toks, i, m))
                });
                if panics {
                    hit(
                        "engine-panic-path",
                        "the executor hot path must return SimError, never panic".to_string(),
                        &mut matched,
                    );
                }
            }

            if ctx.is_fault_plane {
                let tainted = toks.iter().any(|t| {
                    t.kind == TokKind::Ident
                        && ["master_seed", "rng_seed", "thread_rng", "SmallRng"].contains(&t.text)
                });
                if tainted {
                    hit(
                        "fault-stream",
                        "fault decisions must derive only from the plan's fault_seed (a \
                         pure function of (fault_seed, tag, round, edge)); mixing in \
                         protocol RNG streams breaks replay and executor agreement"
                            .to_string(),
                        &mut matched,
                    );
                }
            }

            if ctx.is_lane_file || in_proto {
                for (i, t) in toks.iter().enumerate() {
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let r = resolve(t.text);
                    if SHARED_MUTABLE.contains(&r.as_str()) {
                        hit(
                            "shard-safety",
                            format!(
                                "shared-mutable primitive `{r}` in lane-executed code; shard \
                                 workers must touch only disjoint state, merged in lane \
                                 order (DESIGN.md, \"Memory layout & sharding\")"
                            ),
                            &mut matched,
                        );
                    } else if PARALLEL_ITER.contains(&r.as_str()) {
                        hit(
                            "shard-safety",
                            format!(
                                "unordered parallel iteration (`{r}`) in lane-executed \
                                 code; lane order is the determinism contract — partition \
                                 explicitly and merge in lane order"
                            ),
                            &mut matched,
                        );
                    } else if is_macro(&toks, i, "thread_local") {
                        hit(
                            "shard-safety",
                            "`thread_local!` state in lane-executed code diverges per \
                             shard worker; keep per-lane state in ShardScratch"
                                .to_string(),
                            &mut matched,
                        );
                    } else if is_ident(&toks, i, "static") && is_ident(&toks, i + 1, "mut") {
                        hit(
                            "shard-safety",
                            "`static mut` in lane-executed code is a data race waiting for \
                             a second shard; keep state in the kernel's buffers"
                                .to_string(),
                            &mut matched,
                        );
                    }
                }
            }

            if ctx.is_det_scope || in_proto {
                for (i, t) in toks.iter().enumerate() {
                    match t.kind {
                        TokKind::Ident if t.text == "f32" || t.text == "f64" => {
                            hit(
                                "determinism",
                                format!(
                                    "`{}` in deterministic-state code; weights and stats \
                                     are u64 — float creep rots execution fingerprints \
                                     across toolchains",
                                    t.text
                                ),
                                &mut matched,
                            );
                        }
                        TokKind::Float => {
                            hit(
                                "determinism",
                                format!(
                                    "float literal `{}` in deterministic-state code; \
                                     weights and stats are u64 — float creep rots \
                                     execution fingerprints across toolchains",
                                    t.text
                                ),
                                &mut matched,
                            );
                        }
                        TokKind::Ident
                            if (t.text == "sort_unstable_by"
                                || t.text == "sort_unstable_by_key")
                                && is_punct(&toks, i + 1, "(") =>
                        {
                            hit(
                                "determinism",
                                format!(
                                    "`{}` can reorder tied keys differently across \
                                     toolchains; use a total key, a stable sort, or a \
                                     pragma justifying key distinctness",
                                    t.text
                                ),
                                &mut matched,
                            );
                        }
                        _ => {}
                    }
                }
            }
        }

        for (rule, message) in matched {
            // Every covering pragma naming the rule is "used" — a belt-
            // and-braces double waiver is redundant, not stale.
            let covering: Vec<usize> = analysis.coverage[line]
                .iter()
                .copied()
                .filter(|&p| analysis.pragmas[p].rule == rule)
                .collect();
            if !covering.is_empty() {
                for p in covering {
                    analysis.pragmas[p].used = true;
                }
            } else {
                findings.push(Finding {
                    file: path.to_string(),
                    line,
                    rule,
                    message,
                });
            }
        }
        analysis.line_toks[line] = idxs;
    }

    // Stale-pragma pass: a well-formed pragma that suppressed nothing is
    // itself a finding — unless a `stale-pragma` pragma covers it (which
    // then counts as used; `stale-pragma` pragmas have no meta-waiver).
    for i in 0..analysis.pragmas.len() {
        let (line, rule, used, valid) = {
            let p = &analysis.pragmas[i];
            (p.line, p.rule.clone(), p.used, p.valid)
        };
        if !valid || used || rule == "stale-pragma" {
            continue;
        }
        let waivers: Vec<usize> = analysis
            .coverage
            .get(line)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&p| analysis.pragmas[p].rule == "stale-pragma")
            .collect();
        if !waivers.is_empty() {
            for w in waivers {
                analysis.pragmas[w].used = true;
            }
        } else {
            findings.push(Finding {
                file: path.to_string(),
                line,
                rule: "stale-pragma",
                message: format!(
                    "pragma for '{rule}' suppresses nothing; the code it excused is \
                     gone — remove the waiver"
                ),
            });
        }
    }
    for p in &analysis.pragmas {
        if p.valid && !p.used && p.rule == "stale-pragma" {
            findings.push(Finding {
                file: path.to_string(),
                line: p.line,
                rule: "stale-pragma",
                message: "pragma for 'stale-pragma' suppresses nothing; the waiver it \
                          excused is gone — remove it"
                    .to_string(),
            });
        }
    }

    sort_findings(&mut findings);
    findings
}

/// Stable report order: line, then rule (in [`RULE_NAMES`] order), then
/// message — byte-deterministic given identical sources.
fn sort_findings(findings: &mut [Finding]) {
    let rank = |rule: &str| {
        RULE_NAMES
            .iter()
            .position(|r| *r == rule)
            .unwrap_or(usize::MAX)
    };
    findings.sort_by(|a, b| {
        (a.line, rank(a.rule), &a.message).cmp(&(b.line, rank(b.rule), &b.message))
    });
}

/// Extracts the active, well-formed pragmas of one file, sorted by line.
/// Malformed pragmas are lint findings, not inventory entries.
pub fn pragmas_in_source(path: &str, source: &str) -> Vec<PragmaEntry> {
    if classify(path).crate_name == "conformance" {
        return Vec::new();
    }
    let analysis = analyze(source);
    analysis
        .pragmas
        .into_iter()
        .filter(|p| p.valid)
        .map(|p| PragmaEntry {
            file: path.to_string(),
            line: p.line,
            rule: p.rule,
            reason: p.reason,
        })
        .collect()
}

/// Walks `root` and lints every `src/**/*.rs` file of the workspace (root
/// package and member crates), skipping `vendor/`, `target/`, `.git`, and
/// the conformance crate itself **at any path depth**. Files are visited
/// in sorted path order, so output is deterministic.
///
/// # Errors
///
/// Propagates I/O failures (unreadable directories or files).
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel_str, source) in read_workspace_sources(root)? {
        findings.extend(lint_source(&rel_str, &source));
    }
    Ok(findings)
}

/// Walks `root` like [`lint_tree`] and collects the pragma inventory:
/// every active `lint:allow` with file, rule, and reason, sorted by
/// (file, line) — waivers auditable at a glance.
///
/// # Errors
///
/// Propagates I/O failures (unreadable directories or files).
pub fn pragma_tree(root: &Path) -> io::Result<Vec<PragmaEntry>> {
    let mut entries = Vec::new();
    for (rel_str, source) in read_workspace_sources(root)? {
        entries.extend(pragmas_in_source(&rel_str, &source));
    }
    Ok(entries)
}

fn read_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, PathBuf::new(), &mut files)?;
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let source = fs::read_to_string(root.join(rel))?;
        out.push((rel_str, source));
    }
    Ok(out)
}

/// Directory names never descended into, checked per path component —
/// a `target/` or `vendor/` nested anywhere (a crate-local build dir, a
/// vendored shim inside a member) is skipped exactly like the top-level
/// ones, so `lint_tree` run from the workspace root can never wander
/// into build output or vendored sources.
fn skip_dir_component(name: &str) -> bool {
    matches!(name, "vendor" | "target" | ".git" | "conformance")
}

fn collect_rs_files(root: &Path, rel: PathBuf, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let dir = root.join(&rel);
    let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let sub = rel.join(name.as_ref());
        if entry.file_type()?.is_dir() {
            if skip_dir_component(name.as_ref()) {
                continue;
            }
            collect_rs_files(root, sub, out)?;
        } else if name.ends_with(".rs") {
            let sub_str = sub.to_string_lossy().replace('\\', "/");
            if sub_str.starts_with("src/") || sub_str.contains("/src/") {
                out.push(sub);
            }
        }
    }
    Ok(())
}

// --- byte-deterministic JSON artifacts --------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes findings into the byte-deterministic artifact CI diffs
/// against the committed `conformance-baseline.json`: fixed key order,
/// findings sorted by (file, line, rule, message), a trailing newline,
/// and nothing environment-dependent (no paths, no timestamps).
#[must_use]
pub fn render_findings_json(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    let rank = |rule: &str| {
        RULE_NAMES
            .iter()
            .position(|r| *r == rule)
            .unwrap_or(usize::MAX)
    };
    sorted.sort_by(|a, b| {
        (&a.file, a.line, rank(a.rule), &a.message).cmp(&(
            &b.file,
            b.line,
            rank(b.rule),
            &b.message,
        ))
    });
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"tool\": \"conformance-lint\",\n  \"rules\": [");
    for (i, rule) in RULE_NAMES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(rule);
        out.push('"');
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"total\": {},\n  \"findings\": [",
        sorted.len()
    ));
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Serializes the pragma inventory as a byte-deterministic JSON artifact
/// (same conventions as [`render_findings_json`]).
#[must_use]
pub fn render_pragmas_json(entries: &[PragmaEntry]) -> String {
    let mut sorted: Vec<&PragmaEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"tool\": \"conformance-pragmas\",\n");
    out.push_str(&format!("  \"total\": {},\n  \"pragmas\": [", sorted.len()));
    for (i, p) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
            json_escape(&p.file),
            p.line,
            json_escape(&p.rule),
            json_escape(&p.reason)
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/netsim/src/engine.rs").crate_name, "netsim");
        assert!(classify("crates/netsim/src/engine.rs").is_engine_hot_path);
        assert!(!classify("crates/netsim/src/radio.rs").is_engine_hot_path);
        assert_eq!(classify("src/cli.rs").crate_name, "sleeping-mst");
        assert!(classify("crates/bench/src/bin/table1.rs").is_bin);
        assert!(!classify("crates/bench/src/lib.rs").is_bin);
        // Lane scope: all of netsim, core minus the orchestration layer.
        assert!(classify("crates/netsim/src/protocol.rs").is_lane_file);
        assert!(classify("crates/core/src/prim.rs").is_lane_file);
        assert!(!classify("crates/core/src/exec.rs").is_lane_file);
        assert!(!classify("crates/core/src/runner.rs").is_lane_file);
        assert!(!classify("crates/bench/src/lib.rs").is_lane_file);
        // Determinism scope: state-owning crates only.
        assert!(classify("crates/graphlib/src/mst.rs").is_det_scope);
        assert!(classify("crates/lowerbound/src/ring.rs").is_det_scope);
        assert!(!classify("crates/bench/src/report.rs").is_det_scope);
        assert!(!classify("src/cli.rs").is_det_scope);
    }

    #[test]
    fn hash_container_fires_in_scope_and_in_tests() {
        let src = "fn f() {\n    let m = std::collections::HashMap::new();\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            vec!["hash-container"]
        );
        // graphlib is out of scope (membership-only use, documented).
        assert!(lint_source("crates/graphlib/src/x.rs", src).is_empty());
        // Tests are NOT exempt for this rule.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let s = HashSet::new(); }\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/netsim/src/x.rs", test_src)),
            vec!["hash-container"]
        );
    }

    #[test]
    fn hash_container_resolves_use_aliases() {
        // The import line and the aliased usage line both fire: renaming
        // a linted container does not take it out of scope.
        let src = "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); }\n";
        let findings = lint_source("crates/core/src/x.rs", src);
        assert_eq!(
            rules_of(&findings),
            vec!["hash-container", "hash-container"]
        );
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
    }

    #[test]
    fn wall_clock_fires_outside_tests_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/bin/table1.rs", src)),
            vec!["wall-clock"]
        );
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = std::time::Instant::now(); }\n}\n";
        assert!(lint_source("crates/bench/src/bin/table1.rs", test_src).is_empty());
    }

    #[test]
    fn print_in_lib_exempts_binaries() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/lib.rs", src)),
            vec!["print-in-lib"]
        );
        assert!(lint_source("crates/bench/src/bin/table1.rs", src).is_empty());
    }

    #[test]
    fn bare_unwrap_scope_and_expect_distinction() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            vec!["bare-unwrap"]
        );
        // .expect with a reason is fine outside the engine hot path…
        let expect_src = "fn f() { x.expect(\"reason\"); }\n";
        assert!(lint_source("crates/core/src/x.rs", expect_src).is_empty());
        // …but not inside it.
        assert_eq!(
            rules_of(&lint_source("crates/netsim/src/engine.rs", expect_src)),
            vec!["engine-panic-path"]
        );
        // bench is outside the bare-unwrap scope.
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn engine_hot_path_rejects_all_panic_machinery() {
        for needle in ["a.unwrap();", "panic!(\"x\");", "unreachable!();"] {
            let src = format!("fn f() {{ {needle} }}\n");
            let findings = lint_source("crates/netsim/src/sim.rs", &src);
            assert!(
                findings.iter().any(|f| f.rule == "engine-panic-path"),
                "{needle}: {findings:?}"
            );
        }
    }

    #[test]
    fn fault_stream_fires_only_in_the_fault_plane() {
        let src = "fn decide(seed: u64) -> bool { seed ^ self.master_seed != 0 }\n";
        assert_eq!(
            rules_of(&lint_source("crates/netsim/src/faults.rs", src)),
            vec!["fault-stream"]
        );
        // The same code elsewhere in netsim is someone else's business.
        assert!(lint_source("crates/netsim/src/radio.rs", src).is_empty());
        // Tests inside faults.rs may exercise cross-seed behavior.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(master_seed: u64) -> u64 { master_seed }\n}\n";
        assert!(lint_source("crates/netsim/src/faults.rs", test_src).is_empty());
        // Doc comments naming the needles do not fire.
        let doc =
            "/// Independent of `master_seed`: replay under many wake schedules.\nfn f() {}\n";
        assert!(lint_source("crates/netsim/src/faults.rs", doc).is_empty());
    }

    #[test]
    fn shard_safety_rejects_shared_mutable_in_lane_code() {
        for needle in [
            "let m = Mutex::new(0);",
            "let c = RefCell::new(0);",
            "let a = AtomicUsize::new(0);",
            "let (tx, rx) = mpsc::channel();",
        ] {
            let src = format!("fn f() {{ {needle} }}\n");
            let findings = lint_source("crates/netsim/src/protocol.rs", &src);
            assert_eq!(rules_of(&findings), vec!["shard-safety"], "{needle}");
        }
        let tl = "thread_local! { static X: u32 = 0; }\n";
        assert_eq!(
            rules_of(&lint_source("crates/netsim/src/engine.rs", tl)),
            vec!["shard-safety"]
        );
        let sm = "static mut COUNTER: u64 = 0;\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/prim.rs", sm)),
            vec!["shard-safety"]
        );
        let par = "fn f(v: &[u32]) { v.par_iter().for_each(drop); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/netsim/src/engine.rs", par)),
            vec!["shard-safety"]
        );
    }

    #[test]
    fn shard_safety_covers_protocol_impls_anywhere_and_aliases() {
        // A Protocol impl in bench is lane-executed: the engine calls its
        // send() from shard workers.
        let src =
            "impl Protocol for Wave {\n    fn send(&mut self) { let m = Mutex::new(0); }\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/harness.rs", src)),
            vec!["shard-safety"]
        );
        // Outside the impl, bench is not lane scope.
        let free = "fn f() { let m = Mutex::new(0); }\n";
        assert!(lint_source("crates/bench/src/harness.rs", free).is_empty());
        // Renaming the primitive does not hide it.
        let aliased = "use std::sync::Mutex as Lock;\nfn f() { let m = Lock::new(0); }\n";
        let findings = lint_source("crates/netsim/src/protocol.rs", aliased);
        assert_eq!(rules_of(&findings), vec!["shard-safety", "shard-safety"]);
        // The orchestration layer above the kernel is exempt (panic
        // capture lives there).
        let tl = "std::thread_local! { static X: Cell<bool> = Cell::new(false); }\n";
        assert!(lint_source("crates/core/src/exec.rs", tl).is_empty());
    }

    #[test]
    fn determinism_rejects_floats_and_unstable_keyed_sorts() {
        for (needle, what) in [
            ("let x: f64 = y;", "type"),
            ("let x = n as f64;", "cast"),
            ("let x = 0.5;", "literal"),
            ("v.sort_unstable_by_key(|e| e.w);", "keyed sort"),
            ("v.sort_unstable_by(|a, b| a.cmp(b));", "comparator sort"),
        ] {
            let src = format!("fn f() {{ {needle} }}\n");
            let findings = lint_source("crates/core/src/x.rs", &src);
            assert_eq!(rules_of(&findings), vec!["determinism"], "{what}");
        }
        // Plain sort_unstable orders by the values themselves: equal
        // values are indistinguishable, so tie order cannot matter.
        let plain = "fn f(v: &mut [u32]) { v.sort_unstable(); }\n";
        assert!(lint_source("crates/core/src/x.rs", plain).is_empty());
        // Tests (bound assertions etc.) are exempt.
        let test_src = "#[cfg(test)]\nmod t {\n    fn f() { let b = 80.0 * (32f64).log2(); }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", test_src).is_empty());
        // Reporting crates are out of scope…
        let report = "fn f(n: u64) -> f64 { n as f64 }\n";
        assert!(lint_source("crates/bench/src/report.rs", report).is_empty());
        assert!(lint_source("src/cli.rs", report).is_empty());
        // …except inside their Protocol impls.
        let proto = "impl Protocol for Wave {\n    fn send(&mut self) { let x = 0.5; }\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/harness.rs", proto)),
            vec!["determinism"]
        );
    }

    #[test]
    fn tokenizer_kills_string_and_comment_false_positives() {
        // Needles inside string literals are data, not code.
        let s = "fn f() { let s = \"HashMap // } Instant::now()\"; }\n";
        assert!(lint_source("crates/core/src/x.rs", s).is_empty());
        // Raw strings too.
        let r = "fn f() { let r = r#\"std::time \"quoted\" x.unwrap()\"#; }\n";
        assert!(lint_source("crates/core/src/x.rs", r).is_empty());
        // Nested block comments are comments to the end.
        let c = "/* outer /* inner */ x.unwrap(); std::time */\nfn f() {}\n";
        assert!(lint_source("crates/core/src/x.rs", c).is_empty());
        // A char-literal quote must not derail comment detection.
        let q = "fn f() { let q = '\"'; } // HashMap would be wrong here\n";
        assert!(lint_source("crates/core/src/x.rs", q).is_empty());
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let same = "fn f() { x.unwrap(); } // lint:allow(bare-unwrap) -- init-only path\n";
        assert!(lint_source("crates/core/src/x.rs", same).is_empty());
        let above = "// lint:allow(bare-unwrap) -- init-only path\nfn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/core/src/x.rs", above).is_empty());
        // The pragma only covers its own rule — and, unused, is stale.
        let wrong = "// lint:allow(wall-clock) -- misdirected\nfn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", wrong)),
            vec!["stale-pragma", "bare-unwrap"]
        );
    }

    #[test]
    fn bad_pragmas_are_reported() {
        let unknown = "// lint:allow(made-up-rule) -- whatever\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", unknown)),
            vec!["bad-pragma"]
        );
        let reasonless = "// lint:allow(bare-unwrap)\nfn f() { x.unwrap(); }\n";
        let findings = lint_source("crates/core/src/x.rs", reasonless);
        // Reported as bad AND not honored.
        assert_eq!(rules_of(&findings), vec!["bad-pragma", "bare-unwrap"]);
    }

    #[test]
    fn stale_pragma_detection_and_waiver() {
        // A used pragma is never stale.
        let used = "// lint:allow(determinism) -- config-only bias\npub heads: f64,\n";
        assert!(lint_source("crates/core/src/x.rs", used).is_empty());
        // The needle was removed; the waiver must go too.
        let stale = "// lint:allow(determinism) -- config-only bias\npub heads: u64,\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", stale)),
            vec!["stale-pragma"]
        );
        // A stale finding can itself be waived during migrations…
        let waived = "// lint:allow(stale-pragma) -- kept while the config lands\n\
                      // lint:allow(determinism) -- config-only bias\npub heads: u64,\n";
        assert!(lint_source("crates/core/src/x.rs", waived).is_empty());
        // …but an unused stale-pragma waiver is itself reported.
        let meta = "// lint:allow(stale-pragma) -- nothing underneath\nfn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", meta)),
            vec!["stale-pragma"]
        );
        // Pragma text inside a string literal is data, not a waiver.
        let in_str = "fn f() { let s = \"lint:allow(bare-unwrap) -- nope\"; }\n";
        assert!(lint_source("crates/core/src/x.rs", in_str).is_empty());
    }

    #[test]
    fn comments_and_doc_comments_do_not_fire() {
        let src = "//! Example: `println!(\"{}\", x)` and HashMap talk.\n// std::time discussion\nfn f() {}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_comment_needle_does_not_fire() {
        let src = "fn f() {} // HashMap would be wrong here\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn format_string_braces_do_not_break_region_tracking() {
        // The "{{" inside the test's string must not make the tracker
        // believe the test region never closes.
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let s = format!(\"{{\"); }\n}\nfn prod() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            vec!["bare-unwrap"]
        );
    }

    #[test]
    fn cfg_test_single_item_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            vec!["bare-unwrap"]
        );
    }

    #[test]
    fn finding_display_is_file_line_rule() {
        let f = Finding {
            file: "crates/core/src/x.rs".into(),
            line: 3,
            rule: "bare-unwrap",
            message: "m".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/x.rs:3: bare-unwrap: m");
    }

    #[test]
    fn pragma_inventory_lists_active_waivers_only() {
        let src = "// lint:allow(determinism) -- config-only bias\npub heads: f64,\n\
                   // lint:allow(nonsense) -- not a rule\n\
                   fn f() { x.unwrap(); } // lint:allow(bare-unwrap) -- init-only\n";
        let entries = pragmas_in_source("crates/core/src/x.rs", src);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "determinism");
        assert_eq!(entries[0].reason, "config-only bias");
        assert_eq!(entries[1].rule, "bare-unwrap");
        assert_eq!(entries[1].line, 4);
    }

    #[test]
    fn json_rendering_is_deterministic_and_escaped() {
        let findings = vec![
            Finding {
                file: "b.rs".into(),
                line: 2,
                rule: "determinism",
                message: "quote \" and backslash \\".into(),
            },
            Finding {
                file: "a.rs".into(),
                line: 9,
                rule: "shard-safety",
                message: "m".into(),
            },
        ];
        let one = render_findings_json(&findings);
        let two = render_findings_json(&findings);
        assert_eq!(one.as_bytes(), two.as_bytes());
        // Sorted by file first.
        assert!(one.find("a.rs").unwrap() < one.find("b.rs").unwrap());
        assert!(one.contains("quote \\\" and backslash \\\\"));
        assert!(one.ends_with("]\n}\n"));
        let empty = render_findings_json(&[]);
        assert!(empty.contains("\"total\": 0"));
        assert!(empty.contains("\"findings\": []"));
    }

    #[test]
    fn collect_skips_target_and_vendor_at_any_depth() {
        let base = std::env::temp_dir().join(format!("conformance-collect-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        for dir in [
            "crates/good/src",
            "crates/good/target/debug/build/x/src",
            "crates/vendorish/vendor/shim/src",
            "target/release/src",
            "vendor/rand/src",
        ] {
            fs::create_dir_all(base.join(dir)).expect("mk tree");
        }
        for file in [
            "crates/good/src/lib.rs",
            "crates/good/target/debug/build/x/src/gen.rs",
            "crates/vendorish/vendor/shim/src/lib.rs",
            "target/release/src/junk.rs",
            "vendor/rand/src/lib.rs",
        ] {
            fs::write(base.join(file), "fn f() {}\n").expect("write");
        }
        let mut files = Vec::new();
        collect_rs_files(&base, PathBuf::new(), &mut files).expect("walk");
        let names: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        assert_eq!(names, vec!["crates/good/src/lib.rs"], "{names:?}");
        let _ = fs::remove_dir_all(&base);
    }
}
