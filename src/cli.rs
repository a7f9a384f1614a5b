//! The `sleeping-mst` command-line interface: run any of the workspace's
//! MST algorithms on a described graph and report the sleeping-model
//! metrics, as text or JSON.
//!
//! Algorithms are resolved through [`mst_core::registry`] — the CLI holds
//! no algorithm table of its own — and the `sweep` subcommand drives the
//! shared experiment harness ([`bench::harness`]) over an
//! (algorithm × n × seed) grid on all available cores.
//!
//! The interface is deliberately dependency-free; graph and algorithm
//! specs are tiny colon-separated strings:
//!
//! ```text
//! sleeping-mst run --alg randomized --graph ring:64 --seed 7
//! sleeping-mst run --alg deterministic --graph random:48:0.1 --json
//! sleeping-mst verify --alg logstar --graph grid:4x8
//! sleeping-mst info --graph barbell:6:3
//! sleeping-mst sweep --alg randomized,always-awake --graph ring:{n} \
//!     --sizes 16,32,64 --seeds 0..3
//! ```

use bench::{chaos, engine_panel, harness, report, serve};
use graphlib::{generators, mst, traversal, WeightedGraph};
use mst_core::registry::{self, AlgorithmSpec};
use mst_core::{ExecOptions, MstOutcome, MstScratch};
use netsim::{EnergyModel, Executor, FaultPlan, WakePolicy};

/// Parses an algorithm name against the registry.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_algorithm(s: &str) -> Result<&'static AlgorithmSpec, String> {
    registry::find(s)
        .ok_or_else(|| format!("unknown algorithm '{s}' (expected {})", registry::names()))
}

/// Builds a graph from a spec string like `ring:64`, `random:48:0.1`,
/// `grid:4x8`, `barbell:6:3`, `caterpillar:5:2`, `bintree:31`,
/// `complete:12`, `path:20`, `star:16`, or `scale:1000000:2` (the
/// streaming chorded-cycle family — O(E) memory at build time, the spec
/// for million-node campaigns).
///
/// # Errors
///
/// Returns a human-readable message on malformed specs or invalid sizes.
pub fn build_graph(spec: &str, seed: u64) -> Result<WeightedGraph, String> {
    generators::from_spec(spec, seed)
}

/// Runs `alg` on `graph`.
///
/// # Errors
///
/// Propagates run failures — simulator errors, inconsistent MST output
/// ([`mst_core::MstCollectError`]), disconnected input for algorithms that
/// require connectivity — as readable strings (the binary maps them to a
/// non-zero exit).
pub fn run(alg: &AlgorithmSpec, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, String> {
    alg.run(graph, seed).map_err(|e| e.to_string())
}

/// The optional execution knobs of the `run` subcommand, bundled so the
/// entry point stays one call: time-driver override (`None` defers to
/// the registry default, the calendar driver; every driver is
/// bit-identical), shard count, energy model, and wake policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTuning {
    pub executor: Option<Executor>,
    pub shards: Option<u32>,
    pub energy: Option<EnergyModel>,
    pub wake_policy: WakePolicy,
}

/// Runs `alg` on `graph` under a fault plan (inert plans take the plain
/// path — see [`mst_core::registry::AlgorithmSpec::run_with_faults`])
/// and the [`RunTuning`] knobs, on `scratch` (whose stage profile, when
/// enabled, accumulates the run's wall time per kernel stage).
///
/// # Errors
///
/// As [`run`], plus the fault-mode failures: the round-budget watchdog
/// ([`netsim::SimError::MaxRoundsExceeded`]), captured protocol panics,
/// and degraded-output detection — all as readable strings. An energy
/// model with a budget adds the typed
/// [`mst_core::RunError::EnergyExhausted`] failure.
pub fn run_with_faults(
    alg: &AlgorithmSpec,
    graph: &WeightedGraph,
    seed: u64,
    plan: &FaultPlan,
    tuning: RunTuning,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, String> {
    let mut opts = ExecOptions::seeded(seed)
        .with_faults(plan.clone())
        .with_wake_policy(tuning.wake_policy);
    if let Some(executor) = tuning.executor {
        opts = opts.with_executor(executor);
    }
    if let Some(shards) = tuning.shards {
        opts = opts.with_shards(shards);
    }
    if let Some(model) = tuning.energy {
        opts = opts.with_energy(model);
    }
    alg.run_with_options(graph, &opts, scratch)
        .map_err(|e| e.to_string())
}

/// This process's peak resident set size in bytes (Linux `VmHWM`), or 0
/// where `/proc/self/status` is unavailable. Deliberately *not* part of
/// [`netsim::RunStats`]: the high-water mark is a property of the whole
/// process, monotone across runs and allocator-dependent, so it would
/// poison bit-identity contracts. Consumers diffing `run --json` output
/// must neutralize this one field (the CI scale leg seds it to 0).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Parses a `--crash NODE@ROUND` operand.
fn parse_crash(s: &str) -> Result<(u32, u64), String> {
    let (node, round) = s
        .split_once('@')
        .ok_or_else(|| format!("crash spec '{s}' must look like NODE@ROUND"))?;
    let node = node
        .parse()
        .map_err(|_| format!("'{node}' is not a node index"))?;
    let round = round
        .parse()
        .map_err(|_| format!("'{round}' is not a round"))?;
    if round == 0 {
        return Err("crash round must be >= 1 (rounds start at 1)".into());
    }
    Ok((node, round))
}

/// Renders a fault plan as the JSON object embedded in `run --json`
/// output — together with the seed, everything needed to replay the run.
fn render_fault_plan(plan: &FaultPlan) -> String {
    let crashes: Vec<String> = plan
        .crashes
        .iter()
        .map(|(node, round)| format!("[{node},{round}]"))
        .collect();
    format!(
        "{{\"fault_seed\":{},\"drop_ppm\":{},\"duplicate_ppm\":{},\
         \"spurious_sleep_ppm\":{},\"wake_jitter\":{},\"crashes\":[{}]}}",
        plan.fault_seed,
        plan.drop_ppm,
        plan.duplicate_ppm,
        plan.spurious_sleep_ppm,
        plan.wake_jitter,
        crashes.join(","),
    )
}

/// Renders an outcome as a human-readable report.
pub fn render_text(alg: &AlgorithmSpec, graph: &WeightedGraph, out: &MstOutcome) -> String {
    let n = graph.node_count() as f64;
    format!(
        "algorithm        : {}\n\
         nodes / edges    : {} / {}\n\
         tree edges       : {}\n\
         total weight     : {}\n\
         phases           : {}\n\
         awake max        : {} rounds\n\
         awake avg        : {:.1} rounds\n\
         awake / log2(n)  : {:.1}\n\
         run time         : {} rounds\n\
         awake x rounds   : {}\n\
         messages         : {} delivered, {} lost\n\
         max message bits : {} (observed C = {}, budget C = {})\n",
        alg.name,
        graph.node_count(),
        graph.edge_count(),
        out.edges.len(),
        graph.total_weight(out.edges.iter().copied()),
        out.phases,
        out.stats.awake_max(),
        out.stats.awake_avg(),
        out.stats.awake_max() as f64 / n.log2().max(1.0),
        out.stats.rounds,
        out.stats.awake_round_product(),
        out.stats.messages_delivered,
        out.stats.messages_lost,
        out.stats.max_message_bits,
        out.stats.log_constant(graph.node_count()),
        alg.congest_constant,
    )
}

/// Renders an outcome as a single JSON object (hand-rolled; all fields are
/// numbers or registry names, so no escaping is needed). The seed and the
/// fault plan are embedded, so the object is a complete replay recipe:
/// `run --alg A --graph G --seed S` plus the printed fault fields
/// reproduce the run bit for bit.
///
/// With an active energy model, an `"energy"` object (model spec, ledger
/// total/max, idle-listen rounds, exhausted-node count) is inserted
/// between the memory block and the fault plan; plain runs emit exactly
/// the pre-energy bytes, so existing consumers diff unchanged output.
pub fn render_json(
    alg: &AlgorithmSpec,
    graph: &WeightedGraph,
    seed: u64,
    plan: &FaultPlan,
    energy: Option<&EnergyModel>,
    out: &MstOutcome,
) -> String {
    let energy_obj = match energy.filter(|m| !m.is_inert()) {
        None => String::new(),
        Some(model) => format!(
            "\"energy\":{{\"model\":\"{}\",\"total\":{},\"max\":{},\
             \"idle_listen_rounds\":{},\"exhausted_nodes\":{}}},",
            model.spec_string(),
            out.stats.energy_total(),
            out.stats.energy_max(),
            out.stats.idle_listen_rounds,
            out.stats.exhausted_nodes,
        ),
    };
    format!(
        "{{\"algorithm\":\"{}\",\"seed\":{},\"nodes\":{},\"edges\":{},\"tree_edges\":{},\
         \"total_weight\":{},\"phases\":{},\"awake_max\":{},\"awake_avg\":{:.3},\
         \"rounds\":{},\"awake_round_product\":{},\"messages_delivered\":{},\
         \"messages_lost\":{},\"max_message_bits\":{},\"log_constant\":{},\
         \"injected_drops\":{},\"dup_deliveries\":{},\"crashed_nodes\":{},\
         \"memory\":{{\"graph_bytes\":{},\"arena_peak_envelopes\":{},\
         \"peak_rss_bytes\":{}}},\
         {energy_obj}\"fault_plan\":{}}}",
        alg.name,
        seed,
        graph.node_count(),
        graph.edge_count(),
        out.edges.len(),
        graph.total_weight(out.edges.iter().copied()),
        out.phases,
        out.stats.awake_max(),
        out.stats.awake_avg(),
        out.stats.rounds,
        out.stats.awake_round_product(),
        out.stats.messages_delivered,
        out.stats.messages_lost,
        out.stats.max_message_bits,
        out.stats.log_constant(graph.node_count()),
        out.stats.injected_drops,
        out.stats.dup_deliveries,
        out.stats.crashed_nodes,
        out.stats.graph_bytes,
        out.stats.arena_peak_envelopes,
        peak_rss_bytes(),
        render_fault_plan(plan),
    )
}

/// Renders the executor-throughput report a `sweep --bench-out FILE`
/// writes (the `BENCH_engine.json` artifact): wall-clock time over the
/// whole grid plus aggregate runs-, messages-, and rounds-per-second.
///
/// The trial *work* (messages, rounds, per-trial stats) is deterministic
/// in the grid; only the wall-clock fields vary between machines.
pub fn render_bench_report(
    template: &str,
    threads: usize,
    results: &[harness::TrialResult],
    // lint:allow(wall-clock) -- bench report carries the measured wall time
    wall: std::time::Duration,
) -> String {
    let algorithms: Vec<&str> = {
        let mut names: Vec<&str> = results.iter().map(|r| r.algorithm.as_str()).collect();
        names.dedup();
        names
    };
    let messages: u64 = results.iter().map(|r| r.stats.messages_delivered).sum();
    let rounds: u64 = results.iter().map(|r| r.stats.rounds).sum();
    let max_bits: u64 = results
        .iter()
        .map(|r| r.stats.max_message_bits)
        .max()
        .unwrap_or(0);
    let log_constant: u64 = results
        .iter()
        .map(|r| r.stats.log_constant(r.nodes))
        .max()
        .unwrap_or(0);
    let secs = wall.as_secs_f64().max(1e-9);
    format!(
        "{{\"kind\":\"engine_throughput\",\"graph_template\":\"{}\",\
         \"algorithms\":\"{}\",\"threads\":{},\"trials\":{},\
         \"wall_seconds\":{:.6},\"runs_per_sec\":{:.3},\
         \"messages_delivered\":{},\"messages_per_sec\":{:.1},\
         \"rounds\":{},\"rounds_per_sec\":{:.1},\
         \"max_message_bits\":{},\"log_constant\":{}}}\n",
        template,
        algorithms.join(","),
        threads,
        results.len(),
        secs,
        results.len() as f64 / secs,
        messages,
        messages as f64 / secs,
        rounds,
        rounds as f64 / secs,
        max_bits,
        log_constant,
    )
}

/// Verifies an outcome against Kruskal (for MST algorithms) or against
/// the spanning-tree property.
///
/// # Errors
///
/// Returns a description of the mismatch.
pub fn verify(alg: &AlgorithmSpec, graph: &WeightedGraph, out: &MstOutcome) -> Result<(), String> {
    if alg.produces_mst {
        let reference = mst::kruskal(graph);
        if out.edges != reference.edges {
            return Err(format!(
                "edge set differs from the reference MST ({} vs {} edges, weight {} vs {})",
                out.edges.len(),
                reference.edges.len(),
                graph.total_weight(out.edges.iter().copied()),
                reference.total_weight
            ));
        }
    } else {
        if out.edges.len() + 1 != graph.node_count() {
            return Err(format!(
                "expected {} spanning edges, got {}",
                graph.node_count() - 1,
                out.edges.len()
            ));
        }
        let mut uf = graphlib::UnionFind::new(graph.node_count());
        for &e in &out.edges {
            let edge = graph.edge(e);
            if !uf.union(edge.u.index(), edge.v.index()) {
                return Err(format!("edge {e} closes a cycle"));
            }
        }
    }
    Ok(())
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run`: execute and report.
    Run {
        /// Algorithm to run.
        alg: &'static AlgorithmSpec,
        /// Graph spec.
        graph: String,
        /// Seed for weights and coins.
        seed: u64,
        /// Emit JSON instead of text.
        json: bool,
        /// Fault plan (inert unless fault flags were given).
        faults: FaultPlan,
        /// Time driver (`None` = the algorithm's registry default, the
        /// calendar driver). Every driver is bit-identical; the flag
        /// exists for differential checking and throughput comparison.
        executor: Option<Executor>,
        /// Send-half-step shard count (`None` = serial). Bit-identical
        /// for every value — `--shards 1` is the byte-equivalence
        /// baseline for any `--shards K` run.
        shards: Option<u32>,
        /// Energy pricing model (`None` = no charging). A `--budget`
        /// without `--energy-model` implies the reference model, like
        /// the serve protocol's bare `"budget"` field.
        energy: Option<EnergyModel>,
        /// When scheduled wakes actually land (`block` = today's exact
        /// timeline).
        wake_policy: WakePolicy,
        /// Append the kernel's per-stage wall-clock profile
        /// ([`netsim::StageClock`]) to the text report.
        profile: bool,
    },
    /// `verify`: execute, check against the reference, exit non-zero on
    /// mismatch.
    Verify {
        /// Algorithm to run.
        alg: &'static AlgorithmSpec,
        /// Graph spec.
        graph: String,
        /// Seed for weights and coins.
        seed: u64,
    },
    /// `info`: print graph structure only.
    Info {
        /// Graph spec.
        graph: String,
        /// Seed for weights.
        seed: u64,
    },
    /// `check`: run under the validating executor ([`netsim::validate`])
    /// and report model conformance — per-message bit budget, observed
    /// message widths, and every dynamic sleeping-model invariant. Exits
    /// non-zero if any rule fires.
    Check {
        /// Algorithms to check; empty means the whole registry.
        algs: Vec<&'static AlgorithmSpec>,
        /// Graph spec.
        graph: String,
        /// Seed for weights and coins.
        seed: u64,
    },
    /// `sweep`: run an (algorithm × n × seed) grid through the shared
    /// harness, in parallel, and print aggregated metrics.
    Sweep {
        /// Algorithms to sweep.
        algs: Vec<&'static AlgorithmSpec>,
        /// Graph spec template containing the literal `{n}`.
        template: String,
        /// Family sizes substituted for `{n}`.
        sizes: Vec<usize>,
        /// Trial seeds (graph weights and algorithm coins).
        seeds: Vec<u64>,
        /// Worker threads (0 = all available cores).
        threads: usize,
        /// Emit raw per-trial JSON instead of the aggregated table.
        json: bool,
        /// Write executor-throughput metrics (runs/sec, messages/sec,
        /// rounds/sec over the whole grid) to this file as JSON.
        bench_out: Option<String>,
        /// Time driver for every trial (`None` = registry default).
        executor: Option<Executor>,
        /// Send-half-step shard count per trial (`None` = serial;
        /// bit-identical for every value).
        shards: Option<u32>,
        /// Energy pricing model applied to every trial (`None` = no
        /// charging).
        energy: Option<EnergyModel>,
    },
    /// `report`: generate the "Table 1, measured" artifact
    /// ([`bench::report`]) — every registry algorithm swept across graph
    /// families and sizes with metrics recording on; measured awake
    /// complexity against the paper's bounds, fitted exponents, and
    /// per-phase awake breakdowns. Byte-deterministic: the same panel
    /// always renders identical bytes.
    Report {
        /// Family sizes swept.
        sizes: Vec<usize>,
        /// Trial seeds per cell.
        seeds: Vec<u64>,
        /// Time driver backing the runs (`--naive` is shorthand for the
        /// naive oracle driver; the artifact bytes must not change
        /// whichever driver runs it).
        executor: Executor,
        /// Print JSON instead of markdown.
        json: bool,
        /// Also write the JSON artifact to this file.
        out: Option<String>,
        /// Also write the markdown artifact to this file.
        md_out: Option<String>,
        /// Energy pricing model for the panel's energy columns (`None`
        /// keeps the spec default, the budget-free reference model).
        energy: Option<EnergyModel>,
    },
    /// `chaos`: sweep every registry algorithm × graph family × fault
    /// level ([`bench::chaos`]), classify each trial, and print the
    /// fault-tolerance matrix. Exits non-zero on any wrong-output trial.
    Chaos {
        /// Master seed for trial seeds and fault streams.
        seed: u64,
        /// Family sizes.
        sizes: Vec<usize>,
        /// Trials per (algorithm, family, level, n) cell.
        trials: u64,
        /// Print the full byte-stable JSON matrix instead of the table.
        json: bool,
        /// Also write the JSON matrix to this file.
        out: Option<String>,
        /// Time driver every trial runs under (matrix bytes must not
        /// depend on it).
        executor: Executor,
        /// Send-half-step shard count per trial (matrix bytes must not
        /// depend on it either — the CI energy leg `cmp`s legs).
        shards: Option<u32>,
        /// Energy pricing model charged on every trial; stamped into the
        /// matrix header and the per-cell `energy_total` column.
        energy: Option<EnergyModel>,
    },
    /// `bench-engine`: time the drivers themselves on the sparse-wake
    /// panel ([`bench::engine_panel`]) — few wakes per node, huge gaps —
    /// and print/write the per-driver throughput rows
    /// (`BENCH_engine.json`).
    BenchEngine {
        /// Node counts to run.
        sizes: Vec<usize>,
        /// Master seed for graph structure and wake schedules.
        seed: u64,
        /// Drivers to time (the naive oracle is `O(rounds · n)` — only
        /// ask for it at small sizes).
        executors: Vec<Executor>,
        /// Node counts for the wide-wave workload rows (every node awake
        /// every round — the regime sharding accelerates). Empty skips
        /// the wave panel.
        wave_sizes: Vec<usize>,
        /// Shard counts swept on the wave rows (the panel asserts the
        /// run stats agree across all of them).
        shards: Vec<u32>,
        /// Also write the JSON rows to this file.
        out: Option<String>,
    },
    /// `serve`: the sweep-as-a-service daemon ([`bench::serve`]) — a
    /// fixed worker pool of warm executor scratches behind a Unix
    /// socket, answering NDJSON run/sweep/report/chaos requests with a
    /// deterministic result cache, in-flight coalescing, token-bucket
    /// admission, and graceful drain on a `shutdown` request.
    Serve {
        /// Unix-domain socket path to bind.
        socket: String,
        /// Worker threads (each owns one warm scratch).
        workers: usize,
        /// Result-cache capacity in entries (0 disables caching).
        cache_capacity: usize,
        /// Token-bucket burst capacity.
        bucket_capacity: u64,
        /// Token-bucket refill rate, tokens per second.
        refill_per_sec: u64,
    },
    /// `help`: usage text.
    Help,
}

fn parse_usize_list(s: &str, what: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| {
            x.trim()
                .parse()
                .map_err(|_| format!("'{x}' is not a valid {what}"))
        })
        .collect()
}

/// Parses a seed set: either `a..b` (half-open range) or a comma list.
fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = s.split_once("..") {
        let lo: u64 = a.parse().map_err(|_| format!("'{a}' is not a seed"))?;
        let hi: u64 = b.parse().map_err(|_| format!("'{b}' is not a seed"))?;
        if lo >= hi {
            return Err(format!("empty seed range '{s}'"));
        }
        Ok((lo..hi).collect())
    } else {
        s.split(',')
            .map(|x| x.trim().parse().map_err(|_| format!("'{x}' is not a seed")))
            .collect()
    }
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a usage message describing the problem.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    let mut algs: Vec<&'static AlgorithmSpec> = Vec::new();
    let mut graph = None;
    let mut seed = 0u64;
    let mut seeds: Option<Vec<u64>> = None;
    let mut sizes: Option<Vec<usize>> = None;
    let mut threads = 0usize;
    let mut json = false;
    let mut profile = false;
    let mut bench_out: Option<String> = None;
    let mut trials = 2u64;
    let mut out: Option<String> = None;
    let mut md_out: Option<String> = None;
    let mut naive = false;
    let mut executor: Option<Executor> = None;
    let mut executors: Option<Vec<Executor>> = None;
    let mut shards: Option<Vec<u32>> = None;
    let mut wave_sizes: Option<Vec<usize>> = None;
    let mut faults = FaultPlan::default();
    let mut energy: Option<EnergyModel> = None;
    let mut budget: Option<u64> = None;
    let mut wake_policy = WakePolicy::default();
    let mut socket: Option<String> = None;
    let mut workers = 2usize;
    let mut cache_capacity = 256usize;
    let mut bucket_capacity = 4096u64;
    let mut refill_per_sec = 4096u64;
    let parse_executor = |v: &str| -> Result<Executor, String> {
        Executor::parse(v)
            .ok_or_else(|| format!("unknown executor '{v}' (expected sync, calendar, or naive)"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--alg" => {
                let v = it.next().ok_or("--alg needs a value")?;
                for name in v.split(',') {
                    algs.push(parse_algorithm(name.trim())?);
                }
            }
            "--graph" => graph = Some(it.next().ok_or("--graph needs a value")?.clone()),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("'{v}' is not a seed"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                seeds = Some(parse_seeds(v)?);
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a value")?;
                sizes = Some(parse_usize_list(v, "size")?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a thread count"))?;
            }
            "--json" => json = true,
            "--profile" => profile = true,
            "--bench-out" => {
                bench_out = Some(it.next().ok_or("--bench-out needs a file path")?.clone());
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                trials = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a trial count"))?;
            }
            "--out" => out = Some(it.next().ok_or("--out needs a file path")?.clone()),
            "--md-out" => md_out = Some(it.next().ok_or("--md-out needs a file path")?.clone()),
            "--naive" => naive = true,
            "--executor" => {
                let v = it
                    .next()
                    .ok_or("--executor needs sync, calendar, or naive")?;
                executor = Some(parse_executor(v)?);
            }
            "--executors" => {
                let v = it.next().ok_or("--executors needs a comma list")?;
                executors = Some(
                    v.split(',')
                        .map(|x| parse_executor(x.trim()))
                        .collect::<Result<Vec<Executor>, String>>()?,
                );
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                shards = Some(
                    v.split(',')
                        .map(|x| {
                            x.trim()
                                .parse::<u32>()
                                .ok()
                                .filter(|&s| s >= 1)
                                .ok_or_else(|| format!("'{x}' is not a shard count (>= 1)"))
                        })
                        .collect::<Result<Vec<u32>, String>>()?,
                );
            }
            "--wave-sizes" => {
                let v = it.next().ok_or("--wave-sizes needs a value")?;
                wave_sizes = Some(parse_usize_list(v, "wave size")?);
            }
            "--fault-seed" => {
                let v = it.next().ok_or("--fault-seed needs a value")?;
                faults.fault_seed = v.parse().map_err(|_| format!("'{v}' is not a seed"))?;
            }
            "--drop-ppm" => {
                let v = it.next().ok_or("--drop-ppm needs a value")?;
                faults.drop_ppm = v.parse().map_err(|_| format!("'{v}' is not a ppm value"))?;
            }
            "--dup-ppm" => {
                let v = it.next().ok_or("--dup-ppm needs a value")?;
                faults.duplicate_ppm =
                    v.parse().map_err(|_| format!("'{v}' is not a ppm value"))?;
            }
            "--sleep-ppm" => {
                let v = it.next().ok_or("--sleep-ppm needs a value")?;
                faults.spurious_sleep_ppm =
                    v.parse().map_err(|_| format!("'{v}' is not a ppm value"))?;
            }
            "--jitter" => {
                let v = it.next().ok_or("--jitter needs a value")?;
                faults.wake_jitter = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a round count"))?;
            }
            "--crash" => {
                let v = it.next().ok_or("--crash needs NODE@ROUND")?;
                let (node, round) = parse_crash(v)?;
                faults = faults.with_crash(node, round);
            }
            "--energy-model" => {
                let v = it.next().ok_or("--energy-model needs a spec")?;
                energy = Some(EnergyModel::parse(v).ok_or_else(|| {
                    format!(
                        "unknown energy model '{v}' (expected 'reference', 'radio', or a \
                         comma list of round:R,tx:T,rx:X,idle:I,budget:B)"
                    )
                })?);
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                budget = Some(
                    v.parse()
                        .map_err(|_| format!("'{v}' is not an energy budget"))?,
                );
            }
            "--wake-policy" => {
                let v = it.next().ok_or("--wake-policy needs a spec")?;
                wake_policy = WakePolicy::parse(v).ok_or_else(|| {
                    format!(
                        "unknown wake policy '{v}' (expected block, duty:P, \
                         heavytail:SEED:CAP, or shift:SEED:MAX)"
                    )
                })?;
            }
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.clone()),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w >= 1)
                    .ok_or_else(|| format!("'{v}' is not a worker count (>= 1)"))?;
            }
            "--cache-capacity" => {
                let v = it.next().ok_or("--cache-capacity needs a value")?;
                cache_capacity = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a cache capacity"))?;
            }
            "--bucket-capacity" => {
                let v = it.next().ok_or("--bucket-capacity needs a value")?;
                bucket_capacity = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a token count"))?;
            }
            "--refill-per-sec" => {
                let v = it.next().ok_or("--refill-per-sec needs a value")?;
                refill_per_sec = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a refill rate"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // A bare --budget prices the run under the reference model, exactly
    // like the serve protocol's bare "budget" field.
    let energy = match budget {
        Some(b) => Some(energy.unwrap_or_else(EnergyModel::reference).with_budget(b)),
        None => energy,
    };
    let single_shards = |shards: &Option<Vec<u32>>| -> Result<Option<u32>, String> {
        match shards.as_deref() {
            None => Ok(None),
            Some([one]) => Ok(Some(*one)),
            Some(_) => Err(
                "this command takes a single --shards value (lists are for bench-engine)".into(),
            ),
        }
    };
    if cmd == "report" {
        return Ok(Command::Report {
            sizes: sizes.unwrap_or_else(|| vec![8, 12, 16, 24]),
            seeds: seeds.unwrap_or_else(|| vec![0, 1]),
            executor: executor.unwrap_or(if naive {
                Executor::Naive
            } else {
                Executor::Calendar
            }),
            json,
            out,
            md_out,
            energy,
        });
    }
    if cmd == "chaos" {
        return Ok(Command::Chaos {
            seed,
            sizes: sizes.unwrap_or_else(|| vec![8, 12]),
            trials,
            json,
            out,
            executor: executor.unwrap_or_default(),
            shards: single_shards(&shards)?,
            energy,
        });
    }
    if cmd == "bench-engine" {
        return Ok(Command::BenchEngine {
            sizes: sizes.unwrap_or_else(|| vec![1 << 14]),
            seed,
            executors: executors.unwrap_or_else(|| {
                executor.map_or_else(|| vec![Executor::Calendar, Executor::Sync], |e| vec![e])
            }),
            wave_sizes: wave_sizes.unwrap_or_default(),
            shards: shards.unwrap_or_else(|| vec![1]),
            out,
        });
    }
    if cmd == "serve" {
        return Ok(Command::Serve {
            socket: socket.ok_or("--socket is required for 'serve'")?,
            workers,
            cache_capacity,
            bucket_capacity,
            refill_per_sec,
        });
    }
    if profile && (cmd != "run" || json) {
        return Err(
            "--profile appends a wall-clock table to the text report of 'run'; \
             it takes no other command and no --json"
                .into(),
        );
    }
    let graph = graph.ok_or("--graph is required")?;
    let single_alg = |algs: &[&'static AlgorithmSpec]| -> Result<&'static AlgorithmSpec, String> {
        match algs {
            [one] => Ok(one),
            [] => Err("--alg is required".to_string()),
            _ => Err("this command takes exactly one --alg".to_string()),
        }
    };
    match cmd {
        "run" => Ok(Command::Run {
            alg: single_alg(&algs)?,
            graph,
            seed,
            json,
            faults,
            executor,
            shards: single_shards(&shards)?,
            energy,
            wake_policy,
            profile,
        }),
        "verify" => Ok(Command::Verify {
            alg: single_alg(&algs)?,
            graph,
            seed,
        }),
        "info" => Ok(Command::Info { graph, seed }),
        "check" => Ok(Command::Check { algs, graph, seed }),
        "sweep" => {
            if algs.is_empty() {
                return Err("--alg is required for 'sweep' (comma-separate for several)".into());
            }
            if !graph.contains("{n}") {
                return Err(format!(
                    "sweep graph template '{graph}' must contain the literal {{n}} \
                     (e.g. ring:{{n}} or random:{{n}}:0.1)"
                ));
            }
            Ok(Command::Sweep {
                algs,
                template: graph,
                sizes: sizes.ok_or("--sizes is required for 'sweep'")?,
                seeds: seeds.unwrap_or_else(|| vec![seed]),
                threads,
                json,
                bench_out,
                executor,
                shards: single_shards(&shards)?,
                energy,
            })
        }
        other => Err(format!(
            "unknown command '{other}' (run, verify, info, check, sweep, report, \
             chaos, bench-engine, serve, help)"
        )),
    }
}

/// The usage text, with the algorithm list generated from the registry.
pub fn usage() -> String {
    let mut algorithms = String::new();
    for spec in registry::ALGORITHMS {
        algorithms.push_str(&format!("    {:<15} {}\n", spec.name, spec.description));
    }
    format!(
        "\
sleeping-mst — distributed MST in the sleeping model (PODC 2022 reproduction)

USAGE:
    sleeping-mst run    --alg <ALG> --graph <SPEC> [--seed S] [--json]
                        [--executor sync|calendar|naive] [--shards K]
                        [--energy-model M] [--budget B] [--wake-policy P]
                        [--profile]
                        [--fault-seed S] [--drop-ppm P] [--dup-ppm P]
                        [--sleep-ppm P] [--jitter J] [--crash NODE@ROUND]…
    sleeping-mst verify --alg <ALG> --graph <SPEC> [--seed S]
    sleeping-mst info   --graph <SPEC> [--seed S]
    sleeping-mst check  --graph <SPEC> [--alg <ALG[,ALG…]>] [--seed S]
    sleeping-mst sweep  --alg <ALG[,ALG…]> --graph <TEMPLATE with {{n}}>
                        --sizes <N,N,…> [--seeds A..B|A,B,…] [--threads T] [--json]
                        [--bench-out FILE] [--executor sync|calendar|naive]
                        [--shards K] [--energy-model M] [--budget B]
    sleeping-mst report [--sizes N,N,…] [--seeds A..B|A,B,…] [--naive]
                        [--executor sync|calendar|naive]
                        [--energy-model M] [--budget B]
                        [--json] [--out FILE] [--md-out FILE]
    sleeping-mst chaos  [--seed S] [--sizes N,N,…] [--trials K] [--json]
                        [--out FILE] [--executor sync|calendar|naive]
                        [--shards K] [--energy-model M] [--budget B]
    sleeping-mst bench-engine [--sizes N,N,…] [--seed S] [--out FILE]
                        [--executors calendar,sync[,naive]]
                        [--wave-sizes N,N,…] [--shards K,K,…]
    sleeping-mst serve  --socket PATH [--workers W] [--cache-capacity C]
                        [--bucket-capacity B] [--refill-per-sec R]

ALGORITHMS:
{algorithms}
GRAPH SPECS:
    ring:N  path:N  star:N  complete:N  bintree:N  grid:RxC
    random:N:P  barbell:K:B  caterpillar:S:L  scale:N:C
    (scale:N:C is the streaming chorded-cycle family — N nodes, C chords
    per node, built directly into the flat CSR layout; the spec for
    million-node campaigns, e.g. scale:1000000:2)

CHECK:
    Runs each algorithm (all of them when --alg is omitted) under the
    validating executor: sends only from awake nodes, loss exactly to
    sleeping receivers, every message within C·⌈log₂ n⌉ bits, message
    conservation, and same-seed bit-identity. Exits non-zero with the
    violation list if any sleeping-model rule fires.

SWEEP:
    The template is a graph spec with {{n}} in place of the size, e.g.
    `--graph random:{{n}}:0.1 --sizes 32,64,128 --seeds 0..5`. Trials run
    in parallel (one graph+run per (algorithm, n, seed) cell); results are
    deterministic per seed and independent of --threads. With --bench-out,
    an executor-throughput JSON report (wall clock, runs/sec, messages/sec,
    rounds/sec over the whole grid) is also written to FILE.

FAULTS (run):
    Seeded, fully deterministic fault injection: --drop-ppm destroys
    messages in flight, --dup-ppm delivers extra copies, --sleep-ppm
    suppresses scheduled wakes, --jitter slips every wake by up to J
    rounds, --crash NODE@ROUND halts a node permanently (repeatable).
    Probabilities are parts-per-million of a stream seeded by
    --fault-seed; the same flags and seeds replay the run bit for bit
    (the `--json` output embeds the full plan). Under active faults a
    round-budget watchdog and panic capture turn livelock and broken
    protocol invariants into typed errors.

REPORT:
    Generates the \"Table 1, measured\" artifact: every registry algorithm
    on the random and ring families across --sizes × --seeds with
    per-round metrics recording on. Columns compare measured awake
    complexity against the paper's bounds, fit metric ~ n^b exponents
    across the panel, and break each run's awake node-rounds down by
    logical phase. Prints markdown (or JSON with --json) and writes the
    artifacts with --out (JSON) / --md-out (markdown). Byte-deterministic:
    the same panel always produces identical bytes, with --naive backing
    the runs by the reference executor instead — output unchanged.

CHAOS:
    Sweeps every registry algorithm × graph family (ring, random,
    complete) × fault level (none, light, moderate, heavy, crash) and
    classifies each trial as correct, typed-failure, or wrong-output.
    Deterministic per --seed: the JSON matrix (--json / --out FILE) is
    byte-identical across runs. Exits non-zero if any trial produced a
    wrong output — fault injection must degrade runs legibly, never
    silently corrupt them.

ENERGY (run, sweep, report, chaos; serve takes it per request):
    --energy-model prices every simulated action in integer energy units:
    `reference` (round:1000,tx:8,rx:4,idle:50), `radio` (1 unit per awake
    round), or a comma list like round:R,tx:T,rx:X,idle:I[,budget:B].
    Charging happens inside the one execution kernel, so per-node ledgers
    are bit-identical across executors and shard counts. --budget B caps
    every node at B units (implying the reference model if no
    --energy-model is given); a node that overspends is forced asleep
    permanently and the run fails with the typed error
    `run.energy-exhausted` rather than passing off a partial forest.
    --wake-policy (run only) reschedules wakes deterministically: `block`
    (exact timeline, the default), `duty:P` (wakes snap up to rounds
    1, 1+P, 1+2P, …), `heavytail:SEED:CAP` (seeded geometric slip), or
    `shift:SEED:MAX` (seeded constant per-node phase offset). Policies
    hash like fault decisions, so all drivers and the naive oracle agree.

EXECUTORS:
    Execution is one generic kernel parameterized by a time driver:
    `calendar` (the default) jumps between scheduled wakes on a calendar,
    `sync` ticks every round, `naive` is an O(n)-scan oracle. All three
    are bit-identical on every run — fingerprints, stats, traces, and
    metrics — so --executor only changes wall-clock cost (that is what
    `bench-engine` measures) and any divergence is a simulator bug.

SHARDS:
    --shards K splits the per-round send half-step across K worker
    threads (wide rounds only; narrow rounds stay serial). Shard counts
    are bit-identical by construction: every stat, trace, metric, and
    fingerprint matches --shards 1 exactly, so any K can be diffed
    byte-for-byte against the serial baseline. `run --json` reports a
    \"memory\" block (graph_bytes, arena_peak_envelopes, peak_rss_bytes);
    peak_rss_bytes is a whole-process high-water mark and is the one
    field to neutralize when diffing outputs.

SERVE:
    Runs the sweep-as-a-service daemon: newline-delimited JSON requests
    (run, sweep, report, chaos, stats, shutdown) over a Unix socket, one
    response line per request. Workers keep warm executor scratches;
    identical requests coalesce onto one execution; results land in a
    deterministic LRU keyed by the canonical request (executor and shard
    knobs erased — all drivers are bit-identical); a token bucket sheds
    over-budget requests with the typed error `serve.over-capacity`
    instead of queueing them. Blocks until a `shutdown` request, drains
    every admitted job, then prints the front-door counters. Drive it
    with the `loadgen` binary to produce the BENCH_serve.json artifact.

BENCH-ENGINE:
    Times the drivers themselves on a sparse-wake panel (a few wakes per
    node separated by gaps of thousands of rounds — the regime the
    sleeping model is about) and prints per-driver JSON rows: rounds,
    messages, wall seconds, rounds/sec, messages/sec. With --out the rows
    are written as the BENCH_engine.json artifact. The naive oracle costs
    O(rounds·n); include it via --executors only at small sizes.
"
    )
}

/// Executes a parsed command; returns the process exit code and the text
/// to print.
pub fn execute(cmd: &Command) -> (i32, String) {
    match cmd {
        Command::Help => (0, usage()),
        Command::Serve {
            socket,
            workers,
            cache_capacity,
            bucket_capacity,
            refill_per_sec,
        } => {
            let config = serve::ServeConfig {
                socket: socket.into(),
                workers: *workers,
                cache_capacity: *cache_capacity,
                bucket_capacity: *bucket_capacity,
                refill_per_sec: *refill_per_sec,
            };
            // Blocks until a client sends a `shutdown` request, then
            // drains and reports the front-door counters.
            match serve::Server::start(config).and_then(serve::Server::join) {
                Err(e) => (2, format!("error: {e}\n")),
                Ok(stats) => (
                    0,
                    format!(
                        "serve: drained after {} requests ({} executed, {} cache hits, \
                         {} coalesced, {} shed, {} rejected)\n",
                        stats.counters.received,
                        stats.counters.executed,
                        stats.counters.hits,
                        stats.counters.coalesced,
                        stats.counters.shed,
                        stats.counters.rejected,
                    ),
                ),
            }
        }
        Command::Info { graph, seed } => match build_graph(graph, *seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => (
                0,
                format!(
                    "nodes     : {}\nedges     : {}\ndiameter  : {}\nmax id N  : {}\n",
                    g.node_count(),
                    g.edge_count(),
                    traversal::diameter(&g)
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "disconnected".to_string()),
                    g.max_external_id(),
                ),
            ),
        },
        Command::Run {
            alg,
            graph,
            seed,
            json,
            faults,
            executor,
            shards,
            energy,
            wake_policy,
            profile,
        } => match build_graph(graph, *seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => {
                let mut scratch = MstScratch::new();
                if *profile {
                    scratch.enable_profile();
                }
                let run = run_with_faults(
                    alg,
                    &g,
                    *seed,
                    faults,
                    RunTuning {
                        executor: *executor,
                        shards: *shards,
                        energy: *energy,
                        wake_policy: *wake_policy,
                    },
                    &mut scratch,
                );
                match run {
                    Err(e) => (1, format!("error: {e}\n")),
                    Ok(out) => {
                        let text = if *json {
                            render_json(alg, &g, *seed, faults, energy.as_ref(), &out) + "\n"
                        } else {
                            let mut text = render_text(alg, &g, &out);
                            if !faults.is_inert() {
                                text.push_str(&format!(
                                    "faults           : {} dropped, {} duplicated, {} crashed\n",
                                    out.stats.injected_drops,
                                    out.stats.dup_deliveries,
                                    out.stats.crashed_nodes,
                                ));
                            }
                            if let Some(model) = energy.filter(|m| !m.is_inert()) {
                                text.push_str(&format!(
                                    "energy           : {} total, {} max/node ({})\n",
                                    out.stats.energy_total(),
                                    out.stats.energy_max(),
                                    model.spec_string(),
                                ));
                            }
                            if let Some(clock) = scratch.profile() {
                                text.push_str(&clock.to_string());
                            }
                            text
                        };
                        (0, text)
                    }
                }
            }
        },
        Command::Report {
            sizes,
            seeds,
            executor,
            json,
            out,
            md_out,
            energy,
        } => {
            let mut spec = report::ReportSpec {
                sizes: sizes.clone(),
                seeds: seeds.clone(),
                executor: *executor,
                ..report::ReportSpec::default()
            };
            if let Some(model) = energy {
                spec.energy = *model;
            }
            match report::generate(&spec) {
                Err(e) => (1, format!("error: {e}\n")),
                Ok(rep) => {
                    if let Some(path) = out {
                        if let Err(e) = std::fs::write(path, rep.to_json()) {
                            return (1, format!("error: cannot write {path}: {e}\n"));
                        }
                    }
                    if let Some(path) = md_out {
                        if let Err(e) = std::fs::write(path, rep.to_markdown()) {
                            return (1, format!("error: cannot write {path}: {e}\n"));
                        }
                    }
                    let text = if *json {
                        rep.to_json() + "\n"
                    } else {
                        rep.to_markdown()
                    };
                    (0, text)
                }
            }
        }
        Command::Chaos {
            seed,
            sizes,
            trials,
            json,
            out,
            executor,
            shards,
            energy,
        } => {
            let spec = chaos::ChaosSpec {
                seed: *seed,
                sizes: sizes.clone(),
                trials: *trials,
                executor: *executor,
                shards: *shards,
                energy: *energy,
            };
            let report = chaos::run_chaos(&spec);
            let mut text = if *json {
                report.to_json() + "\n"
            } else {
                format!(
                    "{}(cell = correct/typed-failure/wrong-output)\n",
                    report.summary_table()
                )
            };
            if let Some(path) = out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    return (1, format!("error: cannot write {path}: {e}\n"));
                }
            }
            let wrong = report.wrong_outputs();
            if wrong.is_empty() {
                (0, text)
            } else {
                for t in wrong {
                    text.push_str(&format!(
                        "WRONG OUTPUT: {} family={} level={} n={} seed={}\n",
                        t.algorithm, t.family, t.level, t.n, t.seed
                    ));
                }
                (1, text)
            }
        }
        Command::Verify { alg, graph, seed } => match build_graph(graph, *seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => match run(alg, &g, *seed) {
                Err(e) => (1, format!("error: {e}\n")),
                Ok(out) => match verify(alg, &g, &out) {
                    Ok(()) => (0, format!("ok: {} output verified on {graph}\n", alg.name)),
                    Err(e) => (1, format!("MISMATCH: {e}\n")),
                },
            },
        },
        Command::Check { algs, graph, seed } => match build_graph(graph, *seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => {
                let specs: Vec<&'static AlgorithmSpec> = if algs.is_empty() {
                    registry::ALGORITHMS.iter().collect()
                } else {
                    algs.clone()
                };
                let mut text = String::new();
                let mut code = 0;
                for spec in specs {
                    match spec.check(&g, *seed) {
                        Ok(check) => text.push_str(&format!(
                            "ok: {:<15} max message bits {} <= budget {} \
                             (observed C = {}, recorded C = {})\n",
                            check.algorithm,
                            check.max_message_bits,
                            check.bit_budget,
                            check.log_constant,
                            spec.congest_constant,
                        )),
                        Err(mst_core::RunError::Model(violations)) => {
                            code = 1;
                            text.push_str(&format!(
                                "FAIL: {} breaks the sleeping model on {graph}:\n",
                                spec.name
                            ));
                            for v in &violations {
                                text.push_str(&format!("  {v}\n"));
                            }
                        }
                        Err(e) => {
                            code = 1;
                            text.push_str(&format!("error: {}: {e}\n", spec.name));
                        }
                    }
                }
                (code, text)
            }
        },
        Command::Sweep {
            algs,
            template,
            sizes,
            seeds,
            threads,
            json,
            bench_out,
            executor,
            shards,
            energy,
        } => {
            let family =
                |n: usize, seed: u64| build_graph(&template.replace("{n}", &n.to_string()), seed);
            let mut sweep = bench::Sweep::new(&family)
                .sizes(sizes.iter().copied())
                .seeds(seeds.iter().copied())
                .threads(*threads);
            if let Some(executor) = executor {
                sweep = sweep.executor(*executor);
            }
            if let Some(shards) = shards {
                sweep = sweep.shards(*shards);
            }
            if let Some(model) = energy {
                sweep = sweep.energy(*model);
            }
            for &alg in algs {
                sweep = sweep.algorithm(alg);
            }
            // lint:allow(wall-clock) -- sweep timing is reporting, not simulation input
            let start = std::time::Instant::now();
            match sweep.run() {
                Err(e) => (1, format!("error: {e}\n")),
                Ok(results) => {
                    let wall = start.elapsed();
                    if let Some(path) = bench_out {
                        let report = render_bench_report(template, *threads, &results, wall);
                        if let Err(e) = std::fs::write(path, report) {
                            return (1, format!("error: cannot write {path}: {e}\n"));
                        }
                    }
                    let text = if *json {
                        harness::render_json(&results) + "\n"
                    } else {
                        harness::render_cells(&harness::aggregate(&results))
                    };
                    (0, text)
                }
            }
        }
        Command::BenchEngine {
            sizes,
            seed,
            executors,
            wave_sizes,
            shards,
            out,
        } => {
            let spec = engine_panel::EnginePanelSpec {
                sizes: sizes.clone(),
                executors: executors.clone(),
                seed: *seed,
                wave_sizes: wave_sizes.clone(),
                shards: shards.clone(),
                ..engine_panel::EnginePanelSpec::default()
            };
            match engine_panel::run_engine_panel(&spec) {
                Err(e) => (1, format!("error: {e}\n")),
                Ok(rows) => {
                    let json = engine_panel::render_engine_panel_json(&rows) + "\n";
                    if let Some(path) = out {
                        if let Err(e) = std::fs::write(path, &json) {
                            return (1, format!("error: cannot write {path}: {e}\n"));
                        }
                    }
                    (0, json)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Zeroes the one intentionally nondeterministic `run --json` field
    /// (the process-wide RSS high-water mark) before byte comparison —
    /// the same neutralization the CI scale leg applies with sed.
    fn scrub_rss(s: &str) -> String {
        let key = "\"peak_rss_bytes\":";
        let Some(at) = s.find(key) else {
            return s.to_string();
        };
        let digits_from = at + key.len();
        let digits_len = s[digits_from..]
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .count();
        format!("{}0{}", &s[..digits_from], &s[digits_from + digits_len..])
    }

    #[test]
    fn parses_run_command() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:32",
            "--seed",
            "9",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                alg: registry::find("randomized").unwrap(),
                graph: "ring:32".into(),
                seed: 9,
                json: true,
                faults: FaultPlan::default(),
                executor: None,
                shards: None,
                energy: None,
                wake_policy: WakePolicy::Block,
                profile: false,
            }
        );
    }

    #[test]
    fn parses_energy_and_wake_policy_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:16",
            "--energy-model",
            "reference",
            "--budget",
            "500000",
            "--wake-policy",
            "duty:4",
        ]))
        .unwrap();
        let Command::Run {
            energy,
            wake_policy,
            ..
        } = cmd
        else {
            unreachable!("expected run command");
        };
        assert_eq!(energy, Some(EnergyModel::reference().with_budget(500_000)));
        assert_eq!(wake_policy, WakePolicy::DutyCycle { period: 4 });

        // A bare --budget implies the reference model.
        let cmd = parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--budget", "9",
        ]))
        .unwrap();
        let Command::Run { energy, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(energy, Some(EnergyModel::reference().with_budget(9)));

        // Custom comma-list models parse, and bad specs are rejected.
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "prim",
            "--graph",
            "ring:8",
            "--energy-model",
            "round:2,tx:1",
        ]))
        .unwrap();
        let Command::Run { energy, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(
            energy,
            Some(
                EnergyModel::default()
                    .with_round_cost(2)
                    .with_tx_bit_cost(1)
            )
        );
        assert!(parse_args(&args(&[
            "run",
            "--alg",
            "prim",
            "--graph",
            "ring:8",
            "--energy-model",
            "solar"
        ]))
        .unwrap_err()
        .contains("unknown energy model"));
        assert!(parse_args(&args(&[
            "run",
            "--alg",
            "prim",
            "--graph",
            "ring:8",
            "--wake-policy",
            "lazy"
        ]))
        .unwrap_err()
        .contains("unknown wake policy"));

        // The knobs ride along on sweep, chaos, and report too.
        let cmd = parse_args(&args(&[
            "sweep",
            "--alg",
            "prim",
            "--graph",
            "ring:{n}",
            "--sizes",
            "8",
            "--energy-model",
            "radio",
        ]))
        .unwrap();
        let Command::Sweep { energy, .. } = cmd else {
            unreachable!("expected sweep command");
        };
        assert_eq!(energy, Some(EnergyModel::radio_default()));
        let cmd = parse_args(&args(&["chaos", "--budget", "7", "--shards", "2"])).unwrap();
        let Command::Chaos { energy, shards, .. } = cmd else {
            unreachable!("expected chaos command");
        };
        assert_eq!(energy, Some(EnergyModel::reference().with_budget(7)));
        assert_eq!(shards, Some(2));
        let cmd = parse_args(&args(&["report", "--energy-model", "radio"])).unwrap();
        let Command::Report { energy, .. } = cmd else {
            unreachable!("expected report command");
        };
        assert_eq!(energy, Some(EnergyModel::radio_default()));
    }

    #[test]
    fn parses_shards_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "scale:64:2",
            "--shards",
            "4",
        ]))
        .unwrap();
        let Command::Run { shards, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(shards, Some(4));

        let cmd = parse_args(&args(&[
            "sweep",
            "--alg",
            "randomized",
            "--graph",
            "ring:{n}",
            "--sizes",
            "8",
            "--shards",
            "2",
        ]))
        .unwrap();
        let Command::Sweep { shards, .. } = cmd else {
            unreachable!("expected sweep command");
        };
        assert_eq!(shards, Some(2));

        // run/sweep take exactly one value; bench-engine takes a list.
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--shards", "1,2"
        ]))
        .unwrap_err()
        .contains("single --shards"));
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--shards", "0"
        ]))
        .unwrap_err()
        .contains("shard count"));

        let cmd = parse_args(&args(&[
            "bench-engine",
            "--wave-sizes",
            "256,512",
            "--shards",
            "1,2,4",
        ]))
        .unwrap();
        let Command::BenchEngine {
            wave_sizes, shards, ..
        } = cmd
        else {
            unreachable!("expected bench-engine command");
        };
        assert_eq!(wave_sizes, vec![256, 512]);
        assert_eq!(shards, vec![1, 2, 4]);
    }

    #[test]
    fn parses_executor_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:8",
            "--executor",
            "sync",
        ]))
        .unwrap();
        let Command::Run { executor, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(executor, Some(Executor::Sync));
        assert!(parse_args(&args(&[
            "run",
            "--alg",
            "prim",
            "--graph",
            "ring:8",
            "--executor",
            "warp"
        ]))
        .unwrap_err()
        .contains("unknown executor"));

        // `report --naive` stays the back-compat spelling of the oracle;
        // an explicit --executor wins over it.
        let naive = parse_args(&args(&["report", "--naive"])).unwrap();
        let explicit = parse_args(&args(&["report", "--naive", "--executor", "sync"])).unwrap();
        let (Command::Report { executor: a, .. }, Command::Report { executor: b, .. }) =
            (naive, explicit)
        else {
            unreachable!("expected report commands");
        };
        assert_eq!(a, Executor::Naive);
        assert_eq!(b, Executor::Sync);

        let cmd = parse_args(&args(&["bench-engine"])).unwrap();
        assert_eq!(
            cmd,
            Command::BenchEngine {
                sizes: vec![1 << 14],
                seed: 0,
                executors: vec![Executor::Calendar, Executor::Sync],
                wave_sizes: vec![],
                shards: vec![1],
                out: None,
            }
        );
        let cmd = parse_args(&args(&[
            "bench-engine",
            "--sizes",
            "64",
            "--seed",
            "3",
            "--executors",
            "calendar,sync,naive",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchEngine {
                sizes: vec![64],
                seed: 3,
                executors: vec![Executor::Calendar, Executor::Sync, Executor::Naive],
                wave_sizes: vec![],
                shards: vec![1],
                out: None,
            }
        );
    }

    #[test]
    fn parses_sweep_command() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--alg",
            "randomized,always-awake",
            "--graph",
            "ring:{n}",
            "--sizes",
            "8,16",
            "--seeds",
            "0..3",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                algs: vec![
                    registry::find("randomized").unwrap(),
                    registry::find("always-awake").unwrap(),
                ],
                template: "ring:{n}".into(),
                sizes: vec![8, 16],
                seeds: vec![0, 1, 2],
                threads: 2,
                json: false,
                bench_out: None,
                executor: None,
                shards: None,
                energy: None,
            }
        );
        assert!(parse_args(&args(&[
            "sweep", "--alg", "prim", "--graph", "ring:8", "--sizes", "8"
        ]))
        .unwrap_err()
        .contains("{n}"));
        assert!(
            parse_args(&args(&["sweep", "--alg", "prim", "--graph", "ring:{n}"]))
                .unwrap_err()
                .contains("--sizes")
        );
    }

    #[test]
    fn parse_errors_are_helpful() {
        assert!(parse_args(&args(&["run", "--graph", "ring:8"]))
            .unwrap_err()
            .contains("--alg"));
        assert!(
            parse_args(&args(&["run", "--alg", "bogus", "--graph", "ring:8"]))
                .unwrap_err()
                .contains("unknown algorithm")
        );
        assert!(parse_args(&args(&["frobnicate", "--graph", "ring:8"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(matches!(parse_args(&args(&[])), Ok(Command::Help)));
    }

    #[test]
    fn graph_specs_build() {
        for spec in [
            "ring:12",
            "path:9",
            "star:7",
            "complete:6",
            "bintree:15",
            "grid:3x4",
            "random:14:0.2",
            "barbell:4:2",
            "caterpillar:4:2",
            "scale:64:3",
        ] {
            let g = build_graph(spec, 1).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(g.node_count() > 0, "{spec}");
        }
        assert!(build_graph("ring:2", 0).is_err());
        assert!(build_graph("mystery:3", 0).is_err());
        assert!(build_graph("grid:3", 0).is_err());
        assert!(build_graph("random:5:nope", 0).is_err());
        assert!(build_graph("scale:4:1", 0).is_err());
        assert!(build_graph("scale:9:9", 0).is_err());
    }

    #[test]
    fn run_and_verify_all_algorithms() {
        let g = build_graph("random:14:0.2", 3).unwrap();
        for alg in registry::ALGORITHMS {
            let out = run(alg, &g, 5).unwrap_or_else(|e| panic!("{}: {e}", alg.name));
            verify(alg, &g, &out).unwrap_or_else(|e| panic!("{}: {e}", alg.name));
        }
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let g = build_graph("ring:8", 1).unwrap();
        let alg = registry::find("randomized").unwrap();
        let out = run(alg, &g, 1).unwrap();
        let json = render_json(alg, &g, 1, &FaultPlan::default(), None, &out);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"awake_max\":"));
        assert!(json.contains("\"max_message_bits\":"));
        assert!(json.contains("\"seed\":1"));
        assert!(json.contains("\"injected_drops\":0"));
        assert!(json.contains("\"memory\":{\"graph_bytes\":"));
        assert!(json.contains("\"arena_peak_envelopes\":"));
        assert!(json.contains("\"peak_rss_bytes\":"));
        assert!(json.contains("\"fault_plan\":{\"fault_seed\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn check_command_passes_the_whole_registry() {
        let cmd = parse_args(&args(&["check", "--graph", "random:12:0.3", "--seed", "2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                algs: vec![],
                graph: "random:12:0.3".into(),
                seed: 2
            }
        );
        let (code, text) = execute(&cmd);
        assert_eq!(code, 0, "{text}");
        for spec in registry::ALGORITHMS {
            assert!(text.contains(spec.name), "missing {}: {text}", spec.name);
        }
        assert!(text.contains("budget"), "{text}");

        // A single named algorithm works too.
        let cmd = parse_args(&args(&["check", "--alg", "prim", "--graph", "ring:9"])).unwrap();
        let (code, text) = execute(&cmd);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.lines().count() == 1 && text.starts_with("ok: prim"),
            "{text}"
        );
    }

    #[test]
    fn parses_fault_flags_into_a_plan() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:16",
            "--fault-seed",
            "11",
            "--drop-ppm",
            "50000",
            "--dup-ppm",
            "1000",
            "--sleep-ppm",
            "2000",
            "--jitter",
            "3",
            "--crash",
            "4@20",
            "--crash",
            "2@9",
        ]))
        .unwrap();
        let Command::Run { faults, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(faults.fault_seed, 11);
        assert_eq!(faults.drop_ppm, 50_000);
        assert_eq!(faults.duplicate_ppm, 1_000);
        assert_eq!(faults.spurious_sleep_ppm, 2_000);
        assert_eq!(faults.wake_jitter, 3);
        assert_eq!(faults.crashes, vec![(2, 9), (4, 20)]);
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--crash", "3"
        ]))
        .unwrap_err()
        .contains("NODE@ROUND"));
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--crash", "3@0"
        ]))
        .unwrap_err()
        .contains("round"));
    }

    #[test]
    fn faulted_run_replays_bit_identically_and_reports_typed_errors() {
        // A mild plan the randomized algorithm survives is hard to pin
        // across seeds, so assert the classification contract instead:
        // the command either reports the reference answer or fails with
        // a typed error — and both outcomes replay byte-identically.
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:12",
            "--seed",
            "3",
            "--drop-ppm",
            "200000",
            "--fault-seed",
            "5",
            "--json",
        ]))
        .unwrap();
        let (code_a, text_a) = execute(&cmd);
        let (code_b, text_b) = execute(&cmd);
        let (text_a, text_b) = (scrub_rss(&text_a), scrub_rss(&text_b));
        assert_eq!((code_a, &text_a), (code_b, &text_b));
        if code_a == 0 {
            assert!(
                text_a.contains("\"fault_plan\":{\"fault_seed\":5"),
                "{text_a}"
            );
            assert!(text_a.contains("\"injected_drops\":"), "{text_a}");
        } else {
            assert!(text_a.starts_with("error:"), "{text_a}");
        }
    }

    #[test]
    fn chaos_command_is_deterministic_and_writes_the_matrix() {
        let path = std::env::temp_dir().join("sleeping-mst-chaos-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse_args(&args(&[
            "chaos", "--seed", "5", "--sizes", "6", "--trials", "1", "--out", &path_str,
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                seed: 5,
                sizes: vec![6],
                trials: 1,
                json: false,
                out: Some(path_str.clone()),
                executor: Executor::Calendar,
                shards: None,
                energy: None,
            }
        );
        let (code_a, text_a) = execute(&cmd);
        let matrix_a = std::fs::read_to_string(&path).unwrap();
        let (code_b, text_b) = execute(&cmd);
        let matrix_b = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(code_a, 0, "{text_a}");
        assert_eq!((code_a, &text_a), (code_b, &text_b));
        assert_eq!(matrix_a, matrix_b, "chaos matrix must be byte-stable");
        assert!(text_a.contains("| algorithm |"), "{text_a}");
        assert!(matrix_a.contains("\"matrix\":["), "{matrix_a}");
    }

    #[test]
    fn parses_report_command_with_defaults() {
        let cmd = parse_args(&args(&["report"])).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                sizes: vec![8, 12, 16, 24],
                seeds: vec![0, 1],
                executor: Executor::Calendar,
                json: false,
                out: None,
                md_out: None,
                energy: None,
            }
        );
        let cmd = parse_args(&args(&[
            "report", "--sizes", "6,8", "--seeds", "0..2", "--naive", "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                sizes: vec![6, 8],
                seeds: vec![0, 1],
                executor: Executor::Naive,
                json: true,
                out: None,
                md_out: None,
                energy: None,
            }
        );
    }

    #[test]
    fn report_command_writes_byte_identical_artifacts() {
        let json_path = std::env::temp_dir().join("sleeping-mst-report-test.json");
        let md_path = std::env::temp_dir().join("sleeping-mst-report-test.md");
        let cmd = parse_args(&args(&[
            "report",
            "--sizes",
            "6,8",
            "--seeds",
            "0",
            "--out",
            json_path.to_str().unwrap(),
            "--md-out",
            md_path.to_str().unwrap(),
        ]))
        .unwrap();
        let (code_a, text_a) = execute(&cmd);
        let json_a = std::fs::read_to_string(&json_path).unwrap();
        let md_a = std::fs::read_to_string(&md_path).unwrap();
        let (code_b, text_b) = execute(&cmd);
        let json_b = std::fs::read_to_string(&json_path).unwrap();
        let md_b = std::fs::read_to_string(&md_path).unwrap();
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&md_path).ok();
        assert_eq!(code_a, 0, "{text_a}");
        assert_eq!((code_a, &text_a), (code_b, &text_b));
        assert_eq!(json_a, json_b, "report JSON must be byte-stable");
        assert_eq!(md_a, md_b, "report markdown must be byte-stable");
        assert!(text_a.starts_with("# Table 1, measured"), "{text_a}");
        assert!(json_a.starts_with("{\"report\":\"table1-measured\""));
        for spec in registry::ALGORITHMS {
            assert!(md_a.contains(spec.name), "missing {}: {md_a}", spec.name);
        }
    }

    #[test]
    fn usage_lists_every_registry_algorithm() {
        let text = usage();
        for spec in registry::ALGORITHMS {
            assert!(text.contains(spec.name), "usage is missing {}", spec.name);
        }
    }

    #[test]
    fn execute_paths() {
        let (code, text) = execute(&Command::Help);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));

        let (code, text) = execute(&Command::Info {
            graph: "ring:16".into(),
            seed: 0,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("diameter"));

        let (code, _) = execute(&Command::Info {
            graph: "nope".into(),
            seed: 0,
        });
        assert_eq!(code, 2);

        let (code, text) = execute(&Command::Verify {
            alg: registry::find("randomized").unwrap(),
            graph: "ring:16".into(),
            seed: 3,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.starts_with("ok:"));
    }

    /// `run --profile` appends a labelled per-stage wall-clock table to
    /// the unchanged text report; the flag is refused where it would be
    /// dropped (other commands) or would corrupt JSON output.
    #[test]
    fn run_profile_appends_the_stage_table() {
        let cmd = parse_args(&args(&[
            "run",
            "--alg",
            "randomized",
            "--graph",
            "ring:16",
            "--seed",
            "3",
            "--profile",
        ]))
        .unwrap();
        let Command::Run { profile, .. } = &cmd else {
            panic!("expected run, got {cmd:?}");
        };
        assert!(*profile);
        let (code, profiled) = execute(&cmd);
        assert_eq!(code, 0, "{profiled}");
        let (code, plain) = execute(
            &parse_args(&args(&[
                "run",
                "--alg",
                "randomized",
                "--graph",
                "ring:16",
                "--seed",
                "3",
            ]))
            .unwrap(),
        );
        assert_eq!(code, 0, "{plain}");
        let table = profiled
            .strip_prefix(plain.as_str())
            .expect("the report itself is unchanged");
        assert!(table.starts_with("stage profile (wall-clock"), "{table}");
        for stage in netsim::Stage::ALL {
            assert!(table.contains(stage.as_str()), "{table}");
        }
        for bad in [
            &[
                "run",
                "--alg",
                "prim",
                "--graph",
                "ring:8",
                "--profile",
                "--json",
            ][..],
            &["verify", "--alg", "prim", "--graph", "ring:8", "--profile"][..],
        ] {
            assert!(parse_args(&args(bad)).unwrap_err().contains("--profile"));
        }
    }

    #[test]
    fn execute_sweep_text_and_json() {
        let cmd = Command::Sweep {
            algs: vec![registry::find("randomized").unwrap()],
            template: "ring:{n}".into(),
            sizes: vec![8, 12],
            seeds: vec![0, 1],
            threads: 2,
            json: false,
            bench_out: None,
            executor: None,
            shards: None,
            energy: None,
        };
        let (code, text) = execute(&cmd);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("| randomized | 8 | 2 |"), "{text}");

        let cmd_json = Command::Sweep {
            algs: vec![registry::find("randomized").unwrap()],
            template: "ring:{n}".into(),
            sizes: vec![8],
            seeds: vec![0],
            threads: 1,
            json: true,
            bench_out: None,
            executor: None,
            shards: None,
            energy: None,
        };
        let (code, text) = execute(&cmd_json);
        assert_eq!(code, 0, "{text}");
        assert!(text.trim_end().starts_with('[') && text.trim_end().ends_with(']'));
    }

    #[test]
    fn sweep_bench_out_writes_throughput_report() {
        let path = std::env::temp_dir().join("sleeping-mst-bench-out-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse_args(&args(&[
            "sweep",
            "--alg",
            "randomized",
            "--graph",
            "ring:{n}",
            "--sizes",
            "8,12",
            "--seeds",
            "0..2",
            "--threads",
            "1",
            "--bench-out",
            &path_str,
        ]))
        .unwrap();
        let (code, text) = execute(&cmd);
        assert_eq!(code, 0, "{text}");
        let report = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            report.contains("\"kind\":\"engine_throughput\""),
            "{report}"
        );
        assert!(report.contains("\"trials\":4"), "{report}");
        for key in [
            "\"wall_seconds\":",
            "\"runs_per_sec\":",
            "\"messages_per_sec\":",
            "\"rounds_per_sec\":",
            "\"messages_delivered\":",
            "\"max_message_bits\":",
            "\"log_constant\":",
        ] {
            assert!(report.contains(key), "missing {key} in {report}");
        }
    }

    #[test]
    fn bench_report_aggregates_deterministic_totals() {
        let family = |n: usize, seed: u64| build_graph(&format!("ring:{n}"), seed);
        let results = bench::Sweep::new(&family)
            .algorithm(registry::find("randomized").unwrap())
            .sizes([8])
            .seeds([0, 1])
            .threads(1)
            .run()
            .unwrap();
        let report =
            render_bench_report("ring:{n}", 1, &results, std::time::Duration::from_secs(2));
        let messages: u64 = results.iter().map(|r| r.stats.messages_delivered).sum();
        assert!(report.contains(&format!("\"messages_delivered\":{messages}")));
        assert!(report.contains(&format!(
            "\"messages_per_sec\":{:.1}",
            messages as f64 / 2.0
        )));
        assert!(report.contains("\"algorithms\":\"randomized\""));
        assert!(report.ends_with("}\n"));
    }

    #[test]
    fn run_json_is_bit_identical_across_executors() {
        let render = |executor: &str| {
            let (code, text) = execute(
                &parse_args(&args(&[
                    "run",
                    "--alg",
                    "randomized",
                    "--graph",
                    "random:14:0.2",
                    "--seed",
                    "6",
                    "--executor",
                    executor,
                    "--json",
                ]))
                .unwrap(),
            );
            assert_eq!(code, 0, "{executor}: {text}");
            scrub_rss(&text)
        };
        let calendar = render("calendar");
        assert_eq!(calendar, render("sync"));
        assert_eq!(calendar, render("naive"));
    }

    #[test]
    fn run_json_is_bit_identical_across_shard_counts() {
        // The chorded cycle at n = 512 keeps every node in lockstep, so
        // wide rounds actually cross the sharding gate; the JSON (minus
        // the process-RSS field) must match the serial baseline exactly.
        let render = |shards: &str| {
            let (code, text) = execute(
                &parse_args(&args(&[
                    "run",
                    "--alg",
                    "randomized",
                    "--graph",
                    "scale:512:2",
                    "--seed",
                    "4",
                    "--shards",
                    shards,
                    "--json",
                ]))
                .unwrap(),
            );
            assert_eq!(code, 0, "shards={shards}: {text}");
            text
        };
        let serial = scrub_rss(&render("1"));
        assert_eq!(serial, scrub_rss(&render("2")));
        assert_eq!(serial, scrub_rss(&render("4")));
        assert!(serial.contains("\"memory\":{\"graph_bytes\":"), "{serial}");
        assert!(serial.contains("\"arena_peak_envelopes\":"), "{serial}");
        assert!(serial.contains("\"peak_rss_bytes\":0"), "{serial}");
    }

    #[test]
    fn energy_run_json_is_bit_identical_across_executors_and_typed_on_exhaustion() {
        let render = |executor: &str| {
            let (code, text) = execute(
                &parse_args(&args(&[
                    "run",
                    "--alg",
                    "randomized",
                    "--graph",
                    "random:14:0.2",
                    "--seed",
                    "6",
                    "--energy-model",
                    "reference",
                    "--executor",
                    executor,
                    "--json",
                ]))
                .unwrap(),
            );
            assert_eq!(code, 0, "{executor}: {text}");
            scrub_rss(&text)
        };
        let calendar = render("calendar");
        assert!(
            calendar.contains("\"energy\":{\"model\":\"round:1000,tx:8,rx:4,idle:50\",\"total\":"),
            "{calendar}"
        );
        assert_eq!(calendar, render("sync"));
        assert_eq!(calendar, render("naive"));

        // A starvation budget fails with the typed exhaustion error
        // instead of passing off a partial forest.
        let (code, text) = execute(
            &parse_args(&args(&[
                "run",
                "--alg",
                "randomized",
                "--graph",
                "ring:12",
                "--budget",
                "1500",
            ]))
            .unwrap(),
        );
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("exhausted its energy budget"), "{text}");
    }

    #[test]
    fn bench_engine_writes_per_driver_rows() {
        let path = std::env::temp_dir().join("sleeping-mst-bench-engine-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse_args(&args(&[
            "bench-engine",
            "--sizes",
            "32",
            "--seed",
            "2",
            "--executors",
            "calendar,sync,naive",
            "--out",
            &path_str,
        ]))
        .unwrap();
        let (code, text) = execute(&cmd);
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0, "{text}");
        assert_eq!(text, written);
        for key in [
            "\"executor\":\"calendar\"",
            "\"executor\":\"sync\"",
            "\"executor\":\"naive\"",
            "\"rounds\":",
            "\"messages\":",
            "\"wall_seconds\":",
            "\"rounds_per_sec\":",
            "\"messages_per_sec\":",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn disconnected_prim_run_maps_to_nonzero_exit() {
        // barbell is connected; craft a template the builder accepts but
        // prim rejects is not possible via specs (all specs are connected),
        // so exercise the error path through the library call instead.
        let g = graphlib::GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(2, 3, 2)
            .build()
            .unwrap();
        let err = run(registry::find("prim").unwrap(), &g, 0).unwrap_err();
        assert!(err.contains("connected"), "{err}");
    }
}
