//! The `sleeping-mst` command-line interface: run any of the workspace's
//! MST algorithms on a described graph and report the sleeping-model
//! metrics, as text or JSON.
//!
//! Algorithms are resolved through [`mst_core::registry`] — the CLI holds
//! no algorithm table of its own — and the `sweep` subcommand drives the
//! shared experiment harness ([`bench::harness`]) over an
//! (algorithm × n × seed) grid on all available cores. `run`, `sweep`,
//! `report` and `chaos` parse to the same request values a serve line
//! does ([`RunRequest`], [`SweepSpec`], [`ReportSpec`], [`ChaosSpec`]),
//! checked by the same validity rules.
//!
//! Each subcommand reads only its own flags (the `FLAGS` table, which the
//! usage synopsis mirrors); any other flag is refused, naming the flag
//! and the command. The interface is deliberately dependency-free; graph
//! and algorithm specs are tiny colon-separated strings:
//!
//! ```text
//! sleeping-mst run --alg randomized --graph ring:64 --seed 7
//! sleeping-mst run --alg deterministic --graph random:48:0.1 --json
//! sleeping-mst verify --alg logstar --graph grid:4x8
//! sleeping-mst info --graph barbell:6:3
//! sleeping-mst sweep --alg randomized,always-awake --graph ring:{n} \
//!     --sizes 16,32,64 --seeds 0..3
//! ```

use bench::chaos::{self, ChaosSpec};
use bench::harness::{self, Invalid, SweepSpec};
use bench::report::{self, ReportSpec};
use bench::serve::protocol::render_run;
use bench::{engine_panel, serve};
use graphlib::{generators, traversal, WeightedGraph};
use mst_core::registry::{self, AlgorithmSpec};
use mst_core::wire::{self, RunRequest};
use mst_core::{MstOutcome, MstScratch};
use netsim::{EnergyModel, Executor, FaultPlan, WakePolicy};

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
    Ok((node, wire::crash_round(round)?))
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

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run`: execute and report.
    Run {
        /// The run: algorithm, graph, seed, driver, shards, and the
        /// normalized fault plan, energy model and wake policy — the
        /// same [`RunRequest`] a serve `run` line parses to.
        request: RunRequest,
        /// Emit the JSON result object instead of text.
        json: bool,
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
        /// The grid — the same [`SweepSpec`] a serve `sweep` line parses to.
        spec: SweepSpec,
        /// Worker threads (0 = all available cores).
        threads: usize,
        /// Emit raw per-trial JSON instead of the aggregated table.
        json: bool,
    },
    /// `report`: generate the "Table 1, measured" artifact
    /// ([`bench::report`]) — every registry algorithm swept across graph
    /// families and sizes with metrics recording on; measured awake
    /// complexity against the paper's bounds, fitted exponents, and
    /// per-phase awake breakdowns. Byte-deterministic: the same panel
    /// always renders identical bytes.
    Report {
        /// The panel — the same [`ReportSpec`] a serve `report` line
        /// parses to.
        spec: ReportSpec,
        /// Print JSON instead of markdown.
        json: bool,
        /// Also write the JSON artifact to this file.
        out: Option<String>,
        /// Also write the markdown artifact to this file.
        md_out: Option<String>,
    },
    /// `chaos`: sweep every registry algorithm × graph family × fault
    /// level ([`bench::chaos`]), classify each trial, and print the
    /// fault-tolerance matrix. Exits non-zero on any wrong-output trial.
    Chaos {
        /// The campaign — the same [`ChaosSpec`] a serve `chaos` line
        /// parses to.
        spec: ChaosSpec,
        /// Print the full byte-stable JSON matrix instead of the table.
        json: bool,
        /// Also write the JSON matrix to this file.
        out: Option<String>,
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

/// The flags each subcommand reads, in usage order; any other flag is
/// refused (`help` reads none).
const FLAGS: &[(&str, &str)] = &[
    (
        "run",
        "--alg --graph --seed --json --executor --shards --energy-model --budget \
         --wake-policy --profile --fault-seed --drop-ppm --dup-ppm --sleep-ppm --jitter --crash",
    ),
    ("verify", "--alg --graph --seed"),
    ("info", "--graph --seed"),
    ("check", "--graph --alg --seed"),
    (
        "sweep",
        "--alg --graph --sizes --seeds --seed --threads --json --executor --shards \
         --energy-model --budget",
    ),
    (
        "report",
        "--sizes --seeds --executor --energy-model --budget --json --out --md-out",
    ),
    (
        "chaos",
        "--seed --sizes --trials --json --out --executor --shards --energy-model --budget",
    ),
    (
        "bench-engine",
        "--sizes --seed --out --executors --executor",
    ),
    (
        "serve",
        "--socket --workers --cache-capacity --bucket-capacity --refill-per-sec",
    ),
];

/// Words a broken spec rule in CLI terms: the flag that sets the field.
fn invalid_flag(invalid: Invalid) -> String {
    let flag = match invalid.field {
        "algs" => "alg",
        "template" => "graph",
        field => field,
    };
    format!("--{flag} {}", invalid.reason)
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
    let Some(&(_, known)) = FLAGS.iter().find(|(name, _)| *name == cmd) else {
        let names: Vec<&str> = FLAGS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown command '{cmd}' ({}, help)",
            names.join(", ")
        ));
    };
    let mut algs: Vec<&'static AlgorithmSpec> = Vec::new();
    let mut graph = None;
    let mut seed = 0u64;
    let mut seeds: Option<Vec<u64>> = None;
    let mut sizes: Option<Vec<usize>> = None;
    let mut threads = 0usize;
    let mut json = false;
    let mut profile = false;
    let mut trials: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut md_out: Option<String> = None;
    let mut executor: Option<Executor> = None;
    let mut executors: Option<Vec<Executor>> = None;
    let mut shards: Option<u32> = None;
    let mut faults = FaultPlan::default();
    let mut energy: Option<EnergyModel> = None;
    let mut budget: Option<u64> = None;
    let mut wake_policy = WakePolicy::default();
    let mut socket: Option<String> = None;
    let mut workers = 2usize;
    let mut cache_capacity = 256usize;
    let mut bucket_capacity = 4096u64;
    let mut refill_per_sec = 4096u64;
    while let Some(flag) = it.next() {
        if !known.split_whitespace().any(|k| k == flag) {
            return Err(format!("'{cmd}' does not take '{flag}' (it takes {known})"));
        }
        match flag.as_str() {
            "--alg" => {
                let v = it.next().ok_or("--alg needs a value")?;
                for name in v.split(',') {
                    algs.push(wire::parse_algorithm(name.trim())?);
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
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                trials = Some(
                    v.parse()
                        .map_err(|_| format!("'{v}' is not a trial count"))?,
                );
            }
            "--out" => out = Some(it.next().ok_or("--out needs a file path")?.clone()),
            "--md-out" => md_out = Some(it.next().ok_or("--md-out needs a file path")?.clone()),
            "--executor" => {
                let v = it
                    .next()
                    .ok_or("--executor needs sync, calendar, or naive")?;
                executor = Some(wire::parse_executor(v)?);
            }
            "--executors" => {
                let v = it.next().ok_or("--executors needs a comma list")?;
                executors = Some(
                    v.split(',')
                        .map(|x| wire::parse_executor(x.trim()))
                        .collect::<Result<Vec<Executor>, String>>()?,
                );
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                shards = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("'{v}' is not a shard count (>= 1)"))?,
                );
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
                energy = Some(wire::parse_energy_model(v)?);
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
                wake_policy = wire::parse_wake_policy(v)?;
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
            other => unreachable!("'{other}' is in FLAGS but has no parser"),
        }
    }
    let energy = wire::budgeted(energy, budget);
    let graph = || graph.clone().ok_or("--graph is required");
    let single_alg = |algs: &[&'static AlgorithmSpec]| -> Result<&'static AlgorithmSpec, String> {
        match algs {
            [one] => Ok(one),
            [] => Err("--alg is required".to_string()),
            _ => Err("this command takes exactly one --alg".to_string()),
        }
    };
    Ok(match cmd {
        "run" => {
            if profile && json {
                return Err(
                    "--profile appends a wall-clock table to the text report of 'run'; \
                     it takes no --json"
                        .into(),
                );
            }
            Command::Run {
                request: RunRequest {
                    executor,
                    shards,
                    faults: Some(faults),
                    energy,
                    wake_policy,
                    ..RunRequest::new(single_alg(&algs)?, graph()?, seed)
                }
                .normalized(),
                json,
                profile,
            }
        }
        "verify" => Command::Verify {
            graph: graph()?,
            alg: single_alg(&algs)?,
            seed,
        },
        "info" => Command::Info {
            graph: graph()?,
            seed,
        },
        "check" => Command::Check {
            graph: graph()?,
            algs,
            seed,
        },
        "sweep" => {
            let template = graph()?;
            if algs.is_empty() {
                return Err("--alg is required for 'sweep' (comma-separate for several)".into());
            }
            let spec = SweepSpec {
                algs,
                template,
                sizes: sizes.ok_or("--sizes is required for 'sweep'")?,
                seeds: seeds.unwrap_or_else(|| vec![seed]),
                executor,
                shards,
                energy,
            };
            spec.validate().map_err(invalid_flag)?;
            Command::Sweep {
                spec,
                threads,
                json,
            }
        }
        "report" => {
            let mut spec = ReportSpec {
                executor: executor.unwrap_or_default(),
                ..ReportSpec::default()
            };
            spec.sizes = sizes.unwrap_or(spec.sizes);
            spec.seeds = seeds.unwrap_or(spec.seeds);
            spec.energy = energy.unwrap_or(spec.energy);
            spec.validate().map_err(invalid_flag)?;
            Command::Report {
                spec,
                json,
                out,
                md_out,
            }
        }
        "chaos" => {
            let mut spec = ChaosSpec {
                seed,
                executor: executor.unwrap_or_default(),
                shards,
                energy,
                ..ChaosSpec::default()
            };
            spec.sizes = sizes.unwrap_or(spec.sizes);
            spec.trials = trials.unwrap_or(spec.trials);
            spec.validate().map_err(invalid_flag)?;
            Command::Chaos { spec, json, out }
        }
        "bench-engine" => Command::BenchEngine {
            sizes: sizes.unwrap_or_else(|| vec![1 << 14]),
            seed,
            executors: executors.unwrap_or_else(|| {
                executor.map_or_else(|| vec![Executor::Calendar, Executor::Sync], |e| vec![e])
            }),
            out,
        },
        "serve" => Command::Serve {
            socket: socket.ok_or("--socket is required for 'serve'")?,
            workers,
            cache_capacity,
            bucket_capacity,
            refill_per_sec,
        },
        other => unreachable!("'{other}' is in FLAGS but has no command"),
    })
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
                        --sizes <N,N,…> [--seeds A..B|A,B,… | --seed S]
                        [--threads T] [--json] [--executor sync|calendar|naive]
                        [--shards K] [--energy-model M] [--budget B]
    sleeping-mst report [--sizes N,N,…] [--seeds A..B|A,B,…]
                        [--executor sync|calendar|naive]
                        [--energy-model M] [--budget B]
                        [--json] [--out FILE] [--md-out FILE]
    sleeping-mst chaos  [--seed S] [--sizes N,N,…] [--trials K] [--json]
                        [--out FILE] [--executor sync|calendar|naive]
                        [--shards K] [--energy-model M] [--budget B]
    sleeping-mst bench-engine [--sizes N,N,…] [--seed S] [--out FILE]
                        [--executors calendar,sync[,naive] | --executor E]
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
    deterministic per seed and independent of --threads.

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
    the same panel always produces identical bytes, whichever --executor
    backs the runs (`naive` is the reference oracle) — output unchanged.

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
    --wake-policy (run; serve takes it per request as \"wake_policy\")
    reschedules wakes deterministically: `block` (exact timeline, the
    default), `duty:P` (wakes snap up to rounds 1, 1+P, 1+2P, …),
    `heavytail:SEED:CAP` (seeded geometric slip), or `shift:SEED:MAX`
    (seeded constant per-node phase offset). Policies hash like fault
    decisions, so all drivers and the naive oracle agree; a policy that
    moves wakes is named in the `--json` output as \"wake_policy\".

EXECUTORS:
    Execution is one generic kernel parameterized by a time driver:
    `calendar` (the default) jumps between scheduled wakes on a calendar,
    `sync` ticks every round, `naive` is an O(n)-scan oracle. All three
    are bit-identical on every run — fingerprints, stats, traces, and
    metrics — so --executor only changes wall-clock cost (that is what
    `bench-engine` measures) and any divergence is a simulator bug.

SHARDS:
    --shards K splits each round's send and receive half-steps across K
    worker threads (wide rounds only; narrow rounds stay serial). Shard counts
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
    messages, wall seconds, nanoseconds per node wake, messages/sec. With
    --out the rows are written as the BENCH_engine.json artifact. The
    naive oracle costs O(rounds·n); include it via --executors only at
    small sizes.
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
        Command::Info { graph, seed } => match generators::from_spec(graph, *seed) {
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
            request,
            json,
            profile,
        } => match generators::from_spec(&request.graph, request.seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => {
                let mut scratch = MstScratch::new();
                if *profile {
                    scratch.enable_profile();
                }
                match request
                    .alg
                    .run_with_options(&g, &request.exec_options(), &mut scratch)
                {
                    Err(e) => (1, format!("error: {e}\n")),
                    Ok(out) => {
                        let text = if *json {
                            render_run(request, &g, &out, Some(peak_rss_bytes())) + "\n"
                        } else {
                            let mut text = render_text(request.alg, &g, &out);
                            if request.faults.is_some() {
                                text.push_str(&format!(
                                    "faults           : {} dropped, {} duplicated, {} crashed\n",
                                    out.stats.injected_drops,
                                    out.stats.dup_deliveries,
                                    out.stats.crashed_nodes,
                                ));
                            }
                            if let Some(model) = &request.energy {
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
            spec,
            json,
            out,
            md_out,
        } => match report::generate(spec) {
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
        },
        Command::Chaos { spec, json, out } => {
            let report = chaos::run_chaos(spec);
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
                    let detail = match &t.outcome {
                        chaos::Outcome::WrongOutput(d) => d.as_str(),
                        _ => "",
                    };
                    text.push_str(&format!(
                        "WRONG OUTPUT: {} family={} level={} n={} seed={}: {detail}\n",
                        t.algorithm, t.family, t.level, t.n, t.seed
                    ));
                }
                (1, text)
            }
        }
        Command::Verify { alg, graph, seed } => match generators::from_spec(graph, *seed) {
            Err(e) => (2, format!("error: {e}\n")),
            Ok(g) => match alg.run(&g, *seed) {
                Err(e) => (1, format!("error: {e}\n")),
                Ok(out) => match alg.verify(&g, &out.edges) {
                    Ok(()) => (0, format!("ok: {} output verified on {graph}\n", alg.name)),
                    Err(e) => (1, format!("MISMATCH: {e}\n")),
                },
            },
        },
        Command::Check { algs, graph, seed } => match generators::from_spec(graph, *seed) {
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
            spec,
            threads,
            json,
        } => match spec.run(*threads) {
            Err(e) => (1, format!("error: {e}\n")),
            Ok(results) => {
                let text = if *json {
                    harness::render_json(&results) + "\n"
                } else {
                    harness::render_cells(&harness::aggregate(&results))
                };
                (0, text)
            }
        },
        Command::BenchEngine {
            sizes,
            seed,
            executors,
            out,
        } => {
            let spec = engine_panel::EnginePanelSpec {
                sizes: sizes.clone(),
                executors: executors.clone(),
                seed: *seed,
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
                    let wall = engine_panel::render_engine_panel_wall_clock(&rows);
                    (0, format!("{json}\n{wall}"))
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
                request: RunRequest::new(registry::find("randomized").unwrap(), "ring:32", 9),
                json: true,
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
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(
            request.energy,
            Some(EnergyModel::reference().with_budget(500_000))
        );
        assert_eq!(request.wake_policy, WakePolicy::DutyCycle { period: 4 });

        // A bare --budget implies the reference model.
        let cmd = parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--budget", "9",
        ]))
        .unwrap();
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(
            request.energy,
            Some(EnergyModel::reference().with_budget(9))
        );

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
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(
            request.energy,
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
        let Command::Sweep { spec, .. } = cmd else {
            unreachable!("expected sweep command");
        };
        assert_eq!(spec.energy, Some(EnergyModel::radio_default()));
        let cmd = parse_args(&args(&["chaos", "--budget", "7", "--shards", "2"])).unwrap();
        let Command::Chaos { spec, .. } = cmd else {
            unreachable!("expected chaos command");
        };
        assert_eq!(spec.energy, Some(EnergyModel::reference().with_budget(7)));
        assert_eq!(spec.shards, Some(2));
        let cmd = parse_args(&args(&["report", "--energy-model", "radio"])).unwrap();
        let Command::Report { spec, .. } = cmd else {
            unreachable!("expected report command");
        };
        assert_eq!(spec.energy, EnergyModel::radio_default());
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
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(request.shards, Some(4));

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
        let Command::Sweep { spec, .. } = cmd else {
            unreachable!("expected sweep command");
        };
        assert_eq!(spec.shards, Some(2));

        // A shard count is one value >= 1.
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--shards", "1,2"
        ]))
        .unwrap_err()
        .contains("shard count"));
        assert!(parse_args(&args(&[
            "run", "--alg", "prim", "--graph", "ring:8", "--shards", "0"
        ]))
        .unwrap_err()
        .contains("shard count"));

        // bench-engine times drivers only; the wide-round shard sweep is
        // the repository benchmark's wide-wave workload.
        for flag in ["--wave-sizes", "--shards"] {
            let err = parse_args(&args(&["bench-engine", flag, "2"])).unwrap_err();
            assert!(err.contains(&format!("'{flag}'")), "{flag}: {err}");
            assert!(err.contains("'bench-engine'"), "{flag}: {err}");
        }
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
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        assert_eq!(request.executor, Some(Executor::Sync));
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

        let cmd = parse_args(&args(&["bench-engine"])).unwrap();
        assert_eq!(
            cmd,
            Command::BenchEngine {
                sizes: vec![1 << 14],
                seed: 0,
                executors: vec![Executor::Calendar, Executor::Sync],
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
                spec: SweepSpec {
                    algs: vec![
                        registry::find("randomized").unwrap(),
                        registry::find("always-awake").unwrap(),
                    ],
                    template: "ring:{n}".into(),
                    sizes: vec![8, 16],
                    seeds: vec![0, 1, 2],
                    executor: None,
                    shards: None,
                    energy: None,
                },
                threads: 2,
                json: false,
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
        // No subcommand takes `--naive`; the oracle is `--executor naive`.
        for cmd in [
            "run --alg randomized --graph ring:8 --naive --json",
            "report --naive",
            "chaos --naive",
            "sweep --alg randomized --graph ring:{n} --naive",
        ] {
            let argv: Vec<&str> = cmd.split(' ').collect();
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(err.contains("'--naive'"), "{cmd}: {err}");
        }
        // A flag another command reads, or a removed one, is refused by
        // name, not silently dropped.
        for (cmd, flag) in [
            (
                "sweep --alg randomized --graph ring:{n} --sizes 8 --bench-out x",
                "'--bench-out'",
            ),
            (
                "sweep --alg randomized --graph ring:{n} --sizes 16 --wake-policy duty:2 \
                 --drop-ppm 500000 --json",
                "'--wake-policy'",
            ),
            (
                "verify --alg randomized --graph ring:16 --energy-model radio --budget 1",
                "'--energy-model'",
            ),
            ("report --shards 4", "'--shards'"),
        ] {
            let argv: Vec<&str> = cmd.split_whitespace().collect();
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(err.contains(flag), "{cmd}: {err}");
            assert!(err.contains(&format!("'{}'", argv[0])), "{cmd}: {err}");
        }
        // The chaos campaign's rules hold on the CLI as they do in serve.
        let err =
            parse_args(&args(&["chaos", "--sizes", "8", "--trials", "0", "--json"])).unwrap_err();
        assert!(err.contains("--trials"), "{err}");
    }

    /// The usage synopsis and the per-command flag lists name the same
    /// flags: each one listed parses for its command, and a flag only
    /// other commands read is refused.
    #[test]
    fn usage_synopsis_matches_each_commands_flags() {
        let usage = usage();
        let synopsis = &usage[usage.find("USAGE:").unwrap()..usage.find("ALGORITHMS:").unwrap()];
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in synopsis.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("sleeping-mst ") {
                listed.push((rest.split_whitespace().next().unwrap(), Vec::new()));
            }
            if let Some((_, flags)) = listed.last_mut() {
                flags.extend(
                    line.split(['[', ']', ' ', '|'])
                        .filter(|w| w.starts_with("--")),
                );
            }
        }
        // The minimal argv of each command, and a value for each flag.
        let required = |cmd: &str| -> Vec<&str> {
            match cmd {
                "run" | "verify" => vec!["--alg", "--graph"],
                "info" | "check" => vec!["--graph"],
                "sweep" => vec!["--alg", "--graph", "--sizes"],
                "serve" => vec!["--socket"],
                _ => vec![],
            }
        };
        let with_value = |flag: &str| -> Vec<String> {
            let value = match flag {
                "--json" | "--profile" => return vec![flag.into()],
                "--alg" => "prim",
                "--graph" => "ring:{n}",
                "--crash" => "1@5",
                "--executor" | "--executors" => "sync",
                "--energy-model" => "radio",
                "--wake-policy" => "duty:2",
                "--socket" | "--out" | "--md-out" => "file",
                _ => "2",
            };
            vec![flag.into(), value.into()]
        };
        let argv = |cmd: &str, extra: &str| -> Vec<String> {
            let mut argv = vec![cmd.to_string()];
            for flag in required(cmd).into_iter().filter(|&f| f != extra) {
                argv.extend(with_value(flag));
            }
            argv.extend(with_value(extra));
            argv
        };
        let names: Vec<&str> = FLAGS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            listed.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            names
        );
        for ((cmd, usage_flags), (_, known)) in listed.iter().zip(FLAGS) {
            let known: Vec<&str> = known.split_whitespace().collect();
            assert_eq!(usage_flags, &known, "usage of '{cmd}'");
            for flag in &known {
                let argv = argv(cmd, flag);
                parse_args(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            }
            let foreign = FLAGS
                .iter()
                .flat_map(|(_, flags)| flags.split_whitespace())
                .filter(|flag| !known.contains(flag));
            for flag in foreign {
                let argv = argv(cmd, flag);
                let err = parse_args(&argv).unwrap_err();
                assert!(
                    err.contains(&format!("'{cmd}' does not take '{flag}'")),
                    "{argv:?}: {err}"
                );
            }
        }
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
            let g = generators::from_spec(spec, 1).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(g.node_count() > 0, "{spec}");
        }
        assert!(generators::from_spec("ring:2", 0).is_err());
        assert!(generators::from_spec("mystery:3", 0).is_err());
        assert!(generators::from_spec("grid:3", 0).is_err());
        assert!(generators::from_spec("random:5:nope", 0).is_err());
        assert!(generators::from_spec("scale:4:1", 0).is_err());
        assert!(generators::from_spec("scale:9:9", 0).is_err());
    }

    #[test]
    fn run_and_verify_all_algorithms() {
        let g = generators::from_spec("random:14:0.2", 3).unwrap();
        for alg in registry::ALGORITHMS {
            let out = alg
                .run(&g, 5)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name));
            alg.verify(&g, &out.edges)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name));
        }
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let g = generators::from_spec("ring:8", 1).unwrap();
        let alg = registry::find("randomized").unwrap();
        let out = alg.run(&g, 1).unwrap();
        let json = render_run(&RunRequest::new(alg, "ring:8", 1), &g, &out, Some(0));
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
        let Command::Run { request, .. } = cmd else {
            unreachable!("expected run command");
        };
        let faults = request.faults.expect("an active plan");
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
                spec: ChaosSpec {
                    seed: 5,
                    sizes: vec![6],
                    trials: 1,
                    executor: Executor::Calendar,
                    shards: None,
                    energy: None,
                },
                json: false,
                out: Some(path_str.clone()),
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
                spec: ReportSpec {
                    sizes: vec![8, 12, 16, 24],
                    seeds: vec![0, 1],
                    executor: Executor::Calendar,
                    energy: EnergyModel::reference(),
                },
                json: false,
                out: None,
                md_out: None,
            }
        );
        let cmd = parse_args(&args(&[
            "report",
            "--sizes",
            "6,8",
            "--seeds",
            "0..2",
            "--executor",
            "naive",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                spec: ReportSpec {
                    sizes: vec![6, 8],
                    seeds: vec![0, 1],
                    executor: Executor::Naive,
                    energy: EnergyModel::reference(),
                },
                json: true,
                out: None,
                md_out: None,
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
        let spec = SweepSpec {
            algs: vec![registry::find("randomized").unwrap()],
            template: "ring:{n}".into(),
            sizes: vec![8, 12],
            seeds: vec![0, 1],
            executor: None,
            shards: None,
            energy: None,
        };
        let cmd = Command::Sweep {
            spec: spec.clone(),
            threads: 2,
            json: false,
        };
        let (code, text) = execute(&cmd);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("| randomized | 8 | 2 |"), "{text}");

        let cmd_json = Command::Sweep {
            spec: SweepSpec {
                sizes: vec![8],
                seeds: vec![0],
                ..spec
            },
            threads: 1,
            json: true,
        };
        let (code, text) = execute(&cmd_json);
        assert_eq!(code, 0, "{text}");
        assert!(text.trim_end().starts_with('[') && text.trim_end().ends_with(']'));
    }

    #[test]
    fn bench_report_aggregates_deterministic_totals() {
        let spec = SweepSpec {
            algs: vec![registry::find("randomized").unwrap()],
            template: "ring:{n}".into(),
            sizes: vec![8],
            seeds: vec![0, 1],
            executor: None,
            shards: None,
            energy: None,
        };
        let results = spec.run(1).unwrap();
        let (code, text) = execute(&Command::Sweep {
            spec,
            threads: 1,
            json: true,
        });
        assert_eq!(code, 0, "{text}");
        // `sweep --json` carries the deterministic work of every trial; no
        // wall-clock figure is part of it.
        assert_eq!(text.matches("\"algorithm\":\"randomized\"").count(), 2);
        for r in &results {
            let s = &r.stats;
            for field in [
                format!("\"rounds\":{}", s.rounds),
                format!("\"messages_delivered\":{}", s.messages_delivered),
                format!("\"max_message_bits\":{}", s.max_message_bits),
            ] {
                assert!(text.contains(&field), "missing {field} in {text}");
            }
        }
        let total = |key: &str| -> u64 {
            text.split(key)
                .skip(1)
                .map(|rest| {
                    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                    digits.parse::<u64>().unwrap()
                })
                .sum()
        };
        let messages: u64 = results.iter().map(|r| r.stats.messages_delivered).sum();
        assert_eq!(total("\"messages_delivered\":"), messages, "{text}");
        assert_eq!(text.matches("\"log_constant\":").count(), 2, "{text}");
        assert!(!text.contains("wall"), "{text}");
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
        // The file holds the deterministic JSON alone; stdout repeats it
        // and then prints the labelled wall-clock block.
        let wall = text
            .strip_prefix(&written)
            .expect("stdout starts with the file");
        for key in [
            "\"executor\":\"calendar\"",
            "\"executor\":\"sync\"",
            "\"executor\":\"naive\"",
            "\"rounds\":",
            "\"messages\":",
            "\"energy_total\":",
        ] {
            assert!(written.contains(key), "missing {key} in {written}");
        }
        for key in ["wall_seconds", "ns_per_wake", "messages_per_sec"] {
            assert!(!written.contains(key), "{key} in {written}");
            assert_eq!(wall.matches(key).count(), 3, "{key} per row in {wall}");
        }
        assert!(wall.trim_start().starts_with("wall-clock"), "{wall}");
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
        let err = registry::find("prim")
            .unwrap()
            .run(&g, 0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("connected"), "{err}");
    }
}
