//! Types shared by the three workloads.

use crate::clock::Clock;
use crate::summary::{EndToEnd, Layer};

/// Command-line settings of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units of work (runs, waves, requests).
    pub attempted: u64,
    /// Failed checks (all counted; messages kept for the first few).
    pub failed: u64,
    /// Messages of the first failures.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Layer>,
    /// Deterministic counters: identical on every run with the same seed.
    pub counters: Vec<(String, u64)>,
    /// Counters reported without gating (timing-dependent splits).
    pub ungated: Vec<(String, u64)>,
    /// Free-form facts about the inputs (sizes, pool shape).
    pub notes: Vec<String>,
    /// Traced minus untraced median job wall time (traced runs).
    pub trace_overhead_s: Option<f64>,
}

impl Outcome {
    /// Counts one checked unit and records a failure if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one unit that failed outright.
    pub fn error(&mut self, message: String) {
        self.attempted += 1;
        self.fail(message);
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// Deterministic work counters summed over a set of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Runs folded in.
    pub runs: u64,
    /// Simulated rounds.
    pub rounds: u64,
    /// Messages sent (delivered + lost).
    pub messages: u64,
    /// Messages lost to sleeping receivers.
    pub lost: u64,
    /// Awake node-rounds.
    pub awake_node_rounds: u64,
    /// Sum over runs of the awake complexity (max awake rounds of a node).
    pub awake_max: u64,
    /// Energy ledger total.
    pub energy_total: u64,
    /// Largest delivery-arena high-water mark of any run.
    pub arena_peak_envelopes: u64,
}

impl Totals {
    /// Folds one run's stats in.
    pub fn add(&mut self, s: &netsim::RunStats) {
        self.runs += 1;
        self.rounds += s.rounds;
        self.messages += s.messages_sent();
        self.lost += s.messages_lost;
        self.awake_node_rounds += s.awake_total();
        self.awake_max += s.awake_max();
        self.energy_total += s.energy_total();
        self.arena_peak_envelopes = self.arena_peak_envelopes.max(s.arena_peak_envelopes);
    }

    /// The counters under a layer prefix (`mst_core` or `netsim`).
    pub fn named(&self, prefix: &str) -> Vec<(String, u64)> {
        vec![
            (format!("{prefix}.runs"), self.runs),
            (format!("{prefix}.rounds"), self.rounds),
            (format!("{prefix}.messages"), self.messages),
            (
                format!("{prefix}.awake_node_rounds"),
                self.awake_node_rounds,
            ),
            (format!("{prefix}.awake_max"), self.awake_max),
            (format!("{prefix}.energy_total"), self.energy_total),
            (
                format!("{prefix}.arena_peak_envelopes"),
                self.arena_peak_envelopes,
            ),
        ]
    }
}

/// The per-layer metrics every workload reports, so the traced result
/// line carries the same names on all of them. `moves` names the
/// end-to-end metric the run layer's cost should move on this workload.
pub fn common_layers(
    build_s: f64,
    bytes_per_node: f64,
    init_s: f64,
    run_ns: u64,
    totals: &Totals,
    moves: &'static str,
) -> Vec<Layer> {
    let per = |d: u64| {
        if d == 0 {
            f64::NAN
        } else {
            run_ns as f64 / d as f64
        }
    };
    vec![
        Layer::new("graphlib.build_s", "s", build_s, "setup_s (all workloads)"),
        Layer::new(
            "graphlib.bytes_per_node",
            "B",
            bytes_per_node,
            "peak_rss_mb (all workloads)",
        ),
        Layer::new("netsim.init_s", "s", init_s, "msgs_per_s (all workloads)"),
        Layer::new("run.ns_per_msg", "ns", per(totals.messages), moves),
        Layer::new(
            "run.ns_per_awake_node_round",
            "ns",
            per(totals.awake_node_rounds),
            moves,
        ),
        Layer::new(
            "netsim.messages",
            "count",
            totals.messages as f64,
            "exact; never moves",
        ),
        Layer::new(
            "netsim.rounds",
            "count",
            totals.rounds as f64,
            "exact; never moves",
        ),
        Layer::new(
            "netsim.awake_node_rounds",
            "count",
            totals.awake_node_rounds as f64,
            "exact; never moves",
        ),
        Layer::new(
            "netsim.arena_peak_envelopes",
            "count",
            totals.arena_peak_envelopes as f64,
            "exact; never moves",
        ),
    ]
}

/// Names of [`common_layers`], in order: the per-layer metrics of the
/// traced result line.
pub const COMMON_LAYERS: [&str; 9] = [
    "graphlib.build_s",
    "graphlib.bytes_per_node",
    "netsim.init_s",
    "run.ns_per_msg",
    "run.ns_per_awake_node_round",
    "netsim.messages",
    "netsim.rounds",
    "netsim.awake_node_rounds",
    "netsim.arena_peak_envelopes",
];

/// The end-to-end metrics of the untraced result line, in order. The
/// record also prints `p50_ms`, which stays off the line: on a host that
/// wakes idle vCPUs slowly, serve-mix's cache-hit median flips between
/// two latency modes from run to run.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "msgs_per_s",
    "sharded_msgs_per_s",
    "p99_ms",
    "req_per_s",
    "peak_rss_mb",
];

/// A protocol that halts at once: a [`netsim::Simulator::run`] of it
/// costs exactly the kernel's per-run initialization.
pub struct Halt;

impl netsim::Protocol for Halt {
    type Msg = u64;

    fn init(&mut self, _ctx: &netsim::NodeCtx) -> netsim::NextWake {
        netsim::NextWake::Halt
    }

    fn send(
        &mut self,
        _ctx: &netsim::NodeCtx,
        _round: netsim::Round,
        _outbox: &mut netsim::Outbox<u64>,
    ) {
    }

    fn deliver(
        &mut self,
        _ctx: &netsim::NodeCtx,
        _round: netsim::Round,
        _inbox: &[netsim::Envelope<u64>],
    ) -> netsim::NextWake {
        netsim::NextWake::Halt
    }
}

/// Seconds a [`Halt`] run takes on `graph` (kernel initialization only).
pub fn init_seconds(clock: &Clock, graph: &graphlib::WeightedGraph) -> f64 {
    let start = clock.now_ns();
    let out = netsim::Simulator::new(graph, netsim::SimConfig::default()).run(|_| Halt);
    let secs = clock.secs_since(start);
    assert!(out.is_ok(), "a halting protocol cannot fail");
    secs
}

/// SplitMix64 finalizer: the benchmark's input-derivation hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `job` until `seconds` have passed since `start_ns`, and at least
/// `min_jobs` times. `job` receives the job index.
pub fn repeat_until(
    clock: &Clock,
    start_ns: u64,
    seconds: f64,
    min_jobs: usize,
    mut job: impl FnMut(usize),
) {
    let mut k = 0;
    while k < min_jobs || clock.secs_since(start_ns) < seconds {
        job(k);
        k += 1;
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    crate::summary::Summary::of(samples).median
}
