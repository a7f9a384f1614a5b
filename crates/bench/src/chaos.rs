//! Chaos harness: every registry algorithm × graph family ×
//! escalating fault level, each outcome classified.
//!
//! A trial runs one algorithm on one generated graph under one seeded
//! [`FaultPlan`] via
//! [`AlgorithmSpec::run_with_options`](mst_core::registry::AlgorithmSpec::run_with_options)
//! and lands in exactly one bucket:
//!
//! * [`Outcome::Correct`] — the run completed and the output passes
//!   [`AlgorithmSpec::verify`] (Kruskal's MST for `produces_mst`
//!   algorithms, a spanning forest for the spanning-tree variant);
//! * [`Outcome::TypedFailure`] — the run degraded, but *legibly*: a typed
//!   [`RunError`] (watchdog cutoff, inconsistent collection, captured
//!   protocol panic, …). Under injected faults this is acceptable
//!   behavior — protocols are driven outside their design envelope;
//! * [`Outcome::WrongOutput`] — the run claimed success but the output is
//!   wrong. This is a bug, full stop: fault injection must never turn
//!   into silent corruption. `sleeping-mst chaos` exits nonzero on any
//!   of these.
//!
//! Everything derives from the spec seed through fixed per-trial mixing,
//! so a report is byte-identical across runs and machines.

use graphlib::{generators, WeightedGraph};
use mst_core::registry::{AlgorithmSpec, ALGORITHMS};
use mst_core::{ExecOptions, MstScratch, RunError};
use netsim::{EnergyModel, FaultPlan};

use crate::harness::Invalid;

/// Fault-intensity ladder, mildest first. Intensities are per-message /
/// per-wake probabilities in ppm (see [`netsim::faults`]); `crash` adds a
/// seed-chosen node crash on top of the `moderate` mix.
pub const LEVELS: &[&str] = &["none", "light", "moderate", "heavy", "crash"];

/// Graph families the chaos sweep covers (generator seed = trial seed).
pub const FAMILIES: &[&str] = &["ring", "random", "complete"];

/// What to sweep: the master seed, the family sizes, and how many trial
/// seeds to draw per (algorithm, family, level, n) cell — the `chaos`
/// request of the CLI and the daemon alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Master seed; every per-trial seed and fault plan derives from it.
    pub seed: u64,
    /// Family size parameters.
    pub sizes: Vec<usize>,
    /// Trials per cell.
    pub trials: u64,
    /// Send-half-step shard count every trial runs under. Shard counts
    /// are bit-identical, so the report bytes do not depend on this (CI
    /// `cmp`s shards 1 vs 2 matrices).
    pub shards: Option<u32>,
    /// Optional [`EnergyModel`] every trial charges against. Fills the
    /// report's energy column; a budgeted model adds the
    /// `energy` typed-failure bucket when nodes starve.
    pub energy: Option<EnergyModel>,
}

impl ChaosSpec {
    /// The campaign's validity rules: non-empty sizes and at least one
    /// trial per cell.
    ///
    /// # Errors
    ///
    /// The first broken rule.
    pub fn validate(&self) -> Result<(), Invalid> {
        Invalid::check(!self.sizes.is_empty(), "sizes", "needs at least one size")?;
        Invalid::check(self.trials >= 1, "trials", "needs at least one trial")
    }
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            sizes: vec![8, 12],
            trials: 2,
            shards: None,
            energy: None,
        }
    }
}

/// Classification of one chaos trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with exactly the reference output.
    Correct,
    /// Failed with a typed [`RunError`] (the `String` is its display).
    TypedFailure(String),
    /// Completed, but the output is wrong — a bug.
    WrongOutput(String),
}

impl Outcome {
    /// Stable one-word bucket name for reports.
    pub fn bucket(&self) -> &'static str {
        match self {
            Outcome::Correct => "correct",
            Outcome::TypedFailure(_) => "typed-failure",
            Outcome::WrongOutput(_) => "wrong-output",
        }
    }
}

/// One executed chaos trial.
#[derive(Debug, Clone)]
pub struct ChaosTrial {
    /// Registry name of the algorithm.
    pub algorithm: &'static str,
    /// Graph family name (see [`FAMILIES`]).
    pub family: &'static str,
    /// Fault level name (see [`LEVELS`]).
    pub level: &'static str,
    /// Family size parameter.
    pub n: usize,
    /// Derived trial seed (graph weights, protocol coins, fault streams).
    pub seed: u64,
    /// The classification.
    pub outcome: Outcome,
    /// Messages destroyed by the drop stream.
    pub injected_drops: u64,
    /// Extra deliveries from the duplicate stream.
    pub dup_deliveries: u64,
    /// Nodes halted by crash faults.
    pub crashed_nodes: u64,
    /// Simulated rounds (0 when the run failed before completing).
    pub rounds: u64,
    /// Total nano-joules spent under the spec's energy model (0 when no
    /// model is configured or the run failed before completing).
    pub energy_total: u64,
}

/// The full chaos report: every trial in deterministic grid order.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The spec the report was generated from.
    pub spec: ChaosSpec,
    /// All trials: algorithms × families × levels × sizes × trial index.
    pub trials: Vec<ChaosTrial>,
}

/// SplitMix64 step — per-trial seeds derive from the master seed through
/// this fixed mixer, never from ambient state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fault plan of `level` for an `n`-node trial.
///
/// The ladder escalates drop/duplicate/spurious-sleep intensity and wake
/// jitter; `crash` reuses the `moderate` mix and additionally crashes a
/// seed-chosen node (any node — including a fragment leader) at a
/// seed-chosen early round.
pub fn plan_for(level: &str, trial_seed: u64, n: usize) -> FaultPlan {
    let plan = FaultPlan::seeded(mix(trial_seed ^ 0xfau64));
    match level {
        "none" => plan,
        "light" => plan
            .with_drop_ppm(20_000)
            .with_duplicate_ppm(20_000)
            .with_spurious_sleep_ppm(10_000)
            .with_wake_jitter(1),
        "moderate" => plan
            .with_drop_ppm(100_000)
            .with_duplicate_ppm(50_000)
            .with_spurious_sleep_ppm(50_000)
            .with_wake_jitter(2),
        "heavy" => plan
            .with_drop_ppm(300_000)
            .with_duplicate_ppm(150_000)
            .with_spurious_sleep_ppm(150_000)
            .with_wake_jitter(3),
        "crash" => {
            let node = (mix(trial_seed ^ 0xc0) % n as u64) as u32;
            let round = 1 + mix(trial_seed ^ 0xc1) % 64;
            plan.with_drop_ppm(100_000)
                .with_duplicate_ppm(50_000)
                .with_spurious_sleep_ppm(50_000)
                .with_wake_jitter(2)
                .with_crash(node, round)
        }
        other => panic!("unknown fault level '{other}'"),
    }
}

/// Builds the family graph for one trial.
fn build_graph(family: &str, n: usize, seed: u64) -> Result<WeightedGraph, String> {
    match family {
        "ring" => generators::ring(n, seed).map_err(|e| e.to_string()),
        "random" => generators::random_connected(n, 0.3, seed).map_err(|e| e.to_string()),
        "complete" => generators::complete(n, seed).map_err(|e| e.to_string()),
        other => Err(format!("unknown graph family '{other}'")),
    }
}

/// Runs the full chaos grid: algorithms outermost, then families, levels,
/// sizes, trial indices — a fixed order, so reports are byte-stable.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    let mut scratch = MstScratch::new();
    let mut trials = Vec::new();
    for algo in ALGORITHMS {
        for &family in FAMILIES {
            for &level in LEVELS {
                for &n in &spec.sizes {
                    for t in 0..spec.trials {
                        trials.push(run_trial(algo, family, level, n, t, spec, &mut scratch));
                    }
                }
            }
        }
    }
    ChaosReport {
        spec: spec.clone(),
        trials,
    }
}

fn run_trial(
    algo: &'static AlgorithmSpec,
    family: &'static str,
    level: &'static str,
    n: usize,
    t: u64,
    spec: &ChaosSpec,
    scratch: &mut MstScratch,
) -> ChaosTrial {
    // Trial seed: a fixed mix of the master seed and the cell coordinates
    // (the level deliberately excluded, so `none` and `crash` trials of a
    // cell run the *same* graph and coins — only the plan differs).
    let mut seed = mix(spec.seed ^ mix(n as u64) ^ mix(t.wrapping_mul(0x51ed)));
    for b in algo.name.bytes().chain(family.bytes()) {
        seed = mix(seed ^ u64::from(b));
    }
    let mut trial = ChaosTrial {
        algorithm: algo.name,
        family,
        level,
        n,
        seed,
        outcome: Outcome::TypedFailure(String::new()),
        injected_drops: 0,
        dup_deliveries: 0,
        crashed_nodes: 0,
        rounds: 0,
        energy_total: 0,
    };
    let graph = match build_graph(family, n, seed) {
        Ok(g) => g,
        Err(e) => {
            trial.outcome = Outcome::TypedFailure(format!("graph construction: {e}"));
            return trial;
        }
    };
    let plan = plan_for(level, seed, graph.node_count());
    let mut opts = ExecOptions::seeded(seed).with_faults(plan);
    if let Some(shards) = spec.shards {
        opts = opts.with_shards(shards);
    }
    if let Some(model) = spec.energy {
        opts = opts.with_energy(model);
    }
    match algo.run_with_options(&graph, &opts, scratch) {
        Ok(out) => {
            trial.injected_drops = out.stats.injected_drops;
            trial.dup_deliveries = out.stats.dup_deliveries;
            trial.crashed_nodes = out.stats.crashed_nodes;
            trial.rounds = out.stats.rounds;
            trial.energy_total = out.stats.energy_total();
            trial.outcome = match algo.verify(&graph, &out.edges) {
                Ok(()) => Outcome::Correct,
                Err(detail) => Outcome::WrongOutput(detail),
            };
        }
        Err(e) => {
            trial.outcome = Outcome::TypedFailure(error_kind(&e));
        }
    }
    trial
}

/// Short stable label for a typed failure (full display text can contain
/// run-specific numbers; reports key on the kind).
fn error_kind(e: &RunError) -> String {
    match e {
        RunError::Sim(netsim::SimError::MaxRoundsExceeded { .. }) => "watchdog".to_string(),
        RunError::Sim(_) => "sim".to_string(),
        RunError::Collect(_) => "collect".to_string(),
        RunError::Disconnected { .. } => "disconnected".to_string(),
        RunError::Model(_) => "model".to_string(),
        RunError::Panicked { .. } => "panic".to_string(),
        RunError::Degraded { .. } => "degraded".to_string(),
        RunError::EnergyExhausted { .. } => "energy".to_string(),
        other => format!("other: {other}"),
    }
}

impl ChaosReport {
    /// Trials that claimed success with a wrong answer — the bug bucket.
    pub fn wrong_outputs(&self) -> Vec<&ChaosTrial> {
        self.trials
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::WrongOutput(_)))
            .collect()
    }

    /// The fault-tolerance matrix as byte-stable JSON: the spec, one
    /// summary cell per (algorithm, level) with bucket counts, and every
    /// trial row. Hand-rolled (keys in fixed order, no float formatting),
    /// so equal inputs render equal bytes.
    pub fn to_json(&self) -> String {
        let sizes: Vec<String> = self.spec.sizes.iter().map(|n| n.to_string()).collect();
        let mut cells = Vec::new();
        for algo in ALGORITHMS {
            for &level in LEVELS {
                let group: Vec<&ChaosTrial> = self
                    .trials
                    .iter()
                    .filter(|t| t.algorithm == algo.name && t.level == level)
                    .collect();
                let count = |b: &str| group.iter().filter(|t| t.outcome.bucket() == b).count();
                let energy: u64 = group.iter().map(|t| t.energy_total).sum();
                cells.push(format!(
                    "{{\"algorithm\":\"{}\",\"level\":\"{}\",\"trials\":{},\
                     \"correct\":{},\"typed_failures\":{},\"wrong_outputs\":{},\
                     \"energy_total\":{}}}",
                    algo.name,
                    level,
                    group.len(),
                    count("correct"),
                    count("typed-failure"),
                    count("wrong-output"),
                    energy,
                ));
            }
        }
        let rows: Vec<String> = self
            .trials
            .iter()
            .map(|t| {
                let detail = match &t.outcome {
                    Outcome::Correct => String::new(),
                    Outcome::TypedFailure(d) | Outcome::WrongOutput(d) => escape_json(d),
                };
                format!(
                    "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"level\":\"{}\",\
                     \"n\":{},\"seed\":{},\"outcome\":\"{}\",\"detail\":\"{}\",\
                     \"injected_drops\":{},\"dup_deliveries\":{},\
                     \"crashed_nodes\":{},\"rounds\":{},\"energy_total\":{}}}",
                    t.algorithm,
                    t.family,
                    t.level,
                    t.n,
                    t.seed,
                    t.outcome.bucket(),
                    detail,
                    t.injected_drops,
                    t.dup_deliveries,
                    t.crashed_nodes,
                    t.rounds,
                    t.energy_total,
                )
            })
            .collect();
        let energy = match &self.spec.energy {
            Some(model) => model.spec_string(),
            None => "none".to_string(),
        };
        format!(
            "{{\"seed\":{},\"sizes\":[{}],\"trials_per_cell\":{},\
             \"energy\":\"{}\",\"matrix\":[{}],\"trials\":[{}]}}",
            self.spec.seed,
            sizes.join(","),
            self.spec.trials,
            energy,
            cells.join(","),
            rows.join(","),
        )
    }

    /// A markdown matrix — algorithms × levels, each cell
    /// `correct/typed/wrong` — for EXPERIMENTS.md and terminal output.
    pub fn summary_table(&self) -> String {
        let mut s = String::from("| algorithm |");
        for &level in LEVELS {
            s.push_str(&format!(" {level} |"));
        }
        s.push_str("\n|-----------|");
        for _ in LEVELS {
            s.push_str("---|");
        }
        s.push('\n');
        for algo in ALGORITHMS {
            s.push_str(&format!("| {} |", algo.name));
            for &level in LEVELS {
                let group: Vec<&ChaosTrial> = self
                    .trials
                    .iter()
                    .filter(|t| t.algorithm == algo.name && t.level == level)
                    .collect();
                let count = |b: &str| group.iter().filter(|t| t.outcome.bucket() == b).count();
                s.push_str(&format!(
                    " {}/{}/{} |",
                    count("correct"),
                    count("typed-failure"),
                    count("wrong-output")
                ));
            }
            s.push('\n');
        }
        s
    }
}

/// Minimal JSON string escaping for error-display details.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_families_are_consistent() {
        for &level in LEVELS {
            let plan = plan_for(level, 7, 8);
            if level == "none" {
                assert!(plan.is_inert());
            } else {
                assert!(!plan.is_inert(), "{level}");
            }
        }
        for &family in FAMILIES {
            assert!(build_graph(family, 8, 1).is_ok(), "{family}");
        }
    }

    #[test]
    fn crash_level_targets_a_valid_node() {
        for seed in 0..50 {
            let plan = plan_for("crash", seed, 8);
            assert_eq!(plan.crashes.len(), 1);
            let (node, round) = plan.crashes[0];
            assert!(node < 8);
            assert!(round >= 1);
        }
    }

    #[test]
    fn report_is_byte_stable_and_classifies_fault_free_runs_correct() {
        let spec = ChaosSpec {
            seed: 3,
            sizes: vec![6],
            trials: 1,
            ..ChaosSpec::default()
        };
        let a = run_chaos(&spec);
        let b = run_chaos(&spec);
        assert_eq!(a.to_json(), b.to_json());
        // Level "none" is a plain run: always the reference answer.
        for t in a.trials.iter().filter(|t| t.level == "none") {
            assert_eq!(
                t.outcome,
                Outcome::Correct,
                "{} {} n={}",
                t.algorithm,
                t.family,
                t.n
            );
            assert_eq!(t.injected_drops + t.dup_deliveries + t.crashed_nodes, 0);
        }
    }

    #[test]
    fn energy_column_is_populated_and_bit_identical_across_shards() {
        let spec = ChaosSpec {
            seed: 5,
            sizes: vec![6],
            trials: 1,
            energy: Some(EnergyModel::reference()),
            ..ChaosSpec::default()
        };
        let base = run_chaos(&spec);
        let json = base.to_json();
        assert!(json.contains("\"energy\":\"round:1000,tx:8,rx:4,idle:50\""));
        // Every completed trial spent something under the reference model.
        for t in base.trials.iter().filter(|t| t.rounds > 0) {
            assert!(
                t.energy_total > 0,
                "{} {} {}",
                t.algorithm,
                t.family,
                t.level
            );
        }
        // The ledger is part of the differential surface: shard counts
        // must produce the same matrix bytes.
        let sharded = run_chaos(&ChaosSpec {
            shards: Some(2),
            ..spec.clone()
        });
        assert_eq!(json, sharded.to_json(), "shards=2");
    }

    #[test]
    fn budgeted_chaos_classifies_starvation_as_a_typed_energy_failure() {
        // A budget below one round's cost starves every node immediately:
        // each algorithm lands in the typed-failure bucket as "energy".
        let spec = ChaosSpec {
            seed: 9,
            sizes: vec![6],
            trials: 1,
            energy: Some(EnergyModel::reference().with_budget(500)),
            ..ChaosSpec::default()
        };
        let report = run_chaos(&spec);
        assert!(report.wrong_outputs().is_empty());
        for t in report.trials.iter().filter(|t| t.level == "none") {
            assert_eq!(
                t.outcome,
                Outcome::TypedFailure("energy".to_string()),
                "{} {} n={}",
                t.algorithm,
                t.family,
                t.n
            );
        }
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
