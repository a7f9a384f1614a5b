//! Template sweeps over (registry algorithm × graph family × n × seed).
//!
//! [`SweepSpec`] is the one sweep type: the `sweep` request of the CLI
//! and the daemon alike, and the ring panels of the examples. Its
//! [`SweepSpec::run`] enumerates the trial grid in a fixed order, fans
//! the trials out over `std::thread::scope` workers, and returns the
//! results in grid order. Because each trial rebuilds its graph from the
//! template at `(n, seed)` and every bit of randomness derives from the
//! trial seed, the results are **bit-identical regardless of thread
//! count** — `run(1)` is the reference schedule and the parallel runs
//! must (and do, see the tests) reproduce it exactly.
//!
//! [`Invalid`] is how the sweep — and the `report` and `chaos` specs —
//! name a broken validity rule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use graphlib::generators;
use mst_core::registry::AlgorithmSpec;
use mst_core::{ExecOptions, MstScratch};
use netsim::{EnergyModel, Executor, RunStats};

/// One completed trial of a sweep.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Registry name of the algorithm.
    pub algorithm: &'static str,
    /// The size parameter the graph family was instantiated with.
    pub n: usize,
    /// The trial seed (drives graph weights and algorithm coins).
    pub seed: u64,
    /// Nodes in the instantiated graph.
    pub nodes: usize,
    /// Edges in the instantiated graph.
    pub graph_edges: usize,
    /// The id-space bound `N` of the instantiated graph.
    pub max_external_id: u64,
    /// Edges in the output tree/forest.
    pub tree_edges: usize,
    /// Total weight of the output tree/forest.
    pub total_weight: u128,
    /// Merge phases completed.
    pub phases: u64,
    /// Full simulator metrics.
    pub stats: RunStats,
}

/// Mean metrics of one (algorithm, n) sweep cell across its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Registry name of the algorithm.
    pub algorithm: &'static str,
    /// Family size parameter.
    pub n: usize,
    /// Number of trials (seeds) aggregated.
    pub count: usize,
    /// Mean awake complexity (max over nodes).
    pub awake_max: f64,
    /// Mean run time in rounds.
    pub rounds: f64,
    /// Mean merge phases.
    pub phases: f64,
    /// Mean messages delivered.
    pub messages: f64,
}

/// A batch spec that breaks one of its validity rules: the field at
/// fault, by its serve name, and what the rule requires. Each surface
/// words it in its own terms — serve names the field, the CLI the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invalid {
    /// The spec field: `algs`, `template`, `sizes`, `seeds` or `trials`.
    pub field: &'static str,
    /// What the rule requires of it.
    pub reason: String,
}

impl Invalid {
    /// `Ok` when `holds`, else the broken rule on `field`.
    pub(crate) fn check(holds: bool, field: &'static str, reason: &str) -> Result<(), Invalid> {
        holds.then_some(()).ok_or_else(|| Invalid {
            field,
            reason: reason.to_string(),
        })
    }
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field '{}': {}", self.field, self.reason)
    }
}

/// A template sweep as plain data — the `sweep` request of the CLI and
/// the daemon alike, and the examples' ring panels: registry algorithms
/// × sizes × seeds over the graph family `template` (a graph spec with
/// `{n}` in place of the size).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Registry algorithms, in request order.
    pub algs: Vec<&'static AlgorithmSpec>,
    /// Graph spec template containing the literal `{n}`.
    pub template: String,
    /// Family sizes substituted for `{n}`.
    pub sizes: Vec<usize>,
    /// Trial seeds (graph weights and algorithm coins).
    pub seeds: Vec<u64>,
    /// Time driver for every trial (`None` = the calendar driver). All
    /// drivers are bit-identical, so results do not depend on it.
    pub executor: Option<Executor>,
    /// Send-half-step shard count per trial (`None` = serial). Shard
    /// counts are bit-identical too.
    pub shards: Option<u32>,
    /// Energy pricing model charged on every trial (`None` = no
    /// charging); a budgeted model can fail trials with the typed
    /// [`mst_core::RunError::EnergyExhausted`].
    pub energy: Option<EnergyModel>,
}

impl SweepSpec {
    /// The sweep's validity rules: at least one algorithm, a template
    /// containing `{n}`, and non-empty sizes and seeds.
    ///
    /// # Errors
    ///
    /// The first broken rule.
    pub fn validate(&self) -> Result<(), Invalid> {
        Invalid::check(
            !self.algs.is_empty(),
            "algs",
            "needs at least one algorithm",
        )?;
        Invalid::check(
            self.template.contains("{n}"),
            "template",
            &format!(
                "must contain the literal {{n}} (e.g. ring:{{n}} or random:{{n}}:0.1), got '{}'",
                self.template
            ),
        )?;
        Invalid::check(!self.sizes.is_empty(), "sizes", "needs at least one size")?;
        Invalid::check(!self.seeds.is_empty(), "seeds", "needs at least one seed")
    }

    /// Executes every (algorithm, size, seed) trial on `threads` workers
    /// (`0` = all available cores) and returns the results in grid
    /// order: algorithms outermost, then sizes, then seeds — the same
    /// order a sequential triple loop would produce. Results do not
    /// depend on `threads`.
    ///
    /// # Errors
    ///
    /// The error of the earliest failing trial in grid order (graph
    /// construction failures and [`mst_core::RunError`]s, stringified
    /// with their trial coordinates).
    pub fn run(&self, threads: usize) -> Result<Vec<TrialResult>, String> {
        let trials: Vec<(&'static AlgorithmSpec, usize, u64)> = self
            .algs
            .iter()
            .flat_map(|&alg| {
                self.sizes
                    .iter()
                    .flat_map(move |&n| self.seeds.iter().map(move |&seed| (alg, n, seed)))
            })
            .collect();

        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        }
        .min(trials.len().max(1));

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<TrialResult, String>>>> =
            trials.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One executor scratch per worker: consecutive trials
                    // on this thread reuse the wake queue, delivery arena,
                    // and stats buffers instead of reallocating them.
                    let mut scratch = MstScratch::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(alg, n, seed)) = trials.get(i) else {
                            break;
                        };
                        let outcome = self.run_trial(alg, n, seed, &mut scratch);
                        *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("trial not executed")
            })
            .collect()
    }

    fn run_trial(
        &self,
        alg: &'static AlgorithmSpec,
        n: usize,
        seed: u64,
        scratch: &mut MstScratch,
    ) -> Result<TrialResult, String> {
        let graph = generators::from_spec(&self.template.replace("{n}", &n.to_string()), seed)
            .map_err(|e| format!("graph family at n={n} seed={seed}: {e}"))?;
        let mut opts = ExecOptions::seeded(seed);
        if let Some(executor) = self.executor {
            opts = opts.with_executor(executor);
        }
        if let Some(shards) = self.shards {
            opts = opts.with_shards(shards);
        }
        if let Some(model) = self.energy {
            opts = opts.with_energy(model);
        }
        let out = alg
            .run_with_options(&graph, &opts, scratch)
            .map_err(|e| format!("{} on n={n} seed={seed}: {e}", alg.name))?;
        Ok(TrialResult {
            algorithm: alg.name,
            n,
            seed,
            nodes: graph.node_count(),
            graph_edges: graph.edge_count(),
            max_external_id: graph.max_external_id(),
            tree_edges: out.edges.len(),
            total_weight: u128::from(graph.total_weight(out.edges.iter().copied())),
            phases: out.phases,
            stats: out.stats,
        })
    }
}

/// Groups trial results into (algorithm, n) cells — in first-appearance
/// order — and averages the metrics across seeds.
pub fn aggregate(results: &[TrialResult]) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut sums: Vec<Vec<&TrialResult>> = Vec::new();
    for r in results {
        let key = cells
            .iter()
            .position(|c| c.algorithm == r.algorithm && c.n == r.n);
        match key {
            Some(i) => sums[i].push(r),
            None => {
                cells.push(Cell {
                    algorithm: r.algorithm,
                    n: r.n,
                    count: 0,
                    awake_max: 0.0,
                    rounds: 0.0,
                    phases: 0.0,
                    messages: 0.0,
                });
                sums.push(vec![r]);
            }
        }
    }
    for (cell, group) in cells.iter_mut().zip(&sums) {
        let k = group.len() as f64;
        cell.count = group.len();
        for r in group {
            cell.awake_max += r.stats.awake_max() as f64 / k;
            cell.rounds += r.stats.rounds as f64 / k;
            cell.phases += r.phases as f64 / k;
            cell.messages += r.stats.messages_delivered as f64 / k;
        }
    }
    cells
}

/// Renders aggregated cells as a markdown table with the standard columns.
pub fn render_cells(cells: &[Cell]) -> String {
    let mut s = String::from(
        "| algorithm | n | seeds | awake max | awake/log2(n) | rounds | phases | messages |\n\
         |-----------|---|-------|-----------|---------------|--------|--------|----------|\n",
    );
    for c in cells {
        let log_n = (c.n as f64).log2().max(1.0);
        s.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.2} | {:.0} | {:.1} | {:.0} |\n",
            c.algorithm,
            c.n,
            c.count,
            c.awake_max,
            c.awake_max / log_n,
            c.rounds,
            c.phases,
            c.messages,
        ));
    }
    s
}

/// Renders raw trial results as a JSON array (hand-rolled; every field is
/// a number or a registry name, so no escaping is needed).
pub fn render_json(results: &[TrialResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"algorithm\":\"{}\",\"n\":{},\"seed\":{},\"nodes\":{},\
                 \"graph_edges\":{},\"max_external_id\":{},\"tree_edges\":{},\
                 \"total_weight\":{},\"phases\":{},\"awake_max\":{},\
                 \"awake_avg\":{:.3},\"rounds\":{},\"awake_round_product\":{},\
                 \"messages_delivered\":{},\"messages_lost\":{},\
                 \"max_message_bits\":{},\"log_constant\":{}}}",
                r.algorithm,
                r.n,
                r.seed,
                r.nodes,
                r.graph_edges,
                r.max_external_id,
                r.tree_edges,
                r.total_weight,
                r.phases,
                r.stats.awake_max(),
                r.stats.awake_avg(),
                r.stats.rounds,
                r.stats.awake_round_product(),
                r.stats.messages_delivered,
                r.stats.messages_lost,
                r.stats.max_message_bits,
                r.stats.log_constant(r.nodes),
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_core::registry;

    fn ring_sweep(algs: &[&str]) -> SweepSpec {
        SweepSpec {
            algs: algs.iter().map(|a| registry::find(a).unwrap()).collect(),
            template: "ring:{n}".into(),
            sizes: vec![8, 16],
            seeds: vec![0, 1],
            executor: None,
            shards: None,
            energy: None,
        }
    }

    #[test]
    fn sweep_runs_grid_in_order() {
        let results = SweepSpec {
            seeds: vec![1, 2],
            ..ring_sweep(&["randomized", "always-awake"])
        }
        .run(1)
        .unwrap();
        let coords: Vec<(&str, usize, u64)> =
            results.iter().map(|r| (r.algorithm, r.n, r.seed)).collect();
        assert_eq!(
            coords,
            vec![
                ("randomized", 8, 1),
                ("randomized", 8, 2),
                ("randomized", 16, 1),
                ("randomized", 16, 2),
                ("always-awake", 8, 1),
                ("always-awake", 8, 2),
                ("always-awake", 16, 1),
                ("always-awake", 16, 2),
            ]
        );
        assert!(results.iter().all(|r| r.tree_edges == r.n - 1));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let spec = SweepSpec {
            sizes: vec![8, 12, 16, 24],
            seeds: vec![0, 1, 2],
            ..ring_sweep(&["randomized", "spanning-tree"])
        };
        let sequential = spec.run(1).unwrap();
        let parallel = spec.run(4).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!((a.n, a.seed), (b.n, b.seed));
            assert_eq!(
                a.stats, b.stats,
                "{} n={} seed={}",
                a.algorithm, a.n, a.seed
            );
            assert_eq!(a.tree_edges, b.tree_edges);
            assert_eq!(a.total_weight, b.total_weight);
        }
    }

    #[test]
    fn fixed_sweep_aggregates_and_renders() {
        // One seed repeated: every trial is the identical instance and run.
        let results = SweepSpec {
            sizes: vec![8],
            seeds: vec![7; 4],
            ..ring_sweep(&["randomized"])
        }
        .run(2)
        .unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.stats, results[0].stats);
        }
        let cells = aggregate(&results);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].count, 4);
        assert_eq!(cells[0].algorithm, "randomized");
        let awake = results[0].stats.awake_max() as f64;
        assert!((cells[0].awake_max - awake).abs() < 1e-9);
        let table = render_cells(&cells);
        let row = format!("| randomized | 8 | 4 | {awake:.1} | {:.2} |", awake / 3.0);
        assert!(table.contains(&row), "{table}");
        let json = render_json(&results);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"algorithm\"").count(), 4);
    }

    #[test]
    fn sweep_is_bit_identical_across_executors() {
        let build = |executor| {
            SweepSpec {
                executor: Some(executor),
                ..ring_sweep(&["randomized", "deterministic"])
            }
            .run(1)
            .unwrap()
        };
        let calendar = build(Executor::Calendar);
        for executor in [Executor::Sync, Executor::Naive] {
            let other = build(executor);
            assert_eq!(calendar.len(), other.len());
            for (a, b) in calendar.iter().zip(&other) {
                assert_eq!(a.stats, b.stats, "{executor} {} n={}", a.algorithm, a.n);
                assert_eq!(a.tree_edges, b.tree_edges);
                assert_eq!(a.total_weight, b.total_weight);
                assert_eq!(a.phases, b.phases);
            }
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_shard_counts() {
        let build = |shards| {
            SweepSpec {
                shards: Some(shards),
                ..ring_sweep(&["randomized"])
            }
            .run(1)
            .unwrap()
        };
        let serial = build(1);
        for shards in [2, 4] {
            let sharded = build(shards);
            assert_eq!(serial.len(), sharded.len());
            for (a, b) in serial.iter().zip(&sharded) {
                assert_eq!(
                    a.stats, b.stats,
                    "shards={shards} {} n={}",
                    a.algorithm, a.n
                );
                assert_eq!(a.tree_edges, b.tree_edges);
                assert_eq!(a.total_weight, b.total_weight);
                assert_eq!(a.phases, b.phases);
            }
        }
    }

    #[test]
    fn failing_trial_reports_grid_coordinates() {
        let err = SweepSpec {
            sizes: vec![2], // rings need n >= 3
            seeds: vec![0],
            ..ring_sweep(&["randomized"])
        }
        .run(1)
        .unwrap_err();
        assert!(err.contains("n=2"), "{err}");
    }

    #[test]
    fn run_error_surfaces_with_grid_coordinates() {
        let err = SweepSpec {
            sizes: vec![8],
            seeds: vec![3],
            energy: Some(EnergyModel::reference().with_budget(1)),
            ..ring_sweep(&["randomized"])
        }
        .run(1)
        .unwrap_err();
        for part in ["randomized", "n=8", "seed=3"] {
            assert!(err.contains(part), "{part} missing from {err}");
        }
    }
}
