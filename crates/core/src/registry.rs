//! The algorithm registry: every runnable MST algorithm in one table.
//!
//! [`AlgorithmSpec`] is the single source of truth for algorithm names,
//! descriptions, input requirements, and the protocol [`Family`] each row
//! runs, and the one public way to run an algorithm: [`AlgorithmSpec::run`],
//! [`AlgorithmSpec::run_with_options`], and the conformance-checked
//! [`AlgorithmSpec::check`]. The CLI, the benchmark bins, and the sweep
//! harness all resolve algorithms through [`find`] / [`ALGORITHMS`]
//! instead of keeping their own name→function match arms.
//!
//! ```
//! use graphlib::generators;
//! use mst_core::registry;
//!
//! let spec = registry::find("randomized").unwrap();
//! let g = generators::ring(16, 1)?;
//! let out = spec.run(&g, 7)?;
//! assert_eq!(out.edges.len(), 15);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use graphlib::{mst, EdgeId, UnionFind, WeightedGraph};
use netsim::{Metrics, NodeCtx, PhaseSpan, PhaseTotals, Round};

use crate::baseline::{ghs_always_awake, GhsAlwaysAwake};
use crate::deterministic::{ColoringMode, DeterministicConfig, DeterministicMst};
use crate::exec::{round_budget, run_caught, ExecOptions};
use crate::prim::PrimMst;
use crate::randomized::{EdgeSelection, RandomizedConfig, RandomizedMst};
use crate::runner::{execute, Hooks, Mode, MstOutcome, MstScratch, RunError};
use crate::{deterministic, prim, randomized};

/// The protocol family a registry row runs, with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `Randomized-MST` (Section 2.2); [`EdgeSelection::MinPort`] gives
    /// the spanning-tree variant.
    Randomized(RandomizedConfig),
    /// `Deterministic-MST` (Section 2.3); [`ColoringMode::ColeVishkin`]
    /// gives the Corollary 1 log* variant.
    Deterministic(DeterministicConfig),
    /// The Prim-style sequential baseline grown from the node with
    /// external id `leader`.
    Prim {
        /// External id of the node whose fragment absorbs the others.
        leader: u64,
    },
    /// The always-awake GHS baseline (traditional-model cost profile).
    AlwaysAwake,
}

/// One registered algorithm: metadata plus a uniform entry point.
///
/// Every field is public, so a caller can run a row's protocol family
/// under another configuration with struct-update syntax
/// (`AlgorithmSpec { family, ..*spec }`), as the ablation bins do.
/// Deterministic algorithms simply ignore the seed (see
/// [`AlgorithmSpec::needs_seed`]).
#[derive(Clone, Copy)]
pub struct AlgorithmSpec {
    /// Stable name used by the CLI (`--alg`), sweeps, and reports.
    pub name: &'static str,
    /// One-line description with the paper's complexity bounds.
    pub description: &'static str,
    /// Whether the run consumes randomness (`false` = the seed argument is
    /// ignored and repeated runs are identical).
    pub needs_seed: bool,
    /// Whether the algorithm refuses disconnected inputs
    /// ([`RunError::Disconnected`]).
    pub needs_connected: bool,
    /// `true` if the output is the (unique) minimum spanning tree/forest
    /// rather than just some spanning tree.
    pub produces_mst: bool,
    /// The algorithm's CONGEST constant `C`: the conformance checker holds
    /// every message to `C·⌈log₂ n⌉` bits. The values are measured ceilings
    /// with headroom (see `EXPERIMENTS.md`, "Message-width constants");
    /// they are dominated by the `⌈log₂ W⌉ ≈ ⌈log₂ 64n³⌉` weight field at
    /// small `n`, which is why none of them is a tight `O(1)`.
    pub congest_constant: u64,
    /// Maps `(n, max_external_id, round)` to the algorithm's logical phase
    /// label for that round — the observability plane's bridge from raw
    /// [`RoundReport`](netsim::RoundReport) streams to the block structure
    /// of Figures 2–5. Total: rounds outside the schedule label as
    /// `"out-of-schedule"`, round 0 as `"init"`. Prefer the
    /// [`AlgorithmSpec::phase_spans`] / [`AlgorithmSpec::phase_totals`]
    /// helpers, which feed it the right graph parameters.
    pub label_round: fn(usize, u64, Round) -> &'static str,
    /// The protocol family this row runs, and its configuration.
    pub family: Family,
}

/// Specs are equal iff they are the same registry entry (names are
/// unique in [`ALGORITHMS`]).
impl PartialEq for AlgorithmSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for AlgorithmSpec {}

impl std::fmt::Debug for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmSpec")
            .field("name", &self.name)
            .field("needs_seed", &self.needs_seed)
            .field("needs_connected", &self.needs_connected)
            .field("produces_mst", &self.produces_mst)
            .finish_non_exhaustive()
    }
}

fn always_awake_ports(s: &GhsAlwaysAwake) -> &[bool] {
    s.inner().mst_ports()
}

fn always_awake_phases(s: &GhsAlwaysAwake) -> u64 {
    s.inner().phases()
}

impl AlgorithmSpec {
    /// Runs the algorithm on `graph` with `seed`.
    ///
    /// Allocates a fresh [`MstScratch`] for the run; batch callers should
    /// use [`AlgorithmSpec::run_with_options`] with one scratch per worker
    /// thread to amortize that.
    ///
    /// # Errors
    ///
    /// As [`AlgorithmSpec::run_with_options`].
    pub fn run(&self, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
        self.run_with_options(graph, &ExecOptions::seeded(seed), &mut MstScratch::new())
    }

    /// Runs the algorithm under explicit [`ExecOptions`], reusing a
    /// caller-provided executor scratch.
    ///
    /// The scratch is reset internally, so any [`MstScratch`] can be
    /// threaded through consecutive runs of *different* algorithms and
    /// graphs; keep one per worker thread. When the run is lossy
    /// ([`ExecOptions::lossy`]: an active fault plan, an energy budget
    /// under an active model, or a non-identity wake policy), two
    /// safeguards engage:
    ///
    /// * a **round-budget watchdog** — unless the caller set an explicit
    ///   budget, [`round_budget`] caps the run so livelock (a protocol
    ///   re-scheduling wakes forever for a signal a drop, crash, or
    ///   energy-exhausted peer destroyed) surfaces as
    ///   [`netsim::SimError::MaxRoundsExceeded`], never a hang;
    /// * **panic capture** — a protocol invariant tripped by a lost
    ///   coordination message becomes [`RunError::Panicked`] instead of
    ///   aborting the process.
    ///
    /// # Errors
    ///
    /// [`RunError::Disconnected`] on a disconnected input when
    /// [`AlgorithmSpec::needs_connected`]; simulator failures and
    /// output-consistency violations; on lossy runs also
    /// [`RunError::Panicked`], [`RunError::Degraded`] and watchdog-capped
    /// simulator errors.
    pub fn run_with_options(
        &self,
        graph: &WeightedGraph,
        opts: &ExecOptions,
        scratch: &mut MstScratch,
    ) -> Result<MstOutcome, RunError> {
        if !opts.lossy() {
            return self.execute(graph, opts, Mode::Plain(scratch));
        }
        let mut opts = opts.clone();
        if opts.max_rounds.is_none() {
            // Budget-only runs (no fault plan) size the watchdog off the
            // calm plan — no jitter or sleep stretch applies.
            let plan = opts.active_faults().cloned().unwrap_or_default();
            opts.max_rounds = Some(round_budget(graph.node_count(), &plan));
        }
        run_caught(|| self.execute(graph, &opts, Mode::Plain(scratch)))
    }

    /// Hands this row's protocol family to the one execution path.
    fn execute(
        &self,
        graph: &WeightedGraph,
        opts: &ExecOptions,
        mode: Mode<'_>,
    ) -> Result<MstOutcome, RunError> {
        let refuse = self.needs_connected.then_some(self.name);
        match self.family {
            Family::Randomized(config) => execute(
                graph,
                opts,
                mode,
                refuse,
                Hooks {
                    factory: |ctx: &NodeCtx| RandomizedMst::with_config(ctx, config),
                    ports: RandomizedMst::mst_ports,
                    phases: RandomizedMst::phases,
                },
            ),
            Family::Deterministic(config) => execute(
                graph,
                opts,
                mode,
                refuse,
                Hooks {
                    factory: |ctx: &NodeCtx| DeterministicMst::with_config(ctx, config),
                    ports: DeterministicMst::mst_ports,
                    phases: DeterministicMst::phases,
                },
            ),
            Family::Prim { leader } => execute(
                graph,
                opts,
                mode,
                refuse,
                Hooks {
                    factory: |ctx: &NodeCtx| PrimMst::new(ctx, leader),
                    ports: PrimMst::mst_ports,
                    phases: PrimMst::phases,
                },
            ),
            Family::AlwaysAwake => execute(
                graph,
                opts,
                mode,
                refuse,
                Hooks {
                    factory: ghs_always_awake,
                    ports: always_awake_ports,
                    phases: always_awake_phases,
                },
            ),
        }
    }

    /// Folds a recorded [`Metrics`] stream into chronological
    /// [`PhaseSpan`]s under this algorithm's round labeling on `graph`
    /// (the labeler needs the node count and id bound to reconstruct the
    /// block timeline).
    pub fn phase_spans(&self, graph: &WeightedGraph, metrics: &Metrics) -> Vec<PhaseSpan> {
        let n = graph.node_count();
        let id_bound = graph.max_external_id();
        metrics.phase_spans(|round| (self.label_round)(n, id_bound, round))
    }

    /// Whole-run per-phase totals under this algorithm's round labeling on
    /// `graph` — the per-phase awake breakdown of the Table-1 report.
    pub fn phase_totals(&self, graph: &WeightedGraph, metrics: &Metrics) -> Vec<PhaseTotals> {
        let n = graph.node_count();
        let id_bound = graph.max_external_id();
        metrics.phase_totals(|round| (self.label_round)(n, id_bound, round))
    }

    /// The per-message bit budget the conformance checker enforces for this
    /// algorithm on an `n`-node graph: `congest_constant · ⌈log₂ n⌉`.
    pub fn bit_budget(&self, n: usize) -> usize {
        self.congest_constant as usize * netsim::bits_for_range(n.max(2) as u64)
    }

    /// Runs the algorithm under the model-conformance checker
    /// ([`netsim::ValidatingExecutor`]): tracing forced on, every message
    /// held to [`AlgorithmSpec::bit_budget`], the full trace audited
    /// against the Section 1.1 rules, and the run repeated with the same
    /// seed to prove determinism. Roughly 2× the cost of
    /// [`AlgorithmSpec::run`] plus tracing overhead.
    ///
    /// # Errors
    ///
    /// [`RunError::Model`] listing the violated rules, or any error the
    /// plain run path can produce.
    pub fn check(&self, graph: &WeightedGraph, seed: u64) -> Result<ModelCheck, RunError> {
        let mode = Mode::Checked {
            congest_constant: self.congest_constant,
        };
        let outcome = self.execute(graph, &ExecOptions::seeded(seed), mode)?;
        let n = graph.node_count();
        Ok(ModelCheck {
            algorithm: self.name,
            n,
            bit_budget: self.bit_budget(n),
            max_message_bits: outcome.stats.max_message_bits,
            log_constant: outcome.stats.log_constant(n),
            outcome,
        })
    }

    /// Checks an output edge set against the reference answer: Kruskal's
    /// minimum spanning forest when the row
    /// [`produces_mst`](AlgorithmSpec::produces_mst), otherwise any
    /// spanning forest with one tree per component of `graph`.
    ///
    /// # Errors
    ///
    /// Describes how `edges` differs from the reference.
    pub fn verify(&self, graph: &WeightedGraph, edges: &[EdgeId]) -> Result<(), String> {
        let n = graph.node_count();
        if self.produces_mst {
            let reference = mst::kruskal(graph);
            if edges == reference.edges.as_slice() {
                return Ok(());
            }
            return Err(format!(
                "edge set differs from the reference MST ({} vs {} edges, weight {} vs {})",
                edges.len(),
                reference.edges.len(),
                graph.total_weight(edges.iter().copied()),
                reference.total_weight
            ));
        }
        let mut forest = UnionFind::new(n);
        for &e in edges {
            let edge = graph.edge(e);
            if !forest.union(edge.u.index(), edge.v.index()) {
                return Err(format!("edge {e} closes a cycle"));
            }
        }
        let mut components = UnionFind::new(n);
        for e in graph.edges() {
            components.union(e.u.index(), e.v.index());
        }
        if forest.set_count() == components.set_count() {
            Ok(())
        } else {
            Err(format!(
                "output has {} trees, graph has {} components",
                forest.set_count(),
                components.set_count()
            ))
        }
    }
}

/// The report of a passed conformance check (a failed one is a
/// [`RunError::Model`] listing the violations).
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// Registry name of the checked algorithm.
    pub algorithm: &'static str,
    /// Node count of the checked graph.
    pub n: usize,
    /// The enforced per-message budget, in bits.
    pub bit_budget: usize,
    /// Largest message actually observed, in bits.
    pub max_message_bits: u64,
    /// Observed CONGEST constant `⌈max_message_bits / ⌈log₂ n⌉⌉`.
    pub log_constant: u64,
    /// The validated run's ordinary outcome.
    pub outcome: MstOutcome,
}

/// Every algorithm the workspace can execute, in presentation order.
pub const ALGORITHMS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        name: "randomized",
        description: "O(log n) awake, O(n log n) rounds (paper, Section 2.2)",
        needs_seed: true,
        needs_connected: false,
        produces_mst: true,
        congest_constant: 14,
        label_round: |n, _id, r| randomized::phase_label(n, r),
        family: Family::Randomized(RandomizedConfig::PAPER),
    },
    AlgorithmSpec {
        name: "deterministic",
        description: "O(log n) awake, O(n N log n) rounds (paper, Section 2.3)",
        needs_seed: false,
        needs_connected: false,
        produces_mst: true,
        congest_constant: 14,
        label_round: |n, id_bound, r| {
            deterministic::phase_label(n, id_bound, ColoringMode::FastAwake, r)
        },
        family: Family::Deterministic(DeterministicConfig::PAPER),
    },
    AlgorithmSpec {
        name: "logstar",
        description: "O(log n log* n) awake (paper, Corollary 1)",
        needs_seed: false,
        needs_connected: false,
        produces_mst: true,
        congest_constant: 14,
        label_round: |n, id_bound, r| {
            deterministic::phase_label(n, id_bound, ColoringMode::ColeVishkin, r)
        },
        family: Family::Deterministic(DeterministicConfig {
            coloring: ColoringMode::ColeVishkin,
            ..DeterministicConfig::PAPER
        }),
    },
    AlgorithmSpec {
        name: "prim",
        description: "sequential baseline, Θ(n) awake",
        needs_seed: false,
        needs_connected: true,
        produces_mst: true,
        congest_constant: 14,
        label_round: |n, _id, r| prim::phase_label(n, r),
        family: Family::Prim { leader: 1 },
    },
    AlgorithmSpec {
        name: "spanning-tree",
        description: "arbitrary spanning tree, O(log n) awake",
        needs_seed: true,
        needs_connected: false,
        produces_mst: false,
        congest_constant: 14,
        label_round: |n, _id, r| randomized::phase_label(n, r),
        family: Family::Randomized(RandomizedConfig {
            selection: EdgeSelection::MinPort,
            ..RandomizedConfig::PAPER
        }),
    },
    AlgorithmSpec {
        name: "always-awake",
        description: "traditional-model GHS baseline, awake = rounds",
        needs_seed: true,
        needs_connected: false,
        produces_mst: true,
        congest_constant: 14,
        label_round: |n, _id, r| randomized::phase_label(n, r),
        family: Family::AlwaysAwake,
    },
];

/// Looks up an algorithm by its registry name.
pub fn find(name: &str) -> Option<&'static AlgorithmSpec> {
    ALGORITHMS.iter().find(|a| a.name == name)
}

/// All registry names, comma-separated — for error messages and usage text.
pub fn names() -> String {
    ALGORITHMS
        .iter()
        .map(|a| a.name)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::{generators, GraphBuilder};

    #[test]
    fn registry_has_all_six_unique_names() {
        assert_eq!(ALGORITHMS.len(), 6);
        let uniq: std::collections::BTreeSet<&str> = ALGORITHMS.iter().map(|a| a.name).collect();
        assert_eq!(uniq.len(), 6);
        assert!(names().contains("randomized"));
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert_eq!(find("prim").unwrap().name, "prim");
        assert!(find("prim").unwrap().needs_connected);
        assert!(find("bogus").is_none());
    }

    #[test]
    fn verify_accepts_real_outputs_and_rejects_wrong_ones() {
        let g = generators::random_connected(14, 0.25, 6).unwrap();
        for spec in ALGORITHMS {
            let out = spec.run(&g, 3).unwrap();
            spec.verify(&g, &out.edges)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
        let mst_alg = find("randomized").unwrap();
        let tree_alg = find("spanning-tree").unwrap();
        let tree = mst::kruskal(&g).edges;
        let spare = (0..g.edge_count() as u32)
            .map(EdgeId::new)
            .find(|e| !tree.contains(e))
            .expect("a non-tree edge");

        // An MST with one edge swapped for a non-tree edge.
        let mut swapped = tree.clone();
        swapped[0] = spare;
        swapped.sort_unstable();
        let err = mst_alg.verify(&g, &swapped).unwrap_err();
        assert!(err.contains("reference MST"), "{err}");

        // A spanning-tree output that closes a cycle.
        let mut cyclic = tree.clone();
        cyclic.push(spare);
        let err = tree_alg.verify(&g, &cyclic).unwrap_err();
        assert!(err.contains("closes a cycle"), "{err}");

        // A forest that misses one of the graph's two components.
        let two = GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(2, 3, 2)
            .build()
            .unwrap();
        tree_alg
            .verify(&two, &[EdgeId::new(0), EdgeId::new(1)])
            .unwrap();
        let err = tree_alg.verify(&two, &[EdgeId::new(0)]).unwrap_err();
        assert!(err.contains("3 trees, graph has 2 components"), "{err}");
    }

    #[test]
    fn every_mst_algorithm_matches_kruskal_via_registry() {
        let g = generators::random_connected(14, 0.25, 6).unwrap();
        let reference = mst::kruskal(&g).edges;
        for spec in ALGORITHMS {
            let out = spec
                .run(&g, 3)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            if spec.produces_mst {
                assert_eq!(out.edges, reference, "{}", spec.name);
            } else {
                assert_eq!(out.edges.len(), 13, "{}", spec.name);
            }
        }
    }

    #[test]
    fn one_scratch_reused_across_all_algorithms_matches_fresh_runs() {
        // A single pool threaded through all six algorithms (different
        // message choreographies, graph reused) must leave no residue:
        // every pooled run equals the allocate-fresh run bit for bit.
        let g = generators::random_connected(14, 0.25, 6).unwrap();
        let mut scratch = MstScratch::new();
        for spec in ALGORITHMS {
            let pooled = spec
                .run_with_options(&g, &ExecOptions::seeded(3), &mut scratch)
                .unwrap();
            let fresh = spec.run(&g, 3).unwrap();
            assert_eq!(pooled.edges, fresh.edges, "{}", spec.name);
            assert_eq!(pooled.stats, fresh.stats, "{}", spec.name);
            assert_eq!(pooled.phases, fresh.phases, "{}", spec.name);
        }
    }

    #[test]
    fn every_algorithm_passes_the_model_check() {
        let g = generators::random_connected(12, 0.3, 5).unwrap();
        for spec in ALGORITHMS {
            let check = spec
                .check(&g, 4)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(check.algorithm, spec.name);
            assert!(check.max_message_bits > 0, "{}", spec.name);
            assert!(
                check.max_message_bits <= check.bit_budget as u64,
                "{}: {} bits over the {}-bit budget",
                spec.name,
                check.max_message_bits,
                check.bit_budget
            );
            assert!(check.log_constant <= spec.congest_constant, "{}", spec.name);
            // The validated run produces the same answer as the plain one.
            let plain = spec.run(&g, 4).unwrap();
            assert_eq!(check.outcome.edges, plain.edges, "{}", spec.name);
        }
    }

    #[test]
    fn check_reports_budget_for_the_graph_size() {
        let spec = find("randomized").unwrap();
        // ⌈log₂ 12⌉ = 4.
        assert_eq!(spec.bit_budget(12), spec.congest_constant as usize * 4);
    }

    #[test]
    fn seedless_algorithms_ignore_the_seed() {
        // The checked path hands every family the seed, so it must not
        // move a seedless algorithm's result either.
        let g = generators::random_connected(12, 0.3, 2).unwrap();
        for spec in ALGORITHMS.iter().filter(|a| !a.needs_seed) {
            let a = spec.run(&g, 1).unwrap();
            let b = spec.run(&g, 99).unwrap();
            assert_eq!(a.edges, b.edges, "{}", spec.name);
            assert_eq!(a.stats, b.stats, "{}", spec.name);
            let a = spec.check(&g, 1).unwrap().outcome;
            let b = spec.check(&g, 99).unwrap().outcome;
            assert_eq!(a.edges, b.edges, "{}", spec.name);
            assert_eq!(a.stats, b.stats, "{}", spec.name);
        }
    }

    #[test]
    fn only_connected_algorithms_refuse_disconnected_graphs() {
        let g = graphlib::GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(2, 3, 2)
            .build()
            .unwrap();
        let refused = |spec: &AlgorithmSpec, result: Result<MstOutcome, RunError>| match result {
            Err(err @ RunError::Disconnected { algorithm }) => {
                assert_eq!(algorithm, spec.name);
                assert!(err.to_string().contains("connected"), "{err}");
                true
            }
            Err(other) => panic!("{}: {other}", spec.name),
            Ok(_) => false,
        };
        let mut scratch = MstScratch::new();
        for spec in ALGORITHMS {
            let plain = spec.run_with_options(&g, &ExecOptions::seeded(5), &mut scratch);
            let checked = spec.check(&g, 5).map(|c| c.outcome);
            for result in [plain, checked] {
                assert_eq!(refused(spec, result), spec.needs_connected, "{}", spec.name);
            }
        }
    }
}
