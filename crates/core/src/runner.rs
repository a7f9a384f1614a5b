//! What one distributed MST execution produces and how it can fail, plus
//! the one execution path behind the [`registry`](crate::registry).
//!
//! Callers run algorithms through
//! [`AlgorithmSpec`](crate::registry::AlgorithmSpec) (`run`,
//! `run_with_options`, `check`); every one of those lands in the
//! crate-private `execute`, which checks connectivity, simulates (plainly
//! or under the [`ValidatingExecutor`]), gates lossy runs, and collects
//! the [`MstOutcome`]. This module keeps the types those calls share:
//! [`MstOutcome`], [`MstScratch`], [`RunError`] with its wire codes, and
//! [`collect_mst_edges`] with its [`MstCollectError`].

use std::fmt;

use graphlib::{EdgeId, NodeId, Port, WeightedGraph};
use netsim::{
    ExecutorScratch, NodeCtx, Protocol, Round, RunStats, SimError, Simulator, ValidateError,
    ValidatingExecutor, Violation,
};

use crate::exec::ExecOptions;
use crate::msg::MstMsg;

/// Reusable executor scratch for every registry algorithm.
///
/// All six algorithms exchange [`MstMsg`] payloads, so one pool serves
/// them all: allocate once per worker thread, pass it to
/// [`AlgorithmSpec::run_with_options`](crate::registry::AlgorithmSpec::run_with_options),
/// and consecutive runs reuse the executor's wake queue, delivery arena,
/// and stats buffers instead of reallocating them per run.
pub type MstScratch = ExecutorScratch<MstMsg>;

/// The result of one distributed MST execution.
#[derive(Debug, Clone)]
pub struct MstOutcome {
    /// MST edge ids, sorted ascending. For a connected graph this is the
    /// unique MST; for a disconnected one, the minimum spanning forest.
    pub edges: Vec<EdgeId>,
    /// Simulator metrics: awake complexity, run time, messages, bits.
    pub stats: RunStats,
    /// Merge phases completed (max over nodes).
    pub phases: u64,
    /// Per-round telemetry (empty unless the run was configured with
    /// [`ExecOptions::with_metrics`](crate::ExecOptions::with_metrics)).
    pub metrics: netsim::Metrics,
}

/// The two endpoints of an edge disagree about its MST membership — an
/// algorithm bug surfaced by [`collect_mst_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstCollectError {
    /// The edge one endpoint marked as an MST edge.
    pub edge: EdgeId,
    /// The endpoint that does *not* mark it.
    pub endpoint: NodeId,
}

impl fmt::Display for MstCollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inconsistent MST output: endpoint {} does not mark edge {} \
             although its neighbor does",
            self.endpoint, self.edge
        )
    }
}

impl std::error::Error for MstCollectError {}

/// Everything that can go wrong in a registry run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The simulator rejected the execution (bad port, bit budget, …).
    Sim(SimError),
    /// The per-node outputs do not assemble into a consistent edge set.
    Collect(MstCollectError),
    /// The algorithm requires a connected input graph.
    Disconnected {
        /// Registry name of the algorithm that was refused.
        algorithm: &'static str,
    },
    /// The run broke one or more sleeping-model rules (Section 1.1) —
    /// reported by the validating executor on the checked path.
    Model(Vec<Violation>),
    /// The protocol panicked mid-run — driven outside its design
    /// envelope by injected faults (see [`crate::exec::run_caught`]) and
    /// converted into a typed, classifiable failure.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The run completed under injected faults, but the collected output
    /// is not a spanning forest of the input (nodes halted before
    /// marking their tree edges, or marked a cycle). Surfaced as a typed
    /// error so fault harnesses never mistake degradation for an answer;
    /// checked only when the run's fault plan is active.
    Degraded {
        /// Edges in the claimed output.
        edges: usize,
        /// Trees the output's acyclic part forms.
        output_trees: usize,
        /// Connected components of the input graph.
        graph_components: usize,
    },
    /// A node spent past its energy budget
    /// ([`netsim::EnergyModel::budget`]) and was forced asleep
    /// permanently. Promoted from [`netsim::SimError::EnergyExhausted`]
    /// to a first-class run-layer error so chaos harnesses classify
    /// energy starvation apart from other simulator failures. Carries
    /// the run's *first* exhaustion, adjudicated in serial node order —
    /// identical across drivers and shard counts.
    EnergyExhausted {
        /// The first node to exhaust its budget.
        node: NodeId,
        /// The round its ledger went past the budget.
        round: Round,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Collect(e) => write!(f, "{e}"),
            RunError::Disconnected { algorithm } => write!(
                f,
                "algorithm '{algorithm}' requires a connected graph \
                 (non-leader components would never terminate)"
            ),
            RunError::Model(violations) => {
                write!(f, "{} sleeping-model violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            RunError::Panicked { message } => {
                write!(f, "protocol panicked under injected faults: {message}")
            }
            RunError::Degraded {
                edges,
                output_trees,
                graph_components,
            } => write!(
                f,
                "degraded output under injected faults: {edges} edges forming \
                 {output_trees} tree(s) on a graph with {graph_components} component(s)"
            ),
            RunError::EnergyExhausted { node, round } => write!(
                f,
                "node {node} exhausted its energy budget in round {round}; \
                 the run cannot complete without it"
            ),
        }
    }
}

/// Every stable [`RunError`] wire code: the six run-layer codes plus
/// the embedded [`netsim::SIM_ERROR_CODES`] namespace. Frozen vocabulary
/// — service responses embed these, so renaming one is a wire break the
/// round-trip tests catch.
pub const RUN_ERROR_CODES: &[&str] = &[
    "run.collect",
    "run.disconnected",
    "run.model",
    "run.panicked",
    "run.degraded",
    "run.energy-exhausted",
];

/// Resolves a wire code back to its canonical `&'static str` — either a
/// run-layer code from [`RUN_ERROR_CODES`] or a simulator code from
/// [`netsim::SIM_ERROR_CODES`] — or `None` for unknown codes.
pub fn parse_run_code(code: &str) -> Option<&'static str> {
    RUN_ERROR_CODES
        .iter()
        .copied()
        .find(|&c| c == code)
        .or_else(|| netsim::parse_sim_code(code))
}

impl RunError {
    /// The stable, machine-readable wire code for this error — the typed
    /// `"code"` field of a service error response. Simulator errors keep
    /// their own `sim.*` namespace ([`SimError::to_json_code`]); the
    /// run-layer variants use `run.*`. Per-instance detail stays in
    /// [`fmt::Display`]; the code never changes spelling.
    pub fn to_json_code(&self) -> &'static str {
        match self {
            RunError::Sim(e) => e.to_json_code(),
            RunError::Collect(_) => "run.collect",
            RunError::Disconnected { .. } => "run.disconnected",
            RunError::Model(_) => "run.model",
            RunError::Panicked { .. } => "run.panicked",
            RunError::Degraded { .. } => "run.degraded",
            RunError::EnergyExhausted { .. } => "run.energy-exhausted",
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::Collect(e) => Some(e),
            RunError::Disconnected { .. }
            | RunError::Model(_)
            | RunError::Panicked { .. }
            | RunError::Degraded { .. }
            | RunError::EnergyExhausted { .. } => None,
        }
    }
}

impl From<ValidateError> for RunError {
    fn from(e: ValidateError) -> Self {
        match e {
            ValidateError::Sim(s) => s.into(),
            ValidateError::Model(v) => RunError::Model(v),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        match e {
            // Energy exhaustion is promoted to its own run-layer variant
            // (and wire code) so harnesses classify starvation apart from
            // other simulator failures.
            SimError::EnergyExhausted { node, round } => RunError::EnergyExhausted { node, round },
            other => RunError::Sim(other),
        }
    }
}

impl From<MstCollectError> for RunError {
    fn from(e: MstCollectError) -> Self {
        RunError::Collect(e)
    }
}

/// Collects the distributed output ("every node knows which of its
/// incident edges are in the MST") into a global edge set, checking that
/// the two endpoints of every edge agree.
///
/// # Errors
///
/// Returns [`MstCollectError`] naming the first edge whose endpoints
/// disagree — that would be an algorithm bug, not an input condition.
pub fn collect_mst_edges<P>(
    graph: &WeightedGraph,
    states: &[P],
    ports_of: impl Fn(&P) -> &[bool],
) -> Result<Vec<EdgeId>, MstCollectError> {
    let mut marked = vec![false; graph.edge_count()];
    for v in graph.nodes() {
        for (i, &m) in ports_of(&states[v.index()]).iter().enumerate() {
            if m {
                let entry = graph.port_entry(v, Port::new(i as u32));
                marked[entry.edge.index()] = true;
            }
        }
    }
    // Endpoint agreement.
    for (idx, &m) in marked.iter().enumerate() {
        if m {
            let e = graph.edge(EdgeId::new(idx as u32));
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let p = graph.port_to(a, b).expect("edge endpoints adjacent");
                if !ports_of(&states[a.index()])[p.index()] {
                    return Err(MstCollectError {
                        edge: EdgeId::new(idx as u32),
                        endpoint: a,
                    });
                }
            }
        }
    }
    Ok(marked
        .iter()
        .enumerate()
        .filter(|&(_i, &m)| m)
        .map(|(i, &_m)| EdgeId::new(i as u32))
        .collect())
}

/// How [`execute`] simulates a run.
pub(crate) enum Mode<'a> {
    /// The plain [`Simulator`], reusing the caller's executor scratch.
    Plain(&'a mut MstScratch),
    /// The [`ValidatingExecutor`]: tracing forced on, every message held
    /// to `congest_constant·⌈log₂ n⌉` bits, the trace audited against the
    /// Section 1.1 rules, and the run repeated to prove determinism.
    /// Slower than the plain path, so it backs `AlgorithmSpec::check`, not
    /// the benchmarks.
    Checked {
        /// The algorithm's CONGEST constant `C`.
        congest_constant: u64,
    },
}

/// One protocol family's per-node hooks: how to construct a node's
/// protocol, and where a finished node keeps its MST port marks and its
/// merge-phase counter.
pub(crate) struct Hooks<P, F> {
    /// Builds a node's protocol instance from its context.
    pub(crate) factory: F,
    /// The node's per-port MST marks.
    pub(crate) ports: fn(&P) -> &[bool],
    /// The node's completed merge phases.
    pub(crate) phases: fn(&P) -> u64,
}

/// The one execution path every registry run takes: refuse a
/// disconnected input when `refuse_disconnected` names the algorithm,
/// simulate under the options' config in `mode`, collect the marked ports
/// into an edge set, apply the spanning-forest gate to lossy runs, and
/// take the phase maximum.
pub(crate) fn execute<P, F>(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    mode: Mode<'_>,
    refuse_disconnected: Option<&'static str>,
    hooks: Hooks<P, F>,
) -> Result<MstOutcome, RunError>
where
    P: Protocol<Msg = MstMsg>,
    F: FnMut(&NodeCtx) -> P,
{
    if let Some(algorithm) = refuse_disconnected {
        if !graphlib::traversal::is_connected(graph) {
            return Err(RunError::Disconnected { algorithm });
        }
    }
    let config = opts.sim_config();
    let out = match mode {
        Mode::Plain(scratch) => {
            Simulator::new(graph, config).run_with_scratch(scratch, hooks.factory)?
        }
        Mode::Checked { congest_constant } => ValidatingExecutor::new(graph, config)
            .with_congest_constant(congest_constant)
            .run(hooks.factory)?,
    };
    let edges = collect_mst_edges(graph, &out.states, hooks.ports)?;
    // Lossy runs (active faults, or an energy budget that can force nodes
    // asleep) must not pass off partial forests as answers.
    if opts.lossy() {
        check_spanning_forest(graph, &edges)?;
    }
    let phases = out.states.iter().map(hooks.phases).max().unwrap_or(0);
    Ok(MstOutcome {
        edges,
        stats: out.stats,
        phases,
        metrics: out.metrics,
    })
}

/// The degradation gate for fault-injected runs: a completed run's output
/// must still be a spanning forest of the input (one tree per connected
/// component, no cycles), else the "success" is a fault artifact —
/// reported as [`RunError::Degraded`]. Only minimality remains for the
/// caller to judge; partial or cyclic outputs never pass.
fn check_spanning_forest(graph: &WeightedGraph, edges: &[EdgeId]) -> Result<(), RunError> {
    let n = graph.node_count();
    let mut output = graphlib::UnionFind::new(n);
    for &id in edges {
        let e = graph.edge(id);
        output.union(e.u.index(), e.v.index());
    }
    let mut components = graphlib::UnionFind::new(n);
    for e in graph.edges() {
        components.union(e.u.index(), e.v.index());
    }
    // A forest satisfies edges + trees = n; a cycle or a missed component
    // breaks one of the two equalities.
    if edges.len() + output.set_count() != n || output.set_count() != components.set_count() {
        return Err(RunError::Degraded {
            edges: edges.len(),
            output_trees: output.set_count(),
            graph_components: components.set_count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::{generators, mst};

    fn run(name: &str, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
        crate::registry::find(name).unwrap().run(graph, seed)
    }

    #[test]
    fn randomized_run_matches_kruskal() {
        let g = generators::random_connected(26, 0.15, 4).unwrap();
        let out = run("randomized", &g, 9).unwrap();
        assert_eq!(out.edges, mst::kruskal(&g).edges);
        assert!(out.phases >= 1);
        assert!(out.stats.rounds > 0);
    }

    #[test]
    fn outcome_total_weight_matches_reference() {
        let g = generators::complete(12, 8).unwrap();
        let out = run("randomized", &g, 2).unwrap();
        assert_eq!(
            g.total_weight(out.edges.iter().copied()),
            mst::kruskal(&g).total_weight
        );
    }

    #[test]
    fn spanning_tree_variant_spans_but_is_not_minimum() {
        let g = generators::complete(14, 3).unwrap();
        let st = run("spanning-tree", &g, 5).unwrap();
        // It is a spanning tree…
        assert_eq!(st.edges.len(), 13);
        let mut uf = graphlib::UnionFind::new(14);
        for &e in &st.edges {
            let edge = g.edge(e);
            assert!(uf.union(edge.u.index(), edge.v.index()), "cycle in output");
        }
        assert_eq!(uf.set_count(), 1);
        // …but (on a complete graph with random weights) almost surely not
        // the minimum one.
        let reference = mst::kruskal(&g);
        assert!(
            g.total_weight(st.edges.iter().copied()) > reference.total_weight,
            "min-port tree accidentally minimal; change the seed"
        );
    }

    #[test]
    fn spanning_tree_variant_keeps_awake_logarithmic() {
        let g = generators::random_connected(64, 0.1, 4).unwrap();
        let st = run("spanning-tree", &g, 1).unwrap();
        assert_eq!(st.edges.len(), 63);
        assert!((st.stats.awake_max() as f64) < 60.0 * (64f64).log2());
    }

    #[test]
    fn collect_reports_endpoint_disagreement() {
        // Two nodes, one edge; only node 0 marks its port.
        struct Half(Vec<bool>);
        let g = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 1)
            .build()
            .unwrap();
        let states = vec![Half(vec![true]), Half(vec![false])];
        let err = collect_mst_edges(&g, &states, |s| &s.0).unwrap_err();
        assert_eq!(err.edge, EdgeId::new(0));
        assert_eq!(err.endpoint, graphlib::NodeId::new(1));
        assert!(err.to_string().contains("does not mark"));
    }

    /// Satellite (wire encoding): one instance of every [`RunError`]
    /// variant, for exhaustive wire-code tests.
    fn all_run_error_variants() -> Vec<RunError> {
        vec![
            RunError::Sim(SimError::MaxRoundsExceeded {
                limit: 10,
                running: 2,
            }),
            RunError::Collect(MstCollectError {
                edge: EdgeId::new(0),
                endpoint: NodeId::new(1),
            }),
            RunError::Disconnected { algorithm: "prim" },
            RunError::Model(Vec::new()),
            RunError::Panicked {
                message: "boom".into(),
            },
            RunError::Degraded {
                edges: 3,
                output_trees: 2,
                graph_components: 1,
            },
            RunError::EnergyExhausted {
                node: NodeId::new(4),
                round: 12,
            },
        ]
    }

    #[test]
    fn wire_codes_round_trip_and_are_distinct() {
        let variants = all_run_error_variants();
        // 6 run.* codes + the Sim passthrough variant.
        assert_eq!(
            variants.len(),
            RUN_ERROR_CODES.len() + 1,
            "new variant? add its code"
        );
        let mut seen = std::collections::BTreeSet::new();
        for e in &variants {
            let code = e.to_json_code();
            assert!(seen.insert(code), "duplicate code {code}");
            // Round trip: the code parses back to the identical static str,
            // whether it lives in the run.* or the sim.* namespace.
            assert_eq!(parse_run_code(code), Some(code));
            assert!(
                code.starts_with("run.") || code.starts_with("sim."),
                "{code}"
            );
        }
        // Every sim.* code resolves through the run-layer parser too
        // (serve responses carry both namespaces in one field).
        for &code in netsim::SIM_ERROR_CODES {
            assert_eq!(parse_run_code(code), Some(code));
        }
        assert_eq!(parse_run_code("run.no-such-error"), None);
    }

    #[test]
    fn energy_exhaustion_is_promoted_from_sim_errors() {
        let err: RunError = SimError::EnergyExhausted {
            node: NodeId::new(3),
            round: 7,
        }
        .into();
        assert_eq!(
            err,
            RunError::EnergyExhausted {
                node: NodeId::new(3),
                round: 7,
            }
        );
        assert_eq!(err.to_json_code(), "run.energy-exhausted");
        assert!(err.to_string().contains("v3") && err.to_string().contains('7'));
        // Other simulator errors still pass through untouched.
        let err: RunError = SimError::Stalled {
            running: 1,
            round: 2,
        }
        .into();
        assert!(matches!(err, RunError::Sim(SimError::Stalled { .. })));
    }
}
