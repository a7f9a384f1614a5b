//! The public simulation surface: [`SimConfig`], [`RunOutcome`], and
//! [`Simulator`]. The executors themselves live in [`crate::engine`].

use graphlib::WeightedGraph;

use crate::engine::{self, Executor, ExecutorScratch};
use crate::metrics::Metrics;
use crate::{
    EnergyModel, FaultPlan, NodeCtx, Protocol, Round, RunStats, SimError, Trace, WakePolicy,
};

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Abort with [`SimError::MaxRoundsExceeded`] if any node is still
    /// running after this many rounds.
    pub max_rounds: Round,
    /// Per-message bit limit (the CONGEST `O(log n)` budget). `None`
    /// disables enforcement; sizes are still accounted either way.
    pub bit_limit: Option<usize>,
    /// Record a full [`Trace`] of the run (expensive; keep off in benches).
    pub record_trace: bool,
    /// Record per-round [`Metrics`] (round reports + awake timelines).
    /// Cheaper than a trace but still `O(active rounds + awake events)`
    /// memory; off by default, and the executors are bit-identical either
    /// way (the off-switch equivalence tests pin this).
    pub record_metrics: bool,
    /// Master seed; each node's private randomness derives from it.
    pub master_seed: u64,
    /// Deterministic fault-injection plan ([`FaultPlan`]). `None` — or an
    /// inert plan — leaves the executors on the exact no-fault path.
    pub faults: Option<FaultPlan>,
    /// Which time driver executes the run ([`Executor`]). Defaults to
    /// [`Executor::Calendar`]; [`Executor::Naive`] is the differential
    /// oracle, bit-identical and only slower.
    pub executor: Executor,
    /// Worker shards for wide rounds. `1` (the default) runs fully
    /// serial; `K > 1` lets the kernel partition wide rounds' awake sets
    /// across `K` lanes — for the send and the receive half-step alike —
    /// one on the calling thread and the rest on scoped worker threads. Outcomes — stats,
    /// trace, metrics, final states, every fingerprint — are
    /// bit-identical for every shard count (the cross-shard differential
    /// proptests pin this); shards trade wall-clock for cores, nothing
    /// else. `0` is treated as `1`.
    pub shards: u32,
    /// Energy cost model ([`EnergyModel`]). `None` — or an inert model —
    /// leaves the executors on the exact no-energy path; an active model
    /// charges a per-node nano-joule ledger inside the kernel, and a
    /// model with a budget turns exhaustion into
    /// [`SimError::EnergyExhausted`].
    pub energy: Option<EnergyModel>,
    /// Wake policy ([`WakePolicy`]): how requested wake rounds map to the
    /// rounds nodes actually wake in. The default [`WakePolicy::Block`]
    /// is the identity (today's block-timeline semantics).
    pub wake_policy: WakePolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 1 << 40,
            bit_limit: None,
            record_trace: false,
            record_metrics: false,
            master_seed: 0,
            faults: None,
            executor: Executor::default(),
            shards: 1,
            energy: None,
            wake_policy: WakePolicy::Block,
        }
    }
}

impl SimConfig {
    /// Returns the config with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Returns the config with a per-message bit limit.
    pub fn with_bit_limit(mut self, bits: usize) -> Self {
        self.bit_limit = Some(bits);
        self
    }

    /// Returns the config with tracing enabled.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Returns the config with per-round metrics recording enabled.
    pub fn with_metrics(mut self) -> Self {
        self.record_metrics = true;
        self
    }

    /// Returns the config with a round budget.
    pub fn with_max_rounds(mut self, rounds: Round) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Returns the config with a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Returns the config with the given time driver.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Returns the config with the given send-half-step shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with an energy cost model.
    pub fn with_energy(mut self, model: EnergyModel) -> Self {
        self.energy = Some(model);
        self
    }

    /// Returns the config with a wake policy.
    pub fn with_wake_policy(mut self, policy: WakePolicy) -> Self {
        self.wake_policy = policy;
        self
    }
}

/// Everything a run produces: final per-node protocol states, metrics, and
/// (if enabled) the trace.
#[derive(Debug, Clone)]
pub struct RunOutcome<P> {
    /// Final protocol value of each node, indexed by node.
    pub states: Vec<P>,
    /// Run metrics.
    pub stats: RunStats,
    /// Execution trace (empty unless [`SimConfig::record_trace`]).
    pub trace: Trace,
    /// Per-round telemetry (empty unless [`SimConfig::record_metrics`]).
    pub metrics: Metrics,
}

/// The simulator: a weighted graph plus a [`SimConfig`].
///
/// Execution goes through one generic kernel parameterized by the time
/// driver chosen in [`SimConfig::executor`]. The default
/// [`Executor::Calendar`] driver is event-driven: it keeps a bucketed
/// calendar of scheduled wake rounds and jumps directly from one
/// populated round to the next, so a run costs `O(W log W + M)` where `W`
/// is total node-awake events and `M` total messages — *independent of
/// the number of silent rounds*. This is what makes the paper's `O(n N log n)`-round
/// algorithm simulable. Message routing uses the back ports precomputed
/// at graph build time, so the delivery path never scans an adjacency
/// list.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g WeightedGraph,
    config: SimConfig,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator over `graph`.
    pub fn new(graph: &'g WeightedGraph, config: SimConfig) -> Self {
        Simulator { graph, config }
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &WeightedGraph {
        self.graph
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `factory`-created protocol instances to completion.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised during execution (bad port, bit
    /// limit, non-future wake, stall, round budget).
    pub fn run<P, F>(&self, factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx) -> P,
    {
        self.run_with_scratch(&mut ExecutorScratch::new(), factory)
    }

    /// Like [`Simulator::run`], but reuses a caller-provided
    /// [`ExecutorScratch`] for all executor state (wake queue, outbox,
    /// delivery arena, recycled stats vectors). Callers executing many
    /// runs — the bench sweep's worker threads, the differential
    /// proptests — thread one scratch through every run so the executor
    /// allocates O(1) times per worker instead of per run. The scratch is
    /// fully re-initialized at the start of every run; results are
    /// bit-identical to [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised during execution.
    pub fn run_with_scratch<P, F>(
        &self,
        scratch: &mut ExecutorScratch<P::Msg>,
        factory: F,
    ) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx) -> P,
    {
        self.run_with_observer_scratch(scratch, factory, |_, _: &[P]| {})
    }

    /// Like [`Simulator::run`], but invokes `observer` after every round in
    /// which at least one node was awake, with the round number and the
    /// current protocol states. Used by the invariant-checking tests.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised during execution.
    pub fn run_with_observer<P, F, O>(
        &self,
        factory: F,
        observer: O,
    ) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx) -> P,
        O: FnMut(Round, &[P]),
    {
        self.run_with_observer_scratch(&mut ExecutorScratch::new(), factory, observer)
    }

    /// The most general entry point: observer + reusable scratch. All
    /// other `run*` methods delegate here.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised during execution.
    pub fn run_with_observer_scratch<P, F, O>(
        &self,
        scratch: &mut ExecutorScratch<P::Msg>,
        factory: F,
        observer: O,
    ) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx) -> P,
        O: FnMut(Round, &[P]),
    {
        engine::run(self.graph, &self.config, factory, observer, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::Flood;
    use crate::{Envelope, NextWake, Outbox, SimError, TraceEvent};
    use graphlib::{generators, GraphBuilder, Port};

    /// Node i wakes only in round i+1, sends a unit message on every port,
    /// and halts — exercises round skipping and message loss.
    #[derive(Debug)]
    struct Staggered {
        my_round: Round,
        received: usize,
    }

    impl Protocol for Staggered {
        type Msg = ();

        fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
            NextWake::At(self.my_round)
        }

        fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<()>) {
            outbox.extend(ctx.ports().map(|p| Envelope::new(p, ())));
        }

        fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, inbox: &[Envelope<()>]) -> NextWake {
            self.received += inbox.len();
            NextWake::Halt
        }
    }

    #[test]
    fn staggered_nodes_have_awake_one_and_lose_all_messages() {
        let g = generators::ring(6, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|ctx| Staggered {
                my_round: u64::from(ctx.node.raw()) * 100 + 1,
                received: 0,
            })
            .unwrap();
        assert_eq!(out.stats.awake_max(), 1);
        assert_eq!(out.stats.rounds, 501);
        assert_eq!(out.stats.messages_delivered, 0);
        assert_eq!(out.stats.messages_lost, 12);
        assert!(out.states.iter().all(|s| s.received == 0));
    }

    #[test]
    fn simultaneous_nodes_exchange_in_same_round() {
        let g = generators::ring(6, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_| Staggered {
                my_round: 7,
                received: 0,
            })
            .unwrap();
        assert_eq!(out.stats.rounds, 7);
        assert_eq!(out.stats.messages_lost, 0);
        assert!(out.states.iter().all(|s| s.received == 2));
    }

    #[test]
    fn flood_reaches_everyone() {
        let g = generators::ring(8, 1).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|ctx| Flood::new(ctx.node.raw() == 0))
            .unwrap();
        assert!(out.states.iter().all(Flood::informed));
        assert_eq!(out.stats.rounds, 5); // diameter 4, plus the final send round
    }

    #[test]
    fn bit_limit_is_enforced() {
        #[derive(Debug)]
        struct Big;
        impl Protocol for Big {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn send(&mut self, ctx: &NodeCtx, _: Round, outbox: &mut Outbox<u64>) {
                outbox.extend(ctx.ports().map(|p| Envelope::new(p, u64::MAX)));
            }
            fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
                NextWake::Halt
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let err = Simulator::new(&g, SimConfig::default().with_bit_limit(32))
            .run(|_| Big)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::MessageTooLarge {
                bits: 64,
                limit: 32,
                ..
            }
        ));
    }

    #[test]
    fn invalid_port_is_reported() {
        #[derive(Debug)]
        struct BadPort;
        impl Protocol for BadPort {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn send(&mut self, _: &NodeCtx, _: Round, outbox: &mut Outbox<()>) {
                outbox.push(Port::new(99), ());
            }
            fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<()>]) -> NextWake {
                NextWake::Halt
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let err = Simulator::new(&g, SimConfig::default())
            .run(|_| BadPort)
            .unwrap_err();
        assert!(matches!(err, SimError::PortOutOfRange { .. }));
    }

    #[test]
    fn non_future_wake_is_reported() {
        #[derive(Debug)]
        struct BadWake;
        impl Protocol for BadWake {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(5)
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<()>) {}
            fn deliver(&mut self, _: &NodeCtx, round: Round, _: &[Envelope<()>]) -> NextWake {
                NextWake::At(round) // not in the future
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let err = Simulator::new(&g, SimConfig::default())
            .run(|_| BadWake)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::WakeNotInFuture { requested: 5, .. }
        ));
    }

    #[test]
    fn round_budget_is_enforced() {
        #[derive(Debug)]
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<()>) {}
            fn deliver(&mut self, _: &NodeCtx, round: Round, _: &[Envelope<()>]) -> NextWake {
                NextWake::At(round + 1)
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let err = Simulator::new(&g, SimConfig::default().with_max_rounds(100))
            .run(|_| Forever)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::MaxRoundsExceeded {
                limit: 100,
                running: 4
            }
        ));
    }

    #[test]
    fn immediate_halt_in_init_is_clean() {
        #[derive(Debug)]
        struct Never;
        impl Protocol for Never {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::Halt
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<()>) {
                unreachable!()
            }
            fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<()>]) -> NextWake {
                unreachable!()
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_| Never)
            .unwrap();
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.awake_max(), 0);
    }

    #[test]
    fn trace_records_awake_delivery_and_halt() {
        let g = GraphBuilder::new(2).edge(0, 1, 1).build().unwrap();
        let out = Simulator::new(&g, SimConfig::default().with_trace())
            .run(|_| Staggered {
                my_round: 1,
                received: 0,
            })
            .unwrap();
        let kinds: Vec<&'static str> = out
            .trace
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Awake { .. } => "awake",
                TraceEvent::Delivered { .. } => "delivered",
                TraceEvent::Lost { .. } => "lost",
                TraceEvent::Halted { .. } => "halted",
                TraceEvent::Dropped { .. } => "dropped",
                TraceEvent::Crashed { .. } => "crashed",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "awake",
                "awake",
                "delivered",
                "delivered",
                "halted",
                "halted"
            ]
        );
    }

    #[test]
    fn observer_sees_each_active_round() {
        let g = generators::ring(4, 0).unwrap();
        let mut seen = Vec::new();
        Simulator::new(&g, SimConfig::default())
            .run_with_observer(
                |ctx| Staggered {
                    my_round: u64::from(ctx.node.raw()) * 10 + 1,
                    received: 0,
                },
                |round, _states: &[Staggered]| seen.push(round),
            )
            .unwrap();
        assert_eq!(seen, vec![1, 11, 21, 31]);
    }

    #[test]
    fn stats_bits_accounting() {
        let g = GraphBuilder::new(2).edge(0, 1, 1).build().unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_| Staggered {
                my_round: 3,
                received: 0,
            })
            .unwrap();
        // Both nodes send a 1-bit unit message across the single edge.
        assert_eq!(out.stats.bits_by_edge, vec![2]);
        assert_eq!(out.stats.bits_received_by_node, vec![1, 1]);
        assert_eq!(out.stats.messages_sent(), 2);
    }

    #[test]
    fn metrics_record_reports_and_timelines() {
        let g = generators::ring(6, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default().with_metrics())
            .run(|ctx| Staggered {
                my_round: u64::from(ctx.node.raw()) * 100 + 1,
                received: 0,
            })
            .unwrap();
        let m = &out.metrics;
        // One active round per node; the 99-round gaps between wakes are
        // silent and produce no report.
        assert_eq!(m.active_rounds(), 6);
        assert_eq!(m.last_round(), out.stats.rounds);
        assert_eq!(m.messages_sent(), out.stats.messages_sent());
        assert_eq!(m.messages_lost(), out.stats.messages_lost);
        assert_eq!(m.awake_complexity(), out.stats.awake_max());
        for (v, timeline) in m.awake_rounds_by_node.iter().enumerate() {
            assert_eq!(timeline, &vec![v as Round * 100 + 1]);
        }
        // Each awake round: one node sends 1-bit unit messages on both
        // ports; both receivers sleep.
        for r in &m.per_round {
            assert_eq!((r.awake, r.messages_sent, r.messages_lost), (1, 2, 2));
            assert_eq!(r.messages_delivered, 0);
            assert_eq!(r.max_edge_bits, 1);
        }
    }

    #[test]
    fn metrics_off_leaves_outcome_empty() {
        let g = generators::ring(4, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_| Staggered {
                my_round: 1,
                received: 0,
            })
            .unwrap();
        assert!(out.metrics.is_empty());
    }

    #[test]
    fn metrics_on_empty_schedule_record_no_rounds() {
        #[derive(Debug)]
        struct Never;
        impl Protocol for Never {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::Halt
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<()>) {}
            fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<()>]) -> NextWake {
                NextWake::Halt
            }
        }
        let g = generators::ring(4, 0).unwrap();
        let out = Simulator::new(&g, SimConfig::default().with_metrics())
            .run(|_| Never)
            .unwrap();
        assert_eq!(out.metrics.active_rounds(), 0);
        assert_eq!(out.metrics.last_round(), 0);
        assert_eq!(out.metrics.awake_complexity(), 0);
        assert_eq!(out.metrics.awake_rounds_by_node.len(), 4);
    }

    #[test]
    fn rng_seeds_differ_per_node_and_master_seed() {
        let g = generators::ring(4, 0).unwrap();
        let mut seeds_a = Vec::new();
        Simulator::new(&g, SimConfig::default().with_seed(1))
            .run(|ctx| {
                seeds_a.push(ctx.rng_seed);
                Staggered {
                    my_round: 1,
                    received: 0,
                }
            })
            .unwrap();
        let uniq: std::collections::BTreeSet<u64> = seeds_a.iter().copied().collect();
        assert_eq!(uniq.len(), 4);

        let mut seeds_b = Vec::new();
        Simulator::new(&g, SimConfig::default().with_seed(2))
            .run(|ctx| {
                seeds_b.push(ctx.rng_seed);
                Staggered {
                    my_round: 1,
                    received: 0,
                }
            })
            .unwrap();
        assert_ne!(seeds_a, seeds_b);
    }
}
