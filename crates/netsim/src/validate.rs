//! Dynamic model-conformance checking.
//!
//! The paper's results hold only under the exact model of Section 1.1:
//! synchronous CONGEST rounds, `O(log n)`-bit messages, sends and receives
//! only while awake, and messages to sleeping nodes lost. The static lint
//! (`crates/conformance`) polices the *source*; this module polices the
//! *execution*: [`ValidatingExecutor`] wraps [`Simulator`], records a full
//! [`Trace`], and audits every event against the model rules below. It also
//! re-runs the protocol with the same seed and demands bit-identical stats
//! and trace — the determinism self-check that underwrites every
//! differential test in the repo.
//!
//! The audit itself ([`audit`]) is a pure function over `(stats, trace)` so
//! tests can feed it hand-built cheating traces — the engine never calls
//! `send` on a sleeping node, so a *real* protocol cannot violate the
//! awake-sender rule, but a corrupted trace can, and the checker must
//! reject it.

use std::collections::BTreeMap;
use std::fmt;

use graphlib::WeightedGraph;

use crate::{
    bits_for_range, NodeCtx, Protocol, Round, RunOutcome, RunStats, SimConfig, SimError, Simulator,
    Trace, TraceEvent,
};

/// The model rules of Section 1.1 that the dynamic checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelRule {
    /// Every transmitted message (delivered or lost) originates from a node
    /// that is awake in the sending round.
    AwakeSender,
    /// A message is lost **iff** its receiver sleeps in the delivery round:
    /// no `Lost` event with an awake receiver, no `Delivered` event with a
    /// sleeping one.
    LossIffAsleep,
    /// Per-message wire size stays within the CONGEST budget
    /// `C·⌈log₂ n⌉` for the algorithm's recorded constant `C`.
    OversizedMessage,
    /// Trace and stats agree: delivered + lost event counts, per-node awake
    /// counts, and per-node received bits all reconcile.
    Conservation,
    /// Two runs with the same seed produce bit-identical stats and traces.
    Determinism,
}

impl ModelRule {
    /// Stable kebab-case rule name, as printed in diagnostics and matched
    /// by tests.
    pub fn name(self) -> &'static str {
        match self {
            ModelRule::AwakeSender => "awake-sender",
            ModelRule::LossIffAsleep => "loss-iff-asleep",
            ModelRule::OversizedMessage => "oversized-message",
            ModelRule::Conservation => "conservation",
            ModelRule::Determinism => "determinism",
        }
    }
}

impl fmt::Display for ModelRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected breach of a [`ModelRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that was broken.
    pub rule: ModelRule,
    /// The round the offending event belongs to (0 for run-level rules
    /// such as determinism).
    pub round: Round,
    /// Human-readable specifics: nodes, counts, sizes.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}: {}: {}", self.round, self.rule, self.detail)
    }
}

/// Why a validated run was rejected.
///
/// Deliberately *not* `#[non_exhaustive]`: downstream error types (e.g.
/// `mst-core`'s `RunError`) match on it exhaustively to keep the
/// sim-failure / model-violation distinction intact.
#[derive(Debug)]
pub enum ValidateError {
    /// The simulator itself failed (bad port, stall, round budget, ...).
    Sim(SimError),
    /// The run completed but broke one or more model rules.
    Model(Vec<Violation>),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Sim(e) => write!(f, "simulation error: {e}"),
            ValidateError::Model(violations) => {
                write!(f, "{} model violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ValidateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidateError::Sim(e) => Some(e),
            ValidateError::Model(_) => None,
        }
    }
}

impl ValidateError {
    /// The violations of a model rejection (empty for [`ValidateError::Sim`]).
    pub fn violations(&self) -> &[Violation] {
        match self {
            ValidateError::Sim(_) => &[],
            ValidateError::Model(v) => v,
        }
    }

    /// `true` if any violation breaks `rule`.
    pub fn breaks(&self, rule: ModelRule) -> bool {
        self.violations().iter().any(|v| v.rule == rule)
    }
}

/// Audits a completed run against the statically checkable model rules.
///
/// `bit_budget` is the per-message CONGEST budget in bits (`None` skips the
/// oversize rule). The trace must have been recorded
/// ([`SimConfig::record_trace`]); an empty trace with nonzero stats is
/// itself reported as a conservation violation, so a forgotten
/// `with_trace()` cannot silently pass.
///
/// Determinism is *not* audited here — it needs a second run, which is
/// [`ValidatingExecutor::run`]'s job.
pub fn audit(stats: &RunStats, trace: &Trace, bit_budget: Option<usize>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let n = stats.awake_by_node.len();

    // Round-indexed awake sets, rebuilt from the trace. BTreeMap keeps the
    // audit itself deterministic.
    let mut awake: BTreeMap<Round, Vec<u32>> = BTreeMap::new();
    let mut awake_counts = vec![0u64; n];
    for event in trace.events() {
        if let TraceEvent::Awake { round, node } = event {
            awake.entry(*round).or_default().push(node.raw());
            if node.index() < n {
                awake_counts[node.index()] += 1;
            }
        }
    }
    let is_awake =
        |round: Round, node: u32| awake.get(&round).is_some_and(|set| set.contains(&node));

    let mut delivered = 0u64;
    let mut lost = 0u64;
    let mut dropped = 0u64;
    let mut crashed = 0u64;
    let mut bits_received = vec![0u64; n];
    for event in trace.events() {
        match event {
            TraceEvent::Delivered {
                round,
                from,
                to,
                bits,
                ..
            } => {
                delivered += 1;
                if to.index() < n {
                    bits_received[to.index()] += *bits as u64;
                }
                if !is_awake(*round, from.raw()) {
                    violations.push(Violation {
                        rule: ModelRule::AwakeSender,
                        round: *round,
                        detail: format!("node {} sent while asleep", from.raw()),
                    });
                }
                if !is_awake(*round, to.raw()) {
                    violations.push(Violation {
                        rule: ModelRule::LossIffAsleep,
                        round: *round,
                        detail: format!("message delivered to sleeping node {}", to.raw()),
                    });
                }
                if let Some(budget) = bit_budget {
                    if *bits > budget {
                        violations.push(Violation {
                            rule: ModelRule::OversizedMessage,
                            round: *round,
                            detail: format!(
                                "{} → {}: {bits} bits exceeds the {budget}-bit budget",
                                from.raw(),
                                to.raw()
                            ),
                        });
                    }
                }
            }
            TraceEvent::Lost { round, from, to } => {
                lost += 1;
                if !is_awake(*round, from.raw()) {
                    violations.push(Violation {
                        rule: ModelRule::AwakeSender,
                        round: *round,
                        detail: format!("node {} sent while asleep", from.raw()),
                    });
                }
                if is_awake(*round, to.raw()) {
                    violations.push(Violation {
                        rule: ModelRule::LossIffAsleep,
                        round: *round,
                        detail: format!("message to awake node {} was lost", to.raw()),
                    });
                }
            }
            TraceEvent::Dropped { round, from, .. } => {
                // An injected drop destroys a message in flight; the
                // receiver's state is irrelevant (that is exactly what
                // distinguishes it from a model loss), but the sender must
                // still have been awake to transmit it.
                dropped += 1;
                if !is_awake(*round, from.raw()) {
                    violations.push(Violation {
                        rule: ModelRule::AwakeSender,
                        round: *round,
                        detail: format!("node {} sent while asleep", from.raw()),
                    });
                }
            }
            TraceEvent::Crashed { .. } => {
                crashed += 1;
            }
            TraceEvent::Awake { .. } | TraceEvent::Halted { .. } => {}
        }
    }

    // Lost events carry no size, so the stats-side maximum (which counts
    // lost messages too — see `RunStats::max_message_bits`) is the budget
    // authority for them.
    if let Some(budget) = bit_budget {
        if stats.max_message_bits > budget as u64 {
            violations.push(Violation {
                rule: ModelRule::OversizedMessage,
                round: 0,
                detail: format!(
                    "stats report a {}-bit message over the {budget}-bit budget",
                    stats.max_message_bits
                ),
            });
        }
    }

    if delivered != stats.messages_delivered || lost != stats.messages_lost {
        violations.push(Violation {
            rule: ModelRule::Conservation,
            round: 0,
            detail: format!(
                "trace has {delivered} delivered / {lost} lost events, stats claim {} / {}",
                stats.messages_delivered, stats.messages_lost
            ),
        });
    }
    if dropped != stats.injected_drops || crashed != stats.crashed_nodes {
        violations.push(Violation {
            rule: ModelRule::Conservation,
            round: 0,
            detail: format!(
                "trace has {dropped} dropped / {crashed} crashed events, stats claim {} / {}",
                stats.injected_drops, stats.crashed_nodes
            ),
        });
    }
    if awake_counts != stats.awake_by_node {
        violations.push(Violation {
            rule: ModelRule::Conservation,
            round: 0,
            detail: format!(
                "per-node awake counts diverge: trace {awake_counts:?}, stats {:?}",
                stats.awake_by_node
            ),
        });
    }
    if bits_received != stats.bits_received_by_node {
        violations.push(Violation {
            rule: ModelRule::Conservation,
            round: 0,
            detail: format!(
                "per-node received bits diverge: trace {bits_received:?}, stats {:?}",
                stats.bits_received_by_node
            ),
        });
    }

    violations
}

/// A [`Simulator`] wrapper that proves a run obeys the sleeping model.
///
/// `run` executes the protocol **twice** with the same seed: the first run
/// is audited event-by-event ([`audit`]), the second must reproduce the
/// first bit-for-bit ([`ModelRule::Determinism`]). Tracing is forced on and
/// the engine's [`SimConfig::bit_limit`] is tightened to the CONGEST budget
/// `C·⌈log₂ n⌉` when a constant is supplied, so an oversized message aborts
/// the run *and* is reported as a model violation rather than a plain
/// simulator error.
#[derive(Debug)]
pub struct ValidatingExecutor<'g> {
    graph: &'g WeightedGraph,
    config: SimConfig,
    congest_constant: Option<u64>,
}

impl<'g> ValidatingExecutor<'g> {
    /// Creates a validating wrapper over `graph` with `config`.
    pub fn new(graph: &'g WeightedGraph, config: SimConfig) -> Self {
        ValidatingExecutor {
            graph,
            config,
            congest_constant: None,
        }
    }

    /// Sets the algorithm's CONGEST constant `C`; messages are then held to
    /// `C·⌈log₂ n⌉` bits (see `AlgorithmSpec::congest_constant` in
    /// `mst-core` for the recorded per-algorithm values).
    pub fn with_congest_constant(mut self, c: u64) -> Self {
        self.congest_constant = Some(c);
        self
    }

    /// The per-message bit budget this executor enforces, if any: the
    /// tighter of the config's own `bit_limit` and `C·⌈log₂ n⌉`.
    pub fn bit_budget(&self) -> Option<usize> {
        let congest = self
            .congest_constant
            .map(|c| c as usize * bits_for_range(self.graph.node_count().max(2) as u64));
        match (self.config.bit_limit, congest) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Runs `factory`-created protocol instances twice and audits the
    /// result. The factory must be deterministic: instance state may only
    /// depend on the [`NodeCtx`] (including its derived `rng_seed`), or the
    /// determinism check will fire spuriously.
    ///
    /// # Errors
    ///
    /// [`ValidateError::Model`] when a model rule is broken (including an
    /// over-budget message, mapped from the engine's
    /// [`SimError::MessageTooLarge`]); [`ValidateError::Sim`] for any other
    /// simulator failure.
    pub fn run<P, F>(&self, mut factory: F) -> Result<RunOutcome<P>, ValidateError>
    where
        P: Protocol,
        F: FnMut(&NodeCtx) -> P,
    {
        let mut config = self.config.clone();
        config.record_trace = true;
        config.bit_limit = self.bit_budget();

        let sim = Simulator::new(self.graph, config.clone());
        let first = sim.run(&mut factory).map_err(lift_sim_error)?;

        let mut violations = audit(&first.stats, &first.trace, config.bit_limit);

        let second: RunOutcome<P> = Simulator::new(self.graph, config)
            .run(&mut factory)
            .map_err(lift_sim_error)?;
        if second.stats != first.stats
            || second.trace != first.trace
            || second.metrics != first.metrics
        {
            let detail = if second.stats != first.stats {
                format!(
                    "same-seed re-run diverged: stats differ (first {} delivered / {} rounds, second {} / {})",
                    first.stats.messages_delivered,
                    first.stats.rounds,
                    second.stats.messages_delivered,
                    second.stats.rounds
                )
            } else if second.trace != first.trace {
                format!(
                    "same-seed re-run diverged: traces differ ({} vs {} events)",
                    first.trace.len(),
                    second.trace.len()
                )
            } else {
                format!(
                    "same-seed re-run diverged: metrics differ ({} vs {} active rounds)",
                    first.metrics.active_rounds(),
                    second.metrics.active_rounds()
                )
            };
            violations.push(Violation {
                rule: ModelRule::Determinism,
                round: 0,
                detail,
            });
        }

        if violations.is_empty() {
            Ok(first)
        } else {
            Err(ValidateError::Model(violations))
        }
    }
}

/// An over-budget message is a model violation, not an infrastructure
/// failure; everything else passes through as [`ValidateError::Sim`].
fn lift_sim_error(err: SimError) -> ValidateError {
    match err {
        SimError::MessageTooLarge {
            node,
            round,
            bits,
            limit,
        } => ValidateError::Model(vec![Violation {
            rule: ModelRule::OversizedMessage,
            round,
            detail: format!(
                "node {} sent a {bits}-bit message over the {limit}-bit budget",
                node.raw()
            ),
        }]),
        other => ValidateError::Sim(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::Flood;
    use crate::{Envelope, NextWake, Outbox};
    use graphlib::{generators, NodeId, Port};

    fn clean_run() -> (RunStats, Trace) {
        let g = generators::ring(6, 3).unwrap();
        let out = Simulator::new(&g, SimConfig::default().with_trace())
            .run(|ctx| Flood::new(ctx.node.raw() == 0))
            .unwrap();
        (out.stats, out.trace)
    }

    #[test]
    fn audit_accepts_a_clean_run() {
        let (stats, trace) = clean_run();
        assert_eq!(audit(&stats, &trace, Some(64)), Vec::new());
    }

    #[test]
    fn validating_executor_accepts_flood() {
        let g = generators::ring(6, 3).unwrap();
        let out = ValidatingExecutor::new(&g, SimConfig::default())
            .with_congest_constant(4)
            .run(|ctx| Flood::new(ctx.node.raw() == 0))
            .unwrap();
        assert!(out.states.iter().all(Flood::informed));
        assert!(!out.trace.is_empty());
    }

    /// Cheating fixture: a protocol whose message is far over any
    /// `C·⌈log₂ n⌉` budget. The engine aborts the run and the executor
    /// reports it as an oversized-message model violation.
    #[test]
    fn validating_executor_rejects_oversized_message() {
        #[derive(Debug)]
        struct Bloated;
        impl Protocol for Bloated {
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
        let err = ValidatingExecutor::new(&g, SimConfig::default())
            .with_congest_constant(2) // budget 2·⌈log₂ 4⌉ = 4 bits; payload is 64
            .run(|_| Bloated)
            .unwrap_err();
        assert!(err.breaks(ModelRule::OversizedMessage), "{err}");
    }

    /// Cheating fixture: a forged trace claiming node 1 transmitted in a
    /// round it was never awake in. No real protocol can produce this (the
    /// engine only calls `send` on awake nodes), so it is synthesized.
    #[test]
    fn audit_rejects_send_while_asleep() {
        let mut stats = RunStats::new(2, 1);
        stats.rounds = 1;
        stats.awake_by_node = vec![1, 0];
        stats.messages_lost = 1;
        let mut trace = Trace::default();
        trace.push(TraceEvent::Awake {
            round: 1,
            node: NodeId::new(0),
        });
        trace.push(TraceEvent::Lost {
            round: 1,
            from: NodeId::new(1), // asleep this round!
            to: NodeId::new(0),
        });
        let violations = audit(&stats, &trace, None);
        assert!(
            violations.iter().any(|v| v.rule == ModelRule::AwakeSender),
            "{violations:?}"
        );
        // The forged event also breaks loss-iff-asleep: the receiver (node
        // 0) is awake, so the message could not have been lost.
        assert!(violations
            .iter()
            .any(|v| v.rule == ModelRule::LossIffAsleep));
    }

    #[test]
    fn audit_rejects_delivery_to_sleeping_node() {
        let mut stats = RunStats::new(2, 1);
        stats.rounds = 1;
        stats.awake_by_node = vec![1, 0];
        stats.messages_delivered = 1;
        stats.bits_received_by_node = vec![0, 4];
        let mut trace = Trace::default();
        trace.push(TraceEvent::Awake {
            round: 1,
            node: NodeId::new(0),
        });
        trace.push(TraceEvent::Delivered {
            round: 1,
            from: NodeId::new(0),
            to: NodeId::new(1), // asleep this round!
            port: Port::new(0),
            bits: 4,
            payload: "forged".into(),
        });
        let violations = audit(&stats, &trace, None);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == ModelRule::LossIffAsleep),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_rejects_oversized_trace_event() {
        let (stats, trace) = clean_run();
        // The flood token is 1 bit; only a zero budget is tighter.
        let violations = audit(&stats, &trace, Some(0));
        assert!(
            violations
                .iter()
                .any(|v| v.rule == ModelRule::OversizedMessage),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_rejects_count_mismatch() {
        let (mut stats, trace) = clean_run();
        stats.messages_delivered += 1; // cook the books
        let violations = audit(&stats, &trace, None);
        assert!(
            violations.iter().any(|v| v.rule == ModelRule::Conservation),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_rejects_missing_trace() {
        let (stats, _) = clean_run();
        // Nonzero stats with an empty trace: every reconciliation fails.
        let violations = audit(&stats, &Trace::default(), None);
        assert!(violations.iter().any(|v| v.rule == ModelRule::Conservation));
    }

    /// Cheating fixture: a protocol whose behavior depends on state outside
    /// the model (a shared counter across runs), so the same seed produces
    /// different executions. The determinism re-run must catch it.
    #[test]
    fn validating_executor_rejects_nondeterminism() {
        use std::cell::Cell;
        #[derive(Debug)]
        struct Moody {
            rounds_awake: u64,
        }
        impl Protocol for Moody {
            type Msg = ();
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<()>) {}
            fn deliver(&mut self, _: &NodeCtx, round: Round, _: &[Envelope<()>]) -> NextWake {
                if round < self.rounds_awake {
                    NextWake::At(round + 1)
                } else {
                    NextWake::Halt
                }
            }
        }
        let invocations = Cell::new(0u64);
        let g = generators::ring(4, 0).unwrap();
        let err = ValidatingExecutor::new(&g, SimConfig::default())
            .run(|_| {
                // Hidden cross-run state: the second run stays awake longer.
                invocations.set(invocations.get() + 1);
                Moody {
                    rounds_awake: invocations.get(),
                }
            })
            .unwrap_err();
        assert!(err.breaks(ModelRule::Determinism), "{err}");
    }

    #[test]
    fn bit_budget_takes_the_tighter_limit() {
        let g = generators::ring(4, 0).unwrap();
        let v = ValidatingExecutor::new(&g, SimConfig::default().with_bit_limit(3))
            .with_congest_constant(8); // 8·2 = 16 bits, looser than 3
        assert_eq!(v.bit_budget(), Some(3));
        let v = ValidatingExecutor::new(&g, SimConfig::default()).with_congest_constant(8);
        assert_eq!(v.bit_budget(), Some(16));
        let v = ValidatingExecutor::new(&g, SimConfig::default());
        assert_eq!(v.bit_budget(), None);
    }

    #[test]
    fn violation_display_names_the_rule() {
        let v = Violation {
            rule: ModelRule::AwakeSender,
            round: 7,
            detail: "node 3 sent while asleep".into(),
        };
        assert_eq!(
            v.to_string(),
            "round 7: awake-sender: node 3 sent while asleep"
        );
    }
}
