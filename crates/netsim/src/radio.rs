//! The energy-complexity (radio network) model of Chang–Kopelowitz–
//! Pettie–Wang–Zhan, which the paper's Appendix A relates to the sleeping
//! model.
//!
//! Differences from point-to-point CONGEST protocols ([`Protocol`]):
//!
//! * a node's per-round action is **broadcast-only**: it either
//!   [`RadioAction::Transmit`]s one message heard by *all* neighbors,
//!   [`RadioAction::Listen`]s, or sits [`RadioAction::Idle`];
//! * **energy** counts only transmitting/listening rounds — idle rounds
//!   are free (unlike the sleeping model, an idle node may still compute);
//! * a node cannot transmit and listen in the same round (half-duplex);
//! * when two or more neighbors of a listener transmit simultaneously the
//!   outcome depends on the [`CollisionRule`]:
//!   - [`CollisionRule::Local`] — the paper's "Local" variant: no
//!     collisions, the listener receives every message. Upper bounds in
//!     this variant transfer directly to the sleeping model and vice
//!     versa (Appendix A);
//!   - [`CollisionRule::Detection`] — the listener hears a collision
//!     marker;
//!   - [`CollisionRule::Silence`] — a collision is indistinguishable from
//!     silence.
//!
//! Radio protocols run on the one execution kernel: [`run`] wraps each
//! node's [`RadioProtocol`] in a [`RadioAdapter`], a [`Protocol`] that
//! turns `Transmit` into a message on every port, `Listen` into an awake
//! round that sends nothing, and `Idle` into local computation the kernel
//! never sees. The collision rule is applied to the port-sorted inbox at
//! deliver time. So every [`SimConfig`](crate::SimConfig) knob — seed,
//! round budget, energy model, time driver, shards, fault plan — reaches
//! radio runs too, and under [`EnergyModel::radio_default`] the kernel's
//! energy ledger *is* radio energy: one unit per transmitting or
//! listening round, idle rounds free. Quiet rounds are skipped exactly as
//! for CONGEST protocols, so `O(nN)`-round schedules with `O(1)` energy
//! are cheap to run.

use crate::{
    Envelope, NextWake, NodeCtx, Outbox, Payload, Protocol, Round, RunStats, SimError, Simulator,
};

#[cfg(doc)]
use crate::EnergyModel;

/// What a node does in a round it scheduled itself active for.
///
/// Costs are set by the run's [`EnergyModel`]; under
/// [`EnergyModel::radio_default`] a transmitting or listening round costs
/// one unit and idling is free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadioAction<M> {
    /// Broadcast `M` to all neighbors: an awake round that sends `M` on
    /// every port (`round_cost`, plus `tx_bit_cost` per bit of every
    /// copy).
    Transmit(M),
    /// Listen to the channel: an awake round that sends nothing
    /// (`round_cost`, plus `rx_bit_cost` per received bit, or
    /// `idle_cost` if nothing arrives).
    Listen,
    /// Do only local computation. The node is not woken, so the round
    /// costs nothing under any model.
    Idle,
}

/// What a node perceives at the end of an active round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Heard<M> {
    /// Listened and no neighbor transmitted.
    Silence,
    /// Listened and exactly one neighbor transmitted (non-`Local` rules).
    One(M),
    /// Listened into a collision ([`CollisionRule::Detection`] only).
    Collision,
    /// Listened under [`CollisionRule::Local`]: every transmitted message
    /// arrives (possibly none — then [`Heard::Silence`] is reported
    /// instead).
    All(Vec<M>),
    /// This node transmitted (half-duplex: it hears nothing).
    Transmitted,
    /// This node idled.
    Idled,
}

/// Collision semantics of the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollisionRule {
    /// No collisions; listeners receive every message ("Local" variant).
    #[default]
    Local,
    /// Listeners can distinguish collision from silence.
    Detection,
    /// Collisions are indistinguishable from silence.
    Silence,
}

/// A protocol in the radio model: one value per node.
pub trait RadioProtocol {
    /// Message payload.
    type Msg: Payload;

    /// Called before round 1; returns the first active round.
    fn init(&mut self, ctx: &NodeCtx) -> NextWake;

    /// Chooses this round's action.
    fn act(&mut self, ctx: &NodeCtx, round: Round) -> RadioAction<Self::Msg>;

    /// Receives the round's outcome; returns the next active round
    /// (strictly later) or halts.
    fn heard(&mut self, ctx: &NodeCtx, round: Round, outcome: Heard<Self::Msg>) -> NextWake;
}

/// The channel counters of a radio run — what the kernel's
/// [`RunStats`] does not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RadioStats {
    /// Last active round, idle rounds included.
    pub rounds: Round,
    /// Total transmissions (one per transmitting node-round).
    pub transmissions: u64,
    /// Messages that reached listeners.
    pub receptions: u64,
    /// Listener rounds with two or more arrivals under a collision rule
    /// ([`CollisionRule::Detection`] / [`CollisionRule::Silence`]).
    pub collisions: u64,
}

impl RadioStats {
    /// Folds one node's counters into the run's.
    fn absorb(&mut self, node: &RadioStats) {
        self.rounds = self.rounds.max(node.rounds);
        self.transmissions += node.transmissions;
        self.receptions += node.receptions;
        self.collisions += node.collisions;
    }
}

/// Outcome of a radio run.
#[derive(Debug, Clone)]
pub struct RadioOutcome<P> {
    /// Final protocol values per node.
    pub states: Vec<P>,
    /// The kernel's run statistics: awake rounds, messages, and the
    /// energy ledger ([`RunStats::energy_spent_by_node`]).
    pub stats: RunStats,
    /// The channel counters.
    pub radio: RadioStats,
}

/// What an adapted node does when the kernel next wakes it.
#[derive(Debug)]
enum Step<M> {
    /// Send the message on every port and hear [`Heard::Transmitted`].
    Transmit(M),
    /// Send nothing and hear the inbox through the collision rule.
    Listen,
    /// Return this wake request to the kernel unchanged: the protocol
    /// asked for it from an idle round it was not strictly later than,
    /// and the kernel reports that in the idle round itself.
    Refuse(Round),
}

/// A [`RadioProtocol`] as a kernel [`Protocol`].
///
/// The adapter asks the protocol for its next active round's action as
/// soon as `init` or `deliver` returns. `Transmit` and `Listen` are
/// awake rounds; `Idle` rounds are run on the spot — `act`, then
/// `heard(Idled)`, until a non-idle round or a halt — so the kernel
/// never wakes or charges the node for them. The idle loop stops at the
/// run's round budget and hands the round on, for the kernel to report
/// [`SimError::MaxRoundsExceeded`]. Built by [`run`].
#[derive(Debug)]
pub struct RadioAdapter<P: RadioProtocol> {
    protocol: P,
    rule: CollisionRule,
    max_rounds: Round,
    step: Step<P::Msg>,
    counters: RadioStats,
}

impl<P: RadioProtocol> RadioAdapter<P> {
    /// Turns the protocol's wake request `next`, made in round `after`,
    /// into the kernel's, running idle rounds on the way.
    fn schedule(&mut self, ctx: &NodeCtx, mut next: NextWake, mut after: Round) -> NextWake {
        let mut idled = false;
        loop {
            let NextWake::At(round) = next else {
                return NextWake::Halt;
            };
            if round <= after {
                if idled {
                    // Wake the node in the idle round, where the kernel
                    // rejects the request with `WakeNotInFuture`.
                    self.step = Step::Refuse(round);
                    return NextWake::At(after);
                }
                return next;
            }
            if round > self.max_rounds {
                return next;
            }
            self.step = match self.protocol.act(ctx, round) {
                RadioAction::Transmit(msg) => Step::Transmit(msg),
                RadioAction::Listen => Step::Listen,
                RadioAction::Idle => {
                    self.counters.rounds = round;
                    next = self.protocol.heard(ctx, round, Heard::Idled);
                    after = round;
                    idled = true;
                    continue;
                }
            };
            return next;
        }
    }

    /// Applies the collision rule to a listener's port-sorted inbox.
    fn hear(&mut self, inbox: &[Envelope<P::Msg>]) -> Heard<P::Msg> {
        self.counters.receptions += inbox.len() as u64;
        match (self.rule, inbox) {
            (_, []) => Heard::Silence,
            (CollisionRule::Local, _) => Heard::All(inbox.iter().map(|e| e.msg.clone()).collect()),
            (_, [one]) => Heard::One(one.msg.clone()),
            (CollisionRule::Detection, _) => {
                self.counters.collisions += 1;
                Heard::Collision
            }
            (CollisionRule::Silence, _) => {
                self.counters.collisions += 1;
                Heard::Silence
            }
        }
    }
}

impl<P: RadioProtocol + Send> Protocol for RadioAdapter<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        let next = self.protocol.init(ctx);
        self.schedule(ctx, next, 0)
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<P::Msg>) {
        if let Step::Transmit(msg) = &self.step {
            self.counters.transmissions += 1;
            for port in ctx.ports() {
                outbox.push(port, msg.clone());
            }
        }
    }

    fn deliver(&mut self, ctx: &NodeCtx, round: Round, inbox: &[Envelope<P::Msg>]) -> NextWake {
        self.counters.rounds = round;
        let outcome = match self.step {
            // Half-duplex: a transmitter's inbox is discarded.
            Step::Transmit(_) => Heard::Transmitted,
            Step::Listen => self.hear(inbox),
            Step::Refuse(requested) => return NextWake::At(requested),
        };
        let next = self.protocol.heard(ctx, round, outcome);
        self.schedule(ctx, next, round)
    }
}

/// Runs `factory`-created radio protocols under `rule` on the
/// simulator's graph and configuration.
///
/// Pricing comes only from [`SimConfig::energy`](crate::SimConfig): pass
/// [`EnergyModel::radio_default`] for the classic one unit per
/// transmitting or listening round. Transmit bits are charged per copy
/// sent and receive bits per copy delivered, exactly as for CONGEST
/// protocols.
///
/// # Errors
///
/// Any [`SimError`] of the kernel: [`SimError::MaxRoundsExceeded`] if the
/// round budget runs out (idle rounds included),
/// [`SimError::WakeNotInFuture`] on an invalid schedule request,
/// [`SimError::EnergyExhausted`] under a budgeted model.
pub fn run<P, F>(
    sim: &Simulator<'_>,
    rule: CollisionRule,
    mut factory: F,
) -> Result<RadioOutcome<P>, SimError>
where
    P: RadioProtocol + Send,
    F: FnMut(&NodeCtx) -> P,
{
    let max_rounds = sim.config().max_rounds;
    let out = sim.run(|ctx| RadioAdapter {
        protocol: factory(ctx),
        rule,
        max_rounds,
        step: Step::Listen,
        counters: RadioStats::default(),
    })?;
    let mut radio = RadioStats::default();
    let mut states = Vec::with_capacity(out.states.len());
    for adapter in out.states {
        radio.absorb(&adapter.counters);
        states.push(adapter.protocol);
    }
    Ok(RadioOutcome {
        states,
        stats: out.stats,
        radio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnergyModel, SimConfig};
    use graphlib::{generators, NodeId, WeightedGraph};

    /// A simulator priced by the classic radio model.
    fn radio_sim(g: &WeightedGraph) -> Simulator<'_> {
        Simulator::new(
            g,
            SimConfig::default().with_energy(EnergyModel::radio_default()),
        )
    }

    /// Everyone transmits its id in round `r`, listens in round `r + 1`.
    #[derive(Debug)]
    struct PingAll {
        when: Round,
        heard: Option<Heard<u64>>,
    }

    impl RadioProtocol for PingAll {
        type Msg = u64;

        fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
            NextWake::At(self.when)
        }

        fn act(&mut self, ctx: &NodeCtx, round: Round) -> RadioAction<u64> {
            if round == self.when {
                RadioAction::Transmit(ctx.external_id)
            } else {
                RadioAction::Listen
            }
        }

        fn heard(&mut self, _ctx: &NodeCtx, round: Round, outcome: Heard<u64>) -> NextWake {
            if round == self.when {
                NextWake::At(round + 1)
            } else {
                self.heard = Some(outcome);
                NextWake::Halt
            }
        }
    }

    #[test]
    fn simultaneous_transmitters_do_not_reach_each_other() {
        // Everyone transmits in round 1 and listens in round 2: round 2 is
        // silent, so all nodes hear silence.
        let g = generators::ring(5, 0).unwrap();
        let out = run(&radio_sim(&g), CollisionRule::Local, |_| PingAll {
            when: 1,
            heard: None,
        })
        .unwrap();
        assert!(out.states.iter().all(|s| s.heard == Some(Heard::Silence)));
        assert_eq!(out.stats.energy_spent_by_node, vec![2; 5]);
        assert_eq!(out.radio.transmissions, 5);
        assert_eq!(out.radio.receptions, 0);
    }

    /// One designated transmitter per round; others listen.
    #[derive(Debug)]
    struct OneSpeaks {
        speaker: bool,
        heard: Option<Heard<u64>>,
    }

    impl RadioProtocol for OneSpeaks {
        type Msg = u64;

        fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
            NextWake::At(1)
        }

        fn act(&mut self, ctx: &NodeCtx, _round: Round) -> RadioAction<u64> {
            if self.speaker {
                RadioAction::Transmit(ctx.external_id)
            } else {
                RadioAction::Listen
            }
        }

        fn heard(&mut self, _ctx: &NodeCtx, _round: Round, outcome: Heard<u64>) -> NextWake {
            self.heard = Some(outcome);
            NextWake::Halt
        }
    }

    #[test]
    fn single_transmitter_reaches_neighbors_under_all_rules() {
        let g = generators::star(5, 0).unwrap(); // node 0 is the hub
        for rule in [
            CollisionRule::Local,
            CollisionRule::Detection,
            CollisionRule::Silence,
        ] {
            let out = run(&radio_sim(&g), rule, |ctx| OneSpeaks {
                speaker: ctx.node.raw() == 0,
                heard: None,
            })
            .unwrap();
            for leaf in 1..5 {
                match (&rule, out.states[leaf].heard.as_ref().unwrap()) {
                    (CollisionRule::Local, Heard::All(v)) => assert_eq!(v, &vec![1]),
                    (_, Heard::One(id)) => assert_eq!(*id, 1),
                    other => panic!("unexpected outcome under {rule:?}: {other:?}"),
                }
            }
            assert_eq!(out.states[0].heard, Some(Heard::Transmitted));
        }
    }

    #[test]
    fn collisions_depend_on_the_rule() {
        // Star: all 4 leaves transmit; the hub listens.
        let g = generators::star(5, 0).unwrap();
        for (rule, expect_collision_marker, expect_all) in [
            (CollisionRule::Local, false, true),
            (CollisionRule::Detection, true, false),
            (CollisionRule::Silence, false, false),
        ] {
            let out = run(&radio_sim(&g), rule, |ctx| OneSpeaks {
                speaker: ctx.node.raw() != 0,
                heard: None,
            })
            .unwrap();
            let hub = out.states[0].heard.clone().unwrap();
            match hub {
                Heard::All(v) => {
                    assert!(expect_all, "{rule:?}");
                    assert_eq!(v.len(), 4);
                }
                Heard::Collision => assert!(expect_collision_marker, "{rule:?}"),
                Heard::Silence => {
                    assert!(!expect_all && !expect_collision_marker, "{rule:?}")
                }
                other => panic!("unexpected hub outcome: {other:?}"),
            }
            if !matches!(rule, CollisionRule::Local) {
                assert_eq!(out.radio.collisions, 1);
            }
        }
    }

    #[test]
    fn idle_rounds_cost_no_energy() {
        #[derive(Debug)]
        struct Idler;
        impl RadioProtocol for Idler {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn act(&mut self, _: &NodeCtx, _: Round) -> RadioAction<u64> {
                RadioAction::Idle
            }
            fn heard(&mut self, _: &NodeCtx, round: Round, outcome: Heard<u64>) -> NextWake {
                assert_eq!(outcome, Heard::Idled);
                if round < 10 {
                    NextWake::At(round + 1)
                } else {
                    NextWake::Halt
                }
            }
        }
        let g = generators::ring(3, 0).unwrap();
        let out = run(&radio_sim(&g), CollisionRule::Local, |_| Idler).unwrap();
        assert_eq!(out.stats.energy_max(), 0);
        assert_eq!(out.radio.rounds, 10);
        assert_eq!(out.stats.energy_avg(), 0.0);
    }

    /// Radio runs are priced by the kernel's rules: transmit bits per
    /// copy sent, receive bits per copy delivered, and the idle cost on
    /// an awake round that receives nothing.
    #[test]
    fn custom_energy_model_prices_bits_and_idling() {
        // Star: the hub (node 0) transmits its 1-bit external id; leaves
        // listen. round=10, tx=3/bit, rx=2/bit, idle=7.
        let g = generators::star(5, 0).unwrap();
        let model = EnergyModel {
            round_cost: 10,
            tx_bit_cost: 3,
            rx_bit_cost: 2,
            idle_cost: 7,
            budget: None,
        };
        let speaks = |ctx: &NodeCtx| OneSpeaks {
            speaker: ctx.node.raw() == 0,
            heard: None,
        };
        let sim = Simulator::new(&g, SimConfig::default().with_energy(model));
        let out = run(&sim, CollisionRule::Local, speaks).unwrap();
        // Hub external id is 1 → bit_size 1: the round (10), four 1-bit
        // copies (3·4·1), and an empty inbox (7).
        assert_eq!(out.stats.energy_spent_by_node[0], 29);
        // Each leaf listens (10) and receives the 1-bit message (2·1).
        assert_eq!(out.stats.energy_spent_by_node[1..], [12, 12, 12, 12]);

        // The classic pricing: one unit per transmitting or listening
        // round.
        let classic = run(&radio_sim(&g), CollisionRule::Local, speaks).unwrap();
        assert_eq!(classic.stats.energy_spent_by_node, vec![1; 5]);
    }

    /// A budgeted model makes over-spending nodes fall silent and the
    /// run fail with the typed error, like the CONGEST kernel.
    #[test]
    fn energy_budget_exhaustion_is_typed() {
        // Everyone transmits in round 1 and would listen in round 2, but
        // a 1 nJ budget is exhausted by the first transmission (node 0:
        // round cost 1 + two 1-bit copies · 1 nJ = 3 > 1).
        let g = generators::ring(5, 0).unwrap();
        let model = EnergyModel::radio_default()
            .with_tx_bit_cost(1)
            .with_budget(1);
        let sim = Simulator::new(&g, SimConfig::default().with_energy(model));
        let err = run(&sim, CollisionRule::Local, |_| PingAll {
            when: 1,
            heard: None,
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::EnergyExhausted {
                    node,
                    round: 1,
                } if node == NodeId::new(0)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn round_budget_is_enforced() {
        #[derive(Debug)]
        struct Forever;
        impl RadioProtocol for Forever {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn act(&mut self, _: &NodeCtx, _: Round) -> RadioAction<u64> {
                RadioAction::Idle
            }
            fn heard(&mut self, _: &NodeCtx, round: Round, _: Heard<u64>) -> NextWake {
                NextWake::At(round + 1)
            }
        }
        let g = generators::ring(3, 0).unwrap();
        let sim = Simulator::new(&g, SimConfig::default().with_max_rounds(20));
        let err = run(&sim, CollisionRule::Local, |_| Forever).unwrap_err();
        assert!(matches!(err, SimError::MaxRoundsExceeded { limit: 20, .. }));
    }

    /// A wake request made in an idle round must be strictly later than
    /// that round; the kernel rejects it in the idle round itself.
    #[test]
    fn idle_round_wake_not_in_future_is_rejected() {
        #[derive(Debug)]
        struct StuckIdler;
        impl RadioProtocol for StuckIdler {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(2)
            }
            fn act(&mut self, _: &NodeCtx, round: Round) -> RadioAction<u64> {
                if round == 2 {
                    RadioAction::Listen
                } else {
                    RadioAction::Idle
                }
            }
            fn heard(&mut self, _: &NodeCtx, _: Round, _: Heard<u64>) -> NextWake {
                // Listen in round 2, idle in round 5, then ask for round 5
                // again.
                NextWake::At(5)
            }
        }
        let g = generators::ring(3, 0).unwrap();
        let err = run(&radio_sim(&g), CollisionRule::Local, |_| StuckIdler).unwrap_err();
        assert_eq!(
            err,
            SimError::WakeNotInFuture {
                node: NodeId::new(0),
                round: 5,
                requested: 5,
            }
        );
    }
}
