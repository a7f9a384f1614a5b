//! The LDT toolbox ported to the energy-complexity (radio) model —
//! Appendix A made executable.
//!
//! The paper observes that the sleeping model and the **Local variant** of
//! the energy model (no collisions) are essentially interchangeable:
//! upper bounds transfer both ways. These protocols demonstrate that
//! claim concretely:
//!
//! * under [`CollisionRule::Local`], the `Transmission-Schedule`-based
//!   broadcast and upcast run with the *same* `O(1)` energy and `O(n)`
//!   time as their sleeping-model counterparts;
//! * under the *real* radio rules ([`CollisionRule::Detection`] /
//!   [`CollisionRule::Silence`]) the very same schedules break: two
//!   children answering their parent in the same round collide, and two
//!   same-depth transmitters sharing a listener collide. The tests
//!   construct both failure modes — this is the gap the paper's
//!   "possibly polylog(n) multiplicative factor" remark accounts for
//!   (collision-free slotting costs extra time or energy).

use netsim::radio::{Heard, RadioAction, RadioProtocol};
use netsim::{NextWake, NodeCtx, Round};

use crate::schedule::ts_offsets;
use crate::toolbox::TreeSpec;

#[cfg(doc)]
use netsim::radio::CollisionRule;

/// Tree broadcast over the radio channel: the root's value cascades down
/// the LDT on the usual schedule (`Down-Send` transmit, `Down-Receive`
/// listen).
///
/// Energy 1–2 per node. Correct under [`CollisionRule::Local`] on any
/// tree; under collision rules it requires that no listener has two
/// same-depth transmitting neighbors (true on paths, false in general —
/// see the tests).
#[derive(Debug, Clone)]
pub struct RadioBroadcast {
    spec: TreeSpec,
    /// The value held (pre-set at the root, received below).
    pub value: Option<u64>,
    /// Whether this node observed a collision instead of its parent's
    /// message.
    pub collided: bool,
    phase: u8,
}

impl RadioBroadcast {
    /// Creates the per-node state; pass `Some(value)` at the root.
    pub fn new(spec: TreeSpec, value: Option<u64>) -> Self {
        RadioBroadcast {
            spec,
            value,
            collided: false,
            phase: 0,
        }
    }
}

impl RadioProtocol for RadioBroadcast {
    type Msg = u64;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        let o = ts_offsets(ctx.n, self.spec.level);
        match o.down_receive {
            Some(dr) => NextWake::At(dr + 1),
            None if !self.spec.children.is_empty() => NextWake::At(o.down_send + 1),
            None => NextWake::Halt,
        }
    }

    fn act(&mut self, _ctx: &NodeCtx, _round: Round) -> RadioAction<u64> {
        let sending = self.phase == 1 || (self.phase == 0 && self.spec.parent.is_none());
        if sending {
            match self.value {
                Some(v) => RadioAction::Transmit(v),
                None => RadioAction::Idle, // nothing reached us (collision upstream)
            }
        } else {
            RadioAction::Listen
        }
    }

    fn heard(&mut self, ctx: &NodeCtx, _round: Round, outcome: Heard<u64>) -> NextWake {
        let o = ts_offsets(ctx.n, self.spec.level);
        if self.phase == 0 && self.spec.parent.is_some() {
            match outcome {
                Heard::All(values) => self.value = values.first().copied(),
                Heard::One(v) => self.value = Some(v),
                Heard::Collision => self.collided = true,
                _ => {}
            }
            self.phase = 1;
            if self.spec.children.is_empty() {
                return NextWake::Halt;
            }
            return NextWake::At(o.down_send + 1);
        }
        NextWake::Halt
    }
}

/// Tree min-upcast over the radio channel on the usual schedule: children
/// transmit at `Up-Send`, parents listen at `Up-Receive`.
///
/// Correct under [`CollisionRule::Local`] (the channel delivers every
/// child's value). Under collision rules, any node with two or more
/// children collides by construction — the tests verify exactly that,
/// which is why a faithful energy-model port needs per-child slotting
/// (time × Δ or an id-indexed window, time × N).
#[derive(Debug, Clone)]
pub struct RadioUpcastMin {
    spec: TreeSpec,
    /// Own value going in; at the root, the subtree minimum coming out
    /// (if no collision corrupted it).
    pub value: u64,
    /// Did this node's `Up-Receive` round collide?
    pub collided: bool,
    phase: u8,
}

impl RadioUpcastMin {
    /// Creates the per-node state with this node's input value.
    pub fn new(spec: TreeSpec, value: u64) -> Self {
        RadioUpcastMin {
            spec,
            value,
            collided: false,
            phase: 0,
        }
    }
}

impl RadioProtocol for RadioUpcastMin {
    type Msg = u64;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        let o = ts_offsets(ctx.n, self.spec.level);
        if !self.spec.children.is_empty() {
            NextWake::At(o.up_receive + 1)
        } else if let Some(up) = o.up_send {
            NextWake::At(up + 1)
        } else {
            NextWake::Halt
        }
    }

    fn act(&mut self, _ctx: &NodeCtx, _round: Round) -> RadioAction<u64> {
        let at_up_send = self.phase == 1 || (self.phase == 0 && self.spec.children.is_empty());
        if at_up_send && self.spec.parent.is_some() {
            RadioAction::Transmit(self.value)
        } else if !at_up_send {
            RadioAction::Listen
        } else {
            RadioAction::Idle
        }
    }

    fn heard(&mut self, ctx: &NodeCtx, _round: Round, outcome: Heard<u64>) -> NextWake {
        let o = ts_offsets(ctx.n, self.spec.level);
        if self.phase == 0 && !self.spec.children.is_empty() {
            match outcome {
                Heard::All(values) => {
                    for v in values {
                        self.value = self.value.min(v);
                    }
                }
                Heard::One(v) => self.value = self.value.min(v),
                Heard::Collision => self.collided = true,
                _ => {}
            }
            self.phase = 1;
            if let (Some(up), Some(_)) = (o.up_send, self.spec.parent) {
                return NextWake::At(up + 1);
            }
            return NextWake::Halt;
        }
        NextWake::Halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolbox::TreeSpec;
    use graphlib::{generators, mst, GraphBuilder, NodeId, WeightedGraph};
    use netsim::radio::{self, CollisionRule};
    use netsim::{EnergyModel, SimConfig, Simulator};

    /// A simulator priced by the classic radio model.
    fn radio_sim(g: &WeightedGraph) -> Simulator<'_> {
        Simulator::new(
            g,
            SimConfig::default().with_energy(EnergyModel::radio_default()),
        )
    }

    fn tree_specs(graph: &graphlib::WeightedGraph) -> Vec<TreeSpec> {
        let t = mst::kruskal(graph);
        TreeSpec::from_tree_edges(graph, &t.edges, NodeId::new(0))
    }

    #[test]
    fn local_variant_broadcast_matches_sleeping_cost() {
        // Appendix A: the Local energy model behaves like the sleeping
        // model — same schedule, same O(1) energy, everyone informed.
        let g = generators::random_connected(24, 0.15, 5).unwrap();
        let specs = tree_specs(&g);
        let out = radio::run(&radio_sim(&g), CollisionRule::Local, |ctx| {
            let payload = (ctx.node.raw() == 0).then_some(777);
            RadioBroadcast::new(specs[ctx.node.index()].clone(), payload)
        })
        .unwrap();
        assert!(out.states.iter().all(|s| s.value == Some(777)));
        assert!(out.stats.energy_max() <= 2);
        assert!(out.radio.rounds <= 2 * 24 + 1);
    }

    #[test]
    fn broadcast_survives_detection_on_a_path() {
        // On a path every listener has exactly one transmitting neighbor.
        let g = generators::path(12, 3).unwrap();
        let specs = tree_specs(&g);
        let out = radio::run(&radio_sim(&g), CollisionRule::Detection, |ctx| {
            let payload = (ctx.node.raw() == 0).then_some(5);
            RadioBroadcast::new(specs[ctx.node.index()].clone(), payload)
        })
        .unwrap();
        assert!(out.states.iter().all(|s| s.value == Some(5)));
        assert_eq!(out.radio.collisions, 0);
    }

    /// The diamond-with-cross-edge graph: node 3 neighbors both depth-1
    /// transmitters, which broadcast simultaneously.
    fn collision_graph() -> (graphlib::WeightedGraph, Vec<TreeSpec>) {
        // Tree: 0 → {1, 2}; 1 → 3; 2 → 4. Extra (non-tree) edge 2–3.
        let g = GraphBuilder::new(5)
            .edge(0, 1, 1)
            .edge(0, 2, 2)
            .edge(1, 3, 3)
            .edge(2, 4, 4)
            .edge(2, 3, 5)
            .build()
            .unwrap();
        let tree: Vec<graphlib::EdgeId> = (0..4).map(graphlib::EdgeId::new).collect();
        let specs = TreeSpec::from_tree_edges(&g, &tree, NodeId::new(0));
        (g, specs)
    }

    #[test]
    fn broadcast_collides_without_the_local_rule() {
        let (g, specs) = collision_graph();
        // Node 3 listens while nodes 1 AND 2 (both its neighbors) transmit.
        let run = |rule| {
            radio::run(&radio_sim(&g), rule, |ctx: &NodeCtx| {
                let payload = (ctx.node.raw() == 0).then_some(9);
                RadioBroadcast::new(specs[ctx.node.index()].clone(), payload)
            })
            .unwrap()
        };
        let local = run(CollisionRule::Local);
        assert!(
            local.states.iter().all(|s| s.value == Some(9)),
            "Local must succeed"
        );

        let detect = run(CollisionRule::Detection);
        assert!(detect.states[3].collided, "node 3 must hear a collision");
        assert_eq!(detect.states[3].value, None);
        assert!(detect.radio.collisions >= 1);

        let silent = run(CollisionRule::Silence);
        assert_eq!(silent.states[3].value, None, "collision hidden as silence");
        assert!(!silent.states[3].collided, "silence rule gives no marker");
    }

    #[test]
    fn local_variant_upcast_finds_the_minimum() {
        let g = generators::random_connected(20, 0.2, 7).unwrap();
        let specs = tree_specs(&g);
        let values: Vec<u64> = (0..20).map(|i| 500 + (i * 37) % 113).collect();
        let expected = *values.iter().min().unwrap();
        let out = radio::run(&radio_sim(&g), CollisionRule::Local, |ctx| {
            RadioUpcastMin::new(specs[ctx.node.index()].clone(), values[ctx.node.index()])
        })
        .unwrap();
        assert_eq!(out.states[0].value, expected);
        assert!(out.stats.energy_max() <= 2);
    }

    #[test]
    fn upcast_with_two_children_collides_under_radio_rules() {
        // Star rooted at the hub: all leaves answer at the same Up-Send.
        let g = generators::star(5, 2).unwrap();
        let specs = tree_specs(&g);
        // Hub holds a large value so the collided and successful runs are
        // distinguishable at the root.
        let value_of = |ctx: &NodeCtx| {
            if ctx.node.raw() == 0 {
                999
            } else {
                100 + u64::from(ctx.node.raw())
            }
        };
        let upcast =
            |ctx: &NodeCtx| RadioUpcastMin::new(specs[ctx.node.index()].clone(), value_of(ctx));
        let out = radio::run(&radio_sim(&g), CollisionRule::Detection, upcast).unwrap();
        assert!(out.states[0].collided, "hub with 4 children must collide");
        assert_eq!(out.states[0].value, 999, "hub keeps only its own value");

        // The Local variant on the same instance is fine.
        let out = radio::run(&radio_sim(&g), CollisionRule::Local, upcast).unwrap();
        assert_eq!(out.states[0].value, 101);
    }

    /// Checks that a radio run under the Local rule and the classic radio
    /// pricing is the sleeping run node for node: one unit of energy per
    /// sleeping-model awake round, the same awake rounds, and the same
    /// last round.
    fn assert_same_run<P>(
        label: &str,
        sleeping: &netsim::RunStats,
        radio: &radio::RadioOutcome<P>,
    ) {
        assert_eq!(
            radio.stats.energy_spent_by_node, sleeping.awake_by_node,
            "{label}: energy"
        );
        assert_eq!(
            radio.stats.awake_by_node, sleeping.awake_by_node,
            "{label}: awake rounds"
        );
        assert_eq!(radio.radio.rounds, sleeping.rounds, "{label}: last round");
    }

    /// Appendix A as a differential test: the sleeping model is the
    /// collision-free Local variant of the energy model. On seeded random
    /// graphs and their MSTs, the radio toolbox under
    /// [`CollisionRule::Local`] and the sleeping toolbox keep the same
    /// schedule node for node, and the radio energy ledger equals the
    /// sleeping awake count. Broadcast ends with the same value at every
    /// node. Upcast ends with the same minimum at the root; below it a
    /// radio listener also overhears non-child neighbors that transmit in
    /// its `Up-Receive` round, so its value can only be smaller.
    #[test]
    fn local_variant_is_the_sleeping_model_node_for_node() {
        use crate::toolbox::{Broadcast, UpcastMin};
        for seed in 0..24u64 {
            let n = 8 + (seed as usize % 6) * 5;
            let g = generators::random_connected(n, 0.2, seed).unwrap();
            let specs = tree_specs(&g);
            let sleeping = Simulator::new(&g, SimConfig::default().with_seed(seed));
            let priced = Simulator::new(
                &g,
                SimConfig::default()
                    .with_seed(seed)
                    .with_energy(EnergyModel::radio_default()),
            );
            let spec = |ctx: &NodeCtx| specs[ctx.node.index()].clone();

            let payload = |ctx: &NodeCtx| (ctx.node.raw() == 0).then_some(1000 + seed);
            let s = sleeping
                .run(|ctx| Broadcast::new(spec(ctx), payload(ctx)))
                .unwrap();
            let r = radio::run(&priced, CollisionRule::Local, |ctx| {
                RadioBroadcast::new(spec(ctx), payload(ctx))
            })
            .unwrap();
            let label = format!("broadcast seed {seed}");
            for (v, (a, b)) in s.states.iter().zip(&r.states).enumerate() {
                assert_eq!(a.value, b.value, "{label}: value at node {v}");
            }
            assert_same_run(&label, &s.stats, &r);

            let value = |ctx: &NodeCtx| (ctx.rng_seed % 997) + 1;
            let s = sleeping
                .run(|ctx| UpcastMin::new(spec(ctx), value(ctx)))
                .unwrap();
            let r = radio::run(&priced, CollisionRule::Local, |ctx| {
                RadioUpcastMin::new(spec(ctx), value(ctx))
            })
            .unwrap();
            let label = format!("upcast seed {seed}");
            assert_eq!(s.states[0].value, r.states[0].value, "{label}: root");
            for (v, (a, b)) in s.states.iter().zip(&r.states).enumerate() {
                assert!(b.value <= a.value, "{label}: value at node {v}");
            }
            assert_same_run(&label, &s.stats, &r);
        }
    }
}
