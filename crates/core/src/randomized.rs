//! `Randomized-MST` (Section 2.2): the awake-optimal randomized algorithm.
//!
//! Each phase is ten transmission-schedule blocks on the global timeline:
//!
//! | # | block | procedure | purpose |
//! |---|---|---|---|
//! | 0 | `FragIdExchange`  | Transmit-Adjacent   | learn neighbors' (fragment, level) |
//! | 1 | `UpcastMoe`       | Upcast-Min          | fragment MOE to the root |
//! | 2 | `BcastMoe`        | Fragment-Broadcast  | MOE to all; `None` ⇒ DONE, halt |
//! | 3 | `CoinBcast`       | Fragment-Broadcast  | root's coin flip to all |
//! | 4 | `CoinExchange`    | Transmit-Adjacent   | coins + MOE flags across fragments |
//! | 5 | `UpcastValidity`  | Upcast-Min          | is our MOE tails→heads? |
//! | 6 | `BcastValidity`   | Fragment-Broadcast  | "we merge this phase" to all |
//! | 7 | `MergeInfo`       | Transmit-Adjacent   | `u_T` learns `u_H`'s (fragment, level); attach notice |
//! | 8 | `MergeUp`         | Transmission-Schedule | NEW-vals sweep from `u_T` up to the old root |
//! | 9 | `MergeDown`       | Transmission-Schedule | NEW-vals sweep to off-path nodes |
//!
//! A fragment's MOE is *valid* iff its root flipped tails and the target
//! fragment's root flipped heads; only valid MOEs are merged, which keeps
//! every merge a star around a heads fragment and therefore `O(1)` awake
//! rounds. Expected constant-factor fragment decay gives `O(log n)` phases
//! w.h.p.; each node is awake `O(1)` rounds per phase and each phase is
//! `O(n)` rounds, matching the paper's `O(log n)` awake / `O(n log n)`
//! round bounds.

use graphlib::Port;
use netsim::{Envelope, NextWake, NodeCtx, Outbox, Protocol, Round};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fragment::{FragmentCore, Step};
use crate::ldt::LdtView;
use crate::msg::MstMsg;
use crate::schedule::ts_offsets;
use crate::timeline::{Position, Timeline};

/// Blocks per phase of `Randomized-MST`.
pub const BLOCKS_PER_PHASE: u64 = 10;

const FRAG_ID_EXCHANGE: u64 = 0;
const UPCAST_MOE: u64 = 1;
const BCAST_MOE: u64 = 2;
const COIN_BCAST: u64 = 3;
const COIN_EXCHANGE: u64 = 4;
const UPCAST_VALIDITY: u64 = 5;
const BCAST_VALIDITY: u64 = 6;
const MERGE_INFO: u64 = 7;
const MERGE_UP: u64 = 8;
const MERGE_DOWN: u64 = 9;

/// The Figures 2–5 phase label of `round` in `Randomized-MST`'s block
/// schedule (LDT build, minimum-outgoing-edge upcast/broadcast, coin
/// tossing, validity check, fragment merge). `Spanning-Tree` and the
/// always-awake baseline share the identical timeline, so the registry
/// reuses this labeler for all three. Backs the observability plane's
/// [`phase_spans`](netsim::Metrics::phase_spans); total — never panics.
pub fn phase_label(n: usize, round: Round) -> &'static str {
    if round == 0 {
        return "init";
    }
    match Timeline::new(n, BLOCKS_PER_PHASE).position(round).block {
        FRAG_ID_EXCHANGE => "fragment-id-exchange",
        UPCAST_MOE => "upcast-moe",
        BCAST_MOE => "bcast-moe",
        COIN_BCAST => "coin-bcast",
        COIN_EXCHANGE => "coin-exchange",
        UPCAST_VALIDITY => "upcast-validity",
        BCAST_VALIDITY => "bcast-validity",
        MERGE_INFO => "merge-info",
        MERGE_UP => "merge-up",
        MERGE_DOWN => "merge-down",
        _ => "out-of-schedule",
    }
}

/// How a node picks its outgoing-edge candidate in Step (i).
///
/// The paper's MST algorithm uses [`EdgeSelection::MinWeight`] (the MOE).
/// [`EdgeSelection::MinPort`] instead grabs the first outgoing port — the
/// merging machinery is identical, but the result is only *some* spanning
/// tree, reproducing the Barenboim–Maimon-style contrast the paper draws:
/// an LDT-based construction yields an arbitrary spanning tree for free,
/// and it is exactly the minimum-outgoing-edge choice that upgrades it to
/// the MST at no awake-complexity cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeSelection {
    /// Minimum-weight outgoing edge — the MOE of GHS; output is the MST.
    #[default]
    MinWeight,
    /// Lowest-numbered outgoing port — output is an arbitrary spanning
    /// tree (still `O(log n)` awake).
    MinPort,
}

/// Tunables for the ablation experiments. [`RandomizedConfig::PAPER`]
/// (also the [`Default`]) reproduces the paper exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedConfig {
    /// Probability a fragment root flips heads (paper: fair coin, `0.5`).
    // lint:allow(determinism) -- config knob handed to the seeded RNG's gen_bool; never arithmetic on state
    pub heads_probability: f64,
    /// If `false`, skip the coin-flip pruning entirely and merge along
    /// *every* MOE (the ablation showing why Step (i)'s restriction is
    /// needed — merge chains stop being stars and the staged NEW-vals can
    /// no longer reach everyone in one sweep, so the LDT invariant breaks
    /// or awake time blows up).
    pub prune_with_coins: bool,
    /// Outgoing-edge choice (MST vs arbitrary spanning tree).
    pub selection: EdgeSelection,
}

impl RandomizedConfig {
    /// The paper's parameters: fair coins, pruning on, minimum-weight
    /// outgoing edges.
    pub const PAPER: RandomizedConfig = RandomizedConfig {
        heads_probability: 0.5, // lint:allow(determinism) -- the paper's fair coin, fed to the seeded RNG
        prune_with_coins: true,
        selection: EdgeSelection::MinWeight,
    };
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Per-node state of `Randomized-MST`. Implements [`netsim::Protocol`];
/// create instances with [`RandomizedMst::new`] inside the simulator
/// factory.
#[derive(Debug, Clone)]
pub struct RandomizedMst {
    timeline: Timeline,
    core: FragmentCore,
    rng: SmallRng,
    config: RandomizedConfig,

    // --- phase scratch ---
    /// Min MOE weight aggregated from children during `UpcastMoe`.
    agg_moe: Option<u64>,
    /// The fragment MOE weight after `BcastMoe` (`None` = done).
    frag_moe: Option<u64>,
    /// `Some(port)` iff this node is the fragment's MOE endpoint `u_T`.
    moe_port: Option<Port>,
    /// This fragment's coin for the phase.
    coin_heads: bool,
    /// At `u_T`: was our MOE tails→heads?
    valid_out: Option<bool>,
    /// Validity aggregated from children during `UpcastValidity`.
    agg_valid: Option<bool>,
    /// Does this fragment merge this phase?
    merging: bool,

    done: bool,
    phases: u64,
    /// The next planned wake: (phase, block, offset, step).
    next_step: Option<(u64, u64, u64, Step)>,
}

impl RandomizedMst {
    /// Creates the node state for `ctx` with the paper's parameters.
    pub fn new(ctx: &NodeCtx) -> Self {
        Self::with_config(ctx, RandomizedConfig::default())
    }

    /// Creates the node state with ablation overrides.
    pub fn with_config(ctx: &NodeCtx, config: RandomizedConfig) -> Self {
        RandomizedMst {
            timeline: Timeline::new(ctx.n, BLOCKS_PER_PHASE),
            core: FragmentCore::new(ctx),
            rng: SmallRng::seed_from_u64(ctx.rng_seed),
            config,
            agg_moe: None,
            frag_moe: None,
            moe_port: None,
            coin_heads: false,
            valid_out: None,
            agg_valid: None,
            merging: false,
            done: false,
            phases: 0,
            next_step: None,
        }
    }

    /// `true` once the node has learned the MST is complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Number of completed merge phases this node went through.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Output: `true` at index `p` iff the edge behind port `p` is an MST
    /// edge.
    pub fn mst_ports(&self) -> &[bool] {
        &self.core.mst_ports
    }

    /// LDT snapshot for invariant checking.
    pub fn ldt_view(&self) -> LdtView {
        self.core.ldt_view()
    }

    /// The node's outgoing-edge candidate as `(weight, port)` — the
    /// weight stays in the tuple under either selection rule because it is
    /// the globally unique identifier the upcast/broadcast use to locate
    /// the chosen endpoint.
    fn local_candidate(&self, ctx: &NodeCtx) -> Option<(u64, Port)> {
        match self.config.selection {
            EdgeSelection::MinWeight => self.core.local_moe(ctx),
            EdgeSelection::MinPort => self.core.nbr.iter().enumerate().find_map(|(i, info)| {
                let (frag, _) = (*info)?;
                (frag != self.core.frag).then(|| (ctx.port_weights[i], Port::new(i as u32)))
            }),
        }
    }

    /// The node's wake schedule inside one block, sorted by offset.
    fn steps_for(&self, block: u64, degree: usize) -> Vec<(u64, Step)> {
        let o = ts_offsets(self.timeline.n(), self.core.level);
        let root = self.core.is_root();
        let kids = self.core.has_children();
        let mut steps = Vec::with_capacity(2);
        match block {
            FRAG_ID_EXCHANGE | COIN_EXCHANGE | MERGE_INFO => {
                if degree > 0 {
                    steps.push((o.side, Step::Side));
                }
            }
            UPCAST_MOE | UPCAST_VALIDITY => {
                if kids {
                    steps.push((o.up_receive, Step::UpReceive));
                }
                if let Some(up) = o.up_send {
                    steps.push((up, Step::UpSend));
                }
            }
            BCAST_MOE | COIN_BCAST | BCAST_VALIDITY => {
                if let Some(dr) = o.down_receive {
                    steps.push((dr, Step::DownReceive));
                }
                if kids || root {
                    // Childless roots keep one wake here: it is where a
                    // singleton fragment does its local MOE/coin/validity
                    // bookkeeping (and where DONE is decided).
                    steps.push((o.down_send, Step::DownSend));
                }
            }
            MERGE_UP => {
                if self.merging {
                    if kids {
                        steps.push((o.up_receive, Step::UpReceive));
                    }
                    if let Some(up) = o.up_send {
                        steps.push((up, Step::UpSend));
                    }
                }
            }
            MERGE_DOWN => {
                if self.merging {
                    if let Some(dr) = o.down_receive {
                        steps.push((dr, Step::DownReceive));
                    }
                    if kids {
                        steps.push((o.down_send, Step::DownSend));
                    }
                }
            }
            _ => unreachable!("randomized timeline has {BLOCKS_PER_PHASE} blocks"),
        }
        // lint:allow(determinism) -- step offsets within a block are pairwise distinct by Timeline construction
        steps.sort_unstable_by_key(|&(off, _)| off);
        steps
    }

    /// Finds the next wake at or after (`phase`, `block`, offsets past
    /// `after`), applying phase-end updates whenever the scan crosses a
    /// phase boundary.
    fn advance(
        &mut self,
        mut phase: u64,
        mut block: u64,
        mut after: Option<u64>,
        degree: usize,
    ) -> NextWake {
        loop {
            let next = self
                .steps_for(block, degree)
                .into_iter()
                .find(|&(off, _)| after.is_none_or(|a| off > a));
            if let Some((offset, step)) = next {
                self.next_step = Some((phase, block, offset, step));
                return NextWake::At(self.timeline.round(Position {
                    phase,
                    block,
                    offset,
                }));
            }
            after = None;
            block += 1;
            if block == BLOCKS_PER_PHASE {
                block = 0;
                phase += 1;
                self.end_phase();
            }
        }
    }

    fn end_phase(&mut self) {
        self.core.apply_merge();
        self.core.clear_phase_scratch();
        self.agg_moe = None;
        self.frag_moe = None;
        self.moe_port = None;
        self.coin_heads = false;
        self.valid_out = None;
        self.agg_valid = None;
        self.merging = false;
        self.phases += 1;
    }

    /// The fragment-level validity verdict at the root (folds the root's
    /// own `u_T` knowledge with the upcast aggregate).
    fn root_validity(&self) -> bool {
        let own = if self.moe_port.is_some() {
            self.valid_out
        } else {
            None
        };
        own.or(self.agg_valid).unwrap_or(false)
    }
}

impl Protocol for RandomizedMst {
    type Msg = MstMsg;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        self.advance(0, 0, None, ctx.degree())
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<MstMsg>) {
        let (phase, block, offset, step) = self.next_step.expect("send only at planned wakes");
        debug_assert_eq!(
            self.timeline.round(Position {
                phase,
                block,
                offset
            }),
            round
        );

        match (block, step) {
            (FRAG_ID_EXCHANGE, Step::Side) => {
                for p in ctx.ports() {
                    outbox.push(
                        p,
                        MstMsg::FragInfo {
                            frag: self.core.frag,
                            level: self.core.level,
                            attach: false,
                        },
                    );
                }
            }

            (UPCAST_MOE, Step::UpSend) => {
                let local = self.local_candidate(ctx).map(|(w, _)| w);
                let agg = min_opt(self.agg_moe, local);
                outbox.push(
                    self.core.parent.expect("UpSend implies a parent"),
                    MstMsg::UpMoe(agg),
                );
            }

            (BCAST_MOE, Step::DownSend) => {
                if self.core.is_root() {
                    // Fold own candidate, fix the fragment MOE, detect DONE.
                    let local = self.local_candidate(ctx);
                    self.frag_moe = min_opt(self.agg_moe, local.map(|(w, _)| w));
                    match self.frag_moe {
                        None => self.done = true,
                        Some(w) => {
                            if local.map(|(lw, _)| lw) == Some(w) {
                                self.moe_port = local.map(|(_, p)| p);
                            }
                        }
                    }
                }
                for &p in &self.core.children {
                    outbox.push(p, MstMsg::DownMoe(self.frag_moe));
                }
            }

            (COIN_BCAST, Step::DownSend) => {
                if self.core.is_root() {
                    self.coin_heads = !self.config.prune_with_coins
                        || self.rng.gen_bool(self.config.heads_probability);
                }
                for &p in &self.core.children {
                    outbox.push(p, MstMsg::DownCoin(self.coin_heads));
                }
            }

            (COIN_EXCHANGE, Step::Side) => {
                for p in ctx.ports() {
                    outbox.push(
                        p,
                        MstMsg::SideCoin {
                            heads: self.coin_heads,
                            over_moe: self.moe_port == Some(p),
                        },
                    );
                }
            }

            (UPCAST_VALIDITY, Step::UpSend) => {
                let own = if self.moe_port.is_some() {
                    self.valid_out
                } else {
                    None
                };
                outbox.push(
                    self.core.parent.expect("UpSend implies a parent"),
                    MstMsg::UpValid(own.or(self.agg_valid)),
                );
            }

            (BCAST_VALIDITY, Step::DownSend) => {
                if self.core.is_root() {
                    self.merging = self.root_validity();
                }
                for &p in &self.core.children {
                    outbox.push(p, MstMsg::DownMerging(self.merging));
                }
            }

            (MERGE_INFO, Step::Side) => {
                for p in ctx.ports() {
                    let attach = self.merging && self.moe_port == Some(p);
                    outbox.push(
                        p,
                        MstMsg::FragInfo {
                            frag: self.core.frag,
                            level: self.core.level,
                            attach,
                        },
                    );
                }
            }

            (MERGE_UP, Step::UpSend) => {
                if let Some((level, frag)) = self.core.new_vals {
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::MergeVals { level, frag },
                    );
                }
            }

            (MERGE_DOWN, Step::DownSend) => {
                if let Some((level, frag)) = self.core.new_vals {
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::MergeVals { level, frag });
                    }
                }
            }

            // Pure listening steps send nothing.
            _ => {}
        }
    }

    fn deliver(&mut self, ctx: &NodeCtx, _round: Round, inbox: &[Envelope<MstMsg>]) -> NextWake {
        let (phase, block, offset, step) = self
            .next_step
            .take()
            .expect("deliver only at planned wakes");

        match (block, step) {
            (FRAG_ID_EXCHANGE, Step::Side) => {
                for env in inbox {
                    if let MstMsg::FragInfo { frag, level, .. } = env.msg {
                        self.core.nbr[env.port.index()] = Some((frag, level));
                    }
                }
            }

            (UPCAST_MOE, Step::UpReceive) => {
                for env in inbox {
                    if let MstMsg::UpMoe(w) = env.msg {
                        self.agg_moe = min_opt(self.agg_moe, w);
                    }
                }
            }

            (BCAST_MOE, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::DownMoe(moe) = env.msg {
                        self.frag_moe = moe;
                        match moe {
                            None => self.done = true,
                            Some(w) => {
                                if let Some((lw, lp)) = self.local_candidate(ctx) {
                                    if lw == w {
                                        self.moe_port = Some(lp);
                                    }
                                }
                            }
                        }
                    }
                }
                // Leaves are finished with the broadcast: halt on DONE.
                if self.done && !self.core.has_children() {
                    return NextWake::Halt;
                }
            }
            (BCAST_MOE, Step::DownSend)
                // Root and internal nodes have now forwarded DONE.
                if self.done => {
                    return NextWake::Halt;
                }

            (COIN_BCAST, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::DownCoin(heads) = env.msg {
                        self.coin_heads = heads;
                    }
                }
            }

            (COIN_EXCHANGE, Step::Side) => {
                for env in inbox {
                    if let MstMsg::SideCoin { heads, .. } = env.msg {
                        if self.moe_port == Some(env.port) {
                            // Our MOE is valid iff we are tails and the
                            // target fragment is heads (or pruning is off).
                            self.valid_out = Some(
                                !self.config.prune_with_coins || (!self.coin_heads && heads),
                            );
                        }
                    }
                }
            }

            (UPCAST_VALIDITY, Step::UpReceive) => {
                for env in inbox {
                    if let MstMsg::UpValid(v) = env.msg {
                        self.agg_valid = self.agg_valid.or(v);
                    }
                }
            }

            (BCAST_VALIDITY, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::DownMerging(m) = env.msg {
                        self.merging = m;
                    }
                }
            }

            (MERGE_INFO, Step::Side) => {
                for env in inbox {
                    if let MstMsg::FragInfo { frag, level, attach } = env.msg {
                        if self.merging && self.moe_port == Some(env.port) {
                            // I am u_T: stage NEW-vals from u_H's info.
                            self.core.new_vals = Some((level + 1, frag));
                            self.core.new_parent = Some(env.port);
                            self.core.mst_ports[env.port.index()] = true;
                        }
                        if attach {
                            // I am u_H: the far fragment merges into mine.
                            self.core.mst_ports[env.port.index()] = true;
                            self.core.pending_children.push(env.port);
                        }
                    }
                }
            }

            (MERGE_UP, Step::UpReceive) => {
                for env in inbox {
                    if let MstMsg::MergeVals { level, frag } = env.msg {
                        if self.core.new_vals.is_none() {
                            self.core.new_vals = Some((level + 1, frag));
                            self.core.new_parent = Some(env.port);
                        }
                    }
                }
            }

            (MERGE_DOWN, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::MergeVals { level, frag } = env.msg {
                        if self.core.new_vals.is_none() {
                            self.core.new_vals = Some((level + 1, frag));
                        }
                    }
                }
            }

            // Steps that only send.
            _ => {}
        }

        self.advance(phase, block, Some(offset), ctx.degree())
    }
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldt::check_forest;
    use graphlib::{generators, mst};
    use netsim::{SimConfig, Simulator};

    #[test]
    fn phase_labels_follow_the_block_layout() {
        let n = 5;
        let t = Timeline::new(n, BLOCKS_PER_PHASE);
        assert_eq!(phase_label(n, 0), "init");
        let labels = [
            "fragment-id-exchange",
            "upcast-moe",
            "bcast-moe",
            "coin-bcast",
            "coin-exchange",
            "upcast-validity",
            "bcast-validity",
            "merge-info",
            "merge-up",
            "merge-down",
        ];
        for (b, want) in labels.iter().enumerate() {
            assert_eq!(phase_label(n, t.block_start(0, b as u64)), *want);
            // Labels are periodic in the phase: phase 3 reads the same.
            assert_eq!(phase_label(n, t.block_start(3, b as u64)), *want);
            // Every offset of the block carries the block's label.
            assert_eq!(
                phase_label(n, t.block_start(0, b as u64) + t.block_len() - 1),
                *want
            );
        }
    }

    fn run(graph: &graphlib::WeightedGraph, seed: u64) -> netsim::RunOutcome<RandomizedMst> {
        Simulator::new(graph, SimConfig::default().with_seed(seed))
            .run(RandomizedMst::new)
            .expect("randomized MST run fails")
    }

    fn mst_edges(
        graph: &graphlib::WeightedGraph,
        states: &[RandomizedMst],
    ) -> Vec<graphlib::EdgeId> {
        let mut ids = std::collections::BTreeSet::new();
        for v in graph.nodes() {
            for (i, &marked) in states[v.index()].mst_ports().iter().enumerate() {
                if marked {
                    ids.insert(graph.port_entry(v, graphlib::Port::new(i as u32)).edge);
                }
            }
        }
        ids.into_iter().collect()
    }

    #[test]
    fn single_node_halts_after_one_awake_round() {
        let g = graphlib::GraphBuilder::new(1).build().unwrap();
        let out = run(&g, 0);
        assert_eq!(out.stats.awake_max(), 1);
        assert!(out.states[0].is_done());
    }

    #[test]
    fn two_nodes_pick_their_edge() {
        let g = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 5)
            .build()
            .unwrap();
        let out = run(&g, 3);
        let edges = mst_edges(&g, &out.states);
        assert_eq!(edges.len(), 1);
        assert!(out.states.iter().all(RandomizedMst::is_done));
    }

    #[test]
    fn matches_kruskal_on_small_graphs() {
        for seed in 0..8 {
            let g = generators::random_connected(24, 0.2, seed).unwrap();
            let out = run(&g, seed * 7 + 1);
            let expected = mst::kruskal(&g);
            assert_eq!(mst_edges(&g, &out.states), expected.edges, "seed {seed}");
        }
    }

    #[test]
    fn matches_kruskal_on_rings_paths_grids() {
        let graphs = [
            generators::ring(17, 2).unwrap(),
            generators::path(23, 3).unwrap(),
            generators::grid(4, 6, 4).unwrap(),
            generators::complete(10, 5).unwrap(),
            generators::star(15, 6).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let out = run(g, 11 + i as u64);
            assert_eq!(
                mst_edges(g, &out.states),
                mst::kruskal(g).edges,
                "graph {i}"
            );
        }
    }

    #[test]
    fn both_endpoints_agree_on_every_mst_edge() {
        let g = generators::random_connected(30, 0.15, 9).unwrap();
        let out = run(&g, 1);
        for v in g.nodes() {
            for (i, &marked) in out.states[v.index()].mst_ports().iter().enumerate() {
                let entry = g.port_entry(v, graphlib::Port::new(i as u32));
                let back = g.port_to(entry.neighbor, v).unwrap();
                let far = out.states[entry.neighbor.index()].mst_ports()[back.index()];
                assert_eq!(marked, far, "edge {v}-{} disagrees", entry.neighbor);
            }
        }
    }

    #[test]
    fn ldt_invariant_holds_at_every_phase_boundary() {
        let g = generators::random_connected(20, 0.2, 5).unwrap();
        let timeline = Timeline::new(20, BLOCKS_PER_PHASE);
        let phase_len = timeline.phase_len();
        let mut checked = 0;
        let mut last_phase = 0;
        Simulator::new(&g, SimConfig::default().with_seed(2))
            .run_with_observer(RandomizedMst::new, |round, states: &[RandomizedMst]| {
                // Check right after the first active round of each phase
                // (phase-end updates were applied during planning).
                let phase = (round - 1) / phase_len;
                if phase > last_phase {
                    last_phase = phase;
                    let views: Vec<LdtView> = states.iter().map(|s| s.ldt_view()).collect();
                    check_forest(&g, &views).expect("FLDT invariant violated");
                    checked += 1;
                }
            })
            .unwrap();
        assert!(checked >= 1, "never crossed a phase boundary");
    }

    #[test]
    fn awake_complexity_is_logarithmic() {
        // O(1) awake rounds per phase and O(log n) phases: for n = 64 the
        // awake max should be far below, say, 60·log2(n).
        let g = generators::random_connected(64, 0.1, 3).unwrap();
        let out = run(&g, 4);
        let bound = 60.0 * (64f64).log2();
        assert!(
            (out.stats.awake_max() as f64) < bound,
            "awake {} exceeds {bound}",
            out.stats.awake_max()
        );
    }

    #[test]
    fn round_complexity_is_n_log_n_scale() {
        let g = generators::random_connected(48, 0.1, 8).unwrap();
        let out = run(&g, 4);
        let phase_len = Timeline::new(48, BLOCKS_PER_PHASE).phase_len();
        // Every run takes whole phases: rounds ≈ phases × 10(2n+1).
        let phases = out.states[0].phases();
        assert!(out.stats.rounds >= phases * phase_len);
        assert!(out.stats.rounds <= (phases + 1) * phase_len);
    }

    #[test]
    fn messages_respect_congest_limit() {
        let g = generators::random_connected(32, 0.2, 6).unwrap();
        // Generous c·log n budget: 8·log2(32·…) — the weights live in a
        // poly(n) space, so 8·⌈log2 n⌉ + 64 is a safe CONGEST envelope.
        let limit = 8 * 5 + 64;
        Simulator::new(&g, SimConfig::default().with_seed(7).with_bit_limit(limit))
            .run(RandomizedMst::new)
            .expect("a message exceeded the CONGEST limit");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::random_connected(20, 0.2, 1).unwrap();
        let a = run(&g, 42);
        let b = run(&g, 42);
        assert_eq!(a.stats, b.stats);
        assert_eq!(mst_edges(&g, &a.states), mst_edges(&g, &b.states));
    }

    #[test]
    fn disconnected_graph_builds_a_forest() {
        // Two triangles, no connection.
        let g = graphlib::GraphBuilder::new(6)
            .edge(0, 1, 1)
            .edge(1, 2, 2)
            .edge(0, 2, 3)
            .edge(3, 4, 4)
            .edge(4, 5, 5)
            .edge(3, 5, 6)
            .build()
            .unwrap();
        let out = run(&g, 2);
        let edges = mst_edges(&g, &out.states);
        assert_eq!(edges, mst::kruskal(&g).edges);
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn ablation_without_coin_pruning_breaks_merging() {
        // With pruning disabled, two singleton fragments each treat their
        // shared MOE as a valid merge edge, become each other's parent, and
        // never converge — the failure mode Step (i)'s restriction exists
        // to prevent. Bound the run and expect it to blow the budget (or,
        // if a lucky schedule escapes, at least not panic).
        let g = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 5)
            .build()
            .unwrap();
        let result = std::panic::catch_unwind(|| {
            Simulator::new(&g, SimConfig::default().with_max_rounds(10_000)).run(|ctx| {
                RandomizedMst::with_config(
                    ctx,
                    RandomizedConfig {
                        heads_probability: 0.5,
                        prune_with_coins: false,
                        ..Default::default()
                    },
                )
            })
        });
        // Either the fragments swap ids forever (round budget), or the
        // forged levels outgrow n and trip the schedule's assertion.
        let broke = match result {
            Err(_) => true, // level assertion panicked
            Ok(Err(netsim::SimError::MaxRoundsExceeded { .. })) => true,
            Ok(other) => panic!("mutual merging unexpectedly converged: {other:?}"),
        };
        assert!(broke);
    }

    #[test]
    fn coin_bias_ablation_converges() {
        let g = generators::random_connected(16, 0.2, 3).unwrap();
        for bias in [0.2, 0.8] {
            let out = Simulator::new(&g, SimConfig::default().with_seed(5))
                .run(|ctx| {
                    RandomizedMst::with_config(
                        ctx,
                        RandomizedConfig {
                            heads_probability: bias,
                            prune_with_coins: true,
                            ..Default::default()
                        },
                    )
                })
                .unwrap();
            assert_eq!(
                mst_edges(&g, &out.states),
                mst::kruskal(&g).edges,
                "bias {bias}"
            );
        }
    }
}
