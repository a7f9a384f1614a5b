//! A Prim-style sequential-growth baseline in the sleeping model.
//!
//! One designated leader fragment repeatedly finds its minimum outgoing
//! edge and absorbs the far endpoint; every other node stays a singleton
//! fragment until it is absorbed. The algorithm produces the MST (Prim's
//! correctness) and it *does* sleep between blocks — yet its awake
//! complexity is **Θ(n)**: the leader fragment's nodes are awake `O(1)`
//! rounds in each of the `n − 1` phases, and singletons must wake for the
//! two `Transmit-Adjacent` blocks of every phase to answer the frontier.
//!
//! That is the pedagogical counterpoint to `Randomized-MST`: access to a
//! sleep state alone does not give small awake complexity — the paper's
//! *parallel star-merging* is what collapses `n − 1` sequential absorptions
//! into `O(log n)` phases.
//!
//! Phase layout (4 blocks): `FragIdExchange` (side), `UpcastMoe`,
//! `BcastMoe` (+DONE), `MergeInfo` (side, leader's endpoint sends the
//! attach notice; the absorbed singleton adopts directly — no sweeps are
//! needed because the absorbed fragment is always a single node).

use graphlib::Port;
use netsim::{Envelope, NextWake, NodeCtx, Outbox, Protocol, Round};

use crate::fragment::{FragmentCore, Step};
use crate::ldt::LdtView;
use crate::msg::MstMsg;
use crate::schedule::ts_offsets;
use crate::timeline::{Position, Timeline};

const FRAG_ID_EXCHANGE: u64 = 0;
const UPCAST_MOE: u64 = 1;
const BCAST_MOE: u64 = 2;
const MERGE_INFO: u64 = 3;
/// Blocks per phase of the Prim baseline.
pub const BLOCKS_PER_PHASE: u64 = 4;

/// The phase label of `round` in `Prim-MST`'s four-block schedule
/// (fragment-id exchange, MOE upcast/broadcast within the leader
/// fragment, frontier attach). Backs the observability plane's
/// [`phase_spans`](netsim::Metrics::phase_spans); total — never panics.
pub fn phase_label(n: usize, round: Round) -> &'static str {
    if round == 0 {
        return "init";
    }
    match Timeline::new(n, BLOCKS_PER_PHASE).position(round).block {
        FRAG_ID_EXCHANGE => "fragment-id-exchange",
        UPCAST_MOE => "upcast-moe",
        BCAST_MOE => "bcast-moe",
        MERGE_INFO => "merge-info",
        _ => "out-of-schedule",
    }
}

/// Per-node state of the Prim-style baseline. Implements
/// [`netsim::Protocol`].
#[derive(Debug, Clone)]
pub struct PrimMst {
    timeline: Timeline,
    core: FragmentCore,
    /// External id of the designated leader (fragment that grows).
    leader: u64,
    agg_moe: Option<u64>,
    frag_moe: Option<u64>,
    moe_port: Option<Port>,
    done: bool,
    phases: u64,
    next_step: Option<(u64, u64, u64, Step)>,
}

impl PrimMst {
    /// Creates the node state; the node whose external id equals
    /// `leader` roots the growing fragment (with the default `[1, n]` id
    /// assignment, pass `1`).
    pub fn new(ctx: &NodeCtx, leader: u64) -> Self {
        PrimMst {
            timeline: Timeline::new(ctx.n, BLOCKS_PER_PHASE),
            core: FragmentCore::new(ctx),
            leader,
            agg_moe: None,
            frag_moe: None,
            moe_port: None,
            done: false,
            phases: 0,
            next_step: None,
        }
    }

    /// `true` once the node has learned the MST is complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Completed absorption phases.
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

    fn in_leader_fragment(&self) -> bool {
        self.core.frag == self.leader
    }

    fn steps_for(&self, block: u64, degree: usize) -> Vec<(u64, Step)> {
        let o = ts_offsets(self.timeline.n(), self.core.level);
        let root = self.core.is_root();
        let kids = self.core.has_children();
        let mut steps = Vec::with_capacity(2);
        match block {
            FRAG_ID_EXCHANGE | MERGE_INFO if degree > 0 => {
                steps.push((o.side, Step::Side));
            }
            UPCAST_MOE if self.in_leader_fragment() => {
                if kids {
                    steps.push((o.up_receive, Step::UpReceive));
                }
                if let Some(up) = o.up_send {
                    steps.push((up, Step::UpSend));
                }
            }
            BCAST_MOE if self.in_leader_fragment() => {
                if let Some(dr) = o.down_receive {
                    steps.push((dr, Step::DownReceive));
                }
                if kids || root {
                    steps.push((o.down_send, Step::DownSend));
                }
            }
            _ => {}
        }
        // lint:allow(determinism) -- step offsets within a block are pairwise distinct by Timeline construction
        steps.sort_unstable_by_key(|&(off, _)| off);
        steps
    }

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
                self.core.apply_merge();
                self.core.clear_phase_scratch();
                self.agg_moe = None;
                self.frag_moe = None;
                self.moe_port = None;
                self.phases += 1;
            }
        }
    }
}

impl Protocol for PrimMst {
    type Msg = MstMsg;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        self.advance(0, 0, None, ctx.degree())
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<MstMsg>) {
        let (_, block, _, step) = self.next_step.expect("send only at planned wakes");
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
                let local = self.core.local_moe(ctx).map(|(w, _)| w);
                let agg = match (self.agg_moe, local) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                outbox.push(
                    self.core.parent.expect("UpSend implies a parent"),
                    MstMsg::UpMoe(agg),
                );
            }
            (BCAST_MOE, Step::DownSend) => {
                if self.core.is_root() {
                    let local = self.core.local_moe(ctx);
                    self.frag_moe = match (self.agg_moe, local.map(|(w, _)| w)) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
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
            (MERGE_INFO, Step::Side) => {
                for p in ctx.ports() {
                    let attach = self.in_leader_fragment() && self.moe_port == Some(p);
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
                        self.agg_moe = match (self.agg_moe, w) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
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
                                if let Some((lw, lp)) = self.core.local_moe(ctx) {
                                    if lw == w {
                                        self.moe_port = Some(lp);
                                    }
                                }
                            }
                        }
                    }
                }
                if self.done && !self.core.has_children() {
                    return NextWake::Halt;
                }
            }
            (BCAST_MOE, Step::DownSend) if self.done => {
                return NextWake::Halt;
            }
            (MERGE_INFO, Step::Side) => {
                for env in inbox {
                    if let MstMsg::FragInfo {
                        frag,
                        level,
                        attach,
                    } = env.msg
                    {
                        if attach {
                            // We are the absorbed singleton: adopt directly.
                            debug_assert!(!self.core.has_children());
                            self.core.new_vals = Some((level + 1, frag));
                            self.core.new_parent = Some(env.port);
                            self.core.mst_ports[env.port.index()] = true;
                        }
                        if self.in_leader_fragment() && self.moe_port == Some(env.port) {
                            // We are the frontier endpoint: gain a child.
                            self.core.mst_ports[env.port.index()] = true;
                            self.core.pending_children.push(env.port);
                        }
                    }
                }
            }
            _ => {}
        }
        self.advance(phase, block, Some(offset), ctx.degree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::collect_mst_edges;
    use graphlib::{generators, mst};
    use netsim::{SimConfig, Simulator};

    #[test]
    fn phase_labels_follow_the_block_layout() {
        let n = 6;
        let t = Timeline::new(n, BLOCKS_PER_PHASE);
        assert_eq!(phase_label(n, 0), "init");
        let labels = [
            "fragment-id-exchange",
            "upcast-moe",
            "bcast-moe",
            "merge-info",
        ];
        for (b, want) in labels.iter().enumerate() {
            assert_eq!(phase_label(n, t.block_start(0, b as u64)), *want);
            assert_eq!(phase_label(n, t.block_start(2, b as u64)), *want);
        }
    }

    fn run(graph: &graphlib::WeightedGraph) -> netsim::RunOutcome<PrimMst> {
        Simulator::new(graph, SimConfig::default())
            .run(|ctx| PrimMst::new(ctx, 1))
            .expect("prim baseline run fails")
    }

    #[test]
    fn matches_kruskal_on_assorted_graphs() {
        let graphs = [
            generators::ring(12, 2).unwrap(),
            generators::path(10, 3).unwrap(),
            generators::complete(9, 5).unwrap(),
            generators::random_connected(20, 0.2, 7).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let out = run(g);
            let edges = collect_mst_edges(g, &out.states, |s| s.mst_ports()).unwrap();
            assert_eq!(edges, mst::kruskal(g).edges, "graph {i}");
        }
    }

    #[test]
    fn absorbs_one_node_per_phase() {
        let g = generators::random_connected(16, 0.2, 1).unwrap();
        let out = run(&g);
        let phases = out.states.iter().map(PrimMst::phases).max().unwrap();
        assert_eq!(phases, 15, "n - 1 absorption phases");
    }

    #[test]
    fn awake_complexity_is_linear_not_logarithmic() {
        // The contrast with Randomized-MST is in the *growth rate*:
        // doubling n roughly doubles Prim's awake max (Θ(n)) while the
        // parallel algorithm's grows like log n.
        let awake_at = |n: usize, parallel: bool| -> u64 {
            let g = generators::random_connected(n, 0.15, 3).unwrap();
            if parallel {
                Simulator::new(&g, SimConfig::default())
                    .run(crate::randomized::RandomizedMst::new)
                    .unwrap()
                    .stats
                    .awake_max()
            } else {
                run(&g).stats.awake_max()
            }
        };
        let (prim_small, prim_big) = (awake_at(24, false), awake_at(96, false));
        assert!(
            prim_big >= 3 * prim_small,
            "prim awake should scale ~linearly: {prim_small} → {prim_big}"
        );
        assert!(
            prim_big >= 2 * (96 - 1),
            "even singletons wake twice per phase: awake {prim_big} at n=96"
        );
        let (par_small, par_big) = (awake_at(24, true), awake_at(96, true));
        assert!(
            par_big < 3 * par_small.max(1),
            "parallel awake should scale ~logarithmically: {par_small} → {par_big}"
        );
    }

    #[test]
    fn leader_can_be_any_id() {
        let g = generators::random_connected(10, 0.3, 4).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|ctx| PrimMst::new(ctx, 7))
            .unwrap();
        let edges = collect_mst_edges(&g, &out.states, |s| s.mst_ports()).unwrap();
        assert_eq!(edges, mst::kruskal(&g).edges);
    }

    #[test]
    fn single_node_is_immediately_done() {
        let g = graphlib::GraphBuilder::new(1).build().unwrap();
        let out = run(&g);
        assert!(out.states[0].is_done());
        assert_eq!(out.stats.awake_max(), 1);
    }
}
