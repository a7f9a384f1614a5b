//! `Deterministic-MST` (Section 2.3): the awake-optimal deterministic
//! algorithm.
//!
//! The randomized algorithm's coin flips are replaced by two deterministic
//! mechanisms:
//!
//! 1. **MOE sparsification (step (i))** — every fragment selects at most
//!    three of its *incoming* MOEs as valid (a token distribution from the
//!    root caps the count), and its own outgoing MOE is valid only if the
//!    target fragment selected it. The pruned supergraph `G'` therefore
//!    has maximum degree 4 (≤ 3 in + 1 out).
//! 2. **`Fast-Awake-Coloring(n, N)` (step (ii))** — fragments greedily
//!    5-color `G'` in fragment-id order over `N` stages; a fragment and
//!    its ≤ 4 neighbors participate in at most 5 stages, so coloring costs
//!    `O(1)` awake rounds but `O(nN)` running time — the source of the
//!    algorithm's `O(nN log n)` round complexity.
//!
//! Blue fragments (the highest-priority color) merge into an arbitrary
//! `G'` neighbor; blue fragments with no `G'` neighbors ("singletons")
//! merge along their original MOE after a refresh exchange. Lemma 4 shows
//! blue fragments are ≥ a constant fraction in every large component, so
//! the fragment count decays geometrically.
//!
//! ## Phase layout (blocks on the global timeline)
//!
//! | block | name | purpose |
//! |---|---|---|
//! | 0 | `FragIdExchange` | learn neighbor (fragment, level) |
//! | 1 | `UpcastMoe` | fragment MOE to root |
//! | 2 | `BcastMoe` | MOE to all; `None` ⇒ DONE, halt |
//! | 3 | `MoeFlagExchange` | discover incoming MOEs |
//! | 4 | `UpCount` | count incoming-MOE edges per subtree |
//! | 5 | `TokenDown` | distribute ≤ 3 validity tokens |
//! | 6 | `ValidNotify` | tell MOE sources their verdict |
//! | 7 | `UpNbrs` | union NBR-INFO to root |
//! | 8 | `BcastNbrs` | NBR-INFO to all |
//! | 9 … 9+3N−1 | `Coloring` stage `s`, sub 0/1/2 | announce / upcast / broadcast colors |
//! | 9+3N | `MergeInfo1` | attach notices for blue-with-neighbor merges |
//! | 10+3N | `MergeUp1` | NEW-vals sweep to old roots |
//! | 11+3N | `MergeDown1` | NEW-vals sweep to off-path nodes (then apply) |
//! | 12+3N | `MergeInfo2` | refresh + singleton attach notices |
//! | 13+3N | `MergeUp2` | singleton sweep up |
//! | 14+3N | `MergeDown2` | singleton sweep down (apply at phase end) |

use std::collections::BTreeMap;

use graphlib::Port;
use netsim::{Envelope, NextWake, NodeCtx, Outbox, Protocol, Round};

use crate::fragment::{FragmentCore, Step};
use crate::ldt::LdtView;
use crate::msg::{Color, Dir, MstMsg, NbrSet};
use crate::schedule::ts_offsets;
use crate::timeline::{Position, Timeline};

const FRAG_ID_EXCHANGE: u64 = 0;
const UPCAST_MOE: u64 = 1;
const BCAST_MOE: u64 = 2;
const MOE_FLAG_EXCHANGE: u64 = 3;
const UP_COUNT: u64 = 4;
const TOKEN_DOWN: u64 = 5;
const VALID_NOTIFY: u64 = 6;
const UP_NBRS: u64 = 7;
const BCAST_NBRS: u64 = 8;
const COLORING_START: u64 = 9;

/// Which coloring procedure step (ii) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringMode {
    /// The paper's `Fast-Awake-Coloring(n, N)`: `N` id-indexed stages,
    /// `O(1)` awake, `O(nN)` rounds per phase.
    #[default]
    FastAwake,
    /// Corollary 1's replacement: Cole–Vishkin color reduction on the
    /// MOE pseudo-forest, `O(log* N)` awake and `O(n log* N)` rounds per
    /// phase — trading a `log*` factor of awake time for an `N/log*`
    /// factor of run time.
    ColeVishkin,
}

/// Tunables for ablations and variants. [`DeterministicConfig::PAPER`]
/// (also the [`Default`]) reproduces the paper (token cap 3,
/// `Fast-Awake-Coloring`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicConfig {
    /// Maximum number of incoming MOEs a fragment declares valid
    /// (paper: 3, giving `G'` maximum degree 4). Values above 3 violate
    /// the NBR-INFO capacity and five-color palette, which are sized for
    /// degree `cap + 1 = 4`, and will panic — the cap is structural, not
    /// just a tuning knob.
    pub token_cap: u64,
    /// Coloring procedure (paper's default, or the Corollary 1 variant).
    pub coloring: ColoringMode,
}

impl DeterministicConfig {
    /// The paper's parameters: token cap 3, `Fast-Awake-Coloring`.
    pub const PAPER: DeterministicConfig = DeterministicConfig {
        token_cap: 3,
        coloring: ColoringMode::FastAwake,
    };
}

impl Default for DeterministicConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Number of Cole–Vishkin iterations needed to reduce colors in `[1, N]`
/// to at most six (values `0..=5`): the bit-width recurrence
/// `b ← ⌈log₂(2(b−1)+1+1)⌉` iterated to 3 bits, plus one final step.
/// Grows like `log* N` (it is `O(log* N)` plus the constant tail).
pub fn cv_iterations(id_bound: u64) -> u64 {
    let mut b = netsim::bits_for_value(id_bound) as u64;
    let mut t = 0;
    while b > 3 {
        b = netsim::bits_for_value(2 * (b - 1) + 1) as u64;
        t += 1;
    }
    t + 1
}

/// The phase label of `round` in `Deterministic-MST`'s block schedule:
/// the nine controlled-merge preparation blocks, the coloring window
/// (whose width depends on the id bound `N` and the `coloring` mode —
/// pass the graph's `max_external_id` and the run's
/// [`DeterministicConfig::coloring`]), and the two trailing
/// `Merging-Fragments` invocations. Backs the observability plane's
/// [`phase_spans`](netsim::Metrics::phase_spans); total — never panics.
pub fn phase_label(n: usize, id_bound: u64, coloring: ColoringMode, round: Round) -> &'static str {
    if round == 0 {
        return "init";
    }
    let coloring_blocks = match coloring {
        ColoringMode::FastAwake => 3 * id_bound,
        ColoringMode::ColeVishkin => 3 * (cv_iterations(id_bound) + 8),
    };
    let timeline = Timeline::new(n, 9 + coloring_blocks + 6);
    let block = timeline.position(round).block;
    match block {
        FRAG_ID_EXCHANGE => "fragment-id-exchange",
        UPCAST_MOE => "upcast-moe",
        BCAST_MOE => "bcast-moe",
        MOE_FLAG_EXCHANGE => "moe-flag-exchange",
        UP_COUNT => "up-count",
        TOKEN_DOWN => "token-down",
        VALID_NOTIFY => "valid-notify",
        UP_NBRS => "upcast-neighbors",
        BCAST_NBRS => "bcast-neighbors",
        b if (COLORING_START..COLORING_START + coloring_blocks).contains(&b) => "coloring",
        b => match b - (COLORING_START + coloring_blocks) {
            0 | 3 => "merge-info",
            1 | 4 => "merge-up",
            2 | 5 => "merge-down",
            _ => "out-of-schedule",
        },
    }
}

/// One Cole–Vishkin step: the new color is `2i + bit_i(mine)` where `i` is
/// the lowest bit position where `mine` and `parent` differ.
fn cv_step(mine: u64, parent: u64) -> u64 {
    debug_assert_ne!(
        mine, parent,
        "CV requires a proper coloring along parent links"
    );
    let i = u64::from((mine ^ parent).trailing_zeros());
    2 * i + ((mine >> i) & 1)
}

/// Bit index of a palette color in the 5-bit masks.
fn color_bit(c: Color) -> u8 {
    1 << Color::PALETTE
        .iter()
        .position(|&x| x == c)
        .expect("palette color")
}

/// The colors present in a 5-bit mask.
fn mask_colors(mask: u8) -> Vec<Color> {
    Color::PALETTE
        .iter()
        .copied()
        .filter(|&c| mask & color_bit(c) != 0)
        .collect()
}

/// Per-node state of `Deterministic-MST`. Implements [`netsim::Protocol`].
#[derive(Debug, Clone)]
pub struct DeterministicMst {
    timeline: Timeline,
    core: FragmentCore,
    /// The id bound `N`: number of coloring stages.
    id_bound: u64,
    config: DeterministicConfig,

    // --- step (i) scratch ---
    agg_moe: Option<u64>,
    frag_moe: Option<u64>,
    /// `Some(port)` iff this node is the fragment's outgoing-MOE endpoint.
    moe_port: Option<Port>,
    /// Ports carrying an incoming MOE this phase (ascending).
    in_moe_ports: Vec<Port>,
    /// Incoming-MOE edge counts reported by each child subtree.
    child_counts: BTreeMap<Port, u64>,
    /// Token allocations to forward to children.
    child_tokens: BTreeMap<Port, u64>,
    /// The incoming MOEs this node selected as valid.
    valid_in_ports: Vec<Port>,
    /// At the outgoing-MOE endpoint: did the target select our MOE?
    out_valid: Option<bool>,
    /// NBR-INFO union aggregated from children.
    agg_nbrs: NbrSet,
    /// Final fragment NBR-INFO after `BcastNbrs`.
    nbr_info: NbrSet,

    // --- coloring scratch (Fast-Awake-Coloring mode) ---
    /// Colors of neighbor fragments, keyed by fragment id.
    nbr_colors: BTreeMap<u64, Color>,
    /// Color received from the staged fragment this stage: (stage, color).
    stage_recv: Option<(u64, Color)>,
    /// Color aggregated up the tree this stage: (stage, color).
    stage_agg: Option<(u64, Color)>,

    // --- coloring scratch (Cole–Vishkin mode) ---
    /// Does this fragment have a CV parent (a valid outgoing MOE that is
    /// not the dropped side of a shared-edge 2-cycle)?
    cv_has_parent: bool,
    /// Current CV color (parent-fragments only; root fragments derive
    /// theirs lazily).
    cv_color: u64,
    /// Number of CV updates applied to `cv_color`.
    cv_iter: u64,
    /// Parent color received this iteration triple: (triple, color).
    cv_recv: Option<(u64, u64)>,
    /// Parent color aggregated up the tree this triple: (triple, color).
    cv_agg: Option<(u64, u64)>,
    /// Has-parent verdict aggregated up the tree (prep triple).
    cv_flag_agg: Option<bool>,
    /// Per-port CV class of the `G'` neighbor behind each port.
    nbr_cv_color_by_port: Vec<Option<u64>>,
    /// 6-bit mask of neighbor CV classes (fragment-wide).
    nbr_cv_mask: u8,
    /// 5-bit mask of neighbors' *final* colors accumulated so far.
    final_nbr_mask: u8,
    /// Mask scratch for the current triple: (triple, mask).
    mask_recv: Option<(u64, u8)>,
    /// Upward mask aggregate for the current triple: (triple, mask).
    mask_agg: Option<(u64, u8)>,
    /// Downward value being forwarded this triple: (triple, word).
    cv_bcast: Option<(u64, u64)>,
    /// Downward mask being forwarded this triple: (triple, mask).
    mask_bcast: Option<(u64, u8)>,
    /// This fragment's final color (CV mode).
    final_color: Option<Color>,

    // --- merging scratch ---
    /// Blue with `G'` neighbors: merges in the first `Merging-Fragments`.
    merging1: bool,
    /// Singleton blue: merges in the second `Merging-Fragments`.
    merging2: bool,
    /// Attach port for whichever merge applies.
    attach_port: Option<Port>,

    done: bool,
    phases: u64,
    next_step: Option<(u64, u64, u64, Step)>,
}

impl DeterministicMst {
    /// Creates the node state for `ctx` with the paper's parameters.
    pub fn new(ctx: &NodeCtx) -> Self {
        Self::with_config(ctx, DeterministicConfig::default())
    }

    /// Creates the node state with ablation overrides.
    pub fn with_config(ctx: &NodeCtx, config: DeterministicConfig) -> Self {
        let id_bound = ctx.max_external_id;
        let coloring_blocks = match config.coloring {
            ColoringMode::FastAwake => 3 * id_bound,
            ColoringMode::ColeVishkin => 3 * (cv_iterations(id_bound) + 8),
        };
        DeterministicMst {
            timeline: Timeline::new(ctx.n, 9 + coloring_blocks + 6),
            core: FragmentCore::new(ctx),
            id_bound,
            config,
            agg_moe: None,
            frag_moe: None,
            moe_port: None,
            in_moe_ports: Vec::new(),
            child_counts: BTreeMap::new(),
            child_tokens: BTreeMap::new(),
            valid_in_ports: Vec::new(),
            out_valid: None,
            agg_nbrs: NbrSet::new(),
            nbr_info: NbrSet::new(),
            nbr_colors: BTreeMap::new(),
            stage_recv: None,
            stage_agg: None,
            cv_has_parent: false,
            cv_color: 0,
            cv_iter: 0,
            cv_recv: None,
            cv_agg: None,
            cv_flag_agg: None,
            nbr_cv_color_by_port: vec![None; ctx.degree()],
            nbr_cv_mask: 0,
            final_nbr_mask: 0,
            mask_recv: None,
            mask_agg: None,
            cv_bcast: None,
            mask_bcast: None,
            final_color: None,
            merging1: false,
            merging2: false,
            attach_port: None,
            done: false,
            phases: 0,
            next_step: None,
        }
    }

    /// `true` once the node has learned the MST is complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Number of completed merge phases.
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

    // --- timeline geometry ---

    fn coloring_end(&self) -> u64 {
        COLORING_START
            + match self.config.coloring {
                ColoringMode::FastAwake => 3 * self.id_bound,
                ColoringMode::ColeVishkin => 3 * (cv_iterations(self.id_bound) + 8),
            }
    }
    fn merge_info1(&self) -> u64 {
        self.coloring_end()
    }
    fn merge_up1(&self) -> u64 {
        self.coloring_end() + 1
    }
    fn merge_down1(&self) -> u64 {
        self.coloring_end() + 2
    }
    fn merge_info2(&self) -> u64 {
        self.coloring_end() + 3
    }
    fn merge_up2(&self) -> u64 {
        self.coloring_end() + 4
    }
    fn merge_down2(&self) -> u64 {
        self.coloring_end() + 5
    }

    /// Decodes a coloring block index into (stage id in `[1, N]`, sub-block)
    /// — `Fast-Awake-Coloring` mode only.
    fn stage_of(&self, block: u64) -> Option<(u64, u64)> {
        (self.config.coloring == ColoringMode::FastAwake
            && (COLORING_START..self.coloring_end()).contains(&block))
        .then(|| {
            (
                1 + (block - COLORING_START) / 3,
                (block - COLORING_START) % 3,
            )
        })
    }

    /// Decodes a coloring block index into (triple, sub-block) — CV mode.
    ///
    /// Triples: `0` has-parent prep; `1..=T` CV iterations; `T+1` class
    /// exchange; `T+2+c` recolor stage of class `c ∈ 0..=5`.
    fn cv_triple_of(&self, block: u64) -> Option<(u64, u64)> {
        (self.config.coloring == ColoringMode::ColeVishkin
            && (COLORING_START..self.coloring_end()).contains(&block))
        .then(|| ((block - COLORING_START) / 3, (block - COLORING_START) % 3))
    }

    /// The color this fragment announces in CV iteration triple `k`
    /// (1-based), i.e. after `k - 1` updates.
    fn cv_color_for_triple(&self, k: u64) -> u64 {
        let applied = k - 1;
        if applied == 0 {
            self.core.frag
        } else if self.cv_has_parent {
            debug_assert_eq!(self.cv_iter, applied, "parent fragments track every update");
            self.cv_color
        } else {
            // Root rule applied once is already a fixpoint: c → c & 1.
            self.core.frag & 1
        }
    }

    /// The fragment's CV class after all `T` iterations (values `0..=5`).
    fn cv_class(&self) -> u64 {
        self.cv_color_for_triple(cv_iterations(self.id_bound) + 1)
    }

    /// Applies the CV update of iteration `triple` using the parent
    /// fragment's color, and stages the value for downward forwarding.
    fn apply_cv_update(&mut self, triple: u64, parent: u64) {
        let current = self.cv_color_for_triple(triple);
        self.cv_color = cv_step(current, parent);
        self.cv_iter = triple;
        self.cv_bcast = Some((triple, parent));
    }

    /// Fixes (or returns) this fragment's final color: the highest
    /// priority not used by already-recolored neighbors.
    fn fix_final_color(&mut self) -> Color {
        if let Some(f) = self.final_color {
            return f;
        }
        let f = Color::pick(&mask_colors(self.final_nbr_mask));
        self.final_color = Some(f);
        f
    }

    fn or_mask_recv(&mut self, triple: u64, bits: u8) {
        let cur = self
            .mask_recv
            .and_then(|(k, m)| (k == triple).then_some(m))
            .unwrap_or(0);
        self.mask_recv = Some((triple, cur | bits));
    }

    fn or_mask_agg(&mut self, triple: u64, bits: u8) {
        let cur = self
            .mask_agg
            .and_then(|(k, m)| (k == triple).then_some(m))
            .unwrap_or(0);
        self.mask_agg = Some((triple, cur | bits));
    }

    // --- fragment-level derived facts ---

    /// Ports that carry `G'` edges (valid MOEs), with the far fragment id.
    fn gprime_ports(&self) -> Vec<(Port, u64)> {
        let mut out = Vec::new();
        for &p in &self.valid_in_ports {
            if let Some((f, _)) = self.core.nbr[p.index()] {
                out.push((p, f));
            }
        }
        if self.out_valid == Some(true) {
            if let Some(p) = self.moe_port {
                if let Some((f, _)) = self.core.nbr[p.index()] {
                    out.push((p, f));
                }
            }
        }
        out
    }

    /// This fragment's color at merge time.
    ///
    /// `Fast-Awake-Coloring`: the greedy color — highest priority unused
    /// by smaller-id `G'` neighbors (well-defined from this fragment's
    /// stage onward). Cole–Vishkin: the final color fixed in the recolor
    /// stages (singletons are vacuously `Blue`).
    fn my_color(&self) -> Color {
        if self.config.coloring == ColoringMode::ColeVishkin {
            if self.nbr_info.is_empty() {
                return Color::Blue;
            }
            return self
                .final_color
                .expect("recolor stages fix the final color");
        }
        let used: Vec<Color> = self
            .nbr_info
            .fragments()
            .into_iter()
            .filter(|&f| f < self.core.frag)
            .map(|f| {
                *self
                    .nbr_colors
                    .get(&f)
                    .expect("smaller-id neighbors are colored before our stage")
            })
            .collect();
        Color::pick(&used)
    }

    /// Decides the merge roles after coloring (idempotent).
    fn decide_merging(&mut self) {
        let blue = self.my_color() == Color::Blue;
        self.merging1 = blue && !self.nbr_info.is_empty();
        self.merging2 = blue && self.nbr_info.is_empty();
        self.attach_port = None;
        if self.merging1 {
            let choice = *self
                .nbr_info
                .fragments()
                .first()
                .expect("merging1 implies neighbors");
            if self.nbr_info.contains(choice, Dir::Out) {
                // Our own valid outgoing MOE targets the chosen fragment.
                if self.out_valid == Some(true) {
                    if let Some(p) = self.moe_port {
                        if self.core.nbr[p.index()].map(|(f, _)| f) == Some(choice) {
                            self.attach_port = Some(p);
                        }
                    }
                }
            } else {
                // Attach over the chosen fragment's (unique) valid MOE into us.
                self.attach_port = self
                    .valid_in_ports
                    .iter()
                    .copied()
                    .find(|p| self.core.nbr[p.index()].map(|(f, _)| f) == Some(choice));
            }
        } else if self.merging2 {
            self.attach_port = self.moe_port;
        }
    }

    /// The `u_T`-local verdict on whether this fragment has a CV parent:
    /// the outgoing MOE must be valid, and if the same edge is also the
    /// target's (valid) MOE — a would-be 2-cycle — the smaller fragment id
    /// drops its parent pointer and roots the pseudo-tree.
    fn cv_parent_verdict(&self) -> Option<bool> {
        let p = self.moe_port?;
        if self.out_valid != Some(true) {
            return Some(false);
        }
        let shared_both_valid = self.valid_in_ports.contains(&p);
        let far = self.core.nbr[p.index()].map(|(f, _)| f).unwrap_or(0);
        Some(!(shared_both_valid && self.core.frag < far))
    }

    /// The node's wake schedule inside one block, sorted by offset.
    fn steps_for(&self, block: u64, degree: usize) -> Vec<(u64, Step)> {
        let o = ts_offsets(self.timeline.n(), self.core.level);
        let root = self.core.is_root();
        let kids = self.core.has_children();
        let mut steps = Vec::with_capacity(2);

        let upcast_shape = |steps: &mut Vec<(u64, Step)>| {
            if kids {
                steps.push((o.up_receive, Step::UpReceive));
            }
            if let Some(up) = o.up_send {
                steps.push((up, Step::UpSend));
            }
        };
        let bcast_shape = |steps: &mut Vec<(u64, Step)>| {
            if let Some(dr) = o.down_receive {
                steps.push((dr, Step::DownReceive));
            }
            if kids || root {
                steps.push((o.down_send, Step::DownSend));
            }
        };

        if let Some((stage, sub)) = self.stage_of(block) {
            let mine = self.core.frag == stage;
            let listening = self.nbr_info.contains_fragment(stage);
            match sub {
                0 => {
                    let has_edge_to_stage =
                        self.gprime_ports()
                            .iter()
                            .any(|&(_, f)| if mine { true } else { f == stage });
                    if (mine || listening) && has_edge_to_stage && degree > 0 {
                        steps.push((o.side, Step::Side));
                    }
                }
                1 if listening => upcast_shape(&mut steps),
                2 if listening => bcast_shape(&mut steps),
                _ => {}
            }
            // lint:allow(determinism) -- step offsets within a block are pairwise distinct by Timeline construction
            steps.sort_unstable_by_key(|&(off, _)| off);
            return steps;
        }

        if let Some((triple, sub)) = self.cv_triple_of(block) {
            // Singleton fragments (no G' neighbors) sleep through the
            // whole coloring segment and default to Blue.
            if self.nbr_info.is_empty() {
                return steps;
            }
            let t = cv_iterations(self.id_bound);
            let boundary = !self.gprime_ports().is_empty();
            match triple {
                // Has-parent prep: disseminate u_T's verdict.
                0 => match sub {
                    1 => upcast_shape(&mut steps),
                    2 => bcast_shape(&mut steps),
                    _ => {}
                },
                // CV iterations: boundary announce, parent-fragments
                // disseminate the received parent color.
                k if (1..=t).contains(&k) => match sub {
                    0 if boundary => steps.push((o.side, Step::Side)),
                    1 if self.cv_has_parent => upcast_shape(&mut steps),
                    2 if self.cv_has_parent => bcast_shape(&mut steps),
                    _ => {}
                },
                // CV-class exchange with all G' neighbors.
                k if k == t + 1 => match sub {
                    0 if boundary => steps.push((o.side, Step::Side)),
                    1 => upcast_shape(&mut steps),
                    2 => bcast_shape(&mut steps),
                    _ => {}
                },
                // Recolor stage for class c.
                k => {
                    let c = k - t - 2;
                    let announcing = self.cv_class() == c;
                    let listening = self.nbr_cv_mask & (1 << c) != 0;
                    match sub {
                        0 => {
                            let relevant = if announcing {
                                boundary
                            } else {
                                listening
                                    && self.gprime_ports().iter().any(|&(p, _)| {
                                        self.nbr_cv_color_by_port[p.index()] == Some(c)
                                    })
                            };
                            if relevant {
                                steps.push((o.side, Step::Side));
                            }
                        }
                        1 if listening => upcast_shape(&mut steps),
                        2 if announcing || listening => bcast_shape(&mut steps),
                        _ => {}
                    }
                }
            }
            // lint:allow(determinism) -- step offsets within a block are pairwise distinct by Timeline construction
            steps.sort_unstable_by_key(|&(off, _)| off);
            return steps;
        }

        match block {
            FRAG_ID_EXCHANGE | MOE_FLAG_EXCHANGE | VALID_NOTIFY if degree > 0 => {
                steps.push((o.side, Step::Side));
            }
            UPCAST_MOE | UP_COUNT | UP_NBRS => upcast_shape(&mut steps),
            BCAST_MOE | TOKEN_DOWN | BCAST_NBRS => bcast_shape(&mut steps),
            b if (b == self.merge_info1() || b == self.merge_info2()) && degree > 0 => {
                steps.push((o.side, Step::Side));
            }
            b if b == self.merge_up1() || b == self.merge_up2() => {
                let merging = if b == self.merge_up1() {
                    self.merging1
                } else {
                    self.merging2
                };
                if merging {
                    upcast_shape(&mut steps);
                }
            }
            b if b == self.merge_down1() || b == self.merge_down2() => {
                let merging = if b == self.merge_down1() {
                    self.merging1
                } else {
                    self.merging2
                };
                if merging {
                    if let Some(dr) = o.down_receive {
                        steps.push((dr, Step::DownReceive));
                    }
                    if kids {
                        steps.push((o.down_send, Step::DownSend));
                    }
                }
            }
            _ => {}
        }
        // lint:allow(determinism) -- step offsets within a block are pairwise distinct by Timeline construction
        steps.sort_unstable_by_key(|&(off, _)| off);
        steps
    }

    /// Next wake strictly after (`phase`, `block`, `after`), with phase
    /// and mid-phase apply points handled, and non-participating coloring
    /// stages skipped in `O(1)` per participating stage.
    fn advance(
        &mut self,
        mut phase: u64,
        mut block: u64,
        mut after: Option<u64>,
        degree: usize,
    ) -> NextWake {
        loop {
            // Fast-forward through non-participating coloring stages.
            if let Some((stage, _sub)) = self.stage_of(block) {
                if after.is_none()
                    && self.core.frag != stage
                    && !self.nbr_info.contains_fragment(stage)
                {
                    block = match self.next_participating_stage(stage + 1) {
                        Some(s) => COLORING_START + 3 * (s - 1),
                        None => self.coloring_end(),
                    };
                    if block == self.coloring_end() {
                        // Entering the merge segment: decide roles.
                        self.decide_merging();
                    }
                    continue;
                }
            }

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
            if block == self.coloring_end() {
                self.decide_merging();
            }
            if block == self.merge_info2() {
                // Blue-with-neighbor merges are now final; the refresh
                // exchange must advertise the post-merge (fragment, level).
                self.core.apply_merge();
            }
            if block == self.timeline.blocks_per_phase() {
                block = 0;
                phase += 1;
                self.end_phase();
            }
        }
    }

    /// The smallest stage id ≥ `from` in which this node participates.
    fn next_participating_stage(&self, from: u64) -> Option<u64> {
        let mut stages: Vec<u64> = self.nbr_info.fragments();
        stages.push(self.core.frag);
        stages
            .into_iter()
            .filter(|&s| s >= from && s <= self.id_bound)
            .min()
    }

    fn end_phase(&mut self) {
        self.core.apply_merge();
        self.core.clear_phase_scratch();
        self.agg_moe = None;
        self.frag_moe = None;
        self.moe_port = None;
        self.in_moe_ports.clear();
        self.child_counts.clear();
        self.child_tokens.clear();
        self.valid_in_ports.clear();
        self.out_valid = None;
        self.agg_nbrs = NbrSet::new();
        self.nbr_info = NbrSet::new();
        self.nbr_colors.clear();
        self.stage_recv = None;
        self.stage_agg = None;
        self.cv_has_parent = false;
        self.cv_color = 0;
        self.cv_iter = 0;
        self.cv_recv = None;
        self.cv_agg = None;
        self.cv_flag_agg = None;
        self.nbr_cv_color_by_port.iter_mut().for_each(|e| *e = None);
        self.nbr_cv_mask = 0;
        self.final_nbr_mask = 0;
        self.mask_recv = None;
        self.mask_agg = None;
        self.cv_bcast = None;
        self.mask_bcast = None;
        self.final_color = None;
        self.merging1 = false;
        self.merging2 = false;
        self.attach_port = None;
        self.phases += 1;
    }

    /// Splits `tokens` among this node's own incoming MOEs (first) and its
    /// children (in port order, capped by their reported counts), storing
    /// the results in `valid_in_ports` / `child_tokens`.
    fn allocate_tokens(&mut self, mut tokens: u64) {
        let own = (self.in_moe_ports.len() as u64).min(tokens);
        self.valid_in_ports = self.in_moe_ports[..own as usize].to_vec();
        tokens -= own;
        self.child_tokens.clear();
        let counts: Vec<(Port, u64)> = self.child_counts.iter().map(|(&p, &c)| (p, c)).collect();
        for (p, c) in counts {
            let grant = c.min(tokens);
            tokens -= grant;
            self.child_tokens.insert(p, grant);
        }
    }

    /// Own + children incoming-MOE edge count.
    fn subtree_count(&self) -> u64 {
        self.in_moe_ports.len() as u64 + self.child_counts.values().sum::<u64>()
    }

    /// This node's contribution to NBR-INFO.
    fn own_nbr_entries(&self) -> NbrSet {
        let mut set = NbrSet::new();
        for &p in &self.valid_in_ports {
            if let Some((f, _)) = self.core.nbr[p.index()] {
                set.insert(f, Dir::In);
            }
        }
        if self.out_valid == Some(true) {
            if let Some(p) = self.moe_port {
                if let Some((f, _)) = self.core.nbr[p.index()] {
                    set.insert(f, Dir::Out);
                }
            }
        }
        set
    }
}

impl Protocol for DeterministicMst {
    type Msg = MstMsg;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        self.advance(0, 0, None, ctx.degree())
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<MstMsg>) {
        let (_, block, _, step) = self.next_step.expect("send only at planned wakes");

        if let Some((triple, sub)) = self.cv_triple_of(block) {
            let t = cv_iterations(self.id_bound);
            match (sub, step) {
                // --- prep triple: has-parent dissemination ---
                (1, Step::UpSend) if triple == 0 => {
                    let own = if self.moe_port.is_some() {
                        self.cv_parent_verdict()
                    } else {
                        None
                    };
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::UpHasParent(own.or(self.cv_flag_agg)),
                    );
                }
                (2, Step::DownSend) if triple == 0 => {
                    if self.core.is_root() {
                        let own = if self.moe_port.is_some() {
                            self.cv_parent_verdict()
                        } else {
                            None
                        };
                        self.cv_has_parent = own.or(self.cv_flag_agg).unwrap_or(false);
                    }
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::DownHasParent(self.cv_has_parent));
                    }
                }

                // --- CV iteration triples ---
                (0, Step::Side) if (1..=t).contains(&triple) => {
                    let color = self.cv_color_for_triple(triple);
                    for (p, _) in self.gprime_ports() {
                        outbox.push(p, MstMsg::SideColorWord(color));
                    }
                }
                (1, Step::UpSend) if (1..=t).contains(&triple) => {
                    let own = self.cv_recv.and_then(|(k, c)| (k == triple).then_some(c));
                    let agg = own.or(self.cv_agg.and_then(|(k, c)| (k == triple).then_some(c)));
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::UpColorWord(agg),
                    );
                }
                (2, Step::DownSend) if (1..=t).contains(&triple) => {
                    if self.core.is_root() {
                        let own = self.cv_recv.and_then(|(k, c)| (k == triple).then_some(c));
                        let parent = own
                            .or(self.cv_agg.and_then(|(k, c)| (k == triple).then_some(c)))
                            .expect("a parent fragment's color reaches the root");
                        self.apply_cv_update(triple, parent);
                    }
                    let (_, parent) = self.cv_bcast.expect("broadcast value fixed upstream");
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::DownColorWord(parent));
                    }
                }

                // --- class-exchange triple ---
                (0, Step::Side) if triple == t + 1 => {
                    let class = self.cv_class();
                    for (p, _) in self.gprime_ports() {
                        outbox.push(p, MstMsg::SideColorWord(class));
                    }
                }
                (1, Step::UpSend) if triple == t + 1 => {
                    let own = self.mask_recv.and_then(|(k, m)| (k == triple).then_some(m));
                    let agg = self.mask_agg.and_then(|(k, m)| (k == triple).then_some(m));
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::UpMask(own.unwrap_or(0) | agg.unwrap_or(0)),
                    );
                }
                (2, Step::DownSend) if triple == t + 1 => {
                    if self.core.is_root() {
                        let own = self.mask_recv.and_then(|(k, m)| (k == triple).then_some(m));
                        let agg = self.mask_agg.and_then(|(k, m)| (k == triple).then_some(m));
                        self.nbr_cv_mask = own.unwrap_or(0) | agg.unwrap_or(0);
                    }
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::DownMask(self.nbr_cv_mask));
                    }
                }

                // --- recolor stages ---
                (0, Step::Side) => {
                    let c = triple - t - 2;
                    if self.cv_class() == c {
                        let f = self.fix_final_color();
                        for (p, _) in self.gprime_ports() {
                            outbox.push(p, MstMsg::SideColor(f));
                        }
                    }
                    // else: pure listener
                }
                (1, Step::UpSend) => {
                    let own = self.mask_recv.and_then(|(k, m)| (k == triple).then_some(m));
                    let agg = self.mask_agg.and_then(|(k, m)| (k == triple).then_some(m));
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::UpMask(own.unwrap_or(0) | agg.unwrap_or(0)),
                    );
                }
                (2, Step::DownSend) => {
                    let c = triple - t - 2;
                    if self.cv_class() == c {
                        // Announcing fragment: broadcast the final color.
                        let f = if self.core.is_root() {
                            self.fix_final_color()
                        } else {
                            self.final_color.expect("received before forwarding")
                        };
                        for &p in &self.core.children {
                            outbox.push(p, MstMsg::DownColor(f));
                        }
                    } else {
                        // Listening fragment: broadcast the stage's mask.
                        if self.core.is_root() {
                            let own = self.mask_recv.and_then(|(k, m)| (k == triple).then_some(m));
                            let agg = self.mask_agg.and_then(|(k, m)| (k == triple).then_some(m));
                            let mask = own.unwrap_or(0) | agg.unwrap_or(0);
                            self.final_nbr_mask |= mask;
                            self.mask_bcast = Some((triple, mask));
                        }
                        let (_, mask) = self.mask_bcast.expect("mask fixed upstream");
                        for &p in &self.core.children {
                            outbox.push(p, MstMsg::DownMask(mask));
                        }
                    }
                }
                _ => {}
            }
            return;
        }

        if let Some((stage, sub)) = self.stage_of(block) {
            match (sub, step) {
                (0, Step::Side) if self.core.frag == stage => {
                    let color = self.my_color();
                    self.nbr_colors.insert(stage, color); // cache own color
                    for (p, _) in self.gprime_ports() {
                        outbox.push(p, MstMsg::SideColor(color));
                    }
                }
                (1, Step::UpSend) => {
                    let own = self.stage_recv.and_then(|(s, c)| (s == stage).then_some(c));
                    let agg = own.or(self.stage_agg.and_then(|(s, c)| (s == stage).then_some(c)));
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::UpColor(agg),
                    );
                }
                (2, Step::DownSend) => {
                    if self.core.is_root() {
                        let own = self.stage_recv.and_then(|(s, c)| (s == stage).then_some(c));
                        let agg =
                            own.or(self.stage_agg.and_then(|(s, c)| (s == stage).then_some(c)));
                        let color = agg.expect("a G' edge to the staged fragment exists");
                        self.nbr_colors.insert(stage, color);
                    }
                    let color = *self
                        .nbr_colors
                        .get(&stage)
                        .expect("broadcast color fixed at the root");
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::DownColor(color));
                    }
                }
                _ => {}
            }
            return;
        }

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

            (MOE_FLAG_EXCHANGE, Step::Side) => {
                for p in ctx.ports() {
                    outbox.push(
                        p,
                        MstMsg::SideMoeFlag {
                            over_moe: self.moe_port == Some(p),
                        },
                    );
                }
            }

            (UP_COUNT, Step::UpSend) => outbox.push(
                self.core.parent.expect("UpSend implies a parent"),
                MstMsg::UpCount(self.subtree_count()),
            ),

            (TOKEN_DOWN, Step::DownSend) => {
                if self.core.is_root() {
                    let tokens = self.config.token_cap.min(self.subtree_count());
                    self.allocate_tokens(tokens);
                }
                for &p in &self.core.children {
                    outbox.push(
                        p,
                        MstMsg::DownTokens(self.child_tokens.get(&p).copied().unwrap_or(0)),
                    );
                }
            }

            (VALID_NOTIFY, Step::Side) => {
                for &p in &self.in_moe_ports {
                    outbox.push(
                        p,
                        MstMsg::SideValid {
                            valid: self.valid_in_ports.contains(&p),
                        },
                    );
                }
            }

            (UP_NBRS, Step::UpSend) => {
                let mut set = self.own_nbr_entries();
                set.union(&self.agg_nbrs);
                outbox.push(
                    self.core.parent.expect("UpSend implies a parent"),
                    MstMsg::UpNbrs(set),
                );
            }

            (BCAST_NBRS, Step::DownSend) => {
                if self.core.is_root() {
                    let mut set = self.own_nbr_entries();
                    set.union(&self.agg_nbrs);
                    self.nbr_info = set;
                }
                for &p in &self.core.children {
                    outbox.push(p, MstMsg::DownNbrs(self.nbr_info.clone()));
                }
            }

            (b, Step::Side) if b == self.merge_info1() || b == self.merge_info2() => {
                let active = if b == self.merge_info1() {
                    self.merging1
                } else {
                    self.merging2
                };
                for p in ctx.ports() {
                    let attach = active && self.attach_port == Some(p);
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

            (b, Step::UpSend) if b == self.merge_up1() || b == self.merge_up2() => {
                if let Some((level, frag)) = self.core.new_vals {
                    outbox.push(
                        self.core.parent.expect("UpSend implies a parent"),
                        MstMsg::MergeVals { level, frag },
                    );
                }
            }

            (b, Step::DownSend) if b == self.merge_down1() || b == self.merge_down2() => {
                if let Some((level, frag)) = self.core.new_vals {
                    for &p in &self.core.children {
                        outbox.push(p, MstMsg::MergeVals { level, frag });
                    }
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

        if let Some((triple, sub)) = self.cv_triple_of(block) {
            let t = cv_iterations(self.id_bound);
            match (sub, step) {
                // prep triple
                (1, Step::UpReceive) if triple == 0 => {
                    for env in inbox {
                        if let MstMsg::UpHasParent(v) = env.msg {
                            self.cv_flag_agg = self.cv_flag_agg.or(v);
                        }
                    }
                }
                (2, Step::DownReceive) if triple == 0 => {
                    for env in inbox {
                        if let MstMsg::DownHasParent(b) = env.msg {
                            self.cv_has_parent = b;
                        }
                    }
                }
                // CV iterations
                (0, Step::Side) if (1..=t).contains(&triple) => {
                    for env in inbox {
                        if let MstMsg::SideColorWord(w) = env.msg {
                            if self.cv_has_parent && self.moe_port == Some(env.port) {
                                self.cv_recv = Some((triple, w));
                            }
                        }
                    }
                }
                (1, Step::UpReceive) if (1..=t).contains(&triple) => {
                    for env in inbox {
                        if let MstMsg::UpColorWord(Some(w)) = env.msg {
                            self.cv_agg = Some((triple, w));
                        }
                    }
                }
                (2, Step::DownReceive) if (1..=t).contains(&triple) => {
                    for env in inbox {
                        if let MstMsg::DownColorWord(w) = env.msg {
                            self.apply_cv_update(triple, w);
                        }
                    }
                }
                // class exchange
                (0, Step::Side) if triple == t + 1 => {
                    for env in inbox {
                        if let MstMsg::SideColorWord(w) = env.msg {
                            debug_assert!(w < 6, "CV classes fit six values");
                            self.nbr_cv_color_by_port[env.port.index()] = Some(w);
                            self.or_mask_recv(triple, 1 << w);
                        }
                    }
                }
                (2, Step::DownReceive) if triple == t + 1 => {
                    for env in inbox {
                        if let MstMsg::DownMask(m) = env.msg {
                            self.nbr_cv_mask = m;
                        }
                    }
                }
                // recolor stages
                (0, Step::Side) => {
                    let c = triple - t - 2;
                    for env in inbox {
                        if let MstMsg::SideColor(col) = env.msg {
                            if self.nbr_cv_color_by_port[env.port.index()] == Some(c) {
                                self.or_mask_recv(triple, color_bit(col));
                            }
                        }
                    }
                }
                (1, Step::UpReceive) => {
                    for env in inbox {
                        if let MstMsg::UpMask(m) = env.msg {
                            self.or_mask_agg(triple, m);
                        }
                    }
                }
                (2, Step::DownReceive) => {
                    for env in inbox {
                        match env.msg {
                            MstMsg::DownColor(col) => self.final_color = Some(col),
                            MstMsg::DownMask(m) => {
                                self.final_nbr_mask |= m;
                                self.mask_bcast = Some((triple, m));
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
            return self.advance(phase, block, Some(offset), ctx.degree());
        }

        if let Some((stage, sub)) = self.stage_of(block) {
            match (sub, step) {
                (0, Step::Side) => {
                    for env in inbox {
                        if let MstMsg::SideColor(c) = env.msg {
                            if self.core.nbr[env.port.index()].map(|(f, _)| f) == Some(stage) {
                                self.stage_recv = Some((stage, c));
                            }
                        }
                    }
                }
                (1, Step::UpReceive) => {
                    for env in inbox {
                        if let MstMsg::UpColor(Some(c)) = env.msg {
                            self.stage_agg = Some((stage, c));
                        }
                    }
                }
                (2, Step::DownReceive) => {
                    for env in inbox {
                        if let MstMsg::DownColor(c) = env.msg {
                            self.nbr_colors.insert(stage, c);
                        }
                    }
                }
                _ => {}
            }
            return self.advance(phase, block, Some(offset), ctx.degree());
        }

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

            (MOE_FLAG_EXCHANGE, Step::Side) => {
                for env in inbox {
                    if let MstMsg::SideMoeFlag { over_moe: true } = env.msg {
                        if self.core.nbr[env.port.index()].map(|(f, _)| f) != Some(self.core.frag) {
                            self.in_moe_ports.push(env.port);
                        }
                    }
                }
                self.in_moe_ports.sort_unstable();
            }

            (UP_COUNT, Step::UpReceive) => {
                for env in inbox {
                    if let MstMsg::UpCount(c) = env.msg {
                        self.child_counts.insert(env.port, c);
                    }
                }
            }

            (TOKEN_DOWN, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::DownTokens(t) = env.msg {
                        self.allocate_tokens(t);
                    }
                }
            }

            (VALID_NOTIFY, Step::Side) => {
                for env in inbox {
                    if let MstMsg::SideValid { valid } = env.msg {
                        if self.moe_port == Some(env.port) {
                            self.out_valid = Some(valid);
                        }
                    }
                }
            }

            (UP_NBRS, Step::UpReceive) => {
                for env in inbox {
                    if let MstMsg::UpNbrs(ref s) = env.msg {
                        self.agg_nbrs.union(s);
                    }
                }
            }

            (BCAST_NBRS, Step::DownReceive) => {
                for env in inbox {
                    if let MstMsg::DownNbrs(ref s) = env.msg {
                        self.nbr_info = s.clone();
                    }
                }
            }

            (b, Step::Side) if b == self.merge_info1() || b == self.merge_info2() => {
                let active = if b == self.merge_info1() {
                    self.merging1
                } else {
                    self.merging2
                };
                for env in inbox {
                    if let MstMsg::FragInfo {
                        frag,
                        level,
                        attach,
                    } = env.msg
                    {
                        if b == self.merge_info2() {
                            // Refresh the neighbor table: merge-1 results.
                            self.core.nbr[env.port.index()] = Some((frag, level));
                        }
                        if active && self.attach_port == Some(env.port) {
                            self.core.new_vals = Some((level + 1, frag));
                            self.core.new_parent = Some(env.port);
                            self.core.mst_ports[env.port.index()] = true;
                        }
                        if attach {
                            self.core.mst_ports[env.port.index()] = true;
                            self.core.pending_children.push(env.port);
                        }
                    }
                }
            }

            (b, Step::UpReceive) if b == self.merge_up1() || b == self.merge_up2() => {
                for env in inbox {
                    if let MstMsg::MergeVals { level, frag } = env.msg {
                        if self.core.new_vals.is_none() {
                            self.core.new_vals = Some((level + 1, frag));
                            self.core.new_parent = Some(env.port);
                        }
                    }
                }
            }

            (b, Step::DownReceive) if b == self.merge_down1() || b == self.merge_down2() => {
                for env in inbox {
                    if let MstMsg::MergeVals { level, frag } = env.msg {
                        if self.core.new_vals.is_none() {
                            self.core.new_vals = Some((level + 1, frag));
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
    use crate::ldt::check_forest;
    use crate::runner::collect_mst_edges;
    use graphlib::{generators, mst};

    #[test]
    fn phase_labels_follow_the_block_layout() {
        let n = 4;
        let id_bound = 2u64;
        let mode = ColoringMode::FastAwake; // coloring window = 3·N = 6 blocks
        let t = Timeline::new(n, 9 + 3 * id_bound + 6);
        assert_eq!(phase_label(n, id_bound, mode, 0), "init");
        let head = [
            "fragment-id-exchange",
            "upcast-moe",
            "bcast-moe",
            "moe-flag-exchange",
            "up-count",
            "token-down",
            "valid-notify",
            "upcast-neighbors",
            "bcast-neighbors",
        ];
        for (b, want) in head.iter().enumerate() {
            assert_eq!(
                phase_label(n, id_bound, mode, t.block_start(0, b as u64)),
                *want
            );
            assert_eq!(
                phase_label(n, id_bound, mode, t.block_start(1, b as u64)),
                *want
            );
        }
        for b in 9..9 + 3 * id_bound {
            assert_eq!(
                phase_label(n, id_bound, mode, t.block_start(0, b)),
                "coloring"
            );
        }
        let tail_start = 9 + 3 * id_bound;
        let tail = [
            "merge-info",
            "merge-up",
            "merge-down",
            "merge-info",
            "merge-up",
            "merge-down",
        ];
        for (i, want) in tail.iter().enumerate() {
            assert_eq!(
                phase_label(n, id_bound, mode, t.block_start(0, tail_start + i as u64)),
                *want
            );
        }
        // Cole–Vishkin mode widens the coloring window but keeps the
        // same head/tail structure.
        let cv = ColoringMode::ColeVishkin;
        let cv_blocks = 3 * (cv_iterations(id_bound) + 8);
        let t_cv = Timeline::new(n, 9 + cv_blocks + 6);
        assert_eq!(
            phase_label(n, id_bound, cv, t_cv.block_start(0, 9 + cv_blocks - 1)),
            "coloring"
        );
        assert_eq!(
            phase_label(n, id_bound, cv, t_cv.block_start(0, 9 + cv_blocks)),
            "merge-info"
        );
    }
    use netsim::{SimConfig, Simulator};

    fn run(graph: &graphlib::WeightedGraph) -> netsim::RunOutcome<DeterministicMst> {
        Simulator::new(graph, SimConfig::default())
            .run(DeterministicMst::new)
            .expect("deterministic MST run fails")
    }

    fn edges(
        graph: &graphlib::WeightedGraph,
        states: &[DeterministicMst],
    ) -> Vec<graphlib::EdgeId> {
        collect_mst_edges(graph, states, |s| s.mst_ports()).unwrap()
    }

    #[test]
    fn single_node_halts_quickly() {
        let g = graphlib::GraphBuilder::new(1).build().unwrap();
        let out = run(&g);
        assert_eq!(out.stats.awake_max(), 1);
        assert!(out.states[0].is_done());
    }

    #[test]
    fn two_nodes_pick_their_edge() {
        let g = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 5)
            .build()
            .unwrap();
        let out = run(&g);
        assert_eq!(edges(&g, &out.states).len(), 1);
    }

    #[test]
    fn matches_kruskal_on_small_graphs() {
        for seed in 0..6 {
            let g = generators::random_connected(18, 0.2, seed).unwrap();
            let out = run(&g);
            assert_eq!(
                edges(&g, &out.states),
                mst::kruskal(&g).edges,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_kruskal_on_structured_graphs() {
        let graphs = [
            generators::ring(13, 2).unwrap(),
            generators::path(11, 3).unwrap(),
            generators::grid(3, 5, 4).unwrap(),
            generators::complete(8, 5).unwrap(),
            generators::star(9, 6).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let out = run(g);
            assert_eq!(edges(g, &out.states), mst::kruskal(g).edges, "graph {i}");
        }
    }

    #[test]
    fn fully_deterministic() {
        let g = generators::random_connected(14, 0.25, 7).unwrap();
        let a = run(&g);
        let b = run(&g);
        assert_eq!(a.stats, b.stats);
        assert_eq!(edges(&g, &a.states), edges(&g, &b.states));
    }

    #[test]
    fn works_with_sparse_id_space() {
        // N >> n exercises the O(nN log n) round complexity dependence.
        let g = generators::with_id_space(generators::ring(8, 3).unwrap(), 64, 1).unwrap();
        let out = run(&g);
        assert_eq!(edges(&g, &out.states), mst::kruskal(&g).edges);
        // Rounds must scale with N (64 coloring stages per phase).
        let t = Timeline::new(8, 15 + 3 * 64);
        assert!(out.stats.rounds >= t.phase_len());
    }

    #[test]
    fn awake_complexity_stays_logarithmic() {
        let g = generators::random_connected(32, 0.15, 9).unwrap();
        let out = run(&g);
        let bound = 80.0 * (32f64).log2();
        assert!(
            (out.stats.awake_max() as f64) < bound,
            "awake {} exceeds {bound}",
            out.stats.awake_max()
        );
    }

    #[test]
    fn ldt_invariant_holds_at_phase_boundaries() {
        let g = generators::random_connected(12, 0.3, 5).unwrap();
        let t = Timeline::new(12, 15 + 3 * 12);
        let phase_len = t.phase_len();
        let mut last_phase = 0;
        let mut checked = 0;
        Simulator::new(&g, SimConfig::default())
            .run_with_observer(
                DeterministicMst::new,
                |round, states: &[DeterministicMst]| {
                    let phase = (round - 1) / phase_len;
                    if phase > last_phase {
                        last_phase = phase;
                        let views: Vec<LdtView> = states.iter().map(|s| s.ldt_view()).collect();
                        check_forest(&g, &views).expect("FLDT invariant violated");
                        checked += 1;
                    }
                },
            )
            .unwrap();
        assert!(checked >= 1);
    }

    #[test]
    fn messages_respect_congest_limit() {
        let g = generators::random_connected(24, 0.2, 11).unwrap();
        let limit = 8 * 5 + 64 + 4 * 16; // headroom for NbrSet payloads
        Simulator::new(&g, SimConfig::default().with_bit_limit(limit))
            .run(DeterministicMst::new)
            .expect("a message exceeded the CONGEST limit");
    }

    fn cv_config() -> DeterministicConfig {
        DeterministicConfig {
            coloring: ColoringMode::ColeVishkin,
            ..Default::default()
        }
    }

    fn run_cv(graph: &graphlib::WeightedGraph) -> netsim::RunOutcome<DeterministicMst> {
        Simulator::new(graph, SimConfig::default())
            .run(|ctx| DeterministicMst::with_config(ctx, cv_config()))
            .expect("CV-mode MST run fails")
    }

    #[test]
    fn cv_iteration_count_is_logstar_small() {
        assert_eq!(cv_iterations(1), 1);
        assert!(cv_iterations(255) <= 3);
        assert!(cv_iterations(1 << 20) <= 4);
        assert!(cv_iterations(u64::MAX) <= 5);
    }

    #[test]
    fn cv_step_reduces_and_separates() {
        // One step from b-bit colors lands in 2b values and keeps adjacent
        // colors distinct.
        for (a, b) in [(5u64, 9u64), (1, 2), (1023, 1022), (7, 8)] {
            let (na, nb) = (cv_step(a, b), cv_step(b, a));
            assert!(na <= 2 * 63 + 1);
            // Child/parent pairs stay distinct after one joint step when the
            // parent also updates against ITS parent — the classic argument;
            // here check the direct property: cv_step(a,b) identifies a bit
            // where a differs from b, so recomputing for b against a gives a
            // different (index, bit) pair.
            assert_ne!(na, nb, "({a},{b})");
        }
    }

    #[test]
    fn cole_vishkin_mode_matches_kruskal() {
        let graphs = [
            generators::ring(13, 2).unwrap(),
            generators::path(11, 3).unwrap(),
            generators::grid(3, 5, 4).unwrap(),
            generators::complete(8, 5).unwrap(),
            generators::random_connected(18, 0.2, 6).unwrap(),
            generators::random_connected(24, 0.1, 7).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let out = run_cv(g);
            assert_eq!(edges(g, &out.states), mst::kruskal(g).edges, "graph {i}");
            assert_eq!(out.stats.messages_lost, 0, "graph {i}");
        }
    }

    #[test]
    fn cole_vishkin_beats_fast_awake_rounds_on_sparse_ids() {
        // Corollary 1's point: run time O(n log n log* n) instead of
        // O(n N log n). With ids in [1, 2048] the stage-based coloring pays
        // 3·2048 blocks per phase; CV pays ~36.
        let g = generators::with_id_space(generators::ring(10, 3).unwrap(), 2048, 1).unwrap();
        let stages = run(&g);
        let cv = run_cv(&g);
        assert_eq!(edges(&g, &stages.states), edges(&g, &cv.states));
        assert!(
            cv.stats.rounds * 10 < stages.stats.rounds,
            "CV rounds {} not far below stage rounds {}",
            cv.stats.rounds,
            stages.stats.rounds
        );
    }

    #[test]
    fn cole_vishkin_awake_carries_logstar_overhead_only() {
        let g = generators::random_connected(32, 0.15, 9).unwrap();
        let out = run_cv(&g);
        let bound = 120.0 * (32f64).log2();
        assert!(
            (out.stats.awake_max() as f64) < bound,
            "awake {} exceeds {bound}",
            out.stats.awake_max()
        );
    }

    #[test]
    fn cole_vishkin_ldt_invariant_holds() {
        let g = generators::random_connected(12, 0.3, 5).unwrap();
        let blocks = 9 + 3 * (cv_iterations(12) + 8) + 6;
        let phase_len = Timeline::new(12, blocks).phase_len();
        let mut last_phase = 0;
        Simulator::new(&g, SimConfig::default())
            .run_with_observer(
                |ctx| DeterministicMst::with_config(ctx, cv_config()),
                |round, states: &[DeterministicMst]| {
                    let phase = (round - 1) / phase_len;
                    if phase > last_phase {
                        last_phase = phase;
                        let views: Vec<LdtView> = states.iter().map(|s| s.ldt_view()).collect();
                        check_forest(&g, &views).expect("FLDT invariant violated (CV mode)");
                    }
                },
            )
            .unwrap();
        assert!(last_phase >= 1);
    }

    #[test]
    fn token_cap_one_ablation_still_correct() {
        let g = generators::random_connected(16, 0.2, 13).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|ctx| {
                DeterministicMst::with_config(
                    ctx,
                    DeterministicConfig {
                        token_cap: 1,
                        ..Default::default()
                    },
                )
            })
            .unwrap();
        assert_eq!(edges(&g, &out.states), mst::kruskal(&g).edges);
    }

    #[test]
    fn disconnected_graph_builds_forest() {
        let g = graphlib::GraphBuilder::new(5)
            .edge(0, 1, 1)
            .edge(1, 2, 2)
            .edge(3, 4, 3)
            .build()
            .unwrap();
        let out = run(&g);
        assert_eq!(edges(&g, &out.states), mst::kruskal(&g).edges);
    }
}
