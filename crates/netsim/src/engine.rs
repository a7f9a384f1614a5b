//! The execution stack behind [`Simulator`](crate::Simulator): one
//! generic kernel, three time drivers.
//!
//! Exactly one loop — the crate-private `run_kernel` — owns the
//! per-active-round body: collect the awake set, run the send half-step
//! into the outbox, route/fault/deliver, record stats/trace/metrics, and
//! invoke the observer. *Which round comes next* is delegated to a
//! `TimeDriver`, selected by [`SimConfig::executor`]:
//!
//! * [`Executor::Calendar`] (the default) — keeps the scheduled wakes in
//!   a `WakeQueue`, a monotone bucketed calendar of `(next-wake, node)`
//!   events, and jumps time directly between populated rounds. Popping a
//!   round that wakes `k` nodes costs `O(k)` amortized plus a sort of
//!   the live set, so a run costs `O(W log W + M)` for `W` node-awake
//!   events and `M` messages, independent of how many silent rounds the
//!   schedule spans. This is the property the sleeping model exists to
//!   exploit: nodes are awake only `O(log n)` of the `O(n log n)` rounds,
//!   and the calendar never visits the empty ones.
//! * [`Executor::Sync`] — round-synchronous: the clock walks through
//!   every round one at a time, paying a per-round tick even when every
//!   node sleeps. Outcomes are bit-identical to the calendar driver; it
//!   exists to measure what sparse schedules cost a traditional
//!   round-driven simulator (`BENCH_engine.json` pins the gap).
//! * [`Executor::Naive`] — the differential-testing oracle: a per-round
//!   `O(n)` scan of every node's next wake, as close to a transliteration
//!   of the round semantics as possible. Never use it for real
//!   workloads; its entire value is being too simple to be wrong in the
//!   same way as the calendar.
//!
//! All three drivers produce bit-identical outcomes — final states,
//! [`RunStats`], [`Trace`], and metrics — for every protocol, fault
//! plan, and metrics setting; `tests/differential.rs` pins this with
//! cross-driver proptests.
//!
//! A round with `k` awake nodes and `M` delivered messages costs
//! `O(k + M)` mostly sequential work. Message routing uses the back
//! ports precomputed by [`graphlib::GraphBuilder::build`] — the hot loop
//! never scans an adjacency list — and touches one per-receiver record
//! per message. Grouping the round's inboxes assigns each envelope its
//! inbox position in one pass, then permutes a cache-sized round in
//! place or gathers a larger one sequentially out of the send lanes'
//! buffers. All per-run and
//! per-round state (node contexts, the weight table, send lanes, the
//! flat inbox arena, its grouping scratch) lives in an
//! [`ExecutorScratch`] that is reused across rounds *and across runs*,
//! so the steady-state hot path performs no allocations.

use std::num::NonZeroU64;
use std::sync::Arc;

use graphlib::{NodeId, Port, WeightedGraph};

use crate::metrics::MetricsRecorder;
use crate::profile::{Stage, StageClock};
use crate::{
    EnergyModel, Envelope, FaultPlan, NextWake, NodeCtx, Outbox, Payload, PortWeights, Protocol,
    Round, RunOutcome, RunStats, SimConfig, SimError, Trace, TraceEvent, WakePolicy,
};

/// Rounds with fewer awake nodes than this run the send half-step
/// serially even when [`SimConfig::shards`] asks for more shards: below
/// it, the per-round cost of spawning scoped worker threads dwarfs the
/// send work itself (the paper's token-passing phases wake one or two
/// nodes per round). The outcome is bit-identical either way — the
/// threshold only picks which code path computes it.
const SHARD_MIN_AWAKE: usize = 128;

/// Rounds whose delivered envelopes fit in this many bytes are grouped
/// into inboxes in place, in the send buffer; larger rounds are gathered
/// into a second buffer. In cache, walking the grouping permutation's
/// cycles is cheap and the second buffer would be memory for nothing;
/// out of cache, every swap of the walk waits on the previous one's miss,
/// while a gather issues independent loads. The outcome is bit-identical
/// either way.
const IN_PLACE_GROUPING_BYTES: usize = 1 << 20;

/// The shard-engagement decision, as a pure function: `Some(chunk_len)`
/// when the send half-step of a round with `awake_len` awake nodes runs
/// sharded (the ascending awake set is split into contiguous chunks of
/// `chunk_len`, one lane per chunk), `None` when it runs serially.
///
/// This is the *entire* input surface of the decision — the awake set's
/// size, the configured shard count, and whether the run is traced
/// (trace payload formatting is inherently sequential). Nothing else:
/// not wall-clock, not load, not thread identity. `tests/shard_boundary.rs`
/// pins the purity and the 127/128/129 engagement boundary.
#[must_use]
pub fn shard_chunk_len(awake_len: usize, shards: u32, record_trace: bool) -> Option<usize> {
    let shard_target = (shards as usize).max(1);
    let shard_gate = SHARD_MIN_AWAKE.max(shard_target);
    if shard_target > 1 && !record_trace && awake_len >= shard_gate {
        Some(awake_len.div_ceil(shard_target))
    } else {
        None
    }
}

/// Which time driver executes a run.
///
/// All three produce bit-identical outcomes (final states, stats, trace,
/// metrics) for every protocol, fault plan, and metrics setting — the
/// cross-driver proptests in `tests/differential.rs` pin this. They
/// differ only in how the clock advances between populated rounds, i.e.
/// in wall-clock cost (see `BENCH_engine.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Executor {
    /// Round-synchronous: the clock visits every round from 1 upward,
    /// paying a per-round tick even when every node sleeps. The cost
    /// model of a traditional round-driven simulator.
    Sync,
    /// Event-driven calendar (the default): a bucketed calendar of
    /// `(next-wake, node)` events; time jumps directly between populated
    /// rounds.
    #[default]
    Calendar,
    /// Per-round `O(n)` scan of every node's next wake — the
    /// differential-testing oracle. Never use it for real workloads.
    Naive,
}

impl Executor {
    /// Every executor, in presentation order.
    pub const ALL: [Executor; 3] = [Executor::Sync, Executor::Calendar, Executor::Naive];

    /// Parses a stable executor name (`sync`, `calendar`, `naive`), as
    /// accepted by the CLI's `--executor` flag.
    pub fn parse(s: &str) -> Option<Executor> {
        match s {
            "sync" => Some(Executor::Sync),
            "calendar" => Some(Executor::Calendar),
            "naive" => Some(Executor::Naive),
            _ => None,
        }
    }

    /// The stable name [`Executor::parse`] accepts, also used in reports
    /// and JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Executor::Sync => "sync",
            Executor::Calendar => "calendar",
            Executor::Naive => "naive",
        }
    }
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The active fault plan of a config, if it can affect the run at all.
/// Inert plans (every intensity zero, no crashes) are filtered out here,
/// so every driver takes the exact no-fault path for them — fault
/// support costs nothing unless a fault can actually fire.
fn active_faults(config: &SimConfig) -> Option<&FaultPlan> {
    config.faults.as_ref().filter(|plan| !plan.is_inert())
}

/// The active energy model of a config, if it can affect the run at all.
/// Mirrors [`active_faults`]: an inert model (every cost zero) is
/// filtered out, so the kernel takes the exact no-energy path for it and
/// a zero-cost run is bit-identical to a run with no model
/// (`tests/energy_conservation.rs` pins this).
fn active_energy(config: &SimConfig) -> Option<&EnergyModel> {
    config.energy.as_ref().filter(|model| !model.is_inert())
}

/// The active wake policy of a config, if it can move any wake. Identity
/// policies ([`WakePolicy::is_identity`]) take the exact no-policy path.
fn active_policy(config: &SimConfig) -> Option<WakePolicy> {
    Some(config.wake_policy).filter(|policy| !policy.is_identity())
}

/// Builds the initial knowledge handed to `node` (KT0 plus run
/// parameters). Every driver derives identical contexts — notably the
/// per-node RNG seed — which is what lets differential runs agree.
/// `max_external_id` and the shared `weights` array are passed in rather
/// than recomputed: `max_external_id()` is an `O(n)` scan of the id
/// table, and calling it per node made setup `O(n²)`; likewise each
/// node's `port_weights` is a [`PortWeights`] window into one run-wide
/// weight table instead of a per-node `Vec`.
fn node_ctx(
    graph: &WeightedGraph,
    config: &SimConfig,
    node: NodeId,
    max_external_id: u64,
    weights: &Arc<[u64]>,
) -> NodeCtx {
    NodeCtx {
        node,
        external_id: graph.external_id(node),
        n: graph.node_count(),
        max_external_id,
        port_weights: PortWeights::slice(
            Arc::clone(weights),
            graph.port_base(node),
            graph.degree(node) as u32,
        ),
        rng_seed: config
            .master_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(node.raw()).wrapping_mul(0xff51_afd7_ed55_8ccd)),
    }
}

/// Refills a scratch's node contexts and shared weight table for a run
/// on `graph`, in place where the previous run's storage allows.
///
/// The previous run's contexts are dropped first: they hold the other
/// references to the weight table, so afterwards the table is uniquely
/// owned and, when the port count matches, is overwritten in place
/// instead of reallocated. It stays shared — and is replaced by a fresh
/// copy — when a caller still holds a context from an earlier run (a
/// protocol state that kept its `port_weights`, say), so a reused
/// scratch can never hand a run stale weights.
fn refill_contexts(
    graph: &WeightedGraph,
    config: &SimConfig,
    ctxs: &mut Vec<NodeCtx>,
    weights: &mut Arc<[u64]>,
) {
    ctxs.clear();
    match Arc::get_mut(weights).filter(|table| table.len() == graph.total_ports()) {
        Some(table) => {
            let ports = graph.nodes().flat_map(|node| graph.ports(node));
            for (slot, entry) in table.iter_mut().zip(ports) {
                *slot = entry.weight;
            }
        }
        None => *weights = graph.flat_port_weights(),
    }
    let max_external_id = graph.max_external_id();
    ctxs.extend(
        graph
            .nodes()
            .map(|node| node_ctx(graph, config, node, max_external_id, weights)),
    );
}

/// Validates one outgoing envelope, accounts its per-edge bits, and routes
/// it to `(receiver, receiver port, bits, edge index)` via the precomputed
/// back port — no adjacency scan, and `bit_size` is computed exactly once
/// per message (the result is threaded through delivery accounting, the
/// trace, and the metrics recorder's congestion scratch).
#[inline]
fn route_envelope<M: Payload>(
    graph: &WeightedGraph,
    config: &SimConfig,
    stats: &mut RunStats,
    node: NodeId,
    round: Round,
    port: Port,
    msg: &M,
) -> Result<(u32, u32, usize, usize), SimError> {
    if port.index() >= graph.degree(node) {
        return Err(SimError::PortOutOfRange { node, port, round });
    }
    let bits = msg.bit_size();
    if let Some(limit) = config.bit_limit {
        if bits > limit {
            return Err(SimError::MessageTooLarge {
                node,
                round,
                bits,
                limit,
            });
        }
    }
    let entry = graph.port_entry(node, port);
    stats.bits_by_edge[entry.edge.index()] += bits as u64;
    stats.max_message_bits = stats.max_message_bits.max(bits as u64);
    Ok((
        entry.neighbor.raw(),
        entry.back_port.raw(),
        bits,
        entry.edge.index(),
    ))
}

/// Outcome class of one routed send attempt, recorded by a shard worker
/// and replayed into the shared stats/metrics by the deterministic merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SentKind {
    /// Delivered to an awake receiver (one arena envelope).
    Delivered,
    /// Delivered plus an injected duplicate (two arena envelopes).
    DeliveredDup,
    /// Lost: the receiver was asleep (a model loss).
    Lost,
    /// Destroyed in flight by an injected drop fault.
    Dropped,
}

/// One adjudicated send attempt, in a shard worker's send order. Holds
/// exactly what the merge needs to replay the serial path's accounting:
/// the sender (the energy ledger charges transmit bits to it), the
/// receiver (stats + inbox slot), the wire size, the edge, and the
/// outcome.
#[derive(Debug, Clone, Copy)]
struct SentRecord {
    from: u32,
    to: u32,
    edge: u32,
    bits: u64,
    kind: SentKind,
}

/// One send lane: the working buffers of a shard of the send half-step,
/// reused across rounds (and runs) like every other executor buffer.
/// Serial rounds send through lane 0.
#[derive(Debug)]
struct ShardScratch<M> {
    outbox: Outbox<M>,
    /// Delivered envelopes of this lane's nodes, in send order. The
    /// grouping gathers the round's inboxes straight out of these, or
    /// permutes lane 0's in place.
    arena: Vec<Envelope<M>>,
    /// Round-wide send index of `arena[0]`: the lanes' arenas,
    /// concatenated in lane order, are the round's send order.
    base: u32,
    /// Every adjudicated send attempt of this shard, in send order.
    records: Vec<SentRecord>,
    /// First validation error hit by this shard, if any; the worker
    /// stops at it, exactly where the serial path would abort.
    error: Option<SimError>,
}

impl<M> ShardScratch<M> {
    fn new() -> Self {
        ShardScratch {
            outbox: Outbox::new(),
            arena: Vec::new(),
            base: 0,
            records: Vec::new(),
            error: None,
        }
    }
}

/// Send half-step of one shard: runs `send` for a contiguous slice of
/// the round's awake set and adjudicates every envelope — validation,
/// routing via the precomputed back port, fault verdicts (pure functions
/// of the plan's seed, so every worker reaches the serial verdicts), and
/// the awake check against the receiver records' stamps — exactly as the serial
/// path does, but records outcomes into shard-local buffers instead of
/// the shared stats. The kernel's merge replays them in shard order,
/// which *is* serial node order (shards partition the ascending awake
/// set into contiguous runs), so the accounting is reproduced bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn shard_send<P: Protocol>(
    graph: &WeightedGraph,
    bit_limit: Option<usize>,
    faults: Option<&FaultPlan>,
    round: Round,
    receivers: &[Receiver],
    ctxs: &[NodeCtx],
    part: &mut [P],
    part_base: usize,
    chunk: &[u32],
    lane: &mut ShardScratch<P::Msg>,
) {
    lane.arena.clear();
    lane.records.clear();
    lane.error = None;
    for &v in chunk {
        let node = NodeId::new(v);
        lane.outbox.clear();
        part[v as usize - part_base].send(&ctxs[v as usize], round, &mut lane.outbox);
        for Envelope { port, msg } in lane.outbox.drain() {
            if port.index() >= graph.degree(node) {
                lane.error = Some(SimError::PortOutOfRange { node, port, round });
                return;
            }
            let bits = msg.bit_size();
            if let Some(limit) = bit_limit {
                if bits > limit {
                    lane.error = Some(SimError::MessageTooLarge {
                        node,
                        round,
                        bits,
                        limit,
                    });
                    return;
                }
            }
            let entry = graph.port_entry(node, port);
            let to = entry.neighbor.raw();
            let edge = entry.edge.index() as u32;
            let bits = bits as u64;
            if let Some(plan) = faults {
                if plan.drops(round, v, port.raw()) {
                    lane.records.push(SentRecord {
                        from: v,
                        to,
                        edge,
                        bits,
                        kind: SentKind::Dropped,
                    });
                    continue;
                }
            }
            if receivers[to as usize].stamp == round {
                let dup = match faults {
                    Some(plan) => plan.duplicates(round, v, port.raw()),
                    None => false,
                };
                if dup {
                    lane.records.push(SentRecord {
                        from: v,
                        to,
                        edge,
                        bits,
                        kind: SentKind::DeliveredDup,
                    });
                    lane.arena.push(Envelope::new(entry.back_port, msg.clone()));
                } else {
                    lane.records.push(SentRecord {
                        from: v,
                        to,
                        edge,
                        bits,
                        kind: SentKind::Delivered,
                    });
                }
                lane.arena.push(Envelope::new(entry.back_port, msg));
            } else {
                lane.records.push(SentRecord {
                    from: v,
                    to,
                    edge,
                    bits,
                    kind: SentKind::Lost,
                });
            }
        }
    }
}

/// Number of [`WakeQueue`] buckets: one for the settled round plus one
/// per bit position of a [`Round`].
const BUCKETS: usize = Round::BITS as usize + 1;

/// The calendar bucket of `round` relative to the settled round `base`:
/// 0 when they are equal, else one plus the highest bit in which they
/// differ.
#[inline]
fn bucket_of(round: Round, base: Round) -> usize {
    (Round::BITS - (round ^ base).leading_zeros()) as usize
}

/// The scheduled-wake calendar: a monotone bucketed priority queue
/// (a radix heap over rounds) of node ids, keyed by each node's current
/// wake in `next_wake`.
///
/// A node scheduled for round `r` sits in bucket
/// [`bucket_of`]`(r, settled)`, where `settled` is the last round the
/// calendar settled on. Bucket 0 holds exactly the nodes of `settled`;
/// every round in bucket `b` is earlier than every round in bucket
/// `b + 1`. Settling on the next round therefore looks only at the
/// lowest non-empty bucket: if its nodes share one round it is popped in
/// place, otherwise they are redistributed into strictly lower buckets.
/// An entry moves at most [`Round::BITS`] times in its lifetime, so
/// popping a round that wakes `k` nodes costs `O(k)` amortized plus the
/// sort of the live set, [`WakeQueue::peek_round`] is `O(1)` once
/// settled, and memory is one `u32` per pending entry in a fixed set of
/// [`BUCKETS`] vectors.
///
/// The structure relies on time moving forward: every scheduled round
/// must be later than the last round popped (the kernel only schedules
/// wakes strictly after the executing round, and the `validate` feature
/// checks that the rounds handed to the kernel strictly increase).
///
/// `schedule` may supersede a not-yet-fired wake of the same node, and
/// `halt` may cancel one. The old entry is then stale: it is dropped
/// when its bucket is settled or popped (or, when it lands with the
/// node's live entry, deduplicated), and its round never surfaces. The
/// kernel itself never leaves a stale entry behind — it schedules a node
/// only right after popping it — so every round it pops has a live node,
/// unless fault adjudication then removes them all.
#[derive(Debug)]
pub(crate) struct WakeQueue {
    /// Pending node ids by bucket, in scheduling order.
    buckets: [Vec<u32>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u128,
    /// The round the calendar last settled on; no pending wake is
    /// earlier.
    settled: Round,
    /// The bucket known to hold only nodes of round `settled` — the next
    /// round to pop — once [`WakeQueue::settle`] has found it.
    ready: Option<usize>,
    /// `Some(r)` = node will wake (or, popped, is awake) in round `r`;
    /// `None` = halted. Rounds start at 1, so the option costs no space.
    next_wake: Vec<Option<NonZeroU64>>,
}

impl WakeQueue {
    pub(crate) fn new(n: usize) -> Self {
        WakeQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            settled: 0,
            ready: None,
            next_wake: vec![None; n],
        }
    }

    /// Re-initializes a recycled queue for a fresh `n`-node run, keeping
    /// the allocations.
    pub(crate) fn reset(&mut self, n: usize) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.settled = 0;
        self.ready = None;
        self.next_wake.clear();
        self.next_wake.resize(n, None);
    }

    /// Schedules (or re-schedules) `node` to wake in `round`, which must
    /// be later than the last popped round.
    pub(crate) fn schedule(&mut self, node: u32, round: Round) {
        debug_assert!(round > self.settled, "wake scheduled into the past");
        self.next_wake[node as usize] = NonZeroU64::new(round);
        let bucket = bucket_of(round, self.settled);
        self.buckets[bucket].push(node);
        self.occupied |= 1 << bucket;
    }

    /// Marks `node` as halted; its pending entry (if any) goes stale.
    pub(crate) fn halt(&mut self, node: u32) {
        self.next_wake[node as usize] = None;
    }

    /// Finds the earliest pending round, makes it `settled`, and returns
    /// the bucket holding exactly its nodes. `None` = nothing pending.
    fn settle(&mut self) -> Option<usize> {
        let WakeQueue {
            buckets,
            occupied,
            settled,
            ready,
            next_wake,
            ..
        } = self;
        while ready.is_none() {
            if *occupied == 0 {
                return None;
            }
            let lowest = occupied.trailing_zeros() as usize;
            if lowest == 0 {
                *ready = Some(0);
                break;
            }
            // Keep the nodes whose current wake still falls in this
            // bucket; the others have halted or moved, and their live
            // entry (if any) sits elsewhere.
            let mut nodes = std::mem::take(&mut buckets[lowest]);
            *occupied &= !(1 << lowest);
            let (mut min, mut max) = (Round::MAX, 0);
            let base = *settled;
            nodes.retain(|&v| match next_wake[v as usize].map(NonZeroU64::get) {
                Some(r) if bucket_of(r, base) == lowest => {
                    min = min.min(r);
                    max = max.max(r);
                    true
                }
                _ => false,
            });
            if !nodes.is_empty() {
                *settled = min;
                if min == max {
                    // One round only: pop it where it is. A later
                    // `schedule` cannot land here before the pop — its
                    // round is after `settled`, which has bit
                    // `lowest - 1` set.
                    *ready = Some(lowest);
                } else {
                    // Every node shares the bits above `lowest - 1` with
                    // the new `settled`, so each lands in a strictly lower
                    // bucket; the ones waking in it land in bucket 0.
                    for &v in &nodes {
                        if let Some(r) = next_wake[v as usize] {
                            let bucket = bucket_of(r.get(), min);
                            buckets[bucket].push(v);
                            *occupied |= 1 << bucket;
                        }
                    }
                    nodes.clear();
                    *ready = Some(0);
                }
            }
            if !nodes.is_empty() {
                *occupied |= 1 << lowest;
            }
            buckets[lowest] = nodes;
        }
        *ready
    }

    /// The earliest scheduled round, if any node is pending. `O(1)`
    /// after the first call for a given round.
    pub(crate) fn peek_round(&mut self) -> Option<Round> {
        self.settle().map(|_| self.settled)
    }

    /// Whether `node` is awake in the round currently being executed:
    /// popped for `round`, and neither halted nor rescheduled since.
    #[inline]
    pub(crate) fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.next_wake[node as usize].map(NonZeroU64::get) == Some(round)
    }

    /// Pops every node of the earliest round. Returns that round and
    /// fills `live` with the nodes waking now, **ascending**.
    pub(crate) fn pop_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        live.clear();
        let bucket = self.settle()?;
        self.ready = None;
        self.occupied &= !(1 << bucket);
        let round = self.settled;
        let WakeQueue {
            buckets, next_wake, ..
        } = self;
        live.extend(
            buckets[bucket]
                .drain(..)
                .filter(|&v| next_wake[v as usize].map(NonZeroU64::get) == Some(round)),
        );
        // Most rounds of the paper's token-passing phases wake a single
        // node; skip the sort machinery entirely for those. Entries keep
        // their scheduling order, so a round scheduled in node order (a
        // whole-network wave) is already sorted. A node scheduled twice
        // for the round (a stale entry re-keyed to its live wake) shows
        // up twice; the dedup drops the copy.
        if live.len() > 1 {
            live.sort_unstable();
            live.dedup();
        }
        Some(round)
    }
}

/// The kernel's per-node receiver record for the executing round: one
/// lookup per routed message answers whether the receiver is awake,
/// where its inbox goes, and what it received.
#[derive(Debug, Clone, Copy, Default)]
struct Receiver {
    /// `stamp == r` marks the node awake in round `r` (the kernel's own
    /// copy of the driver's awake set, written once per round so shard
    /// workers can read it lock-free; stamps start at 1).
    stamp: Round,
    /// The node's index in the round's ascending awake set.
    slot: u32,
    /// Envelopes delivered to the node this round, duplicates included.
    count: u32,
    /// Bits delivered to the node this round, duplicates included;
    /// charged to its stats and energy ledger once, at deliver time.
    bits: u64,
}

/// Reusable executor state: the wake queue, the node contexts and their
/// shared weight table, the per-round delivery buffers (send lanes, flat
/// inbox arena, grouping scratch), and a pool of recycled [`RunStats`].
///
/// [`Simulator::run_with_scratch`](crate::Simulator::run_with_scratch)
/// threads one value through many runs — a sweep's worker thread creates
/// one scratch and reuses it for its whole trial stream, so executor
/// allocations are O(workers) instead of O(runs). Every run fully
/// re-initializes the scratch before use; nothing observable leaks
/// between runs (the reused-scratch differential proptests pin this).
#[derive(Debug)]
pub struct ExecutorScratch<M> {
    queue: WakeQueue,
    awake_now: Vec<u32>,
    /// Receiver records, by node.
    receivers: Vec<Receiver>,
    /// Flat inbox arena of rounds too large to group in place: every
    /// delivered envelope of the round, gathered out of the send lanes,
    /// grouped by receiver slot and sorted by receiver port within each
    /// group.
    arena: Vec<Envelope<M>>,
    /// `slots[i]` = receiver slot of the round's `i`-th delivered envelope
    /// in send order.
    slots: Vec<u32>,
    /// The grouping permutation between send order and inbox order.
    order: Vec<u32>,
    /// Per-slot placement cursor of the grouping scatter.
    cursor: Vec<u32>,
    /// The run's node contexts, refilled in place every run.
    ctxs: Vec<NodeCtx>,
    /// The run-wide port-weight table every context's
    /// [`PortWeights`] views.
    weights: Arc<[u64]>,
    /// Send lanes: lane 0 serves serial rounds, and a run with
    /// `shards > 1` adds one per shard the first time a round is wide
    /// enough to parallelize.
    shard_lanes: Vec<ShardScratch<M>>,
    stats_pool: Vec<RunStats>,
    /// Per-stage wall-clock profile, accumulated over every run from
    /// this scratch once [`ExecutorScratch::enable_profile`] turns it on.
    profile: Option<StageClock>,
}

impl<M> Default for ExecutorScratch<M> {
    fn default() -> Self {
        ExecutorScratch::new()
    }
}

impl<M> ExecutorScratch<M> {
    /// An empty scratch; buffers grow to their high-water marks during the
    /// first run and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        ExecutorScratch {
            queue: WakeQueue::new(0),
            awake_now: Vec::new(),
            receivers: Vec::new(),
            arena: Vec::new(),
            slots: Vec::new(),
            order: Vec::new(),
            cursor: Vec::new(),
            ctxs: Vec::new(),
            weights: Arc::default(),
            shard_lanes: Vec::new(),
            stats_pool: Vec::new(),
            profile: None,
        }
    }

    /// Returns a no-longer-needed [`RunStats`] to the pool so the next run
    /// from this scratch reuses its vectors instead of allocating.
    pub fn recycle(&mut self, stats: RunStats) {
        self.stats_pool.push(stats);
    }

    /// Turns on the per-stage wall-clock profile ([`StageClock`]) for
    /// every later run from this scratch. Profiling reads the clock a few
    /// times per round and never touches simulation state: outcomes are
    /// bit-identical with it on or off.
    pub fn enable_profile(&mut self) {
        self.profile.get_or_insert_with(StageClock::new);
    }

    /// The per-stage wall time summed over the runs since
    /// [`ExecutorScratch::enable_profile`]; `None` while profiling is off.
    #[must_use]
    pub fn profile(&self) -> Option<&StageClock> {
        self.profile.as_ref()
    }

    /// Re-initializes every buffer for a fresh `n`-node run.
    fn reset(&mut self, n: usize) {
        self.queue.reset(n);
        self.awake_now.clear();
        // Stale stamps would mark nodes awake in a round of the *next*
        // run (rounds restart from 1), so clearing is load-bearing.
        self.receivers.clear();
        self.receivers.resize(n, Receiver::default());
        self.arena.clear();
        self.slots.clear();
        self.order.clear();
        self.cursor.clear();
        if self.shard_lanes.is_empty() {
            self.shard_lanes.push(ShardScratch::new());
        }
        for lane in self.shard_lanes.iter_mut() {
            lane.outbox.clear();
            lane.arena.clear();
            lane.records.clear();
            lane.error = None;
        }
    }

    /// A zeroed [`RunStats`] for an `n`-node, `m`-edge run — recycled
    /// storage if the pool has any, freshly allocated otherwise.
    fn take_stats(&mut self, n: usize, m: usize) -> RunStats {
        match self.stats_pool.pop() {
            Some(mut stats) => {
                stats.reset(n, m);
                stats
            }
            None => RunStats::new(n, m),
        }
    }
}

/// Buffers a `Delivered` trace event. Deliberately out-of-line: the
/// `Debug` formatting machinery must stay off the untraced hot path.
/// Delivery events buffer into `buf` (flushed after the round's send
/// half-step) so the recorded order — every `Awake` of the round, then
/// `Delivered`/`Lost` in send order — is identical under every driver.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn record_delivered<M: Payload>(
    buf: &mut Vec<TraceEvent>,
    round: Round,
    from: u32,
    to: u32,
    recv_port: u32,
    bits: usize,
    msg: &M,
) {
    buf.push(TraceEvent::Delivered {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
        port: Port::new(recv_port),
        bits,
        payload: format!("{msg:?}"),
    });
}

/// Buffers a `Lost` trace event (out-of-line, like [`record_delivered`]).
#[cold]
#[inline(never)]
fn record_lost(buf: &mut Vec<TraceEvent>, round: Round, from: u32, to: u32) {
    buf.push(TraceEvent::Lost {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
    });
}

/// Buffers a `Dropped` trace event (out-of-line, like [`record_lost`]).
#[cold]
#[inline(never)]
fn record_dropped(buf: &mut Vec<TraceEvent>, round: Round, from: u32, to: u32) {
    buf.push(TraceEvent::Dropped {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
    });
}

/// How the kernel advances simulated time. One implementation per
/// [`Executor`]; the kernel is generic over this trait and owns
/// everything else (sends, routing, faults, delivery, accounting).
///
/// Contract: rounds returned by `next_round` are strictly increasing;
/// `is_awake_in(v, r)` holds exactly for the nodes returned live for the
/// currently executing round `r` and is falsified by `halt` (crash) or
/// `schedule` (suppression) during fault adjudication.
trait TimeDriver {
    /// Schedules (or re-schedules) `node` to wake in `round`.
    fn schedule(&mut self, node: u32, round: Round);
    /// Marks `node` as halted; it will never be returned live again.
    fn halt(&mut self, node: u32);
    /// Advances to the next round with scheduled activity, filling
    /// `live` with the nodes waking in it (ascending). `None` = no
    /// pending wakes remain. May return a round past the budget (with
    /// any live set); the kernel turns that into `MaxRoundsExceeded`.
    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round>;
    /// Whether `node` is awake in the currently executing `round`.
    fn is_awake_in(&self, node: u32, round: Round) -> bool;
}

/// [`Executor::Calendar`]: the event-driven driver. A thin shim over the
/// bucketed [`WakeQueue`] — `next_round` pops the earliest populated
/// round, so the clock jumps over silent rounds without visiting them.
struct CalendarDriver<'a> {
    queue: &'a mut WakeQueue,
}

impl TimeDriver for CalendarDriver<'_> {
    fn schedule(&mut self, node: u32, round: Round) {
        self.queue.schedule(node, round);
    }

    fn halt(&mut self, node: u32) {
        self.queue.halt(node);
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        self.queue.pop_round(live)
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.queue.is_awake_in(node, round)
    }
}

/// [`Executor::Sync`]: the round-synchronous driver. Same calendar state
/// as [`CalendarDriver`], but the clock walks from the current round to
/// the next wake one round at a time, paying a per-round tick for every
/// silent round — the cost model of a traditional round-driven
/// simulator, kept honest by `std::hint::black_box`.
struct SyncDriver<'a> {
    queue: &'a mut WakeQueue,
    /// The last round the clock has passed through.
    cursor: Round,
    /// The run's round budget; the walk never goes further than one
    /// round past it (the kernel reports `MaxRoundsExceeded` there).
    limit: Round,
}

impl<'a> SyncDriver<'a> {
    fn new(queue: &'a mut WakeQueue, limit: Round) -> Self {
        SyncDriver {
            queue,
            cursor: 0,
            limit,
        }
    }
}

impl TimeDriver for SyncDriver<'_> {
    fn schedule(&mut self, node: u32, round: Round) {
        self.queue.schedule(node, round);
    }

    fn halt(&mut self, node: u32) {
        self.queue.halt(node);
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        let target = self.queue.peek_round()?;
        // Walk the clock one round at a time up to the next wake — but
        // never past the round budget, so a single distant wake cannot
        // turn the budget check into an unbounded spin. Every silent
        // round pays the question a round-synchronous scheduler cannot
        // skip ("does anyone wake now?"); `black_box` keeps the
        // optimizer from collapsing the walk back into a calendar jump.
        let stop = target.min(self.limit.saturating_add(1));
        while self.cursor < stop {
            self.cursor += 1;
            let due = self.queue.peek_round() == Some(self.cursor);
            std::hint::black_box(due);
        }
        self.queue.pop_round(live)
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.queue.is_awake_in(node, round)
    }
}

/// [`Executor::Naive`]: the oracle driver. No calendar, no stamps — just a
/// per-node next-wake table scanned in full (`O(n)`) for every simulated
/// round. Too simple to share a bug with the calendar machinery, which
/// is its entire job.
struct NaiveDriver {
    /// `Some(r)` = node wakes in round `r`; `None` = halted.
    next_wake: Vec<Option<Round>>,
    /// The last round returned (rounds are scanned strictly upward).
    cursor: Round,
    /// The run's round budget; scanning stops one round past it.
    limit: Round,
}

impl NaiveDriver {
    fn new(n: usize, limit: Round) -> Self {
        NaiveDriver {
            next_wake: vec![None; n],
            cursor: 0,
            limit,
        }
    }
}

impl TimeDriver for NaiveDriver {
    fn schedule(&mut self, node: u32, round: Round) {
        self.next_wake[node as usize] = Some(round);
    }

    fn halt(&mut self, node: u32) {
        self.next_wake[node as usize] = None;
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        loop {
            if self.next_wake.iter().all(Option::is_none) {
                return None;
            }
            self.cursor += 1;
            live.clear();
            for (v, wake) in self.next_wake.iter().enumerate() {
                if *wake == Some(self.cursor) {
                    live.push(v as u32);
                }
            }
            // Surface the first round past the budget even when nothing
            // wakes in it: nodes are still running, so the kernel must
            // report `MaxRoundsExceeded` exactly as the other drivers
            // do, not scan silently toward a distant wake.
            if !live.is_empty() || self.cursor > self.limit {
                return Some(self.cursor);
            }
        }
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.next_wake[node as usize] == Some(round)
    }
}

/// The per-run and per-round state the kernel borrows from an
/// [`ExecutorScratch`] — split out so the scratch's `queue` can be
/// borrowed separately by the calendar/sync drivers.
struct KernelBuffers<'a, M> {
    awake_now: &'a mut Vec<u32>,
    receivers: &'a mut Vec<Receiver>,
    arena: &'a mut Vec<Envelope<M>>,
    slots: &'a mut Vec<u32>,
    order: &'a mut Vec<u32>,
    cursor: &'a mut Vec<u32>,
    ctxs: &'a mut Vec<NodeCtx>,
    weights: &'a mut Arc<[u64]>,
    shard_lanes: &'a mut Vec<ShardScratch<M>>,
    profile: &'a mut Option<StageClock>,
}

/// Runs a protocol under the driver selected by [`SimConfig::executor`].
/// The single entry point behind [`Simulator`](crate::Simulator): resets
/// the scratch, builds the chosen [`TimeDriver`], and hands both to the
/// generic kernel.
pub(crate) fn run<P, F, O>(
    graph: &WeightedGraph,
    config: &SimConfig,
    factory: F,
    observer: O,
    scratch: &mut ExecutorScratch<P::Msg>,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
    O: FnMut(Round, &[P]),
{
    if let Some(clock) = scratch.profile.as_mut() {
        clock.mark();
    }
    let n = graph.node_count();
    scratch.reset(n);
    let stats = scratch.take_stats(n, graph.edge_count());
    let ExecutorScratch {
        queue,
        awake_now,
        receivers,
        arena,
        slots,
        order,
        cursor,
        ctxs,
        weights,
        shard_lanes,
        profile,
        ..
    } = scratch;
    let bufs = KernelBuffers {
        awake_now,
        receivers,
        arena,
        slots,
        order,
        cursor,
        ctxs,
        weights,
        shard_lanes,
        profile,
    };
    match config.executor {
        Executor::Calendar => {
            let driver = CalendarDriver { queue };
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
        Executor::Sync => {
            let driver = SyncDriver::new(queue, config.max_rounds);
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
        Executor::Naive => {
            let driver = NaiveDriver::new(n, config.max_rounds);
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
    }
}

/// Charges the wall time since the profile's last lap to `stage`; a
/// no-op (one untaken branch) while profiling is off.
#[inline]
fn lap(profile: &mut Option<StageClock>, stage: Stage) {
    if let Some(clock) = profile.as_mut() {
        clock.lap(stage);
    }
}

/// The one generic execution kernel. Owns the whole per-active-round
/// body — awake-set collection, the send half-step, routing, fault
/// adjudication, arena grouping, the deliver half-step, and all
/// stats/trace/metrics/observer recording — and asks the [`TimeDriver`]
/// only which round comes next and who is awake in it.
#[allow(clippy::too_many_arguments)]
fn run_kernel<P, F, O, D>(
    graph: &WeightedGraph,
    config: &SimConfig,
    mut factory: F,
    mut observer: O,
    mut stats: RunStats,
    mut driver: D,
    bufs: KernelBuffers<'_, P::Msg>,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
    O: FnMut(Round, &[P]),
    D: TimeDriver,
{
    let KernelBuffers {
        awake_now,
        receivers,
        arena,
        slots,
        order,
        cursor,
        ctxs,
        weights,
        shard_lanes,
        profile,
    } = bufs;
    let mut trace = Trace::default();
    let faults = active_faults(config);
    // Energy charging and wake-policy transforms live here, in the one
    // kernel, so every driver and every shard count produces the same
    // ledger and the same schedule by construction. Both are `None` on
    // the common path (inert model / identity policy) and cost one
    // untaken branch per event.
    let energy = active_energy(config);
    let policy = active_policy(config);
    // First budget exhaustion of the run (earliest round, lowest node
    // within it — the deliver loop visits nodes ascending). Any
    // exhaustion makes the run report `EnergyExhausted` at the end; the
    // run itself continues with the node forced asleep, like a crash.
    let mut first_exhausted: Option<(NodeId, Round)> = None;
    stats.graph_bytes = graph.memory_bytes();
    // Sharding is a pure execution strategy: any round too narrow to
    // parallelize (or any traced run — trace payload formatting is
    // inherently sequential) takes the serial path, and the outcomes are
    // bit-identical either way (the cross-shard differential proptests
    // pin this). The per-round decision is [`shard_chunk_len`].
    // `None` when metrics are off: the hot path pays one untaken branch
    // per event and execution is bit-identical (pinned fingerprints).
    let mut metrics = if config.record_metrics {
        Some(MetricsRecorder::new(graph.node_count(), graph.edge_count()))
    } else {
        None
    };

    // --- Init: contexts, protocol values, first wakes ---
    refill_contexts(graph, config, ctxs, weights);
    let mut protocols = Vec::with_capacity(ctxs.len());
    let mut running = 0usize;
    for ctx in ctxs.iter() {
        let node = ctx.node;
        let mut protocol = factory(ctx);
        match protocol.init(ctx) {
            NextWake::At(0) => {
                return Err(SimError::WakeNotInFuture {
                    node,
                    round: 0,
                    requested: 0,
                });
            }
            NextWake::At(r) => {
                let v = node.raw();
                let r = match faults {
                    Some(plan) => plan.jittered(v, r),
                    None => r,
                };
                // The wake policy maps the (possibly jittered) request to
                // the round the node actually wakes in — always at or
                // after it.
                let r = match policy {
                    Some(p) => p.applied(v, r),
                    None => r,
                };
                driver.schedule(v, r);
                running += 1;
            }
            NextWake::Halt => {
                if config.record_trace {
                    trace.push(TraceEvent::Halted { round: 0, node });
                }
            }
        }
        protocols.push(protocol);
    }
    let ctxs: &[NodeCtx] = ctxs;
    // Round-local trace staging; stays empty (and allocation-free) unless
    // the run records a trace.
    let mut trace_buf: Vec<TraceEvent> = Vec::new();
    // The previous round handed out by the driver (0 = none yet).
    #[cfg(feature = "validate")]
    let mut previous_round: Round = 0;
    lap(profile, Stage::Init);

    while let Some(round) = driver.next_round(awake_now) {
        // The calendar relies on time moving forward; under `validate`
        // a driver breaking the `TimeDriver` contract fails the run
        // with a typed error instead of corrupting it.
        #[cfg(feature = "validate")]
        {
            if round <= previous_round {
                return Err(SimError::RoundNotIncreasing {
                    round,
                    previous: previous_round,
                });
            }
            previous_round = round;
        }
        if round > config.max_rounds {
            // An earlier exhaustion explains the overrun (the forced
            // sleep is what strands the survivors); report it instead.
            if let Some((node, round)) = first_exhausted {
                return Err(SimError::EnergyExhausted { node, round });
            }
            return Err(SimError::MaxRoundsExceeded {
                limit: config.max_rounds,
                running,
            });
        }
        if let Some(plan) = faults {
            // Crash and spurious-sleep adjudication, before any send: a
            // filtered node must look asleep to the whole round — halting
            // or rescheduling it does that — so messages to it are lost
            // per the model. `retain` preserves the ascending order
            // contract.
            awake_now.retain(|&v| {
                if plan.crashes_at(v, round) {
                    driver.halt(v);
                    running -= 1;
                    stats.crashed_nodes += 1;
                    if config.record_trace {
                        trace.push(TraceEvent::Crashed {
                            round,
                            node: NodeId::new(v),
                        });
                    }
                    return false;
                }
                if plan.suppresses(round, v) {
                    driver.schedule(v, round + 1);
                    return false;
                }
                true
            });
        }
        lap(profile, Stage::NextRound);
        if awake_now.is_empty() {
            // A round whose wakes were all superseded or fault-filtered
            // is not run time: `stats.rounds` is the last round in which
            // some node actually executed, so it always agrees with the
            // metrics stream (`metrics.last_round()`) — under every
            // driver.
            continue;
        }
        stats.rounds = round;
        if let Some(rec) = metrics.as_mut() {
            rec.start_round(round, awake_now);
        }
        // Awake accounting up front: the awake set is fixed before any
        // send, so the receiver records (which shard workers read
        // lock-free), the per-node awake counts, and the `Awake` trace
        // events — which precede the round's buffered delivery events in
        // the recorded order anyway — are all independent of how the
        // send half-step executes.
        // Nano-joules charged this round (round + tx + rx + idle terms),
        // for the metrics timeline; stays 0 without an active model.
        let mut round_energy = 0u64;
        for (slot, &v) in awake_now.iter().enumerate() {
            receivers[v as usize] = Receiver {
                stamp: round,
                slot: slot as u32,
                count: 0,
                bits: 0,
            };
            stats.awake_by_node[v as usize] += 1;
            if let Some(em) = energy {
                stats.energy_spent_by_node[v as usize] += em.round_cost;
                round_energy += em.round_cost;
            }
            if config.record_trace {
                trace.push(TraceEvent::Awake {
                    round,
                    node: NodeId::new(v),
                });
            }
        }

        // --- Send half-step ---
        // Each message is fully adjudicated at routing time: the awake set
        // is fixed before any send, so delivered-vs-lost is already known
        // here. Stats are order-independent sums and accrue inline; lost
        // messages are accounted and dropped without ever materializing.
        // Delivered envelopes land in the send lanes' arenas in send
        // order, with the receiver slot recorded alongside in `slots` and
        // the receiver's count and bits in its record. Trace events buffer
        // so their order is driver-independent (see [`record_delivered`]).
        slots.clear();
        let lanes_used = if let Some(chunk_len) =
            shard_chunk_len(awake_now.len(), config.shards, config.record_trace)
        {
            // --- Sharded send ---
            // Partition the ascending awake set into contiguous chunks;
            // each worker runs its nodes' sends against a disjoint
            // protocol sub-slice and records adjudicated outcomes into
            // its own lane. Concatenating the lanes in shard order
            // reproduces serial node order exactly, so the merge below
            // replays the identical accounting stream.
            let lanes_used = awake_now.len().div_ceil(chunk_len);
            if shard_lanes.len() < lanes_used {
                shard_lanes.resize_with(lanes_used, ShardScratch::new);
            }
            let bit_limit = config.bit_limit;
            let records: &[Receiver] = receivers;
            std::thread::scope(|scope| {
                let mut rest: &mut [P] = &mut protocols;
                let mut base = 0usize;
                for (chunk, lane) in awake_now.chunks(chunk_len).zip(shard_lanes.iter_mut()) {
                    let Some(&hi) = chunk.last() else { continue };
                    let take = (hi as usize + 1 - base).min(rest.len());
                    let (part, tail) = rest.split_at_mut(take);
                    rest = tail;
                    let part_base = base;
                    base = hi as usize + 1;
                    scope.spawn(move || {
                        shard_send(
                            graph, bit_limit, faults, round, records, ctxs, part, part_base, chunk,
                            lane,
                        );
                    });
                }
            });
            let lanes = &mut shard_lanes[..lanes_used];
            // First error in lane order = first error in node order =
            // exactly where the serial path would have aborted.
            for lane in lanes.iter_mut() {
                if let Some(err) = lane.error.take() {
                    return Err(err);
                }
            }
            for lane in lanes.iter_mut() {
                lane.base = slots.len() as u32;
                for rec in lane.records.iter() {
                    stats.bits_by_edge[rec.edge as usize] += rec.bits;
                    stats.max_message_bits = stats.max_message_bits.max(rec.bits);
                    if let Some(em) = energy {
                        // The sender pays transmit energy for every routed
                        // message — lost and dropped ones included, exactly
                        // as the serial path charges.
                        let tx = em.tx_bit_cost * rec.bits;
                        stats.energy_spent_by_node[rec.from as usize] += tx;
                        round_energy += tx;
                    }
                    if let Some(m) = metrics.as_mut() {
                        m.on_send(rec.edge as usize, rec.bits as usize);
                    }
                    match rec.kind {
                        SentKind::Delivered => {
                            stats.messages_delivered += 1;
                            if let Some(m) = metrics.as_mut() {
                                m.on_delivered();
                            }
                            let to = &mut receivers[rec.to as usize];
                            to.count += 1;
                            to.bits += rec.bits;
                            slots.push(to.slot);
                        }
                        SentKind::DeliveredDup => {
                            stats.messages_delivered += 2;
                            stats.dup_deliveries += 1;
                            if let Some(m) = metrics.as_mut() {
                                m.on_delivered();
                                m.on_dup_delivered();
                            }
                            let to = &mut receivers[rec.to as usize];
                            to.count += 2;
                            to.bits += 2 * rec.bits;
                            slots.push(to.slot);
                            slots.push(to.slot);
                        }
                        SentKind::Lost => {
                            stats.messages_lost += 1;
                            if let Some(m) = metrics.as_mut() {
                                m.on_lost();
                            }
                        }
                        SentKind::Dropped => {
                            stats.injected_drops += 1;
                            if let Some(m) = metrics.as_mut() {
                                m.on_dropped();
                            }
                        }
                    }
                }
            }
            lanes_used
        } else {
            let ShardScratch {
                outbox,
                arena: sent,
                base,
                ..
            } = &mut shard_lanes[0];
            *base = 0;
            sent.clear();
            for &v in awake_now.iter() {
                let node = NodeId::new(v);
                outbox.clear();
                protocols[v as usize].send(&ctxs[v as usize], round, outbox);
                for Envelope { port, msg } in outbox.drain() {
                    let (to, recv_port, bits, edge) =
                        route_envelope(graph, config, &mut stats, node, round, port, &msg)?;
                    if let Some(em) = energy {
                        // Transmit energy accrues at routing time: the
                        // sender pays whether the message is delivered,
                        // lost, or dropped in flight.
                        let tx = em.tx_bit_cost * bits as u64;
                        stats.energy_spent_by_node[v as usize] += tx;
                        round_energy += tx;
                    }
                    if let Some(rec) = metrics.as_mut() {
                        rec.on_send(edge, bits);
                    }
                    if let Some(plan) = faults {
                        // A dropped message is destroyed in flight after the
                        // sender paid for it (bits accrued above), regardless
                        // of the receiver's state — it is an injected fault,
                        // not a model loss.
                        if plan.drops(round, v, port.raw()) {
                            stats.injected_drops += 1;
                            if let Some(rec) = metrics.as_mut() {
                                rec.on_dropped();
                            }
                            if config.record_trace {
                                record_dropped(&mut trace_buf, round, v, to);
                            }
                            continue;
                        }
                    }
                    let receiver = &mut receivers[to as usize];
                    let to_awake = receiver.stamp == round;
                    debug_assert_eq!(to_awake, driver.is_awake_in(to, round));
                    if to_awake {
                        stats.messages_delivered += 1;
                        receiver.count += 1;
                        receiver.bits += bits as u64;
                        if let Some(rec) = metrics.as_mut() {
                            rec.on_delivered();
                        }
                        if config.record_trace {
                            record_delivered(&mut trace_buf, round, v, to, recv_port, bits, &msg);
                        }
                        slots.push(receiver.slot);
                        // An injected duplication delivers a second identical
                        // copy; it counts as a delivery of its own so the
                        // conservation audit reconciles.
                        let dup = match faults {
                            Some(plan) => plan.duplicates(round, v, port.raw()),
                            None => false,
                        };
                        if dup {
                            stats.messages_delivered += 1;
                            stats.dup_deliveries += 1;
                            receiver.count += 1;
                            receiver.bits += bits as u64;
                            if let Some(rec) = metrics.as_mut() {
                                rec.on_dup_delivered();
                            }
                            if config.record_trace {
                                record_delivered(
                                    &mut trace_buf,
                                    round,
                                    v,
                                    to,
                                    recv_port,
                                    bits,
                                    &msg,
                                );
                            }
                            slots.push(receiver.slot);
                            sent.push(Envelope::new(Port::new(recv_port), msg.clone()));
                        }
                        sent.push(Envelope::new(Port::new(recv_port), msg));
                    } else {
                        stats.messages_lost += 1;
                        if let Some(rec) = metrics.as_mut() {
                            rec.on_lost();
                        }
                        if config.record_trace {
                            record_lost(&mut trace_buf, round, v, to);
                        }
                    }
                }
            }
            1
        };
        if config.record_trace {
            for event in trace_buf.drain(..) {
                trace.push(event);
            }
        }
        stats.arena_peak_envelopes = stats.arena_peak_envelopes.max(slots.len() as u64);
        lap(profile, Stage::SendRoute);

        // --- Grouping ---
        // Group the round's envelopes by receiver slot in O(M): every
        // slot's inbox range starts where the previous one ends (the
        // receiver records already hold the counts), and each envelope
        // takes the next position of its slot's range in send order —
        // so within a slot the grouped arena keeps send order. Sorting
        // each range by port (in the deliver loop) then reproduces
        // exactly a per-inbox `sort_by_key(|e| e.port)`: deliver order
        // is bit-identical under every driver and shard count.
        cursor.clear();
        let mut start = 0u32;
        for &v in awake_now.iter() {
            cursor.push(start);
            start += receivers[v as usize].count;
        }
        order.clear();
        arena.clear();
        let in_place = lanes_used == 1
            && slots.len() * std::mem::size_of::<Envelope<P::Msg>>() <= IN_PLACE_GROUPING_BYTES;
        let inboxes: &mut [Envelope<P::Msg>] = if in_place {
            // A cache-resident round is permuted within lane 0 by
            // walking the permutation's cycles: no second buffer.
            order.extend(slots.iter().map(|&slot| {
                let at = &mut cursor[slot as usize];
                *at += 1;
                *at - 1
            }));
            let sent = &mut shard_lanes[0].arena;
            for i in 0..order.len() {
                while order[i] != i as u32 {
                    let j = order[i] as usize;
                    sent.swap(i, j);
                    order.swap(i, j);
                }
            }
            sent
        } else {
            // Out of cache, each cycle-walk swap would wait on the last
            // one's miss; an index scatter plus a sequential gather out of
            // the lanes issues independent loads instead.
            order.resize(slots.len(), 0);
            for (i, &slot) in slots.iter().enumerate() {
                let at = &mut cursor[slot as usize];
                order[*at as usize] = i as u32;
                *at += 1;
            }
            let lanes: &[ShardScratch<P::Msg>] = &shard_lanes[..lanes_used];
            arena.extend(order.iter().map(|&i| {
                // Lanes are contiguous runs of the send order: the lane
                // holding send index `i` is the last one starting at or
                // before it.
                let lane = &lanes[lanes[1..].iter().filter(|lane| lane.base <= i).count()];
                lane.arena[(i - lane.base) as usize].clone()
            }));
            for lane in shard_lanes[..lanes_used].iter_mut() {
                lane.arena.clear();
            }
            arena
        };
        lap(profile, Stage::Grouping);

        // --- Deliver half-step ---
        let mut start = 0usize;
        for &v in awake_now.iter() {
            let node = NodeId::new(v);
            let Receiver { count, bits, .. } = receivers[v as usize];
            if count == 0 {
                // An awake round that delivered nothing is idle listening.
                // Counted whether or not an energy model is active, so an
                // inert model stays bit-identical to no model.
                stats.idle_listen_rounds += 1;
                if let Some(em) = energy {
                    stats.energy_spent_by_node[v as usize] += em.idle_cost;
                    round_energy += em.idle_cost;
                }
            } else {
                // Receive accounting, once per receiver: the sum over the
                // round's envelopes, charged before the budget check.
                stats.bits_received_by_node[v as usize] += bits;
                if let Some(em) = energy {
                    let rx = em.rx_bit_cost * bits;
                    stats.energy_spent_by_node[v as usize] += rx;
                    round_energy += rx;
                }
            }
            let inbox = &mut inboxes[start..start + count as usize];
            start += count as usize;
            if inbox.len() > 1 {
                inbox.sort_by_key(|e| e.port);
            }
            let next = protocols[v as usize].deliver(&ctxs[v as usize], round, inbox);
            // Budget adjudication: by deliver time every charge of the
            // node's round (round, tx, rx, idle) has accrued, so the
            // verdict is final — and reached in serial node order under
            // every driver and shard count.
            let exhausted = match energy {
                Some(em) => em
                    .budget
                    .is_some_and(|b| stats.energy_spent_by_node[v as usize] > b),
                None => false,
            };
            if exhausted {
                stats.exhausted_nodes += 1;
                if first_exhausted.is_none() {
                    first_exhausted = Some((node, round));
                }
            }
            match next {
                NextWake::At(r) => {
                    if r <= round {
                        return Err(SimError::WakeNotInFuture {
                            node,
                            round,
                            requested: r,
                        });
                    }
                    if exhausted {
                        // Forced asleep permanently — the crash machinery:
                        // the requested wake is discarded and messages to
                        // the node are lost from here on.
                        driver.halt(v);
                        running -= 1;
                    } else {
                        let r = match faults {
                            Some(plan) => plan.jittered(v, r),
                            None => r,
                        };
                        let r = match policy {
                            Some(p) => p.applied(v, r),
                            None => r,
                        };
                        driver.schedule(v, r);
                    }
                }
                NextWake::Halt => {
                    driver.halt(v);
                    running -= 1;
                    if config.record_trace {
                        trace.push(TraceEvent::Halted { round, node });
                    }
                }
            }
        }

        if let Some(rec) = metrics.as_mut() {
            rec.set_energy(round_energy);
            rec.finish_round();
        }
        observer(round, &protocols);
        lap(profile, Stage::Deliver);
    }

    // A budget violation outranks the residual symptoms it causes (the
    // stall of the survivors, or even a clean-looking completion): any
    // exhaustion fails the run with the typed error.
    if let Some((node, round)) = first_exhausted {
        return Err(SimError::EnergyExhausted { node, round });
    }
    if running > 0 {
        return Err(SimError::Stalled {
            running,
            round: stats.rounds,
        });
    }
    Ok(RunOutcome {
        states: protocols,
        stats,
        trace,
        metrics: metrics
            .map(MetricsRecorder::into_metrics)
            .unwrap_or_default(),
    })
}

/// Reference run under the [`Executor::Naive`] driver: a per-round
/// `O(n)` scan of every node's next wake, from round 1 upward.
///
/// Semantically identical to the calendar executor — identical final
/// states, [`RunStats`], trace, and metrics — but costs time
/// proportional to the run's round count. It exists as the
/// differential-testing oracle that locks in the calendar machinery's
/// behavior (see `tests/differential.rs`); it is not part of the
/// supported simulation API surface.
///
/// # Errors
///
/// Propagates the same [`SimError`] conditions as
/// [`Simulator::run`](crate::Simulator::run).
pub fn run_naive<P, F>(
    graph: &WeightedGraph,
    config: &SimConfig,
    factory: F,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
{
    let mut config = config.clone();
    config.executor = Executor::Naive;
    run(
        graph,
        &config,
        factory,
        |_, _: &[P]| {},
        &mut ExecutorScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_names_roundtrip_and_default_is_calendar() {
        for e in Executor::ALL {
            assert_eq!(Executor::parse(e.as_str()), Some(e));
            assert_eq!(e.to_string(), e.as_str());
        }
        assert_eq!(Executor::parse("warp"), None);
        assert_eq!(Executor::default(), Executor::Calendar);
    }

    #[test]
    fn wake_queue_orders_and_dedups() {
        let mut q = WakeQueue::new(3);
        q.schedule(2, 5);
        q.schedule(0, 3);
        q.schedule(1, 3);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(3));
        assert_eq!(live, vec![0, 1]);
        assert_eq!(q.pop_round(&mut live), Some(5));
        assert_eq!(live, vec![2]);
        assert_eq!(q.pop_round(&mut live), None);
    }

    #[test]
    fn wake_queue_halt_makes_entry_stale() {
        let mut q = WakeQueue::new(2);
        q.schedule(0, 4);
        q.schedule(1, 4);
        q.halt(1);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(4));
        assert_eq!(live, vec![0]);
    }

    /// A superseded or cancelled wake never surfaces its round: the stale
    /// entry is dropped when its bucket comes up, whether the live wake
    /// is earlier or later than it.
    #[test]
    fn wake_queue_drops_superseded_entries() {
        let mut q = WakeQueue::new(2);
        q.schedule(0, 9);
        q.schedule(0, 2); // supersedes: the round-9 entry is now stale
        q.schedule(1, 3);
        q.schedule(1, 40); // supersedes: the round-3 entry is now stale
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(2));
        assert_eq!(live, vec![0]);
        q.halt(0);
        assert_eq!(q.peek_round(), Some(40));
        assert_eq!(q.pop_round(&mut live), Some(40));
        assert_eq!(live, vec![1]);
        assert_eq!(q.pop_round(&mut live), None);
    }

    /// Rounds spread over many buckets pop in order, each exactly once,
    /// whether a bucket holds one round (popped in place) or several
    /// (redistributed).
    #[test]
    fn wake_queue_pops_spread_rounds_in_order() {
        let rounds: Vec<Round> = vec![5, 1 << 33, 6, 7, 1 << 20, 5, 1000, 999, (1 << 33) + 1];
        let mut q = WakeQueue::new(rounds.len());
        for (v, &r) in rounds.iter().enumerate() {
            q.schedule(v as u32, r);
        }
        let mut expected: Vec<(Round, Vec<u32>)> = Vec::new();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for r in sorted {
            let nodes = (0..rounds.len() as u32)
                .filter(|&v| rounds[v as usize] == r)
                .collect();
            expected.push((r, nodes));
        }
        let mut live = Vec::new();
        for (r, nodes) in expected {
            assert_eq!(q.peek_round(), Some(r));
            assert_eq!(q.pop_round(&mut live), Some(r));
            assert_eq!(live, nodes);
            for &v in &live {
                q.halt(v);
            }
        }
        assert_eq!(q.pop_round(&mut live), None);
    }

    /// The ascending-order contract of `pop_round`: the live set comes
    /// back sorted regardless of scheduling order, through both the
    /// multi-element path (which sorts) and the ≤1-element early-out.
    #[test]
    fn wake_queue_pop_round_yields_ascending_live_set() {
        let mut q = WakeQueue::new(6);
        // Scheduled in descending node order, with a superseded entry and
        // a duplicate-round reschedule mixed in.
        for v in (0..6u32).rev() {
            q.schedule(v, 3);
        }
        q.schedule(4, 8); // supersedes node 4's round-3 entry
        q.schedule(2, 3); // duplicate entry for the same (round, node)
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(3));
        assert_eq!(live, vec![0, 1, 2, 3, 5]);
        let mut sorted = live.clone();
        sorted.sort_unstable();
        assert_eq!(live, sorted);
        // Single-element round: the early-out path must also deliver.
        assert_eq!(q.pop_round(&mut live), Some(8));
        assert_eq!(live, vec![4]);
    }

    /// Resetting a queue must clear the pending wakes and the settled
    /// round: rounds restart at 1 every run, and a stale settled round
    /// would file a genuine wake under the wrong bucket.
    #[test]
    fn wake_queue_reset_clears_pending_wakes_and_settled_round() {
        let mut q = WakeQueue::new(2);
        q.schedule(0, 7);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(7));
        assert_eq!(live, vec![0]);
        q.reset(2);
        assert_eq!(q.peek_round(), None);
        q.schedule(0, 7); // same round number as the previous run
        assert_eq!(q.pop_round(&mut live), Some(7));
        assert_eq!(live, vec![0], "stale state swallowed the wake");
    }

    /// A driver that breaks the `TimeDriver` contract — it hands out
    /// round 4 again after round 4 — fails the run with the typed error
    /// under `validate`, before the repeated round executes.
    #[cfg(feature = "validate")]
    #[test]
    fn validate_rejects_a_driver_whose_rounds_do_not_increase() {
        struct Repeating {
            rounds: Vec<Round>,
        }
        impl TimeDriver for Repeating {
            fn schedule(&mut self, _: u32, _: Round) {}
            fn halt(&mut self, _: u32) {}
            fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
                live.clear();
                live.push(0);
                self.rounds.pop()
            }
            fn is_awake_in(&self, node: u32, _: Round) -> bool {
                node == 0
            }
        }
        struct Ticker;
        impl Protocol for Ticker {
            type Msg = u64;
            fn init(&mut self, ctx: &NodeCtx) -> NextWake {
                if ctx.node.raw() == 0 {
                    NextWake::At(2)
                } else {
                    NextWake::Halt
                }
            }
            fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<u64>) {}
            fn deliver(&mut self, _: &NodeCtx, round: Round, _: &[Envelope<u64>]) -> NextWake {
                NextWake::At(round + 1)
            }
        }

        let graph = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 1)
            .build()
            .expect("a one-edge graph");
        let config = SimConfig::default();
        let mut scratch: ExecutorScratch<u64> = ExecutorScratch::new();
        scratch.reset(2);
        let stats = scratch.take_stats(2, 1);
        let ExecutorScratch {
            awake_now,
            receivers,
            arena,
            slots,
            order,
            cursor,
            ctxs,
            weights,
            shard_lanes,
            profile,
            ..
        } = &mut scratch;
        let bufs = KernelBuffers {
            awake_now,
            receivers,
            arena,
            slots,
            order,
            cursor,
            ctxs,
            weights,
            shard_lanes,
            profile,
        };
        let driver = Repeating {
            rounds: vec![4, 4, 2],
        };
        let mut executed = Vec::new();
        let result = run_kernel(
            &graph,
            &config,
            |_| Ticker,
            |round, _: &[Ticker]| executed.push(round),
            stats,
            driver,
            bufs,
        );
        assert_eq!(
            result.err(),
            Some(SimError::RoundNotIncreasing {
                round: 4,
                previous: 4
            })
        );
        assert_eq!(executed, vec![2, 4]);
    }

    #[test]
    fn naive_driver_scans_upward_and_skips_empty_rounds() {
        let mut d = NaiveDriver::new(3, 100);
        d.schedule(2, 4);
        d.schedule(0, 2);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(2));
        assert_eq!(live, vec![0]);
        assert!(d.is_awake_in(0, 2));
        assert!(!d.is_awake_in(2, 2));
        d.halt(0);
        assert_eq!(d.next_round(&mut live), Some(4));
        assert_eq!(live, vec![2]);
        d.halt(2);
        assert_eq!(d.next_round(&mut live), None);
    }

    /// A wake beyond the budget must not make the naive driver scan
    /// silently toward it: the first round past the budget surfaces
    /// (empty) so the kernel can report `MaxRoundsExceeded`.
    #[test]
    fn naive_driver_surfaces_the_budget_boundary() {
        let mut d = NaiveDriver::new(1, 5);
        d.schedule(0, 9);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(6));
        assert!(live.is_empty());
    }

    /// The sync driver reaches exactly the same rounds and live sets as
    /// the calendar — it just walks the cursor through every round in
    /// between.
    #[test]
    fn sync_driver_walks_to_each_wake() {
        let mut q = WakeQueue::new(2);
        let mut d = SyncDriver::new(&mut q, 100);
        d.schedule(0, 3);
        d.schedule(1, 7);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(3));
        assert_eq!(live, vec![0]);
        assert_eq!(d.cursor, 3);
        assert!(d.is_awake_in(0, 3));
        assert_eq!(d.next_round(&mut live), Some(7));
        assert_eq!(live, vec![1]);
        assert_eq!(d.cursor, 7);
        assert_eq!(d.next_round(&mut live), None);
    }

    /// The sync walk is capped at one round past the budget, so a wake
    /// scheduled astronomically far out cannot hang the driver before
    /// the kernel's budget check fires.
    #[test]
    fn sync_driver_stops_walking_at_the_budget_boundary() {
        let mut q = WakeQueue::new(1);
        let mut d = SyncDriver::new(&mut q, 50);
        d.schedule(0, Round::MAX);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(Round::MAX));
        assert!(live == vec![0]);
        assert_eq!(d.cursor, 51);
    }
}
