//! The execution stack behind [`Simulator`](crate::Simulator): one
//! generic kernel, two time drivers.
//!
//! Exactly one loop — the crate-private `run_kernel` — owns the
//! per-active-round body: collect the awake set, run the send half-step
//! into the outbox, route/fault/deliver, record stats/trace/metrics, and
//! invoke the observer. *Which round comes next* is delegated to a
//! `TimeDriver`, selected by [`SimConfig::executor`]:
//!
//! * [`Executor::Calendar`] (the default, and the driver of every real
//!   workload) — keeps the scheduled wakes in a `WakeQueue`, a monotone
//!   bucketed calendar of `(next-wake, node)` events, and jumps time
//!   directly between populated rounds. Popping a round that wakes `k`
//!   nodes costs `O(k)` amortized plus a sort of the live set, so a run
//!   costs `O(W log W + M)` for `W` node-awake events and `M` messages,
//!   independent of how many silent rounds the schedule spans. This is
//!   the property the sleeping model exists to exploit: nodes are awake
//!   only `O(log n)` of the `O(n log n)` rounds, and the calendar never
//!   visits the empty ones.
//! * [`Executor::Naive`] — the differential-testing oracle: a per-round
//!   `O(n)` scan of every node's next wake, as close to a transliteration
//!   of the round semantics as possible. Never use it for real
//!   workloads; its entire value is being too simple to be wrong in the
//!   same way as the calendar.
//!
//! Both drivers produce bit-identical outcomes — final states,
//! [`RunStats`], [`Trace`], and metrics — for every protocol, fault
//! plan, and metrics setting; `tests/differential.rs` pins this with
//! cross-driver proptests.
//!
//! A round with `k` awake nodes and `M` delivered messages costs
//! `O(k + M)` work, split into *lanes*, one function per half-step for
//! every round: a serial round is one lane on the calling thread, a wide
//! sharded round splits its ascending awake set into contiguous chunks,
//! one lane each, lanes 1.. on scoped threads. In the send half-step a
//! lane is the only place a message is sent, routed (through the back
//! ports precomputed by [`graphlib::GraphBuilder::build`] — no adjacency
//! scan), adjudicated (one 4-byte slot-table lookup per message answers
//! whether the receiver is awake and where its inbox goes) and
//! accounted: it charges its senders' transmit energy into its own
//! window of the ledger, edge bits into the run's table (lane 0) or a
//! private one folded in at run end (lanes 1..), and drops each
//! delivered envelope into the bucket of the receiver's lane. In the
//! receive half-step the same chunks are the lanes: each groups the
//! buckets addressed to it, in send-lane order, into its own window of
//! one flat inbox arena (counting its slots, then scattering — or, for a
//! one-lane round that fits in cache, permuting in place), sorts each
//! inbox by port and runs its nodes' deliveries on its own windows of
//! the per-node tables. Every lane keeps its own counters and its first
//! error, and lanes 1.. record their wake decisions; the kernel folds
//! them in lane order — serial node order — so every shard count
//! produces the same bits. Nothing is logged per message and replayed.
//! All per-run and per-round state (node contexts, lanes and their
//! buckets, the slot table, the inbox arena) lives in an
//! [`ExecutorScratch`] that is reused across rounds *and across runs*,
//! so the steady-state hot path performs no allocations. The port-weight
//! table the contexts view belongs to the graph
//! ([`WeightedGraph::flat_port_weights`]), built once per graph; the
//! contexts are built once per graph and master seed, and a run on the
//! graph and seed of the scratch's previous run keeps them.

use std::num::NonZeroU64;
use std::sync::Arc;

use graphlib::{NodeId, Port, WeightedGraph};

use crate::metrics::{EdgeLoad, MetricsRecorder};
use crate::profile::{Stage, StageClock};
use crate::{
    EnergyModel, Envelope, FaultPlan, NextWake, NodeCtx, Outbox, Payload, PortWeights, Protocol,
    Round, RunOutcome, RunStats, SimConfig, SimError, Trace, TraceEvent, WakePolicy,
};

/// Rounds with fewer awake nodes than this run as one lane even when
/// [`SimConfig::shards`] asks for more shards: below it, the per-round
/// cost of spawning scoped worker threads dwarfs the round's work itself
/// (the paper's token-passing phases wake one or two nodes per round).
/// The outcome is bit-identical either way — the threshold only picks
/// how many lanes compute it.
const SHARD_MIN_AWAKE: usize = 128;

/// One-lane rounds whose delivered envelopes fit in this many bytes are
/// grouped into inboxes in place, in the send buffer; larger rounds, and
/// every sharded round, are scattered into a second buffer. In cache, walking the grouping
/// permutation's cycles is cheap and the second buffer would be memory
/// for nothing; out of cache, every swap of the walk waits on the
/// previous one's miss, while a scatter issues independent stores. The
/// outcome is bit-identical either way.
const IN_PLACE_GROUPING_BYTES: usize = 1 << 20;

/// The shard-engagement decision, as a pure function: `Some(chunk_len)`
/// when a round with `awake_len` awake nodes runs sharded (the ascending
/// awake set is split into contiguous chunks of `chunk_len`, one lane
/// per chunk, for the send and the receive half-step alike), `None` when
/// it runs as one lane on the calling thread.
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
/// Both produce bit-identical outcomes (final states, stats, trace,
/// metrics) for every protocol, fault plan, and metrics setting — the
/// cross-driver proptests in `tests/differential.rs` pin this. Only
/// [`SimConfig::with_executor`] selects one; no user surface does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Executor {
    /// Event-driven calendar (the default): a bucketed calendar of
    /// `(next-wake, node)` events; time jumps directly between populated
    /// rounds.
    #[default]
    Calendar,
    /// Per-round `O(n)` scan of every node's next wake — the
    /// differential-testing oracle. Never use it for real workloads.
    Naive,
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
/// per-node RNG seed — which is what lets differential runs agree. The
/// graph and the master seed are the only inputs. `max_external_id` and
/// the graph's `weights` table are passed in rather than recomputed:
/// `max_external_id()` is an `O(n)` scan of the id table, and calling it
/// per node made setup `O(n²)`; likewise each node's `port_weights` is a
/// [`PortWeights`] window into the graph's one weight table instead of a
/// per-node `Vec`.
fn node_ctx(
    graph: &WeightedGraph,
    master_seed: u64,
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
        rng_seed: master_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(node.raw()).wrapping_mul(0xff51_afd7_ed55_8ccd)),
    }
}

/// Makes a scratch's node contexts those of a run on `graph` under
/// `master_seed`. The previous run's contexts are kept when they were
/// built for the same graph — the same weight-table allocation
/// ([`WeightedGraph::flat_port_weights`]) — and the same seed, the only
/// inputs of [`node_ctx`]; otherwise they are rebuilt. `built_for` holds
/// that key, and its clone of the table pins the allocation, so no other
/// graph's table can take its address while the contexts are kept.
fn refill_contexts(
    graph: &WeightedGraph,
    master_seed: u64,
    ctxs: &mut Vec<NodeCtx>,
    built_for: &mut Option<(Arc<[u64]>, u64)>,
) {
    let weights = graph.flat_port_weights();
    if let Some((held, seed)) = built_for {
        if Arc::ptr_eq(held, &weights) && *seed == master_seed {
            return;
        }
    }
    ctxs.clear();
    let max_external_id = graph.max_external_id();
    ctxs.extend(
        graph
            .nodes()
            .map(|node| node_ctx(graph, master_seed, node, max_external_id, &weights)),
    );
    *built_for = Some((weights, master_seed));
}

/// `slot_of` entry of a node asleep in the executing round.
const ASLEEP: u32 = u32::MAX;

/// A send lane's tallies for one round, summed into the stats and the
/// metrics in lane order once every lane is done.
#[derive(Debug, Clone, Copy, Default)]
struct LaneTally {
    /// Copies handed to awake receivers, injected duplicates included.
    delivered: u64,
    /// Injected duplicate copies (also counted in `delivered`).
    dups: u64,
    /// Messages lost to sleeping receivers.
    lost: u64,
    /// Messages destroyed in flight by the fault plan.
    dropped: u64,
    /// Payload bits of every routed message.
    bits: u64,
    /// Largest routed message, in bits.
    max_bits: u64,
    /// Transmit energy charged to the lane's senders.
    tx_energy: u64,
}

/// A receive lane's tallies for one round, summed into the stats and the
/// metrics in lane order once every lane is done.
#[derive(Debug, Clone, Copy, Default)]
struct ReceiveTally {
    /// Awake nodes whose inbox was empty.
    idle: u64,
    /// Receive and idle-listening energy charged to the lane's nodes.
    energy: u64,
    /// Nodes over their energy budget after their deliver.
    exhausted: u64,
    /// The lane's lowest exhausted node.
    first_exhausted: Option<NodeId>,
}

/// What the kernel does with a delivered node's wake request, decided by
/// its receive lane and applied to the [`TimeDriver`] by the calling
/// thread.
#[derive(Debug, Clone, Copy)]
enum Wake {
    /// Wake in this round (fault jitter and wake policy already applied).
    At(Round),
    /// The protocol halted.
    Halt,
    /// Over budget: forced asleep for good, like a crash, whatever the
    /// protocol asked for.
    Exhausted,
}

/// The delivered envelopes one send lane routed to one receive lane, in
/// send order.
#[derive(Debug)]
struct Bucket<M> {
    arena: Vec<Envelope<M>>,
    /// `keys[i]` = receiver slot of `arena[i]`.
    keys: Vec<u32>,
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            arena: Vec::new(),
            keys: Vec::new(),
        }
    }
}

/// One lane: the working buffers of one contiguous chunk of a round's
/// awake set, reused across rounds (and runs) like every other executor
/// buffer. A serial round is lane 0 alone, on the calling thread; a wide
/// sharded round adds lanes 1.. on scoped threads. In the send half-step
/// every lane sends, routes, adjudicates and accounts its own chunk's
/// messages; in the receive half-step every lane groups the envelopes
/// addressed to its chunk and runs its chunk's deliveries. The kernel
/// folds the lanes' outputs in lane order, which is serial node order.
#[derive(Debug)]
struct ShardScratch<M> {
    outbox: Outbox<M>,
    /// `buckets[r]`: delivered envelopes of this lane's senders whose
    /// receiver is in lane `r`'s chunk. A serial round fills bucket 0
    /// only.
    buckets: Vec<Bucket<M>>,
    /// Receive half of a wide round: bucket `s` is send lane `s`'s bucket
    /// for this lane, moved here after the send half-step and back after
    /// the receive half-step.
    incoming: Vec<Bucket<M>>,
    /// Per-slot grouping cursor of this lane's chunk: after the scatter,
    /// `cursor[i]` is where the chunk's `i`-th slot's inbox ends.
    cursor: Vec<u32>,
    /// The in-place grouping's permutation from send order to inbox
    /// order.
    order: Vec<u32>,
    /// Lanes 1..: the chunk's wake decisions, in slot order, applied to
    /// the driver by the calling thread (lane 0 applies its own as it
    /// delivers).
    wakes: Vec<Wake>,
    tally: LaneTally,
    received: ReceiveTally,
    /// First error hit by this lane in the current half-step, if any; the
    /// lane stops at it, exactly where a serial round would abort.
    error: Option<SimError>,
    /// Lanes 1..: bits per edge over the run, folded into the stats at
    /// run end (lane 0 charges the stats' table directly). Emptied on
    /// [`ExecutorScratch::reset`] — a failed run leaves its charges here
    /// — and zero-filled by the run's first wide round.
    edge_bits: Vec<u64>,
    /// Lanes 1..: the round's per-edge load when metrics are recorded,
    /// folded into the recorder's at round end. Emptied like `edge_bits`.
    congestion: EdgeLoad,
}

impl<M> ShardScratch<M> {
    fn new() -> Self {
        ShardScratch {
            outbox: Outbox::new(),
            buckets: Vec::new(),
            incoming: Vec::new(),
            cursor: Vec::new(),
            order: Vec::new(),
            wakes: Vec::new(),
            tally: LaneTally::default(),
            received: ReceiveTally::default(),
            error: None,
            edge_bits: Vec::new(),
            congestion: EdgeLoad::default(),
        }
    }

    /// Forgets everything a previous run left, keeping the storage — but
    /// `incoming`, which is empty between rounds unless a protocol
    /// panicked inside a receive lane, drops whatever buckets it holds.
    fn reset(&mut self) {
        self.outbox.clear();
        for bucket in &mut self.buckets {
            bucket.arena.clear();
            bucket.keys.clear();
        }
        self.incoming.clear();
        self.wakes.clear();
        self.error = None;
        self.edge_bits.clear();
        self.congestion.clear();
    }
}

/// The round-wide inputs every send lane reads.
#[derive(Clone, Copy)]
struct RoundEnv<'a> {
    graph: &'a WeightedGraph,
    ctxs: &'a [NodeCtx],
    /// Receiver slot by node; [`ASLEEP`] for nodes not awake this round.
    slot_of: &'a [u32],
    /// Slots per lane: a delivered envelope goes to bucket
    /// `slot / chunk_len`.
    chunk_len: u32,
    bit_limit: Option<usize>,
    faults: Option<&'a FaultPlan>,
    /// Transmit cost per bit, when an energy model is active.
    tx_bit_cost: Option<u64>,
    /// Whether the run records metrics (per-edge congestion).
    metrics: bool,
    round: Round,
}

/// The run's own tables, which lane 0 charges directly; lanes 1.. charge
/// their private ones instead.
struct RunLedgers<'a> {
    edge_bits: &'a mut [u64],
    /// The recorder's per-edge load, when metrics are recorded.
    congestion: Option<&'a mut EdgeLoad>,
    /// The run's trace, for a traced round — always one lane — so its
    /// events stay in send order.
    trace: Option<&'a mut Trace>,
}

/// The send half-step of one lane, and the only place a message is sent.
/// Runs `send` for `chunk` (ascending nodes whose states are `part`,
/// which starts at node `part_base`) and adjudicates every envelope:
/// validation, routing via the precomputed back port, fault verdicts
/// (pure functions of the plan's seed, so every lane reaches the serial
/// verdicts) and the awake check against the slot table. A delivered
/// envelope lands in the bucket of its receiver's lane. Stops at the
/// first validation error, as a serial send would.
///
/// Sender-side costs are charged as the lane goes: edge bits and
/// congestion to `run` (lane 0) or to the lane's private tables (lanes
/// 1..), transmit energy to `energy`, the lane's window of
/// `energy_spent_by_node` (the same `split_at_mut` window as `part`).
/// Counts go to the lane's tally.
#[allow(clippy::too_many_arguments)]
fn send_lane<P: Protocol>(
    env: RoundEnv<'_>,
    part: &mut [P],
    part_base: usize,
    chunk: &[u32],
    energy: &mut [u64],
    lanes: usize,
    lane: &mut ShardScratch<P::Msg>,
    run: Option<RunLedgers<'_>>,
) -> Result<(), SimError> {
    let RoundEnv {
        graph,
        ctxs,
        slot_of,
        chunk_len,
        bit_limit,
        faults,
        tx_bit_cost,
        metrics,
        round,
    } = env;
    let ShardScratch {
        outbox,
        buckets,
        tally: lane_tally,
        edge_bits: own_edge_bits,
        congestion: own_congestion,
        ..
    } = lane;
    let (edge_bits, mut congestion, mut trace) = match run {
        Some(run) => (run.edge_bits, run.congestion, run.trace),
        None => {
            // The run's first wide round zero-fills the private tables.
            if own_edge_bits.is_empty() {
                own_edge_bits.resize(graph.edge_count(), 0);
            }
            if metrics {
                own_congestion.ensure(graph.edge_count());
            }
            (
                &mut own_edge_bits[..],
                metrics.then_some(own_congestion),
                None,
            )
        }
    };
    if buckets.len() < lanes {
        buckets.resize_with(lanes, Bucket::default);
    }
    let buckets = &mut buckets[..lanes];
    for bucket in buckets.iter_mut() {
        bucket.arena.clear();
        bucket.keys.clear();
    }
    let mut tally = LaneTally::default();
    for &v in chunk {
        let node = NodeId::new(v);
        let local = v as usize - part_base;
        outbox.clear();
        part[local].send(&ctxs[v as usize], round, outbox);
        let mut node_bits = 0u64;
        for Envelope { port, msg } in outbox.drain() {
            if port.index() >= graph.degree(node) {
                return Err(SimError::PortOutOfRange { node, port, round });
            }
            let bits = msg.bit_size();
            if let Some(limit) = bit_limit {
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
            let to = entry.neighbor.raw();
            let edge = entry.edge.index();
            let bits = bits as u64;
            // The sender pays for every routed message — delivered, lost,
            // or dropped in flight.
            edge_bits[edge] += bits;
            node_bits += bits;
            tally.max_bits = tally.max_bits.max(bits);
            if let Some(load) = congestion.as_deref_mut() {
                load.charge(edge, bits);
            }
            if let Some(plan) = faults {
                // An injected fault, not a model loss: destroyed in flight
                // regardless of the receiver's state.
                if plan.drops(round, v, port.raw()) {
                    tally.dropped += 1;
                    if let Some(trace) = trace.as_deref_mut() {
                        record_dropped(trace, round, v, to);
                    }
                    continue;
                }
            }
            let slot = slot_of[to as usize];
            if slot == ASLEEP {
                tally.lost += 1;
                if let Some(trace) = trace.as_deref_mut() {
                    record_lost(trace, round, v, to);
                }
                continue;
            }
            // An injected duplication delivers a second identical copy,
            // counted as a delivery of its own so the conservation audit
            // reconciles.
            let copies = match faults {
                Some(plan) if plan.duplicates(round, v, port.raw()) => 2,
                _ => 1,
            };
            tally.delivered += copies;
            tally.dups += copies - 1;
            if let Some(trace) = trace.as_deref_mut() {
                for _ in 0..copies {
                    record_delivered(trace, round, v, to, entry.back_port, bits, &msg);
                }
            }
            let bucket = match buckets {
                [only] => only,
                _ => &mut buckets[(slot / chunk_len) as usize],
            };
            if copies == 2 {
                bucket.keys.push(slot);
                bucket
                    .arena
                    .push(Envelope::new(entry.back_port, msg.clone()));
            }
            bucket.keys.push(slot);
            bucket.arena.push(Envelope::new(entry.back_port, msg));
        }
        tally.bits += node_bits;
        if let Some(cost) = tx_bit_cost {
            let tx = cost * node_bits;
            energy[local] += tx;
            tally.tx_energy += tx;
        }
    }
    *lane_tally = tally;
    Ok(())
}

/// The round-wide inputs every receive lane reads.
#[derive(Clone, Copy)]
struct DeliverEnv<'a> {
    ctxs: &'a [NodeCtx],
    energy: Option<&'a EnergyModel>,
    faults: Option<&'a FaultPlan>,
    policy: Option<WakePolicy>,
    round: Round,
}

/// One lane's `split_at_mut` windows of the per-node tables its deliver
/// half writes; every window starts at node `base`.
struct DeliverWindows<'a, P> {
    base: usize,
    states: &'a mut [P],
    bits_received: &'a mut [u64],
    energy: &'a mut [u64],
    slot_of: &'a mut [u32],
}

/// Groups one lane's delivered envelopes into per-receiver inboxes and
/// returns them; afterwards `cursor[i]` is where the inbox of the lane's
/// `i`-th slot (slot `base + i`) ends.
///
/// One counting pass over the sources' keys sizes every slot's inbox,
/// whose range starts where the previous one ends, and each envelope
/// takes the next position of its slot's range in source order — the
/// sources come in send-lane order, which is serial send order, so
/// within a slot the inbox keeps send order. With `in_place`, the one
/// source is permuted within its own arena by walking the permutation's
/// cycles; otherwise every envelope moves out of the sources into
/// `window`, which holds exactly this lane's envelopes.
fn group_lane<'a, M>(
    sources: &'a mut [Bucket<M>],
    base: u32,
    slots: usize,
    window: &'a mut [Envelope<M>],
    in_place: bool,
    cursor: &mut Vec<u32>,
    order: &mut Vec<u32>,
) -> &'a mut [Envelope<M>] {
    cursor.clear();
    cursor.resize(slots, 0);
    for bucket in sources.iter() {
        for &slot in &bucket.keys {
            cursor[(slot - base) as usize] += 1;
        }
    }
    let mut start = 0u32;
    for at in cursor.iter_mut() {
        let count = *at;
        *at = start;
        start += count;
    }
    if in_place {
        // A cache-resident round is permuted where it was sent: no
        // second buffer.
        let Bucket { arena: sent, keys } = &mut sources[0];
        order.clear();
        order.extend(keys.iter().map(|&slot| {
            let at = &mut cursor[(slot - base) as usize];
            *at += 1;
            *at - 1
        }));
        for i in 0..order.len() {
            while order[i] != i as u32 {
                let j = order[i] as usize;
                sent.swap(i, j);
                order.swap(i, j);
            }
        }
        return sent;
    }
    // Out of cache, each cycle-walk swap would wait on the last one's
    // miss; scattering the envelopes straight out of the sources issues
    // independent stores instead.
    for bucket in sources.iter_mut() {
        for (&slot, envelope) in bucket.keys.iter().zip(bucket.arena.drain(..)) {
            let at = &mut cursor[(slot - base) as usize];
            window[*at as usize] = envelope;
            *at += 1;
        }
    }
    window
}

/// The deliver half-step of one lane: for each node of `chunk` (its
/// slots, ascending) it resets the node's slot-table entry, charges
/// receive or idle-listening costs, sorts the inbox by port, runs
/// `deliver`, adjudicates the energy budget, and hands the resulting
/// [`Wake`] to `wake`. `inboxes` and `cursor` are [`group_lane`]'s
/// output. Stops at the first [`SimError::WakeNotInFuture`], exactly
/// where a serial round would abort.
fn deliver_lane<P: Protocol>(
    env: DeliverEnv<'_>,
    chunk: &[u32],
    inboxes: &mut [Envelope<P::Msg>],
    cursor: &[u32],
    windows: DeliverWindows<'_, P>,
    mut wake: impl FnMut(u32, Wake),
) -> Result<ReceiveTally, SimError> {
    let DeliverEnv {
        ctxs,
        energy,
        faults,
        policy,
        round,
    } = env;
    let DeliverWindows {
        base,
        states,
        bits_received,
        energy: spent,
        slot_of,
    } = windows;
    let mut tally = ReceiveTally::default();
    let mut start = 0usize;
    for (&v, &end) in chunk.iter().zip(cursor) {
        let node = NodeId::new(v);
        let local = v as usize - base;
        slot_of[local] = ASLEEP;
        let end = end as usize;
        let inbox = &mut inboxes[start..end];
        start = end;
        if inbox.is_empty() {
            // An awake round that delivered nothing is idle listening.
            // Counted whether or not an energy model is active, so an
            // inert model stays bit-identical to no model.
            tally.idle += 1;
            if let Some(em) = energy {
                spent[local] += em.idle_cost;
                tally.energy += em.idle_cost;
            }
        } else {
            // Receive accounting, once per receiver: the bits of its
            // inbox (duplicates included), charged before the budget
            // check.
            let bits: u64 = inbox.iter().map(|e| e.msg.bit_size() as u64).sum();
            bits_received[local] += bits;
            if let Some(em) = energy {
                let rx = em.rx_bit_cost * bits;
                spent[local] += rx;
                tally.energy += rx;
            }
        }
        if inbox.len() > 1 {
            inbox.sort_by_key(|e| e.port);
        }
        let next = states[local].deliver(&ctxs[v as usize], round, inbox);
        // Budget adjudication: by deliver time every charge of the
        // node's round (round, tx, rx, idle) has accrued, so the verdict
        // is final — and reached in serial node order under every driver
        // and shard count.
        let exhausted = energy
            .and_then(|em| em.budget)
            .is_some_and(|b| spent[local] > b);
        if exhausted {
            tally.exhausted += 1;
            tally.first_exhausted.get_or_insert(node);
        }
        let decision = match next {
            NextWake::At(r) if r <= round => {
                return Err(SimError::WakeNotInFuture {
                    node,
                    round,
                    requested: r,
                });
            }
            // Forced asleep permanently — the crash machinery: the
            // requested wake is discarded and messages to the node are
            // lost from here on.
            NextWake::At(_) if exhausted => Wake::Exhausted,
            NextWake::At(r) => {
                let r = match faults {
                    Some(plan) => plan.jittered(v, r),
                    None => r,
                };
                Wake::At(match policy {
                    Some(p) => p.applied(v, r),
                    None => r,
                })
            }
            NextWake::Halt => Wake::Halt,
        };
        wake(v, decision);
    }
    Ok(tally)
}

/// Applies one node's [`Wake`] to the driver; a protocol halt is traced
/// when the run records a trace.
fn apply_wake<D: TimeDriver>(
    driver: &mut D,
    running: &mut usize,
    trace: Option<&mut Trace>,
    round: Round,
    v: u32,
    wake: Wake,
) {
    match wake {
        Wake::At(r) => driver.schedule(v, r),
        Wake::Halt => {
            driver.halt(v);
            *running -= 1;
            if let Some(trace) = trace {
                trace.push(TraceEvent::Halted {
                    round,
                    node: NodeId::new(v),
                });
            }
        }
        Wake::Exhausted => {
            driver.halt(v);
            *running -= 1;
        }
    }
}

/// Splits the next `hi + 1 - base` entries (nodes `base..=hi`) off the
/// front of `rest`: one lane's window of a per-node table.
fn take_window<'a, T>(rest: &mut &'a mut [T], base: usize, hi: u32) -> &'a mut [T] {
    let len = (hi as usize + 1 - base).min(rest.len());
    let (window, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    window
}

/// The per-node tables and the inbox arena of a round's receive
/// half-step, split lane by lane into disjoint windows.
struct ReceiveSplit<'a, P, M> {
    /// First node of the next lane's windows.
    base: usize,
    states: &'a mut [P],
    bits_received: &'a mut [u64],
    energy: &'a mut [u64],
    slot_of: &'a mut [u32],
    /// Empty when the round is grouped in place.
    arena: &'a mut [Envelope<M>],
}

impl<'a, P, M> ReceiveSplit<'a, P, M> {
    /// Splits off the windows of the next lane, whose nodes are `chunk`
    /// and whose inboxes hold `received` envelopes.
    fn next_lane(
        &mut self,
        chunk: &[u32],
        received: usize,
    ) -> (DeliverWindows<'a, P>, &'a mut [Envelope<M>]) {
        let base = self.base;
        let hi = chunk.last().copied().unwrap_or_default();
        self.base = hi as usize + 1;
        let windows = DeliverWindows {
            base,
            states: take_window(&mut self.states, base, hi),
            bits_received: take_window(&mut self.bits_received, base, hi),
            energy: take_window(&mut self.energy, base, hi),
            slot_of: take_window(&mut self.slot_of, base, hi),
        };
        let len = received.min(self.arena.len());
        let (window, rest) = std::mem::take(&mut self.arena).split_at_mut(len);
        self.arena = rest;
        (windows, window)
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
/// sort of the live set, and memory is one `u32` per pending entry in a
/// fixed set of [`BUCKETS`] vectors.
///
/// The structure relies on time moving forward: every scheduled round
/// must be later than the last round popped (the kernel only schedules
/// wakes strictly after the executing round, and checks that the rounds
/// handed to it strictly increase).
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

/// Reusable executor state: the wake queue, the node contexts and the
/// graph and seed they were built for, the per-round delivery buffers
/// (lanes, slot table, flat inbox arena), and a pool of recycled
/// [`RunStats`].
///
/// [`Simulator::run_with_scratch`](crate::Simulator::run_with_scratch)
/// threads one value through many runs — a sweep's worker thread creates
/// one scratch and reuses it for its whole trial stream, so executor
/// allocations are O(workers) instead of O(runs). Every run
/// re-initializes the scratch before use, except the node contexts: a
/// run keeps them only when they were built for its graph and master
/// seed, the only inputs they depend on. Nothing observable leaks
/// between runs (the reused-scratch differential tests pin this).
#[derive(Debug)]
pub struct ExecutorScratch<M> {
    queue: WakeQueue,
    awake_now: Vec<u32>,
    /// Each node's index in the executing round's ascending awake set, or
    /// [`ASLEEP`]: the kernel's own copy of the driver's awake set,
    /// written once per round so lanes can read it lock-free, and reset
    /// node by node in the deliver loop.
    slot_of: Vec<u32>,
    /// Flat inbox arena of rounds too large to group in place: every
    /// delivered envelope of the round, scattered out of the send lanes,
    /// grouped by receiver slot and in send order within each group. Each
    /// lane scatters into its own window. It keeps its length between
    /// rounds and runs — the scatter overwrites every position a round
    /// reads — so only growth past the high-water mark is filled.
    arena: Vec<Envelope<M>>,
    /// The node contexts of the last run. Runs never change them, so the
    /// next run keeps them when it is on the same graph under the same
    /// master seed, and rebuilds them otherwise.
    ctxs: Vec<NodeCtx>,
    /// What `ctxs` were built for: the graph's port-weight table, which
    /// every context's [`PortWeights`] views, and the master seed.
    ctxs_built_for: Option<(Arc<[u64]>, u64)>,
    /// Lanes: lane 0 serves every round, and a run with `shards > 1` adds
    /// one per shard the first time a round is wide enough to
    /// parallelize.
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
            slot_of: Vec::new(),
            arena: Vec::new(),
            ctxs: Vec::new(),
            ctxs_built_for: None,
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
        // A failed run can leave slots set, and lanes' private tables
        // charged, mid-round: both would leak into the next run, so
        // clearing them is load-bearing.
        self.slot_of.clear();
        self.slot_of.resize(n, ASLEEP);
        if self.shard_lanes.is_empty() {
            self.shard_lanes.push(ShardScratch::new());
        }
        for lane in self.shard_lanes.iter_mut() {
            lane.reset();
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

/// Records a `Delivered` trace event. Deliberately out-of-line: the
/// `Debug` formatting machinery must stay off the untraced hot path. A
/// traced round runs as one lane after the round's `Awake` events, so
/// the recorded order — every `Awake` of the round, then
/// `Delivered`/`Lost`/`Dropped` in send order — is identical under every
/// driver.
#[cold]
#[inline(never)]
fn record_delivered<M: Payload>(
    trace: &mut Trace,
    round: Round,
    from: u32,
    to: u32,
    port: Port,
    bits: u64,
    msg: &M,
) {
    trace.push(TraceEvent::Delivered {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
        port,
        bits: bits as usize,
        payload: format!("{msg:?}"),
    });
}

/// Records a `Lost` trace event (out-of-line, like [`record_delivered`]).
#[cold]
#[inline(never)]
fn record_lost(trace: &mut Trace, round: Round, from: u32, to: u32) {
    trace.push(TraceEvent::Lost {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
    });
}

/// Records a `Dropped` trace event (out-of-line, like [`record_lost`]).
#[cold]
#[inline(never)]
fn record_dropped(trace: &mut Trace, round: Round, from: u32, to: u32) {
    trace.push(TraceEvent::Dropped {
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
    /// Whether `node` is awake in the currently executing `round`. Only
    /// the kernel's awake-set check asks.
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
/// borrowed separately by the calendar driver.
struct KernelBuffers<'a, M> {
    awake_now: &'a mut Vec<u32>,
    slot_of: &'a mut Vec<u32>,
    arena: &'a mut Vec<Envelope<M>>,
    ctxs: &'a mut Vec<NodeCtx>,
    ctxs_built_for: &'a mut Option<(Arc<[u64]>, u64)>,
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
        slot_of,
        arena,
        ctxs,
        ctxs_built_for,
        shard_lanes,
        profile,
        ..
    } = scratch;
    let bufs = KernelBuffers {
        awake_now,
        slot_of,
        arena,
        ctxs,
        ctxs_built_for,
        shard_lanes,
        profile,
    };
    match config.executor {
        Executor::Calendar => {
            let driver = CalendarDriver { queue };
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
        slot_of,
        arena,
        ctxs,
        ctxs_built_for,
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
    // inherently sequential) runs as one lane, and the outcomes are
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
    refill_contexts(graph, config.master_seed, ctxs, ctxs_built_for);
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
    // The previous round handed out by the driver (0 = none yet).
    let mut previous_round: Round = 0;
    lap(profile, Stage::Init);

    while let Some(round) = driver.next_round(awake_now) {
        // The calendar relies on time moving forward; a driver breaking
        // the `TimeDriver` contract fails the run with a typed error
        // instead of corrupting it.
        if round <= previous_round {
            return Err(SimError::RoundNotIncreasing {
                round,
                previous: previous_round,
            });
        }
        previous_round = round;
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
        // send, so the slot table (which the lanes read lock-free), the
        // per-node awake counts, and the `Awake` trace events — which
        // precede the round's delivery events in the recorded order
        // anyway — are all independent of how the send half-step
        // executes.
        // Nano-joules charged this round (round + tx + rx + idle terms),
        // for the metrics timeline; stays 0 without an active model.
        let mut round_energy = 0u64;
        for (slot, &v) in awake_now.iter().enumerate() {
            // The lanes trust the slot table instead of asking the driver
            // per message, so every node of the awake set
            // must be listed once (its entry still reads asleep) and be
            // awake in the round according to the driver.
            if slot_of[v as usize] != ASLEEP || !driver.is_awake_in(v, round) {
                return Err(SimError::AwakeSetMismatch {
                    node: NodeId::new(v),
                    round,
                });
            }
            slot_of[v as usize] = slot as u32;
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
        // The ascending awake set splits into contiguous chunks, one lane
        // each: one lane on this thread for a serial round, more on
        // scoped threads for a wide sharded one. Each lane owns disjoint
        // windows of the protocol states and the energy ledger, charges
        // the run's edge table (lane 0) or its private one (lanes 1..),
        // and keeps its own tallies; folding the tallies in lane order
        // below is serial node order, so the outcome is bit-identical for
        // every shard count.
        let k = awake_now.len();
        let chunk_len = shard_chunk_len(k, config.shards, config.record_trace).unwrap_or(k);
        let lanes_used = k.div_ceil(chunk_len);
        if shard_lanes.len() < lanes_used {
            shard_lanes.resize_with(lanes_used, ShardScratch::new);
        }
        let (lane0, wide) = shard_lanes[..lanes_used].split_at_mut(1);
        let env = RoundEnv {
            graph,
            ctxs,
            slot_of,
            chunk_len: chunk_len as u32,
            bit_limit: config.bit_limit,
            faults,
            tx_bit_cost: energy.map(|em| em.tx_bit_cost),
            metrics: metrics.is_some(),
            round,
        };
        let mut chunks = awake_now.chunks(chunk_len);
        let first = chunks.next().unwrap_or_default();
        let hi = first.last().copied().unwrap_or_default();
        let mut states: &mut [P] = &mut protocols;
        let mut ledger: &mut [u64] = &mut stats.energy_spent_by_node;
        let lane0_states = take_window(&mut states, 0, hi);
        let lane0_energy = take_window(&mut ledger, 0, hi);
        let run_ledgers = RunLedgers {
            edge_bits: &mut stats.bits_by_edge,
            congestion: metrics.as_mut().map(MetricsRecorder::edges),
            trace: config.record_trace.then_some(&mut trace),
        };
        let lane0 = &mut lane0[0];
        let run_lane0 = move || {
            lane0.error = send_lane(
                env,
                lane0_states,
                0,
                first,
                lane0_energy,
                lanes_used,
                lane0,
                Some(run_ledgers),
            )
            .err();
        };
        if wide.is_empty() {
            run_lane0();
        } else {
            std::thread::scope(|scope| {
                let mut base = hi as usize + 1;
                for (chunk, lane) in chunks.zip(wide.iter_mut()) {
                    let Some(&hi) = chunk.last() else { continue };
                    let part = take_window(&mut states, base, hi);
                    let energy = take_window(&mut ledger, base, hi);
                    let part_base = base;
                    base = hi as usize + 1;
                    scope.spawn(move || {
                        lane.error =
                            send_lane(env, part, part_base, chunk, energy, lanes_used, lane, None)
                                .err();
                    });
                }
                run_lane0();
            });
        }
        let lanes = &mut shard_lanes[..lanes_used];
        // First error in lane order = first error in node order =
        // exactly where a serial send would have aborted.
        for lane in lanes.iter_mut() {
            if let Some(err) = lane.error.take() {
                return Err(err);
            }
        }
        let mut delivered = 0usize;
        for (i, lane) in lanes.iter_mut().enumerate() {
            let t = lane.tally;
            stats.messages_delivered += t.delivered;
            stats.dup_deliveries += t.dups;
            stats.messages_lost += t.lost;
            stats.injected_drops += t.dropped;
            stats.max_message_bits = stats.max_message_bits.max(t.max_bits);
            round_energy += t.tx_energy;
            if let Some(rec) = metrics.as_mut() {
                let sent = t.delivered - t.dups + t.lost + t.dropped;
                rec.add_traffic(sent, t.bits, t.delivered, t.dups, t.lost, t.dropped);
                if i > 0 {
                    rec.edges().absorb(&mut lane.congestion);
                }
            }
            delivered += t.delivered as usize;
        }
        stats.arena_peak_envelopes = stats.arena_peak_envelopes.max(delivered as u64);
        lap(profile, Stage::SendRoute);

        // --- Receive half-step: grouping, then deliver ---
        // The same chunks are the receive lanes: lane `r` groups the
        // envelopes addressed to its chunk — bucket `r` of every send
        // lane, read in lane order, which is serial send order — into
        // its own window of the arena, then runs its chunk's deliveries
        // on its windows of the per-node tables. Lane 0 applies its wake
        // decisions to the driver as it goes; lanes 1.. record theirs,
        // applied below in lane order, so the driver sees serial node
        // order.
        let in_place = lanes_used == 1
            && delivered * std::mem::size_of::<Envelope<P::Msg>>() <= IN_PLACE_GROUPING_BYTES;
        if !in_place && arena.len() < delivered {
            // Safe code cannot write into uninitialized memory, so growth
            // is filled with copies of one envelope, every one of which
            // the scatter overwrites.
            let filler = lanes
                .iter()
                .flat_map(|lane| &lane.buckets[..lanes_used])
                .find_map(|bucket| bucket.arena.first());
            if let Some(filler) = filler {
                arena.resize(delivered, filler.clone());
            }
        }
        let sharded = lanes_used > 1;
        if sharded {
            for r in 0..lanes_used {
                for s in 0..lanes_used {
                    let bucket = std::mem::take(&mut lanes[s].buckets[r]);
                    lanes[r].incoming.push(bucket);
                }
            }
        }
        let env = DeliverEnv {
            ctxs,
            energy,
            faults,
            policy,
            round,
        };
        let mut split = ReceiveSplit {
            base: 0,
            states: &mut protocols,
            bits_received: &mut stats.bits_received_by_node,
            energy: &mut stats.energy_spent_by_node,
            slot_of,
            arena: if in_place { &mut [] } else { &mut arena[..] },
        };
        let (lane0, wide) = lanes.split_at_mut(1);
        let lane0 = &mut lane0[0];
        let mut chunks = awake_now.chunks(chunk_len);
        let first = chunks.next().unwrap_or_default();
        let received = if sharded {
            lane0.incoming.iter().map(|b| b.keys.len()).sum()
        } else {
            delivered
        };
        let (windows, window) = split.next_lane(first, received);
        let receive_lane0 = |driver: &mut D, profile: &mut Option<StageClock>| {
            let ShardScratch {
                buckets,
                incoming,
                cursor,
                order,
                received,
                error,
                ..
            } = lane0;
            let sources = if sharded {
                &mut incoming[..]
            } else {
                &mut buckets[..1]
            };
            let inboxes = group_lane(sources, 0, first.len(), window, in_place, cursor, order);
            lap(profile, Stage::Grouping);
            let apply = |v, wake| {
                let trace = config.record_trace.then_some(&mut trace);
                apply_wake(driver, &mut running, trace, round, v, wake);
            };
            match deliver_lane(env, first, inboxes, cursor, windows, apply) {
                Ok(tally) => *received = tally,
                Err(err) => *error = Some(err),
            }
        };
        if sharded {
            std::thread::scope(|scope| {
                for (r, (chunk, lane)) in chunks.zip(wide.iter_mut()).enumerate() {
                    let received = lane.incoming.iter().map(|b| b.keys.len()).sum();
                    let (windows, window) = split.next_lane(chunk, received);
                    let base = ((r + 1) * chunk_len) as u32;
                    scope.spawn(move || {
                        let ShardScratch {
                            incoming,
                            cursor,
                            order,
                            wakes,
                            received,
                            error,
                            ..
                        } = lane;
                        let inboxes =
                            group_lane(incoming, base, chunk.len(), window, false, cursor, order);
                        wakes.clear();
                        let record = |_, wake| wakes.push(wake);
                        match deliver_lane(env, chunk, inboxes, cursor, windows, record) {
                            Ok(tally) => *received = tally,
                            Err(err) => *error = Some(err),
                        }
                    });
                }
                receive_lane0(&mut driver, profile);
            });
            // Hand every bucket back to its send lane.
            for r in 0..lanes_used {
                let mut incoming = std::mem::take(&mut lanes[r].incoming);
                for (s, bucket) in incoming.drain(..).enumerate() {
                    lanes[s].buckets[r] = bucket;
                }
                lanes[r].incoming = incoming;
            }
        } else {
            receive_lane0(&mut driver, profile);
        }
        // First error in lane order = the error a serial deliver loop
        // would have stopped at.
        for lane in lanes.iter_mut() {
            if let Some(err) = lane.error.take() {
                return Err(err);
            }
        }
        for (r, (lane, chunk)) in lanes.iter().zip(awake_now.chunks(chunk_len)).enumerate() {
            let t = lane.received;
            stats.idle_listen_rounds += t.idle;
            stats.exhausted_nodes += t.exhausted;
            round_energy += t.energy;
            if first_exhausted.is_none() {
                first_exhausted = t.first_exhausted.map(|node| (node, round));
            }
            if r > 0 {
                for (&v, &wake) in chunk.iter().zip(&lane.wakes) {
                    let trace = config.record_trace.then_some(&mut trace);
                    apply_wake(&mut driver, &mut running, trace, round, v, wake);
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
    // Lanes 1.. kept their edge charges private; fold them in, leaving
    // each table empty for the next run's first wide round. A failed run
    // returns before this point and leaves its charges to
    // `ExecutorScratch::reset`.
    for lane in shard_lanes.iter_mut().skip(1) {
        for (total, bits) in stats.bits_by_edge.iter_mut().zip(lane.edge_bits.drain(..)) {
            *total += bits;
        }
    }
    let metrics = metrics
        .map(MetricsRecorder::into_metrics)
        .unwrap_or_default();
    lap(profile, Stage::Finish);
    Ok(RunOutcome {
        states: protocols,
        stats,
        trace,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_executor_is_calendar() {
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
        assert_eq!(q.pop_round(&mut live), None);
        q.schedule(0, 7); // same round number as the previous run
        assert_eq!(q.pop_round(&mut live), Some(7));
        assert_eq!(live, vec![0], "stale state swallowed the wake");
    }

    /// Node 0 wakes in round 2 and every round after it; node 1 halts.
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

    /// Runs [`Ticker`] on a one-edge graph under `driver`: the run's
    /// result and the rounds the observer saw executed.
    fn run_ticker<D: TimeDriver>(driver: D) -> (Result<RunOutcome<Ticker>, SimError>, Vec<Round>) {
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
            slot_of,
            arena,
            ctxs,
            ctxs_built_for,
            shard_lanes,
            profile,
            ..
        } = &mut scratch;
        let bufs = KernelBuffers {
            awake_now,
            slot_of,
            arena,
            ctxs,
            ctxs_built_for,
            shard_lanes,
            profile,
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
        (result, executed)
    }

    /// A driver that breaks the `TimeDriver` contract — it hands out
    /// round 4 again after round 4 — fails the run with the typed error
    /// before the repeated round executes.
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

        let (result, executed) = run_ticker(Repeating {
            rounds: vec![4, 4, 2],
        });
        assert_eq!(
            result.err(),
            Some(SimError::RoundNotIncreasing {
                round: 4,
                previous: 4
            })
        );
        assert_eq!(executed, vec![2, 4]);
    }

    /// The lanes trust the kernel's slot table instead of the driver, so
    /// an awake set the driver disowns — a node it says
    /// is asleep, or a node listed twice — fails the run with the typed
    /// error before the round sends anything.
    #[test]
    fn validate_rejects_an_awake_set_the_driver_disowns() {
        /// Hands out round 2 with `live`, then round 3 with node 0 alone;
        /// claims only `awake` is awake.
        struct Lying {
            live: Vec<u32>,
            awake: u32,
            rounds: Vec<Round>,
        }
        impl TimeDriver for Lying {
            fn schedule(&mut self, _: u32, _: Round) {}
            fn halt(&mut self, _: u32) {}
            fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
                let round = self.rounds.pop()?;
                live.clear();
                if round == 2 {
                    live.extend(&self.live);
                } else {
                    live.push(0);
                }
                Some(round)
            }
            fn is_awake_in(&self, node: u32, _: Round) -> bool {
                node == self.awake
            }
        }

        // An honest driver runs both rounds, then stalls: node 0 never
        // halts and the driver runs out of rounds.
        let (result, executed) = run_ticker(Lying {
            live: vec![0],
            awake: 0,
            rounds: vec![3, 2],
        });
        assert_eq!(
            result.err(),
            Some(SimError::Stalled {
                running: 1,
                round: 3
            })
        );
        assert_eq!(executed, vec![2, 3]);
        for (live, awake, node) in [(vec![0], 1, 0), (vec![0, 1], 0, 1), (vec![0, 0], 0, 0)] {
            let (result, executed) = run_ticker(Lying {
                live: live.clone(),
                awake,
                rounds: vec![3, 2],
            });
            assert_eq!(
                result.err(),
                Some(SimError::AwakeSetMismatch {
                    node: NodeId::new(node),
                    round: 2
                }),
                "live {live:?}, driver claims node {awake}"
            );
            assert!(executed.is_empty(), "live {live:?}");
        }
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
}
