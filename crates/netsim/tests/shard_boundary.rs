//! The sharded-lane boundary, pinned three ways: the engagement
//! threshold is exactly [`SHARD_MIN_AWAKE`] = 128 awake nodes (unit
//! cases at 127/128/129), the decision and the lane partition are pure
//! functions of `(awake set, shards, record_trace)` (proptests), and
//! full runs straddling the threshold are bit-identical across shard
//! counts (the contract the decision is allowed to exist under). The
//! receive half-step engages at the same boundary, with the same lanes,
//! as the send half-step.

use std::thread::ThreadId;

use proptest::prelude::*;

use graphlib::generators;
use netsim::engine::shard_chunk_len;
use netsim::{Envelope, NextWake, NodeCtx, Outbox, Protocol, Round, SimConfig, Simulator};

// --- engagement threshold: exact unit cases ---------------------------

#[test]
fn threshold_is_exactly_128_awake() {
    // 127 awake: serial, regardless of the configured shard count.
    assert_eq!(shard_chunk_len(127, 2, false), None);
    assert_eq!(shard_chunk_len(127, 4, false), None);
    // 128 awake: the sharded path engages.
    assert_eq!(shard_chunk_len(128, 2, false), Some(64));
    assert_eq!(shard_chunk_len(128, 4, false), Some(32));
    // 129 awake: ceil-divided chunks, last lane short.
    assert_eq!(shard_chunk_len(129, 2, false), Some(65));
    assert_eq!(shard_chunk_len(129, 4, false), Some(33));
}

#[test]
fn single_shard_and_traced_runs_never_engage() {
    assert_eq!(shard_chunk_len(1_000_000, 1, false), None);
    assert_eq!(shard_chunk_len(1_000_000, 0, false), None);
    // Trace payload formatting is sequential; tracing forces serial.
    assert_eq!(shard_chunk_len(1_000_000, 4, true), None);
    assert_eq!(shard_chunk_len(128, 2, true), None);
}

#[test]
fn oversubscribed_shards_raise_the_gate() {
    // The gate is max(128, shards): more shards than awake nodes would
    // spawn empty workers, so the gate rises with the shard count.
    assert_eq!(shard_chunk_len(200, 256, false), None);
    assert_eq!(shard_chunk_len(255, 256, false), None);
    assert_eq!(shard_chunk_len(256, 256, false), Some(1));
    assert_eq!(shard_chunk_len(300, 256, false), Some(2));
}

// --- purity and partition shape: proptests ----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decision is a pure function of its three inputs: calling it
    /// twice (or a thousand times) with the same inputs yields the same
    /// answer — no hidden state, no wall-clock, no thread identity.
    #[test]
    fn decision_is_pure(awake_len in 0usize..100_000, shards in 0u32..64, trace in any::<bool>()) {
        let first = shard_chunk_len(awake_len, shards, trace);
        for _ in 0..4 {
            prop_assert_eq!(shard_chunk_len(awake_len, shards, trace), first);
        }
    }

    /// Whenever the sharded path engages, chunking the ascending awake
    /// set by the returned length is a partition: lanes concatenate back
    /// to the exact awake set, every lane is non-empty, lane count never
    /// exceeds the shard count, and the slices are contiguous in node
    /// order (the property the disjoint `split_at_mut` in the kernel
    /// depends on).
    #[test]
    fn lane_partition_is_exact(
        awake_len in 1usize..5_000,
        offset in 0u32..1000,
        stride in 1u32..5,
        shards in 2u32..17,
    ) {
        // An arbitrary ascending awake set — the partition must depend
        // on nothing but its length.
        let awake: Vec<u32> = (0..awake_len as u32).map(|i| offset + i * stride).collect();
        match shard_chunk_len(awake.len(), shards, false) {
            None => prop_assert!(awake.len() < 128.max(shards as usize)),
            Some(chunk_len) => {
                prop_assert!(awake.len() >= 128);
                let lanes: Vec<&[u32]> = awake.chunks(chunk_len).collect();
                prop_assert!(lanes.len() <= shards as usize);
                prop_assert!(lanes.iter().all(|lane| !lane.is_empty()));
                let rejoined: Vec<u32> = lanes.concat();
                prop_assert_eq!(rejoined, awake);
            }
        }
    }

    /// Same awake set ⇒ same lane slices, independent of which nodes the
    /// set happens to contain: two different awake sets of equal length
    /// produce identical chunk boundaries.
    #[test]
    fn partition_depends_only_on_the_awake_set_size(
        awake_len in 128usize..5_000,
        shards in 2u32..9,
    ) {
        let dense: Vec<u32> = (0..awake_len as u32).collect();
        let sparse: Vec<u32> = (0..awake_len as u32).map(|i| i * 7 + 3).collect();
        let chunk = shard_chunk_len(awake_len, shards, false);
        prop_assert!(chunk.is_some());
        let chunk_len = chunk.expect("engaged above the gate");
        let dense_bounds: Vec<usize> = dense.chunks(chunk_len).map(<[u32]>::len).collect();
        let sparse_bounds: Vec<usize> = sparse.chunks(chunk_len).map(<[u32]>::len).collect();
        prop_assert_eq!(dense_bounds, sparse_bounds);
    }
}

// --- full runs straddling the threshold -------------------------------

/// Dense round-synchronous traffic: with `n` nodes all awake every
/// round, the engagement decision is exercised at exactly `n` awake.
struct Lockstep {
    left: u32,
    sum: u64,
}

impl Protocol for Lockstep {
    type Msg = u64;
    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }
    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, round + u64::from(p.raw()));
        }
    }
    fn deliver(&mut self, _ctx: &NodeCtx, round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        self.sum += inbox.iter().map(|e| e.msg).sum::<u64>();
        self.left -= 1;
        if self.left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + 1)
        }
    }
}

/// Runs the ring of size `n` under `shards` and returns (stats, sums).
fn lockstep_run(n: usize, shards: u32) -> (netsim::RunStats, Vec<u64>) {
    let g = generators::ring(n, 7).expect("ring generator");
    let config = SimConfig::default().with_seed(11).with_shards(shards);
    let out = Simulator::new(&g, config)
        .run(|_| Lockstep { left: 12, sum: 0 })
        .expect("lockstep run");
    let sums = out.states.iter().map(|s| s.sum).collect();
    (out.stats, sums)
}

#[test]
fn runs_at_127_128_129_awake_are_shard_invariant() {
    // 127: below the gate everywhere (serial even at --shards 4).
    // 128: exactly at the gate — the sharded path's first engagement.
    // 129: one past it — an uneven final lane.
    for n in [127usize, 128, 129] {
        let serial = lockstep_run(n, 1);
        for shards in [2u32, 4] {
            let sharded = lockstep_run(n, shards);
            assert_eq!(
                serial.0, sharded.0,
                "stats diverged at n={n} shards={shards}"
            );
            assert_eq!(
                serial.1, sharded.1,
                "states diverged at n={n} shards={shards}"
            );
        }
    }
}

// --- the receive half engages at the same boundary ---------------------

/// One lockstep round on every port; records the thread that ran the
/// node's `deliver`.
struct Witness {
    delivered_on: Option<ThreadId>,
}

impl Protocol for Witness {
    type Msg = u64;
    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }
    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, round);
        }
    }
    fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, _inbox: &[Envelope<u64>]) -> NextWake {
        self.delivered_on = Some(std::thread::current().id());
        NextWake::Halt
    }
}

/// The thread that ran each node's `deliver`, for a ring of `n` nodes
/// all awake in one round.
fn deliver_threads(n: usize, config: SimConfig) -> Vec<ThreadId> {
    let g = generators::ring(n, 7).expect("ring generator");
    let out = Simulator::new(&g, config)
        .run(|_| Witness { delivered_on: None })
        .expect("witness run");
    out.states
        .iter()
        .map(|s| s.delivered_on.expect("every node delivers"))
        .collect()
}

/// At 127 awake every `deliver` runs on the calling thread; at 128 and
/// 129 the awake set splits into the send half's chunks, lane 0 on the
/// calling thread and every other lane on a thread of its own. Traced
/// runs stay on the calling thread.
#[test]
fn receive_half_engages_at_exactly_128_awake_with_the_send_lanes() {
    let caller = std::thread::current().id();
    for n in [127usize, 128, 129] {
        for shards in [2u32, 4] {
            let threads = deliver_threads(n, SimConfig::default().with_shards(shards));
            let label = format!("n={n} shards={shards}");
            let Some(chunk_len) = shard_chunk_len(n, shards, false) else {
                assert_eq!(n, 127, "{label}");
                assert!(threads.iter().all(|&t| t == caller), "{label}");
                continue;
            };
            let lanes: Vec<&[ThreadId]> = threads.chunks(chunk_len).collect();
            assert_eq!(lanes.len(), shards as usize, "{label}");
            for (lane, nodes) in lanes.iter().enumerate() {
                assert!(nodes.iter().all(|&t| t == nodes[0]), "{label} lane {lane}");
                assert_eq!(nodes[0] == caller, lane == 0, "{label} lane {lane}");
                for other in &lanes[..lane] {
                    assert_ne!(other[0], nodes[0], "{label} lane {lane}");
                }
            }
            let traced = deliver_threads(n, SimConfig::default().with_shards(shards).with_trace());
            assert!(traced.iter().all(|&t| t == caller), "{label} traced");
        }
    }
}
