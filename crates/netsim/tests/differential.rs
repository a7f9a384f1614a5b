//! Differential tests: one generic kernel, two interchangeable time
//! drivers. The calendar driver (bucket-jumping, the default behind
//! [`Simulator::run`]) and the naive driver (O(n)-scan oracle,
//! [`Executor::Naive`]) share the kernel body but disagree on the entire
//! scheduling core, so agreement here pins down the hot path's
//! observable semantics: final protocol states, the full [`RunStats`]
//! (awake counts, rounds, message delivery/loss, per-edge bits), the
//! execution trace, and the metrics stream.
//!
//! The pairwise tests compare the calendar driver with the naive oracle
//! on hand-built configs; the `both_drivers_*` section below selects the
//! driver through [`SimConfig::with_executor`] — including metrics
//! on/off, fault plans, and the sparse shapes (empty graph, single node,
//! all-asleep runs, one wake a million rounds out) where a calendar jump
//! and a round-by-round grind diverge most easily.

use proptest::prelude::*;

use graphlib::{generators, GraphBuilder, NodeId, Port};
use netsim::{
    engine, EnergyModel, Envelope, Executor, ExecutorScratch, FaultPlan, NextWake, NodeCtx, Outbox,
    Payload, PortWeights, Protocol, Round, RunOutcome, SimConfig, SimError, Simulator, WakePolicy,
};

/// Both time drivers, calendar first.
const DRIVERS: [Executor; 2] = [Executor::Calendar, Executor::Naive];

/// SplitMix64 — the same tiny generator the protocols in `mst-core` use
/// for their private coins. Deterministic from the seed alone.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A deliberately chaotic protocol: wakes on a private pseudo-random
/// schedule (derived from `ctx.rng_seed`, so both executors see the same
/// coins), sends random payloads on a random subset of ports each wake,
/// and folds everything it receives into an order-sensitive digest. Any
/// divergence in scheduling, routing, inbox ordering, or delivery/loss
/// between the executors changes the digest or the stats.
#[derive(Debug)]
struct Chaotic {
    rng: SplitMix64,
    wakes_left: u32,
    max_gap: u64,
    received: Vec<(Round, u32, u64)>,
    digest: u64,
}

impl Chaotic {
    fn new(ctx: &NodeCtx, wakes: u32, max_gap: u64) -> Self {
        Chaotic {
            rng: SplitMix64(ctx.rng_seed),
            wakes_left: wakes,
            max_gap,
            received: Vec::new(),
            digest: 0,
        }
    }
}

impl Protocol for Chaotic {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        if self.wakes_left == 0 {
            return NextWake::Halt;
        }
        NextWake::At(1 + self.rng.next() % self.max_gap)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            if self.rng.next().is_multiple_of(2) {
                outbox.push(p, round ^ (self.rng.next() % 1024));
            }
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        for e in inbox {
            self.received.push((round, e.port.raw(), e.msg));
            self.digest = self
                .digest
                .rotate_left(7)
                .wrapping_add(round ^ u64::from(e.port.raw()).wrapping_mul(e.msg | 1));
        }
        self.wakes_left -= 1;
        if self.wakes_left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + 1 + self.rng.next() % self.max_gap)
        }
    }
}

/// Runs both executors on the same instance and asserts full agreement.
fn assert_executors_agree(
    graph: &graphlib::WeightedGraph,
    master_seed: u64,
    wakes: u32,
    max_gap: u64,
) -> Result<(), TestCaseError> {
    let config = SimConfig::default().with_seed(master_seed).with_trace();
    let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);

    let fast = Simulator::new(graph, config.clone()).run(factory).unwrap();
    let slow = Simulator::new(graph, config.with_executor(Executor::Naive))
        .run(factory)
        .unwrap();

    prop_assert_eq!(&fast.stats, &slow.stats);
    prop_assert_eq!(&fast.trace, &slow.trace);
    prop_assert_eq!(fast.states.len(), slow.states.len());
    for (a, b) in fast.states.iter().zip(&slow.states) {
        prop_assert_eq!(&a.received, &b.received);
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.wakes_left, b.wakes_left);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sparse graphs, random seeds, sparse wake schedules (large
    /// gaps force the event-driven executor to skip long silent
    /// stretches the naive executor grinds through round by round).
    #[test]
    fn event_driven_matches_naive_on_random_graphs(
        n in 3usize..14,
        graph_seed in 0u64..1000,
        master_seed in 0u64..1000,
        wakes in 1u32..6,
        max_gap in 1u64..40,
    ) {
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        assert_executors_agree(&g, master_seed, wakes, max_gap)?;
    }

    /// Dense graphs maximize message traffic (and loss, since schedules
    /// rarely align), stressing routing and inbox assembly.
    #[test]
    fn event_driven_matches_naive_on_complete_graphs(
        n in 3usize..9,
        master_seed in 0u64..1000,
        wakes in 1u32..5,
        max_gap in 1u64..12,
    ) {
        let g = generators::complete(n, 11).unwrap();
        assert_executors_agree(&g, master_seed, wakes, max_gap)?;
    }

    /// One [`ExecutorScratch`] threaded through a *sequence* of random
    /// runs (different graphs, sizes, seeds, schedules) must behave
    /// exactly like allocating fresh buffers each time. This is the test
    /// that catches stale-buffer leaks: a wake-queue stamp, arena range,
    /// or stats vector surviving from run k would corrupt run k+1.
    #[test]
    fn reused_scratch_matches_naive_across_consecutive_runs(
        runs in proptest::collection::vec(
            (3usize..12, 0u64..1000, 0u64..1000, 1u32..5, 1u64..30), 2..6),
    ) {
        let mut scratch = ExecutorScratch::new();
        for &(n, graph_seed, master_seed, wakes, max_gap) in &runs {
            let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
            let config = SimConfig::default().with_seed(master_seed).with_trace();
            let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);

            let pooled = Simulator::new(&g, config.clone())
                .run_with_scratch(&mut scratch, factory)
                .unwrap();
            let slow = Simulator::new(&g, config.with_executor(Executor::Naive)).run(factory).unwrap();

            prop_assert_eq!(&pooled.stats, &slow.stats);
            prop_assert_eq!(&pooled.trace, &slow.trace);
            for (a, b) in pooled.states.iter().zip(&slow.states) {
                prop_assert_eq!(&a.received, &b.received);
                prop_assert_eq!(a.digest, b.digest);
            }
        }
    }

    /// Shrinking-size sequences are the nastiest reuse case: buffers sized
    /// for a big run must not leak entries into a smaller one (ranges,
    /// stamps, and per-node vectors all shrink).
    #[test]
    fn reused_scratch_survives_shrinking_graphs(
        master_seed in 0u64..1000,
        wakes in 1u32..5,
    ) {
        let mut scratch = ExecutorScratch::new();
        for n in [13usize, 7, 3] {
            let g = generators::complete(n, 11).unwrap();
            let config = SimConfig::default().with_seed(master_seed).with_trace();
            let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, 8);

            let pooled = Simulator::new(&g, config.clone())
                .run_with_scratch(&mut scratch, factory)
                .unwrap();
            let slow = Simulator::new(&g, config.with_executor(Executor::Naive)).run(factory).unwrap();
            prop_assert_eq!(&pooled.stats, &slow.stats);
            prop_assert_eq!(&pooled.trace, &slow.trace);
            for (a, b) in pooled.states.iter().zip(&slow.states) {
                prop_assert_eq!(a.digest, b.digest);
            }
        }
    }
}

/// The executors also agree on a real protocol run end to end: the
/// randomized MST algorithm's full message choreography over both
/// executors yields identical stats (a fixed-seed spot check — the
/// proptests above cover the scheduling space).
#[test]
fn executors_agree_under_dense_synchronous_load() {
    let g = generators::grid(4, 5, 9).unwrap();
    // Everyone awake every round for a while: zero loss, maximal traffic.
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
        fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, inbox: &[Envelope<u64>]) -> NextWake {
            self.sum += inbox.iter().map(|e| e.msg).sum::<u64>();
            self.left -= 1;
            if self.left == 0 {
                NextWake::Halt
            } else {
                NextWake::At(_round + 1)
            }
        }
    }
    let config = SimConfig::default().with_trace();
    let factory = |_: &NodeCtx| Lockstep { left: 20, sum: 0 };
    let fast = Simulator::new(&g, config.clone()).run(factory).unwrap();
    let slow = Simulator::new(&g, config.with_executor(Executor::Naive))
        .run(factory)
        .unwrap();
    assert_eq!(fast.stats, slow.stats);
    assert_eq!(fast.trace, slow.trace);
    assert_eq!(fast.stats.messages_lost, 0);
    for (a, b) in fast.states.iter().zip(&slow.states) {
        assert_eq!(a.sum, b.sum);
    }
}

/// Runs both executors under the same [`FaultPlan`] and asserts full
/// agreement. Faults are adjudicated by stateless seeded streams keyed
/// on (round, node/edge), so the executors must reach identical
/// verdicts no matter how differently they schedule the rounds.
fn assert_executors_agree_with_faults(
    graph: &graphlib::WeightedGraph,
    master_seed: u64,
    wakes: u32,
    max_gap: u64,
    plan: FaultPlan,
) -> Result<(), TestCaseError> {
    let config = SimConfig::default()
        .with_seed(master_seed)
        .with_trace()
        .with_faults(plan);
    let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);

    let fast = Simulator::new(graph, config.clone()).run(factory).unwrap();
    let slow = Simulator::new(graph, config.with_executor(Executor::Naive))
        .run(factory)
        .unwrap();

    prop_assert_eq!(&fast.stats, &slow.stats);
    prop_assert_eq!(&fast.trace, &slow.trace);
    prop_assert_eq!(fast.states.len(), slow.states.len());
    for (a, b) in fast.states.iter().zip(&slow.states) {
        prop_assert_eq!(&a.received, &b.received);
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.wakes_left, b.wakes_left);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault plane must not open a gap between the executors: random
    /// plans mixing drops, duplicates, spurious sleeps, wake jitter, and
    /// crashes still yield bit-identical stats, traces, and states.
    #[test]
    fn executors_agree_under_random_fault_plans(
        n in 3usize..12,
        graph_seed in 0u64..500,
        master_seed in 0u64..500,
        wakes in 1u32..5,
        max_gap in 1u64..20,
        fault_seed in 0u64..1000,
        drop_ppm in 0u32..700_000,
        dup_ppm in 0u32..700_000,
        sleep_ppm in 0u32..600_000,
        jitter in 0u64..4,
        crashes in proptest::collection::vec((0u32..16, 1u64..30), 0..3),
    ) {
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        let mut plan = FaultPlan::seeded(fault_seed)
            .with_drop_ppm(drop_ppm)
            .with_duplicate_ppm(dup_ppm)
            .with_spurious_sleep_ppm(sleep_ppm)
            .with_wake_jitter(jitter);
        for &(node, round) in &crashes {
            plan = plan.with_crash(node % n as u32, round);
        }
        assert_executors_agree_with_faults(&g, master_seed, wakes, max_gap, plan)?;
    }

    /// Drop-heavy plans on dense graphs: the adjudication order inside a
    /// round (drop before the receiver-awake check, duplicate after
    /// delivery) must match between the executors under maximal traffic.
    #[test]
    fn executors_agree_under_heavy_drops_on_complete_graphs(
        n in 3usize..8,
        master_seed in 0u64..500,
        fault_seed in 0u64..1000,
        drop_ppm in 500_000u32..1_000_000,
        dup_ppm in 0u32..1_000_000,
    ) {
        let g = generators::complete(n, 11).unwrap();
        let plan = FaultPlan::seeded(fault_seed)
            .with_drop_ppm(drop_ppm)
            .with_duplicate_ppm(dup_ppm);
        assert_executors_agree_with_faults(&g, master_seed, 3, 6, plan)?;
    }
}

/// Runs the same instance under both time drivers — selected purely
/// through [`SimConfig::with_executor`], the way every caller above the
/// engine does it — and asserts bit-identical outcomes: stats, trace,
/// metrics, and final protocol states.
fn assert_all_drivers_agree(
    graph: &graphlib::WeightedGraph,
    base: &SimConfig,
    wakes: u32,
    max_gap: u64,
) -> Result<(), TestCaseError> {
    let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);
    let reference = Simulator::new(graph, base.clone().with_executor(Executor::Calendar))
        .run(factory)
        .unwrap();
    let other = Simulator::new(graph, base.clone().with_executor(Executor::Naive))
        .run(factory)
        .unwrap();
    prop_assert_eq!(&reference.stats, &other.stats, "stats");
    prop_assert_eq!(&reference.trace, &other.trace, "trace");
    prop_assert_eq!(&reference.metrics, &other.metrics, "metrics");
    prop_assert_eq!(reference.states.len(), other.states.len());
    for (a, b) in reference.states.iter().zip(&other.states) {
        prop_assert_eq!(&a.received, &b.received);
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.wakes_left, b.wakes_left);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full driver matrix on random graphs: metrics and tracing
    /// toggled independently, an optional fault plan (drops, spurious
    /// sleeps, wake jitter, crashes) layered on top. Driver choice must
    /// be observationally invisible in every combination.
    #[test]
    fn both_drivers_agree_on_random_graphs(
        n in 3usize..12,
        graph_seed in 0u64..500,
        master_seed in 0u64..500,
        wakes in 1u32..5,
        max_gap in 1u64..30,
        metrics in any::<bool>(),
        trace in any::<bool>(),
        faults in proptest::option::of((
            0u64..1000,
            0u32..600_000,
            0u32..500_000,
            0u64..3,
            proptest::collection::vec((0u32..16, 1u64..25), 0..3),
        )),
    ) {
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        let mut config = SimConfig::default().with_seed(master_seed);
        if metrics {
            config = config.with_metrics();
        }
        if trace {
            config = config.with_trace();
        }
        if let Some((fault_seed, drop_ppm, sleep_ppm, jitter, crashes)) = faults {
            let mut plan = FaultPlan::seeded(fault_seed)
                .with_drop_ppm(drop_ppm)
                .with_spurious_sleep_ppm(sleep_ppm)
                .with_wake_jitter(jitter);
            for &(node, round) in &crashes {
                plan = plan.with_crash(node % n as u32, round);
            }
            config = config.with_faults(plan);
        }
        assert_all_drivers_agree(&g, &config, wakes, max_gap)?;
    }

    /// Same matrix on sparse wake schedules with *huge* gaps: most
    /// surfaced rounds are separated by thousands of silent rounds the
    /// naive driver must grind through one by one while the calendar
    /// driver jumps. Any off-by-one in the grind (a round
    /// surfaced early, a stale wake surfaced late) breaks agreement.
    #[test]
    fn both_drivers_agree_across_long_silent_stretches(
        n in 2usize..6,
        graph_seed in 0u64..200,
        master_seed in 0u64..200,
        wakes in 1u32..4,
        max_gap in 500u64..4_000,
        metrics in any::<bool>(),
    ) {
        let g = generators::random_connected(n, 0.5, graph_seed).unwrap();
        let mut config = SimConfig::default().with_seed(master_seed).with_trace();
        if metrics {
            config = config.with_metrics();
        }
        assert_all_drivers_agree(&g, &config, wakes, max_gap)?;
    }
}

/// n = 0: no nodes, no wakes, nothing to schedule. Every driver must
/// return an empty zero-round outcome instead of panicking on an empty
/// heap / empty scan.
#[test]
fn both_drivers_agree_on_the_empty_graph() {
    let g = GraphBuilder::new(0).build().unwrap();
    let config = SimConfig::default().with_trace().with_metrics();
    assert_all_drivers_agree(&g, &config, 3, 10).unwrap();
    let out = Simulator::new(&g, config.with_executor(Executor::Naive))
        .run(|ctx: &NodeCtx| Chaotic::new(ctx, 3, 10))
        .unwrap();
    assert_eq!(out.stats.rounds, 0);
    assert_eq!(out.stats.awake_total(), 0);
    assert_eq!(out.metrics.last_round(), 0);
    assert!(out.states.is_empty());
}

/// n = 1: a single node with no ports wakes a few times, sends nothing,
/// and halts. The degenerate no-edges routing path must agree too.
#[test]
fn both_drivers_agree_on_a_single_node() {
    let g = GraphBuilder::new(1).build().unwrap();
    let config = SimConfig::default().with_trace().with_metrics();
    assert_all_drivers_agree(&g, &config, 4, 7).unwrap();
}

/// Every node halts at init: the run has *no* active round at all. The
/// calendar starts empty and the naive scan sees all-`None` on its first
/// pass — both must report zero rounds and an empty metrics stream.
#[test]
fn both_drivers_agree_when_every_node_sleeps_forever() {
    #[derive(Debug)]
    struct NeverWakes;
    impl Protocol for NeverWakes {
        type Msg = u64;
        fn init(&mut self, _: &NodeCtx) -> NextWake {
            NextWake::Halt
        }
        fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<u64>) {}
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }
    let g = generators::ring(6, 1).unwrap();
    let base = SimConfig::default().with_trace().with_metrics();
    let mut traces = Vec::new();
    for executor in DRIVERS {
        let out = Simulator::new(&g, base.clone().with_executor(executor))
            .run(|_| NeverWakes)
            .unwrap();
        assert_eq!(out.stats.rounds, 0, "{executor:?}");
        assert_eq!(out.stats.awake_total(), 0, "{executor:?}");
        assert_eq!(out.stats.messages_delivered, 0, "{executor:?}");
        assert_eq!(out.metrics.last_round(), 0, "{executor:?}");
        assert_eq!(out.metrics.active_rounds(), 0, "{executor:?}");
        traces.push(out.trace);
    }
    // The init-time halt decisions are traced, but no round ever runs —
    // and the trace (init events only) is identical across drivers.
    assert_eq!(traces[0], traces[1]);
}

/// One node schedules a single wake a million rounds out; everyone else
/// halts immediately. The calendar driver jumps straight there; the
/// naive driver must grind through 999 999 silent rounds without
/// surfacing any of them. The message it sends goes to a
/// halted neighbor and must count as lost under every driver.
#[test]
fn both_drivers_agree_on_a_single_deep_wake() {
    const DEEP: u64 = 1_000_000;

    #[derive(Debug)]
    struct DeepSleeper;
    impl Protocol for DeepSleeper {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeCtx) -> NextWake {
            if ctx.node.raw() == 0 {
                NextWake::At(DEEP)
            } else {
                NextWake::Halt
            }
        }
        fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
            for p in ctx.ports() {
                outbox.push(p, round);
            }
        }
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }

    let g = generators::path(2, 1).unwrap();
    let base = SimConfig::default().with_trace().with_metrics();
    let reference = Simulator::new(&g, base.clone().with_executor(Executor::Calendar))
        .run(|_| DeepSleeper)
        .unwrap();
    assert_eq!(reference.stats.rounds, DEEP);
    assert_eq!(reference.stats.awake_total(), 1);
    assert_eq!(reference.stats.messages_lost, 1);
    assert_eq!(reference.metrics.last_round(), DEEP);
    assert_eq!(reference.metrics.active_rounds(), 1);
    let out = Simulator::new(&g, base.clone().with_executor(Executor::Naive))
        .run(|_| DeepSleeper)
        .unwrap();
    assert_eq!(out.stats, reference.stats);
    assert_eq!(out.trace, reference.trace);
    assert_eq!(out.metrics, reference.metrics);
}

/// Like [`assert_all_drivers_agree`], but tolerant of typed failures: a
/// budgeted energy model can end the run in
/// [`SimError::EnergyExhausted`], and a non-identity [`WakePolicy`] can
/// starve a protocol into [`SimError::Stalled`] or the watchdog. Both
/// drivers must then fail with the *same* typed error — agreement
/// on failures is as load-bearing as agreement on outcomes.
fn assert_all_drivers_agree_or_fail_identically(
    graph: &graphlib::WeightedGraph,
    base: &SimConfig,
    wakes: u32,
    max_gap: u64,
) -> Result<(), TestCaseError> {
    let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);
    let reference =
        Simulator::new(graph, base.clone().with_executor(Executor::Calendar)).run(factory);
    let other = Simulator::new(graph, base.clone().with_executor(Executor::Naive)).run(factory);
    match (&reference, &other) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.stats, &b.stats, "stats");
            prop_assert_eq!(&a.trace, &b.trace, "trace");
            prop_assert_eq!(&a.metrics, &b.metrics, "metrics");
            for (sa, sb) in a.states.iter().zip(&b.states) {
                prop_assert_eq!(&sa.received, &sb.received);
                prop_assert_eq!(sa.digest, sb.digest);
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error"),
        (a, b) => prop_assert!(
            false,
            "naive diverged on success/failure: calendar={a:?} naive={b:?}"
        ),
    }
    Ok(())
}

/// Every wake-policy variant the proptests sweep, decoded from raw draws
/// (the vendored proptest has no combinators). Policies hash their
/// decisions statelessly like fault plans, so each variant must be
/// driver-invisible both alone and under a fault plan.
fn decode_policy(variant: u8, seed: u64, param: u64) -> WakePolicy {
    match variant % 4 {
        0 => WakePolicy::Block,
        1 => WakePolicy::DutyCycle { period: 1 + param },
        2 => WakePolicy::HeavyTail { seed, cap: param },
        _ => WakePolicy::AdversarialShift {
            seed,
            max_shift: param,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: every [`WakePolicy`] variant — with and without a
    /// fault plan layered on top, and with an optional priced energy
    /// model — is observationally identical across both drivers.
    /// The policy rewrites wakes *after* fault jitter, so the stacking
    /// order is part of the pinned contract.
    #[test]
    fn both_drivers_agree_under_every_wake_policy(
        n in 3usize..12,
        graph_seed in 0u64..500,
        master_seed in 0u64..500,
        wakes in 1u32..5,
        max_gap in 1u64..20,
        policy_variant in 0u8..4,
        policy_seed in 0u64..1000,
        policy_param in 0u64..16,
        metrics in any::<bool>(),
        priced in any::<bool>(),
        faults in proptest::option::of((
            0u64..1000,
            0u32..500_000,
            0u32..400_000,
            0u64..3,
        )),
    ) {
        let policy = decode_policy(policy_variant, policy_seed, policy_param);
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        let mut config = SimConfig::default()
            .with_seed(master_seed)
            .with_trace()
            .with_wake_policy(policy);
        if metrics {
            config = config.with_metrics();
        }
        if priced {
            config = config.with_energy(EnergyModel::reference());
        }
        if let Some((fault_seed, drop_ppm, sleep_ppm, jitter)) = faults {
            config = config.with_faults(
                FaultPlan::seeded(fault_seed)
                    .with_drop_ppm(drop_ppm)
                    .with_spurious_sleep_ppm(sleep_ppm)
                    .with_wake_jitter(jitter),
            );
        }
        assert_all_drivers_agree_or_fail_identically(&g, &config, wakes, max_gap)?;
    }

    /// Satellite: budgeted runs agree across drivers whether the budget
    /// suffices or exhausts mid-run — including budgets so tight the
    /// first awake round already overdraws.
    #[test]
    fn both_drivers_agree_under_random_budgets(
        n in 3usize..10,
        graph_seed in 0u64..300,
        master_seed in 0u64..300,
        wakes in 1u32..4,
        max_gap in 1u64..12,
        budget in 0u64..40_000,
    ) {
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        let config = SimConfig::default()
            .with_seed(master_seed)
            .with_trace()
            .with_energy(EnergyModel::reference().with_budget(budget));
        assert_all_drivers_agree_or_fail_identically(&g, &config, wakes, max_gap)?;
    }
}

/// Edge case: a zero budget under the reference model is exhausted by
/// the very first awake round — every driver must type the failure as
/// [`SimError::EnergyExhausted`] with the identical (node, round), and
/// the exhausted node is the first waker in serial node order.
#[test]
fn zero_budget_exhausts_in_the_first_awake_round_under_every_driver() {
    #[derive(Debug)]
    struct WakeOnce;
    impl Protocol for WakeOnce {
        type Msg = u64;
        fn init(&mut self, _: &NodeCtx) -> NextWake {
            NextWake::At(1)
        }
        fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<u64>) {}
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }
    let g = generators::ring(5, 1).unwrap();
    let config = SimConfig::default().with_energy(EnergyModel::reference().with_budget(0));
    let mut verdicts = Vec::new();
    for executor in DRIVERS {
        let err = Simulator::new(&g, config.clone().with_executor(executor))
            .run(|_| WakeOnce)
            .unwrap_err();
        let SimError::EnergyExhausted { node, round } = err else {
            panic!("{executor:?}: expected exhaustion, got {err}");
        };
        assert_eq!(round, 1, "{executor:?}");
        assert_eq!(node.raw(), 0, "{executor:?}: first waker in node order");
        verdicts.push((node, round));
    }
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
}

/// Edge case: every node overdraws in the same wide broadcast round —
/// the whole network dies mid-broadcast at once. The adjudication runs
/// in serial node order after the round's deliveries, so the reported
/// node is node 0 under every driver *and every shard count* (exhaustion
/// is adjudicated outside the sharded half-step).
#[test]
fn whole_network_exhaustion_mid_broadcast_is_identical_across_drivers_and_shards() {
    let n = 300usize; // past the wide-round gate so shards engage
    let g = generators::chorded_cycle(n, 2, 7).unwrap();
    // Two lockstep broadcast rounds fit the budget, the third overdraws
    // every node in the same round.
    let model = EnergyModel::default()
        .with_round_cost(1000)
        .with_budget(2500);
    let factory = |_: &NodeCtx| WideWave::new(10);
    let mut verdicts = Vec::new();
    for executor in DRIVERS {
        for shards in [1u32, 2, 4] {
            let config = SimConfig::default()
                .with_energy(model)
                .with_executor(executor)
                .with_shards(shards);
            let err = Simulator::new(&g, config).run(factory).unwrap_err();
            let SimError::EnergyExhausted { node, round } = err else {
                panic!("{executor:?}/shards={shards}: expected exhaustion, got {err}");
            };
            assert_eq!(round, 3, "{executor:?}/shards={shards}");
            assert_eq!(node.raw(), 0, "{executor:?}/shards={shards}");
            verdicts.push((node, round));
        }
    }
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
}

/// Edge case: duty-cycle period 1 is the identity policy (every round is
/// on-cycle), so it must take the exact no-policy kernel path — bit-
/// identical stats, trace, metrics, and states versus [`WakePolicy::Block`].
#[test]
fn duty_cycle_period_one_is_bit_identical_to_block() {
    let g = generators::random_connected(10, 0.3, 5).unwrap();
    let factory = |ctx: &NodeCtx| Chaotic::new(ctx, 4, 9);
    let base = SimConfig::default()
        .with_seed(3)
        .with_trace()
        .with_metrics();
    let block = Simulator::new(&g, base.clone()).run(factory).unwrap();
    for policy in [
        WakePolicy::DutyCycle { period: 1 },
        WakePolicy::DutyCycle { period: 0 },
        WakePolicy::HeavyTail { seed: 9, cap: 0 },
        WakePolicy::AdversarialShift {
            seed: 9,
            max_shift: 0,
        },
    ] {
        assert!(policy.is_identity());
        let gated = Simulator::new(&g, base.clone().with_wake_policy(policy))
            .run(factory)
            .unwrap();
        assert_eq!(block.stats, gated.stats, "{policy:?}");
        assert_eq!(block.trace, gated.trace, "{policy:?}");
        assert_eq!(block.metrics, gated.metrics, "{policy:?}");
        for (a, b) in block.states.iter().zip(&gated.states) {
            assert_eq!(a.digest, b.digest, "{policy:?}");
        }
    }
}

/// A duty cycle actually *moves* wakes: under period 5 every surfaced
/// round is on-cycle under every driver (the policy applies after fault
/// jitter, inside the one kernel).
#[test]
fn duty_cycle_rounds_are_on_cycle_under_every_driver() {
    let g = generators::ring(8, 2).unwrap();
    let period = 5u64;
    let base = SimConfig::default()
        .with_seed(11)
        .with_metrics()
        .with_wake_policy(WakePolicy::DutyCycle { period });
    for executor in DRIVERS {
        let out = Simulator::new(&g, base.clone().with_executor(executor))
            .run(|ctx: &NodeCtx| Chaotic::new(ctx, 3, 13))
            .unwrap();
        for r in &out.metrics.per_round {
            assert_eq!(
                (r.round - 1) % period,
                0,
                "{executor:?}: round {} is off-cycle",
                r.round
            );
        }
        assert!(out.metrics.active_rounds() > 0, "{executor:?}");
    }
}

/// A maximally wide workload for the shard matrix: every node wakes in
/// lockstep every round, sends a weight-derived payload on every port,
/// and folds its inbox into an order-sensitive digest. With hundreds of
/// nodes awake per round this crosses the kernel's wide-round gate, so
/// `--shards K` actually fans the send half-step out across threads —
/// any divergence in partitioning, outbox merge order, fault
/// adjudication, or inbox assembly shows up in the digest or the stats.
#[derive(Debug)]
struct WideWave {
    left: u32,
    digest: u64,
    /// Rounds between wakes: 1 = lockstep, 2 = every other round, so the
    /// lockstep nodes' messages to this one are lost in between.
    stride: u64,
}

impl WideWave {
    /// A lockstep node that wakes `rounds` times.
    fn new(rounds: u32) -> Self {
        WideWave {
            left: rounds,
            digest: 0,
            stride: 1,
        }
    }

    /// Like [`WideWave::new`], except that a third of the nodes, drawn
    /// from `seed`, wake only every other round.
    fn skipping(ctx: &NodeCtx, rounds: u32, seed: u64) -> Self {
        let mut draw =
            SplitMix64(seed ^ u64::from(ctx.node.raw()).wrapping_mul(0xff51_afd7_ed55_8ccd));
        WideWave {
            stride: if draw.next().is_multiple_of(3) { 2 } else { 1 },
            ..WideWave::new(rounds)
        }
    }
}

impl Protocol for WideWave {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, round ^ ctx.port_weights[p.index()]);
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        for e in inbox {
            self.digest = self
                .digest
                .rotate_left(9)
                .wrapping_add(round ^ u64::from(e.port.raw()).wrapping_mul(e.msg | 1));
        }
        self.left -= 1;
        if self.left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + self.stride)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharding the send half-step must be observationally invisible on
    /// the rounds it actually parallelizes: wide rounds on the
    /// chorded-cycle family (every node awake at once, far past the
    /// wide-round gate) yield the serial baseline's stats, metrics, and
    /// states at every shard count — across fault plans (drops exercise
    /// the lanes' fault verdicts, duplicates the arena clone order), with
    /// metrics recording toggled both ways, under an energy model whose
    /// four costs differ (the lanes' transmit ledger windows, the
    /// inbox-derived receive charge, idle listening), and with a seeded
    /// third of the nodes waking only every other round, so the rounds in
    /// between — still wide — lose messages to sleeping receivers.
    #[test]
    fn shard_counts_agree_on_wide_rounds(
        n in 240usize..400,
        master_seed in 0u64..500,
        rounds in 2u32..6,
        metrics in any::<bool>(),
        priced in any::<bool>(),
        skip_seed in proptest::option::of(0u64..1000),
        faults in proptest::option::of((0u64..1000, 0u32..400_000, 0u32..400_000)),
    ) {
        let g = generators::chorded_cycle(n, 2, 7).unwrap();
        let mut config = SimConfig::default().with_seed(master_seed);
        if metrics {
            config = config.with_metrics();
        }
        if priced {
            config = config.with_energy(EnergyModel {
                round_cost: 1000,
                tx_bit_cost: 3,
                rx_bit_cost: 5,
                idle_cost: 70,
                budget: None,
            });
        }
        if let Some((fault_seed, drop_ppm, dup_ppm)) = faults {
            config = config.with_faults(
                FaultPlan::seeded(fault_seed)
                    .with_drop_ppm(drop_ppm)
                    .with_duplicate_ppm(dup_ppm),
            );
        }
        let factory = |ctx: &NodeCtx| match skip_seed {
            Some(seed) => WideWave::skipping(ctx, rounds, seed),
            None => WideWave::new(rounds),
        };
        let serial = Simulator::new(&g, config.clone().with_shards(1))
            .run(factory)
            .unwrap();
        prop_assert!(serial.stats.messages_delivered > 0);
        if skip_seed.is_some() {
            prop_assert!(serial.stats.messages_lost > 0);
        }
        if priced {
            prop_assert!(serial.stats.energy_total() > 0);
        }
        for shards in [2u32, 7] {
            let sharded = Simulator::new(&g, config.clone().with_shards(shards))
                .run(factory)
                .unwrap();
            prop_assert_eq!(&serial.stats, &sharded.stats, "shards={}", shards);
            prop_assert_eq!(&serial.metrics, &sharded.metrics, "shards={}", shards);
            for (a, b) in serial.states.iter().zip(&sharded.states) {
                prop_assert_eq!(a.digest, b.digest, "shards={}", shards);
                prop_assert_eq!(a.left, b.left, "shards={}", shards);
            }
        }
    }

    /// Below the wide-round gate (small graphs, sparse chaotic wakes) a
    /// shard request falls back to the serial path round by round; the
    /// knob must still be invisible there — including with tracing on,
    /// which pins every round serial regardless of the shard count.
    #[test]
    fn shard_counts_agree_on_narrow_runs(
        n in 3usize..12,
        graph_seed in 0u64..300,
        master_seed in 0u64..300,
        wakes in 1u32..5,
        max_gap in 1u64..20,
        metrics in any::<bool>(),
        trace in any::<bool>(),
    ) {
        let g = generators::random_connected(n, 0.3, graph_seed).unwrap();
        let mut config = SimConfig::default().with_seed(master_seed);
        if metrics {
            config = config.with_metrics();
        }
        if trace {
            config = config.with_trace();
        }
        let factory = |ctx: &NodeCtx| Chaotic::new(ctx, wakes, max_gap);
        let serial = Simulator::new(&g, config.clone().with_shards(1))
            .run(factory)
            .unwrap();
        for shards in [2u32, 7] {
            let sharded = Simulator::new(&g, config.clone().with_shards(shards))
                .run(factory)
                .unwrap();
            prop_assert_eq!(&serial.stats, &sharded.stats, "shards={}", shards);
            prop_assert_eq!(&serial.trace, &sharded.trace, "shards={}", shards);
            prop_assert_eq!(&serial.metrics, &sharded.metrics, "shards={}", shards);
            for (a, b) in serial.states.iter().zip(&sharded.states) {
                prop_assert_eq!(&a.received, &b.received, "shards={}", shards);
                prop_assert_eq!(a.digest, b.digest, "shards={}", shards);
                prop_assert_eq!(a.wakes_left, b.wakes_left, "shards={}", shards);
            }
        }
    }
}

/// One note of the repeated-send workload: the round it was sent in, the
/// weight of the edge it crossed (both endpoints see that weight behind
/// their port), and its index among the sender's notes on that port
/// this round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Note {
    round: Round,
    weight: u64,
    index: u8,
}

impl Payload for Note {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Sends 0–3 distinct notes on every port every round, in lockstep, and
/// checks each inbox itself: ports ascending, every note sent this round
/// over the edge behind its port, and notes of one port in the order
/// they were sent (an injected duplicate repeats its note in place).
/// `Chaotic` and `WideWave` send at most once per port, so they cannot
/// see whether repeated sends on one port keep their order.
#[derive(Debug)]
struct Chatter {
    rng: SplitMix64,
    left: u32,
    received: Vec<(Round, u32, u8)>,
    digest: u64,
    misdelivered: u32,
}

impl Chatter {
    fn new(ctx: &NodeCtx, rounds: u32) -> Self {
        Chatter {
            rng: SplitMix64(ctx.rng_seed),
            left: rounds,
            received: Vec::new(),
            digest: 0,
            misdelivered: 0,
        }
    }
}

impl Protocol for Chatter {
    type Msg = Note;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<Note>) {
        for p in ctx.ports() {
            for index in 0..(self.rng.next() % 4) as u8 {
                outbox.push(
                    p,
                    Note {
                        round,
                        weight: ctx.weight(p),
                        index,
                    },
                );
            }
        }
    }

    fn deliver(&mut self, ctx: &NodeCtx, round: Round, inbox: &[Envelope<Note>]) -> NextWake {
        for (i, e) in inbox.iter().enumerate() {
            if e.msg.round != round || e.msg.weight != ctx.weight(e.port) {
                self.misdelivered += 1;
            }
            if let Some(prev) = i.checked_sub(1).map(|j| &inbox[j]) {
                if prev.port > e.port || (prev.port == e.port && prev.msg.index > e.msg.index) {
                    self.misdelivered += 1;
                }
            }
            self.received.push((round, e.port.raw(), e.msg.index));
            self.digest = self
                .digest
                .rotate_left(11)
                .wrapping_add(u64::from(e.port.raw()) << 8 | u64::from(e.msg.index));
        }
        self.left -= 1;
        if self.left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + 1)
        }
    }
}

/// `out` equals the oracle run exactly, and its inboxes passed their own
/// checks.
fn assert_chatter_matches(
    oracle: &RunOutcome<Chatter>,
    out: &RunOutcome<Chatter>,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&oracle.stats, &out.stats, "{} stats", label);
    prop_assert_eq!(&oracle.metrics, &out.metrics, "{} metrics", label);
    prop_assert_eq!(oracle.states.len(), out.states.len());
    for (a, b) in oracle.states.iter().zip(&out.states) {
        prop_assert_eq!(b.misdelivered, 0, "{} misdelivered", label);
        prop_assert_eq!(&a.received, &b.received, "{} received", label);
        prop_assert_eq!(a.digest, b.digest, "{} digest", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repeated sends on one port, in rounds wide enough (every node of a
    /// 150+-node graph awake) for the shard lanes to engage: every driver
    /// at 1, 2 and 4 shards reproduces the naive oracle's stats, metrics
    /// and inboxes — with and without injected duplicates, which put two
    /// copies of a note next to each other.
    #[test]
    fn repeated_sends_on_one_port_agree_across_drivers_and_shards(
        n in 150usize..260,
        master_seed in 0u64..500,
        rounds in 1u32..4,
        dup in proptest::option::of((0u64..1000, 1u32..400_000)),
    ) {
        let g = generators::chorded_cycle(n, 2, 5).unwrap();
        let mut config = SimConfig::default().with_seed(master_seed).with_metrics();
        if let Some((fault_seed, dup_ppm)) = dup {
            config = config.with_faults(FaultPlan::seeded(fault_seed).with_duplicate_ppm(dup_ppm));
        }
        let factory = |ctx: &NodeCtx| Chatter::new(ctx, rounds);
        let oracle = Simulator::new(&g, config.clone().with_executor(Executor::Naive)).run(factory).unwrap();
        prop_assert!(oracle.stats.messages_delivered > 0);
        assert_chatter_matches(&oracle, &oracle, "oracle")?;
        for executor in DRIVERS {
            for shards in [1u32, 2, 4] {
                let out = Simulator::new(&g, config.clone().with_executor(executor).with_shards(shards))
                    .run(factory)
                    .unwrap();
                assert_chatter_matches(&oracle, &out, &format!("{executor:?} shards={shards}"))?;
            }
        }
    }
}

/// A serial round too large to group in place (over a megabyte of
/// envelopes) takes the scatter path, like sharded rounds always do. Its
/// inboxes pass the protocol's own order and routing checks and match
/// the sharded runs and the naive oracle.
#[test]
fn rounds_too_large_to_group_in_place_keep_inbox_order() {
    let g = generators::chorded_cycle(12_000, 2, 5).unwrap();
    for faults in [None, Some(FaultPlan::seeded(4).with_duplicate_ppm(200_000))] {
        let mut config = SimConfig::default().with_seed(3);
        if let Some(plan) = faults {
            config = config.with_faults(plan);
        }
        let factory = |ctx: &NodeCtx| Chatter::new(ctx, 2);
        let oracle = Simulator::new(&g, config.clone().with_executor(Executor::Naive))
            .run(factory)
            .unwrap();
        let arena_bytes =
            oracle.stats.arena_peak_envelopes as usize * std::mem::size_of::<Envelope<Note>>();
        assert!(
            arena_bytes > 2 << 20,
            "{arena_bytes} bytes may be grouped in place"
        );
        assert_chatter_matches(&oracle, &oracle, "oracle").unwrap();
        for shards in [1u32, 2] {
            let out = Simulator::new(&g, config.clone().with_shards(shards))
                .run(factory)
                .unwrap();
            assert_chatter_matches(&oracle, &out, &format!("shards={shards}")).unwrap();
        }
    }
}

/// Keeps the weight view its context handed it, so its final state holds
/// the run's weight table after the run.
#[derive(Debug)]
struct KeepsWeights {
    weights: PortWeights,
    left: u32,
    digest: u64,
}

impl Protocol for KeepsWeights {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, round ^ self.weights[p.index()]);
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        for e in inbox {
            self.digest = self.digest.rotate_left(5) ^ e.msg ^ self.weights[e.port.index()];
        }
        self.left -= 1;
        if self.left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(2)
        }
    }
}

/// One scratch runs a graph, a graph with the same nodes and ports but
/// other weights (so it has its own weight table, of the same length),
/// and a smaller graph, under protocols that read `ctx.port_weights`:
/// each outcome equals a run on a fresh scratch. States that keep their
/// weight view past their run still see their own graph's weights: the
/// tables belong to the graphs and are never rewritten.
#[test]
fn reused_scratch_refills_contexts_and_weights_for_each_graph() {
    let a = generators::chorded_cycle(300, 2, 7).unwrap();
    let mut reweighted = GraphBuilder::new(300);
    for e in a.edges() {
        reweighted.edge(e.u.raw(), e.v.raw(), 1_000_000 - e.weight);
    }
    let b = reweighted.build().unwrap();
    assert_eq!(a.total_ports(), b.total_ports());
    assert_ne!(a.flat_port_weights(), b.flat_port_weights());
    let c = generators::chorded_cycle(150, 2, 9).unwrap();
    let config = SimConfig::default().with_seed(11);

    let mut scratch = ExecutorScratch::new();
    for g in [&a, &b, &c] {
        let wave = |_: &NodeCtx| WideWave::new(2);
        let reused = Simulator::new(g, config.clone())
            .run_with_scratch(&mut scratch, wave)
            .unwrap();
        let fresh = Simulator::new(g, config.clone()).run(wave).unwrap();
        assert_eq!(reused.stats, fresh.stats);
        for (x, y) in reused.states.iter().zip(&fresh.states) {
            assert_eq!(x.digest, y.digest);
        }
    }

    let mut scratch = ExecutorScratch::new();
    let mut kept = Vec::new();
    for g in [&a, &b, &c] {
        let keep = |ctx: &NodeCtx| KeepsWeights {
            weights: ctx.port_weights.clone(),
            left: 2,
            digest: 0,
        };
        let reused = Simulator::new(g, config.clone())
            .run_with_scratch(&mut scratch, keep)
            .unwrap();
        let fresh = Simulator::new(g, config.clone()).run(keep).unwrap();
        assert_eq!(reused.stats, fresh.stats);
        for (x, y) in reused.states.iter().zip(&fresh.states) {
            assert_eq!(x.digest, y.digest);
        }
        kept.push((g, reused.states));
    }
    for (g, states) in kept {
        for (v, state) in states.iter().enumerate() {
            let expected: Vec<u64> = g
                .ports(NodeId::new(v as u32))
                .iter()
                .map(|e| e.weight)
                .collect();
            assert_eq!(state.weights.as_slice(), expected.as_slice());
        }
    }
}

/// Folds every field of its context into its digest, and sends it on
/// every port: a run's outcome tells which contexts it was handed.
#[derive(Debug)]
struct EchoesContext {
    digest: u64,
}

impl EchoesContext {
    fn new(ctx: &NodeCtx) -> Self {
        let mut digest = ctx.rng_seed;
        for v in [ctx.external_id, ctx.max_external_id, ctx.n as u64]
            .into_iter()
            .chain(ctx.port_weights.iter().copied())
        {
            digest = digest.rotate_left(7) ^ v;
        }
        EchoesContext { digest }
    }
}

impl Protocol for EchoesContext {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, self.digest);
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        for e in inbox {
            self.digest = self.digest.rotate_left(5) ^ e.msg;
        }
        NextWake::Halt
    }
}

/// A scratch keeps its node contexts only for a run on the same graph
/// (the same weight-table allocation) under the same master seed. One
/// scratch runs, at shards 1 and 2: a graph, the same graph again, the
/// graph under another seed, a clone of it with permuted external ids
/// (the clone shares the graph's table until `set_external_ids` drops
/// it), an identically rebuilt copy, and a smaller graph. Every outcome
/// equals a run on a fresh scratch.
#[test]
fn reused_scratch_keeps_contexts_only_for_the_same_graph_and_seed() {
    let a = generators::chorded_cycle(300, 2, 7).unwrap();
    let rebuilt = generators::chorded_cycle(300, 2, 7).unwrap();
    let small = generators::chorded_cycle(150, 2, 9).unwrap();
    let mut scratch = ExecutorScratch::new();
    let mut run_both = |g: &graphlib::WeightedGraph, seed: u64, step: &str| {
        for shards in [1u32, 2] {
            let config = SimConfig::default().with_seed(seed).with_shards(shards);
            let reused = Simulator::new(g, config.clone())
                .run_with_scratch(&mut scratch, EchoesContext::new)
                .unwrap();
            let fresh = Simulator::new(g, config).run(EchoesContext::new).unwrap();
            assert_eq!(reused.stats, fresh.stats, "{step}, shards={shards}");
            let digests = |states: &[EchoesContext]| -> Vec<u64> {
                states.iter().map(|s| s.digest).collect()
            };
            assert_eq!(
                digests(&reused.states),
                digests(&fresh.states),
                "{step}, shards={shards}"
            );
        }
    };

    run_both(&a, 11, "a");
    run_both(&a, 11, "a again");
    run_both(&a, 12, "a under another seed");
    // Cloned after `a` ran, so the clone starts out sharing `a`'s table.
    let mut permuted = a.clone();
    assert!(std::sync::Arc::ptr_eq(
        &permuted.flat_port_weights(),
        &a.flat_port_weights()
    ));
    let n = permuted.node_count() as u64;
    permuted
        .set_external_ids((1..=n).map(|i| (i * 7) % n + 1).collect())
        .unwrap();
    run_both(&permuted, 12, "a with permuted ids");
    run_both(&rebuilt, 12, "a rebuilt");
    run_both(&small, 12, "a smaller graph");
}

/// A lockstep wave like [`WideWave`] that breaks in round 2: the `bad`
/// node also sends through a port it does not have.
#[derive(Debug)]
struct Doomed {
    bad: bool,
}

impl Protocol for Doomed {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        for p in ctx.ports() {
            outbox.push(p, round);
        }
        if self.bad && round == 2 {
            outbox.push(Port::new(ctx.degree() as u32), round);
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, round: Round, _inbox: &[Envelope<u64>]) -> NextWake {
        if round < 3 {
            NextWake::At(round + 1)
        } else {
            NextWake::Halt
        }
    }
}

/// A run that fails mid-way leaves charges in the scratch: the send
/// lanes past the first keep private per-edge tables (run totals and,
/// with metrics, the round's load) that only a successful run folds into
/// its stats. A wide lockstep run charges edges in every lane in round 1
/// and then fails in round 2 — through a port out of range in the last
/// lane, or by exhausting every node's energy budget — and the next,
/// clean run on the same scratch must equal a run on a fresh one.
#[test]
fn scratch_reused_after_a_failed_sharded_run_matches_a_fresh_one() {
    let g = generators::chorded_cycle(300, 2, 7).unwrap();
    let last = NodeId::new(g.node_count() as u32 - 1);
    let clean = |_: &NodeCtx| WideWave::new(3);
    for shards in [2u32, 4] {
        let base = SimConfig::default()
            .with_seed(5)
            .with_metrics()
            .with_shards(shards);
        let budgeted = base.clone().with_energy(
            EnergyModel::default()
                .with_round_cost(1000)
                .with_budget(1500),
        );
        let failures = [
            (
                true,
                base.clone(),
                SimError::PortOutOfRange {
                    node: last,
                    port: Port::new(g.degree(last) as u32),
                    round: 2,
                },
            ),
            (
                false,
                budgeted,
                SimError::EnergyExhausted {
                    node: NodeId::new(0),
                    round: 2,
                },
            ),
        ];
        let fresh = Simulator::new(&g, base.clone()).run(clean).unwrap();
        for (bad_port, failing, expected) in failures {
            let doomed = |ctx: &NodeCtx| Doomed {
                bad: bad_port && ctx.node == last,
            };
            let mut scratch = ExecutorScratch::new();
            let err = Simulator::new(&g, failing)
                .run_with_scratch(&mut scratch, doomed)
                .unwrap_err();
            assert_eq!(err, expected, "shards={shards}");
            let reused = Simulator::new(&g, base.clone())
                .run_with_scratch(&mut scratch, clean)
                .unwrap();
            let label = format!("shards={shards}, after {expected}");
            assert_eq!(
                reused.stats.bits_by_edge, fresh.stats.bits_by_edge,
                "{label}"
            );
            assert_eq!(reused.stats, fresh.stats, "{label}");
            assert_eq!(reused.metrics, fresh.metrics, "{label}");
            for (x, y) in reused.states.iter().zip(&fresh.states) {
                assert_eq!(x.digest, y.digest, "{label}");
            }
        }
    }
}

// --- receive lanes ---------------------------------------------------

/// The receive-lane workload: every node wakes in lockstep `left` times,
/// but node `v` sends (on every port) only in the rounds `r` with
/// `(v + r) % 4 == 0`, so receivers that hear nothing — idle listening —
/// sit next to receivers with full inboxes on both sides of every lane
/// boundary. A `heavy` node also pushes 40 maximal payloads on port 0 in
/// round 2, a transmit bill far above everyone else's; a `stale` node
/// asks to wake in the current round in round 2, which fails the run.
#[derive(Debug, Clone, Copy)]
struct Listener {
    left: u32,
    heavy: bool,
    stale: bool,
    idle: u32,
    digest: u64,
}

impl Listener {
    fn new(rounds: u32) -> Self {
        Listener {
            left: rounds,
            heavy: false,
            stale: false,
            idle: 0,
            digest: 0,
        }
    }
}

impl Protocol for Listener {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
        if (u64::from(ctx.node.raw()) + round).is_multiple_of(4) {
            for p in ctx.ports() {
                outbox.push(p, round ^ ctx.port_weights[p.index()]);
            }
        }
        if self.heavy && round == 2 {
            for _ in 0..40 {
                outbox.push(Port::new(0), u64::MAX);
            }
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, round: Round, inbox: &[Envelope<u64>]) -> NextWake {
        if inbox.is_empty() {
            self.idle += 1;
        }
        for e in inbox {
            self.digest = self
                .digest
                .rotate_left(7)
                .wrapping_add(round ^ u64::from(e.port.raw()).wrapping_mul(e.msg | 1));
        }
        self.left -= 1;
        if self.stale && round == 2 {
            NextWake::At(round)
        } else if self.left == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + 1)
        }
    }
}

/// Nodes on the receive-lane tests' graph: past the wide-round gate, so
/// every round of the lockstep workload runs as `shards` lanes.
const LISTENERS: usize = 300;

/// The first node of each lane of a wide round at `shards`.
fn lane_starts(shards: u32) -> Vec<u32> {
    let chunk = engine::shard_chunk_len(LISTENERS, shards, false).expect("a wide round");
    (0..LISTENERS).step_by(chunk).map(|v| v as u32).collect()
}

/// Runs [`Listener`] with `heavy`/`stale` node sets on `scratch`,
/// returning the outcome and every round's `(round, digests, idle counts)`
/// as the observer saw it — which a failed run still reports up to its
/// last completed round.
#[allow(clippy::type_complexity)]
fn listen(
    g: &graphlib::WeightedGraph,
    config: &SimConfig,
    heavy: &[u32],
    stale: &[u32],
    scratch: &mut ExecutorScratch<u64>,
) -> (
    Result<RunOutcome<Listener>, SimError>,
    Vec<(Round, Vec<u64>, Vec<u32>)>,
) {
    let mut seen = Vec::new();
    let out = Simulator::new(g, config.clone()).run_with_observer_scratch(
        scratch,
        |ctx| Listener {
            heavy: heavy.contains(&ctx.node.raw()),
            stale: stale.contains(&ctx.node.raw()),
            ..Listener::new(4)
        },
        |round, states: &[Listener]| {
            let digests = states.iter().map(|s| s.digest).collect();
            let idle = states.iter().map(|s| s.idle).collect();
            seen.push((round, digests, idle));
        },
    );
    (out, seen)
}

/// Wake requests in the past raised by receive lanes past the first:
/// the run reports the lowest such node — the one a serial deliver loop
/// stops at — even while a later lane errs too (at 3 and 4 shards the
/// two stale nodes sit in lanes 1 and the last, at 2 both sit in lane
/// 1, the later one first in it), and every round before the failing
/// one is observed identically.
#[test]
fn receive_lane_wake_errors_match_the_serial_run() {
    let g = generators::chorded_cycle(LISTENERS, 2, 7).unwrap();
    for shards in [2u32, 3, 4] {
        let starts = lane_starts(shards);
        let stale = [starts[1] + 10, starts[starts.len() - 1] + 5];
        let lowest = stale.iter().copied().min().expect("two stale nodes");
        let config = SimConfig::default().with_seed(3).with_metrics();
        let (serial, serial_seen) = listen(&g, &config, &[], &stale, &mut ExecutorScratch::new());
        let (sharded, sharded_seen) = listen(
            &g,
            &config.clone().with_shards(shards),
            &[],
            &stale,
            &mut ExecutorScratch::new(),
        );
        let expected = SimError::WakeNotInFuture {
            node: NodeId::new(lowest),
            round: 2,
            requested: 2,
        };
        assert_eq!(serial.unwrap_err(), expected, "shards=1");
        assert_eq!(sharded.unwrap_err(), expected, "shards={shards}");
        assert_eq!(sharded_seen, serial_seen, "shards={shards}");
        assert_eq!(serial_seen.len(), 1, "only round 1 completes");
    }
}

/// A first budget exhaustion that falls in lane 1's range: lane 0
/// reports none, and the run's verdict is lane 1's own first even where
/// the last lane exhausts a node too (at 3 and 4 shards). The run goes
/// on to the end with the exhausted nodes forced asleep, every observed
/// round identical to the serial run's.
#[test]
fn first_exhaustion_in_lane_one_matches_the_serial_run() {
    let g = generators::chorded_cycle(LISTENERS, 2, 7).unwrap();
    let model = EnergyModel::default().with_tx_bit_cost(1).with_budget(1000);
    for shards in [2u32, 3, 4] {
        let starts = lane_starts(shards);
        let lane_one_end = starts.get(2).copied().unwrap_or(LISTENERS as u32);
        let mut heavy = vec![starts[1] + 3, lane_one_end - 2];
        if starts.len() > 2 {
            heavy.push(starts[starts.len() - 1] + 1);
        }
        let config = SimConfig::default()
            .with_seed(4)
            .with_metrics()
            .with_energy(model);
        let (serial, serial_seen) = listen(&g, &config, &heavy, &[], &mut ExecutorScratch::new());
        let (sharded, sharded_seen) = listen(
            &g,
            &config.clone().with_shards(shards),
            &heavy,
            &[],
            &mut ExecutorScratch::new(),
        );
        let expected = SimError::EnergyExhausted {
            node: NodeId::new(heavy[0]),
            round: 2,
        };
        assert_eq!(serial.unwrap_err(), expected, "shards=1");
        assert_eq!(sharded.unwrap_err(), expected, "shards={shards}");
        assert_eq!(sharded_seen, serial_seen, "shards={shards}");
        assert_eq!(serial_seen.len(), 4, "the run continues to its end");
    }
}

/// Idle listening and receive energy are charged by the receive lanes on
/// their own windows of the ledger; under injected duplicates (charged
/// twice on receipt) every stat, the metrics' per-round energy, and every
/// state match the serial run at 2, 3 and 4 shards. Every lane has both
/// idle listeners and receivers, so each lane boundary is crossed both
/// ways.
#[test]
fn idle_and_receive_energy_across_lane_boundaries_match_under_dups() {
    let g = generators::chorded_cycle(LISTENERS, 2, 7).unwrap();
    let model = EnergyModel::default()
        .with_round_cost(3)
        .with_tx_bit_cost(1)
        .with_rx_bit_cost(2)
        .with_idle_cost(5);
    let config = SimConfig::default()
        .with_seed(9)
        .with_metrics()
        .with_energy(model)
        .with_faults(FaultPlan::seeded(21).with_duplicate_ppm(300_000));
    let mut scratch = ExecutorScratch::new();
    let (serial, serial_seen) = listen(&g, &config, &[], &[], &mut scratch);
    let serial = serial.expect("serial run");
    assert!(serial.stats.idle_listen_rounds > 0);
    assert!(serial.stats.dup_deliveries > 0);
    for shards in [2u32, 3, 4] {
        let (sharded, sharded_seen) = listen(
            &g,
            &config.clone().with_shards(shards),
            &[],
            &[],
            &mut scratch,
        );
        let sharded = sharded.expect("sharded run");
        let label = format!("shards={shards}");
        assert_eq!(sharded.stats, serial.stats, "{label}");
        assert_eq!(sharded.metrics, serial.metrics, "{label}");
        assert_eq!(sharded_seen, serial_seen, "{label}");
        let starts = lane_starts(shards);
        for (lane, &start) in starts.iter().enumerate() {
            let end = starts.get(lane + 1).map_or(LISTENERS, |&e| e as usize);
            let states = &sharded.states[start as usize..end];
            assert!(states.iter().any(|s| s.idle > 0), "{label} lane {lane}");
            assert!(states.iter().any(|s| s.idle < 4), "{label} lane {lane}");
        }
    }
}

/// A run that fails inside a receive lane leaves that round's state
/// behind — slot-table entries of the nodes the failing lane never
/// reached, lanes' recorded wakes and tallies, envelopes in the arena,
/// private edge tables charged in round 1 — and the next clean run on
/// the same scratch must equal a run on a fresh one.
#[test]
fn scratch_reused_after_a_receive_lane_failure_matches_a_fresh_one() {
    let g = generators::chorded_cycle(LISTENERS, 2, 7).unwrap();
    let model = EnergyModel::default()
        .with_round_cost(3)
        .with_rx_bit_cost(2)
        .with_idle_cost(5);
    for shards in [2u32, 3, 4] {
        let config = SimConfig::default()
            .with_seed(6)
            .with_metrics()
            .with_energy(model)
            .with_shards(shards);
        let starts = lane_starts(shards);
        let stale = [starts[starts.len() - 1] + 1];
        let (fresh, fresh_seen) = listen(&g, &config, &[], &[], &mut ExecutorScratch::new());
        let fresh = fresh.expect("clean run");
        let mut scratch = ExecutorScratch::new();
        let (failed, _) = listen(&g, &config, &[], &stale, &mut scratch);
        assert!(
            matches!(failed, Err(SimError::WakeNotInFuture { .. })),
            "shards={shards}"
        );
        let (reused, reused_seen) = listen(&g, &config, &[], &[], &mut scratch);
        let reused = reused.expect("clean run on the reused scratch");
        let label = format!("shards={shards}");
        assert_eq!(reused.stats, fresh.stats, "{label}");
        assert_eq!(reused.metrics, fresh.metrics, "{label}");
        assert_eq!(reused_seen, fresh_seen, "{label}");
    }
}
