//! Engine-level semantics of the fault plane: each fault kind observed
//! in isolation through a tiny deterministic protocol, plus the
//! pay-for-what-you-use guarantee (inert plan ≡ no plan).

use graphlib::generators;
use netsim::{
    Envelope, FaultPlan, NextWake, NodeCtx, Outbox, Protocol, Round, SimConfig, SimError,
    Simulator, TraceEvent,
};

/// Every node wakes in `my_round`, sends a unit message on every port,
/// counts what it receives, and halts.
#[derive(Debug)]
struct OneShot {
    my_round: Round,
    received: usize,
}

impl Protocol for OneShot {
    type Msg = ();

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(self.my_round)
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<()>) {
        outbox.extend(ctx.ports().map(|p| Envelope::new(p, ())));
    }

    fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, inbox: &[Envelope<()>]) -> NextWake {
        self.received += inbox.len();
        NextWake::Halt
    }
}

fn lockstep(round: Round) -> impl Fn(&NodeCtx) -> OneShot {
    move |_| OneShot {
        my_round: round,
        received: 0,
    }
}

#[test]
fn full_drop_plan_destroys_every_message() {
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(1).with_drop_ppm(netsim::faults::PPM_SCALE);
    let out = Simulator::new(&g, SimConfig::default().with_trace().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    // All 12 transmissions are destroyed in flight: none delivered, none
    // lost to sleep (everyone was awake), all accounted as injected.
    assert_eq!(out.stats.messages_delivered, 0);
    assert_eq!(out.stats.messages_lost, 0);
    assert_eq!(out.stats.injected_drops, 12);
    assert!(out.states.iter().all(|s| s.received == 0));
    // The sender still paid for the transmission.
    assert!(out.stats.bits_by_edge.iter().all(|&b| b == 2));
    let dropped = out
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Dropped { .. }))
        .count();
    assert_eq!(dropped, 12);
}

#[test]
fn full_duplicate_plan_doubles_every_delivery() {
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(1).with_duplicate_ppm(netsim::faults::PPM_SCALE);
    let out = Simulator::new(&g, SimConfig::default().with_trace().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    assert_eq!(out.stats.messages_delivered, 24);
    assert_eq!(out.stats.dup_deliveries, 12);
    assert_eq!(out.stats.messages_lost, 0);
    // Every node sees both copies of both neighbor messages.
    assert!(out.states.iter().all(|s| s.received == 4));
    assert_eq!(out.trace.deliveries().count(), 24);
}

#[test]
fn crash_plan_halts_the_node_before_it_acts() {
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(0).with_crash(2, 5);
    let out = Simulator::new(&g, SimConfig::default().with_trace().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    // Node 2 crashes at its first wake (round 7 ≥ crash round 5): it
    // never sends, and its neighbors' messages to it are model losses.
    assert_eq!(out.stats.crashed_nodes, 1);
    assert_eq!(out.stats.awake_by_node[2], 0);
    assert_eq!(out.stats.messages_delivered, 8);
    assert_eq!(out.stats.messages_lost, 2);
    assert_eq!(out.states[2].received, 0);
    assert!(out
        .trace
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Crashed { round: 7, node } if node.raw() == 2)));
    // A crash round in the future leaves the node untouched.
    let plan = FaultPlan::seeded(0).with_crash(2, 100);
    let out = Simulator::new(&g, SimConfig::default().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    assert_eq!(out.stats.crashed_nodes, 0);
    assert_eq!(out.stats.messages_delivered, 12);
}

#[test]
fn permanent_spurious_sleep_hits_the_round_budget() {
    let g = generators::ring(4, 0).unwrap();
    let plan = FaultPlan::seeded(3).with_spurious_sleep_ppm(netsim::faults::PPM_SCALE);
    let err = Simulator::new(
        &g,
        SimConfig::default().with_max_rounds(64).with_faults(plan),
    )
    .run(lockstep(1))
    .unwrap_err();
    // Every wake suppressed forever: the nodes can never act, and the
    // run is cut off by the (typed) round budget, not a hang.
    assert!(matches!(err, SimError::MaxRoundsExceeded { .. }));
}

#[test]
fn moderate_spurious_sleep_delays_but_preserves_liveness() {
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(9).with_spurious_sleep_ppm(400_000);
    let out = Simulator::new(&g, SimConfig::default().with_faults(plan.clone()))
        .run(lockstep(3))
        .unwrap();
    // Everyone eventually woke exactly once and halted.
    assert!(out.stats.awake_by_node.iter().all(|&a| a == 1));
    assert!(out.stats.rounds >= 3);
    // Determinism: the same plan replays bit-identically.
    let again = Simulator::new(&g, SimConfig::default().with_faults(plan))
        .run(lockstep(3))
        .unwrap();
    assert_eq!(out.stats, again.stats);
}

#[test]
fn wake_jitter_slips_schedules_deterministically() {
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(4).with_wake_jitter(5);
    let base = Simulator::new(&g, SimConfig::default())
        .run(lockstep(7))
        .unwrap();
    let jittered = Simulator::new(&g, SimConfig::default().with_faults(plan.clone()))
        .run(lockstep(7))
        .unwrap();
    assert!(jittered.stats.rounds >= base.stats.rounds);
    // Slipped schedules misalign the lockstep: some messages get lost.
    assert!(jittered.stats.messages_delivered < base.stats.messages_delivered);
    let again = Simulator::new(&g, SimConfig::default().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    assert_eq!(jittered.stats, again.stats);
}

#[test]
fn inert_plan_is_bit_identical_to_no_plan() {
    let g = generators::random_connected(12, 0.3, 5).unwrap();
    let bare = Simulator::new(&g, SimConfig::default().with_trace())
        .run(lockstep(4))
        .unwrap();
    // A zero-intensity plan — even with a wild seed — changes nothing.
    let inert = Simulator::new(
        &g,
        SimConfig::default()
            .with_trace()
            .with_faults(FaultPlan::seeded(0xdead_beef)),
    )
    .run(lockstep(4))
    .unwrap();
    assert_eq!(bare.stats, inert.stats);
    assert_eq!(bare.trace, inert.trace);
    assert_eq!(inert.stats.injected_drops, 0);
    assert_eq!(inert.stats.dup_deliveries, 0);
    assert_eq!(inert.stats.crashed_nodes, 0);
}

#[test]
fn audit_reconciles_faulted_runs() {
    use netsim::audit;
    let g = generators::complete(6, 2).unwrap();
    let plan = FaultPlan::seeded(8)
        .with_drop_ppm(300_000)
        .with_duplicate_ppm(300_000)
        .with_crash(1, 4);
    let out = Simulator::new(&g, SimConfig::default().with_trace().with_faults(plan))
        .run(lockstep(4))
        .unwrap();
    assert!(out.stats.injected_drops > 0, "drop stream never fired");
    assert!(out.stats.dup_deliveries > 0, "duplicate stream never fired");
    assert_eq!(out.stats.crashed_nodes, 1);
    // The model audit accounts for every injected fault: dropped
    // messages are not losses, duplicate copies are deliveries, the
    // crashed node is asleep — no violation anywhere.
    assert_eq!(audit(&out.stats, &out.trace, Some(64)), Vec::new());
}

#[test]
fn audit_catches_forged_drop_counts() {
    use netsim::{audit, ModelRule};
    let g = generators::ring(6, 0).unwrap();
    let plan = FaultPlan::seeded(1).with_drop_ppm(netsim::faults::PPM_SCALE);
    let out = Simulator::new(&g, SimConfig::default().with_trace().with_faults(plan))
        .run(lockstep(7))
        .unwrap();
    let mut stats = out.stats.clone();
    stats.injected_drops -= 1; // cook the books
    let violations = audit(&stats, &out.trace, None);
    assert!(
        violations.iter().any(|v| v.rule == ModelRule::Conservation),
        "{violations:?}"
    );
}
