//! Metrics-conservation suite: the observability plane must *reconcile*,
//! not merely record. Every registry algorithm runs on random connected
//! graphs with per-round metrics on, and the [`netsim::Metrics`] stream
//! is checked against three independent witnesses:
//!
//! 1. the run's [`netsim::RunStats`] aggregates (per-round sums equal the
//!    totals, per-node awake timelines equal the awake counters, and the
//!    per-round conservation identity `sent + dups = delivered + lost +
//!    drops` holds);
//! 2. the same run under the naive `O(n)`-scan oracle driver (the full
//!    `Metrics` value must be bit-identical to the calendar driver's);
//! 3. the recorded [`netsim::Trace`] (event counts per round match the
//!    corresponding `RoundReport`).

use proptest::prelude::*;

use sleeping_mst::graphlib::{generators, WeightedGraph};
use sleeping_mst::mst_core::baseline::ghs_always_awake;
use sleeping_mst::mst_core::deterministic::{ColoringMode, DeterministicConfig, DeterministicMst};
use sleeping_mst::mst_core::prim::PrimMst;
use sleeping_mst::mst_core::randomized::{EdgeSelection, RandomizedConfig, RandomizedMst};
use sleeping_mst::mst_core::{registry, ExecOptions, MstScratch};
use sleeping_mst::netsim::{
    Executor, Metrics, Protocol, RunOutcome, RunStats, SimConfig, SimError, Simulator, Trace,
    TraceEvent,
};

/// Everything the reconciliation checks need from one run.
struct RunFacts {
    stats: RunStats,
    metrics: Metrics,
    trace: Trace,
}

fn unpack<P: Protocol>(r: Result<RunOutcome<P>, SimError>, name: &str) -> RunFacts {
    let out = r.unwrap_or_else(|e| panic!("{name}: {e}"));
    RunFacts {
        stats: out.stats,
        metrics: out.metrics,
        trace: out.trace,
    }
}

/// Runs registry algorithm `name` under the given time driver, using the
/// same protocol factories the registry runners use — one launch path,
/// parameterized only by [`SimConfig::with_executor`].
fn run_by_name(name: &str, g: &WeightedGraph, config: &SimConfig, executor: Executor) -> RunFacts {
    macro_rules! launch {
        ($factory:expr) => {
            unpack(
                Simulator::new(g, config.clone().with_executor(executor)).run($factory),
                name,
            )
        };
    }
    match name {
        "randomized" => launch!(RandomizedMst::new),
        "spanning-tree" => launch!(|ctx| RandomizedMst::with_config(
            ctx,
            RandomizedConfig {
                selection: EdgeSelection::MinPort,
                ..RandomizedConfig::default()
            }
        )),
        "deterministic" => {
            launch!(|ctx| DeterministicMst::with_config(ctx, DeterministicConfig::default()))
        }
        "logstar" => launch!(|ctx| DeterministicMst::with_config(
            ctx,
            DeterministicConfig {
                coloring: ColoringMode::ColeVishkin,
                ..DeterministicConfig::default()
            }
        )),
        "prim" => launch!(|ctx| PrimMst::new(ctx, 1)),
        "always-awake" => launch!(ghs_always_awake),
        other => panic!("no factory for `{other}`"),
    }
}

/// The stats-side reconciliation: every aggregate in `RunStats` that the
/// metrics stream also observes must be derivable from the stream.
fn reconcile_with_stats(name: &str, stats: &RunStats, metrics: &Metrics) {
    // Round indices are strictly increasing and only active rounds are
    // recorded (a report with zero awake nodes cannot exist).
    for pair in metrics.per_round.windows(2) {
        assert!(
            pair[0].round < pair[1].round,
            "{name}: rounds not increasing"
        );
    }
    for r in &metrics.per_round {
        assert!(r.awake > 0, "{name}: empty round {} recorded", r.round);
        assert_eq!(
            r.messages_sent + r.dup_deliveries,
            r.messages_delivered + r.messages_lost + r.injected_drops,
            "{name}: conservation identity fails in round {}",
            r.round
        );
    }

    // Per-round sums equal the run totals.
    let sum = |f: fn(&sleeping_mst::netsim::RoundReport) -> u64| -> u64 {
        metrics.per_round.iter().map(f).sum()
    };
    assert_eq!(
        sum(|r| r.messages_delivered),
        stats.messages_delivered,
        "{name}"
    );
    assert_eq!(sum(|r| r.messages_lost), stats.messages_lost, "{name}");
    assert_eq!(sum(|r| r.injected_drops), stats.injected_drops, "{name}");
    assert_eq!(sum(|r| r.dup_deliveries), stats.dup_deliveries, "{name}");
    assert_eq!(
        sum(|r| r.awake),
        stats.awake_by_node.iter().sum::<u64>(),
        "{name}: awake node-rounds"
    );
    assert_eq!(
        sum(|r| r.bits_sent),
        stats.bits_by_edge.iter().sum::<u64>(),
        "{name}: bits sent vs bits_by_edge"
    );

    // Per-node timelines reproduce the awake counters exactly, and the
    // timeline-derived awake complexity is the paper's measure.
    assert_eq!(
        metrics.awake_rounds_by_node.len(),
        stats.awake_by_node.len(),
        "{name}"
    );
    for (v, timeline) in metrics.awake_rounds_by_node.iter().enumerate() {
        assert_eq!(
            timeline.len() as u64,
            stats.awake_by_node[v],
            "{name}: node {v} timeline"
        );
        assert!(
            timeline.windows(2).all(|w| w[0] < w[1]),
            "{name}: node {v} timeline not sorted"
        );
    }
    assert_eq!(metrics.awake_complexity(), stats.awake_max(), "{name}");

    // The stream covers the whole run unconditionally: `stats.rounds`
    // counts only rounds where some node ran, so even a crash-stranded
    // stale wake (see the pinned case in `model_conformance.rs`) cannot
    // push it past the last recorded round.
    assert_eq!(metrics.last_round(), stats.rounds, "{name}: last round");

    // Per-round max edge congestion is bounded by that round's traffic
    // and at least as large as any single message.
    for r in &metrics.per_round {
        assert!(r.max_edge_bits <= r.bits_sent, "{name}");
        if r.messages_sent > 0 {
            assert!(r.max_edge_bits > 0, "{name}: sends but no congestion");
        }
    }
}

/// The trace-side reconciliation: per-round event counts match the
/// corresponding `RoundReport` field for field.
fn reconcile_with_trace(name: &str, metrics: &Metrics, trace: &Trace) {
    for r in &metrics.per_round {
        let mut awake = 0u64;
        let mut delivered = 0u64;
        let mut lost = 0u64;
        let mut dropped = 0u64;
        let mut delivered_bits = 0u64;
        for e in trace.in_round(r.round) {
            match e {
                TraceEvent::Awake { .. } => awake += 1,
                TraceEvent::Delivered { bits, .. } => {
                    delivered += 1;
                    delivered_bits += *bits as u64;
                }
                TraceEvent::Lost { .. } => lost += 1,
                TraceEvent::Dropped { .. } => dropped += 1,
                TraceEvent::Halted { .. } | TraceEvent::Crashed { .. } => {}
            }
        }
        assert_eq!(awake, r.awake, "{name}: trace awake in round {}", r.round);
        assert_eq!(delivered, r.messages_delivered, "{name}: round {}", r.round);
        assert_eq!(lost, r.messages_lost, "{name}: round {}", r.round);
        assert_eq!(dropped, r.injected_drops, "{name}: round {}", r.round);
        // Lost messages still consume sender bits, so the delivered-only
        // trace total can only bound the metric from below.
        assert!(
            delivered_bits <= r.bits_sent,
            "{name}: round {} delivered bits {} > sent bits {}",
            r.round,
            delivered_bits,
            r.bits_sent
        );
    }
    // Every awake event belongs to a recorded round: total counts match.
    let trace_awake = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Awake { .. }))
        .count() as u64;
    assert_eq!(trace_awake, metrics.awake_total(), "{name}: total awake");
}

proptest! {
    // Each case runs all six algorithms under both time drivers
    // with full tracing; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: on a random connected panel, every algorithm's metrics
    /// stream reconciles with its stats, with its trace, and — bit for
    /// bit — across both time drivers.
    #[test]
    fn metrics_reconcile_across_stats_trace_and_executors(
        n in 4usize..18, p in 0.1f64..0.5, seed in 0u64..200, run_seed in 0u64..100
    ) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let config = SimConfig::default()
            .with_seed(run_seed)
            .with_metrics()
            .with_trace();
        for spec in registry::ALGORITHMS {
            let calendar = run_by_name(spec.name, &g, &config, Executor::Calendar);
            reconcile_with_stats(spec.name, &calendar.stats, &calendar.metrics);
            reconcile_with_trace(spec.name, &calendar.metrics, &calendar.trace);

            let naive = run_by_name(spec.name, &g, &config, Executor::Naive);
            reconcile_with_stats(spec.name, &naive.stats, &naive.metrics);
            reconcile_with_trace(spec.name, &naive.metrics, &naive.trace);

            prop_assert!(calendar.metrics == naive.metrics,
                "{}: naive disagrees on metrics", spec.name);
            prop_assert!(calendar.stats == naive.stats,
                "{}: naive disagrees on stats", spec.name);
        }
    }
}

/// Satellite: the registry path (`ExecOptions::with_metrics`) carries the
/// same stream the raw simulator records, and the phase-span partition is
/// exact — spans tile the active rounds without gaps or overlaps, and
/// span totals re-add to the global totals.
#[test]
fn registry_metrics_and_phase_spans_partition_the_run() {
    let g = generators::random_connected(14, 0.3, 9).unwrap();
    let mut scratch = MstScratch::new();
    for spec in registry::ALGORITHMS {
        let out = spec
            .run_with_options(&g, &ExecOptions::seeded(5).with_metrics(), &mut scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        reconcile_with_stats(spec.name, &out.stats, &out.metrics);

        let spans = spec.phase_spans(&g, &out.metrics);
        assert!(!spans.is_empty(), "{}", spec.name);
        assert_eq!(
            spans.iter().map(|s| s.active_rounds).sum::<u64>(),
            out.metrics.active_rounds() as u64,
            "{}: spans must tile the active rounds",
            spec.name
        );
        assert_eq!(
            spans.iter().map(|s| s.awake_node_rounds).sum::<u64>(),
            out.metrics.awake_total(),
            "{}",
            spec.name
        );
        assert_eq!(
            spans.iter().map(|s| s.messages_sent).sum::<u64>(),
            out.metrics.messages_sent(),
            "{}",
            spec.name
        );
        assert_eq!(
            spans.iter().map(|s| s.bits_sent).sum::<u64>(),
            out.metrics.bits_sent(),
            "{}",
            spec.name
        );
        for pair in spans.windows(2) {
            assert!(
                pair[0].last_round < pair[1].first_round,
                "{}: spans overlap",
                spec.name
            );
        }
        assert!(
            spans.iter().all(|s| s.label != "out-of-schedule"),
            "{}: a round fell outside the phase schedule: {:?}",
            spec.name,
            spans.iter().map(|s| s.label).collect::<Vec<_>>()
        );

        let totals = spec.phase_totals(&g, &out.metrics);
        assert_eq!(
            totals.iter().map(|t| t.awake_node_rounds).sum::<u64>(),
            out.metrics.awake_total(),
            "{}",
            spec.name
        );
    }
}

/// Satellite (off-switch equivalence): recording metrics must not perturb
/// execution. On the fingerprint-pinned graph of
/// `tests/model_conformance.rs`, every algorithm produces identical stats
/// and identical edge sets with metrics on and off — so the pinned
/// fingerprints hold on both sides of the switch — and the off side
/// leaves the outcome's metrics empty.
#[test]
fn metrics_switch_does_not_perturb_execution() {
    let g = generators::random_connected(16, 0.25, 11).unwrap();
    let mut scratch = MstScratch::new();
    for spec in registry::ALGORITHMS {
        let off = spec
            .run_with_options(&g, &ExecOptions::seeded(7), &mut scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let on = spec
            .run_with_options(&g, &ExecOptions::seeded(7).with_metrics(), &mut scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(
            off.metrics.is_empty(),
            "{}: off-switch leaked metrics",
            spec.name
        );
        assert_eq!(off.stats, on.stats, "{}: stats drifted", spec.name);
        assert_eq!(off.edges, on.edges, "{}: edges drifted", spec.name);
        assert!(!on.metrics.is_empty(), "{}", spec.name);
    }
}

/// Satellite: under injected faults the conservation identity still holds
/// per round — injected drops and duplicate deliveries are visible in the
/// stream and reconcile with the run totals.
#[test]
fn metrics_reconcile_under_injected_faults() {
    use sleeping_mst::netsim::FaultPlan;
    let g = generators::random_connected(12, 0.3, 5).unwrap();
    let mut scratch = MstScratch::new();
    let plan = FaultPlan::seeded(0xfa17)
        .with_drop_ppm(2_000)
        .with_duplicate_ppm(4_000);
    for spec in registry::ALGORITHMS {
        let out = spec
            .run_with_options(
                &g,
                &ExecOptions::seeded(7)
                    .with_metrics()
                    .with_faults(plan.clone()),
                &mut scratch,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        reconcile_with_stats(spec.name, &out.stats, &out.metrics);
        assert!(
            out.stats.injected_drops + out.stats.dup_deliveries > 0,
            "{}: plan injected nothing — weak test",
            spec.name
        );
    }
}
