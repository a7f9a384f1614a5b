//! Model-conformance integration tests: every registered algorithm obeys
//! the sleeping model (Section 1.1) under the validating executor, the
//! checker rejects cheats through the public API, and the determinism
//! fixes of this layer (`HashMap` → `BTreeMap` etc.) left execution
//! pinned bit-for-bit.

use proptest::prelude::*;

use sleeping_mst::graphlib::generators;
use sleeping_mst::mst_core::registry;
use sleeping_mst::mst_core::{ExecOptions, MstScratch, RunError};
use sleeping_mst::netsim::{
    audit, EnergyModel, Envelope, FaultPlan, ModelRule, NextWake, NodeCtx, Outbox, Protocol, Round,
    SimConfig, ValidatingExecutor,
};

proptest! {
    // Each case runs every algorithm twice (determinism re-run) with
    // tracing on; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: the validating executor accepts all registry algorithms
    /// on the random panel — no model rule fires, the per-message budget
    /// `C·⌈log₂ n⌉` holds, and every run is same-seed reproducible.
    #[test]
    fn every_algorithm_validates_on_random_panel(
        n in 4usize..24, p in 0.1f64..0.5, seed in 0u64..300, run_seed in 0u64..100
    ) {
        let g = generators::random_connected(n, p, seed).unwrap();
        for spec in registry::ALGORITHMS {
            let check = spec
                .check(&g, run_seed)
                .unwrap_or_else(|e| panic!("{} on n={n} seed={seed}: {e}", spec.name));
            prop_assert!(check.max_message_bits as usize <= check.bit_budget,
                "{}: {} > {}", spec.name, check.max_message_bits, check.bit_budget);
            prop_assert!(check.log_constant <= spec.congest_constant);
        }
    }
}

/// Cheating fixture (public API): a protocol whose payload blows the
/// CONGEST budget. The oversized-message rule must fire.
#[test]
fn oversized_message_cheat_is_rejected() {
    #[derive(Debug)]
    struct Bloated;
    impl Protocol for Bloated {
        type Msg = u64;
        fn init(&mut self, _: &NodeCtx) -> NextWake {
            NextWake::At(1)
        }
        fn send(&mut self, ctx: &NodeCtx, _: Round, outbox: &mut Outbox<u64>) {
            outbox.extend(ctx.ports().map(|p| Envelope::new(p, u64::MAX)));
        }
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }
    let g = generators::ring(8, 1).unwrap();
    let err = ValidatingExecutor::new(&g, SimConfig::default())
        .with_congest_constant(4) // 4·⌈log₂ 8⌉ = 12 bits; the payload is 64
        .run(|_| Bloated)
        .unwrap_err();
    assert!(err.breaks(ModelRule::OversizedMessage), "{err}");
}

/// Cheating fixture (public API): stats that disagree with the recorded
/// trace — the conservation rule must fire. (Send-while-asleep needs a
/// forged *trace*, which only `netsim`'s internal tests can build; see
/// `netsim::validate::tests::audit_rejects_send_while_asleep`.)
#[test]
fn cooked_stats_cheat_is_rejected() {
    use sleeping_mst::netsim::{flood::Flood, Simulator};
    let g = generators::ring(8, 1).unwrap();
    let out = Simulator::new(&g, SimConfig::default().with_trace())
        .run(|ctx| Flood::new(ctx.node.raw() == 0))
        .unwrap();
    let mut stats = out.stats.clone();
    stats.messages_delivered += 1;
    let violations = audit(&stats, &out.trace, None);
    assert!(violations.iter().any(|v| v.rule == ModelRule::Conservation));
}

/// Satellite: the `HashMap` → `BTreeMap` determinism fixes left execution
/// untouched. These fingerprints were recorded before the conversion;
/// any drift in rounds, awake totals, message counts, or message widths
/// means a run is no longer bit-stable.
#[test]
fn execution_fingerprints_are_pinned() {
    let g = generators::random_connected(16, 0.25, 11).unwrap();
    let golden: &[(&str, u64, u64, u64, u64, u64)] = &[
        // (name, rounds, awake_total, delivered, lost, max_message_bits)
        ("randomized", 2715, 1182, 2496, 0, 24),
        ("deterministic", 8389, 1133, 1886, 0, 29),
        ("logstar", 7995, 2232, 2948, 0, 24),
        ("prim", 2052, 883, 2844, 0, 24),
        ("spanning-tree", 2385, 1034, 2221, 0, 24),
        ("always-awake", 2715, 43373, 2496, 0, 24),
    ];
    for &(name, rounds, awake_total, delivered, lost, max_bits) in golden {
        let spec = registry::find(name).unwrap();
        let out = spec.run(&g, 7).unwrap();
        assert_eq!(out.stats.rounds, rounds, "{name} rounds");
        assert_eq!(out.stats.awake_total(), awake_total, "{name} awake");
        assert_eq!(out.stats.messages_delivered, delivered, "{name} delivered");
        assert_eq!(out.stats.messages_lost, lost, "{name} lost");
        assert_eq!(out.stats.max_message_bits, max_bits, "{name} max bits");
    }
}

/// Satellite (stats-vs-metrics audit): `RunStats::rounds` counts only
/// rounds in which some node actually ran — identical to what the
/// metrics stream reports. An injected crash can strand a stale
/// scheduled wake: the time driver still surfaces the round, but every
/// wake in it is suppressed, so the kernel skips it *before* counting —
/// no `RoundReport` exists for it and `rounds` does not advance. This
/// fixture pins that unified semantics (`stats.rounds ==
/// metrics.last_round()`, crashes included) across every driver, so the
/// old divergence class — a popped-but-empty final round inflating
/// `rounds` past the metrics stream — can never silently return.
#[test]
fn crashed_stale_wake_does_not_inflate_rounds_past_the_metrics_stream() {
    use sleeping_mst::netsim::{Executor, Simulator};

    /// Node 0 wakes once in round 1 and halts; every other node sleeps
    /// until round 9. Crashing node 1 at round 3 leaves its round-9 wake
    /// in the queue: the driver surfaces round 9 with every wake
    /// suppressed, and the kernel must discard it — `rounds` stays 1.
    #[derive(Debug)]
    struct StaleWake;
    impl Protocol for StaleWake {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeCtx) -> NextWake {
            if ctx.node.raw() == 0 {
                NextWake::At(1)
            } else {
                NextWake::At(9)
            }
        }
        fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<u64>) {}
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }

    let g = generators::path(2, 1).unwrap();
    for executor in [Executor::Calendar, Executor::Naive] {
        let config = SimConfig::default()
            .with_metrics()
            .with_faults(FaultPlan::seeded(1).with_crash(1, 3))
            .with_max_rounds(1_000)
            .with_executor(executor);
        let out = Simulator::new(&g, config).run(|_| StaleWake).unwrap();
        assert_eq!(out.stats.crashed_nodes, 1, "{executor:?}");
        assert_eq!(
            out.stats.rounds, 1,
            "{executor:?}: suppressed stale round must not count"
        );
        assert_eq!(
            out.metrics.last_round(),
            1,
            "{executor:?}: suppressed round must not be reported"
        );
        assert_eq!(out.metrics.active_rounds(), 1, "{executor:?}");
        assert_eq!(
            out.metrics.awake_rounds_by_node,
            vec![vec![1], vec![]],
            "{executor:?}"
        );
        assert_eq!(out.stats.rounds, out.metrics.last_round(), "{executor:?}");
    }
}

/// Satellite: energy-plane golden fingerprints. Each registry algorithm
/// runs under two energy configurations on the same panel graph as
/// `execution_fingerprints_are_pinned`:
///
/// * the unbudgeted reference model — the run completes and its full
///   ledger (total, per-node max, idle-listen rounds) is pinned;
/// * the reference model with a 5 000-unit per-node budget — far below
///   the ~100 awake rounds the cheapest algorithm needs, so every run
///   fails with a typed [`RunError::EnergyExhausted`], and the exhausted
///   `(node, round)` pair is pinned.
///
/// Charging happens inside the one kernel, so these fingerprints are
/// also what every other driver and shard count must produce (the
/// differential suites prove that identity; this test pins the values).
#[test]
fn energy_fingerprints_are_pinned() {
    fn fingerprint(
        spec: &registry::AlgorithmSpec,
        g: &sleeping_mst::graphlib::WeightedGraph,
        model: EnergyModel,
        scratch: &mut MstScratch,
    ) -> String {
        match spec.run_with_options(g, &ExecOptions::seeded(7).with_energy(model), scratch) {
            Ok(out) => format!(
                "ok energy={} max={} idle={} exhausted={}",
                out.stats.energy_total(),
                out.stats.energy_max(),
                out.stats.idle_listen_rounds,
                out.stats.exhausted_nodes
            ),
            Err(RunError::EnergyExhausted { node, round }) => {
                format!("err exhausted node={} round={}", node.raw(), round)
            }
            Err(other) => format!("err {other}"),
        }
    }

    let g = generators::random_connected(16, 0.25, 11).unwrap();
    let complete = EnergyModel::reference();
    let exhaust = EnergyModel::reference().with_budget(5_000);
    let golden: &[(&str, EnergyModel, &str)] = &[
        (
            "randomized",
            complete,
            "ok energy=1492108 max=127964 idle=446 exhausted=0",
        ),
        (
            "deterministic",
            complete,
            "ok energy=1388722 max=125010 idle=481 exhausted=0",
        ),
        (
            "logstar",
            complete,
            "ok energy=2619920 max=233594 idle=970 exhausted=0",
        ),
        (
            "prim",
            complete,
            "ok energy=1244384 max=116774 idle=194 exhausted=0",
        ),
        (
            "spanning-tree",
            complete,
            "ok energy=1296152 max=113978 idle=384 exhausted=0",
        ),
        (
            "always-awake",
            complete,
            "ok energy=45792658 max=2870778 idle=42637 exhausted=0",
        ),
        ("randomized", exhaust, "err exhausted node=0 round=149"),
        ("deterministic", exhaust, "err exhausted node=0 round=166"),
        ("logstar", exhaust, "err exhausted node=0 round=166"),
        ("prim", exhaust, "err exhausted node=0 round=149"),
        ("spanning-tree", exhaust, "err exhausted node=0 round=149"),
        ("always-awake", exhaust, "err exhausted node=0 round=5"),
    ];
    let mut scratch = MstScratch::new();
    for &(name, model, expected) in golden {
        let spec = registry::find(name).unwrap();
        let got = fingerprint(spec, &g, model, &mut scratch);
        assert_eq!(got, expected, "{name} under {}", model.spec_string());
    }
}

/// Satellite: fault-plane golden fingerprints. Each registry algorithm
/// runs under two light nonzero `FaultPlan`s (survivable — stats pinned,
/// fault counters nonzero) and one heavy plan (the typed failure class
/// pinned). Any drift means fault decisions are no longer the pure
/// function of `(fault_seed, tag, round, edge)` that the replay contract
/// promises (see `DESIGN.md`, "Fault plane").
#[test]
fn fault_fingerprints_are_pinned() {
    fn fingerprint(
        spec: &registry::AlgorithmSpec,
        g: &sleeping_mst::graphlib::WeightedGraph,
        plan: &FaultPlan,
        scratch: &mut MstScratch,
    ) -> String {
        let opts = ExecOptions::seeded(7).with_faults(plan.clone());
        match spec.run_with_options(g, &opts, scratch) {
            Ok(out) => format!(
                "ok edges={} rounds={} drops={} dups={}",
                out.edges.len(),
                out.stats.rounds,
                out.stats.injected_drops,
                out.stats.dup_deliveries
            ),
            Err(RunError::Sim(_)) => "err sim".to_string(),
            Err(RunError::Panicked { .. }) => "err panic".to_string(),
            Err(RunError::Degraded { .. }) => "err degraded".to_string(),
            Err(other) => format!("err {other}"),
        }
    }

    let g = generators::random_connected(12, 0.3, 5).unwrap();
    let light_drop = FaultPlan::seeded(0xfa17).with_drop_ppm(2_000);
    let light_dup = FaultPlan::seeded(0xfa17).with_duplicate_ppm(4_000);
    let heavy = FaultPlan::seeded(0xfa17)
        .with_drop_ppm(80_000)
        .with_duplicate_ppm(60_000);
    let golden: &[(&str, &FaultPlan, &str)] = &[
        (
            "randomized",
            &light_drop,
            "ok edges=11 rounds=1806 drops=2 dups=0",
        ),
        (
            "deterministic",
            &light_drop,
            "ok edges=11 rounds=3879 drops=3 dups=0",
        ),
        (
            "logstar",
            &light_drop,
            "ok edges=11 rounds=3429 drops=2 dups=0",
        ),
        (
            "prim",
            &light_drop,
            "ok edges=11 rounds=1157 drops=2 dups=0",
        ),
        (
            "spanning-tree",
            &light_drop,
            "ok edges=11 rounds=1555 drops=1 dups=0",
        ),
        (
            "always-awake",
            &light_drop,
            "ok edges=11 rounds=1806 drops=2 dups=0",
        ),
        (
            "randomized",
            &light_dup,
            "ok edges=11 rounds=1806 drops=0 dups=4",
        ),
        (
            "deterministic",
            &light_dup,
            "ok edges=11 rounds=3879 drops=0 dups=4",
        ),
        (
            "logstar",
            &light_dup,
            "ok edges=11 rounds=3429 drops=0 dups=6",
        ),
        ("prim", &light_dup, "ok edges=11 rounds=1157 drops=0 dups=4"),
        (
            "spanning-tree",
            &light_dup,
            "ok edges=11 rounds=1555 drops=0 dups=5",
        ),
        (
            "always-awake",
            &light_dup,
            "ok edges=11 rounds=1806 drops=0 dups=4",
        ),
        ("randomized", &heavy, "err sim"),
        ("deterministic", &heavy, "err panic"),
        ("logstar", &heavy, "err panic"),
        ("prim", &heavy, "err sim"),
        ("spanning-tree", &heavy, "err sim"),
        ("always-awake", &heavy, "err sim"),
    ];
    let mut scratch = MstScratch::new();
    for (name, plan, expected) in golden {
        let spec = registry::find(name).unwrap();
        let got = fingerprint(spec, &g, plan, &mut scratch);
        assert_eq!(&got, expected, "{name} under {plan:?}");
    }
}
