//! Energy-conservation suite (satellite 1 of the energy plane): the
//! per-node ledger must *reconcile*, not merely accumulate. Every
//! registry algorithm runs on random connected graphs under a priced
//! [`netsim::EnergyModel`], and the ledger is checked against three
//! independent witnesses:
//!
//! 1. the run's other [`netsim::RunStats`] aggregates — the conservation
//!    identity `sum(energy_spent_by_node) == awake_total·round_cost +
//!    bits_sent·tx_bit_cost + bits_received·rx_bit_cost +
//!    idle_listen_rounds·idle_cost` holds exactly (integer arithmetic,
//!    no floats anywhere in the ledger);
//! 2. the metrics timeline — per-round `energy_spent` re-adds to the
//!    ledger total;
//! 3. the same run under the naive oracle driver and under sharded
//!    sends (the full ledger vector must be bit-identical).
//!
//! The suite also pins inert-gating: a zero-cost model (budget or not)
//! takes the exact no-energy kernel path and is bit-identical to no
//! model at all, mirroring the inert-`FaultPlan` contract.

use proptest::prelude::*;

use sleeping_mst::graphlib::generators;
use sleeping_mst::mst_core::{registry, ExecOptions, MstScratch};
use sleeping_mst::netsim::{EnergyModel, Executor, RunStats};

/// The conservation identity, checked against the stats-side witnesses.
fn assert_conserved(name: &str, model: &EnergyModel, stats: &RunStats) {
    let awake_total: u64 = stats.awake_by_node.iter().sum();
    let bits_sent: u64 = stats.bits_by_edge.iter().sum();
    let bits_received: u64 = stats.bits_received_by_node.iter().sum();
    let expected = awake_total * model.round_cost
        + bits_sent * model.tx_bit_cost
        + bits_received * model.rx_bit_cost
        + stats.idle_listen_rounds * model.idle_cost;
    assert_eq!(
        stats.energy_total(),
        expected,
        "{name}: ledger does not reconcile (awake={awake_total} sent={bits_sent} \
         recv={bits_received} idle={})",
        stats.idle_listen_rounds
    );
    assert!(
        stats.energy_max() <= stats.energy_total(),
        "{name}: max exceeds total"
    );
}

proptest! {
    // Each case runs all six algorithms under both drivers and a shard
    // sweep; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a random connected panel, every algorithm's energy ledger
    /// reconciles with its stats and its metrics timeline, and is
    /// bit-identical across {calendar, naive} × {shards 1, 2, 4}.
    #[test]
    fn ledgers_conserve_and_agree_across_drivers_and_shards(
        n in 4usize..16, p in 0.1f64..0.5, seed in 0u64..200, run_seed in 0u64..100
    ) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let model = EnergyModel::reference();
        let mut scratch = MstScratch::new();
        for spec in registry::ALGORITHMS {
            let base = ExecOptions::seeded(run_seed)
                .with_energy(model)
                .with_metrics();
            let reference = spec
                .run_with_options(&g, &base, &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_conserved(spec.name, &model, &reference.stats);

            // Witness 2: the metrics timeline re-adds to the ledger.
            let timeline: u64 = reference
                .metrics
                .per_round
                .iter()
                .map(|r| r.energy_spent)
                .sum();
            prop_assert_eq!(timeline, reference.stats.energy_total(),
                "{}: timeline does not re-add", spec.name);
            prop_assert_eq!(reference.metrics.energy_spent(),
                reference.stats.energy_total(), "{}", spec.name);

            // Witness 3: bit-identical ledgers on every driver and shard
            // count (charging happens inside the one kernel).
            let naive = spec
                .run_with_options(&g, &base.clone().with_executor(Executor::Naive), &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            prop_assert_eq!(&reference.stats, &naive.stats,
                "{}: naive ledger diverged", spec.name);
            prop_assert_eq!(&reference.metrics, &naive.metrics,
                "{}: naive timeline diverged", spec.name);
            for shards in [2u32, 4] {
                let other = spec
                    .run_with_options(&g, &base.clone().with_shards(shards), &mut scratch)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                prop_assert_eq!(&reference.stats, &other.stats,
                    "{}: shards={shards} ledger diverged", spec.name);
            }
        }
    }

    /// Inert gating: a zero-cost model — with or without a budget — is
    /// bit-identical to running with no model at all, exactly like an
    /// inert fault plan takes the no-fault path.
    #[test]
    fn zero_cost_models_are_bit_identical_to_no_model(
        n in 4usize..14, seed in 0u64..100
    ) {
        let g = generators::random_connected(n, 0.3, seed).unwrap();
        let mut scratch = MstScratch::new();
        for spec in registry::ALGORITHMS {
            let plain = spec
                .run_with_options(&g, &ExecOptions::seeded(seed), &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            for inert in [
                EnergyModel::default(),
                // A budget over zero costs can never be spent: inert too.
                EnergyModel::default().with_budget(1),
            ] {
                let gated = spec
                    .run_with_options(
                        &g,
                        &ExecOptions::seeded(seed).with_energy(inert),
                        &mut scratch,
                    )
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                prop_assert_eq!(&plain.stats, &gated.stats,
                    "{}: inert model perturbed the run", spec.name);
                prop_assert_eq!(&plain.edges, &gated.edges, "{}", spec.name);
                prop_assert_eq!(gated.stats.energy_total(), 0, "{}", spec.name);
            }
        }
    }
}

/// Custom cost mixes reconcile too — each cost axis alone isolates one
/// term of the identity, so a bug in any single charging site fails the
/// axis that exercises it.
#[test]
fn each_cost_axis_reconciles_in_isolation() {
    let g = generators::random_connected(12, 0.3, 7).unwrap();
    let mut scratch = MstScratch::new();
    let axes = [
        EnergyModel::default().with_round_cost(3),
        EnergyModel::default().with_tx_bit_cost(2),
        EnergyModel::default().with_rx_bit_cost(5),
        EnergyModel::default().with_idle_cost(11),
        EnergyModel::reference(),
    ];
    for spec in registry::ALGORITHMS {
        for model in axes {
            let out = spec
                .run_with_options(&g, &ExecOptions::seeded(9).with_energy(model), &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_conserved(spec.name, &model, &out.stats);
            assert!(
                out.stats.energy_total() > 0,
                "{}: {} charged nothing — weak axis",
                spec.name,
                model.spec_string()
            );
        }
    }
}

/// `idle_listen_rounds` is counted whether or not a model is active, so
/// the no-model run already carries the idle witness the priced run will
/// be charged by — the counter itself must not depend on pricing.
#[test]
fn idle_listen_counter_is_model_independent() {
    let g = generators::random_connected(10, 0.3, 3).unwrap();
    let mut scratch = MstScratch::new();
    for spec in registry::ALGORITHMS {
        let plain = spec
            .run_with_options(&g, &ExecOptions::seeded(4), &mut scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let priced = spec
            .run_with_options(
                &g,
                &ExecOptions::seeded(4).with_energy(EnergyModel::reference()),
                &mut scratch,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            plain.stats.idle_listen_rounds, priced.stats.idle_listen_rounds,
            "{}: idle counter depends on pricing",
            spec.name
        );
    }
}
