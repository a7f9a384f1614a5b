//! Fault-plane integration tests (see `DESIGN.md`, "Fault plane").
//!
//! Three contracts are pinned here:
//!
//! 1. **Inert plans are free**: a `FaultPlan` with every intensity at
//!    zero is bit-identical to running with no plan at all, for every
//!    registry algorithm (the plan gate routes inert plans through the
//!    exact fault-free path).
//! 2. **Drops never corrupt**: under arbitrary message-drop-only plans,
//!    every algorithm either produces its exact reference output or
//!    fails with a typed [`RunError`] inside the round-budget watchdog —
//!    never a wrong tree, never a hang.
//! 3. **Crashing a leader cannot hang the run**: killing the node every
//!    fragment converges on (the Prim coordinator, node 0) surfaces as a
//!    typed error, bounded by the watchdog.

use proptest::prelude::*;

use bench::chaos::{run_chaos, ChaosSpec};
use sleeping_mst::graphlib::{generators, mst, UnionFind, WeightedGraph};
use sleeping_mst::mst_core::registry::ALGORITHMS;
use sleeping_mst::mst_core::{ExecOptions, MstScratch, RunError};
use sleeping_mst::netsim::faults::{FaultPlan, PPM_SCALE};

/// `true` if `edges` is a spanning forest of `graph` (acyclic, one tree
/// per connected component).
fn is_spanning_forest(graph: &WeightedGraph, edges: &[graphlib::EdgeId]) -> bool {
    let n = graph.node_count();
    let mut uf = UnionFind::new(n);
    for &e in edges {
        let edge = graph.edge(e);
        if !uf.union(edge.u.index(), edge.v.index()) {
            return false;
        }
    }
    let mut components = UnionFind::new(n);
    for e in graph.edges() {
        components.union(e.u.index(), e.v.index());
    }
    uf.set_count() == components.set_count()
}

proptest! {
    // Every case runs all six algorithms through full simulations.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite contract 1: zero-intensity plans are bit-identical to no
    // plan. `FaultPlan::seeded(s)` has every intensity at zero no matter
    // the seed, so the fingerprint (edges, stats, phases) must match the
    // plain seeded path exactly.
    #[test]
    fn inert_plan_is_fingerprint_identical_for_every_algorithm(
        n in 3usize..14,
        p in 0.0f64..0.5,
        graph_seed in 0u64..500,
        run_seed in 0u64..1000,
        fault_seed in any::<u64>(),
    ) {
        let g = generators::random_connected(n, p, graph_seed).unwrap();
        let plan = FaultPlan::seeded(fault_seed);
        prop_assert!(plan.is_inert());
        let mut scratch = MstScratch::new();
        for spec in ALGORITHMS {
            let bare = spec.run_with_options(&g, &ExecOptions::seeded(run_seed), &mut scratch);
            let opts = ExecOptions::seeded(run_seed).with_faults(plan.clone());
            let faulted = spec.run_with_options(&g, &opts, &mut scratch);
            match (bare, faulted) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.edges, &b.edges, "{}: edges diverge", spec.name);
                    prop_assert_eq!(&a.stats, &b.stats, "{}: stats diverge", spec.name);
                    prop_assert_eq!(a.phases, b.phases, "{}: phases diverge", spec.name);
                }
                (a, b) => prop_assert!(
                    false,
                    "{}: fault-free runs must succeed: bare={a:?} faulted={b:?}",
                    spec.name
                ),
            }
        }
    }

    // Satellite contract 2: message-drop-only plans can only delay or
    // break a run, never corrupt it. Success means the exact reference
    // output (Kruskal MST for `produces_mst` algorithms, a spanning
    // forest for the rest); everything else must be a typed error. The
    // watchdog bounds every run, so the test terminating at all is the
    // no-hang half of the claim.
    #[test]
    fn drop_only_plans_yield_reference_output_or_typed_error(
        n in 3usize..12,
        p in 0.0f64..0.5,
        graph_seed in 0u64..500,
        run_seed in 0u64..1000,
        fault_seed in any::<u64>(),
        drop_ppm in 0u32..=PPM_SCALE,
    ) {
        let g = generators::random_connected(n, p, graph_seed).unwrap();
        let plan = FaultPlan::seeded(fault_seed).with_drop_ppm(drop_ppm);
        let reference = mst::kruskal(&g).edges;
        let mut scratch = MstScratch::new();
        for spec in ALGORITHMS {
            let opts = ExecOptions::seeded(run_seed).with_faults(plan.clone());
            match spec.run_with_options(&g, &opts, &mut scratch) {
                Ok(out) if spec.produces_mst => prop_assert_eq!(
                    &out.edges,
                    &reference,
                    "{}: completed with a non-minimum tree under drops",
                    spec.name
                ),
                Ok(out) => prop_assert!(
                    is_spanning_forest(&g, &out.edges),
                    "{}: completed with a non-spanning output under drops",
                    spec.name
                ),
                // Any RunError variant is an acceptable typed failure —
                // the match being exhaustive over Result is the point.
                Err(_typed) => {}
            }
        }
    }
}

// Satellite contract 3 (latent-hang audit): every registry algorithm's
// round loop runs through the simulator, so crashing the node the
// protocol coordinates through (node 0 — Prim's leader, the
// deterministic algorithm's fragment anchor) must end in a typed error
// or a still-correct output, within the watchdog budget.
#[test]
fn crashing_the_fragment_leader_never_hangs() {
    let g = generators::random_connected(10, 0.4, 7).unwrap();
    let reference = mst::kruskal(&g).edges;
    let mut scratch = MstScratch::new();
    for round in [1, 3, 9] {
        let plan = FaultPlan::seeded(0xc0ffee).with_crash(0, round);
        for spec in ALGORITHMS {
            let opts = ExecOptions::seeded(11).with_faults(plan.clone());
            match spec.run_with_options(&g, &opts, &mut scratch) {
                Ok(out) if spec.produces_mst => assert_eq!(
                    out.edges, reference,
                    "{} at crash round {round}: wrong tree",
                    spec.name
                ),
                Ok(out) => assert!(
                    is_spanning_forest(&g, &out.edges),
                    "{} at crash round {round}: non-spanning output",
                    spec.name
                ),
                Err(
                    RunError::Sim(_)
                    | RunError::Collect(_)
                    | RunError::Panicked { .. }
                    | RunError::Degraded { .. },
                ) => {}
                Err(other) => panic!(
                    "{} at crash round {round}: unexpected error class {other:?}",
                    spec.name
                ),
            }
        }
    }
}

// The chaos harness itself is a pure function of its spec: two runs at
// the same seed must serialize to byte-identical JSON (the replay
// contract the CLI's `chaos --json` output and the CI artifact rest on).
#[test]
fn chaos_report_is_byte_deterministic() {
    let spec = ChaosSpec {
        seed: 42,
        sizes: vec![6],
        trials: 1,
        ..ChaosSpec::default()
    };
    let first = run_chaos(&spec);
    let second = run_chaos(&spec);
    assert_eq!(first.to_json(), second.to_json());
    assert!(
        first.wrong_outputs().is_empty(),
        "chaos run produced wrong outputs: {:?}",
        first.wrong_outputs()
    );
}
