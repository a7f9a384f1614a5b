//! Property-based integration tests: the distributed algorithms agree
//! with the sequential references on arbitrary random inputs.

use proptest::prelude::*;

use sleeping_mst::graphlib::{generators, mst, WeightedGraph};
use sleeping_mst::mst_core::{registry, MstOutcome, RunError};

/// Runs the registry algorithm `name` on `graph` with `seed`.
fn run(name: &str, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    registry::find(name)
        .expect("registered algorithm")
        .run(graph, seed)
}

proptest! {
    // Each case simulates a full distributed run; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_equals_kruskal(n in 2usize..28, p in 0.0f64..0.4, seed in 0u64..500, run_seed in 0u64..1000) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let out = run("randomized", &g, run_seed).unwrap();
        prop_assert_eq!(out.edges, mst::kruskal(&g).edges);
    }

    #[test]
    fn deterministic_equals_kruskal(n in 2usize..18, p in 0.0f64..0.4, seed in 0u64..500) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let out = run("deterministic", &g, 0).unwrap();
        prop_assert_eq!(out.edges, mst::kruskal(&g).edges);
    }

    #[test]
    fn awake_complexity_never_explodes(n in 4usize..40, seed in 0u64..200) {
        let g = generators::random_connected(n, 0.15, seed).unwrap();
        let out = run("randomized", &g, seed).unwrap();
        // Extremely generous: c·log2(n) with c = 100. Catching runaway
        // awake time, not proving the constant.
        let bound = 100.0 * (n as f64).log2();
        prop_assert!((out.stats.awake_max() as f64) < bound,
            "awake {} at n={n}", out.stats.awake_max());
        prop_assert_eq!(out.stats.messages_lost, 0);
    }
}
