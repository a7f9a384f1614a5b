//! Cross-crate integration tests: both sleeping algorithms and the
//! always-awake baseline against the sequential references, on the full
//! zoo of graph families.

use sleeping_mst::graphlib::{generators, mst, GraphBuilder, UnionFind, WeightedGraph};
use sleeping_mst::mst_core::{registry, MstOutcome, RunError};
use sleeping_mst::netsim::{SimConfig, Simulator};

/// Runs the registry algorithm `name` on `graph` with `seed`.
fn run(name: &str, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    registry::find(name)
        .expect("registered algorithm")
        .run(graph, seed)
}

fn zoo() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        ("ring16", generators::ring(16, 1).unwrap()),
        ("ring33", generators::ring(33, 2).unwrap()),
        ("path20", generators::path(20, 3).unwrap()),
        ("star12", generators::star(12, 4).unwrap()),
        ("grid4x5", generators::grid(4, 5, 5).unwrap()),
        ("complete9", generators::complete(9, 6).unwrap()),
        (
            "sparse24",
            generators::random_connected(24, 0.1, 7).unwrap(),
        ),
        ("dense16", generators::random_connected(16, 0.6, 8).unwrap()),
        ("tree30", generators::random_connected(30, 0.0, 9).unwrap()),
        (
            "two_nodes",
            GraphBuilder::new(2).edge(0, 1, 42).build().unwrap(),
        ),
        ("bintree15", generators::binary_tree(15, 10).unwrap()),
        ("caterpillar", generators::caterpillar(6, 2, 11).unwrap()),
        ("barbell", generators::barbell(5, 3, 12).unwrap()),
    ]
}

#[test]
fn randomized_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo() {
        let out = run("randomized", &g, 0xfeed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges, mst::kruskal(&g).edges, "{name}");
    }
}

#[test]
fn deterministic_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo() {
        let out = run("deterministic", &g, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges, mst::kruskal(&g).edges, "{name}");
    }
}

#[test]
fn always_awake_baseline_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo() {
        let out = run("always-awake", &g, 0xbeef).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges, mst::kruskal(&g).edges, "{name}");
    }
}

#[test]
fn logstar_variant_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo() {
        let out = run("logstar", &g, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges, mst::kruskal(&g).edges, "{name}");
    }
}

#[test]
fn prim_baseline_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo() {
        let out = run("prim", &g, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges, mst::kruskal(&g).edges, "{name}");
    }
}

#[test]
fn spanning_tree_variant_spans_the_zoo() {
    for (name, g) in zoo() {
        let out = run("spanning-tree", &g, 0xcafe).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.edges.len(), g.node_count() - 1, "{name}");
        let mut uf = UnionFind::new(g.node_count());
        for &e in &out.edges {
            let edge = g.edge(e);
            assert!(uf.union(edge.u.index(), edge.v.index()), "{name}: cycle");
        }
        assert_eq!(uf.set_count(), 1, "{name}: not spanning");
    }
}

#[test]
fn sleeping_runs_never_lose_messages() {
    // The transmission schedule's whole point: every message is sent in a
    // round where its receiver is awake.
    for (name, g) in zoo() {
        let out = run("randomized", &g, 5).unwrap();
        assert_eq!(out.stats.messages_lost, 0, "{name} (randomized)");
        let out = run("deterministic", &g, 0).unwrap();
        assert_eq!(out.stats.messages_lost, 0, "{name} (deterministic)");
    }
}

#[test]
fn congest_limit_holds_for_both_algorithms() {
    // O(log n) messages: a 128-bit envelope is a generous constant · log n
    // for these sizes; the run errors out if any message exceeds it.
    let g = generators::random_connected(40, 0.15, 11).unwrap();
    Simulator::new(&g, SimConfig::default().with_bit_limit(128))
        .run(sleeping_mst::mst_core::randomized::RandomizedMst::new)
        .expect("randomized exceeded CONGEST budget");
    Simulator::new(&g, SimConfig::default().with_bit_limit(128))
        .run(sleeping_mst::mst_core::deterministic::DeterministicMst::new)
        .expect("deterministic exceeded CONGEST budget");
}

#[test]
fn awake_complexity_shrinks_while_rounds_grow() {
    // The core trade-off: on a 64-node ring the randomized algorithm is
    // awake o(rounds) — verify a crude 5% ceiling.
    let g = generators::ring(64, 13).unwrap();
    let out = run("randomized", &g, 2).unwrap();
    assert!(
        out.stats.rounds > 1000,
        "rounds {} suspiciously small",
        out.stats.rounds
    );
    assert!(
        (out.stats.awake_max() as f64) < 0.05 * out.stats.rounds as f64,
        "awake {} vs rounds {}",
        out.stats.awake_max(),
        out.stats.rounds
    );
}

#[test]
fn deterministic_round_complexity_scales_with_id_bound() {
    // Same 12-node ring, ids in [1,12] vs sparse ids in [1,256]: the
    // N-stage coloring must stretch the run time roughly with N.
    let compact = generators::ring(12, 3).unwrap();
    let sparse = generators::with_id_space(generators::ring(12, 3).unwrap(), 256, 1).unwrap();
    let out_compact = run("deterministic", &compact, 0).unwrap();
    let out_sparse = run("deterministic", &sparse, 0).unwrap();
    assert!(
        out_sparse.stats.rounds > 4 * out_compact.stats.rounds,
        "sparse ids {} rounds vs compact {} rounds",
        out_sparse.stats.rounds,
        out_compact.stats.rounds
    );
    // Awake complexity must NOT scale with N.
    assert!(
        out_sparse.stats.awake_max() < 4 * out_compact.stats.awake_max().max(1),
        "awake blew up with id bound: {} vs {}",
        out_sparse.stats.awake_max(),
        out_compact.stats.awake_max()
    );
    assert_eq!(out_sparse.edges, mst::kruskal(&sparse).edges);
}

#[test]
fn randomized_seeds_change_schedules_not_results() {
    let g = generators::random_connected(22, 0.2, 17).unwrap();
    let reference = mst::kruskal(&g).edges;
    let mut distinct_rounds = std::collections::HashSet::new();
    for seed in 0..5 {
        let out = run("randomized", &g, seed).unwrap();
        assert_eq!(out.edges, reference, "seed {seed}");
        distinct_rounds.insert(out.stats.rounds);
    }
    assert!(
        distinct_rounds.len() > 1,
        "coin flips never changed the phase count"
    );
}
