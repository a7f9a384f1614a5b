//! Integration tests of the Section 3 constructions: the reduction chain
//! executed by the *distributed* algorithms, and the congestion quantities
//! of Lemma 8 measured on real runs.

use sleeping_mst::graphlib::{traversal, WeightedGraph};
use sleeping_mst::lowerbound::congestion::{awake_floor_from_bits, internal_traffic};
use sleeping_mst::lowerbound::grc::Grc;
use sleeping_mst::lowerbound::reduction::{
    css_spanning_connected, css_to_mst, mark_edges, mst_uses_unmarked,
};
use sleeping_mst::lowerbound::ring;
use sleeping_mst::lowerbound::sd::SdInstance;
use sleeping_mst::mst_core::{registry, MstOutcome, RunError};

/// Runs the registry algorithm `name` on `graph` with `seed`.
fn run(name: &str, graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    registry::find(name)
        .expect("registered algorithm")
        .run(graph, seed)
}

#[test]
fn distributed_mst_decides_set_disjointness_on_grc() {
    let grc = Grc::build(5, 16, 1).unwrap();
    for seed in 0..6 {
        let sd = SdInstance::random(grc.sd_bits(), seed);
        let marked = mark_edges(&grc, &sd);
        let weighted = css_to_mst(&grc.graph, &marked);
        let out = run("randomized", &weighted, seed + 100).unwrap();
        assert_eq!(
            !mst_uses_unmarked(&marked, &out.edges),
            sd.disjoint(),
            "randomized, seed {seed}"
        );
    }
    // One deterministic pass over each answer class.
    for sd in [
        SdInstance::random_disjoint(grc.sd_bits(), 7),
        SdInstance::random_intersecting(grc.sd_bits(), 7),
    ] {
        let marked = mark_edges(&grc, &sd);
        let weighted = css_to_mst(&grc.graph, &marked);
        let out = run("deterministic", &weighted, 0).unwrap();
        assert_eq!(!mst_uses_unmarked(&marked, &out.edges), sd.disjoint());
    }
}

#[test]
fn css_oracle_matches_bfs_connectivity() {
    let grc = Grc::build(4, 16, 2).unwrap();
    for seed in 0..10 {
        let sd = SdInstance::random(grc.sd_bits(), seed);
        let marked = mark_edges(&grc, &sd);
        // Rebuild the marked subgraph and check connectivity with BFS.
        let mut b = sleeping_mst::graphlib::GraphBuilder::new(grc.n());
        for (i, e) in grc.graph.edges().iter().enumerate() {
            if marked[i] {
                b.edge(e.u.raw(), e.v.raw(), e.weight);
            }
        }
        let sub = b.build().unwrap();
        assert_eq!(
            css_spanning_connected(&grc.graph, &marked),
            traversal::is_connected(&sub),
            "seed {seed}"
        );
    }
}

#[test]
fn grc_diameter_is_small_but_awake_floor_is_not() {
    // The point of G_rc: tiny diameter (fast protocols exist) yet all
    // Alice↔Bob information must cross the O(log n) tree nodes.
    let grc = Grc::build(6, 64, 3).unwrap();
    let d = traversal::diameter(&grc.graph).unwrap();
    assert!(
        (d as usize) < grc.cols / 2,
        "diameter {d} not sublinear in c"
    );

    let out = run("randomized", &grc.graph, 9).unwrap();
    let traffic = internal_traffic(&grc, &out.stats);
    // Lemma 8's accounting identity on measured data: the busiest I node
    // was awake at least its received-bits / (degree · max-message-size).
    let max_deg = grc
        .internal
        .iter()
        .map(|&v| grc.graph.degree(v) as u64)
        .max()
        .unwrap();
    let floor = awake_floor_from_bits(traffic.max_bits, max_deg, 128);
    assert!(
        traffic.max_awake >= floor,
        "awake {} below information-theoretic floor {floor}",
        traffic.max_awake
    );
}

#[test]
fn ring_awake_ratio_is_flat_across_doublings() {
    // Theorem 3 shape check: awake/log2(n) within a 3x band while n grows 8x.
    let mut ratios = Vec::new();
    for &n in &[32usize, 64, 128, 256] {
        let g = ring::instance(n, 5).unwrap();
        let out = run("randomized", &g, 1).unwrap();
        ratios.push(out.stats.awake_max() as f64 / (n as f64).log2());
    }
    let (min, max) = ratios
        .iter()
        .fold((f64::INFINITY, 0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    assert!(max / min < 3.0, "awake/log2(n) ratios {ratios:?} not flat");
}

#[test]
fn tradeoff_product_exceeds_n_for_all_algorithms() {
    // Theorem 4: awake × rounds ∈ Ω̃(n). Check the raw product ≥ n on G_rc.
    let grc = Grc::build(6, 32, 4).unwrap();
    let n = grc.n() as u128;
    let rand = run("randomized", &grc.graph, 3).unwrap();
    assert!(rand.stats.awake_round_product() >= n);
    let det = run("deterministic", &grc.graph, 0).unwrap();
    assert!(det.stats.awake_round_product() >= n);
}
