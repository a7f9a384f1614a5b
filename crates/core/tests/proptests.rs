//! Property-based tests of the core algorithm building blocks.

use proptest::prelude::*;

use mst_core::deterministic::cv_iterations;
use mst_core::registry;
use mst_core::schedule::{block_len, ts_offsets};
use mst_core::timeline::{Position, Timeline};

proptest! {
    /// Every schedule offset fits in the block and pairs up with the
    /// adjacent level's counterpart.
    #[test]
    fn schedule_alignment(n in 2usize..300, i in 1u64..300) {
        prop_assume!((i as usize) < n);
        let parent = ts_offsets(n, i - 1);
        let child = ts_offsets(n, i);
        prop_assert_eq!(Some(parent.down_send), child.down_receive);
        prop_assert_eq!(Some(parent.up_receive), child.up_send);
        prop_assert_eq!(parent.side, child.side);
        for off in [child.down_send, child.side, child.up_receive] {
            prop_assert!(off < block_len(n));
        }
    }

    /// A node's own offsets never collide (one wake = one meaning).
    #[test]
    fn schedule_offsets_distinct(n in 2usize..300, i in 0u64..300) {
        prop_assume!((i as usize) < n);
        let o = ts_offsets(n, i);
        let mut all = vec![o.down_send, o.side, o.up_receive];
        all.extend(o.down_receive);
        all.extend(o.up_send);
        let uniq: std::collections::HashSet<u64> = all.iter().copied().collect();
        prop_assert_eq!(uniq.len(), all.len());
    }

    /// Timeline round/position conversions are inverse bijections.
    #[test]
    fn timeline_roundtrip(n in 1usize..200, blocks in 1u64..100, round in 1u64..1_000_000) {
        let t = Timeline::new(n, blocks);
        let pos = t.position(round);
        prop_assert_eq!(t.round(pos), round);
        prop_assert!(pos.offset < t.block_len());
        prop_assert!(pos.block < t.blocks_per_phase());
    }

    /// Positions map monotonically to rounds.
    #[test]
    fn timeline_monotone(n in 1usize..100, blocks in 1u64..50, a in 0u64..1000, b in 0u64..1000) {
        let t = Timeline::new(n, blocks);
        let pa = t.position(a + 1);
        let pb = t.position(b + 1);
        let same_order = (a < b) == (pa < pb) || a == b;
        prop_assert!(same_order, "{a} vs {b}: {pa:?} vs {pb:?}");
        let _ = Position { phase: 0, block: 0, offset: 0 };
    }

    /// The CV iteration schedule is tiny and monotone in N.
    #[test]
    fn cv_iterations_bounded(id_bound in 1u64..u64::MAX) {
        let t = cv_iterations(id_bound);
        prop_assert!(t >= 1);
        prop_assert!(t <= 6, "cv_iterations({id_bound}) = {t}");
    }
}

proptest! {
    // Whole-algorithm property runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The randomized algorithm's awake complexity is invariant under the
    /// weight scale (it only compares weights).
    #[test]
    fn randomized_invariant_under_weight_order(n in 4usize..20, seed in 0u64..100) {
        use graphlib::GraphBuilder;
        let base = graphlib::generators::random_connected(n, 0.2, seed).unwrap();
        // Re-map weights order-preservingly (×2 + 1).
        let mut b = GraphBuilder::new(n);
        for e in base.edges() {
            b.edge(e.u.raw(), e.v.raw(), e.weight * 2 + 1);
        }
        let scaled = b.build().unwrap();
        let randomized = registry::find("randomized").unwrap();
        let out_a = randomized.run(&base, 42).unwrap();
        let out_b = randomized.run(&scaled, 42).unwrap();
        prop_assert_eq!(out_a.edges, out_b.edges);
        prop_assert_eq!(out_a.stats.rounds, out_b.stats.rounds);
        prop_assert_eq!(out_a.stats.awake_by_node, out_b.stats.awake_by_node);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deterministic algorithm is correct under arbitrary sparse id
    /// spaces, and its awake complexity does not grow with the id bound.
    #[test]
    fn deterministic_handles_sparse_id_spaces(n in 4usize..12, span_mult in 2u64..24, seed in 0u64..50) {
        use graphlib::generators;
        let base = generators::random_connected(n, 0.25, seed).unwrap();
        let reference = graphlib::mst::kruskal(&base).edges;
        let sparse = generators::with_id_space(base, span_mult * n as u64, seed).unwrap();
        let out = registry::find("deterministic").unwrap().run(&sparse, 0).unwrap();
        prop_assert_eq!(&out.edges, &reference);
        let cv = registry::find("logstar").unwrap().run(&sparse, 0).unwrap();
        prop_assert_eq!(&cv.edges, &reference);
        // CV's run time must not scale with the id span the way the
        // stage-based coloring does. (For tiny N the CV prep/recolor
        // overhead of ~36 blocks can exceed the 3N stage blocks, so only
        // compare when N is clearly past the crossover.)
        if sparse.max_external_id() > 64 {
            prop_assert!(
                cv.stats.rounds <= out.stats.rounds,
                "CV {} rounds vs stages {} at N={}",
                cv.stats.rounds, out.stats.rounds, sparse.max_external_id()
            );
        }
    }
}
