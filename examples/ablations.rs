//! Ablations of the design choices called out in `DESIGN.md`.
//!
//! * **A1 — coin pruning**: Step (i) of `Randomized-MST` restricts merges
//!   to tails→heads MOEs to keep merge components star-shaped. We measure
//!   the *supergraph chain depth* that would arise without pruning
//!   (computed structurally per phase) — the quantity that would translate
//!   into awake time if merged naively.
//! * **A2 — token cap**: `Deterministic-MST` caps valid incoming MOEs at
//!   3. We sweep the cap and report phases/awake/rounds.
//! * **A3 — coin bias**: the paper flips fair coins; we sweep
//!   `P(heads)` and report phase counts.
//! * **A4 — id bound**: Corollary 1's Cole–Vishkin coloring against the
//!   stage-based Fast-Awake coloring on sparse ids (`N = 16n`), where
//!   the `O(n·N·log n)` run time of `Deterministic-MST` shows.
//!
//! A2 and A3 run a registry row with its protocol [`Family`] swapped;
//! every variant's output weight is checked against Kruskal's.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use std::collections::{BTreeMap, BTreeSet};

use sleeping_mst::graphlib::{generators, mst, EdgeId, UnionFind};
use sleeping_mst::mst_core::deterministic::DeterministicConfig;
use sleeping_mst::mst_core::randomized::RandomizedConfig;
use sleeping_mst::mst_core::{registry, AlgorithmSpec, Family};

/// The registry row `name` with its protocol family replaced by `family`.
fn variant(name: &str, family: Family) -> AlgorithmSpec {
    AlgorithmSpec {
        family,
        ..*registry::find(name).expect("registered algorithm")
    }
}

/// Structural measurement for A1: simulate Borůvka phases and report the
/// maximum depth of a merge component in the fragment supergraph (a) with
/// all MOEs, as naive merging would, and (b) expected-star depth 1 under
/// tails→heads pruning.
fn unpruned_chain_depths(n: usize, seed: u64) -> Vec<usize> {
    let g = generators::random_connected(n, 0.1, seed).expect("valid random graph");
    let mut uf = UnionFind::new(n);
    let mut depths = Vec::new();
    loop {
        // Fragment MOEs.
        let mut best: Vec<Option<EdgeId>> = vec![None; n];
        let mut any = false;
        for (i, e) in g.edges().iter().enumerate() {
            let (ru, rv) = (uf.find(e.u.index()), uf.find(e.v.index()));
            if ru == rv {
                continue;
            }
            any = true;
            for r in [ru, rv] {
                let better = best[r].is_none_or(|cur| g.edge(cur).weight > e.weight);
                if better {
                    best[r] = Some(EdgeId::new(i as u32));
                }
            }
        }
        if !any {
            break;
        }
        // Depth of merge components: BFS over the fragment supergraph whose
        // edges are ALL the MOEs (what naive merging must traverse).
        // BTreeMap, not HashMap: `max_depth` depends on which node of each
        // component the BFS starts from, so iteration order below must be
        // deterministic or the reported depths drift run to run.
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (r, moe) in best.iter().enumerate() {
            if let Some(id) = moe {
                let e = g.edge(*id);
                let a = uf.find(e.u.index());
                let b = uf.find(e.v.index());
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
                debug_assert!(a == r || b == r);
            }
        }
        let mut seen = BTreeSet::new();
        let mut max_depth = 0usize;
        for &start in adj.keys() {
            if !seen.insert(start) {
                continue;
            }
            let mut frontier = vec![start];
            let mut depth = 0;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for v in frontier {
                    for &w in adj.get(&v).into_iter().flatten() {
                        if seen.insert(w) {
                            next.push(w);
                        }
                    }
                }
                if !next.is_empty() {
                    depth += 1;
                }
                frontier = next;
            }
            max_depth = max_depth.max(depth);
        }
        depths.push(max_depth);
        for moe in best.into_iter().flatten() {
            let e = g.edge(moe);
            uf.union(e.u.index(), e.v.index());
        }
    }
    depths
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("## A1 — why valid-MOE pruning: merge-component depth without it\n");
    println!("| n    | phases | max chain depth | mean chain depth |");
    println!("|------|--------|-----------------|------------------|");
    for &n in &[32usize, 128, 512] {
        let depths = unpruned_chain_depths(n, 1);
        let mean = depths.iter().map(|&d| d as f64).sum::<f64>() / depths.len() as f64;
        println!(
            "| {n:<4} | {:<6} | {:>15} | {mean:>16.1} |",
            depths.len(),
            depths.iter().max().expect("at least one phase"),
        );
    }
    println!(
        "\nWith pruning every merge component is a star (depth 1, O(1) awake);\n\
         without it chains of the depths above would each cost that many\n\
         awake rounds to re-label — the blow-up Step (i) prevents.\n"
    );

    println!("## A2 — deterministic token cap sweep\n");
    println!("| cap | phases | awake max | rounds   |");
    println!("|-----|--------|-----------|----------|");
    let g = generators::random_connected(48, 0.1, 3)?;
    let reference = mst::kruskal(&g).total_weight;
    for cap in [1u64, 2, 3] {
        let config = DeterministicConfig {
            token_cap: cap,
            ..DeterministicConfig::PAPER
        };
        let out = variant("deterministic", Family::Deterministic(config)).run(&g, 0)?;
        assert_eq!(
            g.total_weight(out.edges.iter().copied()),
            reference,
            "cap={cap} broke correctness"
        );
        println!(
            "| {cap:<3} | {:<6} | {:>9} | {:>8} |",
            out.phases,
            out.stats.awake_max(),
            out.stats.rounds
        );
    }
    println!(
        "\n(Cap 3 is the paper's choice and also a structural ceiling: NBR-INFO\n\
         and the five-color palette are sized for G' degree ≤ 4 = cap + 1.\n\
         A larger cap trips the NBR-INFO capacity invariant by design —\n\
         the whole step (ii) machinery is built around ≤ 3 incoming MOEs.)\n"
    );

    println!("## A3 — coin bias sweep (Randomized-MST, 5 seeds each)\n");
    println!("| P(heads) | mean phases | mean awake | mean rounds |");
    println!("|----------|-------------|------------|-------------|");
    let g = generators::random_connected(64, 0.08, 5)?;
    let reference = mst::kruskal(&g).total_weight;
    let seeds = [0u64, 1, 2, 3, 4];
    let k = seeds.len() as f64;
    for bias in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let config = RandomizedConfig {
            heads_probability: bias,
            ..RandomizedConfig::PAPER
        };
        let spec = variant("randomized", Family::Randomized(config));
        let (mut phases, mut awake, mut rounds) = (0.0, 0.0, 0.0);
        for seed in seeds {
            let out = spec.run(&g, seed)?;
            assert_eq!(
                g.total_weight(out.edges.iter().copied()),
                reference,
                "bias {bias} broke correctness"
            );
            phases += out.phases as f64 / k;
            awake += out.stats.awake_max() as f64 / k;
            rounds += out.stats.rounds as f64 / k;
        }
        println!("| {bias:<8} | {phases:>11.1} | {awake:>10.1} | {rounds:>11.0} |");
    }
    println!(
        "\nFair coins minimize expected phases (P(tails→heads) = p(1-p) peaks\n\
         at 1/2) — the paper's choice is the sweet spot.\n"
    );

    println!("## A4 — id bound: Cole–Vishkin (Corollary 1) vs Fast-Awake coloring, N = 16n\n");
    println!("| n    | N    | awake max | rounds     | rounds vs Fast-Awake |");
    println!("|------|------|-----------|------------|----------------------|");
    let deterministic = registry::find("deterministic").expect("registered algorithm");
    let logstar = registry::find("logstar").expect("registered algorithm");
    for n in [8usize, 16, 32, 64] {
        let g = generators::with_id_space(
            generators::random_connected(n, 0.1, n as u64)?,
            16 * n as u64,
            1,
        )?;
        let fast = deterministic.run(&g, 0)?;
        let cv = logstar.run(&g, 0)?;
        assert_eq!(fast.edges, cv.edges, "variants disagree on the MST");
        println!(
            "| {n:<4} | {:<4} | {:>9} | {:>10} | {:>19.1}x |",
            g.max_external_id(),
            cv.stats.awake_max(),
            cv.stats.rounds,
            fast.stats.rounds as f64 / cv.stats.rounds as f64,
        );
    }
    println!(
        "\nRun time drops from O(n·N·log n) to O(n log n log* n) — the speed-up\n\
         grows with N — at an O(log* n) awake overhead."
    );
    Ok(())
}
