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
//!
//! A2 and A3 run through the shared harness: each configuration override
//! is the registry row with its [`Family`] swapped, registered as a
//! labeled custom runner ([`Sweep::algorithm_fn`]), so the sweep grid and
//! the multi-seed averaging come for free.

use bench::{aggregate, mean, Sweep};
use graphlib::{generators, mst, EdgeId, UnionFind, WeightedGraph};
use mst_core::deterministic::DeterministicConfig;
use mst_core::randomized::RandomizedConfig;
use mst_core::{registry, AlgorithmSpec, Family, MstOutcome, RunError};

/// A labeled configuration variant for [`Sweep::algorithm_fn`].
type LabeledRunner = (
    String,
    Box<dyn Fn(&WeightedGraph, u64) -> Result<MstOutcome, RunError> + Sync>,
);

/// The registry row `name` run with its protocol family replaced by
/// `family`, as a labeled runner for [`Sweep::algorithm_fn`].
fn labeled(label: String, name: &str, family: Family) -> LabeledRunner {
    let spec = AlgorithmSpec {
        family,
        ..*registry::find(name).expect("registered algorithm")
    };
    (label, Box::new(move |g, seed| spec.run(g, seed)))
}

/// Structural measurement for A1: simulate Borůvka phases and report the
/// maximum depth of a merge component in the fragment supergraph (a) with
/// all MOEs, as naive merging would, and (b) expected-star depth 1 under
/// tails→heads pruning.
fn unpruned_chain_depths(n: usize, seed: u64) -> Vec<usize> {
    let g = generators::random_connected(n, 0.1, seed).unwrap();
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
        let mut adj: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
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
        let mut seen = std::collections::BTreeSet::new();
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

fn main() {
    println!("## A1 — why valid-MOE pruning: merge-component depth without it\n");
    println!("| n    | phases | max chain depth | mean chain depth |");
    println!("|------|--------|-----------------|------------------|");
    for &n in &[32usize, 128, 512] {
        let depths = unpruned_chain_depths(n, 1);
        let dd: Vec<f64> = depths.iter().map(|&d| d as f64).collect();
        println!(
            "| {n:<4} | {:<6} | {:>15} | {:>16.1} |",
            depths.len(),
            depths.iter().max().unwrap(),
            mean(&dd)
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
    let a2_family =
        |_n: usize, _seed: u64| generators::random_connected(48, 0.1, 3).map_err(|e| e.to_string());
    let reference = mst::kruskal(&generators::random_connected(48, 0.1, 3).unwrap()).total_weight;
    let capped: Vec<LabeledRunner> = [1u64, 2, 3]
        .into_iter()
        .map(|cap| {
            let config = DeterministicConfig {
                token_cap: cap,
                ..DeterministicConfig::PAPER
            };
            labeled(
                format!("cap={cap}"),
                "deterministic",
                Family::Deterministic(config),
            )
        })
        .collect();
    let mut sweep = Sweep::new(&a2_family).sizes([48]);
    for (label, run) in &capped {
        sweep = sweep.algorithm_fn(label.clone(), run.as_ref());
    }
    let results = sweep.run().expect("token cap sweep");
    for r in &results {
        assert_eq!(
            r.total_weight,
            u128::from(reference),
            "{} broke correctness",
            r.algorithm
        );
        println!(
            "| {:<3} | {:<6} | {:>9} | {:>8} |",
            r.algorithm.trim_start_matches("cap="),
            r.phases,
            r.stats.awake_max(),
            r.stats.rounds
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
    let a3_family = |_n: usize, _seed: u64| {
        generators::random_connected(64, 0.08, 5).map_err(|e| e.to_string())
    };
    let a3_reference =
        mst::kruskal(&generators::random_connected(64, 0.08, 5).unwrap()).total_weight;
    let biased: Vec<LabeledRunner> = [0.1f64, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(|bias| {
            let config = RandomizedConfig {
                heads_probability: bias,
                ..RandomizedConfig::PAPER
            };
            labeled(format!("{bias}"), "randomized", Family::Randomized(config))
        })
        .collect();
    let mut sweep = Sweep::new(&a3_family).sizes([64]).seeds(0..5);
    for (label, run) in &biased {
        sweep = sweep.algorithm_fn(label.clone(), run.as_ref());
    }
    let results = sweep.run().expect("coin bias sweep");
    for r in &results {
        assert_eq!(
            r.total_weight,
            u128::from(a3_reference),
            "bias {} broke correctness",
            r.algorithm
        );
    }
    for c in aggregate(&results) {
        println!(
            "| {:<8} | {:>11.1} | {:>10.1} | {:>11.0} |",
            c.algorithm, c.phases, c.awake_max, c.rounds
        );
    }
    println!(
        "\nFair coins minimize expected phases (P(tails→heads) = p(1-p) peaks\n\
         at 1/2) — the paper's choice is the sweet spot."
    );
}
