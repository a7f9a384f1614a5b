//! Regenerates **Table 1** of the paper as measured scaling data.
//!
//! Paper rows:
//!
//! | Algorithm | Awake Time | Run Time |
//! |---|---|---|
//! | Randomized-MST | O(log n) | O(n log n) |
//! | Deterministic-MST | O(log n) | O(n N log n) |
//!
//! We sweep `n` and print, per algorithm, the measured awake complexity
//! and run time together with the normalized columns `awake / log₂ n`,
//! `rounds / (n log₂ n)`, and (deterministic) `rounds / (n N log₂ n)`.
//! The paper's claims hold iff the normalized columns stay flat.
//!
//! Every panel is a [`bench::Sweep`] over the registry; multi-seed panels
//! run their trials on all available cores (results are seed-deterministic
//! and identical to a single-threaded run).

use bench::{aggregate, Sweep};
use graphlib::generators;
use mst_core::registry;

fn sparse_family(p: f64) -> impl Fn(usize, u64) -> Result<graphlib::WeightedGraph, String> + Sync {
    move |n, seed| generators::random_connected(n, p, seed + n as u64).map_err(|e| e.to_string())
}

fn main() {
    let randomized = registry::find("randomized").expect("registry");
    let deterministic = registry::find("deterministic").expect("registry");
    let logstar = registry::find("logstar").expect("registry");
    let always_awake = registry::find("always-awake").expect("registry");
    let prim = registry::find("prim").expect("registry");

    println!("## Table 1, row 1: Randomized-MST — awake O(log n), run time O(n log n)\n");
    println!("| n    | awake max | awake/log2(n) | rounds    | rounds/(n·log2 n) | phases |");
    println!("|------|-----------|---------------|-----------|-------------------|--------|");
    let family = sparse_family(0.05);
    let results = Sweep::new(&family)
        .algorithm(randomized)
        .sizes([16usize, 32, 64, 128, 256, 512])
        .seeds(0..3)
        .run()
        .expect("randomized sweep");
    for c in aggregate(&results) {
        let log_n = (c.n as f64).log2();
        println!(
            "| {:<4} | {:>9.0} | {:>13.1} | {:>9.0} | {:>17.2} | {:>6.1} |",
            c.n,
            c.awake_max,
            c.awake_max / log_n,
            c.rounds,
            c.rounds / (c.n as f64 * log_n),
            c.phases,
        );
    }

    println!("\n## Table 1, row 2: Deterministic-MST — awake O(log n), run time O(n·N·log n)\n");
    println!("| n    | N    | awake max | awake/log2(n) | rounds     | rounds/(n·N·log2 n) |");
    println!("|------|------|-----------|---------------|------------|---------------------|");
    let det_family = |n: usize, _seed: u64| {
        generators::random_connected(n, 0.08, n as u64).map_err(|e| e.to_string())
    };
    let results = Sweep::new(&det_family)
        .algorithm(deterministic)
        .sizes([8usize, 16, 32, 64, 128])
        .run()
        .expect("deterministic sweep");
    for c in aggregate(&results) {
        let log_n = (c.n as f64).log2();
        println!(
            "| {:<4} | {:<4.0} | {:>9.0} | {:>13.1} | {:>10.0} | {:>19.3} |",
            c.n,
            c.max_external_id,
            c.awake_max,
            c.awake_max / log_n,
            c.rounds,
            c.rounds / (c.n as f64 * c.max_external_id * log_n),
        );
    }

    println!("\n## Corollary 1: Cole–Vishkin variant — awake O(log n log* n), run time O(n log n log* n)\n");
    println!("| n    | N    | awake max | rounds     | rounds vs Fast-Awake |");
    println!("|------|------|-----------|------------|----------------------|");
    // Sparse ids make the comparison vivid: N = 16n.
    let sparse_ids = |n: usize, _seed: u64| {
        generators::with_id_space(
            generators::random_connected(n, 0.1, n as u64).map_err(|e| e.to_string())?,
            16 * n as u64,
            1,
        )
        .map_err(|e| e.to_string())
    };
    let results = Sweep::new(&sparse_ids)
        .algorithm(deterministic)
        .algorithm(logstar)
        .sizes([8usize, 16, 32, 64])
        .run()
        .expect("coloring sweep");
    let (fast, cv): (Vec<_>, Vec<_>) = results
        .iter()
        .partition(|r| r.algorithm == deterministic.name);
    for (f, c) in fast.iter().zip(&cv) {
        assert_eq!(
            f.total_weight, c.total_weight,
            "variants disagree on the MST"
        );
        println!(
            "| {:<4} | {:<4} | {:>9} | {:>10} | {:>19.1}x |",
            c.n,
            c.max_external_id,
            c.stats.awake_max(),
            c.stats.rounds,
            f.stats.rounds as f64 / c.stats.rounds as f64,
        );
    }

    println!("\n## Baseline: always-awake GHS (traditional model, awake = run time)\n");
    println!("| n    | awake max | rounds    | awake/rounds |");
    println!("|------|-----------|-----------|--------------|");
    let plain = |n: usize, _seed: u64| {
        generators::random_connected(n, 0.05, n as u64).map_err(|e| e.to_string())
    };
    let results = Sweep::new(&plain)
        .algorithm(always_awake)
        .sizes([16usize, 64, 256])
        .run()
        .expect("always-awake sweep");
    for c in aggregate(&results) {
        println!(
            "| {:<4} | {:>9.0} | {:>9.0} | {:>12.2} |",
            c.n,
            c.awake_max,
            c.rounds,
            c.awake_max / c.rounds,
        );
    }

    println!("\n## Message complexity (GHS lineage: O(m log n) for the randomized variant)\n");
    println!("| n    | m     | messages | msgs/(m·log2 n) |");
    println!("|------|-------|----------|-----------------|");
    let results = Sweep::new(&plain)
        .algorithm(randomized)
        .sizes([32usize, 128, 512])
        .seeds([2])
        .run()
        .expect("message sweep");
    for c in aggregate(&results) {
        println!(
            "| {:<4} | {:<5.0} | {:>8.0} | {:>15.2} |",
            c.n,
            c.graph_edges,
            c.messages,
            c.messages / (c.graph_edges * (c.n as f64).log2()),
        );
    }

    println!("\n## Baseline: Prim-style sequential growth (sleeping, but Θ(n) awake)\n");
    println!("| n    | awake max | awake/n | rounds    | phases |");
    println!("|------|-----------|---------|-----------|--------|");
    let prim_family = |n: usize, _seed: u64| {
        generators::random_connected(n, 0.1, n as u64).map_err(|e| e.to_string())
    };
    let results = Sweep::new(&prim_family)
        .algorithm(prim)
        .sizes([16usize, 32, 64, 128])
        .run()
        .expect("prim sweep");
    for c in aggregate(&results) {
        println!(
            "| {:<4} | {:>9.0} | {:>7.2} | {:>9.0} | {:>6.0} |",
            c.n,
            c.awake_max,
            c.awake_max / c.n as f64,
            c.rounds,
            c.phases,
        );
    }

    println!(
        "\nShape check: both sleeping rows keep awake/log2(n) flat (Θ(log n) awake);\n\
         rounds/(n log2 n) resp. rounds/(n N log2 n) flat (the round bounds);\n\
         the always-awake baseline pays awake = rounds, and the Prim baseline\n\
         shows sleep states alone don't help (awake/n flat, i.e. Θ(n) awake)."
    );
}
