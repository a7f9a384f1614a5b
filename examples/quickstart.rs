//! Quickstart: build a random network, run the awake-optimal randomized
//! MST algorithm on the sleeping-model simulator, and verify the result
//! against a sequential reference MST.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sleeping_mst::graphlib::{generators, mst};
use sleeping_mst::mst_core::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let graph = generators::random_connected(n, 0.05, 42)?;
    println!(
        "network: {} nodes, {} edges (random connected, distinct weights)",
        graph.node_count(),
        graph.edge_count()
    );

    let randomized = registry::find("randomized").expect("registered algorithm");
    let outcome = randomized.run(&graph, 7)?;
    let reference = mst::kruskal(&graph);

    println!("\nRandomized-MST (sleeping model):");
    println!("  MST edges          : {}", outcome.edges.len());
    println!(
        "  total weight       : {}",
        graph.total_weight(outcome.edges.iter().copied())
    );
    println!("  merge phases       : {}", outcome.phases);
    println!(
        "  awake complexity   : {} rounds (max over nodes)",
        outcome.stats.awake_max()
    );
    println!(
        "  awake (average)    : {:.1} rounds",
        outcome.stats.awake_avg()
    );
    println!("  round complexity   : {} rounds", outcome.stats.rounds);
    println!(
        "  messages delivered : {}",
        outcome.stats.messages_delivered
    );
    println!("  messages lost      : {}", outcome.stats.messages_lost);

    assert_eq!(
        outcome.edges, reference.edges,
        "distributed MST must match Kruskal"
    );
    println!("\nverified: distributed output equals the unique MST (Kruskal).");
    println!(
        "awake/log2(n) = {:.1} — the paper's O(log n) awake bound in action; \
         the node slept through {:.1}% of the run.",
        outcome.stats.awake_max() as f64 / (n as f64).log2(),
        100.0 * (1.0 - outcome.stats.awake_max() as f64 / outcome.stats.rounds as f64)
    );
    Ok(())
}
