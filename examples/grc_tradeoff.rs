//! Theorem 4 on `G_rc`: the awake × round trade-off, plus the full
//! SD → DSD → CSS → MST reduction executed by a *distributed* algorithm.
//!
//! We build the Figure 1 graph, encode a random set-disjointness instance
//! into edge weights (Lemmas 8–10), run the sleeping-model MST on it, and
//! decode the SD answer from the distributed output. Then we compare the
//! awake × round products of the sleeping algorithm and the always-awake
//! baseline against the `Ω̃(n)` trade-off curve, and report how much
//! traffic squeezed through the `O(log n)` tree nodes `I` — the congestion
//! Lemma 8 converts into awake time.
//!
//! ```text
//! cargo run --release --example grc_tradeoff
//! ```

use sleeping_mst::graphlib::traversal;
use sleeping_mst::lowerbound::congestion::internal_traffic;
use sleeping_mst::lowerbound::grc::Grc;
use sleeping_mst::lowerbound::reduction::{css_to_mst, mark_edges, mst_uses_unmarked};
use sleeping_mst::lowerbound::sd::SdInstance;
use sleeping_mst::mst_core::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grc = Grc::build(8, 32, 3)?;
    println!(
        "G_rc: r = {} rows x c = {} cols, |X| = {}, |I| = {}, n = {}, diameter = {}",
        grc.rows,
        grc.cols,
        grc.x_nodes.len(),
        grc.internal.len(),
        grc.n(),
        traversal::diameter(&grc.graph).unwrap()
    );

    let randomized = registry::find("randomized").expect("registered algorithm");
    let always_awake = registry::find("always-awake").expect("registered algorithm");

    // --- the reduction chain, end to end, solved distributively ---
    println!("\nSD instances decided by running distributed MST on G_rc:");
    for seed in 0..4 {
        let sd = SdInstance::random(grc.sd_bits(), seed);
        let marked = mark_edges(&grc, &sd);
        let weighted = css_to_mst(&grc.graph, &marked);
        let out = randomized.run(&weighted, seed)?;
        let answer = !mst_uses_unmarked(&marked, &out.edges);
        println!(
            "  seed {seed}: ground truth disjoint = {:<5} | decoded from MST = {:<5} | {}",
            sd.disjoint(),
            answer,
            if answer == sd.disjoint() {
                "ok"
            } else {
                "MISMATCH"
            }
        );
        assert_eq!(answer, sd.disjoint());
    }

    // --- the trade-off products ---
    println!("\nawake x rounds on G_rc (MST with random weights):");
    println!("| algorithm        | awake max | rounds  | product    | product / n |");
    println!("|------------------|-----------|---------|------------|-------------|");
    let n = grc.n() as f64;
    let sleeping = randomized.run(&grc.graph, 11)?;
    let awake = always_awake.run(&grc.graph, 11)?;
    for (name, out) in [("Randomized-MST", &sleeping), ("GHS always-awake", &awake)] {
        let product = out.stats.awake_round_product();
        println!(
            "| {:<16} | {:>9} | {:>7} | {:>10} | {:>11.1} |",
            name,
            out.stats.awake_max(),
            out.stats.rounds,
            product,
            product as f64 / n
        );
    }
    println!(
        "\nTheorem 4 says no algorithm can push the product below ~n/polylog(n);\n\
         the sleeping algorithm sits near that frontier, the always-awake one\n\
         is far above it."
    );

    // --- congestion at the tree nodes I ---
    let weighted = css_to_mst(
        &grc.graph,
        &mark_edges(&grc, &SdInstance::random(grc.sd_bits(), 0)),
    );
    let out = randomized.run(&weighted, 5)?;
    let sim_stats = out.stats;
    let traffic = internal_traffic(&grc, &sim_stats);
    println!(
        "\ncongestion at I (|I| = {}): total {} bits received, busiest node {} bits, \
         max awake {} rounds",
        traffic.node_count, traffic.total_bits, traffic.max_bits, traffic.max_awake
    );
    Ok(())
}
