//! Theorem 4 + Figure 1 on `G_rc`: the awake × round trade-off, plus the
//! full SD → DSD → CSS → MST reduction executed by a *distributed*
//! algorithm.
//!
//! Four panels:
//!
//! 1. the reduction chain end to end — a random set-disjointness
//!    instance is encoded into edge weights (Lemmas 8–10), the
//!    sleeping-model MST runs on it, and the SD answer is decoded from
//!    the distributed output (four seeds);
//! 2. `G_rc` geometry per size (diameter `Θ(c/log n)`, `|I| = O(log n)`);
//! 3. awake × rounds products for the sleeping algorithm and the
//!    always-awake baseline against the `Ω̃(n)` trade-off, normalized by
//!    `n`;
//! 4. congestion at the internal tree nodes `I` while solving MST
//!    instances that encode set disjointness (Lemma 8): total bits into
//!    `I` vs the SD input size `r`.
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
    let randomized = registry::find("randomized").expect("registered algorithm");
    let always_awake = registry::find("always-awake").expect("registered algorithm");

    println!("## SD decided by distributed MST on G_rc (Lemmas 8–10)\n");
    let grc = Grc::build(8, 32, 3)?;
    println!(
        "G_rc: r = {} rows x c = {} cols, |X| = {}, |I| = {}, n = {}, diameter = {}\n",
        grc.rows,
        grc.cols,
        grc.x_nodes.len(),
        grc.internal.len(),
        grc.n(),
        traversal::diameter(&grc.graph).expect("G_rc is connected")
    );
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

    let shapes = [(4, 32), (6, 48), (8, 64), (8, 96), (12, 96)];
    println!("\n## G_rc geometry\n");
    println!("| r  | c   | n    | |X| | |I| | diameter | c/log2(n) |");
    println!("|----|-----|------|-----|-----|----------|-----------|");
    let mut grcs = Vec::new();
    for (r, c) in shapes {
        let grc = Grc::build(r, c, 7)?;
        let d = traversal::diameter(&grc.graph).expect("G_rc is connected");
        println!(
            "| {r:<2} | {c:<3} | {:<4} | {:<3} | {:<3} | {d:>8} | {:>9.1} |",
            grc.n(),
            grc.x_nodes.len(),
            grc.internal.len(),
            c as f64 / (grc.n() as f64).log2()
        );
        grcs.push(grc);
    }

    println!("\n## Awake × rounds on G_rc (Theorem 4: product ∈ Ω̃(n))\n");
    println!("| n    | algorithm        | awake | rounds  | product    | product/n |");
    println!("|------|------------------|-------|---------|------------|-----------|");
    for grc in &grcs {
        let n = grc.n() as f64;
        let sleeping = randomized.run(&grc.graph, 3)?;
        let awake = always_awake.run(&grc.graph, 3)?;
        for (name, out) in [("Randomized-MST", &sleeping), ("GHS always-awake", &awake)] {
            let product = out.stats.awake_round_product();
            println!(
                "| {:<4} | {name:<16} | {:>5} | {:>7} | {:>10} | {:>9.1} |",
                grc.n(),
                out.stats.awake_max(),
                out.stats.rounds,
                product,
                product as f64 / n
            );
        }
    }

    println!("\n## Congestion at I while solving SD-encoded MST (Lemma 8)\n");
    println!(
        "| n    | r (SD bits) | bits into I | busiest I bits | busiest I awake | SD decoded |"
    );
    println!(
        "|------|-------------|-------------|----------------|-----------------|------------|"
    );
    for grc in &grcs {
        let sd = SdInstance::random(grc.sd_bits(), 5);
        let marked = mark_edges(grc, &sd);
        let weighted = css_to_mst(&grc.graph, &marked);
        let out = randomized.run(&weighted, 5)?;
        let ok = mst_uses_unmarked(&marked, &out.edges) != sd.disjoint();
        let t = internal_traffic(grc, &out.stats);
        println!(
            "| {:<4} | {:<11} | {:>11} | {:>14} | {:>15} | {:>10} |",
            grc.n(),
            grc.sd_bits(),
            t.total_bits,
            t.max_bits,
            t.max_awake,
            if ok { "ok" } else { "MISMATCH" }
        );
        assert!(
            ok,
            "n={}: the MST did not decode set disjointness (Lemma 8)",
            grc.n()
        );
    }
    println!(
        "\nShape: every product/n stays ≥ 1 (the trade-off lower bound); the\n\
         always-awake baseline's product is orders of magnitude above the\n\
         sleeping algorithm's, which sits near the frontier (Theorem 4 says\n\
         no algorithm can push it below ~n/polylog(n))."
    );
    Ok(())
}
