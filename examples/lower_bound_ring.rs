//! Theorem 3's ring experiment: the `Ω(log n)` awake lower bound, and the
//! algorithms' matching `O(log n)` upper bound, measured side by side.
//!
//! Four panels:
//!
//! 1. the construction's premise — on a random-weight ring, the two
//!    heaviest edges (whose comparison forces long-distance
//!    communication) are separated by `Ω(n)` hops with constant
//!    probability;
//! 2. awake complexity of `Randomized-MST` on the same rings, normalized
//!    by `log₂ n` (flat ⇒ the algorithm meets the bound);
//! 3. the same for `Deterministic-MST` at smaller sizes;
//! 4. Lemma 11 measured: each traced execution's knowledge spread
//!    against the awake floor `log_{Δ+1}|K(v)|`.
//!
//! Panels 2–3 are `ring:{n}` sweeps ([`bench::SweepSpec`]) on all cores;
//! the results do not depend on the thread count.
//!
//! ```text
//! cargo run --release --example lower_bound_ring
//! ```

use bench::{aggregate, SweepSpec};
use sleeping_mst::lowerbound::knowledge::{awake_floor, knowledge_sizes};
use sleeping_mst::lowerbound::ring;
use sleeping_mst::mst_core::randomized::RandomizedMst;
use sleeping_mst::mst_core::registry;
use sleeping_mst::netsim::{SimConfig, Simulator};

/// Sweeps `alg` over `ring:{n}` and prints the awake/log2(n) table.
fn ring_panel(alg: &str, sizes: &[usize], seeds: &[u64]) -> Result<(), String> {
    println!("| n    | awake max | awake/log2(n) | rounds    |");
    println!("|------|-----------|---------------|-----------|");
    let results = SweepSpec {
        algs: vec![registry::find(alg).expect("registered algorithm")],
        template: "ring:{n}".into(),
        sizes: sizes.to_vec(),
        seeds: seeds.to_vec(),
        executor: None,
        shards: None,
        energy: None,
    }
    .run(0)?;
    for c in aggregate(&results) {
        println!(
            "| {:<4} | {:>9.0} | {:>13.1} | {:>9.0} |",
            c.n,
            c.awake_max,
            c.awake_max / (c.n as f64).log2(),
            c.rounds
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("## Premise: two heaviest ring edges are Ω(n) apart (50 seeds each)\n");
    println!("| n    | mean sep | mean sep / n | P(sep >= n/8) |");
    println!("|------|----------|--------------|---------------|");
    for &n in &[32usize, 64, 128, 256, 512, 1024] {
        let seps: Vec<f64> = (0..50)
            .map(|s| ring::heaviest_separation_sample(n, s).map(|sep| sep as f64))
            .collect::<Result<_, _>>()?;
        let mean = seps.iter().sum::<f64>() / seps.len() as f64;
        let far = seps.iter().filter(|&&s| s >= (n / 8) as f64).count() as f64 / seps.len() as f64;
        println!(
            "| {n:<4} | {mean:>8.1} | {:>12.3} | {far:>13.2} |",
            mean / n as f64
        );
    }

    println!("\n## Randomized-MST on rings: awake/log2(n) flatness (3 seeds each)\n");
    ring_panel("randomized", &[32, 64, 128, 256, 512, 1024], &[0, 1, 2])?;

    println!("\n## Deterministic-MST on rings\n");
    ring_panel("deterministic", &[16, 32, 64, 128], &[1])?;

    println!("\n## Lemma 11 measured: knowledge spread vs the awake floor\n");
    println!("| n    | max |K(v)| | floor log3(n) | awake of that node | slack |");
    println!("|------|-----------|---------------|--------------------|-------|");
    for &n in &[32usize, 64, 128, 256] {
        let g = ring::instance(n, 2)?;
        let out = Simulator::new(&g, SimConfig::default().with_trace().with_seed(4))
            .run(RandomizedMst::new)?;
        let sizes = knowledge_sizes(&g, &out.trace);
        let (v, &k) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &k)| k)
            .expect("a ring has nodes");
        let floor = awake_floor(k, 2);
        let awake = out.stats.awake_by_node[v];
        println!(
            "| {n:<4} | {k:>9} | {floor:>13} | {awake:>18} | {:>4.1}x |",
            awake as f64 / floor.max(1) as f64
        );
    }
    println!(
        "\nShape: panel 1 justifies the Ω(log n) bound's premise; panels 2–3\n\
         show both algorithms matching it (flat awake/log2 n); the last panel\n\
         replays each execution's information flow and confirms every run\n\
         obeys the awake ≥ log_{{Δ+1}}|K| floor that proves Theorem 3."
    );
    Ok(())
}
