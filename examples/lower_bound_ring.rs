//! Theorem 3's ring experiment: the `Ω(log n)` awake lower bound, and our
//! algorithm's matching `O(log n)` upper bound, measured side by side.
//!
//! Two things are verified empirically:
//!
//! 1. the construction's premise — on a random-weight ring, the two
//!    heaviest edges (whose comparison forces long-distance communication)
//!    are separated by `Ω(n)` hops with constant probability;
//! 2. the conclusion's shape — the measured awake complexity of
//!    `Randomized-MST`, divided by `log₂ n`, stays flat as `n` doubles,
//!    i.e. the algorithm sits at the lower bound.
//!
//! ```text
//! cargo run --release --example lower_bound_ring
//! ```

use sleeping_mst::lowerbound::ring;
use sleeping_mst::mst_core::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("premise: separation of the two heaviest ring edges (20 seeds each)");
    println!("| n    | mean separation | mean / n | P(sep >= n/8) |");
    println!("|------|-----------------|----------|---------------|");
    for &n in &[64usize, 128, 256, 512] {
        let seps: Vec<usize> = (0..20)
            .map(|s| ring::heaviest_separation_sample(n, s).unwrap())
            .collect();
        let mean = seps.iter().sum::<usize>() as f64 / seps.len() as f64;
        let far = seps.iter().filter(|&&s| s >= n / 8).count() as f64 / seps.len() as f64;
        println!(
            "| {n:<4} | {mean:>15.1} | {:>8.3} | {far:>13.2} |",
            mean / n as f64
        );
    }

    let randomized = registry::find("randomized").expect("registered algorithm");
    println!("\nconclusion: awake complexity of Randomized-MST on rings");
    println!("| n    | awake max | rounds   | awake/log2(n) |");
    println!("|------|-----------|----------|---------------|");
    for &n in &[32usize, 64, 128, 256] {
        let graph = ring::instance(n, 1)?;
        let out = randomized.run(&graph, 9)?;
        println!(
            "| {n:<4} | {:>9} | {:>8} | {:>13.1} |",
            out.stats.awake_max(),
            out.stats.rounds,
            out.stats.awake_max() as f64 / (n as f64).log2()
        );
    }
    println!(
        "\nThe awake/log2(n) column staying (roughly) constant while n grows\n\
         8x is the Θ(log n) awake complexity of Theorem 1 + Theorem 3."
    );
    Ok(())
}
