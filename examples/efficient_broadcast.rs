//! The paper's opening motivation, end to end: build an MST with tiny
//! awake cost, then use it for energy-efficient broadcast.
//!
//! "An MST serves as a basic primitive in many network applications
//! including efficient broadcast … MST is useful for energy-efficient
//! broadcast in wireless networks."
//!
//! We compare three ways to broadcast one message from a source:
//!
//! 1. **flooding** (no structure): every node stays awake until the wave
//!    passes — awake cost grows with the eccentricity;
//! 2. **MST broadcast without amortization**: one `Fragment-Broadcast`
//!    block on the tree built by `Randomized-MST` — every node awake O(1)
//!    rounds;
//! 3. the same including the **one-time cost of building the tree**
//!    (O(log n) awake), amortized over `k` broadcasts.
//!
//! ```text
//! cargo run --release --example efficient_broadcast
//! ```

use sleeping_mst::graphlib::{generators, NodeId};
use sleeping_mst::mst_core::registry;
use sleeping_mst::mst_core::toolbox::{Broadcast, TreeSpec};
use sleeping_mst::netsim::{flood, SimConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let graph = generators::random_connected(n, 0.04, 11)?;
    println!("network: {n} nodes, {} edges\n", graph.edge_count());

    // 1. Flooding: the unstructured baseline.
    let flood_out = Simulator::new(&graph, SimConfig::default())
        .run(|ctx| flood::Flood::new(ctx.node.raw() == 0))?;
    println!("flooding broadcast:");
    println!("  awake max  : {} rounds", flood_out.stats.awake_max());
    println!("  awake avg  : {:.1} rounds", flood_out.stats.awake_avg());
    println!("  messages   : {}", flood_out.stats.messages_sent());

    // 2. Build the MST once (sleeping model), then broadcast over it.
    let randomized = registry::find("randomized").expect("registered algorithm");
    let mst = randomized.run(&graph, 3)?;
    let specs = TreeSpec::from_tree_edges(&graph, &mst.edges, NodeId::new(0));
    let tree_out = Simulator::new(&graph, SimConfig::default()).run(|ctx| {
        let payload = (ctx.node.raw() == 0).then_some(0xC0FFEE);
        Broadcast::new(specs[ctx.node.index()].clone(), payload)
    })?;
    assert!(tree_out.states.iter().all(|s| s.value == Some(0xC0FFEE)));
    println!("\nMST broadcast (tree already built):");
    println!("  awake max  : {} rounds", tree_out.stats.awake_max());
    println!(
        "  messages   : {} (= n - 1)",
        tree_out.stats.messages_sent()
    );

    // 3. Amortization: tree construction cost spread over k broadcasts.
    println!(
        "\namortized awake cost per broadcast (tree build = {} awake rounds):",
        mst.stats.awake_max()
    );
    println!("  k broadcasts | flooding | MST (amortized)");
    for k in [1u64, 10, 100] {
        let amortized = (mst.stats.awake_max() + k * tree_out.stats.awake_max()) as f64 / k as f64;
        println!(
            "  {k:>12} | {:>8} | {amortized:>15.1}",
            flood_out.stats.awake_max()
        );
    }
    println!(
        "\nAfter ~{} broadcasts the O(log n) construction cost is fully paid\n\
         back and every further broadcast costs each node O(1) awake rounds —\n\
         the energy argument that motivates sleeping-model MST.",
        mst.stats.awake_max() / tree_out.stats.awake_max().max(1)
    );
    Ok(())
}
