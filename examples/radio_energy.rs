//! Appendix A live: the sleeping model vs the energy-complexity (radio)
//! model.
//!
//! The paper notes that its algorithms transfer to the *Local* variant of
//! the energy model (no collisions), while real radio channels add
//! collision constraints. This example runs the LDT toolbox's broadcast
//! and upcast on all three channel semantics and shows:
//!
//! * identical O(1)-energy behaviour under the Local rule,
//! * the exact collision patterns that break the same schedules under
//!   Detection/Silence — the source of the "possibly polylog(n)
//!   multiplicative factor" in the appendix.
//!
//! ```text
//! cargo run --release --example radio_energy
//! ```

use sleeping_mst::graphlib::{generators, mst, NodeId};
use sleeping_mst::mst_core::radio_toolbox::{RadioBroadcast, RadioUpcastMin};
use sleeping_mst::mst_core::toolbox::TreeSpec;
use sleeping_mst::netsim::radio::{self, CollisionRule};
use sleeping_mst::netsim::{EnergyModel, SimConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 32;
    let graph = generators::random_connected(n, 0.12, 9)?;
    let tree = mst::kruskal(&graph);
    let specs = TreeSpec::from_tree_edges(&graph, &tree.edges, NodeId::new(0));
    // Radio protocols run on the sleeping-model kernel and are charged by
    // its `EnergyModel`; `radio_default()` is the classic
    // one-unit-per-active-round accounting of the energy-complexity
    // literature (round:1, everything else free).
    let model = EnergyModel::radio_default();
    let sim = Simulator::new(&graph, SimConfig::default().with_energy(model));
    println!(
        "network: {n} nodes; broadcasting over its MST in the radio model\n\
         energy model: {}\n",
        model.spec_string()
    );

    println!("| rule      | informed | energy max | energy avg | collisions |");
    println!("|-----------|----------|------------|------------|------------|");
    for rule in [
        CollisionRule::Local,
        CollisionRule::Detection,
        CollisionRule::Silence,
    ] {
        let out = radio::run(&sim, rule, |ctx| {
            let payload = (ctx.node.raw() == 0).then_some(42);
            RadioBroadcast::new(specs[ctx.node.index()].clone(), payload)
        })?;
        let informed = out.states.iter().filter(|s| s.value == Some(42)).count();
        println!(
            "| {:<9} | {informed:>5}/{n:<2} | {:>10} | {:>10.2} | {:>10} |",
            format!("{rule:?}"),
            out.stats.energy_max(),
            out.stats.energy_avg(),
            out.radio.collisions,
        );
    }

    println!("\nupcast-min over the same tree:");
    println!("| rule      | root got min | energy max | collisions |");
    println!("|-----------|--------------|------------|------------|");
    let values: Vec<u64> = (0..n as u64).map(|i| 1000 - 13 * i).collect();
    let expected = *values.iter().min().unwrap();
    for rule in [
        CollisionRule::Local,
        CollisionRule::Detection,
        CollisionRule::Silence,
    ] {
        let out = radio::run(&sim, rule, |ctx| {
            RadioUpcastMin::new(specs[ctx.node.index()].clone(), values[ctx.node.index()])
        })?;
        println!(
            "| {:<9} | {:>12} | {:>10} | {:>10} |",
            format!("{rule:?}"),
            out.states[0].value == expected,
            out.stats.energy_max(),
            out.radio.collisions,
        );
    }
    println!(
        "\nLocal = the sleeping model in disguise (same O(1) energy, same\n\
         schedule, everything works). Under real radio rules the same\n\
         schedule collides whenever a node has two transmitting neighbors\n\
         in one round — avoiding that costs extra time or energy, which is\n\
         the overhead Appendix A prices in."
    );
    Ok(())
}
