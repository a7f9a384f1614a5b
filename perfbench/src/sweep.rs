//! `table1-sweep`: the researcher's Table-1 job.
//!
//! All six registry algorithms run through
//! [`AlgorithmSpec::run_with_options`] on one thread with one reused
//! [`MstScratch`], with metrics recording and [`EnergyModel::reference`]
//! on (as in `sleeping-mst report`), over `scale:N:2`, `random:N:p` and
//! `ring:N` graphs on a geometric size ladder and a few seeds.

use std::collections::BTreeMap;

use graphlib::{mst, EdgeId, UnionFind, WeightedGraph};
use mst_core::{AlgorithmSpec, ExecOptions, MstScratch, ALGORITHMS};
use netsim::EnergyModel;

use crate::clock::{secs, Clock};
use crate::common::{
    common_layers, init_seconds, median, mix, repeat_until, Outcome, Settings, Totals,
};
use crate::summary::{EndToEnd, Layer};
use crate::trace::{name_total, self_times, Span, Tracer};

/// Workload name.
pub const NAME: &str = "table1-sweep";

/// Graph families, as spec-string prefixes.
const FAMILIES: [&str; 3] = ["scale", "random", "ring"];

/// Seeds per (family, algorithm, size) cell.
const SEEDS: u64 = 3;

/// Size ladder per algorithm: `prim` and `always-awake` cost Θ(n) awake
/// rounds per node, so they get smaller sizes and no algorithm dominates
/// the grid's wall time.
pub fn ladder(alg: &str) -> &'static [usize] {
    match alg {
        "prim" | "always-awake" => &[16, 32, 64],
        _ => &[32, 128, 512],
    }
}

/// The spec string of family `family` at size `n`. Random graphs keep
/// the expected degree near 8 at every size.
pub fn family_spec(family: &str, n: usize) -> String {
    match family {
        "scale" => format!("scale:{n}:2"),
        "random" => format!("random:{n}:{}", 8.0 / n as f64),
        _ => format!("ring:{n}"),
    }
}

/// One input graph of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Graph spec string.
    pub spec: String,
    /// Generator seed.
    pub graph_seed: u64,
}

/// One registry run of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Index into [`Plan::cases`].
    pub case: usize,
    /// Registry entry.
    pub alg: &'static AlgorithmSpec,
    /// Algorithm seed.
    pub seed: u64,
}

/// The grid a workload seed expands to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Distinct graphs.
    pub cases: Vec<Case>,
    /// Runs, in execution order.
    pub cells: Vec<Cell>,
}

/// FNV-1a 64 of a string.
fn fnv(s: &str) -> u64 {
    mst_core::wire::fnv64(s.as_bytes())
}

/// Expands a workload seed into the grid. Sizes and families are fixed;
/// the seed picks graph and algorithm seeds.
pub fn plan(seed: u64) -> Plan {
    let mut cases: Vec<Case> = Vec::new();
    let mut cells = Vec::new();
    for family in FAMILIES {
        for (a, alg) in ALGORITHMS.iter().enumerate() {
            for &n in ladder(alg.name) {
                for s in 0..SEEDS {
                    let spec = family_spec(family, n);
                    let graph_seed = mix(seed ^ fnv(&spec) ^ mix(s));
                    let case = match cases
                        .iter()
                        .position(|c| c.spec == spec && c.graph_seed == graph_seed)
                    {
                        Some(i) => i,
                        None => {
                            cases.push(Case { spec, graph_seed });
                            cases.len() - 1
                        }
                    };
                    cells.push(Cell {
                        case,
                        alg,
                        seed: mix(graph_seed ^ (a as u64 + 1)),
                    });
                }
            }
        }
    }
    Plan { cases, cells }
}

/// A built graph with its reference MST.
struct Built {
    graph: WeightedGraph,
    mst: Vec<EdgeId>,
}

fn options(seed: u64) -> ExecOptions {
    ExecOptions::seeded(seed)
        .with_metrics()
        .with_energy(EnergyModel::reference())
}

/// Builds every graph and its Kruskal reference, then warms the scratch
/// with each algorithm's largest cell, so the timed passes start with
/// every buffer at its high-water mark.
fn setup(plan: &Plan, tracer: &mut Tracer, scratch: &mut MstScratch) -> Result<Vec<Built>, String> {
    let mut built = Vec::with_capacity(plan.cases.len());
    for (i, case) in plan.cases.iter().enumerate() {
        let graph = tracer.span("graphlib.build", "", i as u64, || {
            graphlib::generators::from_spec(&case.spec, case.graph_seed)
        })?;
        let mst = tracer.span("graphlib.kruskal", "", i as u64, || {
            mst::kruskal(&graph).edges
        });
        built.push(Built { graph, mst });
    }
    for alg in ALGORITHMS {
        let largest = plan
            .cells
            .iter()
            .filter(|c| c.alg == alg)
            .max_by_key(|c| built[c.case].graph.edge_count());
        if let Some(cell) = largest {
            let graph = &built[cell.case].graph;
            tracer
                .span("warmup", alg.name, 0, || {
                    alg.run_with_options(graph, &options(cell.seed), scratch)
                })
                .map_err(|e| {
                    format!(
                        "warm-up {} on {}: {e}",
                        alg.name, plan.cases[cell.case].spec
                    )
                })?;
        }
    }
    Ok(built)
}

/// Runs [`setup`] and appends its duration to `setup_s`.
fn timed_setup(
    plan: &Plan,
    clock: &Clock,
    tracer: &mut Tracer,
    scratch: &mut MstScratch,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<Built>, String> {
    let start = clock.now_ns();
    let built = setup(plan, tracer, scratch)?;
    setup_s.push(clock.secs_since(start));
    Ok(built)
}

/// Whether `edges` span the connected graph `g`.
fn spans(g: &WeightedGraph, edges: &[EdgeId]) -> bool {
    let mut uf = UnionFind::new(g.node_count());
    for &id in edges {
        let e = g.edge(id);
        uf.union(e.u.index(), e.v.index());
    }
    edges.len() + 1 == g.node_count() && uf.set_count() == 1
}

/// Per-algorithm work of one pass.
#[derive(Debug, Clone, Copy, Default)]
struct AlgCost {
    messages: u64,
    awake_node_rounds: u64,
}

/// What one pass over the grid measured.
struct Pass {
    grid_ns: u64,
    latencies_ms: Vec<f64>,
    totals: Totals,
    by_alg: BTreeMap<&'static str, AlgCost>,
}

fn pass(
    k: usize,
    plan: &Plan,
    built: &[Built],
    clock: &Clock,
    tracer: &mut Tracer,
    scratch: &mut MstScratch,
    out: &mut Outcome,
) -> Pass {
    let mut p = Pass {
        grid_ns: 0,
        latencies_ms: Vec::with_capacity(plan.cells.len()),
        totals: Totals::default(),
        by_alg: BTreeMap::new(),
    };
    let root = tracer.begin("sweep.pass", "", k as u64);
    let grid_start = clock.now_ns();
    for (i, cell) in plan.cells.iter().enumerate() {
        let run_id = ((k as u64) << 20) | i as u64;
        let b = &built[cell.case];
        let cell_span = tracer.begin("sweep.cell", cell.alg.name, run_id);
        let t0 = clock.now_ns();
        let result = tracer.span("mst_core.run", cell.alg.name, run_id, || {
            cell.alg
                .run_with_options(&b.graph, &options(cell.seed), scratch)
        });
        let phases = match &result {
            Ok(o) => tracer.span("mst_core.phase_totals", "", run_id, || {
                cell.alg.phase_totals(&b.graph, &o.metrics)
            }),
            Err(_) => Vec::new(),
        };
        let t1 = clock.now_ns();
        tracer.end(cell_span);
        p.latencies_ms.push((t1 - t0) as f64 / 1e6);
        let label = || {
            format!(
                "{} on {} (seed {})",
                cell.alg.name, plan.cases[cell.case].spec, cell.seed
            )
        };
        match result {
            Ok(o) => {
                let tree_ok = if cell.alg.produces_mst {
                    o.edges == b.mst
                } else {
                    spans(&b.graph, &o.edges)
                };
                out.check(tree_ok, || format!("{}: wrong tree", label()));
                out.check(o.stats.messages_lost == 0, || {
                    format!("{}: {} messages lost", label(), o.stats.messages_lost)
                });
                out.check(!phases.is_empty(), || {
                    format!("{}: no phase totals", label())
                });
                p.totals.add(&o.stats);
                let c = p.by_alg.entry(cell.alg.name).or_default();
                c.messages += o.stats.messages_sent();
                c.awake_node_rounds += o.stats.awake_total();
            }
            Err(e) => {
                out.error(format!("{}: {e}", label()));
            }
        }
    }
    p.grid_ns = clock.now_ns() - grid_start;
    tracer.end(root);
    p
}

/// Per-layer metrics of a traced run, from span self times averaged over
/// the `traced` passes and the `traced + 1` setups that recorded spans
/// (work counts repeat exactly from pass to pass, so `one` pass supplies
/// them).
fn layers(
    spans: &[Span],
    one: &Pass,
    traced: usize,
    bytes_per_node: f64,
    init_s: f64,
) -> Vec<Layer> {
    let times = self_times(spans);
    let per_pass = |ns: u64| ns as f64 / traced as f64;
    let moves = "wall_s on table1-sweep, p99_ms on serve-mix";
    let mut per_alg = Vec::new();
    let mut run_ns = 0.0;
    for alg in ALGORITHMS {
        let ns = per_pass(times.get(&("mst_core.run", alg.name)).copied().unwrap_or(0));
        run_ns += ns;
        let c = one.by_alg.get(alg.name).copied().unwrap_or_default();
        per_alg.push(Layer::new(
            format!("mst_core.run_s.{}", alg.name),
            "s",
            ns / 1e9,
            moves,
        ));
        per_alg.push(Layer::new(
            format!("mst_core.ns_per_msg.{}", alg.name),
            "ns",
            ns / c.messages as f64,
            moves,
        ));
        per_alg.push(Layer::new(
            format!("mst_core.ns_per_awake_node_round.{}", alg.name),
            "ns",
            ns / c.awake_node_rounds as f64,
            moves,
        ));
    }
    let phase_s = per_pass(name_total(&times, "mst_core.phase_totals")) / 1e9;
    per_alg.push(Layer::new(
        "mst_core.phase_totals_s",
        "s",
        phase_s,
        "wall_s on table1-sweep",
    ));
    let build_s = secs(name_total(&times, "graphlib.build")) / (traced + 1) as f64;
    let mut all = common_layers(
        build_s,
        bytes_per_node,
        init_s,
        run_ns as u64,
        &one.totals,
        moves,
    );
    all.extend(per_alg);
    all
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Clock) -> Outcome {
    let mut out = Outcome::default();
    let plan = plan(settings.seed);
    let mut scratch = MstScratch::new();
    let mut setup_s = Vec::new();
    let mut tracer = Tracer::new(*clock, settings.trace, 1 << 32);
    let mut built = match timed_setup(&plan, clock, &mut tracer, &mut scratch, &mut setup_s) {
        Ok(b) => b,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let mut spans = tracer.into_spans();
    let largest = built
        .iter()
        .max_by_key(|b| b.graph.memory_bytes())
        .expect("the grid has graphs");
    let bytes_per_node = largest.graph.memory_bytes() as f64 / largest.graph.node_count() as f64;
    let init_s = init_seconds(clock, &largest.graph);

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let start = clock.now_ns();
    repeat_until(clock, start, settings.seconds, 2, |k| {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let traced = settings.trace && k % 2 == 1;
        let mut tracer = Tracer::new(*clock, traced, (k as u64 + 8) << 40);
        if k > 0 {
            // Set up again before every later pass, so the setup_s samples
            // span the run as the pass walls do: the host's speed states
            // last seconds, longer than a few back-to-back setups.
            drop(std::mem::take(&mut built));
            match timed_setup(&plan, clock, &mut tracer, &mut scratch, &mut setup_s) {
                Ok(b) => built = b,
                Err(e) => {
                    out.error(e);
                    return;
                }
            }
        }
        let p = pass(k, &plan, &built, clock, &mut tracer, &mut scratch, &mut out);
        if traced {
            traced_walls.push(secs(p.grid_ns));
        } else {
            untraced_walls.push(secs(p.grid_ns));
        }
        spans.extend(tracer.into_spans());
        passes.push(p);
    });

    let first = passes[0].totals;
    for (k, p) in passes.iter().enumerate().skip(1) {
        out.check(p.totals == first, || {
            format!("pass {k}: counters differ from pass 0")
        });
    }
    let rss_mb = crate::host::peak_rss_bytes() as f64 / 1e6;
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.grid_ns)).collect();
    let msgs: Vec<f64> = passes
        .iter()
        .map(|p| first.messages as f64 / secs(p.grid_ns))
        .collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| plan.cells.len() as f64 / secs(p.grid_ns))
        .collect();
    out.end_to_end = vec![
        EndToEnd::median(
            "setup_s",
            "s",
            "build every grid graph + Kruskal reference + scratch warm-up, before every pass",
            &setup_s,
        ),
        EndToEnd::mean("wall_s", "s", "one serial pass over the fixed grid", &walls),
        EndToEnd::rate(
            "msgs_per_s",
            "1/s",
            "simulated messages per host second, serial grid pass",
            &msgs,
        ),
        EndToEnd::rate(
            "sharded_msgs_per_s",
            "1/s",
            "the sweep runs serial: msgs_per_s again (the result line carries every name)",
            &msgs,
        ),
        EndToEnd::median(
            "p50_ms",
            "ms",
            "latency of one registry run (run + phase totals)",
            &latencies,
        ),
        EndToEnd::tail(
            "p99_ms",
            "ms",
            "tail latency of one registry run",
            &latencies,
        ),
        EndToEnd::rate("req_per_s", "1/s", "registry runs per host second", &rates),
        EndToEnd::median("peak_rss_mb", "MB", "process peak resident set", &[rss_mb]),
    ];
    out.counters = first.named("mst_core");
    out.notes.push(format!(
        "grid: {} graphs, {} runs per pass ({} families x 6 algorithms x ladder x {SEEDS} seeds), {} passes",
        plan.cases.len(),
        plan.cells.len(),
        FAMILIES.len(),
        passes.len()
    ));
    out.notes
        .push("ladders: prim/always-awake n=16,32,64; others n=32,128,512".to_string());

    if settings.trace {
        out.layers = layers(
            &spans,
            &passes[0],
            traced_walls.len(),
            bytes_per_node,
            init_s,
        );
        out.trace_overhead_s = Some(median(&traced_walls) - median(&untraced_walls));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_a_pure_function_of_the_seed() {
        let a = plan(11);
        assert_eq!(a, plan(11));
        let b = plan(12);
        assert_ne!(a, b);
        // The shape is fixed; only graph and algorithm seeds move.
        assert_eq!(a.cells.len(), b.cells.len());
        assert_eq!(a.cases.len(), b.cases.len());
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.spec, y.spec);
        }
        // 3 families × 6 algorithms × 3 sizes × SEEDS seeds.
        assert_eq!(a.cells.len(), 3 * 6 * 3 * SEEDS as usize);
    }

    #[test]
    fn random_family_specs_parse() {
        for n in [16, 32, 64, 128, 512] {
            let spec = family_spec("random", n);
            let g = graphlib::generators::from_spec(&spec, 1).expect("spec parses");
            assert_eq!(g.node_count(), n);
        }
    }
}
