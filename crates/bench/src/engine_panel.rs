//! Driver-throughput panel: a sparse-wake protocol that stresses the
//! time drivers themselves rather than any MST logic.
//!
//! The registry algorithms wake their nodes too densely to separate the
//! drivers — on the standard sweeps a run simulates only ~40 rounds per
//! node-awake event, so the round-synchronous driver's extra cost (one
//! silent tick per empty round) drowns in protocol work. This panel runs
//! the opposite regime, the one the sleeping model is *about*: each node
//! wakes only [`EnginePanelSpec::wakes`] times, with seed-chosen gaps of
//! up to `gap_per_node · n` rounds between wakes, and sends a single
//! cheap message per wake. Total rounds then exceed total wake events by
//! a factor of ~`gap_per_node`, which is exactly where the calendar
//! driver's calendar jump (`O(1)` amortized per *wake*) beats the synchronous
//! driver's tick loop (`O(1)` per *round*).
//!
//! The naive `O(n)`-scan oracle driver costs `O(rounds · n)` here, which
//! is astronomical at panel sizes — include [`netsim::Executor::Naive`]
//! in a spec only at small `n`.
//!
//! The `bench-engine` CLI subcommand renders this panel as
//! `BENCH_engine.json`; `EXPERIMENTS.md` tabulates the resulting
//! calendar-vs-sync wall-clock win across `n`.
//!
//! The scale campaign added a second workload: **wave**, in which every
//! node wakes in the same synchronized rounds (the opposite regime from
//! sparse wakes — maximally wide rounds on a streaming-built chorded
//! cycle). Wide rounds are where [`netsim::SimConfig::shards`] can win,
//! so the wave rows sweep shard counts and the panel asserts
//! bit-identical [`netsim::RunStats`] across them, exactly as it does
//! across drivers.

use graphlib::{generators, GraphBuilder, Port, WeightedGraph};
use netsim::{
    EnergyModel, Executor, NextWake, NodeCtx, Outbox, Protocol, Round, SimConfig, Simulator,
};

/// What the panel sweeps: sizes × drivers for the sparse workload, sizes
/// × shard counts for the wave workload, plus the wake-schedule shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePanelSpec {
    /// Node counts to run the sparse workload on (one graph per size).
    pub sizes: Vec<usize>,
    /// Drivers to time on each sparse size.
    pub executors: Vec<Executor>,
    /// Master seed: graph structure and every node's wake schedule
    /// derive from it, so the simulated work is identical across drivers
    /// (the panel asserts this by comparing [`netsim::RunStats`]).
    pub seed: u64,
    /// Awake rounds per node before it halts.
    pub wakes: u32,
    /// Maximum sleep gap between a node's wakes, in units of `n` rounds.
    pub gap_per_node: u64,
    /// Node counts to run the wave workload on (empty = no wave rows).
    pub wave_sizes: Vec<usize>,
    /// Shard counts to time on each wave size; `1` is the serial
    /// baseline the speedup column is measured against.
    pub shards: Vec<u32>,
    /// Optional pricing model charged inside the kernel. When set, every
    /// row carries an `energy_total` ledger sum, and the panel's existing
    /// cross-driver / cross-shard [`netsim::RunStats`] equality check
    /// extends to the per-node energy ledger for free (the ledger lives
    /// in the stats).
    pub energy: Option<EnergyModel>,
}

impl Default for EnginePanelSpec {
    fn default() -> Self {
        EnginePanelSpec {
            sizes: vec![1 << 14],
            executors: vec![Executor::Calendar, Executor::Sync],
            seed: 0,
            wakes: 3,
            gap_per_node: 4096,
            wave_sizes: Vec::new(),
            shards: vec![1],
            energy: Some(EnergyModel::reference()),
        }
    }
}

/// One timed panel cell: a sparse (size, driver) pair at `shards = 1`,
/// or a wave (size, shard-count) pair under the calendar driver.
#[derive(Debug, Clone)]
pub struct EnginePanelRow {
    /// Which workload produced the row: `"sparse"` or `"wave"`.
    pub workload: &'static str,
    /// Node count.
    pub n: usize,
    /// The driver timed.
    pub executor: Executor,
    /// Send-half-step shard count the row was timed with.
    pub shards: u32,
    /// Simulated rounds until the last node halted.
    pub rounds: u64,
    /// Messages sent (delivered + lost to sleeping receivers).
    pub messages: u64,
    /// Heap bytes of the CSR graph representation
    /// ([`netsim::RunStats::graph_bytes`]).
    pub graph_bytes: u64,
    /// Graph bytes per node — the scale campaign's memory budget column.
    pub bytes_per_node: f64,
    /// Ledger sum under [`EnginePanelSpec::energy`] (0 with no model).
    /// Deterministic in the spec seed, like `rounds` and `messages`.
    pub energy_total: u64,
    /// Wall-clock seconds for the simulation call.
    pub wall_seconds: f64,
    /// Simulated rounds per wall-clock second.
    pub rounds_per_sec: f64,
    /// Messages per wall-clock second.
    pub messages_per_sec: f64,
}

/// SplitMix64 step — the panel's only randomness source, keyed off the
/// spec seed and each node's [`NodeCtx::rng_seed`].
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The panel protocol: wake a few times with huge seed-chosen gaps, send
/// one message per wake, halt. All scheduling state derives from the
/// node's `rng_seed`, so every driver simulates the identical run.
struct SparseWake {
    state: u64,
    remaining: u32,
    max_gap: u64,
}

impl SparseWake {
    fn new(ctx: &NodeCtx, wakes: u32, max_gap: u64) -> Self {
        SparseWake {
            state: ctx.rng_seed,
            remaining: wakes,
            max_gap: max_gap.max(1),
        }
    }

    /// Next sleep gap in `[1, max_gap]`.
    fn gap(&mut self) -> u64 {
        self.state = mix(self.state);
        1 + self.state % self.max_gap
    }
}

impl Protocol for SparseWake {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        if self.remaining == 0 {
            return NextWake::Halt;
        }
        NextWake::At(self.gap())
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<u64>) {
        if ctx.degree() > 0 {
            self.state = mix(self.state);
            let port = Port::new((self.state % ctx.degree() as u64) as u32);
            outbox.push(port, self.state);
        }
    }

    fn deliver(
        &mut self,
        _ctx: &NodeCtx,
        round: Round,
        _inbox: &[netsim::Envelope<u64>],
    ) -> NextWake {
        self.remaining -= 1;
        if self.remaining == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + self.gap())
        }
    }
}

/// Rounds between the wave workload's synchronized wakes. Large enough
/// that the calendar driver still exercises its jump path between
/// waves; irrelevant to the per-wave send cost the shard sweep times.
const WAVE_GAP: u64 = 64;

/// The wave workload: every node wakes in the same rounds
/// (`WAVE_GAP, 2·WAVE_GAP, …`), sends one seed-derived message on every
/// port, and halts after [`EnginePanelSpec::wakes`] waves. Each active
/// round has all `n` nodes awake — the maximally wide regime where the
/// sharded send half-step can spread work across cores.
struct WaveWake {
    state: u64,
    remaining: u32,
}

impl WaveWake {
    fn new(ctx: &NodeCtx, wakes: u32) -> Self {
        WaveWake {
            state: ctx.rng_seed,
            remaining: wakes,
        }
    }
}

impl Protocol for WaveWake {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        if self.remaining == 0 {
            return NextWake::Halt;
        }
        NextWake::At(WAVE_GAP)
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<u64>) {
        for port in ctx.ports() {
            self.state = mix(self.state);
            outbox.push(port, self.state);
        }
    }

    fn deliver(
        &mut self,
        _ctx: &NodeCtx,
        round: Round,
        _inbox: &[netsim::Envelope<u64>],
    ) -> NextWake {
        self.remaining -= 1;
        if self.remaining == 0 {
            NextWake::Halt
        } else {
            NextWake::At(round + WAVE_GAP)
        }
    }
}

/// Builds the panel graph for one size: a seeded random recursive tree
/// plus ~2·n extra random edges — sparse, connected, built in
/// `O(n log n)` so sizes up to `2^17` stay cheap (the workspace's
/// `random_connected` generator Bernoulli-samples all `n²` pairs, which
/// does not).
fn panel_graph(n: usize, seed: u64) -> Result<WeightedGraph, String> {
    let mut state = mix(seed ^ 0x5eed_9a9e);
    let mut step = || {
        state = mix(state);
        state
    };
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(3 * n);
    for i in 1..n as u32 {
        let j = (step() % u64::from(i)) as u32;
        pairs.push((j, i));
    }
    for _ in 0..2 * n {
        let u = (step() % n as u64) as u32;
        let v = (step() % n as u64) as u32;
        if u != v {
            pairs.push((u.min(v), u.max(v)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut b = GraphBuilder::new(n);
    for (k, &(u, v)) in pairs.iter().enumerate() {
        b.edge(u, v, 1 + k as u64);
    }
    b.build().map_err(|e| e.to_string())
}

/// Runs the full panel: sizes outermost, drivers innermost, so each
/// size's graph is built once and every driver times the identical
/// simulated run. Cross-driver [`netsim::RunStats`] equality is checked
/// against the first driver of each size; a mismatch is an error (it
/// would make the throughput comparison meaningless).
///
/// # Errors
///
/// Graph construction and simulation errors, stringified with their
/// panel coordinates, and any cross-driver stats divergence.
pub fn run_engine_panel(spec: &EnginePanelSpec) -> Result<Vec<EnginePanelRow>, String> {
    let mut rows = Vec::new();
    for &n in &spec.sizes {
        let graph = panel_graph(n.max(1), spec.seed)?;
        let max_gap = spec.gap_per_node.saturating_mul(n.max(1) as u64);
        let mut reference: Option<netsim::RunStats> = None;
        for &executor in &spec.executors {
            let mut config = SimConfig::default()
                .with_seed(spec.seed)
                .with_executor(executor);
            if let Some(model) = spec.energy {
                config = config.with_energy(model);
            }
            let sim = Simulator::new(&graph, config);
            // lint:allow(wall-clock) -- the panel's whole point is real elapsed time per driver
            let started = std::time::Instant::now();
            let out = sim
                .run(|ctx| SparseWake::new(ctx, spec.wakes, max_gap))
                .map_err(|e| format!("engine panel n={n} {executor}: {e}"))?;
            let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
            match &reference {
                None => reference = Some(out.stats.clone()),
                Some(first) => {
                    if *first != out.stats {
                        return Err(format!(
                            "engine panel n={n}: {executor} diverged from {} \
                             ({:?} vs {:?})",
                            spec.executors[0], out.stats, first
                        ));
                    }
                }
            }
            let messages = out.stats.messages_delivered + out.stats.messages_lost;
            rows.push(EnginePanelRow {
                workload: "sparse",
                n,
                executor,
                shards: 1,
                rounds: out.stats.rounds,
                messages,
                graph_bytes: out.stats.graph_bytes,
                bytes_per_node: out.stats.graph_bytes as f64 / n.max(1) as f64,
                energy_total: out.stats.energy_total(),
                wall_seconds,
                rounds_per_sec: out.stats.rounds as f64 / wall_seconds,
                messages_per_sec: messages as f64 / wall_seconds,
            });
        }
    }
    for &n in &spec.wave_sizes {
        // Streaming CSR construction: the chorded cycle never
        // materializes an edge list, so the only O(m) memory is the
        // graph's own CSR arrays (`graph_bytes` reports them).
        let graph = generators::chorded_cycle(n.max(8), 2, spec.seed)
            .map_err(|e| format!("engine panel wave n={n}: {e}"))?;
        let mut reference: Option<netsim::RunStats> = None;
        for &shards in &spec.shards {
            let mut config = SimConfig::default()
                .with_seed(spec.seed)
                .with_shards(shards);
            if let Some(model) = spec.energy {
                config = config.with_energy(model);
            }
            let sim = Simulator::new(&graph, config);
            // lint:allow(wall-clock) -- the shard sweep times real elapsed time per shard count
            let started = std::time::Instant::now();
            let out = sim
                .run(|ctx| WaveWake::new(ctx, spec.wakes))
                .map_err(|e| format!("engine panel wave n={n} shards={shards}: {e}"))?;
            let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
            match &reference {
                None => reference = Some(out.stats.clone()),
                Some(first) => {
                    if *first != out.stats {
                        return Err(format!(
                            "engine panel wave n={n}: shards={shards} diverged from \
                             shards={} ({:?} vs {:?})",
                            spec.shards[0], out.stats, first
                        ));
                    }
                }
            }
            let messages = out.stats.messages_delivered + out.stats.messages_lost;
            rows.push(EnginePanelRow {
                workload: "wave",
                n,
                executor: Executor::Calendar,
                shards,
                rounds: out.stats.rounds,
                messages,
                graph_bytes: out.stats.graph_bytes,
                bytes_per_node: out.stats.graph_bytes as f64 / n.max(1) as f64,
                energy_total: out.stats.energy_total(),
                wall_seconds,
                rounds_per_sec: out.stats.rounds as f64 / wall_seconds,
                messages_per_sec: messages as f64 / wall_seconds,
            });
        }
    }
    Ok(rows)
}

/// Renders panel rows as a JSON array (the `BENCH_engine.json` artifact).
/// Only the wall-clock fields vary run to run; `n`, `executor`,
/// `rounds`, and `messages` are deterministic in the spec seed.
pub fn render_engine_panel_json(rows: &[EnginePanelRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"n\":{},\"executor\":\"{}\",\"shards\":{},\
                 \"rounds\":{},\"messages\":{},\"graph_bytes\":{},\
                 \"bytes_per_node\":{:.2},\"energy_total\":{},\"wall_seconds\":{:.6},\
                 \"rounds_per_sec\":{:.1},\"messages_per_sec\":{:.1}}}",
                r.workload,
                r.n,
                r.executor,
                r.shards,
                r.rounds,
                r.messages,
                r.graph_bytes,
                r.bytes_per_node,
                r.energy_total,
                r.wall_seconds,
                r.rounds_per_sec,
                r.messages_per_sec,
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_graph_is_connected_and_sparse() {
        let g = panel_graph(64, 3).unwrap();
        assert_eq!(g.node_count(), 64);
        assert!(g.edge_count() >= 63);
        assert!(g.edge_count() <= 3 * 64);
        let mut uf = graphlib::UnionFind::new(64);
        for e in g.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn panel_rows_agree_across_all_three_drivers() {
        let spec = EnginePanelSpec {
            sizes: vec![32, 48],
            executors: vec![Executor::Calendar, Executor::Sync, Executor::Naive],
            seed: 9,
            wakes: 3,
            gap_per_node: 4,
            wave_sizes: vec![],
            shards: vec![1],
            energy: Some(EnergyModel::reference()),
        };
        let rows = run_engine_panel(&spec).unwrap();
        assert_eq!(rows.len(), 6);
        for chunk in rows.chunks(3) {
            assert_eq!(chunk[0].rounds, chunk[1].rounds);
            assert_eq!(chunk[0].rounds, chunk[2].rounds);
            assert_eq!(chunk[0].messages, chunk[1].messages);
            assert_eq!(chunk[0].messages, chunk[2].messages);
            assert!(chunk[0].energy_total > 0, "reference model charged");
            assert_eq!(chunk[0].energy_total, chunk[1].energy_total);
            assert_eq!(chunk[0].energy_total, chunk[2].energy_total);
            assert!(chunk[0].rounds > chunk[0].n as u64, "gaps were simulated");
        }
        let json = render_engine_panel_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"executor\"").count(), 6);
        assert_eq!(json.matches("\"energy_total\"").count(), 6);
    }

    /// Wave rows must agree bit-for-bit across shard counts, including
    /// counts that actually engage the parallel path (n = 256 ≥ the
    /// kernel's minimum-awake gate) and report the memory columns.
    #[test]
    fn wave_rows_agree_across_shard_counts() {
        let spec = EnginePanelSpec {
            sizes: vec![],
            executors: vec![],
            seed: 5,
            wakes: 2,
            gap_per_node: 4,
            wave_sizes: vec![256],
            shards: vec![1, 2, 3],
            energy: Some(EnergyModel::reference()),
        };
        let rows = run_engine_panel(&spec).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.workload, "wave");
            assert_eq!(row.rounds, rows[0].rounds);
            assert_eq!(row.messages, rows[0].messages);
            assert!(row.energy_total > 0);
            assert_eq!(row.energy_total, rows[0].energy_total);
            assert!(row.graph_bytes > 0);
            assert!(row.bytes_per_node > 0.0);
        }
        // Every node awake in every wave: messages = sum of degrees × waves.
        assert!(rows[0].messages >= 2 * 2 * 256);
        let json = render_engine_panel_json(&rows);
        assert_eq!(json.matches("\"workload\":\"wave\"").count(), 3);
        assert!(json.contains("\"graph_bytes\""));
    }

    #[test]
    fn sparse_wake_halts_every_node() {
        let g = panel_graph(16, 1).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(|ctx| SparseWake::new(ctx, 2, 40))
            .unwrap();
        assert_eq!(out.stats.awake_max(), 2);
        assert!(out.stats.rounds >= 2);
    }
}
