//! Criterion benches of the executor hot path: pooled-scratch runs
//! (outbox/arena/stats buffers reused across iterations, the sweep
//! harness's configuration) against allocate-fresh runs, reported as
//! messages-per-second throughput — plus the time-driver pair
//! (calendar vs sync) on the sparse-wake workload of `bench-engine`.
//!
//! `cargo bench --bench engine_hotpath` — the CI `bench-baseline` step
//! runs exactly this in quick mode alongside `sleeping-mst bench-engine
//! --out BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphlib::generators;
use mst_core::{registry, ExecOptions, MstScratch};
use netsim::{
    Envelope, Executor, ExecutorScratch, NextWake, NodeCtx, Outbox, Protocol, Round, SimConfig,
    Simulator,
};

/// The randomized-panel graph family of `table1` (sparse G(n, 0.05)).
fn panel_graph(n: usize) -> graphlib::WeightedGraph {
    generators::random_connected(n, 0.05, n as u64).unwrap()
}

fn bench_pooled_vs_fresh(c: &mut Criterion) {
    let spec = registry::find("randomized").unwrap();
    let mut group = c.benchmark_group("engine_hotpath");
    group.sample_size(10);
    for &n in &[64usize, 256] {
        let g = panel_graph(n);
        // Message traffic is deterministic in (graph, seed), so one probe
        // run fixes the per-iteration element count for the rate report.
        let probe = spec.run(&g, 1).unwrap();
        group.throughput(Throughput::Elements(probe.stats.messages_delivered));

        group.bench_with_input(BenchmarkId::new("pooled", n), &g, |b, g| {
            let mut scratch = MstScratch::new();
            let opts = ExecOptions::seeded(1);
            b.iter(|| spec.run_with_options(g, &opts, &mut scratch).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fresh", n), &g, |b, g| {
            b.iter(|| spec.run(g, 1).unwrap())
        });
    }
    group.finish();
}

fn bench_trace_off_accounting(c: &mut Criterion) {
    // The always-awake baseline maximizes delivery volume per round —
    // the configuration most sensitive to per-message accounting costs.
    let spec = registry::find("always-awake").unwrap();
    let mut group = c.benchmark_group("engine_hotpath_dense");
    group.sample_size(10);
    let n = 128usize;
    let g = panel_graph(n);
    let probe = spec.run(&g, 1).unwrap();
    group.throughput(Throughput::Elements(probe.stats.messages_delivered));
    group.bench_with_input(BenchmarkId::new("pooled", n), &g, |b, g| {
        let mut scratch = MstScratch::new();
        let opts = ExecOptions::seeded(1);
        b.iter(|| spec.run_with_options(g, &opts, &mut scratch).unwrap())
    });
    group.finish();
}

fn bench_metrics_on_off(c: &mut Criterion) {
    // The observability plane's cost contract: with `record_metrics` off
    // the recorder is never constructed, so "off" must track the plain
    // pooled run; "on" pays one branch per message plus the per-round
    // report push. (Off-switch *equivalence* — identical stats and edges
    // either way — is pinned in `tests/metrics_conservation.rs`.)
    let spec = registry::find("randomized").unwrap();
    let mut group = c.benchmark_group("engine_hotpath_metrics");
    group.sample_size(10);
    let n = 256usize;
    let g = panel_graph(n);
    let probe = spec.run(&g, 1).unwrap();
    group.throughput(Throughput::Elements(probe.stats.messages_delivered));
    group.bench_with_input(BenchmarkId::new("off", n), &g, |b, g| {
        let mut scratch = MstScratch::new();
        let opts = ExecOptions::seeded(1);
        b.iter(|| spec.run_with_options(g, &opts, &mut scratch).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("on", n), &g, |b, g| {
        let mut scratch = MstScratch::new();
        let opts = ExecOptions::seeded(1).with_metrics();
        b.iter(|| spec.run_with_options(g, &opts, &mut scratch).unwrap())
    });
    group.finish();
}

fn bench_sync_vs_calendar_drivers(c: &mut Criterion) {
    /// Mirror of the `bench-engine` panel workload (see
    /// `bench::engine_panel`): every node wakes a handful of times with
    /// huge gaps between wakes, so wall-clock is dominated by how the
    /// driver crosses silent rounds — one heap pop for the calendar
    /// driver, one tick per round for the synchronous driver.
    #[derive(Debug)]
    struct Sparse {
        state: u64,
        remaining: u32,
        max_gap: u64,
    }
    impl Sparse {
        fn gap(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            1 + (z ^ (z >> 31)) % self.max_gap
        }
    }
    impl Protocol for Sparse {
        type Msg = u64;
        fn init(&mut self, _: &NodeCtx) -> NextWake {
            NextWake::At(self.gap())
        }
        fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<u64>) {
            if let Some(p) = ctx.ports().next() {
                outbox.push(p, round);
            }
        }
        fn deliver(&mut self, _: &NodeCtx, round: Round, _: &[Envelope<u64>]) -> NextWake {
            self.remaining -= 1;
            if self.remaining == 0 {
                NextWake::Halt
            } else {
                NextWake::At(round + self.gap())
            }
        }
    }

    let n = 4096usize;
    let g = generators::ring(n, 1).unwrap();
    let max_gap = 64 * n as u64;
    let factory = move |ctx: &NodeCtx| Sparse {
        state: ctx.rng_seed,
        remaining: 3,
        max_gap,
    };
    let mut group = c.benchmark_group("engine_hotpath_drivers");
    group.sample_size(10);
    // Both drivers cover the same round span (bit-identical stats — see
    // `crates/netsim/tests/differential.rs`), so rounds/sec is the fair
    // common rate.
    let probe = Simulator::new(&g, SimConfig::default().with_executor(Executor::Calendar))
        .run(factory)
        .unwrap();
    group.throughput(Throughput::Elements(probe.stats.rounds));
    for executor in [Executor::Calendar, Executor::Sync] {
        group.bench_with_input(BenchmarkId::new(executor.as_str(), n), &g, |b, g| {
            b.iter(|| {
                Simulator::new(g, SimConfig::default().with_executor(executor))
                    .run(factory)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_setup_cost(c: &mut Criterion) {
    // Kernel setup must stay O(n + m) flat arrays with no per-node
    // allocation. A protocol that halts at init isolates graph build +
    // kernel init (contexts, wake queue, stamp/slot tables) from the
    // message loop, and the bytes/node guard turns a layout regression
    // (per-node `Vec`s creeping back into the graph or the kernel) into
    // a hard bench failure instead of a silent slowdown.
    #[derive(Debug)]
    struct HaltAtInit;
    impl Protocol for HaltAtInit {
        type Msg = u64;
        fn init(&mut self, _: &NodeCtx) -> NextWake {
            NextWake::Halt
        }
        fn send(&mut self, _: &NodeCtx, _: Round, _: &mut Outbox<u64>) {}
        fn deliver(&mut self, _: &NodeCtx, _: Round, _: &[Envelope<u64>]) -> NextWake {
            NextWake::Halt
        }
    }

    let n = 1usize << 16;
    let g = generators::chorded_cycle(n, 2, 1).unwrap();
    // Exact CSR footprint for the c = 2 chorded cycle (m = 3n): edges at
    // 16 B, 2m port entries at 24 B, n+1 offsets at 4 B, n external ids
    // at 8 B ≈ 204 B/node. 256 leaves slack for per-vector rounding but
    // fails loudly if any O(n)-allocation structure reappears.
    let bytes_per_node = g.memory_bytes() as f64 / n as f64;
    assert!(
        bytes_per_node <= 256.0,
        "graph setup regression: {bytes_per_node:.1} bytes/node exceeds the 256 B budget"
    );

    let mut group = c.benchmark_group("engine_setup");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("graph_build", n), |b| {
        b.iter(|| generators::chorded_cycle(n, 2, 1).unwrap())
    });
    group.bench_function(BenchmarkId::new("kernel_init", n), |b| {
        let mut scratch = ExecutorScratch::new();
        b.iter(|| {
            Simulator::new(&g, SimConfig::default())
                .run_with_scratch(&mut scratch, |_| HaltAtInit)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pooled_vs_fresh,
    bench_trace_off_accounting,
    bench_metrics_on_off,
    bench_sync_vs_calendar_drivers,
    bench_setup_cost
);
criterion_main!(benches);
