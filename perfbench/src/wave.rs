//! `wide-wave`: the kernel's send/route/sort/deliver path at scale.
//!
//! Every node wakes in the same round and sends one message per port,
//! through a benchmark-owned protocol on [`Simulator`], with no energy
//! model and no metrics. Each job runs the wave once at `shards = 1` and
//! once at `shards = 2` on a `scale:N:2` chorded cycle whose CSR graph is
//! at least four times the host's last-level cache, so the graph cannot
//! stay cache-resident. One [`ExecutorScratch`], warmed in setup, serves
//! every run, so a job times the kernel rather than the page faults of a
//! fresh gigabyte-sized delivery arena.

use graphlib::WeightedGraph;
use netsim::{
    Envelope, ExecutorScratch, NextWake, NodeCtx, Outbox, Protocol, Round, RunStats, SimConfig,
    Simulator,
};

use crate::clock::{secs, Clock};
use crate::common::{
    common_layers, init_seconds, median, mix, repeat_until, Outcome, Settings, Totals,
};
use crate::summary::{EndToEnd, Layer};
use crate::trace::{name_total, self_times, Span, Tracer};

/// Workload name.
pub const NAME: &str = "wide-wave";

/// Chords per node of the `scale:N:2` family.
const CHORDS: usize = 2;

/// Graph sizes are rounded up to a multiple of this.
const NODE_STEP: usize = 1 << 16;

/// Cache size assumed when sysfs reports none.
const FALLBACK_LLC: u64 = 32 << 20;

/// Setups (graph build + scratch warm-up) timed for `setup_s`; the
/// median is reported.
const SETUPS: usize = 3;

/// The wave protocol: wake in round 1, send one seed-derived message on
/// every port, halt after the delivery.
struct Wave {
    state: u64,
}

impl Protocol for Wave {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        NextWake::At(1)
    }

    fn send(&mut self, ctx: &NodeCtx, _round: Round, outbox: &mut Outbox<u64>) {
        for port in ctx.ports() {
            self.state = mix(self.state);
            outbox.push(port, self.state);
        }
    }

    fn deliver(&mut self, _ctx: &NodeCtx, _round: Round, _inbox: &[Envelope<u64>]) -> NextWake {
        NextWake::Halt
    }
}

/// Smallest multiple of [`NODE_STEP`] whose chorded cycle needs at least
/// `4 × llc_bytes` of CSR memory, given the family's bytes per node.
pub fn wave_nodes(llc_bytes: u64, bytes_per_node: f64) -> usize {
    let llc = if llc_bytes == 0 {
        FALLBACK_LLC
    } else {
        llc_bytes
    };
    let nodes = (4.0 * llc as f64 / bytes_per_node).ceil() as usize;
    nodes.div_ceil(NODE_STEP).max(1) * NODE_STEP
}

fn build(n: usize, seed: u64) -> Result<WeightedGraph, String> {
    graphlib::generators::chorded_cycle(n, CHORDS, seed)
        .map_err(|e| format!("scale:{n}:{CHORDS}: {e}"))
}

fn wave(
    graph: &WeightedGraph,
    seed: u64,
    shards: u32,
    scratch: &mut ExecutorScratch<u64>,
) -> Result<RunStats, String> {
    Simulator::new(
        graph,
        SimConfig::default().with_seed(seed).with_shards(shards),
    )
    .run_with_scratch(scratch, |ctx| Wave {
        state: ctx.rng_seed,
    })
    .map(|o| o.stats)
    .map_err(|e| format!("wave at shards={shards}: {e}"))
}

/// FNV-1a over every field of a run's stats: the cross-job exactness
/// check, without keeping a second copy of the per-node vectors.
fn digest(s: &RunStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in [
        s.rounds,
        s.messages_delivered,
        s.messages_lost,
        s.max_message_bits,
        s.injected_drops,
        s.dup_deliveries,
        s.crashed_nodes,
        s.graph_bytes,
        s.arena_peak_envelopes,
        s.exhausted_nodes,
        s.idle_listen_rounds,
    ] {
        eat(v);
    }
    for vec in [
        &s.awake_by_node,
        &s.bits_by_edge,
        &s.bits_received_by_node,
        &s.energy_spent_by_node,
    ] {
        eat(vec.len() as u64);
        for &v in vec.iter() {
            eat(v);
        }
    }
    h
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Clock, llc_bytes: u64) -> Outcome {
    let mut out = Outcome::default();
    let seed = settings.seed;
    let probe = match build(NODE_STEP, seed) {
        Ok(g) => g,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let n = wave_nodes(llc_bytes, probe.memory_bytes() as f64 / NODE_STEP as f64);
    drop(probe);

    let mut spans: Vec<Span> = Vec::new();
    let mut setup_s = Vec::new();
    let mut graph = None;
    let mut scratch = ExecutorScratch::new();
    for i in 0..SETUPS {
        // Free the previous build first: two wave graphs never coexist.
        drop(graph.take());
        let mut tracer = Tracer::new(*clock, settings.trace, (i as u64) << 32);
        let start = clock.now_ns();
        let g = match tracer.span("graphlib.build", "", i as u64, || build(n, seed)) {
            Ok(g) => g,
            Err(e) => {
                out.error(e);
                return out;
            }
        };
        // A fresh scratch per setup, so each one pays the same warm-up.
        scratch = ExecutorScratch::new();
        if let Err(e) = tracer.span("warmup", "", i as u64, || wave(&g, seed, 1, &mut scratch)) {
            out.error(e);
            return out;
        }
        setup_s.push(clock.secs_since(start));
        graph = Some(g);
        spans.extend(tracer.into_spans());
    }
    let graph = graph.expect("built in setup");
    let m = graph.edge_count() as u64;
    let graph_bytes = graph.memory_bytes();
    let init_s = init_seconds(clock, &graph);

    let mut serial_ns = Vec::new();
    let mut sharded_ns = Vec::new();
    let mut job_walls = (Vec::new(), Vec::new());
    let mut reference: Option<(u64, Totals)> = None;
    let start = clock.now_ns();
    repeat_until(clock, start, settings.seconds, 2, |k| {
        let traced = settings.trace && k % 2 == 1;
        let mut tracer = Tracer::new(*clock, traced, (k as u64 + 8) << 40);
        let job = tracer.begin("wave.job", "", k as u64);
        let job_start = clock.now_ns();
        let t0 = clock.now_ns();
        let one = tracer.span("netsim.run", "shards1", k as u64, || {
            wave(&graph, seed, 1, &mut scratch)
        });
        let t1 = clock.now_ns();
        let two = tracer.span("netsim.run", "shards2", k as u64, || {
            wave(&graph, seed, 2, &mut scratch)
        });
        let t2 = clock.now_ns();
        serial_ns.push(t1 - t0);
        sharded_ns.push(t2 - t1);
        match (one, two) {
            (Ok(a), Ok(b)) => {
                out.check(a.messages_sent() == 2 * m, || {
                    format!(
                        "job {k}: {} messages, expected 2m = {}",
                        a.messages_sent(),
                        2 * m
                    )
                });
                out.check(a.messages_lost == 0, || {
                    format!("job {k}: {} messages lost", a.messages_lost)
                });
                out.check(a == b, || {
                    format!("job {k}: stats differ between shards=1 and shards=2")
                });
                let mut totals = Totals::default();
                totals.add(&a);
                let d = digest(&a);
                match reference {
                    None => reference = Some((d, totals)),
                    Some((d0, _)) => {
                        out.check(d == d0, || format!("job {k}: stats differ from job 0"))
                    }
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    out.error(format!("job {k}: {e}"));
                }
            }
        }
        tracer.end(job);
        if traced {
            job_walls.1.push(clock.secs_since(job_start));
        } else {
            job_walls.0.push(clock.secs_since(job_start));
        }
        spans.extend(tracer.into_spans());
    });
    let Some((_, totals)) = reference else {
        return out;
    };

    let rss_mb = crate::host::peak_rss_bytes() as f64 / 1e6;
    let to_s = |v: &[u64]| v.iter().map(|&ns| secs(ns)).collect::<Vec<f64>>();
    let jobs: Vec<f64> = serial_ns
        .iter()
        .zip(&sharded_ns)
        .map(|(a, b)| secs(a + b))
        .collect();
    let msgs = totals.messages as f64;
    let rate = |v: &[u64]| v.iter().map(|&ns| msgs / secs(ns)).collect::<Vec<f64>>();
    let runs_per_s: Vec<f64> = jobs.iter().map(|j| 2.0 / j).collect();
    let latencies_ms: Vec<f64> = to_s(&serial_ns).iter().map(|s| s * 1e3).collect();
    out.end_to_end = vec![
        EndToEnd::median(
            "setup_s",
            "s",
            "build the wave graph + one warm-up wave into a fresh scratch",
            &setup_s,
        ),
        EndToEnd::mean(
            "wall_s",
            "s",
            "one job: the wave at shards=1 plus the wave at shards=2",
            &jobs,
        ),
        EndToEnd::rate(
            "msgs_per_s",
            "1/s",
            "simulated messages per host second at shards=1",
            &rate(&serial_ns),
        ),
        EndToEnd::rate(
            "sharded_msgs_per_s",
            "1/s",
            "simulated messages per host second at shards=2",
            &rate(&sharded_ns),
        ),
        EndToEnd::median(
            "p50_ms",
            "ms",
            "latency of one Simulator::run at shards=1",
            &latencies_ms,
        ),
        EndToEnd::tail(
            "p99_ms",
            "ms",
            "tail latency of one Simulator::run at shards=1",
            &latencies_ms,
        ),
        EndToEnd::rate(
            "req_per_s",
            "1/s",
            "Simulator::run calls per host second",
            &runs_per_s,
        ),
        EndToEnd::median("peak_rss_mb", "MB", "process peak resident set", &[rss_mb]),
    ];
    out.counters = totals.named("netsim");
    out.notes.push(format!(
        "graph: scale:{n}:{CHORDS}, m={m}, {graph_bytes} CSR bytes = {:.2} x the {} B last-level cache",
        graph_bytes as f64 / if llc_bytes == 0 { FALLBACK_LLC } else { llc_bytes } as f64,
        if llc_bytes == 0 { FALLBACK_LLC } else { llc_bytes },
    ));
    out.notes.push(format!("{} jobs", jobs.len()));

    if settings.trace {
        let times = self_times(&spans);
        let traced = job_walls.1.len() as f64;
        let serial = times.get(&("netsim.run", "shards1")).copied().unwrap_or(0) as f64 / traced;
        let sharded = times.get(&("netsim.run", "shards2")).copied().unwrap_or(0) as f64 / traced;
        let build_s = secs(name_total(&times, "graphlib.build")) / SETUPS as f64;
        let mut layers = common_layers(
            build_s,
            graph_bytes as f64 / n as f64,
            init_s,
            serial as u64,
            &totals,
            "msgs_per_s on wide-wave",
        );
        layers.extend([
            Layer::new(
                "netsim.ns_per_msg",
                "ns",
                serial / msgs,
                "msgs_per_s on wide-wave",
            ),
            Layer::new(
                "netsim.ns_per_msg.sharded",
                "ns",
                sharded / msgs,
                "sharded_msgs_per_s on wide-wave",
            ),
            Layer::new(
                "netsim.shard_speedup",
                "x",
                serial / sharded,
                "sharded_msgs_per_s on wide-wave",
            ),
            Layer::new(
                "netsim.wave_nodes",
                "count",
                n as f64,
                "fixed by the host's last-level cache",
            ),
            Layer::new(
                "graphlib.graph_bytes",
                "B",
                graph_bytes as f64,
                "peak_rss_mb on wide-wave",
            ),
        ]);
        out.layers = layers;
        out.trace_overhead_s = Some(median(&job_walls.1) - median(&job_walls.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_size_covers_four_caches() {
        let n = wave_nodes(105 << 20, 204.0);
        assert_eq!(n % NODE_STEP, 0);
        assert!(n as f64 * 204.0 >= 4.0 * (105u64 << 20) as f64);
        assert!((n - NODE_STEP) as f64 * 204.0 < 4.0 * (105u64 << 20) as f64);
        assert_eq!(wave_nodes(0, 204.0), wave_nodes(FALLBACK_LLC, 204.0));
    }

    #[test]
    fn small_wave_sends_two_m_messages_on_any_shard_count() {
        let g = build(4096, 3).expect("graph");
        let mut scratch = ExecutorScratch::new();
        let a = wave(&g, 3, 1, &mut scratch).expect("serial");
        let b = wave(&g, 3, 2, &mut scratch).expect("sharded");
        assert_eq!(a.messages_sent(), 2 * g.edge_count() as u64);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
    }
}
