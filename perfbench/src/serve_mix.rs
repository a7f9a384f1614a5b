//! `serve-mix`: cache hits and misses through one daemon front door.
//!
//! An in-process [`Server`] with one worker serves a closed loop of two
//! client connections replaying a seeded trace drawn with repeats from a
//! fixed pool of distinct `run` requests (n from 2^6 to 2^11, smaller caps
//! for `prim` and `always-awake`; a few entries carry an active fault plan
//! or an energy budget, so the watchdog and typed-failure paths run too).
//! Every pass starts a fresh daemon, so each pass misses every pool
//! entry exactly once and serves the rest from the cache or by
//! coalescing. Before the timed passes the pool runs once in-process (the
//! cold reference every response is compared against byte for byte), and
//! again after every daemon pass.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bench::serve::cache::ResultCache;
use bench::serve::protocol::{self, codes, render_error_body, render_response, Request, Source};
use bench::serve::{ServeConfig, Server};
use graphlib::WeightedGraph;
use mst_core::MstScratch;

use crate::clock::{secs, Clock};
use crate::common::{
    common_layers, init_seconds, median, mix, repeat_until, Outcome, Settings, Totals,
};
use crate::summary::{nearest_rank, EndToEnd, Layer};
use crate::trace::{name_total, self_times, Span, Tracer};

/// Workload name.
pub const NAME: &str = "serve-mix";

/// Daemon worker threads. One worker executes every miss while the
/// connection threads serve hits on the other CPU; a second worker would
/// make the pass wall depend on how two executions share two CPUs with
/// the front door and on which requests coalesce.
pub const WORKERS: usize = 1;

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// glibc's `mallopt` parameter `M_ARENA_MAX`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: std::ffi::c_int = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Makes every thread allocate from one malloc arena. glibc gives new
/// threads arenas of their own, and each arena keeps what its threads
/// freed; every pass starts a fresh daemon's threads, so `peak_rss_mb`
/// depended on which arenas they happened to land in (16–29 MB between
/// runs of the same work). Call it before any thread starts.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt only sets an allocator parameter, and it runs before
    // the process has started any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Requests per trace, per pool entry.
const REQUESTS_PER_ENTRY: usize = 30;

/// Longest a client waits for one reply.
const REPLY_TIMEOUT_S: u64 = 60;

/// The pool's run requests: (algorithm, family, n). `always-awake`, whose
/// cost varies most with its seed, is capped at 2^6.
const SLOTS: [(&str, &str, usize); 17] = [
    ("randomized", "scale", 64),
    ("randomized", "random", 512),
    ("randomized", "ring", 2048),
    ("deterministic", "ring", 128),
    ("deterministic", "scale", 1024),
    ("deterministic", "random", 256),
    ("logstar", "random", 64),
    ("logstar", "scale", 512),
    ("logstar", "ring", 1024),
    ("spanning-tree", "ring", 256),
    ("spanning-tree", "random", 1024),
    ("spanning-tree", "scale", 2048),
    ("prim", "scale", 64),
    ("prim", "ring", 128),
    ("prim", "random", 256),
    ("always-awake", "ring", 64),
    ("always-awake", "scale", 64),
];

/// Pool entries that exercise the lossy paths: (algorithm, graph, extra
/// request fields). Outcomes range from a completed run with losses to
/// typed watchdog, degradation, panic-capture and energy failures.
const LOSSY: [(&str, &str, &str); 5] = [
    (
        "randomized",
        "ring:256",
        "\"faults\":{\"fault_seed\":5,\"drop_ppm\":3000}",
    ),
    (
        "randomized",
        "scale:512:2",
        "\"faults\":{\"fault_seed\":5,\"drop_ppm\":500}",
    ),
    (
        "spanning-tree",
        "scale:256:2",
        "\"faults\":{\"fault_seed\":7,\"crashes\":[[3,40]]}",
    ),
    ("deterministic", "scale:256:2", "\"budget\":200000"),
    ("always-awake", "ring:64", "\"budget\":100000"),
];

/// One distinct request of the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The request's fields after `"id":N,`.
    pub fields: String,
    /// Whether the entry carries a fault plan or budget.
    pub lossy: bool,
}

impl Entry {
    /// The request line with correlation id `id`.
    pub fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}}}", self.fields)
    }
}

/// The pool: the same distinct requests for every workload seed, so a
/// pass does the same work whatever the seed; the seed draws the trace.
pub fn pool() -> Vec<Entry> {
    let mut entries = Vec::new();
    for (i, &(alg, family, n)) in SLOTS.iter().enumerate() {
        let graph = crate::sweep::family_spec(family, n);
        let run_seed = mix(i as u64) >> 16;
        // Every third entry is priced under the reference energy model.
        let energy = if i.is_multiple_of(3) {
            ",\"energy\":\"reference\""
        } else {
            ""
        };
        entries.push(Entry {
            fields: format!("\"cmd\":\"run\",\"alg\":\"{alg}\",\"graph\":\"{graph}\",\"seed\":{run_seed}{energy}"),
            lossy: false,
        });
    }
    for (i, &(alg, graph, extra)) in LOSSY.iter().enumerate() {
        let run_seed = mix(0x1055 ^ i as u64) >> 16;
        entries.push(Entry {
            fields: format!("\"cmd\":\"run\",\"alg\":\"{alg}\",\"graph\":\"{graph}\",\"seed\":{run_seed},{extra}"),
            lossy: true,
        });
    }
    entries
}

/// The request trace: every pool index once plus uniform repeats,
/// shuffled — so each pass misses every entry exactly once.
pub fn trace(seed: u64, pool_len: usize, len: usize) -> Vec<usize> {
    let mut state = mix(seed ^ 0x7ace);
    let mut next = || {
        state = mix(state);
        state
    };
    let mut t: Vec<usize> = (0..pool_len).collect();
    while t.len() < len {
        t.push((next() % pool_len as u64) as usize);
    }
    for i in (1..t.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        t.swap(i, j);
    }
    t
}

/// Pass `k`'s trace and its request lines. Every pass draws its own order
/// from the seed, so a run's latencies pool many orders instead of
/// repeating one order's pattern of queueing and coalescing.
fn pass_trace(seed: u64, k: usize, pool: &[Entry]) -> (Vec<usize>, Vec<String>) {
    let order = trace(
        mix(seed ^ mix(k as u64)),
        pool.len(),
        REQUESTS_PER_ENTRY * pool.len(),
    );
    let lines = order
        .iter()
        .enumerate()
        .map(|(i, &p)| pool[p].line(i))
        .collect();
    (order, lines)
}

/// The cold response of one pool entry.
struct Cold {
    ok: bool,
    body: String,
    fingerprint: u64,
    stats: Option<netsim::RunStats>,
    /// The input graph, when its spec built.
    graph: Option<WeightedGraph>,
    /// Host time inside `run_with_options`.
    run_ns: u64,
}

/// Executes one pool entry in-process exactly as a daemon worker does.
fn cold_run(
    entry: &Entry,
    clock: &Clock,
    scratch: &mut MstScratch,
    tracer: &mut Tracer,
    run: u64,
) -> Result<Cold, String> {
    let envelope = protocol::parse_request(&entry.line(0))
        .map_err(|e| format!("pool entry rejected: {}", e.message))?;
    let fingerprint = envelope
        .request
        .fingerprint()
        .ok_or("pool entry is not cacheable")?;
    let Request::Run(req) = envelope.request else {
        return Err("pool entry is not a run".to_string());
    };
    let graph = match tracer.span("graphlib.build", "", run, || {
        graphlib::generators::from_spec(&req.graph, req.seed)
    }) {
        Ok(g) => g,
        Err(e) => {
            return Ok(Cold {
                ok: false,
                body: render_error_body(codes::BAD_GRAPH, &e),
                fingerprint,
                stats: None,
                graph: None,
                run_ns: 0,
            })
        }
    };
    let start = clock.now_ns();
    let result = tracer.span("mst_core.run", req.alg.name, run, || {
        req.alg
            .run_with_options(&graph, &req.exec_options(), scratch)
    });
    let run_ns = clock.now_ns() - start;
    let (ok, body, stats) = match result {
        Ok(out) => {
            let body = tracer.span("serve.render", "", run, || {
                protocol::render_run_result(
                    req.alg,
                    &graph,
                    req.seed,
                    req.faults.as_ref(),
                    req.energy.as_ref(),
                    &out,
                )
            });
            (true, body, Some(out.stats))
        }
        Err(e) => (
            false,
            render_error_body(e.to_json_code(), &e.to_string()),
            None,
        ),
    };
    Ok(Cold {
        ok,
        body,
        fingerprint,
        stats,
        graph: Some(graph),
        run_ns,
    })
}

/// Runs the whole pool in-process once. Returns each entry's cold
/// response and the host time spent in its successful runs (builds,
/// rendering and the typed failures of lossy entries stay out of it).
fn cold_pass(
    pool: &[Entry],
    clock: &Clock,
    scratch: &mut MstScratch,
    tracer: &mut Tracer,
) -> Result<(Vec<Cold>, u64), String> {
    let mut this = Vec::with_capacity(pool.len());
    for (i, entry) in pool.iter().enumerate() {
        let c = cold_run(entry, clock, scratch, tracer, i as u64)
            .map_err(|e| format!("pool entry {i}: {e}"))?;
        this.push(c);
    }
    let ns = this
        .iter()
        .filter(|r| r.stats.is_some())
        .map(|r| r.run_ns)
        .sum();
    Ok((this, ns))
}

/// One response as a client saw it.
struct Reply {
    index: usize,
    latency_ns: u64,
    line: String,
}

/// The `source` field of a response line.
fn source_of(line: &str) -> Option<Source> {
    let rest = line.split_once("\"source\":\"")?.1;
    let name = rest.split_once('"')?.0;
    [
        Source::Exec,
        Source::Cache,
        Source::Coalesced,
        Source::Admission,
        Source::Control,
        Source::Reject,
    ]
    .into_iter()
    .find(|s| s.as_str() == name)
}

fn source_tag(source: Option<Source>) -> &'static str {
    source.map_or("unknown", Source::as_str)
}

/// Sends one line and reads one reply.
fn exchange(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    line: &str,
) -> std::io::Result<String> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    Ok(reply.trim_end().to_string())
}

/// Connects a client. A reply slower than [`REPLY_TIMEOUT_S`] fails the
/// pass instead of hanging the benchmark.
fn connect(socket: &Path) -> std::io::Result<(UnixStream, BufReader<UnixStream>)> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(crate::clock::timeout(REPLY_TIMEOUT_S)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One client's replies and spans, or why it stopped.
type ClientResult = Result<(Vec<Reply>, Vec<Span>), String>;

/// What one daemon pass measured.
struct Pass {
    setup_s: f64,
    wall_ns: u64,
    replies: Vec<Reply>,
    counters: bench::serve::Counters,
}

/// One closed-loop pass against a fresh daemon.
fn pass(
    k: usize,
    socket: &Path,
    lines: &[String],
    clock: &Clock,
    traced: bool,
    spans: &mut Vec<Span>,
) -> Result<Pass, String> {
    let start = clock.now_ns();
    let server = Server::start(ServeConfig {
        socket: socket.to_path_buf(),
        workers: WORKERS,
        cache_capacity: 4 * lines.len(),
        // A healthy pass sheds nothing: the bucket holds the whole trace.
        bucket_capacity: 2 * lines.len() as u64,
        refill_per_sec: 1 << 20,
    })?;
    let first_stats = connect(socket)
        .and_then(|(mut w, mut r)| exchange(&mut w, &mut r, "{\"id\":0,\"cmd\":\"stats\"}"))
        .map_err(|e| format!("stats request: {e}"));
    let setup_s = clock.secs_since(start);
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let t0 = clock.now_ns();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(
                        *clock,
                        traced,
                        ((k as u64 + 8) << 40) | ((c as u64 + 1) << 36),
                    );
                    let (mut writer, mut reader) =
                        connect(socket).map_err(|e| format!("client {c}: {e}"))?;
                    let mut replies = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else { break };
                        let open = tracer.begin("serve.request", "", i as u64);
                        let sent = clock.now_ns();
                        let reply = exchange(&mut writer, &mut reader, line)
                            .map_err(|e| format!("client {c}: {e}"))?;
                        let latency_ns = clock.now_ns() - sent;
                        tracer.end(open);
                        replies.push(Reply {
                            index: i,
                            latency_ns,
                            line: reply,
                        });
                    }
                    Ok((replies, tracer.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_ns = clock.now_ns() - t0;
    server.begin_shutdown();
    let stats = server.join()?;
    let first_stats = first_stats?;
    if source_of(&first_stats) != Some(Source::Control) {
        return Err(format!(
            "stats reply is not a control response: {first_stats}"
        ));
    }
    let mut replies = Vec::with_capacity(lines.len());
    for r in results {
        let (mut rs, mut sp) = r?;
        replies.append(&mut rs);
        spans.append(&mut sp);
    }
    replies.sort_by_key(|r| r.index);
    Ok(Pass {
        setup_s,
        wall_ns,
        replies,
        counters: stats.counters,
    })
}

/// Client-observed latencies of the checked passes.
#[derive(Default)]
struct Latencies {
    /// Every request, in ms.
    all_ms: Vec<f64>,
    /// Responses with `source=cache`, in µs.
    hits_us: Vec<f64>,
    /// Responses with `source=exec`, in ms.
    misses_ms: Vec<f64>,
}

/// Checks pass `k`'s replies against the cold responses (`order` maps a
/// trace line to its pool entry) and folds their latencies into `lat`.
fn check_pass(
    k: usize,
    replies: Vec<Reply>,
    order: &[usize],
    cold: &[Cold],
    out: &mut Outcome,
    lat: &mut Latencies,
) {
    out.check(replies.len() == order.len(), || {
        format!(
            "pass {k}: {} replies to {} requests",
            replies.len(),
            order.len()
        )
    });
    for r in replies {
        let entry = &cold[order[r.index]];
        let source = source_of(&r.line);
        let expected = source
            .filter(|s| matches!(s, Source::Exec | Source::Cache | Source::Coalesced))
            .map(|s| render_response(r.index as u64, s, entry.ok, &entry.body));
        out.check(expected.as_deref() == Some(r.line.as_str()), || {
            format!(
                "pass {k} request {}: reply differs from the cold response ({})",
                r.index,
                source_tag(source)
            )
        });
        let ms = r.latency_ns as f64 / 1e6;
        lat.all_ms.push(ms);
        match source {
            Some(Source::Cache) => lat.hits_us.push(ms * 1e3),
            Some(Source::Exec) => lat.misses_ms.push(ms),
            _ => {}
        }
    }
}

/// Checks pass `k`'s daemon counters: the front-door identity, nothing
/// shed or rejected, and one execution per distinct request.
fn check_counters(
    k: usize,
    c: bench::serve::Counters,
    requests: usize,
    distinct: usize,
    out: &mut Outcome,
) {
    out.check(
        c.received == c.shed + c.hits + c.coalesced + c.misses,
        || format!("pass {k}: received != shed + hits + coalesced + misses ({c:?})"),
    );
    out.check(
        c.received == requests as u64 && c.shed == 0 && c.rejected == 0,
        || format!("pass {k}: requests shed or rejected ({c:?})"),
    );
    out.check(
        c.misses == distinct as u64 && c.executed == c.misses,
        || {
            format!(
                "pass {k}: {} misses / {} executions for {distinct} distinct requests",
                c.misses, c.executed
            )
        },
    );
}

fn socket_path() -> PathBuf {
    PathBuf::from(format!(".perfbench/serve-{}.sock", std::process::id()))
}

/// Runs the workload.
pub fn run(settings: &Settings, clock: &Clock) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool();
    // Pass 0's trace also feeds the offline front-door layers.
    let (order, lines) = pass_trace(settings.seed, 0, &pool);
    let mut spans: Vec<Span> = Vec::new();

    // Cold reference: the pool in-process. Every later cold pass must
    // repeat it byte for byte.
    let mut scratch = MstScratch::new();
    // Span ids: the front door's from 1 << 32, cold pass j's from
    // (j + 2) << 32, the daemon passes' clients from 8 << 40.
    let mut tracer = Tracer::new(*clock, settings.trace, 2 << 32);
    let cold = match cold_pass(&pool, clock, &mut scratch, &mut tracer) {
        Ok((c, _)) => c,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    spans.extend(tracer.into_spans());
    let mut pool_totals = Totals::default();
    for (i, (entry, c)) in pool.iter().zip(&cold).enumerate() {
        if !entry.lossy {
            out.check(
                c.stats.as_ref().is_some_and(|s| s.messages_lost == 0),
                || {
                    format!(
                        "pool entry {i}: failed or lost messages without faults: {}",
                        c.body
                    )
                },
            );
        }
        if let Some(s) = &c.stats {
            pool_totals.add(s);
        }
    }
    let failed_lossy = pool
        .iter()
        .zip(&cold)
        .filter(|(e, c)| e.lossy && !c.ok)
        .count();

    // Front-door layers measured offline over the trace.
    let mut tracer = Tracer::new(*clock, settings.trace, 1 << 32);
    let parse_start = clock.now_ns();
    let mut fingerprints = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let parsed = tracer.span("serve.parse", "", i as u64, || {
            protocol::parse_request(line)
        });
        fingerprints.push(parsed.ok().and_then(|e| e.request.fingerprint()));
    }
    let parse_ns = clock.now_ns() - parse_start;
    for (i, (fp, &p)) in fingerprints.iter().zip(&order).enumerate() {
        out.check(*fp == Some(cold[p].fingerprint), || {
            format!("trace line {i}: fingerprint differs from its pool entry")
        });
    }
    let bodies: Vec<Arc<str>> = cold.iter().map(|c| Arc::from(c.body.as_str())).collect();
    let cache_start = clock.now_ns();
    let mut cache_ops = 0u64;
    tracer.span("serve.cache", "", 0, || {
        let mut cache = ResultCache::new(4 * lines.len());
        for &p in &order {
            cache_ops += 1;
            if cache.get(cold[p].fingerprint).is_none() {
                cache_ops += 1;
                cache.insert(cold[p].fingerprint, cold[p].ok, Arc::clone(&bodies[p]));
            }
        }
    });
    let cache_ns = clock.now_ns() - cache_start;
    spans.extend(tracer.into_spans());

    let socket = socket_path();
    if let Err(e) = std::fs::create_dir_all(socket.parent().expect("socket path has a directory")) {
        out.error(format!("cannot create the socket directory: {e}"));
        return out;
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls = (Vec::new(), Vec::new());
    let mut cold_passes = 1usize;
    let mut lat = Latencies::default();
    // One checked but untimed pass first: the first daemon of a process
    // pays thread and allocator start-up that later passes do not.
    let daemon_pass = |k: usize,
                       traced: bool,
                       out: &mut Outcome,
                       lat: &mut Latencies,
                       spans: &mut Vec<Span>| {
        let (order, lines) = pass_trace(settings.seed, k, &pool);
        match pass(k, &socket, &lines, clock, traced, spans) {
            Ok(mut p) => {
                // Check the reply lines now and let them go, so memory
                // does not grow with the number of passes.
                check_pass(k, std::mem::take(&mut p.replies), &order, &cold, out, lat);
                check_counters(k, p.counters, lines.len(), pool.len(), out);
                Some(p)
            }
            Err(e) => {
                out.error(format!("pass {k}: {e}"));
                None
            }
        }
    };
    daemon_pass(0, false, &mut out, &mut Latencies::default(), &mut spans);
    let start = clock.now_ns();
    repeat_until(clock, start, settings.seconds, 2, |j| {
        let k = j + 1;
        let traced = settings.trace && k % 2 == 0;
        if let Some(p) = daemon_pass(k, traced, &mut out, &mut lat, &mut spans) {
            if traced {
                walls.1.push(secs(p.wall_ns));
            } else {
                walls.0.push(secs(p.wall_ns));
            }
            passes.push(p);
        }
        if settings.trace {
            // Traced runs also repeat the pool in-process after every
            // daemon pass: its spans feed the per-run layers.
            let mut tracer = Tracer::new(*clock, true, (k as u64 + 2) << 32);
            match cold_pass(&pool, clock, &mut scratch, &mut tracer) {
                Ok((this, _)) => {
                    for (i, (a, b)) in cold.iter().zip(&this).enumerate() {
                        out.check(a.ok == b.ok && a.body == b.body, || {
                            format!("cold pass {k}: pool entry {i} differs from the reference")
                        });
                    }
                    cold_passes += 1;
                }
                Err(e) => out.error(format!("cold pass {k}: {e}")),
            }
            spans.extend(tracer.into_spans());
        }
    });
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir(socket.parent().expect("socket path has a directory"));
    if passes.is_empty() {
        return out;
    }

    let rss_mb = crate::host::peak_rss_bytes() as f64 / 1e6;
    let pass_walls: Vec<f64> = passes.iter().map(|p| secs(p.wall_ns)).collect();
    let msgs: Vec<f64> = pass_walls
        .iter()
        .map(|w| pool_totals.messages as f64 / w)
        .collect();
    out.end_to_end = vec![
        EndToEnd::median(
            "setup_s",
            "s",
            "Server::start to the first stats reply",
            &passes.iter().map(|p| p.setup_s).collect::<Vec<_>>(),
        ),
        EndToEnd::mean("wall_s", "s", "one closed-loop pass over the trace", &pass_walls),
        EndToEnd::rate(
            "msgs_per_s",
            "1/s",
            "simulated messages of the successful pool runs per second of daemon pass",
            &msgs,
        ),
        EndToEnd::rate(
            "sharded_msgs_per_s",
            "1/s",
            "the daemon's one worker runs serial: msgs_per_s again (the result line carries every name)",
            &msgs,
        ),
        EndToEnd::median("p50_ms", "ms", "client-observed request latency", &lat.all_ms),
        EndToEnd::tail("p99_ms", "ms", "client-observed tail request latency", &lat.all_ms),
        EndToEnd::rate(
            "req_per_s",
            "1/s",
            "requests completed per host second",
            &pass_walls.iter().map(|w| lines.len() as f64 / w).collect::<Vec<_>>(),
        ),
        EndToEnd::median("peak_rss_mb", "MB", "process peak resident set", &[rss_mb]),
    ];
    let last = passes.last().expect("at least one pass").counters;
    out.counters = pool_totals.named("mst_core");
    out.counters.extend([
        ("serve.received".to_string(), last.received),
        ("serve.misses".to_string(), last.misses),
        ("serve.executed".to_string(), last.executed),
        ("serve.shed".to_string(), last.shed),
        ("serve.rejected".to_string(), last.rejected),
    ]);
    out.ungated = vec![
        ("serve.hits".to_string(), last.hits),
        ("serve.coalesced".to_string(), last.coalesced),
    ];
    out.notes.push(format!(
        "pool: {} distinct runs ({} lossy, {failed_lossy} of them typed failures); trace: {} requests; \
         {WORKERS} worker, {CLIENTS} closed-loop clients; {} timed passes after one warm-up pass",
        pool.len(),
        LOSSY.len(),
        lines.len(),
        passes.len()
    ));

    if settings.trace {
        let times = self_times(&spans);
        // The reference pass and every later cold pass recorded spans.
        let cold_passes = cold_passes as f64;
        let run_ns = name_total(&times, "mst_core.run") as f64 / cold_passes;
        let largest = cold
            .iter()
            .filter_map(|c| c.graph.as_ref())
            .max_by_key(|g| g.memory_bytes())
            .expect("pool graphs build");
        let init_s = init_seconds(clock, largest);
        let build_s = secs(name_total(&times, "graphlib.build")) / cold_passes;
        let mut layers = common_layers(
            build_s,
            largest.memory_bytes() as f64 / largest.node_count() as f64,
            init_s,
            run_ns as u64,
            &pool_totals,
            "p99_ms on serve-mix",
        );
        let pct = |v: &[f64], p: f64| {
            let mut sorted = v.to_vec();
            sorted.sort_by(f64::total_cmp);
            if sorted.is_empty() {
                f64::NAN
            } else {
                nearest_rank(&sorted, p)
            }
        };
        let traced_lines = (walls.1.len() * lines.len()) as f64;
        let requests = name_total(&times, "serve.request");
        layers.extend([
            Layer::new(
                "serve.hit_p50_us",
                "us",
                pct(&lat.hits_us, 50.0),
                "p50_ms on serve-mix",
            ),
            Layer::new(
                "serve.parse_us",
                "us",
                parse_ns as f64 / 1e3 / lines.len() as f64,
                "p50_ms on serve-mix",
            ),
            Layer::new(
                "serve.cache_ns",
                "ns",
                cache_ns as f64 / cache_ops as f64,
                "p50_ms on serve-mix",
            ),
            Layer::new(
                "serve.request_us",
                "us",
                requests as f64 / 1e3 / traced_lines,
                "p50_ms on serve-mix",
            ),
            Layer::new(
                "serve.miss_p50_ms",
                "ms",
                pct(&lat.misses_ms, 50.0),
                "p99_ms on serve-mix",
            ),
            Layer::new(
                "serve.miss_p90_ms",
                "ms",
                pct(&lat.misses_ms, 90.0),
                "p99_ms on serve-mix",
            ),
            Layer::new(
                "serve.hit_rate",
                "ratio",
                last.hits as f64 / last.received as f64,
                "req_per_s on serve-mix",
            ),
            Layer::new(
                "serve.received",
                "count",
                last.received as f64,
                "base of serve.hit_rate",
            ),
            Layer::new(
                "serve.shed",
                "count",
                last.shed as f64,
                "fail_ratio and p99_ms on serve-mix",
            ),
            Layer::new(
                "serve.rejected",
                "count",
                last.rejected as f64,
                "fail_ratio and p99_ms on serve-mix",
            ),
            Layer::new(
                "serve.coalesced",
                "count",
                last.coalesced as f64,
                "fail_ratio and p99_ms on serve-mix",
            ),
        ]);
        for alg in mst_core::ALGORITHMS {
            let ns = times.get(&("mst_core.run", alg.name)).copied().unwrap_or(0);
            layers.push(Layer::new(
                format!("mst_core.run_s.{}", alg.name),
                "s",
                secs(ns) / cold_passes,
                "p99_ms on serve-mix",
            ));
        }
        out.layers = layers;
        out.trace_overhead_s = Some(median(&walls.1) - median(&walls.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        let a = trace(5, 39, 39 * REQUESTS_PER_ENTRY);
        assert_eq!(a, trace(5, 39, 39 * REQUESTS_PER_ENTRY));
        assert_ne!(a, trace(6, 39, 39 * REQUESTS_PER_ENTRY));
        assert_eq!(a.len(), 39 * REQUESTS_PER_ENTRY);
        for p in 0..39 {
            assert!(a.contains(&p), "entry {p} missing");
        }
        assert_eq!(pool().len(), SLOTS.len() + LOSSY.len());
        // Each pass draws its own order of the same requests.
        let (p0, _) = pass_trace(5, 0, &pool());
        let (p1, lines) = pass_trace(5, 1, &pool());
        assert_eq!(p1, pass_trace(5, 1, &pool()).0);
        assert_ne!(p0, p1);
        assert_eq!(lines.len(), p1.len());
    }

    #[test]
    fn pool_entries_parse_and_are_distinct() {
        let entries = pool();
        let mut keys: Vec<u64> = entries
            .iter()
            .map(|e| {
                let env = protocol::parse_request(&e.line(1)).expect("entry parses");
                assert!(matches!(env.request, Request::Run(_)));
                env.request.fingerprint().expect("cacheable")
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), entries.len());
    }

    #[test]
    fn source_field_is_read_back() {
        let line = render_response(3, Source::Coalesced, true, "{}");
        assert_eq!(source_of(&line), Some(Source::Coalesced));
        assert_eq!(source_of("{}"), None);
    }
}
