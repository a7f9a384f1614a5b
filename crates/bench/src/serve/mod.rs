//! Sweep-as-a-service: the `sleeping-mst serve` daemon.
//!
//! A long-lived process owning a fixed worker pool of warm executor
//! scratches, accepting newline-delimited JSON requests (run / sweep /
//! report / chaos — see [`protocol`]) over a Unix domain socket and
//! answering each line with exactly one response line. Three properties
//! the whole design hangs on:
//!
//! * **Bit-determinism is cacheability.** Every simulation artifact is
//!   a pure function of its canonical request
//!   ([`mst_core::wire::RunRequest`]), so responses are cached in a
//!   bounded deterministic LRU ([`cache::ResultCache`]) and identical
//!   in-flight requests coalesce onto a single execution — the repeat
//!   requester gets the *same bytes* the cold run produced, marked
//!   `"source":"cache"` / `"coalesced"` so clients can tell.
//! * **Admission, not queueing.** A token bucket
//!   ([`admission::TokenBucket`]) guards the front door; over-budget
//!   requests are shed immediately with the typed error
//!   `serve.over-capacity` instead of piling up latency behind the pool.
//! * **Graceful drain.** Shutdown (a `shutdown` request or
//!   [`Server::begin_shutdown`]) stops accepting work, lets every
//!   queued and in-flight job publish its response, then tears down
//!   workers, connections, and the socket file — no request that was
//!   admitted is ever dropped.
//!
//! The wall clock appears in exactly two places — the daemon's monotonic
//! epoch (admission timestamps) and the loadgen's latency measurements —
//! both quarantined behind explicit `wall-clock` lint waivers; everything
//! the simulator computes stays seed-deterministic.

pub mod admission;
pub mod cache;
pub mod protocol;
pub(crate) mod worker;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
// lint:allow(wall-clock) -- the daemon's monotonic epoch for admission timestamps
use std::time::Instant;

use mst_core::MstScratch;

use self::admission::TokenBucket;
use self::protocol::{render_error_body, render_response, Request, Source};
use self::worker::{Dispatch, Job};

pub use self::worker::Counters;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path; a stale file is replaced at bind time.
    pub socket: PathBuf,
    /// Worker threads, each owning one warm [`MstScratch`]. Min 1.
    pub workers: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Token-bucket burst capacity.
    pub bucket_capacity: u64,
    /// Token-bucket refill rate (tokens per second).
    pub refill_per_sec: u64,
}

impl ServeConfig {
    /// A config with production-ish defaults on the given socket path.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            cache_capacity: 256,
            bucket_capacity: 4096,
            refill_per_sec: 4096,
        }
    }
}

/// Final state a drained daemon reports from [`Server::join`].
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// Front-door counters.
    pub counters: Counters,
    /// Entries resident in the cache at shutdown.
    pub cache_len: usize,
    /// Entries evicted over the daemon's lifetime.
    pub cache_evictions: u64,
}

struct ServerInner {
    dispatch: Arc<Dispatch>,
    /// Monotonic epoch; admission timestamps are nanoseconds since this.
    epoch: Instant,
    shutdown: AtomicBool,
    socket: PathBuf,
    workers: usize,
    /// Clones of every accepted connection, whose read halves teardown
    /// shuts to end the reader loops.
    conns: Mutex<Vec<UnixStream>>,
    /// Per-connection reader threads (each joins its own writer).
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.dispatch.state.lock().expect("dispatch lock");
            st.draining = true;
        }
        self.dispatch.work.notify_all();
        // Unblock the accept loop so it can observe the flag.
        let _ = UnixStream::connect(&self.socket);
    }
}

/// A running daemon. Start with [`Server::start`], stop with a client
/// `shutdown` request or [`Server::begin_shutdown`], then reap with
/// [`Server::join`].
pub struct Server {
    inner: Arc<ServerInner>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket (replacing a stale file), spawns the worker pool
    /// and the accept loop, and returns immediately.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
        let dispatch = Arc::new(Dispatch::new(
            config.cache_capacity,
            TokenBucket::new(config.bucket_capacity, config.refill_per_sec),
        ));
        let inner = Arc::new(ServerInner {
            dispatch: Arc::clone(&dispatch),
            // lint:allow(wall-clock) -- admission timestamps are relative to this monotonic epoch
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            socket: config.socket.clone(),
            workers: config.workers.max(1),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let dispatch = Arc::clone(&dispatch);
                thread::spawn(move || {
                    let mut scratch = MstScratch::new();
                    dispatch.worker_loop(&mut scratch);
                })
            })
            .collect();
        let accept_inner = Arc::clone(&inner);
        let listener = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if let Ok(clone) = stream.try_clone() {
                    accept_inner.conns.lock().expect("conns lock").push(clone);
                }
                let conn_inner = Arc::clone(&accept_inner);
                let handle = thread::spawn(move || handle_conn(conn_inner, stream));
                accept_inner
                    .readers
                    .lock()
                    .expect("readers lock")
                    .push(handle);
            }
        });
        Ok(Server {
            inner,
            listener: Some(listener),
            workers,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.inner.socket
    }

    /// Initiates graceful shutdown from the hosting process (equivalent
    /// to a client `shutdown` request). Idempotent.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Blocks until shutdown is initiated, every admitted job has
    /// published its response, and all threads have exited; removes the
    /// socket file and returns the final counters.
    pub fn join(mut self) -> Result<ServerStats, String> {
        if let Some(listener) = self.listener.take() {
            listener.join().map_err(|_| "accept loop panicked")?;
        }
        {
            let mut st = self.inner.dispatch.state.lock().expect("dispatch lock");
            while !(st.queue.is_empty() && st.in_flight.is_empty()) {
                st = self.inner.dispatch.idle.wait(st).expect("dispatch lock");
            }
        }
        self.inner.dispatch.work.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().map_err(|_| "worker panicked")?;
        }
        // Shut only the read halves: each reader loop then ends, and its
        // connection joins its writer, which flushes every queued reply
        // (the `shutdown` request's own among them) before the socket
        // closes. Shutting the write halves too could cut a reply that
        // was queued but not yet written.
        for conn in self.inner.conns.lock().expect("conns lock").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        let readers: Vec<JoinHandle<()>> = self
            .inner
            .readers
            .lock()
            .expect("readers lock")
            .drain(..)
            .collect();
        for reader in readers {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.inner.socket);
        let st = self.inner.dispatch.state.lock().expect("dispatch lock");
        Ok(ServerStats {
            counters: st.counters,
            cache_len: st.cache.len(),
            cache_evictions: st.cache.evictions,
        })
    }
}

/// One connection: a reader loop on this thread plus a dedicated writer
/// thread, decoupled by a channel so a worker publishing a result never
/// blocks on a slow client socket.
fn handle_conn(inner: Arc<ServerInner>, stream: UnixStream) {
    let (tx, rx) = mpsc::channel::<String>();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for line in rx {
            // A hung-up client just loses its remaining lines; keep
            // draining the channel so senders never observe an error.
            let _ = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush());
        }
    });
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        respond(&inner, line.trim(), &tx);
    }
    drop(tx);
    let _ = writer.join();
}

/// Handles one request line: immediate response for control-plane,
/// reject, shed, and cache-hit paths; queued/coalesced work responds
/// later through the connection's writer channel.
fn respond(inner: &ServerInner, line: &str, tx: &Sender<String>) {
    let envelope = match protocol::parse_request(line) {
        Err(err) => {
            inner
                .dispatch
                .state
                .lock()
                .expect("dispatch lock")
                .counters
                .rejected += 1;
            let body = render_error_body(err.code, &err.message);
            let _ = tx.send(render_response(err.id, Source::Reject, false, &body));
            return;
        }
        Ok(envelope) => envelope,
    };
    match envelope.request {
        Request::Stats => {
            let body = {
                let st = inner.dispatch.state.lock().expect("dispatch lock");
                st.counters
                    .render(st.cache.len(), st.cache.evictions, inner.workers)
            };
            let _ = tx.send(render_response(envelope.id, Source::Control, true, &body));
        }
        Request::Shutdown => {
            let _ = tx.send(render_response(
                envelope.id,
                Source::Control,
                true,
                "{\"draining\":true}",
            ));
            inner.begin_shutdown();
        }
        request => {
            let fingerprint = request.fingerprint().expect("cacheable request");
            let now_nanos = inner.epoch.elapsed().as_nanos() as u64;
            let immediate = inner.dispatch.submit(
                Job {
                    fingerprint,
                    request,
                },
                envelope.id,
                tx.clone(),
                now_nanos,
            );
            if let Some(line) = immediate {
                let _ = tx.send(line);
            }
        }
    }
}
