//! Dispatch state and the worker pool.
//!
//! All coordination lives behind one `Mutex<DispatchState>` plus two
//! condvars: `work` (workers sleep here waiting for jobs) and `idle`
//! (the drain path sleeps here waiting for the queue *and* the
//! in-flight table to empty). The lock covers admission, cache lookup,
//! coalescing, and result publication, so the front-door decision for a
//! request is atomic: between "miss recorded" and "waiter registered"
//! nothing can race in and double-execute.
//!
//! Each worker owns a warm [`MstScratch`] for its whole lifetime — the
//! executor arena is paid for once per worker, not once per request
//! (the same trick the sweep harness's worker threads use).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use graphlib::generators;
use mst_core::MstScratch;

use crate::harness;
use crate::serve::admission::TokenBucket;
use crate::serve::cache::ResultCache;
use crate::serve::protocol::{
    codes, render_error_body, render_response, render_run, Request, Source,
};
use crate::{chaos, report};

/// A queued unit of work, keyed by its canonical fingerprint. Rendering
/// is part of the job so cached bytes are exactly what a cold response
/// would have carried.
#[derive(Debug)]
pub(crate) struct Job {
    pub fingerprint: u64,
    /// A cacheable request; the control plane is answered before
    /// submission.
    pub request: Request,
}

/// A requester waiting on an in-flight execution.
#[derive(Debug)]
pub(crate) struct Waiter {
    /// Correlation id to stamp on the response.
    pub id: u64,
    /// The connection's writer channel.
    pub tx: Sender<String>,
    /// `false` for the requester that triggered the execution,
    /// `true` for everyone who coalesced onto it.
    pub coalesced: bool,
}

/// Monotone front-door counters; a snapshot renders as the `stats`
/// response and the final [`ServerStats`](crate::serve::ServerStats).
/// Invariant (checked by `tests/serve.rs`):
/// `received == shed + hits + coalesced + misses` and
/// `executed == misses` once the daemon has drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cacheable requests that parsed and validated.
    pub received: u64,
    /// Requests shed by the token bucket.
    pub shed: u64,
    /// Requests served straight from the LRU.
    pub hits: u64,
    /// Requests that rode along on an identical in-flight execution.
    pub coalesced: u64,
    /// Requests that triggered an execution.
    pub misses: u64,
    /// Executions completed by the worker pool.
    pub executed: u64,
    /// Malformed or invalid request lines.
    pub rejected: u64,
}

impl Counters {
    /// Renders the stats response body.
    pub fn render(&self, cache_len: usize, cache_evictions: u64, workers: usize) -> String {
        format!(
            "{{\"received\":{},\"shed\":{},\"hits\":{},\"coalesced\":{},\"misses\":{},\
             \"executed\":{},\"rejected\":{},\"cache_len\":{cache_len},\
             \"cache_evictions\":{cache_evictions},\"workers\":{workers}}}",
            self.received,
            self.shed,
            self.hits,
            self.coalesced,
            self.misses,
            self.executed,
            self.rejected,
        )
    }
}

/// Everything the dispatcher lock protects.
#[derive(Debug)]
pub(crate) struct DispatchState {
    pub queue: VecDeque<Job>,
    /// fingerprint → everyone waiting on that execution. Presence of a
    /// key means the job is queued or running.
    pub in_flight: BTreeMap<u64, Vec<Waiter>>,
    pub cache: ResultCache,
    pub bucket: TokenBucket,
    pub counters: Counters,
    /// Set when the daemon stops accepting work; workers exit once the
    /// queue is empty.
    pub draining: bool,
}

/// The shared dispatcher: state + wakeup channels.
#[derive(Debug)]
pub(crate) struct Dispatch {
    pub state: Mutex<DispatchState>,
    /// Signaled when a job is queued or draining begins.
    pub work: Condvar,
    /// Signaled when the last queued/in-flight job completes.
    pub idle: Condvar,
}

impl Dispatch {
    pub(crate) fn new(cache_capacity: usize, bucket: TokenBucket) -> Dispatch {
        Dispatch {
            state: Mutex::new(DispatchState {
                queue: VecDeque::new(),
                in_flight: BTreeMap::new(),
                cache: ResultCache::new(cache_capacity),
                bucket,
                counters: Counters::default(),
                draining: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Front door for one cacheable request. Returns the response line
    /// to send immediately (shed / hit / draining), or `None` if the
    /// request was queued or coalesced — its line will arrive via `tx`
    /// when the execution lands.
    pub(crate) fn submit(
        &self,
        job: Job,
        id: u64,
        tx: Sender<String>,
        now_nanos: u64,
    ) -> Option<String> {
        let mut st = self.state.lock().expect("dispatch lock");
        if st.draining {
            return Some(render_response(
                id,
                Source::Control,
                false,
                &render_error_body(codes::SHUTTING_DOWN, "daemon is draining; no new work"),
            ));
        }
        st.counters.received += 1;
        // Admission first: the bucket guards the front door, cache hits
        // included — shedding must stay deterministic in the arrival
        // sequence alone, not in what happens to be cached.
        if !st.bucket.try_admit(now_nanos) {
            st.counters.shed += 1;
            return Some(render_response(
                id,
                Source::Admission,
                false,
                &render_error_body(
                    codes::OVER_CAPACITY,
                    "admission bucket empty; retry after a refill interval",
                ),
            ));
        }
        if let Some(cached) = st.cache.get(job.fingerprint) {
            st.counters.hits += 1;
            return Some(render_response(id, Source::Cache, cached.ok, &cached.body));
        }
        if let Some(waiters) = st.in_flight.get_mut(&job.fingerprint) {
            waiters.push(Waiter {
                id,
                tx,
                coalesced: true,
            });
            st.counters.coalesced += 1;
            return None;
        }
        st.counters.misses += 1;
        st.in_flight.insert(
            job.fingerprint,
            vec![Waiter {
                id,
                tx,
                coalesced: false,
            }],
        );
        st.queue.push_back(job);
        drop(st);
        self.work.notify_one();
        None
    }

    /// Worker thread body: pull → execute → publish, until draining and
    /// the queue is empty.
    pub(crate) fn worker_loop(self: &Arc<Self>, scratch: &mut MstScratch) {
        self.serve_jobs(scratch, execute_job);
    }

    /// [`Dispatch::worker_loop`] over any job executor. A panicking
    /// execution is contained: its waiters get `serve.internal`, the
    /// answer is not cached (the next identical request runs again), and
    /// the worker continues on a fresh scratch, since the panic may have
    /// left the old one mid-run.
    fn serve_jobs<E>(self: &Arc<Self>, scratch: &mut MstScratch, execute: E)
    where
        E: Fn(&Request, &mut MstScratch) -> Result<String, (&'static str, String)>,
    {
        loop {
            let job = {
                let mut st = self.state.lock().expect("dispatch lock");
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.draining {
                        return;
                    }
                    st = self.work.wait(st).expect("dispatch lock");
                }
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| execute(&job.request, scratch)));
            let (ok, body, cacheable): (bool, Arc<str>, bool) = match outcome {
                Ok(Ok(body)) => (true, Arc::from(body), true),
                Ok(Err((code, message))) => {
                    (false, Arc::from(render_error_body(code, &message)), true)
                }
                Err(_) => {
                    *scratch = MstScratch::new();
                    let body = render_error_body(codes::INTERNAL, "the execution panicked");
                    (false, Arc::from(body), false)
                }
            };
            let waiters = {
                let mut st = self.state.lock().expect("dispatch lock");
                if cacheable {
                    st.cache.insert(job.fingerprint, ok, Arc::clone(&body));
                }
                st.counters.executed += 1;
                let waiters = st.in_flight.remove(&job.fingerprint).unwrap_or_default();
                if st.queue.is_empty() && st.in_flight.is_empty() {
                    self.idle.notify_all();
                }
                waiters
            };
            for w in waiters {
                let source = if w.coalesced {
                    Source::Coalesced
                } else {
                    Source::Exec
                };
                // A hung-up connection just drops its line.
                let _ = w.tx.send(render_response(w.id, source, ok, &body));
            }
        }
    }
}

/// Executes one job, rendering its response body fragment. Errors carry
/// a typed code plus a human-readable message; every error here is a
/// deterministic function of the request, so callers cache them like
/// successes.
pub(crate) fn execute_job(
    request: &Request,
    scratch: &mut MstScratch,
) -> Result<String, (&'static str, String)> {
    match request {
        Request::Run(run) => {
            let graph =
                generators::from_spec(&run.graph, run.seed).map_err(|e| (codes::BAD_GRAPH, e))?;
            let out = run
                .alg
                .run_with_options(&graph, &run.exec_options(), scratch)
                .map_err(|e| (e.to_json_code(), e.to_string()))?;
            Ok(render_run(run, &graph, &out, None))
        }
        Request::Sweep(spec) => {
            let results = spec.run(1).map_err(|e| (codes::BAD_GRAPH, e))?;
            Ok(harness::render_json(&results))
        }
        Request::Report(spec) => report::generate(spec)
            .map(|report| report.to_json())
            .map_err(|e| (codes::INTERNAL, e)),
        Request::Chaos(spec) => Ok(chaos::run_chaos(spec).to_json()),
        Request::Stats | Request::Shutdown => Err((
            codes::INTERNAL,
            "control requests are answered before submission".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    /// A worker whose first execution panics answers that job's waiter
    /// with `serve.internal`, caches nothing, keeps serving, and drains —
    /// instead of dying with the job in flight and hanging shutdown.
    #[test]
    fn panicking_execution_is_answered_and_the_worker_survives() {
        let dispatch = Arc::new(Dispatch::new(8, TokenBucket::new(16, 16)));
        let worker = {
            let dispatch = Arc::clone(&dispatch);
            thread::spawn(move || {
                let panicked = AtomicBool::new(false);
                dispatch.serve_jobs(&mut MstScratch::new(), |_, _| {
                    if !panicked.swap(true, Ordering::SeqCst) {
                        panic!("injected execution panic");
                    }
                    Ok("{}".to_string())
                })
            })
        };
        let (tx, rx) = mpsc::channel();
        let timeout = Duration::from_secs(10);
        // The stub executor ignores the request; any value will do.
        for (id, fingerprint) in [(1, 7), (2, 8)] {
            let job = Job {
                fingerprint,
                request: Request::Stats,
            };
            assert_eq!(dispatch.submit(job, id, tx.clone(), 0), None);
        }
        let first = rx
            .recv_timeout(timeout)
            .expect("the panicked job is answered");
        assert!(first.contains(codes::INTERNAL), "{first}");
        let second = rx.recv_timeout(timeout).expect("the worker survives");
        assert!(second.contains("\"ok\":true"), "{second}");

        {
            let mut st = dispatch.state.lock().expect("dispatch lock");
            assert!(st.in_flight.is_empty());
            assert_eq!(st.cache.len(), 1, "only the successful answer is cached");
            let c = st.counters;
            assert_eq!(c.received, c.shed + c.hits + c.coalesced + c.misses);
            assert_eq!((c.misses, c.executed), (2, 2));
            st.draining = true;
        }
        dispatch.work.notify_all();
        worker.join().expect("the worker exits on drain");
    }
}
