//! Service-level battery for the `serve` daemon: the cache/coalesce
//! plane must be byte-invisible (every response fragment identical to a
//! cold direct execution), the admission controller must shed with a
//! typed error, the front-door counters must reconcile exactly, and the
//! loadgen artifact must be byte-deterministic modulo its wall-clock
//! group. One contract ties the daemon to the CLI: a run, sweep, report
//! or chaos request spelled as `sleeping-mst` argv and as an NDJSON line
//! is the same request, rendered to the same bytes.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;

use bench::serve::admission::TokenBucket;
use bench::serve::protocol::{self, codes, render_error_body, render_run, Json, Request};
use bench::serve::{ServeConfig, Server};
use sleeping_mst::cli::{self, Command};
use sleeping_mst::graphlib::generators;
use sleeping_mst::mst_core::registry::{self, ALGORITHMS};
use sleeping_mst::mst_core::wire::RunRequest;
use sleeping_mst::mst_core::MstScratch;
use sleeping_mst::netsim::FaultPlan;

fn test_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mst-serve-{}-{name}.sock", std::process::id()))
}

struct Client {
    writer: BufWriter<UnixStream>,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = UnixStream::connect(server.socket()).expect("connect");
        let write_half = stream.try_clone().expect("clone");
        Client {
            writer: BufWriter::new(write_half),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> Response {
        self.send(line);
        Response::parse(&self.recv())
    }
}

/// A textually-dissected response envelope. The fragment is the exact
/// byte range of the `result`/`error` value — no JSON round trip, so
/// byte comparisons against cold renders are honest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Response {
    id: u64,
    ok: bool,
    source: String,
    fragment: String,
}

impl Response {
    fn parse(line: &str) -> Response {
        let grab = |prefix: &str| -> Option<&str> {
            let start = line.find(prefix)? + prefix.len();
            Some(&line[start..])
        };
        let id = grab("{\"id\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("envelope id");
        let ok = line.contains(",\"ok\":true,");
        let source = grab(",\"source\":\"")
            .and_then(|rest| rest.split('"').next())
            .expect("envelope source")
            .to_string();
        let key = if ok { ",\"result\":" } else { ",\"error\":" };
        let fragment = grab(key).expect("envelope body");
        let fragment = fragment[..fragment.len() - 1].to_string(); // strip envelope '}'
        Response {
            id,
            ok,
            source,
            fragment,
        }
    }
}

/// Server counters pulled from a `stats` response fragment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Stats {
    received: u64,
    shed: u64,
    hits: u64,
    coalesced: u64,
    misses: u64,
    executed: u64,
    rejected: u64,
}

fn stats(client: &mut Client) -> Stats {
    let resp = client.request("{\"id\":999,\"cmd\":\"stats\"}");
    assert!(resp.ok && resp.source == "control", "{resp:?}");
    let field = |name: &str| -> u64 {
        let prefix = format!("\"{name}\":");
        let start = resp.fragment.find(&prefix).expect("stat field") + prefix.len();
        resp.fragment[start..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    Stats {
        received: field("received"),
        shed: field("shed"),
        hits: field("hits"),
        coalesced: field("coalesced"),
        misses: field("misses"),
        executed: field("executed"),
        rejected: field("rejected"),
    }
}

fn reconcile(s: &Stats) {
    assert_eq!(
        s.received,
        s.shed + s.hits + s.coalesced + s.misses,
        "front-door counters must partition received: {s:?}"
    );
    assert_eq!(
        s.executed, s.misses,
        "every miss executes exactly once: {s:?}"
    );
}

/// The cold path a daemon response must be byte-identical to: build the
/// graph, run with the request's options, render — exactly what a
/// worker does, computed here without any serve machinery.
fn cold_run(run: &RunRequest, scratch: &mut MstScratch) -> (bool, String) {
    match generators::from_spec(&run.graph, run.seed) {
        Err(e) => (false, render_error_body(codes::BAD_GRAPH, &e)),
        Ok(graph) => match run
            .alg
            .run_with_options(&graph, &run.exec_options(), scratch)
        {
            Ok(out) => (true, render_run(run, &graph, &out, None)),
            Err(e) => (false, render_error_body(e.to_json_code(), &e.to_string())),
        },
    }
}

const ALGS: &[&str] = &["randomized", "deterministic", "always-awake"];
const GRAPHS: &[&str] = &["ring:10", "grid:3x3", "star:9", "ring:0"];

/// One pool entry of the proptest traffic: indices into the tables
/// above plus a seed and a fault toggle.
fn request_line(id: u64, (a, g, seed, faulty): (usize, usize, u64, bool)) -> String {
    let faults = if faulty {
        ",\"faults\":{\"fault_seed\":1,\"drop_ppm\":5000}"
    } else {
        ""
    };
    format!(
        "{{\"id\":{id},\"cmd\":\"run\",\"alg\":\"{}\",\"graph\":\"{}\",\"seed\":{seed}{faults}}}",
        ALGS[a], GRAPHS[g]
    )
}

fn canonical((a, g, seed, faulty): (usize, usize, u64, bool)) -> RunRequest {
    let alg = registry::find(ALGS[a]).expect("pool algorithms are registered");
    RunRequest {
        faults: faulty.then(|| FaultPlan::seeded(1).with_drop_ppm(5000)),
        ..RunRequest::new(alg, GRAPHS[g], seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: cache correctness under random request sequences. The
    /// sequence runs twice back to back, so the replay half is served
    /// almost entirely from cache — and every response fragment (hit,
    /// miss, success, or deterministic error) must be byte-identical to
    /// a cold direct execution. Counters must reconcile exactly.
    #[test]
    fn cached_responses_are_byte_identical_to_cold_runs(
        sequence in vec((0usize..3, 0usize..4, 0u64..2, any::<bool>()), 4..10),
    ) {
        let server = Server::start(ServeConfig::new(test_socket("proptest"))).unwrap();
        let mut client = Client::connect(&server);
        let mut scratch = MstScratch::new();

        let trace: Vec<_> = sequence.iter().chain(sequence.iter()).collect();
        for (j, &&entry) in trace.iter().enumerate() {
            let resp = client.request(&request_line(j as u64 + 1, entry));
            prop_assert_eq!(resp.id, j as u64 + 1);
            let run = canonical(entry);
            let (cold_ok, cold_fragment) = cold_run(&run, &mut scratch);
            prop_assert_eq!(resp.ok, cold_ok, "{:?}", entry);
            prop_assert_eq!(&resp.fragment, &cold_fragment, "{:?}", entry);
            // The replay half must come out of the cache.
            if j >= sequence.len() {
                prop_assert_eq!(&resp.source, "cache", "{:?}", entry);
            }
        }

        let distinct: BTreeSet<String> = sequence
            .iter()
            .map(|&entry| canonical(entry).cache_key())
            .collect();
        let s = stats(&mut client);
        reconcile(&s);
        prop_assert_eq!(s.received, trace.len() as u64);
        prop_assert_eq!(s.misses, distinct.len() as u64);
        prop_assert_eq!(s.hits, trace.len() as u64 - distinct.len() as u64);
        prop_assert_eq!(s.coalesced, 0, "closed loop never coalesces");
        prop_assert_eq!(s.shed + s.rejected, 0);

        server.begin_shutdown();
        let final_stats = server.join().unwrap();
        prop_assert_eq!(final_stats.counters.executed, distinct.len() as u64);
    }

    /// Satellite: the token bucket never admits more than capacity plus
    /// accrued refill, and a trace's admit/shed pattern replays exactly.
    #[test]
    fn bucket_admission_is_bounded_and_replayable(
        capacity in 0u64..10,
        refill in 0u64..5,
        arrivals in vec(0u64..2_000_000_000, 1..200),
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let pattern = |mut b: TokenBucket| -> Vec<bool> {
            arrivals.iter().map(|&t| b.try_admit(t)).collect()
        };
        let admitted = pattern(TokenBucket::new(capacity, refill));
        let count = admitted.iter().filter(|&&a| a).count() as u64;
        // Tokens that ever existed over the horizon: the initial burst
        // plus refill accrued through the last arrival (+1 for floors).
        let horizon = *arrivals.last().unwrap() as u128;
        let bound = capacity + (u128::from(refill) * horizon / 1_000_000_000) as u64 + 1;
        prop_assert!(count <= bound, "admitted {count} > bound {bound}");
        prop_assert_eq!(admitted, pattern(TokenBucket::new(capacity, refill)));
    }
}

/// Identical requests fired back to back coalesce onto one execution:
/// with the cache disabled, one worker runs the job and everyone gets
/// the same bytes.
#[test]
fn identical_in_flight_requests_coalesce_onto_one_execution() {
    let mut config = ServeConfig::new(test_socket("coalesce"));
    config.cache_capacity = 0; // only coalescing can dedupe
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(&server);

    // A deliberately heavy request so the burst lands while it runs.
    let line = |id: u64| {
        format!("{{\"id\":{id},\"cmd\":\"run\",\"alg\":\"randomized\",\"graph\":\"ring:128\",\"seed\":3}}")
    };
    for id in 1..=8 {
        client.send(&line(id));
    }
    let responses: Vec<Response> = (0..8).map(|_| Response::parse(&client.recv())).collect();

    let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<u64>>());
    for r in &responses {
        assert!(r.ok, "{r:?}");
        assert_eq!(
            &r.fragment, &responses[0].fragment,
            "coalesced bytes differ"
        );
    }
    let execs = responses.iter().filter(|r| r.source == "exec").count();
    let coalesced = responses.iter().filter(|r| r.source == "coalesced").count();
    assert_eq!((execs, coalesced), (1, 7), "{responses:?}");

    let s = stats(&mut client);
    reconcile(&s);
    assert_eq!((s.misses, s.coalesced, s.hits), (1, 7, 0));

    server.begin_shutdown();
    assert_eq!(server.join().unwrap().counters.executed, 1);
}

/// Over-budget requests shed immediately with the typed
/// `serve.over-capacity` error — they never queue.
#[test]
fn bucket_sheds_over_budget_requests_with_typed_error() {
    let mut config = ServeConfig::new(test_socket("shed"));
    config.bucket_capacity = 2;
    config.refill_per_sec = 0;
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(&server);

    let mut shed = Vec::new();
    for id in 1..=5u64 {
        let resp = client.request(&format!(
            "{{\"id\":{id},\"cmd\":\"run\",\"alg\":\"prim\",\"graph\":\"ring:10\",\"seed\":{id}}}"
        ));
        if !resp.ok {
            shed.push(resp);
        }
    }
    assert_eq!(shed.len(), 3, "capacity 2, refill 0: exactly 3 of 5 shed");
    for r in &shed {
        assert_eq!(&r.source, "admission", "{r:?}");
        assert!(
            r.fragment.contains("\"code\":\"serve.over-capacity\""),
            "{r:?}"
        );
    }

    let s = stats(&mut client);
    reconcile(&s);
    assert_eq!((s.received, s.shed, s.misses, s.executed), (5, 3, 2, 2));

    server.begin_shutdown();
    server.join().unwrap();
}

/// Deterministic failures are cached like successes: the second bad
/// request is a cache hit carrying the identical typed error bytes.
#[test]
fn deterministic_errors_are_cached() {
    let server = Server::start(ServeConfig::new(test_socket("errcache"))).unwrap();
    let mut client = Client::connect(&server);

    let line = "{\"id\":1,\"cmd\":\"run\",\"alg\":\"prim\",\"graph\":\"ring:0\",\"seed\":0}";
    let first = client.request(line);
    assert!(!first.ok && first.source == "exec", "{first:?}");
    assert!(
        first.fragment.contains("\"code\":\"request.bad-graph\""),
        "{first:?}"
    );

    let second = client.request(line);
    assert!(!second.ok && second.source == "cache", "{second:?}");
    assert_eq!(second.fragment, first.fragment, "cached error bytes differ");

    let s = stats(&mut client);
    assert_eq!((s.hits, s.misses, s.executed), (1, 1, 1));

    server.begin_shutdown();
    server.join().unwrap();
}

/// A client's `shutdown` is answered with `{"draining":true}` every time,
/// even when the daemon tears the connection down right after queueing
/// the reply: teardown ends only the reader loops, and each connection
/// flushes its writer before it closes.
#[test]
fn shutdown_reply_survives_teardown_in_every_cycle() {
    for cycle in 0..60u64 {
        let server = Server::start(ServeConfig::new(test_socket("drain"))).unwrap();
        let mut client = Client::connect(&server);
        client.send(&format!("{{\"id\":{cycle},\"cmd\":\"shutdown\"}}"));
        server.join().unwrap();
        let reply = Response::parse(&client.recv());
        assert!(reply.ok && reply.id == cycle, "cycle {cycle}: {reply:?}");
        assert_eq!(reply.fragment, "{\"draining\":true}", "cycle {cycle}");
    }
}

/// Malformed lines get a typed reject without disturbing the
/// cacheable-request counters.
#[test]
fn malformed_requests_are_rejected_with_typed_errors() {
    let server = Server::start(ServeConfig::new(test_socket("reject"))).unwrap();
    let mut client = Client::connect(&server);

    for (line, code) in [
        ("this is not json", codes::PARSE),
        ("{\"id\":7,\"cmd\":\"warp\"}", codes::PARSE),
        ("{\"id\":8,\"cmd\":\"run\",\"alg\":\"bogus\",\"graph\":\"ring:8\"}", codes::BAD_ALGORITHM),
        ("{\"id\":9,\"cmd\":\"sweep\",\"template\":\"ring:64\"}", codes::BAD_TEMPLATE),
        // The time driver is not a request knob: an unknown field.
        (
            "{\"id\":10,\"cmd\":\"run\",\"alg\":\"prim\",\"graph\":\"ring:8\",\"executor\":\"calendar\"}",
            codes::PARSE,
        ),
        // Empty grids are refused, never executed or cached.
        ("{\"id\":11,\"cmd\":\"report\",\"sizes\":[8],\"seeds\":[]}", codes::PARSE),
        (
            "{\"id\":12,\"cmd\":\"sweep\",\"algs\":\"prim\",\"template\":\"ring:{n}\",\"sizes\":[8],\"seeds\":[]}",
            codes::PARSE,
        ),
    ] {
        let resp = client.request(line);
        assert!(!resp.ok, "{resp:?}");
        assert_eq!(&resp.source, "reject", "{resp:?}");
        assert!(
            resp.fragment.contains(&format!("\"code\":\"{code}\"")),
            "{resp:?} expected {code}"
        );
    }

    // The refusal names the field, like any other unknown field.
    let resp = client.request(
        "{\"id\":15,\"cmd\":\"run\",\"alg\":\"prim\",\"graph\":\"ring:8\",\"executor\":\"naive\"}",
    );
    assert!(
        resp.fragment.contains("unknown field 'executor'"),
        "{resp:?}"
    );

    let s = stats(&mut client);
    assert_eq!((s.received, s.rejected), (0, 8));

    // Specs beyond the CSR's u32 node-id or port-slot capacity fail as
    // typed graph errors before anything is allocated, instead of
    // aborting the daemon in the allocator; it keeps serving afterwards.
    for graph in ["ring:4294967297", "scale:4294967297:2", "complete:70000"] {
        let line = format!(
            "{{\"id\":13,\"cmd\":\"run\",\"alg\":\"randomized\",\"graph\":\"{graph}\",\"seed\":1}}"
        );
        let resp = client.request(&line);
        assert!(!resp.ok && resp.source == "exec", "{graph}: {resp:?}");
        assert!(
            resp.fragment
                .contains(&format!("\"code\":\"{}\"", codes::BAD_GRAPH)),
            "{graph}: {resp:?}"
        );
    }
    let served = client.request(
        "{\"id\":14,\"cmd\":\"run\",\"alg\":\"randomized\",\"graph\":\"ring:8\",\"seed\":1}",
    );
    assert!(served.ok && served.source == "exec", "{served:?}");
    let s = stats(&mut client);
    reconcile(&s);
    assert_eq!((s.received, s.misses, s.rejected), (4, 4, 8), "{s:?}");

    server.begin_shutdown();
    server.join().unwrap();
}

/// A mistyped field is refused with `request.parse` naming the field —
/// never answered as (or from the cache entry of) the plain seed-0
/// request its defaulted reading would be.
#[test]
fn mistyped_seed_is_refused_not_served_from_the_seed_zero_entry() {
    let server = Server::start(ServeConfig::new(test_socket("mistyped"))).unwrap();
    let mut client = Client::connect(&server);

    let seed_zero =
        "{\"id\":1,\"cmd\":\"run\",\"alg\":\"randomized\",\"graph\":\"ring:8\",\"seed\":0}";
    let first = client.request(seed_zero);
    assert!(first.ok && first.source == "exec", "{first:?}");

    for (field, bad) in [
        ("seed", "\"seed\":\"7\""),
        ("seed", "\"seed\":-1"),
        // Read as an all-zero plan, this would be inert: the plain entry.
        ("faults", "\"seed\":0,\"faults\":\"x\""),
    ] {
        let line = format!(
            "{{\"id\":2,\"cmd\":\"run\",\"alg\":\"randomized\",\"graph\":\"ring:8\",{bad}}}"
        );
        let resp = client.request(&line);
        assert!(!resp.ok, "{resp:?}");
        assert_eq!(&resp.source, "reject", "{resp:?}");
        assert!(
            resp.fragment
                .contains(&format!("\"code\":\"{}\"", codes::PARSE))
                && resp.fragment.contains(&format!("'{field}'")),
            "{resp:?}"
        );
    }

    let s = stats(&mut client);
    assert_eq!((s.received, s.hits, s.rejected), (1, 0, 3), "{s:?}");

    server.begin_shutdown();
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// One request, two surfaces: `sleeping-mst run` argv and a serve NDJSON
// line parse to the same `RunRequest` and render the same result bytes.
// ---------------------------------------------------------------------------

const CONTRACT_GRAPHS: &[&str] = &["ring:10", "grid:3x3", "star:9", "random:12:0.3", "ring:0"];
const ENERGY_MODELS: &[Option<&str>] = &[None, Some("reference"), Some("radio"), Some("round:0")];
const BUDGETS: &[Option<u64>] = &[None, Some(200_000), Some(50_000_000)];
const WAKE_POLICIES: &[Option<&str>] = &[
    None,
    Some("block"),
    Some("duty:1"),
    Some("duty:2"),
    Some("heavytail:5:2"),
    Some("shift:3:2"),
];

/// One generated run, as indices into the tables above plus raw knobs.
#[derive(Debug, Clone)]
struct RunSpec {
    alg: usize,
    graph: usize,
    seed: u64,
    /// 0 = absent, else the shard count.
    shards: u32,
    /// The plan as spelled, inert ones included.
    faults: Option<FaultPlan>,
    energy: usize,
    budget: usize,
    wake: usize,
}

type RunSpecTuple = (
    (usize, usize, u64, u32),
    (usize, u64, (usize, usize, usize, usize), Vec<(u32, u64)>),
    (usize, usize, usize),
);

impl RunSpec {
    /// `fault_mode` 0 is no plan, 1 an inert plan with a nonzero stream
    /// seed, 2 a plan whose crashes and intensities (each on when its
    /// pick is 2) are drawn.
    fn from_tuple(
        (
            (alg, graph, seed, shards),
            (fault_mode, fault_seed, (drop, dup, sleep, jitter), crashes),
            (energy, budget, wake),
        ): RunSpecTuple,
    ) -> RunSpec {
        let on = |pick: usize, value: u32| if pick == 2 { value } else { 0 };
        let faults = match fault_mode {
            0 => None,
            1 => Some(FaultPlan::seeded(fault_seed)),
            _ => Some(
                crashes.into_iter().fold(
                    FaultPlan::seeded(fault_seed)
                        .with_drop_ppm(on(drop, 2000))
                        .with_duplicate_ppm(on(dup, 1000))
                        .with_spurious_sleep_ppm(on(sleep, 1000))
                        .with_wake_jitter(u64::from(on(jitter, 2))),
                    |plan, (node, round)| plan.with_crash(node, round),
                ),
            ),
        };
        RunSpec {
            alg,
            graph,
            seed,
            shards,
            faults,
            energy,
            budget,
            wake,
        }
    }

    /// The `sleeping-mst run --json` spelling.
    fn argv(&self) -> Vec<String> {
        let mut argv: Vec<String> = vec![
            "run".into(),
            "--alg".into(),
            ALGORITHMS[self.alg].name.into(),
            "--graph".into(),
            CONTRACT_GRAPHS[self.graph].into(),
            "--seed".into(),
            self.seed.to_string(),
            "--json".into(),
        ];
        let mut flag = |name: &str, value: String| argv.extend([name.to_string(), value]);
        if self.shards > 0 {
            flag("--shards", self.shards.to_string());
        }
        if let Some(plan) = &self.faults {
            flag("--fault-seed", plan.fault_seed.to_string());
            for (name, value) in [
                ("--drop-ppm", u64::from(plan.drop_ppm)),
                ("--dup-ppm", u64::from(plan.duplicate_ppm)),
                ("--sleep-ppm", u64::from(plan.spurious_sleep_ppm)),
                ("--jitter", plan.wake_jitter),
            ] {
                if value > 0 {
                    flag(name, value.to_string());
                }
            }
            for (node, round) in &plan.crashes {
                flag("--crash", format!("{node}@{round}"));
            }
        }
        if let Some(model) = ENERGY_MODELS[self.energy] {
            flag("--energy-model", model.into());
        }
        if let Some(budget) = BUDGETS[self.budget] {
            flag("--budget", budget.to_string());
        }
        if let Some(policy) = WAKE_POLICIES[self.wake] {
            flag("--wake-policy", policy.into());
        }
        argv
    }

    /// The serve NDJSON spelling.
    fn ndjson(&self, id: u64) -> String {
        let mut line = format!(
            "{{\"id\":{id},\"cmd\":\"run\",\"alg\":\"{}\",\"graph\":\"{}\",\"seed\":{}",
            ALGORITHMS[self.alg].name, CONTRACT_GRAPHS[self.graph], self.seed
        );
        if self.shards > 0 {
            line.push_str(&format!(",\"shards\":{}", self.shards));
        }
        if let Some(plan) = &self.faults {
            let crashes: Vec<String> = plan
                .crashes
                .iter()
                .map(|(n, r)| format!("[{n},{r}]"))
                .collect();
            line.push_str(&format!(
                ",\"faults\":{{\"fault_seed\":{},\"drop_ppm\":{},\"duplicate_ppm\":{},\
                 \"spurious_sleep_ppm\":{},\"wake_jitter\":{},\"crashes\":[{}]}}",
                plan.fault_seed,
                plan.drop_ppm,
                plan.duplicate_ppm,
                plan.spurious_sleep_ppm,
                plan.wake_jitter,
                crashes.join(",")
            ));
        }
        if let Some(model) = ENERGY_MODELS[self.energy] {
            line.push_str(&format!(",\"energy\":\"{model}\""));
        }
        if let Some(budget) = BUDGETS[self.budget] {
            line.push_str(&format!(",\"budget\":{budget}"));
        }
        if let Some(policy) = WAKE_POLICIES[self.wake] {
            line.push_str(&format!(",\"wake_policy\":\"{policy}\""));
        }
        line + "}"
    }
}

/// Drops the `"peak_rss_bytes"` member, the CLI's one process-level field.
fn without_rss(json: &str) -> String {
    let key = ",\"peak_rss_bytes\":";
    let Some(at) = json.find(key) else {
        return json.to_string();
    };
    let digits = json[at + key.len()..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    format!("{}{}", &json[..at], &json[at + key.len() + digits..])
}

/// Rebuilds the cache key from a rendered result object and the graph
/// spec alone — possible only if the result names every key component.
fn key_from_result(result: &Json, graph: &str) -> String {
    let num = |v: &Json, name: &str| v.get(name).and_then(Json::as_u64).expect(name);
    let mut key = format!(
        "run|alg={}|graph={graph}|seed={}",
        result
            .get("algorithm")
            .and_then(Json::as_str)
            .expect("algorithm"),
        num(result, "seed")
    );
    let plan = result.get("fault_plan").expect("fault_plan");
    let intensities = [
        "drop_ppm",
        "duplicate_ppm",
        "spurious_sleep_ppm",
        "wake_jitter",
    ]
    .map(|name| num(plan, name));
    let crashes: Vec<String> = plan
        .get("crashes")
        .and_then(Json::as_arr)
        .expect("crashes")
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().expect("crash pair");
            format!(
                "{}@{}",
                pair[0].as_u64().unwrap(),
                pair[1].as_u64().unwrap()
            )
        })
        .collect();
    if intensities == [0; 4] && crashes.is_empty() {
        // An inert plan renders canonically, stream seed included.
        assert_eq!(num(plan, "fault_seed"), 0, "inert plan not canonical");
    } else {
        let [drop, dup, sleep, jitter] = intensities;
        key.push_str(&format!(
            "|faults=fs:{},drop:{drop},dup:{dup},sleep:{sleep},jitter:{jitter},crashes:{}",
            num(plan, "fault_seed"),
            crashes.join(";")
        ));
    }
    if let Some(energy) = result.get("energy") {
        let model = energy.get("model").and_then(Json::as_str).expect("model");
        key.push_str(&format!("|energy={model}"));
    }
    if let Some(policy) = result.get("wake_policy") {
        key.push_str(&format!("|wake={}", policy.as_str().expect("policy")));
    }
    key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The cross-surface contract: for every knob a run has, the argv
    /// and NDJSON spellings parse to one `RunRequest`; `run --json`
    /// prints the daemon's `result` bytes plus only `peak_rss_bytes`
    /// (and a failing run prints the daemon's error message); and the
    /// result names every cache-key component, so it is a complete
    /// replay recipe.
    #[test]
    fn cli_and_daemon_agree_on_every_run_request(
        specs in vec(
            (
                (0usize..ALGORITHMS.len(), 0usize..5, 0u64..1000, 0u32..3),
                (
                    0usize..3,
                    1u64..100,
                    (0usize..3, 0usize..3, 0usize..3, 0usize..3),
                    vec((0u32..9, 1u64..300), 0..3),
                ),
                (0usize..4, 0usize..3, 0usize..6),
            ),
            2..5,
        ),
    ) {
        // Two runs known to complete, so the key rebuild always meets a
        // "wake_policy" field and a live fault plan with an energy model.
        let alg = |name: &str| ALGORITHMS.iter().position(|a| a.name == name).unwrap();
        let plain = RunSpec::from_tuple(((0, 0, 0, 0), (0, 0, (0, 0, 0, 0), vec![]), (0, 0, 0)));
        let anchors = [
            RunSpec { alg: alg("logstar"), graph: 2, wake: 3, ..plain.clone() },
            RunSpec {
                alg: alg("prim"),
                faults: Some(FaultPlan::seeded(3).with_drop_ppm(2000).with_duplicate_ppm(1000)),
                energy: 1,
                ..plain
            },
        ];
        let generated = specs.len();
        let server = Server::start(ServeConfig::new(test_socket("contract"))).unwrap();
        let mut client = Client::connect(&server);
        let all = specs.into_iter().map(RunSpec::from_tuple).chain(anchors);
        for (i, spec) in all.enumerate() {
            let argv = spec.argv();
            let line = spec.ndjson(i as u64 + 1);
            let cmd = cli::parse_args(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            let Command::Run { request, .. } = &cmd else {
                panic!("not a run: {argv:?}");
            };
            let Request::Run(wire_request) = protocol::parse_request(&line)
                .unwrap_or_else(|e| panic!("{line}: {}", e.message))
                .request
            else {
                panic!("not a run: {line}");
            };
            prop_assert_eq!(request, &wire_request, "{}", line);

            let (code, text) = cli::execute(&cmd);
            let resp = client.request(&line);
            prop_assert!(resp.ok || i < generated, "anchor failed: {}", line);
            if resp.ok {
                prop_assert_eq!(code, 0, "{}", line);
                prop_assert_eq!(without_rss(text.trim_end()), resp.fragment.clone(), "{}", line);
                let result = Json::parse(&resp.fragment).expect("result is JSON");
                prop_assert_eq!(
                    key_from_result(&result, CONTRACT_GRAPHS[spec.graph]),
                    request.cache_key(),
                    "{}",
                    line
                );
            } else {
                let error = Json::parse(&resp.fragment).expect("error is JSON");
                let message = error.get("message").and_then(Json::as_str).expect("message");
                prop_assert!(code != 0, "{}", line);
                prop_assert_eq!(text, format!("error: {message}\n"), "{}", line);
            }
        }
        server.begin_shutdown();
        server.join().unwrap();
    }
}

/// The batch commands' cross-surface contract: each argv and NDJSON
/// spelling below parses to one spec, and `--json` prints the daemon's
/// `result` bytes plus a newline.
#[test]
fn cli_and_daemon_agree_on_batch_requests() {
    let server = Server::start(ServeConfig::new(test_socket("batch-contract"))).unwrap();
    let mut client = Client::connect(&server);
    for (i, (argv, fields)) in [
        (
            "sweep --alg prim,randomized --graph ring:{n} --sizes 8,12 --seeds 0,1 --json",
            r#""cmd":"sweep","algs":"prim,randomized","template":"ring:{n}","sizes":[8,12],"seeds":[0,1]"#,
        ),
        (
            "sweep --alg logstar --graph random:{n}:0.3 --sizes 10 --seeds 0..3 --json",
            r#""cmd":"sweep","algs":"logstar","template":"random:{n}:0.3","sizes":[10],"seeds":[0,1,2]"#,
        ),
        (
            "report --sizes 6 --seeds 0 --json",
            r#""cmd":"report","sizes":[6],"seeds":[0]"#,
        ),
        (
            "chaos --seed 2 --sizes 6 --trials 1 --json",
            r#""cmd":"chaos","seed":2,"sizes":[6],"trials":1"#,
        ),
        (
            "chaos --sizes 6 --trials 1 --json",
            r#""cmd":"chaos","sizes":[6],"trials":1"#,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let line = format!("{{\"id\":{},{fields}}}", i + 1);
        let cmd = cli::parse_args(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        let request = protocol::parse_request(&line)
            .unwrap_or_else(|e| panic!("{line}: {}", e.message))
            .request;
        match (&cmd, &request) {
            (Command::Sweep { spec, .. }, Request::Sweep(wire)) => assert_eq!(spec, wire),
            (Command::Report { spec, .. }, Request::Report(wire)) => assert_eq!(spec, wire),
            (Command::Chaos { spec, .. }, Request::Chaos(wire)) => assert_eq!(spec, wire),
            _ => panic!("{argv:?} and {line} are different commands"),
        }
        let resp = client.request(&line);
        assert!(resp.ok, "{line}: {resp:?}");
        assert_eq!(cli::execute(&cmd), (0, format!("{}\n", resp.fragment)), "{line}");
    }
    server.begin_shutdown();
    server.join().unwrap();
}

/// Batch request kinds (sweep/report/chaos) execute and cache like runs.
#[test]
fn batch_requests_are_served_and_cached() {
    let server = Server::start(ServeConfig::new(test_socket("batch"))).unwrap();
    let mut client = Client::connect(&server);

    let line = "{\"id\":1,\"cmd\":\"sweep\",\"algs\":\"prim\",\"template\":\"ring:{n}\",\
                \"sizes\":[8,12],\"seeds\":[0]}";
    let first = client.request(line);
    assert!(first.ok && first.source == "exec", "{first:?}");
    assert!(
        first.fragment.contains("\"algorithm\":\"prim\""),
        "{first:?}"
    );
    let second = client.request(line);
    assert!(second.ok && second.source == "cache", "{second:?}");
    assert_eq!(second.fragment, first.fragment);

    let chaos =
        client.request("{\"id\":3,\"cmd\":\"chaos\",\"seed\":1,\"sizes\":[8],\"trials\":1}");
    assert!(
        chaos.ok && chaos.fragment.contains("\"matrix\""),
        "truncated: {}",
        &chaos.fragment[..chaos.fragment.len().min(120)]
    );

    server.begin_shutdown();
    let final_stats = server.join().unwrap();
    assert_eq!(final_stats.counters.executed, 2);
}

// ---------------------------------------------------------------------------
// Loadgen determinism (satellite): the artifact is byte-identical across
// two cold daemon boots once the wall-clock group is neutralized.
// ---------------------------------------------------------------------------

fn neutralize_wall(artifact: &str) -> String {
    let start = artifact
        .find("\"wall\":{")
        .expect("artifact has a wall group");
    let end = start + artifact[start..].find('}').expect("wall group closes");
    format!(
        "{}\"wall\":{{}}{}",
        &artifact[..start],
        &artifact[end + 1..]
    )
}

fn loadgen_once(tag: &str) -> String {
    let socket = test_socket(&format!("loadgen-{tag}"));
    let out =
        std::env::temp_dir().join(format!("mst-bench-serve-{}-{tag}.json", std::process::id()));
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_sleeping-mst"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--workers", "3"])
        .spawn()
        .expect("spawn daemon");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .arg("--socket")
        .arg(&socket)
        .args([
            "--seed",
            "1",
            "--requests",
            "200",
            "--distinct",
            "12",
            "--shutdown",
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run loadgen");
    assert!(status.success(), "loadgen failed");
    assert!(
        daemon.wait().expect("daemon exit").success(),
        "daemon failed"
    );
    let artifact = std::fs::read_to_string(&out).expect("read artifact");
    let _ = std::fs::remove_file(&out);
    artifact
}

#[test]
fn loadgen_artifact_is_deterministic_modulo_wall_clock() {
    let first = loadgen_once("a");
    let second = loadgen_once("b");
    assert_eq!(
        neutralize_wall(&first),
        neutralize_wall(&second),
        "loadgen artifacts diverge beyond the wall group"
    );
    // The repeat-heavy seeded trace must stay overwhelmingly cached.
    assert!(first.contains("\"hit_rate\":0.9400"), "{first}");
    assert!(
        first.contains("\"responses\":{\"ok\":200,\"err\":0}"),
        "{first}"
    );
    assert!(
        first.contains("\"sources\":{\"exec\":12,\"cache\":188,"),
        "{first}"
    );
}
