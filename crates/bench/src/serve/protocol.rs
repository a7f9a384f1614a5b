//! Newline-delimited JSON protocol for the serve daemon.
//!
//! One request per line, one response line per request, over a Unix
//! domain socket. The parser is hand-rolled (this workspace is
//! dependency-free by design — no serde): a small recursive-descent
//! JSON reader whose numbers stay **raw strings** until a field asks
//! for a type, so a 64-bit seed like `18446744073709551615` survives
//! without an `f64` round-trip mangling it.
//!
//! ## Request grammar
//!
//! ```json
//! {"id":1,"cmd":"run","alg":"randomized","graph":"ring:64","seed":7}
//! {"id":2,"cmd":"run","alg":"logstar","graph":"grid:4x8","seed":1,
//!  "executor":"calendar","shards":4,
//!  "faults":{"fault_seed":9,"drop_ppm":200,"crashes":[[3,40]]}}
//! {"id":3,"cmd":"sweep","algs":"randomized,aa",
//!  "template":"ring:{n}","sizes":[16,32],"seeds":[0,1]}
//! {"id":4,"cmd":"report","sizes":[8,12],"seeds":[0,1]}
//! {"id":5,"cmd":"chaos","seed":3,"sizes":[8,12],"trials":2}
//! {"id":6,"cmd":"stats"}
//! {"id":7,"cmd":"shutdown"}
//! ```
//!
//! ## Response envelope
//!
//! ```json
//! {"id":1,"ok":true,"source":"exec","result":{...}}
//! {"id":1,"ok":false,"source":"cache","error":{"code":"run.disconnected","message":"..."}}
//! ```
//!
//! `source` says where the bytes came from: `"exec"` (this request ran
//! it), `"cache"` (bounded LRU hit), `"coalesced"` (an identical
//! request was already in flight and this one rode along),
//! `"admission"` (shed by the token bucket), `"control"` (stats /
//! shutdown), `"reject"` (malformed request). The `result` / `error`
//! fragment of a cache or coalesced response is byte-identical to the
//! cold execution that produced it — that is the service's core
//! contract and the thing `tests/serve.rs` hammers on.

use graphlib::WeightedGraph;
use mst_core::wire::{fnv64, RunRequest};
use mst_core::{AlgorithmSpec, MstOutcome};
use netsim::{EnergyModel, Executor, FaultPlan};

use mst_core::wire::CanonicalRun;

/// Typed serve-plane error codes (the `run.*` / `sim.*` families come
/// from [`mst_core::runner::RUN_ERROR_CODES`] and
/// [`netsim::SIM_ERROR_CODES`]). Frozen spellings: responses embed
/// these, and clients match on them.
pub mod codes {
    /// The request line was not valid JSON or missed required fields.
    pub const PARSE: &str = "request.parse";
    /// `alg`/`algs` named an algorithm the registry does not know.
    pub const BAD_ALGORITHM: &str = "request.bad-algorithm";
    /// A sweep template did not contain the `{n}` placeholder.
    pub const BAD_TEMPLATE: &str = "request.bad-template";
    /// `executor` was not `sync`, `calendar`, or `naive`.
    pub const BAD_EXECUTOR: &str = "request.bad-executor";
    /// The graph spec failed to build (deterministic, cacheable).
    pub const BAD_GRAPH: &str = "request.bad-graph";
    /// Shed by the token bucket: the daemon is over budget.
    pub const OVER_CAPACITY: &str = "serve.over-capacity";
    /// The daemon is draining and no longer accepts work.
    pub const SHUTTING_DOWN: &str = "serve.shutting-down";
    /// A worker panicked or a harness invariant broke.
    pub const INTERNAL: &str = "serve.internal";
}

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order in a `Vec` (no
/// hashing anywhere near the wire), numbers keep their raw spelling.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, unparsed — callers choose u64/i64/f64 as the field needs.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as array elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at offset {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "invalid utf-8 in number".to_string())?;
            if raw.is_empty() || raw == "-" {
                return Err(format!("malformed number at offset {start}"));
            }
            Ok(Json::Num(raw.to_string()))
        }
        Some(c) => Err(format!(
            "unexpected byte '{}' at offset {pos}",
            *c as char,
            pos = *pos
        )),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape in string".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A parsed, validated request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Execute (or serve from cache) one canonical run.
    Run(CanonicalRun),
    /// A full benchmark sweep over a size × seed grid.
    Sweep {
        /// Resolved algorithms, in request order.
        algs: Vec<&'static AlgorithmSpec>,
        /// Graph template containing `{n}`.
        template: String,
        /// Graph sizes.
        sizes: Vec<usize>,
        /// Seeds per size.
        seeds: Vec<u64>,
    },
    /// The EXPERIMENTS-style scaling report.
    Report {
        /// Graph sizes.
        sizes: Vec<usize>,
        /// Seeds per size.
        seeds: Vec<u64>,
    },
    /// A chaos (fault-sweep) campaign.
    Chaos {
        /// Campaign master seed.
        seed: u64,
        /// Graph sizes.
        sizes: Vec<usize>,
        /// Trials per cell.
        trials: u64,
    },
    /// Counter snapshot (control plane, never cached, never shed).
    Stats,
    /// Begin graceful drain (control plane).
    Shutdown,
}

/// A request plus its client-chosen correlation id.
#[derive(Debug, Clone)]
pub struct RequestEnvelope {
    /// Echoed verbatim in the response. Defaults to 0 when absent.
    pub id: u64,
    /// The validated request.
    pub request: Request,
}

/// A request that failed validation: carries whatever id could be
/// salvaged plus a typed code, ready to render as a reject response.
#[derive(Debug, Clone)]
pub struct RequestError {
    /// Salvaged correlation id (0 if the line was unparseable).
    pub id: u64,
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

fn u64_list(value: Option<&Json>, default: &[u64]) -> Result<Vec<u64>, String> {
    match value {
        None => Ok(default.to_vec()),
        Some(v) => v
            .as_arr()
            .ok_or("expected an array of integers")?
            .iter()
            .map(|item| {
                item.as_u64()
                    .ok_or_else(|| "expected an integer".to_string())
            })
            .collect(),
    }
}

fn usize_list(value: Option<&Json>, default: &[usize]) -> Result<Vec<usize>, String> {
    let list = u64_list(value, &[])?;
    if list.is_empty() {
        return Ok(default.to_vec());
    }
    Ok(list.into_iter().map(|n| n as usize).collect())
}

/// Parses one NDJSON request line into a validated envelope.
pub fn parse_request(line: &str) -> Result<RequestEnvelope, RequestError> {
    let doc = Json::parse(line).map_err(|e| RequestError {
        id: 0,
        code: codes::PARSE,
        message: format!("bad JSON: {e}"),
    })?;
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    let fail = |code: &'static str, message: String| RequestError { id, code, message };
    let parse_fail = |message: String| fail(codes::PARSE, message);
    // An absent numeric field takes its default; a present one must be an
    // unsigned integer, never silently defaulted.
    let opt_u64 = |name: &str| -> Result<Option<u64>, RequestError> {
        doc.get(name)
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    parse_fail(format!("field '{name}': expected an unsigned integer"))
                })
            })
            .transpose()
    };

    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(codes::PARSE, "missing string field 'cmd'".into()))?;

    let request = match cmd {
        "run" => {
            let field = |name: &str| {
                doc.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| parse_fail(format!("run: missing string field '{name}'")))
            };
            let executor = match doc.get("executor").and_then(Json::as_str) {
                None => None,
                Some(name) => Some(Executor::parse(name).ok_or_else(|| {
                    fail(
                        codes::BAD_EXECUTOR,
                        format!("unknown executor '{name}' (expected sync, calendar, or naive)"),
                    )
                })?),
            };
            let energy = match doc.get("energy").and_then(Json::as_str) {
                None => None,
                Some(spec) => Some(EnergyModel::parse(spec).ok_or_else(|| {
                    parse_fail(format!(
                        "unknown energy model '{spec}' (expected 'reference', 'radio', \
                         or a comma list of round:/tx:/rx:/idle:/budget: costs)"
                    ))
                })?),
            };
            // A bare budget prices the run under the reference model.
            let energy = match opt_u64("budget")? {
                Some(b) => Some(energy.unwrap_or_else(EnergyModel::reference).with_budget(b)),
                None => energy,
            };
            let req = RunRequest {
                alg: field("alg")?,
                graph: field("graph")?,
                seed: opt_u64("seed")?.unwrap_or(0),
                executor,
                shards: opt_u64("shards")?.map(|n| n.max(1) as u32),
                faults: parse_fault_plan(doc.get("faults")).map_err(&parse_fail)?,
                energy,
            };
            let canonical = req
                .canonicalize()
                .map_err(|e| fail(codes::BAD_ALGORITHM, e))?;
            Request::Run(canonical)
        }
        "sweep" => {
            let raw_algs = doc
                .get("algs")
                .and_then(Json::as_str)
                .unwrap_or("randomized");
            let mut algs = Vec::new();
            for name in raw_algs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let spec = mst_core::registry::find(name).ok_or_else(|| {
                    fail(codes::BAD_ALGORITHM, format!("unknown algorithm '{name}'"))
                })?;
                algs.push(spec);
            }
            if algs.is_empty() {
                return Err(fail(codes::BAD_ALGORITHM, "empty algorithm list".into()));
            }
            let template = doc
                .get("template")
                .and_then(Json::as_str)
                .unwrap_or("ring:{n}")
                .to_string();
            if !template.contains("{n}") {
                return Err(fail(
                    codes::BAD_TEMPLATE,
                    format!("template '{template}' has no {{n}} placeholder"),
                ));
            }
            Request::Sweep {
                algs,
                template,
                sizes: usize_list(doc.get("sizes"), &[16, 32]).map_err(&parse_fail)?,
                seeds: u64_list(doc.get("seeds"), &[0]).map_err(&parse_fail)?,
            }
        }
        "report" => Request::Report {
            sizes: usize_list(doc.get("sizes"), &[8, 12, 16, 24]).map_err(&parse_fail)?,
            seeds: u64_list(doc.get("seeds"), &[0, 1]).map_err(&parse_fail)?,
        },
        "chaos" => Request::Chaos {
            seed: opt_u64("seed")?.unwrap_or(0),
            sizes: usize_list(doc.get("sizes"), &[8, 12]).map_err(&parse_fail)?,
            trials: opt_u64("trials")?.unwrap_or(2).max(1),
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(fail(
                codes::PARSE,
                format!(
                    "unknown cmd '{other}' (expected run, sweep, report, chaos, stats, shutdown)"
                ),
            ))
        }
    };
    Ok(RequestEnvelope { id, request })
}

fn parse_fault_plan(value: Option<&Json>) -> Result<FaultPlan, String> {
    let Some(obj) = value else {
        return Ok(FaultPlan::default());
    };
    let num = |name: &str| -> Result<u64, String> {
        match obj.get(name) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("faults.{name}: expected an unsigned integer")),
        }
    };
    let mut plan = FaultPlan::seeded(num("fault_seed")?)
        .with_drop_ppm(num("drop_ppm")? as u32)
        .with_duplicate_ppm(num("duplicate_ppm")? as u32)
        .with_spurious_sleep_ppm(num("spurious_sleep_ppm")? as u32)
        .with_wake_jitter(num("wake_jitter")?);
    if let Some(crashes) = obj.get("crashes") {
        let items = crashes
            .as_arr()
            .ok_or("faults.crashes: expected an array of [node, round] pairs")?;
        for pair in items {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("faults.crashes: expected [node, round] pairs")?;
            let node = pair[0]
                .as_u64()
                .ok_or("faults.crashes: node must be an unsigned integer")?;
            let round = pair[1]
                .as_u64()
                .ok_or("faults.crashes: round must be an unsigned integer")?;
            plan = plan.with_crash(node as u32, round);
        }
    }
    Ok(plan)
}

impl Request {
    /// The canonical cache-key string for cacheable requests (`None` for
    /// the control plane). Run keys come from
    /// [`CanonicalRun::cache_key`]; batch keys spell out every grid
    /// parameter. Executor knobs never appear — results are
    /// driver-independent by the bit-identity proofs.
    pub fn cache_key(&self) -> Option<String> {
        fn join<T: std::fmt::Display>(items: &[T]) -> String {
            items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
        }
        match self {
            Request::Run(run) => Some(run.cache_key()),
            Request::Sweep {
                algs,
                template,
                sizes,
                seeds,
            } => {
                let names: Vec<&str> = algs.iter().map(|a| a.name).collect();
                Some(format!(
                    "sweep|algs={}|template={template}|sizes={}|seeds={}",
                    names.join(","),
                    join(sizes),
                    join(seeds)
                ))
            }
            Request::Report { sizes, seeds } => Some(format!(
                "report|sizes={}|seeds={}",
                join(sizes),
                join(seeds)
            )),
            Request::Chaos {
                seed,
                sizes,
                trials,
            } => Some(format!(
                "chaos|seed={seed}|sizes={}|trials={trials}",
                join(sizes)
            )),
            Request::Stats | Request::Shutdown => None,
        }
    }

    /// FNV-1a 64 of [`Request::cache_key`].
    pub fn fingerprint(&self) -> Option<u64> {
        self.cache_key().map(|k| fnv64(k.as_bytes()))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Where a response's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// This request triggered the execution.
    Exec,
    /// Served from the bounded LRU.
    Cache,
    /// Rode along on an identical in-flight execution.
    Coalesced,
    /// Shed by the token bucket before any work happened.
    Admission,
    /// Control plane (stats, shutdown).
    Control,
    /// The request never validated.
    Reject,
}

impl Source {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Exec => "exec",
            Source::Cache => "cache",
            Source::Coalesced => "coalesced",
            Source::Admission => "admission",
            Source::Control => "control",
            Source::Reject => "reject",
        }
    }
}

/// Renders an error body fragment: `{"code":...,"message":...}`.
pub fn render_error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"code\":\"{}\",\"message\":\"{}\"}}",
        json_escape(code),
        json_escape(message)
    )
}

/// Wraps a body fragment in the response envelope. `ok` chooses whether
/// the fragment lands under `result` or `error`.
pub fn render_response(id: u64, source: Source, ok: bool, body: &str) -> String {
    let field = if ok { "result" } else { "error" };
    format!(
        "{{\"id\":{id},\"ok\":{ok},\"source\":\"{}\",\"{field}\":{body}}}",
        source.as_str()
    )
}

/// Renders the deterministic run-result fragment — the CLI's
/// `--json` output minus its one machine-dependent field
/// (`peak_rss_bytes`), so the fragment is cacheable and byte-comparable
/// across processes. Field order and formatting otherwise mirror
/// [`render_json`](../../cli) exactly.
pub fn render_run_result(
    alg: &AlgorithmSpec,
    graph: &WeightedGraph,
    seed: u64,
    faults: Option<&FaultPlan>,
    energy: Option<&EnergyModel>,
    out: &MstOutcome,
) -> String {
    let plan = faults.cloned().unwrap_or_default();
    let crashes: Vec<String> = plan
        .crashes
        .iter()
        .map(|(node, round)| format!("[{node},{round}]"))
        .collect();
    // The energy object appears only for runs under an active model, so
    // plain-run fragments stay byte-identical to the pre-energy wire
    // format (pinned goldens, cross-process cmp artifacts).
    let energy = match energy {
        Some(model) => format!(
            ",\"energy\":{{\"model\":\"{}\",\"total\":{},\"max\":{},\
             \"idle_listen_rounds\":{},\"exhausted_nodes\":{}}}",
            model.spec_string(),
            out.stats.energy_total(),
            out.stats.energy_max(),
            out.stats.idle_listen_rounds,
            out.stats.exhausted_nodes,
        ),
        None => String::new(),
    };
    format!(
        "{{\"algorithm\":\"{}\",\"seed\":{},\"nodes\":{},\"edges\":{},\"tree_edges\":{},\
         \"total_weight\":{},\"phases\":{},\"awake_max\":{},\"awake_avg\":{:.3},\
         \"rounds\":{},\"awake_round_product\":{},\"messages_delivered\":{},\
         \"messages_lost\":{},\"max_message_bits\":{},\"log_constant\":{},\
         \"injected_drops\":{},\"dup_deliveries\":{},\"crashed_nodes\":{},\
         \"memory\":{{\"graph_bytes\":{},\"arena_peak_envelopes\":{}}}{}\
         ,\"fault_plan\":{{\"fault_seed\":{},\"drop_ppm\":{},\"duplicate_ppm\":{},\
         \"spurious_sleep_ppm\":{},\"wake_jitter\":{},\"crashes\":[{}]}}}}",
        alg.name,
        seed,
        graph.node_count(),
        graph.edge_count(),
        out.edges.len(),
        graph.total_weight(out.edges.iter().copied()),
        out.phases,
        out.stats.awake_max(),
        out.stats.awake_avg(),
        out.stats.rounds,
        out.stats.awake_round_product(),
        out.stats.messages_delivered,
        out.stats.messages_lost,
        out.stats.max_message_bits,
        out.stats.log_constant(graph.node_count()),
        out.stats.injected_drops,
        out.stats.dup_deliveries,
        out.stats.crashed_nodes,
        out.stats.graph_bytes,
        out.stats.arena_peak_envelopes,
        energy,
        plan.fault_seed,
        plan.drop_ppm,
        plan.duplicate_ppm,
        plan.spurious_sleep_ppm,
        plan.wake_jitter,
        crashes.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_request_shapes() {
        let doc = Json::parse(
            r#"{"id":3,"cmd":"run","alg":"randomized","graph":"ring:64","seed":18446744073709551615,"faults":{"drop_ppm":200,"crashes":[[3,40],[5,9]]}}"#,
        )
        .unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(3));
        // u64::MAX survives: numbers are raw strings, never f64.
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        let crashes = doc.get("faults").unwrap().get("crashes").unwrap();
        assert_eq!(crashes.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "nulll", "{\"a\":1}x", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_unescapes_strings() {
        let doc = Json::parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(json_escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
    }

    #[test]
    fn parse_request_validates_each_command() {
        let env =
            parse_request(r#"{"id":1,"cmd":"run","alg":"randomized","graph":"ring:8","seed":7}"#)
                .unwrap();
        assert_eq!(env.id, 1);
        assert!(matches!(env.request, Request::Run(_)));

        let err =
            parse_request(r#"{"id":2,"cmd":"run","alg":"nope","graph":"ring:8"}"#).unwrap_err();
        assert_eq!(err.id, 2);
        assert_eq!(err.code, codes::BAD_ALGORITHM);

        let err = parse_request(r#"{"id":3,"cmd":"sweep","template":"ring:64"}"#).unwrap_err();
        assert_eq!(err.code, codes::BAD_TEMPLATE);

        let err = parse_request(
            r#"{"id":4,"cmd":"run","alg":"prim","graph":"ring:8","executor":"warp"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, codes::BAD_EXECUTOR);

        let err = parse_request("not json").unwrap_err();
        assert_eq!((err.id, err.code), (0, codes::PARSE));

        assert!(matches!(
            parse_request(r#"{"id":5,"cmd":"stats"}"#).unwrap().request,
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"id":6,"cmd":"shutdown"}"#)
                .unwrap()
                .request,
            Request::Shutdown
        ));
    }

    #[test]
    fn mistyped_numeric_fields_are_refused_not_defaulted() {
        for (field, cmd, value) in [
            ("seed", "run", r#""7""#),
            ("seed", "run", "-1"),
            ("seed", "run", "1.5"),
            ("budget", "run", r#""lots""#),
            ("shards", "run", "null"),
            ("seed", "chaos", "[1]"),
            ("trials", "chaos", r#""2""#),
        ] {
            let line = format!(
                r#"{{"id":9,"cmd":"{cmd}","alg":"prim","graph":"ring:8","{field}":{value}}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!((err.id, err.code), (9, codes::PARSE), "{line}");
            let named = format!("'{field}'");
            assert!(err.message.contains(&named), "{line}: {}", err.message);
        }
        // Absent fields keep their defaults.
        let run = parse_request(r#"{"cmd":"run","alg":"prim","graph":"ring:8"}"#).unwrap();
        let explicit =
            parse_request(r#"{"cmd":"run","alg":"prim","graph":"ring:8","seed":0}"#).unwrap();
        assert_eq!(run.request.cache_key(), explicit.request.cache_key());
        let chaos = parse_request(r#"{"cmd":"chaos"}"#).unwrap();
        assert_eq!(
            chaos.request.cache_key().unwrap(),
            "chaos|seed=0|sizes=8,12|trials=2"
        );
    }

    #[test]
    fn cache_keys_cover_every_grid_parameter() {
        let sweep = parse_request(
            r#"{"cmd":"sweep","algs":"randomized,always-awake","template":"ring:{n}","sizes":[16],"seeds":[0,1]}"#,
        )
        .unwrap();
        assert_eq!(
            sweep.request.cache_key().unwrap(),
            "sweep|algs=randomized,always-awake|template=ring:{n}|sizes=16|seeds=0,1"
        );
        let chaos = parse_request(r#"{"cmd":"chaos","seed":3,"sizes":[8,12],"trials":2}"#).unwrap();
        assert_eq!(
            chaos.request.cache_key().unwrap(),
            "chaos|seed=3|sizes=8,12|trials=2"
        );
        let report = parse_request(r#"{"cmd":"report"}"#).unwrap();
        assert_eq!(
            report.request.cache_key().unwrap(),
            "report|sizes=8,12,16,24|seeds=0,1"
        );
        assert!(parse_request(r#"{"cmd":"stats"}"#)
            .unwrap()
            .request
            .cache_key()
            .is_none());
    }

    #[test]
    fn envelope_shape_is_stable() {
        assert_eq!(
            render_response(7, Source::Cache, true, "{\"x\":1}"),
            "{\"id\":7,\"ok\":true,\"source\":\"cache\",\"result\":{\"x\":1}}"
        );
        assert_eq!(
            render_response(
                8,
                Source::Admission,
                false,
                &render_error_body(codes::OVER_CAPACITY, "admission bucket empty")
            ),
            "{\"id\":8,\"ok\":false,\"source\":\"admission\",\"error\":\
             {\"code\":\"serve.over-capacity\",\"message\":\"admission bucket empty\"}}"
        );
    }
}
