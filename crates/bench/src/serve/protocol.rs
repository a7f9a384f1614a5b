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
//!  "shards":4,"energy":"reference","budget":900000,
//!  "wake_policy":"duty:2",
//!  "faults":{"fault_seed":9,"drop_ppm":200,"crashes":[[3,40]]}}
//! {"id":3,"cmd":"sweep","algs":"randomized,aa",
//!  "template":"ring:{n}","sizes":[16,32],"seeds":[0,1]}
//! {"id":4,"cmd":"report","sizes":[8,12],"seeds":[0,1]}
//! {"id":5,"cmd":"chaos","seed":3,"sizes":[8,12],"trials":2}
//! {"id":6,"cmd":"stats"}
//! {"id":7,"cmd":"shutdown"}
//! ```
//!
//! Only `cmd` (and `alg`/`graph` for `run`) is required. A field that is
//! present must have its type and range, and a field its command does
//! not read is refused: both answer `request.parse`, naming the field.
//! `energy`, `budget`, `wake_policy` and the `faults` keys take the
//! grammar of the CLI's `--energy-model`, `--budget`, `--wake-policy`
//! and fault flags; a run line parses to the same
//! [`RunRequest`] as the equivalent `sleeping-mst run` argv.
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
use mst_core::wire::{self, fnv64, RunRequest};
use mst_core::{AlgorithmSpec, MstOutcome};
use netsim::{EnergyModel, FaultPlan};

use crate::chaos::ChaosSpec;
use crate::harness::{Invalid, SweepSpec};
use crate::report::ReportSpec;

/// Typed serve-plane error codes (the `run.*` / `sim.*` families come
/// from [`mst_core::runner::RUN_ERROR_CODES`] and
/// [`netsim::SIM_ERROR_CODES`]). Frozen spellings: responses embed
/// these, and clients match on them.
pub mod codes {
    /// The request line was not valid JSON, missed a required field, or
    /// carried an unknown, mistyped or out-of-range field.
    pub const PARSE: &str = "request.parse";
    /// `alg`/`algs` named an algorithm the registry does not know.
    pub const BAD_ALGORITHM: &str = "request.bad-algorithm";
    /// A sweep template did not contain the `{n}` placeholder.
    pub const BAD_TEMPLATE: &str = "request.bad-template";
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

/// A parsed, validated request. The batch kinds carry the `bench` spec
/// types themselves — the same values the CLI's `sweep`, `report` and
/// `chaos` parse to.
#[derive(Debug, Clone)]
pub enum Request {
    /// Execute (or serve from cache) one run.
    Run(RunRequest),
    /// A template sweep over an algorithm × size × seed grid.
    Sweep(SweepSpec),
    /// The "Table 1, measured" report panel.
    Report(ReportSpec),
    /// A chaos (fault-sweep) campaign.
    Chaos(ChaosSpec),
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

/// Strict typed reads from one request object. A field that is present
/// must have the asked-for type and range — never silently defaulted —
/// and every error names the field by its dotted path.
struct Fields<'a> {
    obj: &'a Json,
    /// `""` for the top level, `"faults."` for the fault plan.
    path: &'static str,
}

impl<'a> Fields<'a> {
    /// Refuses the object itself if it is not an object, and any field
    /// not in `known`.
    fn new(obj: &'a Json, path: &'static str, known: &[&str]) -> Result<Fields<'a>, String> {
        let Json::Obj(fields) = obj else {
            let name = path.trim_end_matches('.');
            return Err(format!("field '{name}': expected an object"));
        };
        if let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!(
                "unknown field '{path}{key}' (expected {})",
                known.join(", ")
            ));
        }
        Ok(Fields { obj, path })
    }

    fn get<T>(
        &self,
        name: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.obj
            .get(name)
            .map(|v| {
                read(v).ok_or_else(|| format!("field '{}{name}': expected {expected}", self.path))
            })
            .transpose()
    }

    fn str(&self, name: &str) -> Result<Option<&'a str>, String> {
        self.get(name, "a string", Json::as_str)
    }

    fn u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name, "an unsigned integer", Json::as_u64)
    }

    fn u32(&self, name: &str) -> Result<Option<u32>, String> {
        self.get(name, "an unsigned 32-bit integer", |v| {
            v.as_u64().and_then(|n| u32::try_from(n).ok())
        })
    }

    fn u64_list(&self, name: &str) -> Result<Option<Vec<u64>>, String> {
        self.get(name, "an array of unsigned integers", |v| {
            v.as_arr()?.iter().map(Json::as_u64).collect()
        })
    }

    fn sizes(&self) -> Result<Option<Vec<usize>>, String> {
        self.get("sizes", "an array of sizes", |v| {
            v.as_arr()?
                .iter()
                .map(|n| n.as_u64().and_then(|n| usize::try_from(n).ok()))
                .collect()
        })
    }
}

/// A refusal before the request id is attached. A bare message (every
/// `?` on a `String` error) is a `request.parse` refusal.
struct Refusal(&'static str, String);

impl From<String> for Refusal {
    fn from(message: String) -> Refusal {
        Refusal(codes::PARSE, message)
    }
}

/// A broken batch-spec rule keeps the typed code of its field: an empty
/// algorithm list and a template without `{n}` have their own codes,
/// the rest are `request.parse` refusals naming the field.
impl From<Invalid> for Refusal {
    fn from(invalid: Invalid) -> Refusal {
        let code = match invalid.field {
            "algs" => codes::BAD_ALGORITHM,
            "template" => codes::BAD_TEMPLATE,
            _ => codes::PARSE,
        };
        Refusal(code, invalid.to_string())
    }
}

/// Parses one NDJSON request line into a validated envelope.
pub fn parse_request(line: &str) -> Result<RequestEnvelope, RequestError> {
    let unparsed = |message: String| RequestError {
        id: 0,
        code: codes::PARSE,
        message,
    };
    let doc = Json::parse(line).map_err(|e| unparsed(format!("bad JSON: {e}")))?;
    let top = Fields {
        obj: &doc,
        path: "",
    };
    let id = top.u64("id").map_err(unparsed)?.unwrap_or(0);
    let request =
        parse_command(&top).map_err(|Refusal(code, message)| RequestError { id, code, message })?;
    Ok(RequestEnvelope { id, request })
}

fn parse_command(top: &Fields<'_>) -> Result<Request, Refusal> {
    let cmd = top
        .str("cmd")?
        .ok_or("missing string field 'cmd'".to_string())?;
    // Each command names every field it reads; any other field is refused.
    let fields = |known: &[&str]| Fields::new(top.obj, "", known);
    Ok(match cmd {
        "run" => Request::Run(parse_run(&fields(&[
            "id",
            "cmd",
            "alg",
            "graph",
            "seed",
            "shards",
            "faults",
            "energy",
            "budget",
            "wake_policy",
        ])?)?),
        "sweep" => {
            let doc = fields(&["id", "cmd", "algs", "template", "sizes", "seeds"])?;
            let algs = doc
                .str("algs")?
                .unwrap_or("randomized")
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(wire::parse_algorithm)
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| Refusal(codes::BAD_ALGORITHM, e))?;
            let spec = SweepSpec {
                algs,
                template: doc.str("template")?.unwrap_or("ring:{n}").to_string(),
                sizes: doc.sizes()?.unwrap_or(vec![16, 32]),
                seeds: doc.u64_list("seeds")?.unwrap_or(vec![0]),
                shards: None,
                energy: None,
            };
            spec.validate()?;
            Request::Sweep(spec)
        }
        "report" => {
            let doc = fields(&["id", "cmd", "sizes", "seeds"])?;
            let mut spec = ReportSpec::default();
            spec.sizes = doc.sizes()?.unwrap_or(spec.sizes);
            spec.seeds = doc.u64_list("seeds")?.unwrap_or(spec.seeds);
            spec.validate()?;
            Request::Report(spec)
        }
        "chaos" => {
            let doc = fields(&["id", "cmd", "seed", "sizes", "trials"])?;
            let mut spec = ChaosSpec::default();
            spec.seed = doc.u64("seed")?.unwrap_or(spec.seed);
            spec.sizes = doc.sizes()?.unwrap_or(spec.sizes);
            spec.trials = doc.u64("trials")?.unwrap_or(spec.trials);
            spec.validate()?;
            Request::Chaos(spec)
        }
        "stats" => {
            fields(&["id", "cmd"])?;
            Request::Stats
        }
        "shutdown" => {
            fields(&["id", "cmd"])?;
            Request::Shutdown
        }
        other => {
            return Err(format!(
                "unknown cmd '{other}' (expected run, sweep, report, chaos, stats, shutdown)"
            )
            .into())
        }
    })
}

/// The `"cmd":"run"` fields as a normalized [`RunRequest`].
fn parse_run(doc: &Fields<'_>) -> Result<RunRequest, Refusal> {
    let required = |name: &str| {
        doc.str(name)?
            .ok_or_else(|| format!("run: missing string field '{name}'"))
    };
    let alg =
        wire::parse_algorithm(required("alg")?).map_err(|e| Refusal(codes::BAD_ALGORITHM, e))?;
    let mut req = RunRequest::new(alg, required("graph")?, doc.u64("seed")?.unwrap_or(0));
    req.shards = doc.get("shards", "a shard count in 1..=4294967295", |v| {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&s| s >= 1)
    })?;
    req.faults = doc.obj.get("faults").map(parse_fault_plan).transpose()?;
    let energy = doc
        .str("energy")?
        .map(wire::parse_energy_model)
        .transpose()?;
    req.energy = wire::budgeted(energy, doc.u64("budget")?);
    if let Some(spec) = doc.str("wake_policy")? {
        req.wake_policy = wire::parse_wake_policy(spec)?;
    }
    Ok(req.normalized())
}

fn parse_fault_plan(value: &Json) -> Result<FaultPlan, String> {
    let plan = Fields::new(
        value,
        "faults.",
        &[
            "fault_seed",
            "drop_ppm",
            "duplicate_ppm",
            "spurious_sleep_ppm",
            "wake_jitter",
            "crashes",
        ],
    )?;
    let mut faults = FaultPlan::seeded(plan.u64("fault_seed")?.unwrap_or(0))
        .with_drop_ppm(plan.u32("drop_ppm")?.unwrap_or(0))
        .with_duplicate_ppm(plan.u32("duplicate_ppm")?.unwrap_or(0))
        .with_spurious_sleep_ppm(plan.u32("spurious_sleep_ppm")?.unwrap_or(0))
        .with_wake_jitter(plan.u64("wake_jitter")?.unwrap_or(0));
    let crashes = plan.get(
        "crashes",
        "an array of [node, round] pairs with a 32-bit node",
        |v| {
            v.as_arr()?
                .iter()
                .map(|pair| match pair.as_arr()? {
                    [node, round] => Some((u32::try_from(node.as_u64()?).ok()?, round.as_u64()?)),
                    _ => None,
                })
                .collect::<Option<Vec<(u32, u64)>>>()
        },
    )?;
    for (node, round) in crashes.unwrap_or_default() {
        let round = wire::crash_round(round).map_err(|e| format!("field 'faults.crashes': {e}"))?;
        faults = faults.with_crash(node, round);
    }
    Ok(faults)
}

impl Request {
    /// The canonical cache-key string for cacheable requests (`None` for
    /// the control plane). Run keys come from
    /// [`RunRequest::cache_key`]; batch keys spell out every grid
    /// parameter a serve line can set. Shard counts never appear —
    /// results are shard-independent by the bit-identity proofs — and a
    /// batch line sets no energy model, so the spec's default is implied.
    pub fn cache_key(&self) -> Option<String> {
        fn join<T: std::fmt::Display>(items: &[T]) -> String {
            items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
        }
        match self {
            Request::Run(run) => Some(run.cache_key()),
            Request::Sweep(spec) => {
                let names: Vec<&str> = spec.algs.iter().map(|a| a.name).collect();
                Some(format!(
                    "sweep|algs={}|template={}|sizes={}|seeds={}",
                    names.join(","),
                    spec.template,
                    join(&spec.sizes),
                    join(&spec.seeds)
                ))
            }
            Request::Report(spec) => Some(format!(
                "report|sizes={}|seeds={}",
                join(&spec.sizes),
                join(&spec.seeds)
            )),
            Request::Chaos(spec) => Some(format!(
                "chaos|seed={}|sizes={}|trials={}",
                spec.seed,
                join(&spec.sizes),
                spec.trials
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

/// Renders a run's result object — the one renderer behind `sleeping-mst
/// run --json`, the daemon's `result` fragment, and the serve tests'
/// cold path. The request supplies the replay recipe (algorithm, seed,
/// and the normalized energy model, wake policy and fault plan), so the
/// object names every cache-key component except the graph spec.
///
/// `peak_rss_bytes` is the one machine-dependent field: the CLI passes
/// it and it lands in the `memory` block; the daemon passes `None`, so
/// its fragment is cacheable and byte-comparable across processes. The
/// `energy` object and the `wake_policy` field appear only for an
/// active model and a non-identity policy, so plain runs render the
/// same bytes they always have (pinned goldens, cross-process `cmp`s).
pub fn render_run(
    req: &RunRequest,
    graph: &WeightedGraph,
    out: &MstOutcome,
    peak_rss_bytes: Option<u64>,
) -> String {
    let plan = req.faults.clone().unwrap_or_default();
    let crashes: Vec<String> = plan
        .crashes
        .iter()
        .map(|(node, round)| format!("[{node},{round}]"))
        .collect();
    let rss = peak_rss_bytes.map_or(String::new(), |b| format!(",\"peak_rss_bytes\":{b}"));
    let energy = match &req.energy {
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
    let wake = if req.wake_policy.is_identity() {
        String::new()
    } else {
        format!(",\"wake_policy\":\"{}\"", req.wake_policy.spec_string())
    };
    format!(
        "{{\"algorithm\":\"{}\",\"seed\":{},\"nodes\":{},\"edges\":{},\"tree_edges\":{},\
         \"total_weight\":{},\"phases\":{},\"awake_max\":{},\"awake_avg\":{:.3},\
         \"rounds\":{},\"awake_round_product\":{},\"messages_delivered\":{},\
         \"messages_lost\":{},\"max_message_bits\":{},\"log_constant\":{},\
         \"injected_drops\":{},\"dup_deliveries\":{},\"crashed_nodes\":{},\
         \"memory\":{{\"graph_bytes\":{},\"arena_peak_envelopes\":{}{rss}}}{energy}{wake}\
         ,\"fault_plan\":{{\"fault_seed\":{},\"drop_ppm\":{},\"duplicate_ppm\":{},\
         \"spurious_sleep_ppm\":{},\"wake_jitter\":{},\"crashes\":[{}]}}}}",
        req.alg.name,
        req.seed,
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
        plan.fault_seed,
        plan.drop_ppm,
        plan.duplicate_ppm,
        plan.spurious_sleep_ppm,
        plan.wake_jitter,
        crashes.join(","),
    )
}

/// [`render_run`] for a block-policy daemon request given field by
/// field (`alg` must be a registry entry).
pub fn render_run_result(
    alg: &AlgorithmSpec,
    graph: &WeightedGraph,
    seed: u64,
    faults: Option<&FaultPlan>,
    energy: Option<&EnergyModel>,
    out: &MstOutcome,
) -> String {
    let alg = wire::parse_algorithm(alg.name).expect("rendered algorithms are registry entries");
    let req = RunRequest {
        faults: faults.cloned(),
        energy: energy.copied(),
        ..RunRequest::new(alg, "", seed)
    };
    render_run(&req.normalized(), graph, out, None)
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
    fn bad_fields_are_refused_not_defaulted() {
        let run = r#""cmd":"run","alg":"prim","graph":"ring:8""#;
        let sweep = r#""cmd":"sweep","algs":"prim""#;
        let chaos = r#""cmd":"chaos""#;
        for (base, bad, field) in [
            // Mistyped: present but not the field's type.
            (run, r#""seed":"7""#, "seed"),
            (run, r#""seed":-1"#, "seed"),
            (run, r#""seed":1.5"#, "seed"),
            (run, r#""budget":"lots""#, "budget"),
            (run, r#""shards":null"#, "shards"),
            (run, r#""energy":5"#, "energy"),
            (run, r#""wake_policy":2"#, "wake_policy"),
            (run, r#""faults":"drop_ppm:5000""#, "faults"),
            (
                run,
                r#""faults":{"duplicate_ppm":-1}"#,
                "faults.duplicate_ppm",
            ),
            (r#""cmd":"run","graph":"ring:8""#, r#""alg":5"#, "alg"),
            (r#""cmd":"sweep""#, r#""algs":5"#, "algs"),
            (sweep, r#""template":5"#, "template"),
            (sweep, r#""sizes":"8""#, "sizes"),
            (chaos, r#""seed":[1]"#, "seed"),
            (chaos, r#""trials":"2""#, "trials"),
            (r#""x":0"#, r#""cmd":5"#, "cmd"),
            // Out of range: never clamped or truncated.
            (run, r#""shards":0"#, "shards"),
            (run, r#""shards":4294967296"#, "shards"),
            (
                run,
                r#""faults":{"drop_ppm":4294967296}"#,
                "faults.drop_ppm",
            ),
            (
                run,
                r#""faults":{"spurious_sleep_ppm":4294967296}"#,
                "faults.spurious_sleep_ppm",
            ),
            (
                run,
                r#""faults":{"crashes":[[4294967296,9]]}"#,
                "faults.crashes",
            ),
            // A crash in round 0 would never fire.
            (run, r#""faults":{"crashes":[[3,0]]}"#, "faults.crashes"),
            (chaos, r#""trials":0"#, "trials"),
            (chaos, r#""sizes":[]"#, "sizes"),
            (sweep, r#""sizes":[]"#, "sizes"),
            (r#""cmd":"report""#, r#""sizes":[]"#, "sizes"),
            // Empty seed lists: never run (or cached) as an empty grid.
            (r#""cmd":"report","sizes":[8]"#, r#""seeds":[]"#, "seeds"),
            (
                r#""cmd":"sweep","algs":"prim","template":"ring:{n}","sizes":[8]"#,
                r#""seeds":[]"#,
                "seeds",
            ),
            // Unknown: a field the command does not read.
            (run, r#""wake_polcy":"duty:2""#, "wake_polcy"),
            (run, r#""executor":"calendar""#, "executor"),
            (run, r#""faults":{"drop":5}"#, "faults.drop"),
            (sweep, r#""graph":"ring:8""#, "graph"),
            (r#""cmd":"stats""#, r#""verbose":true"#, "verbose"),
        ] {
            let line = format!(r#"{{"id":9,{base},{bad}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert_eq!((err.id, err.code), (9, codes::PARSE), "{line}");
            let named = format!("'{field}'");
            assert!(err.message.contains(&named), "{line}: {}", err.message);
        }
        // A mistyped id is refused too, under the unparseable-line id.
        let err = parse_request(r#"{"id":"9","cmd":"stats"}"#).unwrap_err();
        assert_eq!((err.id, err.code), (0, codes::PARSE));
        assert!(err.message.contains("'id'"), "{}", err.message);
        // A value outside a spec grammar keeps its typed code.
        let err = parse_request(&format!(r#"{{"id":9,{run},"wake_policy":"lazy"}}"#)).unwrap_err();
        assert_eq!(err.code, codes::PARSE);
        assert!(
            err.message.contains("unknown wake policy"),
            "{}",
            err.message
        );
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
