//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-sweep|wide-wave|serve-mix> --seed N --seconds S --trace <0|1> \
//!     [--counters-out FILE] [--counters-gate FILE]
//! ```
//!
//! Prints a run record (host block, seeds, every metric with its median,
//! quartiles and sample count, the exact counters and the output checks)
//! and, as the last line, one JSON result object. Exits non-zero when
//! any output check fails. See `perfbench/README.md`.

mod clock;
mod common;
mod host;
mod serve_mix;
mod summary;
mod sweep;
mod trace;
mod wave;

use std::collections::BTreeMap;
use std::process::ExitCode;

use clock::Clock;
use common::{Outcome, Settings, COMMON_LAYERS, END_TO_END};
use host::Host;
use summary::{metric_name_ok, result_line};

/// The seed later performance claims are re-checked on; no tuning run
/// of the benchmark used it.
const HELD_OUT_SEED: u64 = 9001;

const WORKLOADS: [&str; 3] = [sweep::NAME, wave::NAME, serve_mix::NAME];

const USAGE: &str = "usage: perfbench --workload <table1-sweep|wide-wave|serve-mix> --seed N \
                     --seconds S --trace <0|1> [--counters-out FILE] [--counters-gate FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    counters_out: Option<String>,
    counters_gate: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        counters_out: None,
        counters_gate: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes an unsigned integer")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--counters-out" => args.counters_out = Some(value()?),
            "--counters-gate" => args.counters_gate = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Threads or connections a workload runs in parallel at most.
fn parallelism(workload: &str) -> usize {
    match workload {
        w if w == sweep::NAME => 1,
        w if w == serve_mix::NAME => serve_mix::WORKERS.max(serve_mix::CLIENTS),
        // The wave's sharded run uses two lanes.
        _ => 2,
    }
}

fn run_workload(name: &str, settings: &Settings, clock: &Clock, host: &Host) -> Outcome {
    match name {
        n if n == sweep::NAME => sweep::run(settings, clock),
        n if n == wave::NAME => wave::run(settings, clock, host.l3_bytes),
        _ => serve_mix::run(settings, clock),
    }
}

/// Metrics of the result line: the end-to-end set untraced, the common
/// per-layer set traced.
fn result_metrics(outcome: &Outcome, trace: bool) -> Vec<(String, &'static str, f64)> {
    if trace {
        COMMON_LAYERS
            .iter()
            .map(|&name| {
                let layer = outcome.layers.iter().find(|l| l.name == name);
                (
                    name.to_string(),
                    layer.map_or("count", |l| l.unit),
                    layer.map_or(f64::NAN, |l| l.value),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let metric = outcome.end_to_end.iter().find(|m| m.name == name);
                (
                    name.to_string(),
                    metric.map_or("s", |m| m.unit),
                    metric.map_or(f64::NAN, |m| m.value),
                )
            })
            .collect()
    }
}

fn counters_fnv(counters: &[(String, u64)]) -> u64 {
    let text: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    mst_core::wire::fnv64(text.join("\n").as_bytes())
}

/// `workload seed name value` lines, the counters file format.
fn counter_lines(workload: &str, seed: u64, counters: &[(String, u64)]) -> String {
    counters
        .iter()
        .map(|(k, v)| format!("{workload} {seed} {k} {v}\n"))
        .collect()
}

/// Compares this run's exact counters against a recorded file.
fn gate(path: &str, workload: &str, seed: u64, outcome: &mut Outcome) {
    let recorded = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            outcome.check(false, || format!("counters gate: cannot read {path}: {e}"));
            return;
        }
    };
    let prefix = format!("{workload} {seed} ");
    let expected: BTreeMap<&str, &str> = recorded
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|l| l.split_once(' '))
        .collect();
    outcome.check(!expected.is_empty(), || {
        format!("counters gate: {path} has no record of {workload} seed {seed}")
    });
    for (name, value) in outcome.counters.clone() {
        let got = value.to_string();
        outcome.check(expected.get(name.as_str()) == Some(&got.as_str()), || {
            format!(
                "counters gate: {name} = {got}, recorded {:?}",
                expected.get(name.as_str())
            )
        });
    }
}

fn render(name: &str, settings: &Settings, outcome: &Outcome) -> String {
    let mut s = String::new();
    let mut line = |text: String| {
        s.push_str(&text);
        s.push('\n');
    };
    line(format!("workload: {name}"));
    line(format!(
        "seed: {} (held-out seed for re-checking claims: {HELD_OUT_SEED})",
        settings.seed
    ));
    line(format!(
        "run_seconds: {}  trace: {}",
        settings.seconds,
        u8::from(settings.trace)
    ));
    for note in &outcome.notes {
        line(format!("note: {note}"));
    }
    if settings.trace {
        line("per-layer metrics (traced run; self time from spans) -> the end-to-end metric each should move:".to_string());
        for l in &outcome.layers {
            line(format!(
                "  {:<42} {:>16.6} {:<6} -> {}",
                l.name, l.value, l.unit, l.moves
            ));
        }
        if let Some(o) = outcome.trace_overhead_s {
            line(format!(
                "tracing overhead: {o:+.6} s per job (traced wall_s minus untraced wall_s)"
            ));
        }
    } else {
        line("end-to-end metrics: value (statistic) [q1, q3] (iqr/median), n; tail = highest percentile with >= 10 samples beyond".to_string());
        for m in &outcome.end_to_end {
            let s = &m.summary;
            let tail = match s.tail {
                Some((p, v)) if m.name == "p99_ms" => format!("  tail p{p} = {v:.6}"),
                None if m.name == "p99_ms" => {
                    "  tail: none (n < 20), reports the median".to_string()
                }
                _ => String::new(),
            };
            line(format!(
                "  {:<20} {:>16.6} {:<4} ({}) [{:.6}, {:.6}] ({:.1}%) n={}{tail}  -- {}",
                m.name,
                m.value,
                m.unit,
                m.stat,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n,
                m.meaning
            ));
        }
    }
    line(format!(
        "  {:<20} {:>16.6} ratio ({} failed / {} attempted)",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    let counters: Vec<String> = outcome
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    line(format!("exact counters (gated): {}", counters.join(" ")));
    line(format!(
        "exact counters fnv: {:016x}",
        counters_fnv(&outcome.counters)
    ));
    if !outcome.ungated.is_empty() {
        let ungated: Vec<String> = outcome
            .ungated
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        line(format!(
            "reported, not gated (timing-dependent): {}",
            ungated.join(" ")
        ));
    }
    for f in &outcome.failures {
        line(format!("FAILED: {f}"));
    }
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.as_str();
    let clock = Clock::new();
    let host = Host::probe();
    if parallelism(name) > host.nproc {
        eprintln!(
            "perfbench: refusing {name}: it runs {} threads or connections in parallel and the host has {}",
            parallelism(name),
            host.nproc
        );
        return ExitCode::from(2);
    }
    if name == serve_mix::NAME {
        serve_mix::single_malloc_arena();
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };

    println!("perfbench run record");
    println!("{}", host.render());
    let jiffies = host::cpu_jiffies();
    let mut outcome = run_workload(name, &settings, &clock, &host);
    if let Some(pct) = host::steal_pct(jiffies, host::cpu_jiffies()) {
        outcome.notes.push(format!(
            "host.steal: {pct:.2}% of CPU time stolen by the hypervisor during the run"
        ));
    }
    if let Some(path) = &args.counters_gate {
        gate(path, name, settings.seed, &mut outcome);
    }
    if let Some(path) = &args.counters_out {
        let lines = counter_lines(name, settings.seed, &outcome.counters);
        if let Err(e) = std::fs::write(path, lines) {
            outcome.error(format!("cannot write {path}: {e}"));
        }
    }
    print!("{}", render(name, &settings, &outcome));
    let metrics = result_metrics(&outcome, settings.trace);
    let mut failed = outcome.failed;
    for (metric, _, _) in &metrics {
        if !metric_name_ok(metric) {
            failed += 1;
            println!("FAILED: metric name {metric} is outside [A-Za-z0-9_.-]");
        }
    }
    let line = result_line(outcome.attempted.max(1), failed, &metrics);
    let ok = line.starts_with("{\"correct\":true");
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
