//! The Table-1 report generator: sweeps the registry across graph
//! families and sizes with metrics recording on, and renders a
//! byte-deterministic artifact (JSON + markdown) comparing the measured
//! awake/round/message scaling against the paper's bounds, with
//! fitted-exponent columns and per-phase awake breakdowns.
//!
//! Determinism contract: generation is sequential (one scratch, fixed
//! grid order), every run derives from `(family, n, seed)`, floats are
//! rendered with fixed precision, and no wall-clock or hashed container
//! is involved — regenerating the report yields identical bytes (pinned
//! in `tests/report_golden.rs`).

use graphlib::{generators, WeightedGraph};
use mst_core::registry::{self, AlgorithmSpec};
use mst_core::{ExecOptions, MstScratch};
use netsim::{EnergyModel, Metrics, RunStats};

use crate::harness::Invalid;

/// The report panel: sizes, seeds, and the energy model — the `report`
/// request of the CLI and the daemon alike.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Graph sizes swept per family.
    pub sizes: Vec<usize>,
    /// Trial seeds per (family, algorithm, n) cell.
    pub seeds: Vec<u64>,
    /// Energy model the panel charges under (no budget by default, so
    /// outcomes are unchanged — the model only fills the energy columns).
    /// The ledger is deterministic, so it is part of the pinned report
    /// bytes.
    pub energy: EnergyModel,
}

impl ReportSpec {
    /// The panel's validity rules: non-empty sizes and seeds.
    ///
    /// # Errors
    ///
    /// The first broken rule.
    pub fn validate(&self) -> Result<(), Invalid> {
        Invalid::check(!self.sizes.is_empty(), "sizes", "needs at least one size")?;
        Invalid::check(!self.seeds.is_empty(), "seeds", "needs at least one seed")
    }
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            sizes: vec![8, 12, 16, 24],
            seeds: vec![0, 1],
            energy: EnergyModel::reference(),
        }
    }
}

/// One (algorithm, n) cell: means across the panel's seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Graph size.
    pub n: usize,
    /// Seeds aggregated.
    pub seeds: usize,
    /// Mean measured awake complexity (max awake rounds over nodes).
    pub awake_max: f64,
    /// `awake_max / log2(n)` — the constant the paper's `O(log n)` hides.
    pub awake_over_log: f64,
    /// Mean run time in rounds (last round of the run).
    pub rounds: f64,
    /// Mean count of *active* rounds (rounds with at least one awake node).
    pub active_rounds: f64,
    /// Mean envelopes sent.
    pub messages_sent: f64,
    /// Mean payload bits sent.
    pub bits_sent: f64,
    /// Mean (over seeds) of the run's max single-round per-edge congestion.
    pub max_edge_bits: f64,
    /// Mean heaviest per-node energy spend (nano-joules) under the
    /// panel's [`EnergyModel`] — the energy analogue of `awake_max`.
    pub energy_max: f64,
    /// Mean total energy spend across all nodes.
    pub energy_total: f64,
}

/// One phase label's whole-run totals for the breakdown panel (largest
/// size, first seed).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// The algorithm's phase label.
    pub label: &'static str,
    /// Spans carrying this label.
    pub spans: u64,
    /// Active rounds across those spans.
    pub active_rounds: u64,
    /// Awake node-rounds across those spans.
    pub awake_node_rounds: u64,
    /// Fraction of the run's total awake node-rounds spent here.
    pub awake_share: f64,
    /// Envelopes sent across those spans.
    pub messages_sent: u64,
}

/// One algorithm's measured block of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmReport {
    /// Registry name.
    pub name: &'static str,
    /// The paper's awake-complexity bound for this algorithm.
    pub awake_bound: &'static str,
    /// The paper's round-complexity bound.
    pub rounds_bound: &'static str,
    /// Fitted exponent `b` of `awake_max ~ n^b` across the panel's sizes.
    pub awake_exponent: f64,
    /// Fitted exponent of `rounds ~ n^b`.
    pub rounds_exponent: f64,
    /// Fitted exponent of `messages_sent ~ n^b`.
    pub messages_exponent: f64,
    /// One row per swept size.
    pub rows: Vec<CellRow>,
    /// Per-phase awake breakdown at the largest size, first seed.
    pub phases: Vec<PhaseRow>,
}

/// One graph family's block of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReport {
    /// Family name (`random`, `ring`).
    pub family: &'static str,
    /// Every registry algorithm, in registry order.
    pub algorithms: Vec<AlgorithmReport>,
}

/// The full Table-1 artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Sizes swept.
    pub sizes: Vec<usize>,
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Canonical spec string of the panel's [`EnergyModel`]
    /// ([`EnergyModel::spec_string`]) — the pricing behind the energy
    /// columns.
    pub energy: String,
    /// One block per graph family.
    pub families: Vec<FamilyReport>,
}

/// The paper's bounds per registry algorithm (Table 1 plus the baselines).
fn paper_bounds(name: &str) -> (&'static str, &'static str) {
    match name {
        "randomized" => ("O(log n)", "O(n log n)"),
        "deterministic" => ("O(log n)", "O(n N log n)"),
        "logstar" => ("O(log n log* n)", "O(n log n log* n)"),
        "prim" => ("Theta(n)", "O(n^2)"),
        "spanning-tree" => ("O(log n)", "O(n log n)"),
        "always-awake" => ("= rounds", "O(n log n)"),
        _ => ("?", "?"),
    }
}

/// The report's graph families. Both are connected (so `prim` runs) and
/// deterministic functions of `(n, seed)`.
fn build_family(family: &str, n: usize, seed: u64) -> Result<WeightedGraph, String> {
    let graph = match family {
        "random" => generators::random_connected(n, 0.25, seed.wrapping_mul(1000) + n as u64),
        "ring" => generators::ring(n, seed),
        other => return Err(format!("unknown graph family `{other}`")),
    };
    graph.map_err(|e| format!("{family} family at n={n} seed={seed}: {e}"))
}

const FAMILIES: &[&str] = &["random", "ring"];

/// One registry run with metrics on, reduced to what the report needs.
fn run_once(
    spec: &AlgorithmSpec,
    graph: &WeightedGraph,
    seed: u64,
    energy: EnergyModel,
    scratch: &mut MstScratch,
) -> Result<(RunStats, Metrics), String> {
    spec.run_with_options(
        graph,
        &ExecOptions::seeded(seed).with_metrics().with_energy(energy),
        scratch,
    )
    .map(|out| (out.stats, out.metrics))
    .map_err(|e| format!("{} on n={} seed={seed}: {e}", spec.name, graph.node_count()))
}

/// Least-squares slope of `ln(y)` on `ln(n)` — the fitted exponent `b` of
/// `y ~ n^b`. Returns 0 for degenerate panels (fewer than two sizes).
fn fitted_exponent(points: &[(usize, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let k = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, y)| y.max(1.0).ln()).collect();
    let mx = xs.iter().sum::<f64>() / k;
    let my = ys.iter().sum::<f64>() / k;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Generates the report for `spec`. Sequential by design — determinism
/// over throughput; the default panel takes well under a second.
///
/// Each `(family, n, seed)` graph is built once and run by every
/// algorithm in turn. All six runs share the seed, so the scratch keeps
/// the node contexts of the first for the other five. Every cell still
/// averages its seeds in panel order, so the bytes do not depend on the
/// loop order.
///
/// # Errors
///
/// A broken [`ReportSpec::validate`] rule, or stringified
/// graph-construction or run errors with their grid coordinates.
pub fn generate(spec: &ReportSpec) -> Result<Report, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let breakdown_n = spec.sizes.iter().copied().max().unwrap_or(0);
    let breakdown_seed = spec.seeds[0];
    let k = spec.seeds.len() as f64;
    let mut scratch = MstScratch::new();
    let mut families = Vec::new();
    for &family in FAMILIES {
        // Per algorithm, in registry order: one row per size, and the
        // phase breakdown.
        let mut rows: Vec<Vec<CellRow>> = registry::ALGORITHMS.iter().map(|_| Vec::new()).collect();
        let mut phases: Vec<Vec<PhaseRow>> =
            registry::ALGORITHMS.iter().map(|_| Vec::new()).collect();
        for &n in &spec.sizes {
            let mut cells: Vec<CellRow> = registry::ALGORITHMS
                .iter()
                .map(|_| CellRow {
                    n,
                    seeds: spec.seeds.len(),
                    awake_max: 0.0,
                    awake_over_log: 0.0,
                    rounds: 0.0,
                    active_rounds: 0.0,
                    messages_sent: 0.0,
                    bits_sent: 0.0,
                    max_edge_bits: 0.0,
                    energy_max: 0.0,
                    energy_total: 0.0,
                })
                .collect();
            for &seed in &spec.seeds {
                let graph = build_family(family, n, seed)?;
                for ((alg, cell), alg_phases) in
                    registry::ALGORITHMS.iter().zip(&mut cells).zip(&mut phases)
                {
                    let (stats, metrics) = run_once(alg, &graph, seed, spec.energy, &mut scratch)?;
                    cell.energy_max += stats.energy_max() as f64 / k;
                    cell.energy_total += stats.energy_total() as f64 / k;
                    cell.awake_max += stats.awake_max() as f64 / k;
                    cell.rounds += stats.rounds as f64 / k;
                    cell.active_rounds += metrics.active_rounds() as f64 / k;
                    cell.messages_sent += metrics.messages_sent() as f64 / k;
                    cell.bits_sent += metrics.bits_sent() as f64 / k;
                    cell.max_edge_bits += metrics.max_round_edge_bits() as f64 / k;
                    if n == breakdown_n && seed == breakdown_seed {
                        let total_awake = metrics.awake_total().max(1);
                        *alg_phases = alg
                            .phase_totals(&graph, &metrics)
                            .into_iter()
                            .map(|t| PhaseRow {
                                label: t.label,
                                spans: t.spans,
                                active_rounds: t.active_rounds,
                                awake_node_rounds: t.awake_node_rounds,
                                awake_share: t.awake_node_rounds as f64 / total_awake as f64,
                                messages_sent: t.messages_sent,
                            })
                            .collect();
                    }
                }
            }
            for (alg_rows, mut cell) in rows.iter_mut().zip(cells) {
                cell.awake_over_log = cell.awake_max / (n as f64).log2().max(1.0);
                alg_rows.push(cell);
            }
        }
        let algorithms = registry::ALGORITHMS
            .iter()
            .zip(rows)
            .zip(phases)
            .map(|((alg, rows), phases)| {
                let (awake_bound, rounds_bound) = paper_bounds(alg.name);
                let fit = |f: &dyn Fn(&CellRow) -> f64| {
                    fitted_exponent(&rows.iter().map(|r| (r.n, f(r))).collect::<Vec<_>>())
                };
                AlgorithmReport {
                    name: alg.name,
                    awake_bound,
                    rounds_bound,
                    awake_exponent: fit(&|r| r.awake_max),
                    rounds_exponent: fit(&|r| r.rounds),
                    messages_exponent: fit(&|r| r.messages_sent),
                    rows,
                    phases,
                }
            })
            .collect();
        families.push(FamilyReport { family, algorithms });
    }
    Ok(Report {
        sizes: spec.sizes.clone(),
        seeds: spec.seeds.clone(),
        energy: spec.energy.spec_string(),
        families,
    })
}

fn push_list<T: std::fmt::Display>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_string());
    }
    out.push(']');
}

impl Report {
    /// Renders the report as deterministic JSON (hand-rolled: fixed field
    /// order, fixed `{:.3}` float precision, no escaping needed because
    /// every string is a static registry name or label).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"report\":\"table1-measured\",\"sizes\":");
        push_list(&mut s, &self.sizes);
        s.push_str(",\"seeds\":");
        push_list(&mut s, &self.seeds);
        s.push_str(&format!(",\"energy\":\"{}\"", self.energy));
        s.push_str(",\"families\":[");
        for (fi, fam) in self.families.iter().enumerate() {
            if fi > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"family\":\"{}\",\"algorithms\":[", fam.family));
            for (ai, alg) in fam.algorithms.iter().enumerate() {
                if ai > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"name\":\"{}\",\"awake_bound\":\"{}\",\"rounds_bound\":\"{}\",\
                     \"awake_exponent\":{:.3},\"rounds_exponent\":{:.3},\
                     \"messages_exponent\":{:.3},\"rows\":[",
                    alg.name,
                    alg.awake_bound,
                    alg.rounds_bound,
                    alg.awake_exponent,
                    alg.rounds_exponent,
                    alg.messages_exponent,
                ));
                for (ri, r) in alg.rows.iter().enumerate() {
                    if ri > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"n\":{},\"seeds\":{},\"awake_max\":{:.3},\
                         \"awake_over_log\":{:.3},\"rounds\":{:.3},\
                         \"active_rounds\":{:.3},\"messages_sent\":{:.3},\
                         \"bits_sent\":{:.3},\"max_edge_bits\":{:.3},\
                         \"energy_max\":{:.3},\"energy_total\":{:.3}}}",
                        r.n,
                        r.seeds,
                        r.awake_max,
                        r.awake_over_log,
                        r.rounds,
                        r.active_rounds,
                        r.messages_sent,
                        r.bits_sent,
                        r.max_edge_bits,
                        r.energy_max,
                        r.energy_total,
                    ));
                }
                s.push_str("],\"phases\":[");
                for (pi, p) in alg.phases.iter().enumerate() {
                    if pi > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"label\":\"{}\",\"spans\":{},\"active_rounds\":{},\
                         \"awake_node_rounds\":{},\"awake_share\":{:.3},\
                         \"messages_sent\":{}}}",
                        p.label,
                        p.spans,
                        p.active_rounds,
                        p.awake_node_rounds,
                        p.awake_share,
                        p.messages_sent,
                    ));
                }
                s.push_str("]}");
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Renders the report as a markdown "Table 1, measured" document.
    pub fn to_markdown(&self) -> String {
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        let seeds: Vec<String> = self.seeds.iter().map(|x| x.to_string()).collect();
        let top_n = self.sizes.iter().copied().max().unwrap_or(0);
        let mut s = format!(
            "# Table 1, measured\n\n\
             Panel: sizes {{{}}}, seeds {{{}}}; generated by `sleeping-mst report`.\n\
             `b` columns are least-squares exponents of `metric ~ n^b` across the panel.\n\
             Energy columns price runs under the `{}` model (nano-joules).\n",
            sizes.join(", "),
            seeds.join(", "),
            self.energy,
        );
        for fam in &self.families {
            s.push_str(&format!(
                "\n## Family `{}`\n\n\
                 | algorithm | paper awake bound | awake max @ n={top_n} | awake/log2 n | awake b | paper rounds bound | rounds @ n={top_n} | rounds b | messages b | energy max @ n={top_n} |\n\
                 |---|---|---|---|---|---|---|---|---|---|\n",
                fam.family
            ));
            for alg in &fam.algorithms {
                let top = alg.rows.iter().find(|r| r.n == top_n);
                let (awake, over_log, rounds, energy) = top.map_or((0.0, 0.0, 0.0, 0.0), |r| {
                    (r.awake_max, r.awake_over_log, r.rounds, r.energy_max)
                });
                s.push_str(&format!(
                    "| {} | {} | {:.1} | {:.2} | {:.3} | {} | {:.0} | {:.3} | {:.3} | {:.0} |\n",
                    alg.name,
                    alg.awake_bound,
                    awake,
                    over_log,
                    alg.awake_exponent,
                    alg.rounds_bound,
                    rounds,
                    alg.rounds_exponent,
                    alg.messages_exponent,
                    energy,
                ));
            }
            for alg in &fam.algorithms {
                s.push_str(&format!(
                    "\n### `{}` per-phase awake breakdown (n={top_n}, seed {})\n\n\
                     | phase | spans | active rounds | awake node-rounds | share | messages |\n\
                     |---|---|---|---|---|---|\n",
                    alg.name, self.seeds[0],
                ));
                for p in &alg.phases {
                    s.push_str(&format!(
                        "| {} | {} | {} | {} | {:.3} | {} |\n",
                        p.label,
                        p.spans,
                        p.active_rounds,
                        p.awake_node_rounds,
                        p.awake_share,
                        p.messages_sent,
                    ));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ReportSpec {
        ReportSpec {
            sizes: vec![6, 8],
            seeds: vec![0],
            ..ReportSpec::default()
        }
    }

    #[test]
    fn report_covers_the_whole_registry_grid() {
        let report = generate(&tiny_spec()).unwrap();
        assert_eq!(report.families.len(), FAMILIES.len());
        for fam in &report.families {
            assert_eq!(fam.algorithms.len(), registry::ALGORITHMS.len());
            for alg in &fam.algorithms {
                assert_eq!(alg.rows.len(), 2);
                assert!(alg.rows.iter().all(|r| r.awake_max > 0.0));
                // The reference model charges every awake round, so the
                // energy columns are populated for every cell.
                assert!(alg.rows.iter().all(|r| r.energy_max > 0.0));
                assert!(alg.rows.iter().all(|r| r.energy_total >= r.energy_max));
                assert!(!alg.phases.is_empty(), "{}", alg.name);
                let share: f64 = alg.phases.iter().map(|p| p.awake_share).sum();
                assert!((share - 1.0).abs() < 1e-9, "{}: {share}", alg.name);
            }
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = generate(&tiny_spec()).unwrap();
        let b = generate(&tiny_spec()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
        assert!(a.to_json().starts_with("{\"report\":\"table1-measured\""));
        assert!(a.to_markdown().starts_with("# Table 1, measured"));
    }

    #[test]
    fn fitted_exponent_recovers_power_laws() {
        let quad: Vec<(usize, f64)> = [4usize, 8, 16, 32]
            .iter()
            .map(|&n| (n, (n * n) as f64))
            .collect();
        assert!((fitted_exponent(&quad) - 2.0).abs() < 1e-9);
        let flat: Vec<(usize, f64)> = [4usize, 8, 16].iter().map(|&n| (n, 7.0)).collect();
        assert!(fitted_exponent(&flat).abs() < 1e-9);
        assert_eq!(fitted_exponent(&[(8, 3.0)]), 0.0);
    }

    #[test]
    fn empty_panel_is_rejected() {
        let err = generate(&ReportSpec {
            sizes: vec![],
            seeds: vec![0],
            ..ReportSpec::default()
        })
        .unwrap_err();
        assert!(err.contains("at least one"));
    }
}
