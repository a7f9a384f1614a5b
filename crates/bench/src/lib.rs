//! Shared experiment harness for the benchmark binaries and the CLI's
//! `sweep` subcommand.
//!
//! Each binary regenerates one of the paper's artifacts (see
//! `EXPERIMENTS.md` at the repository root):
//!
//! * `table1` — Table 1: awake/run time of both algorithms across `n`;
//! * `ring_lb` — Theorem 3: the ring lower-bound family;
//! * `grc_tradeoff` — Theorem 4 + Figure 1: awake × round products and
//!   `I`-node congestion on `G_rc`;
//! * `ablations` — the design-choice ablations listed in `DESIGN.md`.
//!
//! The [`harness`] module is what they are built on: declarative sweeps
//! over (algorithm × graph family × n × seed), executed on a scoped thread
//! pool. Every trial is a pure function of its `(n, seed)` cell — graphs
//! are rebuilt per trial and all randomness derives from the trial seed —
//! so a parallel sweep is bit-identical to a sequential one.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod engine_panel;
pub mod harness;
pub mod report;
pub mod serve;

pub use chaos::{run_chaos, ChaosReport, ChaosSpec, ChaosTrial, Outcome};
pub use engine_panel::{
    render_engine_panel_json, run_engine_panel, EnginePanelRow, EnginePanelSpec,
};
pub use harness::{aggregate, Cell, Invalid, Sweep, SweepSpec, TrialResult};
pub use report::{generate, Report, ReportSpec};

/// Renders one markdown table row; the binaries print it themselves
/// (library code stays print-free — see the `print-in-lib` lint rule).
pub fn format_row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Geometric mean of a nonempty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean of a nonempty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
    }
}
