//! The experiment plane behind the CLI and the daemon: template sweeps,
//! the Table-1 report, the chaos matrix, the engine panel and the serve
//! daemon.
//!
//! Each paper artifact has one program (see `EXPERIMENTS.md` at the
//! repository root):
//!
//! * Table 1 — `sleeping-mst report` ([`report`]);
//! * Theorem 3 — `examples/lower_bound_ring.rs`;
//! * Theorem 4 + Figure 1 — `examples/grc_tradeoff.rs`;
//! * the design-choice ablations listed in `DESIGN.md` —
//!   `examples/ablations.rs`.
//!
//! The [`harness`] module holds [`SweepSpec`], the one sweep type:
//! (registry algorithm × graph template × n × seed) executed on a scoped
//! thread pool. Every trial is a pure function of its `(n, seed)` cell —
//! graphs are rebuilt per trial and all randomness derives from the trial
//! seed — so a parallel sweep is bit-identical to a sequential one.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod engine_panel;
pub mod harness;
pub mod report;
pub mod serve;

pub use chaos::{run_chaos, ChaosReport, ChaosSpec, ChaosTrial, Outcome};
pub use engine_panel::{
    render_engine_panel_json, render_engine_panel_wall_clock, run_engine_panel, EnginePanelRow,
    EnginePanelSpec,
};
pub use harness::{aggregate, Cell, Invalid, SweepSpec, TrialResult};
pub use report::{generate, Report, ReportSpec};
