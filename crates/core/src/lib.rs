//! Awake-optimal distributed MST algorithms in the sleeping model.
//!
//! This crate implements the paper's primary contributions on top of the
//! [`netsim`] simulator:
//!
//! * [`randomized::RandomizedMst`] — Section 2.2's randomized algorithm:
//!   `O(log n)` awake complexity w.h.p., `O(n log n)` rounds;
//! * the LDT toolbox the algorithms are assembled from —
//!   [`schedule`] (`Transmission-Schedule`), [`timeline`] (the global block
//!   grid), and the block implementations inside the algorithm modules
//!   (`Fragment-Broadcast`, `Upcast-Min`, `Transmit-Adjacent`,
//!   `Merging-Fragments`);
//! * [`ldt`] — the Labeled Distance Tree invariant and its checker.
//!
//! The deterministic algorithm, the log\*-coloring variant, and the
//! always-awake baseline live in sibling modules ([`deterministic`],
//! [`deterministic::ColoringMode::ColeVishkin`], [`baseline`], [`prim`]).
//!
//! # Quickstart
//!
//! ```
//! use graphlib::{generators, mst};
//! use mst_core::registry;
//!
//! let graph = generators::random_connected(32, 0.2, 1)?;
//! let spec = registry::find("randomized").expect("registered");
//! let outcome = spec.run(&graph, 7)?;
//! assert_eq!(outcome.edges, mst::kruskal(&graph).edges);
//! println!(
//!     "awake {} rounds, run time {} rounds",
//!     outcome.stats.awake_max(),
//!     outcome.stats.rounds
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fragment;

pub mod baseline;
pub mod deterministic;
pub mod exec;
pub mod ldt;
pub mod msg;
pub mod prim;
pub mod radio_toolbox;
pub mod randomized;
pub mod registry;
pub mod runner;
pub mod schedule;
pub mod timeline;
pub mod toolbox;
pub mod wire;

pub use exec::{round_budget, ExecOptions};
pub use registry::{AlgorithmSpec, Family, ALGORITHMS};
pub use runner::{
    collect_mst_edges, parse_run_code, MstCollectError, MstOutcome, MstScratch, RunError,
    RUN_ERROR_CODES,
};
