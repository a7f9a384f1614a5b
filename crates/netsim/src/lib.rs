//! Synchronous CONGEST + sleeping-model network simulator.
//!
//! This crate implements the distributed computing model of the paper
//! (Section 1.1):
//!
//! * computation proceeds in **synchronous rounds** numbered from 1;
//! * in each round, every *awake* node may do local computation, send a
//!   (possibly distinct) message through each of its ports, and receive the
//!   messages its awake neighbors sent it **in the same round**;
//! * a node may go to **sleep** until a future round of its choosing; a
//!   sleeping node does nothing, and messages addressed to it are **lost**;
//! * only awake rounds count toward a node's awake complexity, while the
//!   run time counts every round until the last node halts.
//!
//! Execution is a single generic kernel parameterized by a time driver
//! ([`Executor`]): the default calendar driver is event-driven — rounds in
//! which every node sleeps are never visited, so algorithms
//! with tiny awake complexity but huge round complexity (the whole point
//! of the paper) simulate in time proportional to the total number of
//! *node-awake* events, not rounds. A naive `O(n)`-scan oracle driver
//! produces bit-identical outcomes for differential testing.
//!
//! Nodes interact with the world only through the [`Protocol`] trait and
//! the [`NodeCtx`] handed to them, which deliberately exposes only the
//! paper's initial knowledge (KT0): the node's own id, its port count and
//! per-port edge weights, `n`, and the id bound `N`. Neighbor identities
//! must be *learned* through messages.
//!
//! # Example
//!
//! ```
//! use graphlib::generators;
//! use netsim::{flood, SimConfig, Simulator};
//!
//! // Flood a token from node 0 across a ring, always awake.
//! let graph = generators::ring(8, 1)?;
//! let outcome = Simulator::new(&graph, SimConfig::default())
//!     .run(|ctx| flood::Flood::new(ctx.node.raw() == 0))?;
//! assert!(outcome.states.iter().all(|f| f.informed()));
//! assert_eq!(outcome.stats.rounds, 5); // ring diameter + final re-send round
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod payload;
mod protocol;
mod sim;
mod stats;
mod trace;

pub mod energy;
pub mod engine;
pub mod faults;
pub mod flood;
pub mod metrics;
pub mod profile;
pub mod radio;
pub mod validate;

pub use energy::{EnergyModel, WakePolicy};
pub use engine::{Executor, ExecutorScratch};
pub use error::{parse_sim_code, SimError, SIM_ERROR_CODES};
pub use faults::FaultPlan;
pub use metrics::{Metrics, PhaseSpan, PhaseTotals, RoundReport};
pub use payload::{bits_for_range, bits_for_value, Payload};
pub use profile::{Stage, StageClock};
pub use protocol::{Envelope, NextWake, NodeCtx, Outbox, PortWeights, Protocol};
pub use sim::{RunOutcome, SimConfig, Simulator};
pub use stats::RunStats;
pub use trace::{Trace, TraceEvent};
pub use validate::{audit, ModelRule, ValidateError, ValidatingExecutor, Violation};

/// A round number; rounds are numbered from 1 as in the paper.
pub type Round = u64;
