use std::error::Error;
use std::fmt;

use graphlib::{NodeId, Port};

use crate::Round;

/// Errors raised while executing a protocol on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A node sent through a port it does not have.
    PortOutOfRange {
        /// The sending node.
        node: NodeId,
        /// The invalid port.
        port: Port,
        /// The round of the send.
        round: Round,
    },
    /// A message exceeded the configured CONGEST bit limit.
    MessageTooLarge {
        /// The sending node.
        node: NodeId,
        /// The round of the send.
        round: Round,
        /// Encoded size of the offending message.
        bits: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A node asked to wake at a round that is not in the future.
    WakeNotInFuture {
        /// The offending node.
        node: NodeId,
        /// The round the request was made in.
        round: Round,
        /// The requested (invalid) wake round.
        requested: Round,
    },
    /// The round budget was exhausted before every node halted.
    MaxRoundsExceeded {
        /// The configured budget.
        limit: Round,
        /// Number of nodes still running.
        running: usize,
    },
    /// Every remaining node is asleep forever (no scheduled wake) but has
    /// not halted — the protocol deadlocked.
    Stalled {
        /// Number of nodes stuck asleep.
        running: usize,
        /// The last round that executed.
        round: Round,
    },
    /// A node spent past its energy budget
    /// ([`EnergyModel::budget`](crate::EnergyModel::budget)) and was
    /// forced asleep permanently. Carries the *first* exhaustion of the
    /// run (earliest round, lowest node id within it) — adjudicated in
    /// serial node order, so identical across drivers and shard counts.
    EnergyExhausted {
        /// The first node to exhaust its budget.
        node: NodeId,
        /// The round its ledger went past the budget.
        round: Round,
    },
    /// The time driver handed the kernel a round that is not after the
    /// previous one, breaking the contract the wake calendar relies on.
    /// Checked per round under the `validate` feature.
    RoundNotIncreasing {
        /// The offending round.
        round: Round,
        /// The round handed out before it.
        previous: Round,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PortOutOfRange { node, port, round } => {
                write!(f, "node {node} sent through nonexistent port {port} in round {round}")
            }
            SimError::MessageTooLarge { node, round, bits, limit } => write!(
                f,
                "node {node} sent a {bits}-bit message in round {round}, exceeding the {limit}-bit congest limit"
            ),
            SimError::WakeNotInFuture { node, round, requested } => write!(
                f,
                "node {node} in round {round} requested a wake at round {requested}, which is not in the future"
            ),
            SimError::MaxRoundsExceeded { limit, running } => {
                write!(f, "round budget of {limit} exhausted with {running} nodes still running")
            }
            SimError::Stalled { running, round } => write!(
                f,
                "protocol stalled after round {round}: {running} nodes asleep forever without halting"
            ),
            SimError::EnergyExhausted { node, round } => write!(
                f,
                "node {node} exhausted its energy budget in round {round} and was forced asleep"
            ),
            SimError::RoundNotIncreasing { round, previous } => write!(
                f,
                "time driver moved from round {previous} to round {round}; rounds must strictly increase"
            ),
        }
    }
}

impl Error for SimError {}

/// Every stable [`SimError`] wire code, in declaration order — the
/// vocabulary [`SimError::to_json_code`] draws from. Service responses
/// embed these codes, so they are frozen: renaming one is a wire-format
/// break that [`parse_sim_code`] round-trip tests will catch.
pub const SIM_ERROR_CODES: &[&str] = &[
    "sim.port-out-of-range",
    "sim.message-too-large",
    "sim.wake-not-in-future",
    "sim.max-rounds-exceeded",
    "sim.stalled",
    "sim.energy-exhausted",
    "sim.round-not-increasing",
];

/// Resolves a wire code back to its canonical `&'static str` (the exact
/// value [`SimError::to_json_code`] returns), or `None` for unknown
/// codes. Serde-free round-trip support for typed service errors.
pub fn parse_sim_code(code: &str) -> Option<&'static str> {
    SIM_ERROR_CODES.iter().copied().find(|&c| c == code)
}

impl SimError {
    /// The stable, machine-readable wire code for this error variant —
    /// what a service response puts in its `"code"` field. Codes carry
    /// no per-instance detail (that stays in [`fmt::Display`]); they are
    /// the typed part of the encoding and never change spelling.
    pub fn to_json_code(&self) -> &'static str {
        match self {
            SimError::PortOutOfRange { .. } => "sim.port-out-of-range",
            SimError::MessageTooLarge { .. } => "sim.message-too-large",
            SimError::WakeNotInFuture { .. } => "sim.wake-not-in-future",
            SimError::MaxRoundsExceeded { .. } => "sim.max-rounds-exceeded",
            SimError::Stalled { .. } => "sim.stalled",
            SimError::EnergyExhausted { .. } => "sim.energy-exhausted",
            SimError::RoundNotIncreasing { .. } => "sim.round-not-increasing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant, for exhaustive code tests.
    fn all_variants() -> Vec<SimError> {
        vec![
            SimError::PortOutOfRange {
                node: NodeId::new(1),
                port: Port::new(7),
                round: 2,
            },
            SimError::MessageTooLarge {
                node: NodeId::new(1),
                round: 2,
                bits: 99,
                limit: 64,
            },
            SimError::WakeNotInFuture {
                node: NodeId::new(1),
                round: 5,
                requested: 5,
            },
            SimError::MaxRoundsExceeded {
                limit: 10,
                running: 3,
            },
            SimError::Stalled {
                running: 2,
                round: 9,
            },
            SimError::EnergyExhausted {
                node: NodeId::new(4),
                round: 12,
            },
            SimError::RoundNotIncreasing {
                round: 3,
                previous: 3,
            },
        ]
    }

    #[test]
    fn wire_codes_round_trip_and_are_distinct() {
        let variants = all_variants();
        assert_eq!(
            variants.len(),
            SIM_ERROR_CODES.len(),
            "new variant? add its code"
        );
        let mut seen = std::collections::BTreeSet::new();
        for e in &variants {
            let code = e.to_json_code();
            assert!(seen.insert(code), "duplicate code {code}");
            // Round trip: the code parses back to the identical static str.
            assert_eq!(parse_sim_code(code), Some(code));
            // Codes are wire-safe: lowercase, dotted namespace, no spaces.
            assert!(code.starts_with("sim."), "{code}");
            assert!(
                code.bytes()
                    .all(|b| b.is_ascii_lowercase() || b == b'.' || b == b'-'),
                "{code}"
            );
        }
        assert_eq!(parse_sim_code("sim.no-such-error"), None);
    }

    #[test]
    fn display_mentions_key_fields() {
        let e = SimError::MessageTooLarge {
            node: NodeId::new(3),
            round: 17,
            bits: 512,
            limit: 64,
        };
        let s = e.to_string();
        assert!(s.contains("v3") && s.contains("512") && s.contains("64"));

        let e = SimError::Stalled {
            running: 2,
            round: 9,
        };
        assert!(e.to_string().contains("stalled"));

        let e = SimError::EnergyExhausted {
            node: NodeId::new(4),
            round: 12,
        };
        let s = e.to_string();
        assert!(s.contains("v4") && s.contains("12") && s.contains("energy"));
    }
}
