//! The energy plane: first-class integer energy accounting and
//! duty-cycled wake policies for the sleeping-model executors.
//!
//! The sleeping model exists because awake rounds cost energy — awake
//! complexity is a proxy for battery drain (paper, Section 1). This
//! module makes that cost model explicit:
//!
//! * an [`EnergyModel`] prices a run in **integer nano-joules**: a
//!   per-awake-round cost, per-bit transmit/receive costs (Elkin's
//!   message-bound survey argues per-bit terms dominate for
//!   message-heavy comparators), and an optional idle-listen cost for
//!   awake rounds that deliver nothing. An optional per-node budget
//!   turns the ledger into a hard constraint: a node that spends past
//!   its budget falls asleep permanently (the crash machinery) and the
//!   run reports [`SimError::EnergyExhausted`](crate::SimError);
//! * a [`WakePolicy`] perturbs *when* scheduled wakes actually land —
//!   block timeline (the default, exactly today's semantics), fixed
//!   duty cycle, seeded heavy-tailed slip, or a per-node adversarial
//!   phase shift. Like [`FaultPlan`](crate::FaultPlan), every decision
//!   is a pure stateless function of `(seed, tag, node, round)` through
//!   a SplitMix64-style finalizer, so the calendar driver and the
//!   naive oracle reach identical schedules with no shared RNG cursor.
//!
//! All charging happens inside the one generic `run_kernel`, as
//! order-independent `u64` sums — the per-node ledger is bit-identical
//! across {calendar, naive} × every shard count (the energy
//! differential and conservation suites pin this). The ledger satisfies
//! the conservation identity
//!
//! ```text
//! sum(energy_spent_by_node) ==
//!     awake_total * round_cost
//!   + bits_sent  * tx_bit_cost
//!   + bits_received * rx_bit_cost
//!   + idle_listen_rounds * idle_cost
//! ```
//!
//! which `tests/energy_conservation.rs` reconciles against both
//! [`RunStats`](crate::RunStats) and the metrics timelines.
//!
//! A model whose every cost is zero is *inert* ([`EnergyModel::is_inert`]):
//! the executors take the exact no-energy path for it, and a run under an
//! inert model is bit-identical to a run with no model at all (mirroring
//! the inert-`FaultPlan` contract). A budget without costs can never be
//! spent, so it does not defeat inertness.

use crate::Round;

// Stream tags for the wake-policy decision streams — arbitrary distinct
// odd constants, disjoint from the `FaultPlan` tags so an energy policy
// can never correlate with a fault decision drawn from the same seed.
const TAG_HEAVY_TAIL: u64 = 0x7c15_9e37_b97f_4a21;
const TAG_PHASE_SHIFT: u64 = 0x3d91_c6e5_0b7a_8f43;

/// SplitMix64-style stateless mixer: one draw per `(tag, a, b)` key.
/// The same construction as the fault plane's decision function —
/// order-independent by design, so every driver reaches every verdict.
fn decide(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(a.wrapping_mul(0xff51_afd7_ed55_8ccd))
        .wrapping_add(b.wrapping_mul(0xc4ce_b9fe_1a85_ec53));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An integer energy cost model, in nano-joules.
///
/// Plain data: construct it literally, through the builders, or with
/// [`EnergyModel::parse`] (the CLI's `--energy-model` grammar). Costs are
/// integers so the model — and therefore
/// [`SimConfig`](crate::SimConfig) — stays `Eq` and hashable, and so a
/// ledger serialized into a report replays exactly (no float
/// round-tripping; the conformance `determinism` lint family enforces
/// this repo-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EnergyModel {
    /// Nano-joules charged to every node for every round it is awake.
    pub round_cost: u64,
    /// Nano-joules per transmitted payload bit, charged to the sender at
    /// routing time — lost and fault-dropped messages still cost the
    /// sender (it transmitted either way).
    pub tx_bit_cost: u64,
    /// Nano-joules per received payload bit, charged per delivered copy
    /// (an injected duplicate is paid for twice, matching
    /// `bits_received_by_node`).
    pub rx_bit_cost: u64,
    /// Nano-joules charged to an awake node whose round delivers nothing
    /// (idle listening).
    pub idle_cost: u64,
    /// Per-node budget in nano-joules. A node whose ledger *exceeds* the
    /// budget at the end of a round falls asleep permanently and the run
    /// reports [`SimError::EnergyExhausted`](crate::SimError). `None` =
    /// unlimited (pure accounting).
    pub budget: Option<u64>,
}

impl EnergyModel {
    /// The reference pricing used by the chaos matrix, the Table-1 report
    /// energy column, and the bench energy panel: round-dominant with
    /// visible per-bit terms, no budget (accounting only — outcomes are
    /// unchanged).
    #[must_use]
    pub fn reference() -> Self {
        EnergyModel {
            round_cost: 1000,
            tx_bit_cost: 8,
            rx_bit_cost: 4,
            idle_cost: 50,
            budget: None,
        }
    }

    /// The radio-model pricing of Chang et al.: one unit per awake round,
    /// everything else free. Radio protocols ([`crate::radio`]) run on
    /// the kernel and idle without waking, so under this model the ledger
    /// is one unit per transmitting or listening round.
    #[must_use]
    pub fn radio_default() -> Self {
        EnergyModel {
            round_cost: 1,
            tx_bit_cost: 0,
            rx_bit_cost: 0,
            idle_cost: 0,
            budget: None,
        }
    }

    /// Returns the model with a per-node budget.
    #[must_use]
    pub fn with_budget(mut self, nano_joules: u64) -> Self {
        self.budget = Some(nano_joules);
        self
    }

    /// Returns the model with a per-awake-round cost.
    #[must_use]
    pub fn with_round_cost(mut self, nano_joules: u64) -> Self {
        self.round_cost = nano_joules;
        self
    }

    /// Returns the model with a per-transmitted-bit cost.
    #[must_use]
    pub fn with_tx_bit_cost(mut self, nano_joules: u64) -> Self {
        self.tx_bit_cost = nano_joules;
        self
    }

    /// Returns the model with a per-received-bit cost.
    #[must_use]
    pub fn with_rx_bit_cost(mut self, nano_joules: u64) -> Self {
        self.rx_bit_cost = nano_joules;
        self
    }

    /// Returns the model with an idle-listen cost.
    #[must_use]
    pub fn with_idle_cost(mut self, nano_joules: u64) -> Self {
        self.idle_cost = nano_joules;
        self
    }

    /// `true` when the model cannot affect a run: every cost zero. The
    /// executors take the exact no-energy path for inert models, so a
    /// run under one is bit-identical to a run with no model at all. A
    /// budget alone does not defeat inertness — with zero costs nothing
    /// is ever spent, so it can never exhaust.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.round_cost == 0
            && self.tx_bit_cost == 0
            && self.rx_bit_cost == 0
            && self.idle_cost == 0
    }

    /// The canonical spec string: `round:R,tx:T,rx:X,idle:I` plus
    /// `,budget:B` when a budget is set. [`EnergyModel::parse`] accepts
    /// it back verbatim, and the serve cache key embeds it, so the
    /// rendering is frozen.
    #[must_use]
    pub fn spec_string(&self) -> String {
        let mut s = format!(
            "round:{},tx:{},rx:{},idle:{}",
            self.round_cost, self.tx_bit_cost, self.rx_bit_cost, self.idle_cost
        );
        if let Some(b) = self.budget {
            s.push_str(&format!(",budget:{b}"));
        }
        s
    }

    /// Parses an energy-model spec: the preset name `reference` (or
    /// `radio`), or a comma-separated `key:value` list over the keys
    /// `round`, `tx`, `rx`, `idle`, `budget` (unmentioned costs default
    /// to zero). The grammar of the CLI's `--energy-model` flag and the
    /// serve request's `"energy"` field.
    pub fn parse(s: &str) -> Option<EnergyModel> {
        match s {
            "reference" => return Some(EnergyModel::reference()),
            "radio" => return Some(EnergyModel::radio_default()),
            _ => {}
        }
        let mut model = EnergyModel::default();
        for part in s.split(',') {
            let (key, value) = part.split_once(':')?;
            let value: u64 = value.parse().ok()?;
            match key {
                "round" => model.round_cost = value,
                "tx" => model.tx_bit_cost = value,
                "rx" => model.rx_bit_cost = value,
                "idle" => model.idle_cost = value,
                "budget" => model.budget = Some(value),
                _ => return None,
            }
        }
        Some(model)
    }
}

/// When scheduled wakes actually land.
///
/// A policy transforms every requested wake round (after fault jitter,
/// before the driver sees it) into the round the node really wakes in —
/// always **at or after** the requested round, so the executors'
/// wake-in-the-future invariant is preserved. Decisions are stateless
/// SplitMix64 draws like [`FaultPlan`](crate::FaultPlan) decisions, so
/// every time driver and the naive oracle agree bit for bit
/// (`crates/netsim/tests/differential.rs` pins every variant).
///
/// Policies deliberately break protocol rendezvous assumptions: under a
/// non-identity policy a sender and its receiver may no longer meet in
/// the same round, so runs can end in typed, deterministic failures
/// (`Stalled`, watchdog `MaxRoundsExceeded`) — that is the point of
/// testing under them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WakePolicy {
    /// The block timeline: wakes land exactly when requested (today's
    /// semantics; the identity policy).
    #[default]
    Block,
    /// Fixed duty cycle: nodes can only wake in rounds `r` with
    /// `(r - 1) % period == 0` (rounds 1, 1+period, 1+2·period, …); a
    /// requested wake snaps *up* to the next on-cycle round. `period <=
    /// 1` is the identity.
    DutyCycle {
        /// The cycle length in rounds.
        period: u64,
    },
    /// Seeded heavy-tailed slip: each `(node, requested)` pair draws a
    /// geometric extra delay (the trailing ones of a SplitMix64 draw),
    /// capped at `cap`. `cap == 0` is the identity.
    HeavyTail {
        /// Seed of the slip decision stream.
        seed: u64,
        /// Largest slip, in rounds.
        cap: u64,
    },
    /// Adversarial phase shift: every node is displaced by a constant
    /// per-node offset in `0..=max_shift`, desynchronizing nodes that
    /// planned to meet. `max_shift == 0` is the identity.
    AdversarialShift {
        /// Seed of the per-node offset draw.
        seed: u64,
        /// Largest per-node offset, in rounds.
        max_shift: u64,
    },
}

impl WakePolicy {
    /// `true` when the policy cannot move any wake; the executors take
    /// the exact no-policy path for identity policies (mirroring inert
    /// fault plans and inert energy models).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        match *self {
            WakePolicy::Block => true,
            WakePolicy::DutyCycle { period } => period <= 1,
            WakePolicy::HeavyTail { cap, .. } => cap == 0,
            WakePolicy::AdversarialShift { max_shift, .. } => max_shift == 0,
        }
    }

    /// The round `node` actually wakes in when it requested `requested`.
    /// Always `>= requested`; saturating, never past `Round::MAX`.
    #[inline]
    #[must_use]
    pub fn applied(&self, node: u32, requested: Round) -> Round {
        match *self {
            WakePolicy::Block => requested,
            WakePolicy::DutyCycle { period } => {
                if period <= 1 {
                    return requested;
                }
                let rem = (requested - 1) % period;
                if rem == 0 {
                    requested
                } else {
                    requested.saturating_add(period - rem)
                }
            }
            WakePolicy::HeavyTail { seed, cap } => {
                if cap == 0 {
                    return requested;
                }
                let draw = decide(seed, TAG_HEAVY_TAIL, u64::from(node), requested);
                let extra = u64::from(draw.trailing_ones()).min(cap);
                requested.saturating_add(extra)
            }
            WakePolicy::AdversarialShift { seed, max_shift } => {
                if max_shift == 0 {
                    return requested;
                }
                let extra = decide(seed, TAG_PHASE_SHIFT, u64::from(node), 0) % (max_shift + 1);
                requested.saturating_add(extra)
            }
        }
    }

    /// The stable spec string: `block`, `duty:P`, `heavytail:SEED:CAP`,
    /// or `shift:SEED:MAX` — what [`WakePolicy::parse`] accepts back.
    #[must_use]
    pub fn spec_string(&self) -> String {
        match *self {
            WakePolicy::Block => "block".to_string(),
            WakePolicy::DutyCycle { period } => format!("duty:{period}"),
            WakePolicy::HeavyTail { seed, cap } => format!("heavytail:{seed}:{cap}"),
            WakePolicy::AdversarialShift { seed, max_shift } => format!("shift:{seed}:{max_shift}"),
        }
    }

    /// Parses a wake-policy spec (the CLI's `--wake-policy` grammar):
    /// `block`, `duty:P`, `heavytail:SEED:CAP`, `shift:SEED:MAX`.
    pub fn parse(s: &str) -> Option<WakePolicy> {
        if s == "block" {
            return Some(WakePolicy::Block);
        }
        let mut parts = s.split(':');
        let kind = parts.next()?;
        let policy = match kind {
            "duty" => WakePolicy::DutyCycle {
                period: parts.next()?.parse().ok()?,
            },
            "heavytail" => WakePolicy::HeavyTail {
                seed: parts.next()?.parse().ok()?,
                cap: parts.next()?.parse().ok()?,
            },
            "shift" => WakePolicy::AdversarialShift {
                seed: parts.next()?.parse().ok()?,
                max_shift: parts.next()?.parse().ok()?,
            },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_inert_and_budget_alone_stays_inert() {
        assert!(EnergyModel::default().is_inert());
        // A budget with zero costs can never be spent: still inert.
        assert!(EnergyModel::default().with_budget(5).is_inert());
        // Each single cost alone defeats inertness.
        assert!(!EnergyModel::default().with_round_cost(1).is_inert());
        assert!(!EnergyModel::default().with_tx_bit_cost(1).is_inert());
        assert!(!EnergyModel::default().with_rx_bit_cost(1).is_inert());
        assert!(!EnergyModel::default().with_idle_cost(1).is_inert());
        assert!(!EnergyModel::reference().is_inert());
        assert!(!EnergyModel::radio_default().is_inert());
    }

    #[test]
    fn model_spec_strings_round_trip() {
        for model in [
            EnergyModel::reference(),
            EnergyModel::radio_default(),
            EnergyModel::reference().with_budget(123_456),
            EnergyModel::default().with_idle_cost(9),
        ] {
            assert_eq!(EnergyModel::parse(&model.spec_string()), Some(model));
        }
        assert_eq!(
            EnergyModel::parse("reference"),
            Some(EnergyModel::reference())
        );
        assert_eq!(
            EnergyModel::parse("radio"),
            Some(EnergyModel::radio_default())
        );
        assert_eq!(
            EnergyModel::parse("round:2,budget:10"),
            Some(EnergyModel::default().with_round_cost(2).with_budget(10))
        );
        assert_eq!(EnergyModel::parse("watts:3"), None);
        assert_eq!(EnergyModel::parse("round:x"), None);
        assert_eq!(EnergyModel::parse(""), None);
    }

    #[test]
    fn block_policy_is_the_identity() {
        let p = WakePolicy::Block;
        assert!(p.is_identity());
        for node in 0..8 {
            for r in 1..100 {
                assert_eq!(p.applied(node, r), r);
            }
        }
        assert_eq!(WakePolicy::default(), WakePolicy::Block);
    }

    #[test]
    fn degenerate_policies_are_identities() {
        for p in [
            WakePolicy::DutyCycle { period: 0 },
            WakePolicy::DutyCycle { period: 1 },
            WakePolicy::HeavyTail { seed: 3, cap: 0 },
            WakePolicy::AdversarialShift {
                seed: 3,
                max_shift: 0,
            },
        ] {
            assert!(p.is_identity(), "{p:?}");
            for r in 1..50 {
                assert_eq!(p.applied(1, r), r, "{p:?}");
            }
        }
    }

    #[test]
    fn duty_cycle_snaps_up_to_the_grid() {
        let p = WakePolicy::DutyCycle { period: 5 };
        assert!(!p.is_identity());
        // On-cycle rounds (1, 6, 11, …) stay; everything else snaps up.
        assert_eq!(p.applied(0, 1), 1);
        assert_eq!(p.applied(0, 2), 6);
        assert_eq!(p.applied(0, 5), 6);
        assert_eq!(p.applied(0, 6), 6);
        assert_eq!(p.applied(0, 7), 11);
        for node in 0..8 {
            for r in 1..200 {
                let a = p.applied(node, r);
                assert!(a >= r);
                assert_eq!((a - 1) % 5, 0, "off-grid wake {a} for request {r}");
                assert!(a - r < 5, "snapped past the next grid point");
            }
        }
    }

    #[test]
    fn heavy_tail_is_bounded_deterministic_and_covers_the_range() {
        let p = WakePolicy::HeavyTail { seed: 9, cap: 4 };
        let q = WakePolicy::HeavyTail { seed: 9, cap: 4 };
        let other = WakePolicy::HeavyTail { seed: 10, cap: 4 };
        let mut seen = [false; 5];
        let mut diverged = false;
        for node in 0..64u32 {
            for r in 1..64u64 {
                let a = p.applied(node, r);
                assert_eq!(a, q.applied(node, r), "same seed must agree");
                assert!(a >= r && a - r <= 4);
                seen[(a - r) as usize] = true;
                if a != other.applied(node, r) {
                    diverged = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some slip value never drawn");
        assert!(diverged, "different seeds never diverged");
    }

    #[test]
    fn adversarial_shift_is_constant_per_node() {
        let p = WakePolicy::AdversarialShift {
            seed: 5,
            max_shift: 7,
        };
        let mut offsets = std::collections::BTreeSet::new();
        for node in 0..32u32 {
            let off = p.applied(node, 1) - 1;
            assert!(off <= 7);
            offsets.insert(off);
            for r in 1..100 {
                assert_eq!(p.applied(node, r) - r, off, "offset must not vary by round");
            }
        }
        assert!(offsets.len() > 1, "all nodes drew the same offset");
    }

    #[test]
    fn policy_spec_strings_round_trip() {
        for p in [
            WakePolicy::Block,
            WakePolicy::DutyCycle { period: 4 },
            WakePolicy::HeavyTail { seed: 7, cap: 3 },
            WakePolicy::AdversarialShift {
                seed: 2,
                max_shift: 9,
            },
        ] {
            assert_eq!(WakePolicy::parse(&p.spec_string()), Some(p));
        }
        assert_eq!(WakePolicy::parse("warp:3"), None);
        assert_eq!(WakePolicy::parse("duty"), None);
        assert_eq!(WakePolicy::parse("duty:2:3"), None);
        assert_eq!(WakePolicy::parse("heavytail:1"), None);
    }
}
