//! Opt-in per-stage wall-clock profile of the execution kernel.
//!
//! A [`StageClock`] splits a run's wall time across the kernel's stages:
//! node setup, the time driver's `next_round`, the send half-step with
//! routing, inbox grouping, and the deliver half-step. It is switched on
//! per [`ExecutorScratch`](crate::ExecutorScratch) with
//! [`enable_profile`](crate::ExecutorScratch::enable_profile) and costs
//! one untaken branch per stage boundary when off. Wall time is not
//! deterministic, so the profile stays out of [`RunStats`](crate::RunStats),
//! traces, metrics and every fingerprint; profiled runs are bit-identical
//! to unprofiled ones.

use std::fmt;

/// The monotonic clock every lap reads — the one wall-clock access in
/// this crate.
// lint:allow(wall-clock) -- stage profiling measures real elapsed time, reported apart from every deterministic artifact
type Clock = std::time::Instant;

/// A stage of the kernel's per-run work, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Scratch reset, node contexts, protocol construction and `init`,
    /// first wakes.
    Init,
    /// The time driver's `next_round`, plus crash and spurious-sleep
    /// adjudication of the popped awake set.
    NextRound,
    /// Awake accounting, protocol `send`, routing and fault verdicts
    /// (serial or across the shard lanes, with the lane merge).
    SendRoute,
    /// Grouping the round's envelopes into per-receiver inboxes.
    Grouping,
    /// Per-inbox port sort, protocol `deliver`, receive and energy
    /// accounting, rescheduling, metrics and the observer.
    Deliver,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 5] = [
        Stage::Init,
        Stage::NextRound,
        Stage::SendRoute,
        Stage::Grouping,
        Stage::Deliver,
    ];

    /// Stable stage name, as printed in profile tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Init => "init",
            Stage::NextRound => "next_round",
            Stage::SendRoute => "send/route",
            Stage::Grouping => "grouping",
            Stage::Deliver => "deliver",
        }
    }
}

/// Wall time summed per [`Stage`] over the profiled runs.
#[derive(Debug, Clone)]
pub struct StageClock {
    nanos: [u64; Stage::ALL.len()],
    last: Clock,
}

impl StageClock {
    pub(crate) fn new() -> Self {
        StageClock {
            nanos: [0; Stage::ALL.len()],
            last: Clock::now(),
        }
    }

    /// Starts a lap without charging the time since the last one (the
    /// gap between two runs belongs to no stage).
    pub(crate) fn mark(&mut self) {
        self.last = Clock::now();
    }

    /// Charges the time since the last lap to `stage`.
    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = Clock::now();
        let elapsed = now.duration_since(self.last).as_nanos();
        self.nanos[stage as usize] += u64::try_from(elapsed).unwrap_or(u64::MAX);
        self.last = now;
    }

    /// Nanoseconds spent in `stage`.
    #[must_use]
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Nanoseconds spent in all stages together.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// A table of milliseconds and shares per stage, labelled as wall-clock.
impl fmt::Display for StageClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_nanos().max(1);
        writeln!(f, "stage profile (wall-clock, varies run to run):")?;
        for stage in Stage::ALL {
            let ns = self.nanos(stage);
            writeln!(
                f,
                "  {:<12} {:>10}.{:03} ms  {:>3}%",
                stage.as_str(),
                ns / 1_000_000,
                ns / 1_000 % 1_000,
                ns * 100 / total
            )?;
        }
        let ns = self.total_nanos();
        writeln!(
            f,
            "  {:<12} {:>10}.{:03} ms",
            "total",
            ns / 1_000_000,
            ns / 1_000 % 1_000
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_per_stage_and_render_every_stage() {
        let mut clock = StageClock::new();
        clock.nanos = [1_500_000, 0, 2_000_000, 250_000, 250_000];
        assert_eq!(clock.total_nanos(), 4_000_000);
        let table = clock.to_string();
        assert!(table.contains("wall-clock"));
        for stage in Stage::ALL {
            assert!(table.contains(stage.as_str()), "{table}");
        }
        assert!(
            table.contains("init                  1.500 ms   37%"),
            "{table}"
        );
        assert!(table.contains("total                 4.000 ms"), "{table}");
        clock.lap(Stage::Deliver);
        assert!(clock.nanos(Stage::Deliver) >= 250_000);
    }
}
