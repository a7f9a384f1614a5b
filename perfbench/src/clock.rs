//! The benchmark's only wall-clock source.
//!
//! Every timing in the benchmark is a `u64` nanosecond offset from one
//! monotonic epoch taken when the process starts, so spans recorded on
//! different threads share a time base and nothing else in the crate
//! touches `std::time`.

// lint:allow(wall-clock) -- the benchmark exists to measure elapsed host time
use std::time::Instant;

/// A monotonic epoch; [`Clock::now_ns`] reads nanoseconds since it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Starts the epoch now.
    pub fn new() -> Clock {
        Clock {
            // lint:allow(wall-clock) -- the single epoch every measurement is relative to
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since `start_ns` (a value from [`Clock::now_ns`]).
    pub fn secs_since(&self, start_ns: u64) -> f64 {
        self.now_ns().saturating_sub(start_ns) as f64 / 1e9
    }
}

/// A `Duration` of `secs` seconds, for socket timeouts.
// lint:allow(wall-clock) -- a timeout length, not a clock reading
pub fn timeout(secs: u64) -> std::time::Duration {
    // lint:allow(wall-clock) -- a timeout length, not a clock reading
    std::time::Duration::from_secs(secs)
}

/// Converts a nanosecond count to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
