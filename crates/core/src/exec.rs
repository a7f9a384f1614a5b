//! Execution options for the registry runners: seed, fault plan, and the
//! round-budget watchdog that turns fault-induced livelock into a typed
//! error.
//!
//! Under injected faults (dropped coordination messages, crashed fragment
//! leaders) a protocol can re-schedule wakes forever while waiting for a
//! signal that will never arrive. None of the six registry algorithms
//! spins *outside* the simulator — every convergence loop advances
//! through simulated rounds — so bounding [`netsim::SimConfig::max_rounds`]
//! bounds the whole run: livelock surfaces as
//! [`netsim::SimError::MaxRoundsExceeded`], never as a hang. Similarly, a
//! protocol whose internal invariants are broken by a dropped message may
//! panic; [`run_caught`] converts that into
//! [`RunError::Panicked`] so chaos
//! harnesses can classify it as a typed failure.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use netsim::{EnergyModel, Executor, FaultPlan, Round, SimConfig, WakePolicy};

use crate::runner::RunError;

/// Options threaded through a registry run: the RNG seed, an optional
/// fault plan, and an optional round budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Master seed for the protocol's private coins (ignored by
    /// deterministic algorithms).
    pub seed: u64,
    /// Fault plan to inject, if any. `None` — and inert plans — take the
    /// exact no-fault execution path.
    pub faults: Option<FaultPlan>,
    /// Round budget override. `None` keeps the simulator default on
    /// fault-free runs; fault-injected registry runs
    /// ([`AlgorithmSpec::run_with_options`](crate::registry::AlgorithmSpec::run_with_options))
    /// substitute the [`round_budget`] watchdog.
    pub max_rounds: Option<Round>,
    /// Record per-round [`netsim::Metrics`] (round reports, awake
    /// timelines). Off by default; execution is bit-identical either way.
    pub record_metrics: bool,
    /// Time driver ([`Executor`]). The default is the calendar driver;
    /// only the differential suites set it, to run the naive oracle.
    pub executor: Executor,
    /// Send-half-step shard count ([`SimConfig::shards`]). `None` keeps
    /// the serial default. Shard counts are bit-identical — they trade
    /// wall-clock for cores, nothing else.
    pub shards: Option<u32>,
    /// Energy model to charge against, if any. `None` — and inert models
    /// (all costs zero, no matter the budget) — take the exact no-energy
    /// execution path. A budgeted model engages the same watchdog and
    /// degradation safeguards as an active fault plan, because exhausted
    /// nodes fall asleep through the crash machinery.
    pub energy: Option<EnergyModel>,
    /// Wake-schedule transform ([`WakePolicy`]). The default
    /// [`WakePolicy::Block`] (and other identity policies) takes the
    /// exact untransformed path.
    pub wake_policy: WakePolicy,
}

impl ExecOptions {
    /// Options for a plain seeded run (no faults, default budget).
    pub fn seeded(seed: u64) -> Self {
        ExecOptions {
            seed,
            ..ExecOptions::default()
        }
    }

    /// Attaches a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Caps the run at `rounds` simulated rounds.
    pub fn with_max_rounds(mut self, rounds: Round) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Enables per-round metrics recording.
    pub fn with_metrics(mut self) -> Self {
        self.record_metrics = true;
        self
    }

    /// Selects the time driver for the run.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Selects the send-half-step shard count for the run.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Attaches an energy model.
    pub fn with_energy(mut self, model: EnergyModel) -> Self {
        self.energy = Some(model);
        self
    }

    /// Selects the wake-schedule policy for the run.
    pub fn with_wake_policy(mut self, policy: WakePolicy) -> Self {
        self.wake_policy = policy;
        self
    }

    /// The plan, if it would actually do anything.
    pub fn active_faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| !p.is_inert())
    }

    /// The energy model, if it would actually charge anything.
    pub fn active_energy(&self) -> Option<&EnergyModel> {
        self.energy.as_ref().filter(|m| !m.is_inert())
    }

    /// Whether this run can lose nodes or messages before completion: an
    /// active fault plan, an energy budget under an active model
    /// (exhaustion reuses the crash machinery), or a non-identity wake
    /// policy (delayed wakes break the transmission schedule's
    /// receiver-is-awake guarantee, so messages get lost). Gates the
    /// watchdog and the degraded-output check — a duty-cycled run that
    /// "completes" with a partial forest must surface as
    /// [`crate::RunError::Degraded`], never as a silently wrong tree.
    pub fn lossy(&self) -> bool {
        self.active_faults().is_some()
            || self.active_energy().is_some_and(|m| m.budget.is_some())
            || !self.wake_policy.is_identity()
    }

    /// The [`SimConfig`] these options describe.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::default().with_seed(self.seed);
        if let Some(plan) = &self.faults {
            config = config.with_faults(plan.clone());
        }
        if let Some(rounds) = self.max_rounds {
            config = config.with_max_rounds(rounds);
        }
        if self.record_metrics {
            config = config.with_metrics();
        }
        config = config.with_executor(self.executor);
        if let Some(shards) = self.shards {
            config = config.with_shards(shards);
        }
        if let Some(model) = self.energy {
            config = config.with_energy(model);
        }
        config = config.with_wake_policy(self.wake_policy);
        config
    }
}

/// The fault-mode round-budget watchdog for an `n`-node run.
///
/// The slowest registry algorithm is `Deterministic-MST` at
/// `O(n · N · log n)` rounds with external ids `N ≤ n`; the budget is
/// `64 · n² · ⌈log₂ n⌉` plus a flat floor, stretched by the plan's wake
/// jitter (every scheduled wake can slip by up to `wake_jitter` rounds)
/// and by spurious sleep (a suppressed wake retries the next round, so
/// intensity `p` stretches schedules by `1/(1-p)`). Measured at `n = 16`
/// the deterministic run needs 8 389 rounds against a 66 560-round
/// fault-free budget — about 8× headroom before stretching.
pub fn round_budget(n: usize, plan: &FaultPlan) -> Round {
    let n = n.max(2) as u64;
    let log_n = netsim::bits_for_range(n) as u64;
    let base = 1024 + 64 * n * n * log_n;
    // Spurious sleep at intensity p ppm stretches expected schedules by
    // 1/(1-p); double that for tail safety, capping the multiplier.
    let ppm = u64::from(netsim::faults::PPM_SCALE);
    let sleep = u64::from(plan.spurious_sleep_ppm).min(ppm - 1);
    let stretch = (2 * ppm / (ppm - sleep)).min(64);
    (1 + plan.wake_jitter) * base * stretch / 2
}

std::thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics [`run_caught`] is about to capture and forwards everything
/// else to the previously installed hook.
fn install_silencing_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into
/// [`RunError::Panicked`].
///
/// A protocol driven outside its design envelope (a dropped coordination
/// message, a crashed leader) may trip an internal invariant and panic;
/// chaos harnesses need that as a typed, classifiable failure rather
/// than a process abort. The expected-panic noise is suppressed via a
/// thread-local flag, so concurrent panics on *other* threads still
/// reach the default hook.
pub fn run_caught<T>(f: impl FnOnce() -> Result<T, RunError>) -> Result<T, RunError> {
    install_silencing_hook();
    CAPTURING.with(|c| c.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(RunError::Panicked { message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_options_take_the_no_fault_path() {
        let opts = ExecOptions::seeded(7);
        assert_eq!(opts.seed, 7);
        assert!(opts.active_faults().is_none());
        assert_eq!(opts.sim_config(), SimConfig::default().with_seed(7));
    }

    #[test]
    fn inert_plans_do_not_count_as_active() {
        let opts = ExecOptions::seeded(1).with_faults(FaultPlan::seeded(99));
        assert!(opts.faults.is_some());
        assert!(opts.active_faults().is_none());
        let hot = ExecOptions::seeded(1).with_faults(FaultPlan::seeded(99).with_drop_ppm(1));
        assert!(hot.active_faults().is_some());
    }

    #[test]
    fn sim_config_carries_all_fields() {
        let plan = FaultPlan::seeded(3).with_drop_ppm(5);
        let opts = ExecOptions::seeded(2)
            .with_faults(plan.clone())
            .with_max_rounds(500);
        let config = opts.sim_config();
        assert_eq!(config.max_rounds, 500);
        assert_eq!(config.faults, Some(plan));
    }

    #[test]
    fn inert_energy_models_do_not_count_as_active() {
        use netsim::{EnergyModel, WakePolicy};
        // All-zero costs are inert even with a budget attached; the run
        // cannot spend, so nothing can exhaust.
        let idle = ExecOptions::seeded(1).with_energy(EnergyModel::default().with_budget(5));
        assert!(idle.energy.is_some());
        assert!(idle.active_energy().is_none());
        assert!(!idle.lossy());
        // A priced model is active; only a budget makes it lossy.
        let priced = ExecOptions::seeded(1).with_energy(EnergyModel::reference());
        assert!(priced.active_energy().is_some());
        assert!(!priced.lossy());
        let budgeted =
            ExecOptions::seeded(1).with_energy(EnergyModel::reference().with_budget(10_000));
        assert!(budgeted.lossy());
        // Faults make a run lossy independently of energy.
        let faulted = ExecOptions::seeded(1).with_faults(FaultPlan::seeded(9).with_drop_ppm(1));
        assert!(faulted.lossy());
        // So does a non-identity wake policy: delayed wakes break the
        // schedule's receiver-is-awake guarantee. Identity
        // parameterizations stay non-lossy.
        let delayed =
            ExecOptions::seeded(1).with_wake_policy(WakePolicy::HeavyTail { seed: 7, cap: 5 });
        assert!(delayed.lossy());
        let identity = ExecOptions::seeded(1).with_wake_policy(WakePolicy::DutyCycle { period: 1 });
        assert!(!identity.lossy());
        // Energy and policy are threaded into the SimConfig verbatim.
        let config = budgeted
            .clone()
            .with_wake_policy(WakePolicy::DutyCycle { period: 4 })
            .sim_config();
        assert_eq!(config.energy, budgeted.energy);
        assert_eq!(config.wake_policy, WakePolicy::DutyCycle { period: 4 });
    }

    #[test]
    fn round_budget_has_headroom_and_stretches() {
        let calm = FaultPlan::seeded(0);
        // n = 16: measured deterministic run time is 8 389 rounds.
        assert_eq!(round_budget(16, &calm), 66_560);
        assert!(round_budget(16, &calm.clone().with_wake_jitter(3)) == 4 * 66_560);
        // 50% spurious sleep doubles expectations → 2× tail factor = 4×.
        let sleepy = calm.with_spurious_sleep_ppm(500_000);
        assert_eq!(round_budget(16, &sleepy), 2 * 66_560);
        // The stretch multiplier saturates instead of overflowing.
        let comatose = FaultPlan::seeded(0).with_spurious_sleep_ppm(netsim::faults::PPM_SCALE);
        assert!(round_budget(16, &comatose) <= 32 * 66_560);
    }

    #[test]
    fn run_caught_passes_values_and_errors_through() {
        assert_eq!(run_caught(|| Ok(41)), Ok(41));
        let err = run_caught::<u32>(|| {
            Err(RunError::Disconnected {
                algorithm: "randomized",
            })
        })
        .unwrap_err();
        assert!(matches!(err, RunError::Disconnected { .. }));
    }

    #[test]
    fn run_caught_types_a_panic() {
        let err = run_caught::<u32>(|| panic!("invariant broken: {}", 42)).unwrap_err();
        match err {
            RunError::Panicked { message } => assert_eq!(message, "invariant broken: 42"),
            other => unreachable!("{other:?}"),
        }
    }
}
