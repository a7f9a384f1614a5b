//! The one run request of the service plane and the CLI.
//!
//! A [`RunRequest`] is the validated, normalized description of one run:
//! the parse target of both `sleeping-mst run` flags and the serve
//! daemon's `"cmd":"run"` lines, and the single input to execution
//! ([`RunRequest::exec_options`]), caching ([`RunRequest::cache_key`])
//! and result rendering. Normalization happens once, in
//! [`RunRequest::normalized`], so two spellings of the same run compare
//! equal and share a cache slot.
//!
//! A `sleeping-mst serve` daemon dedupes and caches work by the request's
//! *meaning*, not its spelling: two requests that are guaranteed to
//! produce identical bytes must map to the same cache key. This module is
//! the single place that guarantee is encoded. [`RunRequest::cache_key`]
//! folds away every knob that is *proven* not to affect output bytes:
//!
//! * **shards** — sharded send half-steps are byte-identical to serial
//!   execution for every shard count (`tests/shard_boundary.rs`, CI
//!   shards-1/2 `cmp`), so the shard knob is likewise erased;
//! * **inert fault plans** — a plan whose every intensity is zero takes
//!   the exact no-fault execution path
//!   ([`ExecOptions::active_faults`]), so it normalizes to "no plan" and
//!   shares the plain run's cache slot;
//! * **inert energy models** — a model whose every cost is zero cannot
//!   charge anything (budget or not), takes the exact no-energy path,
//!   and likewise normalizes to "no model";
//! * **identity wake policies** — `block`, `duty:0`/`duty:1`, and the
//!   zero-cap/zero-shift variants cannot move a wake, take the exact
//!   untransformed path, and normalize to [`WakePolicy::Block`], which
//!   adds nothing to the key.
//!
//! What stays in the key: algorithm name, graph spec string, seed (it
//! feeds both the graph weights and the protocol coins), any active
//! fault plan (every field, crashes included — fault decisions are a
//! pure function of the plan, so the plan *is* the behavior), any
//! active energy model (charging fills the response's ledger, and a
//! budget can flip the outcome to `run.energy-exhausted`), and any
//! non-identity wake policy (`|wake=<spec>`: moving wakes changes the
//! rounds, and can break rendezvous into a typed failure).
//!
//! The fingerprint is FNV-1a 64 over the canonical key string — the same
//! construction the report golden tests pin artifacts with.

use netsim::{EnergyModel, FaultPlan, WakePolicy};

use crate::exec::ExecOptions;
use crate::registry::{self, AlgorithmSpec};

/// FNV-1a 64 over arbitrary bytes — the service plane's fingerprint
/// function (identical constants to the pinned report checksums).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolves an algorithm name against the registry.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_algorithm(name: &str) -> Result<&'static AlgorithmSpec, String> {
    registry::find(name).ok_or_else(|| {
        format!(
            "unknown algorithm '{name}' (expected {})",
            registry::names()
        )
    })
}

/// Parses an energy-model spec ([`EnergyModel::parse`]).
///
/// # Errors
///
/// Returns a message describing the grammar.
pub fn parse_energy_model(spec: &str) -> Result<EnergyModel, String> {
    EnergyModel::parse(spec).ok_or_else(|| {
        format!(
            "unknown energy model '{spec}' (expected 'reference', 'radio', or a \
             comma list of round:R,tx:T,rx:X,idle:I,budget:B)"
        )
    })
}

/// Parses a wake-policy spec ([`WakePolicy::parse`]).
///
/// # Errors
///
/// Returns a message describing the grammar.
pub fn parse_wake_policy(spec: &str) -> Result<WakePolicy, String> {
    WakePolicy::parse(spec).ok_or_else(|| {
        format!(
            "unknown wake policy '{spec}' (expected block, duty:P, \
             heavytail:SEED:CAP, or shift:SEED:MAX)"
        )
    })
}

/// Applies a budget to an energy model. A bare budget (no model) prices
/// the run under [`EnergyModel::reference`] — the one place that rule
/// lives for the CLI's `--budget` and the serve protocol's `"budget"`.
pub fn budgeted(model: Option<EnergyModel>, budget: Option<u64>) -> Option<EnergyModel> {
    match budget {
        Some(b) => Some(model.unwrap_or_else(EnergyModel::reference).with_budget(b)),
        None => model,
    }
}

/// Checks the round of a crash fault. Rounds start at 1, so a crash at
/// round 0 would never fire — the one place that rule lives for the
/// CLI's `--crash` and the serve protocol's `"crashes"`.
///
/// # Errors
///
/// Returns the rule's message for round 0.
pub fn crash_round(round: u64) -> Result<u64, String> {
    if round == 0 {
        return Err("crash round must be >= 1 (rounds start at 1)".into());
    }
    Ok(round)
}

/// A validated, normalized run request: the algorithm resolved against
/// the registry, the output-moving knobs in canonical form, and the
/// bit-identical shard count kept apart from the cache key.
///
/// The fields are public for reading; a request built by hand should
/// pass through [`RunRequest::normalized`] so it compares equal to (and
/// shares a cache slot with) the parsed spelling of the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// The resolved registry entry.
    pub alg: &'static AlgorithmSpec,
    /// The graph spec, byte-for-byte as requested (the grammar is strict
    /// so distinct spellings are distinct graphs).
    pub graph: String,
    /// Seed for graph weights and protocol coins.
    pub seed: u64,
    /// Execution-only: requested shard count (excluded from the key).
    pub shards: Option<u32>,
    /// The active fault plan, or `None` for no plan or an inert one.
    pub faults: Option<FaultPlan>,
    /// The active energy model, or `None` for no model or an inert one.
    /// Stays in the cache key: charging fills the result's energy
    /// ledger, and a budget can change the outcome.
    pub energy: Option<EnergyModel>,
    /// When scheduled wakes land; identity policies are
    /// [`WakePolicy::Block`].
    pub wake_policy: WakePolicy,
}

impl RunRequest {
    /// A plain run: no faults, no energy model, the block timeline, and
    /// the default shard count.
    pub fn new(alg: &'static AlgorithmSpec, graph: impl Into<String>, seed: u64) -> RunRequest {
        RunRequest {
            alg,
            graph: graph.into(),
            seed,
            shards: None,
            faults: None,
            energy: None,
            wake_policy: WakePolicy::Block,
        }
    }

    /// The canonical form: inert fault plans and energy models become
    /// `None`, identity wake policies become [`WakePolicy::Block`].
    #[must_use]
    pub fn normalized(mut self) -> RunRequest {
        self.faults = self.faults.filter(|p| !p.is_inert());
        self.energy = self.energy.filter(|m| !m.is_inert());
        if self.wake_policy.is_identity() {
            self.wake_policy = WakePolicy::Block;
        }
        self
    }

    /// The canonical cache-key string. Everything that can change output
    /// bytes is in here; the proven bit-identical shard count is not,
    /// and neither are inert plans, inert models, or
    /// identity policies, which share the plain run's slot.
    pub fn cache_key(&self) -> String {
        let mut key = format!(
            "run|alg={}|graph={}|seed={}",
            self.alg.name, self.graph, self.seed
        );
        if let Some(plan) = &self.faults {
            // `crashes` is kept sorted by FaultPlan::with_crash, so the
            // rendering is canonical without re-sorting.
            let crashes: Vec<String> = plan
                .crashes
                .iter()
                .map(|(node, round)| format!("{node}@{round}"))
                .collect();
            key.push_str(&format!(
                "|faults=fs:{},drop:{},dup:{},sleep:{},jitter:{},crashes:{}",
                plan.fault_seed,
                plan.drop_ppm,
                plan.duplicate_ppm,
                plan.spurious_sleep_ppm,
                plan.wake_jitter,
                crashes.join(";"),
            ));
        }
        if let Some(model) = &self.energy {
            // spec_string() is canonical (fixed field order, budget only
            // when present), so it can feed the key directly.
            key.push_str(&format!("|energy={}", model.spec_string()));
        }
        if !self.wake_policy.is_identity() {
            key.push_str(&format!("|wake={}", self.wake_policy.spec_string()));
        }
        key
    }

    /// FNV-1a 64 fingerprint of [`RunRequest::cache_key`] — the LRU
    /// and in-flight coalescing key of the serve daemon.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.cache_key().as_bytes())
    }

    /// The [`ExecOptions`] this request executes under. The
    /// execution-only shard count is honored here even though the cache
    /// key erased it.
    pub fn exec_options(&self) -> ExecOptions {
        let mut opts = ExecOptions::seeded(self.seed).with_wake_policy(self.wake_policy);
        if let Some(plan) = &self.faults {
            opts = opts.with_faults(plan.clone());
        }
        if let Some(shards) = self.shards {
            opts = opts.with_shards(shards);
        }
        if let Some(model) = self.energy {
            opts = opts.with_energy(model);
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(alg: &str, graph: &str, seed: u64) -> RunRequest {
        RunRequest::new(parse_algorithm(alg).unwrap(), graph, seed)
    }

    #[test]
    fn fnv64_matches_the_pinned_construction() {
        // Offset basis for the empty input; a known-answer probe for one byte.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unknown_algorithms_are_rejected() {
        let err = parse_algorithm("bogus").unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        assert!(err.contains("randomized"), "lists valid names: {err}");
    }

    #[test]
    fn shards_are_erased_from_the_key_but_kept_for_execution() {
        let plain = request("randomized", "ring:16", 7);
        let tuned = RunRequest {
            shards: Some(4),
            ..plain.clone()
        };
        assert_eq!(plain.cache_key(), tuned.cache_key());
        assert_eq!(plain.fingerprint(), tuned.fingerprint());
        assert_eq!(tuned.exec_options().shards, Some(4));
        assert_eq!(plain.exec_options().shards, None);
    }

    #[test]
    fn inert_fault_plans_share_the_plain_slot_and_active_ones_do_not() {
        let plain = request("randomized", "ring:16", 7);
        let with_plan = |plan: FaultPlan| {
            RunRequest {
                faults: Some(plan),
                ..plain.clone()
            }
            .normalized()
        };
        let inert = with_plan(FaultPlan::seeded(99)); // only a stream seed
        assert_eq!(inert, plain);
        assert_eq!(inert.exec_options(), ExecOptions::seeded(7));

        let active = with_plan(FaultPlan::seeded(99).with_drop_ppm(1));
        assert_ne!(plain.cache_key(), active.cache_key());
        assert!(
            active.cache_key().contains("fs:99"),
            "{}",
            active.cache_key()
        );
        assert!(active.exec_options().active_faults().is_some());
    }

    #[test]
    fn inert_energy_models_share_the_plain_slot_and_active_ones_do_not() {
        let plain = request("randomized", "ring:16", 7);
        let with_model = |model: EnergyModel| {
            RunRequest {
                energy: Some(model),
                ..plain.clone()
            }
            .normalized()
        };
        // All-zero costs: inert even with a budget attached.
        let inert = with_model(EnergyModel::default().with_budget(123));
        assert_eq!(inert, plain);
        assert_eq!(inert.exec_options(), ExecOptions::seeded(7));

        let active = with_model(EnergyModel::reference());
        assert_ne!(plain.cache_key(), active.cache_key());
        assert!(
            active
                .cache_key()
                .contains("|energy=round:1000,tx:8,rx:4,idle:50"),
            "{}",
            active.cache_key()
        );
        assert!(active.exec_options().active_energy().is_some());
        // A budget extends the same segment and moves the fingerprint.
        let budgeted_req = with_model(EnergyModel::reference().with_budget(5_000_000));
        assert_ne!(active.fingerprint(), budgeted_req.fingerprint());
        assert!(
            budgeted_req.cache_key().ends_with("budget:5000000"),
            "{}",
            budgeted_req.cache_key()
        );
        // A bare budget means the reference model.
        assert_eq!(
            budgeted(None, Some(9)),
            Some(EnergyModel::reference().with_budget(9))
        );
        assert_eq!(budgeted(None, None), None);
        assert_eq!(crash_round(1), Ok(1));
        assert!(crash_round(0).unwrap_err().contains(">= 1"));
    }

    #[test]
    fn identity_wake_policies_share_the_plain_slot_and_others_do_not() {
        let plain = request("logstar", "star:9", 0);
        let with_policy = |policy: WakePolicy| {
            RunRequest {
                wake_policy: policy,
                ..plain.clone()
            }
            .normalized()
        };
        for spec in ["block", "duty:0", "duty:1", "heavytail:3:0", "shift:3:0"] {
            let identity = with_policy(parse_wake_policy(spec).unwrap());
            assert_eq!(identity, plain, "{spec}");
        }
        let duty = with_policy(WakePolicy::DutyCycle { period: 2 });
        assert!(
            duty.cache_key().ends_with("|wake=duty:2"),
            "{}",
            duty.cache_key()
        );
        assert_eq!(
            duty.exec_options().wake_policy,
            WakePolicy::DutyCycle { period: 2 }
        );
        assert!(parse_wake_policy("lazy")
            .unwrap_err()
            .contains("unknown wake policy"));
    }

    #[test]
    fn every_key_field_moves_the_fingerprint() {
        let base = request("randomized", "ring:16", 7);
        let crash = RunRequest {
            faults: Some(FaultPlan::seeded(0).with_crash(3, 20)),
            ..base.clone()
        }
        .normalized();
        assert!(crash.cache_key().contains("crashes:3@20"));
        let shifted = RunRequest {
            wake_policy: WakePolicy::AdversarialShift {
                seed: 1,
                max_shift: 2,
            },
            ..base.clone()
        };
        for other in [
            request("deterministic", "ring:16", 7),
            request("randomized", "ring:17", 7),
            request("randomized", "ring:16", 8),
            crash,
            shifted,
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn cache_key_is_stable() {
        // The key string is a wire-visible contract (it feeds committed
        // fingerprints); pin one example literally.
        let req = RunRequest {
            faults: Some(FaultPlan::seeded(2).with_drop_ppm(10).with_crash(1, 9)),
            ..request("logstar", "grid:3x4", 5)
        };
        assert_eq!(
            req.normalized().cache_key(),
            "run|alg=logstar|graph=grid:3x4|seed=5\
             |faults=fs:2,drop:10,dup:0,sleep:0,jitter:0,crashes:1@9"
        );
    }
}
