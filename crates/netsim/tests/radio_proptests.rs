//! Property-based tests of radio runs: the channel accounting, and the
//! cross-driver contract. A radio run is one kernel run, so its final
//! states, [`netsim::RunStats`] and channel counters are identical under
//! every time driver and shard count, with or without a fault plan.

use proptest::prelude::*;

use graphlib::{generators, WeightedGraph};
use netsim::radio::{self, CollisionRule, Heard, RadioAction, RadioOutcome, RadioProtocol};
use netsim::{EnergyModel, Executor, FaultPlan, NextWake, NodeCtx, Round, SimConfig, Simulator};

/// Each node follows a fixed per-round action script, then halts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scripted {
    /// (round, action) pairs; 0 = transmit own id, 1 = listen, 2 = idle.
    script: Vec<(Round, u8)>,
    at: usize,
    heard_msgs: u64,
    heard_collisions: u64,
}

impl Scripted {
    fn new(mut script: Vec<(Round, u8)>) -> Self {
        script.sort_unstable();
        script.dedup_by_key(|e| e.0);
        Scripted {
            script,
            at: 0,
            heard_msgs: 0,
            heard_collisions: 0,
        }
    }
}

impl RadioProtocol for Scripted {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
        match self.script.first() {
            Some(&(r, _)) => NextWake::At(r),
            None => NextWake::Halt,
        }
    }

    fn act(&mut self, ctx: &NodeCtx, _round: Round) -> RadioAction<u64> {
        match self.script[self.at].1 {
            0 => RadioAction::Transmit(ctx.external_id),
            1 => RadioAction::Listen,
            _ => RadioAction::Idle,
        }
    }

    fn heard(&mut self, _ctx: &NodeCtx, _round: Round, outcome: Heard<u64>) -> NextWake {
        match outcome {
            Heard::One(_) => self.heard_msgs += 1,
            Heard::All(v) => self.heard_msgs += v.len() as u64,
            Heard::Collision => self.heard_collisions += 1,
            _ => {}
        }
        self.at += 1;
        match self.script.get(self.at) {
            Some(&(r, _)) => NextWake::At(r),
            None => NextWake::Halt,
        }
    }
}

/// The collision rules, indexed by a proptest input.
const RULES: [CollisionRule; 3] = [
    CollisionRule::Local,
    CollisionRule::Detection,
    CollisionRule::Silence,
];

/// Runs one script per node under `rule` and `config`, priced by the
/// classic radio model.
fn run_scripts(
    g: &WeightedGraph,
    rule: CollisionRule,
    config: SimConfig,
    scripts: &[Scripted],
) -> RadioOutcome<Scripted> {
    let sim = Simulator::new(g, config.with_energy(EnergyModel::radio_default()));
    radio::run(&sim, rule, |ctx| scripts[ctx.node.index()].clone()).unwrap()
}

/// Asserts that two radio runs are the same run.
fn assert_same_run(
    a: &RadioOutcome<Scripted>,
    b: &RadioOutcome<Scripted>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.states, &b.states);
    prop_assert_eq!(&a.stats, &b.stats);
    prop_assert_eq!(a.radio, b.radio);
    Ok(())
}

/// SplitMix64 finalizer: the seed-derived scripts of the wide cases.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scripts in which every node transmits or listens in round 1 — a round
/// wide enough to engage the sharded lanes on a graph of 128 or more
/// nodes — and then picks any action in some of rounds 2 to 6.
fn wide_scripts(n: usize, seed: u64) -> Vec<Scripted> {
    (0..n as u64)
        .map(|v| {
            let mut z = mix(seed ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd));
            let mut script = vec![(1, (z % 2) as u8)];
            for round in 2..=6 {
                z = mix(z);
                if !z.is_multiple_of(4) {
                    script.push((round, ((z >> 8) % 3) as u8));
                }
            }
            Scripted::new(script)
        })
        .collect()
}

/// The executor × shard-count grid every driver contract runs over.
const DRIVERS: [(Executor, u32); 4] = [
    (Executor::Calendar, 1),
    (Executor::Calendar, 2),
    (Executor::Naive, 1),
    (Executor::Naive, 2),
];

/// Both time drivers, indexed by a proptest draw.
const EXECUTORS: [Executor; 2] = [Executor::Calendar, Executor::Naive];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Energy equals the number of transmit/listen rounds, and the Local
    /// rule delivers exactly (transmitting neighbor, listening node) pairs
    /// — under every driver and shard count.
    #[test]
    fn radio_accounting(
        n in 3usize..10,
        scripts in proptest::collection::vec(
            proptest::collection::vec((1u64..25, 0u8..3), 1..6), 3..10),
        executor in 0usize..2,
        shards in 1u32..=2,
    ) {
        prop_assume!(scripts.len() >= n);
        let g = generators::ring(n, 1).unwrap();
        let protos: Vec<Scripted> =
            scripts[..n].iter().map(|s| Scripted::new(s.clone())).collect();
        let config = SimConfig::default()
            .with_executor(EXECUTORS[executor])
            .with_shards(shards);
        let out = run_scripts(&g, CollisionRule::Local, config, &protos);
        let reference = run_scripts(&g, CollisionRule::Local, SimConfig::default(), &protos);
        assert_same_run(&out, &reference)?;

        // Expected energy: transmit + listen entries per node.
        for (i, p) in protos.iter().enumerate() {
            let expected: u64 = p.script.iter().filter(|&&(_, a)| a != 2).count() as u64;
            prop_assert_eq!(out.stats.energy_spent_by_node[i], expected, "node {}", i);
        }
        // The last round of any script entry, idle ones included.
        let last = protos.iter().filter_map(|p| p.script.last()).map(|&(r, _)| r).max();
        prop_assert_eq!(out.radio.rounds, last.unwrap_or(0));

        // Expected receptions under Local: for each directed ring edge
        // (u → v), rounds where u transmits and v listens.
        let mut expected_recv = 0u64;
        let action_at = |i: usize, r: Round| {
            protos[i].script.iter().find(|&&(rr, _)| rr == r).map(|&(_, a)| a)
        };
        for v in 0..n {
            for u in [(v + 1) % n, (v + n - 1) % n] {
                for &(r, a) in &protos[u].script {
                    if a == 0 && action_at(v, r) == Some(1) {
                        expected_recv += 1;
                    }
                }
            }
        }
        prop_assert_eq!(out.radio.receptions, expected_recv);
        let total_heard: u64 = out.states.iter().map(|s| s.heard_msgs).sum();
        prop_assert_eq!(total_heard, expected_recv);
        prop_assert_eq!(out.radio.collisions, 0, "Local never collides");
    }

    /// Under Detection, per listener-round: 0 transmitting neighbors →
    /// nothing, 1 → a message, ≥2 → a collision; totals must match under
    /// every driver and shard count.
    #[test]
    fn detection_counts_collisions_exactly(
        n in 3usize..9,
        transmit_round in 1u64..5,
        transmitters in proptest::collection::vec(any::<bool>(), 3..9),
        executor in 0usize..2,
        shards in 1u32..=2,
    ) {
        prop_assume!(transmitters.len() >= n);
        let g = generators::ring(n, 2).unwrap();
        let protos: Vec<Scripted> = (0..n)
            .map(|v| Scripted::new(vec![(transmit_round, u8::from(!transmitters[v]))]))
            .collect();
        let config = SimConfig::default()
            .with_executor(EXECUTORS[executor])
            .with_shards(shards);
        let out = run_scripts(&g, CollisionRule::Detection, config, &protos);
        let reference = run_scripts(&g, CollisionRule::Detection, SimConfig::default(), &protos);
        assert_same_run(&out, &reference)?;
        let mut expected_msgs = 0u64;
        let mut expected_cols = 0u64;
        for v in 0..n {
            if transmitters[v] {
                continue; // v listened
            }
            let tx = usize::from(transmitters[(v + 1) % n])
                + usize::from(transmitters[(v + n - 1) % n]);
            match tx {
                0 => {}
                1 => expected_msgs += 1,
                _ => expected_cols += 1,
            }
        }
        let heard: u64 = out.states.iter().map(|s| s.heard_msgs).sum();
        let cols: u64 = out.states.iter().map(|s| s.heard_collisions).sum();
        prop_assert_eq!(heard, expected_msgs);
        prop_assert_eq!(cols, expected_cols);
        prop_assert_eq!(out.radio.collisions, expected_cols);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rounds wide enough to engage the sharded lanes: every driver and
    /// shard count yields the same run under every collision rule.
    #[test]
    fn wide_rounds_agree_across_drivers_and_shards(
        n in 128usize..160,
        seed in any::<u64>(),
        rule in 0usize..3,
    ) {
        let rule = RULES[rule];
        let g = generators::ring(n, 3).unwrap();
        let scripts = wide_scripts(n, seed);
        let reference = run_scripts(&g, rule, SimConfig::default(), &scripts);
        prop_assert!(reference.radio.transmissions > 0);
        for (executor, shards) in DRIVERS {
            let config = SimConfig::default().with_executor(executor).with_shards(shards);
            assert_same_run(&run_scripts(&g, rule, config, &scripts), &reference)?;
        }
    }

    /// A fault plan reaches radio runs: dropped transmissions are counted
    /// by the kernel, and the faulted run is the same under every driver
    /// and shard count.
    #[test]
    fn dropped_transmissions_agree_across_drivers_and_shards(
        n in 128usize..160,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop_ppm in 200_000u32..600_000,
        rule in 0usize..3,
    ) {
        let rule = RULES[rule];
        let g = generators::ring(n, 4).unwrap();
        let scripts = wide_scripts(n, seed);
        let faulted = || {
            SimConfig::default().with_faults(FaultPlan::seeded(fault_seed).with_drop_ppm(drop_ppm))
        };
        let reference = run_scripts(&g, rule, faulted(), &scripts);
        prop_assert!(reference.stats.injected_drops > 0);
        for (executor, shards) in DRIVERS {
            let config = faulted().with_executor(executor).with_shards(shards);
            assert_same_run(&run_scripts(&g, rule, config, &scripts), &reference)?;
        }
    }
}
