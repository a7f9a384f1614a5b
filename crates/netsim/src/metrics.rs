//! The observability plane: per-round telemetry and phase spans.
//!
//! When [`SimConfig::record_metrics`](crate::SimConfig::record_metrics) is
//! set, both executors record one [`RoundReport`] per *active* round (a
//! round in which at least one node is awake after fault adjudication)
//! plus the exact awake timeline of every node. The stream is strictly
//! conservative with respect to [`RunStats`](crate::RunStats): summing any
//! per-round column reproduces the end-of-run aggregate, and the awake
//! timelines reproduce `awake_by_node` (the metrics-conservation proptests
//! pin this under both executors).
//!
//! On top of the raw stream, [`Metrics::phase_spans`] folds rounds into
//! [`PhaseSpan`]s under a caller-supplied labeling of rounds — the
//! registry algorithms expose their block structure (LDT build, fragment
//! merge, broadcast, …) as such labelers, which is what turns a run into
//! the per-phase awake breakdown of the paper's Table 1.
//!
//! Recording is off by default and the recorder is an `Option` on the
//! executor: with metrics disabled the hot path pays one untaken branch
//! per event, and execution is bit-identical to the no-metrics build (the
//! off-switch equivalence tests pin the fingerprints).

use crate::Round;

/// Telemetry of one active round.
///
/// `messages_sent` counts envelopes accepted by routing; every sent
/// message is then adjudicated as delivered, lost (receiver asleep), or
/// dropped (injected fault), and an injected duplication delivers one
/// extra copy, so per round:
///
/// ```text
/// messages_sent + dup_deliveries == messages_delivered + messages_lost + injected_drops
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundReport {
    /// The simulated round number (rounds start at 1).
    pub round: Round,
    /// Nodes awake this round (after fault adjudication).
    pub awake: u64,
    /// Envelopes accepted by routing this round.
    pub messages_sent: u64,
    /// Copies handed to awake receivers (duplicated copies included).
    pub messages_delivered: u64,
    /// Messages lost to sleeping receivers per the model.
    pub messages_lost: u64,
    /// Messages destroyed in flight by the fault plan.
    pub injected_drops: u64,
    /// Extra copies delivered by the fault plan.
    pub dup_deliveries: u64,
    /// Total payload bits sent this round.
    pub bits_sent: u64,
    /// Largest per-edge bit load of this round (max over edges of the
    /// bits routed across that edge in this round) — the round's CONGEST
    /// congestion.
    pub max_edge_bits: u64,
    /// Nano-joules charged this round under the configured
    /// [`EnergyModel`](crate::EnergyModel) (round + tx + rx + idle terms;
    /// 0 without an active model). Summing the column reproduces
    /// `RunStats::energy_total()` — the energy-conservation proptests
    /// pin this.
    pub energy_spent: u64,
}

/// One maximal run of consecutive active rounds sharing a phase label.
///
/// Produced by [`Metrics::phase_spans`]; spans are chronological and a
/// label reappears as a new span every time the algorithm re-enters that
/// phase (e.g. once per Boruvka phase of Merging-Fragments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The label the round labeler assigned to every round of the span.
    pub label: &'static str,
    /// First active round of the span.
    pub first_round: Round,
    /// Last active round of the span.
    pub last_round: Round,
    /// Active rounds inside the span (silent rounds are not recorded, so
    /// this can be smaller than `last_round - first_round + 1`).
    pub active_rounds: u64,
    /// Sum over the span's rounds of the awake-node count — the awake
    /// effort the phase cost, in node-rounds.
    pub awake_node_rounds: u64,
    /// Envelopes sent during the span.
    pub messages_sent: u64,
    /// Payload bits sent during the span.
    pub bits_sent: u64,
}

/// Whole-run totals for one phase label, aggregated over every span that
/// carried it. Produced by [`Metrics::phase_totals`]; labels appear in
/// order of first occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// The phase label.
    pub label: &'static str,
    /// Number of [`PhaseSpan`]s with this label.
    pub spans: u64,
    /// Total active rounds across those spans.
    pub active_rounds: u64,
    /// Total awake node-rounds across those spans.
    pub awake_node_rounds: u64,
    /// Total envelopes sent across those spans.
    pub messages_sent: u64,
    /// Total payload bits sent across those spans.
    pub bits_sent: u64,
}

/// Everything the observability plane records for one run.
///
/// Empty (no rounds, no timelines) unless the run was configured with
/// [`SimConfig::record_metrics`](crate::SimConfig::record_metrics).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// One report per active round, in round order.
    pub per_round: Vec<RoundReport>,
    /// For each node, the exact ascending list of rounds it was awake in.
    /// `awake_rounds_by_node[v].len()` equals `RunStats::awake_by_node[v]`.
    pub awake_rounds_by_node: Vec<Vec<Round>>,
}

impl Metrics {
    /// Whether anything was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_round.is_empty() && self.awake_rounds_by_node.is_empty()
    }

    /// Number of active rounds.
    #[must_use]
    pub fn active_rounds(&self) -> u64 {
        self.per_round.len() as u64
    }

    /// The last active round, or 0 for an empty run. Fault-free this
    /// equals `RunStats::rounds`; a crash fault can strand a stale
    /// trailing round with nobody awake, making `RunStats::rounds`
    /// strictly larger (pinned in `tests/model_conformance.rs`).
    #[must_use]
    pub fn last_round(&self) -> Round {
        self.per_round.last().map_or(0, |r| r.round)
    }

    /// The measured awake complexity: max over nodes of awake rounds.
    #[must_use]
    pub fn awake_complexity(&self) -> u64 {
        self.awake_rounds_by_node
            .iter()
            .map(|t| t.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Total node-awake events (sum of timeline lengths).
    #[must_use]
    pub fn awake_total(&self) -> u64 {
        self.awake_rounds_by_node
            .iter()
            .map(|t| t.len() as u64)
            .sum()
    }

    /// Total envelopes sent.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.per_round.iter().map(|r| r.messages_sent).sum()
    }

    /// Total copies delivered.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.per_round.iter().map(|r| r.messages_delivered).sum()
    }

    /// Total messages lost to sleeping receivers.
    #[must_use]
    pub fn messages_lost(&self) -> u64 {
        self.per_round.iter().map(|r| r.messages_lost).sum()
    }

    /// Total payload bits sent.
    #[must_use]
    pub fn bits_sent(&self) -> u64 {
        self.per_round.iter().map(|r| r.bits_sent).sum()
    }

    /// Total nano-joules charged across all recorded rounds (0 without
    /// an active energy model).
    #[must_use]
    pub fn energy_spent(&self) -> u64 {
        self.per_round.iter().map(|r| r.energy_spent).sum()
    }

    /// Largest single-round per-edge congestion of the run.
    #[must_use]
    pub fn max_round_edge_bits(&self) -> u64 {
        self.per_round
            .iter()
            .map(|r| r.max_edge_bits)
            .max()
            .unwrap_or(0)
    }

    /// Folds the round stream into chronological [`PhaseSpan`]s under
    /// `labeler` (round number → phase label). Consecutive active rounds
    /// with equal labels merge into one span.
    pub fn phase_spans(&self, mut labeler: impl FnMut(Round) -> &'static str) -> Vec<PhaseSpan> {
        let mut spans: Vec<PhaseSpan> = Vec::new();
        for report in &self.per_round {
            let label = labeler(report.round);
            match spans.last_mut() {
                Some(span) if span.label == label => {
                    span.last_round = report.round;
                    span.active_rounds += 1;
                    span.awake_node_rounds += report.awake;
                    span.messages_sent += report.messages_sent;
                    span.bits_sent += report.bits_sent;
                }
                _ => spans.push(PhaseSpan {
                    label,
                    first_round: report.round,
                    last_round: report.round,
                    active_rounds: 1,
                    awake_node_rounds: report.awake,
                    messages_sent: report.messages_sent,
                    bits_sent: report.bits_sent,
                }),
            }
        }
        spans
    }

    /// Whole-run [`PhaseTotals`] per label, in order of first occurrence.
    /// (Label sets are small — a linear scan keeps this free of hashed
    /// containers and hence deterministic by construction.)
    pub fn phase_totals(&self, labeler: impl FnMut(Round) -> &'static str) -> Vec<PhaseTotals> {
        let mut totals: Vec<PhaseTotals> = Vec::new();
        for span in self.phase_spans(labeler) {
            let entry = match totals.iter_mut().find(|t| t.label == span.label) {
                Some(entry) => entry,
                None => {
                    totals.push(PhaseTotals {
                        label: span.label,
                        spans: 0,
                        active_rounds: 0,
                        awake_node_rounds: 0,
                        messages_sent: 0,
                        bits_sent: 0,
                    });
                    totals
                        .last_mut()
                        .expect("just pushed a totals entry for this label")
                }
            };
            entry.spans += 1;
            entry.active_rounds += span.active_rounds;
            entry.awake_node_rounds += span.awake_node_rounds;
            entry.messages_sent += span.messages_sent;
            entry.bits_sent += span.bits_sent;
        }
        totals
    }
}

/// Bits routed per edge within one round, reset in `O(touched edges)`.
///
/// The recorder owns one for the round's congestion; each send lane past
/// the first owns a private one that the kernel folds into the recorder's
/// at round end ([`EdgeLoad::absorb`]), so no lane ever writes another's
/// table.
#[derive(Debug, Default)]
pub(crate) struct EdgeLoad {
    /// Nonzero only at indices listed in `touched`.
    bits: Vec<u64>,
    touched: Vec<u32>,
}

impl EdgeLoad {
    pub(crate) fn new(m: usize) -> Self {
        EdgeLoad {
            bits: vec![0; m],
            touched: Vec::new(),
        }
    }

    /// Sizes an emptied table for an `m`-edge run; a no-op on a table
    /// already in use this run.
    pub(crate) fn ensure(&mut self, m: usize) {
        if self.bits.is_empty() {
            self.bits.resize(m, 0);
        }
    }

    /// Drops every charge and the storage's size, keeping its capacity:
    /// the next [`EdgeLoad::ensure`] refills it with zeros.
    pub(crate) fn clear(&mut self) {
        self.bits.clear();
        self.touched.clear();
    }

    #[inline]
    pub(crate) fn charge(&mut self, edge: usize, bits: u64) {
        if self.bits[edge] == 0 {
            self.touched.push(edge as u32);
        }
        self.bits[edge] += bits;
    }

    /// Moves every charge of `other` into `self`, leaving `other` empty
    /// for its next round.
    pub(crate) fn absorb(&mut self, other: &mut EdgeLoad) {
        for &e in &other.touched {
            let bits = std::mem::take(&mut other.bits[e as usize]);
            self.charge(e as usize, bits);
        }
        other.touched.clear();
    }

    /// The largest per-edge load, resetting the table for the next round.
    fn take_max(&mut self) -> u64 {
        let mut max_edge = 0u64;
        for &e in &self.touched {
            max_edge = max_edge.max(std::mem::take(&mut self.bits[e as usize]));
        }
        self.touched.clear();
        max_edge
    }
}

/// The executors' recording half: accumulates the current round's report
/// and owns the round's [`EdgeLoad`]. Crate-private — protocols never see
/// it; the public surface is [`Metrics`].
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    per_round: Vec<RoundReport>,
    awake_rounds_by_node: Vec<Vec<Round>>,
    current: RoundReport,
    edges: EdgeLoad,
}

impl MetricsRecorder {
    pub(crate) fn new(n: usize, m: usize) -> Self {
        MetricsRecorder {
            per_round: Vec::new(),
            awake_rounds_by_node: vec![Vec::new(); n],
            current: RoundReport::default(),
            edges: EdgeLoad::new(m),
        }
    }

    /// Opens a round with the post-adjudication awake set.
    pub(crate) fn start_round(&mut self, round: Round, live: &[u32]) {
        self.current = RoundReport {
            round,
            awake: live.len() as u64,
            ..RoundReport::default()
        };
        for &v in live {
            self.awake_rounds_by_node[v as usize].push(round);
        }
    }

    /// The current round's per-edge load, charged by the first send lane.
    pub(crate) fn edges(&mut self) -> &mut EdgeLoad {
        &mut self.edges
    }

    /// Adds one send lane's traffic to the current round: `sent`
    /// envelopes accepted by routing carrying `bits` payload bits, of
    /// which copies were `delivered` (`dups` of them injected
    /// duplicates), `lost` to sleeping receivers, or `dropped` in flight.
    pub(crate) fn add_traffic(
        &mut self,
        sent: u64,
        bits: u64,
        delivered: u64,
        dups: u64,
        lost: u64,
        dropped: u64,
    ) {
        let r = &mut self.current;
        r.messages_sent += sent;
        r.bits_sent += bits;
        r.messages_delivered += delivered;
        r.dup_deliveries += dups;
        r.messages_lost += lost;
        r.injected_drops += dropped;
    }

    /// Records the round's total energy charge (called at most once per
    /// round, just before [`MetricsRecorder::finish_round`]).
    #[inline]
    pub(crate) fn set_energy(&mut self, nano_joules: u64) {
        self.current.energy_spent = nano_joules;
    }

    /// Closes the round: resolves the round's max per-edge congestion,
    /// resets the edge table, and appends the report.
    pub(crate) fn finish_round(&mut self) {
        self.current.max_edge_bits = self.edges.take_max();
        self.per_round.push(self.current);
    }

    pub(crate) fn into_metrics(self) -> Metrics {
        Metrics {
            per_round: self.per_round,
            awake_rounds_by_node: self.awake_rounds_by_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(round: Round, awake: u64, sent: u64, bits: u64) -> RoundReport {
        RoundReport {
            round,
            awake,
            messages_sent: sent,
            messages_delivered: sent,
            bits_sent: bits,
            ..RoundReport::default()
        }
    }

    #[test]
    fn empty_metrics_have_zero_everything() {
        let m = Metrics::default();
        assert!(m.is_empty());
        assert_eq!(m.active_rounds(), 0);
        assert_eq!(m.last_round(), 0);
        assert_eq!(m.awake_complexity(), 0);
        assert_eq!(m.max_round_edge_bits(), 0);
        assert!(m.phase_spans(|_| "x").is_empty());
        assert!(m.phase_totals(|_| "x").is_empty());
    }

    #[test]
    fn recorder_tracks_rounds_and_congestion() {
        let mut rec = MetricsRecorder::new(3, 2);
        rec.start_round(4, &[0, 2]);
        rec.edges().charge(0, 5);
        rec.edges().charge(0, 5);
        rec.edges().charge(1, 3);
        rec.add_traffic(3, 13, 2, 0, 1, 0);
        rec.finish_round();
        rec.start_round(9, &[2]);
        // A second lane's load on the same edge folds into the round's.
        let mut lane = EdgeLoad::new(2);
        rec.edges().charge(1, 4);
        lane.charge(1, 3);
        rec.edges().absorb(&mut lane);
        rec.add_traffic(1, 7, 2, 1, 0, 0);
        rec.set_energy(13);
        rec.finish_round();
        let m = rec.into_metrics();
        assert_eq!(m.active_rounds(), 2);
        assert_eq!(m.last_round(), 9);
        assert_eq!(m.per_round[0].max_edge_bits, 10, "edge 0 carried 5+5");
        assert_eq!(
            m.per_round[1].max_edge_bits, 7,
            "scratch reset between rounds"
        );
        assert_eq!(m.awake_rounds_by_node, vec![vec![4], vec![], vec![4, 9]]);
        assert_eq!(m.awake_complexity(), 2);
        assert_eq!(m.awake_total(), 3);
        assert_eq!(m.messages_sent(), 4);
        assert_eq!(m.messages_delivered(), 4);
        assert_eq!(m.messages_lost(), 1);
        assert_eq!(m.bits_sent(), 20);
        assert_eq!(m.per_round[1].dup_deliveries, 1);
        assert_eq!(m.per_round[0].energy_spent, 0);
        assert_eq!(m.energy_spent(), 13);
    }

    #[test]
    fn phase_spans_merge_consecutive_equal_labels() {
        let m = Metrics {
            per_round: vec![
                report(1, 2, 1, 8),
                report(2, 3, 0, 0),
                report(5, 1, 2, 16),
                report(6, 1, 0, 0),
                report(9, 4, 1, 8),
            ],
            awake_rounds_by_node: Vec::new(),
        };
        let spans = m.phase_spans(|r| {
            if (5..=6).contains(&r) {
                "merge"
            } else {
                "build"
            }
        });
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].label, spans[0].first_round, spans[0].last_round),
            ("build", 1, 2)
        );
        assert_eq!(spans[0].active_rounds, 2);
        assert_eq!(spans[0].awake_node_rounds, 5);
        assert_eq!(spans[0].messages_sent, 1);
        assert_eq!(
            (spans[1].label, spans[1].first_round, spans[1].last_round),
            ("merge", 5, 6)
        );
        assert_eq!(spans[1].bits_sent, 16);
        assert_eq!((spans[2].label, spans[2].first_round), ("build", 9));

        let totals = m.phase_totals(|r| {
            if (5..=6).contains(&r) {
                "merge"
            } else {
                "build"
            }
        });
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].label, "build");
        assert_eq!(totals[0].spans, 2);
        assert_eq!(totals[0].active_rounds, 3);
        assert_eq!(totals[0].awake_node_rounds, 9);
        assert_eq!(totals[1].label, "merge");
        assert_eq!(totals[1].spans, 1);
    }

    #[test]
    fn conservation_identity_holds_per_report() {
        let mut rec = MetricsRecorder::new(2, 1);
        rec.start_round(1, &[0, 1]);
        // One dropped, one delivered twice (duplicated), one lost.
        rec.add_traffic(3, 12, 2, 1, 1, 1);
        rec.finish_round();
        let m = rec.into_metrics();
        let r = &m.per_round[0];
        assert_eq!(
            r.messages_sent + r.dup_deliveries,
            r.messages_delivered + r.messages_lost + r.injected_drops
        );
    }
}
