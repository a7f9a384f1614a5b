//! The node-side programming interface.

use std::ops::Index;
use std::sync::Arc;

use graphlib::{NodeId, Port};

use crate::{Payload, Round};

/// A message together with the local port it is sent through or was
/// received on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The local port (for a send: where to send; for a receive: where the
    /// message arrived).
    pub port: Port,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Convenience constructor.
    pub fn new(port: Port, msg: M) -> Self {
        Envelope { port, msg }
    }
}

/// What a node does after finishing a round (or after `init`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Sleep until the given round (exclusive of everything in between).
    /// From `init`, `At(1)` means "awake from the very first round".
    At(Round),
    /// Terminate locally. The node never wakes again; by the paper's model
    /// its awake complexity stops accumulating here.
    Halt,
}

/// The initial knowledge the model grants a node, plus immutable run
/// parameters. Deliberately **excludes** neighbor identities (KT0): a node
/// sees its ports and the weight on each, nothing else about the far side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's internal index (stable, `0..n`).
    pub node: NodeId,
    /// This node's unique external id in `[1, N]` — what the algorithms use
    /// as "the ID".
    pub external_id: u64,
    /// Number of nodes `n` (known to all nodes, per the model).
    pub n: usize,
    /// Upper bound `N` on external ids (known to all; the deterministic
    /// algorithm requires it).
    pub max_external_id: u64,
    /// Weight of the edge behind each port, indexed by [`Port`].
    pub port_weights: PortWeights,
    /// Seed material for this node's private randomness source.
    pub rng_seed: u64,
}

/// A node's per-port edge weights: a `[Port]`-indexed view into the
/// graph's immutable flat weight table
/// ([`graphlib::WeightedGraph::flat_port_weights`]).
///
/// Behaves like a `Vec<u64>` — `weights[i]`, `len()`, iteration — but
/// every node's view shares the graph's single `Arc<[u64]>`, so building
/// `n` contexts allocates nothing per node, and contexts stay cheaply
/// clonable and `Send + Sync` for the sharded send path. The table is
/// never written after it is built, so a view a protocol keeps past its
/// run stays valid.
#[derive(Debug, Clone, Eq)]
pub struct PortWeights {
    all: Arc<[u64]>,
    start: u32,
    len: u32,
}

impl PortWeights {
    /// The `len`-port window starting at global port slot `start` of the
    /// shared weight array.
    pub(crate) fn slice(all: Arc<[u64]>, start: u32, len: u32) -> Self {
        debug_assert!(start as usize + len as usize <= all.len());
        PortWeights { all, start, len }
    }

    /// Number of ports (the owning node's degree).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the node has no ports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The weights as a contiguous slice, indexed by [`Port`].
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.all[self.start as usize..self.start as usize + self.len as usize]
    }

    /// Iterates over the per-port weights in port order.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.as_slice().iter()
    }
}

impl Index<usize> for PortWeights {
    type Output = u64;

    fn index(&self, index: usize) -> &u64 {
        &self.as_slice()[index]
    }
}

/// Equality is by weight values (the node's observable knowledge), not by
/// backing-array identity: a context built from a standalone vector equals
/// one sliced out of the shared run-wide array.
impl PartialEq for PortWeights {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A standalone weight list (tests, hand-built contexts) becomes its own
/// single-node backing array.
impl From<Vec<u64>> for PortWeights {
    fn from(weights: Vec<u64>) -> Self {
        let len = weights.len() as u32;
        PortWeights {
            all: weights.into(),
            start: 0,
            len,
        }
    }
}

impl<'a> IntoIterator for &'a PortWeights {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl NodeCtx {
    /// Number of ports (the node's degree).
    pub fn degree(&self) -> usize {
        self.port_weights.len()
    }

    /// Weight of the edge behind `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn weight(&self, port: Port) -> u64 {
        self.port_weights[port.index()]
    }

    /// Iterates over all ports.
    pub fn ports(&self) -> impl Iterator<Item = Port> {
        (0..self.port_weights.len() as u32).map(Port::new)
    }
}

/// The buffer a protocol writes its outgoing envelopes into during the
/// send half-step.
///
/// The executor owns one `Outbox` per run and hands it to every
/// [`Protocol::send`] call, cleared; the protocol appends envelopes and the
/// executor drains them afterwards. After the first few rounds the backing
/// storage has reached its high-water mark and sends stop allocating —
/// this is the heart of the allocation-free hot path (see the "Executor
/// memory model" section of DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbox<M> {
    envelopes: Vec<Envelope<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox with no backing storage yet.
    #[must_use]
    pub fn new() -> Self {
        Outbox {
            envelopes: Vec::new(),
        }
    }

    /// Queues `msg` for sending through `port`.
    #[inline]
    pub fn push(&mut self, port: Port, msg: M) {
        self.envelopes.push(Envelope::new(port, msg));
    }

    /// Queues an already-built envelope.
    #[inline]
    pub fn push_envelope(&mut self, envelope: Envelope<M>) {
        self.envelopes.push(envelope);
    }

    /// Queues every envelope of an iterator (the `collect` replacement for
    /// protocols that build their sends with iterator chains).
    pub fn extend(&mut self, envelopes: impl IntoIterator<Item = Envelope<M>>) {
        self.envelopes.extend(envelopes);
    }

    /// Number of queued envelopes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// Whether no envelope is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// The queued envelopes, in push order.
    #[must_use]
    pub fn as_slice(&self) -> &[Envelope<M>] {
        &self.envelopes
    }

    /// Drops the queued envelopes, keeping the backing storage.
    pub fn clear(&mut self) {
        self.envelopes.clear();
    }

    /// Removes and yields the queued envelopes, keeping the backing
    /// storage for the next send.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.envelopes.drain(..)
    }

    /// Consumes the outbox into its envelope list (test/oracle helper; the
    /// hot path uses [`Outbox::drain`] to keep the storage).
    #[must_use]
    pub fn into_envelopes(self) -> Vec<Envelope<M>> {
        self.envelopes
    }
}

/// A distributed protocol, written from a single node's point of view.
///
/// One value of the implementing type is created per node. In each round
/// where the node is awake the simulator calls [`Protocol::send`] first
/// (local computation + outgoing messages) and then [`Protocol::deliver`]
/// with the messages that arrived *in the same round* from neighbors that
/// were awake. The value returned from `deliver` (and from
/// [`Protocol::init`] before round 1) schedules the node's next awake round
/// or halts it.
///
/// Protocols must be `Send`: the sharded executor may run the send
/// half-step of disjoint node partitions on worker threads (a protocol
/// value is still only ever touched by one thread at a time).
pub trait Protocol: Send {
    /// Message payload type.
    type Msg: Payload;

    /// Called before round 1; returns the node's first wake.
    fn init(&mut self, ctx: &NodeCtx) -> NextWake;

    /// Send half-step of an awake round: append outgoing messages to
    /// `outbox` (handed in cleared; its storage is reused across rounds).
    /// Send at most one message per port per round to stay within the
    /// CONGEST discipline — the simulator delivers every envelope and
    /// enforces the bit limit per envelope, not per port.
    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<Self::Msg>);

    /// Deliver half-step of an awake round; `inbox` holds the messages from
    /// awake neighbors, in ascending port order. Returns the node's next
    /// wake (strictly after `round`) or halts.
    fn deliver(&mut self, ctx: &NodeCtx, round: Round, inbox: &[Envelope<Self::Msg>]) -> NextWake;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_accessors() {
        let ctx = NodeCtx {
            node: NodeId::new(2),
            external_id: 3,
            n: 5,
            max_external_id: 5,
            port_weights: vec![10, 20, 30].into(),
            rng_seed: 0,
        };
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.weight(Port::new(1)), 20);
        let ports: Vec<Port> = ctx.ports().collect();
        assert_eq!(ports, vec![Port::new(0), Port::new(1), Port::new(2)]);
    }

    #[test]
    fn port_weights_window_views_the_shared_array() {
        let all: Arc<[u64]> = vec![1, 2, 3, 4, 5].into();
        let w = PortWeights::slice(all.clone(), 1, 3);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.as_slice(), &[2, 3, 4]);
        assert_eq!(w[0], 2);
        assert_eq!(w.iter().copied().sum::<u64>(), 9);
        // Value equality across different backings.
        assert_eq!(w, PortWeights::from(vec![2, 3, 4]));
        assert_ne!(w, PortWeights::from(vec![2, 3]));
        let empty = PortWeights::slice(all, 5, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn envelope_constructor() {
        let e = Envelope::new(Port::new(1), 42u64);
        assert_eq!(e.port, Port::new(1));
        assert_eq!(e.msg, 42);
    }

    #[test]
    fn outbox_accumulates_and_reuses_storage() {
        let mut out: Outbox<u64> = Outbox::new();
        assert!(out.is_empty());
        out.push(Port::new(0), 7);
        out.extend((1..3).map(|p| Envelope::new(Port::new(p), u64::from(p))));
        assert_eq!(out.len(), 3);
        assert_eq!(out.as_slice()[0], Envelope::new(Port::new(0), 7));
        let drained: Vec<Envelope<u64>> = out.drain().collect();
        assert_eq!(drained.len(), 3);
        assert!(out.is_empty());
        // The storage survives the drain: pushing again must not grow it.
        out.push(Port::new(4), 9);
        assert_eq!(out.into_envelopes(), vec![Envelope::new(Port::new(4), 9)]);
    }
}
