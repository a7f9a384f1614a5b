use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::GraphError;

/// Identifier of a node (processor) in the network, in `0..n`.
///
/// Node ids double as the unique `O(log n)`-bit identifiers the paper's
/// model hands to each processor. Generators may remap ids to larger ranges
/// (see [`crate::generators::with_id_space`]) to exercise the deterministic
/// algorithm's dependence on the maximum id `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the id as a `usize` index into node-indexed arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A port number local to one node.
///
/// The paper's model connects each incident edge to a distinct local port;
/// a node addresses its neighbors only through ports (KT0 knowledge), not
/// through their ids. Port `p` of node `u` is the `p`-th entry of `u`'s
/// adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(u32);

impl Port {
    /// Creates a port from a raw local index.
    pub const fn new(index: u32) -> Self {
        Port(index)
    }

    /// Returns the port as a `usize` index into port-indexed arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for Port {
    fn from(value: u32) -> Self {
        Port(value)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of an undirected edge, indexing into [`WeightedGraph::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the id as a `usize` index into edge-indexed arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for EdgeId {
    fn from(value: u32) -> Self {
        EdgeId(value)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint (always the smaller node id).
    pub u: NodeId,
    /// The other endpoint (always the larger node id).
    pub v: NodeId,
    /// The edge weight; unique within a [`WeightedGraph`].
    pub weight: u64,
}

impl Edge {
    /// Given one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this edge.
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.u {
            self.v
        } else if from == self.v {
            self.u
        } else {
            panic!(
                "node {from} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }
}

/// One entry of a node's adjacency (port) table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortEntry {
    /// The neighbor reached through this port.
    pub neighbor: NodeId,
    /// Weight of the connecting edge.
    pub weight: u64,
    /// Global id of the connecting edge.
    pub edge: EdgeId,
    /// The neighbor's port for the same edge (the reverse direction),
    /// precomputed in [`GraphBuilder::build`] so delivery paths never scan
    /// an adjacency list to route a reply.
    pub back_port: Port,
}

/// An immutable, undirected, connected(-checkable) weighted graph with
/// distinct edge weights and per-node port numbering.
///
/// Construction goes through [`GraphBuilder`], which validates all of the
/// paper's structural assumptions (no self-loops, no parallel edges,
/// distinct weights), or through the streaming
/// [`WeightedGraph::from_edge_stream`] for million-node instances. The
/// port tables are stored in CSR form — one flat `PortEntry` array plus
/// an `n + 1` offset array — so a graph costs `O(n + m)` contiguous
/// memory with no per-node allocation, while the [`Port`]-indexed view
/// (the model's KT0 knowledge: a node sees only its ports and incident
/// weights) is unchanged.
///
/// # Example
///
/// ```
/// use graphlib::{GraphBuilder, NodeId, Port};
///
/// let g = GraphBuilder::new(3)
///     .edge(0, 1, 10)
///     .edge(1, 2, 20)
///     .build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// let entry = g.port_entry(NodeId::new(1), Port::new(0));
/// assert_eq!(entry.neighbor, NodeId::new(0));
/// # Ok::<(), graphlib::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<Edge>,
    /// CSR port tables: node `v`'s ports are
    /// `adj[offsets[v] as usize..offsets[v + 1] as usize]`.
    adj: Vec<PortEntry>,
    offsets: Vec<u32>,
    /// Optional remapped "external" ids (the `[1, N]` id space of the
    /// deterministic algorithm). `external_ids[i]` is node `i`'s id.
    external_ids: Vec<u64>,
}

impl WeightedGraph {
    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up an edge by id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId::new)
    }

    /// Degree (number of ports) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node.index() + 1] - self.offsets[node.index()]) as usize
    }

    /// The full port table of `node`, indexed by [`Port`].
    pub fn ports(&self, node: NodeId) -> &[PortEntry] {
        &self.adj[self.offsets[node.index()] as usize..self.offsets[node.index() + 1] as usize]
    }

    /// The port-table entry behind `port` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for `node`.
    pub fn port_entry(&self, node: NodeId, port: Port) -> PortEntry {
        self.ports(node)[port.index()]
    }

    /// Finds the port of `node` whose edge leads to `neighbor`, if the two
    /// nodes are adjacent.
    pub fn port_to(&self, node: NodeId, neighbor: NodeId) -> Option<Port> {
        self.ports(node)
            .iter()
            .position(|e| e.neighbor == neighbor)
            .map(|i| Port::new(i as u32))
    }

    /// Returns the edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<&Edge> {
        self.ports(u)
            .iter()
            .find(|e| e.neighbor == v)
            .map(|e| self.edge(e.edge))
    }

    /// Total number of port slots across all nodes (`2m`): the length of
    /// the flat CSR port array and the domain of [`Self::port_slot`].
    pub fn total_ports(&self) -> usize {
        self.adj.len()
    }

    /// The first global port slot of `node` in the flat CSR array; `node`'s
    /// port `p` occupies slot `port_base(node) + p`.
    pub fn port_base(&self, node: NodeId) -> u32 {
        self.offsets[node.index()]
    }

    /// The global slot of `(node, port)` in the flat CSR port array: a
    /// dense index in `0..total_ports()` usable for flat side tables
    /// (bitsets, weight arrays) without per-node allocation.
    pub fn port_slot(&self, node: NodeId, port: Port) -> usize {
        self.offsets[node.index()] as usize + port.index()
    }

    /// All port weights in one flat, shareable array, indexed by global
    /// port slot (see [`Self::port_slot`]). One allocation and one pass
    /// for the whole graph.
    pub fn flat_port_weights(&self) -> Arc<[u64]> {
        self.adj.iter().map(|e| e.weight).collect()
    }

    /// Heap bytes held by the graph representation (edges, CSR port
    /// array, offsets, external ids) — the `graph_bytes` figure the
    /// scale-campaign memory accounting reports.
    pub fn memory_bytes(&self) -> u64 {
        (self.edges.capacity() * std::mem::size_of::<Edge>()
            + self.adj.capacity() * std::mem::size_of::<PortEntry>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.external_ids.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Total weight of a set of edges.
    pub fn total_weight<I: IntoIterator<Item = EdgeId>>(&self, ids: I) -> u64 {
        ids.into_iter().map(|id| self.edge(id).weight).sum()
    }

    /// The "external" id of a node: the value a processor would present as
    /// its unique id. Defaults to `node index + 1` (ids in `[1, n]`) unless
    /// remapped by [`crate::generators::with_id_space`].
    pub fn external_id(&self, node: NodeId) -> u64 {
        self.external_ids[node.index()]
    }

    /// The largest external id `N`, an input the paper's deterministic
    /// algorithm assumes every node knows.
    pub fn max_external_id(&self) -> u64 {
        self.external_ids.iter().copied().max().unwrap_or(0)
    }

    /// Replaces the external id assignment.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `ids.len() != n`, if any id is
    /// zero (ids live in `[1, N]`), or if ids are not pairwise distinct.
    pub fn set_external_ids(&mut self, ids: Vec<u64>) -> Result<(), GraphError> {
        if ids.len() != self.n {
            return Err(GraphError::InvalidSize {
                reason: format!("expected {} external ids, got {}", self.n, ids.len()),
            });
        }
        if ids.contains(&0) {
            return Err(GraphError::InvalidSize {
                reason: "external ids must be in [1, N]".to_string(),
            });
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(GraphError::InvalidSize {
                reason: "external ids must be distinct".to_string(),
            });
        }
        self.external_ids = ids;
        Ok(())
    }

    /// Builds a graph from a *replayable* edge stream without ever
    /// materializing an intermediate adjacency or edge list: the stream
    /// closure is invoked **twice** with an `emit(u, v, weight)` sink —
    /// once to count degrees (sizing the CSR arrays exactly), once to
    /// fill them in place. Memory high-water is the final `O(n + m)`
    /// representation itself, which is what makes `n = 10^6`-plus
    /// generator runs feasible.
    ///
    /// The stream must be deterministic (both invocations must emit the
    /// same edge sequence) and must satisfy the builder's structural
    /// contract by construction: no duplicate undirected pairs and
    /// pairwise-distinct weights. Unlike [`GraphBuilder::build`], those
    /// two properties are **not** validated here — hash-set dedup at
    /// `10^7` edges is exactly the cost this path exists to avoid — so
    /// only generators with a no-duplicates proof should use it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`]
    /// for malformed endpoints, and [`GraphError::InvalidSize`] if the
    /// two passes disagree or the graph exceeds `u32` port capacity.
    pub fn from_edge_stream<F>(n: usize, mut stream: F) -> Result<WeightedGraph, GraphError>
    where
        F: FnMut(&mut dyn FnMut(u32, u32, u64)),
    {
        // Pass 1: validate endpoints, count edges and per-node degrees.
        let mut degree = vec![0u32; n];
        let mut count = 0usize;
        let mut error: Option<GraphError> = None;
        stream(&mut |u, v, _w| {
            if error.is_some() {
                return;
            }
            if u as usize >= n {
                error = Some(GraphError::NodeOutOfRange { node: u, n });
            } else if v as usize >= n {
                error = Some(GraphError::NodeOutOfRange { node: v, n });
            } else if u == v {
                error = Some(GraphError::SelfLoop { node: u });
            } else {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
                count += 1;
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        let total_ports = checked_port_count(count)?;
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }

        // Pass 2: replay the stream into the exactly-sized CSR arrays.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![PLACEHOLDER_PORT; total_ports];
        let mut edges: Vec<Edge> = Vec::with_capacity(count);
        stream(&mut |u, v, weight| {
            if error.is_some() {
                return;
            }
            let (ui, vi) = (u as usize, v as usize);
            if edges.len() == count
                || ui >= n
                || vi >= n
                || u == v
                || cursor[ui] >= offsets[ui + 1]
                || cursor[vi] >= offsets[vi + 1]
            {
                error = Some(GraphError::InvalidSize {
                    reason: "edge stream changed between counting and filling passes".to_string(),
                });
                return;
            }
            let id = EdgeId::new(edges.len() as u32);
            let port_at_u = Port::new(cursor[ui] - offsets[ui]);
            let port_at_v = Port::new(cursor[vi] - offsets[vi]);
            adj[cursor[ui] as usize] = PortEntry {
                neighbor: NodeId::new(v),
                weight,
                edge: id,
                back_port: port_at_v,
            };
            adj[cursor[vi] as usize] = PortEntry {
                neighbor: NodeId::new(u),
                weight,
                edge: id,
                back_port: port_at_u,
            };
            cursor[ui] += 1;
            cursor[vi] += 1;
            edges.push(Edge {
                u: NodeId::new(u.min(v)),
                v: NodeId::new(u.max(v)),
                weight,
            });
        });
        if let Some(e) = error {
            return Err(e);
        }
        if edges.len() != count {
            return Err(GraphError::InvalidSize {
                reason: "edge stream changed between counting and filling passes".to_string(),
            });
        }

        let external_ids = (1..=n as u64).collect();
        Ok(WeightedGraph {
            n,
            edges,
            adj,
            offsets,
            external_ids,
        })
    }
}

/// Inert CSR slot value; every slot is overwritten during the fill pass.
const PLACEHOLDER_PORT: PortEntry = PortEntry {
    neighbor: NodeId::new(0),
    weight: 0,
    edge: EdgeId::new(0),
    back_port: Port::new(0),
};

/// `2m` with a `u32` capacity guard (ports and offsets are `u32`).
fn checked_port_count(edge_count: usize) -> Result<usize, GraphError> {
    let total = edge_count
        .checked_mul(2)
        .filter(|&t| t <= u32::MAX as usize);
    total.ok_or_else(|| GraphError::InvalidSize {
        reason: format!("{edge_count} edges exceed the u32 port-slot capacity"),
    })
}

/// Fills the CSR port array for `edges` (in insertion order), reproducing
/// exactly the port numbering of the historical per-node push loop: an
/// edge's port at each endpoint is the number of earlier edges incident to
/// that endpoint, so the `k`-th inserted edge lands on the same ports —
/// and the same precomputed back ports — as it always did. Every pinned
/// execution fingerprint depends on this order being preserved.
fn csr_fill(n: usize, edges: &[Edge]) -> Result<(Vec<PortEntry>, Vec<u32>), GraphError> {
    let total_ports = checked_port_count(edges.len())?;
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        offsets[e.u.index() + 1] += 1;
        offsets[e.v.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut adj = vec![PLACEHOLDER_PORT; total_ports];
    for (k, e) in edges.iter().enumerate() {
        let (ui, vi) = (e.u.index(), e.v.index());
        let id = EdgeId::new(k as u32);
        let port_at_u = Port::new(cursor[ui] - offsets[ui]);
        let port_at_v = Port::new(cursor[vi] - offsets[vi]);
        adj[cursor[ui] as usize] = PortEntry {
            neighbor: e.v,
            weight: e.weight,
            edge: id,
            back_port: port_at_v,
        };
        adj[cursor[vi] as usize] = PortEntry {
            neighbor: e.u,
            weight: e.weight,
            edge: id,
            back_port: port_at_u,
        };
        cursor[ui] += 1;
        cursor[vi] += 1;
    }
    Ok((adj, offsets))
}

/// Incremental builder for [`WeightedGraph`].
///
/// Accumulates edges, then [`GraphBuilder::build`] validates the structure.
/// The builder is non-consuming so graphs can be assembled in loops.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, u64)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge `(u, v)` with the given weight.
    pub fn edge(&mut self, u: u32, v: u32, weight: u64) -> &mut Self {
        self.edges.push((u, v, weight));
        self
    }

    /// Adds many edges at once.
    pub fn edges<I: IntoIterator<Item = (u32, u32, u64)>>(&mut self, iter: I) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validates and produces the immutable graph.
    ///
    /// # Errors
    ///
    /// Returns an error if any edge references a node outside `0..n`, is a
    /// self-loop, duplicates another edge's endpoints, or repeats a weight.
    /// Connectivity is *not* required here; use
    /// [`crate::traversal::is_connected`] when it matters.
    pub fn build(&self) -> Result<WeightedGraph, GraphError> {
        let n = self.n;
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut seen_weights = HashMap::with_capacity(self.edges.len());
        let mut seen_pairs = HashMap::with_capacity(self.edges.len());

        for &(u, v, weight) in &self.edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if let Some(_prev) = seen_weights.insert(weight, (u, v)) {
                return Err(GraphError::DuplicateWeight { weight });
            }
            let key = (u.min(v), u.max(v));
            if seen_pairs.insert(key, weight).is_some() {
                return Err(GraphError::DuplicateEdge { u: key.0, v: key.1 });
            }
            edges.push(Edge {
                u: NodeId::new(key.0),
                v: NodeId::new(key.1),
                weight,
            });
        }

        let (adj, offsets) = csr_fill(n, &edges)?;
        let external_ids = (1..=n as u64).collect();
        Ok(WeightedGraph {
            n,
            edges,
            adj,
            offsets,
            external_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        GraphBuilder::new(3)
            .edge(0, 1, 1)
            .edge(1, 2, 2)
            .edge(0, 2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_adjacency_with_port_order() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        // Node 0's ports follow insertion order: first edge (0,1), then (0,2).
        let p0 = g.ports(NodeId::new(0));
        assert_eq!(p0[0].neighbor, NodeId::new(1));
        assert_eq!(p0[1].neighbor, NodeId::new(2));
        assert_eq!(p0[0].weight, 1);
        assert_eq!(p0[1].weight, 3);
    }

    #[test]
    fn port_to_finds_reverse_direction() {
        let g = triangle();
        let p = g.port_to(NodeId::new(2), NodeId::new(0)).unwrap();
        assert_eq!(g.port_entry(NodeId::new(2), p).neighbor, NodeId::new(0));
        assert_eq!(g.port_to(NodeId::new(2), NodeId::new(2)), None);
    }

    #[test]
    fn back_ports_invert_every_port() {
        let g = triangle();
        for v in g.nodes() {
            for (i, entry) in g.ports(v).iter().enumerate() {
                // The precomputed reverse port agrees with a linear scan…
                assert_eq!(Some(entry.back_port), g.port_to(entry.neighbor, v));
                // …and following it round-trips back to (v, port i).
                let back = g.port_entry(entry.neighbor, entry.back_port);
                assert_eq!(back.neighbor, v);
                assert_eq!(back.back_port, Port::new(i as u32));
                assert_eq!(back.edge, entry.edge);
            }
        }
    }

    #[test]
    fn edge_between_and_other() {
        let g = triangle();
        let e = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(e.weight, 2);
        assert_eq!(e.other(NodeId::new(1)), NodeId::new(2));
        assert_eq!(e.other(NodeId::new(2)), NodeId::new(1));
        assert!(g.edge_between(NodeId::new(0), NodeId::new(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let _ = e.other(NodeId::new(2));
    }

    #[test]
    fn rejects_duplicate_weight() {
        let err = GraphBuilder::new(3)
            .edge(0, 1, 5)
            .edge(1, 2, 5)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateWeight { weight: 5 });
    }

    #[test]
    fn rejects_duplicate_edge_even_with_flipped_endpoints() {
        let err = GraphBuilder::new(3)
            .edge(0, 1, 5)
            .edge(1, 0, 6)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn rejects_self_loop_and_out_of_range() {
        let err = GraphBuilder::new(2).edge(1, 1, 5).build().unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
        let err = GraphBuilder::new(2).edge(0, 2, 5).build().unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn external_ids_default_to_one_based() {
        let g = triangle();
        assert_eq!(g.external_id(NodeId::new(0)), 1);
        assert_eq!(g.external_id(NodeId::new(2)), 3);
        assert_eq!(g.max_external_id(), 3);
    }

    #[test]
    fn external_ids_validate() {
        let mut g = triangle();
        assert!(g.set_external_ids(vec![5, 9, 2]).is_ok());
        assert_eq!(g.max_external_id(), 9);
        assert!(g.set_external_ids(vec![1, 2]).is_err());
        assert!(g.set_external_ids(vec![0, 1, 2]).is_err());
        assert!(g.set_external_ids(vec![4, 4, 2]).is_err());
    }

    #[test]
    fn total_weight_sums_selected_edges() {
        let g = triangle();
        let all: Vec<EdgeId> = (0..3).map(EdgeId::new).collect();
        assert_eq!(g.total_weight(all), 6);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_external_id(), 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId::new(3).to_string(), "v3");
        assert_eq!(Port::new(1).to_string(), "p1");
        assert_eq!(EdgeId::new(0).to_string(), "e0");
    }

    #[test]
    fn global_port_slots_are_dense_and_ordered() {
        let g = triangle();
        assert_eq!(g.total_ports(), 6);
        let mut seen = vec![false; g.total_ports()];
        for v in g.nodes() {
            assert_eq!(g.port_base(v) as usize, g.port_slot(v, Port::new(0)));
            for p in 0..g.degree(v) {
                let slot = g.port_slot(v, Port::new(p as u32));
                assert!(!seen[slot], "slot {slot} assigned twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "port slots not dense");
    }

    #[test]
    fn flat_port_weights_match_port_tables() {
        let g = triangle();
        let flat = g.flat_port_weights();
        assert_eq!(flat.len(), g.total_ports());
        for v in g.nodes() {
            for (p, entry) in g.ports(v).iter().enumerate() {
                assert_eq!(flat[g.port_slot(v, Port::new(p as u32))], entry.weight);
            }
        }
    }

    #[test]
    fn memory_bytes_counts_the_csr_arrays() {
        let g = triangle();
        let floor = (3 * std::mem::size_of::<Edge>()
            + 6 * std::mem::size_of::<PortEntry>()
            + 4 * std::mem::size_of::<u32>()
            + 3 * std::mem::size_of::<u64>()) as u64;
        assert!(g.memory_bytes() >= floor, "{} < {floor}", g.memory_bytes());
        assert_eq!(GraphBuilder::new(0).build().unwrap().total_ports(), 0);
    }

    #[test]
    fn edge_stream_matches_builder_exactly() {
        // Interleaved insertion order exercises the cursor fill: ports and
        // back ports must equal the builder's push-order assignment.
        let spec = [(0u32, 1u32, 10u64), (2, 1, 20), (3, 0, 30), (1, 3, 40)];
        let built = {
            let mut b = GraphBuilder::new(4);
            for &(u, v, w) in &spec {
                b.edge(u, v, w);
            }
            b.build().unwrap()
        };
        let streamed = WeightedGraph::from_edge_stream(4, |emit| {
            for &(u, v, w) in &spec {
                emit(u, v, w);
            }
        })
        .unwrap();
        assert_eq!(built, streamed);
    }

    #[test]
    fn edge_stream_validates_endpoints() {
        let err = WeightedGraph::from_edge_stream(2, |emit| emit(0, 2, 1)).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, n: 2 });
        let err = WeightedGraph::from_edge_stream(2, |emit| emit(1, 1, 1)).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn edge_stream_rejects_nondeterministic_streams() {
        let mut pass = 0;
        let err = WeightedGraph::from_edge_stream(3, |emit| {
            pass += 1;
            if pass == 1 {
                emit(0, 1, 1);
            } else {
                emit(0, 1, 1);
                emit(1, 2, 2);
            }
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidSize { .. }));
    }
}
