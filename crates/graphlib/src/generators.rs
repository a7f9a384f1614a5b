//! Deterministic, seeded generators for the graph families used throughout
//! the paper's experiments.
//!
//! Every generator takes a `seed` and produces the same graph for the same
//! arguments, which keeps the distributed test suites reproducible. All
//! generated weights are pairwise distinct (drawn without replacement from a
//! `poly(n)`-sized space, as in the paper's Theorem 3 construction).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::checked_port_count;
use crate::{GraphBuilder, GraphError, WeightedGraph};

/// Draws `count` distinct weights from `[1, span]` with a seeded RNG.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `span < count as u64` (the space
/// cannot host that many distinct values).
pub fn distinct_weights(count: usize, span: u64, seed: u64) -> Result<Vec<u64>, GraphError> {
    if span < count as u64 {
        return Err(GraphError::InvalidSize {
            reason: format!("weight span {span} too small for {count} distinct weights"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let w = rng.gen_range(1..=span);
        if seen.insert(w) {
            out.push(w);
        }
    }
    Ok(out)
}

fn weight_span(n: usize) -> u64 {
    // A poly(n) space large enough that rejection sampling stays cheap;
    // from n ≈ 661,000 on, n³·64 saturates at the whole `u64` range.
    let n = n.max(2) as u64;
    n.saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(64)
        .max(1 << 16)
}

/// Refuses, before anything is allocated, a graph of `n` nodes and `m`
/// edges that the CSR form cannot address: node ids and the `2m` port
/// slots are `u32`. `None` stands for a size whose computation
/// overflowed. Returns `(n, m)`.
fn csr_size(n: Option<usize>, m: Option<usize>) -> Result<(usize, usize), GraphError> {
    let (n, m) = n.zip(m).ok_or_else(|| GraphError::InvalidSize {
        reason: "graph size overflows the u32 node-id and port-slot capacity".to_string(),
    })?;
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidSize {
            reason: format!("{n} nodes exceed the u32 node-id capacity"),
        });
    }
    checked_port_count(m)?;
    Ok((n, m))
}

/// A cycle on `n >= 3` nodes with random distinct weights — the family of
/// Theorem 3's awake-complexity lower bound.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n < 3`.
pub fn ring(n: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidSize {
            reason: format!("ring needs n >= 3, got {n}"),
        });
    }
    csr_size(Some(n), Some(n))?;
    let weights = distinct_weights(n, weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    for (i, &w) in weights.iter().enumerate() {
        b.edge(i as u32, ((i + 1) % n) as u32, w);
    }
    b.build()
}

/// A path on `n >= 1` nodes with random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0`.
pub fn path(n: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize {
            reason: "path needs n >= 1".to_string(),
        });
    }
    csr_size(Some(n), Some(n - 1))?;
    let weights = distinct_weights(n.saturating_sub(1), weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    for (i, &w) in weights.iter().enumerate() {
        b.edge(i as u32, (i + 1) as u32, w);
    }
    b.build()
}

/// A star: node 0 joined to all others, random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0`.
pub fn star(n: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize {
            reason: "star needs n >= 1".to_string(),
        });
    }
    csr_size(Some(n), Some(n - 1))?;
    let weights = distinct_weights(n.saturating_sub(1), weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(0, i as u32, weights[i - 1]);
    }
    b.build()
}

/// The complete graph `K_n` with random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0`.
pub fn complete(n: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize {
            reason: "complete graph needs n >= 1".to_string(),
        });
    }
    let (n, m) = csr_size(Some(n), n.checked_mul(n - 1).map(|pairs| pairs / 2))?;
    let weights = distinct_weights(m, weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    for i in 0..n {
        for j in i + 1..n {
            b.edge(i as u32, j as u32, weights[k]);
            k += 1;
        }
    }
    b.build()
}

/// A `rows × cols` grid with random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if either dimension is zero.
pub fn grid(rows: usize, cols: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidSize {
            reason: format!("grid needs positive dimensions, got {rows}x{cols}"),
        });
    }
    let across = rows.checked_mul(cols - 1);
    let down = cols.checked_mul(rows - 1);
    let (n, m) = csr_size(
        rows.checked_mul(cols),
        across.zip(down).and_then(|(a, d)| a.checked_add(d)),
    )?;
    let weights = distinct_weights(m, weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut k = 0;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.edge(at(r, c), at(r, c + 1), weights[k]);
                k += 1;
            }
            if r + 1 < rows {
                b.edge(at(r, c), at(r + 1, c), weights[k]);
                k += 1;
            }
        }
    }
    b.build()
}

/// An Erdős–Rényi style random graph forced connected: a random spanning
/// tree plus each remaining pair independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0` or `p` is not in `[0, 1]`.
// lint:allow(determinism) -- edge probability is a generator input handed to the seeded RNG, not simulation state
pub fn random_connected(n: usize, p: f64, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize {
            reason: "random graph needs n >= 1".to_string(),
        });
    }
    // lint:allow(determinism) -- range check on the probability parameter
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidSize {
            reason: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    // Only the spanning tree's n - 1 edges are known before the pair
    // loop draws the extra pairs.
    csr_size(Some(n), Some(n - 1))?;
    let mut rng = StdRng::seed_from_u64(seed);

    // Random spanning tree: random permutation, attach each node to a
    // uniformly random earlier node (a random recursive tree).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut rng);
    let mut pairs: HashSet<(u32, u32)> = HashSet::new();
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let (a, b) = (order[i], order[j]);
        pairs.insert((a.min(b), a.max(b)));
    }
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            if !pairs.contains(&(i, j)) && rng.gen_bool(p) {
                pairs.insert((i, j));
            }
        }
    }

    let mut sorted: Vec<(u32, u32)> = pairs.into_iter().collect();
    sorted.sort_unstable();
    let weights = distinct_weights(sorted.len(), weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    for (k, (u, v)) in sorted.into_iter().enumerate() {
        b.edge(u, v, weights[k]);
    }
    b.build()
}

/// A complete binary tree on `n >= 1` nodes (heap-shaped: node `i`'s
/// children are `2i + 1` and `2i + 2`), random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0`.
pub fn binary_tree(n: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize {
            reason: "binary tree needs n >= 1".to_string(),
        });
    }
    csr_size(Some(n), Some(n - 1))?;
    let weights = distinct_weights(n.saturating_sub(1), weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(((i - 1) / 2) as u32, i as u32, weights[i - 1]);
    }
    b.build()
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Random distinct weights.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if spine == 0 {
        return Err(GraphError::InvalidSize {
            reason: "caterpillar needs a spine".to_string(),
        });
    }
    let n = spine.checked_mul(legs).and_then(|l| l.checked_add(spine));
    let (n, m) = csr_size(n, n.map(|n| n - 1))?;
    let weights = distinct_weights(m, weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    for i in 0..spine - 1 {
        b.edge(i as u32, (i + 1) as u32, weights[k]);
        k += 1;
    }
    for s in 0..spine {
        for l in 0..legs {
            b.edge(s as u32, (spine + s * legs + l) as u32, weights[k]);
            k += 1;
        }
    }
    b.build()
}

/// A barbell: two cliques of `clique` nodes joined by a path of `bridge`
/// extra nodes. Random distinct weights. Stresses the merge logic with
/// dense regions separated by a thin cut.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if clique < 2 {
        return Err(GraphError::InvalidSize {
            reason: "barbell cliques need >= 2 nodes".to_string(),
        });
    }
    let (n, m) = csr_size(
        clique.checked_mul(2).and_then(|c| c.checked_add(bridge)),
        clique
            .checked_mul(clique - 1)
            .and_then(|c| c.checked_add(bridge)?.checked_add(1)),
    )?;
    let weights = distinct_weights(m, weight_span(n), seed)?;
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    let add = |b: &mut GraphBuilder, u: usize, v: usize, k: &mut usize| {
        b.edge(u as u32, v as u32, weights[*k]);
        *k += 1;
    };
    // Left clique: 0..clique. Right clique: clique+bridge..n.
    for i in 0..clique {
        for j in i + 1..clique {
            add(&mut b, i, j, &mut k);
            add(&mut b, clique + bridge + i, clique + bridge + j, &mut k);
        }
    }
    // Bridge path from node clique-1 through the bridge nodes to the
    // right clique's first node.
    let mut prev = clique - 1;
    for t in 0..bridge {
        add(&mut b, prev, clique + t, &mut k);
        prev = clique + t;
    }
    add(&mut b, prev, clique + bridge, &mut k);
    b.build()
}

/// SplitMix64 finalizer — the stateless hash behind the streaming
/// generator's per-node chord offsets and weight permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A chorded cycle: the `n`-cycle plus `chords` pseudo-random chords per
/// node — the sparse scale-campaign family. Built via
/// [`WeightedGraph::from_edge_stream`], so memory high-water is the final
/// CSR representation (`O(n + m)`), never an intermediate edge list; this
/// is the family the million-node runs use.
///
/// Structure is duplicate-free by construction, which is what licenses the
/// unvalidated streaming path: node `i`'s chord `c` spans the forward
/// cyclic gap `d = 2 + ((mix(seed ^ i) + c) mod avail)` where
/// `avail = (n - 1) / 2 - 1`. Every chord gap lies in `[2, (n - 1) / 2]`,
/// and an unordered pair with cyclic gaps `{d, n - d}` has exactly one gap
/// in that range (the complementary gap exceeds `n / 2`), so each chord
/// pair is emitted by exactly one `(i, c)`; gaps `>= 2` never collide with
/// the cycle edges (gap 1); and one node's `chords <= avail` consecutive
/// residues are pairwise distinct. Weights are a seeded affine-xor
/// bijection of the edge index over `[1, 2^⌈log₂ m⌉]` — pairwise distinct
/// and bounded by `2m`, so total weights stay far from `u64` overflow even
/// at `n = 10^7`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n < 5` or
/// `chords > (n - 1) / 2 - 1`.
pub fn chorded_cycle(n: usize, chords: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if n < 5 {
        return Err(GraphError::InvalidSize {
            reason: format!("chorded cycle needs n >= 5, got {n}"),
        });
    }
    let avail = (n - 1) / 2 - 1;
    if chords > avail {
        return Err(GraphError::InvalidSize {
            reason: format!("at most {avail} distinct chords per node for n = {n}, got {chords}"),
        });
    }
    let (n, m) = csr_size(
        Some(n),
        n.checked_mul(chords).and_then(|c| c.checked_add(n)),
    )?;
    let bits = 64 - (m as u64 - 1).leading_zeros();
    let mask = (1u64 << bits) - 1;
    let mult = mix(seed) | 1;
    let xor = mix(seed ^ 0xc2b2_ae3d_27d4_eb4f) & mask;
    let weight = move |k: u64| ((k ^ xor).wrapping_mul(mult) & mask) + 1;

    WeightedGraph::from_edge_stream(n, |emit| {
        let mut k = 0u64;
        for i in 0..n {
            emit(i as u32, ((i + 1) % n) as u32, weight(k));
            k += 1;
        }
        for i in 0..n {
            let base = (mix(seed ^ i as u64) % avail as u64) as usize;
            for c in 0..chords {
                let d = 2 + (base + c) % avail;
                emit(i as u32, ((i + d) % n) as u32, weight(k));
                k += 1;
            }
        }
    })
}

/// Remaps a graph's external node ids into a sparse `[1, id_span]` space.
///
/// The deterministic algorithm's running time is `O(n N log n)` where `N`
/// is the *largest id*, not the node count; this helper builds instances
/// where `N >> n` to exercise that dependence.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `id_span < n`.
pub fn with_id_space(
    mut graph: WeightedGraph,
    id_span: u64,
    seed: u64,
) -> Result<WeightedGraph, GraphError> {
    let n = graph.node_count();
    if id_span < n as u64 {
        return Err(GraphError::InvalidSize {
            reason: format!("id span {id_span} smaller than node count {n}"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut seen = HashSet::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=id_span);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    graph.set_external_ids(ids)?;
    Ok(graph)
}

/// Builds a graph from a colon-separated spec string — the one grammar
/// shared by the CLI, the serve daemon, and the loadgen traces:
/// `ring:64`, `path:20`, `star:16`, `complete:12`, `bintree:31`,
/// `grid:4x8`, `random:48:0.1`, `barbell:6:3`, `caterpillar:5:2`, or
/// `scale:1000000:2` (the streaming chorded-cycle family).
///
/// The spec string is part of the service plane's cache key, so the
/// grammar is deliberately strict: no whitespace tolerance, no aliases —
/// two spellings of the same graph would otherwise occupy two cache
/// slots.
///
/// # Errors
///
/// Returns a human-readable message on malformed specs or invalid sizes.
pub fn from_spec(spec: &str, seed: u64) -> Result<WeightedGraph, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    let int = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("'{s}' is not a positive integer"))
    };
    let graph: Result<WeightedGraph, GraphError> = match (kind, args.as_slice()) {
        ("ring", [n]) => ring(int(n)?, seed),
        ("path", [n]) => path(int(n)?, seed),
        ("star", [n]) => star(int(n)?, seed),
        ("complete", [n]) => complete(int(n)?, seed),
        ("bintree", [n]) => binary_tree(int(n)?, seed),
        ("grid", [dims]) => {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| format!("grid spec '{dims}' must look like 4x8"))?;
            grid(int(r)?, int(c)?, seed)
        }
        ("random", [n, p]) => {
            // lint:allow(determinism) -- parsing the random:N:P probability operand, a generator input
            let p: f64 = p
                .parse()
                .map_err(|_| format!("'{p}' is not a probability"))?;
            random_connected(int(n)?, p, seed)
        }
        ("barbell", [k, b]) => barbell(int(k)?, int(b)?, seed),
        ("caterpillar", [s, l]) => caterpillar(int(s)?, int(l)?, seed),
        ("scale", [n, c]) => chorded_cycle(int(n)?, int(c)?, seed),
        _ => {
            return Err(format!(
                "unknown graph spec '{spec}' (expected ring:N, path:N, star:N, \
                 complete:N, bintree:N, grid:RxC, random:N:P, barbell:K:B, \
                 caterpillar:S:L, or scale:N:C)"
            ))
        }
    };
    graph.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn weight_span_saturates_instead_of_wrapping() {
        assert_eq!(weight_span(2), 1 << 16);
        assert_eq!(weight_span(1000), 64_000_000_000);
        assert_eq!(weight_span(660_000), 660_000u64.pow(3) * 64);
        assert_eq!(weight_span(1 << 20), u64::MAX);
        assert_eq!(weight_span(1 << 32), u64::MAX);
    }

    #[test]
    fn sizes_beyond_u32_csr_capacity_are_refused_before_allocating() {
        let big = u32::MAX as usize + 2;
        for (spec, graph) in [
            ("ring", ring(big, 1)),
            ("path", path(big, 1)),
            ("star", star(big, 1)),
            ("complete", complete(70_000, 1)),
            ("grid", grid(1 << 16, 1 << 16, 1)),
            ("grid overflow", grid(usize::MAX, 3, 1)),
            ("bintree", binary_tree(big, 1)),
            ("caterpillar", caterpillar(1 << 16, 1 << 16, 1)),
            ("barbell", barbell(70_000, 0, 1)),
            ("chorded cycle", chorded_cycle(big, 2, 1)),
            ("chorded cycle edges", chorded_cycle(1 << 30, 2, 1)),
        ] {
            assert!(
                matches!(graph, Err(GraphError::InvalidSize { .. })),
                "{spec}: {:?}",
                graph.map(|g| g.node_count())
            );
        }
        let err = from_spec("ring:4294967297", 1).unwrap_err();
        assert!(err.contains("u32"), "{err}");
    }

    #[test]
    fn distinct_weights_are_distinct_and_in_range() {
        let w = distinct_weights(100, 1000, 3).unwrap();
        assert_eq!(w.len(), 100);
        let set: HashSet<u64> = w.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!(w.iter().all(|&x| (1..=1000).contains(&x)));
    }

    #[test]
    fn distinct_weights_rejects_tiny_span() {
        assert!(distinct_weights(10, 5, 0).is_err());
    }

    #[test]
    fn from_spec_builds_every_family_and_matches_direct_calls() {
        for spec in [
            "ring:12",
            "path:9",
            "star:7",
            "complete:6",
            "bintree:15",
            "grid:3x4",
            "random:14:0.2",
            "barbell:4:2",
            "caterpillar:4:2",
            "scale:64:3",
        ] {
            let g = from_spec(spec, 1).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(g.node_count() > 0, "{spec}");
        }
        // The spec path is the direct generator call, bit for bit.
        assert_eq!(from_spec("ring:16", 7).unwrap(), ring(16, 7).unwrap());
        assert_eq!(
            from_spec("random:14:0.2", 3).unwrap(),
            random_connected(14, 0.2, 3).unwrap()
        );
    }

    #[test]
    fn from_spec_rejects_malformed_specs() {
        assert!(from_spec("ring:2", 0).is_err());
        assert!(from_spec("mystery:3", 0).is_err());
        assert!(from_spec("grid:3", 0).is_err());
        assert!(from_spec("random:5:nope", 0).is_err());
        assert!(from_spec("ring:8 ", 0).is_err(), "no whitespace tolerance");
        assert!(from_spec("", 0).unwrap_err().contains("unknown graph spec"));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(ring(16, 9).unwrap(), ring(16, 9).unwrap());
        assert_eq!(
            random_connected(20, 0.3, 4).unwrap(),
            random_connected(20, 0.3, 4).unwrap()
        );
        assert_ne!(ring(16, 9).unwrap(), ring(16, 10).unwrap());
    }

    #[test]
    fn ring_shape() {
        let g = ring(10, 0).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(traversal::is_connected(&g));
        assert!(ring(2, 0).is_err());
    }

    #[test]
    fn path_shape() {
        let g = path(10, 0).unwrap();
        assert_eq!(g.edge_count(), 9);
        assert!(traversal::is_connected(&g));
        let g = path(1, 0).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(path(0, 0).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(10, 0).unwrap();
        assert_eq!(g.degree(crate::NodeId::new(0)), 9);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn complete_shape() {
        let g = complete(7, 0).unwrap();
        assert_eq!(g.edge_count(), 21);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, 0).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert!(traversal::is_connected(&g));
        assert!(grid(0, 4, 0).is_err());
    }

    #[test]
    fn random_connected_is_connected_at_p_zero() {
        for seed in 0..5 {
            let g = random_connected(30, 0.0, seed).unwrap();
            assert!(traversal::is_connected(&g));
            assert_eq!(g.edge_count(), 29, "p=0 yields exactly a tree");
        }
    }

    #[test]
    fn random_connected_densifies_with_p() {
        let sparse = random_connected(40, 0.0, 1).unwrap();
        let dense = random_connected(40, 0.5, 1).unwrap();
        assert!(dense.edge_count() > sparse.edge_count());
        assert!(traversal::is_connected(&dense));
    }

    #[test]
    fn random_connected_rejects_bad_p() {
        assert!(random_connected(10, -0.1, 0).is_err());
        assert!(random_connected(10, 1.5, 0).is_err());
    }

    #[test]
    fn with_id_space_remaps_ids() {
        let g = ring(8, 0).unwrap();
        let g = with_id_space(g, 1000, 5).unwrap();
        let ids: Vec<u64> = g.nodes().map(|v| g.external_id(v)).collect();
        let set: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(set.len(), 8);
        assert!(ids.iter().all(|&id| (1..=1000).contains(&id)));
        assert!(with_id_space(ring(8, 0).unwrap(), 4, 0).is_err());
    }

    #[test]
    fn single_node_star_and_path() {
        assert_eq!(star(1, 0).unwrap().edge_count(), 0);
        assert_eq!(complete(1, 0).unwrap().edge_count(), 0);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15, 0).unwrap();
        assert_eq!(g.edge_count(), 14);
        assert!(traversal::is_connected(&g));
        // A perfect binary tree on 15 nodes has depth 3.
        assert_eq!(traversal::eccentricity(&g, crate::NodeId::new(0)), Some(3));
        assert!(binary_tree(0, 0).is_err());
        assert_eq!(binary_tree(1, 0).unwrap().edge_count(), 0);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3, 0).unwrap();
        assert_eq!(g.node_count(), 5 + 15);
        assert_eq!(g.edge_count(), 4 + 15);
        assert!(traversal::is_connected(&g));
        // Spine nodes have degree legs + path neighbors; leaves degree 1.
        assert_eq!(g.degree(crate::NodeId::new(0)), 1 + 3);
        assert_eq!(g.degree(crate::NodeId::new(2)), 2 + 3);
        assert_eq!(g.degree(crate::NodeId::new(5)), 1);
        assert!(caterpillar(0, 3, 0).is_err());
    }

    #[test]
    fn chorded_cycle_shape_and_distinct_weights() {
        let g = chorded_cycle(64, 3, 7).unwrap();
        assert_eq!(g.node_count(), 64);
        assert_eq!(g.edge_count(), 64 * 4);
        assert!(traversal::is_connected(&g));
        // The streaming path skips dedup validation, so distinctness is
        // re-proved here: pairs and weights must be pairwise unique.
        let mut pairs = HashSet::new();
        let mut weights = HashSet::new();
        for e in g.edges() {
            assert!(pairs.insert((e.u, e.v)), "duplicate pair {:?}", (e.u, e.v));
            assert!(weights.insert(e.weight), "duplicate weight {}", e.weight);
            assert!(e.weight >= 1 && e.weight <= 2 * g.edge_count() as u64);
        }
        // Each node: 2 cycle ports + `chords` outgoing + incoming chords.
        let total_degree: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(total_degree, 2 * g.edge_count());
    }

    #[test]
    fn chorded_cycle_is_deterministic_and_seed_sensitive() {
        assert_eq!(
            chorded_cycle(40, 2, 5).unwrap(),
            chorded_cycle(40, 2, 5).unwrap()
        );
        assert_ne!(
            chorded_cycle(40, 2, 5).unwrap(),
            chorded_cycle(40, 2, 6).unwrap()
        );
        // Plain cycle when chords = 0.
        let g = chorded_cycle(9, 0, 1).unwrap();
        assert_eq!(g.edge_count(), 9);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn chorded_cycle_footprint_is_pinned_and_within_budget() {
        // Exact CSR footprint for the c = 2 chorded cycle (m = 3n): edges
        // at 16 B, 2m port entries at 24 B, n + 1 offsets at 4 B, n
        // external ids at 8 B. The pin catches any layout change; the
        // 256 B/node budget is the scale campaign's memory ceiling.
        let n = 1usize << 16;
        let g = chorded_cycle(n, 2, 1).unwrap();
        assert_eq!(g.memory_bytes(), 13_369_348);
        let bytes_per_node = g.memory_bytes() as f64 / n as f64;
        assert!(
            bytes_per_node <= 256.0,
            "{bytes_per_node:.1} bytes/node exceeds the 256 B budget"
        );
    }

    #[test]
    fn chorded_cycle_rejects_bad_sizes() {
        assert!(chorded_cycle(4, 0, 0).is_err());
        // n = 11: gaps 2..=5 are available, so at most 4 chords per node.
        assert!(chorded_cycle(11, 4, 0).is_ok());
        assert!(chorded_cycle(11, 5, 0).is_err());
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2, 0).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 4 * 3 + 3);
        assert!(traversal::is_connected(&g));
        // Bridge interior nodes have degree 2.
        assert_eq!(g.degree(crate::NodeId::new(4)), 2);
        assert!(barbell(1, 0, 0).is_err());
        // Zero-length bridge joins the cliques directly.
        let g = barbell(3, 0, 1).unwrap();
        assert_eq!(g.node_count(), 6);
        assert!(traversal::is_connected(&g));
    }
}
