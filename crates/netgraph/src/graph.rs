//! Compressed-sparse-row (CSR) undirected graph.
//!
//! The evaluation graphs in this workspace are static once built (the
//! Internet topology snapshot does not mutate while algorithms run), so we
//! trade mutability for a compact, cache-friendly adjacency layout: one
//! `offsets` array of length `n + 1` and one flat `neighbors` array of
//! length `2m`. Construction goes through [`GraphBuilder`], which
//! deduplicates parallel edges and drops self-loops.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex in a [`Graph`].
///
/// A thin newtype over the vertex index. Vertices of a graph with `n` nodes
/// are exactly `NodeId(0) .. NodeId(n - 1)`.
///
/// ```
/// use netgraph::NodeId;
/// let v = NodeId(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(NodeId::from(3usize), NodeId(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The vertex index as a `usize`, for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index overflows u32");
        NodeId(i as u32)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(i: u32) -> Self {
        NodeId(i)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable undirected graph in CSR form.
///
/// Build one with [`GraphBuilder`]. Parallel edges are coalesced and
/// self-loops are dropped at build time, so `degree(v)` counts *distinct*
/// neighbors.
///
/// ```
/// use netgraph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate, coalesced
/// b.add_edge(NodeId(1), NodeId(1)); // self-loop, dropped
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0)]);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v] .. offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<u32>,
    /// Flat neighbor lists, each sorted ascending.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges (half the length of `neighbors`).
    edges: usize,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (parallel edges coalesced, no self-loops).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// The sorted, deduplicated neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Number of distinct neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Whether an undirected edge `{u, v}` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Average degree `2m / n`; `0.0` for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Returns the induced subgraph on `keep` together with the mapping
    /// from new ids to original ids.
    ///
    /// Vertices are renumbered `0..keep.len()` in the order given by
    /// `keep`'s set iteration (ascending original id).
    pub fn induced_subgraph(&self, keep: &crate::NodeSet) -> (Graph, Vec<NodeId>) {
        let old_of_new: Vec<NodeId> = keep.iter().collect();
        let mut new_of_old = vec![u32::MAX; self.node_count()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old.index()] = new as u32;
        }
        let mut b = GraphBuilder::new(old_of_new.len());
        for (new, &old) in old_of_new.iter().enumerate() {
            for &nb in self.neighbors(old) {
                let nb_new = new_of_old[nb.index()];
                if nb_new != u32::MAX && (new as u32) < nb_new {
                    b.add_edge(NodeId(new as u32), NodeId(nb_new));
                }
            }
        }
        (b.build(), old_of_new)
    }
}

/// Incremental builder for [`Graph`].
///
/// Edges may be added in any order and direction; `build` sorts and
/// deduplicates. Self-loops are silently dropped (the AS-level topology has
/// no meaningful self-connections).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `nodes` vertices and no edges.
    pub fn new(nodes: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Start a builder pre-sized for `edges` edge insertions.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Grow the vertex set to at least `nodes` vertices.
    pub fn grow_to(&mut self, nodes: usize) {
        self.nodes = self.nodes.max(nodes);
    }

    /// Add a fresh vertex and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from(self.nodes);
        self.nodes += 1;
        id
    }

    /// Record an undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a valid vertex.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.nodes && v.index() < self.nodes,
            "edge ({u}, {v}) references a vertex outside 0..{}",
            self.nodes
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Record many edges at once.
    fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Finalize into an immutable [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.nodes;
        let mut degrees = vec![0u32; n];
        for &(u, v) in &self.edges {
            degrees[u.index()] += 1;
            degrees[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId(0); acc as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        // Each list is already ascending for the `u -> v` halves because
        // edges were sorted, but the back-edges (`v -> u`) interleave, so
        // sort each adjacency list.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }
        let g = Graph {
            offsets,
            neighbors,
            edges: self.edges.len(),
        };
        // Full CSR re-audit at the construction boundary (debug builds
        // only; release builds skip it entirely).
        crate::validate::debug_validate(&g);
        g
    }
}

impl crate::Validate for GraphBuilder {
    /// Audit the pending edge list against the builder's insert-time
    /// contract: every recorded edge is endpoint-normalized (`a < b`, so
    /// no self-loops survive) and references vertices in `0..nodes`.
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::GraphBuilder");
        let n = self.nodes;
        let mut unnormalized = 0usize;
        let mut out_of_range = 0usize;
        for &(a, b) in &self.edges {
            if a >= b {
                unnormalized += 1;
            }
            if a.index() >= n || b.index() >= n {
                out_of_range += 1;
            }
        }
        rep.check("builder.edges-normalized", unnormalized == 0, || {
            format!("{unnormalized} edge(s) with a >= b")
        });
        rep.check("builder.edges-in-range", out_of_range == 0, || {
            format!("{out_of_range} edge(s) reference vertices outside 0..{n}")
        });
        rep
    }
}

impl Graph {
    /// Raw CSR arrays for the in-crate invariant audit
    /// ([`crate::validate`]); not part of the public surface.
    pub(crate) fn csr_parts(&self) -> (&[u32], &[NodeId], usize) {
        (&self.offsets, &self.neighbors, self.edges)
    }

    /// Assemble a graph directly from CSR arrays, bypassing the builder
    /// and all invariants — exists so the audit tests can manufacture
    /// corrupted representations.
    #[cfg(test)]
    pub(crate) fn from_csr_unchecked(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        edges: usize,
    ) -> Graph {
        Graph {
            offsets,
            neighbors,
            edges,
        }
    }
}

/// Canonical `(min, max)` key of an undirected edge — the map/set key
/// convention used across the workspace for per-edge attributes
/// (latencies, capacities, degradations).
///
/// ```
/// use netgraph::{graph::undirected_key, NodeId};
/// assert_eq!(undirected_key(NodeId(7), NodeId(2)), (2, 7));
/// assert_eq!(undirected_key(NodeId(2), NodeId(7)), (2, 7));
/// ```
#[inline]
pub fn undirected_key(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Build a graph directly from an iterator of edges over `nodes` vertices.
///
/// Convenience wrapper over [`GraphBuilder`]:
///
/// ```
/// use netgraph::graph::from_edges;
/// use netgraph::NodeId;
/// let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
/// assert_eq!(g.edge_count(), 2);
/// ```
pub fn from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(nodes: usize, edges: I) -> Graph {
    let mut b = GraphBuilder::new(nodes);
    b.extend_edges(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> (NodeId, NodeId) {
        (NodeId(a), NodeId(b))
    }

    #[test]
    fn builder_audit_accepts_and_detects_corruption() {
        use crate::Validate;
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(3), NodeId(1)); // stored normalized (1, 3)
        b.add_edge(NodeId(0), NodeId(2));
        assert!(b.audit().is_ok());
        assert!(GraphBuilder::new(0).audit().is_ok());

        // A denormalized (reversed) edge bypassing add_edge.
        let mut bad = b.clone();
        bad.edges.push((NodeId(2), NodeId(0)));
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "builder.edges-normalized"));

        // A surviving self-loop is a normalization failure too (a < b).
        let mut bad = b.clone();
        bad.edges.push((NodeId(1), NodeId(1)));
        assert!(!bad.audit().is_ok());

        // An edge referencing a vertex outside 0..nodes.
        let mut bad = b.clone();
        bad.edges.push((NodeId(1), NodeId(9)));
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "builder.edges-in-range"));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = from_edges(
            3,
            [pair(0, 1), pair(1, 0), pair(0, 1), pair(2, 2), pair(1, 2)],
        );
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.degree(NodeId(2)), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    fn degree(g: &Graph, v: u32) -> usize {
        g.degree(NodeId(v))
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = from_edges(6, [pair(3, 1), pair(3, 5), pair(3, 0), pair(3, 2)]);
        let nb: Vec<u32> = g.neighbors(NodeId(3)).iter().map(|n| n.0).collect();
        assert_eq!(nb, vec![0, 1, 2, 5]);
        assert_eq!(degree(&g, 3), 4);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = from_edges(4, [pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 0)]);
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn mean_degree_cycle() {
        let g = from_edges(4, [pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 0)]);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn add_edge_out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    fn grow_and_add_node() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, NodeId(1));
        b.grow_to(10);
        b.grow_to(4); // no shrink
        assert_eq!(b.node_count(), 10);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        // Path 0-1-2-3, keep {1, 2, 3} -> path of 3 nodes.
        let g = from_edges(4, [pair(0, 1), pair(1, 2), pair(2, 3)]);
        let mut keep = crate::NodeSet::new(4);
        keep.insert(NodeId(1));
        keep.insert(NodeId(2));
        keep.insert(NodeId(3));
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(sub.has_edge(NodeId(0), NodeId(1))); // old 1-2
        assert!(sub.has_edge(NodeId(1), NodeId(2))); // old 2-3
        assert!(!sub.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn serde_roundtrip() {
        let g = from_edges(3, [pair(0, 1), pair(1, 2)]);
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
    }
}
