//! Epochal topology deltas: serializable graph edits and their
//! application.
//!
//! The CSR [`Graph`] is immutable by design — every evaluation in the
//! workspace assumes a frozen adjacency. Topology *evolution* (IXP
//! births, new memberships, AS births and deaths) therefore enters the
//! engine as data: a [`GraphDelta`] is one epoch's worth of edits,
//! normalized and serializable, and [`Graph::apply_delta`] applies it
//! by rebuild-with-diff. That produces a fresh CSR graph with **stable
//! vertex ids**: new vertices are appended after the existing id range
//! and removed vertices are tombstoned in place (they keep their id but
//! lose every incident edge), so broker sets, fault schedules and
//! per-node arrays indexed against the old graph stay meaningful
//! against the new one.
//!
//! Application order within a delta is fixed: grow the vertex set, add
//! edges, remove edges, then remove vertices. An edge both added and
//! removed in the same delta is therefore removed, and an edge added to
//! a vertex removed in the same delta does not survive.

use crate::graph::{undirected_key, Graph, GraphBuilder, NodeId};
use crate::validate::{AuditReport, Validate};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One epoch's worth of graph edits against a base graph with
/// `base_nodes` vertices.
///
/// ```
/// use netgraph::{graph::from_edges, GraphDelta, NodeId};
///
/// let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
/// let mut d = GraphDelta::new(3);
/// let w = d.add_node();              // NodeId(3), appended after the range
/// d.add_edge(NodeId(0), w);
/// d.remove_edge(NodeId(1), NodeId(2));
/// let g2 = g.apply_delta(&d);
/// assert_eq!(g2.node_count(), 4);
/// assert!(g2.has_edge(NodeId(0), NodeId(3)));
/// assert!(!g2.has_edge(NodeId(1), NodeId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Vertex count of the graph this delta applies to.
    base_nodes: usize,
    /// Fresh vertices appended after the base range
    /// (`base_nodes .. base_nodes + new_nodes`).
    new_nodes: usize,
    /// Edges to add, keys normalized per [`undirected_key`].
    added_edges: Vec<(u32, u32)>,
    /// Edges to cut, keys normalized per [`undirected_key`].
    removed_edges: Vec<(u32, u32)>,
    /// Vertices tombstoned in place: the id survives, every incident
    /// edge is dropped.
    removed_nodes: Vec<NodeId>,
}

impl GraphDelta {
    /// An empty delta against a graph with `base_nodes` vertices.
    pub fn new(base_nodes: usize) -> Self {
        GraphDelta {
            base_nodes,
            new_nodes: 0,
            added_edges: Vec::new(),
            removed_edges: Vec::new(),
            removed_nodes: Vec::new(),
        }
    }

    /// Vertex count of the graph this delta applies to.
    pub fn base_nodes(&self) -> usize {
        self.base_nodes
    }

    /// Vertex count after application (`base_nodes + new_nodes`; removed
    /// vertices are tombstoned, never compacted away).
    pub fn node_count_after(&self) -> usize {
        self.base_nodes + self.new_nodes
    }

    /// Append a fresh vertex; returns its (stable) id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from(self.base_nodes + self.new_nodes);
        self.new_nodes += 1;
        id
    }

    /// Record an edge addition. Self-loops are ignored, matching
    /// [`GraphBuilder::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is outside `0..node_count_after()`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        self.check_range(u);
        self.check_range(v);
        self.added_edges.push(undirected_key(u, v));
    }

    /// Record an edge removal (a no-op at application time if the edge
    /// does not exist).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is outside `0..node_count_after()`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        self.check_range(u);
        self.check_range(v);
        self.removed_edges.push(undirected_key(u, v));
    }

    /// Tombstone vertex `v`: it keeps its id but loses every incident
    /// edge (present and added-this-delta alike).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `0..node_count_after()`.
    pub fn remove_node(&mut self, v: NodeId) {
        self.check_range(v);
        self.removed_nodes.push(v);
    }

    /// Edges added, normalized keys, insertion order.
    pub fn added_edges(&self) -> &[(u32, u32)] {
        &self.added_edges
    }

    /// Edges removed, normalized keys, insertion order.
    pub fn removed_edges(&self) -> &[(u32, u32)] {
        &self.removed_edges
    }

    /// Vertices tombstoned by this delta.
    pub fn removed_nodes(&self) -> &[NodeId] {
        &self.removed_nodes
    }

    /// Whether the delta edits nothing.
    pub fn is_empty(&self) -> bool {
        self.new_nodes == 0
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_nodes.is_empty()
    }

    /// Total edit operations recorded (node births count once each).
    pub fn op_count(&self) -> usize {
        self.new_nodes
            + self.added_edges.len()
            + self.removed_edges.len()
            + self.removed_nodes.len()
    }

    fn check_range(&self, v: NodeId) {
        assert!(
            v.index() < self.node_count_after(),
            "{v} outside 0..{} (base {} + {} new)",
            self.node_count_after(),
            self.base_nodes,
            self.new_nodes
        );
    }
}

impl Validate for GraphDelta {
    /// Re-derive the constructor contract on the stored edit lists: edge
    /// keys strictly normalized (`a < b`, so no self-loops survive) and
    /// every referenced vertex inside `0..node_count_after()`.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("netgraph::GraphDelta");
        let n = self.node_count_after() as u32;
        let keys_ok = |edges: &[(u32, u32)]| edges.iter().all(|&(a, b)| a < b && b < n);
        rep.check(
            "delta.added-keys-normalized",
            keys_ok(&self.added_edges),
            || "an added edge key is not strictly (min, max) in range".into(),
        );
        rep.check(
            "delta.removed-keys-normalized",
            keys_ok(&self.removed_edges),
            || "a removed edge key is not strictly (min, max) in range".into(),
        );
        rep.check(
            "delta.removed-nodes-in-range",
            self.removed_nodes.iter().all(|&v| v.0 < n),
            || "a tombstoned vertex is outside the post-delta range".into(),
        );
        rep
    }
}

impl Graph {
    /// Apply `delta`, producing a fresh CSR graph with stable vertex
    /// ids: new vertices appended, removed vertices tombstoned in place
    /// (id kept, adjacency emptied).
    ///
    /// # Panics
    ///
    /// Panics if `delta.base_nodes()` disagrees with this graph's vertex
    /// count.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Graph {
        assert_eq!(
            self.node_count(),
            delta.base_nodes(),
            "delta was built against a {}-vertex graph",
            delta.base_nodes()
        );
        let n2 = delta.node_count_after();
        let cut: BTreeSet<(u32, u32)> = delta.removed_edges.iter().copied().collect();
        let mut dead = crate::NodeSet::new(n2);
        for &v in &delta.removed_nodes {
            dead.insert(v);
        }
        let keep = |u: NodeId, v: NodeId| {
            !dead.contains(u) && !dead.contains(v) && !cut.contains(&undirected_key(u, v))
        };
        let mut b = GraphBuilder::with_capacity(n2, self.edge_count() + delta.added_edges.len());
        for (u, v) in self.edges() {
            if keep(u, v) {
                b.add_edge(u, v);
            }
        }
        for &(a, z) in &delta.added_edges {
            let (u, v) = (NodeId(a), NodeId(z));
            if keep(u, v) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    fn path5() -> Graph {
        from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    #[test]
    fn apply_grows_and_edits() {
        let g = path5();
        let mut d = GraphDelta::new(5);
        let w = d.add_node();
        assert_eq!(w, NodeId(5));
        d.add_edge(NodeId(0), w);
        d.remove_edge(NodeId(2), NodeId(3));
        let g2 = g.apply_delta(&d);
        assert_eq!(g2.node_count(), 6);
        assert_eq!(g2.edge_count(), 4); // 4 - 1 + 1
        assert!(g2.has_edge(NodeId(0), NodeId(5)));
        assert!(!g2.has_edge(NodeId(2), NodeId(3)));
        assert!(g2.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn tombstone_keeps_id_drops_adjacency() {
        let g = path5();
        let mut d = GraphDelta::new(5);
        d.remove_node(NodeId(2));
        d.add_edge(NodeId(2), NodeId(4)); // added to a dead vertex: dropped
        let g2 = g.apply_delta(&d);
        assert_eq!(g2.node_count(), 5, "ids stay stable");
        assert_eq!(g2.degree(NodeId(2)), 0);
        assert!(!g2.has_edge(NodeId(1), NodeId(2)));
        assert!(g2.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn add_then_remove_same_edge_removes() {
        let g = path5();
        let mut d = GraphDelta::new(5);
        d.add_edge(NodeId(0), NodeId(4));
        d.remove_edge(NodeId(4), NodeId(0)); // normalized to the same key
        let g2 = g.apply_delta(&d);
        assert!(!g2.has_edge(NodeId(0), NodeId(4)));
    }

    #[test]
    fn duplicate_add_of_existing_edge_is_noop() {
        let g = path5();
        let mut d = GraphDelta::new(5);
        d.add_edge(NodeId(0), NodeId(1));
        d.add_edge(NodeId(1), NodeId(0));
        let g2 = g.apply_delta(&d);
        assert_eq!(g2.edge_count(), g.edge_count());
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = path5();
        let d = GraphDelta::new(5);
        assert!(d.is_empty());
        assert_eq!(d.op_count(), 0);
        assert_eq!(g.apply_delta(&d), g);
    }

    #[test]
    fn audit_accepts_and_detects_corruption() {
        let mut d = GraphDelta::new(4);
        d.add_node();
        d.add_edge(NodeId(0), NodeId(4));
        d.remove_edge(NodeId(1), NodeId(2));
        d.remove_node(NodeId(3));
        assert!(d.audit().is_ok());

        let mut bad = d.clone();
        bad.added_edges.push((3, 1)); // reversed key
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "delta.added-keys-normalized"));

        let mut bad = d.clone();
        bad.removed_edges.push((2, 2)); // self-loop key
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "delta.removed-keys-normalized"));

        let mut bad = d;
        bad.removed_nodes.push(NodeId(99));
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "delta.removed-nodes-in-range"));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_edge_rejected() {
        let mut d = GraphDelta::new(3);
        d.add_edge(NodeId(0), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "delta was built against")]
    fn base_mismatch_rejected() {
        let g = path5();
        let d = GraphDelta::new(4);
        let _ = g.apply_delta(&d);
    }

    #[test]
    fn serde_round_trip_is_bit_identical() {
        let mut d = GraphDelta::new(6);
        d.add_node();
        d.add_edge(NodeId(6), NodeId(0));
        d.remove_edge(NodeId(1), NodeId(2));
        d.remove_node(NodeId(5));
        let json = serde_json::to_string(&d).expect("serialize");
        let back: GraphDelta = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, d);
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
    }
}
