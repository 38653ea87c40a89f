//! Graph views: zero-cost edge/neighbor filtering for the traversal engine.
//!
//! Every evaluation in the paper is a traversal over a *masked* variant of
//! one underlying topology: the dominated edge set `E_B` for l-hop
//! connectivity (Section 5.2), failure-masked edges for resilience, and
//! direction-constrained state graphs for valley-free routing. A
//! [`GraphView`] abstracts "some graph-shaped thing with filtered
//! adjacency" so each traversal algorithm is written once in
//! [`crate::traverse`] and instantiated per view with no dynamic dispatch:
//! the visitor closure is monomorphized and the filter inlines into the
//! BFS loop.
//!
//! Concrete views over a CSR [`Graph`]:
//!
//! - [`FullView`] — the unfiltered graph.
//! - [`DominatedView`] — an edge survives iff at least one endpoint is a
//!   broker (`E_B = {(u, v) ∈ E : u ∈ B ∨ v ∈ B}`).
//! - [`MaskedView`] — any inner view minus failed vertices and/or failed
//!   (undirected) edges; composes, e.g. `MaskedView` over `DominatedView`
//!   for failover planning and for the fault epochs of a
//!   [`crate::FaultSchedule`].
//!
//! Downstream crates implement [`GraphView`] for their own state spaces —
//! the routing crate's valley-free reachability runs the same engine over
//! a `(vertex, phase)` product graph of `2n` states.

use crate::{Graph, NodeId, NodeSet};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// A graph-shaped adjacency structure the traversal engine can walk.
///
/// Vertices are dense `NodeId`s in `0..node_count()`. Implementations
/// expose adjacency through one internal-iteration visitor that the
/// caller can stop early, so filters compile down to branches inside the
/// caller's loop (no iterator adapters, no allocation).
pub trait GraphView {
    /// Number of vertices (states) in the view.
    fn node_count(&self) -> usize;

    /// Invoke `visit` for every neighbor `v` of `u` that survives the
    /// view's filter, stopping at the first [`ControlFlow::Break`], which
    /// is returned. Neighbors are visited in the underlying adjacency
    /// order, which is what makes engine traversals deterministic.
    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// Invoke `visit` for every neighbor of `u`:
    /// [`try_for_each_neighbor`](GraphView::try_for_each_neighbor) that
    /// never stops.
    #[inline]
    fn for_each_neighbor(&self, u: NodeId, mut visit: impl FnMut(NodeId)) {
        let _ = self.try_for_each_neighbor(u, |v| {
            visit(v);
            ControlFlow::Continue(())
        });
    }

    /// Whether `v` exists in the view at all (vertex-level masks).
    ///
    /// Traversals check this for their sources; edge enumeration is
    /// expected to already respect it.
    fn contains_node(&self, v: NodeId) -> bool {
        let _ = v;
        true
    }

    /// Whether adjacency is symmetric: `v ∈ neighbors(u)` iff
    /// `u ∈ neighbors(v)`, so [`for_each_neighbor`] enumerates the
    /// in-neighbors as well as the out-neighbors of its argument.
    ///
    /// Bottom-up (pull) frontier expansion in [`crate::msbfs`] gathers a
    /// vertex's *incoming* wavefront by scanning its neighbor list, which
    /// is only correct under this guarantee. Views over directed state
    /// graphs (e.g. the routing crate's valley-free product graph) must
    /// keep the default `false`; the kernel then stays top-down, which is
    /// always correct.
    ///
    /// [`for_each_neighbor`]: GraphView::for_each_neighbor
    fn is_symmetric(&self) -> bool {
        false
    }
}

impl<V: GraphView> GraphView for &V {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).try_for_each_neighbor(u, visit)
    }

    fn contains_node(&self, v: NodeId) -> bool {
        (**self).contains_node(v)
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
}

/// The unfiltered graph as a [`GraphView`].
#[derive(Debug, Clone, Copy)]
pub struct FullView<'g> {
    g: &'g Graph,
}

impl<'g> FullView<'g> {
    /// View the whole of `g`.
    pub fn new(g: &'g Graph) -> Self {
        FullView { g }
    }
}

impl GraphView for FullView<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    #[inline]
    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &v in self.g.neighbors(u) {
            visit(v)?;
        }
        ControlFlow::Continue(())
    }

    fn is_symmetric(&self) -> bool {
        true // the CSR graph stores undirected edges in both rows
    }
}

/// The dominated edge set `E_B`: an edge survives iff at least one
/// endpoint is in the broker set `B`. Paths in this view are exactly the
/// paper's B-dominating paths (Section 5.2).
#[derive(Debug, Clone, Copy)]
pub struct DominatedView<'a> {
    g: &'a Graph,
    brokers: &'a NodeSet,
}

impl<'a> DominatedView<'a> {
    /// View `g` restricted to edges dominated by `brokers`.
    pub fn new(g: &'a Graph, brokers: &'a NodeSet) -> Self {
        DominatedView { g, brokers }
    }
}

impl GraphView for DominatedView<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    #[inline]
    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let u_is_broker = self.brokers.contains(u);
        for &v in self.g.neighbors(u) {
            if u_is_broker || self.brokers.contains(v) {
                visit(v)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn is_symmetric(&self) -> bool {
        true // `u ∈ B ∨ v ∈ B` is symmetric in (u, v)
    }
}

/// An inner view minus failed vertices and/or failed undirected edges
/// (keys from [`crate::undirected_key`]). Used for resilience sweeps,
/// edge-disjoint failover planning and fault epochs: a
/// [`crate::FaultState`] masks through
/// `MaskedView::new(inner, Some(state.failed_nodes()), Some(state.failed_edges()))`.
#[derive(Debug, Clone, Copy)]
pub struct MaskedView<'a, V> {
    inner: V,
    failed_nodes: Option<&'a NodeSet>,
    failed_edges: Option<&'a BTreeSet<(u32, u32)>>,
}

impl<'a, V: GraphView> MaskedView<'a, V> {
    /// Mask `inner` by removed vertices and/or removed undirected edges.
    pub fn new(
        inner: V,
        failed_nodes: Option<&'a NodeSet>,
        failed_edges: Option<&'a BTreeSet<(u32, u32)>>,
    ) -> Self {
        MaskedView {
            inner,
            failed_nodes,
            failed_edges,
        }
    }

    /// Mask `inner` by removed undirected edges only.
    pub fn without_edges(inner: V, failed_edges: &'a BTreeSet<(u32, u32)>) -> Self {
        MaskedView::new(inner, None, Some(failed_edges))
    }
}

impl<V: GraphView> GraphView for MaskedView<'_, V> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    #[inline]
    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.failed_nodes.is_some_and(|f| f.contains(u)) {
            return ControlFlow::Continue(());
        }
        // An empty cut set skips the per-edge lookup entirely.
        let failed_edges = self.failed_edges.filter(|f| !f.is_empty());
        self.inner.try_for_each_neighbor(u, |v| {
            if self.failed_nodes.is_some_and(|f| f.contains(v)) {
                return ControlFlow::Continue(());
            }
            if failed_edges.is_some_and(|f| f.contains(&crate::undirected_key(u, v))) {
                return ControlFlow::Continue(());
            }
            visit(v)
        })
    }

    #[inline]
    fn contains_node(&self, v: NodeId) -> bool {
        self.inner.contains_node(v) && !self.failed_nodes.is_some_and(|f| f.contains(v))
    }

    fn is_symmetric(&self) -> bool {
        // Node and undirected-edge masks preserve symmetry, so the mask
        // is exactly as symmetric as what it wraps.
        self.inner.is_symmetric()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    fn collect<V: GraphView>(view: &V, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        view.for_each_neighbor(u, |v| out.push(v));
        out
    }

    fn diamond() -> Graph {
        // 0-1, 1-2, 2-3, 3-0: a 4-cycle.
        from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|(a, b)| (NodeId(a), NodeId(b))),
        )
    }

    #[test]
    fn full_view_is_transparent() {
        let g = diamond();
        let view = FullView::new(&g);
        assert_eq!(view.node_count(), 4);
        assert_eq!(collect(&view, NodeId(0)), g.neighbors(NodeId(0)).to_vec());
        assert!(view.contains_node(NodeId(3)));
    }

    #[test]
    fn dominated_view_drops_unbrokered_edges() {
        let g = diamond();
        let brokers = NodeSet::from_iter_with_capacity(4, [NodeId(1)]);
        let view = DominatedView::new(&g, &brokers);
        // 0's edges: 0-1 dominated (broker 1), 0-3 not.
        assert_eq!(collect(&view, NodeId(0)), vec![NodeId(1)]);
        // 1 is a broker: both its edges survive.
        assert_eq!(collect(&view, NodeId(1)).len(), 2);
        // 3's edges: 3-2 and 3-0 both undominated.
        assert!(collect(&view, NodeId(3)).is_empty());
    }

    #[test]
    fn masked_view_removes_nodes_and_edges() {
        let g = diamond();
        let mut failed_nodes = NodeSet::new(4);
        failed_nodes.insert(NodeId(2));
        let mut failed_edges = BTreeSet::new();
        failed_edges.insert(crate::undirected_key(NodeId(0), NodeId(1)));
        let view = MaskedView::new(FullView::new(&g), Some(&failed_nodes), Some(&failed_edges));
        // 0: edge to 1 failed, neighbor 3 fine.
        assert_eq!(collect(&view, NodeId(0)), vec![NodeId(3)]);
        // 1: neighbor 0 via failed edge, neighbor 2 is a failed node.
        assert!(collect(&view, NodeId(1)).is_empty());
        // Failed source enumerates nothing.
        assert!(collect(&view, NodeId(2)).is_empty());
        assert!(!view.contains_node(NodeId(2)));
    }

    #[test]
    fn masked_view_composes_with_dominated() {
        let g = diamond();
        let brokers = NodeSet::full(4);
        let mut failed_edges = BTreeSet::new();
        failed_edges.insert(crate::undirected_key(NodeId(1), NodeId(2)));
        let view = MaskedView::without_edges(DominatedView::new(&g, &brokers), &failed_edges);
        assert_eq!(collect(&view, NodeId(1)), vec![NodeId(0)]);
        assert_eq!(collect(&view, NodeId(2)), vec![NodeId(3)]);
    }

    #[test]
    fn view_by_reference_also_implements() {
        let g = diamond();
        let view = FullView::new(&g);
        let by_ref = &view;
        assert_eq!(by_ref.node_count(), 4);
        assert_eq!(collect(&by_ref, NodeId(0)).len(), 2);
        assert!(by_ref.contains_node(NodeId(0)));
    }
}
