//! Broker-mediated path stitching.
//!
//! Given a source, a destination and a broker set, produce the concrete
//! B-dominating path a brokerage deployment would install: shortest in
//! hops over the dominated edge set `{(u, v) : u ∈ B ∨ v ∈ B}`. The
//! result carries enough metadata (which hops are brokers, the broker
//! segments) for SLA accounting in the economics layer.

use netgraph::{with_arena, DominatedView, Graph, GraphView, NodeId, NodeSet};
use serde::{Deserialize, Serialize};

/// A concrete B-dominating path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StitchedPath {
    /// Vertices from source to destination inclusive.
    pub path: Vec<NodeId>,
    /// Indices into `path` that are brokers.
    pub broker_positions: Vec<usize>,
}

impl StitchedPath {
    /// Number of hops (edges).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Number of intermediate vertices (excluding endpoints) that are
    /// *not* brokers — the "employees" the broker set must hire in the
    /// economic model of Section 7.
    pub fn hired_employees(&self) -> usize {
        if self.path.len() <= 2 {
            return 0;
        }
        let brokers: std::collections::BTreeSet<usize> =
            self.broker_positions.iter().copied().collect();
        (1..self.path.len() - 1)
            .filter(|i| !brokers.contains(i))
            .count()
    }

    /// Whether every intermediate vertex is a broker ("carried out by the
    /// alliance solely", Fig. 5a).
    pub fn broker_only(&self) -> bool {
        self.hired_employees() == 0
    }
}

/// Compute the shortest B-dominating path from `src` to `dst`.
///
/// Returns `None` when no dominating path exists. The endpoints need not
/// be brokers (they are customers of the brokerage).
pub fn stitch_path(g: &Graph, brokers: &NodeSet, src: NodeId, dst: NodeId) -> Option<StitchedPath> {
    shortest_on(DominatedView::new(g, brokers), brokers, src, dst)
}

/// Shortest `src → dst` path over `view`, with the positions of
/// `brokers` on it: the early-exit BFS behind every hop-count path
/// search in this crate. `None` when the view excludes an endpoint or
/// `dst` is unreachable.
pub(crate) fn shortest_on<V: GraphView>(
    view: V,
    brokers: &NodeSet,
    src: NodeId,
    dst: NodeId,
) -> Option<StitchedPath> {
    if !view.contains_node(dst) {
        return None;
    }
    let path = with_arena(|arena| {
        arena.run_to_target(view, src, |v| v == dst)?;
        arena.path_to(dst)
    })?;
    Some(mk(brokers, path))
}

fn mk(brokers: &NodeSet, path: Vec<NodeId>) -> StitchedPath {
    let broker_positions = path
        .iter()
        .enumerate()
        .filter(|&(_, v)| brokers.contains(*v))
        .map(|(i, _)| i)
        .collect();
    StitchedPath {
        path,
        broker_positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brokerset::connectivity::is_dominating_path;
    use netgraph::graph::from_edges;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn stitches_through_broker() {
        // 0-1-2 with broker 1.
        let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let b = set(3, &[1]);
        let p = stitch_path(&g, &b, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(p.hops(), 2);
        assert_eq!(p.broker_positions, vec![1]);
        assert!(p.broker_only());
        assert_eq!(p.hired_employees(), 0);
    }

    #[test]
    fn refuses_undominated_route() {
        // 0-1-2-3, broker {1}: 3 unreachable.
        let g = from_edges(4, (0..3).map(|i| (NodeId(i), NodeId(i + 1))));
        let b = set(4, &[1]);
        assert!(stitch_path(&g, &b, NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn prefers_shortest_dominating_path() {
        // Short undominated route 0-4-3 vs longer dominated 0-1-2-3.
        let g = from_edges(
            5,
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let b = set(5, &[1, 2]);
        let p = stitch_path(&g, &b, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn employee_count() {
        // 0-1-2-3-4 with brokers {1, 3}: vertex 2 is a hired employee.
        let g = from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))));
        let b = set(5, &[1, 3]);
        let p = stitch_path(&g, &b, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p.hired_employees(), 1);
        assert!(!p.broker_only());
    }

    #[test]
    fn self_path() {
        let g = from_edges(2, [(NodeId(0), NodeId(1))]);
        let p = stitch_path(&g, &NodeSet::new(2), NodeId(0), NodeId(0)).unwrap();
        assert_eq!(p.path, vec![NodeId(0)]);
        assert_eq!(p.hops(), 0);
        assert!(p.broker_only());
    }

    proptest! {
        /// Any stitched path is a genuine B-dominating path, and its
        /// length matches the dominated-BFS distance.
        #[test]
        fn stitched_paths_are_dominating(seed in 0u64..80) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = netgraph::barabasi_albert(60, 2, &mut rng);
            let sel = brokerset::greedy_mcb(&g, 6);
            let b = sel.brokers();
            let src = NodeId((seed % 60) as u32);
            let dst = NodeId(((seed * 7 + 13) % 60) as u32);
            if let Some(p) = stitch_path(&g, b, src, dst) {
                if src != dst {
                    prop_assert!(is_dominating_path(&g, b, &p.path));
                }
                prop_assert_eq!(p.path.first(), Some(&src));
                prop_assert_eq!(p.path.last(), Some(&dst));
            }
        }
    }
}
