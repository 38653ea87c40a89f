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

/// Compute the *latency-optimal* B-dominating path from `src` to `dst`
/// under a [`crate::LatencyModel`] — Dijkstra over the dominated edge
/// set. This is what a QoS brokerage would actually install when the SLA
/// is a latency bound rather than a hop budget.
///
/// Returns `None` when no dominating path exists.
pub fn stitch_path_weighted(
    g: &Graph,
    brokers: &NodeSet,
    latency: &crate::LatencyModel,
    src: NodeId,
    dst: NodeId,
) -> Option<StitchedPath> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    if src == dst {
        return Some(mk(brokers, vec![src]));
    }
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    // Min-heap entries ordered by (latency, node) with reversed compare.
    struct Entry(f64, NodeId);
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0 && self.1 == other.1
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // total_cmp keeps the ordering total even for NaN latencies.
            other
                .0
                .total_cmp(&self.0)
                .then_with(|| other.1.cmp(&self.1))
        }
    }
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    parent[src.index()] = Some(src);
    heap.push(Entry(0.0, src));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        if u == dst {
            break;
        }
        let u_broker = brokers.contains(u);
        for &v in g.neighbors(u) {
            if !u_broker && !brokers.contains(v) {
                continue;
            }
            let Some(w) = latency.edge_latency(u, v) else {
                debug_assert!(false, "graph edge {u:?}-{v:?} is not priced");
                continue;
            };
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                parent[v.index()] = Some(u);
                heap.push(Entry(nd, v));
            }
        }
    }
    let path = netgraph::traverse::path_from_parents(&parent, src, dst)?;
    Some(mk(brokers, path))
}

/// Materialize a [`brokerset::StitchAnswer`] from the query plane into
/// the concrete installed route: shortest dominated paths `src → broker`
/// and `broker → dst`, concatenated at the broker.
///
/// Because an optimal answer's broker lies on a shortest dominated
/// path (`hops_s + hops_t` equals the dominated distance), the
/// concatenation is itself a shortest dominated path. Returns `None`
/// when either leg is missing or its length disagrees with the answer —
/// i.e. the answer is stale for this graph/broker set.
pub fn stitch_answer_path(
    g: &Graph,
    brokers: &NodeSet,
    src: NodeId,
    dst: NodeId,
    answer: &brokerset::StitchAnswer,
) -> Option<StitchedPath> {
    if src == dst {
        return (answer.hops() == 0).then(|| mk(brokers, vec![src]));
    }
    let view = DominatedView::new(g, brokers);
    let to_broker = shortest_on(view, brokers, src, answer.broker)?.path;
    let from_broker = shortest_on(view, brokers, answer.broker, dst)?.path;
    if to_broker.len() != answer.hops_s as usize + 1
        || from_broker.len() != answer.hops_t as usize + 1
    {
        return None;
    }
    let mut path = to_broker;
    path.extend_from_slice(&from_broker[1..]);
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

    #[test]
    fn index_answers_materialize_to_shortest_paths() {
        use brokerset::ReachIndex;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = netgraph::barabasi_albert(70, 2, &mut rng);
        let sel = brokerset::greedy_mcb(&g, 7);
        let b = sel.brokers();
        let idx = ReachIndex::build(&g, b, 6, 1);
        let mut materialized = 0usize;
        for (s, t) in [(0u32, 40u32), (3, 55), (10, 61), (5, 5), (20, 33)] {
            let (s, t) = (NodeId(s), NodeId(t));
            match idx.query(s, t, 6) {
                Some(ans) => {
                    let p = stitch_answer_path(&g, b, s, t, &ans).expect("answer materializes");
                    assert_eq!(p.hops() as u32, ans.hops());
                    let direct = stitch_path(&g, b, s, t).unwrap();
                    assert_eq!(p.hops(), direct.hops(), "not a shortest dominated path");
                    if s != t {
                        assert!(is_dominating_path(&g, b, &p.path));
                    }
                    materialized += 1;
                }
                None => {
                    assert!(stitch_path(&g, b, s, t).is_none_or(|p| p.hops() > 6));
                }
            }
        }
        assert!(materialized >= 3);

        // A stale answer (split that disagrees with the topology) is
        // refused rather than materialized into a wrong-length route.
        let ans = idx.query(NodeId(0), NodeId(40), 6).unwrap();
        let stale = brokerset::StitchAnswer {
            hops_s: ans.hops_s + 1,
            ..ans
        };
        assert!(stitch_answer_path(&g, b, NodeId(0), NodeId(40), &stale).is_none());
    }

    #[test]
    fn weighted_stitch_minimizes_latency() {
        use crate::LatencyModel;
        use topology::{InternetConfig, Scale};
        let net = InternetConfig::scaled(Scale::Tiny).generate(13);
        let g = net.graph();
        let latency = LatencyModel::sample(&net, 2);
        let sel = brokerset::max_subgraph_greedy(g, 75);
        let brokers = sel.brokers();
        let mut improved = 0usize;
        let mut compared = 0usize;
        for (u, v) in [(0u32, 500u32), (3, 900), (17, 701), (42, 1000), (8, 650)] {
            let (u, v) = (NodeId(u), NodeId(v));
            let hops = stitch_path(g, brokers, u, v);
            let fast = stitch_path_weighted(g, brokers, &latency, u, v);
            match (hops, fast) {
                (Some(h), Some(f)) => {
                    compared += 1;
                    let lh = latency.path_latency(&h.path).unwrap();
                    let lf = latency.path_latency(&f.path).unwrap();
                    assert!(
                        lf <= lh + 1e-9,
                        "weighted stitch slower: {lf} vs hop-based {lh}"
                    );
                    if lf < lh - 1e-9 {
                        improved += 1;
                    }
                    assert!(brokerset::connectivity::is_dominating_path(
                        g, brokers, &f.path
                    ));
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "reachability must agree"),
            }
        }
        assert!(compared >= 3);
        let _ = improved; // usually > 0, but not guaranteed per seed
    }

    #[test]
    fn weighted_stitch_self_and_unreachable() {
        use crate::LatencyModel;
        use topology::{InternetConfig, Scale};
        let net = InternetConfig::scaled(Scale::Tiny).generate(13);
        let g = net.graph();
        let latency = LatencyModel::sample(&net, 2);
        let none = NodeSet::new(g.node_count());
        assert!(stitch_path_weighted(g, &none, &latency, NodeId(0), NodeId(1)).is_none());
        let p = stitch_path_weighted(g, &none, &latency, NodeId(5), NodeId(5)).unwrap();
        assert_eq!(p.path, vec![NodeId(5)]);
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
