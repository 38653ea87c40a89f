//! Redundant dominating paths for failover.
//!
//! A broker set that *supervises* traffic (the paper's framing: QoS
//! measurement, control, renegotiation) needs an alternative route the
//! moment a link degrades. This module computes edge-disjoint
//! B-dominating path pairs: primary = shortest dominating path,
//! backup = shortest dominating path avoiding every edge of the primary.

use crate::stitch::{shortest_on, StitchedPath};
use netgraph::{
    undirected_key as edge_key, DominatedView, Graph, GraphView, MaskedView, NodeId, NodeSet,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A primary/backup dominating path pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverPlan {
    /// Shortest B-dominating path.
    pub primary: StitchedPath,
    /// Shortest B-dominating path edge-disjoint from the primary, when
    /// one exists.
    pub backup: Option<StitchedPath>,
}

impl FailoverPlan {
    /// Whether a disjoint backup exists.
    fn is_protected(&self) -> bool {
        self.backup.is_some()
    }
}

/// Compute a failover plan for `(src, dst)` under broker set `brokers`.
///
/// Returns `None` when not even a primary dominating path exists. The
/// backup avoids the primary's *edges* (vertices may repeat — endpoint
/// vertices necessarily do).
fn failover_plan(g: &Graph, brokers: &NodeSet, src: NodeId, dst: NodeId) -> Option<FailoverPlan> {
    plan_on(DominatedView::new(g, brokers), brokers, src, dst)
}

/// The failover construction over any view: the shortest path, plus the
/// shortest path that avoids every one of its edges. Session replay
/// runs it on the degraded topology of each epoch.
pub(crate) fn plan_on<V: GraphView + Copy>(
    view: V,
    brokers: &NodeSet,
    src: NodeId,
    dst: NodeId,
) -> Option<FailoverPlan> {
    let primary = shortest_on(view, brokers, src, dst)?;
    let forbidden: BTreeSet<(u32, u32)> = primary
        .path
        .windows(2)
        .map(|w| edge_key(w[0], w[1]))
        .collect();
    let backup = shortest_on(
        MaskedView::without_edges(view, &forbidden),
        brokers,
        src,
        dst,
    );
    Some(FailoverPlan { primary, backup })
}

/// Shortest B-dominating path from `src` to `dst` avoiding `forbidden`
/// edges.
pub fn dominated_path_avoiding(
    g: &Graph,
    brokers: &NodeSet,
    src: NodeId,
    dst: NodeId,
    forbidden: &BTreeSet<(u32, u32)>,
) -> Option<StitchedPath> {
    let view = MaskedView::without_edges(DominatedView::new(g, brokers), forbidden);
    shortest_on(view, brokers, src, dst)
}

/// Fraction of sampled connected pairs with an edge-disjoint backup —
/// the alliance's protected-traffic share.
pub fn protection_ratio(g: &Graph, brokers: &NodeSet, pairs: &[(NodeId, NodeId)]) -> f64 {
    let mut connected = 0usize;
    let mut protected = 0usize;
    for &(u, v) in pairs {
        if let Some(plan) = failover_plan(g, brokers, u, v) {
            connected += 1;
            if plan.is_protected() {
                protected += 1;
            }
        }
    }
    if connected == 0 {
        0.0
    } else {
        protected as f64 / connected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brokerset::connectivity::is_dominating_path;
    use brokerset::max_subgraph_greedy;
    use netgraph::graph::from_edges;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use topology::{InternetConfig, Scale};

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn cycle_has_disjoint_backup() {
        // 4-cycle, all brokers: two disjoint routes between opposite
        // corners.
        let g = from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let plan = failover_plan(&g, &NodeSet::full(4), NodeId(0), NodeId(2)).unwrap();
        assert!(plan.is_protected());
        let backup = plan.backup.unwrap();
        assert_eq!(plan.primary.hops(), 2);
        assert_eq!(backup.hops(), 2);
        // Edge-disjointness.
        let pe: BTreeSet<_> = plan
            .primary
            .path
            .windows(2)
            .map(|w| edge_key(w[0], w[1]))
            .collect();
        for w in backup.path.windows(2) {
            assert!(!pe.contains(&edge_key(w[0], w[1])));
        }
    }

    #[test]
    fn tree_has_no_backup() {
        let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let plan = failover_plan(&g, &NodeSet::full(3), NodeId(0), NodeId(2)).unwrap();
        assert!(!plan.is_protected());
    }

    #[test]
    fn backup_respects_domination() {
        // 4-cycle with brokers only {1}: primary 0-1-2; backup 0-3-2 has
        // no broker hop -> not protected.
        let g = from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let plan = failover_plan(&g, &set(4, &[1]), NodeId(0), NodeId(2)).unwrap();
        assert!(!plan.is_protected());
    }

    #[test]
    fn no_primary_no_plan() {
        let g = from_edges(3, [(NodeId(0), NodeId(1))]);
        assert!(failover_plan(&g, &NodeSet::full(3), NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn internet_alliance_mostly_protected() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(71);
        let g = net.graph();
        let sel = max_subgraph_greedy(g, 75);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let pairs: Vec<(NodeId, NodeId)> = (0..150)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..g.node_count() as u32)),
                    NodeId(rng.gen_range(0..g.node_count() as u32)),
                )
            })
            .filter(|(a, b)| a != b)
            .collect();
        let ratio = protection_ratio(g, sel.brokers(), &pairs);
        // Single-homed stubs (55% of the population) can never have an
        // edge-disjoint pair through their lone provider link, so the
        // ratio sits well below 1 by construction.
        assert!(
            (0.2..=0.95).contains(&ratio),
            "protection ratio {ratio} outside the multihoming band"
        );
        // Verify both paths of a few plans are genuine dominating paths.
        let mut verified = 0;
        for &(u, v) in pairs.iter().take(40) {
            if let Some(plan) = failover_plan(g, sel.brokers(), u, v) {
                if u != v {
                    assert!(is_dominating_path(g, sel.brokers(), &plan.primary.path));
                    if let Some(b) = &plan.backup {
                        assert!(is_dominating_path(g, sel.brokers(), &b.path));
                        verified += 1;
                    }
                }
            }
        }
        assert!(verified > 5);
    }
}
