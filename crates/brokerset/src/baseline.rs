//! Baseline broker-selection algorithms from Sections 5.1 and 6.1.
//!
//! - [`set_cover`] (SC) — a randomized dominating-set construction (the
//!   paper's ref \[31\]): scan vertices in random order, adding each vertex not
//!   yet dominated. Yields valid but *large* dominating sets — Fig. 2a
//!   shows the CDF of its size over 300 runs landing around 76 % of all
//!   vertices.
//! - [`degree_based`] (DB) — top-k vertices by degree.
//! - [`pagerank_based`] (PRB) — top-k vertices by PageRank.
//! - [`ixp_based`] (IXPB) — IXPs whose degree exceeds a threshold.
//! - [`tier1_only`] — exactly the tier-1 ASes.

use crate::problem::BrokerSelection;
use netgraph::{pagerank, top_by_score, Graph, NodeId, PageRankConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use topology::{Internet, NodeKind};

/// Randomized dominating-set baseline (SC).
///
/// Scans a uniformly random vertex permutation and adds every vertex that
/// is not yet in `B ∪ N(B)`. The result always dominates the whole graph;
/// its size is the random variable plotted in Fig. 2a.
pub fn set_cover<R: Rng>(g: &Graph, rng: &mut R) -> BrokerSelection {
    let n = g.node_count();
    let mut perm: Vec<NodeId> = g.nodes().collect();
    perm.shuffle(rng);
    let mut cov = crate::coverage::CoverageState::new(g);
    let mut order = Vec::new();
    for v in perm {
        if !cov.covered().contains(v) {
            cov.add(g, v);
            order.push(v);
        }
    }
    BrokerSelection::new("set-cover", n, order)
}

/// Degree-Based baseline (DB): the `k` highest-degree vertices.
pub fn degree_based(g: &Graph, k: usize) -> BrokerSelection {
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    BrokerSelection::new("db", g.node_count(), top_by_score(&degrees, k))
}

/// PageRank-Based baseline (PRB): the `k` highest-PageRank vertices.
pub fn pagerank_based(g: &Graph, k: usize) -> BrokerSelection {
    let pr = pagerank(g, PageRankConfig::default());
    BrokerSelection::new("prb", g.node_count(), top_by_score(&pr, k))
}

/// IXP-Based baseline (IXPB): all IXPs with degree above `min_degree`
/// (0 selects every IXP, the paper's 322-broker configuration), ordered
/// by descending degree.
pub fn ixp_based(net: &Internet, min_degree: usize) -> BrokerSelection {
    let g = net.graph();
    let mut ixps: Vec<NodeId> = g
        .nodes()
        .filter(|&v| net.kind(v) == NodeKind::Ixp && g.degree(v) >= min_degree)
        .collect();
    ixps.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    BrokerSelection::new("ixpb", g.node_count(), ixps)
}

/// Tier-1-Only baseline: exactly the tier-1 backbone ASes.
pub fn tier1_only(net: &Internet) -> BrokerSelection {
    let g = net.graph();
    let mut t1 = net.tier1s();
    t1.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    BrokerSelection::new("tier1", g.node_count(), t1)
}

/// Greedy dominating set: run the MCB greedy until every vertex is
/// covered. The classic "smallest dominating set" heuristic, the
/// informed counterpart to the randomized [`set_cover`] — Fig. 2a's
/// contrast is between this scale (a few percent of V) and SC's tens of
/// percent.
pub fn greedy_dominating_set(g: &Graph) -> BrokerSelection {
    crate::greedy::greedy_mcb(g, g.node_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::dominated_set;
    use netgraph::graph::from_edges;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use topology::{InternetConfig, Scale};

    #[test]
    fn set_cover_always_dominates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for seed in 0..5u64 {
            let g = netgraph::erdos_renyi_gnm(80, 150, &mut ChaCha8Rng::seed_from_u64(seed));
            let sel = set_cover(&g, &mut rng);
            assert_eq!(dominated_set(&g, sel.brokers()).len(), 80);
        }
    }

    #[test]
    fn set_cover_size_varies_and_is_large() {
        let g = {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            netgraph::barabasi_albert(300, 2, &mut rng)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let sizes: Vec<usize> = (0..30).map(|_| set_cover(&g, &mut rng).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "randomized sizes should vary");
        // Much larger than a greedy dominating set.
        let greedy = crate::greedy_mcb(&g, 300).len();
        assert!(
            min > greedy,
            "SC min {min} should exceed greedy dominating size {greedy}"
        );
    }

    #[test]
    fn degree_based_picks_hubs() {
        let g = from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))));
        let sel = degree_based(&g, 2);
        assert_eq!(sel.order()[0], NodeId(0));
        assert_eq!(sel.len(), 2);
        assert!(degree_based(&g, 0).is_empty());
    }

    #[test]
    fn pagerank_based_picks_hubs() {
        let g = from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))));
        let sel = pagerank_based(&g, 1);
        assert_eq!(sel.order(), &[NodeId(0)]);
    }

    #[test]
    fn ixpb_and_tier1_on_generated_topology() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(3);
        let all_ixps = ixp_based(&net, 0);
        assert_eq!(all_ixps.len(), net.ixp_count());
        // Ordered by degree descending.
        let g = net.graph();
        let o = all_ixps.order();
        for w in o.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
        // Threshold filters.
        let big_only = ixp_based(&net, g.degree(o[0]));
        assert!(!big_only.is_empty() && big_only.len() <= all_ixps.len());

        let t1 = tier1_only(&net);
        assert_eq!(t1.len(), InternetConfig::scaled(Scale::Tiny).n_tier1);
        for &v in t1.order() {
            assert_eq!(net.kind(v), NodeKind::Tier1);
        }
    }

    #[test]
    fn set_cover_deterministic_given_rng() {
        let g = {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            netgraph::erdos_renyi_gnm(60, 120, &mut rng)
        };
        let a = set_cover(&g, &mut ChaCha8Rng::seed_from_u64(11));
        let b = set_cover(&g, &mut ChaCha8Rng::seed_from_u64(11));
        assert_eq!(a.order(), b.order());
    }
}
