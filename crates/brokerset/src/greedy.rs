//! Algorithm 1: the greedy (1 − 1/e)-approximation for MCB.
//!
//! Two implementations are provided:
//!
//! - [`greedy_mcb`] — *lazy* greedy. Submodularity makes cached marginal
//!   gains upper bounds, so a stale max-heap entry whose re-evaluated
//!   gain still tops the heap is provably the argmax. On the Internet
//!   topology almost every iteration re-evaluates only a handful of
//!   candidates, giving effectively `O(k(|V| + |E|))` behaviour.
//! - [`greedy_mcb_naive`] — the textbook `O(k |V| · deg)` scan, kept as
//!   the oracle for the equivalence property test.
//!
//! Both return identical selections (ties broken by ascending node id).
//!
//! The CELF drain loop itself lives in [`crate::incremental`]
//! ([`crate::incremental::celf_fill`]): the one-shot greedy here seeds a
//! fresh heap of `deg + 1` upper bounds and drains it once, while the
//! epoch-driven [`crate::BrokerMaintainer`] re-seeds and re-drains the
//! same loop across topology deltas. Sharing the loop keeps the two
//! selection paths bit-identical by construction.

use crate::coverage::CoverageState;
use crate::incremental::{celf_fill, CoverageIndex};
use crate::problem::BrokerSelection;
use netgraph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lazy greedy solution to `MCB(V, k)` (Algorithm 1).
///
/// Selects up to `k` brokers maximizing `f(B) = |B ∪ N(B)|`; stops early
/// when the graph is fully covered. Guarantees
/// `f(B) ≥ (1 − 1/e) · f(OPT_k)` by Nemhauser–Wolsey–Fisher.
pub fn greedy_mcb(g: &Graph, k: usize) -> BrokerSelection {
    let n = g.node_count();
    let mut idx = CoverageIndex::new(n);
    let mut order = Vec::with_capacity(k.min(n));
    // Heap of (cached_gain, Reverse(id)): highest gain first, lowest id on
    // ties — matching the naive argmax scan order.
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> =
        g.nodes().map(|v| (g.degree(v) + 1, Reverse(v))).collect();
    celf_fill(g, &mut idx, k, &mut heap, &mut order, true);
    BrokerSelection::new("greedy-mcb", n, order)
}

/// Textbook greedy: full argmax scan each iteration.
pub fn greedy_mcb_naive(g: &Graph, k: usize) -> BrokerSelection {
    let n = g.node_count();
    let mut cov = CoverageState::new(g);
    let mut order = Vec::with_capacity(k.min(n));
    while order.len() < k && cov.covered_count() < n {
        let mut best: Option<(usize, NodeId)> = None;
        for v in g.nodes() {
            if cov.brokers().contains(v) {
                continue;
            }
            let gain = cov.gain(g, v);
            let better = match best {
                None => true,
                Some((bg, bv)) => gain > bg || (gain == bg && v < bv),
            };
            if better {
                best = Some((gain, v));
            }
        }
        match best {
            Some((gain, v)) if gain > 0 => {
                cov.add(g, v);
                order.push(v);
            }
            _ => break,
        }
    }
    BrokerSelection::new("greedy-mcb", n, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage;
    use netgraph::graph::from_edges;
    use netgraph::NodeSet;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn star_selects_hub() {
        let g = from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))));
        let sel = greedy_mcb(&g, 3);
        // Hub covers everything; greedy stops after one pick.
        assert_eq!(sel.order(), &[NodeId(0)]);
    }

    #[test]
    fn two_stars_select_both_hubs() {
        let mut edges: Vec<(NodeId, NodeId)> = (1..5).map(|i| (NodeId(0), NodeId(i))).collect();
        edges.extend((6..11).map(|i| (NodeId(5), NodeId(i))));
        let g = from_edges(11, edges);
        let sel = greedy_mcb(&g, 2);
        // Star at 5 has 5 leaves (covers 6), star at 0 covers 5.
        assert_eq!(sel.order(), &[NodeId(5), NodeId(0)]);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let g = from_edges(3, [(NodeId(0), NodeId(1))]);
        assert!(greedy_mcb(&g, 0).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, std::iter::empty());
        assert!(greedy_mcb(&g, 5).is_empty());
    }

    #[test]
    fn isolated_vertices_still_covered() {
        let g = from_edges(3, std::iter::empty());
        let sel = greedy_mcb(&g, 3);
        assert_eq!(sel.len(), 3); // each isolated vertex covers itself
    }

    #[test]
    fn lazy_matches_naive_on_random_graphs() {
        for seed in 0..10 {
            let g = netgraph::barabasi_albert(150, 3, &mut ChaCha8Rng::seed_from_u64(seed));
            let lazy = greedy_mcb(&g, 12);
            let naive = greedy_mcb_naive(&g, 12);
            assert_eq!(lazy.order(), naive.order(), "seed {seed}");
        }
    }

    #[test]
    fn approximation_bound_vs_bruteforce() {
        // Exhaustive optimum over all C(12, 3) subsets on small graphs.
        for seed in 0..8 {
            let g = netgraph::erdos_renyi_gnm(12, 20, &mut ChaCha8Rng::seed_from_u64(seed));
            let k = 3;
            let greedy_cov = coverage(&g, greedy_mcb(&g, k).brokers());
            let mut opt = 0usize;
            for a in 0..12u32 {
                for b in (a + 1)..12 {
                    for c in (b + 1)..12 {
                        let mut s = NodeSet::new(12);
                        s.insert(NodeId(a));
                        s.insert(NodeId(b));
                        s.insert(NodeId(c));
                        opt = opt.max(coverage(&g, &s));
                    }
                }
            }
            let bound = (1.0 - (-1.0f64).exp()) * opt as f64;
            assert!(
                greedy_cov as f64 >= bound - 1e-9,
                "seed {seed}: greedy {greedy_cov} < (1-1/e)·OPT = {bound}"
            );
        }
    }

    proptest! {
        /// The greedy prefix property: running with budget k then
        /// truncating equals running with smaller budget directly.
        #[test]
        fn greedy_prefix_consistency(seed in 0u64..100, k in 1usize..10) {
            let g = netgraph::erdos_renyi_gnm(40, 80, &mut ChaCha8Rng::seed_from_u64(seed));
            let big = greedy_mcb(&g, 10);
            let small = greedy_mcb(&g, k);
            let prefix: Vec<NodeId> = big.order().iter().copied().take(k).collect();
            prop_assert_eq!(small.order(), &prefix[..small.len()]);
        }

        /// Greedy never selects a zero-gain broker.
        #[test]
        fn greedy_gains_positive(seed in 0u64..100) {
            let g = netgraph::erdos_renyi_gnm(30, 40, &mut ChaCha8Rng::seed_from_u64(seed));
            let sel = greedy_mcb(&g, 30);
            let mut cov = CoverageState::new(&g);
            for &v in sel.order() {
                prop_assert!(cov.gain(&g, v) > 0);
                cov.add(&g, v);
            }
        }
    }
}
