//! Differential oracle for MaxSubGraph-Greedy.
//!
//! `rescan_maxsg` is the literal `O(k(|V| + |E|))` loop of the paper's
//! Algorithm 3: every pick rescans every candidate and sums the distinct
//! component sizes around it. `brokerset::max_subgraph_greedy` keeps the
//! scores across picks instead; its selection order must equal the
//! rescan's bit for bit (score descending, then id ascending), on
//! connected and disconnected inputs alike.
//!
//! The seed-2014 Internet topologies pin the order by FNV-1a at tiny,
//! quarter and full scale, at the paper's largest budget. The rescan is
//! checked live at tiny and quarter; at full scale it takes several
//! seconds even in release, so that order is pinned only.

use brokerset::{max_subgraph_greedy, BrokerSelection, CoverageState};
use netgraph::graph::from_edges;
use netgraph::{Graph, NodeId, UnionFind};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology::{Internet, InternetConfig, Scale};

/// MaxSG by a full rescan of `V + E` at every pick.
fn rescan_maxsg(g: &Graph, k: usize) -> BrokerSelection {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    let mut cov = CoverageState::new(g);
    let mut order: Vec<NodeId> = Vec::with_capacity(k.min(n));
    // Scratch: per-candidate stamps marking component roots already
    // counted. A Vec scan here would cost O(deg(w)^2) on power-law hubs
    // (thousands of distinct roots early on); the stamp array keeps the
    // documented O(deg(w)) per candidate.
    let mut root_stamp: Vec<u64> = vec![0; n];
    let mut stamp: u64 = 0;

    while order.len() < k && cov.covered_count() < n {
        let mut best: Option<(usize, NodeId)> = None;
        for w in g.nodes() {
            if cov.brokers().contains(w) {
                continue;
            }
            // Merged-component size if w became a broker: distinct
            // components among {w} ∪ N(w).
            stamp += 1;
            let mut score = 0usize;
            let rw = uf.find(w.index());
            root_stamp[rw] = stamp;
            score += uf.component_size(w.index());
            for &v in g.neighbors(w) {
                let rv = uf.find(v.index());
                if root_stamp[rv] != stamp {
                    root_stamp[rv] = stamp;
                    score += uf.component_size(v.index());
                }
            }
            let better = match best {
                None => true,
                Some((bs, bv)) => score > bs || (score == bs && w < bv),
            };
            if better {
                best = Some((score, w));
            }
        }
        let Some((_, w)) = best else { break };
        // Commit: activate w's incident edges.
        for &v in g.neighbors(w) {
            uf.union(w.index(), v.index());
        }
        cov.add(g, w);
        order.push(w);
    }
    BrokerSelection::new("maxsg", n, order)
}

/// FNV-1a over the order's ids as little-endian `u32`s.
fn order_checksum(order: &[NodeId]) -> u64 {
    netgraph::fnv1a(order.iter().flat_map(|v| v.0.to_le_bytes()))
}

/// Two disjoint copies of `g`: the second copy's ids are shifted by
/// `n`. Once the first pick's component has absorbed its copy, the
/// picks leave it, which exercises the merges outside that component.
fn two_copies(g: &Graph) -> Graph {
    let n = g.node_count() as u32;
    from_edges(
        2 * n as usize,
        g.edges()
            .flat_map(|(u, v)| [(u, v), (NodeId(u.0 + n), NodeId(v.0 + n))]),
    )
}

/// A budget from the selector: one pick, a few, or every vertex.
fn budget(n: usize, which: u8, few: usize) -> usize {
    match which {
        0 => 1,
        1 => few,
        _ => n,
    }
}

fn assert_same_order(g: &Graph, k: usize) -> Result<(), String> {
    let fast = max_subgraph_greedy(g, k);
    let oracle = rescan_maxsg(g, k);
    prop_assert_eq!(fast.order(), oracle.order(), "k = {}", k);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Erdős–Rényi graphs with fewer edges than vertices: almost always
    /// disconnected, with isolated vertices and many small components.
    #[test]
    fn sparse_er_matches_rescan(
        seed in 0u64..u64::MAX,
        n in 1usize..160,
        density in 0.0f64..1.0,
        which in 0u8..3,
        few in 2usize..12,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = (density * n as f64) as usize;
        let g = netgraph::erdos_renyi_gnm(n, m, &mut rng);
        assert_same_order(&g, budget(n, which, few))?;
    }

    /// Barabási–Albert graphs: connected and heavy-tailed, like the
    /// Internet topologies.
    #[test]
    fn ba_matches_rescan(
        seed in 0u64..u64::MAX,
        n in 5usize..200,
        attach in 1usize..4,
        which in 0u8..3,
        few in 2usize..12,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = netgraph::barabasi_albert(n, attach, &mut rng);
        assert_same_order(&g, budget(n, which, few))?;
    }

    /// Two disjoint copies of a BA graph: forces picks that do not touch
    /// the component grown from the first pick.
    #[test]
    fn disjoint_ba_copies_match_rescan(
        seed in 0u64..u64::MAX,
        n in 5usize..100,
        attach in 1usize..4,
        which in 0u8..3,
        few in 2usize..12,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = two_copies(&netgraph::barabasi_albert(n, attach, &mut rng));
        assert_same_order(&g, budget(2 * n, which, few))?;
    }
}

/// The seed-2014 topology at `scale`; the pins use the paper's largest
/// budget, 6.8 % of the vertices.
fn seed_2014(scale: Scale) -> Internet {
    InternetConfig::scaled(scale).generate(2014)
}

#[test]
fn tiny_order_pinned_and_matches_rescan() {
    let net = seed_2014(Scale::Tiny);
    let g = net.graph();
    assert_eq!(g.node_count(), 1_097);
    let order = max_subgraph_greedy(g, 75).order().to_vec();
    assert_eq!(order_checksum(&order), 0x0aa8_66cb_41c5_425a);
    assert_eq!(order, rescan_maxsg(g, 75).order());
}

#[test]
fn quarter_order_pinned_and_matches_rescan() {
    let net = seed_2014(Scale::Quarter);
    let g = net.graph();
    assert_eq!(g.node_count(), 13_020);
    let order = max_subgraph_greedy(g, 885).order().to_vec();
    assert_eq!(order_checksum(&order), 0x3085_a4d5_7459_6f57);
    assert_eq!(order, rescan_maxsg(g, 885).order());
}

#[test]
fn full_order_pinned() {
    let net = seed_2014(Scale::Full);
    let g = net.graph();
    assert_eq!(g.node_count(), 52_079);
    let order = max_subgraph_greedy(g, 3_541).order().to_vec();
    assert_eq!(order_checksum(&order), 0x7d0a_f11d_2097_1a6a);
}
