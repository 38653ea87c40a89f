//! Broker-set composition analyses behind Table 5 and Fig. 5a.
//!
//! - [`composition_histogram`] — how many brokers of each
//!   [`NodeKind`] the set contains (Fig. 5a's "diversified composition").
//! - [`ranked_brokers`] — the Table 5 view: brokers with their selection
//!   rank, kind, category label and name.
//! - [`broker_only_connectivity`] — the fraction of connected pairs whose
//!   dominating path uses *only brokers* as intermediate vertices (the
//!   paper: "more than 90 percent of E2E connections can be carried out
//!   by the 3,540-alliance solely").

use crate::problem::BrokerSelection;
use netgraph::{NodeId, UnionFind};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use topology::{Internet, NodeKind};

/// Per-kind counts of a broker set, in [`NodeKind::all`] order.
pub fn composition_histogram(net: &Internet, sel: &BrokerSelection) -> [usize; 6] {
    let mut counts = [0usize; 6];
    for &v in sel.order() {
        // Every kind occurs in NodeKind::all(), so the fallback index is
        // unreachable; it just keeps the lookup total.
        let idx = NodeKind::all()
            .iter()
            .position(|&k| k == net.kind(v))
            .unwrap_or(0);
        counts[idx] += 1;
    }
    counts
}

/// One row of the Table 5 style ranking.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedBroker {
    /// 1-based selection rank.
    pub rank: usize,
    /// Vertex id.
    pub node: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Table 5 category label ("IXP", "T/A", "C", "E").
    pub category: String,
    /// Synthetic name.
    pub name: String,
    /// Degree in the combined graph.
    pub degree: usize,
}

/// Brokers with rank/kind/name metadata, in selection order.
pub fn ranked_brokers(net: &Internet, sel: &BrokerSelection) -> Vec<RankedBroker> {
    let mut names = net.names();
    sel.order()
        .iter()
        .enumerate()
        .map(|(i, &v)| RankedBroker {
            rank: i + 1,
            node: v,
            kind: net.kind(v),
            category: net.kind(v).category_label().to_string(),
            name: std::mem::take(&mut names[v.index()]),
            degree: net.graph().degree(v),
        })
        .collect()
}

/// Result of [`broker_only_connectivity`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrokerOnlyReport {
    /// Fraction of *B-dominating-connected* pairs that are also reachable
    /// with all intermediate vertices inside `B`.
    pub fraction_of_connected: f64,
    /// Pairs sampled.
    pub sampled_pairs: usize,
}

/// Estimate the share of connected pairs whose dominating path needs no
/// non-broker intermediary.
///
/// A pair `(u, v)` counts as broker-only reachable when `u` and `v` are
/// adjacent, or there are brokers `b_u ∈ N(u) ∪ {u}` and
/// `b_v ∈ N(v) ∪ {v}` lying in the same component of the broker-induced
/// subgraph. Sampling is uniform over connected pairs (sources drawn
/// uniformly, partners drawn from each source's dominated component).
pub fn broker_only_connectivity(
    net: &Internet,
    sel: &BrokerSelection,
    sample_pairs: usize,
    seed: u64,
) -> BrokerOnlyReport {
    let g = net.graph();
    let n = g.node_count();
    let brokers = sel.brokers();

    // Components of the broker-induced subgraph.
    let mut uf = UnionFind::new(n);
    for b in brokers.iter() {
        for &v in g.neighbors(b) {
            if brokers.contains(v) {
                uf.union(b.index(), v.index());
            }
        }
    }
    // For each vertex, the set of broker components it touches; stored as
    // a sorted smallvec-ish Vec (vertex degree bounded in practice).
    let mut touch: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in g.nodes() {
        let mut comps: Vec<u32> = Vec::new();
        if brokers.contains(v) {
            comps.push(uf.find(v.index()) as u32);
        }
        for &b in g.neighbors(v) {
            if brokers.contains(b) {
                comps.push(uf.find(b.index()) as u32);
            }
        }
        comps.sort_unstable();
        comps.dedup();
        touch[v.index()] = comps;
    }

    // Sample connected pairs from the dominated edge graph.
    let dom = crate::connectivity::dominated_components(g, brokers);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut members_of: std::collections::BTreeMap<u32, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for v in g.nodes() {
        members_of.entry(dom.label[v.index()]).or_default().push(v);
    }
    let sources: Vec<NodeId> = {
        let mut all: Vec<NodeId> = g
            .nodes()
            .filter(|v| dom.sizes[dom.label[v.index()] as usize] > 1)
            .collect();
        all.shuffle(&mut rng);
        all
    };
    if sources.is_empty() {
        return BrokerOnlyReport {
            fraction_of_connected: 0.0,
            sampled_pairs: 0,
        };
    }

    let mut hits = 0usize;
    let mut total = 0usize;
    let mut si = 0usize;
    while total < sample_pairs {
        let u = sources[si % sources.len()];
        si += 1;
        let comp = &members_of[&dom.label[u.index()]];
        // `u`'s own component always contains at least `u` itself.
        let Some(&v) = comp.choose(&mut rng) else {
            continue;
        };
        if v == u {
            continue;
        }
        total += 1;
        if g.has_edge(u, v) || shares_component(&touch[u.index()], &touch[v.index()]) {
            hits += 1;
        }
    }
    BrokerOnlyReport {
        fraction_of_connected: hits as f64 / total as f64,
        sampled_pairs: total,
    }
}

fn shares_component(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_mcb;
    use crate::maxsg::max_subgraph_greedy;
    use topology::{InternetConfig, Scale};

    fn tiny_net() -> Internet {
        InternetConfig::scaled(Scale::Tiny).generate(17)
    }

    #[test]
    fn histogram_counts_sum_to_selection() {
        let net = tiny_net();
        let sel = max_subgraph_greedy(net.graph(), 30);
        let hist = composition_histogram(&net, &sel);
        assert_eq!(hist.iter().sum::<usize>(), sel.len());
    }

    #[test]
    fn diversified_composition_on_internet() {
        // The selected set should not be all of one kind: hubs include
        // tier-1s, transit providers and IXPs.
        let net = tiny_net();
        let sel = max_subgraph_greedy(net.graph(), 40);
        let hist = composition_histogram(&net, &sel);
        let kinds_present = hist.iter().filter(|&&c| c > 0).count();
        assert!(kinds_present >= 3, "only {kinds_present} kinds selected");
    }

    #[test]
    fn ranked_brokers_match_order() {
        let net = tiny_net();
        let sel = greedy_mcb(net.graph(), 10);
        let ranks = ranked_brokers(&net, &sel);
        assert_eq!(ranks.len(), 10);
        for (i, r) in ranks.iter().enumerate() {
            assert_eq!(r.rank, i + 1);
            assert_eq!(r.node, sel.order()[i]);
            assert_eq!(r.name, net.name(r.node));
            assert_eq!(r.category, r.kind.category_label());
        }
    }

    #[test]
    fn broker_only_high_for_good_selection() {
        let net = tiny_net();
        let g = net.graph();
        let sel = max_subgraph_greedy(g, 120);
        let rep = broker_only_connectivity(&net, &sel, 400, 5);
        assert!(rep.sampled_pairs > 0);
        assert!(
            rep.fraction_of_connected > 0.6,
            "broker-only fraction {}",
            rep.fraction_of_connected
        );
    }

    #[test]
    fn broker_only_zero_for_empty_selection() {
        let net = tiny_net();
        let sel = BrokerSelection::new("none", net.graph().node_count(), vec![]);
        let rep = broker_only_connectivity(&net, &sel, 100, 1);
        assert_eq!(rep.sampled_pairs, 0);
        assert_eq!(rep.fraction_of_connected, 0.0);
    }

    #[test]
    fn shares_component_merge_logic() {
        assert!(shares_component(&[1, 3, 5], &[2, 3]));
        assert!(!shares_component(&[1, 3], &[2, 4]));
        assert!(!shares_component(&[], &[1]));
    }
}
