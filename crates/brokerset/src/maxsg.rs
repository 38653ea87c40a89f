//! Algorithm 3: MaxSubGraph-Greedy (MaxSG).
//!
//! Each iteration adds the vertex that maximizes the size of the largest
//! connected subgraph reachable through dominated edges — i.e. the giant
//! component of `(V, E_B)` with `E_B = {(u, v) : u ∈ B ∨ v ∈ B}`. The
//! selection stops at the budget `k` or as soon as `V − (B ∪ N(B)) = ∅`
//! (everything dominated), whichever comes first.
//!
//! ## Scores
//!
//! The components of `(V, E_B)` live in a union-find. Adding `w` to `B`
//! activates exactly the edges incident to `w`, so the score of a
//! candidate — the size of the merged component around `w` — is the sum
//! of the distinct component sizes among `{w} ∪ N(w)`. The pick is the
//! candidate with the largest score, ties to the smallest id.
//!
//! The paper rescans every candidate at every pick, `O(k(|V| + |E|))`.
//! This implementation keeps the scores across picks instead. Let `G` be
//! the component grown from the first pick. Every score splits as
//!
//! ```text
//! score(w) = |G| · [w ∈ N[G]] + rest(w)
//! ```
//!
//! where `rest(w)` is the sum of the sizes of the components other than
//! `G` among `{w} ∪ N(w)`. `|G|` is one offset shared by every candidate
//! that touches `G`, so growing `G` moves no per-vertex state. When a
//! component `C` joins `G`, each vertex of `N[C] = C ∪ N(C)` loses `|C|`
//! from `rest`, once, and touches `G` from then on. Each component keeps
//! its member list as a ring of `next` links, spliced on union, so `N[C]`
//! is a walk over `C`'s adjacency. Each vertex joins `G` once, so these
//! updates cost `O(|V| + |E|)` over the whole run.
//!
//! A pick that does not touch `G` merges components `C₁ … C_m` outside
//! `G` into `M`: each vertex of `N[Cᵢ]` loses `|Cᵢ|` and each vertex of
//! `N[M]` gains `|M|`, at `O(vol(M))` for that pick. Such a pick happens
//! only after `G` has absorbed its whole connected component of the
//! input, so never on a connected input.
//!
//! Candidates wait in two lazy max-heaps keyed `(rest, Reverse(id))`:
//! one for the candidates that touch `G`, one for the others. A key is
//! refreshed whenever `rest` rises; when `rest` falls the old key stays
//! as an upper bound and is re-keyed when it reaches the top. The pick is
//! the larger of `|G| + top(touching)` and `top(others)`. On a connected
//! input the whole run costs `O((|V| + |E|) log |V|)`.

use crate::coverage::CoverageState;
use crate::problem::BrokerSelection;
use netgraph::{Graph, NodeId, NodeSet, UnionFind};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Run MaxSubGraph-Greedy with budget `k`.
///
/// On a connected input the dominated subgraph stays connected: every
/// pick touches the component grown from the first pick, matching the
/// paper's observation that the MaxSG broker set "totally dominates the
/// maximum connected subgraph". On a disconnected input each connected
/// component of the input holds at most one nontrivial dominated
/// component, so the dominated subgraph can split.
pub fn max_subgraph_greedy(g: &Graph, k: usize) -> BrokerSelection {
    let n = g.node_count();
    let mut cov = CoverageState::new(g);
    let mut scores = Scores::new(g);
    let mut order: Vec<NodeId> = Vec::with_capacity(k.min(n));
    while order.len() < k && cov.covered_count() < n {
        let Some(w) = scores.best(cov.brokers()) else {
            break;
        };
        cov.add(g, w);
        scores.commit(g, w, cov.brokers());
        order.push(w);
    }
    BrokerSelection::new("maxsg", n, order)
}

/// A heap key: `rest`, then the smaller id first.
type Key = (u32, Reverse<NodeId>);

/// The MaxSG scores of every candidate under the decomposition in the
/// module docs.
struct Scores {
    uf: UnionFind,
    /// `next[v]`: the next member of `v`'s component, a ring per component.
    next: Vec<u32>,
    /// `rest(w)`: sizes of the distinct non-`G` components among `{w} ∪ N(w)`.
    rest: Vec<u32>,
    /// Whether `w ∈ N[G]`.
    touches: Vec<bool>,
    seen: Stamps,
    /// A member of `G`, once the first pick has been made.
    anchor: Option<usize>,
    /// Candidates that touch `G`.
    near: BinaryHeap<Key>,
    /// Every other candidate.
    far: BinaryHeap<Key>,
}

impl Scores {
    /// Before the first pick every component is a singleton, so
    /// `rest(w) = 1 + deg(w)` and nothing touches `G`.
    fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let rest: Vec<u32> = g.nodes().map(|w| 1 + g.degree(w) as u32).collect();
        let far = g.nodes().map(|w| (rest[w.index()], Reverse(w))).collect();
        Scores {
            uf: UnionFind::new(n),
            next: (0..n as u32).collect(),
            rest,
            touches: vec![false; n],
            seen: Stamps::new(n),
            anchor: None,
            near: BinaryHeap::new(),
            far,
        }
    }

    /// The next pick: the largest score, ties to the smallest id.
    fn best(&mut self, brokers: &NodeSet) -> Option<NodeId> {
        let g_size = self.anchor.map_or(0, |a| self.uf.component_size(a));
        let touches = &self.touches;
        let near = settle(&mut self.near, &self.rest, |w| {
            touches[w.index()] && !brokers.contains(w)
        });
        let far = settle(&mut self.far, &self.rest, |w| {
            !touches[w.index()] && !brokers.contains(w)
        });
        let near = near.map(|(rest, id)| (g_size + rest as usize, id));
        let far = far.map(|(rest, id)| (rest as usize, id));
        near.max(far).map(|(_, Reverse(w))| w)
    }

    /// Make `p` a broker: merge the components of `{p} ∪ N(p)` and
    /// update the scores they touch. `brokers` already contains `p`.
    fn commit(&mut self, g: &Graph, p: NodeId, brokers: &NodeSet) {
        let into_g = self.anchor.is_none() || self.touches[p.index()];
        // The pick's components merge into `G` when the pick touches it,
        // else into p's own component, which is counted out first.
        let target = match self.anchor {
            Some(a) if into_g => a,
            _ => {
                let own = self.uf.find(p.index());
                self.count_out(g, own, into_g, brokers);
                own
            }
        };
        for x in std::iter::once(p).chain(g.neighbors(p).iter().copied()) {
            let r = self.uf.find(x.index());
            if r != self.uf.find(target) {
                self.count_out(g, r, into_g, brokers);
                self.uf.union(target, r);
                self.next.swap(target, r);
            }
        }
        if into_g {
            self.anchor = Some(target);
        } else {
            self.count_in(g, target, brokers);
        }
    }

    /// Take component `r` out of every `rest` it is part of. When it is
    /// about to join `G`, the vertices of `N[r]` touch `G` from now on.
    fn count_out(&mut self, g: &Graph, r: usize, into_g: bool, brokers: &NodeSet) {
        let size = self.uf.component_size(r) as u32;
        let (rest, touches, near) = (&mut self.rest, &mut self.touches, &mut self.near);
        walk_closed(g, &self.next, &mut self.seen, r, |w| {
            rest[w.index()] -= size;
            if into_g && !touches[w.index()] {
                touches[w.index()] = true;
                if !brokers.contains(w) {
                    // An upper bound if `rest[w]` falls again this pick.
                    near.push((rest[w.index()], Reverse(w)));
                }
            }
        });
    }

    /// Add the merged component `t`, outside `G`, to every `rest` it is
    /// part of, refreshing the keys that rose.
    fn count_in(&mut self, g: &Graph, t: usize, brokers: &NodeSet) {
        let size = self.uf.component_size(t) as u32;
        let (rest, touches) = (&mut self.rest, &self.touches);
        let (near, far) = (&mut self.near, &mut self.far);
        walk_closed(g, &self.next, &mut self.seen, t, |w| {
            rest[w.index()] += size;
            if !brokers.contains(w) {
                let key = (rest[w.index()], Reverse(w));
                if touches[w.index()] {
                    near.push(key);
                } else {
                    far.push(key);
                }
            }
        });
    }
}

/// Pop dead entries off `heap` and re-key stale ones until its top is a
/// live candidate keyed by its current `rest`, and return that top.
///
/// Every live candidate keeps an entry whose key is at least its current
/// `rest`, so the settled top is the true maximum.
fn settle(heap: &mut BinaryHeap<Key>, rest: &[u32], live: impl Fn(NodeId) -> bool) -> Option<Key> {
    while let Some(mut top) = heap.peek_mut() {
        let Reverse(w) = top.1;
        if !live(w) {
            PeekMut::pop(top);
        } else if top.0 == rest[w.index()] {
            return Some(*top);
        } else {
            top.0 = rest[w.index()];
        }
    }
    None
}

/// Call `f` once for each vertex of `N[C] = C ∪ N(C)`, where `C` is the
/// component whose member ring holds `start`.
fn walk_closed(
    g: &Graph,
    next: &[u32],
    seen: &mut Stamps,
    start: usize,
    mut f: impl FnMut(NodeId),
) {
    let stamp = seen.fresh();
    let mut m = start;
    loop {
        let member = NodeId(m as u32);
        for v in std::iter::once(member).chain(g.neighbors(member).iter().copied()) {
            if seen.mark(v.index(), stamp) {
                f(v);
            }
        }
        m = next[m] as usize;
        if m == start {
            break;
        }
    }
}

/// Per-vertex visit marks, cleared in O(1) by moving to a fresh stamp.
struct Stamps {
    mark: Vec<u32>,
    stamp: u32,
}

impl Stamps {
    fn new(n: usize) -> Self {
        Stamps {
            mark: vec![0; n],
            stamp: 0,
        }
    }

    /// A stamp no vertex carries yet; wrapping around clears every mark.
    fn fresh(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Mark `v` with `stamp`; `true` if it was not marked yet.
    fn mark(&mut self, v: usize, stamp: u32) -> bool {
        std::mem::replace(&mut self.mark[v], stamp) != stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{dominated_components, saturated_connectivity};
    use crate::coverage::dominated_set;
    use netgraph::graph::from_edges;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn star_hub_first() {
        let g = from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))));
        let sel = max_subgraph_greedy(&g, 3);
        assert_eq!(sel.order(), &[NodeId(0)]); // hub dominates all, stop
    }

    #[test]
    fn path_dominating_selection() {
        // 0-1-2-3-4: picking 1 then 3 dominates everything.
        let g = from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))));
        let sel = max_subgraph_greedy(&g, 5);
        let covered = dominated_set(&g, sel.brokers());
        assert_eq!(covered.len(), 5);
        assert!(sel.len() <= 3);
        // The dominated graph must be fully connected.
        let comps = dominated_components(&g, sel.brokers());
        assert_eq!(comps.giant().unwrap().1, 5);
    }

    #[test]
    fn budget_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = netgraph::erdos_renyi_gnm(100, 150, &mut rng);
        let sel = max_subgraph_greedy(&g, 7);
        assert!(sel.len() <= 7);
    }

    #[test]
    fn stops_when_everything_dominated() {
        let g = from_edges(
            4,
            [(0, 1), (0, 2), (0, 3)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let sel = max_subgraph_greedy(&g, 4);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        assert!(max_subgraph_greedy(&from_edges(0, std::iter::empty()), 3).is_empty());
        let sel = max_subgraph_greedy(&from_edges(1, std::iter::empty()), 3);
        assert_eq!(sel.len(), 1); // the lone vertex covers itself
    }

    #[test]
    fn connectivity_close_to_greedy_mcb() {
        // The paper reports MaxSG within 0.5% of the approximation
        // algorithm; on random scale-free graphs the two should at least
        // be in the same ballpark.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = netgraph::barabasi_albert(300, 3, &mut rng);
        let k = 20;
        let maxsg = saturated_connectivity(&g, max_subgraph_greedy(&g, k).brokers());
        let greedy = saturated_connectivity(&g, crate::greedy_mcb(&g, k).brokers());
        assert!(
            maxsg.fraction > greedy.fraction - 0.10,
            "maxsg {} vs greedy {}",
            maxsg.fraction,
            greedy.fraction
        );
    }

    proptest! {
        /// The dominated subgraph grows into a single giant component:
        /// after every prefix of the selection, the dominated edges form
        /// exactly one nontrivial component (on connected input graphs).
        #[test]
        fn dominated_subgraph_connected(seed in 0u64..60) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = netgraph::barabasi_albert(60, 2, &mut rng);
            let sel = max_subgraph_greedy(&g, 10);
            for k in 1..=sel.len() {
                let prefix = sel.truncated(k);
                let comps = dominated_components(&g, prefix.brokers());
                let nontrivial = comps.sizes.iter().filter(|&&s| s > 1).count();
                prop_assert!(nontrivial <= 1, "k={k}: {nontrivial} nontrivial components");
            }
        }

        /// The counter-case on a disconnected input: two disjoint copies
        /// of a BA graph. Each copy holds at most one nontrivial
        /// dominated component after every prefix, and once both copies
        /// are covered the dominated subgraph has split in two.
        #[test]
        fn dominated_subgraph_splits_on_disconnected_input(seed in 0u64..40) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let half = netgraph::barabasi_albert(30, 2, &mut rng);
            let g = from_edges(
                60,
                half.edges().flat_map(|(u, v)| {
                    [(u, v), (NodeId(u.0 + 30), NodeId(v.0 + 30))]
                }),
            );
            let sel = max_subgraph_greedy(&g, 60);
            for k in 1..=sel.len() {
                let comps = dominated_components(&g, sel.truncated(k).brokers());
                let mut per_copy = [0usize; 2];
                for (c, _) in comps.sizes.iter().enumerate().filter(|&(_, &s)| s > 1) {
                    let member = comps.label.iter().position(|&l| l as usize == c).unwrap();
                    per_copy[member / 30] += 1;
                }
                prop_assert!(per_copy[0] <= 1 && per_copy[1] <= 1, "k={k}: {per_copy:?}");
            }
            let comps = dominated_components(&g, sel.brokers());
            prop_assert_eq!(comps.sizes.iter().filter(|&&s| s > 1).count(), 2);
        }

        /// MaxSG never exceeds its budget and never duplicates.
        #[test]
        fn budget_and_uniqueness(seed in 0u64..60, k in 1usize..15) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = netgraph::erdos_renyi_gnm(50, 90, &mut rng);
            let sel = max_subgraph_greedy(&g, k);
            prop_assert!(sel.len() <= k);
            // BrokerSelection::new would have panicked on duplicates.
        }
    }
}
