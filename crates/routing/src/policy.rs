//! Directed, relationship-classified adjacency built from an
//! [`Internet`] topology.

use netgraph::{NodeId, NodeSet};
use rand::Rng;
use serde::{Deserialize, Serialize};
use topology::{Internet, NodeKind, Relationship};

/// Classification of a *directed* edge `u → v` for policy routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeClass {
    /// `u` sends to its provider `v` (uphill).
    ToProvider,
    /// `u` sends to its customer `v` (downhill).
    ToCustomer,
    /// Settlement-free peering.
    Peer,
    /// `u` (an AS) enters the exchange fabric `v` (an IXP).
    IntoIxp,
    /// `u` (an IXP) hands traffic to member `v`.
    OutOfIxp,
    /// Alliance-internal link made fully bidirectional (the Fig. 5b
    /// conversion): traversable in any phase, phase-preserving.
    AllianceFree,
}

/// Directed policy view of a topology.
///
/// Owns per-node adjacency lists of `(neighbor, EdgeClass)`. Conversions
/// (e.g. turning inter-broker transit links into peering for the Fig. 5b
/// experiment) mutate this view without touching the source topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyGraph {
    adj: Vec<Vec<(NodeId, EdgeClass)>>,
    edges: usize,
}

impl PolicyGraph {
    /// Build the policy view of `net`.
    pub fn new(net: &Internet) -> Self {
        let n = net.graph().node_count();
        let mut adj: Vec<Vec<(NodeId, EdgeClass)>> = vec![Vec::new(); n];
        for (a, b, rel) in net.relationships() {
            let (cls_ab, cls_ba) = classify(net, a, b, rel);
            adj[a.index()].push((b, cls_ab));
            adj[b.index()].push((a, cls_ba));
        }
        for list in adj.iter_mut() {
            list.sort_unstable_by_key(|&(v, _)| v);
        }
        PolicyGraph {
            adj,
            edges: net.graph().edge_count(),
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Outgoing classified edges of `u`.
    pub fn out_edges(&self, u: NodeId) -> &[(NodeId, EdgeClass)] {
        &self.adj[u.index()]
    }

    /// Whether `v` is an exchange-fabric vertex (its outgoing edges hand
    /// traffic to members). Vertices with no edges are treated as ASes.
    pub fn is_ixp(&self, v: NodeId) -> bool {
        self.adj[v.index()]
            .first()
            .is_some_and(|&(_, cls)| cls == EdgeClass::OutOfIxp)
    }

    /// The class of directed edge `u → v`, if the edge exists.
    pub fn class(&self, u: NodeId, v: NodeId) -> Option<EdgeClass> {
        self.adj[u.index()]
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| self.adj[u.index()][i].1)
    }

    /// Convert a uniformly random fraction of *inter-broker* links (both
    /// endpoints in `brokers`) into alliance-internal bidirectional links
    /// ([`EdgeClass::AllianceFree`]). Returns the number of converted
    /// undirected edges.
    ///
    /// This is the Fig. 5b experiment: "randomly changing only 30 percent
    /// inter-broker connections to bidirectional (e.g., peering)".
    pub fn convert_interbroker_to_peering<R: Rng>(
        &mut self,
        brokers: &NodeSet,
        fraction: f64,
        rng: &mut R,
    ) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1], got {fraction}"
        );
        let mut converted = 0usize;
        // Visit each undirected edge once via the lower endpoint.
        for u_idx in 0..self.adj.len() {
            let u = NodeId::from(u_idx);
            if !brokers.contains(u) {
                continue;
            }
            // Collect targets first to appease the borrow checker.
            let targets: Vec<NodeId> = self.adj[u_idx]
                .iter()
                .filter(|&&(v, cls)| u < v && brokers.contains(v) && cls != EdgeClass::AllianceFree)
                .map(|&(v, _)| v)
                .collect();
            for v in targets {
                if rng.gen_range(0.0..1.0) < fraction {
                    self.set_class_pair(u, v, EdgeClass::AllianceFree, EdgeClass::AllianceFree);
                    converted += 1;
                }
            }
        }
        converted
    }

    fn set_class_pair(&mut self, u: NodeId, v: NodeId, uv: EdgeClass, vu: EdgeClass) {
        if let Ok(i) = self.adj[u.index()].binary_search_by_key(&v, |&(w, _)| w) {
            self.adj[u.index()][i].1 = uv;
        }
        if let Ok(i) = self.adj[v.index()].binary_search_by_key(&u, |&(w, _)| w) {
            self.adj[v.index()][i].1 = vu;
        }
    }
}

fn classify(net: &Internet, _a: NodeId, b: NodeId, rel: Relationship) -> (EdgeClass, EdgeClass) {
    match rel {
        Relationship::CustomerOfB => (EdgeClass::ToProvider, EdgeClass::ToCustomer),
        Relationship::ProviderOfB => (EdgeClass::ToCustomer, EdgeClass::ToProvider),
        Relationship::Peer => (EdgeClass::Peer, EdgeClass::Peer),
        Relationship::IxpMembership => {
            if net.kind(b) == NodeKind::Ixp {
                (EdgeClass::IntoIxp, EdgeClass::OutOfIxp)
            } else {
                (EdgeClass::OutOfIxp, EdgeClass::IntoIxp)
            }
        }
    }
}

impl netgraph::Validate for PolicyGraph {
    /// Re-derive the directed-adjacency invariants:
    ///
    /// 1. every neighbor id is in range;
    /// 2. each out-edge list is strictly ascending by neighbor (the
    ///    binary search in [`PolicyGraph::class`] depends on it);
    /// 3. adjacency is symmetric as a *directed pair*: `u → v` exists
    ///    iff `v → u` does (classes may differ — that is the point);
    /// 4. the directed degree sum is twice the cached edge count.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("routing::PolicyGraph");
        let n = self.adj.len();
        let in_range = self
            .adj
            .iter()
            .all(|list| list.iter().all(|&(v, _)| v.index() < n));
        rep.check("policy.ids-in-range", in_range, || {
            format!("a neighbor id is >= {n}")
        });
        if !in_range {
            return rep;
        }
        let sorted = self
            .adj
            .iter()
            .all(|list| list.windows(2).all(|w| w[0].0 < w[1].0));
        rep.check("policy.lists-sorted", sorted, || {
            "an out-edge list is not strictly ascending".into()
        });
        let mut asymmetric = 0usize;
        for (u, list) in self.adj.iter().enumerate() {
            for &(v, _) in list {
                if self.adj[v.index()]
                    .binary_search_by_key(&NodeId(u as u32), |&(w, _)| w)
                    .is_err()
                {
                    asymmetric += 1;
                }
            }
        }
        rep.check("policy.symmetric", asymmetric == 0, || {
            format!("{asymmetric} directed edge(s) without a reverse edge")
        });
        let degree_sum: usize = self.adj.iter().map(Vec::len).sum();
        rep.check("policy.degree-sum", degree_sum == 2 * self.edges, || {
            format!("degree sum {degree_sum}, expected {}", 2 * self.edges)
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use topology::{InternetConfig, Scale};

    fn tiny() -> Internet {
        InternetConfig::scaled(Scale::Tiny).generate(21)
    }

    #[test]
    fn classes_mirror_relationships() {
        let net = tiny();
        let pg = PolicyGraph::new(&net);
        assert_eq!(pg.node_count(), net.graph().node_count());
        assert_eq!(pg.edge_count(), net.graph().edge_count());
        for (a, b, rel) in net.relationships().take(500) {
            let ab = pg.class(a, b).unwrap();
            let ba = pg.class(b, a).unwrap();
            match rel {
                Relationship::CustomerOfB => {
                    assert_eq!(ab, EdgeClass::ToProvider);
                    assert_eq!(ba, EdgeClass::ToCustomer);
                }
                Relationship::ProviderOfB => {
                    assert_eq!(ab, EdgeClass::ToCustomer);
                    assert_eq!(ba, EdgeClass::ToProvider);
                }
                Relationship::Peer => {
                    assert_eq!(ab, EdgeClass::Peer);
                    assert_eq!(ba, EdgeClass::Peer);
                }
                Relationship::IxpMembership => {
                    assert!(
                        (ab == EdgeClass::IntoIxp && ba == EdgeClass::OutOfIxp)
                            || (ab == EdgeClass::OutOfIxp && ba == EdgeClass::IntoIxp)
                    );
                }
            }
        }
    }

    #[test]
    fn class_missing_edge_is_none() {
        let net = tiny();
        let pg = PolicyGraph::new(&net);
        // Two island stubs at the very end of the AS range are connected
        // to each other but not to node 0.
        let n = net.graph().node_count();
        let some_far = NodeId((n - 1) as u32);
        if pg.class(NodeId(0), some_far).is_some() {
            // Extremely unlikely; skip rather than fail spuriously.
            return;
        }
        assert_eq!(pg.class(NodeId(0), some_far), None);
    }

    #[test]
    fn conversion_only_touches_interbroker_transit() {
        let net = tiny();
        let mut pg = PolicyGraph::new(&net);
        let before = pg.clone();
        // Brokers: the provider head (ids 0..40).
        let brokers =
            NodeSet::from_iter_with_capacity(net.graph().node_count(), (0..40).map(NodeId));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let converted = pg.convert_interbroker_to_peering(&brokers, 1.0, &mut rng);
        assert!(converted > 0, "some inter-broker transit links expected");
        // All inter-broker links are now alliance-free.
        for u in 0..40u32 {
            for &(v, cls) in pg.out_edges(NodeId(u)) {
                if brokers.contains(v) {
                    assert_eq!(
                        cls,
                        EdgeClass::AllianceFree,
                        "unconverted inter-broker edge ({u}, {v})"
                    );
                }
            }
        }
        // Edges with a non-broker endpoint are untouched.
        for u in 40..pg.node_count() {
            assert_eq!(
                pg.out_edges(NodeId(u as u32)),
                before.out_edges(NodeId(u as u32))
            );
        }
    }

    #[test]
    fn audit_accepts_and_detects_corruption() {
        use netgraph::Validate;
        let net = tiny();
        let pg = PolicyGraph::new(&net);
        assert!(pg.audit().is_ok());

        // A dangling directed edge: u -> v with no v -> u.
        let mut bad = pg.clone();
        let last = NodeId(bad.adj.len() as u32 - 1);
        bad.adj[0].push((last, EdgeClass::Peer));
        let rep = bad.audit();
        assert!(
            rep.findings.iter().any(|f| {
                f.invariant == "policy.symmetric"
                    || f.invariant == "policy.lists-sorted"
                    || f.invariant == "policy.degree-sum"
            }),
            "{rep}"
        );

        // A neighbor id outside the vertex range short-circuits safely.
        let mut bad = pg.clone();
        bad.adj[0].push((NodeId(u32::MAX), EdgeClass::Peer));
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "policy.ids-in-range"));

        // Cached edge count out of sync with the adjacency.
        let mut bad = pg;
        bad.edges += 1;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "policy.degree-sum"));
    }

    #[test]
    fn conversion_fraction_zero_is_noop() {
        let net = tiny();
        let mut pg = PolicyGraph::new(&net);
        let before = pg.clone();
        let brokers = NodeSet::full(net.graph().node_count());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            pg.convert_interbroker_to_peering(&brokers, 0.0, &mut rng),
            0
        );
        assert_eq!(pg, before);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn conversion_rejects_bad_fraction() {
        let net = tiny();
        let mut pg = PolicyGraph::new(&net);
        let brokers = NodeSet::new(net.graph().node_count());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        pg.convert_interbroker_to_peering(&brokers, 1.5, &mut rng);
    }
}
