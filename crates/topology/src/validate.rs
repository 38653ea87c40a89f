//! Invariant audit for the Internet model ([`Validate`] impl).
//!
//! Re-derives, from the raw graph + metadata, the structural properties
//! the paper's evaluation depends on: the tier-1 clique at the top of
//! the hierarchy, acyclicity of the customer→provider ("money flows up")
//! relation, and the shape of the IXP membership layer. The underlying
//! CSR representation is audited too, so one call covers the whole
//! container.

use crate::{Internet, NodeKind, Relationship, Tier};
use netgraph::NodeId;
pub use netgraph::{debug_validate, AuditReport, Finding, Validate};

impl Validate for Internet {
    /// Audit the topology invariants:
    ///
    /// 1. the underlying graph passes the deep CSR audit;
    /// 2. the kinds cover every vertex;
    /// 3. one relationship is stored per edge;
    /// 4. tier-1 ASes form a clique (full-mesh peering, Section 2);
    /// 5. the customer→provider digraph is acyclic (Gao–Rexford
    ///    hierarchy — a provider cycle would let valley-free paths
    ///    loop);
    /// 6. IXP sanity: memberships join an AS to an IXP (never IXP–IXP),
    ///    peering/transit edges never touch an IXP vertex, and when IXPs
    ///    exist the attachment fraction of ASes stays within the loose
    ///    generator tolerance `(0, 1]`.
    ///
    /// The later checks index by vertex id and pair each edge with its
    /// relationship, so the audit stops after a failure of 1, 2 or 3.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("topology::Internet");
        let g = self.graph();
        rep.absorb(g.audit());
        let n = g.node_count();

        rep.check("meta.kinds-cover", self.kinds().len() == n, || {
            format!("{} kinds for {} vertices", self.kinds().len(), n)
        });
        let codes = self.relationship_codes().len();
        rep.check("rels.cover-edges", codes == g.edge_count(), || {
            format!("{codes} relationships for {} edges", g.edge_count())
        });
        if !rep.is_ok() {
            return rep;
        }

        // Tier-1 clique.
        let t1 = self.tier1s();
        let mut missing = 0usize;
        let mut example = String::new();
        for (i, &u) in t1.iter().enumerate() {
            for &v in &t1[i + 1..] {
                if !g.has_edge(u, v) {
                    missing += 1;
                    if example.is_empty() {
                        example = format!("{} -/- {}", self.name(u), self.name(v));
                    }
                }
            }
        }
        rep.check("tier1.clique", missing == 0, || {
            format!("{missing} missing tier-1 peerings, e.g. {example}")
        });
        rep.check("tier1.nonempty", n == 0 || !t1.is_empty(), || {
            "non-empty topology without any tier-1".into()
        });

        // Customer→provider acyclicity via Kahn's algorithm on the
        // transit digraph (edge customer -> provider).
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for (a, b, rel) in self.relationships() {
            let (c, p) = match rel {
                Relationship::CustomerOfB => (a, b),
                Relationship::ProviderOfB => (b, a),
                Relationship::Peer | Relationship::IxpMembership => continue,
            };
            out[c.index()].push(p.0);
            indeg[p.index()] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &p in &out[v] {
                indeg[p as usize] -= 1;
                if indeg[p as usize] == 0 {
                    queue.push(p as usize);
                }
            }
        }
        rep.check("transit.acyclic", seen == n, || {
            format!("{} vertices sit on customer->provider cycles", n - seen)
        });

        // Transit edges always point up the tier hierarchy (a tier-1 has
        // no provider by definition).
        let t1_with_provider = self
            .relationships()
            .filter(|&(a, b, rel)| {
                let customer = match rel {
                    Relationship::CustomerOfB => a,
                    Relationship::ProviderOfB => b,
                    _ => return false,
                };
                self.tier(customer) == Tier::One
            })
            .count();
        rep.check(
            "transit.tier1-has-no-provider",
            t1_with_provider == 0,
            || format!("{t1_with_provider} tier-1 ASes buy transit"),
        );

        // IXP layer.
        let mut bad_membership = 0usize;
        let mut ixp_on_policy_edge = 0usize;
        for (a, b, rel) in self.relationships() {
            let a_ixp = self.kind(a) == NodeKind::Ixp;
            let b_ixp = self.kind(b) == NodeKind::Ixp;
            match rel {
                Relationship::IxpMembership => {
                    if !(a_ixp ^ b_ixp) {
                        bad_membership += 1;
                    }
                }
                _ => {
                    if a_ixp || b_ixp {
                        ixp_on_policy_edge += 1;
                    }
                }
            }
        }
        rep.check("ixp.membership-shape", bad_membership == 0, || {
            format!("{bad_membership} memberships not AS<->IXP")
        });
        rep.check("ixp.no-policy-edges", ixp_on_policy_edge == 0, || {
            format!("{ixp_on_policy_edge} transit/peer edges touch an IXP vertex")
        });
        if self.ixp_count() > 0 && self.as_count() > 0 {
            let attached = (0..n)
                .filter(|&v| {
                    self.kind(NodeId(v as u32)).is_as()
                        && g.neighbors(NodeId(v as u32))
                            .iter()
                            .any(|&u| self.kind(u) == NodeKind::Ixp)
                })
                .count();
            let fraction = attached as f64 / self.as_count() as f64;
            rep.check(
                "ixp.attachment-fraction",
                fraction > 0.0 && fraction <= 1.0,
                || format!("attachment fraction {fraction} outside (0, 1]"),
            );
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};
    use netgraph::graph::from_edges;

    #[test]
    fn generated_internets_pass() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(7);
        let rep = net.audit();
        assert!(rep.is_ok(), "{rep}");
        assert!(rep.checks > 10);
    }

    #[test]
    fn provider_cycle_detected() {
        // 0 -> 1 -> 2 -> 0 transit cycle (plus the edges to back it).
        let g = from_edges(
            3,
            [(0, 1), (1, 2), (0, 2)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let kinds = vec![NodeKind::Transit; 3];
        let rels = vec![
            (NodeId(0), NodeId(1), Relationship::CustomerOfB),
            (NodeId(1), NodeId(2), Relationship::CustomerOfB),
            (NodeId(0), NodeId(2), Relationship::ProviderOfB),
        ];
        let net = Internet::from_parts(g, kinds, rels);
        let rep = net.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "transit.acyclic"),
            "{rep}"
        );
    }

    #[test]
    fn broken_tier1_clique_detected() {
        // Two tier-1s that do not peer with each other.
        let g = from_edges(3, [(0, 2), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let kinds = vec![NodeKind::Tier1, NodeKind::Tier1, NodeKind::Transit];
        let rels = vec![
            (NodeId(0), NodeId(2), Relationship::ProviderOfB),
            (NodeId(1), NodeId(2), Relationship::ProviderOfB),
        ];
        let net = Internet::from_parts(g, kinds, rels);
        let rep = net.audit();
        assert!(
            rep.findings.iter().any(|f| f.invariant == "tier1.clique"),
            "{rep}"
        );
    }

    #[test]
    fn ixp_policy_edge_detected() {
        // A "peering" with an IXP endpoint is a taxonomy violation.
        let g = from_edges(2, [(0, 1)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let kinds = vec![NodeKind::Access, NodeKind::Ixp];
        let rels = vec![(NodeId(0), NodeId(1), Relationship::Peer)];
        let net = Internet::from_parts(g, kinds, rels);
        let rep = net.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "ixp.no-policy-edges"),
            "{rep}"
        );
    }
}
