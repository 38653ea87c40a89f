//! Coverage-certificate checking ([`Validate`] impls).
//!
//! Selection algorithms *claim* coverage: every ordered pair inside one
//! dominated component is supposed to be joined by a B-dominating path.
//! [`CoverageCertificate`] re-verifies such claims from scratch — an
//! independent BFS over the dominated edge set `{(u, v) : u ∈ B ∨ v ∈ B}`
//! per claimed pair, optionally under the paper's l-hop bound — sharing
//! no code with [`crate::connectivity`]'s component-based evaluation, so
//! a bug in either implementation shows up as a disagreement.

use crate::connectivity::dominated_components;
use crate::problem::BrokerSelection;
use netgraph::{Graph, NodeId, NodeSet};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub use netgraph::{debug_validate, AuditReport, Finding, Validate};

impl Validate for BrokerSelection {
    /// Selection representation sanity: the order list is duplicate-free
    /// and agrees exactly with the membership set.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::BrokerSelection");
        let mut seen = NodeSet::new(self.brokers().capacity());
        let mut dupes = 0usize;
        let mut strays = 0usize;
        for &v in self.order() {
            if !seen.insert(v) {
                dupes += 1;
            }
            if !self.brokers().contains(v) {
                strays += 1;
            }
        }
        rep.check("selection.order-unique", dupes == 0, || {
            format!("{dupes} duplicated brokers in order")
        });
        rep.check("selection.order-in-set", strays == 0, || {
            format!("{strays} ordered brokers missing from the set")
        });
        rep.check(
            "selection.set-size",
            self.brokers().len() == self.order().len(),
            || {
                format!(
                    "set has {} brokers, order has {}",
                    self.brokers().len(),
                    self.order().len()
                )
            },
        );
        rep
    }
}

/// A claim that specific pairs are covered by a broker set, checkable
/// independently of the algorithm that made it.
#[derive(Debug)]
pub struct CoverageCertificate<'a> {
    g: &'a Graph,
    brokers: &'a NodeSet,
    pairs: Vec<(NodeId, NodeId)>,
    max_l: Option<usize>,
}

impl<'a> CoverageCertificate<'a> {
    /// Certificate over an explicit pair list. `max_l = None` checks
    /// saturated (unbounded-length) coverage.
    pub fn new(
        g: &'a Graph,
        brokers: &'a NodeSet,
        pairs: Vec<(NodeId, NodeId)>,
        max_l: Option<usize>,
    ) -> Self {
        CoverageCertificate {
            g,
            brokers,
            pairs,
            max_l,
        }
    }

    /// Sample up to `samples` pairs the component evaluation claims
    /// covered (same dominated component, deterministic seed) and build
    /// a certificate for them.
    pub fn sampled(
        g: &'a Graph,
        selection: &'a BrokerSelection,
        samples: usize,
        seed: u64,
    ) -> Self {
        let comps = dominated_components(g, selection.brokers());
        // Group the vertices of every non-singleton dominated component.
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); comps.count()];
        for v in g.nodes() {
            members[comps.label[v.index()] as usize].push(v);
        }
        members.retain(|m| m.len() >= 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(samples);
        if !members.is_empty() {
            let mut guard = samples * 16 + 64;
            while pairs.len() < samples && guard > 0 {
                guard -= 1;
                let Some(comp) = members.choose(&mut rng) else {
                    break;
                };
                let (Some(&u), Some(&v)) = (comp.choose(&mut rng), comp.choose(&mut rng)) else {
                    break;
                };
                if u != v {
                    pairs.push((u, v));
                }
            }
        }
        CoverageCertificate::new(g, selection.brokers(), pairs, None)
    }

    /// Number of claimed pairs under check.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// BFS over dominated edges from `src`, returning whether `dst` is
    /// reached within `max_l` hops (unbounded when `None`).
    #[expect(
        clippy::disallowed_types,
        reason = "R6: the certificate's BFS shares no code with the engine it checks"
    )]
    fn dominated_reach(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        let n = self.g.node_count();
        let mut dist = vec![u32::MAX; n];
        dist[src.index()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        let limit = self.max_l.map_or(u32::MAX, |l| l as u32);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            if d >= limit {
                continue;
            }
            let u_broker = self.brokers.contains(u);
            for &v in self.g.neighbors(u) {
                // Dominated edge: at least one endpoint is a broker.
                if !u_broker && !self.brokers.contains(v) {
                    continue;
                }
                if dist[v.index()] != u32::MAX {
                    continue;
                }
                if v == dst {
                    return true;
                }
                dist[v.index()] = d + 1;
                queue.push_back(v);
            }
        }
        false
    }
}

impl Validate for CoverageCertificate<'_> {
    /// Re-verify every claimed pair by an independent dominated-edge BFS.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::CoverageCertificate");
        let mut unreachable = 0usize;
        let mut exemplars = Vec::new();
        for &(u, v) in &self.pairs {
            if !self.dominated_reach(u, v) {
                unreachable += 1;
                if exemplars.len() < 4 {
                    exemplars.push(format!("({u}, {v})"));
                }
            }
        }
        let what = match self.max_l {
            Some(l) => format!("within {l} hops"),
            None => "at any length".to_string(),
        };
        rep.check("coverage.pairs-reachable", unreachable == 0, || {
            format!(
                "{unreachable} of {} claimed pairs not B-dominating-reachable {what}: {}",
                self.pairs.len(),
                exemplars.join(", ")
            )
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_mcb;
    use netgraph::graph::from_edges;

    fn star() -> Graph {
        from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))))
    }

    #[test]
    fn selection_audit_passes() {
        let g = star();
        let sel = greedy_mcb(&g, 2);
        let rep = sel.audit();
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn valid_coverage_certificate_passes() {
        let g = star();
        let sel = greedy_mcb(&g, 1);
        let cert = CoverageCertificate::sampled(&g, &sel, 40, 9);
        assert!(cert.pair_count() > 0);
        let rep = cert.audit();
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn bogus_claim_rejected() {
        // Path 0-1-2-3 with NO brokers: nothing is dominated, so any
        // claimed pair must fail re-verification.
        let g = from_edges(
            4,
            [(0, 1), (1, 2), (2, 3)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let empty = NodeSet::new(4);
        let cert = CoverageCertificate::new(&g, &empty, vec![(NodeId(0), NodeId(3))], None);
        let rep = cert.audit();
        assert!(!rep.is_ok());
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "coverage.pairs-reachable"),
            "{rep}"
        );
    }

    #[test]
    fn hop_bound_is_enforced() {
        // Path graph, middle vertices are brokers: 0 to 5 needs 5 hops.
        let g = from_edges(6, (0..5).map(|i| (NodeId(i), NodeId(i + 1))));
        let mut brokers = NodeSet::new(6);
        for i in 1..5 {
            brokers.insert(NodeId(i));
        }
        let pair = vec![(NodeId(0), NodeId(5))];
        let tight = CoverageCertificate::new(&g, &brokers, pair.clone(), Some(5));
        assert!(tight.audit().is_ok());
        let too_tight = CoverageCertificate::new(&g, &brokers, pair, Some(4));
        assert!(!too_tight.audit().is_ok());
    }
}
