//! Valley-free path certificates ([`Validate`] impls).
//!
//! [`PathCertificate`] replays an explicit AS path hop by hop against the
//! Gao–Rexford phase machine ([`crate::valleyfree::step`]), reporting the
//! exact hop where a path stops being valley-free instead of the bare
//! boolean [`crate::valleyfree::is_valley_free`] gives. Routing code that
//! constructs paths (BFS, stitching) hooks this in debug builds so a bad
//! path is caught at the producer, not three crates later.

use crate::policy::PolicyGraph;
use crate::valleyfree::{step, Phase};
use netgraph::NodeId;

pub use netgraph::{debug_validate, AuditReport, Finding, Validate};

/// A claim that `path` is a valley-free walk in `pg`.
#[derive(Debug)]
pub struct PathCertificate<'a> {
    pg: &'a PolicyGraph,
    path: &'a [NodeId],
}

impl<'a> PathCertificate<'a> {
    /// Wrap a path for auditing. The empty path is an invalid claim.
    pub fn new(pg: &'a PolicyGraph, path: &'a [NodeId]) -> Self {
        PathCertificate { pg, path }
    }

    /// Hop count of the claimed path (vertices minus one).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

impl Validate for PathCertificate<'_> {
    /// Replay the path through the phase machine:
    ///
    /// 1. the path is non-empty and every vertex id is in range;
    /// 2. no vertex repeats (valley-free BFS never emits loops);
    /// 3. every hop is a real policy edge;
    /// 4. the phase machine accepts every hop — at most one peering /
    ///    IXP crossing, never uphill after going downhill.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("routing::PathCertificate");
        let n = self.pg.node_count();
        rep.check("path.nonempty", !self.path.is_empty(), || {
            "empty path claimed valley-free".into()
        });
        let oob = self.path.iter().filter(|v| v.index() >= n).count();
        rep.check("path.ids-in-range", oob == 0, || {
            format!("{oob} vertices outside 0..{n}")
        });
        if self.path.is_empty() || oob > 0 {
            return rep;
        }

        let mut seen = vec![false; n];
        let mut repeats = 0usize;
        for &v in self.path {
            if seen[v.index()] {
                repeats += 1;
            }
            seen[v.index()] = true;
        }
        rep.check("path.simple", repeats == 0, || {
            format!("{repeats} repeated vertices")
        });

        let mut phase = Phase::Up;
        for (i, w) in self.path.windows(2).enumerate() {
            let (u, v) = (w[0], w[1]);
            let Some(class) = self.pg.class(u, v) else {
                rep.check("path.edges-exist", false, || {
                    format!("hop {i}: {u} -> {v} is not a policy edge")
                });
                return rep;
            };
            match step(phase, class) {
                Some(next) => phase = next,
                None => {
                    rep.check("path.valley-free", false, || {
                        format!("hop {i}: {u} -> {v} ({class:?}) illegal from {phase:?} phase")
                    });
                    return rep;
                }
            }
        }
        rep.check("path.valley-free", true, String::new);
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valleyfree::{is_valley_free, valley_free_path, valley_free_reach, ReachOptions};
    use netgraph::graph::from_edges;
    use proptest::prelude::*;
    use topology::{Internet, InternetConfig, NodeKind, Relationship, Scale};

    fn fixture() -> PolicyGraph {
        let edges = [
            (0u32, 2u32, Relationship::ProviderOfB),
            (0, 3, Relationship::ProviderOfB),
            (1, 4, Relationship::ProviderOfB),
            (0, 1, Relationship::Peer),
            (2, 5, Relationship::IxpMembership),
            (3, 5, Relationship::IxpMembership),
        ];
        let g = from_edges(6, edges.iter().map(|&(a, b, _)| (NodeId(a), NodeId(b))));
        let kinds = vec![
            NodeKind::Tier1,
            NodeKind::Tier1,
            NodeKind::Access,
            NodeKind::Access,
            NodeKind::Access,
            NodeKind::Ixp,
        ];
        let rels = edges
            .iter()
            .map(|&(a, b, r)| (NodeId(a), NodeId(b), r))
            .collect();
        PolicyGraph::new(&Internet::from_parts(g, kinds, rels))
    }

    #[test]
    fn bfs_paths_certify() {
        let pg = fixture();
        let path = valley_free_path(&pg, NodeId(2), NodeId(4)).expect("reachable");
        let cert = PathCertificate::new(&pg, &path);
        let rep = cert.audit();
        assert!(rep.is_ok(), "{rep}");
        assert_eq!(cert.hops(), 3);
    }

    #[test]
    fn valley_is_pinpointed() {
        let pg = fixture();
        // T0 -> C0 -> IXP: downhill then fabric entry — hop 1 is illegal.
        let path = [NodeId(0), NodeId(2), NodeId(5)];
        let rep = PathCertificate::new(&pg, &path).audit();
        assert!(!rep.is_ok());
        let f = rep
            .findings
            .iter()
            .find(|f| f.invariant == "path.valley-free")
            .expect("valley finding");
        assert!(f.detail.contains("hop 1"), "{rep}");
    }

    #[test]
    fn non_edge_is_pinpointed() {
        let pg = fixture();
        let path = [NodeId(2), NodeId(4)];
        let rep = PathCertificate::new(&pg, &path).audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "path.edges-exist"),
            "{rep}"
        );
    }

    #[test]
    fn empty_path_rejected() {
        let pg = fixture();
        assert!(!PathCertificate::new(&pg, &[]).audit().is_ok());
    }

    proptest! {
        /// Every path the BFS produces on a generated Internet certifies,
        /// and the certificate agrees with `is_valley_free`.
        #[test]
        fn bfs_outputs_always_certify(seed in 0u64..40, src in 0usize..60, dst in 0usize..60) {
            let net = InternetConfig::scaled(Scale::Tiny).generate(seed);
            let pg = PolicyGraph::new(&net);
            let n = pg.node_count();
            let (src, dst) = (NodeId((src % n) as u32), NodeId((dst % n) as u32));
            if let Some(path) = valley_free_path(&pg, src, dst) {
                let rep = PathCertificate::new(&pg, &path).audit();
                prop_assert!(rep.is_ok(), "{}", rep);
                prop_assert!(is_valley_free(&pg, &path));
            }
        }

        /// Grafting an uphill continuation onto a completed (Down-phase)
        /// path manufactures a valley; the certificate must reject it.
        #[test]
        fn injected_valleys_always_rejected(seed in 0u64..20, src in 0usize..40) {
            let net = InternetConfig::scaled(Scale::Tiny).generate(seed);
            let pg = PolicyGraph::new(&net);
            let n = pg.node_count();
            let src = NodeId((src % n) as u32);
            let reach = valley_free_reach(&pg, src, ReachOptions::default());
            // Find a reachable dst whose BFS path ends Down and has a
            // provider to climb to: extend and expect rejection.
            let mut checked = false;
            for dst in (0..n).map(|v| NodeId(v as u32)) {
                if dst == src || !reach.contains(dst) {
                    continue;
                }
                let Some(path) = valley_free_path(&pg, src, dst) else { continue };
                if !is_valley_free(&pg, &path) || path.len() < 2 {
                    continue;
                }
                // Replay to find the final phase.
                let mut phase = Phase::Up;
                for w in path.windows(2) {
                    if let Some(next) = pg.class(w[0], w[1]).and_then(|c| step(phase, c)) {
                        phase = next;
                    }
                }
                if phase != Phase::Down {
                    continue;
                }
                let last = path[path.len() - 1];
                let Some(&(up, _)) = pg
                    .out_edges(last)
                    .iter()
                    .find(|&&(v, c)| {
                        c == crate::policy::EdgeClass::ToProvider && !path.contains(&v)
                    })
                else {
                    continue;
                };
                let mut bad = path.clone();
                bad.push(up);
                let rep = PathCertificate::new(&pg, &bad).audit();
                prop_assert!(!rep.is_ok(), "climbing after descent accepted: {}", rep);
                prop_assert!(!is_valley_free(&pg, &bad));
                checked = true;
                break;
            }
            // Tiny graphs occasionally lack such a pattern from this src;
            // the property only binds when a candidate exists.
            let _ = checked;
        }
    }
}
