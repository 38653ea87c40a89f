//! Dataset statistics mirroring Table 2 of the paper.

use crate::taxonomy::{NodeKind, Relationship};
use crate::Internet;
use netgraph::connected_components;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of an [`Internet`] topology, one field per row of
/// the paper's Table 2 plus a few derived quantities used elsewhere in
/// the evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStats {
    /// Number of IXP vertices (paper: 322).
    pub ixps: usize,
    /// Number of AS vertices (paper: 51,757).
    pub ases: usize,
    /// Size of the maximum connected subgraph (paper: 51,895).
    pub giant_component: usize,
    /// Direct AS–AS connections (paper: 347,332).
    pub as_as_edges: usize,
    /// AS–IXP membership links (paper: 55,282).
    pub as_ixp_edges: usize,
    /// Potential AS–AS peerings realizable over shared IXPs, i.e. pairs
    /// of ASes co-located at at least one exchange (paper reports
    /// 292,050 IXP-mediated connections).
    pub ixp_mediated_pairs: u64,
    /// Fraction of ASes directly attached to at least one IXP
    /// (paper: 40.2 %).
    pub frac_as_with_ixp: f64,
    /// Mean vertex degree of the combined graph.
    pub mean_degree: f64,
    /// Maximum vertex degree of the combined graph.
    pub max_degree: usize,
    /// Per-kind vertex counts, in [`NodeKind::all`] order.
    pub kind_counts: [usize; 6],
}

impl TopologyStats {
    /// Compute statistics for a topology.
    pub fn compute(net: &Internet) -> Self {
        let g = net.graph();
        let comps = connected_components(g);
        let giant = comps.giant().map_or(0, |(_, s)| s);

        let mut as_as = 0usize;
        let mut as_ixp = 0usize;
        for (_, _, rel) in net.relationships() {
            if rel == Relationship::IxpMembership {
                as_ixp += 1;
            } else {
                as_as += 1;
            }
        }

        // Pairs of ASes sharing an IXP, deduplicated across exchanges.
        // Exact but quadratic in membership (a 5k-member exchange alone
        // contributes 12.5M raw pairs at full scale); compacting the pair
        // list whenever it grows past a bound keeps peak memory flat
        // instead of materializing all ~10^8 raw pairs at once.
        const COMPACT_AT: usize = 16_000_000;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let compact = |pairs: &mut Vec<(u32, u32)>| {
            pairs.sort_unstable();
            pairs.dedup();
        };
        for v in g.nodes() {
            if net.kind(v) == NodeKind::Ixp {
                let members = g.neighbors(v);
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        pairs.push((a.0.min(b.0), a.0.max(b.0)));
                    }
                }
                if pairs.len() > COMPACT_AT {
                    compact(&mut pairs);
                }
            }
        }
        compact(&mut pairs);
        let ixp_mediated_pairs = pairs.len() as u64;

        let mut member_as = 0usize;
        let mut ases = 0usize;
        for v in g.nodes() {
            if net.kind(v).is_as() {
                ases += 1;
                if g.neighbors(v).iter().any(|&n| net.kind(n) == NodeKind::Ixp) {
                    member_as += 1;
                }
            }
        }

        let mut kind_counts = [0usize; 6];
        for &k in net.kinds() {
            let idx = NodeKind::all().iter().position(|&x| x == k).unwrap_or(0);
            kind_counts[idx] += 1;
        }

        let max_degree = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0);

        TopologyStats {
            ixps: net.ixp_count(),
            ases,
            giant_component: giant,
            as_as_edges: as_as,
            as_ixp_edges: as_ixp,
            ixp_mediated_pairs,
            frac_as_with_ixp: if ases == 0 {
                0.0
            } else {
                member_as as f64 / ases as f64
            },
            mean_degree: g.mean_degree(),
            max_degree,
            kind_counts,
        }
    }

    /// Total vertex count.
    pub fn node_count(&self) -> usize {
        self.ases + self.ixps
    }

    /// Giant component as a fraction of all vertices.
    pub fn giant_component_fraction(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.giant_component as f64 / self.node_count() as f64
        }
    }
}

impl fmt::Display for TopologyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IXPs:                          {}", self.ixps)?;
        writeln!(f, "ASes:                          {}", self.ases)?;
        writeln!(f, "Max connected subgraph:        {}", self.giant_component)?;
        writeln!(f, "AS-AS connections:             {}", self.as_as_edges)?;
        writeln!(f, "AS-IXP connections:            {}", self.as_ixp_edges)?;
        writeln!(
            f,
            "IXP-mediated AS pairs:         {}",
            self.ixp_mediated_pairs
        )?;
        writeln!(
            f,
            "ASes with IXP attachment:      {:.1}%",
            100.0 * self.frac_as_with_ixp
        )?;
        writeln!(f, "Mean degree:                   {:.2}", self.mean_degree)?;
        write!(f, "Max degree:                    {}", self.max_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};
    use netgraph::graph::from_edges;
    use netgraph::NodeId;

    #[test]
    fn stats_on_tiny_fixture() {
        // AS0 -peer- AS1, both members of IXP2; AS3 isolated AS.
        let g = from_edges(
            4,
            [(0, 1), (0, 2), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let net = Internet::from_parts(
            g,
            vec![
                NodeKind::Access,
                NodeKind::Access,
                NodeKind::Ixp,
                NodeKind::Access,
            ],
            vec![
                (NodeId(0), NodeId(1), Relationship::Peer),
                (NodeId(0), NodeId(2), Relationship::IxpMembership),
                (NodeId(1), NodeId(2), Relationship::IxpMembership),
            ],
        );
        let s = net.stats();
        assert_eq!(s.ixps, 1);
        assert_eq!(s.ases, 3);
        assert_eq!(s.as_as_edges, 1);
        assert_eq!(s.as_ixp_edges, 2);
        assert_eq!(s.ixp_mediated_pairs, 1);
        assert_eq!(s.giant_component, 3);
        assert!((s.frac_as_with_ixp - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.node_count(), 4);
        assert!((s.giant_component_fraction() - 0.75).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("ASes:"));
    }

    #[test]
    fn ixp_mediated_pairs_deduped_across_exchanges() {
        // Two IXPs (2, 3) with the same two members (0, 1): one pair.
        let g = from_edges(
            4,
            [(0, 2), (1, 2), (0, 3), (1, 3)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let net = Internet::from_parts(
            g,
            vec![
                NodeKind::Access,
                NodeKind::Access,
                NodeKind::Ixp,
                NodeKind::Ixp,
            ],
            vec![
                (NodeId(0), NodeId(2), Relationship::IxpMembership),
                (NodeId(1), NodeId(2), Relationship::IxpMembership),
                (NodeId(0), NodeId(3), Relationship::IxpMembership),
                (NodeId(1), NodeId(3), Relationship::IxpMembership),
            ],
        );
        assert_eq!(net.stats().ixp_mediated_pairs, 1);
    }

    #[test]
    fn generated_tiny_stats_consistent() {
        let cfg = InternetConfig::scaled(Scale::Tiny);
        let net = cfg.generate(11);
        let s = net.stats();
        assert_eq!(s.ases + s.ixps, cfg.node_count());
        assert_eq!(s.as_as_edges + s.as_ixp_edges, net.graph().edge_count());
        assert!(s.mean_degree > 2.0);
        assert!(s.max_degree > 20);
        assert_eq!(s.kind_counts.iter().sum::<usize>(), cfg.node_count());
    }
}
