//! Export helper: Graphviz DOT.
//!
//! Fig. 1 and Fig. 4 of the paper are topology visualizations; these
//! exporter lets the bench harness dump graphs (optionally with a
//! highlighted broker set) for external rendering.

use crate::{Graph, NodeSet};
use std::fmt::Write as _;

/// Render `g` as an undirected Graphviz DOT document.
///
/// Vertices in `highlight` (e.g. a broker set) are drawn filled. `labels`,
/// when provided, must supply one label per vertex.
///
/// # Panics
///
/// Panics if `labels` is `Some` but its length differs from the vertex
/// count.
pub fn to_dot(g: &Graph, highlight: Option<&NodeSet>, labels: Option<&[String]>) -> String {
    if let Some(labels) = labels {
        assert_eq!(
            labels.len(),
            g.node_count(),
            "labels length must equal node count"
        );
    }
    let mut out = String::new();
    out.push_str("graph topology {\n  node [shape=circle, fontsize=8];\n");
    for v in g.nodes() {
        let mut attrs = Vec::new();
        if let Some(labels) = labels {
            attrs.push(format!("label=\"{}\"", labels[v.index()].replace('"', "'")));
        }
        if highlight.is_some_and(|h| h.contains(v)) {
            attrs.push("style=filled".to_string());
            attrs.push("fillcolor=gold".to_string());
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  {};", v.0);
        } else {
            let _ = writeln!(out, "  {} [{}];", v.0, attrs.join(", "));
        }
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  {} -- {};", u.0, v.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use crate::NodeId;

    #[test]
    fn dot_contains_edges_and_highlights() {
        let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let mut hl = NodeSet::new(3);
        hl.insert(NodeId(1));
        let dot = to_dot(&g, Some(&hl), None);
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert!(dot.contains("1 [style=filled, fillcolor=gold];"));
        assert!(dot.starts_with("graph topology {"));
    }

    #[test]
    fn dot_with_labels() {
        let g = from_edges(2, [(NodeId(0), NodeId(1))]);
        let labels = vec!["AS\"1\"".to_string(), "IXP".to_string()];
        let dot = to_dot(&g, None, Some(&labels));
        assert!(dot.contains("label=\"AS'1'\""));
        assert!(dot.contains("label=\"IXP\""));
    }

    #[test]
    #[should_panic(expected = "labels length")]
    fn dot_label_mismatch_panics() {
        let g = from_edges(2, [(NodeId(0), NodeId(1))]);
        to_dot(&g, None, Some(&["x".to_string()]));
    }
}
