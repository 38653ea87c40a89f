//! Property tests of the epochal delta layer: folding a random delta
//! sequence through [`Graph::apply_delta`] must equal a naive reference
//! model that tracks the surviving edge set in a `BTreeSet` — the
//! reference shares no code with the CSR rebuild, so a bookkeeping error
//! in the diff application (tombstone filtering, cut-vs-add precedence,
//! id stability) cannot cancel out.

use netgraph::{undirected_key, Graph, GraphBuilder, GraphDelta, NodeId, Validate};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N: u32 = 12;

/// Raw material for one epoch's delta: fresh-node count plus edge/node
/// edits as unreduced integers (taken modulo the running vertex count at
/// build time, so every epoch's ops are in range by construction).
type RawDelta = (u32, Vec<(u32, u32)>, Vec<(u32, u32)>, Vec<u32>);

fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 0..max_edges)
}

fn arb_deltas() -> impl Strategy<Value = Vec<RawDelta>> {
    proptest::collection::vec(
        (
            0..3u32,
            proptest::collection::vec((0..1000u32, 0..1000u32), 0..6),
            proptest::collection::vec((0..1000u32, 0..1000u32), 0..4),
            proptest::collection::vec(0..1000u32, 0..3),
        ),
        0..6,
    )
}

fn base_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(N as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v));
        }
    }
    b.build()
}

/// Reduce one epoch's raw material into an in-range [`GraphDelta`].
fn lower(raw: &RawDelta, base_nodes: usize) -> GraphDelta {
    let (new_nodes, adds, rems, dead) = raw;
    let mut d = GraphDelta::new(base_nodes);
    for _ in 0..*new_nodes {
        d.add_node();
    }
    let n = d.node_count_after() as u32;
    for &(u, v) in adds {
        d.add_edge(NodeId(u % n), NodeId(v % n));
    }
    for &(u, v) in rems {
        d.remove_edge(NodeId(u % n), NodeId(v % n));
    }
    for &v in dead {
        d.remove_node(NodeId(v % n));
    }
    d
}

/// The reference model: vertex count + surviving normalized edge keys.
struct RefModel {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl RefModel {
    fn of(g: &Graph) -> Self {
        RefModel {
            n: g.node_count(),
            edges: g.edges().map(|(u, v)| undirected_key(u, v)).collect(),
        }
    }

    /// Fixed application order (the documented delta contract): grow,
    /// add edges, cut edges, tombstone vertices.
    fn apply(&mut self, d: &GraphDelta) {
        self.n = d.node_count_after();
        self.edges.extend(d.added_edges().iter().copied());
        for k in d.removed_edges() {
            self.edges.remove(k);
        }
        let dead: BTreeSet<u32> = d.removed_nodes().iter().map(|v| v.0).collect();
        self.edges
            .retain(|&(a, b)| !dead.contains(&a) && !dead.contains(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding deltas through the CSR rebuild equals the BTreeSet model
    /// at every prefix.
    #[test]
    fn apply_delta_matches_reference_at_every_prefix(
        edges in arb_edges(20),
        raws in arb_deltas(),
    ) {
        let mut g = base_graph(&edges);
        let mut model = RefModel::of(&g);
        for raw in &raws {
            let d = lower(raw, g.node_count());
            prop_assert!(d.audit().is_ok());
            let next = g.apply_delta(&d);
            model.apply(&d);

            prop_assert_eq!(next.node_count(), model.n);
            let got: BTreeSet<(u32, u32)> =
                next.edges().map(|(u, v)| undirected_key(u, v)).collect();
            prop_assert_eq!(&got, &model.edges);

            // Tombstones keep their id but lose their adjacency.
            for &v in d.removed_nodes() {
                prop_assert_eq!(next.degree(v), 0);
            }

            g = next;
        }
    }

    /// A delta sequence survives JSON bit-identically: serialize, parse,
    /// reserialize — both the values and the byte strings must match.
    #[test]
    fn delta_stream_json_round_trips_bit_identically(
        edges in arb_edges(16),
        raws in arb_deltas(),
    ) {
        let mut g = base_graph(&edges);
        let mut deltas: Vec<GraphDelta> = Vec::new();
        for raw in &raws {
            let d = lower(raw, g.node_count());
            g = g.apply_delta(&d);
            deltas.push(d);
        }
        let json = serde_json::to_string(&deltas).expect("serialize");
        let back: Vec<GraphDelta> = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(&back, &deltas);
        let again = serde_json::to_string(&back).expect("reserialize");
        prop_assert_eq!(again, json);
    }
}
