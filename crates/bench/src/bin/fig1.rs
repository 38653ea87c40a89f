//! Fig. 1: structural characterization of the AS-level topology.
//!
//! The paper's Fig. 1 is a visualization showing a scale-free, layered
//! network with IXPs at both core and edge. We print the quantitative
//! fingerprint (degree tail, clustering, k-core layering, diameter, IXP
//! placement across layers) and optionally dump a DOT sample for
//! rendering.
//!
//! Usage: `fig1 [tiny|quarter|full] [seed] [--dot out.dot]`

use bench::{header, pct, ArgExtras, RunConfig};
use netgraph::{coreness, degree_stats, diameter_lower_bound, mean_clustering, NodeSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology::NodeKind;

fn main() {
    let (rc, extra) = RunConfig::from_args_extended(
        ArgExtras {
            value_flags: &["--dot"],
            max_positionals: 0,
        },
        " [--dot out.dot]",
    );
    let net = rc.internet();
    let g = net.graph();
    header("Fig 1", "scale-free, layered structure of the topology");

    let stats = degree_stats(g, 0.02);
    println!(
        "degree: min {}, mean {:.2}, max {}",
        stats.min, stats.mean, stats.max
    );
    if let Some(alpha) = stats.tail_exponent {
        println!(
            "power-law tail exponent (Hill, top {} nodes): {:.2}",
            stats.tail_count, alpha
        );
    }
    println!(
        "mean clustering coefficient: {:.4}",
        clustering_sampled(&net)
    );
    if let Some(r) = netgraph::degree_assortativity(g) {
        println!("degree assortativity: {r:.3} (the Internet is disassortative)");
    }
    println!(
        "diameter (double-sweep lower bound): {}",
        diameter_lower_bound(g).unwrap_or(0)
    );

    // Layering: k-core quartiles, with IXP share per layer — the paper's
    // "IXPs at both its core and edge".
    let core = coreness(g);
    let max_core = *core.iter().max().unwrap_or(&0);
    println!("\nmax coreness: {max_core}");
    println!("{:<12} {:<10} {:<12}", "layer", "nodes", "IXP share");
    let edges = [max_core / 4, max_core / 2, 3 * max_core / 4, max_core + 1];
    let label = ["edge (Q1)", "outer (Q2)", "inner (Q3)", "core (Q4)"];
    for (i, &hi) in edges.iter().enumerate() {
        let lo = if i == 0 { 0 } else { edges[i - 1] };
        let mut nodes = 0usize;
        let mut ixps = 0usize;
        for v in g.nodes() {
            let c = core[v.index()];
            if c >= lo && c < hi.max(lo + 1) {
                nodes += 1;
                if net.kind(v) == NodeKind::Ixp {
                    ixps += 1;
                }
            }
        }
        println!(
            "{:<12} {:<10} {:<12}",
            label[i],
            nodes,
            if nodes == 0 {
                "-".to_string()
            } else {
                pct(ixps as f64 / nodes as f64)
            }
        );
    }

    // Optional DOT export of the core + a neighborhood sample.
    if let Some(path) = extra.flag("--dot") {
        let mut keep = NodeSet::new(g.node_count());
        // Top-coreness vertices plus random edge vertices.
        let mut order: Vec<_> = g.nodes().collect();
        order.sort_by_key(|v| std::cmp::Reverse(core[v.index()]));
        for &v in order.iter().take(60) {
            keep.insert(v);
        }
        use rand::seq::SliceRandom;
        let mut rng = ChaCha8Rng::seed_from_u64(rc.seed);
        order.shuffle(&mut rng);
        for &v in order.iter().take(60) {
            keep.insert(v);
        }
        let (sub, map) = g.induced_subgraph(&keep);
        let labels: Vec<String> = map.iter().map(|&v| net.name(v)).collect();
        let ixps = NodeSet::from_iter_with_capacity(
            sub.node_count(),
            sub.nodes()
                .filter(|&v| net.kind(map[v.index()]) == NodeKind::Ixp),
        );
        std::fs::write(path, netgraph::to_dot(&sub, Some(&ixps), Some(&labels)))
            .expect("write dot file");
        println!("\nwrote DOT sample ({} nodes) to {path}", sub.node_count());
    }
}

/// Clustering on big graphs is quadratic in hub degree; sample the
/// quarter/full scales through an induced subgraph.
fn clustering_sampled(net: &topology::Internet) -> f64 {
    let g = net.graph();
    if g.node_count() <= 2000 {
        return mean_clustering(g);
    }
    use rand::seq::SliceRandom;
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let mut nodes: Vec<_> = g.nodes().collect();
    nodes.shuffle(&mut rng);
    let keep = NodeSet::from_iter_with_capacity(g.node_count(), nodes.into_iter().take(2000));
    let (sub, _) = g.induced_subgraph(&keep);
    mean_clustering(&sub)
}
