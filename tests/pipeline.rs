//! End-to-end integration: topology generation → broker selection →
//! connectivity evaluation → routing → economics, across crate
//! boundaries, at a scale small enough for CI.

use broker_net::prelude::*;
use brokerset::{
    approx_mcbg, composition_histogram, degree_based, ixp_based, set_cover, tier1_only,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_net() -> Internet {
    InternetConfig::scaled(Scale::Tiny).generate(2014)
}

#[test]
fn headline_result_shape_holds_at_tiny_scale() {
    // The paper's Table 1 shape: tiny broker fractions yield large
    // connectivity fractions, with strong diminishing returns.
    let net = tiny_net();
    let g = net.graph();
    let n = g.node_count();
    let run = max_subgraph_greedy(g, (n as f64 * 0.068) as usize);

    let at = |frac: f64| {
        let k = ((n as f64 * frac) as usize).max(1);
        saturated_connectivity(g, run.truncated(k).brokers()).fraction
    };
    let small = at(0.0019);
    let mid = at(0.019);
    let big = at(0.068);
    assert!(small > 0.02, "0.19% budget gives {small}");
    assert!(mid > 0.60, "1.9% budget gives {mid}");
    assert!(big > 0.97, "6.8% budget gives {big}");
    assert!(small < mid && mid < big);
}

#[test]
fn all_selection_algorithms_produce_valid_sets() {
    let net = tiny_net();
    let g = net.graph();
    let k = 40;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let selections = vec![
        greedy_mcb(g, k),
        max_subgraph_greedy(g, k),
        approx_mcbg(g, k, &ApproxConfig::paper()),
        degree_based(g, k),
        brokerset::pagerank_based(g, k),
        ixp_based(&net, 0),
        tier1_only(&net),
        set_cover(g, &mut rng),
    ];
    for sel in selections {
        assert!(!sel.is_empty(), "{} produced nothing", sel.algorithm());
        // Every broker is a real vertex and the set matches the order.
        assert_eq!(sel.brokers().len(), sel.order().len());
        for &b in sel.order() {
            assert!(b.index() < g.node_count());
        }
        // Connectivity evaluation runs on any of them.
        let rep = saturated_connectivity(g, sel.brokers());
        assert!(rep.fraction >= 0.0 && rep.fraction <= 1.0);
    }
}

#[test]
fn greedy_beats_or_matches_baselines_at_equal_budget() {
    let net = tiny_net();
    let g = net.graph();
    let k = 30;
    let greedy = saturated_connectivity(g, greedy_mcb(g, k).brokers()).fraction;
    let db = saturated_connectivity(g, degree_based(g, k).brokers()).fraction;
    let prb = saturated_connectivity(g, brokerset::pagerank_based(g, k).brokers()).fraction;
    assert!(greedy >= db - 0.02, "greedy {greedy} vs DB {db}");
    assert!(greedy >= prb - 0.02, "greedy {greedy} vs PRB {prb}");
}

#[test]
fn stitched_paths_agree_with_connectivity_report() {
    // If the evaluator says a pair is connected, stitching must find a
    // dominating path, and vice versa (sampled).
    let net = tiny_net();
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 50);
    let comps = brokerset::dominated_components(g, sel.brokers());
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    use rand::Rng;
    for _ in 0..200 {
        let u = NodeId(rng.gen_range(0..g.node_count() as u32));
        let v = NodeId(rng.gen_range(0..g.node_count() as u32));
        if u == v {
            continue;
        }
        let connected = comps.label[u.index()] == comps.label[v.index()]
            && comps.sizes[comps.label[u.index()] as usize] > 1;
        let stitched = broker_net::routing::stitch_path(g, sel.brokers(), u, v);
        assert_eq!(
            connected,
            stitched.is_some(),
            "evaluator and stitcher disagree on ({u}, {v})"
        );
        if let Some(p) = stitched {
            assert!(brokerset::connectivity::is_dominating_path(
                g,
                sel.brokers(),
                &p.path
            ));
        }
    }
}

#[test]
fn composition_spans_kinds_and_includes_ixps() {
    let net = tiny_net();
    let sel = max_subgraph_greedy(net.graph(), 80);
    let hist = composition_histogram(&net, &sel);
    // [tier1, transit, access, content, enterprise, ixp]
    assert!(hist[5] > 0, "no IXPs selected");
    assert!(hist[1] > 0, "no transit selected");
    assert_eq!(hist.iter().sum::<usize>(), sel.len());
}

#[test]
fn snapshot_roundtrip_preserves_selection_results() {
    let net = tiny_net();
    let dir = std::env::temp_dir().join(format!(
        "broker-net-snapshot-roundtrip-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net.json");
    topology::save_snapshot(&net, &path).unwrap();
    let back = topology::load_snapshot(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let a = max_subgraph_greedy(net.graph(), 25);
    let b = max_subgraph_greedy(back.graph(), 25);
    assert_eq!(a.order(), b.order());
}

#[test]
fn economics_pipeline_consumes_measured_coverage() {
    // Coverage-derived coalition values flow into the Shapley split.
    let net = tiny_net();
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 6);
    let players: Vec<NodeId> = sel.order().to_vec();
    let mut table = vec![0.0; 1 << players.len()];
    for (mask, v) in table.iter_mut().enumerate().skip(1) {
        let set = NodeSet::from_iter_with_capacity(
            g.node_count(),
            players
                .iter()
                .enumerate()
                .filter(|&(j, _)| mask >> j & 1 == 1)
                .map(|(_, &p)| p),
        );
        *v = 100.0 * saturated_connectivity(g, &set).fraction;
    }
    let game = economics::coalition::TableGame::new(table);
    let shapley = economics::shapley_exact(&game);
    assert!(shapley.is_efficient(&game, 1e-6));
    // The first-selected broker carries at least an average share of the
    // coalition value (greedy picked it for its coverage, though pure
    // Shapley ordering can differ from selection order).
    let first = shapley.values[0];
    let mean = shapley.values.iter().sum::<f64>() / shapley.values.len() as f64;
    assert!(
        first >= mean - 1e-9,
        "first broker {first} below mean {mean}"
    );
    for &v in &shapley.values {
        assert!(v >= -1e-9, "negative Shapley share {v}");
    }
}
