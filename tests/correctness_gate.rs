//! Cross-crate correctness gate: re-verify, at the scale the bench
//! harness uses for Table 1, that the claims the crates make about each
//! other actually hold — coverage claims are backed by dominating paths,
//! valley-free paths replay through the phase machine, and Shapley
//! revenue splits are efficient.

use broker_net::prelude::*;
use brokerset::CoverageCertificate;
use routing::{valley_free_path, PathCertificate, PolicyGraph};

/// Every selection algorithm's coverage claims survive independent
/// re-verification on a Table-1-scale topology.
#[test]
fn table1_scale_coverage_claims_verify() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    assert!(net.audit().is_ok(), "{}", net.audit());
    for (alg, sel) in [
        ("maxsg", brokerset::max_subgraph_greedy(g, 40)),
        ("greedy", brokerset::greedy_mcb(g, 40)),
        ("db", brokerset::degree_based(g, 40)),
    ] {
        let rep = sel.audit();
        assert!(rep.is_ok(), "{alg}: {rep}");
        let cert = CoverageCertificate::sampled(g, &sel, 300, 7);
        assert!(
            cert.pair_count() >= 200,
            "{alg}: only {} claimed pairs sampled",
            cert.pair_count()
        );
        let rep = cert.audit();
        assert!(rep.is_ok(), "{alg}: {rep}");
    }
}

/// A full plan (generate → select → evaluate) audits clean end to end.
#[test]
fn full_plan_audits_clean() {
    let plan = BrokeragePlan::build(Scale::Tiny, 7, 40);
    let rep = plan.audit();
    assert!(rep.is_ok(), "{rep}");
    assert!(
        rep.checks > 20,
        "expected a deep audit, got {} checks",
        rep.checks
    );
}

/// Valley-free paths found on a generated Internet certify hop by hop.
#[test]
fn policy_paths_certify_at_scale() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let pg = PolicyGraph::new(&net);
    let n = pg.node_count();
    let mut certified = 0usize;
    for (src, dst) in (0..40).map(|i| (NodeId(i), NodeId((n as u32) - 1 - i))) {
        if let Some(path) = valley_free_path(&pg, src, dst) {
            let rep = PathCertificate::new(&pg, &path).audit();
            assert!(rep.is_ok(), "{src} -> {dst}: {rep}");
            certified += 1;
        }
    }
    assert!(certified > 0, "no valley-free pairs sampled at all");
}

/// The economics layer's Shapley efficiency identity holds on a
/// four-player coalition game.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "R7: the test game is defined by coalition size, |S| = popcount"
)]
fn side_layers_self_audit() {
    let game = economics::coalition::TableGame::new(
        (0u32..16).map(|m| (m.count_ones() as f64).sqrt()).collect(),
    );
    let result = economics::shapley_exact(&game);
    let rep = economics::ShapleyCertificate::new(&game, &result).audit();
    assert!(rep.is_ok(), "{rep}");
}
