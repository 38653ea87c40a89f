//! Extension experiment: alliance stability as the Internet grows.
//!
//! Select the alliance on today's topology (epoch 0), then grow it
//! forward with the seeded [`topology::evolve`] model and, at epochs 8,
//! 16 and 24, measure (a) how much of the epoch-0 alliance is still in
//! that epoch's optimal alliance (Jaccard) and (b) how much connectivity
//! the *old* alliance still delivers on the grown topology without any
//! reselection — the operational question for a coalition whose
//! membership contracts take months to renegotiate. Births append ids
//! and deaths keep theirs, so the epoch-0 alliance needs no id map.
//!
//! Usage: `ext_evolution [tiny|quarter|full] [seed]`

use bench::{header, pct, RunConfig};
use brokerset::{max_subgraph_greedy, saturated_connectivity};
use netgraph::NodeSet;
use topology::{evolve, selection_jaccard, GrowthConfig};

/// Epochs at which the epoch-0 alliance is re-checked (one epoch ≈ one
/// quarter of real time at the calibrated rates, as in `ext_evolve`).
const CHECKPOINTS: [u32; 3] = [8, 16, 24];

fn main() {
    let rc = RunConfig::from_args();
    let net = rc.internet();
    let g = net.graph();
    let n0 = g.node_count();
    header(
        "Extension: evolution",
        "alliance stability under Internet growth",
    );

    let old = max_subgraph_greedy(g, rc.budgets(n0)[2]);
    let old_sat = saturated_connectivity(g, old.brokers()).fraction;
    println!(
        "epoch 0: {n0} nodes, alliance {} brokers, connectivity {}",
        old.len(),
        pct(old_sat)
    );

    // The same growth stream ext_evolve replays.
    let cfg = GrowthConfig::calibrated(CHECKPOINTS[2], n0);
    let stream = evolve(&net, &cfg, rc.seed ^ 0xe70);
    println!(
        "\n{:<8} {:<8} {:<12} {:<14} {:<20}",
        "epoch", "nodes", "jaccard", "old-on-now", "reselection gain"
    );
    let mut grown = g.clone();
    for (d, epoch) in stream.lower().iter().zip(1..) {
        grown = grown.apply_delta(d);
        if !CHECKPOINTS.contains(&epoch) {
            continue;
        }
        let n = grown.node_count();
        let now = max_subgraph_greedy(&grown, rc.budgets(n)[2]);
        let now_sat = saturated_connectivity(&grown, now.brokers()).fraction;
        let old_now = NodeSet::from_iter_with_capacity(n, old.order().iter().copied());
        let jac = selection_jaccard(now.brokers(), &old_now);
        let stale_sat = saturated_connectivity(&grown, &old_now).fraction;
        println!(
            "{:<8} {:<8} {:<12.3} {:<14} {:<20}",
            epoch,
            n,
            jac,
            pct(stale_sat),
            format!("{:+.2} pts", 100.0 * (now_sat - stale_sat))
        );
    }
    println!(
        "\nreading: the alliance core is stable (high overlap), and even a\n\
         six-year-stale alliance keeps most of its connectivity —\n\
         reselection mainly picks up providers of newly attached stubs."
    );
}
