//! Scenario: auditing the alliance's failure resilience before signing.
//!
//! A regulator (or a prospective member) asks: if the alliance's top
//! members defect — or random members fail — how much supervised
//! connectivity survives, and how quickly can the coalition repair
//! itself by recruiting replacements? This extends the paper's
//! stability analysis (Theorems 7/8 say nobody *wants* to leave) with a
//! what-if-they-do stress test.
//!
//! Run with: `cargo run --release --example resilience_audit`

use broker_net::prelude::*;
use brokerset::{chaos_trace, greedy_repair, FailureOrder};

fn main() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(2024);
    let g = net.graph();
    let n = g.node_count();
    let k = ((n as f64 * 0.068).round() as usize).max(1);
    let alliance = max_subgraph_greedy(g, k);
    println!(
        "alliance: {} brokers, {:.2}% baseline connectivity\n",
        alliance.len(),
        100.0 * saturated_connectivity(g, alliance.brokers()).fraction
    );

    // Stress test 1: coordinated defection of the founding members.
    // Stress test 2: independent random failures.
    let [targeted, random] = [
        FailureOrder::TargetedBySelectionRank,
        FailureOrder::Random { seed: 7 },
    ]
    .map(|order| {
        let schedule = order.schedule(&alliance, 10);
        chaos_trace(g, &alliance, &schedule, None, SourceMode::Exact)
    });

    println!("{:<14} {:<14} {:<14}", "removed", "targeted", "random");
    for (t, r) in targeted.steps.iter().zip(&random.steps) {
        println!(
            "{:<14} {:<14} {:<14}",
            format!("{:.0}%", 100.0 * t.removed_fraction()),
            format!("{:.2}%", 100.0 * t.saturated),
            format!("{:.2}%", 100.0 * r.saturated),
        );
    }

    // Repair drill: the top 10% of brokers defect; recruit replacements.
    let n_fail = alliance.len() / 10;
    let mut survivors = alliance.brokers().clone();
    let mut failed = NodeSet::new(n);
    for &v in alliance.order().iter().take(n_fail) {
        survivors.remove(v);
        failed.insert(v);
    }
    let broken = saturated_connectivity(g, &survivors).fraction;
    let repaired = greedy_repair(g, &survivors, &failed, n_fail, 11);
    let fixed = saturated_connectivity(g, repaired.brokers()).fraction;
    println!(
        "\nrepair drill: top {n_fail} brokers defect -> {:.2}%; after recruiting\n\
         {n_fail} replacements (defectors excluded) -> {:.2}%",
        100.0 * broken,
        100.0 * fixed
    );
}
