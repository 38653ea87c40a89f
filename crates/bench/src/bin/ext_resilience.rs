//! Extension experiment: alliance robustness under broker failures.
//!
//! Targeted defection of the founding members versus random failures,
//! and the recovery achievable with greedy replacement recruiting.
//!
//! Usage: `ext_resilience [tiny|quarter|full] [seed] [--threads N]
//! [--obs PATH]`

use bench::{header, pct, RunConfig};
use brokerset::{
    chaos_trace_threaded, greedy_repair, max_subgraph_greedy, saturated_connectivity, FailureOrder,
    SourceMode,
};
use netgraph::NodeSet;

fn main() {
    let rc = RunConfig::from_args();
    let net = rc.internet();
    let g = net.graph();
    let n = g.node_count();
    header(
        "Extension: resilience",
        "connectivity under broker failures",
    );

    let sel = max_subgraph_greedy(g, rc.budgets(n)[2]);
    // The targeted trace also carries the hop-bounded view: short
    // dominating paths decay before saturated connectivity does. Exact
    // at every step — affordable thanks to the 64-lane msbfs kernel.
    const MAX_L: usize = 6;
    let targeted = chaos_trace_threaded(
        g,
        &sel,
        &FailureOrder::TargetedBySelectionRank.schedule(&sel, 10),
        Some(MAX_L),
        rc.source_mode(),
        rc.threads,
    );
    let random_order = FailureOrder::Random {
        seed: rc.seed ^ 0xfa11,
    };
    let random = chaos_trace_threaded(
        g,
        &sel,
        &random_order.schedule(&sel, 10),
        None,
        SourceMode::Exact,
        rc.threads,
    );

    println!(
        "{:<10} {:<12} {:<12} {:<14}",
        "removed",
        "targeted",
        "random",
        format!("targeted l<={MAX_L}")
    );
    for (t, r) in targeted.steps.iter().zip(&random.steps) {
        println!(
            "{:<10} {:<12} {:<12} {:<14}",
            format!("{:.0}%", 100.0 * t.removed_fraction()),
            pct(t.saturated),
            pct(r.saturated),
            pct(t.lhop.unwrap_or(0.0)),
        );
    }

    // Repair: fail top 10%, recruit the same number of replacements.
    let n_fail = sel.len() / 10;
    let mut survivors = sel.brokers().clone();
    let mut failed = NodeSet::new(n);
    for &v in sel.order().iter().take(n_fail) {
        survivors.remove(v);
        failed.insert(v);
    }
    let broken = saturated_connectivity(g, &survivors).fraction;
    let repaired = greedy_repair(g, &survivors, &failed, n_fail, rc.seed);
    let fixed = saturated_connectivity(g, repaired.brokers()).fraction;
    println!(
        "\nrepair: fail top {n_fail} -> {}; recruit {n_fail} replacements -> {}",
        pct(broken),
        pct(fixed)
    );
    rc.dump_obs("ext_resilience").expect("--obs write failed");
}
