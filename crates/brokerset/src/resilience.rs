//! Failure injection: what happens to the alliance's connectivity when
//! brokers fail or defect?
//!
//! The paper's economic analysis (Theorems 7/8) argues no broker *wants*
//! to leave; this module quantifies what the network loses when brokers
//! leave anyway — by targeted attack on the highest-impact members or by
//! random failure — the classic robustness lens on scale-free systems.
//! A [`FailureOrder`] turns a selection into a broker-defection
//! [`FaultSchedule`]; [`crate::chaos_trace`] evaluates it, and
//! [`crate::ChaosStep::removed_fraction`] reads each step's removed share.

use crate::problem::BrokerSelection;
use netgraph::{FaultSchedule, Graph, NodeId, NodeSet};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which brokers are removed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureOrder {
    /// Remove in selection order (highest-impact first — targeted
    /// attack / coordinated defection of the founding members).
    TargetedBySelectionRank,
    /// Remove uniformly at random (independent failures).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl FailureOrder {
    /// The broker-defection schedule that removes `sel`'s brokers in
    /// this order, in `steps` equal batches: epoch `i` opens with the
    /// first `i` batches defected, so epoch 0 is intact and the last
    /// epoch has every broker gone (the last batch may be partial).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn schedule(self, sel: &BrokerSelection, steps: usize) -> FaultSchedule {
        assert!(steps > 0, "need at least one step");
        let mut victims = sel.order().to_vec();
        if let FailureOrder::Random { seed } = self {
            victims.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        }
        let batch = victims.len().div_ceil(steps).max(1);
        let mut schedule = FaultSchedule::new(sel.brokers().capacity());
        for (i, group) in victims.chunks(batch).enumerate() {
            for &v in group {
                schedule.fail_broker(i as u32 + 1, v);
            }
        }
        schedule.set_horizon(victims.len().div_ceil(batch) as u32 + 1);
        schedule
    }
}

/// Repair policy after failures: spend `budget` replacement brokers,
/// chosen greedily by dominated-component growth (the MaxSG step),
/// excluding the failed vertices. Returns the repaired selection.
///
/// Equal-score candidates are broken uniformly at random from a
/// [`ChaCha8Rng`] seeded with `seed` (the same generator
/// [`FailureOrder::Random`] uses), so the result is a pure function of
/// `(g, survivors, failed, budget, seed)` — reproducible from the run
/// record alone, with no caller-supplied generic RNG whose type and
/// internal state would also have to be recorded.
pub fn greedy_repair(
    g: &Graph,
    survivors: &NodeSet,
    failed: &NodeSet,
    budget: usize,
    seed: u64,
) -> BrokerSelection {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Start from the survivors and extend with MaxSG-style picks that
    // avoid the failed vertices.
    let n = g.node_count();
    let mut order: Vec<NodeId> = survivors.iter().collect();
    let mut brokers = survivors.clone();
    for _ in 0..budget {
        let comps = crate::connectivity::dominated_components(g, &brokers);
        let mut best: Option<u64> = None;
        let mut ties: Vec<NodeId> = Vec::new();
        for w in g.nodes() {
            if brokers.contains(w) || failed.contains(w) {
                continue;
            }
            // Size of the merged component around w: every vertex has a
            // component label (isolated vertices are singletons).
            let mut seen: Vec<u32> = Vec::new();
            let mut score = 0u64;
            for v in std::iter::once(w).chain(g.neighbors(w).iter().copied()) {
                let label = comps.label[v.index()];
                if !seen.contains(&label) {
                    seen.push(label);
                    score += comps.sizes[label as usize] as u64;
                }
            }
            if best.is_none_or(|bs| score > bs) {
                best = Some(score);
                ties.clear();
                ties.push(w);
            } else if best == Some(score) {
                ties.push(w);
            }
        }
        if ties.is_empty() {
            break;
        }
        let w = ties[rng.gen_range(0..ties.len())];
        brokers.insert(w);
        order.push(w);
    }
    BrokerSelection::new("greedy-repair", n, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{chaos_trace, ChaosTrace};
    use crate::connectivity::{saturated_connectivity, SourceMode};
    use crate::maxsg::max_subgraph_greedy;
    use topology::{InternetConfig, Scale};

    fn setup() -> (netgraph::Graph, BrokerSelection) {
        let net = InternetConfig::scaled(Scale::Tiny).generate(88);
        let g = net.graph().clone();
        let sel = max_subgraph_greedy(&g, 70);
        (g, sel)
    }

    fn trace(
        g: &Graph,
        sel: &BrokerSelection,
        order: FailureOrder,
        steps: usize,
        max_l: Option<usize>,
    ) -> ChaosTrace {
        chaos_trace(
            g,
            sel,
            &order.schedule(sel, steps),
            max_l,
            SourceMode::Exact,
        )
    }

    #[test]
    fn targeted_failures_degrade_monotonically() {
        let (g, sel) = setup();
        let trace = trace(&g, &sel, FailureOrder::TargetedBySelectionRank, 10, None);
        let connectivity = trace.saturated_curve();
        for w in connectivity.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "connectivity increased under failure");
        }
        // All brokers gone -> nothing dominated.
        assert!(connectivity.last().unwrap() < &1e-9);
        assert_eq!(trace.steps[0].removed_fraction(), 0.0);
        assert!((trace.steps.last().unwrap().removed_fraction() - 1.0).abs() < 1e-12);
        assert!(trace.max_degradation() > 0.5);
    }

    #[test]
    fn targeted_hurts_more_than_random_early() {
        let (g, sel) = setup();
        let targeted = trace(&g, &sel, FailureOrder::TargetedBySelectionRank, 10, None);
        let random = trace(&g, &sel, FailureOrder::Random { seed: 5 }, 10, None);
        // After the first batch (10% of brokers), targeted removal of the
        // founding hubs should hurt at least as much as random removal.
        assert!(
            targeted.steps[1].saturated <= random.steps[1].saturated + 0.05,
            "targeted {} vs random {}",
            targeted.steps[1].saturated,
            random.steps[1].saturated
        );
    }

    #[test]
    fn repair_recovers_connectivity() {
        let (g, sel) = setup();
        // Fail the top 10 brokers.
        let mut survivors = sel.brokers().clone();
        let mut failed = NodeSet::new(g.node_count());
        for &v in sel.order().iter().take(10) {
            survivors.remove(v);
            failed.insert(v);
        }
        let broken = saturated_connectivity(&g, &survivors).fraction;
        let repaired = greedy_repair(&g, &survivors, &failed, 10, 3);
        let fixed = saturated_connectivity(&g, repaired.brokers()).fraction;
        assert!(
            fixed > broken,
            "repair should improve connectivity ({broken} -> {fixed})"
        );
        // Repair never reuses failed vertices.
        for &v in repaired.order() {
            assert!(!failed.contains(v));
        }
    }

    /// Regression pin: `greedy_repair` is a pure function of its `u64`
    /// seed (no caller-supplied RNG can perturb it), so the exact
    /// replacement list for a fixed scenario must never drift.
    #[test]
    fn repair_pinned_by_seed_alone() {
        let (g, sel) = setup();
        let mut survivors = sel.brokers().clone();
        let mut failed = NodeSet::new(g.node_count());
        for &v in sel.order().iter().take(10) {
            survivors.remove(v);
            failed.insert(v);
        }
        let repaired = greedy_repair(&g, &survivors, &failed, 10, 3);
        let replacements: Vec<u32> = repaired.order()[survivors.len()..]
            .iter()
            .map(|v| v.0)
            .collect();
        assert_eq!(
            replacements, PINNED_REPLACEMENTS,
            "greedy_repair(seed=3) output drifted"
        );
        // Same seed, same answer; the seed is the whole story.
        assert_eq!(
            greedy_repair(&g, &survivors, &failed, 10, 3).order(),
            repaired.order()
        );
    }

    /// The replacement brokers `greedy_repair(seed=3)` picks in the
    /// `repair_pinned_by_seed_alone` scenario (tiny topology, seed 88,
    /// MaxSG-70 selection, top-10 failed).
    const PINNED_REPLACEMENTS: [u32; 10] = [1086, 1087, 978, 456, 1089, 911, 140, 27, 827, 408];

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let (_, sel) = setup();
        FailureOrder::TargetedBySelectionRank.schedule(&sel, 0);
    }

    #[test]
    fn lhop_trace_bounded_by_saturated() {
        let (g, sel) = setup();
        let trace = trace(&g, &sel, FailureOrder::TargetedBySelectionRank, 5, Some(6));
        assert_eq!(trace.max_l, Some(6));
        // A hop bound can only lose pairs relative to l -> infinity.
        for step in &trace.steps {
            let l = step.lhop.expect("hop bound requested");
            assert!(l <= step.saturated + 1e-12, "lhop {l} above saturated");
        }
        let lhop: Vec<f64> = trace.steps.iter().filter_map(|s| s.lhop).collect();
        assert!(lhop.last().unwrap() < &1e-9);
        assert!(lhop[0] - lhop.last().unwrap() > 0.0);
    }
}
