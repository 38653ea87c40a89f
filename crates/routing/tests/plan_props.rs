//! Differential property tests for the reconfiguration planner.
//!
//! The planner promises that *every* topological order of a plan's
//! dependency DAG is safe — not just the canonical antichain schedule it
//! executes. These tests replay random plans through an independent
//! step-by-step checker (its own coverage and domination logic, none of
//! the planner's incremental state), driving randomly-chosen topological
//! orders, and also feed tampered plans back through
//! [`ReconfigPlan::from_parts`] expecting typed rejections.

use netgraph::{Graph, GraphBuilder, NodeId, NodeSet, Validate};
use proptest::prelude::*;
use routing::{PlanError, ReconfigPlan, SessionKind, Step};
use std::collections::BTreeSet;
use std::collections::HashSet;

const N: u32 = 14;

/// Assemble an undirected graph from random edge triples (duplicates
/// and self-loops dropped).
fn graph(n: u32, raw: &[(u32, u32)]) -> Graph {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut b = GraphBuilder::new(n as usize);
    for &(x, y) in raw {
        let (u, v) = if x < y { (x, y) } else { (y, x) };
        if u != v && seen.insert((u, v)) {
            b.add_edge(NodeId(u), NodeId(v));
        }
    }
    b.build()
}

fn node_set(n: u32, ids: &HashSet<u32>) -> NodeSet {
    NodeSet::from_iter_with_capacity(n as usize, ids.iter().map(|&i| NodeId(i)))
}

fn session_pairs(raw: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    raw.iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (NodeId(u), NodeId(v)))
        .collect()
}

/// `x` is covered by `set`: in it, or adjacent to a member.
fn covered(g: &Graph, set: &NodeSet, x: NodeId) -> bool {
    set.contains(x) || g.neighbors(x).iter().any(|&b| set.contains(b))
}

/// A random topological order of the plan's DAG: repeatedly pick a
/// ready step, the choice driven by a little multiplicative generator
/// so different seeds explore different orders.
fn random_topo_order(plan: &ReconfigPlan, seed: u64) -> Vec<usize> {
    let count = plan.steps().len();
    let mut indeg: Vec<usize> = (0..count).map(|i| plan.deps(i).len()).collect();
    let mut done = vec![false; count];
    let mut state = seed | 1;
    let mut order = Vec::with_capacity(count);
    while order.len() < count {
        let ready: Vec<usize> = (0..count).filter(|&i| !done[i] && indeg[i] == 0).collect();
        assert!(!ready.is_empty(), "DAG stalled (cycle?)");
        state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let pick = ready[(state % ready.len() as u64) as usize];
        done[pick] = true;
        order.push(pick);
        for j in 0..count {
            if !done[j] && plan.deps(j).contains(&pick) {
                indeg[j] -= 1;
            }
        }
    }
    order
}

/// Independent invariant check of one intermediate state: coverage of
/// doubly-covered vertices, and hop domination of every live session.
fn state_is_safe(
    g: &Graph,
    plan: &ReconfigPlan,
    active: &NodeSet,
    migrated: &[bool],
) -> Result<(), String> {
    let both: Vec<NodeId> = (0..g.node_count() as u32)
        .map(NodeId)
        .filter(|&x| covered(g, plan.current(), x) && covered(g, plan.target(), x))
        .collect();
    for x in both {
        if !covered(g, active, x) {
            return Err(format!("vertex {x} lost coverage"));
        }
    }
    for (si, sess) in plan.sessions().iter().enumerate() {
        let path = match sess.kind {
            SessionKind::Dropped => None,
            SessionKind::Kept => sess.before.as_ref(),
            SessionKind::Migrating { .. } if migrated[si] => sess.after.as_ref(),
            SessionKind::Migrating { .. } => sess.before.as_ref(),
        };
        if let Some(p) = path {
            for w in p.path.windows(2) {
                if !active.contains(w[0]) && !active.contains(w[1]) {
                    return Err(format!("session {si} hop {} - {} undominated", w[0], w[1]));
                }
            }
        }
    }
    Ok(())
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 0..50)
}

fn arb_brokers() -> impl Strategy<Value = HashSet<u32>> {
    proptest::collection::hash_set(0..N, 0..7)
}

proptest! {
    /// Every topological order of a built plan (a) keeps every prefix
    /// state invariant-safe under the independent checker and (b) lands
    /// on exactly the target configuration.
    #[test]
    fn every_topological_order_is_safe(raw in arb_edges(),
                                       cur in arb_brokers(),
                                       tgt in arb_brokers(),
                                       sess in proptest::collection::vec((0..N, 0..N), 0..6),
                                       seed in 0u64..u64::MAX) {
        let g = graph(N, &raw);
        let cur = node_set(N, &cur);
        let tgt = node_set(N, &tgt);
        let pairs = session_pairs(&sess);
        let plan = ReconfigPlan::build(&g, &cur, &tgt, &pairs);
        let plan = match plan {
            Ok(p) => p,
            Err(e) => return Err(format!("in-range inputs must plan: {e}")),
        };
        for round in 0..4u64 {
            let order = random_topo_order(&plan, seed ^ round.wrapping_mul(0xA5A5_5A5A));
            let mut active = cur.clone();
            let mut migrated = vec![false; plan.sessions().len()];
            prop_assert!(state_is_safe(&g, &plan, &active, &migrated).is_ok());
            for &i in &order {
                match plan.steps()[i] {
                    Step::ActivateBroker(b) => {
                        active.insert(b);
                    }
                    Step::DeactivateBroker(b) => {
                        active.remove(b);
                    }
                    Step::MigrateSession { session, .. } => migrated[session] = true,
                }
                if let Err(why) = state_is_safe(&g, &plan, &active, &migrated) {
                    return Err(format!("order {order:?}, after step {i}: {why}"));
                }
            }
            prop_assert_eq!(&active, &tgt);
        }
    }

    /// A built plan round-trips through `from_parts` bit-identically,
    /// and its canonical execution agrees with the certificate.
    #[test]
    fn built_plans_round_trip_and_certify(raw in arb_edges(),
                                          cur in arb_brokers(),
                                          tgt in arb_brokers(),
                                          sess in proptest::collection::vec((0..N, 0..N), 0..6)) {
        let g = graph(N, &raw);
        let cur = node_set(N, &cur);
        let tgt = node_set(N, &tgt);
        let pairs = session_pairs(&sess);
        let plan = match ReconfigPlan::build(&g, &cur, &tgt, &pairs) {
            Ok(p) => p,
            Err(e) => return Err(format!("in-range inputs must plan: {e}")),
        };
        let deps: Vec<BTreeSet<usize>> =
            (0..plan.steps().len()).map(|i| plan.deps(i).clone()).collect();
        let adopted =
            ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, plan.steps().to_vec(), deps);
        let adopted = match adopted {
            Ok(p) => p,
            Err(e) => return Err(format!("own parts rejected: {e}")),
        };
        prop_assert_eq!(adopted.construction_checksum(), plan.construction_checksum());
        prop_assert_eq!(adopted.layers(), plan.layers());
        let rep = plan.certificate(&g).audit();
        prop_assert!(rep.is_ok(), "certificate: {}", rep);
        let trace = plan.execute(&g);
        prop_assert!(trace.cut_audit.is_ok(), "cuts: {}", trace.cut_audit);
    }

    /// Tampering is rejected with the matching typed error: injected
    /// cycles, dropped steps, and stripped dependencies (when the plan
    /// actually needed them).
    #[test]
    fn tampered_plans_are_rejected(raw in arb_edges(),
                                   cur in arb_brokers(),
                                   tgt in arb_brokers(),
                                   sess in proptest::collection::vec((0..N, 0..N), 0..6)) {
        let g = graph(N, &raw);
        let cur = node_set(N, &cur);
        let tgt = node_set(N, &tgt);
        let pairs = session_pairs(&sess);
        let plan = match ReconfigPlan::build(&g, &cur, &tgt, &pairs) {
            Ok(p) => p,
            Err(e) => return Err(format!("in-range inputs must plan: {e}")),
        };
        let steps = plan.steps().to_vec();
        let deps: Vec<BTreeSet<usize>> =
            (0..steps.len()).map(|i| plan.deps(i).clone()).collect();
        prop_assume!(steps.len() >= 2);

        // Two-cycle between the first and last step.
        let mut cyc = deps.clone();
        cyc[0].insert(steps.len() - 1);
        cyc[steps.len() - 1].insert(0);
        let err = ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, steps.clone(), cyc);
        prop_assert!(matches!(err, Err(PlanError::Cycle { .. })), "{:?}", err);

        // Last step dropped (dangling dependencies stripped so the step
        // set mismatch is what gets reported).
        let mut short = steps.clone();
        let dropped = short.pop();
        let kept: Vec<BTreeSet<usize>> = deps[..steps.len() - 1]
            .iter()
            .map(|row| row.iter().copied().filter(|&d| d < steps.len() - 1).collect())
            .collect();
        let err = ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, short, kept);
        match (err, dropped) {
            (Err(PlanError::MissingStep { step }), Some(d)) => prop_assert_eq!(step, d),
            (other, _) => return Err(format!("dropped step not reported: {other:?}")),
        }

        // All dependencies stripped: must be UnsafeOrder whenever the
        // plan had any edges (discovery adds edges only when an
        // ordering constraint demands them).
        let free: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); steps.len()];
        let err = ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, steps, free);
        if plan.edge_count() > 0 {
            prop_assert!(matches!(err, Err(PlanError::UnsafeOrder { .. })), "{:?}", err);
        } else {
            prop_assert!(err.is_ok(), "{:?}", err);
        }
    }
}

/// The planner's own layer schedule is one of the orders the
/// differential checker accepts — pinned on a fixture so a layering
/// regression cannot hide behind the randomized cases.
#[test]
fn canonical_schedule_passes_the_independent_checker() {
    let g = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
    let cur = NodeSet::from_iter_with_capacity(6, [NodeId(1), NodeId(4)]);
    let tgt = NodeSet::from_iter_with_capacity(6, [NodeId(2), NodeId(4)]);
    let pairs = [(NodeId(0), NodeId(3))];
    let plan = ReconfigPlan::build(&g, &cur, &tgt, &pairs).expect("plan");
    let mut active = cur.clone();
    let mut migrated = vec![false; plan.sessions().len()];
    for layer in plan.layers() {
        for &i in layer {
            match plan.steps()[i] {
                Step::ActivateBroker(b) => {
                    active.insert(b);
                }
                Step::DeactivateBroker(b) => {
                    active.remove(b);
                }
                Step::MigrateSession { session, .. } => migrated[session] = true,
            }
        }
        assert!(state_is_safe(&g, &plan, &active, &migrated).is_ok());
    }
    assert_eq!(active, tgt);
}
