//! Session-level broker failover under a fault schedule.
//!
//! [`crate::failover`] plans a primary/backup dominating-path pair once;
//! this module *replays* such a session against a
//! [`netgraph::FaultSchedule`], epoch by epoch, modeling what a
//! supervised session actually does when the topology degrades:
//!
//! 1. keep using the active path while every hop survives;
//! 2. on a hit, **fail over** to the precomputed edge-disjoint backup if
//!    that still works (fast, local — one retry);
//! 3. otherwise **reroute**: replan primary + backup from scratch over
//!    the degraded dominated edge set (slow, global).
//!
//! Replay is a pure function of `(graphs, brokers, schedule, src, dst)`,
//! so session statistics are deterministic and reproducible from the
//! serialized schedule alone.
//!
//! The topology may *evolve*: the caller supplies one graph (and one
//! broker set) per epoch — typically the materialized prefixes of a
//! `topology::DeltaStream` plus the brokers a
//! `brokerset::BrokerMaintainer` kept per epoch, or a single graph for
//! a static topology — and a session survives an epoch only if every
//! hop's edge still *exists* in that epoch's graph on top of the
//! fault-schedule checks. Churn and faults compose in one timeline: a
//! link the growth model withdraws behaves exactly like a cut the
//! schedule never recovers.

use crate::failover::plan_on;
use crate::plan::{PlanError, ReconfigPlan};
use crate::stitch::StitchedPath;
use netgraph::{
    undirected_key, DominatedView, FaultSchedule, FaultState, Graph, MaskedView, NodeId, NodeSet,
};
use serde::{Deserialize, Serialize};

/// Outcome of replaying one session under a schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionReplay {
    /// Epochs replayed (= schedule horizon).
    pub epochs: u32,
    /// Epochs in which the session had a working dominating path.
    pub connected_epochs: u32,
    /// Switches to the precomputed backup (retries that succeeded
    /// without replanning).
    pub failovers: u32,
    /// Full replans over the degraded topology (excluding the initial
    /// plan).
    pub reroutes: u32,
    /// Epochs in which no dominating path existed at all.
    pub outages: u32,
}

impl SessionReplay {
    /// Fraction of epochs the session stayed connected.
    pub fn availability(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            f64::from(self.connected_epochs) / f64::from(self.epochs)
        }
    }
}

/// Aggregate of `replay_session` over many `(src, dst)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Sessions replayed.
    pub sessions: usize,
    /// Mean per-session availability.
    pub mean_availability: f64,
    /// Total backup switches across sessions.
    pub failovers: u64,
    /// Total replans across sessions.
    pub reroutes: u64,
    /// Sessions that never lost connectivity for a single epoch.
    pub unbroken: usize,
}

/// Replay one supervised session under `schedule`.
///
/// Epoch `e` (for `e` in `0..schedule.horizon()`) runs on
/// `graphs[min(e, graphs.len() - 1)]` with broker set
/// `brokers[min(e, brokers.len() - 1)]` — the last entry extends to the
/// remaining epochs, so a static topology is `std::slice::from_ref(&g)`.
/// Vertex ids are stable across epochs (tombstones keep their id), and
/// the schedule plus every broker set must be sized at the *final*
/// vertex count so fault masks stay in range on every epoch graph.
///
/// Per epoch, brokers that defected or whose vertex is down stop
/// dominating edges; a surviving path must keep every vertex up, every
/// hop uncut, dominated and present in the epoch's graph, and endpoints
/// born in a later epoch are outages until they exist. The session
/// plans lazily: the first epoch's plan is not counted as a reroute.
///
/// # Panics
///
/// Panics if `graphs` or `brokers` is empty.
fn replay_session(
    graphs: &[Graph],
    brokers: &[NodeSet],
    schedule: &FaultSchedule,
    src: NodeId,
    dst: NodeId,
) -> SessionReplay {
    assert!(!graphs.is_empty(), "need at least one epoch graph");
    assert!(!brokers.is_empty(), "need at least one broker set");
    let mut out = SessionReplay {
        epochs: schedule.horizon(),
        connected_epochs: 0,
        failovers: 0,
        reroutes: 0,
        outages: 0,
    };
    // Active path plus the standby it can fail over to.
    let mut active: Option<StitchedPath> = None;
    let mut standby: Option<StitchedPath> = None;
    let mut planned_once = false;
    let mut epoch = 0usize;
    schedule.replay(|state| {
        let g = &graphs[epoch.min(graphs.len() - 1)];
        let bset = &brokers[epoch.min(brokers.len() - 1)];
        epoch += 1;
        let mut alive = bset.clone();
        alive.difference_with(state.failed_brokers());
        alive.difference_with(state.failed_nodes());
        let born = src.index() < g.node_count() && dst.index() < g.node_count();
        if !born || state.failed_nodes().contains(src) || state.failed_nodes().contains(dst) {
            // An endpoint is missing or down: nothing to route, nothing
            // to replan.
            out.outages += 1;
            active = None;
            standby = None;
            return;
        }
        if active
            .as_ref()
            .is_some_and(|p| path_survives(g, &alive, state, &p.path))
        {
            out.connected_epochs += 1;
            return;
        }
        // Primary hit: try the precomputed disjoint backup first.
        if let Some(b) = standby.take() {
            if path_survives(g, &alive, state, &b.path) {
                out.failovers += 1;
                active = Some(b);
                out.connected_epochs += 1;
                return;
            }
        }
        // Both gone: replan over the degraded dominated edge set.
        if planned_once {
            out.reroutes += 1;
            netgraph::counter!("chaos.reroutes", 1);
        }
        planned_once = true;
        let view = MaskedView::new(
            DominatedView::new(g, &alive),
            Some(state.failed_nodes()),
            Some(state.failed_edges()),
        );
        match plan_on(view, &alive, src, dst) {
            Some(plan) => {
                active = Some(plan.primary);
                standby = plan.backup;
                out.connected_epochs += 1;
            }
            None => {
                active = None;
                standby = None;
                out.outages += 1;
            }
        }
    });
    out
}

/// Replay every pair with `replay_session` and aggregate.
pub fn replay_sessions(
    graphs: &[Graph],
    brokers: &[NodeSet],
    schedule: &FaultSchedule,
    pairs: &[(NodeId, NodeId)],
) -> SessionStats {
    let mut stats = SessionStats {
        sessions: pairs.len(),
        mean_availability: 0.0,
        failovers: 0,
        reroutes: 0,
        unbroken: 0,
    };
    let mut avail_sum = 0.0;
    for &(u, v) in pairs {
        let r = replay_session(graphs, brokers, schedule, u, v);
        avail_sum += r.availability();
        stats.failovers += u64::from(r.failovers);
        stats.reroutes += u64::from(r.reroutes);
        if r.connected_epochs == r.epochs {
            stats.unbroken += 1;
        }
    }
    if !pairs.is_empty() {
        stats.mean_availability = avail_sum / pairs.len() as f64;
    }
    stats
}

/// Does `path` still work this epoch? Every vertex up, every hop's edge
/// present in the epoch's graph and uncut (a link the growth model
/// withdrew kills the path exactly like a cut), and every hop dominated
/// by a surviving broker.
fn path_survives(g: &Graph, alive: &NodeSet, state: &FaultState, path: &[NodeId]) -> bool {
    if path.is_empty() || path.iter().any(|&v| state.failed_nodes().contains(v)) {
        return false;
    }
    path.iter().all(|v| v.index() < g.node_count())
        && path.windows(2).all(|w| {
            g.has_edge(w[0], w[1])
                && !state.failed_edges().contains(&undirected_key(w[0], w[1]))
                && (alive.contains(w[0]) || alive.contains(w[1]))
        })
}

/// One planned broker-set transition of a recovery timeline.
#[derive(Debug, Clone)]
pub struct RecoveryTransition {
    /// Epoch whose entry state the plan lands on (the transition runs
    /// between `epoch - 1` and `epoch`).
    pub epoch: u32,
    /// The dependency-DAG plan for the transition.
    pub plan: ReconfigPlan,
}

/// Plan every broker-set transition a fault schedule forces.
///
/// Walks `schedule` epoch by epoch; whenever the surviving broker set
/// (`brokers` minus that epoch's defections) changes, the transition
/// from the previous epoch's set is planned as a dependency DAG over the
/// supervised `pairs` instead of an atomic swap — defections become
/// deactivation waves, recoveries become activation waves, and affected
/// sessions get migration steps ordered so every intermediate state
/// keeps its invariants (see [`crate::plan`]).
///
/// Only broker defections/recoveries are reconfigurations; node and edge
/// faults are environment, not intent, so they do not produce plans.
///
/// # Errors
///
/// Propagates [`PlanError`] from plan construction (ill-formed inputs).
pub fn plan_recovery(
    g: &Graph,
    brokers: &NodeSet,
    schedule: &FaultSchedule,
    pairs: &[(NodeId, NodeId)],
) -> Result<Vec<RecoveryTransition>, PlanError> {
    let mut out = Vec::new();
    let mut prev = brokers.clone();
    for epoch in 0..schedule.horizon() {
        let state = schedule.state_at(epoch);
        let mut alive = brokers.clone();
        alive.difference_with(state.failed_brokers());
        if alive != prev {
            out.push(RecoveryTransition {
                epoch,
                plan: ReconfigPlan::build(g, &prev, &alive, pairs)?,
            });
            prev = alive;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use netgraph::{FaultSchedule, Validate};

    fn replay(
        g: &Graph,
        brokers: &NodeSet,
        sched: &FaultSchedule,
        src: NodeId,
        dst: NodeId,
    ) -> SessionReplay {
        replay_session(
            std::slice::from_ref(g),
            std::slice::from_ref(brokers),
            sched,
            src,
            dst,
        )
    }

    fn cycle4() -> Graph {
        from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|(a, b)| (NodeId(a), NodeId(b))),
        )
    }

    #[test]
    fn stable_session_never_retries() {
        let g = cycle4();
        let mut sched = FaultSchedule::new(4);
        sched.set_horizon(5);
        let r = replay(&g, &NodeSet::full(4), &sched, NodeId(0), NodeId(2));
        assert_eq!(r.epochs, 5);
        assert_eq!(r.connected_epochs, 5);
        assert_eq!(r.failovers, 0);
        assert_eq!(r.reroutes, 0);
        assert_eq!(r.outages, 0);
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn edge_cut_triggers_failover_not_reroute() {
        // 0->2 on the 4-cycle: primary 0-1-2, disjoint backup 0-3-2.
        // Cutting a primary edge must switch to the backup (one
        // failover, no replan).
        let g = cycle4();
        let mut sched = FaultSchedule::new(4);
        sched.fail_edge(1, NodeId(0), NodeId(1));
        sched.set_horizon(3);
        let r = replay(&g, &NodeSet::full(4), &sched, NodeId(0), NodeId(2));
        assert_eq!(r.connected_epochs, 3);
        assert_eq!(r.failovers, 1);
        assert_eq!(r.reroutes, 0);
    }

    #[test]
    fn double_cut_forces_reroute_and_recovery_reconnects() {
        // Cut both 0-1 and 0-3 at epoch 1: no path at all; recover 0-1
        // at epoch 2: the session must replan and reconnect.
        let g = cycle4();
        let mut sched = FaultSchedule::new(4);
        sched.fail_edge(1, NodeId(0), NodeId(1));
        sched.fail_edge(1, NodeId(0), NodeId(3));
        sched.recover_edge(2, NodeId(0), NodeId(1));
        sched.set_horizon(3);
        let r = replay(&g, &NodeSet::full(4), &sched, NodeId(0), NodeId(2));
        assert_eq!(r.outages, 1);
        assert_eq!(r.connected_epochs, 2);
        assert!(r.reroutes >= 1);
    }

    #[test]
    fn broker_defection_breaks_domination() {
        // Path 0-1-2, broker {1} only. When 1 defects, no hop is
        // dominated: outage even though the physical path survives.
        let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let brokers = NodeSet::from_iter_with_capacity(3, [NodeId(1)]);
        let mut sched = FaultSchedule::new(3);
        sched.fail_broker(1, NodeId(1));
        sched.recover_broker(2, NodeId(1));
        sched.set_horizon(3);
        let r = replay(&g, &brokers, &sched, NodeId(0), NodeId(2));
        assert_eq!(r.outages, 1);
        assert_eq!(r.connected_epochs, 2);
    }

    #[test]
    fn endpoint_outage_is_an_outage() {
        let g = cycle4();
        let mut sched = FaultSchedule::new(4);
        sched.fail_node(1, NodeId(2));
        sched.set_horizon(2);
        let r = replay(&g, &NodeSet::full(4), &sched, NodeId(0), NodeId(2));
        assert_eq!(r.connected_epochs, 1);
        assert_eq!(r.outages, 1);
    }

    #[test]
    fn withdrawn_link_behaves_like_a_cut() {
        // Epoch 0: the 4-cycle. Epoch 1+: growth withdraws edge 0-1.
        // Primary 0-1-2 dies to *churn* (no fault anywhere); the session
        // fails over to the disjoint 0-3-2 backup.
        let g0 = cycle4();
        let mut d = netgraph::GraphDelta::new(4);
        d.remove_edge(NodeId(0), NodeId(1));
        let g1 = g0.apply_delta(&d);
        let mut sched = FaultSchedule::new(4);
        sched.set_horizon(3);
        let brokers = NodeSet::full(4);
        let r = replay_session(
            &[g0, g1],
            std::slice::from_ref(&brokers),
            &sched,
            NodeId(0),
            NodeId(2),
        );
        assert_eq!(r.connected_epochs, 3);
        assert_eq!(r.failovers, 1);
        assert_eq!(r.reroutes, 0);
        assert_eq!(r.outages, 0);
    }

    #[test]
    fn late_born_destination_is_outage_until_it_exists() {
        // Epoch 0: path 0-1. Epoch 1+: newborn vertex 2 attaches to 1.
        // Sessions to 2 are outages while it does not exist, then
        // connect; the first plan is not a reroute.
        let g0 = from_edges(2, [(NodeId(0), NodeId(1))]);
        let mut d = netgraph::GraphDelta::new(2);
        let w = d.add_node();
        d.add_edge(w, NodeId(1));
        let g1 = g0.apply_delta(&d);
        // Final vertex count sizes the schedule and the broker set.
        let mut sched = FaultSchedule::new(3);
        sched.set_horizon(3);
        let brokers = NodeSet::full(3);
        let r = replay_session(
            &[g0, g1],
            std::slice::from_ref(&brokers),
            &sched,
            NodeId(0),
            w,
        );
        assert_eq!(r.outages, 1);
        assert_eq!(r.connected_epochs, 2);
        assert_eq!(r.reroutes, 0);
    }

    #[test]
    fn churn_and_faults_compose_in_one_timeline() {
        // Epoch 1 cuts 0-1 by *fault*; epoch 2 withdraws 0-3 by *churn*.
        // Failover eats the fault, the churn then forces a replan that
        // finds nothing (0 is disconnected): one failover, one reroute
        // counted, one outage.
        let g0 = cycle4();
        let mut d = netgraph::GraphDelta::new(4);
        d.remove_edge(NodeId(0), NodeId(3));
        let g1 = g0.apply_delta(&d);
        let graphs = [g0.clone(), g0, g1];
        let mut sched = FaultSchedule::new(4);
        sched.fail_edge(1, NodeId(0), NodeId(1));
        sched.set_horizon(3);
        let brokers = NodeSet::full(4);
        let r = replay_session(
            &graphs,
            std::slice::from_ref(&brokers),
            &sched,
            NodeId(0),
            NodeId(2),
        );
        assert_eq!(r.failovers, 1);
        assert_eq!(r.reroutes, 1);
        assert_eq!(r.outages, 1);
        assert_eq!(r.connected_epochs, 2);
    }

    #[test]
    fn recovery_transitions_are_planned_and_certified() {
        // Broker 1 defects at epoch 1 and recovers at epoch 2: two
        // transitions (deactivation wave, then activation wave), each
        // with a passing certificate and safe cuts.
        let g = cycle4();
        let brokers = NodeSet::full(4);
        let mut sched = FaultSchedule::new(4);
        sched.fail_broker(1, NodeId(1));
        sched.recover_broker(2, NodeId(1));
        sched.set_horizon(3);
        let pairs = [(NodeId(0), NodeId(2))];
        let transitions = plan_recovery(&g, &brokers, &sched, &pairs).expect("plans");
        assert_eq!(transitions.len(), 2);
        assert_eq!(transitions[0].epoch, 1);
        assert_eq!(transitions[1].epoch, 2);
        for t in &transitions {
            let rep = t.plan.certificate(&g).audit();
            assert!(rep.is_ok(), "epoch {}: {rep}", t.epoch);
            let trace = t.plan.execute(&g);
            assert!(trace.cut_audit.is_ok(), "{}", trace.cut_audit);
        }
        // Node/edge faults alone plan nothing.
        let mut quiet = FaultSchedule::new(4);
        quiet.fail_edge(1, NodeId(0), NodeId(1));
        quiet.set_horizon(3);
        assert!(plan_recovery(&g, &brokers, &quiet, &pairs)
            .expect("plans")
            .is_empty());
    }

    #[test]
    fn aggregate_stats_add_up() {
        let g = cycle4();
        let mut sched = FaultSchedule::new(4);
        sched.fail_edge(1, NodeId(0), NodeId(1));
        sched.set_horizon(2);
        let pairs = [(NodeId(0), NodeId(2)), (NodeId(1), NodeId(3))];
        let stats = replay_sessions(
            std::slice::from_ref(&g),
            &[NodeSet::full(4)],
            &sched,
            &pairs,
        );
        assert_eq!(stats.sessions, 2);
        assert!(stats.mean_availability > 0.99);
        assert_eq!(stats.unbroken, 2);
        // Both primaries route through the cut 0-1 edge (BFS discovers
        // lower ids first, so 1-3 plans 1-0-3); both fail over.
        assert_eq!(stats.failovers, 2);
        assert_eq!(stats.reroutes, 0);
    }
}
