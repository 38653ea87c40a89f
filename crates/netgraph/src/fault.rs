//! Deterministic fault injection: serializable failure timelines and the
//! per-epoch states that mask them.
//!
//! The resilience experiments need richer failure processes than
//! "remove k brokers": link cuts, IXP outages taking every membership
//! edge down at once, correlated regional failures, and churn where
//! elements *recover*. A [`FaultSchedule`] captures such a process as an
//! epochal event timeline — plain data, serializable, replayable — and a
//! [`crate::MaskedView`] over a [`FaultState`]'s failed vertices and cut
//! edges masks the elements failed at a given epoch, so every engine
//! entry point ([`crate::with_arena`], [`crate::with_msbfs`], the
//! [`crate::par`] executor) runs unchanged over the degraded topology.
//!
//! Three target kinds exist:
//!
//! - **Node** — the vertex vanishes: no edge incident to it survives and
//!   it is not a valid traversal source.
//! - **Edge** — one undirected edge (keyed by [`crate::undirected_key`])
//!   vanishes; both endpoints stay up.
//! - **Broker** — a *role* failure: the vertex stays in the graph and
//!   keeps forwarding, but loses whatever supervisory role the caller
//!   assigned it (broker defection, in the paper's terms). The mask
//!   deliberately ignores broker failures — interpreting the role is the
//!   broker-set layer's job via [`FaultState::failed_brokers`].
//!
//! [`FaultGroup`]s name correlated element sets ("IXP 17 and its
//! membership edges", "region EU") so one event fails or recovers the
//! whole set atomically.
//!
//! Determinism: a schedule is pure data, [`FaultSchedule::state_at`] is a
//! pure function of it, and every consumer below evaluates epochs as pure
//! functions of the state — which is what makes chaos traces bit-identical
//! across thread counts and serialize/deserialize round trips.

use crate::validate::{AuditReport, Validate};
use crate::{undirected_key, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What a fault event does to its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The target fails (idempotent: failing a failed element is a no-op).
    Fail,
    /// The target recovers (idempotent likewise).
    Recover,
}

/// What a fault event hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// Full vertex outage: masked from the graph entirely.
    Node(NodeId),
    /// One undirected edge, keyed as [`crate::undirected_key`] orders it.
    Edge(u32, u32),
    /// Role failure (broker defection): the vertex stays up; only
    /// [`FaultState::failed_brokers`] records it.
    Broker(NodeId),
    /// Index into [`FaultSchedule::groups`]: every member node and edge
    /// fails/recovers atomically.
    Group(usize),
}

/// One timeline entry: at the start of `epoch`, apply `action` to
/// `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Epoch the event takes effect (states at this epoch include it).
    pub epoch: u32,
    /// Fail or recover.
    pub action: FaultAction,
    /// The element (or group) hit.
    pub target: FaultTarget,
}

/// A named set of correlated elements that fail and recover together.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultGroup {
    /// Human-readable label ("ixp-DE-CIX", "region-EU").
    pub name: String,
    /// Member vertices (full outages).
    pub nodes: Vec<NodeId>,
    /// Member undirected edges, keys normalized per
    /// [`crate::undirected_key`].
    pub edges: Vec<(u32, u32)>,
}

impl FaultGroup {
    /// A group over the given members; edge keys are normalized here.
    pub fn new(
        name: impl Into<String>,
        nodes: Vec<NodeId>,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        FaultGroup {
            name: name.into(),
            nodes,
            edges: edges
                .into_iter()
                .map(|(u, v)| undirected_key(u, v))
                .collect(),
        }
    }
}

impl Validate for FaultGroup {
    /// Audit the group against its constructor contract: a non-empty
    /// label and edge keys normalized to `(min, max)` with distinct
    /// endpoints (self-edges cannot exist in the loop-free graphs the
    /// schedule masks).
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("netgraph::FaultGroup");
        rep.check("group.named", !self.name.is_empty(), || {
            "empty group label".into()
        });
        let bad_keys = self.edges.iter().filter(|&&(a, b)| a >= b).count();
        rep.check("group.edge-keys-normalized", bad_keys == 0, || {
            format!("{bad_keys} edge key(s) not strictly (min, max)")
        });
        rep
    }
}

/// A serializable epochal failure timeline over a graph with
/// `node_count` vertices.
///
/// Events are kept sorted by epoch (stable in insertion order within an
/// epoch); the state at epoch `e` is the result of applying every event
/// with `event.epoch <= e` in that order to the all-clear state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    node_count: usize,
    horizon: u32,
    groups: Vec<FaultGroup>,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (one all-clear epoch) over `node_count` vertices.
    pub fn new(node_count: usize) -> Self {
        FaultSchedule {
            node_count,
            horizon: 1,
            groups: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Number of vertices of the graph this schedule applies to.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of epochs to replay: states exist for `0..horizon()`.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Extend the horizon to at least `h` epochs (never shrinks — events
    /// always stay inside the horizon).
    pub fn set_horizon(&mut self, h: u32) {
        self.horizon = self.horizon.max(h);
    }

    /// The event timeline, sorted by epoch.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The correlated failure groups events may reference.
    pub fn groups(&self) -> &[FaultGroup] {
        &self.groups
    }

    /// Register a correlated group; returns its index for
    /// [`FaultTarget::Group`] events.
    pub fn add_group(&mut self, group: FaultGroup) -> usize {
        self.groups.push(group);
        self.groups.len() - 1
    }

    /// Insert an event, keeping the timeline sorted by epoch (stable:
    /// same-epoch events apply in insertion order) and the horizon wide
    /// enough to replay it.
    pub fn schedule(&mut self, epoch: u32, action: FaultAction, target: FaultTarget) {
        let at = self.events.partition_point(|e| e.epoch <= epoch);
        self.events.insert(
            at,
            FaultEvent {
                epoch,
                action,
                target,
            },
        );
        self.set_horizon(epoch + 1);
    }

    /// Fail a vertex outright at `epoch`.
    pub fn fail_node(&mut self, epoch: u32, v: NodeId) {
        self.schedule(epoch, FaultAction::Fail, FaultTarget::Node(v));
    }

    /// Recover a failed vertex at `epoch`.
    pub fn recover_node(&mut self, epoch: u32, v: NodeId) {
        self.schedule(epoch, FaultAction::Recover, FaultTarget::Node(v));
    }

    /// Cut the undirected edge `(u, v)` at `epoch`.
    pub fn fail_edge(&mut self, epoch: u32, u: NodeId, v: NodeId) {
        let (a, b) = undirected_key(u, v);
        self.schedule(epoch, FaultAction::Fail, FaultTarget::Edge(a, b));
    }

    /// Restore the undirected edge `(u, v)` at `epoch`.
    pub fn recover_edge(&mut self, epoch: u32, u: NodeId, v: NodeId) {
        let (a, b) = undirected_key(u, v);
        self.schedule(epoch, FaultAction::Recover, FaultTarget::Edge(a, b));
    }

    /// Broker defection at `epoch`: the vertex stays up, the role fails.
    pub fn fail_broker(&mut self, epoch: u32, v: NodeId) {
        self.schedule(epoch, FaultAction::Fail, FaultTarget::Broker(v));
    }

    /// A defected broker rejoins at `epoch`.
    pub fn recover_broker(&mut self, epoch: u32, v: NodeId) {
        self.schedule(epoch, FaultAction::Recover, FaultTarget::Broker(v));
    }

    /// Fail every member of group `g` at `epoch`.
    pub fn fail_group(&mut self, epoch: u32, g: usize) {
        self.schedule(epoch, FaultAction::Fail, FaultTarget::Group(g));
    }

    /// Recover every member of group `g` at `epoch`.
    pub fn recover_group(&mut self, epoch: u32, g: usize) {
        self.schedule(epoch, FaultAction::Recover, FaultTarget::Group(g));
    }

    /// The failed-element state at `epoch`: all events with
    /// `event.epoch <= epoch` applied in timeline order.
    ///
    /// Pure function of the schedule — random access from any thread
    /// yields the same state the incremental [`FaultSchedule::replay`]
    /// passes for that epoch.
    pub fn state_at(&self, epoch: u32) -> FaultState {
        let mut state = FaultState::all_clear(self.node_count);
        for ev in &self.events {
            if ev.epoch > epoch {
                break;
            }
            state.apply(ev, &self.groups);
        }
        state.epoch = epoch;
        state
    }

    /// Replay the timeline incrementally, invoking `f` once per epoch in
    /// `0..horizon()` with the state at that epoch.
    pub fn replay(&self, mut f: impl FnMut(&FaultState)) {
        let mut state = FaultState::all_clear(self.node_count);
        let mut next = 0usize;
        for epoch in 0..self.horizon {
            while next < self.events.len() && self.events[next].epoch <= epoch {
                state.apply(&self.events[next], &self.groups);
                next += 1;
            }
            state.epoch = epoch;
            f(&state);
        }
    }
}

impl Validate for FaultSchedule {
    fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new("FaultSchedule");
        report.check(
            "events sorted by epoch",
            self.events.windows(2).all(|w| w[0].epoch <= w[1].epoch),
            || "timeline out of order (schedule() keeps it sorted)".into(),
        );
        report.check(
            "events inside horizon",
            self.events.iter().all(|e| e.epoch < self.horizon),
            || format!("event past horizon {} would never replay", self.horizon),
        );
        let n = self.node_count as u32;
        let node_ok = |v: NodeId| v.0 < n;
        let edge_ok = |a: u32, b: u32| a <= b && a < n && b < n;
        report.check(
            "event targets in range",
            self.events.iter().all(|e| match e.target {
                FaultTarget::Node(v) | FaultTarget::Broker(v) => node_ok(v),
                FaultTarget::Edge(a, b) => edge_ok(a, b),
                FaultTarget::Group(g) => g < self.groups.len(),
            }),
            || format!("target outside graph of {n} vertices or group table"),
        );
        report.check(
            "group members in range",
            self.groups.iter().all(|g| {
                g.nodes.iter().all(|&v| node_ok(v)) && g.edges.iter().all(|&(a, b)| edge_ok(a, b))
            }),
            || "group member vertex/edge outside the graph or key unnormalized".into(),
        );
        report
    }
}

/// The set of failed elements at one epoch, derived from a
/// [`FaultSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    epoch: u32,
    failed_nodes: NodeSet,
    failed_edges: BTreeSet<(u32, u32)>,
    failed_brokers: NodeSet,
}

impl FaultState {
    /// The nothing-failed state for a graph of `node_count` vertices.
    pub fn all_clear(node_count: usize) -> Self {
        FaultState {
            epoch: 0,
            failed_nodes: NodeSet::new(node_count),
            failed_edges: BTreeSet::new(),
            failed_brokers: NodeSet::new(node_count),
        }
    }

    /// Epoch this state describes.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Vertices currently down (masked by [`crate::MaskedView`]).
    pub fn failed_nodes(&self) -> &NodeSet {
        &self.failed_nodes
    }

    /// Undirected edges currently cut (masked by [`crate::MaskedView`]).
    pub fn failed_edges(&self) -> &BTreeSet<(u32, u32)> {
        &self.failed_edges
    }

    /// Vertices whose broker role is currently failed (NOT masked by
    /// [`crate::MaskedView`]; the broker-set layer interprets these).
    pub fn failed_brokers(&self) -> &NodeSet {
        &self.failed_brokers
    }

    /// Whether nothing at all is failed.
    pub fn is_clear(&self) -> bool {
        self.failed_nodes.is_empty()
            && self.failed_edges.is_empty()
            && self.failed_brokers.is_empty()
    }

    fn apply(&mut self, ev: &FaultEvent, groups: &[FaultGroup]) {
        let fail = ev.action == FaultAction::Fail;
        match ev.target {
            FaultTarget::Node(v) => {
                set(&mut self.failed_nodes, v, fail);
            }
            FaultTarget::Broker(v) => {
                set(&mut self.failed_brokers, v, fail);
            }
            FaultTarget::Edge(a, b) => {
                if fail {
                    self.failed_edges.insert((a, b));
                } else {
                    self.failed_edges.remove(&(a, b));
                }
            }
            FaultTarget::Group(g) => {
                if let Some(group) = groups.get(g) {
                    for &v in &group.nodes {
                        set(&mut self.failed_nodes, v, fail);
                    }
                    for &e in &group.edges {
                        if fail {
                            self.failed_edges.insert(e);
                        } else {
                            self.failed_edges.remove(&e);
                        }
                    }
                }
            }
        }
    }
}

fn set(s: &mut NodeSet, v: NodeId, on: bool) {
    if on {
        s.insert(v);
    } else {
        s.remove(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use crate::view::{FullView, GraphView, MaskedView};
    use crate::Graph;

    /// The full graph minus the vertices and edges `state` has failed.
    fn masked<'a>(g: &'a Graph, state: &'a FaultState) -> MaskedView<'a, FullView<'a>> {
        MaskedView::new(
            FullView::new(g),
            Some(state.failed_nodes()),
            Some(state.failed_edges()),
        )
    }

    fn collect<V: GraphView>(view: &V, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        view.for_each_neighbor(u, |v| out.push(v));
        out
    }

    fn diamond() -> Graph {
        from_edges(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|(a, b)| (NodeId(a), NodeId(b))),
        )
    }

    #[test]
    fn group_audit_accepts_and_detects_corruption() {
        use crate::Validate;
        let good = FaultGroup {
            name: "region-EU".into(),
            nodes: vec![NodeId(1)],
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(good.audit().is_ok());

        let mut bad = good.clone();
        bad.name.clear();
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "group.named"));

        let mut bad = good.clone();
        bad.edges.push((2, 2)); // self-edge: not strictly (min, max)
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "group.edge-keys-normalized"));

        let mut bad = good;
        bad.edges.push((5, 3)); // reversed key
        assert!(!bad.audit().is_ok());
    }

    #[test]
    fn node_outage_masks_vertex_and_incident_edges() {
        let g = diamond();
        let mut sched = FaultSchedule::new(4);
        sched.fail_node(1, NodeId(2));
        let state = sched.state_at(1);
        let view = masked(&g, &state);
        assert!(!view.contains_node(NodeId(2)));
        assert_eq!(collect(&view, NodeId(1)), vec![NodeId(0)]);
        assert!(collect(&view, NodeId(2)).is_empty());
        assert!(view.is_symmetric());
        // Before the event the view is transparent.
        let clear = sched.state_at(0);
        let view = masked(&g, &clear);
        assert!(view.contains_node(NodeId(2)));
        assert_eq!(collect(&view, NodeId(1)).len(), 2);
    }

    #[test]
    fn edge_cut_and_recovery() {
        let g = diamond();
        let mut sched = FaultSchedule::new(4);
        sched.fail_edge(1, NodeId(1), NodeId(0));
        sched.recover_edge(3, NodeId(0), NodeId(1));
        let cut = sched.state_at(2);
        let view = masked(&g, &cut);
        assert_eq!(collect(&view, NodeId(0)), vec![NodeId(3)]);
        assert_eq!(collect(&view, NodeId(1)), vec![NodeId(2)]);
        let back = sched.state_at(3);
        assert!(back.is_clear());
        let view = masked(&g, &back);
        assert_eq!(collect(&view, NodeId(0)).len(), 2);
    }

    #[test]
    fn broker_defection_does_not_mask_the_graph() {
        let g = diamond();
        let mut sched = FaultSchedule::new(4);
        sched.fail_broker(0, NodeId(1));
        let state = sched.state_at(0);
        assert!(state.failed_brokers().contains(NodeId(1)));
        assert!(!state.is_clear());
        let view = masked(&g, &state);
        assert!(view.contains_node(NodeId(1)));
        assert_eq!(collect(&view, NodeId(1)).len(), 2);
    }

    #[test]
    fn group_fails_and_recovers_atomically() {
        let g = diamond();
        let mut sched = FaultSchedule::new(4);
        let grp = sched.add_group(FaultGroup::new(
            "corner",
            vec![NodeId(3)],
            [(NodeId(1), NodeId(2))],
        ));
        sched.fail_group(1, grp);
        sched.recover_group(2, grp);
        let down = sched.state_at(1);
        assert!(down.failed_nodes().contains(NodeId(3)));
        assert!(down.failed_edges().contains(&(1, 2)));
        let view = masked(&g, &down);
        assert!(collect(&view, NodeId(2)).is_empty()); // 2-1 cut, 2-3 node down
        let up = sched.state_at(2);
        assert!(up.is_clear());
        let _ = g;
    }

    #[test]
    fn replay_matches_state_at_every_epoch() {
        let mut sched = FaultSchedule::new(6);
        let grp = sched.add_group(FaultGroup::new(
            "pair",
            vec![NodeId(4), NodeId(5)],
            std::iter::empty(),
        ));
        sched.fail_node(2, NodeId(0));
        sched.fail_broker(1, NodeId(3));
        sched.fail_group(3, grp);
        sched.recover_node(4, NodeId(0));
        sched.recover_group(5, grp);
        sched.set_horizon(7);
        let mut seen = Vec::new();
        sched.replay(|s| seen.push(s.clone()));
        assert_eq!(seen.len(), 7);
        for (e, s) in seen.iter().enumerate() {
            assert_eq!(s.epoch(), e as u32);
            assert_eq!(*s, sched.state_at(e as u32), "epoch {e}");
        }
        // Horizon end: node 0 and the group are back, broker 3 still out.
        let last = &seen[6];
        assert!(last.failed_nodes().is_empty());
        assert!(last.failed_brokers().contains(NodeId(3)));
    }

    #[test]
    fn events_insert_sorted_and_audit_clean() {
        let mut sched = FaultSchedule::new(8);
        sched.fail_node(5, NodeId(1));
        sched.fail_node(1, NodeId(2));
        sched.fail_node(3, NodeId(3));
        let epochs: Vec<u32> = sched.events().iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![1, 3, 5]);
        assert_eq!(sched.horizon(), 6);
        assert!(sched.audit().is_ok());
    }

    #[test]
    fn audit_catches_out_of_range_targets() {
        let mut sched = FaultSchedule::new(3);
        sched.fail_node(0, NodeId(9));
        assert!(!sched.audit().is_ok());
        let mut sched = FaultSchedule::new(3);
        sched.fail_group(0, 0); // no groups registered
        assert!(!sched.audit().is_ok());
        let mut sched = FaultSchedule::new(3);
        sched.fail_edge(0, NodeId(2), NodeId(1)); // normalized by the API
        assert!(sched.audit().is_ok());
    }

    #[test]
    fn serde_round_trip_is_bit_identical() {
        let mut sched = FaultSchedule::new(5);
        let grp = sched.add_group(FaultGroup::new(
            "g0",
            vec![NodeId(4)],
            [(NodeId(3), NodeId(1))],
        ));
        sched.fail_broker(0, NodeId(0));
        sched.fail_group(1, grp);
        sched.fail_edge(2, NodeId(0), NodeId(2));
        sched.recover_group(3, grp);
        sched.set_horizon(5);
        let json = serde_json::to_string(&sched).expect("serialize");
        let back: FaultSchedule = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, sched);
        let json2 = serde_json::to_string(&back).expect("reserialize");
        assert_eq!(json, json2);
        for e in 0..sched.horizon() {
            assert_eq!(back.state_at(e), sched.state_at(e));
        }
    }

    #[test]
    fn fault_mask_composes_with_engine_and_msbfs() {
        // Path 0-1-2-3-4; cut 2-3 at epoch 1.
        let g = from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))));
        let mut sched = FaultSchedule::new(5);
        sched.fail_edge(1, NodeId(2), NodeId(3));
        let state = sched.state_at(1);
        let view = masked(&g, &state);
        let dist = crate::with_arena(|a| {
            a.run(view, NodeId(0));
            (0..5).map(|v| a.distance(NodeId(v))).collect::<Vec<_>>()
        });
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), None, None]);
        let lanes = crate::msbfs_distances(view, &[NodeId(0), NodeId(4)]);
        assert_eq!(lanes[0], dist);
        assert_eq!(lanes[1], vec![None, None, None, Some(1), Some(0)]);
    }
}
