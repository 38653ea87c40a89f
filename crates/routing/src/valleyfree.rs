//! Valley-free (Gao–Rexford) reachability.
//!
//! A path is valley-free when it climbs customer→provider links, crosses
//! at most one peering (an IXP fabric crossing counts as that single
//! peering), and then only descends provider→customer links. Reachability
//! from a source is computed by BFS over `(vertex, phase)` states — two
//! states per vertex, so `O(|V| + |E|)` per source. The state graph is
//! exposed to the shared traversal engine as a [`ValleyFreeView`], so the
//! walk itself is the same arena BFS every other evaluation uses.

use crate::policy::{EdgeClass, PolicyGraph};
use netgraph::{with_arena, GraphView, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// Phase of a valley-free walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Still climbing (only customer→provider hops so far).
    Up,
    /// Past the apex (a peering or a downhill hop happened).
    Down,
}

/// Transition rule: from `phase`, may we traverse an edge of `class`, and
/// in which phase do we arrive?
///
/// Returns `None` when the hop violates valley-freeness.
pub fn step(phase: Phase, class: EdgeClass) -> Option<Phase> {
    match (phase, class) {
        (Phase::Up, EdgeClass::ToProvider) => Some(Phase::Up),
        (Phase::Up, EdgeClass::Peer) => Some(Phase::Down),
        // Entering the exchange fabric is the first half of a peering;
        // we stay Up until we exit toward the far member.
        (Phase::Up, EdgeClass::IntoIxp) => Some(Phase::Up),
        (Phase::Up, EdgeClass::OutOfIxp) => Some(Phase::Down),
        (_, EdgeClass::ToCustomer) => Some(Phase::Down),
        // Converted alliance links carry traffic in any phase and
        // preserve it.
        (phase, EdgeClass::AllianceFree) => Some(phase),
        // Down phase: no more climbing, peering or fabric entry.
        (Phase::Down, _) => None,
    }
}

/// Transition rule inside a brokerage alliance: members have signed
/// mutual transit agreements (Section 7), so a peering or fabric hop
/// *between two alliance members* carries traffic in any phase and does
/// not consume the single valley-free peering step.
///
/// Non-alliance hops fall back to [`step`].
fn step_with_alliance(
    phase: Phase,
    class: EdgeClass,
    u_in_alliance: bool,
    v_in_alliance: bool,
) -> Option<Phase> {
    if u_in_alliance
        && v_in_alliance
        && matches!(
            class,
            EdgeClass::Peer | EdgeClass::IntoIxp | EdgeClass::OutOfIxp
        )
    {
        return Some(phase);
    }
    step(phase, class)
}

/// Options for [`valley_free_reach`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReachOptions<'a> {
    /// When set, only *dominated* hops are allowed: an edge `u → v` is
    /// traversable only if `u` or `v` is a broker.
    pub brokers: Option<&'a NodeSet>,
    /// When set, peer/fabric hops between two members of this set are
    /// phase-preserving (see `step_with_alliance`). Fig. 5b's peering
    /// conversion is evaluated with `alliance = brokers`.
    pub alliance: Option<&'a NodeSet>,
    /// Hop budget (`None` = unbounded).
    pub max_hops: Option<u32>,
}

/// The valley-free `(vertex, phase)` product graph as a
/// [`netgraph::GraphView`]: state `2·v + 1` is vertex `v` in
/// [`Phase::Down`], state `2·v` is `v` in [`Phase::Up`]; an edge exists
/// between states exactly when `step_with_alliance` allows the hop (and
/// the hop is B-dominated, when a broker filter is set).
///
/// Walks start at `2·src` (the `Up` phase); one state transition is one
/// hop, so the engine's depth bound is the hop budget. [`valley_free_reach`]
/// and [`valley_free_path`] add the states they expand to the
/// `valleyfree.state_expansions` counter, once per walk.
#[derive(Debug, Clone, Copy)]
pub struct ValleyFreeView<'a> {
    pg: &'a PolicyGraph,
    opts: ReachOptions<'a>,
}

impl<'a> ValleyFreeView<'a> {
    /// The state graph of `pg` under `opts` (the hop budget in `opts` is
    /// ignored here — pass it to the traversal instead).
    pub fn new(pg: &'a PolicyGraph, opts: ReachOptions<'a>) -> Self {
        ValleyFreeView { pg, opts }
    }

    /// The underlying vertex of state `s`.
    pub fn vertex_of(s: NodeId) -> NodeId {
        NodeId(s.0 / 2)
    }

    /// The start state for walks beginning at `src` (phase `Up`).
    pub fn start_state(src: NodeId) -> NodeId {
        NodeId(2 * src.0)
    }
}

impl GraphView for ValleyFreeView<'_> {
    fn node_count(&self) -> usize {
        2 * self.pg.node_count()
    }

    fn try_for_each_neighbor(
        &self,
        s: NodeId,
        mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let u = ValleyFreeView::vertex_of(s);
        let phase = if s.0 % 2 == 1 { Phase::Down } else { Phase::Up };
        let u_is_broker = self.opts.brokers.is_none_or(|b| b.contains(u));
        let u_in_alliance = self.opts.alliance.is_some_and(|a| a.contains(u));
        for &(v, class) in self.pg.out_edges(u) {
            if let Some(brokers) = self.opts.brokers {
                if !u_is_broker && !brokers.contains(v) {
                    continue;
                }
            }
            let v_in_alliance = self.opts.alliance.is_some_and(|a| a.contains(v));
            let Some(next) = step_with_alliance(phase, class, u_in_alliance, v_in_alliance) else {
                continue;
            };
            visit(NodeId(2 * v.0 + u32::from(next == Phase::Down)))?;
        }
        ControlFlow::Continue(())
    }
}

/// Set of vertices reachable from `src` by valley-free paths (optionally
/// also B-dominated and hop-bounded). `src` itself is included.
pub fn valley_free_reach(pg: &PolicyGraph, src: NodeId, opts: ReachOptions<'_>) -> NodeSet {
    let n = pg.node_count();
    let mut reached = NodeSet::new(n);
    let view = ValleyFreeView::new(pg, opts);
    let max_hops = opts.max_hops.unwrap_or(u32::MAX);
    with_arena(|arena| {
        arena.run_bounded(view, ValleyFreeView::start_state(src), max_hops);
        // The engine expands every visited state short of the hop budget.
        let mut expanded = 0u64;
        for &s in arena.visit_order() {
            reached.insert(ValleyFreeView::vertex_of(s));
            expanded += u64::from(arena.distance(s).is_some_and(|d| d < max_hops));
        }
        let () = netgraph::counter!("valleyfree.state_expansions", expanded);
    });
    reached
}

/// One valley-free path from `src` to `dst`, if any (shortest in hops).
pub fn valley_free_path(pg: &PolicyGraph, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let view = ValleyFreeView::new(pg, ReachOptions::default());
    let states = with_arena(|arena| {
        let hit = arena.run_to_target(view, ValleyFreeView::start_state(src), |s| {
            ValleyFreeView::vertex_of(s) == dst
        });
        // The engine expands states in visit order, up to and including
        // the one whose edge discovered the hit (all of them on a miss).
        let order = arena.visit_order();
        let expanded = match hit.and_then(|h| arena.parent(h)) {
            Some(p) => order.iter().position(|&s| s == p).map_or(0, |i| i + 1),
            None => order.len(),
        };
        let () = netgraph::counter!("valleyfree.state_expansions", expanded as u64);
        arena.path_to(hit?)
    })?;
    let path: Vec<NodeId> = states
        .iter()
        .map(|&s| ValleyFreeView::vertex_of(s))
        .collect();
    netgraph::validate::debug_validate(&crate::validate::PathCertificate::new(pg, &path));
    Some(path)
}

/// Verify that an explicit path is valley-free under `pg`'s edge classes.
///
/// Returns `false` for empty paths and paths using non-edges.
pub fn is_valley_free(pg: &PolicyGraph, path: &[NodeId]) -> bool {
    if path.is_empty() {
        return false;
    }
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let Some(class) = pg.class(w[0], w[1]) else {
            return false;
        };
        match step(phase, class) {
            Some(next) => phase = next,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use topology::{Internet, NodeKind, Relationship};

    /// Hand-built fixture:
    ///
    /// ```text
    ///        T0 ===peer=== T1          (providers)
    ///       /  \            \
    ///      C0   C1           C2        (customers / stubs)
    ///      |                           C0 also member of IXP X with C1
    ///      X(ixp) --- C1
    /// ```
    fn fixture() -> (Internet, PolicyGraph) {
        let edges = [
            (0u32, 2u32, Relationship::ProviderOfB), // T0 provider of C0
            (0, 3, Relationship::ProviderOfB),       // T0 provider of C1
            (1, 4, Relationship::ProviderOfB),       // T1 provider of C2
            (0, 1, Relationship::Peer),              // T0 -- T1
            (2, 5, Relationship::IxpMembership),     // C0 at IXP
            (3, 5, Relationship::IxpMembership),     // C1 at IXP
        ];
        let g = from_edges(6, edges.iter().map(|&(a, b, _)| (NodeId(a), NodeId(b))));
        let kinds = vec![
            NodeKind::Tier1,
            NodeKind::Tier1,
            NodeKind::Access,
            NodeKind::Access,
            NodeKind::Access,
            NodeKind::Ixp,
        ];
        let rels = edges
            .iter()
            .map(|&(a, b, r)| (NodeId(a), NodeId(b), r))
            .collect();
        let net = Internet::from_parts(g, kinds, rels);
        let pg = PolicyGraph::new(&net);
        (net, pg)
    }

    #[test]
    fn step_table() {
        assert_eq!(step(Phase::Up, EdgeClass::ToProvider), Some(Phase::Up));
        assert_eq!(step(Phase::Up, EdgeClass::Peer), Some(Phase::Down));
        assert_eq!(step(Phase::Up, EdgeClass::ToCustomer), Some(Phase::Down));
        assert_eq!(step(Phase::Down, EdgeClass::ToCustomer), Some(Phase::Down));
        assert_eq!(step(Phase::Down, EdgeClass::ToProvider), None);
        assert_eq!(step(Phase::Up, EdgeClass::AllianceFree), Some(Phase::Up));
        assert_eq!(
            step(Phase::Down, EdgeClass::AllianceFree),
            Some(Phase::Down)
        );
        assert_eq!(step(Phase::Down, EdgeClass::Peer), None);
        assert_eq!(step(Phase::Down, EdgeClass::IntoIxp), None);
        assert_eq!(step(Phase::Up, EdgeClass::IntoIxp), Some(Phase::Up));
        assert_eq!(step(Phase::Up, EdgeClass::OutOfIxp), Some(Phase::Down));
    }

    #[test]
    fn customer_reaches_via_provider_and_peer() {
        let (_, pg) = fixture();
        // C0 -> T0 -> T1 -> C2: up, peer, down — valid.
        let reach = valley_free_reach(&pg, NodeId(2), ReachOptions::default());
        assert!(reach.contains(NodeId(4)));
        let path = valley_free_path(&pg, NodeId(2), NodeId(4)).unwrap();
        assert_eq!(path, vec![NodeId(2), NodeId(0), NodeId(1), NodeId(4)]);
        assert!(is_valley_free(&pg, &path));
    }

    #[test]
    fn ixp_crossing_counts_as_single_peering() {
        let (_, pg) = fixture();
        // C0 -> IXP -> C1 is a single peering: valid.
        let path = valley_free_path(&pg, NodeId(2), NodeId(3)).unwrap();
        assert!(is_valley_free(&pg, &path));
        // But C0 -> IXP -> C1 -> T0 would climb after a peering: the
        // reach from C0 must NOT include T1 via the IXP + C1 + T0 + peer
        // route... T1 is still reachable via C0's own provider though.
        // Check instead that a manual invalid path is rejected:
        assert!(!is_valley_free(
            &pg,
            &[NodeId(2), NodeId(5), NodeId(3), NodeId(0)]
        ));
    }

    #[test]
    fn no_valley_through_customer() {
        let (_, pg) = fixture();
        // T0 -> C0 -> IXP -> C1 (down then peer) is a valley: invalid.
        assert!(!is_valley_free(
            &pg,
            &[NodeId(0), NodeId(2), NodeId(5), NodeId(3)]
        ));
        // Two peerings: C0 -IXP- C1 then C1->T0 peer? T0--T1 peer after
        // OutOfIxp is Down: invalid.
        assert!(!is_valley_free(
            &pg,
            &[NodeId(2), NodeId(5), NodeId(3), NodeId(0), NodeId(1)]
        ));
    }

    #[test]
    fn provider_reaches_customers_downhill() {
        let (_, pg) = fixture();
        let reach = valley_free_reach(&pg, NodeId(0), ReachOptions::default());
        for v in [1u32, 2, 3, 4] {
            assert!(reach.contains(NodeId(v)), "T0 should reach n{v}");
        }
    }

    #[test]
    fn domination_filter_blocks_unbrokered_hops() {
        let (_, pg) = fixture();
        // Brokers = {T0}: hop T1 -> C2 has no broker endpoint.
        let brokers = NodeSet::from_iter_with_capacity(6, [NodeId(0)]);
        let reach = valley_free_reach(
            &pg,
            NodeId(2),
            ReachOptions {
                brokers: Some(&brokers),
                alliance: None,
                max_hops: None,
            },
        );
        assert!(reach.contains(NodeId(1))); // T0-T1 dominated by T0
        assert!(!reach.contains(NodeId(4))); // T1-C2 not dominated
    }

    #[test]
    fn hop_budget_respected() {
        let (_, pg) = fixture();
        let reach = valley_free_reach(
            &pg,
            NodeId(2),
            ReachOptions {
                brokers: None,
                alliance: None,
                max_hops: Some(1),
            },
        );
        assert!(reach.contains(NodeId(0)));
        assert!(!reach.contains(NodeId(1)));
    }

    #[test]
    fn path_to_self_and_unreachable() {
        let (_, pg) = fixture();
        assert_eq!(
            valley_free_path(&pg, NodeId(2), NodeId(2)).unwrap(),
            vec![NodeId(2)]
        );
        // C2's valley-free world: C2 -> T1 -> (peer T0) -> customers; IXP
        // unreachable? C2 -> T1 -> T0 -> C0 -> IXP would be Down then
        // IntoIxp: invalid. So IXP (5) unreachable from C2.
        assert!(valley_free_path(&pg, NodeId(4), NodeId(5)).is_none());
        assert!(!is_valley_free(&pg, &[]));
    }
}
