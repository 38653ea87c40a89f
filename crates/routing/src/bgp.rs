//! BGP-style route selection under Gao–Rexford preferences.
//!
//! The brokerage scheme runs *in parallel to BGP* (Section 1), so the
//! examples and extension experiments need the BGP default path to
//! compare against. This module computes, per destination, the route
//! every AS would select under the standard policy model:
//!
//! 1. prefer routes learned from customers over peers over providers
//!    (economics: customer routes earn money);
//! 2. among equals, prefer the shortest AS path;
//! 3. tie-break deterministically on the lower next-hop id.
//!
//! Routes propagate by export rules: routes are advertised to customers
//! always, but only customer-learned routes go to peers and providers.
//! Computation is the classic three-stage relaxation (customers up,
//! peers across, providers down), `O(|V| + |E|)` per destination.

use crate::policy::{EdgeClass, PolicyGraph};
use netgraph::{NodeId, NodeSet};
use serde::{Deserialize, Serialize};

/// How a route was learned, in preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RouteClass {
    /// Destination is this AS itself.
    SelfRoute,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer / over an exchange.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
}

/// The routing table toward one destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTable {
    /// The destination AS.
    pub destination: NodeId,
    /// Per node: the selected route, if the destination is reachable.
    routes: Vec<Option<Route>>,
}

/// One selected route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Preference class of the route.
    pub class: RouteClass,
    /// AS-path length in hops.
    pub path_len: u32,
    /// The neighbor the traffic is forwarded to (self for the
    /// destination).
    pub next_hop: NodeId,
}

impl RouteTable {
    /// The route selected at `v`, if any.
    pub fn route(&self, v: NodeId) -> Option<Route> {
        self.routes[v.index()]
    }

    /// Walk next-hops from `src` to the destination; `None` if
    /// unreachable. The walk is cycle-free by construction of the
    /// preference lattice.
    fn path_from(&self, src: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        let mut guard = self.routes.len() + 1;
        while cur != self.destination {
            let r = self.routes[cur.index()]?;
            cur = r.next_hop;
            path.push(cur);
            let Some(g) = guard.checked_sub(1) else {
                debug_assert!(false, "next-hop walk cycled");
                return None;
            };
            guard = g;
        }
        Some(path)
    }

    /// Number of nodes with a route to the destination (including it).
    pub fn reachable_count(&self) -> usize {
        self.routes.iter().flatten().count()
    }
}

/// Compute every AS's BGP route toward `dst`.
fn bgp_routes(pg: &PolicyGraph, dst: NodeId) -> RouteTable {
    let n = pg.node_count();
    let mut routes: Vec<Option<Route>> = vec![None; n];
    routes[dst.index()] = Some(Route {
        class: RouteClass::SelfRoute,
        path_len: 0,
        next_hop: dst,
    });

    // Stage 1 — customer routes: propagate along ToCustomer edges
    // reversed, i.e. from a node to its *providers* (the provider learns
    // a customer route). Chaotic worklist iteration: `better()` is a
    // strict improvement in a finite lattice, so the relaxation reaches
    // the same unique fixed point in any processing order (LIFO here).
    let mut worklist = vec![dst];
    while let Some(u) = worklist.pop() {
        let Some(base) = routes[u.index()] else {
            debug_assert!(false, "queued node {u:?} has no route");
            continue;
        };
        for &(v, class) in pg.out_edges(u) {
            // u advertises to v; v learns a customer route when u is v's
            // customer, i.e. the edge u -> v is ToProvider.
            if class != EdgeClass::ToProvider {
                continue;
            }
            let cand = Route {
                class: RouteClass::Customer,
                path_len: base.path_len + 1,
                next_hop: u,
            };
            if better(cand, routes[v.index()]) {
                routes[v.index()] = Some(cand);
                worklist.push(v);
            }
        }
    }

    // Stage 2 — peer routes: a node with a self/customer route exports it
    // across one peer/exchange hop.
    let snapshot: Vec<Option<Route>> = routes.clone();
    for (u, entry) in snapshot.iter().enumerate() {
        let Some(base) = entry else { continue };
        if !matches!(base.class, RouteClass::SelfRoute | RouteClass::Customer) {
            continue;
        }
        let u = NodeId::from(u);
        for &(v, class) in pg.out_edges(u) {
            let hop = match class {
                EdgeClass::Peer | EdgeClass::AllianceFree => 1,
                // Crossing an exchange: AS -> IXP -> AS costs two graph
                // hops; handle the IXP as a relay below.
                EdgeClass::IntoIxp => {
                    // Give the IXP vertex itself a peer route so stage 3
                    // can't leak through it; real ASes behind it are
                    // handled via the relay loop after this one.
                    1
                }
                _ => continue,
            };
            let cand = Route {
                class: RouteClass::Peer,
                path_len: base.path_len + hop,
                next_hop: u,
            };
            if better(cand, routes[v.index()]) {
                routes[v.index()] = Some(cand);
            }
        }
    }
    // Exchange relay: members across an IXP from a customer-route holder
    // get a peer route (AS—IXP—AS = one business peering, two hops).
    for (u, entry) in snapshot.iter().enumerate() {
        let Some(base) = entry else { continue };
        if !matches!(base.class, RouteClass::SelfRoute | RouteClass::Customer) {
            continue;
        }
        let u = NodeId::from(u);
        for &(ixp, class) in pg.out_edges(u) {
            if class != EdgeClass::IntoIxp {
                continue;
            }
            for &(v, back) in pg.out_edges(ixp) {
                if back != EdgeClass::OutOfIxp || v == u {
                    continue;
                }
                let cand = Route {
                    class: RouteClass::Peer,
                    path_len: base.path_len + 2,
                    next_hop: ixp,
                };
                if better(cand, routes[v.index()]) {
                    routes[v.index()] = Some(cand);
                }
            }
        }
    }

    // Stage 3 — provider routes: any route holder exports to customers;
    // customers re-export provider routes to *their* customers. Same
    // order-independent fixed-point argument as stage 1.
    let mut worklist: Vec<NodeId> = (0..n)
        .filter(|&v| routes[v].is_some())
        .map(NodeId::from)
        .collect();
    while let Some(u) = worklist.pop() {
        let Some(base) = routes[u.index()] else {
            debug_assert!(false, "queued node {u:?} has no route");
            continue;
        };
        for &(v, class) in pg.out_edges(u) {
            // u advertises to its customer v: edge u -> v is ToCustomer.
            if class != EdgeClass::ToCustomer {
                continue;
            }
            let cand = Route {
                class: RouteClass::Provider,
                path_len: base.path_len + 1,
                next_hop: u,
            };
            if better(cand, routes[v.index()]) {
                routes[v.index()] = Some(cand);
                worklist.push(v);
            }
        }
    }

    RouteTable {
        destination: dst,
        routes,
    }
}

/// Preference order: class first, then path length, then next-hop id.
fn better(cand: Route, cur: Option<Route>) -> bool {
    match cur {
        None => true,
        Some(cur) => {
            (cand.class, cand.path_len, cand.next_hop) < (cur.class, cur.path_len, cur.next_hop)
        }
    }
}

/// Fraction of BGP default paths (over sampled destinations) that are
/// already B-dominated — how much supervision the alliance gets "for
/// free" without moving traffic off its default route.
///
/// Only AS endpoints count: IXP vertices neither originate traffic nor
/// act as destinations (an IXP "destination" has no exportable
/// self-route, and IXP relay vertices holding stage-2 routes are fabric,
/// not sources), so both are skipped.
pub fn bgp_paths_dominated(pg: &PolicyGraph, brokers: &NodeSet, destinations: &[NodeId]) -> f64 {
    let mut dominated = 0u64;
    let mut total = 0u64;
    for &d in destinations {
        if pg.is_ixp(d) {
            continue; // exchanges are not traffic destinations
        }
        let table = bgp_routes(pg, d);
        for v in 0..pg.node_count() {
            let v = NodeId::from(v);
            if v == d || pg.is_ixp(v) {
                continue;
            }
            let Some(path) = table.path_from(v) else {
                continue;
            };
            total += 1;
            let ok = path
                .windows(2)
                .all(|w| brokers.contains(w[0]) || brokers.contains(w[1]));
            if ok {
                dominated += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        dominated as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use topology::{Internet, InternetConfig, NodeKind, Relationship, Scale};

    /// T0 ==peer== T1; T0 provider of C0, C1; T1 provider of C2.
    fn fixture() -> PolicyGraph {
        let edges = [
            (0u32, 2u32, Relationship::ProviderOfB),
            (0, 3, Relationship::ProviderOfB),
            (1, 4, Relationship::ProviderOfB),
            (0, 1, Relationship::Peer),
        ];
        let g = from_edges(5, edges.iter().map(|&(a, b, _)| (NodeId(a), NodeId(b))));
        let kinds = vec![
            NodeKind::Tier1,
            NodeKind::Tier1,
            NodeKind::Access,
            NodeKind::Access,
            NodeKind::Access,
        ];
        let rels = edges
            .iter()
            .map(|&(a, b, r)| (NodeId(a), NodeId(b), r))
            .collect();
        PolicyGraph::new(&Internet::from_parts(g, kinds, rels))
    }

    #[test]
    fn provider_prefers_customer_route() {
        let pg = fixture();
        // Routes toward C0 (node 2): T0 learns a customer route.
        let t = bgp_routes(&pg, NodeId(2));
        let r = t.route(NodeId(0)).unwrap();
        assert_eq!(r.class, RouteClass::Customer);
        assert_eq!(r.path_len, 1);
        // T1 learns it over the peering.
        let r1 = t.route(NodeId(1)).unwrap();
        assert_eq!(r1.class, RouteClass::Peer);
        // C2 gets it from its provider T1.
        let r2 = t.route(NodeId(4)).unwrap();
        assert_eq!(r2.class, RouteClass::Provider);
        assert_eq!(
            t.path_from(NodeId(4)).unwrap(),
            vec![NodeId(4), NodeId(1), NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn sibling_customer_via_shared_provider() {
        let pg = fixture();
        let t = bgp_routes(&pg, NodeId(3));
        // C0 -> T0 -> C1.
        assert_eq!(
            t.path_from(NodeId(2)).unwrap(),
            vec![NodeId(2), NodeId(0), NodeId(3)]
        );
        assert_eq!(t.reachable_count(), 5);
    }

    #[test]
    fn valley_free_by_construction() {
        // Routes never climb after descending: check on a generated net.
        let net = InternetConfig::scaled(Scale::Tiny).generate(7);
        let pg = PolicyGraph::new(&net);
        for d in [0u32, 50, 300, 900] {
            let t = bgp_routes(&pg, NodeId(d));
            for s in (0..pg.node_count() as u32).step_by(211) {
                if let Some(p) = t.path_from(NodeId(s)) {
                    assert!(
                        crate::valleyfree::is_valley_free(&pg, &p),
                        "BGP path {p:?} violates valley-freeness"
                    );
                }
            }
        }
    }

    #[test]
    fn reachability_matches_valley_free_reach() {
        // BGP reachability can't exceed valley-free reachability (it is a
        // specific valley-free route choice). Directions: a route at v
        // toward d means a valley-free v -> d path exists.
        let net = InternetConfig::scaled(Scale::Tiny).generate(9);
        let pg = PolicyGraph::new(&net);
        let d = NodeId(100);
        let t = bgp_routes(&pg, d);
        for s in (0..pg.node_count() as u32).step_by(97) {
            let s = NodeId(s);
            if s == d {
                continue;
            }
            if t.route(s).is_some() {
                let reach = crate::valleyfree::valley_free_reach(
                    &pg,
                    s,
                    crate::valleyfree::ReachOptions::default(),
                );
                assert!(
                    reach.contains(d),
                    "BGP route exists but no valley-free path"
                );
            }
        }
    }

    #[test]
    fn ixp_relay_gives_peer_routes() {
        // C0 and C1 share an IXP; with no other links, routes cross it.
        let edges = [
            (0u32, 2u32, Relationship::IxpMembership),
            (1, 2, Relationship::IxpMembership),
        ];
        let g = from_edges(3, edges.iter().map(|&(a, b, _)| (NodeId(a), NodeId(b))));
        let net = Internet::from_parts(
            g,
            vec![NodeKind::Access, NodeKind::Access, NodeKind::Ixp],
            edges
                .iter()
                .map(|&(a, b, r)| (NodeId(a), NodeId(b), r))
                .collect(),
        );
        let pg = PolicyGraph::new(&net);
        let t = bgp_routes(&pg, NodeId(0));
        let r = t.route(NodeId(1)).unwrap();
        assert_eq!(r.class, RouteClass::Peer);
        assert_eq!(r.path_len, 2);
        assert_eq!(
            t.path_from(NodeId(1)).unwrap(),
            vec![NodeId(1), NodeId(2), NodeId(0)]
        );
    }

    #[test]
    fn ixp_endpoints_excluded_from_domination_stats() {
        // An all-IXP destination list yields no pairs instead of a bogus
        // 0.0-over-all-vertices figure.
        let net = InternetConfig::scaled(Scale::Tiny).generate(11);
        let pg = PolicyGraph::new(&net);
        let ixps: Vec<NodeId> = net
            .graph()
            .nodes()
            .filter(|&v| net.kind(v) == NodeKind::Ixp)
            .take(3)
            .collect();
        assert!(!ixps.is_empty());
        for &x in &ixps {
            assert!(pg.is_ixp(x));
        }
        let full = netgraph::NodeSet::full(net.graph().node_count());
        assert_eq!(bgp_paths_dominated(&pg, &full, &ixps), 0.0);
    }

    #[test]
    fn dominated_default_paths_fraction() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(11);
        let pg = PolicyGraph::new(&net);
        let g = net.graph();
        let sel = brokerset::max_subgraph_greedy(g, 80);
        let none = netgraph::NodeSet::new(g.node_count());
        let dests: Vec<NodeId> = (0..5).map(|i| NodeId(i * 37)).collect();
        let with = bgp_paths_dominated(&pg, sel.brokers(), &dests);
        let without = bgp_paths_dominated(&pg, &none, &dests);
        assert!(
            with > 0.3,
            "alliance should dominate many default paths ({with})"
        );
        assert!(without < 1e-9);
        assert!(with <= 1.0);
    }
}
