//! Topology evolution: a seeded forward growth model.
//!
//! The broker set is a long-lived institution, but the Internet grows by
//! tens of ASes a day. [`evolve`] runs a seeded multi-epoch growth model
//! (IXP births, membership growth, remote-peering attachments, AS births
//! and deaths, relationship flips) and emits a serializable
//! [`DeltaStream`] of epochal [`TopoDelta`]s. The stream lowers to
//! [`netgraph::GraphDelta`]s for the traversal/selection machinery and
//! [`materialize`]s back into a full [`Internet`] with consistent
//! relationship metadata. Births append ids and deaths keep theirs, so
//! a selection made at epoch 0 lies in the id space of every later
//! epoch. Epochs share the integer timeline of
//! [`netgraph::fault::FaultSchedule`], so churn and faults compose into
//! one schedule: e.g. an IXP born at epoch 3 can go dark at epoch 5 and
//! recover at epoch 8.

use crate::taxonomy::{NodeKind, Relationship};
use crate::Internet;
use netgraph::{GraphDelta, NodeId, NodeSet};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Jaccard similarity of two broker sets expressed in a *common* id
/// space.
pub fn selection_jaccard(a: &NodeSet, b: &NodeSet) -> f64 {
    let union = a.union_len(b);
    if union == 0 {
        return 1.0;
    }
    let inter = a.len() + b.len() - union;
    inter as f64 / union as f64
}

/// One semantic edit to the evolving AS/IXP topology.
///
/// Ops are ordered within their [`TopoDelta`]: a `Membership` may refer
/// to an IXP born by an earlier op of the same epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// A new exchange point appears (vertex appended after the current
    /// id range).
    IxpBirth,
    /// A new AS appears and buys transit from `providers`.
    AsBirth {
        /// Stub category of the newcomer.
        kind: NodeKind,
        /// Providers the newcomer multihomes to (it is their customer).
        providers: Vec<NodeId>,
    },
    /// An AS ceases operation: its id survives as a tombstone, every
    /// incident link is withdrawn.
    AsDeath {
        /// The deceased AS.
        node: NodeId,
    },
    /// An AS joins an IXP over local fabric.
    Membership {
        /// The joining AS.
        member: NodeId,
        /// The exchange joined.
        ixp: NodeId,
    },
    /// An AS attaches to a distant IXP via a remote-peering reseller —
    /// structurally a membership edge, tracked separately because remote
    /// peering is a distinct growth driver.
    RemotePeering {
        /// The remotely attaching AS.
        member: NodeId,
        /// The exchange reached remotely.
        ixp: NodeId,
    },
    /// A new AS–AS link with relationship `rel` as seen from `a`.
    Link {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Business relationship from `a`'s perspective.
        rel: Relationship,
    },
    /// An existing link is withdrawn.
    Unlink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The business relationship on an existing link changes (e.g. a
    /// paid customer link settles into peering). No graph change.
    RelFlip {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The new relationship from `a`'s perspective.
        rel: Relationship,
    },
}

/// One epoch's worth of semantic topology edits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoDelta {
    /// Epoch at which the edits take effect — the same integer timeline
    /// as [`netgraph::fault::FaultSchedule`] epochs.
    pub epoch: u32,
    /// Edits, applied in order.
    pub ops: Vec<DeltaOp>,
}

/// A serializable multi-epoch growth history: epochal [`TopoDelta`]s
/// against a base topology, with epochs strictly increasing.
///
/// Produced by [`evolve`], consumed by [`DeltaStream::lower`] (pure
/// graph deltas for the selection machinery) and [`materialize`] (a full
/// [`Internet`] with consistent relationship metadata).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaStream {
    /// Vertex count of the base topology (epoch 0).
    base_nodes: usize,
    deltas: Vec<TopoDelta>,
}

impl DeltaStream {
    /// An empty stream over a base topology with `base_nodes` vertices.
    pub fn new(base_nodes: usize) -> Self {
        DeltaStream {
            base_nodes,
            deltas: Vec::new(),
        }
    }

    /// Append one epoch of edits.
    ///
    /// # Panics
    ///
    /// Panics if `delta.epoch` does not exceed the previous epoch.
    pub fn push(&mut self, delta: TopoDelta) {
        if let Some(last) = self.deltas.last() {
            assert!(
                delta.epoch > last.epoch,
                "epoch {} does not advance past {}",
                delta.epoch,
                last.epoch
            );
        }
        self.deltas.push(delta);
    }

    /// Vertex count of the base topology.
    pub fn base_nodes(&self) -> usize {
        self.base_nodes
    }

    /// The epochal deltas, epoch-ascending.
    pub fn deltas(&self) -> &[TopoDelta] {
        &self.deltas
    }

    /// One past the last epoch (`0` for an empty stream) — the number of
    /// epochs a replay must cover.
    pub fn horizon(&self) -> u32 {
        self.deltas.last().map_or(0, |d| d.epoch + 1)
    }

    /// Total vertices born across the stream.
    pub fn births(&self) -> usize {
        self.deltas
            .iter()
            .flat_map(|d| &d.ops)
            .filter(|op| matches!(op, DeltaOp::IxpBirth | DeltaOp::AsBirth { .. }))
            .count()
    }

    /// Total ops across the stream.
    pub fn op_count(&self) -> usize {
        self.deltas.iter().map(|d| d.ops.len()).sum()
    }

    /// Lower every epoch to a pure [`GraphDelta`] (one per [`TopoDelta`],
    /// same order). Relationship flips lower to nothing; births allocate
    /// ids in op order.
    ///
    /// # Panics
    ///
    /// Panics if an op references a vertex outside the running id range.
    pub fn lower(&self) -> Vec<GraphDelta> {
        let mut running = self.base_nodes;
        let mut out = Vec::with_capacity(self.deltas.len());
        for td in &self.deltas {
            let () = netgraph::counter!("evolve.epochs");
            let () = netgraph::counter!("evolve.delta_ops", td.ops.len() as u64);
            let mut d = GraphDelta::new(running);
            for op in &td.ops {
                match op {
                    DeltaOp::IxpBirth => {
                        d.add_node();
                    }
                    DeltaOp::AsBirth { providers, .. } => {
                        let v = d.add_node();
                        for &p in providers {
                            d.add_edge(v, p);
                        }
                    }
                    DeltaOp::AsDeath { node } => d.remove_node(*node),
                    DeltaOp::Membership { member, ixp }
                    | DeltaOp::RemotePeering { member, ixp } => d.add_edge(*member, *ixp),
                    DeltaOp::Link { a, b, .. } => d.add_edge(*a, *b),
                    DeltaOp::Unlink { a, b } => d.remove_edge(*a, *b),
                    DeltaOp::RelFlip { .. } => {}
                }
            }
            running = d.node_count_after();
            out.push(d);
        }
        out
    }
}

impl crate::Validate for DeltaStream {
    /// Structural invariants a JSON-loaded stream must satisfy before
    /// replay: strictly increasing epochs and vertex references inside
    /// the running id range.
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("topology::DeltaStream");
        rep.check(
            "evolve.epochs-strictly-increasing",
            self.deltas.windows(2).all(|w| w[0].epoch < w[1].epoch),
            || "a delta's epoch does not advance past its predecessor".into(),
        );
        let mut running = self.base_nodes;
        let mut refs_ok = true;
        for td in &self.deltas {
            for op in &td.ops {
                let mut check = |v: NodeId| refs_ok &= v.index() < running;
                match op {
                    DeltaOp::IxpBirth => running += 1,
                    DeltaOp::AsBirth { providers, .. } => {
                        for &p in providers {
                            check(p);
                        }
                        running += 1;
                    }
                    DeltaOp::AsDeath { node } => check(*node),
                    DeltaOp::Membership { member, ixp }
                    | DeltaOp::RemotePeering { member, ixp } => {
                        check(*member);
                        check(*ixp);
                    }
                    DeltaOp::Link { a, b, .. }
                    | DeltaOp::Unlink { a, b }
                    | DeltaOp::RelFlip { a, b, .. } => {
                        check(*a);
                        check(*b);
                    }
                }
            }
        }
        rep.check("evolve.refs-in-range", refs_ok, || {
            "an op references a vertex outside the running id range".into()
        });
        rep
    }
}

/// Per-epoch intensities of the growth model. All counts are *attempts
/// per epoch*; an attempt that cannot find a valid target (e.g. a
/// duplicate edge) is skipped, so realized counts may be slightly lower.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrowthConfig {
    /// Number of epochs to generate (epochs `1..=epochs`; epoch 0 is the
    /// base topology).
    pub epochs: u32,
    /// New exchange points per epoch.
    pub ixp_births: usize,
    /// Founding memberships seeded into each newborn IXP.
    pub new_ixp_members: usize,
    /// New stub ASes per epoch (each multihomes to 1–3 providers).
    pub as_births: usize,
    /// Stub ASes ceasing operation per epoch.
    pub as_deaths: usize,
    /// New local IXP memberships per epoch.
    pub memberships: usize,
    /// New remote-peering attachments per epoch.
    pub remote_peerings: usize,
    /// AS–AS links whose business relationship flips per epoch.
    pub rel_flips: usize,
}

impl GrowthConfig {
    /// Intensities proportional to topology size, calibrated so a
    /// quarter-scale Internet sees on the order of a hundred edits per
    /// epoch — brisk growth, in line with the sustained IXP/membership
    /// expansion documented over multi-year windows.
    pub fn calibrated(epochs: u32, node_count: usize) -> Self {
        GrowthConfig {
            epochs,
            ixp_births: 1,
            new_ixp_members: (node_count / 600).max(4),
            as_births: (node_count / 500).max(2),
            as_deaths: (node_count / 2000).max(1),
            memberships: (node_count / 400).max(4),
            remote_peerings: (node_count / 800).max(2),
            rel_flips: (node_count / 800).max(2),
        }
    }
}

/// Mutable bookkeeping the generator threads through the epochs.
struct Evolver {
    rng: ChaCha8Rng,
    kinds: Vec<NodeKind>,
    alive: Vec<bool>,
    /// Relationship per existing edge, oriented for the normalized key;
    /// its keys are the edge set, kept exact so the generator never
    /// proposes a duplicate edge with a conflicting relationship.
    rels: BTreeMap<(u32, u32), Relationship>,
    /// Adjacency, maintained so deaths can withdraw incident links
    /// without scanning the whole edge set.
    adj: BTreeMap<u32, BTreeSet<u32>>,
    ixps: Vec<u32>,
    providers: Vec<u32>,
}

impl Evolver {
    fn link(&mut self, a: u32, b: u32, rel_from_a: Relationship) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        if a == b || self.rels.contains_key(&key) {
            return false;
        }
        let oriented = if a < b {
            rel_from_a
        } else {
            rel_from_a.reversed()
        };
        self.rels.insert(key, oriented);
        self.adj.entry(a).or_default().insert(b);
        self.adj.entry(b).or_default().insert(a);
        true
    }

    fn born(&mut self, kind: NodeKind) -> u32 {
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.alive.push(true);
        id
    }

    /// A random living AS, or `None` after bounded retries.
    fn pick_as(&mut self) -> Option<u32> {
        for _ in 0..32 {
            let v = self.rng.gen_range(0..self.kinds.len() as u32);
            if self.alive[v as usize] && self.kinds[v as usize].is_as() {
                return Some(v);
            }
        }
        None
    }

    /// A random living *stub* AS (provider core and IXPs never die).
    fn pick_stub(&mut self) -> Option<u32> {
        for _ in 0..32 {
            let v = self.rng.gen_range(0..self.kinds.len() as u32);
            if self.alive[v as usize]
                && matches!(
                    self.kinds[v as usize],
                    NodeKind::Access | NodeKind::Content | NodeKind::Enterprise
                )
            {
                return Some(v);
            }
        }
        None
    }
}

/// Run the seeded growth model over `net` for `cfg.epochs` epochs and
/// emit the resulting [`DeltaStream`]. Deterministic in `(net, cfg,
/// seed)`.
///
/// Per epoch the model applies, in order: IXP births (each seeded with
/// founding members), stub AS births (multihoming to 1–3 providers),
/// stub AS deaths, local membership growth, remote-peering attachments,
/// and relationship flips (paid links settling into peering and back).
pub fn evolve(net: &Internet, cfg: &GrowthConfig, seed: u64) -> DeltaStream {
    let g = net.graph();
    let mut ev = Evolver {
        rng: ChaCha8Rng::seed_from_u64(seed),
        kinds: net.kinds().to_vec(),
        alive: vec![true; g.node_count()],
        rels: net
            .relationships()
            .map(|(a, b, rel)| ((a.0, b.0), rel))
            .collect(),
        adj: BTreeMap::new(),
        ixps: Vec::new(),
        providers: Vec::new(),
    };
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            ev.adj.entry(v.0).or_default().insert(u.0);
        }
        match net.kind(v) {
            NodeKind::Ixp => ev.ixps.push(v.0),
            NodeKind::Tier1 | NodeKind::Transit => ev.providers.push(v.0),
            _ => {}
        }
    }

    let mut stream = DeltaStream::new(g.node_count());
    for epoch in 1..=cfg.epochs {
        let mut ops: Vec<DeltaOp> = Vec::new();

        // IXP births, each seeded with founding memberships.
        for _ in 0..cfg.ixp_births {
            let ixp = ev.born(NodeKind::Ixp);
            ev.ixps.push(ixp);
            ops.push(DeltaOp::IxpBirth);
            for _ in 0..cfg.new_ixp_members {
                let Some(m) = ev.pick_as() else { continue };
                if ev.link(m, ixp, Relationship::IxpMembership) {
                    ops.push(DeltaOp::Membership {
                        member: NodeId(m),
                        ixp: NodeId(ixp),
                    });
                }
            }
        }

        // Stub AS births, multihomed to 1-3 providers (the same
        // multihoming shape as the base generator).
        for _ in 0..cfg.as_births {
            let roll: f64 = ev.rng.gen_range(0.0..1.0);
            let kind = if roll < 0.05 {
                NodeKind::Content
            } else if roll < 0.20 {
                NodeKind::Enterprise
            } else {
                NodeKind::Access
            };
            let degree = 1
                + (ev.rng.gen_range(0.0..1.0) < 0.45) as usize
                + (ev.rng.gen_range(0.0..1.0) < 0.15) as usize;
            let v = ev.born(kind);
            let mut providers: Vec<NodeId> = Vec::new();
            for _ in 0..degree {
                let p = ev.providers[ev.rng.gen_range(0..ev.providers.len())];
                if ev.link(v, p, Relationship::CustomerOfB) {
                    providers.push(NodeId(p));
                }
            }
            ops.push(DeltaOp::AsBirth { kind, providers });
        }

        // Stub deaths: withdraw every incident link, tombstone the id.
        for _ in 0..cfg.as_deaths {
            let Some(v) = ev.pick_stub() else { continue };
            ev.alive[v as usize] = false;
            if let Some(nbs) = ev.adj.remove(&v) {
                for u in nbs {
                    let key = if v < u { (v, u) } else { (u, v) };
                    ev.rels.remove(&key);
                    if let Some(back) = ev.adj.get_mut(&u) {
                        back.remove(&v);
                    }
                }
            }
            ops.push(DeltaOp::AsDeath { node: NodeId(v) });
        }

        // Local membership growth.
        for _ in 0..cfg.memberships {
            let (Some(m), false) = (ev.pick_as(), ev.ixps.is_empty()) else {
                continue;
            };
            let ixp = ev.ixps[ev.rng.gen_range(0..ev.ixps.len())];
            if ev.link(m, ixp, Relationship::IxpMembership) {
                ops.push(DeltaOp::Membership {
                    member: NodeId(m),
                    ixp: NodeId(ixp),
                });
            }
        }

        // Remote-peering attachments: same fabric edge, distinct driver.
        for _ in 0..cfg.remote_peerings {
            let (Some(m), false) = (ev.pick_as(), ev.ixps.is_empty()) else {
                continue;
            };
            let ixp = ev.ixps[ev.rng.gen_range(0..ev.ixps.len())];
            if ev.link(m, ixp, Relationship::IxpMembership) {
                ops.push(DeltaOp::RemotePeering {
                    member: NodeId(m),
                    ixp: NodeId(ixp),
                });
            }
        }

        // Relationship flips on existing AS-AS links: paid transit
        // settles into peering, peering un-settles back.
        for _ in 0..cfg.rel_flips {
            let Some(m) = ev.pick_as() else { continue };
            let Some(nbs) = ev.adj.get(&m) else { continue };
            let candidates: Vec<u32> = nbs
                .iter()
                .copied()
                .filter(|&u| ev.kinds[u as usize].is_as())
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let u = candidates[ev.rng.gen_range(0..candidates.len())];
            let key = if m < u { (m, u) } else { (u, m) };
            let Some(&old) = ev.rels.get(&key) else {
                continue;
            };
            let new = match old {
                Relationship::Peer => Relationship::CustomerOfB,
                Relationship::CustomerOfB | Relationship::ProviderOfB => Relationship::Peer,
                Relationship::IxpMembership => continue,
            };
            ev.rels.insert(key, new);
            ops.push(DeltaOp::RelFlip {
                a: NodeId(key.0),
                b: NodeId(key.1),
                rel: new,
            });
        }

        stream.push(TopoDelta { epoch, ops });
    }
    stream
}

/// Replay `stream` over `net` and assemble the final-epoch [`Internet`]:
/// graph, kinds and relationships evolved consistently. Newborn vertices
/// are named like every other vertex, by kind and ordinal.
/// `Internet::from_parts` re-asserts that the relationship list covers
/// the evolved edge set exactly, so a bookkeeping divergence between the
/// graph lowering and the relationship replay panics here.
///
/// # Panics
///
/// Panics if the stream does not apply to `net` (base size mismatch,
/// out-of-range references, conflicting relationships).
pub fn materialize(net: &Internet, stream: &DeltaStream) -> Internet {
    assert_eq!(
        net.graph().node_count(),
        stream.base_nodes(),
        "stream was generated against a {}-vertex topology",
        stream.base_nodes()
    );
    let mut graph = net.graph().clone();
    for d in stream.lower() {
        graph = graph.apply_delta(&d);
    }

    let mut kinds = net.kinds().to_vec();
    let mut rels: BTreeMap<(u32, u32), Relationship> = net
        .relationships()
        .map(|(a, b, rel)| ((a.0, b.0), rel))
        .collect();
    let insert = |rels: &mut BTreeMap<(u32, u32), Relationship>,
                  a: u32,
                  b: u32,
                  rel_from_a: Relationship| {
        let (key, oriented) = if a < b {
            ((a, b), rel_from_a)
        } else {
            ((b, a), rel_from_a.reversed())
        };
        rels.insert(key, oriented);
    };
    for td in stream.deltas() {
        for op in &td.ops {
            match op {
                DeltaOp::IxpBirth => kinds.push(NodeKind::Ixp),
                DeltaOp::AsBirth { kind, providers } => {
                    let v = kinds.len() as u32;
                    kinds.push(*kind);
                    for p in providers {
                        insert(&mut rels, v, p.0, Relationship::CustomerOfB);
                    }
                }
                DeltaOp::AsDeath { node } => {
                    let v = node.0;
                    rels.retain(|&(a, b), _| a != v && b != v);
                }
                DeltaOp::Membership { member, ixp } | DeltaOp::RemotePeering { member, ixp } => {
                    insert(&mut rels, member.0, ixp.0, Relationship::IxpMembership);
                }
                DeltaOp::Link { a, b, rel } => insert(&mut rels, a.0, b.0, *rel),
                DeltaOp::Unlink { a, b } => {
                    let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
                    rels.remove(&key);
                }
                DeltaOp::RelFlip { a, b, rel } => insert(&mut rels, a.0, b.0, *rel),
            }
        }
    }
    let rels: Vec<(NodeId, NodeId, Relationship)> = rels
        .into_iter()
        .map(|((a, b), rel)| (NodeId(a), NodeId(b), rel))
        .collect();
    Internet::from_parts(graph, kinds, rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};

    fn setup() -> Internet {
        InternetConfig::scaled(Scale::Tiny).generate(77)
    }

    #[test]
    fn selection_stable_across_growth() {
        // Brokers selected at epoch 0 should overlap heavily with brokers
        // selected after 12 epochs of growth: the core doesn't churn.
        // Births append ids, so the old selection needs no translation.
        let net = setup();
        let cfg = GrowthConfig::calibrated(12, net.graph().node_count());
        let grown = materialize(&net, &evolve(&net, &cfg, 5));
        let k = 40;
        let then = brokerset::max_subgraph_greedy(net.graph(), k);
        let now = brokerset::max_subgraph_greedy(grown.graph(), k);
        let then_now = NodeSet::from_iter_with_capacity(
            grown.graph().node_count(),
            then.order().iter().copied(),
        );
        let j = selection_jaccard(now.brokers(), &then_now);
        assert!(j > 0.5, "alliance churn too high: jaccard {j}");
    }

    #[test]
    fn jaccard_edges() {
        let a = NodeSet::from_iter_with_capacity(10, [NodeId(1), NodeId(2)]);
        let b = NodeSet::from_iter_with_capacity(10, [NodeId(2), NodeId(3)]);
        assert!((selection_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(selection_jaccard(&a, &a), 1.0);
        let empty = NodeSet::new(10);
        assert_eq!(selection_jaccard(&empty, &empty), 1.0);
    }

    #[test]
    fn evolve_is_deterministic_and_valid() {
        use crate::Validate;
        let net = setup();
        let cfg = GrowthConfig::calibrated(6, net.graph().node_count());
        let a = evolve(&net, &cfg, 11);
        let b = evolve(&net, &cfg, 11);
        assert_eq!(a, b, "same seed must give the same stream");
        let c = evolve(&net, &cfg, 12);
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.audit().is_ok());
        assert_eq!(a.deltas().len(), 6);
        assert_eq!(a.horizon(), 7);
        assert!(a.births() >= 6, "at least the IXP births");
        assert!(a.op_count() > 0);
    }

    #[test]
    fn lower_and_materialize_agree() {
        let net = setup();
        let cfg = GrowthConfig::calibrated(5, net.graph().node_count());
        let stream = evolve(&net, &cfg, 3);
        // Fold the lowered graph deltas.
        let mut g = net.graph().clone();
        for d in stream.lower() {
            g = g.apply_delta(&d);
        }
        assert_eq!(g.node_count(), net.graph().node_count() + stream.births());
        // materialize() rebuilds the same graph plus consistent
        // metadata — from_parts re-asserts rels cover the edge set.
        let evolved = materialize(&net, &stream);
        assert_eq!(evolved.graph(), &g);
        assert_eq!(evolved.kinds().len(), g.node_count());
        assert_eq!(evolved.relationships().count(), g.edge_count());
        // The base keeps its names, and the first newborn, epoch 1's
        // IXP, is named as the 13th IXP of tiny's 12.
        let names = evolved.names();
        let base = net.graph().node_count();
        assert_eq!(names[..base], net.names());
        assert_eq!(stream.deltas()[0].ops[0], DeltaOp::IxpBirth);
        assert_eq!(names[base], "IXP Stockholm");
    }

    #[test]
    fn deaths_tombstone_in_place() {
        let net = setup();
        let mut cfg = GrowthConfig::calibrated(3, net.graph().node_count());
        cfg.as_deaths = 10;
        let stream = evolve(&net, &cfg, 9);
        let dead: Vec<NodeId> = stream
            .deltas()
            .iter()
            .flat_map(|d| &d.ops)
            .filter_map(|op| match op {
                DeltaOp::AsDeath { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert!(!dead.is_empty(), "deaths should occur at this intensity");
        let evolved = materialize(&net, &stream);
        for v in dead {
            assert_eq!(evolved.graph().degree(v), 0, "dead AS {v} keeps no links");
            assert!(evolved.kind(v).is_as(), "tombstone keeps its metadata");
        }
    }

    #[test]
    fn stream_json_round_trips_bit_identically() {
        let net = setup();
        let cfg = GrowthConfig::calibrated(4, net.graph().node_count());
        let stream = evolve(&net, &cfg, 21);
        let json = serde_json::to_string(&stream).expect("serialize");
        let back: DeltaStream = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, stream);
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
    }

    #[test]
    fn stream_audit_detects_corruption() {
        use crate::Validate;
        let mut s = DeltaStream::new(10);
        s.push(TopoDelta {
            epoch: 1,
            ops: vec![DeltaOp::AsDeath { node: NodeId(3) }],
        });
        assert!(s.audit().is_ok());
        // Out-of-range reference.
        let mut bad = s.clone();
        bad.deltas[0].ops.push(DeltaOp::Unlink {
            a: NodeId(0),
            b: NodeId(99),
        });
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "evolve.refs-in-range"));
        // Non-advancing epoch.
        let mut bad = s.clone();
        bad.deltas.push(TopoDelta {
            epoch: 1,
            ops: Vec::new(),
        });
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "evolve.epochs-strictly-increasing"));
    }

    #[test]
    #[should_panic(expected = "does not advance")]
    fn non_advancing_push_rejected() {
        let mut s = DeltaStream::new(5);
        s.push(TopoDelta {
            epoch: 2,
            ops: Vec::new(),
        });
        s.push(TopoDelta {
            epoch: 2,
            ops: Vec::new(),
        });
    }
}
