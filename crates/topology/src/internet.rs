//! Calibrated synthetic AS-level Internet generator.
//!
//! The paper's dataset (Table 2): 51,757 ASes + 322 IXPs, 347,332 AS–AS
//! connections, 55,282 AS–IXP membership links, a giant component of
//! 51,895 vertices, 40.2 % of ASes directly attached to an IXP, and the
//! (0.99, 4) small-world property. [`InternetConfig::generate`] produces a
//! topology with those aggregate properties from a deterministic seed:
//!
//! 1. a tier-1 clique (settlement-free core);
//! 2. a transit hierarchy with Zipf "attractiveness" weights — transit
//!    AS *i* attracts customers proportionally to `(i + 1)^-z`, giving
//!    the heavy-tailed provider degree distribution the broker-coverage
//!    results depend on;
//! 3. stub ASes (access / content / enterprise) multihoming to 1–3
//!    providers;
//! 4. a settlement-free peer mesh among the top providers plus
//!    weight-biased random peering, filling the AS–AS edge budget;
//! 5. 322 IXPs with Zipf-sized memberships filling the membership budget,
//!    every provider joining a few exchanges and a configurable fraction
//!    of stubs joining their regional one;
//! 6. a sprinkle of 2-node islands outside the giant component (the real
//!    snapshot has 184 vertices outside it).

use crate::stats::TopologyStats;
use crate::taxonomy::{NodeKind, Relationship, Tier};
use netgraph::{Graph, GraphBuilder, NodeId, NodeSet};
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Preset sizes for [`InternetConfig::scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's full 2014 snapshot: 51,757 ASes + 322 IXPs.
    Full,
    /// One-quarter scale (~13 k nodes): the default for tests and CI
    /// benches; broker budgets scale proportionally.
    Quarter,
    /// ~1 k nodes: unit-test scale.
    Tiny,
}

/// Parameters of the synthetic Internet generator.
///
/// `scaled` gives the calibrated presets; fields are public so studies can
/// perturb a single knob (e.g. the Zipf exponent) for ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InternetConfig {
    /// Number of tier-1 backbone ASes (clique).
    pub n_tier1: usize,
    /// Number of transit/access providers below tier-1.
    pub n_transit: usize,
    /// Number of stub ASes (access + content + enterprise).
    pub n_stub: usize,
    /// Number of IXPs.
    pub n_ixp: usize,
    /// Target number of AS–AS edges (including the hierarchy links).
    pub target_as_edges: usize,
    /// Target number of AS–IXP membership links.
    pub target_memberships: usize,
    /// Fraction of stubs that are content providers.
    pub frac_content: f64,
    /// Fraction of stubs that are enterprises.
    pub frac_enterprise: f64,
    /// Fraction of stubs joining at least one IXP (providers always join).
    pub frac_member_stubs: f64,
    /// Fraction of stubs placed in 2-node islands outside the giant
    /// component.
    pub frac_isolated: f64,
    /// Zipf exponent of transit attractiveness weights.
    pub zipf_exponent: f64,
    /// Per-tier-1 attractiveness weight (relative to top transit = 1).
    pub tier1_weight: f64,
    /// Probabilities that a stub has 1, 2 or 3 providers.
    pub stub_multihoming: [f64; 3],
    /// Number of top providers fully meshed with settlement-free peering.
    pub top_peer_mesh: usize,
}

impl InternetConfig {
    /// Calibrated preset for a [`Scale`].
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Full => InternetConfig {
                n_tier1: 12,
                n_transit: 3500,
                n_stub: 51_757 - 12 - 3500,
                n_ixp: 322,
                target_as_edges: 347_332,
                target_memberships: 55_282,
                frac_content: 0.05,
                frac_enterprise: 0.15,
                frac_member_stubs: 0.33,
                frac_isolated: 0.0036,
                zipf_exponent: 0.8,
                tier1_weight: 0.55,
                stub_multihoming: [0.55, 0.35, 0.10],
                top_peer_mesh: 150,
            },
            Scale::Quarter => InternetConfig {
                n_tier1: 12,
                n_transit: 875,
                n_stub: 12_940 - 12 - 875,
                n_ixp: 80,
                target_as_edges: 86_833,
                target_memberships: 13_820,
                frac_content: 0.05,
                frac_enterprise: 0.15,
                frac_member_stubs: 0.33,
                frac_isolated: 0.0036,
                zipf_exponent: 0.8,
                tier1_weight: 0.55,
                stub_multihoming: [0.55, 0.35, 0.10],
                top_peer_mesh: 75,
            },
            Scale::Tiny => InternetConfig {
                n_tier1: 5,
                n_transit: 80,
                n_stub: 1000,
                n_ixp: 12,
                target_as_edges: 7_000,
                target_memberships: 1_100,
                frac_content: 0.05,
                frac_enterprise: 0.15,
                frac_member_stubs: 0.33,
                frac_isolated: 0.004,
                zipf_exponent: 0.8,
                tier1_weight: 0.55,
                stub_multihoming: [0.55, 0.35, 0.10],
                top_peer_mesh: 25,
            },
        }
    }

    /// Total AS count.
    pub fn as_count(&self) -> usize {
        self.n_tier1 + self.n_transit + self.n_stub
    }

    /// Total vertex count (ASes + IXPs).
    pub fn node_count(&self) -> usize {
        self.as_count() + self.n_ixp
    }

    /// Generate a topology from this configuration and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`InternetConfig::validate`]).
    pub fn generate(&self, seed: u64) -> Internet {
        let () = netgraph::counter!("topology.generations");
        if let Err(e) = self.validate() {
            panic!("invalid InternetConfig: {e}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Generator::new(self, &mut rng).run();
        // Full topology invariant audit at the generation boundary
        // (debug builds only).
        netgraph::validate::debug_validate(&net);
        net
    }

    /// Check configuration consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_tier1 < 2 {
            return Err("need at least 2 tier-1 ASes".into());
        }
        if self.n_transit == 0 || self.n_stub == 0 {
            return Err("need transit and stub ASes".into());
        }
        if self.frac_content + self.frac_enterprise > 1.0 {
            return Err("content + enterprise fractions exceed 1".into());
        }
        for f in [
            self.frac_content,
            self.frac_enterprise,
            self.frac_member_stubs,
            self.frac_isolated,
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fraction {f} outside [0, 1]"));
            }
        }
        let s: f64 = self.stub_multihoming.iter().sum();
        if (s - 1.0).abs() > 1e-9 {
            return Err(format!("stub_multihoming must sum to 1, got {s}"));
        }
        if self.zipf_exponent <= 0.0 {
            return Err("zipf_exponent must be positive".into());
        }
        if self.top_peer_mesh > self.n_tier1 + self.n_transit {
            return Err("top_peer_mesh larger than provider pool".into());
        }
        Ok(())
    }
}

/// A generated (or loaded) AS/IXP topology with metadata.
///
/// Vertex layout: tier-1 ASes first, then transit, then stubs, then IXPs.
/// The combined graph contains both direct AS–AS connections and AS–IXP
/// membership links, mirroring the paper's treatment of IXPs as
/// independent vertices ("ASesWithIXPs"); [`Internet::without_ixps`]
/// recovers the AS-only view.
///
/// Only what cannot be derived is stored: the graph, each vertex's kind
/// and one business relationship per edge. Names are a function of the
/// kind and the vertex's ordinal within it ([`Internet::name`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Internet {
    graph: Graph,
    kinds: Vec<NodeKind>,
    /// One relationship per edge, in [`Graph::edges`] order (ascending
    /// `(a, b)` with `a < b`), oriented from the smaller endpoint.
    rels: Vec<Relationship>,
}

impl Internet {
    /// Assemble an `Internet` from parts (used by the generator, snapshot
    /// loading, and hand-built test fixtures). `rels` may list an edge in
    /// either orientation, and more than once if the copies agree.
    ///
    /// # Panics
    ///
    /// Panics if the kinds disagree with the graph, if an edge carries
    /// conflicting relationships, or if the relationship list doesn't
    /// cover the edge set exactly.
    pub fn from_parts(
        graph: Graph,
        kinds: Vec<NodeKind>,
        mut rels: Vec<(NodeId, NodeId, Relationship)>,
    ) -> Self {
        assert_eq!(graph.node_count(), kinds.len(), "kinds length mismatch");
        for r in rels.iter_mut() {
            if r.0 > r.1 {
                *r = (r.1, r.0, r.2.reversed());
            }
        }
        rels.sort_unstable_by_key(|r| (r.0, r.1));
        // Duplicates are only tolerated when they agree — silently keeping
        // one of two conflicting orientations would corrupt the policy
        // layer downstream.
        for w in rels.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                assert_eq!(
                    w[0].2, w[1].2,
                    "conflicting relationships for edge ({}, {})",
                    w[0].0, w[0].1
                );
            }
        }
        rels.dedup_by_key(|r| (r.0, r.1));
        assert!(
            rels.len() == graph.edge_count()
                && rels.iter().zip(graph.edges()).all(|(r, e)| (r.0, r.1) == e),
            "relationship list must cover every edge exactly once"
        );
        Internet {
            graph,
            kinds,
            rels: rels.into_iter().map(|r| r.2).collect(),
        }
    }

    /// The combined AS + IXP graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Kind of vertex `v`.
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v.index()]
    }

    /// All vertex kinds, indexed by id.
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Human-readable name of vertex `v`: its kind and its ordinal among
    /// the vertices of that kind, e.g. `Transit-3`, or `IXP Frankfurt`
    /// for the first IXP. `O(v)`; [`Internet::names`] names every
    /// vertex in one pass.
    pub fn name(&self, v: NodeId) -> String {
        let kind = self.kind(v);
        let ordinal = self.kinds[..v.index()]
            .iter()
            .filter(|&&k| k == kind)
            .count();
        name_of(kind, ordinal)
    }

    /// All vertex names, indexed by id.
    pub fn names(&self) -> Vec<String> {
        let mut seen = [0usize; 6];
        self.kinds
            .iter()
            .map(|&kind| {
                let ordinal = &mut seen[kind as usize];
                *ordinal += 1;
                name_of(kind, *ordinal - 1)
            })
            .collect()
    }

    /// Tier of vertex `v` (see [`Tier::of`]).
    pub fn tier(&self, v: NodeId) -> Tier {
        Tier::of(self.kind(v))
    }

    /// Number of AS vertices.
    pub fn as_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_as()).count()
    }

    /// Number of IXP vertices.
    pub fn ixp_count(&self) -> usize {
        self.kinds.len() - self.as_count()
    }

    /// The set of IXP vertices.
    pub fn ixps(&self) -> NodeSet {
        let mut s = NodeSet::new(self.graph.node_count());
        for v in self.graph.nodes() {
            if self.kind(v) == NodeKind::Ixp {
                s.insert(v);
            }
        }
        s
    }

    /// The tier-1 AS vertices.
    pub fn tier1s(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&v| self.kind(v) == NodeKind::Tier1)
            .collect()
    }

    /// Every edge with its relationship, as `(a, b, rel)` with `a < b`,
    /// ascending; `CustomerOfB` means `a` is `b`'s customer.
    pub fn relationships(&self) -> impl Iterator<Item = (NodeId, NodeId, Relationship)> + '_ {
        self.graph
            .edges()
            .zip(&self.rels)
            .map(|((a, b), &rel)| (a, b, rel))
    }

    /// The stored relationship codes, one per edge in
    /// [`Graph::edges`] order; the audit checks their count.
    pub(crate) fn relationship_codes(&self) -> &[Relationship] {
        &self.rels
    }

    /// The AS-only subgraph ("ASesWithoutIXPs" in Table 3) and the map
    /// from new ids to original ids.
    pub fn without_ixps(&self) -> (Graph, Vec<NodeId>) {
        let mut keep = NodeSet::new(self.graph.node_count());
        for v in self.graph.nodes() {
            if self.kind(v).is_as() {
                keep.insert(v);
            }
        }
        self.graph.induced_subgraph(&keep)
    }

    /// Table 2 style statistics.
    pub fn stats(&self) -> TopologyStats {
        TopologyStats::compute(self)
    }
}

/// The name of the `ordinal`-th vertex of `kind`.
fn name_of(kind: NodeKind, ordinal: usize) -> String {
    match kind {
        NodeKind::Tier1 => format!("Backbone-{ordinal}"),
        NodeKind::Transit => format!("Transit-{ordinal}"),
        NodeKind::Access => format!("Access-{ordinal}"),
        NodeKind::Content => format!("Content-{ordinal}"),
        NodeKind::Enterprise => format!("Enterprise-{ordinal}"),
        NodeKind::Ixp => match IXP_CITIES.get(ordinal) {
            Some(city) => format!("IXP {city}"),
            None => format!("IXP-{ordinal}"),
        },
    }
}

/// City names for the first IXPs, roughly by real-world exchange size
/// so that "IXP Frankfurt" ends up big.
const IXP_CITIES: &[&str] = &[
    "Frankfurt",
    "Amsterdam",
    "London",
    "Sao Paulo",
    "Moscow",
    "Palo Alto",
    "Tokyo",
    "Hong Kong",
    "Singapore",
    "New York",
    "Chicago",
    "Paris",
    "Stockholm",
    "Warsaw",
    "Prague",
    "Vienna",
    "Milan",
    "Madrid",
    "Seattle",
    "Toronto",
];

/// A sampler over `weights`. Every caller builds its weights non-empty
/// with positive entries, the only inputs `WeightedIndex::new` accepts.
#[expect(
    clippy::expect_used,
    reason = "R1: the generator's weight vectors are non-empty and positive by construction"
)]
fn weighted(weights: Vec<f64>) -> WeightedIndex {
    WeightedIndex::new(weights).expect("non-empty positive weights")
}

struct Generator<'a, R: Rng> {
    cfg: &'a InternetConfig,
    rng: &'a mut R,
    /// Attractiveness weight of each provider-pool member
    /// (tier-1s then transit, ids 0..n_tier1+n_transit).
    provider_weights: Vec<f64>,
    edges: HashSet<(u32, u32)>,
    rels: Vec<(NodeId, NodeId, Relationship)>,
}

impl<'a, R: Rng> Generator<'a, R> {
    fn new(cfg: &'a InternetConfig, rng: &'a mut R) -> Self {
        let mut provider_weights = Vec::with_capacity(cfg.n_tier1 + cfg.n_transit);
        provider_weights.extend(std::iter::repeat_n(cfg.tier1_weight, cfg.n_tier1));
        provider_weights
            .extend((0..cfg.n_transit).map(|i| ((i + 1) as f64).powf(-cfg.zipf_exponent)));
        // Sized for the edge budget up front: the doubling growth of both
        // containers would leave its garbage behind on every generation.
        let edge_budget = cfg.target_as_edges + cfg.target_memberships;
        Generator {
            cfg,
            rng,
            provider_weights,
            edges: HashSet::with_capacity(edge_budget),
            rels: Vec::with_capacity(edge_budget),
        }
    }

    fn add_edge(&mut self, a: usize, b: usize, rel: Relationship) -> bool {
        if a == b {
            return false;
        }
        let key = (a.min(b) as u32, a.max(b) as u32);
        if !self.edges.insert(key) {
            return false;
        }
        let rel = if (a as u32, b as u32) == key {
            rel
        } else {
            rel.reversed()
        };
        self.rels.push((NodeId(key.0), NodeId(key.1), rel));
        true
    }

    fn run(mut self) -> Internet {
        let cfg = self.cfg;
        let n_providers = cfg.n_tier1 + cfg.n_transit;
        let n_as = cfg.as_count();
        let n_total = cfg.node_count();

        // --- Kinds -----------------------------------------------------------
        // Content stubs first, then enterprise, then access; the isolated
        // tail is carved from access stubs.
        let n_isolated = ((cfg.n_stub as f64 * cfg.frac_isolated) as usize) & !1; // even
        let n_content = (cfg.n_stub as f64 * cfg.frac_content) as usize;
        let n_enterprise = (cfg.n_stub as f64 * cfg.frac_enterprise) as usize;
        let mut kinds = Vec::with_capacity(n_total);
        kinds.extend(std::iter::repeat_n(NodeKind::Tier1, cfg.n_tier1));
        kinds.extend(std::iter::repeat_n(NodeKind::Transit, cfg.n_transit));
        kinds.extend((0..cfg.n_stub).map(|i| {
            if i < n_content {
                NodeKind::Content
            } else if i < n_content + n_enterprise {
                NodeKind::Enterprise
            } else {
                NodeKind::Access
            }
        }));
        kinds.extend(std::iter::repeat_n(NodeKind::Ixp, cfg.n_ixp));

        // --- Tier-1 clique ----------------------------------------------------
        for a in 0..cfg.n_tier1 {
            for b in (a + 1)..cfg.n_tier1 {
                self.add_edge(a, b, Relationship::Peer);
            }
        }

        // --- Transit hierarchy -------------------------------------------------
        // Transit i (global id n_tier1 + i) multihomes to 1–3 providers
        // chosen among tier-1s and higher-ranked transit, weight-biased.
        let pool_dist = weighted(self.provider_weights.clone());
        for i in 0..cfg.n_transit {
            let me = cfg.n_tier1 + i;
            let n_up = 1
                + (self.rng.gen_range(0.0..1.0) < 0.6) as usize
                + (self.rng.gen_range(0.0..1.0) < 0.25) as usize;
            let mut attached = 0;
            let mut attempts = 0;
            while attached < n_up && attempts < 64 {
                attempts += 1;
                let p = pool_dist.sample(self.rng);
                // Hierarchy: only attach upwards (tier-1 or better-ranked
                // transit) to keep the provider DAG acyclic.
                if (p < cfg.n_tier1 || p < me) && self.add_edge(me, p, Relationship::CustomerOfB) {
                    attached += 1;
                }
            }
            if attached == 0 {
                // Guarantee connectivity to the core.
                let t1 = self.rng.gen_range(0..cfg.n_tier1);
                self.add_edge(me, t1, Relationship::CustomerOfB);
            }
        }

        // --- Stubs -------------------------------------------------------------
        let stub_base = n_providers;
        let first_isolated = cfg.n_stub - n_isolated;
        for s in 0..first_isolated {
            let me = stub_base + s;
            let roll: f64 = self.rng.gen_range(0.0..1.0);
            let n_up = if roll < cfg.stub_multihoming[0] {
                1
            } else if roll < cfg.stub_multihoming[0] + cfg.stub_multihoming[1] {
                2
            } else {
                3
            };
            let mut attached = 0;
            let mut attempts = 0;
            while attached < n_up && attempts < 64 {
                attempts += 1;
                let p = pool_dist.sample(self.rng);
                if self.add_edge(me, p, Relationship::CustomerOfB) {
                    attached += 1;
                }
            }
        }
        // Isolated islands: pair up the tail stubs with a single peer
        // edge; they never attach to the hierarchy.
        let mut island = stub_base + first_isolated;
        while island + 1 < stub_base + cfg.n_stub {
            self.add_edge(island, island + 1, Relationship::Peer);
            island += 2;
        }

        // --- Settlement-free mesh among top providers ---------------------------
        for a in 0..cfg.top_peer_mesh.min(n_providers) {
            for b in (a + 1)..cfg.top_peer_mesh.min(n_providers) {
                self.add_edge(a, b, Relationship::Peer);
            }
        }

        // --- Random peering to fill the AS–AS edge budget ----------------------
        // Two populations, mirroring how public route collectors see p2p
        // links: a core mesh among providers and content networks
        // (weight-biased), and a large volume of stub–stub peering among
        // the exchange-attached edge (route-server style multilateral
        // peering). Keeping stub peers *among stubs* preserves the
        // coverage tail: a stub is dominated through its provider, not
        // through an incidental hub adjacency.
        let remaining = cfg.target_as_edges.saturating_sub(self.edges.len());
        let core_budget = self.edges.len() + remaining * 3 / 10;

        // Core mesh endpoints: providers (dampened Zipf) + content stubs.
        let mut core_ids: Vec<usize> = (0..n_providers).collect();
        let mut core_weights: Vec<f64> =
            self.provider_weights.iter().map(|w| w.powf(0.6)).collect();
        for s in 0..first_isolated {
            if kinds[stub_base + s] == NodeKind::Content {
                core_ids.push(stub_base + s);
                core_weights.push(0.25 * ((s + 2) as f64).powf(-0.8));
            }
        }
        let core_dist = weighted(core_weights);
        let mut guard = 0usize;
        while self.edges.len() < core_budget && guard < cfg.target_as_edges * 20 {
            guard += 1;
            let a = core_ids[core_dist.sample(self.rng)];
            let b = core_ids[core_dist.sample(self.rng)];
            self.add_edge(a, b, Relationship::Peer);
        }

        // Edge mesh: stubs that peer (a heavy-tailed "peering appetite"
        // over the non-isolated stub population).
        let stub_peer_weights: Vec<f64> = (0..first_isolated)
            .map(|s| {
                // Shuffle-free pseudo-rank: hash the index so appetite is
                // uncorrelated with the content/enterprise split order.
                let r = (s.wrapping_mul(2654435761) % first_isolated.max(1)) + 1;
                (r as f64).powf(-0.5)
            })
            .collect();
        if first_isolated > 1 {
            let stub_dist = weighted(stub_peer_weights);
            let mut guard = 0usize;
            while self.edges.len() < cfg.target_as_edges && guard < cfg.target_as_edges * 20 {
                guard += 1;
                let a = stub_base + stub_dist.sample(self.rng);
                let b = stub_base + stub_dist.sample(self.rng);
                self.add_edge(a, b, Relationship::Peer);
            }
        }

        // --- IXP memberships ----------------------------------------------------
        // IXP j attracts members ∝ (j + 1)^-0.9; every provider joins a
        // couple of exchanges, a configurable fraction of stubs joins one.
        let ixp_base = n_as;
        if cfg.n_ixp > 0 {
            let ixp_weights: Vec<f64> = (0..cfg.n_ixp)
                .map(|j| ((j + 1) as f64).powf(-1.15))
                .collect();
            let ixp_dist = weighted(ixp_weights);

            // Member pool: all providers + sampled stubs (content always).
            let mut members: Vec<usize> = (0..n_providers).collect();
            for s in 0..first_isolated {
                let kind = kinds[stub_base + s];
                let join = match kind {
                    NodeKind::Content => true,
                    _ => self.rng.gen_range(0.0..1.0) < cfg.frac_member_stubs,
                };
                if join {
                    members.push(stub_base + s);
                }
            }
            // First pass: every member joins one exchange.
            for &m in &members {
                let j = ixp_dist.sample(self.rng);
                self.add_edge(m, ixp_base + j, Relationship::IxpMembership);
            }
            // Remaining budget: extra memberships, provider-biased.
            let member_extra_weights: Vec<f64> = members
                .iter()
                .map(|&m| if m < n_providers { 1.0 } else { 0.05 })
                .collect();
            let member_dist = weighted(member_extra_weights);
            let mut guard = 0usize;
            while self.rels.len() < cfg.target_as_edges + cfg.target_memberships
                && guard < cfg.target_memberships * 40
            {
                guard += 1;
                let m = members[member_dist.sample(self.rng)];
                let j = ixp_dist.sample(self.rng);
                self.add_edge(m, ixp_base + j, Relationship::IxpMembership);
            }
        }

        // --- Assemble -----------------------------------------------------------
        let mut b = GraphBuilder::with_capacity(n_total, self.rels.len());
        for &(u, v, _) in &self.rels {
            b.add_edge(u, v);
        }
        Internet::from_parts(b.build(), kinds, self.rels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Internet {
        InternetConfig::scaled(Scale::Tiny).generate(7)
    }

    #[test]
    fn presets_validate() {
        for s in [Scale::Full, Scale::Quarter, Scale::Tiny] {
            InternetConfig::scaled(s).validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = InternetConfig::scaled(Scale::Tiny);
        c.n_tier1 = 1;
        assert!(c.validate().is_err());

        let mut c = InternetConfig::scaled(Scale::Tiny);
        c.stub_multihoming = [0.5, 0.5, 0.5];
        assert!(c.validate().is_err());

        let mut c = InternetConfig::scaled(Scale::Tiny);
        c.frac_content = 0.9;
        c.frac_enterprise = 0.2;
        assert!(c.validate().is_err());

        let mut c = InternetConfig::scaled(Scale::Tiny);
        c.zipf_exponent = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn node_counts_match_config() {
        let cfg = InternetConfig::scaled(Scale::Tiny);
        let net = cfg.generate(1);
        assert_eq!(net.graph().node_count(), cfg.node_count());
        assert_eq!(net.as_count(), cfg.as_count());
        assert_eq!(net.ixp_count(), cfg.n_ixp);
        assert_eq!(net.tier1s().len(), cfg.n_tier1);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = InternetConfig::scaled(Scale::Tiny);
        let a = cfg.generate(99);
        let b = cfg.generate(99);
        assert_eq!(a.graph(), b.graph());
        assert!(a.relationships().eq(b.relationships()));
        let c = cfg.generate(100);
        assert_ne!(a.graph(), c.graph());
    }

    #[test]
    fn edge_budgets_roughly_met() {
        let cfg = InternetConfig::scaled(Scale::Tiny);
        let net = cfg.generate(3);
        let as_edges = net
            .relationships()
            .filter(|r| r.2 != Relationship::IxpMembership)
            .count();
        let memberships = net.graph().edge_count() - as_edges;
        assert!(
            (as_edges as f64) > 0.95 * cfg.target_as_edges as f64,
            "as_edges {as_edges} vs target {}",
            cfg.target_as_edges
        );
        assert!(
            (memberships as f64) > 0.8 * cfg.target_memberships as f64,
            "memberships {memberships} vs target {}",
            cfg.target_memberships
        );
    }

    #[test]
    fn ixps_only_have_membership_edges() {
        let net = tiny();
        for (u, v, rel) in net.relationships() {
            let touches_ixp = net.kind(u) == NodeKind::Ixp || net.kind(v) == NodeKind::Ixp;
            if touches_ixp {
                assert_eq!(rel, Relationship::IxpMembership, "edge ({u}, {v})");
            } else {
                assert_ne!(rel, Relationship::IxpMembership, "edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn giant_component_dominates() {
        let net = tiny();
        let comps = netgraph::connected_components(net.graph());
        let (_, giant) = comps.giant().unwrap();
        let frac = giant as f64 / net.graph().node_count() as f64;
        assert!(frac > 0.95, "giant fraction {frac}");
        assert!(frac < 1.0, "isolated islands should exist");
    }

    #[test]
    fn stub_degrees_small_provider_degrees_heavy() {
        let net = tiny();
        let g = net.graph();
        // Top provider should have a large neighborhood.
        let top_deg = g.degree(NodeId(InternetConfig::scaled(Scale::Tiny).n_tier1 as u32));
        assert!(
            top_deg > 30,
            "top transit degree {top_deg} suspiciously small"
        );
        // Access stubs keep small degree on average.
        let mut acc = 0usize;
        let mut cnt = 0usize;
        for v in g.nodes() {
            if net.kind(v) == NodeKind::Access {
                acc += g.degree(v);
                cnt += 1;
            }
        }
        let mean = acc as f64 / cnt as f64;
        // Stub-stub route-server peering gives access stubs a moderate
        // mean degree, but they must stay far below the provider head.
        assert!(mean < 15.0, "mean access degree {mean}");
        assert!(
            (top_deg as f64) > 5.0 * mean,
            "provider head degree {top_deg} should dwarf stub mean {mean}"
        );
    }

    #[test]
    fn without_ixps_strips_exactly_ixps() {
        let net = tiny();
        let (g, map) = net.without_ixps();
        assert_eq!(g.node_count(), net.as_count());
        assert!(map.iter().all(|&v| net.kind(v).is_as()));
        // Membership edges vanish, AS-AS edges survive.
        let as_edges = net
            .relationships()
            .filter(|r| r.2 != Relationship::IxpMembership)
            .count();
        assert_eq!(g.edge_count(), as_edges);
    }

    #[test]
    fn member_fraction_in_band() {
        let net = tiny();
        let g = net.graph();
        let mut member_as = 0usize;
        for v in g.nodes() {
            if net.kind(v).is_as() && g.neighbors(v).iter().any(|&n| net.kind(n) == NodeKind::Ixp) {
                member_as += 1;
            }
        }
        let frac = member_as as f64 / net.as_count() as f64;
        assert!(
            (0.25..=0.60).contains(&frac),
            "member fraction {frac} outside calibration band"
        );
    }

    /// `name` counts one vertex's ordinal, `names` every ordinal in one
    /// pass: they agree. Tiny has 5 tier-1s, 80 transit, 50 content, 150
    /// enterprise and 800 access stubs, then 12 IXPs.
    #[test]
    fn names_count_within_each_kind() {
        let net = tiny();
        let names = net.names();
        assert_eq!(names.len(), net.graph().node_count());
        for v in net.graph().nodes() {
            assert_eq!(net.name(v), names[v.index()]);
        }
        for (v, name) in [
            (0, "Backbone-0"),
            (84, "Transit-79"),
            (85, "Content-0"),
            (135, "Enterprise-0"),
            (285, "Access-0"),
            (1085, "IXP Frankfurt"),
            (1096, "IXP Paris"),
        ] {
            assert_eq!(names[v], name);
        }
    }

    #[test]
    fn from_parts_normalizes_reversed_edges() {
        use netgraph::graph::from_edges;
        let g = from_edges(2, [(NodeId(0), NodeId(1))]);
        let net = Internet::from_parts(
            g,
            vec![NodeKind::Access, NodeKind::Transit],
            vec![(NodeId(1), NodeId(0), Relationship::ProviderOfB)],
        );
        // Stored as (0, 1, CustomerOfB): 0 is customer of 1.
        assert_eq!(
            net.relationships().collect::<Vec<_>>(),
            [(NodeId(0), NodeId(1), Relationship::CustomerOfB)]
        );
    }

    #[test]
    #[should_panic(expected = "conflicting relationships")]
    fn from_parts_rejects_conflicting_duplicates() {
        use netgraph::graph::from_edges;
        let g = from_edges(2, [(NodeId(0), NodeId(1))]);
        Internet::from_parts(
            g,
            vec![NodeKind::Access, NodeKind::Transit],
            vec![
                (NodeId(0), NodeId(1), Relationship::CustomerOfB),
                (NodeId(0), NodeId(1), Relationship::Peer),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "relationship list")]
    fn from_parts_rejects_incomplete_rels() {
        use netgraph::graph::from_edges;
        let g = from_edges(3, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        Internet::from_parts(
            g,
            vec![NodeKind::Access; 3],
            vec![(NodeId(0), NodeId(1), Relationship::Peer)],
        );
    }

    /// The right count is not enough: a list naming the non-edge (0, 2)
    /// in place of (1, 2) does not cover the path 0–1–2.
    #[test]
    #[should_panic(expected = "relationship list")]
    fn from_parts_rejects_a_non_edge() {
        use netgraph::graph::from_edges;
        let g = from_edges(3, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        Internet::from_parts(
            g,
            vec![NodeKind::Access; 3],
            vec![
                (NodeId(0), NodeId(1), Relationship::Peer),
                (NodeId(0), NodeId(2), Relationship::Peer),
            ],
        );
    }
}
