//! Incremental broker-set maintenance under epochal topology deltas.
//!
//! The paper selects its broker set once, on a static snapshot. A
//! long-lived serving system lives through churn — IXP births,
//! membership growth, AS births and deaths — and recomputing greedy MCB
//! from scratch every epoch is pure batch posture: almost all coverage
//! gains are untouched by any one epoch's edits. This module maintains
//! the greedy selection *incrementally*:
//!
//! - [`CoverageIndex`] — the delta-aware coverage state shared with
//!   [`crate::greedy_mcb`]: per-vertex *cover counts* (`|closed(x) ∩ B|`
//!   rather than a covered bit) so broker removals are as cheap as
//!   additions, growable so vertex births do not invalidate it.
//! - [`celf_fill`] lives here too (refactored out of `greedy.rs`): the
//!   CELF stale-gain priority queue that both the one-shot greedy and
//!   the incremental engine drain. Submodularity makes cached heap
//!   gains upper bounds within an epoch; across a delta, a gain can
//!   only *increase* when a vertex acquires an uncovered closed
//!   neighbor, and [`BrokerMaintainer::apply`] re-seeds fresh
//!   `deg + 1` bounds for exactly those vertices (added-edge endpoints,
//!   newborns, and the closed neighborhoods of vertices that flipped
//!   covered → uncovered), preserving the upper-bound invariant the
//!   lazy evaluation relies on.
//! - [`BrokerMaintainer`] — applies a [`netgraph::GraphDelta`] per
//!   epoch: withdraws dead brokers, patches only the *touched* cover
//!   counts, evicts brokers whose exclusive coverage dropped to zero,
//!   re-seeds dirty bounds and lazily refills the budget. Every epoch
//!   appends an [`EpochReport`] (swaps, coverage, gains re-evaluated)
//!   to a [`StabilityLedger`]; a [`MaintenanceCertificate`] certifies
//!   the whole state — including the coverage gap against a full
//!   from-scratch recompute — through [`netgraph::Validate`].
//!
//! When an epoch touches more than [`MaintainConfig::rebuild_fraction`]
//! of the vertices, the engine falls back to an exact full recompute
//! (bit-identical to [`crate::greedy_mcb`]); otherwise the maintained
//! set tracks the recomputed one within a small, *measured* coverage
//! gap — the differential property tests assert both regimes.

use crate::problem::BrokerSelection;
use netgraph::{Graph, GraphDelta, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Growable, removal-friendly coverage state: for every vertex `x`, the
/// number of brokers in its closed neighborhood (`x` and its
/// neighbors). `x` is covered iff its count is positive, so
/// `f(B) = |B ∪ N(B)|` is the number of positive counts — and removing
/// a broker is a decrement, not a recompute.
///
/// Unlike [`crate::CoverageState`] (two fixed-capacity bitsets), the
/// index survives vertex births: [`CoverageIndex::grow_to`] extends the
/// count vector, and brokers live in a `BTreeSet` with no capacity to
/// outgrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageIndex {
    brokers: BTreeSet<NodeId>,
    /// `cover_count[x] = |closed(x) ∩ B|`.
    cover_count: Vec<u32>,
    /// Number of vertices with a positive count, i.e. `f(B)`.
    covered: usize,
}

impl CoverageIndex {
    /// Empty index over `n` vertices.
    pub fn new(n: usize) -> Self {
        let idx = CoverageIndex {
            brokers: BTreeSet::new(),
            cover_count: vec![0; n],
            covered: 0,
        };
        netgraph::validate::debug_validate(&idx);
        idx
    }

    /// Extend the vertex range to `n` (newborns start uncovered);
    /// shrinking is a no-op.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.cover_count.len() {
            self.cover_count.resize(n, 0);
        }
    }

    /// Current vertex capacity.
    pub fn capacity(&self) -> usize {
        self.cover_count.len()
    }

    /// The broker set `B`.
    pub fn brokers(&self) -> &BTreeSet<NodeId> {
        &self.brokers
    }

    /// Whether `v` is a broker.
    fn is_broker(&self, v: NodeId) -> bool {
        self.brokers.contains(&v)
    }

    /// `f(B)` — vertices with at least one broker in their closed
    /// neighborhood.
    pub fn covered_count(&self) -> usize {
        self.covered
    }

    /// Brokers covering `x` (the cover count).
    fn cover_count(&self, x: NodeId) -> u32 {
        self.cover_count[x.index()]
    }

    /// Marginal gain `f(B ∪ {v}) − f(B)`: uncovered vertices in `v`'s
    /// closed neighborhood.
    pub fn gain(&self, g: &Graph, v: NodeId) -> usize {
        let mut gain = usize::from(self.cover_count[v.index()] == 0);
        for &u in g.neighbors(v) {
            if self.cover_count[u.index()] == 0 {
                gain += 1;
            }
        }
        gain
    }

    /// Vertices only `b` covers — the coverage that would be lost if `b`
    /// were evicted.
    fn exclusive_coverage(&self, g: &Graph, b: NodeId) -> usize {
        let mut excl = usize::from(self.cover_count[b.index()] == 1);
        for &u in g.neighbors(b) {
            if self.cover_count[u.index()] == 1 {
                excl += 1;
            }
        }
        excl
    }

    /// Add broker `v`; returns the realized gain.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already a broker.
    pub fn add(&mut self, g: &Graph, v: NodeId) -> usize {
        assert!(self.brokers.insert(v), "{v} is already a broker");
        let mut gained = self.bump(v);
        for &u in g.neighbors(v) {
            gained += self.bump(u);
        }
        gained
    }

    /// Remove broker `v`; returns the coverage lost.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a broker.
    pub fn remove(&mut self, g: &Graph, v: NodeId) -> usize {
        assert!(self.brokers.remove(&v), "{v} is not a broker");
        let mut lost = self.unbump(v);
        for &u in g.neighbors(v) {
            lost += self.unbump(u);
        }
        lost
    }

    /// Overwrite `x`'s cover count, keeping the covered tally
    /// consistent.
    pub(crate) fn set_count(&mut self, x: NodeId, count: u32) {
        let old = self.cover_count[x.index()];
        self.cover_count[x.index()] = count;
        match (old > 0, count > 0) {
            (false, true) => self.covered += 1,
            (true, false) => self.covered -= 1,
            _ => {}
        }
    }

    /// `|closed(x) ∩ B|` re-derived from `g` (not the stored count).
    pub(crate) fn count_from_graph(&self, g: &Graph, x: NodeId) -> u32 {
        let mut c = u32::from(self.brokers.contains(&x));
        for &u in g.neighbors(x) {
            if self.brokers.contains(&u) {
                c += 1;
            }
        }
        c
    }

    fn bump(&mut self, x: NodeId) -> usize {
        let c = &mut self.cover_count[x.index()];
        *c += 1;
        if *c == 1 {
            self.covered += 1;
            1
        } else {
            0
        }
    }

    fn unbump(&mut self, x: NodeId) -> usize {
        let c = &mut self.cover_count[x.index()];
        *c -= 1;
        if *c == 0 {
            self.covered -= 1;
            1
        } else {
            0
        }
    }
}

impl netgraph::Validate for CoverageIndex {
    /// Self-contained invariants (graph-free):
    ///
    /// 1. the covered tally equals the number of positive counts;
    /// 2. every broker id is inside the count vector;
    /// 3. every broker covers at least itself (`count ≥ 1`).
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("brokerset::CoverageIndex");
        rep.check(
            "covindex.covered-tally",
            self.covered == self.cover_count.iter().filter(|&&c| c > 0).count(),
            || {
                format!(
                    "covered tally {} disagrees with the count vector",
                    self.covered
                )
            },
        );
        let in_range = self
            .brokers
            .iter()
            .all(|v| v.index() < self.cover_count.len());
        rep.check("covindex.brokers-in-range", in_range, || {
            "a broker id is outside the count vector".into()
        });
        rep.check(
            "covindex.brokers-covered",
            in_range
                && self
                    .brokers
                    .iter()
                    .all(|v| self.cover_count[v.index()] >= 1),
            || "a broker's own cover count is zero".into(),
        );
        rep
    }
}

/// The CELF loop shared by [`crate::greedy_mcb`] and the incremental
/// engine: drain stale cached gains from `heap`, re-evaluating lazily,
/// selecting into `order` until the budget `k` is reached, the graph is
/// fully covered, or every remaining gain is zero. Returns the number
/// of gains re-evaluated.
///
/// `strict` asserts the submodularity bound `fresh ≤ cached` (valid for
/// a freshly seeded heap; a heap carried across deltas may hold
/// understated entries, which cost extra re-evaluations but never break
/// the max-entry upper-bound invariant the caller maintains).
pub(crate) fn celf_fill(
    g: &Graph,
    idx: &mut CoverageIndex,
    k: usize,
    heap: &mut BinaryHeap<(usize, Reverse<NodeId>)>,
    order: &mut Vec<NodeId>,
    strict: bool,
) -> usize {
    let n = g.node_count();
    let mut reevals = 0usize;
    while order.len() < k && idx.covered_count() < n {
        let Some((cached, Reverse(v))) = heap.pop() else {
            break;
        };
        if idx.is_broker(v) {
            continue;
        }
        // Drop duplicate entries for `v` sitting at the top (an epoch's
        // dirty re-seeding can enqueue a vertex more than once).
        while matches!(heap.peek(), Some(&(_, Reverse(u))) if u == v) {
            heap.pop();
        }
        let fresh = idx.gain(g, v);
        reevals += 1;
        if strict {
            debug_assert!(fresh <= cached, "submodularity violated");
        }
        let still_best = heap
            .peek()
            .is_none_or(|&(next, Reverse(u))| fresh > next || (fresh == next && v < u));
        if still_best {
            if fresh == 0 {
                // Nothing left to cover; keep `v` enqueued for future
                // epochs (a delta may resurrect its gain).
                heap.push((0, Reverse(v)));
                break;
            }
            idx.add(g, v);
            order.push(v);
        } else {
            heap.push((fresh, Reverse(v)));
        }
    }
    reevals
}

/// What one epoch of maintenance did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (1-based; epoch 0 is the initial selection).
    pub epoch: u32,
    /// Brokers evicted this epoch (died, or lost all exclusive
    /// coverage), ascending.
    pub swapped_out: Vec<NodeId>,
    /// Brokers selected this epoch, in selection order.
    pub swapped_in: Vec<NodeId>,
    /// `f(B)` after the epoch.
    pub coverage: usize,
    /// Vertex count after the epoch.
    pub node_count: usize,
    /// Gains lazily re-evaluated this epoch (the work the CELF queue
    /// did *not* skip).
    pub gains_reevaluated: usize,
    /// Whether the epoch fell back to an exact full recompute.
    pub recomputed: bool,
    /// Relative coverage gap vs a full recompute, if measured
    /// (`(full − incremental) / full`; negative when the maintained set
    /// covers more).
    pub coverage_gap: Option<f64>,
}

impl EpochReport {
    /// Brokers changed this epoch (evictions plus selections).
    pub fn swaps(&self) -> usize {
        self.swapped_out.len() + self.swapped_in.len()
    }

    /// Replay this epoch's swaps onto the pre-epoch broker set,
    /// producing the post-epoch set sized at this epoch's vertex count.
    ///
    /// `(before-resized, after)` is exactly the `(current, target)`
    /// configuration pair the `routing::plan` reconfiguration planner
    /// takes, so a maintenance epoch can be applied as a dependency-DAG
    /// transition instead of an atomic swap. Brokers outside the new
    /// vertex range (tombstoned before this epoch) are dropped from both
    /// sides.
    pub fn transition(&self, before: &NodeSet) -> (NodeSet, NodeSet) {
        let n = self.node_count;
        let mut cur = NodeSet::new(n);
        for b in before.iter() {
            if b.index() < n {
                cur.insert(b);
            }
        }
        let mut after = cur.clone();
        for &b in &self.swapped_out {
            if b.index() < n {
                after.remove(b);
            }
        }
        for &b in &self.swapped_in {
            if b.index() < n {
                after.insert(b);
            }
        }
        (cur, after)
    }
}

/// Append-only regret/stability ledger: one [`EpochReport`] per applied
/// delta.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StabilityLedger {
    reports: Vec<EpochReport>,
}

impl StabilityLedger {
    /// All epoch reports, oldest first.
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }

    /// Total brokers swapped across all epochs.
    pub fn total_swaps(&self) -> usize {
        self.reports.iter().map(EpochReport::swaps).sum()
    }

    /// The largest single-epoch swap count (the stability headline: how
    /// much of the alliance can churn at once).
    pub fn max_swaps_per_epoch(&self) -> usize {
        self.reports
            .iter()
            .map(EpochReport::swaps)
            .max()
            .unwrap_or(0)
    }

    /// Attach a measured coverage gap to epoch report `i`.
    pub fn set_gap(&mut self, i: usize, gap: f64) {
        self.reports[i].coverage_gap = Some(gap);
    }

    fn push(&mut self, r: EpochReport) {
        self.reports.push(r);
    }
}

/// Tuning knobs of the incremental engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintainConfig {
    /// When one epoch's delta touches at least this fraction of the
    /// vertices, fall back to an exact full recompute instead of
    /// patching — the patch bookkeeping would approach the recompute
    /// cost anyway, and the fallback re-anchors the maintained set to
    /// the exact greedy selection.
    pub rebuild_fraction: f64,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig {
            rebuild_fraction: 0.25,
        }
    }
}

/// Epoch-driven maintainer of a greedy broker set under
/// [`GraphDelta`]s.
///
/// ```
/// use brokerset::{BrokerMaintainer, MaintainConfig};
/// use netgraph::{graph::from_edges, GraphDelta, NodeId};
///
/// let g = from_edges(5, (1..5).map(|i| (NodeId(0), NodeId(i))));
/// let mut m = BrokerMaintainer::new(&g, 2, MaintainConfig::default());
/// assert_eq!(m.brokers(), &[NodeId(0)]); // the hub covers everything
///
/// // Epoch 1: a new vertex attaches to vertex 1.
/// let mut d = GraphDelta::new(5);
/// let w = d.add_node();
/// d.add_edge(w, NodeId(1));
/// let g1 = g.apply_delta(&d);
/// let report = m.apply(&g, &g1, &d);
/// assert_eq!(report.epoch, 1);
/// assert_eq!(m.coverage(), 6); // budget refilled to cover the newborn
/// ```
#[derive(Debug, Clone)]
pub struct BrokerMaintainer {
    k: usize,
    cfg: MaintainConfig,
    idx: CoverageIndex,
    /// Persistent CELF queue; for every non-broker its *maximum* entry
    /// is an upper bound on its true gain (see [`celf_fill`]).
    heap: BinaryHeap<(usize, Reverse<NodeId>)>,
    /// Current brokers in selection order (evictions keep the relative
    /// order of survivors).
    order: Vec<NodeId>,
    epoch: u32,
    ledger: StabilityLedger,
}

impl BrokerMaintainer {
    /// Select the initial (epoch-0) broker set on `g` — bit-identical
    /// to [`crate::greedy_mcb`] — and prime the incremental state.
    pub fn new(g: &Graph, k: usize, cfg: MaintainConfig) -> Self {
        let mut m = BrokerMaintainer {
            k,
            cfg,
            idx: CoverageIndex::new(g.node_count()),
            heap: BinaryHeap::new(),
            order: Vec::new(),
            epoch: 0,
            ledger: StabilityLedger::default(),
        };
        m.recompute(g);
        netgraph::validate::debug_validate(&m);
        m
    }

    /// Budget `k`.
    pub fn budget(&self) -> usize {
        self.k
    }

    /// Current brokers in selection order.
    pub fn brokers(&self) -> &[NodeId] {
        &self.order
    }

    /// Current `f(B)`.
    pub fn coverage(&self) -> usize {
        self.idx.covered_count()
    }

    /// Epochs applied so far.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The regret/stability ledger.
    pub fn ledger(&self) -> &StabilityLedger {
        &self.ledger
    }

    /// Mutable ledger access (for attaching measured coverage gaps).
    pub fn ledger_mut(&mut self) -> &mut StabilityLedger {
        &mut self.ledger
    }

    /// The coverage index (counts, broker set).
    pub fn index(&self) -> &CoverageIndex {
        &self.idx
    }

    /// Package the current brokers as a [`BrokerSelection`].
    pub fn selection(&self) -> BrokerSelection {
        BrokerSelection::new(
            "greedy-mcb-incremental",
            self.idx.capacity(),
            self.order.clone(),
        )
    }

    /// A machine-checkable certificate binding this maintainer to a
    /// graph (and optionally to a coverage-gap bound vs full
    /// recompute); validate with [`netgraph::Validate::audit`].
    pub fn certify<'a>(&'a self, g: &'a Graph) -> MaintenanceCertificate<'a> {
        MaintenanceCertificate {
            maintainer: self,
            graph: g,
            gap_bound: None,
        }
    }

    /// Apply one epoch's delta: `old_g` is the graph the maintainer
    /// currently tracks, `new_g = old_g.apply_delta(delta)` (passed in
    /// so the caller keeps ownership of the epoch graphs and the
    /// maintenance cost excludes the CSR rebuild both sides pay).
    ///
    /// # Panics
    ///
    /// Panics if the graphs do not match the delta's vertex counts.
    pub fn apply(&mut self, old_g: &Graph, new_g: &Graph, delta: &GraphDelta) -> &EpochReport {
        assert_eq!(
            old_g.node_count(),
            delta.base_nodes(),
            "old graph does not match the delta's base"
        );
        assert_eq!(
            new_g.node_count(),
            delta.node_count_after(),
            "new graph does not match the delta's result"
        );
        self.epoch += 1;
        let old_n = old_g.node_count();
        let new_n = new_g.node_count();
        self.idx.grow_to(new_n);

        let mut swapped_out: Vec<NodeId> = Vec::new();

        // Vertices whose cover count may have changed: endpoints of
        // edited edges, the dead and their old neighborhoods, newborns.
        let mut affected: BTreeSet<NodeId> = BTreeSet::new();
        for &(a, b) in delta.added_edges().iter().chain(delta.removed_edges()) {
            affected.insert(NodeId(a));
            affected.insert(NodeId(b));
        }
        for &v in delta.removed_nodes() {
            affected.insert(v);
            // A delta may tombstone one of its own newborns; those have
            // no old adjacency to consult.
            if v.index() < old_n {
                for &u in old_g.neighbors(v) {
                    affected.insert(u);
                }
            }
        }
        for v in old_n..new_n {
            affected.insert(NodeId::from(v));
        }

        // First-touch snapshot of every cover count this epoch edits,
        // for covered → uncovered flip detection below.
        let mut touched: BTreeMap<NodeId, u32> = BTreeMap::new();

        // Dead brokers leave the set first, returning the counts they
        // contributed along their *old* adjacency (their edges are gone
        // in `new_g`).
        for &v in delta.removed_nodes() {
            if self.idx.is_broker(v) {
                // A newborn cannot be a broker yet, so `v` predates the
                // delta and its old adjacency is consultable.
                touched.entry(v).or_insert(self.idx.cover_count(v));
                for &u in old_g.neighbors(v) {
                    touched.entry(u).or_insert(self.idx.cover_count(u));
                }
                self.idx.remove(old_g, v);
                swapped_out.push(v);
            }
        }

        // Heavy epoch: patching would approach recompute cost, so
        // re-anchor exactly.
        if (affected.len() as f64) >= self.cfg.rebuild_fraction * (new_n as f64) {
            return self.apply_recompute(new_g, swapped_out);
        }

        // Patch counts differentially, one edge transition at a time:
        // the distinct vertex pairs whose adjacency may differ between
        // the graphs are the edited pairs plus the incident pairs of the
        // dead. Comparing old vs new adjacency per pair makes this
        // robust to duplicate or self-cancelling delta ops, and — unlike
        // re-counting closed neighborhoods — the cost stays O(Δ log deg)
        // even when churn lands on hubs. Brokers that may have lost
        // their last exclusively covered vertex are collected as
        // eviction candidates along the way.
        let mut pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let norm = |a: NodeId, b: NodeId| if a < b { (a, b) } else { (b, a) };
        for &(a, b) in delta.added_edges().iter().chain(delta.removed_edges()) {
            if a != b {
                pairs.insert(norm(NodeId(a), NodeId(b)));
            }
        }
        for &v in delta.removed_nodes() {
            if v.index() < old_n {
                for &u in old_g.neighbors(v) {
                    pairs.insert(norm(v, u));
                }
            }
        }
        let mut evict_candidates: BTreeSet<NodeId> = BTreeSet::new();
        let mut raised_from_one: Vec<NodeId> = Vec::new();
        for &(a, b) in &pairs {
            let was = a.index() < old_n && b.index() < old_n && old_g.has_edge(a, b);
            let is = new_g.has_edge(a, b);
            if was == is {
                continue;
            }
            if !is {
                // A vanished edge is the only way a surviving broker
                // endpoint can lose an exclusively covered vertex it
                // still neighbors.
                for v in [a, b] {
                    if self.idx.is_broker(v) {
                        evict_candidates.insert(v);
                    }
                }
            }
            for (x, y) in [(a, b), (b, a)] {
                if self.idx.is_broker(y) {
                    let old = *touched.entry(x).or_insert(self.idx.cover_count(x));
                    let c = self.idx.cover_count(x);
                    self.idx.set_count(x, if is { c + 1 } else { c - 1 });
                    if old == 1 && self.idx.cover_count(x) >= 2 {
                        raised_from_one.push(x);
                    }
                }
            }
        }

        // Covered → uncovered flips: the only way an *untouched*
        // vertex's gain can rise.
        let flipped_uncovered: Vec<NodeId> = touched
            .iter()
            .filter(|&(&x, &old)| old > 0 && self.idx.cover_count(x) == 0)
            .map(|(&x, _)| x)
            .collect();

        // A vertex whose count rose from exactly 1 had a unique covering
        // broker that may now cover nothing exclusively; it sits in the
        // vertex's closed neighborhood.
        for &x in &raised_from_one {
            if self.idx.cover_count(x) < 2 {
                continue; // later transitions pulled it back down
            }
            if self.idx.is_broker(x) {
                evict_candidates.insert(x);
            }
            for &u in new_g.neighbors(x) {
                if self.idx.is_broker(u) {
                    evict_candidates.insert(u);
                }
            }
        }

        // Evict candidates whose exclusive coverage dropped to zero —
        // their budget slot buys more elsewhere. The eviction itself
        // flips nothing (nothing was exclusively theirs), so no further
        // propagation is needed.
        for &b in &evict_candidates {
            if self.idx.is_broker(b) && self.idx.exclusive_coverage(new_g, b) == 0 {
                self.idx.remove(new_g, b);
                swapped_out.push(b);
            }
        }
        swapped_out.sort_unstable();
        let out_set: BTreeSet<NodeId> = swapped_out.iter().copied().collect();
        self.order.retain(|v| !out_set.contains(v));

        // Re-seed fresh upper bounds for every vertex whose gain may
        // have *increased*: added-edge endpoints, newborns, evicted
        // brokers (candidates again), and the closed neighborhoods of
        // freshly uncovered vertices.
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();
        for &(a, b) in delta.added_edges() {
            dirty.insert(NodeId(a));
            dirty.insert(NodeId(b));
        }
        for v in old_n..new_n {
            dirty.insert(NodeId::from(v));
        }
        dirty.extend(out_set.iter().copied());
        for &u in &flipped_uncovered {
            dirty.insert(u);
            for &w in new_g.neighbors(u) {
                dirty.insert(w);
            }
        }
        for &v in &dirty {
            if !self.idx.is_broker(v) {
                self.heap.push((new_g.degree(v) + 1, Reverse(v)));
            }
        }

        // Lazily refill the freed budget.
        let before = self.order.len();
        let reevals = celf_fill(
            new_g,
            &mut self.idx,
            self.k,
            &mut self.heap,
            &mut self.order,
            false,
        );
        let swapped_in: Vec<NodeId> = self.order[before..].to_vec();

        self.finish_epoch(swapped_out, swapped_in, new_n, reevals, false)
    }

    /// The exact-recompute path of [`BrokerMaintainer::apply`].
    fn apply_recompute(&mut self, new_g: &Graph, dead: Vec<NodeId>) -> &EpochReport {
        let before: BTreeSet<NodeId> = self.order.iter().copied().collect();
        let reevals = self.recompute(new_g);
        let after: BTreeSet<NodeId> = self.order.iter().copied().collect();
        let mut swapped_out: Vec<NodeId> = before.difference(&after).copied().collect();
        for v in dead {
            // A dead broker is out even if the diff cannot see it (it
            // was dropped from `order` by recompute already).
            if !swapped_out.contains(&v) && !after.contains(&v) && before.contains(&v) {
                swapped_out.push(v);
            }
        }
        swapped_out.sort_unstable();
        let swapped_in: Vec<NodeId> = after.difference(&before).copied().collect();
        let n = new_g.node_count();
        self.finish_epoch(swapped_out, swapped_in, n, reevals, true)
    }

    fn finish_epoch(
        &mut self,
        swapped_out: Vec<NodeId>,
        swapped_in: Vec<NodeId>,
        node_count: usize,
        reevals: usize,
        recomputed: bool,
    ) -> &EpochReport {
        netgraph::counter!("incremental.gains_reevaluated", reevals as u64);
        netgraph::counter!(
            "incremental.swaps",
            (swapped_out.len() + swapped_in.len()) as u64
        );
        self.ledger.push(EpochReport {
            epoch: self.epoch,
            swapped_out,
            swapped_in,
            coverage: self.idx.covered_count(),
            node_count,
            gains_reevaluated: reevals,
            recomputed,
            coverage_gap: None,
        });
        netgraph::validate::debug_validate(self);
        // The report pushed four lines up: index, not `last().unwrap()`,
        // so the accessor cannot panic-path through an Option.
        &self.ledger.reports[self.ledger.reports.len() - 1]
    }

    /// From-scratch exact selection on `g` (the same computation as
    /// [`crate::greedy_mcb`]); replaces index, heap and order.
    fn recompute(&mut self, g: &Graph) -> usize {
        self.idx = CoverageIndex::new(g.node_count());
        self.heap = g.nodes().map(|v| (g.degree(v) + 1, Reverse(v))).collect();
        self.order = Vec::with_capacity(self.k.min(g.node_count()));
        celf_fill(
            g,
            &mut self.idx,
            self.k,
            &mut self.heap,
            &mut self.order,
            true,
        )
    }
}

impl netgraph::Validate for BrokerMaintainer {
    /// Graph-free invariants of the maintained state:
    ///
    /// 1. the selection order holds no duplicates and at most `k`
    ///    brokers;
    /// 2. order and index agree on the broker set;
    /// 3. ledger epochs are strictly increasing up to the current epoch;
    /// 4. the coverage index passes its own audit.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("brokerset::BrokerMaintainer");
        let order_set: BTreeSet<NodeId> = self.order.iter().copied().collect();
        rep.check(
            "maintainer.order-unique",
            order_set.len() == self.order.len(),
            || "duplicate broker in selection order".into(),
        );
        rep.check(
            "maintainer.within-budget",
            self.order.len() <= self.k,
            || format!("{} brokers exceed budget {}", self.order.len(), self.k),
        );
        rep.check(
            "maintainer.order-matches-index",
            order_set == self.idx.brokers().iter().copied().collect(),
            || "selection order and coverage index disagree on B".into(),
        );
        let epochs_ok = self
            .ledger
            .reports()
            .windows(2)
            .all(|w| w[0].epoch < w[1].epoch)
            && self
                .ledger
                .reports()
                .last()
                .is_none_or(|r| r.epoch == self.epoch);
        rep.check("maintainer.ledger-epochs", epochs_ok, || {
            "ledger epochs are not strictly increasing up to now".into()
        });
        rep.absorb(self.idx.audit());
        rep
    }
}

/// Binds a [`BrokerMaintainer`] to the graph it claims to track (and
/// optionally to a coverage-gap bound); [`netgraph::Validate::audit`]
/// re-derives every cover count from the graph, so a drifted index
/// cannot certify.
#[derive(Debug, Clone)]
pub struct MaintenanceCertificate<'a> {
    maintainer: &'a BrokerMaintainer,
    graph: &'a Graph,
    gap_bound: Option<f64>,
}

impl<'a> MaintenanceCertificate<'a> {
    /// Additionally require the maintained coverage to stay within
    /// `bound` (relative) of a full greedy recompute on the same graph.
    /// The audit then *runs the recompute* — exact but not free.
    pub fn with_gap_bound(mut self, bound: f64) -> MaintenanceCertificate<'a> {
        self.gap_bound = Some(bound);
        self
    }
}

impl netgraph::Validate for MaintenanceCertificate<'_> {
    /// Cross-checks the maintainer against the graph: capacity matches,
    /// every cover count re-derives, `f(B)` agrees, and (if bounded)
    /// the coverage gap vs [`crate::greedy_mcb`] is within bounds.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("brokerset::MaintenanceCertificate");
        let m = self.maintainer;
        let g = self.graph;
        rep.check(
            "certificate.capacity",
            m.idx.capacity() == g.node_count(),
            || {
                format!(
                    "index capacity {} vs graph {}",
                    m.idx.capacity(),
                    g.node_count()
                )
            },
        );
        if m.idx.capacity() == g.node_count() {
            let counts_ok = g
                .nodes()
                .all(|x| m.idx.count_from_graph(g, x) == m.idx.cover_count(x));
            rep.check("certificate.counts-rederive", counts_ok, || {
                "a stored cover count disagrees with the graph".into()
            });
            let derived_cov = g
                .nodes()
                .filter(|&x| m.idx.count_from_graph(g, x) > 0)
                .count();
            rep.check(
                "certificate.coverage-rederives",
                derived_cov == m.coverage(),
                || format!("stored f(B) {} vs derived {derived_cov}", m.coverage()),
            );
        }
        if let Some(bound) = self.gap_bound {
            let full = crate::greedy_mcb(g, m.k);
            let full_cov = crate::coverage::coverage(g, full.brokers());
            let gap = if full_cov == 0 {
                0.0
            } else {
                (full_cov as f64 - m.coverage() as f64) / full_cov as f64
            };
            rep.check("certificate.gap-within-bound", gap <= bound, || {
                format!("coverage gap {gap:.6} exceeds bound {bound}")
            });
        }
        rep.absorb(m.audit());
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use netgraph::Validate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn star(n: u32) -> Graph {
        from_edges(n as usize, (1..n).map(|i| (NodeId(0), NodeId(i))))
    }

    #[test]
    fn index_matches_coverage_state() {
        let g = netgraph::barabasi_albert(120, 3, &mut ChaCha8Rng::seed_from_u64(5));
        let mut idx = CoverageIndex::new(120);
        let mut cov = crate::CoverageState::new(&g);
        for v in [3u32, 77, 9, 42] {
            assert_eq!(idx.gain(&g, NodeId(v)), cov.gain(&g, NodeId(v)));
            assert_eq!(idx.add(&g, NodeId(v)), cov.add(&g, NodeId(v)));
            assert_eq!(idx.covered_count(), cov.covered_count());
        }
        assert!(idx.audit().is_ok());
    }

    #[test]
    fn add_remove_round_trips() {
        let g = star(6);
        let mut idx = CoverageIndex::new(6);
        let gained = idx.add(&g, NodeId(0));
        assert_eq!(gained, 6);
        assert_eq!(idx.exclusive_coverage(&g, NodeId(0)), 6);
        idx.add(&g, NodeId(1));
        // Everything vertex 1 covers, the hub covers too.
        assert_eq!(idx.exclusive_coverage(&g, NodeId(1)), 0);
        let lost = idx.remove(&g, NodeId(1));
        assert_eq!(lost, 0);
        assert_eq!(idx.covered_count(), 6);
        let lost = idx.remove(&g, NodeId(0));
        assert_eq!(lost, 6);
        assert_eq!(idx.covered_count(), 0);
        assert!(idx.brokers().is_empty());
    }

    #[test]
    fn grow_keeps_counts() {
        let g = star(4);
        let mut idx = CoverageIndex::new(4);
        idx.add(&g, NodeId(0));
        idx.grow_to(7);
        assert_eq!(idx.capacity(), 7);
        assert_eq!(idx.cover_count(NodeId(5)), 0);
        assert_eq!(idx.covered_count(), 4);
        idx.grow_to(3); // shrink is a no-op
        assert_eq!(idx.capacity(), 7);
    }

    #[test]
    fn index_audit_detects_corruption() {
        let g = star(4);
        let mut idx = CoverageIndex::new(4);
        idx.add(&g, NodeId(0));
        assert!(idx.audit().is_ok());
        let mut bad = idx.clone();
        bad.covered = 1;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "covindex.covered-tally"));
        let mut bad = idx.clone();
        bad.brokers.insert(NodeId(99));
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "covindex.brokers-in-range"));
        let mut bad = idx;
        bad.brokers.insert(NodeId(2));
        bad.cover_count[2] = 0;
        bad.covered = 3;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "covindex.brokers-covered"));
    }

    #[test]
    fn epoch_transition_replays_to_the_maintained_set() {
        // Whatever apply() did, report.transition(pre-epoch set) must
        // land exactly on the post-epoch maintained set — the contract
        // the reconfiguration planner's inputs ride on.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g0 = netgraph::barabasi_albert(160, 3, &mut rng);
        let mut m = BrokerMaintainer::new(&g0, 10, MaintainConfig::default());
        let mut g = g0.clone();
        for round in 0..6 {
            let before =
                NodeSet::from_iter_with_capacity(g.node_count(), m.brokers().iter().copied());
            let mut d = GraphDelta::new(g.node_count());
            let v = d.add_node();
            d.add_edge(v, NodeId(round * 7 % 160));
            d.remove_edge(NodeId(round % 20), NodeId((round % 20 + 1) % 20));
            let new_g = g.apply_delta(&d);
            let report = m.apply(&g, &new_g, &d).clone();
            let (cur, after) = report.transition(&before);
            assert_eq!(cur.capacity(), new_g.node_count());
            let want: Vec<NodeId> = {
                let mut b = m.brokers().to_vec();
                b.sort_unstable();
                b
            };
            assert_eq!(after.to_vec(), want, "round {round}");
            g = new_g;
        }
    }

    #[test]
    fn initial_selection_matches_greedy() {
        for seed in 0..6 {
            let g = netgraph::barabasi_albert(150, 3, &mut ChaCha8Rng::seed_from_u64(seed));
            let m = BrokerMaintainer::new(&g, 12, MaintainConfig::default());
            let full = crate::greedy_mcb(&g, 12);
            assert_eq!(m.brokers(), full.order(), "seed {seed}");
            assert_eq!(m.selection().order(), full.order());
            assert!(m.certify(&g).audit().is_ok());
        }
    }

    #[test]
    fn growth_epoch_extends_coverage() {
        let g = star(5);
        let mut m = BrokerMaintainer::new(&g, 2, MaintainConfig::default());
        assert_eq!(m.brokers(), &[NodeId(0)]);
        // Two newborns attach to vertex 3.
        let mut d = GraphDelta::new(5);
        let a = d.add_node();
        let b = d.add_node();
        d.add_edge(a, NodeId(3));
        d.add_edge(b, NodeId(3));
        let g1 = g.apply_delta(&d);
        let r = m.apply(&g, &g1, &d).clone();
        assert_eq!(r.epoch, 1);
        assert!(r.swapped_out.is_empty());
        // Budget refills: vertex 3 now covers itself + hub-adjacents + 2
        // newborns — the engine picks it (or covers the newborns some
        // other way) and coverage is complete.
        assert_eq!(m.coverage(), 7);
        assert!(m.certify(&g1).audit().is_ok());
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.ledger().reports().len(), 1);
    }

    #[test]
    fn broker_death_is_swapped_out_and_replaced() {
        let g = star(6);
        let mut m = BrokerMaintainer::new(
            &g,
            3,
            MaintainConfig {
                rebuild_fraction: 1.1,
            },
        );
        assert_eq!(m.brokers(), &[NodeId(0)]);
        let mut d = GraphDelta::new(6);
        d.remove_node(NodeId(0));
        let g1 = g.apply_delta(&d);
        let r = m.apply(&g, &g1, &d).clone();
        assert!(r.swapped_out.contains(&NodeId(0)));
        assert!(!r.recomputed, "rebuild_fraction 1.1 forces the patch path");
        // All 6 vertices are now isolated (5 leaves + the tombstone);
        // budget 3 covers three of them by ascending id — exactly what a
        // full greedy recompute on the new graph selects. The tombstone
        // is evicted as a *hub* and re-selected as a self-covering
        // isolated vertex.
        assert_eq!(m.brokers(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(m.brokers(), crate::greedy_mcb(&g1, 3).order());
        assert_eq!(m.coverage(), 3);
        assert!(m.certify(&g1).audit().is_ok());
        assert_eq!(r.swaps(), 1 + 3);
    }

    #[test]
    fn redundant_broker_is_evicted() {
        // Path 0-1, plus isolated 2: k=2 selects {0 or 1} then 2.
        let g = from_edges(3, [(NodeId(0), NodeId(1))]);
        let mut m = BrokerMaintainer::new(
            &g,
            2,
            MaintainConfig {
                rebuild_fraction: 1.1,
            },
        );
        let first = m.brokers().to_vec();
        assert_eq!(first.len(), 2);
        // Epoch 1: connect 2 to both 0 and 1 — broker 2's exclusive
        // coverage collapses (0/1's closed neighborhood now covers it).
        let mut d = GraphDelta::new(3);
        d.add_edge(NodeId(2), NodeId(0));
        d.add_edge(NodeId(2), NodeId(1));
        let g1 = g.apply_delta(&d);
        let r = m.apply(&g, &g1, &d).clone();
        // In the triangle every broker's coverage is redundant with the
        // other's; the ascending eviction scan drops the first one and
        // the survivor retains exclusive coverage of all three vertices.
        assert_eq!(r.swapped_out.len(), 1, "report: {r:?}");
        assert_eq!(m.brokers().len(), 1);
        assert_eq!(m.coverage(), 3);
        assert!(m.certify(&g1).audit().is_ok());
    }

    #[test]
    fn heavy_epoch_falls_back_to_exact_recompute() {
        let g = netgraph::barabasi_albert(80, 2, &mut ChaCha8Rng::seed_from_u64(7));
        let mut m = BrokerMaintainer::new(
            &g,
            8,
            MaintainConfig {
                rebuild_fraction: 0.01,
            },
        );
        let mut d = GraphDelta::new(80);
        d.add_edge(NodeId(3), NodeId(70));
        d.add_edge(NodeId(4), NodeId(71));
        let g1 = g.apply_delta(&d);
        let r = m.apply(&g, &g1, &d).clone();
        assert!(r.recomputed, "4 touched vertices >= 1% of 80");
        let full = crate::greedy_mcb(&g1, 8);
        assert_eq!(m.brokers(), full.order(), "recompute path is exact");
        assert!(m.certify(&g1).with_gap_bound(0.0).audit().is_ok());
    }

    #[test]
    fn certificate_detects_index_drift() {
        let g = star(5);
        let mut m = BrokerMaintainer::new(&g, 2, MaintainConfig::default());
        m.idx.cover_count[3] = 7; // drift
        let rep = m.certify(&g).audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "certificate.counts-rederive"));
        // And the gap bound fires when coverage is corrupted away.
        let mut m2 = BrokerMaintainer::new(&g, 2, MaintainConfig::default());
        m2.idx.set_count(NodeId(0), 0);
        m2.idx.set_count(NodeId(1), 0);
        let rep = m2.certify(&g).with_gap_bound(0.1).audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "certificate.gap-within-bound"));
    }

    #[test]
    fn maintainer_audit_detects_corruption() {
        let g = star(5);
        let mut m = BrokerMaintainer::new(&g, 2, MaintainConfig::default());
        assert!(m.audit().is_ok());
        m.order.push(NodeId(4)); // order no longer matches the index
        let rep = m.audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "maintainer.order-matches-index"));
    }

    #[test]
    fn ledger_aggregates() {
        let mut ledger = StabilityLedger::default();
        for (e, (o, i)) in [(1u32, (2usize, 1usize)), (2, (0, 3))] {
            ledger.push(EpochReport {
                epoch: e,
                swapped_out: (0..o as u32).map(NodeId).collect(),
                swapped_in: (10..10 + i as u32).map(NodeId).collect(),
                coverage: 5,
                node_count: 9,
                gains_reevaluated: 4,
                recomputed: false,
                coverage_gap: None,
            });
        }
        assert_eq!(ledger.total_swaps(), 6);
        assert_eq!(ledger.max_swaps_per_epoch(), 3);
        ledger.set_gap(0, 0.01);
        assert_eq!(ledger.reports()[0].coverage_gap, Some(0.01));
        // Reports serialize (the bench records them).
        let json = serde_json::to_string(&ledger).expect("serialize");
        let back: StabilityLedger = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, ledger);
    }
}
