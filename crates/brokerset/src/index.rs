//! Hop-bounded reachability index over the dominated subgraph — the
//! repo's query plane.
//!
//! Every evaluation so far has been a batch job; a brokerage deployment
//! instead answers point queries: *can `(s, t)` be stitched through the
//! broker set within `l` hops, and via which broker?* [`ReachIndex`]
//! precomputes per-broker hop-distance shards so that question costs a
//! single `O(k)` scan over two table rows (`k` = broker count) instead of
//! a BFS.
//!
//! ## Why broker-hub labeling is exact
//!
//! In the dominated edge set `{(u, v) : u ∈ B ∨ v ∈ B}` every edge has a
//! broker endpoint, so any dominated path of length ≥ 1 visits a broker
//! no later than its first edge. For any vertices `s ≠ t` the dominated
//! hop distance therefore satisfies
//!
//! ```text
//! d(s, t) = min over live brokers b of d(s, b) + d(b, t)
//! ```
//!
//! (≤ by concatenation, ≥ because a shortest dominated path contains a
//! broker `b` with `d(s, b) + d(b, t) = d(s, t)`). Storing, per broker
//! `b`, the dominated distances `d(b, ·)` capped at `max_l` loses
//! nothing for queries with `l ≤ max_l`: a witness path of length
//! `d ≤ max_l` splits as `d(s, b) ≤ 1` plus `d(b, t) ≤ d`, both within
//! the cap. Queries with `l > max_l` are clamped to `max_l` — the index
//! is *hop-bounded* by construction.
//!
//! ## The scan
//!
//! The table is vertex-major (`dist[v·k + j]`), so a query reads two
//! contiguous `k`-byte rows. [`ReachIndex::query`] takes the minimum over
//! `j` of the saturating `u8` sum `rs[j] + rt[j]` — a branch-free loop
//! the compiler turns into SSE2 `paddusb` + `pminub` on the default
//! x86-64 target — then returns the first `j` whose sum equals it.
//!
//! - *Saturation is exact.* [`UNREACH`] is 255 and every cap is at most
//!   [`MAX_HOP_CAP`] = 254, so a saturated sum — an unreachable entry, a
//!   dead (all-`UNREACH`) column or a finite total ≥ 255 — is never
//!   within the cap, and any sum within the cap is the true total.
//! - *The tie-break is kept.* The first minimal position is the smallest
//!   roster position, and the roster is ascending, so it is the smallest
//!   broker id among the cheapest.
//!
//! ## Shards, faults and invalidation
//!
//! The index keys one distance column ("shard") per roster broker,
//! columns ordered by ascending broker id. Shards are built by 64-lane
//! [`netgraph::msbfs`] batches over the masked dominated view (failed
//! vertices and cut edges vanish; defected brokers stop dominating but
//! keep their column, blanked, so the layout never changes), fanned out
//! on [`netgraph::par`] in waves of 64 × workers columns. Each batch
//! fills a vertex-major block, and each wave merges into the table in
//! one row-order pass that overwrites every rebuilt column, so writes
//! follow the table's layout and at most one wave of blocks is alive.
//! Blocks merge in batch order — bit-identical at every thread count.
//!
//! An epoch flip ([`ReachIndex::apply_state`]) decides per epoch, not
//! per shard. It diffs the index's fault sets against the new epoch's
//! and collects the dirty vertices: failed, recovered or defected
//! vertices with their neighbours, and the endpoints of changed edges.
//! An epoch with no dirty vertex leaves the masked view as it was and
//! keeps every column. Any other epoch blanks the columns of brokers
//! that left service and rebuilds every live column. A per-shard test
//! (keep a shard whose old `max_l`-ball misses every dirty vertex)
//! would spare nothing in practice: at l = 6, the cap brokerd, the
//! bench bins and the benchmark build at, a broker's dominated ball
//! holds nearly every vertex of the generated topologies, and no
//! measured changed epoch kept a shard. The counter
//! `index.shards_invalidated` tracks churn.

use netgraph::msbfs::LANES;
use netgraph::{
    fnv1a, with_msbfs, AuditReport, DominatedView, FaultState, Graph, GraphView, MaskedView,
    NodeId, NodeSet, Validate,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Sentinel for "not reachable within the hop cap" in a distance shard.
pub const UNREACH: u8 = u8::MAX;

/// Largest supported hop cap (distances are stored as `u8` with
/// [`UNREACH`] reserved).
pub const MAX_HOP_CAP: usize = 254;

/// One answered stitch query: the broker to route through and the hop
/// split on either side. `hops_s + hops_t` is the exact dominated hop
/// distance from `s` to `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StitchAnswer {
    /// The broker minimizing the total hop count (smallest id on ties).
    pub broker: NodeId,
    /// Dominated hops from the source to `broker`.
    pub hops_s: u32,
    /// Dominated hops from `broker` to the destination.
    pub hops_t: u32,
}

impl StitchAnswer {
    /// Total hops of the stitched route.
    pub fn hops(&self) -> u32 {
        self.hops_s + self.hops_t
    }
}

/// What one invalidation pass ([`ReachIndex::apply_state`]) did to the
/// shard set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationReport {
    /// Epoch the index now reflects.
    pub epoch: u32,
    /// Vertices flagged dirty by the changed elements. Zero means the
    /// epoch changed nothing the shards see.
    pub dirty: usize,
    /// Shards recomputed from scratch (includes reactivated ones):
    /// every live shard when `dirty > 0`, none otherwise.
    pub rebuilt: usize,
    /// Live shards kept verbatim: every live shard when `dirty == 0`,
    /// none otherwise.
    pub kept: usize,
    /// Columns blanked because their broker left service.
    pub deactivated: usize,
    /// Columns revived because their broker returned to service.
    pub reactivated: usize,
}

/// Decoding errors for the `BRI1` binary index format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexCodecError {
    /// Input shorter than the declared contents.
    Truncated,
    /// Bad magic bytes (not a BRI1 blob).
    BadMagic,
    /// The FNV-1a trailer does not match the payload.
    ChecksumMismatch,
    /// A structural invariant failed while decoding.
    Corrupt(&'static str),
}

impl std::fmt::Display for IndexCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexCodecError::Truncated => write!(f, "binary index blob truncated"),
            IndexCodecError::BadMagic => write!(f, "missing BRI1 magic"),
            IndexCodecError::ChecksumMismatch => write!(f, "index checksum mismatch"),
            IndexCodecError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for IndexCodecError {}

const MAGIC: &[u8; 4] = b"BRI1";

/// The masked dominated view the shards are computed over: the edges of
/// `MaskedView::new(DominatedView::new(g, alive), Some(down), Some(cut))`,
/// with the domination test and both masks fused into one pass over each
/// CSR row of the shard-write loop.
#[derive(Debug, Clone, Copy)]
struct MaskView<'a> {
    g: &'a Graph,
    alive: &'a NodeSet,
    down: &'a NodeSet,
    cut: &'a BTreeSet<(u32, u32)>,
}

impl GraphView for MaskView<'_> {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    #[inline]
    fn try_for_each_neighbor(
        &self,
        u: NodeId,
        mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.down.contains(u) {
            return ControlFlow::Continue(());
        }
        let u_alive_broker = self.alive.contains(u);
        let check_cut = !self.cut.is_empty();
        for &v in self.g.neighbors(u) {
            if !u_alive_broker && !self.alive.contains(v) {
                continue; // not a dominated edge under the live brokers
            }
            if self.down.contains(v) {
                continue;
            }
            if check_cut && self.cut.contains(&netgraph::undirected_key(u, v)) {
                continue;
            }
            visit(v)?;
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.g.node_count() && !self.down.contains(v)
    }

    fn is_symmetric(&self) -> bool {
        true // domination, vertex masks and undirected cuts are all symmetric
    }
}

/// Precomputed hop-bounded reachability index over the dominated
/// subgraph: one `u8` distance shard per roster broker, vertex-major.
///
/// Build with [`ReachIndex::build`] (or [`ReachIndex::build_under`]),
/// ask with [`ReachIndex::query`], persist with
/// [`ReachIndex::to_bytes`], and keep fresh with
/// [`ReachIndex::apply_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachIndex {
    n: usize,
    max_l: u8,
    epoch: u32,
    shards_invalidated: u64,
    /// Full broker roster, ascending by id; column `j` belongs to
    /// `brokers[j]` forever (fault churn blanks, never relayouts).
    brokers: Vec<NodeId>,
    roster: NodeSet,
    live: Vec<bool>,
    /// `dist[v * k + j]` = dominated hops from `brokers[j]` to `v`,
    /// capped at `max_l`, [`UNREACH`] beyond.
    dist: Vec<u8>,
    /// Failed vertices at the indexed epoch.
    down: NodeSet,
    /// Cut edges at the indexed epoch (normalized keys).
    cut: BTreeSet<(u32, u32)>,
    /// Defected broker roles at the indexed epoch.
    defected: NodeSet,
}

impl ReachIndex {
    /// Build the index for a clear (fault-free) topology.
    ///
    /// # Panics
    ///
    /// If `max_l` exceeds [`MAX_HOP_CAP`] or `brokers` is empty of
    /// capacity (capacity must equal `g.node_count()`).
    pub fn build(g: &Graph, brokers: &NodeSet, max_l: usize, threads: usize) -> Self {
        Self::build_under(
            g,
            brokers,
            max_l,
            &FaultState::all_clear(g.node_count()),
            threads,
        )
    }

    /// Build the index as of one fault epoch: failed vertices and cut
    /// edges are masked, defected (or dead-vertex) brokers get blank
    /// columns. Mirrors the chaos layer's evaluation view exactly.
    pub fn build_under(
        g: &Graph,
        brokers: &NodeSet,
        max_l: usize,
        state: &FaultState,
        threads: usize,
    ) -> Self {
        assert!(max_l <= MAX_HOP_CAP, "max_l {max_l} exceeds {MAX_HOP_CAP}");
        let n = g.node_count();
        let roster_ids: Vec<NodeId> = brokers.iter().collect();
        let k = roster_ids.len();
        let down = state.failed_nodes().clone();
        let cut = state.failed_edges().clone();
        let defected = state.failed_brokers().clone();
        let mut alive = brokers.clone();
        alive.difference_with(&defected);
        alive.difference_with(&down);
        let live: Vec<bool> = roster_ids.iter().map(|&b| alive.contains(b)).collect();

        let mut idx = ReachIndex {
            n,
            max_l: max_l as u8,
            epoch: state.epoch(),
            shards_invalidated: 0,
            brokers: roster_ids,
            roster: brokers.clone(),
            live,
            dist: vec![UNREACH; n * k],
            down,
            cut,
            defected,
        };
        let js: Vec<usize> = (0..k).filter(|&j| idx.live[j]).collect();
        idx.rebuild_columns(g, &js, threads);
        let () = netgraph::counter!("index.builds");
        idx
    }

    /// Vertices the index covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Roster size (one shard per broker, live or not).
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// The hop cap every shard is truncated at.
    pub fn max_l(&self) -> usize {
        self.max_l as usize
    }

    /// Fault epoch the index currently reflects.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Brokers currently in service (live shards).
    pub fn live_brokers(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Cumulative shards invalidated (rebuilt or blanked) by
    /// [`ReachIndex::apply_state`].
    pub fn shards_invalidated(&self) -> u64 {
        self.shards_invalidated
    }

    /// The full broker roster, ascending by id.
    pub fn roster(&self) -> &[NodeId] {
        &self.brokers
    }

    /// Answer the l-hop stitch question: the cheapest live broker `b`
    /// with `d(s, b) + d(b, t) ≤ min(l, max_l)`, ties broken towards the
    /// smallest broker id. `None` when no such broker exists or an
    /// endpoint is failed; `s == t` answers the zero-hop self path
    /// (matching `stitch_path`'s `[s]`).
    ///
    /// Two passes over the rows of `s` and `t`: the minimum saturating
    /// `u8` sum, then its first position. Sums that saturate at
    /// [`UNREACH`] never fit a cap of at most [`MAX_HOP_CAP`], and the
    /// first position is the smallest broker id (see the module docs).
    pub fn query(&self, s: NodeId, t: NodeId, l: usize) -> Option<StitchAnswer> {
        if s.index() >= self.n || t.index() >= self.n {
            return None;
        }
        if self.down.contains(s) || self.down.contains(t) {
            return None;
        }
        if s == t {
            return Some(StitchAnswer {
                broker: s,
                hops_s: 0,
                hops_t: 0,
            });
        }
        // Clamp in usize, then narrow: the result is at most max_l ≤ 254.
        let cap = usize::from(self.max_l).min(l) as u8;
        let k = self.brokers.len();
        let rs = &self.dist[s.index() * k..][..k];
        let rt = &self.dist[t.index() * k..][..k];
        let best = rs
            .iter()
            .zip(rt)
            .fold(UNREACH, |m, (&ds, &dt)| m.min(ds.saturating_add(dt)));
        if best > cap {
            return None;
        }
        let j = rs
            .iter()
            .zip(rt)
            .position(|(&ds, &dt)| ds.saturating_add(dt) == best)?;
        Some(StitchAnswer {
            broker: self.brokers[j],
            hops_s: u32::from(rs[j]),
            hops_t: u32::from(rt[j]),
        })
    }

    /// Re-point the index at a new fault epoch. An epoch with no dirty
    /// vertex keeps every column; any other epoch blanks the columns of
    /// brokers that left service and rebuilds every live column (see the
    /// module docs). `g` must be the same topology the index was built
    /// from.
    pub fn apply_state(
        &mut self,
        g: &Graph,
        state: &FaultState,
        threads: usize,
    ) -> InvalidationReport {
        assert_eq!(g.node_count(), self.n, "graph/index size mismatch");
        let new_down = state.failed_nodes();
        let new_cut = state.failed_edges();
        let new_defected = state.failed_brokers();

        // Dirty = changed vertices plus their neighborhoods, endpoints
        // of changed edges, and changed broker roles' neighborhoods.
        let mut dirty = NodeSet::new(self.n);
        let touch = |v: NodeId, dirty: &mut NodeSet| {
            if v.index() < self.n {
                dirty.insert(v);
                for &u in g.neighbors(v) {
                    dirty.insert(u);
                }
            }
        };
        for v in sym_diff(&self.down, new_down) {
            touch(v, &mut dirty);
        }
        for v in sym_diff(&self.defected, new_defected) {
            touch(v, &mut dirty);
        }
        for &(a, b) in self.cut.symmetric_difference(new_cut) {
            if (a as usize) < self.n {
                dirty.insert(NodeId(a));
            }
            if (b as usize) < self.n {
                dirty.insert(NodeId(b));
            }
        }

        let mut alive = self.roster.clone();
        alive.difference_with(new_defected);
        alive.difference_with(new_down);
        let new_live: Vec<bool> = self.brokers.iter().map(|&b| alive.contains(b)).collect();

        let changed = !dirty.is_empty();
        let mut rebuild = Vec::new();
        let mut report = InvalidationReport {
            epoch: state.epoch(),
            dirty: dirty.len(),
            rebuilt: 0,
            kept: 0,
            deactivated: 0,
            reactivated: 0,
        };
        for (j, &now_live) in new_live.iter().enumerate() {
            match (self.live[j], now_live) {
                (true, false) => {
                    report.deactivated += 1;
                    self.blank_column(j);
                }
                (false, true) => {
                    report.reactivated += 1;
                    rebuild.push(j);
                }
                (true, true) if changed => rebuild.push(j),
                (true, true) => report.kept += 1,
                (false, false) => {}
            }
        }
        report.rebuilt = rebuild.len();

        self.down = new_down.clone();
        self.cut = new_cut.clone();
        self.defected = new_defected.clone();
        self.live = new_live;
        self.epoch = state.epoch();
        self.rebuild_columns(g, &rebuild, threads);

        self.shards_invalidated += (report.rebuilt + report.deactivated) as u64;
        let () = netgraph::counter!(
            "index.shards_invalidated",
            (report.rebuilt + report.deactivated) as u64
        );
        report
    }

    fn blank_column(&mut self, j: usize) {
        let k = self.brokers.len();
        for v in 0..self.n {
            self.dist[v * k + j] = UNREACH;
        }
    }

    /// Recompute the given columns (ascending roster positions) from
    /// scratch over the current masked view of `g`.
    fn rebuild_columns(&mut self, g: &Graph, js: &[usize], threads: usize) {
        if js.is_empty() {
            return;
        }
        let mut alive = self.roster.clone();
        alive.difference_with(&self.defected);
        alive.difference_with(&self.down);
        let inputs = ShardInputs {
            g: g.clone(),
            alive,
            down: self.down.clone(),
            cut: self.cut.clone(),
            max_l: self.max_l,
        };
        let sources: Vec<NodeId> = js.iter().map(|&j| self.brokers[j]).collect();
        let k = self.brokers.len();
        write_shards(&mut self.dist, k, inputs, &sources, js, threads);
    }

    /// Serialize into the `BRI1` binary format (little-endian, FNV-1a
    /// trailer). The bytes are a pure function of the index contents —
    /// bit-identical across thread counts and CSR layouts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let k = self.brokers.len();
        let mut buf = Vec::with_capacity(32 + 5 * k + self.dist.len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.n as u32).to_le_bytes());
        buf.extend_from_slice(&(k as u32).to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.push(self.max_l);
        buf.extend_from_slice(&self.shards_invalidated.to_le_bytes());
        for &b in &self.brokers {
            buf.extend_from_slice(&b.0.to_le_bytes());
        }
        for &l in &self.live {
            buf.push(u8::from(l));
        }
        push_ids(&mut buf, &self.down);
        buf.extend_from_slice(&(self.cut.len() as u32).to_le_bytes());
        for &(a, b) in &self.cut {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        push_ids(&mut buf, &self.defected);
        buf.extend_from_slice(&self.dist);
        let digest = fnv1a(buf.iter().copied());
        buf.extend_from_slice(&digest.to_le_bytes());
        buf
    }

    /// Deserialize a `BRI1` blob.
    ///
    /// # Errors
    ///
    /// Returns an [`IndexCodecError`] on truncation, bad magic, checksum
    /// mismatch or violated structural invariants; a blob that parses but
    /// fails the [`Validate`] audit is `Corrupt` with the first failed
    /// invariant's name.
    pub fn from_bytes(data: &[u8]) -> Result<Self, IndexCodecError> {
        if data.len() < 8 {
            return Err(IndexCodecError::Truncated);
        }
        let (payload, trailer) = data.split_at(data.len() - 8);
        let mut digest = [0u8; 8];
        digest.copy_from_slice(trailer);
        if fnv1a(payload.iter().copied()) != u64::from_le_bytes(digest) {
            return Err(IndexCodecError::ChecksumMismatch);
        }
        if payload.len() < 4 {
            return Err(IndexCodecError::Truncated);
        }
        if &payload[..4] != MAGIC {
            return Err(IndexCodecError::BadMagic);
        }
        let mut cur = Cur {
            data: &payload[4..],
        };
        let n = cur.u32()? as usize;
        let k = cur.u32()? as usize;
        let epoch = cur.u32()?;
        let max_l = cur.u8()?;
        if usize::from(max_l) > MAX_HOP_CAP {
            return Err(IndexCodecError::Corrupt("hop cap out of range"));
        }
        let shards_invalidated = cur.u64()?;
        // Check the header's counts against the payload before allocating
        // for them: the roster and its live flags take 5·k bytes, the
        // shards n·k.
        let needed = k
            .checked_mul(5)
            .zip(n.checked_mul(k))
            .and_then(|(roster, shards)| roster.checked_add(shards));
        if needed.is_none_or(|needed| needed > cur.data.len()) {
            return Err(IndexCodecError::Truncated);
        }
        let mut brokers = Vec::with_capacity(k);
        for _ in 0..k {
            let b = cur.u32()?;
            if b as usize >= n {
                return Err(IndexCodecError::Corrupt("broker id out of range"));
            }
            if brokers.last().is_some_and(|&NodeId(p)| p >= b) {
                return Err(IndexCodecError::Corrupt("broker roster not ascending"));
            }
            brokers.push(NodeId(b));
        }
        let mut live = Vec::with_capacity(k);
        for _ in 0..k {
            live.push(cur.u8()? != 0);
        }
        let down = cur.ids(n, "failed vertex id out of range")?;
        let cut_len = cur.u32()? as usize;
        let mut cut = BTreeSet::new();
        for _ in 0..cut_len {
            let a = cur.u32()?;
            let b = cur.u32()?;
            if a >= b || b as usize >= n {
                return Err(IndexCodecError::Corrupt("cut edge key not normalized"));
            }
            cut.insert((a, b));
        }
        let defected = cur.ids(n, "defected broker id out of range")?;
        let dist = cur.bytes(n * k)?.to_vec();
        if !cur.data.is_empty() {
            return Err(IndexCodecError::Corrupt("trailing bytes after shards"));
        }
        let roster = NodeSet::from_iter_with_capacity(n, brokers.iter().copied());
        let index = ReachIndex {
            n,
            max_l,
            epoch,
            shards_invalidated,
            brokers,
            roster,
            live,
            dist,
            down,
            cut,
            defected,
        };
        // The checksum vouches for the bytes, not their meaning: a blob
        // edited and re-signed must still pass the structural audit.
        match index.audit().findings.first() {
            Some(finding) => Err(IndexCodecError::Corrupt(finding.invariant)),
            None => Ok(index),
        }
    }

    /// [`ReachIndex::to_bytes`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// [`ReachIndex::from_bytes`] from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; decode errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// FNV-1a digest of the serialized index — a cheap identity for
    /// cross-configuration equality assertions.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_bytes())
    }
}

impl Validate for ReachIndex {
    /// Structural invariants: shard dimensions, roster ordering, live
    /// flags consistent with the fault sets, dead columns blank, live
    /// self-distances zero, every entry within the hop cap, and failed
    /// vertices' rows blank.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::ReachIndex");
        let k = self.brokers.len();
        rep.check("index.dims", self.dist.len() == self.n * k, || {
            format!("{} shard bytes for n={} k={k}", self.dist.len(), self.n)
        });
        let sorted = self.brokers.windows(2).all(|w| w[0].0 < w[1].0)
            && self.brokers.iter().all(|b| b.index() < self.n);
        rep.check("index.roster-sorted", sorted, || {
            "roster not strictly ascending in range".to_string()
        });
        let mut flag_bad = 0usize;
        let mut dead_dirty = 0usize;
        let mut self_bad = 0usize;
        let mut over_cap = 0usize;
        for (j, &b) in self.brokers.iter().enumerate() {
            let should_live =
                !self.defected.contains(b) && !self.down.contains(b) && self.roster.contains(b);
            if self.live[j] != should_live {
                flag_bad += 1;
            }
            if self.live[j] {
                if self.dist.get(b.index() * k + j) != Some(&0) {
                    self_bad += 1;
                }
            } else {
                for v in 0..self.n {
                    if self.dist[v * k + j] != UNREACH {
                        dead_dirty += 1;
                        break;
                    }
                }
            }
        }
        for &d in &self.dist {
            if d != UNREACH && d > self.max_l {
                over_cap += 1;
            }
        }
        let mut down_dirty = 0usize;
        for v in self.down.iter() {
            if self.dist[v.index() * k..v.index() * k + k]
                .iter()
                .any(|&d| d != UNREACH)
            {
                down_dirty += 1;
            }
        }
        rep.check("index.live-consistent", flag_bad == 0, || {
            format!("{flag_bad} live flags disagree with the fault sets")
        });
        rep.check("index.dead-columns-blank", dead_dirty == 0, || {
            format!("{dead_dirty} dead columns hold stale distances")
        });
        rep.check("index.self-distance-zero", self_bad == 0, || {
            format!("{self_bad} live brokers lack a zero self-distance")
        });
        rep.check("index.hop-cap", over_cap == 0, || {
            format!("{over_cap} entries exceed the {} hop cap", self.max_l)
        });
        rep.check("index.down-rows-blank", down_dirty == 0, || {
            format!("{down_dirty} failed vertices hold stale rows")
        });
        rep
    }
}

/// A label-soundness certificate: re-derives sampled shards by an
/// independent queue BFS over the masked dominated edge set (sharing no
/// code with the msbfs build path) and compares every entry.
#[derive(Debug)]
pub struct IndexCertificate<'a> {
    g: &'a Graph,
    idx: &'a ReachIndex,
    columns: usize,
    seed: u64,
}

impl<'a> IndexCertificate<'a> {
    /// Certificate re-checking up to `columns` live shards, sampled
    /// deterministically from `seed`.
    pub fn new(g: &'a Graph, idx: &'a ReachIndex, columns: usize, seed: u64) -> Self {
        IndexCertificate {
            g,
            idx,
            columns,
            seed,
        }
    }

    /// Independent bounded BFS from `src` over the masked dominated
    /// edge set.
    #[expect(
        clippy::disallowed_types,
        reason = "R6: the certificate's BFS shares no code with the index it checks"
    )]
    fn reference_column(&self, src: NodeId, alive: &NodeSet) -> Vec<u8> {
        let idx = self.idx;
        let mut col = vec![UNREACH; idx.n];
        if idx.down.contains(src) {
            return col;
        }
        col[src.index()] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let d = col[u.index()];
            if d >= idx.max_l {
                continue;
            }
            let u_broker = alive.contains(u);
            for &v in self.g.neighbors(u) {
                if !u_broker && !alive.contains(v) {
                    continue;
                }
                if idx.down.contains(v) || col[v.index()] != UNREACH {
                    continue;
                }
                if !idx.cut.is_empty() && idx.cut.contains(&netgraph::undirected_key(u, v)) {
                    continue;
                }
                col[v.index()] = d + 1;
                queue.push_back(v);
            }
        }
        col
    }
}

impl Validate for IndexCertificate<'_> {
    /// Sampled shard-exactness audit plus full shard-coverage audit.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::IndexCertificate");
        rep.absorb(self.idx.audit());
        rep.check(
            "certificate.graph-size",
            self.g.node_count() == self.idx.n,
            || {
                format!(
                    "index covers {} vertices, graph has {}",
                    self.idx.n,
                    self.g.node_count()
                )
            },
        );
        if self.g.node_count() != self.idx.n {
            return rep;
        }
        let mut alive = self.idx.roster.clone();
        alive.difference_with(&self.idx.defected);
        alive.difference_with(&self.idx.down);
        let live_js: Vec<usize> = (0..self.idx.brokers.len())
            .filter(|&j| self.idx.live[j])
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut picked = live_js;
        picked.shuffle(&mut rng);
        picked.truncate(self.columns);
        picked.sort_unstable();
        let k = self.idx.brokers.len();
        let mut wrong = 0usize;
        let mut exemplar = String::new();
        for &j in &picked {
            let b = self.idx.brokers[j];
            let reference = self.reference_column(b, &alive);
            for (v, &want) in reference.iter().enumerate() {
                if self.idx.dist[v * k + j] != want {
                    wrong += 1;
                    if exemplar.is_empty() {
                        exemplar = format!(
                            "shard {b} at vertex {v}: stored {} want {want}",
                            self.idx.dist[v * k + j]
                        );
                    }
                }
            }
        }
        rep.check("certificate.shards-exact", wrong == 0, || {
            format!(
                "{wrong} label(s) diverge from the reference BFS over {} sampled shards ({exemplar})",
                picked.len()
            )
        });
        rep
    }
}

/// The exact evaluation the index replaces: dominated-view msbfs from
/// `s` and `t` under `state`, minimized over live brokers with the same
/// tie-break as [`ReachIndex::query`]. Used as the serving layer's
/// ground truth; the differential tests additionally carry their own
/// independent oracle.
pub fn exact_query(
    g: &Graph,
    brokers: &NodeSet,
    state: &FaultState,
    s: NodeId,
    t: NodeId,
    l: usize,
) -> Option<StitchAnswer> {
    let n = g.node_count();
    if s.index() >= n || t.index() >= n {
        return None;
    }
    if state.failed_nodes().contains(s) || state.failed_nodes().contains(t) {
        return None;
    }
    if s == t {
        return Some(StitchAnswer {
            broker: s,
            hops_s: 0,
            hops_t: 0,
        });
    }
    let mut alive = brokers.clone();
    alive.difference_with(state.failed_brokers());
    alive.difference_with(state.failed_nodes());
    let view = MaskedView::new(
        DominatedView::new(g, &alive),
        Some(state.failed_nodes()),
        Some(state.failed_edges()),
    );
    let dists = netgraph::msbfs_distances(view, &[s, t]);
    let mut best: Option<(u32, NodeId, u32, u32)> = None;
    for b in alive.iter() {
        let (Some(ds), Some(dt)) = (dists[0][b.index()], dists[1][b.index()]) else {
            continue;
        };
        let total = ds + dt;
        if total as usize <= l && best.is_none_or(|(bt, ..)| total < bt) {
            best = Some((total, b, ds, dt));
        }
    }
    best.map(|(_, broker, hops_s, hops_t)| StitchAnswer {
        broker,
        hops_s,
        hops_t,
    })
}

/// FNV-1a over the canonical encoding of an answer stream — the
/// cross-configuration equality currency of the serving layer.
pub fn answers_checksum<I: IntoIterator<Item = Option<StitchAnswer>>>(answers: I) -> u64 {
    fnv1a(answers.into_iter().flat_map(|ans| {
        let mut word = [0u8; 13];
        if let Some(a) = ans {
            word[0] = 1;
            word[1..5].copy_from_slice(&a.broker.0.to_le_bytes());
            word[5..9].copy_from_slice(&a.hops_s.to_le_bytes());
            word[9..13].copy_from_slice(&a.hops_t.to_le_bytes());
        }
        word
    }))
}

fn push_ids(buf: &mut Vec<u8>, set: &NodeSet) {
    buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for v in set.iter() {
        buf.extend_from_slice(&v.0.to_le_bytes());
    }
}

/// Elements in exactly one of the two sets.
fn sym_diff(a: &NodeSet, b: &NodeSet) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = a.iter().filter(|&v| !b.contains(v)).collect();
    out.extend(b.iter().filter(|&v| !a.contains(v)));
    out
}

/// Little-endian checked cursor for [`ReachIndex::from_bytes`].
struct Cur<'a> {
    data: &'a [u8],
}

impl<'a> Cur<'a> {
    fn bytes(&mut self, len: usize) -> Result<&'a [u8], IndexCodecError> {
        if self.data.len() < len {
            return Err(IndexCodecError::Truncated);
        }
        let (head, tail) = self.data.split_at(len);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, IndexCodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, IndexCodecError> {
        let mut word = [0u8; 4];
        word.copy_from_slice(self.bytes(4)?);
        Ok(u32::from_le_bytes(word))
    }

    fn u64(&mut self) -> Result<u64, IndexCodecError> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.bytes(8)?);
        Ok(u64::from_le_bytes(word))
    }

    fn ids(&mut self, n: usize, what: &'static str) -> Result<NodeSet, IndexCodecError> {
        let len = self.u32()? as usize;
        let mut set = NodeSet::new(n);
        for _ in 0..len {
            let id = self.u32()?;
            if id as usize >= n {
                return Err(IndexCodecError::Corrupt(what));
            }
            set.insert(NodeId(id));
        }
        Ok(set)
    }
}

/// What every shard batch reads: the graph and the masks of the
/// dominated view the shards are computed over. It holds its own copy
/// of the graph on purpose: the same shard code over the caller's graph
/// measured 15–30 % slower per full-scale `apply_state` (the index-churn
/// benchmark) although it does less work; the copy stays until that is
/// explained.
struct ShardInputs {
    g: Graph,
    alive: NodeSet,
    down: NodeSet,
    cut: BTreeSet<(u32, u32)>,
    max_l: u8,
}

/// Compute the shard of each of `sources` and write source `i`'s
/// distances over column `cols[i]` of the vertex-major table `dist` (row
/// width `k`). Every entry of a written column is overwritten,
/// [`UNREACH`] included.
///
/// Batches of 64 sources run as msbfs on `netgraph::par` in waves of
/// 64 × workers columns. Each batch fills a vertex-major block
/// `block[v·w + lane]`, and a wave's blocks merge into `dist` in one
/// row-order pass before the next wave starts, so at most one wave of
/// blocks is alive. Blocks merge in batch order: the bytes are identical
/// at every thread count.
fn write_shards(
    dist: &mut [u8],
    k: usize,
    inputs: ShardInputs,
    sources: &[NodeId],
    cols: &[usize],
    threads: usize,
) {
    debug_assert_eq!(sources.len(), cols.len(), "one column per source");
    let n = inputs.g.node_count();
    let inputs = Arc::new(inputs);
    let wave = LANES * netgraph::par::resolve_threads(threads);
    for (wave_sources, wave_cols) in sources.chunks(wave).zip(cols.chunks(wave)) {
        let batches: Vec<Vec<NodeId>> =
            wave_sources.chunks(LANES).map(<[NodeId]>::to_vec).collect();
        let shared = Arc::clone(&inputs);
        let blocks =
            netgraph::par::map_auto(&batches, threads, move |batch| shard_block(&shared, batch));
        for v in 0..n {
            let row = &mut dist[v * k..][..k];
            for (block, block_cols) in blocks.iter().zip(wave_cols.chunks(LANES)) {
                let w = block_cols.len();
                for (&j, &d) in block_cols.iter().zip(&block[v * w..][..w]) {
                    row[j] = d;
                }
            }
        }
    }
}

/// One msbfs batch as a vertex-major block: `block[v·w + lane]` is the
/// hop count from `sources[lane]` to `v` (`w` = batch width), or
/// [`UNREACH`] beyond the cap.
fn shard_block(inputs: &ShardInputs, sources: &[NodeId]) -> Vec<u8> {
    let n = inputs.g.node_count();
    let w = sources.len();
    let mut block = vec![UNREACH; n * w];
    let view = MaskView {
        g: &inputs.g,
        alive: &inputs.alive,
        down: &inputs.down,
        cut: &inputs.cut,
    };
    with_msbfs(|arena| {
        arena.run(view, sources, u32::from(inputs.max_l), |wf| {
            let level = wf.level() as u8;
            wf.for_each_new(|v, lanes| {
                let row = &mut block[v.index() * w..][..w];
                lanes.for_each_lane(|lane| row[lane] = level);
            });
        });
    });
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use netgraph::FaultSchedule;
    use rand::Rng;

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| NodeId(i)))
    }

    /// Path 0-1-2-3-4 with brokers {1, 3}.
    fn path5() -> (Graph, NodeSet) {
        let g = from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))));
        let b = set(5, &[1, 3]);
        (g, b)
    }

    #[test]
    fn answers_path_queries_exactly() {
        let (g, b) = path5();
        let idx = ReachIndex::build(&g, &b, 6, 1);
        assert_eq!(idx.broker_count(), 2);
        assert_eq!(idx.live_brokers(), 2);
        let a = idx.query(NodeId(0), NodeId(4), 6).unwrap();
        assert_eq!(a.hops(), 4);
        // Tie between routing via 1 (1+3) and via 3 (3+1): smallest id.
        assert_eq!(a.broker, NodeId(1));
        assert_eq!((a.hops_s, a.hops_t), (1, 3));
        assert!(idx.query(NodeId(0), NodeId(4), 3).is_none());
        let self_q = idx.query(NodeId(2), NodeId(2), 0).unwrap();
        assert_eq!((self_q.broker, self_q.hops()), (NodeId(2), 0));
        assert!(idx.query(NodeId(0), NodeId(9), 6).is_none());
        assert!(idx.audit().is_ok());
        assert!(IndexCertificate::new(&g, &idx, 8, 3).audit().is_ok());
    }

    #[test]
    fn hop_cap_clamps_long_queries() {
        let (g, b) = path5();
        let idx = ReachIndex::build(&g, &b, 3, 1);
        // True distance 4 > max_l 3: unanswerable at this cap even when
        // the caller asks for more.
        assert!(idx.query(NodeId(0), NodeId(4), 100).is_none());
        assert_eq!(idx.query(NodeId(0), NodeId(3), 100).unwrap().hops(), 3);
    }

    /// The u8 boundary: a 300-vertex path with the odd ids as brokers,
    /// built at the largest cap. Every column's finite sum for (0, 299)
    /// exceeds 255 and saturates; bounds past `u32::MAX` must not wrap.
    #[test]
    fn u8_boundary_queries_match_exact() {
        let n = 300u32;
        let g = from_edges(n as usize, (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))));
        let odd: Vec<u32> = (1..n).step_by(2).collect();
        let b = set(n as usize, &odd);
        let idx = ReachIndex::build(&g, &b, MAX_HOP_CAP, 1);
        let clear = FaultState::all_clear(n as usize);
        for t in [1u32, 200, 252, 253, 254, 255, 256, 299] {
            for l in [0usize, 1, 253, 254, 255, 1000, 1 << 32] {
                let want = exact_query(&g, &b, &clear, NodeId(0), NodeId(t), l.min(MAX_HOP_CAP));
                assert_eq!(
                    idx.query(NodeId(0), NodeId(t), l),
                    want,
                    "(0, {t}) at l = {l}"
                );
            }
        }
        let far = idx.query(NodeId(0), NodeId(254), 1000).unwrap();
        assert_eq!((far.broker, far.hops()), (NodeId(1), 254));
        assert!(idx.query(NodeId(0), NodeId(255), 1000).is_none());
        assert!(idx.query(NodeId(0), NodeId(299), 1000).is_none());
    }

    #[test]
    fn matches_exact_query_on_a_clear_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = netgraph::barabasi_albert(80, 2, &mut rng);
        let sel = crate::greedy::greedy_mcb(&g, 8);
        let idx = ReachIndex::build(&g, sel.brokers(), 6, 2);
        let clear = FaultState::all_clear(g.node_count());
        for s in 0..20u32 {
            for t in 15..35u32 {
                for l in [1usize, 3, 6] {
                    let got = idx.query(NodeId(s), NodeId(t), l);
                    let want = exact_query(&g, sel.brokers(), &clear, NodeId(s), NodeId(t), l);
                    assert_eq!(got, want, "(s={s}, t={t}, l={l})");
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrips_and_rejects_malformed() {
        let (g, b) = path5();
        let idx = ReachIndex::build(&g, &b, 5, 1);
        let bytes = idx.to_bytes();
        let back = ReachIndex::from_bytes(&bytes).unwrap();
        assert_eq!(idx, back);
        assert_eq!(bytes, back.to_bytes());

        assert_eq!(
            ReachIndex::from_bytes(&bytes[..6]),
            Err(IndexCodecError::Truncated)
        );
        let mut flipped = bytes.clone();
        flipped[10] ^= 1;
        assert_eq!(
            ReachIndex::from_bytes(&flipped),
            Err(IndexCodecError::ChecksumMismatch)
        );
        // Edit one byte and re-sign the trailer, so the checksum passes.
        let edited = |at: usize, byte: u8| {
            let mut blob = bytes.clone();
            blob[at] = byte;
            let payload_len = blob.len() - 8;
            let digest = fnv1a(blob[..payload_len].iter().copied()).to_le_bytes();
            blob[payload_len..].copy_from_slice(&digest);
            blob
        };
        assert_eq!(
            ReachIndex::from_bytes(&edited(0, b'X')),
            Err(IndexCodecError::BadMagic)
        );
        // Broker 1's live flag follows the 25-byte header and the 8-byte
        // roster. Cleared, every field still parses, but the flag now
        // contradicts the empty fault sets.
        assert_eq!(bytes[33], 1);
        assert_eq!(
            ReachIndex::from_bytes(&edited(33, 0)),
            Err(IndexCodecError::Corrupt("index.live-consistent"))
        );
        // A header claiming u32::MAX brokers with no roster behind it must
        // be rejected before anything is sized by that count.
        let mut huge_roster = MAGIC.to_vec();
        huge_roster.extend_from_slice(&10u32.to_le_bytes()); // n
        huge_roster.extend_from_slice(&u32::MAX.to_le_bytes()); // k
        huge_roster.extend_from_slice(&0u32.to_le_bytes()); // epoch
        huge_roster.push(6); // max_l
        huge_roster.extend_from_slice(&0u64.to_le_bytes()); // invalidations
        let digest = fnv1a(huge_roster.iter().copied()).to_le_bytes();
        huge_roster.extend_from_slice(&digest);
        assert_eq!(huge_roster.len(), 33);
        assert_eq!(
            ReachIndex::from_bytes(&huge_roster),
            Err(IndexCodecError::Truncated)
        );
        assert!(IndexCodecError::Corrupt("x").to_string().contains("x"));
    }

    #[test]
    fn fault_epoch_invalidation_matches_full_rebuild() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = netgraph::barabasi_albert(60, 2, &mut rng);
        let sel = crate::greedy::greedy_mcb(&g, 6);
        let brokers = sel.brokers();
        let mut sched = FaultSchedule::new(g.node_count());
        let order = sel.order();
        sched.fail_broker(1, order[0]);
        sched.fail_node(2, NodeId(30));
        sched.fail_edge(2, NodeId(0), g.neighbors(NodeId(0))[0]);
        sched.recover_broker(3, order[0]);
        sched.set_horizon(4);

        let mut idx = ReachIndex::build(&g, brokers, 6, 1);
        for epoch in 0..sched.horizon() {
            let state = sched.state_at(epoch);
            let report = idx.apply_state(&g, &state, 1);
            assert_eq!(report.epoch, epoch);
            let full = ReachIndex::build_under(&g, brokers, 6, &state, 1);
            assert_eq!(idx.dist, full.dist, "shards diverge at epoch {epoch}");
            assert_eq!(idx.live, full.live);
            assert!(idx.audit().is_ok());
        }
        assert!(idx.shards_invalidated() > 0);
    }

    /// Path 0-1-…-6 with brokers {0, 6} at max_l = 1. Failing vertex 5
    /// dirties {4, 5, 6}, which broker 0's 1-ball {0, 1} misses, and the
    /// epoch still rebuilds broker 0's shard: the rule is per epoch. The
    /// next epoch changes nothing and keeps both.
    #[test]
    fn changed_epoch_rebuilds_every_live_shard() {
        let g = from_edges(7, (0..6).map(|i| (NodeId(i), NodeId(i + 1))));
        let b = set(7, &[0, 6]);
        let mut sched = FaultSchedule::new(7);
        sched.fail_node(1, NodeId(5));
        sched.set_horizon(3);
        let mut idx = ReachIndex::build(&g, &b, 1, 1);
        for (epoch, dirty) in [(0, 0), (1, 3), (2, 0)] {
            let state = sched.state_at(epoch);
            let report = idx.apply_state(&g, &state, 1);
            let live = idx.live_brokers();
            let (rebuilt, kept) = if dirty > 0 { (live, 0) } else { (0, live) };
            assert_eq!(
                (report.dirty, report.rebuilt, report.kept),
                (dirty, rebuilt, kept),
                "epoch {epoch}"
            );
            let full = ReachIndex::build_under(&g, &b, 1, &state, 1);
            assert_eq!(idx.dist, full.dist, "shards diverge at epoch {epoch}");
            assert_eq!(idx.live, full.live);
        }
    }

    /// k = 150 spans three 64-column blocks, so a merge that writes a
    /// whole block into the wrong columns shows here: rebuilds with a gap
    /// in every block, checked against a full build, the reference BFS and
    /// the exact oracle at several thread counts.
    #[test]
    fn multi_block_invalidation_matches_full_rebuild() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 400u32;
        let g = netgraph::barabasi_albert(n as usize, 2, &mut rng);
        let mut ids: Vec<u32> = (0..n).collect();
        ids.shuffle(&mut rng);
        let brokers = set(n as usize, &ids[..150]);
        let roster: Vec<NodeId> = brokers.iter().collect();
        let mut sched = FaultSchedule::new(g.node_count());
        for pos in [5, 70, 140] {
            sched.fail_broker(1, roster[pos]);
            sched.recover_broker(3, roster[pos]);
        }
        let plain = NodeId(ids[200]);
        sched.fail_node(2, plain);
        sched.fail_edge(2, roster[0], g.neighbors(roster[0])[0]);
        sched.set_horizon(4);
        let pairs: Vec<(NodeId, NodeId)> = (0..300)
            .map(|_| (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n))))
            .collect();

        netgraph::par::assert_thread_invariant(netgraph::par::SWEEP, |threads| {
            let mut idx = ReachIndex::build(&g, &brokers, 6, threads);
            for epoch in 0..sched.horizon() {
                let state = sched.state_at(epoch);
                idx.apply_state(&g, &state, threads);
                let full = ReachIndex::build_under(&g, &brokers, 6, &state, threads);
                assert_eq!(idx.dist, full.dist, "threads {threads}, epoch {epoch}");
                assert_eq!(idx.live, full.live);
                let cert = IndexCertificate::new(&g, &idx, roster.len(), 0).audit();
                assert!(cert.is_ok(), "threads {threads}, epoch {epoch}: {cert:?}");
                for &(s, t) in &pairs {
                    let want = exact_query(&g, &brokers, &state, s, t, 6);
                    assert_eq!(idx.query(s, t, 6), want, "({s}, {t}) at epoch {epoch}");
                }
            }
            idx.to_bytes()
        });
    }

    #[test]
    fn certificate_rejects_corrupted_labels() {
        let (g, b) = path5();
        let mut idx = ReachIndex::build(&g, &b, 5, 1);
        let k = idx.broker_count();
        idx.dist[2 * k] = 3; // lie about d(broker 1, vertex 2)
        let cert = IndexCertificate::new(&g, &idx, 8, 0);
        let rep = cert.audit();
        assert!(!rep.is_ok());
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "certificate.shards-exact"));
    }

    #[test]
    fn checksum_distinguishes_answer_streams() {
        let a = Some(StitchAnswer {
            broker: NodeId(1),
            hops_s: 1,
            hops_t: 2,
        });
        let b = Some(StitchAnswer {
            broker: NodeId(1),
            hops_s: 2,
            hops_t: 1,
        });
        assert_ne!(answers_checksum([a, None]), answers_checksum([b, None]));
        assert_eq!(answers_checksum([a]), answers_checksum([a]));
    }
}
