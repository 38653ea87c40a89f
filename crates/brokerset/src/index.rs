//! Hop-bounded reachability index over the dominated subgraph — the
//! repo's query plane.
//!
//! Every evaluation so far has been a batch job; a brokerage deployment
//! instead answers point queries: *can `(s, t)` be stitched through the
//! broker set within `l` hops, and via which broker?* [`ReachIndex`]
//! stores the hop distances between the live brokers and, per vertex,
//! the live brokers next to it, so that question costs a few row lookups
//! and a short scan instead of a BFS.
//!
//! ## Why the broker rows are enough
//!
//! In the dominated edge set `{(u, v) : u ∈ B ∨ v ∈ B}` every edge has a
//! broker endpoint. Let `S(v)` be the live brokers one uncut dominated
//! hop from a vertex `v` that is not failed, or just `{v}` when `v` is a
//! live broker, and let `o(v)` be 0 for a live broker and 1 otherwise.
//! A dominated path out of any other vertex starts with an edge into
//! `S(v)`, so for every live broker `b` and all vertices `s ≠ t`
//!
//! ```text
//! d(v, b) = o(v) + min over a ∈ S(v) of d(a, b)
//! d(s, t) = o(s) + o(t) + min over a ∈ S(s), b ∈ S(t) of d(a, b)
//! d(s, t) = min over live brokers b of d(s, b) + d(b, t)
//! ```
//!
//! (the last by concatenation and because a shortest path visits a
//! broker no later than its first edge). So the `k × k` broker rows
//! `R[a][j] = d(brokers[a], brokers[j])`, capped at `max_l`, and the
//! lists `S(v)` fix every distance a query needs. The cap loses nothing
//! for `l ≤ max_l`: every term of a witness path of length `≤ max_l` is
//! within it. Queries with `l > max_l` are clamped to `max_l` — the
//! index is *hop-bounded* by construction.
//!
//! ## The query
//!
//! [`ReachIndex::query`] first takes `best`, the minimum of `R[a][b]`
//! over the `|S(s)| · |S(t)|` broker pairs. When `o(s) + o(t) + best`
//! exceeds the cap the query misses, and misses end there. On a hit the
//! answer is the first roster position `j` with
//! `d(s, b_j) + d(b_j, t) = d(s, t)`: the smallest broker id among the
//! cheapest, since the roster is ascending. The scan reads 32 roster
//! positions at a time: the minimum over the `S(s)` rows and over the
//! `S(t)` rows, then one branch-free pass asking whether any saturating
//! `u8` sum equals `best`, then the first such position.
//!
//! - *Saturation is exact.* [`UNREACH`] is 255, every cap is at most
//!   [`MAX_HOP_CAP`] = 254 and the rows are padded with [`UNREACH`] to a
//!   multiple of 32 positions, so a saturated sum never equals `best`.
//! - *The first equal sum is the first minimal one.* Every sum within
//!   the cap is a walk from `S(s)` to `S(t)`, so it is at least `best`,
//!   and the column of the `b` attaining `best` equals it.
//!
//! ## Faults and invalidation
//!
//! The roster is fixed at build time. A broker out of service (defected,
//! or its vertex failed) keeps its position with a blank row and column,
//! so the layout never changes. The live rows are built by 64-lane
//! [`netgraph::msbfs`] batches over the masked dominated view (failed
//! vertices and cut edges vanish; defected brokers stop dominating) on
//! [`netgraph::par`]. Each batch returns one row per source, and the
//! batches merge in order, so the rows are bit-identical at every
//! thread count.
//!
//! An epoch flip ([`ReachIndex::apply_state`]) decides per epoch. It
//! diffs the index's fault sets against the new epoch's and collects the
//! dirty vertices: failed, recovered or defected vertices with their
//! neighbours, and the endpoints of changed edges. An epoch with no
//! dirty vertex leaves the masked view as it was and keeps everything.
//! Any other epoch rebuilds the lists and every live row, which also
//! blanks the brokers that left service. The counter
//! `index.shards_invalidated` tracks churn.
//!
//! ## Persistence
//!
//! The `BRI2` format stores the index as it is held: the header, the
//! roster, the fault sets, the `k × k` broker rows without their padding
//! and each vertex's list `S(v)`. [`ReachIndex::from_bytes`] bounds the
//! header's counts by the payload before it allocates, pads the rows
//! back to the stride and runs the [`Validate`] audit, which rejects a
//! list naming a position out of range, dead or out of order.

use netgraph::msbfs::LANES;
use netgraph::{
    fnv1a, with_msbfs, AuditReport, DominatedView, FaultState, Graph, MaskedView, NodeId, NodeSet,
    Validate,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Sentinel for "not reachable within the hop cap" in a broker row.
pub const UNREACH: u8 = u8::MAX;

/// Largest supported hop cap (distances are stored as `u8` with
/// [`UNREACH`] reserved).
pub const MAX_HOP_CAP: usize = 254;

/// Roster positions one step of the query scan reads; broker rows are
/// padded with [`UNREACH`] to a multiple of it.
const CHUNK: usize = 32;

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
/// broker rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationReport {
    /// Epoch the index now reflects.
    pub epoch: u32,
    /// Vertices flagged dirty by the changed elements. Zero means the
    /// epoch changed nothing the index sees.
    pub dirty: usize,
    /// Live broker rows recomputed from scratch (includes reactivated
    /// ones): every live row when `dirty > 0`, none otherwise.
    pub rebuilt: usize,
    /// Live broker rows kept verbatim: every live row when `dirty == 0`,
    /// none otherwise.
    pub kept: usize,
    /// Rows blanked because their broker left service.
    pub deactivated: usize,
    /// Rows revived because their broker returned to service.
    pub reactivated: usize,
}

/// Decoding errors for the `BRI2` binary index format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexCodecError {
    /// Input shorter than the declared contents.
    Truncated,
    /// Bad magic bytes (not a BRI2 blob).
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
            IndexCodecError::BadMagic => write!(f, "missing BRI2 magic"),
            IndexCodecError::ChecksumMismatch => write!(f, "index checksum mismatch"),
            IndexCodecError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for IndexCodecError {}

const MAGIC: &[u8; 4] = b"BRI2";

/// Precomputed hop-bounded reachability index over the dominated
/// subgraph: the capped `u8` distances between the roster brokers and
/// each vertex's live broker neighbours.
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
    /// Full broker roster, ascending by id; position `j` belongs to
    /// `brokers[j]` forever (fault churn blanks, never relayouts).
    brokers: Vec<NodeId>,
    roster: NodeSet,
    /// `rows[a * stride + j]` = dominated hops between `brokers[a]` and
    /// `brokers[j]`, capped at `max_l`, [`UNREACH`] beyond. Rows and
    /// columns of brokers out of service and the padding up to the
    /// stride (`k` rounded up to a multiple of [`CHUNK`]) are
    /// [`UNREACH`].
    rows: Vec<u8>,
    /// `S(v)` as a CSR: `lists[starts[v]..starts[v + 1]]` are the
    /// ascending roster positions of the live brokers one uncut dominated
    /// hop from `v` (none for a failed vertex, or when one hop exceeds
    /// the cap); a live broker lists only itself.
    starts: Vec<u32>,
    lists: Vec<u32>,
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
    /// rows. Mirrors the chaos layer's evaluation view exactly.
    pub fn build_under(
        g: &Graph,
        brokers: &NodeSet,
        max_l: usize,
        state: &FaultState,
        threads: usize,
    ) -> Self {
        assert!(max_l <= MAX_HOP_CAP, "max_l {max_l} exceeds {MAX_HOP_CAP}");
        let mut idx = ReachIndex {
            n: g.node_count(),
            max_l: max_l as u8,
            epoch: state.epoch(),
            shards_invalidated: 0,
            brokers: brokers.iter().collect(),
            roster: brokers.clone(),
            rows: Vec::new(),
            starts: Vec::new(),
            lists: Vec::new(),
            down: state.failed_nodes().clone(),
            cut: state.failed_edges().clone(),
            defected: state.failed_brokers().clone(),
        };
        idx.rebuild(g, &idx.alive(), threads);
        let () = netgraph::counter!("index.builds");
        idx
    }

    /// Vertices the index covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Roster size (one row per broker, live or not).
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// The hop cap every row is truncated at.
    pub fn max_l(&self) -> usize {
        self.max_l as usize
    }

    /// Fault epoch the index currently reflects.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Brokers currently in service (live rows).
    pub fn live_brokers(&self) -> usize {
        self.alive().len()
    }

    /// Cumulative broker rows invalidated (rebuilt or blanked) by
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
    /// The broker pairs of `S(s) × S(t)` settle a miss; a hit scans the
    /// minima of their rows 32 positions at a time for the first
    /// saturating sum equal to the best pair (see the module docs).
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
        let (ls, lt) = (self.list(s), self.list(t));
        let (os, ot) = (self.offset(s, ls), self.offset(t, lt));
        let w = self.stride();
        let mut best = UNREACH;
        for &a in ls {
            let row = &self.rows[a as usize * w..][..w];
            for &b in lt {
                best = best.min(row[b as usize]);
            }
        }
        if u16::from(best) + u16::from(os + ot) > u16::from(cap) {
            return None;
        }
        for c in (0..w).step_by(CHUNK) {
            let (ms, mt) = (self.chunk_min(ls, c), self.chunk_min(lt, c));
            let mut sums = ms.iter().zip(&mt).map(|(&x, &y)| x.saturating_add(y));
            if sums.clone().fold(false, |hit, sum| hit | (sum == best)) {
                let i = sums.position(|sum| sum == best)?;
                return Some(StitchAnswer {
                    broker: self.brokers[c + i],
                    hops_s: u32::from(os + ms[i]),
                    hops_t: u32::from(ot + mt[i]),
                });
            }
        }
        None
    }

    /// Width of a broker row: `k` rounded up to a multiple of [`CHUNK`].
    fn stride(&self) -> usize {
        self.brokers.len().div_ceil(CHUNK) * CHUNK
    }

    /// `S(v)`: roster positions of the live brokers next to `v`.
    fn list(&self, v: NodeId) -> &[u32] {
        &self.lists[self.starts[v.index()] as usize..self.starts[v.index() + 1] as usize]
    }

    /// `o(v)`: 0 for a live broker, which lists only itself, else 1.
    fn offset(&self, v: NodeId, list: &[u32]) -> u8 {
        u8::from(!matches!(list, &[a] if self.brokers[a as usize] == v))
    }

    /// The entrywise minimum of the rows in `list` over positions
    /// `c..c + CHUNK`.
    fn chunk_min(&self, list: &[u32], c: usize) -> [u8; CHUNK] {
        let mut m = [UNREACH; CHUNK];
        for &a in list {
            let row = &self.rows[a as usize * self.stride() + c..][..CHUNK];
            m.iter_mut().zip(row).for_each(|(x, &d)| *x = (*x).min(d));
        }
        m
    }

    /// Row `v` of the expanded table (`out.len() == k`): `o(v)` plus the
    /// minimum of the rows in `S(v)`, [`UNREACH`] beyond the cap.
    fn expand_row(&self, v: NodeId, out: &mut [u8]) {
        let list = self.list(v);
        let o = self.offset(v, list);
        out.fill(UNREACH);
        for &a in list {
            let row = &self.rows[a as usize * self.stride()..];
            out.iter_mut().zip(row).for_each(|(x, &d)| *x = (*x).min(d));
        }
        for x in out.iter_mut() {
            let d = x.saturating_add(o);
            *x = if d > self.max_l { UNREACH } else { d };
        }
    }

    /// Live brokers under the indexed fault sets.
    fn alive(&self) -> NodeSet {
        let mut alive = self.roster.clone();
        alive.difference_with(&self.defected);
        alive.difference_with(&self.down);
        alive
    }

    /// Re-point the index at a new fault epoch. An epoch with no dirty
    /// vertex keeps everything; any other epoch rebuilds the lists and
    /// every live row, blanking the brokers that left service (see the
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

        let before = self.alive();
        self.down = new_down.clone();
        self.cut = new_cut.clone();
        self.defected = new_defected.clone();
        self.epoch = state.epoch();
        let alive = self.alive();
        let (live_now, either) = (alive.len(), before.union_len(&alive));
        let changed = !dirty.is_empty();
        let report = InvalidationReport {
            epoch: state.epoch(),
            dirty: dirty.len(),
            rebuilt: if changed { live_now } else { 0 },
            kept: if changed { 0 } else { live_now },
            deactivated: either - live_now,
            reactivated: either - before.len(),
        };
        if changed {
            self.rebuild(g, &alive, threads);
        }

        self.shards_invalidated += (report.rebuilt + report.deactivated) as u64;
        let () = netgraph::counter!(
            "index.shards_invalidated",
            (report.rebuilt + report.deactivated) as u64
        );
        report
    }

    /// Recompute the `S(v)` lists and every live broker row over the
    /// masked dominated view of `g`, where `alive` holds the live
    /// brokers; the rows of brokers out of service come back blank.
    fn rebuild(&mut self, g: &Graph, alive: &NodeSet, threads: usize) {
        let brokers = &self.brokers;
        // A live broker's roster position: the bitset test comes before
        // the search.
        let live_pos = |b: NodeId| {
            alive
                .contains(b)
                .then(|| brokers.binary_search(&b).ok())
                .flatten()
        };
        self.starts.clear();
        self.lists.clear();
        self.starts.push(0);
        for v in g.nodes() {
            if let Some(j) = live_pos(v) {
                self.lists.push(j as u32);
            } else if self.max_l > 0 && !self.down.contains(v) {
                for &a in g.neighbors(v) {
                    let uncut = || !self.cut.contains(&netgraph::undirected_key(v, a));
                    self.lists
                        .extend(live_pos(a).filter(|_| uncut()).map(|j| j as u32));
                }
            }
            self.starts.push(self.lists.len() as u32);
        }

        // Each 64-lane batch fills one row per source, lane-major.
        let w = self.stride();
        let live_js: Vec<usize> = (0..brokers.len())
            .filter(|&j| alive.contains(brokers[j]))
            .collect();
        let sources: Vec<NodeId> = live_js.iter().map(|&j| brokers[j]).collect();
        let batches: Vec<&[NodeId]> = sources.chunks(LANES).collect();
        let view = MaskedView::new(
            DominatedView::new(g, alive),
            Some(&self.down),
            Some(&self.cut),
        );
        let max_l = u32::from(self.max_l);
        let blocks = netgraph::par::map_auto(&batches, threads, |batch| {
            let mut block = vec![UNREACH; batch.len() * w];
            with_msbfs(|arena| {
                arena.run(view, batch, max_l, |wf| {
                    let level = wf.level() as u8;
                    wf.for_each_new(|v, lanes| {
                        if let Some(j) = live_pos(v) {
                            lanes.for_each_lane(|lane| block[lane * w + j] = level);
                        }
                    });
                });
            });
            block
        });
        let mut rows = vec![UNREACH; brokers.len() * w];
        let built = blocks.iter().flat_map(|b| b.chunks_exact(w));
        for (&j, row) in live_js.iter().zip(built) {
            rows[j * w..][..w].copy_from_slice(row);
        }
        self.rows = rows;
    }

    /// Serialize into the `BRI2` binary format (little-endian, FNV-1a
    /// trailer): the header, the roster, the fault sets, the unpadded
    /// broker rows and every vertex's list. The bytes are a pure function
    /// of the index contents — bit-identical across thread counts and CSR
    /// layouts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (k, w) = (self.brokers.len(), self.stride());
        let mut buf = Vec::with_capacity(45 + k * (4 + k) + 4 * (self.n + self.lists.len()));
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.n as u32).to_le_bytes());
        buf.extend_from_slice(&(k as u32).to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.push(self.max_l);
        buf.extend_from_slice(&self.shards_invalidated.to_le_bytes());
        for &b in &self.brokers {
            buf.extend_from_slice(&b.0.to_le_bytes());
        }
        push_list(&mut buf, self.down.len(), self.down.iter().map(|v| v.0));
        let cut = self.cut.iter().flat_map(|&(a, b)| [a, b]);
        push_list(&mut buf, self.cut.len(), cut);
        let defected = self.defected.iter().map(|v| v.0);
        push_list(&mut buf, self.defected.len(), defected);
        for a in 0..k {
            buf.extend_from_slice(&self.rows[a * w..][..k]);
        }
        for v in 0..self.n {
            let list = self.list(NodeId(v as u32));
            push_list(&mut buf, list.len(), list.iter().copied());
        }
        let digest = fnv1a(buf.iter().copied());
        buf.extend_from_slice(&digest.to_le_bytes());
        buf
    }

    /// Deserialize a `BRI2` blob.
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
        // for them: the roster and the broker rows take k·(4 + k) bytes,
        // the list counts 4·n.
        let needed = k
            .checked_add(4)
            .and_then(|row| row.checked_mul(k))
            .zip(n.checked_mul(4))
            .and_then(|(roster, counts)| roster.checked_add(counts));
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
        let w = k.div_ceil(CHUNK) * CHUNK;
        let mut rows = vec![UNREACH; k * w];
        for a in 0..k {
            rows[a * w..][..k].copy_from_slice(cur.bytes(k)?);
        }
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        let mut lists = Vec::new();
        for _ in 0..n {
            for _ in 0..cur.u32()? {
                lists.push(cur.u32()?);
            }
            starts.push(lists.len() as u32);
        }
        if !cur.data.is_empty() {
            return Err(IndexCodecError::Corrupt("trailing bytes after the lists"));
        }
        let roster = NodeSet::from_iter_with_capacity(n, brokers.iter().copied());
        let index = ReachIndex {
            n,
            max_l,
            epoch,
            shards_invalidated,
            brokers,
            roster,
            rows,
            starts,
            lists,
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
    /// Structural invariants: dimensions, roster ordering, lists of
    /// ascending live positions (a live broker's is itself alone), dead
    /// and padding positions blank, live self-distances zero, every entry
    /// within the hop cap, and no broker listed next to a failed vertex.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::ReachIndex");
        let (k, w) = (self.brokers.len(), self.stride());
        let dims = self.rows.len() == k * w
            && self.starts.len() == self.n + 1
            && self.starts.last() == Some(&(self.lists.len() as u32));
        rep.check("index.dims", dims, || {
            let (rows, starts) = (self.rows.len(), self.starts.len());
            format!(
                "{rows} row bytes and {starts} list offsets for n={} k={k}",
                self.n
            )
        });
        if !dims {
            return rep;
        }
        let sorted = self.brokers.windows(2).all(|w| w[0].0 < w[1].0)
            && self.brokers.iter().all(|b| b.index() < self.n);
        rep.check("index.roster-sorted", sorted, || {
            "roster not strictly ascending in range".to_string()
        });
        let alive = self.alive();
        let live_at = |j: usize| j < k && alive.contains(self.brokers[j]);
        let sorted_live = |list: &[u32]| {
            list.windows(2).all(|p| p[0] < p[1]) && list.iter().all(|&j| live_at(j as usize))
        };
        let mut bad_lists = (0..self.n)
            .filter(|&v| !sorted_live(self.list(NodeId(v as u32))))
            .count();
        bad_lists += (0..k)
            .filter(|&j| live_at(j) && self.list(self.brokers[j]) != [j as u32])
            .count();
        let (mut dead_dirty, mut self_bad, mut over_cap) = (0usize, 0usize, 0usize);
        for a in 0..k {
            let row = &self.rows[a * w..][..w];
            self_bad += usize::from(live_at(a) && row[a] != 0);
            let stale = |(j, &d): (usize, &u8)| d != UNREACH && !(live_at(a) && live_at(j));
            dead_dirty += usize::from(row.iter().enumerate().any(stale));
            over_cap += row
                .iter()
                .filter(|&&d| d != UNREACH && d > self.max_l)
                .count();
        }
        let down_dirty = self
            .down
            .iter()
            .filter(|&v| v.index() < self.n && !self.list(v).is_empty())
            .count();
        rep.check("index.lists", bad_lists == 0, || {
            format!(
                "{bad_lists} lists are not ascending live positions, or not a live broker's own"
            )
        });
        rep.check("index.dead-columns-blank", dead_dirty == 0, || {
            format!("{dead_dirty} broker rows hold distances at dead or padding positions")
        });
        rep.check("index.self-distance-zero", self_bad == 0, || {
            format!("{self_bad} live brokers lack a zero self-distance")
        });
        rep.check("index.hop-cap", over_cap == 0, || {
            format!("{over_cap} entries exceed the {} hop cap", self.max_l)
        });
        rep.check("index.down-rows-blank", down_dirty == 0, || {
            format!("{down_dirty} failed vertices list live brokers")
        });
        rep
    }
}

/// A label-soundness certificate: re-derives sampled broker columns by
/// an independent queue BFS over the masked dominated edge set (sharing
/// no code with the msbfs build path) and compares every entry of the
/// derived table.
#[derive(Debug)]
pub struct IndexCertificate<'a> {
    g: &'a Graph,
    idx: &'a ReachIndex,
    columns: usize,
    seed: u64,
}

impl<'a> IndexCertificate<'a> {
    /// Certificate re-checking up to `columns` live broker columns,
    /// sampled deterministically from `seed`.
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
    /// Sampled column-exactness audit plus the full structural audit.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("brokerset::IndexCertificate");
        let idx = self.idx;
        rep.absorb(idx.audit());
        rep.check(
            "certificate.graph-size",
            self.g.node_count() == idx.n,
            || {
                format!(
                    "index covers {} vertices, graph has {}",
                    idx.n,
                    self.g.node_count()
                )
            },
        );
        if self.g.node_count() != idx.n || !rep.is_ok() {
            return rep;
        }
        let alive = idx.alive();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut picked: Vec<usize> = (0..idx.brokers.len())
            .filter(|&j| alive.contains(idx.brokers[j]))
            .collect();
        picked.shuffle(&mut rng);
        picked.truncate(self.columns);
        picked.sort_unstable();
        let reference: Vec<Vec<u8>> = picked
            .iter()
            .map(|&j| self.reference_column(idx.brokers[j], &alive))
            .collect();
        let mut row = vec![UNREACH; idx.brokers.len()];
        let mut wrong = 0usize;
        let mut exemplar = String::new();
        for v in 0..idx.n {
            idx.expand_row(NodeId(v as u32), &mut row);
            for (&j, col) in picked.iter().zip(&reference) {
                if row[j] != col[v] {
                    wrong += 1;
                    if exemplar.is_empty() {
                        exemplar = format!(
                            "broker {} at vertex {v}: derived {} want {}",
                            idx.brokers[j], row[j], col[v]
                        );
                    }
                }
            }
        }
        rep.check("certificate.shards-exact", wrong == 0, || {
            format!(
                "{wrong} label(s) diverge from the reference BFS over {} sampled columns ({exemplar})",
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

/// A `u32` count, then `items` (a cut edge counts once but is two ids).
fn push_list(buf: &mut Vec<u8>, count: usize, items: impl Iterator<Item = u32>) {
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    items.for_each(|x| buf.extend_from_slice(&x.to_le_bytes()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use netgraph::FaultSchedule;
    use rand::Rng;

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| NodeId(i)))
    }

    /// The state two indexes must share: the broker rows and the `S(v)`
    /// lists.
    fn rows_and_lists(idx: &ReachIndex) -> (&[u8], &[u32], &[u32]) {
        (&idx.rows, &idx.starts, &idx.lists)
    }

    /// `payload` with its FNV-1a trailer appended.
    fn signed(mut payload: Vec<u8>) -> Vec<u8> {
        let digest = fnv1a(payload.iter().copied());
        payload.extend_from_slice(&digest.to_le_bytes());
        payload
    }

    /// `blob` with `blob[at..at + len]` replaced by `with`, re-signed so
    /// the checksum passes.
    fn edited(blob: &[u8], at: usize, len: usize, with: &[u8]) -> Vec<u8> {
        let mut payload = blob[..blob.len() - 8].to_vec();
        payload.splice(at..at + len, with.iter().copied());
        signed(payload)
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
        assert_eq!(
            ReachIndex::from_bytes(&edited(&bytes, 0, 1, b"X")),
            Err(IndexCodecError::BadMagic)
        );
        let corrupt = |blob: Vec<u8>| match ReachIndex::from_bytes(&blob) {
            Err(IndexCodecError::Corrupt(what)) => what,
            other => panic!("expected a corrupt blob, got {other:?}"),
        };
        let word = |x: u32| x.to_le_bytes();
        // The lists follow the 25-byte header, the 8-byte roster, three
        // empty id lists and the 2 × 2 rows: each is a count, then roster
        // positions. Vertex 0 lists [0] at 49, broker 1 [0] at 57 and
        // vertex 2 [0, 1] at 65.
        assert_eq!(bytes[45..49], [0, 2, 2, 0]);
        assert_eq!(bytes[49..57], [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes[65..77], [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]);
        // A position at k, an unsorted pair, and a live broker listing
        // another broker.
        assert_eq!(corrupt(edited(&bytes, 53, 4, &word(2))), "index.lists");
        let swapped = [word(1), word(0)].concat();
        assert_eq!(corrupt(edited(&bytes, 69, 8, &swapped)), "index.lists");
        assert_eq!(corrupt(edited(&bytes, 61, 4, &word(1))), "index.lists");
        // With broker 3 defected and vertex 0 failed, position 1 is dead:
        // vertex 2 lists [0] at 69 and the failed vertex lists nothing at
        // 57. Listing the dead position, or giving the failed vertex a
        // list, is corrupt.
        let mut sched = FaultSchedule::new(5);
        sched.fail_broker(1, NodeId(3));
        sched.fail_node(1, NodeId(0));
        sched.set_horizon(2);
        let faulted = ReachIndex::build_under(&g, &b, 5, &sched.state_at(1), 1).to_bytes();
        assert_eq!(
            faulted[57..77],
            [[0; 4], word(1), word(0), word(1), word(0)].concat()
        );
        assert_eq!(corrupt(edited(&faulted, 73, 4, &word(1))), "index.lists");
        let listed = [word(1), word(0)].concat();
        assert_eq!(
            corrupt(edited(&faulted, 57, 4, &listed)),
            "index.down-rows-blank"
        );
        // A header claiming u32::MAX brokers, or u32::MAX vertices, with
        // nothing behind it must be rejected before anything is sized by
        // that count.
        let header = |n: u32, k: u32| {
            let mut blob = MAGIC.to_vec();
            blob.extend_from_slice(&n.to_le_bytes());
            blob.extend_from_slice(&k.to_le_bytes());
            blob.extend_from_slice(&0u32.to_le_bytes()); // epoch
            blob.push(6); // max_l
            blob.extend_from_slice(&0u64.to_le_bytes()); // invalidations
            blob
        };
        let huge_roster = signed(header(10, u32::MAX));
        assert_eq!(huge_roster.len(), 33);
        assert_eq!(
            ReachIndex::from_bytes(&huge_roster),
            Err(IndexCodecError::Truncated)
        );
        // Three empty id lists follow the header.
        let huge_n = signed([header(u32::MAX, 0), vec![0; 12]].concat());
        assert_eq!(huge_n.len(), 45);
        assert_eq!(
            ReachIndex::from_bytes(&huge_n),
            Err(IndexCodecError::Truncated)
        );
        assert!(IndexCodecError::Corrupt("x").to_string().contains("x"));
    }

    /// Every single-byte change of a blob's payload, re-signed so the
    /// checksum passes, decodes without panicking, and an edit that
    /// decodes re-encodes to itself: BRI2 holds no derived byte.
    #[test]
    fn every_resigned_byte_edit_decodes_without_panicking() {
        let (g, b) = path5();
        let bytes = ReachIndex::build(&g, &b, 5, 1).to_bytes();
        let (mut ok, mut err) = (0usize, 0usize);
        for at in 0..bytes.len() - 8 {
            for byte in (0..=u8::MAX).filter(|&x| x != bytes[at]) {
                let blob = edited(&bytes, at, 1, &[byte]);
                let decoded = std::panic::catch_unwind(|| ReachIndex::from_bytes(&blob));
                match decoded {
                    Err(_) => panic!("byte {at} set to {byte} panicked the decoder"),
                    Ok(Ok(idx)) => {
                        assert_eq!(idx.to_bytes(), blob, "byte {at} set to {byte}");
                        ok += 1;
                    }
                    Ok(Err(_)) => err += 1,
                }
            }
        }
        assert!(ok > 0 && err > 0, "{ok} edits decoded, {err} did not");
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
            assert_eq!(
                rows_and_lists(&idx),
                rows_and_lists(&full),
                "rows diverge at epoch {epoch}"
            );
            assert!(idx.audit().is_ok());
        }
        assert!(idx.shards_invalidated() > 0);
    }

    /// Path 0-1-…-6 with brokers {0, 6} at max_l = 1. Failing vertex 5
    /// dirties {4, 5, 6}, which broker 0's 1-ball {0, 1} misses, and the
    /// epoch still rebuilds broker 0's row: the rule is per epoch. The
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
            assert_eq!(
                rows_and_lists(&idx),
                rows_and_lists(&full),
                "rows diverge at epoch {epoch}"
            );
        }
    }

    /// k = 150 spans three 64-lane batches and five 32-position scan
    /// chunks, so a merge that writes a whole batch into the wrong rows,
    /// or a scan that mishandles a chunk or its padding, shows here:
    /// rebuilds with a gap in every batch, checked against a full build,
    /// the reference BFS and the exact oracle at several thread counts.
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
                assert_eq!(
                    rows_and_lists(&idx),
                    rows_and_lists(&full),
                    "threads {threads}, epoch {epoch}"
                );
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
        idx.rows[1] = 3; // lie about d(broker 1, broker 3), truly 2
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
