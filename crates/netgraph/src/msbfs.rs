//! Bit-parallel multi-source BFS (MS-BFS) with direction-optimizing
//! traversal.
//!
//! Every headline evaluation in the paper — the l-hop connectivity curves
//! `F_B(l)`, hop-count histograms, distance centralities — is a
//! many-source BFS over a (masked) topology. Running one arena BFS per
//! source repeats the frontier expansion `n` times; this kernel instead
//! packs **64 sources into the bit lanes of a `u64`** (the MS-BFS scheme
//! of Then et al., VLDB 2015) and keeps three masks per vertex:
//!
//! - `seen[v]` — lanes whose BFS has already discovered `v`,
//! - `frontier[v]` — lanes that discovered `v` in the current level,
//! - `next[v]` — lanes reaching `v` in the next level (being built).
//!
//! One pass over the adjacency per level then serves all 64 sources at
//! once: pushing a frontier mask across an edge is a single `OR`.
//!
//! ## Direction-optimizing expansion
//!
//! Each level is expanded either **top-down** (iterate frontier vertices,
//! scatter their masks to neighbors) or **bottom-up** (iterate vertices
//! with undiscovered lanes, gather their neighbors' frontier masks),
//! switching on frontier density in the style of Beamer et al. (SC 2012).
//! Both directions promote the same frontier — a lane reaches `v` at
//! level `d + 1` iff `v` is unseen by it and some neighbor of `v` carried
//! it at level `d`, and set union is order-independent — so the
//! heuristic affects running time only, never results. A bottom-up
//! gather stops at the neighbor that completes `v`'s unseen lanes (the
//! multi-lane form of Beamer's stop at the first frontier parent): the
//! lanes it skips are ones `v` has already seen, which the promote step
//! discards anyway. It walks neighbors through
//! [`GraphView::try_for_each_neighbor`], the one walk every view
//! implements. Bottom-up gathers over a vertex's *neighbor list* as if it
//! were its in-edge list, which requires [`GraphView::is_symmetric`];
//! asymmetric views (the routing crate's valley-free product graph) are
//! always expanded top-down.
//!
//! ## Determinism
//!
//! A run is a pure function of `(view, sources, max_depth)`: levels are
//! produced in order and every per-level quantity ([`Wavefront`]) is a
//! set cardinality, independent of scan order. Batch-level parallelism
//! composes through [`crate::par`]'s chunk-ordered merge, so results are
//! bit-identical at every thread count — see the engine determinism
//! suites.
//!
//! ```
//! use netgraph::{graph::from_edges, msbfs, NodeId};
//!
//! // A path 0-1-2-3: distances from both endpoints in one batch.
//! let g = from_edges(4, (0..3).map(|i| (NodeId(i), NodeId(i + 1))));
//! let dist = msbfs::msbfs_distances(netgraph::FullView::new(&g), &[NodeId(0), NodeId(3)]);
//! assert_eq!(dist[0], vec![Some(0), Some(1), Some(2), Some(3)]);
//! assert_eq!(dist[1], vec![Some(3), Some(2), Some(1), Some(0)]);
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "R7: the 64-lane kernel owns the word-level lane tricks"
)]

use crate::view::GraphView;
use crate::NodeId;
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Sources served by one batch: the bit lanes of a `u64`.
pub const LANES: usize = 64;

/// Expansion goes bottom-up once the frontier holds more than
/// `1 / PULL_DENSITY` of all vertices (and the view is symmetric).
const PULL_DENSITY: usize = 8;

/// How a batch expands its frontier each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Beamer-style switching: top-down for sparse frontiers, bottom-up
    /// for dense ones (symmetric views only). The choice never affects
    /// results, only speed.
    #[default]
    Auto,
    /// Always top-down (scatter frontier masks along out-edges). Correct
    /// on every view.
    Push,
    /// Always bottom-up (gather neighbor masks into unseen vertices).
    /// Panics on views that are not [`GraphView::is_symmetric`].
    Pull,
}

/// The set of lanes (batch source indices) attached to one vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSet(u64);

impl LaneSet {
    /// Number of lanes in the set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether lane `lane` (the source at that index in the batch slice)
    /// is present.
    #[inline]
    pub fn contains(self, lane: usize) -> bool {
        lane < LANES && (self.0 >> lane) & 1 == 1
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Invoke `f` with each lane index, in ascending order.
    #[inline]
    pub fn for_each_lane(self, mut f: impl FnMut(usize)) {
        let mut m = self.0;
        while m != 0 {
            f(m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }

    /// The raw mask (lane `i` ↔ bit `i`).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }
}

/// One BFS level of a batch: the vertices first discovered at exactly
/// [`level`](Wavefront::level) hops, each with the lanes that discovered
/// it. Level 0 is the sources discovering themselves.
#[derive(Debug)]
pub struct Wavefront<'a> {
    level: u32,
    newly: &'a [NodeId],
    masks: &'a [u64],
}

impl Wavefront<'_> {
    /// Hop distance of this level (0 for the sources themselves).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Vertices first discovered at this level, ascending by id.
    pub fn new_vertices(&self) -> &[NodeId] {
        self.newly
    }

    /// Total `(source, vertex)` pairs discovered at this level — the sum
    /// of lane counts over the new vertices.
    pub fn new_pairs(&self) -> u64 {
        self.newly
            .iter()
            .map(|v| u64::from(LaneSet(self.masks[v.index()]).count()))
            .sum()
    }

    /// Invoke `f` for every newly discovered vertex with its lanes,
    /// ascending by vertex id.
    pub fn for_each_new(&self, mut f: impl FnMut(NodeId, LaneSet)) {
        for &v in self.newly {
            f(v, LaneSet(self.masks[v.index()]));
        }
    }
}

/// Reusable state for batched multi-source BFS: the three per-vertex mask
/// arrays plus the current frontier vertex list. Like
/// [`crate::TraversalArena`], create once and [`run`](MsBfsArena::run)
/// many times (or borrow a thread-local one via [`with_msbfs`]).
#[derive(Debug, Clone, Default)]
pub struct MsBfsArena {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    front: Vec<NodeId>,
}

impl MsBfsArena {
    /// A fresh arena; buffers grow on first use.
    pub fn new() -> Self {
        MsBfsArena::default()
    }

    /// An arena pre-sized for views of `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        MsBfsArena {
            seen: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            front: Vec::with_capacity(n),
        }
    }

    /// Run up to [`LANES`] simultaneous BFS traversals with automatic
    /// direction switching, invoking `on_level` with each [`Wavefront`]
    /// in level order (level 0 = the sources, up to and including
    /// `max_depth`). Sources not in the view seed nothing, exactly like
    /// the per-source engine. Returns the total number of
    /// `(source, vertex)` discoveries, self-discoveries included.
    pub fn run<V: GraphView>(
        &mut self,
        view: V,
        sources: &[NodeId],
        max_depth: u32,
        on_level: impl FnMut(&Wavefront<'_>),
    ) -> u64 {
        self.run_with(view, sources, max_depth, Direction::Auto, on_level)
    }

    /// [`run`](MsBfsArena::run) with a forced expansion [`Direction`]
    /// (used by the equivalence tests and benches to exercise both
    /// code paths).
    ///
    /// # Panics
    ///
    /// If `sources` exceeds [`LANES`], or `Direction::Pull` is forced on
    /// an asymmetric view.
    pub fn run_with<V: GraphView>(
        &mut self,
        view: V,
        sources: &[NodeId],
        max_depth: u32,
        direction: Direction,
        mut on_level: impl FnMut(&Wavefront<'_>),
    ) -> u64 {
        assert!(
            sources.len() <= LANES,
            "a batch holds at most {LANES} sources, got {}",
            sources.len()
        );
        assert!(
            direction != Direction::Pull || view.is_symmetric(),
            "bottom-up pull requires a symmetric view"
        );
        let n = view.node_count();
        self.seen.clear();
        self.seen.resize(n, 0);
        self.frontier.clear();
        self.frontier.resize(n, 0);
        self.next.clear();
        self.next.resize(n, 0);

        let mut seeded = 0u64;
        for (lane, &s) in sources.iter().enumerate() {
            if view.contains_node(s) {
                self.next[s.index()] |= 1 << lane;
                seeded |= 1 << lane;
            }
        }
        if seeded == 0 {
            self.front.clear();
            return 0;
        }
        let () = crate::counter!("msbfs.runs");
        let () = crate::histogram!("msbfs.lane_occupancy", u64::from(seeded.count_ones()));

        let pull_ok = view.is_symmetric();
        let MsBfsArena {
            seen,
            frontier,
            next,
            front,
        } = self;
        let mut discovered = 0u64;
        let mut level = 0u32;
        loop {
            // Promote `next` into the frontier: unseen lanes only, and
            // rebuild the frontier vertex list in ascending order.
            front.clear();
            for i in 0..n {
                let m = next[i] & !seen[i];
                next[i] = 0;
                frontier[i] = m;
                if m != 0 {
                    seen[i] |= m;
                    front.push(NodeId(i as u32));
                    discovered += u64::from(m.count_ones());
                }
            }
            if front.is_empty() {
                break;
            }
            let () = crate::counter!("msbfs.levels");
            on_level(&Wavefront {
                level,
                newly: front,
                masks: frontier,
            });
            if level >= max_depth {
                break;
            }
            let pull = match direction {
                Direction::Push => false,
                Direction::Pull => true,
                Direction::Auto => pull_ok && front.len() * PULL_DENSITY > n,
            };
            if pull {
                // Bottom-up: every vertex with undiscovered lanes gathers
                // the frontier masks of its (symmetric) neighbors.
                let () = crate::histogram!(
                    "msbfs.pull_frontier_permille",
                    (front.len() * 1000 / n.max(1)) as u64
                );
                let mut gathered = 0u64;
                for i in 0..n {
                    if seen[i] == seeded {
                        continue;
                    }
                    gathered += 1;
                    // The promote step keeps only `next & !seen`, so the
                    // gather may stop once every unseen lane has arrived.
                    let need = seeded & !seen[i];
                    let mut m = 0u64;
                    let _ = view.try_for_each_neighbor(NodeId(i as u32), |v| {
                        m |= frontier[v.index()];
                        if m & need == need {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    next[i] = m;
                }
                let () = crate::counter!("msbfs.pull_expansions", gathered);
            } else {
                // Top-down: every frontier vertex scatters its mask
                // across its surviving edges.
                let () = crate::counter!("msbfs.push_expansions", front.len() as u64);
                for &u in front.iter() {
                    let fu = frontier[u.index()];
                    view.for_each_neighbor(u, |v| next[v.index()] |= fu);
                }
            }
            level += 1;
        }
        discovered
    }

    /// Per-lane discovery totals from the last run: `reach[lane]` =
    /// number of vertices that lane's BFS reached, itself included (0
    /// for lanes whose source was not in the view).
    pub fn lane_reach(&self) -> [u32; LANES] {
        let mut reach = [0u32; LANES];
        for &m in &self.seen {
            let mut bits = m;
            while bits != 0 {
                reach[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        reach
    }
}

thread_local! {
    static MSBFS_POOL: RefCell<MsBfsArena> = RefCell::new(MsBfsArena::new());
}

/// Borrow this thread's pooled [`MsBfsArena`] — the batched counterpart
/// of [`crate::with_arena`]. Reentrant calls fall back to a fresh arena.
pub fn with_msbfs<R>(f: impl FnOnce(&mut MsBfsArena) -> R) -> R {
    MSBFS_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => {
            let () = crate::counter!("msbfs.pool.acquire");
            f(&mut arena)
        }
        Err(_) => {
            let () = crate::counter!("msbfs.pool.fresh");
            f(&mut MsBfsArena::new())
        }
    })
}

/// Allocating convenience: per-source distance vectors for up to
/// [`LANES`] sources in one batch (`None` = unreached). Mirrors the
/// shape of [`crate::bfs_distances`] for easy comparison in tests.
pub fn msbfs_distances<V: GraphView>(view: V, sources: &[NodeId]) -> Vec<Vec<Option<u32>>> {
    let n = view.node_count();
    let mut dist = vec![vec![None; n]; sources.len()];
    with_msbfs(|arena| {
        arena.run(&view, sources, u32::MAX, |wf| {
            let level = wf.level();
            wf.for_each_new(|v, lanes| {
                lanes.for_each_lane(|lane| dist[lane][v.index()] = Some(level));
            });
        });
    });
    dist
}

impl crate::Validate for MsBfsArena {
    /// Audit the lane-mask buffers:
    ///
    /// 1. the three per-vertex mask arrays are index-aligned;
    /// 2. every frontier-list vertex is in range and actually carries
    ///    frontier bits;
    /// 3. frontier bits are a subset of the seen bits (a vertex cannot be
    ///    on the wavefront of a lane that has not discovered it).
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::MsBfsArena");
        let n = self.seen.len();
        rep.check(
            "msbfs.buffers-aligned",
            self.frontier.len() == n && self.next.len() == n,
            || {
                format!(
                    "seen {} frontier {} next {}",
                    n,
                    self.frontier.len(),
                    self.next.len()
                )
            },
        );
        let in_range = self.front.iter().all(|v| v.index() < n);
        rep.check("msbfs.front-in-range", in_range, || {
            format!("a frontier vertex id is >= {n}")
        });
        if !in_range || self.frontier.len() != n {
            return rep;
        }
        rep.check(
            "msbfs.front-has-bits",
            self.front.iter().all(|v| self.frontier[v.index()] != 0),
            || "a listed frontier vertex has an empty lane mask".into(),
        );
        let subset = (0..n).all(|v| self.frontier[v] & !self.seen[v] == 0);
        rep.check("msbfs.frontier-subset-of-seen", subset, || {
            "a frontier bit is set for a lane that never saw the vertex".into()
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use crate::view::{DominatedView, FullView};
    use crate::NodeSet;

    fn path(n: u32) -> crate::Graph {
        from_edges(n as usize, (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    #[test]
    fn arena_audit_accepts_and_detects_corruption() {
        use crate::Validate;
        assert!(MsBfsArena::new().audit().is_ok());

        // A hand-built mid-wave state: vertex 0 seen+frontier on lane 0.
        let mut arena = MsBfsArena {
            seen: vec![0b1, 0b0, 0b0],
            frontier: vec![0b1, 0, 0],
            next: vec![0, 0, 0],
            front: vec![NodeId(0)],
        };
        assert!(arena.audit().is_ok());

        // Frontier bit on a lane that never discovered the vertex.
        arena.frontier[1] = 0b10;
        arena.front.push(NodeId(1));
        let rep = arena.audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "msbfs.frontier-subset-of-seen"));

        // Listed frontier vertex with an empty mask.
        arena.frontier[1] = 0;
        assert!(arena
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "msbfs.front-has-bits"));

        // Out-of-range frontier vertex short-circuits safely.
        arena.front.push(NodeId(99));
        assert!(arena
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "msbfs.front-in-range"));

        // Misaligned per-vertex buffers.
        arena.next.pop();
        assert!(arena
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "msbfs.buffers-aligned"));
    }

    #[test]
    fn lane_set_basics() {
        let s = LaneSet(0b1010_0001);
        assert_eq!(s.count(), 3);
        assert!(s.contains(0) && s.contains(5) && s.contains(7));
        assert!(!s.contains(1) && !s.contains(64));
        assert!(!s.is_empty());
        let mut lanes = Vec::new();
        s.for_each_lane(|l| lanes.push(l));
        assert_eq!(lanes, vec![0, 5, 7]);
        assert_eq!(s.bits(), 0b1010_0001);
    }

    #[test]
    fn two_sources_on_a_path() {
        let g = path(5);
        let mut levels = Vec::new();
        let total = with_msbfs(|arena| {
            arena.run(FullView::new(&g), &[NodeId(0), NodeId(4)], u32::MAX, |wf| {
                levels.push((wf.level(), wf.new_pairs(), wf.new_vertices().to_vec()));
            })
        });
        // Level 0: both sources; levels 1-2 walk inward; lane fronts meet.
        assert_eq!(total, 10); // each lane reaches all 5 vertices
        assert_eq!(levels[0].0, 0);
        assert_eq!(levels[0].1, 2);
        assert_eq!(levels[1].2, vec![NodeId(1), NodeId(3)]);
        assert_eq!(levels.last().map(|l| l.0), Some(4));
    }

    #[test]
    fn max_depth_bounds_levels() {
        let g = path(6);
        let mut max_level = 0;
        let total = with_msbfs(|arena| {
            arena.run(FullView::new(&g), &[NodeId(0)], 2, |wf| {
                max_level = wf.level();
            })
        });
        assert_eq!(max_level, 2);
        assert_eq!(total, 3); // vertices 0, 1, 2
    }

    #[test]
    fn push_and_pull_agree() {
        let g = path(7);
        let brokers = NodeSet::from_iter_with_capacity(7, [NodeId(2), NodeId(4)]);
        let view = DominatedView::new(&g, &brokers);
        let sources: Vec<NodeId> = g.nodes().collect();
        let mut arena = MsBfsArena::new();
        let mut run = |dir| {
            let mut trace = Vec::new();
            let total = arena.run_with(view, &sources, u32::MAX, dir, |wf| {
                trace.push((wf.level(), wf.new_vertices().to_vec(), wf.new_pairs()));
            });
            (total, trace, arena.lane_reach())
        };
        assert_eq!(run(Direction::Push), run(Direction::Pull));
        assert_eq!(run(Direction::Push), run(Direction::Auto));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn pull_rejects_asymmetric_views() {
        struct OneWay;
        impl GraphView for OneWay {
            fn node_count(&self) -> usize {
                2
            }
            fn try_for_each_neighbor(
                &self,
                u: NodeId,
                mut visit: impl FnMut(NodeId) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                if u == NodeId(0) {
                    visit(NodeId(1))?;
                }
                ControlFlow::Continue(())
            }
        }
        MsBfsArena::new().run_with(OneWay, &[NodeId(0)], u32::MAX, Direction::Pull, |_| {});
    }

    #[test]
    fn excluded_sources_seed_nothing() {
        let g = path(4);
        let mut failed = NodeSet::new(4);
        failed.insert(NodeId(0));
        let view = crate::view::MaskedView::new(FullView::new(&g), Some(&failed), None);
        let dist = msbfs_distances(view, &[NodeId(0), NodeId(1)]);
        assert!(dist[0].iter().all(Option::is_none));
        assert_eq!(dist[1][3], Some(2));
        with_msbfs(|arena| {
            arena.run(view, &[NodeId(0)], u32::MAX, |_| {
                panic!("no wavefront expected");
            });
            assert_eq!(arena.lane_reach(), [0u32; LANES]);
        });
    }

    #[test]
    fn arena_reuse_is_stateless() {
        let ga = path(6);
        let gb = path(3);
        let mut arena = MsBfsArena::new();
        let reach = |arena: &mut MsBfsArena, g| {
            arena.run(FullView::new(g), &[NodeId(0)], u32::MAX, |_| {});
            arena.lane_reach()[0]
        };
        let want = reach(&mut arena, &ga);
        assert_eq!(reach(&mut arena, &gb), 3);
        assert_eq!(reach(&mut arena, &ga), want);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_batches_panic() {
        let g = path(2);
        let sources = vec![NodeId(0); LANES + 1];
        MsBfsArena::new().run(FullView::new(&g), &sources, 0, |_| {});
    }
}
