//! The traversal engine: pooled BFS arenas over [`GraphView`]s.
//!
//! Every traversal in the workspace — plain reachability, B-dominated
//! l-hop evaluation, failure-masked resilience sweeps, valley-free state
//! walks — runs through one kernel: [`TraversalArena`] doing BFS over a
//! [`GraphView`]. Views supply the filtering (see [`crate::view`]); the
//! arena supplies reusable scratch so per-source traversals allocate
//! nothing in steady state.
//!
//! ## Arena reuse contract
//!
//! An arena may be reused across runs, views and graphs of different
//! sizes; every `run_*` method resets it. Results
//! ([`TraversalArena::distance`], [`TraversalArena::parent`],
//! [`TraversalArena::visit_order`]) are valid until the next `run_*`
//! call. Resets are O(1): the visited set is epoch-stamped (one `u32`
//! compare per query) rather than cleared. [`with_arena`] hands out a
//! thread-local pooled arena, so callers in parallel workers get
//! zero-allocation traversals without plumbing scratch through their
//! signatures.
//!
//! Convenience wrappers (allocating, for one-shot use and doctests):
//! [`bfs_distances`], [`bfs_parents`].
#![expect(
    clippy::disallowed_types,
    reason = "R6: this engine is the one home of the BFS queue"
)]

use crate::view::{FullView, GraphView};
use crate::{Graph, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Reusable BFS scratch: distances, an epoch-stamped visited set, the
/// queue, a parent array and the visit order.
///
/// Repeated traversals (the connectivity evaluator runs thousands) reuse
/// the buffers instead of reallocating per source; see the module docs
/// for the reuse contract.
#[derive(Debug, Clone)]
pub struct TraversalArena {
    dist: Vec<u32>,
    parent: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    order: Vec<NodeId>,
    epoch: u32,
    seen: Vec<u32>,
    track_parents: bool,
}

impl Default for TraversalArena {
    fn default() -> Self {
        TraversalArena::new()
    }
}

impl TraversalArena {
    /// An empty arena; buffers grow to fit the first view traversed.
    pub fn new() -> Self {
        TraversalArena::with_capacity(0)
    }

    /// An arena pre-sized for views with `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        TraversalArena {
            dist: vec![0; n],
            parent: vec![NodeId(0); n],
            queue: VecDeque::new(),
            order: Vec::new(),
            epoch: 0,
            seen: vec![0; n],
            track_parents: false,
        }
    }

    fn begin(&mut self, n: usize, track_parents: bool) {
        let () = crate::counter!("arena.runs");
        if self.seen.len() < n {
            let () = crate::counter!("arena.grow");
            self.dist.resize(n, 0);
            self.parent.resize(n, NodeId(0));
            // New entries carry epoch 0, which never equals the current
            // epoch (it is at least 1 after the bump below).
            self.seen.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: reset the lazily-invalidated `seen` marks.
            let () = crate::counter!("arena.epoch_wrap");
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.order.clear();
        self.track_parents = track_parents;
    }

    #[inline]
    fn mark(&mut self, v: NodeId, d: u32, parent: NodeId) -> bool {
        if self.seen[v.index()] == self.epoch {
            false
        } else {
            self.seen[v.index()] = self.epoch;
            self.dist[v.index()] = d;
            if self.track_parents {
                self.parent[v.index()] = parent;
            }
            self.order.push(v);
            true
        }
    }

    /// Distance of `v` from the last traversal's source(s), if reached.
    ///
    /// Returns `None` for every vertex until the first traversal runs
    /// (epoch 0 is reserved for "never ran").
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        (self.epoch != 0 && self.seen[v.index()] == self.epoch).then(|| self.dist[v.index()])
    }

    /// Predecessor of `v` in the last parent-tracking traversal
    /// ([`TraversalArena::run_to_target`], or the full-tree run behind
    /// [`bfs_parents`]); the source is its own parent.
    /// `None` if `v` was not reached or parents were not tracked.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        (self.track_parents && self.epoch != 0 && self.seen[v.index()] == self.epoch)
            .then(|| self.parent[v.index()])
    }

    /// Vertices of the last traversal in visit (BFS) order, sources
    /// first. Empty until a traversal runs.
    pub fn visit_order(&self) -> &[NodeId] {
        &self.order
    }

    /// BFS over `view` from `src`; afterwards query with
    /// [`TraversalArena::distance`]. Returns the number of reached
    /// vertices (including `src`), or 0 when the view excludes `src`.
    pub fn run<V: GraphView>(&mut self, view: V, src: NodeId) -> usize {
        self.run_bounded(view, src, u32::MAX)
    }

    /// BFS over `view` from `src`, not expanding past `max_depth` hops.
    /// Returns the number of reached vertices (including `src`), or 0
    /// when the view excludes `src`.
    pub fn run_bounded<V: GraphView>(&mut self, view: V, src: NodeId, max_depth: u32) -> usize {
        self.expand(view, src, max_depth, false)
    }

    /// Full-tree parent-tracking BFS over `view` from `src`; afterwards
    /// query [`TraversalArena::parent`] / [`TraversalArena::path_to`].
    /// Returns the number of reached vertices (0 when the view excludes
    /// `src`).
    fn run_parents<V: GraphView>(&mut self, view: V, src: NodeId) -> usize {
        self.expand(view, src, u32::MAX, true)
    }

    /// The expansion loop behind [`TraversalArena::run_bounded`] and
    /// [`TraversalArena::run_parents`].
    fn expand<V: GraphView>(
        &mut self,
        view: V,
        src: NodeId,
        max_depth: u32,
        track_parents: bool,
    ) -> usize {
        self.begin(view.node_count(), track_parents);
        if !view.contains_node(src) {
            return 0;
        }
        self.mark(src, 0, src);
        self.queue.push_back(src);
        let mut reached = 1usize;
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            if du >= max_depth {
                continue;
            }
            view.for_each_neighbor(u, |v| {
                if self.mark(v, du + 1, u) {
                    reached += 1;
                    self.queue.push_back(v);
                }
            });
        }
        reached
    }

    /// Parent-tracking BFS over `view` from `src` that stops as soon as a
    /// vertex satisfying `is_target` is discovered, returning it. The
    /// search stops *at discovery time* (the moment the parent pointer is
    /// set), matching the early-exit point-to-point queries the stitching
    /// layer runs; extract the path with [`TraversalArena::path_to`].
    ///
    /// Returns `None` when no satisfying vertex is reachable (or the view
    /// excludes `src`).
    pub fn run_to_target<V: GraphView, P: Fn(NodeId) -> bool>(
        &mut self,
        view: V,
        src: NodeId,
        is_target: P,
    ) -> Option<NodeId> {
        self.begin(view.node_count(), true);
        if !view.contains_node(src) {
            return None;
        }
        self.mark(src, 0, src);
        if is_target(src) {
            return Some(src);
        }
        self.queue.push_back(src);
        let mut hit: Option<NodeId> = None;
        'bfs: while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            // Internal iteration cannot break out of the closure, so
            // collect the hit and break the outer loop.
            let mut found: Option<NodeId> = None;
            view.for_each_neighbor(u, |v| {
                if found.is_none() && self.mark(v, du + 1, u) {
                    if is_target(v) {
                        found = Some(v);
                    } else {
                        self.queue.push_back(v);
                    }
                }
            });
            if let Some(v) = found {
                hit = Some(v);
                break 'bfs;
            }
        }
        hit
    }

    /// Extract the source → `dst` path from the last parent-tracking
    /// traversal; `None` when `dst` was not reached (or parents were not
    /// tracked).
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        self.parent(dst)?;
        let mut path = vec![dst];
        let mut cur = dst;
        loop {
            let p = self.parent(cur)?;
            if p == cur {
                break; // reached the source (its own parent)
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Histogram of distances from the last run: `hist[d]` = number of
    /// vertices at distance exactly `d` (capped at `max_len` buckets).
    /// O(reached), via the visit order.
    pub fn distance_histogram(&self, max_len: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max_len];
        for &v in &self.order {
            let d = self.dist[v.index()] as usize;
            if d < max_len {
                hist[d] += 1;
            }
        }
        hist
    }
}

thread_local! {
    static ARENA_POOL: RefCell<TraversalArena> = RefCell::new(TraversalArena::new());
}

/// Run `f` with this thread's pooled [`TraversalArena`].
///
/// The arena persists for the life of the thread, so repeated calls (and
/// every per-source loop inside `f`) reuse the same buffers — the
/// steady-state zero-allocation path of the engine. Reentrant calls get a
/// fresh temporary arena instead of the pooled one.
pub fn with_arena<R>(f: impl FnOnce(&mut TraversalArena) -> R) -> R {
    ARENA_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => {
            let () = crate::counter!("arena.pool.acquire");
            f(&mut arena)
        }
        Err(_) => {
            let () = crate::counter!("arena.pool.fresh");
            f(&mut TraversalArena::new())
        }
    })
}

/// Single-source hop distances; `None` for unreachable vertices.
///
/// ```
/// use netgraph::{graph::from_edges, NodeId, bfs_distances};
/// let g = from_edges(4, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
/// let d = bfs_distances(&g, NodeId(0));
/// assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    with_arena(|arena| {
        arena.run(FullView::new(g), src);
        g.nodes().map(|v| arena.distance(v)).collect()
    })
}

/// BFS parent tree from `src`: `parent[v]` is the predecessor of `v` on
/// one shortest path from `src`; `parent[src] = Some(src)`; `None` means
/// unreachable.
pub fn bfs_parents(g: &Graph, src: NodeId) -> Vec<Option<NodeId>> {
    with_arena(|arena| {
        arena.run_parents(FullView::new(g), src);
        g.nodes().map(|v| arena.parent(v)).collect()
    })
}

/// Extract the `src -> dst` path out of a parent tree produced by
/// [`bfs_parents`] (or any compatible tree).
pub fn path_from_parents(
    parent: &[Option<NodeId>],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    parent[dst.index()]?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        // A broken chain means the tree does not actually reach `src`;
        // report "no path" instead of panicking in library code.
        let p = parent[cur.index()]?;
        debug_assert_ne!(p, cur, "non-source vertex is its own parent");
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

impl crate::Validate for TraversalArena {
    /// Re-derive the arena's epoch-stamping invariants:
    ///
    /// 1. the three per-vertex buffers are index-aligned;
    /// 2. a never-run arena (epoch 0) has an empty visit order;
    /// 3. every vertex in the visit order is in range and stamped with
    ///    the current epoch, and *only* those vertices are — the stamp
    ///    count equals the order length (so there are no duplicates and
    ///    no unlisted visited vertices);
    /// 4. distances along the visit order are non-decreasing (BFS order).
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::TraversalArena");
        let n = self.seen.len();
        rep.check(
            "arena.buffers-aligned",
            self.dist.len() == n && self.parent.len() == n,
            || {
                format!(
                    "seen {} dist {} parent {}",
                    n,
                    self.dist.len(),
                    self.parent.len()
                )
            },
        );
        rep.check(
            "arena.epoch-zero-fresh",
            self.epoch != 0 || self.order.is_empty(),
            || format!("epoch 0 but visit order has {} entries", self.order.len()),
        );
        let in_range = self.order.iter().all(|v| v.index() < n);
        rep.check("arena.order-in-range", in_range, || {
            format!("a visited vertex id is >= {n}")
        });
        if !in_range || self.dist.len() != n {
            return rep;
        }
        rep.check(
            "arena.order-stamped",
            self.order
                .iter()
                .all(|v| self.seen[v.index()] == self.epoch),
            || "a vertex in the visit order lacks the current epoch stamp".into(),
        );
        if self.epoch != 0 {
            let stamped = self.seen.iter().filter(|&&s| s == self.epoch).count();
            rep.check("arena.stamp-count", stamped == self.order.len(), || {
                format!(
                    "{} vertices stamped, {} in the visit order",
                    stamped,
                    self.order.len()
                )
            });
        }
        let monotone = self
            .order
            .windows(2)
            .all(|w| self.dist[w[0].index()] <= self.dist[w[1].index()]);
        rep.check("arena.order-bfs-monotone", monotone, || {
            "visit order distances decrease somewhere".into()
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use crate::view::{DominatedView, MaskedView};
    use crate::NodeSet;

    fn path_graph(n: u32) -> Graph {
        from_edges(n as usize, (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, (0..5).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn unreachable_is_none() {
        let g = from_edges(3, [(NodeId(0), NodeId(1))]);
        let d = bfs_distances(&g, NodeId(2));
        assert_eq!(d, vec![None, None, Some(0)]);
    }

    #[test]
    fn bounded_bfs_stops() {
        let g = path_graph(10);
        let mut arena = TraversalArena::new();
        arena.run_bounded(FullView::new(&g), NodeId(0), 3);
        assert_eq!(arena.distance(NodeId(3)), Some(3));
        assert_eq!(arena.distance(NodeId(4)), None);
    }

    #[test]
    fn restricted_bfs_respects_mask() {
        // 0-1-2-3-4 plus shortcut 0-4; the mask fails the middle vertex 2.
        let mut edges: Vec<(NodeId, NodeId)> = (0..4).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        edges.push((NodeId(0), NodeId(4)));
        let g = from_edges(5, edges);
        let mut failed = NodeSet::new(5);
        failed.insert(NodeId(2));
        let mut arena = TraversalArena::new();
        arena.run(
            MaskedView::new(FullView::new(&g), Some(&failed), None),
            NodeId(0),
        );
        assert_eq!(arena.distance(NodeId(1)), Some(1));
        assert_eq!(arena.distance(NodeId(2)), None); // masked out
        assert_eq!(arena.distance(NodeId(4)), Some(1)); // via shortcut
        assert_eq!(arena.distance(NodeId(3)), Some(2)); // 0-4-3
    }

    #[test]
    fn restricted_bfs_source_not_allowed() {
        let g = path_graph(3);
        let failed = NodeSet::full(3);
        let mut arena = TraversalArena::new();
        let view = MaskedView::new(FullView::new(&g), Some(&failed), None);
        assert_eq!(arena.run(view, NodeId(0)), 0);
        assert_eq!(arena.distance(NodeId(0)), None);
    }

    #[test]
    fn parents_and_path_extraction() {
        let g = path_graph(4);
        let p = bfs_parents(&g, NodeId(0));
        assert_eq!(p[0], Some(NodeId(0)));
        assert_eq!(p[3], Some(NodeId(2)));
        let path = path_from_parents(&p, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path.len(), 4);
        let mut arena = TraversalArena::new();
        arena.run_parents(FullView::new(&g), NodeId(0));
        assert_eq!(arena.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
        assert_eq!(arena.path_to(NodeId(3)).unwrap(), path);
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        let mut arena = TraversalArena::new();
        arena.run_parents(FullView::new(&g), NodeId(0));
        assert!(arena.path_to(NodeId(3)).is_none());
    }

    #[test]
    fn fresh_arena_reports_nothing() {
        let g = path_graph(3);
        let arena = TraversalArena::with_capacity(3);
        for v in 0..3 {
            assert_eq!(
                arena.distance(NodeId(v)),
                None,
                "unran arena leaked a distance"
            );
            assert_eq!(arena.parent(NodeId(v)), None);
        }
        assert_eq!(arena.distance_histogram(4), vec![0, 0, 0, 0]);
        assert!(arena.visit_order().is_empty());
        let _ = g;
    }

    #[test]
    fn arena_scratch_reuse_across_sources() {
        let g = path_graph(6);
        let mut arena = TraversalArena::with_capacity(6);
        arena.run(FullView::new(&g), NodeId(0));
        assert_eq!(arena.distance(NodeId(5)), Some(5));
        arena.run(FullView::new(&g), NodeId(5));
        assert_eq!(arena.distance(NodeId(5)), Some(0));
        assert_eq!(arena.distance(NodeId(0)), Some(5));
    }

    #[test]
    fn arena_grows_across_graphs() {
        let small = path_graph(3);
        let big = path_graph(20);
        let mut arena = TraversalArena::new(); // zero capacity
        assert_eq!(arena.run(FullView::new(&small), NodeId(0)), 3);
        assert_eq!(arena.run(FullView::new(&big), NodeId(0)), 20);
        assert_eq!(arena.distance(NodeId(19)), Some(19));
        // Back to the small graph: stale big-graph marks must not leak.
        assert_eq!(arena.run(FullView::new(&small), NodeId(2)), 3);
        assert_eq!(arena.distance(NodeId(2)), Some(0));
    }

    #[test]
    fn distance_histogram_counts() {
        let g = path_graph(5);
        let mut arena = TraversalArena::with_capacity(5);
        arena.run(FullView::new(&g), NodeId(0));
        let h = arena.distance_histogram(6);
        assert_eq!(h, vec![1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn reached_counts() {
        let g = from_edges(5, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        let mut arena = TraversalArena::with_capacity(5);
        assert_eq!(arena.run(FullView::new(&g), NodeId(0)), 3);
        assert_eq!(arena.run_bounded(FullView::new(&g), NodeId(0), 1), 2);
        assert_eq!(arena.run_parents(FullView::new(&g), NodeId(3)), 1);
    }

    #[test]
    fn visit_order_is_bfs_order() {
        let g = path_graph(4);
        let mut arena = TraversalArena::new();
        arena.run(FullView::new(&g), NodeId(0));
        assert_eq!(
            arena.visit_order(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn run_to_target_early_exit_and_path() {
        let g = path_graph(6);
        let mut arena = TraversalArena::new();
        let hit = arena.run_to_target(FullView::new(&g), NodeId(0), |v| v == NodeId(3));
        assert_eq!(hit, Some(NodeId(3)));
        assert_eq!(
            arena.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // Vertices past the target were never discovered.
        assert_eq!(arena.distance(NodeId(5)), None);
        // Source satisfying the predicate short-circuits.
        assert_eq!(
            arena.run_to_target(FullView::new(&g), NodeId(2), |v| v == NodeId(2)),
            Some(NodeId(2))
        );
        assert_eq!(arena.path_to(NodeId(2)).unwrap(), vec![NodeId(2)]);
        // Unreachable target.
        let g2 = from_edges(3, [(NodeId(0), NodeId(1))]);
        assert_eq!(
            arena.run_to_target(FullView::new(&g2), NodeId(0), |v| v == NodeId(2)),
            None
        );
    }

    #[test]
    fn dominated_traversal_via_view() {
        // 0-1-2-3, B = {1}: from 0 reach {0, 1, 2}.
        let g = path_graph(4);
        let brokers = NodeSet::from_iter_with_capacity(4, [NodeId(1)]);
        let mut arena = TraversalArena::new();
        assert_eq!(arena.run(DominatedView::new(&g, &brokers), NodeId(0)), 3);
        assert_eq!(arena.distance(NodeId(3)), None);
    }

    #[test]
    fn pooled_arena_round_trips() {
        let g = path_graph(5);
        let a = with_arena(|arena| arena.run(FullView::new(&g), NodeId(0)));
        let b = with_arena(|arena| arena.run(FullView::new(&g), NodeId(4)));
        assert_eq!(a, 5);
        assert_eq!(b, 5);
        // Reentrant use falls back to a temporary arena, no panic.
        let nested = with_arena(|outer| {
            outer.run(FullView::new(&g), NodeId(0));
            with_arena(|inner| inner.run(FullView::new(&g), NodeId(1)))
        });
        assert_eq!(nested, 5);
    }

    #[test]
    fn arena_audit_accepts_and_detects_corruption() {
        use crate::Validate;
        let g = path_graph(6);
        let mut arena = TraversalArena::new();
        assert!(arena.audit().is_ok(), "fresh arena must pass");
        arena.run(FullView::new(&g), NodeId(0));
        assert!(arena.audit().is_ok(), "{}", arena.audit());

        // Smuggle a vertex into the order without stamping it.
        let mut bad = arena.clone();
        bad.seen[3] = bad.epoch.wrapping_sub(1);
        let rep = bad.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "arena.order-stamped"
                    || f.invariant == "arena.stamp-count"),
            "{rep}"
        );

        // Break BFS monotonicity by swapping two distances.
        let mut bad = arena.clone();
        bad.dist[0] = 9;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "arena.order-bfs-monotone"));

        // Misalign the buffers.
        let mut bad = arena.clone();
        bad.dist.push(0);
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "arena.buffers-aligned"));
    }
}
