//! Differential property tests of the hop-bounded reachability index:
//! [`ReachIndex::query`] must equal an independent queue-BFS oracle
//! (and the shipping msbfs oracle [`brokerset::exact_query`]) on random
//! graphs, random rosters, random fault states, and after invalidation
//! — [`ReachIndex::apply_state`] across a random epoch sequence must
//! answer exactly like an index rebuilt from scratch.
//!
//! The reference oracle below shares no code with the index: it builds
//! an explicit masked adjacency list and runs a `VecDeque` BFS, so a
//! bookkeeping error in the broker rows or lists, the 64-lane msbfs
//! kernel, or the invalidation pass cannot cancel out.

use brokerset::{exact_query, ReachIndex, StitchAnswer};
use netgraph::{
    undirected_key, FaultSchedule, FaultState, Graph, GraphBuilder, NodeId, NodeSet, Validate,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N: u32 = 14;
const MAX_L: usize = 4;

// -----------------------------------------------------------------
// Strategies
// -----------------------------------------------------------------

fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 0..max_edges)
}

fn arb_brokers() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..N, 1..5)
}

/// One epoch's raw fault events: broker defections, node failures,
/// edge cuts (values reduced modulo the ranges at build time).
type RawEpoch = (Vec<u32>, Vec<u32>, Vec<(u32, u32)>);

fn arb_epochs() -> impl Strategy<Value = Vec<RawEpoch>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..N, 0..3),
            proptest::collection::vec(0..N, 0..3),
            proptest::collection::vec((0..N, 0..N), 0..3),
        ),
        1..4,
    )
}

fn base_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(N as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v));
        }
    }
    b.build()
}

fn broker_set(ids: &[u32], n: usize) -> NodeSet {
    NodeSet::from_iter_with_capacity(n, ids.iter().map(|&b| NodeId(b % n as u32)))
}

/// A cumulative schedule: epoch `e`'s events stay in force from `e` on
/// (recoveries are exercised by the serve bench and unit tests; here the
/// differential target is arbitrary *states*, which accumulation plus
/// random case sampling covers, including the all-clear epoch 0).
fn schedule_of(epochs: &[RawEpoch], n: usize) -> FaultSchedule {
    let mut sched = FaultSchedule::new(n);
    for (i, (defects, downs, cuts)) in epochs.iter().enumerate() {
        let e = i as u32 + 1;
        for &b in defects {
            sched.fail_broker(e, NodeId(b));
        }
        for &v in downs {
            sched.fail_node(e, NodeId(v));
        }
        for &(u, v) in cuts {
            if u != v {
                sched.fail_edge(e, NodeId(u), NodeId(v));
            }
        }
    }
    sched.set_horizon(epochs.len() as u32);
    sched
}

// -----------------------------------------------------------------
// The independent oracle
// -----------------------------------------------------------------

/// Explicit adjacency of the dominated subgraph under a fault state:
/// an edge survives iff neither endpoint is failed, it is not cut, and
/// at least one endpoint is a live broker.
fn masked_adjacency(g: &Graph, alive: &BTreeSet<u32>, state: &FaultState) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.node_count()];
    for (u, v) in g.edges() {
        if state.failed_nodes().contains(u) || state.failed_nodes().contains(v) {
            continue;
        }
        if state.failed_edges().contains(&undirected_key(u, v)) {
            continue;
        }
        if !alive.contains(&u.0) && !alive.contains(&v.0) {
            continue;
        }
        adj[u.index()].push(v.index());
        adj[v.index()].push(u.index());
    }
    adj
}

#[expect(
    clippy::disallowed_types,
    reason = "R6: the oracle BFS shares no code with the index under test"
)]
fn ref_bfs(adj: &[Vec<usize>], src: usize) -> Vec<Option<u32>> {
    let mut dist = vec![None; adj.len()];
    dist[src] = Some(0);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued vertices have distances");
        for &v in &adj[u] {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The full reference answer: plain BFS from both endpoints over the
/// explicit masked adjacency, minimized over live brokers ascending
/// (ties already resolved by iteration order: first strictly-smaller
/// total wins, equal totals keep the smaller broker id).
fn ref_query(
    g: &Graph,
    brokers: &NodeSet,
    state: &FaultState,
    s: u32,
    t: u32,
    l: usize,
) -> Option<StitchAnswer> {
    let n = g.node_count();
    if s as usize >= n || t as usize >= n {
        return None;
    }
    if state.failed_nodes().contains(NodeId(s)) || state.failed_nodes().contains(NodeId(t)) {
        return None;
    }
    if s == t {
        return Some(StitchAnswer {
            broker: NodeId(s),
            hops_s: 0,
            hops_t: 0,
        });
    }
    let alive: BTreeSet<u32> = brokers
        .iter()
        .filter(|&b| !state.failed_brokers().contains(b) && !state.failed_nodes().contains(b))
        .map(|b| b.0)
        .collect();
    let adj = masked_adjacency(g, &alive, state);
    let ds = ref_bfs(&adj, s as usize);
    let dt = ref_bfs(&adj, t as usize);
    let mut best: Option<StitchAnswer> = None;
    for &b in &alive {
        let (Some(hs), Some(ht)) = (ds[b as usize], dt[b as usize]) else {
            continue;
        };
        let total = hs + ht;
        if total as usize <= l && best.as_ref().is_none_or(|a| total < a.hops()) {
            best = Some(StitchAnswer {
                broker: NodeId(b),
                hops_s: hs,
                hops_t: ht,
            });
        }
    }
    best
}

/// Every (s, t) pair including out-of-range ids, at two hop bounds.
fn query_grid() -> impl Iterator<Item = (u32, u32, usize)> {
    (0..N + 2).flat_map(|s| (0..N + 2).flat_map(move |t| [1, MAX_L].map(|l| (s, t, l))))
}

fn assert_index_matches_oracles(
    idx: &ReachIndex,
    g: &Graph,
    brokers: &NodeSet,
    state: &FaultState,
) {
    for (s, t, l) in query_grid() {
        let got = idx.query(NodeId(s), NodeId(t), l);
        let want = ref_query(g, brokers, state, s, t, l);
        assert_eq!(
            got,
            want,
            "index diverged from BFS oracle at ({s}, {t}, {l}), epoch {}",
            state.epoch()
        );
        let msbfs = exact_query(g, brokers, state, NodeId(s), NodeId(t), l);
        assert_eq!(
            want, msbfs,
            "msbfs oracle diverged from BFS oracle at ({s}, {t}, {l})"
        );
    }
}

// -----------------------------------------------------------------
// Properties
// -----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A freshly built index answers exactly like both oracles on the
    /// clear state and under every epoch of a random fault schedule
    /// (built fresh per epoch — the invalidation path has its own test).
    #[test]
    fn fresh_index_matches_oracle_under_faults(
        edges in arb_edges(26),
        roster in arb_brokers(),
        epochs in arb_epochs(),
    ) {
        let g = base_graph(&edges);
        let brokers = broker_set(&roster, g.node_count());
        let sched = schedule_of(&epochs, g.node_count());
        for epoch in 0..=sched.horizon() {
            let state = sched.state_at(epoch);
            let idx = ReachIndex::build_under(&g, &brokers, MAX_L, &state, 2);
            prop_assert!(idx.audit().is_ok(), "index audit failed: {:?}", idx.audit());
            assert_index_matches_oracles(&idx, &g, &brokers, &state);
        }
    }

    /// Epoch flips through `apply_state` answer exactly like a full
    /// rebuild at every step of the schedule, encode to the same BRI1
    /// bytes apart from the header's invalidation count (bytes 17..25)
    /// and the trailer, and each one either keeps every live broker row
    /// (no dirty vertex) or rebuilds every live row.
    #[test]
    fn apply_state_matches_full_rebuild(
        edges in arb_edges(26),
        roster in arb_brokers(),
        epochs in arb_epochs(),
    ) {
        let g = base_graph(&edges);
        let brokers = broker_set(&roster, g.node_count());
        let sched = schedule_of(&epochs, g.node_count());
        let mut idx = ReachIndex::build(&g, &brokers, MAX_L, 1);
        // Forward through every epoch, then back to clear: recovery
        // (rebuilding previously blanked shards) is covered too.
        let mut states: Vec<FaultState> =
            (1..=sched.horizon()).map(|e| sched.state_at(e)).collect();
        states.push(FaultState::all_clear(g.node_count()));
        for state in &states {
            let report = idx.apply_state(&g, state, 2);
            prop_assert!(idx.audit().is_ok());
            prop_assert!(report.rebuilt + report.kept + report.deactivated <= roster.len());
            prop_assert_eq!(report.rebuilt + report.kept, idx.live_brokers());
            prop_assert!(
                report.dirty == 0 || report.kept == 0,
                "epoch {} kept {} shards with {} dirty vertices",
                state.epoch(), report.kept, report.dirty
            );
            assert_index_matches_oracles(&idx, &g, &brokers, state);
            let full = ReachIndex::build_under(&g, &brokers, MAX_L, state, 1).to_bytes();
            let got = idx.to_bytes();
            let body = |b: &[u8]| [&b[..17], &b[25..b.len() - 8]].concat();
            prop_assert_eq!(got.len(), full.len());
            prop_assert!(
                body(&got) == body(&full),
                "epoch {}: BRI1 bytes differ from a full rebuild's", state.epoch()
            );
        }
    }

    /// The BRI1 codec never panics and never silently accepts damage:
    /// any truncation or byte flip of a valid blob must decode to an
    /// error (the FNV trailer is checked before anything else).
    #[test]
    fn codec_rejects_damage_without_panicking(
        edges in arb_edges(20),
        roster in arb_brokers(),
        cut_at in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let g = base_graph(&edges);
        let brokers = broker_set(&roster, g.node_count());
        let idx = ReachIndex::build(&g, &brokers, MAX_L, 1);
        let bytes = idx.to_bytes();
        prop_assert_eq!(&ReachIndex::from_bytes(&bytes).expect("clean decode"), &idx);

        let truncated = &bytes[..cut_at % bytes.len()];
        prop_assert!(ReachIndex::from_bytes(truncated).is_err());

        let mut flipped = bytes.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        prop_assert!(
            ReachIndex::from_bytes(&flipped).is_err(),
            "a flipped bit at byte {} went undetected", at
        );
    }
}
