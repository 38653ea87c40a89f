//! Determinism gate for the broker-set evaluators: parallel entry points
//! must be bit-identical to their sequential counterparts at every
//! thread count, so results files never depend on the machine they were
//! produced on.

use brokerset::{
    chaos_trace, chaos_trace_threaded, lhop_curve, lhop_curve_parallel, max_subgraph_greedy,
    FailureOrder, ReachIndex, SourceMode,
};
use netgraph::par::{assert_thread_invariant, SWEEP};
use netgraph::{FaultGroup, FaultSchedule, NodeId};
use topology::{InternetConfig, Scale};

#[test]
fn lhop_curve_exact_bit_identical() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    let seq = lhop_curve(g, sel.brokers(), 6, SourceMode::Exact);
    let par = assert_thread_invariant(SWEEP, |t| {
        lhop_curve_parallel(g, sel.brokers(), 6, SourceMode::Exact, t)
    });
    assert_eq!(
        seq, par,
        "exact l-hop curve diverged from the sequential one"
    );
}

#[test]
fn lhop_curve_sampled_bit_identical() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    let mode = SourceMode::Sampled {
        count: 300,
        seed: 9,
    };
    let seq = lhop_curve(g, sel.brokers(), 6, mode);
    assert!(seq.std_error.is_some_and(|se| se > 0.0));
    // PartialEq on the curve covers fractions AND the Option<f64>
    // standard error bit for bit.
    let par = assert_thread_invariant(SWEEP, |t| lhop_curve_parallel(g, sel.brokers(), 6, mode, t));
    assert_eq!(
        seq, par,
        "sampled l-hop curve diverged from the sequential one"
    );
}

#[test]
fn failure_trace_bit_identical() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    for order in [
        FailureOrder::TargetedBySelectionRank,
        FailureOrder::Random { seed: 5 },
    ] {
        let schedule = order.schedule(&sel, 8);
        let seq = chaos_trace(g, &sel, &schedule, None, SourceMode::Exact);
        let par = assert_thread_invariant(SWEEP, |t| {
            chaos_trace_threaded(g, &sel, &schedule, None, SourceMode::Exact, t)
        });
        assert_eq!(seq, par, "failure trace diverged from the sequential one");
    }
}

/// An ext_chaos-style timeline at test size: broker defections, a
/// correlated node+edge group outage, edge cuts, then staged recovery.
fn chaos_schedule(sel_order: &[NodeId], n: usize) -> FaultSchedule {
    let mut s = FaultSchedule::new(n);
    for (i, &b) in sel_order.iter().take(6).enumerate() {
        s.fail_broker(i as u32 / 2 + 1, b);
    }
    let outsider = NodeId((n as u32) - 1);
    let gi = s.add_group(FaultGroup::new(
        "blast-zone",
        vec![outsider],
        [(outsider, NodeId(0)), (NodeId(1), NodeId(2))],
    ));
    s.fail_group(3, gi);
    s.fail_edge(4, NodeId(0), NodeId(3));
    s.recover_group(5, gi);
    for &b in sel_order.iter().take(6) {
        s.recover_broker(6, b);
    }
    s.set_horizon(8);
    s
}

#[test]
fn chaos_trace_bit_identical_across_threads() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    let schedule = chaos_schedule(sel.order(), g.node_count());
    let seq = chaos_trace(g, &sel, &schedule, Some(6), SourceMode::Exact);
    assert_eq!(seq.steps.len(), 8);
    // ChaosTrace PartialEq covers every epoch's saturated fraction,
    // lhop fraction and degradation record bit for bit.
    let par = assert_thread_invariant(SWEEP, |t| {
        chaos_trace_threaded(g, &sel, &schedule, Some(6), SourceMode::Exact, t)
    });
    assert_eq!(seq, par, "chaos trace diverged from the sequential one");
}

#[test]
fn chaos_trace_survives_schedule_save_load() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    let schedule = chaos_schedule(sel.order(), g.node_count());
    let json = serde_json::to_string(&schedule).expect("schedule serializes");
    let reloaded: FaultSchedule = serde_json::from_str(&json).expect("schedule deserializes");
    assert_eq!(reloaded, schedule);
    let before = chaos_trace_threaded(g, &sel, &schedule, Some(6), SourceMode::Exact, 4);
    let after = chaos_trace_threaded(g, &sel, &reloaded, Some(6), SourceMode::Exact, 4);
    assert_eq!(before, after, "reloaded schedule replays differently");
}

#[test]
fn reach_index_build_bit_identical_across_threads() {
    // The reachability index fans whole 64-broker shard batches out
    // across threads; its serialized bytes are the strongest equality
    // currency (they cover every distance label, the roster, and the
    // persisted fault sets), so pin them across thread counts.
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    assert_thread_invariant(SWEEP, |t| {
        ReachIndex::build(g, sel.brokers(), 6, t).to_bytes()
    });
}

#[test]
fn reach_index_serialization_round_trips_byte_identically() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 40);
    let idx = ReachIndex::build(g, sel.brokers(), 6, 4);
    let bytes = idx.to_bytes();
    let back = ReachIndex::from_bytes(&bytes).expect("index decodes");
    assert_eq!(back, idx, "decoded index differs structurally");
    assert_eq!(back.to_bytes(), bytes, "re-encoding is not byte-identical");
    // And the reloaded index answers identically, hits and misses both.
    let n = g.node_count() as u32;
    for (s, t) in [(0, n - 1), (3, 500 % n), (7, 7), (n - 1, 1), (11, 999 % n)] {
        for l in [1usize, 3, 6] {
            assert_eq!(
                idx.query(NodeId(s), NodeId(t), l),
                back.query(NodeId(s), NodeId(t), l),
                "reloaded index answers ({s}, {t}, {l}) differently"
            );
        }
    }
    // The file round trip is the same bytes.
    let dir = std::env::temp_dir().join(format!("brokerset-idx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.bri");
    idx.save(&path).expect("index saves");
    let loaded = ReachIndex::load(&path).expect("index loads");
    assert_eq!(loaded.to_bytes(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reach_index_invalidation_bit_identical_across_threads() {
    // Replaying the same fault schedule through apply_state must leave
    // byte-identical indexes at every thread count — the rebuild fan-out
    // is deterministic.
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 60);
    let schedule = chaos_schedule(sel.order(), g.node_count());
    let replay = |threads: usize| {
        let mut idx = ReachIndex::build(g, sel.brokers(), 6, threads);
        for epoch in 1..=schedule.horizon() {
            idx.apply_state(g, &schedule.state_at(epoch), threads);
        }
        idx.to_bytes()
    };
    assert_thread_invariant(SWEEP, replay);
}

#[test]
fn reconfig_plan_construction_is_deterministic() {
    // Building the same plan twice gives the same construction checksum
    // (steps + dependency rows + layers), and its execution passes the
    // cut audit.
    use routing::ReconfigPlan;

    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let cur = max_subgraph_greedy(g, 50);
    let tgt = max_subgraph_greedy(g, 62);
    let n = g.node_count() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..24u32)
        .map(|i| (NodeId(i * 37 % n), NodeId((i * 91 + 13) % n)))
        .filter(|(u, v)| u != v)
        .collect();
    let plan = ReconfigPlan::build(g, cur.brokers(), tgt.brokers(), &pairs).expect("plan");
    let rebuilt = ReconfigPlan::build(g, cur.brokers(), tgt.brokers(), &pairs).expect("plan");
    assert_eq!(
        plan.construction_checksum(),
        rebuilt.construction_checksum(),
        "plan construction is not deterministic"
    );
    let trace = plan.execute(g);
    assert!(trace.cut_audit.is_ok(), "cuts: {}", trace.cut_audit);
}

#[test]
fn auto_threads_matches_explicit() {
    let net = InternetConfig::scaled(Scale::Tiny).generate(42);
    let g = net.graph();
    let sel = max_subgraph_greedy(g, 40);
    let mode = SourceMode::Sampled {
        count: 150,
        seed: 3,
    };
    let auto = lhop_curve_parallel(g, sel.brokers(), 5, mode, 0);
    let one = lhop_curve_parallel(g, sel.brokers(), 5, mode, 1);
    assert_eq!(auto, one);
}
