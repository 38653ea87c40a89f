//! Extension experiment: chaos harness — connectivity under a scripted
//! fault timeline.
//!
//! One deterministic [`netgraph::FaultSchedule`] drives staged broker
//! defections, the correlated outage of the largest IXP (vertex plus
//! every membership edge), and a full regional blackout, followed by
//! staged recovery. Per epoch we measure saturated and hop-bounded
//! connectivity over the degraded dominated edge set, re-audit the run
//! with a [`brokerset::DegradationCertificate`], replay supervised
//! sessions counting failovers and reroutes, and prove the schedule
//! serializes losslessly by re-running it from its own JSON.
//!
//! Usage: `ext_chaos [tiny|quarter|full] [seed] [--threads N]
//! [--obs PATH] [--record DIR]`

use bench::{header, pct, RunConfig};
use brokerset::{chaos_trace_threaded, max_subgraph_greedy, DegradationCertificate, Validate};
use netgraph::{FaultSchedule, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::{plan_recovery, replay_sessions};
use topology::{ixp_outage_group, largest_ixp, region_outage_group, GeoModel, Region};

const MAX_L: usize = 6;
const HORIZON: u32 = 12;
const SESSION_PAIRS: usize = 32;

fn main() {
    let rc = RunConfig::from_args();
    let net = rc.internet();
    let g = net.graph();
    let n = g.node_count();
    header(
        "Extension: chaos",
        "connectivity under a scripted fault timeline",
    );

    let sel = max_subgraph_greedy(g, rc.budgets(n)[2]);
    let geo = GeoModel::assign(&net, 0.9, rc.seed ^ 0x9e0);

    // The scripted timeline: defections, correlated outages, recovery.
    let mut schedule = FaultSchedule::new(n);
    let batch = (sel.len() / 10).max(1);
    let defectors: Vec<NodeId> = sel.order().iter().copied().take(3 * batch).collect();
    for (i, chunk) in defectors.chunks(batch).enumerate() {
        for &b in chunk {
            schedule.fail_broker(i as u32 + 1, b);
        }
    }
    let ixp = largest_ixp(&net);
    if let Some(ixp) = ixp {
        let gi = schedule.add_group(ixp_outage_group(&net, ixp));
        schedule.fail_group(4, gi);
        schedule.recover_group(9, gi);
    }
    let region = Region::Europe;
    let gr = schedule.add_group(region_outage_group(&net, &geo, region));
    schedule.fail_group(6, gr);
    schedule.recover_group(10, gr);
    for &b in &defectors {
        schedule.recover_broker(8, b);
    }
    schedule.set_horizon(HORIZON);
    println!(
        "schedule: {} epochs, {} events, {} groups ({} brokers defect in\n\
         batches of {batch}; largest IXP {}; region {region:?} blacks out)\n",
        schedule.horizon(),
        schedule.events().len(),
        schedule.groups().len(),
        defectors.len(),
        ixp.map_or("absent".to_string(), |v| net.name(v)),
    );

    let trace = chaos_trace_threaded(
        g,
        &sel,
        &schedule,
        Some(MAX_L),
        rc.source_mode(),
        rc.threads,
    );

    println!(
        "{:<7} {:<8} {:<11} {:<13} {:<8} {:<8} {:<8}",
        "epoch",
        "alive",
        "saturated",
        format!("l<={MAX_L}"),
        "masked",
        "cut",
        "skipped"
    );
    for s in &trace.steps {
        println!(
            "{:<7} {:<8} {:<11} {:<13} {:<8} {:<8} {:<8}",
            s.epoch,
            s.alive_brokers,
            pct(s.saturated),
            s.lhop.map_or("-".to_string(), pct),
            s.degradation.masked_nodes,
            s.degradation.masked_edges,
            s.degradation.skipped_sources.len(),
        );
    }
    println!(
        "\nmax degradation {} below baseline; recovered {} from the worst epoch",
        pct(trace.max_degradation()),
        pct(trace.recovered())
    );

    // Every partial result carries its own proof: re-derive the whole
    // trace from the schedule and cross-check.
    let audit = DegradationCertificate::new(g, &sel, &schedule, rc.source_mode(), &trace).audit();
    println!(
        "certificate: {} checks, {}",
        audit.checks,
        if audit.is_ok() { "all pass" } else { "FAILED" }
    );
    assert!(audit.is_ok(), "degradation certificate failed: {audit:?}");

    // The schedule is pure data: JSON round-trip then replay must be
    // bit-identical.
    let json = serde_json::to_string(&schedule).expect("schedule serializes");
    let reloaded: FaultSchedule = serde_json::from_str(&json).expect("schedule deserializes");
    let retrace = chaos_trace_threaded(
        g,
        &sel,
        &reloaded,
        Some(MAX_L),
        rc.source_mode(),
        rc.threads,
    );
    let replay_identical = retrace == trace;
    assert!(replay_identical, "serialized schedule replays differently");
    println!("serialization: replay from JSON round-trip is bit-identical");

    // Supervised sessions under the same timeline: count how often the
    // precomputed backup saves the day versus a full replan.
    let mut rng = ChaCha8Rng::seed_from_u64(rc.seed ^ 0xcafe);
    let mut pairs = Vec::with_capacity(SESSION_PAIRS);
    while pairs.len() < SESSION_PAIRS {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v {
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    let stats = replay_sessions(
        std::slice::from_ref(g),
        std::slice::from_ref(sel.brokers()),
        &schedule,
        &pairs,
    );
    println!(
        "\nsessions: {} replayed; mean availability {}; {} failovers,\n\
         {} reroutes; {} sessions never dropped",
        stats.sessions,
        pct(stats.mean_availability),
        stats.failovers,
        stats.reroutes,
        stats.unbroken
    );

    // Recovery timeline as *planned* transitions: every broker-set
    // change (defection wave, recovery wave) becomes a dependency-DAG
    // plan whose certificate and per-cut invariants must hold, executed
    // layer by layer.
    let transitions =
        plan_recovery(g, sel.brokers(), &schedule, &pairs).expect("recovery plans build");
    let mut plan_steps = 0usize;
    let mut plan_width = 0usize;
    let mut plan_depth = 0usize;
    let mut plan_seq = 0u64;
    let mut plan_makespan = 0u64;
    let mut plan_checksum: u64 = 0xcbf2_9ce4_8422_2325;
    for t in &transitions {
        let cert = t.plan.certificate(g).audit();
        assert!(cert.is_ok(), "plan certificate (epoch {}): {cert}", t.epoch);
        let trace = t.plan.execute(g);
        assert!(
            trace.cut_audit.is_ok(),
            "unsafe cut (epoch {}): {}",
            t.epoch,
            trace.cut_audit
        );
        let s = t.plan.summary(g);
        plan_steps += s.steps;
        plan_width = plan_width.max(s.width);
        plan_depth = plan_depth.max(s.depth);
        plan_seq += s.sequential_units;
        plan_makespan += s.makespan_units;
        plan_checksum ^= trace.checksum.rotate_left(t.epoch % 63);
    }
    let plan_speedup = if plan_makespan == 0 {
        1.0
    } else {
        plan_seq as f64 / plan_makespan as f64
    };
    println!(
        "\nplanned recovery: {} transitions, {plan_steps} steps, width {plan_width},\n\
         depth {plan_depth}; makespan {plan_makespan} vs sequential {plan_seq} units\n\
         ({plan_speedup:.2}x); every cut certified",
        transitions.len(),
    );

    rc.record(
        "ext_chaos",
        serde_json::json!({
            "epochs": trace.steps.len(),
            "saturated": trace.saturated_curve(),
            "lhop": trace.steps.iter().map(|s| s.lhop.unwrap_or(0.0)).collect::<Vec<f64>>(),
            "alive": trace.steps.iter().map(|s| s.alive_brokers as u64).collect::<Vec<u64>>(),
            "masked_nodes": trace.steps.iter().map(|s| s.degradation.masked_nodes as u64).collect::<Vec<u64>>(),
            "max_degradation": trace.max_degradation(),
            "recovered": trace.recovered(),
            "certificate_checks": audit.checks as u64,
            "certificate_ok": audit.is_ok(),
            "replay_identical": replay_identical,
            "sessions": stats.sessions as u64,
            "mean_availability": stats.mean_availability,
            "failovers": stats.failovers,
            "reroutes": stats.reroutes,
            "unbroken": stats.unbroken as u64,
            "plan_transitions": transitions.len() as u64,
            "plan_steps": plan_steps as u64,
            "plan_width": plan_width as u64,
            "plan_depth": plan_depth as u64,
            "plan_makespan_units": plan_makespan,
            "plan_sequential_units": plan_seq,
            "plan_speedup": plan_speedup,
            "plan_checksum": format!("{plan_checksum:016x}"),
        }),
    )
    .expect("--record write failed");
    rc.dump_obs("ext_chaos").expect("--obs write failed");
}
