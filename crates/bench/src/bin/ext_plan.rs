//! Extension experiment: dependency-DAG reconfiguration planning — the
//! chaos-recovery timeline replayed as certificate-checked plans.
//!
//! The scripted broker defection/recovery schedule of `ext_chaos` is
//! handed to [`routing::plan_recovery`]: every broker-set change becomes
//! a [`routing::ReconfigPlan`] whose atomic steps (activate, deactivate,
//! migrate session) are ordered by a dependency DAG. Edge A -> B means
//! B's intermediate state is only invariant-safe after A; the planner
//! derives edges by checking candidate intermediate states against the
//! same `Validate` certificates the steady-state pipeline uses.
//!
//! Per transition the bin audits the [`routing::PlanCertificate`]
//! (acyclicity, step set == config diff, every topological cut state
//! invariant-safe), then executes the plan once, antichain by
//! antichain, and folds the execution trace checksums into
//! `plan_checksum`. The modeled makespan (critical-path cost units) is
//! compared with sequential execution and the aggregate modeled speedup
//! must clear [`SPEEDUP_FLOOR`] at quarter scale and above.
//!
//! Writes `BENCH_plan.json` at the repo root (DAG shape, makespan
//! model, wall-clock execution time) for quarter/full runs; tiny runs
//! keep only the `--record` snapshot, which contains no timings and is
//! therefore bit-stable — it backs the golden test.
//!
//! Usage: `ext_plan [tiny|quarter|full] [seed] [--obs PATH]
//! [--record DIR]`

use bench::{header, RunConfig};
use brokerset::max_subgraph_greedy;
use netgraph::{FaultSchedule, NodeId, Validate};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::plan_recovery;
use std::time::Instant;
use topology::Scale;

/// Fault-timeline length: defection waves, then staged recovery.
const HORIZON: u32 = 8;
/// Minimum planned-vs-sequential makespan speedup (modeled cost units),
/// asserted at quarter scale and above.
const SPEEDUP_FLOOR: f64 = 2.0;

fn main() {
    let rc = RunConfig::from_args();
    let net = rc.internet();
    let g = net.graph();
    let n = g.node_count();
    header(
        "Extension: plan",
        "dependency-DAG reconfiguration with certified cuts",
    );

    let sel = max_subgraph_greedy(g, rc.budgets(n)[2]);

    // The recovery scenario: 40% of the brokers defect in four staged
    // waves, then return in two; every set change is a transition the
    // planner must sequence safely.
    let mut schedule = FaultSchedule::new(n);
    let batch = (sel.len() / 10).max(1);
    let defectors: Vec<NodeId> = sel.order().iter().copied().take(4 * batch).collect();
    for (i, chunk) in defectors.chunks(batch).enumerate() {
        for &b in chunk {
            schedule.fail_broker(i as u32 + 1, b);
        }
    }
    for (i, chunk) in defectors.chunks(2 * batch).enumerate() {
        for &b in chunk {
            schedule.recover_broker(i as u32 + 6, b);
        }
    }
    schedule.set_horizon(HORIZON);

    let session_pairs = if matches!(rc.scale, Scale::Tiny) {
        24
    } else {
        96
    };
    let mut rng = ChaCha8Rng::seed_from_u64(rc.seed ^ 0x91a);
    let mut pairs = Vec::with_capacity(session_pairs);
    while pairs.len() < session_pairs {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v {
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    println!(
        "scenario: {} brokers, {} defect in waves of {batch}; {} supervised sessions;\n\
         horizon {HORIZON} epochs\n",
        sel.len(),
        defectors.len(),
        pairs.len(),
    );

    let t0 = Instant::now();
    let transitions = plan_recovery(g, sel.brokers(), &schedule, &pairs).expect("plans build");
    let build_s = t0.elapsed().as_secs_f64();

    println!(
        "{:<7} {:<7} {:<7} {:<7} {:<7} {:<10} {:<10} {:<8}",
        "epoch", "steps", "edges", "width", "depth", "makespan", "seq", "speedup"
    );
    let mut rows = Vec::with_capacity(transitions.len());
    let mut cert_checks = 0usize;
    let mut cuts_validated = 0usize;
    let mut agg_steps = 0usize;
    let mut agg_width = 0usize;
    let mut agg_depth = 0usize;
    let mut agg_seq = 0u64;
    let mut agg_makespan = 0u64;
    let mut plan_checksum: u64 = 0xcbf2_9ce4_8422_2325;
    let mut exec_s = 0.0f64;
    for t in &transitions {
        let cert = t.plan.certificate(g).audit();
        assert!(cert.is_ok(), "plan certificate (epoch {}): {cert}", t.epoch);
        cert_checks += cert.checks;
        let t0 = Instant::now();
        let trace = t.plan.execute(g);
        exec_s += t0.elapsed().as_secs_f64();
        assert!(
            trace.cut_audit.is_ok(),
            "unsafe cut (epoch {}): {}",
            t.epoch,
            trace.cut_audit
        );
        plan_checksum ^= trace.checksum.rotate_left(t.epoch % 63);
        cuts_validated += trace.cuts_validated;
        let s = t.plan.summary(g);
        println!(
            "{:<7} {:<7} {:<7} {:<7} {:<7} {:<10} {:<10} {:<8.2}",
            t.epoch,
            s.steps,
            s.edges,
            s.width,
            s.depth,
            s.makespan_units,
            s.sequential_units,
            s.speedup,
        );
        agg_steps += s.steps;
        agg_width = agg_width.max(s.width);
        agg_depth = agg_depth.max(s.depth);
        agg_seq += s.sequential_units;
        agg_makespan += s.makespan_units;
        rows.push(s);
    }
    let speedup = if agg_makespan == 0 {
        1.0
    } else {
        agg_seq as f64 / agg_makespan as f64
    };
    println!(
        "\nplanned: {} transitions, {agg_steps} steps; width {agg_width}, depth {agg_depth};\n\
         makespan {agg_makespan} vs sequential {agg_seq} units — speedup {speedup:.2}x;\n\
         {cert_checks} certificate checks, {cuts_validated} cut states validated;\n\
         plan_checksum {plan_checksum:016x}",
        transitions.len(),
    );
    if !matches!(rc.scale, Scale::Tiny) {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "planned makespan speedup {speedup:.2}x below floor {SPEEDUP_FLOOR}x"
        );
    }

    rc.record(
        "ext_plan",
        serde_json::json!({
            "transitions": transitions.len() as u64,
            "epochs": transitions.iter().map(|t| u64::from(t.epoch)).collect::<Vec<u64>>(),
            "steps": rows.iter().map(|s| s.steps as u64).collect::<Vec<u64>>(),
            "activations": rows.iter().map(|s| s.activations as u64).collect::<Vec<u64>>(),
            "deactivations": rows.iter().map(|s| s.deactivations as u64).collect::<Vec<u64>>(),
            "migrations": rows.iter().map(|s| s.migrations as u64).collect::<Vec<u64>>(),
            "edges": rows.iter().map(|s| s.edges as u64).collect::<Vec<u64>>(),
            "width": rows.iter().map(|s| s.width as u64).collect::<Vec<u64>>(),
            "depth": rows.iter().map(|s| s.depth as u64).collect::<Vec<u64>>(),
            "makespan_units": rows.iter().map(|s| s.makespan_units).collect::<Vec<u64>>(),
            "sequential_units": rows.iter().map(|s| s.sequential_units).collect::<Vec<u64>>(),
            "speedup": speedup,
            "certificate_checks": cert_checks as u64,
            "cuts_validated": cuts_validated as u64,
            "plan_checksum": format!("{plan_checksum:016x}"),
        }),
    )
    .expect("--record write failed");

    if !matches!(rc.scale, Scale::Tiny) {
        let data = serde_json::json!({
            "nodes": n,
            "brokers": sel.len(),
            "transitions": transitions.len(),
            "steps": agg_steps,
            "width": agg_width,
            "depth": agg_depth,
            "makespan_units": agg_makespan,
            "sequential_units": agg_seq,
            "modelled_speedup": speedup,
            "modelled_speedup_floor": SPEEDUP_FLOOR,
            "plan_build_s": build_s,
            "exec_s": exec_s,
            "plan_checksum": format!("{plan_checksum:016x}"),
        });
        let record = bench::ExperimentRecord::new("ext_plan", &rc, data);
        let json = serde_json::to_string_pretty(&record).expect("serialize bench record");
        let path = std::path::Path::new("BENCH_plan.json");
        std::fs::write(path, json).expect("write BENCH_plan.json");
        println!("wrote {}", path.display());
    }
    rc.dump_obs("ext_plan").expect("--obs write failed");
}
