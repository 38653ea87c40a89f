//! Extension experiment: epochal topology churn — incremental broker-set
//! maintenance vs full recomputation.
//!
//! A seeded multi-year growth model ([`topology::evolve`]) emits one
//! [`topology::TopoDelta`] per epoch (IXP births, membership growth,
//! remote peering, AS births/deaths, relationship flips); the lowered
//! [`netgraph::GraphDelta`]s drive a [`brokerset::BrokerMaintainer`]
//! that patches the greedy MCB selection in place (CELF re-seeding of
//! only the *touched* coverage gains). Against it, the batch posture:
//! [`brokerset::greedy_mcb`] recomputed from scratch on every epoch
//! graph. Both sides run on prebuilt CSR graphs, so the comparison times
//! selection maintenance only — neither pays the rebuild.
//!
//! Per epoch the bin reports the swap ledger (brokers out/in), the
//! lazily re-evaluated gain count, and the *coverage gap* vs the exact
//! recompute, asserting the gap stays under a pinned bound; at quarter
//! scale and above it further asserts the incremental path is at least
//! [`SPEEDUP_FLOOR`]× faster over the whole timeline. The maintained
//! state is certified through `Validate` ([`brokerset::BrokerMaintainer::certify`]
//! with the same gap bound) on the final graph.
//!
//! The per-epoch coverage re-derivation fans out through
//! `netgraph::par::map_auto` (adaptive chunking) at thread counts 1, 2,
//! 4 and 7; `maintenance_checksum` is an FNV-1a over the exact broker
//! ids, coverage values and swap counts of every epoch and must be
//! identical at every thread count.
//!
//! Finally the same timeline composes with a [`netgraph::FaultSchedule`]
//! (broker defections mid-growth) and supervised sessions replay over
//! the *evolving* graphs ([`routing::replay_sessions`]):
//! churn and faults in one timeline.
//!
//! Writes `BENCH_evolve.json` at the repo root (wall-clock totals plus
//! the derived speedup) for quarter/full runs; tiny runs — the smoke and
//! golden tests — skip the file and keep only the `--record` snapshot,
//! which contains no timings and is therefore bit-stable.
//!
//! Usage: `ext_evolve [tiny|quarter|full] [seed] [--obs PATH]
//! [--record DIR]`

use bench::{header, pct, RunConfig};
use brokerset::{greedy_mcb, BrokerMaintainer, MaintainConfig, Validate};
use netgraph::{fnv1a_words, par, FaultSchedule, Graph, NodeId, NodeSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::replay_sessions;
use std::collections::BTreeSet;
use std::time::Instant;
use topology::{evolve, GrowthConfig, Scale};

/// Epochs of growth (the paper's dataset spans years; one epoch ≈ one
/// quarter of real time at the calibrated rates).
const EPOCHS: u32 = 24;
/// Pinned relative coverage-gap bound vs full recompute, per epoch.
const GAP_BOUND: f64 = 0.02;
/// Minimum end-to-end speedup of incremental maintenance over full
/// recomputation, asserted at quarter scale and above.
const SPEEDUP_FLOOR: f64 = 10.0;
const SESSION_PAIRS: usize = 24;

/// Coverage `|B ∪ N(B)|` re-derived from scratch (shares no state with
/// the maintainer it audits).
fn coverage_of(g: &Graph, brokers: &[NodeId]) -> usize {
    let mut covered: BTreeSet<NodeId> = BTreeSet::new();
    for &b in brokers {
        covered.insert(b);
        covered.extend(g.neighbors(b).iter().copied());
    }
    covered.len()
}

fn main() {
    let rc = RunConfig::from_args();
    let net = rc.internet();
    let n0 = net.graph().node_count();
    header(
        "Extension: evolve",
        "incremental broker maintenance under topology churn",
    );

    let cfg = GrowthConfig::calibrated(EPOCHS, n0);
    let stream = evolve(&net, &cfg, rc.seed ^ 0xe70);
    assert!(stream.audit().is_ok(), "growth stream failed its audit");
    let deltas = stream.lower();

    // Prebuild every epoch's CSR graph: the rebuild cost is excluded
    // from BOTH timed paths below.
    let mut graphs: Vec<Graph> = Vec::with_capacity(deltas.len() + 1);
    graphs.push(net.graph().clone());
    for d in &deltas {
        let next = graphs.last().expect("graphs is non-empty").apply_delta(d);
        graphs.push(next);
    }
    let n_final = graphs.last().expect("graphs is non-empty").node_count();
    let k = rc.budgets(n0)[2];
    println!(
        "stream: {} epochs, {} ops, {} births; {n0} -> {n_final} vertices; k = {k}\n",
        deltas.len(),
        stream.op_count(),
        stream.births(),
    );

    // Epoch 0: the initial selection (identical to greedy_mcb).
    let t0 = Instant::now();
    let mut m = BrokerMaintainer::new(&graphs[0], k, MaintainConfig::default());
    let init_s = t0.elapsed().as_secs_f64();

    // Incremental maintenance across the timeline (timed).
    let mut broker_history: Vec<Vec<NodeId>> = Vec::with_capacity(graphs.len());
    broker_history.push(m.brokers().to_vec());
    let t0 = Instant::now();
    for (e, d) in deltas.iter().enumerate() {
        m.apply(&graphs[e], &graphs[e + 1], d);
        broker_history.push(m.brokers().to_vec());
    }
    let inc_s = t0.elapsed().as_secs_f64();

    // The batch posture: full greedy recompute on every epoch graph
    // (timed against the same prebuilt CSRs).
    let t0 = Instant::now();
    let full_sels: Vec<brokerset::BrokerSelection> = deltas
        .iter()
        .enumerate()
        .map(|(e, _)| greedy_mcb(&graphs[e + 1], k))
        .collect();
    let full_s = t0.elapsed().as_secs_f64();
    let speedup = full_s / inc_s.max(1e-12);

    // Per-epoch ledger: swaps, lazy re-evaluations, coverage gap.
    println!(
        "{:<7} {:<5} {:<5} {:<5} {:<10} {:<10} {:<9} {:<8} {:<6}",
        "epoch", "ops", "out", "in", "cov_inc", "cov_full", "gap", "reevals", "exact"
    );
    let mut gaps: Vec<f64> = Vec::with_capacity(deltas.len());
    for i in 0..deltas.len() {
        let r = m.ledger().reports()[i].clone();
        let full_cov = coverage_of(&graphs[i + 1], full_sels[i].order());
        assert_eq!(
            r.coverage,
            coverage_of(&graphs[i + 1], &broker_history[i + 1]),
            "epoch {}: maintained coverage does not re-derive",
            r.epoch
        );
        let gap = (full_cov as f64 - r.coverage as f64) / full_cov as f64;
        assert!(
            gap <= GAP_BOUND,
            "epoch {}: coverage gap {gap:.5} above pinned bound {GAP_BOUND}",
            r.epoch
        );
        m.ledger_mut().set_gap(i, gap);
        gaps.push(gap);
        println!(
            "{:<7} {:<5} {:<5} {:<5} {:<10} {:<10} {:<9.5} {:<8} {:<6}",
            r.epoch,
            deltas[i].op_count(),
            r.swapped_out.len(),
            r.swapped_in.len(),
            r.coverage,
            full_cov,
            gap,
            r.gains_reevaluated,
            if r.recomputed { "yes" } else { "" },
        );
    }
    let ledger = m.ledger().clone();
    println!(
        "\nledger: {} swaps total, max {} per epoch; worst gap {:.5}",
        ledger.total_swaps(),
        ledger.max_swaps_per_epoch(),
        gaps.iter().copied().fold(0.0f64, f64::max),
    );

    // Certify the final state through Validate, gap bound included (the
    // audit itself reruns the exact greedy and re-derives every count).
    let final_g = graphs.last().expect("graphs is non-empty");
    let audit = m.certify(final_g).with_gap_bound(GAP_BOUND).audit();
    println!(
        "certificate: {} checks, {}",
        audit.checks,
        if audit.is_ok() { "all pass" } else { "FAILED" }
    );
    assert!(audit.is_ok(), "maintenance certificate failed: {audit:?}");

    // Thread-count bit-identity: re-derive every epoch's coverage in
    // parallel (adaptive chunking) at 1/2/4/7 workers and fingerprint
    // the full maintenance history; all four checksums must agree.
    let epoch_ids: Vec<usize> = (0..graphs.len()).collect();
    let mut checksums = Vec::new();
    for &t in &[1usize, 2, 4, 7] {
        let covs: Vec<u64> = par::map_auto(&epoch_ids, t, |&e| {
            coverage_of(&graphs[e], &broker_history[e]) as u64
        });
        let checksum = fnv1a_words(
            covs.iter()
                .copied()
                .chain(
                    broker_history
                        .iter()
                        .flat_map(|bs| bs.iter().map(|v| u64::from(v.0))),
                )
                .chain(ledger.reports().iter().map(|r| r.swaps() as u64)),
        );
        checksums.push(checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "maintenance checksum is thread-count dependent: {checksums:x?}"
    );
    let maintenance_checksum = checksums[0];
    println!("maintenance_checksum: {maintenance_checksum:016x} (threads 1/2/4/7)");

    // Compose churn with faults in one timeline: two maintained brokers
    // defect mid-growth and recover near the end while supervised
    // sessions replay over the evolving graphs.
    let mut schedule = FaultSchedule::new(n_final);
    let victims: Vec<NodeId> = broker_history[0].iter().copied().take(2).collect();
    let recover_at = (deltas.len() as u32).saturating_sub(2).max(3);
    for &b in &victims {
        schedule.fail_broker(2, b);
        schedule.recover_broker(recover_at, b);
    }
    schedule.set_horizon(deltas.len() as u32 + 1);
    let broker_sets: Vec<NodeSet> = broker_history
        .iter()
        .map(|bs| NodeSet::from_iter_with_capacity(n_final, bs.iter().copied()))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(rc.seed ^ 0xeca);
    let mut pairs = Vec::with_capacity(SESSION_PAIRS);
    while pairs.len() < SESSION_PAIRS {
        let (u, v) = (rng.gen_range(0..n0 as u32), rng.gen_range(0..n0 as u32));
        if u != v {
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    let stats = replay_sessions(&graphs, &broker_sets, &schedule, &pairs);
    println!(
        "\nsessions over evolving topology: {} replayed; mean availability {};\n\
         {} failovers, {} reroutes; {} sessions never dropped",
        stats.sessions,
        pct(stats.mean_availability),
        stats.failovers,
        stats.reroutes,
        stats.unbroken
    );

    // Epoch application as *planned* transitions: each swap ledger entry
    // is replayed into a (before, after) broker-set pair on that epoch's
    // graph and becomes a dependency-DAG plan — certificate-checked and
    // executed in antichains — instead of an atomic set flip.
    let mut plan_transitions = 0usize;
    let mut plan_steps = 0usize;
    let mut plan_width = 0usize;
    let mut plan_depth = 0usize;
    let mut plan_seq = 0u64;
    let mut plan_makespan = 0u64;
    let mut plan_checksum: u64 = 0xcbf29ce484222325;
    for (i, r) in ledger.reports().iter().enumerate() {
        let (cur, after) = r.transition(&broker_sets[i]);
        if cur == after {
            continue;
        }
        let eg = &graphs[i + 1];
        let plan = routing::ReconfigPlan::build(eg, &cur, &after, &pairs)
            .expect("epoch transition plans build");
        let cert = plan.certificate(eg).audit();
        assert!(cert.is_ok(), "plan certificate (epoch {}): {cert}", r.epoch);
        let ptrace = plan.execute(eg);
        assert!(
            ptrace.cut_audit.is_ok(),
            "unsafe cut (epoch {}): {}",
            r.epoch,
            ptrace.cut_audit
        );
        let s = plan.summary(eg);
        plan_transitions += 1;
        plan_steps += s.steps;
        plan_width = plan_width.max(s.width);
        plan_depth = plan_depth.max(s.depth);
        plan_seq += s.sequential_units;
        plan_makespan += s.makespan_units;
        plan_checksum ^= ptrace.checksum.rotate_left(r.epoch % 63);
    }
    let plan_speedup = if plan_makespan == 0 {
        1.0
    } else {
        plan_seq as f64 / plan_makespan as f64
    };
    println!(
        "planned epochs: {plan_transitions} transitions, {plan_steps} steps, width {plan_width}, \
         depth {plan_depth};\nmakespan {plan_makespan} vs sequential {plan_seq} units \
         ({plan_speedup:.2}x); every cut certified"
    );

    println!(
        "\ntiming: init {init_s:.4}s; incremental {inc_s:.4}s vs full recompute {full_s:.4}s \
         over {} epochs — speedup {speedup:.1}x",
        deltas.len()
    );
    if !matches!(rc.scale, Scale::Tiny) {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "incremental maintenance only {speedup:.1}x faster than recompute \
             (floor {SPEEDUP_FLOOR}x)"
        );
    }

    // The --record snapshot holds only deterministic values (no wall
    // clocks): per-epoch coverage/gap/swap columns plus the checksum.
    let reports = ledger.reports();
    rc.record(
        "ext_evolve",
        serde_json::json!({
            "epochs": deltas.len(),
            "ops": stream.op_count() as u64,
            "births": stream.births() as u64,
            "nodes_initial": n0,
            "nodes_final": n_final,
            "k": k,
            "coverage_incremental": reports.iter().map(|r| r.coverage as u64).collect::<Vec<u64>>(),
            "coverage_gap": gaps.clone(),
            "swaps_out": reports.iter().map(|r| r.swapped_out.len() as u64).collect::<Vec<u64>>(),
            "swaps_in": reports.iter().map(|r| r.swapped_in.len() as u64).collect::<Vec<u64>>(),
            "gains_reevaluated": reports.iter().map(|r| r.gains_reevaluated as u64).collect::<Vec<u64>>(),
            "recomputed_epochs": reports.iter().filter(|r| r.recomputed).count() as u64,
            "total_swaps": ledger.total_swaps() as u64,
            "certificate_checks": audit.checks as u64,
            "certificate_ok": audit.is_ok(),
            "maintenance_checksum": format!("{maintenance_checksum:016x}"),
            "sessions": stats.sessions as u64,
            "mean_availability": stats.mean_availability,
            "failovers": stats.failovers,
            "reroutes": stats.reroutes,
            "unbroken": stats.unbroken as u64,
            "plan_transitions": plan_transitions as u64,
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

    // BENCH_evolve.json carries the wall clocks; quarter/full only so
    // tiny test runs do not litter their cwd.
    if !matches!(rc.scale, Scale::Tiny) {
        let data = serde_json::json!({
            "nodes_initial": n0,
            "nodes_final": n_final,
            "epochs": deltas.len(),
            "k": k,
            "init_select_s": init_s,
            "incremental_total_s": inc_s,
            "full_recompute_total_s": full_s,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "coverage_gap": gaps,
            "gap_bound": GAP_BOUND,
            "swaps_per_epoch": reports.iter().map(|r| r.swaps() as u64).collect::<Vec<u64>>(),
            "maintenance_checksum": format!("{maintenance_checksum:016x}"),
        });
        let record = bench::ExperimentRecord::new("ext_evolve", &rc, data);
        let json = serde_json::to_string_pretty(&record).expect("serialize bench record");
        let path = std::path::Path::new("BENCH_evolve.json");
        std::fs::write(path, json).expect("write BENCH_evolve.json");
        println!("wrote {}", path.display());
    }
    rc.dump_obs("ext_evolve").expect("--obs write failed");
}
