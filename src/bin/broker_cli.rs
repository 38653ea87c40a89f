//! `broker-cli` — command-line front end for the broker-net library.
//!
//! ```text
//! broker-cli generate  <scale> <seed> <out.json>     write a topology snapshot
//! broker-cli stats     <snapshot.json>               Table-2 style statistics
//! broker-cli select    <snapshot.json> <alg> <k>     select brokers (prints ranks)
//! broker-cli eval      <snapshot.json> <alg> <k>     saturated + l-hop connectivity
//! broker-cli export    <snapshot.json> <out.dot> [k] DOT dump, brokers highlighted
//! broker-cli audit     <snapshot.json> [alg] [k]      invariant audit (exit 1 on findings)
//! broker-cli chaos     <snapshot.json> <alg> <k>      scripted fault timeline + certificate
//! broker-cli evolve    <snapshot.json> <epochs> <k> [seed]  grow the topology, maintain brokers
//! broker-cli index build <snapshot.json> <alg> <k> <out.bri>  precompute the reachability index
//! broker-cli index query <index.bri> <s> <t> <l>     answer one stitch query from the index
//! broker-cli plan      <snapshot.json> <alg> <k_from> <k_to>  dependency-DAG reconfiguration plan
//! ```
//!
//! Algorithms: `maxsg`, `greedy`, `approx`, `db`, `prb`, `ixpb`, `tier1`.
//!
//! A global `--obs PATH` (any position) dumps a `netgraph::obs` metrics
//! snapshot after a successful command and prints a one-line engine
//! digest to stderr.
//!
//! `evolve` additionally honors a global `--record PATH`: the growth
//! delta stream plus the per-epoch maintenance ledger are written as
//! JSON (the stream round-trips bit-identically, so a recorded run can
//! be replayed elsewhere).

use brokerset::{
    approx_mcbg, chaos_trace, degree_based, greedy_mcb, ixp_based, lhop_curve, max_subgraph_greedy,
    pagerank_based, ranked_brokers, saturated_connectivity, tier1_only, ApproxConfig,
    BrokerMaintainer, BrokerSelection, CoverageCertificate, DegradationCertificate, MaintainConfig,
    ReachIndex, SourceMode, Validate,
};
use rand::{Rng, SeedableRng};
use topology::{
    evolve, load_snapshot, save_snapshot, GrowthConfig, Internet, InternetConfig, Scale,
};

/// Print to stdout, ignoring broken pipes (`broker_cli ... | head` must
/// exit quietly, not panic).
macro_rules! say {
    ($($t:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_path = extract_path_flag(&mut args, "--obs");
    let record_path = extract_path_flag(&mut args, "--record");
    let code = match run(&args, record_path.as_deref()) {
        Ok(()) => {
            if let Some(path) = &obs_path {
                dump_obs(path);
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Strip a global `--obs PATH` / `--record PATH` style flag from the
/// argument list, if present. A flag without its path is a usage error.
fn extract_path_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} expects a file path");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

/// Write the metrics snapshot and print its one-line digest to stderr.
fn dump_obs(path: &str) {
    let snap = netgraph::obs::snapshot();
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        eprintln!("error: writing obs snapshot to {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("[obs] {} | snapshot -> {path}", snap.digest());
}

const USAGE: &str = "\
usage:
  broker-cli generate <tiny|quarter|full> <seed> <out.json>
  broker-cli stats    <snapshot.json>
  broker-cli select   <snapshot.json> <alg> <k>
  broker-cli eval     <snapshot.json> <alg> <k>
  broker-cli export   <snapshot.json> <out.dot> [k]
  broker-cli audit    <snapshot.json> [alg] [k]
  broker-cli chaos    <snapshot.json> <alg> <k>
  broker-cli evolve   <snapshot.json> <epochs> <k> [seed]
  broker-cli index build <snapshot.json> <alg> <k> <out.bri>
  broker-cli index query <index.bri> <s> <t> <l>
  broker-cli plan     <snapshot.json> <alg> <k_from> <k_to>
algorithms: maxsg greedy approx db prb ixpb tier1
global flags: --obs PATH (metrics snapshot), --record PATH (evolve: delta stream + ledger JSON)";

fn run(args: &[String], record_path: Option<&str>) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "generate" => {
            let scale = parse_scale(args.get(1).ok_or("missing scale")?)?;
            let seed: u64 = args
                .get(2)
                .ok_or("missing seed")?
                .parse()
                .map_err(|e| format!("bad seed: {e}"))?;
            let out = args.get(3).ok_or("missing output path")?;
            let net = InternetConfig::scaled(scale).generate(seed);
            save_snapshot(&net, out).map_err(|e| e.to_string())?;
            say!(
                "wrote {} nodes / {} edges to {out}",
                net.graph().node_count(),
                net.graph().edge_count()
            );
            Ok(())
        }
        "stats" => {
            let net = load(args.get(1))?;
            say!("{}", net.stats());
            Ok(())
        }
        "select" => {
            let net = load(args.get(1))?;
            let sel = select(&net, args.get(2), args.get(3))?;
            say!("{} brokers selected by {}:", sel.len(), sel.algorithm());
            for row in ranked_brokers(&net, &sel).iter().take(25) {
                say!(
                    "  #{:<4} {:<5} {:<26} degree {}",
                    row.rank,
                    row.category,
                    row.name,
                    row.degree
                );
            }
            if sel.len() > 25 {
                say!("  ... and {} more", sel.len() - 25);
            }
            Ok(())
        }
        "eval" => {
            let net = load(args.get(1))?;
            let sel = select(&net, args.get(2), args.get(3))?;
            let g = net.graph();
            let sat = saturated_connectivity(g, sel.brokers());
            say!(
                "{} brokers -> saturated E2E connectivity {:.2}% (giant {} / {})",
                sel.len(),
                100.0 * sat.fraction,
                sat.giant,
                g.node_count()
            );
            let mode = if g.node_count() <= 2000 {
                SourceMode::Exact
            } else {
                SourceMode::Sampled {
                    count: 800,
                    seed: 1,
                }
            };
            let curve = lhop_curve(g, sel.brokers(), 6, mode);
            for (i, f) in curve.fractions.iter().enumerate() {
                say!("  l = {}: {:.2}%", i + 1, 100.0 * f);
            }
            Ok(())
        }
        "export" => {
            let net = load(args.get(1))?;
            let out = args.get(2).ok_or("missing output path")?;
            let highlight = match args.get(3) {
                Some(k) => {
                    let k: usize = k.parse().map_err(|e| format!("bad k: {e}"))?;
                    Some(max_subgraph_greedy(net.graph(), k))
                }
                None => None,
            };
            let labels = net.names();
            let dot = netgraph::to_dot(
                net.graph(),
                highlight.as_ref().map(|s| s.brokers()),
                Some(&labels),
            );
            std::fs::write(out, dot).map_err(|e| e.to_string())?;
            say!("wrote DOT to {out}");
            Ok(())
        }
        "audit" => {
            let net = load(args.get(1))?;
            let mut rep = brokerset::AuditReport::new("broker-cli audit");
            rep.absorb(net.audit());
            if let Some(alg) = args.get(2) {
                let sel = select(&net, Some(alg), args.get(3))?;
                rep.absorb(sel.audit());
                let cert = CoverageCertificate::sampled(net.graph(), &sel, 200, 1);
                say!(
                    "re-verifying {} sampled coverage claims for {} {}-broker selection",
                    cert.pair_count(),
                    sel.algorithm(),
                    sel.len()
                );
                rep.absorb(cert.audit());
            }
            say!("{rep}");
            if rep.is_ok() {
                Ok(())
            } else {
                // Plain failure, not a usage error: report, skip USAGE.
                eprintln!("audit failed: {} invariant(s) violated", rep.findings.len());
                std::process::exit(1);
            }
        }
        "chaos" => {
            let net = load(args.get(1))?;
            let sel = select(&net, args.get(2), args.get(3))?;
            let g = net.graph();
            // A compact defect-and-recover drill: the top third of the
            // selection fails in three batches, then everyone rejoins.
            let batch = (sel.len() / 9).max(1);
            let mut schedule = netgraph::FaultSchedule::new(g.node_count());
            let victims: Vec<_> = sel.order().iter().copied().take(3 * batch).collect();
            for (i, chunk) in victims.chunks(batch).enumerate() {
                for &b in chunk {
                    schedule.fail_broker(i as u32 + 1, b);
                }
            }
            for &b in &victims {
                schedule.recover_broker(5, b);
            }
            schedule.set_horizon(7);
            let mode = if g.node_count() <= 2000 {
                SourceMode::Exact
            } else {
                SourceMode::Sampled {
                    count: 800,
                    seed: 1,
                }
            };
            let trace = chaos_trace(g, &sel, &schedule, Some(6), mode);
            say!(
                "chaos drill over {} epochs ({} brokers defect in batches of {batch}):",
                schedule.horizon(),
                victims.len()
            );
            for s in &trace.steps {
                say!(
                    "  epoch {}: {:>4} alive, saturated {:>7.2}%, l<=6 {:>7.2}%",
                    s.epoch,
                    s.alive_brokers,
                    100.0 * s.saturated,
                    100.0 * s.lhop.unwrap_or(0.0)
                );
            }
            say!(
                "max degradation {:.2}%, recovered {:.2}%",
                100.0 * trace.max_degradation(),
                100.0 * trace.recovered()
            );
            let audit = DegradationCertificate::new(g, &sel, &schedule, mode, &trace).audit();
            say!("certificate: {audit}");
            if audit.is_ok() {
                Ok(())
            } else {
                eprintln!(
                    "chaos certificate failed: {} invariant(s) violated",
                    audit.findings.len()
                );
                std::process::exit(1);
            }
        }
        "evolve" => {
            let net = load(args.get(1))?;
            let epochs: u32 = args
                .get(2)
                .ok_or("missing epoch count")?
                .parse()
                .map_err(|e| format!("bad epoch count: {e}"))?;
            let k: usize = args
                .get(3)
                .ok_or("missing k")?
                .parse()
                .map_err(|e| format!("bad k: {e}"))?;
            let seed: u64 = args
                .get(4)
                .map(|s| s.parse().map_err(|e| format!("bad seed: {e}")))
                .transpose()?
                .unwrap_or(7);
            let n0 = net.graph().node_count();
            let cfg = GrowthConfig::calibrated(epochs, n0);
            let stream = evolve(&net, &cfg, seed);
            let deltas = stream.lower();
            say!(
                "growing {n0} vertices for {} epochs (seed {seed}): {} ops, {} births",
                deltas.len(),
                stream.op_count(),
                stream.births()
            );
            let mut g = net.graph().clone();
            let mut m = BrokerMaintainer::new(&g, k, MaintainConfig::default());
            say!(
                "epoch  0: {:>4} brokers, coverage {:>6}/{:<6}",
                m.brokers().len(),
                m.coverage(),
                g.node_count()
            );
            for d in &deltas {
                let next = g.apply_delta(d);
                let r = m.apply(&g, &next, d).clone();
                say!(
                    "epoch {:>2}: {:>4} brokers, coverage {:>6}/{:<6} ({} out, {} in{})",
                    r.epoch,
                    m.brokers().len(),
                    r.coverage,
                    next.node_count(),
                    r.swapped_out.len(),
                    r.swapped_in.len(),
                    if r.recomputed { ", exact rebuild" } else { "" }
                );
                g = next;
            }
            say!(
                "ledger: {} swaps total, max {} in one epoch",
                m.ledger().total_swaps(),
                m.ledger().max_swaps_per_epoch()
            );
            let audit = m.certify(&g).audit();
            say!("certificate: {audit}");
            if let Some(path) = record_path {
                let blob = serde_json::json!({
                    "seed": seed,
                    "stream": serde_json::to_value(&stream).map_err(|e| e.to_string())?,
                    "reports": serde_json::to_value(m.ledger().reports())
                        .map_err(|e| e.to_string())?,
                });
                let text = serde_json::to_string_pretty(&blob).map_err(|e| e.to_string())?;
                std::fs::write(path, text).map_err(|e| e.to_string())?;
                say!("recorded delta stream + ledger to {path}");
            }
            if audit.is_ok() {
                Ok(())
            } else {
                eprintln!(
                    "maintenance certificate failed: {} invariant(s) violated",
                    audit.findings.len()
                );
                std::process::exit(1);
            }
        }
        "plan" => {
            let net = load(args.get(1))?;
            let alg = args.get(2);
            // Both budgets are mandatory: a defaulted target would make
            // "plan net.json maxsg 40" silently plan toward 100 brokers.
            let k_from = args.get(3).ok_or("missing k_from")?;
            let k_to = args.get(4).ok_or("missing k_to")?;
            let cur_sel = select(&net, alg, Some(k_from))?;
            let tgt_sel = select(&net, alg, Some(k_to))?;
            let g = net.graph();
            // Deterministic supervised sessions: the reconfiguration must
            // keep each one on a dominated stitched path at every cut.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x91a);
            let n = g.node_count() as u32;
            let mut pairs = Vec::with_capacity(16);
            while pairs.len() < 16 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    pairs.push((netgraph::NodeId(u), netgraph::NodeId(v)));
                }
            }
            let plan =
                routing::ReconfigPlan::build(g, cur_sel.brokers(), tgt_sel.brokers(), &pairs)
                    .map_err(|e| {
                        format!(
                            "planning {} -> {} brokers: {e}",
                            cur_sel.len(),
                            tgt_sel.len()
                        )
                    })?;
            let s = plan.summary(g);
            say!(
                "plan {} -> {} brokers ({}): {} steps ({} activate, {} deactivate, {} migrate),\n\
                 {} dependency edges; width {}, depth {}; {} sessions kept, {} migrating",
                cur_sel.len(),
                tgt_sel.len(),
                cur_sel.algorithm(),
                s.steps,
                s.activations,
                s.deactivations,
                s.migrations,
                s.edges,
                s.width,
                s.depth,
                s.kept,
                s.migrations,
            );
            for (i, layer) in plan.layers().iter().enumerate() {
                let steps = plan.steps();
                let rendered: Vec<String> = layer.iter().map(|&si| steps[si].to_string()).collect();
                say!("  antichain {i}: {}", rendered.join(", "));
            }
            let trace = plan.execute(g);
            say!(
                "executed: makespan {} vs sequential {} cost units ({:.2}x); {} cut states\n\
                 validated; trace checksum {:016x}",
                trace.makespan_units,
                trace.sequential_units,
                trace.speedup(),
                trace.cuts_validated,
                trace.checksum,
            );
            let audit = routing::PlanCertificate::new(&plan, g).audit();
            say!("certificate: {audit}");
            if audit.is_ok() && trace.cut_audit.is_ok() {
                Ok(())
            } else {
                eprintln!(
                    "plan certificate failed: {} invariant(s) violated",
                    audit.findings.len() + trace.cut_audit.findings.len()
                );
                std::process::exit(1);
            }
        }
        "index" => {
            let sub = args
                .get(1)
                .ok_or("missing index subcommand (build|query)")?;
            match sub.as_str() {
                "build" => {
                    let net = load(args.get(2))?;
                    let sel = select(&net, args.get(3), args.get(4))?;
                    let out = args.get(5).ok_or("missing output path")?;
                    let g = net.graph();
                    let idx = ReachIndex::build(g, sel.brokers(), 6, 0);
                    let audit = idx.audit();
                    if !audit.is_ok() {
                        eprintln!("index audit failed: {audit}");
                        std::process::exit(1);
                    }
                    idx.save(std::path::Path::new(out))
                        .map_err(|e| e.to_string())?;
                    say!(
                        "wrote {}-broker x {}-node index (max_l {}) to {out}, digest {:016x}",
                        idx.broker_count(),
                        idx.node_count(),
                        idx.max_l(),
                        idx.digest()
                    );
                    Ok(())
                }
                "query" => {
                    let path = args.get(2).ok_or("missing index path")?;
                    let idx = ReachIndex::load(std::path::Path::new(path))
                        .map_err(|e| format!("loading index {path}: {e}"))?;
                    let coord = |i: usize, what: &str| -> Result<u32, String> {
                        args.get(i)
                            .ok_or(format!("missing {what}"))?
                            .parse()
                            .map_err(|e| format!("bad {what}: {e}"))
                    };
                    let s = coord(3, "source")?;
                    let t = coord(4, "destination")?;
                    let l = coord(5, "hop bound")? as usize;
                    match idx.query(netgraph::NodeId(s), netgraph::NodeId(t), l) {
                        Some(a) => say!(
                            "stitch {s} -> {t} via broker {}: {} + {} hops (total {}, l <= {l})",
                            a.broker.0,
                            a.hops_s,
                            a.hops_t,
                            a.hops()
                        ),
                        None => say!("no dominated stitch from {s} to {t} within l = {l}"),
                    }
                    Ok(())
                }
                other => Err(format!("unknown index subcommand '{other}'")),
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "quarter" => Ok(Scale::Quarter),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale '{other}'")),
    }
}

fn load(path: Option<&String>) -> Result<Internet, String> {
    load_snapshot(path.ok_or("missing snapshot path")?).map_err(|e| e.to_string())
}

fn select(
    net: &Internet,
    alg: Option<&String>,
    k: Option<&String>,
) -> Result<BrokerSelection, String> {
    let alg = alg.ok_or("missing algorithm")?;
    let k: usize = k
        .map(|s| s.parse().map_err(|e| format!("bad k: {e}")))
        .transpose()?
        .unwrap_or(100);
    let g = net.graph();
    Ok(match alg.as_str() {
        "maxsg" => max_subgraph_greedy(g, k),
        "greedy" => greedy_mcb(g, k),
        "approx" => approx_mcbg(g, k, &ApproxConfig::paper()),
        "db" => degree_based(g, k),
        "prb" => pagerank_based(g, k),
        // Fixed-membership baselines still honor <k> by truncation so
        // the CLI contract ("select <alg> <k>") holds for every algorithm.
        "ixpb" => ixp_based(net, 0).truncated(k),
        "tier1" => tier1_only(net).truncated(k),
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}
