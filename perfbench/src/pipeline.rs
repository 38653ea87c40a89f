//! `paper-pipeline`: generate → MaxSG at the 6.8 % budget → truncate to
//! the three paper budgets → saturated connectivity of each → exact
//! l-hop curve of the largest set, repeated until the run's time is up.
//! No index and no socket: an index or wire change must not move it.

use crate::inputs::{fault_cycle, paper_budgets, query_stream, BATCH};
use crate::layers;
use crate::measure::{median, quantile, Fnv, Proc};
use crate::trace::Tracer;
use crate::{overhead, E2e, Failures, Outcome, Run};
use brokerset::connectivity::LhopCurve;
use brokerset::{BrokerSelection, SourceMode};
use netgraph::NodeId;
use std::sync::Arc;
use std::time::Instant;
use topology::Internet;

struct Phase {
    generate_s: Vec<f64>,
    rows_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    reps: u64,
    checksum: u64,
    last: (Internet, BrokerSelection),
}

/// Checksum of one rep's table: the selection order, the three
/// saturated fractions and the l-hop curve, bit for bit.
fn rep_checksum(order: &[NodeId], saturated: &[f64], curve: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in order {
        h.bytes(&v.0.to_le_bytes());
    }
    for x in saturated.iter().chain(curve) {
        h.u64(x.to_bits());
    }
    h.finish()
}

/// What is wrong with one rep's table, if anything.
fn check_rep(saturated: &[f64; 3], curve: &LhopCurve, n: usize) -> Option<&'static str> {
    let monotone = |xs: &[f64]| xs.windows(2).all(|w| w[0] <= w[1]);
    if !monotone(saturated) || !monotone(&curve.fractions) {
        Some("connectivity not monotone in k or l")
    } else if curve
        .fractions
        .last()
        .is_some_and(|&f| f > saturated[2] + 1e-12)
    {
        Some("l-hop curve exceeds saturated connectivity")
    } else if curve.sources != n {
        Some("exact curve did not use every vertex as a source")
    } else {
        None
    }
}

fn phase(r: &Run, t: &mut Tracer, fails: &mut Failures) -> Result<Phase, String> {
    let cpu = || {
        Proc::This
            .cpu_s()
            .map_err(|e| format!("reading own CPU time: {e}"))
    };
    let cpu0 = cpu()?;
    let start = Instant::now();
    let (mut generate_s, mut rows_s) = (Vec::new(), Vec::new());
    let mut first: Option<u64> = None;
    let mut last = None;
    let mut rep = 0u64;
    while rep == 0 || start.elapsed() < r.seconds {
        let g0 = Instant::now();
        let net = layers::generate(t, r.size.scale, r.seed, rep);
        generate_s.push(g0.elapsed().as_secs_f64());
        let g = net.graph();
        let budgets = paper_budgets(g.node_count());

        let open = t.open("pipeline.rows", rep, 1);
        let r0 = Instant::now();
        let sel = layers::select(t, g, budgets[2], rep);
        let saturated =
            budgets.map(|k| layers::saturated(t, g, sel.truncated(k).brokers(), rep).fraction);
        let curve = layers::lhop(t, g, sel.brokers(), SourceMode::Exact, rep);
        rows_s.push(r0.elapsed().as_secs_f64());
        t.close(open);

        let checksum = rep_checksum(sel.order(), &saturated, &curve.fractions);
        if let Some(what) = check_rep(&saturated, &curve, g.node_count()) {
            fails.op(1, format!("rep {rep}: {what}"));
        } else if *first.get_or_insert(checksum) != checksum {
            fails.op(
                1,
                format!("rep {rep}: table differs from rep 0 (same seed)"),
            );
        }
        last = Some((net, sel));
        rep += 1;
    }
    Ok(Phase {
        generate_s,
        rows_s,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu()? - cpu0,
        reps: rep,
        checksum: first.unwrap_or_default(),
        last: last.expect("the loop runs at least one rep"),
    })
}

pub fn run(r: &Run, t: &mut Tracer) -> Result<Outcome, String> {
    let mut fails = Failures::default();
    let base = phase(r, &mut Tracer::new(false), &mut fails)?;
    let mut attempted = base.reps;
    if t.is_on() {
        let traced = phase(r, t, &mut fails)?;
        attempted += traced.reps;
        if traced.checksum != base.checksum {
            fails.check("the traced run's table differs from the untraced run's".into());
        }
        overhead(t, median(&traced.rows_s), median(&base.rows_s));
        t.count("op.self_us", t.median_self_s("pipeline.rows") * 1e6);
        t.count("op.p99_us", quantile(&traced.rows_s, 0.99) * 1e6);
        // One process is both load generator and server here.
        let cpu_us_per_rep = base.cpu_s / base.reps as f64 * 1e6;
        t.count("server.cpu_us_per_op", cpu_us_per_rep);
        t.count("client.cpu_us_per_op", cpu_us_per_rep);
        eprintln!(
            "[trace] select + saturated + l-hop spans cover {:.2} % of the rows time",
            100.0
                * t.coverage(
                    "pipeline.rows",
                    &[
                        "maxsg.select",
                        "connectivity.saturated",
                        "connectivity.lhop"
                    ]
                )
        );

        // Index and proto probes on this topology's 1.9 % broker set:
        // the set brokerd would serve for it.
        let (net, sel) = &traced.last;
        let g = net.graph();
        let k = paper_budgets(g.node_count())[1];
        let brokers = sel.truncated(k);
        let index = layers::build_index(t, g, brokers.brokers(), 0);
        let stream = query_stream(g.node_count(), r.size.stream, r.seed);
        layers::read(t, &index, &stream, 0);
        layers::apply_cycle(t, g, &index, &fault_cycle(g, brokers.order(), r.seed));
        layers::replay_proto(t, &Arc::new(index), &layers::frames(&stream, BATCH), 0)?;
    }
    Ok(Outcome {
        e2e: E2e {
            setup_s: median(&base.generate_s),
            peak_rss_mb: Proc::This
                .peak_rss_mb()
                .map_err(|e| format!("reading own VmHWM: {e}"))?,
            latency_p50_us: median(&base.rows_s) * 1e6,
            throughput_per_s: base.reps as f64 / base.wall_s,
        },
        attempted,
        fails,
        checksum: base.checksum,
    })
}
