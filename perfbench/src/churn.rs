//! `index-churn`: the full topology's index under a repeating 8-epoch
//! fault cycle. Each epoch applies the epoch's fault state (the write)
//! and then answers that epoch's window of the seeded stream (the
//! read); whole cycles repeat until the run's time is up.

use crate::inputs::{
    diff_answers, fault_cycle, paper_budgets, query_stream, ANCHOR_SEED, BATCH, CYCLE_EPOCHS,
};
use crate::layers;
use crate::measure::{median, quantile, Fnv, Proc};
use crate::trace::Tracer;
use crate::{overhead, E2e, Failures, Outcome, Run};
use brokerset::{
    answers_checksum, exact_query, BrokerSelection, ReachIndex, SourceMode, StitchAnswer,
};
use netgraph::{FaultSchedule, Graph, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// Sources of the l-hop probe: the exact curve at full scale would take
/// longer than the whole run.
const LHOP_PROBE_SOURCES: usize = 1024;

struct Inputs<'a> {
    g: &'a Graph,
    sel: &'a BrokerSelection,
    sched: FaultSchedule,
    stream: Vec<(u32, u32, u16)>,
    pristine: Vec<Option<StitchAnswer>>,
    /// Per-epoch read checksums of the first cycle; later cycles must
    /// repeat them.
    epoch_sums: Vec<u64>,
}

struct Phase {
    apply_s: Vec<f64>,
    read_s: f64,
    reads: u64,
    cpu_s: f64,
}

fn phase(
    inp: &mut Inputs<'_>,
    index: &mut ReachIndex,
    r: &Run,
    t: &mut Tracer,
    fails: &mut Failures,
) -> Result<Phase, String> {
    let cpu = || {
        Proc::This
            .cpu_s()
            .map_err(|e| format!("reading own CPU time: {e}"))
    };
    let window = inp.stream.len() / CYCLE_EPOCHS as usize;
    let mut p = Phase {
        apply_s: Vec::new(),
        read_s: 0.0,
        reads: 0,
        cpu_s: 0.0,
    };
    let mut cycle = 0u64;
    while cycle == 0 || p.apply_s.iter().sum::<f64>() + p.read_s < r.seconds.as_secs_f64() {
        for e in 1..=CYCLE_EPOCHS {
            let state = inp.sched.state_at(e);
            let id = cycle * u64::from(CYCLE_EPOCHS) + u64::from(e);
            let range = (e as usize - 1) * window..e as usize * window;
            let queries = &inp.stream[range.clone()];

            let cpu0 = cpu()?;
            let open = t.open("churn.epoch", id, 1);
            let t0 = Instant::now();
            layers::apply_epoch(t, inp.g, index, &state, id);
            let t1 = Instant::now();
            let answers = layers::read(t, index, queries, id);
            let t2 = Instant::now();
            t.close(open);
            p.cpu_s += cpu()? - cpu0;
            p.apply_s.push((t1 - t0).as_secs_f64());
            p.read_s += (t2 - t1).as_secs_f64();
            p.reads += queries.len() as u64;

            // Checks, outside the timed sections.
            let sum = answers_checksum(answers.iter().copied());
            match inp.epoch_sums.get(e as usize - 1) {
                Some(&first) if first != sum => fails.op(
                    queries.len() as u64,
                    format!("epoch {id}: reads differ from cycle 0"),
                ),
                Some(_) => {}
                None => inp.epoch_sums.push(sum),
            }
            let stride = (window / r.size.exact_checks.max(1)).max(1);
            let first = cycle as usize % stride;
            for i in (first..window).step_by(stride).take(r.size.exact_checks) {
                let (s, d, l) = queries[i];
                let exact = exact_query(
                    inp.g,
                    inp.sel.brokers(),
                    &state,
                    NodeId(s),
                    NodeId(d),
                    usize::from(l),
                );
                if answers[i] != exact {
                    fails.op(
                        1,
                        format!("epoch {id}: answer {i} differs from exact_query"),
                    );
                }
            }
            if state.is_clear() {
                if let Some(m) = diff_answers(&answers, &inp.pristine[range]) {
                    fails.op(
                        queries.len() as u64,
                        format!("epoch {id}: all-clear reads differ from the pristine index: {m}"),
                    );
                }
            }
        }
        cycle += 1;
    }
    Ok(p)
}

pub fn run(r: &Run, t: &mut Tracer) -> Result<Outcome, String> {
    let mut fails = Failures::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for i in 0..r.size.setups as u64 {
        drop(built.take()); // hold one topology and index at a time
        let t0 = Instant::now();
        let net = layers::generate(t, r.size.scale, ANCHOR_SEED, i);
        let g = net.graph();
        let sel = layers::select(t, g, paper_budgets(g.node_count())[1], i);
        let index = layers::build_index(t, g, sel.brokers(), i);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((net, sel, index));
    }
    let (net, sel, mut index) = built.ok_or("no set-up ran")?;
    let g = net.graph();
    let stream = query_stream(g.node_count(), r.size.stream, r.seed);
    let mut inp = Inputs {
        g,
        sel: &sel,
        sched: fault_cycle(g, sel.order(), r.seed),
        pristine: layers::read(&mut Tracer::new(false), &index, &stream, 0),
        stream,
        epoch_sums: Vec::new(),
    };

    let base = phase(&mut inp, &mut index, r, &mut Tracer::new(false), &mut fails)?;
    let mut attempted = base.apply_s.len() as u64 + base.reads;
    if t.is_on() {
        let traced = phase(&mut inp, &mut index, r, t, &mut fails)?;
        attempted += traced.apply_s.len() as u64 + traced.reads;
        overhead(t, median(&traced.apply_s), median(&base.apply_s));
        t.count("op.self_us", t.median_self_s("churn.epoch") * 1e6);
        t.count("op.p99_us", quantile(&traced.apply_s, 0.99) * 1e6);
        // One process is both load generator and server here.
        let cpu_us_per_epoch = base.cpu_s / base.apply_s.len() as f64 * 1e6;
        t.count("server.cpu_us_per_op", cpu_us_per_epoch);
        t.count("client.cpu_us_per_op", cpu_us_per_epoch);
        eprintln!(
            "[trace] apply + read spans cover {:.2} % of the epoch loop",
            100.0 * t.coverage("churn.epoch", &["index.apply_state", "index.read"])
        );
    }

    // Every cycle ends all-clear: the whole stream must read as pristine.
    let recovered = layers::read(&mut Tracer::new(false), &index, &inp.stream, 0);
    if let Some(m) = diff_answers(&recovered, &inp.pristine) {
        fails.check(format!(
            "after recovery the stream differs from the pristine index: {m}"
        ));
    }
    if t.is_on() {
        // Connectivity and proto probes on this topology and set.
        layers::saturated(t, g, sel.brokers(), 0);
        let mode = SourceMode::Sampled {
            count: LHOP_PROBE_SOURCES,
            seed: r.seed,
        };
        layers::lhop(t, g, sel.brokers(), mode, 0);
        layers::replay_proto(t, &Arc::new(index), &layers::frames(&inp.stream, BATCH), 0)?;
    }

    let mut cycle_sum = Fnv::new();
    for &s in &inp.epoch_sums {
        cycle_sum.u64(s);
    }
    Ok(Outcome {
        e2e: E2e {
            setup_s: median(&setup_s),
            peak_rss_mb: Proc::This
                .peak_rss_mb()
                .map_err(|e| format!("reading own VmHWM: {e}"))?,
            latency_p50_us: median(&base.apply_s) * 1e6,
            throughput_per_s: base.reads as f64 / base.read_s,
        },
        attempted,
        fails,
        checksum: cycle_sum.finish(),
    })
}
