//! `benchmark` — the reference benchmark of broker-net: the paper
//! pipeline, the brokerd query path and index churn, end to end and per
//! layer. Every performance claim about this repository is measured
//! with it. The `BENCH_*.json` files at the repository root stay as the
//! historical records of the bins that wrote them.
//!
//! # Command
//!
//! ```sh
//! bash perfbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `run.sh` builds `brokerd` (root workspace) and this package into one
//! target directory (`$CARGO_TARGET_DIR`, default `.bench_build`) and
//! runs `benchmark`, which finds `brokerd` next to itself. The seed
//! (default 2014) drives paper-pipeline's topology, and the query
//! stream and fault cycle of the other workloads, which serve the
//! EXPERIMENTS.md anchor topology (seed 2014) whatever the seed; the
//! product code receives only those generated inputs. `--seconds`
//! (default 15) is how long each timed phase measures. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). It carries the
//! end-to-end metrics, or the per-layer ones with `--trace 1`. The exit
//! code is 0 only when every output check passed.
//!
//! Every product call runs at one thread (`brokerd --threads 1`,
//! `threads = 1` in process): single-thread time is the currency. The
//! load comes from this one process over at most one connection; the
//! host's `available_parallelism` is printed to stderr and recorded in
//! the trace.
//!
//! # Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `paper-pipeline` | quarter topology (13,020 nodes); reps of generate → `max_subgraph_greedy` at k = 885 (6.8 %) → `truncated` to 25/247/885 → `saturated_connectivity` each → exact `lhop_curve_parallel` (l ≤ 6) of the 885 set | all selection and msbfs evaluation, no index and no socket: an index or wire change must not move it |
//! | `query-batch` | `brokerd quarter 2014 --threads 1` as a child (247 brokers); one connection, closed loop, `BATCH` frames of 512 uniform (s, t, l ≤ 6) queries | the index scan is most of each round trip: index changes show here |
//! | `query-single` | the same brokerd, one `QUERY` frame outstanding at a time | the smallest message: transport and framing dominate and the scan is a few per cent, so an index change should not move it while a connection-handling change does |
//! | `index-churn` | full topology (52,079 nodes), k = 990 (1.9 %), `ReachIndex::build`, then a repeating 8-epoch fault cycle (defections, node failures, edge cuts, staged recovery); each epoch `apply_state` (write) then 20,000 reads | writes beside reads on a 51 MB index (3.2 MB on the query workloads): tighter invalidation shows here, and so does a read layout that slows rebuilds |
//!
//! # End-to-end metrics (untraced run)
//!
//! The output format asks for the same metrics on every workload, so
//! each is defined per workload. The "op" is a rep's select → table
//! rows on paper-pipeline, one frame round trip (never divided by the
//! batch size) on the query workloads and one epoch's `apply_state` on
//! index-churn.
//!
//! | metric | paper-pipeline | query-batch, query-single | index-churn |
//! |---|---|---|---|
//! | `setup_s` | median generate step | median brokerd spawn → `HELLO_OK` over 5 spawns | median generate + select + build over 3 set-ups |
//! | `peak_rss_mb` | VmHWM of the benchmark | VmHWM of brokerd | VmHWM of the benchmark |
//! | `latency_p50_us` | median op | median frame round trip | median `apply_state` |
//! | `throughput_per_s` | reps per second | queries per second | reads per second of read time |
//!
//! Each metric's regression bound in `BENCHMARK.json`, and the runs it
//! was fixed from, are in `perfbench/CALIBRATION.md`.
//!
//! Failed operations (transport errors, `ERROR` frames, wrong or
//! missing answers, a STATS count that differs from the queries sent)
//! are the `failed` count; a failed whole-run check counts every
//! operation as failed.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run repeats the timed phase with spans around every call
//! into a layer and reports:
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `topology` | `topology.generate_s` | `setup_s` everywhere |
//! | `brokerset::maxsg` | `maxsg.select_s`, `maxsg.k` | `latency_p50_us` @ paper-pipeline, `setup_s` @ index-churn and (brokerd's own selection) @ the query workloads |
//! | `brokerset::connectivity` | `connectivity.saturated_ms`, `connectivity.lhop_us_per_source`, `connectivity.lhop_sources` | `latency_p50_us` @ paper-pipeline |
//! | `brokerset::index` | `index.build_s`, `index.bytes`, `index.query_ns`, `index.hit_rate`, `index.apply_state_ms`, `index.shards_rebuilt_frac` (rebuilt ÷ live shards, the wasted-work ratio), `index.dirty_vertices` | `latency_p50_us` and `throughput_per_s` @ query-batch and index-churn; `setup_s`; nothing @ query-single |
//! | `proto` | per frame: `proto.encode_request_us`, `proto.decode_request_us`, `proto.eval_us`, `proto.encode_response_us`, `proto.decode_response_us`, `proto.request_bytes`, `proto.response_bytes` | `latency_p50_us` @ query-batch |
//! | the op itself | `op.self_us` (op time no layer span accounts for: loopback, syscalls and brokerd's connection loop on the query workloads), `op.p99_us` | `latency_p50_us` and `throughput_per_s` @ query-single |
//! | server | `server.cpu_us_per_op`: on-CPU time per op of the process running the product code (brokerd's per query on the query workloads, the benchmark's per rep or epoch otherwise) | `throughput_per_s` @ the query workloads |
//! | load generator | `client.cpu_us_per_op`: the benchmark's on-CPU time per op | nothing: it shows the client is not the bottleneck |
//! | tracing | `trace_overhead` (% change of the traced run's median op over the untraced run's) | nothing |
//!
//! On the query workloads, each block of frames the traced phase sends
//! (8,192 queries: 16 `BATCH` or 8,192 `QUERY` frames) is then replayed
//! in process through the five proto steps, against the benchmark's own
//! warmed copy of the index, so the five steps plus `op.self_us` sum to
//! the block's median round trip. Layers off a workload's path are
//! probed after its timed phases on its own inputs (see `layers.rs`).
//! `server.cpu_us_per_op` and `client.cpu_us_per_op` come from the
//! untraced phase, which the replay does not load.
//!
//! # Reading a trace
//!
//! A traced run writes `.bench_traces/<workload>.json`: `counts` (named
//! observations such as `index.rebuilt`) and `spans`, each with `name`,
//! `start_ns`, `end_ns`, `parent` (index of the enclosing span or
//! null), `id` (rep, frame, block or epoch), `items` (work items
//! covered) and `self_ns` (duration minus its children). Op spans are
//! `pipeline.rows`, `query.rtt` and `churn.epoch`; layer spans carry
//! the layer's name (`maxsg.select`, `index.apply_state`, ...). Summing
//! `self_ns` by name gives where the time went.
//!
//! # Tests
//!
//! ```sh
//! CARGO_TARGET_DIR=.bench_build cargo build --release -p bench --bin brokerd
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

mod churn;
mod inputs;
mod layers;
mod measure;
mod pipeline;
mod query;
mod trace;

use inputs::{Size, Workload, BATCH};
use std::time::Duration;
use trace::Tracer;

/// Output checksums at the benchmark's sizes for seed 2014: the
/// paper-pipeline table, the query stream's answers, and index-churn's
/// per-epoch read checksums over one cycle. A change that moves one
/// changed the answers.
const PINNED_2014: [(Workload, u64); 4] = [
    (Workload::PaperPipeline, 0x6411_ad4a_bad0_f9fe),
    (Workload::QueryBatch, 0xd1ef_9f1b_0fa2_bd54),
    (Workload::QuerySingle, 0xd1ef_9f1b_0fa2_bd54),
    (Workload::IndexChurn, 0xbe0b_17fc_97a1_f877),
];

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub size: Size,
}

/// The end-to-end metrics every workload reports (see the module docs).
pub struct E2e {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub latency_p50_us: f64,
    pub throughput_per_s: f64,
}

impl E2e {
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("setup_s", "s", self.setup_s),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
            ("latency_p50_us", "us", self.latency_p50_us),
            ("throughput_per_s", "1/s", self.throughput_per_s),
        ]
    }
}

/// Failed operations and failed whole-run checks.
#[derive(Debug, Default)]
pub struct Failures {
    ops: u64,
    checks: Vec<String>,
    notes: Vec<String>,
}

impl Failures {
    /// `n` operations failed.
    pub fn op(&mut self, n: u64, what: String) {
        self.ops += n;
        if self.notes.len() < 10 {
            self.notes.push(what);
        }
    }

    /// A check over the whole run failed.
    pub fn check(&mut self, what: String) {
        self.checks.push(what);
    }

    /// Failed operations out of `attempted`: all of them once a
    /// whole-run check failed.
    fn failed(&self, attempted: u64) -> u64 {
        if self.checks.is_empty() {
            self.ops.min(attempted)
        } else {
            attempted
        }
    }
}

pub struct Outcome {
    pub e2e: E2e,
    pub attempted: u64,
    pub fails: Failures,
    pub checksum: u64,
}

/// Record how much the traced run's median op differs from the
/// untraced run's, in per cent.
pub fn overhead(t: &mut Tracer, traced: f64, untraced: f64) {
    t.count("trace_overhead", (traced / untraced - 1.0) * 100.0);
}

fn execute(w: Workload, r: &Run, t: &mut Tracer) -> Result<Outcome, String> {
    match w {
        Workload::PaperPipeline => pipeline::run(r, t),
        Workload::QueryBatch => query::run(r, t, BATCH),
        Workload::QuerySingle => query::run(r, t, 1),
        Workload::IndexChurn => churn::run(r, t),
    }
}

/// The pinned checksum `checksum` must match, if one applies.
fn pin_mismatch(w: Workload, r: &Run, checksum: u64) -> Option<String> {
    let (_, pinned) = PINNED_2014.iter().find(|(p, _)| *p == w)?;
    (r.size.pinned && r.seed == 2014 && *pinned != checksum)
        .then(|| format!("output checksum {checksum:016x}, pinned for seed 2014: {pinned:016x}"))
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2014, 15.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got '{value}'"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!(
                        "--seconds expects a duration in (0, 3600], got '{value}'"
                    ))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result object, printed as the last line of standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    let w = args.workload;
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        size: Size::bench(w),
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "[benchmark] {} seed {} for {} s, trace {}, nproc {nproc}",
        w.name(),
        run.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut tracer = Tracer::new(args.trace);
    let outcome = execute(w, &run, &mut tracer).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let mut fails = outcome.fails;
    if let Some(m) = pin_mismatch(w, &run, outcome.checksum) {
        fails.check(m);
    }
    for line in fails.checks.iter().chain(&fails.notes) {
        eprintln!("[benchmark] FAILED: {line}");
    }
    eprintln!("[benchmark] output checksum {:016x}", outcome.checksum);
    let e2e = outcome.e2e.metrics();
    for (name, unit, value) in &e2e {
        eprintln!("[benchmark] {name} = {value} {unit}");
    }
    let metrics = if args.trace {
        let path = std::path::Path::new(".bench_traces").join(format!("{}.json", w.name()));
        let meta = [
            ("workload", w.name().to_string()),
            ("seed", run.seed.to_string()),
            ("nproc", nproc.to_string()),
        ];
        let written = std::fs::create_dir_all(".bench_traces")
            .and_then(|()| std::fs::write(&path, tracer.to_json(&meta)));
        match written {
            Ok(()) => eprintln!("[benchmark] trace written to {}", path.display()),
            Err(e) => eprintln!("[benchmark] could not write {}: {e}", path.display()),
        }
        layers::per_layer(&tracer)
    } else {
        e2e
    };

    let failed = fails.failed(outcome.attempted);
    let correct = failed == 0;
    if let Some((name, ..)) = metrics.iter().find(|(.., v)| !v.is_finite()) {
        eprintln!("error: metric {name} was not measured");
        std::process::exit(1);
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use brokerset::answers_checksum;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_strict() {
        let a = args(&[
            "--workload",
            "query-batch",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("full form parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::QueryBatch, 7, 2.5, true)
        );
        let a = args(&["--workload", "index-churn"]).expect("defaults");
        assert_eq!((a.seed, a.seconds, a.trace), (2014, 15.0, false));
        assert!(args(&[]).unwrap_err().contains("required"));
        assert!(args(&["--workload", "warp"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args(&["--workload", "query-batch", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "query-batch", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "query-batch", "--frobnicate", "1"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(args(&["--workload"]).unwrap_err().contains("expects"));
    }

    /// Every workload at tiny scale emits every declared metric, each a
    /// measured number, and passes its output checks.
    #[test]
    fn tiny_runs_emit_every_metric() {
        query::brokerd_path().expect("the query workloads need brokerd; see the module docs");
        for w in Workload::ALL {
            let r = Run {
                seed: 7,
                seconds: Duration::from_millis(300),
                size: Size::tiny(),
            };
            let mut t = Tracer::new(true);
            let out = execute(w, &r, &mut t).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(
                out.fails.failed(out.attempted),
                0,
                "{}: {:?}",
                w.name(),
                out.fails
            );
            assert!(out.attempted > 0);
            for (name, unit, value) in out.e2e.metrics().into_iter().chain(layers::per_layer(&t)) {
                assert!(value.is_finite(), "{}: {name} [{unit}] = {value}", w.name());
            }
        }
    }

    /// One mutated answer fails both the per-frame comparison and the
    /// pinned seed-2014 checksum of the query stream.
    #[test]
    fn mutated_answer_fails_the_gate() {
        let w = Workload::QueryBatch;
        let size = Size::bench(w);
        let net = topology::InternetConfig::scaled(size.scale).generate(2014);
        let g = net.graph();
        let mut t = Tracer::new(false);
        let sel = layers::select(&mut t, g, inputs::paper_budgets(g.node_count())[1], 0);
        let index = layers::build_index(&mut t, g, sel.brokers(), 0);
        let stream = inputs::query_stream(g.node_count(), size.stream, 2014);
        let served = layers::read(&mut t, &index, &stream, 0);
        let r = Run {
            seed: 2014,
            seconds: Duration::from_secs(1),
            size,
        };
        assert_eq!(
            pin_mismatch(w, &r, answers_checksum(served.iter().copied())),
            None
        );

        let mut mutated = served.clone();
        let i = mutated
            .iter()
            .position(Option::is_some)
            .expect("some query is answered");
        if let Some(a) = mutated[i].as_mut() {
            a.hops_t += 1;
        }
        assert!(inputs::diff_answers(&mutated, &served).is_some());
        assert!(pin_mismatch(w, &r, answers_checksum(mutated.iter().copied())).is_some());
    }

    /// BENCHMARK.json declares exactly the workloads and metrics this
    /// binary emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    m[field]
                        .as_str()
                        .unwrap_or_else(|| panic!("{key}.{field}"))
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        let e2e = E2e {
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            latency_p50_us: 0.0,
            throughput_per_s: 0.0,
        }
        .metrics();
        let declared = |list: &[(&str, &str, f64)], field: &str| -> Vec<String> {
            list.iter()
                .map(|(n, u, _)| {
                    if field == "name" {
                        n.to_string()
                    } else {
                        u.to_string()
                    }
                })
                .collect()
        };
        assert_eq!(names("end_to_end", "name"), declared(&e2e, "name"));
        assert_eq!(names("end_to_end", "unit"), declared(&e2e, "unit"));
        let layers = layers::per_layer(&Tracer::new(true));
        assert_eq!(names("per_layer", "name"), declared(&layers, "name"));
        assert_eq!(names("per_layer", "unit"), declared(&layers, "unit"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("latency_p50_us", "us", 12.3456789)]);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            v["metrics"]["latency_p50_us"]["value"].as_f64(),
            Some(12.3456789)
        );
        assert_eq!(v["failed"].as_u64(), Some(0));
    }
}
