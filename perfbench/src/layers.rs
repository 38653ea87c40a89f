//! Calls into each product layer, each inside its span, shared by the
//! workloads' timed phases and by the layer probes, and the per-layer
//! metric table built from the spans and counts.
//!
//! Every per-layer metric is reported on every workload. A layer on the
//! workload's blocking path is timed inside its operations; a layer off
//! the path is probed once after the timed phases, with the same calls
//! on the workload's own inputs. So `index.query_ns` on paper-pipeline
//! is the scan cost over that topology's 1.9 % index: an index change
//! should move it there while paper-pipeline's end-to-end metrics stay.

use crate::inputs::{CYCLE_EPOCHS, MAX_L};
use crate::measure::median;
use crate::trace::Tracer;
use broker_net::proto::{self, Request, Response};
use brokerset::connectivity::LhopCurve;
use brokerset::{
    lhop_curve_parallel, max_subgraph_greedy, saturated_connectivity, BrokerSelection,
    ConnectivityReport, InvalidationReport, ReachIndex, SourceMode, StitchAnswer,
};
use netgraph::{FaultSchedule, FaultState, Graph, NodeId, NodeSet};
use std::sync::Arc;
use topology::{Internet, InternetConfig, Scale};

/// Queries per `index.read` span.
const READ_BLOCK: usize = 4096;
/// Query entries per block of replayed frames, so a block of `QUERY`
/// frames and a block of `BATCH` frames carry the same work.
const REPLAY_BLOCK_QUERIES: usize = 8192;

pub fn generate(t: &mut Tracer, scale: Scale, seed: u64, id: u64) -> Internet {
    t.time("topology.generate", id, 1, || {
        InternetConfig::scaled(scale).generate(seed)
    })
}

pub fn select(t: &mut Tracer, g: &Graph, k: usize, id: u64) -> BrokerSelection {
    let sel = t.time("maxsg.select", id, 1, || max_subgraph_greedy(g, k));
    t.count("maxsg.k", sel.len() as f64);
    sel
}

pub fn saturated(t: &mut Tracer, g: &Graph, brokers: &NodeSet, id: u64) -> ConnectivityReport {
    t.time("connectivity.saturated", id, 1, || {
        saturated_connectivity(g, brokers)
    })
}

pub fn lhop(t: &mut Tracer, g: &Graph, brokers: &NodeSet, mode: SourceMode, id: u64) -> LhopCurve {
    let sources = match mode {
        SourceMode::Exact => g.node_count(),
        SourceMode::Sampled { count, .. } => count.clamp(1, g.node_count()),
    };
    let curve = t.time("connectivity.lhop", id, sources as u64, || {
        lhop_curve_parallel(g, brokers, MAX_L, mode, 1)
    });
    t.count("connectivity.lhop_sources", curve.sources as f64);
    curve
}

pub fn build_index(t: &mut Tracer, g: &Graph, brokers: &NodeSet, id: u64) -> ReachIndex {
    let index = t.time("index.build", id, 1, || {
        ReachIndex::build(g, brokers, MAX_L, 1)
    });
    if t.is_on() {
        t.count("index.bytes", index.to_bytes().len() as f64);
    }
    index
}

/// Answer `queries` in stream order, one `index.read` span per block.
pub fn read(
    t: &mut Tracer,
    index: &ReachIndex,
    queries: &[(u32, u32, u16)],
    id: u64,
) -> Vec<Option<StitchAnswer>> {
    let mut out = Vec::with_capacity(queries.len());
    for block in queries.chunks(READ_BLOCK) {
        t.time("index.read", id, block.len() as u64, || {
            out.extend(
                block
                    .iter()
                    .map(|&(s, d, l)| index.query(NodeId(s), NodeId(d), usize::from(l))),
            );
        });
    }
    t.count(
        "index.hits",
        out.iter().filter(|a| a.is_some()).count() as f64,
    );
    out
}

pub fn apply_epoch(
    t: &mut Tracer,
    g: &Graph,
    index: &mut ReachIndex,
    state: &FaultState,
    id: u64,
) -> InvalidationReport {
    let report = t.time("index.apply_state", id, 1, || {
        index.apply_state(g, state, 1)
    });
    t.count("index.rebuilt", report.rebuilt as f64);
    t.count("index.live", index.live_brokers() as f64);
    t.count("index.dirty", report.dirty as f64);
    report
}

/// Walk one fault cycle on a copy of `index` (the churn probe).
pub fn apply_cycle(t: &mut Tracer, g: &Graph, index: &ReachIndex, sched: &FaultSchedule) {
    let mut copy = index.clone();
    for e in 1..=CYCLE_EPOCHS {
        apply_epoch(t, g, &mut copy, &sched.state_at(e), u64::from(e));
    }
}

/// The query frames of one pass over `stream`: `BATCH` frames of
/// `batch` queries, or one `QUERY` frame per query when `batch` is 1.
pub fn frames(stream: &[(u32, u32, u16)], batch: usize) -> Vec<Request> {
    if batch == 1 {
        stream
            .iter()
            .map(|&(s, t, l)| Request::Query { s, t, l })
            .collect()
    } else {
        stream
            .chunks(batch)
            .map(|c| Request::Batch(c.to_vec()))
            .collect()
    }
}

/// Queries a frame carries.
pub fn entries(req: &Request) -> usize {
    match req {
        Request::Batch(e) => e.len(),
        _ => 1,
    }
}

/// What `proto::serve` computes for a decoded query frame.
fn evaluate(index: &Arc<ReachIndex>, req: &Request) -> Response {
    match req {
        Request::Query { s, t, l } => {
            Response::Answer(index.query(NodeId(*s), NodeId(*t), usize::from(*l)))
        }
        Request::Batch(entries) => Response::BatchAnswers(proto::eval_batch(index, entries, 1)),
        other => Response::Error {
            code: 0,
            message: format!("not a query frame: {other:?}"),
        },
    }
}

/// Frames per replayed block: `REPLAY_BLOCK_QUERIES` query entries.
pub fn replay_block(frames: &[Request]) -> usize {
    (REPLAY_BLOCK_QUERIES / frames.first().map_or(1, entries)).max(1)
}

/// Replay `frames` in process through the five codec and evaluation
/// steps a served frame takes, one span per step per block of frames;
/// block `b` gets span id `first_block + b`.
///
/// # Errors
///
/// A frame that does not survive its encode/decode round trip.
pub fn replay_proto(
    t: &mut Tracer,
    index: &Arc<ReachIndex>,
    frames: &[Request],
    first_block: u64,
) -> Result<(), String> {
    for (b, chunk) in frames.chunks(replay_block(frames)).enumerate() {
        let (id, n) = (first_block + b as u64, chunk.len() as u64);
        let wire: Vec<Vec<u8>> = t.time("proto.encode_request", id, n, || {
            chunk.iter().map(proto::encode_request).collect()
        });
        let decoded = t.time("proto.decode_request", id, n, || {
            wire.iter()
                .map(|f| proto::decode_request(&f[4..]))
                .collect::<Result<Vec<_>, _>>()
        });
        if decoded.as_deref() != Ok(chunk) {
            return Err(format!("replayed request block {id} does not round-trip"));
        }
        let resps: Vec<Response> = t.time("proto.eval", id, n, || {
            chunk.iter().map(|r| evaluate(index, r)).collect()
        });
        let wire_back: Vec<Vec<u8>> = t.time("proto.encode_response", id, n, || {
            resps.iter().map(proto::encode_response).collect()
        });
        let back = t.time("proto.decode_response", id, n, || {
            wire_back
                .iter()
                .map(|f| proto::decode_response(&f[4..]))
                .collect::<Result<Vec<_>, _>>()
        });
        if back.as_ref() != Ok(&resps) {
            return Err(format!("replayed response block {id} does not round-trip"));
        }
        let mean_len =
            |frames: &[Vec<u8>]| frames.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
        t.count("proto.request_bytes", mean_len(&wire));
        t.count("proto.response_bytes", mean_len(&wire_back));
    }
    Ok(())
}

/// Every per-layer metric as `(name, unit, value)`.
pub fn per_layer(t: &Tracer) -> Vec<(&'static str, &'static str, f64)> {
    let last = |name: &str| t.counted(name).last().copied().unwrap_or(f64::NAN);
    let sum = |name: &str| t.counted(name).iter().sum::<f64>();
    let per_frame_us = |step: &str| t.median_per_item_s(step) * 1e6;
    vec![
        ("topology.generate_s", "s", t.median_s("topology.generate")),
        ("maxsg.select_s", "s", t.median_s("maxsg.select")),
        ("maxsg.k", "count", last("maxsg.k")),
        (
            "connectivity.saturated_ms",
            "ms",
            t.median_s("connectivity.saturated") * 1e3,
        ),
        (
            "connectivity.lhop_us_per_source",
            "us",
            t.median_per_item_s("connectivity.lhop") * 1e6,
        ),
        (
            "connectivity.lhop_sources",
            "count",
            last("connectivity.lhop_sources"),
        ),
        ("index.build_s", "s", t.median_s("index.build")),
        ("index.bytes", "bytes", last("index.bytes")),
        (
            "index.query_ns",
            "ns",
            t.median_per_item_s("index.read") * 1e9,
        ),
        (
            "index.hit_rate",
            "ratio",
            sum("index.hits") / t.items("index.read") as f64,
        ),
        (
            "index.apply_state_ms",
            "ms",
            t.median_s("index.apply_state") * 1e3,
        ),
        (
            "index.shards_rebuilt_frac",
            "ratio",
            sum("index.rebuilt") / sum("index.live"),
        ),
        (
            "index.dirty_vertices",
            "count",
            median(t.counted("index.dirty")),
        ),
        (
            "proto.encode_request_us",
            "us",
            per_frame_us("proto.encode_request"),
        ),
        (
            "proto.decode_request_us",
            "us",
            per_frame_us("proto.decode_request"),
        ),
        ("proto.eval_us", "us", per_frame_us("proto.eval")),
        (
            "proto.encode_response_us",
            "us",
            per_frame_us("proto.encode_response"),
        ),
        (
            "proto.decode_response_us",
            "us",
            per_frame_us("proto.decode_response"),
        ),
        (
            "proto.request_bytes",
            "bytes",
            median(t.counted("proto.request_bytes")),
        ),
        (
            "proto.response_bytes",
            "bytes",
            median(t.counted("proto.response_bytes")),
        ),
        ("op.self_us", "us", median(t.counted("op.self_us"))),
        ("op.p99_us", "us", last("op.p99_us")),
        ("server.cpu_us_per_op", "us", last("server.cpu_us_per_op")),
        ("client.cpu_us_per_op", "us", last("client.cpu_us_per_op")),
        ("trace_overhead", "%", last("trace_overhead")),
    ]
}
