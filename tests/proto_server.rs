//! Live-server fuzz and property tests of the `brokerd` wire protocol:
//! a real TCP server ([`proto::Listener`] + [`proto::serve`]) over a
//! small index must answer malformed frames — truncated length
//! prefixes, oversize declarations, unknown opcodes, short payloads,
//! arbitrary garbage — with clean [`Response::Error`] replies and keep
//! serving fresh connections afterwards. The server thread panicking or
//! wedging fails the test via the final handshake and join.

use broker_net::proto::{self, errcode, Request, Response, ServeCounters, MAX_FRAME};
use brokerset::ReachIndex;
use netgraph::{GraphBuilder, NodeId, NodeSet};
use proptest::prelude::*;
use std::sync::Arc;

/// An 8-vertex path 0-1-2-3-4-5-6-7 with brokers {2, 5}. Dominated
/// edges need a broker endpoint, so the index sees two stars —
/// {1,2,3} around broker 2 and {4,5,6} around broker 5 — giving a mix
/// of hits (within a star) and misses (across stars, or from the
/// undominated endpoints 0 and 7).
fn small_index() -> Arc<ReachIndex> {
    let mut b = GraphBuilder::new(8);
    for i in 0..7 {
        b.add_edge(NodeId(i), NodeId(i + 1));
    }
    let g = b.build();
    let brokers = NodeSet::from_iter_with_capacity(8, [2, 5].map(NodeId));
    Arc::new(ReachIndex::build(&g, &brokers, 6, 1))
}

/// Accept-loop harness mirroring `brokerd`: serve connections
/// sequentially until one requests shutdown. Returns the bound port and
/// the join handle (joining proves the server thread never panicked).
fn spawn_server(index: Arc<ReachIndex>) -> (u16, std::thread::JoinHandle<()>) {
    spawn_threaded_server(index, 1)
}

/// [`spawn_server`] whose batches fan out on `threads` workers.
#[expect(
    clippy::disallowed_methods,
    reason = "R13: the server runs on its own thread, as each brokerd connection does"
)]
fn spawn_threaded_server(
    index: Arc<ReachIndex>,
    threads: usize,
) -> (u16, std::thread::JoinHandle<()>) {
    let listener = proto::Listener::bind(0).expect("bind ephemeral port");
    let port = listener.port().expect("bound port");
    let handle = std::thread::spawn(move || {
        let counters = ServeCounters::new();
        loop {
            let Ok(conn) = listener.accept() else { break };
            match proto::serve(conn, &index, &counters, threads) {
                Ok(true) => break,
                Ok(false) => {}
                Err(_) => {} // transport hiccup: keep accepting
            }
        }
    });
    (port, handle)
}

fn shutdown(port: u16, handle: std::thread::JoinHandle<()>) {
    let mut conn = proto::Conn::connect(port).expect("connect for shutdown");
    let bye = conn
        .request(&Request::Shutdown)
        .expect("shutdown round trip");
    assert!(matches!(bye, Response::Bye), "expected BYE, got {bye:?}");
    handle.join().expect("server thread panicked");
}

/// A full frame around a raw body (length prefix included).
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

#[test]
fn malformed_frames_get_error_replies_and_the_server_survives() {
    let (port, handle) = spawn_server(small_index());

    // The harness serves one connection at a time, so every block below
    // must DROP its connection (end of scope) before the next one
    // connects — otherwise the accept loop never reaches the new client.
    {
        // Unknown opcode: error reply, connection stays usable.
        let mut conn = proto::Conn::connect(port).expect("connect");
        conn.send_raw(&raw_frame(&[0x7f])).expect("send bad opcode");
        match conn.read_response().expect("reply").expect("open") {
            Response::Error { code, message } => {
                assert_eq!(code, errcode::BAD_OPCODE);
                assert!(message.contains("0x7f"), "{message}");
            }
            other => panic!("expected error reply, got {other:?}"),
        }
        // ... same connection still answers a well-formed handshake.
        let hello = conn.request(&Request::Hello).expect("post-error hello");
        assert!(
            matches!(hello, Response::HelloOk { n: 8, k: 2, .. }),
            "{hello:?}"
        );

        // Short payload (QUERY with 3 of its 10 bytes): truncated error.
        conn.send_raw(&raw_frame(&[0x02, 1, 2, 3]))
            .expect("send short query");
        match conn.read_response().expect("reply").expect("open") {
            Response::Error { code, .. } => assert_eq!(code, errcode::TRUNCATED),
            other => panic!("expected error reply, got {other:?}"),
        }

        // Batch whose count disagrees with its length: malformed error.
        let mut body = vec![0x03];
        body.extend_from_slice(&9u32.to_le_bytes());
        body.extend_from_slice(&[0u8; 10]);
        conn.send_raw(&raw_frame(&body)).expect("send bad batch");
        match conn.read_response().expect("reply").expect("open") {
            Response::Error { code, .. } => assert_eq!(code, errcode::MALFORMED),
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    {
        // Oversize declaration: error reply, then the server hangs up
        // (the stream cannot be resynchronized).
        let mut conn = proto::Conn::connect(port).expect("connect oversize");
        conn.send_raw(&(MAX_FRAME + 1).to_le_bytes())
            .expect("send oversize prefix");
        match conn.read_response().expect("reply").expect("open") {
            Response::Error { code, .. } => assert_eq!(code, errcode::OVERSIZE),
            other => panic!("expected error reply, got {other:?}"),
        }
        assert!(
            conn.read_response().expect("read after close").is_none(),
            "connection must close after an oversize frame"
        );
    }

    {
        // Truncated length prefix (client dies mid-prefix): the server
        // just drops the connection — and must still accept the next.
        let mut conn = proto::Conn::connect(port).expect("connect truncated");
        conn.send_raw(&[5, 0]).expect("send partial prefix");
    }

    {
        let mut conn = proto::Conn::connect(port).expect("connect after abuse");
        let answer = conn
            .request(&Request::Query { s: 1, t: 3, l: 6 })
            .expect("query after abuse");
        assert!(
            matches!(answer, Response::Answer(Some(a)) if a.hops() <= 6),
            "{answer:?}"
        );
    }

    shutdown(port, handle);
}

#[test]
fn batch_and_stats_round_trip_over_tcp() {
    let index = small_index();
    let (port, handle) = spawn_server(Arc::clone(&index));
    let mut conn = proto::Conn::connect(port).expect("connect");
    let entries = vec![(0u32, 7u32, 6u16), (0, 7, 1), (3, 3, 2), (0, 99, 6)];
    match conn
        .request(&Request::Batch(entries.clone()))
        .expect("batch")
    {
        Response::BatchAnswers(answers) => {
            assert_eq!(answers.len(), entries.len());
            for (answer, &(s, t, l)) in answers.iter().zip(&entries) {
                assert_eq!(
                    *answer,
                    index.query(NodeId(s), NodeId(t), usize::from(l)),
                    "served batch entry ({s}, {t}, {l}) diverged from local evaluation"
                );
            }
        }
        other => panic!("expected batch answers, got {other:?}"),
    }
    match conn.request(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.queries_served, entries.len() as u64);
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.epoch, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(conn);
    shutdown(port, handle);
}

/// A batch of at least 1,024 entries fans out on the server's two
/// workers; its answers must still arrive in request order, equal to
/// one QUERY frame per entry and to a one-thread evaluation.
#[test]
fn large_batch_on_a_threaded_server_matches_single_queries() {
    use rand::{Rng, SeedableRng};
    let index = small_index();
    let (port, handle) = spawn_threaded_server(Arc::clone(&index), 2);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2_048);
    let entries: Vec<(u32, u32, u16)> = (0..2_048)
        .map(|_| {
            (
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..7),
            )
        })
        .collect();
    let mut conn = proto::Conn::connect(port).expect("connect");
    let batch = match conn
        .request(&Request::Batch(entries.clone()))
        .expect("batch")
    {
        Response::BatchAnswers(answers) => answers,
        other => panic!("expected batch answers, got {other:?}"),
    };
    let singles: Vec<_> = entries
        .iter()
        .map(
            |&(s, t, l)| match conn.request(&Request::Query { s, t, l }) {
                Ok(Response::Answer(answer)) => answer,
                other => panic!("expected an answer, got {other:?}"),
            },
        )
        .collect();
    assert!(
        batch == singles,
        "threaded batch diverged from per-entry QUERY frames"
    );
    assert!(
        batch == proto::eval_batch(&index, &entries, 1),
        "diverged from one thread"
    );
    drop(conn);
    shutdown(port, handle);
}

/// Readiness regression for the `serve_bench --attach` / `brokerd`
/// handshake: a client that starts before the listener exists must
/// bridge the gap with connect retries (no fixed sleeps on either
/// side), and a bounded retry budget against a dead port must report
/// the refusal instead of hanging.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "R13: the server runs on its own thread, as each brokerd connection does"
)]
fn handshake_bridges_a_late_listener_and_bounded_retry_reports_refusal() {
    // Reserve an ephemeral port, then release it so the server can bind
    // it *after* the client has already started retrying.
    let probe = proto::Listener::bind(0).expect("probe bind");
    let port = probe.port().expect("probe port");
    drop(probe);

    // Nothing is listening yet: the bounded budget surfaces the error.
    let err = proto::Conn::connect_retry(port, 3).expect_err("no listener yet");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");

    let index = small_index();
    let server = std::thread::spawn(move || {
        // Bind late: the client below is already in its retry loop.
        std::thread::yield_now();
        let listener = proto::Listener::bind(port).expect("rebind reserved port");
        let counters = ServeCounters::new();
        loop {
            let Ok(conn) = listener.accept() else { break };
            if let Ok(true) = proto::serve(conn, &index, &counters, 1) {
                break;
            }
        }
    });

    // The HELLO reply doubles as the readiness signal: once it arrives
    // the server is provably serving, with no sleep anywhere.
    let (mut conn, hello) = proto::Conn::handshake(port, 1_000_000).expect("handshake");
    assert!(
        matches!(hello, Response::HelloOk { n: 8, k: 2, .. }),
        "{hello:?}"
    );
    let bye = conn.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(bye, Response::Bye), "expected BYE, got {bye:?}");
    server.join().expect("server thread panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary garbage bodies inside a well-formed length prefix: the
    /// server always sends back *some* frame (a valid response or an
    /// error), never panics, and the next handshake still works.
    #[test]
    fn garbage_frames_never_wedge_the_server(
        bodies in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64),
            1..5,
        ),
    ) {
        let (port, handle) = spawn_server(small_index());
        for body in &bodies {
            // Steer clear of the one frame that is SUPPOSED to stop the
            // server: a lone SHUTDOWN opcode.
            let mut body = body.clone();
            if body.first() == Some(&0x05) {
                body[0] = 0x00;
            }
            let mut conn = proto::Conn::connect(port).expect("connect");
            conn.send_raw(&raw_frame(&body)).expect("send garbage");
            let reply = conn.read_response().expect("transport ok");
            prop_assert!(reply.is_some(), "server closed without replying");
        }
        let mut conn = proto::Conn::connect(port).expect("final connect");
        let hello = conn.request(&Request::Hello).expect("final hello");
        prop_assert!(matches!(hello, Response::HelloOk { .. }));
        drop(conn);
        shutdown(port, handle);
    }
}
