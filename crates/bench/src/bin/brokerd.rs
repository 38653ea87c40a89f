//! `brokerd` — the query-plane daemon: serves hop-bounded stitch
//! queries from a [`brokerset::ReachIndex`] over the length-prefixed
//! binary protocol in [`broker_net::proto`] (`HELLO` / `QUERY` /
//! `BATCH` / `STATS` / `SHUTDOWN`; see `DESIGN.md` §10).
//!
//! ```sh
//! # Build the index in-process from the scaled synthetic topology:
//! cargo run --release -p bench --bin brokerd -- tiny 7 --port 0
//! # Or serve a prebuilt BRI2 blob (see `broker_cli index build`):
//! cargo run --release -p bench --bin brokerd -- --index idx.bri --port 7700
//! ```
//!
//! With `--port 0` (the default) the kernel picks an ephemeral port;
//! the daemon always announces the bound port on stdout as
//!
//! ```text
//! brokerd: listening on 127.0.0.1:<port>
//! ```
//!
//! which is the line scripts (`ci.sh`'s serve smoke, the golden-session
//! test) parse to find it. The announcement precedes the index build:
//! early clients queue in the TCP backlog and their blocking HELLO
//! read doubles as the readiness signal (see
//! [`broker_net::proto::Conn::handshake`]), so no caller ever needs a
//! fixed startup delay. Connections are served one thread each;
//! batch frames of at least 1,024 entries fan out on `netgraph::par`
//! at `--threads N`. A `SHUTDOWN` frame
//! from any client stops the accept loop and exits cleanly after
//! printing the serving counters.

use bench::{ArgExtras, RunConfig};
use broker_net::proto::{self, ServeCounters};
use brokerset::{max_subgraph_greedy, ReachIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hop cap baked into in-process builds — matches the paper's l <= 6
/// evaluation horizon (and `serve_bench`, so checksums line up).
const MAX_L: usize = 6;

fn main() {
    let (rc, extras) = RunConfig::from_args_extended(
        ArgExtras {
            value_flags: &["--port", "--index"],
            max_positionals: 0,
        },
        " [--port N] [--index PATH]",
    );
    let port = match extras.flag("--port") {
        None => 0,
        Some(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("error: --port expects a port number (0-65535), got '{value}'");
            std::process::exit(2);
        }),
    };

    // Bind BEFORE building the index so the port announcement is
    // immediate and scripts never wait out the build behind a sleep
    // loop. Clients that connect early queue in the TCP backlog; their
    // blocking HELLO read IS the readiness signal — it returns exactly
    // when the accept loop (below, after the build) starts serving.
    let listener = proto::Listener::bind(port).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on port {port}: {e}");
        std::process::exit(2);
    });
    let port = listener.port().expect("bound port");
    println!("brokerd: listening on 127.0.0.1:{port}");

    let t0 = Instant::now();
    let index = match extras.flag("--index").map(std::path::Path::new) {
        Some(path) => match ReachIndex::load(path) {
            Ok(idx) => {
                println!("brokerd: loaded index from {}", path.display());
                idx
            }
            Err(e) => {
                eprintln!("error: loading index {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => {
            let net = rc.internet();
            let g = net.graph();
            let budget = rc.budgets(g.node_count())[1];
            let sel = max_subgraph_greedy(g, budget);
            ReachIndex::build(g, sel.brokers(), MAX_L, rc.threads)
        }
    };
    println!(
        "brokerd: index ready in {:.2}s ({} nodes, {} brokers, max_l {}, epoch {})",
        t0.elapsed().as_secs_f64(),
        index.node_count(),
        index.broker_count(),
        index.max_l(),
        index.epoch()
    );

    let index = Arc::new(index);
    let counters = Arc::new(ServeCounters::new());

    // SHUTDOWN protocol: the connection thread that receives the frame
    // raises the stop flag, then opens a throwaway connection to wake
    // the accept loop out of its blocking accept.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("brokerd: accept failed: {e}");
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let index = Arc::clone(&index);
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        let threads = rc.threads;
        // Join the threads of closed connections now, so a long-lived
        // daemon does not keep one finished thread's stack per past
        // connection until shutdown.
        let (done, live): (Vec<_>, Vec<_>) = workers.into_iter().partition(|h| h.is_finished());
        for w in done {
            let _ = w.join();
        }
        workers = live;
        workers.push(std::thread::spawn(move || {
            match proto::serve(conn, &index, &counters, threads) {
                Ok(true) => {
                    stop.store(true, Ordering::SeqCst);
                    // The wakeup connect must not be a single best-effort
                    // attempt: if it fails transiently the accept loop
                    // blocks forever and `wait brokerd` hangs the caller.
                    let _ = proto::Conn::connect_retry(port, 32);
                }
                Ok(false) => {}
                Err(e) => eprintln!("brokerd: connection error: {e}"),
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    let stats = counters.snapshot(&index);
    println!(
        "brokerd: bye ({} queries, {} hits, {} batch frames)",
        stats.queries_served, stats.hits, stats.batches
    );
    rc.dump_obs("brokerd").expect("--obs write failed");
}
