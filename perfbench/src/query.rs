//! `query-batch` and `query-single`: a closed loop over one connection
//! to the real `brokerd` child process, replaying the seeded query
//! stream as `BATCH` frames of 512 or as one `QUERY` frame at a time.
//!
//! The benchmark builds the same index in process, outside every timed
//! phase, and every served answer must equal it; the first answers must
//! also equal `exact_query`.

use crate::inputs::{diff_answers, fault_cycle, paper_budgets, query_stream, ANCHOR_SEED};
use crate::layers;
use crate::measure::{median, quantile, Proc};
use crate::trace::Tracer;
use crate::{overhead, E2e, Failures, Outcome, Run};
use broker_net::proto::{self, Request, Response};
use brokerset::{answers_checksum, exact_query, ReachIndex, SourceMode, StitchAnswer};
use netgraph::{FaultState, NodeId};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where `brokerd` must be: next to this executable, or one level up
/// for test executables, which cargo puts in `deps/`.
pub fn brokerd_path() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("locating the benchmark executable: {e}"))?;
    let dir = exe.parent().unwrap_or(&exe);
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .map(|d| d.join("brokerd"))
        .find(|p| p.is_file());
    found.ok_or_else(|| {
        format!(
            "brokerd not found next to {}: build it into the same target directory \
                 with `cargo build --release -p bench --bin brokerd` (perfbench/run.sh does)",
            exe.display()
        )
    })
}

/// A running brokerd. Dropping it kills the process if it is still up
/// and waits for it, so no run leaves a daemon behind.
struct Brokerd {
    child: Child,
    // Held open: brokerd prints status lines after the port line, and a
    // closed pipe would make those prints fail.
    _stdout: BufReader<ChildStdout>,
}

impl Brokerd {
    /// Spawn brokerd and complete the HELLO handshake. Returns the
    /// daemon, the ready connection, HELLO's `(n, k)` and the seconds
    /// from spawn to `HELLO_OK`.
    fn spawn(
        exe: &Path,
        scale: &str,
        seed: u64,
    ) -> Result<(Self, proto::Conn, (u32, u32), f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args([scale, &seed.to_string(), "--threads", "1", "--port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Brokerd {
            child,
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading brokerd's port line: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("brokerd: listening on 127.0.0.1:")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected first line from brokerd: {line:?}"))?;
        let (conn, hello) =
            proto::Conn::handshake(port, 64).map_err(|e| format!("brokerd handshake: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        match hello {
            Response::HelloOk { n, k, .. } => Ok((daemon, conn, (n, k), setup_s)),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SHUTDOWN`, then wait (bounded) for a clean exit.
    fn shutdown(mut self, mut conn: proto::Conn) -> Result<(), String> {
        let bye = conn.request(&Request::Shutdown);
        drop(conn);
        if !matches!(bye, Ok(Response::Bye)) {
            return Err(format!("SHUTDOWN answered {bye:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("brokerd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("brokerd did not exit within 30 s of SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for brokerd: {e}")),
            }
        }
    }
}

impl Drop for Brokerd {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct Served {
    queries: u64,
    wall_s: f64,
    rtt_s: Vec<f64>,
    server_cpu_s: f64,
    client_cpu_s: f64,
    broken: bool,
}

/// One pass of the stream as frames, the answers they must get, and the
/// benchmark's own copy of the served index.
struct Stream<'a> {
    frames: &'a [Request],
    reference: &'a [Option<StitchAnswer>],
    index: &'a Arc<ReachIndex>,
}

/// The closed loop: send a frame, wait for its answers, check them,
/// repeat over the stream until the run's time is up.
///
/// Traced, each block of frames is then replayed in process (see
/// `layers::replay_proto`), and the block's median round trip minus the
/// replayed steps' per-frame cost is recorded as `op.self_us`: both
/// sides are timed within milliseconds of each other, so a change in
/// the host's speed during the run does not leak into the difference.
fn phase(
    conn: &mut proto::Conn,
    pid: u32,
    s: &Stream<'_>,
    r: &Run,
    t: &mut Tracer,
    fails: &mut Failures,
) -> Result<Served, String> {
    let cpu = |p: Proc| p.cpu_s().map_err(|e| format!("reading CPU time: {e}"));
    let (server0, client0) = (cpu(Proc::Pid(pid))?, cpu(Proc::This)?);
    let mut served = Served {
        queries: 0,
        wall_s: 0.0,
        rtt_s: Vec::new(),
        server_cpu_s: 0.0,
        client_cpu_s: 0.0,
        broken: false,
    };
    let block = layers::replay_block(s.frames);
    let mut offset = 0usize;
    let start = Instant::now();
    for (i, frame) in s.frames.iter().cycle().enumerate() {
        if start.elapsed() >= r.seconds {
            break;
        }
        let len = layers::entries(frame);
        if i % s.frames.len() == 0 {
            offset = 0;
        }
        let want = &s.reference[offset..offset + len];
        offset += len;

        let open = t.open("query.rtt", i as u64, len as u64);
        let t0 = Instant::now();
        let resp = conn.request(frame);
        served.rtt_s.push(t0.elapsed().as_secs_f64());
        t.close(open);
        served.queries += len as u64;
        let mismatch = match resp {
            Ok(Response::BatchAnswers(got)) => diff_answers(&got, want),
            Ok(Response::Answer(got)) => diff_answers(&[got], want),
            Ok(Response::Error { code, message }) => Some(format!("ERROR frame {code}: {message}")),
            Ok(other) => Some(format!("unexpected reply {other:?}")),
            Err(e) => {
                fails.op(len as u64, format!("frame {i}: transport error: {e}"));
                served.broken = true;
                break;
            }
        };
        if let Some(m) = mismatch {
            fails.op(len as u64, format!("frame {i}: {m}"));
        }

        if t.is_on() && (i + 1) % block == 0 {
            // `block` divides a pass, so the block just sent is contiguous.
            let first = (i + 1 - block) % s.frames.len();
            let mark = t.mark();
            let id = (i / block) as u64;
            layers::replay_proto(t, s.index, &s.frames[first..first + block], id)?;
            let rtt = median(&served.rtt_s[served.rtt_s.len() - block..]);
            t.count("op.self_us", (rtt - t.per_item_since(mark)) * 1e6);
        }
    }
    served.wall_s = start.elapsed().as_secs_f64();
    served.server_cpu_s = cpu(Proc::Pid(pid))? - server0;
    served.client_cpu_s = cpu(Proc::This)? - client0;
    Ok(served)
}

pub fn run(r: &Run, t: &mut Tracer, batch: usize) -> Result<Outcome, String> {
    let exe = brokerd_path()?;
    let mut fails = Failures::default();

    // The reference: the index brokerd builds, built here from the same
    // seed, and its answers to the whole stream.
    let net = layers::generate(t, r.size.scale, ANCHOR_SEED, 0);
    let g = net.graph();
    let n = g.node_count();
    let sel = layers::select(t, g, paper_budgets(n)[1], 0);
    let index = Arc::new(layers::build_index(t, g, sel.brokers(), 0));
    let stream = query_stream(n, r.size.stream, r.seed);
    let reference = layers::read(t, &index, &stream, 0);
    let clear = FaultState::all_clear(n);
    let exact: Vec<_> = stream[..r.size.exact_checks.min(stream.len())]
        .iter()
        .map(|&(s, d, l)| {
            exact_query(
                g,
                sel.brokers(),
                &clear,
                NodeId(s),
                NodeId(d),
                usize::from(l),
            )
        })
        .collect();
    if let Some(m) = diff_answers(&reference[..exact.len()], &exact) {
        fails.check(format!("the index disagrees with exact_query: {m}"));
    }
    let frames = layers::frames(&stream, batch);
    assert_eq!(
        frames.len() % layers::replay_block(&frames),
        0,
        "replay blocks must tile a pass"
    );

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..r.size.setups {
        let (daemon, conn, (hello_n, hello_k), secs) =
            Brokerd::spawn(&exe, r.size.scale_arg(), ANCHOR_SEED)?;
        if (hello_n as usize, hello_k as usize) != (n, sel.len()) {
            fails.check(format!(
                "brokerd serves n={hello_n} k={hello_k}, the reference has n={n} k={}",
                sel.len()
            ));
        }
        setup_s.push(secs);
        if i + 1 < r.size.setups {
            daemon.shutdown(conn)?;
        } else {
            server = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = server.ok_or("no set-up ran")?;

    let stream = Stream {
        frames: &frames,
        reference: &reference,
        index: &index,
    };
    let base = phase(
        &mut conn,
        daemon.pid(),
        &stream,
        r,
        &mut Tracer::new(false),
        &mut fails,
    )?;
    let mut sent = base.queries;
    let mut broken = base.broken;
    if t.is_on() && !broken {
        // Warm this copy of the index as brokerd's is warm, then trace.
        layers::replay_proto(&mut Tracer::new(false), &index, &frames, 0)?;
        let traced = phase(&mut conn, daemon.pid(), &stream, r, t, &mut fails)?;
        sent += traced.queries;
        broken = traced.broken;
        overhead(t, median(&traced.rtt_s), median(&base.rtt_s));
        t.count("op.p99_us", quantile(&traced.rtt_s, 0.99) * 1e6);
        let per_query = |cpu_s: f64| cpu_s / base.queries as f64 * 1e6;
        t.count("server.cpu_us_per_op", per_query(base.server_cpu_s));
        t.count("client.cpu_us_per_op", per_query(base.client_cpu_s));

        // Connectivity and churn probes on the served topology and set.
        layers::saturated(t, g, sel.brokers(), 0);
        layers::lhop(t, g, sel.brokers(), SourceMode::Exact, 0);
        layers::apply_cycle(t, g, &index, &fault_cycle(g, sel.order(), r.seed));
    }
    let peak_rss_mb = Proc::Pid(daemon.pid())
        .peak_rss_mb()
        .map_err(|e| format!("reading brokerd's VmHWM: {e}"))?;
    if broken {
        // Dropping the daemon kills it.
        fails.check("the connection broke".into());
    } else {
        match conn.request(&Request::Stats) {
            Ok(Response::Stats(stats)) if stats.queries_served == sent => {}
            other => fails.check(format!("STATS after {sent} queries answered {other:?}")),
        }
        daemon.shutdown(conn)?;
    }
    Ok(Outcome {
        e2e: E2e {
            setup_s: median(&setup_s),
            peak_rss_mb,
            latency_p50_us: median(&base.rtt_s) * 1e6,
            throughput_per_s: base.queries as f64 / base.wall_s,
        },
        attempted: sent,
        fails,
        checksum: answers_checksum(reference.iter().copied()),
    })
}
