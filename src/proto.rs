//! The `brokerd` wire protocol: a compact, dependency-free,
//! length-prefixed binary framing over TCP.
//!
//! Every frame is `[len: u32 LE][opcode: u8][payload]`, where `len`
//! counts the opcode plus payload and is capped at [`MAX_FRAME`].
//! Requests: `HELLO` (0x01), `QUERY` (0x02), `BATCH` (0x03), `STATS`
//! (0x04), `SHUTDOWN` (0x05). Responses: `HELLO_OK` (0x81), `ANSWER`
//! (0x82), `BATCH_ANSWERS` (0x83), `STATS` (0x84), `BYE` (0x85) and
//! `ERROR` (0xEE). See `DESIGN.md` §10 for the field-level table.
//!
//! Malformed input never panics the server: truncated prefixes,
//! oversize declarations, unknown opcodes and short payloads all turn
//! into a best-effort [`Response::Error`] reply (the connection closes
//! afterwards when the stream can no longer be resynchronized).
//!
//! This module is the only place in the repository allowed to name the
//! raw socket types (`TcpListener`/`TcpStream`; lint rule R14): the
//! binaries drive [`Listener`] and [`Conn`] instead, so every byte on
//! the wire goes through the codec below. Connection fan-out (threads)
//! stays in the binaries — large batches inside a connection fan out on
//! [`netgraph::par`].
#![expect(
    clippy::disallowed_types,
    reason = "R14: the framed protocol is the one owner of raw sockets"
)]

use brokerset::{ReachIndex, StitchAnswer};
use netgraph::NodeId;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on a frame's declared length (opcode + payload), 1 MiB.
pub const MAX_FRAME: u32 = 1 << 20;

/// Per-entry wire size of a query: `s u32, t u32, l u16`.
const QUERY_BYTES: usize = 10;
/// Per-entry wire size of an answer: `flag u8, broker u32, hops u32 ×2`.
const ANSWER_BYTES: usize = 13;

/// Frame- and payload-level decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The payload ended before the declared contents.
    Truncated,
    /// The frame declared more than [`MAX_FRAME`] bytes.
    Oversize(u32),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A structural invariant of the payload failed.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversize(len) => write!(f, "frame declares {len} bytes > {MAX_FRAME}"),
            FrameError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Error codes carried by [`Response::Error`].
pub mod errcode {
    /// The frame declared more than [`super::MAX_FRAME`] bytes.
    pub const OVERSIZE: u8 = 1;
    /// The frame or payload ended early.
    pub const TRUNCATED: u8 = 2;
    /// Unknown opcode.
    pub const BAD_OPCODE: u8 = 3;
    /// Structurally invalid payload.
    pub const MALFORMED: u8 = 4;
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; the server answers with index dimensions.
    Hello,
    /// One stitch query `(s, t, l)`.
    Query {
        /// Source vertex id.
        s: u32,
        /// Destination vertex id.
        t: u32,
        /// Hop bound.
        l: u16,
    },
    /// Many stitch queries answered in one frame.
    Batch(Vec<(u32, u32, u16)>),
    /// Ask for the serving counters.
    Stats,
    /// Ask the server to stop accepting connections.
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake reply: the served index's shape.
    HelloOk {
        /// Vertices covered by the index.
        n: u32,
        /// Broker roster size.
        k: u32,
        /// Fault epoch the index reflects.
        epoch: u32,
        /// Hop cap of the index.
        max_l: u8,
    },
    /// Answer to a single [`Request::Query`].
    Answer(Option<StitchAnswer>),
    /// Answers to a [`Request::Batch`], in request order.
    BatchAnswers(Vec<Option<StitchAnswer>>),
    /// Serving counters snapshot.
    Stats(ServeStats),
    /// Acknowledges a [`Request::Shutdown`].
    Bye,
    /// The request could not be honored; the connection may close.
    Error {
        /// One of the [`errcode`] constants.
        code: u8,
        /// Human-readable description.
        message: String,
    },
}

/// A snapshot of the serving counters, as carried by
/// [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Single queries plus batch entries evaluated.
    pub queries_served: u64,
    /// Queries answered `Some` (a stitch exists within the bound).
    pub hits: u64,
    /// Batch frames evaluated.
    pub batches: u64,
    /// Cumulative shards invalidated on the served index.
    pub shards_invalidated: u64,
    /// Fault epoch of the served index.
    pub epoch: u32,
}

/// Shared serving counters (one per server, across all connections).
#[derive(Debug, Default)]
pub struct ServeCounters {
    queries: AtomicU64,
    hits: AtomicU64,
    batches: AtomicU64,
}

impl ServeCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the counters against the index being served.
    pub fn snapshot(&self, index: &ReachIndex) -> ServeStats {
        ServeStats {
            queries_served: self.queries.load(Ordering::SeqCst),
            hits: self.hits.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            shards_invalidated: index.shards_invalidated(),
            epoch: index.epoch(),
        }
    }

    fn record(&self, answered: usize, hits: usize, batch: bool) {
        self.queries.fetch_add(answered as u64, Ordering::SeqCst);
        self.hits.fetch_add(hits as u64, Ordering::SeqCst);
        if batch {
            self.batches.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl netgraph::Validate for ServeCounters {
    /// Monotone-counter sanity: hits can never exceed queries served
    /// (every hit is a served query), and all counters stay within u64
    /// by construction.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("proto::ServeCounters");
        let queries = self.queries.load(Ordering::SeqCst);
        let hits = self.hits.load(Ordering::SeqCst);
        rep.check("proto.hits-bounded", hits <= queries, || {
            format!("{hits} hits recorded against {queries} served queries")
        });
        rep
    }
}

fn put_answer(buf: &mut Vec<u8>, ans: Option<StitchAnswer>) {
    match ans {
        Some(a) => {
            buf.push(1);
            buf.extend_from_slice(&a.broker.0.to_le_bytes());
            buf.extend_from_slice(&a.hops_s.to_le_bytes());
            buf.extend_from_slice(&a.hops_t.to_le_bytes());
        }
        None => buf.extend_from_slice(&[0u8; ANSWER_BYTES]),
    }
}

/// Encode a request into a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    match req {
        Request::Hello => body.push(0x01),
        Request::Query { s, t, l } => {
            body.push(0x02);
            body.extend_from_slice(&s.to_le_bytes());
            body.extend_from_slice(&t.to_le_bytes());
            body.extend_from_slice(&l.to_le_bytes());
        }
        Request::Batch(entries) => {
            body.push(0x03);
            body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(s, t, l) in entries {
                body.extend_from_slice(&s.to_le_bytes());
                body.extend_from_slice(&t.to_le_bytes());
                body.extend_from_slice(&l.to_le_bytes());
            }
        }
        Request::Stats => body.push(0x04),
        Request::Shutdown => body.push(0x05),
    }
    frame(body)
}

/// Encode a response into a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    match resp {
        Response::HelloOk { n, k, epoch, max_l } => {
            body.push(0x81);
            body.extend_from_slice(&n.to_le_bytes());
            body.extend_from_slice(&k.to_le_bytes());
            body.extend_from_slice(&epoch.to_le_bytes());
            body.push(*max_l);
        }
        Response::Answer(ans) => {
            body.push(0x82);
            put_answer(&mut body, *ans);
        }
        Response::BatchAnswers(answers) => {
            body.push(0x83);
            body.extend_from_slice(&(answers.len() as u32).to_le_bytes());
            for &a in answers {
                put_answer(&mut body, a);
            }
        }
        Response::Stats(s) => {
            body.push(0x84);
            body.extend_from_slice(&s.queries_served.to_le_bytes());
            body.extend_from_slice(&s.hits.to_le_bytes());
            body.extend_from_slice(&s.batches.to_le_bytes());
            body.extend_from_slice(&s.shards_invalidated.to_le_bytes());
            body.extend_from_slice(&s.epoch.to_le_bytes());
        }
        Response::Bye => body.push(0x85),
        Response::Error { code, message } => {
            body.push(0xEE);
            body.push(*code);
            let msg = message.as_bytes();
            let len = msg.len().min(u16::MAX as usize);
            body.extend_from_slice(&(len as u16).to_le_bytes());
            body.extend_from_slice(&msg[..len]);
        }
    }
    frame(body)
}

fn frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_FRAME as usize);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend(body);
    out
}

/// Little-endian checked reader over a frame body.
struct Rd<'a>(&'a [u8]);

impl Rd<'_> {
    fn u8(&mut self) -> Result<u8, FrameError> {
        let (&b, rest) = self.0.split_first().ok_or(FrameError::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.chunk::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.chunk::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.chunk::<8>()?))
    }

    fn chunk<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        if self.0.len() < N {
            return Err(FrameError::Truncated);
        }
        let mut word = [0u8; N];
        word.copy_from_slice(&self.0[..N]);
        self.0 = &self.0[N..];
        Ok(word)
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes"))
        }
    }
}

fn get_answer(rd: &mut Rd<'_>) -> Result<Option<StitchAnswer>, FrameError> {
    let flag = rd.u8()?;
    let broker = rd.u32()?;
    let hops_s = rd.u32()?;
    let hops_t = rd.u32()?;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(StitchAnswer {
            broker: NodeId(broker),
            hops_s,
            hops_t,
        })),
        _ => Err(FrameError::Malformed("answer flag not 0/1")),
    }
}

/// Decode a request from a frame body (after the length prefix).
///
/// # Errors
///
/// [`FrameError`] on empty bodies, unknown opcodes or short payloads.
pub fn decode_request(body: &[u8]) -> Result<Request, FrameError> {
    let mut rd = Rd(body);
    let op = rd.u8().map_err(|_| FrameError::Malformed("empty frame"))?;
    let req = match op {
        0x01 => Request::Hello,
        0x02 => Request::Query {
            s: rd.u32()?,
            t: rd.u32()?,
            l: rd.u16()?,
        },
        0x03 => {
            let count = rd.u32()? as usize;
            if count * QUERY_BYTES != rd.0.len() {
                return Err(FrameError::Malformed("batch count disagrees with length"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push((rd.u32()?, rd.u32()?, rd.u16()?));
            }
            Request::Batch(entries)
        }
        0x04 => Request::Stats,
        0x05 => Request::Shutdown,
        other => return Err(FrameError::BadOpcode(other)),
    };
    rd.done()?;
    Ok(req)
}

/// Decode a response from a frame body (after the length prefix).
///
/// # Errors
///
/// [`FrameError`] on empty bodies, unknown opcodes or short payloads.
pub fn decode_response(body: &[u8]) -> Result<Response, FrameError> {
    let mut rd = Rd(body);
    let op = rd.u8().map_err(|_| FrameError::Malformed("empty frame"))?;
    let resp = match op {
        0x81 => Response::HelloOk {
            n: rd.u32()?,
            k: rd.u32()?,
            epoch: rd.u32()?,
            max_l: rd.u8()?,
        },
        0x82 => Response::Answer(get_answer(&mut rd)?),
        0x83 => {
            let count = rd.u32()? as usize;
            if count * ANSWER_BYTES != rd.0.len() {
                return Err(FrameError::Malformed("answer count disagrees with length"));
            }
            let mut answers = Vec::with_capacity(count);
            for _ in 0..count {
                answers.push(get_answer(&mut rd)?);
            }
            Response::BatchAnswers(answers)
        }
        0x84 => Response::Stats(ServeStats {
            queries_served: rd.u64()?,
            hits: rd.u64()?,
            batches: rd.u64()?,
            shards_invalidated: rd.u64()?,
            epoch: rd.u32()?,
        }),
        0x85 => Response::Bye,
        0xEE => {
            let code = rd.u8()?;
            let len = rd.u16()? as usize;
            if rd.0.len() != len {
                return Err(FrameError::Malformed("error message length"));
            }
            let message = String::from_utf8_lossy(rd.0).into_owned();
            rd.0 = &[];
            Response::Error { code, message }
        }
        other => return Err(FrameError::BadOpcode(other)),
    };
    rd.done()?;
    Ok(resp)
}

/// One read frame, or the reason there is none.
enum Framed {
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended inside a prefix or body.
    Truncated,
    /// The prefix declared more than [`MAX_FRAME`] bytes; nothing was
    /// consumed past the prefix (the stream cannot be resynchronized).
    Oversize(u32),
    /// A complete frame body.
    Body(Vec<u8>),
}

fn read_framed(r: &mut impl Read) -> io::Result<Framed> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return Ok(if got == 0 {
                    Framed::Eof
                } else {
                    Framed::Truncated
                });
            }
            Ok(read) => got += read,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Ok(Framed::Oversize(len));
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Framed::Body(body)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(Framed::Truncated),
        Err(e) => Err(e),
    }
}

/// A bound server socket. Wraps the raw listener so binaries never
/// touch socket types directly (lint rule R14).
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Bind to `127.0.0.1:port`; `port = 0` picks an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(port: u16) -> io::Result<Self> {
        Ok(Listener {
            inner: TcpListener::bind(("127.0.0.1", port))?,
        })
    }

    /// The actually bound port.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn port(&self) -> io::Result<u16> {
        Ok(self.inner.local_addr()?.port())
    }

    /// Block until a client connects.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> io::Result<Conn> {
        let (stream, _) = self.inner.accept()?;
        Ok(Conn { inner: stream })
    }
}

/// One protocol connection (either side). Wraps the raw stream so
/// binaries never touch socket types directly (lint rule R14).
#[derive(Debug)]
pub struct Conn {
    inner: TcpStream,
}

impl Conn {
    /// Connect to a `brokerd` on `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(port: u16) -> io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Conn { inner: stream })
    }

    /// Connect to `127.0.0.1:port`, retrying until the listener
    /// accepts or `attempts` tries are exhausted.
    ///
    /// This is the sleep-free half of the readiness handshake used by
    /// the serve benches and the CI smoke: a freshly spawned `brokerd`
    /// may not have bound its socket yet, so instead of a fixed delay
    /// the caller spins on connect with a scheduler yield between
    /// tries. Pair with [`Conn::handshake`] to also wait for the
    /// serving loop (bound socket ≠ serving: the accept queue can hold
    /// a connection before the index is ready to answer).
    ///
    /// # Errors
    ///
    /// The last connect failure once every attempt is spent.
    pub fn connect_retry(port: u16, attempts: usize) -> io::Result<Self> {
        let mut last: Option<io::Error> = None;
        for _ in 0..attempts.max(1) {
            match Self::connect(port) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    last = Some(e);
                    std::thread::yield_now();
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "connect_retry: no attempts",
            )
        }))
    }

    /// Full readiness handshake: connect (with retries) and block on a
    /// [`Request::Hello`] until the server answers
    /// [`Response::HelloOk`]. Returns the ready connection plus the
    /// served index's shape. No sleeps anywhere: the blocking read on
    /// the HELLO reply *is* the readiness signal.
    ///
    /// # Errors
    ///
    /// Connect failures propagate; a non-`HelloOk` reply surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn handshake(port: u16, attempts: usize) -> io::Result<(Self, Response)> {
        let mut conn = Self::connect_retry(port, attempts)?;
        match conn.request(&Request::Hello)? {
            ok @ Response::HelloOk { .. } => Ok((conn, ok)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake expected HelloOk, got {other:?}"),
            )),
        }
    }

    /// Send one request and read its response.
    ///
    /// # Errors
    ///
    /// Transport errors propagate; decode failures and unexpected EOF
    /// surface as [`io::ErrorKind::InvalidData`] /
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.inner.write_all(&encode_request(req))?;
        self.read_response()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Write raw bytes — the fuzz tests' door for malformed frames.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)
    }

    /// Read one response frame; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Transport errors propagate; malformed response frames surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_response(&mut self) -> io::Result<Option<Response>> {
        match read_framed(&mut self.inner)? {
            Framed::Eof | Framed::Truncated => Ok(None),
            Framed::Oversize(len) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::Oversize(len),
            )),
            Framed::Body(body) => decode_response(&body)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }
}

/// Serve one connection until the peer hangs up or asks for shutdown.
/// Returns `true` when the peer requested server shutdown.
///
/// Single queries are answered inline; batches of at least 1,024
/// entries fan out on [`netgraph::par`] (`threads` as in
/// [`netgraph::par::resolve_threads`]). Malformed frames get an error
/// reply; the connection closes when the stream cannot be
/// resynchronized (oversize or truncated frames).
///
/// # Errors
///
/// Propagates unexpected transport failures (never decode errors).
pub fn serve(
    mut conn: Conn,
    index: &Arc<ReachIndex>,
    counters: &ServeCounters,
    threads: usize,
) -> io::Result<bool> {
    loop {
        let body = match read_framed(&mut conn.inner)? {
            Framed::Eof => return Ok(false),
            Framed::Truncated => {
                // Best-effort reply; the peer is usually gone already.
                let reply = encode_response(&Response::Error {
                    code: errcode::TRUNCATED,
                    message: FrameError::Truncated.to_string(),
                });
                let _ = conn.inner.write_all(&reply);
                return Ok(false);
            }
            Framed::Oversize(len) => {
                let reply = encode_response(&Response::Error {
                    code: errcode::OVERSIZE,
                    message: FrameError::Oversize(len).to_string(),
                });
                conn.inner.write_all(&reply)?;
                return Ok(false);
            }
            Framed::Body(body) => body,
        };
        let resp = match decode_request(&body) {
            Ok(Request::Hello) => Response::HelloOk {
                n: index.node_count() as u32,
                k: index.broker_count() as u32,
                epoch: index.epoch(),
                max_l: index.max_l() as u8,
            },
            Ok(Request::Query { s, t, l }) => {
                let ans = index.query(NodeId(s), NodeId(t), usize::from(l));
                counters.record(1, usize::from(ans.is_some()), false);
                Response::Answer(ans)
            }
            Ok(Request::Batch(entries)) => {
                let answers = eval_batch(index, &entries, threads);
                let hits = answers.iter().filter(|a| a.is_some()).count();
                counters.record(entries.len(), hits, true);
                Response::BatchAnswers(answers)
            }
            Ok(Request::Stats) => Response::Stats(counters.snapshot(index)),
            Ok(Request::Shutdown) => {
                conn.inner.write_all(&encode_response(&Response::Bye))?;
                return Ok(true);
            }
            Err(e) => {
                let code = match e {
                    FrameError::BadOpcode(_) => errcode::BAD_OPCODE,
                    FrameError::Truncated => errcode::TRUNCATED,
                    FrameError::Oversize(_) => errcode::OVERSIZE,
                    FrameError::Malformed(_) => errcode::MALFORMED,
                };
                Response::Error {
                    code,
                    message: e.to_string(),
                }
            }
        };
        conn.inner.write_all(&encode_response(&resp))?;
    }
}

/// Evaluate a batch in request order; large batches fan out on
/// [`netgraph::par`] in fixed chunks, so results are identical at every
/// thread count.
pub fn eval_batch(
    index: &Arc<ReachIndex>,
    entries: &[(u32, u32, u16)],
    threads: usize,
) -> Vec<Option<StitchAnswer>> {
    const PARALLEL_CUTOVER: usize = 1024;
    if entries.len() < PARALLEL_CUTOVER || threads == 1 {
        return entries
            .iter()
            .map(|&(s, t, l)| index.query(NodeId(s), NodeId(t), usize::from(l)))
            .collect();
    }
    netgraph::par::map_chunks(entries, 256, threads, |chunk| {
        chunk
            .iter()
            .map(|&(s, t, l)| index.query(NodeId(s), NodeId(t), usize::from(l)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_roundtrip() {
        let reqs = [
            Request::Hello,
            Request::Query { s: 3, t: 9, l: 6 },
            Request::Batch(vec![(1, 2, 3), (4, 5, 6)]),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = encode_request(&req);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            assert_eq!(decode_request(&frame[4..]).unwrap(), req);
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let resps = [
            Response::HelloOk {
                n: 100,
                k: 7,
                epoch: 3,
                max_l: 6,
            },
            Response::Answer(Some(StitchAnswer {
                broker: NodeId(5),
                hops_s: 1,
                hops_t: 2,
            })),
            Response::Answer(None),
            Response::BatchAnswers(vec![
                None,
                Some(StitchAnswer {
                    broker: NodeId(0),
                    hops_s: 0,
                    hops_t: 4,
                }),
            ]),
            Response::Stats(ServeStats {
                queries_served: 10,
                hits: 7,
                batches: 1,
                shards_invalidated: 4,
                epoch: 2,
            }),
            Response::Bye,
            Response::Error {
                code: errcode::BAD_OPCODE,
                message: "unknown opcode 0x7f".into(),
            },
        ];
        for resp in resps {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert_eq!(
            decode_request(&[]),
            Err(FrameError::Malformed("empty frame"))
        );
        assert_eq!(decode_request(&[0x7f]), Err(FrameError::BadOpcode(0x7f)));
        assert_eq!(decode_request(&[0x02, 1, 2]), Err(FrameError::Truncated));
        // Batch declaring 2 entries but carrying 1.
        let mut bad = vec![0x03];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; QUERY_BYTES]);
        assert_eq!(
            decode_request(&bad),
            Err(FrameError::Malformed("batch count disagrees with length"))
        );
        // Trailing garbage after a well-formed query.
        let mut frame = encode_request(&Request::Query { s: 1, t: 2, l: 3 });
        frame.push(0xAA);
        assert_eq!(
            decode_request(&frame[4..]),
            Err(FrameError::Malformed("trailing bytes"))
        );
        assert!(FrameError::Oversize(MAX_FRAME + 1)
            .to_string()
            .contains("declares"));
    }

    #[test]
    fn eval_batch_answers_in_request_order_at_every_thread_count() {
        use rand::{Rng, SeedableRng};
        let net = topology::InternetConfig::scaled(topology::Scale::Tiny).generate(7);
        let g = net.graph();
        let n = g.node_count() as u32;
        let sel = brokerset::max_subgraph_greedy(g, 40);
        let index = Arc::new(ReachIndex::build(g, sel.brokers(), 6, 1));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5_000);
        let entries: Vec<(u32, u32, u16)> = (0..5_000)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..7u16),
                )
            })
            .collect();
        let expect: Vec<Option<StitchAnswer>> = entries
            .iter()
            .map(|&(s, t, l)| index.query(NodeId(s), NodeId(t), usize::from(l)))
            .collect();
        assert!(expect.iter().any(Option::is_some) && expect.iter().any(Option::is_none));
        for threads in [1, 2, 4, 0] {
            let got = eval_batch(&index, &entries, threads);
            assert!(got == expect, "threads = {threads}: answers diverged");
        }
    }

    #[test]
    fn framed_reader_handles_eof_truncation_oversize() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_framed(&mut empty).unwrap(), Framed::Eof));
        let mut partial: &[u8] = &[3, 0];
        assert!(matches!(
            read_framed(&mut partial).unwrap(),
            Framed::Truncated
        ));
        let mut short_body: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(matches!(
            read_framed(&mut short_body).unwrap(),
            Framed::Truncated
        ));
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut oversize: &[u8] = &huge;
        assert!(matches!(
            read_framed(&mut oversize).unwrap(),
            Framed::Oversize(_)
        ));
    }
}
