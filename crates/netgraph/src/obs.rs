//! Always-on observability: counters, log2 histograms, span timers.
//!
//! The traversal/evaluation stack (msbfs, the arena pool, the parallel
//! executor, the connectivity evaluators) is deliberately a black box in
//! release builds — no prints, no logging dependencies. This module makes
//! its internal behaviour inspectable in every build, without a rebuild
//! and without a dependency:
//!
//! - **Counters** and **histograms** are `static`s registered lazily in a
//!   global registry. The hot path of [`counter!`](crate::counter) is one
//!   completed-`Once` check plus one `fetch_add(Relaxed)`; a
//!   [`histogram!`](crate::histogram) record adds one `leading_zeros`
//!   bucket computation. No locks, no allocation, no formatting. Call
//!   sites keep that cost off per-vertex paths: a kernel sums its work in
//!   a local and records it once per level or traversal.
//! - Metrics only observe: nothing reads them back into a decision, so
//!   results are the same with or without anyone looking (the goldens and
//!   pinned bench checksums hold that).
//! - **Span timers** ([`span!`](crate::span)) are RAII guards that record
//!   elapsed wall-clock nanoseconds into a histogram on drop. This module
//!   is the only product-library home of `std::time::Instant` (rule R8,
//!   enforced by `clippy.toml`).
//! - A [`Snapshot`] captures every registered metric, merged by name and
//!   sorted, and serializes to JSON with a hand-rolled writer — snapshots
//!   of the same program state are deterministic byte-for-byte.
//!   [`Snapshot::digest`] renders the one-line summary the binaries print.
//!
//! Metrics are process-global and cumulative; [`reset`] zeroes them (for
//! delta measurements and tests). All mutation is relaxed-atomic: totals
//! are exact because every increment lands, even though a snapshot taken
//! *concurrently* with running work may see a mid-flight mix.
//!
//! ## Naming convention
//!
//! `layer.metric` with dots: `msbfs.levels`, `arena.pool.acquire`,
//! `par.chunks_per_worker`. Two macro call sites may share a name; their
//! contributions merge in the snapshot.
#![expect(
    clippy::disallowed_types,
    reason = "R8: the obs layer owns the clock that span! reads"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (`i ≥ 1`) holds values in `[2^(i-1), 2^i - 1]`. 64 value buckets cover
/// the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Lower bound of histogram bucket `i` (see [`HISTOGRAM_BUCKETS`]).
///
/// # Panics
///
/// Panics when `i >= HISTOGRAM_BUCKETS`.
pub fn bucket_low(i: usize) -> u64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The bucket index a value lands in: 0 for 0, else `64 - leading_zeros`.
#[expect(
    clippy::disallowed_methods,
    reason = "R7: a log2 histogram bucket is one word op, not a bitset"
)]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (u64::BITS - v.leading_zeros()) as usize
    }
}

/// A named monotonically increasing (modulo `u64` wrap) counter.
///
/// Designed to live in a `static` (see [`counter!`](crate::counter)):
/// construction is `const`, registration happens on first use.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: Once,
    next: Link,
}

impl Counter {
    /// A zeroed counter named `name` (const; use in a `static`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: Once::new(),
            next: OnceLock::new(),
        }
    }

    /// Add `n` (wrapping on `u64` overflow, like the underlying
    /// `fetch_add`). First call registers the counter globally.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.registered
            .call_once(|| register(Metric::Counter(self)));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named log2-bucketed histogram of `u64` samples.
///
/// Tracks per-bucket counts plus the exact total count and sum, so a
/// snapshot can report both the distribution shape and the mean.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: Once,
    next: Link,
}

impl Histogram {
    /// An empty histogram named `name` (const; use in a `static`).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: Once::new(),
            next: OnceLock::new(),
        }
    }

    /// Record one sample. First call registers the histogram.
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.registered
            .call_once(|| register(Metric::Histogram(self)));
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `(count, sum, per-bucket counts)` at this instant.
    pub fn read(&self) -> (u64, u64, [u64; HISTOGRAM_BUCKETS]) {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            buckets,
        )
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An RAII span timer: created via [`span!`](crate::span), records
/// the elapsed wall-clock nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct Span {
    hist: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Start timing; the guard records into `hist` when dropped.
    pub fn start(hist: &'static Histogram) -> Span {
        Span {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
    }
}

/// A registered metric (static counters/histograms, by reference).
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

impl Metric {
    /// The link to the metric registered just before this one.
    fn next(self) -> &'static Link {
        match self {
            Metric::Counter(c) => &c.next,
            Metric::Histogram(h) => &h.next,
        }
    }
}

impl std::fmt::Debug for Metric {
    // The name only: following the links would print the whole registry.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Counter(c) => write!(f, "Counter({:?})", c.name),
            Metric::Histogram(h) => write!(f, "Histogram({:?})", h.name),
        }
    }
}

/// A metric's place in the registry: the metric registered before it,
/// set once, when it registers.
type Link = OnceLock<Option<Metric>>;

/// The registry is an intrusive list threaded through the metric
/// statics themselves, newest first, so registering allocates nothing:
/// instrumented code leaves the heap exactly as uninstrumented code
/// would (peak RSS included).
static REGISTRY: Mutex<Option<Metric>> = Mutex::new(None);

fn register(m: Metric) {
    let mut head = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    // `register` runs once per metric (under its `Once`), so the link is
    // still empty here.
    let _ = m.next().set(*head);
    *head = Some(m);
}

/// Every registered metric, newest first.
fn registered() -> impl Iterator<Item = Metric> {
    let head = *REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    std::iter::successors(head, |m| m.next().get().copied().flatten())
}

/// Capture every registered metric. Empty until something is recorded.
pub fn snapshot() -> Snapshot {
    // Merge by name (two macro sites may share one metric name);
    // BTreeMap gives the deterministic name-sorted order for free.
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&str, (u64, u64, [u64; HISTOGRAM_BUCKETS])> = BTreeMap::new();
    for m in registered() {
        match m {
            Metric::Counter(c) => {
                let entry = counters.entry(c.name()).or_insert(0);
                *entry = entry.wrapping_add(c.get());
            }
            Metric::Histogram(h) => {
                let (count, sum, buckets) = h.read();
                let entry = hists
                    .entry(h.name())
                    .or_insert((0, 0, [0u64; HISTOGRAM_BUCKETS]));
                entry.0 = entry.0.wrapping_add(count);
                entry.1 = entry.1.wrapping_add(sum);
                for (slot, b) in entry.2.iter_mut().zip(buckets) {
                    *slot = slot.wrapping_add(b);
                }
            }
        }
    }
    Snapshot {
        counters: counters
            .into_iter()
            .map(|(name, value)| CounterSnapshot {
                name: name.to_string(),
                value,
            })
            .collect(),
        histograms: hists
            .into_iter()
            .map(|(name, (count, sum, buckets))| HistogramSnapshot {
                name: name.to_string(),
                count,
                sum,
                buckets: buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(i, &c)| BucketCount {
                        low: bucket_low(i),
                        count: c,
                    })
                    .collect(),
            })
            .collect(),
    }
}

impl crate::Validate for Counter {
    /// Audit the naming convention: a counter must carry a non-empty
    /// dotted `layer.metric` name (the registry merges by name, so a
    /// blank or undotted name silently aliases metrics).
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::obs::Counter");
        rep.check("counter.named", !self.name.is_empty(), || {
            "empty metric name".into()
        });
        rep.check("counter.dotted-name", self.name.contains('.'), || {
            format!("name {:?} lacks a layer prefix", self.name)
        });
        rep
    }
}

impl crate::Validate for Histogram {
    /// Re-derive the histogram's counting invariant: the total count
    /// equals the sum of the per-bucket counts (every recorded sample
    /// landed in exactly one bucket), plus the naming convention.
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::obs::Histogram");
        rep.check("histogram.named", !self.name.is_empty(), || {
            "empty metric name".into()
        });
        rep.check("histogram.dotted-name", self.name.contains('.'), || {
            format!("name {:?} lacks a layer prefix", self.name)
        });
        let count = self.count.load(Ordering::SeqCst);
        let bucket_total: u64 = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .fold(0u64, u64::wrapping_add);
        rep.check("histogram.count-consistent", count == bucket_total, || {
            format!("count {count}, bucket total {bucket_total}")
        });
        rep
    }
}

/// Zero every registered metric (names stay registered).
pub fn reset() {
    for m in registered() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (`layer.metric`).
    pub name: String,
    /// Cumulative value at snapshot time.
    pub value: u64,
}

/// One non-empty histogram bucket in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket ([`bucket_low`]).
    pub low: u64,
    /// Samples that landed in the bucket.
    pub count: u64,
}

/// One histogram in a [`Snapshot`]: totals plus the non-zero buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (`layer.metric`).
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Non-empty buckets, ascending by lower bound.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time capture of every registered metric, merged by name and
/// sorted, so two snapshots of identical program state render to
/// identical JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// All counters, ascending by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, ascending by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the counter called `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render as a self-contained JSON document (deterministic: metrics
    /// are name-sorted and the writer emits no insignificant whitespace
    /// variation).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(&c.name), c.value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_escape(&h.name),
                h.count,
                h.sum
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {}]", b.low, b.count));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// One-line human digest: the numbers a profiling run checks first.
    /// Counters that were never recorded read as 0.
    pub fn digest(&self) -> String {
        let c = |name: &str| self.counter(name).unwrap_or(0);
        let rate = |hit: &str, miss: &str| {
            let (hit, miss) = (c(hit), c(miss));
            if hit + miss == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * hit as f64 / (hit + miss) as f64)
            }
        };
        format!(
            "arena runs {} (pool hit {}) | msbfs runs {} (pool hit {}) levels {} | \
             push/pull expansions {}/{} | valley-free expansions {} | \
             par chunks {}",
            c("arena.runs"),
            rate("arena.pool.acquire", "arena.pool.fresh"),
            c("msbfs.runs"),
            rate("msbfs.pool.acquire", "msbfs.pool.fresh"),
            c("msbfs.levels"),
            c("msbfs.push_expansions"),
            c("msbfs.pull_expansions"),
            c("valleyfree.state_expansions"),
            c("par.chunks"),
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Bump a named counter: `counter!("msbfs.levels")` adds 1,
/// `counter!("msbfs.levels", n)` adds `n` (a `u64`). Evaluates to `()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        static __OBS_COUNTER: $crate::obs::Counter = $crate::obs::Counter::new($name);
        __OBS_COUNTER.add($n);
    }};
}

/// Record a `u64` sample into a named log2 histogram:
/// `histogram!("par.chunks_per_worker", n)`. Evaluates to `()`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        static __OBS_HISTOGRAM: $crate::obs::Histogram = $crate::obs::Histogram::new($name);
        __OBS_HISTOGRAM.record($v);
    }};
}

/// Start a span timer recording elapsed nanoseconds into the named
/// histogram when the returned guard drops:
/// `let _span = netgraph::span!("table3.curve");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __OBS_SPAN: $crate::obs::Histogram = $crate::obs::Histogram::new($name);
        $crate::obs::Span::start(&__OBS_SPAN)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Validate;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..HISTOGRAM_BUCKETS {
            // Every bucket's lower bound maps back into that bucket.
            assert_eq!(bucket_index(bucket_low(i)), i, "bucket {i}");
        }
        assert_eq!(bucket_low(0), 0);
        assert_eq!(bucket_low(1), 1);
        assert_eq!(bucket_low(5), 16);
    }

    #[test]
    fn empty_snapshot_shapes() {
        let s = Snapshot::default();
        assert_eq!(s.counter("nope"), None);
        assert!(s.histogram("nope").is_none());
        let json = s.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(s.digest().contains("arena runs 0 (pool hit n/a)"));
    }

    #[test]
    fn digest_reports_rates_and_counts() {
        let counter = |name: &str, value| CounterSnapshot {
            name: name.into(),
            value,
        };
        let s = Snapshot {
            counters: vec![
                counter("arena.pool.acquire", 3),
                counter("arena.pool.fresh", 1),
                counter("msbfs.push_expansions", 7),
                counter("msbfs.pull_expansions", 2),
            ],
            histograms: Vec::new(),
        };
        let d = s.digest();
        assert!(d.contains("(pool hit 75.0%)"), "{d}");
        assert!(d.contains("push/pull expansions 7/2"), "{d}");
        assert!(d.contains("msbfs runs 0 (pool hit n/a)"), "{d}");
    }

    #[test]
    fn registry_links_each_metric_once() {
        static A: Counter = Counter::new("test.registry_a");
        static H: Histogram = Histogram::new("test.registry_h");
        A.add(2);
        A.add(3);
        H.record(7);
        H.record(7);
        let names: Vec<String> = registered().map(|m| format!("{m:?}")).collect();
        for name in [
            "Counter(\"test.registry_a\")",
            "Histogram(\"test.registry_h\")",
        ] {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{names:?}");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.registry_a"), Some(5));
        assert_eq!(snap.histogram("test.registry_h").map(|h| h.count), Some(2));
    }

    #[test]
    fn json_escaping_in_names() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain.name"), "plain.name");
    }

    #[test]
    fn histogram_snapshot_mean() {
        let h = HistogramSnapshot {
            name: "x".into(),
            count: 4,
            sum: 10,
            buckets: Vec::new(),
        };
        assert!((h.mean() - 2.5).abs() < 1e-12);
        let empty = HistogramSnapshot {
            name: "y".into(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn metric_audits_accept_and_detect_corruption() {
        assert!(Counter::new("layer.metric").audit().is_ok());
        assert!(Histogram::new("layer.latency").audit().is_ok());

        // Naming-convention violations.
        assert!(Counter::new("")
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "counter.named"));
        assert!(Counter::new("flat")
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "counter.dotted-name"));
        assert!(!Histogram::new("flat").audit().is_ok());

        // Counting invariant: bump the total without any bucket
        // landing a sample (requires private access — the public
        // `record` path keeps them in sync by construction).
        let h = Histogram::new("layer.broken");
        h.count.store(3, Ordering::SeqCst);
        assert!(h
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "histogram.count-consistent"));
    }
}
