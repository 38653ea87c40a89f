//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer was made), the
//! span that encloses it, the id of the rep, frame, block or epoch it
//! belongs to, and the number of work items it covers (queries in an
//! `index.read` block, frames in a `proto.*` block), so per-item costs
//! need no timer call per item. A span's self time is its duration
//! minus the durations of its children; spans nest strictly (one
//! thread), so children never overlap.
//!
//! Counts (index bytes, shards rebuilt, frame sizes, ...) are recorded
//! by name at the same boundaries, so ratios come from where the work
//! happens.
//!
//! A disabled tracer records nothing: `open` returns `None` and `close`
//! ignores it, which is the whole cost of tracing in an untraced run.

use crate::measure::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
    items: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Record one observation of the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Every observation of the count `name`, in recording order.
    pub fn counted(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span covering `items` work items of rep/frame/epoch `id`.
    pub fn open(&mut self, name: &'static str, id: u64, items: u64) -> Open {
        if !self.on {
            return None;
        }
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            items,
        });
        self.stack.push(at);
        Some(at)
    }

    pub fn close(&mut self, open: Open) {
        let Some(at) = open else { return };
        let end = self.now_ns();
        debug_assert_eq!(
            self.stack.last(),
            Some(&at),
            "spans must close innermost first"
        );
        self.stack.pop();
        self.spans[at].end_ns = end;
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, items: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, id, items);
        let out = f();
        self.close(open);
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Median duration of the spans called `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.named(name).map(|(_, s)| s.secs()).collect::<Vec<_>>())
    }

    /// Median over the spans called `name` of duration ÷ items, in
    /// seconds per item.
    pub fn median_per_item_s(&self, name: &str) -> f64 {
        let per: Vec<f64> = self
            .named(name)
            .map(|(_, s)| s.secs() / s.items.max(1) as f64)
            .collect();
        median(&per)
    }

    /// A position in the span list, for [`Tracer::per_item_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Sum of duration ÷ items over the spans opened since `mark`, in
    /// seconds: the per-item cost of the steps they cover.
    pub fn per_item_since(&self, mark: usize) -> f64 {
        self.spans[mark..]
            .iter()
            .map(|s| s.secs() / s.items.max(1) as f64)
            .sum()
    }

    /// Total items covered by the spans called `name`.
    pub fn items(&self, name: &str) -> u64 {
        self.named(name).map(|(_, s)| s.items).sum()
    }

    /// Self time of every span (duration minus its children's).
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Median self time of the spans called `name`, in seconds.
    pub fn median_self_s(&self, name: &str) -> f64 {
        let own = self.self_secs();
        median(&self.named(name).map(|(i, _)| own[i]).collect::<Vec<_>>())
    }

    /// Share of the total duration of the `outer` spans covered by their
    /// direct children called one of `inner`.
    pub fn coverage(&self, outer: &str, inner: &[&str]) -> f64 {
        let total: f64 = self.named(outer).map(|(_, s)| s.secs()).sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| inner.contains(&s.name))
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == outer))
            .map(Span::secs)
            .sum();
        covered / total
    }

    /// The spans as JSON, with `meta` as extra top-level string fields.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let own = self.self_secs();
        let mut out = String::from("{");
        for (k, v) in meta {
            let _ = write!(out, "\"{k}\":\"{v}\",");
        }
        out.push_str("\"counts\":{");
        for (i, (name, values)) in self.counts.iter().enumerate() {
            let list: Vec<String> = values
                .iter()
                .map(|v| {
                    if v.is_finite() {
                        v.to_string()
                    } else {
                        "null".into()
                    }
                })
                .collect();
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n\"{name}\":[{}]", list.join(","));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"items\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.items,
                (own[i] * 1e9).round() as i64
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 0, 1);
        t.time("inner", 0, 4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let outer_s = t.median_s("outer");
        let inner_s = t.median_s("inner");
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert!((t.median_self_s("outer") - (outer_s - inner_s)).abs() < 1e-9);
        assert!((t.median_per_item_s("inner") - inner_s / 4.0).abs() < 1e-12);
        assert!(t.coverage("outer", &["inner"]) > 0.5);
        assert!(t
            .to_json(&[("workload", "x".into())])
            .contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open("outer", 0, 1);
        assert!(open.is_none());
        t.close(open);
        assert_eq!(t.time("inner", 0, 1, || 7), 7);
        assert!(t.median_s("inner").is_nan());
    }
}
