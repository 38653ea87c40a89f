//! The workloads, their input sizes, and everything generated from the
//! seed: the paper's broker budgets, the query stream and the fault
//! cycle. The program under test receives only these inputs.

use brokerset::StitchAnswer;
use netgraph::{FaultSchedule, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topology::Scale;

/// The EXPERIMENTS.md anchor topology. The query and churn workloads
/// serve it whatever the run's seed, which drives their query stream
/// and fault cycle; only paper-pipeline generates from the run's seed.
pub const ANCHOR_SEED: u64 = 2014;
/// Hop cap of every index, as in brokerd and the paper's l ≤ 6 horizon.
pub const MAX_L: usize = 6;
/// Queries per `BATCH` frame.
pub const BATCH: usize = 512;
/// Epochs in one fault cycle; the last one returns to all-clear.
pub const CYCLE_EPOCHS: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPipeline,
    QueryBatch,
    QuerySingle,
    IndexChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperPipeline,
        Workload::QueryBatch,
        Workload::QuerySingle,
        Workload::IndexChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper-pipeline",
            Workload::QueryBatch => "query-batch",
            Workload::QuerySingle => "query-single",
            Workload::IndexChurn => "index-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one run. [`Size::bench`] is what the benchmark
/// measures; [`Size::tiny`] lets the tests drive every workload in
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub scale: Scale,
    /// Queries in the seeded stream (index-churn splits it into one
    /// read window per epoch of the cycle).
    pub stream: usize,
    /// Answers checked against `exact_query`: the stream prefix on the
    /// query workloads, per epoch on index-churn.
    pub exact_checks: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Whether the seed-2014 checksums pinned in `main.rs` apply.
    pub pinned: bool,
}

impl Size {
    pub fn bench(w: Workload) -> Self {
        match w {
            // paper-pipeline's set-up is each rep's generate step, so
            // `setups` only matters for the other three.
            Workload::PaperPipeline | Workload::QueryBatch | Workload::QuerySingle => Size {
                scale: Scale::Quarter,
                stream: 256 * BATCH,
                exact_checks: 1000,
                setups: 5,
                pinned: true,
            },
            Workload::IndexChurn => Size {
                scale: Scale::Full,
                stream: CYCLE_EPOCHS as usize * 20_000,
                exact_checks: 32,
                setups: 3,
                pinned: true,
            },
        }
    }

    pub fn tiny() -> Self {
        Size {
            scale: Scale::Tiny,
            stream: 16 * BATCH,
            exact_checks: 16,
            setups: 2,
            pinned: false,
        }
    }

    /// The scale as brokerd's command line spells it.
    pub fn scale_arg(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Quarter => "quarter",
            Scale::Full => "full",
        }
    }
}

/// The paper's three broker budgets (0.19 %, 1.9 %, 6.8 % of nodes),
/// rounded as the bench harness (and so brokerd) rounds them.
pub fn paper_budgets(n: usize) -> [usize; 3] {
    [0.0019, 0.019, 0.068].map(|frac| ((n as f64 * frac).round() as usize).max(1))
}

/// Uniform `(s, t, l)` queries with `l` in `1..=MAX_L`.
pub fn query_stream(n: usize, count: usize, seed: u64) -> Vec<(u32, u32, u16)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(1..=MAX_L as u16),
            )
        })
        .collect()
}

/// An 8-epoch fault cycle: broker defections, node failures and edge
/// cuts, then staged recovery, so epoch 8 is all-clear again and the
/// cycle can repeat. Every epoch changes something.
pub fn fault_cycle(g: &Graph, roster: &[NodeId], seed: u64) -> FaultSchedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a05);
    let n = g.node_count() as u32;
    let mut brokers: Vec<NodeId> = Vec::new();
    while brokers.len() < 5.min(roster.len()) {
        let b = roster[rng.gen_range(0..roster.len())];
        if !brokers.contains(&b) {
            brokers.push(b);
        }
    }
    let nodes: Vec<NodeId> = (0..6).map(|_| NodeId(rng.gen_range(0..n))).collect();
    let mut edges = Vec::new();
    while edges.len() < 4 {
        let u = NodeId(rng.gen_range(0..n));
        let nbrs = g.neighbors(u);
        if !nbrs.is_empty() {
            edges.push((u, nbrs[rng.gen_range(0..nbrs.len())]));
        }
    }
    let (early, late) = brokers.split_at(brokers.len().min(3));
    let mut sched = FaultSchedule::new(g.node_count());
    for &b in early {
        sched.fail_broker(1, b);
        sched.recover_broker(5, b);
    }
    for (i, &v) in nodes.iter().enumerate() {
        sched.fail_node(if i < 4 { 2 } else { 4 }, v);
        sched.recover_node(6, v);
    }
    for &(u, v) in &edges {
        sched.fail_edge(3, u, v);
        sched.recover_edge(7, u, v);
    }
    for &b in late {
        sched.fail_broker(4, b);
        sched.recover_broker(CYCLE_EPOCHS, b);
    }
    sched
}

/// First mismatch between served and expected answers, as a message.
pub fn diff_answers(got: &[Option<StitchAnswer>], want: &[Option<StitchAnswer>]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} answers for {} queries", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .map(|i| format!("answer {i}: got {:?}, want {:?}", got[i], want[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_the_harness() {
        assert_eq!(paper_budgets(52_079), [99, 990, 3541]);
        assert_eq!(paper_budgets(13_020), [25, 247, 885]);
    }

    #[test]
    fn fault_cycle_returns_to_all_clear() {
        let net = topology::InternetConfig::scaled(Scale::Tiny).generate(7);
        let g = net.graph();
        let roster: Vec<NodeId> = g.nodes().step_by(50).collect();
        let sched = fault_cycle(g, &roster, 7);
        for e in 1..CYCLE_EPOCHS {
            assert!(
                !sched.state_at(e).is_clear(),
                "epoch {e} should carry faults"
            );
        }
        assert!(sched.state_at(CYCLE_EPOCHS).is_clear());
        assert_eq!(query_stream(100, 50, 3), query_stream(100, 50, 3));
    }
}
