//! Chaos harness: epoch-by-epoch connectivity under a
//! [`FaultSchedule`], with graceful degradation instead of errors.
//!
//! The failure process is an arbitrary serializable timeline — broker
//! defections (a [`crate::FailureOrder`] schedule removes the selection
//! batch by batch), node outages, link cuts, correlated groups,
//! recoveries — and every epoch is evaluated as a pure function of the
//! schedule state, so the trace is bit-identical at every thread count
//! and across a schedule save/load round trip.
//!
//! **Graceful degradation.** When faults mask part of the measurement
//! itself (a sampled BFS source goes down with its vertex), the
//! evaluator does not error and does not silently pretend: each
//! [`ChaosStep`] carries a [`Degradation`] record naming exactly which
//! brokers were out of service and which sources were unevaluable and
//! why, and a [`DegradationCertificate`] re-derives all of it
//! independently from the schedule through the standard [`Validate`]
//! machinery.
//!
//! Metric conventions at a degraded epoch:
//!
//! - saturated connectivity keeps the all-pairs denominator `n(n-1)` —
//!   a failed vertex reaches nobody, which *is* lost connectivity;
//! - the l-hop value averages over the surviving sources only (failed
//!   sources are skipped, not counted as zero), mirroring
//!   [`crate::connectivity::lhop_curve`]'s estimator over the sources it
//!   actually ran.

use crate::connectivity::{run_sources_over, SourceMode};
use crate::problem::BrokerSelection;
use crate::validate::{AuditReport, Validate};
use netgraph::components::view_components;
use netgraph::{par, DominatedView, FaultSchedule, FaultState, Graph, MaskedView, NodeId};
use serde::{Deserialize, Serialize};

/// What one epoch's evaluation could not cover, and why. All fields are
/// re-derivable from the schedule — see [`DegradationCertificate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degradation {
    /// Selected brokers out of service this epoch (defected via a
    /// broker-role event, or down with their vertex), ascending by id.
    pub failed_brokers: Vec<NodeId>,
    /// BFS sources that could not be evaluated because their vertex is
    /// down this epoch, in sample order.
    pub skipped_sources: Vec<NodeId>,
    /// Vertices masked from the graph this epoch.
    pub masked_nodes: usize,
    /// Undirected edges cut this epoch (beyond those lost to masked
    /// vertices).
    pub masked_edges: usize,
}

impl Degradation {
    /// Whether the epoch was evaluated at full fidelity (nothing failed,
    /// nothing skipped).
    pub fn is_clean(&self) -> bool {
        self.failed_brokers.is_empty()
            && self.skipped_sources.is_empty()
            && self.masked_nodes == 0
            && self.masked_edges == 0
    }
}

/// One epoch of a [`ChaosTrace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosStep {
    /// Epoch index in `0..schedule.horizon()`.
    pub epoch: u32,
    /// Brokers still in service.
    pub alive_brokers: usize,
    /// Saturated E2E connectivity over the degraded dominated edge set
    /// (denominator `n(n-1)`).
    pub saturated: f64,
    /// `F_B(max_l)` over the degraded dominated edge set, when a hop
    /// bound was requested; averaged over surviving sources.
    pub lhop: Option<f64>,
    /// What this epoch could not cover.
    pub degradation: Degradation,
}

impl ChaosStep {
    /// Share of the selection out of service this epoch:
    /// failed ÷ (alive + failed), 0 for an empty selection.
    pub fn removed_fraction(&self) -> f64 {
        let failed = self.degradation.failed_brokers.len();
        failed as f64 / (self.alive_brokers + failed).max(1) as f64
    }
}

/// A degradation/recovery curve: one [`ChaosStep`] per schedule epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosTrace {
    /// Per-epoch measurements, epoch order.
    pub steps: Vec<ChaosStep>,
    /// The hop bound the `lhop` column was evaluated at, if any.
    pub max_l: Option<usize>,
}

impl ChaosTrace {
    /// The saturated-connectivity curve, epoch order.
    pub fn saturated_curve(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.saturated).collect()
    }

    /// Connectivity lost between the first epoch and the worst epoch.
    pub fn max_degradation(&self) -> f64 {
        let first = self.steps.first().map_or(0.0, |s| s.saturated);
        let worst = self
            .steps
            .iter()
            .map(|s| s.saturated)
            .fold(f64::INFINITY, f64::min);
        if worst.is_finite() {
            first - worst
        } else {
            0.0
        }
    }

    /// Connectivity regained between the worst epoch and the last epoch
    /// (how much the recovery events bought back).
    pub fn recovered(&self) -> f64 {
        let last = self.steps.last().map_or(0.0, |s| s.saturated);
        let worst = self
            .steps
            .iter()
            .map(|s| s.saturated)
            .fold(f64::INFINITY, f64::min);
        if worst.is_finite() {
            last - worst
        } else {
            0.0
        }
    }
}

/// [`chaos_trace_threaded`] on one thread.
pub fn chaos_trace(
    g: &Graph,
    sel: &BrokerSelection,
    schedule: &FaultSchedule,
    max_l: Option<usize>,
    mode: SourceMode,
) -> ChaosTrace {
    chaos_trace_threaded(g, sel, schedule, max_l, mode, 1)
}

/// Evaluate `sel` under `schedule`, one [`ChaosStep`] per epoch, with
/// per-epoch evaluations fanned out on `threads` workers (`0` = all
/// hardware threads) via [`netgraph::par`].
///
/// Each epoch is a pure function of [`FaultSchedule::state_at`], so the
/// trace is bit-identical at every thread count. With `max_l = Some(l)`
/// every epoch also gets an l-hop value over the sources `mode` resolves
/// to (minus any masked this epoch).
pub fn chaos_trace_threaded(
    g: &Graph,
    sel: &BrokerSelection,
    schedule: &FaultSchedule,
    max_l: Option<usize>,
    mode: SourceMode,
    threads: usize,
) -> ChaosTrace {
    let sources_all: Vec<NodeId> = if max_l.is_some() {
        mode.sources(g.node_count())
    } else {
        Vec::new()
    };
    let epochs: Vec<u32> = (0..schedule.horizon()).collect();
    // Epochs are few and heavy, so map_auto's adaptive chunking (floor
    // 1) fans them out. Each step is a pure function of its epoch, so
    // chunk boundaries cannot change the trace.
    let steps: Vec<ChaosStep> = par::map_auto(&epochs, threads, |&epoch| {
        let state = schedule.state_at(epoch);
        netgraph::counter!("chaos.epochs", 1);
        netgraph::counter!("chaos.masked_nodes", state.failed_nodes().len() as u64);
        eval_epoch(g, sel, &state, max_l, &sources_all)
    });
    ChaosTrace { steps, max_l }
}

/// Evaluate one epoch: pure function of `(g, sel, state)`.
fn eval_epoch(
    g: &Graph,
    sel: &BrokerSelection,
    state: &FaultState,
    max_l: Option<usize>,
    sources_all: &[NodeId],
) -> ChaosStep {
    let n = g.node_count();
    // A broker is out of service if its role defected OR its vertex is
    // down — a dead vertex cannot supervise anything.
    let mut alive = sel.brokers().clone();
    alive.difference_with(state.failed_brokers());
    alive.difference_with(state.failed_nodes());
    let failed_brokers: Vec<NodeId> = sel
        .brokers()
        .iter()
        .filter(|&b| !alive.contains(b))
        .collect();

    let view = MaskedView::new(
        DominatedView::new(g, &alive),
        Some(state.failed_nodes()),
        Some(state.failed_edges()),
    );
    let comps = view_components(&view);
    let connected = comps.connected_ordered_pairs();
    let total = (n as u64).saturating_mul((n as u64).saturating_sub(1));
    let saturated = if total == 0 {
        0.0
    } else {
        connected as f64 / total as f64
    };

    let (sources, skipped_sources): (Vec<NodeId>, Vec<NodeId>) = sources_all
        .iter()
        .partition(|&&s| !state.failed_nodes().contains(s));
    let lhop = max_l.map(|l| {
        if n < 2 || l == 0 || sources.is_empty() {
            return 0.0;
        }
        let cum = run_sources_over(view, n, l, &sources, None);
        let denom = sources.len() as f64 * (n as f64 - 1.0);
        cum[l - 1] as f64 / denom
    });

    ChaosStep {
        epoch: state.epoch(),
        alive_brokers: alive.len(),
        saturated,
        lhop,
        degradation: Degradation {
            failed_brokers,
            skipped_sources,
            masked_nodes: state.failed_nodes().len(),
            masked_edges: state.failed_edges().len(),
        },
    }
}

/// Machine-checkable claim that a [`ChaosTrace`]'s partial results are
/// exactly as partial as the schedule forces them to be — no more, no
/// less. The audit re-derives every [`Degradation`] record independently
/// from the schedule and cross-checks the trace against it.
#[derive(Debug, Clone, Copy)]
pub struct DegradationCertificate<'a> {
    g: &'a Graph,
    sel: &'a BrokerSelection,
    schedule: &'a FaultSchedule,
    mode: SourceMode,
    trace: &'a ChaosTrace,
}

impl<'a> DegradationCertificate<'a> {
    /// Certify `trace` as the evaluation of `sel` under `schedule` with
    /// sources drawn per `mode`.
    pub fn new(
        g: &'a Graph,
        sel: &'a BrokerSelection,
        schedule: &'a FaultSchedule,
        mode: SourceMode,
        trace: &'a ChaosTrace,
    ) -> Self {
        DegradationCertificate {
            g,
            sel,
            schedule,
            mode,
            trace,
        }
    }
}

impl Validate for DegradationCertificate<'_> {
    fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new("DegradationCertificate");
        report.absorb(self.schedule.audit());
        report.check(
            "one step per schedule epoch",
            self.trace.steps.len() == self.schedule.horizon() as usize
                && self
                    .trace
                    .steps
                    .iter()
                    .enumerate()
                    .all(|(i, s)| s.epoch == i as u32),
            || {
                format!(
                    "trace has {} steps for horizon {}",
                    self.trace.steps.len(),
                    self.schedule.horizon()
                )
            },
        );
        let sources_all: Vec<NodeId> = if self.trace.max_l.is_some() {
            self.mode.sources(self.g.node_count())
        } else {
            Vec::new()
        };
        for step in &self.trace.steps {
            let state = self.schedule.state_at(step.epoch);
            let d = &step.degradation;
            let expect_failed: Vec<NodeId> = self
                .sel
                .brokers()
                .iter()
                .filter(|&b| state.failed_brokers().contains(b) || state.failed_nodes().contains(b))
                .collect();
            report.check(
                "failed brokers match the schedule state",
                d.failed_brokers == expect_failed,
                || {
                    format!(
                        "epoch {}: claims {:?}, schedule forces {:?}",
                        step.epoch, d.failed_brokers, expect_failed
                    )
                },
            );
            report.check(
                "alive + failed partitions the selection",
                step.alive_brokers + d.failed_brokers.len() == self.sel.len(),
                || {
                    format!(
                        "epoch {}: alive {} + failed {} != selected {}",
                        step.epoch,
                        step.alive_brokers,
                        d.failed_brokers.len(),
                        self.sel.len()
                    )
                },
            );
            report.check(
                "masked element counts match the schedule state",
                d.masked_nodes == state.failed_nodes().len()
                    && d.masked_edges == state.failed_edges().len(),
                || {
                    format!(
                        "epoch {}: claims {}/{} masked, schedule forces {}/{}",
                        step.epoch,
                        d.masked_nodes,
                        d.masked_edges,
                        state.failed_nodes().len(),
                        state.failed_edges().len()
                    )
                },
            );
            let expect_skipped: Vec<NodeId> = sources_all
                .iter()
                .copied()
                .filter(|&s| state.failed_nodes().contains(s))
                .collect();
            report.check(
                "skipped sources are exactly the masked sources",
                d.skipped_sources == expect_skipped,
                || {
                    format!(
                        "epoch {}: claims {} skipped, schedule forces {}",
                        step.epoch,
                        d.skipped_sources.len(),
                        expect_skipped.len()
                    )
                },
            );
            report.check(
                "clean epochs carry clean records",
                !state.is_clear() || d.is_clean(),
                || format!("epoch {}: clear state but degraded record", step.epoch),
            );
            report.check(
                "metrics in range",
                (0.0..=1.0).contains(&step.saturated)
                    && step.lhop.is_none_or(|l| (0.0..=1.0).contains(&l))
                    && step.lhop.is_some() == self.trace.max_l.is_some(),
                || {
                    format!(
                        "epoch {}: saturated {} lhop {:?}",
                        step.epoch, step.saturated, step.lhop
                    )
                },
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{lhop_curve, saturated_connectivity};
    use crate::maxsg::max_subgraph_greedy;
    use netgraph::FaultGroup;
    use topology::{InternetConfig, Scale};

    fn setup() -> (Graph, BrokerSelection) {
        let net = InternetConfig::scaled(Scale::Tiny).generate(88);
        let g = net.graph().clone();
        let sel = max_subgraph_greedy(&g, 70);
        (g, sel)
    }

    fn mixed_schedule(g: &Graph, sel: &BrokerSelection) -> FaultSchedule {
        let mut sched = FaultSchedule::new(g.node_count());
        let order = sel.order();
        // Defect three brokers, fail a non-broker vertex, cut an edge,
        // drop a correlated pair, then recover everything.
        for (i, &b) in order.iter().take(3).enumerate() {
            sched.fail_broker(1 + i as u32, b);
        }
        let outsider = g
            .nodes()
            .find(|&v| !sel.brokers().contains(v))
            .unwrap_or(NodeId(0));
        sched.fail_node(2, outsider);
        let (u, v) = g.edges().next().unwrap();
        sched.fail_edge(3, u, v);
        let grp = sched.add_group(FaultGroup::new(
            "pair",
            vec![order[3], order[4]],
            std::iter::empty(),
        ));
        sched.fail_group(4, grp);
        sched.recover_group(6, grp);
        sched.recover_node(6, outsider);
        sched.recover_edge(7, u, v);
        for &b in order.iter().take(3) {
            sched.recover_broker(8, b);
        }
        sched.set_horizon(10);
        sched
    }

    #[test]
    fn clean_epoch_matches_legacy_evaluators() {
        let (g, sel) = setup();
        let mut sched = FaultSchedule::new(g.node_count());
        sched.set_horizon(1);
        let trace = chaos_trace(&g, &sel, &sched, Some(6), SourceMode::Exact);
        let step = &trace.steps[0];
        assert!(step.degradation.is_clean());
        let sat = saturated_connectivity(&g, sel.brokers()).fraction;
        assert_eq!(step.saturated, sat, "bit-identical saturated value");
        let curve = lhop_curve(&g, sel.brokers(), 6, SourceMode::Exact);
        assert_eq!(step.lhop, Some(curve.at(6)), "bit-identical l-hop value");
    }

    #[test]
    fn degradation_and_recovery_show_in_the_curve() {
        let (g, sel) = setup();
        let sched = mixed_schedule(&g, &sel);
        let trace = chaos_trace(&g, &sel, &sched, Some(6), SourceMode::Exact);
        assert_eq!(trace.steps.len(), 10);
        let first = trace.steps[0].saturated;
        let worst = trace
            .steps
            .iter()
            .map(|s| s.saturated)
            .fold(f64::INFINITY, f64::min);
        let last = trace.steps[9].saturated;
        assert!(worst < first, "faults must degrade connectivity");
        assert_eq!(last, first, "full recovery restores the exact value");
        assert!(trace.max_degradation() > 0.0);
        assert!(trace.recovered() > 0.0);
        // The degraded epochs carry non-clean records.
        assert!(!trace.steps[4].degradation.is_clean());
        assert_eq!(trace.steps[4].degradation.failed_brokers.len(), 5);
        // Masked vertices: the outsider plus the two group members.
        assert_eq!(trace.steps[4].degradation.masked_nodes, 3);
    }

    #[test]
    fn certificate_validates_and_detects_tampering() {
        let (g, sel) = setup();
        let sched = mixed_schedule(&g, &sel);
        let mode = SourceMode::Sampled { count: 64, seed: 9 };
        let trace = chaos_trace(&g, &sel, &sched, Some(5), mode);
        let cert = DegradationCertificate::new(&g, &sel, &sched, mode, &trace);
        let report = cert.audit();
        assert!(report.is_ok(), "clean trace must certify:\n{report}");

        // Tamper: claim one fewer failed broker than the schedule forces.
        let mut bad = trace.clone();
        bad.steps[4].degradation.failed_brokers.pop();
        let cert = DegradationCertificate::new(&g, &sel, &sched, mode, &bad);
        assert!(!cert.audit().is_ok(), "dropped broker must be caught");

        // Tamper: pretend a masked source was evaluated.
        let mut bad = trace.clone();
        bad.steps[2].degradation.skipped_sources.clear();
        bad.steps[2].degradation.masked_nodes = 0;
        let cert = DegradationCertificate::new(&g, &sel, &sched, mode, &bad);
        assert!(!cert.audit().is_ok(), "hidden skip must be caught");
    }

    #[test]
    fn node_outage_skips_sampled_sources() {
        let (g, sel) = setup();
        let mode = SourceMode::Exact; // every vertex a source
        let mut sched = FaultSchedule::new(g.node_count());
        sched.fail_node(0, NodeId(5));
        sched.fail_node(0, NodeId(9));
        let trace = chaos_trace(&g, &sel, &sched, Some(4), mode);
        let d = &trace.steps[0].degradation;
        assert_eq!(
            d.skipped_sources,
            vec![NodeId(5), NodeId(9)],
            "masked sources reported in sample order"
        );
        assert_eq!(d.masked_nodes, 2);
        let cert = DegradationCertificate::new(&g, &sel, &sched, mode, &trace);
        assert!(cert.audit().is_ok());
    }

    #[test]
    fn zero_hop_bound_still_records_skipped_sources() {
        let (g, sel) = setup();
        let mode = SourceMode::Exact;
        let mut sched = FaultSchedule::new(g.node_count());
        sched.fail_node(0, NodeId(5));
        let trace = chaos_trace(&g, &sel, &sched, Some(0), mode);
        assert_eq!(trace.steps[0].lhop, Some(0.0));
        assert_eq!(trace.steps[0].degradation.skipped_sources, vec![NodeId(5)]);
        let report = DegradationCertificate::new(&g, &sel, &sched, mode, &trace).audit();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn broker_vertex_outage_counts_as_failed_broker() {
        let (g, sel) = setup();
        let top = sel.order()[0];
        let mut sched = FaultSchedule::new(g.node_count());
        sched.fail_node(0, top);
        let trace = chaos_trace(&g, &sel, &sched, None, SourceMode::Exact);
        let step = &trace.steps[0];
        assert_eq!(step.degradation.failed_brokers, vec![top]);
        assert_eq!(step.alive_brokers, sel.len() - 1);
        assert!(step.lhop.is_none());

        // A *dominated-component* equivalent: vertex outage must hurt at
        // least as much as mere defection of the same broker.
        let mut defect = FaultSchedule::new(g.node_count());
        defect.fail_broker(0, top);
        let defect_trace = chaos_trace(&g, &sel, &defect, None, SourceMode::Exact);
        assert!(step.saturated <= defect_trace.steps[0].saturated + 1e-15);
        let mut alive = sel.brokers().clone();
        alive.remove(top);
        assert_eq!(
            defect_trace.steps[0].saturated,
            saturated_connectivity(&g, &alive).fraction,
            "defection == legacy broker removal, bit for bit"
        );
    }

    #[test]
    fn threaded_trace_is_bit_identical() {
        let (g, sel) = setup();
        let sched = mixed_schedule(&g, &sel);
        let mode = SourceMode::Sampled { count: 80, seed: 3 };
        let seq = chaos_trace(&g, &sel, &sched, Some(5), mode);
        for threads in [2usize, 4, 7] {
            let par = chaos_trace_threaded(&g, &sel, &sched, Some(5), mode, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}
