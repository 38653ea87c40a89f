//! # broker-net — inter-domain routing via a small broker set
//!
//! A from-scratch Rust reproduction of *"On the Feasibility of
//! Inter-Domain Routing via a Small Broker Set"* (Liu, Lui, Lin, Hui;
//! ICDCS'17 / IEEE TPDS'18): can a small set of ASes/IXPs, acting as
//! centralized routing brokers, give most end-to-end Internet paths a
//! QoS-controllable, fully supervised route — and is it economically
//! stable to run one?
//!
//! The workspace splits into focused crates, all re-exported here:
//!
//! - [`netgraph`] — CSR graph substrate (traversal, components,
//!   centralities, random-graph generators).
//! - [`topology`] — the AS/IXP Internet model and a calibrated synthetic
//!   generator standing in for the paper's 2014 dataset.
//! - [`brokerset`] — the MCB/MCBG problems, the greedy and approximation
//!   algorithms, the MaxSubGraph-Greedy heuristic, the baselines, and
//!   the l-hop E2E connectivity evaluation.
//! - [`routing`] — valley-free policy routing, directional connectivity
//!   under business relationships, and broker path stitching with a
//!   synthetic latency model.
//! - [`economics`] — Nash bargaining, the Stackelberg pricing game and
//!   Shapley-value coalition analysis.
//!
//! ## Quickstart
//!
//! ```
//! use broker_net::prelude::*;
//!
//! // A small synthetic Internet and a 40-broker alliance.
//! let plan = BrokeragePlan::build(Scale::Tiny, 42, 40);
//! assert!(plan.saturated_connectivity > 0.4);
//! assert!(plan.selection.len() <= 40);
//!
//! // Stitch a concrete dominated path between two random stubs.
//! let net = plan.internet();
//! let g = net.graph();
//! let (u, v) = (g.nodes().next().unwrap(), g.nodes().last().unwrap());
//! let _maybe_path = broker_net::routing::stitch_path(g, plan.selection.brokers(), u, v);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "R1: library code returns typed errors"
)]
#![deny(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "R4: output belongs to the bin and bench layer"
)]
#![warn(missing_docs)]

pub use brokerset;
pub use economics;
pub use netgraph;
pub use routing;
pub use topology;

pub mod econbridge;
pub mod proto;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::BrokeragePlan;
    pub use brokerset::{
        approx_mcbg, greedy_mcb, lhop_curve, max_subgraph_greedy, saturated_connectivity,
        ApproxConfig, BrokerSelection, SourceMode,
    };
    pub use netgraph::{AuditReport, Graph, NodeId, NodeSet, Validate};
    pub use topology::{Internet, InternetConfig, NodeKind, Scale};
}

use brokerset::{max_subgraph_greedy, saturated_connectivity, BrokerSelection};
use topology::{Internet, InternetConfig, Scale};

/// A one-call pipeline: generate a topology, select a broker set with the
/// MaxSubGraph-Greedy heuristic, and evaluate its saturated E2E
/// connectivity.
///
/// This is the "planning" entry point the examples build on; for finer
/// control use the crates directly.
#[derive(Debug, Clone)]
pub struct BrokeragePlan {
    internet: Internet,
    /// The selected broker set.
    pub selection: BrokerSelection,
    /// Fraction of ordered AS pairs joined by a B-dominating path.
    pub saturated_connectivity: f64,
}

impl BrokeragePlan {
    /// Build a plan at the given scale, RNG seed and broker budget.
    pub fn build(scale: Scale, seed: u64, budget: usize) -> Self {
        Self::build_with_config(&InternetConfig::scaled(scale), seed, budget)
    }

    /// Build a plan from an explicit topology configuration.
    fn build_with_config(cfg: &InternetConfig, seed: u64, budget: usize) -> Self {
        let internet = cfg.generate(seed);
        Self::for_internet(internet, budget)
    }

    /// Plan a broker set for an existing topology.
    fn for_internet(internet: Internet, budget: usize) -> Self {
        let () = netgraph::counter!("plan.builds");
        let selection = max_subgraph_greedy(internet.graph(), budget);
        let report = saturated_connectivity(internet.graph(), selection.brokers());
        BrokeragePlan {
            internet,
            selection,
            saturated_connectivity: report.fraction,
        }
    }

    /// The topology this plan was computed for.
    pub fn internet(&self) -> &Internet {
        &self.internet
    }
}

impl netgraph::Validate for BrokeragePlan {
    /// End-to-end audit of a plan: the topology invariants, the
    /// selection's internal consistency, and a sampled re-verification
    /// that pairs counted into `saturated_connectivity` really are joined
    /// by B-dominating paths.
    fn audit(&self) -> netgraph::AuditReport {
        use brokerset::CoverageCertificate;
        let mut rep = netgraph::AuditReport::new("broker_net::BrokeragePlan");
        rep.absorb(self.internet.audit());
        rep.absorb(self.selection.audit());
        let cert = CoverageCertificate::sampled(self.internet.graph(), &self.selection, 64, 1);
        rep.absorb(cert.audit());
        rep.check(
            "plan.connectivity-fraction",
            (0.0..=1.0).contains(&self.saturated_connectivity),
            || format!("fraction {} outside [0, 1]", self.saturated_connectivity),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_pipeline_runs() {
        let plan = BrokeragePlan::build(Scale::Tiny, 7, 60);
        assert!(plan.selection.len() <= 60);
        assert!(plan.saturated_connectivity > 0.5);
        assert_eq!(
            plan.internet().graph().node_count(),
            InternetConfig::scaled(Scale::Tiny).node_count()
        );
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let a = BrokeragePlan::build(Scale::Tiny, 7, 20);
        let b = BrokeragePlan::build(Scale::Tiny, 7, 80);
        assert!(b.saturated_connectivity >= a.saturated_connectivity - 1e-12);
    }
}
