//! # routing — policy-aware routing substrate
//!
//! The broker-set results of Section 6 assume bidirectional reachability;
//! Section 6.2 then asks what happens when traffic must obey real
//! business relationships (Gao–Rexford valley-free export rules), and how
//! much of the resulting degradation is repaired by converting a fraction
//! of inter-broker links to settlement-free peering (Fig. 5b/c). This
//! crate provides:
//!
//! - [`PolicyGraph`] — a directed, relationship-classified view of an
//!   [`topology::Internet`], with mutation helpers for the peering-
//!   conversion experiments;
//! - [`valleyfree`] — valley-free reachability (two-phase BFS);
//! - [`directional`] — E2E connectivity under valley-free + B-dominating
//!   constraints (Fig. 5b/c) and under free routing;
//! - [`inflation`] — path-length inflation of broker-constrained routing
//!   versus free-path routing (Table 4);
//! - [`stitch`] — broker-mediated path construction: the actual
//!   dominating path a brokerage deployment would install, plus a
//!   synthetic per-edge latency model ([`qos`]) to compare broker paths
//!   against BGP-style valley-free defaults.

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
#![warn(missing_debug_implementations)]

pub mod bgp;
pub mod capacity;
pub mod chaos;
pub mod directional;
pub mod failover;
pub mod inflation;
pub mod monitor;
pub mod plan;
pub mod policy;
pub mod qos;
pub mod stitch;
pub mod validate;
pub mod valleyfree;

pub use bgp::bgp_paths_dominated;
pub use capacity::{admit_demands, AdmissionReport, CapacityModel, Demand};
pub use chaos::{plan_recovery, replay_sessions, RecoveryTransition, SessionStats};
pub use directional::{
    directional_connectivity, directional_connectivity_threaded, DirectionalReport,
};
pub use failover::protection_ratio;
pub use inflation::{inflation_report, InflationReport};
pub use monitor::{supervise, MonitorConfig, MonitorReport, Session, SessionReport};
pub use plan::{
    ExecTrace, PlanCertificate, PlanError, PlanSummary, PlannedSession, ReconfigPlan, SessionKind,
    Step, StepRecord,
};
pub use policy::{EdgeClass, PolicyGraph};
pub use qos::LatencyModel;
pub use stitch::{stitch_path, StitchedPath};
pub use validate::{AuditReport, PathCertificate, Validate};
pub use valleyfree::{valley_free_path, valley_free_reach, Phase, ValleyFreeView};
