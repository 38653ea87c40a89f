//! # topology — AS-level Internet topology model
//!
//! The paper's evaluation runs on a 2014 snapshot of the AS-level Internet:
//! 51,757 ASes plus 322 IXPs treated as independent vertices, ~347 k
//! direct AS–AS connections and ~55 k AS–IXP memberships. That dataset is
//! not publicly redistributable, so this crate provides:
//!
//! - a taxonomy of node kinds and business relationships
//!   ([`NodeKind`], [`Relationship`]),
//! - the [`Internet`] container pairing a [`netgraph::Graph`] with that
//!   metadata,
//! - a deterministic, seedable synthetic generator
//!   ([`InternetConfig::generate`]) calibrated to the dataset's *published
//!   aggregate statistics* (Table 2 of the paper, tier structure,
//!   heavy-tailed degrees, IXP membership distribution, the (0.99, 4)
//!   small-world property),
//! - dataset statistics mirroring Table 2 ([`stats::TopologyStats`]), and
//! - snapshot save/load so experiments can pin an exact topology.
//!
//! ```
//! use topology::{InternetConfig, Scale};
//!
//! // A small but structurally faithful Internet (fast enough for tests).
//! let net = InternetConfig::scaled(Scale::Tiny).generate(42);
//! let stats = net.stats();
//! assert!(stats.giant_component_fraction() > 0.95);
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
#![warn(missing_debug_implementations)]

pub mod evolve;
pub mod geo;
pub mod internet;
pub mod outage;
pub mod snapshot;
pub mod stats;
pub mod taxonomy;
pub mod validate;

pub use evolve::{
    evolve, materialize, selection_jaccard, DeltaOp, DeltaStream, GrowthConfig, TopoDelta,
};
pub use geo::{GeoModel, Region};
pub use internet::{Internet, InternetConfig, Scale};
pub use outage::{ixp_outage_group, largest_ixp, region_outage_group};
pub use snapshot::{load_snapshot, save_snapshot};
pub use stats::TopologyStats;
pub use taxonomy::{NodeKind, Relationship, Tier};
pub use validate::{AuditReport, Validate};
