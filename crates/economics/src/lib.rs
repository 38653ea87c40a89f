//! # economics — incentives for forming and keeping a brokerage coalition
//!
//! Section 7 of the paper argues the brokerage scheme is economically
//! viable alongside BGP by composing three game-theoretic pieces, all
//! implemented here:
//!
//! 1. **Nash bargaining** ([`bargain`]) between the broker set `B` and a
//!    non-broker *employee* AS hired to complete a dominating path
//!    (Theorem 5). For the paper's linear utilities the solution has the
//!    closed form `p_j* = p_B / ⌈β/2⌉`.
//! 2. **A Stackelberg pricing game** ([`stackelberg`]) between `B`
//!    (leader, sets the routing price) and customer ASes (followers,
//!    choose what fraction of traffic to route through the brokerage) —
//!    Theorem 6 guarantees an equilibrium, found here by backward
//!    induction with concave utility families.
//! 3. **Shapley-value revenue distribution** ([`shapley`]) inside `B`,
//!    with the superadditivity / supermodularity stability conditions of
//!    Theorems 7 and 8 checkable on any characteristic function
//!    ([`coalition`]).
//!
//! The crate is deliberately topology-agnostic: characteristic functions
//! and utility families are plain closures/structs, so the bench harness
//! wires in coverage-based coalition values from `brokerset` while the
//! unit tests use analytic fixtures.

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

pub mod bargain;
pub mod coalition;
pub mod revenue;
pub mod shapley;
pub mod solver;
pub mod stackelberg;
pub mod validate;

pub use bargain::{nash_bargain, BargainConfig, BargainOutcome};
pub use coalition::{is_in_core, is_superadditive, is_supermodular, CharacteristicFn};
pub use revenue::{account_path, AggregateLedger, PathLedger, Tariff};
pub use shapley::{shapley_exact, shapley_monte_carlo, ShapleyResult};
pub use stackelberg::{CustomerAs, StackelbergEquilibrium, StackelbergGame};
pub use validate::{AuditReport, BargainCertificate, ShapleyCertificate, Validate};
