//! # brokerset — broker set selection for inter-domain routing
//!
//! This crate implements the paper's primary contribution: selecting a
//! small set `B` of ASes/IXPs ("brokers") such that as many end-to-end
//! AS pairs as possible are connected by a *B-dominating path* — a path
//! in which every hop has at least one endpoint inside `B`.
//!
//! ## Problems (Section 4 of the paper)
//!
//! - **PDS** — does a broker set of size ≤ k exist whose dominating paths
//!   cover *all* pairs? (NP-complete.)
//! - **MCB** — maximize the coverage `f(B) = |B ∪ N(B)|` with `|B| ≤ k`.
//! - **MCBG** — MCB plus the guarantee that every covered pair is joined
//!   by a B-dominating path. (NP-hard, APX-hard on (α, β)-graphs.)
//! - **MCBG with path-length constraints** — additionally bound the hop
//!   count distribution of the dominating paths (Problem 4 / Eq. (4)).
//!
//! ## Algorithms
//!
//! - [`greedy::greedy_mcb`] — Algorithm 1, the lazy (1 − 1/e) greedy for
//!   MCB.
//! - [`approx::approx_mcbg`] — Algorithm 2, the approximation for MCBG on
//!   an (α, β)-graph: `x*` pre-selected brokers plus shortest-path
//!   stitching brokers `B^r` chosen from the best root.
//! - [`maxsg::max_subgraph_greedy`] — Algorithm 3, the MaxSubGraph-Greedy
//!   heuristic. The paper bounds it at `O(k(|V| + |E|))`; keeping the
//!   candidate scores across picks brings it to `O((|V| + |E|) log |V|)`
//!   on connected inputs, with the same selection order.
//! - [`baseline`] — SC, Degree-Based, PageRank-Based, IXP-Based and
//!   Tier-1-Only baselines from Section 5.1/6.1.
//!
//! ## Evaluation
//!
//! [`connectivity`] computes the paper's l-hop E2E connectivity: BFS over
//! the *dominated edge set* `{(u, v) : u ∈ B ∨ v ∈ B}` — exactly the
//! `B_A · A` masked-adjacency operator of Section 5.2 — plus the
//! saturated connectivity (its l → ∞ limit) via connected components.
//!
//! ```
//! use brokerset::{greedy::greedy_mcb, connectivity::saturated_connectivity};
//! use netgraph::{graph::from_edges, NodeId};
//!
//! // A star: the hub alone dominates everything.
//! let g = from_edges(5, (1..5).map(|i| (NodeId(0), NodeId(i))));
//! let sel = greedy_mcb(&g, 1);
//! assert_eq!(sel.brokers().to_vec(), vec![NodeId(0)]);
//! let report = saturated_connectivity(&g, sel.brokers());
//! assert_eq!(report.fraction, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod baseline;
pub mod chaos;
pub mod composition;
pub mod connectivity;
pub mod coverage;
pub mod exact;
pub mod greedy;
pub mod incremental;
pub mod index;
pub mod lengthaware;
pub mod localsearch;
pub mod maxsg;
pub mod parallel;
pub mod pareto;
pub mod problem;
pub mod resilience;
pub mod sweep;
pub mod validate;
pub mod weighted;

pub use approx::{approx_mcbg, ApproxConfig};
pub use baseline::{
    betweenness_based, closeness_based, degree_based, ixp_based, pagerank_based, set_cover,
    tier1_only,
};
pub use chaos::{
    chaos_trace, chaos_trace_threaded, ChaosStep, ChaosTrace, Degradation, DegradationCertificate,
};
pub use composition::{broker_only_connectivity, composition_histogram, ranked_brokers};
pub use connectivity::{
    dominated_components, lhop_curve, saturated_connectivity, ConnectivityReport, SourceMode,
};
pub use coverage::CoverageState;
pub use exact::{solve_mcb_exact, solve_mcbg_exact, solve_pds_exact};
pub use greedy::{greedy_mcb, greedy_mcb_naive};
pub use incremental::{
    BrokerMaintainer, CoverageIndex, EpochReport, MaintainConfig, MaintenanceCertificate,
    StabilityLedger,
};
pub use index::{
    answers_checksum, exact_query, IndexCertificate, IndexCodecError, InvalidationReport,
    ReachIndex, StitchAnswer,
};
pub use lengthaware::{select_with_length_constraint, LengthConstrainedSelection};
pub use localsearch::{local_search_coverage, LocalSearchResult};
pub use maxsg::max_subgraph_greedy;
pub use parallel::lhop_curve_parallel;
pub use pareto::Frontier;
pub use problem::{BrokerSelection, PathLengthConstraint};
pub use resilience::{
    failure_trace, failure_trace_threaded, greedy_repair, lhop_failure_trace,
    lhop_failure_trace_threaded, FailureOrder, LhopResilienceTrace, ResilienceTrace,
};
pub use sweep::{connectivity_sweep, ConnectivitySweep};
pub use validate::{AuditReport, CoverageCertificate, Validate};
pub use weighted::{degree_proxy_weights, greedy_mcb_weighted, WeightedCoverage};
