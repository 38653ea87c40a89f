//! # netgraph — compact graph substrate for network-scale algorithmics
//!
//! This crate provides the graph machinery the rest of the workspace is
//! built on: a cache-friendly CSR ([`Graph`]) representation for undirected
//! graphs with tens of thousands of vertices and hundreds of thousands of
//! edges, plus the traversal, component, centrality and random-generation
//! routines needed to reproduce the evaluation of *"On the Feasibility of
//! Inter-Domain Routing via a Small Broker Set"* (Liu, Lui, Lin, Hui).
//!
//! Everything is implemented from scratch — no external graph crate — and
//! all randomized routines take an explicit seedable RNG so experiments are
//! reproducible bit-for-bit.
//!
//! ## Quick tour
//!
//! ```
//! use netgraph::{GraphBuilder, NodeId};
//!
//! // A 4-cycle with a chord.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId(0), NodeId(1));
//! b.add_edge(NodeId(1), NodeId(2));
//! b.add_edge(NodeId(2), NodeId(3));
//! b.add_edge(NodeId(3), NodeId(0));
//! b.add_edge(NodeId(0), NodeId(2));
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 5);
//! assert_eq!(g.degree(NodeId(0)), 3);
//!
//! let dist = netgraph::bfs_distances(&g, NodeId(1));
//! assert_eq!(dist[3], Some(2));
//! ```
//!
//! ## Modules
//!
//! - [`graph`] — the CSR graph and its builder.
//! - [`nodeset`] — dense bitset over node ids, the working currency of the
//!   coverage algorithms.
//! - [`view`] — zero-cost graph views (full, broker-dominated,
//!   failure-masked) the traversal engine is generic over.
//! - [`traverse`] — the traversal engine: pooled [`TraversalArena`] BFS over
//!   any view (single source, multi source, bounded, early-exit), plus
//!   allocating convenience wrappers.
//! - [`msbfs`] — bit-parallel multi-source BFS: 64 sources per `u64` lane
//!   with direction-optimizing (push/pull) frontier expansion.
//! - [`par`] — deterministic parallel executor for per-source fan-out.
//! - [`delta`] — epochal topology deltas: serializable [`GraphDelta`]
//!   edits and their rebuild-with-diff application.
//! - [`components`] — connected components and a union-find.
//! - [`fault`] — deterministic fault injection: serializable epochal
//!   [`fault::FaultSchedule`]s (node/edge/broker/group failures and
//!   recoveries) whose per-epoch [`FaultState`] a [`MaskedView`] masks.
//! - [`centrality`] — PageRank, k-core decomposition, top-k ranking.
//! - [`gen`] — Erdős–Rényi, Watts–Strogatz, Barabási–Albert generators.
//! - [`alphabeta`] — (α, β)-graph property estimation (Definition 2 of the
//!   paper).
//! - [`export`] — DOT export for visualization.
//! - [`obs`] — always-on observability: [`counter!`], [`histogram!`]
//!   and [`span!`] macros plus the JSON-serializable [`obs::Snapshot`].

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

pub mod alphabeta;
pub mod centrality;
pub mod components;
pub mod delta;
pub mod export;
pub mod fault;
pub mod fnv;
pub mod gen;
pub mod graph;
pub mod metrics;
pub mod msbfs;
pub mod nodeset;
pub mod obs;
pub mod par;
pub mod traverse;
pub mod validate;
pub mod view;

pub use alphabeta::{estimate_alpha, AlphaBetaEstimate, HopHistogram};
pub use centrality::{coreness, pagerank, top_by_score, PageRankConfig};
pub use components::{connected_components, view_components, Components, UnionFind};
pub use delta::GraphDelta;
pub use export::to_dot;
pub use fault::{FaultAction, FaultEvent, FaultGroup, FaultSchedule, FaultState, FaultTarget};
pub use fnv::{fnv1a, fnv1a_words};
pub use gen::{barabasi_albert, erdos_renyi_gnm, watts_strogatz};
pub use graph::{undirected_key, Graph, GraphBuilder, NodeId};
pub use metrics::{
    degree_assortativity, degree_stats, diameter_lower_bound, mean_clustering, DegreeStats,
};
pub use msbfs::{msbfs_distances, with_msbfs, LaneSet, MsBfsArena, Wavefront};
pub use nodeset::NodeSet;
pub use traverse::{bfs_distances, bfs_parents, with_arena, TraversalArena};
pub use validate::{debug_validate, AuditReport, Finding, Validate};
pub use view::{DominatedView, FullView, GraphView, MaskedView};
