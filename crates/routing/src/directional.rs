//! Directional E2E connectivity under business relationships
//! (Fig. 5b/c of the paper).
//!
//! "Directional" means traffic must follow valley-free export policies
//! instead of the bidirectional free-path assumption of Section 6.1.
//! [`directional_connectivity`] measures the fraction of ordered pairs
//! reachable by a valley-free, B-dominated path; combined with
//! [`PolicyGraph::convert_interbroker_to_peering`] it reproduces the
//! "30 % of inter-broker links converted to peering repairs most of the
//! loss" result.

use crate::policy::PolicyGraph;
use crate::valleyfree::{valley_free_reach, ReachOptions};
use brokerset::connectivity::sample_std_error;
use brokerset::SourceMode;
use netgraph::{par, NodeSet};
use serde::{Deserialize, Serialize};

/// Outcome of a directional connectivity measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectionalReport {
    /// Estimated fraction of ordered pairs `(u, v)` with a valley-free,
    /// B-dominated path from `u` to `v`.
    pub fraction: f64,
    /// Sources evaluated.
    pub sources: usize,
    /// One-sigma sampling error: `Some(0.0)` when exact, `None` when
    /// unknowable (single-source samples).
    pub std_error: Option<f64>,
}

/// Measure directional connectivity.
///
/// `brokers = None` gives the unconstrained valley-free baseline (how
/// much connectivity business relationships allow at all); `Some(B)`
/// additionally requires every hop to be dominated by `B`. Alliance
/// relaxations come only from explicitly converted
/// [`crate::EdgeClass::AllianceFree`] links, mirroring the paper's
/// Fig. 5b conversion experiment.
pub fn directional_connectivity(
    pg: &PolicyGraph,
    brokers: Option<&NodeSet>,
    mode: SourceMode,
) -> DirectionalReport {
    directional_connectivity_threaded(pg, brokers, mode, 1)
}

/// [`directional_connectivity`] with the per-source valley-free walks run
/// on `threads` workers (`0` = all hardware threads) via
/// [`netgraph::par`]. Per-source fractions come back in source order, so
/// the mean and error estimate are bit-identical at every thread count.
pub fn directional_connectivity_threaded(
    pg: &PolicyGraph,
    brokers: Option<&NodeSet>,
    mode: SourceMode,
    threads: usize,
) -> DirectionalReport {
    let n = pg.node_count();
    if n < 2 {
        return DirectionalReport {
            fraction: 0.0,
            sources: 0,
            std_error: Some(0.0),
        };
    }
    let sources = mode.sources(n);
    // Chunk-invariant per-source map: adaptive chunk sizing is safe here
    // (each item yields an independent f64; the ordered flatten makes the
    // output identical for every thread count).
    let fractions: Vec<f64> = par::map_auto(&sources, threads, |&s| {
        let reach = valley_free_reach(
            pg,
            s,
            ReachOptions {
                brokers,
                alliance: None,
                max_hops: None,
            },
        );
        (reach.len() - 1) as f64 / (n - 1) as f64
    });
    let mean = par::sum_f64(&fractions) / fractions.len() as f64;
    let std_error = sample_std_error(&fractions, n);
    DirectionalReport {
        fraction: mean,
        sources: sources.len(),
        std_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brokerset::max_subgraph_greedy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use topology::{InternetConfig, Scale};

    #[test]
    fn directional_below_bidirectional() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(31);
        let g = net.graph();
        let pg = PolicyGraph::new(&net);
        let sel = max_subgraph_greedy(g, 60);
        let mode = SourceMode::Sampled {
            count: 120,
            seed: 4,
        };

        let bidir = brokerset::lhop_curve(g, sel.brokers(), 64, mode)
            .fractions
            .last()
            .copied()
            .unwrap();
        let dir = directional_connectivity(&pg, Some(sel.brokers()), mode);
        assert!(
            dir.fraction < bidir,
            "directional {} should be below bidirectional {bidir}",
            dir.fraction
        );
        assert!(dir.fraction > 0.0);
    }

    #[test]
    fn peering_conversion_recovers_connectivity() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(31);
        let sel = max_subgraph_greedy(net.graph(), 60);
        let mode = SourceMode::Sampled {
            count: 120,
            seed: 4,
        };

        let pg = PolicyGraph::new(&net);
        let before = directional_connectivity(&pg, Some(sel.brokers()), mode);

        let mut converted = pg.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n_conv = converted.convert_interbroker_to_peering(sel.brokers(), 1.0, &mut rng);
        assert!(n_conv > 0);
        let after = directional_connectivity(&converted, Some(sel.brokers()), mode);
        assert!(
            after.fraction >= before.fraction,
            "conversion should not reduce connectivity ({} -> {})",
            before.fraction,
            after.fraction
        );
    }

    #[test]
    fn unconstrained_valley_free_upper_bounds_dominated() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(33);
        let pg = PolicyGraph::new(&net);
        let sel = max_subgraph_greedy(net.graph(), 40);
        let mode = SourceMode::Sampled { count: 80, seed: 6 };
        let free = directional_connectivity(&pg, None, mode);
        let dom = directional_connectivity(&pg, Some(sel.brokers()), mode);
        assert!(free.fraction >= dom.fraction - 1e-12);
    }

    #[test]
    fn deterministic_sampling() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(35);
        let pg = PolicyGraph::new(&net);
        let mode = SourceMode::Sampled { count: 40, seed: 9 };
        let a = directional_connectivity(&pg, None, mode);
        let b = directional_connectivity(&pg, None, mode);
        assert_eq!(a, b);
    }
}
