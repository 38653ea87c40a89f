//! Bandwidth brokering: capacity-aware admission over dominating paths.
//!
//! The paper positions its broker set against the classic *bandwidth
//! broker* architectures (refs \[18\], \[19\] in its related work): per-domain
//! brokers doing admission control. Here the alliance plays that role
//! end-to-end: each edge has a synthetic capacity (by tier, core links
//! fat, access links thin), sessions arrive with a bandwidth demand, and
//! the brokerage admits a session only if a B-dominating path with
//! enough *residual* capacity exists — retrying around saturated edges
//! before rejecting.

use crate::failover::dominated_path_avoiding;
use crate::stitch::stitch_path;
use netgraph::{Graph, NodeId, NodeSet};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use topology::{Internet, Tier};

/// Per-edge capacities derived from a topology and seed.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    capacity: BTreeMap<(u32, u32), f64>,
}

impl CapacityModel {
    /// Sample capacities: an edge's capacity is set by the *higher* tier
    /// endpoint (core 100 units, transit 40, access 10) with ±25 %
    /// jitter.
    pub fn sample(net: &Internet, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut capacity = BTreeMap::new();
        for (a, b, _) in net.relationships() {
            let base = match std::cmp::min(net.tier(a), net.tier(b)) {
                Tier::One => 100.0,
                Tier::Two => 40.0,
                Tier::Three => 10.0,
            };
            let jitter: f64 = rng.gen_range(0.75..1.25);
            capacity.insert(key(a, b), base * jitter);
        }
        CapacityModel { capacity }
    }

    /// Capacity of edge `{u, v}`, if it exists.
    pub fn edge_capacity(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.capacity.get(&key(u, v)).copied()
    }
}

use netgraph::undirected_key as key;

/// A bandwidth demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Source AS.
    pub src: NodeId,
    /// Destination AS.
    pub dst: NodeId,
    /// Requested bandwidth units.
    pub bandwidth: f64,
}

/// Outcome of an admission run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Demands admitted (index-aligned with the input, `true` = carried).
    pub admitted: Vec<bool>,
    /// Total bandwidth carried.
    pub carried: f64,
    /// Total bandwidth requested.
    pub requested: f64,
    /// Demands that needed a detour around saturated edges.
    pub detoured: usize,
}

impl AdmissionReport {
    /// Fraction of demands admitted.
    pub fn admission_ratio(&self) -> f64 {
        if self.admitted.is_empty() {
            0.0
        } else {
            self.admitted.iter().filter(|&&a| a).count() as f64 / self.admitted.len() as f64
        }
    }
}

/// Greedily admit `demands` in order over B-dominating paths with
/// residual capacity.
///
/// Routing policy per demand: try the shortest dominating path; if some
/// hop lacks residual capacity, retry once avoiding all currently
/// saturated edges; otherwise reject (no preemption).
///
/// # Panics
///
/// Panics if a demand has non-positive bandwidth.
pub fn admit_demands(
    g: &Graph,
    brokers: &NodeSet,
    capacity: &CapacityModel,
    demands: &[Demand],
) -> AdmissionReport {
    let mut residual: BTreeMap<(u32, u32), f64> = capacity.capacity.clone();
    let mut admitted = Vec::with_capacity(demands.len());
    let mut carried = 0.0;
    let mut requested = 0.0;
    let mut detoured = 0usize;

    for d in demands {
        assert!(d.bandwidth > 0.0, "demand bandwidth must be positive");
        requested += d.bandwidth;
        if d.src == d.dst {
            admitted.push(false);
            continue;
        }
        let fits = |path: &[NodeId], residual: &BTreeMap<(u32, u32), f64>| {
            path.windows(2)
                .all(|w| residual.get(&key(w[0], w[1])).copied().unwrap_or(0.0) >= d.bandwidth)
        };
        let mut route = stitch_path(g, brokers, d.src, d.dst)
            .map(|p| p.path)
            .filter(|p| fits(p, &residual));
        if route.is_none() {
            // Retry around saturated edges. The saturated set depends on
            // this demand's bandwidth, so it cannot be precomputed across
            // demands; the full-map scan runs only on the retry path
            // (first-choice failures), which congestion keeps rare until
            // the network is already saturated.
            let saturated: BTreeSet<(u32, u32)> = residual
                .iter()
                .filter(|&(_, &c)| c < d.bandwidth)
                .map(|(&e, _)| e)
                .collect();
            route = dominated_path_avoiding(g, brokers, d.src, d.dst, &saturated)
                .map(|p| p.path)
                .filter(|p| fits(p, &residual));
            if route.is_some() {
                detoured += 1;
            }
        }
        match route {
            Some(path) => {
                for w in path.windows(2) {
                    let Some(r) = residual.get_mut(&key(w[0], w[1])) else {
                        debug_assert!(false, "admitted path uses an unpriced edge");
                        continue;
                    };
                    *r -= d.bandwidth;
                }
                carried += d.bandwidth;
                admitted.push(true);
            }
            None => admitted.push(false),
        }
    }
    AdmissionReport {
        admitted,
        carried,
        requested,
        detoured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brokerset::max_subgraph_greedy;
    use topology::{InternetConfig, Scale};

    fn setup() -> (Internet, NodeSet, CapacityModel) {
        let net = InternetConfig::scaled(Scale::Tiny).generate(19);
        let sel = max_subgraph_greedy(net.graph(), 75);
        let cap = CapacityModel::sample(&net, 1);
        (net.clone(), sel.brokers().clone(), cap)
    }

    fn demands(net: &Internet, n: usize, bw: f64, seed: u64) -> Vec<Demand> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = net.graph().node_count() as u32;
        (0..n)
            .map(|_| Demand {
                src: NodeId(rng.gen_range(0..count)),
                dst: NodeId(rng.gen_range(0..count)),
                bandwidth: bw,
            })
            .filter(|d| d.src != d.dst)
            .collect()
    }

    #[test]
    fn capacity_model_covers_edges_and_tiers() {
        let (net, _, cap) = setup();
        for (a, b, _) in net.relationships().take(300) {
            let c = cap.edge_capacity(a, b).unwrap();
            assert!(c > 0.0);
            assert_eq!(cap.edge_capacity(b, a), Some(c));
        }
        assert!(cap.edge_capacity(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn light_load_fully_admitted() {
        let (net, brokers, cap) = setup();
        let ds = demands(&net, 50, 0.01, 3);
        let rep = admit_demands(net.graph(), &brokers, &cap, &ds);
        // Under negligible load, admission == dominated reachability,
        // which is near-total for a dominating alliance.
        assert!(
            rep.admission_ratio() > 0.9,
            "light-load admission {}",
            rep.admission_ratio()
        );
        assert!(
            (rep.carried - ds.iter().filter(|_| true).map(|d| d.bandwidth).sum::<f64>()).abs()
                < 1.0
        );
    }

    #[test]
    fn heavy_load_saturates_and_detours() {
        let (net, brokers, cap) = setup();
        // Oversized demands toward the same destination squeeze the thin
        // access links quickly.
        let dst = NodeId(900);
        let ds: Vec<Demand> = (0..200)
            .map(|i| Demand {
                src: NodeId(i as u32),
                dst,
                bandwidth: 4.0,
            })
            .filter(|d| d.src != d.dst)
            .collect();
        let rep = admit_demands(net.graph(), &brokers, &cap, &ds);
        assert!(
            rep.admission_ratio() < 1.0,
            "heavy load should reject some demands"
        );
        assert!(rep.carried <= rep.requested);
    }

    #[test]
    fn admissions_monotone_in_bandwidth() {
        // Same demand set, bigger per-demand bandwidth -> no more
        // admissions than with smaller bandwidth.
        let (net, brokers, cap) = setup();
        let small = demands(&net, 120, 0.5, 7);
        let large: Vec<Demand> = small
            .iter()
            .map(|d| Demand {
                bandwidth: 8.0,
                ..*d
            })
            .collect();
        let rep_s = admit_demands(net.graph(), &brokers, &cap, &small);
        let rep_l = admit_demands(net.graph(), &brokers, &cap, &large);
        let n_s = rep_s.admitted.iter().filter(|&&a| a).count();
        let n_l = rep_l.admitted.iter().filter(|&&a| a).count();
        assert!(
            n_l <= n_s,
            "large demands admitted more often ({n_l} > {n_s})"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let (net, brokers, cap) = setup();
        admit_demands(
            net.graph(),
            &brokers,
            &cap,
            &[Demand {
                src: NodeId(0),
                dst: NodeId(1),
                bandwidth: 0.0,
            }],
        );
    }
}
