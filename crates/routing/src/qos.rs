//! Synthetic per-edge QoS (latency) model.
//!
//! The paper abstracts away *how* QoS is guaranteed and argues the broker
//! set's monitoring/negotiation power makes it possible; what the
//! examples and benches need is a plausible latency surface to compare
//! broker-stitched paths against BGP-style defaults. Core links (between
//! high-tier networks and across exchange fabrics) are fast and stable;
//! edge links are slower with heavier jitter, mirroring measured
//! inter-domain latency structure.

use netgraph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology::{Internet, Tier};

/// Deterministic per-edge latency model derived from a topology and seed.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Latency in ms for each canonical edge, aligned with
    /// `Internet::relationships()` order.
    latencies: Vec<f64>,
    /// Edge key -> index in `latencies` (keys are `(min, max)` pairs).
    index: std::collections::BTreeMap<(u32, u32), u32>,
}

impl LatencyModel {
    /// Sample a latency model. For an edge between tiers `(ta, tb)` the
    /// base latency is the mean of per-tier base latencies, plus
    /// lognormal-ish jitter.
    pub fn sample(net: &Internet, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut latencies = Vec::with_capacity(net.graph().edge_count());
        let mut index = std::collections::BTreeMap::new();
        for (i, (a, b, _)) in net.relationships().enumerate() {
            let base = (tier_base(net.tier(a)) + tier_base(net.tier(b))) / 2.0;
            // Mild multiplicative jitter: U[0.6, 1.8].
            let jitter: f64 = rng.gen_range(0.6..1.8);
            latencies.push(base * jitter);
            index.insert(netgraph::undirected_key(a, b), i as u32);
        }
        LatencyModel { latencies, index }
    }

    /// Latency of edge `{u, v}` in ms, `None` if the edge doesn't exist.
    pub fn edge_latency(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.index
            .get(&netgraph::undirected_key(u, v))
            .map(|&i| self.latencies[i as usize])
    }

    /// Total latency of a path, `None` if any hop is a non-edge.
    pub fn path_latency(&self, path: &[NodeId]) -> Option<f64> {
        if path.is_empty() {
            return None;
        }
        let mut total = 0.0;
        for w in path.windows(2) {
            total += self.edge_latency(w[0], w[1])?;
        }
        Some(total)
    }
}

fn tier_base(t: Tier) -> f64 {
    match t {
        Tier::One => 4.0,    // backbone / exchange fabric
        Tier::Two => 10.0,   // regional transit
        Tier::Three => 18.0, // access tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetConfig, Scale};

    fn net() -> Internet {
        InternetConfig::scaled(Scale::Tiny).generate(51)
    }

    #[test]
    fn model_covers_every_edge() {
        let net = net();
        let model = LatencyModel::sample(&net, 1);
        for (a, b, _) in net.relationships() {
            let l = model.edge_latency(a, b).unwrap();
            assert!(l > 0.0 && l < 100.0);
            assert_eq!(model.edge_latency(b, a), Some(l)); // symmetric
        }
    }

    #[test]
    fn missing_edge_is_none() {
        let net = net();
        let model = LatencyModel::sample(&net, 1);
        // Self-loops never exist.
        assert_eq!(model.edge_latency(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let net = net();
        let a = LatencyModel::sample(&net, 7);
        let b = LatencyModel::sample(&net, 7);
        let (x, y, _) = net.relationships().next().unwrap();
        assert_eq!(a.edge_latency(x, y), b.edge_latency(x, y));
        let c = LatencyModel::sample(&net, 8);
        // Different seed gives different jitter (overwhelmingly likely).
        assert_ne!(a.edge_latency(x, y), c.edge_latency(x, y));
    }

    #[test]
    fn path_latency_sums_hops() {
        let net = net();
        let model = LatencyModel::sample(&net, 3);
        let (a, b, _) = net.relationships().next().unwrap();
        let single = model.path_latency(&[a, b]).unwrap();
        assert_eq!(model.edge_latency(a, b), Some(single));
        assert!(model.path_latency(&[]).is_none());
        assert_eq!(model.path_latency(&[a]), Some(0.0));
    }

    #[test]
    fn core_links_faster_than_edge_links() {
        let net = net();
        let model = LatencyModel::sample(&net, 4);
        // Average over tier1-tier1 edges vs stub edges.
        let (mut core_sum, mut core_n, mut edge_sum, mut edge_n) = (0.0, 0, 0.0, 0);
        for (a, b, _) in net.relationships() {
            let l = model.edge_latency(a, b).unwrap();
            match (net.tier(a), net.tier(b)) {
                (Tier::One, Tier::One) => {
                    core_sum += l;
                    core_n += 1;
                }
                (Tier::Three, Tier::Three) => {
                    edge_sum += l;
                    edge_n += 1;
                }
                _ => {}
            }
        }
        assert!(core_n > 0 && edge_n > 0);
        assert!(core_sum / core_n as f64 <= edge_sum / edge_n as f64);
    }
}
