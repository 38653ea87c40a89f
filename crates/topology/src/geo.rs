//! Geographic region model.
//!
//! The paper's broker set spans the globe (Table 5: Palo Alto, Frankfurt,
//! London, Chicago …); latency between regions is dominated by geography,
//! and alliances must cover every region to serve regional eyeballs.
//! This module assigns a region to every vertex — propagated down the
//! provider hierarchy so customer cones stay geographically coherent,
//! with IXPs placed by member plurality — and provides the per-region
//! histograms used by placement analyses.

use crate::taxonomy::{NodeKind, Relationship};
use crate::Internet;
use netgraph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse world regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

impl Region {
    /// All regions, declaration order.
    pub fn all() -> [Region; 6] {
        [
            Region::NorthAmerica,
            Region::SouthAmerica,
            Region::Europe,
            Region::Asia,
            Region::Africa,
            Region::Oceania,
        ]
    }

    /// Index in [`Region::all`].
    pub fn index(self) -> usize {
        // Every variant is listed in all(); the fallback keeps it total.
        Region::all().iter().position(|&r| r == self).unwrap_or(0)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::NorthAmerica => "NA",
            Region::SouthAmerica => "SA",
            Region::Europe => "EU",
            Region::Asia => "AS",
            Region::Africa => "AF",
            Region::Oceania => "OC",
        };
        f.write_str(s)
    }
}

/// Per-vertex region assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeoModel {
    regions: Vec<Region>,
}

impl GeoModel {
    /// Region of vertex `v`.
    pub fn region(&self, v: NodeId) -> Region {
        self.regions[v.index()]
    }

    /// Histogram over [`Region::all`] for an arbitrary vertex iterator.
    pub fn histogram<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> [usize; 6] {
        let mut h = [0usize; 6];
        for v in nodes {
            h[self.region(v).index()] += 1;
        }
        h
    }

    /// Assign regions to a topology.
    ///
    /// Tier-1s are spread round-robin (weighted toward NA/EU/Asia, like
    /// the real backbone market); every other AS inherits the region of
    /// its smallest-id provider with probability `coherence`, otherwise
    /// draws a weighted-random region; IXPs take the plurality region of
    /// their members.
    pub fn assign(net: &Internet, coherence: f64, seed: u64) -> GeoModel {
        assert!(
            (0.0..=1.0).contains(&coherence),
            "coherence must be in [0, 1], got {coherence}"
        );
        let g = net.graph();
        let n = g.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Region market shares, roughly by AS census.
        let weighted: [(Region, f64); 6] = [
            (Region::NorthAmerica, 0.30),
            (Region::Europe, 0.28),
            (Region::Asia, 0.22),
            (Region::SouthAmerica, 0.10),
            (Region::Africa, 0.05),
            (Region::Oceania, 0.05),
        ];
        let draw = |rng: &mut ChaCha8Rng| -> Region {
            let x: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for &(r, w) in &weighted {
                acc += w;
                if x < acc {
                    return r;
                }
            }
            Region::Oceania
        };

        let mut regions = vec![None::<Region>; n];
        // Tier-1s: deterministic round-robin over the big three + EU
        // twice to mimic backbone concentration.
        let t1_cycle = [
            Region::NorthAmerica,
            Region::Europe,
            Region::Asia,
            Region::NorthAmerica,
            Region::Europe,
        ];
        for (i, v) in net.tier1s().into_iter().enumerate() {
            regions[v.index()] = Some(t1_cycle[i % t1_cycle.len()]);
        }
        // Providers first (ids ascend the hierarchy by construction of
        // the generator; for hand-built topologies the fallback draw
        // covers orphans). An AS inherits from its smallest-id provider:
        // the relationships ascend by `(a, b)`, so that is the first one
        // seen.
        let mut provider_of = vec![None::<NodeId>; n];
        for (a, b, rel) in net.relationships() {
            let (customer, provider) = match rel {
                Relationship::CustomerOfB => (a, b),
                Relationship::ProviderOfB => (b, a),
                Relationship::Peer | Relationship::IxpMembership => continue,
            };
            provider_of[customer.index()].get_or_insert(provider);
        }
        for v in g.nodes() {
            if regions[v.index()].is_some() || net.kind(v) == NodeKind::Ixp {
                continue;
            }
            let inherited = provider_of[v.index()]
                .and_then(|p| regions[p.index()])
                .filter(|_| rng.gen_range(0.0..1.0) < coherence);
            regions[v.index()] = Some(inherited.unwrap_or_else(|| draw(&mut rng)));
        }
        // IXPs: plurality of member regions.
        for v in g.nodes() {
            if net.kind(v) != NodeKind::Ixp {
                continue;
            }
            let mut counts = [0usize; 6];
            for &m in g.neighbors(v) {
                if let Some(r) = regions[m.index()] {
                    counts[r.index()] += 1;
                }
            }
            let best = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(i, _)| Region::all()[i])
                .unwrap_or(Region::NorthAmerica);
            regions[v.index()] = Some(best);
        }
        // Any remaining orphans (isolated vertices).
        let mut shuffled_regions: Vec<Region> = Region::all().to_vec();
        shuffled_regions.shuffle(&mut rng);
        let regions = regions
            .into_iter()
            .map(|r| r.unwrap_or(shuffled_regions[0]))
            .collect();
        GeoModel { regions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};

    fn model() -> (Internet, GeoModel) {
        let net = InternetConfig::scaled(Scale::Tiny).generate(23);
        let geo = GeoModel::assign(&net, 0.85, 7);
        (net, geo)
    }

    #[test]
    fn every_vertex_assigned() {
        let (net, geo) = model();
        let hist = geo.histogram(net.graph().nodes());
        assert_eq!(hist.iter().sum::<usize>(), net.graph().node_count());
        // Major regions populated.
        assert!(hist[Region::NorthAmerica.index()] > 0);
        assert!(hist[Region::Europe.index()] > 0);
        assert!(hist[Region::Asia.index()] > 0);
    }

    #[test]
    fn customer_cones_geographically_coherent() {
        // With high coherence most customer->provider edges connect
        // same-region endpoints.
        let (net, geo) = model();
        let mut same = 0usize;
        let mut total = 0usize;
        for (a, b, rel) in net.relationships() {
            if rel == Relationship::CustomerOfB || rel == Relationship::ProviderOfB {
                total += 1;
                if geo.region(a) == geo.region(b) {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.6, "hierarchy same-region fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(23);
        let a = GeoModel::assign(&net, 0.85, 7);
        let b = GeoModel::assign(&net, 0.85, 7);
        assert_eq!(a, b);
        let c = GeoModel::assign(&net, 0.85, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn ixps_follow_member_plurality() {
        let (net, geo) = model();
        let g = net.graph();
        let mut checked = 0;
        for v in g.nodes() {
            if net.kind(v) != NodeKind::Ixp || g.degree(v) < 10 {
                continue;
            }
            let hist = geo.histogram(g.neighbors(v).iter().copied());
            let max = hist.iter().max().copied().unwrap();
            assert_eq!(
                hist[geo.region(v).index()],
                max,
                "IXP {v} not in its plurality region"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    #[should_panic(expected = "coherence")]
    fn bad_coherence_rejected() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(23);
        GeoModel::assign(&net, 1.5, 7);
    }

    #[test]
    fn region_display_and_index() {
        assert_eq!(Region::Europe.to_string(), "EU");
        for (i, r) in Region::all().into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
