//! The Stackelberg pricing game between the broker set and customer ASes
//! (Section 7.1, Theorem 6).
//!
//! `B` (the leader) posts a routing price `p_B`; every non-broker AS `i`
//! (follower) picks the fraction `a_i ∈ [a_0, 1]` of its traffic routed
//! through the brokerage, maximizing
//!
//! `u_i(a_i) = V_i(a_i) + P_i(a_i) − p_B · a_i`
//!
//! where `V_i` (end-user revenue from improved QoS) is concave increasing
//! and `P_i` (net transit payments shifted away from BGP neighbors) is
//! concave, rising on `[a_0, â_i]` and falling back to `P_i(1) = 0`.
//! The leader maximizes `u_B(p_B) = 2 p_B α(p_B) − C(α(p_B))` with
//! `α = Σ_i a_i`.
//!
//! Equilibria are computed by backward induction: the follower best
//! responses have unique solutions (strict concavity), found by bisection
//! on the derivative; the leader's profit is then scanned and refined by
//! golden section.

use crate::solver::{bisect_decreasing, grid_then_golden};
use serde::{Deserialize, Serialize};

/// A customer (follower) AS in the pricing game.
///
/// Utility: `u(a) = v·ln(1 + g·a) + ρ·(1 − ((a − â)/(1 − â))²) − p·a`.
/// The first term is `V` (concave increasing, diminishing returns), the
/// second is `P` (concave, peaks at `â`, zero at `a = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CustomerAs {
    /// Revenue scale `v` of QoS-sensitive end users.
    pub qos_revenue: f64,
    /// Saturation rate `g` of the QoS revenue.
    pub qos_saturation: f64,
    /// Transit-payment scale `ρ` (how much BGP spend can be displaced).
    pub transit_scale: f64,
    /// Peak `â ∈ [a_floor, 1)` of the payment-displacement curve.
    pub transit_peak: f64,
    /// Legacy adoption floor `a_0` (the traffic already in schemes
    /// equivalent to brokerage routing).
    pub adoption_floor: f64,
}

impl CustomerAs {
    /// Validate parameters.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.qos_revenue.is_finite() && self.qos_revenue >= 0.0) {
            return Err("qos_revenue must be non-negative".into());
        }
        if !(self.qos_saturation.is_finite() && self.qos_saturation > 0.0) {
            return Err("qos_saturation must be positive".into());
        }
        if !(self.transit_scale.is_finite() && self.transit_scale >= 0.0) {
            return Err("transit_scale must be non-negative".into());
        }
        if !(0.0..1.0).contains(&self.transit_peak) {
            return Err(format!(
                "transit_peak must be in [0, 1), got {}",
                self.transit_peak
            ));
        }
        if !(0.0..=1.0).contains(&self.adoption_floor) {
            return Err("adoption_floor must be in [0, 1]".into());
        }
        Ok(())
    }

    /// `V(a) + P(a)` at adoption level `a`.
    fn gross_value(&self, a: f64) -> f64 {
        let v = self.qos_revenue * (1.0 + self.qos_saturation * a).ln();
        let t = (a - self.transit_peak) / (1.0 - self.transit_peak);
        let p = self.transit_scale * (1.0 - t * t);
        v + p
    }

    /// Follower utility at adoption `a` and price `p`.
    pub fn utility(&self, a: f64, price: f64) -> f64 {
        self.gross_value(a) - price * a
    }

    /// d/da of the utility (strictly decreasing in `a`).
    fn utility_slope(&self, a: f64, price: f64) -> f64 {
        let v = self.qos_revenue * self.qos_saturation / (1.0 + self.qos_saturation * a);
        let denom = (1.0 - self.transit_peak) * (1.0 - self.transit_peak);
        let p = -2.0 * self.transit_scale * (a - self.transit_peak) / denom;
        v + p - price
    }

    /// The unique best-response adoption `a*(p)` on `[a_0, 1]`.
    pub fn best_response(&self, price: f64) -> f64 {
        bisect_decreasing(self.adoption_floor, 1.0, 1e-10, |a| {
            self.utility_slope(a, price)
        })
    }
}

/// The full game: a leader cost model plus the follower population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackelbergGame {
    /// Follower ASes.
    pub customers: Vec<CustomerAs>,
    /// Leader's marginal routing cost per unit of adopted traffic.
    pub unit_cost: f64,
    /// Leader's per-unit employee-hiring overhead (the expected share of
    /// dominating paths needing hired non-brokers, times their price).
    pub hire_overhead: f64,
    /// Price ceiling `p̄_B` (regulatory or competitive cap).
    pub max_price: f64,
}

/// Equilibrium of the pricing game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackelbergEquilibrium {
    /// Leader's optimal price `p_B*`.
    pub price: f64,
    /// Follower adoptions `a_i*` at that price.
    pub adoptions: Vec<f64>,
    /// Aggregate adoption `α = Σ a_i`.
    pub total_adoption: f64,
    /// Leader profit at the equilibrium.
    pub leader_utility: f64,
    /// Follower utilities at the equilibrium.
    pub follower_utilities: Vec<f64>,
}

impl StackelbergGame {
    /// Validate the game definition.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.customers.is_empty() {
            return Err("need at least one customer".into());
        }
        for (i, c) in self.customers.iter().enumerate() {
            c.validate().map_err(|e| format!("customer {i}: {e}"))?;
        }
        if !(self.unit_cost.is_finite() && self.unit_cost >= 0.0) {
            return Err("unit_cost must be non-negative".into());
        }
        if !(self.hire_overhead.is_finite() && self.hire_overhead >= 0.0) {
            return Err("hire_overhead must be non-negative".into());
        }
        if !(self.max_price.is_finite() && self.max_price > 0.0) {
            return Err("max_price must be positive".into());
        }
        Ok(())
    }

    /// Aggregate adoption at a given price.
    pub fn total_adoption(&self, price: f64) -> f64 {
        self.customers.iter().map(|c| c.best_response(price)).sum()
    }

    /// Leader profit at a given price (backward-induced).
    pub fn leader_utility(&self, price: f64) -> f64 {
        let alpha = self.total_adoption(price);
        2.0 * price * alpha - (self.unit_cost + self.hire_overhead) * alpha
    }

    /// Solve for the Stackelberg equilibrium.
    ///
    /// # Errors
    ///
    /// Returns the validation error for inconsistent games.
    pub fn equilibrium(&self) -> Result<StackelbergEquilibrium, String> {
        self.validate()?;
        let (price, leader_utility) =
            grid_then_golden(0.0, self.max_price, 64, 1e-9, |p| self.leader_utility(p));
        let adoptions: Vec<f64> = self
            .customers
            .iter()
            .map(|c| c.best_response(price))
            .collect();
        let follower_utilities: Vec<f64> = self
            .customers
            .iter()
            .zip(&adoptions)
            .map(|(c, &a)| c.utility(a, price))
            .collect();
        let total_adoption = adoptions.iter().sum();
        Ok(StackelbergEquilibrium {
            price,
            adoptions,
            total_adoption,
            leader_utility,
            follower_utilities,
        })
    }
}

/// A convenience population: `n` homogeneous customers.
pub fn homogeneous_game(
    n: usize,
    customer: CustomerAs,
    unit_cost: f64,
    max_price: f64,
) -> StackelbergGame {
    StackelbergGame {
        customers: vec![customer; n],
        unit_cost,
        hire_overhead: 0.0,
        max_price,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn customer() -> CustomerAs {
        CustomerAs {
            qos_revenue: 5.0,
            qos_saturation: 2.0,
            transit_scale: 1.0,
            transit_peak: 0.6,
            adoption_floor: 0.05,
        }
    }

    #[test]
    fn best_response_decreases_with_price() {
        let c = customer();
        let a_cheap = c.best_response(0.1);
        let a_mid = c.best_response(2.0);
        let a_expensive = c.best_response(50.0);
        assert!(a_cheap >= a_mid && a_mid >= a_expensive);
        assert!((c.adoption_floor..=1.0).contains(&a_cheap));
        // Prohibitive price pins adoption at the floor.
        assert!((a_expensive - c.adoption_floor).abs() < 1e-8);
    }

    #[test]
    fn free_service_gets_full_adoption() {
        // With price 0 and increasing V, the slope at a=1 is positive
        // when V dominates P's decline.
        let c = CustomerAs {
            qos_revenue: 50.0,
            ..customer()
        };
        assert!((c.best_response(0.0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn best_response_is_argmax() {
        // Compare against a dense scan.
        let c = customer();
        for price in [0.2, 1.0, 3.0, 7.0] {
            let a_star = c.best_response(price);
            let u_star = c.utility(a_star, price);
            for i in 0..=1000 {
                let a = c.adoption_floor + (1.0 - c.adoption_floor) * i as f64 / 1000.0;
                assert!(
                    c.utility(a, price) <= u_star + 1e-6,
                    "price {price}: utility({a}) beats best response"
                );
            }
        }
    }

    #[test]
    fn equilibrium_exists_and_profits() {
        let game = homogeneous_game(20, customer(), 0.5, 20.0);
        let eq = game.equilibrium().unwrap();
        assert!(eq.price > 0.0 && eq.price <= 20.0);
        assert!(
            eq.leader_utility > 0.0,
            "leader profit {}",
            eq.leader_utility
        );
        assert_eq!(eq.adoptions.len(), 20);
        assert!((eq.total_adoption - eq.adoptions.iter().sum::<f64>()).abs() < 1e-9);
        // Homogeneous followers behave identically.
        for w in eq.adoptions.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn leader_price_is_optimal_on_grid() {
        let game = homogeneous_game(5, customer(), 0.5, 10.0);
        let eq = game.equilibrium().unwrap();
        for i in 0..=200 {
            let p = 10.0 * i as f64 / 200.0;
            assert!(
                game.leader_utility(p) <= eq.leader_utility + 1e-6,
                "price {p} beats equilibrium"
            );
        }
    }

    #[test]
    fn higher_qos_value_raises_adoption() {
        // The paper's qualitative takeaway: when the brokerage covers
        // high-tier ISPs (=> more displaced transit spend and more QoS
        // gain), lower-tier ASes adopt more.
        let low = customer();
        let high = CustomerAs {
            qos_revenue: 12.0,
            transit_scale: 3.0,
            ..customer()
        };
        let game_low = homogeneous_game(10, low, 0.5, 20.0);
        let game_high = homogeneous_game(10, high, 0.5, 20.0);
        let eq_low = game_low.equilibrium().unwrap();
        let eq_high = game_high.equilibrium().unwrap();
        assert!(
            eq_high.total_adoption > eq_low.total_adoption,
            "high-value adoption {} should exceed {}",
            eq_high.total_adoption,
            eq_low.total_adoption
        );
    }

    #[test]
    fn validation_errors() {
        let mut g = homogeneous_game(1, customer(), 0.5, 10.0);
        g.customers.clear();
        assert!(g.validate().is_err());

        let mut bad = customer();
        bad.transit_peak = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = customer();
        bad.qos_saturation = 0.0;
        assert!(bad.validate().is_err());
        let mut g = homogeneous_game(1, customer(), -0.5, 10.0);
        assert!(g.validate().is_err());
        g = homogeneous_game(1, customer(), 0.5, 0.0);
        assert!(g.validate().is_err());
    }

    proptest! {
        /// Follower utility at the equilibrium never falls below the
        /// opt-out utility (keeping a = a_0): individual rationality.
        #[test]
        fn follower_rationality(
            v in 0.5f64..20.0,
            rho in 0.0f64..5.0,
            peak in 0.1f64..0.9,
        ) {
            let c = CustomerAs {
                qos_revenue: v,
                qos_saturation: 2.0,
                transit_scale: rho,
                transit_peak: peak,
                adoption_floor: 0.05,
            };
            let game = homogeneous_game(8, c, 0.3, 15.0);
            let eq = game.equilibrium().unwrap();
            for (i, &u) in eq.follower_utilities.iter().enumerate() {
                let opt_out = c.utility(c.adoption_floor, eq.price);
                prop_assert!(u >= opt_out - 1e-6, "follower {i}: {u} < opt-out {opt_out}");
            }
        }

        /// Aggregate adoption is non-increasing in price.
        #[test]
        fn adoption_monotone_in_price(v in 0.5f64..20.0, p1 in 0.0f64..10.0, p2 in 0.0f64..10.0) {
            let c = CustomerAs { qos_revenue: v, ..customer() };
            let game = homogeneous_game(4, c, 0.3, 15.0);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(game.total_adoption(lo) >= game.total_adoption(hi) - 1e-9);
        }
    }
}
