//! Nash bargaining between the broker set and a hired employee AS
//! (Section 7.1, Theorem 5).
//!
//! When a dominating path needs a non-broker hop, `B` hires that AS and
//! they bargain over the per-unit-traffic price `p_j`. With the paper's
//! utilities
//!
//! - employee: `u_e = p_j − c`
//! - broker set (worst case, hiring `m = ⌈β/2⌉` employees):
//!   `u_B = 2·p_B − m·p_j − m·c`
//!
//! the Nash product `(u_e)(u_B)` is a concave parabola in `p_j`, giving
//! the closed form `p_j* = p_B / m`. The numeric path (golden section) is
//! kept alongside and property-tested against the closed form.

use crate::solver::golden_max;
use serde::{Deserialize, Serialize};

/// Parameters of the employee bargaining problem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BargainConfig {
    /// Price `B` charges its customers per unit traffic (`p_B`).
    pub broker_price: f64,
    /// Per-AS cost of routing one unit of traffic (`c`).
    pub routing_cost: f64,
    /// The β of the (α, β)-graph: the employee assumes at most `⌈β/2⌉`
    /// employees are hired on the path.
    pub beta: usize,
}

impl BargainConfig {
    /// `m = ⌈β/2⌉`, the employee's worst-case head count.
    pub fn max_employees(&self) -> usize {
        self.beta.div_ceil(2).max(1)
    }

    /// Validate parameters.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.broker_price.is_finite() && self.broker_price > 0.0) {
            return Err(format!(
                "broker_price must be positive, got {}",
                self.broker_price
            ));
        }
        if !(self.routing_cost.is_finite() && self.routing_cost >= 0.0) {
            return Err(format!(
                "routing_cost must be non-negative, got {}",
                self.routing_cost
            ));
        }
        if self.beta == 0 {
            return Err("beta must be positive".into());
        }
        Ok(())
    }
}

/// Outcome of the bargaining.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BargainOutcome {
    /// Agreed employee price `p_j*`.
    pub employee_price: f64,
    /// Employee surplus `u_e = p_j* − c`.
    pub employee_utility: f64,
    /// Broker-set surplus `u_B` at the agreement.
    pub broker_utility: f64,
    /// Whether the gains from trade are positive (both utilities > 0);
    /// when `false` no mutually beneficial agreement exists and the pair
    /// falls back to BGP.
    pub agreement: bool,
}

/// Solve the Nash bargaining problem.
///
/// # Errors
///
/// Returns the validation error for inconsistent configurations.
pub fn nash_bargain(cfg: &BargainConfig) -> Result<BargainOutcome, String> {
    cfg.validate()?;
    let m = cfg.max_employees() as f64;
    let c = cfg.routing_cost;
    let pb = cfg.broker_price;
    // Closed form: argmax (p - c)(2 pb - m p - m c) = pb / m... derived by
    // setting the derivative 2 pb - 2 m p = 0.
    let p_star = pb / m;
    let employee_utility = p_star - c;
    let broker_utility = 2.0 * pb - m * p_star - m * c;
    let outcome = BargainOutcome {
        employee_price: p_star,
        employee_utility,
        broker_utility,
        agreement: employee_utility > 0.0 && broker_utility > 0.0,
    };
    netgraph::validate::debug_validate(&crate::validate::BargainCertificate::new(cfg, &outcome));
    Ok(outcome)
}

/// Numeric solution via golden-section on the Nash product, for use with
/// perturbed utility shapes; the equivalence test checks it against
/// [`nash_bargain`], and the bargain certificate audits its outcome.
pub fn nash_bargain_numeric(cfg: &BargainConfig) -> Result<BargainOutcome, String> {
    cfg.validate()?;
    let m = cfg.max_employees() as f64;
    let c = cfg.routing_cost;
    let pb = cfg.broker_price;
    // Feasible prices: employee needs p > c; broker needs u_B >= 0, i.e.
    // p <= (2 pb - m c) / m. If the interval is empty there is no trade.
    let hi = (2.0 * pb - m * c) / m;
    if hi <= c {
        return Ok(BargainOutcome {
            employee_price: c,
            employee_utility: 0.0,
            broker_utility: 2.0 * pb - m * c - m * c,
            agreement: false,
        });
    }
    let nash = |p: f64| (p - c).max(0.0) * (2.0 * pb - m * p - m * c).max(0.0);
    let (p_star, _) = golden_max(c, hi, 1e-12 * (1.0 + hi.abs()), nash);
    let employee_utility = p_star - c;
    let broker_utility = 2.0 * pb - m * p_star - m * c;
    Ok(BargainOutcome {
        employee_price: p_star,
        employee_utility,
        broker_utility,
        agreement: employee_utility > 0.0 && broker_utility > 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn closed_form_beta4() {
        // beta = 4 -> m = 2: p* = pb / 2.
        let out = nash_bargain(&BargainConfig {
            broker_price: 10.0,
            routing_cost: 1.0,
            beta: 4,
        })
        .unwrap();
        assert!((out.employee_price - 5.0).abs() < 1e-12);
        assert!((out.employee_utility - 4.0).abs() < 1e-12);
        assert!((out.broker_utility - (20.0 - 10.0 - 2.0)).abs() < 1e-12);
        assert!(out.agreement);
    }

    #[test]
    fn no_agreement_when_cost_too_high() {
        // c >= pb / m kills the employee surplus.
        let out = nash_bargain(&BargainConfig {
            broker_price: 2.0,
            routing_cost: 5.0,
            beta: 4,
        })
        .unwrap();
        assert!(!out.agreement);
    }

    #[test]
    fn validation_errors() {
        assert!(nash_bargain(&BargainConfig {
            broker_price: -1.0,
            routing_cost: 0.0,
            beta: 4
        })
        .is_err());
        assert!(nash_bargain(&BargainConfig {
            broker_price: 1.0,
            routing_cost: -0.5,
            beta: 4
        })
        .is_err());
        assert!(nash_bargain(&BargainConfig {
            broker_price: 1.0,
            routing_cost: 0.5,
            beta: 0
        })
        .is_err());
    }

    #[test]
    fn beta_odd_rounds_up() {
        let cfg = BargainConfig {
            broker_price: 9.0,
            routing_cost: 0.0,
            beta: 5,
        };
        assert_eq!(cfg.max_employees(), 3);
        let out = nash_bargain(&cfg).unwrap();
        assert!((out.employee_price - 3.0).abs() < 1e-12);
    }

    proptest! {
        /// Numeric and closed-form solutions agree whenever trade is
        /// feasible.
        #[test]
        fn numeric_matches_closed_form(
            pb in 0.5f64..100.0,
            c in 0.0f64..10.0,
            beta in 1usize..9,
        ) {
            let cfg = BargainConfig { broker_price: pb, routing_cost: c, beta };
            let a = nash_bargain(&cfg).unwrap();
            let b = nash_bargain_numeric(&cfg).unwrap();
            prop_assert_eq!(a.agreement, b.agreement);
            if a.agreement {
                prop_assert!((a.employee_price - b.employee_price).abs() < 1e-5 * (1.0 + pb),
                    "closed {} vs numeric {}", a.employee_price, b.employee_price);
            }
        }

        /// At the bargain, splitting is efficient: employee price always
        /// sits strictly between cost and what the broker earns per unit.
        #[test]
        fn price_between_cost_and_revenue(pb in 0.5f64..100.0, beta in 1usize..9) {
            let cfg = BargainConfig { broker_price: pb, routing_cost: 0.0, beta };
            let out = nash_bargain(&cfg).unwrap();
            prop_assert!(out.employee_price > 0.0);
            prop_assert!(out.employee_price <= pb + 1e-12);
        }
    }
}
