//! Per-connection revenue accounting for the brokerage (Fig. 6 of the
//! paper: the payment flow).
//!
//! For one unit of traffic on a dominating path the alliance charges both
//! endpoints (`2 · p_B`), pays every hired non-broker employee the
//! bargained `p_j`, and bears its own per-hop routing cost `c` on the
//! broker-carried hops. This module turns path shapes (hops, employee
//! counts) into ledger entries; the topology side supplies the shapes
//! (e.g. `routing::StitchedPath::hired_employees`).

use serde::{Deserialize, Serialize};

/// Price/cost sheet of the alliance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tariff {
    /// Customer price per endpoint per unit traffic (`p_B`).
    pub broker_price: f64,
    /// Employee price per hired hop (`p_j`, from the Nash bargain).
    pub employee_price: f64,
    /// The alliance's own per-hop routing cost (`c`).
    pub hop_cost: f64,
}

impl Tariff {
    /// Validate the sheet.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("broker_price", self.broker_price),
            ("employee_price", self.employee_price),
            ("hop_cost", self.hop_cost),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        Ok(())
    }
}

/// Ledger entry for one unit of traffic on one path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathLedger {
    /// Revenue collected from the two endpoints.
    pub revenue: f64,
    /// Paid out to hired employee ASes.
    pub employee_payout: f64,
    /// The alliance's own routing cost.
    pub routing_cost: f64,
    /// Net profit.
    pub profit: f64,
}

/// Account one unit of traffic over a path with `hops` edges of which
/// `employees` interior vertices are hired non-brokers.
///
/// # Panics
///
/// Panics if the tariff is invalid or `employees + 1 > hops` on a
/// multi-hop path (more hired relays than interior positions).
pub fn account_path(tariff: &Tariff, hops: usize, employees: usize) -> PathLedger {
    if let Err(e) = tariff.validate() {
        panic!("invalid tariff: {e}");
    }
    if hops > 0 {
        assert!(
            employees <= hops.saturating_sub(1),
            "{employees} employees cannot sit on a {hops}-hop path"
        );
    } else {
        assert_eq!(employees, 0, "zero-hop path cannot hire employees");
    }
    let revenue = 2.0 * tariff.broker_price;
    let employee_payout = employees as f64 * tariff.employee_price;
    // Broker-carried hops: total hops minus the employee-adjacent ones
    // (each employee relays across its own vertex, one hop of cost is
    // theirs).
    let broker_hops = hops.saturating_sub(employees);
    let routing_cost = broker_hops as f64 * tariff.hop_cost;
    PathLedger {
        revenue,
        employee_payout,
        routing_cost,
        profit: revenue - employee_payout - routing_cost,
    }
}

/// Aggregate ledger over many paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AggregateLedger {
    /// Paths accounted.
    pub paths: usize,
    /// Total revenue.
    pub revenue: f64,
    /// Total employee payouts.
    pub employee_payout: f64,
    /// Total routing cost.
    pub routing_cost: f64,
    /// Total profit.
    pub profit: f64,
}

impl AggregateLedger {
    /// Fold one path into the aggregate.
    pub fn add(&mut self, entry: PathLedger) {
        self.paths += 1;
        self.revenue += entry.revenue;
        self.employee_payout += entry.employee_payout;
        self.routing_cost += entry.routing_cost;
        self.profit += entry.profit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tariff() -> Tariff {
        Tariff {
            broker_price: 10.0,
            employee_price: 5.0,
            hop_cost: 1.0,
        }
    }

    #[test]
    fn broker_only_path_keeps_everything_minus_cost() {
        let l = account_path(&tariff(), 3, 0);
        assert_eq!(l.revenue, 20.0);
        assert_eq!(l.employee_payout, 0.0);
        assert_eq!(l.routing_cost, 3.0);
        assert_eq!(l.profit, 17.0);
    }

    #[test]
    fn employees_eat_into_profit() {
        let with = account_path(&tariff(), 4, 2);
        let without = account_path(&tariff(), 4, 0);
        assert!(with.profit < without.profit);
        assert_eq!(with.employee_payout, 10.0);
        assert_eq!(with.routing_cost, 2.0); // 4 hops - 2 employee hops
    }

    #[test]
    fn direct_connection() {
        let l = account_path(&tariff(), 1, 0);
        assert_eq!(l.profit, 20.0 - 1.0);
        let zero = account_path(&tariff(), 0, 0);
        assert_eq!(zero.profit, 20.0);
    }

    #[test]
    #[should_panic(expected = "cannot sit")]
    fn too_many_employees_rejected() {
        account_path(&tariff(), 2, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn invalid_tariff_rejected() {
        account_path(
            &Tariff {
                broker_price: -1.0,
                employee_price: 0.0,
                hop_cost: 0.0,
            },
            1,
            0,
        );
    }

    #[test]
    fn aggregate_folds() {
        let mut agg = AggregateLedger::default();
        agg.add(account_path(&tariff(), 2, 0));
        agg.add(account_path(&tariff(), 4, 1));
        assert_eq!(agg.paths, 2);
        assert!((agg.revenue - 40.0).abs() < 1e-12);
        assert!(agg.profit > 0.0);
    }

    proptest! {
        /// Ledger identity: revenue − payouts − costs = profit, and the
        /// bargained price keeps per-path profit positive whenever the
        /// Nash agreement held.
        #[test]
        fn ledger_identity(hops in 1usize..10, emp_frac in 0.0f64..1.0) {
            let employees = ((hops - 1) as f64 * emp_frac) as usize;
            let l = account_path(&tariff(), hops, employees);
            prop_assert!((l.revenue - l.employee_payout - l.routing_cost - l.profit).abs() < 1e-9);
        }

        /// Under the closed-form Nash price p_j = p_B/⌈β/2⌉ and paths no
        /// longer than β, the alliance never loses money on a path when
        /// p_B covers the worst-case hop costs.
        #[test]
        fn nash_priced_paths_profitable(beta in 2usize..7, hops in 1usize..7) {
            prop_assume!(hops <= beta);
            let m = beta.div_ceil(2) as f64;
            let p_b = 10.0;
            let c = 0.5;
            let t = Tariff { broker_price: p_b, employee_price: p_b / m, hop_cost: c };
            // Worst case: every interior vertex is an employee.
            let employees = (hops - 1).min(beta.div_ceil(2));
            let l = account_path(&t, hops, employees);
            prop_assert!(l.profit > 0.0, "loss {l:?}");
        }
    }
}
