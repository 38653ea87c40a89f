//! Game-theoretic solution certificates ([`Validate`] impls).
//!
//! The solvers in this crate return numbers whose correctness is
//! checkable much more cheaply than it is computable: Shapley values must
//! be *efficient* (sum to the grand-coalition value) and Nash bargaining
//! outcomes must satisfy the utility definitions they were derived from.
//! The certificates here re-derive those identities from the raw inputs,
//! independent of the solver code paths.

use crate::bargain::{BargainConfig, BargainOutcome};
use crate::coalition::CharacteristicFn;
use crate::shapley::ShapleyResult;

pub use netgraph::{debug_validate, AuditReport, Finding, Validate};

/// A claim that `result` carries the Shapley values of `game`.
#[derive(Debug)]
pub struct ShapleyCertificate<'a, G> {
    game: &'a G,
    result: &'a ShapleyResult,
}

impl<'a, G: CharacteristicFn> ShapleyCertificate<'a, G> {
    /// Pair a solver output with the game it solves.
    pub fn new(game: &'a G, result: &'a ShapleyResult) -> Self {
        ShapleyCertificate { game, result }
    }
}

impl<G: CharacteristicFn> Validate for ShapleyCertificate<'_, G> {
    /// Check the axioms that hold for any correct evaluation:
    ///
    /// 1. one value (and one error bar) per player;
    /// 2. all numbers finite, error bars non-negative;
    /// 3. efficiency: `Σ φ_j = U(N)` (Eq. 13 distributes the whole
    ///    revenue — the property Theorem 7's stability argument needs).
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("economics::ShapleyCertificate");
        let n = self.game.players();
        let r = self.result;
        rep.check("shapley.values-cover", r.values.len() == n, || {
            format!("{} values for {n} players", r.values.len())
        });
        rep.check("shapley.errors-cover", r.std_errors.len() == n, || {
            format!("{} std errors for {n} players", r.std_errors.len())
        });
        let bad_values = r.values.iter().filter(|v| !v.is_finite()).count();
        rep.check("shapley.values-finite", bad_values == 0, || {
            format!("{bad_values} non-finite values")
        });
        let bad_errs = r
            .std_errors
            .iter()
            .filter(|e| !(e.is_finite() && **e >= 0.0))
            .count();
        rep.check("shapley.errors-sane", bad_errs == 0, || {
            format!("{bad_errs} negative or non-finite std errors")
        });
        rep.check("shapley.permutations-positive", r.permutations > 0, || {
            "zero permutations claimed".into()
        });
        if r.values.len() == n && bad_values == 0 {
            let grand = self.game.value((1u32 << n) - 1);
            // Exact evaluation is numerically tight; Monte Carlo drifts,
            // so widen the tolerance by the reported error bars.
            let slack: f64 = r.std_errors.iter().map(|e| e.abs()).sum::<f64>() * 6.0;
            let tol = 1e-9 * (1.0 + grand.abs()) + slack;
            rep.check("shapley.efficient", r.is_efficient(self.game, tol), || {
                let total: f64 = r.values.iter().sum();
                format!("Σφ = {total}, U(N) = {grand}, tol = {tol}")
            });
        }
        rep
    }
}

/// A claim that `outcome` solves the bargaining problem `cfg`.
#[derive(Debug)]
pub struct BargainCertificate<'a> {
    cfg: &'a BargainConfig,
    outcome: &'a BargainOutcome,
}

impl<'a> BargainCertificate<'a> {
    /// Pair a bargaining outcome with its configuration.
    pub fn new(cfg: &'a BargainConfig, outcome: &'a BargainOutcome) -> Self {
        BargainCertificate { cfg, outcome }
    }
}

impl Validate for BargainCertificate<'_> {
    /// Re-derive the utility identities both the closed-form and the
    /// numeric solver must satisfy at whatever price they settled on:
    ///
    /// 1. `u_e = p_j − c` and `u_B = 2 p_B − m p_j − m c` (Section 7.1);
    /// 2. the `agreement` flag equals "both utilities positive";
    /// 3. on agreement, the price maximizes the Nash product:
    ///    `p_j* = p_B / m` (Theorem 5's closed form, loose tolerance to
    ///    admit the golden-section solver).
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("economics::BargainCertificate");
        let o = self.outcome;
        let m = self.cfg.max_employees() as f64;
        let c = self.cfg.routing_cost;
        let pb = self.cfg.broker_price;
        let finite = o.employee_price.is_finite()
            && o.employee_utility.is_finite()
            && o.broker_utility.is_finite();
        rep.check("bargain.finite", finite, || {
            format!(
                "p = {}, u_e = {}, u_B = {}",
                o.employee_price, o.employee_utility, o.broker_utility
            )
        });
        if !finite {
            return rep;
        }
        let scale = 1.0 + pb.abs() + m * c.abs();
        let tol = 1e-9 * scale;
        let u_e = o.employee_price - c;
        rep.check(
            "bargain.employee-utility",
            (o.employee_utility - u_e).abs() <= tol,
            || format!("claimed u_e = {}, recomputed {}", o.employee_utility, u_e),
        );
        let u_b = 2.0 * pb - m * o.employee_price - m * c;
        rep.check(
            "bargain.broker-utility",
            (o.broker_utility - u_b).abs() <= tol,
            || format!("claimed u_B = {}, recomputed {}", o.broker_utility, u_b),
        );
        let both_positive = o.employee_utility > 0.0 && o.broker_utility > 0.0;
        rep.check(
            "bargain.agreement-flag",
            o.agreement == both_positive,
            || {
                format!(
                    "agreement = {}, but utilities are ({}, {})",
                    o.agreement, o.employee_utility, o.broker_utility
                )
            },
        );
        if o.agreement {
            let p_star = pb / m;
            let num_tol = 1e-5 * scale;
            rep.check(
                "bargain.nash-optimal",
                (o.employee_price - p_star).abs() <= num_tol,
                || format!("price {} vs closed form p_B/m = {p_star}", o.employee_price),
            );
        }
        rep
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "R7: test games are defined by coalition size, |S| = popcount"
)]
mod tests {
    use super::*;
    use crate::bargain::{nash_bargain, nash_bargain_numeric};
    use crate::coalition::TableGame;
    use crate::shapley::{shapley_exact, shapley_monte_carlo};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn three_player_game() -> TableGame {
        // v(S) = |S|^2, superadditive.
        TableGame::new((0u32..8).map(|m| (m.count_ones() as f64).powi(2)).collect())
    }

    #[test]
    fn exact_shapley_certifies() {
        let game = three_player_game();
        let result = shapley_exact(&game);
        let rep = ShapleyCertificate::new(&game, &result).audit();
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn monte_carlo_shapley_certifies() {
        let game = three_player_game();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let result = shapley_monte_carlo(&game, 400, &mut rng);
        let rep = ShapleyCertificate::new(&game, &result).audit();
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn tampered_shapley_rejected() {
        let game = three_player_game();
        let mut result = shapley_exact(&game);
        result.values[0] += 1.0;
        let rep = ShapleyCertificate::new(&game, &result).audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "shapley.efficient"),
            "{rep}"
        );
    }

    #[test]
    fn bargain_outcomes_certify() {
        let cfg = BargainConfig {
            broker_price: 10.0,
            routing_cost: 1.0,
            beta: 4,
        };
        for outcome in [
            nash_bargain(&cfg).expect("valid cfg"),
            nash_bargain_numeric(&cfg).expect("valid cfg"),
        ] {
            let rep = BargainCertificate::new(&cfg, &outcome).audit();
            assert!(rep.is_ok(), "{rep}");
        }
    }

    #[test]
    fn tampered_bargain_rejected() {
        let cfg = BargainConfig {
            broker_price: 10.0,
            routing_cost: 1.0,
            beta: 4,
        };
        let mut outcome = nash_bargain(&cfg).expect("valid cfg");
        outcome.employee_price *= 2.0;
        let rep = BargainCertificate::new(&cfg, &outcome).audit();
        assert!(!rep.is_ok(), "{rep}");
    }

    #[test]
    fn no_trade_case_certifies() {
        // Cost so high the surplus is negative: agreement must be false
        // and the certificate must accept the no-trade outcome.
        let cfg = BargainConfig {
            broker_price: 1.0,
            routing_cost: 5.0,
            beta: 6,
        };
        let outcome = nash_bargain(&cfg).expect("valid cfg");
        assert!(!outcome.agreement);
        let rep = BargainCertificate::new(&cfg, &outcome).audit();
        assert!(rep.is_ok(), "{rep}");
    }
}
