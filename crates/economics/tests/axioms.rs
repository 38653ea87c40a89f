//! Axiomatic integration suite for the economics crate: the Shapley
//! axioms (efficiency, symmetry, dummy player, additivity) on small
//! coalitions, coalition-stability invariants (superadditive / convex
//! games, core membership), Nash bargaining closed-form invariants, and
//! the Stackelberg best-response fixed point.
//!
//! These pin the *contracts* of Section 7 of the paper (Theorems 5-8)
//! rather than implementation details, so they exercise only the public
//! API.
#![expect(
    clippy::disallowed_methods,
    reason = "R7: test games are defined by coalition size, |S| = popcount"
)]

use economics::coalition::{marginal_contribution, FnGame, TableGame};
use economics::stackelberg::homogeneous_game;
use economics::{
    is_in_core, is_superadditive, is_supermodular, nash_bargain, shapley_exact, BargainConfig,
    CharacteristicFn, CustomerAs, StackelbergGame,
};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// A 3-player convex game: `U(S) = |S|^2` (supermodular, superadditive).
fn quadratic_game() -> FnGame<fn(u32) -> f64> {
    FnGame {
        n: 3,
        f: |mask: u32| {
            let k = mask.count_ones() as f64;
            k * k
        },
    }
}

#[test]
fn shapley_is_efficient_on_small_games() {
    // Efficiency axiom: shares exhaust the grand-coalition value.
    let g = quadratic_game();
    let sh = shapley_exact(&g);
    assert!(sh.is_efficient(&g, TOL));
    assert!((sh.values.iter().sum::<f64>() - 9.0).abs() < TOL);

    // Same check on an asymmetric dense table (4 players).
    let t = TableGame::new(
        (0u32..16)
            .map(|m| {
                let k = m.count_ones() as f64;
                // Player 0 is worth double wherever it appears.
                k + if m & 1 != 0 { k } else { 0.0 }
            })
            .collect(),
    );
    let sh = shapley_exact(&t);
    assert!(sh.is_efficient(&t, TOL));
}

#[test]
fn shapley_symmetry_gives_equal_shares() {
    // Symmetry axiom: interchangeable players receive identical values.
    // In U(S) = |S|^2 every player is symmetric with every other.
    let sh = shapley_exact(&quadratic_game());
    assert!((sh.values[0] - sh.values[1]).abs() < TOL);
    assert!((sh.values[1] - sh.values[2]).abs() < TOL);
    // Efficiency + symmetry pin the value exactly: 9 / 3.
    assert!((sh.values[0] - 3.0).abs() < TOL);
}

#[test]
fn shapley_dummy_player_gets_nothing() {
    // Dummy axiom: a player contributing zero to every coalition gets a
    // zero share. Player 2 below never changes the value.
    let g = FnGame {
        n: 3,
        f: |mask: u32| f64::from((mask & 0b11).count_ones()),
    };
    let sh = shapley_exact(&g);
    assert!(sh.values[2].abs() < TOL, "dummy share {}", sh.values[2]);
    assert!((sh.values[0] - 1.0).abs() < TOL);
    assert!((sh.values[1] - 1.0).abs() < TOL);
}

#[test]
fn shapley_is_additive_across_games() {
    // Additivity axiom: Sh(U + W) = Sh(U) + Sh(W) pointwise.
    let u = quadratic_game();
    let w = FnGame {
        n: 3,
        f: |mask: u32| if mask & 0b1 != 0 { 5.0 } else { 0.0 },
    };
    let sum = FnGame {
        n: 3,
        f: |mask: u32| {
            let k = mask.count_ones() as f64;
            k * k + if mask & 0b1 != 0 { 5.0 } else { 0.0 }
        },
    };
    let (su, sw, ss) = (shapley_exact(&u), shapley_exact(&w), shapley_exact(&sum));
    for j in 0..3 {
        assert!(
            (su.values[j] + sw.values[j] - ss.values[j]).abs() < TOL,
            "additivity fails for player {j}"
        );
    }
}

#[test]
fn convex_game_is_stable_and_shapley_is_in_core() {
    // Theorems 7 and 8: a convex (supermodular) game is superadditive,
    // and its Shapley value is a core allocation — no subcoalition can
    // profit by defecting from the brokerage.
    let g = quadratic_game();
    assert!(is_superadditive(&g));
    assert!(is_supermodular(&g));
    let sh = shapley_exact(&g);
    assert!(is_in_core(&g, &sh.values, 1e-6));
}

#[test]
fn non_convex_game_is_detected() {
    // U(S) = sqrt(|S|) is subadditive in increments: marginal
    // contributions shrink as coalitions grow, so supermodularity must
    // fail — the paper's "coalition stops growing" observation.
    let g = FnGame {
        n: 4,
        f: |mask: u32| f64::from(mask.count_ones()).sqrt(),
    };
    assert!(!is_supermodular(&g));
    // Its marginal contributions are indeed decreasing in coalition size.
    let d_small = marginal_contribution(&g, 0b0000, 3);
    let d_large = marginal_contribution(&g, 0b0111, 3);
    assert!(d_large < d_small);
    // Superadditivity still holds (sqrt is subadditive the right way
    // round: sqrt(a + b) >= ... is false in general, check concretely).
    assert!(is_superadditive(&FnGame {
        n: 3,
        f: |mask: u32| f64::from(mask.count_ones()) * 2.0,
    }));
}

#[test]
fn nash_bargain_matches_closed_form_invariants() {
    // Theorem 5: p* = p_B / m with m = ceil(beta / 2); both sides keep a
    // positive surplus whenever the employee's cost leaves room.
    let cfg = BargainConfig {
        broker_price: 12.0,
        routing_cost: 1.5,
        beta: 6, // m = 3
    };
    let out = nash_bargain(&cfg).expect("valid config bargains");
    assert!((out.employee_price - 4.0).abs() < TOL);
    assert!((out.employee_utility - (4.0 - 1.5)).abs() < TOL);
    // u_B = 2 p_B - m p* - m c = 24 - 12 - 4.5.
    assert!((out.broker_utility - 7.5).abs() < TOL);
    assert!(out.agreement);

    // The agreement flag flips exactly when the employee surplus dies:
    // c >= p_B / m.
    let no_deal = nash_bargain(&BargainConfig {
        broker_price: 12.0,
        routing_cost: 4.0,
        beta: 6,
    })
    .expect("valid config bargains");
    assert!(!no_deal.agreement);
}

#[test]
fn stackelberg_equilibrium_is_a_best_response_fixed_point() {
    // Theorem 6 (backward induction): at the equilibrium price every
    // follower's recorded adoption IS its best response, and no follower
    // can gain by deviating anywhere on [a_0, 1].
    let c = CustomerAs {
        qos_revenue: 6.0,
        qos_saturation: 2.0,
        transit_scale: 1.5,
        transit_peak: 0.5,
        adoption_floor: 0.05,
    };
    let game = homogeneous_game(6, c, 0.4, 15.0);
    let eq = game.equilibrium().expect("valid game has an equilibrium");

    for (i, (&a, cust)) in eq.adoptions.iter().zip(&game.customers).enumerate() {
        let br = cust.best_response(eq.price);
        assert!((a - br).abs() < 1e-8, "follower {i}: {a} vs best {br}");
        let u_star = cust.utility(a, eq.price);
        for step in 0..=400 {
            let alt = cust.adoption_floor + (1.0 - cust.adoption_floor) * step as f64 / 400.0;
            assert!(
                cust.utility(alt, eq.price) <= u_star + 1e-6,
                "follower {i} would deviate to a = {alt}"
            );
        }
    }
    // Leader consistency: reported profit equals the profit formula at
    // the reported price, and total adoption is the sum of adoptions.
    assert!((eq.leader_utility - game.leader_utility(eq.price)).abs() < 1e-8);
    assert!((eq.total_adoption - eq.adoptions.iter().sum::<f64>()).abs() < TOL);
}

#[test]
fn stackelberg_leader_cannot_improve_on_equilibrium_price() {
    let c = CustomerAs {
        qos_revenue: 6.0,
        qos_saturation: 2.0,
        transit_scale: 1.5,
        transit_peak: 0.5,
        adoption_floor: 0.05,
    };
    let game: StackelbergGame = homogeneous_game(4, c, 0.4, 12.0);
    let eq = game.equilibrium().expect("valid game has an equilibrium");
    for step in 0..=240 {
        let p = 12.0 * f64::from(step) / 240.0;
        assert!(
            game.leader_utility(p) <= eq.leader_utility + 1e-6,
            "price {p} beats the equilibrium"
        );
    }
}

proptest! {
    /// Shapley efficiency holds on arbitrary small table games: the
    /// axiom is unconditional, not a property of nice games.
    #[test]
    fn shapley_efficiency_on_random_tables(
        vals in proptest::collection::vec(-10.0f64..10.0, 8),
    ) {
        let mut vals = vals;
        vals[0] = 0.0; // U(empty) = 0 by definition
        let g = TableGame::new(vals);
        let sh = shapley_exact(&g);
        prop_assert!(sh.is_efficient(&g, 1e-6));
        // Efficiency restated directly against the grand coalition.
        let full = (1u32 << g.players()) - 1;
        prop_assert!((sh.values.iter().sum::<f64>() - g.value(full)).abs() < 1e-6);
    }

    /// Nash bargaining agreement is monotone in the broker price: if a
    /// deal exists at p_B, it still exists at any higher p_B.
    #[test]
    fn bargain_agreement_monotone_in_broker_price(
        pb in 0.5f64..50.0,
        extra in 0.0f64..50.0,
        c in 0.0f64..10.0,
        beta in 1usize..9,
    ) {
        let lo = nash_bargain(&BargainConfig { broker_price: pb, routing_cost: c, beta })
            .expect("valid config");
        let hi = nash_bargain(&BargainConfig { broker_price: pb + extra, routing_cost: c, beta })
            .expect("valid config");
        if lo.agreement {
            prop_assert!(hi.agreement);
            prop_assert!(hi.employee_price >= lo.employee_price - 1e-12);
        }
    }
}
