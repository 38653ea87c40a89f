//! Shapley-value revenue distribution inside the broker set
//! (Section 7.2, Eq. 13).
//!
//! `φ_j(B) = (1/|B|!) Σ_π Δ_j(B(π, j))` — the average marginal
//! contribution of `j` over all orderings. [`shapley_exact`] evaluates
//! the equivalent subset-weighted sum in `O(2^n · n)` (fine to ~20
//! players); [`shapley_monte_carlo`] samples permutations, the
//! approximation route the paper cites (refs \[35\], \[37\]), with a standard
//! error estimate per player.

use crate::coalition::CharacteristicFn;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shapley values with diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapleyResult {
    /// Per-player Shapley value `φ_j`.
    pub values: Vec<f64>,
    /// Per-player one-sigma error (0 for exact evaluation).
    pub std_errors: Vec<f64>,
    /// Permutations evaluated (`n!` conceptually for exact; the sample
    /// count for Monte Carlo).
    pub permutations: u64,
}

impl ShapleyResult {
    /// Efficiency check: `Σ φ_j = U(N)` within `tol`.
    pub fn is_efficient<G: CharacteristicFn>(&self, game: &G, tol: f64) -> bool {
        let total: f64 = self.values.iter().sum();
        let grand = game.value((1u32 << game.players()) - 1);
        (total - grand).abs() <= tol
    }
}

/// Exact Shapley values via the subset formula
/// `φ_j = Σ_{S ∌ j} |S|! (n−|S|−1)! / n! · Δ_j(S)`.
///
/// # Panics
///
/// Panics for games with more than 20 players (use
/// [`shapley_monte_carlo`]).
pub fn shapley_exact<G: CharacteristicFn>(game: &G) -> ShapleyResult {
    let n = game.players();
    assert!(n >= 1, "need at least one player");
    assert!(n <= 20, "exact Shapley capped at 20 players, got {n}");
    let () = netgraph::counter!("shapley.exact_runs");
    let () = netgraph::counter!("shapley.coalitions_scanned", 1u64 << n);
    // Precompute |S|-dependent weights: w(s) = s! (n-s-1)! / n!.
    let mut log_fact = vec![0.0f64; n + 1];
    for i in 1..=n {
        log_fact[i] = log_fact[i - 1] + (i as f64).ln();
    }
    let weight = |s: usize| -> f64 { (log_fact[s] + log_fact[n - s - 1] - log_fact[n]).exp() };
    let full = (1u32 << n) - 1;
    let mut values = vec![0.0f64; n];
    for s_mask in 0..=full {
        #[expect(
            clippy::disallowed_methods,
            reason = "R7: |S| of a coalition mask is domain math, not a bitset"
        )]
        let s = s_mask.count_ones() as usize;
        let v_s = game.value(s_mask);
        for (j, value) in values.iter_mut().enumerate() {
            let bj = 1u32 << j;
            if s_mask & bj != 0 {
                continue;
            }
            *value += weight(s) * (game.value(s_mask | bj) - v_s);
        }
    }
    let mut permutations = 1u64;
    for i in 1..=n as u64 {
        permutations = permutations.saturating_mul(i);
    }
    let result = ShapleyResult {
        std_errors: vec![0.0; n],
        values,
        permutations,
    };
    netgraph::validate::debug_validate(&crate::validate::ShapleyCertificate::new(game, &result));
    result
}

/// Monte Carlo Shapley: average marginal contributions over `samples`
/// uniformly random permutations.
///
/// # Panics
///
/// Panics if `samples == 0` or the game has more than 31 players
/// (bitmask encoding).
pub fn shapley_monte_carlo<G: CharacteristicFn, R: Rng>(
    game: &G,
    samples: usize,
    rng: &mut R,
) -> ShapleyResult {
    let n = game.players();
    assert!(samples > 0, "need at least one sample");
    assert!((1..32).contains(&n), "player count {n} outside 1..32");
    let mut sums = vec![0.0f64; n];
    let mut sq_sums = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..samples {
        order.shuffle(rng);
        let mut mask = 0u32;
        let mut prev = game.value(0);
        for &j in &order {
            mask |= 1u32 << j;
            let cur = game.value(mask);
            let delta = cur - prev;
            sums[j] += delta;
            sq_sums[j] += delta * delta;
            prev = cur;
        }
    }
    let m = samples as f64;
    let values: Vec<f64> = sums.iter().map(|&s| s / m).collect();
    let std_errors: Vec<f64> = values
        .iter()
        .zip(&sq_sums)
        .map(|(&mean, &sq)| {
            let var = (sq / m - mean * mean).max(0.0);
            (var / m).sqrt()
        })
        .collect();
    ShapleyResult {
        values,
        std_errors,
        permutations: samples as u64,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "R7: test games are defined by coalition size, |S| = popcount"
)]
mod tests {
    use super::*;
    use crate::coalition::{FnGame, TableGame};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn glove_game() {
        // Classic: players 0, 1 own left gloves, player 2 a right glove;
        // a pair is worth 1. φ = (1/6, 1/6, 4/6).
        let g = FnGame {
            n: 3,
            f: |m: u32| {
                let lefts = (m & 0b011).count_ones().min(1);
                let rights = (m >> 2) & 1;
                (lefts.min(rights)) as f64
            },
        };
        let r = shapley_exact(&g);
        assert!((r.values[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((r.values[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((r.values[2] - 4.0 / 6.0).abs() < 1e-12);
        assert!(r.is_efficient(&g, 1e-12));
        assert_eq!(r.permutations, 6);
    }

    #[test]
    fn additive_game_gives_individual_values() {
        // U(S) = Σ w_j: φ_j = w_j.
        let w = [1.0, 2.5, 4.0, 0.5];
        let g = FnGame {
            n: 4,
            f: move |m: u32| (0..4).filter(|&j| m >> j & 1 == 1).map(|j| w[j]).sum(),
        };
        let r = shapley_exact(&g);
        for (j, &wj) in w.iter().enumerate() {
            assert!((r.values[j] - wj).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        // Symmetric players get equal shares.
        let g = FnGame {
            n: 5,
            f: |m: u32| (m.count_ones() as f64).powi(2),
        };
        let r = shapley_exact(&g);
        for w in r.values.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
        // Efficiency: sum = 25.
        assert!(r.is_efficient(&g, 1e-9));
    }

    #[test]
    fn single_player() {
        let g = TableGame::new(vec![0.0, 7.0]);
        let r = shapley_exact(&g);
        assert_eq!(r.values, vec![7.0]);
    }

    #[test]
    fn monte_carlo_close_to_exact() {
        let g = FnGame {
            n: 8,
            f: |m: u32| {
                // Weighted coverage-ish game with diminishing returns.
                let c = m.count_ones() as f64;
                10.0 * (1.0 - (-0.4 * c).exp()) + (m & 0b1) as f64
            },
        };
        let exact = shapley_exact(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mc = shapley_monte_carlo(&g, 6000, &mut rng);
        for j in 0..8 {
            assert!(
                (exact.values[j] - mc.values[j]).abs() < 0.06,
                "player {j}: exact {} vs mc {}",
                exact.values[j],
                mc.values[j]
            );
            assert!(mc.std_errors[j] >= 0.0);
        }
        assert!(mc.is_efficient(&g, 0.2));
    }

    #[test]
    #[should_panic(expected = "capped at 20")]
    fn exact_rejects_large_games() {
        let g = FnGame { n: 21, f: |_| 0.0 };
        shapley_exact(&g);
    }

    proptest! {
        /// Efficiency holds exactly for random table games.
        #[test]
        fn efficiency_random_games(vals in proptest::collection::vec(0.0f64..10.0, 7)) {
            // 3-player table (8 entries), U(empty)=0.
            let mut table = vec![0.0];
            table.extend(vals);
            let g = TableGame::new(table);
            let r = shapley_exact(&g);
            prop_assert!(r.is_efficient(&g, 1e-9));
        }

        /// Theorem 7: under superadditivity, φ_j >= U({j}).
        #[test]
        fn individual_rationality_when_superadditive(seed in 0u64..200) {
            // Build a random supermodular-ish game: U(S) = (Σ w)^1.5.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let w: Vec<f64> = (0..5).map(|_| rand::Rng::gen_range(&mut rng, 0.1..2.0)).collect();
            let wc = w.clone();
            let g = FnGame {
                n: 5,
                f: move |m: u32| {
                    let s: f64 = (0..5).filter(|&j| m >> j & 1 == 1).map(|j| wc[j]).sum();
                    s.powf(1.5)
                },
            };
            prop_assume!(crate::coalition::is_superadditive(&g));
            let r = shapley_exact(&g);
            for j in 0..5 {
                prop_assert!(r.values[j] >= g.value(1 << j) - 1e-9,
                    "player {j} below standalone value");
            }
        }
    }
}
