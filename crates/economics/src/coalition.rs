//! Characteristic functions and coalition stability conditions
//! (Theorems 7 and 8).
//!
//! A cooperative game over players `0..n` is given by a characteristic
//! function `U : 2^N → ℝ` with `U(∅) = 0`. Stability of the brokerage
//! coalition rests on:
//!
//! - **superadditivity** — `U(K ∪ L) ≥ U(K) + U(L)` for disjoint `K, L`;
//!   implies Shapley individual rationality (Theorem 7);
//! - **supermodularity** (convexity) — `Δ_j(K) ≤ Δ_j(L)` for `K ⊆ L`;
//!   implies group rationality, i.e. no subcoalition wants to defect
//!   (Theorem 8). The paper's observation that supermodularity *fails*
//!   once the broker set grows past the important ASes is what bounds
//!   the sensible coalition size.
//!
//! Coalitions are bitmask-encoded (`u32`), capping exhaustive checks at
//! 20 players.

/// A characteristic function over at most 20 players, evaluated on
/// bitmask coalitions.
pub trait CharacteristicFn {
    /// Number of players `n`.
    fn players(&self) -> usize;
    /// Value of the coalition encoded by `mask` (bit `j` = player `j`).
    fn value(&self, mask: u32) -> f64;
}

/// A characteristic function backed by a closure.
#[derive(Debug, Clone, Copy)]
pub struct FnGame<F> {
    /// Player count.
    pub n: usize,
    /// Valuation closure.
    pub f: F,
}

impl<F: Fn(u32) -> f64> CharacteristicFn for FnGame<F> {
    fn players(&self) -> usize {
        self.n
    }
    fn value(&self, mask: u32) -> f64 {
        (self.f)(mask)
    }
}

/// A characteristic function backed by a dense table of all `2^n` values.
#[derive(Debug, Clone)]
pub struct TableGame {
    values: Vec<f64>,
    n: usize,
}

impl TableGame {
    /// Build from the `2^n` coalition values (index = bitmask).
    ///
    /// # Panics
    ///
    /// Panics if the table length is not a power of two or `U(∅) != 0`.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.len().is_power_of_two(),
            "table must have 2^n entries"
        );
        assert!(
            values[0].abs() < 1e-12,
            "U(empty) must be 0, got {}",
            values[0]
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "R7: log2 of a 2^n coalition table is domain math, not a bitset"
        )]
        let n = values.len().trailing_zeros() as usize;
        TableGame { values, n }
    }
}

impl CharacteristicFn for TableGame {
    fn players(&self) -> usize {
        self.n
    }
    fn value(&self, mask: u32) -> f64 {
        self.values[mask as usize]
    }
}

impl netgraph::Validate for TableGame {
    /// Re-derive the constructor's contract from the stored table: the
    /// length is exactly `2^n`, the grand-coalition index fits in the
    /// mask width, `U(∅) = 0`, and every value is finite.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("economics::TableGame");
        rep.check(
            "game.table-shape",
            self.values.len() == 1usize << self.n,
            || {
                format!(
                    "{} entries for {} players (expected {})",
                    self.values.len(),
                    self.n,
                    1usize << self.n
                )
            },
        );
        rep.check(
            "game.empty-coalition-zero",
            self.values.first().is_some_and(|v| v.abs() < 1e-12),
            || format!("U(empty) = {:?}", self.values.first()),
        );
        rep.check(
            "game.values-finite",
            self.values.iter().all(|v| v.is_finite()),
            || "a coalition value is not finite".into(),
        );
        rep
    }
}

fn check_player_cap(n: usize) {
    assert!(n <= 20, "exhaustive checks capped at 20 players, got {n}");
}

/// Exhaustively check superadditivity: `U(K ∪ L) ≥ U(K) + U(L)` for all
/// disjoint pairs. `O(3^n)`.
pub fn is_superadditive<G: CharacteristicFn>(game: &G) -> bool {
    let n = game.players();
    check_player_cap(n);
    let full = (1u32 << n) - 1;
    // Iterate masks; for each, iterate sub-masks of its complement.
    for k in 1..=full {
        let comp = full & !k;
        let mut l = comp;
        loop {
            if l != 0 && game.value(k | l) < game.value(k) + game.value(l) - 1e-9 {
                return false;
            }
            if l == 0 {
                break;
            }
            l = (l - 1) & comp;
        }
    }
    true
}

/// Exhaustively check supermodularity:
/// `U(K ∪ {j}) − U(K) ≤ U(L ∪ {j}) − U(L)` for all `K ⊆ L`, `j ∉ L`.
/// Uses the equivalent pairwise condition
/// `U(S ∪ {i, j}) − U(S ∪ {j}) ≥ U(S ∪ {i}) − U(S)`.
pub fn is_supermodular<G: CharacteristicFn>(game: &G) -> bool {
    let n = game.players();
    check_player_cap(n);
    let full = (1u32 << n) - 1;
    for s in 0..=full {
        for i in 0..n {
            let bi = 1u32 << i;
            if s & bi != 0 {
                continue;
            }
            for j in (i + 1)..n {
                let bj = 1u32 << j;
                if s & bj != 0 {
                    continue;
                }
                let lhs = game.value(s | bi | bj) - game.value(s | bj);
                let rhs = game.value(s | bi) - game.value(s);
                if lhs < rhs - 1e-9 {
                    return false;
                }
            }
        }
    }
    true
}

/// Marginal contribution `Δ_j(K) = U(K ∪ {j}) − U(K)` (Eq. 12).
pub fn marginal_contribution<G: CharacteristicFn>(game: &G, mask: u32, j: usize) -> f64 {
    let bj = 1u32 << j;
    debug_assert_eq!(mask & bj, 0, "player {j} already in coalition");
    game.value(mask | bj) - game.value(mask)
}

/// Is `allocation` in the *core* of the game? Requires efficiency
/// (Σ x_j = U(N)) and coalitional rationality (Σ_{j∈S} x_j ≥ U(S) for
/// every S). Exhaustive, capped at 20 players.
///
/// Theorem 8's supermodularity implies the Shapley value lies in the
/// core — the property test checks exactly that.
///
/// # Panics
///
/// Panics if the allocation length differs from the player count or the
/// game has more than 20 players.
pub fn is_in_core<G: CharacteristicFn>(game: &G, allocation: &[f64], tol: f64) -> bool {
    let n = game.players();
    check_player_cap(n);
    assert_eq!(allocation.len(), n, "allocation length mismatch");
    let full = (1u32 << n) - 1;
    let total: f64 = allocation.iter().sum();
    if (total - game.value(full)).abs() > tol {
        return false;
    }
    for s in 1..full {
        let share: f64 = (0..n)
            .filter(|&j| s >> j & 1 == 1)
            .map(|j| allocation[j])
            .sum();
        if share < game.value(s) - tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "R7: test games are defined by coalition size, |S| = popcount"
)]
mod tests {
    use super::*;

    /// U(S) = |S|² — supermodular and superadditive.
    fn quadratic(n: usize) -> FnGame<impl Fn(u32) -> f64> {
        FnGame {
            n,
            f: |m: u32| (m.count_ones() as f64).powi(2),
        }
    }

    /// U(S) = sqrt(|S|) — subadditive in the margin (not supermodular),
    /// still superadditive? sqrt(a+b) <= sqrt(a)+sqrt(b), so NOT
    /// superadditive for disjoint nonempty sets... actually
    /// sqrt(2) < 1 + 1: superadditivity fails.
    fn sqrt_game(n: usize) -> FnGame<impl Fn(u32) -> f64> {
        FnGame {
            n,
            f: |m: u32| (m.count_ones() as f64).sqrt(),
        }
    }

    #[test]
    fn quadratic_is_super_everything() {
        let g = quadratic(5);
        assert!(is_superadditive(&g));
        assert!(is_supermodular(&g));
    }

    #[test]
    fn sqrt_fails_both() {
        let g = sqrt_game(5);
        assert!(!is_superadditive(&g));
        assert!(!is_supermodular(&g));
    }

    #[test]
    fn additive_is_borderline() {
        // U(S) = |S| satisfies both with equality.
        let g = FnGame {
            n: 6,
            f: |m: u32| m.count_ones() as f64,
        };
        assert!(is_superadditive(&g));
        assert!(is_supermodular(&g));
    }

    #[test]
    fn table_game_roundtrip() {
        // 2 players: U({0}) = 1, U({1}) = 2, U({0,1}) = 5.
        let g = TableGame::new(vec![0.0, 1.0, 2.0, 5.0]);
        assert_eq!(g.players(), 2);
        assert_eq!(g.value(0b11), 5.0);
        assert!(is_superadditive(&g));
        assert!(is_supermodular(&g));
        assert_eq!(marginal_contribution(&g, 0b01, 1), 4.0);
    }

    #[test]
    fn table_audit_accepts_and_detects_corruption() {
        use netgraph::Validate;
        let good = TableGame::new(vec![0.0, 1.0, 2.0, 5.0]);
        assert!(good.audit().is_ok());

        // Table length no longer 2^n for the cached player count.
        let mut bad = good.clone();
        bad.values.pop();
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "game.table-shape"));

        // U(∅) drifted away from zero.
        let mut bad = good.clone();
        bad.values[0] = 0.5;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "game.empty-coalition-zero"));

        // A non-finite coalition value.
        let mut bad = good;
        bad.values[3] = f64::INFINITY;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "game.values-finite"));
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn table_rejects_bad_length() {
        TableGame::new(vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "U(empty)")]
    fn table_rejects_nonzero_empty() {
        TableGame::new(vec![1.0, 1.0]);
    }

    #[test]
    fn core_membership() {
        // Additive game: the individual-value allocation is in the core.
        let g = FnGame {
            n: 4,
            f: |m: u32| m.count_ones() as f64,
        };
        assert!(is_in_core(&g, &[1.0, 1.0, 1.0, 1.0], 1e-9));
        // Inefficient allocation fails.
        assert!(!is_in_core(&g, &[1.0, 1.0, 1.0, 0.5], 1e-9));
        // Efficient but coalition-irrational allocation fails.
        assert!(!is_in_core(&g, &[4.0, 0.0, 0.0, 0.0], 1e-9));
    }

    #[test]
    fn shapley_in_core_of_supermodular_game() {
        // Theorem 8's flavor: convex games have their Shapley value in
        // the core.
        let g = quadratic(6);
        assert!(is_supermodular(&g));
        let shap = crate::shapley::shapley_exact(&g);
        assert!(is_in_core(&g, &shap.values, 1e-6));
    }

    #[test]
    fn diminishing_coalition_saturates() {
        // The paper's qualitative point: with a saturating value
        // function, supermodularity fails once the coalition covers the
        // important members.
        let g = FnGame {
            n: 6,
            f: |m: u32| 1.0 - 0.5f64.powi(m.count_ones() as i32),
        };
        assert!(!is_supermodular(&g));
    }
}
