//! Cooperative games over feature coalitions.
//!
//! Shapley-value explanation methods (§2.1.2) differ only in **which game
//! they play** — how the value `v(S)` of a feature coalition `S` is defined
//! — and in **how the Shapley values of that game are approximated**. This
//! module fixes the game abstraction; `exact`, `sampling` and `kernel`
//! implement the estimators; `causal`/`asymmetric` swap in interventional
//! games.

// Row assembly reads two parallel sources per index.
#![allow(clippy::needless_range_loop)]
use xai_rand::rngs::StdRng;
use xai_rand::Rng;
use xai_linalg::Matrix;

/// A transferable-utility cooperative game over `n_players` features.
pub trait CooperativeGame {
    /// Number of players (features).
    fn n_players(&self) -> usize;

    /// Value of a coalition, given as a membership mask of length
    /// [`CooperativeGame::n_players`].
    fn value(&self, coalition: &[bool]) -> f64;

    /// Value of the empty coalition (the baseline).
    fn empty_value(&self) -> f64 {
        self.value(&vec![false; self.n_players()])
    }

    /// Value of the grand coalition (the full prediction).
    fn grand_value(&self) -> f64 {
        self.value(&vec![true; self.n_players()])
    }
}

/// The standard SHAP prediction game (Lundberg & Lee):
/// `v(S) = E[f(x_S, X_{\bar S})]`, the expectation over a background sample
/// of the model output with off-coalition features replaced by background
/// values (the marginal expectation).
/// Generic over the model's function type (defaulting to a plain trait
/// object) so that `Sync`-ness propagates: built from a `Sync` closure the
/// game is itself `Sync` and can be shared by the chunk tasks of a
/// `workers > 1` plan.
pub struct PredictionGame<'a, F: ?Sized = dyn Fn(&[f64]) -> f64 + 'a> {
    model: &'a F,
    instance: &'a [f64],
    background: &'a Matrix,
}

impl<'a, F: Fn(&[f64]) -> f64 + ?Sized> PredictionGame<'a, F> {
    /// Builds the game.
    ///
    /// # Panics
    /// Panics when the background is empty or arities disagree.
    pub fn new(model: &'a F, instance: &'a [f64], background: &'a Matrix) -> Self {
        assert!(background.rows() > 0, "background must be non-empty");
        assert_eq!(
            background.cols(),
            instance.len(),
            "background/instance arity mismatch"
        );
        Self { model, instance, background }
    }

    /// The instance being explained.
    pub fn instance(&self) -> &[f64] {
        self.instance
    }
}

impl<F: Fn(&[f64]) -> f64 + ?Sized> CooperativeGame for PredictionGame<'_, F> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        assert_eq!(coalition.len(), self.n_players());
        let mut total = 0.0;
        let mut row = vec![0.0; self.instance.len()];
        for b in 0..self.background.rows() {
            let bg = self.background.row(b);
            for j in 0..row.len() {
                row[j] = if coalition[j] { self.instance[j] } else { bg[j] };
            }
            total += (self.model)(&row);
        }
        total / self.background.rows() as f64
    }
}

/// A game defined by an explicit value table over bitmask-indexed
/// coalitions — handy for tests and for textbook games (glove, majority).
pub struct TableGame {
    n: usize,
    values: Vec<f64>,
}

impl TableGame {
    /// Builds from a table of length `2^n`, indexed by coalition bitmask
    /// (bit `i` set ⇔ player `i` in the coalition).
    pub fn new(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), 1usize << n, "table must have 2^n entries");
        Self { n, values }
    }

    /// The classic 3-player glove game: players {0,1} hold left gloves,
    /// player 2 a right glove; a pair is worth 1.
    pub fn glove() -> Self {
        let mut values = vec![0.0; 8];
        for mask in 0..8usize {
            let left = (mask & 1 != 0) || (mask & 2 != 0);
            let right = mask & 4 != 0;
            values[mask] = f64::from(left && right);
        }
        Self::new(3, values)
    }
}

impl CooperativeGame for TableGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        assert_eq!(coalition.len(), self.n);
        let mut mask = 0usize;
        for (i, &in_s) in coalition.iter().enumerate() {
            if in_s {
                mask |= 1 << i;
            }
        }
        self.values[mask]
    }
}

/// Converts a bitmask to a membership vector.
pub fn mask_to_coalition(mask: usize, n: usize) -> Vec<bool> {
    (0..n).map(|i| mask & (1 << i) != 0).collect()
}

/// Draws a uniformly random permutation of `0..n`.
pub fn random_permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_rand::SeedableRng;

    #[test]
    fn prediction_game_interpolates_between_baseline_and_prediction() {
        let model = |x: &[f64]| 3.0 * x[0] + x[1];
        let background = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0]]);
        let instance = [1.0, 5.0];
        let game = PredictionGame::new(&model, &instance, &background);
        // v(∅) = mean(f(bg)) = mean(0, 8) = 4
        assert!((game.empty_value() - 4.0).abs() < 1e-12);
        // v(full) = f(instance) = 8
        assert!((game.grand_value() - 8.0).abs() < 1e-12);
        // v({0}) = mean over bg of f(1, bg1) = mean(3+0, 3+2) = 4
        assert!((game.value(&[true, false]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn glove_game_table() {
        let g = TableGame::glove();
        assert_eq!(g.empty_value(), 0.0);
        assert_eq!(g.grand_value(), 1.0);
        assert_eq!(g.value(&[true, true, false]), 0.0); // two lefts, no pair
        assert_eq!(g.value(&[true, false, true]), 1.0);
    }

    #[test]
    fn mask_roundtrip() {
        assert_eq!(mask_to_coalition(0b101, 3), vec![true, false, true]);
        assert_eq!(mask_to_coalition(0, 2), vec![false, false]);
    }

    #[test]
    fn permutations_are_valid_and_seeded() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_permutation(&mut rng, 10);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        let mut rng2 = StdRng::seed_from_u64(3);
        assert_eq!(p, random_permutation(&mut rng2, 10));
    }
}
