//! Batched coalition evaluation: the [`BatchGame`] abstraction plus its
//! **materializing** implementation.
//!
//! The Monte-Carlo estimators spend essentially all of their time asking a
//! game for coalition values, and for prediction games each such call
//! assembles `|background|` perturbed rows and feeds them through the
//! model one row at a time. This module holds the trait that amortizes
//! that cost and one of two strategies for implementing it:
//!
//! - [`BatchGame`] extends [`CooperativeGame`] with a many-coalitions-in /
//!   many-values-out entry point;
//! - [`BatchPredictionGame`] materializes *all* perturbed rows of a
//!   sampling round into one [`Matrix`] and makes a single call through a
//!   batched model surface (`Fn(&Matrix) -> Vec<f64>`, see
//!   `xai_models::BatchPredictFn`).
//!
//! Materialization is **not** the only strategy, and since the zero-copy
//! layer (DESIGN.md §12) it is no longer the default one. The unified
//! explainers in `explainer.rs` pick one game per input, by arity alone:
//!
//! - **≤ 64 features and a [`xai_core::ModelOracle`]** — the unified
//!   explainers build a [`crate::masked::MaskedPredictionGame`], which
//!   encodes each coalition as a `u64` bitmask and evaluates it through
//!   `ModelOracle::predict_masked` with **no perturbed row ever copied**
//!   (masked kernels in `xai_linalg::batch`, arena scratch for outputs).
//!   When the request carries a shared [`xai_core::CoalitionMemo`] handle,
//!   the game is additionally wrapped in a
//!   [`crate::masked::MemoGame`], which serves repeated coalitions from
//!   the memo instead of the model.
//! - **> 64 features, or callers holding only a closure** — the
//!   [`BatchPredictionGame`] here, which trades one big allocation for
//!   batched inference and works at any arity.
//!
//! `RunConfig::batched` selects nothing. The scalar
//! [`crate::PredictionGame`] remains the reference that callers of the
//! free estimator functions may still pass: every [`CooperativeGame`] is
//! a `BatchGame` by the default one-by-one loop.
//!
//! Every game preserves the workspace determinism contract *bitwise*: an
//! estimator run over a batched or masked game equals its run over the
//! scalar game bit-for-bit at the same seed and worker count
//! (`tests/batch_equivalence.rs`, `tests/masked_equivalence.rs`), because
//! (a) randomness is always drawn before evaluation and evaluation never
//! consumes randomness, (b) per-coalition averaging keeps the background
//! accumulation order, and (c) the batched and masked model kernels are
//! themselves bit-identical to the scalar predictors.

use crate::game::{CooperativeGame, TableGame};
use xai_linalg::Matrix;

/// A cooperative game that can evaluate many coalitions per call.
///
/// The default implementation is the scalar loop, so any game is trivially
/// a `BatchGame`; games backed by batched model inference override
/// [`BatchGame::values`] to amortize the per-call cost.
pub trait BatchGame: CooperativeGame {
    /// Values of all `coalitions`, in order. Must equal
    /// `coalitions.iter().map(|c| self.value(c))` bit-for-bit.
    fn values(&self, coalitions: &[Vec<bool>]) -> Vec<f64> {
        coalitions.iter().map(|c| self.value(c)).collect()
    }
}

impl BatchGame for TableGame {}

// A scalar prediction game is a batch game via the default row loop, so
// the batched estimator entry points accept it as a drop-in.
impl<F: Fn(&[f64]) -> f64 + ?Sized> BatchGame for crate::game::PredictionGame<'_, F> {}

/// The SHAP prediction game over a **batched** model surface: semantics of
/// [`crate::PredictionGame`] (marginal expectation over a background
/// sample), but one model call per coalition *round* instead of one per
/// perturbed row.
///
/// Generic over the model's function type exactly like `PredictionGame`,
/// so `Sync` closures yield a `Sync` game for the parallel estimators.
pub struct BatchPredictionGame<'a, F: ?Sized = dyn Fn(&Matrix) -> Vec<f64> + 'a> {
    model: &'a F,
    instance: &'a [f64],
    background: &'a Matrix,
}

impl<'a, F: Fn(&Matrix) -> Vec<f64> + ?Sized> BatchPredictionGame<'a, F> {
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

impl<F: Fn(&Matrix) -> Vec<f64> + ?Sized> CooperativeGame for BatchPredictionGame<'_, F> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.values(std::slice::from_ref(&coalition.to_vec()))[0]
    }
}

impl<F: Fn(&Matrix) -> Vec<f64> + ?Sized> BatchGame for BatchPredictionGame<'_, F> {
    fn values(&self, coalitions: &[Vec<bool>]) -> Vec<f64> {
        let b = self.background.rows();
        let d = self.instance.len();
        // Materialize every perturbed row of the round into one matrix:
        // coalition c occupies the contiguous row block [c*b, (c+1)*b).
        // Each block is one memcpy of the whole background followed by a
        // strided patch of the coalition's columns — far cheaper than a
        // branch per element.
        let mut probes = Matrix::zeros(coalitions.len() * b, d);
        let bg_flat = self.background.as_slice();
        let out_flat = probes.as_mut_slice();
        for (c, coalition) in coalitions.iter().enumerate() {
            assert_eq!(
                coalition.len(),
                d,
                "coalition {c} has {} members but the game has {d} players",
                coalition.len()
            );
            let block = &mut out_flat[c * b * d..(c + 1) * b * d];
            block.copy_from_slice(bg_flat);
            for (j, _) in coalition.iter().enumerate().filter(|(_, &in_s)| in_s) {
                let v = self.instance[j];
                for bi in 0..b {
                    block[bi * d + j] = v;
                }
            }
        }
        let preds = (self.model)(&probes);
        assert_eq!(preds.len(), coalitions.len() * b, "model returned wrong batch size");
        // Per-coalition mean over its block, accumulating in background
        // order — the same summation order as PredictionGame::value.
        (0..coalitions.len())
            .map(|c| {
                let mut total = 0.0;
                for &p in &preds[c * b..(c + 1) * b] {
                    total += p;
                }
                total / b as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{mask_to_coalition, PredictionGame};

    fn toy() -> (Vec<f64>, Matrix) {
        let instance = vec![1.0, 5.0, -2.0];
        let background =
            Matrix::from_rows(&[vec![0.0, 0.0, 0.0], vec![2.0, 2.0, 2.0], vec![-1.0, 0.5, 3.0]]);
        (instance, background)
    }

    #[test]
    fn batch_prediction_game_matches_scalar_game_bitwise() {
        let (instance, background) = toy();
        let scalar = |x: &[f64]| (3.0 * x[0] + x[1]) * (x[2] + 0.7).tanh();
        let batched = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(scalar).collect() };
        let g_scalar = PredictionGame::new(&scalar, &instance, &background);
        let g_batch = BatchPredictionGame::new(&batched, &instance, &background);
        let coalitions: Vec<Vec<bool>> = (0..8).map(|m| mask_to_coalition(m, 3)).collect();
        let vals = g_batch.values(&coalitions);
        for (c, v) in coalitions.iter().zip(&vals) {
            assert_eq!(*v, g_scalar.value(c), "coalition {c:?}");
            assert_eq!(g_batch.value(c), g_scalar.value(c));
        }
        assert_eq!(g_batch.n_players(), 3);
        assert_eq!(g_batch.empty_value(), g_scalar.empty_value());
        assert_eq!(g_batch.grand_value(), g_scalar.grand_value());
    }
}
