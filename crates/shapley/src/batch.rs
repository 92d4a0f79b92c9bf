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
//!   `xai_models::BatchPredictFn`);
//! - [`CachedGame`] memoizes coalition values by bitmask *within one
//!   game instance*, so repeated subsets hit a hash map instead of the
//!   model.
//!
//! Materialization is **not** the only strategy, and since the zero-copy
//! layer (DESIGN.md §12) it is no longer the default one. Which path a
//! `batched: true` plan takes is decided in `explainer.rs`:
//!
//! - **≤ 64 features and a [`xai_core::ModelOracle`]** — the unified
//!   explainers build a [`crate::masked::MaskedPredictionGame`], which
//!   encodes each coalition as a `u64` bitmask and evaluates it through
//!   `ModelOracle::predict_masked` with **no perturbed row ever copied**
//!   (masked kernels in `xai_linalg::batch`, arena scratch for outputs).
//!   When the request carries a shared [`xai_core::CoalitionMemo`] handle,
//!   the game is additionally wrapped in a
//!   [`crate::masked::MemoGame`] — the cross-request generalization of
//!   [`CachedGame`].
//! - **> 64 features, or callers holding only a closure** — the
//!   [`BatchPredictionGame`] here, which trades one big allocation for
//!   batched inference and works at any arity.
//!
//! A `batched: false` plan evaluates the scalar
//! [`crate::PredictionGame`] through the same estimator bodies: every
//! [`CooperativeGame`] is a `BatchGame` by the default one-by-one loop,
//! so `batched` picks a game object, never an estimator.
//!
//! Everything on either path preserves the workspace determinism contract
//! *bitwise*: a batched estimator run equals its scalar counterpart
//! bit-for-bit at the same seed and worker count
//! (`tests/batch_equivalence.rs`, `tests/masked_equivalence.rs`), because
//! (a) randomness is always drawn before evaluation and evaluation never
//! consumes randomness, (b) per-coalition averaging keeps the background
//! accumulation order, and (c) the batched and masked model kernels are
//! themselves bit-identical to the scalar predictors.

use crate::game::{CooperativeGame, TableGame};
use std::collections::HashMap;
use std::sync::Mutex;
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

/// Cache counters and the memo table, behind one lock.
struct CacheState {
    memo: HashMap<u64, f64>,
    hits: usize,
    misses: usize,
}

/// A memoizing wrapper around any [`BatchGame`]: coalition values are
/// cached under their membership bitmask (player `i` ⇔ bit `i`), so
/// repeated subsets within a seeded run — common in permutation walks and
/// sampled Kernel SHAP — cost one hash lookup instead of a model round.
///
/// Because game values are deterministic functions of the coalition, a
/// cache hit returns the bit-identical value the game would have produced;
/// wrapping a game in `CachedGame` never changes estimator output. The
/// wrapper is `Sync` (the memo sits behind a [`Mutex`]) and misses are
/// evaluated *outside* the lock, batched per call, so parallel workers
/// share the cache without serializing their model rounds.
pub struct CachedGame<'a, G: BatchGame + ?Sized> {
    inner: &'a G,
    state: Mutex<CacheState>,
}

impl<'a, G: BatchGame + ?Sized> CachedGame<'a, G> {
    /// Wraps a game. Panics above 64 players (the bitmask key width).
    pub fn new(inner: &'a G) -> Self {
        assert!(
            inner.n_players() <= 64,
            "coalition bitmask cache supports at most 64 players"
        );
        Self {
            inner,
            state: Mutex::new(CacheState { memo: HashMap::new(), hits: 0, misses: 0 }),
        }
    }

    fn mask_of(coalition: &[bool]) -> u64 {
        let mut mask = 0u64;
        for (i, &in_s) in coalition.iter().enumerate() {
            if in_s {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// `(hits, misses)` so far; a miss is a coalition forwarded to the
    /// underlying game.
    pub fn stats(&self) -> (usize, usize) {
        let state = self.state.lock().expect("cache lock poisoned");
        (state.hits, state.misses)
    }

    /// Number of distinct coalitions cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").memo.len()
    }

    /// Whether the cache is still empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<G: BatchGame + ?Sized> CooperativeGame for CachedGame<'_, G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.values(std::slice::from_ref(&coalition.to_vec()))[0]
    }
}

impl<G: BatchGame + ?Sized> BatchGame for CachedGame<'_, G> {
    fn values(&self, coalitions: &[Vec<bool>]) -> Vec<f64> {
        let masks: Vec<u64> = coalitions.iter().map(|c| Self::mask_of(c)).collect();
        let mut out = vec![0.0; coalitions.len()];
        // Phase 1: serve hits, collect distinct misses in first-seen order.
        let mut miss_masks: Vec<u64> = Vec::new();
        let mut miss_coalitions: Vec<Vec<bool>> = Vec::new();
        let mut unresolved: Vec<usize> = Vec::new();
        {
            let mut state = self.state.lock().expect("cache lock poisoned");
            let mut seen_this_call: HashMap<u64, ()> = HashMap::new();
            for (i, (&mask, coalition)) in masks.iter().zip(coalitions).enumerate() {
                if let Some(&v) = state.memo.get(&mask) {
                    state.hits += 1;
                    out[i] = v;
                } else {
                    state.misses += 1;
                    unresolved.push(i);
                    if seen_this_call.insert(mask, ()).is_none() {
                        miss_masks.push(mask);
                        miss_coalitions.push(coalition.clone());
                    }
                }
            }
        }
        if miss_coalitions.is_empty() {
            return out;
        }
        // Phase 2: one batched round for the distinct misses, lock released
        // so concurrent workers overlap their model evaluation. (A racing
        // worker may evaluate the same mask; both compute the identical
        // deterministic value, so the duplicate insert is harmless.)
        let fresh = self.inner.values(&miss_coalitions);
        let fresh_by_mask: HashMap<u64, f64> =
            miss_masks.iter().copied().zip(fresh.iter().copied()).collect();
        {
            let mut state = self.state.lock().expect("cache lock poisoned");
            for (&mask, &v) in miss_masks.iter().zip(&fresh) {
                state.memo.insert(mask, v);
            }
        }
        for i in unresolved {
            out[i] = fresh_by_mask[&masks[i]];
        }
        out
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

    #[test]
    fn cached_game_serves_repeats_bit_identically_and_counts() {
        let game = TableGame::new(
            4,
            (0..16).map(|m: usize| (m.count_ones() as f64).sqrt() * 1.3 - 0.1).collect(),
        );
        let cached = CachedGame::new(&game);
        let coalitions: Vec<Vec<bool>> = [3usize, 5, 3, 9, 5, 3]
            .iter()
            .map(|&m| mask_to_coalition(m, 4))
            .collect();
        let vals = cached.values(&coalitions);
        for (c, v) in coalitions.iter().zip(&vals) {
            assert_eq!(*v, game.value(c));
        }
        // All six requests of the first call miss (the cache fills only at
        // the end of the call), but only the 3 distinct masks reach the
        // underlying game.
        assert_eq!(cached.stats(), (0, 6));
        assert_eq!(cached.len(), 3);
        // Second pass over the same coalitions: all hits, same bits.
        let again = cached.values(&coalitions);
        assert_eq!(again, vals);
        assert_eq!(cached.stats(), (6, 6));
        // Scalar entry point goes through the cache too.
        assert_eq!(cached.value(&coalitions[0]), vals[0]);
        assert_eq!(cached.stats(), (7, 6));
    }

    #[test]
    fn cached_game_rejects_too_many_players() {
        struct Wide;
        impl CooperativeGame for Wide {
            fn n_players(&self) -> usize {
                65
            }
            fn value(&self, _c: &[bool]) -> f64 {
                0.0
            }
        }
        impl BatchGame for Wide {}
        let result = std::panic::catch_unwind(|| CachedGame::new(&Wide));
        assert!(result.is_err());
    }
}
