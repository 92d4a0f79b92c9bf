//! Zero-copy masked coalition evaluation (DESIGN.md §12).
//!
//! [`crate::BatchPredictionGame`] amortizes model calls but still
//! *materializes* every perturbed row of a sampling round — a full
//! background memcpy plus column patches per coalition. The games here
//! skip the copies entirely:
//!
//! - [`MaskedPredictionGame`] turns each coalition into a `u64` bitmask
//!   and hands `(instance, background, masks)` to
//!   [`ModelOracle::predict_masked`], where every model family reads the
//!   instance column or the background column per the mask — blocked
//!   masked kernels for linear/logistic/MLP, masked split routing for the
//!   tree ensembles, and an arena-backed gather fallback for everything
//!   else. Predictions land in arena scratch, so steady-state rounds make
//!   zero heap allocations.
//! - [`MemoGame`] wraps any [`BatchGame`] with the shared cross-request
//!   [`CoalitionMemo`]: coalition values are looked up under
//!   `(GameKey, mask)` before touching the oracle and published after, so
//!   repeated serve traffic against the same (model, background, instance)
//!   skips whole rounds.
//!
//! Both wrappers preserve the workspace determinism contract bitwise. The
//! masked kernels accumulate in exactly the order of their materialized
//! twins (`xai_linalg::batch` docs that contract per kernel), the
//! per-coalition mean below accumulates in background order exactly like
//! `BatchPredictionGame::values`, and a memo hit substitutes a value that
//! is a pure function of its key — `tests/masked_equivalence.rs` pins all
//! of it per model family and mask pattern.

use crate::batch::BatchGame;
use crate::game::CooperativeGame;
use std::collections::HashMap;
use xai_core::memo::{CoalitionMemo, GameKey};
use xai_core::ModelOracle;
use xai_linalg::Matrix;

/// Width of the coalition bitmask: masked games support at most 64
/// players. Wider games fall back to materialized evaluation.
pub const MAX_MASKED_PLAYERS: usize = 64;

/// Packs a membership slice into a `u64` bitmask (player `i` ⇔ bit `i`).
///
/// # Panics
/// Panics when the coalition has more than [`MAX_MASKED_PLAYERS`] members.
pub fn coalition_mask(coalition: &[bool]) -> u64 {
    assert!(
        coalition.len() <= MAX_MASKED_PLAYERS,
        "coalition bitmask supports at most {MAX_MASKED_PLAYERS} players, got {}",
        coalition.len()
    );
    let mut mask = 0u64;
    for (i, &in_s) in coalition.iter().enumerate() {
        mask |= (in_s as u64) << i;
    }
    mask
}

/// The SHAP prediction game over [`ModelOracle::predict_masked`]: the
/// semantics of [`crate::PredictionGame`] (marginal expectation over a
/// background sample) with **no perturbed row ever materialized**.
pub struct MaskedPredictionGame<'a> {
    model: &'a dyn ModelOracle,
    instance: &'a [f64],
    background: &'a Matrix,
}

impl<'a> MaskedPredictionGame<'a> {
    /// Builds the game.
    ///
    /// # Panics
    /// Panics when the background is empty, arities disagree, or the
    /// instance has more than [`MAX_MASKED_PLAYERS`] features.
    pub fn new(model: &'a dyn ModelOracle, instance: &'a [f64], background: &'a Matrix) -> Self {
        assert!(background.rows() > 0, "background must be non-empty");
        assert_eq!(background.cols(), instance.len(), "background/instance arity mismatch");
        assert!(
            instance.len() <= MAX_MASKED_PLAYERS,
            "masked games support at most {MAX_MASKED_PLAYERS} players, got {}",
            instance.len()
        );
        Self { model, instance, background }
    }

    /// The instance being explained.
    pub fn instance(&self) -> &[f64] {
        self.instance
    }
}

impl CooperativeGame for MaskedPredictionGame<'_> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.values(std::slice::from_ref(&coalition.to_vec()))[0]
    }
}

impl BatchGame for MaskedPredictionGame<'_> {
    fn values(&self, coalitions: &[Vec<bool>]) -> Vec<f64> {
        let b = self.background.rows();
        let d = self.instance.len();
        let masks: Vec<u64> = coalitions
            .iter()
            .enumerate()
            .map(|(c, coalition)| {
                assert_eq!(
                    coalition.len(),
                    d,
                    "coalition {c} has {} members but the game has {d} players",
                    coalition.len()
                );
                coalition_mask(coalition)
            })
            .collect();
        xai_linalg::arena::with_scratch_vec(|preds| {
            self.model.predict_masked(self.instance, self.background, &masks, preds);
            assert_eq!(preds.len(), masks.len() * b, "model returned wrong masked batch size");
            // Per-coalition mean over its block, accumulating in background
            // order — the same summation order as PredictionGame::value and
            // BatchPredictionGame::values.
            (0..masks.len())
                .map(|c| {
                    let mut total = 0.0;
                    for &p in &preds[c * b..(c + 1) * b] {
                        total += p;
                    }
                    total / b as f64
                })
                .collect()
        })
    }
}

/// A [`BatchGame`] wrapper over a [`CoalitionMemo`]. Lookups and inserts
/// are keyed under this game's [`GameKey`], so with the serving engine's
/// shared memo any request against the same (model, background,
/// instance) triple shares values, across explainers (Kernel SHAP and
/// permutation walks hit the same entries) and across serve workers; a
/// memo local to one call deduplicates the coalitions that call repeats.
///
/// Two phases per call: hits are served under the memo's lock, distinct
/// misses are evaluated *outside* it in one batched round, then
/// published. Racing workers may evaluate the same mask twice;
/// both compute the identical deterministic value, so the duplicate insert
/// is harmless and output never changes.
pub struct MemoGame<'a, G: BatchGame + ?Sized> {
    inner: &'a G,
    memo: &'a CoalitionMemo,
    key: GameKey,
}

impl<'a, G: BatchGame + ?Sized> MemoGame<'a, G> {
    /// Wraps `inner`, memoizing under `key` in `memo`.
    ///
    /// # Panics
    /// Panics above [`MAX_MASKED_PLAYERS`] players (the bitmask width).
    pub fn new(inner: &'a G, memo: &'a CoalitionMemo, key: GameKey) -> Self {
        assert!(
            inner.n_players() <= MAX_MASKED_PLAYERS,
            "coalition memo supports at most {MAX_MASKED_PLAYERS} players"
        );
        Self { inner, memo, key }
    }
}

impl<G: BatchGame + ?Sized> CooperativeGame for MemoGame<'_, G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.values(std::slice::from_ref(&coalition.to_vec()))[0]
    }
}

impl<G: BatchGame + ?Sized> BatchGame for MemoGame<'_, G> {
    fn values(&self, coalitions: &[Vec<bool>]) -> Vec<f64> {
        let masks: Vec<u64> = coalitions.iter().map(|c| coalition_mask(c)).collect();
        let mut found: Vec<Option<f64>> = vec![None; masks.len()];
        self.memo.get_many(&self.key, &masks, &mut found);

        // Collect distinct misses in first-seen order.
        let mut miss_masks: Vec<u64> = Vec::new();
        let mut miss_coalitions: Vec<Vec<bool>> = Vec::new();
        let mut seen: HashMap<u64, ()> = HashMap::new();
        for ((&mask, coalition), slot) in masks.iter().zip(coalitions).zip(&found) {
            if slot.is_none() && seen.insert(mask, ()).is_none() {
                miss_masks.push(mask);
                miss_coalitions.push(coalition.clone());
            }
        }
        if miss_coalitions.is_empty() {
            return found.into_iter().map(|v| v.expect("all hits")).collect();
        }
        let fresh = self.inner.values(&miss_coalitions);
        let fresh_by_mask: HashMap<u64, f64> =
            miss_masks.iter().copied().zip(fresh.iter().copied()).collect();
        self.memo.insert_many(&self.key, miss_masks.into_iter().zip(fresh));
        found
            .into_iter()
            .zip(&masks)
            .map(|(slot, mask)| slot.unwrap_or_else(|| fresh_by_mask[mask]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPredictionGame;
    use crate::game::{mask_to_coalition, PredictionGame};
    use xai_core::FnOracle;

    fn toy() -> (Vec<f64>, Matrix) {
        let instance = vec![1.0, 5.0, -2.0];
        let background =
            Matrix::from_rows(&[vec![0.0, 0.0, 0.0], vec![2.0, 2.0, 2.0], vec![-1.0, 0.5, 3.0]]);
        (instance, background)
    }

    #[test]
    fn coalition_mask_round_trips() {
        for m in 0..32u64 {
            let c = mask_to_coalition(m as usize, 5);
            assert_eq!(coalition_mask(&c), m);
        }
    }

    #[test]
    fn masked_game_matches_scalar_and_batched_bitwise() {
        let (instance, background) = toy();
        let scalar = |x: &[f64]| (3.0 * x[0] + x[1]) * (x[2] + 0.7).tanh();
        let batched = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(scalar).collect() };
        let oracle = FnOracle::new(3, scalar);
        let g_scalar = PredictionGame::new(&scalar, &instance, &background);
        let g_batch = BatchPredictionGame::new(&batched, &instance, &background);
        let g_masked = MaskedPredictionGame::new(&oracle, &instance, &background);
        let coalitions: Vec<Vec<bool>> = (0..8).map(|m| mask_to_coalition(m, 3)).collect();
        let masked_vals = g_masked.values(&coalitions);
        assert_eq!(masked_vals, g_batch.values(&coalitions));
        for (c, v) in coalitions.iter().zip(&masked_vals) {
            assert_eq!(*v, g_scalar.value(c), "coalition {c:?}");
            assert_eq!(g_masked.value(c), g_scalar.value(c));
        }
        assert_eq!(g_masked.n_players(), 3);
        assert_eq!(g_masked.empty_value(), g_scalar.empty_value());
        assert_eq!(g_masked.grand_value(), g_scalar.grand_value());
    }

    #[test]
    fn memo_game_serves_repeats_bit_identically_across_instances() {
        let (instance, background) = toy();
        let scalar = |x: &[f64]| x[0] * 0.3 + x[1] * x[2];
        let oracle = FnOracle::new(3, scalar);
        let game = MaskedPredictionGame::new(&oracle, &instance, &background);
        let memo = CoalitionMemo::new(256);
        let key = GameKey::derive(42, &background, &instance);
        let coalitions: Vec<Vec<bool>> = [3usize, 5, 3, 7, 5]
            .iter()
            .map(|&m| mask_to_coalition(m, 3))
            .collect();

        let plain = game.values(&coalitions);
        let memoized = MemoGame::new(&game, &memo, key);
        let first = memoized.values(&coalitions);
        assert_eq!(first, plain);
        let stats = memo.stats();
        assert_eq!(stats.entries, 3, "three distinct masks cached");

        // A *new* wrapper (fresh request) over the same key hits the memo.
        let second_wrapper = MemoGame::new(&game, &memo, key);
        let second = second_wrapper.values(&coalitions);
        assert_eq!(second, plain);
        assert_eq!(memo.stats().hits, stats.hits + coalitions.len() as u64);

        // A different instance derives a different key: no cross-talk.
        let other_instance = vec![9.0, 9.0, 9.0];
        let other_key = GameKey::derive(42, &background, &other_instance);
        let other_game = MaskedPredictionGame::new(&oracle, &other_instance, &background);
        let other = MemoGame::new(&other_game, &memo, other_key);
        let other_vals = other.values(&coalitions);
        assert_eq!(other_vals, other_game.values(&coalitions));
        assert_ne!(other_vals, plain);
    }

    #[test]
    fn memo_game_rejects_too_many_players() {
        use crate::game::TableGame;
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
        let memo = CoalitionMemo::new(16);
        let key = GameKey { model: 0, background: 0, instance: 0 };
        assert!(std::panic::catch_unwind(|| MemoGame::new(&Wide, &memo, key)).is_err());
        // 64 players is fine.
        let table = TableGame::new(2, vec![0.0, 1.0, 2.0, 3.0]);
        let _ = MemoGame::new(&table, &memo, key);
    }
}
