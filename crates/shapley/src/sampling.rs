//! Monte-Carlo Shapley estimation by permutation sampling.
//!
//! The classic unbiased estimator (Castro et al.; the engine behind
//! Quantitative Input Influence's Shapley variant, §2.1.2 \[14\]): draw a
//! random feature ordering, walk it, and record each player's marginal
//! contribution when it joins. Cost per permutation is `n + 1` game
//! evaluations; the estimate converges at the Monte-Carlo `1/√m` rate —
//! experiment E2's subject.
//!
//! The estimator has two draw layouts, each written once: the one-stream
//! sequential layout ([`try_permutation_shapley_budgeted`], which also
//! meters a [`SampleBudget`]) and the chunk layout, where chunk `c` walks
//! permutations drawn from `child_seed(seed, c)` — the grid
//! `PermutationShapleyMethod` runs for `workers > 1` and the shard layer
//! partitions. Both evaluate walks through [`BatchGame::values`]; a game
//! without a batched override (such as the scalar `PredictionGame`) takes
//! its default one-by-one loop.

use crate::batch::BatchGame;
use crate::game::{random_permutation, CooperativeGame};
use xai_core::{catch_model, SampleBudget, XaiError, XaiResult};
use xai_rand::parallel::sum_partials;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

/// Result of a permutation-sampling run.
#[derive(Clone, Debug)]
pub struct SampledShapley {
    /// The Shapley estimates.
    pub phi: Vec<f64>,
    /// Per-player standard error estimates (σ̂/√m).
    pub std_err: Vec<f64>,
    /// Number of permutations drawn.
    pub permutations: usize,
}

/// Estimates Shapley values from `permutations` random orderings.
///
/// # Panics
/// Panics when the game evaluates to non-finite values or panics itself;
/// use [`try_permutation_shapley`] for typed errors.
pub fn permutation_shapley(
    game: &dyn BatchGame,
    permutations: usize,
    seed: u64,
) -> SampledShapley {
    try_permutation_shapley(game, permutations, seed)
        .expect("permutation Shapley failed; try_permutation_shapley recovers this")
}

/// Fallible twin of [`permutation_shapley`]: a game that panics or
/// produces non-finite values yields [`XaiError::ModelFault`] instead of
/// unwinding or leaking NaN into the estimate; `permutations == 0` is
/// [`XaiError::Unsupported`].
pub fn try_permutation_shapley(
    game: &dyn BatchGame,
    permutations: usize,
    seed: u64,
) -> XaiResult<SampledShapley> {
    try_permutation_shapley_budgeted(game, permutations, seed, SampleBudget::unlimited())
}

/// Budget-aware fallible permutation sampling — the one-stream
/// sequential layout: walks drawn from `seed_from_u64(seed)` in rounds of
/// [`PERMS_PER_CHUNK`], each round's walk coalitions evaluated in one
/// [`BatchGame::values`] call. It stops drawing walks once
/// `budget` is exhausted (each walk costs `n + 1` evaluations) and
/// returns the **best-effort partial estimate** from the walks that did
/// complete — `result.permutations` reports how many that was. Fails with
/// [`XaiError::BudgetExceeded`] only when the budget expires before the
/// first walk. An eval cap of `k` runs exactly the walks that start
/// below `k` evaluations, so its truncation point is deterministic; a
/// wall-clock deadline is checked between rounds of [`PERMS_PER_CHUNK`]
/// walks, so its truncation point is machine-dependent.
pub fn try_permutation_shapley_budgeted(
    game: &dyn BatchGame,
    permutations: usize,
    seed: u64,
    budget: SampleBudget,
) -> XaiResult<SampledShapley> {
    check_permutations(permutations)?;
    let n = game.n_players();
    let cap = budget.max_evals.map_or(permutations, |k| permutations.min(k.div_ceil(n + 1)));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let mut coalitions = Vec::new();
    let mut meter = budget.start();
    let mut done = 0;
    while done < cap && !meter.exhausted() {
        let round = PERMS_PER_CHUNK.min(cap - done);
        let perms: Vec<Vec<usize>> = (0..round).map(|_| random_permutation(&mut rng, n)).collect();
        catch_model("permutation Shapley walk evaluation", || {
            walk_round(game, &perms, &mut coalitions, &mut sum, &mut sum_sq);
        })?;
        meter.record(round * (n + 1));
        done += round;
    }
    if done == 0 {
        return Err(XaiError::BudgetExceeded {
            context: "permutation Shapley: budget expired before the first walk".into(),
            completed: 0,
        });
    }
    check_sampled_sums(&sum)?;
    Ok(finish_sampled(sum, sum_sq, done))
}

/// Rejects an empty walk count; shared by both draw layouts.
pub(crate) fn check_permutations(permutations: usize) -> XaiResult<()> {
    if permutations == 0 {
        return Err(XaiError::Unsupported {
            context: "permutation Shapley needs permutations >= 1".into(),
        });
    }
    Ok(())
}

/// Permutations per chunk of the chunk layout, and the evaluation round
/// of the sequential layout. Fixed (never derived from the worker count)
/// so the chunk grid — and hence the floating-point output — is
/// worker-invariant.
pub(crate) const PERMS_PER_CHUNK: usize = 16;

/// The chunk layout: draws `count` permutations from the chunk's RNG
/// stream (`child_seed(seed, c)`), walks them in one
/// [`BatchGame::values`] call (through the reusable `coalitions`
/// scratch), and returns the chunk-local `(sum, sum_sq)` marginal
/// accumulators. The shard executor runs this for every chunk, so any
/// partition merges bit-identically.
pub(crate) fn chunk_sums(
    game: &dyn BatchGame,
    count: usize,
    rng: &mut StdRng,
    coalitions: &mut Vec<Vec<bool>>,
) -> (Vec<f64>, Vec<f64>) {
    let n = game.n_players();
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let perms: Vec<Vec<usize>> = (0..count).map(|_| random_permutation(rng, n)).collect();
    walk_round(game, &perms, coalitions, &mut sum, &mut sum_sq);
    (sum, sum_sq)
}

/// Folds ordered per-chunk `(sum, sum_sq)` partials and finishes the
/// estimate — the merge epilogue of the chunk layout.
pub(crate) fn merge_chunk_sums(
    partials: Vec<(Vec<f64>, Vec<f64>)>,
    permutations: usize,
) -> XaiResult<SampledShapley> {
    let (sums, sums_sq): (Vec<_>, Vec<_>) = partials.into_iter().unzip();
    let sum = sum_partials(sums);
    let sum_sq = sum_partials(sums_sq);
    check_sampled_sums(&sum)?;
    Ok(finish_sampled(sum, sum_sq, permutations))
}

/// Materializes the `n + 1` walk coalitions of each permutation in a
/// round — `[∅, {p₀}, {p₀,p₁}, …, N]` — as one coalition list for a
/// single [`BatchGame::values`] call, then replays the walks against the
/// returned values. Each player joins exactly once per walk, so the
/// per-player sums accumulate in walk order whatever the game.
/// `coalitions` is scratch reused across rounds, so a round allocates no
/// coalition vectors once the buffer has grown to the round size.
fn walk_round(
    game: &dyn BatchGame,
    perms: &[Vec<usize>],
    coalitions: &mut Vec<Vec<bool>>,
    sum: &mut [f64],
    sum_sq: &mut [f64],
) {
    let n = sum.len();
    coalitions.resize_with(perms.len() * (n + 1), || vec![false; n]);
    for (p, perm) in perms.iter().enumerate() {
        let walk = &mut coalitions[p * (n + 1)..(p + 1) * (n + 1)];
        walk[0].fill(false);
        for (t, &player) in perm.iter().enumerate() {
            let (done, next) = walk.split_at_mut(t + 1);
            next[0].copy_from_slice(&done[t]);
            next[0][player] = true;
        }
    }
    let vals = game.values(coalitions);
    for (p, perm) in perms.iter().enumerate() {
        let base = p * (n + 1);
        let mut prev = vals[base];
        for (t, &player) in perm.iter().enumerate() {
            let cur = vals[base + t + 1];
            let marginal = cur - prev;
            sum[player] += marginal;
            sum_sq[player] += marginal * marginal;
            prev = cur;
        }
    }
}

/// Rejects partial sums poisoned by non-finite game values. Any ±Inf or
/// NaN game value necessarily leaves at least one non-finite per-player
/// sum (Inf−Inf is NaN and NaN is absorbing), so checking the reduced
/// sums is enough to guarantee no NaN reaches the estimate.
fn check_sampled_sums(sum: &[f64]) -> XaiResult<()> {
    if let Some(p) = sum.iter().position(|s| !s.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("permutation Shapley: player {p} accumulated marginal sum {}", sum[p]),
        });
    }
    Ok(())
}

/// Shared mean / standard-error epilogue of the permutation estimators.
fn finish_sampled(sum: Vec<f64>, sum_sq: Vec<f64>, permutations: usize) -> SampledShapley {
    let m = permutations as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_err = sum_sq
        .iter()
        .zip(&phi)
        .map(|(&sq, &mean)| {
            if permutations < 2 {
                f64::INFINITY
            } else {
                let var = (sq / m - mean * mean).max(0.0) * m / (m - 1.0);
                (var / m).sqrt()
            }
        })
        .collect();
    SampledShapley { phi, std_err, permutations }
}

/// Antithetic variant: pairs each permutation with its reverse, which
/// cancels first-order noise for near-additive games.
///
/// # Panics
/// Panics when the game panics or produces non-finite values; use
/// [`try_antithetic_permutation_shapley`] for typed errors.
pub fn antithetic_permutation_shapley(
    game: &dyn CooperativeGame,
    pairs: usize,
    seed: u64,
) -> SampledShapley {
    assert!(pairs > 0);
    let n = game.n_players();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0; n];
    let mut sum_sq = vec![0.0; n];
    let mut coalition = vec![false; n];
    let walk = |perm: &[usize], sum: &mut [f64], sum_sq: &mut [f64], coalition: &mut [bool]| {
        coalition.iter_mut().for_each(|c| *c = false);
        let mut prev = game.value(coalition);
        for &player in perm {
            coalition[player] = true;
            let cur = game.value(coalition);
            let marginal = cur - prev;
            sum[player] += marginal;
            sum_sq[player] += marginal * marginal;
            prev = cur;
        }
    };
    for _ in 0..pairs {
        let perm = random_permutation(&mut rng, n);
        walk(&perm, &mut sum, &mut sum_sq, &mut coalition);
        let rev: Vec<usize> = perm.iter().rev().copied().collect();
        walk(&rev, &mut sum, &mut sum_sq, &mut coalition);
    }
    let m = (2 * pairs) as f64;
    let phi: Vec<f64> = sum.iter().map(|s| s / m).collect();
    let std_err = sum_sq
        .iter()
        .zip(&phi)
        .map(|(&sq, &mean)| (((sq / m - mean * mean).max(0.0)) / m).sqrt())
        .collect();
    SampledShapley { phi, std_err, permutations: 2 * pairs }
}

/// Fallible twin of [`antithetic_permutation_shapley`]; failure semantics
/// as in [`try_permutation_shapley`].
pub fn try_antithetic_permutation_shapley(
    game: &dyn CooperativeGame,
    pairs: usize,
    seed: u64,
) -> XaiResult<SampledShapley> {
    let est = catch_model("antithetic permutation Shapley evaluation", || {
        antithetic_permutation_shapley(game, pairs, seed)
    })?;
    if let Some(p) = est.phi.iter().position(|v| !v.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("antithetic permutation Shapley: player {p} estimate is {}", est.phi[p]),
        });
    }
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::TableGame;
    use xai_linalg::norm2;
    use xai_linalg::vsub;
    use xai_rand::child_seed;

    /// The chunk layout over its whole grid, merged in one process.
    fn chunked(game: &dyn BatchGame, permutations: usize, seed: u64) -> SampledShapley {
        let partials = (0..permutations.div_ceil(PERMS_PER_CHUNK))
            .map(|c| {
                let count = PERMS_PER_CHUNK.min(permutations - c * PERMS_PER_CHUNK);
                let mut rng = StdRng::seed_from_u64(child_seed(seed, c as u64));
                chunk_sums(game, count, &mut rng, &mut Vec::new())
            })
            .collect();
        merge_chunk_sums(partials, permutations).unwrap()
    }

    #[test]
    fn chunked_estimator_converges() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let one = chunked(&game, 2000, 7);
        for (e, x) in one.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03, "{e} vs {x}");
        }
    }

    #[test]
    fn chunked_estimator_preserves_efficiency() {
        let game = TableGame::new(3, vec![1.0, 2.0, 0.0, 4.0, 3.0, 5.0, 2.0, 9.0]);
        let est = chunked(&game, 33, 5);
        let total: f64 = est.phi.iter().sum();
        assert!((total - (game.grand_value() - game.empty_value())).abs() < 1e-9);
    }

    #[test]
    fn converges_to_exact_on_glove() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let est = permutation_shapley(&game, 4000, 7);
        for (e, x) in est.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03, "{e} vs {x}");
        }
    }

    #[test]
    fn error_shrinks_with_more_permutations() {
        let game = TableGame::new(4, (0..16).map(|m: usize| (m.count_ones() as f64).powi(2)).collect());
        let exact = exact_shapley(&game);
        let small = permutation_shapley(&game, 20, 3);
        let large = permutation_shapley(&game, 2000, 3);
        let err_small = norm2(&vsub(&small.phi, &exact));
        let err_large = norm2(&vsub(&large.phi, &exact));
        assert!(
            err_large <= err_small + 1e-9,
            "error must not grow: {err_small} -> {err_large}"
        );
    }

    #[test]
    fn estimates_preserve_efficiency_exactly() {
        // Every permutation walk telescopes to v(N) − v(∅), so the estimate
        // satisfies efficiency for any sample size.
        let game = TableGame::new(3, vec![1.0, 2.0, 0.0, 4.0, 3.0, 5.0, 2.0, 9.0]);
        let est = permutation_shapley(&game, 13, 5);
        let total: f64 = est.phi.iter().sum();
        assert!((total - (game.grand_value() - game.empty_value())).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let game = TableGame::glove();
        let a = permutation_shapley(&game, 50, 11);
        let b = permutation_shapley(&game, 50, 11);
        assert_eq!(a.phi, b.phi);
        let c = permutation_shapley(&game, 50, 13);
        assert_ne!(a.phi, c.phi);
    }

    #[test]
    fn antithetic_matches_exact_too() {
        let game = TableGame::glove();
        let exact = exact_shapley(&game);
        let est = antithetic_permutation_shapley(&game, 2000, 9);
        for (e, x) in est.phi.iter().zip(&exact) {
            assert!((e - x).abs() < 0.03);
        }
        assert_eq!(est.permutations, 4000);
    }

    #[test]
    fn batched_matches_scalar_bitwise() {
        use crate::batch::BatchPredictionGame;
        use crate::masked::MemoGame;
        use xai_core::memo::{CoalitionMemo, GameKey};
        use crate::game::PredictionGame;
        use xai_linalg::Matrix;

        // Prediction game: scalar loop vs. materialized probe matrix.
        let model = |x: &[f64]| (x[0] * 0.4 - x[1]).exp() / (1.0 + x[2].abs());
        let batched_model = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(model).collect() };
        let background =
            Matrix::from_rows(&[vec![0.2, -0.1, 1.0], vec![1.3, 0.6, -0.4]]);
        let instance = [0.5, 1.1, -2.0];
        let scalar_game = PredictionGame::new(&model, &instance, &background);
        let batch_game = BatchPredictionGame::new(&batched_model, &instance, &background);
        let a = permutation_shapley(&scalar_game, 25, 3);
        let b = permutation_shapley(&batch_game, 25, 3);
        assert_eq!(a.phi, b.phi);
        assert_eq!(a.std_err, b.std_err);

        // The memo cache must not perturb bits either, and walks repeat
        // the empty/grand coalitions every permutation, so it must hit.
        let memo = CoalitionMemo::new(1 << 10);
        let key = GameKey::derive(0, &background, &instance);
        let cached = MemoGame::new(&batch_game, &memo, key);
        let c = permutation_shapley(&cached, 25, 3);
        assert_eq!(a.phi, c.phi);
        let (hits, misses) = (memo.stats().hits, memo.stats().misses);
        assert!(hits > 0 && misses < 25 * 4, "hits={hits} misses={misses}");
    }

    #[test]
    fn std_err_reported_and_finite() {
        let game = TableGame::glove();
        let est = permutation_shapley(&game, 100, 2);
        assert_eq!(est.std_err.len(), 3);
        assert!(est.std_err.iter().all(|s| s.is_finite()));
    }
}
