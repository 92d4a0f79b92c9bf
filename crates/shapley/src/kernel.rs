//! Kernel SHAP (Lundberg & Lee 2017, §2.1.2 \[47\]).
//!
//! Shapley values are recovered as the solution of a *weighted linear
//! regression*: fit an additive model `g(z) = φ₀ + Σ φⱼ zⱼ` to coalition
//! values under the Shapley kernel weights
//! `π(z) = (n−1) / (C(n,|z|)·|z|·(n−|z|))`, subject to the efficiency
//! constraint `φ₀ = v(∅)` and `Σφ = v(N) − v(∅)` (the infinite-weight
//! endpoints). The constraint is eliminated by substitution, leaving an
//! ordinary weighted least-squares problem.
//!
//! The estimator has two draw layouts, each written once: the one-stream
//! sequential layout ([`try_kernel_shap_budgeted`], which also meters a
//! [`SampleBudget`]) and the chunk layout, where chunk `c` samples from
//! `child_seed(seed, c)` — the grid `KernelShapMethod` runs for
//! `workers > 1` and the shard layer partitions. Both evaluate through
//! [`BatchGame::values`]; a game without a batched override (such as the
//! scalar `PredictionGame`) takes its default one-by-one loop. Coalitions
//! are always drawn *before* any evaluation and evaluation consumes no
//! randomness, so a batched game produces bit-identical output to the
//! scalar one at the same seed (given a bit-exact batched model, which
//! the `xai-models` kernels guarantee).

use crate::batch::BatchGame;
use crate::game::{mask_to_coalition, CooperativeGame};
use xai_core::{SampleBudget, XaiError, XaiResult};
use xai_rand::rngs::StdRng;
use xai_rand::{child_seed, Rng, SeedableRng};
use xai_linalg::distr::categorical;
use xai_linalg::{weighted_least_squares, Matrix};

/// Configuration for [`kernel_shap`].
#[derive(Clone, Copy, Debug)]
pub struct KernelShapConfig {
    /// Maximum number of coalition evaluations. When `2^n − 2` fits within
    /// this budget every coalition is enumerated (the estimate is then
    /// exact); otherwise coalitions are sampled from the kernel
    /// distribution.
    pub max_coalitions: usize,
    /// Ridge stabilizer for the regression.
    pub ridge: f64,
    /// RNG seed (used only in sampling mode).
    pub seed: u64,
}

impl Default for KernelShapConfig {
    fn default() -> Self {
        Self { max_coalitions: 2048, ridge: 1e-9, seed: 0 }
    }
}

/// Result of a Kernel SHAP run.
#[derive(Clone, Debug)]
pub struct KernelShap {
    /// Shapley value estimates.
    pub phi: Vec<f64>,
    /// Baseline `v(∅)` (the φ₀ of the additive model).
    pub base_value: f64,
    /// Coalitions actually evaluated (excluding the two endpoints).
    pub coalitions_used: usize,
    /// True when every proper coalition was enumerated (exact mode).
    pub exact: bool,
    /// True when the kernel regression was singular at the configured
    /// ridge and the estimate comes from an escalated-ridge fallback
    /// solve. Degraded estimates are finite and efficiency still holds by
    /// construction, but the extra regularization biases the attribution
    /// toward zero — treat it as best-effort.
    pub degraded: bool,
}

/// Shared preamble: endpoint values and the 1-player short circuit.
pub(crate) struct Endpoints {
    pub(crate) v0: f64,
    pub(crate) delta: f64,
}

pub(crate) fn endpoints(game: &dyn CooperativeGame) -> XaiResult<(Endpoints, Option<KernelShap>)> {
    let n = game.n_players();
    assert!(n >= 1, "need at least one player");
    let (v0, vn) = xai_core::catch_model("kernel SHAP endpoint evaluation", || {
        (game.empty_value(), game.grand_value())
    })?;
    if !v0.is_finite() || !vn.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("kernel SHAP endpoints: v(∅) = {v0}, v(N) = {vn}"),
        });
    }
    let delta = vn - v0;
    let short = (n == 1).then(|| KernelShap {
        phi: vec![delta],
        base_value: v0,
        coalitions_used: 0,
        exact: true,
        degraded: false,
    });
    Ok((Endpoints { v0, delta }, short))
}

/// Rejects non-finite coalition values: the model (not the caller's data)
/// produced them, so they map to [`XaiError::ModelFault`].
fn check_values(values: &[f64]) -> XaiResult<()> {
    if let Some(i) = values.iter().position(|v| !v.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("coalition evaluation {i} returned {}", values[i]),
        });
    }
    Ok(())
}

/// Whether the budget admits full enumeration of the proper coalitions.
pub(crate) fn exact_mode(n: usize, max_coalitions: usize) -> bool {
    n < 63 && (1usize << n.min(62)) - 2 <= max_coalitions
}

/// The kernel's coalition-size distribution (unnormalized).
pub(crate) fn size_distribution(n: usize) -> Vec<f64> {
    (1..n).map(|s| (n - 1) as f64 / (s * (n - s)) as f64).collect()
}

/// One sampled-mode draw: a size from the kernel distribution, then a
/// uniform subset of that size by Floyd's algorithm. The kernel weight is
/// absorbed into the sampling density, so each draw gets unit weight.
/// Consumes the exact same RNG sequence wherever it is called from.
fn draw_coalition(rng: &mut StdRng, n: usize, size_weights: &[f64]) -> Vec<bool> {
    let s = 1 + categorical(rng, size_weights);
    let mut coalition = vec![false; n];
    let mut chosen = std::collections::HashSet::with_capacity(s);
    for j in n - s..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    for &i in &chosen {
        coalition[i] = true;
    }
    coalition
}

/// Ridge escalation ladder for degraded solves: when the regression is
/// singular at the configured ridge (degenerate background, duplicate
/// coalition columns), each rung adds more regularization until the
/// system becomes solvable. A solve that needed any rung is flagged
/// degraded.
const RIDGE_LADDER: [f64; 3] = [1e-6, 1e-4, 1e-2];

/// Solves the constraint-eliminated weighted regression:
/// target `t_i = v(z_i) − v0 − z_{i,n−1}·Δ`,
/// design `d_ij = z_ij − z_{i,n−1}` for `j < n−1`, tail player by
/// efficiency. `masks`, `weights` and `values` run in parallel. Returns
/// the estimate plus a degraded flag; fails with
/// [`XaiError::SingularSystem`] only when even the top of the ridge
/// ladder cannot stabilize the system, and with [`XaiError::ModelFault`]
/// when a coalition value is non-finite.
fn solve_kernel_regression(
    n: usize,
    ends: &Endpoints,
    masks: &[Vec<bool>],
    weights: &[f64],
    values: &[f64],
    ridge: f64,
) -> XaiResult<(Vec<f64>, bool)> {
    check_values(values)?;
    let m = masks.len();
    let mut design = Matrix::zeros(m, n - 1);
    let mut target = Vec::with_capacity(m);
    for (row_idx, (coalition, &v)) in masks.iter().zip(values).enumerate() {
        let last = f64::from(coalition[n - 1]);
        target.push(v - ends.v0 - last * ends.delta);
        let drow = design.row_mut(row_idx);
        for j in 0..n - 1 {
            drow[j] = f64::from(coalition[j]) - last;
        }
    }
    let mut solve_err = None;
    let mut solved = None;
    match weighted_least_squares(&design, &target, weights, ridge) {
        Ok(head) => solved = Some((head, false)),
        Err(first) => {
            for rung in RIDGE_LADDER {
                if rung <= ridge {
                    continue;
                }
                if let Ok(head) = weighted_least_squares(&design, &target, weights, rung) {
                    solved = Some((head, true));
                    break;
                }
            }
            solve_err = Some(first);
        }
    }
    let Some((head, degraded)) = solved else {
        return Err(XaiError::SingularSystem {
            context: format!(
                "kernel SHAP regression unsolvable even at ridge {:?}: {}",
                RIDGE_LADDER.last(),
                solve_err.map_or_else(String::new, |e| e.to_string())
            ),
        });
    };
    let mut phi = head;
    let tail = ends.delta - phi.iter().sum::<f64>();
    phi.push(tail);
    Ok((phi, degraded))
}

/// Runs Kernel SHAP on any cooperative game: a [`BatchGame`] evaluates
/// each round of coalitions in one call, a plain game through the
/// default one-by-one loop.
///
/// # Panics
/// Panics when the game produces non-finite values or the regression is
/// unrecoverably singular; use [`try_kernel_shap`] for typed errors.
pub fn kernel_shap(game: &dyn BatchGame, config: KernelShapConfig) -> KernelShap {
    try_kernel_shap(game, config).expect("kernel SHAP failed; try_kernel_shap recovers this")
}

/// Fallible twin of [`kernel_shap`]: model faults (NaN values, panics
/// during evaluation) and unrecoverably singular regressions come back as
/// [`XaiError`]; a regression that needed ridge escalation comes back
/// `Ok` with `degraded = true`. `max_coalitions == 0` is
/// [`XaiError::Unsupported`].
pub fn try_kernel_shap(game: &dyn BatchGame, config: KernelShapConfig) -> XaiResult<KernelShap> {
    try_kernel_shap_budgeted(game, config, SampleBudget::unlimited())
}

/// Rejects a configuration with no coalitions to regress on; shared by
/// both draw layouts.
pub(crate) fn check_config(config: &KernelShapConfig) -> XaiResult<()> {
    if config.max_coalitions == 0 {
        return Err(XaiError::Unsupported {
            context: "kernel SHAP needs max_coalitions >= 1".into(),
        });
    }
    Ok(())
}

/// Budgeted twin of [`try_kernel_shap`]: coalition evaluations are
/// metered against `budget` and the estimate is built from whatever
/// prefix of the coalition grid completed — graceful degradation instead
/// of an all-or-nothing timeout.
///
/// Semantics:
/// - the two endpoint evaluations (`v(∅)`, `v(N)`) are mandatory
///   bookkeeping and are **not** metered; the meter counts proper
///   coalition evaluations only;
/// - the coalition stream is the sequential one: in sampling mode an
///   eval cap of `k` consumes exactly the first `k` draws of the
///   `seed_from_u64(config.seed)` stream, so the result is
///   **bit-identical** to an unbudgeted run with `max_coalitions = k`;
/// - in exact mode a cap below `2^n − 2` truncates the enumeration and
///   clears the `exact` flag on the result;
/// - a wall-clock deadline is checked between evaluation rounds of
///   [`COALITIONS_PER_CHUNK`] coalitions;
/// - a budget that expires before the *first* coalition evaluation is
///   [`XaiError::BudgetExceeded`] — there is nothing to estimate from.
///
/// This is the one-stream sequential layout: full enumeration in exact
/// mode, draws from `seed_from_u64(config.seed)` otherwise, evaluated
/// through [`BatchGame::values`] one round at a time — the whole metered
/// prefix at once, or [`COALITIONS_PER_CHUNK`] coalitions per round when
/// a deadline must be checked between rounds.
pub fn try_kernel_shap_budgeted(
    game: &dyn BatchGame,
    config: KernelShapConfig,
    budget: SampleBudget,
) -> XaiResult<KernelShap> {
    check_config(&config)?;
    let (ends, short) = endpoints(game)?;
    if let Some(s) = short {
        return Ok(s);
    }
    let n = game.n_players();
    let exact = exact_mode(n, config.max_coalitions);
    let planned = if exact { (1usize << n) - 2 } else { config.max_coalitions };
    let cap = budget.max_evals.map_or(planned, |k| planned.min(k));
    let round = if budget.max_duration.is_some() { COALITIONS_PER_CHUNK } else { cap.max(1) };
    let size_weights = size_distribution(n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut meter = budget.start();
    let mut masks: Vec<Vec<bool>> = Vec::with_capacity(cap);
    let mut weights: Vec<f64> = Vec::with_capacity(cap);
    let mut values: Vec<f64> = Vec::with_capacity(cap);
    while masks.len() < cap && !meter.exhausted() {
        let start = masks.len();
        let end = (start + round).min(cap);
        for i in start..end {
            if exact {
                let mask = i + 1; // skip the empty coalition
                masks.push(mask_to_coalition(mask, n));
                weights.push(shapley_kernel_weight(n, mask.count_ones() as usize));
            } else {
                masks.push(draw_coalition(&mut rng, n, &size_weights));
                weights.push(1.0);
            }
        }
        let fresh = xai_core::catch_model("kernel SHAP coalition evaluation", || {
            game.values(&masks[start..end])
        })?;
        values.extend(fresh);
        meter.record(end - start);
    }
    if values.is_empty() {
        return Err(XaiError::BudgetExceeded {
            context: "kernel SHAP: budget expired before the first coalition evaluation".into(),
            completed: 0,
        });
    }
    let truncated = values.len() < planned;
    let (phi, degraded) = solve_kernel_regression(n, &ends, &masks, &weights, &values, config.ridge)?;
    Ok(KernelShap {
        phi,
        base_value: ends.v0,
        coalitions_used: masks.len(),
        exact: exact && !truncated,
        degraded,
    })
}

/// Coalition evaluations per chunk of the chunk layout — the shard-plan
/// draw grid (DESIGN.md §11) — and the deadline-check round of the
/// sequential layout.
pub(crate) const COALITIONS_PER_CHUNK: usize = 64;

/// One `(coalition, kernel weight, value)` regression row.
pub(crate) type Triple = (Vec<bool>, f64, f64);

/// The chunk layout: chunk `c` covers the global draw indices `range`.
/// In exact mode it enumerates those proper coalitions; in sampling mode
/// it draws `range.len()` coalitions from the `child_seed(config.seed, c)`
/// stream. Either way the chunk is evaluated in one
/// [`BatchGame::values`] call.
pub(crate) fn chunk_triples(
    game: &dyn BatchGame,
    config: KernelShapConfig,
    c: usize,
    range: std::ops::Range<usize>,
) -> Vec<Triple> {
    let n = game.n_players();
    let (masks, weights): (Vec<Vec<bool>>, Vec<f64>) = if exact_mode(n, config.max_coalitions) {
        range
            .map(|i| {
                let mask = i + 1; // skip the empty coalition
                (mask_to_coalition(mask, n), shapley_kernel_weight(n, mask.count_ones() as usize))
            })
            .unzip()
    } else {
        let size_weights = size_distribution(n);
        let mut rng = StdRng::seed_from_u64(child_seed(config.seed, c as u64));
        range.map(|_| (draw_coalition(&mut rng, n, &size_weights), 1.0)).unzip()
    };
    let values = game.values(&masks);
    masks.into_iter().zip(weights).zip(values).map(|((m, w), v)| (m, w, v)).collect()
}

/// The chunk-layout merge: concatenates chunk triples in chunk order and
/// solves. Any partition of the chunk grid that concatenates to the same
/// triple sequence reproduces the result bit for bit.
pub(crate) fn solve_chunks(
    n: usize,
    ends: &Endpoints,
    chunks: Vec<Vec<Triple>>,
    ridge: f64,
    exact: bool,
) -> XaiResult<KernelShap> {
    let mut masks = Vec::new();
    let mut weights = Vec::new();
    let mut values = Vec::new();
    for (coalition, w, v) in chunks.into_iter().flatten() {
        masks.push(coalition);
        weights.push(w);
        values.push(v);
    }
    let (phi, degraded) = solve_kernel_regression(n, ends, &masks, &weights, &values, ridge)?;
    Ok(KernelShap { phi, base_value: ends.v0, coalitions_used: masks.len(), exact, degraded })
}

/// The Shapley kernel weight for a coalition of size `s` out of `n`.
pub fn shapley_kernel_weight(n: usize, s: usize) -> f64 {
    assert!(s >= 1 && s < n, "kernel weight undefined at the endpoints");
    let binom = binomial(n, s);
    (n - 1) as f64 / (binom * (s * (n - s)) as f64)
}

fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut r = 1.0f64;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPredictionGame;
    use crate::masked::MemoGame;
    use xai_core::memo::{CoalitionMemo, GameKey};
    use crate::exact::exact_shapley;
    use crate::game::{PredictionGame, TableGame};

    /// The chunk layout over its whole grid, merged in one process.
    fn chunked(game: &dyn BatchGame, config: KernelShapConfig) -> KernelShap {
        let n = game.n_players();
        let (ends, short) = endpoints(game).unwrap();
        if let Some(s) = short {
            return s;
        }
        let exact = exact_mode(n, config.max_coalitions);
        let total = if exact { (1usize << n) - 2 } else { config.max_coalitions };
        let chunks = (0..total.div_ceil(COALITIONS_PER_CHUNK))
            .map(|c| {
                let start = c * COALITIONS_PER_CHUNK;
                chunk_triples(game, config, c, start..(start + COALITIONS_PER_CHUNK).min(total))
            })
            .collect();
        solve_chunks(n, &ends, chunks, config.ridge, exact).unwrap()
    }

    #[test]
    fn chunked_exact_mode_matches_sequential() {
        let game = TableGame::new(
            4,
            (0..16).map(|m: usize| (m.count_ones() as f64).sqrt() + f64::from(m & 1 != 0)).collect(),
        );
        let seq = kernel_shap(&game, KernelShapConfig::default());
        let chunks = chunked(&game, KernelShapConfig::default());
        assert!(chunks.exact);
        // Exact mode enumerates the same grid in both layouts, so they
        // agree to solver precision.
        for (a, b) in chunks.phi.iter().zip(&seq.phi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn chunked_sampling_mode_converges() {
        struct Additive;
        impl CooperativeGame for Additive {
            fn n_players(&self) -> usize {
                12
            }
            fn value(&self, coalition: &[bool]) -> f64 {
                coalition.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| (i + 1) as f64).sum()
            }
        }
        impl BatchGame for Additive {}
        let cfg = KernelShapConfig { max_coalitions: 600, ..Default::default() };
        let one = chunked(&Additive, cfg);
        assert!(!one.exact);
        assert_eq!(one.phi, chunked(&Additive, cfg).phi, "the chunk layout is seeded");
        // Additive game: φ_i = i + 1 exactly.
        for (i, p) in one.phi.iter().enumerate() {
            assert!((p - (i + 1) as f64).abs() < 0.2, "phi[{i}] = {p}");
        }
    }

    #[test]
    fn budgeted_prefix_is_bit_identical_to_a_shorter_run() {
        let game = TableGame::glove();
        // Force sampling mode (2^3 - 2 = 6 proper coalitions > cap 4 needs
        // max_coalitions < 6): a 40-coalition run capped at 4 evals must
        // equal an uncapped 4-coalition run draw for draw.
        let long = KernelShapConfig { max_coalitions: 40, seed: 3, ..Default::default() };
        let capped = try_kernel_shap_budgeted(
            &game,
            KernelShapConfig { max_coalitions: 5, seed: 3, ..Default::default() },
            xai_core::SampleBudget::with_max_evals(4),
        )
        .unwrap();
        let short =
            try_kernel_shap(&game, KernelShapConfig { max_coalitions: 4, seed: 3, ..Default::default() })
                .unwrap();
        assert_eq!(capped.phi, short.phi);
        assert_eq!(capped.coalitions_used, 4);
        assert!(!capped.exact);
        // Unlimited budget reproduces the plain run exactly.
        let unlimited =
            try_kernel_shap_budgeted(&game, long, xai_core::SampleBudget::unlimited()).unwrap();
        assert_eq!(unlimited.phi, try_kernel_shap(&game, long).unwrap().phi);
    }

    #[test]
    fn budget_truncates_exact_enumeration_and_clears_the_flag() {
        let game = TableGame::new(
            4,
            (0..16).map(|m: usize| (m.count_ones() as f64).sqrt()).collect(),
        );
        let config = KernelShapConfig::default(); // 14 proper coalitions: exact mode
        let full =
            try_kernel_shap_budgeted(&game, config, xai_core::SampleBudget::unlimited()).unwrap();
        assert!(full.exact);
        assert_eq!(full.phi, try_kernel_shap(&game, config).unwrap().phi);
        let truncated =
            try_kernel_shap_budgeted(&game, config, xai_core::SampleBudget::with_max_evals(9))
                .unwrap();
        assert!(!truncated.exact);
        assert_eq!(truncated.coalitions_used, 9);
        // Zero-eval budgets fail typed: nothing to estimate from.
        let starved =
            try_kernel_shap_budgeted(&game, config, xai_core::SampleBudget::with_max_evals(0));
        assert!(matches!(
            starved,
            Err(XaiError::BudgetExceeded { completed: 0, .. })
        ));
    }

    #[test]
    fn exact_mode_matches_exact_shapley() {
        let game = TableGame::new(4, (0..16).map(|m: usize| (m.count_ones() as f64).sqrt() + f64::from(m & 1 != 0)).collect());
        let exact = exact_shapley(&game);
        let ks = kernel_shap(&game, KernelShapConfig::default());
        assert!(ks.exact);
        for (a, b) in ks.phi.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn efficiency_holds_by_construction() {
        let game = TableGame::glove();
        for max in [4, 6] {
            let ks = kernel_shap(&game, KernelShapConfig { max_coalitions: max, ..Default::default() });
            let total: f64 = ks.phi.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "efficiency violated at budget {max}");
        }
    }

    #[test]
    fn sampling_mode_approximates_exact() {
        // 12 players: 4094 proper coalitions; budget forces sampling.
        struct Additive;
        impl CooperativeGame for Additive {
            fn n_players(&self) -> usize {
                12
            }
            fn value(&self, coalition: &[bool]) -> f64 {
                coalition
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| (i + 1) as f64)
                    .sum()
            }
        }
        impl BatchGame for Additive {}
        let ks = kernel_shap(&Additive, KernelShapConfig { max_coalitions: 1500, seed: 5, ..Default::default() });
        assert!(!ks.exact);
        // Additive game ⇒ φ_i = i + 1 exactly, and the regression recovers it.
        for (i, p) in ks.phi.iter().enumerate() {
            assert!((p - (i + 1) as f64).abs() < 0.25, "phi[{i}] = {p}");
        }
    }

    #[test]
    fn single_player_short_circuit() {
        let game = TableGame::new(1, vec![0.5, 2.0]);
        let ks = kernel_shap(&game, KernelShapConfig::default());
        assert_eq!(ks.phi, vec![1.5]);
        assert_eq!(ks.base_value, 0.5);
    }

    #[test]
    fn kernel_weights_symmetric_and_positive() {
        for n in [3usize, 6, 9] {
            for s in 1..n {
                let w = shapley_kernel_weight(n, s);
                assert!(w > 0.0);
                assert!((w - shapley_kernel_weight(n, n - s)).abs() < 1e-12);
            }
        }
        // Extremes get the largest weights (they pin the constraint).
        assert!(shapley_kernel_weight(8, 1) > shapley_kernel_weight(8, 4));
    }

    #[test]
    fn agrees_with_exact_on_prediction_game() {
        let model = |x: &[f64]| x[0] * x[1] + 2.0 * x[2] - x[3];
        let background = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.5, -0.5, 2.0, 0.0],
        ]);
        let instance = [2.0, 1.0, -1.0, 0.5];
        let game = PredictionGame::new(&model, &instance, &background);
        let exact = exact_shapley(&game);
        let ks = kernel_shap(&game, KernelShapConfig::default());
        for (a, b) in ks.phi.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!((ks.base_value - game.empty_value()).abs() < 1e-12);
    }

    #[test]
    fn batched_matches_scalar_bitwise() {
        // Sampling mode over a prediction game: scalar vs. materialized.
        let model = |x: &[f64]| (x[0] - 0.3 * x[1]).tanh() + 0.25 * x[2] * x[2];
        let batched_model = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(model).collect() };
        let background = Matrix::from_rows(&[
            vec![0.1, -0.2, 0.5],
            vec![1.0, 0.4, -1.1],
            vec![-0.6, 2.0, 0.0],
        ]);
        let instance = [0.9, -1.4, 2.2];
        let scalar_game = PredictionGame::new(&model, &instance, &background);
        let batch_game = BatchPredictionGame::new(&batched_model, &instance, &background);
        let cfg = KernelShapConfig { max_coalitions: 5, seed: 9, ..Default::default() };
        let a = kernel_shap(&scalar_game, cfg);
        let b = kernel_shap(&batch_game, cfg);
        assert!(!a.exact);
        assert_eq!(a.phi, b.phi);
        assert_eq!(a.base_value, b.base_value);

        // ... and through the memo cache, which must not perturb bits. A
        // second identical run replays the same draws entirely from cache.
        let memo = CoalitionMemo::new(1 << 10);
        let key = GameKey::derive(0, &background, &instance);
        let cached = MemoGame::new(&batch_game, &memo, key);
        let c = kernel_shap(&cached, cfg);
        assert_eq!(a.phi, c.phi);
        let misses_first = memo.stats().misses;
        let c2 = kernel_shap(&cached, cfg);
        assert_eq!(a.phi, c2.phi);
        let stats = memo.stats();
        assert_eq!(stats.misses, misses_first, "second run must be served from cache");
        assert!(stats.hits >= 5 + 2, "5 coalitions + 2 endpoints must all hit");
    }

    #[test]
    fn batched_chunks_match_scalar_chunks_bitwise() {
        let model = |x: &[f64]| (0.7 * x[0] + x[1] * x[2]).sin();
        let batched_model = |m: &Matrix| -> Vec<f64> { m.iter_rows().map(model).collect() };
        let background =
            Matrix::from_rows(&[vec![0.0, 0.3, -0.1], vec![0.8, -0.9, 1.2]]);
        let instance = [1.5, 0.2, -0.7];
        let scalar_game = PredictionGame::new(&model, &instance, &background);
        let batch_game = BatchPredictionGame::new(&batched_model, &instance, &background);
        let cfg = KernelShapConfig { max_coalitions: 5, seed: 4, ..Default::default() };
        assert_eq!(chunked(&scalar_game, cfg).phi, chunked(&batch_game, cfg).phi);
    }
}
