//! The chunk layout of Monte-Carlo data valuation.
//!
//! Permutation walks (TMC-Shapley) and per-point coalition draws (Banzhaf)
//! are embarrassingly parallel. `TmcMethod` and `BanzhafMethod` run the
//! chunk bodies here for `workers > 1` (through
//! `xai_core::backend::dispatch_local`) and on every shard backend: each
//! chunk draws from a [`xai_rand::child_seed`]-derived stream and
//! partials are reduced in chunk order, so the output is a pure function
//! of the seed — bit-identical across runs, worker counts and shard
//! splits.

use crate::banzhaf::BanzhafConfig;
use crate::data_shapley::TmcConfig;
use crate::utility::{check_finite_values, Utility};
use xai_core::{catch_model, DataAttribution, XaiError, XaiResult};
use xai_rand::parallel::sum_partials;
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_rand::Rng;

/// Permutations per executor task. Fixed (never derived from the worker
/// count) so the chunk grid — and hence the result — is worker-invariant.
pub(crate) const PERMS_PER_CHUNK: usize = 16;

/// Evaluates and validates the TMC truncation endpoints `U(D)` and
/// `U(∅)`, rejecting a faulty utility with a typed error.
pub(crate) fn tmc_endpoints(utility: &dyn Utility) -> XaiResult<(f64, f64)> {
    let n = utility.n_train();
    let all: Vec<usize> = (0..n).collect();
    let (full_score, empty_score) = catch_model("TMC endpoint evaluation", || {
        (utility.eval(&all), utility.eval(&[]))
    })?;
    if !full_score.is_finite() || !empty_score.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("TMC endpoints: U(D) = {full_score}, U(∅) = {empty_score}"),
        });
    }
    Ok((full_score, empty_score))
}

/// One executor chunk of TMC permutation walks: `count` truncated
/// permutations drawn from `rng`, accumulated into per-point marginal
/// sums. The single source of the chunk body, which is what makes any
/// partition of the grid merge bit-identically.
pub(crate) fn tmc_chunk_sums(
    utility: &dyn Utility,
    config: TmcConfig,
    count: usize,
    full_score: f64,
    empty_score: f64,
    rng: &mut StdRng,
) -> Vec<f64> {
    let n = utility.n_train();
    let mut sums = vec![0.0; n];
    let mut perm: Vec<usize> = (0..n).collect();
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..count {
        perm.shuffle(rng);
        prefix.clear();
        let mut prev = empty_score;
        for &point in &perm {
            if (full_score - prev).abs() < config.truncation_tolerance {
                break;
            }
            prefix.push(point);
            let cur = utility.eval(&prefix);
            sums[point] += cur - prev;
            prev = cur;
        }
    }
    sums
}

/// Reduces ordered per-chunk marginal sums to the final TMC attribution:
/// left-fold in chunk order, divide by the permutation count, reject
/// non-finite values. The chunk-layout merge epilogue.
pub(crate) fn tmc_finish(
    partials: Vec<Vec<f64>>,
    permutations: usize,
    workers: usize,
) -> XaiResult<DataAttribution> {
    let m = permutations as f64;
    let mut values = sum_partials(partials);
    for v in &mut values {
        *v /= m;
    }
    // Any non-finite utility score poisons its point's sum (NaN/±Inf are
    // absorbing under +), so checking the reduced values suffices.
    check_finite_values(&values, "parallel TMC data Shapley")?;
    Ok(DataAttribution { values, measure: format!("TMC data Shapley ({workers} workers)") })
}

/// One executor task of data Banzhaf: all coalition draws for training
/// point `i` from stream `rng`, averaged (one chunk per point).
pub(crate) fn banzhaf_point(
    utility: &dyn Utility,
    config: BanzhafConfig,
    i: usize,
    rng: &mut StdRng,
) -> f64 {
    let n = utility.n_train();
    let mut acc = 0.0;
    let mut base: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..config.samples_per_point {
        base.clear();
        for j in 0..n {
            if j != i && rng.gen::<bool>() {
                base.push(j);
            }
        }
        let without = utility.eval(&base);
        base.push(i);
        let with = utility.eval(&base);
        acc += with - without;
    }
    acc / config.samples_per_point as f64
}

/// Validates per-point Banzhaf values and stamps the measure string: the
/// chunk-layout merge epilogue.
pub(crate) fn banzhaf_finish(values: Vec<f64>, workers: usize) -> XaiResult<DataAttribution> {
    check_finite_values(&values, "parallel data Banzhaf")?;
    Ok(DataAttribution { values, measure: format!("data Banzhaf ({workers} workers)") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banzhaf::exact_data_banzhaf;
    use crate::data_shapley::tmc_shapley;
    use crate::loo::exact_data_shapley;
    use crate::utility::FnUtility;
    use xai_rand::rngs::StdRng;
    use xai_rand::{child_seed, SeedableRng};

    fn game() -> FnUtility<impl Fn(&[usize]) -> f64> {
        FnUtility::new(8, |s: &[usize]| {
            s.iter().map(|&i| (i + 1) as f64 * 0.1).sum::<f64>()
                + f64::from(s.contains(&1) && s.contains(&6)) * 0.4
        })
    }

    /// The TMC chunk layout over its whole grid, merged in one process.
    fn tmc_chunks(u: &dyn Utility, config: TmcConfig) -> DataAttribution {
        let (full, empty) = tmc_endpoints(u).unwrap();
        let partials = (0..config.permutations.div_ceil(PERMS_PER_CHUNK))
            .map(|c| {
                let count = PERMS_PER_CHUNK.min(config.permutations - c * PERMS_PER_CHUNK);
                let mut rng = StdRng::seed_from_u64(child_seed(config.seed, c as u64));
                tmc_chunk_sums(u, config, count, full, empty, &mut rng)
            })
            .collect();
        tmc_finish(partials, config.permutations, 1).unwrap()
    }

    /// The Banzhaf chunk layout: one chunk per training point.
    fn banzhaf_chunks(u: &dyn Utility, config: BanzhafConfig) -> DataAttribution {
        let values = (0..u.n_train())
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(child_seed(config.seed, i as u64));
                banzhaf_point(u, config, i, &mut rng)
            })
            .collect();
        banzhaf_finish(values, 1).unwrap()
    }

    #[test]
    fn chunked_tmc_matches_exact() {
        let u = game();
        let exact = exact_data_shapley(&u);
        let chunked =
            tmc_chunks(&u, TmcConfig { permutations: 4000, truncation_tolerance: 0.0, seed: 3 });
        for (a, b) in chunked.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.03, "{a} vs {b}");
        }
    }

    #[test]
    fn chunked_tmc_agrees_with_sequential_estimator_statistically() {
        // Different RNG streams, same estimand: totals (efficiency) agree
        // exactly, values agree within Monte-Carlo error.
        let u = game();
        let cfg = TmcConfig { permutations: 3000, truncation_tolerance: 0.0, seed: 5 };
        let seq = tmc_shapley(&u, cfg);
        let chunked = tmc_chunks(&u, cfg);
        let sum_seq: f64 = seq.attribution.values.iter().sum();
        let sum_chunked: f64 = chunked.values.iter().sum();
        assert!((sum_seq - sum_chunked).abs() < 1e-9, "efficiency is exact in both");
        for (a, b) in chunked.values.iter().zip(&seq.attribution.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn chunked_banzhaf_converges() {
        let u = game();
        let exact = exact_data_banzhaf(&u);
        let chunked = banzhaf_chunks(&u, BanzhafConfig { samples_per_point: 2000, seed: 7 });
        for (a, b) in chunked.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}
