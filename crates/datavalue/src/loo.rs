//! Leave-one-out valuation and exact retraining-based Data Shapley —
//! the ground truths the fast methods are judged against (§2.3).
//!
//! The tutorial: *"The naïve way of computing the influence of a data point
//! is by removing it, retraining the ML model … computationally prohibitive
//! when there are numerous data points."* These are exactly those naïve
//! computations, kept because every approximation in this crate is
//! validated against them (experiments E12–E14).

use crate::utility::{check_finite_values, Utility};
use xai_core::{catch_model, DataAttribution, XaiResult};

/// Points per chunk of the leave-one-out grid that `LooMethod` runs for
/// `workers > 1` and the shard layer partitions. Fixed (never derived
/// from the worker count) so the chunk grid is worker-invariant.
pub(crate) const POINTS_PER_CHUNK: usize = 8;

/// Leave-one-out values of the points in `range`: walks the in-place hole
/// buffer over the range. The single LOO body — [`leave_one_out`] runs
/// it over every point, the chunk grid over one chunk each — so any
/// partition concatenates to the same bits. Draws no randomness.
pub(crate) fn loo_chunk_values(
    utility: &dyn Utility,
    full: f64,
    range: std::ops::Range<usize>,
) -> Vec<f64> {
    let n = utility.n_train();
    let mut without: Vec<usize> = (0..n).filter(|&j| j != range.start).collect();
    let mut values = Vec::with_capacity(range.len());
    for i in range {
        values.push(full - utility.eval(&without));
        if i + 1 < n {
            advance_hole(&mut without, i);
        }
    }
    values
}

/// Walks `without` from `D ∖ {i}` to `D ∖ {i + 1}` in place: position `i`
/// holds `i + 1`, and overwriting it with `i` shifts the hole right while
/// keeping the buffer sorted.
fn advance_hole(without: &mut [usize], i: usize) {
    debug_assert_eq!(without[i], i + 1);
    without[i] = i;
}

/// Leave-one-out values: `v_i = U(D) − U(D ∖ {i})`. Costs `n + 1` model
/// retrainings. All `n` subset evaluations share **one** scratch buffer:
/// `D ∖ {i}` differs from `D ∖ {i + 1}` in a single slot, so the buffer is
/// mutated in place instead of reallocated per point. This is the one
/// chunk body run over the whole point range, so it is bit-identical to
/// any chunked run.
pub fn leave_one_out(utility: &dyn Utility) -> DataAttribution {
    let n = utility.n_train();
    let all: Vec<usize> = (0..n).collect();
    let full = utility.eval(&all);
    let values = loo_chunk_values(utility, full, 0..n);
    DataAttribution { values, measure: "leave-one-out utility change".into() }
}

/// Fallible twin of [`leave_one_out`]: a utility that panics (a retrain
/// blowing up) or returns non-finite scores yields
/// [`xai_core::XaiError::ModelFault`] instead of unwinding or leaking NaN
/// values.
pub fn try_leave_one_out(utility: &dyn Utility) -> XaiResult<DataAttribution> {
    let att = catch_model("leave-one-out retraining", || leave_one_out(utility))?;
    check_finite_values(&att.values, "leave-one-out")?;
    Ok(att)
}

/// Exact Data Shapley by full subset enumeration — `O(2^n)` retrainings,
/// feasible only for tiny datasets; the E13 baseline.
///
/// # Panics
/// Panics for more than 16 training points.
pub fn exact_data_shapley(utility: &dyn Utility) -> DataAttribution {
    let n = utility.n_train();
    assert!(n <= 16, "exact data Shapley retrains 2^{n} models");
    // Evaluate every subset once.
    let size = 1usize << n;
    let mut table = Vec::with_capacity(size);
    let mut buf: Vec<usize> = Vec::with_capacity(n);
    for mask in 0..size {
        buf.clear();
        for i in 0..n {
            if mask & (1 << i) != 0 {
                buf.push(i);
            }
        }
        table.push(utility.eval(&buf));
    }
    let values = xai_shapley::shapley_from_table(n, &table);
    DataAttribution { values, measure: "exact data Shapley".into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::FnUtility;

    #[test]
    fn loo_detects_the_only_valuable_point() {
        // Utility: 1 if point 2 present, else 0.
        let u = FnUtility::new(4, |s: &[usize]| f64::from(s.contains(&2)));
        let loo = leave_one_out(&u);
        assert_eq!(loo.values, vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(loo.ranking_desc()[0], 2);
    }

    #[test]
    fn loo_scratch_buffer_always_holds_the_exact_complement() {
        // The in-place hole walk must hand the utility a sorted D ∖ {i}
        // on every call, for every n (including n = 1).
        for n in 1..12usize {
            let u = FnUtility::new(n, move |s: &[usize]| {
                if s.len() == n {
                    return 0.0; // the full-set call
                }
                assert_eq!(s.len(), n - 1, "complement has n-1 points");
                assert!(s.windows(2).all(|w| w[0] < w[1]), "must stay sorted");
                let missing: usize = (0..n).sum::<usize>() - s.iter().sum::<usize>();
                -(missing as f64)
            });
            let loo = leave_one_out(&u);
            for (i, v) in loo.values.iter().enumerate() {
                assert_eq!(*v, i as f64, "n={n}: wrong complement for point {i}");
            }
        }
    }

    #[test]
    fn chunked_loo_is_bit_identical_for_every_chunk_size() {
        let u = FnUtility::new(21, |s: &[usize]| {
            s.iter().map(|&i| ((i * i) as f64).sqrt()).sum::<f64>().sin()
        });
        let seq = leave_one_out(&u);
        let all: Vec<usize> = (0..21).collect();
        let full = u.eval(&all);
        for chunk in [1, 2, 4, POINTS_PER_CHUNK, 7] {
            let chunked: Vec<f64> = (0..21usize.div_ceil(chunk))
                .flat_map(|c| loo_chunk_values(&u, full, c * chunk..((c + 1) * chunk).min(21)))
                .collect();
            assert_eq!(seq.values, chunked, "chunk={chunk} diverged");
        }
    }

    #[test]
    fn exact_shapley_splits_redundant_credit_loo_misses_it() {
        // Points 0 and 1 are perfect substitutes; LOO gives both zero
        // (removing either alone changes nothing), Shapley gives each half
        // the credit — the canonical argument for Shapley-based valuation.
        let u = FnUtility::new(3, |s: &[usize]| f64::from(s.contains(&0) || s.contains(&1)));
        let loo = leave_one_out(&u);
        assert_eq!(loo.values[0], 0.0);
        assert_eq!(loo.values[1], 0.0);
        let shap = exact_data_shapley(&u);
        assert!((shap.values[0] - 0.5).abs() < 1e-12);
        assert!((shap.values[1] - 0.5).abs() < 1e-12);
        assert!(shap.values[2].abs() < 1e-12);
    }

    #[test]
    fn exact_shapley_efficiency() {
        let u = FnUtility::new(5, |s: &[usize]| (s.len() as f64).sqrt() + f64::from(s.contains(&4)));
        let shap = exact_data_shapley(&u);
        let total: f64 = shap.values.iter().sum();
        let all: Vec<usize> = (0..5).collect();
        assert!((total - (u.eval(&all) - u.eval(&[]))).abs() < 1e-9);
    }
}
