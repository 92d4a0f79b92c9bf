//! Utility functions for data valuation (§2.3.1).
//!
//! Every valuation method in this crate scores training points against a
//! **utility**: `U(S)` = performance of the model trained on subset `S` of
//! the training data, measured on held-out data. The utility is a plain
//! closure over sorted index slices, so methods are generic over learner
//! and metric — exactly the "specific to the learning algorithm \[and\] the
//! performance metric" dependence the tutorial highlights.

use xai_core::cache::Lru;
use xai_data::metrics::accuracy;
use xai_data::Dataset;
use xai_linalg::Matrix;
use xai_models::{Classifier, Knn, LogisticConfig, LogisticRegression};

/// Rejects non-finite valuation results: the utility (a retrained model's
/// test score) produced them, so they map to
/// [`xai_core::XaiError::ModelFault`].
pub(crate) fn check_finite_values(values: &[f64], what: &str) -> xai_core::XaiResult<()> {
    if let Some(i) = values.iter().position(|v| !v.is_finite()) {
        return Err(xai_core::XaiError::ModelFault {
            context: format!("{what}: point {i} valued {}", values[i]),
        });
    }
    Ok(())
}

/// A subset utility: maps training-index subsets to a test score.
///
/// The trait itself now lives in the unified explainer layer
/// (`xai_core::explainer`) so `ExplainRequest` can carry a utility
/// without a crate cycle; this re-export keeps every existing
/// `xai_datavalue::Utility` caller working unchanged.
pub use xai_core::explainer::Utility;

/// Utility backed by an arbitrary closure.
pub struct FnUtility<F: Fn(&[usize]) -> f64> {
    f: F,
    n: usize,
}

impl<F: Fn(&[usize]) -> f64> FnUtility<F> {
    /// Wraps a closure with the training-set size.
    pub fn new(n: usize, f: F) -> Self {
        Self { f, n }
    }
}

impl<F: Fn(&[usize]) -> f64> Utility for FnUtility<F> {
    fn eval(&self, subset: &[usize]) -> f64 {
        (self.f)(subset)
    }
    fn n_train(&self) -> usize {
        self.n
    }
}

/// Logistic-regression test-accuracy utility. Degenerate subsets (one
/// class or empty) score at the majority-class base rate, following
/// Ghorbani & Zou's convention that `V(∅)` is the performance of random
/// guessing.
pub struct LogisticUtility<'a> {
    train: &'a Dataset,
    test: &'a Dataset,
    config: LogisticConfig,
    base: f64,
    /// Row-gather buffers reused across evaluations so that scoring a
    /// subset does not allocate a fresh design matrix every time.
    scratch: std::sync::Mutex<GatherScratch>,
}

#[derive(Default)]
struct GatherScratch {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl<'a> LogisticUtility<'a> {
    /// Builds the utility.
    pub fn new(train: &'a Dataset, test: &'a Dataset, config: LogisticConfig) -> Self {
        let pos = test.positive_rate();
        Self {
            train,
            test,
            config,
            base: pos.max(1.0 - pos),
            scratch: std::sync::Mutex::new(GatherScratch::default()),
        }
    }

    /// The degenerate-subset score.
    pub fn base_score(&self) -> f64 {
        self.base
    }
}

impl Utility for LogisticUtility<'_> {
    fn eval(&self, subset: &[usize]) -> f64 {
        if subset.len() < 2 {
            return self.base;
        }
        // Reuse the shared gather scratch when it is free; under parallel
        // drivers a contended evaluation falls back to a private buffer so
        // evaluations never serialize on the lock.
        let mut fallback = GatherScratch::default();
        let mut guard = self.scratch.try_lock().ok();
        let GatherScratch { x, y } = guard.as_deref_mut().unwrap_or(&mut fallback);
        x.clear();
        y.clear();
        let mut pos = 0usize;
        for &i in subset {
            x.extend_from_slice(self.train.row(i));
            let yi = self.train.y()[i];
            if yi >= 0.5 {
                pos += 1;
            }
            y.push(yi);
        }
        if pos == 0 || pos == subset.len() {
            return self.base;
        }
        // Shuttle the buffer through Matrix (from_vec/into_vec are
        // zero-copy) so the fit sees a real design matrix.
        let xm = Matrix::from_vec(subset.len(), self.train.n_features(), std::mem::take(x));
        let model = LogisticRegression::fit(&xm, y, self.config);
        *x = xm.into_vec();
        accuracy(self.test.y(), &Classifier::predict(&model, self.test.x()))
    }

    fn n_train(&self) -> usize {
        self.train.n_rows()
    }
}

/// kNN test-accuracy utility (the model class with closed-form Shapley
/// values — see `knn_shapley`).
pub struct KnnUtility<'a> {
    train: &'a Dataset,
    test: &'a Dataset,
    k: usize,
}

impl<'a> KnnUtility<'a> {
    /// Builds the utility.
    pub fn new(train: &'a Dataset, test: &'a Dataset, k: usize) -> Self {
        assert!(k >= 1);
        Self { train, test, k }
    }

    /// The soft kNN utility of Jia et al.: for each test point, the
    /// fraction of its `min(K, |S|)` nearest subset-neighbours with the
    /// correct label, averaged over the test set; 0.5 for empty subsets.
    pub fn soft_eval(&self, subset: &[usize]) -> f64 {
        if subset.is_empty() {
            return 0.5;
        }
        let sub = self.train.subset(subset);
        let knn = Knn::fit(sub.x(), sub.y(), self.k);
        let mut total = 0.0;
        for t in 0..self.test.n_rows() {
            let neighbours = knn.k_nearest(self.test.row(t));
            let hits = neighbours
                .iter()
                .filter(|&&i| (sub.y()[i] >= 0.5) == (self.test.y()[t] >= 0.5))
                .count();
            total += hits as f64 / self.k.min(neighbours.len().max(1)) as f64;
        }
        total / self.test.n_rows() as f64
    }
}

impl Utility for KnnUtility<'_> {
    fn eval(&self, subset: &[usize]) -> f64 {
        self.soft_eval(subset)
    }
    fn n_train(&self) -> usize {
        self.train.n_rows()
    }
}

/// A memoizing [`Utility`] wrapper keyed on the subset's membership
/// bitmask (so at most 64 training points). TMC and Banzhaf sampling
/// revisit subsets — every permutation walk re-scores the empty and grand
/// coalitions, truncation replays prefixes — and training a model per
/// subset dwarfs a hash lookup.
///
/// The subset is *canonicalized* (sorted) before the first evaluation, so
/// two index orders of the same set share one entry. Utilities whose score
/// depends on index order — e.g. ones summing f64 scores in subset order —
/// would see the canonical order's bits on a hit; all utilities in this
/// crate are set functions, for which caching is exact.
pub struct CachedUtility<'a, U: Utility + ?Sized> {
    inner: &'a U,
    /// Scores by subset bitmask; never evicts.
    memo: Lru<u64, f64>,
}

impl<'a, U: Utility + ?Sized> CachedUtility<'a, U> {
    /// Wraps a utility; panics when the training set exceeds the 64-point
    /// bitmask capacity.
    pub fn new(inner: &'a U) -> Self {
        assert!(
            inner.n_train() <= 64,
            "CachedUtility is limited to 64 training points (bitmask key)"
        );
        Self { inner, memo: Lru::new(usize::MAX) }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (usize, usize) {
        let stats = self.memo.stats();
        (stats.hits as usize, stats.misses as usize)
    }

    /// Number of distinct subsets evaluated so far.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when no subset has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

impl<U: Utility + ?Sized> Utility for CachedUtility<'_, U> {
    fn eval(&self, subset: &[usize]) -> f64 {
        let mut mask = 0u64;
        for &i in subset {
            debug_assert!(i < self.inner.n_train(), "index {i} out of range");
            mask |= 1u64 << i;
        }
        if let Some(v) = self.memo.get(&mask) {
            return v;
        }
        // Evaluate outside the lock: subset utilities are deterministic, so
        // a racing duplicate evaluation returns the same value.
        let mut canonical = subset.to_vec();
        canonical.sort_unstable();
        let v = self.inner.eval(&canonical);
        self.memo.insert(mask, v);
        v
    }

    fn n_train(&self) -> usize {
        self.inner.n_train()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::linear_gaussian;

    #[test]
    fn logistic_utility_improves_with_more_data() {
        let train = linear_gaussian(300, &[2.0, -1.0], 0.0, 5);
        let test = linear_gaussian(300, &[2.0, -1.0], 0.0, 6);
        let u = LogisticUtility::new(&train, &test, LogisticConfig::default());
        let small: Vec<usize> = (0..6).collect();
        let large: Vec<usize> = (0..300).collect();
        assert!(u.eval(&large) >= u.eval(&small) - 0.05);
        assert!(u.eval(&large) > u.base_score());
        assert_eq!(u.eval(&[]), u.base_score());
        assert_eq!(u.n_train(), 300);
    }

    #[test]
    fn knn_utility_monotone_behaviour() {
        let train = linear_gaussian(120, &[3.0], 0.0, 9);
        let test = linear_gaussian(80, &[3.0], 0.0, 10);
        let u = KnnUtility::new(&train, &test, 3);
        let all: Vec<usize> = (0..120).collect();
        assert!(u.eval(&all) > 0.6, "full-data knn should beat chance: {}", u.eval(&all));
        assert_eq!(u.eval(&[]), 0.5);
    }

    #[test]
    fn fn_utility_wraps_closures() {
        let u = FnUtility::new(10, |s: &[usize]| s.len() as f64);
        assert_eq!(u.eval(&[1, 2, 3]), 3.0);
        assert_eq!(u.n_train(), 10);
    }

    #[test]
    fn cached_utility_memoizes_by_set_not_order() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let u = FnUtility::new(8, |s: &[usize]| {
            calls.set(calls.get() + 1);
            s.iter().map(|&i| (i * i) as f64).sum()
        });
        let cached = CachedUtility::new(&u);
        assert!(cached.is_empty());
        let a = cached.eval(&[3, 1, 5]);
        let b = cached.eval(&[1, 3, 5]);
        let c = cached.eval(&[5, 1, 3]);
        assert_eq!(a, 35.0);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(calls.get(), 1, "one inner evaluation for three orderings");
        assert_eq!(cached.stats(), (2, 1));
        assert_eq!(cached.len(), 1);
        assert_eq!(cached.eval(&[]), 0.0);
        assert_eq!(cached.n_train(), 8);
        assert_eq!(cached.len(), 2);
    }

    #[test]
    fn cached_utility_rejects_large_training_sets() {
        let u = FnUtility::new(65, |s: &[usize]| s.len() as f64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CachedUtility::new(&u)
        }));
        assert!(err.is_err(), "65 points must exceed the bitmask capacity");
    }
}
