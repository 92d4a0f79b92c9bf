//! Random forests: bagged CART trees with random feature subsets.

use crate::traits::{Classifier, Model, Regressor};
use crate::tree::{DecisionTree, TreeConfig};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_linalg::Matrix;

/// Configuration for [`RandomForest::fit`].
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration; `max_features = None` defaults to √d.
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set.
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig { max_depth: 8, ..TreeConfig::default() },
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// A bagged ensemble of CART trees; the prediction is the mean of the
/// per-tree values (probability for Gini trees, value for variance trees).
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Fits the forest.
    pub fn fit(x: &Matrix, y: &[f64], config: ForestConfig) -> Self {
        assert!(config.n_trees > 0, "need at least one tree");
        assert!(config.subsample > 0.0 && config.subsample <= 1.0);
        let n = x.rows();
        let d = x.cols();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let default_mf = (d as f64).sqrt().round().max(1.0) as usize;
        let tree_config = TreeConfig {
            max_features: Some(config.tree.max_features.unwrap_or(default_mf)),
            ..config.tree
        };
        let m = ((n as f64) * config.subsample).round().max(1.0) as usize;
        let mut trees = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            // Bootstrap sample (with replacement).
            let idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let xb = x.select_rows(&idx);
            let yb: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
            trees.push(DecisionTree::fit_with(&xb, &yb, tree_config, Some(&mut rng)));
        }
        Self { trees, n_features: d }
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean of per-tree values.
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        let total: f64 = self.trees.iter().map(|t| t.predict_value(x)).sum();
        total / self.trees.len() as f64
    }

    /// Batched ensemble average: each tree routes the whole batch at once,
    /// and per-row accumulation runs in tree order — the same summation
    /// order as [`RandomForest::predict_value`], hence bit-identical.
    pub fn predict_values(&self, x: &Matrix) -> Vec<f64> {
        let mut acc = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.predict_values(x)) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

}

impl Model for RandomForest {
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Regressor for RandomForest {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

impl Classifier for RandomForest {
    fn proba_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitCriterion;
    use xai_data::metrics::{accuracy, auc_roc};
    use xai_data::synth::{circles, friedman1};
    use xai_linalg::r_squared;

    #[test]
    fn beats_single_tree_on_noisy_rings() {
        let train = circles(600, 21, 0.35);
        let test = circles(400, 22, 0.35);
        let tree = DecisionTree::fit(
            train.x(),
            train.y(),
            TreeConfig { max_depth: 10, ..TreeConfig::default() },
        );
        let forest = RandomForest::fit(
            train.x(),
            train.y(),
            ForestConfig { n_trees: 60, seed: 5, ..ForestConfig::default() },
        );
        let acc_tree = accuracy(test.y(), &Classifier::predict(&tree, test.x()));
        let acc_forest = accuracy(test.y(), &Classifier::predict(&forest, test.x()));
        assert!(
            acc_forest >= acc_tree - 0.01,
            "forest {acc_forest} should not lose to tree {acc_tree}"
        );
        assert!(acc_forest > 0.85);
        assert!(auc_roc(test.y(), &forest.proba(test.x())) > 0.9);
    }

    #[test]
    fn regression_mode() {
        let train = friedman1(700, 31, 0.3);
        let test = friedman1(300, 32, 0.3);
        let forest = RandomForest::fit(
            train.x(),
            train.y(),
            ForestConfig {
                n_trees: 40,
                tree: TreeConfig {
                    criterion: SplitCriterion::Variance,
                    max_depth: 9,
                    min_samples_leaf: 2,
                    ..TreeConfig::default()
                },
                seed: 7,
                ..ForestConfig::default()
            },
        );
        let preds = Regressor::predict(&forest, test.x());
        assert!(r_squared(test.y(), &preds) > 0.6);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = circles(200, 41, 0.2);
        let cfg = ForestConfig { n_trees: 10, seed: 9, ..ForestConfig::default() };
        let f1 = RandomForest::fit(data.x(), data.y(), cfg);
        let f2 = RandomForest::fit(data.x(), data.y(), cfg);
        let p1 = f1.proba(data.x());
        let p2 = f2.proba(data.x());
        assert_eq!(p1, p2);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let data = circles(200, 51, 0.2);
        let forest = RandomForest::fit(
            data.x(),
            data.y(),
            ForestConfig { n_trees: 15, seed: 3, ..ForestConfig::default() },
        );
        for p in forest.proba(data.x()) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
