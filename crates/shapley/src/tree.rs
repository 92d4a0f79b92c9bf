//! TreeSHAP: polynomial-time exact Shapley values for tree ensembles
//! (Lundberg et al., §2.1.2 \[46\]).
//!
//! Implements the path-dependent algorithm (Algorithm 2 of the TreeSHAP
//! paper): a single depth-first pass per tree maintains, for every feature
//! on the current path, the fraction of "one" (instance follows the split)
//! and "zero" (background cover flows both ways) paths, with the
//! permutation weights updated incrementally by `extend`/`unwind`. Cost is
//! `O(L·D²)` per tree instead of the `O(2^d)` of coalition enumeration —
//! the claim experiment E3 measures.
//!
//! The value being attributed is the tree's raw output and the coalition
//! semantics are the *path-dependent conditional expectation*; the
//! brute-force reference game is provided as
//! [`PathDependentGame`] so the equivalence is testable.

use crate::exact::exact_shapley;
use crate::game::CooperativeGame;
use xai_models::{DecisionTree, Gbdt, RandomForest, TreeNode};

/// One element of the TreeSHAP path.
#[derive(Clone, Copy, Debug)]
struct PathElem {
    /// Feature index; `usize::MAX` for the root sentinel.
    feature: usize,
    /// Fraction of zero (background) paths that flow through.
    zero: f64,
    /// One if the instance's path goes this way, else zero.
    one: f64,
    /// Permutation weight.
    weight: f64,
}

fn extend(path: &mut Vec<PathElem>, pz: f64, po: f64, pi: usize) {
    let l = path.len();
    path.push(PathElem { feature: pi, zero: pz, one: po, weight: if l == 0 { 1.0 } else { 0.0 } });
    for i in (0..l).rev() {
        path[i + 1].weight += po * path[i].weight * (i + 1) as f64 / (l + 1) as f64;
        path[i].weight = pz * path[i].weight * (l - i) as f64 / (l + 1) as f64;
    }
}

fn unwind(path: &mut Vec<PathElem>, i: usize) {
    let depth = path.len() - 1;
    let one = path[i].one;
    let zero = path[i].zero;
    let mut next_one = path[depth].weight;
    for j in (0..depth).rev() {
        if one != 0.0 {
            let tmp = path[j].weight;
            path[j].weight = next_one * (depth + 1) as f64 / ((j + 1) as f64 * one);
            next_one = tmp - path[j].weight * zero * (depth - j) as f64 / (depth + 1) as f64;
        } else {
            path[j].weight = path[j].weight * (depth + 1) as f64 / (zero * (depth - j) as f64);
        }
    }
    for j in i..depth {
        path[j].feature = path[j + 1].feature;
        path[j].zero = path[j + 1].zero;
        path[j].one = path[j + 1].one;
    }
    path.pop();
}

fn unwound_sum(path: &[PathElem], i: usize) -> f64 {
    let depth = path.len() - 1;
    let one = path[i].one;
    let zero = path[i].zero;
    let mut next_one = path[depth].weight;
    let mut total = 0.0;
    for j in (0..depth).rev() {
        if one != 0.0 {
            let tmp = next_one * (depth + 1) as f64 / ((j + 1) as f64 * one);
            total += tmp;
            next_one = path[j].weight - tmp * zero * (depth - j) as f64 / (depth + 1) as f64;
        } else {
            total += path[j].weight / zero * (depth + 1) as f64 / (depth - j) as f64;
        }
    }
    total
}

#[allow(clippy::too_many_arguments)] // mirrors the published algorithm's state
fn recurse(
    nodes: &[TreeNode],
    x: &[f64],
    phi: &mut [f64],
    node_id: usize,
    mut path: Vec<PathElem>,
    pz: f64,
    po: f64,
    pi: usize,
) {
    extend(&mut path, pz, po, pi);
    let node = &nodes[node_id];
    match (node.left, node.right) {
        (None, _) | (_, None) => {
            for i in 1..path.len() {
                let w = unwound_sum(&path, i);
                phi[path[i].feature] += w * (path[i].one - path[i].zero) * node.value;
            }
        }
        (Some(l), Some(r)) => {
            let (hot, cold) = if x[node.feature] <= node.threshold { (l, r) } else { (r, l) };
            let mut iz = 1.0;
            let mut io = 1.0;
            // If this feature already appears on the path, undo its entry
            // and fold its fractions into the incoming ones.
            if let Some(k) = path.iter().skip(1).position(|e| e.feature == node.feature) {
                let k = k + 1;
                iz = path[k].zero;
                io = path[k].one;
                unwind(&mut path, k);
            }
            let cover = node.cover;
            let hot_frac = nodes[hot].cover / cover;
            let cold_frac = nodes[cold].cover / cover;
            recurse(nodes, x, phi, hot, path.clone(), iz * hot_frac, io, node.feature);
            recurse(nodes, x, phi, cold, path, iz * cold_frac, 0.0, node.feature);
        }
    }
}

/// Path-dependent expected value of a tree: cover-weighted mean over leaves.
pub fn tree_expected_value(tree: &DecisionTree) -> f64 {
    fn rec(nodes: &[TreeNode], id: usize) -> f64 {
        let node = &nodes[id];
        match (node.left, node.right) {
            (Some(l), Some(r)) => {
                (nodes[l].cover * rec(nodes, l) + nodes[r].cover * rec(nodes, r)) / node.cover
            }
            _ => node.value,
        }
    }
    rec(tree.nodes(), 0)
}

/// TreeSHAP attributions for a single tree; `phi` sums with the expected
/// value to the tree's prediction for `x`.
pub fn tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<f64> {
    use xai_models::Model;
    assert_eq!(x.len(), tree.n_features(), "instance arity mismatch");
    let mut phi = vec![0.0; x.len()];
    recurse(tree.nodes(), x, &mut phi, 0, Vec::new(), 1.0, 1.0, usize::MAX);
    phi
}

/// TreeSHAP result for an ensemble.
#[derive(Clone, Debug)]
pub struct TreeShapExplanation {
    /// Per-feature attributions of the ensemble's raw output.
    pub phi: Vec<f64>,
    /// The raw-output baseline (expected value over training cover).
    pub expected_value: f64,
}

/// TreeSHAP for a GBDT: attributes the raw margin
/// `base + lr·Σ treeₖ(x)`, exploiting linearity of Shapley values.
pub fn gbdt_shap(model: &Gbdt, x: &[f64]) -> TreeShapExplanation {
    let mut phi = vec![0.0; x.len()];
    let mut expected = model.base_score();
    for tree in model.trees() {
        let tp = tree_shap(tree, x);
        for (p, t) in phi.iter_mut().zip(&tp) {
            *p += model.learning_rate() * t;
        }
        expected += model.learning_rate() * tree_expected_value(tree);
    }
    TreeShapExplanation { phi, expected_value: expected }
}

/// TreeSHAP for a random forest: the mean of per-tree attributions.
pub fn forest_shap(model: &RandomForest, x: &[f64]) -> TreeShapExplanation {
    let n = model.trees().len() as f64;
    let mut phi = vec![0.0; x.len()];
    let mut expected = 0.0;
    for tree in model.trees() {
        let tp = tree_shap(tree, x);
        for (p, t) in phi.iter_mut().zip(&tp) {
            *p += t / n;
        }
        expected += tree_expected_value(tree) / n;
    }
    TreeShapExplanation { phi, expected_value: expected }
}

/// The brute-force reference: the path-dependent conditional-expectation
/// game `v(S) = E[f(x) | x_S]` where off-coalition splits distribute
/// according to training cover. Exact Shapley values of this game equal
/// TreeSHAP's output — at exponential cost.
pub struct PathDependentGame<'a> {
    tree: &'a DecisionTree,
    instance: &'a [f64],
}

impl<'a> PathDependentGame<'a> {
    /// Builds the game for a single tree and instance.
    pub fn new(tree: &'a DecisionTree, instance: &'a [f64]) -> Self {
        Self { tree, instance }
    }

    fn cond_exp(&self, node_id: usize, coalition: &[bool]) -> f64 {
        let nodes = self.tree.nodes();
        let node = &nodes[node_id];
        match (node.left, node.right) {
            (Some(l), Some(r)) => {
                if coalition[node.feature] {
                    let next = if self.instance[node.feature] <= node.threshold { l } else { r };
                    self.cond_exp(next, coalition)
                } else {
                    (nodes[l].cover * self.cond_exp(l, coalition)
                        + nodes[r].cover * self.cond_exp(r, coalition))
                        / node.cover
                }
            }
            _ => node.value,
        }
    }
}

impl CooperativeGame for PathDependentGame<'_> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.cond_exp(0, coalition)
    }
}

impl crate::batch::BatchGame for PathDependentGame<'_> {}

/// Exact Shapley values for a tree via brute-force enumeration of the
/// path-dependent game — exponential in feature count; the E3 baseline.
pub fn brute_force_tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<f64> {
    exact_shapley(&PathDependentGame::new(tree, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::{circles, friedman1, german_credit};
    use xai_models::{GbdtConfig, Regressor, SplitCriterion, TreeConfig};

    fn fit_tree(depth: usize) -> (DecisionTree, xai_data::Dataset) {
        let data = friedman1(400, 3, 0.2);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig {
                max_depth: depth,
                criterion: SplitCriterion::Variance,
                min_samples_leaf: 5,
                ..TreeConfig::default()
            },
        );
        (tree, data)
    }

    #[test]
    fn matches_brute_force_on_many_instances() {
        let (tree, data) = fit_tree(4);
        for i in 0..12 {
            let x = data.row(i);
            let fast = tree_shap(&tree, x);
            let slow = brute_force_tree_shap(&tree, x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-8, "instance {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn local_accuracy_single_tree() {
        let (tree, data) = fit_tree(6);
        let expected = tree_expected_value(&tree);
        for i in 0..20 {
            let x = data.row(i);
            let phi = tree_shap(&tree, x);
            let total = expected + phi.iter().sum::<f64>();
            let pred = tree.predict_value(x);
            assert!((total - pred).abs() < 1e-8, "local accuracy: {total} vs {pred}");
        }
    }

    #[test]
    fn expected_value_is_cover_weighted_leaf_mean() {
        let (tree, data) = fit_tree(6);
        // For an unweighted fit this equals the training-target mean over
        // nodes reached, i.e. the root's value.
        let root_value = tree.nodes()[0].value;
        assert!((tree_expected_value(&tree) - root_value).abs() < 1e-9);
        let _ = data;
    }

    #[test]
    fn unused_features_get_zero_attribution() {
        let (tree, data) = fit_tree(3);
        let used: std::collections::HashSet<usize> = tree
            .nodes()
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.feature)
            .collect();
        let phi = tree_shap(&tree, data.row(0));
        for (j, p) in phi.iter().enumerate() {
            if !used.contains(&j) {
                assert!(p.abs() < 1e-12, "feature {j} unused but got {p}");
            }
        }
    }

    #[test]
    fn gbdt_local_accuracy() {
        let data = german_credit(500, 11);
        let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 25, ..GbdtConfig::default() });
        for i in 0..10 {
            let x = data.row(i);
            let exp = gbdt_shap(&model, x);
            let total = exp.expected_value + exp.phi.iter().sum::<f64>();
            assert!(
                (total - model.margin(x)).abs() < 1e-8,
                "gbdt local accuracy: {total} vs {}",
                model.margin(x)
            );
        }
    }

    #[test]
    fn forest_local_accuracy() {
        let data = circles(300, 13, 0.2);
        let model = RandomForest::fit(
            data.x(),
            data.y(),
            xai_models::ForestConfig { n_trees: 12, seed: 2, ..Default::default() },
        );
        for i in 0..8 {
            let x = data.row(i);
            let exp = forest_shap(&model, x);
            let total = exp.expected_value + exp.phi.iter().sum::<f64>();
            let pred = Regressor::predict_one(&model, x);
            assert!((total - pred).abs() < 1e-8);
        }
    }

    #[test]
    fn friedman_relevant_features_dominate() {
        let data = friedman1(1500, 17, 0.2);
        let model = Gbdt::fit(
            data.x(),
            data.y(),
            GbdtConfig {
                n_rounds: 80,
                loss: xai_models::GbdtLoss::Squared,
                ..GbdtConfig::default()
            },
        );
        let mut mean_abs = vec![0.0; data.n_features()];
        for i in 0..150 {
            let exp = gbdt_shap(&model, data.row(i));
            for (m, p) in mean_abs.iter_mut().zip(&exp.phi) {
                *m += p.abs() / 150.0;
            }
        }
        let relevant: f64 = mean_abs[..5].iter().sum();
        let noise: f64 = mean_abs[5..].iter().sum();
        assert!(relevant > 10.0 * noise, "relevant {relevant} vs noise {noise}");
    }
}
