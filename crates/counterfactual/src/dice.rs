//! DiCE-style diverse counterfactual explanations
//! (Mothilal, Sharma & Tan, §2.1.4 \[51\]).
//!
//! Generates a *set* of `k` counterfactuals jointly optimizing validity
//! (cross the decision boundary), proximity (MAD-L1 to the instance),
//! sparsity, and diversity (mean pairwise distance within the set), under
//! the schema's feasibility metadata: immutable features never move,
//! monotone features move only in their allowed direction, and all values
//! respect schema bounds.
//!
//! The optimizer is gradient-free (the model is a black box): random
//! restarts of a local search that perturbs one feature at a time,
//! accepting changes that improve the joint loss — the same search shape
//! DiCE uses for non-differentiable models.

use crate::distance::{diversity, FeatureScales};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_core::{catch_model, validate, Counterfactual, XaiError, XaiResult};
use xai_data::{Dataset, FeatureKind, Mutability};

/// Configuration for [`DiceExplainer::generate`].
#[derive(Clone, Copy, Debug)]
pub struct DiceConfig {
    /// Number of counterfactuals to produce.
    pub k: usize,
    /// Weight of the proximity term.
    pub proximity_weight: f64,
    /// Weight of the (negated) diversity term.
    pub diversity_weight: f64,
    /// Weight of the sparsity term.
    pub sparsity_weight: f64,
    /// Local-search iterations per counterfactual.
    pub iterations: usize,
    /// Random restarts per counterfactual slot.
    pub restarts: usize,
}

impl Default for DiceConfig {
    fn default() -> Self {
        Self {
            k: 3,
            proximity_weight: 0.5,
            diversity_weight: 1.0,
            sparsity_weight: 0.1,
            iterations: 300,
            restarts: 3,
        }
    }
}

/// A fitted DiCE generator (feature scales, bounds and mutability).
#[derive(Clone, Debug)]
pub struct DiceExplainer {
    scales: FeatureScales,
    bounds: Vec<(f64, f64)>,
    mutability: Vec<Mutability>,
    categorical: Vec<Option<usize>>,
}

impl DiceExplainer {
    /// Captures feasibility metadata from the dataset schema.
    pub fn fit(data: &Dataset) -> Self {
        let scales = FeatureScales::fit(data);
        let mut bounds = Vec::new();
        let mut mutability = Vec::new();
        let mut categorical = Vec::new();
        for f in data.schema().features() {
            match &f.kind {
                FeatureKind::Numeric { min, max } => {
                    bounds.push((*min, *max));
                    categorical.push(None);
                }
                FeatureKind::Categorical { categories } => {
                    bounds.push((0.0, (categories.len() - 1) as f64));
                    categorical.push(Some(categories.len()));
                }
            }
            mutability.push(f.mutability);
        }
        Self { scales, bounds, mutability, categorical }
    }

    /// MAD-scaled L1 distance under the fitted feature scales — the
    /// `distance` field of every counterfactual this generator reports.
    pub(crate) fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.scales.l1(a, b)
    }

    /// Whether a move of feature `j` from `from` to `to` is feasible.
    fn feasible(&self, j: usize, from: f64, to: f64) -> bool {
        if to < self.bounds[j].0 || to > self.bounds[j].1 {
            return false;
        }
        match self.mutability[j] {
            Mutability::Free => true,
            Mutability::Immutable => (to - from).abs() < 1e-12,
            Mutability::IncreaseOnly => to >= from - 1e-12,
            Mutability::DecreaseOnly => to <= from + 1e-12,
        }
    }

    /// Proposes a feasible random move of feature `j` away from the
    /// current candidate value.
    fn propose(&self, j: usize, instance_value: f64, current: f64, rng: &mut StdRng) -> Option<f64> {
        let candidate = match self.categorical[j] {
            Some(k) => rng.gen_range(0..k) as f64,
            None => {
                let step = self.scales.mad[j] * (rng.gen::<f64>() * 2.0 - 1.0) * 2.0;
                (current + step).clamp(self.bounds[j].0, self.bounds[j].1)
            }
        };
        self.feasible(j, instance_value, candidate).then_some(candidate)
    }

    fn loss(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        target_positive: bool,
        candidate: &[f64],
        others: &[Vec<f64>],
        config: DiceConfig,
    ) -> f64 {
        let out = model(candidate);
        // Hinge validity loss toward the opposite class.
        let validity = if target_positive {
            (0.55 - out).max(0.0)
        } else {
            (out - 0.45).max(0.0)
        };
        let proximity = self.scales.l1(instance, candidate);
        let sparsity = self.scales.l0(instance, candidate) as f64;
        let mut all: Vec<Vec<f64>> = others.to_vec();
        all.push(candidate.to_vec());
        let div = diversity(&self.scales, &all);
        10.0 * validity + config.proximity_weight * proximity + config.sparsity_weight * sparsity
            - config.diversity_weight * div
    }

    /// Generates up to `k` diverse, feasible counterfactuals. Returns fewer
    /// when the search cannot flip the prediction within budget.
    pub fn generate(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        config: DiceConfig,
        seed: u64,
    ) -> Vec<Counterfactual> {
        assert_eq!(instance.len(), self.bounds.len(), "instance arity mismatch");
        let original_output = model(instance);
        let target_positive = original_output < 0.5; // we want the flip
        let mut rng = StdRng::seed_from_u64(seed);
        let d = instance.len();
        let mut found: Vec<Vec<f64>> = Vec::new();
        let mut results = Vec::new();

        for _slot in 0..config.k {
            let mut best: Option<(Vec<f64>, f64)> = None;
            for _restart in 0..config.restarts.max(1) {
                let mut current = instance.to_vec();
                let mut current_loss =
                    self.loss(model, instance, target_positive, &current, &found, config);
                for _ in 0..config.iterations {
                    let j = rng.gen_range(0..d);
                    let Some(v) = self.propose(j, instance[j], current[j], &mut rng) else {
                        continue;
                    };
                    let old = current[j];
                    current[j] = v;
                    let l = self.loss(model, instance, target_positive, &current, &found, config);
                    if l < current_loss {
                        current_loss = l;
                    } else {
                        current[j] = old;
                    }
                }
                let valid = (model(&current) >= 0.5) == target_positive;
                if valid && best.as_ref().is_none_or(|(_, bl)| current_loss < *bl) {
                    best = Some((current.clone(), current_loss));
                }
            }
            if let Some((cf, _)) = best {
                let cf_output = model(&cf);
                results.push(Counterfactual::new(
                    instance.to_vec(),
                    cf.clone(),
                    original_output,
                    cf_output,
                    self.scales.l1(instance, &cf),
                ));
                found.push(cf);
            }
        }
        results
    }

    /// One candidate of the pooled search: an independent local search
    /// against the *core* loss (validity, proximity, sparsity — diversity
    /// enters at selection time, so candidates need no view of each
    /// other). Returns the candidate and its core loss when the search
    /// crossed the boundary, `None` otherwise.
    ///
    /// This is the chunk layout `DiceMethod` runs for `workers > 1` and
    /// the shard layer partitions: candidate `c` runs this body with an
    /// RNG seeded `child_seed(seed, c)`, so in-process runs and
    /// cross-process shards reproduce each other bit for bit.
    pub(crate) fn pool_candidate(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        target_positive: bool,
        config: DiceConfig,
        rng: &mut StdRng,
    ) -> Option<(Vec<f64>, f64)> {
        let d = instance.len();
        let mut current = instance.to_vec();
        let mut current_loss = self.loss(model, instance, target_positive, &current, &[], config);
        for _ in 0..config.iterations {
            let j = rng.gen_range(0..d);
            let Some(v) = self.propose(j, instance[j], current[j], rng) else {
                continue;
            };
            let old = current[j];
            current[j] = v;
            let l = self.loss(model, instance, target_positive, &current, &[], config);
            if l < current_loss {
                current_loss = l;
            } else {
                current[j] = old;
            }
        }
        let valid = (model(&current) >= 0.5) == target_positive;
        valid.then_some((current, current_loss))
    }

    /// The pool merge: greedily picks up to `k` valid candidates, each
    /// round taking the one minimizing
    /// `core_loss − diversity_weight · diversity(chosen ∪ {candidate})`.
    /// Strict comparison breaks ties toward the lowest pool index, so the
    /// selection is independent of evaluation order.
    pub(crate) fn select_diverse(
        &self,
        candidates: &[Option<(Vec<f64>, f64)>],
        config: DiceConfig,
    ) -> Vec<Vec<f64>> {
        let mut chosen: Vec<Vec<f64>> = Vec::new();
        let mut used = vec![false; candidates.len()];
        for _slot in 0..config.k {
            let mut best: Option<(usize, f64)> = None;
            for (i, cand) in candidates.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let Some((cf, core_loss)) = cand else {
                    continue;
                };
                let mut set = chosen.clone();
                set.push(cf.clone());
                let score = core_loss - config.diversity_weight * diversity(&self.scales, &set);
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((i, score));
                }
            }
            let Some((i, _)) = best else { break };
            used[i] = true;
            chosen.push(candidates[i].as_ref().expect("selected candidate exists").0.clone());
        }
        chosen
    }

    /// Fallible twin of [`DiceExplainer::generate`]: non-finite inputs
    /// yield [`XaiError::NonFiniteInput`], a panicking model or non-finite
    /// counterfactuals yield [`XaiError::ModelFault`], and an empty result
    /// set reports [`XaiError::ConvergenceFailure`]. A partial set
    /// (fewer than `k`) is still `Ok` — best-effort, like the plain API.
    pub fn try_generate(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        config: DiceConfig,
        seed: u64,
    ) -> XaiResult<Vec<Counterfactual>> {
        validate::finite_slice("DiCE instance", instance)?;
        let cfs = catch_model("DiCE local search", || self.generate(model, instance, config, seed))?;
        certify_set(cfs, "DiCE local search", config)
    }
}

/// Shared certification epilogue of the fallible DiCE paths: an empty set
/// is a convergence failure, a non-finite member is a model fault.
pub(crate) fn certify_set(
    cfs: Vec<Counterfactual>,
    what: &str,
    config: DiceConfig,
) -> XaiResult<Vec<Counterfactual>> {
    if cfs.is_empty() {
        return Err(XaiError::ConvergenceFailure {
            context: format!("{what} found no valid counterfactual"),
            iterations: config.k * config.restarts.max(1) * config.iterations,
        });
    }
    for cf in &cfs {
        if !cf.counterfactual_output.is_finite()
            || !cf.original_output.is_finite()
            || !cf.distance.is_finite()
            || cf.counterfactual.iter().any(|v| !v.is_finite())
        {
            return Err(XaiError::ModelFault {
                context: format!("{what} produced a non-finite counterfactual"),
            });
        }
    }
    Ok(cfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;
    use xai_models::{proba_fn, Gbdt, GbdtConfig, LogisticConfig, LogisticRegression};

    fn setup() -> (xai_data::Dataset, LogisticRegression, DiceExplainer) {
        let data = german_credit(800, 5);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let dice = DiceExplainer::fit(&data);
        (data, model, dice)
    }

    fn rejected_index(data: &xai_data::Dataset, model: &LogisticRegression) -> usize {
        use xai_models::Classifier;
        (0..data.n_rows())
            .find(|&i| model.proba_one(data.row(i)) < 0.4)
            .expect("some rejected applicant exists")
    }

    #[test]
    fn counterfactuals_are_valid_and_feasible() {
        let (data, model, dice) = setup();
        let i = rejected_index(&data, &model);
        let f = proba_fn(&model);
        let cfs = dice.generate(&f, data.row(i), DiceConfig::default(), 7);
        assert!(!cfs.is_empty(), "should find at least one counterfactual");
        for cf in &cfs {
            assert!(cf.is_valid(), "must cross the boundary");
            // Schema validity of the produced row.
            data.schema().validate_row(&cf.counterfactual).unwrap();
            // Protected feature (sex, idx 8) must never change.
            assert_eq!(cf.original[8], cf.counterfactual[8], "immutable feature moved");
            // Age (idx 0) may only increase.
            assert!(cf.counterfactual[0] >= cf.original[0] - 1e-9, "age decreased");
            // n_defaults (idx 6) may only decrease.
            assert!(cf.counterfactual[6] <= cf.original[6] + 1e-9, "defaults increased");
        }
    }

    #[test]
    fn diversity_weight_spreads_the_set() {
        let (data, model, dice) = setup();
        let i = rejected_index(&data, &model);
        let f = proba_fn(&model);
        let diverse = dice.generate(
            &f,
            data.row(i),
            DiceConfig { k: 3, diversity_weight: 3.0, ..DiceConfig::default() },
            11,
        );
        let plain = dice.generate(
            &f,
            data.row(i),
            DiceConfig { k: 3, diversity_weight: 0.0, ..DiceConfig::default() },
            11,
        );
        if diverse.len() >= 2 && plain.len() >= 2 {
            let div = |cfs: &[Counterfactual]| {
                let set: Vec<Vec<f64>> = cfs.iter().map(|c| c.counterfactual.clone()).collect();
                diversity(&dice.scales, &set)
            };
            assert!(
                div(&diverse) >= div(&plain) * 0.8,
                "diversity weight should not reduce spread dramatically: {} vs {}",
                div(&diverse),
                div(&plain)
            );
        }
    }

    #[test]
    fn works_on_tree_ensembles_too() {
        let data = german_credit(600, 9);
        let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 30, ..GbdtConfig::default() });
        let dice = DiceExplainer::fit(&data);
        let f = proba_fn(&model);
        let i = (0..data.n_rows()).find(|&i| f(data.row(i)) < 0.4).unwrap();
        let cfs = dice.generate(&f, data.row(i), DiceConfig { k: 2, ..DiceConfig::default() }, 3);
        assert!(!cfs.is_empty());
        for cf in &cfs {
            assert!(cf.is_valid());
            assert!(cf.sparsity() > 0);
            assert!(cf.distance > 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, model, dice) = setup();
        let i = rejected_index(&data, &model);
        let f = proba_fn(&model);
        let a = dice.generate(&f, data.row(i), DiceConfig::default(), 21);
        let b = dice.generate(&f, data.row(i), DiceConfig::default(), 21);
        assert_eq!(a, b);
    }
}
