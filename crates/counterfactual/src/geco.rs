//! GeCo-lite: real-time quality counterfactuals via genetic search with
//! plausibility/feasibility constraints (Schleich et al., §2.1.4/§3 \[60\]).
//!
//! GeCo's ingredients, reproduced at library scale:
//!
//! - a **PLAF-style constraint language** ([`Plaf`]) declaring which
//!   feature changes are admissible, over and above schema mutability;
//! - **plausibility by construction**: candidate feature values are drawn
//!   from the observed data distribution, not from thin air;
//! - a **genetic loop** (selection → crossover → mutation) over a
//!   population seeded with the instance, with fitness ordered
//!   lexicographically: validity, then changed-feature count, then
//!   MAD-L1 distance — mirroring GeCo's preference for few-feature,
//!   near-boundary counterfactuals delivered quickly.

use crate::distance::FeatureScales;
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_core::{catch_model, validate, Counterfactual, XaiError, XaiResult};
use xai_data::{Dataset, Mutability};

/// One PLAF constraint.
#[derive(Clone, Debug)]
pub enum PlafRule {
    /// Feature may not change at all.
    Freeze {
        /// Feature index.
        feature: usize,
    },
    /// Feature may only increase.
    OnlyIncrease {
        /// Feature index.
        feature: usize,
    },
    /// Feature may only decrease.
    OnlyDecrease {
        /// Feature index.
        feature: usize,
    },
    /// If `feature` changes, `implied` must also have changed (GeCo's
    /// conditional PLAF clauses, e.g. "changing education forces age up").
    RequiresChange {
        /// The guarded feature.
        feature: usize,
        /// The feature that must move with it.
        implied: usize,
    },
}

/// A PLAF program: a set of rules checked against (instance, candidate).
#[derive(Clone, Debug, Default)]
pub struct Plaf {
    rules: Vec<PlafRule>,
}

impl Plaf {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    pub fn rule(mut self, r: PlafRule) -> Self {
        self.rules.push(r);
        self
    }

    /// Derives the baseline program from schema mutability metadata.
    pub fn from_schema(data: &Dataset) -> Self {
        let mut plaf = Self::new();
        for (j, f) in data.schema().features().iter().enumerate() {
            plaf = match f.mutability {
                Mutability::Immutable => plaf.rule(PlafRule::Freeze { feature: j }),
                Mutability::IncreaseOnly => plaf.rule(PlafRule::OnlyIncrease { feature: j }),
                Mutability::DecreaseOnly => plaf.rule(PlafRule::OnlyDecrease { feature: j }),
                Mutability::Free => plaf,
            };
        }
        plaf
    }

    /// Checks a candidate against every rule.
    pub fn admissible(&self, instance: &[f64], candidate: &[f64]) -> bool {
        self.rules.iter().all(|r| match *r {
            PlafRule::Freeze { feature } => (candidate[feature] - instance[feature]).abs() < 1e-12,
            PlafRule::OnlyIncrease { feature } => candidate[feature] >= instance[feature] - 1e-12,
            PlafRule::OnlyDecrease { feature } => candidate[feature] <= instance[feature] + 1e-12,
            PlafRule::RequiresChange { feature, implied } => {
                let changed = (candidate[feature] - instance[feature]).abs() > 1e-12;
                let implied_changed = (candidate[implied] - instance[implied]).abs() > 1e-12;
                !changed || implied_changed
            }
        })
    }
}

/// Configuration for [`geco`].
#[derive(Clone, Copy, Debug)]
pub struct GecoConfig {
    /// Population size.
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Fraction of the population kept as parents each generation.
    pub elite_fraction: f64,
    /// Per-feature mutation probability.
    pub mutation_rate: f64,
}

impl Default for GecoConfig {
    fn default() -> Self {
        Self { population: 60, generations: 25, elite_fraction: 0.3, mutation_rate: 0.3 }
    }
}

/// Lexicographic fitness: valid first, then fewer changes, then closer.
fn fitness(
    model: &dyn Fn(&[f64]) -> f64,
    scales: &FeatureScales,
    instance: &[f64],
    want_positive: bool,
    candidate: &[f64],
) -> (bool, usize, f64) {
    let out = model(candidate);
    let valid = (out >= 0.5) == want_positive;
    (valid, scales.l0(instance, candidate), scales.l1(instance, candidate))
}

/// Runs the genetic counterfactual search. Returns the best valid
/// counterfactual found, or `None` when none crossed the boundary.
pub fn geco(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    instance: &[f64],
    plaf: &Plaf,
    config: GecoConfig,
    seed: u64,
) -> Option<Counterfactual> {
    assert_eq!(instance.len(), data.n_features());
    let scales = FeatureScales::fit(data);
    let original_output = model(instance);
    let want_positive = original_output < 0.5;
    let d = instance.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Value pools: the observed values per feature (plausibility source).
    let pools: Vec<Vec<f64>> = (0..d).map(|j| data.x().col(j)).collect();
    let sample_value =
        |j: usize, rng: &mut StdRng| -> f64 { pools[j][rng.gen_range(0..pools[j].len())] };

    // Seed population: copies of the instance with one plausible change.
    let mut population: Vec<Vec<f64>> = Vec::with_capacity(config.population);
    let mut guard = 0;
    while population.len() < config.population && guard < config.population * 50 {
        guard += 1;
        let mut cand = instance.to_vec();
        let j = rng.gen_range(0..d);
        cand[j] = sample_value(j, &mut rng);
        if plaf.admissible(instance, &cand) {
            population.push(cand);
        }
    }
    if population.is_empty() {
        return None;
    }

    for _ in 0..config.generations {
        // Rank by fitness.
        let mut scored: Vec<(Vec<f64>, (bool, usize, f64))> = population
            .drain(..)
            .map(|c| {
                let f = fitness(model, &scales, instance, want_positive, &c);
                (c, f)
            })
            .collect();
        scored.sort_by(|a, b| {
            // valid first, then fewer changes, then smaller distance
            b.1 .0
                .cmp(&a.1 .0)
                .then(a.1 .1.cmp(&b.1 .1))
                .then(a.1 .2.total_cmp(&b.1 .2))
        });
        let n_elite = ((config.population as f64) * config.elite_fraction).ceil() as usize;
        let elites: Vec<Vec<f64>> = scored.iter().take(n_elite.max(2)).map(|(c, _)| c.clone()).collect();

        // Refill with crossover + mutation.
        population = elites.clone();
        while population.len() < config.population {
            let a = &elites[rng.gen_range(0..elites.len())];
            let b = &elites[rng.gen_range(0..elites.len())];
            let mut child: Vec<f64> = (0..d)
                .map(|j| if rng.gen::<bool>() { a[j] } else { b[j] })
                .collect();
            for j in 0..d {
                if rng.gen::<f64>() < config.mutation_rate {
                    // Mutate toward either a fresh plausible value or back
                    // to the instance (encourages sparsity).
                    child[j] = if rng.gen::<bool>() { sample_value(j, &mut rng) } else { instance[j] };
                }
            }
            if plaf.admissible(instance, &child) {
                population.push(child);
            }
        }
    }

    // Best valid individual.
    let best = population
        .into_iter()
        .map(|c| {
            let f = fitness(model, &scales, instance, want_positive, &c);
            (c, f)
        })
        .filter(|(_, f)| f.0)
        .min_by(|a, b| {
            a.1 .1
                .cmp(&b.1 .1)
                .then(a.1 .2.total_cmp(&b.1 .2))
        })?;
    let (cf, _) = best;
    let cf_output = model(&cf);
    Some(Counterfactual::new(
        instance.to_vec(),
        cf.clone(),
        original_output,
        cf_output,
        scales.l1(instance, &cf),
    ))
}

/// Certifies a search outcome: maps "no counterfactual found" to
/// [`XaiError::ConvergenceFailure`] and a non-finite result (a NaN model
/// can score garbage candidates "valid") to [`XaiError::ModelFault`].
pub(crate) fn certify_counterfactual(
    found: Option<Counterfactual>,
    what: &str,
    iterations: usize,
) -> XaiResult<Counterfactual> {
    let Some(cf) = found else {
        return Err(XaiError::ConvergenceFailure {
            context: format!("{what} found no valid counterfactual"),
            iterations,
        });
    };
    if !cf.counterfactual_output.is_finite()
        || !cf.distance.is_finite()
        || !cf.original_output.is_finite()
        || cf.counterfactual.iter().any(|v| !v.is_finite())
    {
        return Err(XaiError::ModelFault {
            context: format!("{what} produced a non-finite counterfactual"),
        });
    }
    Ok(cf)
}

/// Fallible twin of [`geco`]: non-finite inputs yield
/// [`XaiError::NonFiniteInput`], a panicking model or a non-finite result
/// yields [`XaiError::ModelFault`], and an empty-handed search reports
/// [`XaiError::ConvergenceFailure`] (the plain API returns `None` there).
pub fn try_geco(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    instance: &[f64],
    plaf: &Plaf,
    config: GecoConfig,
    seed: u64,
) -> XaiResult<Counterfactual> {
    validate::finite_matrix("GeCo training data", data.x())?;
    validate::finite_slice("GeCo instance", instance)?;
    let found =
        catch_model("GeCo genetic search", || geco(model, data, instance, plaf, config, seed))?;
    certify_counterfactual(found, "GeCo genetic search", config.generations)
}

/// Baseline for experiment E10: pure random search over plausible values
/// with the same admissibility checks and evaluation budget.
pub fn random_search_counterfactual(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    instance: &[f64],
    plaf: &Plaf,
    budget: usize,
    seed: u64,
) -> Option<Counterfactual> {
    let scales = FeatureScales::fit(data);
    let original_output = model(instance);
    let want_positive = original_output < 0.5;
    let d = instance.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let pools: Vec<Vec<f64>> = (0..d).map(|j| data.x().col(j)).collect();
    let mut best: Option<(Vec<f64>, usize, f64)> = None;
    for _ in 0..budget {
        let mut cand = instance.to_vec();
        // Change a random subset of features to random plausible values.
        let n_changes = rng.gen_range(1..=d);
        for _ in 0..n_changes {
            let j = rng.gen_range(0..d);
            cand[j] = pools[j][rng.gen_range(0..pools[j].len())];
        }
        if !plaf.admissible(instance, &cand) {
            continue;
        }
        if (model(&cand) >= 0.5) == want_positive {
            let l0 = scales.l0(instance, &cand);
            let l1 = scales.l1(instance, &cand);
            if best
                .as_ref()
                .is_none_or(|(_, b0, b1)| l0 < *b0 || (l0 == *b0 && l1 < *b1))
            {
                best = Some((cand.clone(), l0, l1));
            }
        }
    }
    best.map(|(cf, _, l1)| {
        let out = model(&cf);
        Counterfactual::new(instance.to_vec(), cf, original_output, out, l1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::german_credit;
    use xai_models::{proba_fn, LogisticConfig, LogisticRegression};

    fn setup() -> (Dataset, LogisticRegression) {
        let data = german_credit(700, 13);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        (data, model)
    }

    fn rejected(data: &Dataset, f: &dyn Fn(&[f64]) -> f64) -> usize {
        (0..data.n_rows()).find(|&i| f(data.row(i)) < 0.4).expect("a rejection exists")
    }

    #[test]
    fn finds_valid_sparse_counterfactual() {
        let (data, model) = setup();
        let f = proba_fn(&model);
        let i = rejected(&data, &f);
        let plaf = Plaf::from_schema(&data);
        let cf = geco(&f, &data, data.row(i), &plaf, GecoConfig::default(), 5)
            .expect("geco should find a counterfactual");
        assert!(cf.is_valid());
        assert!(cf.sparsity() <= 4, "geco prefers few changes, got {}", cf.sparsity());
        data.schema().validate_row(&cf.counterfactual).unwrap();
    }

    #[test]
    fn respects_schema_plaf() {
        let (data, model) = setup();
        let f = proba_fn(&model);
        let i = rejected(&data, &f);
        let plaf = Plaf::from_schema(&data);
        for seed in 0..3 {
            if let Some(cf) = geco(&f, &data, data.row(i), &plaf, GecoConfig::default(), seed) {
                assert_eq!(cf.original[8], cf.counterfactual[8], "sex frozen");
                assert!(cf.counterfactual[0] >= cf.original[0] - 1e-9, "age up only");
                assert!(cf.counterfactual[6] <= cf.original[6] + 1e-9, "defaults down only");
            }
        }
    }

    #[test]
    fn requires_change_rule_enforced() {
        let (data, model) = setup();
        let f = proba_fn(&model);
        let i = rejected(&data, &f);
        // Changing employment_years (5) requires age (0) to change too.
        let plaf = Plaf::from_schema(&data)
            .rule(PlafRule::RequiresChange { feature: 5, implied: 0 });
        if let Some(cf) = geco(&f, &data, data.row(i), &plaf, GecoConfig::default(), 9) {
            let emp_changed = (cf.counterfactual[5] - cf.original[5]).abs() > 1e-12;
            let age_changed = (cf.counterfactual[0] - cf.original[0]).abs() > 1e-12;
            assert!(!emp_changed || age_changed, "PLAF implication violated");
        }
    }

    #[test]
    fn geco_beats_random_search_on_quality() {
        let (data, model) = setup();
        let f = proba_fn(&model);
        let i = rejected(&data, &f);
        let plaf = Plaf::from_schema(&data);
        let g = geco(&f, &data, data.row(i), &plaf, GecoConfig::default(), 3);
        let r = random_search_counterfactual(&f, &data, data.row(i), &plaf, 1500, 3);
        let (g, r) = (g.expect("geco finds"), r.expect("random finds"));
        assert!(
            g.sparsity() <= r.sparsity(),
            "geco should change no more features: {} vs {}",
            g.sparsity(),
            r.sparsity()
        );
    }

    #[test]
    fn counterfactual_values_come_from_data_pools() {
        let (data, model) = setup();
        let f = proba_fn(&model);
        let i = rejected(&data, &f);
        let plaf = Plaf::from_schema(&data);
        let cf = geco(&f, &data, data.row(i), &plaf, GecoConfig::default(), 17).unwrap();
        for (j, &v) in cf.counterfactual.iter().enumerate() {
            if (v - cf.original[j]).abs() > 1e-12 {
                let pool = data.x().col(j);
                assert!(
                    pool.iter().any(|&p| (p - v).abs() < 1e-12),
                    "changed value {v} for feature {j} must be an observed value"
                );
            }
        }
    }
}
