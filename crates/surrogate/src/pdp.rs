//! Partial dependence and individual conditional expectation (ICE)
//! curves.
//!
//! The tutorial opens §2 with methods that "provide a comprehensive
//! summary of features representing the data used to train a model"
//! (\[50\]); PDP/ICE are the canonical global summaries of that kind. The
//! PDP of feature `j` is `g(v) = E_X[f(X with X_j := v)]`; ICE keeps the
//! per-instance curves that the expectation averages (and can hide —
//! heterogeneous ICE curves with a flat PDP signal interactions).

use xai_core::{catch_model, validate, XaiError, XaiResult};
use xai_data::Dataset;
use xai_linalg::stats::quantile;
use xai_linalg::Matrix;

/// A partial-dependence result.
#[derive(Clone, Debug)]
pub struct PartialDependence {
    /// The evaluation grid for the feature.
    pub grid: Vec<f64>,
    /// PDP values, one per grid point.
    pub pdp: Vec<f64>,
    /// ICE curves: `ice[i][g]` is instance `i`'s output at grid point `g`
    /// (present only when requested).
    pub ice: Option<Vec<Vec<f64>>>,
    /// The feature index.
    pub feature: usize,
}

impl PartialDependence {
    /// Range of the PDP (a scalar global-importance proxy).
    pub fn range(&self) -> f64 {
        let lo = self.pdp.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = self.pdp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    /// Mean standard deviation of *centered* ICE curves (each shifted to
    /// start at 0, the "c-ICE" convention) at each grid point. Additive
    /// features give parallel curves ⇒ ~0; interactions give diverging
    /// curve shapes ⇒ large values.
    pub fn ice_heterogeneity(&self) -> Option<f64> {
        let ice = self.ice.as_ref()?;
        if ice.is_empty() {
            return Some(0.0);
        }
        let g = self.grid.len();
        let mut total = 0.0;
        for gi in 0..g {
            let col: Vec<f64> = ice.iter().map(|curve| curve[gi] - curve[0]).collect();
            total += xai_linalg::stats::std_dev(&col);
        }
        Some(total / g as f64)
    }
}

/// Builds an evaluation grid between the feature's 5th and 95th
/// percentiles.
pub fn feature_grid(data: &Dataset, feature: usize, points: usize) -> Vec<f64> {
    assert!(points >= 2);
    let col = data.x().col(feature);
    let lo = quantile(&col, 0.05);
    let hi = quantile(&col, 0.95);
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Computes PDP (and optionally ICE) for one feature over (a subsample
/// of) the dataset.
///
/// # Panics
/// Panics when the model misbehaves; use [`try_partial_dependence`] for
/// typed errors.
pub fn partial_dependence(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    feature: usize,
    grid: &[f64],
    max_rows: usize,
    keep_ice: bool,
) -> PartialDependence {
    let batch = |m: &Matrix| m.iter_rows().map(model).collect::<Vec<f64>>();
    sweep(&batch, data, feature, grid, max_rows, keep_ice)
}

/// Fallible twin of [`partial_dependence`]: a non-finite grid yields
/// [`XaiError::NonFiniteInput`]; a model that panics or produces
/// non-finite outputs yields [`XaiError::ModelFault`]. The returned
/// curves are guaranteed finite.
pub fn try_partial_dependence(
    model: &dyn Fn(&[f64]) -> f64,
    data: &Dataset,
    feature: usize,
    grid: &[f64],
    max_rows: usize,
    keep_ice: bool,
) -> XaiResult<PartialDependence> {
    let batch = |m: &Matrix| m.iter_rows().map(model).collect::<Vec<f64>>();
    try_sweep(&batch, data, feature, grid, max_rows, keep_ice)
}

/// [`sweep`] with input validation, panic isolation and finite-curve
/// certification.
pub(crate) fn try_sweep(
    model: &dyn Fn(&Matrix) -> Vec<f64>,
    data: &Dataset,
    feature: usize,
    grid: &[f64],
    max_rows: usize,
    keep_ice: bool,
) -> XaiResult<PartialDependence> {
    validate::finite_slice("PDP grid", grid)?;
    validate::finite_matrix("PDP dataset", data.x())?;
    let pd = catch_model("PDP model evaluation", || {
        sweep(model, data, feature, grid, max_rows, keep_ice)
    })?;
    check_curves(&pd)?;
    Ok(pd)
}

/// Rejects non-finite PDP/ICE points — the model produced them, so they
/// map to [`XaiError::ModelFault`].
fn check_curves(pd: &PartialDependence) -> XaiResult<()> {
    if let Some(g) = pd.pdp.iter().position(|v| !v.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("PDP grid point {g} averaged to {}", pd.pdp[g]),
        });
    }
    if let Some(ice) = pd.ice.as_ref() {
        for (i, curve) in ice.iter().enumerate() {
            if let Some(g) = curve.iter().position(|v| !v.is_finite()) {
                return Err(XaiError::ModelFault {
                    context: format!("ICE curve {i} is {} at grid point {g}", curve[g]),
                });
            }
        }
    }
    Ok(())
}

/// The PDP/ICE sweep through a batch model surface: all `rows × grid`
/// probe rows are materialized as one matrix (row-major in
/// `(instance, grid-point)` order) and evaluated in a single call, then
/// accumulated instance by instance. A scalar model enters through a row
/// loop, so the batched and scalar sweeps agree bit for bit whenever the
/// batch surface matches the scalar one row for row.
pub(crate) fn sweep(
    model: &dyn Fn(&Matrix) -> Vec<f64>,
    data: &Dataset,
    feature: usize,
    grid: &[f64],
    max_rows: usize,
    keep_ice: bool,
) -> PartialDependence {
    assert!(feature < data.n_features());
    assert!(!grid.is_empty());
    let rows = data.n_rows().min(max_rows.max(1));
    let d = data.n_features();
    let mut probes = Matrix::zeros(rows * grid.len(), d);
    for i in 0..rows {
        for (g, &v) in grid.iter().enumerate() {
            let row = probes.row_mut(i * grid.len() + g);
            row.copy_from_slice(data.row(i));
            row[feature] = v;
        }
    }
    let outs = model(&probes);
    assert_eq!(outs.len(), rows * grid.len(), "batched model returned wrong arity");
    let mut pdp = vec![0.0; grid.len()];
    let mut ice = if keep_ice { Some(Vec::with_capacity(rows)) } else { None };
    for i in 0..rows {
        let block = &outs[i * grid.len()..(i + 1) * grid.len()];
        for (g, &out) in block.iter().enumerate() {
            pdp[g] += out / rows as f64;
        }
        if let Some(ice) = ice.as_mut() {
            ice.push(block.to_vec());
        }
    }
    PartialDependence { grid: grid.to_vec(), pdp, ice, feature }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::friedman1;
    use xai_models::{Gbdt, GbdtConfig, GbdtLoss, Regressor};

    #[test]
    fn linear_model_has_linear_pdp() {
        let data = friedman1(300, 5, 0.1);
        let model = |x: &[f64]| 10.0 * x[3] + 1.0;
        let grid = feature_grid(&data, 3, 5);
        let pd = partial_dependence(&model, &data, 3, &grid, 200, false);
        // PDP of a linear model is the line itself (offset by the average
        // of the other terms = the constant 1).
        for (g, &v) in grid.iter().enumerate() {
            assert!((pd.pdp[g] - (10.0 * v + 1.0)).abs() < 1e-9);
        }
        assert!(pd.range() > 0.0);
    }

    #[test]
    fn irrelevant_feature_has_flat_pdp() {
        let data = friedman1(600, 7, 0.2);
        let gbdt = Gbdt::fit(
            data.x(),
            data.y(),
            GbdtConfig { n_rounds: 60, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
        );
        let f = |x: &[f64]| Regressor::predict_one(&gbdt, x);
        let relevant = partial_dependence(&f, &data, 3, &feature_grid(&data, 3, 8), 150, false);
        let noise = partial_dependence(&f, &data, 7, &feature_grid(&data, 7, 8), 150, false);
        assert!(
            relevant.range() > 4.0 * noise.range(),
            "x3 range {} vs x7 range {}",
            relevant.range(),
            noise.range()
        );
    }

    #[test]
    fn ice_heterogeneity_detects_interactions() {
        let data = friedman1(400, 9, 0.1);
        // x0·x1 interaction vs purely additive x3.
        let model = |x: &[f64]| 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin() + 10.0 * x[3];
        let pd_interacting =
            partial_dependence(&model, &data, 0, &feature_grid(&data, 0, 8), 150, true);
        let pd_additive =
            partial_dependence(&model, &data, 3, &feature_grid(&data, 3, 8), 150, true);
        let h_int = pd_interacting.ice_heterogeneity().unwrap();
        let h_add = pd_additive.ice_heterogeneity().unwrap();
        assert!(
            h_int > 3.0 * h_add,
            "interacting {h_int} vs additive {h_add}"
        );
    }

    #[test]
    fn ice_curves_average_to_pdp() {
        let data = friedman1(200, 11, 0.1);
        let model = |x: &[f64]| x[0] * x[4] + x[2];
        let grid = feature_grid(&data, 4, 6);
        let pd = partial_dependence(&model, &data, 4, &grid, 100, true);
        let ice = pd.ice.as_ref().unwrap();
        for g in 0..grid.len() {
            let mean: f64 = ice.iter().map(|c| c[g]).sum::<f64>() / ice.len() as f64;
            assert!((mean - pd.pdp[g]).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_pdp_matches_scalar_bitwise() {
        let data = friedman1(120, 21, 0.1);
        let gbdt = Gbdt::fit(
            data.x(),
            data.y(),
            GbdtConfig { n_rounds: 25, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
        );
        let f = |x: &[f64]| Regressor::predict_one(&gbdt, x);
        let bf = xai_models::batch_regress_fn(&gbdt);
        for keep_ice in [false, true] {
            for feature in [0, 3] {
                let grid = feature_grid(&data, feature, 7);
                let scalar = partial_dependence(&f, &data, feature, &grid, 80, keep_ice);
                let batched = sweep(&bf, &data, feature, &grid, 80, keep_ice);
                assert_eq!(scalar.pdp, batched.pdp);
                assert_eq!(scalar.ice, batched.ice);
                assert_eq!(scalar.grid, batched.grid);
            }
        }
    }

    #[test]
    fn grid_spans_the_central_mass() {
        let data = friedman1(500, 13, 0.1);
        let grid = feature_grid(&data, 0, 10);
        assert_eq!(grid.len(), 10);
        assert!(grid.windows(2).all(|w| w[1] > w[0]));
        assert!(grid[0] >= 0.0 && *grid.last().unwrap() <= 1.0);
    }
}
