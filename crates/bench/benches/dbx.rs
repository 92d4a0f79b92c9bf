//! Timing benches for the data-management experiments (E10, E17, E18,
//! E21 in timing form) and the perturbation explainers. Plain binaries on
//! `xai_bench::timing` — run with `cargo bench -p xai-bench`.

use xai_bench::timing::Group;
use xai_core::{ExplainRequest, Explainer, RunConfig};
use xai_counterfactual::{geco, random_search_counterfactual, GecoConfig, GecoMethod, Plaf};
use xai_data::synth::german_credit;
use xai_models::{proba_fn, LogisticConfig, LogisticRegression};
use xai_provenance::{
    retrain_ridge, tuple_shapley_exact, tuple_shapley_sampled, IncrementalRidge, Polynomial,
};
use xai_rand::parallel::default_workers;
use xai_rules::{apriori, fp_growth, ItemVocabulary};
use xai_surrogate::{LimeConfig, LimeExplainer};

fn bench_geco() {
    let data = german_credit(500, 13);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let fm = proba_fn(&model);
    let plaf = Plaf::from_schema(&data);
    let idx = (0..data.n_rows()).find(|&i| fm(data.row(i)) < 0.35).unwrap();
    let x = data.row(idx).to_vec();
    let workers = default_workers();

    let mut group = Group::new("counterfactual_search").samples(7);
    group.bench("geco_genetic", || geco(&fm, &data, &x, &plaf, GecoConfig::default(), 3));
    // The multi-start search runs for `workers > 1` plans; a single-core
    // host still races the four starts, on two executor threads.
    let multi_start = GecoMethod { config: GecoConfig::default(), starts: 4 };
    let req = ExplainRequest::new(&data)
        .instance(&x)
        .plan(RunConfig::seeded(3).with_workers(workers.max(2)));
    group.bench(&format!("geco_4starts_parallel_{workers}w"), || {
        multi_start.explain(&model, &req)
    });
    group.bench("random_search_1500", || {
        random_search_counterfactual(&fm, &data, &x, &plaf, 1500, 3)
    });
    group.finish();
}

fn bench_mining() {
    let data = german_credit(800, 61);
    let vocab = ItemVocabulary::build(&data);
    let txns = vocab.transactions(&data);
    let mut group = Group::new("itemset_mining").samples(7);
    for support in [0.2f64, 0.1] {
        let min_support = ((support * txns.len() as f64).ceil() as usize).max(1);
        group.bench(&format!("apriori/{support}"), || apriori(&txns, min_support));
        group.bench(&format!("fp_growth/{support}"), || fp_growth(&txns, min_support));
    }
    group.finish();
}

fn bench_tuple_shapley() {
    // Star-join provenance with 14 endogenous tuples.
    let mut spokes = Polynomial::zero();
    for i in 1..=13usize {
        spokes = spokes.plus(&Polynomial::var(i));
    }
    let p = Polynomial::var(0).times(&spokes);
    let endo: Vec<usize> = (0..=13).collect();
    let mut group = Group::new("tuple_shapley_14").samples(7);
    group.bench("exact_2^14", || tuple_shapley_exact(&p, &endo));
    group.bench("sampled_1000", || tuple_shapley_sampled(&p, &endo, 1000, 7));
    group.finish();
}

fn bench_priu() {
    let data = xai_data::synth::linear_gaussian(4000, &vec![0.5; 12], 0.0, 91);
    let x = data.x().with_intercept();
    let y: Vec<f64> = data.y().to_vec();
    let base = IncrementalRidge::fit(&x, &y, 1e-3);

    let mut group = Group::new("priu_deletion").samples(7);
    group.bench("incremental_10_deletions", || {
        let mut inc = base.clone();
        for i in 0..10 {
            inc.remove_row(x.row(i * 100), y[i * 100]);
        }
        inc.coef()
    });
    let keep: Vec<usize> = (10..4000).collect();
    let xk = x.select_rows(&keep);
    let yk: Vec<f64> = keep.iter().map(|&i| y[i]).collect();
    group.bench("full_retrain", || retrain_ridge(&xk, &yk, 1e-3));
    group.finish();
}

fn bench_lime() {
    let data = german_credit(600, 17);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let lime = LimeExplainer::fit(&data);
    let fm = proba_fn(&model);
    let x = data.row(0).to_vec();
    let mut group = Group::new("lime").samples(7);
    for n in [250usize, 1000, 4000] {
        group.bench(&format!("n_samples/{n}"), || {
            lime.explain(&fm, &x, LimeConfig { n_samples: n, ..LimeConfig::default() }, 3)
        });
    }
    group.finish();
}

fn main() {
    bench_geco();
    bench_mining();
    bench_tuple_shapley();
    bench_priu();
    bench_lime();
}
