//! The HPO module of the §7.2 comparison: search a downstream model's
//! hyperparameter space (with feature preprocessing disabled), under the
//! same budget as Auto-FP.
//!
//! Hyperparameter candidates are sampled uniformly from per-model grids
//! patterned on TPOT's configuration for the corresponding estimator.

use autofp_core::Budget;
use autofp_data::Split;
use autofp_models::classifier::{ModelKind, Trainer};
use autofp_models::gbdt::GbdtParams;
use autofp_models::linear::LogisticParams;
use autofp_models::metrics::accuracy;
use autofp_models::mlp::MlpParams;
use autofp_linalg::rng::rng_from_seed;
use rand::rngs::StdRng;
use rand::Rng;

/// Result of an HPO run.
#[derive(Debug, Clone)]
pub struct HpoOutcome {
    /// Best validation accuracy found.
    pub best_accuracy: f64,
    /// Human-readable description of the best configuration.
    pub best_config: String,
    /// Number of configurations evaluated.
    pub n_evals: usize,
}

/// Random-search HPO over one downstream model family.
pub struct HpoSearch {
    /// Downstream model family whose hyperparameters are searched.
    pub model: ModelKind,
    rng: StdRng,
}

impl HpoSearch {
    /// Construct an HPO searcher for one model family.
    pub fn new(model: ModelKind, seed: u64) -> HpoSearch {
        HpoSearch { model, rng: rng_from_seed(seed) }
    }

    /// Sample one hyperparameter configuration as a trainer.
    fn sample(&mut self) -> (Box<dyn Trainer>, String) {
        match self.model {
            ModelKind::Lr => {
                let lr = *pick(&mut self.rng, &[0.003, 0.01, 0.03, 0.1, 0.3]);
                let l2 = *pick(&mut self.rng, &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2]);
                let epochs = *pick(&mut self.rng, &[20, 40, 80, 120, 160]);
                let desc = format!("LR(lr={lr}, l2={l2}, epochs={epochs})");
                (
                    Box::new(LogisticParams {
                        learning_rate: lr,
                        l2,
                        max_epochs: epochs,
                        ..Default::default()
                    }),
                    desc,
                )
            }
            ModelKind::Xgb => {
                let rounds = *pick(&mut self.rng, &[10, 20, 30, 45, 60]);
                let depth = *pick(&mut self.rng, &[2, 3, 4, 6, 8]);
                let lr = *pick(&mut self.rng, &[0.05, 0.1, 0.2, 0.3, 0.5]);
                let subsample = *pick(&mut self.rng, &[0.5, 0.7, 0.85, 1.0]);
                let desc =
                    format!("XGB(rounds={rounds}, depth={depth}, eta={lr}, subsample={subsample})");
                (
                    Box::new(GbdtParams {
                        n_rounds: rounds,
                        max_depth: depth,
                        learning_rate: lr,
                        subsample,
                        ..Default::default()
                    }),
                    desc,
                )
            }
            ModelKind::Mlp => {
                let hidden = *pick(&mut self.rng, &[8, 16, 32, 64]);
                let lr = *pick(&mut self.rng, &[0.001, 0.003, 0.01, 0.03]);
                let epochs = *pick(&mut self.rng, &[10, 20, 30, 50]);
                let batch = *pick(&mut self.rng, &[16, 32, 64]);
                let desc =
                    format!("MLP(hidden={hidden}, lr={lr}, epochs={epochs}, batch={batch})");
                (
                    Box::new(MlpParams {
                        hidden,
                        learning_rate: lr,
                        max_epochs: epochs,
                        batch_size: batch,
                        ..Default::default()
                    }),
                    desc,
                )
            }
        }
    }

    /// Run HPO on a split (no preprocessing) under a budget.
    pub fn run(&mut self, split: &Split, budget: Budget) -> HpoOutcome {
        let mut clock = budget.start();
        let mut best_accuracy = 0.0;
        let mut best_config = String::from("(none)");
        let mut n_evals = 0;
        while !clock.exhausted() {
            let (trainer, desc) = self.sample();
            let model = trainer.fit(&split.train.x, &split.train.y, split.train.n_classes);
            let acc = accuracy(&split.valid.y, &model.predict(&split.valid.x));
            clock.note_eval(1.0);
            n_evals += 1;
            if acc > best_accuracy {
                best_accuracy = acc;
                best_config = desc;
            }
        }
        HpoOutcome { best_accuracy, best_config, n_evals }
    }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Convenience: the §7 three-way comparison row for one dataset and
/// model — Auto-FP best vs TPOT-FP best vs HPO best.
#[derive(Debug, Clone)]
pub struct ContextComparison {
    /// Dataset name.
    pub dataset: String,
    /// Downstream model family.
    pub model: ModelKind,
    /// Best validation accuracy of Auto-FP (PBT).
    pub auto_fp: f64,
    /// Best validation accuracy of TPOT's FP module.
    pub tpot_fp: f64,
    /// Best validation accuracy of the HPO module.
    pub hpo: f64,
    /// Validation accuracy without any preprocessing.
    pub no_fp: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_data::SynthConfig;

    #[test]
    fn hpo_improves_over_first_sample_or_matches() {
        let d = SynthConfig::new("hpo-test", 200, 5, 2, 3).generate();
        let split = d.stratified_split(0.8, 0);
        let mut hpo = HpoSearch::new(ModelKind::Lr, 5);
        let out = hpo.run(&split, Budget::evals(6));
        assert_eq!(out.n_evals, 6);
        assert!(out.best_accuracy > 0.0);
        assert!(out.best_config.starts_with("LR("));
    }

    #[test]
    fn all_model_kinds_have_spaces() {
        let d = SynthConfig::new("hpo-all", 120, 4, 2, 7).generate();
        let split = d.stratified_split(0.8, 0);
        for model in ModelKind::ALL {
            let mut hpo = HpoSearch::new(model, 1);
            let out = hpo.run(&split, Budget::evals(2));
            assert_eq!(out.n_evals, 2, "{model}");
        }
    }

    #[test]
    fn hpo_is_deterministic() {
        let d = SynthConfig::new("hpo-det", 120, 4, 2, 9).generate();
        let split = d.stratified_split(0.8, 0);
        let a = HpoSearch::new(ModelKind::Xgb, 3).run(&split, Budget::evals(4)).best_accuracy;
        let b = HpoSearch::new(ModelKind::Xgb, 3).run(&split, Budget::evals(4)).best_accuracy;
        assert_eq!(a, b);
    }
}
