//! §8 deep-model probe: "Benchmark Auto-FP for Deep Models".
//!
//! The paper reports that 200 random FP pipelines change the validation
//! AUC of a DeepFM recommender on Tmall/Instacart-like CTR data. Those
//! datasets and DeepFM are proprietary/heavyweight; per DESIGN.md the
//! substitution is two synthetic CTR-like datasets (sparse, skewed,
//! imbalanced — the properties that matter) and the MLP as the deep,
//! scale-sensitive model, scored by AUC.
//!
//! Usage: `cargo run --release -p autofp-bench --bin exp_deep_probe
//!   [--scale S] [--evals N] [--seed X]`

use autofp_bench::{f4, print_table, HarnessConfig};
use autofp_core::Budget;
use autofp_data::{Personality, SynthConfig};
use autofp_models::classifier::Trainer;
use autofp_models::metrics::auc_binary;
use autofp_models::mlp::MlpParams;
use autofp_preprocess::{LambdaMemo, ParamSpace};

fn ctr_dataset(name: &str, seed: u64, rows: usize) -> autofp_data::Dataset {
    SynthConfig::new(name, rows, 16, 2, seed)
        .with_personality(Personality {
            scale_spread: 4.0,
            skew: 0.7,
            heavy_tail: 0.4,
            sparsity: 0.5,
            class_sep: 0.7,
            label_noise: 0.1,
            informative_frac: 0.6,
            imbalance: 1.0,
        })
        .generate()
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let n_pipelines = match cfg.budget {
        Budget { max_evals: Some(n), .. } => n,
        _ => 200,
    };
    println!("== §8 probe: FP for a deep CTR model (MLP + AUC; DeepFM substituted) ==\n");

    let rows = (4000.0 * cfg.scale.max(0.05) * 25.0) as usize;
    let mut out_rows = Vec::new();
    for (name, seed) in [("tmall-like", 101u64), ("instacart-like", 202u64)] {
        let dataset = ctr_dataset(name, seed, rows.max(400));
        let split = dataset.stratified_split(0.8, cfg.seed);
        let trainer = MlpParams { max_epochs: 15, ..Default::default() };

        let auc_of = |train_x: &autofp_linalg::Matrix,
                      valid_x: &autofp_linalg::Matrix|
         -> f64 {
            let model = trainer.fit(train_x, &split.train.y, 2);
            let scores: Vec<f64> = valid_x
                .rows_iter()
                .map(|r| model.predict_proba_row(r, 2)[1])
                .collect();
            auc_binary(&split.valid.y, &scores)
        };

        // No-FP baseline AUC.
        let base_auc = auc_of(&split.train.x, &split.valid.x);

        // Best AUC over N random pipelines.
        let space = ParamSpace::default_space();
        let mut rng = autofp_linalg::rng::rng_from_seed(cfg.seed);
        let mut best_auc: f64 = 0.0;
        let mut best_pipe = String::from("(none)");
        // Every pipeline fits on this split, so one λ memo serves them all.
        let lambdas = LambdaMemo::new();
        for _ in 0..n_pipelines {
            let p = space.sample_pipeline(&mut rng, cfg.max_len);
            let (fitted, train_x) = p.fit_transform(&split.train.x, &lambdas);
            let valid_x = fitted.transform_new(&split.valid.x);
            let auc = auc_of(&train_x, &valid_x);
            if auc > best_auc {
                best_auc = auc;
                best_pipe = p.to_string();
            }
        }
        out_rows.push(vec![
            name.to_string(),
            f4(base_auc),
            f4(best_auc),
            format!("{:+.4}", best_auc - base_auc),
            best_pipe,
        ]);
    }
    print_table(
        &["Dataset", "AUC (no FP)", "AUC (best of random FP)", "Delta", "Best pipeline"],
        &out_rows,
    );
    println!(
        "\nPaper's shape to match: random FP pipelines move the deep model's validation AUC\n\
         substantially (the paper saw 0.5 -> 0.5875 on Tmall), i.e. Auto-FP applies to deep\n\
         models too."
    );
}
