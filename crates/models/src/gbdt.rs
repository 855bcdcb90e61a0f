//! Histogram-based gradient-boosted decision trees (the XGBoost stand-in).
//!
//! Implements the parts of XGBoost that matter for this study: softmax
//! multiclass objective with first/second-order gradients, quantile-sketch
//! feature binning, histogram split finding with the XGBoost gain formula
//! (`0.5 * [G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)] - γ`), Newton leaf
//! weights, shrinkage, and optional row subsampling. Because binned splits
//! are invariant to monotone per-column transforms, this learner is far
//! less sensitive to feature preprocessing than LR/MLP — reproducing the
//! paper's observation that FP improves XGB in many fewer scenarios.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use autofp_linalg::memo::WordSink;
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::rng::{derive_seed, rng_from_seed, sample_indices};
use autofp_linalg::Matrix;

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone)]
pub struct GbdtParams {
    /// Boosting rounds at full budget (`n_estimators`).
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (`eta`).
    pub learning_rate: f64,
    /// L2 regularization on leaf weights (`lambda`).
    pub reg_lambda: f64,
    /// Minimum gain to accept a split (`gamma`).
    pub min_split_gain: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsampling fraction per round.
    pub subsample: f64,
    /// Number of histogram bins per feature.
    pub n_bins: usize,
    /// Seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 30,
            max_depth: 4,
            learning_rate: 0.3,
            reg_lambda: 1.0,
            min_split_gain: 0.0,
            // XGBoost defaults to 1.0, but with softmax hessians of at
            // most 0.25 per row that forbids any split on nodes under ~4
            // rows; the benchmark runs on scaled-down datasets, so the
            // default here is proportionally lower.
            min_child_weight: 1e-3,
            subsample: 1.0,
            n_bins: 48,
            seed: 0,
        }
    }
}

impl GbdtParams {
    /// Set the subsampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug, Clone)]
pub(crate) enum TreeNode {
    Leaf { weight: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// One regression tree of the ensemble.
#[derive(Debug, Clone)]
pub(crate) struct RegTree {
    pub(crate) nodes: Vec<TreeNode>,
}

impl RegTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { weight } => return *weight,
                TreeNode::Split { feature, threshold, left, right } => {
                    let v = row.get(*feature).copied().unwrap_or(0.0);
                    i = if v.is_finite() && v <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A trained gradient-boosted tree ensemble.
pub struct Gbdt {
    /// `trees[round][class]`.
    pub(crate) trees: Vec<Vec<RegTree>>,
    pub(crate) n_classes: usize,
    pub(crate) learning_rate: f64,
}

impl Gbdt {
    /// Number of completed boosting rounds.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    fn scores(&self, row: &[f64]) -> Vec<f64> {
        let mut f = vec![0.0; self.n_classes];
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                f[k] += self.learning_rate * tree.predict_row(row);
            }
        }
        f
    }
}

impl Classifier for Gbdt {
    fn predict_row(&self, row: &[f64]) -> usize {
        crate::linear::argmax(&self.scores(row))
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut f = self.scores(row);
        softmax_inplace(&mut f);
        f.resize(n_classes, 0.0);
        f
    }
}

impl GbdtParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes the ensemble).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Gbdt {
        let n = x.nrows();
        assert_eq!(n, y.len());
        let k = n_classes;
        let bins = Bins::fit(x, self.n_bins);
        let mut scratch = Scratch::new(&bins);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut probs = Matrix::zeros(n, k);
        self.boost(x, k, budget, cancel, |f, rows| {
            // The scores `f` change only after all of a round's trees are
            // built, so each row's softmax is computed once per round.
            for &i in rows {
                let p = probs.row_mut(i);
                p.copy_from_slice(f.row(i));
                softmax_inplace(p);
            }
            (0..k)
                .map(|class| {
                    for &i in rows {
                        let p = probs.get(i, class);
                        let target = (y[i] == class) as u8 as f64;
                        grad[i] = p - target;
                        hess[i] = (p * (1.0 - p)).max(1e-6);
                    }
                    let mut nodes = Vec::new();
                    let mut tree_rows = rows.to_vec();
                    grow(&bins, &mut tree_rows, &grad, &hess, self, 0, &mut scratch, &mut nodes);
                    RegTree { nodes }
                })
                .collect()
        })
    }

    /// The boosting loop: row subsampling, cooperative cancellation and
    /// the score update. `round` returns one round's class trees, given
    /// the raw scores `f` (`n x k`) and the round's sorted sample rows.
    fn boost(
        &self,
        x: &Matrix,
        k: usize,
        budget: f64,
        cancel: &CancelToken,
        mut round_trees: impl FnMut(&Matrix, &[usize]) -> Vec<RegTree>,
    ) -> Gbdt {
        let rounds = ((self.n_rounds as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);
        let n = x.nrows();
        let mut f = Matrix::zeros(n, k); // raw scores
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(rounds);
        for round in 0..rounds {
            // Cooperative cancellation between boosting rounds; a partial
            // ensemble (at least one round) is a valid model.
            if round > 0 && cancel.is_cancelled() {
                break;
            }
            // Row subsample for this round.
            let rows: Vec<usize> = if self.subsample < 1.0 {
                let m = ((n as f64 * self.subsample).round() as usize).max(1);
                let mut rng = rng_from_seed(derive_seed(self.seed, round as u64));
                let mut idx = sample_indices(&mut rng, n, m);
                idx.sort_unstable();
                idx
            } else {
                (0..n).collect()
            };
            let round_trees = round_trees(&f, &rows);
            // Update scores with all class trees of this round.
            for i in 0..n {
                let xrow = x.row(i);
                for (class, tree) in round_trees.iter().enumerate() {
                    let v = f.get(i, class) + self.learning_rate * tree.predict_row(xrow);
                    f.set(i, class, v);
                }
            }
            trees.push(round_trees);
        }
        Gbdt { trees, n_classes: k, learning_rate: self.learning_rate }
    }
}

impl Trainer for GbdtParams {
    fn fit_budgeted(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
    ) -> Box<dyn Classifier> {
        self.fit_cancellable(x, y, n_classes, budget, &CancelToken::new())
    }

    fn fit_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Box<dyn Classifier> {
        Box::new(self.train_cancellable(x, y, n_classes, budget, cancel))
    }

    fn name(&self) -> &'static str {
        "XGB"
    }

    /// Feeds, for each column `j` of `Bins::fit(train)`, the edge count
    /// `edges[j].len()`, then the train codes, then the valid codes
    /// `bin_index(&edges[j], v)`, one word each.
    ///
    /// The key is exact because a fit reads its input only through these
    /// codes. `Bins::fit` keeps edges sorted, so for finite `v`,
    /// `v <= edges[j][b]` holds exactly when `bin_index(&edges[j], v) <= b`.
    /// A non-finite `v` goes right, and its code `edges[j].len()` is
    /// greater than any split bin. So split search, the row partition,
    /// the boosting score updates (`predict_row` on train rows agrees
    /// with the codes), the leaf weights and every validation prediction
    /// depend only on the codes, the edge counts, the labels, the seed
    /// and the number of rounds. The thresholds themselves never reach
    /// the accuracy.
    ///
    /// A per-column strictly increasing map keeps every train code, up
    /// to rounding. It keeps a valid code too when the valid value equals
    /// a train value, or when the map is affine (a scaler), which moves
    /// an edge with its two neighbours. A row-wise map such as
    /// `Normalizer` changes the codes.
    fn input_words(&self, train: &Matrix, valid: &Matrix, words: &mut dyn WordSink) {
        let bins = Bins::fit(train, self.n_bins);
        for (j, edges) in bins.edges.iter().enumerate() {
            words.word(edges.len() as u64);
            bins.col(j).iter().for_each(|&code| words.word(u64::from(code)));
            for row in valid.rows_iter() {
                // `predict_row` reads a missing feature as 0.0.
                words.word(bin_index(edges, row.get(j).copied().unwrap_or(0.0)) as u64);
            }
        }
    }
}

/// Quantile-sketch bin edges per feature, plus the bin code of every
/// training value.
struct Bins {
    /// `edges[j]` sorted; bin of `v` = count of edges `< v`.
    edges: Vec<Vec<f64>>,
    /// Training-set bin codes, one contiguous column of `n` codes per
    /// feature: `codes[j * n + i]` is the bin of `x[i][j]`.
    codes: Vec<u16>,
    n: usize,
}

impl Bins {
    fn fit(x: &Matrix, n_bins: usize) -> Bins {
        let (n, d) = x.shape();
        // Every code, the non-finite bin `edges[j].len()` included, must
        // fit in a `u16`.
        let max_edges = (n_bins.max(2) - 1).min(u16::MAX as usize);
        let mut edges = Vec::with_capacity(d);
        let mut codes = Vec::with_capacity(n * d);
        for j in 0..d {
            let raw = x.col(j);
            let mut col: Vec<f64> = raw.iter().copied().filter(|v| v.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            col.dedup();
            let e: Vec<f64> = if col.len() <= max_edges {
                // Midpoints between consecutive distinct values.
                col.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                let mut e: Vec<f64> = (1..=max_edges)
                    .map(|i| {
                        let q = i as f64 / (max_edges + 1) as f64;
                        autofp_linalg::stats::quantile_sorted(&col, q)
                    })
                    .collect();
                // Interpolation in floating point does not promise order;
                // `bin_index` and `predict_row` both rely on it.
                e.sort_by(f64::total_cmp);
                e.dedup();
                e
            };
            codes.extend(raw.iter().map(|&v| bin_index(&e, v) as u16));
            edges.push(e);
        }
        Bins { edges, codes, n }
    }

    /// Number of bins for feature `j`.
    fn n_bins(&self, j: usize) -> usize {
        self.edges[j].len() + 1
    }

    /// The training-set bin codes of feature `j`, indexed by row.
    fn col(&self, j: usize) -> &[u16] {
        &self.codes[j * self.n..(j + 1) * self.n]
    }
}

/// The bin of `v` under sorted `edges`: the count of edges `< v`, or
/// `edges.len()` for a non-finite value.
fn bin_index(edges: &[f64], v: f64) -> usize {
    if !v.is_finite() {
        return edges.len();
    }
    edges.partition_point(|&e| e < v)
}

/// Buffers the split search reuses at every node of every tree of a fit.
struct Scratch {
    /// Per-bin `(G, H)` sums of one feature.
    hist: Vec<(f64, f64)>,
    /// Left-child prefix sums `(G_L, H_L)` through each bin.
    prefix: Vec<(f64, f64)>,
    /// Bit b set when bin b holds a row of the node.
    occupied: Vec<u64>,
    /// The right child's rows while a node's rows are partitioned.
    right: Vec<usize>,
}

impl Scratch {
    fn new(bins: &Bins) -> Scratch {
        let nb = (0..bins.edges.len()).map(|j| bins.n_bins(j)).max().unwrap_or(0);
        Scratch {
            hist: vec![(0.0, 0.0); nb],
            prefix: vec![(0.0, 0.0); nb],
            occupied: vec![0; nb.div_ceil(64)],
            right: Vec::with_capacity(bins.n),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn grow(
    bins: &Bins,
    rows: &mut [usize],
    grad: &[f64],
    hess: &[f64],
    params: &GbdtParams,
    depth: usize,
    s: &mut Scratch,
    nodes: &mut Vec<TreeNode>,
) -> usize {
    let g: f64 = rows.iter().map(|&i| grad[i]).sum();
    let h: f64 = rows.iter().map(|&i| hess[i]).sum();
    let leaf_weight = -g / (h + params.reg_lambda);
    if depth >= params.max_depth || rows.len() < 2 {
        nodes.push(TreeNode::Leaf { weight: leaf_weight });
        return nodes.len() - 1;
    }

    let (lambda, mcw) = (params.reg_lambda, params.min_child_weight);
    let parent_score = g * g / (h + lambda);
    // A split must beat both 1e-12 and every earlier candidate strictly.
    let mut best_gain = 1e-12;
    let mut best: Option<(usize, usize)> = None; // (feature, bin)
    for j in 0..bins.edges.len() {
        let nb = bins.n_bins(j);
        if nb <= 1 {
            continue;
        }
        // Histogram of (G, H) per bin, each bin summed in row order.
        let codes = bins.col(j);
        let hist = &mut s.hist[..nb];
        let occupied = &mut s.occupied[..nb.div_ceil(64)];
        hist.fill((0.0, 0.0));
        occupied.fill(0);
        for &i in rows.iter() {
            let b = codes[i] as usize;
            hist[b].0 += grad[i];
            hist[b].1 += hess[i];
            occupied[b / 64] |= 1 << (b % 64);
        }
        // Left-child sums through each candidate bin, added bin by bin.
        let mut gl = 0.0;
        let mut hl = 0.0;
        for (p, &(gb, hb)) in s.prefix.iter_mut().zip(&hist[..nb - 1]) {
            gl += gb;
            hl += hb;
            *p = (gl, hl);
        }
        // An empty bin b >= 1 repeats the prefix sums, and so the gain, of
        // bin b - 1, which comes first and wins any strict tie: only bin 0
        // and the occupied bins can be chosen. Scanning them in ascending
        // order keeps the first strict maximum.
        occupied[0] |= 1;
        for (w, &word) in occupied.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if b >= nb - 1 {
                    break;
                }
                let (gl, hl) = s.prefix[b];
                let (gr, hr) = (g - gl, h - hl);
                if hl < mcw || hr < mcw {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - params.min_split_gain;
                if gain > best_gain {
                    best_gain = gain;
                    best = Some((j, b));
                }
            }
        }
    }

    match best {
        None => {
            nodes.push(TreeNode::Leaf { weight: leaf_weight });
            nodes.len() - 1
        }
        Some((feature, bin)) => {
            let threshold = bins.edges[feature][bin];
            let codes = bins.col(feature);
            // Stable partition in place: left rows first, each side still
            // in row order.
            s.right.clear();
            let mut n_left = 0;
            for r in 0..rows.len() {
                let i = rows[r];
                if (codes[i] as usize) <= bin {
                    rows[n_left] = i;
                    n_left += 1;
                } else {
                    s.right.push(i);
                }
            }
            if n_left == 0 || n_left == rows.len() {
                nodes.push(TreeNode::Leaf { weight: leaf_weight });
                return nodes.len() - 1;
            }
            rows[n_left..].copy_from_slice(&s.right);
            let (left_rows, right_rows) = rows.split_at_mut(n_left);
            let id = nodes.len();
            nodes.push(TreeNode::Leaf { weight: 0.0 });
            let left = grow(bins, left_rows, grad, hess, params, depth + 1, s, nodes);
            let right = grow(bins, right_rows, grad, hess, params, depth + 1, s, nodes);
            nodes[id] = TreeNode::Split { feature, threshold, left, right };
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainedModel;
    use crate::metrics::accuracy;
    use autofp_data::{Personality, SynthConfig};

    fn clean_personality() -> Personality {
        Personality {
            scale_spread: 0.0,
            skew: 0.0,
            heavy_tail: 0.0,
            sparsity: 0.0,
            class_sep: 2.5,
            label_noise: 0.0,
            informative_frac: 1.0,
            imbalance: 0.0,
        }
    }

    #[test]
    fn learns_nonlinear_xor() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![((i * 7) % 20) as f64 / 10.0 - 1.0, ((i * 13) % 20) as f64 / 10.0 - 1.0])
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| ((r[0] > 0.0) ^ (r[1] > 0.0)) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let model = GbdtParams::default().fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn learns_multiclass() {
        let d = SynthConfig::new("gbdt-mc", 500, 6, 3, 11)
            .with_personality(clean_personality())
            .generate();
        let split = d.stratified_split(0.8, 0);
        let model = GbdtParams::default().fit(&split.train.x, &split.train.y, 3);
        let acc = accuracy(&split.valid.y, &model.predict(&split.valid.x));
        assert!(acc > 0.85, "acc {acc}");
    }

    #[test]
    fn scale_invariance_to_monotone_column_transforms() {
        // Binned splits are invariant to monotone transforms: accuracy on
        // exp-scaled features should match the raw features closely.
        let d = SynthConfig::new("gbdt-scale", 400, 5, 2, 13)
            .with_personality(clean_personality())
            .generate();
        let split = d.stratified_split(0.8, 0);
        let model_raw = GbdtParams::default().fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &model_raw.predict(&split.valid.x));

        let mono = |m: &Matrix| {
            let mut out = m.clone();
            out.map_inplace(|v| (v.clamp(-20.0, 20.0)).exp() * 1e4);
            out
        };
        let model_t = GbdtParams::default().fit(&mono(&split.train.x), &split.train.y, 2);
        let acc_t = accuracy(&split.valid.y, &model_t.predict(&mono(&split.valid.x)));
        assert!((acc_raw - acc_t).abs() < 0.06, "raw {acc_raw} vs transformed {acc_t}");
    }

    #[test]
    fn budget_controls_rounds() {
        let d = SynthConfig::new("gbdt-b", 200, 4, 2, 17)
            .with_personality(clean_personality())
            .generate();
        let params = GbdtParams { n_rounds: 20, ..Default::default() };
        let _full = params.fit_budgeted(&d.x, &d.y, 2, 1.0);
        let small = params.fit_budgeted(&d.x, &d.y, 2, 0.1);
        // Can't downcast through the trait object; check behaviourally by
        // training a Gbdt directly.
        let _ = small;
        let direct: Box<dyn Classifier> = params.fit_budgeted(&d.x, &d.y, 2, 0.05);
        let preds = direct.predict(&d.x);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn constant_features_fall_back_to_prior() {
        let x = Matrix::filled(10, 3, 1.0);
        let y = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
        let model = GbdtParams::default().fit(&x, &y, 2);
        assert_eq!(model.predict_row(&[1.0, 1.0, 1.0]), 0);
    }

    #[test]
    fn probabilities_are_calibratedish() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 0, 1, 1];
        let model = GbdtParams::default().fit(&x, &y, 2);
        let p0 = model.predict_proba_row(&[0.0], 2);
        let p1 = model.predict_proba_row(&[1.0], 2);
        assert!(p0[0] > 0.7, "{p0:?}");
        assert!(p1[1] > 0.7, "{p1:?}");
        assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binning_handles_few_distinct_values() {
        let x = Matrix::column_vector(&[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        let bins = Bins::fit(&x, 48);
        assert_eq!(bins.n_bins(0), 3);
        assert_eq!(bins.bin_of(0, 0.0), 0);
        assert_eq!(bins.bin_of(0, 1.0), 1);
        assert_eq!(bins.bin_of(0, 2.0), 2);
        assert_eq!(bins.bin_of(0, -5.0), 0);
        assert_eq!(bins.bin_of(0, 5.0), 2);
    }

    impl Bins {
        fn bin_of(&self, j: usize, v: f64) -> usize {
            bin_index(&self.edges[j], v)
        }

        /// The row-major codes the replaced split search read, built row
        /// by row.
        fn apply(&self, x: &Matrix) -> Vec<Vec<u16>> {
            let (n, d) = x.shape();
            let mut out = vec![vec![0u16; d]; n];
            for (i, row) in x.rows_iter().enumerate() {
                for j in 0..d {
                    out[i][j] = self.bin_of(j, row[j]) as u16;
                }
            }
            out
        }
    }

    /// The split search [`grow`] replaced: fresh histograms per feature
    /// per node, and a gain for every bin.
    #[allow(clippy::too_many_arguments)]
    fn grow_reference(
        binned: &[Vec<u16>],
        bins: &Bins,
        rows: &[usize],
        grad: &[f64],
        hess: &[f64],
        params: &GbdtParams,
        depth: usize,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let g: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h: f64 = rows.iter().map(|&i| hess[i]).sum();
        let leaf_weight = -g / (h + params.reg_lambda);
        if depth >= params.max_depth || rows.len() < 2 {
            nodes.push(TreeNode::Leaf { weight: leaf_weight });
            return nodes.len() - 1;
        }

        let d = binned.first().map_or(0, Vec::len);
        let parent_score = g * g / (h + params.reg_lambda);
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        for j in 0..d {
            let nb = bins.n_bins(j);
            if nb <= 1 {
                continue;
            }
            let mut hist_g = vec![0.0; nb];
            let mut hist_h = vec![0.0; nb];
            for &i in rows {
                let b = binned[i][j] as usize;
                hist_g[b] += grad[i];
                hist_h[b] += hess[i];
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            for b in 0..nb - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                let gr = g - gl;
                let hr = h - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.reg_lambda) + gr * gr / (hr + params.reg_lambda)
                        - parent_score)
                    - params.min_split_gain;
                if gain > 1e-12 && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, j, b));
                }
            }
        }

        match best {
            None => {
                nodes.push(TreeNode::Leaf { weight: leaf_weight });
                nodes.len() - 1
            }
            Some((_, feature, bin)) => {
                let threshold = bins.edges[feature][bin];
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&i| (binned[i][feature] as usize) <= bin);
                if left_rows.is_empty() || right_rows.is_empty() {
                    nodes.push(TreeNode::Leaf { weight: leaf_weight });
                    return nodes.len() - 1;
                }
                let id = nodes.len();
                nodes.push(TreeNode::Leaf { weight: 0.0 });
                let left =
                    grow_reference(binned, bins, &left_rows, grad, hess, params, depth + 1, nodes);
                let right =
                    grow_reference(binned, bins, &right_rows, grad, hess, params, depth + 1, nodes);
                nodes[id] = TreeNode::Split { feature, threshold, left, right };
                id
            }
        }
    }

    /// The round body [`GbdtParams::train_cancellable`] replaced: one
    /// softmax per row per class tree, and the reference split search.
    fn train_reference(
        params: &GbdtParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Gbdt {
        let bins = Bins::fit(x, params.n_bins);
        let binned = bins.apply(x);
        let n = x.nrows();
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut probs = vec![0.0; k];
        params.boost(x, k, budget, cancel, |f, rows| {
            (0..k)
                .map(|class| {
                    for &i in rows {
                        probs.copy_from_slice(f.row(i));
                        softmax_inplace(&mut probs);
                        let p = probs[class];
                        let target = (y[i] == class) as u8 as f64;
                        grad[i] = p - target;
                        hess[i] = (p * (1.0 - p)).max(1e-6);
                    }
                    let mut nodes = Vec::new();
                    grow_reference(&binned, &bins, rows, &grad, &hess, params, 0, &mut nodes);
                    RegTree { nodes }
                })
                .collect()
        })
    }

    /// Fit with the kernel and the reference; assert their artifact bytes
    /// agree and return the kernel's model.
    fn assert_bit_identical(
        params: &GbdtParams,
        x: &Matrix,
        y: &[usize],
        k: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Gbdt {
        let fast = TrainedModel::Xgb(params.train_cancellable(x, y, k, budget, cancel));
        let reference = TrainedModel::Xgb(train_reference(params, x, y, k, budget, cancel));
        assert!(
            fast.encode() == reference.encode(),
            "n={} d={} k={k} {params:?}",
            x.nrows(),
            x.ncols()
        );
        let TrainedModel::Xgb(model) = fast else { unreachable!() };
        model
    }

    #[test]
    fn split_kernel_is_bit_identical_to_the_reference() {
        let live = CancelToken::new();
        let base = GbdtParams { n_rounds: 6, ..Default::default() };
        for k in [2, 3, 5] {
            let d = SynthConfig::new("gbdt-bits", 90, 6, k, k as u64).generate();
            for budget in [1.0, 0.25] {
                assert_bit_identical(&base, &d.x, &d.y, d.n_classes, budget, &live);
            }
            let sub = GbdtParams { subsample: 0.7, seed: 5, ..base.clone() };
            assert_bit_identical(&sub, &d.x, &d.y, d.n_classes, 1.0, &live);
            for n_bins in [2, 48, 255] {
                let p = GbdtParams { n_bins, ..base.clone() };
                assert_bit_identical(&p, &d.x, &d.y, d.n_classes, 1.0, &live);
            }
        }
        // A pre-cancelled token stops both after one round.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let d = SynthConfig::new("gbdt-bits-cancel", 60, 4, 3, 2).generate();
        let model = assert_bit_identical(&base, &d.x, &d.y, 3, 1.0, &cancelled);
        assert_eq!(model.n_rounds(), 1);
    }

    #[test]
    fn split_kernel_is_bit_identical_on_edge_shapes() {
        let live = CancelToken::new();
        let base = GbdtParams { n_rounds: 6, ..Default::default() };
        // d = 0: every tree is one leaf.
        let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
        assert_bit_identical(&base, &Matrix::zeros(12, 0), &y, 3, 1.0, &live);
        // d = 1.
        let d = SynthConfig::new("gbdt-bits-d1", 50, 1, 2, 8).generate();
        assert_bit_identical(&base, &d.x, &d.y, 2, 1.0, &live);
        // Non-finite and huge values land in the last bin or the extremes;
        // column 2 is constant (one bin, never split on).
        let mut d = SynthConfig::new("gbdt-bits-wild", 70, 5, 3, 9).generate();
        let wild = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
        for (i, v) in wild.into_iter().enumerate() {
            d.x.set(3 * i + 1, if i == 2 { 0 } else { i }, v);
        }
        for i in 0..d.x.nrows() {
            d.x.set(i, 2, 4.0);
        }
        let model = assert_bit_identical(&base, &d.x, &d.y, 3, 1.0, &live);
        assert!(model.trees.iter().flatten().flat_map(|t| &t.nodes).any(
            |node| matches!(node, TreeNode::Split { .. })
        ));
        // With no child-weight floor and a negative gain floor, an empty
        // bin 0 is a live candidate. Column 0 has no value below its first
        // edge among the subsampled rows of some rounds.
        let loose = GbdtParams {
            min_child_weight: 0.0,
            min_split_gain: -0.5,
            subsample: 0.7,
            seed: 3,
            ..base.clone()
        };
        assert_bit_identical(&loose, &d.x, &d.y, 3, 1.0, &live);
        let loose_full = GbdtParams { subsample: 1.0, ..loose };
        assert_bit_identical(&loose_full, &d.x, &d.y, 3, 1.0, &live);
    }

    #[test]
    fn more_bins_than_u16_codes_still_split_where_they_predict() {
        // With more distinct values than a u16 code can name, the edge
        // count is capped, so training codes agree with the thresholds
        // `predict_row` compares against.
        let n = 70_000;
        let x = Matrix::column_vector(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let y: Vec<usize> = (0..n).map(|i| (i >= 69_900) as usize).collect();
        for n_bins in [65_536, 70_000] {
            let params = GbdtParams { n_rounds: 3, max_depth: 2, n_bins, ..Default::default() };
            let model = params.train_cancellable(&x, &y, 2, 1.0, &CancelToken::new());
            let top: Vec<usize> = (n - 50..n).map(|i| model.predict_row(x.row(i))).collect();
            assert_eq!(top, vec![1; 50], "n_bins {n_bins}");
            assert_eq!(model.predict_row(x.row(0)), 0, "n_bins {n_bins}");
            assert_eq!(model.predict_row(x.row(69_000)), 0, "n_bins {n_bins}");
        }
    }

    fn input_words(params: &GbdtParams, train: &Matrix, valid: &Matrix) -> Vec<u64> {
        let mut words = Vec::new();
        params.input_words(train, valid, &mut words);
        words
    }

    /// The bit patterns of every validation class probability.
    fn valid_prediction_bits(
        params: &GbdtParams,
        train: &Matrix,
        y: &[usize],
        valid: &Matrix,
        budget: f64,
    ) -> Vec<u64> {
        let model = params.train_cancellable(train, y, 3, budget, &CancelToken::new());
        valid
            .rows_iter()
            .flat_map(|row| model.predict_proba_row(row, 3))
            .map(f64::to_bits)
            .collect()
    }

    /// Train and valid matrices with a column of each kind the binning
    /// treats apart: 7 levels with zeros of both signs (midpoint edges),
    /// 120 distinct values (quantile edges), a column with NaN and ±inf
    /// cells, and a constant column. Every validation value is a
    /// training value, so any increasing map keeps its bin code.
    fn binning_fixture() -> (Matrix, Vec<usize>, Matrix) {
        let cell = |i: usize| {
            let level = (i * 5 % 7) as f64 - 3.0;
            let zero_sign = if i.is_multiple_of(2) { 0.0 } else { -0.0 };
            let wild = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            vec![
                if level == 0.0 { zero_sign } else { level * 0.5 },
                ((i * 37) % 120) as f64 * 0.25 - 10.0,
                if i % 11 == 3 { wild[i % 3] } else { (i % 13) as f64 },
                2.5,
            ]
        };
        let train: Vec<Vec<f64>> = (0..240).map(cell).collect();
        let y = (0..240).map(|i| (i * 7 + i / 17) % 3).collect();
        let valid: Vec<Vec<f64>> = (0..60).map(|i| cell(i * 4 + 1)).collect();
        (Matrix::from_rows(&train), y, Matrix::from_rows(&valid))
    }

    #[test]
    fn input_words_are_invariant_under_per_column_monotone_maps() {
        let (train, y, valid) = binning_fixture();
        let finite = |f: fn(f64, usize) -> f64| {
            move |m: &Matrix| {
                let mut out = m.clone();
                for i in 0..m.nrows() {
                    for j in 0..m.ncols() {
                        let v = m.get(i, j);
                        out.set(i, j, if v.is_finite() { f(v, j) } else { v });
                    }
                }
                out
            }
        };
        let maps = [
            ("positive affine", finite(|v, j| v * (j as f64 + 0.5) * 4.0 - 1.5)),
            ("exp-like", finite(|v, j| (v * 0.2).exp() * 10f64.powi(j as i32 * 3))),
            ("signed-zero swap", finite(|v, _| if v == 0.0 { -v } else { v })),
        ];
        let params = GbdtParams { n_rounds: 8, ..Default::default() };
        let words = input_words(&params, &train, &valid);
        for (name, map) in maps {
            let (mapped_train, mapped_valid) = (map(&train), map(&valid));
            assert_eq!(input_words(&params, &mapped_train, &mapped_valid), words, "{name}");
            for budget in [1.0, 0.25] {
                assert_eq!(
                    valid_prediction_bits(&params, &mapped_train, &y, &mapped_valid, budget),
                    valid_prediction_bits(&params, &train, &y, &valid, budget),
                    "{name} at budget {budget}"
                );
            }
        }
        // Both edge branches, the non-finite code and the constant column
        // are in the words: edge counts 6 (7 levels), 47 (capped), 12 and 0.
        let column = 1 + train.nrows() + valid.nrows();
        let edge_counts: Vec<u64> = (0..4).map(|j| words[j * column]).collect();
        assert_eq!(edge_counts, vec![6, 47, 12, 0]);
        assert!(words[2 * column + 1..3 * column].contains(&12), "non-finite code");
    }

    #[test]
    fn input_words_change_under_a_row_wise_map() {
        let (train, _, valid) = binning_fixture();
        // Normalizer-style: each row over its L2 norm (finite cells only).
        let normalize = |m: &Matrix| {
            let mut out = m.clone();
            for i in 0..m.nrows() {
                let norm =
                    m.row(i).iter().filter(|v| v.is_finite()).map(|v| v * v).sum::<f64>().sqrt();
                out.row_mut(i).iter_mut().filter(|v| v.is_finite()).for_each(|v| *v /= norm);
            }
            out
        };
        let params = GbdtParams::default();
        let words = input_words(&params, &train, &valid);
        assert_ne!(input_words(&params, &normalize(&train), &normalize(&valid)), words);
        // So does one validation value moved to another bin, with every
        // training value unchanged.
        let mut moved = valid.clone();
        moved.set(0, 0, moved.get(0, 0) + 1.0);
        assert_ne!(input_words(&params, &train, &moved), words);
    }

    #[test]
    fn subsample_training_is_deterministic() {
        let d = SynthConfig::new("gbdt-ss", 300, 5, 2, 23)
            .with_personality(clean_personality())
            .generate();
        let params = GbdtParams { subsample: 0.5, seed: 4, n_rounds: 5, ..Default::default() };
        let a = params.fit(&d.x, &d.y, 2).predict(&d.x);
        let b = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(a, b);
    }
}
