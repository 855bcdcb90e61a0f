//! Byte codec for trained model weights.
//!
//! [`TrainedModel`] is the concrete (non-boxed) counterpart of
//! `Box<dyn Classifier>`: one of the paper's three model families with
//! its learned parameters exposed enough to serialize. Training through
//! [`TrainedModel::train`] is bit-identical to training through
//! [`ModelKind::trainer`] + `fit_cancellable` — both call the same
//! inherent `train_cancellable` methods — which is what lets an exported
//! artifact reproduce in-search predictions exactly (no training-serving
//! skew).
//!
//! The payload is built from the shared [`autofp_linalg::codec`]
//! primitives: a one-byte family tag ([`ModelKind::code`]),
//! little-endian integers, `f64` as IEEE-754 bit patterns, and
//! `u32`-length prefixes. Encoding is canonical and decoding is total;
//! structural invariants (weight-matrix shapes, tree-node link targets)
//! are validated here so a decoded model can never index out of bounds
//! or loop forever in `predict_row`.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, ModelKind};
use crate::gbdt::{Gbdt, GbdtParams, RegTree, TreeNode};
use crate::linear::{LogisticParams, LogisticRegression};
use crate::mlp::{MlpClassifier, MlpParams};
use autofp_linalg::codec::{Dec, DecodeError, Enc};
use autofp_linalg::Matrix;

/// Upper bound on classes accepted by the decoder (prediction allocates
/// one score slot per class).
pub const MAX_CLASSES: usize = 4096;

/// A concrete trained classifier from one of the three paper families.
pub enum TrainedModel {
    /// Multinomial logistic regression.
    Lr(LogisticRegression),
    /// Gradient-boosted tree ensemble (XGBoost stand-in).
    Xgb(Gbdt),
    /// One-hidden-layer MLP.
    Mlp(MlpClassifier),
}

impl TrainedModel {
    /// Train the family's default configuration, exactly as
    /// [`ModelKind::trainer`] would: same hyperparameters, same seed
    /// derivation, same budget/cancellation semantics. The returned
    /// model predicts bit-identically to the boxed trainer's output.
    pub fn train(
        kind: ModelKind,
        seed: u64,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> TrainedModel {
        match kind {
            ModelKind::Lr => TrainedModel::Lr(
                LogisticParams::default().with_seed(seed).train_cancellable(
                    x, y, n_classes, budget, cancel,
                ),
            ),
            ModelKind::Xgb => TrainedModel::Xgb(
                GbdtParams::default().with_seed(seed).train_cancellable(
                    x, y, n_classes, budget, cancel,
                ),
            ),
            ModelKind::Mlp => TrainedModel::Mlp(
                MlpParams::default().with_seed(seed).train_cancellable(
                    x, y, n_classes, budget, cancel,
                ),
            ),
        }
    }

    /// The model family.
    pub fn kind(&self) -> ModelKind {
        match self {
            TrainedModel::Lr(_) => ModelKind::Lr,
            TrainedModel::Xgb(_) => ModelKind::Xgb,
            TrainedModel::Mlp(_) => ModelKind::Mlp,
        }
    }

    /// Number of classes the model predicts over.
    pub fn n_classes(&self) -> usize {
        match self {
            TrainedModel::Lr(m) => m.n_classes,
            TrainedModel::Xgb(m) => m.n_classes,
            TrainedModel::Mlp(m) => m.n_classes,
        }
    }

    /// Encode into the canonical byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::tagged(self.kind().code());
        e.u32(self.n_classes() as u32);
        match self {
            TrainedModel::Lr(m) => enc_matrix(&mut e, &m.weights),
            TrainedModel::Xgb(m) => {
                e.f64(m.learning_rate);
                e.u32(m.trees.len() as u32);
                for round in &m.trees {
                    for tree in round {
                        e.u32(tree.nodes.len() as u32);
                        for node in &tree.nodes {
                            match node {
                                TreeNode::Leaf { weight } => {
                                    e.u8(0);
                                    e.f64(*weight);
                                }
                                TreeNode::Split { feature, threshold, left, right } => {
                                    e.u8(1);
                                    e.u32(*feature as u32);
                                    e.f64(*threshold);
                                    e.u32(*left as u32);
                                    e.u32(*right as u32);
                                }
                            }
                        }
                    }
                }
            }
            TrainedModel::Mlp(m) => {
                enc_matrix(&mut e, &m.w1);
                enc_matrix(&mut e, &m.w2);
            }
        }
        e.into_bytes()
    }

    /// Decode from bytes; total, canonical, rejects trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<TrainedModel, DecodeError> {
        let mut d = Dec::new(bytes);
        let tag = d.u8()?;
        let k = d.u32()? as usize;
        if k == 0 || k > MAX_CLASSES {
            return Err(DecodeError::new(format!("class count {k} out of range")));
        }
        let model = match ModelKind::from_code(tag) {
            Some(ModelKind::Lr) => {
                let weights = dec_matrix(&mut d)?;
                if weights.nrows() != k {
                    return Err(DecodeError::new("lr weight rows != n_classes"));
                }
                if weights.ncols() < 1 {
                    return Err(DecodeError::new("lr weights need a bias column"));
                }
                TrainedModel::Lr(LogisticRegression { weights, n_classes: k })
            }
            Some(ModelKind::Xgb) => {
                let learning_rate = d.f64()?;
                let rounds = d.u32()? as usize;
                // Each round holds k trees of >= 1 node (>= 9 bytes each).
                if rounds > d.remaining() / k.saturating_mul(9).max(1) + 1 {
                    return Err(DecodeError::new("gbdt round count exceeds payload"));
                }
                let mut trees = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let mut round = Vec::with_capacity(k);
                    for _ in 0..k {
                        round.push(dec_tree(&mut d)?);
                    }
                    trees.push(round);
                }
                TrainedModel::Xgb(Gbdt { trees, n_classes: k, learning_rate })
            }
            Some(ModelKind::Mlp) => {
                let w1 = dec_matrix(&mut d)?;
                let w2 = dec_matrix(&mut d)?;
                if w1.ncols() < 1 || w1.nrows() < 1 {
                    return Err(DecodeError::new("mlp hidden layer is empty"));
                }
                if w2.nrows() != k {
                    return Err(DecodeError::new("mlp output rows != n_classes"));
                }
                if w2.ncols() != w1.nrows() + 1 {
                    return Err(DecodeError::new("mlp output width != hidden + 1"));
                }
                TrainedModel::Mlp(MlpClassifier { w1, w2, n_classes: k })
            }
            None => return Err(DecodeError::new(format!("unknown model tag {tag}"))),
        };
        d.finish()?;
        Ok(model)
    }
}

impl Classifier for TrainedModel {
    fn predict_row(&self, row: &[f64]) -> usize {
        match self {
            TrainedModel::Lr(m) => m.predict_row(row),
            TrainedModel::Xgb(m) => m.predict_row(row),
            TrainedModel::Mlp(m) => m.predict_row(row),
        }
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        match self {
            TrainedModel::Lr(m) => m.predict_proba_row(row, n_classes),
            TrainedModel::Xgb(m) => m.predict_proba_row(row, n_classes),
            TrainedModel::Mlp(m) => m.predict_proba_row(row, n_classes),
        }
    }
}

/// `u32` rows, `u32` cols, then the row-major elements.
fn enc_matrix(e: &mut Enc, m: &Matrix) {
    e.u32(m.nrows() as u32);
    e.u32(m.ncols() as u32);
    e.f64s(m.as_slice());
}

fn dec_matrix(d: &mut Dec<'_>) -> Result<Matrix, DecodeError> {
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    let n = rows.checked_mul(cols).ok_or_else(|| DecodeError::new("matrix size overflow"))?;
    Ok(Matrix::from_vec(rows, cols, d.f64s(n)?))
}

fn dec_tree(d: &mut Dec<'_>) -> Result<RegTree, DecodeError> {
    let n = d.u32()? as usize;
    if n == 0 {
        return Err(DecodeError::new("empty tree"));
    }
    // Each node is at least 9 bytes (tag + leaf weight).
    if n > d.remaining() / 9 + 1 {
        return Err(DecodeError::new("tree node count exceeds payload"));
    }
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        match d.u8()? {
            0 => nodes.push(TreeNode::Leaf { weight: d.f64()? }),
            1 => {
                let feature = d.u32()? as usize;
                let threshold = d.f64()?;
                let left = d.u32()? as usize;
                let right = d.u32()? as usize;
                // The builder always places children after their
                // parent; enforcing that here makes `predict_row`
                // provably terminating and in-bounds on any input.
                if left <= i || right <= i || left >= n || right >= n {
                    return Err(DecodeError::new("tree split links are not forward in-bounds"));
                }
                nodes.push(TreeNode::Split { feature, threshold, left, right });
            }
            t => return Err(DecodeError::new(format!("unknown tree-node tag {t}"))),
        }
    }
    Ok(RegTree { nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_data::SynthConfig;

    fn train_all() -> Vec<TrainedModel> {
        let d = SynthConfig::new("artifact-models", 120, 5, 3, 9).generate();
        ModelKind::ALL
            .iter()
            .map(|&k| {
                TrainedModel::train(k, 7, &d.x, &d.y, d.n_classes, 1.0, &CancelToken::new())
            })
            .collect()
    }

    #[test]
    fn round_trip_is_canonical_and_predicts_identically() {
        let d = SynthConfig::new("artifact-models", 120, 5, 3, 9).generate();
        for model in train_all() {
            let bytes = model.encode();
            let back = TrainedModel::decode(&bytes).expect("round trip");
            assert_eq!(back.encode(), bytes, "{}", model.kind());
            assert_eq!(back.kind(), model.kind());
            assert_eq!(back.predict(&d.x), model.predict(&d.x), "{}", model.kind());
        }
    }

    #[test]
    fn matches_boxed_trainer_bit_for_bit() {
        let d = SynthConfig::new("artifact-parity", 150, 6, 2, 4).generate();
        for kind in ModelKind::ALL {
            let boxed =
                kind.trainer(11).fit_cancellable(&d.x, &d.y, d.n_classes, 1.0, &CancelToken::new());
            let concrete =
                TrainedModel::train(kind, 11, &d.x, &d.y, d.n_classes, 1.0, &CancelToken::new());
            assert_eq!(boxed.predict(&d.x), concrete.predict(&d.x), "{kind}");
            for row in d.x.rows_iter().take(5) {
                let a = boxed.predict_proba_row(row, d.n_classes);
                let b = concrete.predict_proba_row(row, d.n_classes);
                assert_eq!(a, b, "{kind}");
            }
        }
    }

    #[test]
    fn golden_bytes_are_locked() {
        let lr = TrainedModel::Lr(LogisticRegression {
            weights: Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            n_classes: 2,
        });
        let mut want = vec![0u8]; // LR tag
        want.extend_from_slice(&2u32.to_le_bytes()); // n_classes
        want.extend_from_slice(&2u32.to_le_bytes()); // rows
        want.extend_from_slice(&2u32.to_le_bytes()); // cols
        for v in [1.0f64, 2.0, 3.0, 4.0] {
            want.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(lr.encode(), want);

        let gbdt = TrainedModel::Xgb(Gbdt {
            trees: vec![vec![
                RegTree {
                    nodes: vec![
                        TreeNode::Split { feature: 0, threshold: 0.5, left: 1, right: 2 },
                        TreeNode::Leaf { weight: -1.0 },
                        TreeNode::Leaf { weight: 1.0 },
                    ],
                },
            ]],
            n_classes: 1,
            learning_rate: 0.3,
        });
        let mut want = vec![1u8]; // XGB tag
        want.extend_from_slice(&1u32.to_le_bytes()); // n_classes
        want.extend_from_slice(&0.3f64.to_bits().to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes()); // rounds
        want.extend_from_slice(&3u32.to_le_bytes()); // nodes
        want.push(1); // split
        want.extend_from_slice(&0u32.to_le_bytes());
        want.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.push(0); // leaf
        want.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        want.push(0); // leaf
        want.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(gbdt.encode(), want);
    }

    #[test]
    fn every_truncation_errors() {
        for model in train_all() {
            let bytes = model.encode();
            for len in 0..bytes.len() {
                assert!(
                    TrainedModel::decode(&bytes[..len]).is_err(),
                    "{} prefix of {len} decoded",
                    model.kind()
                );
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(TrainedModel::decode(&trailing).is_err());
        }
    }

    #[test]
    fn byte_flips_never_panic() {
        for model in train_all() {
            let bytes = model.encode();
            for i in 0..bytes.len() {
                for v in [0u8, 1, 2, 127, 255] {
                    let mut m = bytes.clone();
                    if m[i] == v {
                        continue;
                    }
                    m[i] = v;
                    if let Ok(decoded) = TrainedModel::decode(&m) {
                        // Structurally valid: prediction must not panic.
                        let _ = decoded.predict_row(&[0.0; 5]);
                    }
                }
            }
        }
    }

    #[test]
    fn malicious_tree_links_rejected() {
        // A self-referential split would loop forever in predict_row.
        let mut e = vec![1u8];
        e.extend_from_slice(&1u32.to_le_bytes()); // n_classes
        e.extend_from_slice(&0.3f64.to_bits().to_le_bytes());
        e.extend_from_slice(&1u32.to_le_bytes()); // rounds
        e.extend_from_slice(&1u32.to_le_bytes()); // nodes
        e.push(1); // split
        e.extend_from_slice(&0u32.to_le_bytes());
        e.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        e.extend_from_slice(&0u32.to_le_bytes()); // left = self
        e.extend_from_slice(&0u32.to_le_bytes()); // right = self
        assert!(TrainedModel::decode(&e).is_err());
    }
}
