//! The MLP detector (on the `hmd-nn` substrate) — the paper's strongest
//! classical model.

use hmd_nn::{Dense, InferScratch, Loss, Optimizer, Relu, Sequential, Tensor};
use hmd_tabular::Dataset;
use hmd_util::rng::prelude::*;

use crate::model::{validate_training_set, Classifier, PredictScratch};
use crate::MlError;

/// Hyper-parameters for [`Mlp`].
#[derive(Clone, Debug, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self { hidden: vec![32, 16], learning_rate: 5e-3, epochs: 60, batch_size: 32, seed: 11 }
    }
}

/// A multi-layer perceptron with ReLU hidden layers and a logit output,
/// trained with Adam on binary cross-entropy.
///
/// # Example
///
/// ```
/// use hmd_ml::{Classifier, Mlp};
/// use hmd_tabular::{Class, Dataset};
///
/// # fn main() -> Result<(), hmd_ml::MlError> {
/// let mut d = Dataset::new(vec!["x".into()])?;
/// for i in 0..40 {
///     let label = if i < 20 { Class::Benign } else { Class::Malware };
///     d.push(&[i as f64 / 40.0], label)?;
/// }
/// let targets = d.binary_targets(Class::is_attack);
/// let mut mlp = Mlp::new();
/// mlp.fit(&d, &targets)?;
/// assert!(mlp.predict_proba_row(&[0.95])? > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Mlp {
    config: MlpConfig,
    net: Option<Sequential>,
    n_features: usize,
}

impl Default for Mlp {
    fn default() -> Self {
        Self::new()
    }
}

impl Mlp {
    /// An MLP with default hyper-parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(MlpConfig::default())
    }

    /// An MLP with explicit hyper-parameters.
    #[must_use]
    pub fn with_config(config: MlpConfig) -> Self {
        Self { config, net: None, n_features: 0 }
    }

    /// Flattened parameters of the fitted network (for integrity hashing).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before `fit`.
    pub fn params_bytes(&self) -> Result<Vec<u8>, MlError> {
        self.net.as_ref().map(Sequential::params_bytes).ok_or(MlError::NotFitted)
    }
}

impl Classifier for Mlp {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
        validate_training_set(data, targets)?;
        if self.config.hidden.is_empty() || self.config.epochs == 0 || self.config.batch_size == 0
        {
            return Err(MlError::InvalidHyperparameter(
                "hidden layers, epochs and batch size must be positive",
            ));
        }
        self.n_features = data.n_features();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut net = Sequential::new();
        let mut width = self.n_features;
        for &h in &self.config.hidden {
            net.push(Box::new(Dense::he(width, h, &mut rng)));
            net.push(Box::new(Relu::new()));
            width = h;
        }
        net.push(Box::new(Dense::xavier(width, 1, &mut rng)));

        let x = Tensor::from_fn(data.len(), self.n_features, |r, c| {
            data.row(r).expect("in range")[c]
        });
        let y = Tensor::from_fn(data.len(), 1, |r, _| targets[r]);
        let mut opt = Optimizer::adam(self.config.learning_rate);
        for _ in 0..self.config.epochs {
            net.train_epoch(
                &x,
                &y,
                Loss::BinaryCrossEntropy,
                &mut opt,
                self.config.batch_size,
                &mut rng,
            );
        }
        self.net = Some(net);
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Result<f64, MlError> {
        let net = self.net.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                actual: row.len(),
            });
        }
        let logits = net.infer(&Tensor::row_vector(row));
        Ok(hmd_nn::sigmoid(logits.get(0, 0)))
    }

    fn make_scratch(&self, max_rows: usize) -> PredictScratch {
        let nn = self.net.as_ref().map_or_else(InferScratch::default, |net| {
            InferScratch::for_net(net, self.n_features, max_rows.max(1))
        });
        PredictScratch { nn }
    }

    fn predict_proba_row_with(
        &self,
        row: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, MlError> {
        let net = self.net.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                actual: row.len(),
            });
        }
        let logits = net.infer_into(row, 1, self.n_features, &mut scratch.nn);
        Ok(hmd_nn::sigmoid(logits[0]))
    }

    fn predict_proba_into(
        &self,
        rows: &[f64],
        width: usize,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        crate::model::validate_batch_shape(rows, width)?;
        let net = self.net.as_ref().ok_or(MlError::NotFitted)?;
        if width != self.n_features {
            return Err(MlError::DimensionMismatch { expected: self.n_features, actual: width });
        }
        let logits = net.infer_into(rows, rows.len() / width, width, &mut scratch.nn);
        out.clear();
        out.extend(logits.iter().map(|&l| hmd_nn::sigmoid(l)));
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        self.net.as_ref().map_or(0, Sequential::size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
    use hmd_tabular::Class;

    fn moons(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        for _ in 0..n {
            let t = rng.random::<f64>() * std::f64::consts::PI;
            let benign = [t.cos() + rng.random_range(-0.15..0.15),
                t.sin() + rng.random_range(-0.15..0.15)];
            let t2 = rng.random::<f64>() * std::f64::consts::PI;
            let attack = [1.0 - t2.cos() + rng.random_range(-0.15..0.15),
                0.5 - t2.sin() + rng.random_range(-0.15..0.15)];
            d.push(&benign, Class::Benign).unwrap();
            d.push(&attack, Class::Malware).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    #[test]
    fn learns_nonlinear_moons() {
        let (d, t) = moons(200, 1);
        let mut mlp = Mlp::new();
        mlp.fit(&d, &t).unwrap();
        let m = evaluate(&mlp, &d, &t).unwrap();
        assert!(m.accuracy > 0.93, "accuracy {}", m.accuracy);
    }

    #[test]
    fn prediction_is_deterministic_and_immutable() {
        let (d, t) = moons(80, 2);
        let mut mlp = Mlp::new();
        mlp.fit(&d, &t).unwrap();
        let p1 = mlp.predict_proba_row(&[0.5, 0.5]).unwrap();
        let p2 = mlp.predict_proba_row(&[0.5, 0.5]).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn same_seed_reproduces_model() {
        let (d, t) = moons(60, 3);
        let fit = |seed| {
            let mut m = Mlp::with_config(MlpConfig { seed, epochs: 10, ..MlpConfig::default() });
            m.fit(&d, &t).unwrap();
            m.predict_proba(&d).unwrap()
        };
        assert_eq!(fit(5), fit(5));
        assert_ne!(fit(5), fit(6));
    }

    #[test]
    fn errors_on_misuse() {
        let mlp = Mlp::new();
        assert_eq!(mlp.predict_proba_row(&[0.0, 0.0]).unwrap_err(), MlError::NotFitted);
        let (d, t) = moons(40, 4);
        let mut mlp = Mlp::new();
        mlp.fit(&d, &t).unwrap();
        assert!(matches!(
            mlp.predict_proba_row(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn scratch_paths_match_allocating_paths_bitwise() {
        let (d, t) = moons(80, 6);
        let mut mlp = Mlp::with_config(MlpConfig { epochs: 5, ..MlpConfig::default() });
        mlp.fit(&d, &t).unwrap();
        let mut scratch = mlp.make_scratch(d.len());
        let flat: Vec<f64> = (0..d.len()).flat_map(|i| d.row(i).unwrap().to_vec()).collect();
        let mut got = Vec::with_capacity(d.len());
        mlp.predict_proba_into(&flat, 2, &mut scratch, &mut got).unwrap();
        assert_eq!(got.len(), d.len());
        for (i, row) in flat.chunks(2).enumerate() {
            let want = mlp.predict_proba_row(row).unwrap().to_bits();
            assert_eq!(got[i].to_bits(), want, "batched row {i}");
            let p = mlp.predict_proba_row_with(row, &mut scratch).unwrap();
            assert_eq!(p.to_bits(), want, "row {i}");
        }
    }

    #[test]
    fn size_reflects_architecture() {
        let (d, t) = moons(40, 5);
        let mut mlp = Mlp::with_config(MlpConfig {
            hidden: vec![8],
            epochs: 2,
            ..MlpConfig::default()
        });
        mlp.fit(&d, &t).unwrap();
        // (2*8 + 8) + (8*1 + 1) = 33 params
        assert_eq!(mlp.size_bytes(), 33 * 8);
    }
}
