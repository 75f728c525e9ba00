//! The paper's neural network: 2 convolutional + 3 fully-connected
//! layers.
//!
//! The paper includes this NN alongside the five classical models and
//! finds it *pathological* on 4-wide tabular HPC data — flagging
//! everything as malware under attack and everything as benign after
//! adversarial training — feeding the "deep learning is not all you need
//! for tabular data" discussion it cites. The architecture is faithfully
//! reproduced so those failure modes can be studied.

use hmd_nn::{Conv1d, Dense, Loss, Optimizer, Relu, Sequential, Tensor};
use hmd_tabular::Dataset;
use hmd_util::rng::prelude::*;

use crate::model::{validate_training_set, Classifier, PredictScratch};
use crate::MlError;

/// Hyper-parameters for [`ConvNet`].
#[derive(Clone, Debug, PartialEq)]
pub struct ConvNetConfig {
    /// Channels of the first conv layer.
    pub conv1_channels: usize,
    /// Channels of the second conv layer.
    pub conv2_channels: usize,
    /// Convolution kernel width.
    pub kernel: usize,
    /// Widths of the first two FC layers (the third FC is the logit head).
    pub fc: [usize; 2],
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for ConvNetConfig {
    fn default() -> Self {
        Self {
            conv1_channels: 8,
            conv2_channels: 16,
            kernel: 2,
            fc: [32, 16],
            learning_rate: 3e-3,
            epochs: 60,
            batch_size: 32,
            seed: 23,
        }
    }
}

/// The 2-conv + 3-FC network treating the HPC vector as a length-d,
/// single-channel sequence.
///
/// # Example
///
/// ```
/// use hmd_ml::{Classifier, ConvNet};
/// use hmd_tabular::{Class, Dataset};
///
/// # fn main() -> Result<(), hmd_ml::MlError> {
/// let names: Vec<String> = (0..4).map(|i| format!("e{i}")).collect();
/// let mut d = Dataset::new(names)?;
/// for i in 0..40 {
///     let v = i as f64 / 40.0;
///     let label = if i < 20 { Class::Benign } else { Class::Malware };
///     d.push(&[v, v, v, v], label)?;
/// }
/// let targets = d.binary_targets(Class::is_attack);
/// let mut nn = ConvNet::new();
/// nn.fit(&d, &targets)?;
/// let p = nn.predict_proba_row(&[0.9, 0.9, 0.9, 0.9])?;
/// assert!((0.0..=1.0).contains(&p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConvNet {
    config: ConvNetConfig,
    net: Option<Sequential>,
    n_features: usize,
}

impl Default for ConvNet {
    fn default() -> Self {
        Self::new()
    }
}

impl ConvNet {
    /// A network with the paper's architecture and default training
    /// settings.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(ConvNetConfig::default())
    }

    /// A network with explicit hyper-parameters.
    #[must_use]
    pub fn with_config(config: ConvNetConfig) -> Self {
        Self { config, net: None, n_features: 0 }
    }
}

impl Classifier for ConvNet {
    fn name(&self) -> &'static str {
        "NN"
    }

    fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
        validate_training_set(data, targets)?;
        let d = data.n_features();
        // two valid convolutions shrink the sequence by 2*(kernel-1)
        if d < 2 * (self.config.kernel - 1) + 1 || self.config.kernel < 1 {
            return Err(MlError::InvalidHyperparameter(
                "input too narrow for two convolutions",
            ));
        }
        self.n_features = d;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let len_after1 = d - self.config.kernel + 1;
        let len_after2 = len_after1 - self.config.kernel + 1;
        let flat = self.config.conv2_channels * len_after2;

        let mut net = Sequential::new();
        net.push(Box::new(Conv1d::new(1, self.config.conv1_channels, self.config.kernel, &mut rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Conv1d::new(
            self.config.conv1_channels,
            self.config.conv2_channels,
            self.config.kernel,
            &mut rng,
        )));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Dense::he(flat, self.config.fc[0], &mut rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Dense::he(self.config.fc[0], self.config.fc[1], &mut rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Dense::xavier(self.config.fc[1], 1, &mut rng)));

        let x = Tensor::from_fn(data.len(), d, |r, c| data.row(r).expect("in range")[c]);
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
        let nn = self.net.as_ref().map_or_else(hmd_nn::InferScratch::default, |net| {
            hmd_nn::InferScratch::for_net(net, self.n_features, max_rows.max(1))
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

    fn four_wide(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..4).map(|i| format!("e{i}")).collect();
        let mut d = Dataset::new(names).unwrap();
        for _ in 0..n {
            let benign: Vec<f64> = (0..4).map(|_| rng.random_range(-1.0..0.4)).collect();
            let attack: Vec<f64> = (0..4).map(|_| rng.random_range(0.2..1.6)).collect();
            d.push(&benign, Class::Benign).unwrap();
            d.push(&attack, Class::Malware).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    #[test]
    fn architecture_is_two_conv_three_fc() {
        let (d, t) = four_wide(40, 1);
        let mut nn = ConvNet::with_config(ConvNetConfig {
            epochs: 1,
            ..ConvNetConfig::default()
        });
        nn.fit(&d, &t).unwrap();
        // conv(1→8,k2) + relu + conv(8→16,k2) + relu + 3×dense + 2×relu = 9 layers
        assert_eq!(nn.net.as_ref().unwrap().len(), 9);
    }

    #[test]
    fn learns_separable_four_wide_data() {
        let (d, t) = four_wide(150, 2);
        let mut nn = ConvNet::new();
        nn.fit(&d, &t).unwrap();
        let m = evaluate(&nn, &d, &t).unwrap();
        assert!(m.accuracy > 0.9, "accuracy {}", m.accuracy);
    }

    #[test]
    fn rejects_too_narrow_input() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        d.push(&[0.0, 0.0], Class::Benign).unwrap();
        d.push(&[1.0, 1.0], Class::Malware).unwrap();
        let t = d.binary_targets(Class::is_attack);
        let mut nn = ConvNet::with_config(ConvNetConfig {
            kernel: 3,
            ..ConvNetConfig::default()
        });
        assert!(matches!(nn.fit(&d, &t), Err(MlError::InvalidHyperparameter(_))));
    }

    #[test]
    fn errors_before_fit() {
        let nn = ConvNet::new();
        assert_eq!(
            nn.predict_proba_row(&[0.0, 0.0, 0.0, 0.0]).unwrap_err(),
            MlError::NotFitted
        );
    }

    #[test]
    fn model_is_heavier_than_logistic_regression() {
        let (d, t) = four_wide(40, 3);
        let mut nn = ConvNet::with_config(ConvNetConfig {
            epochs: 1,
            ..ConvNetConfig::default()
        });
        nn.fit(&d, &t).unwrap();
        // LR on 4 features is 5 params = 40 bytes; the NN is thousands
        assert!(nn.size_bytes() > 1000);
    }
}
