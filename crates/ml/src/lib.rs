//! Classical ML detectors and evaluation metrics for hardware malware
//! detection.
//!
//! The paper's adversarial defense module trains "five different ML
//! models (Random Forest, Decision Tree, Logistic Regression, MLP,
//! LightGBM) and one Neural Network (2 CONV and 3 FC layers)". This
//! crate implements all six from scratch behind one [`Classifier`] trait:
//!
//! | Paper name | Type | Notes |
//! |---|---|---|
//! | RF | [`RandomForest`] | bagged CART trees, √d feature subsampling |
//! | DT | [`DecisionTree`] | CART with gini impurity |
//! | LR | [`LogisticRegression`] | also the LowProFool surrogate + imperceptibility evaluator |
//! | MLP | [`Mlp`] | ReLU hidden layers on the `hmd-nn` substrate |
//! | LightGBM | [`Gbdt`] | histogram bins + leaf-wise growth |
//! | NN | [`ConvNet`] | 2 conv1d + 3 FC layers |
//!
//! [`metrics`] provides the full Table-2 metric suite (ACC, F1, AUC, TPR,
//! FPR, FNR, TNR, precision, recall) and [`model`] the shared evaluation
//! and latency/footprint measurement helpers the constraint controller
//! uses.
//!
//! # Example
//!
//! ```
//! use hmd_ml::{Classifier, RandomForest, model::evaluate};
//! use hmd_tabular::{Class, Dataset};
//!
//! # fn main() -> Result<(), hmd_ml::MlError> {
//! let mut d = Dataset::new(vec!["llc-misses".into()])?;
//! for i in 0..40 {
//!     let label = if i < 20 { Class::Benign } else { Class::Malware };
//!     d.push(&[i as f64], label)?;
//! }
//! let targets = d.binary_targets(Class::is_attack);
//! let mut rf = RandomForest::new();
//! rf.fit(&d, &targets)?;
//! let metrics = evaluate(&rf, &d, &targets)?;
//! assert!(metrics.f1 > 0.9);
//! # Ok(())
//! # }
//! ```

pub mod convnet;
pub mod forest;
pub mod gbdt;
pub mod logreg;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod tree;

mod error;

pub use convnet::{ConvNet, ConvNetConfig};
pub use error::MlError;
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{Gbdt, GbdtConfig};
pub use logreg::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{roc_auc, BinaryMetrics, ConfusionMatrix};
pub use mlp::{Mlp, MlpConfig};
pub use model::{evaluate, measure_latency_ms, validate_batch_shape, Classifier, PredictScratch};
pub use tree::{DecisionTree, DecisionTreeConfig};

/// Builds the paper's five classical models with default settings, in the
/// order Table 2 lists them (RF, DT, LR, MLP, LightGBM).
#[must_use]
pub fn classical_models() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(RandomForest::new()),
        Box::new(DecisionTree::new()),
        Box::new(LogisticRegression::new()),
        Box::new(Mlp::new()),
        Box::new(Gbdt::new()),
    ]
}

/// Builds all six models (the classical five plus the conv NN).
#[must_use]
pub fn all_models() -> Vec<Box<dyn Classifier>> {
    let mut models = classical_models();
    models.push(Box::new(ConvNet::new()));
    models
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_zoo_matches_paper_order() {
        let names: Vec<&str> = all_models().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["RF", "DT", "LR", "MLP", "LightGBM", "NN"]);
    }
}
