//! Tabular-data substrate for hardware malware detection.
//!
//! Hardware Performance Counter (HPC) readings form *tabular* data: each
//! sample is a short, fixed-length vector of event counts, and each sample
//! carries a class label ([`Class::Benign`], [`Class::Malware`], or — once
//! the adversarial predictor has flagged it — [`Class::Adversarial`]).
//!
//! This crate provides everything the rest of the pipeline needs to handle
//! such data, mirroring the feature-engineering stage of the paper
//! (Section 2.1):
//!
//! * [`Dataset`] — an owned, row-major feature matrix with labels and
//!   feature names;
//! * [`StandardScaler`] and [`MinMaxClipper`] — the standard-scaling and
//!   clipping steps of the paper's pre-processing;
//! * [`mi`] — a mutual-information estimator and MI-based feature ranking
//!   (the paper selects the top-4 HPC events by MI);
//! * [`split`] — stratified train/test splitting (80:20 in the paper);
//! * [`stats`] — small statistics helpers (mean, variance, entropy,
//!   Pearson correlation) shared across crates.
//!
//! # Example
//!
//! ```
//! use hmd_tabular::{Class, Dataset, StandardScaler};
//! use hmd_tabular::split::stratified_split;
//! use hmd_util::rng::prelude::*;
//!
//! # fn main() -> Result<(), hmd_tabular::TabularError> {
//! let mut data = Dataset::new(vec!["llc-load-misses".into(), "llc-loads".into()])?;
//! for i in 0..100 {
//!     let x = i as f64;
//!     let class = if i % 2 == 0 { Class::Benign } else { Class::Malware };
//!     data.push(&[x, 2.0 * x], class)?;
//! }
//! let mut rng = StdRng::seed_from_u64(7);
//! let (train, test) = stratified_split(&data, 0.2, &mut rng)?;
//! let scaler = StandardScaler::fit(&train)?;
//! let train = scaler.transform(&train)?;
//! assert_eq!(train.len() + test.len(), 100);
//! # Ok(())
//! # }
//! ```

pub mod dataset;
pub mod mi;
pub mod scaler;
pub mod split;
pub mod stats;

mod error;

pub use dataset::{Class, Dataset};
pub use error::TabularError;
pub use mi::{mutual_information, rank_features_by_mi, select_top_features};
pub use scaler::{MinMaxClipper, StandardScaler};
