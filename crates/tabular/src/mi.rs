//! Mutual-information estimation and MI-based feature selection.
//!
//! The paper (§2.1) ranks the 30+ collected hardware events by the mutual
//! information `I(X; Y) = H(X) + H(Y) − H(X, Y)` between each feature `X`
//! and the class label `Y`, then keeps the top four (LLC-load-misses,
//! LLC-loads, cache-misses, cpu/cache-misses). [`mutual_information`]
//! estimates each term from an equal-width histogram of the feature.

use hmd_util::par;

use crate::stats::entropy_from_counts;
use crate::{Dataset, TabularError};

/// Histogram-based MI (nats) between a continuous feature and discrete
/// labels.
///
/// The feature is discretized into `bins` equal-width cells over its
/// observed range; constant features yield `0.0`.
///
/// # Errors
///
/// Returns [`TabularError::InvalidArgument`] for `bins == 0` or mismatched
/// lengths, and [`TabularError::EmptyDataset`] for empty input.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), hmd_tabular::TabularError> {
/// // Feature perfectly determines the label → MI = H(Y) = ln 2.
/// let x = [0.0, 0.1, 0.9, 1.0];
/// let y = [0, 0, 1, 1];
/// let mi = hmd_tabular::mutual_information(&x, &y, 2)?;
/// assert!((mi - (2.0f64).ln()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn mutual_information(x: &[f64], labels: &[usize], bins: usize) -> Result<f64, TabularError> {
    if bins == 0 {
        return Err(TabularError::InvalidArgument("bins must be positive"));
    }
    if x.len() != labels.len() {
        return Err(TabularError::InvalidArgument("feature and label lengths differ"));
    }
    if x.is_empty() {
        return Err(TabularError::EmptyDataset);
    }
    let (lo, hi) = crate::stats::min_max(x).ok_or(TabularError::EmptyDataset)?;
    if (hi - lo).abs() <= f64::EPSILON {
        return Ok(0.0);
    }
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    let width = (hi - lo) / bins as f64;
    let mut joint = vec![0usize; bins * n_classes];
    let mut x_counts = vec![0usize; bins];
    let mut y_counts = vec![0usize; n_classes];
    for (&v, &c) in x.iter().zip(labels) {
        let mut b = ((v - lo) / width) as usize;
        if b >= bins {
            b = bins - 1;
        }
        joint[b * n_classes + c] += 1;
        x_counts[b] += 1;
        y_counts[c] += 1;
    }
    let hx = entropy_from_counts(&x_counts);
    let hy = entropy_from_counts(&y_counts);
    let hxy = entropy_from_counts(&joint);
    Ok((hx + hy - hxy).max(0.0))
}

/// Ranks every feature of `data` by histogram MI with the class label,
/// highest first. Returns `(feature_index, mi)` pairs.
///
/// Per-feature estimates are independent, so they run in parallel on
/// [`hmd_util::par`] (the paper ranks 30+ hardware events over the full
/// corpus here); results are collected in feature order before the
/// final sort, so ranking is identical at any thread count.
///
/// # Errors
///
/// Propagates estimator errors ([`TabularError::EmptyDataset`], bad bins).
pub fn rank_features_by_mi(
    data: &Dataset,
    bins: usize,
) -> Result<Vec<(usize, f64)>, TabularError> {
    if data.is_empty() {
        return Err(TabularError::EmptyDataset);
    }
    let labels: Vec<usize> = data.labels().iter().map(|l| l.id()).collect();
    let features: Vec<usize> = (0..data.n_features()).collect();
    let mut ranked: Vec<(usize, f64)> = par::par_map(&features, |&f| {
        let col = data.column(f)?;
        Ok((f, mutual_information(&col, &labels, bins)?))
    })
    .into_iter()
    .collect::<Result<_, TabularError>>()?;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(ranked)
}

/// Keeps the `k` features with the highest MI, returning the projected
/// dataset and the selected feature indices (in rank order).
///
/// This reproduces the paper's top-4 HPC selection.
///
/// # Errors
///
/// Propagates ranking errors; `k` is clamped to the number of features.
///
/// # Example
///
/// ```
/// use hmd_tabular::{Class, Dataset, select_top_features};
///
/// # fn main() -> Result<(), hmd_tabular::TabularError> {
/// let mut d = Dataset::new(vec!["noise".into(), "signal".into()])?;
/// for i in 0..60 {
///     let label = if i % 2 == 0 { Class::Benign } else { Class::Malware };
///     let signal = if label == Class::Benign { 0.0 } else { 10.0 };
///     d.push(&[(i % 7) as f64, signal + (i % 3) as f64 * 0.1], label)?;
/// }
/// let (selected, idx) = select_top_features(&d, 1, 8)?;
/// assert_eq!(idx, vec![1]);
/// assert_eq!(selected.feature_names(), &["signal".to_string()]);
/// # Ok(())
/// # }
/// ```
pub fn select_top_features(
    data: &Dataset,
    k: usize,
    bins: usize,
) -> Result<(Dataset, Vec<usize>), TabularError> {
    let ranked = rank_features_by_mi(data, bins)?;
    let k = k.min(ranked.len()).max(1);
    let indices: Vec<usize> = ranked.iter().take(k).map(|&(f, _)| f).collect();
    let projected = data.select_features(&indices)?;
    Ok((projected, indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Class;
    use hmd_util::rng::prelude::*;

    #[test]
    fn mi_independent_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<f64> = (0..4000).map(|_| rng.random::<f64>()).collect();
        let y: Vec<usize> = (0..4000).map(|_| rng.random_range(0..2)).collect();
        let mi = mutual_information(&x, &y, 16).unwrap();
        assert!(mi < 0.02, "independent MI was {mi}");
    }

    #[test]
    fn mi_deterministic_equals_label_entropy() {
        let x: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let y: Vec<usize> = (0..1000).map(|i| i % 2).collect();
        let mi = mutual_information(&x, &y, 4).unwrap();
        assert!((mi - (2.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mi_constant_feature_is_zero() {
        let x = vec![3.0; 50];
        let y: Vec<usize> = (0..50).map(|i| i % 2).collect();
        assert_eq!(mutual_information(&x, &y, 8).unwrap(), 0.0);
    }

    #[test]
    fn mi_rejects_bad_args() {
        assert!(mutual_information(&[1.0], &[0], 0).is_err());
        assert!(mutual_information(&[1.0], &[0, 1], 4).is_err());
        assert!(mutual_information(&[], &[], 4).is_err());
    }

    #[test]
    fn ranking_prefers_informative_feature() {
        let mut d = Dataset::new(vec!["noise".into(), "signal".into()]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..400 {
            let label = if i % 2 == 0 { Class::Benign } else { Class::Malware };
            let signal = if label == Class::Benign { 0.0 } else { 5.0 };
            d.push(&[rng.random::<f64>(), signal + rng.random::<f64>()], label).unwrap();
        }
        let ranked = rank_features_by_mi(&d, 10).unwrap();
        assert_eq!(ranked[0].0, 1);
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn select_top_features_clamps_k() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        for i in 0..20 {
            let label = if i % 2 == 0 { Class::Benign } else { Class::Malware };
            d.push(&[i as f64, -(i as f64)], label).unwrap();
        }
        let (sel, idx) = select_top_features(&d, 10, 4).unwrap();
        assert_eq!(sel.n_features(), 2);
        assert_eq!(idx.len(), 2);
    }
}
