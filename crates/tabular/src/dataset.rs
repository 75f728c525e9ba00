//! Labeled, row-major feature matrices.

use std::collections::BTreeMap;
use std::fmt;

use hmd_util::impl_json;
use hmd_util::rng::prelude::*;

use crate::TabularError;

/// Class label of one HPC sample.
///
/// The framework distinguishes three kinds of incoming data (paper §2.3):
/// legitimate benign applications, legitimate malware, and adversarially
/// perturbed malware. Adversarial samples only acquire their label once the
/// adversarial predictor has flagged them.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A legitimate, benign application.
    Benign,
    /// Legitimate (unperturbed) malware.
    Malware,
    /// Malware whose HPC footprint was adversarially perturbed to appear
    /// benign.
    Adversarial,
}

impl_json!(enum Class { Benign, Malware, Adversarial });

impl Class {
    /// All classes, in stable order.
    pub const ALL: [Class; 3] = [Class::Benign, Class::Malware, Class::Adversarial];

    /// Whether this class represents a genuine attack the detector must
    /// flag (malware, adversarial or not).
    ///
    /// ```
    /// use hmd_tabular::Class;
    /// assert!(Class::Adversarial.is_attack());
    /// assert!(!Class::Benign.is_attack());
    /// ```
    #[must_use]
    pub fn is_attack(self) -> bool {
        !matches!(self, Class::Benign)
    }

    /// Stable small integer id (0 = benign, 1 = malware, 2 = adversarial).
    #[must_use]
    pub fn id(self) -> usize {
        match self {
            Class::Benign => 0,
            Class::Malware => 1,
            Class::Adversarial => 2,
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Class::Benign => "benign",
            Class::Malware => "malware",
            Class::Adversarial => "adversarial",
        };
        f.write_str(name)
    }
}

/// An owned, labeled tabular dataset.
///
/// Rows are stored contiguously (row-major) for cache-friendly scans; every
/// row has the same width and a [`Class`] label. Feature names are carried
/// along so MI rankings and reports stay human-readable.
///
/// # Example
///
/// ```
/// use hmd_tabular::{Class, Dataset};
///
/// # fn main() -> Result<(), hmd_tabular::TabularError> {
/// let mut d = Dataset::new(vec!["cache-misses".into()])?;
/// d.push(&[10.0], Class::Benign)?;
/// d.push(&[90.0], Class::Malware)?;
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.row(1)?, &[90.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    data: Vec<f64>,
    labels: Vec<Class>,
    n_features: usize,
}

impl_json!(struct Dataset { feature_names, data, labels, n_features });

impl Dataset {
    /// Creates an empty dataset with the given feature columns.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::NoFeatures`] if `feature_names` is empty.
    pub fn new(feature_names: Vec<String>) -> Result<Self, TabularError> {
        if feature_names.is_empty() {
            return Err(TabularError::NoFeatures);
        }
        let n_features = feature_names.len();
        Ok(Self { feature_names, data: Vec::new(), labels: Vec::new(), n_features })
    }

    /// Creates a dataset from pre-collected rows.
    ///
    /// # Errors
    ///
    /// Returns an error if `feature_names` is empty or any row has the
    /// wrong width.
    pub fn from_rows<'a, I>(feature_names: Vec<String>, rows: I) -> Result<Self, TabularError>
    where
        I: IntoIterator<Item = (&'a [f64], Class)>,
    {
        let mut out = Self::new(feature_names)?;
        for (row, label) in rows {
            out.push(row, label)?;
        }
        Ok(out)
    }

    /// Appends one labeled row.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::DimensionMismatch`] if `features` has the
    /// wrong width.
    pub fn push(&mut self, features: &[f64], label: Class) -> Result<(), TabularError> {
        if features.len() != self.n_features {
            return Err(TabularError::DimensionMismatch {
                expected: self.n_features,
                actual: features.len(),
            });
        }
        self.data.extend_from_slice(features);
        self.labels.push(label);
        Ok(())
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature (column) names.
    #[must_use]
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Borrow one row.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::SampleIndexOutOfRange`] if `index >= len()`.
    pub fn row(&self, index: usize) -> Result<&[f64], TabularError> {
        if index >= self.len() {
            return Err(TabularError::SampleIndexOutOfRange { index, n_samples: self.len() });
        }
        let start = index * self.n_features;
        Ok(&self.data[start..start + self.n_features])
    }

    /// The label of one row.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::SampleIndexOutOfRange`] if `index >= len()`.
    pub fn label(&self, index: usize) -> Result<Class, TabularError> {
        self.labels
            .get(index)
            .copied()
            .ok_or(TabularError::SampleIndexOutOfRange { index, n_samples: self.len() })
    }

    /// All labels in row order.
    #[must_use]
    pub fn labels(&self) -> &[Class] {
        &self.labels
    }

    /// Iterates over `(row, label)` pairs.
    pub fn iter(&self) -> Iter<'_> {
        Iter { dataset: self, index: 0 }
    }

    /// One whole feature column, gathered into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::FeatureIndexOutOfRange`] for a bad column.
    pub fn column(&self, feature: usize) -> Result<Vec<f64>, TabularError> {
        if feature >= self.n_features {
            return Err(TabularError::FeatureIndexOutOfRange {
                index: feature,
                n_features: self.n_features,
            });
        }
        Ok((0..self.len()).map(|i| self.data[i * self.n_features + feature]).collect())
    }

    /// Appends all rows of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::SchemaMismatch`] if the feature names differ.
    pub fn merge(&mut self, other: &Dataset) -> Result<(), TabularError> {
        if self.feature_names != other.feature_names {
            return Err(TabularError::SchemaMismatch);
        }
        self.data.extend_from_slice(&other.data);
        self.labels.extend_from_slice(&other.labels);
        Ok(())
    }

    /// Reserves capacity for at least `additional_rows` more rows so a
    /// bounded buffer (e.g. the detector's quarantine) can absorb them
    /// without reallocating on the hot path.
    pub fn reserve(&mut self, additional_rows: usize) {
        self.data.reserve(additional_rows * self.n_features);
        self.labels.reserve(additional_rows);
    }

    /// Removes the `n` oldest rows (and their labels) in insertion
    /// order — the eviction primitive for bounded ring-style buffers
    /// such as the detector's quarantine. Removing more rows than exist
    /// empties the dataset.
    pub fn pop_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.data.drain(..n * self.n_features);
        self.labels.drain(..n);
    }

    /// A new dataset containing the rows at `indices`, in that order.
    ///
    /// # Errors
    ///
    /// Returns [`TabularError::SampleIndexOutOfRange`] for a bad index.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset, TabularError> {
        let mut out = Dataset::new(self.feature_names.clone())?;
        for &i in indices {
            out.push(self.row(i)?, self.label(i)?)?;
        }
        Ok(out)
    }

    /// A new dataset with only the given feature columns (in the given
    /// order) — the output of MI-based feature selection.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty selection or a bad column index.
    pub fn select_features(&self, features: &[usize]) -> Result<Dataset, TabularError> {
        if features.is_empty() {
            return Err(TabularError::NoFeatures);
        }
        for &f in features {
            if f >= self.n_features {
                return Err(TabularError::FeatureIndexOutOfRange {
                    index: f,
                    n_features: self.n_features,
                });
            }
        }
        let names = features.iter().map(|&f| self.feature_names[f].clone()).collect();
        let mut out = Dataset::new(names)?;
        let mut buf = vec![0.0; features.len()];
        for i in 0..self.len() {
            let row = self.row(i)?;
            for (dst, &f) in buf.iter_mut().zip(features) {
                *dst = row[f];
            }
            out.push(&buf, self.labels[i])?;
        }
        Ok(out)
    }

    /// A new dataset with only rows whose label satisfies `keep`.
    pub fn filter<F: FnMut(Class) -> bool>(&self, mut keep: F) -> Dataset {
        let indices: Vec<usize> =
            (0..self.len()).filter(|&i| keep(self.labels[i])).collect();
        self.subset(&indices).expect("indices are in range by construction")
    }

    /// Returns a shuffled copy.
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        self.subset(&indices).expect("indices are in range by construction")
    }

    /// Per-class sample counts.
    #[must_use]
    pub fn class_counts(&self) -> BTreeMap<Class, usize> {
        let mut counts = BTreeMap::new();
        for &label in &self.labels {
            *counts.entry(label).or_insert(0) += 1;
        }
        counts
    }

    /// Binary targets (`1.0` for rows where `positive` holds, else `0.0`).
    ///
    /// Detectors are binary: "attack vs. benign". After adversarial
    /// training, both [`Class::Malware`] and [`Class::Adversarial`] map to
    /// the positive class via [`Class::is_attack`].
    #[must_use]
    pub fn binary_targets<F: FnMut(Class) -> bool>(&self, mut positive: F) -> Vec<f64> {
        self.labels.iter().map(|&l| if positive(l) { 1.0 } else { 0.0 }).collect()
    }

    /// Borrow the raw row-major feature buffer.
    #[must_use]
    pub fn raw_data(&self) -> &[f64] {
        &self.data
    }
}

/// Iterator over `(row, label)` pairs of a [`Dataset`].
#[derive(Debug)]
pub struct Iter<'a> {
    dataset: &'a Dataset,
    index: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [f64], Class);

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.dataset.len() {
            return None;
        }
        let i = self.index;
        self.index += 1;
        let start = i * self.dataset.n_features;
        Some((
            &self.dataset.data[start..start + self.dataset.n_features],
            self.dataset.labels[i],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.dataset.len() - self.index;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = (&'a [f64], Class);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        d.push(&[1.0, 2.0], Class::Benign).unwrap();
        d.push(&[3.0, 4.0], Class::Malware).unwrap();
        d.push(&[5.0, 6.0], Class::Adversarial).unwrap();
        d
    }

    #[test]
    fn push_and_row_roundtrip() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.row(0).unwrap(), &[1.0, 2.0]);
        assert_eq!(d.row(2).unwrap(), &[5.0, 6.0]);
        assert_eq!(d.label(1).unwrap(), Class::Malware);
    }

    #[test]
    fn rejects_empty_schema() {
        assert_eq!(Dataset::new(vec![]).unwrap_err(), TabularError::NoFeatures);
    }

    #[test]
    fn rejects_wrong_width() {
        let mut d = sample();
        let err = d.push(&[1.0], Class::Benign).unwrap_err();
        assert_eq!(err, TabularError::DimensionMismatch { expected: 2, actual: 1 });
    }

    #[test]
    fn row_index_out_of_range() {
        let d = sample();
        assert!(matches!(d.row(3), Err(TabularError::SampleIndexOutOfRange { .. })));
    }

    #[test]
    fn column_extracts_values() {
        let d = sample();
        assert_eq!(d.column(1).unwrap(), vec![2.0, 4.0, 6.0]);
        assert!(d.column(2).is_err());
    }

    #[test]
    fn merge_appends_rows() {
        let mut d = sample();
        let other = sample();
        d.merge(&other).unwrap();
        assert_eq!(d.len(), 6);
        assert_eq!(d.row(4).unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn merge_rejects_schema_mismatch() {
        let mut d = sample();
        let other = Dataset::new(vec!["x".into(), "y".into()]).unwrap();
        assert_eq!(d.merge(&other).unwrap_err(), TabularError::SchemaMismatch);
    }

    #[test]
    fn pop_front_evicts_oldest_rows() {
        let mut d = sample();
        d.pop_front(2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0).unwrap(), &[5.0, 6.0]);
        assert_eq!(d.label(0).unwrap(), Class::Adversarial);
        d.pop_front(5);
        assert!(d.is_empty());
        d.pop_front(1);
        assert!(d.is_empty());
    }

    #[test]
    fn subset_preserves_order() {
        let d = sample();
        let s = d.subset(&[2, 0]).unwrap();
        assert_eq!(s.row(0).unwrap(), &[5.0, 6.0]);
        assert_eq!(s.label(1).unwrap(), Class::Benign);
    }

    #[test]
    fn select_features_projects_columns() {
        let d = sample();
        let s = d.select_features(&[1]).unwrap();
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.feature_names(), &["b".to_string()]);
        assert_eq!(s.row(0).unwrap(), &[2.0]);
    }

    #[test]
    fn select_features_rejects_bad_index() {
        let d = sample();
        assert!(d.select_features(&[5]).is_err());
        assert!(d.select_features(&[]).is_err());
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let d = sample();
        let attacks = d.filter(Class::is_attack);
        assert_eq!(attacks.len(), 2);
        assert!(attacks.labels().iter().all(|l| l.is_attack()));
    }

    #[test]
    fn class_counts_tally() {
        let d = sample();
        let counts = d.class_counts();
        assert_eq!(counts[&Class::Benign], 1);
        assert_eq!(counts[&Class::Malware], 1);
        assert_eq!(counts[&Class::Adversarial], 1);
    }

    #[test]
    fn shuffle_is_permutation() {
        let d = sample();
        let mut rng = StdRng::seed_from_u64(3);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), d.len());
        let mut a: Vec<f64> = d.raw_data().to_vec();
        let mut b: Vec<f64> = s.raw_data().to_vec();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
    }

    #[test]
    fn binary_targets_follow_predicate() {
        let d = sample();
        assert_eq!(d.binary_targets(Class::is_attack), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn iterator_yields_all_rows() {
        let d = sample();
        let rows: Vec<_> = d.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], (&[3.0, 4.0][..], Class::Malware));
    }
}
