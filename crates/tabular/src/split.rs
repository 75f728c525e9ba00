//! Stratified train/test splitting.

use hmd_util::rng::prelude::*;

use crate::{Class, Dataset, TabularError};

/// Splits `data` into `(train, test)` with `test_fraction` of each class
/// going to the test side, after a seeded shuffle.
///
/// The paper uses an 80:20 train/test split (with the training side split
/// 80:20 again into train/validation) — call this twice to reproduce that.
///
/// # Errors
///
/// * [`TabularError::EmptyDataset`] for empty input;
/// * [`TabularError::InvalidFraction`] unless `0 < test_fraction < 1`;
/// * [`TabularError::DegenerateSplit`] if some class would end up with an
///   empty train or test side.
///
/// # Example
///
/// ```
/// use hmd_tabular::{Class, Dataset};
/// use hmd_tabular::split::stratified_split;
/// use hmd_util::rng::prelude::*;
///
/// # fn main() -> Result<(), hmd_tabular::TabularError> {
/// let mut d = Dataset::new(vec!["f".into()])?;
/// for i in 0..50 {
///     d.push(&[i as f64], Class::Benign)?;
///     d.push(&[-(i as f64)], Class::Malware)?;
/// }
/// let mut rng = StdRng::seed_from_u64(1);
/// let (train, test) = stratified_split(&d, 0.2, &mut rng)?;
/// assert_eq!(train.len(), 80);
/// assert_eq!(test.len(), 20);
/// # Ok(())
/// # }
/// ```
pub fn stratified_split<R: Rng + ?Sized>(
    data: &Dataset,
    test_fraction: f64,
    rng: &mut R,
) -> Result<(Dataset, Dataset), TabularError> {
    if data.is_empty() {
        return Err(TabularError::EmptyDataset);
    }
    if !(test_fraction > 0.0 && test_fraction < 1.0) {
        return Err(TabularError::InvalidFraction(test_fraction));
    }
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for class in Class::ALL {
        let mut members: Vec<usize> = (0..data.len())
            .filter(|&i| data.labels()[i] == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        members.shuffle(rng);
        let n_test = ((members.len() as f64) * test_fraction).round() as usize;
        if n_test == 0 || n_test == members.len() {
            return Err(TabularError::DegenerateSplit);
        }
        test_idx.extend_from_slice(&members[..n_test]);
        train_idx.extend_from_slice(&members[n_test..]);
    }
    train_idx.shuffle(rng);
    test_idx.shuffle(rng);
    Ok((data.subset(&train_idx)?, data.subset(&test_idx)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n_per_class: usize) -> Dataset {
        let mut d = Dataset::new(vec!["f".into()]).unwrap();
        for i in 0..n_per_class {
            d.push(&[i as f64], Class::Benign).unwrap();
            d.push(&[100.0 + i as f64], Class::Malware).unwrap();
        }
        d
    }

    #[test]
    fn split_preserves_class_ratio() {
        let d = data(50);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = stratified_split(&d, 0.2, &mut rng).unwrap();
        assert_eq!(test.class_counts()[&Class::Benign], 10);
        assert_eq!(test.class_counts()[&Class::Malware], 10);
        assert_eq!(train.len(), 80);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let d = data(30);
        let mut rng = StdRng::seed_from_u64(9);
        let (train, test) = stratified_split(&d, 0.25, &mut rng).unwrap();
        let mut all: Vec<f64> = train.column(0).unwrap();
        all.extend(test.column(0).unwrap());
        all.sort_by(f64::total_cmp);
        let mut expected = d.column(0).unwrap();
        expected.sort_by(f64::total_cmp);
        assert_eq!(all, expected);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let d = data(10);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            stratified_split(&d, 0.0, &mut rng),
            Err(TabularError::InvalidFraction(_))
        ));
        assert!(matches!(
            stratified_split(&d, 1.0, &mut rng),
            Err(TabularError::InvalidFraction(_))
        ));
    }

    #[test]
    fn split_rejects_degenerate() {
        let mut d = Dataset::new(vec!["f".into()]).unwrap();
        d.push(&[1.0], Class::Benign).unwrap();
        d.push(&[2.0], Class::Malware).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            stratified_split(&d, 0.2, &mut rng).unwrap_err(),
            TabularError::DegenerateSplit
        );
    }
}
