//! Transferability evaluation: how adversarial samples crafted against
//! the LR surrogate degrade *other* detectors (paper §3, "Hardware
//! Malware Detection under Adversarial Attacks").

use hmd_ml::{BinaryMetrics, Classifier, MlError};
use hmd_util::{impl_json, par};
use hmd_tabular::{Class, Dataset};

/// The before/after metric pair for one model under transfer attack.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferRecord {
    /// Model name.
    pub model: String,
    /// Metrics on the clean test set.
    pub clean: BinaryMetrics,
    /// Metrics on the test set with malware rows replaced by their
    /// adversarial versions.
    pub attacked: BinaryMetrics,
}

impl_json!(struct TransferRecord { model, clean, attacked });

/// Builds the attacked test set: benign rows stay, malware rows are
/// replaced by adversarial counterparts (which keep label
/// [`Class::Malware`] for *evaluation* — they still are malware, the
/// attacker merely disguised their features).
///
/// # Errors
///
/// Returns an error when the datasets' schemas differ or `adversarial`
/// has fewer rows than `test` has malware rows.
pub fn attacked_test_set(
    test: &Dataset,
    adversarial: &Dataset,
) -> Result<Dataset, hmd_tabular::TabularError> {
    if test.feature_names() != adversarial.feature_names() {
        return Err(hmd_tabular::TabularError::SchemaMismatch);
    }
    let mut out = Dataset::new(test.feature_names().to_vec())?;
    let mut adv_iter = 0usize;
    for (row, label) in test {
        if label.is_attack() {
            if adv_iter >= adversarial.len() {
                return Err(hmd_tabular::TabularError::SampleIndexOutOfRange {
                    index: adv_iter,
                    n_samples: adversarial.len(),
                });
            }
            out.push(adversarial.row(adv_iter)?, Class::Malware)?;
            adv_iter += 1;
        } else {
            out.push(row, Class::Benign)?;
        }
    }
    Ok(out)
}

/// Evaluates every model on the clean and attacked test sets.
///
/// Models are scored in parallel (evaluation never mutates them, and
/// records come back in `models` order); any batch-level parallelism
/// inside a model's `predict_proba` runs sequentially on its worker
/// thanks to the nested-region guard in [`hmd_util::par`].
///
/// # Errors
///
/// Propagates prediction errors from the models.
pub fn transferability(
    models: &[Box<dyn Classifier>],
    clean_test: &Dataset,
    attacked_test: &Dataset,
) -> Result<Vec<TransferRecord>, MlError> {
    let clean_targets = clean_test.binary_targets(Class::is_attack);
    let attacked_targets = attacked_test.binary_targets(Class::is_attack);
    par::par_map(models, |m| {
        Ok(TransferRecord {
            model: m.name().to_owned(),
            clean: hmd_ml::evaluate(m.as_ref(), clean_test, &clean_targets)?,
            attacked: hmd_ml::evaluate(m.as_ref(), attacked_test, &attacked_targets)?,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_ml::LogisticRegression;
    use hmd_util::rng::prelude::*;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into()]).unwrap();
        for _ in 0..n {
            d.push(&[rng.random_range(-1.0..0.0)], Class::Benign).unwrap();
            d.push(&[rng.random_range(0.5..1.5)], Class::Malware).unwrap();
        }
        d
    }

    #[test]
    fn attacked_set_replaces_malware_rows() {
        let test = blobs(10, 1);
        let malware = test.filter(Class::is_attack);
        let mut adversarial = Dataset::new(test.feature_names().to_vec()).unwrap();
        for _ in 0..malware.len() {
            adversarial.push(&[-0.5], Class::Adversarial).unwrap();
        }
        let attacked = attacked_test_set(&test, &adversarial).unwrap();
        assert_eq!(attacked.len(), test.len());
        // all malware rows became -0.5 (benign-looking), still labeled malware
        for (row, label) in &attacked {
            if label.is_attack() {
                assert_eq!(row, &[-0.5]);
            }
        }
    }

    #[test]
    fn attacked_set_validates_counts_and_schema() {
        let test = blobs(5, 2);
        let too_few = Dataset::new(test.feature_names().to_vec()).unwrap();
        assert!(attacked_test_set(&test, &too_few).is_err());
        let wrong = Dataset::new(vec!["other".into()]).unwrap();
        assert!(matches!(
            attacked_test_set(&test, &wrong),
            Err(hmd_tabular::TabularError::SchemaMismatch)
        ));
    }

    #[test]
    fn transfer_records_show_f1_drop() {
        let train = blobs(100, 3);
        let test = blobs(50, 4);
        let targets = train.binary_targets(Class::is_attack);
        let mut lr = LogisticRegression::new();
        lr.fit(&train, &targets).unwrap();
        let models: Vec<Box<dyn Classifier>> = vec![Box::new(lr)];

        // perfect disguise: all malware moved into the benign cluster
        let malware = test.filter(Class::is_attack);
        let mut adversarial = Dataset::new(test.feature_names().to_vec()).unwrap();
        for _ in 0..malware.len() {
            adversarial.push(&[-0.5], Class::Adversarial).unwrap();
        }
        let attacked = attacked_test_set(&test, &adversarial).unwrap();
        let records = transferability(&models, &test, &attacked).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].clean.f1 > 0.95);
        assert!(records[0].attacked.f1 < 0.1);
    }
}
