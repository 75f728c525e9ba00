//! The [`Classifier`] trait every detector implements, plus evaluation
//! and latency/footprint measurement helpers.

use hmd_nn::InferScratch;
use hmd_tabular::Dataset;
use hmd_telemetry::clock;
use hmd_telemetry::metrics::Histogram;
use hmd_util::par;

use crate::metrics::BinaryMetrics;
use crate::MlError;

/// Batch sizes below this predict sequentially — thread launch would
/// cost more than the per-row work it distributes.
pub(crate) const PAR_BATCH_MIN: usize = 64;

/// Caller-owned scratch for allocation-free prediction, sized once per
/// model via [`Classifier::make_scratch`] and reused forever after.
///
/// One struct serves every model family so arenas can be held uniformly
/// as `Vec<PredictScratch>` indexed by model: NN-backed models use the
/// activation ping-pong buffers, and the tree/linear models (whose
/// predict path never allocates) leave them empty.
#[derive(Clone, Debug, Default)]
pub struct PredictScratch {
    /// Activation arenas for NN-backed models (MLP, ConvNet).
    pub nn: InferScratch,
}

/// A binary malware detector (positive class = attack).
///
/// All five classical models of the paper (RF, DT, LR, MLP, LightGBM-style
/// GBDT) plus the conv NN implement this trait, so the framework, the
/// adversarial attacks, and the RL constraint controller can treat them
/// uniformly as `Box<dyn Classifier>`.
pub trait Classifier: Send + Sync + std::fmt::Debug {
    /// Short model name ("RF", "MLP", …) as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Trains on `data` with per-row binary targets (`1.0` = attack).
    ///
    /// # Errors
    ///
    /// Returns an error for empty/degenerate training sets or mismatched
    /// target lengths.
    fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError>;

    /// Probability that one feature vector is an attack.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before `fit` and
    /// [`MlError::DimensionMismatch`] for wrong-width rows.
    fn predict_proba_row(&self, row: &[f64]) -> Result<f64, MlError>;

    /// Attack probabilities for a whole dataset.
    ///
    /// Corpus-scale batches are scored in parallel on
    /// [`hmd_util::par`] (rows are independent and results are
    /// order-preserving, so output is identical at any thread count);
    /// small batches stay sequential.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::predict_proba_row`] errors.
    fn predict_proba(&self, data: &Dataset) -> Result<Vec<f64>, MlError> {
        if data.len() < PAR_BATCH_MIN {
            return (0..data.len())
                .map(|i| self.predict_proba_row(data.row(i)?))
                .collect();
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        par::par_map(&indices, |&i| {
            self.predict_proba_row(data.row(i)?)
        })
        .into_iter()
        .collect()
    }

    /// Hard decision for one feature vector (threshold 0.5).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::predict_proba_row`] errors.
    fn predict_row(&self, row: &[f64]) -> Result<bool, MlError> {
        Ok(self.predict_proba_row(row)? >= 0.5)
    }

    /// Scratch sized for this fitted model at batches of up to
    /// `max_rows` rows — warmup calls this once per model, the serving
    /// hot path reuses the result forever. The default is empty: the
    /// tree/linear models predict without touching scratch. NN-backed
    /// models override to preallocate what their predict path would
    /// otherwise allocate per call.
    fn make_scratch(&self, max_rows: usize) -> PredictScratch {
        let _ = max_rows;
        PredictScratch::default()
    }

    /// Attack probability for one row using caller-owned scratch —
    /// bit-identical to [`Self::predict_proba_row`], with zero heap
    /// allocations for every in-tree model once `scratch` came from
    /// [`Self::make_scratch`]. The default ignores the scratch and
    /// delegates (correct for models that never allocate per row).
    ///
    /// # Errors
    ///
    /// As [`Self::predict_proba_row`].
    fn predict_proba_row_with(
        &self,
        row: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, MlError> {
        let _ = scratch;
        self.predict_proba_row(row)
    }

    /// Attack probabilities for a flat row-major batch of `width`-wide
    /// rows, written into `out` (cleared first). `out` must have
    /// capacity for one value per row for the call to stay
    /// allocation-free.
    ///
    /// The contract is **byte-identical equivalence**: the result must
    /// equal calling [`Self::predict_proba_row`] on each row in order.
    /// The default implementation does exactly that. NN-backed models
    /// override it to push the whole batch through one blocked matmul —
    /// per-element accumulation order is row-count-invariant, so the
    /// equivalence holds bitwise. [`crate::Gbdt`] overrides it to walk
    /// each tree with eight rows in lockstep; every row still sums its
    /// trees in order, so that equivalence is bitwise too.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `width` is zero or
    /// does not divide `rows.len()`; otherwise propagates
    /// [`Self::predict_proba_row`] errors.
    fn predict_proba_into(
        &self,
        rows: &[f64],
        width: usize,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        validate_batch_shape(rows, width)?;
        out.clear();
        for row in rows.chunks(width) {
            let p = self.predict_proba_row_with(row, scratch)?;
            out.push(p);
        }
        Ok(())
    }

    /// Approximate in-memory size of the fitted model in bytes — the
    /// memory-footprint axis of the constraint controller.
    fn size_bytes(&self) -> usize;
}

/// Validates the shape of a flat row-major batch.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] when `width` is zero or does
/// not divide `rows.len()`.
pub fn validate_batch_shape(rows: &[f64], width: usize) -> Result<(), MlError> {
    if width == 0 || !rows.len().is_multiple_of(width) {
        return Err(MlError::DimensionMismatch { expected: width.max(1), actual: rows.len() });
    }
    Ok(())
}

/// Validates a `(data, targets)` pair before training.
///
/// # Errors
///
/// Returns an error when `data` is empty, lengths mismatch, a target is
/// not 0/1, or only one class is present.
pub fn validate_training_set(data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
    if data.is_empty() {
        return Err(MlError::DegenerateTrainingSet("no rows"));
    }
    if targets.len() != data.len() {
        return Err(MlError::InvalidTargets("target length differs from row count"));
    }
    if targets.iter().any(|&t| t != 0.0 && t != 1.0) {
        return Err(MlError::InvalidTargets("targets must be 0.0 or 1.0"));
    }
    let pos = targets.iter().filter(|&&t| t == 1.0).count();
    if pos == 0 || pos == targets.len() {
        return Err(MlError::DegenerateTrainingSet("need both classes present"));
    }
    Ok(())
}

/// Evaluates a fitted classifier on a labeled test set.
///
/// # Errors
///
/// Propagates prediction errors.
pub fn evaluate(
    model: &dyn Classifier,
    data: &Dataset,
    targets: &[f64],
) -> Result<BinaryMetrics, MlError> {
    let scores = model.predict_proba(data)?;
    let truth: Vec<bool> = targets.iter().map(|&t| t == 1.0).collect();
    Ok(BinaryMetrics::from_scores(&scores, &truth))
}

/// Measures mean single-row inference latency in milliseconds — the
/// latency axis of the constraint controller.
///
/// Each call is timed on the telemetry clock and recorded into a local
/// [`Histogram`], whose exact mean is the return value; the same
/// observations also feed the shared `ml.latency_ns.<model>` registry
/// histogram, so an `HMD_TRACE` export reports the very numbers the
/// controller's [`crate::BinaryMetrics`]-adjacent `ModelProfile` saw —
/// one measurement path, two consumers.
///
/// # Errors
///
/// Propagates prediction errors.
///
/// # Panics
///
/// Panics if `data` is empty or `repeats` is zero.
pub fn measure_latency_ms(
    model: &dyn Classifier,
    data: &Dataset,
    repeats: usize,
) -> Result<f64, MlError> {
    assert!(!data.is_empty(), "need at least one row");
    assert!(repeats > 0, "need at least one repeat");
    // warmup
    let _ = model.predict_proba_row(data.row(0)?)?;
    let local = Histogram::standalone();
    let shared = hmd_telemetry::enabled()
        .then(|| hmd_telemetry::metrics::histogram(&format!("ml.latency_ns.{}", model.name())));
    for _ in 0..repeats {
        for i in 0..data.len() {
            let row = data.row(i)?;
            let start = clock::now_ns();
            let _ = model.predict_proba_row(row)?;
            let elapsed = clock::now_ns().saturating_sub(start);
            local.record(elapsed);
            if let Some(shared) = shared {
                shared.record(elapsed);
            }
        }
    }
    let merged = local.merged();
    if hmd_telemetry::enabled() {
        // quantile summary of this measurement run, in milliseconds —
        // the registry histogram above keeps the full distribution
        for (q, v) in [("p50", merged.p50()), ("p95", merged.p95()), ("p99", merged.p99())] {
            hmd_telemetry::metrics::gauge(&format!("ml.latency_ms_{q}.{}", model.name()))
                .set(v / 1e6);
        }
    }
    Ok(merged.mean() / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_tabular::Class;

    /// A trivial threshold stub used to test the trait helpers.
    #[derive(Debug, Default)]
    struct Stub {
        threshold: f64,
        fitted: bool,
    }

    impl Classifier for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
            validate_training_set(data, targets)?;
            self.threshold = 0.5;
            self.fitted = true;
            Ok(())
        }

        fn predict_proba_row(&self, row: &[f64]) -> Result<f64, MlError> {
            if !self.fitted {
                return Err(MlError::NotFitted);
            }
            Ok(if row[0] > self.threshold { 0.9 } else { 0.1 })
        }

        fn size_bytes(&self) -> usize {
            8
        }
    }

    fn data() -> (Dataset, Vec<f64>) {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        for i in 0..10 {
            let label = if i % 2 == 0 { Class::Benign } else { Class::Malware };
            d.push(&[i as f64 / 10.0], label).unwrap();
        }
        let targets = d.binary_targets(Class::is_attack);
        (d, targets)
    }

    #[test]
    fn validation_catches_degenerate_sets() {
        let (d, mut t) = data();
        assert!(validate_training_set(&d, &t).is_ok());
        assert!(matches!(
            validate_training_set(&d, &t[..5]),
            Err(MlError::InvalidTargets(_))
        ));
        t.fill(1.0);
        assert!(matches!(
            validate_training_set(&d, &t),
            Err(MlError::DegenerateTrainingSet(_))
        ));
        let empty = Dataset::new(vec!["x".into()]).unwrap();
        assert!(matches!(
            validate_training_set(&empty, &[]),
            Err(MlError::DegenerateTrainingSet(_))
        ));
    }

    #[test]
    fn validation_rejects_non_binary_targets() {
        let (d, mut t) = data();
        t[0] = 0.5;
        assert!(matches!(validate_training_set(&d, &t), Err(MlError::InvalidTargets(_))));
    }

    #[test]
    fn evaluate_produces_metrics() {
        let (d, t) = data();
        let mut s = Stub::default();
        s.fit(&d, &t).unwrap();
        let m = evaluate(&s, &d, &t).unwrap();
        // stub flags x > 0.5: rows 6,7,8,9 → tp {7,9}, fp {6,8}
        assert!((m.accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unfitted_model_errors() {
        let s = Stub::default();
        assert_eq!(s.predict_proba_row(&[0.1]).unwrap_err(), MlError::NotFitted);
    }

    #[test]
    fn latency_is_positive() {
        let (d, t) = data();
        let mut s = Stub::default();
        s.fit(&d, &t).unwrap();
        let lat = measure_latency_ms(&s, &d, 3).unwrap();
        assert!((0.0..10.0).contains(&lat));
    }
}
