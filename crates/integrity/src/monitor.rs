//! The metric monitor (paper §2.7): baseline performance records on a
//! reserved offline validation set, with drift detection.
//!
//! Besides hashing, the paper periodically re-evaluates each deployed
//! model on a held-out validation set and compares accuracy, F1, TPR,
//! FPR, TNR and FNR against established records; deviations indicate
//! possible tampering and trigger restoration of the verified model.

use std::collections::HashMap;

use std::sync::{PoisonError, RwLock};

use hmd_ml::{BinaryMetrics, ConfusionMatrix};
use hmd_util::impl_to_json;
use hmd_util::json::{Json, ToJson};

/// Verdict of one metric assessment.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricStatus {
    /// All monitored metrics within tolerance of the baseline.
    Stable,
    /// One or more metrics drifted; each entry names the metric with its
    /// baseline and observed value.
    Drifted(Vec<MetricDeviation>),
    /// No baseline recorded for this model.
    Unknown,
}

/// One out-of-tolerance metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDeviation {
    /// Metric name (`"accuracy"`, `"f1"`, `"tpr"`, `"fpr"`, `"tnr"`,
    /// `"fnr"`).
    pub metric: &'static str,
    /// Recorded baseline value.
    pub baseline: f64,
    /// Currently observed value.
    pub observed: f64,
}

impl_to_json!(struct MetricDeviation { metric, baseline, observed });

impl ToJson for MetricStatus {
    fn to_json(&self) -> Json {
        match self {
            MetricStatus::Stable => {
                Json::Obj(vec![("status".to_owned(), Json::Str("stable".to_owned()))])
            }
            MetricStatus::Drifted(deviations) => Json::Obj(vec![
                ("status".to_owned(), Json::Str("drifted".to_owned())),
                ("deviations".to_owned(), deviations.to_json()),
            ]),
            MetricStatus::Unknown => {
                Json::Obj(vec![("status".to_owned(), Json::Str("unknown".to_owned()))])
            }
        }
    }
}

/// One full assessment outcome: which model was checked, what the
/// verdict was, and under which tolerance — the structured record the
/// monitor also publishes as an `integrity.drift` telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftEvent {
    /// The assessed model's name.
    pub model: String,
    /// Verdict, with per-metric deltas when drifted.
    pub status: MetricStatus,
    /// Absolute tolerance the assessment used.
    pub tolerance: f64,
}

impl DriftEvent {
    /// `true` only when the verdict is [`MetricStatus::Stable`].
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.status.is_stable()
    }

    /// The out-of-tolerance metrics (empty when stable or unknown).
    #[must_use]
    pub fn deviations(&self) -> &[MetricDeviation] {
        match &self.status {
            MetricStatus::Drifted(devs) => devs,
            _ => &[],
        }
    }
}

impl ToJson for DriftEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![("model".to_owned(), Json::Str(self.model.clone()))];
        if let Json::Obj(status_fields) = self.status.to_json() {
            fields.extend(status_fields);
        }
        fields.push(("tolerance".to_owned(), Json::Float(self.tolerance)));
        Json::Obj(fields)
    }
}

/// Thread-safe monitor of per-model baseline metrics.
///
/// # Example
///
/// ```
/// use hmd_integrity::MetricMonitor;
/// use hmd_ml::BinaryMetrics;
///
/// let monitor = MetricMonitor::new(0.05);
/// let baseline = BinaryMetrics { accuracy: 0.9, f1: 0.9, ..Default::default() };
/// monitor.record_baseline("MLP", baseline);
/// assert!(monitor.assess("MLP", &baseline).is_stable());
/// ```
#[derive(Debug)]
pub struct MetricMonitor {
    baselines: RwLock<HashMap<String, BinaryMetrics>>,
    tolerance: f64,
}

impl MetricStatus {
    /// `true` only for [`MetricStatus::Stable`].
    #[must_use]
    pub fn is_stable(&self) -> bool {
        matches!(self, MetricStatus::Stable)
    }
}

/// The metrics a [`MetricMonitor`] compares, as `(name, baseline,
/// observed)` triples.
fn monitored_pairs(
    base: &BinaryMetrics,
    observed: &BinaryMetrics,
) -> [(&'static str, f64, f64); 6] {
    [
        ("accuracy", base.accuracy, observed.accuracy),
        ("f1", base.f1, observed.f1),
        ("tpr", base.tpr, observed.tpr),
        ("fpr", base.fpr, observed.fpr),
        ("tnr", base.tnr, observed.tnr),
        ("fnr", base.fnr, observed.fnr),
    ]
}

impl MetricMonitor {
    /// A monitor flagging metrics that deviate more than `tolerance`
    /// (absolute) from their baselines.
    ///
    /// # Panics
    ///
    /// Panics for a negative tolerance.
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self { baselines: RwLock::new(HashMap::new()), tolerance }
    }

    /// Locks the baselines for reading, recovering from poisoning:
    /// baseline writes are single `HashMap::insert` calls, never torn.
    fn baselines_read(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, HashMap<String, BinaryMetrics>> {
        self.baselines.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records (or replaces) a model's baseline metrics.
    pub fn record_baseline(&self, name: &str, metrics: BinaryMetrics) {
        self.baselines
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_owned(), metrics);
    }

    /// Compares freshly measured metrics against the stored baseline,
    /// producing the full [`DriftEvent`] record. When telemetry is
    /// enabled the event is also published as a structured
    /// `integrity.drift` trace event, and per-verdict counters
    /// (`integrity.assessments`, `integrity.drifts`) are bumped.
    #[must_use]
    pub fn assess(&self, name: &str, observed: &BinaryMetrics) -> DriftEvent {
        let status = {
            let baselines = self.baselines_read();
            match baselines.get(name) {
                None => MetricStatus::Unknown,
                Some(base) => {
                    let deviations: Vec<MetricDeviation> = monitored_pairs(base, observed)
                        .into_iter()
                        .filter(|(_, b, o)| (b - o).abs() > self.tolerance)
                        .map(|(metric, baseline, observed)| MetricDeviation {
                            metric,
                            baseline,
                            observed,
                        })
                        .collect();
                    if deviations.is_empty() {
                        MetricStatus::Stable
                    } else {
                        MetricStatus::Drifted(deviations)
                    }
                }
            }
        };
        let event = DriftEvent { model: name.to_owned(), status, tolerance: self.tolerance };
        if hmd_telemetry::enabled() {
            hmd_telemetry::metrics::counter("integrity.assessments").inc();
            if !event.is_stable() {
                hmd_telemetry::metrics::counter("integrity.drifts").inc();
            }
            hmd_telemetry::event("integrity.drift", event.to_json());
        }
        event
    }

    /// [`assess`](Self::assess) from raw confusion counts — the form an
    /// online serving window produces. Derives accuracy/F1/rates from
    /// the matrix; AUC is unavailable without scores and left at `0.0`,
    /// which the assessment never compares.
    #[must_use]
    pub fn assess_confusion(&self, name: &str, matrix: &ConfusionMatrix) -> DriftEvent {
        self.assess(name, &BinaryMetrics::from_confusion(matrix))
    }

    /// Allocation-free stability probe: `Some(true)` when every metric
    /// [`assess`](Self::assess) monitors is within tolerance of the
    /// baseline, `Some(false)` on drift, `None` without a baseline.
    /// Verdict-identical to `assess(name, observed).is_stable()` (with
    /// `None` mapping to the non-stable `Unknown`), but builds no
    /// [`DriftEvent`], touches no telemetry, and performs zero heap
    /// allocations — the probe the serving hot path runs every
    /// integrity tick, falling back to the full assessment only when it
    /// reports drift or tracing is on.
    #[must_use]
    pub fn is_stable(&self, name: &str, observed: &BinaryMetrics) -> Option<bool> {
        let baselines = self.baselines_read();
        let base = baselines.get(name)?;
        let pairs = monitored_pairs(base, observed);
        Some(pairs.iter().all(|(_, b, o)| (b - o).abs() <= self.tolerance))
    }

    /// [`is_stable`](Self::is_stable) from raw confusion counts — the
    /// allocation-free counterpart of
    /// [`assess_confusion`](Self::assess_confusion).
    #[must_use]
    pub fn confusion_is_stable(&self, name: &str, matrix: &ConfusionMatrix) -> Option<bool> {
        self.is_stable(name, &BinaryMetrics::from_confusion(matrix))
    }

    /// The stored baseline for a model, if any.
    #[must_use]
    pub fn baseline(&self, name: &str) -> Option<BinaryMetrics> {
        self.baselines_read().get(name).copied()
    }

    /// The configured tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(acc: f64, f1: f64) -> BinaryMetrics {
        BinaryMetrics { accuracy: acc, f1, tpr: 0.9, fpr: 0.1, tnr: 0.9, fnr: 0.1, ..Default::default() }
    }

    #[test]
    fn stable_within_tolerance() {
        let m = MetricMonitor::new(0.05);
        m.record_baseline("RF", metrics(0.90, 0.90));
        assert!(m.assess("RF", &metrics(0.93, 0.88)).is_stable());
    }

    #[test]
    fn drift_is_reported_per_metric() {
        let m = MetricMonitor::new(0.05);
        m.record_baseline("RF", metrics(0.90, 0.90));
        let event = m.assess("RF", &metrics(0.60, 0.89));
        assert_eq!(event.model, "RF");
        assert!((event.tolerance - 0.05).abs() < 1e-12);
        match &event.status {
            MetricStatus::Drifted(devs) => {
                assert_eq!(devs.len(), 1);
                assert_eq!(devs[0].metric, "accuracy");
                assert!((devs[0].observed - 0.60).abs() < 1e-12);
            }
            other => panic!("expected drift, got {other:?}"),
        }
        assert_eq!(event.deviations().len(), 1);
    }

    #[test]
    fn missing_baseline_reports_unknown_not_stable() {
        let m = MetricMonitor::new(0.05);
        let event = m.assess("ghost", &metrics(0.9, 0.9));
        assert_eq!(event.status, MetricStatus::Unknown);
        assert!(!event.is_stable());
        assert!(event.deviations().is_empty());
        assert_eq!(event.model, "ghost");
    }

    #[test]
    fn multiple_drifts_collected() {
        let m = MetricMonitor::new(0.02);
        m.record_baseline("DT", metrics(0.9, 0.9));
        let observed = BinaryMetrics {
            accuracy: 0.5,
            f1: 0.4,
            tpr: 0.3,
            fpr: 0.6,
            tnr: 0.4,
            fnr: 0.7,
            ..Default::default()
        };
        let event = m.assess("DT", &observed);
        match &event.status {
            MetricStatus::Drifted(devs) => assert_eq!(devs.len(), 6),
            other => panic!("expected drift, got {other:?}"),
        }
        assert_eq!(event.deviations().len(), 6);
    }

    #[test]
    fn drift_event_serializes_with_model_status_and_tolerance() {
        use hmd_util::json::ToJson;
        let m = MetricMonitor::new(0.05);
        m.record_baseline("RF", metrics(0.9, 0.9));
        let json = m.assess("RF", &metrics(0.6, 0.9)).to_json().to_string();
        assert!(json.contains("\"model\":\"RF\""), "{json}");
        assert!(json.contains("\"status\":\"drifted\""), "{json}");
        assert!(json.contains("\"tolerance\":"), "{json}");
        assert!(json.contains("\"deviations\":"), "{json}");
    }

    #[test]
    fn confusion_assessment_matches_derived_metrics() {
        let m = MetricMonitor::new(0.05);
        // baseline: perfect detector
        m.record_baseline(
            "RF",
            BinaryMetrics {
                accuracy: 1.0,
                f1: 1.0,
                tpr: 1.0,
                fpr: 0.0,
                tnr: 1.0,
                fnr: 0.0,
                ..Default::default()
            },
        );
        let perfect = ConfusionMatrix { tp: 10, fp: 0, tn: 10, fn_: 0 };
        assert!(m.assess_confusion("RF", &perfect).is_stable());
        // half the attacks slip through: tpr collapses to 0.5
        let degraded = ConfusionMatrix { tp: 5, fp: 0, tn: 10, fn_: 5 };
        let event = m.assess_confusion("RF", &degraded);
        assert!(!event.is_stable());
        assert!(event.deviations().iter().any(|d| d.metric == "tpr"));
    }

    #[test]
    fn is_stable_probe_matches_full_assessment() {
        let m = MetricMonitor::new(0.05);
        assert_eq!(m.is_stable("ghost", &metrics(0.9, 0.9)), None);
        m.record_baseline("RF", metrics(0.90, 0.90));
        for observed in [metrics(0.93, 0.88), metrics(0.60, 0.89), metrics(0.90, 0.90)] {
            assert_eq!(
                m.is_stable("RF", &observed),
                Some(m.assess("RF", &observed).is_stable()),
            );
        }
        let degraded = ConfusionMatrix { tp: 5, fp: 0, tn: 10, fn_: 5 };
        assert_eq!(
            m.confusion_is_stable("RF", &degraded),
            Some(m.assess_confusion("RF", &degraded).is_stable()),
        );
    }

    #[test]
    fn zero_tolerance_flags_any_change() {
        let m = MetricMonitor::new(0.0);
        m.record_baseline("LR", metrics(0.9, 0.9));
        assert!(!m.assess("LR", &metrics(0.9000001, 0.9)).is_stable());
        assert!(m.assess("LR", &metrics(0.9, 0.9)).is_stable());
    }
}
