//! The multi-phased adversarial learning and defense framework
//! (paper §2.3, Figure 1).
//!
//! Phases:
//!
//! 1. **Data acquisition & feature engineering** (§2.1) — simulated
//!    Perf/LXC corpus, standard scaling, top-4 feature selection;
//! 2. **Baseline detection** — six detectors on legitimate data
//!    (Table 2, scenario *a*);
//! 3. **Adversarial attack generation** (§2.4) — LowProFool on the
//!    malware samples (Table 2, scenario *b* via transfer);
//! 4. **Adversarial attack prediction** (§2.5) — the A2C predictor
//!    trained from unlabeled data + feedback rewards;
//! 5. **Adversarial training** — predictor-flagged samples labeled and
//!    merged, detectors retrained (Table 2, scenario *c*);
//! 6. **Constraint-aware control** (§2.6) — three UCB agents scheduling
//!    the five classical models at run time (Figure 4a).

use hmd_adversarial::{attacked_test_set, Attack, AttackResult, LowProFool};
use hmd_ml::{
    all_models, classical_models, evaluate, measure_latency_ms, BinaryMetrics, Classifier,
    ConfusionMatrix,
};
use hmd_rl::{
    AdversarialPredictor, ConstraintController, ConstraintKind, ModelProfile, PredictorConfig,
};
use hmd_integrity::MetricMonitor;
use hmd_sim::build_corpus;
use hmd_tabular::split::stratified_split;
use hmd_tabular::{select_top_features, Class, Dataset, StandardScaler};
use hmd_util::rng::prelude::*;

use crate::config::{FeatureSelection, FrameworkConfig};
use crate::detector::AdaptiveDetector;
use crate::report::{ControllerReport, FrameworkReport, PredictorReport, ScenarioMetrics};
use crate::CoreError;

/// The four features the paper names as its MI winners.
pub const PAPER_TOP4: [&str; 4] =
    ["LLC-load-misses", "LLC-loads", "cache-misses", "cpu/cache-misses/"];

/// The engineered dataset every phase operates on.
#[derive(Clone, Debug)]
pub struct DataBundle {
    /// Standardized training split (selected features only).
    pub train: Dataset,
    /// Standardized test split.
    pub test: Dataset,
    /// The scaler fitted on the training split.
    pub scaler: StandardScaler,
    /// Names of the selected features.
    pub feature_names: Vec<String>,
}

/// Artifacts of the attack-generation phase. Cloneable so a retraining
/// round can carry the fitted attack and its pools into the next
/// serving-artifacts generation without regenerating them.
#[derive(Clone, Debug)]
pub struct AttackArtifacts {
    /// The fitted LowProFool attack (owns the imperceptibility
    /// evaluator).
    pub attack: LowProFool,
    /// Adversarial versions of the *training* malware (the pool the
    /// defender later learns from).
    pub train_result: AttackResult,
    /// Adversarial versions of the *test* malware (what the attacker
    /// deploys at inference time).
    pub test_result: AttackResult,
}

/// The framework orchestrator.
#[derive(Clone, Debug)]
pub struct Framework {
    config: FrameworkConfig,
}

impl Framework {
    /// A framework with the given configuration.
    #[must_use]
    pub fn new(config: FrameworkConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Phase 1: corpus collection, feature selection, split, scaling.
    ///
    /// # Errors
    ///
    /// Propagates corpus/selection/split errors.
    pub fn prepare_data(&self) -> Result<DataBundle, CoreError> {
        let _span = hmd_telemetry::span("framework.prepare_data");
        let corpus = build_corpus(&self.config.corpus);
        let selected = match &self.config.features {
            FeatureSelection::PaperTop4 => {
                let names = corpus.dataset.feature_names();
                let idx: Option<Vec<usize>> = PAPER_TOP4
                    .iter()
                    .map(|want| names.iter().position(|n| n == want))
                    .collect();
                let idx = idx.ok_or(CoreError::MissingFeature)?;
                corpus.dataset.select_features(&idx)?
            }
            FeatureSelection::MutualInfo { k, bins } => {
                select_top_features(&corpus.dataset, *k, *bins)?.0
            }
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let (train, test) = stratified_split(&selected, self.config.test_fraction, &mut rng)?;
        let scaler = StandardScaler::fit(&train)?;
        let train = scaler.transform(&train)?;
        let test = scaler.transform(&test)?;
        let feature_names = train.feature_names().to_vec();
        Ok(DataBundle { train, test, scaler, feature_names })
    }

    /// Fits the full model zoo on `(data, targets)`.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit_models(
        &self,
        data: &Dataset,
        targets: &[f64],
    ) -> Result<Vec<Box<dyn Classifier>>, CoreError> {
        let _span = hmd_telemetry::span("framework.fit_models");
        let mut models = all_models();
        for model in &mut models {
            let _fit = hmd_telemetry::span(&format!("ml.fit.{}", model.name()));
            model.fit(data, targets)?;
        }
        Ok(models)
    }

    /// Evaluates fitted models on a labeled set, producing Table-2 rows.
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    pub fn evaluate_models(
        models: &[Box<dyn Classifier>],
        data: &Dataset,
        targets: &[f64],
    ) -> Result<Vec<ScenarioMetrics>, CoreError> {
        let _span = hmd_telemetry::span("framework.evaluate_models");
        models
            .iter()
            .map(|m| {
                Ok(ScenarioMetrics {
                    model: m.name().to_owned(),
                    metrics: evaluate(m.as_ref(), data, targets)?,
                })
            })
            .collect()
    }

    /// Phase 3: fits LowProFool on the training split and generates
    /// adversarial versions of the train and test malware.
    ///
    /// # Errors
    ///
    /// Propagates attack fitting/generation failures.
    pub fn generate_attacks(&self, bundle: &DataBundle) -> Result<AttackArtifacts, CoreError> {
        let _span = hmd_telemetry::span("framework.generate_attacks");
        let attack =
            LowProFool::fit_with_config(&bundle.train, self.config.attack)?;
        let train_malware = bundle.train.filter(Class::is_attack);
        let test_malware = bundle.test.filter(Class::is_attack);
        let train_result = attack.generate(&train_malware, self.config.seed ^ 0x7261)?;
        let test_result = attack.generate(&test_malware, self.config.seed ^ 0x7465)?;
        Ok(AttackArtifacts { attack, train_result, test_result })
    }

    /// The scenario-(b) test set: benign rows untouched, malware rows
    /// replaced by their adversarial disguises.
    ///
    /// # Errors
    ///
    /// Propagates dataset assembly errors.
    pub fn attacked_test(
        bundle: &DataBundle,
        attacks: &AttackArtifacts,
    ) -> Result<Dataset, CoreError> {
        Ok(attacked_test_set(&bundle.test, &attacks.test_result.adversarial)?)
    }

    /// The merged `[Malware, Benign, Adversarial]` training database of
    /// the defense module (Figure 1, bottom left).
    ///
    /// # Errors
    ///
    /// Propagates merge errors.
    pub fn merged_training_set(
        bundle: &DataBundle,
        attacks: &AttackArtifacts,
    ) -> Result<Dataset, CoreError> {
        let mut merged = bundle.train.clone();
        merged.merge(&attacks.train_result.adversarial)?;
        Ok(merged)
    }

    /// The scenario-(c) test set: benign + legitimate malware +
    /// adversarial malware, all labeled truthfully.
    ///
    /// # Errors
    ///
    /// Propagates merge errors.
    pub fn merged_test_set(
        bundle: &DataBundle,
        attacks: &AttackArtifacts,
    ) -> Result<Dataset, CoreError> {
        let mut merged = bundle.test.clone();
        merged.merge(&attacks.test_result.adversarial)?;
        Ok(merged)
    }

    /// Phase 4: trains the A2C adversarial predictor on the merged set
    /// (adversarial rows labeled, everything else unlabeled).
    ///
    /// # Errors
    ///
    /// Propagates predictor-training failures.
    pub fn train_predictor(
        &self,
        merged_train: &Dataset,
    ) -> Result<AdversarialPredictor, CoreError> {
        let _span = hmd_telemetry::span("framework.train_predictor");
        let config = PredictorConfig { ..self.config.predictor.clone() };
        Ok(AdversarialPredictor::train(merged_train, config)?)
    }

    /// Evaluates the predictor on an inference stream of adversarial
    /// samples followed by non-adversarial ones (Figure 3(b)'s layout).
    #[must_use]
    pub fn evaluate_predictor(
        predictor: &AdversarialPredictor,
        adversarial: &Dataset,
        clean: &Dataset,
    ) -> PredictorReport {
        let _span = hmd_telemetry::span("framework.evaluate_predictor");
        let mut reward_trace = Vec::with_capacity(adversarial.len() + clean.len());
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut tn = 0usize;
        let mut fn_ = 0usize;
        for (row, _) in adversarial {
            let reward = predictor.feedback_reward(row);
            reward_trace.push((true, reward));
            if reward > predictor.threshold() {
                tp += 1;
            } else {
                fn_ += 1;
            }
        }
        for (row, _) in clean {
            let reward = predictor.feedback_reward(row);
            reward_trace.push((false, reward));
            if reward > predictor.threshold() {
                fp += 1;
            } else {
                tn += 1;
            }
        }
        let total = (tp + fp + tn + fn_) as f64;
        let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
        let recall = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PredictorReport {
            accuracy: if total == 0.0 { 0.0 } else { (tp + tn) as f64 / total },
            f1,
            precision,
            recall,
            reward_trace,
        }
    }

    /// The Metric Monitor's per-model profile: latency measured on the
    /// first 64 rows of `probe_from`, and size.
    fn profile_models(
        &self,
        models: &[Box<dyn Classifier>],
        probe_from: &Dataset,
    ) -> Result<Vec<ModelProfile>, CoreError> {
        let probe = probe_from.subset(&(0..probe_from.len().min(64)).collect::<Vec<_>>())?;
        models
            .iter()
            .map(|m| {
                Ok(ModelProfile {
                    name: m.name().to_owned(),
                    latency_ms: measure_latency_ms(
                        m.as_ref(),
                        &probe,
                        self.config.latency_repeats,
                    )?,
                    size_bytes: m.size_bytes(),
                })
            })
            .collect()
    }

    /// Phase 6: trains the three constraint agents over the five
    /// classical models (the paper excludes the NN here), already fit on
    /// `merged_train`, and evaluates each agent's deployed model on the
    /// merged test set.
    ///
    /// # Errors
    ///
    /// Propagates training/evaluation failures.
    pub fn train_controllers(
        &self,
        models: &[Box<dyn Classifier>],
        merged_train: &Dataset,
        merged_test: &Dataset,
    ) -> Result<Vec<(ConstraintController, ControllerReport)>, CoreError> {
        let _span = hmd_telemetry::span("framework.train_controllers");
        let train_targets = merged_train.binary_targets(Class::is_attack);
        let test_targets = merged_test.binary_targets(Class::is_attack);
        let profiles = self.profile_models(models, merged_test)?;

        let mut out = Vec::with_capacity(ConstraintKind::ALL.len());
        for kind in ConstraintKind::ALL {
            let controller = ConstraintController::train(
                kind,
                models,
                profiles.clone(),
                merged_train,
                &train_targets,
                self.config.controller,
            )?;
            let selected = controller.selected_model();
            let metrics = evaluate(models[selected].as_ref(), merged_test, &test_targets)?;
            let report = ControllerReport {
                agent: kind.label().to_owned(),
                selected_model: profiles[selected].name.clone(),
                metrics,
                latency_ms: profiles[selected].latency_ms,
                size_bytes: profiles[selected].size_bytes,
            };
            out.push((controller, report));
        }
        Ok(out)
    }

    /// Runs every phase and assembles the complete report.
    ///
    /// The whole run executes under a `framework.run` telemetry span;
    /// when tracing was requested through `HMD_TRACE`, the artifacts
    /// `TELEMETRY_pipeline.{json,folded}` are written once the root span
    /// closes. Telemetry observes but never feeds back: the report is
    /// byte-identical (modulo measured latencies) with tracing on or off.
    ///
    /// # Errors
    ///
    /// Propagates failures from any phase.
    pub fn run(&self) -> Result<FrameworkReport, CoreError> {
        // Inner scope so the root span's guard drops (recording its end
        // time) before the export below reads the finished spans.
        let report = {
            let _root = hmd_telemetry::span("framework.run");
            self.run_phases()
        };
        hmd_telemetry::maybe_export("pipeline");
        report
    }

    fn run_phases(&self) -> Result<FrameworkReport, CoreError> {
        let bundle = self.prepare_data()?;

        // scenario (a): regular malware detection
        let attack_targets = bundle.train.binary_targets(Class::is_attack);
        let baseline_models = self.fit_models(&bundle.train, &attack_targets)?;
        let test_targets = bundle.test.binary_targets(Class::is_attack);
        let baseline = Self::evaluate_models(&baseline_models, &bundle.test, &test_targets)?;

        // §2.7 metric monitor: scenario (a) is the recorded baseline the
        // later scenarios are assessed against.
        let monitor = MetricMonitor::new(self.config.integrity_tolerance);
        for row in &baseline {
            monitor.record_baseline(&row.model, row.metrics);
        }

        // scenario (b): under adversarial attack
        let attacks = self.generate_attacks(&bundle)?;
        let attacked_test = Self::attacked_test(&bundle, &attacks)?;
        let attacked_targets = attacked_test.binary_targets(Class::is_attack);
        let attacked =
            Self::evaluate_models(&baseline_models, &attacked_test, &attacked_targets)?;
        for row in &attacked {
            let _ = monitor.assess(&row.model, &row.metrics);
        }

        // phase 4: the predictor learns to flag adversarial inputs
        let merged_train = Self::merged_training_set(&bundle, &attacks)?;
        let predictor = self.train_predictor(&merged_train)?;
        let clean_test = bundle.test.clone();
        let predictor_report = Self::evaluate_predictor(
            &predictor,
            &attacks.test_result.adversarial,
            &clean_test,
        );

        // scenario (c): adversarial training
        let merged_targets = merged_train.binary_targets(Class::is_attack);
        let defended_models = self.fit_models(&merged_train, &merged_targets)?;
        let merged_test = Self::merged_test_set(&bundle, &attacks)?;
        let merged_test_targets = merged_test.binary_targets(Class::is_attack);
        let defended =
            Self::evaluate_models(&defended_models, &merged_test, &merged_test_targets)?;
        for row in &defended {
            let _ = monitor.assess(&row.model, &row.metrics);
        }

        // phase 6: constraint-aware controllers over the classical five
        // (the zoo's first five models; the NN is last)
        let classical = &defended_models[..defended_models.len() - 1];
        let controllers = self
            .train_controllers(classical, &merged_train, &merged_test)?
            .into_iter()
            .map(|(_, report)| report)
            .collect();

        Ok(FrameworkReport {
            baseline,
            attacked,
            defended,
            attack_success_rate: attacks.test_result.success_rate(),
            mean_perturbation: attacks.test_result.mean_perturbation(),
            predictor: predictor_report,
            controllers,
            selected_features: bundle.feature_names,
        })
    }
}

/// Everything a long-running serving process needs, trained once up
/// front: the engineered-data recipe (selector + scaler), the deployed
/// [`AdaptiveDetector`], the adversarial pool the traffic generator can
/// replay attacks from, and a [`MetricMonitor`] whose `"serving"`
/// baseline records the detector's own composite confusion on the
/// merged test set.
#[derive(Debug)]
pub struct ServingArtifacts {
    /// The engineered dataset and its scaler/feature recipe.
    pub bundle: DataBundle,
    /// The fitted attack and its generated adversarial pools.
    pub attacks: AttackArtifacts,
    /// The deployed predictor + controller + model composition.
    pub detector: AdaptiveDetector,
    /// Metric monitor with the `"serving"` composite baseline recorded.
    pub monitor: MetricMonitor,
    /// The constraint the controller was trained under.
    pub kind: ConstraintKind,
    /// The merged `[Malware, Benign, Adversarial]` training database the
    /// detector's models were fitted on — the set retraining rounds
    /// extend with drained quarantine samples.
    pub training: Dataset,
}

/// The baseline name [`Framework::prepare_serving`] records the
/// composite detector under.
pub const SERVING_BASELINE: &str = "serving";

/// Rows per serving-path call when recording an integrity baseline
/// (here and in serving calibration). Verdicts and quarantine order do
/// not depend on it.
pub const PROBE_BATCH: usize = 64;

impl Framework {
    /// Trains every runtime component and assembles the deployable
    /// serving artifacts: phases 1–5 as in [`run`](Self::run), then the
    /// constraint controller for `kind`, an [`AdaptiveDetector`], and a
    /// metric monitor holding the detector's composite baseline.
    ///
    /// # Errors
    ///
    /// Propagates failures from any phase.
    pub fn prepare_serving(&self, kind: ConstraintKind) -> Result<ServingArtifacts, CoreError> {
        let _span = hmd_telemetry::span("framework.prepare_serving");
        let bundle = self.prepare_data()?;
        let attacks = self.generate_attacks(&bundle)?;
        let merged_train = Self::merged_training_set(&bundle, &attacks)?;
        let predictor = self.train_predictor(&merged_train)?;

        let train_targets = merged_train.binary_targets(Class::is_attack);
        let mut models = classical_models();
        for model in &mut models {
            model.fit(&merged_train, &train_targets)?;
        }
        let profiles = self.profile_models(&models, &merged_train)?;
        let controller = ConstraintController::train(
            kind,
            &models,
            profiles,
            &merged_train,
            &train_targets,
            self.config.controller,
        )?;
        let detector =
            AdaptiveDetector::new(predictor, controller, models, bundle.feature_names.clone())?;

        // Record the composite detector's own confusion as the
        // integrity baseline, on the *clean* test set — the paper's
        // monitor records its baseline on legitimate data (scenario a),
        // and serving-lull traffic is drawn from that distribution. The
        // serving loop assesses its windowed confusion against exactly
        // this record, so an adversarial campaign registers as drift.
        // Classified on the serving path, so the baseline is exactly
        // what serving would have decided on these rows.
        let width = bundle.test.n_features();
        let mut arena = detector.warmup(width, PROBE_BATCH);
        let mut matrix = ConfusionMatrix::default();
        let batches = bundle.test.raw_data().chunks(PROBE_BATCH * width);
        for (rows, labels) in batches.zip(bundle.test.labels().chunks(PROBE_BATCH)) {
            detector.classify_batch_into(rows, width, &mut arena)?;
            for (verdict, &class) in arena.verdicts().iter().zip(labels) {
                match (verdict.is_attack(), class.is_attack()) {
                    (true, true) => matrix.tp += 1,
                    (true, false) => matrix.fp += 1,
                    (false, true) => matrix.fn_ += 1,
                    (false, false) => matrix.tn += 1,
                }
            }
        }
        // baseline probing quarantined the flagged test rows; discard
        // them so serving starts with an empty quarantine
        let _ = detector.take_quarantine();
        let monitor = MetricMonitor::new(self.config.integrity_tolerance);
        monitor.record_baseline(SERVING_BASELINE, BinaryMetrics::from_confusion(&matrix));

        Ok(ServingArtifacts { bundle, attacks, detector, monitor, kind, training: merged_train })
    }

    /// One round of the run-time feedback loop (Figure 1): merges a
    /// quarantine of predictor-flagged samples (labeled
    /// [`Class::Adversarial`]) into the training database and refits every
    /// model on the extended set. Returns the number of samples absorbed.
    ///
    /// # Errors
    ///
    /// Propagates merge and training failures; a schema mismatch between
    /// quarantine and training set is rejected.
    pub fn retraining_round(
        models: &mut [Box<dyn Classifier>],
        training: &mut Dataset,
        quarantine: &Dataset,
    ) -> Result<usize, CoreError> {
        let _span = hmd_telemetry::span("framework.retraining_round");
        if quarantine.is_empty() {
            return Ok(0);
        }
        training.merge(quarantine)?;
        let targets = training.binary_targets(Class::is_attack);
        for model in models.iter_mut() {
            model.fit(training, &targets)?;
        }
        Ok(quarantine.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameworkConfig;
    use crate::detector::QUARANTINE_CAP;

    fn quick() -> Framework {
        Framework::new(FrameworkConfig::quick(11))
    }

    #[test]
    fn prepare_data_selects_paper_features() {
        let bundle = quick().prepare_data().unwrap();
        assert_eq!(bundle.feature_names, PAPER_TOP4.map(String::from).to_vec());
        assert!(bundle.train.len() > bundle.test.len());
        // standardized: near-zero means
        for f in 0..bundle.train.n_features() {
            let col = bundle.train.column(f).unwrap();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 0.2, "feature {f} mean {mean}");
        }
    }

    #[test]
    fn mutual_info_selection_works_too() {
        let mut config = FrameworkConfig::quick(12);
        config.features = FeatureSelection::MutualInfo { k: 6, bins: 16 };
        let bundle = Framework::new(config).prepare_data().unwrap();
        assert_eq!(bundle.train.n_features(), 6);
    }

    #[test]
    fn attack_generation_succeeds_on_simulated_corpus() {
        let fw = quick();
        let bundle = fw.prepare_data().unwrap();
        let attacks = fw.generate_attacks(&bundle).unwrap();
        assert!(attacks.test_result.success_rate() > 0.95);
        assert_eq!(
            attacks.test_result.adversarial.len(),
            bundle.test.filter(Class::is_attack).len()
        );
    }

    #[test]
    fn merged_sets_have_three_classes() {
        let fw = quick();
        let bundle = fw.prepare_data().unwrap();
        let attacks = fw.generate_attacks(&bundle).unwrap();
        let merged = Framework::merged_training_set(&bundle, &attacks).unwrap();
        let counts = merged.class_counts();
        assert!(counts[&Class::Benign] > 0);
        assert!(counts[&Class::Malware] > 0);
        assert!(counts[&Class::Adversarial] > 0);
    }

    #[test]
    fn retraining_round_absorbs_quarantine() {
        let fw = quick();
        let bundle = fw.prepare_data().unwrap();
        let attacks = fw.generate_attacks(&bundle).unwrap();
        let mut training = bundle.train.clone();
        let targets = training.binary_targets(Class::is_attack);
        let mut models: Vec<Box<dyn Classifier>> =
            vec![Box::new(hmd_ml::DecisionTree::new())];
        models[0].fit(&training, &targets).unwrap();
        let before = training.len();
        let quarantine = attacks.train_result.adversarial.clone();
        let absorbed =
            Framework::retraining_round(&mut models, &mut training, &quarantine).unwrap();
        assert_eq!(absorbed, quarantine.len());
        assert_eq!(training.len(), before + quarantine.len());
        // empty quarantine is a no-op
        let empty = Dataset::new(training.feature_names().to_vec()).unwrap();
        assert_eq!(
            Framework::retraining_round(&mut models, &mut training, &empty).unwrap(),
            0
        );
    }

    /// The serving retrainer's exact sequence: an *over-cap* quarantine
    /// (ring already evicted oldest rows) drains to exactly the cap and
    /// is absorbed in full; the immediately following round sees the
    /// just-drained (empty) ring and must be a no-op.
    #[test]
    fn retraining_round_handles_over_cap_and_just_drained_quarantine() {
        let artifacts = quick().prepare_serving(ConstraintKind::BestDetection).unwrap();
        let detector = &artifacts.detector;
        // classify the adversarial pool again until its flagged rows
        // overflow the ring
        let mut flagged = 0usize;
        while flagged <= QUARANTINE_CAP {
            for (row, _) in &artifacts.attacks.test_result.adversarial {
                let verdict = detector.classify(row).unwrap();
                flagged += usize::from(verdict == crate::Verdict::AdversarialAttack);
            }
            assert!(flagged > 0, "the predictor flags no adversarial row");
        }
        assert_eq!(detector.quarantined(), QUARANTINE_CAP, "ring must hold exactly the cap");
        assert_eq!(detector.quarantine_evicted(), (flagged - QUARANTINE_CAP) as u64);

        let mut training = artifacts.training.clone();
        let mut models: Vec<Box<dyn Classifier>> =
            vec![Box::new(hmd_ml::DecisionTree::new())];
        let targets = training.binary_targets(Class::is_attack);
        models[0].fit(&training, &targets).unwrap();

        let before = training.len();
        let drained = detector.take_quarantine();
        assert_eq!(drained.len(), QUARANTINE_CAP);
        let absorbed =
            Framework::retraining_round(&mut models, &mut training, &drained).unwrap();
        assert_eq!(absorbed, QUARANTINE_CAP);
        assert_eq!(training.len(), before + QUARANTINE_CAP);

        // a second round right after the drain sees an empty ring: no-op
        let empty = detector.take_quarantine();
        assert!(empty.is_empty());
        let absorbed =
            Framework::retraining_round(&mut models, &mut training, &empty).unwrap();
        assert_eq!(absorbed, 0);
        assert_eq!(training.len(), before + QUARANTINE_CAP, "no-op round must not touch the set");
    }

    #[test]
    fn prepare_serving_records_composite_baseline() {
        let artifacts = quick().prepare_serving(ConstraintKind::BestDetection).unwrap();
        let baseline = artifacts.monitor.baseline(SERVING_BASELINE).expect("baseline recorded");
        assert!((0.0..=1.0).contains(&baseline.accuracy));
        assert!(baseline.accuracy > 0.5, "composite detector should beat chance");
        assert_eq!(artifacts.kind, ConstraintKind::BestDetection);
        // probing must not leave residue in the quarantine
        assert_eq!(artifacts.detector.quarantined(), 0);
        // the detector still classifies engineered rows
        let (row, _) = (&artifacts.bundle.test).into_iter().next().unwrap();
        let _ = artifacts.detector.classify(row).unwrap();
    }

    #[test]
    fn attacked_test_keeps_length_and_benign_rows() {
        let fw = quick();
        let bundle = fw.prepare_data().unwrap();
        let attacks = fw.generate_attacks(&bundle).unwrap();
        let attacked = Framework::attacked_test(&bundle, &attacks).unwrap();
        assert_eq!(attacked.len(), bundle.test.len());
    }
}
