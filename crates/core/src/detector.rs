//! The run-time adaptive detector: the deployed composition of
//! adversarial predictor, constraint-selected ML models, and integrity
//! validation (Figure 1's inference path).

use hmd_ml::Classifier;
use hmd_rl::{AdversarialPredictor, ConstraintController};
use hmd_tabular::{Class, Dataset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::CoreError;

/// Bound on the quarantine ring: oldest flagged samples are evicted
/// once the ring would exceed this many rows.
pub const QUARANTINE_CAP: usize = 512;

/// The verdict for one incoming HPC sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The adversarial predictor flagged the sample; it is quarantined
    /// and queued for the next adversarial-training round.
    AdversarialAttack,
    /// The routed ML model classified the sample as (non-adversarial)
    /// malware.
    MalwareAttack,
    /// The routed ML model classified the sample as benign.
    Benign,
}

impl Verdict {
    /// Whether the sample should be blocked.
    #[must_use]
    pub fn is_attack(self) -> bool {
        !matches!(self, Verdict::Benign)
    }
}

/// Preallocated per-shard inference arena: every buffer the detector's
/// hot path needs, sized once by [`AdaptiveDetector::warmup`] from the
/// feature width, the model zoo's topology, and the maximum batch size.
///
/// After warmup, [`AdaptiveDetector::classify_batch_into`] (and its
/// one-row wrapper [`AdaptiveDetector::classify_into`]) runs entirely
/// inside these buffers — zero heap allocations per window — while
/// producing verdicts and critic values bit-identical to the
/// [`AdaptiveDetector::classify_explain`] reference.
#[derive(Debug)]
pub struct InferArena {
    /// Critic activation scratch for the adversarial predictor.
    critic: hmd_nn::InferScratch,
    /// One predict scratch per zoo model, indexed like the zoo.
    model_scratch: Vec<hmd_ml::PredictScratch>,
    /// Critic values per batch row, left behind for the caller (the
    /// flight recorder and the metrics history read them).
    values: Vec<f64>,
    /// Wall-clock nanoseconds the last classify call spent in the
    /// critic forward (whole call, not per row).
    critic_ns: u64,
    /// Adversarial flags per batch row.
    flags: Vec<bool>,
    /// Packed unflagged rows awaiting the routed model.
    clean: Vec<f64>,
    /// Routed-model probabilities for the clean rows.
    probs: Vec<f64>,
    /// Routed-model attack votes for the clean rows.
    routed: Vec<bool>,
    /// Final verdicts per batch row, in input order.
    verdicts: Vec<Verdict>,
    max_batch: usize,
}

impl InferArena {
    /// The verdicts of the last [`AdaptiveDetector::classify_batch_into`]
    /// call, in input order.
    #[must_use]
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The critic values of the last
    /// [`AdaptiveDetector::classify_batch_into`] call, in input order:
    /// the exact values the flag decisions were made on.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Wall-clock nanoseconds the last classify call spent in the
    /// critic forward pass, for the whole call. The rest of the call
    /// (quarantine pushes and the routed model) is the caller's total
    /// minus this.
    #[must_use]
    pub fn critic_ns(&self) -> u64 {
        self.critic_ns
    }

    /// The largest batch this arena was warmed up for.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

/// Everything the detector consulted (or would have consulted) while
/// deciding one sample's verdict — the per-window forensic record
/// [`AdaptiveDetector::classify_explain`] produces for incident replay.
///
/// Unlike the serving path the explanation runs *every* zoo model, so
/// an operator can read per-model disagreement on adversarially
/// perturbed windows — the rows where the routed model's verdict is
/// least trustworthy.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainTrace {
    /// The adversarial predictor's feedback reward (critic value).
    pub adv_score: f64,
    /// The predictor's decision threshold on that score.
    pub adv_threshold: f64,
    /// Whether the predictor flagged the row (`adv_score > threshold`).
    pub flagged: bool,
    /// Index of the model the constraint controller routes to.
    pub selected_model: usize,
    /// Attack probability from every zoo model, in zoo order.
    pub model_probs: Vec<f64>,
    /// The verdict the serving path produces for this row.
    pub verdict: Verdict,
}

/// The deployed detector.
///
/// Incoming samples flow through the adversarial predictor first; flagged
/// samples are labeled [`Class::Adversarial`] and buffered for retraining
/// (the paper's feedback loop), everything else is routed to the ML model
/// the constraint controller selected.
///
/// The decision has exactly two implementations. The serving path,
/// [`classify_batch_into`](Self::classify_batch_into), runs whole batches
/// through a warmed-up [`InferArena`] without allocating. The reference
/// path, [`classify_explain`](Self::classify_explain), scores one row on
/// the allocating Tensor kernels and reports every signal behind the
/// verdict; replay and the determinism suite check the serving path
/// against it. [`classify_into`](Self::classify_into) and
/// [`classify`](Self::classify) are one-row wrappers over the two.
///
/// A detector and every generation [`next_generation`](Self::next_generation)
/// builds from it form one lineage: they share the adversarial
/// predictor and the quarantine ring through `Arc`s, so the ring's
/// eviction count is the lineage's lifetime count.
pub struct AdaptiveDetector {
    /// Retraining rounds refit the classical zoo but keep the deployed
    /// adversarial predictor.
    predictor: Arc<AdversarialPredictor>,
    controller: ConstraintController,
    models: Vec<Box<dyn Classifier>>,
    /// Feature width every classify path checks rows against — kept
    /// outside the quarantine lock so the hot path takes no extra lock.
    width: usize,
    /// Flagged samples awaiting the next adversarial-training round,
    /// at most [`QUARANTINE_CAP`] of them.
    quarantine: Arc<Mutex<Dataset>>,
    /// Lifetime count of rows evicted from the quarantine ring.
    evicted: Arc<AtomicU64>,
}

impl std::fmt::Debug for AdaptiveDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDetector")
            .field("models", &self.models.len())
            .field("selected_model", &self.controller.selected_model())
            .field("quarantined", &self.quarantine_guard().len())
            .finish()
    }
}

impl AdaptiveDetector {
    /// Locks the quarantine buffer, recovering from poisoning: a writer
    /// can only panic between samples (`Dataset::push` validates before
    /// mutating), so a poisoned buffer is still structurally valid and
    /// losing it would silently drop quarantined attacks.
    fn quarantine_guard(&self) -> MutexGuard<'_, Dataset> {
        self.quarantine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Assembles a detector from its trained parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] if `models` is empty, if
    /// `feature_names` is, or if the predictor was trained on a
    /// different width.
    pub fn new(
        predictor: AdversarialPredictor,
        controller: ConstraintController,
        models: Vec<Box<dyn Classifier>>,
        feature_names: Vec<String>,
    ) -> Result<Self, CoreError> {
        if models.is_empty() {
            return Err(CoreError::Invalid("detector needs at least one model"));
        }
        let width = feature_names.len();
        if predictor.agent().state_dim() != width {
            return Err(CoreError::Invalid("predictor width differs from the feature schema"));
        }
        let quarantine =
            Dataset::new(feature_names).map_err(|_| CoreError::Invalid("feature names empty"))?;
        Ok(Self {
            predictor: Arc::new(predictor),
            controller,
            models,
            width,
            quarantine: Arc::new(Mutex::new(quarantine)),
            evicted: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The next generation of this detector's lineage: `models` (refit
    /// by a retraining round) behind the same adversarial predictor, a
    /// clone of the constraint controller (so routing is unchanged) and
    /// the same quarantine ring and eviction count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] if `models` is empty.
    pub fn next_generation(&self, models: Vec<Box<dyn Classifier>>) -> Result<Self, CoreError> {
        if models.is_empty() {
            return Err(CoreError::Invalid("detector needs at least one model"));
        }
        Ok(Self {
            predictor: Arc::clone(&self.predictor),
            controller: self.controller.clone(),
            models,
            width: self.width,
            quarantine: Arc::clone(&self.quarantine),
            evicted: Arc::clone(&self.evicted),
        })
    }

    /// The deployed adversarial predictor, for read-only scoring of
    /// rows outside the classify paths.
    #[must_use]
    pub fn predictor(&self) -> &AdversarialPredictor {
        &self.predictor
    }

    /// The trained constraint controller (cloneable; carries its model
    /// selection, so a refreshed generation keeps the same routing).
    #[must_use]
    pub fn controller(&self) -> &ConstraintController {
        &self.controller
    }

    /// The deployed model zoo, in controller routing order.
    #[must_use]
    pub fn models(&self) -> &[Box<dyn Classifier>] {
        &self.models
    }

    /// Lifetime count of quarantined rows evicted by the ring bound,
    /// across every generation of this detector's lineage.
    #[must_use]
    pub fn quarantine_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Quarantines one flagged row, evicting the oldest row past
    /// [`QUARANTINE_CAP`] so a flood of adversarial traffic ages out
    /// stale samples instead of dropping the whole buffer.
    fn quarantine_push(&self, row: &[f64]) -> Result<(), CoreError> {
        let mut guard = self.quarantine_guard();
        guard.push(row, Class::Adversarial).map_err(CoreError::from)?;
        if guard.len() > QUARANTINE_CAP {
            guard.pop_front(1);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            if hmd_telemetry::enabled() {
                hmd_telemetry::metrics::counter("serving.quarantine_evicted").inc();
            }
        }
        Ok(())
    }

    /// Rejects a row width other than the detector's feature width.
    fn check_width(&self, width: usize) -> Result<(), CoreError> {
        if width == self.width {
            Ok(())
        } else {
            Err(CoreError::Invalid("row width differs from the detector's feature width"))
        }
    }

    /// Classifies one standardized HPC sample on the reference path:
    /// [`classify_explain`](Self::classify_explain), quarantining the
    /// row when the predictor flags it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a wrong-width row and
    /// propagates model failures.
    pub fn classify(&self, row: &[f64]) -> Result<Verdict, CoreError> {
        let trace = self.classify_explain(row)?;
        if trace.flagged {
            self.quarantine_push(row)?;
        }
        Ok(trace.verdict)
    }

    /// The reference path: explains one standardized HPC sample — the
    /// verdict the serving path produces plus every signal behind it:
    /// the predictor's raw feedback reward against its threshold, the
    /// controller's routing choice, and the attack probability of
    /// *every* zoo model (the serving path only consults the routed
    /// one). It scores one row through the Tensor forward pass and
    /// its own threshold and routing code, sharing only the matmul
    /// kernel with the serving path, which is what makes it a check on
    /// the arena code.
    ///
    /// Read-only: unlike [`classify`](Self::classify) a flagged row is
    /// *not* quarantined, so replaying an incident bundle through the
    /// explanation path never feeds the forensic traffic back into the
    /// retraining loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a wrong-width row and
    /// propagates model failures.
    pub fn classify_explain(&self, row: &[f64]) -> Result<ExplainTrace, CoreError> {
        self.check_width(row.len())?;
        let adv_score = self.predictor.feedback_reward(row);
        let adv_threshold = self.predictor.threshold();
        let flagged = adv_score > adv_threshold;
        let mut model_probs = Vec::with_capacity(self.models.len());
        for model in &self.models {
            model_probs.push(model.predict_proba_row(row).map_err(CoreError::from)?);
        }
        let selected_model = self.controller.selected_model();
        let verdict = if flagged {
            Verdict::AdversarialAttack
        } else if model_probs[selected_model] >= 0.5 {
            Verdict::MalwareAttack
        } else {
            Verdict::Benign
        };
        Ok(ExplainTrace { adv_score, adv_threshold, flagged, selected_model, model_probs, verdict })
    }

    /// Builds a per-shard [`InferArena`] sized for `width`-wide rows in
    /// batches of up to `max_batch`, and reserves quarantine headroom
    /// (ring cap + one batch) so steady-state pushes never reallocate.
    /// Call once at warmup; the returned arena makes
    /// [`classify_batch_into`](Self::classify_batch_into) allocation-free.
    #[must_use]
    pub fn warmup(&self, width: usize, max_batch: usize) -> InferArena {
        let max_batch = max_batch.max(1);
        self.quarantine_guard().reserve(QUARANTINE_CAP + max_batch);
        InferArena {
            critic: self.predictor.infer_scratch(max_batch),
            model_scratch: self.models.iter().map(|m| m.make_scratch(max_batch)).collect(),
            values: Vec::with_capacity(max_batch),
            critic_ns: 0,
            flags: Vec::with_capacity(max_batch),
            clean: Vec::with_capacity(max_batch * width),
            probs: Vec::with_capacity(max_batch),
            routed: Vec::with_capacity(max_batch),
            verdicts: Vec::with_capacity(max_batch),
            max_batch,
        }
    }

    /// [`classify_batch_into`](Self::classify_batch_into) for one row,
    /// returning its verdict; the critic value and time are left in the
    /// arena as for any batch.
    ///
    /// # Errors
    ///
    /// As [`classify_batch_into`](Self::classify_batch_into).
    pub fn classify_into(&self, row: &[f64], arena: &mut InferArena) -> Result<Verdict, CoreError> {
        self.classify_batch_into(row, row.len(), arena)?;
        Ok(arena.verdicts[0])
    }

    /// The serving path: classifies a flat row-major batch of
    /// `width`-wide samples through a warmed-up arena, leaving the
    /// verdicts in [`InferArena::verdicts`], the critic values in
    /// [`InferArena::values`] (input order) and the critic forward's
    /// time in [`InferArena::critic_ns`]. Zero heap allocations.
    ///
    /// The adversarial predictor screens the whole batch in one critic
    /// forward pass, flagged rows are quarantined in input order, and
    /// the survivors go through the routed model as one packed matrix.
    /// Each verdict and critic value is bit-identical to
    /// [`classify_explain`](Self::classify_explain) on that row — the
    /// blocked matmul's per-element accumulation order is
    /// row-count-invariant, so batching changes throughput, not results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a `width` other than the
    /// detector's feature width, a batch length that is not a multiple
    /// of it, or more rows than the arena was warmed up for; propagates
    /// model failures.
    pub fn classify_batch_into(
        &self,
        rows: &[f64],
        width: usize,
        arena: &mut InferArena,
    ) -> Result<(), CoreError> {
        self.check_width(width)?;
        if !rows.len().is_multiple_of(width) {
            return Err(CoreError::Invalid("batch length is not a multiple of the row width"));
        }
        let n = rows.len() / width;
        if n > arena.max_batch {
            return Err(CoreError::Invalid("batch larger than the arena was warmed up for"));
        }
        arena.verdicts.clear();
        if n == 0 {
            arena.values.clear();
            arena.critic_ns = 0;
            return Ok(());
        }
        let t0 = hmd_telemetry::clock::now_ns();
        self.predictor.is_adversarial_batch_into(
            rows,
            &mut arena.critic,
            &mut arena.values,
            &mut arena.flags,
        );
        arena.critic_ns = hmd_telemetry::clock::now_ns().saturating_sub(t0);
        arena.clean.clear();
        for (row, &flagged) in rows.chunks_exact(width).zip(&arena.flags) {
            if flagged {
                self.quarantine_push(row)?;
            } else {
                arena.clean.extend_from_slice(row);
            }
        }
        arena.routed.clear();
        if !arena.clean.is_empty() {
            self.controller
                .predict_batch_into(
                    &self.models,
                    &arena.clean,
                    width,
                    &mut arena.model_scratch[self.controller.selected_model()],
                    &mut arena.probs,
                    &mut arena.routed,
                )
                .map_err(CoreError::from)?;
        }
        let mut routed = arena.routed.iter();
        for &flagged in &arena.flags {
            arena.verdicts.push(if flagged {
                Verdict::AdversarialAttack
            } else if *routed.next().expect("one verdict per unflagged row") {
                Verdict::MalwareAttack
            } else {
                Verdict::Benign
            });
        }
        Ok(())
    }

    /// Drains the quarantined adversarial samples (labeled
    /// [`Class::Adversarial`]) for the next adversarial-training round.
    #[must_use]
    pub fn take_quarantine(&self) -> Dataset {
        let mut guard = self.quarantine_guard();
        let names = guard.feature_names().to_vec();
        std::mem::replace(&mut guard, Dataset::new(names).expect("non-empty schema"))
    }

    /// Number of currently quarantined samples.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantine_guard().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameworkConfig;
    use crate::framework::Framework;
    use hmd_rl::{ConstraintKind, ControllerConfig, ModelProfile};

    /// End-to-end smoke test on the quick corpus: build every component
    /// and drive the runtime path.
    #[test]
    fn detector_routes_samples() {
        let fw = Framework::new(FrameworkConfig::quick(7));
        let bundle = fw.prepare_data().unwrap();
        let attacks = fw.generate_attacks(&bundle).unwrap();
        let merged = Framework::merged_training_set(&bundle, &attacks).unwrap();
        let predictor = fw.train_predictor(&merged).unwrap();

        let targets = merged.binary_targets(Class::is_attack);
        let mut models = hmd_ml::classical_models();
        for m in &mut models {
            m.fit(&merged, &targets).unwrap();
        }
        let profiles: Vec<ModelProfile> = models
            .iter()
            .map(|m| ModelProfile {
                name: m.name().to_owned(),
                latency_ms: 0.01,
                size_bytes: m.size_bytes(),
            })
            .collect();
        let controller = hmd_rl::ConstraintController::train(
            ConstraintKind::BestDetection,
            &models,
            profiles,
            &merged,
            &targets,
            ControllerConfig::default(),
        )
        .unwrap();

        let detector = AdaptiveDetector::new(
            predictor,
            controller,
            models,
            bundle.feature_names.clone(),
        )
        .unwrap();

        // adversarial rows should mostly be flagged and quarantined
        let mut flagged = 0;
        for (row, _) in &attacks.test_result.adversarial {
            if detector.classify(row).unwrap() == Verdict::AdversarialAttack {
                flagged += 1;
            }
        }
        let total = attacks.test_result.adversarial.len();
        assert!(
            flagged * 2 > total,
            "only {flagged}/{total} adversarial rows flagged"
        );
        assert_eq!(detector.quarantined(), flagged);

        // quarantine drains with adversarial labels
        let q = detector.take_quarantine();
        assert_eq!(q.len(), flagged);
        assert!(q.labels().iter().all(|&l| l == Class::Adversarial));
        assert_eq!(detector.quarantined(), 0);

        // benign rows mostly pass
        let benign = bundle.test.filter(|c| c == Class::Benign);
        let mut benign_ok = 0;
        for (row, _) in &benign {
            if detector.classify(row).unwrap() == Verdict::Benign {
                benign_ok += 1;
            }
        }
        // quick-corpus models are weak; this is a routing smoke test, so
        // only require a clear majority of benign rows to pass through
        assert!(
            benign_ok * 2 > benign.len(),
            "only {benign_ok}/{} benign rows passed",
            benign.len()
        );

        // the serving path reproduces the reference path verdict-for-
        // verdict on a mixed benign/adversarial batch
        let width = benign.n_features();
        let mut flat = Vec::new();
        let mut expect = Vec::new();
        for (row, _) in benign.iter().take(9) {
            flat.extend_from_slice(row);
            expect.push(detector.classify(row).unwrap());
        }
        for (row, _) in attacks.test_result.adversarial.iter().take(7) {
            flat.extend_from_slice(row);
            expect.push(detector.classify(row).unwrap());
        }
        let mut arena = detector.warmup(width, 16);
        assert_eq!(arena.max_batch(), 16);
        detector.classify_batch_into(&flat, width, &mut arena).unwrap();
        assert_eq!(arena.verdicts(), expect.as_slice());
        // the arena keeps the critic values the decisions were made on,
        // bit-equal to one-row scoring at any batch size
        assert_eq!(arena.values().len(), expect.len());
        for (i, v) in arena.values().iter().enumerate() {
            let row = &flat[i * width..(i + 1) * width];
            assert_eq!(v.to_bits(), detector.predictor().feedback_reward(row).to_bits());
        }
        for (row, _) in benign.iter().take(4).chain(attacks.test_result.adversarial.iter().take(4))
        {
            assert_eq!(
                detector.classify_into(row, &mut arena).unwrap(),
                detector.classify(row).unwrap()
            );
            let want = detector.predictor().feedback_reward(row).to_bits();
            assert_eq!(arena.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), [want]);
        }

        // hostile shapes are errors on both paths, never a panic: a zero
        // or wrong row width (even one that divides the batch length), a
        // ragged batch, and a batch larger than the arena
        let before = detector.quarantined();
        assert!(detector.classify_batch_into(&flat, 0, &mut arena).is_err());
        assert!(detector.classify_batch_into(&flat, width - 1, &mut arena).is_err());
        assert!(detector.classify_batch_into(&flat, 2 * width, &mut arena).is_err());
        assert!(detector.classify_batch_into(&flat[..flat.len() - 1], width, &mut arena).is_err());
        assert!(detector.classify_into(&flat[..width - 1], &mut arena).is_err());
        assert!(detector.classify_into(&[], &mut arena).is_err());
        assert!(detector.classify(&flat[..width + 1]).is_err());
        assert!(detector.classify_explain(&flat[..width - 1]).is_err());
        let mut small = detector.warmup(width, 4);
        assert!(detector.classify_batch_into(&flat[..5 * width], width, &mut small).is_err());
        assert_eq!(detector.quarantined(), before, "rejected batches quarantine nothing");
        detector.classify_batch_into(&flat[..4 * width], width, &mut small).unwrap();
        assert_eq!(small.verdicts(), &expect[..4]);

        // the explanation path scores every zoo model, reproduces the
        // serving verdict, and never touches the quarantine
        let n_models = detector.models().len();
        for (row, _) in benign.iter().take(4).chain(attacks.test_result.adversarial.iter().take(4))
        {
            let before = detector.quarantined();
            let trace = detector.classify_explain(row).unwrap();
            assert_eq!(detector.quarantined(), before, "explain must be read-only");
            assert_eq!(trace.verdict, detector.classify(row).unwrap());
            assert_eq!(trace.model_probs.len(), n_models);
            assert_eq!(trace.flagged, trace.adv_score > trace.adv_threshold);
            assert_eq!(trace.flagged, trace.verdict == Verdict::AdversarialAttack);
            assert!(trace.selected_model < n_models);
        }

        // ring eviction: past the cap the buffer keeps the newest rows
        // and counts evictions, instead of dropping wholesale
        let flagged_rows: Vec<&[f64]> = attacks
            .test_result
            .adversarial
            .iter()
            .map(|(row, _)| row)
            .filter(|row| detector.classify(row).unwrap() == Verdict::AdversarialAttack)
            .take(5)
            .collect();
        assert!(flagged_rows.len() >= 3, "need a few flagged rows to exercise eviction");
        let _ = detector.take_quarantine();
        let evicted_before = detector.quarantine_evicted();
        let over = 7;
        let pushed: Vec<&[f64]> =
            flagged_rows.iter().copied().cycle().take(QUARANTINE_CAP + over).collect();
        for row in &pushed {
            detector.classify(row).unwrap();
        }
        assert_eq!(detector.quarantined(), QUARANTINE_CAP);
        assert_eq!(detector.quarantine_evicted() - evicted_before, over as u64);
        // the retained rows are the newest, in insertion order
        let kept = detector.take_quarantine();
        for (i, row) in pushed[over..].iter().enumerate() {
            assert_eq!(kept.row(i).unwrap(), *row);
        }

        // the next generation shares the predictor, the routing and the
        // ring: a row one generation quarantines, the other reads, and
        // both report the lineage's one eviction count
        let next = detector.next_generation(hmd_ml::classical_models()).unwrap();
        assert!(detector.next_generation(Vec::new()).is_err());
        assert!(std::ptr::eq(next.predictor(), detector.predictor()));
        assert_eq!(next.controller().selected_model(), detector.controller().selected_model());
        detector.classify(flagged_rows[0]).unwrap();
        assert_eq!(next.quarantined(), 1);
        assert_eq!(next.quarantine_evicted(), detector.quarantine_evicted());
        assert_eq!(next.take_quarantine().row(0).unwrap(), flagged_rows[0]);
        assert_eq!(detector.quarantined(), 0);
    }

    #[test]
    fn verdict_attack_classification() {
        assert!(Verdict::AdversarialAttack.is_attack());
        assert!(Verdict::MalwareAttack.is_attack());
        assert!(!Verdict::Benign.is_attack());
    }
}
