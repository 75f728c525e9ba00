//! The run-time adaptive detector: the deployed composition of
//! adversarial predictor, constraint-selected ML models, and integrity
//! validation (Figure 1's inference path).

use hmd_ml::Classifier;
use hmd_rl::{AdversarialPredictor, ConstraintController};
use hmd_tabular::{Class, Dataset};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::CoreError;

/// Default bound on the quarantine buffer: oldest flagged samples are
/// evicted ring-style once the buffer would exceed this many rows.
pub const DEFAULT_QUARANTINE_CAP: usize = 512;

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
/// After warmup, [`AdaptiveDetector::classify_into`] and
/// [`AdaptiveDetector::classify_batch_into`] run entirely inside these
/// buffers — zero heap allocations per window — while producing verdicts
/// byte-identical to the allocating [`AdaptiveDetector::classify`] /
/// [`AdaptiveDetector::classify_batch`] paths.
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

    /// The critic values of the last [`AdaptiveDetector::classify_into`]
    /// (one value) or [`AdaptiveDetector::classify_batch_into`] call, in
    /// input order: the exact values the flag decisions were made on.
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
/// Unlike the serving paths the explanation runs *every* zoo model, so
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
    /// The verdict the serving paths produce for this row.
    pub verdict: Verdict,
}

/// The deployed detector.
///
/// Incoming samples flow through the adversarial predictor first; flagged
/// samples are labeled [`Class::Adversarial`] and buffered for retraining
/// (the paper's feedback loop), everything else is routed to the ML model
/// the constraint controller selected.
pub struct AdaptiveDetector {
    /// Shared: retraining rounds refit the classical zoo but keep the
    /// deployed adversarial predictor, so successive detector
    /// generations hold the same predictor through an `Arc`.
    predictor: Arc<AdversarialPredictor>,
    controller: ConstraintController,
    models: Vec<Box<dyn Classifier>>,
    /// Flagged samples awaiting the next adversarial-training round.
    quarantine: Mutex<Dataset>,
    /// Ring bound on the quarantine; oldest rows are evicted past it.
    quarantine_cap: AtomicUsize,
    /// Lifetime count of rows evicted from the quarantine ring.
    evicted: AtomicU64,
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
    /// Returns [`CoreError::Invalid`] if `models` is empty or
    /// `feature_names` is.
    pub fn new(
        predictor: AdversarialPredictor,
        controller: ConstraintController,
        models: Vec<Box<dyn Classifier>>,
        feature_names: Vec<String>,
    ) -> Result<Self, CoreError> {
        Self::with_shared_predictor(Arc::new(predictor), controller, models, feature_names)
    }

    /// Like [`new`](Self::new), but sharing an already-deployed
    /// adversarial predictor — the retraining loop assembles each
    /// refreshed detector generation around the same predictor
    /// instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] if `models` is empty or
    /// `feature_names` is.
    pub fn with_shared_predictor(
        predictor: Arc<AdversarialPredictor>,
        controller: ConstraintController,
        models: Vec<Box<dyn Classifier>>,
        feature_names: Vec<String>,
    ) -> Result<Self, CoreError> {
        if models.is_empty() {
            return Err(CoreError::Invalid("detector needs at least one model"));
        }
        let quarantine =
            Dataset::new(feature_names).map_err(|_| CoreError::Invalid("feature names empty"))?;
        Ok(Self {
            predictor,
            controller,
            models,
            quarantine: Mutex::new(quarantine),
            quarantine_cap: AtomicUsize::new(DEFAULT_QUARANTINE_CAP),
            evicted: AtomicU64::new(0),
        })
    }

    /// A handle to the deployed adversarial predictor, for assembling
    /// the next detector generation around it.
    #[must_use]
    pub fn predictor_handle(&self) -> Arc<AdversarialPredictor> {
        Arc::clone(&self.predictor)
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

    /// Rebounds the quarantine ring. A cap of 0 disables eviction
    /// (unbounded buffer); shrinking the cap below the current fill
    /// evicts the oldest excess rows immediately, counting them like
    /// any ring eviction.
    pub fn set_quarantine_cap(&self, cap: usize) {
        self.quarantine_cap.store(cap, Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let mut guard = self.quarantine_guard();
        Self::evict_over_cap(&mut guard, cap, &self.evicted);
    }

    /// The current quarantine ring bound (0 = unbounded).
    #[must_use]
    pub fn quarantine_cap(&self) -> usize {
        self.quarantine_cap.load(Ordering::Relaxed)
    }

    /// Evicts oldest-first down to `cap` rows, counting evictions.
    fn evict_over_cap(guard: &mut Dataset, cap: usize, evicted: &AtomicU64) {
        if guard.len() <= cap {
            return;
        }
        let excess = guard.len() - cap;
        guard.pop_front(excess);
        evicted.fetch_add(excess as u64, Ordering::Relaxed);
        if hmd_telemetry::enabled() {
            hmd_telemetry::metrics::counter("serving.quarantine_evicted").add(excess as u64);
        }
    }

    /// Lifetime count of quarantined rows evicted by the ring bound.
    #[must_use]
    pub fn quarantine_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Quarantines one flagged row, evicting oldest-first past the cap
    /// so a flood of adversarial traffic ages out stale samples instead
    /// of dropping the whole buffer.
    fn quarantine_push(&self, row: &[f64]) -> Result<(), CoreError> {
        let mut guard = self.quarantine_guard();
        guard.push(row, Class::Adversarial).map_err(CoreError::from)?;
        let cap = self.quarantine_cap.load(Ordering::Relaxed);
        if cap > 0 {
            Self::evict_over_cap(&mut guard, cap, &self.evicted);
        }
        Ok(())
    }

    /// Classifies one standardized HPC sample.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn classify(&self, row: &[f64]) -> Result<Verdict, CoreError> {
        if self.predictor.is_adversarial(row) {
            self.quarantine_push(row)?;
            return Ok(Verdict::AdversarialAttack);
        }
        let is_malware = self
            .controller
            .predict_row(&self.models, row)
            .map_err(CoreError::from)?;
        Ok(if is_malware { Verdict::MalwareAttack } else { Verdict::Benign })
    }

    /// Explains one standardized HPC sample: the verdict the serving
    /// paths produce plus every signal behind it — the predictor's raw
    /// feedback reward against its threshold, the controller's routing
    /// choice, and the attack probability of *every* zoo model (the
    /// serving paths only consult the routed one).
    ///
    /// Read-only: unlike [`classify`](Self::classify) a flagged row is
    /// *not* quarantined, so replaying an incident bundle through the
    /// explanation path never feeds the forensic traffic back into the
    /// retraining loop.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn classify_explain(&self, row: &[f64]) -> Result<ExplainTrace, CoreError> {
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

    /// Classifies a flat row-major batch of `width`-wide samples.
    ///
    /// The adversarial predictor screens the whole batch in one critic
    /// forward pass, flagged rows are quarantined in input order, and
    /// the survivors go through the routed model as one packed matrix.
    /// Verdicts come back in input order and are identical to calling
    /// [`classify`](Self::classify) on each row — the blocked matmul's
    /// per-element accumulation order is row-count-invariant, so batching
    /// changes throughput, not results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a malformed batch shape and
    /// propagates model failures.
    pub fn classify_batch(&self, rows: &[f64], width: usize) -> Result<Vec<Verdict>, CoreError> {
        if width == 0 || !rows.len().is_multiple_of(width) {
            return Err(CoreError::Invalid("batch length is not a multiple of the row width"));
        }
        let n = rows.len() / width;
        if n == 0 {
            return Ok(Vec::new());
        }
        let flags = self.predictor.is_adversarial_batch(rows);
        let mut clean = Vec::with_capacity(rows.len());
        for (i, &flagged) in flags.iter().enumerate() {
            let row = &rows[i * width..(i + 1) * width];
            if flagged {
                self.quarantine_push(row)?;
            } else {
                clean.extend_from_slice(row);
            }
        }
        let routed = if clean.is_empty() {
            Vec::new()
        } else {
            self.controller
                .predict_batch(&self.models, &clean, width)
                .map_err(CoreError::from)?
        };
        let mut routed = routed.into_iter();
        Ok(flags
            .iter()
            .map(|&flagged| {
                if flagged {
                    Verdict::AdversarialAttack
                } else if routed.next().expect("one verdict per unflagged row") {
                    Verdict::MalwareAttack
                } else {
                    Verdict::Benign
                }
            })
            .collect())
    }

    /// Builds a per-shard [`InferArena`] sized for `width`-wide rows in
    /// batches of up to `max_batch`, and reserves quarantine headroom
    /// (ring cap + one batch) so steady-state pushes never reallocate.
    /// Call once at warmup; the returned arena makes
    /// [`classify_into`](Self::classify_into) and
    /// [`classify_batch_into`](Self::classify_batch_into)
    /// allocation-free.
    #[must_use]
    pub fn warmup(&self, width: usize, max_batch: usize) -> InferArena {
        let max_batch = max_batch.max(1);
        {
            let mut guard = self.quarantine_guard();
            let cap = self.quarantine_cap.load(Ordering::Relaxed);
            guard.reserve(cap + max_batch);
        }
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

    /// Runs the critic over `rows` into `arena.values`/`arena.flags`,
    /// timing the forward pass into `arena.critic_ns`.
    fn screen_into(&self, rows: &[f64], arena: &mut InferArena) {
        let t0 = hmd_telemetry::clock::now_ns();
        self.predictor.is_adversarial_batch_into(
            rows,
            &mut arena.critic,
            &mut arena.values,
            &mut arena.flags,
        );
        arena.critic_ns = hmd_telemetry::clock::now_ns().saturating_sub(t0);
    }

    /// [`classify`](Self::classify) through a warmed-up arena: identical
    /// verdict, quarantine behavior and telemetry, zero heap allocations.
    /// The row's critic value is left in [`InferArena::values`] (one
    /// entry) and the critic's time in [`InferArena::critic_ns`].
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn classify_into(&self, row: &[f64], arena: &mut InferArena) -> Result<Verdict, CoreError> {
        self.screen_into(row, arena);
        if arena.flags[0] {
            self.quarantine_push(row)?;
            return Ok(Verdict::AdversarialAttack);
        }
        let scratch = &mut arena.model_scratch[self.controller.selected_model()];
        let is_malware = self
            .controller
            .predict_row_with(&self.models, row, scratch)
            .map_err(CoreError::from)?;
        Ok(if is_malware { Verdict::MalwareAttack } else { Verdict::Benign })
    }

    /// [`classify_batch`](Self::classify_batch) through a warmed-up
    /// arena, leaving the verdicts in [`InferArena::verdicts`] and the
    /// critic values in [`InferArena::values`] (input order): identical
    /// verdicts, quarantine behavior and telemetry, zero heap
    /// allocations for batches within the arena's capacity.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a malformed batch shape and
    /// propagates model failures.
    pub fn classify_batch_into(
        &self,
        rows: &[f64],
        width: usize,
        arena: &mut InferArena,
    ) -> Result<(), CoreError> {
        if width == 0 || !rows.len().is_multiple_of(width) {
            return Err(CoreError::Invalid("batch length is not a multiple of the row width"));
        }
        let n = rows.len() / width;
        arena.verdicts.clear();
        if n == 0 {
            arena.values.clear();
            arena.critic_ns = 0;
            return Ok(());
        }
        self.screen_into(rows, arena);
        arena.clean.clear();
        for (i, &flagged) in arena.flags.iter().enumerate() {
            let row = &rows[i * width..(i + 1) * width];
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

    /// The model the constraint controller routed inference to.
    #[must_use]
    pub fn active_model(&self) -> &dyn Classifier {
        self.models[self.controller.selected_model()].as_ref()
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

        // batched classification matches the scalar path row-for-row on
        // a mixed benign/adversarial batch
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
        assert_eq!(detector.classify_batch(&flat, width).unwrap(), expect);
        assert!(detector.classify_batch(&flat, 0).is_err());
        assert!(detector.classify_batch(&flat[..flat.len() - 1], width).is_err() || width == 1);

        // the arena paths reproduce the allocating paths verdict-for-verdict
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
        for (row, _) in benign.iter().take(4) {
            assert_eq!(
                detector.classify_into(row, &mut arena).unwrap(),
                detector.classify(row).unwrap()
            );
            let want = detector.predictor().feedback_reward(row).to_bits();
            assert_eq!(arena.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), [want]);
        }
        for (row, _) in attacks.test_result.adversarial.iter().take(4) {
            assert_eq!(
                detector.classify_into(row, &mut arena).unwrap(),
                detector.classify(row).unwrap()
            );
        }
        assert!(detector.classify_batch_into(&flat, 0, &mut arena).is_err());

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
        detector.set_quarantine_cap(2);
        let evicted_before = detector.quarantine_evicted();
        for row in &flagged_rows {
            detector.classify(row).unwrap();
        }
        assert_eq!(detector.quarantined(), 2);
        assert_eq!(
            detector.quarantine_evicted() - evicted_before,
            flagged_rows.len() as u64 - 2
        );
        // the retained rows are the two newest, in insertion order
        let kept = detector.take_quarantine();
        assert_eq!(kept.row(0).unwrap(), flagged_rows[flagged_rows.len() - 2]);
        assert_eq!(kept.row(1).unwrap(), flagged_rows[flagged_rows.len() - 1]);

        // lowering the cap below the current fill evicts immediately —
        // the ring must never sit over-cap waiting for the next push
        detector.set_quarantine_cap(0);
        for row in &flagged_rows {
            detector.classify(row).unwrap();
        }
        assert_eq!(detector.quarantined(), flagged_rows.len());
        let evicted_before = detector.quarantine_evicted();
        detector.set_quarantine_cap(1);
        assert_eq!(detector.quarantined(), 1, "shrink must evict at once");
        assert_eq!(
            detector.quarantine_evicted() - evicted_before,
            flagged_rows.len() as u64 - 1
        );
        assert_eq!(detector.quarantine_cap(), 1);
        let kept = detector.take_quarantine();
        assert_eq!(kept.row(0).unwrap(), flagged_rows[flagged_rows.len() - 1]);

        // the refreshed-generation constructor shares the predictor and
        // reproduces the original verdicts
        let rebuilt = AdaptiveDetector::with_shared_predictor(
            detector.predictor_handle(),
            detector.controller().clone(),
            hmd_ml::classical_models(),
            bundle.feature_names.clone(),
        );
        assert!(rebuilt.is_ok(), "shared-predictor assembly failed");
    }

    #[test]
    fn verdict_attack_classification() {
        assert!(Verdict::AdversarialAttack.is_attack());
        assert!(Verdict::MalwareAttack.is_attack());
        assert!(!Verdict::Benign.is_attack());
    }
}
