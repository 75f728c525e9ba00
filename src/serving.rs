//! The long-running serving mode: streaming detection sessions that
//! push simulated HPC traffic through the deployed
//! [`AdaptiveDetector`](hmd_core::AdaptiveDetector) while the `hmd-obs`
//! subsystem watches.
//!
//! One [`ServingSession`] is one steppable shard of the loop:
//!
//! * traffic — a seeded [`WindowStream`] of benign/malware windows, plus
//!   adversarial samples replayed from the LowProFool pool at a
//!   configurable (optionally bursting) rate;
//! * detection — feature-select + scale into a reusable scratch row,
//!   classify up to [`ServingConfig::batch`] windows per detector call
//!   ([`ServingSession::step_batch`]), time the inference;
//! * monitoring — record into the sliding-window [`ServingMonitor`],
//!   periodically evaluate the [`AlertEngine`] and run the integrity
//!   monitor over the windowed confusion, escalating unstable
//!   assessments into windowed drift events.
//!
//! [`FleetSession`] is the only serving owner: it builds 1..N
//! independently seeded shards around one trained [`ServingArtifacts`]
//! (and its quarantine ring), runs them on one OS thread each, owns the
//! model-lifecycle [`ModelHub`] and its retrainer thread, and serves
//! the merged shards behind a single [`HttpServer`] answering
//! `/metrics`, `/healthz`, `/snapshot.json`, `/history.json`,
//! `/traces.json`, `/dashboard`, `/incidents` and `/quit` from a worker
//! pool with keep-alive. A one-shard fleet replays a standalone
//! session byte for byte; a standalone session never retrains.
//!
//! # Model lifecycle
//!
//! With [`ServingConfig::retrain_every`] set, the fleet closes the
//! paper's arms-race loop (Figure 1) online: a [`ModelHub`] coordinates
//! a background retrainer thread that drains the shared quarantine ring
//! at seeded sample boundaries, absorbs it into the living training
//! database ([`Framework::retraining_round`]), refits the model zoo,
//! re-derives the SLO calibration, re-hashes the promoted models into a
//! [`ModelRegistry`], and atomically publishes the refreshed
//! [`ServingArtifacts`] as the next generation. Every generation's
//! detector is built by
//! [`next_generation`](hmd_core::AdaptiveDetector::next_generation), so
//! the whole lineage shares one quarantine ring (bounded at
//! [`QUARANTINE_CAP`](hmd_core::detector::QUARANTINE_CAP) rows) and one
//! lifetime eviction count. Shards rendezvous at each boundary and
//! hot-swap their `Arc` (re-warming their inference arenas) without
//! dropping a window; `/metrics` exposes the deployed generation and
//! swap count.
//!
//! # Stream time
//!
//! Each shard advances a logical clock by [`ServingConfig::tick_ns`]
//! per sample (default: the paper's 10 ms sampling period) and drives
//! every window and alert off that clock. Alert firing and resolution
//! are therefore a pure function of the seed — testable without sleeps.
//!
//! # Determinism
//!
//! Monitoring observes and never feeds back: every verdict (pinned by
//! [`ServingOutcome::digest`]) is a pure function of the row and the
//! model generation, traced or untraced, at any batch size and thread
//! count — `tests/determinism.rs` checks each served verdict against
//! the reference path. Batching preserves verdicts
//! bit-for-bit because the blocked matmul's per-element accumulation
//! order is row-count-invariant.
//!
//! # One inference path
//!
//! Every session warms up a per-shard [`hmd_core::InferArena`] sized
//! from the model topology and [`ServingConfig::batch`], and every
//! window — [`ServingSession::step`] is a batch of one — is classified
//! by [`classify_batch_into`](hmd_core::AdaptiveDetector::classify_batch_into)
//! inside those preallocated buffers. The detector's only other
//! decision body is the reference path,
//! [`classify_explain`](hmd_core::AdaptiveDetector::classify_explain),
//! which scores one row through the allocating Tensor forward pass. It stays
//! because it shares no code with the arena path but the matmul
//! kernel: forensic replay and the determinism suite check every
//! served verdict and critic value against it, bit for bit.
//!
//! With a replay ring ([`ServingConfig::replay`]) standing in for live
//! traffic synthesis the whole steady-state loop — draw, classify,
//! monitor, alert, and integrity checks included — performs zero heap
//! allocations per window; `tests/alloc.rs` proves it under a counting
//! global allocator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use hmd_core::framework::{PROBE_BATCH, SERVING_BASELINE};
use hmd_core::{CoreError, Framework, FrameworkConfig, InferArena, ServingArtifacts, Verdict};
use hmd_integrity::{MetricMonitor, ModelRegistry};
use hmd_ml::{classical_models, BinaryMetrics, Classifier, ConfusionMatrix};
use hmd_obs::history::FINE_EVERY;
use hmd_obs::{
    append_incident_series, append_promotion_series, default_rules, history_json,
    render_metrics_fleet, AlertEngine, AlertTransition, HistoryAccumulator, HttpServer,
    MetricsHistory, MonitorSnapshot, Response, SampleRecord, ServingMonitor, SloKind, SloRule,
    TierSnapshot, WindowConfig, DASHBOARD_HTML,
};
use hmd_tabular::{Dataset, StandardScaler};
use hmd_rl::ConstraintKind;
use hmd_sim::{StreamConfig, WindowStream};
use hmd_telemetry::clock;
use hmd_util::json::Json;
use hmd_util::rng::prelude::*;

use crate::recorder::{
    self, FlightRecorder, IncidentBundle, IncidentMonitor, IncidentTrigger, TraceReason,
    TraceSnapshot, TraceStore, WindowTrace,
};

/// A phase of elevated adversarial traffic.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Burst {
    /// Burst start, as a fraction of the sample budget.
    pub start: f64,
    /// Burst end (exclusive), as a fraction of the sample budget.
    pub end: f64,
    /// Probability that a burst-phase sample is adversarial.
    pub adv_fraction: f64,
}

/// Configuration of one serving session.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Training-time configuration (corpus, attack, predictor, …).
    pub framework: FrameworkConfig,
    /// The constraint the controller deploys under.
    /// [`ConstraintKind::BestDetection`] is latency-independent and
    /// therefore fully deterministic.
    pub kind: ConstraintKind,
    /// Samples to stream before the session completes.
    pub samples: usize,
    /// Malware fraction of the *streamed* (non-adversarial) traffic.
    pub malware_fraction: f64,
    /// Baseline probability that a sample is drawn from the adversarial
    /// pool instead of the stream.
    pub adv_fraction: f64,
    /// Optional adversarial burst phase.
    pub burst: Option<Burst>,
    /// Stream-time nanoseconds per sample (paper: 10 ms per window).
    pub tick_ns: u64,
    /// Sliding-window shape for all monitor aggregates.
    pub window: WindowConfig,
    /// SLO rule set for the alert engine.
    pub rules: Vec<SloRule>,
    /// Evaluate alerts every this many samples.
    pub evaluate_every: usize,
    /// Run the integrity monitor over the windowed confusion every this
    /// many samples.
    pub integrity_every: usize,
    /// Clean windows classified before serving starts to re-record the
    /// integrity baseline on *deployment* traffic (the paper's
    /// scenario (a): baseline on legitimate data). The offline test
    /// split is tiny and optimistic — windows of one app instance land
    /// on both sides of the split — so a baseline taken there drifts
    /// against healthy live traffic. Zero keeps the offline baseline.
    pub calibration_samples: usize,
    /// Seed for traffic interleaving (stream + adversarial injection).
    pub stream_seed: u64,
    /// Samples classified per detector call: more than 1 sends the
    /// whole batch through one blocked matmul. Verdicts are identical
    /// at any batch size.
    pub batch: usize,
    /// When nonzero, pre-draw this many samples at construction and
    /// cycle through them instead of synthesizing live traffic. The
    /// replay ring removes the stream generator's per-app refill
    /// allocations from the loop, making the whole steady state
    /// allocation-free — the mode `tests/alloc.rs` and the substrates
    /// benchmark measure. Zero (the default) streams live traffic.
    pub replay: usize,
    /// When nonzero, run a quarantine-draining retraining round every
    /// this many samples per shard: shards rendezvous at each boundary
    /// while a background retrainer absorbs the drained quarantine into
    /// the training database, refits the zoo and hot-swaps the
    /// refreshed artifacts as the next model generation (see the module
    /// docs). The swap schedule is a pure function of the seed. Zero
    /// (the default) serves generation 0 forever. Only a
    /// [`FleetSession`] retrains; a standalone [`ServingSession`]
    /// rejects a nonzero value.
    pub retrain_every: usize,
    /// The seed [`quick`](Self::quick) was built from — recorded into
    /// incident bundles so forensic replay can rebuild the identical
    /// configuration (`quick(base_seed)` + the bundle's overrides).
    pub base_seed: u64,
    /// Flight-recorder ring capacity: each shard keeps the last this
    /// many served windows (row, critic value, routed model, verdict,
    /// generation, latency) in preallocated buffers and snapshots them
    /// into an [`IncidentBundle`] on every SLO alert fire edge. The
    /// ring holds no per-model probabilities, and recording copies the
    /// detector's own critic value: no inference, no allocation. At
    /// least 1; session assembly rejects zero.
    pub recorder: usize,
    /// Retain every published artifacts generation on the hub so
    /// [`ModelHub::artifacts_at`] can pin past generations after the
    /// run — the replay binary's way back to the exact models that
    /// served a bundle's windows. Off by default (it holds every
    /// retired zoo alive).
    pub retain_generations: bool,
}

/// Ceilings on the sizes a session allocates from its configuration:
/// the batch buffers, the replay ring and the flight-recorder ring.
/// An incident bundle is untrusted input, and without a ceiling a size
/// field in one makes `replay` abort on a failed allocation. Each sits
/// far above any size the repository serves at (batch 64, a
/// 4,096-sample replay ring, a 250-window recorder).
pub const MAX_BATCH: usize = 4096;
/// See [`MAX_BATCH`].
pub const MAX_REPLAY: usize = 1 << 20;
/// See [`MAX_BATCH`].
pub const MAX_RECORDER: usize = 1 << 16;
/// Ceiling on [`ServingConfig::calibration_samples`]: calibration
/// classifies that many windows before serving starts (and again at
/// every retraining round), so a bundle with a near-`usize::MAX`
/// budget would keep `replay` calibrating for ever. The repository
/// calibrates on 200.
pub const MAX_CALIBRATION: usize = 1 << 16;

/// The stream seed of shard `i` in a fleet: shard 0 keeps the base seed
/// (a one-shard fleet is exactly a [`ServingSession`]), later shards
/// decorrelate via a golden-ratio multiply.
#[must_use]
pub fn shard_stream_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl ServingConfig {
    /// A small, fast session: quick corpus, 600 samples at 10 ms ticks,
    /// a 100%-adversarial burst across the middle third, 2 s sliding
    /// window. The burst deterministically fires the
    /// `adversarial_flag_rate` SLO and the window slide resolves it.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        let mut framework = FrameworkConfig::quick(seed);
        // serving assesses windowed confusion on live traffic, whose mix
        // differs from the offline merged test set; only flag collapse
        framework.integrity_tolerance = 0.25;
        Self {
            framework,
            kind: ConstraintKind::BestDetection,
            samples: 600,
            malware_fraction: 0.3,
            adv_fraction: 0.02,
            // early enough that the drift/flag-rate windows slide clean
            // again before the budget runs out — the demo must recover
            burst: Some(Burst { start: 0.3, end: 0.5, adv_fraction: 1.0 }),
            tick_ns: 10_000_000, // 10 ms, the paper's sampling period
            window: WindowConfig::new(8, 250_000_000), // 2 s / 200 samples
            rules: default_rules(),
            evaluate_every: 20,
            integrity_every: 100,
            calibration_samples: 200,
            stream_seed: seed ^ 0x5452_4146, // "TRAF"
            batch: 1,
            replay: 0,
            retrain_every: 0,
            base_seed: seed,
            recorder: 64,
            retain_generations: false,
        }
    }

    /// Rejects a configuration no session can serve: a traffic
    /// fraction outside `[0, 1]`, an empty flight recorder, a batch,
    /// replay ring, recorder or calibration budget above its ceiling
    /// ([`MAX_BATCH`], [`MAX_REPLAY`], [`MAX_RECORDER`],
    /// [`MAX_CALIBRATION`]), or a sample budget whose
    /// stream clock (`samples × tick_ns`) overflows `u64`. Session
    /// assembly and [`IncidentBundle::parse`] (a bundle is untrusted
    /// input) both run it.
    pub(crate) fn check(&self) -> Result<(), CoreError> {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        if !unit(self.malware_fraction) {
            return Err(CoreError::Invalid("malware_fraction must be in [0, 1]"));
        }
        if !unit(self.adv_fraction) || self.burst.is_some_and(|b| !unit(b.adv_fraction)) {
            return Err(CoreError::Invalid("adv_fraction must be in [0, 1]"));
        }
        if self.recorder == 0 {
            return Err(CoreError::Invalid("the flight recorder must hold at least one window"));
        }
        if self.batch > MAX_BATCH {
            return Err(CoreError::Invalid("batch exceeds MAX_BATCH"));
        }
        if self.replay > MAX_REPLAY {
            return Err(CoreError::Invalid("replay exceeds MAX_REPLAY"));
        }
        if self.recorder > MAX_RECORDER {
            return Err(CoreError::Invalid("recorder exceeds MAX_RECORDER"));
        }
        if self.calibration_samples > MAX_CALIBRATION {
            return Err(CoreError::Invalid("calibration_samples exceeds MAX_CALIBRATION"));
        }
        let clock_end = u64::try_from(self.samples).ok().and_then(|s| s.checked_mul(self.tick_ns));
        if clock_end.is_none() {
            return Err(CoreError::Invalid("samples × tick_ns overflows the stream clock"));
        }
        Ok(())
    }

    /// Retraining rounds the sample budget schedules per shard:
    /// `⌈samples/every⌉ - 1`, since there is no boundary at the final
    /// sample. Zero without retraining.
    fn retrain_rounds(&self) -> usize {
        self.samples.saturating_sub(1).checked_div(self.retrain_every).unwrap_or(0)
    }

    /// Samples each shard of a fleet must classify before generation
    /// `g` has served a window. Sample `k` is served by generation
    /// `⌊k/E⌋` (see [`ModelHub`]), so that is `g × E + 1`. `None` when
    /// the schedule never publishes `g`: no retraining, or `g` past the
    /// budget's last boundary. Forensic replay re-runs a recorded fleet
    /// this far, not through a budget an incident bundle may inflate.
    #[must_use]
    pub fn samples_to_serve_generation(&self, g: u64) -> Option<usize> {
        let g = usize::try_from(g).ok()?;
        if g > self.retrain_rounds() {
            return None;
        }
        g.checked_mul(self.retrain_every)?.checked_add(1)
    }
}

/// What the deployment-traffic calibration pass observed: the
/// detector's confusion over clean (non-injected) streamed windows plus
/// how often the adversarial predictor flagged them. Besides
/// re-recording the integrity baseline, this is the evidence the
/// adaptive SLO derivation reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CalibrationReport {
    /// Confusion of the detector over the calibration stream.
    pub matrix: ConfusionMatrix,
    /// Calibration windows the adversarial predictor flagged.
    pub flagged: usize,
    /// Calibration windows classified.
    pub samples: usize,
    /// Rows the calibration pass pushed into the quarantine ring (and
    /// that were then discarded — calibration traffic is clean by
    /// construction and must never enter retraining). Surfaced as
    /// `hmd_serving_calibration_quarantined_total`.
    pub quarantined: usize,
}

impl CalibrationReport {
    /// Fraction of clean calibration traffic flagged as adversarial —
    /// the predictor's live false-flag floor.
    #[must_use]
    pub fn flag_rate(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.samples == 0 {
            0.0
        } else {
            self.flagged as f64 / self.samples as f64
        }
    }

    /// The detection-rate floor this deployment can honestly promise:
    /// calibrated true-positive rate minus slack, clamped to [0.30,
    /// 0.60] so a lucky calibration run cannot demand perfection and an
    /// unlucky one cannot excuse collapse.
    #[must_use]
    pub fn detection_floor(&self) -> f64 {
        (BinaryMetrics::from_confusion(&self.matrix).tpr - 0.15).clamp(0.30, 0.60)
    }

    /// The adversarial-flag-rate ceiling: a margin above the calibrated
    /// clean-traffic flag rate, clamped to [0.20, 0.45]. Below the base
    /// rate the alert would latch on healthy traffic; far above it an
    /// attack campaign would go unnoticed.
    #[must_use]
    pub fn flag_ceiling(&self) -> f64 {
        3.0f64.mul_add(self.flag_rate(), 0.1).clamp(0.20, 0.45)
    }

    /// Rewrites the detection-rate floor and flag-rate ceiling of a
    /// rule set in place with the calibrated thresholds, leaving every
    /// other rule (latency, drift) untouched.
    pub fn adapt_rules(&self, rules: &mut [SloRule]) {
        for rule in rules {
            match &mut rule.kind {
                SloKind::DetectionRateFloor(v) => *v = self.detection_floor(),
                SloKind::FlagRateCeiling(v) => *v = self.flag_ceiling(),
                _ => {}
            }
        }
    }
}

/// The most recent incident bundles a shard retains; older bundles are
/// evicted oldest-first. Incidents are rare (they require an alert fire
/// edge), so the bound exists to survive a flapping rule, not steady
/// state.
const MAX_INCIDENTS_PER_SHARD: usize = 8;

/// The state shared between the serving loop and HTTP scrape threads.
#[derive(Debug)]
struct Shared {
    monitor: ServingMonitor,
    engine: Mutex<AlertEngine>,
    /// Current stream time, published per sample.
    t_ns: AtomicU64,
    /// Set by the `/quit` endpoint.
    quit: AtomicBool,
    /// Incident bundles captured on alert fire edges, oldest first,
    /// bounded by [`MAX_INCIDENTS_PER_SHARD`].
    incidents: Mutex<Vec<Arc<IncidentBundle>>>,
    /// Lifetime incidents captured (eviction never decrements).
    incidents_total: AtomicU64,
    /// Clean calibration rows the adversarial predictor flagged on this
    /// shard's calibration pass (quarantined, then discarded).
    calibration_quarantined: AtomicU64,
    /// Multi-resolution metrics history: one point per [`FINE_EVERY`]
    /// windows, folding fine → mid → coarse. Served at `/history.json`.
    history: MetricsHistory,
    /// Promoted per-window stage traces (flagged + latency tail),
    /// served at `/traces.json` and embedded into incident bundles.
    traces: Mutex<TraceStore>,
}

impl Shared {
    fn engine(&self) -> MutexGuard<'_, AlertEngine> {
        // evaluate() can only panic on a poisoned telemetry sink, never
        // mid-update of the firing vector
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn incidents(&self) -> MutexGuard<'_, Vec<Arc<IncidentBundle>>> {
        self.incidents.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn traces(&self) -> MutexGuard<'_, TraceStore> {
        self.traces.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn trace_snapshot(&self) -> TraceSnapshot {
        let store = self.traces();
        TraceSnapshot { flagged: store.flagged(), tail: store.tail() }
    }

    fn push_incident(&self, bundle: IncidentBundle) {
        let mut store = self.incidents();
        if store.len() == MAX_INCIDENTS_PER_SHARD {
            store.remove(0);
        }
        store.push(Arc::new(bundle));
        drop(store);
        self.incidents_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Rendezvous state guarded by the hub's barrier mutex.
#[derive(Debug)]
struct HubBarrier {
    /// Shards currently registered with the hub.
    active: usize,
    /// Shards waiting at the current retraining boundary.
    arrived: usize,
    /// Highest generation published so far.
    published: usize,
    /// The SLO rule set of the published generation (recalibrated at
    /// every swap when the config carries a calibration budget).
    rules: Vec<SloRule>,
    /// The living training database retraining rounds extend.
    training: Dataset,
    /// A failed round poisons the loop: every waiter unblocks with the
    /// error instead of silently serving a stale generation.
    failed: Option<CoreError>,
}

/// The model-lifecycle coordinator behind a retraining fleet: the
/// generation-tagged publication slot every shard reads at its
/// retraining boundaries, the rendezvous state the shards and the
/// background retrainer synchronize on, and the integrity registry
/// re-hashed at every promotion.
///
/// # Swap protocol
///
/// The schedule is seeded, not timed: with `retrain_every = E`, sample
/// `k` of every shard must be classified by generation `⌊k/E⌋`. A shard
/// reaching a boundary arrives at the barrier; once every active shard
/// has arrived, the retrainer drains the shared quarantine (sorted into
/// a canonical order, because shards race pushing into the ring), runs
/// [`Framework::retraining_round`], assembles fresh [`ServingArtifacts`]
/// around [`next_generation`](hmd_core::AdaptiveDetector::next_generation)
/// — the *shared* adversarial predictor and quarantine ring and the
/// *cloned* constraint controller (selection preserved; latency is never
/// re-profiled, which would be wall-clock and break determinism),
/// re-derives the SLO calibration, re-hashes the promoted zoo into the
/// [`ModelRegistry`] under its generation tag, publishes, and wakes the
/// shards — which swap their `Arc`, re-warm their arenas, and resume.
/// No window is dropped: boundary samples wait for the publication
/// instead of being skipped, and between boundaries the only cost is
/// one modulo check per batch.
#[derive(Debug)]
pub struct ModelHub {
    /// The published artifacts generation — tiny critical sections only.
    current: Mutex<Arc<ServingArtifacts>>,
    barrier: Mutex<HubBarrier>,
    arrivals: Condvar,
    /// Published generation number, mirrored out of the barrier for
    /// lock-free scraping.
    generation: AtomicU64,
    /// Promotions that actually swapped models (a boundary with an
    /// empty quarantine bumps the generation without swapping).
    swaps: AtomicU64,
    /// Quarantined rows absorbed into the training database, lifetime.
    absorbed: AtomicU64,
    registry: ModelRegistry,
    /// Clean calibration rows the per-generation recalibration passes
    /// flagged (quarantined, then discarded — see
    /// [`CalibrationReport::quarantined`]).
    cal_quarantined: AtomicU64,
    /// Every published artifacts generation, index = generation, when
    /// [`ServingConfig::retain_generations`] asks for it (forensic
    /// replay pins past generations through this). Empty otherwise.
    history: Mutex<Vec<Arc<ServingArtifacts>>>,
    retain_generations: bool,
    retrain_every: usize,
    /// Rounds the sample budget schedules
    /// ([`ServingConfig::retrain_rounds`]).
    rounds: usize,
    /// Template for per-generation recalibration (stream seed is
    /// re-derived per generation).
    cal_cfg: ServingConfig,
    feature_idx: Vec<usize>,
}

impl ModelHub {
    /// The hub of a retraining fleet (`cfg.retrain_every > 0`).
    fn new(
        cfg: &ServingConfig,
        artifacts: &Arc<ServingArtifacts>,
        feature_idx: &[usize],
    ) -> Result<Arc<Self>, CoreError> {
        let rounds = cfg.retrain_rounds();
        let registry = ModelRegistry::new();
        register_generation(&registry, artifacts, 0)?;
        Ok(Arc::new(Self {
            current: Mutex::new(Arc::clone(artifacts)),
            barrier: Mutex::new(HubBarrier {
                active: 0,
                arrived: 0,
                published: 0,
                rules: cfg.rules.clone(),
                training: artifacts.training.clone(),
                failed: None,
            }),
            arrivals: Condvar::new(),
            generation: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            absorbed: AtomicU64::new(0),
            registry,
            cal_quarantined: AtomicU64::new(0),
            history: Mutex::new(if cfg.retain_generations {
                vec![Arc::clone(artifacts)]
            } else {
                Vec::new()
            }),
            retain_generations: cfg.retain_generations,
            retrain_every: cfg.retrain_every,
            rounds,
            cal_cfg: cfg.clone(),
            feature_idx: feature_idx.to_vec(),
        }))
    }

    fn lock_barrier(&self) -> MutexGuard<'_, HubBarrier> {
        self.barrier.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The currently published artifacts generation.
    #[must_use]
    pub fn current(&self) -> Arc<ServingArtifacts> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The published model generation (0 until the first promotion).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Promotions that swapped a refreshed model zoo in.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Quarantined rows absorbed into the training database, lifetime.
    #[must_use]
    pub fn absorbed(&self) -> u64 {
        self.absorbed.load(Ordering::Relaxed)
    }

    /// Lifetime quarantine evictions across every detector generation
    /// (they all share one ring).
    #[must_use]
    pub fn quarantine_evicted(&self) -> u64 {
        self.current().detector.quarantine_evicted()
    }

    /// The integrity registry re-hashed at every promotion: one record
    /// per deployed model, `deployed_at` = its generation.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Clean calibration rows the recalibration passes flagged and
    /// discarded, across every retraining round.
    #[must_use]
    pub fn calibration_quarantined(&self) -> u64 {
        self.cal_quarantined.load(Ordering::Relaxed)
    }

    /// The artifacts that served generation `g`, when the hub retains
    /// history ([`ServingConfig::retain_generations`]); `None` for an
    /// unknown generation or a hub that does not retain. A retained
    /// detector still shares the live quarantine ring: classifying
    /// through it (as forensic replay does) pushes its flagged rows
    /// there, which matters only to a fleet that retrains further.
    #[must_use]
    pub fn artifacts_at(&self, g: u64) -> Option<Arc<ServingArtifacts>> {
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        usize::try_from(g).ok().and_then(|i| history.get(i).cloned())
    }

    /// The retraining period, in samples per shard.
    #[must_use]
    pub fn retrain_every(&self) -> usize {
        self.retrain_every
    }

    fn register_shard(&self) {
        self.lock_barrier().active += 1;
    }

    fn retire_shard(&self) {
        let mut b = self.lock_barrier();
        b.active = b.active.saturating_sub(1);
        drop(b);
        self.arrivals.notify_all();
    }

    /// Blocks a shard at a retraining boundary until generation `want`
    /// is published, then returns the published artifacts and rules.
    fn await_generation(
        &self,
        want: usize,
    ) -> Result<(Arc<ServingArtifacts>, Vec<SloRule>), CoreError> {
        let mut b = self.lock_barrier();
        if b.published < want && b.failed.is_none() {
            b.arrived += 1;
            self.arrivals.notify_all();
            while b.published < want && b.failed.is_none() {
                b = self.arrivals.wait(b).unwrap_or_else(PoisonError::into_inner);
            }
        }
        if let Some(e) = &b.failed {
            return Err(e.clone());
        }
        Ok((self.current(), b.rules.clone()))
    }

    /// The retrainer thread body: wait for every active shard to arrive
    /// at the next boundary, run the round, publish, repeat until the
    /// schedule is exhausted, a round fails, or every shard retires.
    fn retrainer_loop(&self) {
        let mut b = self.lock_barrier();
        loop {
            if b.failed.is_some() || b.published >= self.rounds || b.active == 0 {
                break;
            }
            if b.arrived < b.active {
                b = self.arrivals.wait(b).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let generation = b.published + 1;
            if let Err(e) = self.run_round(&mut b, generation) {
                b.failed = Some(e);
            }
            b.published = generation;
            b.arrived = 0;
            self.generation.store(generation as u64, Ordering::Relaxed);
            self.arrivals.notify_all();
        }
        drop(b);
        self.arrivals.notify_all();
    }

    /// One retraining round: drain → absorb → refit → recalibrate →
    /// re-hash → swap. Every active shard is parked at the barrier
    /// while this runs, so the quarantine ring is quiescent.
    fn run_round(&self, b: &mut HubBarrier, generation: usize) -> Result<(), CoreError> {
        let _span = hmd_telemetry::span("serving.retraining_round");
        let old = self.current();
        let mut absorbed = 0usize;
        let mut swapped = false;
        // an empty ring means this boundary has nothing to learn from:
        // the generation still advances (the schedule is seeded, not
        // conditional) but the deployed models are untouched
        if old.detector.quarantined() > 0 {
            let drained = canonical_quarantine_order(&old.detector.take_quarantine())?;
            let mut models = classical_models();
            absorbed = Framework::retraining_round(&mut models, &mut b.training, &drained)?;
            let detector = old.detector.next_generation(models)?;
            let monitor = MetricMonitor::new(self.cal_cfg.framework.integrity_tolerance);
            let fresh = Arc::new(ServingArtifacts {
                bundle: old.bundle.clone(),
                attacks: old.attacks.clone(),
                detector,
                monitor,
                kind: old.kind,
                training: b.training.clone(),
            });
            if self.cal_cfg.calibration_samples > 0 {
                // re-derive the SLO calibration for the refreshed
                // detector on a per-generation stream, recording its
                // integrity baseline and rewriting the adaptive
                // thresholds the shards will install at pickup
                let mut cal = self.cal_cfg.clone();
                cal.stream_seed = generation_seed(self.cal_cfg.stream_seed, generation);
                let report = calibrate(&fresh, &cal, &self.feature_idx)?;
                self.cal_quarantined.fetch_add(report.quarantined as u64, Ordering::Relaxed);
                report.adapt_rules(&mut b.rules);
            } else if let Some(baseline) = old.monitor.baseline(SERVING_BASELINE) {
                // no calibration budget: the prior baseline carries over
                fresh.monitor.record_baseline(SERVING_BASELINE, baseline);
            }
            // the promoted zoo is re-hashed under its generation tag
            // before any shard can serve it
            register_generation(&self.registry, &fresh, generation as u64)?;
            *self.current.lock().unwrap_or_else(PoisonError::into_inner) = fresh;
            self.swaps.fetch_add(1, Ordering::Relaxed);
            self.absorbed.fetch_add(absorbed as u64, Ordering::Relaxed);
            swapped = true;
        }
        if self.retain_generations {
            // history[g] = the artifacts serving generation g — the
            // current ones even when an empty quarantine skipped the
            // swap, so replay can pin any generation unconditionally
            let current = self.current();
            self.history.lock().unwrap_or_else(PoisonError::into_inner).push(current);
        }
        if hmd_telemetry::enabled() {
            hmd_telemetry::event(
                "serving.model_promotion",
                Json::Obj(vec![
                    ("generation".to_owned(), Json::UInt(generation as u64)),
                    ("swapped".to_owned(), Json::Bool(swapped)),
                    ("absorbed".to_owned(), Json::UInt(absorbed as u64)),
                    ("training_rows".to_owned(), Json::UInt(b.training.len() as u64)),
                ]),
            );
        }
        Ok(())
    }
}

/// Spawns the hub's background retrainer. Exactly one per hub; spawned
/// only after every shard registered (a hub with zero active shards
/// exits immediately).
fn spawn_retrainer(hub: Arc<ModelHub>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("hmd-serving-retrainer".into())
        .spawn(move || hub.retrainer_loop())
        .expect("spawn retrainer thread")
}

/// The recalibration stream seed of a generation — decorrelated from
/// the base calibration stream and from the shard streams (which use
/// the golden-ratio constant).
fn generation_seed(base: u64, generation: usize) -> u64 {
    base ^ (generation as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The canonical retraining order of a drained quarantine:
/// lexicographic over feature values. Shards race pushing into the
/// shared ring, so arrival order is scheduler-dependent; sorting makes
/// the merged training set — and every model refit on it — a pure
/// function of the *set* of quarantined rows.
fn canonical_quarantine_order(q: &Dataset) -> Result<Dataset, CoreError> {
    let mut idx: Vec<usize> = (0..q.len()).collect();
    idx.sort_by(|&a, &b| match (q.row(a), q.row(b)) {
        (Ok(ra), Ok(rb)) => ra
            .iter()
            .zip(rb)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal),
        _ => std::cmp::Ordering::Equal,
    });
    Ok(q.subset(&idx)?)
}

/// Number of probe rows hashed into each model fingerprint.
const FINGERPRINT_PROBE_ROWS: usize = 32;

/// Behavioral fingerprint of one model: its probability surface over a
/// fixed probe of training rows, serialized little-endian. The zoo has
/// no byte-level serialization; what serving trusts *is* the
/// probability surface, so hashing it catches any change in deployed
/// behavior.
fn model_fingerprint(model: &dyn Classifier, probe: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(probe.len() * 8);
    for (row, _) in probe {
        let p = model.predict_proba_row(row).unwrap_or(f64::NAN);
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    bytes
}

/// Registers every deployed model of a generation in the integrity
/// registry, `deployed_at` = the generation number.
fn register_generation(
    registry: &ModelRegistry,
    artifacts: &ServingArtifacts,
    generation: u64,
) -> Result<(), CoreError> {
    let probe_idx: Vec<usize> =
        (0..artifacts.bundle.train.len().min(FINGERPRINT_PROBE_ROWS)).collect();
    let probe = artifacts.bundle.train.subset(&probe_idx)?;
    for model in artifacts.detector.models() {
        registry.register(model.name(), &model_fingerprint(model.as_ref(), &probe), generation);
    }
    Ok(())
}

/// Summary of a finished (or in-flight) session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingOutcome {
    /// Samples classified so far.
    pub processed: usize,
    /// FNV-1a digest over the verdict sequence — the determinism pin.
    pub digest: u64,
    /// Verdict counts: `[adversarial, malware, benign]`.
    pub verdicts: [u64; 3],
    /// Alert fire+resolve edges so far.
    pub alert_transitions: u64,
    /// Whether `/healthz` would currently report healthy.
    pub healthy: bool,
    /// Integrity drift events escalated into the window.
    pub drift_events: u64,
    /// The model generation this shard finished on (0 when retraining
    /// is off).
    pub generation: u64,
}

/// Wall-clock timings of one served window, as handed to
/// `record_verdict`: end-to-end and model-only latency plus the
/// (batch-amortized) durations of the draw, transform and critic
/// stages. `critic_ns` is the part of `model_latency_ns` the inference
/// arena timed in the critic forward pass.
#[derive(Clone, Copy, Debug)]
struct StageTiming {
    latency_ns: u64,
    model_latency_ns: u64,
    draw_ns: u64,
    transform_ns: u64,
    critic_ns: u64,
}

/// A streaming detection session — one steppable shard of the serving
/// loop. It serves no HTTP and never retrains on its own: a
/// [`FleetSession`] owns both. See the module docs.
#[derive(Debug)]
pub struct ServingSession {
    cfg: ServingConfig,
    artifacts: Arc<ServingArtifacts>,
    stream: WindowStream,
    /// Indices of the engineered features within the raw stream row.
    feature_idx: Vec<usize>,
    /// Reusable engineered-row buffer — the hot loop never allocates it.
    scratch: Vec<f64>,
    /// Reusable flat batch buffer for [`step_batch`](Self::step_batch).
    batch_rows: Vec<f64>,
    /// Ground truth per batched sample, parallel to `batch_rows`.
    batch_truth: Vec<bool>,
    /// The warmed-up per-shard inference arena every classification
    /// runs in.
    arena: InferArena,
    /// What calibration observed, when it ran (see
    /// [`ServingConfig::calibration_samples`]).
    calibration: Option<CalibrationReport>,
    /// Pre-drawn replay traffic, `replay × width` row-major (see
    /// [`ServingConfig::replay`]).
    replay_rows: Vec<f64>,
    /// Ground truth per replay row.
    replay_truth: Vec<bool>,
    replay_cursor: usize,
    rng: StdRng,
    adv_cursor: usize,
    processed: usize,
    digest: u64,
    verdicts: [u64; 3],
    drift_events: u64,
    shared: Arc<Shared>,
    /// The fleet's model-lifecycle hub, when retraining is on (see
    /// [`ServingConfig::retrain_every`]).
    hub: Option<Arc<ModelHub>>,
    /// The model generation this shard currently serves.
    generation: usize,
    /// Whether this shard already deregistered from the hub.
    retired: bool,
    /// The always-on flight recorder ring (see
    /// [`ServingConfig::recorder`]).
    recorder_ring: FlightRecorder,
    /// This shard's index within its fleet (0 for a standalone
    /// session) — stamped into incident bundle ids.
    shard: usize,
    /// Fleet width the shard runs under (1 standalone).
    n_shards: usize,
    /// The fleet base configuration's calibration budget. Shards > 0
    /// run with `calibration_samples: 0` (shard 0 calibrates for the
    /// fleet), but a bundle must record the *base* value replay
    /// rebuilds from.
    base_calibration_samples: usize,
    /// Incidents captured by this shard so far (bundle sequence).
    incident_seq: u64,
    /// Session-local history accumulator, flushed into the shared
    /// [`MetricsHistory`] every [`FINE_EVERY`] windows.
    hist_acc: HistoryAccumulator,
    /// Running per-window latency maximum — a window exceeding it is
    /// promoted into the latency-tail trace ring (wall-clock).
    latency_tail_max: u64,
    /// Wall-clock nanoseconds the current draw spent in the scaler
    /// transform, accumulated by [`draw_sample`](Self::draw_sample) so
    /// the stage trace can split draw from transform.
    transform_ns: u64,
}

impl ServingSession {
    /// Trains all components ([`Framework::prepare_serving`]) and
    /// assembles the session. Expensive: runs phases 1–5.
    ///
    /// # Errors
    ///
    /// Propagates training failures; rejects what
    /// [`with_artifacts`](Self::with_artifacts) rejects, before training.
    pub fn start(cfg: ServingConfig) -> Result<Self, CoreError> {
        let _span = hmd_telemetry::span("serving.start");
        check_standalone(&cfg)?;
        let artifacts = Arc::new(Framework::new(cfg.framework.clone()).prepare_serving(cfg.kind)?);
        Self::with_artifacts(cfg, artifacts)
    }

    /// Assembles a standalone session around already-trained artifacts
    /// — the cheap path benchmarks use to share one training run.
    ///
    /// # Errors
    ///
    /// Rejects a configuration with retraining on (only a
    /// [`FleetSession`] retrains), one [`ServingConfig`] cannot serve
    /// (an empty flight recorder, an overflowing stream clock), and a
    /// stream that does not carry every engineered feature.
    pub fn with_artifacts(
        cfg: ServingConfig,
        artifacts: Arc<ServingArtifacts>,
    ) -> Result<Self, CoreError> {
        check_standalone(&cfg)?;
        let base_calibration = cfg.calibration_samples;
        Self::assemble(cfg, artifacts, 0, 1, base_calibration)
    }

    /// Builds shard `shard` of an `n_shards` fleet around `artifacts`,
    /// calibrating first when the config carries a calibration budget.
    /// The shard joins no [`ModelHub`]; the fleet hands it one.
    fn assemble(
        mut cfg: ServingConfig,
        artifacts: Arc<ServingArtifacts>,
        shard: usize,
        n_shards: usize,
        base_calibration_samples: usize,
    ) -> Result<Self, CoreError> {
        cfg.check()?;
        let stream = traffic_stream(&cfg, cfg.stream_seed);
        let stream_names = stream.feature_names();
        let feature_idx: Vec<usize> = artifacts
            .bundle
            .feature_names
            .iter()
            .map(|want| stream_names.iter().position(|n| n == want))
            .collect::<Option<_>>()
            .ok_or(CoreError::MissingFeature)?;
        let width = feature_idx.len();
        let scratch = vec![0.0; width];
        let calibration = if cfg.calibration_samples > 0 {
            let report = calibrate(&artifacts, &cfg, &feature_idx)?;
            // adaptive SLOs: replace the stock detection-rate floor and
            // flag-rate ceiling with thresholds this deployment's own
            // calibration traffic supports
            report.adapt_rules(&mut cfg.rules);
            Some(report)
        } else {
            None
        };
        let shared = Arc::new(Shared {
            monitor: ServingMonitor::with_shard(cfg.window, shard),
            engine: Mutex::new(AlertEngine::new(cfg.rules.clone())),
            t_ns: AtomicU64::new(0),
            quit: AtomicBool::new(false),
            incidents: Mutex::new(Vec::new()),
            incidents_total: AtomicU64::new(0),
            calibration_quarantined: AtomicU64::new(
                calibration.map_or(0, |c| c.quarantined as u64),
            ),
            history: MetricsHistory::new(),
            traces: Mutex::new(TraceStore::new()),
        });
        let rng = StdRng::seed_from_u64(cfg.stream_seed ^ 0x414456); // "ADV"
        let arena = artifacts.detector.warmup(width, cfg.batch.max(1));
        let recorder_ring = FlightRecorder::warmup(&artifacts.detector, width, cfg.recorder);
        let mut session = Self {
            batch_rows: Vec::with_capacity(cfg.batch.max(1) * width),
            batch_truth: Vec::with_capacity(cfg.batch.max(1)),
            replay_rows: Vec::with_capacity(cfg.replay * width),
            replay_truth: Vec::with_capacity(cfg.replay),
            replay_cursor: 0,
            cfg,
            artifacts,
            stream,
            feature_idx,
            scratch,
            arena,
            calibration,
            rng,
            adv_cursor: 0,
            processed: 0,
            digest: recorder::DIGEST_SEED,
            verdicts: [0; 3],
            drift_events: 0,
            shared,
            hub: None,
            generation: 0,
            retired: false,
            recorder_ring,
            shard,
            n_shards,
            base_calibration_samples,
            incident_seq: 0,
            hist_acc: HistoryAccumulator::new(),
            latency_tail_max: 0,
            transform_ns: 0,
        };
        for k in 0..session.cfg.replay {
            let truth = session.draw_sample(k)?;
            session.replay_rows.extend_from_slice(&session.scratch);
            session.replay_truth.push(truth);
        }
        Ok(session)
    }

    /// At a retraining boundary (`processed` a positive multiple of the
    /// hub's period, short of the budget), rendezvous with the
    /// retrainer and adopt the published generation: swap the artifacts
    /// `Arc`, re-warm the inference arena for the refreshed models, and
    /// install the re-derived SLO thresholds. Between boundaries this
    /// is one modulo check.
    fn sync_generation(&mut self) -> Result<(), CoreError> {
        let Some(hub) = &self.hub else { return Ok(()) };
        let every = hub.retrain_every;
        if self.processed == 0
            || self.processed >= self.cfg.samples
            || !self.processed.is_multiple_of(every)
        {
            return Ok(());
        }
        let want = self.processed / every;
        if want <= self.generation {
            return Ok(());
        }
        let (artifacts, rules) = Arc::clone(hub).await_generation(want)?;
        if !Arc::ptr_eq(&artifacts, &self.artifacts) {
            // hot-swap: the refreshed detector needs a freshly warmed
            // arena (scratch is sized per model instance)
            self.artifacts = artifacts;
            self.arena =
                self.artifacts.detector.warmup(self.feature_idx.len(), self.cfg.batch.max(1));
        }
        self.shared.engine().set_rules(&rules);
        self.cfg.rules = rules;
        self.generation = want;
        Ok(())
    }

    /// Draws the traffic for sample `idx` into `scratch` (engineered,
    /// scaled) and returns its ground truth. Consumes exactly the same
    /// RNG/stream/pool state regardless of how samples are grouped into
    /// batches — the foundation of batch-size-invariant digests.
    fn draw_sample(&mut self, idx: usize) -> Result<bool, CoreError> {
        #[allow(clippy::cast_precision_loss)]
        let progress = idx as f64 / self.cfg.samples as f64;
        let adv_p = match self.cfg.burst {
            Some(b) if (b.start..b.end).contains(&progress) => b.adv_fraction,
            _ => self.cfg.adv_fraction,
        };
        // drawn unconditionally so traffic is independent of pool size
        let inject = self.rng.random::<f64>() < adv_p;
        let pool = &self.artifacts.attacks.train_result.adversarial;
        if inject && !pool.is_empty() {
            let row = pool.row(self.adv_cursor % pool.len())?;
            self.adv_cursor += 1;
            self.scratch.copy_from_slice(row);
            return Ok(true);
        }
        let w = self.stream.next().expect("stream is endless");
        self.transform_ns += engineer_row(
            &self.artifacts.bundle.scaler,
            &w.values,
            &self.feature_idx,
            &mut self.scratch,
        )?;
        Ok(w.is_malware())
    }

    /// Fills `scratch` with the traffic for sample `idx`: the pre-drawn
    /// replay ring when one exists (a `memcpy`, no allocation), live
    /// synthesis otherwise.
    fn next_sample(&mut self, idx: usize) -> Result<bool, CoreError> {
        if self.replay_truth.is_empty() {
            return self.draw_sample(idx);
        }
        let width = self.scratch.len();
        let k = self.replay_cursor % self.replay_truth.len();
        self.replay_cursor += 1;
        self.scratch.copy_from_slice(&self.replay_rows[k * width..(k + 1) * width]);
        Ok(self.replay_truth[k])
    }

    /// The bookkeeping half of one sample: flight-recorder write,
    /// digest, counters, clock, monitoring, history and stage-trace
    /// promotion — identical at every batch size.
    /// `row` is the engineered, scaled input the verdict
    /// was served for and `adv_score` the critic value the detector
    /// decided on; the ring copies both, allocation-free.
    ///
    /// Stage order matches [`recorder::TRACE_STAGES`]: draw, transform,
    /// critic and model happened in the caller (their timings arrive
    /// in `timing`), and this function times bookkeeping (ring write,
    /// digest, counters, clock publication) and record (monitor,
    /// history) itself.
    fn record_verdict(
        &mut self,
        row: &[f64],
        truth_attack: bool,
        verdict: Verdict,
        adv_score: f64,
        timing: StageTiming,
    ) {
        let sample = self.processed as u64;
        self.processed += 1;
        let now_ns = self.processed as u64 * self.cfg.tick_ns;
        let t_enter = clock::now_ns();
        let stamp = recorder::WindowStamp {
            sample,
            t_ns: now_ns,
            generation: self.generation as u64,
            model_latency_ns: timing.model_latency_ns,
        };
        let routed = self.artifacts.detector.controller().selected_model();
        self.recorder_ring.write(row, verdict, adv_score, routed, stamp);
        self.digest = recorder::digest_step(self.digest, verdict);
        self.verdicts[recorder::verdict_slot(verdict) as usize] += 1;
        self.shared.t_ns.store(now_ns, Ordering::Relaxed);
        let t_bookkept = clock::now_ns();
        self.observe(now_ns, sample, truth_attack, verdict, timing, adv_score);
        let t_record = clock::now_ns();
        // cumulative stage ends — monotone by construction
        let mut stage_ns = [0_u64; 6];
        stage_ns[0] = timing.draw_ns;
        stage_ns[1] = stage_ns[0].saturating_add(timing.transform_ns);
        stage_ns[2] = stage_ns[1].saturating_add(timing.critic_ns);
        stage_ns[3] =
            stage_ns[2].saturating_add(timing.model_latency_ns.saturating_sub(timing.critic_ns));
        stage_ns[4] = stage_ns[3].saturating_add(t_bookkept.saturating_sub(t_enter));
        stage_ns[5] = stage_ns[4].saturating_add(t_record.saturating_sub(t_bookkept));
        self.promote_trace(sample, now_ns, verdict, stage_ns);
    }

    /// Tail-samples one window's stage trace: flagged (adversarial)
    /// verdicts always promote — the deterministic forensic class — and
    /// a window that sets a new session latency maximum promotes into
    /// the separate latency-tail ring. Everything else is dropped; the
    /// promoted write is a `Copy` into a preallocated ring slot.
    fn promote_trace(&mut self, sample: u64, t_ns: u64, verdict: Verdict, stage_ns: [u64; 6]) {
        let total = stage_ns[5];
        let reason = if verdict == Verdict::AdversarialAttack {
            Some(TraceReason::Flagged)
        } else if total > self.latency_tail_max {
            Some(TraceReason::LatencyTail)
        } else {
            None
        };
        self.latency_tail_max = self.latency_tail_max.max(total);
        if let Some(reason) = reason {
            self.shared.traces().push(WindowTrace {
                sample,
                t_ns,
                generation: self.generation as u64,
                verdict,
                reason,
                stage_ns,
                latency_ns: total,
            });
        }
    }

    /// Classifies one sample; returns `false` once the budget is spent.
    ///
    /// # Errors
    ///
    /// Propagates detector failures.
    pub fn step(&mut self) -> Result<bool, CoreError> {
        Ok(self.step_up_to(1)? > 0)
    }

    /// Classifies up to [`ServingConfig::batch`] samples in one
    /// detector call and returns how many were processed (0 once the
    /// budget is spent). Verdicts, digests and alert choreography are
    /// bit-identical to [`step`](Self::step) at any batch size.
    ///
    /// # Errors
    ///
    /// Propagates detector failures.
    pub fn step_batch(&mut self) -> Result<usize, CoreError> {
        self.step_up_to(self.cfg.batch.max(1))
    }

    /// Classifies up to `max` samples in one detector call. Traffic is
    /// drawn per sample in stream order, then the whole batch goes
    /// through the predictor critic and the routed model as single
    /// blocked matmuls inside the warmed-up arena.
    fn step_up_to(&mut self, max: usize) -> Result<usize, CoreError> {
        let remaining = self.cfg.samples.saturating_sub(self.processed);
        if remaining == 0 {
            return Ok(0);
        }
        self.sync_generation()?;
        let mut n = max.min(remaining);
        if let Some(hub) = &self.hub {
            // never straddle a retraining boundary: every sample of a
            // batch is classified by one model generation, which keeps
            // the verdict stream batch-size-invariant under retraining
            n = n.min(hub.retrain_every - self.processed % hub.retrain_every);
        }
        let width = self.feature_idx.len();
        let t_start = clock::now_ns();
        self.transform_ns = 0;
        self.batch_rows.clear();
        self.batch_truth.clear();
        for k in 0..n {
            let truth = self.next_sample(self.processed + k)?;
            self.batch_rows.extend_from_slice(&self.scratch);
            self.batch_truth.push(truth);
        }
        let t_model = clock::now_ns();
        // amortized per-sample stage durations: draw splits out the
        // scaler-transform time draw_sample accumulated
        let transform_ns = self.transform_ns / n as u64;
        let draw_ns = t_model
            .saturating_sub(t_start)
            .saturating_sub(self.transform_ns)
            / n as u64;
        self.artifacts.detector.classify_batch_into(&self.batch_rows, width, &mut self.arena)?;
        let t_end = clock::now_ns();
        // amortized per-sample latencies: the histograms stay
        // comparable across batch sizes
        let timing = StageTiming {
            latency_ns: t_end.saturating_sub(t_start) / n as u64,
            model_latency_ns: t_end.saturating_sub(t_model) / n as u64,
            draw_ns,
            transform_ns,
            critic_ns: self.arena.critic_ns() / n as u64,
        };
        // lend the batch buffers out without allocating (mem::take
        // leaves an empty Vec behind): record_verdict needs `&mut self`
        // plus the rows
        let rows = std::mem::take(&mut self.batch_rows);
        let truths = std::mem::take(&mut self.batch_truth);
        for (k, row) in rows.chunks_exact(width).enumerate() {
            let (verdict, adv_score) = (self.arena.verdicts()[k], self.arena.values()[k]);
            self.record_verdict(row, truths[k], verdict, adv_score, timing);
        }
        self.batch_rows = rows;
        self.batch_truth = truths;
        Ok(n)
    }

    /// The monitoring half of one step: window recording, periodic
    /// alert evaluation, periodic integrity assessment with drift
    /// escalation. Steady state (no drift, no alert edges) allocates
    /// nothing: the windows are preallocated rings, snapshots live on
    /// the stack, and the integrity check runs through the allocation-
    /// free stability probe unless tracing wants the full
    /// [`DriftEvent`](hmd_integrity) record.
    fn observe(
        &mut self,
        now_ns: u64,
        sample: u64,
        truth_attack: bool,
        verdict: Verdict,
        timing: StageTiming,
        adv_score: f64,
    ) {
        let record = SampleRecord {
            truth_attack,
            verdict_attack: verdict.is_attack(),
            flagged_adversarial: verdict == Verdict::AdversarialAttack,
            latency_ns: timing.latency_ns,
            model_latency_ns: timing.model_latency_ns,
            sample,
            generation: self.generation as u64,
        };
        self.shared.monitor.record_at(now_ns, record);
        self.hist_acc.observe(&record, adv_score);
        if (self.processed as u64).is_multiple_of(FINE_EVERY) {
            // flush one fine-tier point; the shared history folds it
            // toward the mid/coarse tiers in place, allocation-free
            let point = self.hist_acc.flush(
                self.processed as u64,
                now_ns,
                self.artifacts.detector.quarantined() as u64,
                self.generation as u64,
            );
            self.shared.history.push(point);
        }
        if self.processed.is_multiple_of(self.cfg.evaluate_every) {
            let snap = self.shared.monitor.snapshot_at(now_ns);
            let edges = self.shared.engine().evaluate(&snap);
            if edges.iter().any(|e| e.firing) {
                // an alert just fired: snapshot the flight recorder and
                // the shard's state into a forensic incident bundle.
                // Allocates — fire edges are rare by construction.
                self.capture_incident(now_ns, &snap, &edges);
            }
        }
        if self.processed.is_multiple_of(self.cfg.integrity_every) {
            let snap = self.shared.monitor.snapshot_at(now_ns);
            let matrix = confusion_of(&snap);
            if matrix.total() > 0 {
                let stable = if hmd_telemetry::enabled() {
                    // full assessment: emits the integrity.drift
                    // telemetry event with per-metric deltas
                    self.artifacts.monitor.assess_confusion(SERVING_BASELINE, &matrix).is_stable()
                } else {
                    self.artifacts
                        .monitor
                        .confusion_is_stable(SERVING_BASELINE, &matrix)
                        .unwrap_or(false)
                };
                if !stable {
                    // escalate: metric drift becomes a windowed event the
                    // DriftCeiling SLO rule can fire on
                    self.shared.monitor.record_drift_at(now_ns);
                    self.drift_events += 1;
                }
            }
        }
    }

    /// Snapshots the flight recorder ring plus monitor/alert/generation
    /// state into an [`IncidentBundle`] and stores it on the shard.
    /// Runs only on alert fire edges.
    fn capture_incident(
        &mut self,
        now_ns: u64,
        snap: &MonitorSnapshot,
        edges: &[AlertTransition],
    ) {
        let ring = &self.recorder_ring;
        let triggers: Vec<IncidentTrigger> =
            recorder::triggers_from_edges(edges, &self.cfg.rules);
        let alerts_firing: Vec<String> =
            self.shared.engine().firing().map(|r| r.name.to_owned()).collect();
        // the bundle records the *fleet base* configuration: the shard's
        // decorrelated stream seed folds back to the base (the XOR walk
        // is an involution) and shards > 0 restore the base calibration
        // budget their own config zeroed
        let mut config = self.cfg.clone();
        config.stream_seed = shard_stream_seed(self.cfg.stream_seed, self.shard);
        config.calibration_samples = self.base_calibration_samples;
        let seq = self.incident_seq;
        self.incident_seq += 1;
        let bundle = IncidentBundle {
            id: format!("s{}-i{}", self.shard, seq),
            shard: self.shard,
            seq,
            t_ns: now_ns,
            sample_index: self.processed as u64,
            generation: self.generation as u64,
            stream_seed: self.cfg.stream_seed,
            verdict_digest: ring.digest(),
            triggers,
            alerts_firing,
            monitor: IncidentMonitor::capture(snap),
            model_names: self
                .artifacts
                .detector
                .models()
                .iter()
                .map(|m| m.name().to_owned())
                .collect(),
            config,
            shards: self.n_shards,
            windows: ring.snapshot_windows(),
            // only the deterministic flagged ring rides along; the
            // latency tail is wall-clock and stays endpoint-only
            traces: self.shared.traces().flagged(),
        };
        self.shared.push_incident(bundle);
    }

    /// Runs [`step_batch`](Self::step_batch) until the budget is spent.
    ///
    /// # Errors
    ///
    /// Propagates detector failures.
    pub fn run_to_completion(&mut self) -> Result<ServingOutcome, CoreError> {
        while self.step_batch()? > 0 {}
        Ok(self.outcome())
    }

    /// The session summary so far.
    #[must_use]
    pub fn outcome(&self) -> ServingOutcome {
        let engine = self.shared.engine();
        ServingOutcome {
            processed: self.processed,
            digest: self.digest,
            verdicts: self.verdicts,
            alert_transitions: engine.transitions(),
            healthy: engine.healthy(),
            drift_events: self.drift_events,
            generation: self.generation as u64,
        }
    }

    /// The monitor's current windowed view.
    #[must_use]
    pub fn snapshot(&self) -> MonitorSnapshot {
        self.shared.monitor.snapshot_at(self.shared.t_ns.load(Ordering::Relaxed))
    }

    /// The SLO rules this session's alert engine enforces — the
    /// calibration-adapted set when calibration ran, the configured set
    /// otherwise.
    #[must_use]
    pub fn slo_rules(&self) -> &[SloRule] {
        &self.cfg.rules
    }

    /// What the calibration pass observed, when one ran.
    #[must_use]
    pub fn calibration(&self) -> Option<&CalibrationReport> {
        self.calibration.as_ref()
    }

    /// The incident bundles this shard has captured (oldest first,
    /// bounded — eviction drops the oldest).
    #[must_use]
    pub fn incidents(&self) -> Vec<Arc<IncidentBundle>> {
        self.shared.incidents().clone()
    }

    /// Lifetime incidents captured by this shard (never decremented by
    /// store eviction).
    #[must_use]
    pub fn incidents_total(&self) -> u64 {
        self.shared.incidents_total.load(Ordering::Relaxed)
    }

    /// The flight recorder ring.
    #[must_use]
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder_ring
    }

    /// This shard's multi-resolution metrics history tiers.
    #[must_use]
    pub fn history_snapshot(&self) -> TierSnapshot {
        self.shared.history.snapshot()
    }

    /// This shard's promoted stage traces (flagged + latency tail).
    #[must_use]
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.shared.trace_snapshot()
    }

    /// Whether a client requested shutdown via `/quit`.
    #[must_use]
    pub fn quit_requested(&self) -> bool {
        self.shared.quit.load(Ordering::SeqCst)
    }

    /// The trained artifacts (detector, monitor, attack pool).
    #[must_use]
    pub fn artifacts(&self) -> &ServingArtifacts {
        &self.artifacts
    }

    /// A shareable handle to the trained artifacts, for building more
    /// sessions ([`with_artifacts`](Self::with_artifacts)) without
    /// retraining.
    #[must_use]
    pub fn artifacts_handle(&self) -> Arc<ServingArtifacts> {
        Arc::clone(&self.artifacts)
    }

    /// The model generation this shard currently serves (0 when
    /// retraining is off or before the first promotion).
    #[must_use]
    pub fn model_generation(&self) -> u64 {
        self.generation as u64
    }

    /// Deregisters from the hub (idempotent), so the retrainer never
    /// waits on a shard that stopped stepping.
    fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        if let Some(hub) = &self.hub {
            hub.retire_shard();
        }
    }
}

/// The serving owner: 1..N per-core shards behind one HTTP endpoint,
/// plus the model hub and its retrainer when retraining is on.
///
/// Each shard is a [`ServingSession`] with its own decorrelated
/// traffic seed ([`shard_stream_seed`]; shard 0 keeps the base seed, so
/// a one-shard fleet is byte-identical to a standalone session), its
/// own monitor windows and alert engine, all sharing one trained
/// [`ServingArtifacts`] — including the quarantine ring, which every
/// later model generation shares too. `/metrics`
/// merges the shards into aggregate series plus label-separated
/// `hmd_serving_shard_*` series, and `/quit` stops every shard.
#[derive(Debug)]
pub struct FleetSession {
    shards: Vec<ServingSession>,
    artifacts: Arc<ServingArtifacts>,
    /// The fleet-wide model hub, when retraining is on (created once
    /// shard 0 calibrated, shared by every shard).
    hub: Option<Arc<ModelHub>>,
    /// The fleet's retrainer thread; joined on drop after every shard
    /// retired.
    retrainer: Option<JoinHandle<()>>,
    http: Option<HttpServer>,
}

impl FleetSession {
    /// Trains once ([`Framework::prepare_serving`]) and builds
    /// `n_shards` shards (clamped to at least one) around the shared
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Propagates training failures; rejects what
    /// [`with_artifacts`](Self::with_artifacts) rejects, before training.
    pub fn start(cfg: &ServingConfig, n_shards: usize) -> Result<Self, CoreError> {
        let _span = hmd_telemetry::span("serving.fleet_start");
        cfg.check()?;
        let artifacts = Arc::new(Framework::new(cfg.framework.clone()).prepare_serving(cfg.kind)?);
        Self::with_artifacts(cfg, n_shards, artifacts)
    }

    /// Builds the fleet around already-trained artifacts. Shard 0
    /// calibrates the integrity baseline (once per fleet — the baseline
    /// lives on the shared artifacts); later shards skip calibration.
    /// With retraining on, the [`ModelHub`] is created once shard 0
    /// calibrated, so its initial rule set is the calibration-adapted
    /// one, and its retrainer thread starts once every shard joined.
    /// A retraining fleet empties the quarantine ring first: `artifacts`
    /// may have served earlier runs, and every generation shares the
    /// ring, so rows they left in it would reach this fleet's first
    /// round.
    ///
    /// # Errors
    ///
    /// Rejects a configuration [`ServingConfig`] cannot serve (an empty
    /// flight recorder, an overflowing stream clock) and a stream that
    /// does not carry every engineered feature.
    pub fn with_artifacts(
        cfg: &ServingConfig,
        n_shards: usize,
        artifacts: Arc<ServingArtifacts>,
    ) -> Result<Self, CoreError> {
        if cfg.retrain_every > 0 {
            let _ = artifacts.detector.take_quarantine();
        }
        let mut shards: Vec<ServingSession> = Vec::with_capacity(n_shards.max(1));
        for i in 0..n_shards.max(1) {
            let mut shard_cfg = cfg.clone();
            shard_cfg.stream_seed = shard_stream_seed(cfg.stream_seed, i);
            if i > 0 {
                shard_cfg.calibration_samples = 0;
                // every shard enforces the SLO thresholds shard 0's
                // calibration derived — one fleet, one contract
                shard_cfg.rules = shards[0].cfg.rules.clone();
            }
            shards.push(ServingSession::assemble(
                shard_cfg,
                Arc::clone(&artifacts),
                i,
                n_shards.max(1),
                cfg.calibration_samples,
            )?);
        }
        let hub = if cfg.retrain_every > 0 {
            let hub = ModelHub::new(&shards[0].cfg, &artifacts, &shards[0].feature_idx)?;
            for shard in &mut shards {
                hub.register_shard();
                shard.hub = Some(Arc::clone(&hub));
            }
            Some(hub)
        } else {
            None
        };
        // one retrainer per fleet, spawned only after every shard
        // registered — a hub with zero active shards exits immediately
        let retrainer = hub.as_ref().map(|h| spawn_retrainer(Arc::clone(h)));
        Ok(Self { shards, artifacts, hub, retrainer, http: None })
    }

    /// Starts the merged HTTP endpoint with `workers` pool threads.
    /// Routes: `/metrics`, `/healthz`, `/snapshot.json`,
    /// `/history.json`, `/traces.json`, `/dashboard`, `/incidents`,
    /// `/quit`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_http(
        &mut self,
        addr: &str,
        workers: usize,
    ) -> std::io::Result<std::net::SocketAddr> {
        let state = EndpointState {
            shards: self.shards.iter().map(|s| Arc::clone(&s.shared)).collect(),
            artifacts: Arc::clone(&self.artifacts),
            hub: self.hub.clone(),
        };
        let server = HttpServer::start_with(
            addr,
            Arc::new(move |req: &hmd_obs::Request| handle(&state, &req.path)),
            workers,
        )?;
        let bound = server.addr();
        self.http = Some(server);
        Ok(bound)
    }

    /// Runs every shard to completion (or `/quit`) on one OS thread
    /// each and returns the per-shard outcomes in shard order.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's detector failure.
    pub fn run(&mut self) -> Result<Vec<ServingOutcome>, CoreError> {
        self.run_for(usize::MAX)
    }

    /// [`run`](Self::run), with each shard stopping once it has
    /// classified `samples` windows (or sooner, at its budget or on
    /// `/quit`). Verdicts do not depend on where a run stops: a shard's
    /// first `samples` windows are those of a full run.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's detector failure.
    pub fn run_for(&mut self, samples: usize) -> Result<Vec<ServingOutcome>, CoreError> {
        let results: Vec<Result<ServingOutcome, CoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|sess| {
                    scope.spawn(move || {
                        let run = (|| -> Result<(), CoreError> {
                            while !sess.quit_requested() && sess.processed < samples {
                                let max = sess.cfg.batch.max(1).min(samples - sess.processed);
                                if sess.step_up_to(max)? == 0 {
                                    break;
                                }
                            }
                            Ok(())
                        })();
                        // retire whether the loop completed, quit, or
                        // errored — sibling shards parked at a
                        // retraining boundary must not wait on a shard
                        // that stopped stepping
                        sess.retire();
                        run.map(|()| sess.outcome())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
        });
        results.into_iter().collect()
    }

    /// The per-shard sessions, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[ServingSession] {
        &self.shards
    }

    /// The per-shard sessions, for stepping them on the caller's thread
    /// instead of through [`run`](Self::run). With retraining on, a
    /// shard reaching a retraining boundary blocks until every shard
    /// has reached it, so the caller must step every shard to each
    /// boundary (one thread stepping shards in turn deadlocks at the
    /// first boundary unless the fleet has one shard).
    pub fn shards_mut(&mut self) -> &mut [ServingSession] {
        &mut self.shards
    }

    /// The per-shard outcomes so far, in shard order.
    #[must_use]
    pub fn outcomes(&self) -> Vec<ServingOutcome> {
        self.shards.iter().map(ServingSession::outcome).collect()
    }

    /// The fleet-merged windowed view.
    #[must_use]
    pub fn snapshot(&self) -> MonitorSnapshot {
        let shared: Vec<Arc<Shared>> =
            self.shards.iter().map(|s| Arc::clone(&s.shared)).collect();
        MonitorSnapshot::merged(&shard_snapshots(&shared))
    }

    /// The `/history.json` document: merged + per-shard history tiers.
    /// Byte-identical to what the HTTP endpoint serves.
    #[must_use]
    pub fn history_json(&self) -> Json {
        let tiers: Vec<TierSnapshot> =
            self.shards.iter().map(ServingSession::history_snapshot).collect();
        history_json(&tiers)
    }

    /// The `/traces.json` document: per-shard promoted stage traces.
    /// Byte-identical to what the HTTP endpoint serves.
    #[must_use]
    pub fn traces_json(&self) -> Json {
        let snaps: Vec<TraceSnapshot> =
            self.shards.iter().map(ServingSession::trace_snapshot).collect();
        recorder::traces_json(&snaps)
    }

    /// Whether any client requested shutdown via `/quit`.
    #[must_use]
    pub fn quit_requested(&self) -> bool {
        self.shards.iter().any(ServingSession::quit_requested)
    }

    /// The shared trained artifacts (generation 0; under retraining the
    /// live generation is [`hub`](Self::hub)`.current()`).
    #[must_use]
    pub fn artifacts(&self) -> &ServingArtifacts {
        &self.artifacts
    }

    /// The fleet-wide model hub, when retraining is on.
    #[must_use]
    pub fn hub(&self) -> Option<&Arc<ModelHub>> {
        self.hub.as_ref()
    }

    /// Stops the HTTP endpoint (if running).
    pub fn finish(&mut self) {
        if let Some(mut server) = self.http.take() {
            server.shutdown();
        }
    }
}

impl Drop for FleetSession {
    fn drop(&mut self) {
        self.finish();
        // retire every shard before joining the retrainer: it exits
        // once no active shard remains
        self.shards.iter_mut().for_each(ServingSession::retire);
        if let Some(t) = self.retrainer.take() {
            let _ = t.join();
        }
    }
}

/// Rejects what a standalone [`ServingSession`] cannot serve: retraining
/// (a [`FleetSession`] owns the hub and its retrainer) plus everything
/// [`ServingConfig::check`] rejects.
fn check_standalone(cfg: &ServingConfig) -> Result<(), CoreError> {
    if cfg.retrain_every > 0 {
        return Err(CoreError::Invalid(
            "a standalone session never retrains: serve retrain_every > 0 through a FleetSession",
        ));
    }
    cfg.check()
}

/// The live traffic generator of `cfg` — serving and calibration
/// streams differ only in `seed`.
fn traffic_stream(cfg: &ServingConfig, seed: u64) -> WindowStream {
    let corpus = &cfg.framework.corpus;
    WindowStream::new(StreamConfig {
        malware_fraction: cfg.malware_fraction,
        windows_per_app: corpus.windows_per_app,
        warmup_windows: corpus.warmup_windows,
        machine: corpus.machine,
        perf: corpus.perf.clone(),
        isolation: corpus.isolation,
        seed,
    })
}

/// Feature-selects the engineered columns of one raw stream window into
/// `row` and scales them in place. Returns the wall-clock nanoseconds
/// the scaler transform took.
fn engineer_row(
    scaler: &StandardScaler,
    values: &[f64],
    feature_idx: &[usize],
    row: &mut [f64],
) -> Result<u64, CoreError> {
    for (dst, &src) in row.iter_mut().zip(feature_idx) {
        *dst = values[src];
    }
    let t0 = clock::now_ns();
    scaler.transform_row(row)?;
    Ok(clock::now_ns().saturating_sub(t0))
}

/// Re-records the integrity baseline from the detector's confusion on a
/// held-out slice of clean deployment traffic (separate stream seed, so
/// serving replays none of it) and reports what it saw, so the adaptive
/// SLO derivation can read the same evidence. The offline test-split
/// baseline is optimistic — with multiple windows per app instance the
/// split leaks — and would keep the drift alert latched on healthy live
/// traffic.
fn calibrate(
    artifacts: &ServingArtifacts,
    cfg: &ServingConfig,
    feature_idx: &[usize],
) -> Result<CalibrationReport, CoreError> {
    let _span = hmd_telemetry::span("serving.calibrate");
    let mut stream = traffic_stream(cfg, cfg.stream_seed ^ 0x43414C); // "CAL"
    let width = feature_idx.len();
    let mut arena = artifacts.detector.warmup(width, PROBE_BATCH);
    let mut rows = Vec::with_capacity(PROBE_BATCH * width);
    let mut truth = Vec::with_capacity(PROBE_BATCH);
    let mut matrix = ConfusionMatrix::default();
    let mut flagged = 0;
    let mut left = cfg.calibration_samples;
    while left > 0 {
        let n = left.min(PROBE_BATCH);
        left -= n;
        rows.resize(n * width, 0.0);
        truth.clear();
        for row in rows.chunks_exact_mut(width) {
            let w = stream.next().expect("stream is endless");
            engineer_row(&artifacts.bundle.scaler, &w.values, feature_idx, row)?;
            truth.push(w.is_malware());
        }
        artifacts.detector.classify_batch_into(&rows, width, &mut arena)?;
        for (&verdict, &malware) in arena.verdicts().iter().zip(&truth) {
            flagged += usize::from(verdict == Verdict::AdversarialAttack);
            match (malware, verdict.is_attack()) {
                (true, true) => matrix.tp += 1,
                (true, false) => matrix.fn_ += 1,
                (false, true) => matrix.fp += 1,
                (false, false) => matrix.tn += 1,
            }
        }
    }
    // calibration traffic is clean by construction: what the predictor
    // quarantined here must never reach retraining, but silently
    // discarding it hid the count — it is telemetry (the predictor's
    // live false-flag behavior) and now rides the report
    let quarantined = artifacts.detector.take_quarantine().len();
    artifacts
        .monitor
        .record_baseline(SERVING_BASELINE, BinaryMetrics::from_confusion(&matrix));
    Ok(CalibrationReport { matrix, flagged, samples: cfg.calibration_samples, quarantined })
}

/// What the HTTP endpoints read: per-shard monitor state plus the
/// model-lifecycle source — the hub when retraining is on (so scrapes
/// follow promotions), the fixed generation-0 artifacts otherwise.
#[derive(Debug)]
struct EndpointState {
    shards: Vec<Arc<Shared>>,
    artifacts: Arc<ServingArtifacts>,
    hub: Option<Arc<ModelHub>>,
}

impl EndpointState {
    /// The artifacts generation a scrape should describe.
    fn artifacts(&self) -> Arc<ServingArtifacts> {
        self.hub.as_ref().map_or_else(|| Arc::clone(&self.artifacts), |h| h.current())
    }

    fn generation(&self) -> u64 {
        self.hub.as_ref().map_or(0, |h| h.generation())
    }

    fn swaps(&self) -> u64 {
        self.hub.as_ref().map_or(0, |h| h.swaps())
    }

    fn absorbed(&self) -> u64 {
        self.hub.as_ref().map_or(0, |h| h.absorbed())
    }

    /// Lifetime incidents captured across every shard.
    fn incidents_total(&self) -> u64 {
        self.shards.iter().map(|s| s.incidents_total.load(Ordering::Relaxed)).sum()
    }

    /// Clean calibration rows flagged and discarded: the shards' own
    /// calibration passes plus every hub recalibration round.
    fn calibration_quarantined(&self) -> u64 {
        let shards: u64 =
            self.shards.iter().map(|s| s.calibration_quarantined.load(Ordering::Relaxed)).sum();
        shards + self.hub.as_ref().map_or(0, |h| h.calibration_quarantined())
    }
}

/// HTTP dispatch for a fleet's serving endpoints.
fn handle(state: &EndpointState, path: &str) -> Response {
    let shards = &state.shards;
    match path {
        "/metrics" => {
            let snaps = shard_snapshots(shards);
            let engines: Vec<_> = shards.iter().map(|s| s.engine()).collect();
            let engine_refs: Vec<&AlertEngine> = engines.iter().map(|g| &**g).collect();
            let mut page = render_metrics_fleet(&snaps, &engine_refs);
            drop(engines);
            append_promotion_series(&mut page, state.generation(), state.swaps(), state.absorbed());
            append_quarantine_series(&mut page, state);
            append_incident_series(
                &mut page,
                state.incidents_total(),
                state.calibration_quarantined(),
            );
            Response::ok(page)
        }
        "/healthz" => {
            if shards.iter().all(|s| s.engine().healthy()) {
                Response::status(200, "ok\n")
            } else {
                Response::status(503, "critical SLO firing\n")
            }
        }
        "/snapshot.json" => Response::json(live_snapshot_json(state).to_string()),
        "/history.json" => {
            let tiers: Vec<TierSnapshot> =
                shards.iter().map(|s| s.history.snapshot()).collect();
            Response::json(history_json(&tiers).to_string())
        }
        "/traces.json" => {
            let snaps: Vec<TraceSnapshot> =
                shards.iter().map(|s| s.trace_snapshot()).collect();
            Response::json(recorder::traces_json(&snaps).to_string())
        }
        "/dashboard" => Response::html(DASHBOARD_HTML.to_owned()),
        "/incidents" => Response::json(incident_index_json(state).to_string()),
        "/quit" => {
            for s in shards {
                s.quit.store(true, Ordering::SeqCst);
            }
            Response::status(200, "shutting down\n")
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/incidents/") {
                let bundle = rest
                    .strip_suffix(".json")
                    .and_then(|id| find_incident(state, id));
                return match bundle {
                    Some(b) => Response::json(b.to_json().to_string()),
                    None => Response::status(404, "unknown incident\n"),
                };
            }
            Response::status(404, "unknown path\n")
        }
    }
}

/// The `/incidents` index: one summary row per retained bundle, across
/// every shard, plus the lifetime capture counter (evicted bundles
/// count but no longer list).
fn incident_index_json(state: &EndpointState) -> Json {
    let mut rows = Vec::new();
    for shared in &state.shards {
        for b in shared.incidents().iter() {
            rows.push(Json::Obj(vec![
                ("id".to_owned(), Json::Str(b.id.clone())),
                ("shard".to_owned(), Json::UInt(b.shard as u64)),
                ("seq".to_owned(), Json::UInt(b.seq)),
                ("t_ns".to_owned(), Json::UInt(b.t_ns)),
                ("sample_index".to_owned(), Json::UInt(b.sample_index)),
                ("generation".to_owned(), Json::UInt(b.generation)),
                ("windows".to_owned(), Json::UInt(b.windows.len() as u64)),
                ("verdict_digest".to_owned(), Json::UInt(b.verdict_digest)),
                (
                    "triggers".to_owned(),
                    Json::Arr(
                        b.triggers
                            .iter()
                            .filter(|t| t.firing)
                            .map(|t| Json::Str(t.rule.clone()))
                            .collect(),
                    ),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("incidents".to_owned(), Json::Arr(rows)),
        ("total".to_owned(), Json::UInt(state.incidents_total())),
    ])
}

/// Looks an incident bundle up by id across every shard's store.
fn find_incident(state: &EndpointState, id: &str) -> Option<Arc<IncidentBundle>> {
    state
        .shards
        .iter()
        .find_map(|shared| shared.incidents().iter().find(|b| b.id == id).cloned())
}

/// Per-shard windowed snapshots, each at its own published clock.
fn shard_snapshots(shards: &[Arc<Shared>]) -> Vec<MonitorSnapshot> {
    shards
        .iter()
        .map(|s| s.monitor.snapshot_at(s.t_ns.load(Ordering::Relaxed)))
        .collect()
}

/// Appends the quarantine-ring series to a rendered page. The ring
/// lives on the detector, not on a shard: one per fleet, shared by every
/// model generation, so generation 0's detector reads the live fill and
/// the lifetime eviction count.
fn append_quarantine_series(page: &mut String, state: &EndpointState) {
    use std::fmt::Write as _;
    let detector = &state.artifacts.detector;
    let _ = writeln!(
        page,
        "# HELP hmd_serving_quarantine_evicted_total Quarantined rows evicted oldest-first by the ring bound.\n\
         # TYPE hmd_serving_quarantine_evicted_total counter\n\
         hmd_serving_quarantine_evicted_total {}",
        detector.quarantine_evicted()
    );
    let _ = writeln!(
        page,
        "# HELP hmd_serving_quarantined Rows currently held in the quarantine ring.\n\
         # TYPE hmd_serving_quarantined gauge\n\
         hmd_serving_quarantined {}",
        detector.quarantined()
    );
}

/// The live `/snapshot.json` document: the merged monitor view plus
/// fleet health and quarantine state. When tracing is enabled the
/// telemetry snapshot rides along under `"telemetry"` — previously it
/// was the *only* content, which left the endpoint empty (`{}`-ish)
/// whenever `HMD_TRACE` was off and ignored the live monitor entirely.
fn live_snapshot_json(state: &EndpointState) -> Json {
    let shards = &state.shards;
    let artifacts = state.artifacts();
    let snaps = shard_snapshots(shards);
    let merged = MonitorSnapshot::merged(&snaps);
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
    let (mut transitions, mut healthy) = (0, true);
    let mut slo: Vec<Json> = Vec::new();
    {
        let engines: Vec<_> = shards.iter().map(|s| s.engine()).collect();
        for engine in &engines {
            transitions += engine.transitions();
            healthy &= engine.healthy();
        }
        // per-rule SLO state, fleet-merged: firing on any shard,
        // transitions summed (engines share one rule shape)
        for (i, rule) in engines[0].rules().iter().enumerate() {
            let firing = engines.iter().any(|e| e.is_firing(i));
            let rule_transitions: u64 = engines
                .iter()
                .map(|e| e.rule_transitions().get(i).copied().unwrap_or(0))
                .sum();
            slo.push(Json::Obj(vec![
                ("rule".to_owned(), Json::Str(rule.name.to_owned())),
                ("severity".to_owned(), Json::Str(rule.severity.to_string())),
                ("threshold".to_owned(), Json::Float(rule.threshold())),
                ("firing".to_owned(), Json::Bool(firing)),
                ("transitions".to_owned(), Json::UInt(rule_transitions)),
            ]));
        }
    }
    let mut fields = vec![
        ("t_ns".to_owned(), Json::UInt(merged.t_ns)),
        ("shards".to_owned(), Json::UInt(shards.len() as u64)),
        ("samples_window".to_owned(), Json::UInt(merged.samples)),
        ("samples_total".to_owned(), Json::UInt(merged.total_samples)),
        ("tp".to_owned(), Json::UInt(merged.tp)),
        ("fn".to_owned(), Json::UInt(merged.fn_)),
        ("fp".to_owned(), Json::UInt(merged.fp)),
        ("tn".to_owned(), Json::UInt(merged.tn)),
        ("flags".to_owned(), Json::UInt(merged.flags)),
        ("drifts".to_owned(), Json::UInt(merged.drifts)),
        ("detection_rate".to_owned(), opt(merged.detection_rate())),
        ("adversarial_flag_rate".to_owned(), opt(merged.flag_rate())),
        ("accuracy".to_owned(), opt(merged.accuracy())),
        ("false_positive_rate".to_owned(), opt(merged.false_positive_rate())),
        ("latency_p95_ms".to_owned(), Json::Float(merged.latency_p95_ms())),
        ("model_latency_p95_ms".to_owned(), Json::Float(merged.model_latency_p95_ms())),
        ("healthy".to_owned(), Json::Bool(healthy)),
        ("alert_transitions".to_owned(), Json::UInt(transitions)),
        ("quarantined".to_owned(), Json::UInt(artifacts.detector.quarantined() as u64)),
        ("quarantine_evicted".to_owned(), Json::UInt(artifacts.detector.quarantine_evicted())),
        ("model_generation".to_owned(), Json::UInt(state.generation())),
        ("model_swaps".to_owned(), Json::UInt(state.swaps())),
        ("retrain_absorbed".to_owned(), Json::UInt(state.absorbed())),
        ("incidents_total".to_owned(), Json::UInt(state.incidents_total())),
        (
            "calibration_quarantined".to_owned(),
            Json::UInt(state.calibration_quarantined()),
        ),
        ("slo".to_owned(), Json::Arr(slo)),
    ];
    if hmd_telemetry::enabled() {
        fields.push(("telemetry".to_owned(), hmd_telemetry::snapshot_json("serving")));
    }
    Json::Obj(fields)
}

/// The windowed confusion matrix of a snapshot.
#[allow(clippy::cast_possible_truncation)]
fn confusion_of(snap: &MonitorSnapshot) -> ConfusionMatrix {
    ConfusionMatrix {
        tp: snap.tp as usize,
        fp: snap.fp as usize,
        tn: snap.tn as usize,
        fn_: snap.fn_ as usize,
    }
}

