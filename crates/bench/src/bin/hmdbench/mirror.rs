//! A replica of one serving shard's loop built from the program's public
//! layer calls, in serving order: draw → transform → detect → record →
//! monitor → alert/history. It consumes the same random draws as
//! `ServingSession`, so it serves the same rows in the same order; the
//! verdict digest after the first windows proves it. Timing each call
//! from outside gives the per-layer numbers without instrumenting the
//! program.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use hmd::core::framework::SERVING_BASELINE;
use hmd::core::{Framework, InferArena, ServingArtifacts, Verdict};
use hmd::ml::{classical_models, ConfusionMatrix, PredictScratch};
use hmd::nn::InferScratch;
use hmd::obs::history::FINE_EVERY;
use hmd::obs::{
    AlertEngine, HistoryAccumulator, MetricsHistory, SampleRecord, ServingMonitor, SloRule,
};
use hmd::recorder::{self, FlightRecorder, IncidentMonitor, WindowStamp};
use hmd::serving::ServingConfig;
use hmd::sim::{StreamConfig, WindowStream};
use hmd_util::rng::prelude::*;

use crate::drive::{Clock, Wall};
use crate::err;

/// Span layers. The names are the repository's module names; each
/// layer's parent is in [`PARENT`].
pub const BATCH: usize = 0;
pub const INGEST: usize = 1;
pub const SIM: usize = 2;
pub const TABULAR: usize = 3;
pub const DETECT: usize = 4;
pub const CRITIC: usize = 5;
pub const MODEL: usize = 6;
pub const RECORDER: usize = 7;
pub const MONITOR: usize = 8;
pub const HISTORY: usize = 9;
pub const ALERT: usize = 10;
pub const INTEGRITY: usize = 11;
pub const RETRAIN: usize = 12;
pub const LAYERS: usize = 13;

pub const LAYER_NAMES: [&str; LAYERS] = [
    "serving.batch",
    "serving.ingest",
    "sim",
    "tabular",
    "core.detect",
    "rl.critic",
    "ml.model",
    "recorder",
    "obs.monitor",
    "obs.history",
    "obs.alert",
    "integrity",
    "core.retrain",
];

/// The span each layer's span nests in. Critic and routed-model spans
/// are probe calls made after the batch, so they are not children of
/// `core.detect`; they estimate its parts.
pub const PARENT: [Option<usize>; LAYERS] = [
    None,
    Some(BATCH),
    Some(INGEST),
    Some(INGEST),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    Some(BATCH),
    None,
];

/// Probe the critic and the routed model on every this many batches.
const PROBE_EVERY: u64 = 8;

/// One span per (batch, layer): the layer's first start in the batch and
/// its summed duration over the batch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub batch: u64,
    pub layer: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span buffer and per-layer totals. The buffer is allocated before the
/// traced phase; spans past its capacity are counted, not stored, while
/// the totals keep counting every call.
#[derive(Debug)]
pub struct Tracer {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub total_ns: [u64; LAYERS],
    pub calls: [u64; LAYERS],
    /// Windows in the batches the critic/model probes ran on.
    pub probe_windows: u64,
    open_start: [u64; LAYERS],
    open_ns: [u64; LAYERS],
    open_calls: [u64; LAYERS],
}

impl Tracer {
    pub fn new(span_capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(span_capacity),
            dropped: 0,
            total_ns: [0; LAYERS],
            calls: [0; LAYERS],
            probe_windows: 0,
            open_start: [0; LAYERS],
            open_ns: [0; LAYERS],
            open_calls: [0; LAYERS],
        }
    }

    fn add(&mut self, layer: usize, start: u64, end: u64) {
        if self.open_calls[layer] == 0 {
            self.open_start[layer] = start;
        }
        self.open_ns[layer] += end.saturating_sub(start);
        self.open_calls[layer] += 1;
    }

    fn close(&mut self, batch: u64) {
        for layer in 0..LAYERS {
            if self.open_calls[layer] == 0 {
                continue;
            }
            let span = Span {
                batch,
                layer,
                start_ns: self.open_start[layer],
                dur_ns: self.open_ns[layer],
            };
            if self.spans.len() < self.spans.capacity() {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
            self.total_ns[layer] += self.open_ns[layer];
            self.calls[layer] += self.open_calls[layer];
            self.open_ns[layer] = 0;
            self.open_calls[layer] = 0;
        }
    }

    /// Sums another shard's totals into this one (spans stay per shard).
    pub fn absorb(&mut self, other: &Tracer) {
        for l in 0..LAYERS {
            self.total_ns[l] += other.total_ns[l];
            self.calls[l] += other.calls[l];
        }
        self.probe_windows += other.probe_windows;
        self.dropped += other.dropped;
    }
}

/// A rendezvous for the shards of a fleet at each retraining boundary:
/// the last shard to arrive runs the round while the others stay
/// parked. A shard that fails aborts it, so no sibling waits forever.
#[derive(Debug)]
pub struct Rendezvous {
    parties: usize,
    state: Mutex<(usize, u64, bool)>,
    wake: Condvar,
}

impl Rendezvous {
    pub fn new(parties: usize) -> Self {
        Self {
            parties,
            state: Mutex::new((0, 0, false)),
            wake: Condvar::new(),
        }
    }

    fn arrive(&self, round: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.2 {
            return Err("a sibling shard failed".to_owned());
        }
        s.0 += 1;
        if s.0 == self.parties {
            let result = round();
            s.0 = 0;
            s.1 += 1;
            s.2 |= result.is_err();
            self.wake.notify_all();
            return result;
        }
        let generation = s.1;
        while s.1 == generation && !s.2 {
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.2 {
            Err("a sibling shard failed".to_owned())
        } else {
            Ok(())
        }
    }

    pub fn abort(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        self.wake.notify_all();
    }
}

/// The critic and routed-model probe buffers.
#[derive(Debug)]
struct Probe {
    critic: InferScratch,
    values: Vec<f64>,
    flags: Vec<bool>,
    clean: Vec<f64>,
    model: PredictScratch,
    probs: Vec<f64>,
    routed: Vec<bool>,
}

/// The traffic stream a session configured by `cfg` draws from.
pub fn stream(cfg: &ServingConfig, seed: u64) -> WindowStream {
    WindowStream::new(StreamConfig {
        malware_fraction: cfg.malware_fraction,
        windows_per_app: cfg.framework.corpus.windows_per_app,
        warmup_windows: cfg.framework.corpus.warmup_windows,
        machine: cfg.framework.corpus.machine,
        perf: cfg.framework.corpus.perf.clone(),
        isolation: cfg.framework.corpus.isolation,
        seed,
    })
}

/// Where each engineered feature sits in a raw stream row.
pub fn feature_index(
    stream: &WindowStream,
    artifacts: &ServingArtifacts,
) -> Result<Vec<usize>, String> {
    let names = stream.feature_names();
    artifacts
        .bundle
        .feature_names
        .iter()
        .map(|want| names.iter().position(|n| n == want))
        .collect::<Option<_>>()
        .ok_or_else(|| "the stream lacks an engineered feature".to_owned())
}

/// One replicated shard.
#[derive(Debug)]
pub struct Shard {
    cfg: ServingConfig,
    artifacts: Arc<ServingArtifacts>,
    rules: Vec<SloRule>,
    stream: WindowStream,
    feature_idx: Vec<usize>,
    scratch: Vec<f64>,
    rows: Vec<f64>,
    truth: Vec<bool>,
    replay_rows: Vec<f64>,
    replay_truth: Vec<bool>,
    replay_cursor: usize,
    rng: StdRng,
    adv_cursor: usize,
    arena: InferArena,
    probe: Probe,
    recorder: FlightRecorder,
    monitor: ServingMonitor,
    engine: AlertEngine,
    hist: HistoryAccumulator,
    history: MetricsHistory,
    processed: usize,
    digest: u64,
    check_at: usize,
    /// The verdict digest after the first `check_at` windows.
    pub check_digest: Option<u64>,
    /// `WindowStream::next` calls while serving.
    pub sim_calls: u64,
    batches: u64,
    pub tracer: Option<Tracer>,
    rendezvous: Option<Arc<Rendezvous>>,
}

impl Shard {
    /// Assembles a replica of shard `shard` of a session configured by
    /// `cfg` (its stream seed already the shard's), enforcing `rules`
    /// (the calibrated set the real session enforces). Pre-draws the
    /// replay ring like the session does.
    pub fn new(
        cfg: ServingConfig,
        artifacts: Arc<ServingArtifacts>,
        rules: Vec<SloRule>,
        shard: usize,
        check_at: usize,
        tracer: Option<Tracer>,
        rendezvous: Option<Arc<Rendezvous>>,
    ) -> Result<Self, String> {
        let stream = stream(&cfg, cfg.stream_seed);
        let feature_idx = feature_index(&stream, &artifacts)?;
        let width = feature_idx.len();
        let batch = cfg.batch.max(1);
        let detector = &artifacts.detector;
        let selected = detector.controller().selected_model();
        let probe = Probe {
            critic: detector.predictor().infer_scratch(batch),
            values: Vec::with_capacity(batch),
            flags: Vec::with_capacity(batch),
            clean: Vec::with_capacity(batch * width),
            model: detector.models()[selected].make_scratch(batch),
            probs: Vec::with_capacity(batch),
            routed: Vec::with_capacity(batch),
        };
        let mut replica = Self {
            arena: detector.warmup(width, batch),
            recorder: FlightRecorder::warmup(detector, width, cfg.recorder.max(1)),
            probe,
            monitor: ServingMonitor::with_shard(cfg.window, shard),
            engine: AlertEngine::new(rules.clone()),
            hist: HistoryAccumulator::new(),
            history: MetricsHistory::new(),
            rng: StdRng::seed_from_u64(cfg.stream_seed ^ 0x0041_4456), // "ADV", as the session seeds it
            stream,
            scratch: vec![0.0; width],
            rows: Vec::with_capacity(batch * width),
            truth: Vec::with_capacity(batch),
            replay_rows: Vec::with_capacity(cfg.replay * width),
            replay_truth: Vec::with_capacity(cfg.replay),
            replay_cursor: 0,
            adv_cursor: 0,
            feature_idx,
            processed: 0,
            digest: recorder::DIGEST_SEED,
            check_at,
            check_digest: None,
            sim_calls: 0,
            batches: 0,
            tracer: None,
            rendezvous,
            rules,
            artifacts,
            cfg,
        };
        for k in 0..replica.cfg.replay {
            let truth = replica.draw(k)?;
            replica.replay_rows.extend_from_slice(&replica.scratch);
            replica.replay_truth.push(truth);
        }
        replica.sim_calls = 0;
        replica.tracer = tracer;
        Ok(replica)
    }

    /// Draws sample `idx` into `scratch`: an adversarial pool row with
    /// the configured (possibly bursting) probability, else the next
    /// synthesized window, feature-selected and scaled.
    fn draw(&mut self, idx: usize) -> Result<bool, String> {
        let progress = idx as f64 / self.cfg.samples as f64;
        let adv_p = match self.cfg.burst {
            Some(b) if (b.start..b.end).contains(&progress) => b.adv_fraction,
            _ => self.cfg.adv_fraction,
        };
        let inject = self.rng.random::<f64>() < adv_p;
        let pool = &self.artifacts.attacks.train_result.adversarial;
        if inject && !pool.is_empty() {
            let row = pool.row(self.adv_cursor % pool.len()).map_err(err)?;
            self.adv_cursor += 1;
            self.scratch.copy_from_slice(row);
            return Ok(true);
        }
        let t0 = Wall.now();
        let w = self.stream.next().expect("the stream is endless");
        for (dst, &src) in self.scratch.iter_mut().zip(&self.feature_idx) {
            *dst = w.values[src];
        }
        let t1 = Wall.now();
        self.artifacts
            .bundle
            .scaler
            .transform_row(&mut self.scratch)
            .map_err(err)?;
        let t2 = Wall.now();
        self.sim_calls += 1;
        if let Some(t) = &mut self.tracer {
            t.add(SIM, t0, t1);
            t.add(TABULAR, t1, t2);
        }
        Ok(w.is_malware())
    }

    fn next_sample(&mut self, idx: usize) -> Result<bool, String> {
        if self.replay_truth.is_empty() {
            return self.draw(idx);
        }
        let width = self.scratch.len();
        let k = self.replay_cursor % self.replay_truth.len();
        self.replay_cursor += 1;
        self.scratch
            .copy_from_slice(&self.replay_rows[k * width..(k + 1) * width]);
        Ok(self.replay_truth[k])
    }

    /// One retraining round on the drained quarantine. The replica keeps
    /// serving generation 0; the round is timed, its models dropped.
    fn retrain(&mut self) -> Result<(), String> {
        let drained = self.artifacts.detector.take_quarantine();
        let mut models = classical_models();
        let mut training = self.artifacts.training.clone();
        let t0 = Wall.now();
        Framework::retraining_round(&mut models, &mut training, &drained).map_err(err)?;
        let t1 = Wall.now();
        if let Some(t) = &mut self.tracer {
            t.add(RETRAIN, t0, t1);
        }
        Ok(())
    }

    /// Windows served so far.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Serves up to one batch, as `ServingSession::step_batch` does, and
    /// returns how many windows it served (0 once the budget is spent).
    pub fn serve_batch(&mut self) -> Result<usize, String> {
        let remaining = self.cfg.samples - self.processed;
        if remaining == 0 {
            return Ok(0);
        }
        let every = self.cfg.retrain_every;
        let mut n = self.cfg.batch.max(1).min(remaining);
        if every > 0 {
            if self.processed > 0 && self.processed.is_multiple_of(every) {
                let rendezvous = Arc::clone(self.rendezvous.as_ref().ok_or("no fleet rendezvous")?);
                rendezvous.arrive(|| self.retrain())?;
            }
            n = n.min(every - self.processed % every);
        }
        let width = self.scratch.len();
        let t_start = Wall.now();
        self.rows.clear();
        self.truth.clear();
        for k in 0..n {
            let truth = self.next_sample(self.processed + k)?;
            self.rows.extend_from_slice(&self.scratch);
            self.truth.push(truth);
        }
        let t_model = Wall.now();
        let artifacts = Arc::clone(&self.artifacts);
        let detector = &artifacts.detector;
        let single = if n == 1 {
            Some(
                detector
                    .classify_into(&self.scratch, &mut self.arena)
                    .map_err(err)?,
            )
        } else {
            detector
                .classify_batch_into(&self.rows, width, &mut self.arena)
                .map_err(err)?;
            None
        };
        let t_end = Wall.now();
        let n64 = n as u64;
        let latency_ns = (t_end - t_start) / n64;
        let model_latency_ns = (t_end - t_model) / n64;
        let mut t = t_end;
        for k in 0..n {
            let verdict = single.unwrap_or_else(|| self.arena.verdicts()[k]);
            let row = &self.rows[k * width..(k + 1) * width];
            let sample = self.processed as u64;
            self.processed += 1;
            let now_ns = self.processed as u64 * self.cfg.tick_ns;
            let stamp = WindowStamp {
                sample,
                t_ns: now_ns,
                generation: 0,
                model_latency_ns,
            };
            let critic_score = self
                .recorder
                .record(detector, row, verdict, stamp)
                .map_err(err)?;
            self.digest = recorder::digest_step(self.digest, verdict);
            let flagged = verdict == Verdict::AdversarialAttack;
            if self.processed == self.check_at {
                self.check_digest = Some(self.digest);
            }
            let t_recorded = Wall.now();
            let record = SampleRecord {
                truth_attack: self.truth[k],
                verdict_attack: verdict.is_attack(),
                flagged_adversarial: flagged,
                latency_ns,
                model_latency_ns,
                sample,
                generation: 0,
            };
            self.monitor.record_at(now_ns, record);
            self.hist.observe(&record, critic_score);
            let t_monitored = Wall.now();
            if let Some(tr) = &mut self.tracer {
                tr.add(RECORDER, t, t_recorded);
                tr.add(MONITOR, t_recorded, t_monitored);
            }
            t = t_monitored;
            if (self.processed as u64).is_multiple_of(FINE_EVERY) {
                let point = self.hist.flush(
                    self.processed as u64,
                    now_ns,
                    detector.quarantined() as u64,
                    0,
                );
                self.history.push(point);
                t = self.stamp(HISTORY, t);
            }
            if self.processed.is_multiple_of(self.cfg.evaluate_every) {
                let snap = self.monitor.snapshot_at(now_ns);
                let edges = self.engine.evaluate(&snap);
                if edges.iter().any(|e| e.firing) {
                    // what the session snapshots into an incident bundle
                    std::hint::black_box((
                        self.recorder.snapshot_windows(),
                        recorder::triggers_from_edges(&edges, &self.rules),
                        IncidentMonitor::capture(&snap),
                    ));
                }
                t = self.stamp(ALERT, t);
            }
            if self.processed.is_multiple_of(self.cfg.integrity_every) {
                let snap = self.monitor.snapshot_at(now_ns);
                let matrix = ConfusionMatrix {
                    tp: snap.tp as usize,
                    fp: snap.fp as usize,
                    tn: snap.tn as usize,
                    fn_: snap.fn_ as usize,
                };
                if matrix.total() > 0
                    && !self
                        .artifacts
                        .monitor
                        .confusion_is_stable(SERVING_BASELINE, &matrix)
                        .unwrap_or(false)
                {
                    self.monitor.record_drift_at(now_ns);
                }
                t = self.stamp(INTEGRITY, t);
            }
        }
        self.batches += 1;
        if self.tracer.is_some() {
            if self.batches.is_multiple_of(PROBE_EVERY) {
                self.probe(n, width)?;
            }
            let batch = self.batches;
            let tr = self.tracer.as_mut().expect("checked above");
            tr.add(BATCH, t_start, t);
            tr.add(INGEST, t_start, t_model);
            tr.add(DETECT, t_model, t_end);
            tr.close(batch);
        }
        Ok(n)
    }

    /// Records `layer` from `since` until now into the open batch, when
    /// tracing, and returns now.
    fn stamp(&mut self, layer: usize, since: u64) -> u64 {
        let now = Wall.now();
        if let Some(t) = &mut self.tracer {
            t.add(layer, since, now);
        }
        now
    }

    /// Times the critic forward on the whole batch and the routed model
    /// on its unflagged rows — the two parts of `core.detect` that the
    /// detector does not expose separately.
    fn probe(&mut self, n: usize, width: usize) -> Result<(), String> {
        let detector = &self.artifacts.detector;
        let p = &mut self.probe;
        // the same entry points the detector takes for a batch of this size
        let t0 = Wall.now();
        if n == 1 {
            p.flags.clear();
            p.flags.push(
                detector
                    .predictor()
                    .is_adversarial_with(&self.rows, &mut p.critic),
            );
        } else {
            detector.predictor().is_adversarial_batch_into(
                &self.rows,
                &mut p.critic,
                &mut p.values,
                &mut p.flags,
            );
        }
        let t1 = Wall.now();
        p.clean.clear();
        for (i, &flagged) in p.flags.iter().enumerate() {
            if !flagged {
                p.clean
                    .extend_from_slice(&self.rows[i * width..(i + 1) * width]);
            }
        }
        let t2 = Wall.now();
        let (controller, models) = (detector.controller(), detector.models());
        if n == 1 && !p.clean.is_empty() {
            std::hint::black_box(
                controller
                    .predict_row_with(models, &p.clean, &mut p.model)
                    .map_err(err)?,
            );
        } else if !p.clean.is_empty() {
            controller
                .predict_batch_into(
                    models,
                    &p.clean,
                    width,
                    &mut p.model,
                    &mut p.probs,
                    &mut p.routed,
                )
                .map_err(err)?;
        }
        let t3 = Wall.now();
        let tr = self.tracer.as_mut().expect("probes run only when tracing");
        tr.add(CRITIC, t0, t1);
        tr.add(MODEL, t2, t3);
        tr.probe_windows += n as u64;
        Ok(())
    }
}
