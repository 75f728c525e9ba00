//! The workload shapes and one benchmark run: set-up (timed several
//! times), the correctness checks, the timed phase through
//! `ServingSession`/`FleetSession`, a fleet's latency phase, the traced
//! replica phases, and the quality pass. Every timed stretch is followed
//! by a yardstick reading, which restates its times at the nominal host
//! speed (see `yardstick`).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use hmd::core::{Framework, ServingArtifacts};
use hmd::ml::ConfusionMatrix;
use hmd::obs::SloRule;
use hmd::serving::{shard_stream_seed, FleetSession, ServingConfig, ServingSession};
use hmd_util::json::Json;

use crate::drive::{closed_loop, open_loop, Clock, Driven, Phase, Wall};
use crate::mirror::{self, Rendezvous, Shard, Tracer};
use crate::spec::Spec;
use crate::stats::{self, float};
use crate::yardstick::{slowdown, Yardstick, FLEET_SENSITIVITY, SENSITIVITY};
use crate::{err, ALLOC};

/// The traffic seed when none is given.
pub const DEFAULT_SEED: u64 = 41;
/// Every run trains its detector from this seed, so `--seed` changes the
/// traffic and never the models under test.
const MODEL_SEED: u64 = 41;
/// Set-ups timed per run: at least `MIN_SETUPS`, and more until they
/// have taken `SETUP_SECONDS` together; `setup_s` is their median. More
/// than [`FLEET_RUNS`], so the first set-up, which replicas serve, is
/// never one the timed phase serves.
const MIN_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 5.0;
/// Windows the batch-invariance and replica checks compare.
const CHECK_WINDOWS: usize = 8192;
/// Streamed windows in the quality pass, besides the adversarial test pool.
const QUALITY_WINDOWS: usize = 4096;
/// The quality pass is the same labeled set on every run.
const QUALITY_SEED: u64 = 0x5155_414C; // "QUAL"
/// Spans kept per replica shard; later spans are counted, not stored.
const SPAN_CAPACITY: usize = 1 << 16;
/// Segments per driven phase (see `drive::Phase`), each of at least
/// `MIN_SEGMENT` windows so its p99 has ten windows beyond it.
const SEGMENTS: usize = 40;
const MIN_SEGMENT: usize = 1_000;
/// The paper's sampling period: an open-loop p99 above it means windows
/// arrive faster than they are served.
const LATENCY_LIMIT_US: f64 = 10_000.0;
/// A fleet's timed phase is this many `FleetSession::run`s, each of an
/// equal share of the budget by a fleet of its own set-up, each with a
/// yardstick reading before and after it. Its rate is the mean of theirs
/// without the fastest and the slowest, so a run the host stalled is
/// dropped, restated by the mean of the readings: the host's speed
/// during one run is poorly read by the readings beside it, but over
/// eight runs it is.
const FLEET_RUNS: usize = 8;

/// Windows per segment of a phase of `windows` windows.
fn segment(windows: usize) -> usize {
    windows.div_ceil((windows / MIN_SEGMENT).clamp(1, SEGMENTS))
}

/// One workload: the traffic and serving shape a run drives.
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub shards: usize,
    pub batch: usize,
    /// Pre-drawn replay ring per shard; 0 synthesizes live traffic.
    pub replay: usize,
    pub adv_fraction: f64,
    /// Keep `ServingConfig::quick`'s 100% adversarial burst over 30–50%
    /// of the budget.
    pub burst: bool,
    /// Hot-swaps in each `FleetSession::run`; the retraining period
    /// follows from it.
    pub retrain_rounds: usize,
    /// Open-loop arrival rate per shard; 0 runs a closed loop.
    pub pace_wps: usize,
    /// Windows per second per shard the budget is sized by: roughly what
    /// this workload served on the 2-core host it was measured on, so a
    /// run lasts about `run_seconds`. The window count, not the time, is
    /// what stays fixed between two commits.
    pub nominal_wps: usize,
}

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "live",
        shards: 1,
        batch: 16,
        replay: 0,
        adv_fraction: 0.02,
        burst: true,
        retrain_rounds: 0,
        pace_wps: 0,
        nominal_wps: 5_000,
    },
    Shape {
        name: "replay",
        shards: 1,
        batch: 32,
        replay: 4096,
        adv_fraction: 0.02,
        burst: false,
        retrain_rounds: 0,
        pace_wps: 0,
        nominal_wps: 68_000,
    },
    Shape {
        name: "paced",
        shards: 1,
        batch: 1,
        replay: 4096,
        adv_fraction: 0.02,
        burst: false,
        retrain_rounds: 0,
        pace_wps: 25_000,
        nominal_wps: 25_000,
    },
    Shape {
        name: "fleet-retrain",
        shards: 2,
        batch: 32,
        replay: 4096,
        adv_fraction: 0.10,
        burst: false,
        retrain_rounds: 1,
        pace_wps: 0,
        nominal_wps: 57_000,
    },
];

impl Shape {
    /// The open-loop gap between two windows' due times.
    fn period_ns(&self) -> u64 {
        1_000_000_000 / self.pace_wps as u64
    }
}

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// What one run does.
#[derive(Debug)]
pub struct Plan {
    pub shape: &'static Shape,
    pub seed: u64,
    /// Windows per shard in the timed phase.
    pub windows: usize,
    pub trace: bool,
}

impl Plan {
    pub fn new(shape: &'static Shape, seed: u64, seconds: u64, trace: bool) -> Self {
        let seconds = usize::try_from(seconds).expect("seconds fit in usize");
        Self {
            shape,
            seed,
            windows: shape.nominal_wps * seconds,
            trace,
        }
    }

    /// The session configuration for a budget of `windows` per shard.
    /// Every configuration of a retraining workload retrains as often as
    /// each of the timed phase's fleet runs does.
    fn config(&self, windows: usize) -> ServingConfig {
        let s = self.shape;
        let mut cfg = ServingConfig::quick(MODEL_SEED);
        cfg.stream_seed = ServingConfig::quick(self.seed).stream_seed;
        cfg.samples = windows;
        cfg.batch = s.batch;
        cfg.replay = s.replay;
        cfg.adv_fraction = s.adv_fraction;
        if !s.burst {
            cfg.burst = None;
        }
        if s.retrain_rounds > 0 {
            cfg.retrain_every = (self.windows / FLEET_RUNS).div_ceil(s.retrain_rounds + 1);
        }
        cfg
    }

    /// The configuration the timed phase serves: the whole budget for a
    /// session, one of its [`FLEET_RUNS`] runs for a fleet.
    fn timed_config(&self) -> ServingConfig {
        if self.shape.shards > 1 {
            self.config(self.windows / FLEET_RUNS)
        } else {
            self.config(self.windows)
        }
    }

    /// Windows per shard in each of a traced run's two replica phases.
    fn replica_windows(&self) -> usize {
        (self.windows / 4).max(self.shape.batch)
    }

    /// Windows per shard in a fleet's latency phase.
    fn latency_windows(&self) -> usize {
        (self.windows / 2).max(self.shape.batch)
    }
}

/// The serving object under test.
enum Runner {
    Session(Box<ServingSession>),
    Fleet(FleetSession),
}

impl Runner {
    fn assemble(
        cfg: &ServingConfig,
        shards: usize,
        artifacts: &Arc<ServingArtifacts>,
    ) -> Result<Self, String> {
        Ok(if shards == 1 {
            let session = ServingSession::with_artifacts(cfg.clone(), Arc::clone(artifacts));
            Self::Session(Box::new(session.map_err(err)?))
        } else {
            Self::Fleet(
                FleetSession::with_artifacts(cfg, shards, Arc::clone(artifacts)).map_err(err)?,
            )
        })
    }

    /// The calibrated SLO rules every shard enforces.
    fn rules(&self) -> Vec<SloRule> {
        match self {
            Self::Session(s) => s.slo_rules().to_vec(),
            Self::Fleet(f) => f.shards()[0].slo_rules().to_vec(),
        }
    }
}

/// Verdict digests, one per shard, of the first `windows` windows of
/// `cfg` served by fresh sessions at `batch`.
fn digests(
    cfg: &ServingConfig,
    batch: usize,
    shards: usize,
    windows: usize,
    artifacts: &Arc<ServingArtifacts>,
) -> Result<Vec<u64>, String> {
    let mut cfg = cfg.clone();
    cfg.batch = batch;
    if shards == 1 {
        let mut session =
            ServingSession::with_artifacts(cfg, Arc::clone(artifacts)).map_err(err)?;
        let mut served = 0;
        while served < windows {
            served += session.step_batch().map_err(err)?;
        }
        return Ok(vec![session.outcome().digest]);
    }
    cfg.samples = windows;
    cfg.retrain_every = 0;
    let mut fleet =
        FleetSession::with_artifacts(&cfg, shards, Arc::clone(artifacts)).map_err(err)?;
    Ok(fleet.run().map_err(err)?.iter().map(|o| o.digest).collect())
}

/// Drives `serve` (one call serves up to a batch, 0 once the budget is
/// spent) for `windows` windows: an open loop at the shape's rate, or a
/// closed loop.
fn drive(
    shape: &Shape,
    windows: usize,
    mut serve: impl FnMut() -> Result<usize, String>,
) -> Driven {
    if shape.pace_wps > 0 {
        return open_loop(&Wall, windows, shape.period_ns(), || match serve()? {
            0 => Err("the budget ran out".to_owned()),
            _ => Ok(()),
        });
    }
    let mut left = windows;
    closed_loop(&Wall, windows / shape.batch + 1, || {
        if left == 0 {
            return Ok(0);
        }
        let n = serve()?;
        left = left.saturating_sub(n);
        Ok(n)
    })
}

/// Runs `f`, returning its result and the heap allocations made meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC.allocations();
    let out = f();
    (out, ALLOC.allocations() - before)
}

/// What the timed phase observed, from the program's own counters.
struct Timed {
    /// A session's segments; of a fleet's runs, only `served`,
    /// `busy_ns` and `elapsed_ns`.
    phase: Phase,
    /// A fleet's rate in each of its runs, windows/s over all shards.
    fleet_rates: Vec<f64>,
    /// The yardstick readings before and after each of a fleet's runs.
    fleet_readings_ns: Vec<f64>,
    /// The verdict digest of the whole phase, when it is a function of
    /// the seed: not a retraining fleet's (see `run`).
    digest: Option<u64>,
    flagged: u64,
    alert_edges: u64,
    drift_events: u64,
    incidents: u64,
    evicted: u64,
    allocs: u64,
    /// The artifacts serving at the end (the last generation).
    last: Arc<ServingArtifacts>,
}

/// The timed phase: every set-up in `setups` serves in turn, with no
/// window quarantined before it started. A session (the only set-up of a
/// single-shard workload) is driven in [`SEGMENTS`] segments, each
/// followed by a yardstick reading and then by `between`. A fleet's
/// shards run on its own threads, so each fleet is one call of
/// `FleetSession::run`, followed by `between`.
fn timed_phase(
    setups: &mut [(Arc<ServingArtifacts>, Runner)],
    plan: &Plan,
    yardstick: &Yardstick,
    failures: &mut Vec<String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Timed, String> {
    let shape = plan.shape;
    let cfg = plan.timed_config();
    let mut timed = Timed {
        phase: Phase::default(),
        fleet_rates: Vec::new(),
        fleet_readings_ns: Vec::new(),
        digest: None,
        flagged: 0,
        alert_edges: 0,
        drift_events: 0,
        incidents: 0,
        evicted: 0,
        allocs: 0,
        last: Arc::clone(&setups[0].0),
    };
    for (run, (artifacts, runner)) in setups.iter_mut().enumerate() {
        let _ = artifacts.detector.take_quarantine();
        let evicted_before = artifacts.detector.quarantine_evicted();
        match runner {
            Runner::Session(session) => {
                let segment = segment(plan.windows);
                let phase = &mut timed.phase;
                while phase.served < plan.windows && phase.error.is_none() {
                    let served = phase.served;
                    let n = segment.min(plan.windows - served);
                    let (driven, a) =
                        counting(|| drive(shape, n, || session.step_batch().map_err(err)));
                    timed.allocs += a;
                    phase.add(driven, yardstick.read());
                    between()?;
                    if phase.served == served {
                        break;
                    }
                }
                let o = session.outcome();
                if o.processed != plan.windows {
                    failures.push(format!(
                        "processed {} of {} windows",
                        o.processed, plan.windows
                    ));
                }
                timed.digest = Some(o.digest);
                timed.flagged = o.verdicts[0];
                timed.alert_edges = o.alert_transitions;
                timed.drift_events = o.drift_events;
                timed.incidents = session.incidents_total();
                timed.evicted = artifacts.detector.quarantine_evicted() - evicted_before;
                timed.last = session.artifacts_handle();
            }
            Runner::Fleet(fleet) => {
                let rounds = shape.retrain_rounds as u64;
                timed.fleet_readings_ns.push(yardstick.read());
                let t0 = Wall.now();
                let (result, allocs) = counting(|| fleet.run().map_err(err));
                let elapsed_ns = Wall.now() - t0;
                timed.fleet_readings_ns.push(yardstick.read());
                let phase = &mut timed.phase;
                let outcomes = result.unwrap_or_else(|e| {
                    phase.error = Some(e);
                    fleet.outcomes()
                });
                let served: usize = outcomes.iter().map(|o| o.processed).sum();
                phase.served += served;
                phase.elapsed_ns += elapsed_ns;
                // every shard is busy for the whole run
                phase.busy_ns += elapsed_ns * shape.shards as u64;
                timed
                    .fleet_rates
                    .push(float(served as u64) / (float(elapsed_ns) / 1e9));
                let hub = fleet.hub().expect("a retraining fleet has a hub");
                for (i, o) in outcomes.iter().enumerate() {
                    if o.processed != cfg.samples {
                        failures.push(format!(
                            "run {run} shard {i} processed {} of {}",
                            o.processed, cfg.samples
                        ));
                    }
                    if o.generation != rounds {
                        failures.push(format!(
                            "run {run} shard {i} ended on generation {}",
                            o.generation
                        ));
                    }
                }
                if hub.swaps() != rounds {
                    failures.push(format!(
                        "run {run}: {} hot-swaps, {rounds} scheduled",
                        hub.swaps()
                    ));
                }
                timed.flagged += outcomes.iter().map(|o| o.verdicts[0]).sum::<u64>();
                timed.alert_edges += outcomes.iter().map(|o| o.alert_transitions).sum::<u64>();
                timed.drift_events += outcomes.iter().map(|o| o.drift_events).sum::<u64>();
                timed.incidents += fleet
                    .shards()
                    .iter()
                    .map(ServingSession::incidents_total)
                    .sum::<u64>();
                timed.evicted += hub.quarantine_evicted() - evicted_before;
                timed.allocs += allocs;
                timed.last = hub.current();
                if timed.phase.error.is_some() {
                    break;
                }
                between()?;
            }
        }
    }
    if let Some(e) = &timed.phase.error {
        failures.push(format!("timed phase failed: {e}"));
    }
    Ok(timed)
}

/// One shard served from this process, one batch per call.
trait Lane: Send {
    /// Serves up to one batch; 0 once the budget is spent.
    fn serve(&mut self) -> Result<usize, String>;
    fn processed(&self) -> usize;
    /// The verdict digest after the first `check_at` windows.
    fn check_digest(&self) -> Option<u64>;
}

impl Lane for Shard {
    fn serve(&mut self) -> Result<usize, String> {
        self.serve_batch()
    }

    fn processed(&self) -> usize {
        Shard::processed(self)
    }

    fn check_digest(&self) -> Option<u64> {
        self.check_digest
    }
}

/// One of a fleet's shards as the product session its thread would
/// step, here stepped from this process so each call can be timed.
struct SessionLane {
    session: Box<ServingSession>,
    served: usize,
    check_at: usize,
    check_digest: Option<u64>,
}

impl Lane for SessionLane {
    fn serve(&mut self) -> Result<usize, String> {
        let n = self.session.step_batch().map_err(err)?;
        self.served += n;
        if self.served == self.check_at && n > 0 {
            self.check_digest = Some(self.session.outcome().digest);
        }
        Ok(n)
    }

    fn processed(&self) -> usize {
        self.served
    }

    fn check_digest(&self) -> Option<u64> {
        self.check_digest
    }
}

/// Every shard of the workload, served one segment at a time.
struct Lanes<S> {
    what: &'static str,
    shards: Vec<S>,
    rendezvous: Option<Arc<Rendezvous>>,
    /// Windows per shard.
    windows: usize,
    phase: Phase,
}

impl<S: Lane> Lanes<S> {
    fn remaining(&self) -> usize {
        self.windows - self.shards[0].processed()
    }

    /// Serves the next segment on every shard at once (one thread each),
    /// then reads the yardstick.
    fn serve_segment(&mut self, shape: &Shape, yardstick: &Yardstick) -> Result<(), String> {
        let n = segment(self.windows).min(self.remaining());
        if n == 0 {
            return Ok(());
        }
        let rendezvous = &self.rendezvous;
        let drivens: Vec<Driven> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| {
                    scope.spawn(move || {
                        let driven = drive(shape, n, || shard.serve());
                        if let (Some(_), Some(r)) = (&driven.error, rendezvous) {
                            r.abort();
                        }
                        driven
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread panicked"))
                .collect()
        });
        let reading = yardstick.read();
        for d in drivens {
            self.phase.add(d, reading);
        }
        match &self.phase.error {
            Some(e) => Err(format!("{} failed: {e}", self.what)),
            None => Ok(()),
        }
    }

    /// A failure when a shard's digest after the first windows differs
    /// from the batch-invariance check's.
    fn check(&self, want: &[u64]) -> Option<String> {
        let got: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.check_digest().unwrap_or(0))
            .collect();
        (got != want).then(|| {
            format!(
                "{} digests {got:x?} differ from the session's {want:x?}",
                self.what
            )
        })
    }
}

/// A replica of every shard of the workload (see `mirror`).
fn replica(
    plan: &Plan,
    artifacts: &Arc<ServingArtifacts>,
    rules: &[SloRule],
    check_at: usize,
    traced: bool,
) -> Result<Lanes<Shard>, String> {
    let shape = plan.shape;
    let cfg = plan.config(plan.replica_windows());
    let rendezvous = (shape.shards > 1).then(|| Arc::new(Rendezvous::new(shape.shards)));
    let shards = (0..shape.shards)
        .map(|i| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.stream_seed = shard_stream_seed(cfg.stream_seed, i);
            Shard::new(
                shard_cfg,
                Arc::clone(artifacts),
                rules.to_vec(),
                i,
                check_at,
                traced.then(|| Tracer::new(SPAN_CAPACITY)),
                rendezvous.clone(),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Lanes {
        what: if traced {
            "traced replica"
        } else {
            "untraced replica"
        },
        shards,
        rendezvous,
        windows: cfg.samples,
        phase: Phase::default(),
    })
}

/// A fleet's shards as product sessions around the fleet's (calibrated)
/// generation-0 artifacts, configured as `FleetSession` configures its
/// shards but without the hub: what each fleet thread runs between
/// retraining boundaries, on one shared detector.
fn fleet_sessions(
    plan: &Plan,
    artifacts: &Arc<ServingArtifacts>,
    rules: &[SloRule],
    check_at: usize,
) -> Result<Lanes<SessionLane>, String> {
    let mut cfg = plan.config(plan.latency_windows());
    cfg.retrain_every = 0;
    cfg.calibration_samples = 0;
    cfg.rules = rules.to_vec();
    let shards = (0..plan.shape.shards)
        .map(|i| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.stream_seed = shard_stream_seed(cfg.stream_seed, i);
            let session = ServingSession::with_artifacts(shard_cfg, Arc::clone(artifacts));
            Ok(SessionLane {
                session: Box::new(session.map_err(err)?),
                served: 0,
                check_at,
                check_digest: None,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Lanes {
        what: "fleet latency sessions",
        shards,
        rendezvous: None,
        windows: cfg.samples,
        phase: Phase::default(),
    })
}

/// The phases that take turns with the timed phase, segment by segment,
/// so a change in the host's speed reaches all of them alike.
struct Turns {
    /// A fleet's latency phase.
    sessions: Option<Lanes<SessionLane>>,
    /// A traced run's untraced and traced replicas.
    replicas: Vec<Lanes<Shard>>,
}

impl Turns {
    fn take(&mut self, shape: &Shape, yardstick: &Yardstick) -> Result<(), String> {
        if let Some(s) = &mut self.sessions {
            s.serve_segment(shape, yardstick)?;
        }
        self.replicas
            .iter_mut()
            .try_for_each(|r| r.serve_segment(shape, yardstick))
    }

    fn remaining(&self) -> bool {
        self.sessions.as_ref().is_some_and(|s| s.remaining() > 0)
            || self.replicas.iter().any(|r| r.remaining() > 0)
    }

    fn check(&self, want: &[u64]) -> Vec<String> {
        let sessions = self.sessions.iter().filter_map(|s| s.check(want));
        sessions
            .chain(self.replicas.iter().filter_map(|r| r.check(want)))
            .collect()
    }
}

/// The fixed labeled quality set: streamed windows plus the adversarial
/// test pool, feature-selected and scaled, with ground truth (malware
/// or adversarial is the attack class).
fn quality_set(
    cfg: &ServingConfig,
    artifacts: &ServingArtifacts,
) -> Result<(Vec<f64>, Vec<bool>), String> {
    let mut stream = mirror::stream(cfg, QUALITY_SEED);
    let idx = mirror::feature_index(&stream, artifacts)?;
    let mut rows = Vec::new();
    let mut truth = Vec::new();
    let mut row = vec![0.0; idx.len()];
    for _ in 0..QUALITY_WINDOWS {
        let w = stream.next().expect("the stream is endless");
        for (dst, &src) in row.iter_mut().zip(&idx) {
            *dst = w.values[src];
        }
        artifacts
            .bundle
            .scaler
            .transform_row(&mut row)
            .map_err(err)?;
        rows.extend_from_slice(&row);
        truth.push(w.is_malware());
    }
    for (adv, _) in &artifacts.attacks.test_result.adversarial {
        rows.extend_from_slice(adv);
        truth.push(true);
    }
    Ok((rows, truth))
}

/// F1 of `artifacts`' detector on the quality set, classified in batches
/// of `batch` through the arena path, and whether every verdict equals
/// the allocating per-row `classify` reference.
fn quality_pass(
    artifacts: &ServingArtifacts,
    rows: &[f64],
    truth: &[bool],
    batch: usize,
) -> Result<(f64, bool), String> {
    let detector = &artifacts.detector;
    let width = rows.len() / truth.len();
    let mut arena = detector.warmup(width, batch);
    let mut matrix = ConfusionMatrix::default();
    let mut agree = true;
    for (chunk, labels) in rows.chunks(batch * width).zip(truth.chunks(batch)) {
        detector
            .classify_batch_into(chunk, width, &mut arena)
            .map_err(err)?;
        for ((row, &attack), &verdict) in chunk.chunks(width).zip(labels).zip(arena.verdicts()) {
            agree &= detector.classify(row).map_err(err)? == verdict;
            match (attack, verdict.is_attack()) {
                (true, true) => matrix.tp += 1,
                (true, false) => matrix.fn_ += 1,
                (false, true) => matrix.fp += 1,
                (false, false) => matrix.tn += 1,
            }
        }
    }
    Ok((matrix.f1(), agree))
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `total / count`, or 0 when nothing was counted.
fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        float(total) / float(count)
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Present when the run was traced.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    /// The traced replica's spans, one array per shard.
    trace: Option<Json>,
    started_ms: u64,
}

/// Runs one workload. `Err` means the run could not be set up; a failed
/// correctness check is a report with `correct: false`.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let started_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let shape = plan.shape;
    let cfg = plan.timed_config();
    let mut failures = Vec::new();

    // set-up: train and assemble, several times; the last one is served,
    // or a fleet's last FLEET_RUNS, one per run. Each is bracketed by
    // yardstick readings. Replicas serve the first set-up's (identical)
    // models, so their quarantine pushes never reach the counters the
    // timed phase reads.
    let yardstick = Yardstick::new();
    let replicated = plan.trace;
    let (mut prepare_s, mut assemble_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_nominal_s = Vec::new();
    let served_setups = if shape.shards > 1 { FLEET_RUNS } else { 1 };
    let mut kept = VecDeque::new();
    let mut replica_artifacts = None;
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        // release the oldest set-up first: memory holds only the set-ups
        // the timed phase serves
        if kept.len() == served_setups {
            drop(kept.pop_front());
        }
        let before = yardstick.read();
        let t0 = Wall.now();
        let artifacts = Arc::new(
            Framework::new(cfg.framework.clone())
                .prepare_serving(cfg.kind)
                .map_err(err)?,
        );
        let t1 = Wall.now();
        let runner = Runner::assemble(&cfg, shape.shards, &artifacts)?;
        let t2 = Wall.now();
        let slow = slowdown((before + yardstick.read()) / 2.0, SENSITIVITY);
        prepare_s.push(float(t1 - t0) / 1e9);
        assemble_s.push(float(t2 - t1) / 1e9);
        setup_s.push(float(t2 - t0) / 1e9);
        setup_nominal_s.push(float(t2 - t0) / 1e9 / slow);
        if replicated && replica_artifacts.is_none() {
            replica_artifacts = Some(Arc::clone(&artifacts));
        }
        kept.push_back((artifacts, runner));
    }
    let mut setups = Vec::from(kept);
    let (artifacts, runner) = setups.last().expect("at least one set-up");
    let (artifacts, rules) = (Arc::clone(artifacts), runner.rules());

    // batch invariance on the replicas' configuration, which also pins
    // the replicas and a fleet's latency sessions to the session
    let check_cfg = plan.config(plan.replica_windows());
    let mut check_at = CHECK_WINDOWS.min(check_cfg.samples);
    if check_cfg.retrain_every > 0 {
        check_at = check_at.min(check_cfg.retrain_every);
    }
    check_at -= check_at % shape.batch;
    let scalar = digests(&check_cfg, 1, shape.shards, check_at, &artifacts)?;
    let batched = digests(&check_cfg, shape.batch, shape.shards, check_at, &artifacts)?;
    if scalar != batched {
        failures.push(format!(
            "batch invariance: batch 1 digests {scalar:x?}, batch {} {batched:x?}",
            shape.batch
        ));
    }

    // a fleet runs its calls on its own threads, where they cannot be
    // timed one by one; its latency comes from its shards' sessions
    // stepped from here, half their segments before the fleet runs, one
    // after each of its runs and the rest at the end, so a spell of load
    // on the host moves fewer of them. A traced run adds an untraced and
    // a traced replica for the tracing overhead.
    let mut turns = Turns {
        sessions: None,
        replicas: Vec::new(),
    };
    if shape.shards > 1 {
        let mut sessions = fleet_sessions(plan, &artifacts, &rules, check_at)?;
        for _ in 0..SEGMENTS / 2 {
            sessions.serve_segment(shape, &yardstick)?;
        }
        turns.sessions = Some(sessions);
    }
    if let Some(a) = &replica_artifacts {
        turns
            .replicas
            .push(replica(plan, a, &rules, check_at, false)?);
        turns
            .replicas
            .push(replica(plan, a, &rules, check_at, true)?);
    }
    let timed = timed_phase(&mut setups, plan, &yardstick, &mut failures, || {
        turns.take(shape, &yardstick)
    })?;
    while turns.remaining() {
        turns.take(shape, &yardstick)?;
    }
    failures.extend(turns.check(&batched));
    let attempted = (plan.windows * shape.shards) as u64;
    let served = timed.phase.served as u64;

    // the deployed detector's quality, and the last generation's
    let (rows, truth) = quality_set(&cfg, &artifacts)?;
    let (f1, agree) = quality_pass(&artifacts, &rows, &truth, shape.batch)?;
    let (final_f1, final_agree) = if Arc::ptr_eq(&timed.last, &artifacts) {
        (f1, agree)
    } else {
        quality_pass(&timed.last, &rows, &truth, shape.batch)?
    };
    if !(agree && final_agree) {
        failures.push("quality pass: batched verdicts differ from per-row classify".to_owned());
    }

    let latency = match &turns.sessions {
        Some(s) => &s.phase,
        None => &timed.phase,
    };
    if !latency.supported() {
        failures.push("a segment has fewer than ten windows beyond its p99".to_owned());
    }
    let (measured, nominal) = (latency.medians(false), latency.medians(true));
    // an open loop's rate is its schedule's, not the host's
    let (measured_rate, rate) = if shape.shards > 1 {
        let r = stats::trimmed_mean(&timed.fleet_rates);
        let reading = stats::mean(&timed.fleet_readings_ns);
        (r, r * slowdown(reading, FLEET_SENSITIVITY))
    } else if shape.pace_wps > 0 {
        (measured.rate, measured.rate)
    } else {
        (measured.rate, nominal.rate)
    };
    if shape.pace_wps > 0 {
        // the limit is on the host's own clock
        let p99_us = measured.p99_ns / 1e3;
        let met = if p99_us <= LATENCY_LIMIT_US {
            "met"
        } else {
            "MISSED"
        };
        println!(
            "LIMIT {} latency_p99_us {p99_us:.1} <= {LATENCY_LIMIT_US}: {met}",
            shape.name
        );
    }
    let end_to_end = vec![
        ("setup_s", stats::median(&setup_nominal_s)),
        ("throughput_wps", rate),
        ("latency_p50_us", nominal.p50_ns / 1e3),
        ("detect_f1", f1),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    let mut trace = None;
    let mut per_layer = None;
    if let [untraced, traced] = &mut turns.replicas[..] {
        let tracers: Vec<Tracer> = traced
            .shards
            .iter_mut()
            .filter_map(|s| s.tracer.take())
            .collect();
        let mut m = vec![
            ("latency_p99_us", nominal.p99_ns / 1e3),
            ("core.final_f1", final_f1),
        ];
        m.extend(layer_metrics(
            plan,
            &timed,
            &tracers,
            [untraced, traced],
            [&prepare_s, &assemble_s],
        ));
        m.extend([
            ("host.yardstick_us", latency.reading_ns() / 1e3),
            ("host.measured_setup_s", stats::median(&setup_s)),
            ("host.measured_throughput_wps", measured_rate),
            ("host.measured_latency_p50_us", measured.p50_ns / 1e3),
        ]);
        per_layer = Some(m);
        trace = Some(trace_json(&tracers));
    }
    Ok(Report {
        correct: failures.is_empty(),
        failures,
        attempted,
        failed: attempted - served.min(attempted),
        digest: timed.digest.unwrap_or_else(|| {
            // a retraining fleet's verdicts after its first hot-swap depend
            // on how its shards interleaved at the shared quarantine (see
            // the README), so its digest is the check's: the windows before
            // the first swap
            batched.iter().fold(hmd::recorder::DIGEST_SEED, |h, d| {
                (h ^ d).wrapping_mul(0x0100_0000_01B3)
            })
        }),
        end_to_end,
        per_layer,
        trace,
        started_ms,
    })
}

/// The per-layer metrics of a traced run, from the traced replica's
/// spans, the timed phase's counters and the untraced replica.
fn layer_metrics(
    plan: &Plan,
    timed: &Timed,
    tracers: &[Tracer],
    [untraced, traced]: [&Lanes<Shard>; 2],
    [prepare_s, assemble_s]: [&Vec<f64>; 2],
) -> Vec<(&'static str, f64)> {
    use mirror::{
        ALERT, BATCH, CRITIC, DETECT, HISTORY, INGEST, INTEGRITY, MODEL, MONITOR, RECORDER,
        RETRAIN, SIM, TABULAR,
    };
    let mut t = Tracer::new(0);
    for shard in tracers {
        t.absorb(shard);
    }
    let windows = traced.phase.served as u64;
    let shards = plan.shape.shards as u64;
    let per_window = |layer: usize| per(t.total_ns[layer], windows);
    let critic = per(t.total_ns[CRITIC], t.probe_windows);
    let model = per(t.total_ns[MODEL], t.probe_windows);
    let served = timed.phase.served as u64;
    // untraced time per window per shard: busy time inside serving calls
    // (a fleet's shards are busy for the whole phase)
    let step_ns = per(timed.phase.busy_ns, served);
    let accounted = per_window(BATCH) + per(t.total_ns[RETRAIN], windows / shards);
    let per_call = |r: &Lanes<Shard>| per(r.phase.busy_ns, r.phase.served as u64);
    let sim_calls: u64 = traced.shards.iter().map(|s| s.sim_calls).sum();
    vec![
        ("sim.draw_us", per(t.total_ns[SIM], t.calls[SIM]) / 1e3),
        ("sim.calls", float(sim_calls)),
        (
            "tabular.transform_ns",
            per(t.total_ns[TABULAR], t.calls[TABULAR]),
        ),
        (
            "serving.ingest_ns",
            per_window(INGEST) - per_window(SIM) - per_window(TABULAR),
        ),
        ("rl.critic_ns", critic),
        ("ml.model_ns", model),
        ("core.detect_ns", per_window(DETECT)),
        ("core.detect_self_ns", per_window(DETECT) - critic - model),
        ("core.flag_share", per(timed.flagged, served)),
        ("core.evicted", float(timed.evicted)),
        (
            "core.retrain_round_ms",
            per(t.total_ns[RETRAIN], t.calls[RETRAIN]) / 1e6,
        ),
        ("core.prepare_serving_s", stats::median(prepare_s)),
        ("serving.assemble_s", stats::median(assemble_s)),
        ("recorder.record_ns", per_window(RECORDER)),
        ("recorder.incidents", float(timed.incidents)),
        ("obs.monitor_ns", per_window(MONITOR)),
        ("obs.alert_eval_ns", per(t.total_ns[ALERT], t.calls[ALERT])),
        ("obs.alert_edges", float(timed.alert_edges)),
        (
            "obs.history_push_ns",
            per(t.total_ns[HISTORY], t.calls[HISTORY]),
        ),
        ("obs.drift_events", float(timed.drift_events)),
        (
            "integrity.check_ns",
            per(t.total_ns[INTEGRITY], t.calls[INTEGRITY]),
        ),
        ("serving.step_ns", step_ns),
        ("serving.residual_ns", step_ns - accounted),
        ("serving.allocs_per_window", per(timed.allocs, served)),
        (
            "trace.overhead_frac",
            per_call(traced) / per_call(untraced) - 1.0,
        ),
        ("paced.lag_max_us", float(timed.phase.lag_max_ns) / 1e3),
        ("paced.backlog_max", float(timed.phase.backlog_max)),
    ]
}

/// The traced replica's spans: per shard, rows of
/// `[batch, layer, parent, start_ns, dur_ns]` (parent −1 at a root).
fn trace_json(tracers: &[Tracer]) -> Json {
    let layers = mirror::LAYER_NAMES
        .iter()
        .map(|n| Json::Str((*n).to_owned()))
        .collect();
    let shards = tracers
        .iter()
        .map(|t| {
            let spans = t
                .spans
                .iter()
                .map(|s| {
                    let parent = mirror::PARENT[s.layer].map_or(-1, |p| p as i64);
                    Json::Arr(vec![
                        Json::UInt(s.batch),
                        Json::UInt(s.layer as u64),
                        Json::Int(parent),
                        Json::UInt(s.start_ns),
                        Json::UInt(s.dur_ns),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("spans".to_owned(), Json::Arr(spans)),
                ("dropped".to_owned(), Json::UInt(t.dropped)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "schema".to_owned(),
            Json::Str("hmdbench-trace-v1".to_owned()),
        ),
        (
            "span".to_owned(),
            Json::Str("[batch, layer, parent, start_ns, dur_ns]".to_owned()),
        ),
        ("layers".to_owned(), Json::Arr(layers)),
        ("shards".to_owned(), Json::Arr(shards)),
    ])
}

impl Report {
    /// Prints the metric lines, the digest and the closing JSON line,
    /// and writes the result (and trace) files into `out`.
    pub fn emit(&self, spec: &Spec, plan: &Plan, out: &Path) -> Result<(), String> {
        let (metrics, declared) = match &self.per_layer {
            Some(m) if plan.trace => (m, &spec.per_layer),
            _ => (&self.end_to_end, &spec.end_to_end),
        };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        if names != want {
            return Err(format!(
                "emitted metrics {names:?} do not match BENCHMARK.json {want:?}"
            ));
        }
        let workload = plan.shape.name;
        let mut fields = Vec::new();
        for ((name, value), m) in metrics.iter().zip(declared) {
            println!("METRIC {workload} {name} {value} {}", m.unit);
            fields.push((
                (*name).to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Float(*value)),
                    ("unit".to_owned(), Json::Str(m.unit.clone())),
                ]),
            ));
        }
        println!("DIGEST {workload} {:016x}", self.digest);
        for f in &self.failures {
            eprintln!("hmdbench: {workload}: FAILED: {f}");
        }
        let metrics = Json::Obj(fields);
        let shape = plan.shape;
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let result = Json::Obj(vec![
            (
                "schema".to_owned(),
                Json::Str("hmdbench-result-v1".to_owned()),
            ),
            ("workload".to_owned(), Json::Str(workload.to_owned())),
            ("seed".to_owned(), Json::UInt(plan.seed)),
            ("trace".to_owned(), Json::Bool(plan.trace)),
            ("cores".to_owned(), Json::UInt(cores as u64)),
            ("shards".to_owned(), Json::UInt(shape.shards as u64)),
            ("batch".to_owned(), Json::UInt(shape.batch as u64)),
            ("windows".to_owned(), Json::UInt(plan.windows as u64)),
            ("rate".to_owned(), Json::UInt(shape.pace_wps as u64)),
            ("started_ms".to_owned(), Json::UInt(self.started_ms)),
            (
                "digest".to_owned(),
                Json::Str(format!("{:016x}", self.digest)),
            ),
            ("correct".to_owned(), Json::Bool(self.correct)),
            (
                "failures".to_owned(),
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("metrics".to_owned(), metrics.clone()),
        ]);
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let suffix = if plan.trace { "_trace" } else { "" };
        let path = out.join(format!("hmdbench_{workload}_s{}{suffix}.json", plan.seed));
        std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(trace) = &self.trace {
            let path = out.join(format!("TRACE_{workload}_s{}.json", plan.seed));
            std::fs::write(&path, trace.to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let last = Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("metrics".to_owned(), metrics),
        ]);
        println!("{last}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `replay` with a small ring, so the smoke run stays short in a
    /// debug build.
    static SMOKE: Shape = Shape {
        replay: 256,
        ..SHAPES[1]
    };

    #[test]
    fn every_declared_workload_has_a_shape() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
        assert_eq!(names, spec.workloads);
    }

    #[test]
    fn a_replay_smoke_run_passes_the_gate_and_emits_the_declared_metrics() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let plan = Plan {
            shape: &SMOKE,
            seed: 7,
            windows: 2048,
            trace: true,
        };
        let report = run(&plan).expect("the smoke run sets up");
        assert!(report.correct, "{:?}", report.failures);
        assert_eq!((report.attempted, report.failed), (2048, 0));
        let per_layer = report
            .per_layer
            .as_ref()
            .expect("a traced run reports layers");
        for (emitted, declared) in [
            (&report.end_to_end, &spec.end_to_end),
            (per_layer, &spec.per_layer),
        ] {
            let names: Vec<&str> = emitted.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want);
            assert!(emitted.iter().all(|(_, v)| v.is_finite()));
        }
    }
}
