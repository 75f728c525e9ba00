//! Flight recorder + incident bundles: the serving loop's black box.
//!
//! Every shard keeps a [`FlightRecorder`] — a preallocated ring of the
//! last N served windows (raw feature row, adversarial-predictor critic
//! value, routing decision, verdict, model generation, model-only
//! latency). Recording runs no inference: the serving loop hands the
//! ring the critic value the detector already computed (left in the
//! [`InferArena`](hmd_core::InferArena)), and every per-window write is
//! a copy into flat buffers sized once at construction. Per-model
//! probabilities are not kept; `replay` recomputes them from the row at
//! the pinned generation.
//!
//! When an SLO alert crosses a fire edge, the shard snapshots the ring
//! plus its monitor/alert/generation state into an [`IncidentBundle`]:
//! a seeded, JSON-serializable forensic record that pins everything a
//! later [`replay`](../replay/index.html) run needs to re-execute the
//! exact alert-tripping windows through the exact model generation and
//! assert byte-identical verdicts. Floats round-trip exactly through
//! `hmd_util::json` (shortest-representation `Display` + `from_str`),
//! so the rows a bundle carries replay bit-for-bit.
//!
//! The verdict digest helpers ([`DIGEST_SEED`], [`digest_step`],
//! [`verdict_digest`]) are the single definition of the FNV-1a verdict
//! chain shared by the serving loop, the bundles and the replay
//! binary.

use hmd_core::{AdaptiveDetector, CoreError, Verdict};
use hmd_nn::InferScratch;
use hmd_obs::{AlertTransition, MonitorSnapshot};
use hmd_rl::ConstraintKind;
use hmd_util::json::{field, Json, JsonError};

use crate::serving::{Burst, ServingConfig};

/// Schema tag written into every bundle. v3 drops the per-window
/// `model_probs` array (v2 added the `traces` array of promoted stage
/// traces).
pub const BUNDLE_SCHEMA: &str = "hmd-incident-v3";

/// Earlier bundle schemas, still accepted on parse so old bundles
/// replay: v1 carries no traces, and the `model_probs` of v1 and v2
/// windows are ignored.
pub const BUNDLE_SCHEMAS_READ: [&str; 3] = [BUNDLE_SCHEMA, "hmd-incident-v2", "hmd-incident-v1"];

/// FNV-1a offset basis — the seed of every verdict digest chain.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The digest slot of a verdict (paper ordering: adversarial, malware,
/// benign).
#[must_use]
pub fn verdict_slot(v: Verdict) -> u64 {
    match v {
        Verdict::AdversarialAttack => 0,
        Verdict::MalwareAttack => 1,
        Verdict::Benign => 2,
    }
}

/// Folds one verdict into an FNV-1a digest chain.
#[must_use]
pub fn digest_step(hash: u64, v: Verdict) -> u64 {
    (hash ^ (verdict_slot(v) + 1)).wrapping_mul(0x0100_0000_01b3)
}

/// The digest of a whole verdict sequence, from [`DIGEST_SEED`].
#[must_use]
pub fn verdict_digest<I: IntoIterator<Item = Verdict>>(verdicts: I) -> u64 {
    verdicts.into_iter().fold(DIGEST_SEED, digest_step)
}

/// The wire name of a verdict.
#[must_use]
pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::AdversarialAttack => "adversarial",
        Verdict::MalwareAttack => "malware",
        Verdict::Benign => "benign",
    }
}

/// Parses a wire verdict name.
///
/// # Errors
///
/// Returns [`JsonError`] on an unknown name.
pub fn parse_verdict(name: &str) -> Result<Verdict, JsonError> {
    match name {
        "adversarial" => Ok(Verdict::AdversarialAttack),
        "malware" => Ok(Verdict::MalwareAttack),
        "benign" => Ok(Verdict::Benign),
        other => Err(JsonError::new(format!("unknown verdict {other:?}"))),
    }
}

fn kind_key(kind: ConstraintKind) -> &'static str {
    kind.key()
}

fn parse_kind(key: &str) -> Result<ConstraintKind, JsonError> {
    ConstraintKind::ALL
        .into_iter()
        .find(|k| k.key() == key)
        .ok_or_else(|| JsonError::new(format!("unknown constraint kind {key:?}")))
}

/// The per-window pipeline stages a trace stamps, in hot-loop order;
/// [`WindowTrace::stage_ns`] is index-aligned with this list. `critic`
/// is the detector's critic forward, `model` the rest of the classify
/// call (quarantine pushes, routed model), `bookkeeping` the recorder
/// write, digest, counters and clock, `record` monitor and history.
/// Batched stages are amortized per window.
pub const TRACE_STAGES: [&str; 6] =
    ["draw", "transform", "critic", "model", "bookkeeping", "record"];

/// Why a window's trace was promoted out of the per-window slab into
/// the bounded trace store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceReason {
    /// The verdict was adversarial — the deterministic promotion class
    /// (identical across batch sizes, thread counts and shard counts).
    Flagged,
    /// The window set a new session latency maximum (wall-clock, so
    /// promotion membership is informational, never compared for byte
    /// determinism).
    LatencyTail,
}

impl TraceReason {
    /// The wire name of the reason.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Flagged => "flagged",
            Self::LatencyTail => "latency_tail",
        }
    }

    fn parse(name: &str) -> Result<Self, JsonError> {
        match name {
            "flagged" => Ok(Self::Flagged),
            "latency_tail" => Ok(Self::LatencyTail),
            other => Err(JsonError::new(format!("unknown trace reason {other:?}"))),
        }
    }
}

/// One promoted per-window stage trace: cumulative stage-end offsets
/// (ns since the window's draw began) for every pipeline stage in
/// [`TRACE_STAGES`] order. Cumulative means the array is monotone
/// non-decreasing by construction; stage *durations* are adjacent
/// differences.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowTrace {
    /// Zero-based shard sample index of the traced window.
    pub sample: u64,
    /// Stream time the window was served at.
    pub t_ns: u64,
    /// Model generation that served the window.
    pub generation: u64,
    /// The verdict the serving loop emitted.
    pub verdict: Verdict,
    /// Why the trace was promoted.
    pub reason: TraceReason,
    /// Cumulative wall-clock stage-end offsets, [`TRACE_STAGES`] order.
    pub stage_ns: [u64; 6],
    /// Total wall-clock window latency (equals the last stage end).
    pub latency_ns: u64,
}

impl WindowTrace {
    /// The all-zero trace used to preallocate ring slots.
    pub const ZERO: Self = Self {
        sample: 0,
        t_ns: 0,
        generation: 0,
        verdict: Verdict::Benign,
        reason: TraceReason::Flagged,
        stage_ns: [0; 6],
        latency_ns: 0,
    };

    /// Serializes the trace. The stage array lives under a
    /// `stage_latency_ns` key on purpose: byte-determinism comparisons
    /// scrub every key containing `latency`, so wall-clock stage
    /// timings never poison bundle digests.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sample".to_owned(), Json::UInt(self.sample)),
            ("t_ns".to_owned(), Json::UInt(self.t_ns)),
            ("generation".to_owned(), Json::UInt(self.generation)),
            ("verdict".to_owned(), Json::Str(verdict_name(self.verdict).to_owned())),
            ("reason".to_owned(), Json::Str(self.reason.name().to_owned())),
            (
                "stage_latency_ns".to_owned(),
                Json::Arr(self.stage_ns.iter().map(|&n| Json::UInt(n)).collect()),
            ),
            ("latency_ns".to_owned(), Json::UInt(self.latency_ns)),
        ])
    }

    /// Parses a trace from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any malformed or missing field or a
    /// stage array of the wrong length.
    pub fn from_json(j: &Json) -> Result<Self, JsonError> {
        let stages = j
            .get("stage_latency_ns")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::new("missing array \"stage_latency_ns\""))?;
        if stages.len() != TRACE_STAGES.len() {
            return Err(JsonError::new(format!(
                "stage_latency_ns has {} entries (expected {})",
                stages.len(),
                TRACE_STAGES.len()
            )));
        }
        let mut stage_ns = [0_u64; 6];
        for (slot, v) in stage_ns.iter_mut().zip(stages) {
            *slot = v
                .as_f64()
                .ok_or_else(|| JsonError::new("non-number in \"stage_latency_ns\""))?
                as u64;
        }
        Ok(Self {
            sample: field(j, "sample")?,
            t_ns: field(j, "t_ns")?,
            generation: field(j, "generation")?,
            verdict: parse_verdict(&field::<String>(j, "verdict")?)?,
            reason: TraceReason::parse(&field::<String>(j, "reason")?)?,
            stage_ns,
            latency_ns: field(j, "latency_ns")?,
        })
    }
}

/// A preallocated ring of promoted traces (oldest evicted first).
#[derive(Debug)]
struct TraceRing {
    cap: usize,
    head: usize,
    len: usize,
    slots: Vec<WindowTrace>,
}

impl TraceRing {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace ring capacity must be positive");
        Self { cap, head: 0, len: 0, slots: vec![WindowTrace::ZERO; cap] }
    }

    fn push(&mut self, trace: WindowTrace) {
        self.slots[self.head] = trace;
        self.head = (self.head + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
    }

    fn snapshot(&self) -> Vec<WindowTrace> {
        (0..self.len)
            .map(|i| self.slots[(self.head + self.cap - self.len + i) % self.cap])
            .collect()
    }
}

/// The per-shard store of promoted window traces: two independent
/// preallocated rings, one for deterministically flagged windows (the
/// set replayed and digest-compared) and one for wall-clock latency
/// tails — so a burst of slow-but-benign windows can never evict the
/// forensic flagged history.
#[derive(Debug)]
pub struct TraceStore {
    flagged: TraceRing,
    tail: TraceRing,
}

/// Default flagged-ring capacity.
pub const TRACE_FLAGGED_CAP: usize = 32;
/// Default latency-tail ring capacity.
pub const TRACE_TAIL_CAP: usize = 8;

impl TraceStore {
    /// Builds a store with the default ring capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_caps(TRACE_FLAGGED_CAP, TRACE_TAIL_CAP)
    }

    /// Builds a store with explicit ring capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn with_caps(flagged_cap: usize, tail_cap: usize) -> Self {
        Self { flagged: TraceRing::new(flagged_cap), tail: TraceRing::new(tail_cap) }
    }

    /// Promotes one trace into the ring its reason selects. In-place
    /// `Copy` write — allocation-free after construction.
    pub fn push(&mut self, trace: WindowTrace) {
        match trace.reason {
            TraceReason::Flagged => self.flagged.push(trace),
            TraceReason::LatencyTail => self.tail.push(trace),
        }
    }

    /// Promoted flagged traces, oldest first. Allocates — snapshot
    /// path only, never per window.
    #[must_use]
    pub fn flagged(&self) -> Vec<WindowTrace> {
        self.flagged.snapshot()
    }

    /// Promoted latency-tail traces, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<WindowTrace> {
        self.tail.snapshot()
    }

    /// Total traces currently held across both rings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flagged.len + self.tail.len
    }

    /// Whether nothing has been promoted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Schema tag of the `/traces.json` document.
pub const TRACES_SCHEMA: &str = "hmd-traces-v2";

/// One shard's promoted traces, as served by `/traces.json`.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Deterministically flagged traces, oldest first.
    pub flagged: Vec<WindowTrace>,
    /// Wall-clock latency-tail traces, oldest first.
    pub tail: Vec<WindowTrace>,
}

/// Renders the `/traces.json` document for a fleet of shards.
#[must_use]
pub fn traces_json(shards: &[TraceSnapshot]) -> Json {
    let trace_arr =
        |ts: &[WindowTrace]| Json::Arr(ts.iter().map(WindowTrace::to_json).collect());
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(TRACES_SCHEMA.to_owned())),
        (
            "stages".to_owned(),
            Json::Arr(TRACE_STAGES.iter().map(|&s| Json::Str(s.to_owned())).collect()),
        ),
        (
            "per_shard".to_owned(),
            Json::Arr(
                shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Json::Obj(vec![
                            ("shard".to_owned(), Json::UInt(i as u64)),
                            ("flagged".to_owned(), trace_arr(&s.flagged)),
                            ("latency_tail".to_owned(), trace_arr(&s.tail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One served window as the flight recorder captured it: everything
/// the replay binary needs to re-classify it bit-for-bit plus the
/// evidence a human reads first.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentWindow {
    /// Zero-based shard sample index of this window.
    pub sample: u64,
    /// Stream time the window was served at.
    pub t_ns: u64,
    /// The verdict the serving loop emitted.
    pub verdict: Verdict,
    /// The adversarial predictor's critic value for the row: the value
    /// the serving detector made its flag decision on.
    pub adv_score: f64,
    /// The model the UCB controller had routed to.
    pub selected_model: usize,
    /// The model generation that served the window.
    pub generation: u64,
    /// Wall-clock model-only latency (informational; scrubbed when
    /// bundles are compared for byte determinism).
    pub model_latency_ns: u64,
    /// The feature-selected, scaled input row.
    pub row: Vec<f64>,
}

impl IncidentWindow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sample".to_owned(), Json::UInt(self.sample)),
            ("t_ns".to_owned(), Json::UInt(self.t_ns)),
            ("verdict".to_owned(), Json::Str(verdict_name(self.verdict).to_owned())),
            ("adv_score".to_owned(), Json::Float(self.adv_score)),
            ("selected_model".to_owned(), Json::UInt(self.selected_model as u64)),
            ("generation".to_owned(), Json::UInt(self.generation)),
            ("model_latency_ns".to_owned(), Json::UInt(self.model_latency_ns)),
            ("row".to_owned(), Json::Arr(self.row.iter().map(|&x| Json::Float(x)).collect())),
        ])
    }

    /// Parses a window; a v1/v2 `model_probs` array is ignored.
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            sample: field(j, "sample")?,
            t_ns: field(j, "t_ns")?,
            verdict: parse_verdict(&field::<String>(j, "verdict")?)?,
            adv_score: field(j, "adv_score")?,
            selected_model: field(j, "selected_model")?,
            generation: field(j, "generation")?,
            model_latency_ns: field(j, "model_latency_ns")?,
            row: field(j, "row")?,
        })
    }
}

/// One alert edge from the evaluation that captured the bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentTrigger {
    /// The rule that transitioned.
    pub rule: String,
    /// `"warning"` or `"critical"`.
    pub severity: String,
    /// `true` = fired (at least one trigger always is), `false` =
    /// resolved in the same evaluation.
    pub firing: bool,
    /// The observed value that drove the flip.
    pub observed: f64,
    /// The rule threshold at capture time (post-calibration).
    pub threshold: f64,
}

impl IncidentTrigger {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rule".to_owned(), Json::Str(self.rule.clone())),
            ("severity".to_owned(), Json::Str(self.severity.clone())),
            ("firing".to_owned(), Json::Bool(self.firing)),
            ("observed".to_owned(), Json::Float(self.observed)),
            ("threshold".to_owned(), Json::Float(self.threshold)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            rule: field(j, "rule")?,
            severity: field(j, "severity")?,
            firing: field(j, "firing")?,
            observed: field(j, "observed")?,
            threshold: field(j, "threshold")?,
        })
    }
}

/// The monitor's windowed view at capture time (informational; the
/// latency quantiles are wall-clock and scrubbed in byte-determinism
/// comparisons).
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentMonitor {
    /// Samples in the sliding window.
    pub samples: u64,
    /// Windowed confusion: detected attacks.
    pub tp: u64,
    /// Windowed confusion: missed attacks.
    pub fn_: u64,
    /// Windowed confusion: false alarms.
    pub fp: u64,
    /// Windowed confusion: clean passes.
    pub tn: u64,
    /// Windowed adversarial flags.
    pub flags: u64,
    /// Windowed integrity drift events.
    pub drifts: u64,
    /// All-time processed samples.
    pub total_samples: u64,
    /// Windowed model-only latency p95 in milliseconds (wall-clock).
    pub model_latency_p95_ms: f64,
}

impl IncidentMonitor {
    /// Captures the bundle-facing summary of a monitor snapshot.
    #[must_use]
    pub fn capture(snap: &MonitorSnapshot) -> Self {
        Self {
            samples: snap.samples,
            tp: snap.tp,
            fn_: snap.fn_,
            fp: snap.fp,
            tn: snap.tn,
            flags: snap.flags,
            drifts: snap.drifts,
            total_samples: snap.total_samples,
            model_latency_p95_ms: snap.model_latency_p95_ms(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("samples".to_owned(), Json::UInt(self.samples)),
            ("tp".to_owned(), Json::UInt(self.tp)),
            ("fn".to_owned(), Json::UInt(self.fn_)),
            ("fp".to_owned(), Json::UInt(self.fp)),
            ("tn".to_owned(), Json::UInt(self.tn)),
            ("flags".to_owned(), Json::UInt(self.flags)),
            ("drifts".to_owned(), Json::UInt(self.drifts)),
            ("total_samples".to_owned(), Json::UInt(self.total_samples)),
            ("model_latency_p95_ms".to_owned(), Json::Float(self.model_latency_p95_ms)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            samples: field(j, "samples")?,
            tp: field(j, "tp")?,
            fn_: field(j, "fn")?,
            fp: field(j, "fp")?,
            tn: field(j, "tn")?,
            flags: field(j, "flags")?,
            drifts: field(j, "drifts")?,
            total_samples: field(j, "total_samples")?,
            model_latency_p95_ms: field(j, "model_latency_p95_ms")?,
        })
    }
}

/// Everything replay needs to rebuild the serving universe: the quick
/// base seed plus every `ServingConfig` override the CLI and the test
/// builders reach for. Applied over [`ServingConfig::quick`], this
/// reproduces the original configuration exactly.
fn config_to_json(cfg: &ServingConfig, shards: usize) -> Json {
    let burst = match cfg.burst {
        Some(b) => Json::Obj(vec![
            ("start".to_owned(), Json::Float(b.start)),
            ("end".to_owned(), Json::Float(b.end)),
            ("adv_fraction".to_owned(), Json::Float(b.adv_fraction)),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("base_seed".to_owned(), Json::UInt(cfg.base_seed)),
        ("kind".to_owned(), Json::Str(kind_key(cfg.kind).to_owned())),
        ("samples".to_owned(), Json::UInt(cfg.samples as u64)),
        ("malware_fraction".to_owned(), Json::Float(cfg.malware_fraction)),
        ("adv_fraction".to_owned(), Json::Float(cfg.adv_fraction)),
        ("burst".to_owned(), burst),
        ("tick_ns".to_owned(), Json::UInt(cfg.tick_ns)),
        ("window_slots".to_owned(), Json::UInt(cfg.window.slots as u64)),
        ("window_slot_ns".to_owned(), Json::UInt(cfg.window.slot_ns)),
        ("evaluate_every".to_owned(), Json::UInt(cfg.evaluate_every as u64)),
        ("integrity_every".to_owned(), Json::UInt(cfg.integrity_every as u64)),
        ("calibration_samples".to_owned(), Json::UInt(cfg.calibration_samples as u64)),
        ("stream_seed".to_owned(), Json::UInt(cfg.stream_seed)),
        ("batch".to_owned(), Json::UInt(cfg.batch as u64)),
        ("replay".to_owned(), Json::UInt(cfg.replay as u64)),
        ("retrain_every".to_owned(), Json::UInt(cfg.retrain_every as u64)),
        ("recorder".to_owned(), Json::UInt(cfg.recorder as u64)),
        ("shards".to_owned(), Json::UInt(shards as u64)),
    ])
}

/// Ceiling on a bundle's `shards`: `replay` re-runs a fleet of that many
/// shards, one session and one thread each. The repository's fleets run
/// two shards, or one per core.
pub const MAX_SHARDS: usize = 256;
/// Ceiling on a bundle's `window_slots`: every windowed aggregate
/// allocates one bucket set per slot. Sessions serve with 8.
pub const MAX_WINDOW_SLOTS: usize = 1024;

/// Inverse of [`config_to_json`]. Keys it does not read are ignored —
/// among them `arena` and `monitoring`, which bundles captured while the
/// serving config still had those switches carry. The result must pass
/// the same [`ServingConfig::check`] session assembly runs.
fn config_from_json(j: &Json) -> Result<(ServingConfig, usize), JsonError> {
    let base_seed: u64 = field(j, "base_seed")?;
    let mut cfg = ServingConfig::quick(base_seed);
    cfg.kind = parse_kind(&field::<String>(j, "kind")?)?;
    cfg.samples = field(j, "samples")?;
    cfg.malware_fraction = field(j, "malware_fraction")?;
    cfg.adv_fraction = field(j, "adv_fraction")?;
    cfg.burst = match j.get("burst") {
        None | Some(Json::Null) => None,
        Some(b) => Some(Burst {
            start: field(b, "start")?,
            end: field(b, "end")?,
            adv_fraction: field(b, "adv_fraction")?,
        }),
    };
    cfg.tick_ns = field(j, "tick_ns")?;
    let slots: usize = field(j, "window_slots")?;
    let slot_ns: u64 = field(j, "window_slot_ns")?;
    // WindowConfig::new asserts its shape; a bundle is untrusted input
    if !(2..=MAX_WINDOW_SLOTS).contains(&slots) || slot_ns == 0 {
        return Err(JsonError::new(format!("invalid window shape: {slots} slots of {slot_ns} ns")));
    }
    cfg.window = hmd_obs::WindowConfig::new(slots, slot_ns);
    cfg.evaluate_every = field(j, "evaluate_every")?;
    cfg.integrity_every = field(j, "integrity_every")?;
    cfg.calibration_samples = field(j, "calibration_samples")?;
    cfg.stream_seed = field(j, "stream_seed")?;
    cfg.batch = field(j, "batch")?;
    cfg.replay = field(j, "replay")?;
    cfg.retrain_every = field(j, "retrain_every")?;
    cfg.recorder = field(j, "recorder")?;
    cfg.check().map_err(|e| JsonError::new(e.to_string()))?;
    let shards: usize = field(j, "shards")?;
    if shards > MAX_SHARDS {
        return Err(JsonError::new(format!("{shards} shards exceeds MAX_SHARDS ({MAX_SHARDS})")));
    }
    Ok((cfg, shards))
}

/// A forensic snapshot captured on an SLO alert fire edge: the flight
/// recorder ring (oldest first) plus the monitor, alert and generation
/// state at the moment of capture, and the seeded configuration replay
/// needs to rebuild the exact serving universe.
#[derive(Clone, Debug)]
pub struct IncidentBundle {
    /// Bundle id, `s<shard>-i<seq>` — unique within a fleet run.
    pub id: String,
    /// The shard that tripped.
    pub shard: usize,
    /// Zero-based incident sequence number on that shard.
    pub seq: u64,
    /// Stream time of the capturing alert evaluation.
    pub t_ns: u64,
    /// Shard samples processed when the bundle was captured.
    pub sample_index: u64,
    /// Model generation deployed at capture time.
    pub generation: u64,
    /// The shard's own traffic seed (informational; the `config`
    /// section carries the fleet base seed replay rebuilds from).
    pub stream_seed: u64,
    /// FNV-1a digest over the recorded window verdicts, oldest first —
    /// the value replay must reproduce byte-identically.
    pub verdict_digest: u64,
    /// The alert edges of the capturing evaluation (at least one fire).
    pub triggers: Vec<IncidentTrigger>,
    /// Every rule firing after the capturing evaluation.
    pub alerts_firing: Vec<String>,
    /// The monitor's windowed view at capture time.
    pub monitor: IncidentMonitor,
    /// Zoo model names, index-aligned with every window's
    /// `selected_model`.
    pub model_names: Vec<String>,
    /// The serving configuration (base seed + overrides).
    pub config: ServingConfig,
    /// Fleet shard count the configuration ran under.
    pub shards: usize,
    /// The recorded windows, oldest first.
    pub windows: Vec<IncidentWindow>,
    /// Promoted flagged stage traces at capture time, oldest first
    /// (v2; empty when parsed from a v1 document). Only the
    /// deterministic flagged ring is embedded — latency-tail
    /// membership is wall-clock and stays endpoint-only.
    pub traces: Vec<WindowTrace>,
}

impl IncidentBundle {
    /// Serializes the bundle to its canonical JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(BUNDLE_SCHEMA.to_owned())),
            ("id".to_owned(), Json::Str(self.id.clone())),
            ("shard".to_owned(), Json::UInt(self.shard as u64)),
            ("seq".to_owned(), Json::UInt(self.seq)),
            ("t_ns".to_owned(), Json::UInt(self.t_ns)),
            ("sample_index".to_owned(), Json::UInt(self.sample_index)),
            ("generation".to_owned(), Json::UInt(self.generation)),
            ("stream_seed".to_owned(), Json::UInt(self.stream_seed)),
            ("verdict_digest".to_owned(), Json::UInt(self.verdict_digest)),
            (
                "triggers".to_owned(),
                Json::Arr(self.triggers.iter().map(IncidentTrigger::to_json).collect()),
            ),
            (
                "alerts_firing".to_owned(),
                Json::Arr(self.alerts_firing.iter().map(|r| Json::Str(r.clone())).collect()),
            ),
            ("monitor".to_owned(), self.monitor.to_json()),
            (
                "model_names".to_owned(),
                Json::Arr(self.model_names.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            ("config".to_owned(), config_to_json(&self.config, self.shards)),
            (
                "windows".to_owned(),
                Json::Arr(self.windows.iter().map(IncidentWindow::to_json).collect()),
            ),
            (
                "traces".to_owned(),
                Json::Arr(self.traces.iter().map(WindowTrace::to_json).collect()),
            ),
        ])
    }

    /// Parses a bundle from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on a schema mismatch or any malformed or
    /// missing field.
    pub fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema: String = field(j, "schema")?;
        if !BUNDLE_SCHEMAS_READ.contains(&schema.as_str()) {
            return Err(JsonError::new(format!(
                "unsupported bundle schema {schema:?} (expected one of {BUNDLE_SCHEMAS_READ:?})"
            )));
        }
        let arr = |name: &str| -> Result<&[Json], JsonError> {
            j.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| JsonError::new(format!("missing array {name:?}")))
        };
        let triggers =
            arr("triggers")?.iter().map(IncidentTrigger::from_json).collect::<Result<_, _>>()?;
        let alerts_firing = arr("alerts_firing")?
            .iter()
            .map(|v| v.as_str().map(str::to_owned).ok_or_else(|| JsonError::new("non-string rule")))
            .collect::<Result<_, _>>()?;
        let model_names = arr("model_names")?
            .iter()
            .map(|v| v.as_str().map(str::to_owned).ok_or_else(|| JsonError::new("non-string name")))
            .collect::<Result<_, _>>()?;
        let windows =
            arr("windows")?.iter().map(IncidentWindow::from_json).collect::<Result<_, _>>()?;
        // v1 documents predate stage tracing and carry no traces key.
        let traces = match j.get("traces").and_then(Json::as_arr) {
            Some(ts) => ts.iter().map(WindowTrace::from_json).collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let monitor = IncidentMonitor::from_json(
            j.get("monitor").ok_or_else(|| JsonError::new("missing monitor"))?,
        )?;
        let (config, shards) = config_from_json(
            j.get("config").ok_or_else(|| JsonError::new("missing config"))?,
        )?;
        Ok(Self {
            id: field(j, "id")?,
            shard: field(j, "shard")?,
            seq: field(j, "seq")?,
            t_ns: field(j, "t_ns")?,
            sample_index: field(j, "sample_index")?,
            generation: field(j, "generation")?,
            stream_seed: field(j, "stream_seed")?,
            verdict_digest: field(j, "verdict_digest")?,
            triggers,
            alerts_firing,
            monitor,
            model_names,
            config,
            shards,
            windows,
            traces,
        })
    }

    /// Parses a bundle from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON or a bad schema.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Per-window scalar metadata the serving loop stamps onto a
/// recording; grouped so [`FlightRecorder::record`] stays a
/// (detector, row, verdict, stamp) call.
#[derive(Clone, Copy, Debug)]
pub struct WindowStamp {
    /// Zero-based index of the window in the shard's stream.
    pub sample: u64,
    /// Stream-clock timestamp of the window.
    pub t_ns: u64,
    /// Model generation that served the window.
    pub generation: u64,
    /// Wall-clock model-only classification latency.
    pub model_latency_ns: u64,
}

/// The per-shard flight recorder: a preallocated ring of the last N
/// served windows. [`write`](Self::write) copies one window into the
/// ring without inference and without allocating.
///
/// `head` is the next write slot; the ring holds `len ≤ cap` windows
/// ending at the most recently recorded one.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    width: usize,
    head: usize,
    len: usize,
    /// `cap × width` feature rows.
    rows: Vec<f64>,
    adv_scores: Vec<f64>,
    selected: Vec<usize>,
    verdicts: Vec<Verdict>,
    samples: Vec<u64>,
    t_ns: Vec<u64>,
    generations: Vec<u64>,
    model_latency: Vec<u64>,
    /// One-row critic scratch for [`record`](Self::record). Every model
    /// generation shares the adversarial predictor, so it never needs
    /// re-sizing across hot swaps.
    critic: InferScratch,
}

impl FlightRecorder {
    /// Builds a recorder for `cap` windows of `width` features.
    ///
    /// # Panics
    ///
    /// Panics if `cap` or `width` is zero.
    #[must_use]
    pub fn warmup(detector: &AdaptiveDetector, width: usize, cap: usize) -> Self {
        assert!(cap > 0, "flight recorder capacity must be positive");
        assert!(width > 0, "flight recorder width must be positive");
        Self {
            cap,
            width,
            head: 0,
            len: 0,
            rows: vec![0.0; cap * width],
            adv_scores: vec![0.0; cap],
            selected: vec![0; cap],
            verdicts: vec![Verdict::Benign; cap],
            samples: vec![0; cap],
            t_ns: vec![0; cap],
            generations: vec![0; cap],
            model_latency: vec![0; cap],
            critic: detector.predictor().infer_scratch(1),
        }
    }

    /// Writes one served window into the ring: the row, the critic
    /// value the detector decided on, the routed model index, the
    /// verdict and the stamp. Runs no inference and never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not match the warmup width.
    pub fn write(
        &mut self,
        row: &[f64],
        verdict: Verdict,
        adv_score: f64,
        selected_model: usize,
        stamp: WindowStamp,
    ) {
        assert_eq!(row.len(), self.width, "row width changed under the recorder");
        let slot = self.head;
        self.rows[slot * self.width..(slot + 1) * self.width].copy_from_slice(row);
        self.adv_scores[slot] = adv_score;
        self.selected[slot] = selected_model;
        self.verdicts[slot] = verdict;
        self.samples[slot] = stamp.sample;
        self.t_ns[slot] = stamp.t_ns;
        self.generations[slot] = stamp.generation;
        self.model_latency[slot] = stamp.model_latency_ns;
        self.head = (self.head + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
    }

    /// Scores `row` through the critic and [`write`](Self::write)s it,
    /// returning the critic value. Kept for callers that have no
    /// [`InferArena`](hmd_core::InferArena) holding the value already;
    /// the serving session never calls it. Allocation-free: one critic
    /// forward through the recorder's one-row scratch.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` keeps the signature stable.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not match the warmup width.
    pub fn record(
        &mut self,
        detector: &AdaptiveDetector,
        row: &[f64],
        verdict: Verdict,
        stamp: WindowStamp,
    ) -> Result<f64, CoreError> {
        let adv_score = detector.predictor().feedback_reward_with(row, &mut self.critic);
        self.write(row, verdict, adv_score, detector.controller().selected_model(), stamp);
        Ok(adv_score)
    }

    /// Windows currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring capacity fixed at warmup.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// FNV-1a digest over the held verdicts, oldest first.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = DIGEST_SEED;
        for i in 0..self.len {
            hash = digest_step(hash, self.verdicts[self.slot(i)]);
        }
        hash
    }

    /// The ring slot of logical window `i` (0 = oldest).
    fn slot(&self, i: usize) -> usize {
        (self.head + self.cap - self.len + i) % self.cap
    }

    /// Snapshots the ring into owned windows, oldest first. Allocates —
    /// called only on alert fire edges, never per window.
    #[must_use]
    pub fn snapshot_windows(&self) -> Vec<IncidentWindow> {
        (0..self.len)
            .map(|i| {
                let s = self.slot(i);
                IncidentWindow {
                    sample: self.samples[s],
                    t_ns: self.t_ns[s],
                    verdict: self.verdicts[s],
                    adv_score: self.adv_scores[s],
                    selected_model: self.selected[s],
                    generation: self.generations[s],
                    model_latency_ns: self.model_latency[s],
                    row: self.rows[s * self.width..(s + 1) * self.width].to_vec(),
                }
            })
            .collect()
    }
}

/// Converts the edges of one alert evaluation into bundle triggers,
/// resolving each rule's current threshold from the engine rule set.
#[must_use]
pub fn triggers_from_edges(
    edges: &[AlertTransition],
    rules: &[hmd_obs::SloRule],
) -> Vec<IncidentTrigger> {
    edges
        .iter()
        .map(|e| IncidentTrigger {
            rule: e.rule.to_owned(),
            severity: e.severity.to_string(),
            firing: e.firing,
            observed: e.observed,
            threshold: rules
                .iter()
                .find(|r| r.name == e.rule)
                .map_or(f64::NAN, hmd_obs::SloRule::threshold),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_manual_fold() {
        let vs = [Verdict::Benign, Verdict::MalwareAttack, Verdict::AdversarialAttack];
        let mut h = DIGEST_SEED;
        for v in vs {
            h = (h ^ (verdict_slot(v) + 1)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(verdict_digest(vs), h);
        assert_ne!(verdict_digest(vs), DIGEST_SEED);
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [Verdict::AdversarialAttack, Verdict::MalwareAttack, Verdict::Benign] {
            assert_eq!(parse_verdict(verdict_name(v)).unwrap(), v);
        }
        assert!(parse_verdict("bogus").is_err());
    }

    #[test]
    fn config_json_round_trips_through_quick_base() {
        let mut cfg = ServingConfig::quick(41);
        cfg.samples = 840;
        cfg.batch = 7;
        cfg.retrain_every = 280;
        cfg.burst = Some(Burst { start: 0.25, end: 0.65, adv_fraction: 0.9 });
        cfg.recorder = 16;
        let j = config_to_json(&cfg, 3);
        let (back, shards) = config_from_json(&j).unwrap();
        assert_eq!(shards, 3);
        assert_eq!(back.samples, cfg.samples);
        assert_eq!(back.batch, cfg.batch);
        assert_eq!(back.retrain_every, cfg.retrain_every);
        assert_eq!(back.burst, cfg.burst);
        assert_eq!(back.recorder, cfg.recorder);
        assert_eq!(back.stream_seed, cfg.stream_seed);
        assert_eq!(back.base_seed, cfg.base_seed);
        // the framework config is rebuilt from the base seed
        assert_eq!(back.framework.seed, cfg.framework.seed);
    }

    #[test]
    fn bundle_parse_rejects_wrong_schema() {
        let err = IncidentBundle::parse("{\"schema\":\"hmd-incident-v0\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported bundle schema"));
    }

    fn trace(sample: u64, reason: TraceReason) -> WindowTrace {
        WindowTrace {
            sample,
            t_ns: sample * 10_000_000,
            generation: 1,
            verdict: Verdict::AdversarialAttack,
            reason,
            stage_ns: [10, 25, 60, 80, 85, 95],
            latency_ns: 95,
        }
    }

    #[test]
    fn window_trace_round_trips_through_json() {
        let t = trace(7, TraceReason::LatencyTail);
        let text = t.to_json().to_string();
        let back = WindowTrace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
        // the stage array key opts into the latency-scrub convention
        assert!(text.contains("\"stage_latency_ns\""));
    }

    #[test]
    fn trace_store_keeps_flagged_and_tail_rings_independent() {
        let mut store = TraceStore::with_caps(3, 2);
        for s in 0..5 {
            store.push(trace(s, TraceReason::Flagged));
        }
        // tail promotions can never evict flagged history
        for s in 100..110 {
            store.push(trace(s, TraceReason::LatencyTail));
        }
        let flagged = store.flagged();
        let tail = store.tail();
        assert_eq!(flagged.iter().map(|t| t.sample).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(tail.iter().map(|t| t.sample).collect::<Vec<_>>(), vec![108, 109]);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn traces_json_names_the_stage_order() {
        let snap = TraceSnapshot { flagged: vec![trace(1, TraceReason::Flagged)], tail: vec![] };
        let doc = traces_json(&[snap]);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(TRACES_SCHEMA));
        let stages: Vec<&str> = doc
            .get("stages")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(stages, ["draw", "transform", "critic", "model", "bookkeeping", "record"]);
        let shard0 = doc.get("per_shard").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(shard0.get("flagged").and_then(Json::as_arr).unwrap().len(), 1);
        assert_eq!(shard0.get("latency_tail").and_then(Json::as_arr).unwrap().len(), 0);
    }
}
