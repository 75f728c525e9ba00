//! Online-serving observability for the HMD pipeline.
//!
//! `hmd-telemetry` answers "where did the wall-clock go" for batch
//! runs; this crate answers the *operational* questions a long-running
//! detection service gets asked: what is the detection rate **right
//! now**, is the adversarial predictor flagging a campaign, is inference
//! latency inside its SLO, did the integrity monitor see drift — and it
//! answers them over HTTP so a Prometheus scraper (or `curl`) can watch.
//!
//! Six layers, bottom up:
//!
//! * [`window`] — fixed-slot ring-buffer aggregators ([`WindowedCounter`],
//!   [`WindowedHistogram`]) driven by explicit *stream time*, so window
//!   expiry is deterministic and allocation-free on the record path.
//! * [`monitor`] — [`ServingMonitor`] bundles the windowed confusion
//!   counters, flag/drift counters and the latency histograms, each
//!   bucket remembering its last exemplar ([`ExemplarStore`]);
//!   [`MonitorSnapshot`] is the plain-value view everything reads.
//! * [`history`] — [`MetricsHistory`] keeps the *whole run* queryable:
//!   preallocated multi-resolution rings of periodic snapshot deltas
//!   (fine → mid → coarse, RRD-style exact-counter folds), flushed by
//!   the serving loop and served as `/history.json`.
//! * [`alert`] — [`AlertEngine`] evaluates declarative [`SloRule`]s
//!   against snapshots and tracks firing/resolved edges;
//!   [`default_rules`] encodes the paper-motivated SLOs (fast inference,
//!   detection floor, adversarial-spike ceiling, zero drift).
//! * [`expo`] + [`http`] — Prometheus text exposition (histogram buckets
//!   annotated with OpenMetrics exemplars) composed from the
//!   process-wide telemetry registry plus the windowed series, served by
//!   a zero-dependency blocking [`HttpServer`].
//! * [`dashboard`] — one self-contained HTML page ([`DASHBOARD_HTML`],
//!   inline CSS/JS, no external assets) that polls `/history.json` and
//!   renders SVG sparklines.
//!
//! The same determinism contract as `hmd-telemetry` applies: nothing in
//! this crate feeds back into the computation it observes, so every
//! served verdict is a pure function of its row and model generation
//! (`tests/determinism.rs` in the workspace root checks each one
//! against the detector's reference path).

pub mod alert;
pub mod dashboard;
pub mod expo;
pub mod history;
pub mod http;
pub mod monitor;
pub mod window;

pub use alert::{default_rules, AlertEngine, AlertTransition, Severity, SloKind, SloRule};
pub use dashboard::DASHBOARD_HTML;
pub use expo::{
    append_incident_series, append_promotion_series, render_metrics, render_metrics_fleet,
    validate_exposition,
};
pub use history::{history_json, HistoryAccumulator, HistoryPoint, MetricsHistory, TierSnapshot};
pub use http::{HttpServer, Request, Response};
pub use monitor::{ExemplarStore, MonitorSnapshot, SampleRecord, ServingMonitor};
pub use window::{WindowConfig, WindowedCounter, WindowedHistogram};
