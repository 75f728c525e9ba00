//! Allocation-freedom of the serving steady state, proven under a
//! counting global allocator: once a session is warmed up (arena built,
//! windows settled, alert engine past its initial transitions, replay
//! ring standing in for live traffic synthesis), classifying a window —
//! monitoring, alert evaluation, integrity checks, the flight recorder
//! (on at its default 64-window depth, copying every window's row and
//! the detector's critic value into its preallocated ring), the
//! multi-resolution metrics history (flushing a point every
//! `FINE_EVERY` windows) and the tail-sampling trace promoter included
//! — must perform **zero** heap allocations, at batch 1 and batched.
//!
//! The counting allocator is process-global, so this integration test
//! lives in its own binary: no sibling test's allocations can bleed
//! into the measured deltas, and the worker-thread override pins all
//! work to the measuring thread.

use hmd_util::alloc::CountingAllocator;
use hmd_util::par;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A replay-ring configuration over `base`: uniform traffic (no
/// burst), `batch` samples per detector call.
fn replay_config(base: &hmd::ServingConfig, batch: usize) -> hmd::ServingConfig {
    let mut cfg = base.clone();
    cfg.samples = 900;
    cfg.replay = 128;
    cfg.burst = None;
    cfg.batch = batch;
    cfg.calibration_samples = 0; // baseline calibrated by the training session
    cfg
}

#[test]
fn serving_steady_state_allocates_nothing() {
    // single worker: the delta below must attribute every allocation to
    // the serving loop, and quick-config matmuls stay below the
    // parallel substrate's spawn threshold anyway
    par::set_thread_override(Some(1));
    let mut base = hmd::ServingConfig::quick(19);
    let trainer = hmd::ServingSession::start(base.clone()).expect("train");
    let artifacts = trainer.artifacts_handle();
    // reuse the calibration-derived SLO thresholds (as fleet shards
    // do): they sit a margin away from this deployment's live rates,
    // so the alert engine stays edge-free — stock thresholds can
    // chatter against replay traffic, and every edge allocates
    base.rules = trainer.slo_rules().to_vec();
    drop(trainer);

    // batch 1 and batch 8 measured separately
    for batch in [1usize, 8] {
        let mut session =
            hmd::ServingSession::with_artifacts(replay_config(&base, batch), artifacts.clone())
                .expect("assemble session");
        // warm up: fill the sliding windows twice over and let the
        // alert engine cross its initial fire/resolve edges
        while session.outcome().processed < 500 {
            assert!(session.step_batch().expect("warmup step") > 0, "budget spent in warmup");
        }
        let processed_before = session.outcome().processed;
        let allocs_before = ALLOC.allocations();
        let bytes_before = ALLOC.bytes_allocated();
        while session.step_batch().expect("steady-state step") > 0 {}
        let allocs = ALLOC.allocations() - allocs_before;
        let bytes = ALLOC.bytes_allocated() - bytes_before;
        let windows = session.outcome().processed - processed_before;
        assert!(windows >= 300, "measured too few windows: {windows}");
        // the flight recorder was live (and full) for every measured
        // window: recording is part of the zero-allocation contract
        let ring = session.flight_recorder();
        assert_eq!(ring.len(), ring.capacity(), "ring must be full after warmup");
        // the continuous-observability surface was live the whole time:
        // history points flushed every FINE_EVERY windows and the trace
        // sampler promoted flagged windows (the replay traffic carries
        // the background adversarial fraction) — all inside the same
        // zero-allocation budget, proving both rings are preallocated
        let history = session.history_snapshot();
        assert!(!history.fine.is_empty(), "steady state must flush fine history points");
        let traces = session.trace_snapshot();
        assert!(
            !traces.flagged.is_empty(),
            "replay traffic must promote flagged stage traces"
        );
        assert_eq!(
            allocs, 0,
            "batch {batch}: {allocs} allocations ({bytes} bytes) across {windows} \
             steady-state windows — the hot path must not touch the heap"
        );
    }

    // Retraining on: the rounds themselves allocate (drain, refit,
    // re-hash — all while the shard is parked at the boundary), but the
    // steady state *between* rounds must stay at zero allocations per
    // window even though the shard now serves hot-swapped generation-1
    // artifacts through a re-warmed arena. Only a fleet retrains, so
    // this phase steps the shard of a one-shard fleet on this thread.
    // It shares the test fn because the counting allocator is
    // process-global: a sibling test's allocations would bleed into
    // the deltas.
    {
        use hmd::obs::{Severity, SloKind, SloRule};
        let mut cfg = base.clone();
        // thresholds no live rate can cross: post-swap windowed rates
        // shift with the refreshed models, and every alert edge
        // allocates a transition record
        cfg.rules = vec![
            SloRule {
                name: "quiet_latency",
                kind: SloKind::LatencyP95CeilingMs(1e9),
                severity: Severity::Warning,
                min_samples: 1,
            },
            SloRule {
                name: "quiet_detection",
                kind: SloKind::DetectionRateFloor(0.01),
                severity: Severity::Critical,
                min_samples: 1,
            },
            SloRule {
                name: "quiet_flags",
                kind: SloKind::FlagRateCeiling(0.99),
                severity: Severity::Critical,
                min_samples: 1,
            },
            SloRule {
                name: "quiet_drift",
                kind: SloKind::DriftCeiling(u64::MAX),
                severity: Severity::Critical,
                min_samples: 1,
            },
        ];
        cfg.retrain_every = 400; // boundaries at 400 and 800 of 900
        let mut fleet =
            hmd::FleetSession::with_artifacts(&replay_config(&cfg, 8), 1, artifacts.clone())
                .expect("assemble fleet");
        let session = &mut fleet.shards_mut()[0];
        // warm past the first boundary: the round runs (and allocates)
        // while the shard waits, the shard swaps + re-warms its arena,
        // then the windows refill on generation-1 verdicts
        while session.outcome().processed < 520 {
            assert!(session.step_batch().expect("warmup step") > 0, "budget spent in warmup");
        }
        assert!(session.model_generation() >= 1, "first boundary must promote a generation");
        let allocs_before = ALLOC.allocations();
        let bytes_before = ALLOC.bytes_allocated();
        // measure strictly between boundaries: stop short of 800 so the
        // second round's (legitimate) allocations stay out of the delta
        while session.outcome().processed < 760 {
            assert!(session.step_batch().expect("steady-state step") > 0, "budget spent early");
        }
        let allocs = ALLOC.allocations() - allocs_before;
        let bytes = ALLOC.bytes_allocated() - bytes_before;
        let windows = session.outcome().processed - 520;
        assert!(windows >= 200, "measured too few post-swap windows: {windows}");
        assert_eq!(
            allocs, 0,
            "{allocs} allocations ({bytes} bytes) across {windows} post-swap windows — \
             serving a hot-swapped generation must stay allocation-free between rounds"
        );
    }
    par::set_thread_override(None);
}
