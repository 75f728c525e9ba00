//! Reproducibility: every experiment must regenerate identically from
//! its seed, across the whole stack.

use hmd::adversarial::{Attack, LowProFool};
use hmd::core::{Framework, FrameworkConfig};
use hmd::ml::{Classifier, RandomForest, RandomForestConfig};
use hmd::sim::{build_corpus, CorpusConfig};
use hmd::tabular::Class;
use hmd_util::json::{Json, ToJson};
use hmd_util::par;

#[test]
fn corpus_is_seed_deterministic() {
    let a = build_corpus(&CorpusConfig::quick(77));
    let b = build_corpus(&CorpusConfig::quick(77));
    assert_eq!(a.dataset, b.dataset);
    assert_eq!(a.row_classes, b.row_classes);
    let c = build_corpus(&CorpusConfig::quick(78));
    assert_ne!(a.dataset, c.dataset);
}

#[test]
fn framework_report_is_seed_deterministic() {
    let run = |seed| {
        let mut config = FrameworkConfig::quick(seed);
        config.corpus.benign_apps = 64;
        config.corpus.malware_apps = 64;
        config.predictor.episodes = 1500;
        Framework::new(config).run().expect("run")
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.attacked, b.attacked);
    assert_eq!(a.defended, b.defended);
    assert_eq!(a.predictor, b.predictor);
    assert_eq!(a.attack_success_rate, b.attack_success_rate);

    let c = run(4);
    assert_ne!(a.baseline, c.baseline);

    // Byte-level reproducibility: the serialized reports must be
    // identical, not merely PartialEq-equal — object fields keep
    // insertion order and floats format deterministically, so two
    // same-seed runs emit the same bytes. The single exception is
    // `latency_ms`, which is measured wall-clock time of the deployed
    // models (real profiling, not simulation), so it is zeroed before
    // comparing.
    let a_bytes = scrub_measured_latency(&a.to_json().to_string());
    let b_bytes = scrub_measured_latency(&b.to_json().to_string());
    assert_eq!(a_bytes, b_bytes, "same-seed reports serialized differently");
    assert!(!a_bytes.is_empty());
    // And the bytes are well-formed JSON that survives a parse.
    let reparsed = Json::parse(&a_bytes).expect("report serializes to valid JSON");
    assert_eq!(reparsed.to_string(), a_bytes, "serialize → parse → serialize is not a fixpoint");
}

/// Replaces every measured `latency_ms` value with zero, leaving all
/// seed-derived content intact.
fn scrub_measured_latency(text: &str) -> String {
    fn scrub(value: &mut Json) {
        match value {
            Json::Obj(fields) => {
                for (key, v) in fields {
                    if key == "latency_ms" {
                        *v = Json::Float(0.0);
                    } else {
                        scrub(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut doc = Json::parse(text).expect("report is valid JSON");
    scrub(&mut doc);
    doc.to_string()
}

/// Same-seed outputs must be byte-identical regardless of worker-thread
/// count: the parallel substrate (`hmd_util::par`) only changes *where*
/// each independent item is computed, never *what* is computed or in
/// which order results concatenate and reduce.
///
/// The thread override is process-global, but that is harmless here:
/// every sibling test's output is thread-count-invariant by the very
/// contract this test enforces.
#[test]
fn pipeline_is_thread_count_invariant() {
    let run_all = || {
        // corpus generation (threads = 0 defers to the override)
        let corpus = build_corpus(&CorpusConfig::quick(55));
        // forest fit + batch predict
        let targets = corpus.dataset.binary_targets(Class::is_attack);
        let mut forest = RandomForest::with_config(RandomForestConfig {
            n_trees: 8,
            ..RandomForestConfig::default()
        });
        forest.fit(&corpus.dataset, &targets).expect("fit");
        let probs = forest.predict_proba(&corpus.dataset).expect("predict");
        // LowProFool attack generation, serialized to bytes
        let attack = LowProFool::fit(&corpus.dataset).expect("fit attack");
        let malware = corpus.dataset.filter(Class::is_attack);
        let report = attack.generate(&malware, 99).expect("generate").to_json().to_string();
        (corpus.dataset, probs, report)
    };

    par::set_thread_override(Some(1));
    let (data_1, probs_1, report_1) = run_all();
    par::set_thread_override(Some(4));
    let (data_4, probs_4, report_4) = run_all();
    par::set_thread_override(None);

    assert_eq!(data_1, data_4, "corpus differs across thread counts");
    // bitwise, not approximate: accumulation order is part of the contract
    assert_eq!(probs_1, probs_4, "forest probabilities differ across thread counts");
    assert_eq!(report_1, report_4, "attack report bytes differ across thread counts");
}

/// Telemetry's determinism contract: it observes, it never perturbs.
/// The same-seed report must serialize to identical bytes (measured
/// latencies scrubbed, as above) with tracing forced off and forced on.
#[test]
fn tracing_does_not_perturb_the_report() {
    let run = || {
        let config = FrameworkConfig::quick(21);
        Framework::new(config).run().expect("run").to_json().to_string()
    };
    hmd::telemetry::set_enabled_override(Some(false));
    let untraced = scrub_measured_latency(&run());
    hmd::telemetry::set_enabled_override(Some(true));
    let traced = scrub_measured_latency(&run());
    // tracing actually happened in the second run
    let recorded = hmd::telemetry::span::snapshot();
    hmd::telemetry::set_enabled_override(None);
    hmd::telemetry::reset();
    assert!(recorded.iter().any(|s| s.name == "framework.run"), "no spans recorded");
    assert_eq!(untraced, traced, "tracing changed the pipeline's output");
}

#[test]
fn attack_generation_is_deterministic() {
    let fw = Framework::new(FrameworkConfig::quick(9));
    let bundle = fw.prepare_data().expect("prepare");
    let attack = LowProFool::fit(&bundle.train).expect("fit");
    let malware = bundle.test.filter(Class::is_attack);
    let a = attack.generate(&malware, 42).expect("generate");
    let b = attack.generate(&malware, 42).expect("generate");
    assert_eq!(a.adversarial, b.adversarial);
    assert_eq!(a.outcomes, b.outcomes);
}

/// Asserts every window a session's flight recorder holds matches the
/// detector's reference path on its row: the served verdict, and the
/// critic value the serving path decided on, bit for bit. `detector_at`
/// maps a window's generation to the detector that served it.
fn assert_served_windows_match_reference<'a>(
    windows: &[hmd::recorder::IncidentWindow],
    detector_at: impl Fn(u64) -> &'a hmd::core::AdaptiveDetector,
    what: &str,
) {
    for w in windows {
        let trace = detector_at(w.generation).classify_explain(&w.row).expect("explain");
        assert_eq!(w.verdict, trace.verdict, "{what}: verdict of sample {}", w.sample);
        assert_eq!(
            w.adv_score.to_bits(),
            trace.adv_score.to_bits(),
            "{what}: critic value of sample {}",
            w.sample
        );
    }
}

/// The batched serving path is verdict-invariant and agrees with the
/// reference path: the blocked matmul's per-output-element accumulation
/// order is row-count-invariant, so neither grouping samples into
/// batches nor the worker thread count may move a single verdict. The
/// FNV digest over the verdict stream pins the whole sequence, not just
/// the counts; the flight recorder, sized to hold every window, shows
/// each served verdict and critic value equals what the row-at-a-time
/// reference path (`classify_explain`, sharing only the matmul kernel)
/// computes. That check also pins that monitoring never feeds back:
/// every verdict is a pure function of its row and model generation.
#[test]
fn serving_batch_size_and_thread_count_are_verdict_invariant_and_match_the_reference() {
    // train once, share the artifacts across every configuration
    let base = {
        let mut cfg = hmd::ServingConfig::quick(13);
        cfg.samples = 250;
        cfg.recorder = cfg.samples;
        cfg
    };
    let artifacts = hmd::ServingSession::start(base.clone()).expect("train").artifacts_handle();

    let run = |batch: usize| {
        let mut cfg = base.clone();
        cfg.batch = batch;
        // the baseline was calibrated by the training session above;
        // recalibrating per run would only repeat the same work
        cfg.calibration_samples = 0;
        let mut session =
            hmd::ServingSession::with_artifacts(cfg, artifacts.clone()).expect("assemble");
        let outcome = session.run_to_completion().expect("run");
        let windows = session.flight_recorder().snapshot_windows();
        (outcome, windows)
    };

    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        par::set_thread_override(Some(threads));
        for batch in [1usize, 7, 64] {
            outcomes.push((threads, batch, run(batch)));
        }
    }
    par::set_thread_override(None);

    let (_, _, (reference, _)) = &outcomes[0];
    assert_eq!(reference.processed, 250);
    for (threads, batch, (outcome, windows)) in &outcomes {
        assert_eq!(
            outcome.digest, reference.digest,
            "digest moved at batch {batch}, {threads} thread(s)"
        );
        assert_eq!(outcome.verdicts, reference.verdicts);
        assert_eq!(outcome.drift_events, reference.drift_events);
        assert_eq!(outcome.alert_transitions, reference.alert_transitions);
        assert_eq!(windows.len(), 250, "the recorder holds every window");
        assert_served_windows_match_reference(
            windows,
            |_| &artifacts.detector,
            &format!("batch {batch}, {threads} thread(s)"),
        );
    }
}

/// The arms-race loop is a pure function of the seed: with
/// `retrain_every` on, the swap schedule, the post-swap verdict stream
/// and the hub's promotion statistics are byte-identical across reruns,
/// at any batch size and thread count. Batches never straddle a
/// retraining boundary, every round drains the quarantine in a
/// canonical order, and the controller is cloned (never re-profiled),
/// so nothing wall-clock leaks into the digest. Every served window
/// also matches the reference path of the generation that served it.
/// Retraining runs on a one-shard fleet, the only serving owner that
/// retrains.
#[test]
fn serving_retraining_schedule_and_digests_are_seed_deterministic() {
    let base = {
        let mut cfg = hmd::ServingConfig::quick(23);
        cfg.samples = 240;
        cfg
    };
    let artifacts = hmd::ServingSession::start(base.clone()).expect("train").artifacts_handle();

    // boundaries at 80 (mid-burst: quarantine is non-empty, so the
    // round swaps models) and 160 → the run must finish on generation 2
    let run = |batch: usize| {
        let mut cfg = base.clone();
        cfg.retrain_every = 80;
        cfg.batch = batch;
        cfg.calibration_samples = 0;
        cfg.recorder = cfg.samples;
        cfg.retain_generations = true;
        let mut fleet =
            hmd::FleetSession::with_artifacts(&cfg, 1, artifacts.clone()).expect("assemble");
        let outcome = fleet.run().expect("run").remove(0);
        let hub = fleet.hub().expect("retraining fleet has a hub");
        let served: Vec<_> = (0..=hub.generation())
            .map(|g| hub.artifacts_at(g).expect("retained generation"))
            .collect();
        let windows = fleet.shards()[0].flight_recorder().snapshot_windows();
        assert_eq!(windows.len(), 240, "the recorder holds every window");
        assert_served_windows_match_reference(
            &windows,
            |g| &served[usize::try_from(g).expect("small generation")].detector,
            &format!("retraining at batch {batch}"),
        );
        (outcome, hub.generation(), hub.swaps(), hub.absorbed())
    };

    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        par::set_thread_override(Some(threads));
        for batch in [1usize, 7, 64] {
            outcomes.push((threads, batch, run(batch)));
        }
    }
    // exact rerun of the first configuration: same bytes again
    par::set_thread_override(Some(1));
    outcomes.push((1, 1, run(1)));
    par::set_thread_override(None);

    let (_, _, reference) = &outcomes[0];
    let (outcome, generation, swaps, absorbed) = reference;
    assert_eq!(outcome.processed, 240);
    assert_eq!(*generation, 2, "240 samples at retrain_every 80 schedule two rounds");
    assert_eq!(outcome.generation, 2);
    assert!(*swaps >= 1, "the mid-burst boundary must swap models");
    assert!(*absorbed >= 1, "a swap absorbs at least one quarantined row");
    for (threads, batch, got) in &outcomes {
        let (o, g, s, a) = got;
        assert_eq!(
            o.digest, outcome.digest,
            "retraining digest moved at batch {batch}, {threads} thread(s)"
        );
        assert_eq!(o.verdicts, outcome.verdicts);
        assert_eq!(o.drift_events, outcome.drift_events);
        assert_eq!(o.alert_transitions, outcome.alert_transitions);
        assert_eq!((g, s, a), (generation, swaps, absorbed), "promotion stats moved");
    }
}

/// A retraining fleet reruns byte-identically: shards race pushing into
/// the shared quarantine ring, but each round sorts the drained rows
/// into a canonical order before absorbing them, so per-shard digests
/// and the hub's promotion statistics survive any scheduler interleave.
/// Per-generation SLO recalibration is part of the pinned surface.
#[test]
fn fleet_retraining_rerun_is_byte_identical() {
    let mut cfg = hmd::ServingConfig::quick(29);
    cfg.samples = 160;
    // train (and calibrate) through a standalone session, which never
    // retrains; the fleets below carry the retraining schedule
    let trainer = hmd::ServingSession::start(cfg.clone()).expect("train");
    let artifacts = trainer.artifacts_handle();
    drop(trainer);
    cfg.retrain_every = 60; // boundaries at 60 (mid-burst) and 120

    let run = || {
        let mut fleet = hmd::FleetSession::with_artifacts(&cfg, 3, artifacts.clone()).expect("fleet");
        let outcomes = fleet.run().expect("fleet run");
        let hub = fleet.hub().expect("retraining fleet has a hub");
        let stats = (hub.generation(), hub.swaps(), hub.absorbed());
        (outcomes, stats)
    };
    let (a, a_stats) = run();
    let (b, b_stats) = run();
    assert_eq!(a.len(), 3);
    assert_eq!(a_stats.0, 2, "160 samples at retrain_every 60 schedule two rounds");
    assert!(a_stats.1 >= 1, "the mid-burst boundary must swap models");
    assert_eq!(a_stats, b_stats, "fleet promotion stats diverged across reruns");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.processed, 160, "shard {i} dropped windows");
        assert_eq!(x.generation, 2, "shard {i} finished on the wrong generation");
        assert_eq!(x.digest, y.digest, "shard {i} digest diverged across reruns");
        assert_eq!(x.verdicts, y.verdicts, "shard {i} verdicts diverged across reruns");
        assert_eq!(x.drift_events, y.drift_events);
        assert_eq!(x.alert_transitions, y.alert_transitions);
    }
}

/// Forensic replay re-runs a recorded fleet only until the newest
/// generation a bundle pins has served a window
/// (`ServingConfig::samples_to_serve_generation`). Stopped there, the
/// hub must retain the very generations a full run publishes: the same
/// training database, and the same explanation of every test row.
#[test]
fn fleet_stopped_at_a_generation_retains_the_full_run_models() {
    let mut cfg = hmd::ServingConfig::quick(29);
    cfg.samples = 160;
    let trainer = hmd::ServingSession::start(cfg.clone()).expect("train");
    let artifacts = trainer.artifacts_handle();
    drop(trainer);
    cfg.retrain_every = 60; // boundaries at 60 (mid-burst) and 120
    cfg.retain_generations = true;
    let stop = cfg.samples_to_serve_generation(2).expect("160 samples publish generation 2");
    assert_eq!(stop, 121);

    let mut full = hmd::FleetSession::with_artifacts(&cfg, 2, artifacts.clone()).expect("fleet");
    full.run().expect("full run");
    let mut stopped = hmd::FleetSession::with_artifacts(&cfg, 2, artifacts).expect("fleet");
    let outcomes = stopped.run_for(stop).expect("stopped run");
    assert!(outcomes.iter().all(|o| o.processed == stop && o.generation == 2));
    let (full, stopped) = (full.hub().expect("hub"), stopped.hub().expect("hub"));
    for g in 0..=2 {
        let a = full.artifacts_at(g).expect("the full run retains every generation");
        let b = stopped.artifacts_at(g).expect("the stopped run retains every generation");
        assert_eq!(a.training, b.training, "generation {g} trained on different rows");
        for row in a.bundle.test.iter().map(|(row, _)| row) {
            assert_eq!(
                a.detector.classify_explain(row).expect("explain"),
                b.detector.classify_explain(row).expect("explain"),
                "generation {g}"
            );
        }
    }
}

/// Incident bundles are part of the determinism contract: on the same
/// seed, each captured bundle serializes to identical bytes at any
/// batch size, worker-thread count, and fleet width — the flight
/// recorder ring sees the same verdict stream regardless of how the
/// windows were grouped or scheduled, and shard 0 of a fleet replays
/// the single-session stream exactly. Wall-clock latency fields and the
/// grouping knobs themselves (batch, fleet width — recorded so replay
/// can rebuild the run, legitimately different across configurations)
/// are scrubbed; every seed-derived byte is pinned.
#[test]
fn incident_bundles_are_byte_identical_across_batch_threads_and_shards() {
    let base = {
        let mut cfg = hmd::ServingConfig::quick(19);
        cfg.samples = 250; // lull + burst: the burst trips the SLO alerts
        cfg
    };
    let artifacts = hmd::ServingSession::start(base.clone()).expect("train").artifacts_handle();

    // shard 0's bundles of an n-shard fleet, serialized and scrubbed
    let run = |batch: usize, shards: usize| -> Vec<String> {
        let mut cfg = base.clone();
        cfg.batch = batch;
        cfg.calibration_samples = 0;
        let mut fleet =
            hmd::FleetSession::with_artifacts(&cfg, shards, artifacts.clone()).expect("fleet");
        fleet.run().expect("fleet run");
        fleet.shards()[0]
            .incidents()
            .iter()
            .map(|b| {
                // digest purity: the recorded digest is exactly the
                // FNV fold of the recorded window verdicts
                assert_eq!(
                    b.verdict_digest,
                    hmd::recorder::verdict_digest(b.windows.iter().map(|w| w.verdict)),
                    "bundle {} digest does not match its own windows",
                    b.id
                );
                scrub_incident(&b.to_json().to_string())
            })
            .collect()
    };

    let mut variants = Vec::new();
    for threads in [1usize, 4] {
        par::set_thread_override(Some(threads));
        for batch in [1usize, 7] {
            for shards in [1usize, 3] {
                variants.push((threads, batch, shards, run(batch, shards)));
            }
        }
    }
    par::set_thread_override(None);

    let (_, _, _, reference) = &variants[0];
    assert!(!reference.is_empty(), "the seeded burst must capture at least one incident");
    for (threads, batch, shards, got) in &variants {
        assert_eq!(
            got, reference,
            "bundle bytes moved at batch {batch}, {threads} thread(s), {shards} shard(s)"
        );
    }
}

/// Replaces everything interleave- or wall-clock-dependent in a
/// serialized observability document with zeros, leaving all
/// seed-derived content intact: latency fields (wall-clock — this also
/// flattens the `latency_tail` trace ring, whose promotions depend on
/// machine timing), quarantine depths (the quarantine ring is
/// fleet-shared, so its fill level depends on shard interleaving) and
/// the stream-grouping knobs themselves (batch size, fleet width —
/// recorded so replay can rebuild the run, legitimately different
/// across configurations).
fn scrub_incident(text: &str) -> String {
    fn scrub(value: &mut Json) {
        match value {
            Json::Obj(fields) => {
                for (key, v) in fields {
                    if key.contains("latency")
                        || key.contains("quarantine")
                        || key == "batch"
                        || key == "shards"
                    {
                        *v = Json::UInt(0);
                    } else {
                        scrub(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut doc = Json::parse(text).expect("bundle is valid JSON");
    scrub(&mut doc);
    doc.to_string()
}

/// The continuous-observability surface is part of the determinism
/// contract: shard 0's multi-resolution history and its promoted
/// flagged stage traces serialize to identical bytes at any batch
/// size, worker-thread count, and fleet width. History points flush on
/// stream-time sample boundaries and fold counters exactly, flagged
/// trace promotion is verdict-driven — both are pure functions of the
/// seed once the wall-clock fields (scrubbed, including the
/// wall-clock-promoted `latency_tail` ring) are zeroed.
#[test]
fn shard_history_and_traces_are_byte_identical_across_batch_threads_and_shards() {
    let base = {
        let mut cfg = hmd::ServingConfig::quick(37);
        cfg.samples = 250; // lull + burst: the burst flags adversarial windows
        cfg
    };
    let artifacts = hmd::ServingSession::start(base.clone()).expect("train").artifacts_handle();

    // shard 0's history + trace documents of an n-shard fleet, scrubbed
    let run = |batch: usize, shards: usize| -> (String, String) {
        let mut cfg = base.clone();
        cfg.batch = batch;
        cfg.calibration_samples = 0;
        let mut fleet =
            hmd::FleetSession::with_artifacts(&cfg, shards, artifacts.clone()).expect("fleet");
        fleet.run().expect("fleet run");
        let shard0 = &fleet.shards()[0];
        let history = hmd::obs::history_json(&[shard0.history_snapshot()]).to_string();
        let traces = hmd::recorder::traces_json(&[shard0.trace_snapshot()]).to_string();
        (scrub_incident(&history), scrub_incident(&traces))
    };

    let mut variants = Vec::new();
    for threads in [1usize, 4] {
        par::set_thread_override(Some(threads));
        for batch in [1usize, 7] {
            for shards in [1usize, 3] {
                variants.push((threads, batch, shards, run(batch, shards)));
            }
        }
    }
    par::set_thread_override(None);

    let (_, _, _, reference) = &variants[0];
    let (history, traces) = reference;

    // the reference is non-trivial: 250 samples flush fine points at
    // 64/128/192, each covering exactly FINE_EVERY windows
    let doc = Json::parse(history).expect("history is valid JSON");
    let fine = doc
        .get("per_shard")
        .and_then(|s| s.at(0))
        .and_then(|s| s.get("fine"))
        .and_then(Json::as_arr)
        .expect("shard 0 fine tier");
    assert_eq!(fine.len(), 3, "250 samples must flush exactly three fine points");
    let covered: f64 =
        fine.iter().filter_map(|p| p.get("samples").and_then(Json::as_f64)).sum();
    assert_eq!(covered, 192.0, "fine points must each cover one flush interval");
    let doc = Json::parse(traces).expect("traces are valid JSON");
    let flagged = doc
        .get("per_shard")
        .and_then(|s| s.at(0))
        .and_then(|s| s.get("flagged"))
        .and_then(Json::as_arr)
        .expect("shard 0 flagged ring");
    assert!(!flagged.is_empty(), "the seeded burst must promote flagged traces");

    for (threads, batch, shards, got) in &variants {
        let (h, t) = got;
        assert_eq!(
            h, history,
            "history bytes moved at batch {batch}, {threads} thread(s), {shards} shard(s)"
        );
        assert_eq!(
            t, traces,
            "trace bytes moved at batch {batch}, {threads} thread(s), {shards} shard(s)"
        );
    }
}

/// The history's critic margin is the detector's own critic value, not
/// a by-product of the flight recorder: with a one-window ring the
/// history serializes to the same bytes as with the default 64-deep
/// ring, at batch 1 and 7, and `critic_sum` is non-zero in every point.
#[test]
fn history_critic_sum_does_not_depend_on_the_recorder() {
    let base = {
        let mut cfg = hmd::ServingConfig::quick(43);
        cfg.samples = 200;
        cfg
    };
    let artifacts = hmd::ServingSession::start(base.clone()).expect("train").artifacts_handle();
    let run = |recorder: usize, batch: usize| -> String {
        let mut cfg = base.clone();
        cfg.recorder = recorder;
        cfg.batch = batch;
        cfg.calibration_samples = 0;
        let mut session =
            hmd::ServingSession::with_artifacts(cfg, artifacts.clone()).expect("assemble");
        session.run_to_completion().expect("run");
        assert_eq!(session.flight_recorder().capacity(), recorder);
        scrub_incident(&hmd::obs::history_json(&[session.history_snapshot()]).to_string())
    };

    let reference = run(64, 1);
    let doc = Json::parse(&reference).expect("history is valid JSON");
    let fine = doc
        .get("per_shard")
        .and_then(|s| s.at(0))
        .and_then(|s| s.get("fine"))
        .and_then(Json::as_arr)
        .expect("shard 0 fine tier");
    assert!(!fine.is_empty(), "200 samples must flush fine points");
    for point in fine {
        let critic_sum = point.get("critic_sum").and_then(Json::as_f64).expect("critic_sum");
        assert!(critic_sum != 0.0, "critic_sum is zero in {point:?}");
    }
    for (recorder, batch) in [(1, 1), (64, 7), (1, 7)] {
        assert_eq!(
            run(recorder, batch),
            reference,
            "history bytes moved with recorder {recorder}, batch {batch}"
        );
    }
}

/// Shard 0 of a fleet replays the exact single-session stream: same
/// base seed, same digest. Other shards decorrelate.
#[test]
fn fleet_shard_zero_matches_single_session() {
    let mut cfg = hmd::ServingConfig::quick(17);
    cfg.samples = 150;
    let mut single = hmd::ServingSession::start(cfg.clone()).expect("train");
    let single_outcome = single.run_to_completion().expect("run");

    let mut fleet =
        hmd::FleetSession::with_artifacts(&cfg, 2, single.artifacts_handle()).expect("fleet");
    let outcomes = fleet.run().expect("fleet run");
    assert_eq!(outcomes.len(), 2);
    assert_eq!(
        outcomes[0].digest, single_outcome.digest,
        "fleet shard 0 diverged from the single session"
    );
    assert_eq!(outcomes[0].verdicts, single_outcome.verdicts);
    assert_ne!(
        outcomes[1].digest, outcomes[0].digest,
        "shard seeds failed to decorrelate"
    );
}
