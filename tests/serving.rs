//! End-to-end serving mode: stream seeded traffic through the trained
//! detector while scraping the live HTTP endpoints, and assert the SLO
//! choreography — healthy lull, alert-firing adversarial burst, healthy
//! recovery once the windows slide clean.
//!
//! Everything runs on stream time (10 ms per sample), so the breach and
//! the recovery are a pure function of the seed: no sleeps, no flakes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmd::core::{CoreError, Framework};
use hmd::obs::validate_exposition;
use hmd::{FleetSession, ServingConfig, ServingSession};
use hmd_util::json::Json;

/// Minimal scrape client: one GET, returns (status, body).
fn get(addr: &SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// The SLO choreography on a one-shard fleet's endpoint, its shard
/// stepped window by window on this thread.
#[test]
fn serving_breach_and_recovery_end_to_end() {
    let cfg = ServingConfig::quick(7);
    let budget = cfg.samples;
    let burst = cfg.burst.expect("quick config bursts");
    let mut fleet = FleetSession::start(&cfg, 1).expect("training succeeds");
    let addr = fleet.serve_http("127.0.0.1:0", 4).expect("bind ephemeral port");
    let session = &mut fleet.shards_mut()[0];

    // Deep into the burst the flag-rate window is saturated with
    // injected adversarial rows.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mid_burst = ((burst.start + burst.end) / 2.0 * budget as f64) as usize + 40;
    while session.outcome().processed < mid_burst {
        assert!(session.step().expect("step"), "budget exhausted early");
    }
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 503, "mid-burst healthz must fail: {body}");
    let (status, page) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    validate_exposition(&page).expect("well-formed exposition");
    for series in [
        "hmd_serving_detection_rate",
        "hmd_serving_adversarial_flag_rate",
        "hmd_serving_latency_ns_p50",
        "hmd_serving_latency_ns_p95",
        "hmd_serving_latency_ns_p99",
        "hmd_serving_samples_total",
        "hmd_serving_healthy 0",
        "hmd_serving_alert_firing",
        "hmd_serving_latency_ns_bucket{le=",
        "hmd_serving_latency_ns_bucket{le=\"+Inf\"}",
    ] {
        assert!(page.contains(series), "missing {series} in:\n{page}");
    }
    // every observed window stamps its bucket's exemplar, so mid-burst
    // at least one bucket line carries an OpenMetrics annotation
    assert!(
        page.contains(" # {sample=\""),
        "latency buckets must carry exemplar annotations in:\n{page}"
    );

    // Run out the budget: the burst windows slide clean and every
    // critical alert resolves.
    while session.step().expect("step") {}
    let outcome = session.outcome();
    assert_eq!(outcome.processed, budget);
    assert_eq!(outcome.verdicts.iter().sum::<u64>(), budget as u64);
    assert!(outcome.healthy, "session must recover after the burst");
    assert!(
        outcome.alert_transitions >= 4,
        "expected fire+resolve edges, got {}",
        outcome.alert_transitions
    );
    assert!(outcome.drift_events >= 1, "burst must register integrity drift");

    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "post-recovery healthz: {body}");
    let (status, page) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(page.contains("hmd_serving_healthy 1"), "healthy gauge must recover");

    let (status, body) = get(&addr, "/snapshot.json");
    assert_eq!(status, 200);
    let snap = Json::parse(&body).expect("snapshot must be valid JSON");
    let slo = snap.get("slo").and_then(Json::as_arr).expect("snapshot carries the slo array");
    assert!(!slo.is_empty(), "per-rule SLO state must be populated");
    for rule in slo {
        for key in ["rule", "severity", "threshold", "firing", "transitions"] {
            assert!(rule.get(key).is_some(), "slo entry missing {key:?} in:\n{body}");
        }
    }
    assert!(
        snap.get("incidents_total").and_then(Json::as_f64).expect("incidents_total") >= 1.0,
        "the burst must have captured incidents"
    );

    // the burst tripped alerts, so the flight recorder captured
    // incident bundles: counter on /metrics, browsable index, and each
    // bundle round-trips through the typed parser
    for series in [
        "hmd_serving_incidents_total",
        "hmd_serving_calibration_quarantined_total",
        "hmd_serving_slo_firing{rule=",
        "hmd_serving_alert_transitions_total{rule=",
    ] {
        assert!(page.contains(series), "missing {series} in:\n{page}");
    }
    let (status, body) = get(&addr, "/incidents");
    assert_eq!(status, 200);
    let index = Json::parse(&body).expect("incident index must be valid JSON");
    let rows = index.get("incidents").and_then(Json::as_arr).expect("incidents array");
    assert!(!rows.is_empty(), "incident index must list the captured bundles");
    let id = rows[0].get("id").and_then(Json::as_str).expect("bundle id").to_owned();
    let (status, body) = get(&addr, &format!("/incidents/{id}.json"));
    assert_eq!(status, 200, "bundle {id} must be fetchable");
    let bundle = hmd::IncidentBundle::parse(&body).expect("bundle round-trips through the parser");
    assert_eq!(bundle.id, id);
    assert!(!bundle.windows.is_empty(), "bundle must carry the recorded windows");
    assert_eq!(
        bundle.verdict_digest,
        hmd::recorder::verdict_digest(bundle.windows.iter().map(|w| w.verdict)),
        "bundle digest must fold from its own windows"
    );
    let (status, _) = get(&addr, "/incidents/s9-i999.json");
    assert_eq!(status, 404, "unknown incident ids must 404");

    let (status, _) = get(&addr, "/definitely-not-a-route");
    assert_eq!(status, 404);

    assert!(!session.quit_requested());
    let (status, _) = get(&addr, "/quit");
    assert_eq!(status, 200);
    assert!(session.quit_requested(), "/quit must reach the session");
    fleet.finish();
}

/// Sends one GET on an already-open keep-alive connection and reads
/// exactly one response: parses `Content-Length` instead of reading to
/// EOF, so the connection stays usable for the next request.
fn get_on(reader: &mut BufReader<TcpStream>, path: &str) -> (u16, String) {
    write!(reader.get_mut(), "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 =
        line.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("status code");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// A two-shard fleet with batched classification behind one endpoint:
/// the merged `/metrics` page carries label-separated per-shard series
/// whose totals sum to the aggregate, `/snapshot.json` serves the live
/// monitor (with tracing off — the old bug returned only the telemetry
/// snapshot, i.e. nothing), and the worker pool answers two concurrent
/// keep-alive scrapers while a third client stalls mid-request.
#[test]
fn fleet_merged_endpoint_with_concurrent_keepalive_scrapers() {
    let mut cfg = ServingConfig::quick(23);
    cfg.samples = 300;
    cfg.batch = 8;
    let mut fleet = FleetSession::start(&cfg, 2).expect("training succeeds");
    let addr = fleet.serve_http("127.0.0.1:0", 4).expect("bind ephemeral port");
    let outcomes = fleet.run().expect("fleet run");
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].processed + outcomes[1].processed, 600);
    assert_ne!(outcomes[0].digest, outcomes[1].digest, "shards must decorrelate");

    // a client that stalls mid-request-line pins one worker on its I/O
    // timeout; the rest of the pool must keep answering
    let mut staller = TcpStream::connect(addr).expect("staller connects");
    staller.write_all(b"GET /met").expect("partial request");

    // two concurrent scrapers, three requests over one connection each
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let stream = TcpStream::connect(addr).expect("scraper connects");
                stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
                let mut reader = BufReader::new(stream);
                for _ in 0..3 {
                    let (status, page) = get_on(&mut reader, "/metrics");
                    assert_eq!(status, 200);
                    validate_exposition(&page).expect("well-formed exposition");
                    for series in [
                        "hmd_serving_shard_samples_total{shard=\"0\"} 300",
                        "hmd_serving_shard_samples_total{shard=\"1\"} 300",
                        "hmd_serving_samples_total 600",
                        "hmd_serving_quarantine_evicted_total",
                        "hmd_serving_quarantined",
                    ] {
                        assert!(page.contains(series), "missing {series} in:\n{page}");
                    }
                }
            });
        }
    });
    // well inside the 2 s per-read I/O timeout: the staller never
    // head-of-line blocked the scrapers
    assert!(
        t0.elapsed() < Duration::from_millis(1500),
        "scrapers stalled behind a slow client: {:?}",
        t0.elapsed()
    );
    drop(staller);

    // live snapshot without HMD_TRACE: the monitor view, not telemetry
    let (status, body) = get(&addr, "/snapshot.json");
    assert_eq!(status, 200);
    let snap = Json::parse(&body).expect("snapshot must be valid JSON");
    let Json::Obj(fields) = &snap else { panic!("snapshot must be an object: {body}") };
    for key in
        ["t_ns", "shards", "samples_total", "detection_rate", "healthy", "quarantined"]
    {
        assert!(fields.iter().any(|(k, _)| k == key), "missing {key:?} in:\n{body}");
    }
    let num = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("non-numeric {key:?} in:\n{body}"))
    };
    assert_eq!(num("samples_total"), 600.0, "merged sample total");
    assert_eq!(num("shards"), 2.0);

    // continuous-observability surface: the multi-resolution history
    // document, merged across both shards with per-shard tiers attached
    let (status, body) = get(&addr, "/history.json");
    assert_eq!(status, 200);
    let hist = Json::parse(&body).expect("history must be valid JSON");
    assert_eq!(hist.get("schema").and_then(Json::as_str), Some("hmd-history-v1"));
    let merged_fine = hist
        .get("merged")
        .and_then(|m| m.get("fine"))
        .and_then(Json::as_arr)
        .expect("merged fine tier");
    assert!(!merged_fine.is_empty(), "300 samples per shard must flush fine points");
    let per_shard = hist.get("per_shard").and_then(Json::as_arr).expect("per-shard tiers");
    assert_eq!(per_shard.len(), 2, "one history tier set per shard");

    // promoted stage traces: every cumulative stage array spans the
    // pinned stage order and is monotone non-decreasing
    let (status, body) = get(&addr, "/traces.json");
    assert_eq!(status, 200);
    let traces = Json::parse(&body).expect("traces must be valid JSON");
    assert_eq!(traces.get("schema").and_then(Json::as_str), Some("hmd-traces-v2"));
    let stages = traces.get("stages").and_then(Json::as_arr).expect("stage names");
    let names: Vec<&str> = stages.iter().filter_map(Json::as_str).collect();
    assert_eq!(names, ["draw", "transform", "critic", "model", "bookkeeping", "record"]);
    let mut promoted = 0usize;
    for shard in traces.get("per_shard").and_then(Json::as_arr).expect("per-shard traces") {
        for ring in ["flagged", "latency_tail"] {
            for t in shard.get(ring).and_then(Json::as_arr).expect(ring) {
                promoted += 1;
                let ends: Vec<f64> = t
                    .get("stage_latency_ns")
                    .and_then(Json::as_arr)
                    .expect("stage array")
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                assert_eq!(ends.len(), stages.len(), "one stage end per pinned stage");
                assert!(
                    ends.windows(2).all(|w| w[0] <= w[1]),
                    "cumulative stage ends must be monotone: {ends:?}"
                );
            }
        }
    }
    assert!(promoted >= 1, "the burst must promote at least one trace");

    // the dashboard is one self-contained page that polls the history
    let (status, page) = get(&addr, "/dashboard");
    assert_eq!(status, 200);
    assert!(page.starts_with("<!doctype html>"), "dashboard must be a full document");
    assert!(page.contains("/history.json"), "dashboard must poll the history endpoint");

    let (status, _) = get(&addr, "/quit");
    assert_eq!(status, 200);
    assert!(fleet.quit_requested(), "/quit must reach every shard");
    fleet.finish();
}

/// The arms-race loop under live scrape load: a two-shard fleet crosses
/// two retraining boundaries (the first mid-burst, so the round drains
/// a non-empty quarantine and hot-swaps the zoo) while a scraper
/// hammers `/metrics` and `/snapshot.json` across the promotions. No
/// scrape may error, the generation series must climb monotonically to
/// the scheduled final generation, no shard may drop a window, and the
/// integrity registry must have re-hashed the promoted models under
/// their generation tag.
#[test]
fn model_hot_swap_under_scrape_load() {
    let mut cfg = ServingConfig::quick(31);
    cfg.samples = 400;
    cfg.batch = 8;
    cfg.retrain_every = 150; // boundaries at 150 (mid-burst) and 300
    let mut fleet = FleetSession::start(&cfg, 2).expect("training succeeds");
    let addr = fleet.serve_http("127.0.0.1:0", 4).expect("bind ephemeral port");

    let done = std::sync::atomic::AtomicBool::new(false);
    let outcomes = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut generations: Vec<f64> = Vec::new();
            loop {
                // check-then-scrape: the last pass runs after the fleet
                // finished, so at least one scrape sees the final state
                let stop = done.load(std::sync::atomic::Ordering::SeqCst);
                let (status, page) = get(&addr, "/metrics");
                assert_eq!(status, 200, "scrape failed mid-promotion");
                validate_exposition(&page).expect("well-formed exposition across promotions");
                let generation = page
                    .lines()
                    .find_map(|l| l.strip_prefix("hmd_serving_model_generation "))
                    .and_then(|v| v.trim().parse::<f64>().ok())
                    .expect("generation series present");
                generations.push(generation);
                let (status, body) = get(&addr, "/snapshot.json");
                assert_eq!(status, 200, "snapshot failed mid-promotion");
                Json::parse(&body).expect("snapshot stays valid JSON across promotions");
                if stop {
                    break;
                }
            }
            generations
        });
        let outcomes = fleet.run().expect("fleet run across hot-swaps");
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        let generations = scraper.join().expect("scraper thread");
        assert!(!generations.is_empty());
        assert!(
            generations.windows(2).all(|w| w[0] <= w[1]),
            "generation series must be monotonic: {generations:?}"
        );
        outcomes
    });

    // zero dropped windows across both promotions, both shards finish
    // on the final scheduled generation
    assert_eq!(outcomes.len(), 2);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.processed, 400, "shard {i} dropped windows across a swap");
        assert_eq!(outcome.verdicts.iter().sum::<u64>(), 400, "shard {i} verdict counts");
        assert_eq!(outcome.generation, 2, "shard {i} finished on the wrong generation");
    }

    let hub = fleet.hub().expect("retraining fleet has a hub");
    assert_eq!(hub.generation(), 2);
    assert!(hub.swaps() >= 1, "the mid-burst boundary must swap models");
    assert!(hub.absorbed() >= 1, "a swap absorbs quarantined rows");

    // final exposition reflects the completed schedule
    let (status, page) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(page.contains("hmd_serving_model_generation 2"), "final generation in:\n{page}");
    let swaps = page
        .lines()
        .find_map(|l| l.strip_prefix("hmd_serving_model_swaps_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("swap counter present");
    assert!(swaps >= 1.0, "swap counter must record the promotion");

    // the registry was re-hashed at promotion: every deployed model
    // carries a generation-tagged record, and at least one was promoted
    // past generation 0
    let registry = hub.registry();
    let names = registry.model_names();
    assert_eq!(names.len(), fleet.artifacts().detector.models().len());
    let max_deployed =
        names.iter().map(|n| registry.record(n).expect("record").deployed_at).max().unwrap();
    assert!((1..=2).contains(&max_deployed), "promoted models must be tagged with their generation");

    let (status, _) = get(&addr, "/quit");
    assert_eq!(status, 200);
    fleet.finish();
}

/// The quarantine ring's bound and its eviction counter across a model
/// swap. A one-shard fleet serving all-adversarial traffic flags more
/// rows in its first interval than the ring holds, so at the boundary
/// the counter reads exactly `flagged − 512`, `/metrics` and
/// `/snapshot.json` report the same value, and the swap neither resets
/// nor re-counts it (the drain and the recalibration evict nothing).
#[test]
fn quarantine_ring_overflow_counts_every_eviction_across_a_swap() {
    const CAP: u64 = 512;
    const EVERY: usize = 700;
    let mut cfg = ServingConfig::quick(37);
    cfg.samples = EVERY + 20;
    cfg.adv_fraction = 1.0;
    cfg.burst = None;
    cfg.retrain_every = EVERY;
    let mut fleet = FleetSession::start(&cfg, 1).expect("training succeeds");
    let addr = fleet.serve_http("127.0.0.1:0", 2).expect("bind ephemeral port");
    let hub = Arc::clone(fleet.hub().expect("retraining fleet has a hub"));
    assert_eq!(hub.quarantine_evicted(), 0, "training and calibration overflow nothing");

    // the counter as `/metrics` and `/snapshot.json` expose it
    let exposed = || {
        let (_, page) = get(&addr, "/metrics");
        let metric = page
            .lines()
            .find_map(|l| l.strip_prefix("hmd_serving_quarantine_evicted_total "))
            .and_then(|v| v.trim().parse::<u64>().ok());
        let (_, body) = get(&addr, "/snapshot.json");
        let snap = Json::parse(&body).expect("snapshot is valid JSON");
        (metric, snap.get("quarantine_evicted").and_then(Json::as_f64))
    };

    // every sample of generation 0 served, the boundary not yet crossed
    let session = &mut fleet.shards_mut()[0];
    while session.outcome().processed < EVERY {
        assert!(session.step().expect("step"), "budget exhausted early");
    }
    let flagged = session.outcome().verdicts[0];
    assert!(flagged > CAP, "need an overflowing interval, flagged only {flagged}");
    let evicted = hub.quarantine_evicted();
    assert_eq!(evicted, flagged - CAP, "oldest-first eviction past the cap");
    assert!(evicted > 0);
    #[allow(clippy::cast_precision_loss)]
    let want = (Some(evicted), Some(evicted as f64));
    assert_eq!(exposed(), want, "/metrics and /snapshot.json agree");

    // crossing the boundary drains the ring and swaps the zoo in
    assert!(session.step().expect("step across the swap"));
    assert_eq!(hub.generation(), 1);
    assert_eq!(hub.swaps(), 1);
    assert_eq!(hub.absorbed(), CAP, "the round absorbs the full ring");
    assert_eq!(hub.quarantine_evicted(), evicted, "the swap must not move the counter");
    assert_eq!(exposed(), want);
    fleet.finish();
}

/// Exemplar identity: every latency-histogram exemplar names a global
/// sample index, and with the flight recorder deep enough to retain the
/// whole run, that index must resolve to a recorded window whose
/// generation matches. Model-latency exemplars additionally carry the
/// exact nanosecond value the recorder stamped — the exemplar is a
/// live cross-reference from the exposition into the forensic ring,
/// not a statistical echo.
#[test]
fn latency_exemplars_resolve_to_flight_recorder_windows() {
    let mut cfg = ServingConfig::quick(11);
    cfg.samples = 250;
    cfg.recorder = 250; // the ring retains every served window
    let mut session = ServingSession::start(cfg).expect("training succeeds");
    while session.step().expect("step") {}

    let snap = session.snapshot();
    let ring = session.flight_recorder();
    let windows = ring.snapshot_windows();
    assert_eq!(windows.len(), 250, "the ring must retain the whole run");

    let mut resolved = 0usize;
    for e in snap.latency_exemplars.iter().chain(&snap.model_latency_exemplars).flatten() {
        let w = windows
            .iter()
            .find(|w| w.sample == e.sample)
            .unwrap_or_else(|| panic!("exemplar sample {} is not in the ring", e.sample));
        assert_eq!(e.shard, 0, "a single session stamps shard 0");
        assert_eq!(
            w.generation, e.generation,
            "exemplar at sample {} pins the wrong generation",
            e.sample
        );
        resolved += 1;
    }
    assert!(resolved >= 2, "a 250-window run must populate exemplars");

    // the model-latency store records the same nanosecond value the
    // flight recorder stamped for that window
    for e in snap.model_latency_exemplars.iter().flatten() {
        let w = windows.iter().find(|w| w.sample == e.sample).expect("resolved above");
        assert_eq!(
            w.model_latency_ns, e.value,
            "model-latency exemplar at sample {} diverged from the recorded stamp",
            e.sample
        );
    }
}

/// Ring wraparound: with a 16-deep flight recorder, an incident
/// captured deep into the stream holds exactly the 16 most recent
/// windows, in stream order, with consecutive sample indices ending at
/// the capture point — older windows were overwritten in place.
#[test]
fn flight_recorder_ring_wraps_and_keeps_the_trailing_windows() {
    let mut cfg = ServingConfig::quick(7);
    cfg.samples = 250;
    cfg.recorder = 16;
    let mut session = ServingSession::start(cfg).expect("training succeeds");
    while session.step().expect("step") {}

    assert!(session.incidents_total() >= 1, "the seeded burst must trip an alert");
    let ring = session.flight_recorder();
    assert_eq!(ring.capacity(), 16);
    assert_eq!(ring.len(), 16, "a 250-sample stream must have filled the ring");

    let bundles = session.incidents();
    let bundle = bundles
        .iter()
        .find(|b| b.sample_index > 16)
        .expect("an incident fired past ring capacity");
    assert_eq!(bundle.windows.len(), 16, "the ring must cap the recorded history");
    for (i, w) in bundle.windows.iter().enumerate() {
        assert_eq!(
            w.sample,
            bundle.sample_index - 16 + i as u64,
            "window {i} is not the consecutive trailing sample"
        );
        assert_eq!(w.row.len(), bundle.windows[0].row.len(), "row width must be uniform");
    }
    assert_eq!(
        bundle.verdict_digest,
        hmd::recorder::verdict_digest(bundle.windows.iter().map(|w| w.verdict)),
        "bundle digest must fold from exactly the retained windows"
    );

    // an early incident (before the ring filled) records every window
    // served so far and nothing more
    if let Some(early) = bundles.iter().find(|b| b.sample_index <= 16) {
        assert_eq!(early.windows.len(), early.sample_index as usize);
    }
}

/// A standalone session is one shard: only a fleet owns the model hub
/// and its retrainer, so assembly refuses `retrain_every > 0` instead
/// of silently never retraining (and `start` refuses it before
/// training). No session serves an empty flight recorder or a sample
/// budget whose stream clock overflows `u64`. Each is an `Err`, never a
/// panic; a one-shard fleet takes the retraining config.
#[test]
fn standalone_session_rejects_retraining_and_unservable_configs() {
    let base = ServingConfig::quick(5);
    let mut retraining = base.clone();
    retraining.retrain_every = 100;
    let mut no_recorder = base.clone();
    no_recorder.recorder = 0;
    let mut overflowing = base.clone();
    overflowing.tick_ns = u64::MAX;

    let err = ServingSession::start(retraining.clone()).expect_err("start must refuse retraining");
    assert!(matches!(err, CoreError::Invalid(_)), "{err}");
    let artifacts = Arc::new(
        Framework::new(base.framework.clone()).prepare_serving(base.kind).expect("training"),
    );
    for (what, cfg) in [
        ("retrain_every > 0", &retraining),
        ("recorder == 0", &no_recorder),
        ("an overflowing tick budget", &overflowing),
    ] {
        let err = ServingSession::with_artifacts(cfg.clone(), Arc::clone(&artifacts))
            .expect_err(what);
        assert!(matches!(err, CoreError::Invalid(_)), "{what}: {err}");
    }
    for (what, cfg) in [("recorder == 0", &no_recorder), ("an overflowing tick budget", &overflowing)]
    {
        let err = FleetSession::with_artifacts(cfg, 1, Arc::clone(&artifacts)).expect_err(what);
        assert!(matches!(err, CoreError::Invalid(_)), "fleet, {what}: {err}");
    }
    ServingSession::with_artifacts(base, Arc::clone(&artifacts)).expect("the base config serves");
    let fleet = FleetSession::with_artifacts(&retraining, 1, artifacts).expect("a fleet retrains");
    assert!(fleet.hub().is_some(), "a retraining fleet owns a hub");
}
