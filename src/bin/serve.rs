//! `serve` — the long-running detection service demo.
//!
//! Trains the full pipeline on the simulated corpus, then streams a
//! seeded benign/malware/adversarial traffic mix through the deployed
//! detector while exposing `/metrics`, `/healthz`, `/snapshot.json`,
//! `/history.json`, `/traces.json`, `/incidents` and the self-contained
//! `/dashboard` over HTTP. After the sample budget is spent the process lingers,
//! still answering scrapes, until `/quit` is hit or the linger timeout
//! expires.
//!
//! ```text
//! serve [--samples N] [--port P] [--seed S] [--adv-fraction F]
//!       [--burst START,END,FRACTION] [--window-slots N] [--slot-ms MS]
//!       [--kind fast_inference|small_footprint|best_detection]
//!       [--shards N] [--batch N] [--http-workers N]
//!       [--retrain-every N] [--linger-secs S]
//! ```
//!
//! Serving always runs a `FleetSession`: `--shards N` (default 1) runs
//! N independently seeded serving shards (one OS thread each) behind
//! one merged endpoint; `--batch N` classifies N samples per detector
//! call (verdicts are identical at any batch size); `--http-workers N`
//! sizes the endpoint's connection pool; `--retrain-every N` closes the
//! arms-race loop at any shard count, draining the quarantine into a
//! retraining round and hot-swapping the refreshed models every N
//! samples per shard. Monitoring and the flight recorder are always on.

use std::time::{Duration, Instant};

use hmd::serving::{Burst, FleetSession, ServingConfig};
use hmd::rl::ConstraintKind;
use hmd::obs::WindowConfig;

struct Args {
    samples: usize,
    port: u16,
    seed: u64,
    adv_fraction: Option<f64>,
    burst: Option<Burst>,
    window_slots: Option<usize>,
    slot_ms: Option<u64>,
    kind: ConstraintKind,
    shards: usize,
    batch: usize,
    http_workers: usize,
    retrain_every: usize,
    linger_secs: u64,
}

fn usage(problem: &str) -> ! {
    eprintln!("serve: {problem}");
    eprintln!(
        "usage: serve [--samples N] [--port P] [--seed S] [--adv-fraction F] \
         [--burst START,END,FRACTION] [--window-slots N] [--slot-ms MS] \
         [--kind fast_inference|small_footprint|best_detection] \
         [--shards N] [--batch N] [--http-workers N] \
         [--retrain-every N] [--linger-secs S]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else { usage(&format!("{flag} needs a value")) };
    raw.parse().unwrap_or_else(|_| usage(&format!("bad value for {flag}: {raw:?}")))
}

fn parse_burst(raw: &str) -> Burst {
    let parts: Vec<&str> = raw.split(',').collect();
    let [start, end, adv] = parts.as_slice() else {
        usage("--burst wants START,END,FRACTION (fractions of the budget)")
    };
    let p = |s: &str| {
        s.parse::<f64>().unwrap_or_else(|_| usage(&format!("bad burst component {s:?}")))
    };
    Burst { start: p(start), end: p(end), adv_fraction: p(adv) }
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 600,
        port: 0,
        seed: 7,
        adv_fraction: None,
        burst: None,
        window_slots: None,
        slot_ms: None,
        kind: ConstraintKind::BestDetection,
        shards: 1,
        batch: 1,
        http_workers: 4,
        retrain_every: 0,
        linger_secs: 600,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => args.samples = parse("--samples", it.next()),
            "--port" => args.port = parse("--port", it.next()),
            "--seed" => args.seed = parse("--seed", it.next()),
            "--adv-fraction" => args.adv_fraction = Some(parse("--adv-fraction", it.next())),
            "--burst" => {
                let Some(raw) = it.next() else { usage("--burst needs a value") };
                args.burst = Some(parse_burst(&raw));
            }
            "--window-slots" => args.window_slots = Some(parse("--window-slots", it.next())),
            "--slot-ms" => args.slot_ms = Some(parse("--slot-ms", it.next())),
            "--kind" => {
                let raw: String = parse("--kind", it.next());
                args.kind = match raw.as_str() {
                    "fast_inference" => ConstraintKind::FastInference,
                    "small_footprint" => ConstraintKind::SmallFootprint,
                    "best_detection" => ConstraintKind::BestDetection,
                    other => usage(&format!("unknown constraint kind {other:?}")),
                };
            }
            "--shards" => args.shards = parse("--shards", it.next()),
            "--batch" => args.batch = parse("--batch", it.next()),
            "--http-workers" => args.http_workers = parse("--http-workers", it.next()),
            "--retrain-every" => args.retrain_every = parse("--retrain-every", it.next()),
            "--linger-secs" => args.linger_secs = parse("--linger-secs", it.next()),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut cfg = ServingConfig::quick(args.seed);
    cfg.samples = args.samples;
    cfg.kind = args.kind;
    if let Some(f) = args.adv_fraction {
        cfg.adv_fraction = f;
    }
    if args.burst.is_some() {
        cfg.burst = args.burst;
    }
    if args.window_slots.is_some() || args.slot_ms.is_some() {
        let slots = args.window_slots.unwrap_or(cfg.window.slots);
        let slot_ms = args.slot_ms.unwrap_or(cfg.window.slot_ns / 1_000_000);
        cfg.window = WindowConfig::new(slots, slot_ms * 1_000_000);
    }

    cfg.batch = args.batch.max(1);
    cfg.retrain_every = args.retrain_every;

    eprintln!("serve: training pipeline (seed {})...", args.seed);
    let mut fleet = match FleetSession::start(&cfg, args.shards) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let addr =
        match fleet.serve_http(&format!("127.0.0.1:{}", args.port), args.http_workers) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("serve: failed to bind: {e}");
                std::process::exit(1);
            }
        };
    // machine-readable so scripts (ci.sh) can discover the ephemeral port
    println!("SERVE_ADDR http://{addr}");

    eprintln!(
        "serve: streaming {} samples across {} shard(s), batch {}...",
        args.samples,
        fleet.shards().len(),
        cfg.batch
    );
    let outcomes = match fleet.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve: detector error: {e}");
            fleet.finish();
            std::process::exit(1);
        }
    };

    for (i, outcome) in outcomes.iter().enumerate() {
        eprintln!(
            "serve: shard {i}: processed {} samples (digest {:016x}); verdicts \
             adv/malware/benign = {:?}; alert transitions {}; drift events {}; healthy {}; \
             model generation {}",
            outcome.processed,
            outcome.digest,
            outcome.verdicts,
            outcome.alert_transitions,
            outcome.drift_events,
            outcome.healthy,
            outcome.generation
        );
    }
    let snap = fleet.snapshot();
    eprintln!(
        "serve: fleet windowed detection_rate {:?} flag_rate {:?} latency_p95 {:.3} ms",
        snap.detection_rate(),
        snap.flag_rate(),
        snap.latency_p95_ms()
    );

    // linger: keep answering scrapes until /quit or timeout
    let deadline = Instant::now() + Duration::from_secs(args.linger_secs);
    eprintln!("serve: lingering for scrapes (GET /quit to stop, timeout {}s)", args.linger_secs);
    while !fleet.quit_requested() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    fleet.finish();
    eprintln!("serve: bye");
}
