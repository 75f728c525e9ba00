//! CI gate for the serving endpoints: scrapes a running `serve`
//! process, validates the Prometheus exposition and the health/snapshot
//! routes, and (optionally) shuts the service down.
//!
//! Usage: `obs_check <http://host:port | host:port> [--wait-samples N]
//! [--expect-transitions N] [--expect-shards N] [--quit]`
//!
//! `--wait-samples N` polls `/metrics` until the all-time
//! `hmd_serving_samples_total` counter reaches `N` (the serve process
//! streams in the background after printing `SERVE_ADDR`), so the
//! validation runs against a finished session instead of a cold start.
//!
//! `--expect-shards N` checks the fleet's label separation: exactly `N`
//! `hmd_serving_shard_samples_total{shard="i"}` series, whose values
//! sum to the aggregate `hmd_serving_samples_total`.
//!
//! `--expect-incident` validates the forensic pipeline: the
//! `hmd_serving_incidents_total` counter must be ≥ 1, the `/incidents`
//! index must list at least one bundle, and every listed bundle fetched
//! from `/incidents/<id>.json` must carry the current bundle schema
//! (`hmd-incident-v3`: a traces array, and windows without per-model
//! probabilities) with a non-empty window array. `--save-incident
//! DIR` writes each of those bundles to `DIR/<id>.json` (creating
//! `DIR`) so the `replay` binary can re-execute them.
//!
//! `--expect-history` validates `/history.json`: the tier shape
//! (`fine_every`/`fold`), a non-empty merged fine tier, a per-shard
//! section, and that the merged counters equal the sum of the aligned
//! per-shard counters. `--expect-traces` validates `/traces.json`: at
//! least one promoted trace whose cumulative stage array is monotone
//! non-decreasing, plus a working `/dashboard` page.
//!
//! Exits non-zero with a diagnostic on the first failure.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hmd::recorder::{BUNDLE_SCHEMA, TRACES_SCHEMA};
use hmd_obs::validate_exposition;
use hmd_util::json::Json;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);
const WAIT_BUDGET: Duration = Duration::from_secs(300);

/// The gauges and counters a serving exposition must carry.
const REQUIRED_SERIES: &[&str] = &[
    "hmd_serving_samples_total",
    "hmd_serving_detection_rate",
    "hmd_serving_adversarial_flag_rate",
    "hmd_serving_latency_ns_p50",
    "hmd_serving_latency_ns_p95",
    "hmd_serving_latency_ns_p99",
    "hmd_serving_model_latency_p50",
    "hmd_serving_model_latency_p95",
    "hmd_serving_model_latency_p99",
    "hmd_serving_alert_transitions_total",
    "hmd_serving_healthy",
    "hmd_serving_model_generation",
    "hmd_serving_model_swaps_total",
    "hmd_serving_retrain_absorbed_total",
    "hmd_serving_incidents_total",
    "hmd_serving_calibration_quarantined_total",
];

struct Args {
    addr: String,
    wait_samples: Option<f64>,
    expect_transitions: u64,
    expect_shards: Option<usize>,
    expect_generation: Option<f64>,
    expect_incident: bool,
    expect_history: bool,
    expect_traces: bool,
    save_incident: Option<String>,
    quit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let Some(target) = raw.next() else {
        return Err("usage: obs_check <addr> [--wait-samples N] [--expect-transitions N] \
                    [--expect-shards N] [--expect-generation N] [--expect-incident] \
                    [--expect-history] [--expect-traces] [--save-incident DIR] [--quit]"
            .into());
    };
    let mut args = Args {
        addr: target.trim_start_matches("http://").trim_end_matches('/').to_owned(),
        wait_samples: None,
        expect_transitions: 0,
        expect_shards: None,
        expect_generation: None,
        expect_incident: false,
        expect_history: false,
        expect_traces: false,
        save_incident: None,
        quit: false,
    };
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--wait-samples" => {
                let v = raw.next().ok_or("--wait-samples needs a value")?;
                args.wait_samples =
                    Some(v.parse().map_err(|_| format!("bad --wait-samples: {v:?}"))?);
            }
            "--expect-transitions" => {
                let v = raw.next().ok_or("--expect-transitions needs a value")?;
                args.expect_transitions =
                    v.parse().map_err(|_| format!("bad --expect-transitions: {v:?}"))?;
            }
            "--expect-shards" => {
                let v = raw.next().ok_or("--expect-shards needs a value")?;
                args.expect_shards =
                    Some(v.parse().map_err(|_| format!("bad --expect-shards: {v:?}"))?);
            }
            "--expect-generation" => {
                let v = raw.next().ok_or("--expect-generation needs a value")?;
                args.expect_generation =
                    Some(v.parse().map_err(|_| format!("bad --expect-generation: {v:?}"))?);
            }
            "--expect-incident" => args.expect_incident = true,
            "--expect-history" => args.expect_history = true,
            "--expect-traces" => args.expect_traces = true,
            "--save-incident" => {
                let v = raw.next().ok_or("--save-incident needs a directory")?;
                args.save_incident = Some(v);
            }
            "--quit" => args.quit = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// One GET against the service; returns (status, body).
fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let err = |stage: &str, e: std::io::Error| format!("GET {path}: {stage}: {e}");
    let mut s = TcpStream::connect(addr).map_err(|e| err("connect", e))?;
    s.set_read_timeout(Some(SCRAPE_TIMEOUT)).map_err(|e| err("timeout", e))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: obs-check\r\n\r\n").map_err(|e| err("send", e))?;
    s.shutdown(Shutdown::Write).map_err(|e| err("half-close", e))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| err("read", e))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("GET {path}: malformed status line: {raw:.60?}"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((status, body))
}

/// The value of an unlabeled series on a metrics page.
fn series_value(page: &str, name: &str) -> Option<f64> {
    page.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len()..].trim().parse().ok())
}

/// Checks the per-shard label separation of a fleet exposition: the
/// `hmd_serving_shard_samples_total{shard="i"}` family must carry
/// exactly `want` shards whose totals sum to the aggregate counter.
fn check_shards(page: &str, want: usize) -> Result<(), String> {
    const FAMILY: &str = "hmd_serving_shard_samples_total";
    let mut sum = 0.0;
    for i in 0..want {
        let series = format!("{FAMILY}{{shard=\"{i}\"}}");
        let value = page
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|rest| rest.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("/metrics is missing {series}"))?;
        sum += value;
    }
    let labeled = page.lines().filter(|l| l.starts_with(&format!("{FAMILY}{{"))).count();
    if labeled != want {
        return Err(format!("expected {want} shard series for {FAMILY}, found {labeled}"));
    }
    let aggregate = series_value(page, "hmd_serving_samples_total")
        .ok_or("/metrics is missing hmd_serving_samples_total")?;
    if (sum - aggregate).abs() > f64::EPSILON {
        return Err(format!("shard totals sum to {sum}, aggregate says {aggregate}"));
    }
    Ok(())
}

/// Validates the forensic pipeline: the incident counter, the
/// `/incidents` index, and the schema of every retained bundle.
/// Optionally persists the bundles for an offline `replay` run.
fn check_incidents(args: &Args, page: &str) -> Result<(), String> {
    let captured = series_value(page, "hmd_serving_incidents_total").unwrap_or(0.0);
    if captured < 1.0 {
        return Err(format!("expected >= 1 captured incident, counter says {captured}"));
    }

    let (status, body) = get(&args.addr, "/incidents")?;
    if status != 200 {
        return Err(format!("/incidents returned {status}"));
    }
    let index = Json::parse(&body).map_err(|e| format!("/incidents is not valid JSON: {e:?}"))?;
    let rows = index
        .get("incidents")
        .and_then(Json::as_arr)
        .ok_or("/incidents is missing the incidents array")?;
    if rows.is_empty() {
        return Err("counter reports incidents but /incidents index is empty".into());
    }
    let total = index.get("total").and_then(Json::as_f64).unwrap_or(0.0);
    if total < 1.0 {
        return Err(format!("/incidents total says {total}, want >= 1"));
    }
    println!("obs_check: /incidents OK ({} retained bundle(s), {total} captured)", rows.len());
    if let Some(dir) = &args.save_incident {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }
    for row in rows {
        let id = row.get("id").and_then(Json::as_str);
        check_bundle(args, id.ok_or("/incidents rows are missing the id field")?)?;
    }

    let (status, _) = get(&args.addr, "/incidents/no-such-incident.json")?;
    if status != 404 {
        return Err(format!("unknown incident id returned {status}, want 404"));
    }
    Ok(())
}

/// Fetches and validates one retained bundle, saving it under
/// `--save-incident` when given.
fn check_bundle(args: &Args, id: &str) -> Result<(), String> {
    let (status, body) = get(&args.addr, &format!("/incidents/{id}.json"))?;
    if status != 200 {
        return Err(format!("/incidents/{id}.json returned {status}"));
    }
    let bundle =
        Json::parse(&body).map_err(|e| format!("/incidents/{id}.json is not valid JSON: {e:?}"))?;
    let schema = bundle.get("schema").and_then(Json::as_str);
    if schema != Some(BUNDLE_SCHEMA) {
        return Err(format!("bundle {id} schema is {schema:?}, want {BUNDLE_SCHEMA}"));
    }
    // the traces array may be empty if no flagged window was promoted
    // before the fire edge, but it must be there
    if bundle.get("traces").and_then(Json::as_arr).is_none() {
        return Err(format!("bundle {id} is missing the traces array"));
    }
    let windows = bundle
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("bundle {id} is missing the windows array"))?;
    if windows.is_empty() {
        return Err(format!("bundle {id} holds no windows"));
    }
    if windows.iter().any(|w| w.get("model_probs").is_some()) {
        return Err(format!("bundle {id} windows still carry model_probs"));
    }
    for field in ["verdict_digest", "config", "triggers", "monitor"] {
        if bundle.get(field).is_none() {
            return Err(format!("bundle {id} is missing the {field} field"));
        }
    }
    println!("obs_check: bundle {id} OK ({} windows, {} bytes)", windows.len(), body.len());
    if let Some(dir) = &args.save_incident {
        let path = format!("{dir}/{id}.json");
        std::fs::write(&path, body.as_bytes())
            .map_err(|e| format!("cannot write bundle to {path}: {e}"))?;
    }
    Ok(())
}

/// Validates `/history.json`: schema + tier shape, a non-empty merged
/// fine tier, a per-shard section, and merged-equals-sum-of-shards for
/// the `samples` counter of every merged fine point.
fn check_history(args: &Args) -> Result<(), String> {
    let (status, body) = get(&args.addr, "/history.json")?;
    if status != 200 {
        return Err(format!("/history.json returned {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/history.json is not valid JSON: {e:?}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hmd-history-v1") => {}
        other => return Err(format!("/history.json schema is {other:?}, want hmd-history-v1")),
    }
    let tiers = doc.get("tiers").ok_or("/history.json is missing the tiers shape")?;
    let fine_every = tiers.get("fine_every").and_then(Json::as_f64).unwrap_or(0.0);
    let fold = tiers.get("fold").and_then(Json::as_f64).unwrap_or(0.0);
    if fine_every < 1.0 || fold < 2.0 {
        return Err(format!("implausible tier shape: fine_every {fine_every}, fold {fold}"));
    }
    let merged_fine = doc
        .get("merged")
        .and_then(|m| m.get("fine"))
        .and_then(Json::as_arr)
        .ok_or("/history.json is missing merged.fine")?;
    if merged_fine.is_empty() {
        return Err("merged fine tier is empty (no history point flushed yet)".into());
    }
    let per_shard = doc
        .get("per_shard")
        .and_then(Json::as_arr)
        .ok_or("/history.json is missing per_shard")?;
    if per_shard.is_empty() {
        return Err("/history.json per_shard is empty".into());
    }
    // merged counters must equal the sum of the aligned shard counters
    for point in merged_fine {
        let end = point.get("sample_end").and_then(Json::as_f64).unwrap_or(-1.0);
        let merged_samples = point.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
        let mut shard_sum = 0.0;
        for shard in per_shard {
            let fine = shard
                .get("fine")
                .and_then(Json::as_arr)
                .ok_or("per_shard entry is missing its fine tier")?;
            if let Some(p) = fine
                .iter()
                .find(|p| p.get("sample_end").and_then(Json::as_f64) == Some(end))
            {
                shard_sum += p.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
        if (merged_samples - shard_sum).abs() > f64::EPSILON {
            return Err(format!(
                "merged point at sample_end {end} says {merged_samples} samples, \
                 shards sum to {shard_sum}"
            ));
        }
    }
    println!(
        "obs_check: /history.json OK ({} merged fine point(s), {} shard(s), \
         fine_every {fine_every}, fold {fold})",
        merged_fine.len(),
        per_shard.len()
    );
    Ok(())
}

/// Validates `/traces.json` (at least one promoted trace with a
/// monotone cumulative stage array) and the `/dashboard` page.
fn check_traces(args: &Args) -> Result<(), String> {
    let (status, body) = get(&args.addr, "/traces.json")?;
    if status != 200 {
        return Err(format!("/traces.json returned {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/traces.json is not valid JSON: {e:?}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(TRACES_SCHEMA) {
        return Err(format!("/traces.json schema is {schema:?}, want {TRACES_SCHEMA}"));
    }
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or("/traces.json is missing the stages array")?;
    let per_shard = doc
        .get("per_shard")
        .and_then(Json::as_arr)
        .ok_or("/traces.json is missing per_shard")?;
    let mut traces = 0usize;
    for shard in per_shard {
        for ring in ["flagged", "latency_tail"] {
            let list = shard
                .get(ring)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("per_shard entry is missing its {ring} ring"))?;
            for trace in list {
                let ends = trace
                    .get("stage_latency_ns")
                    .and_then(Json::as_arr)
                    .ok_or("trace is missing stage_latency_ns")?;
                if ends.len() != stages.len() {
                    return Err(format!(
                        "trace has {} stage ends, page declares {} stages",
                        ends.len(),
                        stages.len()
                    ));
                }
                let mut prev = 0.0;
                for end in ends {
                    let v = end.as_f64().ok_or("non-numeric stage end")?;
                    if v < prev {
                        return Err(format!(
                            "stage ends not monotone: {v} after {prev} in trace at sample {:?}",
                            trace.get("sample").and_then(Json::as_f64)
                        ));
                    }
                    prev = v;
                }
                traces += 1;
            }
        }
    }
    if traces == 0 {
        return Err("expected >= 1 promoted trace, /traces.json is empty".into());
    }
    let (status, page) = get(&args.addr, "/dashboard")?;
    if status != 200 {
        return Err(format!("/dashboard returned {status}"));
    }
    if !page.contains("<!doctype html>") || !page.contains("/history.json") {
        return Err("/dashboard does not look like the self-contained dashboard page".into());
    }
    println!(
        "obs_check: /traces.json OK ({traces} promoted trace(s), {} stage(s)); /dashboard OK \
         ({} bytes)",
        stages.len(),
        page.len()
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(target) = args.wait_samples {
        let deadline = Instant::now() + WAIT_BUDGET;
        loop {
            let (status, page) = get(&args.addr, "/metrics")?;
            if status == 200
                && series_value(&page, "hmd_serving_samples_total").unwrap_or(0.0) >= target
            {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("timed out waiting for {target} served samples"));
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    let (status, page) = get(&args.addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    validate_exposition(&page).map_err(|e| format!("/metrics exposition invalid: {e}"))?;
    for series in REQUIRED_SERIES {
        if series_value(&page, series).is_none() {
            return Err(format!("/metrics is missing series {series}"));
        }
    }
    let transitions = series_value(&page, "hmd_serving_alert_transitions_total").unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    if transitions < args.expect_transitions as f64 {
        return Err(format!(
            "expected >= {} alert transitions, saw {transitions}",
            args.expect_transitions
        ));
    }
    if let Some(want) = args.expect_shards {
        check_shards(&page, want)?;
        println!("obs_check: /metrics carries {want} label-separated shard(s)");
    }
    if let Some(want) = args.expect_generation {
        let generation = series_value(&page, "hmd_serving_model_generation").unwrap_or(0.0);
        let swaps = series_value(&page, "hmd_serving_model_swaps_total").unwrap_or(0.0);
        if generation < want {
            return Err(format!("expected model generation >= {want}, saw {generation}"));
        }
        if want > 0.0 && swaps < 1.0 {
            return Err(format!("expected >= 1 model swap at generation {generation}, saw {swaps}"));
        }
        println!("obs_check: model generation {generation} after {swaps} hot-swap(s)");
    }
    println!(
        "obs_check: /metrics OK ({} lines, {} required series, {transitions} transitions)",
        page.lines().count(),
        REQUIRED_SERIES.len()
    );

    let (status, body) = get(&args.addr, "/healthz")?;
    if status != 200 && status != 503 {
        return Err(format!("/healthz returned unexpected {status}: {body:.60}"));
    }
    println!("obs_check: /healthz {status} ({})", body.trim());

    let (status, body) = get(&args.addr, "/snapshot.json")?;
    if status != 200 {
        return Err(format!("/snapshot.json returned {status}"));
    }
    let snapshot =
        Json::parse(&body).map_err(|e| format!("/snapshot.json is not valid JSON: {e:?}"))?;
    let slo_rules = snapshot
        .get("slo")
        .and_then(Json::as_arr)
        .ok_or("/snapshot.json is missing the per-rule slo array")?;
    if slo_rules.iter().any(|r| r.get("rule").is_none() || r.get("transitions").is_none()) {
        return Err("/snapshot.json slo entries need rule + transitions".into());
    }
    if snapshot.get("incidents_total").is_none() {
        return Err("/snapshot.json is missing incidents_total".into());
    }
    println!(
        "obs_check: /snapshot.json OK ({} bytes, {} SLO rules)",
        body.len(),
        slo_rules.len()
    );

    if args.expect_incident || args.save_incident.is_some() {
        check_incidents(args, &page)?;
    }
    if args.expect_history {
        check_history(args)?;
    }
    if args.expect_traces {
        check_traces(args)?;
    }

    let (status, _) = get(&args.addr, "/no-such-route")?;
    if status != 404 {
        return Err(format!("unknown route returned {status}, want 404"));
    }

    if args.quit {
        let (status, _) = get(&args.addr, "/quit")?;
        if status != 200 {
            return Err(format!("/quit returned {status}"));
        }
        println!("obs_check: /quit acknowledged");
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(()) => {
                println!("obs_check: PASSED");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs_check: FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("obs_check: {e}");
            ExitCode::FAILURE
        }
    }
}
