//! `replay` — deterministic forensic replay of an incident bundle.
//!
//! Loads an [`IncidentBundle`](hmd::IncidentBundle) (captured by a
//! serving shard on an SLO alert fire edge and fetched from
//! `/incidents/<id>.json`), rebuilds the serving artifacts at the
//! bundle's pinned model generation(s) from the recorded seed,
//! re-executes every captured window through the detector, and asserts
//! that the replayed verdicts — and their FNV-1a digest — are
//! byte-identical to what the live shard served. It also re-scores
//! every window on the detector's reference path
//! (`AdaptiveDetector::classify_explain`) and asserts the recorded
//! critic value and verdict equal it, bit for bit. It then prints a
//! per-window explanation trace (critic score vs. threshold, routed
//! model, per-model probabilities, all recomputed from the row) so the
//! alert can be understood offline. Rows that do not match the
//! detector's feature width are an error, not a panic.
//!
//! ```text
//! replay <bundle.json> [--explain N]
//! ```
//!
//! `--explain N` prints the trace for the last N windows (default 8;
//! 0 silences it). Exit status: 0 on a byte-identical replay, 1 on any
//! verdict, digest or critic-value divergence, 2 on usage/parse
//! errors.
//!
//! Generation 0 needs only the training pipeline
//! ([`Framework::prepare_serving`]); windows served by a later
//! generation re-run the recorded fleet with
//! [`retain_generations`](hmd::ServingConfig::retain_generations) so
//! the hub retains every published generation — the retraining
//! schedule is a pure function of the seed, so the re-run reproduces
//! the original promoted models bit-for-bit. The re-run stops once the
//! newest pinned generation has served a window
//! ([`samples_to_serve_generation`](hmd::ServingConfig::samples_to_serve_generation)),
//! however large the bundle's sample budget.

use std::sync::Arc;

use hmd::core::{Framework, ServingArtifacts, Verdict};
use hmd::recorder::{verdict_digest, verdict_name, IncidentBundle, WindowTrace};
use hmd::serving::FleetSession;
use hmd_util::json::Json;

fn usage(problem: &str) -> ! {
    eprintln!("replay: {problem}");
    eprintln!("usage: replay <bundle.json> [--explain N]");
    std::process::exit(2);
}

fn fail(problem: &str) -> ! {
    eprintln!("replay: {problem}");
    std::process::exit(2);
}

fn main() {
    let mut bundle_path: Option<String> = None;
    let mut explain: usize = 8;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(raw) = it.next() else { usage("--explain needs a value") };
                explain = raw
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad value for --explain: {raw:?}")));
            }
            "--help" | "-h" => usage("help requested"),
            other if other.starts_with("--") => usage(&format!("unknown flag {other:?}")),
            other => {
                if bundle_path.replace(other.to_owned()).is_some() {
                    usage("exactly one bundle path expected");
                }
            }
        }
    }
    let Some(path) = bundle_path else { usage("bundle path missing") };

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let bundle = IncidentBundle::parse(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    eprintln!(
        "replay: bundle {} (shard {}/{}, sample {}, generation {}, {} windows, digest {:016x})",
        bundle.id,
        bundle.shard,
        bundle.shards,
        bundle.sample_index,
        bundle.generation,
        bundle.windows.len(),
        bundle.verdict_digest
    );
    for t in &bundle.triggers {
        eprintln!(
            "replay: trigger {} [{}] {}: observed {:.6} vs threshold {:.6}",
            t.rule,
            t.severity,
            if t.firing { "fired" } else { "resolved" },
            t.observed,
            t.threshold
        );
    }
    if bundle.windows.is_empty() {
        fail("bundle holds no windows");
    }

    // v2+ bundles embed the promoted flagged stage traces; assert they
    // survive a serialize → parse round trip byte-for-byte and that
    // every cumulative stage array is monotone (v1 bundles carry none)
    for t in &bundle.traces {
        if t.stage_ns.windows(2).any(|w| w[1] < w[0]) {
            fail(&format!("trace at sample {} has non-monotone stage ends", t.sample));
        }
        let text = t.to_json().to_string();
        let back = WindowTrace::from_json(
            &Json::parse(&text).unwrap_or_else(|e| fail(&format!("trace re-parse failed: {e}"))),
        )
        .unwrap_or_else(|e| fail(&format!("trace round-trip failed: {e}")));
        if back != *t {
            fail(&format!("trace at sample {} did not round-trip", t.sample));
        }
    }

    // rebuild the serving universe at the recorded seed. Generation 0
    // falls out of the training pipeline directly; later generations
    // need the recorded fleet re-run with history retention so the hub
    // can hand back the exact promoted artifacts. The re-run stops as
    // soon as the newest pinned generation has served a window, not at
    // the bundle's (untrusted) sample budget.
    let mut generations: Vec<u64> = bundle.windows.iter().map(|w| w.generation).collect();
    generations.sort_unstable();
    generations.dedup();
    let newest = generations.last().copied().unwrap_or(0);
    let mut cfg = bundle.config.clone();
    let rerun = (newest > 0).then(|| {
        cfg.samples_to_serve_generation(newest).unwrap_or_else(|| {
            fail(&format!("generation {newest} is never published by the bundle's schedule"))
        })
    });
    eprintln!(
        "replay: rebuilding artifacts (seed {}, {})...",
        cfg.base_seed,
        match rerun {
            Some(samples) => format!(
                "re-running {}-shard fleet for {samples} samples per shard",
                bundle.shards
            ),
            None => "generation 0, training pipeline only".to_owned(),
        }
    );
    let fleet = rerun.map(|samples| {
        cfg.retain_generations = true;
        let mut fleet = FleetSession::start(&cfg, bundle.shards)
            .unwrap_or_else(|e| fail(&format!("fleet rebuild failed: {e}")));
        fleet
            .run_for(samples)
            .unwrap_or_else(|e| fail(&format!("fleet re-run failed: {e}")));
        fleet
    });
    // one artifacts handle per distinct generation in the bundle
    let pinned: Vec<(u64, Arc<ServingArtifacts>)> = generations
        .iter()
        .map(|&g| {
            let artifacts = match &fleet {
                Some(fleet) => fleet
                    .hub()
                    .unwrap_or_else(|| fail("bundle pins generations but the config never retrains"))
                    .artifacts_at(g)
                    .unwrap_or_else(|| fail(&format!("generation {g} not in retained history"))),
                None => Arc::new(
                    Framework::new(bundle.config.framework.clone())
                        .prepare_serving(bundle.config.kind)
                        .unwrap_or_else(|e| fail(&format!("training failed: {e}"))),
                ),
            };
            (g, artifacts)
        })
        .collect();
    let artifacts_at = |g: u64| -> &Arc<ServingArtifacts> {
        pinned
            .iter()
            .find(|(gen, _)| *gen == g)
            .map(|(_, a)| a)
            .unwrap_or_else(|| fail(&format!("generation {g} not pinned")))
    };

    // re-classify the windows, grouped into consecutive same-generation
    // runs (a ring can straddle a hot swap), preserving ring order so
    // the digest chain matches the recorded one
    let width = bundle.windows[0].row.len();
    let mut replayed: Vec<Verdict> = Vec::with_capacity(bundle.windows.len());
    let mut start = 0;
    while start < bundle.windows.len() {
        let generation = bundle.windows[start].generation;
        let mut end = start;
        while end < bundle.windows.len() && bundle.windows[end].generation == generation {
            end += 1;
        }
        let artifacts = artifacts_at(generation);
        let mut flat = Vec::with_capacity((end - start) * width);
        for w in &bundle.windows[start..end] {
            if w.row.len() != width {
                fail(&format!("window {} row width {} != {width}", w.sample, w.row.len()));
            }
            flat.extend_from_slice(&w.row);
        }
        let mut arena = artifacts.detector.warmup(width, end - start);
        artifacts
            .detector
            .classify_batch_into(&flat, width, &mut arena)
            .unwrap_or_else(|e| fail(&format!("replay classification failed: {e}")));
        replayed.extend_from_slice(arena.verdicts());
        start = end;
    }

    // the forensic contract: replayed verdicts (and their digest) are
    // byte-identical to what the live shard served
    let mut mismatches = 0usize;
    for (w, &got) in bundle.windows.iter().zip(&replayed) {
        if got != w.verdict {
            mismatches += 1;
            eprintln!(
                "replay: MISMATCH sample {} gen {}: recorded {} replayed {}",
                w.sample,
                w.generation,
                verdict_name(w.verdict),
                verdict_name(got)
            );
        }
    }
    let digest = verdict_digest(replayed.iter().copied());
    eprintln!(
        "replay: {} windows re-classified; digest recorded {:016x} replayed {digest:016x}",
        replayed.len(),
        bundle.verdict_digest
    );

    // every window's recorded critic value and verdict must be what
    // the pinned generation's reference path computes for its row, bit
    // for bit: the serving path's batched critic pass is what the ring
    // recorded, and the reference path shares only the matmul kernel
    // with it
    let explained: Vec<_> = bundle
        .windows
        .iter()
        .map(|w| {
            artifacts_at(w.generation)
                .detector
                .classify_explain(&w.row)
                .unwrap_or_else(|e| fail(&format!("explain failed: {e}")))
        })
        .collect();
    for (w, trace) in bundle.windows.iter().zip(&explained) {
        if w.adv_score.to_bits() != trace.adv_score.to_bits() {
            mismatches += 1;
            eprintln!(
                "replay: MISMATCH sample {} gen {}: recorded critic {:e} replayed {:e}",
                w.sample, w.generation, w.adv_score, trace.adv_score
            );
        }
        if w.verdict != trace.verdict {
            mismatches += 1;
            eprintln!(
                "replay: MISMATCH sample {} gen {}: recorded {} reference path {}",
                w.sample,
                w.generation,
                verdict_name(w.verdict),
                verdict_name(trace.verdict)
            );
        }
    }

    // explanation traces for the most recent windows: why each verdict
    // fell out of the critic threshold and the routed model
    let skip = bundle.windows.len().saturating_sub(explain);
    for (w, trace) in bundle.windows.iter().zip(&explained).skip(skip) {
        let probs: Vec<String> = bundle
            .model_names
            .iter()
            .zip(&trace.model_probs)
            .map(|(name, p)| format!("{name}={p:.4}"))
            .collect();
        println!(
            "sample {:>6} gen {} verdict {:<11} critic {:+.4} vs {:+.4} ({}) routed {} [{}]",
            w.sample,
            w.generation,
            verdict_name(trace.verdict),
            trace.adv_score,
            trace.adv_threshold,
            if trace.flagged { "flagged" } else { "clean" },
            bundle.model_names.get(trace.selected_model).map_or("?", String::as_str),
            probs.join(" ")
        );
    }

    if mismatches > 0 || digest != bundle.verdict_digest {
        eprintln!(
            "replay: FAILED — {mismatches} verdict/critic mismatch(es), digest {}",
            if digest == bundle.verdict_digest { "matches" } else { "DIVERGED" }
        );
        std::process::exit(1);
    }
    println!("REPLAY_TRACES {} embedded stage trace(s) round-tripped", bundle.traces.len());
    println!("REPLAY_SCORES {} recorded critic value(s) bit-equal", explained.len());
    println!("REPLAY_OK {} windows digest {digest:016x}", replayed.len());
}
