//! Hostile input for the incident-bundle parser. A bundle is fetched
//! over HTTP and handed to `replay` from disk, so `IncidentBundle::parse`
//! must answer any bytes with `Ok` or `Err`, never a panic. The inputs
//! are real captures: `fixtures/incident_v3.json` is bundle `s0-i0` of
//! `serve --samples 600 --seed 7 --shards 2 --batch 16 --retrain-every
//! 200`, and `fixtures/incident_v2.json` is the same bundle as captured
//! before the schema dropped per-model probabilities.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hmd::recorder::{IncidentBundle, BUNDLE_SCHEMA};
use hmd_util::json::Json;
use hmd_util::{prop_assert, prop_assert_eq, prop_tests};

const V3: &str = include_str!("fixtures/incident_v3.json");
const V2: &str = include_str!("fixtures/incident_v2.json");

/// `parse`, with a panic turned into a test failure that names the input.
fn parse_no_panic(text: &str, what: &str) -> Option<IncidentBundle> {
    catch_unwind(AssertUnwindSafe(|| IncidentBundle::parse(text)))
        .unwrap_or_else(|_| panic!("parse panicked on {what}"))
        .ok()
}

/// Serializes, parses back and serializes again: the two texts must be
/// equal, and so must the windows and traces.
fn assert_round_trips(b: &IncidentBundle) {
    let text = b.to_json().to_string();
    let back = IncidentBundle::parse(&text).expect("a serialized bundle parses");
    assert_eq!(back.to_json().to_string(), text);
    assert_eq!(back.windows, b.windows);
    assert_eq!(back.traces, b.traces);
}

#[test]
fn captured_v3_bundle_round_trips() {
    let b = IncidentBundle::parse(V3).expect("the captured bundle parses");
    assert!(!b.windows.is_empty());
    assert_eq!(
        Json::parse(V3).unwrap().get("schema").and_then(Json::as_str),
        Some(BUNDLE_SCHEMA)
    );
    assert_round_trips(&b);
}

#[test]
fn captured_v2_bundle_parses_and_drops_model_probs() {
    let doc = Json::parse(V2).expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("hmd-incident-v2"));
    let first = doc.get("windows").and_then(|w| w.at(0)).expect("a window");
    assert!(first.get("model_probs").is_some(), "the v2 fixture must carry model_probs");

    let b = IncidentBundle::parse(V2).expect("v2 bundles still parse");
    assert_eq!(b.windows.len(), doc.get("windows").and_then(Json::as_arr).unwrap().len());
    let text = b.to_json().to_string();
    assert!(text.contains(BUNDLE_SCHEMA), "re-serialized as the current schema");
    assert!(!text.contains("model_probs"));
    assert_round_trips(&b);
    // the v2 capture re-scored the critic in the recorder, the v3 one
    // copied the detector's value: the same windows, bit for bit, but
    // for the wall-clock latency
    let v3 = IncidentBundle::parse(V3).unwrap();
    assert_eq!(b.verdict_digest, v3.verdict_digest);
    assert_eq!(b.windows.len(), v3.windows.len());
    for (old, new) in b.windows.iter().zip(&v3.windows) {
        assert_eq!(
            (old.sample, old.verdict, old.generation),
            (new.sample, new.verdict, new.generation)
        );
        assert_eq!(old.selected_model, new.selected_model);
        assert_eq!(old.adv_score.to_bits(), new.adv_score.to_bits());
        assert_eq!(old.row, new.row);
    }
}

#[test]
fn every_truncated_prefix_is_rejected() {
    let doc = V3.trim_end();
    assert!(doc.is_ascii(), "prefixes below slice on byte boundaries");
    for end in 0..doc.len() {
        assert!(
            parse_no_panic(&doc[..end], &format!("the {end}-byte prefix")).is_none(),
            "the {end}-byte prefix parsed"
        );
    }
}

#[test]
fn a_bad_window_shape_is_an_error() {
    for (from, to) in [
        ("\"window_slots\":8,", "\"window_slots\":1,"),
        ("\"window_slots\":8,", "\"window_slots\":0,"),
        ("\"window_slot_ns\":250000000,", "\"window_slot_ns\":0,"),
        // no session serves an empty flight recorder
        ("\"recorder\":64,", "\"recorder\":0,"),
        // 600 samples × u64::MAX ns overflows the stream clock
        ("\"tick_ns\":10000000,", "\"tick_ns\":18446744073709551615,"),
        // traffic fractions are probabilities; the stream asserts them
        ("\"malware_fraction\":0.3,", "\"malware_fraction\":1.5,"),
        ("\"malware_fraction\":0.3,", "\"malware_fraction\":-0.1,"),
        ("\"adv_fraction\":0.02,", "\"adv_fraction\":1.5,"),
        ("\"adv_fraction\":1.0}", "\"adv_fraction\":-0.5}"),
        // sizes a session allocates from: each is capped far above any
        // served configuration, not left to a failed 2^62-byte allocation
        ("\"batch\":16,", "\"batch\":4611686018427387904,"),
        ("\"replay\":0,", "\"replay\":4611686018427387904,"),
        ("\"recorder\":64,", "\"recorder\":4611686018427387904,"),
        ("\"shards\":2", "\"shards\":4611686018427387904"),
        ("\"window_slots\":8,", "\"window_slots\":4611686018427387904,"),
    ] {
        assert!(V3.contains(from), "fixture lacks {from}");
        let text = V3.replace(from, to);
        assert!(parse_no_panic(&text, to).is_none(), "{to} parsed");
    }
}

#[test]
fn a_hostile_replay_budget_is_an_error_or_bounded() {
    // pinned to generation 1, the capture makes `replay` re-run the
    // recorded fleet: a budget in the bundle must not keep it running
    let g1 = V3.replace("\"generation\":0", "\"generation\":1");
    // a calibration pass of ~2^64 windows never ends
    let from = "\"calibration_samples\":200,";
    assert!(g1.contains(from), "fixture lacks {from}");
    let text = g1.replace(from, "\"calibration_samples\":18446744073709551000,");
    let err = IncidentBundle::parse(&text).expect_err("a ~2^64-window calibration parsed");
    assert!(err.to_string().contains("MAX_CALIBRATION"), "{err}");
    // a billion-sample budget is a valid stream, but the re-run stops
    // once generation 1 has served a window: sample 1 × 200 of each
    // shard is its first
    let from = "\"samples\":600,";
    assert!(g1.contains(from), "fixture lacks {from}");
    let huge = IncidentBundle::parse(&g1.replace(from, "\"samples\":1000000000,"))
        .expect("a billion-sample budget parses");
    assert_eq!(huge.config.samples_to_serve_generation(1), Some(201));
    // 600 samples at retrain_every 200 publish generations 1 and 2
    // (there is no boundary at the final sample); no bundle can pin a
    // later one, or any past 0 without retraining
    let cfg = IncidentBundle::parse(&g1).expect("the fixture parses").config;
    let served: Vec<_> = (0..4).map(|g| cfg.samples_to_serve_generation(g)).collect();
    assert_eq!(served, [Some(1), Some(201), Some(401), None]);
    assert_eq!(cfg.samples_to_serve_generation(u64::MAX), None);
    let mut no_retraining = cfg;
    no_retraining.retrain_every = 0;
    assert_eq!(no_retraining.samples_to_serve_generation(1), None);
}

#[test]
fn deep_nesting_is_an_error() {
    // the parser recurses per level: without a depth cap this
    // overflows the stack instead of returning
    let deep = "[".repeat(200_000);
    assert!(parse_no_panic(&deep, "200,000 nested arrays").is_none());
}

/// Byte length of the v3 fixture, the mutation position range.
const V3_LEN: usize = V3.len();

prop_tests! {
    cases = 512;

    /// One byte of the capture replaced by any ASCII byte: `parse`
    /// returns, and whatever it accepts survives a round trip.
    fn single_byte_mutations_never_panic(pos in 0..V3_LEN, byte in 0u8..128) {
        let mut bytes = V3.as_bytes().to_vec();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        if let Some(b) = parse_no_panic(&text, &format!("byte {byte} at {pos}")) {
            let again = b.to_json().to_string();
            let back = IncidentBundle::parse(&again);
            prop_assert!(back.is_ok(), "accepted bundle does not re-parse: {back:?}");
            let back = back.unwrap();
            prop_assert_eq!(back.to_json().to_string(), again);
            prop_assert_eq!(back.windows, b.windows);
        }
    }
}
