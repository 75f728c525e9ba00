//! Benchmarks for the substrate layers: simulator window throughput
//! (one machine window, and the serving traffic stream),
//! SHA-256 hashing, tensor/NN primitives, and the parallel substrate
//! (`hmd_util::par`) before/after pairs — naive vs blocked matmul, and
//! 1-thread vs all-thread forest fitting, corpus generation, and batch
//! prediction — and the routed GBDT's batch and one-row predict
//! paths. The binary runs under a counting global allocator so it
//! can also report `serve/steady_state_allocs_per_window` — the
//! allocation-freedom pin for the arena-backed serving hot path. Emits
//! `BENCH_substrates.json`.

use std::hint::black_box;

use hmd_integrity::Sha256;
use hmd_util::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();
use hmd_ml::{Classifier, RandomForest, RandomForestConfig};
use hmd_nn::{Dense, Loss, Optimizer, Relu, Sequential, Tensor};
use hmd_sim::corpus::{build_corpus, CorpusConfig};
use hmd_sim::machine::{Machine, MachineConfig, RunningWorkload};
use hmd_sim::stream::{StreamConfig, WindowStream};
use hmd_sim::workload::{WorkloadClass, WorkloadProfile};
use hmd_tabular::{Class, Dataset};
use hmd_util::bench::{Harness, Throughput};
use hmd_util::par;
use hmd_util::rng::prelude::*;

fn bench_simulator(h: &mut Harness) {
    let config = MachineConfig { slice_instructions: 20_000, ..MachineConfig::default() };
    let mut machine = Machine::new(config);
    let mut workload =
        RunningWorkload::new(WorkloadProfile::canonical(WorkloadClass::Ransomware), 1);
    h.bench_with_throughput(
        "simulator/run_window_20k_instructions",
        Throughput::Elements(config.slice_instructions),
        || black_box(machine.run_window(&mut workload, 10.0)),
    );

    // The live serving traffic generator: the window stream a serving
    // session draws from, in `ServingConfig::quick`'s shape
    // (2,000-instruction slices, one warm-up and three recorded windows
    // per application, a machine flush per application). Each iteration
    // starts the stream afresh and draws the same 32 applications'
    // windows, so every iteration (and every commit) times the same
    // traffic mix.
    let serving = hmd::ServingConfig::quick(41);
    let corpus = &serving.framework.corpus;
    let stream = StreamConfig {
        malware_fraction: serving.malware_fraction,
        windows_per_app: corpus.windows_per_app,
        warmup_windows: corpus.warmup_windows,
        machine: corpus.machine,
        perf: corpus.perf.clone(),
        isolation: corpus.isolation,
        seed: serving.stream_seed,
    };
    let windows = 32 * corpus.windows_per_app;
    h.bench_with_throughput(
        "simulator/window_stream_serving",
        Throughput::Elements(windows as u64),
        || black_box(WindowStream::new(stream.clone()).take(windows).count()),
    );
}

fn bench_sha256(h: &mut Harness) {
    for size in [1_024usize, 65_536] {
        let data = vec![0xABu8; size];
        h.bench_with_throughput(
            &format!("sha256/hash_{size}B"),
            Throughput::Bytes(size as u64),
            || {
                let mut hasher = Sha256::new();
                hasher.update(black_box(&data));
                black_box(hasher.finalize())
            },
        );
    }
}

fn bench_nn(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = Sequential::new()
        .with(Dense::he(4, 32, &mut rng))
        .with(Relu::new())
        .with(Dense::he(32, 16, &mut rng))
        .with(Relu::new())
        .with(Dense::xavier(16, 1, &mut rng));
    let x = Tensor::from_fn(32, 4, |_, _| rng.random_range(-1.0..1.0));
    let y = Tensor::from_fn(32, 1, |r, _| f64::from(r % 2 == 0));
    h.bench("nn/mlp_infer_batch32", || black_box(net.infer(black_box(&x))));
    let mut opt = Optimizer::adam(1e-3);
    h.bench("nn/mlp_train_batch32", || {
        black_box(net.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt));
    });
}

fn bench_matmul(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(11);
    for size in [64usize, 128, 256] {
        let a = Tensor::from_fn(size, size, |_, _| rng.random_range(-1.0..1.0));
        let b = Tensor::from_fn(size, size, |_, _| rng.random_range(-1.0..1.0));
        let macs = (size * size * size) as u64;
        h.bench_with_throughput(
            &format!("tensor/matmul_naive_{size}x{size}"),
            Throughput::Elements(macs),
            || black_box(black_box(&a).matmul_naive(black_box(&b))),
        );
        h.bench_with_throughput(
            &format!("tensor/matmul_blocked_{size}x{size}"),
            Throughput::Elements(macs),
            || black_box(black_box(&a).matmul(black_box(&b))),
        );
    }
}

/// Synthetic two-blob training data sized for the model benches.
fn blobs(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into(), "d".into()]).unwrap();
    for _ in 0..n {
        let benign: Vec<f64> = (0..4).map(|_| rng.random_range(-1.0..0.5)).collect();
        let attack: Vec<f64> = (0..4).map(|_| rng.random_range(0.0..1.5)).collect();
        d.push(&benign, Class::Benign).unwrap();
        d.push(&attack, Class::Malware).unwrap();
    }
    let t = d.binary_targets(Class::is_attack);
    (d, t)
}

/// Runs `f` once with the thread override pinned to 1, once unpinned
/// (all threads), recording `<id>_1thread` / `<id>_allthreads`. The
/// pair is the speedup table in `BENCH_substrates.json`: on a
/// multi-core host the second entry's median should be ≥2× smaller.
fn bench_thread_pair<T>(h: &mut Harness, id: &str, mut f: impl FnMut() -> T) {
    par::set_thread_override(Some(1));
    h.bench(&format!("{id}_1thread"), &mut f);
    par::set_thread_override(None);
    h.bench(&format!("{id}_allthreads"), &mut f);
}

fn bench_parallel_models(h: &mut Harness) {
    let (train, targets) = blobs(150, 21);
    let forest_config = RandomForestConfig { n_trees: 16, ..RandomForestConfig::default() };
    bench_thread_pair(h, "par/forest_fit_16trees", || {
        let mut forest = RandomForest::with_config(forest_config);
        forest.fit(black_box(&train), black_box(&targets)).unwrap();
        black_box(forest)
    });

    let (test, _) = blobs(256, 22);
    let mut forest = RandomForest::with_config(forest_config);
    forest.fit(&train, &targets).unwrap();
    bench_thread_pair(h, "par/forest_batch_predict_512rows", || {
        black_box(forest.predict_proba(black_box(&test)).unwrap())
    });
}

fn bench_telemetry(h: &mut Harness) {
    use hmd_telemetry as tel;
    // Disabled vs enabled pairs quantify the observer cost: disabled
    // must be near-free (one relaxed atomic load), enabled must stay
    // cheap enough for hot loops.
    tel::set_enabled_override(Some(false));
    let c = tel::metrics::counter("bench.telemetry.counter");
    h.bench("telemetry/counter_add_disabled", || black_box(c).add(1));
    h.bench("telemetry/span_disabled", || black_box(tel::span("bench.telemetry.span")));
    tel::set_enabled_override(Some(true));
    h.bench("telemetry/counter_add_enabled", || black_box(c).add(1));
    h.bench("telemetry/span_enabled", || black_box(tel::span("bench.telemetry.span")));
    tel::set_enabled_override(None);
    // the enabled span bench accumulated records — drop them
    tel::reset();
}

fn bench_obs(h: &mut Harness) {
    use hmd_obs::{SampleRecord, ServingMonitor, WindowConfig, WindowedCounter, WindowedHistogram};
    // Per-sample monitoring cost: serving records every classified
    // window, so these are hot-path numbers like the telemetry pair.
    let cfg = WindowConfig::new(8, 250_000_000);
    let counter = WindowedCounter::new(cfg);
    let histogram = WindowedHistogram::new(cfg);
    let monitor = ServingMonitor::new(cfg);
    let mut t = 0u64;
    h.bench("obs/windowed_counter_record", || {
        t = t.wrapping_add(10_000_000);
        counter.record_at(black_box(t), 1);
    });
    h.bench("obs/windowed_histogram_record", || {
        t = t.wrapping_add(10_000_000);
        histogram.record_at(black_box(t), black_box(12_345));
    });
    let record = SampleRecord {
        truth_attack: true,
        verdict_attack: true,
        flagged_adversarial: false,
        latency_ns: 12_345,
        model_latency_ns: 11_000,
        sample: 0,
        generation: 0,
    };
    h.bench("obs/serving_monitor_record_sample", || {
        t = t.wrapping_add(10_000_000);
        monitor.record_at(black_box(t), black_box(record));
    });
    h.bench("obs/serving_monitor_snapshot", || black_box(monitor.snapshot_at(black_box(t))));
}

fn bench_serving(h: &mut Harness) {
    use hmd::{ServingConfig, ServingSession};
    // Training happens once; the measured session is assembled around
    // the trained artifacts. Serving throughput and latency are
    // measured end to end by hmdbench, not here.
    let mut cfg = ServingConfig::quick(41);
    cfg.samples = 256;
    cfg.batch = 32;
    let trainer = ServingSession::start(cfg.clone()).expect("training succeeds");
    let artifacts = trainer.artifacts_handle();
    // calibrated once above; reuse the derived SLO thresholds the same
    // way fleet shards inherit shard 0's (stock thresholds chatter
    // against this seed's traffic, and alert edges allocate)
    cfg.rules = trainer.slo_rules().to_vec();
    cfg.calibration_samples = 0;
    drop(trainer);

    // Steady-state allocation count: replay-ring traffic through the
    // arena path, measured across the back half of the budget once the
    // windows, alert engine and quarantine reservation have settled.
    // The record is a count, not a duration; the bench_check baseline
    // gate keeps it pinned at zero.
    let mut alloc_cfg = cfg.clone();
    alloc_cfg.samples = 900;
    alloc_cfg.replay = 256;
    alloc_cfg.burst = None;
    alloc_cfg.batch = 8;
    par::set_thread_override(Some(1));
    let mut session = ServingSession::with_artifacts(alloc_cfg, artifacts.clone())
        .expect("assemble replay session");
    let warmup = 500;
    while session.outcome().processed < warmup {
        session.step_batch().expect("warmup step");
    }
    let measured_from = session.outcome().processed;
    let before = ALLOC.allocations();
    while session.step_batch().expect("steady-state step") > 0 {}
    let delta = ALLOC.allocations() - before;
    par::set_thread_override(None);
    #[allow(clippy::cast_precision_loss)]
    {
        let windows = (session.outcome().processed - measured_from) as f64;
        h.record_value("serve/steady_state_allocs_per_window", delta as f64 / windows);
    }
}

fn bench_gbdt(h: &mut Harness) {
    // The routed model itself: the histogram GBDT of the zoo that
    // `ServingConfig::quick(41)` deploys (hmdbench serves the same
    // one), scoring rows of the merged training database it was fitted
    // on, in the served feature space. Successive iterations take
    // successive rows, cycling: a few rows scored over and over would
    // let the branch predictor learn every path through every tree,
    // which no serving stream allows.
    let trainer = hmd::ServingSession::start(hmd::ServingConfig::quick(41)).expect("train");
    let artifacts = trainer.artifacts_handle();
    drop(trainer);
    let model = artifacts
        .detector
        .models()
        .iter()
        .find(|m| m.name() == "LightGBM")
        .expect("the zoo holds the GBDT");
    let rows = &artifacts.training;
    let width = rows.n_features();
    let flat: Vec<f64> = (0..rows.len()).flat_map(|i| rows.row(i).unwrap().to_vec()).collect();
    let mut scratch = model.make_scratch(32);
    let mut out = Vec::with_capacity(32);
    let mut batches = flat.chunks_exact(32 * width).cycle();
    h.bench_with_throughput("ml/gbdt_predict_batch32", Throughput::Elements(32), || {
        let batch = batches.next().unwrap();
        model.predict_proba_into(black_box(batch), width, &mut scratch, &mut out).unwrap();
        black_box(out[0])
    });
    let mut rows = flat.chunks_exact(width).cycle();
    h.bench("ml/gbdt_predict_row", || {
        black_box(model.predict_proba_row(black_box(rows.next().unwrap())).unwrap())
    });
}

fn bench_corpus(h: &mut Harness) {
    // `CorpusConfig::threads` feeds the substrate directly, so the
    // 1-vs-all pair comes from the config rather than the override.
    let mut config = CorpusConfig::quick(31);
    config.threads = 1;
    h.bench("par/corpus_gen_48apps_1thread", || black_box(build_corpus(black_box(&config))));
    config.threads = 0;
    h.bench("par/corpus_gen_48apps_allthreads", || {
        black_box(build_corpus(black_box(&config)))
    });
}

fn main() {
    let mut h = Harness::new("substrates").sample_size(20);
    bench_simulator(&mut h);
    bench_sha256(&mut h);
    bench_nn(&mut h);
    bench_matmul(&mut h);
    bench_parallel_models(&mut h);
    bench_telemetry(&mut h);
    bench_obs(&mut h);
    bench_serving(&mut h);
    // after bench_serving, whose training pass already runs before
    // bench_corpus: the GBDT's own training pass moves no other
    // record's starting heap
    bench_gbdt(&mut h);
    bench_corpus(&mut h);
    h.finish();
}
