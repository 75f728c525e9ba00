//! Known-answer tests for the window generator.
//!
//! Each test folds the f64 bits and workload class of a fixed window
//! sequence into one FNV-1a digest and pins it. The digests freeze the
//! generator's output bit for bit, so any change to the caches, TLBs,
//! branch predictor, PRNG draws or cycle model that moves a single
//! counter value fails here before it reaches a serving digest.

use hmd_sim::{
    build_corpus, CorpusConfig, IsolationMode, MachineConfig, PerfConfig, StreamConfig,
    WindowStream, WorkloadClass,
};

/// FNV-1a over little-endian byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn row(&mut self, values: &[f64], class: WorkloadClass) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self.bytes(class.name().as_bytes());
    }
}

/// The serving traffic shape: 2,000-instruction slices, three recorded
/// windows after one warm-up window per application, a full machine
/// flush per application.
fn serving_stream(seed: u64) -> StreamConfig {
    StreamConfig {
        malware_fraction: 0.3,
        windows_per_app: 3,
        warmup_windows: 1,
        machine: MachineConfig { slice_instructions: 2_000, ..MachineConfig::default() },
        perf: PerfConfig::default(),
        isolation: IsolationMode::LxcDirect,
        seed,
    }
}

fn stream_digest(cfg: StreamConfig, windows: usize) -> u64 {
    let mut h = Fnv::new();
    for w in WindowStream::new(cfg).take(windows) {
        h.row(&w.values, w.class);
    }
    h.0
}

#[test]
fn serving_stream_windows_are_pinned() {
    assert_eq!(stream_digest(serving_stream(7), 2_000), 0xB007_A823_FD55_4C82);
}

#[test]
fn prefetching_stream_windows_are_pinned() {
    let mut cfg = serving_stream(7);
    cfg.machine.next_line_prefetch = true;
    assert_eq!(stream_digest(cfg, 2_000), 0x53FB_9D36_002E_E7E2);
}

#[test]
fn shared_machine_stream_windows_are_pinned() {
    let mut cfg = serving_stream(7);
    cfg.isolation = IsolationMode::SharedMachine { neighbour: WorkloadClass::Database };
    assert_eq!(stream_digest(cfg, 2_000), 0xB88A_85C0_7AC7_EC7A);
}

#[test]
fn quick_corpus_rows_are_pinned() {
    let corpus = build_corpus(&CorpusConfig::quick(1));
    let mut h = Fnv::new();
    for (i, &class) in corpus.row_classes.iter().enumerate() {
        h.row(corpus.dataset.row(i).expect("row index in range"), class);
    }
    assert_eq!(h.0, 0x74D9_A10D_3BAE_F81D);
}
