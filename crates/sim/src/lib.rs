//! Synthetic processor and HPC-sampling substrate.
//!
//! The paper profiles 3,000+ real benign and malware applications with
//! Linux `perf` on an 11th-gen Intel i7, sampling 30+ hardware events
//! every 10 ms inside LXC containers. None of that hardware or data is
//! available here, so this crate rebuilds the *generating process*:
//!
//! * [`cache`] — set-associative L1D/L1I/L2/LLC caches (true LRU) and
//!   fully-associative TLBs;
//! * [`branch`] — a gshare branch predictor with 2-bit counters;
//! * [`workload`] — phase-based behavioural models of 8 benign classes
//!   and 8 malware families (ransomware scan/encrypt, rootkit hooking,
//!   botnet beaconing, …) with per-instance log-normal jitter;
//! * [`machine`] — the simulated core: drives a workload's address and
//!   branch streams through the models and derives a cycle count;
//! * [`events`] / [`perf`] — a 35-event PMU vocabulary and a `perf`-style
//!   sampler with 4-slot counter multiplexing and scaling error;
//! * [`container`] — LXC-style isolation vs. VM-emulated counters;
//! * [`corpus`] — parallel corpus campaigns producing labeled
//!   [`hmd_tabular::Dataset`]s;
//! * [`dist`] — normal / log-normal / Poisson / exponential samplers
//!   (`rand_distr` is not a sanctioned dependency).
//!
//! Counter correlations (LLC-loads vs. LLC-load-misses, instructions vs.
//! cycles, …) arise from the micro-architecture model itself rather than
//! from independently sampled noise — the property the paper's attacks
//! and defenses actually exercise.
//!
//! # Example
//!
//! ```
//! use hmd_sim::corpus::{build_corpus, CorpusConfig};
//!
//! let corpus = build_corpus(&CorpusConfig::quick(42));
//! assert!(corpus.dataset.len() > 0);
//! assert_eq!(corpus.dataset.n_features(), 35);
//! ```

pub mod branch;
pub mod cache;
pub mod container;
pub mod corpus;
pub mod dist;
pub mod events;
pub mod machine;
pub mod perf;
pub mod stream;
pub mod workload;

pub use container::{Container, IsolationMode};
pub use corpus::{build_corpus, Corpus, CorpusConfig};
pub use events::{CounterSet, HpcEvent};
pub use machine::{Machine, MachineConfig, RunningWorkload};
pub use perf::{PerfConfig, PerfSampler, Sample};
pub use stream::{StreamConfig, StreamedWindow, WindowStream};
pub use workload::{WorkloadClass, WorkloadProfile};
