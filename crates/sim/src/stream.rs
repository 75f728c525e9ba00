//! An endless, seeded stream of labeled HPC windows — the traffic
//! source for the long-running serving mode.
//!
//! [`build_corpus`](crate::corpus::build_corpus) runs a fixed campaign
//! and returns a batch dataset; a serving process instead wants windows
//! one at a time, forever. [`WindowStream`] provides that: it keeps one
//! container, repeatedly samples an application class (benign or
//! malware, governed by `malware_fraction`), runs the instance, and
//! yields its recorded windows in order. Everything derives from the
//! seed, so two streams with the same config emit byte-identical window
//! sequences — the serving determinism test depends on this.

use std::collections::VecDeque;

use hmd_util::rng::prelude::*;

use crate::container::{Container, IsolationMode};
use crate::machine::MachineConfig;
use crate::perf::PerfConfig;
use crate::workload::{WorkloadClass, WorkloadProfile};

/// Configuration of a serving traffic stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamConfig {
    /// Probability that the next application instance is malware.
    pub malware_fraction: f64,
    /// Recorded sampling windows per application instance.
    pub windows_per_app: usize,
    /// Unrecorded warm-up windows per application instance.
    pub warmup_windows: usize,
    /// Simulated core configuration.
    pub machine: MachineConfig,
    /// Perf sampler configuration.
    pub perf: PerfConfig,
    /// Container isolation mode.
    pub isolation: IsolationMode,
    /// Master seed; the whole stream replays from it.
    pub seed: u64,
}

impl StreamConfig {
    /// A small, fast configuration for tests and the serving demo.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            malware_fraction: 0.3,
            windows_per_app: 2,
            warmup_windows: 0,
            machine: MachineConfig { slice_instructions: 2_000, ..MachineConfig::default() },
            perf: PerfConfig::default(),
            isolation: IsolationMode::LxcDirect,
            seed,
        }
    }
}

/// One window drawn from the stream: the HPC vector plus its ground
/// truth.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamedWindow {
    /// One value per perf event, in `PerfConfig` event order.
    pub values: Vec<f64>,
    /// The workload class that produced the window.
    pub class: WorkloadClass,
}

impl StreamedWindow {
    /// Ground truth: the window came from a malware family.
    #[must_use]
    pub fn is_malware(&self) -> bool {
        self.class.is_malware()
    }
}

/// The endless window source. Implements [`Iterator`] and never returns
/// `None`.
#[derive(Debug)]
pub struct WindowStream {
    cfg: StreamConfig,
    container: Container,
    rng: StdRng,
    buffered: VecDeque<StreamedWindow>,
}

impl WindowStream {
    /// A stream over `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `malware_fraction` is outside `[0, 1]`,
    /// `windows_per_app` is zero, or the machine/perf configuration is
    /// invalid.
    #[must_use]
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.malware_fraction),
            "malware_fraction must be in [0, 1]"
        );
        assert!(cfg.windows_per_app > 0, "need at least one window per app");
        let container =
            Container::new(cfg.machine, cfg.perf.clone(), cfg.isolation, cfg.seed ^ 0x5EED);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self { cfg, container, rng, buffered: VecDeque::new() }
    }

    /// The stream's event names, in row order.
    #[must_use]
    pub fn feature_names(&self) -> Vec<String> {
        self.cfg.perf.events.iter().map(|e| e.name().to_owned()).collect()
    }

    /// Runs one more application instance and buffers its windows.
    fn refill(&mut self) {
        let malware = self.rng.random::<f64>() < self.cfg.malware_fraction;
        let classes: &[WorkloadClass] =
            if malware { &WorkloadClass::MALWARE } else { &WorkloadClass::BENIGN };
        let class = *classes.choose(&mut self.rng).expect("class lists are non-empty");
        let instance_seed: u64 = self.rng.random();
        let mut instance_rng = StdRng::seed_from_u64(instance_seed);
        let profile = WorkloadProfile::sample_instance(class, &mut instance_rng);
        for sample in
            self.container.run_app(&profile, self.cfg.warmup_windows, self.cfg.windows_per_app)
        {
            self.buffered.push_back(StreamedWindow { values: sample.values, class });
        }
    }
}

impl Iterator for WindowStream {
    type Item = StreamedWindow;

    fn next(&mut self) -> Option<StreamedWindow> {
        while self.buffered.is_empty() {
            self.refill();
        }
        self.buffered.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::HpcEvent;

    #[test]
    fn stream_is_endless_and_deterministic() {
        let a: Vec<StreamedWindow> = WindowStream::new(StreamConfig::quick(9)).take(40).collect();
        let b: Vec<StreamedWindow> = WindowStream::new(StreamConfig::quick(9)).take(40).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert!(a.iter().all(|w| w.values.len() == HpcEvent::ALL.len()));
    }

    #[test]
    fn different_seeds_yield_different_traffic() {
        let a: Vec<StreamedWindow> = WindowStream::new(StreamConfig::quick(1)).take(20).collect();
        let b: Vec<StreamedWindow> = WindowStream::new(StreamConfig::quick(2)).take(20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn malware_fraction_extremes_control_the_mix() {
        let mut all_benign = StreamConfig::quick(5);
        all_benign.malware_fraction = 0.0;
        assert!(WindowStream::new(all_benign).take(30).all(|w| !w.is_malware()));

        let mut all_malware = StreamConfig::quick(5);
        all_malware.malware_fraction = 1.0;
        assert!(WindowStream::new(all_malware).take(30).all(|w| w.is_malware()));
    }

    #[test]
    #[should_panic(expected = "malware_fraction")]
    fn rejects_bad_fraction() {
        let mut cfg = StreamConfig::quick(0);
        cfg.malware_fraction = 1.5;
        let _ = WindowStream::new(cfg);
    }
}
