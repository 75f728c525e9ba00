//! The hardware-event vocabulary exposed by the simulated PMU.
//!
//! The paper collects "+30 events" with Linux `perf`; this enum reproduces
//! that vocabulary with perf's canonical event names, including the
//! dynamic-PMU alias `cpu/cache-misses/` that appears among the paper's
//! top-4 MI-selected features.

use std::fmt;
use std::str::FromStr;


/// One hardware performance event the simulated PMU can count.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum HpcEvent {
    /// Retired instructions.
    Instructions,
    /// Core clock cycles.
    Cycles,
    /// Reference (constant-rate) cycles.
    RefCycles,
    /// Bus cycles.
    BusCycles,
    /// Cycles the frontend was stalled.
    StalledCyclesFrontend,
    /// Cycles the backend was stalled.
    StalledCyclesBackend,
    /// Last-level cache accesses (perf's `cache-references`).
    CacheReferences,
    /// Last-level cache misses (perf's `cache-misses`).
    CacheMisses,
    /// `cpu/cache-misses/` — the dynamic-PMU spelling of
    /// [`HpcEvent::CacheMisses`]; counted in a different multiplexing
    /// group, so its scaled value differs slightly.
    CpuCacheMisses,
    /// LLC load accesses.
    LlcLoads,
    /// LLC load misses.
    LlcLoadMisses,
    /// LLC store accesses.
    LlcStores,
    /// LLC store misses.
    LlcStoreMisses,
    /// L1 data-cache loads.
    L1DcacheLoads,
    /// L1 data-cache load misses.
    L1DcacheLoadMisses,
    /// L1 data-cache stores.
    L1DcacheStores,
    /// L1 instruction-cache load misses.
    L1IcacheLoadMisses,
    /// Data-TLB lookups.
    DtlbLoads,
    /// Data-TLB misses.
    DtlbLoadMisses,
    /// Instruction-TLB lookups.
    ItlbLoads,
    /// Instruction-TLB misses.
    ItlbLoadMisses,
    /// Retired branch instructions.
    BranchInstructions,
    /// Mispredicted branches.
    BranchMisses,
    /// Branch-unit loads (BPU reads).
    BranchLoads,
    /// Branch-unit load misses.
    BranchLoadMisses,
    /// Memory load micro-ops.
    MemLoads,
    /// Memory store micro-ops.
    MemStores,
    /// Local-node memory loads.
    NodeLoads,
    /// Local-node memory load misses.
    NodeLoadMisses,
    /// Scheduler context switches (software event).
    ContextSwitches,
    /// CPU migrations (software event).
    CpuMigrations,
    /// Total page faults (software event).
    PageFaults,
    /// Minor page faults (software event).
    MinorFaults,
    /// Major page faults (software event).
    MajorFaults,
    /// Task clock in nanoseconds (software event).
    TaskClock,
}

/// Error returned when parsing an unknown event name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError(String);

impl fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown hardware event name: {}", self.0)
    }
}

impl std::error::Error for ParseEventError {}

impl HpcEvent {
    /// Every event, in stable order. `ALL.len()` is the PMU vocabulary
    /// size (35 events, i.e. the paper's "+30").
    pub const ALL: [HpcEvent; 35] = [
        HpcEvent::Instructions,
        HpcEvent::Cycles,
        HpcEvent::RefCycles,
        HpcEvent::BusCycles,
        HpcEvent::StalledCyclesFrontend,
        HpcEvent::StalledCyclesBackend,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
        HpcEvent::CpuCacheMisses,
        HpcEvent::LlcLoads,
        HpcEvent::LlcLoadMisses,
        HpcEvent::LlcStores,
        HpcEvent::LlcStoreMisses,
        HpcEvent::L1DcacheLoads,
        HpcEvent::L1DcacheLoadMisses,
        HpcEvent::L1DcacheStores,
        HpcEvent::L1IcacheLoadMisses,
        HpcEvent::DtlbLoads,
        HpcEvent::DtlbLoadMisses,
        HpcEvent::ItlbLoads,
        HpcEvent::ItlbLoadMisses,
        HpcEvent::BranchInstructions,
        HpcEvent::BranchMisses,
        HpcEvent::BranchLoads,
        HpcEvent::BranchLoadMisses,
        HpcEvent::MemLoads,
        HpcEvent::MemStores,
        HpcEvent::NodeLoads,
        HpcEvent::NodeLoadMisses,
        HpcEvent::ContextSwitches,
        HpcEvent::CpuMigrations,
        HpcEvent::PageFaults,
        HpcEvent::MinorFaults,
        HpcEvent::MajorFaults,
        HpcEvent::TaskClock,
    ];

    /// The canonical `perf list` spelling of this event.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HpcEvent::Instructions => "instructions",
            HpcEvent::Cycles => "cycles",
            HpcEvent::RefCycles => "ref-cycles",
            HpcEvent::BusCycles => "bus-cycles",
            HpcEvent::StalledCyclesFrontend => "stalled-cycles-frontend",
            HpcEvent::StalledCyclesBackend => "stalled-cycles-backend",
            HpcEvent::CacheReferences => "cache-references",
            HpcEvent::CacheMisses => "cache-misses",
            HpcEvent::CpuCacheMisses => "cpu/cache-misses/",
            HpcEvent::LlcLoads => "LLC-loads",
            HpcEvent::LlcLoadMisses => "LLC-load-misses",
            HpcEvent::LlcStores => "LLC-stores",
            HpcEvent::LlcStoreMisses => "LLC-store-misses",
            HpcEvent::L1DcacheLoads => "L1-dcache-loads",
            HpcEvent::L1DcacheLoadMisses => "L1-dcache-load-misses",
            HpcEvent::L1DcacheStores => "L1-dcache-stores",
            HpcEvent::L1IcacheLoadMisses => "L1-icache-load-misses",
            HpcEvent::DtlbLoads => "dTLB-loads",
            HpcEvent::DtlbLoadMisses => "dTLB-load-misses",
            HpcEvent::ItlbLoads => "iTLB-loads",
            HpcEvent::ItlbLoadMisses => "iTLB-load-misses",
            HpcEvent::BranchInstructions => "branch-instructions",
            HpcEvent::BranchMisses => "branch-misses",
            HpcEvent::BranchLoads => "branch-loads",
            HpcEvent::BranchLoadMisses => "branch-load-misses",
            HpcEvent::MemLoads => "mem-loads",
            HpcEvent::MemStores => "mem-stores",
            HpcEvent::NodeLoads => "node-loads",
            HpcEvent::NodeLoadMisses => "node-load-misses",
            HpcEvent::ContextSwitches => "context-switches",
            HpcEvent::CpuMigrations => "cpu-migrations",
            HpcEvent::PageFaults => "page-faults",
            HpcEvent::MinorFaults => "minor-faults",
            HpcEvent::MajorFaults => "major-faults",
            HpcEvent::TaskClock => "task-clock",
        }
    }

    /// Stable dense index of this event within [`HpcEvent::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        HpcEvent::ALL.iter().position(|&e| e == self).expect("event listed in ALL")
    }

    /// Whether this is a perf "software" event (counted by the kernel, not
    /// a PMU counter slot — never multiplexed).
    #[must_use]
    pub fn is_software(self) -> bool {
        matches!(
            self,
            HpcEvent::ContextSwitches
                | HpcEvent::CpuMigrations
                | HpcEvent::PageFaults
                | HpcEvent::MinorFaults
                | HpcEvent::MajorFaults
                | HpcEvent::TaskClock
        )
    }
}

impl fmt::Display for HpcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for HpcEvent {
    type Err = ParseEventError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HpcEvent::ALL
            .iter()
            .copied()
            .find(|e| e.name() == s)
            .ok_or_else(|| ParseEventError(s.to_owned()))
    }
}

/// A counter value for every event in [`HpcEvent::ALL`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    counts: Vec<u64>,
}

impl CounterSet {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self { counts: vec![0; HpcEvent::ALL.len()] }
    }

    /// Reads one counter.
    #[must_use]
    pub fn get(&self, event: HpcEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Adds to one counter (saturating).
    pub fn add(&mut self, event: HpcEvent, delta: u64) {
        let c = &mut self.counts[event.index()];
        *c = c.saturating_add(delta);
    }

    /// Sets one counter.
    pub fn set(&mut self, event: HpcEvent, value: u64) {
        self.counts[event.index()] = value;
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        self.counts.fill(0);
    }

    /// Accumulates another counter set into this one.
    pub fn accumulate(&mut self, other: &CounterSet) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_unique_names_and_indices() {
        let mut names: Vec<&str> = HpcEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HpcEvent::ALL.len());
        for (i, e) in HpcEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn vocabulary_is_thirty_plus() {
        assert!(HpcEvent::ALL.len() > 30, "paper collects 30+ events");
    }

    #[test]
    fn parse_roundtrip() {
        for e in HpcEvent::ALL {
            assert_eq!(e.name().parse::<HpcEvent>().unwrap(), e);
        }
        assert!("bogus-event".parse::<HpcEvent>().is_err());
    }

    #[test]
    fn software_event_classification() {
        assert!(HpcEvent::ContextSwitches.is_software());
        assert!(HpcEvent::TaskClock.is_software());
        assert!(!HpcEvent::LlcLoadMisses.is_software());
    }

    #[test]
    fn counter_set_basic_ops() {
        let mut c = CounterSet::new();
        c.add(HpcEvent::Cycles, 100);
        c.add(HpcEvent::Cycles, 50);
        assert_eq!(c.get(HpcEvent::Cycles), 150);
        assert_eq!(c.get(HpcEvent::Instructions), 0);
        c.set(HpcEvent::Instructions, 42);
        assert_eq!(c.get(HpcEvent::Instructions), 42);
        c.reset();
        assert_eq!(c.get(HpcEvent::Cycles), 0);
    }

    #[test]
    fn counter_accumulate_adds_elementwise() {
        let mut a = CounterSet::new();
        a.add(HpcEvent::LlcLoads, 10);
        let mut d = CounterSet::new();
        d.add(HpcEvent::LlcLoads, 5);
        d.add(HpcEvent::LlcLoadMisses, 2);
        a.accumulate(&d);
        assert_eq!(a.get(HpcEvent::LlcLoads), 15);
        assert_eq!(a.get(HpcEvent::LlcLoadMisses), 2);
    }

    #[test]
    fn counter_add_saturates() {
        let mut c = CounterSet::new();
        c.set(HpcEvent::Cycles, u64::MAX - 1);
        c.add(HpcEvent::Cycles, 10);
        assert_eq!(c.get(HpcEvent::Cycles), u64::MAX);
    }
}
