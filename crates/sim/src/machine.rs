//! The simulated core: caches + branch predictor + TLBs + cycle model.

use hmd_util::rng::prelude::*;
use hmd_util::rng::{Distribution, UniformBelow};

use crate::branch::Gshare;
use crate::cache::{Cache, CacheConfig, Tlb};
use crate::dist::Poisson;
use crate::events::{CounterSet, HpcEvent};
use crate::workload::{Phase, WorkloadProfile};

/// Static configuration of the simulated core.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Core frequency in GHz (defines cycles per wall-clock window).
    pub freq_ghz: f64,
    /// Reference-clock ratio (ref-cycles = cycles × ratio).
    pub ref_clock_ratio: f64,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified private L2 geometry.
    pub l2: CacheConfig,
    /// Shared last-level cache geometry.
    pub llc: CacheConfig,
    /// Data-TLB entries.
    pub dtlb_entries: usize,
    /// Instruction-TLB entries.
    pub itlb_entries: usize,
    /// gshare history bits.
    pub branch_history_bits: u32,
    /// Scaled-down-simulation factor: workload data/code footprints are
    /// divided by this (the default cache geometry is shrunk by the same
    /// factor), so that reuse and eviction dynamics appear within the
    /// short simulated slice. 1 = full-size simulation.
    pub footprint_scale: u64,
    /// Enable the next-line hardware prefetcher: on a demand L1D miss the
    /// following cache line is pulled into L2/LLC in the background
    /// (filling them without counting as a demand miss or paying a stall).
    pub next_line_prefetch: bool,
    /// Number of instructions actually simulated per sampling window; the
    /// resulting rates are scaled up to fill the whole window (counter
    /// values scale linearly with time).
    pub slice_instructions: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            freq_ghz: 3.5,
            ref_clock_ratio: 0.771,
            l1d: CacheConfig::l1d().scaled(16),
            l1i: CacheConfig::l1i().scaled(16),
            l2: CacheConfig::l2().scaled(16),
            llc: CacheConfig::llc().scaled(16),
            dtlb_entries: 16,
            itlb_entries: 8,
            branch_history_bits: 12,
            footprint_scale: 16,
            next_line_prefetch: false,
            slice_instructions: 20_000,
        }
    }
}

/// Stall penalties in cycles, i7-class defaults.
#[derive(Copy, Clone, Debug, PartialEq)]
struct Penalties {
    l2_hit: f64,
    llc_hit: f64,
    dram: f64,
    branch_miss: f64,
    dtlb_miss: f64,
    itlb_miss: f64,
    icache_miss: f64,
}

const PENALTIES: Penalties = Penalties {
    l2_hit: 10.0,
    llc_hit: 35.0,
    dram: 180.0,
    branch_miss: 16.0,
    dtlb_miss: 22.0,
    itlb_miss: 30.0,
    icache_miss: 12.0,
};

/// The simulated core.
///
/// [`Machine::run_window`] executes a slice of a workload instance through
/// the cache hierarchy, branch predictor and TLBs, derives a cycle count
/// from the observed miss rates, and returns the scaled per-window
/// [`CounterSet`] — exactly what the PMU would expose for one 10 ms
/// sampling period.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    llc: Cache,
    dtlb: Tlb,
    itlb: Tlb,
    branch: Gshare,
}

/// A running workload with its address/branch generator state.
#[derive(Debug)]
pub struct RunningWorkload {
    profile: WorkloadProfile,
    phase_idx: usize,
    instr_in_phase: u64,
    phase_len: u64,
    /// Base of the data heap in the synthetic address space.
    heap_base: u64,
    /// Base of the code segment.
    code_base: u64,
    /// Current stream cursor within the working set.
    stream_pos: u64,
    /// Base of the current hot loop within the code footprint.
    loop_base: u64,
    /// Current program counter offset within the hot loop.
    pc_offset: u64,
    rng: StdRng,
}

impl RunningWorkload {
    /// Starts an instance of `profile` with its own generator seed.
    ///
    /// Distinct instances are placed in distinct address-space slices so a
    /// shared cache sees genuine inter-instance conflicts.
    #[must_use]
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let slot = rng.random_range(0..1u64 << 16);
        Self {
            profile,
            phase_idx: 0,
            instr_in_phase: 0,
            phase_len: 0,
            heap_base: 0x5600_0000_0000 + slot * (1 << 30),
            code_base: 0x4000_0000 + slot * (1 << 24),
            stream_pos: 0,
            loop_base: 0,
            pc_offset: 0,
            rng,
        }
    }

    /// The workload profile this instance runs.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The currently active phase.
    #[must_use]
    pub fn current_phase(&self) -> &Phase {
        &self.profile.phases[self.phase_idx]
    }

    /// Draws the next phase once the current one has run its length;
    /// returns whether it did.
    fn maybe_advance_phase(&mut self) -> bool {
        if self.instr_in_phase < self.phase_len {
            return false;
        }
        self.phase_idx = self.profile.pick_phase(&mut self.rng);
        self.instr_in_phase = 0;
        // Phase lengths sit at a few sampling windows: each 10 ms
        // sample sees mostly one phase with occasional transitions,
        // matching how real program phases (100 ms – seconds) look at
        // the simulator's scaled-down time base.
        self.phase_len = self.rng.random_range(30_000..120_000);
        // drawn over the unscaled working set, so the cursor may start
        // past the scaled one
        self.stream_pos = self.rng.random_range(0..self.current_phase().mem.working_set);
        true
    }
}

/// Hot-loop length of the PC walk, bytes.
const LOOP_SIZE: u64 = 1024;

/// What the per-instruction loop needs of one phase at one footprint
/// scale, derived once per phase change rather than once per
/// instruction.
#[derive(Copy, Clone, Debug)]
struct PhaseConsts {
    phase: Phase,
    /// Scaled data working set, bytes.
    data_ws: u64,
    /// Hot-loop length: [`LOOP_SIZE`] capped by the scaled code footprint.
    loop_len: u64,
    /// Probability per instruction of jumping to another function.
    jump_prob: f64,
    /// A jump target in the scaled code footprint.
    jump_target: UniformBelow,
    /// A static branch site.
    branch_site: UniformBelow,
    /// A random address in the hot region.
    hot_offset: UniformBelow,
    /// A random address in the whole scaled working set.
    data_offset: UniformBelow,
}

impl PhaseConsts {
    /// The constants of `phase` with footprints divided by `fscale`.
    ///
    /// # Panics
    ///
    /// Panics if the phase has no branch sites.
    fn new(phase: Phase, fscale: u64) -> Self {
        let data_ws = (phase.mem.working_set / fscale).max(4096);
        let code_ws = (phase.icache_footprint / fscale).max(1024);
        let hot = ((data_ws as f64 * phase.mem.hot_fraction) as u64).max(64);
        Self {
            phase,
            data_ws,
            loop_len: LOOP_SIZE.min(code_ws),
            // unpredictable control flow (low branch predictability,
            // e.g. rootkit hook trampolines) jumps more
            jump_prob: 0.002 + 0.06 * (1.0 - phase.branch.predictability),
            jump_target: UniformBelow::new(code_ws),
            branch_site: UniformBelow::new(phase.branch.pc_diversity),
            hot_offset: UniformBelow::new(hot),
            data_offset: UniformBelow::new(data_ws),
        }
    }
}

/// `(x + step) % m`, skipping the division while `x + step` is already
/// below `m`.
#[inline]
fn wrap_add(x: u64, step: u64, m: u64) -> u64 {
    let next = x + step;
    if next < m {
        next
    } else {
        next % m
    }
}

impl Machine {
    /// Builds a core from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid cache geometries (see [`Cache::new`]).
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Self {
            l1d: Cache::new(config.l1d),
            l1i: Cache::new(config.l1i),
            l2: Cache::new(config.l2),
            llc: Cache::new(config.llc),
            dtlb: Tlb::new(config.dtlb_entries),
            itlb: Tlb::new(config.itlb_entries),
            branch: Gshare::new(config.branch_history_bits),
            config,
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Flushes all micro-architectural state (container switch / reboot).
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l1i.flush();
        self.l2.flush();
        self.llc.flush();
        self.dtlb.flush();
        self.itlb.flush();
        self.branch.flush();
    }

    /// Executes one sampling window of `window_ms` milliseconds for
    /// `workload`, returning the scaled counter deltas for that window.
    ///
    /// Only `config.slice_instructions` instructions are actually pushed
    /// through the models; all hardware counts are scaled linearly so that
    /// the derived cycle count fills the wall-clock window, mirroring how
    /// counter values scale with sampling period on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not positive.
    pub fn run_window(&mut self, workload: &mut RunningWorkload, window_ms: f64) -> CounterSet {
        assert!(window_ms > 0.0, "window must be positive");
        let slice = self.config.slice_instructions;

        // raw slice counters
        let mut mem_loads = 0u64;
        let mut mem_stores = 0u64;
        let mut l1d_load_miss = 0u64;
        let mut l1d_store_miss = 0u64;
        let mut l1i_miss = 0u64;
        let mut l2_miss = 0u64;
        let mut llc_load_access = 0u64;
        let mut llc_load_miss = 0u64;
        let mut llc_store_access = 0u64;
        let mut llc_store_miss = 0u64;
        let mut dtlb_miss = 0u64;
        let mut itlb_access = 0u64;
        let mut itlb_miss = 0u64;
        let mut branches = 0u64;
        let mut branch_miss = 0u64;

        let fscale = self.config.footprint_scale.max(1);
        let mut k = PhaseConsts::new(*workload.current_phase(), fscale);
        for i in 0..slice {
            if workload.maybe_advance_phase() {
                k = PhaseConsts::new(*workload.current_phase(), fscale);
            }
            workload.instr_in_phase += 1;
            let ph = &k.phase;

            // ---- instruction fetch side ----
            // PC walk with loop locality: execution cycles inside a small
            // hot loop and occasionally jumps to another function in the
            // footprint.
            if workload.rng.random_bool(k.jump_prob) {
                workload.loop_base = k.jump_target.sample(&mut workload.rng);
            }
            workload.pc_offset = wrap_add(workload.pc_offset, 4, k.loop_len);
            let pc = workload.code_base + workload.loop_base + workload.pc_offset;
            // one icache/iTLB probe per 16-instruction fetch group
            if i % 16 == 0 {
                itlb_access += 1;
                if self.itlb.access(pc).is_miss() {
                    itlb_miss += 1;
                }
                if self.l1i.access(pc).is_miss() {
                    l1i_miss += 1;
                    if self.l2.access(pc).is_miss() {
                        l2_miss += 1;
                        llc_load_access += 1;
                        if self.llc.access(pc).is_miss() {
                            llc_load_miss += 1;
                        }
                    }
                }
            }

            // ---- branch side ----
            if workload.rng.random_bool(ph.branch.branch_ratio) {
                branches += 1;
                let site = k.branch_site.sample(&mut workload.rng) * 4 + workload.code_base;
                let taken = if workload.rng.random_bool(ph.branch.predictability) {
                    // stable per-site direction: derive from the site id
                    !site.is_multiple_of(3)
                } else {
                    workload.rng.random_bool(ph.branch.taken_bias)
                };
                if self.branch.execute(site, taken).is_miss() {
                    branch_miss += 1;
                }
            }

            // ---- data side ----
            if workload.rng.random_bool(ph.mem.mem_ratio) {
                let is_store = workload.rng.random_bool(ph.mem.store_ratio);
                let addr = if workload.rng.random_bool(ph.mem.stream_prob) {
                    workload.stream_pos = wrap_add(workload.stream_pos, ph.mem.stride, k.data_ws);
                    workload.heap_base + workload.stream_pos
                } else if workload.rng.random_bool(ph.mem.hot_prob) {
                    workload.heap_base + k.hot_offset.sample(&mut workload.rng)
                } else {
                    workload.heap_base + k.data_offset.sample(&mut workload.rng)
                };
                if is_store {
                    mem_stores += 1;
                } else {
                    mem_loads += 1;
                }
                if self.dtlb.access(addr).is_miss() {
                    dtlb_miss += 1;
                }
                if self.l1d.access(addr).is_miss() {
                    if is_store {
                        l1d_store_miss += 1;
                    } else {
                        l1d_load_miss += 1;
                    }
                    if self.l2.access(addr).is_miss() {
                        l2_miss += 1;
                        if is_store {
                            llc_store_access += 1;
                            if self.llc.access(addr).is_miss() {
                                llc_store_miss += 1;
                            }
                        } else {
                            llc_load_access += 1;
                            if self.llc.access(addr).is_miss() {
                                llc_load_miss += 1;
                            }
                        }
                    }
                    // next-line prefetch: warm L2/LLC for the following
                    // line off the demand path (no counters, no stalls)
                    if self.config.next_line_prefetch {
                        let next = addr + self.config.l1d.line_size as u64;
                        if self.l2.access(next).is_miss() {
                            let _ = self.llc.access(next);
                        }
                    }
                }
            }
        }

        // ---- cycle model over the slice ----
        let ph = k.phase;
        let base_cycles = slice as f64 / ph.ipc_base;
        let l1d_miss = l1d_load_miss + l1d_store_miss;
        let llc_miss = llc_load_miss + llc_store_miss;
        let llc_access = llc_load_access + llc_store_access;
        let l2_hits = (l1d_miss + l1i_miss).saturating_sub(l2_miss);
        let llc_hits = llc_access.saturating_sub(llc_miss);
        let backend_stall = l2_hits as f64 * PENALTIES.l2_hit
            + llc_hits as f64 * PENALTIES.llc_hit
            + llc_miss as f64 * PENALTIES.dram
            + dtlb_miss as f64 * PENALTIES.dtlb_miss;
        let frontend_stall = branch_miss as f64 * PENALTIES.branch_miss
            + l1i_miss as f64 * PENALTIES.icache_miss
            + itlb_miss as f64 * PENALTIES.itlb_miss;
        let slice_cycles = base_cycles + backend_stall + frontend_stall;

        // scale the slice so it fills the occupied part of the window:
        // perf counts only while the task runs, so a mostly-blocked task
        // accumulates proportionally fewer cycles/instructions per window.
        let utilization = ph.utilization;
        let window_cycles = self.config.freq_ghz * 1e9 * window_ms / 1e3 * utilization;
        let scale = window_cycles / slice_cycles;
        let s = |v: u64| -> u64 { (v as f64 * scale).round() as u64 };

        let mut c = CounterSet::new();
        c.set(HpcEvent::Instructions, s(slice));
        c.set(HpcEvent::Cycles, window_cycles.round() as u64);
        c.set(
            HpcEvent::RefCycles,
            (window_cycles * self.config.ref_clock_ratio).round() as u64,
        );
        c.set(HpcEvent::BusCycles, (window_cycles / 4.0).round() as u64);
        c.set(HpcEvent::StalledCyclesFrontend, (frontend_stall * scale).round() as u64);
        c.set(HpcEvent::StalledCyclesBackend, (backend_stall * scale).round() as u64);
        // build aggregates from the already-rounded parts so the
        // perf identities (references = loads + stores, ...) hold exactly
        let llc_miss_scaled = s(llc_load_miss) + s(llc_store_miss);
        c.set(HpcEvent::CacheReferences, s(llc_load_access) + s(llc_store_access));
        c.set(HpcEvent::CacheMisses, llc_miss_scaled);
        c.set(HpcEvent::CpuCacheMisses, llc_miss_scaled);
        c.set(HpcEvent::LlcLoads, s(llc_load_access));
        c.set(HpcEvent::LlcLoadMisses, s(llc_load_miss));
        c.set(HpcEvent::LlcStores, s(llc_store_access));
        c.set(HpcEvent::LlcStoreMisses, s(llc_store_miss));
        c.set(HpcEvent::L1DcacheLoads, s(mem_loads));
        c.set(HpcEvent::L1DcacheLoadMisses, s(l1d_load_miss));
        c.set(HpcEvent::L1DcacheStores, s(mem_stores));
        c.set(HpcEvent::L1IcacheLoadMisses, s(l1i_miss));
        c.set(HpcEvent::DtlbLoads, s(mem_loads + mem_stores));
        c.set(HpcEvent::DtlbLoadMisses, s(dtlb_miss));
        c.set(HpcEvent::ItlbLoads, s(itlb_access));
        c.set(HpcEvent::ItlbLoadMisses, s(itlb_miss));
        c.set(HpcEvent::BranchInstructions, s(branches));
        c.set(HpcEvent::BranchMisses, s(branch_miss));
        c.set(HpcEvent::BranchLoads, s(branches));
        c.set(HpcEvent::BranchLoadMisses, s(branch_miss));
        c.set(HpcEvent::MemLoads, s(mem_loads));
        c.set(HpcEvent::MemStores, s(mem_stores));
        c.set(HpcEvent::NodeLoads, llc_miss_scaled);
        c.set(HpcEvent::NodeLoadMisses, llc_miss_scaled / 50);

        // software events: Poisson at per-window rates
        let cs = Poisson::new(ph.os.context_switch_rate * window_ms).sample(&mut workload.rng);
        let minor = Poisson::new(ph.os.minor_fault_rate * window_ms).sample(&mut workload.rng);
        let major = Poisson::new(ph.os.major_fault_rate * window_ms).sample(&mut workload.rng);
        let mig = Poisson::new(ph.os.migration_rate * window_ms).sample(&mut workload.rng);
        c.set(HpcEvent::ContextSwitches, cs);
        c.set(HpcEvent::MinorFaults, minor);
        c.set(HpcEvent::MajorFaults, major);
        c.set(HpcEvent::PageFaults, minor + major);
        c.set(HpcEvent::CpuMigrations, mig);
        c.set(HpcEvent::TaskClock, (window_ms * 1e6 * utilization).round() as u64);

        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadClass;

    fn small_config() -> MachineConfig {
        MachineConfig { slice_instructions: 8_000, ..MachineConfig::default() }
    }

    fn window_for(class: WorkloadClass, seed: u64) -> CounterSet {
        let mut machine = Machine::new(small_config());
        let profile = WorkloadProfile::canonical(class);
        let mut running = RunningWorkload::new(profile, seed);
        // warm caches to steady state, then measure
        for _ in 0..8 {
            let _ = machine.run_window(&mut running, 10.0);
        }
        machine.run_window(&mut running, 10.0)
    }

    #[test]
    fn cycles_track_task_clock_at_core_frequency() {
        for class in [WorkloadClass::Compiler, WorkloadClass::Ransomware] {
            let c = window_for(class, 1);
            let cycles = c.get(HpcEvent::Cycles) as f64;
            let tc_ns = c.get(HpcEvent::TaskClock) as f64;
            // cycles = freq(GHz) × occupied nanoseconds, up to rounding
            assert!((cycles - 3.5 * tc_ns).abs() <= 4.0, "cycles {cycles} vs 3.5×{tc_ns}");
            let full = 3.5e9 * 0.01;
            assert!(cycles > 0.2 * full && cycles <= full * 1.001, "cycles {cycles}");
        }
    }

    #[test]
    fn idle_workload_occupies_little_of_the_window() {
        let e = window_for(WorkloadClass::TextEditor, 1);
        let c = window_for(WorkloadClass::Compiler, 1);
        assert!(e.get(HpcEvent::Instructions) < c.get(HpcEvent::Instructions));
        assert!((e.get(HpcEvent::TaskClock) as f64) < 0.3 * 1e7);
        assert!(e.get(HpcEvent::Cycles) * 4 < c.get(HpcEvent::Cycles));
    }

    #[test]
    fn counter_identities_hold() {
        for class in [WorkloadClass::Database, WorkloadClass::Ransomware] {
            let c = window_for(class, 2);
            assert!(c.get(HpcEvent::LlcLoadMisses) <= c.get(HpcEvent::LlcLoads));
            assert!(c.get(HpcEvent::LlcStoreMisses) <= c.get(HpcEvent::LlcStores));
            assert!(c.get(HpcEvent::BranchMisses) <= c.get(HpcEvent::BranchInstructions));
            assert!(c.get(HpcEvent::L1DcacheLoadMisses) <= c.get(HpcEvent::L1DcacheLoads));
            assert_eq!(
                c.get(HpcEvent::CacheMisses),
                c.get(HpcEvent::LlcLoadMisses) + c.get(HpcEvent::LlcStoreMisses)
            );
            assert_eq!(
                c.get(HpcEvent::PageFaults),
                c.get(HpcEvent::MinorFaults) + c.get(HpcEvent::MajorFaults)
            );
            assert!(c.get(HpcEvent::Instructions) > 0);
        }
    }

    #[test]
    fn ransomware_stresses_llc_more_than_editor() {
        let r = window_for(WorkloadClass::Ransomware, 3);
        let e = window_for(WorkloadClass::TextEditor, 3);
        assert!(
            r.get(HpcEvent::LlcLoadMisses) > 5 * e.get(HpcEvent::LlcLoadMisses).max(1),
            "ransomware {} vs editor {}",
            r.get(HpcEvent::LlcLoadMisses),
            e.get(HpcEvent::LlcLoadMisses)
        );
    }

    #[test]
    fn crypto_miner_has_high_ipc_and_low_misses() {
        let m = window_for(WorkloadClass::CryptoMiner, 4);
        let d = window_for(WorkloadClass::Database, 4);
        // more instructions per occupied cycle ⇒ higher IPC
        let ipc = |c: &CounterSet| {
            c.get(HpcEvent::Instructions) as f64 / c.get(HpcEvent::Cycles) as f64
        };
        assert!(ipc(&m) > 2.0 * ipc(&d), "miner IPC {} vs db {}", ipc(&m), ipc(&d));
        // far fewer LLC misses per instruction
        let mpi = |c: &CounterSet| {
            c.get(HpcEvent::CacheMisses) as f64 / c.get(HpcEvent::Instructions) as f64
        };
        assert!(mpi(&m) < 0.5 * mpi(&d), "miner MPI {} vs db {}", mpi(&m), mpi(&d));
    }

    #[test]
    fn rootkit_pollutes_frontend() {
        let r = window_for(WorkloadClass::Rootkit, 5);
        let s = window_for(WorkloadClass::ScientificCompute, 5);
        // rootkit hooking inflates per-instruction icache and branch-miss
        // rates well past a well-behaved compute kernel
        let per_instr = |c: &CounterSet, e: HpcEvent| {
            c.get(e) as f64 / c.get(HpcEvent::Instructions) as f64
        };
        assert!(
            per_instr(&r, HpcEvent::L1IcacheLoadMisses)
                > 1.5 * per_instr(&s, HpcEvent::L1IcacheLoadMisses)
        );
        assert!(
            per_instr(&r, HpcEvent::BranchMisses)
                > 2.0 * per_instr(&s, HpcEvent::BranchMisses)
        );
    }

    #[test]
    fn windows_are_deterministic_per_seed() {
        let a = window_for(WorkloadClass::Worm, 9);
        let b = window_for(WorkloadClass::Worm, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn flush_changes_next_window() {
        let mut machine = Machine::new(small_config());
        let profile = WorkloadProfile::canonical(WorkloadClass::MediaPlayer);
        let mut w1 = RunningWorkload::new(profile.clone(), 7);
        let _ = machine.run_window(&mut w1, 10.0);
        let warm = machine.run_window(&mut w1, 10.0);
        machine.flush();
        let mut w2 = RunningWorkload::new(profile, 7);
        let _cold = machine.run_window(&mut w2, 10.0);
        // a freshly flushed machine sees more L1 misses than a warm one
        let warm2 = {
            let mut m = Machine::new(small_config());
            let mut w = RunningWorkload::new(
                WorkloadProfile::canonical(WorkloadClass::MediaPlayer),
                7,
            );
            let _ = m.run_window(&mut w, 10.0);
            m.run_window(&mut w, 10.0)
        };
        assert_eq!(warm, warm2);
    }

    #[test]
    fn prefetcher_cuts_streaming_demand_misses() {
        // a pure streaming phase: the next-line prefetcher should absorb
        // most of the demand L2/LLC misses
        let run = |prefetch: bool| {
            let cfg = MachineConfig {
                slice_instructions: 8_000,
                next_line_prefetch: prefetch,
                ..MachineConfig::default()
            };
            let mut machine = Machine::new(cfg);
            let mut w = RunningWorkload::new(
                WorkloadProfile::canonical(WorkloadClass::FileCompression),
                3,
            );
            for _ in 0..4 {
                let _ = machine.run_window(&mut w, 10.0);
            }
            machine.run_window(&mut w, 10.0)
        };
        let off = run(false);
        let on = run(true);
        assert!(
            on.get(HpcEvent::LlcLoadMisses) < off.get(HpcEvent::LlcLoadMisses),
            "prefetch on {} vs off {}",
            on.get(HpcEvent::LlcLoadMisses),
            off.get(HpcEvent::LlcLoadMisses)
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn run_window_validates_duration() {
        let mut machine = Machine::new(small_config());
        let mut w =
            RunningWorkload::new(WorkloadProfile::canonical(WorkloadClass::Worm), 1);
        let _ = machine.run_window(&mut w, 0.0);
    }
}
