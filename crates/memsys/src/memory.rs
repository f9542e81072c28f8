//! Memory-module and node-bus timing.
//!
//! Each node owns one memory module (holding the pages homed there) and one
//! local bus. Both are modelled as serially reusable resources: an access
//! starts when the resource frees up, runs for `setup + size/bandwidth`
//! cycles (memory) or `size/bandwidth` (bus), and holds the resource until
//! done. This captures the memory contention the paper models.

use lrc_json::{Cx, Dec, Overlay, Seq, Value, Via};
use lrc_sim::{Cycle, MachineConfig};

/// A serially reusable timed resource.
#[derive(Debug, Clone)]
pub struct TimedResource {
    free_at: Cycle,
    busy_cycles: u64,
}

impl TimedResource {
    /// A resource idle from time 0.
    pub fn new() -> Self {
        TimedResource { free_at: 0, busy_cycles: 0 }
    }

    /// Occupy the resource for `duration` cycles starting no earlier than
    /// `now`; returns the completion time.
    pub fn occupy(&mut self, now: Cycle, duration: u64) -> Cycle {
        let start = now.max(self.free_at);
        self.free_at = start + duration;
        self.busy_cycles += duration;
        self.free_at
    }

    /// Earliest time a new access could start.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Total cycles this resource has been occupied (utilization metric).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

impl Default for TimedResource {
    fn default() -> Self {
        Self::new()
    }
}

/// One node's memory module.
#[derive(Debug, Clone)]
pub struct MemoryModule {
    resource: TimedResource,
    setup: u64,
    bytes_per_cycle: u64,
    accesses: u64,
}

impl MemoryModule {
    /// Module with `cfg`'s setup time and bandwidth.
    pub fn new(cfg: &MachineConfig) -> Self {
        MemoryModule {
            resource: TimedResource::new(),
            setup: cfg.mem_setup,
            bytes_per_cycle: cfg.mem_bytes_per_cycle,
            accesses: 0,
        }
    }

    /// Perform an access of `bytes` starting no earlier than `now`; returns
    /// the completion time (includes queueing for the module).
    ///
    /// The module is pipelined in the usual latency/occupancy split: every
    /// access experiences the full `setup + transfer` latency, but a new
    /// access may start as soon as the previous one's *transfer* slot is
    /// free, so back-to-back accesses stream at the bandwidth limit rather
    /// than serializing on the setup time as well.
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.accesses += 1;
        let transfer = MachineConfig::transfer_cycles(bytes, self.bytes_per_cycle);
        self.resource.occupy(now, transfer) + self.setup
    }

    /// Contention-free duration of an access of `bytes`.
    pub fn latency(&self, bytes: u64) -> u64 {
        self.setup + MachineConfig::transfer_cycles(bytes, self.bytes_per_cycle)
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total busy cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.resource.busy_cycles()
    }

}

/// One node's local bus (cache-fill path).
#[derive(Debug, Clone)]
pub struct Bus {
    resource: TimedResource,
    bytes_per_cycle: u64,
}

impl Bus {
    /// Bus with `cfg`'s bandwidth.
    pub fn new(cfg: &MachineConfig) -> Self {
        Bus { resource: TimedResource::new(), bytes_per_cycle: cfg.bus_bytes_per_cycle }
    }

    /// Transfer `bytes` starting no earlier than `now`; returns completion.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let duration = MachineConfig::transfer_cycles(bytes, self.bytes_per_cycle);
        self.resource.occupy(now, duration)
    }

    /// Contention-free duration of transferring `bytes`.
    pub fn latency(&self, bytes: u64) -> u64 {
        MachineConfig::transfer_cycles(bytes, self.bytes_per_cycle)
    }
}

/// Checkpoint form: `[free_at, busy_cycles]` as decimal strings.
impl Overlay for TimedResource {
    fn save(&self) -> Value {
        Seq::<Dec>::enc(&[self.free_at, self.busy_cycles])
    }
    fn load(&mut self, v: &Value, cx: &Cx) -> Option<()> {
        [self.free_at, self.busy_cycles] = Seq::<Dec>::dec(v, cx)?;
        Some(())
    }
}

/// Checkpoint form: `[free_at, busy_cycles, accesses]`.
impl Overlay for MemoryModule {
    fn save(&self) -> Value {
        let r = &self.resource;
        Seq::<Dec>::enc(&[r.free_at, r.busy_cycles, self.accesses])
    }
    fn load(&mut self, v: &Value, cx: &Cx) -> Option<()> {
        [self.resource.free_at, self.resource.busy_cycles, self.accesses] = Seq::<Dec>::dec(v, cx)?;
        Some(())
    }
}

/// Checkpoint form: the bus's resource, `[free_at, busy_cycles]`.
impl Overlay for Bus {
    fn save(&self) -> Value {
        self.resource.save()
    }
    fn load(&mut self, v: &Value, cx: &Cx) -> Option<()> {
        self.resource.load(v, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_memory_latency() {
        // Section 3: memory cost for a line fill is 20 + 128/2 = 84 cycles.
        let cfg = MachineConfig::paper_default(64);
        let mut m = MemoryModule::new(&cfg);
        assert_eq!(m.latency(128), 84);
        assert_eq!(m.access(0, 128), 84);
    }

    #[test]
    fn memory_contention_queues() {
        let cfg = MachineConfig::paper_default(64);
        let mut m = MemoryModule::new(&cfg);
        let t1 = m.access(0, 128);
        let t2 = m.access(10, 128); // arrives while busy
        assert_eq!(t1, 84);
        // Pipelined: the second transfer starts when the first's transfer
        // slot frees (cycle 64), then pays the full latency.
        assert_eq!(t2, 148, "second access queues for the transfer slot");
        assert_eq!(m.accesses(), 2);
        assert_eq!(m.busy_cycles(), 128);
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let cfg = MachineConfig::paper_default(64);
        let mut m = MemoryModule::new(&cfg);
        m.access(0, 128);
        let t = m.access(1000, 128);
        assert_eq!(t, 1084);
        let t2 = m.access(1064, 128);
        assert_eq!(t2, 1148, "back-to-back streams at bandwidth");
    }

    #[test]
    fn bus_fill_cost() {
        // Section 3: local bus fill of a line is 128/2 = 64 cycles.
        let cfg = MachineConfig::paper_default(64);
        let mut b = Bus::new(&cfg);
        assert_eq!(b.latency(128), 64);
        assert_eq!(b.transfer(0, 128), 64);
        assert_eq!(b.transfer(0, 128), 128);
    }

    #[test]
    fn word_write_through_is_cheap() {
        let cfg = MachineConfig::paper_default(64);
        let m = MemoryModule::new(&cfg);
        // A 3-word write-through costs setup + ceil(12/2).
        assert_eq!(m.latency(12), 26);
    }
}
