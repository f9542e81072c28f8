//! Per-node simulation state: the processor's execution status, the node's
//! memory-system components, the protocol processor's local tables, and the
//! outstanding-transaction table (the equivalent of DASH RAC entries).

use crate::sync::{BarrierManager, LockManager};
use lrc_json::{json_enum, json_struct, Dec, InPlace, Pairs, Plain, Row, Rows, Seq};
use lrc_mem::{Bus, Cache, CoalescingBuffer, MemoryModule, TimedResource, WriteBuffer};
use lrc_sim::{
    BarrierId, Cycle, FxHashMap, FxHashSet, LineAddr, LockId, MachineConfig, Op, StallKind,
};

/// Why a processor is not currently issuing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcStatus {
    /// Issuing operations (a `ProcStep` event is or will be scheduled).
    Running,
    /// Blocked on a read miss to this line.
    StalledRead(LineAddr),
    /// Blocked because the write buffer was full when this write was issued.
    StalledWriteFull,
    /// SC only: blocked until the current write transaction completes.
    StalledWrite(LineAddr),
    /// Performing the release fence before a lock release or barrier
    /// arrival: waiting for buffers and outstanding transactions to drain.
    Releasing(PendingSync),
    /// Waiting for a lock grant (and, lazy protocols, for the acquire-time
    /// invalidations to finish).
    WaitingLock(LockId),
    /// Waiting for the barrier release broadcast.
    InBarrier(BarrierId),
    /// Executed `Done`.
    Finished,
    // (Appended last: the derived `Hash` folds the variant index, and the
    // checker fingerprints depend on the indices above staying put.)
    /// Crash-stop victim: the node's state vanished and it will never
    /// issue, send, or receive again.
    Crashed,
}

json_enum!(ProcStatus {
    Running {} => "running",
    StalledRead(line: Dec) => "sread",
    StalledWriteFull {} => "swfull",
    StalledWrite(line: Dec) => "swrite",
    Releasing(sync) => "releasing",
    WaitingLock(lock) => "wlock",
    InBarrier(bar) => "inbar",
    Finished {} => "finished",
    Crashed {} => "crashed",
});

/// What to do once the release fence completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingSync {
    /// Send `LockRel` and continue.
    LockRelease(LockId),
    /// Send `BarrierArrive` and wait in the barrier.
    Barrier(BarrierId),
}

json_enum!(PendingSync { LockRelease(lock) => "lockrel", Barrier(bar) => "barrier" });

/// An outstanding coherence transaction for one line (RAC entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Outstanding {
    /// A data reply (read or write fill) is still expected.
    pub waiting_data: bool,
    /// A final `WriteAck` (collection completion) is still expected.
    pub waiting_ack: bool,
    /// The `WriteAck` overtook the `WriteReply{Pending}` that announces it
    /// (the reply can lag behind on the home's memory access): remember it
    /// so the late reply doesn't wait for an ack that already came.
    pub early_ack: bool,
    /// The stalled processor should resume when data arrives (read miss or
    /// SC write miss).
    pub resume_proc: bool,
    /// A write-buffer entry retires when this transaction's reply arrives.
    pub retire_wb: bool,
    /// Words to commit to the cache when the transaction's data/grant
    /// arrives (SC blocking writes).
    pub apply_words: u64,
    /// An invalidation (eager) or write notice (lazy) arrived while the
    /// fill was in flight — the RAC race. The fill satisfies the one
    /// waiting access, then the copy is dropped (eager) or queued for
    /// acquire-time invalidation (lazy).
    pub stale_on_fill: bool,
}

json_struct!(Outstanding {
    waiting_data,
    waiting_ack,
    early_ack,
    resume_proc,
    retire_wb,
    apply_words: Dec,
    stale_on_fill,
});

/// Snapshots list a node's transactions as rows keyed by line.
impl Row for Outstanding {
    const KEY: &'static str = "line";
}

impl Outstanding {
    /// Transaction fully complete (entry can be deallocated)?
    pub fn done(&self) -> bool {
        !self.waiting_data && !self.waiting_ack
    }
}

/// All state co-located at one node of the machine.
#[derive(Debug)]
pub struct Node {
    /// The processor's execution status.
    pub status: ProcStatus,
    /// When the current stall began (for cycle attribution).
    pub stall_start: Cycle,
    /// Which bucket the current stall belongs to.
    pub stall_kind: StallKind,
    /// Operation that could not be issued and must be retried on resume.
    pub deferred_op: Option<Op>,
    /// True when a `ProcStep` event is already queued for this processor.
    pub step_scheduled: bool,

    /// Data cache.
    pub cache: Cache,
    /// Processor write buffer (relaxed protocols; unused under SC).
    pub wb: WriteBuffer,
    /// Coalescing write-through buffer (lazy protocols).
    pub cb: CoalescingBuffer,
    /// This node's slice of main memory.
    pub mem: MemoryModule,
    /// Local bus (cache-fill path).
    pub bus: Bus,
    /// Protocol processor occupancy.
    pub pp: TimedResource,

    /// Outstanding transactions by line. Fx-hashed (iteration order is
    /// arbitrary; every order-sensitive consumer sorts).
    pub outstanding: FxHashMap<u64, Outstanding>,
    /// Lines to invalidate at the next acquire (lazy protocols): received
    /// write notices and weak-flagged fills. Processed in ascending line
    /// order (`process_pending_invals` sorts its batch).
    pub pending_invals: FxHashSet<u64>,
    /// Conservative overflow fallback (finite write-notice buffers only):
    /// the pending-inval set hit its cap, so the next acquire invalidates
    /// *every* cached shared line instead of a precise list. Set ⇒
    /// `pending_invals` is empty (the set collapsed into this bit).
    pub inval_all: bool,
    /// Lazy-ext: writes whose notices are deferred to the next release,
    /// keyed by line, value = accumulated dirty-word mask. Flushed in
    /// ascending line order (`flush_release_buffers` sorts).
    pub delayed_writes: FxHashMap<u64, u64>,
    /// Write-throughs sent but not yet acknowledged.
    pub wt_unacked: u32,
    /// Write-backs sent but not yet acknowledged.
    pub wbk_unacked: u32,
    /// Completion time of the most recent acquire-time invalidation batch.
    pub inval_done_at: Cycle,
    /// Forwards (eager 3-hop) that arrived while this node's own data for
    /// the line was still in flight: served as soon as the fill lands,
    /// instead of NACKing a copy that is about to exist ("phantom owner").
    pub parked_forwards: FxHashMap<u64, crate::msg::Msg>,

    /// Lock service for locks homed here.
    pub locks: LockManager,
    /// Barrier service for barriers homed here.
    pub barriers: BarrierManager,
}

state! { in place Node {
    logical status: Plain,
    timing stall_start: Dec,
    stats stall_kind: Plain,
    logical deferred_op: Plain,
    logical step_scheduled: Plain,
    logical cache: InPlace,
    logical wb: InPlace,
    logical cb: InPlace,
    timing mem: InPlace,
    timing bus: InPlace,
    timing pp: InPlace,
    logical outstanding: Rows<Dec>,
    logical pending_invals: Seq<Dec>,
    logical inval_all: Plain,
    logical delayed_writes: Pairs<Dec, Dec>,
    logical wt_unacked: Plain,
    logical wbk_unacked: Plain,
    timing inval_done_at: Dec,
    logical parked_forwards: Pairs<Dec, Plain>,
    logical locks: InPlace,
    logical barriers: InPlace,
}}

impl Node {
    /// Build a node for `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Node {
            status: ProcStatus::Running,
            stall_start: 0,
            stall_kind: StallKind::Cpu,
            deferred_op: None,
            step_scheduled: false,
            cache: Cache::new(cfg),
            wb: WriteBuffer::new(cfg.write_buffer_entries),
            cb: CoalescingBuffer::new(cfg.coalescing_buffer_entries),
            mem: MemoryModule::new(cfg),
            bus: Bus::new(cfg),
            pp: TimedResource::new(),
            outstanding: FxHashMap::default(),
            pending_invals: FxHashSet::default(),
            inval_all: false,
            delayed_writes: FxHashMap::default(),
            wt_unacked: 0,
            wbk_unacked: 0,
            inval_done_at: 0,
            parked_forwards: FxHashMap::default(),
            locks: LockManager::new(),
            barriers: BarrierManager::new(),
        }
    }

    /// The release fence condition: every prior write has globally
    /// performed. Exactly the paper's three conditions — write buffer
    /// flushed, outstanding transactions serviced, write-backs/-throughs
    /// acknowledged — plus the lazy protocols' coalescing buffer and
    /// deferred notices. A protocol that never fills a buffer passes its
    /// check for free (`Machine::check_violations` pins that).
    pub fn fence_clear(&self) -> bool {
        self.wb.is_empty()
            && self.outstanding.is_empty()
            && self.wbk_unacked == 0
            && self.cb.is_empty()
            && self.wt_unacked == 0
            && self.delayed_writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(&MachineConfig::paper_default(4))
    }

    #[test]
    fn fresh_node_fence_is_clear() {
        assert!(node().fence_clear());
    }

    #[test]
    fn every_pending_write_blocks_the_fence() {
        type Fill = fn(&mut Node);
        let fills: [(&str, Fill); 6] = [
            ("write buffer", |n| _ = n.wb.push(LineAddr(1), 0)),
            ("outstanding", |n| _ = n.outstanding.insert(3, Outstanding::default())),
            ("write-back ack", |n| n.wbk_unacked = 1),
            ("coalescing buffer", |n| _ = n.cb.push(LineAddr(1), 0)),
            ("write-through ack", |n| n.wt_unacked = 1),
            ("delayed write", |n| _ = n.delayed_writes.insert(5, 0b1)),
        ];
        for (what, fill) in fills {
            let mut n = node();
            fill(&mut n);
            assert!(!n.fence_clear(), "{what}");
        }
    }

    #[test]
    fn outstanding_done_logic() {
        let mut o = Outstanding { waiting_data: true, waiting_ack: true, ..Default::default() };
        assert!(!o.done());
        o.waiting_data = false;
        assert!(!o.done());
        o.waiting_ack = false;
        assert!(o.done());
    }
}
