//! Acquire, release, barrier, and fence semantics, plus the lock/barrier
//! message services.
//!
//! Each protocol difference here is one capability of [`lrc_sim::Protocol`]
//! (DESIGN.md §2.4):
//!
//! * **Release.** A protocol that `stalls_on_write` (SC) has globally
//!   performed every access already, so its release needs no fence.
//!   Every other release first flushes the coalescing buffer and the
//!   deferred write notices — buffers only the lazy protocols (and, for
//!   the notices, only the one that `defers_notices`) ever fill — and then
//!   stalls until [`crate::node::Node::fence_clear`]: write buffer drained,
//!   every outstanding transaction (invalidation acks included) complete,
//!   every write-back/-through acknowledged.
//! * **Acquire.** Under `is_lazy` an acquire invalidates every line named
//!   by a buffered write notice; the paper hides much of that latency under
//!   the lock-grant wait, which we model by starting invalidations at
//!   acquire-issue time and finishing any new arrivals after the grant.
//!   Otherwise an acquire is a plain message round-trip.

use super::Machine;
use crate::msg::{Msg, MsgKind};
use crate::node::{PendingSync, ProcStatus};
use crate::sync::LockAction;
use lrc_sim::{Cycle, LineAddr, LockId, ProcId, StallKind};
use lrc_trace::{StateChange, SyncOp};

impl Machine {
    /// Begin a lock acquire: send the request and (lazy) start processing
    /// pending invalidations under the lock-wait shadow.
    pub(crate) fn begin_acquire(&mut self, p: ProcId, now: Cycle, lock: LockId) {
        let home = self.cfg.lock_home(lock);
        self.send(now, p, home, MsgKind::LockAcq { lock });
        if self.obs.is_some() {
            self.obs_sync(now, p, SyncOp::AcquireStart, lock as u64);
        }
        self.block(p, now, StallKind::Sync, ProcStatus::WaitingLock(lock));
        if self.protocol.is_lazy() {
            let done = self.process_pending_invals(p, now);
            self.nodes[p].inval_done_at = done;
        }
    }

    /// Begin a release (lock release or barrier arrival). Returns
    /// `Some(resume_time)` if the processor can continue immediately (lock
    /// release with an already-clear fence); `None` if it blocked.
    pub(crate) fn begin_release(&mut self, p: ProcId, now: Cycle, pending: PendingSync) -> Option<Cycle> {
        self.flush_release_buffers(p, now);
        // Blocking writes have already performed: SC releases need no fence.
        if !(self.protocol.stalls_on_write() || self.nodes[p].fence_clear()) {
            self.block(p, now, StallKind::Sync, ProcStatus::Releasing(pending));
            return None;
        }
        self.send_release(p, now, pending);
        match pending {
            PendingSync::LockRelease(_) => {
                self.stats.procs[p].breakdown.add(StallKind::Cpu, 1);
                Some(now + 1)
            }
            PendingSync::Barrier(bar) => {
                self.block(p, now, StallKind::Sync, ProcStatus::InBarrier(bar));
                None
            }
        }
    }

    /// The release itself, once the fence is clear: the lock release or
    /// barrier arrival message, with its race-detector edge and trace event.
    fn send_release(&mut self, p: ProcId, t: Cycle, pending: PendingSync) {
        match pending {
            PendingSync::LockRelease(lock) => {
                let home = self.cfg.lock_home(lock);
                self.send(t, p, home, MsgKind::LockRel { lock });
                self.note_race_release(p, lock);
                if self.obs.is_some() {
                    self.obs_sync(t, p, SyncOp::Release, lock as u64);
                }
            }
            PendingSync::Barrier(bar) => {
                let home = self.cfg.barrier_home(bar);
                self.send(t, p, home, MsgKind::BarrierArrive { bar });
                self.note_race_barrier_arrive(p, bar);
                if self.obs.is_some() {
                    self.obs_sync(t, p, SyncOp::BarrierArrive, bar as u64);
                }
            }
        }
    }

    /// Flush everything a release must push out: the deferred write
    /// notices (lazy-ext's defining cost) and the coalescing buffer. Also
    /// invoked while blocked in `Releasing`, because a write that retires
    /// *after* the release began still lands in these buffers.
    fn flush_release_buffers(&mut self, p: ProcId, now: Cycle) {
        // Ascending line order: the flush sends messages, and message order
        // is part of the simulator's deterministic behavior.
        let mut lines: Vec<u64> = self.nodes[p].delayed_writes.keys().copied().collect();
        lines.sort_unstable();
        for l0 in lines {
            self.flush_deferred_notice(p, now, LineAddr(l0));
        }
        for e in self.nodes[p].cb.drain_all() {
            self.send_write_through(p, now, e.line, e.words);
        }
    }

    /// Re-check a blocked release whenever something drains. Called from
    /// every completion path; cheap when the processor is not releasing.
    pub(crate) fn try_complete_release(&mut self, p: ProcId, t: Cycle) {
        let ProcStatus::Releasing(pending) = self.nodes[p].status else {
            return;
        };
        self.flush_release_buffers(p, t);
        if !self.nodes[p].fence_clear() {
            return;
        }
        self.send_release(p, t, pending);
        match pending {
            PendingSync::LockRelease(_) => self.resume(p, t),
            // The sync stall continues until the barrier releases.
            PendingSync::Barrier(bar) => self.nodes[p].status = ProcStatus::InBarrier(bar),
        }
    }

    /// Fence op: force pending invalidations to be applied immediately (the
    /// paper's suggestion for programs with data races). Blocking; counts
    /// as synchronization time. A no-op for the eager protocols, which
    /// never queue an invalidation.
    pub(crate) fn do_fence(&mut self, p: ProcId, now: Cycle) -> Cycle {
        let done = self.process_pending_invals(p, now);
        self.stats.procs[p].breakdown.add(StallKind::Sync, done - now);
        done
    }

    /// Queue `line` for invalidation at `p`'s next acquire, honoring the
    /// finite write-notice buffer: when the set would exceed its cap, the
    /// precise list collapses into the conservative [`crate::node::Node::inval_all`]
    /// bit (invalidate everything at the next acquire). Correct by
    /// construction — a superset of the precise invalidation set.
    pub(crate) fn queue_pending_inval(&mut self, p: ProcId, line: LineAddr) {
        let node = &mut self.nodes[p];
        if node.inval_all {
            return; // already collapsed: the next acquire sweeps everything
        }
        if let Some(cap) = self.cfg.resources.write_notice_buffer {
            if node.pending_invals.len() >= cap && !node.pending_invals.contains(&line.0) {
                node.pending_invals.clear();
                node.inval_all = true;
                self.stats.resources.wn_overflows += 1;
                if self.obs.is_some() {
                    let at = self.queue.now();
                    self.obs_resource(
                        at,
                        p,
                        lrc_trace::ResourceEv::WnOverflow { cap: cap.min(u32::MAX as usize) as u32 },
                    );
                }
                return;
            }
        }
        node.pending_invals.insert(line.0);
        let len = node.pending_invals.len() as u64;
        if len > self.stats.resources.peak_pending_invals {
            self.stats.resources.peak_pending_invals = len;
        }
    }

    /// Apply every buffered write notice: invalidate the named lines, flush
    /// any of our own pending data for them, and tell the homes we no
    /// longer cache them (which lets blocks revert from Weak).
    ///
    /// Returns the protocol-processor completion time.
    pub(crate) fn process_pending_invals(&mut self, p: ProcId, t: Cycle) -> Cycle {
        if self.nodes[p].pending_invals.is_empty() {
            // `inval_all` implies the set is empty (it collapsed into the
            // bit), so the overflow fallback costs one branch on a path the
            // unbounded configuration already takes.
            if self.nodes[p].inval_all {
                return self.process_inval_all(p, t);
            }
            return t;
        }
        // Drain into a pooled scratch vector and process in ascending line
        // order: the batch sends messages, so its order is part of the
        // simulator's deterministic behavior.
        let mut lines = std::mem::take(&mut self.inval_scratch);
        lines.extend(self.nodes[p].pending_invals.drain());
        lines.sort_unstable();
        let cost = lines.len() as u64 * self.cfg.write_notice_cost;
        let done = self.nodes[p].pp.occupy(t, cost);
        for &l0 in &lines {
            self.apply_acquire_inval(p, done, l0);
        }
        lines.clear();
        self.inval_scratch = lines;
        done
    }

    /// The write-notice buffer overflowed: conservatively invalidate every
    /// line this node holds in any structure — cache, coalescing buffer,
    /// and (lazy-ext) delayed-notice table — instead of a precise list.
    /// Each swept line pays the same per-line protocol-processor cost as a
    /// precise acquire invalidation.
    fn process_inval_all(&mut self, p: ProcId, t: Cycle) -> Cycle {
        self.nodes[p].inval_all = false;
        self.stats.resources.overflow_fallbacks += 1;
        let mut lines = std::mem::take(&mut self.inval_scratch);
        lines.extend(self.nodes[p].cache.iter().map(|r| r.line.0));
        lines.extend(self.nodes[p].cb.iter().map(|e| e.line.0));
        lines.extend(self.nodes[p].delayed_writes.keys().copied());
        lines.sort_unstable();
        lines.dedup();
        self.stats.resources.overflow_invalidations += lines.len() as u64;
        let cost = lines.len() as u64 * self.cfg.write_notice_cost;
        let done = self.nodes[p].pp.occupy(t, cost);
        for &l0 in &lines {
            self.apply_acquire_inval(p, done, l0);
        }
        lines.clear();
        self.inval_scratch = lines;
        done
    }

    /// One acquire-time invalidation: flush our own pending data for the
    /// line, drop the copy, and notify the home. Shared between the precise
    /// batch and the overflow sweep.
    fn apply_acquire_inval(&mut self, p: ProcId, done: Cycle, l0: u64) {
        let line = LineAddr(l0);
        self.stats.procs[p].acquire_invalidations += 1;
        // Our own unflushed writes to the line must reach memory first.
        if let Some(e) = self.nodes[p].cb.take(line) {
            self.send_write_through(p, done, e.line, e.words);
        }
        self.flush_deferred_notice(p, done, line);
        if let Some(ev) = self.nodes[p].cache.invalidate(line) {
            if let Some(c) = self.classifier.as_mut() {
                c.on_invalidate(p, line);
            }
            if self.obs.is_some() {
                self.obs_state(done, p, l0, StateChange::Invalidate { eager: false });
            }
            let home = self.home_of(line);
            let was_writer = ev.state == lrc_mem::LineState::ReadWrite;
            self.send(done, p, home, MsgKind::EvictNotify { line, was_writer });
        }
    }

    /// Lock and barrier protocol messages.
    pub(crate) fn handle_sync_msg(&mut self, t: Cycle, m: Msg) {
        match m.kind {
            MsgKind::LockAcq { lock } => {
                let h = m.dst;
                let done = self.nodes[h].pp.occupy(t, self.cfg.sync_service_cost);
                if let LockAction::Grant(n) = self.nodes[h].locks.acquire(lock, m.src) {
                    self.grant_log.push((lock, n));
                    self.send(done, h, n, MsgKind::LockGrant { lock });
                }
            }
            MsgKind::LockRel { lock } => {
                let h = m.dst;
                let done = self.nodes[h].pp.occupy(t, self.cfg.sync_service_cost);
                if let LockAction::Grant(n) = self.nodes[h].locks.release(lock, m.src) {
                    self.grant_log.push((lock, n));
                    self.send(done, h, n, MsgKind::LockGrant { lock });
                }
            }
            MsgKind::LockGrant { lock } => {
                let p = m.dst;
                if self.crash.is_some() && self.nodes[p].status != ProcStatus::WaitingLock(lock)
                {
                    // Crash recovery can self-grant a wait (degraded mode)
                    // or re-grant a reclaimed lock; a straggling real grant
                    // arriving afterwards must not double-resume.
                    return;
                }
                debug_assert_eq!(self.nodes[p].status, ProcStatus::WaitingLock(lock));
                self.stats.procs[p].lock_acquires += 1;
                self.note_race_acquire(p, lock);
                let resume_at = self.finish_acquire(p, t);
                if self.obs.is_some() {
                    self.obs_sync(resume_at, p, SyncOp::AcquireDone, lock as u64);
                }
                self.resume(p, resume_at);
            }
            MsgKind::BarrierArrive { bar } => {
                let h = m.dst;
                let done = self.nodes[h].pp.occupy(t, self.cfg.sync_service_cost);
                let expected = self.barrier_expected(h);
                if let Some(all) = self.nodes[h].barriers.arrive(bar, m.src, expected) {
                    let mut send_t = done;
                    for n in all {
                        send_t = self.nodes[h].pp.occupy(send_t, self.cfg.write_notice_cost);
                        self.send(send_t, h, n, MsgKind::BarrierRelease { bar });
                    }
                }
            }
            MsgKind::BarrierRelease { bar } => {
                let p = m.dst;
                if self.crash.is_some() && self.nodes[p].status != ProcStatus::InBarrier(bar) {
                    // Same drop guard as grants: recovery may already have
                    // released this waiter.
                    return;
                }
                debug_assert_eq!(self.nodes[p].status, ProcStatus::InBarrier(bar));
                self.stats.procs[p].barriers += 1;
                self.note_race_barrier_depart(p, bar);
                let resume_at = self.finish_acquire(p, t);
                if self.obs.is_some() {
                    self.obs_sync(resume_at, p, SyncOp::BarrierDone, bar as u64);
                }
                self.resume(p, resume_at);
            }
            _ => unreachable!("not a sync message: {:?}", m.kind),
        }
    }

    /// The acquire side of a grant/barrier-release: under the lazy
    /// protocols, process any write notices that arrived while we waited
    /// (the earlier batch ran under the wait's shadow).
    fn finish_acquire(&mut self, p: ProcId, t: Cycle) -> Cycle {
        if !self.protocol.is_lazy() {
            return t;
        }
        let base = t.max(self.nodes[p].inval_done_at);
        let done = self.process_pending_invals(p, base);
        self.nodes[p].inval_done_at = done;
        done
    }
}
