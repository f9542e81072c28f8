//! Processor front end: batched operation issue, the write-buffer pump,
//! write retirement, and line installation / eviction side effects.

use super::{Event, Machine};
use crate::msg::MsgKind;
use crate::node::{PendingSync, ProcStatus};
use lrc_mem::{CbPush, Eviction, LineState, WbPush};
use lrc_sim::{Cycle, LineAddr, Op, ProcId, StallKind};

impl Machine {
    /// Let processor `p` issue operations starting at time `t`, until it
    /// blocks or exhausts the skew quantum.
    pub(crate) fn proc_step(&mut self, p: ProcId, t: Cycle) {
        self.nodes[p].step_scheduled = false;
        if self.nodes[p].status != ProcStatus::Running {
            return;
        }
        let mut now = t;
        let deadline = t + self.cfg.skew_quantum;
        loop {
            let op = match self.nodes[p].deferred_op.take() {
                Some(op) => op,
                // The machine's only `next_op` call site: the slot counts
                // consumption, which checkpoints store instead of workload
                // internals (restore replays it against a fresh instance).
                None => self.workload.next_op(p),
            };
            match op {
                Op::Compute(c) => {
                    self.stats.procs[p].breakdown.add(StallKind::Cpu, u64::from(c));
                    now += u64::from(c);
                }
                Op::Read(a) => {
                    if !self.issue_read(p, now, a) {
                        return; // blocked on a read miss
                    }
                    self.stats.procs[p].breakdown.add(StallKind::Cpu, 1);
                    now += 1;
                }
                Op::Write(a) => match self.issue_write(p, now, a) {
                    WriteIssue::Issued => {
                        self.stats.procs[p].breakdown.add(StallKind::Cpu, 1);
                        now += 1;
                    }
                    WriteIssue::BlockedRetry => {
                        // Write-buffer full: re-issue this op on resume.
                        self.nodes[p].deferred_op = Some(op);
                        return;
                    }
                    WriteIssue::BlockedDone => {
                        // SC blocking write: the transaction itself commits
                        // the store; nothing to re-issue.
                        return;
                    }
                },
                Op::Acquire(l) => {
                    self.begin_acquire(p, now, l);
                    return;
                }
                Op::Release(l) => {
                    if let Some(resumed) = self.begin_release(p, now, PendingSync::LockRelease(l)) {
                        now = resumed;
                    } else {
                        return;
                    }
                }
                Op::Barrier(b) => {
                    // A barrier never completes synchronously: even when the
                    // fence is already clear the arrival round-trip remains.
                    let done = self.begin_release(p, now, PendingSync::Barrier(b));
                    debug_assert!(done.is_none());
                    return;
                }
                Op::Fence => {
                    now = self.do_fence(p, now);
                }
                Op::Done => {
                    self.nodes[p].status = ProcStatus::Finished;
                    self.stats.procs[p].finish_time = now;
                    self.finished += 1;
                    return;
                }
            }
            if now >= deadline {
                self.schedule_step(p, now);
                return;
            }
        }
    }

    /// Issue a read. Returns false (and blocks the processor) on a miss.
    fn issue_read(&mut self, p: ProcId, now: Cycle, a: u64) -> bool {
        self.stats.procs[p].reads += 1;
        self.stats.procs[p].refs += 1;
        self.note_race_read(p, a);
        let line = self.line_of(a);
        let hit = {
            let n = &mut self.nodes[p];
            // Read bypass on a cache miss: forwarding from the write buffer
            // (and, under the lazy protocols, the coalescing buffer).
            n.cache.touch_hit(line) || n.wb.matches(line) || n.cb.contains(line)
        };
        if hit {
            return true;
        }
        self.stats.procs[p].read_misses += 1;
        let word = self.word_of(a);
        self.classify(p, line, word, false);
        let home = self.home_of_touch(line, p);
        let o = self.nodes[p].outstanding.entry(line.0).or_default();
        o.waiting_data = true;
        o.resume_proc = true;
        self.send(now, p, home, MsgKind::ReadReq { line });
        self.block(p, now, StallKind::Read, ProcStatus::StalledRead(line));
        false
    }

    /// Issue a write. Under SC this may block the processor; under the
    /// relaxed protocols it may block on a full write buffer.
    fn issue_write(&mut self, p: ProcId, now: Cycle, a: u64) -> WriteIssue {
        let line = self.line_of(a);
        let word = self.word_of(a);
        let buffered = !self.protocol.stalls_on_write();
        if buffered && self.nodes[p].wb.is_full() && !self.nodes[p].wb.matches(line) {
            self.block(p, now, StallKind::Write, ProcStatus::StalledWriteFull);
            return WriteIssue::BlockedRetry;
        }
        self.stats.procs[p].writes += 1;
        self.stats.procs[p].refs += 1;
        if let Some(c) = self.classifier.as_mut() {
            c.record_write(p, line, word);
        }
        self.note_write(p, line, word);
        self.note_race_write(p, a);
        if buffered {
            let outcome = self.nodes[p].wb.push(line, word);
            debug_assert!(outcome != WbPush::Full);
            self.pump_write_buffer(p, now);
            return WriteIssue::Issued;
        }

        // Single-probe hit check: a read-write hit is touched and dirtied in
        // place; any other state starts a blocking write transaction.
        let st = self.nodes[p].cache.write_probe(line, word);
        if st == LineState::ReadWrite {
            return WriteIssue::Issued;
        }
        let upgrade = st == LineState::ReadOnly;
        if upgrade {
            self.stats.procs[p].upgrades += 1;
        } else {
            self.stats.procs[p].write_misses += 1;
        }
        self.classify(p, line, word, upgrade);
        let home = self.home_of_touch(line, p);
        let o = self.nodes[p].outstanding.entry(line.0).or_default();
        o.waiting_data = true;
        o.resume_proc = true;
        o.apply_words |= 1 << word;
        self.send(now, p, home, MsgKind::WriteReq { line, had_copy: upgrade, words: 0 });
        self.block(p, now, StallKind::Write, ProcStatus::StalledWrite(line));
        WriteIssue::BlockedDone
    }

    /// Start coherence actions for buffered writes that have none in flight,
    /// then retire whatever is ready.
    pub(crate) fn pump_write_buffer(&mut self, p: ProcId, now: Cycle) {
        loop {
            let (idx, line, words) = {
                match self.nodes[p].wb.next_unissued_idx() {
                    Some(i) => {
                        let e = self.nodes[p].wb.entry_mut(i);
                        e.issued = true;
                        (i, e.line, e.words)
                    }
                    None => break,
                }
            };
            let word = words.trailing_zeros() as usize;
            let st = self.nodes[p].cache.state(line);
            let home = self.home_of_touch(line, p);
            match st {
                // Write hit on a writable line: nothing to do.
                LineState::ReadWrite => {
                    self.nodes[p].wb.entry_mut(idx).ready = true;
                }
                LineState::ReadOnly => {
                    self.stats.procs[p].upgrades += 1;
                    self.classify(p, line, word, true);
                    let lazy = self.protocol.is_lazy();
                    if lazy {
                        // Retire immediately — the paper's key
                        // write-after-read optimization (no wait for the
                        // home when the line is already cached read-only).
                        self.nodes[p].cache.upgrade(line);
                        self.nodes[p].wb.entry_mut(idx).ready = true;
                    }
                    // Eager RC waits for the ownership grant (invalidation
                    // acks complete in the background); lazy waits only for
                    // the WriteReply itself; lazy-ext defers even the
                    // announcement to its release.
                    if !self.protocol.defers_notices() {
                        let o = self.nodes[p].outstanding.entry(line.0).or_default();
                        o.waiting_data = true;
                        o.retire_wb |= !lazy;
                        self.send(now, p, home, MsgKind::WriteReq { line, had_copy: true, words: 0 });
                    }
                }
                LineState::Invalid => {
                    self.stats.procs[p].write_misses += 1;
                    self.classify(p, line, word, false);
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    o.retire_wb = true;
                    // Lazy-ext's full miss is a plain data fetch: its write
                    // notice waits for the release.
                    let kind = if self.protocol.defers_notices() {
                        MsgKind::ReadReq { line }
                    } else {
                        MsgKind::WriteReq { line, had_copy: false, words: 0 }
                    };
                    self.send(now, p, home, kind);
                }
            }
        }
        self.retire_wb_entries(p, now);
    }

    /// Retire ready write-buffer entries (FIFO), unblocking the processor
    /// and the release fence as appropriate.
    pub(crate) fn retire_wb_entries(&mut self, p: ProcId, now: Cycle) {
        while let Some(front) = self.nodes[p].wb.front() {
            if !front.ready {
                break;
            }
            let line = front.line;
            // A queued-but-granted entry whose line was stolen (forwarded /
            // invalidated) before it reached the head must re-request — the
            // old grant no longer covers a cached copy.
            if !self.nodes[p].cache.contains(line)
                && !self.nodes[p].outstanding.contains_key(&line.0)
            {
                let f = self.nodes[p].wb.front_mut().expect("front exists");
                f.ready = false;
                f.issued = false;
                self.pump_write_buffer(p, now);
                return; // pump re-enters this function once serviced
            }
            let e = self.nodes[p].wb.pop_ready().expect("front is ready");
            self.install_written_line(p, now, e.line, e.words);
        }
        if self.nodes[p].status == ProcStatus::StalledWriteFull && !self.nodes[p].wb.is_full() {
            self.resume(p, now);
        }
        self.try_complete_release(p, now);
    }

    /// Commit a retired write into the cache (and the write-through path
    /// under the lazy protocols).
    pub(crate) fn install_written_line(&mut self, p: ProcId, now: Cycle, line: LineAddr, words: u64) {
        // One probe upgrades + touches + dirties a present line; only a
        // miss pays the full install path.
        if !self.nodes[p].cache.promote_written(line, words) {
            self.install_line(p, now, line, LineState::ReadWrite);
            self.nodes[p].cache.mark_dirty_words(line, words);
        }
        if self.protocol.defers_notices() {
            *self.nodes[p].delayed_writes.entry(line.0).or_insert(0) |= words;
        } else if self.protocol.is_lazy() {
            match self.nodes[p].cb.push_words(line, words) {
                CbPush::Merged => {}
                CbPush::Allocated => {
                    self.push_ev(now + self.cfg.cb_flush_delay, p, Event::CbFlush(p, line));
                }
                CbPush::Displaced(v) => {
                    self.send_write_through(p, now, v.line, v.words);
                    self.push_ev(now + self.cfg.cb_flush_delay, p, Event::CbFlush(p, line));
                }
            }
        }
    }

    /// Background coalescing-buffer drain timer.
    pub(crate) fn cb_flush_timer(&mut self, p: ProcId, t: Cycle, line: LineAddr) {
        if let Some(e) = self.nodes[p].cb.take(line) {
            self.send_write_through(p, t, e.line, e.words);
        }
    }

    /// Send one write-through flush to the line's home.
    pub(crate) fn send_write_through(&mut self, p: ProcId, now: Cycle, line: LineAddr, words: u64) {
        self.note_flush(p, line, words);
        self.nodes[p].wt_unacked += 1;
        let home = self.home_of(line);
        self.send(now, p, home, MsgKind::WriteThrough { line, words });
    }

    /// Bring `line` into `p`'s cache with the given permission, processing
    /// any eviction this causes.
    pub(crate) fn install_line(&mut self, p: ProcId, now: Cycle, line: LineAddr, state: LineState) {
        if self.obs.is_some() {
            let name = match state {
                LineState::ReadOnly => "read-only",
                LineState::ReadWrite => "read-write",
                LineState::Invalid => "invalid",
            };
            self.obs_state(now, p, line.0, lrc_trace::StateChange::Install { state: name });
        }
        if let Some(ev) = self.nodes[p].cache.insert(line, state) {
            self.handle_eviction(p, now, ev);
        }
    }

    /// Capacity/conflict eviction side effects: the line's coalescing-buffer
    /// entry and deferred write notice go out first, then a write-back
    /// (eager write-back caches, dirty line) or the replacement hint the
    /// directory needs.
    pub(crate) fn handle_eviction(&mut self, p: ProcId, now: Cycle, ev: Eviction) {
        let line = ev.line;
        if let Some(c) = self.classifier.as_mut() {
            c.on_evict(p, line);
        }
        // A dropped line needs no invalidation at the next acquire.
        self.nodes[p].pending_invals.remove(&line.0);
        if let Some(e) = self.nodes[p].cb.take(line) {
            self.send_write_through(p, now, e.line, e.words);
        }
        // Replacement forces the deferred write notice out now (this is
        // what bounds the delayed-write table by the cache size, as the
        // paper notes).
        self.flush_deferred_notice(p, now, line);
        let home = self.home_of(line);
        let was_writer = ev.state == LineState::ReadWrite;
        // Lazy caches write through: their dirty words already went home.
        if was_writer && ev.dirty_words != 0 && !self.protocol.is_lazy() {
            self.note_flush(p, line, ev.dirty_words);
            self.nodes[p].wbk_unacked += 1;
            self.send(now, p, home, MsgKind::WriteBack { line, words: ev.dirty_words });
        } else {
            self.send(now, p, home, MsgKind::EvictNotify { line, was_writer });
        }
    }

    /// Send lazy-ext's deferred write notice for `line`, if one is held:
    /// a `WriteReq` carrying the written words, which completes like any
    /// other transaction.
    pub(crate) fn flush_deferred_notice(&mut self, p: ProcId, now: Cycle, line: LineAddr) {
        if let Some(words) = self.nodes[p].delayed_writes.remove(&line.0) {
            self.note_flush(p, line, words);
            self.nodes[p].outstanding.entry(line.0).or_default().waiting_data = true;
            let home = self.home_of(line);
            self.send(now, p, home, MsgKind::WriteReq { line, had_copy: true, words });
        }
    }

    /// Record a classified miss if classification is enabled.
    pub(crate) fn classify(&mut self, p: ProcId, line: LineAddr, word: usize, upgrade: bool) {
        if let Some(c) = self.classifier.as_mut() {
            let cl = c.classify_miss(p, line, word, upgrade);
            self.stats.procs[p].miss_classes.record(cl);
        }
    }
}

/// Outcome of trying to issue a write op.
enum WriteIssue {
    /// Committed to the write buffer (or hit); the processor continues.
    Issued,
    /// Write buffer full: block and re-issue the op when space frees.
    BlockedRetry,
    /// SC blocking transaction issued: the completion path commits the
    /// store, so the op must not be re-issued.
    BlockedDone,
}
