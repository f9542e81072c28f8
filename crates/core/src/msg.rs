//! Protocol message catalogue.
//!
//! Every coherence and synchronization interaction travels as a [`Msg`]
//! through the mesh model. Sizes follow the paper's cost model: control
//! messages are a bare header, data messages add a full cache line, and
//! write-through / write-back messages add only the dirty words.

use lrc_json::{json_enum, json_struct, Dec, Idx};
use lrc_sim::{BarrierId, LineAddr, LockId, NodeId, TrafficClass};

/// Grant mode returned by the home on a write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteGrant {
    /// No other copies needed notification/invalidation: the write has
    /// globally performed as far as the directory is concerned.
    Immediate,
    /// A weak transition (lazy) or invalidation round (eager) is in flight;
    /// a separate [`MsgKind::WriteAck`] arrives when all acks are collected.
    Pending,
}

/// Payload of a protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum MsgKind {
    // ---- requester → home -------------------------------------------------
    /// Read miss: fetch the line.
    ReadReq { line: LineAddr },
    /// Write announcement / ownership request.
    ///
    /// * Eager protocols: request exclusive ownership (`had_copy` = upgrade).
    /// * Lazy: announce this node is writing the line. `words` carries the
    ///   accumulated dirty words for the lazy-ext protocol's deferred
    ///   notices (zero for plain LRC, whose data flows via write-throughs).
    WriteReq { line: LineAddr, had_copy: bool, words: u64 },
    /// Flush of one coalescing-buffer entry to home memory (lazy).
    WriteThrough { line: LineAddr, words: u64 },
    /// Write-back of a dirty evicted line (eager protocols).
    WriteBack { line: LineAddr, words: u64 },
    /// The sender no longer caches the line (clean eviction, or an
    /// acquire-time invalidation under the lazy protocols).
    EvictNotify { line: LineAddr, was_writer: bool },

    // ---- home → requester -------------------------------------------------
    /// Line data (or permission) reply to a read miss. `weak` tells a lazy
    /// requester to self-invalidate at its next acquire.
    ReadReply { line: LineAddr, weak: bool },
    /// Reply to a write request. `with_data` when the home had to supply the
    /// line (requester had no copy); `weak` as for reads.
    WriteReply { line: LineAddr, grant: WriteGrant, with_data: bool, weak: bool },
    /// Final acknowledgement once a pending collection completes.
    WriteAck { line: LineAddr },
    /// Acknowledgement of a write-through flush.
    WriteThroughAck { line: LineAddr },
    /// Acknowledgement of a write-back.
    WriteBackAck { line: LineAddr },

    // ---- home → third parties ---------------------------------------------
    /// Eager invalidation of a cached copy.
    Invalidate { line: LineAddr },
    /// Lazy write notice: invalidate at your next acquire.
    WriteNotice { line: LineAddr },
    /// 3-hop forward of a request to the dirty owner (eager protocols).
    /// `ep` identifies the forward episode so late replies can be told
    /// apart from the current one.
    Forward { line: LineAddr, requester: NodeId, for_write: bool, ep: u64 },

    // ---- third parties → home / requester ----------------------------------
    /// Invalidation acknowledgement.
    InvAck { line: LineAddr },
    /// Write-notice acknowledgement.
    NoticeAck { line: LineAddr },
    /// Owner's data reply to a forwarded request (3-hop second leg).
    OwnerData { line: LineAddr, for_write: bool },
    /// Owner's concurrent copy-back to the home (3-hop third leg).
    CopyBack { line: LineAddr, demoted_to_shared: bool, ep: u64 },
    /// Owner no longer holds the line (raced with an eviction): the home
    /// must serve the forwarded request from memory.
    ForwardNack { line: LineAddr, requester: NodeId, for_write: bool, ep: u64 },

    // ---- synchronization ---------------------------------------------------
    /// Request lock ownership.
    LockAcq { lock: LockId },
    /// Lock granted.
    LockGrant { lock: LockId },
    /// Release lock ownership.
    LockRel { lock: LockId },
    /// Arrival at a barrier.
    BarrierArrive { bar: BarrierId },
    /// All processors arrived: proceed.
    BarrierRelease { bar: BarrierId },

    // ---- finite resources ---------------------------------------------------
    // (Appended last: the derived `Hash` folds the variant index, and the
    // golden fingerprints depend on the indices above staying put.)
    /// Home → requester: the directory entry is busy with an in-flight
    /// transaction and no request slot is free — retry after backoff. The
    /// remaining fields echo the rejected request so the requester can
    /// reconstruct it verbatim (`for_write` picks `WriteReq` vs `ReadReq`;
    /// `attempt` scales the retry backoff).
    BusyNack { line: LineAddr, for_write: bool, had_copy: bool, words: u64, attempt: u32 },

    /// Home → owner: the forward episode `ep` was cancelled (the home
    /// resolved it from memory because the owner's own request for the same
    /// line arrived first). The owner drops the matching parked forward.
    /// Ordering makes this race-free: on a given home→owner channel the
    /// `Forward` always arrives before its `ForwardCancel`.
    ForwardCancel { line: LineAddr, ep: u64 },

    // ---- failure detection ---------------------------------------------------
    /// "I am alive": periodic lease renewal sent to every peer while a
    /// crash plan is armed. Carries no line and needs no reply — silence
    /// past the lease bound is itself the signal.
    Heartbeat,
}

/// A routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub kind: MsgKind,
}

json_struct!(Msg { src: Idx, dst: Idx, kind });

json_enum!(WriteGrant as str { Immediate => "immediate", Pending => "pending" });

json_enum!(MsgKind {
    ReadReq { line: Dec } => "ReadReq",
    WriteReq { line: Dec, had_copy, words: Dec } => "WriteReq",
    WriteThrough { line: Dec, words: Dec } => "WriteThrough",
    WriteBack { line: Dec, words: Dec } => "WriteBack",
    EvictNotify { line: Dec, was_writer } => "EvictNotify",
    ReadReply { line: Dec, weak } => "ReadReply",
    WriteReply { line: Dec, grant, with_data, weak } => "WriteReply",
    WriteAck { line: Dec } => "WriteAck",
    WriteThroughAck { line: Dec } => "WriteThroughAck",
    WriteBackAck { line: Dec } => "WriteBackAck",
    Invalidate { line: Dec } => "Invalidate",
    WriteNotice { line: Dec } => "WriteNotice",
    Forward { line: Dec, requester as "req": Idx, for_write, ep: Dec } => "Forward",
    InvAck { line: Dec } => "InvAck",
    NoticeAck { line: Dec } => "NoticeAck",
    OwnerData { line: Dec, for_write } => "OwnerData",
    CopyBack { line: Dec, demoted_to_shared as "demoted", ep: Dec } => "CopyBack",
    ForwardNack { line: Dec, requester as "req": Idx, for_write, ep: Dec } => "ForwardNack",
    LockAcq { lock } => "LockAcq",
    LockGrant { lock } => "LockGrant",
    LockRel { lock } => "LockRel",
    BarrierArrive { bar } => "BarrierArrive",
    BarrierRelease { bar } => "BarrierRelease",
    BusyNack { line: Dec, for_write, had_copy, words: Dec, attempt } => "BusyNack",
    ForwardCancel { line: Dec, ep: Dec } => "ForwardCancel",
    Heartbeat {} => "Heartbeat",
});

impl MsgKind {
    /// Wire size in bytes, given the machine's header/line/word sizes.
    pub fn bytes(&self, header: u64, line_size: u64, word_size: u64) -> u64 {
        match *self {
            MsgKind::ReadReply { .. } | MsgKind::OwnerData { .. } => header + line_size,
            MsgKind::WriteReply { with_data, .. } => {
                header + if with_data { line_size } else { 0 }
            }
            MsgKind::CopyBack { .. } => header + line_size,
            MsgKind::WriteThrough { words, .. }
            | MsgKind::WriteBack { words, .. }
            | MsgKind::WriteReq { words, .. } => header + u64::from(words.count_ones()) * word_size,
            _ => header,
        }
    }

    /// Traffic class for accounting.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            MsgKind::ReadReply { .. } | MsgKind::OwnerData { .. } | MsgKind::CopyBack { .. } => {
                TrafficClass::Data
            }
            MsgKind::WriteReply { with_data: true, .. } => TrafficClass::Data,
            MsgKind::WriteThrough { .. } | MsgKind::WriteBack { .. } => TrafficClass::WriteData,
            MsgKind::WriteReq { words, .. } if *words != 0 => TrafficClass::WriteData,
            _ => TrafficClass::Control,
        }
    }

    /// The line this message concerns, if any (sync messages have none).
    pub fn line(&self) -> Option<LineAddr> {
        match *self {
            MsgKind::ReadReq { line }
            | MsgKind::WriteReq { line, .. }
            | MsgKind::WriteThrough { line, .. }
            | MsgKind::WriteBack { line, .. }
            | MsgKind::EvictNotify { line, .. }
            | MsgKind::ReadReply { line, .. }
            | MsgKind::WriteReply { line, .. }
            | MsgKind::WriteAck { line }
            | MsgKind::WriteThroughAck { line }
            | MsgKind::WriteBackAck { line }
            | MsgKind::Invalidate { line }
            | MsgKind::WriteNotice { line }
            | MsgKind::Forward { line, .. }
            | MsgKind::InvAck { line }
            | MsgKind::NoticeAck { line }
            | MsgKind::OwnerData { line, .. }
            | MsgKind::CopyBack { line, .. }
            | MsgKind::ForwardNack { line, .. }
            | MsgKind::BusyNack { line, .. }
            | MsgKind::ForwardCancel { line, .. } => Some(line),
            _ => None,
        }
    }

    /// Stable variant name for trace records and exports.
    pub fn name(&self) -> &'static str {
        match self {
            MsgKind::ReadReq { .. } => "ReadReq",
            MsgKind::WriteReq { .. } => "WriteReq",
            MsgKind::WriteThrough { .. } => "WriteThrough",
            MsgKind::WriteBack { .. } => "WriteBack",
            MsgKind::EvictNotify { .. } => "EvictNotify",
            MsgKind::ReadReply { .. } => "ReadReply",
            MsgKind::WriteReply { .. } => "WriteReply",
            MsgKind::WriteAck { .. } => "WriteAck",
            MsgKind::WriteThroughAck { .. } => "WriteThroughAck",
            MsgKind::WriteBackAck { .. } => "WriteBackAck",
            MsgKind::Invalidate { .. } => "Invalidate",
            MsgKind::WriteNotice { .. } => "WriteNotice",
            MsgKind::Forward { .. } => "Forward",
            MsgKind::InvAck { .. } => "InvAck",
            MsgKind::NoticeAck { .. } => "NoticeAck",
            MsgKind::OwnerData { .. } => "OwnerData",
            MsgKind::CopyBack { .. } => "CopyBack",
            MsgKind::ForwardNack { .. } => "ForwardNack",
            MsgKind::LockAcq { .. } => "LockAcq",
            MsgKind::LockGrant { .. } => "LockGrant",
            MsgKind::LockRel { .. } => "LockRel",
            MsgKind::BarrierArrive { .. } => "BarrierArrive",
            MsgKind::BarrierRelease { .. } => "BarrierRelease",
            MsgKind::BusyNack { .. } => "BusyNack",
            MsgKind::ForwardCancel { .. } => "ForwardCancel",
            MsgKind::Heartbeat => "Heartbeat",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: u64 = 8;
    const L: u64 = 128;
    const W: u64 = 4;

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn control_messages_are_header_only() {
        assert_eq!(MsgKind::ReadReq { line: l(1) }.bytes(H, L, W), 8);
        assert_eq!(MsgKind::WriteAck { line: l(1) }.bytes(H, L, W), 8);
        assert_eq!(MsgKind::LockAcq { lock: 0 }.bytes(H, L, W), 8);
        assert_eq!(
            MsgKind::EvictNotify { line: l(1), was_writer: true }.bytes(H, L, W),
            8
        );
    }

    #[test]
    fn data_messages_carry_a_line() {
        assert_eq!(MsgKind::ReadReply { line: l(1), weak: false }.bytes(H, L, W), 136);
        assert_eq!(
            MsgKind::OwnerData { line: l(1), for_write: false }.bytes(H, L, W),
            136
        );
        let wr = MsgKind::WriteReply {
            line: l(1),
            grant: WriteGrant::Immediate,
            with_data: true,
            weak: false,
        };
        assert_eq!(wr.bytes(H, L, W), 136);
        let wr_nodata = MsgKind::WriteReply {
            line: l(1),
            grant: WriteGrant::Pending,
            with_data: false,
            weak: true,
        };
        assert_eq!(wr_nodata.bytes(H, L, W), 8);
    }

    #[test]
    fn write_payloads_scale_with_dirty_words() {
        let wt = MsgKind::WriteThrough { line: l(1), words: 0b1011 };
        assert_eq!(wt.bytes(H, L, W), 8 + 3 * 4);
        let wb = MsgKind::WriteBack { line: l(1), words: u64::MAX >> 32 };
        assert_eq!(wb.bytes(H, L, W), 8 + 32 * 4);
        // Lazy-ext write request carrying deferred words.
        let wreq = MsgKind::WriteReq { line: l(1), had_copy: true, words: 0b11 };
        assert_eq!(wreq.bytes(H, L, W), 16);
    }

    #[test]
    fn traffic_classes() {
        assert_eq!(
            MsgKind::ReadReq { line: l(1) }.traffic_class(),
            TrafficClass::Control
        );
        assert_eq!(
            MsgKind::ReadReply { line: l(1), weak: false }.traffic_class(),
            TrafficClass::Data
        );
        assert_eq!(
            MsgKind::WriteThrough { line: l(1), words: 1 }.traffic_class(),
            TrafficClass::WriteData
        );
        assert_eq!(
            MsgKind::WriteReq { line: l(1), had_copy: true, words: 0 }.traffic_class(),
            TrafficClass::Control
        );
    }

    #[test]
    fn line_extraction() {
        assert_eq!(MsgKind::ReadReq { line: l(9) }.line(), Some(l(9)));
        assert_eq!(MsgKind::LockAcq { lock: 3 }.line(), None);
        assert_eq!(MsgKind::BarrierArrive { bar: 0 }.line(), None);
        let nack =
            MsgKind::BusyNack { line: l(9), for_write: true, had_copy: false, words: 0, attempt: 1 };
        assert_eq!(nack.line(), Some(l(9)));
        assert_eq!(nack.bytes(H, L, W), 8, "a NACK is a bare header");
        assert_eq!(nack.traffic_class(), TrafficClass::Control);
        assert_eq!(MsgKind::Heartbeat.line(), None);
        assert_eq!(MsgKind::Heartbeat.bytes(H, L, W), 8, "a heartbeat is a bare header");
        assert_eq!(MsgKind::Heartbeat.traffic_class(), TrafficClass::Control);
    }
}
