//! Consistent checkpoint/restore for live machines.
//!
//! [`MachineSnapshot::capture`] serializes a paused [`Machine`] into a
//! versioned `lrc-json` document; [`MachineSnapshot::restore`] rebuilds a
//! machine whose continued run is **bit-identical** to the uninterrupted
//! one (the state fingerprint and every statistic agree at every future
//! cycle).
//!
//! The document is the `Machine` state listing (`machine/mod.rs`) behind a
//! `version` stamp: every struct it reaches declares its fields, classes
//! and encodings once (see `crate::state` and DESIGN.md §9.1), so this
//! module holds only the version policy, the capture refusals, and the
//! few keys that are not one field's value. Rules that make the guarantee
//! hold:
//!
//! * **u64s travel as decimal strings** ([`lrc_json::Dec`]): JSON numbers
//!   are `f64`, exact only to 2^53, and tie keys, masks and RNG states
//!   exceed that. Node ids and counts stay numeric.
//! * **Deterministic order.** Listings emit in listing order and every
//!   hash-map table sorted, so serialize → parse → re-serialize, and
//!   capture → restore → capture, are byte-identical.
//! * **Workloads restore by replay**: the snapshot stores the workload's
//!   name and per-processor `next_op` counts, and restore fast-forwards a
//!   fresh instance, which [`Workload::next_op`]'s determinism makes exact.
//! * **Refuse what cannot round-trip**: trace sinks, latency probes,
//!   samplers, miss classification, checker-driven exploration and
//!   injected protocol bugs make capture return
//!   [`SnapshotError::Unsupported`]. The flight recorder is allowed: its
//!   ring is not saved, and restore re-arms an empty default-depth one.
//!
//! Sharded runs snapshot at window edges, where every cross-shard channel
//! is provably empty (see `machine::parallel`); each shard captures here.

use super::obs::DEFAULT_FLIGHT_CAP;
use super::{Event, Fault, Machine};
use crate::directory::NodeSet;
use crate::msg::Msg;
use lrc_json::{member, Cx, Dec, Entries, FromJson, Opt, Overlay, Plain, ToJson, Value, Via};
use lrc_mesh::FaultPlan;
use lrc_sim::{Cycle, EventQueue, LineMap, MachineConfig, Protocol, Workload};
use lrc_trace::FlightRecorder;
use std::collections::VecDeque;

/// Version stamp written into every snapshot. Bump on any schema change;
/// [`MachineSnapshot::parse`] rejects unknown versions with a typed error.
///
/// History:
/// * **v1** — initial format.
/// * **v2** — adds the crash-stop fault subsystem: a `crash` section in the
///   fault plan and at the document root, the `from` multiset on pending
///   ack collections, the `Crashed` processor status, the `Heartbeat`
///   message kind, and the `LeaseTick`/`CrashNode` events. Strictly
///   additive: v1 documents still load, with every new field defaulted to
///   its crashes-off value.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Oldest version this build still reads. Documents older than this (or
/// newer than [`SNAPSHOT_VERSION`]) fail with
/// [`SnapshotError::UnknownVersion`].
pub const MIN_SNAPSHOT_VERSION: u64 = 1;

/// Why a capture, parse, or restore failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The machine carries state this snapshot version does not serialize
    /// (trace sinks, probes, samplers, classification, checker-driven
    /// exploration), or the restore inputs do not match the snapshot
    /// (wrong workload, wrong processor count).
    Unsupported(String),
    /// The document's version stamp is not one this build understands —
    /// a snapshot from a future (or mangled) build.
    UnknownVersion {
        /// The version the document claims.
        found: u64,
    },
    /// The document is not a structurally valid snapshot: truncated JSON,
    /// missing or mistyped fields, or values violating state invariants.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported(what) => {
                write!(f, "snapshot unsupported: {what}")
            }
            SnapshotError::UnknownVersion { found } => write!(
                f,
                "unknown snapshot version {found} (this build reads versions \
                 {MIN_SNAPSHOT_VERSION} through {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

type R<T> = Result<T, SnapshotError>;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

fn unsupported(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Unsupported(msg.into())
}

// ------------------------------------------------ snapshot-only encodings
// The keys of the machine's state listing (`Machine` in `machine/mod.rs`)
// that are not one field's value.

/// `fault_plan`: the plan the interconnect carries. A crash-only plan
/// never activates the link-layer injector, so the network then holds no
/// plan; it is synthesized around the crash plan the machine kept, or
/// restore could not re-arm the subsystem. Loading installs it, which
/// creates the link-layer and crash state the later keys overlay.
pub(crate) enum PlanKey {}

impl Via<Machine> for PlanKey {
    fn enc(m: &Machine) -> Value {
        match (m.net.fault_plan(), m.crash.as_deref()) {
            (Some(plan), _) => plan.to_json(),
            (None, Some(c)) => FaultPlan::off(0).with_crash(c.plan.clone()).to_json(),
            (None, None) => Value::Null,
        }
    }
    fn dec_into(v: &Value, cx: &Cx, m: &mut Machine) -> Option<()> {
        if let Some(plan) = Opt::<Plain>::dec(v, cx)? {
            m.install_fault_plan(plan);
        }
        Some(())
    }
}

/// `now`: the event clock (the queue's entries follow under `queue`).
pub(crate) enum NowKey {}

impl Via<Machine> for NowKey {
    fn enc(m: &Machine) -> Value {
        Dec::enc(&m.queue.now())
    }
    fn dec_into(v: &Value, cx: &Cx, m: &mut Machine) -> Option<()> {
        m.queue = EventQueue::from_entries(Vec::new(), Dec::dec(v, cx)?, 0);
        Some(())
    }
}

/// `recorder_armed`: whether a flight recorder was armed. Its ring is not
/// saved (it never affects simulation); restore re-arms a default-depth
/// recorder so wedge diagnoses after a restore still carry an event tail.
pub(crate) enum RecorderKey {}

impl Via<Machine> for RecorderKey {
    fn enc(m: &Machine) -> Value {
        Value::Bool(m.obs.as_deref().is_some_and(|o| o.recorder.is_some()))
    }
    fn dec_into(v: &Value, _: &Cx, m: &mut Machine) -> Option<()> {
        if v.as_bool()? {
            let np = m.cfg.num_procs;
            m.obs_mut().recorder.get_or_insert_with(|| FlightRecorder::new(np, DEFAULT_FLIGHT_CAP));
        }
        Some(())
    }
}

/// One pending event with its deterministic tie key.
struct Queued {
    at: Cycle,
    key: u64,
    ev: Event,
}

lrc_json::json_struct!(Queued { at: Dec, key: Dec, ev });

/// `queue`: the high-water mark and every pending event with its time and
/// tie key, in firing order. Loads into the clock `now` already set.
pub(crate) enum Pending {}

impl Via<EventQueue<Event>> for Pending {
    fn enc(q: &EventQueue<Event>) -> Value {
        let events = q.pending_entries().into_iter();
        let events = events.map(|(at, key, ev)| Queued { at, key, ev: ev.clone() }.to_json());
        lrc_json::json!({ "peak": q.peak_len(), "events": events.collect::<Value>() })
    }
    fn dec_into(v: &Value, cx: &Cx, q: &mut EventQueue<Event>) -> Option<()> {
        let events = Vec::<Queued>::from_json_in(member(v, "events"), cx)?;
        let entries = events.into_iter().map(|e| (e.at, e.key, e.ev)).collect();
        *q = EventQueue::from_entries(entries, q.now(), usize::from_json(member(v, "peak"))?);
        Some(())
    }
}

/// `parked`: requests queued at busy homes, as rows
/// `{line, msgs: [{msg, at}]}` ascending by line; empty queues are omitted.
pub(crate) enum ParkedRows {}

/// One parked request and when it was parked.
struct ParkedMsg {
    msg: Msg,
    at: Cycle,
}

lrc_json::json_struct!(ParkedMsg { msg, at: Dec });

impl Via<LineMap<VecDeque<(Msg, Cycle)>>> for ParkedRows {
    fn enc(parked: &LineMap<VecDeque<(Msg, Cycle)>>) -> Value {
        let row = |(line, q): (u64, &VecDeque<(Msg, Cycle)>)| {
            let msgs = q.iter().map(|&(msg, at)| ParkedMsg { msg, at }.to_json());
            lrc_json::json!({ "line": Dec::enc(&line), "msgs": msgs.collect::<Value>() })
        };
        parked.iter().filter(|(_, q)| !q.is_empty()).map(row).collect()
    }
    fn dec(v: &Value, cx: &Cx) -> Option<LineMap<VecDeque<(Msg, Cycle)>>> {
        let mut parked = LineMap::new();
        for row in v.as_array()? {
            let msgs = Vec::<ParkedMsg>::from_json_in(member(row, "msgs"), cx)?;
            let q = msgs.into_iter().map(|p| (p.msg, p.at)).collect();
            parked.put(Dec::dec(member(row, "line"), cx)?, q).then_some(())?;
        }
        Some(parked)
    }
}

/// A captured machine state: a versioned JSON document that restores to a
/// machine whose continued run is bit-identical to the uninterrupted one.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    root: Value,
}

impl MachineSnapshot {
    /// Capture `m`'s complete simulation state. `m` must be paused between
    /// events (as [`Machine::run_until`] leaves it). Returns
    /// [`SnapshotError::Unsupported`] when the machine carries state the
    /// format does not serialize — see the module docs for the refusal set.
    pub fn capture(m: &Machine) -> R<Self> {
        if m.classifier.is_some() {
            return Err(unsupported("miss classification is enabled"));
        }
        if let Some(o) = m.obs.as_deref() {
            if o.sink.is_some() {
                return Err(unsupported("a structured trace sink is attached"));
            }
            if o.probe.is_some() {
                return Err(unsupported("latency probes are enabled"));
            }
            if o.sampler.is_some() {
                return Err(unsupported("the metrics sampler is enabled"));
            }
        }
        if m.choice_driven {
            return Err(unsupported("machine is driven by the model checker"));
        }
        if m.nack_nth.is_some() {
            return Err(unsupported("a nack_nth checker choice point is set"));
        }
        if m.fault != Fault::None {
            return Err(unsupported("an injected protocol bug is active"));
        }
        if m.shard.as_deref().is_some_and(|sh| !sh.outbox.is_empty()) {
            return Err(unsupported("shard outbox is not empty (capture only at window edges)"));
        }
        let Value::Object(state) = m.save() else { unreachable!("state listings save objects") };
        let mut root = vec![("version".to_string(), Value::from(SNAPSHOT_VERSION))];
        root.extend(state);
        Ok(MachineSnapshot { root: Value::Object(root) })
    }

    /// Serialize to the canonical pretty-printed JSON document.
    /// Serialize → [`MachineSnapshot::parse`] → serialize is
    /// byte-identical.
    pub fn to_json_string(&self) -> String {
        self.root.pretty()
    }

    /// Parse a snapshot document. Fails with
    /// [`SnapshotError::UnknownVersion`] for documents written by a
    /// different schema version and [`SnapshotError::Corrupt`] for
    /// truncated or malformed input — never panics.
    pub fn parse(s: &str) -> R<Self> {
        let root =
            lrc_json::parse(s).map_err(|e| corrupt(format!("JSON parse error: {e}")))?;
        let found = root
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| corrupt("missing snapshot version stamp"))?;
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&found) {
            return Err(SnapshotError::UnknownVersion { found });
        }
        Ok(MachineSnapshot { root })
    }

    /// The simulated cycle the machine was captured at.
    pub fn cycle(&self) -> Cycle {
        Dec::dec(member(&self.root, "now"), &Cx::UNBOUNDED).unwrap_or(0)
    }

    /// Name of the workload the captured run was executing.
    pub fn workload_name(&self) -> &str {
        member(member(&self.root, "workload"), "name").as_str().unwrap_or("")
    }

    /// The protocol the captured machine was simulating.
    pub fn protocol(&self) -> Option<Protocol> {
        Protocol::from_json(member(&self.root, "protocol"))
    }

    /// The captured machine configuration.
    pub fn config(&self) -> Option<MachineConfig> {
        MachineConfig::from_json(member(&self.root, "config"))
    }

    /// The fault plan active in the captured run, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        FaultPlan::from_json(member(&self.root, "fault_plan"))
    }

    /// Rebuild the captured machine. `workload` must be a **fresh**
    /// instance of the same workload the snapshot was taken under (matched
    /// by name and processor count); restore replays the consumed-op
    /// counts against it, which the [`Workload::next_op`] determinism
    /// contract makes exact. Drive the result with [`Machine::run_until`]
    /// and [`Machine::finish_run`] — do **not** call
    /// [`Machine::start_run`], the restored queue already holds the
    /// mid-run events.
    pub fn restore(&self, workload: Box<dyn Workload>) -> R<Machine> {
        let protocol = self.protocol().ok_or_else(|| corrupt("bad protocol"))?;
        let cfg = self.config().ok_or_else(|| corrupt("bad machine config"))?;
        cfg.validate().map_err(|e| corrupt(format!("bad machine config: {e}")))?;
        let np = cfg.num_procs;
        if np > NodeSet::CAPACITY {
            return Err(corrupt(format!("{np} processors exceed the directory's node sets")));
        }
        let wname = self.workload_name();
        if workload.name() != wname {
            return Err(unsupported(format!(
                "workload mismatch: snapshot was taken under `{wname}`, got `{}`",
                workload.name()
            )));
        }
        if workload.num_procs() != np {
            return Err(unsupported(format!(
                "workload has {} processors, snapshot machine has {np}",
                workload.num_procs()
            )));
        }
        let mut m = Machine::new(cfg, protocol);
        m.workload.w = workload;
        m.load(&self.root, &Cx { bound: np })
            .ok_or_else(|| corrupt("machine state does not match the snapshot format"))?;
        if m.finished > np {
            return Err(corrupt(format!("finished count {} exceeds {np}", m.finished)));
        }
        if m.stats.procs.len() != np {
            return Err(corrupt(format!("stats cover {} processors", m.stats.procs.len())));
        }
        Ok(m)
    }
}

impl Machine {
    /// Capture this machine's complete simulation state — see
    /// [`MachineSnapshot::capture`].
    pub fn snapshot(&self) -> Result<MachineSnapshot, SnapshotError> {
        MachineSnapshot::capture(self)
    }
}
