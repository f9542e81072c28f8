//! JSON form of the fault plan, as machine snapshots carry it
//! (`lrc_core::MachineSnapshot`): cycles and seeds are exact decimal
//! strings. The network's own checkpoint forms sit with its types.

use crate::fault::{CrashPlan, FaultCounters, FaultPlan, FaultRates, MsgClass};
use lrc_json::{json_struct, Dec, FromJson, Opt, Plain, Seq, ToJson, Value};

/// A message class travels as its [`MsgClass::index`].
impl ToJson for MsgClass {
    fn to_json(&self) -> Value {
        self.index().to_json()
    }
}

impl FromJson for MsgClass {
    fn from_json(v: &Value) -> Option<MsgClass> {
        MsgClass::ALL.get(usize::from_json(v)?).copied()
    }
}

json_struct!(FaultRates { drop, duplicate, delay, corrupt });

json_struct!(CrashPlan {
    victims: Seq<(Plain, Dec)>,
    crash_nth: Opt<(Plain, Dec)>,
    heartbeat_every: Dec,
    lease_timeout: Dec,
});

json_struct!(FaultPlan {
    seed: Dec,
    rates: Seq<Plain>,
    delay_cycles: Dec,
    drop_nth: Opt<(Plain, Dec)>,
    retry_timeout: Dec,
    max_retries,
    // Absent from v1 snapshots, which predate crash plans: `null`.
    crash,
});

json_struct!(FaultCounters { dropped: Dec, duplicated: Dec, delayed: Dec, corrupted: Dec });
