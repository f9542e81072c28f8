//! `lrc-mesh` — the interconnect substrate: a 2D mesh topology with
//! dimension-order routing distance and a timing model with endpoint
//! (NI-port) contention, matching the methodology of Section 3 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

pub mod fault;
mod json;
pub mod network;
pub mod topology;

pub use fault::{
    Arrival, CrashPlan, Delivery, FaultCounters, FaultPlan, FaultRates, MsgClass,
};
pub use network::{NetError, Network, NiBusy};
pub use topology::Mesh;
