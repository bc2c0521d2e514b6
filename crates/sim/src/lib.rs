//! # nashdb-sim
//!
//! Deterministic discrete-event simulation substrate used by the NashDB
//! reproduction.
//!
//! The original NashDB prototype ran on an AWS cluster; every algorithmic
//! decision it makes, however, consumes only logical observations (scan
//! streams, queue lengths, storage maps). This crate provides the pieces
//! needed to reproduce those observations deterministically on one machine:
//!
//! * [`time`] — an integer-nanosecond simulated clock ([`SimTime`],
//!   [`SimDuration`]) immune to floating-point drift,
//! * [`event`] — a stable-ordered event queue ([`EventQueue`]) driving the
//!   simulation loop: FIFO [`Lane`]s for streams scheduled in time order,
//!   per-server slots re-keyed in place, and a heap for everything else,
//!   popped in one `(time, insertion)` order,
//! * [`fault`] — deterministic seeded fault schedules ([`FaultSchedule`]):
//!   node crashes, crash-with-restart, and straggler windows,
//! * [`net`] — a contended shared-bandwidth link ([`SharedLink`]) from which
//!   the cluster's "one big switch" network model is assembled,
//! * [`rng`] — seeded random samplers (zipf, geometric, uniform, …) built
//!   on [`rand`] so that workload generation needs no extra dependencies,
//! * [`stats`] — streaming statistics (exact percentiles, time-bucketed
//!   series) used by the experiment harness.
//!
//! Everything here is deterministic under a fixed seed, which the test suite
//! and the experiment harness rely on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod fault;
pub mod net;
mod num;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, Lane};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, FaultScheduleConfig};
pub use net::SharedLink;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
