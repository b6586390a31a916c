//! Simulated-time loops.
//!
//! Drivers wire the `mutcon-core` algorithms to the trace-driven origin,
//! each stepping its own simulated clock from one poll instant to the
//! next, and record every poll in a [`PollLog`](crate::log::PollLog):
//!
//! * [`temporal`] — Δt consistency (periodic baseline or LIMD) with
//!   optional Mt coordination (triggered polls / rate heuristic) across a
//!   group of objects.
//! * [`value`] — Δv consistency (adaptive TTR) and the two Mv approaches
//!   (virtual object, partitioned tolerance) over a pair of valued
//!   objects.

pub mod temporal;
pub mod value;

pub use temporal::{run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig, TemporalSimOutput};
pub use value::{
    run_value_individual, run_value_pair, ValuePairOutput, ValuePairPolicy,
};
