//! Simulated-time loops.
//!
//! Drivers wire the `mutcon-core` algorithms to the trace-driven origin,
//! each stepping its own simulated clock from one poll instant to the
//! next, and record every poll in a [`PollLog`](crate::log::PollLog):
//!
//! * [`temporal`] — Δt consistency (periodic baseline or LIMD) with
//!   optional Mt coordination (triggered polls / rate heuristic) across a
//!   group of objects.
//! * [`value`] — the two Mv approaches (virtual object, partitioned
//!   tolerance) over a pair of valued objects, each built on the §4.1
//!   adaptive TTR (Δv consistency). The §4 loops are not hosted in the
//!   §3 [`Schedule`](crate::schedule::Schedule): each is a few lines of
//!   "poll, ask the policy for the next instant" and needs none of its
//!   trigger queue, coordinator, width or in-flight ledger.

pub mod temporal;
pub mod value;

pub use temporal::{
    run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig, TemporalSimOutput,
};
pub use value::{run_value_pair, ValuePairOutput, ValuePairPolicy};
