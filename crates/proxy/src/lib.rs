//! # mutcon-proxy — the simulated proxy cache and experiment harness
//!
//! This crate is the paper's §6 methodology made executable: "an
//! event-based simulator \[of\] a proxy cache", with an infinitely large
//! cache, fixed network latency, and user-specified tolerances Δ and δ.
//!
//! * [`origin`] — the trace-driven origin server: answers
//!   `If-Modified-Since` polls from an [`UpdateTrace`], optionally with
//!   the §5.1 modification-history extension.
//! * [`cache`] — the bounded-LRU map each shard of the live proxy's
//!   object cache is built on.
//! * [`log`] — per-object poll logs, the raw material of every metric.
//! * [`schedule`] — the §3 scheduler (LIMD per object, Mt triggers
//!   across a group) as one clock-free state machine; the temporal
//!   driver steps it through simulated time and the live proxy's first
//!   reactor steps it on sockets.
//! * [`drivers`] — simulation drivers wiring the algorithms to the
//!   origin: temporal (periodic/LIMD ± Mt coordination, over
//!   [`schedule`]) and value (adaptive TTR, virtual-object, partitioned).
//! * [`metrics`] — *ground-truth* fidelity evaluation: unlike the proxy,
//!   the evaluator sees the full server history, so violations and
//!   out-of-sync time are exact (including the Figure 1(b) cases the
//!   proxy itself cannot observe).
//! * [`experiment`] — parameter sweeps that regenerate every figure of
//!   the evaluation; [`report`] renders them as tables.
//!
//! ```
//! use mutcon_core::time::Duration;
//! use mutcon_proxy::experiment::{individual_temporal_sweep, Fig3Config};
//! use mutcon_traces::NamedTrace;
//!
//! let trace = NamedTrace::CnnFn.generate();
//! let rows = individual_temporal_sweep(&trace, &[Duration::from_mins(10)], &Fig3Config::default());
//! assert_eq!(rows.len(), 1);
//! // LIMD never polls more than the every-Δ baseline.
//! assert!(rows[0].limd_polls <= rows[0].baseline_polls);
//! ```
//!
//! [`UpdateTrace`]: mutcon_traces::UpdateTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod cache;
pub mod drivers;
pub mod experiment;
pub mod log;
pub mod metrics;
pub mod origin;
pub mod report;
pub mod schedule;

pub use log::{PollLog, PollOutcome, PollRecord};
pub use origin::{HistorySupport, OriginResponse, OriginServer};
