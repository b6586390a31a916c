//! # mutcon-core — mutual consistency for cached web objects
//!
//! This crate implements the consistency semantics and adaptive polling
//! algorithms of *"Maintaining Mutual Consistency for Cached Web Objects"*
//! (Urgaonkar, Ninan, Raunak, Shenoy, Ramamritham — ICDCS 2001): the
//! primary contribution of the paper, independent of any particular proxy,
//! simulator or transport.
//!
//! ## The problem
//!
//! A web proxy keeps cached objects fresh with per-object ("individual")
//! consistency mechanisms, but *related* objects — a breaking-news story
//! and its photos, two stock quotes a user is comparing — must also stay
//! consistent **with one another**. The paper formalizes both kinds of
//! guarantee in two domains (see [`semantics`]):
//!
//! | | individual | mutual |
//! |---|---|---|
//! | **temporal** | Δt: copy ≤ Δ stale | Mt: copies originated ≤ δ apart |
//! | **value** | Δv: `\|S−P\| < Δ` | Mv: `\|f(S_a,S_b) − f(P_a,P_b)\| < δ` |
//!
//! ## The algorithms
//!
//! * [`limd`] — linear-increase multiplicative-decrease adaptation of the
//!   poll interval (TTR) for Δt-consistency (§3.1); ε (0.02) and the
//!   adaptive `m`'s clamps (0.05–0.95) are constants.
//! * [`adaptive_ttr`] — rate-extrapolating TTR computation for
//!   Δv-consistency (§4.1); the smoothing weight w (0.5) and the TTR
//!   bounds (10 s–10 min) are constants, α is tunable.
//! * [`mutual::temporal`] — Mt coordination: triggered polls and the
//!   update-rate heuristic (§3.2).
//! * [`mutual::value`] — Mv coordination for `f(a, b) = a − b`, the `f`
//!   the paper evaluates: the virtual-object approach (θ feedback × 0.7,
//!   × 1.1, floor 0.05) and the partitioned-tolerance approach (§4.2).
//! * [`fidelity`] — the two fidelity metrics of the evaluation (§6.1.3).
//! * [`limit`] — the LIMD/AIMD shape applied to concurrency limits; only
//!   the benchmark drives it (`core.limit.on_sample_ns`).
//!
//! Their shared vocabulary: [`object`] (object ids), [`time`]
//! (millisecond instants and spans) and [`value`].
//!
//! ## Quick start
//!
//! Maintain Δt-consistency for one object and react to what polls find:
//!
//! ```
//! use mutcon_core::limd::{Limd, LimdCase, LimdConfig, PollResult};
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! # fn main() -> Result<(), mutcon_core::error::ConfigError> {
//! let config = LimdConfig::builder(Duration::from_mins(10)).build()?;
//! let mut limd = Limd::new(config);
//!
//! let mut now = Timestamp::ZERO + limd.current_ttr();
//! // Poll #1: the object did not change → back off linearly.
//! let decision = limd.on_poll(now, &PollResult::NotModified);
//! assert_eq!(decision.case, LimdCase::Unchanged);
//!
//! // Poll #2 happens one TTR later and finds a recent update → in sync.
//! now += decision.ttr;
//! let result = PollResult::modified(now - Duration::from_mins(3));
//! let decision = limd.on_poll(now, &result);
//! assert_eq!(decision.case, LimdCase::InSync);
//! # Ok(())
//! # }
//! ```
//!
//! The sibling crates build the rest of the paper's system on top of this
//! one: `mutcon-sim` (event-driven simulation), `mutcon-traces`
//! (workloads), `mutcon-proxy` (the simulated proxy cache and the
//! experiment harness) and `mutcon-http` + `mutcon-live` (a real HTTP
//! origin/proxy pair).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive_ttr;
pub mod error;
pub mod fidelity;
pub mod limd;
pub mod limit;
pub mod mutual;
pub mod object;
pub mod rate;
pub mod semantics;
pub mod time;
pub mod value;

pub use error::ConfigError;
pub use object::ObjectId;
pub use semantics::Semantics;
pub use time::{Duration, Timestamp};
pub use value::Value;
