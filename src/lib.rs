//! # mutcon — maintaining mutual consistency for cached web objects
//!
//! A full reproduction of *"Maintaining Mutual Consistency for Cached Web
//! Objects"* (Urgaonkar, Ninan, Raunak, Shenoy, Ramamritham — ICDCS
//! 2001): the adaptive cache-consistency algorithms, the event-driven
//! proxy simulator and workloads used to evaluate them, and a live TCP
//! proxy/origin pair running the same algorithms over real HTTP.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — consistency semantics and algorithms (LIMD, adaptive
//!   TTR, Mt/Mv coordinators, fidelity metrics).
//! * [`sim`] — seeded randomness for the simulator, and the raw-syscall
//!   `epoll` primitives the live reactors run on.
//! * [`http`] — a from-scratch HTTP/1.1 subset with the paper's §5.1
//!   extensions.
//! * [`traces`] — the calibrated synthetic workloads of Tables 2–3.
//! * [`proxy`] — the simulated proxy cache and the experiment harness
//!   regenerating every figure.
//! * [`live`] — the real-socket origin server and caching proxy daemon.
//!
//! ## Quick start
//!
//! ```
//! use mutcon::core::limd::{Limd, LimdConfig, PollResult};
//! use mutcon::core::time::{Duration, Timestamp};
//!
//! # fn main() -> Result<(), mutcon::core::error::ConfigError> {
//! // Keep one object Δt-consistent with Δ = 10 minutes.
//! let mut limd = Limd::new(LimdConfig::builder(Duration::from_mins(10)).build()?);
//! let now = Timestamp::ZERO + limd.current_ttr();
//! let decision = limd.on_poll(now, &PollResult::NotModified);
//! assert!(decision.ttr > Duration::from_mins(10)); // backing off already
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `cargo run -p mutcon-bench --bin repro --release -- all` for the full
//! paper reproduction.

pub use mutcon_core as core;
pub use mutcon_http as http;
pub use mutcon_live as live;
pub use mutcon_proxy as proxy;
pub use mutcon_sim as sim;
pub use mutcon_traces as traces;
