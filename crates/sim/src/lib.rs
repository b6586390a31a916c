//! # mutcon-sim — seeded randomness and the live reactors' primitives
//!
//! The paper's evaluation runs on "an event-based simulator \[of\] a proxy
//! cache that receives requests from several clients" (§6.1.1). The
//! simulated-time drivers that step it live in `mutcon-proxy`, each
//! advancing its own clock; this crate holds what they and the live
//! daemons share underneath:
//!
//! * [`rng`] — seeded random numbers and the distributions used by the
//!   trace generators (exponential, normal), so every simulation
//!   is bit-for-bit reproducible.
//! * [`reactor`] — hand-rolled `epoll` readiness primitives driving the
//!   live daemons' single-thread event loops.
//! * [`signal`] — a `SIGHUP` count, which a live daemon's event loop
//!   reads at each wake to re-read configuration on the conventional
//!   reload signal.
//!
//! ```
//! use mutcon_sim::SimRng;
//!
//! // The same seed draws the same numbers, run after run.
//! let (mut a, mut b) = (SimRng::seed_from_u64(7), SimRng::seed_from_u64(7));
//! let gaps: Vec<f64> = (0..3).map(|_| a.exponential(60.0)).collect();
//! assert!(gaps.iter().all(|&gap| gap >= 0.0));
//! assert_eq!(gaps, (0..3).map(|_| b.exponential(60.0)).collect::<Vec<_>>());
//! ```

// `deny` rather than `forbid`: the raw-syscall `reactor` and `signal`
// modules opt back in with a module-level allow; everything else stays
// safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod reactor;
pub mod rng;
pub mod signal;

pub use rng::SimRng;
