//! # mutcon-sim — deterministic discrete-event simulation
//!
//! The paper's evaluation runs on "an event-based simulator \[of\] a proxy
//! cache that receives requests from several clients" (§6.1.1). This crate
//! is that substrate: a minimal, fully deterministic discrete-event engine
//! with a virtual clock, plus the seeded randomness the workloads need.
//!
//! * [`queue`] — the event queue: schedule/cancel/pop with a virtual
//!   clock and deterministic FIFO tie-breaking for simultaneous events.
//! * [`rng`] — seeded random numbers and the distributions used by the
//!   trace generators (exponential, normal, Poisson).
//! * [`reactor`] — hand-rolled `epoll` readiness primitives driving the
//!   live daemons' single-thread event loops.
//! * [`signal`] — self-pipe `SIGHUP` dispatch, so the live daemons can
//!   re-read configuration on the conventional reload signal.
//!
//! ```
//! use mutcon_sim::queue::EventQueue;
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_after(Duration::from_secs(2), "second");
//! q.schedule_after(Duration::from_secs(1), "first");
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(1), "first")));
//! assert_eq!(q.pop(), Some((Timestamp::from_secs(2), "second")));
//! assert_eq!(q.now(), Timestamp::from_secs(2));
//! ```

// `deny` rather than `forbid`: the raw-syscall `reactor` and `signal`
// modules opt back in with a module-level allow; everything else stays
// safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;
pub mod reactor;
pub mod rng;
pub mod signal;

pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
