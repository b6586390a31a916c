//! # mutcon-live — the consistency algorithms over real sockets
//!
//! The paper closes with "we plan to implement our techniques in the
//! Squid proxy cache". This crate is that step in miniature: a real TCP
//! **origin server** that replays update traces in wall-clock time, and a
//! real caching **proxy daemon** that maintains Δt and Mt consistency for
//! its cached objects with the very same `mutcon-core` algorithms the
//! simulator uses — LIMD-scheduled `If-Modified-Since` polls, triggered
//! polls across related objects, and the §5.1 protocol extensions on the
//! wire.
//!
//! Both daemons serve their connections from **one reactor thread per
//! core** (see [`server::default_reactors`]) over
//! the hand-rolled `epoll` poller in [`mutcon_sim::reactor`]: each
//! reactor owns an `SO_REUSEPORT` listener shard on the shared port,
//! per-connection state machines instead of a thread per connection,
//! and a keep-alive origin connection pool ([`upstream`]) that
//! coalesces identical concurrent misses into one fetch. One process
//! sustains hundreds of concurrent sockets (bounded by
//! `server::MAX_CONNS`). The proxy's cache
//! is sharded 16 ways by key hash ([`cache::ShardedCache`]), shared
//! across all reactors, so background refreshes don't serialize
//! concurrent hits.
//!
//! Multi-day traces replay in seconds through
//! [`mutcon_traces::transform::scale_time`]; millisecond-precise
//! modification times travel in the `x-last-modified-ms` extension header
//! (IMF-fixdates only resolve seconds).
//!
//! * [`server`] — the shared readiness-driven connection engine
//!   (multi-reactor event loop, one service instance per reactor,
//!   pooled nonblocking upstream fetches), and its fixed overload
//!   policy: park-and-`503` for clients parked at the connection bound.
//! * `conn` — a client connection's state machine and an origin socket's
//!   exchange, without their sockets.
//! * [`upstream`] — the keep-alive origin pool's bookkeeping (miss
//!   coalescing, idle reuse, stale-socket retry) and origin fan-out's
//!   one static bound, [`upstream::MAX_CONNS_PER_ORIGIN`].
//! * [`vectored`] — the zero-copy send path: per-connection write plans
//!   (contiguous head + shared body gathered by std's `write_vectored`,
//!   one `writev`).
//! * [`cache`] — the 16-way sharded object cache, CLOCK-evicting when bounded;
//!   entries pre-render their serving head so a hit is two shared
//!   slices, not a serialization.
//! * [`client`] — the origin `GET` bytes (a miss's and a poll's) and
//!   the stamps an origin response carries.
//! * [`metrics`] — the counter, gauge and histogram cells every count in
//!   the proxy lives in, and the one form a metric is declared in.
//! * [`origin`] — the trace-replaying origin server.
//! * [`proxy`] — the caching proxy daemon, whose first reactor steps
//!   the refresh plane (LIMD + mutual-consistency coordination) and
//!   sends its polls through its origin pool, plus the `/admin/*` HTTP
//!   control plane.
//! * [`runtime`] — the hot-swappable consistency runtime: the rules in
//!   force are the refresh plane's schedule, reconciled by each install
//!   under the plane's one lock, so Δ/TTR/group changes land without
//!   dropping the cache or any connection.
//!
//! ```no_run
//! use mutcon_core::time::Duration;
//! use mutcon_live::origin::LiveOrigin;
//! use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
//! use mutcon_traces::NamedTrace;
//! use mutcon_traces::transform::scale_time;
//!
//! # fn main() -> std::io::Result<()> {
//! // Replay the CNN/FN trace 100_000× faster than 2000-era reality.
//! let trace = scale_time(&NamedTrace::CnnFn.generate(), 1e-5).unwrap();
//! let origin = LiveOrigin::builder()
//!     .object("/news/cnn-fn.html", trace)
//!     .start()?;
//!
//! let proxy = LiveProxy::start(ProxyConfig {
//!     rules: vec![RefreshRule::new("/news/cnn-fn.html", Duration::from_millis(50))],
//!     ..ProxyConfig::new(origin.local_addr())
//! })?;
//! println!("proxy listening on {}", proxy.local_addr());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
mod conn;
pub mod metrics;
pub mod origin;
pub mod proxy;
pub mod runtime;
pub mod server;
pub mod upstream;
pub mod vectored;
#[cfg(test)]
mod wire;

// The unit tests share the integration tests' harness file, which names
// this crate.
#[cfg(test)]
extern crate self as mutcon_live;

pub use origin::LiveOrigin;
pub use proxy::{LiveProxy, ProxyConfig, RefreshRule};
pub use runtime::ConsistencyRuntime;
