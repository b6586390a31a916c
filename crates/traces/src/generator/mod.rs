//! Synthetic workload generators.
//!
//! Both generators produce an exact, caller-chosen number of updates (so
//! Table 2/3 statistics reproduce precisely) while drawing the update
//! *placement* and *values* from seeded randomness:
//!
//! * [`news`] — update instants from a non-homogeneous Poisson process
//!   shaped by a diurnal activity profile (news rooms go quiet at night —
//!   the structure visible in Figure 4(a)).
//! * [`stock`] — update instants at jittered quasi-regular ticks, values
//!   from a mean-reverting bounded random walk (prices wander but stay in
//!   a band, giving the temporal locality the adaptive TTR exploits).
//! * [`zipf`] — a ranked object catalog with power-law popularity, the
//!   request-side companion to the update-side generators (shared by the
//!   benchmark's `hot_hit` load generator and the trace layer).

pub mod news;
pub mod stock;
pub mod zipf;

pub use news::{DiurnalProfile, NewsTraceBuilder};
pub use stock::StockTraceBuilder;
pub use zipf::{ZipfCatalog, ZipfCatalogBuilder};
