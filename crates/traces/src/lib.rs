//! # mutcon-traces — workloads for the ICDCS'01 evaluation
//!
//! The paper evaluates against real traces collected in 2000: polls of
//! news pages (CNN/FN, NY Times AP & Reuters, Guardian — Table 2) and
//! stock quotes scraped from quote.yahoo.com (AT&T, Yahoo — Table 3).
//! Those artifacts no longer exist, so this crate provides *calibrated
//! synthetic equivalents*: generators whose outputs reproduce the
//! published statistics (duration, update count, mean inter-update gap,
//! price range) and the qualitative structure the algorithms exploit
//! (diurnal quiet periods for news, locality of rate-of-change for
//! stocks). Every named workload is pinned to a fixed seed, making all
//! experiments reproducible bit-for-bit.
//!
//! * [`model`] — the [`model::UpdateTrace`] type: an object's update
//!   history with optional values, plus time/version/value lookups.
//! * [`generator`] — the news (non-homogeneous Poisson with diurnal
//!   profile) and stock (mean-reverting bounded walk) generators.
//! * [`catalog`] — the six named workloads of Tables 2 and 3.
//! * [`stats`] — summaries and windowed update counts (Figures 4(a),
//!   6(a)).
//! * [`io`] — TSV persistence (from scratch).
//! * [`transform`] — time compression/shift/window utilities (used by the
//!   live proxy to replay multi-day traces in seconds).
//!
//! ```
//! use mutcon_traces::catalog::NamedTrace;
//!
//! let trace = NamedTrace::CnnFn.generate();
//! let summary = mutcon_traces::stats::summarize(&trace);
//! assert_eq!(summary.updates, 113); // Table 2: CNN/FN has 113 updates
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod generator;
pub mod io;
pub mod json;
pub mod model;
pub mod stats;
pub mod transform;

pub use catalog::NamedTrace;
pub use model::{UpdateEvent, UpdateTrace};
