//! # mutcon-http — a from-scratch HTTP/1.1 subset
//!
//! Every consistency mechanism in the paper rides on HTTP: the proxy
//! refreshes objects with `If-Modified-Since` requests, servers answer
//! `304 Not Modified` or `200 OK` with a `Last-Modified` stamp, and §5.1
//! proposes a protocol extension (a modification history) that makes
//! violation detection exact. This crate implements exactly that subset,
//! with no external HTTP dependencies:
//!
//! * [`types`] — methods, status codes, protocol versions.
//! * [`date`] — IMF-fixdate (`Sun, 06 Nov 1994 08:49:37 GMT`) parsing and
//!   formatting, mapped onto the workspace's [`Timestamp`].
//! * [`headers`] — a case-insensitive multi-map with typed accessors.
//! * [`message`] — request/response types with builders.
//! * [`parse`] — an incremental wire-format parser.
//! * [`conditional`] — the `If-Modified-Since` header of a §5 poll.
//! * [`connection`] — `Connection` header semantics (keep-alive vs
//!   close), used by the live proxy's persistent origin pool.
//! * [`extensions`] — the paper's §5.1 modification history,
//!   `X-Modification-History`.
//!
//! The `304`-or-`200` decision is the origins': they compare the
//! millisecond validator (`mutcon_live::client::validator_ms`), which
//! falls back to [`conditional::if_modified_since`].
//!
//! ```
//! use mutcon_http::message::Request;
//! use mutcon_http::parse::parse_request;
//! use mutcon_core::time::Timestamp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let req = Request::get("/news/story.html")
//!     .if_modified_since(Timestamp::from_secs(1_000_000_000))
//!     .build();
//! let wire = req.to_bytes();
//! let (parsed, consumed) = parse_request(&wire)?.expect("complete");
//! assert_eq!(consumed, wire.len());
//! assert_eq!(parsed.target(), "/news/story.html");
//! # Ok(())
//! # }
//! ```
//!
//! [`Timestamp`]: mutcon_core::time::Timestamp

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conditional;
pub mod connection;
pub mod date;
pub mod extensions;
pub mod headers;
pub mod message;
pub mod parse;
pub mod types;

pub use headers::{HeaderMap, HeaderName};
pub use message::{Request, Response};
pub use parse::ParseError;
pub use types::{Method, StatusCode};
