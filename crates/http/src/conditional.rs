//! The `If-Modified-Since` header of a §5 poll.
//!
//! A TTR expiry turns into an `If-Modified-Since` poll: the proxy sends
//! the modification time of its cached copy, and the origin answers
//! `304 Not Modified` or `200 OK` with a fresh copy. The origins decide
//! on the millisecond validator (`mutcon_live::client::validator_ms`),
//! which falls back to this header.

use mutcon_core::time::Timestamp;

use crate::headers::HeaderName;
use crate::message::Request;

/// Extracts and parses the `If-Modified-Since` header of a request.
///
/// Returns `None` when the header is absent *or* unparseable — RFC 7232
/// instructs servers to ignore invalid dates, which degrades the request
/// to an unconditional fetch.
pub fn if_modified_since(request: &Request) -> Option<Timestamp> {
    crate::date::parse_http_date(request.headers().get(HeaderName::IF_MODIFIED_SINCE)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_header() {
        let t = Timestamp::from_secs(784_111_777);
        let req = Request::get("/x").if_modified_since(t).build();
        assert_eq!(if_modified_since(&req), Some(t));
    }

    #[test]
    fn missing_or_invalid_header_is_none() {
        let req = Request::get("/x").build();
        assert_eq!(if_modified_since(&req), None);
        let req = Request::get("/x")
            .header(HeaderName::IF_MODIFIED_SINCE, "not a date")
            .build();
        assert_eq!(if_modified_since(&req), None);
    }
}
