//! `Connection` header semantics: connection persistence (keep-alive).
//!
//! HTTP/1.1 connections are persistent unless a `Connection: close` is
//! present; HTTP/1.0 connections close unless `Connection: keep-alive`
//! is present (RFC 7230 §6.3). The header value is a comma-separated,
//! case-insensitive token list, possibly spread across repeated fields —
//! `Connection: keep-alive, x-extension` and two separate `Connection`
//! lines mean the same thing.
//!
//! The 2001-era upstream client opened one socket per request
//! (`Connection: close` semantics); the live proxy's keep-alive origin
//! pool relies on these helpers to decide, per message, whether the
//! peer will keep the socket open for the next request.

use crate::headers::{HeaderMap, HeaderName};
use crate::types::HttpVersion;

/// The `Connection` token requesting persistence.
pub(crate) const KEEP_ALIVE: &str = "keep-alive";
/// The `Connection` token requesting teardown after this message.
pub(crate) const CLOSE: &str = "close";

/// Whether any `Connection` field contains `token` (case-insensitive,
/// comma-separated lists across repeated fields per RFC 7230 §6.1).
pub(crate) fn connection_has_token(headers: &HeaderMap, token: &str) -> bool {
    headers
        .get_all(HeaderName::CONNECTION)
        .flat_map(|value| value.split(','))
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Whether the peer that sent a message with these `version` + `headers`
/// will keep the connection open for another message.
///
/// * HTTP/1.1 — persistent unless `Connection: close`.
/// * HTTP/1.0 — closes unless `Connection: keep-alive`.
pub fn wants_keep_alive(version: HttpVersion, headers: &HeaderMap) -> bool {
    match version {
        HttpVersion::V11 => !connection_has_token(headers, CLOSE),
        HttpVersion::V10 => connection_has_token(headers, KEEP_ALIVE),
    }
}

/// Marks a message as keep-alive: replaces any `Connection` field with
/// `keep-alive`. Explicit even on HTTP/1.1 (where it is the default) so
/// 2001-era HTTP/1.0 intermediaries hold the socket open too.
pub fn set_keep_alive(headers: &mut HeaderMap) {
    headers.insert(HeaderName::CONNECTION, KEEP_ALIVE);
}

/// Marks a message as the last on its connection: replaces any
/// `Connection` field with `close`.
pub(crate) fn set_close(headers: &mut HeaderMap) {
    headers.insert(HeaderName::CONNECTION, CLOSE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, Response};
    use crate::parse::{parse_request, parse_response};

    #[test]
    fn http11_defaults_to_keep_alive() {
        let req = Request::get("/x").build();
        assert!(wants_keep_alive(req.version(), req.headers()));
        let resp = Response::ok().build();
        assert!(wants_keep_alive(resp.version(), resp.headers()));
    }

    #[test]
    fn http11_close_token_closes() {
        let req = Request::get("/x").connection_close().build();
        assert!(!wants_keep_alive(req.version(), req.headers()));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = Request::get("/x").version(HttpVersion::V10).build();
        assert!(!wants_keep_alive(req.version(), req.headers()));
        let kept = Request::get("/x")
            .version(HttpVersion::V10)
            .keep_alive()
            .build();
        assert!(wants_keep_alive(kept.version(), kept.headers()));
    }

    #[test]
    fn token_matching_is_case_insensitive_and_list_aware() {
        let mut headers = HeaderMap::new();
        headers.insert(HeaderName::CONNECTION, "Keep-Alive, X-Extension");
        assert!(connection_has_token(&headers, "keep-alive"));
        assert!(connection_has_token(&headers, "x-extension"));
        assert!(!connection_has_token(&headers, "close"));

        // Tokens spread across repeated fields count too.
        let mut headers = HeaderMap::new();
        headers.append(HeaderName::CONNECTION, "x-extension");
        headers.append(HeaderName::CONNECTION, " CLOSE ");
        assert!(connection_has_token(&headers, "close"));
    }

    #[test]
    fn set_helpers_replace_existing_fields() {
        let mut headers = HeaderMap::new();
        headers.append(HeaderName::CONNECTION, "close");
        headers.append(HeaderName::CONNECTION, "x-old");
        set_keep_alive(&mut headers);
        assert_eq!(
            headers.get_all(HeaderName::CONNECTION).collect::<Vec<_>>(),
            vec![KEEP_ALIVE]
        );
        set_close(&mut headers);
        assert_eq!(
            headers.get_all(HeaderName::CONNECTION).collect::<Vec<_>>(),
            vec![CLOSE]
        );
    }

    #[test]
    fn keep_alive_round_trips_on_the_wire() {
        // Request: builder → bytes → parser preserves the semantics.
        let req = Request::get("/pool").keep_alive().build();
        let (parsed, _) = parse_request(&req.to_bytes()).unwrap().unwrap();
        assert_eq!(
            parsed.headers().get(HeaderName::CONNECTION),
            Some(KEEP_ALIVE)
        );
        assert!(wants_keep_alive(parsed.version(), parsed.headers()));

        let req = Request::get("/last").connection_close().build();
        let (parsed, _) = parse_request(&req.to_bytes()).unwrap().unwrap();
        assert!(!wants_keep_alive(parsed.version(), parsed.headers()));

        // Response: same round trip.
        let resp = Response::ok().keep_alive().body(&b"x"[..]).build();
        let (parsed, _) = parse_response(&resp.to_bytes()).unwrap().unwrap();
        assert!(wants_keep_alive(parsed.version(), parsed.headers()));

        let resp = Response::ok().connection_close().build();
        let (parsed, _) = parse_response(&resp.to_bytes()).unwrap().unwrap();
        assert!(!wants_keep_alive(parsed.version(), parsed.headers()));
    }
}
