//! What the proxy says to its origin and reads back: the `GET` bytes of
//! a miss and of a refresher poll, and the stamps a response carries.
//! The reactor's pooled sockets carry both (`OriginConn`, `conn.rs`), so
//! polls and misses share one reuse and stale-socket rule.

use mutcon_core::time::Timestamp;
use mutcon_http::date::{parse_http_date, write_http_date};
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{push_decimal, Request, Response};

/// Extension header carrying millisecond-precise modification times (the
/// IMF-fixdate in `Last-Modified` only resolves seconds, too coarse for
/// compressed trace replay).
pub const X_LAST_MODIFIED_MS: &str = "x-last-modified-ms";

/// A keep-alive `GET` to the origin, written straight into one buffer:
/// what the proxy sends for a cache miss (no validator) and for a
/// refresher poll (the cached copy's stamp, as `If-Modified-Since` and as
/// the millisecond extension header). The bytes are also the origin
/// pool's coalescing key.
pub fn get_wire(path: &str, host: &str, validator_ms: Option<Timestamp>) -> Vec<u8> {
    let mut wire = Vec::with_capacity(path.len() + host.len() + 160);
    wire.extend_from_slice(b"GET ");
    wire.extend_from_slice(path.as_bytes());
    wire.extend_from_slice(b" HTTP/1.1\r\nhost: ");
    wire.extend_from_slice(host.as_bytes());
    if let Some(v) = validator_ms {
        wire.extend_from_slice(b"\r\nif-modified-since: ");
        write_http_date(&mut wire, v);
        wire.extend_from_slice(b"\r\nx-last-modified-ms: ");
        push_decimal(&mut wire, v.as_millis());
    }
    wire.extend_from_slice(b"\r\nconnection: keep-alive\r\n\r\n");
    wire
}

/// The target of the `GET` request line `wire` starts with: the inverse
/// of [`get_wire`], so a fetch's path is read back from the bytes it
/// sent rather than carried beside them. `None` unless `wire` starts
/// with `GET <target> HTTP/1.1\r\n`.
pub fn wire_target(wire: &[u8]) -> Option<&str> {
    let rest = wire.strip_prefix(b"GET ")?;
    let end = rest.iter().position(|&b| b == b' ')?;
    let target = std::str::from_utf8(&rest[..end]).ok()?;
    rest[end..].starts_with(b" HTTP/1.1\r\n").then_some(target)
}

/// What an origin response says about its object, read from the headers
/// in one walk (the first field of each name counts, as with `get`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectStamps<'a> {
    /// `x-last-modified-ms`, else (absent or malformed) `Last-Modified`.
    pub last_modified: Option<Timestamp>,
    /// The `x-object-value` payload (value-bearing objects).
    pub value: Option<f64>,
    /// The `x-object-version` payload.
    pub version: Option<&'a str>,
}

impl ObjectStamps<'_> {
    /// Reads the stamps off `response`.
    pub fn of(response: &Response) -> ObjectStamps<'_> {
        let (mut exact, mut coarse, mut value, mut version) = (None, None, None, None);
        for (name, v) in response.headers().iter() {
            let slot = match name {
                X_LAST_MODIFIED_MS => &mut exact,
                HeaderName::LAST_MODIFIED => &mut coarse,
                HeaderName::X_OBJECT_VALUE => &mut value,
                HeaderName::X_OBJECT_VERSION => &mut version,
                _ => continue,
            };
            slot.get_or_insert(v);
        }
        ObjectStamps {
            last_modified: exact
                .and_then(|v| v.trim().parse().ok())
                .map(Timestamp::from_millis)
                .or_else(|| parse_http_date(coarse?).ok()),
            value: value.and_then(|v| v.trim().parse().ok()),
            version,
        }
    }
}

/// Reads the millisecond-precise modification time from a response,
/// falling back to `Last-Modified` when the extension is absent.
pub fn last_modified_ms(response: &Response) -> Option<Timestamp> {
    ObjectStamps::of(response).last_modified
}

/// Reads the millisecond validator from a request (the extension header,
/// falling back to `If-Modified-Since`).
pub fn validator_ms(request: &Request) -> Option<Timestamp> {
    if let Some(v) = request.headers().get(X_LAST_MODIFIED_MS) {
        if let Ok(ms) = v.trim().parse::<u64>() {
            return Some(Timestamp::from_millis(ms));
        }
    }
    mutcon_http::conditional::if_modified_since(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_response;
    use bytes::BytesMut;
    use mutcon_http::types::StatusCode;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::Duration as StdDuration;

    /// A one-shot server answering a canned response.
    fn one_shot_server(response: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            stream.write_all(&response).unwrap();
        });
        addr
    }

    /// `get_wire` writes exactly the bytes the message builder would, and
    /// `wire_target` reads the path back out of them.
    #[test]
    fn get_wire_equals_the_built_request() {
        let host = "127.0.0.1:8080";
        let plain = Request::get("/a/b?c=1").host(host).keep_alive().build();
        assert_eq!(get_wire("/a/b?c=1", host, None), plain.to_bytes());
        assert_eq!(wire_target(&get_wire("/a/b?c=1", host, None)), Some("/a/b?c=1"));
        for ms in [0, 999, 784_111_777_123, 4_102_444_800_000] {
            let v = Timestamp::from_millis(ms);
            let poll = Request::get("/obj")
                .host(host)
                .if_modified_since(v)
                .header(X_LAST_MODIFIED_MS, ms.to_string())
                .keep_alive()
                .build();
            assert_eq!(get_wire("/obj", host, Some(v)), poll.to_bytes(), "{ms}");
            assert_eq!(wire_target(&get_wire("/obj", host, Some(v))), Some("/obj"), "{ms}");
        }
        for not_a_get in [
            &b""[..],
            b"GET /obj",
            b"GET /obj HTTP/1.1",
            b"PUT /obj HTTP/1.1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b" GET /obj HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(wire_target(not_a_get), None, "{not_a_get:?}");
        }
    }

    /// A conditional `GET` as the proxy sends it, over a socket, and the
    /// stamp read back off the answer.
    #[test]
    fn get_round_trip() {
        let canned = Response::ok()
            .header(X_LAST_MODIFIED_MS, "123456")
            .body(&b"hello"[..])
            .build()
            .to_bytes();
        let addr = one_shot_server(canned);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let host = addr.to_string();
        stream.write_all(&get_wire("/x", &host, Some(Timestamp::from_millis(1_000)))).unwrap();
        let resp = read_response(&mut stream, &mut BytesMut::new()).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(&resp.body()[..], b"hello");
        assert_eq!(last_modified_ms(&resp), Some(Timestamp::from_millis(123_456)));
    }

    #[test]
    fn header_fallbacks() {
        // Extension absent → fall back to Last-Modified (second-precise).
        let resp = Response::ok()
            .last_modified(Timestamp::from_secs(784_111_777))
            .build();
        assert_eq!(last_modified_ms(&resp), Some(Timestamp::from_secs(784_111_777)));
        // Garbage extension → fall back too.
        let resp = Response::ok()
            .header(X_LAST_MODIFIED_MS, "junk")
            .last_modified(Timestamp::from_secs(1_000))
            .build();
        assert_eq!(last_modified_ms(&resp), Some(Timestamp::from_secs(1_000)));
        // Value header.
        let resp = Response::ok()
            .header(HeaderName::X_OBJECT_VALUE, "36.25")
            .build();
        assert_eq!(ObjectStamps::of(&resp).value, Some(36.25));
        assert_eq!(ObjectStamps::of(&Response::ok().build()).value, None);
    }

    #[test]
    fn request_validator_parsing() {
        let req = Request::get("/x")
            .header(X_LAST_MODIFIED_MS, "999")
            .build();
        assert_eq!(validator_ms(&req), Some(Timestamp::from_millis(999)));
        let req = Request::get("/x")
            .if_modified_since(Timestamp::from_secs(5))
            .build();
        assert_eq!(validator_ms(&req), Some(Timestamp::from_secs(5)));
        assert_eq!(validator_ms(&Request::get("/x").build()), None);
    }
}
