//! Blocking HTTP clients.
//!
//! [`HttpClient`] is the minimal one-connection-per-request client
//! (`Connection: close` semantics) kept for tests and load generators,
//! where a fresh socket per request is exactly the point.
//! [`PersistentClient`] is its keep-alive successor: it advertises
//! `Connection: keep-alive`, reuses one socket across requests, and —
//! because a pooled socket may have been closed by the server while
//! idle — retries a failed send once on a fresh connection before
//! reporting an error. The proxy's background refresher polls through a
//! `PersistentClient`, so LIMD's frequent `If-Modified-Since` probes
//! stop paying a TCP handshake each. Timeouts guard every socket
//! operation so a stalled origin cannot wedge the refresher thread.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use bytes::BytesMut;

use mutcon_core::time::Timestamp;
use mutcon_http::date::{parse_http_date, write_http_date};
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{push_decimal, Request, Response};

use crate::wire::{read_response, write_request};

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

/// A blocking HTTP client with per-operation timeouts.
#[derive(Debug, Clone)]
pub struct HttpClient {
    timeout: StdDuration,
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient {
            timeout: StdDuration::from_secs(5),
        }
    }
}

impl HttpClient {
    /// Creates a client with the default 5-second timeout.
    pub fn new() -> Self {
        HttpClient::default()
    }

    /// Overrides the connect/read/write timeout.
    pub fn with_timeout(timeout: StdDuration) -> Self {
        HttpClient { timeout }
    }

    /// Sends `request` to `addr` and reads the response.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses.
    pub fn send(&self, addr: SocketAddr, request: &Request) -> io::Result<Response> {
        let mut stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        write_request(&mut stream, request)?;
        let mut buf = BytesMut::new();
        read_response(&mut stream, &mut buf)
    }

    /// Convenience `GET`, optionally conditional on a millisecond
    /// validator (sent both as `If-Modified-Since` and as the
    /// millisecond-precise extension header).
    ///
    /// # Errors
    ///
    /// See [`HttpClient::send`].
    pub fn get(
        &self,
        addr: SocketAddr,
        path: &str,
        validator_ms: Option<Timestamp>,
    ) -> io::Result<Response> {
        let mut builder = Request::get(path).host(addr.to_string());
        if let Some(v) = validator_ms {
            builder = builder
                .if_modified_since(v)
                .header(X_LAST_MODIFIED_MS, v.as_millis().to_string());
        }
        self.send(addr, &builder.build())
    }

    /// Convenience `PUT` with a body (the proxy's admin control plane
    /// and the origin's update endpoint speak this).
    ///
    /// # Errors
    ///
    /// See [`HttpClient::send`].
    pub fn put(
        &self,
        addr: SocketAddr,
        path: &str,
        body: impl Into<bytes::Bytes>,
    ) -> io::Result<Response> {
        let request = Request::builder(mutcon_http::types::Method::Put, path)
            .host(addr.to_string())
            .body(body)
            .build();
        self.send(addr, &request)
    }
}

/// A blocking keep-alive client pinned to one server address.
///
/// Reuses a single connection across requests; a send that fails on a
/// *reused* socket (the server closed it while idle) is retried once on
/// a fresh connection. Requests advertise `Connection: keep-alive`; a
/// response carrying `Connection: close` drops the socket so the next
/// request reconnects.
#[derive(Debug)]
pub struct PersistentClient {
    addr: SocketAddr,
    /// `addr` rendered once at construction: every request carries a
    /// `Host` header, and the refresh plane issues requests at poll
    /// rate — no reason to re-format the address each time.
    host: String,
    timeout: StdDuration,
    stream: Option<TcpStream>,
    buf: BytesMut,
    /// Responses served over the current socket (0 = fresh).
    served_on_socket: u64,
    reconnects: u64,
}

impl PersistentClient {
    /// A keep-alive client for `addr` with per-operation `timeout`.
    pub fn new(addr: SocketAddr, timeout: StdDuration) -> PersistentClient {
        PersistentClient {
            addr,
            host: addr.to_string(),
            timeout,
            stream: None,
            buf: BytesMut::new(),
            served_on_socket: 0,
            reconnects: 0,
        }
    }

    /// How often a stale pooled socket forced a fresh connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether a connection is currently held open.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.buf.clear();
            self.served_on_socket = 0;
            self.stream = Some(stream);
        }
        Ok(())
    }

    fn drop_socket(&mut self) {
        self.stream = None;
        self.buf.clear();
        self.served_on_socket = 0;
    }

    /// Sends `request` (forced to advertise keep-alive) and reads the
    /// response, transparently reconnecting once if a reused socket
    /// turns out stale.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses
    /// (after the single stale-socket retry, where applicable).
    pub fn send(&mut self, request: &Request) -> io::Result<Response> {
        let mut request = request.clone();
        mutcon_http::connection::set_keep_alive(request.headers_mut());
        self.exchange(&request.to_bytes())
    }

    /// Writes `wire` (one keep-alive request) and reads the response,
    /// with the stale-socket retry of [`PersistentClient::send`].
    fn exchange(&mut self, wire: &[u8]) -> io::Result<Response> {
        loop {
            let reused = self.stream.is_some() && self.served_on_socket > 0;
            let result = (|| {
                self.connect()?;
                let PersistentClient { stream, buf, .. } = self;
                let stream = stream.as_mut().expect("connect ensured a socket");
                stream.write_all(wire)?;
                read_response(stream, buf)
            })();
            match result {
                Ok(response) => {
                    self.served_on_socket += 1;
                    if !response.wants_keep_alive() {
                        self.drop_socket();
                    }
                    return Ok(response);
                }
                Err(e) => {
                    self.drop_socket();
                    if reused {
                        // The server closed the idle socket between
                        // requests; one fresh attempt.
                        self.reconnects += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Convenience `PUT` with a body over the persistent connection —
    /// how a reload driver ships `PUT /admin/rules` without disturbing
    /// its keep-alive session.
    ///
    /// # Errors
    ///
    /// See [`PersistentClient::send`].
    pub fn put(&mut self, path: &str, body: impl Into<bytes::Bytes>) -> io::Result<Response> {
        let request = Request::builder(mutcon_http::types::Method::Put, path)
            .host(self.host.as_str())
            .body(body)
            .build();
        self.send(&request)
    }

    /// Convenience conditional `GET` (see [`HttpClient::get`]).
    ///
    /// # Errors
    ///
    /// See [`PersistentClient::send`].
    pub fn get(&mut self, path: &str, validator_ms: Option<Timestamp>) -> io::Result<Response> {
        let wire = get_wire(path, &self.host, validator_ms);
        self.exchange(&wire)
    }
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
    use mutcon_http::types::StatusCode;
    use std::io::{Read, Write};
    use std::net::TcpListener;

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

    /// `get_wire` writes exactly the bytes the message builder would.
    #[test]
    fn get_wire_equals_the_built_request() {
        let host = "127.0.0.1:8080";
        let plain = Request::get("/a/b?c=1").host(host).keep_alive().build();
        assert_eq!(get_wire("/a/b?c=1", host, None), plain.to_bytes());
        for ms in [0, 999, 784_111_777_123, 4_102_444_800_000] {
            let v = Timestamp::from_millis(ms);
            let poll = Request::get("/obj")
                .host(host)
                .if_modified_since(v)
                .header(X_LAST_MODIFIED_MS, ms.to_string())
                .keep_alive()
                .build();
            assert_eq!(get_wire("/obj", host, Some(v)), poll.to_bytes(), "{ms}");
        }
    }

    #[test]
    fn get_round_trip() {
        let canned = Response::ok()
            .header(X_LAST_MODIFIED_MS, "123456")
            .body(&b"hello"[..])
            .build()
            .to_bytes();
        let addr = one_shot_server(canned);
        let client = HttpClient::new();
        let resp = client
            .get(addr, "/x", Some(Timestamp::from_millis(1_000)))
            .unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(&resp.body()[..], b"hello");
        assert_eq!(last_modified_ms(&resp), Some(Timestamp::from_millis(123_456)));
    }

    #[test]
    fn connect_failure_surfaces() {
        // A port nobody listens on (bind, learn the port, drop).
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let client = HttpClient::with_timeout(StdDuration::from_millis(300));
        assert!(client.get(addr, "/x", None).is_err());
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

    /// A keep-alive server thread that serves `per_conn` requests per
    /// connection before closing it, forever. Returns (addr, accepted
    /// connection counter).
    fn keep_alive_server(per_conn: usize) -> (SocketAddr, std::sync::Arc<std::sync::atomic::AtomicU64>) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { break };
                counter.fetch_add(1, Ordering::SeqCst);
                let mut buf = BytesMut::new();
                for _ in 0..per_conn {
                    let Ok(Some(req)) = crate::wire::read_request(&mut stream, &mut buf) else {
                        break;
                    };
                    let resp = Response::ok()
                        .keep_alive()
                        .body(req.target().as_bytes().to_vec())
                        .build();
                    if crate::wire::write_response(&mut stream, &resp).is_err() {
                        break;
                    }
                }
                // Dropping the stream closes the (possibly idle) socket.
            }
        });
        (addr, accepted)
    }

    #[test]
    fn persistent_client_reuses_one_connection() {
        let (addr, accepted) = keep_alive_server(usize::MAX);
        let mut client = PersistentClient::new(addr, StdDuration::from_secs(5));
        for i in 0..5 {
            let resp = client.get(&format!("/r/{i}"), None).unwrap();
            assert_eq!(resp.status(), StatusCode::OK);
            assert_eq!(&resp.body()[..], format!("/r/{i}").as_bytes());
        }
        assert!(client.is_connected());
        assert_eq!(
            accepted.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "five requests must share one connection"
        );
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn persistent_client_recovers_from_stale_sockets() {
        // The server hangs up after every 2 responses; the client must
        // ride through the stale-socket failures transparently.
        let (addr, accepted) = keep_alive_server(2);
        let mut client = PersistentClient::new(addr, StdDuration::from_secs(5));
        for i in 0..6 {
            let resp = client.get(&format!("/r/{i}"), None).unwrap();
            assert_eq!(resp.status(), StatusCode::OK, "request {i}");
        }
        let conns = accepted.load(std::sync::atomic::Ordering::SeqCst);
        assert!(conns >= 3, "server closes every 2 requests: {conns} conns");
        assert!(client.reconnects() >= 1, "stale sockets must be retried");
    }

    #[test]
    fn persistent_client_honors_connection_close_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { break };
                let mut buf = BytesMut::new();
                if let Ok(Some(_)) = crate::wire::read_request(&mut stream, &mut buf) {
                    let resp = Response::ok().connection_close().body(&b"bye"[..]).build();
                    let _ = crate::wire::write_response(&mut stream, &resp);
                }
            }
        });
        let mut client = PersistentClient::new(addr, StdDuration::from_secs(5));
        let resp = client.get("/x", None).unwrap();
        assert_eq!(&resp.body()[..], b"bye");
        assert!(
            !client.is_connected(),
            "a close response must drop the pooled socket"
        );
        // And the next request simply reconnects.
        assert_eq!(client.get("/y", None).unwrap().status(), StatusCode::OK);
    }

    #[test]
    fn persistent_client_surfaces_dead_server() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut client = PersistentClient::new(addr, StdDuration::from_millis(300));
        assert!(client.get("/x", None).is_err());
        assert_eq!(client.reconnects(), 0, "a fresh-socket failure is final");
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
