//! Blocking socket I/O for `mutcon-http` messages, and the blocking
//! keep-alive [`Client`] the tests speak through. Reads drive a resumable
//! parser until a whole message (or EOF/error) arrives; writes serialize
//! and flush in one call. The library's own unit tests share this file
//! (`crates/live/src/wire.rs`); the proxy itself reads every response
//! through `OriginConn` on its reactors.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use mutcon_core::time::Timestamp;
use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};
use mutcon_http::types::Method;
use mutcon_live::client::get_wire;

/// `read` retrying `EINTR`: a handled signal (the `SIGHUP` rules reload)
/// interrupts a blocking read on a socket with a receive timeout even
/// under `SA_RESTART`.
fn read_uninterrupted(stream: &mut impl Read, chunk: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(chunk) {
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Reads one message from `stream` through `parse` (a fresh parser's
/// `advance`), leaving what follows it in `buf`. `Ok(None)` on a clean
/// EOF before any bytes.
fn read_message<M>(
    stream: &mut impl Read,
    buf: &mut BytesMut,
    mut parse: impl FnMut(&[u8]) -> Result<Option<(M, usize)>, ParseError>,
) -> io::Result<Option<M>> {
    loop {
        // A parse failure leaves the connection beyond saving.
        let parsed = parse(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some((message, consumed)) = parsed {
            let _ = buf.split_to(consumed);
            return Ok(Some(message));
        }
        let mut chunk = [0u8; 4096];
        let n = read_uninterrupted(stream, &mut chunk)?;
        if n == 0 && buf.is_empty() {
            return Ok(None);
        } else if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed mid-message",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Reads one request from `stream`. Returns `Ok(None)` on a clean EOF
/// before any bytes (the peer closed an idle connection).
///
/// # Errors
///
/// I/O errors, malformed messages ([`io::ErrorKind::InvalidData`]), or an
/// EOF in the middle of a message ([`io::ErrorKind::UnexpectedEof`]).
pub fn read_request(stream: &mut impl Read, buf: &mut BytesMut) -> io::Result<Option<Request>> {
    let mut parser = RequestParser::new();
    read_message(stream, buf, |bytes| parser.advance(bytes))
}

/// Reads one response from `stream`, `Ok(None)` on a clean EOF before
/// any bytes.
fn read_response_or_eof(
    stream: &mut impl Read,
    buf: &mut BytesMut,
) -> io::Result<Option<Response>> {
    let mut parser = ResponseParser::new();
    read_message(stream, buf, |bytes| parser.advance(bytes))
}

fn closed_before_a_response() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response")
}

/// Reads one response from `stream`.
///
/// # Errors
///
/// I/O errors, malformed messages, or EOF before a complete response.
pub fn read_response(stream: &mut impl Read, buf: &mut BytesMut) -> io::Result<Response> {
    read_response_or_eof(stream, buf)?.ok_or_else(closed_before_a_response)
}

/// Writes a request and flushes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request(stream: &mut impl Write, request: &Request) -> io::Result<()> {
    stream.write_all(&request.to_bytes())?;
    stream.flush()
}

/// Writes a response and flushes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_response(stream: &mut impl Write, response: &Response) -> io::Result<()> {
    stream.write_all(&response.to_bytes())?;
    stream.flush()
}

/// A blocking keep-alive client pinned to one server address: one
/// socket, kept while the server keeps it (a keep-alive response with no
/// bytes behind it), and a request sent once more on a fresh socket when
/// the kept one turns out closed before answering. Timeouts guard every
/// socket operation.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    /// `addr` rendered once: every request carries a `Host` header.
    host: String,
    timeout: Duration,
    /// The held socket and the bytes read past the last response.
    conn: Option<(TcpStream, BytesMut)>,
    reconnects: u64,
}

impl Client {
    /// A keep-alive client for `addr` with per-operation `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            host: addr.to_string(),
            timeout,
            conn: None,
            reconnects: 0,
        }
    }

    /// How often a kept socket had closed and a request went again on a
    /// fresh one.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends `request` (forced to advertise keep-alive) and reads the
    /// response.
    ///
    /// # Errors
    ///
    /// Connect, read and write failures, timeouts and malformed
    /// responses.
    pub fn send(&mut self, request: &Request) -> io::Result<Response> {
        let mut request = request.clone();
        mutcon_http::connection::set_keep_alive(request.headers_mut());
        self.exchange(&request.to_bytes())
    }

    /// `GET path`, conditional on a millisecond validator when one is
    /// given (as `If-Modified-Since` and the extension header) — the
    /// bytes the proxy sends its origin.
    ///
    /// # Errors
    ///
    /// See [`Client::send`].
    pub fn get(&mut self, path: &str, validator_ms: Option<Timestamp>) -> io::Result<Response> {
        let wire = get_wire(path, &self.host, validator_ms);
        self.exchange(&wire)
    }

    /// `PUT path` with `body`.
    ///
    /// # Errors
    ///
    /// See [`Client::send`].
    pub fn put(&mut self, path: &str, body: impl Into<Bytes>) -> io::Result<Response> {
        let request = Request::builder(Method::Put, path)
            .host(self.host.as_str())
            .body(body)
            .build();
        self.send(&request)
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        let closed = |err: &io::Error| {
            matches!(
                err.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
            )
        };
        match self.exchange_once(wire) {
            Ok(Some(response)) => Ok(response),
            Ok(None) if reused => self.reconnect(wire),
            Err(err) if reused && closed(&err) => self.reconnect(wire),
            Ok(None) => Err(closed_before_a_response()),
            Err(err) => Err(err),
        }
    }

    /// The one retry, on a fresh socket.
    fn reconnect(&mut self, wire: &[u8]) -> io::Result<Response> {
        self.reconnects += 1;
        self.exchange_once(wire)?
            .ok_or_else(closed_before_a_response)
    }

    /// One request and its response on the held socket (or a fresh one);
    /// `Ok(None)` if the server closed it before a byte of the answer.
    fn exchange_once(&mut self, wire: &[u8]) -> io::Result<Option<Response>> {
        let (stream, buf) = match &mut self.conn {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                self.conn.insert((stream, BytesMut::new()))
            }
        };
        let result = stream
            .write_all(wire)
            .and_then(|()| read_response_or_eof(stream, buf));
        let keep =
            matches!(&result, Ok(Some(response)) if response.wants_keep_alive()) && buf.is_empty();
        if !keep {
            self.conn = None;
        }
        result
    }
}
