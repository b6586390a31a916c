//! Blocking socket I/O for `mutcon-http` messages.
//!
//! Reads accumulate into a `BytesMut` and drive the resumable parser
//! until a complete message (or EOF/error) arrives; writes serialize and
//! flush in one call. The reactor-driven server ([`crate::server`]) uses
//! the same parsers nonblockingly; these helpers remain for clients
//! (the refresher, tests, load generators) where blocking is fine.

use std::io::{self, Read, Write};

use bytes::BytesMut;

use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};

/// Converts a parse failure into an I/O error (the connection is beyond
/// saving either way).
fn parse_io_error(e: ParseError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// `read` retrying `EINTR`. A handled signal (the `SIGHUP` rules
/// reload) interrupts a blocking read on a socket with a receive
/// timeout even under `SA_RESTART`, so these helpers must not surface
/// `Interrupted` to callers (`write_all` already retries it internally).
fn read_uninterrupted(stream: &mut impl Read, chunk: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(chunk) {
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
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
    loop {
        if let Some((req, consumed)) = parser.advance(buf).map_err(parse_io_error)? {
            let _ = buf.split_to(consumed);
            return Ok(Some(req));
        }
        let mut chunk = [0u8; 4096];
        let n = read_uninterrupted(stream, &mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Reads one response from `stream`.
///
/// # Errors
///
/// I/O errors, malformed messages, or EOF before a complete response.
pub fn read_response(stream: &mut impl Read, buf: &mut BytesMut) -> io::Result<Response> {
    let mut parser = ResponseParser::new();
    loop {
        if let Some((resp, consumed)) = parser.advance(buf).map_err(parse_io_error)? {
            let _ = buf.split_to(consumed);
            return Ok(resp);
        }
        let mut chunk = [0u8; 4096];
        let n = read_uninterrupted(stream, &mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_http::types::StatusCode;
    use std::io::Cursor;

    #[test]
    fn round_trips_request_over_a_stream() {
        let req = Request::get("/x").host("h").body(&b"abc"[..]).build();
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();

        let mut cursor = Cursor::new(wire);
        let mut buf = BytesMut::new();
        let parsed = read_request(&mut cursor, &mut buf).unwrap().unwrap();
        assert_eq!(parsed.target(), "/x");
        assert_eq!(&parsed.body()[..], b"abc");
        // Idle close afterwards → None.
        assert!(read_request(&mut cursor, &mut buf).unwrap().is_none());
    }

    #[test]
    fn round_trips_response() {
        let resp = Response::ok().body(&b"payload"[..]).build();
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let mut cursor = Cursor::new(wire);
        let mut buf = BytesMut::new();
        let parsed = read_response(&mut cursor, &mut buf).unwrap();
        assert_eq!(parsed.status(), StatusCode::OK);
        assert_eq!(&parsed.body()[..], b"payload");
    }

    #[test]
    fn pipelined_requests_read_one_at_a_time() {
        let mut wire = Request::get("/a").build().to_bytes();
        wire.extend(Request::get("/b").build().to_bytes());
        let mut cursor = Cursor::new(wire);
        let mut buf = BytesMut::new();
        let first = read_request(&mut cursor, &mut buf).unwrap().unwrap();
        let second = read_request(&mut cursor, &mut buf).unwrap().unwrap();
        assert_eq!(first.target(), "/a");
        assert_eq!(second.target(), "/b");
    }

    #[test]
    fn eof_mid_message_is_an_error() {
        let full = Request::get("/abc").host("h").build().to_bytes();
        let mut cursor = Cursor::new(full[..10].to_vec());
        let mut buf = BytesMut::new();
        let err = read_request(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_is_invalid_data() {
        let mut cursor = Cursor::new(b"not http at all\r\n\r\n".to_vec());
        let mut buf = BytesMut::new();
        let err = read_request(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
