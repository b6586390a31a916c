//! Blocking socket I/O for `mutcon-http` messages, for the tests and the
//! test harness's scripted origin. Reads drive a resumable parser until a
//! whole message (or EOF/error) arrives; writes serialize and flush in one
//! call. No engine or client reads responses through it: the reactor and
//! [`crate::client::PersistentClient`] both drive `OriginConn` (`conn.rs`).

use std::io::{self, Read, Write};

use bytes::BytesMut;

use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};

/// `read` retrying `EINTR`. A handled signal (the `SIGHUP` rules
/// reload) interrupts a blocking read on a socket with a receive
/// timeout even under `SA_RESTART`, so these helpers and
/// [`crate::client::PersistentClient`] must not surface `Interrupted` to
/// callers (`write_all` and `OriginConn::send` retry it themselves).
pub(crate) fn read_uninterrupted(stream: &mut impl Read, chunk: &mut [u8]) -> io::Result<usize> {
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
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-message"));
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

/// Reads one response from `stream`.
///
/// # Errors
///
/// I/O errors, malformed messages, or EOF before a complete response.
pub fn read_response(stream: &mut impl Read, buf: &mut BytesMut) -> io::Result<Response> {
    let mut parser = ResponseParser::new();
    read_message(stream, buf, |bytes| parser.advance(bytes))?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response"))
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
