//! Incremental parsing of HTTP/1.1 messages from raw bytes.
//!
//! Both parsers follow the same contract: given a buffer that may hold a
//! partial message, they return
//!
//! * `Ok(Some((message, consumed)))` — a complete message was parsed from
//!   the first `consumed` bytes (a connection loop drains those bytes and
//!   tries again for pipelined messages),
//! * `Ok(None)` — the buffer holds a valid prefix; read more bytes,
//! * `Err(ParseError)` — the bytes can never become a valid message.
//!
//! Bodies are delimited by `Content-Length` only (the consistency protocol
//! never needs chunked transfer), and an absent `Content-Length` means an
//! empty body — all messages the workspace exchanges are self-delimiting,
//! keeping connections reusable. A message whose body cannot be delimited
//! that way (any `Transfer-Encoding`, or `Content-Length` values that
//! disagree) is an error, so its body bytes are never read as the next
//! pipelined message.
//!
//! For readiness-driven connection loops that feed bytes in as the socket
//! produces them, the stateful [`RequestParser`]/[`ResponseParser`] carry
//! the same contract *resumably*: the header-terminator scan picks up
//! where the previous partial read left off and a parsed header section
//! is cached while body bytes trickle in, so each byte is examined once
//! no matter how fragmented the reads are.

use std::fmt;

use bytes::Bytes;

use crate::headers::{HeaderMap, HeaderName};
use crate::message::{Request, Response};
use crate::types::{find_crlf, HttpVersion, Method, StatusCode};

/// Maximum accepted header-section size; guards against unbounded buffering.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Maximum accepted body size.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Error returned when bytes cannot form a valid HTTP message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// The request/status line is malformed.
    InvalidStartLine,
    /// A header line is malformed.
    InvalidHeader,
    /// The HTTP version is unsupported.
    InvalidVersion,
    /// The status code is not a number in `100..=599`.
    InvalidStatus,
    /// `Content-Length` is not a valid number, or is repeated with
    /// values that differ.
    InvalidContentLength,
    /// The message carries `Transfer-Encoding`, which this parser cannot
    /// delimit.
    UnsupportedTransferEncoding,
    /// The header section exceeds [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseError::InvalidStartLine => "invalid start line",
            ParseError::InvalidHeader => "invalid header line",
            ParseError::InvalidVersion => "unsupported HTTP version",
            ParseError::InvalidStatus => "invalid status code",
            ParseError::InvalidContentLength => "invalid content-length",
            ParseError::UnsupportedTransferEncoding => "transfer-encoding not supported",
            ParseError::HeadTooLarge => "header section too large",
            ParseError::BodyTooLarge => "body too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

/// Locates the end of the header section (the `\r\n\r\n`), returning the
/// offset just past it. `from` is how far a previous scan got without
/// finding it, so resumed scans are O(new bytes), not O(buffer).
fn find_head_end(buf: &[u8], from: usize) -> Result<Option<usize>, ParseError> {
    // Back up 3 bytes: the terminator may straddle the old buffer end.
    let mut at = from.saturating_sub(3);
    while let Some(crlf) = find_crlf(buf, at) {
        if buf[crlf + 2..].starts_with(b"\r\n") {
            let end = crlf + 4;
            return if end > MAX_HEAD_BYTES {
                Err(ParseError::HeadTooLarge)
            } else {
                Ok(Some(end))
            };
        }
        at = crlf + 2;
    }
    if buf.len() > MAX_HEAD_BYTES {
        Err(ParseError::HeadTooLarge)
    } else {
        Ok(None)
    }
}

fn body_length(headers: &HeaderMap) -> Result<usize, ParseError> {
    let mut declared: Option<usize> = None;
    for (name, value) in headers.iter() {
        match name {
            HeaderName::TRANSFER_ENCODING => {
                return Err(ParseError::UnsupportedTransferEncoding);
            }
            HeaderName::CONTENT_LENGTH => {
                let len = value
                    .parse()
                    .map_err(|_| ParseError::InvalidContentLength)?;
                if declared.is_some_and(|first| first != len) {
                    return Err(ParseError::InvalidContentLength);
                }
                declared = Some(len);
            }
            _ => {}
        }
    }
    match declared {
        Some(len) if len > MAX_BODY_BYTES => Err(ParseError::BodyTooLarge),
        Some(len) => Ok(len),
        None => Ok(0),
    }
}

/// Parses `"GET /path HTTP/1.1"`; the second part of the result is where
/// in the line the target sits.
fn parse_request_line(
    start_line: &str,
) -> Result<((Method, HttpVersion), (usize, usize)), ParseError> {
    let mut parts = start_line.split(' ');
    let method = parts.next().ok_or(ParseError::InvalidStartLine)?;
    let target = parts.next().ok_or(ParseError::InvalidStartLine)?;
    if target.is_empty() || target.contains(|c: char| c.is_ascii_whitespace()) {
        return Err(ParseError::InvalidStartLine);
    }
    let target_at = method.len() + 1;
    let method: Method = method.parse().map_err(|_| ParseError::InvalidStartLine)?;
    let version: HttpVersion = parts
        .next()
        .ok_or(ParseError::InvalidStartLine)?
        .parse()
        .map_err(|_| ParseError::InvalidVersion)?;
    if parts.next().is_some() {
        return Err(ParseError::InvalidStartLine);
    }
    Ok(((method, version), (target_at, target_at + target.len())))
}

/// Parses `"HTTP/1.1 200 OK"` — the reason phrase may contain spaces or
/// be absent. A response keeps nothing of its start line.
fn parse_status_line(
    start_line: &str,
) -> Result<((HttpVersion, StatusCode), (usize, usize)), ParseError> {
    let mut parts = start_line.splitn(3, ' ');
    let version: HttpVersion = parts
        .next()
        .ok_or(ParseError::InvalidStartLine)?
        .parse()
        .map_err(|_| ParseError::InvalidVersion)?;
    let code: u16 = parts
        .next()
        .ok_or(ParseError::InvalidStartLine)?
        .parse()
        .map_err(|_| ParseError::InvalidStatus)?;
    let status = StatusCode::new(code).ok_or(ParseError::InvalidStatus)?;
    Ok(((version, status), (0, 0)))
}

/// A fully parsed header section waiting for its body bytes; `L` is what
/// the start line came to.
#[derive(Debug)]
struct Head<L> {
    line: L,
    headers: HeaderMap,
    head_end: usize,
    body_len: usize,
}

/// What a start-line parser returns: the parsed line, and the part of it
/// the message keeps as its header map's lead.
type StartLine<L> = fn(&str) -> Result<(L, (usize, usize)), ParseError>;

/// The resumable state both parsers share: how far the terminator scan
/// got, then the parsed head while its body trickles in.
#[derive(Debug)]
struct Resumable<L> {
    /// How far the head-terminator scan got without finding `\r\n\r\n`.
    scanned: usize,
    /// Parsed head awaiting `body_len` bytes.
    head: Option<Head<L>>,
}

impl<L> Default for Resumable<L> {
    fn default() -> Self {
        Resumable {
            scanned: 0,
            head: None,
        }
    }
}

impl<L> Resumable<L> {
    fn in_progress(&self) -> bool {
        self.scanned > 0 || self.head.is_some()
    }

    /// Tries to complete one message from the front of `buf`: its start
    /// line, headers, body and total length.
    fn advance(
        &mut self,
        buf: &[u8],
        start_line: StartLine<L>,
    ) -> Result<Option<(L, HeaderMap, Bytes, usize)>, ParseError> {
        let head = match self.head.take() {
            Some(head) => head,
            None => {
                let Some(head_end) = find_head_end(buf, self.scanned)? else {
                    self.scanned = buf.len();
                    return Ok(None);
                };
                // Every line keeps its CRLF; only the blank line goes.
                let text = std::str::from_utf8(&buf[..head_end - 2])
                    .map_err(|_| ParseError::InvalidHeader)?;
                let first = find_crlf(text.as_bytes(), 0).ok_or(ParseError::InvalidStartLine)?;
                let (line, lead) = start_line(&text[..first])?;
                let headers =
                    HeaderMap::from_head(text, first + 2, lead).ok_or(ParseError::InvalidHeader)?;
                let body_len = body_length(&headers)?;
                Head {
                    line,
                    headers,
                    head_end,
                    body_len,
                }
            }
        };
        let total = head.head_end + head.body_len;
        if buf.len() < total {
            self.head = Some(head);
            return Ok(None);
        }
        self.scanned = 0;
        let body = Bytes::copy_from_slice(&buf[head.head_end..total]);
        Ok(Some((head.line, head.headers, body, total)))
    }
}

/// A resumable request parser for readiness-driven connection loops.
///
/// Feed it the connection's accumulated read buffer after every partial
/// read. Between calls that return `Ok(None)` the buffer must only grow
/// (append-only); once a message is returned, drain the `consumed` bytes
/// from the front — the parser has already reset itself for the next
/// message. Unlike re-running [`parse_request`] from scratch, progress is
/// remembered: the `\r\n\r\n` scan resumes where it left off and a parsed
/// header section is never re-parsed while body bytes trickle in.
#[derive(Debug, Default)]
pub struct RequestParser(Resumable<(Method, HttpVersion)>);

impl RequestParser {
    /// A parser at the start of a message.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Whether the parser is mid-message (bytes seen, no message yet) —
    /// distinguishes a clean idle EOF from a truncated message.
    pub fn in_progress(&self) -> bool {
        self.0.in_progress()
    }

    /// Tries to complete one request from the front of `buf`.
    ///
    /// # Errors
    ///
    /// See [`ParseError`]; after an error the connection (and parser) are
    /// beyond recovery. `Ok(None)` means "incomplete, read more".
    pub fn advance(&mut self, buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        let parsed = self.0.advance(buf, parse_request_line)?;
        Ok(parsed.map(|((method, version), headers, body, total)| {
            (Request::from_parts(method, version, headers, body), total)
        }))
    }
}

/// The response-side twin of [`RequestParser`]; same contract.
#[derive(Debug, Default)]
pub struct ResponseParser(Resumable<(HttpVersion, StatusCode)>);

impl ResponseParser {
    /// A parser at the start of a message.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Whether the parser is mid-message (bytes seen, no message yet).
    pub fn in_progress(&self) -> bool {
        self.0.in_progress()
    }

    /// Tries to complete one response from the front of `buf`.
    ///
    /// # Errors
    ///
    /// See [`ParseError`]; `Ok(None)` means "incomplete, read more".
    pub fn advance(&mut self, buf: &[u8]) -> Result<Option<(Response, usize)>, ParseError> {
        let parsed = self.0.advance(buf, parse_status_line)?;
        Ok(parsed.map(|((version, status), headers, body, total)| {
            (Response::from_parts(version, status, headers, body), total)
        }))
    }
}

/// Attempts to parse one [`Request`] from the front of `buf` (stateless
/// one-shot form of [`RequestParser`]).
///
/// # Errors
///
/// See [`ParseError`]; `Ok(None)` means "incomplete, read more".
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    RequestParser::new().advance(buf)
}

/// Attempts to parse one [`Response`] from the front of `buf` (stateless
/// one-shot form of [`ResponseParser`]).
///
/// # Errors
///
/// See [`ParseError`]; `Ok(None)` means "incomplete, read more".
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, ParseError> {
    ResponseParser::new().advance(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_request() {
        let wire = b"GET /x HTTP/1.1\r\n\r\n";
        let (req, n) = parse_request(wire).unwrap().unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(req.method(), &Method::Get);
        assert_eq!(req.target(), "/x");
        assert!(req.headers().is_empty());
    }

    #[test]
    fn parses_request_with_headers_and_body() {
        let wire = b"PUT /obj HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let (req, n) = parse_request(wire).unwrap().unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(req.method(), &Method::Put);
        assert_eq!(req.headers().get("host"), Some("h"));
        assert_eq!(&req.body()[..], b"hello");
    }

    #[test]
    fn incomplete_head_returns_none() {
        assert_eq!(parse_request(b"GET / HT").unwrap(), None);
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nHost: h\r\n").unwrap(),
            None
        );
    }

    #[test]
    fn incomplete_body_returns_none() {
        let wire = b"PUT /o HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(parse_request(wire).unwrap(), None);
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let one = b"GET /a HTTP/1.1\r\n\r\n";
        let mut wire = one.to_vec();
        wire.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        let (req, n) = parse_request(&wire).unwrap().unwrap();
        assert_eq!(req.target(), "/a");
        assert_eq!(n, one.len());
        let (req2, _) = parse_request(&wire[n..]).unwrap().unwrap();
        assert_eq!(req2.target(), "/b");
    }

    #[test]
    fn request_round_trips() {
        let req = Request::get("/news")
            .host("example.org")
            .header("X-Thing", "a b c")
            .body(&b"xyz"[..])
            .build();
        let wire = req.to_bytes();
        let (parsed, n) = parse_request(&wire).unwrap().unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(parsed.target(), req.target());
        assert_eq!(parsed.headers().get("x-thing"), Some("a b c"));
        assert_eq!(parsed.body(), req.body());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(
            parse_request(b"GET\r\n\r\n").unwrap_err(),
            ParseError::InvalidStartLine
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1 extra\r\n\r\n").unwrap_err(),
            ParseError::InvalidStartLine
        );
        assert_eq!(
            parse_request(b"GET / HTTP/9.9\r\n\r\n").unwrap_err(),
            ParseError::InvalidVersion
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nno-colon\r\n\r\n").unwrap_err(),
            ParseError::InvalidHeader
        );
        // A header name is a token: not empty, no space, no control byte.
        for bad in [
            "bad name: v",
            ": v",
            "bad\tname: v",
            "na\u{e9}me: v",
            "name : v",
        ] {
            let wire = format!("GET / HTTP/1.1\r\n{bad}\r\n\r\n");
            assert_eq!(
                parse_request(wire.as_bytes()).unwrap_err(),
                ParseError::InvalidHeader,
                "{bad:?}"
            );
        }
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n").unwrap_err(),
            ParseError::InvalidContentLength
        );
    }

    /// A chunked body read as zero-length would leave its chunk bytes to
    /// be parsed as the next pipelined request.
    #[test]
    fn rejects_transfer_encoding_instead_of_desyncing() {
        let chunked = b"POST /o HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
            1c\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
        assert_eq!(
            parse_request(chunked).unwrap_err(),
            ParseError::UnsupportedTransferEncoding
        );
        // A Content-Length beside it does not make the body delimitable.
        assert_eq!(
            parse_request(
                b"POST /o HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\nabc"
            )
            .unwrap_err(),
            ParseError::UnsupportedTransferEncoding
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n")
                .unwrap_err(),
            ParseError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn rejects_content_lengths_that_disagree() {
        assert_eq!(
            parse_request(b"PUT /o HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc")
                .unwrap_err(),
            ParseError::InvalidContentLength
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: x\r\n\r\nok")
                .unwrap_err(),
            ParseError::InvalidContentLength
        );
        // Repeating the same value is harmless and stays accepted.
        let (req, _) =
            parse_request(b"PUT /o HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
                .unwrap()
                .unwrap();
        assert_eq!(&req.body()[..], b"abc");
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(parse_request(&huge).unwrap_err(), ParseError::HeadTooLarge);

        let wire = format!(
            "PUT /o HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse_request(wire.as_bytes()).unwrap_err(),
            ParseError::BodyTooLarge
        );
    }

    /// `GET / HTTP/1.1` and one header padded so the head is `len` bytes
    /// with its terminator.
    fn head_of_len(len: usize) -> Vec<u8> {
        let bare = b"GET / HTTP/1.1\r\nx: \r\n\r\n".len();
        let mut head = b"GET / HTTP/1.1\r\nx: ".to_vec();
        head.extend(std::iter::repeat_n(b'a', len - bare));
        head.extend_from_slice(b"\r\n\r\n");
        assert_eq!(head.len(), len);
        head
    }

    #[test]
    fn head_and_body_limits_are_exact() {
        let at_limit = head_of_len(MAX_HEAD_BYTES);
        let (_, n) = parse_request(&at_limit)
            .unwrap()
            .expect("a head of MAX_HEAD_BYTES parses");
        assert_eq!(n, MAX_HEAD_BYTES);
        let mut parser = RequestParser::new();
        assert!(parser
            .advance(&at_limit[..MAX_HEAD_BYTES - 2])
            .unwrap()
            .is_none());
        assert!(
            parser.advance(&at_limit).unwrap().is_some(),
            "terminator in a second read"
        );
        let over = head_of_len(MAX_HEAD_BYTES + 1);
        assert_eq!(parse_request(&over).unwrap_err(), ParseError::HeadTooLarge);
        // Without a terminator: MAX_HEAD_BYTES buffered is still "read
        // more", one byte more is refused before the rest arrives.
        let mut unfinished = b"GET / HTTP/1.1\r\nx: ".to_vec();
        unfinished.resize(MAX_HEAD_BYTES + 1, b'a');
        assert_eq!(parse_request(&unfinished[..MAX_HEAD_BYTES]).unwrap(), None);
        assert_eq!(
            parse_request(&unfinished).unwrap_err(),
            ParseError::HeadTooLarge
        );

        let put = |len: usize| format!("PUT /o HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let mut wire = put(MAX_BODY_BYTES).into_bytes();
        let head = wire.len();
        wire.resize(head + MAX_BODY_BYTES, b'b');
        let (req, n) = parse_request(&wire)
            .unwrap()
            .expect("a MAX_BODY_BYTES body parses");
        assert_eq!((req.body().len(), n), (MAX_BODY_BYTES, wire.len()));
        assert_eq!(
            parse_request(put(MAX_BODY_BYTES + 1).as_bytes()).unwrap_err(),
            ParseError::BodyTooLarge
        );
    }

    #[test]
    fn parses_minimal_response() {
        let wire = b"HTTP/1.1 304 Not Modified\r\n\r\n";
        let (resp, n) = parse_response(wire).unwrap().unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(resp.status(), StatusCode::NOT_MODIFIED);
        assert!(resp.body().is_empty());
    }

    #[test]
    fn parses_response_without_reason_phrase_gracefully() {
        // splitn(3) tolerates a missing reason phrase.
        let wire = b"HTTP/1.1 200\r\ncontent-length: 2\r\n\r\nok";
        let (resp, _) = parse_response(wire).unwrap().unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(&resp.body()[..], b"ok");
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok()
            .last_modified(mutcon_core::time::Timestamp::from_secs(784_111_777))
            .header("Cache-Control", "max-age=0, delta=600000")
            .body(&b"payload"[..])
            .build();
        let wire = resp.to_bytes();
        let (parsed, n) = parse_response(&wire).unwrap().unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(parsed.status(), StatusCode::OK);
        assert_eq!(
            parsed.headers().get(HeaderName::LAST_MODIFIED),
            Some("Sun, 06 Nov 1994 08:49:37 GMT")
        );
        assert_eq!(parsed.body(), resp.body());
    }

    #[test]
    fn rejects_malformed_responses() {
        assert_eq!(
            parse_response(b"HTTP/1.1 9999 Bad\r\n\r\n").unwrap_err(),
            ParseError::InvalidStatus
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n").unwrap_err(),
            ParseError::InvalidStatus
        );
        assert_eq!(
            parse_response(b"HTTQ/1.1 200 OK\r\n\r\n").unwrap_err(),
            ParseError::InvalidVersion
        );
    }

    #[test]
    fn resumable_request_parser_handles_byte_at_a_time() {
        let req = Request::get("/incremental")
            .host("example.org")
            .header("X-Thing", "a b c")
            .body(&b"body-bytes"[..])
            .build();
        let wire = req.to_bytes();

        let mut parser = RequestParser::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut parsed = None;
        for (i, &byte) in wire.iter().enumerate() {
            buf.push(byte);
            match parser.advance(&buf).unwrap() {
                Some((req, consumed)) => {
                    assert_eq!(i + 1, wire.len(), "completed only on the last byte");
                    assert_eq!(consumed, wire.len());
                    parsed = Some(req);
                }
                None => {
                    assert!(parser.in_progress());
                    assert!(i + 1 < wire.len());
                }
            }
        }
        let parsed = parsed.expect("message completed");
        assert_eq!(parsed.target(), "/incremental");
        assert_eq!(&parsed.body()[..], b"body-bytes");
        assert!(!parser.in_progress(), "parser reset after completion");
    }

    #[test]
    fn resumable_parser_survives_split_terminator() {
        // The \r\n\r\n straddles two reads; the resumed scan must back up
        // far enough to see it.
        let wire = b"GET /x HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        assert!(parser.advance(&wire[..17]).unwrap().is_none()); // ends mid-terminator
        let (req, n) = parser.advance(wire).unwrap().expect("complete");
        assert_eq!(req.target(), "/x");
        assert_eq!(n, wire.len());
    }

    #[test]
    fn resumable_parser_chains_pipelined_messages() {
        let mut wire = Request::get("/a").build().to_bytes();
        wire.extend(Request::get("/b").body(&b"zz"[..]).build().to_bytes());
        let mut parser = RequestParser::new();
        let (first, n1) = parser.advance(&wire).unwrap().unwrap();
        assert_eq!(first.target(), "/a");
        let rest = &wire[n1..];
        let (second, n2) = parser.advance(rest).unwrap().unwrap();
        assert_eq!(second.target(), "/b");
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn resumable_response_parser_handles_partial_body() {
        let resp = Response::ok().body(&b"0123456789"[..]).build();
        let wire = resp.to_bytes();
        let head_len = wire.len() - 10;

        let mut parser = ResponseParser::new();
        // Head complete, body partial: header section parsed once, held.
        assert!(parser.advance(&wire[..head_len + 4]).unwrap().is_none());
        assert!(parser.in_progress());
        let (parsed, n) = parser.advance(&wire).unwrap().expect("complete");
        assert_eq!(n, wire.len());
        assert_eq!(&parsed.body()[..], b"0123456789");
        assert!(!parser.in_progress());
    }

    #[test]
    fn resumable_parser_propagates_errors() {
        let mut parser = RequestParser::new();
        assert!(parser.advance(b"junk start line\r\n\r\n").is_err());
        let mut parser = ResponseParser::new();
        assert_eq!(
            parser.advance(b"HTTP/1.1 abc OK\r\n\r\n").unwrap_err(),
            ParseError::InvalidStatus
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(ParseError::InvalidHeader.to_string(), "invalid header line");
        assert!(!ParseError::BodyTooLarge.to_string().is_empty());
    }
}
