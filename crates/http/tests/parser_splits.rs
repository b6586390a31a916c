//! Exhaustive split-point tests for the resumable parsers: every
//! smoke-test byte stream, split at every boundary, must parse to
//! exactly what the one-shot parser produces — the property the
//! readiness-driven reactors rely on when reads fragment arbitrarily.
//!
//! The seeded twins, mutated streams fed a byte at a time, are in
//! `corpus.rs`.

use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{parse_request, parse_response, RequestParser, ResponseParser};
use mutcon_http::types::Method;

/// The smoke streams: every request wire shape the workspace exchanges.
fn request_streams() -> Vec<(&'static str, Vec<u8>)> {
    let mut streams = vec![
        ("minimal", Request::get("/x").build().to_bytes()),
        (
            "headers",
            Request::get("/news/story.html")
                .host("example.org")
                .header("X-Thing", "a b c")
                .keep_alive()
                .build()
                .to_bytes(),
        ),
        (
            "conditional-poll",
            Request::get("/obj")
                .host("127.0.0.1:8080")
                .if_modified_since(mutcon_core::time::Timestamp::from_secs(784_111_777))
                .header("x-last-modified-ms", "784111777123")
                .build()
                .to_bytes(),
        ),
        (
            "body",
            Request::builder(Method::Put, "/obj")
                .connection_close()
                .body(&b"0123456789abcdef"[..])
                .build()
                .to_bytes(),
        ),
    ];
    // A pipelined pair in one stream.
    let mut pipelined = Request::get("/a").build().to_bytes();
    pipelined.extend(Request::get("/b").body(&b"zz"[..]).build().to_bytes());
    streams.push(("pipelined", pipelined));
    streams
}

/// The smoke streams on the response side.
fn response_streams() -> Vec<(&'static str, Vec<u8>)> {
    let mut streams = vec![
        ("no-body", Response::not_modified().build().to_bytes()),
        (
            "stamped",
            Response::ok()
                .last_modified(mutcon_core::time::Timestamp::from_secs(784_111_777))
                .header("x-last-modified-ms", "784111777123")
                .header("x-object-version", "17")
                .keep_alive()
                .body(&b"object=/x version=17\n"[..])
                .build()
                .to_bytes(),
        ),
        (
            "close",
            Response::ok()
                .connection_close()
                .body(&b"bye"[..])
                .build()
                .to_bytes(),
        ),
        (
            "history",
            Response::ok()
                .header("x-modification-history", "100,200,300")
                .body(&b"payload-bytes"[..])
                .build()
                .to_bytes(),
        ),
    ];
    let mut pipelined = Response::ok().body(&b"first"[..]).build().to_bytes();
    pipelined.extend(Response::not_modified().build().to_bytes());
    streams.push(("pipelined", pipelined));
    streams
}

#[test]
fn request_parser_agrees_with_one_shot_at_every_split() {
    for (name, wire) in request_streams() {
        let (expected, expected_n) = parse_request(&wire)
            .unwrap_or_else(|e| panic!("{name}: one-shot parse failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: one-shot parse incomplete"));
        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            // Feed the prefix; the parser may complete early (the split
            // is past the first message) or ask for more.
            let early = parser
                .advance(&wire[..split])
                .unwrap_or_else(|e| panic!("{name} split {split}: prefix error: {e}"));
            let (parsed, consumed) = match early {
                Some(done) => done,
                None => parser
                    .advance(&wire)
                    .unwrap_or_else(|e| panic!("{name} split {split}: resume error: {e}"))
                    .unwrap_or_else(|| panic!("{name} split {split}: never completed")),
            };
            assert_eq!(consumed, expected_n, "{name} split {split}: consumed");
            assert_eq!(parsed, expected, "{name} split {split}: message");
        }
    }
}

#[test]
fn response_parser_agrees_with_one_shot_at_every_split() {
    for (name, wire) in response_streams() {
        let (expected, expected_n) = parse_response(&wire)
            .unwrap_or_else(|e| panic!("{name}: one-shot parse failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: one-shot parse incomplete"));
        for split in 0..=wire.len() {
            let mut parser = ResponseParser::new();
            let early = parser
                .advance(&wire[..split])
                .unwrap_or_else(|e| panic!("{name} split {split}: prefix error: {e}"));
            let (parsed, consumed) = match early {
                Some(done) => done,
                None => parser
                    .advance(&wire)
                    .unwrap_or_else(|e| panic!("{name} split {split}: resume error: {e}"))
                    .unwrap_or_else(|| panic!("{name} split {split}: never completed")),
            };
            assert_eq!(consumed, expected_n, "{name} split {split}: consumed");
            assert_eq!(parsed, expected, "{name} split {split}: message");
        }
    }
}

/// Byte-at-a-time (the most fragmented read pattern a reactor can see):
/// the parser must complete exactly on the last byte of each message
/// and chain across pipelined messages.
#[test]
fn request_parser_survives_byte_at_a_time_pipelines() {
    for (name, wire) in request_streams() {
        // Collect the one-shot reference sequence.
        let mut expected = Vec::new();
        let mut rest: &[u8] = &wire;
        while !rest.is_empty() {
            let (req, n) = parse_request(rest).unwrap().unwrap();
            expected.push(req);
            rest = &rest[n..];
        }

        // Replay byte-by-byte through one resumable parser.
        let mut parser = RequestParser::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut got = Vec::new();
        for &byte in &wire {
            buf.push(byte);
            if let Some((req, consumed)) = parser.advance(&buf).unwrap() {
                got.push(req);
                buf.drain(..consumed);
            }
        }
        assert_eq!(got, expected, "{name}: byte-at-a-time sequence differs");
        assert!(buf.is_empty(), "{name}: trailing unconsumed bytes");
        assert!(!parser.in_progress(), "{name}: parser not reset at end");
    }
}

#[test]
fn response_parser_survives_byte_at_a_time_pipelines() {
    for (name, wire) in response_streams() {
        let mut expected = Vec::new();
        let mut rest: &[u8] = &wire;
        while !rest.is_empty() {
            let (resp, n) = parse_response(rest).unwrap().unwrap();
            expected.push(resp);
            rest = &rest[n..];
        }

        let mut parser = ResponseParser::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut got = Vec::new();
        for &byte in &wire {
            buf.push(byte);
            if let Some((resp, consumed)) = parser.advance(&buf).unwrap() {
                got.push(resp);
                buf.drain(..consumed);
            }
        }
        assert_eq!(got, expected, "{name}: byte-at-a-time sequence differs");
        assert!(buf.is_empty(), "{name}: trailing unconsumed bytes");
        assert!(!parser.in_progress(), "{name}: parser not reset at end");
    }
}

/// Malformed streams must fail identically no matter where the read
/// fragments: a split can delay the error, never change or suppress it.
#[test]
fn malformed_streams_fail_identically_at_every_split() {
    let bad_requests: &[&[u8]] = &[
        b"GET\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    ];
    for wire in bad_requests {
        let expected = parse_request(wire).expect_err("one-shot must reject");
        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            let result = match parser.advance(&wire[..split]) {
                Err(e) => Err(e),
                Ok(Some(_)) => panic!("malformed stream parsed at split {split}"),
                Ok(None) => parser.advance(wire).map(|_| ()),
            };
            assert_eq!(
                result.expect_err("resumable must reject too"),
                expected,
                "split {split} changed the error for {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }
}
