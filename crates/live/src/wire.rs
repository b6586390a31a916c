//! The test harness's blocking message I/O and keep-alive client
//! (`tests/harness/wire.rs`), compiled into the unit tests only, with
//! the tests of its reads and writes.

#[path = "../tests/harness/wire.rs"]
#[allow(dead_code)]
mod harness;

pub(crate) use harness::*;

mod tests {
    use super::*;
    use bytes::BytesMut;
    use mutcon_http::message::{Request, Response};
    use mutcon_http::types::StatusCode;
    use std::io;
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
