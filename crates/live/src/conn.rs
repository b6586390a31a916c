//! The client and the origin half of a connection, without their sockets.
//!
//! [`ClientConn`] is everything the engine keeps for one client between
//! accept and close: the request parser and the unparsed input, the
//! response being written, the fetch the client waits on, the request
//! deadline, and the EOF and `Connection: close` flags. It touches no
//! socket and reads the time only from the instant it is handed. The
//! reactor ([`crate::server`]) moves the bytes and calls it at the
//! boundaries a request crosses: read done ([`ClientConn::fill`]),
//! parsed ([`ClientConn::next_request`]), queued ([`ClientConn::queue`]),
//! flushed ([`ClientConn::flush`]).
//!
//! One request is in flight at a time: pipelined requests wait in the
//! read buffer until the response before them is flushed, so responses
//! leave in request order.
//!
//! [`OriginConn`] is one origin socket's exchange. The reactor's pooled
//! sockets drive it for misses and refresh polls alike, so both reuse a
//! socket only after a clean keep-alive response and retry only a stale
//! one ([`OriginConn::stale`]).

use std::io;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};
use mutcon_http::types::StatusCode;
use mutcon_sim::reactor::Interest;

use crate::server::Reply;
use crate::upstream::JobId;
use crate::vectored::{
    FlushOutcome, FlushStats, WritePlan, WriteSink, INLINE_BODY, MAX_RETAINED_CAP,
};

/// The most input buffered ahead of the state machine (pipelining
/// back-pressure), and so the largest request a client may send: one
/// still incomplete when the buffer is this full will never be read to
/// its end, and gets a `413`.
pub(crate) const MAX_BUFFERED: usize = 256 * 1024;

/// A request must be complete this long after its first byte: a sender
/// of one byte every few seconds never goes idle, so the reactor's idle
/// timeout alone would hold its slot forever. It gets a `408` and a close.
pub(crate) const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// What [`ClientConn::next_request`] found.
#[derive(Debug)]
pub(crate) enum Next {
    /// A complete request, taken off the input.
    Request(Request),
    /// A reply is owed, or the connection closes after the last one.
    Busy,
    /// Nothing buffered, or not yet a whole request.
    Incomplete,
    /// The request will not fit the buffer or the parser's body limit: a
    /// `413` ([`ClientConn::refuse`]).
    TooLarge,
    /// The bytes can never become a request: the connection is lost.
    Malformed,
}

/// How far [`ClientConn::flush`] got.
#[derive(Debug)]
pub(crate) enum Flush {
    /// Nothing was queued.
    Idle,
    /// The socket is full; the rest waits for writability.
    Blocked,
    /// All of it is out.
    Done,
}

/// One client connection's request/response state. See the module docs.
#[derive(Default)]
pub(crate) struct ClientConn {
    parser: RequestParser,
    read_buf: BytesMut,
    /// The outgoing response, flushed with one `writev` (head + shared
    /// body) when the socket takes it.
    write: WritePlan,
    /// The pool job of the upstream fetch this client waits on, if any.
    pending: Option<JobId>,
    /// When the parser first found the request at the front of
    /// `read_buf` incomplete; `None` between requests.
    request_started: Option<Instant>,
    /// Peer sent EOF; close once everything buffered is served.
    peer_closed: bool,
    /// The peer asked for `Connection: close` (or was refused); serve the
    /// current request, flush, then close. Later bytes are ignored.
    close_after_write: bool,
}

impl ClientConn {
    /// Takes input: `read` appends to the buffer at most the room it is
    /// given, so a request one byte over [`MAX_BUFFERED`] never fits
    /// however its bytes arrive, and returns whether the peer sent EOF.
    pub(crate) fn fill(
        &mut self,
        read: impl FnOnce(&mut BytesMut, usize) -> io::Result<bool>,
    ) -> io::Result<()> {
        let room = MAX_BUFFERED.saturating_sub(self.read_buf.len());
        self.peer_closed |= read(&mut self.read_buf, room)?;
        Ok(())
    }

    /// The next buffered request, or why there is none. The caller queues
    /// a request's reply or awaits its fetch before asking again; from
    /// then until the reply is flushed the answer is [`Next::Busy`]. A
    /// request first found incomplete starts the request deadline at
    /// `now`.
    pub(crate) fn next_request(&mut self, now: Instant) -> Next {
        if self.in_flight() || self.close_after_write {
            return Next::Busy;
        }
        if self.read_buf.is_empty() {
            return Next::Incomplete;
        }
        match self.parser.advance(&self.read_buf) {
            Ok(Some((request, consumed))) => {
                self.read_buf.advance(consumed);
                self.request_started = None;
                self.close_after_write = !request.wants_keep_alive();
                Next::Request(request)
            }
            Ok(None) if self.read_buf.len() < MAX_BUFFERED => {
                self.request_started.get_or_insert(now);
                Next::Incomplete
            }
            Ok(None) | Err(ParseError::BodyTooLarge) => Next::TooLarge,
            Err(_) => Next::Malformed,
        }
    }

    /// The request in flight waits on upstream fetch `job`.
    pub(crate) fn await_fetch(&mut self, job: JobId) {
        self.pending = Some(job);
    }

    /// Queues the response to the request in flight, which ends any
    /// fetch it waited on. The head is rendered into the connection's
    /// reusable write buffer. A [`Reply::Full`] body of at most
    /// [`INLINE_BODY`] bytes is copied behind it (one contiguous
    /// `write`); a larger one, and a [`Reply::Prepared`] body whatever its
    /// size, rides as a shared slice gathered by `writev`. Returns whether
    /// body bytes were copied.
    pub(crate) fn queue(&mut self, reply: Reply) -> bool {
        debug_assert!(self.write.is_idle(), "one response in flight at a time");
        self.pending = None;
        let buf = self.write.buf_mut();
        let mut copied = false;
        let shared = match reply {
            Reply::Full(mut response) => {
                if self.close_after_write {
                    mutcon_http::connection::set_close(response.headers_mut());
                }
                response.write_head(buf);
                buf.extend_from_slice(b"\r\n");
                let body = response.body();
                if body.len() > INLINE_BODY {
                    body.clone()
                } else {
                    buf.extend_from_slice(body);
                    copied = !body.is_empty();
                    Bytes::new()
                }
            }
            Reply::Prepared(prepared) => {
                buf.extend_from_slice(&prepared.head);
                buf.extend_from_slice(prepared.extra);
                if self.close_after_write {
                    buf.extend_from_slice(b"connection: close\r\n");
                }
                buf.extend_from_slice(b"\r\n");
                prepared.body
            }
        };
        self.write.set_body(shared);
        copied
    }

    /// Queues `status` as the connection's last response: it closes once
    /// that is flushed, and whatever it sent is dropped unread.
    pub(crate) fn refuse(&mut self, status: StatusCode) {
        self.close_after_write = true;
        self.request_started = None;
        self.read_buf.clear();
        self.queue(Reply::Full(Response::builder(status).build()));
    }

    /// Writes as much of the queued response as `sink` takes; an error
    /// (other than `WouldBlock`) ends the connection.
    pub(crate) fn flush(
        &mut self,
        sink: &mut impl WriteSink,
        stats: &mut FlushStats,
    ) -> io::Result<Flush> {
        if self.write.is_idle() {
            return Ok(Flush::Idle);
        }
        Ok(match self.write.flush(sink, MAX_RETAINED_CAP, stats)? {
            FlushOutcome::Blocked => Flush::Blocked,
            FlushOutcome::Done => Flush::Done,
        })
    }

    /// The readiness to wait for: WRITABLE while a response is unwritten;
    /// none after EOF, which a level-triggered poller would report on
    /// every turn, or with the buffer full; READABLE otherwise, a fetch
    /// pending included (dropping and re-arming it would cost two
    /// `epoll_ctl` per miss).
    pub(crate) fn interest(&self) -> Interest {
        if self.write.has_unwritten() {
            Interest::WRITABLE
        } else if self.peer_closed || self.read_buf.len() >= MAX_BUFFERED {
            Interest::NONE
        } else {
            Interest::READABLE
        }
    }

    /// Whether the connection owes work: response bytes unwritten or a
    /// fetch out.
    pub(crate) fn in_flight(&self) -> bool {
        self.write.has_unwritten() || self.pending.is_some()
    }

    /// Whether nothing more will be served: the peer sent EOF or the
    /// connection closes after its response, and nothing is owed. Asked
    /// once [`ClientConn::next_request`] has run dry, so no complete
    /// request is left in the buffer.
    pub(crate) fn is_finished(&self) -> bool {
        (self.peer_closed || self.close_after_write) && !self.in_flight()
    }

    /// Whether the request being read is still incomplete
    /// [`REQUEST_TIMEOUT`] after its first byte was found.
    pub(crate) fn overdue(&self, now: Instant) -> bool {
        self.request_started
            .is_some_and(|started| now.duration_since(started) > REQUEST_TIMEOUT)
    }

    /// Closes the connection's books: the fetch to leave, if any.
    pub(crate) fn close(self) -> Option<JobId> {
        self.pending
    }
}

/// What [`OriginConn::response`] found.
#[derive(Debug)]
pub(crate) enum Received {
    /// Not yet a whole response.
    Pending,
    /// A whole response; `reusable` if it was keep-alive, nothing
    /// followed it and the origin sent no EOF. Otherwise the socket closes.
    Done { response: Response, reusable: bool },
    /// EOF mid-response (`UnexpectedEof`) or bytes that can never parse
    /// (`InvalidData`): the socket is lost.
    Failed(io::Error),
}

/// One origin socket's exchange: the response parser and read buffer,
/// the request bytes written and the responses served. See the module
/// docs.
#[derive(Debug, Default)]
pub(crate) struct OriginConn {
    parser: ResponseParser,
    read_buf: BytesMut,
    written: usize,
    /// `> 0` marks the socket as reused.
    served: u32,
    eof: bool,
}

impl OriginConn {
    /// Writes what `write` takes of `request` past the bytes already
    /// out; `Ok(true)` once all of it is, `Ok(false)` at `WouldBlock`
    /// (the socket is full).
    pub(crate) fn send(
        &mut self,
        request: &[u8],
        mut write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) -> io::Result<bool> {
        while self.written < request.len() {
            match write(&request[self.written..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "origin closed")),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Takes input: `read` appends to the buffer and returns whether the
    /// origin sent EOF.
    pub(crate) fn fill(
        &mut self,
        read: impl FnOnce(&mut BytesMut) -> io::Result<bool>,
    ) -> io::Result<()> {
        self.eof |= read(&mut self.read_buf)?;
        Ok(())
    }

    /// The response, once the input holds all of it; a whole one readies
    /// the connection for the next request.
    pub(crate) fn response(&mut self) -> Received {
        match self.parser.advance(&self.read_buf) {
            Ok(Some((response, used))) => {
                let reusable =
                    !self.eof && used == self.read_buf.len() && response.wants_keep_alive();
                self.read_buf.clear();
                self.written = 0;
                self.served += 1;
                Received::Done { response, reusable }
            }
            Ok(None) if self.eof => {
                Received::Failed(io::Error::new(io::ErrorKind::UnexpectedEof, "origin closed"))
            }
            Ok(None) => Received::Pending,
            Err(e) => Received::Failed(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Whether the exchange failed with `err` only because the socket was
    /// stale, so the request may go once more on a fresh one: it had
    /// served a response, no byte of this one arrived, and `err` is not a
    /// timeout (a slow origin).
    pub(crate) fn stale(&self, err: &io::Error) -> bool {
        self.served > 0
            && self.read_buf.is_empty()
            && !self.parser.in_progress()
            && err.kind() != io::ErrorKind::TimedOut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PreparedResponse;
    use mutcon_http::parse::parse_response;
    use mutcon_http::types::Method;

    fn get(path: &str) -> Vec<u8> {
        format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n").into_bytes()
    }

    /// A `PUT /obj` whose wire form is exactly `len` bytes.
    fn put_of_len(len: usize) -> Vec<u8> {
        let wire = |body: usize| {
            Request::builder(Method::Put, "/obj")
                .body(vec![b'x'; body])
                .build()
                .to_bytes()
        };
        // Half the length has as many digits in `content-length` as the
        // final body will.
        let head = wire(len / 2).len() - len / 2;
        wire(len - head)
    }

    /// Hands `conn` what a read of `bytes` would, up to the room it
    /// leaves; `eof` if the peer then closed. Returns the bytes taken.
    fn feed(conn: &mut ClientConn, bytes: &[u8], eof: bool) -> usize {
        let mut taken = 0;
        conn.fill(|buf, room| {
            taken = bytes.len().min(room);
            buf.extend_from_slice(&bytes[..taken]);
            Ok(eof)
        })
        .unwrap();
        taken
    }

    fn target(next: Next) -> String {
        match next {
            Next::Request(request) => request.target().to_owned(),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn ok(body: &str) -> Reply {
        Reply::Full(Response::ok().body(body.as_bytes().to_vec()).build())
    }

    /// A client socket that takes `room` more bytes, then blocks.
    struct Sink {
        out: Vec<u8>,
        room: usize,
    }

    impl Sink {
        fn open() -> Sink {
            Sink {
                out: Vec::new(),
                room: usize::MAX,
            }
        }
    }

    impl WriteSink for Sink {
        fn write_one(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.out.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn write_two(&mut self, first: &[u8], second: &[u8]) -> io::Result<usize> {
            let n = self.write_one(first)?;
            let more = if n == first.len() {
                self.write_one(second).unwrap_or(0)
            } else {
                0
            };
            Ok(n + more)
        }
    }

    fn flush(conn: &mut ClientConn, sink: &mut Sink) -> Flush {
        conn.flush(sink, &mut FlushStats::default()).unwrap()
    }

    /// Every response in `wire`, parsed in order.
    fn responses(mut wire: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some((response, used)) = parse_response(wire).unwrap() {
            out.push(response);
            wire = &wire[used..];
        }
        assert!(wire.is_empty(), "{} bytes left over", wire.len());
        out
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time_in_order() {
        let now = Instant::now();
        let mut conn = ClientConn::default();
        let wire = [get("/1"), get("/2"), get("/3")].concat();
        feed(&mut conn, &wire, false);
        let mut sink = Sink::open();

        assert_eq!(target(conn.next_request(now)), "/1");
        conn.queue(ok("first"));
        assert!(
            matches!(conn.next_request(now), Next::Busy),
            "its response is unwritten"
        );
        assert!(matches!(flush(&mut conn, &mut sink), Flush::Done));

        assert_eq!(target(conn.next_request(now)), "/2");
        conn.await_fetch(7);
        assert!(
            matches!(flush(&mut conn, &mut sink), Flush::Idle),
            "nothing queued"
        );
        assert!(
            matches!(conn.next_request(now), Next::Busy),
            "a fetch is out"
        );
        conn.queue(ok("second"));
        flush(&mut conn, &mut sink);

        assert_eq!(target(conn.next_request(now)), "/3");
        conn.queue(ok("third"));
        flush(&mut conn, &mut sink);
        assert!(matches!(conn.next_request(now), Next::Incomplete));

        let bodies: Vec<_> = responses(&sink.out)
            .iter()
            .map(|r| r.body().to_vec())
            .collect();
        assert_eq!(bodies, [&b"first"[..], b"second", b"third"]);
    }

    #[test]
    fn connection_close_stops_parsing() {
        let now = Instant::now();
        let mut conn = ClientConn::default();
        let last = Request::get("/last").connection_close().build().to_bytes();
        feed(&mut conn, &[last, get("/ignored")].concat(), false);
        assert_eq!(target(conn.next_request(now)), "/last");
        conn.queue(ok("bye"));
        let mut sink = Sink::open();
        assert!(matches!(flush(&mut conn, &mut sink), Flush::Done));
        assert!(
            matches!(conn.next_request(now), Next::Busy),
            "nothing after the close"
        );
        assert!(conn.is_finished());
        let sent = responses(&sink.out);
        assert_eq!(sent.len(), 1);
        assert!(
            !sent[0].wants_keep_alive(),
            "the response announces the close"
        );
    }

    #[test]
    fn an_incomplete_request_waits_below_the_bound_and_is_a_413_at_it() {
        let now = Instant::now();
        let wire = put_of_len(MAX_BUFFERED + 1);
        let mut conn = ClientConn::default();
        feed(&mut conn, &wire[..MAX_BUFFERED - 1], false);
        assert!(matches!(conn.next_request(now), Next::Incomplete));
        assert_eq!(conn.interest(), Interest::READABLE);
        assert_eq!(
            feed(&mut conn, &wire[MAX_BUFFERED - 1..], false),
            1,
            "one byte of room"
        );
        assert!(matches!(conn.next_request(now), Next::TooLarge));
        assert_eq!(conn.interest(), Interest::NONE, "nothing more can be read");

        conn.refuse(StatusCode::PAYLOAD_TOO_LARGE);
        let mut sink = Sink::open();
        flush(&mut conn, &mut sink);
        let sent = responses(&sink.out);
        assert_eq!(sent[0].status(), StatusCode::PAYLOAD_TOO_LARGE);
        assert!(!sent[0].wants_keep_alive());
        assert!(conn.is_finished());

        // A request of exactly the bound fits.
        let mut conn = ClientConn::default();
        feed(&mut conn, &put_of_len(MAX_BUFFERED), false);
        assert!(matches!(conn.next_request(now), Next::Request(_)));
    }

    #[test]
    fn malformed_bytes_break_the_connection() {
        let mut conn = ClientConn::default();
        feed(&mut conn, b"definitely not http\r\n\r\n", false);
        assert!(matches!(conn.next_request(Instant::now()), Next::Malformed));
    }

    #[test]
    fn the_interest_follows_the_state() {
        let now = Instant::now();
        let mut conn = ClientConn::default();
        assert_eq!(conn.interest(), Interest::READABLE);
        feed(&mut conn, &get("/a"), false);
        assert_eq!(target(conn.next_request(now)), "/a");
        conn.await_fetch(1);
        assert_eq!(conn.interest(), Interest::READABLE, "armed behind a fetch");

        conn.queue(Reply::Prepared(PreparedResponse {
            head: Bytes::from_static(b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\n"),
            extra: b"x-cache: hit\r\n",
            body: Bytes::from_static(b"body"),
        }));
        assert_eq!(conn.interest(), Interest::WRITABLE);
        let mut sink = Sink {
            out: Vec::new(),
            room: 3,
        };
        assert!(matches!(flush(&mut conn, &mut sink), Flush::Blocked));
        assert_eq!(conn.interest(), Interest::WRITABLE, "still unwritten");
        sink.room = usize::MAX;
        assert!(matches!(flush(&mut conn, &mut sink), Flush::Done));
        assert_eq!(conn.interest(), Interest::READABLE);
        assert_eq!(responses(&sink.out)[0].body().as_ref(), b"body");

        feed(&mut conn, &[], true);
        assert_eq!(conn.interest(), Interest::NONE, "after EOF");

        // A flood pipelined behind a pending fetch fills the buffer.
        let mut conn = ClientConn::default();
        feed(&mut conn, &get("/b"), false);
        target(conn.next_request(now));
        conn.await_fetch(2);
        feed(&mut conn, &get("/c").repeat(MAX_BUFFERED), false);
        assert_eq!(conn.interest(), Interest::NONE, "at the bound");
    }

    #[test]
    fn the_request_deadline_runs_from_the_first_incomplete_parse() {
        let t0 = Instant::now();
        let mut conn = ClientConn::default();
        assert!(matches!(conn.next_request(t0), Next::Incomplete));
        assert!(
            !conn.overdue(t0 + REQUEST_TIMEOUT * 2),
            "nothing buffered, no deadline"
        );

        feed(&mut conn, b"GET /slow HTTP/1.1\r\n", false);
        assert!(matches!(conn.next_request(t0), Next::Incomplete));
        feed(&mut conn, b"host: x\r\n", false);
        let later = t0 + Duration::from_secs(1);
        assert!(matches!(conn.next_request(later), Next::Incomplete));
        assert!(!conn.overdue(t0 + REQUEST_TIMEOUT));
        assert!(
            conn.overdue(t0 + REQUEST_TIMEOUT + Duration::from_millis(1)),
            "from t0"
        );

        feed(&mut conn, b"\r\n", false);
        assert_eq!(target(conn.next_request(later)), "/slow");
        assert!(
            !conn.overdue(t0 + REQUEST_TIMEOUT * 2),
            "cleared by the request"
        );
    }

    #[test]
    fn after_eof_buffered_requests_are_served_before_the_connection_is_finished() {
        let now = Instant::now();
        let mut conn = ClientConn::default();
        let wire = [get("/1"), get("/2"), b"GET /never-fin".to_vec()].concat();
        feed(&mut conn, &wire, true);
        let mut sink = Sink::open();
        let mut served = Vec::new();
        // What the reactor does: serve until no request comes out, then
        // ask whether the connection is finished.
        loop {
            match conn.next_request(now) {
                Next::Request(request) => {
                    served.push(request.target().to_owned());
                    conn.queue(ok("x"));
                    assert!(!conn.is_finished(), "a response is owed");
                    flush(&mut conn, &mut sink);
                }
                Next::Incomplete => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(served, ["/1", "/2"]);
        assert_eq!(responses(&sink.out).len(), 2);
        assert!(conn.is_finished());
    }

    /// Hands `origin` what a read of `bytes` would; `eof` if the origin
    /// then closed.
    fn receive(origin: &mut OriginConn, bytes: &[u8], eof: bool) {
        origin
            .fill(|buf| {
                buf.extend_from_slice(bytes);
                Ok(eof)
            })
            .unwrap();
    }

    fn ok_wire(body: &str) -> Vec<u8> {
        Response::ok().keep_alive().body(body.as_bytes().to_vec()).build().to_bytes()
    }

    /// Whether a response in `wire` (fed in one read, then `eof`) leaves
    /// the socket reusable.
    fn reusable(wire: &[u8], eof: bool) -> bool {
        let mut origin = OriginConn::default();
        receive(&mut origin, wire, eof);
        match origin.response() {
            Received::Done { reusable, .. } => reusable,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    fn failure(origin: &mut OriginConn) -> io::ErrorKind {
        match origin.response() {
            Received::Failed(err) => err.kind(),
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn an_origin_socket_is_reusable_only_after_a_clean_keep_alive_response() {
        assert!(reusable(&ok_wire("a"), false));
        let close = Response::ok().connection_close().body(&b"a"[..]).build().to_bytes();
        assert!(!reusable(&close, false), "the origin said close");
        assert!(!reusable(&ok_wire("a"), true), "the origin sent EOF");
        let smuggled = [ok_wire("a"), ok_wire("WRONG")].concat();
        assert!(!reusable(&smuggled, false), "bytes behind the response");
        assert!(!reusable(&[ok_wire("a"), b"x".to_vec()].concat(), false));

        // Arriving in pieces changes nothing; a reusable socket starts
        // the next exchange from nothing.
        let mut origin = OriginConn::default();
        let wire = ok_wire("body");
        let (head, tail) = wire.split_at(10);
        receive(&mut origin, head, false);
        assert!(matches!(origin.response(), Received::Pending));
        receive(&mut origin, tail, false);
        assert!(matches!(origin.response(), Received::Done { reusable: true, .. }));
        assert!(matches!(origin.response(), Received::Pending), "nothing buffered");
    }

    #[test]
    fn eof_mid_response_is_unexpected_eof() {
        let wire = ok_wire("body");
        let mut origin = OriginConn::default();
        receive(&mut origin, &wire[..wire.len() - 1], true);
        assert_eq!(failure(&mut origin), io::ErrorKind::UnexpectedEof);
        let mut origin = OriginConn::default();
        receive(&mut origin, &[], true);
        assert_eq!(failure(&mut origin), io::ErrorKind::UnexpectedEof, "before any byte");
    }

    #[test]
    fn malformed_origin_bytes_are_invalid_data() {
        let mut origin = OriginConn::default();
        receive(&mut origin, b"definitely not http\r\n\r\n", false);
        assert_eq!(failure(&mut origin), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_request_split_over_partial_writes_goes_out_in_order() {
        let request = get("/a/longer/path");
        let mut origin = OriginConn::default();
        let mut out = Vec::new();
        let mut turns = 0;
        // Three bytes a turn, then the socket is full until the next one.
        while !origin
            .send(&request, |bytes| {
                if out.len() >= 3 * (turns + 1) {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = bytes.len().min(3);
                out.extend_from_slice(&bytes[..n]);
                Ok(n)
            })
            .unwrap()
        {
            turns += 1;
        }
        assert_eq!(out, request);
        assert!(turns > 1, "it took several writes");
        assert!(origin.send(&request, |_| panic!("all of it is out")).unwrap());

        let closed = OriginConn::default().send(&request, |_| Ok(0));
        assert_eq!(closed.unwrap_err().kind(), io::ErrorKind::WriteZero, "it took nothing");
    }

    #[test]
    fn only_a_reused_socket_that_got_no_byte_and_did_not_time_out_is_stale() {
        let reset = || io::Error::from(io::ErrorKind::ConnectionReset);
        let eof = || io::Error::from(io::ErrorKind::UnexpectedEof);
        let mut origin = OriginConn::default();
        assert!(!origin.stale(&reset()), "a fresh socket is never stale");

        receive(&mut origin, &ok_wire("a"), false);
        assert!(matches!(origin.response(), Received::Done { reusable: true, .. }));
        assert!(origin.stale(&reset()));
        assert!(origin.stale(&eof()));
        assert!(!origin.stale(&io::ErrorKind::TimedOut.into()), "the reactor's timeout");

        receive(&mut origin, b"HTTP/1.1 2", false);
        assert!(matches!(origin.response(), Received::Pending));
        assert!(!origin.stale(&reset()), "bytes of this response arrived");
    }
}
