//! The zero-copy send path: write plans.
//!
//! A response leaves the reactor as **two logical segments**: a small
//! contiguous buffer (status line, headers, any per-response additions
//! and the blank line) and an optional **shared body slice** — a
//! refcounted `Bytes`, handed out by the cache or held by the reply,
//! never copied.
//! [`WritePlan`] tracks flush progress across both segments and pushes
//! them with one `writev(2)` per readiness while both still have
//! unwritten bytes (std's `write_vectored` on the socket), falling back
//! to plain `write(2)` when only one remains.
//!
//! Each connection owns its plan's buffer and keeps it across keep-alive
//! responses (cleared, not freed), so a keep-alive connection allocates
//! no per-request buffers at all. A one-off huge response doesn't pin
//! memory: a buffer grown past [`MAX_RETAINED_CAP`] is dropped instead of
//! retained.
//!
//! Flushing is abstracted over [`WriteSink`] so tests can drive a plan
//! through every possible partial-write split (the write-side mirror of
//! the parser's byte-at-a-time tests) without a socket.

use std::io::{self, IoSlice};
use std::net::TcpStream;

use bytes::Bytes;

/// Per-buffer capacity ceiling for retention: a buffer grown past this
/// by an outsized response is dropped at reset instead of kept hot.
pub const MAX_RETAINED_CAP: usize = 64 * 1024;

/// Destination of a flush: a socket in production, a scripted sink in
/// tests.
pub trait WriteSink {
    /// Writes one slice, returning how many bytes were taken.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when the sink is full; any other error is fatal to
    /// the connection.
    fn write_one(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Gathers two slices in order with one call, returning how many
    /// bytes were taken (possibly a partial prefix crossing the
    /// boundary).
    ///
    /// # Errors
    ///
    /// Same contract as [`WriteSink::write_one`].
    fn write_two(&mut self, first: &[u8], second: &[u8]) -> io::Result<usize>;
}

impl WriteSink for TcpStream {
    fn write_one(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }

    fn write_two(&mut self, first: &[u8], second: &[u8]) -> io::Result<usize> {
        io::Write::write_vectored(self, &[IoSlice::new(first), IoSlice::new(second)])
    }
}

/// Syscall counts from one flush, merged into the engine metrics by the
/// caller (one atomic update per flush, not per syscall).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Plain `write(2)` calls issued.
    pub write_calls: u64,
    /// `writev(2)` calls issued.
    pub writev_calls: u64,
    /// Flush passes the sink blocked — the client socket back-pressured
    /// mid-response. The engine counts these as write stalls.
    pub blocked: u64,
}

/// Flush progress over a contiguous buffer plus an optional shared body
/// slice.
///
/// Queue a response by appending its head to [`WritePlan::buf_mut`] and
/// attaching its body's refcounted slice with [`WritePlan::set_body`].
/// Then call
/// [`WritePlan::flush`] whenever the socket is writable.
#[derive(Debug, Default)]
pub struct WritePlan {
    buf: Vec<u8>,
    body: Option<Bytes>,
    written: usize,
}

impl WritePlan {
    /// An empty plan with no buffer capacity.
    pub fn new() -> WritePlan {
        WritePlan::default()
    }

    /// The contiguous buffer, for queueing head bytes. Appending while a
    /// previous response is still partially flushed is fine — pipelined
    /// responses queue back to back.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Attaches the shared body slice to send after the buffer. Only one
    /// may be pending at a time; empty bodies are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a shared body is already attached (the engine flushes a
    /// body-bearing response fully before queueing the next).
    pub fn set_body(&mut self, body: Bytes) {
        if body.is_empty() {
            return;
        }
        assert!(self.body.is_none(), "shared body already pending");
        self.body = Some(body);
    }

    /// Total bytes queued (flushed or not).
    fn total(&self) -> usize {
        self.buf.len() + self.body.as_ref().map_or(0, |b| b.len())
    }

    /// Whether nothing is queued at all.
    pub(crate) fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.body.is_none()
    }

    /// Whether queued bytes are still waiting for the sink.
    pub(crate) fn has_unwritten(&self) -> bool {
        self.written < self.total()
    }

    /// Drops any queued bytes and resets progress, keeping the buffer's
    /// capacity for the next response unless it grew past `max_retain`.
    pub fn reset(&mut self, max_retain: usize) {
        if self.buf.capacity() > max_retain {
            self.buf = Vec::new();
        } else {
            self.buf.clear();
        }
        self.body = None;
        self.written = 0;
    }

    /// Pushes queued bytes into `sink` until everything is out (`true`:
    /// the plan auto-resets, retaining at most `max_retain` buffer
    /// capacity) or the sink blocks (`false`: re-flush when it reports
    /// writable again). Uses one gathering `write_two` per pass while both
    /// segments have unwritten bytes.
    ///
    /// # Errors
    ///
    /// A sink error (other than `WouldBlock`/`Interrupted`) aborts the
    /// flush; a sink that accepts 0 bytes reports `WriteZero`. Either
    /// way the connection should be closed.
    pub fn flush(
        &mut self,
        sink: &mut impl WriteSink,
        max_retain: usize,
        stats: &mut FlushStats,
    ) -> io::Result<bool> {
        loop {
            if !self.has_unwritten() {
                self.reset(max_retain);
                return Ok(true);
            }
            // With nothing of the buffer left, what is unwritten is body.
            let head = &self.buf[self.written.min(self.buf.len())..];
            let result = match &self.body {
                Some(body) if !head.is_empty() => {
                    stats.writev_calls += 1;
                    sink.write_two(head, body)
                }
                Some(body) => {
                    stats.write_calls += 1;
                    sink.write_one(&body[self.written - self.buf.len()..])
                }
                None => {
                    stats.write_calls += 1;
                    sink.write_one(head)
                }
            };
            match result {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "sink accepted no bytes",
                    ))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    stats.blocked += 1;
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink accepting at most `per_call` bytes per call, optionally
    /// blocking every other call, recording everything it takes.
    struct TrickleSink {
        out: Vec<u8>,
        per_call: usize,
        block_alternate: bool,
        calls: usize,
        gathers: usize,
    }

    impl TrickleSink {
        fn new(per_call: usize, block_alternate: bool) -> TrickleSink {
            TrickleSink {
                out: Vec::new(),
                per_call,
                block_alternate,
                calls: 0,
                gathers: 0,
            }
        }

        fn admit(&mut self) -> io::Result<usize> {
            self.calls += 1;
            if self.block_alternate && self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            Ok(self.per_call)
        }
    }

    impl WriteSink for TrickleSink {
        fn write_one(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.admit()?.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_two(&mut self, first: &[u8], second: &[u8]) -> io::Result<usize> {
            let mut n = self.admit()?;
            self.gathers += 1;
            let take_first = n.min(first.len());
            self.out.extend_from_slice(&first[..take_first]);
            n -= take_first;
            let take_second = n.min(second.len());
            self.out.extend_from_slice(&second[..take_second]);
            Ok(take_first + take_second)
        }
    }

    fn plan_with(head: &[u8], body: &[u8]) -> WritePlan {
        let mut plan = WritePlan::new();
        plan.buf_mut().extend_from_slice(head);
        plan.set_body(Bytes::copy_from_slice(body));
        plan
    }

    fn drain(plan: &mut WritePlan, sink: &mut TrickleSink) -> FlushStats {
        let mut stats = FlushStats::default();
        while !plan.flush(sink, MAX_RETAINED_CAP, &mut stats).unwrap() {}
        stats
    }

    #[test]
    fn every_split_point_yields_identical_bytes() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n";
        let body = b"hello world";
        let mut expected = head.to_vec();
        expected.extend_from_slice(body);
        for per_call in 1..=expected.len() {
            for block_alternate in [false, true] {
                let mut plan = plan_with(head, body);
                let mut sink = TrickleSink::new(per_call, block_alternate);
                let stats = drain(&mut plan, &mut sink);
                assert_eq!(sink.out, expected, "per_call={per_call}");
                assert!(plan.is_idle());
                assert!(stats.writev_calls >= 1, "head+body must gather");
            }
        }
    }

    #[test]
    fn gather_stops_once_the_buffer_is_out() {
        // Take exactly the head on the first call: the remainder must go
        // out with plain writes, not gathers.
        let head = b"head-bytes\r\n\r\n";
        let body = b"tail";
        let mut plan = plan_with(head, body);
        let mut sink = TrickleSink::new(head.len(), false);
        let stats = drain(&mut plan, &mut sink);
        let mut expected = head.to_vec();
        expected.extend_from_slice(body);
        assert_eq!(sink.out, expected);
        assert_eq!(stats.writev_calls, 1);
        assert_eq!(sink.gathers, 1);
        assert_eq!(stats.write_calls, 1);
    }

    #[test]
    fn buffer_only_plan_never_gathers() {
        let mut plan = WritePlan::new();
        plan.buf_mut().extend_from_slice(b"just a head");
        let mut sink = TrickleSink::new(3, true);
        let stats = drain(&mut plan, &mut sink);
        assert_eq!(sink.out, b"just a head");
        assert_eq!(stats.writev_calls, 0);
        assert!(stats.write_calls >= 1);
    }

    #[test]
    fn blocked_passes_are_counted() {
        let mut plan = plan_with(b"0123456789", b"abcdefghij");
        let mut sink = TrickleSink::new(4, true);
        let stats = drain(&mut plan, &mut sink);
        assert!(stats.blocked >= 1, "alternating sink must block");
        assert!(plan.is_idle());
        // An unobstructed drain records no stalls.
        let mut plan = plan_with(b"head", b"body");
        let mut sink = TrickleSink::new(usize::MAX, false);
        let stats = drain(&mut plan, &mut sink);
        assert_eq!(stats.blocked, 0);
    }

    #[test]
    fn write_zero_is_an_error() {
        let mut plan = plan_with(b"x", b"");
        let mut sink = TrickleSink::new(0, false);
        let mut stats = FlushStats::default();
        let err = plan
            .flush(&mut sink, MAX_RETAINED_CAP, &mut stats)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn reset_caps_retained_capacity() {
        let mut plan = WritePlan::new();
        plan.buf_mut().extend_from_slice(&[0u8; 100]);
        plan.reset(64);
        assert_eq!(plan.buf_mut().capacity(), 0, "oversized buffer dropped");
        plan.buf_mut().extend_from_slice(&[1, 2, 3]);
        let cap = plan.buf_mut().capacity();
        plan.reset(64);
        assert_eq!(plan.buf_mut().capacity(), cap, "small buffer retained");
        assert!(plan.is_idle());
    }

    /// A connected loopback pair: the sender, then the receiver.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (receiver, _) = listener.accept().unwrap();
        (sender, receiver)
    }

    #[test]
    fn writev_gathers_slices_in_order() {
        use std::io::Read;

        let (mut sender, mut receiver) = socket_pair();
        let n = sender.write_two(b"head: 1\r\n\r\n", b"shared").unwrap();
        assert_eq!(n, b"head: 1\r\n\r\nshared".len());
        assert_eq!(
            sender.write_two(b"", b" body").unwrap(),
            5,
            "an empty slice"
        );

        let mut got = vec![0u8; n + 5];
        receiver.read_exact(&mut got).unwrap();
        assert_eq!(got, b"head: 1\r\n\r\nshared body");
    }

    #[test]
    fn writev_reports_partial_progress() {
        use std::io::Read;

        // A 4 MiB body cannot fit a socket's send buffer: the kernel takes
        // only a prefix of the gather, which callers must account for.
        let (mut sender, mut receiver) = socket_pair();
        sender.set_nonblocking(true).unwrap();
        let head = [b'h'; 64];
        let body = vec![b'b'; 4 * 1024 * 1024];
        let mut sent = 0;
        loop {
            match sender.write_two(&head[sent.min(64)..], &body) {
                Ok(n) => {
                    assert!(n > 0);
                    sent += n;
                    if sent >= 64 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(sent > 0, "at least one writev must land");
        assert!(
            sent < 64 + body.len(),
            "a 4 MiB gather cannot fit a socket buffer in one call"
        );
        let mut got = vec![0u8; sent.min(64)];
        receiver.read_exact(&mut got).unwrap();
        assert!(got.iter().all(|&b| b == b'h'));
    }

    #[test]
    fn flush_done_retains_capacity_across_responses() {
        let mut sink = TrickleSink::new(usize::MAX, false);
        let mut plan = WritePlan::new();
        plan.buf_mut().extend_from_slice(b"response one");
        drain(&mut plan, &mut sink);
        let cap = plan.buf_mut().capacity();
        assert!(cap >= b"response one".len());
        plan.buf_mut().extend_from_slice(b"two");
        drain(&mut plan, &mut sink);
        assert_eq!(
            plan.buf_mut().capacity(),
            cap,
            "keep-alive reuse must not reallocate"
        );
        assert_eq!(sink.out, b"response onetwo");
    }
}
