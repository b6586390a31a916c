//! The load generator: blocking keep-alive clients, one request in
//! flight per connection, driven by one loop that is either closed (next
//! request on reply) or open (requests due on a fixed schedule, latency
//! timed from the instant each was *due*, so the wait a stall imposes on
//! the requests behind it is counted).
//!
//! The response reader is the harness's own — like the fixture origin it
//! stays clear of the `mutcon_http` parsers, so a parser change moves the
//! proxy and not the instrument. Every reply is verified (see
//! [`Checker`]) at the same cost on every commit.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutcon_sim::rng::SimRng;
use mutcon_traces::generator::zipf::ZipfCatalog;

use crate::fixture::{parse_tag, write_body, World, TAG_LEN};
use crate::spec::{FULL_COMPARE_EVERY, REQUEST_TIMEOUT};

/// One parsed response; `body` borrows the connection's buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply<'a> {
    pub status: u16,
    pub stamp_ms: Option<u64>,
    /// The `x-cache` header: `Some(true)` for `hit`.
    pub cache_hit: Option<bool>,
    pub body: &'a [u8],
}

/// A blocking keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    Ok(stream)
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Replaces a socket an error left in an unknown state.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(self.addr)?;
        Ok(())
    }

    /// Sends `request` and reads exactly one response.
    ///
    /// # Errors
    ///
    /// Socket errors, a read that outlasts the request timeout, a peer
    /// that closes mid-response, or a head this reader cannot parse.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut scanned = 0usize;
        let head_end = loop {
            // Re-scan only the tail a new read could have completed.
            let from = scanned.saturating_sub(3);
            if let Some(i) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + i + 4;
            }
            scanned = self.buf.len();
            self.fill(&mut chunk)?;
        };
        let (status, length, stamp_ms, cache_hit) = parse_head(&self.buf[..head_end])?;
        while self.buf.len() < head_end + length {
            self.fill(&mut chunk)?;
        }
        if self.buf.len() != head_end + length {
            return Err(invalid("bytes after the response: nothing was pipelined"));
        }
        Ok(Reply {
            status,
            stamp_ms,
            cache_hit,
            body: &self.buf[head_end..],
        })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize, Option<u64>, Option<bool>)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("no status code"))?;
    let (mut length, mut stamp_ms, mut cache_hit) = (None, None, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-last-modified-ms") {
            stamp_ms = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-cache") {
            cache_hit = Some(value == "hit");
        }
    }
    Ok((
        status,
        length.ok_or_else(|| invalid("no content-length"))?,
        stamp_ms,
        cache_hit,
    ))
}

/// The request a client sends for `path`.
pub fn request_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// Why a reply failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Status(u16),
    Length,
    Tag,
    Stamp,
    Regression,
    Body,
}

/// Verifies replies against the [`World`] they must have come from:
/// status 200, the expected length, opening and closing tags that agree
/// with each other, with the requested path and — through the update
/// trace — with `x-last-modified-ms`; stamps that never go backwards for
/// a path on this connection; and, for one reply in
/// [`FULL_COMPARE_EVERY`], every byte of the body.
#[derive(Debug)]
pub struct Checker {
    world: Arc<World>,
    epoch_unix_ms: u64,
    last_stamp: Vec<u64>,
    seen: u64,
    scratch: Vec<u8>,
    pub stamp_regressions: u64,
}

impl Checker {
    pub fn new(world: Arc<World>, epoch_unix_ms: u64) -> Checker {
        let paths = world.paths.len();
        Checker {
            world,
            epoch_unix_ms,
            last_stamp: vec![0; paths],
            seen: 0,
            scratch: Vec::new(),
            stamp_regressions: 0,
        }
    }

    /// The version served, or what was wrong with the reply.
    pub fn check(&mut self, key: u32, reply: &Reply<'_>) -> Result<u32, Fault> {
        if reply.status != 200 {
            return Err(Fault::Status(reply.status));
        }
        let size = self.world.body_bytes;
        if reply.body.len() != size {
            return Err(Fault::Length);
        }
        let (opening, closing) = (&reply.body[..TAG_LEN], &reply.body[size - TAG_LEN..]);
        let (path, version) = parse_tag(opening).ok_or(Fault::Tag)?;
        if opening != closing || path != key {
            return Err(Fault::Tag);
        }
        let created = self.world.traces[key as usize]
            .events()
            .get(version as usize)
            .ok_or(Fault::Tag)?
            .at
            .as_millis();
        let stamp = reply.stamp_ms.ok_or(Fault::Stamp)?;
        if stamp != self.epoch_unix_ms + created {
            return Err(Fault::Stamp);
        }
        let last = &mut self.last_stamp[key as usize];
        if stamp < *last {
            self.stamp_regressions += 1;
            return Err(Fault::Regression);
        }
        *last = stamp;
        self.seen += 1;
        if self.seen.is_multiple_of(FULL_COMPARE_EVERY) {
            self.scratch.clear();
            write_body(&mut self.scratch, key, version, size);
            if self.scratch != reply.body {
                return Err(Fault::Body);
            }
        }
        Ok(version)
    }
}

/// Which object the next request asks for.
#[derive(Debug)]
pub enum KeyStream {
    Zipf {
        catalog: Arc<ZipfCatalog>,
        rng: SimRng,
    },
    Uniform {
        objects: u64,
        rng: SimRng,
    },
    /// Client `i` of `C` walks `i, i + C, i + 2C, …` modulo the object
    /// count, so together the clients visit the objects in turn.
    RoundRobin {
        objects: u32,
        next: u32,
        stride: u32,
    },
}

impl KeyStream {
    pub fn next_key(&mut self) -> u32 {
        match self {
            KeyStream::Zipf { catalog, rng } => catalog.sample(rng) as u32,
            KeyStream::Uniform { objects, rng } => rng.uniform_u64(0, *objects) as u32,
            KeyStream::RoundRobin {
                objects,
                next,
                stride,
            } => {
                let key = *next % *objects;
                *next = (*next + *stride) % *objects;
                key
            }
        }
    }
}

/// When requests are sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// The next request leaves when the previous reply has arrived.
    Closed,
    /// Request `k` is due at `first + k × interval` after the phase
    /// start, whether or not earlier replies have arrived.
    Open { interval: Duration, first: Duration },
}

/// Completion counters shared by all clients of a phase, read once a
/// second by the window sampler.
#[derive(Debug, Default)]
pub struct Counters {
    pub completed: AtomicU64,
    pub failed: AtomicU64,
}

/// One phase as one client sees it.
#[derive(Debug)]
pub struct Phase<'a> {
    /// The instant all recorded times are relative to (the fixture's
    /// trace time 0, so samples line up with the origin's log).
    pub epoch: Instant,
    pub start: Instant,
    pub end: Instant,
    pub pacing: Pacing,
    /// Whether each request is kept as a [`Sample`] (open-loop and traced
    /// phases) or only counted.
    pub keep_samples: bool,
    pub counters: &'a Counters,
}

/// One client request, times in nanoseconds after [`Phase::epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the reply was complete; for a failed request, the instant it
    /// would have timed out.
    pub done_ns: u64,
    pub path: u32,
    pub version: u32,
    pub ok: bool,
    pub hit: bool,
}

impl Sample {
    /// Latency from the instant the request was due.
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e3
    }

    /// How late the generator sent it.
    pub fn late_us(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e3
    }
}

/// What one client did in one phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub hits: u64,
    pub misses: u64,
    /// Scheduled open-loop requests the phase ended before sending.
    pub unsent: u64,
    pub faults: Vec<Fault>,
}

/// Runs one client through one phase. `check` verifies each reply and
/// returns the version served.
pub fn drive(
    conn: &mut Conn,
    keys: &mut KeyStream,
    requests: &[Vec<u8>],
    check: &mut dyn FnMut(u32, &Reply<'_>) -> Result<u32, Fault>,
    phase: &Phase<'_>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let since_epoch = |t: Instant| t.duration_since(phase.epoch).as_nanos() as u64;
    for k in 0u32.. {
        let due = match phase.pacing {
            Pacing::Closed => Instant::now(),
            Pacing::Open { interval, first } => phase.start + first + interval * k,
        };
        if due >= phase.end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if sent >= phase.end {
            // Behind by the rest of the phase: what is still scheduled
            // was never offered.
            if let Pacing::Open { interval, first } = phase.pacing {
                let remaining = phase.end.duration_since(phase.start + first).as_nanos();
                let scheduled = remaining.div_ceil(interval.as_nanos().max(1)) as u64;
                log.unsent = scheduled.saturating_sub(u64::from(k));
            }
            break;
        }
        let key = keys.next_key();
        log.attempted += 1;
        let outcome = match conn.exchange(&requests[key as usize]) {
            Ok(reply) => check(key, &reply).map(|version| (version, reply.cache_hit)),
            Err(_) => {
                // The socket may hold half a response; start clean. A
                // refused reconnect fails the next request in turn.
                let _ = conn.reconnect();
                Err(Fault::Status(0))
            }
        };
        let done = Instant::now();
        let mut sample = Sample {
            due_ns: since_epoch(due),
            sent_ns: since_epoch(sent),
            done_ns: since_epoch(done),
            path: key,
            version: 0,
            ok: false,
            hit: false,
        };
        match outcome {
            Ok((version, cache_hit)) => {
                sample.version = version;
                sample.ok = true;
                sample.hit = cache_hit == Some(true);
                match cache_hit {
                    Some(true) => log.hits += 1,
                    Some(false) => log.misses += 1,
                    None => {}
                }
                phase.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(fault) => {
                log.failed += 1;
                log.faults.push(fault);
                sample.done_ns = sample.due_ns + REQUEST_TIMEOUT.as_nanos() as u64;
                phase.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if phase.keep_samples {
            log.samples.push(sample);
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::stats;
    use std::net::TcpListener;

    /// Answers every request with a tiny 200; the `stall_on`-th request
    /// waits `stall` first.
    fn stub_server(stall_on: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            let mut served = 0;
            loop {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                buf.clear();
                served += 1;
                if served == stall_on {
                    std::thread::sleep(stall);
                }
                let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-cache: hit\r\n\r\nok";
                if stream.write_all(reply).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_includes_the_wait_a_stall_imposes() {
        let stall = Duration::from_millis(200);
        let addr = stub_server(5, stall);
        let mut conn = Conn::connect(addr).unwrap();
        let mut keys = KeyStream::RoundRobin {
            objects: 1,
            next: 0,
            stride: 1,
        };
        let requests = vec![request_bytes("/x")];
        let counters = Counters::default();
        let start = Instant::now();
        let phase = Phase {
            epoch: start,
            start,
            end: start + Duration::from_millis(600),
            pacing: Pacing::Open {
                interval: Duration::from_millis(10),
                first: Duration::ZERO,
            },
            keep_samples: true,
            counters: &counters,
        };
        let log = drive(
            &mut conn,
            &mut keys,
            &requests,
            &mut |_, reply| {
                assert_eq!(reply.body, b"ok");
                Ok(0)
            },
            &phase,
        );
        assert_eq!(log.failed, 0);
        assert_eq!(log.hits, log.attempted);
        assert_eq!(log.samples.len() as u64, log.attempted);
        // Sixty were scheduled; on a busy test machine the phase may end
        // with the generator still behind, and then it says by how many.
        assert_eq!(log.attempted + log.unsent, 60);
        assert!(log.attempted >= 30, "only {} requests sent", log.attempted);
        // The fifth request meets the stall itself …
        let stalled = &log.samples[4];
        assert!(stalled.latency_us() >= 200_000.0, "{stalled:?}");
        // … and those due while it lasted were sent late; their latency
        // counts from when they were due, so the queueing shows.
        let behind: Vec<&Sample> = log.samples[5..]
            .iter()
            .filter(|s| s.due_ns < stalled.done_ns)
            .collect();
        assert!(
            behind.len() >= 15,
            "{} requests were due during the stall",
            behind.len()
        );
        for s in &behind {
            assert!(
                s.sent_ns >= stalled.done_ns,
                "{s:?} was pipelined past the stall"
            );
            let waited = (stalled.done_ns - s.due_ns) as f64 / 1e3;
            assert!(
                s.latency_us() >= waited,
                "{s:?} hides {waited} µs of waiting"
            );
        }
        assert!(behind[0].latency_us() >= 150_000.0);
        // The generator's own lateness is reported, not hidden.
        let mut late: Vec<f64> = log.samples.iter().map(Sample::late_us).collect();
        late.sort_by(f64::total_cmp);
        assert!(stats::percentile(&late, 99.0).unwrap() >= 150_000.0);
        assert!(stats::percentile(&late, 50.0).unwrap() < 50_000.0);
    }

    #[test]
    fn a_hopelessly_late_generator_reports_what_it_never_sent() {
        // The very first request stalls past the end of the phase.
        let addr = stub_server(1, Duration::from_millis(300));
        let mut conn = Conn::connect(addr).unwrap();
        let mut keys = KeyStream::RoundRobin {
            objects: 1,
            next: 0,
            stride: 1,
        };
        let requests = vec![request_bytes("/x")];
        let counters = Counters::default();
        let start = Instant::now();
        let phase = Phase {
            epoch: start,
            start,
            end: start + Duration::from_millis(200),
            pacing: Pacing::Open {
                interval: Duration::from_millis(10),
                first: Duration::ZERO,
            },
            keep_samples: false,
            counters: &counters,
        };
        let log = drive(&mut conn, &mut keys, &requests, &mut |_, _| Ok(0), &phase);
        assert_eq!(log.attempted, 1);
        assert_eq!(log.unsent, 19);
        assert!(log.samples.is_empty());
        assert_eq!(counters.completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn closed_loop_sends_on_reply_until_the_phase_ends() {
        let addr = stub_server(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(addr).unwrap();
        let mut keys = KeyStream::RoundRobin {
            objects: 1,
            next: 0,
            stride: 1,
        };
        let requests = vec![request_bytes("/x")];
        let counters = Counters::default();
        let start = Instant::now();
        let phase = Phase {
            epoch: start,
            start,
            end: start + Duration::from_millis(100),
            pacing: Pacing::Closed,
            keep_samples: false,
            counters: &counters,
        };
        let log = drive(&mut conn, &mut keys, &requests, &mut |_, _| Ok(0), &phase);
        assert!(log.attempted > 100, "{}", log.attempted);
        assert_eq!(counters.completed.load(Ordering::Relaxed), log.attempted);
        assert!(start.elapsed() < Duration::from_millis(300));
    }

    #[test]
    fn checker_accepts_the_fixture_body_and_names_each_fault() {
        let world = Arc::new(World::generate(&spec::HOT_HIT, 1, Duration::from_secs(1)));
        let epoch = 1_000_000;
        let mut checker = Checker::new(Arc::clone(&world), epoch);
        let mut body = Vec::new();
        write_body(&mut body, 9, 0, world.body_bytes);
        let good = Reply {
            status: 200,
            stamp_ms: Some(epoch),
            cache_hit: Some(true),
            body: &body,
        };
        for _ in 0..2 * FULL_COMPARE_EVERY {
            assert_eq!(checker.check(9, &good), Ok(0));
        }
        assert_eq!(checker.check(8, &good), Err(Fault::Tag));
        assert_eq!(
            checker.check(
                9,
                &Reply {
                    status: 503,
                    ..good
                }
            ),
            Err(Fault::Status(503))
        );
        assert_eq!(
            checker.check(
                9,
                &Reply {
                    stamp_ms: Some(epoch + 1),
                    ..good
                }
            ),
            Err(Fault::Stamp)
        );
        assert_eq!(
            checker.check(
                9,
                &Reply {
                    body: &body[1..],
                    ..good
                }
            ),
            Err(Fault::Length)
        );
        // A flipped filler byte passes the tags and is caught by the
        // full compare, which runs once per FULL_COMPARE_EVERY replies.
        let mut bad = body.clone();
        bad[100] ^= 1;
        let corrupt = Reply { body: &bad, ..good };
        let verdicts: Vec<_> = (0..FULL_COMPARE_EVERY)
            .map(|_| checker.check(9, &corrupt))
            .collect();
        assert_eq!(
            verdicts.iter().filter(|v| **v == Err(Fault::Body)).count(),
            1
        );
        assert_eq!(checker.stamp_regressions, 0);
    }

    #[test]
    fn checker_counts_a_stamp_that_goes_backwards() {
        let world = Arc::new(World::generate(
            &spec::DELTA_FLEET,
            1,
            Duration::from_secs(5),
        ));
        // A path with at least two versions.
        let key = world
            .traces
            .iter()
            .position(|t| t.update_count() >= 2)
            .unwrap() as u32;
        let created = |v: usize| world.traces[key as usize].events()[v].at.as_millis();
        let mut checker = Checker::new(Arc::clone(&world), 0);
        let (mut newer, mut older) = (Vec::new(), Vec::new());
        write_body(&mut newer, key, 1, world.body_bytes);
        write_body(&mut older, key, 0, world.body_bytes);
        let reply = |body, v| Reply {
            status: 200,
            stamp_ms: Some(created(v)),
            cache_hit: None,
            body,
        };
        assert_eq!(checker.check(key, &reply(&newer, 1)), Ok(1));
        assert_eq!(
            checker.check(key, &reply(&older, 0)),
            Err(Fault::Regression)
        );
        assert_eq!(checker.stamp_regressions, 1);
    }

    #[test]
    fn round_robin_clients_cover_every_object_between_them() {
        let mut a = KeyStream::RoundRobin {
            objects: 4,
            next: 0,
            stride: 2,
        };
        let mut b = KeyStream::RoundRobin {
            objects: 4,
            next: 1,
            stride: 2,
        };
        let seen: Vec<u32> = (0..4).flat_map(|_| [a.next_key(), b.next_key()]).collect();
        assert_eq!(seen, [0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
