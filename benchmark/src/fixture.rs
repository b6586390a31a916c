//! The benchmark's own origin server and the object population it
//! serves.
//!
//! Blocking `std::net`, one thread per accepted connection, its own
//! request parsing and response formatting: nothing here goes through
//! `mutcon_live::server` or the `mutcon_http` message types, so a change
//! to the proxy's engine or parsers moves the proxy side of a
//! measurement and never this side. The validator handling mirrors
//! `LiveOrigin`: a conditional GET whose validator is at or past the
//! current version's stamp gets `304` with the stamp, anything else the
//! full object. Every request is logged (arrival, path, version, status,
//! service time); the log is the ground truth the fidelity scorer reads.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mutcon_core::time::Timestamp;
use mutcon_sim::rng::SimRng;
use mutcon_traces::transform::scale_time;
use mutcon_traces::{NamedTrace, UpdateEvent, UpdateTrace};

use crate::spec::{Updates, Workload};

/// Length of the `(path, version)` tag that opens and closes every body.
pub const TAG_LEN: usize = 16;

/// The tag: path index and version, eight hex digits each.
pub fn body_tag(path: u32, version: u32) -> [u8; TAG_LEN] {
    let mut tag = [0u8; TAG_LEN];
    for (i, slot) in tag.iter_mut().enumerate() {
        let word = if i < 8 { path } else { version };
        let nibble = (word >> (28 - 4 * (i % 8))) & 0xf;
        *slot = b"0123456789abcdef"[nibble as usize];
    }
    tag
}

/// Reads a tag back into `(path, version)`.
pub fn parse_tag(tag: &[u8]) -> Option<(u32, u32)> {
    let text = std::str::from_utf8(tag.get(..TAG_LEN)?).ok()?;
    Some((
        u32::from_str_radix(&text[..8], 16).ok()?,
        u32::from_str_radix(&text[8..], 16).ok()?,
    ))
}

/// Appends the body of `(path, version)` to `out`: the tag, a filler that
/// is a pure function of `(path, version, size)`, and the tag again.
///
/// # Panics
///
/// Panics if `size` cannot hold both tags.
pub fn write_body(out: &mut Vec<u8>, path: u32, version: u32, size: usize) {
    assert!(
        size >= 2 * TAG_LEN,
        "body of {size} bytes cannot hold two tags"
    );
    let tag = body_tag(path, version);
    out.extend_from_slice(&tag);
    // xorshift64*: cheap, and every byte depends on both inputs.
    let mut state = (u64::from(path) << 32 | u64::from(version)) ^ 0x9E37_79B9_7F4A_7C15;
    let mut left = size - 2 * TAG_LEN;
    while left > 0 {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        let take = left.min(word.len());
        out.extend_from_slice(&word[..take]);
        left -= take;
    }
    out.extend_from_slice(&tag);
}

/// The object population of one run: paths, their update traces (trace
/// time 0 is the fixture's start), per-path origin latency and body size.
#[derive(Debug)]
pub struct World {
    pub paths: Vec<String>,
    pub traces: Vec<UpdateTrace>,
    pub latencies: Vec<Duration>,
    pub body_bytes: usize,
}

impl World {
    /// Generates the population of `workload` from `seed`. `span` is how
    /// long the run will be live (warm-up and measured phases): update
    /// schedules cover it with slack, and the named traces are compressed
    /// to end with it.
    pub fn generate(workload: &Workload, seed: u64, span: Duration) -> World {
        let n = workload.objects;
        let width = (n - 1).max(1).to_string().len();
        let paths: Vec<String> = (0..n).map(|i| format!("/o/{i:0width$}")).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0F1E_2D3C_4B5A_6978);
        let span_ms = span.as_millis() as u64;
        // Schedules run past the nominal span so a slow set-up cannot
        // outlive them.
        let horizon = Timestamp::from_millis(span_ms + 30_000);
        let traces: Vec<UpdateTrace> = match workload.updates {
            Updates::Static => (0..n)
                .map(|i| {
                    let initial = vec![UpdateEvent::temporal(Timestamp::ZERO)];
                    UpdateTrace::new(paths[i].clone(), Timestamp::ZERO, horizon, initial)
                        .expect("a single event at the window start is a valid trace")
                })
                .collect(),
            Updates::Poisson { min_mean, max_mean } => {
                // Mean intervals are stratified over the log-uniform
                // range (one stratum per path, assigned by a seeded
                // shuffle), so the fleet's aggregate update rate barely
                // depends on the seed while each path's schedule does.
                let mut strata: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    strata.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
                }
                let (lo, hi) = (min_mean.as_secs_f64() * 1e3, max_mean.as_secs_f64() * 1e3);
                (0..n)
                    .map(|i| {
                        let u = (strata[i] as f64 + rng.uniform()) / n as f64;
                        let mean_ms = lo * (hi / lo).powf(u);
                        let mut events = vec![UpdateEvent::temporal(Timestamp::ZERO)];
                        let mut t = 0u64;
                        loop {
                            t += (rng.exponential(mean_ms).round() as u64).max(1);
                            if t >= horizon.as_millis() {
                                break;
                            }
                            events.push(UpdateEvent::temporal(Timestamp::from_millis(t)));
                        }
                        UpdateTrace::new(paths[i].clone(), Timestamp::ZERO, horizon, events)
                            .expect("strictly increasing events inside the window")
                    })
                    .collect()
            }
            Updates::NamedTemporal => NamedTrace::TEMPORAL
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, named)| {
                    // The catalog's pinned realisation, whatever the seed
                    // (see README.md): another realisation moves
                    // fidelity by twenty times the run-to-run noise, and
                    // the contract has one bound per metric.
                    let full = named.generate();
                    assert_eq!(
                        full.start(),
                        Timestamp::ZERO,
                        "catalog traces start at zero"
                    );
                    let factor = span_ms as f64 / full.duration().as_millis() as f64;
                    let scaled = scale_time(&full, factor).expect("positive finite factor");
                    // Same events, window stretched to the horizon: past
                    // the compressed trace's end the object is static.
                    UpdateTrace::new(
                        paths[i].clone(),
                        Timestamp::ZERO,
                        horizon.max(scaled.end()),
                        scaled.events().to_vec(),
                    )
                    .expect("scaled events stay ordered inside the longer window")
                })
                .collect(),
        };
        assert_eq!(traces.len(), n, "one trace per object");
        let base = workload.origin_latency;
        let latencies = (0..n)
            .map(|_| {
                base.mul_f64(if base.is_zero() {
                    1.0
                } else {
                    rng.uniform_range(0.5, 1.5)
                })
            })
            .collect();
        World {
            paths,
            traces,
            latencies,
            body_bytes: workload.body_bytes,
        }
    }

    /// The version of `path` current at `at_ms` after the fixture's
    /// start, and the trace time it was created.
    pub fn version_at(&self, path: u32, at_ms: u64) -> (u32, u64) {
        let trace = &self.traces[path as usize];
        let at = Timestamp::from_millis(at_ms.min(trace.end().as_millis()));
        let index = trace
            .version_index_at(at)
            .expect("every trace has its initial version at time zero");
        (index as u32, trace.events()[index].at.as_millis())
    }
}

/// How the origin answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Full,
    NotModified,
}

/// One logged origin request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Arrival, nanoseconds after the fixture's start.
    pub at_ns: u64,
    /// Arrival to last response byte written, origin latency included.
    pub serve_ns: u64,
    pub path: u32,
    pub version: u32,
    pub served: Served,
}

impl LogRecord {
    pub fn at_ms(&self) -> u64 {
        self.at_ns / 1_000_000
    }
}

struct Shared {
    world: Arc<World>,
    index: HashMap<String, u32>,
    epoch: Instant,
    epoch_unix_ms: u64,
    stop: AtomicBool,
    requests: AtomicU64,
    log: Mutex<Vec<LogRecord>>,
}

/// The running origin. [`Fixture::finish`] stops it and hands back the
/// log; dropping it without that still stops every thread.
pub struct Fixture {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Fixture {
    /// Binds an ephemeral loopback port and starts serving `world`.
    pub fn start(world: Arc<World>) -> io::Result<Fixture> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let index = world
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u32))
            .collect();
        let shared = Arc::new(Shared {
            world,
            index,
            epoch: Instant::now(),
            epoch_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default()
                .as_millis() as u64,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bench-origin-accept".into())
                .spawn(move || {
                    let mut workers = Vec::new();
                    for stream in listener.incoming() {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = Arc::clone(&shared);
                        let spawned = std::thread::Builder::new()
                            .name("bench-origin-conn".into())
                            .spawn(move || {
                                // A connection that breaks is the peer's
                                // business: the proxy counts it, the run
                                // reports it as a failed request.
                                let _ = serve_connection(stream, &shared);
                            });
                        if let Ok(handle) = spawned {
                            workers.push(handle);
                        }
                    }
                    workers
                })?
        };
        Ok(Fixture {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The instant that is trace time 0.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }

    /// Unix milliseconds of trace time 0: every stamp the origin reports
    /// is this plus the version's trace time.
    pub fn epoch_unix_ms(&self) -> u64 {
        self.shared.epoch_unix_ms
    }

    /// Requests that have reached the origin so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock `accept`; the connection itself is discarded.
        let _ = TcpStream::connect(self.addr);
        if let Ok(workers) = acceptor.join() {
            for worker in workers {
                let _ = worker.join();
            }
        }
    }

    /// Stops the origin, joins its threads and returns the request log in
    /// arrival order.
    pub fn finish(mut self) -> Vec<LogRecord> {
        self.stop();
        let mut log = std::mem::take(
            &mut *self
                .shared
                .log
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        log.sort_by_key(|r| r.at_ns);
        log
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Fixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fixture").field("addr", &self.addr).finish()
    }
}

/// A parsed request head: the target and the millisecond validator.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead<'a> {
    target: &'a str,
    validator_ms: Option<u64>,
}

fn parse_head(head: &[u8]) -> Option<RequestHead<'_>> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let mut request_line = lines.next()?.split(' ');
    let (method, target) = (request_line.next()?, request_line.next()?);
    if method != "GET" {
        return None;
    }
    // The millisecond extension wins over `If-Modified-Since`, which only
    // resolves seconds — the same precedence `LiveOrigin` applies.
    let (mut exact, mut coarse) = (None, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("x-last-modified-ms") {
            exact = value.trim().parse().ok();
        } else if name.eq_ignore_ascii_case("if-modified-since") {
            coarse = mutcon_http::date::parse_http_date(value.trim())
                .ok()
                .map(|t| t.as_millis());
        }
    }
    Some(RequestHead {
        target,
        validator_ms: exact.or(coarse),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Appends the origin's complete response for `(path, version)` to `out`.
/// Header names are lower-case, as the proxy's own origin writes them.
pub fn write_response(
    out: &mut Vec<u8>,
    served: Served,
    stamp: u64,
    path: u32,
    version: u32,
    size: usize,
) {
    // Writing into a `Vec` cannot fail.
    match served {
        Served::NotModified => {
            let _ = write!(
                out,
                "HTTP/1.1 304 Not Modified\r\nx-last-modified-ms: {stamp}\r\n\
                 content-length: 0\r\nconnection: keep-alive\r\n\r\n"
            );
        }
        Served::Full => {
            let _ = write!(
                out,
                "HTTP/1.1 200 OK\r\nx-last-modified-ms: {stamp}\r\n\
                 x-object-version: {version}\r\ncontent-type: application/octet-stream\r\n\
                 content-length: {size}\r\nconnection: keep-alive\r\n\r\n"
            );
            write_body(out, path, version, size);
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Short read timeouts let an idle connection notice the stop flag.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut out: Vec<u8> = Vec::with_capacity(shared.world.body_bytes + 256);
    let mut chunk = [0u8; 2048];
    loop {
        let head_end = loop {
            if let Some(end) = find_head_end(&buf) {
                break end;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        };
        let arrived = Instant::now();
        shared.requests.fetch_add(1, Ordering::Relaxed);
        out.clear();
        let known = parse_head(&buf[..head_end])
            .and_then(|head| Some((*shared.index.get(head.target)?, head.validator_ms)));
        buf.drain(..head_end);
        let Some((path, validator_ms)) = known else {
            stream.write_all(
                b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\nconnection: keep-alive\r\n\r\n",
            )?;
            continue;
        };
        let at_ns = arrived.duration_since(shared.epoch).as_nanos() as u64;
        let (version, created_ms) = shared.world.version_at(path, at_ns / 1_000_000);
        let stamp = shared.epoch_unix_ms + created_ms;
        let served = match validator_ms {
            Some(v) if stamp <= v => Served::NotModified,
            _ => Served::Full,
        };
        write_response(
            &mut out,
            served,
            stamp,
            path,
            version,
            shared.world.body_bytes,
        );
        let latency = shared.world.latencies[path as usize];
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        stream.write_all(&out)?;
        let serve_ns = arrived.elapsed().as_nanos() as u64;
        shared
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(LogRecord {
                at_ns,
                serve_ns,
                path,
                version,
                served,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn tags_round_trip_and_bodies_are_pure_functions_of_their_inputs() {
        assert_eq!(&body_tag(0x1a, 7), b"0000001a00000007");
        assert_eq!(parse_tag(&body_tag(16383, 901)), Some((16383, 901)));
        assert_eq!(parse_tag(b"short"), None);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        write_body(&mut a, 3, 4, 1024);
        write_body(&mut b, 3, 4, 1024);
        write_body(&mut c, 3, 5, 1024);
        assert_eq!(a.len(), 1024);
        assert_eq!(a, b);
        assert_ne!(a[TAG_LEN..1024 - TAG_LEN], c[TAG_LEN..1024 - TAG_LEN]);
        assert_eq!(a[..TAG_LEN], a[1024 - TAG_LEN..]);
    }

    #[test]
    fn request_heads_parse_with_the_millisecond_validator_winning() {
        let head =
            b"GET /o/1 HTTP/1.1\r\nHost: x\r\nIf-Modified-Since: Thu, 01 Jan 1970 00:00:05 GMT\r\n\
                     X-Last-Modified-Ms: 5250\r\n\r\n";
        assert_eq!(
            parse_head(head),
            Some(RequestHead {
                target: "/o/1",
                validator_ms: Some(5250)
            })
        );
        let coarse =
            b"GET /o/1 HTTP/1.1\r\nif-modified-since: Thu, 01 Jan 1970 00:00:05 GMT\r\n\r\n";
        assert_eq!(parse_head(coarse).unwrap().validator_ms, Some(5000));
        assert_eq!(
            parse_head(b"GET /o/1 HTTP/1.1\r\n\r\n")
                .unwrap()
                .validator_ms,
            None
        );
        assert_eq!(parse_head(b"PUT /o/1 HTTP/1.1\r\n\r\n"), None);
    }

    #[test]
    fn same_seed_same_world_and_poisson_means_cover_the_range() {
        let span = Duration::from_secs(22);
        let a = World::generate(&spec::DELTA_FLEET, 7, span);
        let b = World::generate(&spec::DELTA_FLEET, 7, span);
        let c = World::generate(&spec::DELTA_FLEET, 8, span);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.latencies, b.latencies);
        assert_ne!(a.traces, c.traces);
        // 52 s of schedule: the fastest stratum (mean 0.25 s) updates
        // hundreds of times, the slowest (32 s) a handful at most.
        let counts: Vec<usize> = a.traces.iter().map(|t| t.update_count()).collect();
        assert!(*counts.iter().max().unwrap() > 100);
        assert!(*counts.iter().min().unwrap() < 6);
        // Aggregate rate is pinned by the stratification, not the seed.
        let (ta, tc): (usize, usize) = (
            counts.iter().sum(),
            c.traces.iter().map(|t| t.update_count()).sum(),
        );
        assert!((ta as f64 / tc as f64 - 1.0).abs() < 0.05, "{ta} vs {tc}");
        assert!(a
            .latencies
            .iter()
            .all(|l| *l >= Duration::from_micros(500) && *l < Duration::from_micros(1500)));
    }

    #[test]
    fn named_traces_end_with_the_span() {
        let world = World::generate(&spec::MT_GROUP, 1, Duration::from_secs(10));
        assert_eq!(world.traces.len(), 4);
        for (trace, named) in world.traces.iter().zip(NamedTrace::TEMPORAL) {
            let last = trace.events().last().unwrap().at.as_millis();
            assert!(last <= 10_000 + named.update_count() as u64, "{last}");
            assert!(trace.update_count() + 1 >= named.update_count());
        }
    }

    /// Speaks to the fixture over a raw socket: full object, then 304 on
    /// its stamp, then the full object again for an older validator —
    /// the `LiveOrigin` contract.
    #[test]
    fn answers_validators_like_the_live_origin_and_logs_every_request() {
        let world = Arc::new(World::generate(&spec::HOT_HIT, 3, Duration::from_secs(5)));
        let fixture = Fixture::start(Arc::clone(&world)).unwrap();
        let mut stream = TcpStream::connect(fixture.addr()).unwrap();
        let mut exchange = |request: String| -> (String, Vec<u8>) {
            stream.write_all(request.as_bytes()).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "origin closed mid-response");
                buf.extend_from_slice(&chunk[..n]);
                if let Some(end) = find_head_end(&buf) {
                    let head = String::from_utf8(buf[..end].to_vec()).unwrap();
                    let length: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length: "))
                        .unwrap()
                        .parse()
                        .unwrap();
                    if buf.len() >= end + length {
                        return (head, buf[end..end + length].to_vec());
                    }
                }
            }
        };
        let path = &world.paths[5];
        let (head, body) = exchange(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"));
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body.len(), 1024);
        assert_eq!(parse_tag(&body), Some((5, 0)));
        let stamp = fixture.epoch_unix_ms();
        assert!(head.contains(&format!("x-last-modified-ms: {stamp}\r\n")));
        let (head, body) = exchange(format!(
            "GET {path} HTTP/1.1\r\nx-last-modified-ms: {stamp}\r\n\r\n"
        ));
        assert!(head.starts_with("HTTP/1.1 304"), "{head}");
        assert!(body.is_empty());
        let (head, _) = exchange(format!(
            "GET {path} HTTP/1.1\r\nx-last-modified-ms: {}\r\n\r\n",
            stamp - 1
        ));
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let (head, _) = exchange("GET /nowhere HTTP/1.1\r\n\r\n".to_owned());
        assert!(head.starts_with("HTTP/1.1 404"));
        assert_eq!(fixture.requests(), 4);
        let log = fixture.finish();
        let served: Vec<Served> = log.iter().map(|r| r.served).collect();
        assert_eq!(served, [Served::Full, Served::NotModified, Served::Full]);
        assert!(log.iter().all(|r| r.path == 5 && r.version == 0));
        assert!(log.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }
}
