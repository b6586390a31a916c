//! The live origin server: the simulator's origin model
//! ([`OriginServer`]) over real TCP, on trace time that runs with the
//! wall clock.
//!
//! Trace time 0 is anchored to the server's start instant. A request is
//! answered by [`HostedObject::poll`] at the current trace time, the
//! same call the simulator makes, and `render` turns that answer into
//! the HTTP response; the origin keeps no replay of its own. Every
//! `Last-Modified` (and the millisecond-precise `x-last-modified-ms`
//! extension) is reported in absolute Unix-epoch milliseconds, so the
//! proxy and origin share one timeline without clock negotiation.
//!
//! [`HostedObject::poll`]: mutcon_proxy::origin::HostedObject::poll
//!
//! Connections are served by the shared reactor engine
//! ([`crate::server`]); there is no worker pool.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mutcon_core::object::ObjectId;
use mutcon_core::time::Timestamp;
use mutcon_http::extensions::set_modification_history;
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{Request, Response};
use mutcon_http::types::{Method, StatusCode};
use mutcon_proxy::origin::{HistorySupport, OriginResponse, OriginServer};
use mutcon_traces::UpdateTrace;

use crate::client::X_LAST_MODIFIED_MS;
use crate::server::{default_reactors, EventLoop, Service, ServiceResult};

/// Builder for [`LiveOrigin`].
#[derive(Debug, Default)]
pub struct LiveOriginBuilder {
    origin: OriginServer,
}

impl LiveOriginBuilder {
    /// Hosts `trace` at `path`.
    pub fn object(mut self, path: impl Into<String>, trace: UpdateTrace) -> Self {
        self.origin.host(ObjectId::from(path.into()), trace);
        self
    }

    /// Enables the §5.1 modification-history extension header.
    pub fn with_history(mut self, yes: bool) -> Self {
        let history = if yes {
            HistorySupport::Full
        } else {
            HistorySupport::None
        };
        self.origin = self.origin.with_history(history);
        self
    }

    /// Binds a localhost listener on an ephemeral port and starts serving
    /// on one reactor per core ([`default_reactors`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(self) -> io::Result<LiveOrigin> {
        let shared = Arc::new(Shared {
            origin: self.origin,
            epoch_unix_ms: unix_now_ms(),
            epoch: Instant::now(),
            requests: AtomicU64::new(0),
        });
        let server = EventLoop::start("mutcon-live-origin-reactor", default_reactors(), |_, _| {
            Box::new(OriginService {
                shared: Arc::clone(&shared),
            })
        })?;
        Ok(LiveOrigin { server, shared })
    }
}

struct Shared {
    origin: OriginServer,
    /// Unix-epoch milliseconds corresponding to trace time 0.
    epoch_unix_ms: u64,
    epoch: Instant,
    requests: AtomicU64,
}

/// A running origin server; shuts down (and joins its reactor) on drop.
pub struct LiveOrigin {
    server: EventLoop,
    shared: Arc<Shared>,
}

impl LiveOrigin {
    /// Starts building an origin.
    pub fn builder() -> LiveOriginBuilder {
        LiveOriginBuilder::default()
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Requests served so far.
    pub fn request_count(&self) -> u64 {
        self.shared.requests.load(Ordering::SeqCst)
    }

    /// Unix-epoch milliseconds of trace time 0 (for converting reported
    /// stamps back to trace time in tests).
    pub fn epoch_unix_ms(&self) -> u64 {
        self.shared.epoch_unix_ms
    }
}

impl std::fmt::Debug for LiveOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveOrigin")
            .field("addr", &self.local_addr())
            .field("objects", &self.shared.origin.object_ids().count())
            .finish()
    }
}

/// Wall-clock time in Unix milliseconds, the timeline the origin stamps
/// versions on and the proxy's consistency algorithms run on.
pub(crate) fn unix_now_ms() -> u64 {
    // Saturating: a clock jumped before the epoch (bad RTC, aggressive
    // NTP step) reads as 0 instead of panicking the calling thread.
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// The request handler, one instance per reactor.
struct OriginService {
    shared: Arc<Shared>,
}

impl Service for OriginService {
    fn respond(&mut self, request: &Request) -> ServiceResult {
        let shared = &*self.shared;
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let response = if request.method() != &Method::Get {
            Response::builder(StatusCode::METHOD_NOT_ALLOWED).build()
        } else {
            let now = Timestamp::from_millis(shared.epoch.elapsed().as_millis() as u64);
            answer(&shared.origin, shared.epoch_unix_ms, request, now)
        };
        ServiceResult::Reply(response.into())
    }
}

/// The answer to `request`, a `GET` of a hosted path, at trace time
/// `now` from `origin`, whose trace time 0 is `epoch_unix_ms`: the
/// request's validator moved to trace time, `HostedObject::poll`,
/// then [`render`]. `404` for a path not hosted or not yet created.
pub(crate) fn answer(
    origin: &OriginServer,
    epoch_unix_ms: u64,
    request: &Request,
    now: Timestamp,
) -> Response {
    // A validator from before trace time 0 (an `If-Modified-Since` date
    // rounded down to the second) predates every version: it validates
    // nothing, rather than reading as trace time 0.
    let validator = crate::client::validator_ms(request)
        .and_then(|v| v.as_millis().checked_sub(epoch_unix_ms))
        .map(Timestamp::from_millis);
    match origin
        .object(&ObjectId::new(request.target()))
        .map(|o| o.poll(now, validator))
    {
        Ok(Ok(response)) => render(request.target(), &response, epoch_unix_ms),
        _ => Response::builder(StatusCode::NOT_FOUND).build(),
    }
}

/// The HTTP form of what `HostedObject::poll` answered for `target`,
/// its trace stamps moved to Unix milliseconds by `epoch_unix_ms`. A
/// `304` carries `x-last-modified-ms`; a `200` also `Last-Modified`, the
/// version, the value of a valued object, a body naming all three and,
/// when the answer has one, the modification history.
pub(crate) fn render(target: &str, response: &OriginResponse<'_>, epoch_unix_ms: u64) -> Response {
    let unix = |t: Timestamp| Timestamp::from_millis(epoch_unix_ms + t.as_millis());
    let last_modified = unix(response.last_modified);
    if response.not_modified {
        return Response::not_modified()
            .header(X_LAST_MODIFIED_MS, last_modified.as_millis().to_string())
            .build();
    }
    let version = response.version_index;
    let mut body = format!("object={target} version={version}");
    let mut builder = Response::ok()
        .last_modified(last_modified)
        .header(X_LAST_MODIFIED_MS, last_modified.as_millis().to_string())
        .header(HeaderName::X_OBJECT_VERSION, version.to_string())
        .header(HeaderName::CONTENT_TYPE, "text/plain");
    if let Some(value) = response.value {
        body += &format!(" value={}", value.as_f64());
        builder = builder.header(HeaderName::X_OBJECT_VALUE, value.as_f64().to_string());
    }
    body.push('\n');
    let mut rendered = builder.body(body.into_bytes()).build();
    if let Some(history) = response.history {
        let history: Vec<Timestamp> = history.iter().map(|&t| unix(t)).collect();
        set_modification_history(rendered.headers_mut(), &history);
    }
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{last_modified_ms, ObjectStamps};
    use crate::wire::Client;
    use mutcon_core::value::Value;
    use mutcon_traces::UpdateEvent;
    use std::time::Duration as StdDuration;

    fn connect(origin: &LiveOrigin, timeout_ms: u64) -> Client {
        Client::new(origin.local_addr(), StdDuration::from_millis(timeout_ms))
    }

    fn fast_trace() -> UpdateTrace {
        // Updates every 50 ms for 10 s.
        let mut events = vec![UpdateEvent::valued(Timestamp::ZERO, Value::new(1.0))];
        for i in 1..200u64 {
            events.push(UpdateEvent::valued(
                Timestamp::from_millis(i * 50),
                Value::new(1.0 + i as f64),
            ));
        }
        UpdateTrace::new(
            "fast",
            Timestamp::ZERO,
            Timestamp::from_millis(10_000),
            events,
        )
        .unwrap()
    }

    #[test]
    fn an_unhosted_path_is_a_404() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let resp = client.get("/missing", None).unwrap();
        assert_eq!(resp.status(), StatusCode::NOT_FOUND);
        assert_eq!(origin.request_count(), 1);
    }

    #[test]
    fn serves_object_with_metadata() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let resp = client.get("/obj", None).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        let lm = last_modified_ms(&resp).expect("stamped");
        assert!(lm.as_millis() >= origin.epoch_unix_ms());
        assert!(ObjectStamps::of(&resp).value.is_some());
        assert!(std::str::from_utf8(resp.body()).unwrap().contains("/obj"));
    }

    #[test]
    fn conditional_requests_get_304_then_200() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let first = client.get("/obj", None).unwrap();
        let lm = last_modified_ms(&first).unwrap();
        // Immediately revalidating may race a 50 ms update; ask with the
        // freshly returned validator and accept 304 or a *newer* 200.
        let second = client.get("/obj", Some(lm)).unwrap();
        if second.status() == StatusCode::OK {
            assert!(last_modified_ms(&second).unwrap() > lm);
        } else {
            assert_eq!(second.status(), StatusCode::NOT_MODIFIED);
        }
        // After waiting past several updates, a conditional GET must be 200.
        std::thread::sleep(StdDuration::from_millis(200));
        let third = client.get("/obj", Some(lm)).unwrap();
        assert_eq!(third.status(), StatusCode::OK);
        assert!(last_modified_ms(&third).unwrap() > lm);
    }

    #[test]
    fn history_extension_reports_missed_updates() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .with_history(true)
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let first = client.get("/obj", None).unwrap();
        let lm = last_modified_ms(&first).unwrap();
        std::thread::sleep(StdDuration::from_millis(300));
        let later = client.get("/obj", Some(lm)).unwrap();
        assert_eq!(later.status(), StatusCode::OK);
        let history =
            mutcon_http::extensions::modification_history(later.headers()).expect("history");
        assert!(history.len() >= 2, "expected several missed updates");
        assert!(history.iter().all(|&t| t > lm));
    }

    #[test]
    fn static_object_stays_not_modified() {
        let trace = UpdateTrace::new(
            "static",
            Timestamp::ZERO,
            Timestamp::from_millis(60_000),
            vec![UpdateEvent::temporal(Timestamp::ZERO)],
        )
        .unwrap();
        let origin = LiveOrigin::builder().object("/s", trace).start().unwrap();
        let mut client = connect(&origin, 5_000);
        let first = client.get("/s", None).unwrap();
        let lm = last_modified_ms(&first).unwrap();
        std::thread::sleep(StdDuration::from_millis(100));
        let again = client.get("/s", Some(lm)).unwrap();
        assert_eq!(again.status(), StatusCode::NOT_MODIFIED);
    }

    #[test]
    fn put_is_rejected() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let req = Request::builder(Method::Put, "/obj").build();
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status(), StatusCode::METHOD_NOT_ALLOWED);
    }
}
