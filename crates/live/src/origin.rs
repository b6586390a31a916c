//! The live origin server: replays an [`UpdateTrace`] in wall-clock time
//! over real TCP.
//!
//! Trace time 0 is anchored to the server's start instant; every
//! `Last-Modified` (and the millisecond-precise `x-last-modified-ms`
//! extension) is reported in absolute Unix-epoch milliseconds, so the
//! proxy and origin share one timeline without clock negotiation.
//!
//! Connections are served by the shared reactor engine
//! ([`crate::server`]); there is no worker pool.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mutcon_core::time::Timestamp;
use mutcon_http::extensions::set_modification_history;
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{Request, Response};
use mutcon_http::types::{Method, StatusCode};
use mutcon_traces::UpdateTrace;

use crate::client::X_LAST_MODIFIED_MS;
use crate::server::{default_reactors, EngineConfig, EventLoop, Reply, Service, ServiceResult};

/// Builder for [`LiveOrigin`].
#[derive(Debug, Default)]
pub struct LiveOriginBuilder {
    objects: Vec<(String, UpdateTrace)>,
    history: bool,
    reactors: Option<usize>,
}

impl LiveOriginBuilder {
    /// Hosts `trace` at `path`.
    pub fn object(mut self, path: impl Into<String>, trace: UpdateTrace) -> Self {
        self.objects.push((path.into(), trace));
        self
    }

    /// Enables the §5.1 modification-history extension header.
    pub fn with_history(mut self, yes: bool) -> Self {
        self.history = yes;
        self
    }

    /// Overrides the reactor-thread count (default: one per core, see
    /// [`crate::server::default_reactors`]).
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = Some(reactors);
        self
    }

    /// Binds a localhost listener on an ephemeral port and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(self) -> io::Result<LiveOrigin> {
        let shared = Arc::new(Shared {
            objects: self.objects.into_iter().collect(),
            epoch_unix_ms: unix_now_ms(),
            epoch: Instant::now(),
            history: self.history,
            requests: AtomicU64::new(0),
        });
        let server = EventLoop::start(
            "mutcon-live-origin-reactor",
            || Box::new(OriginService { shared: Arc::clone(&shared) }),
            EngineConfig {
                reactors: self.reactors.unwrap_or_else(default_reactors),
                ..EngineConfig::default()
            },
        )?;
        Ok(LiveOrigin { server, shared })
    }
}

struct Shared {
    objects: HashMap<String, UpdateTrace>,
    /// Unix-epoch milliseconds corresponding to trace time 0.
    epoch_unix_ms: u64,
    epoch: Instant,
    history: bool,
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
            .field("objects", &self.shared.objects.len())
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
        self.shared.requests.fetch_add(1, Ordering::SeqCst);
        ServiceResult::Reply(Reply::Full(respond(&self.shared, request)))
    }
}

fn respond(shared: &Shared, request: &Request) -> Response {
    if request.method() != &Method::Get {
        return Response::builder(StatusCode::METHOD_NOT_ALLOWED).build();
    }
    if request.target() == "/__health" {
        return Response::ok().body(&b"ok\n"[..]).build();
    }
    let Some(trace) = shared.objects.get(request.target()) else {
        return Response::builder(StatusCode::NOT_FOUND).build();
    };

    // Current trace time.
    let elapsed_ms = shared.epoch.elapsed().as_millis() as u64;
    let now_rel = Timestamp::from_millis(elapsed_ms.min(trace.end().as_millis()));
    let Some(version_index) = trace.version_index_at(now_rel.max(trace.start())) else {
        return Response::builder(StatusCode::NOT_FOUND).build();
    };
    let event = &trace.events()[version_index];
    let event_abs = Timestamp::from_millis(shared.epoch_unix_ms + event.at.as_millis());

    // Conditional handling on the absolute millisecond timeline.
    let validator = crate::client::validator_ms(request);
    if let Some(v) = validator {
        if event_abs <= v {
            return Response::not_modified()
                .header(X_LAST_MODIFIED_MS, event_abs.as_millis().to_string())
                .build();
        }
    }

    let body = match event.value {
        Some(value) => format!(
            "object={} version={} value={}\n",
            request.target(),
            version_index,
            value.as_f64()
        ),
        None => format!("object={} version={}\n", request.target(), version_index),
    };
    let mut builder = Response::ok()
        .last_modified(event_abs)
        .header(X_LAST_MODIFIED_MS, event_abs.as_millis().to_string())
        .header(HeaderName::X_OBJECT_VERSION, version_index.to_string())
        .header(HeaderName::CONTENT_TYPE, "text/plain");
    if let Some(value) = event.value {
        builder = builder.header(HeaderName::X_OBJECT_VALUE, value.as_f64().to_string());
    }
    let mut response = builder.body(body.into_bytes()).build();

    if shared.history {
        let since_rel = validator
            .map(|v| Timestamp::from_millis(v.as_millis().saturating_sub(shared.epoch_unix_ms)))
            .unwrap_or(Timestamp::ZERO);
        let history: Vec<Timestamp> = trace
            .events_between(since_rel, now_rel)
            .iter()
            .map(|e| Timestamp::from_millis(shared.epoch_unix_ms + e.at.as_millis()))
            .collect();
        set_modification_history(response.headers_mut(), &history);
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{last_modified_ms, ObjectStamps, PersistentClient};
    use std::time::Duration as StdDuration;
    use mutcon_core::value::Value;
    use mutcon_traces::UpdateEvent;

    fn connect(origin: &LiveOrigin, timeout_ms: u64) -> PersistentClient {
        PersistentClient::new(origin.local_addr(), StdDuration::from_millis(timeout_ms))
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
    fn serves_health_and_404() {
        let origin = LiveOrigin::builder()
            .object("/obj", fast_trace())
            .start()
            .unwrap();
        let mut client = connect(&origin, 5_000);
        let resp = client.get("/__health", None).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        let resp = client.get("/missing", None).unwrap();
        assert_eq!(resp.status(), StatusCode::NOT_FOUND);
        assert!(origin.request_count() >= 2);
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
