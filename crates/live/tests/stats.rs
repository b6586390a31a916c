//! `GET /admin/stats` as a contract.
//!
//! The first test pins every key path of the document and the JSON type
//! found there, against a golden list: a counter that moves homes keeps
//! its place and its type in the document, or this fails. The second
//! drives hits, misses and polls and checks that the document,
//! `LiveProxy::stats()`, `engine_metrics()` and `refresh_metrics()` read
//! the same cells.

mod harness;

use std::collections::BTreeMap;
use std::time::{Duration as StdDuration, Instant};

use harness::{FakeClock, ScriptedOrigin};
use mutcon_core::time::Duration;
use mutcon_http::types::StatusCode;
use mutcon_live::client::PersistentClient;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_traces::json::{self, Json};

/// Every key path of the document with the type found there, one
/// `path: type` per line, sorted. Array elements share the path `[]`.
const GOLDEN: &str = "\
cache.evictions: number
cache.generation: number
cache.l1.capacity: number
cache.l1.evictions: number
cache.l1.hits: number
cache.l1.refills: number
cache.l1.stale_rejects: number
cache.objects: number
cache.shards[].evictions: number
cache.shards[].len: number
cache.shards[].version_bumps: number
cache.touch_skips: number
cache.version_bumps: number
origin_pool.coalesced: number
origin_pool.opened: number
origin_pool.retries: number
origin_pool.reuses: number
overload.admission: string
overload.admission_initial: number
overload.park_deadline_ms: number
overload.parked_shed: number
overload.pool: string
overload.reactors[].partitions[].in_flight: number
overload.reactors[].partitions[].limit: number
overload.reactors[].partitions[].partition: string
overload.reactors[].partitions[].shed: number
overload.reactors[].pool.algorithm: string
overload.reactors[].pool.limit: number
overload.reactors[].pool.recent[].latency_ms: number
overload.reactors[].pool.recent[].limit_after: number
overload.reactors[].pool.recent[].ok: bool
overload.reactors[].pool.samples_ok: number
overload.reactors[].pool.samples_overload: number
overload.retry_after_secs: number
overload.shed: number
overload.version: number
proxy.errors: number
proxy.hits: number
proxy.misses: number
proxy.polls: number
proxy.refreshes: number
proxy.reload_errors: number
proxy.reloads: number
proxy.triggered: number
reactors[].accepted: number
reactors[].connections: number
refresh.drift.count: number
refresh.drift.max_ms: number
refresh.drift.p50_ms: number
refresh.drift.p99_ms: number
refresh.errors: number
refresh.in_flight: number
refresh.polls: number
refresh.triggered_coalesced: number
refresh.workers: number
wire.accept_batches: number
wire.body_copies: number
wire.buf_allocs: number
wire.buf_pool_high_water: number
wire.buf_reuses: number
wire.epoll_ctl_calls: number
wire.interest_coalesced: number
wire.l1_hits: number
wire.l1_stale_rejects: number
wire.write_calls: number
wire.write_stalls: number
wire.writev_calls: number
";

/// Paths added since the golden list was taken.
const ADDED: [&str; 1] = ["wire.slow_requests: number"];

/// One ruled path (so the refresh plane polls), both limiters on (so the
/// overload section shows a partition, an algorithm and fetch samples).
fn proxy(origin: &ScriptedOrigin) -> LiveProxy {
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/ruled", Duration::from_secs(10))],
        reactors: Some(1),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    let overload = mutcon_live::overload::parse_overload_body("admission=aimd\npool=aimd\n")
        .expect("overload config");
    proxy.overload().install(overload).expect("install overload config");
    proxy
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

fn get(client: &mut PersistentClient, path: &str) -> Json {
    let resp = client.get(path, None).expect(path);
    assert_eq!(resp.status(), StatusCode::OK, "{path}");
    match path.starts_with("/admin/") {
        true => json::parse(std::str::from_utf8(resp.body()).expect("utf8")).expect("admin JSON"),
        false => Json::Null,
    }
}

/// The rule's first poll, then two misses and three hits, then the
/// document once the reactor has published its overload snapshot.
fn driven_stats(proxy: &LiveProxy, client: &mut PersistentClient) -> Json {
    wait_until("the first poll", || proxy.cached_objects() == 1);
    for path in ["/a/1", "/a/2", "/a/1", "/a/1", "/ruled"] {
        get(client, path);
    }
    let mut doc = Json::Null;
    wait_until("the overload snapshot", || {
        doc = get(client, "/admin/stats");
        let reactor = &doc.get("overload").unwrap().get("reactors").unwrap().as_array().unwrap()[0];
        let pool = reactor.get("pool").unwrap();
        !reactor.get("partitions").unwrap().as_array().unwrap().is_empty()
            && pool.get("algorithm").unwrap().as_str().is_some()
            && !pool.get("recent").unwrap().as_array().unwrap().is_empty()
    });
    doc
}

fn flatten(prefix: &str, value: &Json, out: &mut BTreeMap<String, &'static str>) {
    let kind = match value {
        Json::Object(map) => {
            for (key, child) in map {
                let path = match prefix {
                    "" => key.clone(),
                    _ => format!("{prefix}.{key}"),
                };
                flatten(&path, child, out);
            }
            return;
        }
        Json::Array(items) => {
            for item in items {
                flatten(&format!("{prefix}[]"), item, out);
            }
            return;
        }
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Number(_) => "number",
        Json::String(_) => "string",
    };
    if let Some(seen) = out.insert(prefix.to_owned(), kind) {
        assert_eq!(seen, kind, "{prefix} has two types");
    }
}

#[test]
fn admin_stats_keeps_every_key_path_and_type() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = proxy(&origin);
    let mut client = PersistentClient::new(proxy.local_addr(), StdDuration::from_secs(5));
    let doc = driven_stats(&proxy, &mut client);

    let mut found = BTreeMap::new();
    flatten("", &doc, &mut found);
    let mut lines: Vec<String> = found.iter().map(|(path, kind)| format!("{path}: {kind}")).collect();
    for line in GOLDEN.lines() {
        assert!(lines.iter().any(|l| l == line), "`{line}` is gone from /admin/stats");
    }
    lines.retain(|l| !GOLDEN.lines().any(|g| g == l) && !ADDED.contains(&l.as_str()));
    assert!(lines.is_empty(), "paths neither golden nor listed as added: {lines:?}");

    // The keys the benchmark reads by name.
    let cache = doc.get("cache").unwrap();
    for key in ["evictions", "version_bumps", "touch_skips"] {
        assert!(cache.get(key).and_then(Json::as_u64).is_some(), "cache.{key}");
    }
}

#[test]
fn the_document_and_the_accessors_read_the_same_cells() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = proxy(&origin);
    let mut client = PersistentClient::new(proxy.local_addr(), StdDuration::from_secs(5));
    driven_stats(&proxy, &mut client);

    // Serving the document moves a few wire counters itself, so each
    // cell is bracketed by a reading before and one after; everything
    // the request does not touch must match exactly.
    let engine = proxy.engine_metrics();
    let read = || {
        let (p, r) = (proxy.stats(), proxy.runtime().refresh_metrics());
        [
            ("proxy.polls", p.polls),
            ("proxy.triggered", p.triggered),
            ("proxy.refreshes", p.refreshes),
            ("proxy.hits", p.hits),
            ("proxy.misses", p.misses),
            ("proxy.errors", p.errors),
            ("proxy.reloads", p.reloads),
            ("proxy.reload_errors", p.reload_errors),
            ("refresh.workers", r.workers()),
            ("refresh.in_flight", r.in_flight()),
            ("refresh.polls", r.polls()),
            ("refresh.errors", r.errors()),
            ("refresh.triggered_coalesced", r.triggered_coalesced()),
            ("refresh.drift.count", r.drift().count),
            ("origin_pool.reuses", engine.pool_reuses()),
            ("origin_pool.coalesced", engine.pool_coalesced()),
            ("origin_pool.opened", engine.pool_opened()),
            ("origin_pool.retries", engine.pool_retries()),
            ("wire.write_calls", engine.write_calls()),
            ("wire.writev_calls", engine.writev_calls()),
            ("wire.accept_batches", engine.accept_batches()),
            ("wire.body_copies", engine.body_copies()),
            ("wire.buf_reuses", engine.buf_reuses()),
            ("wire.buf_allocs", engine.buf_allocs()),
            ("wire.buf_pool_high_water", engine.buf_pool_high_water() as u64),
            ("wire.epoll_ctl_calls", engine.epoll_ctl_calls()),
            ("wire.interest_coalesced", engine.interest_coalesced()),
            ("wire.l1_hits", engine.l1_hits()),
            ("wire.l1_stale_rejects", engine.l1_stale_rejects()),
            ("wire.write_stalls", engine.write_stalls()),
            ("cache.l1.hits", engine.l1_hits()),
            ("cache.l1.stale_rejects", engine.l1_stale_rejects()),
            ("cache.l1.refills", engine.l1_refills()),
            ("cache.l1.evictions", engine.l1_evictions()),
            ("overload.shed", proxy.overload().shed()),
            ("overload.parked_shed", proxy.overload().parked_shed()),
        ]
    };
    let before = read();
    let doc = get(&mut client, "/admin/stats");
    let after = read();
    for ((path, low), (_, high)) in before.into_iter().zip(after) {
        let cell = path.split('.').fold(&doc, |at, key| at.get(key).expect(path));
        let shown = cell.as_u64().expect(path);
        assert!((low..=high).contains(&shown), "{path}: {shown} outside {low}..={high}");
    }
    let stats = proxy.stats();
    assert_eq!(
        (stats.polls, stats.refreshes, stats.misses, stats.hits),
        (1, 3, 2, 3),
        "one poll and two misses stored, `/a/1` twice and `/ruled` once from cache"
    );
    assert!(engine.l1_hits() + engine.l1_refills() >= 3);
    let drift = proxy.runtime().refresh_metrics().drift();
    let shown = doc.get("refresh").unwrap().get("drift").unwrap();
    assert_eq!(shown.get("p99_ms").unwrap().as_f64(), Some(drift.p99_ms));
    assert_eq!(shown.get("max_ms").unwrap().as_f64(), Some(drift.max_ms));
}
