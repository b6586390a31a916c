//! The proxy's threads are its reactors and nothing else: the refresh
//! plane runs on reactor 0, so a rule set — present at start or
//! installed later, polling or idle — adds no thread to the process.
//!
//! One test in its own binary, because it counts the whole process's
//! threads (`/proc/self/task`), and a test running beside it would move
//! the count. The origin is the reactor-driven `LiveOrigin`, whose
//! threads are all started with it.

use std::time::{Duration as StdDuration, Instant};

use mutcon_core::time::{Duration, Timestamp};
use mutcon_live::origin::LiveOrigin;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_traces::{UpdateEvent, UpdateTrace};

const REACTORS: usize = 2;

/// Threads in this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// An object updated every 20 ms for a minute.
fn ticking_trace() -> UpdateTrace {
    let events = (0..3_000u64).map(|i| UpdateEvent::temporal(Timestamp::from_millis(i * 20)));
    UpdateTrace::new(
        "tick",
        Timestamp::ZERO,
        Timestamp::from_millis(60_000),
        events.collect(),
    )
    .expect("valid trace")
}

/// Waits (5 s cap) until `proxy` has made `polls` polls.
fn wait_for_polls(proxy: &LiveProxy, polls: u64) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while proxy.stats().polls < polls {
        assert!(
            Instant::now() < deadline,
            "only {} polls",
            proxy.stats().polls
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }
}

#[test]
fn a_proxy_adds_its_reactors_and_no_other_thread() {
    let origin = LiveOrigin::builder()
        .object("/obj", ticking_trace())
        .start()
        .expect("origin");
    let rule = || vec![RefreshRule::new("/obj", Duration::from_millis(20))];
    let config = |rules| ProxyConfig {
        rules,
        reactors: Some(REACTORS),
        ..ProxyConfig::new(origin.local_addr())
    };
    let before = threads();

    // No rules, then a rule installed: polls run, and the count holds.
    let proxy = LiveProxy::start(config(Vec::new())).expect("proxy");
    assert_eq!(threads(), before + REACTORS, "an unruled proxy");
    proxy.runtime().install(rule(), None).expect("valid rule");
    wait_for_polls(&proxy, 5);
    assert_eq!(threads(), before + REACTORS, "after an install, polling");
    drop(proxy);
    assert_eq!(threads(), before, "the drop joins every reactor");

    // Ruled from the start.
    let proxy = LiveProxy::start(config(rule())).expect("proxy");
    wait_for_polls(&proxy, 5);
    assert_eq!(
        threads(),
        before + REACTORS,
        "a proxy started with rules, polling"
    );
    drop(proxy);
}
