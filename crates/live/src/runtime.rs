//! The hot-swappable consistency runtime behind the live proxy's
//! refresh plane: the rules in force and the state machine polling them,
//! which are one and the same.
//!
//! **The state machine** is [`mutcon_proxy::schedule`], the one §3
//! scheduler the simulator steps too. This module is its socket driver
//! and adds what only a running proxy has: validation, the lock, metrics
//! and the install hook. No scheduling rule lives here, and no second copy
//! of the rules: the [`Schedule`] holds each path's LIMD config, the
//! group and the epoch (its version).
//!
//! **One lock.** The machine sits behind one mutex.
//! [`ConsistencyRuntime::install`] validates outside it; under it,
//! [`Schedule::reconcile`], the one diff of a rule set, updates the
//! schedule in place, bumps the version and reports the paths added,
//! changed and removed. That is a swap's linearization point: when
//! `install` returns, the new rules are in force. After unlocking it
//! runs the install hook, which the proxy registers at start to evict
//! the un-ruled paths and wake reactor 0.
//! `ConsistencyRuntime::plane` locks the machine for the reactor:
//! `next_poll` hands out a due poll, `ruled` says whether a path is still
//! ruled, `finish` applies the outcome of a path's poll and `next_wake`
//! says when to look again. The lock is never held across a round trip.
//! [`ConsistencyRuntime::run`] steps the same plane from blocking worker
//! threads; it is kept because `benchmark/` drives it.
//!
//! **One ledger, no clock.** A poll out is an entry in the schedule's
//! in-flight table (kind, send stamp) until `finish` names its path;
//! `refresh.in_flight` is that table's size. `next_poll(now, ts)` and
//! `finish(path, result, now)` take their instants from the caller, `ts`
//! on the Unix-millisecond timeline LIMD and the coordinator run on. Only
//! `install` (the instant new rules fall due) and `run` read a clock.
//!
//! **The width.** The schedule hands out at most [`POLL_WIDTH`] (4)
//! polls at once, so whichever driver steps it, at most that many are on
//! the wire: reactor 0 uses at most 4 of an origin's pooled sockets for
//! polls, and its polls never queue in the pool ahead of a miss. With
//! the width full, `next_poll` returns `None` and `next_wake` has no
//! instant: the next completion brings the next poll. Due polls past the
//! width wait in the schedule in due order, so polls per second are at
//! most `POLL_WIDTH` ÷ origin RTT, and a path's drift includes its wait
//! for a slot.
//!
//! **A poll's `200` against a swap.** Reactor 0 stores a poll's `200`
//! under the plane's lock, and only while the schedule still rules the
//! path. If the store takes the lock before an install that un-rules the
//! path, the install's hook runs after the install's own turn at the lock,
//! so its eviction follows the store. If the install takes it first,
//! reactor 0 finds the path unruled and does not store. Either way a
//! removed rule's late poll leaves no copy behind.
//!
//! Every poll records its **drift** — scheduled due time to the moment
//! it was handed out for sending, the measurable form of the fidelity the
//! paper's Δ guarantees lose when polls fire late — into
//! a [`Histogram`], served with the rest of [`RefreshMetrics`] under
//! `refresh` in `GET /admin/stats`. [`ConsistencyRuntime::status`] and
//! `GET /admin/rules` are read from the scheduler under the same lock,
//! so each is one whole epoch and cannot lag a completed poll.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration as StdDuration, Instant};

use mutcon_core::limd::{LimdConfig, PollResult};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_proxy::schedule::{Job, Schedule, Swap};
pub use mutcon_proxy::schedule::{PollKind, POLL_WIDTH};

pub use crate::metrics::HistogramSnapshot as DriftSnapshot;
use crate::metrics::{metrics, Counter, Gauge, Histogram};
use crate::origin::unix_now_ms;
use crate::proxy::{GroupRule, RefreshRule, ADMIN_PREFIX};

/// Ceiling on Δ and on the group δ: a year. Nothing is usefully cached
/// against a looser bound, and with `ttr_max` held to 64 times it (the
/// default multiple) every `timestamp + TTR` on the millisecond timeline
/// stays far from `u64` overflow.
pub const MAX_DELTA: Duration = Duration::from_hours(365 * 24);

/// Validates a rule set + group the way both [`crate::proxy::LiveProxy::start`]
/// and the `PUT /admin/rules` endpoint require: unique paths that don't
/// shadow control endpoints, tolerances within [`MAX_DELTA`], per-rule
/// LIMD configs that build cleanly (positive Δ, `ttr_max ≥ Δ`), and a
/// positive group δ. Returns the LIMD configuration each rule implies,
/// in order.
///
/// # Errors
///
/// Returns a human-readable reason (the PUT endpoint's 400 body).
pub fn validate(
    rules: &[RefreshRule],
    group: Option<&GroupRule>,
) -> Result<Vec<LimdConfig>, String> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(rules.len());
    let mut configs = Vec::with_capacity(rules.len());
    for rule in rules {
        if !rule.path.starts_with('/') {
            return Err(format!("rule path {:?} must start with '/'", rule.path));
        }
        // The path goes out verbatim as the poll's request target, so it
        // must be one: no space to split the request line, no CR/LF to
        // end it early (the request parser refuses them too).
        if rule
            .path
            .bytes()
            .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
        {
            return Err(format!(
                "rule path {:?} contains whitespace or a control byte",
                rule.path
            ));
        }
        if rule.path.starts_with(ADMIN_PREFIX) {
            return Err(format!(
                "rule path {:?} shadows a proxy control endpoint",
                rule.path
            ));
        }
        if !seen.insert(rule.path.as_str()) {
            return Err(format!("duplicate rule for {}", rule.path));
        }
        if rule.delta > MAX_DELTA {
            return Err(format!("rule for {}: delta exceeds {MAX_DELTA}", rule.path));
        }
        if rule.ttr_max > MAX_DELTA * 64 {
            return Err(format!(
                "rule for {}: ttr_max exceeds {}",
                rule.path,
                MAX_DELTA * 64
            ));
        }
        // Rejected rather than silently clamped: inverted TTR bounds
        // are for the admin plane to hear about, with the reason.
        let config = LimdConfig::builder(rule.delta)
            .ttr_max(rule.ttr_max)
            .build();
        configs.push(config.map_err(|e| format!("rule for {}: {e}", rule.path))?);
    }
    if let Some(group) = group {
        if group.delta.is_zero() {
            return Err("group delta must be positive".to_owned());
        }
        if group.delta > MAX_DELTA {
            return Err(format!("group delta exceeds {MAX_DELTA}"));
        }
    }
    Ok(configs)
}

/// What a successful [`ConsistencyRuntime::install`] did, as the
/// schedule reports it: paths added and changed in the rule set's order,
/// paths removed sorted (the proxy's install hook evicts their copies).
pub type InstallReport = Swap<Arc<str>>;

/// Live per-path refresher state, as published for `GET /admin/rules`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStatus {
    /// The object path.
    pub path: String,
    /// The Δ tolerance in force.
    pub delta: Duration,
    /// The TTR ceiling in force.
    pub ttr_max: Duration,
    /// The current adaptive TTR (grows while the object stays quiet).
    pub ttr: Duration,
    /// Unix milliseconds of the most recent poll, if any.
    pub last_poll_unix_ms: Option<u64>,
    /// Scheduled polls performed for this path (triggered extras not
    /// included; those belong to the coordinator).
    pub polls: u64,
    /// The epoch that (last) installed this path's rule. An unchanged
    /// rule keeps its original epoch across swaps — proof its adaptive
    /// state survived.
    pub rule_epoch: u64,
}

/// Upper bounds (µs) of the drift histogram's buckets. Roughly
/// logarithmic from 100 µs to 10 s — fine where a healthy refresh plane
/// lives, coarse where it is already on fire.
const DRIFT_BUCKET_BOUNDS_US: [u64; 16] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

metrics! {
    /// Shared refresh-plane counters, updated as the plane is stepped and
    /// read by the stats plane (and the benchmark) without any lock.
    pub struct RefreshMetrics {
        /// Polls handed out and not yet finished, at most `POLL_WIDTH`:
        /// on the wire, or queued at the origin pool's per-origin cap.
        in_flight: Gauge => "refresh.in_flight";
        /// Polls started (scheduled and triggered).
        polls: Counter => "refresh.polls";
        /// Polls started that the Mt coordinator asked for.
        triggered: Counter => "refresh.triggered";
        /// Polls that failed (timeouts, resets, unexpected statuses, a
        /// `200` without a modification stamp).
        errors: Counter => "refresh.errors";
        /// Mt triggers satisfied by a poll already in flight or queued for
        /// the same target, instead of an extra origin round trip.
        triggered_coalesced: Counter => "refresh.triggered_coalesced";
        /// Per-poll drift: scheduled due time against the instant the poll
        /// was handed out for sending.
        drift: Histogram = Histogram::new(&DRIFT_BUCKET_BOUNDS_US) => "refresh.drift";
    }
}

/// The shared §3 scheduler as the plane steps it: keyed by path, due on
/// the monotonic clock.
type Core = Schedule<Arc<str>, Instant>;

/// The refresh plane's state machine, locked
/// ([`ConsistencyRuntime::plane`]). Drop it before a round trip.
#[derive(Debug)]
pub(crate) struct Plane<'a> {
    core: MutexGuard<'a, Core>,
    metrics: &'a RefreshMetrics,
}

impl Plane<'_> {
    /// The next poll due at `now`, sent at `ts` on the LIMD/Mt timeline
    /// (Unix milliseconds), if any: marked in flight in the schedule,
    /// counted, and its drift from its due instant recorded.
    pub(crate) fn next_poll(
        &mut self,
        now: Instant,
        ts: Timestamp,
    ) -> Option<Job<Arc<str>, Instant>> {
        let job = self.core.next_job(now, ts)?;
        self.metrics.polls.inc();
        self.metrics
            .triggered
            .add(u64::from(job.kind == PollKind::Triggered));
        self.metrics.in_flight.set(self.core.in_flight() as u64);
        self.metrics
            .drift
            .record(now.saturating_duration_since(job.due));
        Some(job)
    }

    /// Applies the outcome of `path`'s poll, finished at `now`: `None`
    /// marks a failed poll, which backs the path off briefly. The
    /// outcome of a path un-ruled while the poll was out is discarded,
    /// and a path with no poll out changes nothing.
    pub(crate) fn finish(&mut self, path: &str, result: Option<PollResult>, now: Instant) {
        self.metrics.errors.add(u64::from(result.is_none()));
        let view = result.as_ref().map(PollResult::as_view);
        let done = self.core.complete(path, view, now);
        self.metrics.in_flight.set(self.core.in_flight() as u64);
        self.metrics.triggered_coalesced.add(done.coalesced);
    }

    /// The earliest instant a poll falls due, if any is scheduled. A
    /// finish or an install can bring it forward.
    pub(crate) fn next_wake(&mut self) -> Option<Instant> {
        self.core.next_wake()
    }

    /// Whether the rules in force cover `path`. A store gated on it under
    /// this guard cannot outlive an install that un-rules the path (see
    /// the module docs).
    pub(crate) fn ruled(&self, path: &str) -> bool {
        self.core.path(path).is_some()
    }
}

/// What runs after each install, outside the plane's lock.
type InstallHook = Box<dyn Fn(&InstallReport) + Send + Sync>;

/// The rules in force, which are the refresh plane's state machine, and
/// the lock around them. See the module docs.
pub struct ConsistencyRuntime {
    metrics: RefreshMetrics,
    /// The whole refresh state machine; its version is the epoch in force.
    core: StdMutex<Core>,
    /// Where idle [`ConsistencyRuntime::run`] workers wait, with `core`.
    work: Condvar,
    /// Registered by the proxy at start (`ConsistencyRuntime::on_install`).
    on_install: OnceLock<InstallHook>,
}

impl std::fmt::Debug for ConsistencyRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsistencyRuntime")
            .field("metrics", &self.metrics)
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

impl ConsistencyRuntime {
    /// A runtime whose first epoch (version 1) holds `rules`/`group`.
    ///
    /// # Errors
    ///
    /// Returns the validation reason (see [`validate`]).
    pub fn new(rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Result<Arc<Self>, String> {
        let runtime = ConsistencyRuntime {
            metrics: RefreshMetrics::default(),
            core: StdMutex::new(Core::default()),
            work: Condvar::new(),
            on_install: OnceLock::new(),
        };
        runtime.install(rules, group)?;
        Ok(Arc::new(runtime))
    }

    /// The refresh plane's shared counters and drift histogram.
    pub fn refresh_metrics(&self) -> &RefreshMetrics {
        &self.metrics
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the plane.
    pub(crate) fn plane(&self) -> Plane<'_> {
        Plane {
            core: self.lock(),
            metrics: &self.metrics,
        }
    }

    /// Registers what runs after every later install, outside the lock,
    /// with its report: the proxy evicts the un-ruled paths and wakes
    /// reactor 0. Only the first registration counts; the hook must not
    /// install.
    pub(crate) fn on_install(&self, hook: impl Fn(&InstallReport) + Send + Sync + 'static) {
        let _ = self.on_install.set(Box::new(hook));
    }

    /// Makes [`ConsistencyRuntime::run`]'s idle workers look at the
    /// schedule and the shutdown flag again. Installs notify them
    /// themselves; a `run` caller must call this after storing the
    /// shutdown flag, or idle workers keep waiting for their next due
    /// instant.
    pub fn wake(&self) {
        // Through the lock, so the notify cannot fall between a
        // worker's look at the flag and its wait.
        drop(self.lock());
        self.work.notify_all();
    }

    /// Validates a new rule set, then, under the plane's lock,
    /// reconciles the schedule with it, which bumps the epoch; the new
    /// rules are in force when it returns. Then it wakes whoever steps the
    /// plane and runs the install hook. The swap is the whole reload: no
    /// thread restarts, no cache drop, no connection churn.
    ///
    /// # Errors
    ///
    /// Returns the validation reason; the rules in force stay.
    pub fn install(
        &self,
        rules: Vec<RefreshRule>,
        group: Option<GroupRule>,
    ) -> Result<InstallReport, String> {
        let limd = validate(&rules, group.as_ref())?;
        let members = rules.iter().map(|rule| rule.path.as_str()).zip(limd);
        // New and changed rules fall due now.
        let report =
            self.lock()
                .reconcile(members, group.map(|g| (g.delta, g.policy)), Instant::now());
        self.work.notify_all();
        if let Some(hook) = self.on_install.get() {
            hook(&report);
        }
        Ok(report)
    }

    /// The rules in force, from one locked read of the schedule: the
    /// epoch, the group, and each path's LIMD config with its live
    /// state, sorted by path.
    pub(crate) fn rules(&self) -> (u64, Option<GroupRule>, Vec<(LimdConfig, PathStatus)>) {
        let core = self.lock();
        let group = core
            .group()
            .map(|(delta, policy)| GroupRule { delta, policy });
        let mut rows: Vec<(LimdConfig, PathStatus)> = core
            .paths()
            .map(|(path, s)| {
                let status = PathStatus {
                    path: path.to_string(),
                    delta: s.limd.config().delta(),
                    ttr_max: s.limd.config().ttr_max(),
                    ttr: s.limd.current_ttr(),
                    last_poll_unix_ms: s.limd.last_poll().map(Timestamp::as_millis),
                    polls: s.polls,
                    rule_epoch: s.rule_version,
                };
                (*s.limd.config(), status)
            })
            .collect();
        let epoch = core.version();
        // Sorted after the guard is gone: the plane does not wait on it.
        drop(core);
        rows.sort_by(|a, b| a.1.path.cmp(&b.1.path));
        (epoch, group, rows)
    }

    /// Every ruled path's live state, sorted by path, read from the
    /// scheduler itself.
    pub fn status(&self) -> Vec<PathStatus> {
        self.rules()
            .2
            .into_iter()
            .map(|(_, status)| status)
            .collect()
    }

    /// The refresh plane stepped by blocking workers until `shutdown`:
    /// kept because `benchmark/` drives it for its dispatch-capacity
    /// figure; the live proxy steps the plane on its reactor instead.
    /// Runs on exactly `workers` threads, the calling one and
    /// `workers - 1` scoped ones, each owning the poller `make_poller`
    /// builds for it and looping *plane → next poll → unlock → poll →
    /// plane → finish*; workers past [`POLL_WIDTH`] stay idle. A worker
    /// with nothing due waits on the one condvar until the earliest due
    /// instant; whoever takes a poll notifies one idle worker to watch
    /// the next one, and an install or [`ConsistencyRuntime::wake`]
    /// notifies all.
    ///
    /// A poller performs the origin round trip; `None` marks a failed
    /// poll. `_on_removed` and `_on_adopted` are never called: an install
    /// reconciles the schedule itself, and only the install hook hears
    /// of it. They are kept because `benchmark/` passes them.
    pub fn run<P>(
        &self,
        shutdown: &AtomicBool,
        workers: usize,
        mut make_poller: impl FnMut(usize) -> P,
        _on_removed: impl FnMut(&str) + Send,
        _on_adopted: impl FnMut(u64) + Send,
    ) where
        P: FnMut(PollKind, &str) -> Option<PollResult> + Send,
    {
        let work = |mut poller: P| {
            let mut plane = self.plane();
            while !shutdown.load(Ordering::SeqCst) {
                let now = Instant::now();
                let Some(job) = plane.next_poll(now, Timestamp::from_millis(unix_now_ms())) else {
                    // With nothing scheduled, forever: only a finish
                    // (whose worker then looks for work itself), an
                    // install or `wake` can create work.
                    let left = plane
                        .next_wake()
                        .map_or(StdDuration::MAX, |at| at.saturating_duration_since(now));
                    let waited = self.work.wait_timeout(plane.core, left);
                    let core = waited.unwrap_or_else(PoisonError::into_inner).0;
                    plane = Plane {
                        core,
                        metrics: &self.metrics,
                    };
                    continue;
                };
                // While this worker is on the wire somebody else has to
                // watch the next due instant.
                self.work.notify_one();
                drop(plane);
                let result = poller(job.kind, &job.key);
                plane = self.plane();
                plane.finish(&job.key, result, Instant::now());
            }
            drop(plane);
            // A poller may store the flag without a `wake`: take the idle
            // workers along.
            self.work.notify_all();
        };

        // Worker 0 is the calling thread; the rest are scoped threads.
        let work = &work;
        std::thread::scope(|scope| {
            let first = make_poller(0);
            for poller in (1..workers.max(1)).map(&mut make_poller) {
                scope.spawn(move || work(poller));
            }
            work(first);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::mutual::temporal::MtPolicy;
    use std::sync::atomic::AtomicU64;

    fn unix_now() -> Timestamp {
        Timestamp::from_millis(unix_now_ms())
    }

    fn rule(path: &str, delta_ms: u64) -> RefreshRule {
        RefreshRule::new(path, Duration::from_millis(delta_ms))
    }

    /// Reconciles `rules` into `core` through the call an install makes.
    fn swap(core: &mut Core, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> InstallReport {
        let limd = validate(&rules, group.as_ref()).unwrap();
        let members = rules.iter().map(|rule| rule.path.as_str()).zip(limd);
        core.reconcile(members, group.map(|g| (g.delta, g.policy)), Instant::now())
    }

    /// A report's paths, as strings.
    fn paths(keys: &[Arc<str>]) -> Vec<&str> {
        keys.iter().map(|key| &**key).collect()
    }

    /// The ruled paths, as `status()` lists them.
    fn ruled(runtime: &ConsistencyRuntime) -> Vec<String> {
        runtime.status().into_iter().map(|s| s.path).collect()
    }

    /// Polls whatever is due at `now`, in order, answering `304` except to the
    /// paths in `updated`; returns `(kind, path)` per poll.
    fn poll_due(
        core: &mut Core,
        now: Instant,
        ts: Timestamp,
        updated: &[&str],
    ) -> Vec<(PollKind, String)> {
        let mut polled = Vec::new();
        while let Some(job) = core.next_job(now, ts) {
            let result = match updated.contains(&&*job.key) {
                true => PollResult::modified(ts),
                false => PollResult::NotModified,
            };
            core.complete(&job.key, Some(result.as_view()), now);
            polled.push((job.kind, job.key.to_string()));
        }
        polled
    }

    fn state<'a>(core: &'a Core, path: &str) -> &'a mutcon_proxy::schedule::PathSched<Instant> {
        core.paths()
            .find(|(p, _)| p.as_ref() == path)
            .map(|(_, s)| s)
            .expect("ruled")
    }

    #[test]
    fn validate_rejects_bad_rule_sets() {
        let ok = [rule("/a", 10), rule("/b", 10)];
        assert!(validate(&ok, None).is_ok());

        let dup = [rule("/a", 10), rule("/a", 20)];
        assert!(validate(&dup, None).unwrap_err().contains("duplicate"));

        let zero = [rule("/a", 0)];
        assert!(validate(&zero, None).unwrap_err().contains("/a"));

        let inverted = [rule("/a", 100).ttr_max(Duration::from_millis(50))];
        assert!(validate(&inverted, None).unwrap_err().contains("ttr"));

        let shadowing = [rule("/admin/rules", 10)];
        assert!(validate(&shadowing, None)
            .unwrap_err()
            .contains("control endpoint"));

        let relative = [rule("x", 10)];
        assert!(validate(&relative, None)
            .unwrap_err()
            .contains("start with"));

        // Not a request target: the poll's request line would split or end.
        for path in ["/a b", "/a\tb", "/a\r\nx: y", "/a\nb", "/a\0", "/a\x7f"] {
            let err = validate(&[rule(path, 10)], None).unwrap_err();
            assert!(
                err.contains("whitespace or a control byte"),
                "{path:?}: {err}"
            );
        }

        let bad_group = GroupRule {
            delta: Duration::ZERO,
            policy: MtPolicy::TriggeredPolls,
        };
        assert!(validate(&ok, Some(&bad_group))
            .unwrap_err()
            .contains("group"));

        // The ceiling: Δ, ttr_max and group δ each refused just past it
        // (a direct `RefreshRule::new` saturates instead of overflowing).
        let over = MAX_DELTA + Duration::from_millis(1);
        assert!(validate(&[RefreshRule::new("/a", MAX_DELTA)], None).is_ok());
        let huge = [RefreshRule::new("/a", Duration::MAX)];
        assert!(validate(&huge, None).unwrap_err().contains("delta exceeds"));
        let long_ttr = [rule("/a", 10).ttr_max(MAX_DELTA * 64 + Duration::from_millis(1))];
        assert!(validate(&long_ttr, None)
            .unwrap_err()
            .contains("ttr_max exceeds"));
        let wide_group = GroupRule {
            delta: over,
            ..bad_group
        };
        assert!(validate(&ok, Some(&wide_group))
            .unwrap_err()
            .contains("group delta exceeds"));
    }

    #[test]
    fn install_bumps_version_and_reports_the_diff() {
        let runtime =
            ConsistencyRuntime::new(vec![rule("/keep", 10), rule("/drop", 10)], None).unwrap();
        assert_eq!(runtime.rules().0, 1);

        let report = runtime
            .install(
                vec![rule("/keep", 10), rule("/grow", 10), rule("/drop2", 10)],
                None,
            )
            .unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(paths(&report.added), ["/grow", "/drop2"]);
        assert!(report.changed.is_empty());
        assert_eq!(paths(&report.removed), ["/drop"]);
        assert_eq!(runtime.rules().0, 2);

        let report = runtime
            .install(vec![rule("/keep", 25), rule("/grow", 10)], None)
            .unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(paths(&report.changed), ["/keep"]);
        assert_eq!(paths(&report.removed), ["/drop2"]);

        // A rejected install leaves the rules in force untouched.
        let err = runtime.install(vec![rule("/x", 0)], None).unwrap_err();
        assert!(err.contains("/x"));
        assert_eq!(runtime.rules().0, 3);
        assert_eq!(ruled(&runtime), ["/grow", "/keep"]);
    }

    /// Nothing has to step the plane for an install to land: the rules a
    /// `new` or an `install` returns with are the ones `status()` lists.
    #[test]
    fn an_install_is_in_force_when_it_returns() {
        let runtime = ConsistencyRuntime::new(vec![rule("/b", 10), rule("/a", 10)], None).unwrap();
        assert_eq!(ruled(&runtime), ["/a", "/b"]);

        runtime
            .install(vec![rule("/c", 10), rule("/a", 20)], None)
            .unwrap();
        let status = runtime.status();
        let rows: Vec<(&str, u64, Duration)> = status
            .iter()
            .map(|s| (s.path.as_str(), s.rule_epoch, s.delta))
            .collect();
        assert_eq!(
            rows,
            [
                ("/a", 2, Duration::from_millis(20)),
                ("/c", 2, Duration::from_millis(10))
            ]
        );
    }

    #[test]
    fn reconcile_preserves_unchanged_paths_and_rebuilds_changed_ones() {
        let (mut core, base) = (Core::default(), Instant::now());
        swap(
            &mut core,
            vec![rule("/keep", 10), rule("/change", 10), rule("/drop", 10)],
            None,
        );

        // Grow every TTR with a few quiet polls, a second apart.
        for round in 1..=4 {
            let polled = poll_due(
                &mut core,
                base + StdDuration::from_secs(round),
                unix_now(),
                &[],
            );
            assert_eq!(polled.len(), 3);
        }
        let grown = state(&core, "/keep").limd.current_ttr();
        assert!(grown > Duration::from_millis(10), "TTR must have grown");

        let report = swap(
            &mut core,
            vec![rule("/keep", 10), rule("/change", 25), rule("/new", 10)],
            None,
        );
        assert_eq!(paths(&report.removed), ["/drop"]);

        // Unchanged: adaptive state and origin epoch preserved.
        assert_eq!(state(&core, "/keep").limd.current_ttr(), grown);
        assert_eq!(state(&core, "/keep").rule_version, 1);
        assert_eq!(state(&core, "/keep").polls, 4);
        // Changed: rebuilt from the new config.
        assert_eq!(
            state(&core, "/change").limd.config().delta(),
            Duration::from_millis(25)
        );
        assert_eq!(state(&core, "/change").rule_version, 2);
        assert_eq!(state(&core, "/change").polls, 0);
        // Added: fresh; removed: gone.
        assert_eq!(state(&core, "/new").rule_version, 2);
        assert_eq!(core.paths().count(), 3);
    }

    #[test]
    fn poll_for_a_removed_path_is_discarded() {
        let mut core = Core::default();
        swap(&mut core, vec![rule("/gone", 10)], None);
        let job = core
            .next_job(Instant::now(), unix_now())
            .expect("due at once");
        swap(&mut core, vec![], None);
        // The in-flight poll's outcome arrives after the swap: no panic,
        // no state, no triggers — and the stale heap entry is discarded.
        let done = core.complete(
            &job.key,
            Some(PollResult::NotModified.as_view()),
            Instant::now(),
        );
        assert_eq!((done.coalesced, done.ttr), (0, None));
        assert_eq!((core.paths().count(), core.in_flight()), (0, 0));
        assert_eq!(core.next_wake(), None);
        assert!(core
            .next_job(Instant::now() + StdDuration::from_secs(1), unix_now())
            .is_none());
    }

    #[test]
    fn group_coordinator_triggers_and_survives_only_compatible_swaps() {
        use PollKind::{Scheduled, Triggered};
        let group = Some(GroupRule {
            delta: Duration::from_millis(5),
            policy: MtPolicy::TriggeredPolls,
        });
        // Ahead of the wall clock, so that whatever a swap makes due
        // "now" is due at every instant below.
        let base = Instant::now() + StdDuration::from_secs(1);
        let at = |ms: u64| base + StdDuration::from_millis(ms);
        let ts = |ms: u64| Timestamp::from_millis(1_000_000 + ms);
        let polls = |polled: &[(PollKind, &str)]| -> Vec<(PollKind, String)> {
            polled
                .iter()
                .map(|(kind, path)| (*kind, path.to_string()))
                .collect()
        };
        let mut core = Core::default();
        swap(&mut core, vec![rule("/a", 10), rule("/b", 10)], group);
        // /a's update finds /b due: one poll serves both. The `304`
        // stretches /b's TTR to 12 ms, the update keeps /a's at 10.
        assert_eq!(
            poll_due(&mut core, at(0), ts(0), &["/a"]),
            polls(&[(Scheduled, "/a"), (Scheduled, "/b")])
        );
        // The next one finds /b polled more than δ ago and not yet due.
        assert_eq!(
            poll_due(&mut core, at(11), ts(11), &["/a"]),
            polls(&[(Scheduled, "/a"), (Triggered, "/b")])
        );

        // Same group, same membership, changed Δ on one path: the
        // coordinator survives, and remembers polling /b within δ.
        swap(&mut core, vec![rule("/a", 25), rule("/b", 10)], group);
        assert_eq!(
            poll_due(&mut core, at(11), ts(12), &["/a"]),
            polls(&[(Scheduled, "/a")])
        );

        // A membership change rebuilds it: it has never seen /a polled.
        swap(&mut core, vec![rule("/a", 25), rule("/c", 10)], group);
        assert_eq!(
            poll_due(&mut core, at(11), ts(13), &["/c"]),
            polls(&[(Scheduled, "/c"), (Triggered, "/a")])
        );
        // Dropping the group removes it: /a, 11 ms on, is left alone.
        swap(&mut core, vec![rule("/a", 25), rule("/c", 10)], None);
        assert_eq!(
            poll_due(&mut core, at(22), ts(24), &["/c"]),
            polls(&[(Scheduled, "/c")])
        );
    }

    #[test]
    fn run_polls_until_shutdown_and_publishes_status() {
        let runtime = ConsistencyRuntime::new(vec![rule("/obj", 1)], None).unwrap();
        let shutdown = AtomicBool::new(false);
        let polls = AtomicU64::new(0);
        runtime.run(
            &shutdown,
            1,
            |_| {
                |kind: PollKind, path: &str| {
                    assert_eq!(kind, PollKind::Scheduled);
                    assert_eq!(path, "/obj");
                    if polls.fetch_add(1, Ordering::SeqCst) + 1 >= 5 {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                    Some(PollResult::NotModified)
                }
            },
            |removed| panic!("nothing was removed, got {removed}"),
            |version| panic!("no swap happened, got adoption of epoch {version}"),
        );
        assert_eq!(polls.load(Ordering::SeqCst), 5);
        let status = runtime.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].path, "/obj");
        assert_eq!(status[0].polls, 5);
        assert_eq!(status[0].rule_epoch, 1);
        assert!(status[0].last_poll_unix_ms.is_some());
        assert!(status[0].ttr >= status[0].delta);
        let metrics = runtime.refresh_metrics();
        assert_eq!(metrics.polls(), 5);
        assert_eq!(metrics.in_flight(), 0);
        assert_eq!(metrics.errors(), 0);
        assert_eq!(metrics.drift().count, 5);
    }

    #[test]
    fn run_adopts_an_install_made_mid_flight() {
        let runtime = ConsistencyRuntime::new(vec![rule("/old", 1)], None).unwrap();
        let reports = Arc::new(StdMutex::new(Vec::new()));
        let hook_reports = Arc::clone(&reports);
        runtime.on_install(move |report| hook_reports.lock().unwrap().push(report.clone()));
        let shutdown = AtomicBool::new(false);
        let seen = StdMutex::new(Vec::<String>::new());
        runtime.run(
            &shutdown,
            1,
            |_| {
                |_: PollKind, path: &str| {
                    let count = {
                        let mut seen = seen.lock().unwrap();
                        seen.push(path.to_owned());
                        seen.len()
                    };
                    if count == 2 {
                        // Swap mid-run: /old out, /new in — a *direct*
                        // install, no HTTP handler involved — and in
                        // force before the poll returns.
                        runtime.install(vec![rule("/new", 1)], None).unwrap();
                        assert_eq!(ruled(&runtime), ["/new"]);
                    }
                    if count >= 5 {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                    Some(PollResult::NotModified)
                }
            },
            |path| panic!("run's removal hook is never called, got {path}"),
            |version| panic!("run's adoption hook is never called, got {version}"),
        );
        // The install hook fired exactly once, with the whole swap: the
        // proxy's eviction rides on it, so it does not depend on the HTTP
        // plane.
        let expected = InstallReport {
            version: 2,
            added: vec![Arc::from("/new")],
            changed: Vec::new(),
            removed: vec![Arc::from("/old")],
        };
        assert_eq!(*reports.lock().unwrap(), [expected]);
        let seen = seen.into_inner().unwrap();
        assert_eq!(&seen[..2], &["/old", "/old"]);
        // Everything after the swap polls the new path only — including
        // the in-flight poll's outcome being discarded for /old.
        assert!(seen[2..].iter().all(|p| p == "/new"), "{seen:?}");
        let status = runtime.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].path, "/new");
        assert_eq!(status[0].rule_epoch, 2);
    }

    #[test]
    fn drift_histogram_interpolates_quantiles_and_caps_the_tail() {
        use crate::metrics::Cell;
        let h = Histogram::new(&DRIFT_BUCKET_BOUNDS_US);
        assert_eq!(h.value().count, 0);
        for ms in 1..=100u64 {
            h.record(StdDuration::from_millis(ms));
        }
        let snap = h.value();
        assert_eq!(snap.count, 100);
        assert!((snap.max_ms - 100.0).abs() < 1e-9, "max {}", snap.max_ms);
        assert!((40.0..=60.0).contains(&snap.p50_ms), "p50 {}", snap.p50_ms);
        // The ramp's true p99 is 99 ms; interpolation against the
        // max-capped top bucket must land close, not at a bucket edge.
        assert!((90.0..=100.0).contains(&snap.p99_ms), "p99 {}", snap.p99_ms);
        assert!(snap.p50_ms <= snap.p99_ms && snap.p99_ms <= snap.max_ms);
    }

    #[test]
    fn worker_pool_overlaps_polls_without_double_polling() {
        let rules: Vec<RefreshRule> = (0..8).map(|i| rule(&format!("/p{i}"), 1)).collect();
        let runtime = ConsistencyRuntime::new(rules, None).unwrap();
        let shutdown = AtomicBool::new(false);
        let on_wire: StdMutex<HashSet<String>> = StdMutex::new(HashSet::new());
        let cur = AtomicU64::new(0);
        let max_overlap = AtomicU64::new(0);
        let total = AtomicU64::new(0);
        // Twice the width in workers: the schedule, not the worker
        // count, bounds the polls out.
        runtime.run(
            &shutdown,
            2 * POLL_WIDTH,
            |_| {
                |_: PollKind, path: &str| {
                    assert!(
                        on_wire.lock().unwrap().insert(path.to_owned()),
                        "double poll on {path}"
                    );
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    max_overlap.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(StdDuration::from_millis(3));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    on_wire.lock().unwrap().remove(path);
                    if total.fetch_add(1, Ordering::SeqCst) + 1 >= 60 {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                    Some(PollResult::NotModified)
                }
            },
            |_| {},
            |_| {},
        );
        let total = total.load(Ordering::SeqCst);
        assert!(total >= 60);
        let max_overlap = max_overlap.load(Ordering::SeqCst);
        assert!(
            (2..=POLL_WIDTH as u64).contains(&max_overlap),
            "workers against a 3 ms origin overlap polls up to the width: {max_overlap}"
        );
        let metrics = runtime.refresh_metrics();
        assert_eq!(
            metrics.polls(),
            total,
            "every started poll completed and was counted"
        );
        assert_eq!(metrics.in_flight(), 0);
        let drift = metrics.drift();
        assert_eq!(drift.count, total);
        assert!(drift.p50_ms <= drift.p99_ms && drift.p99_ms <= drift.max_ms + 1e-9);
    }

    #[test]
    fn install_wakes_an_idle_scheduler_promptly() {
        let runtime = ConsistencyRuntime::new(Vec::new(), None).unwrap();
        let shutdown = AtomicBool::new(false);
        let polled_at: StdMutex<Option<Instant>> = StdMutex::new(None);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                runtime.run(
                    &shutdown,
                    1,
                    |_| {
                        |_: PollKind, path: &str| {
                            assert_eq!(path, "/fresh");
                            polled_at.lock().unwrap().get_or_insert_with(Instant::now);
                            shutdown.store(true, Ordering::SeqCst);
                            Some(PollResult::NotModified)
                        }
                    },
                    |_| {},
                    |_| {},
                );
            });
            // Let the scheduler reach its idle (indefinite) park, then
            // install: only the install's notify can end that park.
            std::thread::sleep(StdDuration::from_millis(30));
            let installed = Instant::now();
            runtime.install(vec![rule("/fresh", 50)], None).unwrap();
            while polled_at.lock().unwrap().is_none() {
                assert!(
                    installed.elapsed() < StdDuration::from_secs(5),
                    "install never woke the idle scheduler"
                );
                std::thread::sleep(StdDuration::from_millis(1));
            }
        });
        assert!(polled_at.lock().unwrap().unwrap() >= Instant::now() - StdDuration::from_secs(5));
    }
}
