//! The hot-swappable consistency runtime behind the live proxy's
//! refresh plane: the rules in force and the state machine polling them.
//!
//! **Rules.** [`ConsistencyRuntime`] owns a versioned [`RulesEpoch`], an
//! immutable snapshot behind an atomically swapped `Arc`. `install`
//! validates (the same [`validate`] [`crate::proxy::LiveProxy::start`]
//! uses), bumps the version and swaps. It never blocks the reactors
//! (readers clone the `Arc` out from under a briefly held lock) and
//! touches neither cache nor sockets.
//!
//! **The state machine** is [`mutcon_proxy::schedule`], the one §3
//! scheduler the simulator steps too. This module is its socket driver
//! and adds what only a running proxy has: epochs, the lock, the workers,
//! metrics and hooks. No scheduling rule lives here. A swap is adopted by
//! handing the new epoch's paths, LIMD configs and group to
//! [`Schedule::reconcile`].
//!
//! **One lock, M workers.** [`ConsistencyRuntime::run`] is `workers`
//! workers and nothing else: the calling thread is worker 0, and the
//! rest are threads it starts. The machine sits behind one mutex; each
//! worker loops *lock → adopt a newer epoch → `next_job` → unlock →
//! poll the origin → lock → `complete`*, so the lock is never held
//! across a round trip and `workers` is the number of polls on the wire
//! at once. A worker that finds nothing ready waits on the one condvar
//! until the earliest due instant. Whoever takes a job first notifies
//! one idle worker, so while it is on the wire somebody else watches
//! the next due instant; [`ConsistencyRuntime::install`],
//! [`ConsistencyRuntime::wake`] and a worker leaving notify everyone.
//! Every one of those notifies happens with, or after passing through,
//! the lock: a worker that has just looked at the epoch and the
//! shutdown flag is already waiting when it fires, so none is lost.
//!
//! **Shutdown.** Store the flag, then call [`ConsistencyRuntime::wake`].
//! A worker looks at the flag each time it holds the lock, after
//! applying the poll it came back with: polls on the wire finish and
//! are applied, and no new one starts.
//!
//! **Hooks.** `on_removed` / `on_adopted` run under the lock, on
//! whichever worker adopts the swap. That orders them with the machine:
//! no job of a later epoch is handed out before they return, so the
//! proxy's eviction of an un-ruled path cannot race a poll of the same
//! path re-added afterwards.
//!
//! Every poll records its **drift** — scheduled due time to the moment
//! a worker started sending, the measurable form of the fidelity the
//! paper's Δ guarantees lose when polls fire late — into
//! a [`Histogram`], served with the rest of [`RefreshMetrics`] under
//! `refresh` in `GET /admin/stats`. [`ConsistencyRuntime::status`]
//! (`GET /admin/rules`) is built from the scheduler under the same lock
//! when asked, so it cannot lag a completed poll.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration as StdDuration, Instant};

use parking_lot::RwLock;

use mutcon_core::limd::{LimdConfig, PollResult};
use mutcon_core::time::{Duration, Timestamp};
pub use mutcon_proxy::schedule::PollKind;
use mutcon_proxy::schedule::Schedule;

pub use crate::metrics::HistogramSnapshot as DriftSnapshot;
use crate::metrics::{metrics, Counter, Gauge, Histogram};
use crate::origin::unix_now_ms;
use crate::proxy::{GroupRule, RefreshRule};

/// One immutable snapshot of the refresh rules in force. Epochs are
/// never mutated — a reload installs a fresh one with a bumped version.
#[derive(Debug, Clone, PartialEq)]
pub struct RulesEpoch {
    /// Monotonically increasing version; starts at 1, bumped by every
    /// [`ConsistencyRuntime::install`].
    pub version: u64,
    /// Per-path refresh rules (validated: paths unique).
    pub rules: Vec<RefreshRule>,
    /// Optional Mt coordination across all rule paths.
    pub group: Option<GroupRule>,
    /// The LIMD configuration each rule implies, in `rules` order, as
    /// [`validate`] built it.
    pub(crate) limd: Vec<LimdConfig>,
    /// Path → index into `rules`, so `rule()` is O(1): installs diff
    /// 50k-path catalogs, and a linear lookup would make that O(P²).
    by_path: HashMap<String, usize>,
}

impl RulesEpoch {
    /// Validates (see [`validate`]) and builds an epoch, indexing the
    /// paths.
    ///
    /// # Errors
    ///
    /// Returns the validation reason.
    pub fn new(version: u64, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Result<RulesEpoch, String> {
        let limd = validate(&rules, group.as_ref())?;
        let by_path = rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.path.clone(), i))
            .collect();
        Ok(RulesEpoch {
            version,
            rules,
            group,
            limd,
            by_path,
        })
    }

    /// The rule for `path`, if this epoch has one.
    pub fn rule(&self, path: &str) -> Option<&RefreshRule> {
        self.by_path.get(path).map(|&i| &self.rules[i])
    }

    /// Whether `path` is ruled in this epoch.
    pub fn contains(&self, path: &str) -> bool {
        self.by_path.contains_key(path)
    }
}

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
pub fn validate(rules: &[RefreshRule], group: Option<&GroupRule>) -> Result<Vec<LimdConfig>, String> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(rules.len());
    let mut configs = Vec::with_capacity(rules.len());
    for rule in rules {
        if !rule.path.starts_with('/') {
            return Err(format!("rule path {:?} must start with '/'", rule.path));
        }
        if rule.path.starts_with("/admin/") {
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
            return Err(format!("rule for {}: ttr_max exceeds {}", rule.path, MAX_DELTA * 64));
        }
        // Rejected rather than silently clamped: inverted TTR bounds
        // are for the admin plane to hear about, with the reason.
        let config = LimdConfig::builder(rule.delta).ttr_max(rule.ttr_max).build();
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

/// What a successful [`ConsistencyRuntime::install`] did, path by path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallReport {
    /// The freshly installed epoch's version.
    pub version: u64,
    /// Paths ruled now but not before.
    pub added: Vec<String>,
    /// Paths ruled before and now, with a different Δ or TTR bound
    /// (their adaptive state is rebuilt).
    pub changed: Vec<String>,
    /// Paths no longer ruled (their poll schedule stops; the caller
    /// should evict their cache entries).
    pub removed: Vec<String>,
}

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
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
];

metrics! {
    /// Shared refresh-plane counters, updated by the poll workers and read
    /// by the stats plane (and the benchmark) without any lock.
    pub struct RefreshMetrics {
        /// Poll workers the running refresh plane was started with.
        workers: Gauge => "refresh.workers";
        /// Polls currently on the wire.
        in_flight: Gauge => "refresh.in_flight";
        /// Polls started (scheduled and triggered).
        polls: Counter => "refresh.polls";
        /// Polls that failed; in the live proxy, the polls `proxy.errors`
        /// counts.
        errors: Counter => "refresh.errors";
        /// Mt triggers satisfied by a poll already in flight or queued for
        /// the same target, instead of an extra origin round trip.
        triggered_coalesced: Counter => "refresh.triggered_coalesced";
        /// Per-poll drift: scheduled due time against the instant a worker
        /// actually started the poll.
        drift: Histogram = Histogram::new(&DRIFT_BUCKET_BOUNDS_US) => "refresh.drift";
    }
}

/// The shared §3 scheduler as the workers step it: keyed by path, due
/// on the monotonic clock.
type Core = Schedule<Arc<str>, Instant>;

/// Hands `epoch` to the scheduler; returns the paths it un-ruled.
fn reconcile(core: &mut Core, epoch: &RulesEpoch) -> Vec<Arc<str>> {
    let members = epoch.rules.iter().zip(&epoch.limd).map(|(rule, limd)| (Arc::from(rule.path.as_str()), *limd));
    let group = epoch.group.map(|g| (g.delta, g.policy));
    core.reconcile(epoch.version, members, group, Instant::now())
}

/// The versioned, hot-swappable rules store plus the refresh plane's
/// state machine and the lock its workers share. See the module docs.
#[derive(Debug)]
pub struct ConsistencyRuntime {
    epoch: RwLock<Arc<RulesEpoch>>,
    metrics: RefreshMetrics,
    /// The whole refresh state machine. Empty (version 0) until
    /// [`ConsistencyRuntime::run`] adopts the first epoch.
    core: StdMutex<Core>,
    /// Where idle workers wait, with `core`, for work or shutdown.
    work: Condvar,
}

impl ConsistencyRuntime {
    /// A runtime whose first epoch (version 1) holds `rules`/`group`.
    ///
    /// # Errors
    ///
    /// Returns the validation reason (see [`validate`]).
    pub fn new(rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Result<Arc<Self>, String> {
        Ok(Arc::new(ConsistencyRuntime {
            epoch: RwLock::new(Arc::new(RulesEpoch::new(1, rules, group)?)),
            metrics: RefreshMetrics::default(),
            core: StdMutex::new(Core::default()),
            work: Condvar::new(),
        }))
    }

    /// The epoch currently in force.
    pub fn current(&self) -> Arc<RulesEpoch> {
        Arc::clone(&self.epoch.read())
    }

    /// Whether `path` is ruled in the current epoch.
    pub fn contains(&self, path: &str) -> bool {
        self.epoch.read().contains(path)
    }

    /// The refresh plane's shared counters and drift histogram.
    pub fn refresh_metrics(&self) -> &RefreshMetrics {
        &self.metrics
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes every idle [`ConsistencyRuntime::run`] worker to look at
    /// the epoch and the shutdown flag again. Installs call this
    /// internally; a shutdown caller must call it after storing the
    /// flag, or idle workers keep waiting for their next due instant.
    pub fn wake(&self) {
        // Through the lock, so the notify cannot fall between a
        // worker's look at the epoch and the flag and its wait.
        drop(self.lock());
        self.work.notify_all();
    }

    /// Validates and atomically installs a new epoch, then wakes the
    /// workers so adoption is immediate. The swap is the whole reload:
    /// no thread restarts, no cache drop, no connection churn.
    ///
    /// # Errors
    ///
    /// Returns the validation reason; the current epoch stays in force.
    pub fn install(
        &self,
        rules: Vec<RefreshRule>,
        group: Option<GroupRule>,
    ) -> Result<InstallReport, String> {
        fn paths<'a>(rules: impl Iterator<Item = &'a RefreshRule>) -> Vec<String> {
            rules.map(|r| r.path.clone()).collect()
        }
        // Validated and indexed before the lock the reactors read under.
        let mut new = RulesEpoch::new(0, rules, group)?;
        let mut slot = self.epoch.write();
        let old = Arc::clone(&slot);
        new.version = old.version + 1;
        let report = InstallReport {
            version: new.version,
            added: paths(new.rules.iter().filter(|r| !old.contains(&r.path))),
            changed: paths(new.rules.iter().filter(|r| old.rule(&r.path).is_some_and(|o| o != *r))),
            removed: paths(old.rules.iter().filter(|r| !new.contains(&r.path))),
        };
        *slot = Arc::new(new);
        drop(slot);
        self.wake();
        Ok(report)
    }

    /// Every adopted path's live state, sorted by path, read from the
    /// scheduler itself. Trails [`ConsistencyRuntime::current`] only by
    /// the time a worker takes to wake and adopt an install.
    pub fn status(&self) -> Vec<PathStatus> {
        let mut rows: Vec<PathStatus> = self
            .lock()
            .paths()
            .map(|(path, s)| PathStatus {
                path: path.to_string(),
                delta: s.limd.config().delta(),
                ttr_max: s.limd.config().ttr_max(),
                ttr: s.limd.current_ttr(),
                last_poll_unix_ms: s.limd.last_poll().map(Timestamp::as_millis),
                polls: s.polls,
                rule_epoch: s.rule_version,
            })
            .collect();
        // Sorted after the guard is gone: workers do not wait on it.
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows
    }

    /// The refresh plane: runs until `shutdown` on exactly `workers`
    /// threads, the calling one and `workers - 1` scoped ones, each owning
    /// the poller `make_poller` builds for it (in the proxy, a dedicated
    /// origin connection). The module docs describe the loop, who waits on
    /// what, and shutdown.
    ///
    /// A poller performs the origin round trip (and the cache store,
    /// gated on [`ConsistencyRuntime::contains`] so a removed path's late
    /// poll cannot resurrect its entry); `None` marks a network error
    /// and backs the path off briefly. `on_removed` fires once per path
    /// a swap un-rules and `on_adopted` once per epoch adopted, whoever
    /// installed it (HTTP PUT, SIGHUP reload, a direct
    /// [`ConsistencyRuntime::install`]) — the proxy evicts the path's
    /// cache entry in the first and bumps its cache generation in the
    /// second. Both run under the plane's lock and must not call back
    /// into `install`, `status` or `wake`.
    pub fn run<P>(
        &self,
        shutdown: &AtomicBool,
        workers: usize,
        mut make_poller: impl FnMut(usize) -> P,
        on_removed: impl FnMut(&str) + Send,
        on_adopted: impl FnMut(u64) + Send,
    ) where
        P: FnMut(PollKind, &str) -> Option<PollResult> + Send,
    {
        let workers = workers.max(1);
        self.metrics.workers.set(workers as u64);
        // The first epoch is not a swap: adopted here, without hooks.
        reconcile(&mut self.lock(), &self.current());

        // Whichever worker adopts a swap needs the `FnMut` hooks by
        // `&mut`. Only taken with the core lock held: never contended.
        let hooks = StdMutex::new((on_removed, on_adopted));
        // Adopts any epoch installed since the last look, so that no job
        // is handed out and no completion applied against stale rules.
        let adopt = |core: &mut Core| {
            let current = self.current();
            if current.version == core.version() {
                return;
            }
            let mut hooks = hooks.lock().unwrap_or_else(PoisonError::into_inner);
            let (on_removed, on_adopted) = &mut *hooks;
            for path in reconcile(core, &current) {
                on_removed(&path);
            }
            on_adopted(current.version);
        };

        // One worker's life, the poller it owns moved in.
        let work = |mut poller: P| {
            let mut core = self.lock();
            loop {
                adopt(&mut core);
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Some(job) = core.next_job(Instant::now()) else {
                    // With nothing scheduled, forever: only a completion
                    // (whose worker then looks for work itself), an
                    // install or shutdown (which notify) can create work.
                    let left = core.next_wake().map_or(StdDuration::MAX, |at| {
                        at.saturating_duration_since(Instant::now())
                    });
                    let waited = self.work.wait_timeout(core, left);
                    core = waited.unwrap_or_else(PoisonError::into_inner).0;
                    continue;
                };
                // While this worker is on the wire somebody else has to
                // watch the next due instant.
                self.work.notify_one();
                drop(core);

                self.metrics.polls.inc();
                self.metrics.in_flight.inc();
                self.metrics.drift.record(Instant::now().saturating_duration_since(job.due));
                // The timeline the LIMD/Mt state machines run on: taken
                // just before the poll hits the wire.
                let ts = Timestamp::from_millis(unix_now_ms());
                let result = poller(job.kind, &job.key);
                self.metrics.in_flight.dec();
                self.metrics.errors.add(u64::from(result.is_none()));

                core = self.lock();
                // A swap may have landed meanwhile: adopt it first, so
                // that a since-removed path's outcome is discarded.
                adopt(&mut core);
                let view = result.as_ref().map(PollResult::as_view);
                let done = core.complete(&job, ts, view, Instant::now());
                self.metrics.triggered_coalesced.add(done.coalesced);
            }
            drop(core);
            // A poller may store the flag without a `wake`: take the idle
            // workers along.
            self.work.notify_all();
        };

        // Worker 0 is the calling thread; the rest are scoped threads.
        let work = &work;
        std::thread::scope(|scope| {
            let first = make_poller(0);
            for poller in (1..workers).map(&mut make_poller) {
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

    /// Adopts epoch `version` into `core` the way a worker does; returns
    /// the paths it un-ruled.
    fn swap(core: &mut Core, version: u64, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Vec<Arc<str>> {
        reconcile(core, &RulesEpoch::new(version, rules, group).unwrap())
    }

    /// Polls whatever is due at `now`, in order, answering `304` except to the
    /// paths in `updated`; returns `(kind, path)` per poll.
    fn poll_due(core: &mut Core, now: Instant, ts: Timestamp, updated: &[&str]) -> Vec<(PollKind, String)> {
        let mut polled = Vec::new();
        while let Some(job) = core.next_job(now) {
            let result = match updated.contains(&&*job.key) {
                true => PollResult::modified(ts),
                false => PollResult::NotModified,
            };
            core.complete(&job, ts, Some(result.as_view()), now);
            polled.push((job.kind, job.key.to_string()));
        }
        polled
    }

    fn state<'a>(core: &'a Core, path: &str) -> &'a mutcon_proxy::schedule::PathSched<Instant> {
        core.paths().find(|(p, _)| p.as_ref() == path).map(|(_, s)| s).expect("ruled")
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
        assert!(validate(&shadowing, None).unwrap_err().contains("control endpoint"));

        let relative = [rule("x", 10)];
        assert!(validate(&relative, None).unwrap_err().contains("start with"));

        let bad_group = GroupRule {
            delta: Duration::ZERO,
            policy: MtPolicy::TriggeredPolls,
        };
        assert!(validate(&ok, Some(&bad_group)).unwrap_err().contains("group"));

        // The ceiling: Δ, ttr_max and group δ each refused just past it
        // (a direct `RefreshRule::new` saturates instead of overflowing).
        let over = MAX_DELTA + Duration::from_millis(1);
        assert!(validate(&[RefreshRule::new("/a", MAX_DELTA)], None).is_ok());
        let huge = [RefreshRule::new("/a", Duration::MAX)];
        assert!(validate(&huge, None).unwrap_err().contains("delta exceeds"));
        let long_ttr = [rule("/a", 10).ttr_max(MAX_DELTA * 64 + Duration::from_millis(1))];
        assert!(validate(&long_ttr, None).unwrap_err().contains("ttr_max exceeds"));
        let wide_group = GroupRule { delta: over, ..bad_group };
        assert!(validate(&ok, Some(&wide_group)).unwrap_err().contains("group delta exceeds"));
    }

    #[test]
    fn install_bumps_version_and_reports_the_diff() {
        let runtime =
            ConsistencyRuntime::new(vec![rule("/keep", 10), rule("/drop", 10)], None).unwrap();
        assert_eq!(runtime.current().version, 1);

        let report = runtime
            .install(vec![rule("/keep", 10), rule("/grow", 10), rule("/drop2", 10)], None)
            .unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.added, vec!["/grow", "/drop2"]);
        assert!(report.changed.is_empty());
        assert_eq!(report.removed, vec!["/drop"]);
        assert_eq!(runtime.current().version, 2);

        let report = runtime
            .install(vec![rule("/keep", 25), rule("/grow", 10)], None)
            .unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.changed, vec!["/keep"]);
        assert_eq!(report.removed, vec!["/drop2"]);

        // A rejected install leaves the current epoch untouched.
        let err = runtime.install(vec![rule("/x", 0)], None).unwrap_err();
        assert!(err.contains("/x"));
        assert_eq!(runtime.current().version, 3);
        assert!(runtime.contains("/keep"));
        assert!(!runtime.contains("/drop"));
    }

    #[test]
    fn reconcile_preserves_unchanged_paths_and_rebuilds_changed_ones() {
        let (mut core, base) = (Core::default(), Instant::now());
        swap(&mut core, 1, vec![rule("/keep", 10), rule("/change", 10), rule("/drop", 10)], None);

        // Grow every TTR with a few quiet polls, a second apart.
        for round in 1..=4 {
            let polled = poll_due(&mut core, base + StdDuration::from_secs(round), unix_now(), &[]);
            assert_eq!(polled.len(), 3);
        }
        let grown = state(&core, "/keep").limd.current_ttr();
        assert!(grown > Duration::from_millis(10), "TTR must have grown");

        let removed = swap(&mut core, 2, vec![rule("/keep", 10), rule("/change", 25), rule("/new", 10)], None);
        assert_eq!(removed, vec![Arc::from("/drop")]);

        // Unchanged: adaptive state and origin epoch preserved.
        assert_eq!(state(&core, "/keep").limd.current_ttr(), grown);
        assert_eq!(state(&core, "/keep").rule_version, 1);
        assert_eq!(state(&core, "/keep").polls, 4);
        // Changed: rebuilt from the new config.
        assert_eq!(state(&core, "/change").limd.config().delta(), Duration::from_millis(25));
        assert_eq!(state(&core, "/change").rule_version, 2);
        assert_eq!(state(&core, "/change").polls, 0);
        // Added: fresh; removed: gone.
        assert_eq!(state(&core, "/new").rule_version, 2);
        assert_eq!(core.paths().count(), 3);
    }

    #[test]
    fn poll_for_a_removed_path_is_discarded() {
        let mut core = Core::default();
        swap(&mut core, 1, vec![rule("/gone", 10)], None);
        let job = core.next_job(Instant::now()).expect("due at once");
        swap(&mut core, 2, vec![], None);
        // The in-flight poll's outcome arrives after the swap: no panic,
        // no state, no triggers — and the stale heap entry is discarded.
        let done = core.complete(&job, unix_now(), Some(PollResult::NotModified.as_view()), Instant::now());
        assert_eq!((done.coalesced, done.ttr), (0, None));
        assert_eq!(core.paths().count(), 0);
        assert_eq!(core.next_wake(), None);
        assert!(core.next_job(Instant::now() + StdDuration::from_secs(1)).is_none());
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
            polled.iter().map(|(kind, path)| (*kind, path.to_string())).collect()
        };
        let mut core = Core::default();
        swap(&mut core, 1, vec![rule("/a", 10), rule("/b", 10)], group);
        // /a's update finds /b due: one poll serves both. The `304`
        // stretches /b's TTR to 12 ms, the update keeps /a's at 10.
        assert_eq!(poll_due(&mut core, at(0), ts(0), &["/a"]), polls(&[(Scheduled, "/a"), (Scheduled, "/b")]));
        // The next one finds /b polled more than δ ago and not yet due.
        assert_eq!(poll_due(&mut core, at(11), ts(11), &["/a"]), polls(&[(Scheduled, "/a"), (Triggered, "/b")]));

        // Same group, same membership, changed Δ on one path: the
        // coordinator survives, and remembers polling /b within δ.
        swap(&mut core, 2, vec![rule("/a", 25), rule("/b", 10)], group);
        assert_eq!(poll_due(&mut core, at(11), ts(12), &["/a"]), polls(&[(Scheduled, "/a")]));

        // A membership change rebuilds it: it has never seen /a polled.
        swap(&mut core, 3, vec![rule("/a", 25), rule("/c", 10)], group);
        assert_eq!(poll_due(&mut core, at(11), ts(13), &["/c"]), polls(&[(Scheduled, "/c"), (Triggered, "/a")]));
        // Dropping the group removes it: /a, 11 ms on, is left alone.
        swap(&mut core, 4, vec![rule("/a", 25), rule("/c", 10)], None);
        assert_eq!(poll_due(&mut core, at(22), ts(24), &["/c"]), polls(&[(Scheduled, "/c")]));
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
        assert_eq!(metrics.workers(), 1);
        assert_eq!(metrics.polls(), 5);
        assert_eq!(metrics.in_flight(), 0);
        assert_eq!(metrics.errors(), 0);
        assert_eq!(metrics.drift().count, 5);
    }

    #[test]
    fn run_adopts_an_install_made_mid_flight() {
        let runtime = ConsistencyRuntime::new(vec![rule("/old", 1)], None).unwrap();
        let shutdown = AtomicBool::new(false);
        let seen = RwLock::new(Vec::<String>::new());
        let removed = RwLock::new(Vec::<String>::new());
        let adopted = RwLock::new(Vec::<u64>::new());
        runtime.run(
            &shutdown,
            1,
            |_| {
                |_: PollKind, path: &str| {
                    seen.write().push(path.to_owned());
                    let count = seen.read().len();
                    if count == 2 {
                        // Swap mid-run: /old out, /new in — a *direct*
                        // install, no HTTP handler involved.
                        runtime.install(vec![rule("/new", 1)], None).unwrap();
                    }
                    if count >= 5 {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                    Some(PollResult::NotModified)
                }
            },
            |path| removed.write().push(path.to_owned()),
            |version| adopted.write().push(version),
        );
        // The adoption hook fired exactly once, with the new epoch — the
        // proxy's L1 bulk invalidation rides on it.
        assert_eq!(adopted.into_inner(), vec![2]);
        let seen = seen.into_inner();
        assert_eq!(&seen[..2], &["/old", "/old"]);
        // Everything after the swap polls the new path only — including
        // the in-flight poll's outcome being discarded for /old.
        assert!(seen[2..].iter().all(|p| p == "/new"), "{seen:?}");
        // The removal hook fired for the direct install, so eviction
        // side effects don't depend on the HTTP plane.
        assert_eq!(removed.into_inner(), vec!["/old"]);
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
        runtime.run(
            &shutdown,
            4,
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
        assert!(
            max_overlap.load(Ordering::SeqCst) > 1,
            "4 workers against a 3 ms origin must overlap polls"
        );
        let metrics = runtime.refresh_metrics();
        assert_eq!(metrics.workers(), 4);
        assert_eq!(metrics.polls(), total, "every started poll completed and was counted");
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
