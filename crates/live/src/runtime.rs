//! The hot-swappable consistency runtime behind the live proxy's
//! refresh plane.
//!
//! PR 4 extracted the refresher's scheduling state into
//! [`ConsistencyRuntime`], which owns a **versioned rules epoch**
//! ([`RulesEpoch`], an immutable snapshot behind an atomically swapped
//! `Arc`). This PR rebuilds the *execution* side of that plane for
//! throughput. The old loop picked each next path with an O(P) scan
//! over the whole rule map, issued one blocking poll at a time over a
//! single keep-alive connection, and woke every 20 ms even when idle —
//! so scheduled-vs-actual poll drift grew with both catalog size and
//! origin latency. The refresh plane is now three cooperating pieces:
//!
//! * **Due queue** — a binary heap keyed by `(due, path)`, handing out
//!   `Arc<str>` paths so the hot scheduling path allocates nothing.
//!   Reconciles are lazy: stale heap entries (rescheduled, changed, or
//!   removed paths) carry an out-of-date generation stamp and are
//!   discarded when they surface. Pop is O(log P) against the old
//!   O(P) scan, with the exact same `(due, path)` tiebreak order.
//! * **Poll workers** — [`ConsistencyRuntime::run`] spawns M workers
//!   (each given its own poller, i.e. its own origin connection) fed
//!   due paths over a bounded queue, so in-flight polls overlap origin
//!   latency while the scheduler thread keeps reconciling epochs and
//!   applying completions. A path is never handed to two workers at
//!   once, and Mt-triggered polls dedupe per target and ride the same
//!   workers instead of running inline.
//! * **Condvar parking** — the scheduler parks until the next due time,
//!   a worker completion, or [`ConsistencyRuntime::install`] (which
//!   notifies the runtime's wake signal), so an idle refresher burns no
//!   wakeups yet still adopts a fresh epoch immediately.
//!
//! Reconcile semantics are unchanged from PR 4:
//!
//! * **unchanged paths** keep their accumulated adaptive-TTR state (a
//!   grown TTR is exactly the state worth preserving across a reload);
//! * **changed paths** rebuild their [`Limd`] from the new config and
//!   poll immediately;
//! * **removed paths** stop polling, and a poll already in flight when
//!   the swap lands is discarded — it can neither panic the scheduler
//!   nor resurrect the path's (since-evicted) cache entry;
//! * **added paths** start polling immediately on adoption.
//!
//! Every poll records its **drift** — the gap between the scheduled due
//! time and the moment a worker actually started sending — into a
//! fixed-bucket histogram ([`DriftHistogram`]), published with the rest
//! of [`RefreshMetrics`] under the `refresh` section of
//! `GET /admin/stats`. Drift is the measurable form of the fidelity
//! erosion the paper's Δ guarantees suffer when polls fire late.
//!
//! The swap itself ([`ConsistencyRuntime::install`]) validates first
//! (duplicate paths, zero tolerances, inverted TTR bounds — the same
//! validator [`crate::proxy::LiveProxy::start`] uses) and never blocks
//! the reactors: readers clone the `Arc` out from under a briefly-held
//! lock. Nothing about the cache or the connection engine is touched, so
//! a reload keeps every cached object and every established socket.
//!
//! The runtime also publishes a per-path status snapshot
//! ([`ConsistencyRuntime::status`]) after every poll, which is what
//! `GET /admin/rules` serves.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration as StdDuration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::RwLock;

use mutcon_core::error::ConfigError;
use mutcon_core::limd::{Limd, LimdConfig, PollResult};
use mutcon_core::mutual::temporal::MtCoordinator;
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration, Timestamp};

use crate::proxy::{GroupRule, RefreshRule};

/// Current wall-clock time on the millisecond Unix timeline the
/// consistency algorithms run on.
pub(crate) fn unix_now() -> Timestamp {
    // Saturating: a clock jumped before the epoch (bad RTC, aggressive
    // NTP step) reads as 0 instead of panicking the refresher thread.
    Timestamp::from_millis(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_millis() as u64,
    )
}

pub(crate) fn std_duration(d: Duration) -> StdDuration {
    StdDuration::from_millis(d.as_millis())
}

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
    /// Path → index into `rules`, so `rule()` is O(1): the scheduler
    /// reconciles 50k-path catalogs, and a linear lookup would make
    /// that O(P²).
    by_path: HashMap<String, usize>,
}

impl RulesEpoch {
    /// Builds an epoch, indexing the (validated-unique) paths.
    pub fn new(version: u64, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> RulesEpoch {
        let by_path = rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.path.clone(), i))
            .collect();
        RulesEpoch {
            version,
            rules,
            group,
            by_path,
        }
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

/// The full LIMD configuration a refresh rule implies. Rejects (rather
/// than silently clamping) inverted TTR bounds — the admin plane needs
/// the reason, not a guess.
pub(crate) fn limd_config(rule: &RefreshRule) -> Result<LimdConfig, ConfigError> {
    LimdConfig::builder(rule.delta).ttr_max(rule.ttr_max).build()
}

/// Validates a rule set + group the way both [`crate::proxy::LiveProxy::start`]
/// and the `PUT /admin/rules` endpoint require: unique paths that don't
/// shadow control endpoints, per-rule LIMD configs that build cleanly
/// (positive Δ, `ttr_max ≥ Δ`), and a positive group δ.
///
/// # Errors
///
/// Returns a human-readable reason (the PUT endpoint's 400 body).
pub fn validate(rules: &[RefreshRule], group: Option<&GroupRule>) -> Result<(), String> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(rules.len());
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
        limd_config(rule).map_err(|e| format!("rule for {}: {e}", rule.path))?;
    }
    if let Some(group) = group {
        if group.delta.is_zero() {
            return Err("group delta must be positive".to_owned());
        }
    }
    Ok(())
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

/// Whether a poll was LIMD-scheduled or triggered by the Mt coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollKind {
    /// A regular LIMD-scheduled poll.
    Scheduled,
    /// An extra poll the Mt coordinator requested to restore mutual
    /// consistency.
    Triggered,
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

/// Upper bounds (µs) of the fixed drift-histogram buckets; the last
/// bucket is open-ended. Roughly logarithmic from 100 µs to 10 s —
/// fine where a healthy refresh plane lives, coarse where it is
/// already on fire.
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

/// Lock-free fixed-bucket histogram of per-poll drift (scheduled due
/// time vs the instant a worker actually started the poll). Bucket
/// bounds are [`DRIFT_BUCKET_BOUNDS_US`]; the recorded maximum caps the
/// top occupied bucket, so interpolated quantiles stay honest even for
/// the open-ended tail.
#[derive(Debug, Default)]
pub struct DriftHistogram {
    buckets: [AtomicU64; DRIFT_BUCKET_BOUNDS_US.len() + 1],
    max_us: AtomicU64,
}

impl DriftHistogram {
    fn record(&self, drift: StdDuration) {
        let us = drift.as_micros().min(u64::MAX as u128) as u64;
        let at = DRIFT_BUCKET_BOUNDS_US.partition_point(|&bound| us > bound);
        self.buckets[at].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time snapshot with interpolated quantiles.
    pub fn snapshot(&self) -> DriftSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max_us = self.max_us.load(Ordering::Relaxed);
        DriftSnapshot {
            count: counts.iter().sum(),
            p50_ms: quantile_ms(&counts, max_us, 0.50),
            p99_ms: quantile_ms(&counts, max_us, 0.99),
            max_ms: max_us as f64 / 1000.0,
        }
    }
}

/// Linear interpolation within the bucket holding the requested rank;
/// the highest occupied bucket's upper bound is clamped to the recorded
/// maximum (the open-ended tail would otherwise invent drift).
fn quantile_ms(counts: &[u64], max_us: u64, q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let rank = q * total as f64;
    let mut cum = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c as f64;
        if next >= rank {
            let lower = if i == 0 {
                0.0
            } else {
                DRIFT_BUCKET_BOUNDS_US[i - 1] as f64
            };
            let mut upper = if i < DRIFT_BUCKET_BOUNDS_US.len() {
                DRIFT_BUCKET_BOUNDS_US[i] as f64
            } else {
                max_us as f64
            };
            if i == last {
                upper = upper.min(max_us as f64).max(lower);
            }
            let frac = ((rank - cum) / c as f64).clamp(0.0, 1.0);
            return (lower + frac * (upper - lower)) / 1000.0;
        }
        cum = next;
    }
    max_us as f64 / 1000.0
}

/// Interpolated drift quantiles, as served under `refresh.drift` in
/// `GET /admin/stats` (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSnapshot {
    /// Polls recorded.
    pub count: u64,
    /// Median drift, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile drift, milliseconds.
    pub p99_ms: f64,
    /// Worst recorded drift, milliseconds.
    pub max_ms: f64,
}

/// Shared refresh-plane counters, updated by the poll workers and read
/// by the stats plane (and the benchmark) without any lock.
#[derive(Debug, Default)]
pub struct RefreshMetrics {
    workers: AtomicU64,
    in_flight: AtomicU64,
    polls: AtomicU64,
    errors: AtomicU64,
    triggered_coalesced: AtomicU64,
    drift: DriftHistogram,
}

impl RefreshMetrics {
    /// Poll workers the running refresh plane was started with.
    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }

    /// Polls currently on the wire.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Polls started (scheduled and triggered).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Polls that ended in a network error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Mt triggers satisfied by a poll already in flight or queued for
    /// the same target, instead of an extra origin round trip.
    pub fn triggered_coalesced(&self) -> u64 {
        self.triggered_coalesced.load(Ordering::Relaxed)
    }

    /// Drift histogram snapshot (scheduled-due vs actual-send gap).
    pub fn drift(&self) -> DriftSnapshot {
        self.drift.snapshot()
    }

    fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    fn poll_started(&self, drift: StdDuration) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.drift.record(drift);
    }

    fn poll_finished(&self, errored: bool) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if errored {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_triggered_coalesced(&self) {
        self.triggered_coalesced.fetch_add(1, Ordering::Relaxed);
    }
}

/// The scheduler's parking spot. A `notify` that lands between a drain
/// and the following `park` is latched in the flag, so wakeups are
/// never lost to that gap.
#[derive(Debug, Default)]
struct WakeSignal {
    pending: StdMutex<bool>,
    cv: Condvar,
}

impl WakeSignal {
    fn notify(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending = true;
        self.cv.notify_all();
    }

    /// Parks until notified, or until `timeout` elapses (`None` parks
    /// indefinitely — safe only when some future event is guaranteed to
    /// notify: a worker completion, an install, or shutdown's wake).
    fn park(&self, timeout: Option<StdDuration>) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match timeout {
            Some(t) => {
                let deadline = Instant::now() + t;
                while !*pending {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    pending = self
                        .cv
                        .wait_timeout(pending, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
            None => {
                while !*pending {
                    pending = self.cv.wait(pending).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        *pending = false;
    }
}

/// The versioned, hot-swappable rules store plus the refresher's
/// scheduling engine. See the module docs.
#[derive(Debug)]
pub struct ConsistencyRuntime {
    epoch: RwLock<Arc<RulesEpoch>>,
    status: RwLock<Vec<PathStatus>>,
    metrics: RefreshMetrics,
    wake: WakeSignal,
}

impl ConsistencyRuntime {
    /// A runtime whose first epoch (version 1) holds `rules`/`group`.
    ///
    /// # Errors
    ///
    /// Returns the validation reason (see [`validate`]).
    pub fn new(rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Result<Arc<Self>, String> {
        validate(&rules, group.as_ref())?;
        Ok(Arc::new(ConsistencyRuntime {
            epoch: RwLock::new(Arc::new(RulesEpoch::new(1, rules, group))),
            status: RwLock::new(Vec::new()),
            metrics: RefreshMetrics::default(),
            wake: WakeSignal::default(),
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

    /// Wakes a parked [`ConsistencyRuntime::run`] scheduler. Installs
    /// and worker completions call this internally; a shutdown caller
    /// must call it after storing the flag, or the scheduler keeps
    /// parking until its next natural wakeup.
    pub fn wake(&self) {
        self.wake.notify();
    }

    /// Validates and atomically installs a new epoch, then wakes the
    /// scheduler so adoption is immediate. The swap is the whole
    /// reload: no thread restarts, no cache drop, no connection churn.
    ///
    /// # Errors
    ///
    /// Returns the validation reason; the current epoch stays in force.
    pub fn install(
        &self,
        rules: Vec<RefreshRule>,
        group: Option<GroupRule>,
    ) -> Result<InstallReport, String> {
        validate(&rules, group.as_ref())?;
        let mut slot = self.epoch.write();
        let old = Arc::clone(&slot);
        let version = old.version + 1;
        let report = InstallReport {
            version,
            added: rules
                .iter()
                .filter(|r| !old.contains(&r.path))
                .map(|r| r.path.clone())
                .collect(),
            changed: rules
                .iter()
                .filter(|r| old.contains(&r.path) && old.rule(&r.path) != Some(*r))
                .map(|r| r.path.clone())
                .collect(),
            removed: old
                .rules
                .iter()
                .filter(|r| !rules.iter().any(|n| n.path == r.path))
                .map(|r| r.path.clone())
                .collect(),
        };
        *slot = Arc::new(RulesEpoch::new(version, rules, group));
        drop(slot);
        self.wake.notify();
        Ok(report)
    }

    /// The per-path live state last published by the scheduler, sorted
    /// by path. May lag the current epoch by the time it takes the
    /// scheduler to wake and reconcile (one notify, no polling slice).
    pub fn status(&self) -> Vec<PathStatus> {
        self.status.read().clone()
    }

    /// Full status rebuild — reconcile-time only (rule sets change
    /// rarely; polls are the hot path and use [`Self::publish_one`]).
    fn publish(&self, sched: &Scheduler) {
        let mut rows: Vec<PathStatus> = sched
            .scheds
            .iter()
            .map(|(path, s)| status_row(path, s))
            .collect();
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        *self.status.write() = rows;
    }

    /// Upserts (or removes) one path's row in the sorted status vector —
    /// O(log P) per poll instead of rebuilding and re-sorting all P
    /// rows.
    fn publish_one(&self, sched: &Scheduler, path: &str) {
        let mut rows = self.status.write();
        let at = rows.binary_search_by(|r| r.path.as_str().cmp(path));
        match (sched.scheds.get(path), at) {
            (Some(s), Ok(i)) => rows[i] = status_row(path, s),
            (Some(s), Err(i)) => rows.insert(i, status_row(path, s)),
            (None, Ok(i)) => {
                rows.remove(i);
            }
            (None, Err(_)) => {}
        }
    }

    /// The refresh plane: runs until `shutdown`, spawning `workers`
    /// scoped poll workers (each owning the poller `make_poller` builds
    /// for it — in the proxy, a dedicated origin connection) and
    /// feeding them due paths over a bounded queue while this thread
    /// keeps reconciling epochs and applying completions.
    ///
    /// A poller performs the actual origin round trip (and the cache
    /// store, gated on [`ConsistencyRuntime::contains`] so a removed
    /// path's in-flight poll cannot resurrect its entry); returning
    /// `None` marks a network error and backs the path off briefly. A
    /// path is never handed to two workers at once; Mt-triggered polls
    /// dedupe per target and ride the same workers. `on_removed` fires
    /// once per path a swap un-rules, as the scheduler adopts the new
    /// epoch — the proxy evicts the path's cache entry there, so the
    /// eviction happens for *every* install (HTTP PUT, SIGHUP reload,
    /// or a direct [`ConsistencyRuntime::install`] caller), not just
    /// the admin handler's. `on_adopted` fires once per epoch the
    /// scheduler adopts, with the new version — the proxy bumps its
    /// cache generation there, wholesale-invalidating every reactor's
    /// L1 for the same "every install" guarantee.
    ///
    /// Shutdown: store the flag, then call [`ConsistencyRuntime::wake`].
    /// Workers finish the polls already on the wire (their outcomes are
    /// applied, not dropped) and queued-but-unstarted jobs are
    /// discarded.
    pub fn run<P>(
        &self,
        shutdown: &AtomicBool,
        workers: usize,
        mut make_poller: impl FnMut(usize) -> P,
        mut on_removed: impl FnMut(&str),
        mut on_adopted: impl FnMut(u64),
    ) where
        P: FnMut(PollKind, &str) -> Option<PollResult> + Send,
    {
        let workers = workers.max(1);
        self.metrics.set_workers(workers as u64);
        // Twice the worker count keeps every worker busy without
        // hoarding due paths in a queue where their drift only grows.
        let queue = JobQueue::new(workers * 2);
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let mut d = Dispatcher::new(Scheduler::new(self.current(), Instant::now()), &self.metrics);
        self.publish(&d.sched);

        // Adopt any epoch installed since the last look, before
        // dispatching or applying a completion against stale rules.
        macro_rules! sync_epoch {
            () => {{
                let current = self.current();
                if current.version != d.sched.epoch.version {
                    for path in d.sched.reconcile(current, Instant::now()) {
                        on_removed(&path);
                    }
                    on_adopted(d.sched.epoch.version);
                    self.publish(&d.sched);
                }
            }};
        }

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let mut poller = make_poller(worker);
                let queue = &queue;
                let done_tx = done_tx.clone();
                let metrics = &self.metrics;
                let wake = &self.wake;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let drift = Instant::now().saturating_duration_since(job.due);
                        metrics.poll_started(drift);
                        let ts = unix_now();
                        let result = poller(job.kind, &job.path);
                        metrics.poll_finished(result.is_none());
                        let delivered = done_tx
                            .send(Completion {
                                kind: job.kind,
                                path: job.path,
                                ts,
                                result,
                            })
                            .is_ok();
                        wake.notify();
                        if !delivered {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);

            loop {
                sync_epoch!();
                while let Ok(done) = done_rx.try_recv() {
                    // The epoch may have been swapped while this poll
                    // was on the wire; reconcile *before* touching
                    // per-path state so a since-removed path's outcome
                    // is discarded.
                    sync_epoch!();
                    d.complete(&done);
                    self.publish_one(&d.sched, &done.path);
                }
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let wait = match d.dispatch(&queue) {
                    Some(at) => {
                        let now = Instant::now();
                        if at <= now {
                            continue; // became due since dispatch
                        }
                        Some(at - now)
                    }
                    // Only a completion, an install or shutdown can
                    // create work, and each of them notifies.
                    None => None,
                };
                self.wake.park(wait);
            }

            // Unstarted jobs die here; polls already on the wire finish
            // and their outcomes are applied below, so a completed poll
            // is never silently dropped.
            queue.close();
            while let Ok(done) = done_rx.recv() {
                sync_epoch!();
                d.complete(&done);
                self.publish_one(&d.sched, &done.path);
            }
        });
    }
}

fn status_row(path: &str, s: &PathSched) -> PathStatus {
    PathStatus {
        path: path.to_owned(),
        delta: s.limd.config().delta(),
        ttr_max: s.limd.config().ttr_max(),
        ttr: s.limd.current_ttr(),
        last_poll_unix_ms: s.limd.last_poll().map(Timestamp::as_millis),
        polls: s.polls,
        rule_epoch: s.rule_epoch,
    }
}

/// One unit of work handed to a poll worker.
#[derive(Debug)]
struct Job {
    kind: PollKind,
    path: Arc<str>,
    /// When the poll was supposed to start — drift is measured against
    /// this the instant a worker picks the job up.
    due: Instant,
}

/// A finished poll, reported back to the scheduler thread.
#[derive(Debug)]
struct Completion {
    kind: PollKind,
    path: Arc<str>,
    /// Unix timestamp taken just before the poll hit the wire (the
    /// timeline the LIMD/Mt state machines run on).
    ts: Timestamp,
    result: Option<PollResult>,
}

/// Bounded MPMC job queue between the scheduler and the poll workers.
/// `try_push` never blocks (the scheduler must stay responsive);
/// workers block in `pop` until a job or close arrives. Closing drops
/// queued-but-unstarted jobs.
#[derive(Debug)]
struct JobQueue {
    state: StdMutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            state: StdMutex::new((VecDeque::with_capacity(cap.max(1)), false)),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.1 || state.0.len() >= self.cap {
            return Err(job);
        }
        state.0.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.1 {
                return None;
            }
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1 = true;
        state.0.clear();
        self.ready.notify_all();
    }
}

/// The scheduler thread's dispatch state: which paths are on the wire,
/// which Mt triggers are waiting for a worker, and the due-queue
/// scheduler itself. Split from the I/O loop so dedupe/coalescing
/// semantics are unit-testable without threads.
struct Dispatcher<'a> {
    sched: Scheduler,
    /// Paths currently handed to a worker — never dispatch a second
    /// poll for any of these.
    in_flight: HashSet<Arc<str>>,
    /// Mt-triggered targets waiting for queue space, FIFO.
    trig_queue: VecDeque<(Arc<str>, Instant)>,
    /// The set view of `trig_queue`, for O(1) dedupe.
    trig_pending: HashSet<Arc<str>>,
    metrics: &'a RefreshMetrics,
}

impl<'a> Dispatcher<'a> {
    fn new(sched: Scheduler, metrics: &'a RefreshMetrics) -> Dispatcher<'a> {
        Dispatcher {
            sched,
            in_flight: HashSet::new(),
            trig_queue: VecDeque::new(),
            trig_pending: HashSet::new(),
            metrics,
        }
    }

    /// Applies one finished poll to the scheduling state.
    fn complete(&mut self, done: &Completion) {
        self.in_flight.remove(&*done.path);
        match done.kind {
            PollKind::Scheduled => match &done.result {
                Some(result) => {
                    let triggers = self.sched.on_poll(&done.path, done.ts, result);
                    for target in triggers {
                        self.enqueue_trigger(target.as_str());
                    }
                }
                None => self.sched.on_error(&done.path, Instant::now()),
            },
            PollKind::Triggered => {
                // A failed triggered poll is simply dropped: the
                // target's own LIMD schedule still governs it.
                if let Some(result) = &done.result {
                    self.sched
                        .on_triggered(&ObjectId::new(&done.path), done.ts, result);
                }
            }
        }
    }

    /// Queues an Mt-triggered poll for `target`, deduping per target: a
    /// poll already on the wire or already queued satisfies every
    /// trigger that races in behind it.
    fn enqueue_trigger(&mut self, target: &str) {
        if self.in_flight.contains(target) || self.trig_pending.contains(target) {
            self.metrics.note_triggered_coalesced();
            return;
        }
        // Reuse the scheduler's Arc for the path — no allocation, and
        // a target un-ruled since the coordinator learned of it is
        // silently dropped.
        let Some((key, _)) = self.sched.scheds.get_key_value(target) else {
            return;
        };
        let key = Arc::clone(key);
        self.trig_pending.insert(Arc::clone(&key));
        self.trig_queue.push_back((key, Instant::now()));
    }

    /// Hands every dispatchable poll to the workers: queued triggers
    /// first (they exist to restore mutual consistency *now*), then
    /// every due scheduled path. Returns when the caller must dispatch
    /// again unprompted; `None` means park until woken. A full queue
    /// owes a completion, which wakes the caller, so anything sooner is
    /// a spin. An entry deferred behind its own in-flight poll is owed
    /// one too, but must not hide the other paths' due times: one hung
    /// origin path would stall the whole fleet for the poll client's
    /// timeout.
    fn dispatch(&mut self, queue: &JobQueue) -> Option<Instant> {
        let mut queue_full = false;
        while let Some((path, due)) = self.trig_queue.pop_front() {
            if !self.sched.epoch.contains(&path) {
                self.trig_pending.remove(&path);
                continue; // target un-ruled since the trigger fired
            }
            if self.in_flight.contains(&path) {
                // A poll for the target went on the wire after this
                // trigger was queued; it satisfies the trigger.
                self.trig_pending.remove(&path);
                self.metrics.note_triggered_coalesced();
                continue;
            }
            let job = Job {
                kind: PollKind::Triggered,
                path: Arc::clone(&path),
                due,
            };
            match queue.try_push(job) {
                Ok(()) => {
                    self.trig_pending.remove(&path);
                    self.in_flight.insert(path);
                }
                Err(_) => {
                    self.trig_queue.push_front((path, due));
                    queue_full = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut deferred: Vec<DueEntry> = Vec::new();
        while let Some(entry) = self.sched.pop_due(now) {
            if self.in_flight.contains(&entry.path) {
                // Still on the wire (a slow origin outlasted the TTR,
                // or a triggered poll covers it): park this entry
                // behind the completion, which re-evaluates it.
                deferred.push(entry);
                continue;
            }
            let job = Job {
                kind: PollKind::Scheduled,
                path: Arc::clone(&entry.path),
                due: entry.due,
            };
            match queue.try_push(job) {
                Ok(()) => {
                    self.in_flight.insert(Arc::clone(&entry.path));
                }
                Err(_) => {
                    deferred.push(entry);
                    queue_full = true;
                    break;
                }
            }
        }
        // Read before the deferred entries go back: they are due in the
        // past and would make the caller spin.
        let next = if queue_full {
            None
        } else {
            self.sched.next_due_at()
        };
        for entry in deferred {
            self.sched.requeue(entry);
        }
        next
    }
}

/// One path's scheduling state.
#[derive(Debug)]
struct PathSched {
    limd: Limd,
    due: Instant,
    /// Generation of this path's live due-queue entry; heap entries
    /// with any other stamp are stale and discarded when they surface.
    gen: u64,
    polls: u64,
    rule_epoch: u64,
}

/// One due-queue entry. Ordered so [`BinaryHeap`] (a max-heap) surfaces
/// the *earliest* `(due, path)` first — the exact tiebreak order the
/// old O(P) scan used, which the 10k-path parity test pins down.
#[derive(Debug, Clone)]
struct DueEntry {
    due: Instant,
    path: Arc<str>,
    gen: u64,
}

impl PartialEq for DueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for DueEntry {}

impl PartialOrd for DueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for DueEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.path.cmp(&self.path))
            .then_with(|| other.gen.cmp(&self.gen))
    }
}

/// The refresher's scheduling engine, owned by the scheduler thread and
/// reconciled against the shared epoch. Separated from the I/O loop so
/// epoch semantics are unit-testable without sockets or sleeps.
///
/// The due queue is a binary heap with **lazy invalidation**: a
/// reschedule pushes a fresh entry with a bumped generation instead of
/// finding and fixing the old one; stale entries are discarded as they
/// reach the top. Pop and peek are amortised O(log P), and popped
/// entries hand out `Arc<str>` — the hot scheduling path allocates
/// nothing.
#[derive(Debug)]
struct Scheduler {
    epoch: Arc<RulesEpoch>,
    scheds: HashMap<Arc<str>, PathSched>,
    due_queue: BinaryHeap<DueEntry>,
    next_gen: u64,
    coordinator: Option<MtCoordinator>,
}

impl Scheduler {
    fn new(epoch: Arc<RulesEpoch>, now: Instant) -> Scheduler {
        let mut sched = Scheduler {
            epoch: Arc::new(RulesEpoch::new(0, Vec::new(), None)),
            scheds: HashMap::new(),
            due_queue: BinaryHeap::new(),
            next_gen: 0,
            coordinator: None,
        };
        sched.reconcile(epoch, now);
        sched
    }

    /// Adopts a new epoch: unchanged paths keep their state, changed
    /// paths rebuild from the new config (due immediately), removed
    /// paths stop polling, added paths are due immediately. The Mt
    /// coordinator survives only if both the group rule and the
    /// membership are unchanged (its per-member rate estimators remain
    /// valid then, and only then). Returns the paths that stopped being
    /// ruled, for the caller's `on_removed` side effects.
    ///
    /// Heap entries for removed/changed paths are left behind and
    /// invalidated by generation; O(changed) work here, not O(heap).
    fn reconcile(&mut self, new: Arc<RulesEpoch>, now: Instant) -> Vec<Arc<str>> {
        if new.version == self.epoch.version {
            return Vec::new();
        }
        let mut next: HashMap<Arc<str>, PathSched> = HashMap::with_capacity(new.rules.len());
        let mut fresh: Vec<Arc<str>> = Vec::new();
        for rule in &new.rules {
            let unchanged = self.epoch.rule(&rule.path) == Some(rule);
            match self.scheds.remove_entry(rule.path.as_str()) {
                Some((key, existing)) if unchanged => {
                    next.insert(key, existing);
                }
                prior => {
                    let key: Arc<str> = prior
                        .map(|(key, _)| key)
                        .unwrap_or_else(|| Arc::from(rule.path.as_str()));
                    next.insert(
                        Arc::clone(&key),
                        PathSched {
                            limd: Limd::new(limd_config(rule).expect("epoch validated on install")),
                            due: now,
                            gen: 0,
                            polls: 0,
                            rule_epoch: new.version,
                        },
                    );
                    fresh.push(key);
                }
            }
        }
        // Whatever the keep/rebuild loop did not claim has no rule in
        // the new epoch.
        let mut removed: Vec<Arc<str>> = self.scheds.drain().map(|(path, _)| path).collect();
        removed.sort();
        let members_changed = new.rules.len() != self.epoch.rules.len()
            || new.rules.iter().any(|r| !self.epoch.contains(&r.path));
        if new.group != self.epoch.group || members_changed {
            self.coordinator = new.group.map(|g| {
                MtCoordinator::new(g.delta, g.policy, new.rules.iter().map(|r| ObjectId::new(&r.path)))
            });
        }
        self.scheds = next;
        self.epoch = new;
        for path in fresh {
            self.reschedule(&path, now);
        }
        removed
    }

    /// Moves `path`'s next scheduled poll to `due`: bumps its
    /// generation (invalidating any older heap entry) and pushes a
    /// fresh one. No-op for unruled paths.
    fn reschedule(&mut self, path: &str, due: Instant) {
        let Some((key, _)) = self.scheds.get_key_value(path) else {
            return;
        };
        let key = Arc::clone(key);
        self.next_gen += 1;
        let gen = self.next_gen;
        let sched = self.scheds.get_mut(path).expect("key just seen");
        sched.due = due;
        sched.gen = gen;
        self.due_queue.push(DueEntry { due, path: key, gen });
    }

    /// Puts a still-valid popped entry back (dispatch deferred it).
    fn requeue(&mut self, entry: DueEntry) {
        self.due_queue.push(entry);
    }

    /// When the earliest live entry is due, discarding stale tops.
    fn next_due_at(&mut self) -> Option<Instant> {
        loop {
            let entry = self.due_queue.peek()?;
            if self
                .scheds
                .get(&*entry.path)
                .is_some_and(|s| s.gen == entry.gen)
            {
                return Some(entry.due);
            }
            self.due_queue.pop();
        }
    }

    /// Pops the earliest live entry if it is due by `now`; `(due,
    /// path)` order, stale entries discarded along the way.
    fn pop_due(&mut self, now: Instant) -> Option<DueEntry> {
        loop {
            let head = self.due_queue.peek()?;
            if head.due > now {
                return None;
            }
            let entry = self.due_queue.pop().expect("peeked just above");
            if self
                .scheds
                .get(&*entry.path)
                .is_some_and(|s| s.gen == entry.gen)
            {
                return Some(entry);
            }
        }
    }

    /// Feeds a scheduled poll's outcome; returns the Mt-triggered
    /// targets. A path removed while its poll was in flight is a no-op.
    fn on_poll(&mut self, path: &str, now_ts: Timestamp, result: &PollResult) -> Vec<ObjectId> {
        let Some(sched) = self.scheds.get_mut(path) else {
            return Vec::new(); // rule removed mid-poll: outcome discarded
        };
        let decision = sched.limd.on_poll(now_ts, result);
        sched.polls += 1;
        self.reschedule(path, Instant::now() + std_duration(decision.ttr));
        match self.coordinator.as_mut() {
            Some(coord) => {
                let id = ObjectId::new(path);
                let triggers = coord.on_poll(&id, now_ts, result);
                coord.record_scheduled_poll(&id, now_ts + decision.ttr);
                triggers
            }
            None => Vec::new(),
        }
    }

    /// Feeds a triggered poll's outcome to the coordinator.
    fn on_triggered(&mut self, target: &ObjectId, now_ts: Timestamp, result: &PollResult) {
        if let Some(coord) = self.coordinator.as_mut() {
            coord.on_poll(target, now_ts, result);
        }
    }

    /// Backs a path off after a network error; the rule's Δ governs how
    /// aggressive a retry is sensible.
    fn on_error(&mut self, path: &str, now: Instant) {
        if let Some(sched) = self.scheds.get(path) {
            let retry = std_duration(sched.limd.config().delta().min(Duration::from_millis(200)));
            self.reschedule(path, now + retry.max(StdDuration::from_millis(20)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::mutual::temporal::MtPolicy;
    use std::sync::atomic::AtomicU64;

    fn rule(path: &str, delta_ms: u64) -> RefreshRule {
        RefreshRule::new(path, Duration::from_millis(delta_ms))
    }

    fn epoch(version: u64, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Arc<RulesEpoch> {
        Arc::new(RulesEpoch::new(version, rules, group))
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
        let now = Instant::now();
        let mut sched = Scheduler::new(
            epoch(1, vec![rule("/keep", 10), rule("/change", 10), rule("/drop", 10)], None),
            now,
        );

        // Grow /keep's TTR with a few quiet polls.
        let mut ts = unix_now();
        for _ in 0..4 {
            ts += Duration::from_millis(50);
            sched.on_poll("/keep", ts, &PollResult::NotModified);
        }
        let grown = sched.scheds["/keep"].limd.current_ttr();
        assert!(grown > Duration::from_millis(10), "TTR must have grown");

        sched.reconcile(
            epoch(2, vec![rule("/keep", 10), rule("/change", 25), rule("/new", 10)], None),
            Instant::now(),
        );

        // Unchanged: adaptive state and origin epoch preserved.
        assert_eq!(sched.scheds["/keep"].limd.current_ttr(), grown);
        assert_eq!(sched.scheds["/keep"].rule_epoch, 1);
        assert_eq!(sched.scheds["/keep"].polls, 4);
        // Changed: rebuilt from the new config.
        assert_eq!(
            sched.scheds["/change"].limd.config().delta(),
            Duration::from_millis(25)
        );
        assert_eq!(sched.scheds["/change"].rule_epoch, 2);
        assert_eq!(sched.scheds["/change"].polls, 0);
        // Added: fresh; removed: gone.
        assert_eq!(sched.scheds["/new"].rule_epoch, 2);
        assert!(!sched.scheds.contains_key("/drop"));
        assert_eq!(sched.scheds.len(), 3);
    }

    #[test]
    fn poll_for_a_removed_path_is_discarded() {
        let now = Instant::now();
        let mut sched = Scheduler::new(epoch(1, vec![rule("/gone", 10)], None), now);
        sched.reconcile(epoch(2, vec![], None), now);
        // The in-flight poll's outcome arrives after the swap: no panic,
        // no state, no triggers — and the stale heap entry is discarded.
        let triggers = sched.on_poll("/gone", unix_now(), &PollResult::NotModified);
        assert!(triggers.is_empty());
        assert!(sched.scheds.is_empty());
        assert_eq!(sched.next_due_at(), None);
        assert!(sched.pop_due(Instant::now() + StdDuration::from_secs(1)).is_none());
    }

    #[test]
    fn group_coordinator_triggers_and_survives_only_compatible_swaps() {
        let group = GroupRule {
            delta: Duration::from_millis(100),
            policy: MtPolicy::TriggeredPolls,
        };
        let now = Instant::now();
        let mut sched = Scheduler::new(
            epoch(1, vec![rule("/a", 10), rule("/b", 10)], Some(group)),
            now,
        );
        let ts = unix_now();
        let triggers = sched.on_poll("/a", ts, &PollResult::modified(ts - Duration::from_millis(5)));
        assert_eq!(triggers, vec![ObjectId::new("/b")]);
        sched.on_triggered(&ObjectId::new("/b"), ts + Duration::from_millis(1), &PollResult::NotModified);

        // Same group, same membership, changed Δ on one path: the
        // coordinator (with its rate estimators) survives.
        let coord_before = format!("{:?}", sched.coordinator);
        sched.reconcile(
            epoch(2, vec![rule("/a", 25), rule("/b", 10)], Some(group)),
            Instant::now(),
        );
        assert_eq!(format!("{:?}", sched.coordinator), coord_before);

        // Membership change rebuilds it; dropping the group removes it.
        sched.reconcile(
            epoch(3, vec![rule("/a", 25), rule("/c", 10)], Some(group)),
            Instant::now(),
        );
        assert_ne!(format!("{:?}", sched.coordinator), coord_before);
        sched.reconcile(epoch(4, vec![rule("/a", 25)], None), Instant::now());
        assert!(sched.coordinator.is_none());
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
    fn due_queue_matches_the_linear_scan_order_at_10k_paths() {
        // Insertion order is a permutation (7 is coprime with 10k), so
        // nothing about the heap order can ride on insertion order.
        let paths: Vec<String> = (0..10_000u64).map(|i| format!("/obj/{:05}", i * 7 % 10_000)).collect();
        let now = Instant::now();
        let mut sched = Scheduler::new(
            epoch(1, paths.iter().map(|p| rule(p, 10)).collect(), None),
            now,
        );
        // Re-stamp every path with a clustered pseudo-random due — ~20
        // paths share each of 500 distinct µs stamps, so the (due, path)
        // tiebreak is exercised hard, and each reschedule leaves a stale
        // entry (the reconcile-time one) behind for lazy invalidation.
        for (i, path) in paths.iter().enumerate() {
            let due = now + StdDuration::from_micros((i as u64).wrapping_mul(2_654_435_761) % 500);
            sched.reschedule(path, due);
        }
        // Oracle: exactly what the old O(P) full-map scan returned —
        // min by (due, path).
        let mut expected: Vec<(Instant, String)> = sched
            .scheds
            .iter()
            .map(|(p, s)| (s.due, p.to_string()))
            .collect();
        expected.sort();
        let horizon = now + StdDuration::from_secs(5);
        let mut order: Vec<(Instant, String)> = Vec::with_capacity(expected.len());
        while let Some(entry) = sched.pop_due(horizon) {
            order.push((entry.due, entry.path.to_string()));
        }
        assert_eq!(order.len(), 10_000, "each path pops exactly once");
        assert_eq!(order, expected);
    }

    #[test]
    fn due_queue_stays_consistent_under_reconcile_churn() {
        let all: Vec<String> = (0..2_000).map(|i| format!("/p/{i:04}")).collect();
        let mut sched = Scheduler::new(
            epoch(1, all.iter().map(|p| rule(p, 10)).collect(), None),
            Instant::now(),
        );
        let mut drained: HashSet<String> = HashSet::new();
        for round in 2..6u64 {
            // Each round keeps a shifting half of the catalog, changes
            // every third survivor's Δ, and drops the rest.
            let rules: Vec<RefreshRule> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64 + round) % 2 == 0)
                .map(|(i, p)| rule(p, if i % 3 == 0 { 10 + round } else { 10 }))
                .collect();
            let live: HashSet<String> = rules.iter().map(|r| r.path.clone()).collect();
            let removed = sched.reconcile(epoch(round, rules, None), Instant::now());
            for gone in &removed {
                assert!(!live.contains(&**gone), "{gone} reported removed but still ruled");
            }
            // Drain: every live path exactly once, no ghosts from the
            // stale entries the previous rounds left in the heap.
            let horizon = Instant::now() + StdDuration::from_secs(5);
            drained.clear();
            while let Some(entry) = sched.pop_due(horizon) {
                assert!(drained.insert(entry.path.to_string()), "double pop of {}", entry.path);
            }
            assert_eq!(drained, live, "round {round} drained set != ruled set");
            // Put everything back on the schedule for the next round.
            for path in &drained {
                sched.reschedule(path, Instant::now());
            }
        }
    }

    #[test]
    fn drift_histogram_interpolates_quantiles_and_caps_the_tail() {
        let h = DriftHistogram::default();
        assert_eq!(h.snapshot().count, 0);
        for ms in 1..=100u64 {
            h.record(StdDuration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert!((snap.max_ms - 100.0).abs() < 1e-9, "max {}", snap.max_ms);
        assert!((40.0..=60.0).contains(&snap.p50_ms), "p50 {}", snap.p50_ms);
        // The ramp's true p99 is 99 ms; interpolation against the
        // max-capped top bucket must land close, not at a bucket edge.
        assert!((90.0..=100.0).contains(&snap.p99_ms), "p99 {}", snap.p99_ms);
        assert!(snap.p50_ms <= snap.p99_ms && snap.p99_ms <= snap.max_ms);
    }

    #[test]
    fn job_queue_bounds_pushes_and_close_wakes_poppers() {
        let job = |p: &str| Job {
            kind: PollKind::Scheduled,
            path: Arc::from(p),
            due: Instant::now(),
        };
        let q = JobQueue::new(2);
        assert!(q.try_push(job("/a")).is_ok());
        assert!(q.try_push(job("/b")).is_ok());
        assert!(q.try_push(job("/c")).is_err(), "cap 2 rejects the third job");
        assert_eq!(&*q.pop().unwrap().path, "/a");
        std::thread::scope(|scope| {
            let popper = scope.spawn(|| {
                let first = q.pop().map(|j| j.path.to_string());
                // The second pop blocks on an empty queue until close.
                (first, q.pop().is_none())
            });
            std::thread::sleep(StdDuration::from_millis(20));
            q.close();
            let (first, closed) = popper.join().unwrap();
            assert_eq!(first.as_deref(), Some("/b"));
            assert!(closed, "close must wake and release a blocked pop");
        });
        assert!(q.try_push(job("/d")).is_err(), "closed queue rejects pushes");
        assert!(q.pop().is_none());
    }

    #[test]
    fn dispatcher_dedupes_triggered_polls_per_target() {
        let metrics = RefreshMetrics::default();
        let mut d = Dispatcher::new(
            Scheduler::new(epoch(1, vec![rule("/a", 10), rule("/b", 10)], None), Instant::now()),
            &metrics,
        );
        d.enqueue_trigger("/b");
        d.enqueue_trigger("/b"); // already queued: coalesced
        assert_eq!(metrics.triggered_coalesced(), 1);
        assert_eq!(d.trig_queue.len(), 1);
        d.in_flight.insert(Arc::from("/a"));
        d.enqueue_trigger("/a"); // already on the wire: coalesced
        assert_eq!(metrics.triggered_coalesced(), 2);
        d.enqueue_trigger("/zzz"); // un-ruled target: dropped, not counted
        assert_eq!(metrics.triggered_coalesced(), 2);
        assert_eq!(d.trig_queue.len(), 1);

        // Dispatch hands the trigger to a worker ahead of scheduled
        // work, and an in-flight path defers rather than double-polls.
        let q = JobQueue::new(8);
        let next = d.dispatch(&q);
        let first = q.pop().unwrap();
        assert_eq!(first.kind, PollKind::Triggered);
        assert_eq!(&*first.path, "/b");
        // /a (in flight) and /b (just dispatched) both deferred their
        // scheduled due entries, and nothing else is scheduled: only a
        // completion can create work.
        assert_eq!(next, None);
    }

    /// A due entry deferred behind its own in-flight poll must not hide
    /// when the other paths are due.
    #[test]
    fn dispatcher_wakes_for_the_next_free_path_behind_a_deferred_one() {
        let metrics = RefreshMetrics::default();
        let q = JobQueue::new(8);
        let start = Instant::now();
        let mut d = Dispatcher::new(
            Scheduler::new(epoch(1, vec![rule("/free", 10), rule("/held", 10)], None), start),
            &metrics,
        );
        assert_eq!(d.dispatch(&q), None, "both on the wire, nothing scheduled");
        // /free completes and is rescheduled one TTR out; /held stays on
        // the wire while a rule swap marks it due immediately.
        d.complete(&Completion {
            kind: PollKind::Scheduled,
            path: Arc::from("/free"),
            ts: unix_now(),
            result: Some(PollResult::NotModified),
        });
        d.sched.reschedule("/held", start);
        let free_due = d.sched.scheds["/free"].due;
        assert!(free_due > start);

        assert_eq!(d.dispatch(&q), Some(free_due));
        // The deferred entry is kept for /held's completion to re-evaluate.
        assert_eq!(d.sched.next_due_at(), Some(start));
        assert_eq!(d.in_flight.len(), 1);
    }

    #[test]
    fn dispatcher_never_double_polls_and_respects_queue_capacity() {
        let metrics = RefreshMetrics::default();
        let q = JobQueue::new(1);
        let mut d = Dispatcher::new(
            Scheduler::new(epoch(1, vec![rule("/a", 10), rule("/b", 10)], None), Instant::now()),
            &metrics,
        );
        // Cap 1: only /a (path tiebreak) fits; /b defers behind the full
        // queue, whose completion will wake the scheduler.
        assert_eq!(d.dispatch(&q), None);
        assert_eq!(d.in_flight.len(), 1);
        assert!(d.in_flight.contains("/a"));
        let job = q.pop().unwrap();
        assert_eq!((&*job.path, job.kind), ("/a", PollKind::Scheduled));

        // Queue drained (but /a still on the wire): /b dispatches, /a
        // must not be handed out a second time.
        d.dispatch(&q);
        assert_eq!(&*q.pop().unwrap().path, "/b");
        assert_eq!(d.in_flight.len(), 2);

        // Nothing due and both in flight: a no-op, no spin demanded.
        assert_eq!(d.dispatch(&q), None);

        // /a's completion clears it for future dispatch and reschedules
        // it one TTR out.
        d.complete(&Completion {
            kind: PollKind::Scheduled,
            path: Arc::from("/a"),
            ts: unix_now(),
            result: Some(PollResult::NotModified),
        });
        assert!(!d.in_flight.contains("/a"));
        assert!(d.sched.next_due_at().is_some());
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
