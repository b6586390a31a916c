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
//! **The state machine.** [`Scheduler`] holds per-path [`Limd`] state, a
//! binary-heap due queue keyed by `(due, path)` and the Mt coordinator;
//! [`Dispatcher`] adds the in-flight guard and the queue of Mt-triggered
//! polls. Together they are pure: every method takes `now` and neither
//! reads a clock, so tests step them through simulated time. Inputs are
//! `next_job`, `complete`, `reconcile` and `enqueue_trigger`; the output
//! is a [`Job`] to poll, or the instant to wake at when nothing is
//! ready. Triggered polls go out before scheduled ones, a path never has
//! two polls on the wire, and a trigger whose target is on the wire,
//! queued or itself due is coalesced into that poll. The heap is lazily
//! invalidated: a reschedule pushes a fresh entry under a bumped
//! generation and stale ones are dropped as they surface, so pop is
//! O(log P) and hands out `Arc<str>` paths without allocating.
//!
//! A swap is adopted by [`Scheduler::reconcile`]: **unchanged paths**
//! keep their accumulated adaptive TTR (exactly the state worth
//! preserving across a reload); **changed** and **added paths** start
//! from a fresh [`Limd`] and poll immediately; **removed paths** stop,
//! and the outcome of a poll still on the wire for one is discarded —
//! it can neither panic the plane nor resurrect the path.
//!
//! **One lock, M workers.** [`ConsistencyRuntime::run`] starts `workers`
//! threads and nothing else. The machine sits behind one mutex; each
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration as StdDuration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::RwLock;

use mutcon_core::error::ConfigError;
use mutcon_core::limd::{Limd, LimdConfig, PollResult};
use mutcon_core::mutual::temporal::MtCoordinator;
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration, Timestamp};

pub use crate::metrics::HistogramSnapshot as DriftSnapshot;
use crate::metrics::{metrics, Counter, Gauge, Histogram};
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
/// The default is the empty epoch 0, below any installed version.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Ceiling on Δ and on the group δ: a year. Nothing is usefully cached
/// against a looser bound, and with `ttr_max` held to 64 times it (the
/// default multiple) every `timestamp + TTR` on the millisecond timeline
/// stays far from `u64` overflow.
pub const MAX_DELTA: Duration = Duration::from_hours(365 * 24);

/// Validates a rule set + group the way both [`crate::proxy::LiveProxy::start`]
/// and the `PUT /admin/rules` endpoint require: unique paths that don't
/// shadow control endpoints, tolerances within [`MAX_DELTA`], per-rule
/// LIMD configs that build cleanly (positive Δ, `ttr_max ≥ Δ`), and a
/// positive group δ.
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
        if rule.delta > MAX_DELTA {
            return Err(format!("rule for {}: delta exceeds {MAX_DELTA}", rule.path));
        }
        if rule.ttr_max > MAX_DELTA * 64 {
            return Err(format!("rule for {}: ttr_max exceeds {}", rule.path, MAX_DELTA * 64));
        }
        limd_config(rule).map_err(|e| format!("rule for {}: {e}", rule.path))?;
    }
    if let Some(group) = group {
        if group.delta.is_zero() {
            return Err("group delta must be positive".to_owned());
        }
        if group.delta > MAX_DELTA {
            return Err(format!("group delta exceeds {MAX_DELTA}"));
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
        /// Polls that ended in a network error.
        errors: Counter => "refresh.errors";
        /// Mt triggers satisfied by a poll already in flight or queued for
        /// the same target, instead of an extra origin round trip.
        triggered_coalesced: Counter => "refresh.triggered_coalesced";
        /// Per-poll drift: scheduled due time against the instant a worker
        /// actually started the poll.
        drift: Histogram = Histogram::new(&DRIFT_BUCKET_BOUNDS_US) => "refresh.drift";
    }
}

/// The versioned, hot-swappable rules store plus the refresh plane's
/// state machine and the lock its workers share. See the module docs.
#[derive(Debug)]
pub struct ConsistencyRuntime {
    epoch: RwLock<Arc<RulesEpoch>>,
    metrics: RefreshMetrics,
    /// The whole refresh state machine. Empty (epoch 0) until
    /// [`ConsistencyRuntime::run`] adopts the first epoch.
    core: StdMutex<Dispatcher>,
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
        validate(&rules, group.as_ref())?;
        Ok(Arc::new(ConsistencyRuntime {
            epoch: RwLock::new(Arc::new(RulesEpoch::new(1, rules, group))),
            metrics: RefreshMetrics::default(),
            core: StdMutex::new(Dispatcher::default()),
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

    fn lock(&self) -> MutexGuard<'_, Dispatcher> {
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
        self.wake();
        Ok(report)
    }

    /// Every adopted path's live state, sorted by path, read from the
    /// scheduler itself. Trails [`ConsistencyRuntime::current`] only by
    /// the time a worker takes to wake and adopt an install.
    pub fn status(&self) -> Vec<PathStatus> {
        let mut rows: Vec<PathStatus> = self
            .lock()
            .sched
            .scheds
            .iter()
            .map(|(path, s)| PathStatus {
                path: path.to_string(),
                delta: s.limd.config().delta(),
                ttr_max: s.limd.config().ttr_max(),
                ttr: s.limd.current_ttr(),
                last_poll_unix_ms: s.limd.last_poll().map(Timestamp::as_millis),
                polls: s.polls,
                rule_epoch: s.rule_epoch,
            })
            .collect();
        // Sorted after the guard is gone: workers do not wait on it.
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows
    }

    /// The refresh plane: runs until `shutdown` on exactly `workers`
    /// scoped threads, each owning the poller `make_poller` builds for
    /// it (in the proxy, a dedicated origin connection). The module
    /// docs describe the loop, who waits on what, and shutdown.
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
        self.lock().sched.reconcile(self.current(), Instant::now());

        // Whichever worker adopts a swap needs the `FnMut` hooks by
        // `&mut`. Only taken with the core lock held: never contended.
        let hooks = StdMutex::new((on_removed, on_adopted));
        // Adopts any epoch installed since the last look, so that no job
        // is handed out and no completion applied against stale rules.
        let adopt = |core: &mut Dispatcher| {
            let current = self.current();
            if current.version == core.sched.epoch.version {
                return;
            }
            let mut hooks = hooks.lock().unwrap_or_else(PoisonError::into_inner);
            let (on_removed, on_adopted) = &mut *hooks;
            for path in core.sched.reconcile(current, Instant::now()) {
                on_removed(&path);
            }
            on_adopted(core.sched.epoch.version);
        };

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let mut poller = make_poller(worker);
                let adopt = &adopt;
                scope.spawn(move || {
                    let mut core = self.lock();
                    loop {
                        adopt(&mut core);
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Some(job) = core.next_job(Instant::now()) else {
                            // With nothing scheduled, forever: only a
                            // completion (whose worker then looks for
                            // work itself), an install or shutdown (which
                            // notify) can create work.
                            let left = core.next_wake().map_or(StdDuration::MAX, |at| {
                                at.saturating_duration_since(Instant::now())
                            });
                            let waited = self.work.wait_timeout(core, left);
                            core = waited.unwrap_or_else(PoisonError::into_inner).0;
                            continue;
                        };
                        // While this worker is on the wire somebody else
                        // has to watch the next due instant.
                        self.work.notify_one();
                        drop(core);

                        self.metrics.polls.inc();
                        self.metrics.in_flight.inc();
                        self.metrics.drift.record(Instant::now().saturating_duration_since(job.due));
                        // The timeline the LIMD/Mt state machines run
                        // on: taken just before the poll hits the wire.
                        let ts = unix_now();
                        let result = poller(job.kind, &job.path);
                        self.metrics.in_flight.dec();
                        self.metrics.errors.add(u64::from(result.is_none()));

                        core = self.lock();
                        // A swap may have landed meanwhile: adopt it
                        // first, so that a since-removed path's outcome
                        // is discarded.
                        adopt(&mut core);
                        let coalesced = core.complete(&job, ts, result.as_ref(), Instant::now());
                        self.metrics.triggered_coalesced.add(coalesced);
                    }
                    drop(core);
                    // A poller may store the flag without a `wake`:
                    // take the idle workers along.
                    self.work.notify_all();
                });
            }
        });
    }
}

/// One poll handed to a worker.
#[derive(Debug)]
struct Job {
    kind: PollKind,
    path: Arc<str>,
    /// When the poll was supposed to start; drift is measured from it.
    due: Instant,
}

/// The state machine the workers share: the scheduler, which paths are
/// on the wire and which Mt triggers wait for a worker. Clock-free.
#[derive(Debug, Default)]
struct Dispatcher {
    sched: Scheduler,
    /// Paths on the wire — never handed out a second time — each with
    /// the due entry that surfaced for it meanwhile, if one did. Kept
    /// off the heap until the poll completes, so a hung origin path
    /// hides nobody else's due time.
    in_flight: HashMap<Arc<str>, Option<DueEntry>>,
    /// Mt-triggered targets waiting for a worker, FIFO, each with the
    /// instant it was asked for.
    trig_queue: VecDeque<(Arc<str>, Instant)>,
    /// The set view of `trig_queue`, for O(1) dedupe.
    trig_pending: HashSet<Arc<str>>,
}

impl Dispatcher {
    /// The next poll to put on the wire at `now`, marked in flight:
    /// queued triggers first (they restore mutual consistency *now*),
    /// then the earliest due scheduled path that is free.
    fn next_job(&mut self, now: Instant) -> Option<Job> {
        // Nothing scheduled is handed out while a trigger waits, so a
        // queued target (free when it was queued) is still free here.
        while let Some((path, due)) = self.trig_queue.pop_front() {
            self.trig_pending.remove(&path);
            if !self.sched.scheds.contains_key(&path) {
                continue; // target un-ruled since the trigger fired
            }
            self.in_flight.insert(Arc::clone(&path), None);
            return Some(Job {
                kind: PollKind::Triggered,
                path,
                due,
            });
        }
        while let Some(entry) = self.sched.pop_due(now) {
            if let Some(deferred) = self.in_flight.get_mut(&entry.path) {
                // Still on the wire (a slow origin outlasted the TTR, a
                // triggered poll covers it, or a swap made it due
                // again): the completion re-evaluates this entry.
                *deferred = Some(entry);
                continue;
            }
            self.in_flight.insert(Arc::clone(&entry.path), None);
            return Some(Job {
                kind: PollKind::Scheduled,
                path: entry.path,
                due: entry.due,
            });
        }
        None
    }

    /// When to call [`Dispatcher::next_job`] again after it returned
    /// `None`: the earliest due time still on the heap, which is never
    /// later than the earliest free path's. `None` means only a
    /// completion or a reconcile can create work.
    fn next_wake(&mut self) -> Option<Instant> {
        self.sched.next_due_at()
    }

    /// Applies the outcome of `job`, sent at `ts` and finished at `now`
    /// (`None` is a network error). Returns how many of the Mt triggers
    /// it raised were coalesced into polls already queued or in flight.
    fn complete(
        &mut self,
        job: &Job,
        ts: Timestamp,
        result: Option<&PollResult>,
        now: Instant,
    ) -> u64 {
        if let Some(Some(deferred)) = self.in_flight.remove(&job.path) {
            // Back first: a reschedule below outdates it, a triggered
            // poll's completion leaves it to fire.
            self.sched.due_queue.push(Reverse(deferred));
        }
        let mut coalesced = 0;
        match (job.kind, result) {
            (PollKind::Scheduled, Some(result)) => {
                for target in self.sched.on_poll(&job.path, ts, result, now) {
                    coalesced += u64::from(self.enqueue_trigger(target.as_str(), now));
                }
            }
            (PollKind::Scheduled, None) => self.sched.on_error(&job.path, now),
            // A triggered poll informs the coordinator alone (a failed
            // one nobody): the target's own LIMD schedule still governs it.
            (PollKind::Triggered, result) => {
                if let (Some(coord), Some(result)) = (self.sched.coordinator.as_mut(), result) {
                    coord.on_poll(&ObjectId::new(&job.path), ts, result);
                }
            }
        }
        coalesced
    }

    /// Queues an Mt-triggered poll for `target`, asked for at `now`.
    /// Returns `true` when it was coalesced instead: a poll already on
    /// the wire or already queued satisfies every trigger that races in
    /// behind it, and so does the target's own poll once it is due — it
    /// is the next thing handed out, and a triggered poll an instant
    /// before it would leave it a `304` that hides the update from LIMD.
    fn enqueue_trigger(&mut self, target: &str, now: Instant) -> bool {
        // Un-ruled since the coordinator learned of it: dropped.
        let Some((key, sched)) = self.sched.scheds.get_key_value(target) else {
            return false;
        };
        if sched.due <= now || self.in_flight.contains_key(target) || self.trig_pending.contains(target) {
            return true;
        }
        self.trig_pending.insert(Arc::clone(key));
        self.trig_queue.push_back((Arc::clone(key), now));
        false
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
    /// Scheduled polls that failed since the last one that did not.
    errors: u32,
}

/// One due-queue entry. Field order is the queue's order: the heap
/// holds them [`Reverse`]d, so the *earliest* `(due, path)` surfaces
/// first — the tiebreak the 10k-path parity test pins down.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct DueEntry {
    due: Instant,
    path: Arc<str>,
    gen: u64,
}

/// The refresher's scheduling engine: per-path LIMD state, the lazily
/// invalidated due heap (see the module docs) and the Mt coordinator,
/// reconciled against the shared epoch. Starts at the empty epoch 0, so
/// the first [`Scheduler::reconcile`] always applies.
#[derive(Debug, Default)]
struct Scheduler {
    epoch: Arc<RulesEpoch>,
    scheds: HashMap<Arc<str>, PathSched>,
    due_queue: BinaryHeap<Reverse<DueEntry>>,
    next_gen: u64,
    coordinator: Option<MtCoordinator>,
}

impl Scheduler {
    /// Adopts a new epoch, path by path as the module docs say. The Mt
    /// coordinator survives only if both the group rule and the
    /// membership are unchanged (its per-member rate estimators remain
    /// valid then, and only then). Returns the paths that stopped being
    /// ruled, for the caller's `on_removed` side effects. Heap entries
    /// for removed/changed paths are left behind and invalidated by
    /// generation; O(changed) work here, not O(heap).
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
                            errors: 0,
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
        self.due_queue.push(Reverse(DueEntry { due, path: key, gen }));
    }

    /// When the earliest live entry is due, discarding stale tops.
    fn next_due_at(&mut self) -> Option<Instant> {
        loop {
            let Reverse(entry) = self.due_queue.peek()?;
            if self.scheds.get(&*entry.path).is_some_and(|s| s.gen == entry.gen) {
                return Some(entry.due);
            }
            self.due_queue.pop();
        }
    }

    /// Pops the earliest live entry if it is due by `now`: `(due, path)`
    /// order, stale entries discarded along the way.
    fn pop_due(&mut self, now: Instant) -> Option<DueEntry> {
        if self.next_due_at()? > now {
            return None;
        }
        self.due_queue.pop().map(|Reverse(entry)| entry)
    }

    /// Feeds the outcome of a scheduled poll sent at `now_ts` and
    /// finished at `now`; returns the Mt-triggered targets. A path
    /// removed while its poll was in flight is a no-op.
    fn on_poll(
        &mut self,
        path: &str,
        now_ts: Timestamp,
        result: &PollResult,
        now: Instant,
    ) -> Vec<ObjectId> {
        let Some(sched) = self.scheds.get_mut(path) else {
            return Vec::new(); // rule removed mid-poll: outcome discarded
        };
        let decision = sched.limd.on_poll(now_ts, result);
        sched.polls += 1;
        sched.errors = 0;
        self.reschedule(path, now + std_duration(decision.ttr));
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

    /// Backs a path off after a network error: the first retry comes
    /// after min(Δ, 200 ms), each further failure in a row doubles it, up
    /// to the rule's TTR ceiling — a dead origin costs every path one
    /// connect per `ttr_max`, not five a second. A poll that succeeds
    /// puts the path back on its LIMD schedule.
    fn on_error(&mut self, path: &str, now: Instant) {
        if let Some(sched) = self.scheds.get_mut(path) {
            let config = sched.limd.config();
            let first = config.delta().clamp(Duration::from_millis(20), Duration::from_millis(200));
            let retry = first.saturating_mul(1 << sched.errors.min(32)).min(config.ttr_max().max(first));
            sched.errors = sched.errors.saturating_add(1);
            self.reschedule(path, now + std_duration(retry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::limd::PollView;
    use mutcon_core::mutual::temporal::MtPolicy;
    use std::sync::atomic::AtomicU64;

    fn rule(path: &str, delta_ms: u64) -> RefreshRule {
        RefreshRule::new(path, Duration::from_millis(delta_ms))
    }

    fn epoch(version: u64, rules: Vec<RefreshRule>, group: Option<GroupRule>) -> Arc<RulesEpoch> {
        Arc::new(RulesEpoch::new(version, rules, group))
    }

    fn scheduler(epoch: Arc<RulesEpoch>, now: Instant) -> Scheduler {
        let mut sched = Scheduler::default();
        sched.reconcile(epoch, now);
        sched
    }

    fn dispatcher(epoch: Arc<RulesEpoch>, now: Instant) -> Dispatcher {
        Dispatcher {
            sched: scheduler(epoch, now),
            ..Dispatcher::default()
        }
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
        let now = Instant::now();
        let mut sched = scheduler(
            epoch(1, vec![rule("/keep", 10), rule("/change", 10), rule("/drop", 10)], None),
            now,
        );

        // Grow /keep's TTR with a few quiet polls.
        let mut ts = unix_now();
        for _ in 0..4 {
            ts += Duration::from_millis(50);
            sched.on_poll("/keep", ts, &PollResult::NotModified, now);
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
        let mut sched = scheduler(epoch(1, vec![rule("/gone", 10)], None), now);
        sched.reconcile(epoch(2, vec![], None), now);
        // The in-flight poll's outcome arrives after the swap: no panic,
        // no state, no triggers — and the stale heap entry is discarded.
        let triggers = sched.on_poll("/gone", unix_now(), &PollResult::NotModified, now);
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
        let mut sched = scheduler(
            epoch(1, vec![rule("/a", 10), rule("/b", 10)], Some(group)),
            now,
        );
        let ts = unix_now();
        let triggers =
            sched.on_poll("/a", ts, &PollResult::modified(ts - Duration::from_millis(5)), now);
        assert_eq!(triggers, vec![ObjectId::new("/b")]);
        let coord = sched.coordinator.as_mut().unwrap();
        coord.on_poll(&ObjectId::new("/b"), ts + Duration::from_millis(1), &PollResult::NotModified);

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
        let mut sched = scheduler(
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
        let mut sched = scheduler(
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
    fn dispatcher_dedupes_triggered_polls_per_target() {
        let now = Instant::now();
        let due = now + StdDuration::from_millis(10);
        let ts = Timestamp::from_millis(1_000);
        let mut d = dispatcher(epoch(1, vec![rule("/a", 10), rule("/b", 10)], None), due);
        assert!(!d.enqueue_trigger("/b", now));
        assert!(d.enqueue_trigger("/b", now), "already queued: coalesced");
        assert_eq!(d.trig_queue.len(), 1);
        d.in_flight.insert(Arc::from("/a"), None);
        assert!(d.enqueue_trigger("/a", now), "already on the wire: coalesced");
        assert!(!d.enqueue_trigger("/zzz", now), "un-ruled target: dropped, not counted");
        assert_eq!(d.trig_queue.len(), 1);

        // The trigger goes out ahead of scheduled work.
        let first = d.next_job(due).unwrap();
        assert_eq!((first.kind, &*first.path), (PollKind::Triggered, "/b"));
        // Both on the wire, their own entries deferred behind them.
        assert!(d.next_job(due).is_none());
        assert_eq!(d.next_wake(), None);

        // The triggered poll's completion leaves /b's own schedule alone:
        // the deferred entry is back, a trigger now coalesces into it.
        assert_eq!(d.complete(&first, ts, Some(&PollResult::NotModified), due), 0);
        assert!(d.enqueue_trigger("/b", due), "its own poll is due: coalesced");
        let second = d.next_job(due).unwrap();
        assert_eq!((second.kind, &*second.path), (PollKind::Scheduled, "/b"));
        assert_eq!(second.due, due);
    }

    /// A due entry deferred behind its own in-flight poll must not hide
    /// when the other paths are due.
    #[test]
    fn dispatcher_wakes_for_the_next_free_path_behind_a_deferred_one() {
        let start = Instant::now();
        let ts = Timestamp::from_millis(1_000);
        let mut d = dispatcher(epoch(1, vec![rule("/free", 10), rule("/held", 10)], None), start);
        let free = d.next_job(start).unwrap();
        let held = d.next_job(start).unwrap();
        assert_eq!((&*free.path, &*held.path), ("/free", "/held"));
        assert!(d.next_job(start).is_none());
        assert_eq!(d.next_wake(), None, "both on the wire, nothing scheduled");
        // /free completes and is rescheduled one TTR out; /held stays on
        // the wire while a rule swap marks it due immediately.
        d.complete(&free, ts, Some(&PollResult::NotModified), start);
        d.sched.reschedule("/held", start);
        let free_due = d.sched.scheds["/free"].due;
        assert!(free_due > start);

        assert!(d.next_job(start).is_none(), "/held is not handed out twice");
        assert_eq!(d.next_wake(), Some(free_due));
        // The deferred entry waits for /held's completion.
        assert!(d.in_flight["/held"].is_some());
        assert_eq!(d.in_flight.len(), 1);
    }

    /// A dead origin: each failure in a row doubles the retry, from
    /// min(Δ, 200 ms) up to the rule's `ttr_max`, and the first poll that
    /// gets through puts the path back on its LIMD schedule.
    #[test]
    fn consecutive_poll_errors_back_off_up_to_ttr_max_and_reset_on_success() {
        let ms = StdDuration::from_millis;
        let start = Instant::now();
        let rules = vec![rule("/dead", 500).ttr_max(Duration::from_millis(3_000))];
        let mut d = dispatcher(epoch(1, rules, None), start);
        let mut now = start;
        let fail = |d: &mut Dispatcher, now: &mut Instant| {
            let job = d.next_job(*now).expect("due");
            d.complete(&job, Timestamp::from_millis(1_000), None, *now);
            assert!(d.next_job(*now).is_none(), "nothing is due before the retry");
            let wait = d.next_wake().expect("a retry is scheduled") - *now;
            *now += wait;
            wait
        };
        let waits: Vec<StdDuration> = (0..7).map(|_| fail(&mut d, &mut now)).collect();
        assert_eq!(waits, [200, 400, 800, 1_600, 3_000, 3_000, 3_000].map(ms));

        let job = d.next_job(now).expect("due");
        d.complete(&job, Timestamp::from_millis(9_000), Some(&PollResult::NotModified), now);
        let ttr = d.sched.scheds["/dead"].limd.current_ttr();
        assert_eq!(d.next_wake(), Some(now + std_duration(ttr)), "back on the LIMD schedule");
        now += std_duration(ttr);
        assert_eq!(fail(&mut d, &mut now), ms(200), "the count starts over");
        // A Δ below the floor retries at the floor even past `ttr_max`.
        let mut d = dispatcher(epoch(1, vec![rule("/fast", 5).ttr_max(Duration::from_millis(5))], None), start);
        let mut now = start;
        assert_eq!([fail(&mut d, &mut now), fail(&mut d, &mut now)], [ms(20), ms(20)]);
    }

    /// Seeded interleavings over the bare state machine in simulated
    /// time: six paths in a triggered Mt group, up to three jobs on the
    /// wire, random completion order and outcome, one path un-ruled and
    /// later brought back.
    #[test]
    fn dispatcher_model_never_double_polls_resurrects_or_starves() {
        use mutcon_sim::rng::SimRng;

        let group = Some(GroupRule {
            delta: Duration::from_millis(20),
            policy: MtPolicy::TriggeredPolls,
        });
        let full: Vec<RefreshRule> = (0..6)
            .map(|i| rule(&format!("/m{i}"), 10).ttr_max(Duration::from_millis(80)))
            .collect();
        let without: Vec<RefreshRule> = full.iter().filter(|r| r.path != "/m3").cloned().collect();
        // Everything a completion may change, minus the in-flight set
        // and the heap (which may take a stale deferred entry back).
        let fingerprint = |d: &Dispatcher| {
            format!("{:?} {:?} {:?}", d.sched.scheds, d.trig_queue, d.sched.coordinator)
        };
        let mut late_completions = 0;
        for seed in 0..64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let base = Instant::now();
            let at = |ms: u64| base + StdDuration::from_millis(ms);
            let unix = |ms: u64| Timestamp::from_millis(1_000_000 + ms);
            let remove_at = rng.uniform_u64(100, 700);
            let readd_at = remove_at + rng.uniform_u64(1, 200);
            let mut d = dispatcher(epoch(1, full.clone(), group), at(0));
            let mut on_wire: Vec<(Job, u64)> = Vec::new();
            for t in 0..1_500 {
                // One step, a simulated millisecond, is: completions in
                // random order with random outcomes,
                for _ in 0..on_wire.len() {
                    if !rng.chance(0.5) {
                        continue;
                    }
                    let pick = rng.uniform_u64(0, on_wire.len() as u64) as usize;
                    let (job, sent) = on_wire.swap_remove(pick);
                    let result = match rng.uniform_u64(0, 10) {
                        0 => None,
                        1..=3 => Some(PollResult::modified(unix(sent))),
                        _ => Some(PollResult::NotModified),
                    };
                    if d.sched.epoch.contains(&job.path) {
                        d.complete(&job, unix(sent), result.as_ref(), at(t));
                    } else {
                        late_completions += 1;
                        let before = fingerprint(&d);
                        assert_eq!(d.complete(&job, unix(sent), result.as_ref(), at(t)), 0);
                        assert_eq!(fingerprint(&d), before, "seed {seed}: late completion of {}", job.path);
                    }
                }
                // the swap if it is due (here, where triggers just raised
                // for the path still wait for a worker),
                if t == remove_at {
                    let removed = d.sched.reconcile(epoch(2, without.clone(), group), at(t));
                    assert_eq!(removed, vec![Arc::from("/m3")]);
                }
                if t == readd_at {
                    assert!(d.sched.reconcile(epoch(3, full.clone(), group), at(t)).is_empty());
                }
                // and hand-outs, up to three on the wire.
                while on_wire.len() < 3 && rng.chance(0.8) {
                    let Some(job) = d.next_job(at(t)) else {
                        // Nothing ready: every free path is due later
                        // (one that is not has been lost, and starves),
                        // and the wake instant covers the earliest.
                        let earliest_free = d
                            .sched
                            .scheds
                            .iter()
                            .filter(|(p, _)| !d.in_flight.contains_key(&**p))
                            .map(|(_, s)| s.due)
                            .min();
                        let wake = d.next_wake();
                        if let Some(due) = earliest_free {
                            assert!(due > at(t), "seed {seed} t {t}: a free path is overdue");
                            assert!(wake.is_some_and(|w| w <= due), "seed {seed} t {t}: wake {wake:?}");
                        }
                        break;
                    };
                    assert!(d.sched.epoch.contains(&job.path), "seed {seed}: un-ruled {}", job.path);
                    assert!(
                        on_wire.iter().all(|(j, _)| j.path != job.path),
                        "seed {seed} t {t}: {} handed out twice",
                        job.path
                    );
                    assert!(job.due <= at(t));
                    on_wire.push((job, t));
                }
            }
            // Every path kept polling on its own schedule to the end.
            for (path, s) in &d.sched.scheds {
                assert!(s.polls >= 4, "seed {seed}: {path} polled {} times", s.polls);
            }
        }
        assert!(late_completions > 0, "no seed completed a poll of the removed path late");
    }

    /// First instalment of "the live plane schedules like the simulator":
    /// without a group, the state machine stepped through simulated time
    /// with zero origin latency polls the four Table 2 traces at exactly
    /// the instants `run_temporal` does under the same LIMD config.
    #[test]
    fn dispatcher_polls_the_table2_traces_at_the_simulators_instants() {
        use mutcon_proxy::drivers::{run_temporal, TemporalPolicy, TemporalSimConfig};
        use mutcon_proxy::OriginServer;
        use mutcon_traces::NamedTrace;

        let mut origin = OriginServer::new();
        let mut until = Timestamp::from_millis(u64::MAX);
        let mut rules = Vec::new();
        for (i, named) in NamedTrace::TEMPORAL.iter().enumerate() {
            let path = format!("/t{i}");
            until = until.min(Timestamp::ZERO + named.duration());
            origin.host(ObjectId::new(&path), named.generate());
            // Δ = 10 min under a 60 min TTR ceiling, as in Figure 3.
            rules.push(RefreshRule::new(path, Duration::from_mins(10)).ttr_max(Duration::from_mins(60)));
        }
        let ids: Vec<ObjectId> = rules.iter().map(|r| ObjectId::new(&r.path)).collect();
        let sim = run_temporal(
            &origin,
            &ids,
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(limd_config(&rules[0]).unwrap()),
                mutual: None,
                until,
            },
        );

        let base = Instant::now();
        let mut d = dispatcher(epoch(1, rules, None), base);
        let mut validators: HashMap<Arc<str>, Timestamp> = HashMap::new();
        let mut polled: HashMap<Arc<str>, Vec<Timestamp>> = HashMap::new();
        let mut t = Timestamp::ZERO;
        while t <= until {
            let now = base + std_duration(t.since(Timestamp::ZERO));
            while let Some(job) = d.next_job(now) {
                let object = origin.object(&ObjectId::new(&job.path)).unwrap();
                let resp = object.poll(t, validators.get(&job.path).copied()).unwrap();
                let result = match resp.as_view() {
                    PollView::NotModified => PollResult::NotModified,
                    PollView::Modified { last_modified, history } => {
                        validators.insert(Arc::clone(&job.path), last_modified);
                        PollResult::Modified {
                            last_modified,
                            history: history.map(<[Timestamp]>::to_vec),
                        }
                    }
                };
                polled.entry(Arc::clone(&job.path)).or_default().push(t);
                d.complete(&job, t, Some(&result), now);
            }
            let wake = d.next_wake().expect("every path is rescheduled");
            t = Timestamp::from_millis(wake.duration_since(base).as_millis() as u64);
        }

        for id in &ids {
            let expected: Vec<Timestamp> = sim.logs[id].records().iter().map(|r| r.at).collect();
            assert!(expected.len() > 100, "{id}: the trace must exercise LIMD");
            assert_eq!(polled[id.as_str()], expected, "{id}: poll instants differ");
        }
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
