//! The §3 scheduler: LIMD per object (§3.1) plus Mt triggers across a
//! group (§3.2), as one clock-free state machine under both drivers.
//!
//! [`Schedule`] holds per-key [`Limd`] state, a binary-heap due queue
//! ordered by `(due, key)`, the Mt coordinator, the polls in flight and
//! the queue of Mt-triggered polls. Every method takes `now` and none
//! reads a clock. Inputs are `next_job`, `complete` and `reconcile`; the
//! output is a [`Job`] to poll, or the instant to wake at when nothing is
//! ready. The in-flight table is the one poll ledger (each poll's kind
//! and send stamp), so a driver completes a poll by its key alone. At
//! most [`POLL_WIDTH`] polls are out at once: past it, due polls wait
//! here in order and a completion brings the next. Triggered polls go
//! out before scheduled ones, a key never has two polls on the wire, and
//! a trigger whose target is on the wire, queued or itself due is
//! coalesced into that poll. The heap is lazily invalidated: a reschedule
//! pushes a fresh entry under a bumped generation and stale ones are
//! dropped as they surface.
//!
//! [`crate::drivers::run_temporal`] steps it through simulated time
//! (`u32` handles, [`Timestamp`] instants, zero latency, an origin that
//! always answers); the live proxy's reactor 0 steps it on sockets
//! (`Arc<str>` paths, monotonic `Instant`s, Unix milliseconds only for
//! what LIMD and the coordinator are told). Neither is visible in here.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;
use std::ops::Add;
use std::sync::Arc;

use mutcon_core::limd::{Limd, LimdConfig, PollView};
use mutcon_core::mutual::temporal::{MtCoordinator, MtPolicy};
use mutcon_core::time::{Duration, Timestamp};

/// The refresh plane's width: the most polls [`Schedule::next_job`] has
/// out at once, whoever drives it. Every driver takes the bound from
/// here; the simulator, which answers each poll as it is handed out,
/// never reaches it.
pub const POLL_WIDTH: usize = 4;

/// Whether a poll was LIMD-scheduled or triggered by the Mt coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollKind {
    /// A regular LIMD-scheduled poll.
    Scheduled,
    /// An extra poll the Mt coordinator requested to restore mutual
    /// consistency.
    Triggered,
}

/// One poll handed to a driver.
#[derive(Debug)]
pub struct Job<K, T> {
    /// Why it is polled.
    pub kind: PollKind,
    /// Whom to poll.
    pub key: K,
    /// When the poll was supposed to start; drift is measured from it.
    pub due: T,
}

/// What [`Schedule::complete`] did with a poll's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Completion {
    /// Mt triggers it raised that a queued, in-flight or due poll covers.
    pub coalesced: u64,
    /// The TTR LIMD chose: a scheduled poll, answered, key still ruled.
    pub ttr: Option<Duration>,
}

/// A key a [`Schedule`] rules: a rule set names it by its borrowed
/// form, and [`Schedule::reconcile`] makes the owned key only when it
/// adds one.
pub trait Key: Clone + Ord + Hash {
    /// What a rule set names the key by; the key must borrow as it.
    type Borrowed: ?Sized + Hash + Eq;

    /// The owned key for `name`.
    fn to_key(name: &Self::Borrowed) -> Self;
}

/// The simulator's dense object handles: copied.
impl Key for u32 {
    type Borrowed = u32;

    fn to_key(name: &u32) -> u32 {
        *name
    }
}

/// The live proxy's paths: one allocation per path added.
impl Key for Arc<str> {
    type Borrowed = str;

    fn to_key(name: &str) -> Arc<str> {
        Arc::from(name)
    }
}

/// What a [`Schedule::reconcile`] changed, key by key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Swap<K> {
    /// The version now in force.
    pub version: u64,
    /// Keys ruled now but not before, in the rule set's order.
    pub added: Vec<K>,
    /// Keys ruled before and now under a different config, in the rule
    /// set's order (their adaptive state is rebuilt).
    pub changed: Vec<K>,
    /// Keys no longer ruled, sorted.
    pub removed: Vec<K>,
}

/// One key's scheduling state.
#[derive(Debug)]
pub struct PathSched<T> {
    /// The key's adaptive TTR state.
    pub limd: Limd,
    /// Scheduled polls answered (triggered extras not included).
    pub polls: u64,
    /// The [`Schedule::reconcile`] version that (last) installed this
    /// key's config; unchanged across swaps that keep its adaptive state.
    pub rule_version: u64,
    /// The last reconcile version whose rule set listed this key.
    listed: u64,
    due: T,
    /// Generation of this key's live due-queue entry; heap entries
    /// with any other stamp are stale and discarded when they surface.
    gen: u64,
    /// Scheduled polls that failed since the last one that did not.
    errors: u32,
    /// Whether a trigger for this key waits in the queue.
    trigger_queued: bool,
}

/// One due-queue entry. Field order is the queue's order: the heap
/// holds them [`Reverse`]d, so the *earliest* `(due, key)` surfaces
/// first — the tiebreak the 10k-path parity test pins down.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct DueEntry<K, T> {
    due: T,
    key: K,
    gen: u64,
}

/// A poll on the wire: its kind, its send stamp on LIMD's and the
/// coordinator's timeline, and the due entry that surfaced for its key
/// meanwhile, if one did, kept off the heap until the poll completes so
/// a hung origin path hides nobody else's due time.
#[derive(Debug)]
struct Flight<K, T> {
    kind: PollKind,
    sent: Timestamp,
    deferred: Option<DueEntry<K, T>>,
}

/// The state machine both drivers step; see the module docs. Starts
/// empty, at version 0.
#[derive(Debug)]
pub struct Schedule<K, T> {
    version: u64,
    paths: HashMap<K, PathSched<T>>,
    due_queue: BinaryHeap<Reverse<DueEntry<K, T>>>,
    next_gen: u64,
    coordinator: Option<MtCoordinator<K>>,
    /// Keys on the wire, never handed out a second time.
    in_flight: HashMap<K, Flight<K, T>>,
    /// Mt-triggered targets waiting for a driver, FIFO, each with the
    /// instant it was asked for. An entry counts while its target's
    /// `trigger_queued` is set.
    trig_queue: VecDeque<(K, T)>,
}

impl<K, T> Default for Schedule<K, T> {
    fn default() -> Self {
        Schedule {
            version: 0,
            paths: HashMap::new(),
            due_queue: BinaryHeap::new(),
            next_gen: 0,
            coordinator: None,
            in_flight: HashMap::new(),
            trig_queue: VecDeque::new(),
        }
    }
}

impl<K, T> Schedule<K, T>
where
    K: Key,
    T: Copy + Ord + Add<Duration, Output = T>,
{
    /// The version of the rule set last reconciled (0 before the first).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Polls handed out and not yet completed, at most [`POLL_WIDTH`].
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Every ruled key's state, in no particular order.
    pub fn paths(&self) -> impl Iterator<Item = (&K, &PathSched<T>)> {
        self.paths.iter()
    }

    /// `key`'s state, if the rule set in force has it.
    pub fn path<Q>(&self, key: &Q) -> Option<&PathSched<T>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.paths.get(key)
    }

    /// The Mt group `(δ, policy)` across every key, if the rule set in
    /// force has one.
    pub fn group(&self) -> Option<(Duration, MtPolicy)> {
        self.coordinator.as_ref().map(|c| (c.delta(), c.policy()))
    }

    /// Adopts the next rule set, version [`Schedule::version`] + 1, in
    /// place: its members (distinct keys, by their borrowed form) with
    /// their LIMD configs, and the optional Mt group `(δ, policy)` across
    /// them. **Unchanged keys** keep their adaptive TTR and due time;
    /// **changed** and **added keys** start from a fresh [`Limd`], due at
    /// `now`; **removed keys** stop. Only an added key is made owned. The
    /// coordinator survives only if the group and the membership are
    /// unchanged (its rate estimators are valid then, and only then).
    /// Stale heap entries are invalidated by generation, not removed.
    pub fn reconcile<Q: Borrow<K::Borrowed>>(
        &mut self,
        members: impl IntoIterator<Item = (Q, LimdConfig)>,
        group: Option<(Duration, MtPolicy)>,
        now: T,
    ) -> Swap<K>
    where
        K: Borrow<K::Borrowed>,
    {
        self.version += 1;
        let version = self.version;
        let mut swap = Swap {
            version,
            added: Vec::new(),
            changed: Vec::new(),
            removed: Vec::new(),
        };
        for (name, config) in members {
            let name = name.borrow();
            if let Some(sched) = self
                .paths
                .get_mut(name)
                .filter(|s| *s.limd.config() == config)
            {
                sched.listed = version;
                continue;
            }
            let (key, report) = match self.paths.remove_entry(name) {
                Some((key, _)) => (key, &mut swap.changed),
                None => (K::to_key(name), &mut swap.added),
            };
            report.push(key.clone());
            self.next_gen += 1;
            let gen = self.next_gen;
            self.due_queue.push(Reverse(DueEntry {
                due: now,
                key: key.clone(),
                gen,
            }));
            let fresh = PathSched {
                limd: Limd::new(config),
                polls: 0,
                rule_version: version,
                listed: version,
                due: now,
                gen,
                errors: 0,
                trigger_queued: false,
            };
            self.paths.insert(key, fresh);
        }
        // A key the new set did not list has no rule any more.
        let unlisted = self
            .paths
            .iter()
            .filter(|(_, sched)| sched.listed != version);
        swap.removed = unlisted.map(|(key, _)| key.clone()).collect();
        swap.removed.sort();
        self.paths.retain(|_, sched| sched.listed == version);
        if self.group() != group || !swap.added.is_empty() || !swap.removed.is_empty() {
            self.coordinator = group.map(|(delta, policy)| {
                MtCoordinator::new(delta, policy, self.paths.keys().cloned())
            });
        }
        swap
    }

    /// Moves `key`'s next scheduled poll to `due`: bumps its generation
    /// (invalidating any older heap entry) and pushes a fresh one. No-op
    /// for unruled keys.
    fn reschedule(&mut self, key: &K, due: T) {
        if let Some(sched) = self.paths.get_mut(key) {
            self.next_gen += 1;
            sched.due = due;
            sched.gen = self.next_gen;
            let entry = DueEntry {
                due,
                key: key.clone(),
                gen: sched.gen,
            };
            self.due_queue.push(Reverse(entry));
        }
    }

    /// When to call [`Schedule::next_job`] again after it returned
    /// `None`: the earliest due time still on the heap (stale tops
    /// discarded), which is never later than the earliest free key's.
    /// `None` means only a completion or a reconcile can create work;
    /// with [`POLL_WIDTH`] polls out, only a completion can.
    pub fn next_wake(&mut self) -> Option<T> {
        if self.in_flight.len() >= POLL_WIDTH {
            return None;
        }
        self.earliest_due()
    }

    /// The earliest live due time on the heap, stale tops discarded.
    fn earliest_due(&mut self) -> Option<T> {
        loop {
            let Reverse(entry) = self.due_queue.peek()?;
            if self
                .paths
                .get(&entry.key)
                .is_some_and(|s| s.gen == entry.gen)
            {
                return Some(entry.due);
            }
            self.due_queue.pop();
        }
    }

    /// Pops the earliest live entry if it is due by `now`: `(due, key)`
    /// order, stale entries discarded along the way.
    fn pop_due(&mut self, now: T) -> Option<DueEntry<K, T>> {
        if self.earliest_due()? > now {
            return None;
        }
        self.due_queue.pop().map(|Reverse(entry)| entry)
    }

    /// The next poll to put on the wire at `now`, marked in flight with
    /// its kind and `ts`, the send instant on LIMD's and the
    /// coordinator's timeline: queued triggers first (they restore mutual
    /// consistency *now*), then the earliest due scheduled key that is
    /// free. `None` while [`POLL_WIDTH`] polls are out.
    pub fn next_job(&mut self, now: T, ts: Timestamp) -> Option<Job<K, T>> {
        if self.in_flight.len() >= POLL_WIDTH {
            return None;
        }
        let flight = |kind| Flight {
            kind,
            sent: ts,
            deferred: None,
        };
        // Nothing scheduled is handed out while a trigger waits, so a
        // queued target (free when it was queued) is still free here.
        while let Some((key, due)) = self.trig_queue.pop_front() {
            // Not if the target was un-ruled, or its rule rebuilt, since.
            if self
                .paths
                .get_mut(&key)
                .is_some_and(|s| std::mem::take(&mut s.trigger_queued))
            {
                self.in_flight
                    .insert(key.clone(), flight(PollKind::Triggered));
                return Some(Job {
                    kind: PollKind::Triggered,
                    key,
                    due,
                });
            }
        }
        while let Some(entry) = self.pop_due(now) {
            if let Some(out) = self.in_flight.get_mut(&entry.key) {
                // Still on the wire (a slow origin outlasted the TTR, a
                // triggered poll covers it, or a swap made it due
                // again): the completion re-evaluates this entry.
                out.deferred = Some(entry);
                continue;
            }
            self.in_flight
                .insert(entry.key.clone(), flight(PollKind::Scheduled));
            return Some(Job {
                kind: PollKind::Scheduled,
                key: entry.key,
                due: entry.due,
            });
        }
        None
    }

    /// Applies the outcome of `key`'s poll in flight, finished at `now`
    /// (`None` is a network error). A scheduled poll drives the key's
    /// TTR and next due time, a triggered one leaves both alone; either
    /// tells the coordinator, and the triggers an update raises are
    /// queued. A key with no poll in flight changes nothing. For a key
    /// un-ruled while its poll was on the wire the outcome is discarded:
    /// it can neither panic the plane nor resurrect the key.
    pub fn complete<Q>(&mut self, key: &Q, result: Option<PollView<'_>>, now: T) -> Completion
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut done = Completion::default();
        let Some((key, flight)) = self.in_flight.remove_entry(key) else {
            return done;
        };
        if let Some(deferred) = flight.deferred {
            // Back first: a reschedule below outdates it, a triggered
            // poll's completion leaves it to fire.
            self.due_queue.push(Reverse(deferred));
        }
        let Some(sched) = self.paths.get_mut::<K>(&key) else {
            return done;
        };
        // `ts` is wall-clock time on sockets, and a wall clock can step
        // back: this key's polls stay in order whatever it does.
        let ts = sched
            .limd
            .last_poll()
            .map_or(flight.sent, |previous| flight.sent.max(previous));
        let Some(view) = result else {
            if flight.kind == PollKind::Scheduled {
                // The first retry comes after min(Δ, 200 ms), each further
                // failure in a row doubles it, up to the TTR ceiling: a
                // dead origin costs every key one connect per `ttr_max`,
                // not five a second. A poll that succeeds puts the key
                // back on its LIMD schedule. (A failed trigger changes
                // nothing: the target's own schedule still governs it.)
                let config = sched.limd.config();
                let first = config
                    .delta()
                    .clamp(Duration::from_millis(20), Duration::from_millis(200));
                let retry = first
                    .saturating_mul(1 << sched.errors.min(32))
                    .min(config.ttr_max().max(first));
                sched.errors = sched.errors.saturating_add(1);
                self.reschedule(&key, now + retry);
            }
            return done;
        };
        if flight.kind == PollKind::Scheduled {
            let ttr = sched.limd.observe(ts, view).ttr;
            sched.polls += 1;
            sched.errors = 0;
            done.ttr = Some(ttr);
            self.reschedule(&key, now + ttr);
        }
        if let Some(coord) = self.coordinator.as_mut() {
            let triggers = coord.observe(&key, ts, view);
            if let Some(ttr) = done.ttr {
                coord.record_scheduled_poll(&key, ts + ttr);
            }
            for target in triggers {
                done.coalesced += u64::from(self.enqueue_trigger(&target, now));
            }
        }
        done
    }

    /// Queues an Mt-triggered poll for `target`, asked for at `now`.
    /// Returns `true` when it was coalesced instead: a poll already on
    /// the wire or already queued satisfies every trigger that races in
    /// behind it, and so does the target's own poll once it is due
    /// (§3.2's "next poll within δ" at zero distance) — it is the next
    /// thing handed out, and a triggered poll an instant before it would
    /// leave it a `304` that hides the update from LIMD.
    fn enqueue_trigger(&mut self, target: &K, now: T) -> bool {
        // Un-ruled since the coordinator learned of it: dropped.
        let Some(sched) = self.paths.get_mut(target) else {
            return false;
        };
        if sched.due <= now || sched.trigger_queued || self.in_flight.contains_key(target) {
            return true;
        }
        sched.trigger_queued = true;
        self.trig_queue.push_back((target.clone(), now));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    type Sched<K> = Schedule<K, Timestamp>;

    impl Key for &str {
        type Borrowed = Self;

        fn to_key(name: &Self) -> Self {
            name
        }
    }

    impl Key for String {
        type Borrowed = str;

        fn to_key(name: &str) -> String {
            name.to_owned()
        }
    }

    fn at(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// Δ with the live proxy's default TTR ceiling, 64·Δ.
    fn limd(delta_ms: u64) -> LimdConfig {
        limd_up_to(delta_ms, delta_ms * 64)
    }

    fn limd_up_to(delta_ms: u64, ttr_max_ms: u64) -> LimdConfig {
        LimdConfig::builder(ms(delta_ms))
            .ttr_max(ms(ttr_max_ms))
            .build()
            .unwrap()
    }

    /// Version 1: `keys`, all under `config`, first due at `now`.
    fn schedule<K: Key + Borrow<K::Borrowed>>(
        keys: impl IntoIterator<Item = K>,
        config: LimdConfig,
        group: Option<(Duration, MtPolicy)>,
        now: Timestamp,
    ) -> Sched<K> {
        let mut s = Schedule::default();
        s.reconcile(keys.into_iter().map(|k| (k, config)), group, now);
        s
    }

    const QUIET: Option<PollView<'static>> = Some(PollView::NotModified);

    fn modified(last_modified: Timestamp, history: &[Timestamp]) -> Option<PollView<'_>> {
        Some(PollView::Modified {
            last_modified,
            history: Some(history),
        })
    }

    #[test]
    fn due_queue_matches_the_linear_scan_order_at_10k_paths() {
        // Insertion order is a permutation (7 is coprime with 10k), so
        // nothing about the heap order can ride on insertion order.
        let paths: Vec<String> = (0..10_000u64)
            .map(|i| format!("/obj/{:05}", i * 7 % 10_000))
            .collect();
        let mut s = schedule(paths.iter().cloned(), limd(10), None, at(0));
        // Re-stamp every path with a clustered pseudo-random due — ~20
        // paths share each of 500 distinct stamps, so the (due, key)
        // tiebreak is exercised hard, and each reschedule leaves a stale
        // entry (the reconcile-time one) behind for lazy invalidation.
        for (i, path) in paths.iter().enumerate() {
            s.reschedule(path, at((i as u64).wrapping_mul(2_654_435_761) % 500));
        }
        // Oracle: exactly what an O(P) full-map scan returns — min by
        // (due, key).
        let mut expected: Vec<(Timestamp, String)> =
            s.paths.iter().map(|(p, s)| (s.due, p.clone())).collect();
        expected.sort();
        let mut order: Vec<(Timestamp, String)> = Vec::with_capacity(expected.len());
        while let Some(entry) = s.pop_due(at(5_000)) {
            order.push((entry.due, entry.key));
        }
        assert_eq!(order.len(), 10_000, "each path pops exactly once");
        assert_eq!(order, expected);
    }

    #[test]
    fn due_queue_stays_consistent_under_reconcile_churn() {
        let all: Vec<String> = (0..2_000).map(|i| format!("/p/{i:04}")).collect();
        let mut s = schedule(all.iter().cloned(), limd(10), None, at(0));
        let mut drained: HashSet<String> = HashSet::new();
        for round in 2..6u64 {
            // Each round keeps a shifting half of the catalog, changes
            // every third survivor's Δ, and drops the rest.
            let members: Vec<(String, LimdConfig)> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64 + round).is_multiple_of(2))
                .map(|(i, p)| (p.clone(), limd(if i % 3 == 0 { 10 + round } else { 10 })))
                .collect();
            let live: HashSet<String> = members.iter().map(|(p, _)| p.clone()).collect();
            let removed = s.reconcile(members, None, at(round)).removed;
            for gone in &removed {
                assert!(
                    !live.contains(gone),
                    "{gone} reported removed but still ruled"
                );
            }
            // Drain: every live path exactly once, no ghosts from the
            // stale entries the previous rounds left in the heap.
            drained.clear();
            while let Some(entry) = s.pop_due(at(5_000)) {
                assert!(
                    drained.insert(entry.key.clone()),
                    "double pop of {}",
                    entry.key
                );
            }
            assert_eq!(drained, live, "round {round} drained set != ruled set");
            // Put everything back on the schedule for the next round.
            for path in &drained {
                s.reschedule(path, at(round));
            }
        }
    }

    #[test]
    fn dispatcher_dedupes_triggered_polls_per_target() {
        let (now, due) = (at(0), at(10));
        let mut d = schedule(["/a", "/b"], limd(10), None, due);
        assert!(!d.enqueue_trigger(&"/b", now));
        assert!(d.enqueue_trigger(&"/b", now), "already queued: coalesced");
        assert_eq!(d.trig_queue.len(), 1);
        d.in_flight.insert(
            "/a",
            Flight {
                kind: PollKind::Scheduled,
                sent: at(0),
                deferred: None,
            },
        );
        assert!(
            d.enqueue_trigger(&"/a", now),
            "already on the wire: coalesced"
        );
        assert!(
            !d.enqueue_trigger(&"/zzz", now),
            "un-ruled target: dropped, not counted"
        );
        assert_eq!(d.trig_queue.len(), 1);

        // The trigger goes out ahead of scheduled work.
        let first = d.next_job(due, at(1_000)).unwrap();
        assert_eq!((first.kind, first.key), (PollKind::Triggered, "/b"));
        // Both on the wire, their own entries deferred behind them.
        assert!(d.next_job(due, at(1_000)).is_none());
        assert_eq!(d.next_wake(), None);

        // The triggered poll's completion leaves /b's own schedule alone:
        // the deferred entry is back, a trigger now coalesces into it.
        assert_eq!(d.complete(&first.key, QUIET, due), Completion::default());
        assert!(
            d.enqueue_trigger(&"/b", due),
            "its own poll is due: coalesced"
        );
        let second = d.next_job(due, at(1_000)).unwrap();
        assert_eq!((second.kind, second.key), (PollKind::Scheduled, "/b"));
        assert_eq!(second.due, due);
    }

    /// A due entry deferred behind its own in-flight poll must not hide
    /// when the other paths are due.
    #[test]
    fn dispatcher_wakes_for_the_next_free_path_behind_a_deferred_one() {
        let start = at(0);
        let mut d = schedule(["/free", "/held"], limd(10), None, start);
        let free = d.next_job(start, at(1_000)).unwrap();
        let held = d.next_job(start, at(1_000)).unwrap();
        assert_eq!((free.key, held.key), ("/free", "/held"));
        assert!(d.next_job(start, at(1_000)).is_none());
        assert_eq!(d.next_wake(), None, "both on the wire, nothing scheduled");
        // /free completes and is rescheduled one TTR out; /held stays on
        // the wire while a rule swap marks it due immediately.
        let ttr = d
            .complete(&free.key, QUIET, start)
            .ttr
            .expect("LIMD chose one");
        d.reschedule(&"/held", start);

        assert!(
            d.next_job(start, at(1_000)).is_none(),
            "/held is not handed out twice"
        );
        assert_eq!(d.next_wake(), Some(start + ttr));
        // The deferred entry waits for /held's completion.
        assert!(d.in_flight["/held"].deferred.is_some());
        assert_eq!(d.in_flight.len(), 1);
    }

    /// A dead origin: each failure in a row doubles the retry, from
    /// min(Δ, 200 ms) up to the rule's `ttr_max`, and the first poll that
    /// gets through puts the path back on its LIMD schedule.
    #[test]
    fn consecutive_poll_errors_back_off_up_to_ttr_max_and_reset_on_success() {
        let mut d = schedule(["/dead"], limd_up_to(500, 3_000), None, at(0));
        let mut now = at(0);
        let fail = |d: &mut Sched<&str>, now: &mut Timestamp| {
            let job = d.next_job(*now, at(1_000)).expect("due");
            assert_eq!(d.complete(&job.key, None, *now), Completion::default());
            assert_eq!(d.in_flight(), 0, "a failed poll keeps no slot in the width");
            assert!(
                d.next_job(*now, at(1_000)).is_none(),
                "nothing is due before the retry"
            );
            let wait = d.next_wake().expect("a retry is scheduled") - *now;
            *now += wait;
            wait
        };
        let waits: Vec<Duration> = (0..7).map(|_| fail(&mut d, &mut now)).collect();
        assert_eq!(waits, [200, 400, 800, 1_600, 3_000, 3_000, 3_000].map(ms));

        let job = d.next_job(now, at(9_000)).expect("due");
        let ttr = d
            .complete(&job.key, QUIET, now)
            .ttr
            .expect("LIMD chose one");
        assert_eq!(d.next_wake(), Some(now + ttr), "back on the LIMD schedule");
        now += ttr;
        assert_eq!(fail(&mut d, &mut now), ms(200), "the count starts over");
        // A Δ below the floor retries at the floor even past `ttr_max`.
        let mut d = schedule(["/fast"], limd_up_to(5, 5), None, at(0));
        let mut now = at(0);
        assert_eq!(
            [fail(&mut d, &mut now), fail(&mut d, &mut now)],
            [ms(20), ms(20)]
        );
    }

    /// §3.2 asks the same of an update whoever found it: a triggered
    /// poll that reads a change triggers the members its own rate is
    /// comparable to, like a scheduled one.
    #[test]
    fn an_update_found_by_a_triggered_poll_cascades() {
        // Updates every 1 s, 1.25 s and 1.6 s: under the 0.75 threshold
        // /a's reach /b but not /c, and /b's reach /c.
        let every = |period: u64, until: Timestamp| -> Vec<Timestamp> {
            (90_000..=until.as_millis())
                .step_by(period as usize)
                .map(at)
                .collect()
        };
        let start = at(100_000);
        let mut d: Sched<&str> = Schedule::default();
        // /a polls four times as often, so its second poll finds /b and
        // /c a long way from theirs.
        let members = [
            ("/a", limd(10_000)),
            ("/b", limd(40_000)),
            ("/c", limd(40_000)),
        ];
        d.reconcile(members, Some((ms(1_000), MtPolicy::HEURISTIC)), start);
        for period in [1_000, 1_250, 1_600] {
            let job = d.next_job(start, start).expect("all due at the start");
            let seen = every(period, start);
            // Unknown rates trigger everyone; everyone is due: coalesced.
            let done = d.complete(&job.key, modified(*seen.last().unwrap(), &seen), start);
            assert!(done.ttr.is_some());
        }
        assert!(d.next_job(start, start).is_none() && d.trig_queue.is_empty());

        let now = d.next_wake().expect("/a is due first");
        let a = d.next_job(now, now).unwrap();
        assert_eq!((a.kind, a.key), (PollKind::Scheduled, "/a"));
        let seen = every(1_000, now);
        assert_eq!(
            d.complete(&a.key, modified(*seen.last().unwrap(), &seen), now)
                .coalesced,
            0
        );
        let b = d.next_job(now, now).unwrap();
        assert_eq!((b.kind, b.key), (PollKind::Triggered, "/b"));
        assert!(
            d.next_job(now, now).is_none(),
            "/a's update does not reach /c"
        );

        // /b changed too, and its triggered poll is what finds out.
        let seen = every(1_250, now);
        assert_eq!(
            d.complete(&b.key, modified(*seen.last().unwrap(), &seen), now),
            Completion::default()
        );
        let c = d.next_job(now, now).expect("/b's update reaches /c");
        assert_eq!((c.kind, c.key), (PollKind::Triggered, "/c"));
    }

    /// On sockets `ts` is the wall clock, which NTP may step back by
    /// more than a TTR between two polls of a path.
    #[test]
    fn a_completion_stamped_before_the_previous_one_keeps_the_path_scheduled() {
        let mut d = schedule(["/a"], limd(10), None, at(0));
        let mut now = at(0);
        for ts in [50_000, 20_000, 20_005] {
            let job = d.next_job(now, at(ts)).expect("/a is due");
            let ttr = d.complete(&job.key, modified(at(ts), &[]), now).ttr;
            assert_eq!(
                d.paths["/a"].limd.last_poll(),
                Some(at(50_000)),
                "polls stay in order"
            );
            assert_eq!(
                d.next_wake(),
                Some(now + ttr.expect("a scheduled poll")),
                "a live due entry"
            );
            now += ttr.unwrap();
        }
    }

    /// The in-flight table is the ledger a completion is checked
    /// against: a key with no poll out (never handed out, or already
    /// completed) changes nothing, whatever the outcome says.
    #[test]
    fn a_completion_for_a_key_not_in_flight_changes_nothing() {
        let group = Some((ms(20), MtPolicy::TriggeredPolls));
        let mut d = schedule(["/a", "/b", "/c"], limd(10), group, at(0));
        let a = d.next_job(at(0), at(0)).expect("/a is due");
        assert_eq!(d.complete(&a.key, QUIET, at(0)).ttr.map(|_| ()), Some(()));
        let b = d.next_job(at(0), at(0)).expect("/b is due");
        let snapshot = |d: &mut Sched<&str>| {
            let wake = d.next_wake();
            let flights: Vec<_> = d.in_flight.keys().copied().collect();
            format!(
                "{:?} {:?} {:?} {flights:?} {wake:?}",
                d.paths, d.trig_queue, d.coordinator
            )
        };
        let before = snapshot(&mut d);
        let update = modified(at(5), &[]);
        // /a completed already, /c was never handed out, /zzz is not ruled.
        for key in ["/a", "/c", "/zzz"] {
            assert_eq!(
                d.complete(&key, update, at(5)),
                Completion::default(),
                "{key}"
            );
            assert_eq!(
                d.complete(&key, None, at(5)),
                Completion::default(),
                "{key}"
            );
            assert_eq!(snapshot(&mut d), before, "{key}");
        }
        assert_eq!(d.in_flight(), 1);
        // The poll that is out still completes as one.
        assert!(d.complete(&b.key, QUIET, at(5)).ttr.is_some());
        assert_eq!(d.in_flight(), 0);
    }

    /// Seeded interleavings over the bare state machine in simulated
    /// time: six paths in a triggered Mt group, random outcomes, one path
    /// un-ruled and later brought back. Three seeds in four ask for up to
    /// six jobs on the wire, more than [`POLL_WIDTH`] lets out, and
    /// complete them in random order; the fourth is the simulator's
    /// regime, one job at a time answered at the instant it is handed
    /// out.
    #[test]
    fn dispatcher_model_never_double_polls_resurrects_or_starves() {
        use mutcon_sim::rng::SimRng;

        let group = Some((ms(20), MtPolicy::TriggeredPolls));
        let full: Vec<(&str, LimdConfig)> = ["/m0", "/m1", "/m2", "/m3", "/m4", "/m5"]
            .map(|p| (p, limd_up_to(10, 80)))
            .to_vec();
        let without: Vec<(&str, LimdConfig)> =
            full.iter().filter(|(p, _)| *p != "/m3").copied().collect();
        // Everything a completion may change, minus the in-flight set
        // and the heap (which may take a stale deferred entry back).
        let fingerprint =
            |d: &Sched<&str>| format!("{:?} {:?} {:?}", d.paths, d.trig_queue, d.coordinator);
        let (mut late_completions, mut late_cascades, mut cascades, mut full_width) = (0, 0, 0, 0);
        for seed in 0..64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let zero_latency = seed % 4 == 3;
            let unix = |t: u64| at(1_000_000 + t);
            // (The simulator's origin always answers.)
            let outcome = |rng: &mut SimRng, sent: u64| match rng.uniform_u64(0, 10) {
                0 if !zero_latency => None,
                0..=3 => Some(PollView::Modified {
                    last_modified: unix(sent),
                    history: None,
                }),
                _ => QUIET,
            };
            let remove_after = rng.uniform_u64(100, 700);
            let mut readd_at = None;
            let mut d: Sched<&str> = Schedule::default();
            d.reconcile(full.clone(), group, at(0));
            let mut on_wire: Vec<(Job<&str, Timestamp>, u64)> = Vec::new();
            let mut handed_at: HashMap<&str, u64> = HashMap::new();
            for t in 0..1_500 {
                // One step, a simulated millisecond, is: completions in
                // random order with random outcomes,
                for _ in 0..on_wire.len() {
                    if !rng.chance(0.5) {
                        continue;
                    }
                    let pick = rng.uniform_u64(0, on_wire.len() as u64) as usize;
                    let (job, sent) = on_wire.swap_remove(pick);
                    let result = outcome(&mut rng, sent);
                    let queued = d.trig_queue.len();
                    if d.paths.contains_key(job.key) {
                        d.complete(&job.key, result, at(t));
                        let found_update =
                            job.kind == PollKind::Triggered && d.trig_queue.len() > queued;
                        cascades += u64::from(found_update);
                    } else {
                        // Its own cascade included: nothing is queued.
                        late_completions += 1;
                        late_cascades +=
                            u64::from(matches!(result, Some(PollView::Modified { .. })));
                        let before = fingerprint(&d);
                        assert_eq!(d.complete(&job.key, result, at(t)), Completion::default());
                        assert_eq!(
                            fingerprint(&d),
                            before,
                            "seed {seed}: late completion of {}",
                            job.key
                        );
                    }
                }
                // the swap if it is due (here, where triggers just raised
                // for the path still wait for a driver, and with a poll
                // of it on the wire if polls take time),
                let m3_on_wire = on_wire.iter().any(|(job, _)| job.key == "/m3");
                if d.version() == 1 && t >= remove_after && (zero_latency || m3_on_wire) {
                    assert_eq!(
                        d.reconcile(without.clone(), group, at(t)).removed,
                        vec!["/m3"]
                    );
                    readd_at = Some(t + rng.uniform_u64(1, 200));
                }
                if readd_at == Some(t) {
                    assert!(d.reconcile(full.clone(), group, at(t)).removed.is_empty());
                }
                // and hand-outs, up to six asked for.
                while on_wire.len() < 6 && (zero_latency || rng.chance(0.8)) {
                    let Some(job) = d.next_job(at(t), unix(t)) else {
                        let wake = d.next_wake();
                        if d.in_flight.len() == POLL_WIDTH {
                            // At full width only a completion makes work.
                            assert_eq!(wake, None, "seed {seed} t {t}: a wake at full width");
                            full_width += 1;
                            break;
                        }
                        // Nothing ready: every free path is due later
                        // (one that is not has been lost, and starves),
                        // and the wake instant covers the earliest.
                        let earliest_free = d
                            .paths
                            .iter()
                            .filter(|(p, _)| !d.in_flight.contains_key(*p))
                            .map(|(_, s)| s.due)
                            .min();
                        if let Some(due) = earliest_free {
                            assert!(due > at(t), "seed {seed} t {t}: a free path is overdue");
                            assert!(
                                wake.is_some_and(|w| w <= due),
                                "seed {seed} t {t}: wake {wake:?}"
                            );
                        }
                        break;
                    };
                    assert!(
                        d.paths.contains_key(job.key),
                        "seed {seed}: un-ruled {}",
                        job.key
                    );
                    assert!(
                        on_wire.iter().all(|(j, _)| j.key != job.key),
                        "seed {seed} t {t}: {} handed out twice",
                        job.key
                    );
                    assert!(job.due <= at(t));
                    if zero_latency {
                        // Drained at every instant, nobody is polled
                        // twice at one, whatever cascades.
                        let previous = handed_at.insert(job.key, t);
                        assert_ne!(
                            previous,
                            Some(t),
                            "seed {seed}: {} polled twice at {t}",
                            job.key
                        );
                        let result = outcome(&mut rng, t);
                        d.complete(&job.key, result, at(t));
                    } else {
                        on_wire.push((job, t));
                    }
                }
                assert!(
                    d.in_flight.len() <= POLL_WIDTH,
                    "seed {seed} t {t}: {} out",
                    d.in_flight.len()
                );
                assert_eq!(d.in_flight.len(), on_wire.len(), "seed {seed} t {t}");
            }
            // Every path kept polling on its own schedule to the end.
            for (path, s) in &d.paths {
                assert!(s.polls >= 4, "seed {seed}: {path} polled {} times", s.polls);
            }
        }
        assert!(
            late_completions > 0,
            "no seed completed a poll of the removed path late"
        );
        assert!(
            late_cascades > 0,
            "no late completion had an update to cascade"
        );
        assert!(cascades > 0, "no triggered poll's update triggered anybody");
        assert!(full_width > 0, "no seed filled the width");
    }

    /// At [`POLL_WIDTH`] polls out nothing more is handed out, not even
    /// a due path, and there is no instant to wake at; one completion
    /// frees one slot for the earliest due path, `(due, key)` order.
    #[test]
    fn a_full_width_hands_out_nothing_until_a_completion() {
        let keys = ["/p0", "/p1", "/p2", "/p3", "/p4", "/p5"];
        let mut d = schedule(keys, limd(10), None, at(0));
        d.reschedule(&"/p4", at(5));
        d.reschedule(&"/p5", at(3));
        let now = at(10);
        let out: Vec<_> = (0..POLL_WIDTH)
            .map(|_| d.next_job(now, now).expect("free width"))
            .collect();
        assert_eq!(
            out.iter().map(|j| j.key).collect::<Vec<_>>(),
            ["/p0", "/p1", "/p2", "/p3"]
        );
        assert!(
            d.next_job(now, now).is_none(),
            "/p4 and /p5 are due, but the width is full"
        );
        assert_eq!(d.next_wake(), None);
        // A trigger for a path waiting past the width coalesces into it.
        assert!(d.enqueue_trigger(&"/p4", now));

        d.complete(&out[0].key, QUIET, now);
        let next = d.next_job(now, now).expect("a slot is free");
        assert_eq!(
            (next.kind, next.key, next.due),
            (PollKind::Scheduled, "/p5", at(3))
        );
        assert!(
            d.next_job(now, now).is_none() && d.next_wake().is_none(),
            "full again"
        );
        d.complete(&out[1].key, QUIET, now);
        assert_eq!(d.next_job(now, now).map(|j| j.key), Some("/p4"));
    }
}
