//! Bookkeeping for the keep-alive origin connection pool.
//!
//! The ledger behind each reactor's pool of persistent nonblocking origin
//! connections, with
//!
//! * **miss coalescing** — concurrent misses whose serialized request
//!   bytes match share one *job*; N waiters, one origin fetch;
//! * **connection reuse** — a connection that finishes a response with
//!   keep-alive semantics parks in an idle list and serves the next
//!   queued job without a fresh TCP handshake;
//! * **bounded fan-out** — a static per-origin connection cap (the
//!   reactor's is [`MAX_CONNS_PER_ORIGIN`]); excess jobs queue FIFO and
//!   each finished fetch's socket takes the next one;
//! * **stale-socket retry** — a job whose socket was stale (reused, died
//!   before a response byte, not timed out: `OriginConn::stale`) is
//!   requeued (once) instead of failed.
//!
//! The pool here is pure bookkeeping — no sockets, no I/O — so every
//! transition is unit-testable deterministically. The reactor in
//! [`crate::server`] owns the actual connections (as slab entries) and
//! drives this ledger from its event handlers. The ledger is generic
//! over the waiter payload `W` (the reactor uses the waiting client's
//! slab index; tests use plain integers).

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on simultaneously open connections per origin address
/// (per reactor). Misses beyond the cap queue rather than fan out — the
/// origin sees bounded concurrency no matter how bursty the misses are.
pub const MAX_CONNS_PER_ORIGIN: usize = 32;

/// Identifies one fetch job within a pool.
pub(crate) type JobId = usize;

/// How a submitted miss was filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// An identical fetch was already in flight (or queued); the waiter
    /// was added to it. No new origin work.
    Coalesced(JobId),
    /// A new job was created and queued; the caller should try to start
    /// it ([`PoolCore::claim_idle`] / `PoolCore::can_open`).
    New(JobId),
}

impl Submit {
    /// The job the waiter ended up on, either way.
    pub fn job(self) -> JobId {
        match self {
            Submit::Coalesced(id) | Submit::New(id) => id,
        }
    }
}

/// What remains of a job after a waiter leaves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterLeave {
    /// Other waiters remain; the fetch continues.
    StillWanted,
    /// No waiters remain but a connection is already fetching; let it
    /// finish (the result is discarded, the connection returns to the
    /// pool).
    Orphaned,
    /// No waiters remained and the job was still queued — it has been
    /// dropped entirely.
    Dropped,
}

/// One coalesced fetch: the serialized request plus everyone awaiting
/// its outcome.
#[derive(Debug)]
pub struct Job<W> {
    /// Origin address.
    pub addr: SocketAddr,
    /// Serialized request — the wire bytes *and* the coalescing key
    /// (shared with the key index, so neither side copies it).
    pub request: Arc<[u8]>,
    /// Waiters to deliver the outcome to.
    pub waiters: Vec<W>,
    /// Slab index of the connection fetching this job, once assigned.
    pub assigned: Option<usize>,
    /// Whether the stale-socket retry has been spent.
    pub retried: bool,
}

/// Everything the ledger keeps per origin address. A record is made at
/// the origin's first miss and then stays: an origin that has gone quiet
/// keeps its (empty) map, queue and list, so the next miss finds their
/// capacity and allocates nothing for them.
#[derive(Debug)]
struct Origin {
    addr: SocketAddr,
    /// Coalescing index: request bytes → live job. Lookups borrow the
    /// caller's bytes (`Arc<[u8]>: Borrow<[u8]>`), no key is cloned.
    by_key: HashMap<Arc<[u8]>, JobId>,
    /// Jobs awaiting a connection, FIFO.
    queued: VecDeque<JobId>,
    /// Idle pooled connections (slab index, parked-at), most recently
    /// parked last.
    idle: Vec<(usize, Instant)>,
    /// Open connections (connecting + busy + idle).
    open: usize,
}

/// The per-reactor pool ledger. See the module docs.
#[derive(Debug)]
pub struct PoolCore<W> {
    jobs: Vec<Option<Job<W>>>,
    free_jobs: Vec<usize>,
    /// One record per origin seen; a proxy has one origin, so a scan.
    origins: Vec<Origin>,
    max_per_origin: usize,
}

impl<W> Default for PoolCore<W> {
    fn default() -> Self {
        PoolCore::new(MAX_CONNS_PER_ORIGIN)
    }
}

impl<W> PoolCore<W> {
    /// A ledger bounding each origin to `max_per_origin` connections.
    ///
    /// # Panics
    ///
    /// Panics if `max_per_origin` is zero.
    pub fn new(max_per_origin: usize) -> PoolCore<W> {
        assert!(
            max_per_origin > 0,
            "pool needs at least one connection per origin"
        );
        PoolCore {
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            origins: Vec::new(),
            max_per_origin,
        }
    }

    fn origin(&self, addr: SocketAddr) -> Option<&Origin> {
        self.origins.iter().find(|o| o.addr == addr)
    }

    fn origin_mut(&mut self, addr: SocketAddr) -> Option<&mut Origin> {
        self.origins.iter_mut().find(|o| o.addr == addr)
    }

    /// `addr`'s record, made if this is its first use.
    fn origin_entry(&mut self, addr: SocketAddr) -> &mut Origin {
        let at = self
            .origins
            .iter()
            .position(|o| o.addr == addr)
            .unwrap_or_else(|| {
                self.origins.push(Origin {
                    addr,
                    by_key: HashMap::new(),
                    queued: VecDeque::new(),
                    idle: Vec::new(),
                    open: 0,
                });
                self.origins.len() - 1
            });
        &mut self.origins[at]
    }

    /// Files a miss: coalesces onto an identical live job, or creates
    /// and queues a new one. The coalescing lookup borrows `request`;
    /// only a genuinely new job takes ownership of the bytes.
    pub fn submit(&mut self, addr: SocketAddr, request: Vec<u8>, waiter: W) -> Submit {
        let live = self
            .origin(addr)
            .and_then(|o| o.by_key.get(request.as_slice()))
            .copied();
        if let Some((id, Some(job))) = live.map(|id| (id, self.jobs[id].as_mut())) {
            job.waiters.push(waiter);
            return Submit::Coalesced(id);
        }
        let id = match self.free_jobs.pop() {
            Some(id) => id,
            None => {
                self.jobs.push(None);
                self.jobs.len() - 1
            }
        };
        let request: Arc<[u8]> = request.into();
        let origin = self.origin_entry(addr);
        origin.by_key.insert(Arc::clone(&request), id);
        origin.queued.push_back(id);
        self.jobs[id] = Some(Job {
            addr,
            request,
            waiters: vec![waiter],
            assigned: None,
            retried: false,
        });
        Submit::New(id)
    }

    /// The next queued job for `addr` without removing it.
    pub(crate) fn front_queued(&self, addr: SocketAddr) -> Option<JobId> {
        self.origin(addr)?.queued.front().copied()
    }

    /// Removes and returns the next queued job for `addr`.
    pub fn pop_queued(&mut self, addr: SocketAddr) -> Option<JobId> {
        self.origin_mut(addr)?.queued.pop_front()
    }

    /// Claims the most recently parked idle connection for `addr`.
    pub fn claim_idle(&mut self, addr: SocketAddr) -> Option<usize> {
        self.origin_mut(addr)?.idle.pop().map(|(conn, _)| conn)
    }

    /// Whether another connection to `addr` may be opened.
    pub(crate) fn can_open(&self, addr: SocketAddr) -> bool {
        self.open_len(addr) < self.max_per_origin
    }

    /// Records a connection opened to `addr` (connecting counts).
    pub fn note_opened(&mut self, addr: SocketAddr) {
        self.origin_entry(addr).open += 1;
    }

    /// Records a connection to `addr` closed (for any reason).
    pub(crate) fn note_closed(&mut self, addr: SocketAddr) {
        if let Some(origin) = self.origin_mut(addr) {
            origin.open = origin.open.saturating_sub(1);
        }
    }

    /// Marks `job` as being fetched by connection `conn`.
    pub fn assign(&mut self, job: JobId, conn: usize) {
        if let Some(j) = self.jobs[job].as_mut() {
            j.assigned = Some(conn);
        }
    }

    /// Read access to a job.
    pub fn job(&self, job: JobId) -> Option<&Job<W>> {
        self.jobs.get(job).and_then(Option::as_ref)
    }

    /// Completes (or fails) a job: removes it from every index and
    /// returns it so the caller can deliver to the waiters.
    pub fn complete(&mut self, job: JobId) -> Option<Job<W>> {
        let j = self.jobs.get_mut(job)?.take()?;
        self.free_jobs.push(job);
        if let Some(origin) = self.origin_mut(j.addr) {
            origin.by_key.remove(&j.request[..]);
            if j.assigned.is_none() {
                // Still queued (synchronous failure): unlink it.
                origin.queued.retain(|&id| id != job);
            }
        }
        Some(j)
    }

    /// Whether `job`, whose socket turned out stale, may be retried on a
    /// fresh one: its one retry is unspent and someone still waits on it.
    pub(crate) fn retry_eligible(&self, job: JobId) -> bool {
        self.job(job)
            .is_some_and(|j| !j.retried && !j.waiters.is_empty())
    }

    /// Returns a failed job to the *front* of its origin's queue for the
    /// one-shot stale-socket retry.
    pub(crate) fn requeue_for_retry(&mut self, job: JobId) {
        if let Some(j) = self.jobs[job].as_mut() {
            j.assigned = None;
            j.retried = true;
            let addr = j.addr;
            self.origin_entry(addr).queued.push_front(job);
        }
    }

    /// Removes the waiters matching `leaving` from a job (a client that
    /// closed before its fetch finished) and reports what is left.
    pub(crate) fn leave(&mut self, job: JobId, mut leaving: impl FnMut(&W) -> bool) -> AfterLeave {
        let Some(j) = self.jobs.get_mut(job).and_then(Option::as_mut) else {
            return AfterLeave::Dropped;
        };
        j.waiters.retain(|w| !leaving(w));
        if !j.waiters.is_empty() {
            return AfterLeave::StillWanted;
        }
        if j.assigned.is_some() {
            return AfterLeave::Orphaned;
        }
        self.complete(job);
        AfterLeave::Dropped
    }

    /// Parks a connection as idle for `addr`.
    pub fn release_idle(&mut self, addr: SocketAddr, conn: usize, now: Instant) {
        self.origin_entry(addr).idle.push((conn, now));
    }

    /// Removes a connection from the idle lists (it died while parked).
    /// Returns its origin if it was indeed idle.
    pub(crate) fn forget_idle(&mut self, conn: usize) -> Option<SocketAddr> {
        self.origins.iter_mut().find_map(|origin| {
            let at = origin.idle.iter().position(|&(c, _)| c == conn)?;
            origin.idle.remove(at);
            Some(origin.addr)
        })
    }

    /// Idle connections parked longer than `max_age`, removed from the
    /// ledger and returned (with their origin) for the caller to close.
    pub(crate) fn reap_idle(
        &mut self,
        now: Instant,
        max_age: std::time::Duration,
    ) -> Vec<(usize, SocketAddr)> {
        let mut reaped = Vec::new();
        for origin in &mut self.origins {
            origin.idle.retain(|&(conn, since)| {
                let keep = now.duration_since(since) <= max_age;
                if !keep {
                    reaped.push((conn, origin.addr));
                }
                keep
            });
        }
        reaped
    }

    /// Open connections recorded for `addr`.
    pub(crate) fn open_len(&self, addr: SocketAddr) -> usize {
        self.origin(addr).map_or(0, |o| o.open)
    }
}

/// What the reactor's and this module's tests read of the pool.
#[cfg(test)]
impl<W> PoolCore<W> {
    /// Number of idle pooled connections for `addr`.
    pub(crate) fn idle_len(&self, addr: SocketAddr) -> usize {
        self.origin(addr).map_or(0, |o| o.idle.len())
    }

    /// Number of queued jobs for `addr`.
    pub(crate) fn queued_len(&self, addr: SocketAddr) -> usize {
        self.origin(addr).map_or(0, |o| o.queued.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn identical_requests_coalesce_onto_one_job() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let first = pool.submit(a, b"GET /x".to_vec(), 1);
        let Submit::New(job) = first else {
            panic!("first submit must create the job")
        };
        for waiter in 2..=100 {
            assert_eq!(
                pool.submit(a, b"GET /x".to_vec(), waiter),
                Submit::Coalesced(job),
                "waiter {waiter} must coalesce"
            );
        }
        assert_eq!(pool.queued_len(a), 1, "one job, not one per waiter");
        assert_eq!(pool.job(job).unwrap().waiters.len(), 100);
    }

    #[test]
    fn different_keys_and_origins_do_not_coalesce() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let b = addr(9001);
        assert!(matches!(
            pool.submit(a, b"GET /x".to_vec(), 1),
            Submit::New(_)
        ));
        assert!(matches!(
            pool.submit(a, b"GET /y".to_vec(), 2),
            Submit::New(_)
        ));
        assert!(matches!(
            pool.submit(b, b"GET /x".to_vec(), 3),
            Submit::New(_)
        ));
        assert_eq!(pool.queued_len(a), 2);
        assert_eq!(pool.queued_len(b), 1);
    }

    #[test]
    fn completion_unlinks_the_key_so_later_misses_refetch() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let job = pool.submit(a, b"GET /x".to_vec(), 1).job();
        pool.pop_queued(a);
        pool.assign(job, 7);
        let done = pool.complete(job).unwrap();
        assert_eq!(done.waiters, vec![1]);
        // The key is free again: a new miss is a new fetch.
        assert!(matches!(
            pool.submit(a, b"GET /x".to_vec(), 2),
            Submit::New(_)
        ));
    }

    #[test]
    fn job_slots_are_recycled() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let first = pool.submit(a, b"GET /x".to_vec(), 1).job();
        pool.pop_queued(a);
        pool.assign(first, 0);
        pool.complete(first);
        let second = pool.submit(a, b"GET /y".to_vec(), 2).job();
        assert_eq!(first, second, "freed slot is reused");
    }

    #[test]
    fn queue_caps_fan_out_per_origin() {
        let mut pool: PoolCore<u32> = PoolCore::new(2);
        let a = addr(9000);
        assert!(pool.can_open(a));
        pool.note_opened(a);
        assert!(pool.can_open(a));
        pool.note_opened(a);
        assert!(!pool.can_open(a), "cap reached");
        pool.note_closed(a);
        assert!(pool.can_open(a));
        assert_eq!(pool.open_len(a), 1);
    }

    #[test]
    fn idle_connections_are_claimed_lifo() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let now = Instant::now();
        pool.release_idle(a, 11, now);
        pool.release_idle(a, 12, now);
        // Most recently parked first: its socket is warmest.
        assert_eq!(pool.claim_idle(a), Some(12));
        assert_eq!(pool.claim_idle(a), Some(11));
        assert_eq!(pool.claim_idle(a), None);
    }

    #[test]
    fn idle_reaping_is_age_based() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let old = Instant::now() - Duration::from_secs(60);
        let now = Instant::now();
        pool.release_idle(a, 1, old);
        pool.release_idle(a, 2, now);
        let reaped = pool.reap_idle(now, Duration::from_secs(10));
        assert_eq!(reaped, vec![(1, a)]);
        assert_eq!(pool.idle_len(a), 1);
    }

    #[test]
    fn forget_idle_removes_a_dead_parked_conn() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        pool.release_idle(a, 5, Instant::now());
        assert_eq!(pool.forget_idle(5), Some(a));
        assert_eq!(pool.forget_idle(5), None);
        assert_eq!(pool.idle_len(a), 0);
    }

    #[test]
    fn stale_socket_retry_is_single_shot_and_reuse_only() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let job = pool.submit(a, b"GET /x".to_vec(), 1).job();
        pool.pop_queued(a);
        pool.assign(job, 3);

        // Which failures are stale is `OriginConn::stale`'s rule (its
        // tests are in `conn.rs`); the ledger allows the retry once.
        assert!(pool.retry_eligible(job));
        pool.requeue_for_retry(job);
        assert_eq!(pool.front_queued(a), Some(job));
        assert!(pool.job(job).unwrap().retried);
        // The retry is spent.
        pool.pop_queued(a);
        pool.assign(job, 4);
        assert!(!pool.retry_eligible(job));

        // A job nobody waits on any more is not retried either.
        let orphan = pool.submit(a, b"GET /y".to_vec(), 2).job();
        pool.pop_queued(a);
        pool.assign(orphan, 5);
        pool.leave(orphan, |&w| w == 2);
        assert!(!pool.retry_eligible(orphan));
    }

    #[test]
    fn retry_requeues_at_the_front() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);
        let first = pool.submit(a, b"GET /x".to_vec(), 1).job();
        let second = pool.submit(a, b"GET /y".to_vec(), 2).job();
        pool.pop_queued(a);
        pool.assign(first, 3);
        pool.requeue_for_retry(first);
        // The retried job goes ahead of the still-queued one.
        assert_eq!(pool.pop_queued(a), Some(first));
        assert_eq!(pool.pop_queued(a), Some(second));
    }

    #[test]
    fn leaving_waiters_drop_queued_jobs_but_orphan_running_ones() {
        let mut pool: PoolCore<u32> = PoolCore::default();
        let a = addr(9000);

        // Queued job, last waiter leaves → dropped entirely.
        let queued = pool.submit(a, b"GET /q".to_vec(), 1).job();
        assert_eq!(pool.leave(queued, |&w| w == 1), AfterLeave::Dropped);
        assert_eq!(pool.queued_len(a), 0);
        assert!(pool.job(queued).is_none());

        // Running job: one of two waiters leaves → still wanted; the
        // second leaves → orphaned (connection finishes, result binned).
        let running = pool.submit(a, b"GET /r".to_vec(), 1).job();
        pool.submit(a, b"GET /r".to_vec(), 2);
        pool.pop_queued(a);
        pool.assign(running, 9);
        assert_eq!(pool.leave(running, |&w| w == 1), AfterLeave::StillWanted);
        assert_eq!(pool.leave(running, |&w| w == 2), AfterLeave::Orphaned);
        assert!(pool.job(running).unwrap().waiters.is_empty());
        // Completion still works and frees the key.
        pool.complete(running);
        assert!(matches!(
            pool.submit(a, b"GET /r".to_vec(), 3),
            Submit::New(_)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_cap_rejected() {
        let _ = PoolCore::<u32>::new(0);
    }

    #[test]
    fn can_open_follows_the_shrunken_cap() {
        let a = addr(9000);
        // The cap is what `new` was given: with 2 open, a pool of 3 lets
        // one more open — then no more.
        let mut pool: PoolCore<u32> = PoolCore::new(3);
        pool.note_opened(a);
        pool.note_opened(a);
        assert!(pool.can_open(a));
        pool.note_opened(a);
        assert!(!pool.can_open(a));
        // A pool of one serializes its origin's fetches.
        let mut pool: PoolCore<u32> = PoolCore::new(1);
        assert!(pool.can_open(a));
        pool.note_opened(a);
        assert!(!pool.can_open(a));
        pool.note_closed(a);
        assert!(pool.can_open(a));
    }
}
