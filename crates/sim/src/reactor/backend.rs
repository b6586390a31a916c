//! The live engine's I/O path: [`EpollBackend`].
//!
//! The live engine (`mutcon_live::server`) drives readiness —
//! register/interest/deregister/wait/wake — through [`EpollBackend`]
//! instead of calling [`Poller`](super::Poller) directly; the data
//! calls (`accept4`, `read`, `write`, `writev`) it makes on the sockets
//! themselves. It is the classic level-triggered epoll reactor with
//! **lazy, coalesced interest tracking**: interest changes land in a
//! per-token [`InterestLedger`] cell and only the net desired-vs-kernel
//! diff is flushed as `epoll_ctl(MOD)` once per event-loop turn, so a
//! read→write→read keep-alive cycle that used to cost 2–3 `epoll_ctl`
//! syscalls per request costs zero.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use super::{Event, Events, Interest, Poller, Waker};

/// The reactor's I/O path. One variant: the name stays only because
/// `benchmark/` (read-only here) still takes a `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Level-triggered epoll with coalesced interest updates.
    Epoll,
}

impl BackendKind {
    /// Stable lowercase name; kept for the benchmark's report line.
    pub fn label(self) -> &'static str {
        "epoll"
    }

    /// `Some` for `epoll`, `None` for anything else; kept for the
    /// benchmark's `--backend` flag.
    pub fn parse(s: &str) -> Option<BackendKind> {
        s.trim().eq_ignore_ascii_case("epoll").then_some(BackendKind::Epoll)
    }
}

/// Monotonic syscall-economy counters, snapshotted by the engine once
/// per event-loop turn and exported as deltas into `EngineMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Kernel interest operations actually issued (`epoll_ctl` ADD+MOD).
    pub epoll_ctl_calls: u64,
    /// Interest transitions absorbed by the ledger before reaching the
    /// kernel (the syscalls the coalescing saved).
    pub interest_coalesced: u64,
}

impl BackendCounters {
    /// `self - prev`, saturating (counters are monotonic, so this is the
    /// activity since `prev` was snapshotted).
    pub fn since(self, prev: BackendCounters) -> BackendCounters {
        BackendCounters {
            epoll_ctl_calls: self.epoll_ctl_calls.saturating_sub(prev.epoll_ctl_calls),
            interest_coalesced: self
                .interest_coalesced
                .saturating_sub(prev.interest_coalesced),
        }
    }
}

/// Per-token desired-vs-kernel interest bookkeeping: the coalescing
/// core, pure (no syscalls) and unit-testable.
///
/// Each registered token holds a cell with the interest the engine
/// *wants* and the interest the kernel *has*. `set` only marks the cell
/// dirty; `flush` walks the dirty list and applies the net diff. A
/// transition that returns to the kernel-registered value before a flush
/// — the read→write→read keep-alive cycle — cancels out entirely and is
/// counted in [`InterestLedger::coalesced`].
#[derive(Debug, Default)]
pub struct InterestLedger {
    cells: Vec<Option<Cell>>,
    dirty: Vec<usize>,
    /// Kernel interest operations issued by `flush` so far.
    pub mods_issued: u64,
    /// Interest transitions absorbed before reaching the kernel.
    pub coalesced: u64,
}

#[derive(Debug)]
struct Cell {
    fd: RawFd,
    desired: Interest,
    /// What the kernel currently has.
    registered: Interest,
    dirty: bool,
}

impl InterestLedger {
    /// Creates an empty ledger.
    pub fn new() -> InterestLedger {
        InterestLedger::default()
    }

    /// Tracks `token` with the kernel registration already applied by
    /// the caller (eager ADD); only future changes go through the
    /// ledger.
    pub fn insert_applied(&mut self, token: usize, fd: RawFd, interest: Interest) {
        if token >= self.cells.len() {
            self.cells.resize_with(token + 1, || None);
        }
        self.cells[token] = Some(Cell {
            fd,
            desired: interest,
            registered: interest,
            dirty: false,
        });
    }

    /// Records the interest the engine now wants for `token`. No
    /// syscalls happen here; redundant and self-cancelling transitions
    /// are absorbed (counted in [`InterestLedger::coalesced`]).
    pub fn set(&mut self, token: usize, interest: Interest) {
        let Some(cell) = self.cells.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if cell.desired == interest {
            return;
        }
        cell.desired = interest;
        if cell.dirty {
            // A pending change was re-changed (or reverted) before any
            // kernel op: one syscall saved either way.
            self.coalesced += 1;
            if cell.registered == interest {
                cell.dirty = false;
            }
        } else if cell.registered != interest {
            cell.dirty = true;
            self.dirty.push(token);
        }
    }

    /// Stops tracking `token`, returning its fd. No kernel op: the
    /// caller closes the fd, which detaches it.
    pub fn remove(&mut self, token: usize) -> Option<RawFd> {
        self.cells
            .get_mut(token)
            .and_then(Option::take)
            .map(|c| c.fd)
    }

    /// Applies every pending net change through `apply(fd, token,
    /// desired)`; each successful call counts as one kernel op in
    /// [`InterestLedger::mods_issued`]. A failed apply leaves the cell
    /// dirty for the next flush.
    pub fn flush(&mut self, mut apply: impl FnMut(RawFd, usize, Interest) -> io::Result<()>) {
        if self.dirty.is_empty() {
            return;
        }
        let mut retry = Vec::new();
        for token in std::mem::take(&mut self.dirty) {
            let Some(cell) = self.cells.get_mut(token).and_then(Option::as_mut) else {
                continue; // removed since it was marked dirty
            };
            if !cell.dirty {
                continue; // the change cancelled out
            }
            match apply(cell.fd, token, cell.desired) {
                Ok(()) => {
                    cell.registered = cell.desired;
                    cell.dirty = false;
                    self.mods_issued += 1;
                }
                Err(_) => retry.push(token),
            }
        }
        self.dirty = retry;
    }
}

/// The existing [`Poller`] plus the interest ledger, so interest churn
/// within one event-loop turn never reaches the kernel. Registrations
/// ADD eagerly (so accept-path errors surface where they can be
/// handled); only MODs are lazy.
///
/// Contracts the engine relies on:
///
/// * Tokens are small dense integers (slab indices); the ledger indexes
///   an array by them.
/// * [`EpollBackend::set_interest`] is cheap and may be called many
///   times per turn; only the net change (diffed at the next
///   [`EpollBackend::wait`]) reaches the kernel.
/// * [`EpollBackend::deregister`] is called immediately before the fd is
///   closed, which is what detaches it from the kernel.
/// * The poller is level-triggered and every readable registration
///   carries `EPOLLRDHUP`, so a reader may stop at a short read: more
///   data or EOF raises a new event.
pub struct EpollBackend {
    poller: Poller,
    ledger: InterestLedger,
    waker: Waker,
    waker_token: usize,
    epoll_events: Events,
    adds_issued: u64,
}

impl EpollBackend {
    /// Creates the epoll instance and its waker, registering the waker
    /// under `waker_token`.
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation failures.
    pub fn new(waker_token: usize) -> io::Result<EpollBackend> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(waker.as_raw_fd(), waker_token, Interest::READABLE)?;
        let mut ledger = InterestLedger::new();
        ledger.insert_applied(waker_token, waker.as_raw_fd(), Interest::READABLE);
        Ok(EpollBackend {
            poller,
            ledger,
            waker,
            waker_token,
            epoll_events: Events::with_capacity(1024),
            adds_issued: 1,
        })
    }

    /// Registers a socket (connected, connecting or listening) under
    /// `token`.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` failure.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        debug_assert!(token != self.waker_token, "token collides with waker");
        self.poller.register(fd, token, interest)?;
        self.adds_issued += 1;
        self.ledger.insert_applied(token, fd, interest);
        Ok(())
    }

    /// Records the desired interest for `token`; flushed (coalesced) at
    /// the next [`EpollBackend::wait`].
    pub fn set_interest(&mut self, token: usize, interest: Interest) {
        self.ledger.set(token, interest);
    }

    /// Forgets `token`. No `EPOLL_CTL_DEL`: the engine closes the fd
    /// right afterwards, which removes the registration for free.
    pub fn deregister(&mut self, token: usize) {
        self.ledger.remove(token);
    }

    /// Flushes pending interest changes, then blocks until readiness,
    /// `timeout` (None = forever), or a wake. Fills `events`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let poller = &self.poller;
        self.ledger.flush(|fd, token, interest| poller.modify(fd, token, interest));
        events.clear();
        self.poller.wait(&mut self.epoll_events, timeout)?;
        events.extend(self.epoll_events.iter());
        Ok(())
    }

    /// A handle other threads use to interrupt [`EpollBackend::wait`].
    pub fn wake_handle(&self) -> Waker {
        self.waker.clone()
    }

    /// Resets the wake signal (call when the waker token reports
    /// readable).
    pub fn drain_waker(&self) {
        self.waker.drain();
    }

    /// Monotonic syscall-economy counters.
    pub fn counters(&self) -> BackendCounters {
        BackendCounters {
            epoll_ctl_calls: self.adds_issued + self.ledger.mods_issued,
            interest_coalesced: self.ledger.coalesced,
        }
    }
}

impl std::fmt::Debug for EpollBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpollBackend")
            .field("poller", &self.poller)
            .field("adds_issued", &self.adds_issued)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::accept_nonblocking;
    use super::*;
    use std::cell::RefCell;

    /// Satellite: the desired-vs-registered diff must issue zero
    /// redundant kernel ops across read→write→read keep-alive cycles.
    #[test]
    fn ledger_coalesces_keepalive_interest_cycles() {
        let mut ledger = InterestLedger::new();
        ledger.insert_applied(7, 33, Interest::READABLE);

        let applied: RefCell<Vec<(usize, Interest)>> = RefCell::new(Vec::new());
        let flush = |ledger: &mut InterestLedger| {
            ledger.flush(|_fd, token, interest| {
                applied.borrow_mut().push((token, interest));
                Ok(())
            });
        };

        // 100 keep-alive requests: each flips READABLE → WRITABLE (body
        // queued) → READABLE (flushed inside the same turn).
        for _ in 0..100 {
            ledger.set(7, Interest::WRITABLE);
            ledger.set(7, Interest::READABLE);
            flush(&mut ledger);
        }

        assert!(
            applied.borrow().is_empty(),
            "self-cancelling cycles must never reach the kernel"
        );
        assert_eq!(ledger.mods_issued, 0);
        assert_eq!(ledger.coalesced, 100, "one absorbed transition per cycle");

        // A transition that is still pending at flush time goes through
        // exactly once.
        ledger.set(7, Interest::WRITABLE);
        flush(&mut ledger);
        assert_eq!(applied.borrow().as_slice(), &[(7, Interest::WRITABLE)]);
        assert_eq!(ledger.mods_issued, 1);

        // Setting the same value again is a no-op, not a mod.
        ledger.set(7, Interest::WRITABLE);
        flush(&mut ledger);
        assert_eq!(ledger.mods_issued, 1);
    }

    #[test]
    fn ledger_re_dirty_after_flush_counts_once() {
        let mut ledger = InterestLedger::new();
        ledger.insert_applied(0, 10, Interest::READABLE);
        ledger.set(0, Interest::WRITABLE);
        ledger.set(0, Interest::NONE); // re-change before flush: coalesced
        ledger.flush(|_, _, interest| {
            assert_eq!(interest, Interest::NONE);
            Ok(())
        });
        assert_eq!(ledger.mods_issued, 1);
        assert_eq!(ledger.coalesced, 1);
    }

    #[test]
    fn ledger_remove_drops_pending_work() {
        let mut ledger = InterestLedger::new();
        ledger.insert_applied(1, 20, Interest::READABLE);
        ledger.set(1, Interest::WRITABLE);
        assert_eq!(ledger.remove(1), Some(20));
        ledger.flush(|_, _, _| panic!("removed token must not flush"));
        ledger.set(1, Interest::READABLE); // unknown token: ignored
        ledger.flush(|_, _, _| panic!("an unknown token must not flush"));
    }

    #[test]
    fn ledger_failed_apply_retries_next_flush() {
        let mut ledger = InterestLedger::new();
        ledger.insert_applied(2, 30, Interest::READABLE);
        ledger.set(2, Interest::WRITABLE);
        ledger.flush(|_, _, _| Err(io::Error::from(io::ErrorKind::Other)));
        assert_eq!(ledger.mods_issued, 0);
        let mut ok = 0;
        ledger.flush(|_, _, _| {
            ok += 1;
            Ok(())
        });
        assert_eq!(ok, 1);
        assert_eq!(ledger.mods_issued, 1);
    }

    #[test]
    fn backend_kind_parse_accepts_only_epoll() {
        assert_eq!(BackendKind::parse("epoll"), Some(BackendKind::Epoll));
        assert_eq!(BackendKind::parse(" EPOLL "), Some(BackendKind::Epoll));
        assert_eq!(BackendKind::parse("io_uring"), None);
        assert_eq!(BackendKind::parse("kqueue"), None);
        assert_eq!(BackendKind::Epoll.label(), "epoll");
    }

    #[test]
    fn epoll_backend_round_trip() {
        use std::os::fd::AsRawFd;

        let mut backend = EpollBackend::new(1).unwrap();
        let listener = super::super::listen_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        backend
            .register(listener.as_raw_fd(), 0, Interest::READABLE)
            .unwrap();

        let client = std::net::TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));

        use std::io::{Read as _, Write as _};
        let accepted = accept_nonblocking(&listener).unwrap();
        let tok = 5;
        backend
            .register(accepted.as_raw_fd(), tok, Interest::READABLE)
            .unwrap();

        // Nothing to read yet: the accepted socket is nonblocking.
        let mut chunk = [0u8; 8];
        let err = (&accepted).read(&mut chunk).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        (&client).write_all(b"ping").unwrap();
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == tok && e.readable));
        let n = (&accepted).read(&mut chunk).unwrap();
        assert_eq!(&chunk[..n], b"ping");

        let before = backend.counters();
        // Keep-alive style churn coalesces to nothing.
        backend.set_interest(tok, Interest::WRITABLE);
        backend.set_interest(tok, Interest::READABLE);
        backend
            .wait(&mut events, Some(Duration::ZERO))
            .unwrap();
        let after = backend.counters();
        assert_eq!(after.epoll_ctl_calls, before.epoll_ctl_calls);
        assert_eq!(
            after.interest_coalesced,
            before.interest_coalesced + 1
        );

        backend.deregister(tok);
        drop(accepted);
    }

    #[test]
    fn epoll_backend_waker_round_trip() {
        let mut backend = EpollBackend::new(1).unwrap();
        let waker = backend.wake_handle();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        backend
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        backend.drain_waker();
        handle.join().unwrap();
    }

    #[test]
    fn raise_nofile_limit_reports_current() {
        let (before, after) = super::super::raise_nofile_limit(64).unwrap();
        // The cap is far below any sane soft limit: nothing changes.
        assert_eq!(before, after);
    }
}
