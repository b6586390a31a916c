//! Readiness-driven I/O: a hand-rolled `epoll` wrapper.
//!
//! The live daemons (`mutcon-live`) serve every connection from a single
//! reactor thread instead of a thread per connection. This module is the
//! substrate for that: a zero-dependency, level-triggered [`Poller`] over
//! the raw Linux `epoll` syscalls, an eventfd-backed [`Waker`] so other
//! threads can interrupt a blocked `epoll_wait` (shutdown, new work), and
//! a [`connect_nonblocking`] helper so upstream fetches never block the
//! reactor either.
//!
//! The workspace is intentionally dependency-free, so instead of `libc`
//! or `mio` the handful of symbols needed are declared directly against
//! the C library every Rust binary on Linux already links. All `unsafe`
//! in the workspace lives in this module, behind a safe API.
//!
//! ```
//! use mutcon_sim::reactor::{Events, Interest, Poller};
//! use std::net::TcpListener;
//! use std::os::fd::AsRawFd;
//!
//! let poller = Poller::new().unwrap();
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! listener.set_nonblocking(true).unwrap();
//! poller.register(listener.as_raw_fd(), 7, Interest::READABLE).unwrap();
//!
//! let mut events = Events::with_capacity(64);
//! // Nothing is connecting: a zero timeout returns immediately, empty.
//! let n = poller.wait(&mut events, Some(std::time::Duration::ZERO)).unwrap();
//! assert_eq!(n, 0);
//! ```

#![allow(unsafe_code)]

pub mod backend;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

pub use backend::{BackendCounters, BackendKind, InterestLedger};

/// The raw syscall surface. Linux-only, declared against the platform C
/// library (always linked by std) instead of the `libc` crate.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_NONBLOCK: c_int = 0o4000;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;

    pub const EINTR: i32 = 4;
    pub const EINPROGRESS: i32 = 115;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_REUSEADDR: c_int = 2;
    pub const SO_REUSEPORT: c_int = 15;

    pub const RLIMIT_NOFILE: c_int = 7;

    /// `struct rlimit64` for `prlimit64(2)`.
    #[repr(C)]
    pub struct RLimit64 {
        pub cur: u64,
        pub max: u64,
    }

    /// `struct epoll_event`; packed on x86-64 (the kernel ABI), naturally
    /// aligned everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// IPv4 `struct sockaddr_in` (port and address in network byte order).
    #[repr(C)]
    pub struct SockAddrIn {
        pub family: u16,
        pub port: u16,
        pub addr: u32,
        pub zero: [u8; 8],
    }

    /// IPv6 `struct sockaddr_in6`.
    #[repr(C)]
    pub struct SockAddrIn6 {
        pub family: u16,
        pub port: u16,
        pub flowinfo: u32,
        pub addr: [u8; 16],
        pub scope_id: u32,
    }

    /// `struct iovec` for scatter/gather I/O.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *const c_void,
        pub len: usize,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
        pub fn accept4(fd: c_int, addr: *mut c_void, addrlen: *mut u32, flags: c_int) -> c_int;
        pub fn prlimit64(
            pid: c_int,
            resource: c_int,
            new_limit: *const RLimit64,
            old_limit: *mut RLimit64,
        ) -> c_int;
    }
}

/// Converts a `-1` syscall return into the current `errno` as an
/// [`io::Error`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness a registration asks for. Combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Wait for the fd to become readable (or for peer close).
    pub const READABLE: Interest = Interest(sys::EPOLLIN | sys::EPOLLRDHUP);
    /// Wait for the fd to become writable.
    pub const WRITABLE: Interest = Interest(sys::EPOLLOUT);
    /// No readiness interest; errors and hang-ups are still reported
    /// (epoll always delivers `EPOLLERR`/`EPOLLHUP`).
    pub const NONE: Interest = Interest(0);

    fn bits(self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd is readable (data, or the peer closed its write side).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error or hang-up state; the connection is over.
    pub closed: bool,
}

/// Reusable buffer of readiness notifications.
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Events {
        assert!(capacity > 0, "events buffer needs capacity");
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait delivered nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the delivered events.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the (possibly packed) struct before testing bits.
            let bits = raw.events;
            let data = raw.data;
            Event {
                token: data as usize,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            }
        })
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events")
            .field("capacity", &self.buf.len())
            .field("len", &self.len)
            .finish()
    }
}

/// A level-triggered `epoll` instance.
///
/// Registrations map a raw fd to a caller-chosen `token`; [`Poller::wait`]
/// reports which tokens are ready. The caller keeps ownership of every
/// registered fd and must [`Poller::deregister`] (or close) it before
/// reusing its token.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.bits(),
            data: token as u64,
        };
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. the fd is already registered).
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes an existing registration's interest (and/or token).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes a registration. Closing the fd removes it implicitly; this
    /// exists for fds that outlive their registration.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    /// Blocks until at least one registered fd is ready, `timeout`
    /// expires (`None` waits forever), or a [`Waker`] fires. Fills
    /// `events` and returns the count. `EINTR` is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round up so a 0.4 ms deadline doesn't busy-spin at 0.
            Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
        };
        events.len = 0;
        loop {
            let ret = unsafe {
                sys::epoll_wait(
                    self.epfd.as_raw_fd(),
                    events.buf.as_mut_ptr(),
                    events.buf.len() as i32,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => {
                    events.len = n as usize;
                    return Ok(events.len);
                }
                Err(e) if e.raw_os_error() == Some(sys::EINTR) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epfd.as_raw_fd())
            .finish()
    }
}

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from another thread.
///
/// Backed by an `eventfd` registered like any other fd: when woken, the
/// wait reports the waker's token readable and [`Waker::drain`] resets
/// it. Cloning shares the same eventfd.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    /// Creates the eventfd (non-blocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates the `eventfd` failure.
    pub fn new() -> io::Result<Waker> {
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker {
            fd: Arc::new(unsafe { OwnedFd::from_raw_fd(fd) }),
        })
    }

    /// The fd to register with the poller (readable interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Makes the poller's next (or current) wait report the waker
    /// readable. Safe to call from any thread, any number of times.
    pub fn wake(&self) {
        let one: u64 = 1;
        // An EAGAIN here means the counter is already saturated — the
        // reactor is certainly going to wake; nothing to handle.
        let _ = unsafe {
            sys::write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Resets the waker so it can fire again (call when its token is
    /// reported readable).
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        let _ = unsafe {
            sys::read(
                self.fd.as_raw_fd(),
                (&mut counter as *mut u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("fd", &self.fd.as_raw_fd())
            .finish()
    }
}

/// A `SocketAddr` encoded as the C sockaddr the syscalls expect.
enum SockAddrStorage {
    V4(sys::SockAddrIn),
    V6(sys::SockAddrIn6),
}

impl SockAddrStorage {
    fn encode(addr: SocketAddr) -> (i32, SockAddrStorage) {
        match addr {
            SocketAddr::V4(v4) => (
                sys::AF_INET,
                SockAddrStorage::V4(sys::SockAddrIn {
                    family: sys::AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: u32::from_ne_bytes(v4.ip().octets()),
                    zero: [0; 8],
                }),
            ),
            SocketAddr::V6(v6) => (
                sys::AF_INET6,
                SockAddrStorage::V6(sys::SockAddrIn6 {
                    family: sys::AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                }),
            ),
        }
    }

    fn as_ptr(&self) -> *const std::os::raw::c_void {
        match self {
            SockAddrStorage::V4(v4) => (v4 as *const sys::SockAddrIn).cast(),
            SockAddrStorage::V6(v6) => (v6 as *const sys::SockAddrIn6).cast(),
        }
    }

    fn len(&self) -> u32 {
        match self {
            SockAddrStorage::V4(_) => std::mem::size_of::<sys::SockAddrIn>() as u32,
            SockAddrStorage::V6(_) => std::mem::size_of::<sys::SockAddrIn6>() as u32,
        }
    }
}

/// Starts a non-blocking TCP connect to `addr` and returns the socket
/// immediately — usually before the handshake finishes.
///
/// Register the stream for [`Interest::WRITABLE`]; once writable, the
/// connect has concluded and `TcpStream::take_error()` tells whether it
/// succeeded (`None`) or failed (`Some(error)`).
///
/// # Errors
///
/// Returns immediately-diagnosable failures (no route, bad fd); an
/// asynchronous refusal surfaces later via `take_error`.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let (domain, storage) = SockAddrStorage::encode(addr);
    let fd = cvt(unsafe {
        sys::socket(
            domain,
            sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            0,
        )
    })?;
    // Wrap first so the fd is closed on every early-return path.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let ret = unsafe { sys::connect(fd, storage.as_ptr(), storage.len()) };
    if ret < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(sys::EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Creates a non-blocking TCP listener on `addr` with `SO_REUSEPORT`
/// (and `SO_REUSEADDR`) set before binding.
///
/// Several listeners created this way may bind the *same* address: the
/// kernel then load-balances incoming connections across them, which is
/// how a multi-reactor server shards its accept path without a shared
/// accept lock — each reactor owns one listener on the shared port.
/// Bind the first listener with port 0 (ephemeral), read its local
/// address, and bind the rest to that concrete address.
///
/// # Errors
///
/// Propagates socket/setsockopt/bind/listen failures.
pub fn listen_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    let (domain, storage) = SockAddrStorage::encode(addr);
    let fd = cvt(unsafe {
        sys::socket(
            domain,
            sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            0,
        )
    })?;
    // Wrap first so the fd is closed on every early-return path.
    let listener = unsafe { TcpListener::from_raw_fd(fd) };
    let one: i32 = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        cvt(unsafe {
            sys::setsockopt(
                fd,
                sys::SOL_SOCKET,
                opt,
                (&one as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        })?;
    }
    cvt(unsafe { sys::bind(fd, storage.as_ptr(), storage.len()) })?;
    cvt(unsafe { sys::listen(fd, 1024) })?;
    Ok(listener)
}

/// Raises the process's soft `RLIMIT_NOFILE` toward `cap` via a raw
/// `prlimit64(2)` call on the current process. When `cap` exceeds the
/// hard limit, raising the hard limit too is *attempted* — that
/// succeeds with `CAP_SYS_RESOURCE` (root in a container) and fails
/// `EPERM` otherwise, in which case the soft limit settles at the hard
/// limit.
///
/// Returns `(previous_soft, new_soft)`; the two are equal when the soft
/// limit was already at or above the target. A 10k-connection proxy plus
/// its origin pool needs ~20k fds, far past the usual 1024 default, so
/// the event loop calls this once at startup.
///
/// # Errors
///
/// Propagates `prlimit64` failures (e.g. `EPERM` in a locked-down
/// sandbox); the caller should treat that as "run with what we have".
pub fn raise_nofile_limit(cap: u64) -> io::Result<(u64, u64)> {
    let mut old = sys::RLimit64 { cur: 0, max: 0 };
    cvt(unsafe { sys::prlimit64(0, sys::RLIMIT_NOFILE, std::ptr::null(), &mut old) })?;
    if old.cur >= cap {
        return Ok((old.cur, old.cur));
    }
    if cap > old.max {
        // Privileged path: lift the hard limit with the soft one.
        let new = sys::RLimit64 { cur: cap, max: cap };
        if cvt(unsafe { sys::prlimit64(0, sys::RLIMIT_NOFILE, &new, std::ptr::null_mut()) })
            .is_ok()
        {
            return Ok((old.cur, cap));
        }
    }
    let target = old.max.min(cap);
    if old.cur >= target {
        return Ok((old.cur, old.cur));
    }
    let new = sys::RLimit64 {
        cur: target,
        max: old.max,
    };
    cvt(unsafe { sys::prlimit64(0, sys::RLIMIT_NOFILE, &new, std::ptr::null_mut()) })?;
    Ok((old.cur, target))
}

/// Most slices a single [`writev`] call accepts. Callers with more
/// segments must coalesce; the response path only ever needs two
/// (contiguous head, shared body).
pub const MAX_IOVECS: usize = 8;

/// Gathers up to [`MAX_IOVECS`] slices into one `writev(2)` syscall and
/// returns how many bytes the kernel took (possibly a partial prefix
/// spanning a slice boundary).
///
/// Empty slices are passed through; the kernel skips them. This is the
/// zero-copy half of the response path: the shared body slice goes to
/// the socket straight from the cache entry's allocation.
///
/// # Panics
///
/// Panics if more than [`MAX_IOVECS`] slices are passed.
///
/// # Errors
///
/// Propagates the syscall failure (`WouldBlock` when the socket's send
/// buffer is full).
pub fn writev(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    assert!(bufs.len() <= MAX_IOVECS, "too many iovecs");
    let mut iov = [sys::IoVec {
        base: std::ptr::null(),
        len: 0,
    }; MAX_IOVECS];
    for (slot, buf) in iov.iter_mut().zip(bufs) {
        slot.base = buf.as_ptr().cast();
        slot.len = buf.len();
    }
    let ret = unsafe { sys::writev(fd, iov.as_ptr(), bufs.len() as i32) };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret as usize)
    }
}

/// Accepts one pending connection with `accept4(2)`, atomically marking
/// the new socket non-blocking and close-on-exec.
///
/// The plain `TcpListener::accept` path costs an extra `fcntl` per
/// connection to flip `O_NONBLOCK` afterwards; folding the flag into the
/// accept matters when a reactor drains a deep backlog in one batch.
/// The peer address is not requested (another small saving) — use
/// `TcpStream::peer_addr` on the rare path that needs it.
///
/// # Errors
///
/// Propagates the syscall failure (`WouldBlock` when the backlog is
/// empty).
pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<TcpStream> {
    let fd = unsafe {
        sys::accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
        )
    };
    if fd < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(unsafe { TcpStream::from_raw_fd(fd) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn reports_accept_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(8);
        assert_eq!(
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
            0,
            "no pending connection yet"
        );

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 42);
        assert!(ev.readable);
        assert!(!ev.closed);
    }

    #[test]
    fn distinguishes_read_and_write_interest() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        // A fresh connected socket is writable but not readable.
        poller
            .register(client.as_raw_fd(), 1, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().unwrap();
        assert!(ev.writable);
        assert!(!ev.readable);

        // Narrow to readable-only: nothing to read yet → no events.
        poller
            .modify(client.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        assert_eq!(
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
            0
        );

        // Data arrives → readable.
        (&server_side).write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().next().unwrap().readable);

        // Peer closes → readable (RDHUP) so the EOF read is triggered.
        drop(server_side);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().unwrap();
        assert!(ev.readable);
        let mut sink = Vec::new();
        let mut c = client;
        let mut chunk = [0u8; 16];
        loop {
            match c.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => sink.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(sink, b"ping");
    }

    #[test]
    fn deregister_silences_events() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(4);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn waker_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), 0, Interest::READABLE)
            .unwrap();

        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });

        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().readable);
        waker.drain();
        // Drained: no longer readable.
        assert_eq!(
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
            0
        );
        handle.join().unwrap();
    }

    #[test]
    fn nonblocking_connect_completes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(addr).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(stream.as_raw_fd(), 5, Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
        assert!(stream.take_error().unwrap().is_none(), "connect succeeded");
        assert_eq!(stream.peer_addr().unwrap(), addr);
    }

    #[test]
    fn nonblocking_connect_refusal_surfaces() {
        // Bind, learn the port, drop: nobody listens there afterwards.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let stream = match connect_nonblocking(addr) {
            // Loopback refusals may be synchronous.
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
                return;
            }
            Ok(s) => s,
        };
        let poller = Poller::new().unwrap();
        poller
            .register(stream.as_raw_fd(), 5, Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            stream.take_error().unwrap().is_some(),
            "refused connect must surface via take_error"
        );
    }

    #[test]
    fn zero_capacity_events_rejected() {
        let result = std::panic::catch_unwind(|| Events::with_capacity(0));
        assert!(result.is_err());
    }

    #[test]
    fn reuseport_listeners_share_one_port() {
        // First listener picks the ephemeral port; siblings join it.
        let first = listen_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = listen_reuseport(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);

        // Both are nonblocking: accept with nothing pending is WouldBlock,
        // not a hang.
        for listener in [&first, &second] {
            match listener.accept() {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                Ok(_) => panic!("nothing connected yet"),
            }
        }

        // A connection lands on exactly one of the two listeners.
        let _client = TcpStream::connect(addr).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut accepted = 0;
        while std::time::Instant::now() < deadline && accepted == 0 {
            for listener in [&first, &second] {
                if listener.accept().is_ok() {
                    accepted += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(accepted, 1, "kernel must route the connect to one shard");
    }

    #[test]
    fn writev_gathers_slices_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();

        let n = writev(
            sender.as_raw_fd(),
            &[b"head: 1\r\n", b"", b"\r\n", b"shared body"],
        )
        .unwrap();
        assert_eq!(n, b"head: 1\r\n\r\nshared body".len());

        let mut got = vec![0u8; n];
        receiver.read_exact(&mut got).unwrap();
        assert_eq!(got, b"head: 1\r\n\r\nshared body");
    }

    #[test]
    fn writev_reports_partial_progress() {
        // A tiny send buffer forces the kernel to take only a prefix of a
        // large gather, exercising the partial-write accounting callers
        // must handle.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        sender.set_nonblocking(true).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();

        let head = vec![b'h'; 64];
        let body = vec![b'b'; 4 * 1024 * 1024];
        let mut sent = 0;
        loop {
            match writev(sender.as_raw_fd(), &[&head[sent.min(64)..], &body]) {
                Ok(n) => {
                    assert!(n > 0);
                    sent += n;
                    if sent >= 64 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(sent > 0, "at least one writev must land");
        assert!(
            sent < 64 + body.len(),
            "a 4 MiB gather cannot fit a socket buffer in one call"
        );
        let mut got = vec![0u8; sent.min(64)];
        receiver.read_exact(&mut got).unwrap();
        assert!(got.iter().all(|&b| b == b'h'));
    }

    #[test]
    fn accept_nonblocking_yields_nonblocking_sockets() {
        let listener = listen_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();

        // Empty backlog → WouldBlock, not a hang.
        match accept_nonblocking(&listener) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(_) => panic!("nothing connected yet"),
        }

        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            match accept_nonblocking(&listener) {
                Ok(s) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "accept timed out");
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("{e}"),
            }
        };

        // The accepted socket must already be non-blocking: a read with no
        // data returns WouldBlock immediately instead of hanging.
        let mut chunk = [0u8; 8];
        match (&accepted).read(&mut chunk) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(n) => panic!("unexpected read of {n} bytes"),
        }

        // And it is a working full-duplex socket.
        (&accepted).write_all(b"hello").unwrap();
        let mut got = [0u8; 5];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
    }

    #[test]
    fn reuseport_listener_registers_with_poller() {
        let listener = listen_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().readable);
    }
}
