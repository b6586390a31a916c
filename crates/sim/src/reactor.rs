//! Readiness-driven I/O: a hand-rolled `epoll` wrapper.
//!
//! The live daemons (`mutcon-live`) serve every connection from a single
//! reactor thread instead of a thread per connection. This module is the
//! substrate for that: a zero-dependency, level-triggered [`Poller`] over
//! the raw Linux `epoll` syscalls, a [`Waker`] (a std socket pair) so
//! other threads can interrupt a blocked `epoll_wait` (shutdown, new
//! work), a [`connect_nonblocking`] helper so upstream fetches never
//! block the reactor either, [`listen_reuseport`] for the per-reactor
//! listeners and [`raise_nofile_limit`].
//!
//! It wraps only what std cannot do: epoll, `SO_REUSEPORT`, nonblocking
//! connect and `prlimit64`. Accepting is std's `TcpListener::accept`, and
//! the waker is std's `UnixStream::pair`. Sockets are IPv4 only, as every listener and
//! origin here is: an IPv6 address is `ErrorKind::Unsupported`. The
//! workspace is intentionally dependency-free, so instead of `libc` or
//! `mio` the handful of symbols needed are declared directly against the
//! C library every Rust binary on Linux already links, behind a safe API.
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
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_long, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use backend::BackendKind;

/// The raw syscall surface. Linux-only, declared against the platform C
/// library (always linked by std) instead of the `libc` crate.
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EPOLL_CTL_ADD: c_int = 1;
    pub(crate) const EPOLL_CTL_MOD: c_int = 3;

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    pub(crate) const AF_INET: c_int = 2;
    pub(crate) const SOCK_STREAM: c_int = 1;
    pub(crate) const SOCK_NONBLOCK: c_int = 0o4000;
    pub(crate) const SOCK_CLOEXEC: c_int = 0o2000000;

    pub const EINTR: i32 = 4;
    pub(crate) const ENOSYS: i32 = 38;

    /// `epoll_pwait2(2)` (Linux 5.11), numbered alike on every
    /// architecture; called through `syscall(2)`, which every C library
    /// has, where the wrapper needs glibc 2.35.
    pub(crate) const SYS_EPOLL_PWAIT2: c_long = 441;
    pub(crate) const EINPROGRESS: i32 = 115;

    pub(crate) const SOL_SOCKET: c_int = 1;
    pub(crate) const SO_REUSEADDR: c_int = 2;
    pub const SO_REUSEPORT: c_int = 15;

    pub const RLIMIT_NOFILE: c_int = 7;

    /// `struct rlimit64` for `prlimit64(2)`.
    #[repr(C)]
    pub(crate) struct RLimit64 {
        pub cur: u64,
        pub max: u64,
    }

    /// `struct epoll_event`; packed on x86-64 (the kernel ABI), naturally
    /// aligned everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// IPv4 `struct sockaddr_in` (port and address in network byte order).
    #[repr(C)]
    pub(crate) struct SockAddrIn {
        pub family: u16,
        pub port: u16,
        pub addr: u32,
        pub zero: [u8; 8],
    }

    /// `struct __kernel_timespec`, the timeout `epoll_pwait2` takes.
    #[repr(C)]
    pub(crate) struct KernelTimespec {
        pub sec: i64,
        pub nsec: i64,
    }

    extern "C" {
        pub(crate) fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub(crate) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub(crate) fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub(crate) fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub(crate) fn prlimit64(
            pid: c_int,
            resource: c_int,
            new_limit: *const RLimit64,
            old_limit: *mut RLimit64,
        ) -> c_int;
        pub fn syscall(number: c_long, ...) -> c_long;
    }
}

/// Cleared for good the first time `epoll_pwait2` turns out missing (a
/// kernel before 5.11); every wait then takes `epoll_wait`'s whole
/// milliseconds. Relaxed: it publishes nothing but itself.
static PWAIT2: AtomicBool = AtomicBool::new(true);

/// `epoll_wait`'s timeout for `timeout`: `-1` (forever) for `None`, else
/// whole milliseconds rounded up, so a 0.4 ms deadline does not busy-spin
/// at 0 and a whole-millisecond one is not waited a millisecond past;
/// capped at `i32::MAX`.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |d| {
        d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    })
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
/// registered fd and must close it (which removes the registration)
/// before reusing its token.
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
        // SAFETY: `epoll_create1` takes no pointer.
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: `epoll_create1` just opened `fd`, and nothing else
            // owns it.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.bits(),
            data: token as u64,
        };
        // SAFETY: `ev` is a live `epoll_event` the kernel only reads
        // during the call, and `self` owns the epoll fd.
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

    /// Blocks until at least one registered fd is ready, `timeout`
    /// expires (`None` waits forever), or a [`Waker`] fires. Fills
    /// `events` and returns the count. `EINTR` is retried internally.
    /// A timeout is kept to the nanosecond (`epoll_pwait2`), so a reactor
    /// that sleeps until a deadline wakes at it, not up to a millisecond
    /// later; a kernel without `epoll_pwait2` rounds it up to whole
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = timeout_ms(timeout);
        events.len = 0;
        loop {
            let ret = match timeout {
                Some(d) if PWAIT2.load(Ordering::Relaxed) => {
                    let ts = sys::KernelTimespec {
                        sec: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
                        nsec: i64::from(d.subsec_nanos()),
                    };
                    // SAFETY: the kernel writes at most `buf.len()` events
                    // into `buf`, which owns that many; `ts` outlives the
                    // call; a null signal mask leaves the mask alone.
                    let ret = unsafe {
                        sys::syscall(
                            sys::SYS_EPOLL_PWAIT2,
                            c_long::from(self.epfd.as_raw_fd()),
                            events.buf.as_mut_ptr(),
                            events.buf.len() as c_long,
                            &ts as *const sys::KernelTimespec,
                            std::ptr::null::<c_void>(),
                            0 as c_long,
                        )
                    };
                    if ret < 0 && io::Error::last_os_error().raw_os_error() == Some(sys::ENOSYS) {
                        PWAIT2.store(false, Ordering::Relaxed);
                        continue;
                    }
                    ret as i32
                }
                // SAFETY: the kernel writes at most `buf.len()` events
                // into `buf`, which owns that many.
                _ => unsafe {
                    sys::epoll_wait(
                        self.epfd.as_raw_fd(),
                        events.buf.as_mut_ptr(),
                        events.buf.len() as i32,
                        timeout_ms,
                    )
                },
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
/// A nonblocking socket pair: [`Waker::wake`] writes a byte into one
/// end, and the other end, registered like any other fd, reports
/// readable until [`Waker::drain`] empties it. Cloning shares the pair.
#[derive(Clone)]
pub struct Waker {
    pair: Arc<(UnixStream, UnixStream)>,
}

impl Waker {
    /// Creates the pair (nonblocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates the `socketpair` or `fcntl` failure.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            pair: Arc::new((rx, tx)),
        })
    }

    /// The fd to register with the poller (readable interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.pair.0.as_raw_fd()
    }

    /// Makes the poller's next (or current) wait report the waker
    /// readable. Safe to call from any thread, any number of times.
    pub fn wake(&self) {
        // A `WouldBlock` here means the pair is full: a wake is already
        // pending, so there is nothing to handle.
        let _ = (&self.pair.1).write(&[1]);
    }

    /// Empties the pair so it can fire again (call when its token is
    /// reported readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.pair.0).read(&mut buf), Ok(n) if n > 0) {}
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("fd", &self.as_raw_fd())
            .finish()
    }
}

/// `addr` as the `struct sockaddr_in` the syscalls take, with its
/// length; an IPv6 address is [`io::ErrorKind::Unsupported`].
fn sockaddr_in(addr: SocketAddr) -> io::Result<(sys::SockAddrIn, u32)> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("{addr}: only IPv4 addresses are supported"),
        ));
    };
    let encoded = sys::SockAddrIn {
        family: sys::AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from_ne_bytes(v4.ip().octets()),
        zero: [0; 8],
    };
    Ok((encoded, std::mem::size_of::<sys::SockAddrIn>() as u32))
}

/// A fresh nonblocking, close-on-exec IPv4 TCP socket.
fn tcp_socket() -> io::Result<OwnedFd> {
    let flags = sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC;
    // SAFETY: `socket` takes no pointer.
    let fd = cvt(unsafe { sys::socket(sys::AF_INET, flags, 0) })?;
    // SAFETY: `socket` just opened `fd`, and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
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
/// Returns immediately-diagnosable failures (no route, bad fd), and
/// [`io::ErrorKind::Unsupported`] for an IPv6 address; an asynchronous
/// refusal surfaces later via `take_error`.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let (sa, len) = sockaddr_in(addr)?;
    let stream = TcpStream::from(tcp_socket()?);
    // SAFETY: `sa` is a live `sockaddr_in` of `len` bytes, and the
    // stream owns the fd for the whole call.
    let ret = unsafe {
        sys::connect(
            stream.as_raw_fd(),
            (&sa as *const sys::SockAddrIn).cast(),
            len,
        )
    };
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
/// Propagates socket/setsockopt/bind/listen failures, and returns
/// [`io::ErrorKind::Unsupported`] for an IPv6 address.
pub fn listen_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    let (sa, len) = sockaddr_in(addr)?;
    let listener = TcpListener::from(tcp_socket()?);
    let fd = listener.as_raw_fd();
    let one: i32 = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        // SAFETY: `one` is a live `i32` of the length passed, which the
        // kernel only reads, and the listener owns `fd`.
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
    // SAFETY: `sa` is a live `sockaddr_in` of `len` bytes, and the
    // listener owns `fd` for the whole call.
    cvt(unsafe { sys::bind(fd, (&sa as *const sys::SockAddrIn).cast(), len) })?;
    // SAFETY: `listen` takes no pointer, and the listener owns `fd`.
    cvt(unsafe { sys::listen(fd, 1024) })?;
    Ok(listener)
}

/// Raises the process's soft `RLIMIT_NOFILE` to its hard limit with a
/// raw `prlimit64(2)` call on the current process, and does nothing
/// more: the hard limit is left alone. Returns `(previous_soft,
/// new_soft)`, equal when the soft limit was already at the hard one.
/// The event loop calls this once at startup: at its bound it holds
/// 1,024 client sockets plus up to 32 origin sockets per reactor, past
/// the usual soft default of 1,024.
///
/// # Errors
///
/// Propagates `prlimit64` failures (e.g. `EPERM` in a locked-down
/// sandbox); the caller should treat that as "run with what we have".
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    let mut limit = sys::RLimit64 { cur: 0, max: 0 };
    // SAFETY: a null new limit only reads; `limit` is a live `rlimit64`.
    cvt(unsafe { sys::prlimit64(0, sys::RLIMIT_NOFILE, std::ptr::null(), &mut limit) })?;
    let before = limit.cur;
    if limit.cur < limit.max {
        limit.cur = limit.max;
        // SAFETY: `limit` is a live `rlimit64`; a null old limit is not
        // written.
        cvt(unsafe { sys::prlimit64(0, sys::RLIMIT_NOFILE, &limit, std::ptr::null_mut()) })?;
    }
    Ok((before, limit.cur))
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
            .register(
                client.as_raw_fd(),
                1,
                Interest::READABLE | Interest::WRITABLE,
            )
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
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

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
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        handle.join().unwrap();
    }

    /// A full pair is a pending wake, not an error: 100,000 wakes with no
    /// drain in between return (none blocks), the waker reports readable,
    /// and one drain empties it.
    #[test]
    fn a_full_waker_neither_blocks_nor_fails_and_one_drain_empties_it() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), 0, Interest::READABLE)
            .unwrap();
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
        waker.drain();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        // Drained, it fires again.
        waker.wake();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
    }

    /// A timeout shorter than a millisecond is kept, not rounded up to
    /// one: a reactor sleeping until a deadline wakes at it. The median of
    /// several waits, so a preempted one cannot fail the test.
    #[test]
    fn a_sub_millisecond_timeout_is_kept() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        let timeout = Duration::from_micros(300);
        let mut waited: Vec<Duration> = (0..11)
            .map(|_| {
                let started = std::time::Instant::now();
                assert_eq!(poller.wait(&mut events, Some(timeout)).unwrap(), 0);
                started.elapsed()
            })
            .collect();
        waited.sort();
        assert!(waited[0] >= timeout, "woke early: {waited:?}");
        assert!(
            waited[5] < Duration::from_micros(900),
            "rounded up: {waited:?}"
        );
    }

    /// The `epoll_wait` fallback's milliseconds: rounded up, never one
    /// past a whole millisecond, and capped.
    #[test]
    fn a_timeout_rounds_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(300))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(5_300))), 6);
        assert_eq!(timeout_ms(Some(Duration::from_millis(200))), 200);
        let past = Duration::from_millis(i32::MAX as u64 + 1);
        assert_eq!(timeout_ms(Some(past)), i32::MAX);
        assert_eq!(timeout_ms(Some(Duration::MAX)), i32::MAX);
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
    fn raise_nofile_limit_reports_current() {
        let (_, raised) = raise_nofile_limit().unwrap();
        // At the hard limit already: a second call changes nothing.
        assert_eq!(raise_nofile_limit().unwrap(), (raised, raised));
    }

    #[test]
    fn an_ipv6_address_is_unsupported() {
        let addr: SocketAddr = "[::1]:80".parse().unwrap();
        let refused = [
            connect_nonblocking(addr).map(drop),
            listen_reuseport(addr).map(drop),
        ];
        for result in refused {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::Unsupported);
        }
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
