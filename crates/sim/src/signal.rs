//! Process-signal counting for long-running daemons, hand-rolled against
//! the platform C library like [`crate::reactor`].
//!
//! A signal handler may only touch async-signal-safe state, so the
//! handler installed here does exactly one thing: increment a
//! process-wide atomic count. Whoever wants to act on the signal reads
//! the count ([`sighup_count`]) on a thread of its own — the live proxy's
//! reactor 0 does at each wake — and acts once when it has moved, so
//! signals that arrive together make one action, as `SIGHUP` means.
//!
//! Only `SIGHUP` is wired up — the conventional "re-read your
//! configuration" signal — and [`raise_sighup`] sends it to the current
//! process, which is how tests drive the path without a shell.

#![allow(unsafe_code)]

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The raw surface: signal installation and test delivery. Linux-only,
/// declared against the platform C library.
mod sys {
    use std::os::raw::c_int;

    pub const SIGHUP: c_int = 1;

    extern "C" {
        pub fn signal(signum: c_int, handler: usize) -> usize;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn getpid() -> c_int;
    }
}

/// `SIGHUP`s received since [`count_sighups`] installed the handler.
static SIGHUPS: AtomicU64 = AtomicU64::new(0);

/// Async-signal-safe: a lock-free atomic add, no lock, no allocation.
extern "C" fn handle_signal(_signum: i32) {
    SIGHUPS.fetch_add(1, Ordering::SeqCst);
}

/// Installs the process-wide `SIGHUP` handler that counts deliveries
/// (read with [`sighup_count`]). Idempotent: the first call installs,
/// and every call returns that first call's outcome. With BSD semantics
/// on Linux/glibc the handler stays installed and interrupted syscalls
/// restart, so one install lasts the process lifetime.
///
/// # Errors
///
/// Propagates the first call's `signal(2)` failure.
pub fn count_sighups() -> io::Result<()> {
    static INSTALLED: OnceLock<Result<(), i32>> = OnceLock::new();
    let installed = INSTALLED.get_or_init(|| {
        let handler = handle_signal as *const () as usize;
        // SAFETY: `handler` is an `extern "C" fn(i32)` that lives for the
        // process and touches only an atomic.
        if unsafe { sys::signal(sys::SIGHUP, handler) } == usize::MAX {
            Err(io::Error::last_os_error().raw_os_error().unwrap_or(0))
        } else {
            Ok(())
        }
    });
    installed.map_err(io::Error::from_raw_os_error)
}

/// `SIGHUP`s this process has received since [`count_sighups`] first
/// ran (0 before).
pub fn sighup_count() -> u64 {
    SIGHUPS.load(Ordering::SeqCst)
}

/// Sends `SIGHUP` to the current process — the test-suite stand-in for
/// `kill -HUP $(pidof proxy)`.
///
/// # Errors
///
/// Propagates `kill(2)` failures.
pub fn raise_sighup() -> io::Result<()> {
    // SAFETY: `getpid` and `kill` take and return plain integers.
    if unsafe { sys::kill(sys::getpid(), sys::SIGHUP) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn raise_sighup_advances_the_count() {
        count_sighups().unwrap();
        count_sighups().expect("a second install is a no-op");
        for _ in 0..2 {
            let before = sighup_count();
            raise_sighup().unwrap();
            // The kernel may hand the signal to another thread of the
            // test binary, so its count can land a moment after `kill`.
            let deadline = Instant::now() + Duration::from_secs(5);
            while sighup_count() == before {
                assert!(Instant::now() < deadline, "the count stayed at {before}");
                std::hint::spin_loop();
            }
        }
    }
}
