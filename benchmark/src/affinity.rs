//! Two things the harness does to the scheduler so that its figures
//! repeat on a shared two-vCPU runner: it pins the whole process to one
//! CPU, and it keeps that CPU from halting while latency is measured.
//!
//! **One CPU.** Proxy, fixture origin and load generator hand each
//! request back and forth between threads. A wake-up that crosses CPUs
//! costs a hypervisor exit, and whether two threads share a CPU is up to
//! the scheduler: unpinned, the same build measured 10k and 39k req/s in
//! consecutive runs. On one CPU every hand-off is a plain context switch.
//! The price is stated in `README.md`: nothing here measures parallel
//! speed-up.
//!
//! **Never halted.** At an open-loop rate the CPU is idle most of the
//! time, and an idle vCPU halts; waking it goes through the hypervisor,
//! which adds tens of microseconds that vary with the host's load and say
//! nothing about the proxy. [`KeepAwake`] is a `SCHED_IDLE` thread that
//! spins while an open-loop phase runs: it yields to every other thread
//! at once, and its CPU time is left out of the accounting.
//!
//! There is no libc in this workspace, so the three system calls are made
//! directly; on targets other than x86-64 Linux both measures are skipped
//! and the run says so.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

const SYS_SCHED_SETSCHEDULER: usize = 144;
const SYS_GETTID: usize = 186;
const SYS_SCHED_SETAFFINITY: usize = 203;
const SCHED_IDLE: usize = 5;

/// One Linux system call with three arguments.
///
/// # Safety
///
/// Every argument the kernel treats as a pointer must point to memory
/// that is valid, for the access that call makes, until it returns.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> io::Result<usize> {
    let ret: isize;
    // SAFETY: the instruction clobbers rcx and r11, declared below, and
    // touches no stack; memory behind the arguments is the caller's
    // promise.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// # Safety
///
/// None to uphold: nothing is called.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn syscall3(_: usize, _: usize, _: usize, _: usize) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "no raw system calls for this target",
    ))
}

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` in `/proc/self/status`.
fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_last_cpu(list)
}

/// The last CPU of a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Pins the calling thread to its last allowed CPU and returns which.
/// Called from `main` before it has spawned anything: threads and child
/// processes inherit the mask.
///
/// # Errors
///
/// `/proc/self/status` unreadable, or the kernel refused the mask. The
/// caller runs unpinned and says so.
pub fn pin_process() -> io::Result<usize> {
    let cpu = last_allowed_cpu()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no Cpus_allowed_list"))?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "CPU number beyond the mask"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes from
    // `mask`, which is live across the call and exactly that long.
    unsafe {
        syscall3(
            SYS_SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_ptr() as usize,
        )?;
    }
    Ok(cpu)
}

/// A thread that keeps the CPU busy, at the lowest scheduling class, while
/// it is switched on. See the module documentation.
#[derive(Debug)]
pub struct KeepAwake {
    on: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    tid: u32,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts the thread, switched off.
    ///
    /// # Errors
    ///
    /// The thread could not be spawned, or the kernel would not move it to
    /// `SCHED_IDLE` — at normal priority it would take CPU from what is
    /// being measured, so it is not run at all.
    pub fn start() -> io::Result<KeepAwake> {
        let on = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, started) = mpsc::channel();
        let thread = {
            let (on, stop) = (Arc::clone(&on), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-keep-awake".into())
                .spawn(move || {
                    let priority = 0i32;
                    // SAFETY: sched_setscheduler(0, SCHED_IDLE, &param) reads
                    // one `sched_param` (a single int) from `priority`, which
                    // is live across the call; gettid takes no pointers.
                    let demoted = unsafe {
                        syscall3(
                            SYS_SCHED_SETSCHEDULER,
                            0,
                            SCHED_IDLE,
                            &priority as *const i32 as usize,
                        )
                        .and_then(|_| syscall3(SYS_GETTID, 0, 0, 0))
                    };
                    let run = demoted.is_ok();
                    // The receiver only goes away if `start` itself failed.
                    let _ = ready.send(demoted);
                    while run && !stop.load(Ordering::Relaxed) {
                        if on.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        } else {
                            std::thread::park_timeout(Duration::from_millis(20));
                        }
                    }
                })?
        };
        let tid = started
            .recv()
            .map_err(|_| io::Error::other("keep-awake thread died"))
            .and_then(|demoted| demoted);
        match tid {
            Ok(tid) => Ok(KeepAwake {
                on,
                stop,
                tid: tid as u32,
                thread: Some(thread),
            }),
            Err(e) => {
                let _ = thread.join();
                Err(e)
            }
        }
    }

    /// Switches the spinning on or off.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }

    /// The thread's id, so CPU accounting can leave it out.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.set(false);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cpu_lists_parse_to_their_last_cpu() {
        assert_eq!(parse_last_cpu(" 0-1\n"), Some(1));
        assert_eq!(parse_last_cpu("0"), Some(0));
        assert_eq!(parse_last_cpu("0,2-3"), Some(3));
        assert_eq!(parse_last_cpu("0-3,8"), Some(8));
        assert_eq!(parse_last_cpu(""), None);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_narrows_the_allowed_list_to_one_cpu() {
        // Runs on its own test thread: only that thread is narrowed.
        let cpu = pin_process().unwrap();
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        assert_eq!(list.trim(), cpu.to_string());
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn keep_awake_is_an_idle_class_thread_that_burns_cpu_only_when_on() {
        let awake = KeepAwake::start().unwrap();
        let task = format!("/proc/self/task/{}", awake.tid());
        // Field 41 of a thread's stat is its scheduling policy; the name
        // (field 2) is skipped by its closing parenthesis.
        let stat = std::fs::read_to_string(format!("{task}/stat")).unwrap();
        assert!(stat.contains("(bench-keep-awak)"), "{stat}"); // comm holds 15 bytes
        let after_name = &stat[stat.rfind(')').unwrap() + 2..];
        assert_eq!(after_name.split(' ').nth(38), Some("5"), "{stat}");
        let on_cpu = || -> u64 {
            let schedstat = std::fs::read_to_string(format!("{task}/schedstat")).unwrap();
            schedstat.split(' ').next().unwrap().parse().unwrap()
        };
        let start = on_cpu();
        std::thread::sleep(Duration::from_millis(60));
        let idle = on_cpu() - start;
        awake.set(true);
        std::thread::sleep(Duration::from_millis(60));
        awake.set(false);
        let busy = on_cpu() - start - idle;
        assert!(idle < 5_000_000, "switched off it used {idle} ns");
        // Anything else runnable takes the CPU from it, so only a loose
        // floor holds on a busy test machine.
        assert!(
            busy > 5 * idle.max(200_000),
            "switched on it used {busy} ns"
        );
        drop(awake);
        assert!(!std::path::Path::new(&task).exists());
    }
}
