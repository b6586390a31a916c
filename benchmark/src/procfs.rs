//! What the harness reads from `/proc`: its own CPU time and peak
//! resident set, and the runner's identity.

use std::collections::HashMap;
use std::fs;

/// Microseconds per `/proc/self/stat` clock tick. `USER_HZ` is 100 on
/// every Linux ABI; without libc there is no `sysconf` to ask.
const US_PER_TICK: f64 = 10_000.0;

/// A reading of the CPU time the process has consumed.
///
/// `/proc/self/stat` counts in 10 ms ticks, which is two or three ticks
/// per one-second window on the lightly loaded workloads. Each thread's
/// `schedstat` counts its time on a CPU in nanoseconds, so the reading is
/// the per-thread map when that is available and the tick count when not.
#[derive(Debug, Clone)]
pub enum CpuReading {
    /// Nanoseconds on a CPU, by thread id.
    Threads(HashMap<u32, u64>),
    /// User + system ticks of the whole process.
    Ticks(u64),
}

impl CpuReading {
    /// Now, or `None` when neither source can be read.
    pub fn now() -> Option<CpuReading> {
        thread_times().map(CpuReading::Threads).or_else(|| {
            parse_cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?).map(CpuReading::Ticks)
        })
    }

    /// CPU microseconds consumed between `earlier` and `self`, leaving
    /// out the thread `except` (the harness's keep-awake spinner; only
    /// the per-thread reading can tell it apart). A thread that ended in
    /// between is left out too (its final reading is gone); one that
    /// started in between counts from zero.
    pub fn us_since(&self, earlier: &CpuReading, except: Option<u32>) -> Option<f64> {
        match (self, earlier) {
            (CpuReading::Threads(now), CpuReading::Threads(then)) => Some(
                now.iter()
                    .filter(|(tid, _)| Some(**tid) != except)
                    .map(|(tid, ns)| ns.saturating_sub(then.get(tid).copied().unwrap_or(0)))
                    .sum::<u64>() as f64
                    / 1e3,
            ),
            // Whole-process ticks cannot leave a thread out.
            (CpuReading::Ticks(now), CpuReading::Ticks(then)) if except.is_none() => {
                Some(now.checked_sub(*then)? as f64 * US_PER_TICK)
            }
            _ => None,
        }
    }
}

fn thread_times() -> Option<HashMap<u32, u64>> {
    let mut times = HashMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
        // A thread may end between the listing and the read.
        let Ok(stat) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        times.insert(tid, stat.split_ascii_whitespace().next()?.parse().ok()?);
    }
    (!times.is_empty()).then_some(times)
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after its closing one. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The runner, recorded beside every result.
#[derive(Debug, Clone)]
pub struct Runner {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Runner {
    /// `nproc` is passed in: it must be read before the process pins
    /// itself to one CPU.
    pub fn detect(nproc: usize) -> Runner {
        let trimmed = |s: String| s.trim().to_owned();
        Runner {
            nproc,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), trimmed),
            rustc: std::process::Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".into(), trimmed),
            commit: head_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` by hand: the driver's
/// checkout is not a repository, so there is no `git` to ask and
/// "unknown" is the expected answer there.
fn head_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => Some(
            fs::read_to_string(git.join(reference))
                .ok()?
                .trim()
                .to_owned(),
        ),
        None => Some(head.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn this_process_has_readable_accounting() {
        let before = CpuReading::now().unwrap();
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = CpuReading::now().unwrap().us_since(&before, None).unwrap();
        // This thread alone spun for 20 ms; other test threads may add.
        assert!(used >= 10_000.0, "{used} µs");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn readings_subtract_per_thread_and_drop_threads_that_ended() {
        let then = CpuReading::Threads(HashMap::from([(1, 1_000_000), (2, 5_000_000)]));
        let now = CpuReading::Threads(HashMap::from([(1, 4_000_000), (3, 2_000_000)]));
        assert_eq!(now.us_since(&then, None), Some(3_000.0 + 2_000.0));
        assert_eq!(now.us_since(&then, Some(3)), Some(3_000.0));
        assert_eq!(
            CpuReading::Ticks(130).us_since(&CpuReading::Ticks(100), None),
            Some(300_000.0)
        );
        assert_eq!(
            CpuReading::Ticks(130).us_since(&CpuReading::Ticks(100), Some(3)),
            None
        );
        assert_eq!(CpuReading::Ticks(1).us_since(&then, None), None);
    }
}
