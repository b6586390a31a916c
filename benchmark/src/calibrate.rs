//! How fast the runner is right now.
//!
//! The shared runner this benchmark targets changes speed: a calibration
//! loop that makes 138 000 round trips a second makes 112 000 or 88 000 a
//! moment later, for seconds at a time, and everything else slows by the
//! same factor. `setup_s` is a median the driver compares between two
//! sets of runs, and a set-up lasts milliseconds, so which speed it met is
//! luck: the per-run figure took the values 16 ms and 24 ms and little in
//! between. Timed right next to a calibration loop, set-up time × loop
//! rate held within ±5 % over the same runs.
//!
//! The loop is the kind of work set-up does: 64-byte messages bounced off
//! an echo thread over loopback TCP, every round trip two context
//! switches and four system calls on the one CPU the process is pinned to.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Round trips per second of the loop on the runner the baseline was
/// measured on, at its full speed. Times are scaled to this speed; on
/// another machine the scale is different but still one scale.
pub const REFERENCE_RATE: f64 = 138_000.0;

/// How long one calibration is timed, after a warm-up of
/// [`WARM_UP`] (a CPU that has just idled is slow to start with).
pub const LENGTH: Duration = Duration::from_millis(40);
pub const WARM_UP: Duration = Duration::from_millis(10);

/// The runner's speed over the next [`LENGTH`], as a share of
/// [`REFERENCE_RATE`].
pub fn speed() -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::Builder::new()
        .name("bench-calibrate-echo".into())
        .spawn(move || -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut message = [0u8; 64];
            // Ends when the other side hangs up.
            while stream.read_exact(&mut message).is_ok() {
                stream.write_all(&message)?;
            }
            Ok(())
        })?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut message = [7u8; 64];
    let mut round_trips_for = |length: Duration| -> io::Result<f64> {
        let start = Instant::now();
        let mut round_trips = 0u64;
        while start.elapsed() < length {
            stream.write_all(&message)?;
            stream.read_exact(&mut message)?;
            round_trips += 1;
        }
        Ok(round_trips as f64 / start.elapsed().as_secs_f64())
    };
    round_trips_for(WARM_UP)?;
    let rate = round_trips_for(LENGTH)?;
    drop(stream);
    echo.join()
        .map_err(|_| io::Error::other("calibration echo thread panicked"))??;
    Ok(rate / REFERENCE_RATE)
}

/// A duration of `wall` seconds of which `cpu` were spent on the CPU,
/// as it would have been at the reference speed: waiting does not get
/// faster with the machine, work does.
pub fn at_reference_speed(wall: f64, cpu: f64, speed: f64) -> f64 {
    let busy = cpu.min(wall);
    wall - busy + busy * speed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_busy_share_of_a_duration_is_scaled() {
        // All work, on a runner at 2/3 of the reference speed.
        assert!((at_reference_speed(0.024, 0.024, 2.0 / 3.0) - 0.016).abs() < 1e-12);
        // Mostly waiting: 320 ms of sleeps are the same on any runner.
        let scaled = at_reference_speed(0.340, 0.020, 0.5);
        assert!((scaled - 0.330).abs() < 1e-12, "{scaled}");
        // CPU accounting can overshoot wall time by a rounding; never
        // scale more than the whole.
        assert_eq!(at_reference_speed(0.010, 0.011, 0.5), 0.005);
        assert_eq!(at_reference_speed(0.010, 0.0, 0.5), 0.010);
    }

    #[test]
    fn the_loop_measures_a_plausible_speed() {
        let speed = speed().unwrap();
        assert!(speed > 0.01 && speed < 100.0, "{speed}");
    }
}
