//! One benchmark run: set-up, warm-up, measured phases, scoring.
//!
//! Everything the run needs lives in one process: the fixture origin, the
//! proxy under test (an in-process [`LiveProxy`] with one reactor and
//! otherwise default configuration) and the load generator. Phase lengths
//! derive from `--seconds` alone, so they are identical on every commit.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::{Duration as CoreDuration, Timestamp};
use mutcon_live::proxy::{GroupRule, LiveProxy, ProxyConfig, RefreshRule};
use mutcon_sim::reactor::BackendKind;
use mutcon_sim::rng::SimRng;
use mutcon_traces::generator::zipf::{ZipfCatalog, ZipfCatalogBuilder};
use mutcon_traces::json::{self, Json};

use crate::affinity::KeepAwake;
use crate::calibrate;
use crate::fixture::{Fixture, LogRecord, World};
use crate::layers::{self, Replayed};
use crate::loadgen::{
    drive, request_bytes, Checker, Conn, Counters, Fault, KeyStream, Pacing, Phase, PhaseLog,
    Sample,
};
use crate::procfs::{self, CpuReading, Runner};
use crate::score::{self, ReadOracle};
use crate::spec::{
    MetricDef, Popularity, Workload, END_TO_END, OPEN_RATE_CEILING, PER_LAYER, SETUP_REPS, WARMUP,
};
use crate::stats::{self, Summary};
use crate::trace;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// A reactor backend to ask for instead of the default.
    pub backend: Option<BackendKind>,
}

/// What `main` did to the process before the run.
#[derive(Debug, Clone)]
pub struct Environment {
    /// The `MUTCON_*` variables that were set, and cleared.
    pub cleared_env: Vec<String>,
    /// CPUs the process could use before it was pinned.
    pub nproc: usize,
    /// The CPU every thread is pinned to, or why there is none.
    pub pinned_cpu: Result<usize, String>,
}

/// One metric of a report. `summary` is `None` when the run could not
/// measure it; `note` says why.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub summary: Option<Summary>,
    pub note: Option<String>,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    pub options: Options,
    pub runner: Runner,
    pub clients: usize,
    pub backends: Vec<&'static str>,
    pub environment: Environment,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub stamp_regressions: u64,
    /// What the mode owes: every end-to-end metric of an untraced run,
    /// every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// The speed figures of an untraced run: printed, not gated, not in
    /// the result line.
    pub ungated: Vec<Metric>,
    /// Things a reader must know before trusting the numbers.
    pub notes: Vec<String>,
}

/// Rules installed per batch, and the pause between batches, when a
/// workload has more rules than one batch.
const INSTALL_BATCH: usize = 64;
const INSTALL_GAP: Duration = Duration::from_millis(20);

/// Client connections: one per core, at most four.
pub fn client_count(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// How a workload picks objects, with what the picking needs.
enum KeySource {
    Zipf(Arc<ZipfCatalog>),
    Uniform,
    RoundRobin,
}

/// One complete set-up: the population, the origin, the proxy with its
/// rules installed and its cache filled, and the client connections.
struct Bench {
    seed: u64,
    world: Arc<World>,
    requests: Vec<Vec<u8>>,
    keys: KeySource,
    rules: Vec<RefreshRule>,
    group: Option<GroupRule>,
    // Dropped in this order: clients hang up, then the proxy stops (so
    // nothing is mid-poll), then the origin, whose connection threads
    // have by then all seen their peer close.
    conns: Vec<Conn>,
    checkers: Vec<Checker>,
    proxy: LiveProxy,
    fixture: Fixture,
}

impl Bench {
    fn set_up(options: &Options, clients: usize) -> io::Result<Bench> {
        let workload = &options.workload;
        let live_for = WARMUP + Duration::from_secs(options.seconds);
        let world = Arc::new(World::generate(workload, options.seed, live_for));
        let requests: Vec<Vec<u8>> = world.paths.iter().map(|p| request_bytes(p)).collect();
        let keys = match workload.popularity {
            Popularity::Zipf(exponent) => KeySource::Zipf(Arc::new(
                ZipfCatalogBuilder::new(workload.objects)
                    .exponent(exponent)
                    .seed(options.seed)
                    .build()
                    .map_err(|e| other(format!("zipf catalog: {e}")))?,
            )),
            Popularity::Uniform => KeySource::Uniform,
            Popularity::RoundRobin => KeySource::RoundRobin,
        };
        let fixture = Fixture::start(Arc::clone(&world))?;
        let core = |d: Duration| CoreDuration::from_millis(d.as_millis() as u64);
        let rules: Vec<RefreshRule> = workload
            .rules
            .iter()
            .flat_map(|r| {
                world
                    .paths
                    .iter()
                    .map(|p| RefreshRule::new(p.clone(), core(r.delta)))
            })
            .collect();
        let group = workload.rules.filter(|r| r.group).map(|r| GroupRule {
            delta: core(r.delta),
            policy: MtPolicy::TriggeredPolls,
        });
        // A large rule set is installed in batches, as objects enter a
        // real cache over time. Installed at once, every path's first
        // poll is due in the same instant: a backlog no later second of
        // the run resembles, which would sit in the cumulative drift
        // histogram for the whole run.
        let staged = rules.len() > INSTALL_BATCH;
        let proxy = LiveProxy::start(ProxyConfig {
            rules: if staged { Vec::new() } else { rules.clone() },
            group,
            cache_objects: workload.cache_objects,
            reactors: Some(1),
            backend: options.backend,
            ..ProxyConfig::new(fixture.addr())
        })?;
        if staged {
            for batch in 1..=rules.len().div_ceil(INSTALL_BATCH) {
                let upto = (batch * INSTALL_BATCH).min(rules.len());
                proxy
                    .runtime()
                    .install(rules[..upto].to_vec(), group)
                    .map_err(other)?;
                std::thread::sleep(INSTALL_GAP);
            }
        }
        let conns = (0..clients)
            .map(|_| Conn::connect(proxy.local_addr()))
            .collect::<io::Result<Vec<_>>>()?;
        let checkers = (0..clients)
            .map(|_| Checker::new(Arc::clone(&world), fixture.epoch_unix_ms()))
            .collect();
        let mut bench = Bench {
            seed: options.seed,
            world,
            requests,
            keys,
            rules,
            group,
            fixture,
            proxy,
            conns,
            checkers,
        };
        bench.fill_cache(workload)?;
        Ok(bench)
    }

    /// Unruled workloads fetch what the cache is to hold through the
    /// proxy; ruled ones wait until the refresher's first polls have
    /// cached every path.
    fn fill_cache(&mut self, workload: &Workload) -> io::Result<()> {
        if self.rules.is_empty() {
            let fill = workload
                .cache_objects
                .unwrap_or(workload.objects)
                .min(workload.objects);
            for key in 0..fill as u32 {
                let reply = self.conns[0].exchange(&self.requests[key as usize])?;
                self.checkers[0]
                    .check(key, &reply)
                    .map_err(|fault| other(format!("pre-fill of {key}: {fault:?}")))?;
            }
            return Ok(());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.proxy.cached_objects() < self.rules.len() {
            if Instant::now() > deadline {
                return Err(other(format!(
                    "refresher cached {} of {} ruled paths in 20 s",
                    self.proxy.cached_objects(),
                    self.rules.len()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Client `client`'s key stream for the phase numbered `salt`: its
    /// own seeded stream, so no two clients or phases replay the same
    /// keys.
    fn key_stream(&self, client: usize, clients: usize, salt: u64) -> KeyStream {
        let stream = salt * clients as u64 + client as u64;
        let objects = self.world.paths.len();
        match &self.keys {
            KeySource::Zipf(catalog) => KeyStream::Zipf {
                catalog: Arc::clone(catalog),
                rng: catalog.stream_rng(stream),
            },
            // The seed only picks which member the walk starts on.
            KeySource::RoundRobin => KeyStream::RoundRobin {
                objects: objects as u32,
                next: ((client as u64 + self.seed) % objects as u64) as u32,
                stride: clients as u32,
            },
            KeySource::Uniform => KeyStream::Uniform {
                objects: objects as u64,
                rng: SimRng::seed_from_u64(self.seed).fork(stream),
            },
        }
    }

    /// Every counter the proxy, its cache and the origin expose, now.
    ///
    /// The shared cache is private to the proxy; its counters are public
    /// only through the admin plane, and asking costs the engine one
    /// request. `opening` says which end of the measured span this is:
    /// the opening snapshot asks first and reads the engine after, the
    /// closing one reads first and asks after, so neither admin request
    /// falls inside the span.
    fn counts(&mut self, opening: bool) -> io::Result<Counts> {
        let mut counts = Counts::default();
        if !opening {
            self.engine_counts(&mut counts);
        }
        let reply = self.conns[0].exchange(&request_bytes("/admin/stats"))?;
        let text = std::str::from_utf8(reply.body).map_err(|e| other(e.to_string()))?;
        let doc = json::parse(text).map_err(|e| other(format!("/admin/stats: {e}")))?;
        let cache = |key: &str| {
            doc.get("cache")
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
                .ok_or_else(|| other(format!("/admin/stats lacks cache.{key}")))
        };
        counts.evictions = cache("evictions")?;
        counts.version_bumps = cache("version_bumps")?;
        counts.touch_skips = cache("touch_skips")?;
        if opening {
            self.engine_counts(&mut counts);
        }
        Ok(counts)
    }

    fn engine_counts(&self, counts: &mut Counts) {
        let engine = self.proxy.engine_metrics();
        let proxy = self.proxy.stats();
        let overload = self.proxy.overload();
        *counts = Counts {
            l1_hits: engine.l1_hits(),
            l1_stale_rejects: engine.l1_stale_rejects(),
            l1_refills: engine.l1_refills(),
            writev_calls: engine.writev_calls(),
            write_calls: engine.write_calls(),
            body_copies: engine.body_copies(),
            buf_allocs: engine.buf_allocs(),
            pool_opened: engine.pool_opened(),
            pool_reuses: engine.pool_reuses(),
            pool_coalesced: engine.pool_coalesced(),
            pool_retries: engine.pool_retries(),
            epoll_ctl_calls: engine.epoll_ctl_calls(),
            write_stalls: engine.write_stalls(),
            shed: overload.shed() + overload.parked_shed(),
            polls: proxy.polls,
            triggered: proxy.triggered,
            refreshes: proxy.refreshes,
            poll_errors: proxy.errors,
            origin_requests: self.fixture.requests(),
            ..*counts
        };
    }
}

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug, Clone, Copy, Default)]
        struct Counts { $($field: u64),* }

        impl Counts {
            fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field.saturating_sub(earlier.$field)),* }
            }
        }
    };
}

counts!(
    l1_hits,
    l1_stale_rejects,
    l1_refills,
    writev_calls,
    write_calls,
    body_copies,
    buf_allocs,
    pool_opened,
    pool_reuses,
    pool_coalesced,
    pool_retries,
    epoll_ctl_calls,
    write_stalls,
    shed,
    polls,
    triggered,
    refreshes,
    poll_errors,
    origin_requests,
    evictions,
    version_bumps,
    touch_skips,
);

/// A reading of the run-wide counters at a window boundary.
#[derive(Debug, Clone)]
struct Tick {
    at: Instant,
    completed: u64,
    cpu: Option<CpuReading>,
    drift_p99_ms: f64,
}

/// One phase, as run.
struct PhaseRun {
    logs: Vec<PhaseLog>,
    ticks: Vec<Tick>,
    start: Instant,
    end: Instant,
    /// Requests that reached the origin during the phase.
    origin_requests: u64,
    /// The keep-awake thread, if one spun during the phase: its CPU time
    /// is not the run's.
    spinner: Option<u32>,
}

impl PhaseRun {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| l.samples.iter())
    }

    fn sum(&self, field: impl Fn(&PhaseLog) -> u64) -> u64 {
        self.logs.iter().map(field).sum()
    }

    /// Completed requests per second, one figure per one-second window.
    fn window_rates(&self) -> Vec<f64> {
        self.ticks
            .windows(2)
            .map(|w| (w[1].completed - w[0].completed) as f64 / (w[1].at - w[0].at).as_secs_f64())
            .collect()
    }

    /// Process CPU microseconds per completed request, per window; `None`
    /// if the CPU accounting could not be read at some boundary.
    fn window_cpu_us(&self) -> Option<Vec<f64>> {
        self.ticks
            .windows(2)
            .filter(|w| w[1].completed > w[0].completed)
            .map(|w| {
                let used = w[1]
                    .cpu
                    .as_ref()?
                    .us_since(w[0].cpu.as_ref()?, self.spinner)?;
                Some(used / (w[1].completed - w[0].completed) as f64)
            })
            .collect()
    }
}

/// How a phase paces its clients.
#[derive(Debug, Clone, Copy)]
enum Load {
    Closed,
    /// Requests per second over all connections.
    Open(u32),
}

fn run_phase(
    bench: &mut Bench,
    awake: Option<&KeepAwake>,
    load: Load,
    length: Duration,
    keep_samples: bool,
    salt: u64,
) -> PhaseRun {
    // The CPU is kept from halting only where it would otherwise idle
    // between requests; a closed loop saturates it anyway.
    let awake = awake.filter(|_| matches!(load, Load::Open(_)));
    let clients = bench.conns.len();
    let counters = Counters::default();
    let mut keys: Vec<KeyStream> = (0..clients)
        .map(|c| bench.key_stream(c, clients, salt))
        .collect();
    // A little in the future, so every client starts on the same instant.
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + length;
    let epoch = bench.fixture.epoch();
    let runtime = Arc::clone(bench.proxy.runtime());
    let tick = |counters: &Counters| Tick {
        at: Instant::now(),
        completed: counters.completed.load(Ordering::Relaxed),
        cpu: CpuReading::now(),
        drift_p99_ms: runtime.refresh_metrics().drift().p99_ms,
    };
    let requests = &bench.requests;
    let origin_before = bench.fixture.requests();
    let mut ticks = Vec::new();
    // Clients stay alive until the last tick is read: the CPU time of a
    // thread that has ended is gone from `/proc`.
    let last_tick_read = Barrier::new(clients + 1);
    if let Some(awake) = awake {
        awake.set(true);
    }
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = bench
            .conns
            .iter_mut()
            .zip(bench.checkers.iter_mut())
            .zip(keys.iter_mut())
            .enumerate()
            .map(|(client, ((conn, checker), keys))| {
                let pacing = match load {
                    Load::Closed => Pacing::Closed,
                    Load::Open(rate) => {
                        // The total rate is split evenly; client `c` is
                        // offset by `c` whole-rate intervals so arrivals
                        // at the proxy are evenly spaced too.
                        let whole = Duration::from_secs(1) / rate;
                        Pacing::Open {
                            interval: whole * clients as u32,
                            first: whole * client as u32,
                        }
                    }
                };
                let phase = Phase {
                    epoch,
                    start,
                    end,
                    pacing,
                    keep_samples,
                    counters: &counters,
                };
                let last_tick_read = &last_tick_read;
                scope.spawn(move || {
                    let log = drive(
                        conn,
                        keys,
                        requests,
                        &mut |key, reply| checker.check(key, reply),
                        &phase,
                    );
                    last_tick_read.wait();
                    log
                })
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        ticks.push(tick(&counters));
        loop {
            let next = (start + Duration::from_secs(ticks.len() as u64)).min(end);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            ticks.push(tick(&counters));
            if next == end {
                break;
            }
        }
        last_tick_read.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    });
    if let Some(awake) = awake {
        awake.set(false);
    }
    let origin_requests = bench.fixture.requests() - origin_before;
    PhaseRun {
        logs,
        ticks,
        start,
        end,
        origin_requests,
        spinner: awake.map(KeepAwake::tid),
    }
}

fn metric(defs: &[MetricDef], name: &str) -> MetricDef {
    *defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined in spec.rs"))
}

/// Collects a report's metrics in definition order.
struct Sheet {
    defs: &'static [MetricDef],
    metrics: Vec<Metric>,
}

impl Sheet {
    fn new(defs: &'static [MetricDef]) -> Sheet {
        Sheet {
            defs,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, summary: Summary) {
        self.metrics.push(Metric {
            def: metric(self.defs, name),
            summary: Some(summary),
            note: None,
        });
    }

    fn value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Repeated readings of one figure: their median.
    fn medians(&mut self, name: &str, readings: &[f64]) {
        match stats::summarize(readings) {
            Some(summary) => self.put(name, summary),
            None => self.missing(name, "no readings".into()),
        }
    }

    /// Per-second windows of a rate or a cost: the quartile on the
    /// undisturbed side (see [`stats::undisturbed_quartile`]).
    fn windows(&mut self, name: &str, windows: &[f64]) {
        let higher = metric(self.defs, name).better == crate::spec::Better::Higher;
        match stats::undisturbed_quartile(windows, higher) {
            Some(summary) => self.put(name, summary),
            None => self.missing(name, "no windows".into()),
        }
    }

    fn missing(&mut self, name: &str, why: String) {
        self.metrics.push(Metric {
            def: metric(self.defs, name),
            summary: None,
            note: Some(why),
        });
    }

    /// Every defined metric, in definition order; `absent` fills the ones
    /// nothing was put for.
    fn finish(mut self, absent: impl Fn(&MetricDef) -> Metric) -> Vec<Metric> {
        self.defs
            .iter()
            .map(
                |def| match self.metrics.iter().position(|m| m.def.name == def.name) {
                    Some(i) => self.metrics.swap_remove(i),
                    None => absent(def),
                },
            )
            .collect()
    }
}

fn latency_figures(samples: &[&Sample]) -> (Vec<f64>, Vec<f64>) {
    let mut latency: Vec<f64> = samples.iter().map(|s| s.latency_us()).collect();
    let mut late: Vec<f64> = samples.iter().map(|s| s.late_us()).collect();
    latency.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    (latency, late)
}

/// Clears every `MUTCON_*` variable, so the proxy runs on its coded
/// defaults, and returns what was cleared. Call before any thread starts.
pub fn clear_mutcon_env() -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("MUTCON_"))
        .collect();
    for name in &cleared {
        std::env::remove_var(name);
    }
    cleared
}

/// Runs one workload once.
pub fn run(options: &Options, environment: Environment) -> io::Result<Report> {
    let runner = Runner::detect(environment.nproc);
    let clients = client_count(runner.nproc);
    let workload = options.workload;
    let mut notes = Vec::new();
    if let Err(why) = &environment.pinned_cpu {
        notes.push(format!(
            "WARNING: threads are not pinned to one CPU ({why}); on a shared runner \
             throughput and latency will not repeat"
        ));
    }

    // --- set-up ---------------------------------------------------------
    // An untraced run sets up several times; the last instance is the one
    // measured.
    // Each is timed next to a calibration loop and its busy share scaled
    // to the reference speed (see `calibrate`): what speed the runner
    // happens to have for these milliseconds is not the set-up's doing.
    let reps = if options.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut setup_raw_s, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut bench = None;
    for _ in 0..reps {
        drop(bench.take());
        // Calibrated before, not after: afterwards the refresher is
        // already polling and would share the CPU with the loop.
        let speed = calibrate::speed()?;
        let cpu_before = CpuReading::now();
        let start = Instant::now();
        bench = Some(Bench::set_up(options, clients)?);
        let wall = start.elapsed().as_secs_f64();
        let cpu = cpu_before
            .zip(CpuReading::now())
            .and_then(|(before, after)| after.us_since(&before, None));
        // Without CPU accounting, all of it counts as busy.
        let busy = cpu.map_or(wall, |us| us / 1e6);
        setup_s.push(calibrate::at_reference_speed(wall, busy, speed));
        setup_raw_s.push(wall);
        speeds.push(speed);
    }
    let mut bench = bench.expect("at least one set-up");
    if let (Some(raw), Some(speed)) = (stats::median(&setup_raw_s), stats::median(&speeds)) {
        notes.push(format!(
            "set-up took {raw:.4} s as timed, with the runner at {speed:.2} of the reference speed"
        ));
    }

    let backends = bench.proxy.engine_metrics().reactor_backends();
    let wanted = options.backend.unwrap_or(BackendKind::Epoll).label();
    let fell_back = backends.iter().any(|b| *b != wanted);
    if fell_back {
        notes.push(format!(
            "SKIP: asked for the {wanted} backend, reactors run {backends:?}; \
             throughput, CPU and latency figures would describe the wrong engine"
        ));
    }

    // --- warm-up and measured phases ------------------------------------
    let awake = KeepAwake::start()
        .map_err(|e| {
            notes.push(format!(
                "WARNING: no keep-awake thread ({e}); open-loop latency includes the \
                 hypervisor's wake-ups of a halted CPU"
            ));
        })
        .ok();
    let awake = awake.as_ref();
    let seconds = Duration::from_secs(options.seconds);
    let open_load = Load::Open(workload.open_rate);
    let warm_load = if workload.closed_loop {
        Load::Closed
    } else {
        open_load
    };
    let warmup = run_phase(&mut bench, awake, warm_load, WARMUP, false, 0);
    let before = bench.counts(true)?;
    let mut phase = |load, length, keep_samples, salt| {
        run_phase(&mut bench, awake, load, length, keep_samples, salt)
    };
    // The throughput phase (closed loop where the workload has one), its
    // traced second half in a traced run, and the open-loop phase.
    let closed = seconds / 2;
    let (throughput, traced_throughput, open) = match (workload.closed_loop, options.trace) {
        (true, false) => (
            Some(phase(Load::Closed, closed, false, 1)),
            None,
            phase(open_load, seconds - closed, true, 3),
        ),
        (true, true) => (
            Some(phase(Load::Closed, closed / 2, false, 1)),
            Some(phase(Load::Closed, closed / 2, true, 2)),
            phase(open_load, seconds - closed, true, 3),
        ),
        (false, true) => (
            Some(phase(open_load, closed, true, 1)),
            None,
            phase(open_load, seconds - closed, true, 3),
        ),
        (false, false) => (None, None, phase(open_load, seconds, true, 3)),
    };
    let after = bench.counts(false)?;
    let counts = after.since(&before);
    let refresh = {
        let m = bench.proxy.runtime().refresh_metrics();
        (m.polls(), m.errors(), m.triggered_coalesced(), m.drift())
    };
    let peak_rss = procfs::peak_rss_mb();
    let epoch = bench.fixture.epoch();
    let epoch_unix_ms = bench.fixture.epoch_unix_ms();
    let origin_addr = bench.fixture.addr();
    let until_ms = open.end.duration_since(epoch).as_millis() as u64;
    // The origin's load is the proxy's doing only while the offered load
    // is fixed: set-up and the open-loop phases. In a closed loop a faster
    // proxy asks the origin more often, so those phases are left out.
    let closed_phases: Vec<&PhaseRun> = if workload.closed_loop {
        [&warmup]
            .into_iter()
            .chain(&throughput)
            .chain(&traced_throughput)
            .collect()
    } else {
        Vec::new()
    };
    let fixed_load_requests =
        after.origin_requests - closed_phases.iter().map(|p| p.origin_requests).sum::<u64>();
    let fixed_load_secs = epoch.elapsed().as_secs_f64()
        - closed_phases
            .iter()
            .map(|p| (p.end - p.start).as_secs_f64())
            .sum::<f64>();

    // Stop the proxy first, so nothing is mid-poll when the origin goes.
    // The replays see the keys one more client would have asked for.
    let mut replay_stream = bench.key_stream(0, 1, u64::from(u32::MAX));
    let Bench {
        world,
        requests,
        keys: key_source,
        rules,
        group,
        fixture,
        proxy,
        conns,
        checkers,
        ..
    } = bench;
    drop(conns);
    drop(proxy);
    let origin_log = fixture.finish();

    // --- tallies --------------------------------------------------------
    let measured: Vec<&PhaseRun> = throughput
        .iter()
        .chain(traced_throughput.iter())
        .chain([&open])
        .collect();
    let client_attempted: u64 = measured.iter().map(|p| p.sum(|l| l.attempted)).sum();
    let client_failed: u64 = measured.iter().map(|p| p.sum(|l| l.failed)).sum();
    let hits: u64 = measured.iter().map(|p| p.sum(|l| l.hits)).sum();
    let misses: u64 = measured.iter().map(|p| p.sum(|l| l.misses)).sum();
    let attempted = client_attempted + counts.polls;
    let failed = client_failed + counts.poll_errors;
    let stamp_regressions: u64 = checkers.iter().map(|c| c.stamp_regressions).sum();
    let faults: Vec<Fault> = measured
        .iter()
        .flat_map(|p| p.logs.iter())
        .flat_map(|l| l.faults.iter().copied())
        .collect();
    for fault in faults.iter().take(5) {
        notes.push(format!("FAILED request: {fault:?}"));
    }
    // A timeout or a refusal is a failure; a reply that arrived and was
    // wrong is an incorrect output.
    let incorrect = faults.iter().any(|f| !matches!(f, Fault::Status(_)));

    // Open-loop samples: every open phase of the run. The rate phase of
    // an open-loop workload is its open phase.
    let open_phases: Vec<&PhaseRun> = if workload.closed_loop {
        vec![&open]
    } else {
        throughput.iter().chain([&open]).collect()
    };
    let open_samples: Vec<&Sample> = open_phases.iter().flat_map(|p| p.samples()).collect();
    let unsent: u64 = open_phases.iter().map(|p| p.sum(|l| l.unsent)).sum();
    let scheduled = open_samples.len() as u64 + unsent;
    let starved = unsent * 20 > scheduled;
    if starved {
        notes.push(format!(
            "SKIP: the generator sent {} of {scheduled} scheduled open-loop requests; \
             the fixed rate of {} req/s was not reached, so no latency is reported",
            open_samples.len(),
            workload.open_rate
        ));
    }
    let (latency, late) = latency_figures(&open_samples);
    let rate_phase = throughput.as_ref().unwrap_or(&open);
    let rates = rate_phase.window_rates();
    if let (true, Some(rate)) = (workload.closed_loop, stats::median(&rates)) {
        if f64::from(workload.open_rate) > OPEN_RATE_CEILING * rate {
            notes.push(format!(
                "WARNING: open-loop rate {} req/s exceeds {OPEN_RATE_CEILING} x the closed-loop \
                 rate measured in this run ({rate:.0} req/s); latency includes queueing",
                workload.open_rate
            ));
        }
    }
    if let Some(rule) = workload.rules {
        let drift = refresh.3.p99_ms;
        let limit = rule.delta.as_secs_f64() * 1e3 / 4.0;
        let half = open.ticks[open.ticks.len() / 2].drift_p99_ms;
        if drift >= limit || drift > 2.0 * half.max(1.0) {
            notes.push(format!(
                "WARNING: refresh drift p99 {drift:.1} ms (mid-run {half:.1} ms, limit {limit:.0} ms): \
                 the refresh plane is not keeping up, fidelity measures a backlog"
            ));
        }
    }

    // --- fidelity, from the origin's side -------------------------------
    let delta = CoreDuration::from_millis(workload.scoring_delta().as_millis() as u64);
    let until = Timestamp::from_millis(until_ms);
    let poll_logs = score::poll_logs(&origin_log, world.paths.len(), until_ms);
    let fidelity_dt = score::fidelity_dt(&world.traces, &poll_logs, delta, until);
    let pairs = score::scored_pairs(world.paths.len());
    let fidelity_mt = score::fidelity_mt(&world.traces, &poll_logs, &pairs, delta, until);

    let cpu = rate_phase.window_cpu_us();
    if cpu.is_none() {
        notes.push(
            "SKIP: neither /proc/self/task/*/schedstat nor /proc/self/stat is readable; \
             no CPU figure is reported"
                .into(),
        );
    }

    let speed = Speed {
        unusable: fell_back.then(|| format!("the {wanted} backend fell back")),
        rates: &rates,
        cpu: cpu.as_deref(),
        latency: (!starved).then_some(latency.as_slice()),
    };
    let mut ungated = Sheet::new(&PER_LAYER);
    let metrics = if options.trace {
        let mut oracle = ReadOracle::default();
        for sample in &open_samples {
            oracle.observe(&world.traces, delta.as_millis(), sample);
        }
        let keys: Vec<u32> = (0..layers::CALLS)
            .map(|_| replay_stream.next_key())
            .collect();
        let replayed = layers::replay(&layers::Inputs {
            workload: &workload,
            world: &world,
            keys: &keys,
            requests: &requests,
            catalog: match &key_source {
                KeySource::Zipf(catalog) => Some(catalog),
                _ => None,
            },
            origin_addr,
            epoch_unix_ms,
            origin_log: &origin_log,
            rules: &rules,
            group,
            until_ms,
            epoch,
        });
        let traced_phases: Vec<&PhaseRun> = traced_throughput.iter().chain([&open]).collect();
        let spans = trace::build(
            &traced_phases
                .iter()
                .flat_map(|p| p.samples())
                .copied()
                .collect::<Vec<_>>(),
            &origin_log,
            (
                traced_phases[0].start.duration_since(epoch).as_nanos() as u64,
                open.end.duration_since(epoch).as_nanos() as u64,
            ),
        );
        match trace::write(&workload, options.seed, &spans, &replayed.spans) {
            Ok(path) => notes.push(format!("trace written to {}", path.display())),
            Err(e) => notes.push(format!("WARNING: trace not written: {e}")),
        }
        per_layer_metrics(&PerLayer {
            speed: &speed,
            counts: &counts,
            refresh,
            hits,
            misses,
            requests: client_attempted - client_failed,
            cpu_us_per_req: cpu
                .as_deref()
                .and_then(|c| stats::undisturbed_quartile(c, false))
                .map(|s| s.value),
            plain_rate: stats::undisturbed_quartile(&rates, true).map(|s| s.value),
            traced_rate: stats::undisturbed_quartile(
                &traced_throughput.as_ref().unwrap_or(&open).window_rates(),
                true,
            )
            .map(|s| s.value),
            latency: &latency,
            late: &late,
            sent: client_attempted,
            origin_log: &origin_log,
            measured_from_ns: measured[0].start.duration_since(epoch).as_nanos() as u64,
            replayed: &replayed,
            spans: &spans,
            oracle,
            stamp_regressions,
        })
    } else {
        speed.put_into(&mut ungated);
        let mut sheet = Sheet::new(&END_TO_END);
        sheet.medians("setup_s", &setup_s);
        sheet.put(
            "ok_ratio",
            Summary {
                value: 1.0 - failed as f64 / attempted.max(1) as f64,
                n: attempted as usize,
                iqr: 0.0,
            },
        );
        match peak_rss {
            Some(mb) => sheet.value("peak_rss_mb", mb),
            None => sheet.missing("peak_rss_mb", "/proc/self/status unreadable".into()),
        }
        sheet.put(
            "fidelity_dt",
            Summary {
                value: fidelity_dt,
                n: world.paths.len(),
                iqr: 0.0,
            },
        );
        sheet.put(
            "fidelity_mt",
            Summary {
                value: fidelity_mt,
                n: pairs.len(),
                iqr: 0.0,
            },
        );
        sheet.put(
            "origin_req_per_s",
            Summary {
                value: fixed_load_requests as f64 / fixed_load_secs,
                n: fixed_load_requests as usize,
                iqr: 0.0,
            },
        );
        sheet.finish(|def| Metric {
            def: *def,
            summary: None,
            note: Some("not measured".into()),
        })
    };

    Ok(Report {
        options: options.clone(),
        runner,
        clients,
        backends,
        environment,
        correct: !incorrect && stamp_regressions == 0,
        attempted,
        failed,
        stamp_regressions,
        metrics,
        ungated: ungated.metrics,
        notes,
    })
}

/// The speed figures of a run — throughput, CPU per request, latency.
/// They are what a user of the proxy feels first and what this runner
/// cannot gate (its own speed swings by a third for minutes at a time),
/// so an untraced run prints them beside the end-to-end metrics and a
/// traced run reports them as `loadgen.*`.
struct Speed<'a> {
    /// `Some(why)` when they would describe the wrong thing altogether.
    unusable: Option<String>,
    /// Completed requests per second, per window.
    rates: &'a [f64],
    /// CPU microseconds per request, per window.
    cpu: Option<&'a [f64]>,
    /// Open-loop latencies, ascending; `None` when the generator could
    /// not keep its schedule.
    latency: Option<&'a [f64]>,
}

impl Speed<'_> {
    fn put_into(&self, sheet: &mut Sheet) {
        const NAMES: [&str; 4] = [
            "loadgen.req_per_s",
            "loadgen.cpu_us_per_req",
            "loadgen.p50_us",
            "loadgen.p99_us",
        ];
        if let Some(why) = &self.unusable {
            for name in NAMES {
                sheet.missing(name, why.clone());
            }
            return;
        }
        sheet.windows("loadgen.req_per_s", self.rates);
        match self.cpu {
            Some(cpu) => sheet.windows("loadgen.cpu_us_per_req", cpu),
            None => sheet.missing("loadgen.cpu_us_per_req", "CPU accounting unreadable".into()),
        }
        for (name, p) in [("loadgen.p50_us", 50.0), ("loadgen.p99_us", 99.0)] {
            match self.latency {
                None => sheet.missing(name, "fixed open-loop rate not reached".into()),
                Some(latency) if !stats::supports(latency.len(), p) => {
                    sheet.missing(
                        name,
                        format!("{} samples cannot support p{p}", latency.len()),
                    );
                }
                Some(latency) => {
                    let value = stats::percentile(latency, p).expect("supported implies samples");
                    // The spread beside a percentile is that of the
                    // distribution around it.
                    let iqr = stats::quartiles(latency).map_or(0.0, |q| q[2] - q[0]);
                    sheet.put(
                        name,
                        Summary {
                            value,
                            n: latency.len(),
                            iqr,
                        },
                    );
                }
            }
        }
    }
}

/// Everything the per-layer sheet is computed from.
struct PerLayer<'a> {
    speed: &'a Speed<'a>,
    counts: &'a Counts,
    refresh: (u64, u64, u64, mutcon_live::runtime::DriftSnapshot),
    hits: u64,
    misses: u64,
    /// Client requests completed in the measured phases.
    requests: u64,
    cpu_us_per_req: Option<f64>,
    plain_rate: Option<f64>,
    traced_rate: Option<f64>,
    latency: &'a [f64],
    late: &'a [f64],
    sent: u64,
    origin_log: &'a [LogRecord],
    measured_from_ns: u64,
    replayed: &'a Replayed,
    spans: &'a trace::Spans,
    oracle: ReadOracle,
    stamp_regressions: u64,
}

fn per_layer_metrics(p: &PerLayer<'_>) -> Vec<Metric> {
    let mut sheet = Sheet::new(&PER_LAYER);
    p.speed.put_into(&mut sheet);
    let c = p.counts;
    let requests = p.requests.max(1) as f64;
    for (name, summary) in &p.replayed.figures {
        sheet.put(name, *summary);
    }
    let served = (p.hits + p.misses).max(1) as f64;
    let hit_ratio = p.hits as f64 / served;
    let l1_hit_ratio = c.l1_hits as f64 / requests;
    sheet.value("live.cache.hit_ratio", hit_ratio);
    sheet.value("live.cache.l1_hit_ratio", l1_hit_ratio);
    sheet.value("live.cache.l1_stale_rejects", c.l1_stale_rejects as f64);
    sheet.value("live.cache.l1_refills", c.l1_refills as f64);
    sheet.value("live.cache.evictions", c.evictions as f64);
    sheet.value("live.cache.version_bumps", c.version_bumps as f64);
    sheet.value("live.cache.touch_skips", c.touch_skips as f64);
    sheet.value(
        "live.vectored.writev_per_req",
        c.writev_calls as f64 / requests,
    );
    sheet.value("live.vectored.body_copies", c.body_copies as f64);
    sheet.value("live.vectored.buf_allocs", c.buf_allocs as f64);
    sheet.value("live.upstream.opened", c.pool_opened as f64);
    sheet.value("live.upstream.reuses", c.pool_reuses as f64);
    sheet.value("live.upstream.coalesced", c.pool_coalesced as f64);
    sheet.value("live.upstream.retries", c.pool_retries as f64);
    sheet.value("live.overload.shed", c.shed as f64);
    sheet.value(
        "live.server.epoll_ctl_per_req",
        c.epoll_ctl_calls as f64 / requests,
    );
    sheet.value("live.server.write_stalls", c.write_stalls as f64);
    let (polls, errors, coalesced, drift) = p.refresh;
    sheet.value("live.runtime.polls", polls as f64);
    sheet.value("live.runtime.errors", errors as f64);
    sheet.value("live.runtime.triggered", c.triggered as f64);
    sheet.value("live.runtime.triggered_coalesced", coalesced as f64);
    sheet.value("live.runtime.refreshes", c.refreshes as f64);
    sheet.put(
        "live.runtime.drift_p50_ms",
        Summary {
            value: drift.p50_ms,
            n: drift.count as usize,
            iqr: 0.0,
        },
    );
    sheet.put(
        "live.runtime.drift_p99_ms",
        Summary {
            value: drift.p99_ms,
            n: drift.count as usize,
            iqr: 0.0,
        },
    );
    sheet.put(
        "live.runtime.drift_max_ms",
        Summary {
            value: drift.max_ms,
            n: drift.count as usize,
            iqr: 0.0,
        },
    );

    // What the replayed layers account for, per client request, given
    // the mix this run saw: every request is parsed, looked up in the L1
    // and flushed; an L1 miss goes to the L2 and, on an L2 hit, refills
    // the L1; a cache miss runs the upstream pool, parses the origin's
    // response and stores it; each refresher poll is observed by LIMD
    // and, when it brought a new version, parsed and stored too.
    let ns = |name: &str| p.replayed.get(name).unwrap_or(0.0);
    let miss_ratio = 1.0 - hit_ratio;
    let store =
        ns("http.response_parse_ns") + ns("http.head_render_ns") + ns("live.cache.l2_insert_ns");
    let polls_per_req = c.polls as f64 / requests;
    let refresh_share = if c.polls == 0 {
        0.0
    } else {
        c.refreshes as f64 / c.polls as f64
    };
    let attributed_us = (ns("http.request_parse_ns")
        + ns("live.cache.l1_lookup_ns")
        + (1.0 - l1_hit_ratio) * ns("live.cache.l2_get_ns")
        + (hit_ratio - l1_hit_ratio).max(0.0) * ns("live.cache.l1_insert_ns")
        + ns("live.vectored.flush_ns")
        + miss_ratio * (ns("live.upstream.cycle_ns") + store)
        + polls_per_req * (ns("core.limd.observe_ns") + refresh_share * store))
        / 1e3;
    sheet.value("live.server.attributed_us_per_req", attributed_us);
    match p.cpu_us_per_req {
        Some(cpu) => {
            sheet.value("live.server.unattributed_us_per_req", cpu - attributed_us);
            if c.polls > 0 {
                // Process CPU over the same windows, per poll instead of
                // per request.
                sheet.value("live.runtime.cpu_us_per_poll", cpu / polls_per_req);
            }
        }
        None => sheet.missing(
            "live.server.unattributed_us_per_req",
            "CPU accounting unreadable".into(),
        ),
    }

    let serve_us: Vec<f64> = p
        .origin_log
        .iter()
        .filter(|r| r.at_ns >= p.measured_from_ns)
        .map(|r| r.serve_ns as f64 / 1e3)
        .collect();
    if let Some(summary) = stats::summarize(&serve_us) {
        sheet.put("origin.serve_p50_us", summary);
    }
    if let Some(value) = stats::percentile(p.late, 99.0) {
        sheet.put(
            "loadgen.late_p99_us",
            Summary {
                value,
                n: p.late.len(),
                iqr: 0.0,
            },
        );
    }
    sheet.value("loadgen.sent", p.sent as f64);
    if let Some((tail, beyond)) = stats::highest_supported_tail(p.latency.len()) {
        let value = stats::percentile(p.latency, tail).expect("supported implies samples");
        sheet.put(
            "loadgen.tail_us",
            Summary {
                value,
                n: beyond,
                iqr: 0.0,
            },
        );
        sheet.value("loadgen.tail_percentile", tail);
    }
    if let (Some(plain), Some(traced)) = (p.plain_rate, p.traced_rate) {
        sheet.value("trace.overhead_ratio", traced / plain);
    }
    sheet.value("trace.spans", p.spans.len() as f64);
    if let Some(summary) = stats::summarize(&p.spans.request_self_us()) {
        sheet.put("trace.request_self_p50_us", summary);
    }
    if let Some(summary) = stats::summarize(&p.spans.origin_serve_us()) {
        sheet.put("trace.origin_serve_p50_us", summary);
    }
    sheet.value("oracle.reads_checked", p.oracle.checked as f64);
    sheet.value("oracle.stamp_regressions", p.stamp_regressions as f64);
    sheet.value("oracle.read_fidelity_dt", p.oracle.fidelity());
    // A layer the workload does not exercise reports 0: the count is a
    // true zero, and a zero time says "did not run" (see README.md).
    sheet.finish(|def| Metric {
        def: *def,
        summary: Some(Summary {
            value: 0.0,
            n: 0,
            iqr: 0.0,
        }),
        note: Some("layer did not run".into()),
    })
}
