//! Per-layer cost, measured from outside: the inputs a workload generates
//! are replayed through each layer's public functions and timed.
//!
//! A clock read costs about as much as an L1 lookup, so calls are timed
//! in batches of [`BATCH`]: one span per batch, and the reported figure is
//! the median batch divided by the batch size, with the number of calls
//! it rests on. The spans go to the trace file like the socket spans.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use mutcon_core::limd::{Limd, LimdConfig, PollResult, PollView};
use mutcon_core::limit::{AimdConfig, Limiter, LimiterConfig, Sample as LimitSample};
use mutcon_core::mutual::temporal::MtCoordinator;
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration as CoreDuration, Timestamp};
use mutcon_http::parse::{RequestParser, ResponseParser};
use mutcon_live::cache::{CacheEntry, L1Cache, L1Lookup, ShardedCache, SHARD_COUNT};
use mutcon_live::proxy::{GroupRule, RefreshRule};
use mutcon_live::runtime::ConsistencyRuntime;
use mutcon_live::server::DEFAULT_REFRESH_WORKERS;
use mutcon_live::upstream::{PoolCore, Submit, MAX_CONNS_PER_ORIGIN};
use mutcon_live::vectored::{FlushStats, WritePlan, WriteSink, MAX_RETAINED_CAP};
use mutcon_proxy::cache::LruMap;
use mutcon_proxy::drivers::temporal::{
    run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig,
};
use mutcon_proxy::origin::OriginServer;
use mutcon_sim::rng::SimRng;
use mutcon_traces::generator::zipf::ZipfCatalog;

use crate::fixture::{write_body, write_response, LogRecord, Served, World};
use crate::score;
use crate::spec::Workload;
use crate::stats::{self, Summary};

/// Calls per timed span.
pub const BATCH: usize = 32;

/// Calls each replay makes (the key stream's length).
pub const CALLS: usize = 8192;

/// Distinct objects whose bodies and responses are materialised for the
/// replays; the key stream is folded onto them.
const MATERIALISED: usize = 64;

/// One timed batch.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: usize,
}

/// What the replays need from the run.
pub struct Inputs<'a> {
    pub workload: &'a Workload,
    pub world: &'a World,
    /// The workload's key stream, [`CALLS`] long.
    pub keys: &'a [u32],
    /// Client request bytes per path.
    pub requests: &'a [Vec<u8>],
    pub catalog: Option<&'a ZipfCatalog>,
    pub origin_addr: SocketAddr,
    pub epoch_unix_ms: u64,
    /// The origin's request log, in arrival order.
    pub origin_log: &'a [LogRecord],
    pub rules: &'a [RefreshRule],
    pub group: Option<GroupRule>,
    /// End of the scored window, trace time.
    pub until_ms: u64,
    /// The instant span times are relative to.
    pub epoch: Instant,
}

/// Every replayed figure, by metric name. A layer the workload does not
/// run is absent.
#[derive(Debug, Default)]
pub struct Replayed {
    pub figures: Vec<(&'static str, Summary)>,
    pub spans: Vec<LayerSpan>,
}

impl Replayed {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.figures
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.value)
    }
}

struct Timer<'a> {
    epoch: Instant,
    out: &'a mut Replayed,
}

impl Timer<'_> {
    /// Times `call(i)` for `i` in `0..calls`, [`BATCH`] per span, and
    /// records nanoseconds per call under `name`. `prepare(range)` runs
    /// untimed before each batch.
    fn time<S>(
        &mut self,
        name: &'static str,
        calls: usize,
        state: &mut S,
        mut prepare: impl FnMut(&mut S, std::ops::Range<usize>),
        mut call: impl FnMut(&mut S, usize),
    ) {
        let mut per_call = Vec::with_capacity(calls / BATCH);
        for batch in 0..calls / BATCH {
            let range = batch * BATCH..(batch + 1) * BATCH;
            prepare(state, range.clone());
            let start = Instant::now();
            for i in range {
                call(state, i);
            }
            let end = Instant::now();
            per_call.push((end - start).as_nanos() as f64 / BATCH as f64);
            self.out.spans.push(LayerSpan {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                calls: BATCH,
            });
        }
        if let Some(mut summary) = stats::summarize(&per_call) {
            summary.n = per_call.len() * BATCH;
            self.out.figures.push((name, summary));
        }
    }

    fn single(&mut self, name: &'static str, value: f64) {
        self.out.figures.push((name, Summary::single(value)));
    }
}

/// For replays with nothing to stage between batches.
fn no_prepare<S>(_: &mut S, _: std::ops::Range<usize>) {}

/// A sink that takes everything it is offered, as an idle socket does.
struct CountingSink(usize);

impl WriteSink for CountingSink {
    fn write_one(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn write_two(&mut self, first: &[u8], second: &[u8]) -> std::io::Result<usize> {
        self.0 += first.len() + second.len();
        Ok(first.len() + second.len())
    }
}

fn entry_for(world: &World, epoch_unix_ms: u64, path: u32) -> CacheEntry {
    let mut body = Vec::with_capacity(world.body_bytes);
    write_body(&mut body, path, 0, world.body_bytes);
    CacheEntry::new(
        Bytes::from(body),
        Timestamp::from_millis(epoch_unix_ms),
        None,
        Some("0".to_owned()),
    )
}

/// The LIMD configuration the proxy derives from a rule.
fn limd_config(rule: &RefreshRule) -> LimdConfig {
    LimdConfig::builder(rule.delta)
        .ttr_max(rule.ttr_max)
        .build()
        .expect("the proxy accepted this rule, so its LIMD config builds")
}

/// Runs every replay the workload's layers call for.
pub fn replay(inputs: &Inputs<'_>) -> Replayed {
    let mut out = Replayed::default();
    let mut timer = Timer {
        epoch: inputs.epoch,
        out: &mut out,
    };
    let world = inputs.world;
    let keys = inputs.keys;
    let calls = keys.len() / BATCH * BATCH;
    let fold = |i: usize| keys[i] as usize % MATERIALISED.min(world.paths.len());

    // --- http -----------------------------------------------------------
    timer.time(
        "http.request_parse_ns",
        calls,
        &mut (),
        no_prepare,
        |_, i| {
            let parsed =
                RequestParser::new().advance(black_box(&inputs.requests[keys[i] as usize]));
            black_box(parsed.expect("the harness sends well-formed requests"));
        },
    );
    let materialised = MATERIALISED.min(world.paths.len());
    let responses: Vec<Vec<u8>> = (0..materialised as u32)
        .map(|path| {
            let mut out = Vec::new();
            write_response(
                &mut out,
                Served::Full,
                inputs.epoch_unix_ms,
                path,
                0,
                world.body_bytes,
            );
            out
        })
        .collect();
    timer.time(
        "http.response_parse_ns",
        calls,
        &mut (),
        no_prepare,
        |_, i| {
            let parsed = ResponseParser::new().advance(black_box(&responses[fold(i)]));
            black_box(parsed.expect("the fixture writes well-formed responses"));
        },
    );
    let bodies: Vec<Bytes> = (0..materialised as u32)
        .map(|path| entry_for(world, inputs.epoch_unix_ms, path).body().clone())
        .collect();
    timer.time("http.head_render_ns", calls, &mut (), no_prepare, |_, i| {
        black_box(CacheEntry::new(
            bodies[fold(i)].clone(),
            Timestamp::from_millis(inputs.epoch_unix_ms + i as u64),
            None,
            Some("0".to_owned()),
        ));
    });

    // --- live.cache, proxy.lru ------------------------------------------
    // The L2 as the workload leaves it: every object when unbounded, the
    // first `capacity` objects when bounded (so the key stream then meets
    // it at capacity and inserts evict).
    let l2 = ShardedCache::new(inputs.workload.cache_objects);
    let resident = inputs
        .workload
        .cache_objects
        .unwrap_or(world.paths.len())
        .min(world.paths.len());
    for path in 0..resident as u32 {
        l2.insert(
            &world.paths[path as usize],
            entry_for(world, inputs.epoch_unix_ms, path),
        );
    }
    timer.time(
        "live.cache.l2_get_ns",
        calls,
        &mut (),
        no_prepare,
        |_, i| {
            black_box(l2.get_versioned(black_box(&world.paths[keys[i] as usize])));
        },
    );
    let mut l1 = L1Cache::new(mutcon_live::server::DEFAULT_L1_OBJECTS);
    let generation = l2.generation();
    // Lookups are timed; the refills a reactor would do for the misses of
    // a batch happen between batches, untimed.
    let mut refills: Vec<u32> = Vec::with_capacity(BATCH);
    for &key in keys {
        if !matches!(
            l1.lookup(&world.paths[key as usize], generation),
            L1Lookup::Hit(_)
        ) {
            if let Some(hit) = l2.get_versioned(&world.paths[key as usize]) {
                l1.insert(&world.paths[key as usize], hit);
            }
        }
    }
    timer.time(
        "live.cache.l1_lookup_ns",
        calls,
        &mut (&mut l1, &mut refills),
        |(l1, refills), _| {
            for key in refills.drain(..) {
                if let Some(hit) = l2.get_versioned(&world.paths[key as usize]) {
                    l1.insert(&world.paths[key as usize], hit);
                }
            }
        },
        |(l1, refills), i| {
            let found = l1.lookup(black_box(&world.paths[keys[i] as usize]), generation);
            if !matches!(black_box(found), L1Lookup::Hit(_)) {
                refills.push(keys[i]);
            }
        },
    );
    // A reactor only refills from an L2 hit, so the insert replay folds
    // the key stream onto what the (possibly bounded) L2 actually holds.
    let held: Vec<usize> = (0..world.paths.len())
        .filter(|&k| l2.get(&world.paths[k]).is_some())
        .collect();
    let mut staged = Vec::with_capacity(BATCH);
    timer.time(
        "live.cache.l1_insert_ns",
        calls,
        &mut (&mut l1, &mut staged),
        |(_, staged), range| {
            staged.clear();
            staged.extend(range.map(|i| {
                let key = held[keys[i] as usize % held.len()];
                (
                    key,
                    l2.get_versioned(&world.paths[key])
                        .expect("held and not evicted since"),
                )
            }));
        },
        |(l1, staged), i| {
            let (key, versioned) = &staged[i % BATCH];
            l1.insert(&world.paths[*key], versioned.clone());
        },
    );
    let mut fresh: Vec<CacheEntry> = Vec::with_capacity(BATCH);
    timer.time(
        "live.cache.l2_insert_ns",
        calls,
        &mut fresh,
        |fresh, range| {
            fresh.clear();
            fresh.extend(
                range
                    .rev()
                    .map(|i| entry_for(world, inputs.epoch_unix_ms, keys[i])),
            );
        },
        |fresh, i| {
            let entry = fresh.pop().expect("one staged entry per call");
            black_box(l2.insert_if_newer(&world.paths[keys[i] as usize], entry));
        },
    );
    let shard_capacity = inputs
        .workload
        .cache_objects
        .map_or(64, |total| total.div_ceil(SHARD_COUNT));
    let mut lru: LruMap<String, u64, u64> = LruMap::with_capacity(shard_capacity);
    for i in 0..shard_capacity as u64 {
        lru.insert(format!("/resident/{i}"), i, i);
    }
    let mut clock = shard_capacity as u64;
    let mut names: Vec<String> = Vec::with_capacity(BATCH);
    timer.time(
        "proxy.lru.insert_evict_ns",
        calls,
        &mut (&mut lru, &mut names, &mut clock),
        |(_, names, clock), range| {
            names.clear();
            names.extend(
                range
                    .rev()
                    .map(|i| format!("/fresh/{}", **clock + i as u64)),
            );
        },
        |(lru, names, clock), _| {
            **clock += 1;
            let name = names.pop().expect("one staged key per call");
            black_box(lru.insert(name, **clock, **clock));
        },
    );

    // --- live.vectored --------------------------------------------------
    let heads: Vec<Bytes> = (0..materialised as u32)
        .map(|path| entry_for(world, inputs.epoch_unix_ms, path).head().clone())
        .collect();
    let mut plan = WritePlan::new();
    let mut sink = CountingSink(0);
    let mut flush_stats = FlushStats::default();
    timer.time(
        "live.vectored.flush_ns",
        calls,
        &mut plan,
        no_prepare,
        |plan, i| {
            let buf = plan.buf_mut();
            buf.extend_from_slice(&heads[fold(i)]);
            buf.extend_from_slice(b"x-cache: hit\r\n\r\n");
            plan.set_body(bodies[fold(i)].clone());
            let flushed = plan.flush(&mut sink, MAX_RETAINED_CAP, &mut flush_stats);
            black_box(flushed.expect("the counting sink never fails"));
        },
    );
    black_box(sink.0);

    // --- live.upstream, core.limit --------------------------------------
    let addr = inputs.origin_addr;
    let mut pool: PoolCore<u32> = PoolCore::new(MAX_CONNS_PER_ORIGIN);
    let now = Instant::now();
    timer.time(
        "live.upstream.cycle_ns",
        calls,
        &mut pool,
        no_prepare,
        |pool, i| {
            let request = inputs.requests[keys[i] as usize].clone();
            if let Submit::New(job) = pool.submit(addr, request, i as u32) {
                pool.pop_queued(addr);
                let conn = pool.claim_idle(addr).unwrap_or_else(|| {
                    pool.note_opened(addr);
                    0
                });
                pool.assign(job, conn);
                black_box(pool.complete(job));
                pool.release_idle(addr, conn, now);
            }
        },
    );
    let mut limiter = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 32)
        .expect("the default AIMD configuration is valid");
    timer.time(
        "core.limit.on_sample_ns",
        calls,
        &mut limiter,
        no_prepare,
        |limiter, i| {
            let sample =
                LimitSample::success(i % 48, CoreDuration::from_millis(1 + (i % 7) as u64));
            black_box(limiter.on_sample(black_box(&sample)));
        },
    );

    // --- traces ---------------------------------------------------------
    if let Some(catalog) = inputs.catalog {
        let mut rng = SimRng::seed_from_u64(1);
        timer.time(
            "traces.zipf_sample_ns",
            calls,
            &mut rng,
            no_prepare,
            |rng, _| {
                black_box(catalog.sample(rng));
            },
        );
    }

    // --- live.runtime, core.limd, core.mutual, proxy.sim ----------------
    if !inputs.rules.is_empty() {
        replay_refresh_plane(inputs, &mut timer);
    }
    out
}

/// The refresh plane's layers, for workloads that install rules.
fn replay_refresh_plane(inputs: &Inputs<'_>, timer: &mut Timer<'_>) {
    let world = inputs.world;

    // Install cost: a runtime with the rule set, then a swap to the same
    // paths with a changed Δ (every path rebuilds).
    let changed: Vec<RefreshRule> = inputs
        .rules
        .iter()
        .map(|r| RefreshRule::new(r.path.clone(), r.delta * 2))
        .collect();
    let installs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let runtime = ConsistencyRuntime::new(inputs.rules.to_vec(), inputs.group)
                .expect("the proxy accepted these rules");
            runtime
                .install(changed.clone(), inputs.group)
                .expect("only Δ changed");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    if let Some(summary) = stats::summarize(&installs) {
        timer.out.figures.push(("live.runtime.install_ms", summary));
    }

    // Dispatch capacity: the same paths at Δ = 10 ms against a poller
    // that does nothing but report a change (so LIMD keeps every path at
    // its shortest TTR): heap, dispatcher, workers and LIMD are all that
    // is left.
    let fast: Vec<RefreshRule> = inputs
        .rules
        .iter()
        .map(|r| RefreshRule::new(r.path.clone(), CoreDuration::from_millis(10)))
        .collect();
    let fast_group = inputs.group.map(|g| GroupRule {
        delta: CoreDuration::from_millis(10),
        ..g
    });
    let runtime = ConsistencyRuntime::new(fast, fast_group).expect("10 ms is a valid Δ");
    let shutdown = AtomicBool::new(false);
    let window = Duration::from_millis(400);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            runtime.run(
                &shutdown,
                DEFAULT_REFRESH_WORKERS,
                |_| {
                    |_, _: &str| {
                        let now = std::time::SystemTime::now()
                            .duration_since(std::time::UNIX_EPOCH)
                            .unwrap_or_default();
                        Some(PollResult::modified(Timestamp::from_millis(
                            now.as_millis() as u64,
                        )))
                    }
                },
                |_| {},
                |_| {},
            );
        });
        std::thread::sleep(window);
        shutdown.store(true, Ordering::SeqCst);
        runtime.wake();
    });
    let polls = runtime.refresh_metrics().polls() as f64;
    timer.single(
        "live.runtime.dispatch_polls_per_s",
        polls / start.elapsed().as_secs_f64(),
    );

    // What the refresher learned from each origin answer, in order.
    struct Observation {
        path: u32,
        at: Timestamp,
        modified: Option<Timestamp>,
    }
    let observations: Vec<Observation> = inputs
        .origin_log
        .iter()
        .map(|r| Observation {
            path: r.path,
            at: Timestamp::from_millis(inputs.epoch_unix_ms + r.at_ms()),
            modified: (r.served == Served::Full).then(|| {
                let created = world.traces[r.path as usize].events()[r.version as usize].at;
                Timestamp::from_millis(inputs.epoch_unix_ms + created.as_millis())
            }),
        })
        .collect();
    let view = |o: &Observation| match o.modified {
        Some(last_modified) => PollView::Modified {
            last_modified,
            history: None,
        },
        None => PollView::NotModified,
    };
    let calls = observations.len().min(CALLS) / BATCH * BATCH;
    let mut limds: Vec<Limd> = inputs
        .rules
        .iter()
        .map(|r| Limd::new(limd_config(r)))
        .collect();
    timer.time(
        "core.limd.observe_ns",
        calls,
        &mut limds,
        |_, _| {},
        |limds, i| {
            let o = &observations[i];
            black_box(limds[o.path as usize].observe(o.at, view(o)));
        },
    );
    if let Some(group) = inputs.group {
        let mut coordinator: MtCoordinator<u32> =
            MtCoordinator::new(group.delta, group.policy, 0..inputs.rules.len() as u32);
        timer.time(
            "core.mutual.observe_ns",
            calls,
            &mut coordinator,
            |_, _| {},
            |c, i| {
                let o = &observations[i];
                black_box(c.observe(&o.path, o.at, view(o)));
            },
        );
    }

    // The simulator's prediction for the same traces, rules and window.
    let ids: Vec<ObjectId> = world.paths.iter().map(ObjectId::new).collect();
    let mut origin = OriginServer::new();
    for (id, trace) in ids.iter().zip(&world.traces) {
        origin.host(id.clone(), trace.clone());
    }
    let delta = inputs.rules[0].delta;
    let until = Timestamp::from_millis(inputs.until_ms);
    let simulated = run_temporal(
        &origin,
        &ids,
        &TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(&inputs.rules[0])),
            mutual: inputs.group.map(|g| MutualSetup {
                delta: g.delta,
                policy: g.policy,
            }),
            until,
        },
    );
    let logs: Vec<_> = ids.iter().map(|id| simulated.logs[id].clone()).collect();
    timer.single(
        "proxy.sim.fidelity_dt",
        score::fidelity_dt(&world.traces, &logs, delta, until),
    );
    let pairs = score::scored_pairs(ids.len());
    timer.single(
        "proxy.sim.fidelity_mt",
        score::fidelity_mt(&world.traces, &logs, &pairs, delta, until),
    );
    let polls = simulated.total_polls() as f64;
    timer.single("proxy.sim.polls", polls);
    timer.single(
        "proxy.sim.polls_per_s",
        polls / (inputs.until_ms as f64 / 1e3),
    );
}
