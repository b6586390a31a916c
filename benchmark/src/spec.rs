//! The benchmark's fixed definitions: the four workloads, the phase
//! lengths, and the name, unit and direction of every metric. Everything
//! here is identical on every commit; `BENCHMARK.json` repeats the
//! end-to-end names with their bounds.

use std::time::Duration;

/// Warm-up before the measured phases; its samples are discarded.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// A client request that has not been answered after this long has
/// failed, and is scored at this latency.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

/// Set-ups per untraced run; `setup_s` is their lower quartile.
pub const SETUP_REPS: usize = 7;

/// One response in this many is compared byte for byte.
pub const FULL_COMPARE_EVERY: u64 = 64;

/// The open-loop rate may be at most this share of the closed-loop rate
/// measured in the same run; above it the latency figures describe a
/// queue, not the proxy.
pub const OPEN_RATE_CEILING: f64 = 0.3;

/// How objects are picked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    Zipf(f64),
    Uniform,
    RoundRobin,
}

/// How the origin's objects change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Updates {
    /// Never.
    Static,
    /// Per-path Poisson process; the mean interval is log-uniform
    /// between the two bounds.
    Poisson {
        min_mean: Duration,
        max_mean: Duration,
    },
    /// The paper's four Table 2 news traces, compressed to span the run.
    NamedTemporal,
}

/// Consistency rules installed in the proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    pub delta: Duration,
    /// Whether the paths form one Mt group (δ = Δ, triggered polls).
    pub group: bool,
}

/// One traffic mix. See `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub objects: usize,
    pub body_bytes: usize,
    pub popularity: Popularity,
    pub updates: Updates,
    pub rules: Option<Rules>,
    pub cache_objects: Option<usize>,
    pub origin_latency: Duration,
    /// Whether the measured time is split into a closed-loop and an
    /// open-loop half (otherwise it is one open-loop phase).
    pub closed_loop: bool,
    /// Open-loop requests per second, over all connections.
    pub open_rate: u32,
}

pub const HOT_HIT: Workload = Workload {
    name: "hot_hit",
    objects: 512,
    body_bytes: 1024,
    popularity: Popularity::Zipf(1.0),
    updates: Updates::Static,
    rules: None,
    cache_objects: None,
    origin_latency: Duration::ZERO,
    closed_loop: true,
    open_rate: 4000,
};

pub const MISS_CHURN: Workload = Workload {
    name: "miss_churn",
    objects: 16384,
    body_bytes: 8192,
    popularity: Popularity::Uniform,
    updates: Updates::Static,
    rules: None,
    cache_objects: Some(1024),
    origin_latency: Duration::ZERO,
    closed_loop: true,
    open_rate: 1000,
};

pub const DELTA_FLEET: Workload = Workload {
    name: "delta_fleet",
    objects: 1024,
    body_bytes: 1024,
    popularity: Popularity::Zipf(1.0),
    updates: Updates::Poisson {
        min_mean: Duration::from_millis(250),
        max_mean: Duration::from_secs(32),
    },
    rules: Some(Rules {
        delta: Duration::from_millis(500),
        group: false,
    }),
    cache_objects: None,
    origin_latency: Duration::from_millis(1),
    closed_loop: false,
    open_rate: 500,
};

pub const MT_GROUP: Workload = Workload {
    name: "mt_group",
    objects: 4,
    body_bytes: 1024,
    popularity: Popularity::RoundRobin,
    updates: Updates::NamedTemporal,
    rules: Some(Rules {
        delta: Duration::from_millis(200),
        group: true,
    }),
    cache_objects: None,
    origin_latency: Duration::ZERO,
    closed_loop: false,
    open_rate: 100,
};

pub const WORKLOADS: [Workload; 4] = [HOT_HIT, MISS_CHURN, DELTA_FLEET, MT_GROUP];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The Δ that fidelity is scored against. Unruled workloads serve
    /// static objects, for which every Δ gives the same answer.
    pub fn scoring_delta(&self) -> Duration {
        self.rules.map_or(Duration::from_millis(500), |r| r.delta)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's fixed identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the proxy sees, as far as this runner can gate it.
/// Every workload reports every one.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", Lower),
    def("ok_ratio", "ratio", Higher),
    def("peak_rss_mb", "MiB", Lower),
    def("fidelity_dt", "ratio", Higher),
    def("fidelity_mt", "ratio", Higher),
    def("origin_req_per_s", "1/s", Lower),
];

/// Single layers, named after the modules they time or count. No bound;
/// they explain a move in an end-to-end metric.
pub const PER_LAYER: [MetricDef; 64] = [
    // Speed, end to end, but not gated: the runner's own speed swings by
    // a third for minutes at a time (see README.md).
    def("loadgen.req_per_s", "1/s", Higher),
    def("loadgen.cpu_us_per_req", "us", Lower),
    def("loadgen.p50_us", "us", Lower),
    def("loadgen.p99_us", "us", Lower),
    def("http.request_parse_ns", "ns", Lower),
    def("http.response_parse_ns", "ns", Lower),
    def("http.head_render_ns", "ns", Lower),
    def("live.cache.l1_lookup_ns", "ns", Lower),
    def("live.cache.l1_insert_ns", "ns", Lower),
    def("live.cache.l2_get_ns", "ns", Lower),
    def("live.cache.l2_insert_ns", "ns", Lower),
    def("proxy.lru.insert_evict_ns", "ns", Lower),
    def("live.cache.hit_ratio", "ratio", Higher),
    def("live.cache.l1_hit_ratio", "ratio", Higher),
    def("live.cache.l1_stale_rejects", "count", Lower),
    def("live.cache.evictions", "count", Lower),
    def("live.cache.version_bumps", "count", Lower),
    def("live.cache.touch_skips", "count", Higher),
    def("live.vectored.flush_ns", "ns", Lower),
    def("live.vectored.writev_per_req", "ratio", Lower),
    def("live.vectored.body_copies", "count", Lower),
    def("live.vectored.buf_allocs", "count", Lower),
    def("live.upstream.cycle_ns", "ns", Lower),
    def("live.upstream.opened", "count", Lower),
    def("live.upstream.reuses", "count", Higher),
    def("live.upstream.coalesced", "count", Higher),
    def("live.upstream.retries", "count", Lower),
    def("core.limit.on_sample_ns", "ns", Lower),
    def("live.overload.shed", "count", Lower),
    def("live.server.epoll_ctl_per_req", "ratio", Lower),
    def("live.server.write_stalls", "count", Lower),
    def("live.server.attributed_us_per_req", "us", Lower),
    def("live.server.unattributed_us_per_req", "us", Lower),
    def("live.runtime.dispatch_polls_per_s", "1/s", Higher),
    def("live.runtime.install_ms", "ms", Lower),
    def("live.runtime.polls", "count", Lower),
    def("live.runtime.errors", "count", Lower),
    def("live.runtime.triggered", "count", Lower),
    def("live.runtime.triggered_coalesced", "count", Higher),
    def("live.runtime.drift_p50_ms", "ms", Lower),
    def("live.runtime.drift_p99_ms", "ms", Lower),
    def("live.runtime.drift_max_ms", "ms", Lower),
    def("live.runtime.cpu_us_per_poll", "us", Lower),
    def("core.limd.observe_ns", "ns", Lower),
    def("core.mutual.observe_ns", "ns", Lower),
    def("proxy.sim.fidelity_dt", "ratio", Higher),
    def("proxy.sim.fidelity_mt", "ratio", Higher),
    def("proxy.sim.polls", "count", Lower),
    def("proxy.sim.polls_per_s", "1/s", Lower),
    def("origin.serve_p50_us", "us", Lower),
    def("traces.zipf_sample_ns", "ns", Lower),
    def("loadgen.late_p99_us", "us", Lower),
    def("loadgen.sent", "count", Higher),
    def("loadgen.tail_us", "us", Lower),
    def("loadgen.tail_percentile", "%", Higher),
    def("trace.overhead_ratio", "ratio", Higher),
    def("trace.spans", "count", Higher),
    def("trace.request_self_p50_us", "us", Lower),
    def("trace.origin_serve_p50_us", "us", Lower),
    def("oracle.reads_checked", "count", Higher),
    def("oracle.stamp_regressions", "count", Lower),
    def("oracle.read_fidelity_dt", "ratio", Higher),
    def("live.cache.l1_refills", "count", Lower),
    def("live.runtime.refreshes", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} defined twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn workloads_resolve_by_name() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name), Some(w));
        }
        assert_eq!(workload("nope"), None);
    }
}
