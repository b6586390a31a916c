#!/usr/bin/env bash
# Tier-1 verification, the live suites, the paper's tables and figures,
# and a smoke run of the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1: the whole workspace must build and test clean, offline.
cargo build --release
cargo test -q

# One I/O path: the reactor is epoll and nothing selects another. The
# classes keep this pattern from matching itself; the one line allowed
# to name the deleted backend is the unit test pinning that
# `BackendKind::parse` rejects it.
second_path='io[_-]?urin[g]|urin[g](backend|::|\.rs)|dyn Backen[d]'
if grep -rniE "$second_path" crates scripts src tests examples \
    | grep -v '^crates/sim/src/reactor/backend.rs:.*BackendKind::parse('; then
  echo "ci: a second reactor I/O path is back (lines above)" >&2
  exit 1
fi

# One option surface: every engine setting is a `ProxyConfig` /
# `OverloadConfig` field with a coded default. Nothing reads the
# environment, nothing documents a variable that would be read, and this
# script sets none (the class keeps the pattern from matching itself).
env_knob='MUTCON[_]'
if grep -rn 'env::var' crates/*/src \
    || grep -rn "$env_knob" crates src tests examples README.md .claude \
    || grep -nE "(^|[[:space:]])${env_knob}[A-Z0-9_]*=" scripts/ci.sh; then
  echo "ci: an environment knob is back (lines above)" >&2
  exit 1
fi

# One refresh plane: the poll workers step the scheduler themselves
# under one lock. No scheduler thread, job queue, completion channel,
# wake latch or status mirror comes back beside it.
if grep -nE 'mpsc|JobQueue|WakeSignal|publish_one' crates/live/src/runtime.rs; then
  echo "ci: a second hand-off is back in the refresh plane (lines above)" >&2
  exit 1
fi

# One §3 scheduler: LIMD state and the Mt coordinator are built in
# crates/proxy/src/schedule.rs, which the simulator's temporal driver and
# the live poll workers both step. Neither driver grows scheduling state
# or an event loop of its own again.
if grep -nE 'Limd::new|MtCoordinator::new|EventQueue' \
    crates/live/src/runtime.rs crates/proxy/src/drivers/temporal.rs; then
  echo "ci: a second scheduler is back in a driver (lines above)" >&2
  exit 1
fi

# One home per metric: a count is a cell in a `metrics!` declaration
# (crates/live/src/metrics.rs), which generates its accessor and its place
# in `/admin/stats`. No stats line names a cell by hand and no accessor
# loads an atomic by hand in the two files that used to.
if grep -nE 'Json::Number\(self\.metrics\.|\.(load|fetch_add|fetch_max)\([^)]*Ordering::Relaxed' \
    crates/live/src/proxy.rs crates/live/src/server.rs; then
  echo "ci: a hand-threaded counter is back (lines above)" >&2
  exit 1
fi

# One coherence mechanism, and the engine does not know the cache: an L1
# copy is valid until the flag on it says the L2 let go of it
# (crates/live/src/cache.rs). No per-path version table, handle or stamp
# comes back beside the flag, and above its test module server.rs names
# no cache type but the `L1Cache` it lends to `Service::respond`.
if grep -rnE 'VersionedEntry|bump_version|retire_version|RespondCacheable|l1_try_serve|l1_refill\b' crates \
    || sed '/#\[cfg(test)\]/q' crates/live/src/server.rs | grep -nE 'L1Lookup|ShardedCache|CacheEntry'; then
  echo "ci: a second L1 coherence protocol, or a cache type in the engine, is back (lines above)" >&2
  exit 1
fi

# Live-proxy smoke: origin + proxy on real sockets, hundreds of
# concurrent clients through the reactor threads — a stalled event
# loop shows up here as read timeouts, not as a hang. (One run in ~120
# has been seen to hang; the timeout names that failure.)
timeout 300 cargo test -q -p mutcon-live --test reactor_smoke

# The deterministic concurrency harness (fake clock + scripted origin +
# seeded schedules), the hot-swappable rule runtime, the zero-copy wire
# path, the L1's supersede flag and the refresh plane. Reactor
# counts, L1 on/off and refresh-worker counts are inputs the scenarios
# pin themselves. `alloc_budget` holds each stage of a cache miss to its
# allocation count (exact, so a gate with no noise to know). `stats`
# pins every key path and value type of `/admin/stats`.
cargo test -q -p mutcon-live \
  --test concurrency --test admin --test wire --test coherence --test refresh \
  --test alloc_budget --test stats

# Soak: readers on the L1 racing refresher stores, and the refresh
# workers' wait/notify protocol, must pass every time, not most times.
# The timeout turns a lost wakeup into a failure instead of a hung job.
for _ in $(seq 20); do
  timeout 120 cargo test -q -p mutcon-live --test coherence --test refresh
done

# Overload control: flash-crowd shed with preserved miss coalescing,
# partition isolation, permits released between waves, and a partition
# table a path scan cannot grow.
cargo test -q -p mutcon-live --test overload

# The paper's tables and figures (writes the simulator's timings to
# BENCH_repro.json), and the golden test that pins the Figure 5 rows and
# the multi4 poll total: a scheduling change fails it until the new rows
# are committed in crates/bench/tests/golden.rs with their cause.
target/release/repro all > /dev/null
cargo test -q -p mutcon-bench --test golden

# The live proxy's benchmark (BENCHMARK.json): its own tests, then a
# short run of the hit path and one of the miss path; each must verify
# every response and exit 0.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
for workload in hot_hit miss_churn; do
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seed 1 --seconds 3
done
