#!/usr/bin/env bash
# Tier-1 verification, the live suites, the paper's tables and figures,
# and a smoke run of the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1: the whole workspace must build and test clean, offline.
cargo build --release
cargo test -q

# Formatting: the root workspace is clean under rustfmt's defaults and
# stays so (`benchmark/` is its own workspace and is not checked here).
cargo fmt --all --check

# Rustdoc: the workspace's documentation builds without a warning, so no
# public doc links an item its readers cannot see.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

# Lints: clippy over every target of the root workspace, warnings as
# errors, rustc's own `dead_code` among them.
cargo clippy --workspace --all-targets -- -D warnings

# One cut: every "above the test module" check below reads a file up to
# its first `#[cfg(test)]` line, so that line must be a column-0
# attribute and every top-level item after it test-only (each carries its
# own `#[cfg(test)]`); a test helper above non-test code would hide that
# code from every such check.
cut_leaks() {
  local f
  for f in $(grep -rl --include='*.rs' 'cfg(test)' crates | sort); do
    awk '
      !cut && /#\[cfg\(test\)\]/ {
        cut = 1
        if ($0 != "#[cfg(test)]") print FILENAME ":" FNR ": " $0
        gated = 1
        next
      }
      !cut || /^([[:space:]]|$)/ || /^\/\// || /^[])}>{]/ || /^where/ { next }
      /^#\[cfg\(test\)\]$/ { gated = 1; next }
      /^#/ { next }
      gated { gated = 0; next }
      { print FILENAME ":" FNR ": " $0 }
    ' "$f"
  done
}
if cut_leaks | grep .; then
  echo "ci: a non-test item follows its file's first #[cfg(test)], hidden from the checks that cut there (lines above)" >&2
  exit 1
fi

# One public surface per crate, so `dead_code` sees the rest: an item is
# `pub` only if something outside its crate names it (another workspace
# crate, the crate's own `tests/` or `src/bin/`, a root
# `src`/`tests`/`examples` file, `benchmark/src` or a doc example) or a
# public signature exposes it. A word grep lists the `pub` items above
# the test modules of every library crate that nothing outside names;
# the types public signatures expose are all that is left, and the
# count may only fall.
max_unnamed_pub=29
unnamed_pub_items() {
  local crate known f
  local item='^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|const|trait|type|static) [A-Za-z_][A-Za-z0-9_]*'
  for crate in crates/*/ crates/shims/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    known=$( {
      find crates src tests examples benchmark/src -name '*.rs' \
        \( -not -path "$crate/src/*" -o -path "$crate/src/bin/*" \) -print0 \
        | xargs -0 cat
      find "$crate/src" -name '*.rs' -print0 | xargs -0 awk '
        /^[[:space:]]*\/\/[\/!][[:space:]]*```/ { fence = !fence; next }
        fence && /^[[:space:]]*\/\/[\/!]/'
    } | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    for f in $(find "$crate/src" -name '*.rs' -not -path '*/src/bin/*' | sort); do
      sed '/#\[cfg(test)\]/q' "$f" | { grep -nE "$item" || true; } \
        | sed -E 's/^([0-9]+):.* (fn|struct|enum|const|trait|type|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \3/' \
        | while read -r line name; do
            grep -qxF "$name" <<<"$known" || echo "$f:$line: $name"
          done
    done
  done
}
unnamed_pub=$(unnamed_pub_items)
unnamed_count=$(grep -c . <<<"$unnamed_pub" || true)
echo "ci: $unnamed_count pub items named nowhere outside their crate (at most $max_unnamed_pub):"
echo "$unnamed_pub"
if [ "$unnamed_count" -gt "$max_unnamed_pub" ]; then
  echo "ci: a pub item nothing outside its crate names is back: make it pub(crate) (lines above)" >&2
  exit 1
fi

# Every property check runs in tier-1, as a loop over a fixed seed list
# on `mutcon_sim::rng::SimRng`. No suite hides behind a cargo feature or
# a crate the workspace does not have, and every feature of every crate
# builds with its tests (the classes keep the pattern from matching
# itself).
gated_suite='feature = "proptes[t]s"|use proptes[t]|proptes[t]!'
if grep -rnE "$gated_suite" crates src tests scripts \
    || grep -nE 'proptes[t]s' crates/*/Cargo.toml; then
  echo "ci: a property suite gated off tier-1 is back (lines above)" >&2
  exit 1
fi
cargo test --workspace --all-features --no-run

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

# One option surface: every proxy setting is a `ProxyConfig` field with
# a coded default, and the engine's one setting is the reactor count
# `EventLoop::start` takes; the connection bound is the constant
# `MAX_CONNS`. Nothing reads the environment, nothing documents a
# variable that would be read, and this script sets none. No engine
# config struct, settable bound, origin health path or origin reactor
# override comes back (the classes keep the patterns from matching
# themselves).
env_knob='MUTCON[_]'
engine_knob='EngineConfi[g]|DEFAULT_MAX_CONN[S]|__healt[h]'
if grep -rn 'env::var' crates/*/src \
    || grep -rn "$env_knob" crates src tests examples README.md .claude \
    || grep -nE "(^|[[:space:]])${env_knob}[A-Z0-9_]*=" scripts/ci.sh \
    || grep -rnE "$engine_knob" crates src tests examples README.md .claude \
    || grep -nE 'fn reactors\b' crates/live/src/origin.rs; then
  echo "ci: an environment knob or a second engine setting is back (lines above)" >&2
  exit 1
fi

# One refresh plane and one concurrency model: reactor 0 steps the
# scheduler under one lock, its polls are pooled origin fetches, and
# `ConsistencyRuntime::run` steps the same plane on its caller's thread.
# No scheduler thread, worker pool, condvar, job queue, completion
# channel, wake latch or status mirror comes back beside it: above their
# test modules runtime.rs and proxy.rs start no thread and hold no
# `Condvar`, and no blocking poll client or worker count returns. The
# live crate's one spawn above its tests is the reactor thread in
# `EventLoop::start` (the classes keep these patterns from matching
# themselves).
proxy_threads='Condva[r]|PersistentClien[t]|refresh_worker[s]|thread::(spawn|scope|Builde[r])|\.spawn\('
above_tests() { sed '/#\[cfg(test)\]/q' "$1"; }
if grep -nE 'mpsc|JobQueue|WakeSignal|publish_one' crates/live/src/runtime.rs \
    || for f in crates/live/src/runtime.rs crates/live/src/proxy.rs; do
         above_tests "$f" | { grep -nE "$proxy_threads" || true; } | sed "s|^|$f:|"
       done | grep . \
    || for f in crates/live/src/*.rs; do
         above_tests "$f" | { grep -nE 'thread::(spawn|scope)|\.spawn\(' || true; } | sed "s|^|$f:|"
       done | grep -v '^crates/live/src/server\.rs:[0-9]*: *\.spawn(move || reactor\.run())?;$' \
    || grep -rn 'PersistentClien[t]' crates src tests examples; then
  echo "ci: a second hand-off, a condvar or a refresh thread is back in the refresh plane (lines above)" >&2
  exit 1
fi

# One poll ledger, one origin model, and a refresh plane that reads no
# clock. The schedule's in-flight table is the only record of a poll on
# the wire: no `Poll` struct in runtime.rs and no map of them in
# proxy.rs. Above its test module the live origin answers through the
# simulator's `HostedObject::poll` and replays no trace itself. Above
# their test modules runtime.rs and proxy.rs read a clock only in
# `install` (the instant new rules fall due), in `run` and once in
# `own_work`; every other instant comes from the caller.
clock_reads() {
  sed '/#\[cfg(test)\]/q' "$1" | awk -v f="$1" '
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /Instant::now|unix_now_ms|SystemTime|\.elapsed\(\)/ && !/^use / { print f ":" NR ": in " fn ":" $0 }'
}
if grep -nE 'struct Poll\b' crates/live/src/runtime.rs \
    || grep -nE 'HashMap<[^;]*,[[:space:]]*Poll>' crates/live/src/proxy.rs \
    || sed '/#\[cfg(test)\]/q' crates/live/src/origin.rs | grep -nE 'version_index_at|events_between|times_between' \
    || clock_reads crates/live/src/runtime.rs | grep -vE '^[^:]+:[0-9]+: in (install|run):' \
    || clock_reads crates/live/src/proxy.rs | grep -vE '^[^:]+:[0-9]+: in own_work:' \
    || [ "$(clock_reads crates/live/src/proxy.rs | grep -c ': in own_work:')" != 1 ]; then
  echo "ci: a second poll ledger, a second origin model or a plane clock read is back (lines above)" >&2
  exit 1
fi

# One clock read per reactor turn. Above its test module, server.rs
# reads a clock once in `Reactor::run`, right after the wait returns,
# and in the shutdown `drain`; every timer (idle, request, upstream and
# pool timeouts, the park deadline, the sweep, the next wait) takes the
# turn's `now`, so a unit test can drive it with synthetic instants.
if clock_reads crates/live/src/server.rs | grep -vE '^[^:]+:[0-9]+: in (run|drain):' \
    || [ "$(clock_reads crates/live/src/server.rs | grep -c ': in run:')" != 1 ]; then
  echo "ci: a second clock read is back in the reactor (lines above)" >&2
  exit 1
fi

# One poll width: the refresh plane's width is `POLL_WIDTH`
# (crates/proxy/src/schedule.rs), which every driver of the schedule
# inherits. The worker count `benchmark/` reads is that constant, not a
# literal, and no second poll-width or poll-worker constant comes back
# (the classes keep these patterns from matching themselves).
second_width='const [A-Z0-9_]*(POL[L]|REFRES[H])[A-Z0-9_]*(WIDT[H]|WORKER[S]|IN_FLIGH[T]|CONCURRENC[Y])[A-Z0-9_]*:'
if grep -rnE 'DEFAULT_REFRESH_WORKER[S]: usize = [^P]' crates \
    || grep -rnE "$second_width" crates \
      | grep -vE '^crates/proxy/src/schedule\.rs:[0-9]+:pub const POLL_WIDTH: usize = 4;$' \
      | grep -vE '^crates/live/src/server\.rs:[0-9]+:pub const DEFAULT_REFRESH_WORKERS: usize = POLL_WIDTH;$'; then
  echo "ci: a second poll width is back (lines above)" >&2
  exit 1
fi

# One way to change the rules in force: `PUT /admin/rules` or a direct
# `ConsistencyRuntime::install`. No signal module, rules-file reload or
# signal thread (`dispatch_loop`) comes back. grep's status is checked
# as a number, so a missing directory (status 2) fails the guard rather
# than passing it.
sighup_names='sighup|rules_file|reload_errors|count_sighups|raise_sighup|dispatch_loop'
sighup_status=0
grep -rniE --include='*.rs' "$sighup_names" crates src tests examples || sighup_status=$?
if [ -e crates/sim/src/signal.rs ] || [ "$sighup_status" != 1 ]; then
  echo "ci: a SIGHUP rules reload is back, or the search failed (lines above)" >&2
  exit 1
fi

# One copy of the rules in force: the refresh plane's schedule is the
# rules, and `install` reconciles it under the plane's lock, then runs the
# one install hook. No epoch snapshot beside the schedule, no lazy
# adoption at the reactor's next look, no waker registration in place of
# the hook and no second eviction path in the admin handlers comes back
# (the classes keep the pattern from matching itself).
second_rules='RulesEpoc[h]|Adoptio[n]|fn adop[t]\b|wake_wit[h]|apply_install_effect[s]'
if grep -rnE "$second_rules" crates/live/src; then
  echo "ci: a second copy of the rules in force is back (lines above)" >&2
  exit 1
fi

# One group model: related objects are the groups the drivers run
# (`MutualSetup`, `GroupRule`). No HTML deduction crate, deduced group
# registry or cache-control tolerance directives come back beside them
# (the classes keep the pattern from matching itself).
second_groups='mutcon[_-]depgrap[h]|GroupRegistr[y]|ConsistencyDirective[s]'
if grep -rnE "$second_groups" crates src tests examples Cargo.toml; then
  echo "ci: a second model of related objects is back (lines above)" >&2
  exit 1
fi

# No second copy of what std or the drivers already provide: the live
# cache's shards are std's `RwLock` (no lock shim), a version is the
# index a trace gives it (no stamp or snapshot type beside it), and the
# origins answer a poll on the millisecond validator (no second-granularity
# `If-Modified-Since` model). The classes keep the pattern from matching
# itself.
unused_models='parking_lo[t]|VersionStam[p]|ObjectSnapsho[t]|wants_full_respons[e]'
if grep -rnE "$unused_models" crates src tests examples; then
  echo "ci: a lock shim, a version stamp type or a second 304 model is back (lines above)" >&2
  exit 1
fi

# One §3 scheduler: LIMD state and the Mt coordinator are built in
# crates/proxy/src/schedule.rs, which the simulator's temporal driver and
# the live proxy's reactor 0 both step. Neither driver grows scheduling state
# of its own again.
if grep -nE 'Limd::new|MtCoordinator::new' \
    crates/live/src/runtime.rs crates/proxy/src/drivers/temporal.rs; then
  echo "ci: a second scheduler is back in a driver (lines above)" >&2
  exit 1
fi

# One §4 tuning, one rate estimate, one LIMD-from-tuning. The Mv policies
# in crates/core/src/mutual/value.rs take the §4.1 `AdaptiveTtrConfig`
# and keep no copy of its fields, and the partitioned policy reads each
# member's slope from that member's `AdaptiveTtr` rather than estimating
# it a second time. The ablations and the robustness grid build LIMD
# through `Fig3Config::limd` (crates/proxy/src/experiment.rs).
if above_tests crates/core/src/mutual/value.rs \
      | grep -nE '^[[:space:]]*(pub )?(smoothing|alpha|ttr_min|ttr_max):' \
    || grep -n 'ValueRateEstimator' crates/core/src/mutual/value.rs \
    || above_tests crates/proxy/src/ablation.rs | grep -n 'LimdConfig::builder' \
    || above_tests crates/bench/src/robustness.rs | grep -n 'LimdConfig::builder'; then
  echo "ci: a second copy of the §4 tuning, a second slope estimate or a second LIMD-from-tuning is back (lines above)" >&2
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

# One cache tier, and the engine does not know the cache: a hit is served
# from the shared cache under its shard's read lock, the read's
# linearization point (crates/live/src/cache.rs), and no reactor keeps a
# copy of its own. The supersede flag and `L1Cache` stay only because
# `benchmark/` replays them; no per-path version table, handle or stamp
# comes back beside the flag, and no cache-wide state either: no bulk
# generation, no atomic in `ShardedCache` (a hit sets its entry's
# referenced bit under the shard's read lock, and only the shard's
# sweep, under its write lock, clears it) and no generation field in
# `L1Cache`. Each reactor owns its service instance and lends it
# nothing: above its test module server.rs names no cache type, and no
# L1 sizing hook or second immediate-reply variant comes back (the
# classes keep these patterns from matching themselves).
lent='l1_capacit[y]|ServiceResult::(Respon[d]|Prepare[d])\b'
struct_body() { sed -n "/^pub struct $2 {/,/^}/p" "$1"; }
if grep -rnE 'VersionedEntry|bump_version|retire_version|RespondCacheable|l1_try_serve|l1_refill\b' crates \
    || grep -rnE "$lent" crates src tests examples \
    || grep -n 'bump_generatio[n]' crates/live/src/cache.rs \
    || struct_body crates/live/src/cache.rs 'ShardedCach[e]' | grep -n 'AtomicU6[4]' \
    || struct_body crates/live/src/cache.rs 'L1Cach[e]' | grep -nE '^[[:space:]]*generatio[n]:' \
    || sed '/#\[cfg(test)\]/q' crates/live/src/server.rs | grep -nE 'L1Cache|L1Lookup|ShardedCache|CacheEntry'; then
  echo "ci: a second L1 coherence protocol, or a cache in the engine, is back (lines above)" >&2
  exit 1
fi

# No L1 in the serving path: above their test modules neither proxy.rs
# nor server.rs names an L1 size, its bound, a `cache.l1.` stats key or
# the L1 types, so a read has one copy to find and one rule to trust.
for f in crates/live/src/proxy.rs crates/live/src/server.rs; do
  if above_tests "$f" | grep -nE 'l1_objects|MAX_L1_OBJECTS|cache\.l1\.|L1Cache|L1Lookup' | sed "s|^|$f:|"; then
    echo "ci: a per-reactor L1 is back in the serving path (lines above)" >&2
    exit 1
  fi
done

# A cache hit writes nothing but its referenced bit: the shared cache
# evicts by CLOCK, so above their tests neither cache file keeps an
# ordered recency index, tries a write lock on the read path, asks
# whether an entry is the most recent or touches one.
for f in crates/proxy/src/cache.rs crates/live/src/cache.rs; do
  if above_tests "$f" | grep -nE 'BTreeSet|try_write|is_most_recent|fn touch\b' | sed "s|^|$f:|"; then
    echo "ci: an LRU recency index or a write on the hit path is back (lines above)" >&2
    exit 1
  fi
done

# One fixed overload policy, and one origin fan-out bound. Park-and-503
# is the engine's own: `PARK_DEADLINE` and the `503` it sends are
# constants in crates/live/src/server.rs and the parked-shed count is an
# `EngineMetrics` cell, so no settable park config, its text form or an
# admin endpoint for it comes back (no workload could park a client, and
# nothing but its own round-trip test set it); origin fan-out is the
# static `MAX_CONNS_PER_ORIGIN`. The adaptive pool limiter is gone (no
# workload turned it on; a 400-key flash crowd made it open 216 origin
# sockets where the static cap opens 32, and six failed fetches pinned
# its cap at 4 for good): above their test modules no crates/live/src
# file names a limiter (`Limiter` also matches `LimiterConfig`), the
# core limit module, a cap setter, a fetch sample or its start stamp, a
# per-reactor overload slot, or a partition table or adopt/publish step,
# and the core limit module keeps no spec wire form. Per-path admission
# is gone too (no workload turned it on, and on a flash crowd it turned
# 98 of 100 coalesced misses into 429s): no ticket, partition table,
# admit step, admission setting or 429 comes back above the test modules
# of crates/live/src.
overload_state='Limiter|mutcon_core::limit|set_cap|record_fetch|pool_cap|fetch_started|ReactorOverload|PartitionState|overload_version|sync_overload|publish_overload|OverloadConfig|parse_overload_body|render_overload|admin/overload'
admission='Ticket|fn admit|partition_of|MAX_PARTITIONS|OVERFLOW_PARTITION|admission|TOO_MANY_REQUESTS'
if for f in crates/live/src/*.rs; do
     above_tests "$f" | { grep -nE "$overload_state|$admission" || true; } | sed "s|^|$f:|"
   done | grep . \
    || above_tests crates/core/src/limit.rs | grep -nE 'fn (to|from)_spec' | sed 's|^|crates/core/src/limit.rs:|'; then
  echo "ci: a settable overload policy, an adaptive pool cap or per-path admission is back (lines above)" >&2
  exit 1
fi

# One way a fetch ends, and one blocking client: a finished upstream
# fetch reaches its waiters from the reactor's one completion path, as
# one `Service::own_fetched` call when the service waits on it and one
# `Service::fetched` reply for all its clients, and the tests speak
# through the harness's `Client`. No per-waiter closure, pending-state
# enum or second client comes back.
if grep -rnE 'FinishUpstream|clone_err|HttpClient' crates examples src tests \
    || sed '/#\[cfg(test)\]/q' crates/live/src/server.rs | grep -nE 'struct Waiting|enum Pending'; then
  echo "ci: a second fetch completion path or a second client is back (lines above)" >&2
  exit 1
fi

# One epoll layer: the reactor drives its `Poller` itself, records the
# interest the kernel holds for each socket, and issues and counts an
# `epoll_ctl` when that interest changes. No backend wrapper, deferred
# interest ledger or per-turn counter fold comes back between them.
if grep -rnE 'EpollBackend|InterestLedger|BackendCounters|interest_coalesced|flush_backend_counters' \
    crates src tests examples README.md .claude; then
  echo "ci: a second epoll layer is back (lines above)" >&2
  exit 1
fi

# One owner per connection buffer, and one accept path: a connection
# allocates its own read and write buffers and frees them when it closes,
# and every accepted connection is served. No buffer pool, accept hook,
# close-without-response result or origin fault switch comes back for
# traffic no workload makes; origin faults are scripted in the test
# harness.
if grep -rnE 'BufPool|MAX_POOLED|take_buf|with_buf|buf_reuses|buf_pool_high_water|accept_connection|ServiceResult::Close|set_fault|Fault::DropConnections' \
    crates src tests examples README.md .claude; then
  echo "ci: a connection buffer pool or a test fault hook is back in the engine (lines above)" >&2
  exit 1
fi

# One home for the request side of a client connection: parsing, the
# read buffer's bound and the request limits live in `ClientConn`
# (crates/live/src/conn.rs), which touches no socket and has its own unit
# tests. The reactor only moves bytes between it and the socket.
if grep -nE 'RequestParser|MAX_BUFFERED' crates/live/src/server.rs; then
  echo "ci: the reactor parses client requests again (lines above)" >&2
  exit 1
fi

# One home for the response side of an origin connection: framing,
# keep-alive, trailing bytes and the stale-socket rule live in `OriginConn`
# (crates/live/src/conn.rs), which the reactor's pooled sockets drive for
# misses and polls alike. Above their test modules neither the reactor
# nor the origin request code parses a response or judges reuse itself,
# and no caller-side retry flag comes back.
origin_rules='ResponseParser|wants_keep_alive|read_response'
if sed '/#\[cfg(test)\]/q' crates/live/src/server.rs | grep -nE "$origin_rules" \
    || sed '/#\[cfg(test)\]/q' crates/live/src/client.rs | grep -nE "$origin_rules" \
    || grep -rn 'allow_retry' crates src tests examples; then
  echo "ci: a second copy of the origin exchange's rules is back (lines above)" >&2
  exit 1
fi

# One reply form on the write path: a `Reply` is a head rendered once and
# a shared body, and std's `write_vectored` gathers the two. No
# per-connection serialization variant, prepared-response twin or
# hand-rolled `writev` binding comes back (the classes keep the pattern
# from matching itself).
second_reply='PreparedRespons[e]|Reply::(Ful[l]|Prepare[d])\b|fn write[v]\(|MAX_IOVEC[S]'
if grep -rnE "$second_reply" crates src tests examples; then
  echo "ci: a second reply form or a hand-rolled writev is back (lines above)" >&2
  exit 1
fi

# The syscall layer wraps only what std cannot do, for the peers and
# limits that exist: accepting is std's `TcpListener::accept` (no
# `accept4` fast path for connection churn no workload makes), the
# waker is std's `UnixStream::pair` (no `eventfd` binding), sockets
# are IPv4 (no `sockaddr_in6` encoder that no caller ran) and the fd
# limit is lifted to the hard limit only (no cap, no privileged raise).
# Each poll event is counted once, by the refresh plane: proxy.rs counts
# no poll, trigger or poll error of its own. The reactor stores its
# accept state once, as `paused_since` (the classes keep these patterns
# from matching themselves).
if grep -rnE 'accept[4]|SockAddrIn[6]|AF_INET[6]|NOFILE_CA[P]' crates \
    || grep -rn 'eventf[d]' crates/sim/src \
    || grep -nE 'counters\.(poll[s]|error[s]|triggere[d])' crates/live/src/proxy.rs \
    || sed -n '/^struct Reacto[r] {/,/^}/p' crates/live/src/server.rs | grep -nE '^[[:space:]]*accepting:'; then
  echo "ci: an accept4 path, an eventfd waker, an IPv6 encoder, an fd cap, a second poll count or a second accept flag is back (lines above)" >&2
  exit 1
fi

# Live-proxy smoke: origin + proxy on real sockets, hundreds of
# concurrent clients through the reactor threads — a stalled event
# loop shows up here as read timeouts, not as a hang. (One run in ~120
# has been seen to hang; the timeout names that failure.)
timeout 300 cargo test -q -p mutcon-live --test reactor_smoke

# The deterministic concurrency harness (fake clock + scripted origin +
# seeded schedules), the hot-swappable rule runtime, the zero-copy wire
# path, the one cache's coherence and the refresh plane. Reactor counts
# are inputs the scenarios pin themselves.
# `alloc_budget` holds each stage of a cache miss to its allocation
# count (exact, so a gate with no noise to know). `stats` pins every key
# path and value type of `/admin/stats`. `threads` counts the process's
# threads: a proxy adds its reactors and nothing else, ruled or not.
cargo test -q -p mutcon-live \
  --test concurrency --test admin --test wire --test coherence --test refresh \
  --test alloc_budget --test stats --test threads

# AddressSanitizer over the crates that hold the raw syscalls and their
# callers: the installed nightly instruments `mutcon-sim` and every
# `mutcon-live` suite, doctests included, in a target dir of its own so
# the stable build stays cached. It runs offline and adds ≈ 50 s cold,
# ≈ 26 s warm, on 2 vCPUs. ThreadSanitizer is not run: without
# `-Zbuild-std` std's locks are uninstrumented and it reports races
# that are not there.
RUSTFLAGS=-Zsanitizer=address RUSTDOCFLAGS=-Zsanitizer=address \
  cargo +nightly test -q -p mutcon-sim -p mutcon-live \
  --target x86_64-unknown-linux-gnu --target-dir target/asan

# Soak: readers on one and on two reactors racing refresher stores into
# the shared cache, the supersede rule `benchmark/`'s L1 replay relies
# on, and reactor 0's poll timing (woken by an install, asleep until the
# next due instant, polls queued at the pool's cap and timed out), must
# pass every time, not most times. The timeout turns a lost wakeup into a failure instead of a hung
# job. The overload suite soaks the double-death stale-socket retry (a
# seeded reap-versus-reuse race).
for _ in $(seq 20); do
  timeout 120 cargo test -q -p mutcon-live --test coherence --test refresh --test overload
done

# The paper's tables and figures (the simulator's timings go under the
# git-ignored target/, so a green run leaves the tree clean), and the
# golden test that pins Figures 3–8, ablations A–D and every robustness
# grid's poll total: a scheduling or §4 policy change fails it until the
# new rows are committed in crates/bench/tests/golden.rs with their
# cause.
target/release/repro --bench-json target/BENCH_repro.ci.json all > /dev/null
cargo test -q -p mutcon-bench --test golden

# The live proxy's benchmark (BENCHMARK.json): its own tests, then a
# short run of the hit path and one of the miss path; each must verify
# every response and exit 0.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
for workload in hot_hit miss_churn; do
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seed 1 --seconds 3
done
