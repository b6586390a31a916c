//! The live proxy's metric cells, and the one form a metric is declared
//! in.
//!
//! Three lock-free cells — [`Counter`], [`Gauge`], [`Histogram`] — and
//! `metrics!`, which turns a list of `name: Cell => "json.path"` lines
//! into a struct of cells, one accessor per cell, the table of what was
//! declared ([`Metric`], which the README's table is checked against) and
//! `render`, which writes every cell to its place in `GET /admin/stats`.
//! A metric is named where it is declared and where it is counted, and
//! nowhere else.
//!
//! Every operation is `Relaxed`: a cell publishes no data but its own
//! value, so the serving path pays one uncontended RMW per count and a
//! reader may see two cells a few increments apart.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use mutcon_traces::json::Json;

/// What `metrics!` asks of a cell: the value its accessor returns and
/// its form in `GET /admin/stats`.
pub trait Cell {
    /// What the generated accessor returns.
    type Value;
    /// The cell's current value.
    fn value(&self) -> Self::Value;
    /// The cell's current value as it appears in the stats document.
    fn json(&self) -> Json;
}

/// One declared metric: the table `metrics!` generates has one per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The cell's (and its accessor's) Rust name.
    pub name: &'static str,
    /// Where the cell appears in `GET /admin/stats`, as a dotted key path.
    pub path: &'static str,
    /// The doc comment it was declared with.
    pub doc: &'static str,
}

/// A count that only goes up.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Counts `n`. Zero writes nothing, so folding a quiet loop turn's
    /// tallies in costs no RMW.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }
}

impl Cell for Counter {
    type Value = u64;

    fn value(&self) -> u64 {
        self.0.load(Relaxed)
    }

    fn json(&self) -> Json {
        Json::Number(self.value() as f64)
    }
}

/// A level: set, or raised to a high-water mark.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the level.
    pub fn set(&self, level: u64) {
        self.0.store(level, Relaxed);
    }

    /// Raises the level to `level` if that is higher (a high-water mark).
    pub fn raise(&self, level: u64) {
        self.0.fetch_max(level, Relaxed);
    }
}

impl Cell for Gauge {
    type Value = u64;

    fn value(&self) -> u64 {
        self.0.load(Relaxed)
    }

    fn json(&self) -> Json {
        Json::Number(self.value() as f64)
    }
}

/// A fixed-bucket histogram of durations. Bucket upper bounds are given
/// in microseconds and the last bucket is open-ended; the recorded
/// maximum caps the top occupied bucket, so interpolated quantiles stay
/// honest even there.
#[derive(Debug)]
pub struct Histogram {
    bounds_us: &'static [u64],
    buckets: Box<[AtomicU64]>,
    max_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram over ascending `bounds_us`.
    pub fn new(bounds_us: &'static [u64]) -> Histogram {
        Histogram {
            bounds_us,
            buckets: (0..=bounds_us.len()).map(|_| AtomicU64::new(0)).collect(),
            max_us: AtomicU64::new(0),
        }
    }

    /// Counts one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let at = self.bounds_us.partition_point(|&bound| us > bound);
        self.buckets[at].fetch_add(1, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// Linear interpolation within the bucket holding the requested rank;
    /// the highest occupied bucket's upper bound is clamped to the recorded
    /// maximum (the open-ended tail would otherwise invent time).
    fn quantile_ms(&self, counts: &[u64], max_us: u64, q: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let rank = q * total as f64;
        let mut cum = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds_us[i - 1] as f64
                };
                let mut upper = self.bounds_us.get(i).map_or(max_us as f64, |&b| b as f64);
                if i == last {
                    upper = upper.min(max_us as f64).max(lower);
                }
                let frac = ((rank - cum) / c as f64).clamp(0.0, 1.0);
                return (lower + frac * (upper - lower)) / 1000.0;
            }
            cum = next;
        }
        max_us as f64 / 1000.0
    }
}

impl Cell for Histogram {
    type Value = HistogramSnapshot;

    /// A point-in-time snapshot with interpolated quantiles.
    fn value(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let max_us = self.max_us.load(Relaxed);
        HistogramSnapshot {
            count: counts.iter().sum(),
            p50_ms: self.quantile_ms(&counts, max_us, 0.50),
            p99_ms: self.quantile_ms(&counts, max_us, 0.99),
            max_ms: max_us as f64 / 1000.0,
        }
    }

    fn json(&self) -> Json {
        let snap = self.value();
        let mut doc = Json::Null;
        put(&mut doc, "count", Json::Number(snap.count as f64));
        put(&mut doc, "p50_ms", Json::Number(snap.p50_ms));
        put(&mut doc, "p99_ms", Json::Number(snap.p99_ms));
        put(&mut doc, "max_ms", Json::Number(snap.max_ms));
        doc
    }
}

/// Interpolated quantiles of a [`Histogram`], in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observation, milliseconds.
    pub max_ms: f64,
}

/// Every metric the crate declares, one table per `metrics!` use.
pub fn declared() -> [&'static [Metric]; 4] {
    [
        crate::server::EngineMetrics::METRICS,
        crate::proxy::Counters::METRICS,
        crate::runtime::RefreshMetrics::METRICS,
        crate::cache::CacheMetrics::METRICS,
    ]
}

/// Sets the member of `doc` at the dotted key `path`, making the objects
/// on the way there.
pub fn put(doc: &mut Json, path: &str, value: Json) {
    let mut at = doc;
    for key in path.split('.') {
        if !matches!(at, Json::Object(_)) {
            *at = Json::Object(BTreeMap::new());
        }
        let Json::Object(members) = at else {
            unreachable!("made an object above")
        };
        at = members.entry(key.to_owned()).or_insert(Json::Null);
    }
    *at = value;
}

/// A JSON object with `entries` as its members.
pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Declares a set of metrics: each `name: Cell => "path";` line, with
/// its doc comment, is everything there is to write about one metric.
/// Generates the struct of cells (crate-visible: anything in the crate may
/// count), `Default`, `pub fn name()` per cell (carrying the doc comment),
/// `METRICS` (the declared table) and `render` (every cell written to its
/// path in a stats document).
///
/// * `name: Cell = expr => …` builds the cell with `expr` in place of
///   `Default` (a [`Histogram`] needs its bounds).
/// * A trailing `plus { field: Type = expr, … }` adds fields that are not
///   metrics: state the struct owns next to its cells.
macro_rules! metrics {
    (
        $(#[$meta:meta])* $vis:vis struct $Name:ident {
            $(
                $(#[doc = $doc:literal])*
                $field:ident : $kind:ty $(= $init:expr)? => $path:literal ;
            )*
        }
        $(plus { $( $(#[$pmeta:meta])* $pfield:ident : $pty:ty = $pinit:expr, )* })?
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $Name {
            $( pub(crate) $field: $kind, )*
            $($( $(#[$pmeta])* $pfield: $pty, )*)?
        }

        impl Default for $Name {
            fn default() -> Self {
                $Name {
                    $( $field: $crate::metrics::metrics!(@init $kind $(, $init)?), )*
                    $($( $pfield: $pinit, )*)?
                }
            }
        }

        impl $Name {
            /// Every metric declared here: name, `GET /admin/stats`
            /// path, meaning.
            pub const METRICS: &'static [$crate::metrics::Metric] = &[
                $( $crate::metrics::Metric {
                    name: stringify!($field),
                    path: $path,
                    doc: concat!($($doc),*),
                }, )*
            ];

            $(
                $(#[doc = $doc])*
                pub fn $field(&self) -> <$kind as $crate::metrics::Cell>::Value {
                    $crate::metrics::Cell::value(&self.$field)
                }
            )*

            /// Writes every cell to its path in the stats document.
            pub fn render(&self, doc: &mut mutcon_traces::json::Json) {
                $(
                    $crate::metrics::put(doc, $path, $crate::metrics::Cell::json(&self.$field));
                )*
            }
        }
    };
    (@init $kind:ty) => { <$kind>::default() };
    (@init $kind:ty, $init:expr) => { $init };
}
pub(crate) use metrics;

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS_US: [u64; 3] = [1_000, 10_000, 100_000];

    metrics! {
        /// A set with one cell of each kind.
        struct Sample {
            /// Things seen.
            seen: Counter => "sample.seen";
            /// Things held.
            held: Gauge => "sample.held";
        }
    }

    metrics! {
        /// A set with a histogram and a field that is not a metric.
        struct Timed {
            /// How long things took.
            took: Histogram = Histogram::new(&BOUNDS_US) => "timed.took";
            /// The most things held at once.
            most: Gauge => "timed.most";
        }
        plus {
            /// Not rendered.
            label: &'static str = "timed",
        }
    }

    #[test]
    fn a_declaration_generates_cells_accessors_table_and_rendering() {
        let sample = Sample::default();
        sample.seen.inc();
        sample.seen.add(2);
        sample.seen.add(0);
        sample.held.set(1);
        sample.held.raise(0);
        assert_eq!((sample.seen(), sample.held()), (3, 1));
        assert_eq!(
            Sample::METRICS,
            [
                Metric {
                    name: "seen",
                    path: "sample.seen",
                    doc: " Things seen."
                },
                Metric {
                    name: "held",
                    path: "sample.held",
                    doc: " Things held."
                },
            ]
        );
        let mut doc = Json::Null;
        sample.render(&mut doc);
        assert_eq!(doc.to_string(), r#"{"sample":{"held":1,"seen":3}}"#);
    }

    #[test]
    fn a_gauge_keeps_its_high_water_and_a_histogram_its_bounds() {
        let timed = Timed::default();
        assert_eq!((timed.label, Timed::METRICS.len()), ("timed", 2));
        timed.most.raise(7);
        timed.most.raise(3);
        timed.most.set(timed.most() + 1);
        assert_eq!(timed.most(), 8);
        for ms in [1, 2, 3, 50] {
            timed.took.record(Duration::from_millis(ms));
        }
        let snap = timed.took();
        assert_eq!((snap.count, snap.max_ms), (4, 50.0));
        assert!((1.0..=10.0).contains(&snap.p50_ms), "{snap:?}");
        let mut doc = Json::Null;
        timed.render(&mut doc);
        let took = doc.get("timed").unwrap().get("took").unwrap();
        assert_eq!(took.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(took.get("max_ms").unwrap().as_f64(), Some(50.0));
    }

    /// The README's "Observability" table is the operator's copy of the
    /// declarations: a metric declared and not listed there fails here.
    #[test]
    fn every_declared_path_is_in_the_readme_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let mut names = std::collections::HashSet::new();
        for metric in declared().into_iter().flatten() {
            assert!(
                !metric.doc.trim().is_empty(),
                "{} has no doc comment",
                metric.name
            );
            let path = metric.path;
            assert!(names.insert(path), "{path} is declared twice");
            let row = format!("| `{}` | `{path}` |", metric.name);
            assert!(readme.contains(&row), "README.md has no row `{row}`");
        }
    }

    #[test]
    fn put_makes_the_objects_on_the_way_and_replaces_what_was_there() {
        let mut doc = Json::Null;
        put(&mut doc, "a.b.c", Json::Number(1.0));
        put(&mut doc, "a.b.d", Json::Bool(true));
        put(&mut doc, "a.b.c", Json::Number(2.0));
        put(&mut doc, "top", Json::Null);
        assert_eq!(
            doc.to_string(),
            r#"{"a":{"b":{"c":2,"d":true}},"top":null}"#
        );
    }
}
