//! Spans of a traced run, recorded in benchmark code only.
//!
//! Socket spans: a `request` root per client request (sent to reply
//! complete, tagged with the `x-cache` outcome), with the fixture's
//! `origin.serve` span as its child when the request's path reached the
//! origin inside its interval; origin requests no client request
//! explains are the refresher's, `origin.poll`. A request's self time is
//! its duration minus its child's. Layer spans come from
//! [`crate::layers`]. All are kept in memory and written when the run
//! ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use crate::fixture::{LogRecord, Served};
use crate::layers::LayerSpan;
use crate::loadgen::Sample;
use crate::spec::Workload;

/// Most spans of one kind written to the trace file; the metrics use all.
const MAX_WRITTEN: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub path: u32,
    pub ok: bool,
    pub hit: bool,
    /// Index of the child in [`Spans::origin`].
    pub child: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
pub struct OriginSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub path: u32,
    pub served: Served,
    /// Index of the parent in [`Spans::requests`]; `None` for a poll.
    pub parent: Option<usize>,
}

/// The socket spans of a run.
#[derive(Debug, Default)]
pub struct Spans {
    pub requests: Vec<RequestSpan>,
    pub origin: Vec<OriginSpan>,
}

impl Spans {
    pub fn len(&self) -> usize {
        self.requests.len() + self.origin.len()
    }

    /// Self time of every successful request, in microseconds.
    pub fn request_self_us(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| {
                let child = r
                    .child
                    .map_or(0, |i| self.origin[i].end_ns - self.origin[i].start_ns);
                (r.end_ns - r.start_ns).saturating_sub(child) as f64 / 1e3
            })
            .collect()
    }

    /// Duration of every `origin.serve` child, in microseconds.
    pub fn origin_serve_us(&self) -> Vec<f64> {
        self.origin
            .iter()
            .filter(|o| o.parent.is_some())
            .map(|o| (o.end_ns - o.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Builds the socket spans from the traced phases' `samples` and the
/// part of the origin's log that falls inside `window` (nanoseconds
/// after the fixture's start).
pub fn build(samples: &[Sample], log: &[LogRecord], window: (u64, u64)) -> Spans {
    let mut spans = Spans {
        requests: samples
            .iter()
            .map(|s| RequestSpan {
                start_ns: s.sent_ns,
                // A failed request's `done_ns` is its timeout, counted
                // from when it was due; as a span it ends no earlier
                // than it began.
                end_ns: s.done_ns.max(s.sent_ns),
                path: s.path,
                ok: s.ok,
                hit: s.hit,
                child: None,
            })
            .collect(),
        origin: Vec::new(),
    };
    // Only a miss can have caused an origin request.
    let mut misses: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in spans
        .requests
        .iter()
        .enumerate()
        .filter(|(_, r)| r.ok && !r.hit)
    {
        misses.entry(r.path).or_default().push(i);
    }
    for record in log
        .iter()
        .filter(|r| (window.0..=window.1).contains(&r.at_ns))
    {
        let parent = misses.get(&record.path).and_then(|candidates| {
            candidates.iter().copied().find(|&i| {
                let r = &spans.requests[i];
                r.child.is_none() && (r.start_ns..=r.end_ns).contains(&record.at_ns)
            })
        });
        if let Some(i) = parent {
            spans.requests[i].child = Some(spans.origin.len());
        }
        spans.origin.push(OriginSpan {
            start_ns: record.at_ns,
            end_ns: record.at_ns + record.serve_ns,
            path: record.path,
            served: record.served,
            parent,
        });
    }
    spans
}

/// Where run results and traces go: `out/` beside this package's
/// manifest (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans as tab-separated rows
/// (`id parent name start_ns end_ns path tag`) and returns the file.
pub fn write(
    workload: &Workload,
    seed: u64,
    spans: &Spans,
    layers: &[LayerSpan],
) -> io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{seed}.tsv", workload.name));
    let mut text = String::new();
    // Writing into a `String` cannot fail.
    let _ = writeln!(
        text,
        "# {} requests, {} origin spans, {} layer spans; at most {MAX_WRITTEN} of each kind written",
        spans.requests.len(),
        spans.origin.len(),
        layers.len()
    );
    let _ = writeln!(text, "id\tparent\tname\tstart_ns\tend_ns\tpath\ttag");
    // Requests are ids 0.., origin spans follow, layer spans after them.
    let origin_base = spans.requests.len();
    for (i, r) in spans.requests.iter().enumerate().take(MAX_WRITTEN) {
        let tag = match (r.ok, r.hit) {
            (false, _) => "failed",
            (true, true) => "hit",
            (true, false) => "miss",
        };
        let _ = writeln!(
            text,
            "{i}\t-\trequest\t{}\t{}\t{}\t{tag}",
            r.start_ns, r.end_ns, r.path
        );
    }
    for (i, o) in spans.origin.iter().enumerate().take(MAX_WRITTEN) {
        let (name, parent) = match o.parent {
            Some(p) => ("origin.serve", p.to_string()),
            None => ("origin.poll", "-".to_owned()),
        };
        let tag = match o.served {
            Served::Full => "200",
            Served::NotModified => "304",
        };
        let _ = writeln!(
            text,
            "{}\t{parent}\t{name}\t{}\t{}\t{}\t{tag}",
            origin_base + i,
            o.start_ns,
            o.end_ns,
            o.path
        );
    }
    let layer_base = origin_base + spans.origin.len();
    for (i, l) in layers.iter().enumerate().take(MAX_WRITTEN) {
        let _ = writeln!(
            text,
            "{}\t-\t{}\t{}\t{}\t-\t{} calls",
            layer_base + i,
            l.name,
            l.start_ns,
            l.end_ns,
            l.calls
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sent_us: u64, done_us: u64, path: u32, hit: bool) -> Sample {
        Sample {
            due_ns: sent_us * 1_000,
            sent_ns: sent_us * 1_000,
            done_ns: done_us * 1_000,
            path,
            version: 0,
            ok: true,
            hit,
        }
    }

    fn record(at_us: u64, serve_us: u64, path: u32) -> LogRecord {
        LogRecord {
            at_ns: at_us * 1_000,
            serve_ns: serve_us * 1_000,
            path,
            version: 0,
            served: Served::Full,
        }
    }

    #[test]
    fn a_miss_owns_the_origin_request_inside_it_and_polls_own_themselves() {
        let samples = [
            sample(0, 100, 1, true),    // hit: cannot have a child
            sample(200, 900, 1, false), // miss: the fetch at 300 is its child
            sample(200, 400, 2, false), // miss on another path, nothing logged
        ];
        let log = [
            record(50, 10, 1),    // inside the hit's interval: a poll
            record(300, 500, 1),  // the miss's fetch
            record(950, 10, 1),   // after everything: a poll
            record(5_000, 10, 1), // outside the window: dropped
        ];
        let spans = build(&samples, &log, (0, 1_000_000));
        assert_eq!(spans.len(), 6);
        assert_eq!(spans.requests[1].child, Some(1));
        assert_eq!(
            spans.origin.iter().map(|o| o.parent).collect::<Vec<_>>(),
            [None, Some(1), None]
        );
        // Self time: the hit's whole 100 µs, the miss's 700 − 500, and
        // the childless miss's whole 200.
        assert_eq!(spans.request_self_us(), [100.0, 200.0, 200.0]);
        assert_eq!(spans.origin_serve_us(), [500.0]);
    }
}
