//! Fidelity, scored from outside the proxy.
//!
//! The fixture origin's request log says, for every path, when the proxy
//! fetched or revalidated and which version it was given. That is exactly
//! what the simulator's [`PollLog`] records, so the log is converted and
//! handed to the repo's own §6.1.3 evaluators
//! ([`individual_temporal`], [`mutual_temporal`]) together with the
//! update traces the fixture served from. Nothing the proxy counts about
//! itself enters the figure. A second, read-side check ([`ReadOracle`])
//! scores what clients were actually served.

use mutcon_core::time::{Duration as CoreDuration, Timestamp};
use mutcon_proxy::log::{PollLog, PollOutcome, PollRecord};
use mutcon_proxy::metrics::{individual_temporal, mutual_temporal};
use mutcon_traces::UpdateTrace;

use crate::fixture::{LogRecord, Served};
use crate::loadgen::Sample;

/// Per-path poll logs from the origin's request log (which must be in
/// arrival order). Records after `until_ms` are outside the scored
/// window and dropped.
pub fn poll_logs(log: &[LogRecord], paths: usize, until_ms: u64) -> Vec<PollLog> {
    let mut logs = vec![PollLog::new(); paths];
    for record in log.iter().filter(|r| r.at_ms() <= until_ms) {
        logs[record.path as usize].push(PollRecord {
            at: Timestamp::from_millis(record.at_ms()),
            outcome: match record.served {
                Served::NotModified => PollOutcome::NotModified,
                Served::Full => PollOutcome::Refreshed {
                    version_index: record.version as usize,
                },
            },
            // The origin cannot tell a triggered poll from a scheduled
            // one, and neither evaluator asks.
            triggered: false,
        });
    }
    logs
}

/// Equation 14 time-fidelity of every path, averaged: the share of the
/// window `[0, until]` in which the copy the proxy held was within `delta`
/// of the origin's.
pub fn fidelity_dt(
    traces: &[UpdateTrace],
    logs: &[PollLog],
    delta: CoreDuration,
    until: Timestamp,
) -> f64 {
    let total: f64 = traces
        .iter()
        .zip(logs)
        .map(|(trace, log)| individual_temporal(trace, log, delta, until).fidelity_by_time())
        .sum();
    total / traces.len() as f64
}

/// The pairs whose mutual consistency is scored: every pair of a small
/// population (the Mt group's six), otherwise up to 512 disjoint
/// neighbours `(0,1), (2,3), …` — enough that the mean does not hang on
/// which paths a seed made fast or slow.
pub fn scored_pairs(paths: usize) -> Vec<(usize, usize)> {
    if paths <= 8 {
        (0..paths)
            .flat_map(|a| (a + 1..paths).map(move |b| (a, b)))
            .collect()
    } else {
        (0..paths / 2)
            .take(512)
            .map(|k| (2 * k, 2 * k + 1))
            .collect()
    }
}

/// Mean Equation 14 time-fidelity of the Mt guarantee over `pairs`.
pub fn fidelity_mt(
    traces: &[UpdateTrace],
    logs: &[PollLog],
    pairs: &[(usize, usize)],
    delta: CoreDuration,
    until: Timestamp,
) -> f64 {
    let total: f64 = pairs
        .iter()
        .map(|&(a, b)| {
            mutual_temporal(&traces[a], &logs[a], &traces[b], &logs[b], delta, until)
                .fidelity_by_time()
        })
        .sum();
    total / pairs.len() as f64
}

/// Read-side check of what clients were served.
///
/// A read is *in sync* unless the copy it was served had already been
/// superseded for `delta` or longer when the request was sent. (Staleness
/// only grows until a refresh, and a refresh can only make the served
/// copy newer, so a read that was in sync when sent cannot have been
/// answered out of sync.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadOracle {
    pub checked: u64,
    pub in_sync: u64,
}

impl ReadOracle {
    pub fn observe(&mut self, traces: &[UpdateTrace], delta_ms: u64, sample: &Sample) {
        if !sample.ok {
            return;
        }
        self.checked += 1;
        let superseded = traces[sample.path as usize]
            .events()
            .get(sample.version as usize + 1)
            .map(|next| next.at.as_millis());
        let stale = superseded.is_some_and(|at| sample.sent_ns / 1_000_000 >= at + delta_ms);
        if !stale {
            self.in_sync += 1;
        }
    }

    /// Share of checked reads that were in sync; 1 when nothing was read.
    pub fn fidelity(&self) -> f64 {
        if self.checked == 0 {
            1.0
        } else {
            self.in_sync as f64 / self.checked as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::UpdateEvent;

    fn trace(name: &str, updates_ms: &[u64], end_ms: u64) -> UpdateTrace {
        let events = updates_ms
            .iter()
            .map(|&ms| UpdateEvent::temporal(Timestamp::from_millis(ms)))
            .collect();
        UpdateTrace::new(
            name,
            Timestamp::ZERO,
            Timestamp::from_millis(end_ms),
            events,
        )
        .unwrap()
    }

    fn fetched(at_ms: u64, path: u32, version: u32) -> LogRecord {
        LogRecord {
            at_ns: at_ms * 1_000_000 + 999,
            serve_ns: 0,
            path,
            version,
            served: Served::Full,
        }
    }

    fn revalidated(at_ms: u64, path: u32, version: u32) -> LogRecord {
        LogRecord {
            served: Served::NotModified,
            ..fetched(at_ms, path, version)
        }
    }

    /// The simulator-side log the fixture log must be equivalent to.
    fn sim_log(records: &[(u64, Option<usize>)]) -> PollLog {
        let mut log = PollLog::new();
        for &(at_ms, refreshed) in records {
            log.push(PollRecord {
                at: Timestamp::from_millis(at_ms),
                outcome: refreshed.map_or(PollOutcome::NotModified, |version_index| {
                    PollOutcome::Refreshed { version_index }
                }),
                triggered: false,
            });
        }
        log
    }

    const DELTA: CoreDuration = CoreDuration::from_millis(500);
    const UNTIL: Timestamp = Timestamp::from_millis(10_000);

    #[test]
    fn never_polled_after_an_update_is_out_of_sync_from_update_plus_delta() {
        // Version 1 appears at 2 s; the proxy fetched once at 0 and only
        // ever revalidated before the update.
        let traces = [trace("a", &[0, 2_000], 10_000)];
        let log = [fetched(0, 0, 0), revalidated(1_000, 0, 0)];
        let logs = poll_logs(&log, 1, 10_000);
        let sim = sim_log(&[(0, Some(0)), (1_000, None)]);
        assert_eq!(logs[0], sim);
        let stats = individual_temporal(&traces[0], &logs[0], DELTA, UNTIL);
        // Out of sync from 2.5 s to the end of the 10 s window.
        assert_eq!(stats.out_of_sync(), CoreDuration::from_millis(7_500));
        assert_eq!(stats, individual_temporal(&traces[0], &sim, DELTA, UNTIL));
        assert_eq!(fidelity_dt(&traces, &logs, DELTA, UNTIL), 0.25);
    }

    #[test]
    fn polled_inside_delta_scores_one() {
        // Updates at 2 s and 6 s, each picked up 400 ms later.
        let traces = [trace("a", &[0, 2_000, 6_000], 10_000)];
        let log = [
            fetched(0, 0, 0),
            revalidated(1_900, 0, 0),
            fetched(2_400, 0, 1),
            fetched(6_400, 0, 2),
            revalidated(9_000, 0, 2),
        ];
        let logs = poll_logs(&log, 1, 10_000);
        let sim = sim_log(&[
            (0, Some(0)),
            (1_900, None),
            (2_400, Some(1)),
            (6_400, Some(2)),
            (9_000, None),
        ]);
        assert_eq!(logs[0], sim);
        assert_eq!(fidelity_dt(&traces, &logs, DELTA, UNTIL), 1.0);
        assert_eq!(
            individual_temporal(&traces[0], &logs[0], DELTA, UNTIL),
            individual_temporal(&traces[0], &sim, DELTA, UNTIL)
        );
    }

    #[test]
    fn a_pair_whose_validity_intervals_sit_further_apart_than_delta_is_in_violation() {
        // a: v0 valid [0, 1 s), v1 from 1 s. b: v0 valid [0, 5 s), v1 from 5 s.
        // From 6 s the proxy holds a.v0 (never refreshed) and b.v1: the
        // intervals [0, 1 s) and [5 s, ∞) are 4 s apart, δ is 0.5 s.
        let traces = [
            trace("a", &[0, 1_000], 10_000),
            trace("b", &[0, 5_000], 10_000),
        ];
        let log = [fetched(0, 0, 0), fetched(0, 1, 0), fetched(6_000, 1, 1)];
        let logs = poll_logs(&log, 2, 10_000);
        let sims = [
            sim_log(&[(0, Some(0))]),
            sim_log(&[(0, Some(0)), (6_000, Some(1))]),
        ];
        assert_eq!(logs[0], sims[0]);
        assert_eq!(logs[1], sims[1]);
        let stats = mutual_temporal(&traces[0], &logs[0], &traces[1], &logs[1], DELTA, UNTIL);
        assert_eq!(stats.out_of_sync(), CoreDuration::from_millis(4_000));
        assert_eq!(
            stats,
            mutual_temporal(&traces[0], &sims[0], &traces[1], &sims[1], DELTA, UNTIL)
        );
        assert_eq!(
            fidelity_mt(&traces, &logs, &scored_pairs(2), DELTA, UNTIL),
            0.6
        );
        // Refreshing a at the same instant restores the pair.
        let log = [
            fetched(0, 0, 0),
            fetched(0, 1, 0),
            fetched(6_000, 0, 1),
            fetched(6_000, 1, 1),
        ];
        let logs = poll_logs(&log, 2, 10_000);
        assert_eq!(
            fidelity_mt(&traces, &logs, &scored_pairs(2), DELTA, UNTIL),
            1.0
        );
    }

    #[test]
    fn records_past_the_window_are_dropped_and_unfetched_paths_score_one() {
        let traces = [trace("a", &[0, 2_000], 20_000), trace("b", &[0], 20_000)];
        let log = [fetched(0, 0, 0), fetched(12_000, 0, 1)];
        let logs = poll_logs(&log, 2, 10_000);
        assert_eq!(logs[0].poll_count(), 1);
        assert!(logs[1].is_empty());
        // a is stale from 2.5 s on (fidelity 0.25); b was never cached.
        assert_eq!(
            fidelity_dt(&traces, &logs, DELTA, UNTIL),
            (0.25 + 1.0) / 2.0
        );
    }

    #[test]
    fn scored_pairs_are_all_pairs_of_a_group_and_disjoint_neighbours_of_a_fleet() {
        assert_eq!(
            scored_pairs(4),
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        let fleet = scored_pairs(1024);
        assert_eq!(fleet.len(), 512);
        assert_eq!(fleet[511], (1022, 1023));
        assert_eq!(scored_pairs(16384).len(), 512);
    }

    #[test]
    fn read_oracle_flags_reads_served_a_copy_superseded_for_delta() {
        let traces = [trace("a", &[0, 2_000], 10_000)];
        let read = |sent_ms: u64, version: u32, ok: bool| Sample {
            due_ns: sent_ms * 1_000_000,
            sent_ns: sent_ms * 1_000_000,
            done_ns: sent_ms * 1_000_000 + 50_000,
            path: 0,
            version,
            ok,
            hit: true,
        };
        let mut oracle = ReadOracle::default();
        assert_eq!(oracle.fidelity(), 1.0);
        oracle.observe(&traces, 500, &read(1_000, 0, true)); // current
        oracle.observe(&traces, 500, &read(2_499, 0, true)); // superseded, inside Δ
        oracle.observe(&traces, 500, &read(2_500, 0, true)); // Δ reached: stale
        oracle.observe(&traces, 500, &read(3_000, 1, true)); // refreshed copy
        oracle.observe(&traces, 500, &read(4_000, 0, false)); // failed: not a read
        assert_eq!(
            oracle,
            ReadOracle {
                checked: 4,
                in_sync: 3
            }
        );
        assert_eq!(oracle.fidelity(), 0.75);
    }
}
