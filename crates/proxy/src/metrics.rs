//! Ground-truth fidelity evaluation (§6.1.3).
//!
//! The simulator — unlike the proxy it simulates — can see the complete
//! server history, so it computes the evaluation's metrics *exactly*:
//!
//! * **Polls** — the length of the poll log.
//! * **Violations** (Equation 13's numerator) — poll instants at which the
//!   guarantee was, in ground truth, broken. This catches the Figure 1(b)
//!   cases a plain-HTTP proxy cannot even observe.
//! * **Out-of-sync time** (Equation 14's numerator) — the exact measure of
//!   the set of instants at which the guarantee was broken, computed by
//!   sweeping the piecewise-constant cached/server state.
//!
//! Conventions: every check is one of the §2 predicates in
//! [`mutcon_core::semantics`], so a guarantee is *violated* when the
//! bound is reached (staleness ≥ Δ, drift ≥ Δv or δ — Equations 2, 3
//! and 5 demand strict inequality the other way), and Mt holds while the
//! gap is at most δ (Equation 4). Individual-object violations are
//! counted per poll; mutual violations are counted per poll *instant* (a
//! pair poll or a trigger cascade at one instant is one occasion).

use mutcon_core::fidelity::FidelityStats;
use mutcon_core::semantics::{
    delta_t_satisfied, delta_t_violation_onset, delta_v_satisfied, mutual_t_satisfied,
    mutual_v_satisfied,
};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;
use mutcon_traces::UpdateTrace;

use crate::log::{PollLog, PollOutcome, PollRecord};

/// Evaluates Δt-consistency of one object's run.
///
/// `until` is the observation window end (polls and staleness beyond it
/// are out of scope).
pub fn individual_temporal(
    trace: &UpdateTrace,
    log: &PollLog,
    delta: Duration,
    until: Timestamp,
) -> FidelityStats {
    let mut stats = FidelityStats::new(until.since(trace.start()));
    stats.record_polls(log.poll_count());

    // Violations at poll instants, against the version held just before
    // each poll.
    let mut held: Option<usize> = None;
    for r in log.records() {
        if let Some(h) = held {
            if !delta_t_satisfied(trace.validity_of(h), r.at, delta) {
                stats.record_violation(Duration::ZERO);
            }
        }
        if let PollOutcome::Refreshed { version_index } = r.outcome {
            held = Some(version_index);
        }
    }

    // Exact out-of-sync time: for each held segment, staleness begins Δ
    // after the first update that supersedes the held version.
    let refreshes: Vec<(Timestamp, usize)> = log.refresh_timeline().collect();
    for (k, &(_from, version)) in refreshes.iter().enumerate() {
        let seg_end = refreshes
            .get(k + 1)
            .map_or(until, |&(next_from, _)| next_from)
            .min(until);
        if let Some(onset) = delta_t_violation_onset(trace.validity_of(version), delta) {
            if onset < seg_end {
                // The held version was current when fetched, so the onset
                // always falls inside the segment.
                stats.add_out_of_sync(seg_end.since(onset));
            }
        }
    }
    stats
}

/// Evaluates Mt-consistency of a pair's run.
///
/// A pair of cached versions is mutually consistent iff their
/// server-validity intervals come within δ of each other (Equation 4) —
/// a property of the *versions*, so the violation status only changes at
/// refresh instants, which makes the sweep exact.
pub fn mutual_temporal(
    trace_a: &UpdateTrace,
    log_a: &PollLog,
    trace_b: &UpdateTrace,
    log_b: &PollLog,
    delta: Duration,
    until: Timestamp,
) -> FidelityStats {
    let mut stats = FidelityStats::new(until.since(trace_a.start().min(trace_b.start())));
    stats.record_polls(log_a.poll_count() + log_b.poll_count());

    let ra = log_a.records();
    let rb = log_b.records();
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut held_a: Option<usize> = None;
    let mut held_b: Option<usize> = None;
    let mut violating = false;
    let mut violating_since = Timestamp::ZERO;

    let pair_violates = |ha: Option<usize>, hb: Option<usize>| -> bool {
        match (ha, hb) {
            (Some(ha), Some(hb)) => {
                !mutual_t_satisfied(trace_a.validity_of(ha), trace_b.validity_of(hb), delta)
            }
            _ => false, // nothing cached yet: nothing to be inconsistent
        }
    };

    while ia < ra.len() || ib < rb.len() {
        let t = match (ra.get(ia), rb.get(ib)) {
            (Some(x), Some(y)) => x.at.min(y.at),
            (Some(x), None) => x.at,
            (None, Some(y)) => y.at,
            (None, None) => unreachable!("loop condition"),
        };
        if t > until {
            break;
        }
        // Apply every record at this instant (triggered polls share it).
        while ia < ra.len() && ra[ia].at == t {
            if let PollOutcome::Refreshed { version_index } = ra[ia].outcome {
                held_a = Some(version_index);
            }
            ia += 1;
        }
        while ib < rb.len() && rb[ib].at == t {
            if let PollOutcome::Refreshed { version_index } = rb[ib].outcome {
                held_b = Some(version_index);
            }
            ib += 1;
        }
        let now_violating = pair_violates(held_a, held_b);
        if now_violating && !violating {
            violating_since = t;
        } else if !now_violating && violating {
            stats.add_out_of_sync(t.since(violating_since));
        }
        if now_violating {
            stats.record_violation(Duration::ZERO);
        }
        violating = now_violating;
    }
    if violating && until > violating_since {
        stats.add_out_of_sync(until.since(violating_since));
    }
    stats
}

/// Evaluates Mv-consistency of a pair's run for `f(a, b) = a − b`.
pub fn mutual_value(
    trace_a: &UpdateTrace,
    log_a: &PollLog,
    trace_b: &UpdateTrace,
    log_b: &PollLog,
    delta: Value,
    until: Timestamp,
) -> FidelityStats {
    let mut stats = FidelityStats::new(until.since(trace_a.start().min(trace_b.start())));
    stats.record_polls(log_a.poll_count() + log_b.poll_count());

    // Violations per poll instant, pre-refresh.
    let mut cached_a: Option<Value> = None;
    let mut cached_b: Option<Value> = None;
    let ra = log_a.records();
    let rb = log_b.records();
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < ra.len() || ib < rb.len() {
        let t = match (ra.get(ia), rb.get(ib)) {
            (Some(x), Some(y)) => x.at.min(y.at),
            (Some(x), None) => x.at,
            (None, Some(y)) => y.at,
            (None, None) => unreachable!("loop condition"),
        };
        if t > until {
            break;
        }
        if let (Some(pa), Some(pb)) = (cached_a, cached_b) {
            let sa = trace_a.value_at(t).expect("valued trace");
            let sb = trace_b.value_at(t).expect("valued trace");
            if !mutual_v_satisfied(sa - sb, pa - pb, delta) {
                stats.record_violation(Duration::ZERO);
            }
        }
        let apply = |recs: &[PollRecord],
                     i: &mut usize,
                     cached: &mut Option<Value>,
                     trace: &UpdateTrace| {
            while *i < recs.len() && recs[*i].at == t {
                if let PollOutcome::Refreshed { version_index } = recs[*i].outcome {
                    *cached = trace.events()[version_index].value;
                }
                *i += 1;
            }
        };
        apply(ra, &mut ia, &mut cached_a, trace_a);
        apply(rb, &mut ib, &mut cached_b, trace_b);
    }

    // Exact out-of-sync time. The pair's `f` is one virtual object
    // (§4.2), so each segment is a Δv check of its server value against
    // its cached one.
    let mut out_of_sync = Duration::ZERO;
    sweep_value_pair(
        trace_a,
        log_a,
        trace_b,
        log_b,
        until,
        |_, seg_len, server, proxy| {
            if !delta_v_satisfied(server, proxy, delta) {
                out_of_sync = out_of_sync.saturating_add(seg_len);
            }
        },
    );
    stats.add_out_of_sync(out_of_sync);
    stats
}

/// A point of the Figure 8 timeline: `f` at the server versus the proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FPoint {
    /// Time of the step.
    pub at: Timestamp,
    /// `f(S_a, S_b)` just after `at`.
    pub server: f64,
    /// `f(P_a, P_b)` just after `at`.
    pub proxy: f64,
}

/// Produces the step-function timeline of `f` at server and proxy within
/// `[from, to]` (Figure 8). Points are emitted at every change instant,
/// plus one at `from`; segments where either side is still unfetched are
/// skipped.
pub(crate) fn f_timeline(
    trace_a: &UpdateTrace,
    log_a: &PollLog,
    trace_b: &UpdateTrace,
    log_b: &PollLog,
    from: Timestamp,
    to: Timestamp,
) -> Vec<FPoint> {
    let mut points = Vec::new();
    sweep_value_pair(
        trace_a,
        log_a,
        trace_b,
        log_b,
        to,
        |seg_start, seg_len, server, proxy| {
            // Emit one point per constant segment intersecting [from, to],
            // clamped to the window start.
            let seg_end = seg_start.saturating_add(seg_len);
            if seg_end <= from || seg_start > to {
                return;
            }
            points.push(FPoint {
                at: seg_start.max(from),
                server: server.as_f64(),
                proxy: proxy.as_f64(),
            });
        },
    );
    points
}

/// Sweeps the merged step function of a pair's server and proxy values,
/// calling `visit` for every constant segment in which all four are known
/// with `(segment start, segment length, f at the server, f at the
/// proxy)`.
fn sweep_value_pair(
    trace_a: &UpdateTrace,
    log_a: &PollLog,
    trace_b: &UpdateTrace,
    log_b: &PollLog,
    until: Timestamp,
    mut visit: impl FnMut(Timestamp, Duration, Value, Value),
) {
    #[derive(Clone, Copy)]
    enum Change {
        ServerA(Option<Value>),
        RefreshA(Option<Value>),
        ServerB(Option<Value>),
        RefreshB(Option<Value>),
    }
    let mut changes: Vec<(Timestamp, u8, Change)> = Vec::new();
    for e in trace_a.events() {
        changes.push((e.at, 0, Change::ServerA(e.value)));
    }
    for (at, vi) in log_a.refresh_timeline() {
        changes.push((at, 1, Change::RefreshA(trace_a.events()[vi].value)));
    }
    for e in trace_b.events() {
        changes.push((e.at, 0, Change::ServerB(e.value)));
    }
    for (at, vi) in log_b.refresh_timeline() {
        changes.push((at, 1, Change::RefreshB(trace_b.events()[vi].value)));
    }
    // Server changes apply before refreshes at the same instant: a poll
    // coinciding with an update fetches the updated version.
    changes.sort_by_key(|&(at, order, _)| (at, order));

    let mut sa: Option<Value> = None;
    let mut pa: Option<Value> = None;
    let mut sb: Option<Value> = None;
    let mut pb: Option<Value> = None;
    let mut cursor = Timestamp::ZERO;
    let mut segment = |start: Timestamp, end: Timestamp, sa, pa, sb, pb| {
        if let (Some(sa), Some(pa), Some(sb), Some(pb)) = (sa, pa, sb, pb) {
            visit(start, end.since(start), sa - sb, pa - pb);
        }
    };
    let mut idx = 0;
    while idx < changes.len() {
        let t = changes[idx].0;
        if t > until {
            break;
        }
        if t > cursor {
            segment(cursor, t, sa, pa, sb, pb);
            cursor = t;
        }
        while idx < changes.len() && changes[idx].0 == t {
            match changes[idx].2 {
                Change::ServerA(v) => sa = v,
                Change::RefreshA(v) => pa = v,
                Change::ServerB(v) => sb = v,
                Change::RefreshB(v) => pb = v,
            }
            idx += 1;
        }
    }
    if until > cursor {
        segment(cursor, until, sa, pa, sb, pb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::PollRecord;
    use mutcon_traces::UpdateEvent;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn temporal_trace(updates: &[u64]) -> UpdateTrace {
        let mut events = vec![UpdateEvent::temporal(secs(0))];
        events.extend(updates.iter().map(|&s| UpdateEvent::temporal(secs(s))));
        UpdateTrace::new("t", secs(0), secs(1_000), events).unwrap()
    }

    fn valued_trace(points: &[(u64, f64)]) -> UpdateTrace {
        let events = points
            .iter()
            .map(|&(s, v)| UpdateEvent::valued(secs(s), Value::new(v)))
            .collect();
        UpdateTrace::new("v", secs(0), secs(1_000), events).unwrap()
    }

    fn log(entries: &[(u64, Option<usize>)]) -> PollLog {
        let mut l = PollLog::new();
        for &(s, refreshed) in entries {
            l.push(PollRecord {
                at: secs(s),
                outcome: match refreshed {
                    Some(vi) => PollOutcome::Refreshed { version_index: vi },
                    None => PollOutcome::NotModified,
                },
                triggered: false,
            });
        }
        l
    }

    #[test]
    fn temporal_perfect_run_has_fidelity_one() {
        // Update at 100; poll at 0 (fetch v0) and 150 (fetch v1), Δ=60s:
        // staleness at 150 is 50s < Δ.
        let trace = temporal_trace(&[100]);
        let l = log(&[(0, Some(0)), (150, Some(1))]);
        let stats = individual_temporal(&trace, &l, Duration::from_secs(60), secs(1_000));
        assert_eq!(stats.polls(), 2);
        assert_eq!(stats.violations(), 0);
        assert_eq!(stats.out_of_sync(), Duration::ZERO);
        assert_eq!(stats.fidelity_by_violations(), 1.0);
        assert_eq!(stats.fidelity_by_time(), 1.0);
    }

    #[test]
    fn temporal_late_poll_counts_violation_and_out_of_sync() {
        // Update at 100, poll only at 300 with Δ=60s:
        // out-of-sync from 160 to 300 = 140 s; 1 violation at the poll.
        let trace = temporal_trace(&[100]);
        let l = log(&[(0, Some(0)), (300, Some(1))]);
        let stats = individual_temporal(&trace, &l, Duration::from_secs(60), secs(1_000));
        assert_eq!(stats.violations(), 1);
        assert_eq!(stats.out_of_sync(), Duration::from_secs(140));
        // A poll exactly Δ after the update finds staleness == Δ, which
        // Equation 2's strict bound counts as a violation; the stale span
        // before it has zero length.
        let l = log(&[(0, Some(0)), (160, Some(1))]);
        let stats = individual_temporal(&trace, &l, Duration::from_secs(60), secs(1_000));
        assert_eq!(stats.violations(), 1);
        assert_eq!(stats.out_of_sync(), Duration::ZERO);
    }

    #[test]
    fn temporal_figure_1b_counts_against_first_update() {
        // Two updates (100, 290) between polls at 0 and 300; Δ=60 s. The
        // *last* update is only 10 s old at the poll, but the first missed
        // one is 200 s old → violation; out-of-sync 160..300.
        let trace = temporal_trace(&[100, 290]);
        let l = log(&[(0, Some(0)), (300, Some(2))]);
        let stats = individual_temporal(&trace, &l, Duration::from_secs(60), secs(1_000));
        assert_eq!(stats.violations(), 1);
        assert_eq!(stats.out_of_sync(), Duration::from_secs(140));
    }

    #[test]
    fn temporal_never_refreshed_tail_counts_until_window_end() {
        // Update at 100 never picked up; window ends at 500; Δ=60.
        let trace = temporal_trace(&[100]);
        let l = log(&[(0, Some(0))]);
        let stats = individual_temporal(&trace, &l, Duration::from_secs(60), secs(500));
        assert_eq!(stats.out_of_sync(), Duration::from_secs(340)); // 160..500
        assert_eq!(stats.violations(), 0); // no poll observed it
    }

    #[test]
    fn mutual_temporal_coexisting_versions_are_consistent() {
        // Both objects refreshed at 0 and never updated: fidelity 1.
        let ta = temporal_trace(&[]);
        let tb = temporal_trace(&[]);
        let la = log(&[(0, Some(0)), (100, None)]);
        let lb = log(&[(0, Some(0))]);
        let stats = mutual_temporal(&ta, &la, &tb, &lb, Duration::ZERO, secs(1_000));
        assert_eq!(stats.polls(), 3);
        assert_eq!(stats.violations(), 0);
        assert_eq!(stats.fidelity_by_time(), 1.0);
    }

    #[test]
    fn mutual_temporal_detects_out_of_phase_pair() {
        // a updates at 100 and is refreshed at 110 (holds v1: [100, ∞)).
        // b still holds v0: [0, 100)... but b's v0 validity is [0, ∞) in
        // its own trace unless b also updates. Make b update at 100 too;
        // b keeps holding v0 = [0, 100). Gap between [100,∞) and [0,100)
        // is 0 (they touch) → consistent at δ=0? Equation 4 admits it.
        // Shift b's update earlier so a genuine gap appears.
        let ta = temporal_trace(&[100]);
        let tb = temporal_trace(&[50]);
        let la = log(&[(0, Some(0)), (110, Some(1))]); // holds [100, ∞)
        let lb = log(&[(0, Some(0))]); // holds [0, 50): gap 50 s
        let stats = mutual_temporal(&ta, &la, &tb, &lb, Duration::from_secs(10), secs(1_000));
        // Violation occasions: at t=110 the pair becomes inconsistent.
        assert_eq!(stats.violations(), 1);
        // Out-of-sync from 110 (when a refreshed) to window end.
        assert_eq!(stats.out_of_sync(), Duration::from_secs(890));
        // A larger δ absorbs the gap, and so does δ equal to it: Equation
        // 4 bounds the gap with ≤.
        for delta in [60, 50] {
            let stats =
                mutual_temporal(&ta, &la, &tb, &lb, Duration::from_secs(delta), secs(1_000));
            assert_eq!(stats.violations(), 0, "δ = {delta} s");
            assert_eq!(stats.out_of_sync(), Duration::ZERO, "δ = {delta} s");
        }
    }

    #[test]
    fn mutual_value_difference_function() {
        // f = a − b. Server: a jumps +1 at 100, b constant → f_server
        // changes from 4 to 5. Proxy never refreshes → f_proxy = 4.
        let ta = valued_trace(&[(0, 10.0), (100, 11.0)]);
        let tb = valued_trace(&[(0, 6.0)]);
        let la = log(&[(0, Some(0))]);
        let lb = log(&[(0, Some(0))]);
        let stats = mutual_value(&ta, &la, &tb, &lb, Value::new(0.5), secs(300));
        // Out of sync over 100..300.
        assert_eq!(stats.out_of_sync(), Duration::from_secs(200));
        // Now with a refresh of a at 150: violation seen there, sync after.
        let la = log(&[(0, Some(0)), (150, Some(1))]);
        let stats = mutual_value(&ta, &la, &tb, &lb, Value::new(0.5), secs(300));
        assert_eq!(stats.violations(), 1);
        // Out of sync over 100..150.
        assert_eq!(stats.out_of_sync(), Duration::from_secs(50));
        // A drift exactly equal to Δv breaks Equation 5's strict bound.
        let stats = mutual_value(&ta, &la, &tb, &lb, Value::new(1.0), secs(300));
        assert_eq!(stats.violations(), 1);
        assert_eq!(stats.out_of_sync(), Duration::from_secs(50));
    }

    #[test]
    fn f_timeline_steps() {
        let ta = valued_trace(&[(0, 10.0), (100, 11.0)]);
        let tb = valued_trace(&[(0, 6.0)]);
        let la = log(&[(0, Some(0)), (150, Some(1))]);
        let lb = log(&[(0, Some(0))]);
        let points = f_timeline(&ta, &la, &tb, &lb, secs(0), secs(300));
        assert!(points.len() >= 3);
        // At t=0 both are 4; at 100 server jumps to 5; at 150 proxy catches up.
        assert_eq!(points[0].at, secs(0));
        assert_eq!(points[0].server, 4.0);
        assert_eq!(points[0].proxy, 4.0);
        let at_100 = points.iter().find(|p| p.at == secs(100)).unwrap();
        assert_eq!(at_100.server, 5.0);
        assert_eq!(at_100.proxy, 4.0);
        let at_150 = points.iter().find(|p| p.at == secs(150)).unwrap();
        assert_eq!(at_150.proxy, 5.0);
    }

    #[test]
    fn window_restricts_f_timeline() {
        let ta = valued_trace(&[(0, 10.0), (100, 11.0), (200, 12.0)]);
        let tb = valued_trace(&[(0, 6.0)]);
        let la = log(&[(0, Some(0))]);
        let lb = log(&[(0, Some(0))]);
        let points = f_timeline(&ta, &la, &tb, &lb, secs(150), secs(250));
        assert!(points
            .iter()
            .all(|p| p.at >= secs(150) && p.at <= secs(250)));
        // The state current at `from` is represented.
        assert_eq!(points[0].at, secs(150));
        assert_eq!(points[0].server, 5.0);
    }
}
