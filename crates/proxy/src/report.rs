//! Plain-text rendering of experiment results.
//!
//! The `repro` binary (in `mutcon-bench`) prints these tables; each
//! mirrors one table or figure of the paper so runs can be diffed against
//! `EXPERIMENTS.md`.

use std::fmt::Write as _;

use mutcon_traces::stats::TraceSummary;
use mutcon_traces::UpdateTrace;

use crate::experiment::{Fig3Row, Fig4Output, Fig5Row, Fig6Output, Fig7Row, Fig8Output};

/// Renders rows of Table 2 (temporal workload characteristics).
pub fn table2(summaries: &[TraceSummary]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:>12} {:>9} {:>18}",
        "Trace", "Duration(h)", "Updates", "Avg gap (min)"
    )
    .expect("writing to String cannot fail");
    for s in summaries {
        let gap = s
            .mean_update_gap
            .map_or("-".to_owned(), |g| format!("{:.1}", g.as_mins_f64()));
        writeln!(
            out,
            "{:<18} {:>12.1} {:>9} {:>18}",
            s.name,
            s.duration.as_secs_f64() / 3_600.0,
            s.updates,
            gap
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders rows of Table 3 (value workload characteristics).
pub fn table3(summaries: &[TraceSummary]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<10} {:>12} {:>9} {:>11} {:>11}",
        "Stock", "Duration(h)", "Updates", "Min ($)", "Max ($)"
    )
    .expect("writing to String cannot fail");
    for s in summaries {
        let (lo, hi) = s
            .value_range
            .map_or(("-".to_owned(), "-".to_owned()), |(lo, hi)| {
                (format!("{:.2}", lo.as_f64()), format!("{:.2}", hi.as_f64()))
            });
        writeln!(
            out,
            "{:<10} {:>12.1} {:>9} {:>11} {:>11}",
            s.name,
            s.duration.as_secs_f64() / 3_600.0,
            s.updates,
            lo,
            hi
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 3 sweep (polls + both fidelity metrics vs Δ).
pub fn fig3(trace: &UpdateTrace, rows: &[Fig3Row]) -> String {
    let mut out = format!("Figure 3 — LIMD vs baseline, {} trace\n", trace.name());
    writeln!(
        out,
        "{:>9} {:>15} {:>11} {:>14} {:>13}",
        "Δ (min)", "baseline polls", "LIMD polls", "fid(violations)", "fid(time)"
    )
    .expect("writing to String cannot fail");
    for r in rows {
        writeln!(
            out,
            "{:>9.0} {:>15} {:>11} {:>14.3} {:>13.3}",
            r.delta.as_mins_f64(),
            r.baseline_polls,
            r.limd_polls,
            r.limd_fidelity_violations,
            r.limd_fidelity_time
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 4 timelines (update counts and TTR trajectory).
pub fn fig4(out4: &Fig4Output) -> String {
    let mut out = String::from("Figure 4(a) — updates per window\n");
    for w in &out4.update_counts {
        writeln!(
            out,
            "{:>10.1} h {:>6}",
            w.start.as_secs_f64() / 3_600.0,
            w.count
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("\nFigure 4(b) — TTR after each poll\n");
    for (t, ttr) in &out4.ttr {
        writeln!(
            out,
            "{:>10.1} h {:>8.1} min",
            t.as_secs_f64() / 3_600.0,
            ttr.as_mins_f64()
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 5 sweep (three Mt policies vs δ).
pub fn fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::from("Figure 5 — mutual consistency in the temporal domain\n");
    writeln!(
        out,
        "{:>9} {:>15} {:>15} {:>15} {:>10} {:>10} {:>10}",
        "δ (min)",
        "baseline polls",
        "triggered",
        "heuristic",
        "fid(base)",
        "fid(trig)",
        "fid(heur)"
    )
    .expect("writing to String cannot fail");
    for r in rows {
        writeln!(
            out,
            "{:>9.0} {:>15} {:>15} {:>15} {:>10.3} {:>10.3} {:>10.3}",
            r.mutual_delta.as_mins_f64(),
            r.baseline.polls,
            r.triggered.polls,
            r.heuristic.polls,
            r.baseline.fidelity,
            r.triggered.fidelity,
            r.heuristic.fidelity
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 6 timelines (rate ratio and extra polls).
pub fn fig6(out6: &Fig6Output) -> String {
    let mut out = String::from("Figure 6 — heuristic adaptivity\n");
    writeln!(
        out,
        "{:>10} {:>12} {:>12}",
        "window (h)", "rate ratio", "extra polls"
    )
    .expect("writing to String cannot fail");
    for (r, e) in out6.rate_ratio.iter().zip(&out6.extra_polls) {
        let ratio = r.1.map_or("-".to_owned(), |v| format!("{v:.2}"));
        writeln!(
            out,
            "{:>10.1} {:>12} {:>12}",
            r.0.as_secs_f64() / 3_600.0,
            ratio,
            e.count
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 7 sweep (adaptive vs partitioned Mv).
pub fn fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::from("Figure 7 — mutual consistency in the value domain\n");
    writeln!(
        out,
        "{:>8} {:>15} {:>15} {:>12} {:>12}",
        "δ ($)", "adaptive polls", "partitioned", "fid(adapt)", "fid(part)"
    )
    .expect("writing to String cannot fail");
    for r in rows {
        writeln!(
            out,
            "{:>8.2} {:>15} {:>15} {:>12.3} {:>12.3}",
            r.delta.as_f64(),
            r.adaptive_polls,
            r.partitioned_polls,
            r.adaptive_fidelity,
            r.partitioned_fidelity
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders the Figure 8 step functions (subsampled to at most
/// `max_points` rows per approach).
pub fn fig8(out8: &Fig8Output, max_points: usize) -> String {
    let mut out = String::from("Figure 8 — f at proxy vs server (δ = $0.6)\n");
    for (label, points) in [
        ("adaptive", &out8.adaptive),
        ("partitioned", &out8.partitioned),
    ] {
        writeln!(out, "\n[{label}]").expect("writing to String cannot fail");
        writeln!(out, "{:>10} {:>12} {:>12}", "t (s)", "server f", "proxy f")
            .expect("writing to String cannot fail");
        let stride = points.len().div_ceil(max_points.max(1)).max(1);
        for p in points.iter().step_by(stride) {
            writeln!(
                out,
                "{:>10.0} {:>12.2} {:>12.2}",
                p.at.as_secs_f64(),
                p.server,
                p.proxy
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep, ttr_timeline,
        value_timeline, Fig3Config, Fig7Config,
    };
    use mutcon_core::time::{Duration, Timestamp};
    use mutcon_core::value::Value;
    use mutcon_traces::generator::{NewsTraceBuilder, StockTraceBuilder};
    use mutcon_traces::stats::summarize;

    #[test]
    fn tables_render() {
        let news = NewsTraceBuilder::new("n", Duration::from_hours(6), 20)
            .seed(1)
            .build()
            .unwrap();
        let stock = StockTraceBuilder::new("s", Duration::from_mins(30), 50, 10.0, 11.0)
            .seed(2)
            .build()
            .unwrap();
        let t2 = table2(&[summarize(&news)]);
        assert!(t2.contains("n"));
        assert!(t2.contains("20"));
        let t3 = table3(&[summarize(&stock)]);
        assert!(t3.contains("50"));
        assert!(t3.contains("10."));
    }

    #[test]
    fn figures_render_without_panic() {
        let news = NewsTraceBuilder::new("n", Duration::from_hours(6), 30)
            .seed(3)
            .build()
            .unwrap();
        let news_b = NewsTraceBuilder::new("m", Duration::from_hours(6), 20)
            .seed(4)
            .build()
            .unwrap();
        let cfg = Fig3Config::default();
        let rows = individual_temporal_sweep(&news, &[Duration::from_mins(10)], &cfg);
        assert!(fig3(&news, &rows).contains("LIMD"));

        let out4 = ttr_timeline(
            &news,
            Duration::from_mins(10),
            Duration::from_hours(2),
            &cfg,
        );
        assert!(fig4(&out4).contains("TTR"));

        let rows5 = mutual_temporal_sweep(
            &news,
            &news_b,
            Duration::from_mins(10),
            &[Duration::from_mins(5)],
            &cfg,
        );
        assert!(fig5(&rows5).contains("triggered"));

        let a = StockTraceBuilder::new("hi", Duration::from_mins(30), 120, 160.0, 170.0)
            .seed(5)
            .build()
            .unwrap();
        let b = StockTraceBuilder::new("lo", Duration::from_mins(30), 40, 35.0, 37.0)
            .seed(6)
            .build()
            .unwrap();
        let rows7 = mutual_value_sweep(&a, &b, &[Value::new(1.0)], &Fig7Config::default());
        assert!(fig7(&rows7).contains("partitioned"));

        let out8 = value_timeline(
            &a,
            &b,
            Value::new(0.6),
            Timestamp::from_secs(0),
            Timestamp::from_secs(600),
            &Fig7Config::default(),
        );
        let rendered = fig8(&out8, 20);
        assert!(rendered.contains("adaptive"));
        assert!(rendered.lines().count() < 60);
    }
}
