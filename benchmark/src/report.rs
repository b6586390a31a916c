//! How a run is told: a table for people, one JSON line for the driver,
//! and a result file that keeps everything.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use mutcon_traces::json::Json;

use crate::run::{Metric, Report};
use crate::trace::out_dir;

fn mode(report: &Report) -> &'static str {
    if report.options.trace {
        "trace"
    } else {
        "run"
    }
}

/// The table: every metric by name with its unit, the number of samples
/// it rests on and their inter-quartile spread; then the notes.
pub fn render(report: &Report) -> String {
    let o = &report.options;
    let r = &report.runner;
    let mut text = String::new();
    // Writing into a `String` cannot fail.
    let _ = writeln!(
        text,
        "{} {}  seed {}  seconds {}  clients {}  nproc {}  pinned to cpu {}  backend {:?}",
        mode(report),
        o.workload.name,
        o.seed,
        o.seconds,
        report.clients,
        r.nproc,
        report
            .environment
            .pinned_cpu
            .as_ref()
            .map_or("none".to_owned(), |c| c.to_string()),
        report.backends
    );
    let _ = writeln!(
        text,
        "kernel {}  {}  commit {}",
        r.kernel, r.rustc, r.commit
    );
    let _ = writeln!(
        text,
        "MUTCON_* variables cleared: {}",
        if report.environment.cleared_env.is_empty() {
            "none set".to_owned()
        } else {
            report.environment.cleared_env.join(" ")
        }
    );
    let _ = writeln!(
        text,
        "{:<40} {:>16} {:<6} {:>9} {:>14}  better",
        "metric", "value", "unit", "n", "iqr"
    );
    let ungated_from = report.metrics.len();
    for (row, Metric { def, summary, note }) in
        report.metrics.iter().chain(&report.ungated).enumerate()
    {
        if row == ungated_from {
            let _ = writeln!(
                text,
                "-- not gated: the runner's own speed moves these by a third --"
            );
        }
        match summary {
            Some(s) if s.value.is_finite() => {
                let _ = writeln!(
                    text,
                    "{:<40} {:>16.4} {:<6} {:>9} {:>14.4}  {}{}",
                    def.name,
                    s.value,
                    def.unit,
                    s.n,
                    s.iqr,
                    def.better.label(),
                    if s.n == 0 {
                        "  (layer did not run)"
                    } else {
                        ""
                    }
                );
            }
            _ => {
                let _ = writeln!(
                    text,
                    "{:<40} {:>16} {:<6} MISSING: {}",
                    def.name,
                    "-",
                    def.unit,
                    note.as_deref().unwrap_or("not measured")
                );
            }
        }
    }
    let _ = writeln!(
        text,
        "attempted {}  failed {}  stamp regressions {}  correct {}",
        report.attempted, report.failed, report.stamp_regressions, report.correct
    );
    for note in &report.notes {
        let _ = writeln!(text, "note: {note}");
    }
    text
}

fn object(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value with its unit. A metric the run could
/// not measure is left out, so the driver sees the gap instead of a
/// made-up number.
pub fn result_line(report: &Report) -> String {
    let metrics: BTreeMap<String, Json> = report
        .metrics
        .iter()
        .filter_map(|m| {
            let value = m.summary.filter(|s| s.value.is_finite())?.value;
            let entry = object([
                ("value", Json::Number(value)),
                ("unit", Json::String(m.def.unit.to_owned())),
            ]);
            Some((m.def.name.to_owned(), entry))
        })
        .collect();
    object([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Number(report.attempted as f64)),
        ("failed", Json::Number(report.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_string()
}

/// Everything about the run, for the result file.
fn document(report: &Report) -> Json {
    let o = &report.options;
    let r = &report.runner;
    let strings = |items: &[String]| Json::Array(items.iter().cloned().map(Json::String).collect());
    let metrics: Vec<Json> = report
        .metrics
        .iter()
        .map(|m| {
            let number = |pick: fn(&crate::stats::Summary) -> f64| {
                m.summary
                    .map(|s| pick(&s))
                    .filter(|v| v.is_finite())
                    .map_or(Json::Null, Json::Number)
            };
            object([
                ("name", Json::String(m.def.name.to_owned())),
                ("unit", Json::String(m.def.unit.to_owned())),
                ("better", Json::String(m.def.better.label().to_owned())),
                ("value", number(|s| s.value)),
                ("n", number(|s| s.n as f64)),
                ("iqr", number(|s| s.iqr)),
                ("note", m.note.clone().map_or(Json::Null, Json::String)),
            ])
        })
        .collect();
    object([
        ("mode", Json::String(mode(report).to_owned())),
        ("workload", Json::String(o.workload.name.to_owned())),
        ("seed", Json::Number(o.seed as f64)),
        ("seconds", Json::Number(o.seconds as f64)),
        ("clients", Json::Number(report.clients as f64)),
        ("nproc", Json::Number(r.nproc as f64)),
        ("kernel", Json::String(r.kernel.clone())),
        ("rustc", Json::String(r.rustc.clone())),
        ("commit", Json::String(r.commit.clone())),
        (
            "backends",
            Json::Array(
                report
                    .backends
                    .iter()
                    .map(|b| Json::String((*b).to_owned()))
                    .collect(),
            ),
        ),
        ("cleared_env", strings(&report.environment.cleared_env)),
        (
            "pinned_cpu",
            report
                .environment
                .pinned_cpu
                .as_ref()
                .map_or(Json::Null, |c| Json::Number(*c as f64)),
        ),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Number(report.attempted as f64)),
        ("failed", Json::Number(report.failed as f64)),
        (
            "stamp_regressions",
            Json::Number(report.stamp_regressions as f64),
        ),
        ("metrics", Json::Array(metrics)),
        ("notes", strings(&report.notes)),
    ])
}

/// Writes the result file under `out/` and returns its path.
pub fn write_result(report: &Report) -> io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let o = &report.options;
    let path = dir.join(format!(
        "{}-{}-seed{}.json",
        mode(report),
        o.workload.name,
        o.seed
    ));
    std::fs::write(&path, format!("{}\n", document(report)))?;
    Ok(path)
}
