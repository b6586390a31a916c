//! The benchmark judging itself: whole sets of runs of one build, compared
//! against the bounds `BENCHMARK.json` commits to.
//!
//! Every run is a child process of this binary, so each starts from a
//! fresh address space (peak RSS would otherwise carry over) and prints
//! the same line the driver reads. Two sets answer "do two runs of the
//! same code agree within the bounds"; more sets print, per metric, the
//! spread the driver will compute (inter-quartile distance over median)
//! beside the bound, and the bound this spread would justify — the tool
//! the bounds and any demotion were fixed with.

use std::io;
use std::path::Path;
use std::process::Command;

use mutcon_traces::json::{self, Json};

use crate::spec::{Better, WORKLOADS};
use crate::stats;

/// The smallest bound each metric may be given, as a share of its
/// median, whatever spread is measured.
const FLOORS: [(&str, f64); 6] = [
    ("setup_s", 0.20),
    ("ok_ratio", 0.001),
    ("peak_rss_mb", 0.10),
    ("fidelity_dt", 0.02),
    ("fidelity_mt", 0.02),
    ("origin_req_per_s", 0.05),
];

/// The contract's ceiling on a bound.
const MAX_BOUND: f64 = 0.25;

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the end-to-end declarations from `BENCHMARK.json` at the repo
/// root.
pub fn declared() -> io::Result<Vec<Declared>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(&path)?)
        .map_err(|e| other(format!("{}: {e}", path.display())))?;
    let field = |m: &Json, key: &str| {
        m.get(key)
            .cloned()
            .ok_or_else(|| other(format!("end_to_end entry lacks `{key}`")))
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| other("BENCHMARK.json lacks `end_to_end`".into()))?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: field(m, "name")?.as_str().unwrap_or_default().to_owned(),
                better: match field(m, "better")?.as_str() {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                },
                bound: field(m, "bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Runs one workload in a child process and returns the metrics of its
/// result line, having echoed the child's table.
pub fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> io::Result<Json> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(other(format!(
            "{workload} seed {seed}: child exited with {}",
            output.status
        )));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| other(format!("{workload}: result line: {e}")))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(other(format!(
            "{workload} seed {seed}: outputs were not correct"
        )));
    }
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| other("result line lacks `metrics`".into()))
}

fn value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// By how much `later` is worse than `earlier`, as a share of `earlier`
/// (negative when it is better).
pub fn worsening(better: Better, earlier: f64, later: f64) -> f64 {
    let change = (later - earlier) / earlier.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Runs `sets` sets of all four workloads and judges them. Returns
/// whether every gated metric agreed within its bound.
pub fn selftest(sets: usize, seed: u64, seconds: u64, vary_seed: bool) -> io::Result<bool> {
    let declared = declared()?;
    // results[workload][set]
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let run_seed = if vary_seed { seed + set as u64 } else { seed };
            eprintln!(
                "selftest: set {} of {sets}: {} seed {run_seed}",
                set + 1,
                workload.name
            );
            results[w].push(child(workload.name, run_seed, seconds, false)?);
        }
    }
    let mut agreed = true;
    println!(
        "\nselftest: {sets} sets, seed {seed}{}, {seconds} s",
        if vary_seed { " and up" } else { "" }
    );
    println!(
        "{:<12} {:<18} {:>14} {:>9} {:>9} {:>7} {:>10}  verdict",
        "workload", "metric", "median", "iqr/med", "range/med", "bound", "suggested"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for d in &declared {
            let values: Vec<f64> = results[w]
                .iter()
                .filter_map(|m| value(m, &d.name))
                .collect();
            if values.len() < sets {
                println!(
                    "{:<12} {:<18} MISSING in {} of {sets} sets",
                    workload.name,
                    d.name,
                    sets - values.len()
                );
                agreed = false;
                continue;
            }
            let median = stats::median(&values).expect("sets >= 1");
            let spread = stats::relative_spread(&values).unwrap_or(0.0);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let range = (hi - lo) / median.abs();
            let floor = FLOORS
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.05, |(_, f)| *f);
            let suggested = floor.max(3.0 * spread).min(MAX_BOUND);
            // Two sets: the second against the first, as the driver
            // judges a later commit. More: the spread against the bound,
            // as the driver accepts the benchmark, and against a third of
            // it, the margin the bounds were chosen with.
            let verdict = if sets == 2 {
                let worse = worsening(d.better, values[0], values[1])
                    .max(worsening(d.better, values[1], values[0]));
                if worse > d.bound {
                    "DISAGREE"
                } else {
                    "agree"
                }
            } else if d.name == "setup_s" {
                // The driver holds its spread against no bound.
                "exempt"
            } else if spread > d.bound {
                "TOO WIDE"
            } else if 3.0 * spread > d.bound {
                "within bound, margin under 3x"
            } else {
                "steady"
            };
            agreed &= !matches!(verdict, "DISAGREE" | "TOO WIDE");
            println!(
                "{:<12} {:<18} {:>14.4} {:>9.4} {:>9.4} {:>7.3} {:>10.3}  {verdict}",
                workload.name, d.name, median, spread, range, d.bound, suggested
            );
        }
    }
    println!("selftest: {}", if agreed { "PASS" } else { "FAIL" });
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worsening(Better::Lower, 100.0, 90.0), -0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 125.0), -0.25);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_end_to_end_metrics_within_the_contract() {
        let declared = declared().unwrap();
        let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        let defined: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, defined);
        for (d, m) in declared.iter().zip(END_TO_END) {
            assert_eq!(d.better, m.better, "{}", d.name);
            assert!(
                d.bound > 0.0 && d.bound <= MAX_BOUND,
                "{} bound {}",
                d.name,
                d.bound
            );
            assert!(
                FLOORS.iter().any(|(n, _)| *n == d.name),
                "{} has no floor",
                d.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_per_layer_metrics_of_spec_rs() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let entries = doc.get(key).and_then(Json::as_array).unwrap();
            entries
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), defined);
        let defined: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), defined);
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.label()),
                "{}",
                m.name
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::spec::DEFAULT_SECONDS)
        );
    }
}
