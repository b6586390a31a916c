//! `repro` — regenerate every table and figure of the ICDCS'01 paper.
//!
//! ```text
//! repro [--repeats R] [--bench-json PATH]
//!       table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|ablation|bench|all
//! ```
//!
//! Output is plain text, one section per experiment, matching the layout
//! recorded in `EXPERIMENTS.md`. `bench` is the robustness grid — every
//! figure grid re-run across `--repeats` seed-shifted trace realizations.
//! Everything is deterministic: the same seed catalog gives the same
//! bytes.
//!
//! Running `all` writes `BENCH_repro.json` — the simulator's per-section
//! wall-clock and polls simulated. The live proxy's speed and fidelity
//! are measured by `benchmark/` (see `BENCHMARK.json`), not here.

use std::time::Instant;

use mutcon_bench::{
    fig3_deltas, fig4_window, fig5_deltas, fig7_deltas, fig8_delta, fig8_window, fixed_delta,
    paper_fig3_config, paper_fig7_config, FIG3_TRACE, FIG5_PAIR, FIG6_PAIR, VALUE_PAIR,
};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_proxy::experiment::{
    heuristic_timeline, individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep,
    ttr_timeline, value_timeline,
};
use mutcon_proxy::report;
use mutcon_traces::stats::summarize;
use mutcon_traces::NamedTrace;

/// One experiment section: rendered text plus the number of simulated
/// origin polls it took to produce (the engine's unit of work).
struct Section {
    text: String,
    polls: u64,
}

/// Wall-clock and work measurements for one section.
struct Timing {
    name: &'static str,
    wall: std::time::Duration,
    polls: u64,
}

fn main() {
    let mut bench_json = String::from("BENCH_repro.json");
    let mut target: Option<String> = None;
    let mut repeats: u64 = 10;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeats" => match args.next().and_then(|r| r.parse().ok()) {
                Some(r) if r > 0 => repeats = r,
                _ => usage_error("--repeats needs a positive integer"),
            },
            "--bench-json" => match args.next() {
                Some(p) => bench_json = p,
                None => usage_error("--bench-json needs a path"),
            },
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_owned());
            }
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    let target = target.unwrap_or_else(|| "all".to_owned());

    let bench = move || bench_section(repeats);
    let known: &[(&'static str, &dyn Fn() -> Section)] = &[
        ("table1", &table1),
        ("table2", &table2),
        ("table3", &table3),
        ("fig3", &fig3),
        ("fig4", &fig4),
        ("fig5", &fig5),
        ("fig6", &fig6),
        ("fig7", &fig7),
        ("fig8", &fig8),
        ("ablation", &ablation),
        ("bench", &bench),
    ];
    let started = Instant::now();
    match target.as_str() {
        "all" => {
            let mut timings: Vec<Timing> = Vec::with_capacity(known.len());
            for (name, run) in known {
                let section_started = Instant::now();
                let section = run();
                let wall = section_started.elapsed();
                println!("==== {name} ====");
                print!("{}", section.text);
                println!();
                timings.push(Timing {
                    name,
                    wall,
                    polls: section.polls,
                });
            }
            let report = bench_report(repeats, started.elapsed(), &timings);
            match std::fs::write(&bench_json, &report) {
                Ok(()) => eprintln!("[repro] wrote {bench_json}"),
                Err(e) => {
                    // The timing artifact is the point of `all` in CI;
                    // losing it silently would break the PR-over-PR
                    // trajectory.
                    eprintln!("[repro] cannot write {bench_json}: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => match known.iter().find(|(name, _)| *name == other) {
            Some((_, run)) => print!("{}", run().text),
            None => {
                eprintln!(
                    "unknown experiment {other:?}; expected one of: all, {}",
                    known.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        },
    }
    eprintln!("[repro] completed in {:.2?}", started.elapsed());
}

fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!("usage: repro [--repeats R] [--bench-json PATH] <experiment|all>");
    std::process::exit(2);
}

/// Renders the machine-readable timing report by hand — the format is
/// two levels deep, a serializer would be overkill.
fn bench_report(repeats: u64, wall: std::time::Duration, sections: &[Timing]) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let total_polls: u64 = sections.iter().map(|t| t.polls).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench_repeats\": {repeats},\n"));
    out.push_str(&format!("  \"total_polls\": {total_polls},\n"));
    out.push_str(&format!("  \"wall_ms\": {:.3},\n", ms(wall)));
    out.push_str("  \"sections\": [\n");
    for (i, t) in sections.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"polls\": {}}}{}\n",
            t.name,
            ms(t.wall),
            t.polls,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The robustness grid (see [`mutcon_bench::robustness`]).
fn bench_section(repeats: u64) -> Section {
    let rows = mutcon_bench::robustness::robustness_grid(repeats);
    let polls = mutcon_bench::robustness::total_polls(&rows);
    Section {
        text: mutcon_bench::robustness::render(&rows),
        polls,
    }
}

/// Table 1 is the taxonomy of consistency semantics — definitional, so it
/// is rendered from the library's own types.
fn table1() -> Section {
    use mutcon_core::semantics::Semantics;
    use mutcon_core::value::Value;
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(text, "Table 1 — taxonomy of cache consistency semantics");
    let _ = writeln!(
        text,
        "{:<10} {:<10} {:<12} example",
        "Semantics", "Domain", "Type"
    );
    for s in [
        Semantics::DeltaT(Duration::from_mins(5)),
        Semantics::MutualT(Duration::from_mins(5)),
        Semantics::DeltaV(Value::new(2.5)),
        Semantics::MutualV(Value::new(2.5)),
    ] {
        let example = match s {
            Semantics::DeltaT(_) => "object a is always within 5 time units of its server copy",
            Semantics::MutualT(_) => "objects a and b are never out-of-sync by more than 5 units",
            Semantics::DeltaV(_) => "value of a is within 2.5 of its server copy",
            Semantics::MutualV(_) => "difference of a and b is within 2.5 of the server difference",
            _ => unreachable!(),
        };
        let _ = writeln!(
            text,
            "{:<10} {:<10?} {:<12?} {example}",
            s.to_string(),
            s.domain(),
            s.scope()
        );
    }
    Section { text, polls: 0 }
}

fn table2() -> Section {
    let summaries = NamedTrace::TEMPORAL.map(|t| summarize(&t.generate()));
    Section {
        text: report::table2(&summaries),
        polls: 0,
    }
}

fn table3() -> Section {
    let summaries = NamedTrace::VALUE.map(|t| summarize(&t.generate()));
    Section {
        text: report::table3(&summaries),
        polls: 0,
    }
}

fn fig3() -> Section {
    let trace = FIG3_TRACE.generate();
    let rows = individual_temporal_sweep(&trace, &fig3_deltas(), &paper_fig3_config());
    let polls = rows.iter().map(|r| r.baseline_polls + r.limd_polls).sum();
    Section {
        text: report::fig3(&trace, &rows),
        polls,
    }
}

fn fig4() -> Section {
    let trace = FIG3_TRACE.generate();
    let out = ttr_timeline(&trace, fixed_delta(), fig4_window(), &paper_fig3_config());
    let polls = out.ttr.len() as u64;
    Section {
        text: report::fig4(&out),
        polls,
    }
}

fn fig5() -> Section {
    let (a, b) = FIG5_PAIR;
    let rows = mutual_temporal_sweep(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        &fig5_deltas(),
        &paper_fig3_config(),
    );
    let polls = rows
        .iter()
        .map(|r| r.baseline.polls + r.triggered.polls + r.heuristic.polls)
        .sum();
    Section {
        text: report::fig5(&rows),
        polls,
    }
}

fn fig6() -> Section {
    let (a, b) = FIG6_PAIR;
    let out = heuristic_timeline(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        Duration::from_mins(5),
        fig4_window(),
        &paper_fig3_config(),
    );
    let polls = out.extra_polls.iter().map(|w| w.count as u64).sum();
    Section {
        text: report::fig6(&out),
        polls,
    }
}

fn fig7() -> Section {
    let (a, b) = VALUE_PAIR;
    let rows = mutual_value_sweep(
        &a.generate(),
        &b.generate(),
        &fig7_deltas(),
        &paper_fig7_config(),
    );
    let polls = rows
        .iter()
        .map(|r| r.adaptive_polls + r.partitioned_polls)
        .sum();
    Section {
        text: report::fig7(&rows),
        polls,
    }
}

fn fig8() -> Section {
    let (a, b) = VALUE_PAIR;
    let (from, to) = fig8_window();
    let out = value_timeline(
        &a.generate(),
        &b.generate(),
        fig8_delta(),
        Timestamp::ZERO + from,
        Timestamp::ZERO + to,
        &paper_fig7_config(),
    );
    let polls = (out.adaptive.len() + out.partitioned.len()) as u64;
    Section {
        text: report::fig8(&out, 40),
        polls,
    }
}

/// Ablations of the design choices DESIGN.md §7 calls out.
fn ablation() -> Section {
    use mutcon_proxy::ablation as ab;
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut polls = 0u64;
    let push = |title: &str, rows: Vec<ab::AblationRow>, text: &mut String, polls: &mut u64| {
        *polls += rows.iter().map(|r| r.polls).sum::<u64>();
        let _ = write!(text, "{}", ab::render(title, &rows));
    };
    let cnn = FIG3_TRACE.generate();
    push(
        "Ablation A — LIMD aggressiveness (CNN/FN, Δ = 10 min)",
        ab::limd_aggressiveness(&cnn, fixed_delta()),
        &mut text,
        &mut polls,
    );
    let _ = writeln!(text);
    push(
        "Ablation B — violation detection (Guardian, Δ = 10 min)",
        ab::violation_detection(&NamedTrace::Guardian.generate(), fixed_delta()),
        &mut text,
        &mut polls,
    );
    let _ = writeln!(text);
    let (a, b) = FIG5_PAIR;
    push(
        "Ablation C — heuristic rate threshold (CNN/FN + NYT/AP, δ = 5 min)",
        ab::heuristic_threshold(
            &a.generate(),
            &b.generate(),
            fixed_delta(),
            Duration::from_mins(5),
        ),
        &mut text,
        &mut polls,
    );
    let _ = writeln!(text);
    let (ya, att) = VALUE_PAIR;
    push(
        "Ablation D — Equation 10 α-blend (Yahoo + AT&T, δ = $0.6)",
        ab::alpha_blend(&ya.generate(), &att.generate(), fig8_delta()),
        &mut text,
        &mut polls,
    );
    Section { text, polls }
}
