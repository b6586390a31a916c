//! `mutcon-benchmark`: one benchmark for the live proxy — the paper's
//! fidelity-for-polls trade and the proxy's own throughput, latency and
//! per-layer cost, on four named workloads. See `README.md`.
//!
//! ```text
//! mutcon-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's form)
//! mutcon-benchmark run      [--workload W] [--seed N] [--seconds S] [--backend B]
//! mutcon-benchmark trace    [--workload W] [--seed N] [--seconds S] [--backend B]
//! mutcon-benchmark selftest [--sets K] [--seed N] [--seconds S] [--vary-seed]
//! ```

mod affinity;
mod calibrate;
mod fixture;
mod layers;
mod loadgen;
mod procfs;
mod report;
mod run;
mod score;
mod selftest;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use mutcon_sim::reactor::BackendKind;

use crate::run::Options;

const USAGE: &str = "usage: mutcon-benchmark [run|trace|selftest] [--workload hot_hit|miss_churn|delta_fleet|mt_group] \
[--seed N] [--seconds N] [--trace 0|1] [--backend epoll|io_uring] [--sets N] [--vary-seed]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// No subcommand: the driver's form, `--workload` required.
    Driver,
    Run,
    Trace,
    Selftest,
}

#[derive(Debug)]
struct Args {
    command: Command,
    workload: Option<spec::Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    backend: Option<BackendKind>,
    sets: usize,
    vary_seed: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Driver,
        workload: None,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        backend: None,
        sets: 2,
        vary_seed: false,
    };
    let mut rest = argv.iter().peekable();
    if let Some(first) = rest.peek() {
        args.command = match first.as_str() {
            "run" => Command::Run,
            "trace" => Command::Trace,
            "selftest" => Command::Selftest,
            _ => Command::Driver,
        };
        if args.command != Command::Driver {
            rest.next();
        }
    }
    args.trace = args.command == Command::Trace;
    while let Some(flag) = rest.next() {
        if flag == "--vary-seed" {
            args.vary_seed = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    spec::workload(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--backend" => {
                args.backend = Some(
                    BackendKind::parse(value)
                        .ok_or_else(|| format!("unknown backend `{value}`"))?,
                );
            }
            "--sets" => {
                args.sets = number()? as usize;
                if args.sets < 2 {
                    return Err("--sets must be at least 2".into());
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.command == Command::Driver && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs one workload in this process and prints it. The exit code is
/// non-zero when a stamp went backwards, when a reply was wrong, or when
/// a metric the mode owes is missing; requests that merely failed are
/// counted in the result line.
fn run_here(options: &Options, environment: run::Environment) -> ExitCode {
    let report = match run::run(options, environment) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mutcon-benchmark: {} failed: {e}", options.workload.name);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::render(&report));
    match report::write_result(&report) {
        Ok(path) => println!("note: result written to {}", path.display()),
        Err(e) => println!("note: WARNING: result file not written: {e}"),
    }
    println!("{}", report::result_line(&report));
    if report.stamp_regressions > 0 {
        eprintln!(
            "mutcon-benchmark: {} stamp regressions",
            report.stamp_regressions
        );
        return ExitCode::from(2);
    }
    let missing = report
        .metrics
        .iter()
        .filter(|m| m.summary.is_none())
        .count();
    if !report.correct || missing > 0 {
        eprintln!(
            "mutcon-benchmark: outputs correct: {}, {missing} metrics missing",
            report.correct
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Before any thread exists: the proxy must run on its coded defaults,
    // and every thread to come inherits the one-CPU mask.
    let environment = run::Environment {
        cleared_env: run::clear_mutcon_env(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_cpu: affinity::pin_process().map_err(|e| e.to_string()),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mutcon-benchmark: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    match (args.command, args.workload) {
        (Command::Selftest, _) => {
            match selftest::selftest(args.sets, args.seed, args.seconds, args.vary_seed) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("mutcon-benchmark: selftest: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (_, Some(workload)) => run_here(
            &Options {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                backend: args.backend,
            },
            environment,
        ),
        // `run` / `trace` without a workload: all four, each in a fresh
        // process so peak RSS is its own.
        (_, None) => {
            if args.backend.is_some() {
                eprintln!("mutcon-benchmark: --backend needs --workload\n{USAGE}");
                return ExitCode::from(64);
            }
            let mut ok = true;
            for workload in spec::WORKLOADS {
                if let Err(e) = selftest::child(workload.name, args.seed, args.seconds, args.trace)
                {
                    eprintln!("mutcon-benchmark: {e}");
                    ok = false;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_form_parses() {
        let args = parse("--workload miss_churn --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.command, Command::Driver);
        assert_eq!(args.workload.unwrap().name, "miss_churn");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10, true));
    }

    #[test]
    fn subcommands_set_their_defaults() {
        let args = parse("trace --workload hot_hit").unwrap();
        assert!(args.trace);
        assert_eq!(args.seconds, spec::DEFAULT_SECONDS);
        let args = parse("selftest --sets 5 --vary-seed").unwrap();
        assert_eq!(
            (args.command, args.sets, args.vary_seed),
            (Command::Selftest, 5, true)
        );
        assert!(parse("run").unwrap().workload.is_none());
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        for (line, needle) in [
            ("", "--workload is required"),
            ("--workload nope", "unknown workload"),
            ("--workload hot_hit --seconds 0", "between 1 and 60"),
            ("--workload hot_hit --seconds 61", "between 1 and 60"),
            ("--workload hot_hit --trace 2", "0 or 1"),
            ("--workload hot_hit --seed x", "not a whole number"),
            ("--workload hot_hit --bogus 1", "unknown argument"),
            ("--workload", "needs a value"),
            ("selftest --sets 1", "at least 2"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err:?} lacks {needle:?}");
        }
    }
}
