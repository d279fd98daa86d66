//! The repo's one benchmark: five named workloads, both clocks (simulated
//! seconds of the modelled paper server, host wall-clock of the engine
//! itself), every result checked against `reference_execute`, and — in a
//! separate traced run — per-layer numbers timed from outside each crate's
//! public functions. It claims no gain; it is the ruler later changes name
//! their claims against. See README.md beside this package's manifest.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--repeat [N]]
//! benchmark --emit-manifest        # the text of BENCHMARK.json
//! ```
//!
//! One workload runs in-process and prints, as its last line, the JSON
//! object `BENCHMARK.json`'s driver reads. `all` and `--repeat` re-execute
//! this binary once per workload and run, so that `VmHWM` is per run.

#![deny(deprecated)]

mod load;
mod manifest;
mod probes;
mod run;
mod stats;
mod trace;

use load::Workload;
use manifest::{unit_of, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{Opts, Report};
use stats::{json_number, median, quartiles};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark --workload <scan_cpu|join_cpu|join_large_cpu|hybrid_paper|\
serve_mixed|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat [N]]\n       \
benchmark --emit-manifest";

struct Args {
    /// `None` is `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("bench-out"),
        repeat: None,
    };
    let mut named = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                named = true;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?)
                    }
                };
            }
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--repeat" => {
                let n = it.next_if(|next| next.parse::<usize>().is_ok());
                parsed.repeat = Some(n.map_or(2, |n| n.parse().expect("checked by next_if")));
                if parsed.repeat == Some(0) {
                    return Err("--repeat needs at least one run".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`, with
/// every metric of the run's table (end-to-end untraced, per-layer traced).
fn result_line(report: &Report, names: &[&'static str]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for name in names {
        let m = report.metrics.get(name).ok_or(format!("metric {name} was not measured"))?;
        let unit = unit_of(name).expect("names come from the manifest");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(m.value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.out.clone(),
        quick: false,
    };
    let report = match run::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let line = match result_line(&report, &names) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{:<36} {:>16} {:<10} {:>6}  note", "metric", "value", "unit", "n");
    for name in &names {
        let m = &report.metrics[name];
        let unit = unit_of(name).expect("names come from the manifest");
        println!("{name:<36} {:>16.6} {unit:<10} {:>6}  {}", m.value, m.n, m.note);
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "ops_attempted {} ops_failed {} ops_failed_share {share}",
        report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    println!("{line}");
    if report.failed == 0 && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of an end-to-end metric in a child's result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.parse().ok()
}

/// `all` and `--repeat`: one child process per workload and run (seeds
/// `seed`, `seed+1`, …, as the driver varies them), then — for repeated
/// untraced runs — each workload x end-to-end metric's values, the spread
/// between their quartiles as a share of the median, and PASS/FAIL against
/// the metric's own bound.
fn run_suite(args: &Args) -> ExitCode {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let repeat = args.repeat.unwrap_or(1);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut lines: Vec<Vec<String>> = Vec::new();
    for workload in &workloads {
        let mut runs = Vec::new();
        for i in 0..repeat {
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &(args.seed + i as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("benchmark: cannot run {}: {e}", workload.name());
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            runs.push(stdout.lines().last().unwrap_or_default().to_string());
        }
        lines.push(runs);
    }
    if repeat >= 2 && !args.trace {
        println!(
            "\n{:<16} {:<24} {:>12} {:>9} {:>7}  verdict  values",
            "workload", "metric", "median", "spread", "bound"
        );
        for (workload, runs) in workloads.iter().zip(&lines) {
            for metric in &END_TO_END {
                let values: Vec<f64> =
                    runs.iter().filter_map(|line| value_in(line, metric.name)).collect();
                if values.len() < 2 {
                    println!("{:<16} {:<24} missing", workload.name(), metric.name);
                    ok = false;
                    continue;
                }
                let (q1, q3) = quartiles(&values);
                let spread = (q3 - q1) / median(&values);
                // setup_s is judged on its medians, never on its spread.
                let judged = metric.name != "setup_s";
                let pass = !judged || spread <= metric.bound;
                ok &= pass;
                println!(
                    "{:<16} {:<24} {:>12.6} {:>8.2}% {:>6.0}%  {:<7}  {}",
                    workload.name(),
                    metric.name,
                    median(&values),
                    spread * 100.0,
                    metric.bound * 100.0,
                    if !judged {
                        "-"
                    } else if pass {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                    values.iter().map(|v| format!("{v:.5}")).collect::<Vec<_>>().join(" "),
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--emit-manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.repeat) {
        (Some(workload), None) => run_one(workload, &args),
        _ => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&["--workload", "join_cpu", "--seed", "7", "--seconds", "15", "--trace", "1"])
            .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::JoinCpu), 7, 15.0, true)
        );
        assert_eq!(args(&["--workload", "all", "--repeat"]).unwrap().repeat, Some(2));
        assert_eq!(args(&["--workload", "all", "--repeat", "5"]).unwrap().repeat, Some(5));
        assert!(args(&["--seed", "7"]).is_err(), "a workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "0"]).is_err());
    }

    /// Every name a run prints is in `BENCHMARK.json` (whose text is the
    /// manifest tables', see `manifest::tests`) and every name there is
    /// printed.
    fn prints_exactly_the_manifest(workload: Workload) {
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let out = std::env::temp_dir().join(format!(
            "hetex-benchmark-{}-names-{}",
            std::process::id(),
            workload.name()
        ));
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let opts =
                Opts { workload, seed: 42, seconds: 0.1, trace, out: out.clone(), quick: true };
            let report = run::run(&opts).unwrap();
            assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.failures);
            let line = result_line(&report, names).unwrap();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            let printed: Vec<&str> = report.metrics.keys().copied().collect();
            let mut expected = names.clone();
            expected.sort_unstable();
            assert_eq!(printed, expected, "{workload:?} trace {trace}");
            for name in names.iter() {
                assert!(value_in(&line, name).is_some(), "{name} missing from {line}");
            }
        }
        std::fs::remove_dir_all(out).unwrap();
    }

    /// Covers the `paper.*` branch.
    #[test]
    fn hybrid_paper_prints_exactly_the_metrics_of_the_manifest() {
        prints_exactly_the_manifest(Workload::HybridPaper);
    }

    /// Covers the multi-stream serving rounds.
    #[test]
    fn serve_mixed_prints_exactly_the_metrics_of_the_manifest() {
        prints_exactly_the_manifest(Workload::ServeMixed);
    }
}
