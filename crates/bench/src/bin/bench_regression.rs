//! Bench-regression gate: compare freshly generated `BENCH_*.json` files
//! against the committed baselines and fail (exit 1) when any
//! simulated-time metric regressed by more than the tolerance.
//!
//! Usage: `bench_regression <baseline_dir> [current_dir] [tolerance_pct]`
//!
//! CI runs the bench bins with an output-directory argument (so the
//! checked-in `BENCH_*.json` stay untouched), then invokes this gate with
//! the repository as the baseline and the fresh output directory as
//! current. Gated metrics carry **direction metadata** derived from the
//! field suffix: fields ending in `_s` are simulated times (lower is better
//! — a current value more than `tolerance_pct` *above* its baseline
//! regresses), fields ending in `_gbps` are throughputs (higher is better —
//! a value more than `tolerance_pct` *below* its baseline regresses).
//! Without the direction split an improved throughput number would be
//! flagged exactly like a slowed-down time. Metrics present only in the
//! current files (new benchmarks) pass; metrics that *disappeared* — a
//! dropped workload, a renamed field, a bench bin that silently stopped
//! emitting a row — fail loudly, **including** in otherwise ungated
//! workloads. Workloads labelled `skewed` have their *values* reported but
//! not gated: their timings depend on wall-clock thread scheduling (how
//! many blocks get stolen or diverted before a straggler claims them varies
//! with core count and load), so the committed number is not a stable
//! baseline — the `steal_ab`/`calib_ab` bins enforce those workloads' real
//! acceptance bars (≥ 10% / ≥ 20% improvement) directly. The JSON is the
//! hand-rolled one-object-per-line format the bench crate emits (the build
//! has no JSON dependency), parsed with an equally small hand-rolled
//! scanner.
//!
//! When `GITHUB_STEP_SUMMARY` is set (a GitHub Actions step), the gate also
//! appends a per-metric markdown delta table to it, so regressions — and
//! improvements — are visible from the workflow summary page without
//! reading logs.
//!
//! **New baselines**: a PR that commits a brand-new `BENCH_*.json` has no
//! prior run to compare against — if its bench bin is not yet wired into
//! the pipeline (or runs behind this gate), the missing current file would
//! fail the build exactly like a dropped benchmark. Setting
//! `HETEX_NEW_BASELINES` to a comma-separated list of baseline *file
//! names* (e.g. `BENCH_kernel.json`) downgrades missing-current-file and
//! missing-metric failures **for those files only** to an accepted
//! "new baseline" outcome. Present metrics of a listed file are still
//! value-gated normally, so the escape hatch cannot hide a real
//! regression in a file that did run.

use std::path::{Path, PathBuf};
use std::process::exit;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Times, latencies: a larger current value is a regression.
    LowerIsBetter,
    /// Throughputs, recovery rates: a smaller current value is a regression.
    HigherIsBetter,
}

/// Direction metadata by field-name suffix; `None` for fields that are not
/// gated (counts, percentages, booleans).
fn direction_of(field: &str) -> Option<Direction> {
    if field.ends_with("_s") {
        Some(Direction::LowerIsBetter)
    } else if field.ends_with("_gbps") {
        Some(Direction::HigherIsBetter)
    } else {
        None
    }
}

/// One gated metric: (workload label, field name, value, direction).
type Metric = (String, String, f64, Direction);

/// True when `current` regressed against `baseline` by more than `factor`
/// (1.0 + tolerance) in the metric's own direction: more than the tolerance
/// *above* baseline for times, more than the tolerance *below* baseline for
/// throughputs (`2.0 - factor` = 1.0 − tolerance — symmetric with the
/// lower-is-better bar, not the smaller `1/factor` drop).
fn regressed(direction: Direction, baseline: f64, current: f64, factor: f64) -> bool {
    match direction {
        Direction::LowerIsBetter => current > baseline * factor && current - baseline > 1e-9,
        Direction::HigherIsBetter => {
            current < baseline * (2.0 - factor) && baseline - current > 1e-9
        }
    }
}

/// Signed change of `current` vs `baseline` in percent, oriented so that a
/// positive value is always an improvement.
fn improvement_pct(direction: Direction, baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    let raw = (current / baseline - 1.0) * 100.0;
    match direction {
        Direction::LowerIsBetter => -raw,
        Direction::HigherIsBetter => raw,
    }
}

/// Extract every gated `"field": value` pair (a field with direction
/// metadata) from the bench crate's one-workload-per-line JSON.
fn parse_metrics(content: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    for line in content.lines() {
        let Some(workload) = field_str(line, "workload") else { continue };
        let mut rest = line;
        while let Some(pos) = rest.find('"') {
            rest = &rest[pos + 1..];
            let Some(end) = rest.find('"') else { break };
            let key = &rest[..end];
            rest = &rest[end + 1..];
            let Some(direction) = direction_of(key) else { continue };
            let Some(colon) = rest.find(':') else { break };
            let value_str = rest[colon + 1..].trim_start().split([',', '}']).next().unwrap_or("");
            if let Ok(value) = value_str.trim().parse::<f64>() {
                out.push((workload.clone(), key.to_string(), value, direction));
            }
        }
    }
    out
}

/// The string value of `"field": "..."` on `line`, if present.
fn field_str(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Outcome of one baseline metric's comparison, feeding both the log lines
/// and the step-summary table.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    file: String,
    workload: String,
    field: String,
    direction: Direction,
    baseline: f64,
    /// The fresh run's value; `None` when the metric disappeared.
    current: Option<f64>,
    /// Whether the *value* is gated. Schedule-sensitive (skewed) workloads
    /// are reported only — but their *presence* is always gated.
    value_gated: bool,
    /// Whether the file is a declared new baseline (`HETEX_NEW_BASELINES`):
    /// a missing current metric is accepted instead of failing.
    new_baseline: bool,
    regressed: bool,
}

/// Parse the `HETEX_NEW_BASELINES` value: comma-separated baseline file
/// names, whitespace-tolerant, empty entries dropped.
fn new_baseline_set(raw: Option<&str>) -> std::collections::HashSet<String> {
    raw.map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect())
        .unwrap_or_default()
}

/// True when a workload's values are too schedule-sensitive to gate against
/// a committed number (see the module docs).
fn schedule_sensitive(workload: &str) -> bool {
    workload.contains("skewed") && !workload.contains("unskewed")
}

/// Compare every baseline metric of one file against the fresh run. Every
/// baseline metric must still *exist* (a renamed or dropped metric is a
/// regression even in ungated workloads — a gate that silently loses
/// coverage is worse than a slow benchmark); values are gated only outside
/// schedule-sensitive workloads.
fn compare_metrics(
    file: &str,
    baseline: &[Metric],
    current: &[Metric],
    factor: f64,
    new_baseline: bool,
) -> Vec<Outcome> {
    baseline
        .iter()
        .map(|(workload, field, base, direction)| {
            let value_gated = !schedule_sensitive(workload);
            let cur = current
                .iter()
                .find(|(w, f, _, _)| w == workload && f == field)
                .map(|&(_, _, v, _)| v);
            let regressed = match cur {
                // A declared new baseline has no prior run to be missing
                // from — accept the hole instead of failing it.
                None => !new_baseline,
                Some(cur) => value_gated && regressed(*direction, *base, cur, factor),
            };
            Outcome {
                file: file.to_string(),
                workload: workload.clone(),
                field: field.clone(),
                direction: *direction,
                baseline: *base,
                current: cur,
                value_gated,
                new_baseline,
                regressed,
            }
        })
        .collect()
}

/// Render the per-metric delta table (GitHub-flavoured markdown) the gate
/// appends to `$GITHUB_STEP_SUMMARY`. Positive delta = better, in the
/// metric's own direction.
fn render_step_summary(outcomes: &[Outcome], tolerance_pct: f64) -> String {
    let regressions = outcomes.iter().filter(|o| o.regressed).count();
    let mut out = String::from("## Bench regression gate\n\n");
    out.push_str(&format!(
        "{} metric(s) compared at ±{tolerance_pct:.0}% tolerance — **{}**\n\n",
        outcomes.len(),
        if regressions == 0 {
            "no regressions".to_string()
        } else {
            format!("{regressions} regression(s)")
        }
    ));
    out.push_str("| file | workload | metric | baseline | current | Δ better | status |\n");
    out.push_str("|---|---|---|---:|---:|---:|---|\n");
    for o in outcomes {
        let direction = match o.direction {
            Direction::LowerIsBetter => "lower-is-better",
            Direction::HigherIsBetter => "higher-is-better",
        };
        let (current, delta) = match o.current {
            Some(cur) => (
                format!("{cur:.6}"),
                format!("{:+.1}%", improvement_pct(o.direction, o.baseline, cur)),
            ),
            None => ("—".to_string(), "—".to_string()),
        };
        let status = if o.current.is_none() && o.new_baseline {
            "🆕 new baseline (no prior run)".to_string()
        } else if o.current.is_none() {
            "❌ missing".to_string()
        } else if o.regressed {
            format!("❌ regressed ({direction})")
        } else if o.value_gated {
            format!("✅ ok ({direction})")
        } else {
            "⏭️ reported only (schedule-sensitive)".to_string()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {:.6} | {} | {} | {} |\n",
            o.file, o.workload, o.field, o.baseline, current, delta, status
        ));
    }
    out
}

fn bench_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(baseline_dir) = args.next().map(PathBuf::from) else {
        eprintln!("usage: bench_regression <baseline_dir> [current_dir] [tolerance_pct]");
        exit(2);
    };
    let current_dir = args.next().map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));
    let tolerance_pct: f64 = args.next().and_then(|t| t.parse().ok()).unwrap_or(10.0);
    // Past 100% the higher-is-better bar (baseline × (1 − tolerance)) goes
    // non-positive and that whole gate silently disables itself; no
    // legitimate tolerance is anywhere near that, so reject loudly.
    if !(0.0..100.0).contains(&tolerance_pct) {
        eprintln!("tolerance_pct must be in [0, 100), got {tolerance_pct}");
        exit(2);
    }
    let factor = 1.0 + tolerance_pct / 100.0;

    let baselines = bench_files(&baseline_dir);
    if baselines.is_empty() {
        eprintln!("no BENCH_*.json baselines under {}", baseline_dir.display());
        exit(2);
    }

    let new_baselines = new_baseline_set(std::env::var("HETEX_NEW_BASELINES").ok().as_deref());

    let mut regressions = 0usize;
    let mut outcomes: Vec<Outcome> = Vec::new();
    for baseline_path in baselines {
        let name = baseline_path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let is_new = new_baselines.contains(&name);
        let current_path = current_dir.join(&name);
        let Ok(baseline) = std::fs::read_to_string(&baseline_path) else { continue };
        let baseline_metrics = parse_metrics(&baseline);
        let Ok(current) = std::fs::read_to_string(&current_path) else {
            if is_new {
                println!(
                    "new baseline {name}: accepted without a prior-run comparison \
                     (HETEX_NEW_BASELINES)"
                );
            } else {
                eprintln!("REGRESSION {name}: baseline exists but no current file was generated");
            }
            if baseline_metrics.is_empty() {
                // No per-metric outcomes can carry this failure into the
                // count (or the summary table) — count the file itself.
                regressions += usize::from(!is_new);
            } else {
                // Every committed metric of the file is missing: emit one
                // missing-metric outcome each, so the step-summary table
                // shows the same failures (or accepted new-baseline holes)
                // the exit code reports.
                outcomes.extend(compare_metrics(&name, &baseline_metrics, &[], factor, is_new));
            }
            continue;
        };
        outcomes.extend(compare_metrics(
            &name,
            &baseline_metrics,
            &parse_metrics(&current),
            factor,
            is_new,
        ));
    }

    for o in &outcomes {
        let label = format!("{} {}.{}", o.file, o.workload, o.field);
        match o.current {
            None if o.new_baseline => {
                println!("new {label}: fresh baseline, no prior-run value to compare");
            }
            None => {
                eprintln!(
                    "REGRESSION {label}: baseline metric missing from the fresh run \
                     (renamed or dropped? every committed metric must keep being emitted)"
                );
            }
            Some(cur) if o.regressed => {
                eprintln!(
                    "REGRESSION {label}: {cur:.6} vs baseline {:.6} ({:.1}% worse > \
                     {tolerance_pct:.0}%, {:?})",
                    o.baseline,
                    -improvement_pct(o.direction, o.baseline, cur),
                    o.direction
                );
            }
            Some(cur) if !o.value_gated => {
                println!(
                    "skip {label}: schedule-sensitive, value not gated ({cur:.6} vs {:.6})",
                    o.baseline
                );
            }
            Some(cur) => {
                println!(
                    "ok {label}: {cur:.6} vs {:.6} ({:+.1}% better, {:?})",
                    o.baseline,
                    improvement_pct(o.direction, o.baseline, cur),
                    o.direction
                );
            }
        }
    }
    regressions += outcomes.iter().filter(|o| o.regressed).count();
    let compared = outcomes.len();
    println!("compared {compared} metrics, {regressions} regression(s)");

    // The per-metric delta table for the workflow summary page.
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        let table = render_step_summary(&outcomes, tolerance_pct);
        match std::fs::OpenOptions::new().create(true).append(true).open(&summary_path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(table.as_bytes()) {
                    eprintln!("could not append step summary to {summary_path}: {e}");
                }
            }
            Err(e) => eprintln!("could not open step summary {summary_path}: {e}"),
        }
    }

    if compared == 0 {
        eprintln!("no comparable metrics found — treat as failure");
        exit(2);
    }
    if regressions > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmark": "work_stealing_ab",
  "workloads": [
    {"workload": "skewed", "steal_s": 5.301234567, "no_steal_s": 10.500000000, "improvement_pct": 49.51, "blocks_stolen": 18, "rows_identical": true},
    {"workload": "unskewed", "steal_s": 2.100000000, "no_steal_s": 2.110000000, "improvement_pct": 0.47, "blocks_stolen": 0, "rows_identical": true},
    {"workload": "scan_sweep", "throughput_gbps": 41.500000000, "cores": 16}
  ]
}"#;

    #[test]
    fn parses_directed_metrics_only() {
        let metrics = parse_metrics(SAMPLE);
        assert_eq!(metrics.len(), 5);
        assert!(metrics.contains(&(
            "skewed".into(),
            "steal_s".into(),
            5.301234567,
            Direction::LowerIsBetter
        )));
        assert!(metrics.contains(&(
            "unskewed".into(),
            "no_steal_s".into(),
            2.11,
            Direction::LowerIsBetter
        )));
        // Throughputs are gated in the opposite direction.
        assert!(metrics.contains(&(
            "scan_sweep".into(),
            "throughput_gbps".into(),
            41.5,
            Direction::HigherIsBetter
        )));
        // Undirected fields (counts, percentages, booleans) are not gated.
        assert!(!metrics.iter().any(|(_, f, _, _)| f == "improvement_pct" || f == "blocks_stolen"));
    }

    #[test]
    fn direction_metadata_comes_from_the_field_suffix() {
        assert_eq!(direction_of("pipelined_s"), Some(Direction::LowerIsBetter));
        assert_eq!(direction_of("governed_s"), Some(Direction::LowerIsBetter));
        assert_eq!(direction_of("throughput_gbps"), Some(Direction::HigherIsBetter));
        assert_eq!(direction_of("improvement_pct"), None);
        assert_eq!(direction_of("blocks_stolen"), None);
        assert_eq!(direction_of("rows_identical"), None);
    }

    #[test]
    fn improvements_are_not_flagged_in_either_direction() {
        let factor = 1.10;
        // A faster time is an improvement, not a regression…
        assert!(!regressed(Direction::LowerIsBetter, 10.0, 8.0, factor));
        // …and so is a higher throughput, even though the raw value *rose*
        // (the bug the direction metadata exists to fix).
        assert!(!regressed(Direction::HigherIsBetter, 40.0, 48.0, factor));
        // Genuine regressions are flagged in both directions.
        assert!(regressed(Direction::LowerIsBetter, 10.0, 11.5, factor));
        assert!(regressed(Direction::HigherIsBetter, 40.0, 34.0, factor));
        // Within-tolerance drift passes either way — and the higher-is-better
        // bar is the full symmetric 10% drop (a 9.5% drop passes), not the
        // tighter 1/1.1 ≈ 9.09% an inverted-factor check would enforce.
        assert!(!regressed(Direction::LowerIsBetter, 10.0, 10.5, factor));
        assert!(!regressed(Direction::HigherIsBetter, 40.0, 38.0, factor));
        assert!(!regressed(Direction::HigherIsBetter, 40.0, 36.2, factor));
        assert!(regressed(Direction::HigherIsBetter, 40.0, 35.9, factor));
        // Degenerate equal/zero baselines never divide or flag.
        assert!(!regressed(Direction::HigherIsBetter, 0.0, 0.0, factor));
        assert!(!regressed(Direction::LowerIsBetter, 0.0, 0.0, factor));
    }

    #[test]
    fn improvement_pct_is_oriented_positive_is_better() {
        assert!((improvement_pct(Direction::LowerIsBetter, 10.0, 8.0) - 20.0).abs() < 1e-9);
        assert!((improvement_pct(Direction::LowerIsBetter, 10.0, 12.0) + 20.0).abs() < 1e-9);
        assert!((improvement_pct(Direction::HigherIsBetter, 40.0, 48.0) - 20.0).abs() < 1e-9);
        assert!((improvement_pct(Direction::HigherIsBetter, 40.0, 32.0) + 20.0).abs() < 1e-9);
        assert_eq!(improvement_pct(Direction::HigherIsBetter, 0.0, 5.0), 0.0);
    }

    #[test]
    fn missing_metrics_regress_even_in_ungated_workloads() {
        let baseline = parse_metrics(SAMPLE);
        // The fresh run renamed `steal_s` away in the *skewed* workload and
        // dropped the throughput row entirely.
        let current = parse_metrics(
            r#"{"workloads": [
    {"workload": "skewed", "steal_sec": 5.3, "no_steal_s": 10.5},
    {"workload": "unskewed", "steal_s": 2.1, "no_steal_s": 2.11}
]}"#,
        );
        let outcomes = compare_metrics("BENCH_steal.json", &baseline, &current, 1.10, false);
        assert_eq!(outcomes.len(), baseline.len());
        // The skewed `steal_s` disappeared: a regression despite the
        // workload's values being schedule-sensitive (presence is always
        // gated — a renamed metric must never silently pass).
        let renamed =
            outcomes.iter().find(|o| o.workload == "skewed" && o.field == "steal_s").unwrap();
        assert_eq!(renamed.current, None);
        assert!(renamed.regressed && !renamed.value_gated);
        let dropped = outcomes.iter().find(|o| o.field == "throughput_gbps").unwrap();
        assert!(dropped.regressed && dropped.current.is_none());
        // Present, in-tolerance metrics pass; the skewed workload's present
        // metric is reported but not value-gated.
        let ok = outcomes.iter().find(|o| o.workload == "unskewed" && o.field == "steal_s");
        assert!(!ok.unwrap().regressed);
        let reported =
            outcomes.iter().find(|o| o.workload == "skewed" && o.field == "no_steal_s").unwrap();
        assert!(!reported.regressed && !reported.value_gated);
    }

    #[test]
    fn schedule_sensitive_values_are_reported_but_not_value_gated() {
        let baseline = parse_metrics(SAMPLE);
        // A 3x slowdown of the skewed workload does not regress (values not
        // gated), but the same slowdown of the unskewed workload does.
        let current = parse_metrics(
            r#"{"workloads": [
    {"workload": "skewed", "steal_s": 15.9, "no_steal_s": 31.5},
    {"workload": "unskewed", "steal_s": 6.3, "no_steal_s": 2.11},
    {"workload": "scan_sweep", "throughput_gbps": 41.5}
]}"#,
        );
        let outcomes = compare_metrics("BENCH_steal.json", &baseline, &current, 1.10, false);
        assert!(outcomes
            .iter()
            .filter(|o| o.workload == "skewed")
            .all(|o| !o.regressed && !o.value_gated));
        let slow = outcomes.iter().find(|o| o.workload == "unskewed" && o.field == "steal_s");
        assert!(slow.unwrap().regressed);
        assert!(schedule_sensitive("join_reduce_200k_skewed_gpu_8x"));
        assert!(!schedule_sensitive("join_reduce_200k_unskewed"));
    }

    #[test]
    fn new_baseline_set_parses_the_env_shape() {
        assert!(new_baseline_set(None).is_empty());
        assert!(new_baseline_set(Some("")).is_empty());
        let set = new_baseline_set(Some("BENCH_kernel.json, BENCH_other.json ,,"));
        assert_eq!(set.len(), 2);
        assert!(set.contains("BENCH_kernel.json"));
        assert!(set.contains("BENCH_other.json"));
    }

    #[test]
    fn a_declared_new_baseline_accepts_a_missing_current_file() {
        // The new-file path: a freshly committed BENCH_kernel.json with no
        // fresh run at all (every metric missing) must not regress when the
        // file is declared via HETEX_NEW_BASELINES…
        let baseline = parse_metrics(
            r#"{"workloads": [
    {"workload": "filter_heavy_400k_low_sel", "vectorized_s": 1.68, "tuple_at_a_time_s": 3.36},
    {"workload": "group_by_200k_64_groups", "vectorized_s": 26.59, "tuple_at_a_time_s": 26.59}
]}"#,
        );
        let accepted = compare_metrics("BENCH_kernel.json", &baseline, &[], 1.10, true);
        assert_eq!(accepted.len(), baseline.len());
        assert!(accepted.iter().all(|o| !o.regressed && o.current.is_none() && o.new_baseline));
        let summary = render_step_summary(&accepted, 10.0);
        assert!(summary.contains("🆕 new baseline"), "{summary}");
        assert!(summary.contains("no regressions"), "{summary}");

        // …while the same hole without the declaration still fails loudly.
        let gated = compare_metrics("BENCH_kernel.json", &baseline, &[], 1.10, false);
        assert!(gated.iter().all(|o| o.regressed));
    }

    #[test]
    fn a_new_baseline_that_did_run_is_still_value_gated() {
        // The escape hatch only covers *holes*: metrics the fresh run did
        // emit are compared normally, so a declared new baseline cannot
        // smuggle a real regression past the gate.
        let baseline = parse_metrics(r#"{"workloads": [{"workload": "w", "vectorized_s": 1.0}]}"#);
        let current = parse_metrics(r#"{"workloads": [{"workload": "w", "vectorized_s": 2.0}]}"#);
        let outcomes = compare_metrics("BENCH_kernel.json", &baseline, &current, 1.10, true);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].regressed, "a 2x slowdown must regress even for a new baseline");
        // An in-tolerance run of a new baseline passes as usual.
        let ok =
            compare_metrics("BENCH_kernel.json", &baseline, &baseline_to_current(), 1.10, true);
        assert!(!ok[0].regressed);
    }

    /// An identical fresh run for the one-metric baseline above.
    fn baseline_to_current() -> Vec<Metric> {
        parse_metrics(r#"{"workloads": [{"workload": "w", "vectorized_s": 1.0}]}"#)
    }

    #[test]
    fn step_summary_renders_a_delta_table() {
        let baseline = parse_metrics(SAMPLE);
        let current = parse_metrics(
            r#"{"workloads": [
    {"workload": "skewed", "steal_s": 5.3, "no_steal_s": 10.5},
    {"workload": "unskewed", "steal_s": 1.9, "no_steal_s": 2.8}
]}"#,
        );
        let outcomes = compare_metrics("BENCH_steal.json", &baseline, &current, 1.10, false);
        let summary = render_step_summary(&outcomes, 10.0);
        // Header + one row per baseline metric, with markdown table syntax.
        assert!(summary.starts_with("## Bench regression gate"));
        assert!(summary.contains("| file | workload | metric |"));
        assert_eq!(summary.matches("| BENCH_steal.json |").count(), baseline.len());
        // An improvement renders a positive oriented delta, a regression and
        // a missing metric are called out, and schedule-sensitive rows are
        // marked reported-only.
        assert!(summary.contains("+9.5%"), "{summary}");
        assert!(summary.contains("❌ regressed"), "{summary}");
        assert!(summary.contains("❌ missing"), "{summary}");
        assert!(summary.contains("⏭️ reported only"), "{summary}");
        assert!(summary.contains("2 regression(s)"), "{summary}");
    }

    #[test]
    fn field_str_extracts_workload_labels() {
        assert_eq!(
            field_str(r#"{"workload": "Q4.1", "pipelined_s": 5.65}"#, "workload").as_deref(),
            Some("Q4.1")
        );
        assert_eq!(field_str(r#"{"metric": "simulated_seconds"}"#, "workload"), None);
    }
}
