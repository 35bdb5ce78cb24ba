//! The result line of one run, and the subcommands that drive runs as
//! child processes: `run` (every workload once), `calibrate` (every
//! workload N times, spread against the bounds) and `compare` (two
//! result files, one verdict per metric and workload).

use crate::catalogue::{self, Better, END_TO_END, PER_LAYER};
use crate::harness::{self, Outcome};
use crate::stats::Summary;
use crate::sut;
use crate::Options;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn end_to_end_value(outcome: &Outcome, name: &str) -> f64 {
    match name {
        catalogue::RESULT_LATENCY => outcome.result_latency_ms_p50,
        catalogue::WORK_PER_S => outcome.work_per_s,
        catalogue::PEAK_RSS => harness::peak_rss_mib(),
        catalogue::SETUP_S => outcome.setup_s,
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

/// The JSON object a run prints last: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one. A layer the
/// workload never entered reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = outcome.layers().get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = end_to_end_value(outcome, m.name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// One run as the driving subcommands keep it.
#[derive(Debug, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Record {
    fn from_json(v: &Value) -> Option<Record> {
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.clone(),
                    (
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ),
                ))
            })
            .collect();
        Some(Record {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            traced: v.get("trace")?.as_bool()?,
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics,
        })
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (v, unit))| {
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|(v, _)| *v)
    }
}

/// Run one workload in a child process and parse its result line.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let mut v: Value = serde_json::from_str(line).map_err(|e| format!("{workload}: {e}"))?;
    if let Value::Object(map) = &mut v {
        map.insert("workload".into(), Value::String(workload.into()));
        map.insert("seed".into(), serde_json::to_value(&seed));
        map.insert("trace".into(), Value::Bool(traced));
    }
    Record::from_json(&v).ok_or_else(|| format!("{workload}: malformed result line"))
}

fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"nproc\": {nproc}, \"simd_path\": \"{}\", \"rustc\": \"{rustc}\"}}",
        sut::simd_path_name()
    )
}

fn write_results(path: &Path, seconds: f64, records: &[Record]) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"machine\": {},", machine_json());
    let _ = writeln!(out, " \"seconds\": {seconds},");
    let _ = writeln!(out, " \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "  {}{comma}", r.to_json());
    }
    let _ = writeln!(out, " ]}}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_results(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = v
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(|r| Record::from_json(r).ok_or_else(|| format!("{path}: malformed run")))
        .collect()
}

fn failed_pct(records: &[&Record]) -> f64 {
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        0.0
    } else {
        100.0 * failed as f64 / attempted as f64
    }
}

fn seconds_option(opts: &Options, smoke: bool) -> Result<f64, String> {
    let default = catalogue::RUN_SECONDS as f64;
    Ok(opts
        .parsed("--seconds")?
        // a smoke run does 1/20 of the work, checks on
        .unwrap_or(if smoke { default / 20.0 } else { default }))
}

/// `run`: every workload once in its own process, every metric printed
/// by name with its unit.
pub fn run(opts: &Options) -> Result<ExitCode, String> {
    let seed: u64 = opts.parsed("--seed")?.unwrap_or(1);
    let smoke = opts.flag("--smoke");
    let traced = opts.flag("--trace");
    let seconds = seconds_option(opts, smoke)?;
    println!("machine {}", machine_json());
    println!(
        "seed {seed}, {seconds} s per workload{}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut records = Vec::new();
    for workload in catalogue::workload_names() {
        let plain = spawn_run(workload, seed, seconds, false, smoke)?;
        println!(
            "\n{workload}: {} ops, {} failed ({:.3} %), {}",
            plain.attempted,
            plain.failed,
            failed_pct(&[&plain]),
            if plain.correct {
                "all checks passed"
            } else {
                "CHECKS FAILED"
            }
        );
        for m in END_TO_END {
            if let Some(v) = plain.value(m.name) {
                println!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
            }
        }
        if traced {
            let layers = spawn_run(workload, seed, seconds, true, smoke)?;
            for m in PER_LAYER {
                // layers the workload never entered stay out of its table
                match layers.value(m.name) {
                    Some(v) if v != 0.0 => println!("    {:<44} {:>14.4} {}", m.name, v, m.unit),
                    _ => {}
                }
            }
            // traced against untraced median of the workload's primary metric
            let overhead = match (
                plain.value(catalogue::RESULT_LATENCY),
                layers.value("trace.result_latency_ms_p50"),
            ) {
                (Some(p), Some(t)) if p != 0.0 => 100.0 * (t - p) / p,
                _ => 0.0,
            };
            println!("    {:<44} {overhead:>14.4} %", "trace.overhead_pct");
            if !layers.correct {
                println!("    traced run: CHECKS FAILED");
            }
            records.push(layers);
        }
        records.push(plain);
    }
    let all_correct = records.iter().all(|r| r.correct);
    if !smoke {
        let path = harness::work_root().join(format!("results-seed{seed}.json"));
        write_results(&path, seconds, &records)?;
        println!("\nwrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `calibrate`: every workload `--runs` times on this build, each run
/// with another seed; fails when a gated metric spreads past its bound.
pub fn calibrate(opts: &Options) -> Result<ExitCode, String> {
    let runs: u64 = opts.parsed("--runs")?.unwrap_or(5);
    let seed: u64 = opts.parsed("--seed")?.unwrap_or(1);
    let seconds = seconds_option(opts, false)?;
    let only = opts.value("--workload");
    let mut records = Vec::new();
    for r in 0..runs {
        for workload in catalogue::workload_names().filter(|w| only.is_none_or(|o| o == *w)) {
            let rec = spawn_run(workload, seed + r, seconds, false, false)?;
            eprintln!(
                "run {}/{runs} {workload}: {}",
                r + 1,
                if rec.correct { "ok" } else { "CHECKS FAILED" }
            );
            records.push(rec);
        }
    }
    let path: PathBuf =
        harness::work_root().join(format!("calibration-seed{seed}-runs{runs}.json"));
    write_results(&path, seconds, &records)?;

    println!(
        "| metric | workload | n | median | q1 | q3 | IQR/median | (max-min)/median | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut steady = true;
    for m in END_TO_END {
        for workload in catalogue::workload_names() {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.value(m.name))
                .collect();
            let Some(s) = Summary::of(&values) else {
                continue;
            };
            // setup_s is compared by its medians only
            let over = m.name != catalogue::SETUP_S && s.iqr_spread() > m.bound;
            steady &= !over;
            println!(
                "| {} | {workload} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
                m.name,
                s.n,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.iqr_spread(),
                100.0 * s.range_spread(),
                100.0 * m.bound,
                if over { "SPREAD OVER BOUND" } else { "ok" }
            );
        }
    }
    let all: Vec<&Record> = records.iter().collect();
    let failed = failed_pct(&all);
    let correct = records.iter().all(|r| r.correct);
    println!(
        "\nfailed ops {failed:.3} %, checks {}",
        if correct { "passed" } else { "FAILED" }
    );
    println!("wrote {}", path.display());
    Ok(if steady && correct && failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare the runs of `b` with those of the base `a` for one metric.
/// A median that moved by more than `bound` is better or worse; when
/// either side's own runs spread wider than `bound` and the two sides
/// interleave, the data cannot say.
fn verdict(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<(Summary, Summary, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let gain = match better {
        Better::Lower => (sa.median - sb.median) / sa.median.abs(),
        Better::Higher => (sb.median - sa.median) / sa.median.abs(),
    };
    let interleaved = !(sb.max < sa.min || sb.min > sa.max);
    let noisy = sa.iqr_spread() > bound || sb.iqr_spread() > bound;
    let v = if noisy && interleaved {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Some((sa, sb, v))
}

/// The untraced runs of one workload: the ones end-to-end metrics come from.
fn untraced<'a>(records: &'a [Record], workload: &str) -> Vec<&'a Record> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .collect()
}

/// `compare A.json B.json`: one row per end-to-end metric and workload.
pub fn compare(opts: &Options) -> Result<ExitCode, String> {
    let files = opts.positional();
    let [a_path, b_path] = files[..] else {
        return Err("compare takes two result files: compare A.json B.json".into());
    };
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    println!("base A = {a_path}, B = {b_path}");
    println!("| metric | workload | median A | median B | B / A | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut regressed = false;
    for workload in catalogue::workload_names() {
        let (ra, rb) = (untraced(&a, workload), untraced(&b, workload));
        for m in END_TO_END {
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.value(m.name)).collect()
            };
            let Some((sa, sb, v)) = verdict(&values(&ra), &values(&rb), m.better, m.bound) else {
                continue;
            };
            regressed |= v == Verdict::Worse;
            println!(
                "| {} | {workload} | {:.4} {} | {:.4} {} | {:.3} of A | {:.0} % | {} |",
                m.name,
                sa.median,
                m.unit,
                sb.median,
                m.unit,
                sb.median / sa.median,
                100.0 * m.bound,
                v.as_str()
            );
        }
        let (fa, fb) = (failed_pct(&ra), failed_pct(&rb));
        let more_failures = fb > fa;
        regressed |= more_failures;
        println!(
            "| failed_ops_pct | {workload} | {fa:.3} % | {fb:.3} % | | any increase | {} |",
            if more_failures { "worse" } else { "within" }
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        let v = |a: &[f64], b: &[f64], better| verdict(a, b, better, 0.10).unwrap().2;
        // single runs: spread is zero, only the bound decides
        assert_eq!(v(&[100.0], &[105.0], Better::Lower), Verdict::Within);
        assert_eq!(v(&[100.0], &[115.0], Better::Lower), Verdict::Worse);
        assert_eq!(v(&[100.0], &[85.0], Better::Lower), Verdict::Better);
        assert_eq!(v(&[100.0], &[85.0], Better::Higher), Verdict::Worse);
        assert_eq!(v(&[100.0], &[115.0], Better::Higher), Verdict::Better);
        // wide spread and interleaved runs: cannot say
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [95.0, 130.0, 85.0, 125.0, 115.0];
        assert_eq!(v(&noisy_a, &noisy_b, Better::Lower), Verdict::Unresolved);
        // wide spread but every run of B beyond every run of A: resolved
        let far_b = [150.0, 170.0, 190.0, 160.0, 180.0];
        assert_eq!(v(&noisy_a, &far_b, Better::Lower), Verdict::Worse);
        assert!(verdict(&[], &[1.0], Better::Lower, 0.1).is_none());
    }

    #[test]
    fn records_round_trip_through_the_results_format() {
        let mut outcome = Outcome::default();
        outcome.op(Ok(()));
        outcome.setup_s = 0.25;
        outcome.result_latency_ms_p50 = 27.125;
        outcome.work_per_s = 2480.5;
        let line = result_line(&outcome, false);
        let mut v: Value = serde_json::from_str(&line).unwrap();
        let names: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        if let Value::Object(map) = &mut v {
            map.insert("workload".into(), Value::String("fbp_archive".into()));
            map.insert("seed".into(), serde_json::to_value(&7u64));
            map.insert("trace".into(), Value::Bool(false));
        }
        let rec = Record::from_json(&v).unwrap();
        assert!(rec.correct);
        assert_eq!(rec.value(catalogue::RESULT_LATENCY), Some(27.125));
        let again: Value = serde_json::from_str(&rec.to_json()).unwrap();
        assert_eq!(Record::from_json(&again).unwrap(), rec);
    }

    #[test]
    fn traced_result_line_lists_every_layer_and_only_layers() {
        let mut outcome = Outcome::default();
        outcome.op(Err("boom".into()));
        outcome.layer("tomo.simd_lanes", 8.0);
        let v: Value = serde_json::from_str(&result_line(&outcome, true)).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .get("tomo.simd_lanes")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(8.0)
        );
        assert_eq!(
            metrics
                .get("stream.slab.deep_copies")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
