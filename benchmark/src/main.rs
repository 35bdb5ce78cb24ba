//! The end-to-end benchmark of als-flows.
//!
//! ```text
//! als-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! als-benchmark run [--seed <n>] [--seconds <s>] [--trace] [--smoke]
//! als-benchmark calibrate [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>]
//! als-benchmark compare <A.json> <B.json>
//! als-benchmark spec [--markdown]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload
//! in this process, one JSON object as the last line of standard
//! output. The others drive it as child processes, one per run, so each
//! run's `peak_rss_mb` is its own. See `README.md`.

mod archive;
mod catalogue;
mod control;
mod harness;
mod report;
mod stats;
mod stream;
mod sut;
mod trace;

use harness::{Outcome, RunArgs};
use std::process::ExitCode;

/// Command-line options after the subcommand, as `--key value` pairs
/// and bare flags.
pub struct Options(Vec<String>);

impl Options {
    pub fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{key} {v}: not a valid value"))
            })
            .transpose()
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    pub fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        catalogue::STREAM_PACED => stream::stream_paced(args),
        catalogue::STREAM_SMALL_SCANS => stream::stream_small_scans(args),
        catalogue::FBP_ARCHIVE => archive::fbp_archive(args),
        catalogue::SIRT_ARCHIVE => archive::sirt_archive(args),
        catalogue::CONTROL_PLANE => control::control_plane(args),
        _ => return None,
    })
}

/// One workload in this process; prints the result line.
fn measure(opts: &Options) -> Result<ExitCode, String> {
    let workload = opts
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let seed: u64 = opts.parsed("--seed")?.ok_or("--seed <n> is required")?;
    let seconds: f64 = opts
        .parsed("--seconds")?
        .ok_or("--seconds <s> is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let traced = match opts.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let work_dir = harness::work_root().join(format!("run-{}", std::process::id()));
    let args = RunArgs {
        seed,
        seconds,
        trace: trace::Trace::new(traced),
        work_dir: work_dir.clone(),
        smoke: opts.flag("--smoke"),
    };
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let outcome = run_workload(workload, &args);
    std::fs::remove_dir_all(&work_dir).ok();
    let mut outcome = outcome.ok_or_else(|| {
        let names: Vec<&str> = catalogue::workload_names().collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    eprintln!(
        "{workload} seed {seed}: input digest {:016x}",
        outcome.input_digest
    );
    for why in &outcome.violations {
        eprintln!("check failed: {why}");
    }
    if traced {
        outcome.layer("trace.result_latency_ms_p50", outcome.result_latency_ms_p50);
        outcome.layer("trace.work_per_s", outcome.work_per_s);
        if outcome.work_units > 0.0 {
            outcome.layer(
                "harness.cpu_ms_per_work",
                outcome.timed_cpu_s * 1e3 / outcome.work_units,
            );
        }
        let spans = args.trace.spans();
        let path = harness::work_root().join(format!("trace-{workload}.json"));
        trace::write_json(&path, workload, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let root = if workload.starts_with("stream") {
            "scan"
        } else {
            "op"
        };
        outcome.layer(
            "trace.unattributed_pct",
            trace::unattributed_pct(&spans, root),
        );
        outcome.layer("trace.spans", spans.len() as f64);
    }
    println!("{}", report::result_line(&outcome, traced));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::from("measure"),
    };
    let opts = Options(argv);
    let done = match subcommand.as_str() {
        "measure" => measure(&opts),
        "run" => report::run(&opts),
        "calibrate" => report::calibrate(&opts),
        "compare" => report::compare(&opts),
        "spec" => {
            if opts.flag("--markdown") {
                print!("{}", catalogue::markdown_tables());
            } else {
                print!("{}", catalogue::benchmark_json());
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown subcommand {other}; one of run, calibrate, compare, spec"
        )),
    };
    done.unwrap_or_else(|why| {
        eprintln!("als-benchmark: {why}");
        ExitCode::from(2)
    })
}
