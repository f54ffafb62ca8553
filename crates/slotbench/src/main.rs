//! `slotbench` — WA-RAN's slot-budget benchmark.
//!
//! ```text
//! slotbench run <workload>|all [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--trace-out FILE] [--smoke]
//! slotbench compare A.json B.json
//! slotbench agree [--seed N] [--seconds S]
//! ```
//!
//! `run` prints every metric by name with unit, sample count, median and
//! quartiles, then — as the last line of standard output — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. If any oracle
//! fails, or any check cannot be computed, it prints the failures to
//! standard error, prints **no** metrics, and exits non-zero.
//!
//! See `README.md` for the workloads, the metric glossary and the
//! measurement policy.

mod compare;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{MetricDef, WorkloadResult, END_TO_END, LOAD_PATH, PER_LAYER};
use workloads::{Inject, RunConfig};

/// Default `--seed`: fixed, so an argument-less run is reproducible.
const DEFAULT_SEED: u64 = 7;
/// Default `--seconds` (matches `run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  slotbench run <workload>|all [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE] [--smoke]
  slotbench compare A.json B.json
  slotbench agree [--seed N] [--seconds S]
workloads: mvno_cell fleet_massive fleet_ric_mobility plugin_churn";

/// Which metric tables a `run` measures and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`: untraced repetitions only; end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: a few untraced repetitions (the tracing-overhead
    /// base), the traced repetition and the probes; per-layer metrics.
    PerLayer,
    /// No `--trace`: both, every metric.
    Full,
}

#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    inject: Option<Inject>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Full,
        out: None,
        trace_out: None,
        smoke: false,
        inject: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                parsed.mode = match value()?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--trace-out" => parsed.trace_out = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            // Self-test only: plant a defect the oracles must catch.
            "--inject" => {
                parsed.inject = Some(match value()?.as_str() {
                    "digest" => Inject::Digest,
                    "hostile" => Inject::Hostile,
                    other => return Err(format!("unknown --inject `{other}`")),
                })
            }
            name if !name.starts_with('-') && parsed.workload.is_empty() => {
                parsed.workload = name.to_string()
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("no workload named".into());
    }
    Ok(parsed)
}

fn write_artifact(path: &Path, results: &[WorkloadResult]) -> Result<(), u8> {
    std::fs::write(path, compare::encode_results(results)).map_err(|e| {
        eprintln!("{}: {e}", path.display());
        1
    })
}

/// Run one workload in this process. `Err` carries the exit code.
fn run_one(args: &RunArgs) -> Result<(), u8> {
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
        return Err(2);
    };
    let reps = (args.seconds / workloads::REP_SECONDS).round() as usize;
    let cfg = RunConfig {
        seed: args.seed,
        reps: match args.mode {
            // Enough for a tracing-overhead base, no more.
            Mode::PerLayer => (reps / 4).max(3),
            _ => reps.max(3),
        },
        traced: args.mode != Mode::EndToEnd,
        smoke: args.smoke,
        inject: args.inject,
        trace_out: args.trace_out.clone(),
    };
    let tables: &[&[MetricDef]] = match args.mode {
        Mode::EndToEnd => &[END_TO_END],
        Mode::PerLayer => &[LOAD_PATH, PER_LAYER],
        Mode::Full => &[END_TO_END, LOAD_PATH, PER_LAYER],
    };
    let result = workloads::run(workload, &cfg).map_err(|failure| {
        eprintln!(
            "{}: {} failed op(s); no metrics reported",
            args.workload, failure.failed_ops
        );
        for f in &failure.failures {
            eprintln!("  FAILED {f}");
        }
        1
    })?;
    let line = result.driver_line(tables).map_err(|e| {
        eprintln!("{}: {e}; no metrics reported", args.workload);
        1
    })?;
    if let Some(path) = &args.out {
        write_artifact(path, std::slice::from_ref(&result))?;
    }
    print!("{}", result.render());
    println!("{line}");
    Ok(())
}

/// Run every workload, each in its own process (so `peak_rss_mb` and the
/// process-wide caches are per workload), and merge their artifacts.
fn run_all(args: &RunArgs, raw: &[String]) -> Result<Vec<WorkloadResult>, u8> {
    let exe = std::env::current_exe().map_err(|e| {
        eprintln!("cannot find own executable: {e}");
        1
    })?;
    // Forward every flag but the workload, `--out` and `--trace-out`.
    let mut forwarded = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "all" => {}
            "--out" | "--workload" | "--trace-out" => {
                it.next();
            }
            _ => forwarded.push(a.clone()),
        }
    }
    // Children hand their artifacts back through short-lived files next
    // to `--out` (or in the working directory).
    let parts_dir = args
        .out
        .as_deref()
        .and_then(Path::parent)
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let mut results = Vec::new();
    let mut failed = false;
    for name in workloads::NAMES {
        let part = parts_dir.join(format!(
            ".slotbench-{}-{name}.part.json",
            std::process::id()
        ));
        let mut child = Command::new(&exe);
        child.args(["run", name]).args(&forwarded);
        child.arg("--out").arg(&part);
        if let Some(spans) = &args.trace_out {
            // One span file per workload: `spans.csv` -> `spans.<name>.csv`.
            let ext = spans.extension().and_then(|e| e.to_str()).unwrap_or("csv");
            child
                .arg("--trace-out")
                .arg(spans.with_extension(format!("{name}.{ext}")));
        }
        let status = child.status();
        let parsed = match status {
            Ok(s) if s.success() => load(&part),
            Ok(s) => Err(format!("{name}: {s}")),
            Err(e) => Err(format!("{name}: {e}")),
        };
        let _ = std::fs::remove_file(&part);
        match parsed {
            Ok(mut r) => results.append(&mut r),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        return Err(1);
    }
    if let Some(path) = &args.out {
        write_artifact(path, &results)?;
    }
    Ok(results)
}

fn load(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::decode_results(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_cmd(rest: &[String]) -> Result<(), u8> {
    let parsed = parse_run(rest).map_err(|e| {
        eprintln!("{e}\n{USAGE}");
        2
    })?;
    if parsed.workload == "all" {
        run_all(&parsed, rest).map(|_| ())
    } else {
        run_one(&parsed)
    }
}

fn compare_cmd(a: &str, b: &str) -> Result<(), u8> {
    let read = |p: &str| {
        load(Path::new(p)).map_err(|e| {
            eprintln!("{e}");
            1
        })
    };
    let lines = compare::compare(&read(a)?, &read(b)?);
    print!("{}", compare::render(&lines));
    match compare::exit_code(&lines) {
        0 => Ok(()),
        code => Err(code),
    }
}

/// The noise self-check: two full sets back to back must agree within
/// the benchmark's own bounds, both ways round.
fn agree_cmd(rest: &[String]) -> Result<(), u8> {
    let mut raw = vec!["all".to_string()];
    raw.extend(rest.iter().cloned());
    let parsed = parse_run(&raw).map_err(|e| {
        eprintln!("{e}\n{USAGE}");
        2
    })?;
    let first = run_all(&parsed, &raw)?;
    let second = run_all(&parsed, &raw)?;
    let mut worst = 0;
    for (title, base, new) in [
        ("first set as baseline", &first, &second),
        ("second set as baseline", &second, &first),
    ] {
        let lines = compare::compare(base, new);
        println!("== {title} ==");
        print!("{}", compare::render(&lines));
        worst = worst.max(compare::exit_code(&lines));
    }
    match worst {
        0 => Ok(()),
        code => Err(code),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_cmd(rest),
        Some((cmd, [a, b])) if cmd == "compare" => compare_cmd(a, b),
        Some((cmd, rest)) if cmd == "agree" => agree_cmd(rest),
        _ => {
            eprintln!("{USAGE}");
            Err(2)
        }
    };
    ExitCode::from(outcome.err().unwrap_or(0))
}
