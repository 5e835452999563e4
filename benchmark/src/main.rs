//! The repo's benchmark: the advisor, the serving path and the migration
//! loop, end to end and layer by layer. `README.md` in this directory says
//! what each workload and metric is for; `BENCHMARK.json` at the root of
//! the repo is the contract the numbers are checked against.
//!
//! ```text
//! schism-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload in this process; the last line of standard
//!     output is the result object {correct, attempted, failed, metrics}
//! schism-benchmark [--seed N] [--seconds S] [--repeat N] [--smoke]
//!     every workload untraced, then traced, each run in a child process
//! ```

mod advisor;
mod json;
mod report;
mod serve;
mod stats;
mod sys;
mod timed;
mod trace;

use json::Json;
use report::{RunOpts, RunResult, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Workload names, fixed: later issues cite them.
const WORKLOADS: [&str; 5] = [
    "advisor_tpcc",
    "advisor_hyper",
    "serve_point",
    "serve_durable",
    "serve_migrate",
];
const DEFAULT_SEED: u64 = 0x5C815;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;

/// `benchmark/out`: traces, result files and the durable workload's
/// segment files. The one place the benchmark writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("--repeat {v}: must be a whole number >= 1"))?;
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(args)
}

fn provenance(workload: &str, opts: &RunOpts, smoke: bool) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Int(sys::nproc() as i64)),
        ("load_threads", Json::Int(opts.threads as i64)),
        ("git_revision", Json::Str(sys::git_revision())),
        ("rustc", Json::Str(sys::rustc_version())),
    ])
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: &str, opts: &RunOpts, smoke: bool) -> ExitCode {
    let (result, trace_file): (RunResult, Option<Json>) = match workload {
        "advisor_tpcc" | "advisor_hyper" => {
            let spec = match workload {
                "advisor_tpcc" => advisor::tpcc_spec(opts.threads, smoke),
                _ => advisor::hyper_spec(opts.threads, smoke),
            };
            if opts.trace {
                let (r, t) = advisor::run_traced(workload, &spec, opts);
                (r, Some(t))
            } else {
                (advisor::run_untraced(&spec, opts), None)
            }
        }
        _ => {
            let kind = match workload {
                "serve_point" => serve::Kind::Point,
                "serve_durable" => serve::Kind::Durable,
                _ => serve::Kind::Migrate,
            };
            let spec = serve::spec(kind, smoke);
            if opts.trace {
                let (r, t) = serve::run_traced(workload, &spec, opts);
                (r, Some(t))
            } else {
                (serve::run_untraced(&spec, opts), None)
            }
        }
    };

    for (name, value, unit) in result.metrics(opts.trace) {
        println!("{workload}  {name} = {value} {unit}");
    }
    for why in &result.failures {
        println!("{workload}  FAILED CHECK: {why}");
    }
    let line = result.result_line(opts.trace);
    let full = Json::obj([
        ("provenance", provenance(workload, opts, smoke)),
        ("info", Json::Obj(result.info.clone())),
        (
            "failures",
            Json::Arr(result.failures.iter().map(|f| Json::str(f)).collect()),
        ),
        ("result", line.clone()),
    ]);
    println!("detail {}", full.render());
    let out = out_dir();
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        let mode = if opts.trace { "traced" } else { "untraced" };
        std::fs::write(out.join(format!("{workload}.{mode}.json")), full.render())?;
        match &trace_file {
            Some(t) => std::fs::write(out.join(format!("{workload}.trace.json")), t.render()),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", line.render());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's metrics, or why there are none.
fn child_run(
    workload: &str,
    args: &Args,
    trace: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end, whatever its exit status.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = Json::parse(last).ok_or(format!("no result line; exit {}", output.status))?;
    if !output.status.success() || parsed.get("correct") != Some(&Json::Bool(true)) {
        let why: Vec<&str> = stdout
            .lines()
            .filter(|l| l.contains("FAILED CHECK"))
            .collect();
        return Err(format!("failed ({}): {}", output.status, why.join(" | ")));
    }
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        return Err("result line has no metrics".to_owned());
    };
    Ok(metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = match m.get("unit") {
                Some(Json::Str(u)) => u.clone(),
                _ => String::new(),
            };
            (name.clone(), value, unit)
        })
        .collect())
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name; read from
/// the file so that there is one copy of them.
fn bounds() -> Vec<(String, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let parsed = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t));
    let Some(Json::Arr(metrics)) = parsed.as_ref().and_then(|j| j.get("end_to_end")) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(
            |m| match (m.get("name"), m.get("bound").and_then(Json::as_f64)) {
                (Some(Json::Str(n)), Some(b)) => Some((n.clone(), b)),
                _ => None,
            },
        )
        .collect()
}

/// Every workload untraced then traced, `repeat` times over, each run a
/// child process so that peak memory and CPU time belong to one run alone.
fn run_all(args: &Args) -> ExitCode {
    let seconds = args.seconds;
    println!(
        "schism-benchmark: seed {:#x}, {seconds} s windows, nproc {}, {} load threads, \
         git {}, {}{}",
        args.seed,
        sys::nproc(),
        sys::load_threads(),
        sys::git_revision(),
        sys::rustc_version(),
        if args.smoke { ", smoke sizes" } else { "" }
    );
    let bounds = bounds();
    let mut ok = true;
    for workload in WORKLOADS {
        // runs[r] = the end-to-end metrics of repeat r.
        let mut runs: Vec<Vec<(String, f64, String)>> = Vec::new();
        for r in 0..args.repeat {
            for trace in [false, true] {
                let label = if trace { "traced" } else { "untraced" };
                match child_run(workload, args, trace) {
                    Ok(metrics) => {
                        println!("\n{workload} ({label}, repeat {})", r + 1);
                        // A per-layer metric reads 0 on a workload whose
                        // layer does not run; the table leaves those out.
                        for (name, value, unit) in &metrics {
                            if !trace || *value != 0.0 {
                                println!("  {name:<40} {value:>16.6} {unit}");
                            }
                        }
                        if !trace {
                            runs.push(metrics);
                        }
                    }
                    Err(why) => {
                        println!("\n{workload} ({label}, repeat {}): {why}", r + 1);
                        ok = false;
                    }
                }
            }
        }
        if args.repeat > 1 && runs.len() == args.repeat {
            println!(
                "\n{workload}: A/A over {} runs (min / median / max, spread vs bound)",
                runs.len()
            );
            for (i, (name, _)) in END_TO_END.iter().enumerate() {
                let values: Vec<f64> = runs.iter().map(|m| m[i].1).collect();
                let (min, max) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                        (lo.min(*v), hi.max(*v))
                    });
                let mid = stats::median(&values);
                let spread = (max - min) / mid;
                let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
                let flag = match bound {
                    Some(b) if spread > b => "  EXCEEDS BOUND",
                    _ => "",
                };
                println!(
                    "  {name:<24} {min:>14.6} {mid:>14.6} {max:>14.6}  spread {spread:.4} bound {}{flag}",
                    bound.map_or("?".to_owned(), |b| b.to_string())
                );
            }
        }
    }
    if ok {
        println!("\nall workloads passed their checks");
        ExitCode::SUCCESS
    } else {
        println!("\nat least one run failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => {
            let opts = RunOpts {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                threads: sys::load_threads(),
            };
            run_one(workload, &opts, args.smoke)
        }
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::PER_LAYER;

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        let Json::Arr(items) = list else {
            panic!("expected a list")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name or unit: {m:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract; the catalogue in `report.rs` is
    /// what the runs emit. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(
            names_and_units(doc.get("end_to_end").expect("end_to_end")),
            owned(END_TO_END)
        );
        assert_eq!(
            names_and_units(doc.get("per_layer").expect("per_layer")),
            owned(PER_LAYER)
        );
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads list")
        };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<Json> = WORKLOADS.iter().map(|w| Json::str(w)).collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
        assert_eq!(bounds().len(), END_TO_END.len(), "every metric has a bound");
    }
}
