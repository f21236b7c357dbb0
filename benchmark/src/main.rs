//! The repo's benchmark: seven workloads, end-to-end metrics with
//! regression bounds, and per-layer spans timed from outside.
//!
//! ```text
//! bdbench-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
//! bdbench-benchmark [--seed N] [--seconds S] [--trace]                    every workload, a subprocess each
//! bdbench-benchmark --aa [--seed N] [--seconds S]                         the untraced set twice, compared
//! bdbench-benchmark --smoke                                               every workload at 1/20 size
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`; see `README.md`.

mod catalog;
mod harness;
mod span;
mod stats;
mod timed;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use harness::{
    parse_result_line, run_traced, run_untraced, Ctx, Outcome, ParsedResult, FAITHFULNESS, OUTSIDE,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where span files and scratch directories go, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|info| info.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|info| info.name).collect();
            return Err(format!(
                "unknown workload {w} (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# seed={} seconds={} trace={} smoke={} nproc={nproc} rustc=\"{}\" git={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        u8::from(args.smoke),
        command_output("rustc", &["-V"]),
        command_output("git", &["rev-parse", "HEAD"]),
    );
}

/// A scratch directory of this process's own under `benchmark/out/tmp`,
/// removed again when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = Path::new(OUT_DIR)
            .join("tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload in this process.
fn run_one(name: &str, args: &Args) -> Result<Outcome, String> {
    if !Path::new("goldens").is_dir() || !Path::new("benchmark").is_dir() {
        return Err(
            "run from the repo root (benchmark/run.sh does): goldens/ and benchmark/ must be here"
                .into(),
        );
    }
    let scratch = Scratch::new()?;
    let ctx = Ctx {
        seed: args.seed,
        div: if args.smoke { 20 } else { 1 },
        seconds: if args.smoke { 0.5 } else { args.seconds },
        scratch: scratch.0.clone(),
    };
    let mut workload = workloads::build(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let outcome = if args.trace {
        run_traced(workload.as_mut(), name, &ctx, Path::new(OUT_DIR))?
    } else {
        run_untraced(workload.as_mut(), &ctx)?
    };
    if !outcome.all_finite() {
        return Err(format!(
            "{name} measured a value that is not a finite, non-negative number:\n{}",
            outcome.render(name)
        ));
    }
    Ok(outcome)
}

/// `--smoke`: every workload, both modes, at 1/20 size; every named
/// metric must be present, finite and non-negative.
fn smoke(args: &Args) -> Result<(), String> {
    for info in &WORKLOADS {
        for trace in [false, true] {
            let outcome = run_one(
                info.name,
                &Args {
                    trace,
                    smoke: true,
                    ..args.clone()
                },
            )?;
            let want: Vec<&str> = if trace {
                catalog::owned_by(info.name).map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let got: Vec<&str> = outcome.measured.iter().map(|(name, ..)| *name).collect();
            if got != want {
                return Err(format!(
                    "{}: measured {got:?}, catalogue says {want:?}",
                    info.name
                ));
            }
            if outcome.failed > 0 {
                return Err(format!(
                    "{}: {} of {} outputs wrong",
                    info.name, outcome.failed, outcome.attempted
                ));
            }
            println!(
                "smoke {:<16} trace={} ok ({} metrics)",
                info.name,
                u8::from(trace),
                got.len()
            );
        }
    }
    Ok(())
}

/// Run `name` in a subprocess of this same executable and read its
/// result line back. The child's report is passed through; its
/// faithfulness lines marked [`OUTSIDE`] are also added to `outside`.
fn run_child(name: &str, args: &Args, outside: &mut Vec<String>) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    // The header is the parent's; the result line is summarised below.
    for line in report.lines().filter(|l| !l.starts_with("# seed=")) {
        println!("{line}");
        if line.starts_with(FAITHFULNESS) && line.ends_with(OUTSIDE) {
            outside.push(format!("{name}: {line}"));
        }
    }
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    parse_result_line(last).ok_or_else(|| format!("{name} printed no result line"))
}

/// Every workload, each in its own subprocess.
fn run_all(args: &Args) -> Result<(), String> {
    let mut wrong = Vec::new();
    let mut outside = Vec::new();
    for info in &WORKLOADS {
        println!("# {}: {}", info.name, info.why);
        let result = run_child(info.name, args, &mut outside)?;
        if !result.correct {
            wrong.push(info.name);
        }
    }
    let expected = if args.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    println!(
        "# {} workloads, {expected} metric names each",
        WORKLOADS.len()
    );
    if !wrong.is_empty() {
        return Err(format!("outputs were wrong on: {}", wrong.join(", ")));
    }
    if !outside.is_empty() {
        return Err(format!(
            "a replay does not cost what it replays:\n{}",
            outside.join("\n")
        ));
    }
    Ok(())
}

/// `--aa`: the untraced set twice, alternating workloads between the two
/// sets (A then B for one workload, B then A for the next), and a table
/// of every (metric, workload) gap against its bound.
fn aa(args: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    for (i, info) in WORKLOADS.iter().enumerate() {
        // Untraced runs print no faithfulness lines.
        let first = run_child(info.name, args, &mut Vec::new())?;
        let second = run_child(info.name, args, &mut Vec::new())?;
        let (a, b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        if !(a.correct && b.correct) {
            return Err(format!("{}: outputs were wrong", info.name));
        }
        for m in &END_TO_END {
            let (va, vb) = (a.values[m.name], b.values[m.name]);
            rows.push((m, info.name, va, vb));
        }
    }
    println!(
        "{:<12} {:<7} {:<16} {:>14} {:>14} {:>9} {:>6}  ok",
        "metric", "better", "workload", "set A", "set B", "gap", "bound"
    );
    let mut outside = 0;
    for (m, workload, va, vb) in rows {
        let gap = (va - vb).abs() / va.min(vb);
        let ok = gap <= m.bound;
        outside += u32::from(!ok);
        println!(
            "{:<12} {:<7} {workload:<16} {va:>14.4} {vb:>14.4} {:>8.2}% {:>5.0}%  {}",
            m.name,
            m.better.word(),
            gap * 100.0,
            m.bound * 100.0,
            if ok { "yes" } else { "NO" }
        );
    }
    if outside == 0 {
        Ok(())
    } else {
        Err(format!("{outside} (metric, workload) pairs differ between two runs of the same code by more than their bound"))
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark measures optimized builds only (use benchmark/run.sh)");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    let done = match (&args.workload, args.smoke, args.aa) {
        (_, true, _) => smoke(&args),
        (_, _, true) => aa(&args),
        (Some(name), ..) => run_one(name, &args).map(|outcome| {
            print!("{}", outcome.render(name));
            println!("{}", outcome.result_line());
        }),
        (None, ..) => run_all(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_spellings_of_trace_both_parse() {
        let a = args(&[
            "--workload",
            "run_sql",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("run_sql"), 7, 10.0, false)
        );
        assert!(
            args(&["--trace", "1", "--workload", "kv_ycsb"])
                .unwrap()
                .trace
        );
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "3"]).unwrap().trace);
        assert_eq!(args(&[]).unwrap().seed, 42);
    }

    /// `--smoke`, in this (debug) test build: the workloads themselves are
    /// not behind the release-only gate in `main`. Workloads read
    /// `goldens/` relative to the repo root, so the test moves there; no
    /// other test depends on the working directory.
    #[test]
    fn smoke_measures_every_named_metric() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        smoke(&args(&["--smoke"]).unwrap()).unwrap();
    }

    #[test]
    fn bad_arguments_are_named() {
        assert!(args(&["--workload", "nope"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seconds", "0"]).unwrap_err().contains("(0, 600]"));
        assert!(args(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }
}
