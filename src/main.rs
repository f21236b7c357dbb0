//! The `bdbench` command-line interface.
//!
//! ```text
//! bdbench list                         # prescriptions, generators, engines, suites
//! bdbench run <prescription> [opts]    # the five-step pipeline
//!     --system <native|mapreduce|sql|kv|streaming>
//!     --scale <items>  --seed <n>  --workers <n>  --rate <items/sec>
//!     --trace <path|->                 # dump the run trace as JSON-lines
//!     --faults <spec>                  # inject faults (kind@phase:rate[:ms=N][:max=N],…)
//!     --verify[=strict|digest|update]  # differential conformance check
//!     --goldens <dir>                  # explicit golden-store directory
//! bdbench verify [--scale n] [--seed n] [--mode M] [--goldens dir]
//!                                      # sweep prescriptions × engines
//! bdbench load [opts]                  # concurrent load driver
//!     --clients <n>  --inflight <m>    # N sessions × M in-flight lanes
//!     --duration-ms <n>  --seed <n>
//!     --arrival <closed|poisson:R|uniform:R>
//!     --engine <name>                  # repeatable; default: kv,sql,native
//!     --queue-cap <n>  --sample-every <n>
//!     --faults <spec>                  # per-op chaos under load
//!     --trace <path|->                 # dump the load trace as JSON-lines
//! bdbench table1 [--seed n]            # regenerate the paper's Table 1
//! bdbench table2 [--scale n] [--seed n]# regenerate the paper's Table 2
//! bdbench suite <name> [--scale n]     # run one suite's prescriptions (strict)
//! ```
//!
//! A run executes on the system it names (`--system`, native by default);
//! when that system cannot execute the test, the first capable engine in
//! registration order runs it. A failure on that engine is the run's
//! result: nothing retries or re-routes it. An injected `error@`,
//! `panic@` or `crash@` fault fails the data set or dispatch it hits, so
//! `run` exits 1 naming the site; under `load` it fails the one op.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::exec::loadgen::{LoadArrival, LoadProfile};
use bdbench::core::matrix::{verify_matrix_routed, MatrixDurability};
use bdbench::exec::fault::FaultPlan;
use bdbench::exec::journal::RunJournal;
use bdbench::core::pipeline::Benchmark;
use bdbench::core::registry::GeneratorRegistry;
use bdbench::exec::convert::trace_to_jsonl;
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::reporter::render_load_line;
use bdbench::suites::table2::{render_workload_details, SuiteRun};
use bdbench::suites::{all_suites, run_suite, table1, table2};
use bdbench::testgen::{PrescriptionRepository, SystemKind};
use bdbench::verify::VerifyMode;

// Every line the CLI prints goes through `write_stdout`: these two
// macros shadow the standard ones for the rest of this file.
macro_rules! println {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// Write to stdout. A reader that went away (`bdbench list | head -1`)
/// ends the process quietly with exit 0, not a panic; any other write
/// error exits 1 naming it.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  bdbench list\n  bdbench run <prescription> [--system S] [--scale N] [--seed N] [--workers N] [--rate R] [--trace PATH|-] [--faults SPEC] [--verify[=MODE]] [--goldens DIR]\n  bdbench verify [--scale N] [--seed N] [--mode strict|digest|update] [--goldens DIR] [--journal DIR] [--resume DIR] [--faults SPEC]\n  bdbench load [--clients N] [--inflight M] [--duration-ms D] [--arrival closed|poisson:R|uniform:R] [--engine NAME]... [--seed N] [--queue-cap N] [--sample-every N] [--faults SPEC] [--trace PATH|-]\n  bdbench table1 [--seed N]\n  bdbench table2 [--scale N] [--seed N]\n  bdbench suite <name> [--scale N] [--seed N]"
    );
    std::process::exit(2)
}

/// Pull `--key value` / `--key=value` options out of the argument list,
/// rejecting any key that is not in `allowed` so a typo fails loudly
/// instead of being silently ignored. Keys in `flags` may also appear
/// bare (`--verify`), parsing as an empty value.
fn parse_opts<'a>(
    args: &'a [String],
    allowed: &[&str],
    flags: &[&str],
) -> (Vec<&'a String>, std::collections::BTreeMap<String, String>) {
    let mut positional = Vec::new();
    let mut opts = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(rest) = args[i].strip_prefix("--") {
            let (key, inline) = match rest.split_once('=') {
                Some((k, v)) => (k, Some(v.to_string())),
                None => (rest, None),
            };
            if !allowed.contains(&key) {
                if allowed.is_empty() {
                    eprintln!("unknown option --{key} (this command takes none)");
                } else {
                    eprintln!(
                        "unknown option --{key} (expected one of: {})",
                        allowed.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
                    );
                }
                usage();
            }
            let value = if let Some(v) = inline {
                v
            } else if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else if flags.contains(&key) {
                String::new()
            } else {
                eprintln!("missing value for --{key}");
                usage();
            };
            opts.insert(key.to_string(), value);
            i += 1;
        } else {
            positional.push(&args[i]);
            i += 1;
        }
    }
    (positional, opts)
}

fn opt_u64(opts: &std::collections::BTreeMap<String, String>, key: &str, default: u64) -> u64 {
    opts.get(key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects an integer, got {v}");
            usage()
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    let result = match command.as_str() {
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "verify" => cmd_verify(rest),
        "load" => cmd_load(rest),
        "table1" => cmd_table1(rest),
        "table2" => cmd_table2(rest),
        "suite" => cmd_suite(rest),
        other => {
            eprintln!(
                "unknown command {other} (expected one of: list, run, verify, load, table1, table2, suite)"
            );
            usage()
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_list(args: &[String]) -> bdbench::common::Result<()> {
    let (positional, _) = parse_opts(args, &[], &[]);
    if !positional.is_empty() {
        eprintln!("bdbench list takes no positional arguments");
        usage();
    }
    let repo = PrescriptionRepository::with_builtins();
    println!("prescriptions:");
    for name in repo.names() {
        let p = repo.get(name)?;
        println!("  {name:<36} {}", p.description);
    }
    println!("\ngenerators:");
    for id in GeneratorRegistry::with_builtins().ids() {
        println!("  {id}");
    }
    println!("\nengines:");
    for engine in EngineRegistry::with_builtins().engines() {
        println!("  {:<12} {}", engine.name(), engine.capabilities().summary());
    }
    println!("\nsuites:");
    for suite in all_suites() {
        println!("  {}", suite.descriptor().name);
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> bdbench::common::Result<()> {
    let (positional, opts) = parse_opts(
        args,
        &[
            "system",
            "scale",
            "seed",
            "workers",
            "rate",
            "trace",
            "faults",
            "verify",
            "goldens",
        ],
        &["verify"],
    );
    let Some(prescription) = positional.first() else { usage() };
    let system = match opts.get("system").map(String::as_str) {
        None | Some("native") => SystemKind::Native,
        Some("mapreduce") => SystemKind::MapReduce,
        Some("sql") => SystemKind::Sql,
        Some("kv") => SystemKind::KeyValue,
        Some("streaming") => SystemKind::Streaming,
        Some(other) => {
            eprintln!("unknown system {other}");
            usage()
        }
    };
    let mut spec = BenchmarkSpec::new("cli")
        .with_prescription(prescription)
        .with_system(system)
        .with_seed(opt_u64(&opts, "seed", 42));
    if let Some(scale) = opts.get("scale") {
        spec = spec.with_scale(scale.parse().map_err(|_| {
            bdbench::common::BdbError::InvalidConfig(format!("bad --scale {scale}"))
        })?);
    }
    // --workers 0 = available parallelism, 1 = sequential (the default).
    if opts.contains_key("workers") {
        spec = spec.with_generator_workers(opt_u64(&opts, "workers", 1) as usize);
    }
    if let Some(rate) = opts.get("rate") {
        spec = spec.with_target_rate(rate.parse().map_err(|_| {
            bdbench::common::BdbError::InvalidConfig(format!("bad --rate {rate}"))
        })?);
    }
    if let Some(faults) = opts.get("faults") {
        spec = spec.with_faults(faults.parse()?);
    }
    if let Some(mode) = opts.get("verify") {
        spec = spec.with_verify(mode.parse::<VerifyMode>()?);
    }
    if let Some(dir) = opts.get("goldens") {
        spec = spec.with_goldens_dir(dir);
    }
    let run = Benchmark::new().run(&spec)?;
    println!("== phases ==");
    for phase in &run.phases {
        println!(
            "  {:<16} {:>10.3} ms",
            phase.phase.to_string(),
            phase.duration.as_secs_f64() * 1e3
        );
    }
    println!("{}", run.analysis);
    if let Some(target) = opts.get("trace") {
        let jsonl = trace_to_jsonl(&run.trace.events())?;
        if target == "-" {
            print!("{jsonl}");
        } else {
            std::fs::write(target, &jsonl).map_err(|e| {
                bdbench::common::BdbError::Io(format!("writing trace to {target}: {e}"))
            })?;
            eprintln!("trace: {} events written to {target}", run.trace.len());
        }
    }
    if spec.verify.is_some() && !(run.conformance.checks > 0 && run.conformance.all_passed()) {
        return Err(bdbench::common::BdbError::Execution(format!(
            "conformance: {}/{} checks passed",
            run.conformance.passes, run.conformance.checks
        )));
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> bdbench::common::Result<()> {
    let (_, opts) = parse_opts(
        args,
        &[
            "scale",
            "seed",
            "mode",
            "goldens",
            "journal",
            "resume",
            "faults",
        ],
        &[],
    );
    let mode = opts.get("mode").map_or(Ok(VerifyMode::Strict), |m| m.parse::<VerifyMode>())?;
    // --journal DIR checkpoints completed cells there; --resume DIR is
    // the same journal reopened after a crash (both honour existing
    // checkpoints — resumption is just journaling against a non-empty
    // directory).
    let journal = opts
        .get("resume")
        .or_else(|| opts.get("journal"))
        .map(RunJournal::open)
        .transpose()?;
    let faults = opts.get("faults").map(|s| s.parse::<FaultPlan>()).transpose()?;
    let report = verify_matrix_routed(
        opt_u64(&opts, "scale", 300),
        opt_u64(&opts, "seed", 42),
        mode,
        opts.get("goldens").map(String::as_str),
        &MatrixDurability { journal: journal.as_ref(), faults: faults.as_ref() },
    )?;
    println!("{}", report.render());
    if report.all_passed() {
        Ok(())
    } else {
        Err(bdbench::common::BdbError::Execution(format!(
            "verification matrix diverged in {} cell(s)",
            report.failed_cells().len()
        )))
    }
}

/// `bdbench load`: drive N concurrent clients × M in-flight lanes
/// against the built-in engines and report tail latency and rate (the
/// saturation throughput of a closed loop, or an open loop's offered
/// arrivals and their mean dispatch lateness).
fn cmd_load(args: &[String]) -> bdbench::common::Result<()> {
    let (positional, opts) = parse_opts(
        args,
        &[
            "clients",
            "inflight",
            "duration-ms",
            "arrival",
            "engine",
            "seed",
            "queue-cap",
            "sample-every",
            "faults",
            "trace",
        ],
        &[],
    );
    if !positional.is_empty() {
        eprintln!("bdbench load takes no positional arguments");
        usage();
    }
    let mut profile = LoadProfile::default();
    profile.clients = opt_u64(&opts, "clients", profile.clients as u64) as usize;
    profile.inflight = opt_u64(&opts, "inflight", profile.inflight as u64) as usize;
    profile.duration_ms = opt_u64(&opts, "duration-ms", profile.duration_ms);
    profile.sample_every = opt_u64(&opts, "sample-every", profile.sample_every as u64) as usize;
    if let Some(arrival) = opts.get("arrival") {
        profile.arrival = arrival.parse::<LoadArrival>()?;
    }
    if opts.contains_key("queue-cap") {
        profile.queue_capacity = Some(opt_u64(&opts, "queue-cap", 0) as usize);
    }
    // parse_opts keeps the last value of a repeated option; accept a
    // comma-separated list too so `--engine kv,native` selects both.
    if let Some(engines) = opts.get("engine") {
        profile.engines =
            Some(engines.split(',').map(|e| e.trim().to_string()).collect());
    }
    let mut spec = BenchmarkSpec::new("load")
        .with_seed(opt_u64(&opts, "seed", 42))
        .with_load(profile);
    if let Some(faults) = opts.get("faults") {
        spec = spec.with_faults(faults.parse()?);
    }
    let run = Benchmark::new().run_load(&spec)?;
    println!("{}", run.analysis);
    for report in &run.summary.reports {
        println!("{}", render_load_line(report));
    }
    println!("issued-op digest: {}", run.digest);
    if let Some(target) = opts.get("trace") {
        let jsonl = trace_to_jsonl(&run.trace.events())?;
        if target == "-" {
            print!("{jsonl}");
        } else {
            std::fs::write(target, &jsonl).map_err(|e| {
                bdbench::common::BdbError::Io(format!("writing trace to {target}: {e}"))
            })?;
            eprintln!("trace: {} events written to {target}", run.trace.len());
        }
    }
    let failure = match run.summary.verdict() {
        "CONFORMANT" => return Ok(()),
        "UNCHECKED" => {
            format!("load conformance: nothing sampled on {}", run.summary.unchecked().join(", "))
        }
        _ => format!(
            "load conformance: {}/{} oracle checks passed",
            run.conformance.passes, run.conformance.checks
        ),
    };
    Err(bdbench::common::BdbError::Execution(failure))
}

fn cmd_table1(args: &[String]) -> bdbench::common::Result<()> {
    let (_, opts) = parse_opts(args, &["seed"], &[]);
    let suites = all_suites();
    let (rows, text) = table1::render_table1(&suites, opt_u64(&opts, "seed", 0xBD))?;
    println!("{text}");
    let drifted: Vec<&str> = rows
        .iter()
        .zip(&suites)
        .filter(|(r, s)| !r.matches(&s.descriptor()))
        .map(|(_, s)| s.descriptor().name)
        .collect();
    println!(
        "{}/{} rows match the paper's classification",
        rows.len() - drifted.len(),
        rows.len()
    );
    paper_cells_hold("Table 1", &drifted)
}

fn cmd_table2(args: &[String]) -> bdbench::common::Result<()> {
    let (_, opts) = parse_opts(args, &["scale", "seed"], &[]);
    let suites = all_suites();
    let (runs, text) = table2::render_table2(
        &suites,
        opt_u64(&opts, "scale", 400),
        opt_u64(&opts, "seed", 0xBD),
    )?;
    println!("{text}");
    let mut differs = Vec::new();
    for (suite, run) in suites.iter().zip(&runs) {
        println!("{}", render_workload_details(run));
        if run.categories() != suite.descriptor().workload_types {
            differs.push(run.name);
        }
    }
    // A type cell that differs from the paper is a finding about the
    // engines' categories, not a failed run; only a diverged run fails.
    if !differs.is_empty() {
        println!("finding: measured type cell differs from the paper for {}", differs.join(", "));
    }
    runs_conform(&runs)
}

/// Every pipeline run behind a suite table must be CONFORMANT under the
/// strict oracle.
fn runs_conform(runs: &[SuiteRun]) -> bdbench::common::Result<()> {
    let diverged: Vec<&str> = runs.iter().filter(|r| !r.conformant()).map(|r| r.name).collect();
    if diverged.is_empty() {
        return Ok(());
    }
    Err(bdbench::common::BdbError::Execution(format!(
        "strict oracle: run(s) diverged in {}",
        diverged.join(", ")
    )))
}

/// A regenerated table whose measured row no longer matches the paper's
/// published cell is a failed reproduction, not a report.
fn paper_cells_hold(table: &str, drifted: &[&str]) -> bdbench::common::Result<()> {
    if drifted.is_empty() {
        return Ok(());
    }
    Err(bdbench::common::BdbError::Execution(format!(
        "{table}: measured row(s) no longer match the paper: {}",
        drifted.join(", ")
    )))
}

fn cmd_suite(args: &[String]) -> bdbench::common::Result<()> {
    let (positional, opts) = parse_opts(args, &["scale", "seed"], &[]);
    let Some(name) = positional.first() else { usage() };
    let suites = all_suites();
    let suite = suites
        .iter()
        .find(|s| s.descriptor().name.eq_ignore_ascii_case(name))
        .ok_or_else(|| bdbench::common::BdbError::NotFound(format!("suite {name}")))?;
    let scale = opt_u64(&opts, "scale", 400);
    let seed = opt_u64(&opts, "seed", 0xBD);
    let run = run_suite(suite.as_ref(), scale, seed)?;
    println!("{}", render_workload_details(&run));
    runs_conform(std::slice::from_ref(&run))
}
