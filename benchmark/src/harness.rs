//! The protocol every workload follows, and the report it prints.
//!
//! Untraced run: set up [`SETUPS`] times or more (build inputs + one warm-up
//! pass with full verification; `setup_s` is the median), then repeat the
//! fixed-size pass until `--seconds` have gone by. A metric is the median
//! over repeats; a latency metric is the median over repeats of the
//! per-repeat nearest-rank percentile. Traced run: set up once, then the
//! workload replays its body itself under spans and runs its layer
//! probes, sized to take about `--seconds`.

use crate::catalog::{owned_by, Better, END_TO_END, PER_LAYER};
use crate::span::{render_tree, write_jsonl, Span, Tracer};
use crate::stats::{nearest_rank, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest set-ups per untraced run: `setup_s` is their median, so one
/// cold start (page faults, allocator growth) does not decide it.
pub const SETUPS: usize = 3;
/// A set-up that takes a fraction of a second is as noisy as a single
/// pass, so cheap set-ups repeat, up to this many times or until they
/// have used [`SETUP_BUDGET_S`].
pub const MAX_SETUPS: usize = 9;
/// Seconds of set-up after which no further set-up is started.
pub const SETUP_BUDGET_S: f64 = 2.0;
/// Fewest recorded repeats, however short `--seconds` is.
pub const MIN_REPEATS: usize = 3;
/// How a line of the report that compares a replay's timing begins.
pub const FAITHFULNESS: &str = "# faithfulness";
/// How such a line ends when the two timings are more than 15 % apart.
pub const OUTSIDE: &str = "OUTSIDE 15 %";

/// What a workload is told about this run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every generator and schedule.
    pub seed: u64,
    /// Input sizes are divided by this: 1 normally, 20 under `--smoke`.
    pub div: u64,
    /// How long to measure.
    pub seconds: f64,
    /// A directory of this process's own for goldens copies and stores.
    pub scratch: PathBuf,
}

impl Ctx {
    /// `full / div`, but never below `floor` (tiny inputs break
    /// prescriptions that need a few rows per group).
    pub fn sized(&self, full: u64, floor: u64) -> u64 {
        (full / self.div).max(floor)
    }

    /// Report whether two timings of the same work agree within 15 %: what
    /// keeps a replay honest. Prints one [`FAITHFULNESS`] line. A wider gap
    /// is marked [`OUTSIDE`] there and does not stop the run: on a shared
    /// host two medians of a handful of passes drift that far apart about
    /// one run in ten, and a run that exits non-zero measures nothing. The
    /// all-workloads traced run fails at its end on any marked line.
    /// Skipped under `--smoke`, whose inputs are so small that fixed costs
    /// the replay leaves out decide the ratio.
    pub fn report_within_15_percent(&self, what: &str, mine: f64, theirs: f64, unit: &str) {
        if self.div != 1 {
            return;
        }
        let verdict = if (mine - theirs).abs() <= 0.15 * theirs {
            "within 15 %"
        } else {
            OUTSIDE
        };
        println!("{FAITHFULNESS} {what}: {mine:.4} {unit} against {theirs:.4} {unit}, {verdict}");
    }

    /// True when the measuring window that began at `start` is over.
    pub fn window_over(&self, start: Instant, share: f64) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds * share
    }
}

/// One recorded repeat of a workload's fixed body.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds the body took (checks excluded).
    pub wall_s: f64,
    /// Units of work the body completed (see README: rows, cells, ops…).
    pub work: u64,
    /// Exact latency of every operation of this repeat, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong, missing, shed or failed.
    pub failed: u64,
}

/// What a traced run hands back.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Every span of the recorded replays.
    pub spans: Vec<Span>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
}

impl Traced {
    /// Record a metric from its samples (median reported).
    pub fn put(&mut self, name: &'static str, samples: &[f64]) {
        self.metrics.insert(name, Summary::of(samples));
    }

    /// Record a metric that is one exact value.
    pub fn put_one(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Summary::single(value));
    }
}

/// The two tracers of a traced run and the walls of their replays.
///
/// Each round replays the workload's body twice, once under the recording
/// tracer and once under the no-op one, and alternates which goes first.
/// `benchmark.trace_overhead_ratio` is the median over rounds of recorded
/// wall ÷ unrecorded wall: each ratio pairs two replays that ran back to
/// back, so drift of the host cancels.
#[derive(Debug)]
pub struct Replays {
    tracer: Tracer,
    noop: Tracer,
    traced_s: Vec<f64>,
    noop_s: Vec<f64>,
}

impl Default for Replays {
    fn default() -> Self {
        Self {
            tracer: Tracer::recording(),
            noop: Tracer::noop(),
            traced_s: Vec::new(),
            noop_s: Vec::new(),
        }
    }
}

impl Replays {
    /// One round. `body(tracer, recorded)` replays the workload's body
    /// under `tracer` and returns the seconds it took.
    ///
    /// # Errors
    /// The first error `body` returns.
    pub fn round(
        &mut self,
        mut body: impl FnMut(&mut Tracer, bool) -> Result<f64, String>,
    ) -> Result<(), String> {
        let round = self.rounds();
        self.tracer.set_pass(round);
        let recorded_first = round.is_multiple_of(2);
        for recorded in [recorded_first, !recorded_first] {
            if recorded {
                self.traced_s.push(body(&mut self.tracer, true)?);
            } else {
                self.noop_s.push(body(&mut self.noop, false)?);
            }
        }
        Ok(())
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u32 {
        self.traced_s.len() as u32
    }

    /// Seconds of each recorded replay.
    pub fn traced_s(&self) -> &[f64] {
        &self.traced_s
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.tracer.spans()
    }

    /// See the type's documentation.
    pub fn overhead_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced_s
            .iter()
            .zip(&self.noop_s)
            .map(|(t, n)| t / n)
            .collect();
        crate::stats::median(&ratios)
    }
}

/// A workload: a fixed body the benchmark can set up, repeat and replay.
pub trait Workload {
    /// Build the inputs and run one fully verified warm-up pass. Called
    /// several times; each call starts from nothing.
    ///
    /// # Errors
    /// A description of what could not be built or verified.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;

    /// One recorded repeat of the fixed body, with its output checks.
    ///
    /// # Errors
    /// A description of what stopped the pass (wrong outputs are counted
    /// in [`Pass::failed`], not returned).
    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String>;

    /// The traced run: replay the body under spans and probe the layers.
    ///
    /// # Errors
    /// A description of what failed.
    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String>;
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, unit, direction, summary)` of every metric this run measured.
    pub measured: Vec<(&'static str, &'static str, Better, Summary)>,
    /// Names the contract wants that this workload does not own.
    pub unowned: Vec<(&'static str, &'static str)>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs wrong.
    pub failed: u64,
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Run the untraced protocol and compute the end-to-end metrics.
///
/// # Errors
/// Propagates set-up and pass errors.
pub fn run_untraced(w: &mut dyn Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let (min_setups, min_repeats) = if ctx.div > 1 {
        (1, 1)
    } else {
        (SETUPS, MIN_REPEATS)
    };
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    while setup_s.len() < min_setups
        || (ctx.div == 1
            && setup_s.len() < MAX_SETUPS
            && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        w.setup(ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < min_repeats || !ctx.window_over(start, 1.0) {
        passes.push(w.pass(ctx)?);
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Summary {
        Summary::of(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let median_latency_us = per_pass(&|pass: &Pass| {
        let mut v = pass.op_ns.clone();
        v.sort_unstable();
        nearest_rank(&v, 0.5) as f64 / 1e3
    });
    let values: [Summary; 5] = [
        Summary::of(&setup_s),
        per_pass(&|p| p.wall_s),
        per_pass(&|p| p.work as f64 / p.wall_s),
        median_latency_us,
        Summary::single(peak_rss_mb()?),
    ];
    Ok(Outcome {
        measured: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, s)| (m.name, m.unit, m.better, s))
            .collect(),
        unowned: Vec::new(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
    })
}

/// Run the traced protocol: one set-up, the workload's replay and probes,
/// the span file and the self/total tree.
///
/// # Errors
/// Propagates workload errors; fails when an owned metric is missing.
pub fn run_traced(
    w: &mut dyn Workload,
    name: &str,
    ctx: &Ctx,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    w.setup(ctx)?;
    let traced = w.traced(ctx)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{name}.jsonl"));
    write_jsonl(&path, name, &traced.spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "# {} spans written to {}",
        traced.spans.len(),
        path.display()
    );
    print!("{}", render_tree(&traced.spans));
    let mut measured = Vec::new();
    for m in owned_by(name) {
        let s = traced
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("traced run of {name} did not measure {}", m.name))?;
        measured.push((m.name, m.unit, m.better, *s));
    }
    let unowned = PER_LAYER
        .iter()
        .filter(|m| !m.owners.contains(&name))
        .map(|m| (m.name, m.unit))
        .collect();
    Ok(Outcome {
        measured,
        unowned,
        attempted: traced.attempted,
        failed: traced.failed,
    })
}

impl Outcome {
    /// True when every value is a finite, non-negative number.
    pub fn all_finite(&self) -> bool {
        self.measured
            .iter()
            .all(|(.., s)| s.median.is_finite() && s.median >= 0.0)
    }

    /// One line per measured metric: name, median, unit, sample count,
    /// quartiles and range.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, unit, better, s) in &self.measured {
            out.push_str(&format!(
                "{workload:<16} {name:<42} {:>16.4} {unit:<6} {:<6} n={:<4} q1={:.4} q3={:.4} min={:.4} max={:.4}\n",
                s.median,
                better.word(),
                s.n,
                s.q1,
                s.q3,
                s.min,
                s.max
            ));
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "{workload:<16} {:<42} {share:>16.4} {:<6} {:<6} failed={} attempted={}\n",
            "failed_share", "share", "lower", self.failed, self.attempted
        ));
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> String {
        let correct = self.failed == 0 && self.attempted > 0 && self.all_finite();
        let mut values: Vec<(&str, &str, f64)> = self
            .measured
            .iter()
            .map(|(name, unit, _, s)| (*name, *unit, s.median))
            .chain(self.unowned.iter().map(|(name, unit)| (*name, *unit, 0.0)))
            .collect();
        // Per-layer names in catalogue order, whoever owns them (a stable
        // sort: the end-to-end names are not in that list and stay put).
        values.sort_by_key(|(name, ..)| PER_LAYER.iter().position(|m| m.name == *name));
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The fields of a result line the orchestrator needs back.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// The run's own verdict.
    pub correct: bool,
    /// Outputs wrong.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

/// Read back a line written by [`Outcome::result_line`].
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let after = |key: &str| line.split_once(key).map(|(_, rest)| rest.trim_start());
    let correct = after("\"correct\":")?.starts_with("true");
    let failed = after("\"failed\":")?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let mut values = BTreeMap::new();
    let mut rest = after("\"metrics\":")?;
    while let Some((head, tail)) = rest.split_once("\": {\"value\": ") {
        let name = head.rsplit('"').next()?;
        let number: String = tail
            .chars()
            .take_while(|c| !matches!(c, ',' | '}'))
            .collect();
        values.insert(name.to_string(), number.trim().parse().ok()?);
        rest = tail;
    }
    Some(ParsedResult {
        correct,
        failed,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses_back() {
        let o = Outcome {
            measured: vec![
                ("pass_s", "s", Better::Lower, Summary::of(&[0.5, 0.7, 0.6])),
                ("setup_s", "s", Better::Lower, Summary::single(1.25)),
            ],
            unowned: vec![("kvstore.lsm.get_ns", "ns")],
            attempted: 15,
            failed: 0,
        };
        let line = o.result_line();
        assert!(
            line.starts_with(
                "{\"correct\": true, \"attempted\": 15, \"failed\": 0, \"metrics\": {"
            ),
            "{line}"
        );
        assert!(!line.contains('\n'));
        let p = parse_result_line(&line).unwrap();
        assert!(p.correct);
        assert_eq!(p.failed, 0);
        assert_eq!(p.values["pass_s"], 0.6);
        assert_eq!(p.values["setup_s"], 1.25);
        assert_eq!(p.values["kvstore.lsm.get_ns"], 0.0);
        assert_eq!(p.values.len(), 3);
    }

    #[test]
    fn a_failed_output_or_a_non_finite_value_is_not_correct() {
        let mut o = Outcome {
            measured: vec![("pass_s", "s", Better::Lower, Summary::single(1.0))],
            unowned: vec![],
            attempted: 4,
            failed: 1,
        };
        assert!(o.result_line().contains("\"correct\": false"));
        o.failed = 0;
        o.measured[0].3 = Summary::single(f64::NAN);
        assert!(!o.all_finite());
        assert!(o.result_line().contains("\"correct\": false"));
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
