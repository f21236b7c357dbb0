//! Deterministic fault injection.
//!
//! The paper's veracity axis asks benchmarks to measure systems under
//! realistic conditions, and for big data systems realistic includes
//! failures and stragglers — BigOP-style *operation patterns* cover
//! failure behaviour, not just the happy path. This module provides the
//! pieces the Execution Layer wraps around each resilient operation
//! (data-set generation, engine execution, a load op):
//!
//! * [`FaultPlan`] — a parsed, seedable chaos specification: which fault
//!   [`FaultKind`]s fire in which Figure 1 [`FaultPhase`]s, at what rate,
//!   with optional per-clause injection caps. Parse one from the CLI's
//!   `--faults` spec string.
//! * [`FaultInjector`] — the per-run instantiation of a plan. Decisions
//!   are pure functions of `(seed, clause, draw index)`, so the same seed
//!   and plan always produce the same fault sequence regardless of wall
//!   clock or thread timing.
//! * [`run_with_fault`] — one guarded attempt at an operation under a
//!   fault already drawn for it. It returns an injected error, worker
//!   panic or kill point as the operation's error, delays the operation
//!   by an injected latency spike, converts a panic inside the operation
//!   into a structured [`BdbError`], and records each injected fault in
//!   the [`RunTrace`]. A run draws each operation's fault just before
//!   it; a load drive draws every op's fault before the drive starts.
//!
//! Nothing is retried. Every engine is in-process and a deterministic
//! function of its request and seed, so a real failure repeats on a
//! second attempt; a retry could only recover a fault this module
//! injected itself. A fault fails the operation it hits, and that
//! failure is the result of the one engine the request was routed to.
//!
//! # Fault spec grammar
//!
//! A plan is a comma-separated list of clauses:
//!
//! ```text
//! <kind>@<phase>:<rate>[:ms=<latency_ms>][:max=<count>]
//! ```
//!
//! * `kind` — `error` (the operation fails with an injected engine
//!   error), `latency` (a spike of `ms` milliseconds is added before the
//!   operation runs), `panic` (the operation fails with the structured
//!   error the hardened pool makes of a worker panic), or
//!   `crash` (the process "dies" at a kill point: the run aborts, leaving
//!   durable state for `--resume`).
//! * `phase` — `datagen`, `exec`, or `any`.
//! * `rate` — probability in `[0, 1]` that the clause fires on a given
//!   draw (`1` = always, until `max` is reached).
//! * `ms` — the spike length of a `latency` clause (default 10); any
//!   other kind rejects it.
//! * `max` — optional cap on total injections from the clause, which
//!   makes chaos scenarios exactly reproducible: `crash@exec:1:max=1`
//!   kills the first execution it reaches and lets every later one run.
//!
//! Example: `error@exec:0.5,latency@exec:0.3:ms=25,panic@datagen:1:max=1`.

use crate::trace::{RunTrace, TraceEvent};
use bdb_common::rng::SplitMix64;
use bdb_common::{pool, BdbError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

/// Every fault kind the grammar accepts, for error messages.
pub const FAULT_KINDS: &str = "error|latency|panic|crash";
/// Every fault phase the grammar accepts, for error messages.
pub const FAULT_PHASES: &str = "datagen|exec|any";

/// What an injected fault does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected engine error.
    Error,
    /// A latency spike is added before the operation runs (a straggler).
    Latency,
    /// The operation fails as if a pool worker panicked mid-operation.
    Panic,
    /// The process "dies" at the operation: a terminal
    /// [`BdbError::Crashed`] — the run aborts with durable state (run
    /// journal, KV WAL) exactly as written, and resuming is a fresh
    /// process's job.
    Crash,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Error => "error",
            FaultKind::Latency => "latency",
            FaultKind::Panic => "panic",
            FaultKind::Crash => "crash",
        })
    }
}

impl std::str::FromStr for FaultKind {
    type Err = BdbError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "error" => Ok(FaultKind::Error),
            "latency" => Ok(FaultKind::Latency),
            "panic" => Ok(FaultKind::Panic),
            "crash" => Ok(FaultKind::Crash),
            other => Err(BdbError::InvalidConfig(format!(
                "unknown fault kind {other:?} (valid kinds: {FAULT_KINDS})"
            ))),
        }
    }
}

/// The Figure 1 phase a fault clause targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The data generation step.
    DataGeneration,
    /// The execution step (engine dispatch).
    Execution,
    /// Either phase.
    Any,
}

impl FaultPhase {
    /// Does a clause targeting `self` apply to an operation in `site`?
    pub fn matches(&self, site: FaultPhase) -> bool {
        matches!(self, FaultPhase::Any) || *self == site
    }
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultPhase::DataGeneration => "datagen",
            FaultPhase::Execution => "exec",
            FaultPhase::Any => "any",
        })
    }
}

impl std::str::FromStr for FaultPhase {
    type Err = BdbError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "datagen" => Ok(FaultPhase::DataGeneration),
            "exec" => Ok(FaultPhase::Execution),
            "any" => Ok(FaultPhase::Any),
            other => Err(BdbError::InvalidConfig(format!(
                "unknown fault phase {other:?} (valid phases: {FAULT_PHASES})"
            ))),
        }
    }
}

/// One clause of a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultClause {
    /// What the fault does.
    pub kind: FaultKind,
    /// Which phase it targets.
    pub phase: FaultPhase,
    /// Probability of firing per draw, in `[0, 1]`.
    pub rate: f64,
    /// Spike length for [`FaultKind::Latency`] clauses.
    pub latency_ms: u64,
    /// Cap on total injections from this clause (`None` = unlimited).
    pub max: Option<u64>,
}

impl FaultClause {
    fn parse(text: &str) -> Result<Self> {
        let (head, rest) = match text.split_once(':') {
            Some((h, r)) => (h, r),
            None => {
                return Err(BdbError::InvalidConfig(format!(
                    "fault clause {text:?} needs a rate \
                     (grammar: kind@phase:rate[:ms=N][:max=N])"
                )))
            }
        };
        let (kind_s, phase_s) = head.split_once('@').ok_or_else(|| {
            BdbError::InvalidConfig(format!(
                "fault clause {text:?} needs kind@phase \
                 (valid kinds: {FAULT_KINDS}; valid phases: {FAULT_PHASES})"
            ))
        })?;
        let kind: FaultKind = kind_s.parse()?;
        let phase: FaultPhase = phase_s.parse()?;
        let mut fields = rest.split(':');
        let rate_s = fields.next().unwrap_or_default();
        let rate: f64 = rate_s.parse().map_err(|_| {
            BdbError::InvalidConfig(format!("fault rate {rate_s:?} is not a number"))
        })?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(BdbError::InvalidConfig(format!(
                "fault rate {rate} out of [0, 1]"
            )));
        }
        let mut latency_ms = 10;
        let mut max = None;
        for field in fields {
            let (key, value) = field.split_once('=').ok_or_else(|| {
                BdbError::InvalidConfig(format!("fault field {field:?} is not key=value"))
            })?;
            let parsed: u64 = value.parse().map_err(|_| {
                BdbError::InvalidConfig(format!("fault field {field:?} needs an integer"))
            })?;
            match key {
                "ms" if kind != FaultKind::Latency => {
                    return Err(BdbError::InvalidConfig(format!(
                        "fault field {field:?} only applies to latency clauses"
                    )))
                }
                "ms" => latency_ms = parsed,
                "max" => max = Some(parsed),
                other => {
                    return Err(BdbError::InvalidConfig(format!(
                        "unknown fault field {other} (expected ms|max)"
                    )))
                }
            }
        }
        Ok(Self { kind, phase, rate, latency_ms, max })
    }
}

impl std::fmt::Display for FaultClause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}:{}", self.kind, self.phase, self.rate)?;
        if self.kind == FaultKind::Latency {
            write!(f, ":ms={}", self.latency_ms)?;
        }
        if let Some(max) = self.max {
            write!(f, ":max={max}")?;
        }
        Ok(())
    }
}

/// A parsed chaos specification: an ordered list of fault clauses.
///
/// Clause order matters — the first matching clause that fires wins a
/// draw — and is preserved from the spec string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The clauses, in spec order.
    pub clauses: Vec<FaultClause>,
}

impl std::str::FromStr for FaultPlan {
    type Err = BdbError;

    fn from_str(s: &str) -> Result<Self> {
        // Parse errors name the offending comma-separated segment (by
        // 1-based position and text) so a typo inside a long plan is
        // findable, and every path enumerates the valid vocabulary.
        let clauses = s
            .split(',')
            .map(str::trim)
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, c)| {
                FaultClause::parse(c).map_err(|e| {
                    BdbError::InvalidConfig(format!(
                        "fault plan segment {} ({c:?}): {e}",
                        i + 1
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        if clauses.is_empty() {
            return Err(BdbError::InvalidConfig(format!(
                "fault plan {s:?} has no clauses \
                 (grammar: kind@phase:rate[:ms=N][:max=N], comma-separated; \
                 valid kinds: {FAULT_KINDS}; valid phases: {FAULT_PHASES})"
            )));
        }
        Ok(Self { clauses })
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.clauses.iter().map(|c| c.to_string()).collect();
        f.write_str(&parts.join(","))
    }
}

/// Where a resilient operation runs: a phase plus a target name (the
/// data-set being generated, or `engine:prescription` being executed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The Figure 1 phase the operation belongs to.
    pub phase: FaultPhase,
    /// The operation's name within the phase.
    pub target: String,
}

impl FaultSite {
    /// The site of one data-set generation.
    pub fn datagen(dataset: &str) -> Self {
        Self { phase: FaultPhase::DataGeneration, target: dataset.to_string() }
    }

    /// The site of one engine execution.
    pub fn execution(engine: &str, prescription: &str) -> Self {
        Self {
            phase: FaultPhase::Execution,
            target: format!("{engine}:{prescription}"),
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.phase, self.target)
    }
}

/// A fault the injector decided to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What happens.
    pub kind: FaultKind,
    /// Spike length for latency faults.
    pub latency_ms: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ClauseState {
    draws: u64,
    injected: u64,
}

/// The per-run instantiation of a [`FaultPlan`].
///
/// Decisions are deterministic: the `n`-th draw against clause `i` fires
/// iff `mix(seed, i, n) < rate`, so two runs with the same seed, plan and
/// operation sequence inject identical faults. Draw counters live behind
/// a mutex only so the injector can ride inside shared references; all
/// injection points are sequential within a run.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    state: Mutex<Vec<ClauseState>>,
}

impl FaultInjector {
    /// An injector executing `plan` with decisions derived from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let state = Mutex::new(vec![ClauseState::default(); plan.clauses.len()]);
        Self { plan, seed, state }
    }

    /// Decide whether a fault fires for one attempt at `site`. The first
    /// clause (in plan order) that matches the site's phase and fires
    /// wins; clauses that hit their `max` cap stop drawing.
    pub fn sample(&self, site: &FaultSite) -> Option<InjectedFault> {
        let mut state = self.state.lock().expect("injector state");
        for (i, clause) in self.plan.clauses.iter().enumerate() {
            if !clause.phase.matches(site.phase) {
                continue;
            }
            let st = &mut state[i];
            if clause.max.is_some_and(|max| st.injected >= max) {
                continue;
            }
            let draw = st.draws;
            st.draws += 1;
            let word = SplitMix64::mix(
                self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ draw.rotate_left(32),
            );
            let unit = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if unit < clause.rate {
                st.injected += 1;
                return Some(InjectedFault { kind: clause.kind, latency_ms: clause.latency_ms });
            }
        }
        None
    }
}

/// Run `f` once at `site` under `fault`, the fault drawn for it
/// ([`FaultInjector::sample`]), if any.
///
/// An injected `error`, `panic` or `crash` fault is the operation's error
/// and `f` never runs; a `latency` fault sleeps its spike, then runs `f`.
/// A panic inside `f` becomes a structured [`BdbError`]. Records one
/// [`TraceEvent::FaultInjected`] per injected fault.
pub fn run_with_fault<T>(
    fault: Option<InjectedFault>,
    trace: &RunTrace,
    site: &FaultSite,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(fault) = fault else {
        return run_guarded(f);
    };
    trace.record(TraceEvent::FaultInjected {
        site: site.to_string(),
        kind: fault.kind.to_string(),
        latency_ms: if fault.kind == FaultKind::Latency { fault.latency_ms } else { 0 },
    });
    match fault.kind {
        FaultKind::Error => Err(BdbError::Execution(format!("injected engine fault at {site}"))),
        // The error a worker panic surfaces as through the hardened pool
        // (`pool::try_par_map`), without starting threads to panic.
        FaultKind::Panic => Err(BdbError::Execution(format!(
            "worker panic in task 0: injected worker panic at {site}"
        ))),
        FaultKind::Crash => Err(BdbError::Crashed(format!("injected kill point at {site}"))),
        FaultKind::Latency => {
            std::thread::sleep(Duration::from_millis(fault.latency_ms));
            run_guarded(f)
        }
    }
}

/// Run the operation, converting any panic (an engine bug, or an injected
/// worker panic that escaped a non-hardened path) into a structured error.
fn run_guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(BdbError::Execution(format!(
            "operation panicked: {}",
            pool::panic_message(payload.as_ref())
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn site() -> FaultSite {
        FaultSite::execution("sql", "micro/sort")
    }

    fn labels(trace: &RunTrace) -> Vec<&'static str> {
        trace.events().iter().map(|e| e.label()).collect()
    }

    #[test]
    fn plan_parses_and_round_trips() {
        let plan: FaultPlan =
            "error@exec:0.5,latency@exec:0.3:ms=25,panic@datagen:1:max=1".parse().unwrap();
        assert_eq!(plan.clauses.len(), 3);
        assert_eq!(plan.clauses[0].kind, FaultKind::Error);
        assert_eq!(plan.clauses[0].phase, FaultPhase::Execution);
        assert_eq!(plan.clauses[1].latency_ms, 25);
        assert_eq!(plan.clauses[2].max, Some(1));
        let round: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, round);
    }

    #[test]
    fn crash_clause_parses_and_round_trips() {
        let plan: FaultPlan = "crash@exec:1:max=1".parse().unwrap();
        assert_eq!(plan.clauses[0].kind, FaultKind::Crash);
        let round: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, round);
    }

    #[test]
    fn parse_errors_name_the_segment_and_vocabulary() {
        let err = "error@exec:1,warp@exec:0.5".parse::<FaultPlan>().unwrap_err().to_string();
        assert!(err.contains("segment 2"), "{err}");
        assert!(err.contains("\"warp@exec:0.5\""), "{err}");
        assert!(err.contains(FAULT_KINDS), "{err}");
        let err = "error@boot:0.5".parse::<FaultPlan>().unwrap_err().to_string();
        assert!(err.contains(FAULT_PHASES), "{err}");
        let err = "".parse::<FaultPlan>().unwrap_err().to_string();
        assert!(err.contains(FAULT_KINDS) && err.contains(FAULT_PHASES), "{err}");
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        for bad in [
            "",
            "error:0.5",          // no phase
            "error@exec",         // no rate
            "warp@exec:0.5",      // unknown kind
            "error@boot:0.5",     // unknown phase
            "error@exec:1.5",     // rate out of range
            "error@exec:1:max",   // field without value
            "error@exec:1:bog=2", // unknown field
            "error@exec:1:ms=5",  // spike length on a non-latency clause
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn ms_applies_only_to_latency_clauses() {
        for kind in ["error", "panic", "crash"] {
            let spec = format!("{kind}@exec:1:ms=5");
            let err = spec.parse::<FaultPlan>().unwrap_err();
            assert!(matches!(err, BdbError::InvalidConfig(_)), "{spec}: {err}");
            assert!(err.to_string().contains("\"ms=5\" only applies to latency"), "{err}");
        }
        let plan: FaultPlan = "latency@exec:1:ms=5".parse().unwrap();
        assert_eq!(plan.to_string(), "latency@exec:1:ms=5");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every plan that parses prints back to a spec that parses to an
        /// equal plan. The generator writes `ms=` on every kind and rates
        /// past 1, so rejected clauses are drawn as well.
        #[test]
        fn printed_plans_parse_back_equal(
            clauses in proptest::collection::vec(
                (0usize..4, 0usize..3, 0u32..=1200, (0u8..3, 0u64..100), (0u8..2, 0u64..5)),
                1..4,
            ),
        ) {
            let spec: Vec<String> = clauses
                .iter()
                .map(|&(kind, phase, milli_rate, (ms_field, ms), (max_field, max))| {
                    let kind = ["error", "latency", "panic", "crash"][kind];
                    let phase = ["datagen", "exec", "any"][phase];
                    let mut clause = format!("{kind}@{phase}:{}", f64::from(milli_rate) / 1000.0);
                    if ms_field > 0 {
                        clause.push_str(&format!(":ms={ms}"));
                    }
                    if max_field > 0 {
                        clause.push_str(&format!(":max={max}"));
                    }
                    clause
                })
                .collect();
            if let Ok(plan) = spec.join(",").parse::<FaultPlan>() {
                let printed = plan.to_string();
                let reparsed: FaultPlan = printed.parse().unwrap();
                prop_assert_eq!(reparsed, plan, "{} printed as {}", spec.join(","), printed);
            }
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let plan: FaultPlan = "error@exec:0.5".parse().unwrap();
        let draws = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(plan.clone(), seed);
            (0..64).map(|_| inj.sample(&site()).is_some()).collect()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "different seeds should differ");
        let fired = draws(7).iter().filter(|&&b| b).count();
        assert!((10..55).contains(&fired), "rate 0.5 fired {fired}/64 times");
    }

    #[test]
    fn injector_honours_max_and_phase() {
        let plan: FaultPlan = "error@datagen:1:max=2".parse().unwrap();
        let inj = FaultInjector::new(plan, 1);
        // Wrong phase: never fires.
        assert!(inj.sample(&site()).is_none());
        let dg = FaultSite::datagen("events");
        assert!(inj.sample(&dg).is_some());
        assert!(inj.sample(&dg).is_some());
        // Cap reached: the clause stops firing for good.
        assert!((0..8).all(|_| inj.sample(&dg).is_none()));
    }

    #[test]
    fn injected_error_fails_the_operation() {
        let inj = FaultInjector::new("error@exec:1:max=1".parse().unwrap(), 9);
        let trace = RunTrace::new();
        let mut calls = 0;
        let err = run_with_fault(inj.sample(&site()), &trace, &site(), || {
            calls += 1;
            Ok(1u32)
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "execution error: injected engine fault at exec/sql:micro/sort");
        assert_eq!(calls, 0, "an injected error never reaches the operation");
        assert_eq!(labels(&trace), vec!["fault_injected"]);
        // The cap is spent: the next operation at the site runs.
        assert_eq!(run_with_fault(inj.sample(&site()), &trace, &site(), || Ok(2u32)).unwrap(), 2);
        assert_eq!(labels(&trace), vec!["fault_injected"]);
    }

    #[test]
    fn injected_crash_is_terminal() {
        let inj = FaultInjector::new("crash@exec:1".parse().unwrap(), 9);
        let trace = RunTrace::new();
        let mut calls = 0;
        let err = run_with_fault(inj.sample(&site()), &trace, &site(), || {
            calls += 1;
            Ok(1u32)
        })
        .unwrap_err();
        assert!(err.is_crash(), "{err}");
        assert_eq!(calls, 0, "the crash pre-empts the operation");
        assert_eq!(labels(&trace), vec!["fault_injected"]);
    }

    #[test]
    fn crash_errors_from_the_operation_are_terminal_too() {
        let trace = RunTrace::new();
        let err = run_with_fault::<u32>(None, &trace, &site(), || {
            Err(BdbError::Crashed("kill point mid-WAL-append".into()))
        })
        .unwrap_err();
        assert!(err.is_crash());
        assert!(trace.is_empty(), "a real kill point is not an injected fault");
    }

    #[test]
    fn injected_panic_becomes_structured_error() {
        let inj = FaultInjector::new("panic@exec:1:max=1".parse().unwrap(), 3);
        let trace = RunTrace::new();
        let err = run_with_fault(inj.sample(&site()), &trace, &site(), || Ok(7u32)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "execution error: worker panic in task 0: injected worker panic at exec/sql:micro/sort"
        );
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::FaultInjected { kind, .. } if kind == "panic"
        )));
    }

    #[test]
    fn real_panics_in_the_operation_are_caught() {
        let trace = RunTrace::new();
        let mut calls = 0;
        let err = run_with_fault::<u32>(None, &trace, &site(), || {
            calls += 1;
            panic!("engine bug");
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "execution error: operation panicked: engine bug");
        assert_eq!(calls, 1, "the panicking operation runs exactly once");
        assert!(trace.is_empty(), "a real panic is not an injected fault");
    }

    #[test]
    fn latency_fault_delays_then_runs_the_operation() {
        let inj = FaultInjector::new("latency@exec:1:ms=2".parse().unwrap(), 5);
        let trace = RunTrace::new();
        let started = std::time::Instant::now();
        assert_eq!(run_with_fault(inj.sample(&site()), &trace, &site(), || Ok(3u32)).unwrap(), 3);
        assert!(started.elapsed() >= Duration::from_millis(2));
        assert_eq!(
            trace.events(),
            vec![TraceEvent::FaultInjected {
                site: "exec/sql:micro/sort".into(),
                kind: "latency".into(),
                latency_ms: 2,
            }]
        );
    }

    #[test]
    fn passive_resilience_is_transparent() {
        let trace = RunTrace::new();
        assert_eq!(run_with_fault(None, &trace, &site(), || Ok("ok")).unwrap(), "ok");
        assert!(trace.is_empty(), "no events on the happy path");
    }
}
