//! Deterministic fault injection, retry/backoff and recovery accounting.
//!
//! The paper's veracity axis asks benchmarks to measure systems under
//! realistic conditions, and for big data systems realistic includes
//! transient failures, stragglers and retries — BigOP-style *operation
//! patterns* cover failure behaviour, not just the happy path. This
//! module provides the pieces the Execution Layer composes into resilient
//! dispatch:
//!
//! * [`FaultPlan`] — a parsed, seedable chaos specification: which fault
//!   [`FaultKind`]s fire in which Figure 1 [`FaultPhase`]s, at what rate,
//!   with optional per-clause injection caps. Parse one from the CLI's
//!   `--faults` spec string.
//! * [`FaultInjector`] — the per-run instantiation of a plan. Decisions
//!   are pure functions of `(seed, clause, draw index)`, so the same seed
//!   and plan always produce the same fault sequence regardless of wall
//!   clock or thread timing.
//! * [`RetryPolicy`] — jittered exponential backoff (deterministic jitter
//!   derived from the run seed) plus an optional per-operation deadline.
//! * [`run_with_recovery`] — the retry loop wrapped around every
//!   resilient operation (data-set generation, engine execution). It asks
//!   the injector for a fault before each attempt, converts worker panics
//!   into structured [`BdbError`]s via the hardened pool, records
//!   fault/retry/deadline events in the [`RunTrace`], and backs off
//!   between attempts.
//!
//! Engine **failover** — re-routing a prescription to the next capable
//! engine once the selected one exhausts its retries — lives in
//! [`crate::engine::EngineRegistry::dispatch_resilient`], which calls
//! [`run_with_recovery`] once per candidate engine.
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
//!   operation runs), `panic` (a pool worker thread panics; the hardened
//!   pool catches it and surfaces a structured error), or `crash` (the
//!   process "dies" at a kill point: the run aborts immediately — no
//!   retry, no failover — leaving durable state for `--resume`).
//! * `phase` — `datagen`, `exec`, or `any`.
//! * `rate` — probability in `[0, 1]` that the clause fires on a given
//!   draw (`1` = always, until `max` is reached).
//! * `max` — optional cap on total injections from the clause, which
//!   makes recovery scenarios exactly reproducible: `error@exec:1:max=2`
//!   fails the first two attempts and lets the third through.
//!
//! Example: `error@exec:0.5,latency@exec:0.3:ms=25,panic@datagen:1:max=1`.

use crate::trace::{RunTrace, TraceEvent};
use bdb_common::rng::SplitMix64;
use bdb_common::{pool, BdbError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    /// A worker thread panics mid-operation.
    Panic,
    /// The process "dies" at the operation: a terminal
    /// [`BdbError::Crashed`] that recovery must not retry or fail over —
    /// the run aborts with durable state (run journal, KV WAL) exactly
    /// as written, and resuming is a fresh process's job.
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

impl FaultPlan {
    /// A plan with no clauses (never injects).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan can never inject a fault.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
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

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("injector state").iter().map(|s| s.injected).sum()
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

/// Jittered exponential backoff with an optional per-operation deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (`0` = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay_ms: u64,
    /// Cap on a single backoff delay.
    pub max_delay_ms: u64,
    /// Wall-clock budget for one operation including all its retries (and,
    /// for engine dispatch, all failover attempts).
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 0, base_delay_ms: 10, max_delay_ms: 1_000, deadline_ms: None }
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` extra attempts.
    pub fn with_retries(retries: u32) -> Self {
        Self { max_retries: retries, ..Self::default() }
    }

    /// Set the per-operation deadline.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Total attempts the policy allows.
    pub fn attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The backoff before retry number `attempt` (1-based): exponential
    /// doubling from `base_delay_ms`, capped at `max_delay_ms`, with up to
    /// +50% jitter derived deterministically from `seed` and `attempt`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay_ms);
        let word = SplitMix64::mix(seed ^ 0xBAC0FF ^ u64::from(attempt));
        let jitter = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.5;
        let total = (exp as f64 * (1.0 + jitter)) as u64;
        Duration::from_millis(total.min(self.max_delay_ms))
    }
}

/// Everything [`run_with_recovery`] needs: the retry policy, the optional
/// fault injector, and the run seed the deterministic jitter derives from.
#[derive(Debug)]
pub struct Resilience {
    /// Retry/backoff/deadline settings.
    pub policy: RetryPolicy,
    /// The active fault injector, if the run is a chaos run.
    pub injector: Option<FaultInjector>,
    /// Run seed, used for deterministic backoff jitter.
    pub seed: u64,
}

impl Resilience {
    /// A no-fault, no-retry configuration (the default run mode).
    pub fn passive(seed: u64) -> Self {
        Self { policy: RetryPolicy::default(), injector: None, seed }
    }

    /// A configuration from user knobs: an optional fault plan plus the
    /// retry/deadline settings.
    pub fn new(plan: Option<FaultPlan>, policy: RetryPolicy, seed: u64) -> Self {
        let injector = plan
            .filter(|p| !p.is_empty())
            .map(|p| FaultInjector::new(p, seed));
        Self { policy, injector, seed }
    }
}

/// The successful outcome of a recovered operation.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The operation's result.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Faults injected across those attempts.
    pub faults: u32,
}

/// Why a recovered operation ultimately failed.
#[derive(Debug)]
pub struct RecoveryFailure {
    /// The last error observed.
    pub error: BdbError,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// Faults injected across those attempts.
    pub faults: u32,
    /// True when the per-operation deadline, not the retry budget, ended
    /// the operation (callers should stop failing over).
    pub deadline_hit: bool,
    /// True when the operation crashed (an injected `crash@` fault or a
    /// [`BdbError::Crashed`] kill point below the engine): terminal —
    /// no retry was attempted and callers must not fail over.
    pub crashed: bool,
}

/// Run `f` under the resilience configuration: inject faults before each
/// attempt, convert panics into structured errors, back off between
/// attempts, and honour the deadline measured from `started`. Records one
/// [`TraceEvent`] per injected fault, retry, and deadline hit.
pub fn run_with_recovery<T>(
    res: &Resilience,
    trace: &RunTrace,
    site: &FaultSite,
    started: Instant,
    f: &mut dyn FnMut() -> Result<T>,
) -> std::result::Result<Recovered<T>, RecoveryFailure> {
    let mut faults = 0u32;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if let Some(deadline_ms) = res.policy.deadline_ms {
            let elapsed_ms = started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            if elapsed_ms >= deadline_ms {
                trace.record(TraceEvent::DeadlineExceeded {
                    site: site.to_string(),
                    elapsed_ms,
                    deadline_ms,
                });
                return Err(RecoveryFailure {
                    error: BdbError::Execution(format!(
                        "deadline of {deadline_ms} ms exceeded at {site} after {elapsed_ms} ms"
                    )),
                    attempts: attempt - 1,
                    faults,
                    deadline_hit: true,
                    crashed: false,
                });
            }
        }
        let injected = res.injector.as_ref().and_then(|inj| inj.sample(site));
        let outcome: Result<T> = match injected {
            Some(fault) => {
                faults += 1;
                trace.record(TraceEvent::FaultInjected {
                    site: site.to_string(),
                    kind: fault.kind.to_string(),
                    latency_ms: if fault.kind == FaultKind::Latency { fault.latency_ms } else { 0 },
                });
                match fault.kind {
                    FaultKind::Error => Err(BdbError::Execution(format!(
                        "injected engine fault at {site} (attempt {attempt})"
                    ))),
                    FaultKind::Panic => Err(injected_worker_panic(site)),
                    FaultKind::Crash => Err(BdbError::Crashed(format!(
                        "injected kill point at {site} (attempt {attempt})"
                    ))),
                    FaultKind::Latency => {
                        std::thread::sleep(Duration::from_millis(fault.latency_ms));
                        run_guarded(f)
                    }
                }
            }
            None => run_guarded(f),
        };
        match outcome {
            Ok(value) => return Ok(Recovered { value, attempts: attempt, faults }),
            Err(error) => {
                // A crash is not a transient fault: the process (or the
                // simulated one) is gone, so retrying in place would run
                // against dead state. Surface it immediately; recovery is
                // a fresh open + `--resume`, not another attempt.
                if error.is_crash() {
                    return Err(RecoveryFailure {
                        error,
                        attempts: attempt,
                        faults,
                        deadline_hit: false,
                        crashed: true,
                    });
                }
                if attempt >= res.policy.attempts() {
                    return Err(RecoveryFailure {
                        error,
                        attempts: attempt,
                        faults,
                        deadline_hit: false,
                        crashed: false,
                    });
                }
                let delay = res.policy.delay(res.seed, attempt);
                trace.record(TraceEvent::OperationRetried {
                    site: site.to_string(),
                    attempt,
                    delay_ms: delay.as_millis().min(u128::from(u64::MAX)) as u64,
                    error: error.to_string(),
                });
                std::thread::sleep(delay);
            }
        }
    }
}

/// Run one attempt, converting any panic (an engine bug, or an injected
/// worker panic that escaped a non-hardened path) into a structured error.
fn run_guarded<T>(f: &mut dyn FnMut() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(&mut *f)) {
        Ok(result) => result,
        Err(payload) => Err(BdbError::Execution(format!(
            "operation panicked: {}",
            pool::panic_message(payload.as_ref())
        ))),
    }
}

/// Fire a real panic inside a real pool worker thread and surface the
/// structured error the hardened pool produces — the fault path a
/// generator-worker crash takes in production.
fn injected_worker_panic(site: &FaultSite) -> BdbError {
    let outcome = pool::try_par_map(2, vec![true, false], |crash| {
        if crash {
            panic!("injected worker panic at {site}");
        }
    });
    match outcome {
        Err(panic) => BdbError::Execution(format!(
            "worker panic in task {}: {}",
            panic.task_index, panic.message
        )),
        Ok(_) => BdbError::Execution(format!("injected worker panic at {site}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> FaultSite {
        FaultSite::execution("sql", "micro/sort")
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
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} should not parse");
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
        // Cap reached.
        assert!(inj.sample(&dg).is_none());
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let p = RetryPolicy { max_retries: 8, base_delay_ms: 10, max_delay_ms: 100, deadline_ms: None };
        let d1 = p.delay(3, 1);
        let d2 = p.delay(3, 2);
        assert_eq!(d1, p.delay(3, 1), "same seed+attempt = same delay");
        assert!(d2 >= d1, "backoff should not shrink: {d1:?} -> {d2:?}");
        assert!(p.delay(3, 8) <= Duration::from_millis(100), "cap applies");
        assert!(d1 >= Duration::from_millis(10) && d1 <= Duration::from_millis(15));
    }

    #[test]
    fn recovery_retries_until_success() {
        let plan: FaultPlan = "error@exec:1:max=2".parse().unwrap();
        let res = Resilience::new(
            Some(plan),
            RetryPolicy { max_retries: 3, base_delay_ms: 1, ..RetryPolicy::default() },
            9,
        );
        let trace = RunTrace::new();
        let mut calls = 0;
        let rec = run_with_recovery(&res, &trace, &site(), Instant::now(), &mut || {
            calls += 1;
            Ok(42)
        })
        .unwrap();
        assert_eq!(rec.value, 42);
        assert_eq!(rec.attempts, 3, "two injected failures, third attempt runs");
        assert_eq!(rec.faults, 2);
        assert_eq!(calls, 1, "injected errors never reach the operation");
        let labels: Vec<&str> = trace.events().iter().map(|e| e.label()).collect();
        assert_eq!(
            labels,
            vec!["fault_injected", "operation_retried", "fault_injected", "operation_retried"]
        );
    }

    #[test]
    fn recovery_exhausts_retries() {
        let plan: FaultPlan = "error@exec:1".parse().unwrap();
        let res = Resilience::new(
            Some(plan),
            RetryPolicy { max_retries: 2, base_delay_ms: 1, ..RetryPolicy::default() },
            9,
        );
        let trace = RunTrace::new();
        let fail = run_with_recovery::<u32>(&res, &trace, &site(), Instant::now(), &mut || Ok(1))
            .unwrap_err();
        assert_eq!(fail.attempts, 3);
        assert_eq!(fail.faults, 3, "every attempt was an injected fault");
        assert!(!fail.deadline_hit);
        assert!(fail.error.to_string().contains("injected engine fault"));
    }

    #[test]
    fn deadline_stops_retrying() {
        let res = Resilience::new(
            Some("error@exec:1".parse().unwrap()),
            RetryPolicy {
                max_retries: 100,
                base_delay_ms: 1,
                max_delay_ms: 2,
                deadline_ms: Some(0),
            },
            9,
        );
        let trace = RunTrace::new();
        let fail = run_with_recovery::<u32>(&res, &trace, &site(), Instant::now(), &mut || Ok(1))
            .unwrap_err();
        assert!(fail.deadline_hit);
        assert_eq!(fail.attempts, 0);
        assert_eq!(fail.faults, 0);
        assert!(trace.events().iter().any(|e| e.label() == "deadline_exceeded"));
    }

    #[test]
    fn injected_crash_is_terminal_despite_retry_budget() {
        let plan: FaultPlan = "crash@exec:1".parse().unwrap();
        let res = Resilience::new(
            Some(plan),
            RetryPolicy { max_retries: 5, base_delay_ms: 1, ..RetryPolicy::default() },
            9,
        );
        let trace = RunTrace::new();
        let mut calls = 0;
        let fail = run_with_recovery::<u32>(&res, &trace, &site(), Instant::now(), &mut || {
            calls += 1;
            Ok(1)
        })
        .unwrap_err();
        assert!(fail.crashed);
        assert!(fail.error.is_crash());
        assert_eq!(fail.attempts, 1, "a crash must not be retried");
        assert_eq!(fail.faults, 1);
        assert_eq!(calls, 0, "the crash pre-empts the operation");
        let labels: Vec<&str> = trace.events().iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["fault_injected"], "no retry events after a crash");
    }

    #[test]
    fn crash_errors_from_the_operation_are_terminal_too() {
        let res = Resilience {
            policy: RetryPolicy { max_retries: 5, base_delay_ms: 1, ..RetryPolicy::default() },
            injector: None,
            seed: 0,
        };
        let trace = RunTrace::new();
        let fail = run_with_recovery::<u32>(&res, &trace, &site(), Instant::now(), &mut || {
            Err(BdbError::Crashed("kill point mid-WAL-append".into()))
        })
        .unwrap_err();
        assert!(fail.crashed);
        assert_eq!(fail.attempts, 1);
        assert_eq!(fail.faults, 0, "a real kill point is not an injected fault");
        assert!(trace.is_empty(), "no retry events for a real kill point");
    }

    #[test]
    fn injected_panic_becomes_structured_error() {
        let plan: FaultPlan = "panic@exec:1:max=1".parse().unwrap();
        let res = Resilience::new(
            Some(plan),
            RetryPolicy { max_retries: 1, base_delay_ms: 1, ..RetryPolicy::default() },
            3,
        );
        let trace = RunTrace::new();
        let rec = run_with_recovery(&res, &trace, &site(), Instant::now(), &mut || Ok(7u32))
            .unwrap();
        assert_eq!(rec.value, 7);
        assert_eq!(rec.attempts, 2);
        let retried = trace.events().iter().any(|e| match e {
            TraceEvent::OperationRetried { error, .. } => error.contains("worker panic"),
            _ => false,
        });
        assert!(retried, "retry event should carry the structured panic error");
    }

    #[test]
    fn real_panics_in_the_operation_are_caught() {
        let res = Resilience {
            policy: RetryPolicy { max_retries: 1, base_delay_ms: 1, ..RetryPolicy::default() },
            injector: None,
            seed: 0,
        };
        let trace = RunTrace::new();
        let mut first = true;
        let rec = run_with_recovery(&res, &trace, &site(), Instant::now(), &mut || {
            if std::mem::take(&mut first) {
                panic!("engine bug");
            }
            Ok(1u32)
        })
        .unwrap();
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.faults, 0);
    }

    #[test]
    fn passive_resilience_is_transparent() {
        let res = Resilience::passive(1);
        let trace = RunTrace::new();
        let rec = run_with_recovery(&res, &trace, &site(), Instant::now(), &mut || Ok("ok"))
            .unwrap();
        assert_eq!(rec.value, "ok");
        assert_eq!(rec.attempts, 1);
        assert!(trace.is_empty(), "no events on the happy path");
    }
}
