//! Per-engine circuit breakers for health-aware serving.
//!
//! A persistently failing engine should stop being offered traffic:
//! routing demotes it, dispatch skips it, and the load driver's admission
//! controller sheds proportionally while it recovers. Each engine gets a
//! three-state breaker:
//!
//! * **Closed** — healthy. Outcomes are folded into a sliding window; when
//!   the windowed failure rate reaches the trip ratio (and the window has
//!   seen a minimum number of samples), the breaker opens.
//! * **Open** — failing. Admissions are denied; after a fixed number of
//!   denied admissions (the cooldown) the breaker moves to half-open.
//!   Counting denials instead of wall-clock time keeps recovery
//!   seed-deterministic: the same arrival sequence always probes at the
//!   same point.
//! * **HalfOpen** — probing. A deterministic subset of arrivals (one per
//!   `probe_stride`, at a seed-derived phase) is admitted as a probe;
//!   everything else is still denied. Consecutive probe successes close
//!   the breaker; one probe failure reopens it.
//!
//! The [`HealthStore`] is the thread-safe shared home of all breakers:
//! interior-mutable behind a mutex, shareable as `Arc<HealthStore>`
//! between the registry (which demotes open engines in
//! [`crate::engine::EngineRegistry::route_all`]), resilient dispatch
//! (which skips open engines and records outcomes) and the load driver's
//! brownout controller. The store emits no trace events itself; call
//! sites translate returned transitions into [`crate::trace::TraceEvent`]s
//! so the event stream stays attributable.

use crate::trace::{RunTrace, TraceEvent};
use bdb_common::hash::Fnv1a;
use bdb_common::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// One breaker's position in the closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: all admissions allowed.
    Closed,
    /// Failing: admissions denied until the cooldown elapses.
    Open,
    /// Probing: only stride-selected probe admissions allowed.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Thresholds governing every breaker in a [`HealthStore`].
///
/// A run's registry uses [`BreakerPolicy::default`]; tests build tighter
/// policies through [`HealthStore::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Sliding outcome-window length (samples), ≥ 1.
    pub window: usize,
    /// Windowed failure rate that trips the breaker, in `(0, 1]`.
    pub trip_ratio: f64,
    /// Outcomes required in the window before it may trip, ≥ 1 —
    /// a single early failure must not open a cold breaker.
    pub min_samples: usize,
    /// Denied admissions while open before moving to half-open, ≥ 1.
    pub cooldown: u64,
    /// While half-open, one arrival per `probe_stride` (at a seed-derived
    /// phase) is admitted as a probe, ≥ 1.
    pub probe_stride: u64,
    /// Consecutive probe successes that close the breaker, ≥ 1.
    pub close_after: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            window: 16,
            trip_ratio: 0.5,
            min_samples: 4,
            cooldown: 8,
            probe_stride: 4,
            close_after: 2,
        }
    }
}

/// The verdict of one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// May the operation run on this engine?
    pub allowed: bool,
    /// Is an allowed operation a half-open probe (its outcome decides
    /// whether the breaker closes or reopens)?
    pub probe: bool,
    /// Breaker state after the admission decision.
    pub state: BreakerState,
    /// Did this very call move the breaker open → half-open (the caller
    /// should record a `breaker_half_open` trace event)?
    pub half_opened: bool,
}

/// What recording one outcome did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recorded {
    /// The state the breaker moved to, when this outcome changed it.
    pub transition: Option<BreakerState>,
    /// Windowed failure rate after folding the outcome in.
    pub failure_rate: f64,
}

/// A point-in-time view of one engine's breaker, for summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    /// Engine name.
    pub engine: String,
    /// Current state.
    pub state: BreakerState,
    /// Closed→open (and half-open→open) transitions so far.
    pub trips: u64,
    /// Half-open→closed transitions so far.
    pub recoveries: u64,
    /// Probe operations admitted while half-open.
    pub probes: u64,
    /// Probes that failed (each one reopened the breaker).
    pub probe_failures: u64,
    /// Current windowed failure rate.
    pub failure_rate: f64,
}

#[derive(Debug, Default)]
struct Breaker {
    state: Option<BreakerState>, // None until first touch; treated as Closed
    window: VecDeque<bool>,      // true = failure
    denied: u64,                 // admissions denied in the current open spell
    probe_successes: u32,        // consecutive, in the current half-open spell
    probe_draws: u64,            // half-open admission draws (stride clock)
    trips: u64,
    recoveries: u64,
    probes: u64,
    probe_failures: u64,
}

impl Breaker {
    fn state(&self) -> BreakerState {
        self.state.unwrap_or(BreakerState::Closed)
    }

    fn failure_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().filter(|f| **f).count() as f64 / self.window.len() as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    policy: BreakerPolicy,
    seed: u64,
    breakers: BTreeMap<String, Breaker>,
}

/// Thread-safe shared store of per-engine circuit breakers.
///
/// Interior-mutable and shareable (`Arc<HealthStore>`): the registry
/// records outcomes into it after every dispatch and reads it to demote
/// open engines, and the load driver's pacer consults it for admission and brownout.
#[derive(Debug)]
pub struct HealthStore {
    inner: Mutex<Inner>,
}

impl Default for HealthStore {
    fn default() -> Self {
        Self::new(BreakerPolicy::default(), 0)
    }
}

impl HealthStore {
    /// A store where every breaker starts closed.
    pub fn new(policy: BreakerPolicy, seed: u64) -> Self {
        Self {
            inner: Mutex::new(Inner { policy, seed, breakers: BTreeMap::new() }),
        }
    }

    /// Re-arm the store for a new run: adopt the run's seed and forget
    /// every breaker. Interior-mutable so a shared registry can be
    /// re-armed per run without `&mut` access.
    pub fn reset(&self, seed: u64) {
        let mut inner = self.lock();
        inner.seed = seed;
        inner.breakers.clear();
    }

    /// May an operation run on `engine` right now?
    ///
    /// Closed breakers always admit. Open breakers deny, and after
    /// `cooldown` denials transition to half-open (reported via
    /// [`Admission::half_opened`]). Half-open breakers admit one probe
    /// per `probe_stride` arrivals at a seed-derived phase, so the same
    /// arrival sequence always probes at the same points.
    pub fn admit(&self, engine: &str) -> Admission {
        let mut inner = self.lock();
        let Inner { policy, seed, breakers } = &mut *inner;
        let phase = SplitMix64::mix(*seed ^ Fnv1a::hash(engine.as_bytes())) % policy.probe_stride;
        let b = breakers.entry(engine.to_string()).or_default();
        let mut half_opened = false;
        if b.state() == BreakerState::Open {
            b.denied += 1;
            if b.denied >= policy.cooldown {
                b.state = Some(BreakerState::HalfOpen);
                b.denied = 0;
                b.probe_successes = 0;
                b.probe_draws = 0;
                half_opened = true;
            } else {
                return Admission {
                    allowed: false,
                    probe: false,
                    state: BreakerState::Open,
                    half_opened: false,
                };
            }
        }
        match b.state() {
            BreakerState::Closed => Admission {
                allowed: true,
                probe: false,
                state: BreakerState::Closed,
                half_opened: false,
            },
            BreakerState::HalfOpen => {
                let draw = b.probe_draws;
                b.probe_draws += 1;
                let probe = draw % policy.probe_stride == phase;
                if probe {
                    b.probes += 1;
                }
                Admission {
                    allowed: probe,
                    probe,
                    state: BreakerState::HalfOpen,
                    half_opened,
                }
            }
            BreakerState::Open => unreachable!("open handled above"),
        }
    }

    /// Fold one operation outcome into `engine`'s breaker. `probe` must
    /// echo the [`Admission::probe`] flag the operation was admitted
    /// under. Returns any state transition for the caller to trace.
    pub fn record(&self, engine: &str, ok: bool, probe: bool) -> Recorded {
        let mut inner = self.lock();
        let Inner { policy, breakers, .. } = &mut *inner;
        let b = breakers.entry(engine.to_string()).or_default();
        b.window.push_back(!ok);
        while b.window.len() > policy.window {
            b.window.pop_front();
        }
        let failure_rate = b.failure_rate();
        let transition = match b.state() {
            BreakerState::Closed => {
                if b.window.len() >= policy.min_samples && failure_rate >= policy.trip_ratio {
                    b.state = Some(BreakerState::Open);
                    b.denied = 0;
                    b.trips += 1;
                    Some(BreakerState::Open)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen if probe => {
                if ok {
                    b.probe_successes += 1;
                    if b.probe_successes >= policy.close_after {
                        b.state = Some(BreakerState::Closed);
                        b.window.clear();
                        b.probe_successes = 0;
                        b.recoveries += 1;
                        Some(BreakerState::Closed)
                    } else {
                        None
                    }
                } else {
                    b.probe_failures += 1;
                    b.state = Some(BreakerState::Open);
                    b.denied = 0;
                    b.probe_successes = 0;
                    b.trips += 1;
                    Some(BreakerState::Open)
                }
            }
            // A straggler completing after the breaker tripped (or a
            // non-probe outcome racing a half-open spell) updates the
            // window but cannot transition anything.
            BreakerState::Open | BreakerState::HalfOpen => None,
        };
        Recorded { transition, failure_rate }
    }

    /// [`Self::record`] plus the trace events that go with it:
    /// `ProbeResult` for a probe, then `BreakerOpened` / `BreakerClosed`
    /// when the outcome moved the breaker.
    pub(crate) fn record_traced(
        &self,
        trace: &RunTrace,
        engine: &str,
        ok: bool,
        probe: bool,
    ) -> Recorded {
        if probe {
            trace.record(TraceEvent::ProbeResult { engine: engine.to_string(), ok });
        }
        let recorded = self.record(engine, ok, probe);
        match recorded.transition {
            Some(BreakerState::Open) => trace.record(TraceEvent::BreakerOpened {
                engine: engine.to_string(),
                failure_rate: recorded.failure_rate,
            }),
            Some(BreakerState::Closed) => {
                trace.record(TraceEvent::BreakerClosed { engine: engine.to_string() });
            }
            _ => {}
        }
        recorded
    }

    /// Current state of `engine`'s breaker (closed when never touched).
    pub fn state(&self, engine: &str) -> BreakerState {
        self.lock().breakers.get(engine).map_or(BreakerState::Closed, Breaker::state)
    }

    /// Is `engine`'s breaker fully open (probes not yet allowed)?
    pub fn is_open(&self, engine: &str) -> bool {
        self.state(engine) == BreakerState::Open
    }

    /// Engines whose breaker is not closed, with their state, in name
    /// order — the fail-fast error names these.
    pub fn unhealthy(&self) -> Vec<(String, BreakerState)> {
        self.lock()
            .breakers
            .iter()
            .filter(|(_, b)| b.state() != BreakerState::Closed)
            .map(|(e, b)| (e.clone(), b.state()))
            .collect()
    }

    /// Total closed→open trips across all engines.
    pub fn trips(&self, engine: &str) -> u64 {
        self.lock().breakers.get(engine).map_or(0, |b| b.trips)
    }

    /// Every breaker's point-in-time view, in engine order.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        self.lock()
            .breakers
            .iter()
            .map(|(engine, b)| BreakerSnapshot {
                engine: engine.clone(),
                state: b.state(),
                trips: b.trips,
                recoveries: b.recoveries,
                probes: b.probes,
                probe_failures: b.probe_failures,
                failure_rate: b.failure_rate(),
            })
            .collect()
    }

    /// Number of engines with breaker history.
    pub fn len(&self) -> usize {
        self.lock().breakers.len()
    }

    /// True when no breaker has been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("health store poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tight() -> BreakerPolicy {
        BreakerPolicy {
            window: 4,
            trip_ratio: 0.5,
            min_samples: 2,
            cooldown: 3,
            probe_stride: 2,
            close_after: 2,
        }
    }

    /// Trip the breaker with `n` straight failures.
    fn trip(store: &HealthStore, engine: &str, n: usize) {
        for _ in 0..n {
            store.record(engine, false, false);
        }
    }

    #[test]
    fn cold_breaker_admits_and_stays_closed_on_success() {
        let s = HealthStore::new(tight(), 7);
        let a = s.admit("kv");
        assert!(a.allowed && !a.probe && a.state == BreakerState::Closed);
        for _ in 0..10 {
            assert!(s.record("kv", true, false).transition.is_none());
        }
        assert_eq!(s.state("kv"), BreakerState::Closed);
        assert!(s.unhealthy().is_empty());
    }

    #[test]
    fn single_early_failure_does_not_trip() {
        let s = HealthStore::new(tight(), 7);
        // min_samples = 2: one failure alone is 100% of a 1-sample window
        // but must not trip a cold breaker.
        assert!(s.record("kv", false, false).transition.is_none());
        assert_eq!(s.state("kv"), BreakerState::Closed);
    }

    #[test]
    fn full_lifecycle_closed_open_half_open_closed() {
        let s = HealthStore::new(tight(), 7);
        trip(&s, "kv", 2);
        assert_eq!(s.state("kv"), BreakerState::Open);
        assert_eq!(s.trips("kv"), 1);
        // Cooldown: two denials, then the third admission half-opens.
        assert!(!s.admit("kv").allowed);
        assert!(!s.admit("kv").allowed);
        let mut half_opened = false;
        let mut probe_results = 0;
        // Drive admissions until two probe successes close the breaker.
        for _ in 0..16 {
            let a = s.admit("kv");
            half_opened |= a.half_opened;
            assert_ne!(a.state, BreakerState::Open, "cooldown elapsed");
            if a.allowed {
                assert!(a.probe);
                let r = s.record("kv", true, true);
                probe_results += 1;
                if probe_results == 2 {
                    assert_eq!(r.transition, Some(BreakerState::Closed));
                    break;
                }
            }
        }
        assert!(half_opened);
        assert_eq!(s.state("kv"), BreakerState::Closed);
        let snap = &s.snapshot()[0];
        assert_eq!((snap.trips, snap.recoveries, snap.probes), (1, 1, 2));
        assert_eq!(snap.state, BreakerState::Closed);
        // The window was cleared on close: old failures are forgotten.
        assert_eq!(snap.failure_rate, 0.0);
    }

    #[test]
    fn failed_probe_reopens() {
        let s = HealthStore::new(tight(), 7);
        trip(&s, "kv", 2);
        let mut probed = false;
        for _ in 0..8 {
            let a = s.admit("kv");
            if a.allowed {
                let r = s.record("kv", false, true);
                assert_eq!(r.transition, Some(BreakerState::Open));
                probed = true;
                break;
            }
        }
        assert!(probed);
        assert_eq!(s.state("kv"), BreakerState::Open);
        assert_eq!(s.trips("kv"), 2);
        assert_eq!(s.snapshot()[0].probe_failures, 1);
    }

    #[test]
    fn straggler_outcome_while_open_cannot_transition() {
        let s = HealthStore::new(tight(), 7);
        trip(&s, "kv", 2);
        // An in-flight op completing after the trip updates the window
        // only.
        assert!(s.record("kv", true, false).transition.is_none());
        assert_eq!(s.state("kv"), BreakerState::Open);
    }

    #[test]
    fn breakers_are_independent_per_engine() {
        let s = HealthStore::new(tight(), 7);
        trip(&s, "kv", 2);
        assert_eq!(s.state("kv"), BreakerState::Open);
        assert_eq!(s.state("sql"), BreakerState::Closed);
        assert!(s.admit("sql").allowed);
        assert_eq!(s.unhealthy(), vec![("kv".to_string(), BreakerState::Open)]);
    }

    #[test]
    fn reset_forgets_history() {
        let s = HealthStore::new(tight(), 7);
        trip(&s, "kv", 2);
        s.reset(8);
        assert!(s.is_empty());
        assert_eq!(s.state("kv"), BreakerState::Closed);
    }

    /// Drive one breaker with a deterministic admission/outcome script
    /// and return every (from, to) transition observed.
    fn transitions(
        store: &HealthStore,
        outcomes: &[bool],
    ) -> Vec<(BreakerState, BreakerState)> {
        let mut seen = Vec::new();
        let mut prev = store.state("e");
        let mut it = outcomes.iter();
        // Interleave admissions and outcomes the way a serving loop does:
        // denied admissions consume no outcome.
        loop {
            let a = store.admit("e");
            if a.half_opened {
                seen.push((prev, BreakerState::HalfOpen));
                prev = BreakerState::HalfOpen;
            }
            if a.allowed {
                match it.next() {
                    Some(ok) => {
                        let r = store.record("e", *ok, a.probe);
                        if let Some(next) = r.transition {
                            seen.push((prev, next));
                            prev = next;
                        }
                    }
                    None => break,
                }
            } else if it.next().is_none() {
                // Outcomes exhausted while denied; stop driving.
                break;
            }
        }
        seen
    }

    proptest! {
        /// Only the four legal edges ever occur: closed→open, open→half-
        /// open, half-open→open, half-open→closed.
        #[test]
        fn transition_legality(outcomes in proptest::collection::vec(any::<bool>(), 1..200),
                               seed in any::<u64>()) {
            let s = HealthStore::new(tight(), seed);
            for (from, to) in transitions(&s, &outcomes) {
                let legal = matches!(
                    (from, to),
                    (BreakerState::Closed, BreakerState::Open)
                        | (BreakerState::Open, BreakerState::HalfOpen)
                        | (BreakerState::HalfOpen, BreakerState::Open)
                        | (BreakerState::HalfOpen, BreakerState::Closed)
                );
                prop_assert!(legal, "illegal transition {from} -> {to}");
            }
        }

        /// Never stuck open: from the open state, a probe is always
        /// admitted within `cooldown + probe_stride` arrivals.
        #[test]
        fn never_stuck_open(seed in any::<u64>(), engine in "[a-z]{1,12}") {
            let p = tight();
            let s = HealthStore::new(p, seed);
            for _ in 0..p.min_samples {
                s.record(&engine, false, false);
            }
            prop_assert_eq!(s.state(&engine), BreakerState::Open);
            let bound = p.cooldown + p.probe_stride;
            let admitted = (0..bound).any(|_| s.admit(&engine).allowed);
            prop_assert!(admitted, "no probe within {bound} arrivals");
        }

        /// Same seed and outcome script ⇒ identical trip/recover
        /// sequence; the snapshot (trips, recoveries, probes, state)
        /// matches exactly.
        #[test]
        fn same_seed_same_trip_sequence(outcomes in proptest::collection::vec(any::<bool>(), 1..200),
                                        seed in any::<u64>()) {
            let a = HealthStore::new(tight(), seed);
            let b = HealthStore::new(tight(), seed);
            let ta = transitions(&a, &outcomes);
            let tb = transitions(&b, &outcomes);
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(a.snapshot(), b.snapshot());
        }
    }
}
