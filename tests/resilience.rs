//! End-to-end tests for resilient execution: deterministic fault
//! injection, retry with backoff, deadlines, a failure that stays on the
//! engine it was routed to, and the recovery trace/report contract.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::analyzer::RecoverySummary;
use bdbench::exec::trace::TraceEvent;
use bdbench::testgen::SystemKind;

fn chaos_spec(faults: &str, retries: u32) -> BenchmarkSpec {
    BenchmarkSpec::new("chaos")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(200)
        .with_seed(17)
        .with_faults(faults.parse().unwrap())
        .with_retries(retries)
}

#[test]
fn injected_errors_are_retried_to_success() {
    // Exactly the first two execution attempts fail; the third runs.
    let run = Benchmark::new().run(&chaos_spec("error@exec:1:max=2", 3)).unwrap();
    assert_eq!(run.results.len(), 1);
    let events = run.trace.events();
    let faults = events.iter().filter(|e| e.label() == "fault_injected").count();
    let retries = events.iter().filter(|e| e.label() == "operation_retried").count();
    assert_eq!(faults, 2);
    assert_eq!(retries, 2);
    // Degradation is visible on the result itself.
    assert_eq!(run.results[0].detail("attempts"), Some(3.0));
    // ... and in the analysis report.
    assert!(run.analysis.contains("== Resilience =="), "{}", run.analysis);
}

#[test]
fn exhausted_engine_fails_the_run() {
    // retries=1 gives the routed engine two attempts and max=2 makes both
    // fail. The failure is the run's result: no other engine runs it.
    let err = Benchmark::new().run(&chaos_spec("error@exec:1:max=2", 1)).unwrap_err();
    assert!(
        err.to_string().contains("exec/native:micro/wordcount (attempt 2)"),
        "unexpected error: {err}"
    );
}

#[test]
fn fault_and_recovery_sequence_is_deterministic() {
    // Same seed + same plan => identical recovery event sequence, byte
    // for byte (delays included — jitter derives from the seed).
    let spec = chaos_spec("error@any:0.4,latency@exec:0.5:ms=1", 4);
    let recovery = |spec: &BenchmarkSpec| -> Vec<TraceEvent> {
        Benchmark::new()
            .run(spec)
            .unwrap()
            .trace
            .events()
            .into_iter()
            .filter(|e| e.is_recovery())
            .collect()
    };
    let a = recovery(&spec);
    let b = recovery(&spec);
    assert_eq!(a, b, "recovery sequence must be reproducible");
    assert!(!a.is_empty(), "the plan should have injected something");

    // A different seed produces a different sequence (rates are not 0/1).
    let c = recovery(&spec.clone().with_seed(18));
    assert_ne!(a, c, "different seeds should produce different chaos");
}

#[test]
fn generator_worker_panic_is_survived_and_recorded() {
    // A panic injected into data generation rides through a real pool
    // worker; the hardened pool converts it to an error and the retry
    // loop recovers. The process must not abort.
    let spec = BenchmarkSpec::new("panic")
        .with_prescription("micro/wordcount")
        .with_scale(200)
        .with_seed(23)
        .with_faults("panic@datagen:1:max=1".parse().unwrap())
        .with_retries(2);
    let run = Benchmark::new().run(&spec).unwrap();
    assert_eq!(run.results.len(), 1);
    let events = run.trace.events();
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::FaultInjected { site, kind, .. }
            if kind == "panic" && site.starts_with("datagen/")
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::OperationRetried { error, .. } if error.contains("worker panic")
    )));
    // The generated data is unaffected by the recovered crash.
    assert_eq!(run.data_summary[0].2, 200);
}

#[test]
fn deadline_bounds_the_whole_dispatch() {
    // Every attempt fails and the deadline is tiny: the run must give up
    // quickly with a deadline error instead of exhausting 50 retries.
    let spec = chaos_spec("error@exec:1", 50).with_deadline_ms(40);
    let err = Benchmark::new().run(&spec).unwrap_err().to_string();
    assert!(err.contains("deadline"), "unexpected error: {err}");
}

#[test]
fn recovery_summary_matches_trace_counts() {
    let run = Benchmark::new().run(&chaos_spec("error@exec:1:max=2", 3)).unwrap();
    let summary = RecoverySummary::from_events(&run.trace.events());
    assert_eq!(summary.faults_injected(), 2);
    assert_eq!(summary.retries, 2);
    assert_eq!(summary.deadline_hits, 0);
    assert!(summary.added_latency_ms > 0, "backoff delays should accrue");
    assert!(!summary.is_quiet());
    // One degraded site out of two resilient ops (1 datagen + 1 dispatch).
    assert_eq!(summary.total_ops, 2);
    assert!((summary.degraded_pct() - 0.5).abs() < 1e-9);
}

#[test]
fn clean_runs_stay_clean() {
    // No fault plan: no recovery events, no resilience section, no
    // degradation details on results.
    let spec = BenchmarkSpec::new("clean")
        .with_prescription("micro/wordcount")
        .with_scale(200)
        .with_seed(17);
    let run = Benchmark::new().run(&spec).unwrap();
    assert!(run.trace.events().iter().all(|e| !e.is_recovery()));
    assert!(!run.analysis.contains("== Resilience =="));
    assert_eq!(run.results[0].detail("attempts"), None);
}

// ---------------------------------------------------------------------
// RetryPolicy properties: the backoff envelope, attempt accounting, and
// the deadline contract.

mod retry_policy_properties {
    use bdbench::common::BdbError;
    use bdbench::exec::fault::{run_with_recovery, FaultSite, Resilience, RetryPolicy};
    use bdbench::exec::trace::RunTrace;
    use proptest::prelude::*;
    use std::time::Instant;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Jittered backoff stays inside its envelope for arbitrary
        /// policies: at least the capped exponential delay, at most the
        /// cap, and never more than +50% jitter over the exponential.
        #[test]
        fn backoff_delay_stays_within_envelope(
            seed in any::<u64>(),
            attempt in 1u32..=30,
            base in 0u64..=5_000,
            max in 1u64..=10_000,
        ) {
            let policy = RetryPolicy {
                max_retries: 5,
                base_delay_ms: base,
                max_delay_ms: max,
                deadline_ms: None,
            };
            let exp = base
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
                .min(max);
            let delay = policy.delay(seed, attempt).as_millis() as u64;
            prop_assert!(delay >= exp, "delay {delay} under exponential floor {exp}");
            prop_assert!(delay <= max, "delay {delay} over cap {max}");
            prop_assert!(
                delay as f64 <= exp as f64 * 1.5,
                "delay {delay} over jitter ceiling for exp {exp}"
            );
        }

        /// Backoff is deterministic in (seed, attempt) and monotone in
        /// the uncapped region: doubling attempts never shrinks the
        /// exponential floor.
        #[test]
        fn backoff_is_deterministic(seed in any::<u64>(), attempt in 1u32..=30) {
            let policy = RetryPolicy::default();
            prop_assert_eq!(policy.delay(seed, attempt), policy.delay(seed, attempt));
        }

        /// An always-failing operation consumes exactly the attempts the
        /// policy allows — max_retries + 1 — and records one retry event
        /// per backoff.
        #[test]
        fn attempt_counts_match_policy(retries in 0u32..6, seed in any::<u64>()) {
            let policy = RetryPolicy {
                max_retries: retries,
                base_delay_ms: 0,
                max_delay_ms: 0,
                deadline_ms: None,
            };
            let res = Resilience::new(None, policy, seed);
            let trace = RunTrace::new();
            let site = FaultSite::execution("native", "prop/always-fails");
            let mut calls = 0u32;
            let failure = run_with_recovery::<()>(
                &res,
                &trace,
                &site,
                Instant::now(),
                &mut || {
                    calls += 1;
                    Err(BdbError::Execution("always fails".into()))
                },
            )
            .unwrap_err();
            prop_assert_eq!(failure.attempts, retries + 1);
            prop_assert_eq!(calls, retries + 1);
            prop_assert!(!failure.deadline_hit);
            let retry_events = trace
                .events()
                .iter()
                .filter(|e| e.label() == "operation_retried")
                .count();
            prop_assert_eq!(retry_events as u32, retries);
        }
    }

    proptest! {
        // Real sleeps are involved: keep the case count low.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The deadline is overshot by at most one backoff sleep (plus
        /// scheduling slack): the check runs before every attempt, so the
        /// worst case is a sleep that started just inside the budget.
        #[test]
        fn deadline_exceeded_by_at_most_one_sleep(
            deadline in 1u64..12,
            delay in 1u64..8,
        ) {
            let policy = RetryPolicy {
                max_retries: u32::MAX,
                base_delay_ms: delay,
                max_delay_ms: delay,
                deadline_ms: Some(deadline),
            };
            let res = Resilience::new(None, policy, 1);
            let trace = RunTrace::new();
            let site = FaultSite::execution("native", "prop/deadline");
            let started = Instant::now();
            let failure = run_with_recovery::<()>(
                &res,
                &trace,
                &site,
                started,
                &mut || Err(BdbError::Execution("always fails".into())),
            )
            .unwrap_err();
            let elapsed = started.elapsed().as_millis() as u64;
            prop_assert!(failure.deadline_hit);
            // deadline + one full (jittered) sleep + generous OS slack.
            prop_assert!(
                elapsed <= deadline + delay * 2 + 60,
                "overshot: {elapsed} ms vs deadline {deadline} + sleep {delay}"
            );
            prop_assert!(
                trace.events().iter().any(|e| e.label() == "deadline_exceeded")
            );
        }
    }

    /// A deadline of zero fails before the first attempt even runs.
    #[test]
    fn zero_deadline_fails_without_attempting() {
        let policy = RetryPolicy::default().with_deadline_ms(0);
        let res = Resilience::new(None, policy, 1);
        let trace = RunTrace::new();
        let site = FaultSite::execution("native", "prop/zero-deadline");
        let mut calls = 0u32;
        let failure = run_with_recovery::<()>(
            &res,
            &trace,
            &site,
            Instant::now(),
            &mut || {
                calls += 1;
                Err(BdbError::Execution("unreachable".into()))
            },
        )
        .unwrap_err();
        assert!(failure.deadline_hit);
        assert_eq!(failure.attempts, 0);
        assert_eq!(calls, 0);
    }
}
