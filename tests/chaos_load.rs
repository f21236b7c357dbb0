//! Chaos-under-load contracts: every fault kind injected under real
//! concurrency conserves ops (`issued == completed + shed + failed`),
//! closed-loop chaos counts are a pure function of the seed, open-loop
//! chaos conserves every op and stays conformant, and the pipeline
//! surfaces the chaos accounting from one `BenchmarkSpec`.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::loadgen::{run_load, LoadArrival, LoadProfile, LoadReport};
use bdbench::exec::trace::RunTrace;

fn profile(duration_ms: u64) -> LoadProfile {
    LoadProfile {
        clients: 2,
        inflight: 2,
        duration_ms,
        engines: Some(vec!["native".into()]),
        ..LoadProfile::default()
    }
}

/// Drive one closed-loop chaos run and return its single report.
fn drive(plan: &str, seed: u64) -> LoadReport {
    let registry = EngineRegistry::with_builtins();
    let trace = RunTrace::new();
    let mut reports =
        run_load(&registry, &profile(25), Some(&plan.parse().unwrap()), seed, &trace).unwrap();
    assert_eq!(reports.len(), 1);
    reports.pop().unwrap()
}

fn assert_conserved(r: &LoadReport) {
    assert_eq!(
        r.issued,
        r.completed + r.shed + r.failed,
        "conservation: {} != {} + {} + {}",
        r.issued,
        r.completed,
        r.shed,
        r.failed
    );
}

#[test]
fn error_faults_conserve_and_are_seed_deterministic() {
    let a = drive("error@exec:0.4", 21);
    let b = drive("error@exec:0.4", 21);
    assert_conserved(&a);
    assert!(a.failed > 0, "a 40% error rate must fail some ops");
    assert!(a.completed > 0, "most ops still complete");
    assert_eq!(a.faults, a.failed, "each injected error fails exactly its op");
    assert!(a.conformance_passed, "surviving ops must stay correct");
    // Same seed, same chaos: counts and schedule digest are identical.
    assert_eq!(
        (a.issued, a.completed, a.failed, a.faults),
        (b.issued, b.completed, b.failed, b.faults)
    );
    assert_eq!(a.digest, b.digest);
    // A different seed draws a different fault pattern.
    let c = drive("error@exec:0.4", 22);
    assert_ne!(
        (a.issued, a.faults),
        (c.issued, c.faults),
        "seed must steer the fault pattern"
    );
}

#[test]
fn latency_faults_slow_ops_without_failing_them() {
    let r = drive("latency@exec:0.5:ms=1", 7);
    assert_conserved(&r);
    assert_eq!(r.failed, 0, "latency faults delay, never fail");
    assert_eq!(r.completed, r.issued);
    assert!(r.faults > 0, "half the ops must have drawn a delay");
    assert!(r.conformance_passed);
}

#[test]
fn panic_faults_are_caught_and_fail_their_op() {
    let r = drive("panic@exec:0.2", 13);
    assert_conserved(&r);
    assert!(r.faults > 0, "a 20% panic rate must fire");
    assert_eq!(r.failed, r.faults, "a caught panic fails the op it hit");
    assert!(r.completed > 0, "the drive itself survives per-op panics");
    assert!(r.conformance_passed);
}

#[test]
fn crash_faults_are_terminal_per_op() {
    let r = drive("crash@exec:0.2", 17);
    assert_conserved(&r);
    assert!(r.failed > 0, "crashes must fail their op");
    assert_eq!(r.failed, r.faults, "each crash fails exactly its op");
    assert!(r.completed > 0, "the drive itself survives per-op crashes");
    assert!(r.conformance_passed);
}

#[test]
fn open_loop_chaos_conserves_every_op() {
    // A high error rate under open-loop arrivals fails ops on the one
    // target; shed/completed splits are timing-dependent there, but every
    // op is accounted for and the issued ops replay for a fixed seed.
    let spec = || {
        BenchmarkSpec::new("chaos")
            .with_seed(5)
            .with_faults("error@exec:0.8".parse().unwrap())
            .with_load(LoadProfile {
                arrival: LoadArrival::Uniform { rate_per_sec: 2000.0 },
                duration_ms: 100,
                // Check every surviving op: at one in 16, the few sampled
                // indices an 80% error rate spares can all be shed, and a
                // drive that sampled nothing is not conformant.
                sample_every: 1,
                ..profile(100)
            })
    };
    let b = Benchmark::new();
    let one = b.run_load(&spec()).unwrap();
    let two = b.run_load(&spec()).unwrap();
    for run in [&one, &two] {
        for r in &run.summary.reports {
            assert_conserved(r);
        }
        assert!(run.summary.all_conformant(), "{}", run.analysis);
        assert!(run.summary.total_failed() > 0, "an 80% error rate must fail ops");
        assert!(!run.analysis.contains("== Health =="), "{}", run.analysis);
    }
    assert_eq!(one.digest, two.digest);
}

#[test]
fn clean_load_keeps_its_analysis_quiet() {
    // No fault plan: the resilient path must match the passive driver's
    // surface — zero chaos counts, no health section, no chaos footer.
    let spec = BenchmarkSpec::new("quiet").with_seed(11).with_load(profile(20));
    let run = Benchmark::new().run_load(&spec).unwrap();
    for r in &run.summary.reports {
        assert_conserved(r);
        assert_eq!(r.failed + r.faults, 0);
    }
    assert!(!run.analysis.contains("== Health =="), "{}", run.analysis);
    assert!(!run.analysis.contains("chaos["), "{}", run.analysis);
}
