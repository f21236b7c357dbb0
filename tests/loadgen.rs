//! End-to-end contracts of the concurrent load driver: the issued-op
//! schedule is a pure function of the seed (never of concurrency), the
//! closed loop conserves ops, the open loop sheds instead of blocking
//! and never starts an op before its intended arrival, and KV readers
//! make progress while induced flushes hold the write lock.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::loadgen::{
    self, build_schedule, issued_digest, run_target, KvLoadTarget, LoadArrival, LoadOp,
    LoadProfile, LoadSession, LoadTarget, NativeLoadTarget, ScheduledOp, KEYSPACE,
};
use bdbench::exec::trace::RunTrace;
use bdbench::kv::lsm::LsmConfig;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn profile(clients: usize, duration_ms: u64) -> LoadProfile {
    LoadProfile {
        clients,
        inflight: 4,
        duration_ms,
        engines: Some(vec!["native".into()]),
        ..LoadProfile::default()
    }
}

/// The three arrival disciplines, all driven through the one lane loop.
fn arrivals() -> [LoadArrival; 3] {
    [
        LoadArrival::Closed,
        LoadArrival::Poisson { rate_per_sec: 4000.0 },
        LoadArrival::Uniform { rate_per_sec: 4000.0 },
    ]
}

#[test]
fn issued_digest_is_identical_across_client_counts() {
    // The acceptance contract: a fixed seed issues byte-identical ops
    // whether one client or eight drive them, under every discipline.
    let b = Benchmark::new();
    for arrival in arrivals() {
        let mut digests = Vec::new();
        for clients in [1, 8] {
            let spec = BenchmarkSpec::new("digest")
                .with_seed(0xBDBE)
                .with_load(LoadProfile { arrival, ..profile(clients, 20) });
            let run = b.run_load(&spec).unwrap();
            digests.push(run.digest.clone());
            assert!(run.summary.all_conformant(), "{arrival} clients={clients} diverged");
        }
        assert_eq!(digests[0], digests[1], "{arrival}");
    }
}

#[test]
fn schedule_is_seed_deterministic_and_seed_sensitive() {
    let p = profile(4, 50);
    let a = build_schedule(&p, 7).unwrap();
    let b = build_schedule(&p, 7).unwrap();
    let c = build_schedule(&p, 8).unwrap();
    assert_eq!(issued_digest(&a), issued_digest(&b));
    assert_ne!(issued_digest(&a), issued_digest(&c));
    // Open-loop schedules are deterministic too, and arrival times are
    // monotone non-decreasing.
    let open = LoadProfile {
        arrival: LoadArrival::Poisson { rate_per_sec: 4000.0 },
        ..p
    };
    let oa = build_schedule(&open, 7).unwrap();
    let ob = build_schedule(&open, 7).unwrap();
    assert_eq!(issued_digest(&oa), issued_digest(&ob));
    assert!(oa.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
}

#[test]
fn every_arrival_discipline_conserves_issued_ops() {
    let registry = EngineRegistry::with_builtins();
    for arrival in arrivals() {
        // A queue as long as the schedule never fills, so the open loops
        // shed nothing either and all three satisfy the same assertions.
        let p = LoadProfile { arrival, queue_capacity: Some(1 << 16), ..profile(3, 20) };
        let trace = RunTrace::new();
        let reports = loadgen::run_load(&registry, &p, None, 5, &trace).unwrap();
        let digest = issued_digest(&build_schedule(&p, 5).unwrap());
        for r in &reports {
            assert_eq!(r.shed, 0, "{arrival}");
            assert_eq!(r.issued, r.completed, "{arrival}");
            assert!(r.completed > 0, "{arrival}");
            assert!(r.conformance_passed, "{arrival}");
            assert_eq!(r.digest, digest, "{arrival}");
        }
        let sessions = |label: &str| trace.events().iter().filter(|e| e.label() == label).count();
        assert_eq!(sessions("load_session_started"), p.clients * reports.len(), "{arrival}");
        assert_eq!(sessions("load_session_finished"), p.clients * reports.len(), "{arrival}");
    }
}

/// The kv target with every op held 200 µs before it runs: four gaps of
/// a 20 000/s arrival clock, so two lanes serve half the offered rate.
struct SlowKv(KvLoadTarget);

struct SlowKvSession<'a>(Box<dyn LoadSession + 'a>);

impl LoadSession for SlowKvSession<'_> {
    fn execute(&mut self, op: &LoadOp) -> String {
        std::thread::sleep(Duration::from_micros(200));
        self.0.execute(op)
    }
}

impl LoadTarget for SlowKv {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(SlowKvSession(self.0.session()))
    }
    fn expected(&self, op: &LoadOp) -> String {
        self.0.expected(op)
    }
}

#[test]
fn open_loop_conserves_and_sheds_under_an_undersized_queue() {
    // One queue slot against arrivals twice as fast as the lanes can
    // serve them must shed, and every arrival is accounted for:
    // issued == completed + shed. A sleep never returns early, so the
    // backlog outgrows the slot whatever the timing of the box.
    let p = LoadProfile {
        clients: 2,
        inflight: 1,
        duration_ms: 80,
        arrival: LoadArrival::Uniform { rate_per_sec: 20_000.0 },
        queue_capacity: Some(1),
        engines: Some(vec!["kv".into()]),
        ..LoadProfile::default()
    };
    let schedule = build_schedule(&p, 3).unwrap();
    let trace = RunTrace::new();
    let r = run_target(&SlowKv(KvLoadTarget::new()), &p, &schedule, &trace).unwrap();
    assert_eq!(r.issued, r.completed + r.shed, "conservation");
    assert!(r.completed > 0, "some ops must still complete");
    assert!(r.shed > 0, "a 1-slot queue at twice the service rate must shed");
    assert!(r.conformance_passed, "shedding must not change answers");
    let events = trace.events();
    assert!(events.iter().any(|e| e.label() == "load_shed"));
}

/// The native target, with sessions that stamp when each op starts,
/// measured from an epoch taken immediately before the drive. The epoch
/// is no later than the driver's own start instant and precedes it by
/// only the driver's profile checks (no thread start, no I/O), so a stamp
/// overstates how late an op started by that sub-microsecond setup.
struct Stamping {
    epoch: Instant,
    starts: Mutex<Vec<(LoadOp, Duration)>>,
}

struct StampingSession<'a>(&'a Stamping, Box<dyn LoadSession + 'static>);

impl LoadSession for StampingSession<'_> {
    fn execute(&mut self, op: &LoadOp) -> String {
        let start = self.0.epoch.elapsed();
        self.0.starts.lock().unwrap().push((*op, start));
        self.1.execute(op)
    }
}

impl LoadTarget for Stamping {
    fn name(&self) -> &'static str {
        "stamping"
    }
    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(StampingSession(self, NativeLoadTarget.session()))
    }
    fn expected(&self, op: &LoadOp) -> String {
        NativeLoadTarget.expected(op)
    }
}

#[test]
fn open_loop_never_starts_an_op_before_its_intended_arrival() {
    for clients in [1, 4] {
        let p = LoadProfile {
            clients,
            inflight: 1,
            duration_ms: 100,
            arrival: LoadArrival::Poisson { rate_per_sec: 4000.0 },
            sample_every: 1,
            ..LoadProfile::default()
        };
        // The seeded arrival instants, with op `i` made a get of key `i`
        // so every executed op names its schedule slot.
        let schedule: Vec<ScheduledOp> = build_schedule(&p, 17)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, s)| ScheduledOp { at_ms: s.at_ms, op: LoadOp::Get { key: i as u64 } })
            .collect();
        assert!(schedule.len() as u64 <= KEYSPACE);
        let trace = RunTrace::new();
        let target = Stamping { epoch: Instant::now(), starts: Mutex::new(Vec::new()) };
        let r = run_target(&target, &p, &schedule, &trace).unwrap();
        assert_eq!(r.issued, r.completed + r.shed + r.failed, "clients={clients}: conservation");
        assert!(r.conformance_passed, "clients={clients}: CONFORMANT");
        let starts = target.starts.into_inner().unwrap();
        assert_eq!(starts.len() as u64, r.completed, "clients={clients}");
        let mut seen = vec![false; schedule.len()];
        for (op, start) in starts {
            let LoadOp::Get { key } = op else { panic!("{op:?} is not in the schedule") };
            let slot = key as usize;
            assert!(!std::mem::replace(&mut seen[slot], true), "op {slot} ran twice");
            let due = Duration::from_secs_f64(schedule[slot].at_ms / 1000.0);
            assert!(start >= due, "clients={clients}: op {slot} started at {start:?}, due {due:?}");
        }
    }
}

#[test]
fn kv_readers_progress_while_load_induces_flushes() {
    // A tiny memtable forces flushes (write-lock holders) during the
    // drive; the run must stay conformant and the store must have
    // actually flushed, proving readers and flushes interleaved.
    let target = KvLoadTarget::with_config(LsmConfig {
        memtable_capacity_bytes: 4 << 10,
        max_runs: 4,
        bloom_bits_per_key: 10,
    });
    let p = LoadProfile {
        clients: 4,
        inflight: 4,
        duration_ms: 40,
        engines: Some(vec!["kv".into()]),
        ..LoadProfile::default()
    };
    let schedule = build_schedule(&p, 9).unwrap();
    let trace = RunTrace::new();
    let before = target.store().stats().flushes;
    let report = run_target(&target, &p, &schedule, &trace).unwrap();
    assert!(report.conformance_passed, "concurrent reads must stay correct");
    assert_eq!(report.completed, report.issued);
    let after = target.store().stats().flushes;
    assert!(after > before, "load must have induced flushes ({before} -> {after})");
    // And the store still holds every preloaded key afterwards.
    for i in (0..KEYSPACE).step_by(97) {
        assert!(target.store().get(loadgen::key_of(i).as_bytes()).is_some());
    }
}
