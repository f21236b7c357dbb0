//! Concurrent load driver: N client sessions × M in-flight operations.
//!
//! The paper's velocity axis ("heavy traffic from millions of users")
//! needs engines measured under *sustained concurrent traffic*, not
//! one-shot sequential cells. This module drives point ops against the
//! registered engine substrates with two generator disciplines:
//!
//! * **Closed loop** — `clients` sessions each keep `inflight` operations
//!   outstanding; the arrival rate emerges from service time. Workers
//!   claim batches of `inflight` ops from a shared cursor, so the set of
//!   issued operations is always a prefix of the deterministic schedule —
//!   the issued-op digest is identical for 1 client and 8.
//! * **Open loop** — arrival instants come from the seeded arrival
//!   processes of [`bdb_testgen::arrival`] (Poisson or uniform). Each lane
//!   paces itself: it claims the next schedule index from a shared cursor
//!   and waits for that op's intended arrival, sleeping to a fixed margin
//!   before it and yielding for the rest, so an op starts at its arrival
//!   rather than a timer slack and a thread hand-off later. Ops that have
//!   arrived and that no lane has claimed form a queue of `queue_cap`:
//!   when a lane is about to dispatch an op and `queue_cap` later ops
//!   already wait behind it, the op is **shed** (counted, never blocking
//!   the arrival clock). This drops the oldest waiting op where a queue
//!   that refuses new arrivals drops the newest; the count shed per
//!   overflow is the same. Latency is measured from the *intended arrival
//!   instant*, not dispatch, so queueing delay is charged to the engine —
//!   the coordinated-omission discipline — and the mean dispatch lateness
//!   is reported beside it.
//!
//! Both disciplines run the same lane loop (`run_lanes`): they differ
//! only in how a lane claims its next index range (a cursor batch, or one
//! index it waits for) and where its latency clock starts. The claim
//! closure is the only open-loop-specific code.
//!
//! Per-lane latencies land in thread-local histograms merged at quiesce
//! ([`LogHistogram::merge`](bdb_common::histogram::LogHistogram::merge)),
//! reporting p50/p99/p999 and completed ops per second per engine. A sampled
//! subset of op results is compared against a pure oracle through
//! [`OutputPayload`] diffing and recorded as `ConformanceChecked` trace
//! events — concurrency must not change answers.
//!
//! # Chaos under load
//!
//! [`run_load`] with a [`FaultPlan`] drives the same schedules with
//! faults injected per op: one injector seeded by the run seed draws
//! every op's fault before the drive, in schedule order, so an op's
//! fault is a pure function of `(seed, index)` — identical counts at any
//! concurrency — and a clause's `max=` caps it across the drive. An op
//! hit by an `error@`, `panic@` or `crash@` fault counts as **failed**,
//! extending conservation to `issued == completed + shed + failed`; a
//! `latency@` fault delays the op and it completes. A failed op is a
//! finding about the target: nothing retries or re-routes it, and
//! open-loop lanes pace the same arrivals with or without a fault plan.

use crate::engine::EngineRegistry;
use crate::fault::{run_with_fault, FaultInjector, FaultPlan, FaultSite, InjectedFault};
use crate::trace::{RunTrace, TraceEvent};
use bdb_common::dist::{Distribution, Zipf};
use bdb_common::event::Event;
use bdb_common::hash::Fnv1a;
use bdb_common::histogram::LogHistogram;
use bdb_common::rng::{Rng, SeedTree};
use bdb_common::value::{DataType, Field, Schema, Value};
use bdb_common::record::{row_lines, Table, CELL_SEP};
use bdb_common::{pool, BdbError, Result};
use bdb_kv::{LsmConfig, SharedLsm};
use bdb_testgen::arrival::{self, ArrivalProcess, ArrivalSpec};
use bdb_workloads::{behavioral, OutputPayload};
use std::fmt::Display;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Keys in every target's preloaded working set.
pub const KEYSPACE: u64 = 1024;

/// How ops are admitted to the engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadArrival {
    /// Closed loop: concurrency fixed at clients × inflight, rate
    /// emerges from service time.
    Closed,
    /// Open loop, exponential inter-arrival gaps (Poisson process).
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Open loop, constant inter-arrival gaps.
    Uniform {
        /// Arrivals per second.
        rate_per_sec: f64,
    },
}

impl LoadArrival {
    /// True for the open-loop disciplines.
    pub fn is_open(&self) -> bool {
        !matches!(self, LoadArrival::Closed)
    }
}

impl std::fmt::Display for LoadArrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadArrival::Closed => write!(f, "closed"),
            LoadArrival::Poisson { rate_per_sec } => write!(f, "poisson:{rate_per_sec}"),
            LoadArrival::Uniform { rate_per_sec } => write!(f, "uniform:{rate_per_sec}"),
        }
    }
}

impl std::str::FromStr for LoadArrival {
    type Err = BdbError;

    /// Parse `closed`, `poisson:RATE` or `uniform:RATE`.
    fn from_str(s: &str) -> Result<Self> {
        if s == "closed" {
            return Ok(LoadArrival::Closed);
        }
        let (kind, rate) = s
            .split_once(':')
            .ok_or_else(|| BdbError::InvalidConfig(format!("bad arrival spec '{s}'")))?;
        let rate_per_sec: f64 = rate
            .parse()
            .map_err(|_| BdbError::InvalidConfig(format!("bad arrival rate '{rate}'")))?;
        if !(rate_per_sec > 0.0 && rate_per_sec.is_finite()) {
            return Err(BdbError::InvalidConfig(format!(
                "arrival rate must be positive, got {rate_per_sec}"
            )));
        }
        match kind {
            "poisson" => Ok(LoadArrival::Poisson { rate_per_sec }),
            "uniform" => Ok(LoadArrival::Uniform { rate_per_sec }),
            other => Err(BdbError::InvalidConfig(format!(
                "unknown arrival process '{other}' (closed|poisson:RATE|uniform:RATE)"
            ))),
        }
    }
}

/// The most operations one schedule holds, whatever the arrival
/// discipline: a closed loop is clamped to it, and
/// [`LoadProfile::validate`] rejects an open loop that would exceed it.
const MAX_SCHEDULE_OPS: usize = 200_000;

/// Operations an open-loop schedule holds: rate × duration, rounded.
fn open_loop_ops(rate_per_sec: f64, duration_ms: u64) -> f64 {
    (rate_per_sec * duration_ms as f64 / 1000.0).round()
}

/// Configuration of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Concurrent client sessions per engine.
    pub clients: usize,
    /// In-flight operations each session multiplexes.
    pub inflight: usize,
    /// Run length used to size the op schedule, milliseconds.
    pub duration_ms: u64,
    /// Arrival discipline.
    pub arrival: LoadArrival,
    /// Open-loop queue capacity: how many arrived ops may wait unclaimed
    /// before the oldest is shed; `None` defaults to `clients * inflight`.
    pub queue_capacity: Option<usize>,
    /// Run every `sample_every`-th op's result through the conformance
    /// oracle.
    pub sample_every: usize,
    /// Restrict the run to these engines (`None` = all load targets the
    /// registry supports).
    pub engines: Option<Vec<String>>,
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self {
            clients: 4,
            inflight: 8,
            duration_ms: 2000,
            arrival: LoadArrival::Closed,
            queue_capacity: None,
            sample_every: 16,
            engines: None,
        }
    }
}

impl LoadProfile {
    /// Check the profile for nonsense values.
    ///
    /// # Errors
    /// Fails on zero clients/inflight/sample rate, an empty duration, or
    /// an open loop whose rate × duration rounds to no op or exceeds the
    /// schedule ceiling.
    pub fn validate(&self) -> Result<()> {
        if self.clients == 0 || self.inflight == 0 {
            return Err(BdbError::InvalidConfig(
                "load profile needs at least 1 client and 1 in-flight op".into(),
            ));
        }
        if self.duration_ms == 0 {
            return Err(BdbError::InvalidConfig("load duration must be > 0 ms".into()));
        }
        if self.sample_every == 0 {
            return Err(BdbError::InvalidConfig("sample_every must be >= 1".into()));
        }
        if self.queue_capacity == Some(0) {
            return Err(BdbError::InvalidConfig("queue capacity must be >= 1".into()));
        }
        if let LoadArrival::Poisson { rate_per_sec } | LoadArrival::Uniform { rate_per_sec } = self.arrival {
            let ops = open_loop_ops(rate_per_sec, self.duration_ms);
            if ops > MAX_SCHEDULE_OPS as f64 {
                return Err(BdbError::InvalidConfig(format!(
                    "open-loop schedule of {rate_per_sec:e} ops/s over {} ms exceeds the {MAX_SCHEDULE_OPS}-op ceiling",
                    self.duration_ms
                )));
            }
            if ops < 1.0 {
                return Err(BdbError::InvalidConfig(format!(
                    "open-loop schedule of {rate_per_sec:e} ops/s over {} ms holds no op (rate × duration rounds to 0)",
                    self.duration_ms
                )));
            }
        }
        Ok(())
    }

    /// The open-loop queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_capacity.unwrap_or(self.clients * self.inflight)
    }
}

/// One logical operation of the load schedule.
///
/// Operations are *interleaving-independent* by construction: the
/// working set is preloaded with `value_of(key)` for every key, puts
/// rewrite the same value, and nothing is inserted or deleted — so any
/// execution order yields the same answers and sampled results can be
/// checked against a pure oracle even under maximal concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    /// Point read of `key`.
    Get {
        /// Key index in `[0, KEYSPACE)`.
        key: u64,
    },
    /// Rewrite of `key` with its canonical value.
    Put {
        /// Key index in `[0, KEYSPACE)`.
        key: u64,
    },
    /// Range read of up to `len` keys from `start`.
    Scan {
        /// First key index.
        start: u64,
        /// Maximum entries returned.
        len: u64,
    },
}

/// One schedule entry: the op plus its intended arrival instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Intended arrival, milliseconds from run start (0 for closed loop).
    pub at_ms: f64,
    /// The operation.
    pub op: LoadOp,
}

/// Canonical key string for index `i`.
pub fn key_of(i: u64) -> String {
    format!("k{i:06}")
}

/// Canonical value string for key index `i`.
pub fn value_of(i: u64) -> String {
    format!("val-{i:06}")
}

/// Build the deterministic op schedule for a profile and seed.
///
/// The schedule depends only on `(seed, arrival, duration_ms)` — not on
/// client or worker counts — so the issued-op digest is stable across
/// any concurrency level. Keys follow a Zipf(0.99) popularity curve
/// (the YCSB default); the mix is 70% gets, 20% puts, 10% scans.
///
/// # Errors
/// Fails when the profile is invalid.
pub fn build_schedule(profile: &LoadProfile, seed: u64) -> Result<Vec<ScheduledOp>> {
    profile.validate()?;
    let n = match profile.arrival {
        // Closed loop has no arrival clock: duration sizes the schedule
        // (drained as fast as the engine allows).
        LoadArrival::Closed => (profile.duration_ms.saturating_mul(32)).clamp(256, MAX_SCHEDULE_OPS as u64) as usize,
        LoadArrival::Poisson { rate_per_sec } | LoadArrival::Uniform { rate_per_sec } => {
            open_loop_ops(rate_per_sec, profile.duration_ms) as usize
        }
    };
    let arrivals: Vec<f64> = match profile.arrival {
        LoadArrival::Closed => vec![0.0; n],
        LoadArrival::Poisson { rate_per_sec } => {
            arrival::schedule(&ArrivalSpec::Open { rate_per_sec, process: ArrivalProcess::Poisson }, n, seed)?
                .into_iter()
                .map(|s| s.at_ms)
                .collect()
        }
        LoadArrival::Uniform { rate_per_sec } => {
            arrival::schedule(&ArrivalSpec::Open { rate_per_sec, process: ArrivalProcess::Uniform }, n, seed)?
                .into_iter()
                .map(|s| s.at_ms)
                .collect()
        }
    };
    let mut rng = SeedTree::new(seed).child_named("loadgen").rng();
    let zipf = Zipf::new(KEYSPACE, 0.99);
    let mut out = Vec::with_capacity(n);
    for &at_ms in &arrivals {
        let sel = rng.next_f64();
        let op = if sel < 0.70 {
            LoadOp::Get { key: zipf.sample(&mut rng) }
        } else if sel < 0.90 {
            LoadOp::Put { key: zipf.sample(&mut rng) }
        } else {
            let start = rng.next_bounded(KEYSPACE);
            LoadOp::Scan { start, len: 8 + rng.next_bounded(24) }
        };
        out.push(ScheduledOp { at_ms, op });
    }
    Ok(out)
}

/// FNV-1a digest over the issued ops in schedule order — the
/// concurrency-independence witness (`--clients 1` and `--clients 8`
/// with one seed print the same digest).
pub fn issued_digest(schedule: &[ScheduledOp]) -> String {
    let mut h = Fnv1a::new();
    let mut eat = |b: u64| h.write(&b.to_le_bytes());
    for s in schedule {
        match s.op {
            LoadOp::Get { key } => {
                eat(1);
                eat(key);
            }
            LoadOp::Put { key } => {
                eat(2);
                eat(key);
            }
            LoadOp::Scan { start, len } => {
                eat(3);
                eat(start);
                eat(len);
            }
        }
    }
    format!("0x{:016x}", h.finish())
}

/// One engine substrate the load driver can target.
///
/// A target owns the shared preloaded state; each worker thread opens its
/// own [`LoadSession`] against it, and [`expected`](Self::expected) is
/// the pure oracle the sampled results are checked against.
pub trait LoadTarget: Send + Sync {
    /// Engine name ("kv", "sql", "native").
    fn name(&self) -> &'static str;
    /// Open one per-worker session.
    fn session(&self) -> Box<dyn LoadSession + '_>;
    /// The oracle: what any correct execution of `op` must return.
    fn expected(&self, op: &LoadOp) -> String;
}

/// One client session: executes ops, returning a compact outcome string.
pub trait LoadSession {
    /// Execute one op.
    fn execute(&mut self, op: &LoadOp) -> String;
}

/// KV target: a [`SharedLsm`] preloaded with the full keyspace, sized so
/// a load run keeps flushing (reads run concurrently under the store's
/// read lock while flushes take the write lock).
#[derive(Debug)]
pub struct KvLoadTarget {
    store: SharedLsm,
}

impl KvLoadTarget {
    /// A preloaded store with a memtable small enough to flush under load.
    pub fn new() -> Self {
        Self::with_config(LsmConfig {
            memtable_capacity_bytes: 64 << 10,
            max_runs: 4,
            bloom_bits_per_key: 10,
        })
    }

    /// A preloaded store with explicit tuning.
    pub fn with_config(config: LsmConfig) -> Self {
        let store = SharedLsm::with_config(config);
        for i in 0..KEYSPACE {
            store.put(key_of(i).into_bytes(), value_of(i).into_bytes());
        }
        Self { store }
    }

    /// The underlying store (for stats in tests and reports).
    pub fn store(&self) -> &SharedLsm {
        &self.store
    }
}

impl Default for KvLoadTarget {
    fn default() -> Self {
        Self::new()
    }
}

struct KvSession {
    store: SharedLsm,
}

impl LoadSession for KvSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        match *op {
            LoadOp::Get { key } => self
                .store
                .get(key_of(key).as_bytes())
                .map_or_else(|| "miss".to_string(), |v| String::from_utf8_lossy(&v).into_owned()),
            LoadOp::Put { key } => {
                self.store.put(key_of(key).into_bytes(), value_of(key).into_bytes());
                "ok".to_string()
            }
            LoadOp::Scan { start, len } => {
                let got = self.store.scan(key_of(start).as_bytes(), None, len as usize);
                match (got.first(), got.last()) {
                    (Some((first, _)), Some((last, _))) => format!(
                        "scan:{}:{}..{}",
                        got.len(),
                        String::from_utf8_lossy(first),
                        String::from_utf8_lossy(last)
                    ),
                    _ => "scan:0".to_string(),
                }
            }
        }
    }
}

impl LoadTarget for KvLoadTarget {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(KvSession { store: self.store.clone() })
    }

    fn expected(&self, op: &LoadOp) -> String {
        match *op {
            // Every key is preloaded and puts rewrite the same value.
            LoadOp::Get { key } => value_of(key),
            LoadOp::Put { .. } => "ok".to_string(),
            // Keys are contiguous, zero-padded (so byte order is index
            // order) and never deleted: the count and both end keys.
            LoadOp::Scan { start, len } => match len.min(KEYSPACE - start) {
                0 => "scan:0".to_string(),
                n => format!("scan:{n}:{}..{}", key_of(start), key_of(start + n - 1)),
            },
        }
    }
}

/// SQL target: one engine over a `load(k INT, v TEXT)` table of the full
/// keyspace, shared by every session (queries take `&self`). Reads only —
/// puts and scans map to point selects of the same key.
#[derive(Debug)]
pub struct SqlLoadTarget {
    engine: bdb_sql::Engine,
}

impl SqlLoadTarget {
    /// Build the engine over the preloaded table.
    pub fn new() -> Self {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Text),
        ]);
        let mut table = Table::new(schema);
        for i in 0..KEYSPACE {
            table.push_unchecked(vec![Value::Int(i as i64), Value::from(value_of(i))]);
        }
        let mut engine = bdb_sql::Engine::new();
        engine.register("load", table).expect("load table registers");
        Self { engine }
    }
}

impl Default for SqlLoadTarget {
    fn default() -> Self {
        Self::new()
    }
}

struct SqlSession<'a> {
    engine: &'a bdb_sql::Engine,
}

impl LoadSession for SqlSession<'_> {
    fn execute(&mut self, op: &LoadOp) -> String {
        let (LoadOp::Get { key } | LoadOp::Put { key } | LoadOp::Scan { start: key, .. }) = *op;
        match self.engine.sql(&format!("SELECT v FROM load WHERE k = {key}")) {
            Ok(t) => t
                .rows()
                .first()
                .and_then(|r| r.first())
                .map_or_else(|| "miss".to_string(), ToString::to_string),
            Err(e) => format!("error:{e}"),
        }
    }
}

impl LoadTarget for SqlLoadTarget {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(SqlSession { engine: &self.engine })
    }

    fn expected(&self, op: &LoadOp) -> String {
        match *op {
            LoadOp::Get { key } | LoadOp::Put { key } => value_of(key),
            LoadOp::Scan { start, .. } => value_of(start),
        }
    }
}

/// Native target: pure in-process compute (a keyed hash chain), the
/// function-layer baseline with no storage behind it.
#[derive(Debug, Default)]
pub struct NativeLoadTarget;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser, iterated to give the op measurable weight.
    for _ in 0..32 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
    }
    x
}

fn native_outcome(op: &LoadOp) -> String {
    match *op {
        LoadOp::Get { key } => format!("h:{:016x}", mix(key)),
        LoadOp::Put { key } => format!("h:{:016x}", mix(key ^ 0xdead_beef)),
        LoadOp::Scan { start, len } => {
            let sum = (start..start + len).fold(0u64, |acc, i| acc.wrapping_add(mix(i)));
            format!("s:{sum:016x}")
        }
    }
}

struct NativeSession;

impl LoadSession for NativeSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        native_outcome(op)
    }
}

impl LoadTarget for NativeLoadTarget {
    fn name(&self) -> &'static str {
        "native"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(NativeSession)
    }

    fn expected(&self, op: &LoadOp) -> String {
        native_outcome(op)
    }
}

/// Events per synthetic clickstream in the streaming target.
const STREAM_EVENTS_PER_KEY: u64 = 48;
/// Session gap of the streaming target's sessionize kernel, ms.
const STREAM_GAP_MS: u64 = 1_000;

/// The synthetic clickstream named by `key`: a pure function of the key,
/// deliberately unsorted (the kernel must sort), so every session and the
/// oracle derive the same stream without shared state.
fn stream_events(key: u64) -> Vec<Event> {
    (0..STREAM_EVENTS_PER_KEY)
        .map(|i| {
            let h = mix(key.wrapping_mul(STREAM_EVENTS_PER_KEY).wrapping_add(i));
            Event::new(h % 60_000, key, (h >> 32 & 0x7) as f64)
        })
        .collect()
}

/// Independent oracle: sessions of `key`'s stream by a naive sorted gap
/// walk (no shared code with the streaming kernel).
fn naive_sessions(key: u64) -> u64 {
    let mut ts: Vec<u64> = stream_events(key).iter().map(|e| e.ts_ms).collect();
    ts.sort_unstable();
    1 + ts.windows(2).filter(|w| w[1] - w[0] > STREAM_GAP_MS).count() as u64
}

/// Streaming target: every op runs the sessionize kernel over a synthetic
/// per-key clickstream — gets and puts sessionize one stream, scans fold
/// session counts over a key range. This puts the behavioral operation
/// class under the same concurrency and tail-latency discipline as the
/// storage engines.
#[derive(Debug, Default)]
pub struct StreamingLoadTarget;

struct StreamingSession;

fn sessionize_of(key: u64) -> u64 {
    let spec = behavioral::BehavioralSpec::Sessionize { gap_ms: STREAM_GAP_MS };
    let out = behavioral::run_behavioral(&stream_events(key), &spec);
    out.rows
        .first()
        .and_then(|line| line.split(CELL_SEP).nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

impl LoadSession for StreamingSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        match *op {
            LoadOp::Get { key } | LoadOp::Put { key } => {
                format!("sessions:{}", sessionize_of(key))
            }
            LoadOp::Scan { start, len } => {
                let sum: u64 = (start..(start + len).min(KEYSPACE)).map(sessionize_of).sum();
                format!("sessions-sum:{sum}")
            }
        }
    }
}

impl LoadTarget for StreamingLoadTarget {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(StreamingSession)
    }

    fn expected(&self, op: &LoadOp) -> String {
        match *op {
            LoadOp::Get { key } | LoadOp::Put { key } => {
                format!("sessions:{}", naive_sessions(key))
            }
            LoadOp::Scan { start, len } => {
                let sum: u64 = (start..(start + len).min(KEYSPACE)).map(naive_sessions).sum();
                format!("sessions-sum:{sum}")
            }
        }
    }
}

/// The measured outcome of driving one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Engine name.
    pub engine: String,
    /// Client sessions driven.
    pub clients: usize,
    /// In-flight ops per session.
    pub inflight: usize,
    /// The arrival discipline driven.
    pub arrival: LoadArrival,
    /// Ops the arrival clock issued (the whole schedule).
    pub issued: u64,
    /// Ops that executed to completion.
    pub completed: u64,
    /// Ops shed because the queue of waiting ops was full (open loop only).
    pub shed: u64,
    /// Ops an injected fault failed.
    pub failed: u64,
    /// Faults injected across the drive's lanes.
    pub faults: u64,
    /// Wall-clock of the drive, seconds.
    pub duration_secs: f64,
    /// Completed ops per second: saturation throughput in a closed loop;
    /// in an open loop the offered rate, less what was shed or failed.
    pub throughput_ops_per_sec: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: f64,
    /// Mean dispatch lateness: how long after its intended arrival an
    /// open-loop op started, milliseconds (0 for closed loop).
    pub mean_queue_delay_ms: f64,
    /// Results sampled into the conformance check.
    pub sampled: u64,
    /// At least one result was sampled, and every sampled result matched
    /// the oracle.
    pub conformance_passed: bool,
    /// The issued-op digest of the schedule this engine consumed.
    pub digest: String,
}

/// Per-lane capture merged at quiesce: a thread-local latency histogram,
/// queue-delay sum and count (only the mean is reported),
/// completion/chaos counts and sampled outcomes.
#[derive(Default)]
struct LaneOut {
    lat: LogHistogram,
    queue_delay_ms_sum: f64,
    queue_delays: u64,
    completed: u64,
    failed: u64,
    faults: u64,
    samples: Vec<(usize, String)>,
}

/// Everything one chaos drive shares across lanes: the fault each op
/// drew, by schedule index, and the site they are injected at.
struct ChaosCtx {
    faults: Vec<Option<InjectedFault>>,
    site: FaultSite,
}

impl ChaosCtx {
    /// Draw every op's fault before the drive, in schedule order, from one
    /// injector: a clause's `max=` caps it across the whole drive, and an
    /// op's fault is a pure function of `(seed, index)` at any concurrency.
    fn draw(plan: &FaultPlan, seed: u64, target: &str, ops: usize) -> Self {
        let site = FaultSite::execution(target, "load");
        let injector = FaultInjector::new(plan.clone(), seed);
        Self { faults: (0..ops).map(|_| injector.sample(&site)).collect(), site }
    }

    /// Execute op `idx` under the fault it drew, folding the fault and
    /// failure counts into the lane. Returns the outcome string when the
    /// op completed. Fault events go to a scratch trace — at load volumes
    /// per-op fault events would swamp the run trace; the counts land in
    /// the [`LoadReport`] instead.
    ///
    /// Never inlined: inlined into the lane loop, this chaos-only path
    /// cost the fault-free `load_sql_closed` drive about 5 % of its
    /// ops/s (median of 12 rotated runs, 2-vCPU box).
    #[inline(never)]
    fn execute(
        &self,
        lane: &mut LaneOut,
        sess: &mut dyn LoadSession,
        op: &LoadOp,
        idx: usize,
    ) -> Option<String> {
        let fault = self.faults[idx];
        let value =
            run_with_fault(fault, &RunTrace::new(), &self.site, || Ok(sess.execute(op))).ok();
        lane.faults += u64::from(fault.is_some());
        lane.failed += u64::from(value.is_none());
        value
    }
}

/// Drive one target with the given schedule and profile, fault-free (the
/// historical path: no injector).
///
/// # Errors
/// Fails when a worker panics or the profile is invalid.
pub fn run_target(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    trace: &RunTrace,
) -> Result<LoadReport> {
    run_target_with_faults(target, profile, schedule, None, 0, trace)
}

/// Drive one target with the given schedule, injecting `faults` per op
/// as drawn from one injector seeded by `seed` (see the module docs).
///
/// # Errors
/// Fails when a worker panics, the profile is invalid, or op accounting
/// breaks conservation (`issued == completed + shed + failed`).
pub fn run_target_with_faults(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    faults: Option<&FaultPlan>,
    seed: u64,
    trace: &RunTrace,
) -> Result<LoadReport> {
    profile.validate()?;
    let chaos = faults.map(|plan| ChaosCtx::draw(plan, seed, target.name(), schedule.len()));
    let chaos = chaos.as_ref();
    let t0 = Instant::now();
    let (lanes, shed) = if profile.arrival.is_open() {
        // Open loop: each lane claims the next index and waits for its
        // intended arrival, then sheds it if the ops that arrived behind
        // it already fill the queue.
        let (next, shed) = (AtomicUsize::new(0), AtomicU64::new(0));
        let lanes = run_lanes(target, profile, schedule, trace, t0, chaos, &|| loop {
            let idx = next.fetch_add(1, Ordering::SeqCst);
            wait_until(t0, Duration::from_secs_f64(schedule.get(idx)?.at_ms / 1000.0));
            let now_ms = t0.elapsed().as_secs_f64() * 1e3;
            if sheds(schedule, next.load(Ordering::SeqCst), now_ms, profile.queue_cap()) {
                shed.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            return Some(idx..idx + 1);
        })?;
        (lanes, shed.into_inner())
    } else {
        // Closed loop: lanes claim contiguous batches of `inflight` ops
        // from a shared cursor until the schedule drains, so the issued
        // set is always a prefix of the schedule regardless of worker
        // count or interleaving.
        let cursor = AtomicUsize::new(0);
        let lanes = run_lanes(target, profile, schedule, trace, t0, chaos, &|| {
            let base = cursor.fetch_add(profile.inflight, Ordering::SeqCst);
            (base < schedule.len()).then(|| base..(base + profile.inflight).min(schedule.len()))
        })?;
        (lanes, 0)
    };

    let mut all = LaneOut::default();
    for lane in lanes {
        all.lat.merge(&lane.lat);
        all.queue_delay_ms_sum += lane.queue_delay_ms_sum;
        all.queue_delays += lane.queue_delays;
        all.completed += lane.completed;
        all.failed += lane.failed;
        all.faults += lane.faults;
        all.samples.extend(lane.samples);
    }
    let LaneOut { lat, queue_delay_ms_sum, queue_delays, completed, failed, faults, samples } = all;
    let duration_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // Conservation: every scheduled op completed, was shed, or failed.
    if completed + shed + failed != schedule.len() as u64 {
        return Err(BdbError::Execution(format!(
            "load accounting broke: {completed} completed + {shed} shed + {failed} failed != {} issued",
            schedule.len()
        )));
    }
    if shed > 0 {
        trace.record(TraceEvent::LoadShed { engine: target.name().to_string(), count: shed });
    }

    // Conformance: the sampled outcomes must match the pure oracle.
    let expected: Vec<String> =
        samples.iter().map(|(i, _)| target.expected(&schedule[*i].op)).collect();
    let actual =
        OutputPayload::RowSet(row_lines(samples.iter().map(|(i, out)| [i as &dyn Display, out])));
    let expect = OutputPayload::RowSet(row_lines(
        samples.iter().zip(&expected).map(|((i, _), e)| [i as &dyn Display, e]),
    ));
    let actual = actual.canonical_lines();
    // A drive that sampled nothing has checked nothing: it does not pass.
    let mismatch = if samples.is_empty() {
        Some(format!("nothing sampled: {completed} of {} ops completed", schedule.len()))
    } else {
        actual.diff(&expect.canonical_lines(), 0.0)
    };
    let passed = mismatch.is_none();
    trace.record(TraceEvent::ConformanceChecked {
        prescription: format!("load/{}", target.name()),
        engine: target.name().to_string(),
        check: "oracle".to_string(),
        payload: "rowset".to_string(),
        passed,
        detail: mismatch.unwrap_or_else(|| format!("digest 0x{:016x}", actual.digest())),
    });

    Ok(LoadReport {
        engine: target.name().to_string(),
        clients: profile.clients,
        inflight: profile.inflight,
        arrival: profile.arrival,
        issued: schedule.len() as u64,
        completed,
        shed,
        failed,
        faults,
        duration_secs,
        throughput_ops_per_sec: completed as f64 / duration_secs,
        p50_us: lat.quantile(0.50) as f64 / 1e3,
        p99_us: lat.quantile(0.99) as f64 / 1e3,
        p999_us: lat.quantile(0.999) as f64 / 1e3,
        mean_queue_delay_ms: queue_delay_ms_sum / queue_delays.max(1) as f64,
        sampled: samples.len() as u64,
        conformance_passed: passed,
        digest: issued_digest(schedule),
    })
}

/// The one lane loop both disciplines share: `profile.clients` sessions,
/// each opening a [`LoadSession`] and executing the index ranges `claim`
/// hands out until it returns `None`. In an open loop latency runs from
/// the op's intended arrival instant (coordinated omission) and the
/// dispatch-minus-arrival gap is captured separately as dispatch
/// lateness; in a closed loop it runs from dispatch.
fn run_lanes(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    trace: &RunTrace,
    start: Instant,
    chaos: Option<&ChaosCtx>,
    claim: &(dyn Fn() -> Option<Range<usize>> + Sync),
) -> Result<Vec<LaneOut>> {
    let open = profile.arrival.is_open();
    pool::try_par_map(profile.clients, (0..profile.clients).collect(), |session: usize| {
        trace.record(TraceEvent::LoadSessionStarted {
            engine: target.name().to_string(),
            session,
            lanes: profile.inflight,
        });
        let s0 = Instant::now();
        let mut sess = target.session();
        let mut lane = LaneOut::default();
        while let Some(range) = claim() {
            for idx in range {
                let latency_from = if open {
                    let intended = Duration::from_secs_f64(schedule[idx].at_ms / 1000.0);
                    let dispatch_delay = start.elapsed().saturating_sub(intended);
                    lane.queue_delay_ms_sum += dispatch_delay.as_secs_f64() * 1e3;
                    lane.queue_delays += 1;
                    // The virtual instant `start + intended`.
                    start
                        .checked_add(intended)
                        .filter(|t| *t <= Instant::now())
                        .unwrap_or_else(Instant::now)
                } else {
                    Instant::now()
                };
                let op = &schedule[idx].op;
                let out = match chaos {
                    None => Some(sess.execute(op)),
                    Some(c) => c.execute(&mut lane, sess.as_mut(), op, idx),
                };
                let Some(out) = out else { continue };
                lane.lat
                    .record(latency_from.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                lane.completed += 1;
                if idx.is_multiple_of(profile.sample_every) {
                    lane.samples.push((idx, out));
                }
            }
        }
        trace.record(TraceEvent::LoadSessionFinished {
            engine: target.name().to_string(),
            session,
            completed: lane.completed,
            micros: s0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        });
        lane
    })
    .map_err(|p| BdbError::Execution(format!("load worker panicked: {p}")))
}

/// How long before an op's intended arrival a waiting lane stops
/// sleeping and starts yielding. `thread::sleep` wakes late by the
/// kernel's timer slack (50 µs by default on Linux) plus the wake-up
/// itself, so a lane sleeps only to this margin and covers the rest with
/// `yield_now`, which hands the core to any other runnable lane rather
/// than spinning on it.
const SLEEP_MARGIN: Duration = Duration::from_micros(200);

/// Block until `start + due`: sleep to within [`SLEEP_MARGIN`], then yield.
fn wait_until(start: Instant, due: Duration) {
    loop {
        let left = due.saturating_sub(start.elapsed());
        if left.is_zero() {
            return;
        }
        if left > SLEEP_MARGIN {
            std::thread::sleep(left - SLEEP_MARGIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// The open-loop shed rule, applied when a lane is about to dispatch the
/// op it claimed. `unclaimed` is the first schedule index no lane has
/// claimed yet. The ops from there on that have already arrived by
/// `now_ms` wait in a queue of `cap`; when they fill it, the op about to
/// run is the oldest waiter and is shed. A lane that dispatches on time
/// finds no op behind it unless every other lane is busy. Arrivals are
/// monotone, so the waiting ops are a prefix of `schedule[unclaimed..]`.
fn sheds(schedule: &[ScheduledOp], unclaimed: usize, now_ms: f64, cap: usize) -> bool {
    let rest = schedule.get(unclaimed..).unwrap_or_default();
    rest.partition_point(|s| s.at_ms <= now_ms) >= cap
}

/// The load targets the registry's engines support, honouring the
/// profile's engine filter. Targets: `kv` (LSM store), `sql` (point
/// selects), `native` (pure compute), `streaming` (sessionize kernel) —
/// each present when the registry registers the corresponding engine.
pub fn default_targets(
    registry: &EngineRegistry,
    profile: &LoadProfile,
) -> Result<Vec<Box<dyn LoadTarget>>> {
    let names = registry.names();
    let wanted = |n: &str| -> bool {
        profile
            .engines
            .as_ref()
            .is_none_or(|list| list.iter().any(|e| e == n))
    };
    let mut targets: Vec<Box<dyn LoadTarget>> = Vec::new();
    if names.contains(&"kv") && wanted("kv") {
        targets.push(Box::new(KvLoadTarget::new()));
    }
    if names.contains(&"sql") && wanted("sql") {
        targets.push(Box::new(SqlLoadTarget::new()));
    }
    if names.contains(&"native") && wanted("native") {
        targets.push(Box::new(NativeLoadTarget));
    }
    if names.contains(&"streaming") && wanted("streaming") {
        targets.push(Box::new(StreamingLoadTarget));
    }
    if targets.is_empty() {
        return Err(BdbError::InvalidConfig(format!(
            "no load targets match the engine filter {:?} (registry: {})",
            profile.engines,
            names.join(", ")
        )));
    }
    Ok(targets)
}

/// Drive every selected target with one shared deterministic schedule,
/// engine after engine (saturation measurements must not overlap),
/// injecting `faults` per op when a plan is given.
///
/// # Errors
/// Fails on an invalid profile, an empty engine filter, a worker panic,
/// or broken op conservation.
pub fn run_load(
    registry: &EngineRegistry,
    profile: &LoadProfile,
    faults: Option<&FaultPlan>,
    seed: u64,
    trace: &RunTrace,
) -> Result<Vec<LoadReport>> {
    let schedule = build_schedule(profile, seed)?;
    let targets = default_targets(registry, profile)?;
    let mut reports = Vec::with_capacity(targets.len());
    for target in &targets {
        reports.push(run_target_with_faults(target.as_ref(), profile, &schedule, faults, seed, trace)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile() -> LoadProfile {
        LoadProfile { clients: 2, inflight: 4, duration_ms: 10, ..LoadProfile::default() }
    }

    #[test]
    fn arrival_parses_and_displays() {
        for s in ["closed", "poisson:500", "uniform:250.5"] {
            let a: LoadArrival = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
        assert!("poisson".parse::<LoadArrival>().is_err());
        assert!("poisson:-5".parse::<LoadArrival>().is_err());
        assert!("burst:10".parse::<LoadArrival>().is_err());
        assert!(LoadArrival::Closed.to_string() == "closed");
        assert!(!LoadArrival::Closed.is_open());
        assert!(LoadArrival::Poisson { rate_per_sec: 1.0 }.is_open());
    }

    #[test]
    fn profile_validation() {
        assert!(LoadProfile::default().validate().is_ok());
        assert!(LoadProfile { clients: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { inflight: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { duration_ms: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { sample_every: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { queue_capacity: Some(0), ..LoadProfile::default() }
            .validate()
            .is_err());
        let open = |rate_per_sec| LoadProfile {
            arrival: LoadArrival::Poisson { rate_per_sec },
            duration_ms: 1000,
            ..LoadProfile::default()
        };
        assert!(open(MAX_SCHEDULE_OPS as f64).validate().is_ok());
        assert!(open(MAX_SCHEDULE_OPS as f64 + 1.0).validate().is_err());
        // Rate × duration rounds: 0.5 ops is one op, anything less none.
        assert!(open(0.5).validate().is_ok());
        assert!(open(0.49).validate().is_err());
        assert_eq!(LoadProfile::default().queue_cap(), 32);
    }

    #[test]
    fn schedule_is_seed_deterministic_and_client_independent() {
        let p1 = LoadProfile { clients: 1, ..quick_profile() };
        let p8 = LoadProfile { clients: 8, ..quick_profile() };
        let a = build_schedule(&p1, 42).unwrap();
        let b = build_schedule(&p8, 42).unwrap();
        assert_eq!(a, b, "schedule must not depend on client count");
        assert_eq!(issued_digest(&a), issued_digest(&b));
        let c = build_schedule(&p1, 43).unwrap();
        assert_ne!(issued_digest(&a), issued_digest(&c), "different seed, different ops");
    }

    #[test]
    fn open_loop_schedule_is_monotone_and_rate_sized() {
        let p = LoadProfile {
            arrival: LoadArrival::Poisson { rate_per_sec: 1000.0 },
            duration_ms: 100,
            ..quick_profile()
        };
        let s = build_schedule(&p, 7).unwrap();
        assert_eq!(s.len(), 100);
        for w in s.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms, "arrivals must be monotone");
        }
    }

    #[test]
    fn kv_target_oracle_matches_execution() {
        let t = KvLoadTarget::new();
        let mut sess = t.session();
        for op in [
            LoadOp::Get { key: 3 },
            LoadOp::Put { key: 9 },
            LoadOp::Scan { start: KEYSPACE - 4, len: 16 },
        ] {
            assert_eq!(sess.execute(&op), t.expected(&op), "{op:?}");
        }
    }

    #[test]
    fn kv_oracle_diverges_on_a_scan_that_starts_one_key_late() {
        // Same count of keys, the wrong ones: only the end keys tell.
        struct LateScan(KvLoadTarget);
        struct LateSession<'a>(Box<dyn LoadSession + 'a>);
        impl LoadSession for LateSession<'_> {
            fn execute(&mut self, op: &LoadOp) -> String {
                self.0.execute(&match *op {
                    LoadOp::Scan { start, len } => LoadOp::Scan { start: start + 1, len },
                    other => other,
                })
            }
        }
        impl LoadTarget for LateScan {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn session(&self) -> Box<dyn LoadSession + '_> {
                Box::new(LateSession(self.0.session()))
            }
            fn expected(&self, op: &LoadOp) -> String {
                self.0.expected(op)
            }
        }
        let p = LoadProfile { sample_every: 1, ..quick_profile() };
        let schedule = build_schedule(&p, 3).unwrap();
        assert!(schedule.iter().any(|s| matches!(s.op, LoadOp::Scan { .. })));
        let trace = RunTrace::new();
        let late = run_target(&LateScan(KvLoadTarget::new()), &p, &schedule, &trace).unwrap();
        assert!(!late.conformance_passed, "a scan one key late must be DIVERGED");
        let detail = trace.events().iter().find_map(|e| match e {
            TraceEvent::ConformanceChecked { detail, .. } => Some(detail.clone()),
            _ => None,
        });
        assert!(detail.is_some_and(|d| d.contains("scan:")), "the mismatch names the scan");
        let honest = run_target(&KvLoadTarget::new(), &p, &schedule, &RunTrace::new()).unwrap();
        assert!(honest.conformance_passed);
    }

    #[test]
    fn sql_target_oracle_matches_execution() {
        let t = SqlLoadTarget::new();
        let mut sess = t.session();
        for op in [LoadOp::Get { key: 0 }, LoadOp::Put { key: 17 }, LoadOp::Scan { start: 5, len: 3 }] {
            assert_eq!(sess.execute(&op), t.expected(&op), "{op:?}");
        }
    }

    #[test]
    fn streaming_target_oracle_matches_execution() {
        let t = StreamingLoadTarget;
        let mut sess = t.session();
        for op in [
            LoadOp::Get { key: 2 },
            LoadOp::Put { key: 40 },
            LoadOp::Scan { start: KEYSPACE - 3, len: 9 },
        ] {
            let out = sess.execute(&op);
            assert_eq!(out, t.expected(&op), "{op:?}");
            assert!(out.starts_with("sessions"), "{out}");
        }
        // The synthetic streams really sessionize: multiple sessions.
        assert!(naive_sessions(2) > 1, "gap walk found {} sessions", naive_sessions(2));
    }

    #[test]
    fn closed_loop_completes_everything() {
        let trace = RunTrace::new();
        let p = quick_profile();
        let schedule = build_schedule(&p, 1).unwrap();
        let t = NativeLoadTarget;
        let r = run_target(&t, &p, &schedule, &trace).unwrap();
        assert_eq!(r.issued, schedule.len() as u64);
        assert_eq!(r.completed, r.issued, "closed loop sheds nothing");
        assert_eq!(r.shed, 0);
        assert!(r.conformance_passed);
        assert!(r.throughput_ops_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
        // Session start/finish events for every client.
        let events = trace.events();
        let started = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::LoadSessionStarted { .. }))
            .count();
        assert_eq!(started, p.clients);
    }

    #[test]
    fn open_loop_conserves_issued_ops() {
        let trace = RunTrace::new();
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 2000.0 },
            duration_ms: 100,
            clients: 2,
            inflight: 2,
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&p, 5).unwrap();
        let t = NativeLoadTarget;
        let r = run_target(&t, &p, &schedule, &trace).unwrap();
        assert_eq!(r.issued, r.completed + r.shed, "conservation");
        assert!(r.completed > 0);
        assert!(r.conformance_passed);
    }

    #[test]
    fn undersized_queue_sheds_without_blocking() {
        let trace = RunTrace::new();
        // One slow client, a queue of 1, arrivals far faster than the
        // engine: most ops must shed and the run must still finish
        // promptly (a late lane sheds instead of waiting).
        struct SlowTarget;
        struct SlowSession;
        impl LoadSession for SlowSession {
            fn execute(&mut self, _op: &LoadOp) -> String {
                std::thread::sleep(Duration::from_millis(3));
                "slow".to_string()
            }
        }
        impl LoadTarget for SlowTarget {
            fn name(&self) -> &'static str {
                "slow"
            }
            fn session(&self) -> Box<dyn LoadSession + '_> {
                Box::new(SlowSession)
            }
            fn expected(&self, _op: &LoadOp) -> String {
                "slow".to_string()
            }
        }
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 5000.0 },
            duration_ms: 60,
            clients: 1,
            inflight: 1,
            queue_capacity: Some(1),
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&p, 9).unwrap();
        let r = run_target(&SlowTarget, &p, &schedule, &trace).unwrap();
        assert!(r.shed > 0, "undersized queue must shed");
        assert_eq!(r.issued, r.completed + r.shed);
        let shed_events = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::LoadShed { .. }))
            .count();
        assert_eq!(shed_events, 1);
    }

    #[test]
    fn shed_rule_counts_arrived_unclaimed_ops_against_the_cap() {
        let s: Vec<ScheduledOp> = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0]
            .into_iter()
            .map(|at_ms| ScheduledOp { at_ms, op: LoadOp::Get { key: 0 } })
            .collect();
        // Op 0 claimed late at 3.5 ms: ops 1, 2 and 3 have arrived unclaimed.
        assert!(!sheds(&s, 1, 3.5, 4), "backlog 3 below a cap of 4");
        assert!(sheds(&s, 1, 3.5, 3), "backlog 3 at a cap of 3");
        assert!(sheds(&s, 1, 3.5, 2), "backlog 3 above a cap of 2");
        // Another lane already claimed ops 1 and 2: only op 3 waits.
        assert!(!sheds(&s, 3, 3.5, 2));
        assert!(sheds(&s, 3, 3.5, 1));
        // An op due exactly now has arrived; one due later has not.
        assert!(sheds(&s, 1, 3.0, 3));
        assert!(!sheds(&s, 4, 3.999, 1));
        // No unclaimed op left: nothing waits, whatever the clock.
        assert!(!sheds(&s, 6, 99.0, 1));
        assert!(!sheds(&s, 9, 99.0, 1));
    }

    #[test]
    fn closed_loop_chaos_conserves_and_is_deterministic() {
        let plan: FaultPlan = "error@exec:0.4".parse().unwrap();
        let drive = || {
            let trace = RunTrace::new();
            let p = quick_profile();
            let schedule = build_schedule(&p, 21).unwrap();
            run_target_with_faults(&NativeLoadTarget, &p, &schedule, Some(&plan), 21, &trace)
                .unwrap()
        };
        let a = drive();
        let b = drive();
        assert_eq!(a.completed + a.failed, a.issued, "closed loop sheds nothing");
        assert_eq!(a.shed, 0);
        assert!(a.failed > 0, "rate 0.4 must fail some ops");
        assert_eq!(a.faults, a.failed, "every injected error fails its op");
        assert!(a.conformance_passed, "failed ops never reach the sample set");
        assert_eq!(
            (a.completed, a.failed, a.faults, &a.digest),
            (b.completed, b.failed, b.faults, &b.digest),
            "chaos counts must be a pure function of the seed"
        );
    }

    #[test]
    fn max_caps_a_clause_across_the_whole_drive() {
        // `max=1` is the clause's total over the drive, not per op, and
        // the op it fails is the same at any concurrency.
        let plan: FaultPlan = "error@exec:1:max=1".parse().unwrap();
        let counts = |clients| {
            let p = LoadProfile { clients, inflight: 2, duration_ms: 100, ..quick_profile() };
            let schedule = build_schedule(&p, 42).unwrap();
            let trace = RunTrace::new();
            let r =
                run_target_with_faults(&NativeLoadTarget, &p, &schedule, Some(&plan), 42, &trace)
                    .unwrap();
            assert!(r.conformance_passed);
            (r.issued, r.completed, r.failed, r.faults)
        };
        let one = counts(1);
        assert_eq!((one.1 + 1, one.2, one.3), (one.0, 1, 1), "exactly one op fails: {one:?}");
        assert_eq!(one, counts(4));
    }

    #[test]
    fn a_drive_that_sampled_nothing_does_not_pass() {
        let plan: FaultPlan = "error@exec:1".parse().unwrap();
        let trace = RunTrace::new();
        let p = quick_profile();
        let schedule = build_schedule(&p, 3).unwrap();
        let r = run_target_with_faults(&NativeLoadTarget, &p, &schedule, Some(&plan), 3, &trace)
            .unwrap();
        assert_eq!((r.completed, r.failed, r.sampled), (0, r.issued, 0));
        assert!(!r.conformance_passed, "a drive that checked nothing must not pass");
        let detail = trace.events().iter().find_map(|e| match e {
            TraceEvent::ConformanceChecked { passed: false, detail, .. } => Some(detail.clone()),
            _ => None,
        });
        let want = format!("nothing sampled: 0 of {} ops completed", r.issued);
        assert_eq!(detail.as_deref(), Some(want.as_str()));
    }

    #[test]
    fn run_load_covers_registry_targets() {
        let registry = EngineRegistry::with_builtins();
        let trace = RunTrace::new();
        let p = LoadProfile {
            engines: Some(vec!["native".into(), "kv".into()]),
            ..quick_profile()
        };
        let reports = run_load(&registry, &p, None, 11, &trace).unwrap();
        let names: Vec<&str> = reports.iter().map(|r| r.engine.as_str()).collect();
        assert_eq!(names, vec!["kv", "native"]);
        assert!(reports.iter().all(|r| r.conformance_passed));
        // One shared schedule: identical digests across engines.
        assert_eq!(reports[0].digest, reports[1].digest);
    }

    #[test]
    fn unknown_engine_filter_fails() {
        let registry = EngineRegistry::with_builtins();
        let p = LoadProfile { engines: Some(vec!["nosuch".into()]), ..quick_profile() };
        assert!(default_targets(&registry, &p).is_err());
    }
}
