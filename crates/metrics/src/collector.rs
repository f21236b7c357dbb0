//! User-perceivable metrics: duration, latency, throughput.

use bdb_common::histogram::LogHistogram;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Collects latencies and operation counts during a benchmark run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    started: Instant,
    latencies_ns: LogHistogram,
    operations: u64,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsCollector {
    /// Start collecting; the run timer starts now.
    pub fn new() -> Self {
        Self { started: Instant::now(), latencies_ns: LogHistogram::new(), operations: 0 }
    }

    /// Record one operation's latency.
    pub fn record_latency(&mut self, latency: Duration) {
        self.latencies_ns.record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.operations += 1;
    }

    /// Record an operation without latency (batch jobs count items).
    pub fn record_operations(&mut self, n: u64) {
        self.operations += n;
    }

    /// Time a closure and record its latency; returns the closure result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record_latency(t0.elapsed());
        out
    }

    /// Merge latencies and counts from another collector (parallel
    /// clients); the run timer keeps this collector's start.
    pub fn merge(&mut self, other: &MetricsCollector) {
        self.latencies_ns.merge(&other.latencies_ns);
        self.operations += other.operations;
    }

    /// Finish: snapshot the user-perceivable metrics.
    pub fn finish(&self) -> UserMetrics {
        self.snapshot(self.started.elapsed())
    }

    /// Finish against an externally measured duration — for callers that
    /// timed the workload themselves (e.g. an engine reporting a bound
    /// execution's elapsed time) rather than from collector construction.
    pub fn finish_with_duration(&self, duration: Duration) -> UserMetrics {
        self.snapshot(duration)
    }

    fn snapshot(&self, duration: Duration) -> UserMetrics {
        let secs = duration.as_secs_f64().max(1e-9);
        UserMetrics {
            duration_secs: secs,
            operations: self.operations,
            throughput_ops_per_sec: self.operations as f64 / secs,
            latency_mean_us: self.latencies_ns.mean() / 1e3,
            latency_p50_us: self.latencies_ns.quantile(0.50) as f64 / 1e3,
            latency_p95_us: self.latencies_ns.quantile(0.95) as f64 / 1e3,
            latency_p99_us: self.latencies_ns.quantile(0.99) as f64 / 1e3,
            latency_samples: self.latencies_ns.count(),
        }
    }
}

/// The paper's user-perceivable metrics: test duration, request latency
/// and throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct UserMetrics {
    /// Test duration in seconds.
    pub duration_secs: f64,
    /// Operations completed.
    pub operations: u64,
    /// Operations per second.
    pub throughput_ops_per_sec: f64,
    /// Mean latency, microseconds.
    pub latency_mean_us: f64,
    /// Median latency, microseconds.
    pub latency_p50_us: f64,
    /// 95th percentile latency, microseconds.
    pub latency_p95_us: f64,
    /// 99th percentile latency, microseconds.
    pub latency_p99_us: f64,
    /// Number of latency samples recorded.
    pub latency_samples: u64,
}

/// Throughput of one data-generation run: the paper treats generator
/// speed as a first-class property (BDGS's parallel deployment lever), so
/// the pipeline records what the generation phase achieved and on how many
/// workers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct GenerationMetrics {
    /// Logical items generated (rows, documents, edges, events).
    pub items: u64,
    /// Approximate bytes generated.
    pub bytes: u64,
    /// Wall-clock generation time in seconds.
    pub duration_secs: f64,
    /// Worker threads used (1 = sequential).
    pub workers: usize,
}

impl GenerationMetrics {
    /// Assemble from a timed generation run.
    pub fn measure(items: u64, bytes: u64, duration: Duration, workers: usize) -> Self {
        Self {
            items,
            bytes,
            duration_secs: duration.as_secs_f64(),
            workers: workers.max(1),
        }
    }

    /// Achieved items per second.
    pub fn items_per_sec(&self) -> f64 {
        self.items as f64 / self.duration_secs.max(1e-9)
    }

    /// Achieved (approximate) bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.duration_secs.max(1e-9)
    }

    /// Relative error |achieved − target| / target of the items rate.
    pub fn rate_error(&self, target_items_per_sec: f64) -> f64 {
        ((self.items_per_sec() - target_items_per_sec) / target_items_per_sec).abs()
    }

    /// Fold another generation run (e.g. a second dataset of the same
    /// benchmark) into this one; durations add, workers keep the maximum.
    pub fn merge(&mut self, other: &GenerationMetrics) {
        self.items += other.items;
        self.bytes += other.bytes;
        self.duration_secs += other.duration_secs;
        self.workers = self.workers.max(other.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_metrics_rates_and_merge() {
        let mut g = GenerationMetrics::measure(1000, 8000, Duration::from_millis(500), 4);
        assert!((g.items_per_sec() - 2000.0).abs() < 1e-6);
        assert!((g.bytes_per_sec() - 16_000.0).abs() < 1e-6);
        g.merge(&GenerationMetrics::measure(1000, 2000, Duration::from_millis(500), 2));
        assert_eq!(g.items, 2000);
        assert_eq!(g.bytes, 10_000);
        assert_eq!(g.workers, 4);
        assert!((g.items_per_sec() - 2000.0).abs() < 1e-6);
        assert!((g.rate_error(2500.0) - 0.2).abs() < 1e-9);
        // Zero-duration runs don't divide by zero.
        assert!(GenerationMetrics::default().items_per_sec() >= 0.0);
    }

    #[test]
    fn collector_records_latencies_and_throughput() {
        let mut c = MetricsCollector::new();
        for i in 1..=100u64 {
            c.record_latency(Duration::from_micros(i));
        }
        let m = c.finish();
        assert_eq!(m.operations, 100);
        assert_eq!(m.latency_samples, 100);
        assert!(m.throughput_ops_per_sec > 0.0);
        assert!(m.latency_p50_us <= m.latency_p95_us);
        assert!(m.latency_p95_us <= m.latency_p99_us * 1.001);
        // Mean of 1..=100us is 50.5us.
        assert!((m.latency_mean_us - 50.5).abs() < 1.0, "mean {}", m.latency_mean_us);
    }

    #[test]
    fn time_records_and_returns() {
        let mut c = MetricsCollector::new();
        let v = c.time(|| 2 + 2);
        assert_eq!(v, 4);
        assert_eq!(c.finish().latency_samples, 1);
    }

    #[test]
    fn batch_operations_without_latency() {
        let mut c = MetricsCollector::new();
        c.record_operations(1000);
        let m = c.finish();
        assert_eq!(m.operations, 1000);
        assert_eq!(m.latency_samples, 0);
        assert_eq!(m.latency_p99_us, 0.0);
    }

    #[test]
    fn merge_combines_parallel_clients() {
        let mut a = MetricsCollector::new();
        let mut b = MetricsCollector::new();
        a.record_latency(Duration::from_micros(10));
        b.record_latency(Duration::from_micros(1000));
        a.merge(&b);
        let m = a.finish();
        assert_eq!(m.operations, 2);
        assert_eq!(m.latency_samples, 2);
        assert!(m.latency_p99_us > 100.0);
    }
}
