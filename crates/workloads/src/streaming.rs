//! Stream analytics: windowed aggregation at controlled arrival rates.
//!
//! The paper's third meaning of *velocity* — "data streams continuously
//! arrive and these streams must be processed in real-time to keep up
//! with their arriving speed" — becomes a measurable workload here: a
//! keyed tumbling-window aggregation over generated Poisson or MMPP
//! traffic, run either at full speed (sustainable throughput) or paced
//! (keep-up test with lag measurement).

use crate::Work;
use bdb_common::event::Event;
use bdb_metrics::OpCounts;
use bdb_stream::{Pipeline, RunOutcome, WindowSpec};

/// Configuration for the windowed-aggregation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAnalyticsConfig {
    /// Tumbling window size in event-time ms.
    pub window_ms: u64,
    /// Drop events whose value is below this (the filter stage).
    pub min_value: f64,
    /// Replay pace in events/second; `None` = as fast as possible.
    pub paced_rate_eps: Option<f64>,
}

impl Default for StreamAnalyticsConfig {
    fn default() -> Self {
        Self { window_ms: 1000, min_value: f64::NEG_INFINITY, paced_rate_eps: None }
    }
}

/// Run the windowed aggregation workload over `events`.
pub fn windowed_aggregation(
    events: Vec<Event>,
    config: &StreamAnalyticsConfig,
) -> (RunOutcome, Work) {
    let n = events.len() as u64;
    let min_value = config.min_value;
    let pipeline = Pipeline::new()
        .filter(move |e| e.value >= min_value)
        .window(WindowSpec::tumbling(config.window_ms));
    let outcome = match config.paced_rate_eps {
        Some(rate) => pipeline.run_paced(events, rate),
        None => pipeline.run(events),
    };
    let work = Work {
        operations: n,
        ops: OpCounts {
            record_ops: outcome.events_in + outcome.events_out + outcome.windows.len() as u64,
            float_ops: outcome.events_out * 3, // sum, min, max per event
        },
        input_items: n,
    };
    (outcome, work)
}

/// The keep-up probe: find the highest arrival rate (from `candidates`,
/// ascending) the engine sustains with max lag below `lag_budget_ms`.
pub fn max_sustainable_rate(
    events: &[Event],
    config: &StreamAnalyticsConfig,
    candidates: &[f64],
    lag_budget_ms: f64,
) -> (f64, Vec<(f64, f64)>) {
    let mut best = 0.0;
    let mut observations = Vec::new();
    for &rate in candidates {
        let cfg = StreamAnalyticsConfig { paced_rate_eps: Some(rate), ..*config };
        let (outcome, _) = windowed_aggregation(events.to_vec(), &cfg);
        let lag = outcome.max_lag_ms.unwrap_or(f64::INFINITY);
        observations.push((rate, lag));
        if lag <= lag_budget_ms {
            best = rate;
        }
    }
    (best, observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::stream::PoissonArrivals;

    fn events(n: u64) -> Vec<Event> {
        PoissonArrivals::new(1000.0, 20).unwrap().generate_events(1, n)
    }

    #[test]
    fn window_counts_cover_all_events() {
        let evts = events(5000);
        let (outcome, work) = windowed_aggregation(evts.clone(), &StreamAnalyticsConfig::default());
        let counted: u64 = outcome.windows.iter().map(|w| w.count).sum();
        assert_eq!(counted, 5000);
        assert_eq!(work.operations, 5000);
        assert!(outcome.windows.len() > 1);
        assert!(outcome.max_lag_ms.is_none());
    }

    #[test]
    fn filter_drops_low_values() {
        let evts = events(5000);
        let cfg = StreamAnalyticsConfig { min_value: 100.0, ..Default::default() };
        let (outcome, _) = windowed_aggregation(evts.clone(), &cfg);
        // Values are N(100, 15): roughly half survive.
        let frac = outcome.events_out as f64 / outcome.events_in as f64;
        assert!((0.4..0.6).contains(&frac), "surviving fraction {frac}");
        for w in &outcome.windows {
            assert!(w.min >= 100.0);
        }
    }

    #[test]
    fn paced_run_reports_lag() {
        let evts = events(1000);
        let cfg = StreamAnalyticsConfig {
            paced_rate_eps: Some(50_000.0),
            ..Default::default()
        };
        let (outcome, _) = windowed_aggregation(evts.clone(), &cfg);
        assert!(outcome.max_lag_ms.is_some());
    }

    #[test]
    fn sustainable_rate_probe_orders_results() {
        let evts = events(2000);
        let (best, obs) = max_sustainable_rate(
            &evts,
            &StreamAnalyticsConfig::default(),
            &[10_000.0, 100_000.0],
            1_000.0, // generous budget: both should pass on any machine
        );
        assert_eq!(obs.len(), 2);
        assert!(best >= 10_000.0, "best {best}");
    }
}
