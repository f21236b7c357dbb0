//! Stream analytics: keyed tumbling-window aggregation.
//!
//! The paper's third meaning of *velocity* — "data streams continuously
//! arrive and these streams must be processed in real-time to keep up
//! with their arriving speed" — becomes a workload here: a keyed
//! tumbling-window aggregation over generated Poisson or MMPP traffic,
//! one [`Windower`] pass on the caller's thread. Its sustained rate is the
//! run's throughput; the keep-up test at a fixed arrival rate is the load
//! driver's open loop (`bdbench load --engine streaming --arrival poisson:R`).

use crate::Work;
use bdb_common::event::Event;
use bdb_metrics::OpCounts;
use bdb_stream::{WindowAggregate, Windower};

/// Aggregate `events` into tumbling windows of `window_ms` event-time ms
/// per key: the closed panes in emission order, and the work counted.
pub fn windowed_aggregation(events: &[Event], window_ms: u64) -> (Vec<WindowAggregate>, Work) {
    let mut windower = Windower::new(window_ms);
    let mut windows = Vec::new();
    for e in events {
        windows.extend(windower.push(e));
    }
    windows.extend(windower.flush());
    let n = events.len() as u64;
    let work = Work {
        operations: n,
        ops: OpCounts {
            // each event is read in and passed on, each pane emitted once
            record_ops: 2 * n + windows.len() as u64,
            float_ops: 3 * n, // sum, min, max per event
        },
        input_items: n,
    };
    (windows, work)
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
        let (windows, work) = windowed_aggregation(&events(5000), 1000);
        let counted: u64 = windows.iter().map(|w| w.count).sum();
        assert_eq!(counted, 5000);
        assert_eq!(work.operations, 5000);
        assert_eq!(work.ops.record_ops, 10_000 + windows.len() as u64);
        assert_eq!(work.ops.float_ops, 15_000);
        assert!(windows.len() > 1);
    }
}
