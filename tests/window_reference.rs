//! Property tests pinning the event-time windower to a one-loop reference.
//!
//! The reference applies the zero-lateness rule of the reference oracle's
//! `windowed_oracle`: an event at `ts` falls in the tumbling pane
//! `(ts - ts % size, key)` and counts only while that window is still open
//! (`start + size > watermark`, the watermark being the largest timestamp
//! seen so far). The streaming [`Windower`] must emit exactly the
//! reference's panes, in `(window_start, key)` order, under any arrival
//! order.

use bdbench::common::event::Event;
use bdbench::stream::window::{WindowAggregate, Windower};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The zero-lateness rule as one loop over the events.
fn reference(size: u64, events: &[Event]) -> Vec<WindowAggregate> {
    let mut watermark = 0;
    let mut panes: BTreeMap<(u64, u64), WindowAggregate> = BTreeMap::new();
    for e in events {
        let start = e.ts_ms - e.ts_ms % size;
        if start + size > watermark {
            let p = panes.entry((start, e.key)).or_insert(WindowAggregate {
                window_start: start,
                window_end: start + size,
                key: e.key,
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            });
            p.count += 1;
            p.sum += e.value;
            p.min = p.min.min(e.value);
            p.max = p.max.max(e.value);
        }
        watermark = watermark.max(e.ts_ms);
    }
    panes.into_values().collect()
}

/// Feed events through the windower: every pane in emission order.
fn windowed(size: u64, events: &[Event]) -> Vec<WindowAggregate> {
    let mut w = Windower::new(size);
    let mut out: Vec<WindowAggregate> = events.iter().flat_map(|e| w.push(e)).collect();
    out.extend(w.flush());
    out
}

fn arb_size() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(64), Just(100), Just(1_000)]
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    // Integer-valued payloads keep float sums exactly associative, so
    // the streaming and reference aggregates compare with `==`.
    prop::collection::vec((0u64..2_000, 0u64..4, 0i64..100), 0..250)
        .prop_map(|v| v.into_iter().map(|(ts, k, x)| Event::new(ts, k, x as f64)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ordered_input_matches_batch_reference(size in arb_size(), mut events in arb_events()) {
        // In timestamp order nothing is late: every event lands in a pane.
        events.sort_by_key(|e| e.ts_ms);
        let got = windowed(size, &events);
        prop_assert_eq!(got.iter().map(|p| p.count).sum::<u64>(), events.len() as u64);
        prop_assert_eq!(got, reference(size, &events));
    }

    #[test]
    fn shuffled_input_matches_the_zero_lateness_reference(
        size in arb_size(),
        events in arb_events(),
    ) {
        // The generator interleaves timestamps freely: arbitrary arrival
        // order, late events included.
        prop_assert_eq!(windowed(size, &events), reference(size, &events));
    }
}
