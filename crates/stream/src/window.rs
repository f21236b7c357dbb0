//! Event-time tumbling windows.
//!
//! # Watermark contract
//!
//! A pane is one `(window, key)` pair; an event at `ts` falls in the
//! window starting at `ts - ts % size`. The watermark is the largest event
//! timestamp seen so far, with zero allowed lateness: a window
//! `[start, start + size)` is *closed* once `start + size <= watermark`,
//! and a closed pane is emitted exactly once. An event whose window has
//! closed is dropped — the rule the reference oracle's `windowed_oracle`
//! applies — and all remaining panes flush at end-of-stream.

use bdb_common::event::Event;
use std::collections::BTreeMap;

/// The aggregate emitted when a `(window, key)` pane closes.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Window start (inclusive), event-time ms.
    pub window_start: u64,
    /// Window end (exclusive).
    pub window_end: u64,
    /// The grouping key.
    pub key: u64,
    /// Events in the pane.
    pub count: u64,
    /// Sum of event values.
    pub sum: f64,
    /// Minimum event value.
    pub min: f64,
    /// Maximum event value.
    pub max: f64,
}

/// Incremental per-pane state.
#[derive(Debug, Clone)]
struct PaneState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl PaneState {
    fn new() -> Self {
        Self { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The windowing operator: feed events in, collect closed panes.
#[derive(Debug)]
pub struct Windower {
    /// Window length in event-time milliseconds.
    size_ms: u64,
    /// Open panes keyed by (window_start, key).
    panes: BTreeMap<(u64, u64), PaneState>,
    watermark: u64,
}

impl Windower {
    /// A tumbling windower of `size_ms` event-time milliseconds.
    ///
    /// # Panics
    /// Panics when `size_ms == 0`.
    pub fn new(size_ms: u64) -> Self {
        assert!(size_ms > 0, "window size must be positive");
        Self { size_ms, panes: BTreeMap::new(), watermark: 0 }
    }

    /// Ingest one event; returns any panes the advancing watermark closed.
    /// An event whose window has already closed is dropped.
    pub fn push(&mut self, event: &Event) -> Vec<WindowAggregate> {
        let start = event.ts_ms - event.ts_ms % self.size_ms;
        if start + self.size_ms <= self.watermark {
            return Vec::new();
        }
        self.panes
            .entry((start, event.key))
            .or_insert_with(PaneState::new)
            .update(event.value);
        if event.ts_ms > self.watermark {
            self.watermark = event.ts_ms;
            self.close_until(self.watermark)
        } else {
            Vec::new()
        }
    }

    /// Close every pane whose window end is `<= watermark`.
    fn close_until(&mut self, watermark: u64) -> Vec<WindowAggregate> {
        // Panes are ordered by window_start; stop at the first open one.
        let cutoff = watermark.saturating_sub(self.size_ms - 1);
        let open = self.panes.split_off(&(cutoff, 0));
        let closed = std::mem::replace(&mut self.panes, open);
        self.finish_all(closed)
    }

    /// Flush all remaining panes (end of stream).
    pub fn flush(&mut self) -> Vec<WindowAggregate> {
        let panes = std::mem::take(&mut self.panes);
        self.finish_all(panes)
    }

    fn finish_all(&self, panes: BTreeMap<(u64, u64), PaneState>) -> Vec<WindowAggregate> {
        panes
            .into_iter()
            .map(|((start, key), state)| WindowAggregate {
                window_start: start,
                window_end: start + self.size_ms,
                key,
                count: state.count,
                sum: state.sum,
                min: state.min,
                max: state.max,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push every event, then flush: all panes in emission order.
    fn run(size_ms: u64, events: &[Event]) -> Vec<WindowAggregate> {
        let mut w = Windower::new(size_ms);
        let mut out: Vec<WindowAggregate> = events.iter().flat_map(|e| w.push(e)).collect();
        out.extend(w.flush());
        out
    }

    #[test]
    fn tumbling_assignment_is_unique() {
        let starts = |ts: u64| -> Vec<u64> {
            run(100, &[Event::new(ts, 1, 1.0)]).iter().map(|a| a.window_start).collect()
        };
        assert_eq!(starts(0), vec![0]);
        assert_eq!(starts(99), vec![0]);
        assert_eq!(starts(100), vec![100]);
        assert_eq!(starts(250), vec![200]);
    }

    #[test]
    fn tumbling_aggregation_matches_batch() {
        let events: Vec<Event> = (0..10u64).map(|i| Event::new(i * 30, 1, i as f64)).collect();
        let out = run(100, &events);
        // Events at 0,30,60,90 -> window 0; 120..180 -> window 100; etc.
        let w0 = out.iter().find(|a| a.window_start == 0).unwrap();
        assert_eq!(w0.count, 4);
        assert_eq!(w0.sum, 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(w0.min, 0.0);
        assert_eq!(w0.max, 3.0);
        let total: u64 = out.iter().map(|a| a.count).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn watermark_closes_past_windows_eagerly() {
        let mut w = Windower::new(100);
        assert!(w.push(&Event::new(10, 1, 1.0)).is_empty());
        let closed = w.push(&Event::new(205, 1, 1.0));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window_start, 0);
        // Window 200 is still open until the watermark passes 299.
        let rest = w.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window_start, 200);
    }

    #[test]
    fn keys_get_separate_panes() {
        let out = run(100, &[Event::new(10, 1, 5.0), Event::new(20, 2, 7.0)]);
        assert_eq!(out.len(), 2);
        let k1 = out.iter().find(|a| a.key == 1).unwrap();
        assert_eq!(k1.sum, 5.0);
    }

    #[test]
    fn late_events_are_dropped_not_resurrected() {
        let mut w = Windower::new(100);
        w.push(&Event::new(50, 1, 1.0));
        // Advance the watermark past window [0, 100): it closes.
        let closed = w.push(&Event::new(250, 1, 1.0));
        assert_eq!(closed.len(), 1);
        // A very late event for the closed window must be dropped.
        assert!(w.push(&Event::new(60, 1, 99.0)).is_empty());
        // Flush must not re-emit window 0, and the late event counts nowhere.
        let rest = w.flush();
        assert!(rest.iter().all(|a| a.window_start != 0), "{rest:?}");
        assert_eq!(closed.iter().chain(&rest).map(|a| a.count).sum::<u64>(), 2);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run(10, &[]).is_empty());
    }

    #[test]
    fn out_of_order_event_within_open_window_still_counts() {
        let mut w = Windower::new(100);
        w.push(&Event::new(150, 1, 1.0));
        // Late event for the same open window (watermark 150 < end 200).
        w.push(&Event::new(120, 1, 1.0));
        let out = w.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 2);
    }
}
