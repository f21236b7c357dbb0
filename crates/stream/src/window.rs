//! Event-time windowing.
//!
//! # Watermark and lateness contract
//!
//! Windows are event-time based with a **zero-lateness watermark**: the
//! watermark is simply the largest event timestamp seen so far (the
//! stream generators emit (almost) ordered timestamps, so no extra slack
//! is built into the watermark itself). A window `[start, start + size)`
//! is *closed* once
//!
//! ```text
//! start + size + allowed_lateness <= watermark
//! ```
//!
//! and a closed pane is emitted exactly once — nothing may resurrect it.
//! `allowed_lateness_ms` is the only out-of-orderness budget: an event
//! may still count into any covering window that is not yet closed under
//! the rule above, and is dropped from (only) the covering windows that
//! are. For sliding windows an event can therefore be *partially late*:
//! it lands in its still-open newer windows while its already-closed
//! older windows skip it. [`Windower::late_events`] counts events whose
//! every covering window had closed; [`Windower::late_panes`] counts
//! individual skipped `(window, key)` assignments, including those of
//! fully-late events. All remaining panes flush at end-of-stream.

use bdb_common::event::Event;
use std::collections::BTreeMap;

/// A window assignment policy: tumbling (`slide == size`) or sliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in event-time milliseconds.
    pub size_ms: u64,
    /// Distance between consecutive window starts.
    pub slide_ms: u64,
}

impl WindowSpec {
    /// Non-overlapping windows of `size_ms`.
    ///
    /// # Panics
    /// Panics when `size_ms == 0`.
    pub fn tumbling(size_ms: u64) -> Self {
        assert!(size_ms > 0, "window size must be positive");
        Self { size_ms, slide_ms: size_ms }
    }

    /// Overlapping windows of `size_ms` starting every `slide_ms`.
    ///
    /// # Panics
    /// Panics when either parameter is zero or `slide_ms > size_ms`.
    pub fn sliding(size_ms: u64, slide_ms: u64) -> Self {
        assert!(size_ms > 0 && slide_ms > 0, "window parameters must be positive");
        assert!(slide_ms <= size_ms, "slide must not exceed size");
        Self { size_ms, slide_ms }
    }

    /// The starts of every window containing `ts`.
    pub fn window_starts(&self, ts: u64) -> Vec<u64> {
        // Last window start <= ts, then walk back while the window still
        // covers ts.
        let last = (ts / self.slide_ms) * self.slide_ms;
        let mut starts = Vec::new();
        let mut s = last;
        loop {
            if s + self.size_ms > ts {
                starts.push(s);
            } else {
                break;
            }
            if s < self.slide_ms {
                break;
            }
            s -= self.slide_ms;
        }
        starts.reverse();
        starts
    }
}

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
    spec: WindowSpec,
    /// Extra event-time slack before a window is considered closed.
    allowed_lateness_ms: u64,
    /// Open panes keyed by (window_start, key).
    panes: BTreeMap<(u64, u64), PaneState>,
    watermark: u64,
    late_events: u64,
    late_panes: u64,
}

impl Windower {
    /// A windower for `spec` with zero allowed lateness.
    pub fn new(spec: WindowSpec) -> Self {
        Self::with_allowed_lateness(spec, 0)
    }

    /// A windower that keeps windows open `allowed_lateness_ms` past
    /// their end, so mildly out-of-order events still count.
    pub fn with_allowed_lateness(spec: WindowSpec, allowed_lateness_ms: u64) -> Self {
        Self {
            spec,
            allowed_lateness_ms,
            panes: BTreeMap::new(),
            watermark: 0,
            late_events: 0,
            late_panes: 0,
        }
    }

    /// Events dropped because every window covering them had already
    /// closed when they arrived.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Individual `(window, key)` assignments skipped because that window
    /// had already closed — including the assignments of fully-late
    /// events, so `emitted counts + late_panes` conserves the total
    /// number of window assignments.
    pub fn late_panes(&self) -> u64 {
        self.late_panes
    }

    /// Ingest one event; returns any panes the advancing watermark closed.
    ///
    /// The event counts only into covering windows that are still open
    /// (`end + allowed_lateness > watermark`) — a closed window is never
    /// resurrected, even when a sliding event's other covering windows
    /// remain open. An event whose every covering window has closed is
    /// counted as late and dropped.
    pub fn push(&mut self, event: &Event) -> Vec<WindowAggregate> {
        let starts = self.spec.window_starts(event.ts_ms);
        let mut inserted = false;
        for start in starts {
            if start + self.spec.size_ms + self.allowed_lateness_ms <= self.watermark {
                self.late_panes += 1;
                continue;
            }
            inserted = true;
            self.panes
                .entry((start, event.key))
                .or_insert_with(PaneState::new)
                .update(event.value);
        }
        if !inserted {
            self.late_events += 1;
            return Vec::new();
        }
        if event.ts_ms > self.watermark {
            self.watermark = event.ts_ms;
            self.close_until(self.watermark)
        } else {
            Vec::new()
        }
    }

    /// Close every pane whose window end (plus allowed lateness) is
    /// `<= watermark`.
    fn close_until(&mut self, watermark: u64) -> Vec<WindowAggregate> {
        let size = self.spec.size_ms;
        let mut closed = Vec::new();
        // Panes are ordered by window_start; stop at the first open one.
        let cutoff = watermark
            .saturating_sub(self.allowed_lateness_ms)
            .saturating_sub(size.saturating_sub(1));
        let open = self.panes.split_off(&(cutoff, 0));
        for ((start, key), state) in std::mem::replace(&mut self.panes, open) {
            closed.push(Self::finish(start, size, key, state));
        }
        closed
    }

    /// Flush all remaining panes (end of stream).
    pub fn flush(&mut self) -> Vec<WindowAggregate> {
        let size = self.spec.size_ms;
        std::mem::take(&mut self.panes)
            .into_iter()
            .map(|((start, key), state)| Self::finish(start, size, key, state))
            .collect()
    }

    fn finish(start: u64, size: u64, key: u64, state: PaneState) -> WindowAggregate {
        WindowAggregate {
            window_start: start,
            window_end: start + size,
            key,
            count: state.count,
            sum: state.sum,
            min: state.min,
            max: state.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assignment_is_unique() {
        let w = WindowSpec::tumbling(100);
        assert_eq!(w.window_starts(0), vec![0]);
        assert_eq!(w.window_starts(99), vec![0]);
        assert_eq!(w.window_starts(100), vec![100]);
        assert_eq!(w.window_starts(250), vec![200]);
    }

    #[test]
    fn sliding_assignment_overlaps() {
        let w = WindowSpec::sliding(100, 50);
        assert_eq!(w.window_starts(120), vec![50, 100]);
        assert_eq!(w.window_starts(20), vec![0]);
        assert_eq!(w.window_starts(75), vec![0, 50]);
    }

    #[test]
    #[should_panic(expected = "slide must not exceed size")]
    fn sliding_rejects_gappy_slide() {
        let _ = WindowSpec::sliding(50, 100);
    }

    #[test]
    fn tumbling_aggregation_matches_batch() {
        let mut w = Windower::new(WindowSpec::tumbling(100));
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.extend(w.push(&Event::new(i * 30, 1, i as f64)));
        }
        out.extend(w.flush());
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
        let mut w = Windower::new(WindowSpec::tumbling(100));
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
        let mut w = Windower::new(WindowSpec::tumbling(100));
        w.push(&Event::new(10, 1, 5.0));
        w.push(&Event::new(20, 2, 7.0));
        let out = w.flush();
        assert_eq!(out.len(), 2);
        let k1 = out.iter().find(|a| a.key == 1).unwrap();
        assert_eq!(k1.sum, 5.0);
    }

    #[test]
    fn sliding_counts_events_in_every_covering_window() {
        let mut w = Windower::new(WindowSpec::sliding(100, 50));
        w.push(&Event::new(75, 1, 1.0));
        let out = w.flush();
        // Covered by windows starting at 0 and 50.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| a.count == 1));
    }

    #[test]
    fn late_events_are_dropped_not_resurrected() {
        let mut w = Windower::new(WindowSpec::tumbling(100));
        w.push(&Event::new(50, 1, 1.0));
        // Advance the watermark past window [0, 100): it closes.
        let closed = w.push(&Event::new(250, 1, 1.0));
        assert_eq!(closed.len(), 1);
        // A very late event for the closed window must be dropped.
        assert!(w.push(&Event::new(60, 1, 99.0)).is_empty());
        assert_eq!(w.late_events(), 1);
        // Flush must not re-emit window 0.
        let rest = w.flush();
        assert!(rest.iter().all(|a| a.window_start != 0), "{rest:?}");
    }

    #[test]
    fn partially_late_sliding_event_does_not_resurrect_closed_pane() {
        // Regression: an out-of-order event covered by one closed and one
        // open sliding window used to be re-inserted into BOTH, emitting
        // the closed (window_start, key) pane a second time at flush.
        let mut w = Windower::new(WindowSpec::sliding(100, 50));
        w.push(&Event::new(60, 1, 1.0)); // panes 0 and 50
        // Watermark to 160: closes window [0, 100); [50, 150) closes too?
        // 50 + 100 <= 160, yes — use 130 instead so [50, 150) stays open.
        let closed = w.push(&Event::new(130, 1, 1.0)); // panes 50, 100
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window_start, 0);
        // Event at 70 covers windows 0 (closed) and 50 (open): it must
        // count only into 50 and skip 0.
        assert!(w.push(&Event::new(70, 1, 5.0)).is_empty());
        assert_eq!(w.late_events(), 0, "event landed in an open window");
        assert_eq!(w.late_panes(), 1, "the closed pane was skipped");
        let rest = w.flush();
        assert!(
            rest.iter().all(|a| a.window_start != 0),
            "closed pane resurrected: {rest:?}"
        );
        let w50 = rest.iter().find(|a| a.window_start == 50).unwrap();
        assert_eq!(w50.count, 3); // events at 60, 130, 70
        // No duplicate (window_start, key) across closed + flushed output.
        let mut seen: Vec<(u64, u64)> = closed
            .iter()
            .chain(rest.iter())
            .map(|a| (a.window_start, a.key))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), closed.len() + rest.len());
    }

    #[test]
    fn fully_late_event_counts_all_its_panes_late() {
        let mut w = Windower::new(WindowSpec::sliding(100, 50));
        w.push(&Event::new(60, 1, 1.0));
        w.push(&Event::new(300, 1, 1.0)); // closes everything through 200
        assert!(w.push(&Event::new(70, 1, 9.0)).is_empty());
        assert_eq!(w.late_events(), 1);
        assert_eq!(w.late_panes(), 2, "both covering windows were closed");
    }

    #[test]
    fn allowed_lateness_keeps_windows_open() {
        let mut w = Windower::with_allowed_lateness(WindowSpec::tumbling(100), 200);
        w.push(&Event::new(50, 1, 1.0));
        // Watermark at 250: without lateness the window would be closed,
        // but a 200ms grace keeps it open.
        assert!(w.push(&Event::new(250, 1, 1.0)).is_empty());
        assert!(w.push(&Event::new(60, 1, 1.0)).is_empty());
        assert_eq!(w.late_events(), 0);
        let out = w.flush();
        let w0 = out.iter().find(|a| a.window_start == 0).unwrap();
        assert_eq!(w0.count, 2);
    }

    /// Push every event, then flush: all panes in emission order.
    fn run(mut w: Windower, events: &[Event]) -> (Vec<WindowAggregate>, Windower) {
        let mut out: Vec<WindowAggregate> = events.iter().flat_map(|e| w.push(e)).collect();
        out.extend(w.flush());
        (out, w)
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, w) = run(Windower::new(WindowSpec::tumbling(10)), &[]);
        assert!(out.is_empty());
        assert_eq!((w.late_events(), w.late_panes()), (0, 0));
    }

    #[test]
    fn out_of_order_stream_reports_late_events() {
        // An ordered stream with one event far behind the watermark.
        let mut events: Vec<Event> = (0..100).map(|i| Event::new(i * 10, i % 4, 1.0)).collect();
        events.push(Event::new(5, 0, 1.0));
        let (_, strict) = run(Windower::new(WindowSpec::tumbling(50)), &events);
        assert_eq!(strict.late_events(), 1);
        // With generous lateness the same event is accepted.
        let lenient = Windower::with_allowed_lateness(WindowSpec::tumbling(50), 10_000);
        let (out, lenient) = run(lenient, &events);
        assert_eq!(lenient.late_events(), 0);
        assert_eq!(out.iter().map(|w| w.count).sum::<u64>(), 101);
    }

    #[test]
    fn out_of_order_event_within_open_window_still_counts() {
        let mut w = Windower::new(WindowSpec::tumbling(100));
        w.push(&Event::new(150, 1, 1.0));
        // Late event for the same open window (watermark 150 < end 200).
        w.push(&Event::new(120, 1, 1.0));
        let out = w.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 2);
    }
}
