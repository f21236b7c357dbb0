//! Behavioral-analytics streaming aggregates.
//!
//! Four operations drawn from production clickstream analytics — the
//! workload class BigDataBench sources from internet services and this
//! framework was missing (ROADMAP item 3):
//!
//! * **sessionize** — split each user's event stream into sessions
//!   separated by inactivity gaps longer than `gap_ms`.
//! * **retention** — cohort day-N return rates: for each period offset
//!   `d`, how many users came back `d` periods after their first visit.
//! * **window_funnel** — the deepest prefix of an ordered step sequence a
//!   user completes within a sliding time window.
//! * **sequence_match** — whether a user's event sequence contains an
//!   ordered action pattern as a subsequence.
//!
//! Each aggregate keeps *bounded* per-user state, in the style of
//! streaming behavioral engines: retention is O(1) per user (a 64-bit
//! period bitmask), and the event-collecting aggregates store at most 16
//! bytes per observed (funnel/sequence: per *matching*) event — never
//! whole events, never unbounded intermediate products.
//!
//! **Ordering contract.** Events are observed in arrival order, which may
//! be out of timestamp order (the behavioral generator seeds
//! out-of-orderness deliberately). Every aggregate is
//! *order-insensitive*: collected state is sorted by `(ts, action)` at
//! finalize time, so late or shuffled arrivals produce exactly the batch
//! answer. There is no watermark and nothing is dropped — lateness costs
//! buffer space (within the per-event ceiling), not correctness.

use bdb_common::event::Event;
use bdb_common::record::row_lines;
use std::collections::BTreeMap;

/// Retention tracks at most this many periods per user: the cohort
/// bitmask is a single `u64`, one bit per period since stream start.
/// Events beyond the last period clamp to the final bit (documented
/// saturation, mirrored by the verification oracle).
pub const RETENTION_MAX_PERIODS: u32 = 64;

/// Which behavioral operation to run, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum BehavioralSpec {
    /// Gap-based session assignment: a new session starts whenever the
    /// gap to the previous event (in event time) exceeds `gap_ms`.
    Sessionize {
        /// Inactivity gap (exclusive) that closes a session.
        gap_ms: u64,
    },
    /// Cohort return rates: period `ts / period_ms` per event, cohort =
    /// a user's first active period, returned(d) = active in cohort + d.
    Retention {
        /// Length of one period (a "day") in ms.
        period_ms: u64,
        /// Number of offsets `d` to report (capped by
        /// [`RETENTION_MAX_PERIODS`]).
        periods: u32,
    },
    /// Max completed funnel depth: the longest prefix of `steps` a user
    /// hits in order, all within `window_ms` of the prefix's first step.
    WindowFunnel {
        /// Window anchored at the step-0 event, inclusive.
        window_ms: u64,
        /// Ordered step actions (distinct; a duplicate action counts for
        /// its first matching step only).
        steps: Vec<u64>,
    },
    /// Ordered subsequence match of `steps` against a user's actions.
    SequenceMatch {
        /// The action pattern, matched greedily left to right.
        steps: Vec<u64>,
    },
}

impl BehavioralSpec {
    /// The operation's canonical name (matches the prescription op name).
    pub fn name(&self) -> &'static str {
        match self {
            BehavioralSpec::Sessionize { .. } => "sessionize",
            BehavioralSpec::Retention { .. } => "retention",
            BehavioralSpec::WindowFunnel { .. } => "window-funnel",
            BehavioralSpec::SequenceMatch { .. } => "sequence-match",
        }
    }
}

/// Per-user sessionize state: raw timestamps, 8 bytes per event.
#[derive(Debug, Clone, Default)]
pub struct SessionizeAgg {
    stamps: Vec<u64>,
}

impl SessionizeAgg {
    /// Observe one event (any arrival order).
    pub fn observe(&mut self, ts_ms: u64) {
        self.stamps.push(ts_ms);
    }

    /// Session and event counts under the gap rule.
    pub fn finalize(&mut self, gap_ms: u64) -> (u64, u64) {
        if self.stamps.is_empty() {
            return (0, 0);
        }
        self.stamps.sort_unstable();
        let gaps = self.stamps.windows(2).filter(|w| w[1] - w[0] > gap_ms).count() as u64;
        (gaps + 1, self.stamps.len() as u64)
    }

    /// Bytes of collected state.
    pub fn state_bytes(&self) -> usize {
        self.stamps.len() * std::mem::size_of::<u64>()
    }
}

/// Per-user retention state: one bit per active period. O(1) per user.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionAgg {
    mask: u64,
}

impl RetentionAgg {
    /// Observe one event: set the bit for its period (clamped to bit 63).
    pub fn observe(&mut self, ts_ms: u64, period_ms: u64) {
        let idx = (ts_ms / period_ms.max(1)).min(u64::from(RETENTION_MAX_PERIODS) - 1);
        self.mask |= 1 << idx;
    }

    /// The user's cohort period (first active period), if any event seen.
    pub fn cohort(&self) -> Option<u32> {
        (self.mask != 0).then(|| self.mask.trailing_zeros())
    }

    /// Did the user return `d` periods after their cohort period?
    pub fn returned(&self, d: u32) -> bool {
        match self.cohort() {
            Some(c) if c + d < RETENTION_MAX_PERIODS => self.mask & (1 << (c + d)) != 0,
            _ => false,
        }
    }

    /// Bytes of state — constant, independent of event count.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
    }
}

/// Per-user funnel state: `(ts, action)` for step-matching events only,
/// 16 bytes per matching event.
#[derive(Debug, Clone, Default)]
pub struct FunnelAgg {
    hits: Vec<(u64, u64)>,
}

impl FunnelAgg {
    /// Observe one event; only actions appearing in `steps` are kept.
    pub fn observe(&mut self, ts_ms: u64, action: u64, steps: &[u64]) {
        if steps.contains(&action) {
            self.hits.push((ts_ms, action));
        }
    }

    /// The deepest funnel level completed within `window_ms` of a step-0
    /// anchor. Dynamic program over `(ts, action)`-sorted hits keeping,
    /// per level, the latest viable anchor — a later anchor admits a
    /// superset of future in-window hits, so it dominates.
    pub fn finalize(&mut self, window_ms: u64, steps: &[u64]) -> u64 {
        if steps.is_empty() {
            return 0;
        }
        self.hits.sort_unstable();
        let mut start: Vec<Option<u64>> = vec![None; steps.len()];
        for &(ts, action) in &self.hits {
            // A duplicate step action counts for its first matching step.
            let Some(s) = steps.iter().position(|&a| a == action) else { continue };
            if s == 0 {
                start[0] = Some(start[0].map_or(ts, |cur| cur.max(ts)));
            } else if let Some(anchor) = start[s - 1] {
                if ts - anchor <= window_ms {
                    start[s] = Some(start[s].map_or(anchor, |cur| cur.max(anchor)));
                }
            }
        }
        start.iter().rposition(Option::is_some).map_or(0, |i| i as u64 + 1)
    }

    /// Bytes of collected state.
    pub fn state_bytes(&self) -> usize {
        self.hits.len() * std::mem::size_of::<(u64, u64)>()
    }
}

/// Per-user sequence-match state: `(ts, action)` for pattern-matching
/// events only, 16 bytes per matching event.
#[derive(Debug, Clone, Default)]
pub struct SequenceAgg {
    hits: Vec<(u64, u64)>,
}

impl SequenceAgg {
    /// Observe one event; only actions appearing in `steps` are kept.
    pub fn observe(&mut self, ts_ms: u64, action: u64, steps: &[u64]) {
        if steps.contains(&action) {
            self.hits.push((ts_ms, action));
        }
    }

    /// `(matched_prefix_len, full_match)` under greedy left-to-right
    /// subsequence matching of the `(ts, action)`-sorted hits.
    pub fn finalize(&mut self, steps: &[u64]) -> (u64, bool) {
        self.hits.sort_unstable();
        let mut ptr = 0usize;
        for &(_, action) in &self.hits {
            if ptr < steps.len() && action == steps[ptr] {
                ptr += 1;
            }
        }
        (ptr as u64, ptr == steps.len())
    }

    /// Bytes of collected state.
    pub fn state_bytes(&self) -> usize {
        self.hits.len() * std::mem::size_of::<(u64, u64)>()
    }
}

/// The result of one behavioral run over a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralOutcome {
    /// Output rows as row lines (`bdb_common::record::row_lines`), one per
    /// user (sessionize, funnel, sequence-match) or per period offset
    /// (retention).
    pub rows: Vec<String>,
    /// Distinct users observed.
    pub users: u64,
    /// Events consumed.
    pub events: u64,
    /// Total aggregate state held at finalize time, in bytes. State only
    /// grows, so this is also the peak.
    pub peak_state_bytes: usize,
}

/// Run one behavioral operation over an event stream.
///
/// `event.key` is the user id; `event.value as u64` is the action id.
/// Events are fed in arrival order; results are independent of that
/// order (see the module docs).
pub fn run_behavioral(events: &[Event], spec: &BehavioralSpec) -> BehavioralOutcome {
    let total = events.len() as u64;
    match spec {
        BehavioralSpec::Sessionize { gap_ms } => {
            let mut users: BTreeMap<u64, SessionizeAgg> = BTreeMap::new();
            for e in events {
                users.entry(e.key).or_default().observe(e.ts_ms);
            }
            let peak = users.values().map(SessionizeAgg::state_bytes).sum();
            let n = users.len() as u64;
            let rows = row_lines(users.into_iter().map(|(user, mut agg)| {
                let (sessions, count) = agg.finalize(*gap_ms);
                [user, sessions, count]
            }));
            BehavioralOutcome { rows, users: n, events: total, peak_state_bytes: peak }
        }
        BehavioralSpec::Retention { period_ms, periods } => {
            let mut users: BTreeMap<u64, RetentionAgg> = BTreeMap::new();
            for e in events {
                users.entry(e.key).or_default().observe(e.ts_ms, *period_ms);
            }
            let peak = users.values().map(RetentionAgg::state_bytes).sum();
            let n = users.len() as u64;
            let periods = (*periods).min(RETENTION_MAX_PERIODS);
            let rows = row_lines((0..periods).map(|d| {
                let returned = users.values().filter(|a| a.returned(d)).count() as u64;
                [u64::from(d), returned, n]
            }));
            BehavioralOutcome { rows, users: n, events: total, peak_state_bytes: peak }
        }
        BehavioralSpec::WindowFunnel { window_ms, steps } => {
            let mut users: BTreeMap<u64, FunnelAgg> = BTreeMap::new();
            for e in events {
                users.entry(e.key).or_default().observe(e.ts_ms, e.value as u64, steps);
            }
            let peak = users.values().map(FunnelAgg::state_bytes).sum();
            let n = users.len() as u64;
            let rows = row_lines(
                users.into_iter().map(|(user, mut agg)| [user, agg.finalize(*window_ms, steps)]),
            );
            BehavioralOutcome { rows, users: n, events: total, peak_state_bytes: peak }
        }
        BehavioralSpec::SequenceMatch { steps } => {
            let mut users: BTreeMap<u64, SequenceAgg> = BTreeMap::new();
            for e in events {
                users.entry(e.key).or_default().observe(e.ts_ms, e.value as u64, steps);
            }
            let peak = users.values().map(SequenceAgg::state_bytes).sum();
            let n = users.len() as u64;
            let rows = row_lines(users.into_iter().map(|(user, mut agg)| {
                let (matched, hit) = agg.finalize(steps);
                [user, matched, u64::from(hit)]
            }));
            BehavioralOutcome { rows, users: n, events: total, peak_state_bytes: peak }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, user: u64, action: u64) -> Event {
        Event::new(ts, user, action as f64)
    }

    /// Row lines written with `|` between cells.
    fn lines(rows: &[&str]) -> Vec<String> {
        rows.iter().map(|r| r.replace('|', "\u{1f}")).collect()
    }

    #[test]
    fn sessionize_splits_on_gaps() {
        // User 1: gaps 5, 100, 5 with gap_ms=50 → 2 sessions, 4 events.
        let events = vec![ev(0, 1, 0), ev(5, 1, 0), ev(105, 1, 0), ev(110, 1, 0)];
        let out = run_behavioral(&events, &BehavioralSpec::Sessionize { gap_ms: 50 });
        assert_eq!(out.rows, lines(&["1|2|4"]));
        assert_eq!(out.users, 1);
        assert_eq!(out.events, 4);
    }

    #[test]
    fn sessionize_gap_boundary_is_exclusive() {
        // A gap of exactly gap_ms stays in the same session.
        let events = vec![ev(0, 1, 0), ev(50, 1, 0), ev(101, 1, 0)];
        let out = run_behavioral(&events, &BehavioralSpec::Sessionize { gap_ms: 50 });
        assert_eq!(out.rows, lines(&["1|2|3"]));
    }

    #[test]
    fn retention_counts_returns_per_offset() {
        // period 10ms. User 1: periods {0, 2}; user 2: periods {1}.
        let events = vec![ev(3, 1, 0), ev(25, 1, 0), ev(15, 2, 0)];
        let out =
            run_behavioral(&events, &BehavioralSpec::Retention { period_ms: 10, periods: 3 });
        // d=0: both returned; d=1: none; d=2: user 1.
        assert_eq!(
            out.rows,
            lines(&["0|2|2", "1|0|2", "2|1|2"])
        );
    }

    #[test]
    fn retention_clamps_beyond_the_mask() {
        let mut agg = RetentionAgg::default();
        agg.observe(10, 1); // period 10
        agg.observe(1_000_000, 1); // clamps to period 63
        assert_eq!(agg.cohort(), Some(10));
        assert!(agg.returned(53));
        assert!(!agg.returned(60)); // cohort + 60 > 63 → never returned
    }

    #[test]
    fn funnel_depth_respects_the_window() {
        let steps = vec![7, 8, 9];
        // Steps 7→8 within 10ms, but 9 arrives 100ms after the anchor.
        let events = vec![ev(0, 1, 7), ev(5, 1, 8), ev(100, 1, 9)];
        let out = run_behavioral(
            &events,
            &BehavioralSpec::WindowFunnel { window_ms: 10, steps: steps.clone() },
        );
        assert_eq!(out.rows, lines(&["1|2"]));
        // A wider window completes the funnel.
        let out =
            run_behavioral(&events, &BehavioralSpec::WindowFunnel { window_ms: 100, steps });
        assert_eq!(out.rows, lines(&["1|3"]));
    }

    #[test]
    fn funnel_prefers_a_later_anchor() {
        // The first anchor's window misses step 1; the second catches it.
        let steps = vec![0, 1];
        let events = vec![ev(0, 1, 0), ev(50, 1, 0), ev(55, 1, 1)];
        let out =
            run_behavioral(&events, &BehavioralSpec::WindowFunnel { window_ms: 10, steps });
        assert_eq!(out.rows, lines(&["1|2"]));
    }

    #[test]
    fn sequence_match_is_order_sensitive() {
        let steps = vec![1, 2, 3];
        let hit = vec![ev(0, 1, 1), ev(1, 1, 5), ev(2, 1, 2), ev(3, 1, 3)];
        let out = run_behavioral(&hit, &BehavioralSpec::SequenceMatch { steps: steps.clone() });
        assert_eq!(out.rows, lines(&["1|3|1"]));
        // Same actions, wrong order: only the prefix [1, 2] matches.
        let miss = vec![ev(0, 1, 1), ev(1, 1, 3), ev(2, 1, 2), ev(3, 1, 3)];
        let out = run_behavioral(&miss, &BehavioralSpec::SequenceMatch { steps });
        assert_eq!(out.rows, lines(&["1|3|1"]));
        // (1 at ts0, 2 at ts2, 3 at ts3 — still a subsequence.)
        let miss = vec![ev(0, 1, 3), ev(1, 1, 2), ev(2, 1, 1)];
        let out = run_behavioral(&miss, &BehavioralSpec::SequenceMatch { steps: vec![1, 2, 3] });
        assert_eq!(out.rows, lines(&["1|1|0"]));
    }

    #[test]
    fn results_are_arrival_order_independent() {
        let mut events: Vec<Event> = (0..200)
            .map(|i| ev((i * 37) % 500, i % 5, i % 4))
            .collect();
        let specs = [
            BehavioralSpec::Sessionize { gap_ms: 40 },
            BehavioralSpec::Retention { period_ms: 100, periods: 5 },
            BehavioralSpec::WindowFunnel { window_ms: 80, steps: vec![0, 1, 2] },
            BehavioralSpec::SequenceMatch { steps: vec![2, 0, 3] },
        ];
        for spec in &specs {
            let ordered = {
                let mut sorted = events.clone();
                sorted.sort_by_key(|e| e.ts_ms);
                run_behavioral(&sorted, spec)
            };
            events.reverse();
            let shuffled = run_behavioral(&events, spec);
            assert_eq!(ordered.rows, shuffled.rows, "{}", spec.name());
        }
    }

    #[test]
    fn state_stays_within_the_per_event_ceiling() {
        let events: Vec<Event> =
            (0..1000).map(|i| ev(i * 3, i % 7, i % 10)).collect();
        let collect_specs = [
            BehavioralSpec::Sessionize { gap_ms: 10 },
            BehavioralSpec::WindowFunnel { window_ms: 50, steps: vec![0, 1] },
            BehavioralSpec::SequenceMatch { steps: vec![3, 4] },
        ];
        for spec in &collect_specs {
            let out = run_behavioral(&events, spec);
            assert!(
                out.peak_state_bytes <= events.len() * 16,
                "{}: {} bytes for {} events",
                spec.name(),
                out.peak_state_bytes,
                events.len()
            );
        }
        // Retention is O(1) per user regardless of event count.
        let out =
            run_behavioral(&events, &BehavioralSpec::Retention { period_ms: 10, periods: 8 });
        assert_eq!(out.peak_state_bytes, 7 * 8);
    }
}
