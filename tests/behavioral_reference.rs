//! Property tests pinning the streaming behavioral aggregates to naive
//! batch references.
//!
//! Each reference re-derives the answer from the full per-user event
//! sequence with straightforward (quadratic where natural) code that
//! shares no structure with the streaming kernels — the sessionize gap
//! walk, a per-user period set for retention, a per-anchor forward scan
//! for the window funnel, and prefix-by-prefix subsequence checks for
//! sequence matching. The kernels must match the references under
//! arbitrary (shuffled, late) arrival orders, and their collected state
//! must respect the advertised ceilings: constant per user for
//! retention, at most 16 bytes per event for the collectors.

use bdbench::common::event::Event;
use bdbench::common::record::row_lines;
use bdbench::stream::behavioral::{run_behavioral, BehavioralSpec, RETENTION_MAX_PERIODS};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Group events per user as `(ts, action)` pairs sorted the way the
/// kernels sort: by timestamp, then action.
fn per_user(events: &[Event]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut users: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        users.entry(e.key).or_default().push((e.ts_ms, e.value as u64));
    }
    for seq in users.values_mut() {
        seq.sort_unstable();
    }
    users
}

fn ref_sessionize(events: &[Event], gap_ms: u64) -> Vec<String> {
    row_lines(per_user(events).into_iter().map(|(user, seq)| {
        let mut sessions = 1u64;
        for w in seq.windows(2) {
            if w[1].0 - w[0].0 > gap_ms {
                sessions += 1;
            }
        }
        [user, sessions, seq.len() as u64]
    }))
}

fn ref_retention(events: &[Event], period_ms: u64, periods: u32) -> Vec<String> {
    let users = per_user(events);
    let sets: Vec<BTreeSet<u64>> = users
        .values()
        .map(|seq| {
            seq.iter()
                .map(|(ts, _)| (ts / period_ms.max(1)).min(u64::from(RETENTION_MAX_PERIODS) - 1))
                .collect()
        })
        .collect();
    row_lines((0..periods.min(RETENTION_MAX_PERIODS)).map(|d| {
        let returned = sets
            .iter()
            .filter(|s| {
                s.first().is_some_and(|c| {
                    c + u64::from(d) < u64::from(RETENTION_MAX_PERIODS)
                        && s.contains(&(c + u64::from(d)))
                })
            })
            .count();
        [d as usize, returned, sets.len()]
    }))
}

fn ref_funnel(events: &[Event], window_ms: u64, steps: &[u64]) -> Vec<String> {
    row_lines(per_user(events).into_iter().map(|(user, seq)| {
        // Per-anchor forward scan: try every step-0 hit as the
        // window anchor and walk the rest of the sequence greedily.
        let mut best = 0u64;
        for (i, &(t0, a0)) in seq.iter().enumerate() {
            if a0 != steps[0] {
                continue;
            }
            let mut level = 1usize;
            for &(ts, action) in &seq[i + 1..] {
                if level >= steps.len() || ts - t0 > window_ms {
                    break;
                }
                // Duplicate step actions count for the first
                // matching step only, exactly as the kernel does.
                if steps.iter().position(|&s| s == action) == Some(level) {
                    level += 1;
                }
            }
            best = best.max(level as u64);
        }
        [user, best]
    }))
}

/// Is `pattern` a subsequence of `actions`? Independent two-pointer walk.
fn is_subsequence(pattern: &[u64], actions: &[u64]) -> bool {
    let mut it = actions.iter();
    pattern.iter().all(|p| it.any(|a| a == p))
}

fn ref_sequence(events: &[Event], steps: &[u64]) -> Vec<String> {
    row_lines(per_user(events).into_iter().map(|(user, seq)| {
        let actions: Vec<u64> = seq
            .iter()
            .filter(|(_, a)| steps.contains(a))
            .map(|&(_, a)| a)
            .collect();
        // Longest matched prefix, checked prefix by prefix from the
        // longest down — no greedy pointer shared with the kernel.
        let matched = (0..=steps.len())
            .rev()
            .find(|&p| is_subsequence(&steps[..p], &actions))
            .unwrap_or(0);
        let hit = u64::from(matched == steps.len());
        [user, matched as u64, hit]
    }))
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    // Few users and actions force collisions: shared sessions, repeated
    // funnel steps, duplicate retention periods.
    prop::collection::vec((0u64..50_000, 0u64..6, 0u64..5), 0..300)
        .prop_map(|v| v.into_iter().map(|(ts, u, a)| Event::new(ts, u, a as f64)).collect())
}

fn arb_steps() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        Just(vec![0]),
        Just(vec![0, 1]),
        Just(vec![0, 1, 2]),
        Just(vec![2, 0, 3, 1]),
        Just(vec![1, 1, 2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sessionize_matches_reference_and_bounds_state(
        events in arb_events(),
        gap_ms in prop_oneof![Just(100u64), Just(1_000u64), Just(10_000u64)],
    ) {
        let out = run_behavioral(&events, &BehavioralSpec::Sessionize { gap_ms });
        prop_assert_eq!(&out.rows, &ref_sessionize(&events, gap_ms));
        prop_assert!(
            out.peak_state_bytes <= events.len() * 8,
            "sessionize keeps one u64 per event, got {} bytes for {} events",
            out.peak_state_bytes, events.len()
        );
    }

    #[test]
    fn retention_matches_reference_with_constant_state_per_user(
        events in arb_events(),
        period_ms in prop_oneof![Just(500u64), Just(5_000u64)],
        periods in prop_oneof![Just(1u32), Just(8u32), Just(200u32)],
    ) {
        let out = run_behavioral(&events, &BehavioralSpec::Retention { period_ms, periods });
        prop_assert_eq!(&out.rows, &ref_retention(&events, period_ms, periods));
        // O(1) per user regardless of event count: exactly one u64 mask.
        prop_assert_eq!(out.peak_state_bytes, out.users as usize * 8);
    }

    #[test]
    fn window_funnel_matches_per_anchor_scan(
        events in arb_events(),
        window_ms in prop_oneof![Just(0u64), Just(800u64), Just(60_000u64)],
        steps in arb_steps(),
    ) {
        let out = run_behavioral(&events, &BehavioralSpec::WindowFunnel {
            window_ms,
            steps: steps.clone(),
        });
        prop_assert_eq!(&out.rows, &ref_funnel(&events, window_ms, &steps));
        prop_assert!(
            out.peak_state_bytes <= events.len() * 16,
            "funnel keeps at most (u64, u64) per event, got {} bytes for {} events",
            out.peak_state_bytes, events.len()
        );
    }

    #[test]
    fn sequence_match_agrees_with_prefix_subsequence_check(
        events in arb_events(),
        steps in arb_steps(),
    ) {
        let out = run_behavioral(&events, &BehavioralSpec::SequenceMatch {
            steps: steps.clone(),
        });
        prop_assert_eq!(&out.rows, &ref_sequence(&events, &steps));
        prop_assert!(out.peak_state_bytes <= events.len() * 16);
    }

    #[test]
    fn arrival_order_never_changes_any_answer(
        mut events in arb_events(),
    ) {
        // The generator interleaves timestamps freely; sorting gives the
        // fully ordered arrival of the same stream. Every spec must
        // produce identical outcomes for both orders.
        let shuffled = events.clone();
        events.sort_by_key(|e| (e.ts_ms, e.key));
        for spec in [
            BehavioralSpec::Sessionize { gap_ms: 700 },
            BehavioralSpec::Retention { period_ms: 2_000, periods: 8 },
            BehavioralSpec::WindowFunnel { window_ms: 5_000, steps: vec![0, 1, 2] },
            BehavioralSpec::SequenceMatch { steps: vec![1, 2, 0] },
        ] {
            prop_assert_eq!(
                run_behavioral(&shuffled, &spec),
                run_behavioral(&events, &spec)
            );
        }
    }
}
