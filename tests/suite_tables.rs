//! Integration tests for the Table 1 and Table 2 harnesses: the measured
//! classifications reproduce the paper's survey cells.

use bdbench::suites::table1::render_table1;
use bdbench::suites::table2::render_table2;
use bdbench::suites::{all_suites, run_suite, VelocityClass, VeracityClass};
use bdbench::workloads::WorkloadCategory;

#[test]
fn table1_reproduces_the_papers_classification() {
    let suites = all_suites();
    let (rows, text) = render_table1(&suites, 0xBD).unwrap();
    assert_eq!(rows.len(), 11);
    for (row, suite) in rows.iter().zip(&suites) {
        let d = suite.descriptor();
        assert!(
            row.matches(&d),
            "{}: measured ({}, {}, {}) vs paper ({}, {}, {})",
            row.name, row.volume, row.velocity, row.veracity, d.volume, d.velocity, d.veracity
        );
    }
    // The key shape claims of the survey:
    // 1. Only BigDataBench (and this framework) reach "considered".
    let considered: Vec<&str> = rows
        .iter()
        .filter(|r| r.veracity == VeracityClass::Considered)
        .map(|r| r.name)
        .collect();
    assert_eq!(considered, vec!["BigDataBench", "bdbench (this framework)"]);
    // 2. No surveyed suite is fully velocity-controllable; ours is.
    let fully: Vec<&str> = rows
        .iter()
        .filter(|r| r.velocity == VelocityClass::FullyControllable)
        .map(|r| r.name)
        .collect();
    assert_eq!(fully, vec!["bdbench (this framework)"]);
    assert!(text.contains("Table 1"));
}

#[test]
fn table2_measured_type_cells_are_pinned() {
    use WorkloadCategory::{OfflineAnalytics as Off, OnlineServices as On, RealTimeAnalytics as Rt};
    let suites = all_suites();
    let (runs, text) = render_table2(&suites, 250, 0xBD).unwrap();
    assert_eq!(runs.len(), 11);
    // The measured type cell of every row. Relational prescriptions report
    // real-time analytics on every engine, while the paper files GridMix,
    // PigMix, Pavlo, TPC-DS and BigBench's DB queries under online
    // services: those five rows differ from the paper.
    let pinned: [(&str, &[WorkloadCategory], bool); 11] = [
        ("HiBench", &[Off, Rt], true),
        ("GridMix", &[Rt], false),
        ("PigMix", &[Rt], false),
        ("YCSB", &[On], true),
        ("Performance benchmark", &[Rt], false),
        ("TPC-DS", &[Rt], false),
        ("BigBench", &[Off, Rt], false),
        ("LinkBench", &[On], true),
        ("CloudSuite", &[On, Off], true),
        ("BigDataBench", &[On, Off, Rt], true),
        ("bdbench (this framework)", &[On, Off, Rt], true),
    ];
    for ((run, suite), (name, cells, matches)) in runs.iter().zip(&suites).zip(pinned) {
        assert_eq!(run.name, name);
        assert!(run.conformant(), "{name} diverged under the strict oracle");
        assert!(run.runs() > 0, "{name} ran nothing");
        assert_eq!(run.categories(), cells, "{name}");
        assert_eq!(run.categories() == suite.descriptor().workload_types, matches, "{name}");
    }
    assert_eq!(text.matches(" NO ").count(), 5, "{text}");
    // BigDataBench is the only surveyed suite covering all three
    // categories — the paper's central comparison point.
    assert!(runs[..9].iter().all(|r| r.categories().len() < 3));
    assert_eq!(runs[9].categories().len(), 3);
}

#[test]
fn every_workload_produces_live_metrics() {
    for suite in all_suites() {
        for r in run_suite(suite.as_ref(), 200, 7).unwrap().results() {
            assert!(
                r.report.user.duration_secs > 0.0,
                "{} has zero duration",
                r.report.workload
            );
            assert!(
                r.report.ops.record_ops > 0,
                "{} counted no operations",
                r.report.workload
            );
            assert!(r.report.energy_joules > 0.0);
            assert!(r.report.cost_dollars > 0.0);
        }
    }
}

#[test]
fn online_service_workloads_report_latency_percentiles() {
    for suite in all_suites() {
        let d = suite.descriptor();
        if d.name != "YCSB" && d.name != "LinkBench" {
            continue;
        }
        for r in run_suite(suite.as_ref(), 200, 3).unwrap().results() {
            assert_eq!(r.category, WorkloadCategory::OnlineServices, "{}", r.report.workload);
            assert!(
                r.report.user.latency_samples > 0,
                "{} online workload without latencies",
                r.report.workload
            );
            assert!(r.report.user.latency_p99_us >= r.report.user.latency_p50_us);
        }
    }
}
