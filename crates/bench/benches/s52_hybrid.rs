//! S5.2 — the truly hybrid workload.
//!
//! Mixed OLTP + analytics operation streams with controlled arrival rates
//! and sequences: a mix-ratio sweep showing how analytics share degrades
//! aggregate throughput while per-class latency stays stable, plus bursty
//! vs smooth arrival comparison.

use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_testgen::arrival::{schedule, ArrivalProcess, ArrivalSpec};
use bdb_workloads::hybrid::{run_hybrid, HybridConfig};

fn report() {
    bdb_bench::banner("S5.2", "hybrid workloads with arrival patterns");
    let mut table = TableReporter::new(
        "Mix-ratio sweep (2000 ops, open-loop Poisson arrivals)",
        &["oltp share", "throughput ops/s", "oltp p50 us", "olap p50 us"],
    );
    for share in [0.99, 0.9, 0.5, 0.1] {
        let cfg = HybridConfig {
            oltp_weight: share,
            olap_weight: 1.0 - share,
            operations: 2_000,
            kv_records: 5_000,
            table_rows: 5_000,
            arrival: ArrivalSpec::Open {
                rate_per_sec: 1_000_000.0,
                process: ArrivalProcess::Poisson,
            },
        };
        let (outcome, result) = run_hybrid(&cfg, 7).expect("runs");
        table.add_row(&[
            format!("{share:.2}"),
            fmt_num(result.report.user.throughput_ops_per_sec),
            fmt_num(outcome.oltp_p50_us),
            fmt_num(outcome.olap_p50_us),
        ]);
    }
    println!("{}", table.to_text());

    // Arrival-pattern shapes: gap variance of the three processes.
    let mut arrivals = TableReporter::new(
        "Arrival processes at 10k ops/sec (gap statistics)",
        &["process", "mean gap ms", "gap variance"],
    );
    for (name, process) in [
        ("uniform", ArrivalProcess::Uniform),
        ("poisson", ArrivalProcess::Poisson),
        ("bursty x8", ArrivalProcess::Bursty { burst_factor: 8.0 }),
    ] {
        let spec = ArrivalSpec::Open { rate_per_sec: 10_000.0, process };
        let slots = schedule(&spec, 5_000, 3).expect("schedules");
        let gaps: Vec<f64> = slots.windows(2).map(|w| w[1].at_ms - w[0].at_ms).collect();
        let s = bdb_common::stats::Summary::of(&gaps);
        arrivals.add_row(&[name.into(), fmt_num(s.mean()), fmt_num(s.variance())]);
    }
    println!("{}", arrivals.to_text());
    println!("Shape: throughput drops as the analytics share grows (queries cost\n~1000x a point op) while each class's own latency stays flat; burstier\narrival processes show strictly larger gap variance at equal mean rate.");
}

fn main() {
    report();
}
