//! Structured run tracing for the Figure 1 process.
//!
//! A [`RunTrace`] is an append-only event sink threaded through a
//! benchmark run: the pipeline records a span per Figure 1 phase, one
//! event per generated data set, one event per engine-dispatch decision,
//! and engines record one event per operation they execute; fault
//! injection adds one event per injected fault. The sink uses interior mutability so it can ride inside a shared
//! [`crate::engine::ExecutionRequest`] without threading `&mut`
//! everywhere. Traces fold into the [`crate::analyzer`] summaries a run
//! report prints, and dump as JSON-lines
//! ([`crate::convert::trace_to_jsonl`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

/// One structured event of a benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A Figure 1 phase began.
    PhaseStarted {
        /// Phase name ("planning", "data generation", …).
        phase: String,
    },
    /// A Figure 1 phase completed.
    PhaseFinished {
        /// Phase name.
        phase: String,
        /// Wall-clock duration in microseconds.
        micros: u64,
    },
    /// One input data set was generated.
    DatasetGenerated {
        /// Data set name from the prescription.
        name: String,
        /// Source kind ("table", "text", "graph", "stream").
        kind: String,
        /// Logical items generated.
        items: u64,
        /// Approximate bytes generated.
        bytes: u64,
        /// Generator workers used.
        workers: usize,
        /// Generation wall-clock in microseconds.
        micros: u64,
    },
    /// The registry routed a prescribed test to an engine.
    EngineDispatched {
        /// Prescription name.
        prescription: String,
        /// The engine chosen.
        engine: String,
        /// The system the spec requested.
        requested_system: String,
        /// Whether the requested system matched the engine's capabilities
        /// (`false` means capability fallback picked the engine).
        explicit: bool,
        /// All registered engines considered.
        candidates: Vec<String>,
    },
    /// An engine executed one operation (a DAG step or a kernel).
    OperationExecuted {
        /// The executing engine.
        engine: String,
        /// Operation name.
        op: String,
        /// Rows / items the operation produced.
        rows_out: u64,
        /// Operation wall-clock in microseconds.
        micros: u64,
    },
    /// The fault injector fired at an operation site.
    FaultInjected {
        /// The operation site (`phase/target`).
        site: String,
        /// Fault kind ("error" or "latency").
        kind: String,
        /// Spike length for latency faults (0 otherwise).
        latency_ms: u64,
    },
    /// A run journal recorded one completed matrix cell / workload, so a
    /// rerun on the same `--journal` can skip it.
    CheckpointWritten {
        /// The checkpoint key (golden-store format:
        /// `prescription__engine__s<seed>__n<scale>`).
        key: String,
        /// The checkpointed output digest.
        digest: String,
    },
    /// A resumed run skipped a cell already completed by the crashed run,
    /// taking its result from the journal.
    CellResumed {
        /// The checkpoint key.
        key: String,
        /// The digest recorded by the crashed run.
        digest: String,
        /// Whether the recorded digest was re-verified against the
        /// golden store on resume.
        reverified: bool,
    },
    /// A run resumed from a journal directory instead of starting cold.
    RunResumed {
        /// The journal directory.
        journal: String,
        /// Checkpoints found and honoured.
        completed: usize,
    },
    /// A load-driver client session came up and began issuing operations.
    LoadSessionStarted {
        /// The engine the session drives.
        engine: String,
        /// Session index (0-based within the engine's run).
        session: usize,
        /// In-flight operation lanes the session multiplexes.
        lanes: usize,
    },
    /// A load-driver client session quiesced.
    LoadSessionFinished {
        /// The engine the session drove.
        engine: String,
        /// Session index.
        session: usize,
        /// Operations the session completed.
        completed: u64,
        /// Session wall-clock in microseconds.
        micros: u64,
    },
    /// The load driver's bounded queue of waiting open-loop ops overflowed
    /// and ops were shed (counted, never blocking the arrival clock).
    LoadShed {
        /// The engine whose queue overflowed.
        engine: String,
        /// Operations shed over the run.
        count: u64,
    },
    /// A conformance check compared an engine's result against the
    /// reference oracle or a stored golden digest.
    ConformanceChecked {
        /// Prescription name.
        prescription: String,
        /// The engine whose result was checked.
        engine: String,
        /// Check kind ("oracle" or "golden").
        check: String,
        /// Payload shape compared ("rowset", "ordered", "numeric",
        /// or "none" when the engine attached no output).
        payload: String,
        /// Did the check pass?
        passed: bool,
        /// Mismatch description on failure; digest note on success.
        detail: String,
    },
}

impl TraceEvent {
    /// A short label naming the event variant.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStarted { .. } => "phase_started",
            TraceEvent::PhaseFinished { .. } => "phase_finished",
            TraceEvent::DatasetGenerated { .. } => "dataset_generated",
            TraceEvent::EngineDispatched { .. } => "engine_dispatched",
            TraceEvent::OperationExecuted { .. } => "operation_executed",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::CheckpointWritten { .. } => "checkpoint_written",
            TraceEvent::CellResumed { .. } => "cell_resumed",
            TraceEvent::RunResumed { .. } => "run_resumed",
            TraceEvent::LoadSessionStarted { .. } => "load_session_started",
            TraceEvent::LoadSessionFinished { .. } => "load_session_finished",
            TraceEvent::LoadShed { .. } => "load_shed",
            TraceEvent::ConformanceChecked { .. } => "conformance_checked",
        }
    }

    /// True for the recovery-path events: an injected fault and what a
    /// resumed run emits (run/cell resumption). Checkpoint writes are *not* recovery —
    /// every journaled run writes them, crashed or not.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            TraceEvent::FaultInjected { .. }
                | TraceEvent::CellResumed { .. }
                | TraceEvent::RunResumed { .. }
        )
    }
}

/// An append-only sink of [`TraceEvent`]s for one benchmark run.
#[derive(Debug, Default)]
pub struct RunTrace {
    events: Mutex<Vec<TraceEvent>>,
}

impl RunTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace lock").push(event);
    }

    /// Record the start of a Figure 1 phase.
    pub fn phase_started(&self, phase: impl std::fmt::Display) {
        self.record(TraceEvent::PhaseStarted { phase: phase.to_string() });
    }

    /// Record the completion of a Figure 1 phase.
    pub fn phase_finished(&self, phase: impl std::fmt::Display, elapsed: Duration) {
        self.record(TraceEvent::PhaseFinished {
            phase: phase.to_string(),
            micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
        });
    }

    /// Record an operation executed by an engine.
    pub fn operation(&self, engine: &str, op: &str, rows_out: u64, elapsed: Duration) {
        self.record(TraceEvent::OperationExecuted {
            engine: engine.to_string(),
            op: op.to_string(),
            rows_out,
            micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
        });
    }

    /// Snapshot of all events in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of the phases that completed, in name order.
    pub fn phases_finished(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .events
            .lock()
            .expect("trace lock")
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseFinished { phase, .. } => Some(phase.clone()),
                _ => None,
            })
            .collect();
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let t = RunTrace::new();
        assert!(t.is_empty());
        t.phase_started("planning");
        t.phase_finished("planning", Duration::from_micros(7));
        t.operation("sql", "select", 3, Duration::from_micros(9));
        let events = t.events();
        assert_eq!(t.len(), 3);
        assert_eq!(events[0].label(), "phase_started");
        assert_eq!(
            events[1],
            TraceEvent::PhaseFinished { phase: "planning".into(), micros: 7 }
        );
        assert_eq!(events[2].label(), "operation_executed");
    }

    #[test]
    fn phases_finished_deduplicates() {
        let t = RunTrace::new();
        for p in ["execution", "planning", "execution"] {
            t.phase_finished(p, Duration::ZERO);
        }
        assert_eq!(t.phases_finished(), vec!["execution", "planning"]);
    }

    #[test]
    fn recovery_events_serialize_and_classify() {
        let events = vec![
            TraceEvent::FaultInjected { site: "exec/sql:micro/sort".into(), kind: "error".into(), latency_ms: 0 },
            TraceEvent::FaultInjected { site: "datagen/events".into(), kind: "latency".into(), latency_ms: 25 },
        ];
        for e in &events {
            assert!(e.is_recovery(), "{}", e.label());
            let json = serde_json::to_string(e).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(*e, back);
        }
        assert!(!TraceEvent::PhaseStarted { phase: "x".into() }.is_recovery());
        let check = TraceEvent::ConformanceChecked {
            prescription: "micro/sort".into(),
            engine: "sql".into(),
            check: "oracle".into(),
            payload: "rowset".into(),
            passed: true,
            detail: "digest 0xabc".into(),
        };
        assert!(!check.is_recovery());
        assert_eq!(check.label(), "conformance_checked");
        let json = serde_json::to_string(&check).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(check, back);
        assert_eq!(events[0].label(), "fault_injected");
    }

    #[test]
    fn resume_events_serialize_and_classify() {
        let checkpoint = TraceEvent::CheckpointWritten {
            key: "micro-sort__sql__s42__n300".into(),
            digest: "0xabc".into(),
        };
        assert_eq!(checkpoint.label(), "checkpoint_written");
        assert!(
            !checkpoint.is_recovery(),
            "checkpointing happens on healthy runs too"
        );
        let resumed = vec![
            TraceEvent::CellResumed {
                key: "micro-sort__sql__s42__n300".into(),
                digest: "0xabc".into(),
                reverified: true,
            },
            TraceEvent::RunResumed { journal: "/tmp/run".into(), completed: 3 },
        ];
        assert_eq!(resumed[0].label(), "cell_resumed");
        assert_eq!(resumed[1].label(), "run_resumed");
        for e in resumed.iter().chain([&checkpoint]) {
            let json = serde_json::to_string(e).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(*e, back);
        }
        for e in &resumed {
            assert!(e.is_recovery(), "{}", e.label());
        }
    }

    #[test]
    fn load_events_serialize_and_classify() {
        let events = vec![
            TraceEvent::LoadSessionStarted { engine: "kv".into(), session: 0, lanes: 8 },
            TraceEvent::LoadSessionFinished {
                engine: "kv".into(),
                session: 0,
                completed: 1234,
                micros: 2_000_000,
            },
            TraceEvent::LoadShed { engine: "kv".into(), count: 17 },
        ];
        assert_eq!(events[0].label(), "load_session_started");
        assert_eq!(events[1].label(), "load_session_finished");
        assert_eq!(events[2].label(), "load_shed");
        for e in &events {
            assert!(!e.is_recovery(), "{}", e.label());
            let json = serde_json::to_string(e).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn events_serialize() {
        let e = TraceEvent::EngineDispatched {
            prescription: "micro/sort".into(),
            engine: "sql".into(),
            requested_system: "native".into(),
            explicit: false,
            candidates: vec!["native".into(), "sql".into()],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
