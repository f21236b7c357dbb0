//! The reusable prescription repository (Section 5.2).
//!
//! "Going mainstream with this framework requires ... a repository of
//! reusable prescriptions to simplify the generation of prescribed
//! tests." [`PrescriptionRepository::with_builtins`] ships prescriptions
//! for the paper's application domains: micro benchmarks (sort, grep,
//! WordCount), basic database operations (Cloud OLTP and relational
//! queries), search engine, social network, and e-commerce.

use crate::arrival::{ArrivalProcess, ArrivalSpec};
use crate::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use crate::pattern::{InputRef, Step, StoppingCondition, WorkloadPattern};
use crate::prescription::{DataSpec, Prescription};
use bdb_common::{BdbError, Result};
use std::collections::BTreeMap;

/// A named collection of validated prescriptions.
#[derive(Debug, Default)]
pub struct PrescriptionRepository {
    entries: BTreeMap<String, Prescription>,
}

impl PrescriptionRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// A repository pre-loaded with the built-in domain prescriptions.
    pub fn with_builtins() -> Self {
        let mut repo = Self::new();
        for p in builtin_prescriptions() {
            repo.register(p).expect("builtin prescriptions are valid");
        }
        repo
    }

    /// Register a prescription after validating it.
    ///
    /// # Errors
    /// Fails on invalid prescriptions or duplicate names.
    pub fn register(&mut self, p: Prescription) -> Result<()> {
        p.validate()?;
        if self.entries.contains_key(&p.name) {
            return Err(BdbError::InvalidConfig(format!(
                "prescription {} already registered",
                p.name
            )));
        }
        self.entries.insert(p.name.clone(), p);
        Ok(())
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Result<&Prescription> {
        self.entries
            .get(name)
            .ok_or_else(|| BdbError::NotFound(format!("prescription {name}")))
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// All prescriptions within a domain prefix (e.g. "micro/").
    pub fn domain(&self, prefix: &str) -> Vec<&Prescription> {
        self.entries
            .values()
            .filter(|p| p.name.starts_with(prefix))
            .collect()
    }
}

fn text_data(name: &str, items: u64) -> DataSpec {
    DataSpec { name: name.into(), generator: "text/lda".into(), items }
}

fn table_data(name: &str, items: u64) -> DataSpec {
    DataSpec { name: name.into(), generator: "table/retail-fitted".into(), items }
}

fn graph_data(name: &str, items: u64) -> DataSpec {
    DataSpec { name: name.into(), generator: "graph/rmat".into(), items }
}

fn stream_data(name: &str, items: u64) -> DataSpec {
    DataSpec { name: name.into(), generator: "stream/poisson".into(), items }
}

fn behavioral_data(name: &str, items: u64) -> DataSpec {
    DataSpec { name: name.into(), generator: "behavioral/events".into(), items }
}

/// The built-in domain prescriptions.
pub fn builtin_prescriptions() -> Vec<Prescription> {
    vec![
        // ---- Micro benchmarks ----
        Prescription {
            name: "micro/sort".into(),
            description: "total-order sort of table rows by key (the Sort micro benchmark)"
                .into(),
            data: vec![table_data("rows", 10_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::SortBy { column: "order_id".into(), descending: false },
                input: "rows".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "micro/wordcount".into(),
            description: "word frequency count over synthetic text".into(),
            data: vec![text_data("docs", 2_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::WordCount,
                input: "docs".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "micro/grep".into(),
            description: "pattern match over synthetic text".into(),
            data: vec![text_data("docs", 2_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::Grep { pattern: "data".into() },
                input: "docs".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- Basic database operations: Cloud OLTP (YCSB style) ----
        Prescription {
            name: "oltp/read-mostly".into(),
            description: "50% reads / 50% updates over a key-value store (one step per op kind; \
                          YCSB workload B's 95/5 mix needs step weights)"
                .into(),
            data: vec![table_data("records", 10_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![
                    Step {
                        id: 0,
                        op: Operation::Get { key: "zipfian".into() },
                        inputs: vec![InputRef::Dataset("records".into())],
                    },
                    Step {
                        id: 1,
                        op: Operation::UpdateKey { key: "zipfian".into(), value: "payload".into() },
                        inputs: vec![InputRef::Dataset("records".into())],
                    },
                ],
            },
            arrival: ArrivalSpec::Open { rate_per_sec: 10_000.0, process: ArrivalProcess::Poisson },
        },
        Prescription {
            name: "oltp/scan-heavy".into(),
            description: "50% short range scans / 50% inserts (one step per op kind; \
                          YCSB workload E's 95/5 mix needs step weights)"
                .into(),
            data: vec![table_data("records", 10_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![
                    Step {
                        id: 0,
                        op: Operation::ScanRange { start_key: "zipfian".into(), limit: 100 },
                        inputs: vec![InputRef::Dataset("records".into())],
                    },
                    Step {
                        id: 1,
                        op: Operation::Put { key: "new".into(), value: "payload".into() },
                        inputs: vec![InputRef::Dataset("records".into())],
                    },
                ],
            },
            arrival: ArrivalSpec::Open { rate_per_sec: 5_000.0, process: ArrivalProcess::Poisson },
        },
        // ---- Relational queries (real-time analytics) ----
        Prescription {
            name: "relational/select-aggregate".into(),
            description: "filtered grouped aggregation (select + aggregation of Table 2)"
                .into(),
            data: vec![table_data("orders", 10_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![
                    Step {
                        id: 0,
                        op: Operation::Select {
                            predicate: PredicateSpec {
                                column: "quantity".into(),
                                op: CompareOp::Ge,
                                value: ScalarSpec::Int(2),
                            },
                        },
                        inputs: vec![InputRef::Dataset("orders".into())],
                    },
                    Step {
                        id: 1,
                        op: Operation::Aggregate {
                            function: AggSpec::Sum,
                            column: Some("price".into()),
                            group_by: vec!["category".into()],
                        },
                        inputs: vec![InputRef::Step(0)],
                    },
                ],
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "relational/join".into(),
            description: "equi-join of two generated tables (the Pavlo join task)".into(),
            data: vec![table_data("orders", 10_000), table_data("orders2", 1_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![Step {
                    id: 0,
                    op: Operation::Join {
                        left_on: "customer_id".into(),
                        right_on: "customer_id".into(),
                    },
                    inputs: vec![
                        InputRef::Dataset("orders".into()),
                        InputRef::Dataset("orders2".into()),
                    ],
                }],
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- Search engine ----
        Prescription {
            name: "search/index".into(),
            description: "inverted index construction (Nutch indexing analog)".into(),
            data: vec![text_data("docs", 5_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::WordCount, // index build is keyed term aggregation
                input: "docs".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "search/pagerank".into(),
            description: "iterative PageRank over a generated web graph".into(),
            data: vec![graph_data("web", 1 << 12)],
            pattern: WorkloadPattern::Iterative {
                body: vec![Step {
                    id: 0,
                    op: Operation::Aggregate {
                        function: AggSpec::Sum,
                        column: Some("rank".into()),
                        group_by: vec!["dst".into()],
                    },
                    inputs: vec![InputRef::Dataset("web".into())],
                }],
                stop: StoppingCondition::Convergence { epsilon: 1e-6, max_iterations: 50 },
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- Social network ----
        Prescription {
            name: "social/connected-components".into(),
            description: "label-propagation connected components over a social graph".into(),
            data: vec![graph_data("social", 1 << 12)],
            pattern: WorkloadPattern::Iterative {
                body: vec![Step {
                    id: 0,
                    op: Operation::Aggregate {
                        function: AggSpec::Min,
                        column: Some("label".into()),
                        group_by: vec!["vertex".into()],
                    },
                    inputs: vec![InputRef::Dataset("social".into())],
                }],
                stop: StoppingCondition::Convergence { epsilon: 0.5, max_iterations: 100 },
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "social/kmeans".into(),
            description: "k-means clustering of user feature vectors".into(),
            data: vec![table_data("features", 5_000)],
            pattern: WorkloadPattern::Iterative {
                body: vec![Step {
                    id: 0,
                    op: Operation::Aggregate {
                        function: AggSpec::Avg,
                        column: Some("price".into()),
                        group_by: vec!["category".into()],
                    },
                    inputs: vec![InputRef::Dataset("features".into())],
                }],
                stop: StoppingCondition::Convergence { epsilon: 1e-4, max_iterations: 50 },
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- Stream analytics (real-time) ----
        Prescription {
            name: "streaming/window-aggregation".into(),
            description: "keyed tumbling-window aggregation over a Poisson event stream".into(),
            data: vec![stream_data("events", 20_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::WindowAggregate { window_ms: 1_000, function: AggSpec::Sum },
                input: "events".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- Behavioral analytics (internet-service clickstream) ----
        Prescription {
            name: "behavioral/sessionize".into(),
            description: "gap-based session assignment over a behavioral event stream".into(),
            data: vec![behavioral_data("events", 20_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::Sessionize { gap_ms: 10_000 },
                input: "events".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "behavioral/retention".into(),
            description: "cohort period-N return rates over a behavioral event stream".into(),
            data: vec![behavioral_data("events", 20_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::Retention { period_ms: 5_000, periods: 8 },
                input: "events".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "behavioral/window-funnel".into(),
            description: "max ordered-step funnel depth within a sliding time window".into(),
            data: vec![behavioral_data("events", 20_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::WindowFunnel { window_ms: 30_000, steps: vec![0, 1, 2] },
                input: "events".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "behavioral/sequence-match".into(),
            description: "ordered action-pattern subsequence match per user".into(),
            data: vec![behavioral_data("events", 20_000)],
            pattern: WorkloadPattern::Single {
                op: Operation::SequenceMatch { steps: vec![1, 2, 0] },
                input: "events".into(),
            },
            arrival: ArrivalSpec::Batch,
        },
        // ---- E-commerce ----
        Prescription {
            name: "ecommerce/collaborative-filtering".into(),
            description: "item-based collaborative filtering over purchase records".into(),
            data: vec![table_data("purchases", 10_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![
                    Step {
                        id: 0,
                        op: Operation::Project {
                            columns: vec!["customer_id".into(), "product".into()],
                        },
                        inputs: vec![InputRef::Dataset("purchases".into())],
                    },
                    Step {
                        id: 1,
                        op: Operation::Aggregate {
                            function: AggSpec::Count,
                            column: None,
                            group_by: vec!["product".into()],
                        },
                        inputs: vec![InputRef::Step(0)],
                    },
                ],
            },
            arrival: ArrivalSpec::Batch,
        },
        Prescription {
            name: "ecommerce/naive-bayes".into(),
            description: "naive Bayes category classification of orders".into(),
            data: vec![table_data("orders", 10_000)],
            pattern: WorkloadPattern::Multi {
                steps: vec![Step {
                    id: 0,
                    op: Operation::Aggregate {
                        function: AggSpec::Count,
                        column: None,
                        group_by: vec!["category".into(), "product".into()],
                    },
                    inputs: vec![InputRef::Dataset("orders".into())],
                }],
            },
            arrival: ArrivalSpec::Batch,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_papers_domains() {
        let repo = PrescriptionRepository::with_builtins();
        for domain in [
            "micro/", "oltp/", "relational/", "search/", "social/", "ecommerce/", "streaming/",
            "behavioral/",
        ] {
            assert!(
                !repo.domain(domain).is_empty(),
                "missing domain {domain}"
            );
        }
        assert!(repo.names().len() >= 12);
    }

    #[test]
    fn every_builtin_validates_and_round_trips() {
        for p in builtin_prescriptions() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let json = p.to_json().unwrap();
            let back = Prescription::from_json(&json).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut repo = PrescriptionRepository::with_builtins();
        let dup = repo.get("micro/sort").unwrap().clone();
        assert!(repo.register(dup).is_err());
    }

    #[test]
    fn lookup_and_names() {
        let repo = PrescriptionRepository::with_builtins();
        assert!(repo.get("micro/wordcount").is_ok());
        assert!(repo.get("nope").is_err());
        let names = repo.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
