//! Workload patterns: single-operation, multi-operation, iterative.
//!
//! "A single-operation pattern contains one single operation; a
//! multi-operation pattern [contains a] finite number of operations,
//! while [an iterative-operation pattern] only provides stopping
//! conditions\[;\] the exact number of operations can be known at run
//! time." Multi-operation patterns are DAGs of steps; validation checks
//! acyclicity, unique step ids, and operation arity.

use crate::ops::Operation;
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Where a step reads its input from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputRef {
    /// A named input data set of the test.
    Dataset(String),
    /// The output of an earlier step.
    Step(u32),
}

/// One node of a multi-operation DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Unique id within the pattern.
    pub id: u32,
    /// The operation to apply.
    pub op: Operation,
    /// Inputs, matching the operation's arity.
    pub inputs: Vec<InputRef>,
}

/// When an iterative pattern stops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoppingCondition {
    /// Stop after a fixed number of iterations.
    MaxIterations(u32),
    /// Stop when an iteration's change metric falls below `epsilon`
    /// (e.g. PageRank residual, k-means centroid movement), with a hard
    /// cap as a safety net.
    Convergence {
        /// Convergence threshold.
        epsilon: f64,
        /// Hard iteration cap.
        max_iterations: u32,
    },
}

/// The paper's three workload patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadPattern {
    /// One operation.
    Single {
        /// The operation.
        op: Operation,
        /// The input data set it runs over.
        input: String,
    },
    /// A finite DAG of operations.
    Multi {
        /// Steps in id order; edges via [`InputRef::Step`].
        steps: Vec<Step>,
    },
    /// A body repeated until a stopping condition holds.
    Iterative {
        /// The loop body (validated as a multi-operation DAG).
        body: Vec<Step>,
        /// Termination rule.
        stop: StoppingCondition,
    },
}

impl WorkloadPattern {
    /// All operations mentioned by the pattern, in step order.
    pub fn operations(&self) -> Vec<&Operation> {
        match self {
            WorkloadPattern::Single { op, .. } => vec![op],
            WorkloadPattern::Multi { steps } | WorkloadPattern::Iterative { body: steps, .. } => {
                steps.iter().map(|s| &s.op).collect()
            }
        }
    }

    /// Names of the external data sets the pattern reads.
    pub fn required_datasets(&self) -> Vec<String> {
        let mut out = BTreeSet::new();
        match self {
            WorkloadPattern::Single { input, .. } => {
                out.insert(input.clone());
            }
            WorkloadPattern::Multi { steps } | WorkloadPattern::Iterative { body: steps, .. } => {
                for s in steps {
                    for i in &s.inputs {
                        if let InputRef::Dataset(d) = i {
                            out.insert(d.clone());
                        }
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// Validate the pattern: unique step ids, arity-matched inputs,
    /// references only to earlier steps (which implies acyclicity), and a
    /// sane stopping condition.
    pub fn validate(&self) -> Result<()> {
        match self {
            WorkloadPattern::Single { op, .. } => validate_op("single step", op),
            WorkloadPattern::Multi { steps } => validate_steps(steps),
            WorkloadPattern::Iterative { body, stop } => {
                validate_steps(body)?;
                match stop {
                    StoppingCondition::MaxIterations(0) => Err(BdbError::TestGen(
                        "iterative pattern with zero iterations".into(),
                    )),
                    StoppingCondition::Convergence { epsilon, max_iterations } => {
                        if *epsilon <= 0.0 || *max_iterations == 0 {
                            Err(BdbError::TestGen(
                                "convergence needs positive epsilon and cap".into(),
                            ))
                        } else {
                            Ok(())
                        }
                    }
                    _ => Ok(()),
                }
            }
        }
    }

    /// The ids of steps no other step consumes (the pattern's outputs).
    pub fn terminal_steps(&self) -> Vec<u32> {
        let steps = match self {
            WorkloadPattern::Single { .. } => return Vec::new(),
            WorkloadPattern::Multi { steps } => steps,
            WorkloadPattern::Iterative { body, .. } => body,
        };
        let consumed: BTreeSet<u32> = steps
            .iter()
            .flat_map(|s| s.inputs.iter())
            .filter_map(|i| match i {
                InputRef::Step(id) => Some(*id),
                InputRef::Dataset(_) => None,
            })
            .collect();
        steps
            .iter()
            .map(|s| s.id)
            .filter(|id| !consumed.contains(id))
            .collect()
    }
}

fn validate_steps(steps: &[Step]) -> Result<()> {
    if steps.is_empty() {
        return Err(BdbError::TestGen("pattern has no steps".into()));
    }
    let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
    for (pos, s) in steps.iter().enumerate() {
        if seen.insert(s.id, pos).is_some() {
            return Err(BdbError::TestGen(format!("duplicate step id {}", s.id)));
        }
    }
    for (pos, s) in steps.iter().enumerate() {
        validate_op(&format!("step {}", s.id), &s.op)?;
        if s.inputs.len() != s.op.arity() {
            return Err(BdbError::TestGen(format!(
                "step {}: op {} takes {} inputs, got {}",
                s.id,
                s.op.name(),
                s.op.arity(),
                s.inputs.len()
            )));
        }
        for i in &s.inputs {
            if let InputRef::Step(dep) = i {
                match seen.get(dep) {
                    // Only earlier steps may be referenced: acyclic by
                    // construction.
                    Some(&dep_pos) if dep_pos < pos => {}
                    Some(_) => {
                        return Err(BdbError::TestGen(format!(
                            "step {} references later step {dep}",
                            s.id
                        )))
                    }
                    None => {
                        return Err(BdbError::TestGen(format!(
                            "step {} references unknown step {dep}",
                            s.id
                        )))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Reject operation parameters no engine can run, naming the step.
fn validate_op(step: &str, op: &Operation) -> Result<()> {
    match op {
        Operation::WindowAggregate { window_ms: 0, .. } => Err(BdbError::TestGen(format!(
            "{step}: {} with a zero-width window (window_ms = 0)",
            op.name()
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AggSpec, CompareOp, PredicateSpec, ScalarSpec};

    fn select_op() -> Operation {
        Operation::Select {
            predicate: PredicateSpec {
                column: "x".into(),
                op: CompareOp::Gt,
                value: ScalarSpec::Int(0),
            },
        }
    }

    fn agg_op() -> Operation {
        Operation::Aggregate { function: AggSpec::Sum, column: Some("x".into()), group_by: vec![] }
    }

    #[test]
    fn zero_width_window_is_a_named_error() {
        let window = |window_ms| Operation::WindowAggregate { window_ms, function: AggSpec::Sum };
        let single = WorkloadPattern::Single { op: window(0), input: "events".into() };
        let err = single.validate().unwrap_err();
        assert!(matches!(err, BdbError::TestGen(_)), "{err:?}");
        let named = "single step: window-aggregate with a zero-width window";
        assert!(err.to_string().contains(named), "{err}");
        let multi = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 7,
                op: window(0),
                inputs: vec![InputRef::Dataset("e".into())],
            }],
        };
        assert!(multi.validate().unwrap_err().to_string().contains("step 7: window-aggregate"));
        WorkloadPattern::Single { op: window(1), input: "events".into() }.validate().unwrap();
    }

    #[test]
    fn single_pattern_validates() {
        let p = WorkloadPattern::Single { op: select_op(), input: "t".into() };
        p.validate().unwrap();
        assert_eq!(p.operations().len(), 1);
        assert_eq!(p.required_datasets(), vec!["t".to_string()]);
        assert!(p.terminal_steps().is_empty());
    }

    #[test]
    fn multi_pattern_pipeline_validates() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step { id: 0, op: select_op(), inputs: vec![InputRef::Dataset("t".into())] },
                Step { id: 1, op: agg_op(), inputs: vec![InputRef::Step(0)] },
            ],
        };
        p.validate().unwrap();
        assert_eq!(p.terminal_steps(), vec![1]);
        assert_eq!(p.required_datasets(), vec!["t".to_string()]);
    }

    #[test]
    fn join_pattern_requires_two_inputs() {
        let join = Operation::Join { left_on: "a".into(), right_on: "b".into() };
        let bad = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: join.clone(),
                inputs: vec![InputRef::Dataset("t".into())],
            }],
        };
        assert!(bad.validate().is_err());
        let good = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: join,
                inputs: vec![
                    InputRef::Dataset("t".into()),
                    InputRef::Dataset("u".into()),
                ],
            }],
        };
        good.validate().unwrap();
        assert_eq!(good.required_datasets(), vec!["t".to_string(), "u".to_string()]);
    }

    #[test]
    fn forward_and_unknown_references_rejected() {
        let fwd = WorkloadPattern::Multi {
            steps: vec![
                Step { id: 0, op: select_op(), inputs: vec![InputRef::Step(1)] },
                Step { id: 1, op: select_op(), inputs: vec![InputRef::Dataset("t".into())] },
            ],
        };
        assert!(fwd.validate().is_err());
        let unknown = WorkloadPattern::Multi {
            steps: vec![Step { id: 0, op: select_op(), inputs: vec![InputRef::Step(9)] }],
        };
        assert!(unknown.validate().is_err());
    }

    #[test]
    fn duplicate_ids_and_empty_patterns_rejected() {
        let dup = WorkloadPattern::Multi {
            steps: vec![
                Step { id: 0, op: select_op(), inputs: vec![InputRef::Dataset("t".into())] },
                Step { id: 0, op: select_op(), inputs: vec![InputRef::Dataset("t".into())] },
            ],
        };
        assert!(dup.validate().is_err());
        assert!(WorkloadPattern::Multi { steps: vec![] }.validate().is_err());
    }

    #[test]
    fn iterative_stopping_conditions_validate() {
        let body = vec![Step {
            id: 0,
            op: select_op(),
            inputs: vec![InputRef::Dataset("t".into())],
        }];
        let ok = WorkloadPattern::Iterative {
            body: body.clone(),
            stop: StoppingCondition::Convergence { epsilon: 1e-6, max_iterations: 50 },
        };
        ok.validate().unwrap();
        let zero = WorkloadPattern::Iterative {
            body: body.clone(),
            stop: StoppingCondition::MaxIterations(0),
        };
        assert!(zero.validate().is_err());
        let bad_eps = WorkloadPattern::Iterative {
            body,
            stop: StoppingCondition::Convergence { epsilon: 0.0, max_iterations: 50 },
        };
        assert!(bad_eps.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step { id: 0, op: select_op(), inputs: vec![InputRef::Dataset("t".into())] },
                Step { id: 1, op: agg_op(), inputs: vec![InputRef::Step(0)] },
            ],
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkloadPattern = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
