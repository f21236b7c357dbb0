//! Prescriptions: the portable test artifact of Section 3.3.
//!
//! "A prescription includes the information needed to produce a
//! benchmarking test, including data sets, a set of operations and
//! workload patterns, a method to generate workload, and the evaluation
//! metrics." Prescriptions serialise to JSON so a repository of them can
//! be shared and reused (Section 5.2).

use crate::arrival::ArrivalSpec;
use crate::pattern::WorkloadPattern;
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};

/// Which generator family produces an input data set and how much of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSpec {
    /// Logical data set name referenced by the pattern.
    pub name: String,
    /// Generator identifier (e.g. "text/lda", "table/retail-fitted"); it
    /// fixes the data set's kind.
    pub generator: String,
    /// Number of items to generate.
    pub items: u64,
}

/// A complete, portable test specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prescription {
    /// Unique name, conventionally `domain/workload`.
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Input data sets.
    pub data: Vec<DataSpec>,
    /// The abstract workload.
    pub pattern: WorkloadPattern,
    /// How operations arrive.
    pub arrival: ArrivalSpec,
}

impl Prescription {
    /// Validate internal consistency: the pattern must validate, and every
    /// data set the pattern references must be declared.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(BdbError::TestGen("prescription needs a name".into()));
        }
        self.pattern.validate()?;
        let declared: Vec<&str> = self.data.iter().map(|d| d.name.as_str()).collect();
        for needed in self.pattern.required_datasets() {
            if !declared.contains(&needed.as_str()) {
                return Err(BdbError::TestGen(format!(
                    "pattern reads undeclared data set {needed}"
                )));
            }
        }
        Ok(())
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| BdbError::Format(format!("prescription serialisation: {e}")))
    }

    /// Parse from JSON and validate.
    pub fn from_json(json: &str) -> Result<Self> {
        let p: Prescription = serde_json::from_str(json)
            .map_err(|e| BdbError::Format(format!("prescription parse: {e}")))?;
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Operation;
    use crate::pattern::WorkloadPattern;

    fn sample() -> Prescription {
        Prescription {
            name: "micro/wordcount".into(),
            description: "count word frequencies over synthetic text".into(),
            data: vec![DataSpec {
                name: "docs".into(),
                generator: "text/lda".into(),
                items: 1000,
            }],
            pattern: WorkloadPattern::Single {
                op: Operation::WordCount,
                input: "docs".into(),
            },
            arrival: ArrivalSpec::Batch,
        }
    }

    #[test]
    fn valid_prescription_passes() {
        sample().validate().unwrap();
    }

    #[test]
    fn undeclared_dataset_is_rejected() {
        let mut p = sample();
        p.data.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn empty_name_rejected() {
        let mut p = sample();
        p.name.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let p = sample();
        let json = p.to_json().unwrap();
        let back = Prescription::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn from_json_ignores_a_declared_source_kind() {
        // Prescriptions written when a data spec also declared its kind
        // still parse: the generator id fixes the kind, and unknown fields
        // are ignored.
        let json = sample().to_json().unwrap().replace(
            "\"generator\": \"text/lda\"",
            "\"source\": \"text\",\n      \"generator\": \"text/lda\"",
        );
        assert!(json.contains("\"source\": \"text\""), "{json}");
        assert_eq!(Prescription::from_json(&json).unwrap(), sample());
    }

    #[test]
    fn from_json_validates() {
        let mut p = sample();
        p.data.clear();
        let json = serde_json::to_string(&p).unwrap();
        assert!(Prescription::from_json(&json).is_err());
        assert!(Prescription::from_json("not json").is_err());
        // A zero-width window is a named error, not an engine panic.
        let mut p = sample();
        p.pattern = WorkloadPattern::Single {
            op: Operation::WindowAggregate { window_ms: 0, function: crate::ops::AggSpec::Count },
            input: "docs".into(),
        };
        let err = Prescription::from_json(&p.to_json().unwrap()).unwrap_err();
        assert!(matches!(err, BdbError::TestGen(_)), "{err:?}");
        assert!(err.to_string().contains("zero-width window"), "{err}");
    }
}
