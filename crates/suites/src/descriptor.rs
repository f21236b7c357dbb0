//! The Table 1 / Table 2 classification vocabulary and the suite trait.

use bdb_datagen::{DataGenerator, DataSourceKind};
use bdb_testgen::SystemKind;
use bdb_workloads::WorkloadCategory;

/// Table 1's *Volume* column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeClass {
    /// Synthetic data of any requested size.
    Scalable,
    /// Some inputs are fixed-size data sets.
    PartiallyScalable,
}

impl std::fmt::Display for VolumeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VolumeClass::Scalable => "scalable",
            VolumeClass::PartiallyScalable => "partially scalable",
        })
    }
}

/// Table 1's *Velocity* column, extended with the Section 5.1 class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VelocityClass {
    /// Neither generation rate nor update frequency is controllable.
    UnControllable,
    /// Generation rate controllable (parallel generators); update
    /// frequency is not.
    SemiControllable,
    /// Rate, update frequency and algorithmic levers all controllable
    /// (the paper's proposed extension).
    FullyControllable,
}

impl std::fmt::Display for VelocityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VelocityClass::UnControllable => "un-controllable",
            VelocityClass::SemiControllable => "semi-controllable",
            VelocityClass::FullyControllable => "fully controllable",
        })
    }
}

/// Table 1's *Veracity* column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VeracityClass {
    /// Generation ignores real data entirely.
    UnConsidered,
    /// Some inputs derive from realistic distributions or other data.
    PartiallyConsidered,
    /// Models fitted to real data drive all generation.
    Considered,
}

impl std::fmt::Display for VeracityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VeracityClass::UnConsidered => "un-considered",
            VeracityClass::PartiallyConsidered => "partially considered",
            VeracityClass::Considered => "considered",
        })
    }
}

/// The paper's published classification of one suite (its row in Tables
/// 1–2).
#[derive(Debug, Clone)]
pub struct SuiteDescriptor {
    /// Suite name as the paper spells it.
    pub name: &'static str,
    /// Table 1 volume cell.
    pub volume: VolumeClass,
    /// Table 1 velocity cell.
    pub velocity: VelocityClass,
    /// Table 1 variety cell (data sources).
    pub variety: Vec<DataSourceKind>,
    /// Table 1 veracity cell.
    pub veracity: VeracityClass,
    /// Table 2 workload-type cells.
    pub workload_types: Vec<WorkloadCategory>,
    /// Table 2 example workloads, each paired with what runs it.
    pub workloads: Vec<SuiteWorkload>,
    /// Table 2 software stacks, each with the system that stands in for
    /// it.
    pub software_stacks: Vec<(&'static str, SystemKind)>,
}

/// One Table 2 example-workload cell and the repository prescription
/// that runs it. An example may appear more than once, once per
/// prescription or system it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteWorkload {
    /// The example as the paper names it.
    pub example: &'static str,
    /// The prescription and the system it runs on, or `None` when no
    /// repository prescription expresses the example ("not run").
    pub run: Option<(&'static str, SystemKind)>,
}

impl SuiteWorkload {
    /// An example that runs `prescription` on `system`.
    pub fn on(example: &'static str, prescription: &'static str, system: SystemKind) -> Self {
        Self { example, run: Some((prescription, system)) }
    }

    /// An example no prescription expresses.
    pub fn not_run(example: &'static str) -> Self {
        Self { example, run: None }
    }
}

/// Capability flags a suite's data-generation tooling exposes; the
/// Table 1 harness measures classifications from these plus live runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerationCapabilities {
    /// The suite also ships fixed-size inputs (→ partially scalable).
    pub has_fixed_size_inputs: bool,
    /// The suite can deploy parallel generators at a target rate.
    pub supports_rate_control: bool,
    /// The suite can generate controlled update streams.
    pub supports_update_frequency: bool,
    /// The suite exposes an algorithmic speed/memory lever (Section 5.1).
    pub supports_algorithmic_velocity: bool,
}

/// The result of a veracity measurement: the suite's synthetic-vs-raw
/// divergence next to the divergence a veracity-unaware baseline achieves
/// on the same data. Lower is better; the ratio `score / naive_baseline`
/// classifies the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VeracityProbe {
    /// Divergence of the suite's own generation from the raw data.
    pub score: f64,
    /// Divergence of uniform/naive generation from the same raw data.
    pub naive_baseline: f64,
}

impl VeracityProbe {
    /// `score / naive_baseline` (∞-safe).
    pub fn ratio(&self) -> f64 {
        if self.naive_baseline <= 0.0 {
            1.0
        } else {
            self.score / self.naive_baseline
        }
    }
}

/// A runnable model of one benchmark suite.
pub trait BenchmarkSuite {
    /// The paper's classification of this suite.
    fn descriptor(&self) -> SuiteDescriptor;

    /// The suite's data generators, in its own generation style.
    fn generators(&self) -> Vec<Box<dyn DataGenerator>>;

    /// What the suite's generation tooling can do.
    fn capabilities(&self) -> GenerationCapabilities;

    /// Measure synthetic-vs-raw divergence for the suite's flagship data
    /// type, or `None` when the suite's generation never looks at real
    /// data (→ un-considered).
    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(VolumeClass::PartiallyScalable.to_string(), "partially scalable");
        assert_eq!(VelocityClass::SemiControllable.to_string(), "semi-controllable");
        assert_eq!(VeracityClass::UnConsidered.to_string(), "un-considered");
        assert_eq!(VeracityClass::Considered.to_string(), "considered");
    }
}
