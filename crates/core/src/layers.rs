//! The three-layer architecture of Figure 2.
//!
//! "The *User Interface Layer* provides interfaces to assist system owners
//! to specify their benchmarking requirements … The *Function Layer* has
//! three components: data generators, test generators and metrics … The
//! *Execution Layer* offers several functions to support the execution of
//! benchmark tests over different software stacks."

use crate::registry::GeneratorRegistry;
use bdb_exec::config::SystemConfig;
use bdb_exec::engine::{EngineRegistry, RoutingPolicy};
use bdb_exec::fault::FaultPlan;
use bdb_exec::loadgen::LoadProfile;
use bdb_testgen::{PrescriptionRepository, SystemKind};
use bdb_verify::VerifyMode;

/// User Interface Layer: what a system owner specifies — "the selected
/// data, workloads, metrics and the preferred data volume and velocity".
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Run name (for reports).
    pub name: String,
    /// Which prescription from the repository to run.
    pub prescription: String,
    /// Target system for the prescribed test.
    pub system: SystemKind,
    /// Data volume: overrides the prescription's item counts when set.
    pub scale: Option<u64>,
    /// Target data generation rate (items/sec), if velocity-controlled.
    pub target_rate: Option<f64>,
    /// Parallel generator workers for the data generation step (0 =
    /// available parallelism). `None` generates sequentially.
    pub generator_workers: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Deterministic fault plan for chaos runs (`None` = no injection).
    pub faults: Option<FaultPlan>,
    /// Differential conformance verification for the run's results
    /// (`None` = no verification, the historical behaviour).
    pub verify: Option<VerifyMode>,
    /// The golden-store directory for verification. `None` means no
    /// store: a strict run checks against the reference oracle only, and
    /// the digest and update modes are refused.
    pub goldens_dir: Option<String>,
    /// Concurrent load-driving profile for [`Benchmark::run_load`]
    /// (`None` = the default profile when a load run is requested).
    ///
    /// [`Benchmark::run_load`]: crate::pipeline::Benchmark::run_load
    pub load: Option<LoadProfile>,
    /// Read by nothing; see [`RoutingPolicy`].
    pub routing: RoutingPolicy,
}

impl BenchmarkSpec {
    /// A spec with defaults (micro/wordcount on the native system).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            prescription: "micro/wordcount".to_string(),
            system: SystemKind::Native,
            scale: None,
            target_rate: None,
            generator_workers: None,
            seed: 0xBDBE,
            faults: None,
            verify: None,
            goldens_dir: None,
            load: None,
            routing: RoutingPolicy::default(),
        }
    }

    /// Choose the prescription by repository name.
    pub fn with_prescription(mut self, name: &str) -> Self {
        self.prescription = name.to_string();
        self
    }

    /// Target a specific system.
    pub fn with_system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Override the data volume (items).
    pub fn with_scale(mut self, items: u64) -> Self {
        self.scale = Some(items);
        self
    }

    /// Request a data generation rate.
    pub fn with_target_rate(mut self, items_per_sec: f64) -> Self {
        self.target_rate = Some(items_per_sec);
        self
    }

    /// Deploy N parallel data generators (0 = available parallelism,
    /// 1 = sequential, the default).
    pub fn with_generator_workers(mut self, workers: usize) -> Self {
        self.generator_workers = Some(workers);
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject faults from a deterministic plan during the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Verify the run's results against the reference oracle and/or the
    /// golden-run store.
    pub fn with_verify(mut self, mode: VerifyMode) -> Self {
        self.verify = Some(mode);
        self
    }

    /// Read and record goldens in this directory.
    pub fn with_goldens_dir(mut self, dir: &str) -> Self {
        self.goldens_dir = Some(dir.to_string());
        self
    }

    /// Configure the concurrent load driver for this spec.
    pub fn with_load(mut self, profile: LoadProfile) -> Self {
        self.load = Some(profile);
        self
    }
}

/// Alias making the Figure 2 naming explicit.
pub type UserInterfaceLayer = BenchmarkSpec;

/// Function Layer: data generators + test generator.
#[derive(Debug)]
pub struct FunctionLayer {
    /// The data generators component.
    pub generators: GeneratorRegistry,
    /// The test generator component (prescription repository + binding).
    pub repository: PrescriptionRepository,
}

impl Default for FunctionLayer {
    fn default() -> Self {
        Self {
            generators: GeneratorRegistry::with_builtins(),
            repository: PrescriptionRepository::with_builtins(),
        }
    }
}

/// Execution Layer: system configuration plus the pluggable engine
/// registry that maps prescribed tests onto software stacks (format
/// conversion and analysis live in `bdb-exec` and are re-exported through
/// the pipeline's report).
#[derive(Debug)]
pub struct ExecutionLayer {
    /// Engine configuration for the run.
    pub system_config: SystemConfig,
    /// The registered engine backends, in routing order.
    pub engines: EngineRegistry,
}

impl Default for ExecutionLayer {
    fn default() -> Self {
        Self {
            system_config: SystemConfig::default(),
            engines: EngineRegistry::with_builtins(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_chains() {
        let s = BenchmarkSpec::new("x")
            .with_prescription("micro/sort")
            .with_system(SystemKind::MapReduce)
            .with_scale(1000)
            .with_target_rate(5000.0)
            .with_generator_workers(4)
            .with_seed(7)
            .with_faults("error@exec:0.5".parse().unwrap());
        assert_eq!(s.prescription, "micro/sort");
        assert_eq!(s.system, SystemKind::MapReduce);
        assert_eq!(s.scale, Some(1000));
        assert_eq!(s.target_rate, Some(5000.0));
        assert_eq!(s.generator_workers, Some(4));
        assert_eq!(s.seed, 7);
        assert_eq!(s.faults.as_ref().unwrap().clauses.len(), 1);
    }

    #[test]
    fn spec_defaults_are_resilience_neutral() {
        let s = BenchmarkSpec::new("x");
        assert!(s.faults.is_none());
    }

    #[test]
    fn function_layer_defaults_are_loaded() {
        let f = FunctionLayer::default();
        assert!(f.repository.get("micro/wordcount").is_ok());
        assert!(f.generators.ids().contains(&"text/lda"));
    }
}
