//! System configuration tools.
//!
//! A [`SystemConfig`] carries everything needed to run a prescribed test
//! on one engine: concurrency and free-form engine parameters.

use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Runtime configuration for one engine under test.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Engine-specific free-form parameters.
    pub parameters: BTreeMap<String, String>,
}

impl SystemConfig {
    /// Set the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set one engine parameter.
    pub fn with_parameter(mut self, key: &str, value: &str) -> Self {
        self.parameters.insert(key.to_string(), value.to_string());
        self
    }

    /// Effective thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }

    /// Circuit-breaker thresholds for the run's [`HealthStore`]: each
    /// `breaker.*` parameter overrides the matching
    /// [`BreakerPolicy`] field, with
    /// every override range-checked before any engine runs.
    ///
    /// Recognised keys: `breaker.window`, `breaker.trip_ratio`,
    /// `breaker.min_samples`, `breaker.cooldown`, `breaker.probe_stride`,
    /// `breaker.close_after`.
    ///
    /// [`HealthStore`]: crate::health::HealthStore
    /// [`BreakerPolicy`]: crate::health::BreakerPolicy
    ///
    /// # Errors
    /// Fails when an override is unparsable or out of range — a breaker
    /// that can never trip (ratio > 1) or never probe (stride 0) would
    /// silently disable health-aware serving.
    pub fn breaker_policy(&self) -> Result<crate::health::BreakerPolicy> {
        let mut p = crate::health::BreakerPolicy::default();
        if self.parameters.contains_key("breaker.window") {
            p.window = self.parameter("breaker.window")?;
        }
        if self.parameters.contains_key("breaker.trip_ratio") {
            p.trip_ratio = self.parameter("breaker.trip_ratio")?;
        }
        if self.parameters.contains_key("breaker.min_samples") {
            p.min_samples = self.parameter("breaker.min_samples")?;
        }
        if self.parameters.contains_key("breaker.cooldown") {
            p.cooldown = self.parameter("breaker.cooldown")?;
        }
        if self.parameters.contains_key("breaker.probe_stride") {
            p.probe_stride = self.parameter("breaker.probe_stride")?;
        }
        if self.parameters.contains_key("breaker.close_after") {
            p.close_after = self.parameter("breaker.close_after")?;
        }
        p.validate()?;
        Ok(p)
    }

    /// Read a typed parameter.
    ///
    /// # Errors
    /// Fails when the parameter is missing or unparsable.
    pub fn parameter<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        let raw = self
            .parameters
            .get(key)
            .ok_or_else(|| BdbError::NotFound(format!("parameter {key}")))?;
        raw.parse()
            .map_err(|_| BdbError::InvalidConfig(format!("parameter {key}={raw} unparsable")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let c = SystemConfig::default()
            .with_threads(8)
            .with_parameter("reduce_tasks", "16");
        assert_eq!(c.effective_threads(), 8);
        assert_eq!(c.parameter::<usize>("reduce_tasks").unwrap(), 16);
    }

    #[test]
    fn zero_threads_falls_back_to_parallelism() {
        let c = SystemConfig::default();
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn breaker_policy_defaults_then_overrides() {
        let p = SystemConfig::default().breaker_policy().unwrap();
        assert_eq!(p, crate::health::BreakerPolicy::default());
        let c = SystemConfig::default()
            .with_parameter("breaker.window", "32")
            .with_parameter("breaker.trip_ratio", "0.25")
            .with_parameter("breaker.cooldown", "5");
        let p = c.breaker_policy().unwrap();
        assert_eq!(p.window, 32);
        assert!((p.trip_ratio - 0.25).abs() < 1e-12);
        assert_eq!(p.cooldown, 5);
        // Untouched fields keep their defaults.
        assert_eq!(p.probe_stride, crate::health::BreakerPolicy::default().probe_stride);
    }

    #[test]
    fn breaker_policy_rejects_out_of_range() {
        let c = SystemConfig::default().with_parameter("breaker.trip_ratio", "1.5");
        let err = c.breaker_policy().unwrap_err().to_string();
        assert!(err.contains("(0, 1]"), "error should name the valid range: {err}");
        let c = SystemConfig::default().with_parameter("breaker.cooldown", "0");
        let err = c.breaker_policy().unwrap_err().to_string();
        assert!(err.contains(">= 1"), "error should name the valid range: {err}");
        let c = SystemConfig::default().with_parameter("breaker.window", "lots");
        assert!(c.breaker_policy().is_err());
    }

    #[test]
    fn typed_parameter_errors() {
        let c = SystemConfig::default().with_parameter("x", "abc");
        assert!(c.parameter::<usize>("x").is_err());
        assert!(c.parameter::<usize>("missing").is_err());
    }
}
