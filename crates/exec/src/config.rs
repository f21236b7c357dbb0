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

    /// EWMA smoothing factor for the router's observed-cost store: the
    /// `routing.ewma_alpha` parameter when set, else
    /// [`crate::cost::DEFAULT_EWMA_ALPHA`].
    ///
    /// # Errors
    /// Fails when the parameter is set but unparsable or outside `(0, 1]`
    /// — an alpha of 0 never learns and one above 1 diverges, so feeding
    /// either into the EWMA would silently corrupt every estimate.
    pub fn routing_ewma_alpha(&self) -> Result<f64> {
        if !self.parameters.contains_key("routing.ewma_alpha") {
            return Ok(crate::cost::DEFAULT_EWMA_ALPHA);
        }
        let alpha = self.parameter::<f64>("routing.ewma_alpha")?;
        if alpha > 0.0 && alpha <= 1.0 {
            Ok(alpha)
        } else {
            Err(BdbError::InvalidConfig(format!(
                "routing.ewma_alpha={alpha} out of range: must be in (0, 1]"
            )))
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
    fn routing_alpha_defaults_and_accepts_valid_range() {
        assert_eq!(
            SystemConfig::default().routing_ewma_alpha().unwrap(),
            crate::cost::DEFAULT_EWMA_ALPHA
        );
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "0.9");
        assert!((c.routing_ewma_alpha().unwrap() - 0.9).abs() < 1e-12);
        // The upper bound is inclusive: alpha = 1 means "latest sample
        // wins", which is a valid (if forgetful) EWMA.
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "1.0");
        assert_eq!(c.routing_ewma_alpha().unwrap(), 1.0);
    }

    #[test]
    fn routing_alpha_rejects_both_bounds() {
        // Lower bound is exclusive: alpha = 0 never learns.
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "0.0");
        let err = c.routing_ewma_alpha().unwrap_err().to_string();
        assert!(err.contains("(0, 1]"), "error should name the valid range: {err}");
        // Above the upper bound the EWMA diverges.
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "1.5");
        let err = c.routing_ewma_alpha().unwrap_err().to_string();
        assert!(err.contains("(0, 1]"), "error should name the valid range: {err}");
        // Negative values and garbage are rejected too.
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "-0.3");
        assert!(c.routing_ewma_alpha().is_err());
        let c = SystemConfig::default().with_parameter("routing.ewma_alpha", "fast");
        assert!(c.routing_ewma_alpha().is_err());
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
