//! System configuration tools.
//!
//! A [`SystemConfig`] carries everything needed to run a prescribed test
//! on one engine: its concurrency.

use serde::{Deserialize, Serialize};

/// Runtime configuration for one engine under test.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl SystemConfig {
    /// Set the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let c = SystemConfig::default().with_threads(8);
        assert_eq!(c.threads, 8);
    }
}
