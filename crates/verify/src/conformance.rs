//! The conformance checker: diff engine results against the reference
//! oracle and the golden-run store, recording one
//! [`TraceEvent::ConformanceChecked`] verdict per check.

use crate::golden::{GoldenRecord, GoldenStore};
use crate::oracle::oracle_payload;
use bdb_common::Result;
use bdb_exec::engine::ExecutionRequest;
use bdb_exec::trace::TraceEvent;
use bdb_workloads::{CanonicalLines, WorkloadResult};

/// Numeric payloads match within this relative epsilon (absolute below
/// 1.0) unless the checker is configured otherwise. Wide enough for the
/// float-accumulation-order differences between an engine and the naive
/// oracle, narrow enough to flag a wrong kernel.
pub const DEFAULT_EPSILON: f64 = 1e-6;

/// How much verification a run wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Re-run every prescription on the reference oracle and diff, plus
    /// the golden digest check. The full differential gate.
    Strict,
    /// Golden digest comparison only — cheap enough for CI on every run.
    Digest,
    /// Like `Strict`, but rewrite the golden store from the observed
    /// payloads instead of comparing against it (golden regeneration).
    Update,
}

impl std::str::FromStr for VerifyMode {
    type Err = bdb_common::BdbError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "" | "strict" => Ok(VerifyMode::Strict),
            "digest" => Ok(VerifyMode::Digest),
            "update" => Ok(VerifyMode::Update),
            other => Err(bdb_common::BdbError::InvalidConfig(format!(
                "unknown verify mode {other:?} (use strict, digest or update)"
            ))),
        }
    }
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyMode::Strict => "strict",
            VerifyMode::Digest => "digest",
            VerifyMode::Update => "update",
        })
    }
}

/// The conformance checker for one run.
#[derive(Debug)]
pub struct Conformance {
    /// Verification depth.
    pub mode: VerifyMode,
    /// Numeric comparison tolerance.
    pub epsilon: f64,
    /// The golden store, when one is available for this run.
    pub goldens: Option<GoldenStore>,
}

impl Conformance {
    /// A checker using the environment-selected golden store (created on
    /// demand in [`VerifyMode::Update`]).
    pub fn new(mode: VerifyMode) -> Self {
        Self::with_store(mode, GoldenStore::discover(mode == VerifyMode::Update))
    }

    /// A checker with an explicit golden store (or none).
    pub fn with_store(mode: VerifyMode, goldens: Option<GoldenStore>) -> Self {
        Self { mode, epsilon: DEFAULT_EPSILON, goldens }
    }

    /// Check every result of one dispatched prescription, recording one
    /// trace verdict per check. Returns `true` when all checks passed.
    /// Each payload is canonicalised and hashed once; the oracle verdict
    /// and the golden check share the digest.
    pub fn check(&self, req: &ExecutionRequest<'_>, results: &[WorkloadResult]) -> bool {
        let strict = matches!(self.mode, VerifyMode::Strict | VerifyMode::Update);
        let mut all_passed = true;
        for res in results {
            let engine = res.report.system.clone();
            let Some(payload) = &res.output else {
                // No comparable output: a hole in the evidence. Strict
                // verification treats it as a failure; the digest tier
                // has nothing to compare and skips.
                let passed = self.mode == VerifyMode::Digest;
                record(
                    req,
                    &engine,
                    "oracle",
                    "none",
                    passed,
                    "engine attached no output payload",
                );
                all_passed &= passed;
                continue;
            };
            if !strict && self.goldens.is_none() {
                continue;
            }
            let lines = payload.canonical_lines();
            let digest = lines.digest();
            if strict {
                all_passed &= self.check_oracle(req, &engine, &lines, digest);
            }
            if let Some(store) = &self.goldens {
                let observed = GoldenRecord::of(
                    payload,
                    digest,
                    &req.prescription.name,
                    &engine,
                    req.seed,
                    req.scale,
                );
                all_passed &= self.check_golden(req, store, &engine, &observed);
            }
        }
        all_passed
    }

    /// Differential check: recompute the payload on the reference
    /// interpreter and diff it against the engine payload's `lines`, whose
    /// digest is `digest`.
    fn check_oracle(
        &self,
        req: &ExecutionRequest<'_>,
        engine: &str,
        lines: &CanonicalLines<'_>,
        digest: u64,
    ) -> bool {
        let (passed, detail) = match oracle_payload(req) {
            Ok(expected) => match expected.canonical_lines().diff(lines, self.epsilon) {
                None => (
                    true,
                    format!("matches reference ({} entries, digest {digest:016x})", lines.len()),
                ),
                Some(diff) => (false, format!("diverges from reference: {diff}")),
            },
            Err(e) => (false, format!("reference interpreter failed: {e}")),
        };
        record(req, engine, "oracle", lines.payload().label(), passed, &detail);
        passed
    }

    /// Golden check: compare the observed record against the stored run,
    /// recording a fresh golden when the cell has none yet.
    fn check_golden(
        &self,
        req: &ExecutionRequest<'_>,
        store: &GoldenStore,
        engine: &str,
        observed: &GoldenRecord,
    ) -> bool {
        let key = GoldenStore::key(&req.prescription.name, engine, req.seed, req.scale);
        let (passed, detail) = match (self.mode, store.load(&key)) {
            (VerifyMode::Update, _) | (_, None) => match store.store(&key, observed) {
                Ok(()) => (true, format!("golden {key} recorded (digest {})", observed.digest)),
                Err(e) => (false, format!("golden {key} not writable: {e}")),
            },
            (_, Some(golden)) => {
                if golden.digest == observed.digest && golden.shape == observed.shape {
                    (true, format!("digest {} matches golden {key}", observed.digest))
                } else {
                    (
                        false,
                        format!(
                            "digest {} ({} entries) != golden {} ({} entries) for {key}",
                            observed.digest, observed.len, golden.digest, golden.len
                        ),
                    )
                }
            }
        };
        record(req, engine, "golden", &observed.shape, passed, &detail);
        passed
    }
}

fn record(
    req: &ExecutionRequest<'_>,
    engine: &str,
    check: &str,
    payload: &str,
    passed: bool,
    detail: &str,
) {
    req.trace.record(TraceEvent::ConformanceChecked {
        prescription: req.prescription.name.clone(),
        engine: engine.to_string(),
        check: check.to_string(),
        payload: payload.to_string(),
        passed,
        detail: detail.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_renders() {
        assert_eq!("strict".parse::<VerifyMode>().unwrap(), VerifyMode::Strict);
        assert_eq!("".parse::<VerifyMode>().unwrap(), VerifyMode::Strict);
        assert_eq!("digest".parse::<VerifyMode>().unwrap(), VerifyMode::Digest);
        assert_eq!("update".parse::<VerifyMode>().unwrap(), VerifyMode::Update);
        assert!("golden".parse::<VerifyMode>().is_err());
        assert_eq!(VerifyMode::Digest.to_string(), "digest");
    }
}
