//! Error type shared across the workspace.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BdbError>;

/// Unified error for the benchmarking framework.
///
/// Variants are grouped by the layer that raises them (Figure 2 of the
/// paper): data generation, test generation, execution, and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum BdbError {
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A data generator was asked for something its model cannot produce.
    DataGen(String),
    /// A prescription or abstract plan is malformed (cycles, arity errors,
    /// unbound data sets).
    TestGen(String),
    /// An engine failed while executing a prescribed test.
    Execution(String),
    /// A schema/type mismatch between a value and its declared type.
    TypeMismatch { expected: String, found: String },
    /// A named entity (table, column, prescription, suite) does not exist.
    NotFound(String),
    /// Format conversion failed (parse error, unsupported format).
    Format(String),
    /// An I/O failure, carried as a string so the error stays `Clone`.
    Io(String),
    /// A store's armed kill point aborted it mid-operation, as a killed
    /// process would. Crashes are terminal: durable state is whatever was
    /// already written, and recovery happens on the next open.
    Crashed(String),
}

impl BdbError {
    /// True for [`BdbError::Crashed`]: a kill point, which the next open
    /// recovers from, not the operation that hit it.
    pub fn is_crash(&self) -> bool {
        matches!(self, BdbError::Crashed(_))
    }
}

impl fmt::Display for BdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdbError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            BdbError::DataGen(m) => write!(f, "data generation error: {m}"),
            BdbError::TestGen(m) => write!(f, "test generation error: {m}"),
            BdbError::Execution(m) => write!(f, "execution error: {m}"),
            BdbError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            BdbError::NotFound(m) => write!(f, "not found: {m}"),
            BdbError::Format(m) => write!(f, "format error: {m}"),
            BdbError::Io(m) => write!(f, "io error: {m}"),
            BdbError::Crashed(m) => write!(f, "crashed: {m}"),
        }
    }
}

impl std::error::Error for BdbError {}

impl From<std::io::Error> for BdbError {
    fn from(e: std::io::Error) -> Self {
        BdbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_each_variant() {
        let cases: Vec<(BdbError, &str)> = vec![
            (BdbError::InvalidConfig("x".into()), "invalid configuration: x"),
            (BdbError::DataGen("x".into()), "data generation error: x"),
            (BdbError::TestGen("x".into()), "test generation error: x"),
            (BdbError::Execution("x".into()), "execution error: x"),
            (
                BdbError::TypeMismatch { expected: "Int".into(), found: "Text".into() },
                "type mismatch: expected Int, found Text",
            ),
            (BdbError::NotFound("x".into()), "not found: x"),
            (BdbError::Format("x".into()), "format error: x"),
            (BdbError::Io("x".into()), "io error: x"),
            (BdbError::Crashed("x".into()), "crashed: x"),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn only_crashes_are_crashes() {
        assert!(BdbError::Crashed("kill point".into()).is_crash());
        assert!(!BdbError::Execution("engine failure".into()).is_crash());
        assert!(!BdbError::Io("disk".into()).is_crash());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let err: BdbError = io.into();
        assert_eq!(err, BdbError::Io("boom".into()));
    }
}
