//! Foundational types shared by every `bdbench` crate.
//!
//! `bdb-common` deliberately has no heavyweight dependencies: it provides the
//! deterministic random-number generators and statistical distributions that
//! the data generators are built on ([`rng`], [`dist`]), the dynamic value /
//! schema / record model used by the table generators and the relational
//! engine ([`value`], [`record`]), graph and text containers ([`graph`],
//! [`text`]), and the measurement primitives (histograms in [`histogram`],
//! divergence and hypothesis-test statistics in [`stats`]) that back both the
//! metrics layer and the paper's Section 5.1 *veracity metrics*. The
//! std-only worker pool in [`pool`] gives the generators their BDGS-style
//! parallel, deterministic shard dispatch.
//!
//! Everything here is deterministic given a seed: the benchmark framework's
//! credo (following PDGF, which the paper cites for BigBench's table
//! generation) is that any slice of a synthetic data set can be regenerated
//! independently and reproducibly.

pub mod dist;
pub mod event;
pub mod error;
pub mod fsio;
pub mod graph;
pub mod hash;
pub mod histogram;
pub mod pool;
pub mod record;
pub mod rng;
pub mod stats;
pub mod text;
pub mod value;

pub use error::{BdbError, Result};

/// Convenient glob-import for downstream crates:
/// `use bdb_common::prelude::*;`.
pub mod prelude {
    pub use crate::dist::{
        sample_dirichlet, Alias, Categorical, Distribution, Exponential, Gamma, Gaussian,
        LogNormal, Pareto, Poisson, UniformF64, UniformU64, Zipf,
    };
    pub use crate::error::{BdbError, Result};
    pub use crate::event::Event;
    pub use crate::graph::{CsrGraph, DegreeDistribution, EdgeListGraph};
    pub use crate::histogram::LogHistogram;
    pub use crate::record::{Record, Table};
    pub use crate::rng::{Rng, SeedTree, SplitMix64, Xoshiro256};
    pub use crate::stats::{
        bucket_pmf, chi_square_statistic, js_divergence, kl_divergence, ks_statistic, Summary,
    };
    pub use crate::text::{tokenize, Document, Vocabulary};
    pub use crate::value::{DataType, Field, Schema, Value};
}
