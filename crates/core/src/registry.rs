//! The data-generator registry.
//!
//! Prescriptions reference generators by id (their `DataSpec.generator`
//! field); the registry maps ids to factories so the pipeline can
//! materialise data sets. Built-ins cover the framework's generator
//! families; applications register their own under new ids.

use bdb_common::{BdbError, Result};
use bdb_datagen::behavioral::BehavioralEvents;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, BaGenerator, ErdosRenyiGenerator, RmatGenerator};
use bdb_datagen::stream::{MmppArrivals, PoissonArrivals};
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::DataGenerator;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The model behind `text/lda`, trained once per process on the embedded
/// corpus (training is the slow part; every build clones it). The suite
/// models read the same model for their text generation and veracity
/// probes.
pub fn builtin_lda() -> &'static LdaModel {
    static MODEL: OnceLock<LdaModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let config = LdaConfig { num_topics: 4, alpha: 0.1, beta: 0.01, iterations: 80 };
        LdaModel::train(&RAW_TEXT_CORPUS, config, 0xBD).expect("the embedded corpus trains")
    })
}

type Factory = Arc<dyn Fn() -> Result<Box<dyn DataGenerator>> + Send + Sync>;

/// A name → generator-factory registry.
#[derive(Clone, Default)]
pub struct GeneratorRegistry {
    factories: BTreeMap<String, Factory>,
}

impl std::fmt::Debug for GeneratorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratorRegistry")
            .field("ids", &self.ids())
            .finish()
    }
}

impl GeneratorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with every built-in generator family registered.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register("text/lda", || Ok(Box::new(builtin_lda().clone())));
        r.register("text/markov-bigram", || {
            Ok(Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS)?))
        });
        r.register("text/naive-uniform", || {
            Ok(Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)))
        });
        r.register("table/retail-fitted", || {
            Ok(Box::new(TableGenerator::fit("retail", &raw_retail_table())?))
        });
        r.register("table/retail-naive", || {
            Ok(Box::new(TableGenerator::naive("retail", &raw_retail_table())?))
        });
        r.register("graph/rmat", || Ok(Box::new(RmatGenerator::standard(8.0))));
        r.register("graph/rmat-fitted", || {
            Ok(Box::new(fit_rmat(&karate_club_graph(), 0xBD)?))
        });
        r.register("graph/barabasi-albert", || Ok(Box::new(BaGenerator::new(4)?)));
        r.register("graph/erdos-renyi", || {
            Ok(Box::new(ErdosRenyiGenerator { edges_per_vertex: 8.0 }))
        });
        r.register("stream/poisson", || {
            Ok(Box::new(PoissonArrivals::new(2_000.0, 64)?))
        });
        r.register("stream/mmpp", || {
            Ok(Box::new(MmppArrivals::new(500.0, 4_000.0, 500.0, 64)?))
        });
        r.register("behavioral/events", || {
            Ok(Box::new(BehavioralEvents::new(64, 8, 500, 2_000)?))
        });
        r
    }

    /// Register a factory under an id (replacing any existing one).
    pub fn register<F>(&mut self, id: &str, factory: F)
    where
        F: Fn() -> Result<Box<dyn DataGenerator>> + Send + Sync + 'static,
    {
        self.factories.insert(id.to_string(), Arc::new(factory));
    }

    /// Instantiate the generator registered under `id`.
    pub fn build(&self, id: &str) -> Result<Box<dyn DataGenerator>> {
        let f = self
            .factories
            .get(id)
            .ok_or_else(|| BdbError::NotFound(format!("generator {id}")))?;
        f()
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::volume::VolumeSpec;

    #[test]
    fn builtins_cover_all_four_kinds() {
        let r = GeneratorRegistry::with_builtins();
        let mut kinds = std::collections::BTreeSet::new();
        for id in r.ids() {
            let gen = r.build(id).unwrap();
            kinds.insert(gen.kind().to_string());
        }
        assert_eq!(kinds.len(), 4, "kinds: {kinds:?}");
    }

    #[test]
    fn built_generators_generate() {
        let r = GeneratorRegistry::with_builtins();
        let gen = r.build("table/retail-fitted").unwrap();
        let d = gen.generate(1, &VolumeSpec::Items(10)).unwrap();
        assert_eq!(d.item_count(), 10);
    }

    #[test]
    fn lda_builds_share_one_model_and_generate_as_a_fresh_one() {
        assert!(std::ptr::eq(builtin_lda(), builtin_lda()));
        let config = LdaConfig { num_topics: 4, alpha: 0.1, beta: 0.01, iterations: 80 };
        let fresh = LdaModel::train(&RAW_TEXT_CORPUS, config, 0xBD).unwrap();
        let built = GeneratorRegistry::with_builtins().build("text/lda").unwrap();
        let docs = |gen: &dyn DataGenerator| match gen.generate(7, &VolumeSpec::Items(40)) {
            Ok(bdb_datagen::Dataset::Text { docs, .. }) => docs,
            other => panic!("text/lda generated {other:?}"),
        };
        assert_eq!(docs(built.as_ref()), docs(&fresh));
    }

    #[test]
    fn unknown_id_errors() {
        let r = GeneratorRegistry::with_builtins();
        assert!(r.build("nope").is_err());
    }

    #[test]
    fn custom_registration_overrides() {
        let mut r = GeneratorRegistry::new();
        r.register("mine", || {
            Ok(Box::new(NaiveTextGenerator::from_corpus(&["hello world"])))
        });
        assert!(r.build("mine").is_ok());
        assert_eq!(r.ids(), vec!["mine"]);
    }
}
