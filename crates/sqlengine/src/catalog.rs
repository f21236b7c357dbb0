//! The table catalog.

use bdb_common::record::Table;
use bdb_common::{BdbError, Result};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A name → table registry. `T` is how a table is held: owned (`Table`,
/// the default) or on loan (`&Table`) when the caller already has the
/// tables and a query only reads them.
#[derive(Debug)]
pub struct Catalog<T = Table> {
    tables: BTreeMap<String, T>,
}

impl<T> Default for Catalog<T> {
    fn default() -> Self {
        Self { tables: BTreeMap::new() }
    }
}

impl<T: Borrow<Table>> Catalog<T> {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `table` under `name`.
    ///
    /// # Errors
    /// Fails when the name is already registered.
    pub fn register(&mut self, name: &str, table: T) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(BdbError::InvalidConfig(format!(
                "table {name} already registered"
            )));
        }
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Replace or insert a table (used by load/maintenance workloads).
    pub fn put(&mut self, name: &str, table: T) {
        self.tables.insert(name.to_string(), table);
    }

    /// Remove a table, returning it if present.
    pub fn drop_table(&mut self, name: &str) -> Option<T> {
        self.tables.remove(name)
    }

    /// Look up a table.
    ///
    /// # Errors
    /// Fails when the table does not exist.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(Borrow::borrow)
            .ok_or_else(|| BdbError::NotFound(format!("table {name}")))
    }

    /// All registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_common::value::{DataType, Field, Schema};

    fn t() -> Table {
        Table::new(Schema::new(vec![Field::new("x", DataType::Int)]))
    }

    #[test]
    fn register_get_drop() {
        let mut c = Catalog::new();
        c.register("a", t()).unwrap();
        assert!(c.get("a").is_ok());
        assert!(c.get("b").is_err());
        assert!(c.register("a", t()).is_err());
        assert_eq!(c.table_names(), vec!["a"]);
        assert!(c.drop_table("a").is_some());
        assert!(c.drop_table("a").is_none());
    }

    #[test]
    fn a_catalog_of_borrowed_tables_answers_like_an_owned_one() {
        let mut owned_table = t();
        owned_table.push(vec![bdb_common::value::Value::Int(7)]).unwrap();
        let mut lent = Catalog::new();
        lent.register("a", &owned_table).unwrap();
        assert_eq!(lent.get("a").unwrap(), &owned_table);
        assert!(lent.register("a", &owned_table).is_err());
    }

    #[test]
    fn put_overwrites() {
        let mut c = Catalog::new();
        c.register("a", t()).unwrap();
        c.put("a", t());
        assert!(c.get("a").is_ok());
    }
}
