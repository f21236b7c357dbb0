//! A LinkBench-style social-graph association store.
//!
//! LinkBench (cited in Tables 1–2) models Facebook's social graph as nodes
//! plus typed, timestamped directed links, queried by "simple operations
//! such as select, insert, update, and delete; and association range
//! queries and count queries". This module provides those operations on
//! top of [`LsmStore`] using order-preserving composite keys, so range
//! queries become LSM scans:
//!
//! * node keys:  `n | id`
//! * link keys:  `l | id1 | link_type | (u64::MAX - time) | id2`
//!   (inverted time ⇒ a scan returns newest links first, as LinkBench's
//!   `assoc_range` requires)
//! * count keys: `c | id1 | link_type`

use crate::lsm::{LsmConfig, LsmStore};
use bdb_common::{BdbError, Result};

/// A typed, timestamped directed link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Source node.
    pub id1: u64,
    /// Link type (e.g. "likes" = 1, "follows" = 2).
    pub link_type: u32,
    /// Destination node.
    pub id2: u64,
    /// Event time in milliseconds.
    pub time: u64,
    /// Opaque payload.
    pub data: Vec<u8>,
}

fn node_key(id: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(b'n');
    k.extend_from_slice(&id.to_be_bytes());
    k
}

fn link_prefix(id1: u64, link_type: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(13);
    k.push(b'l');
    k.extend_from_slice(&id1.to_be_bytes());
    k.extend_from_slice(&link_type.to_be_bytes());
    k
}

fn link_key(id1: u64, link_type: u32, time: u64, id2: u64) -> Vec<u8> {
    let mut k = link_prefix(id1, link_type);
    k.extend_from_slice(&(u64::MAX - time).to_be_bytes());
    k.extend_from_slice(&id2.to_be_bytes());
    k
}

fn count_key(id1: u64, link_type: u32) -> Vec<u8> {
    let mut k = link_prefix(id1, link_type);
    k[0] = b'c';
    k
}

fn prefix_end(prefix: &[u8]) -> Vec<u8> {
    // Smallest byte string greater than every string with this prefix.
    let mut end = prefix.to_vec();
    for i in (0..end.len()).rev() {
        if end[i] < 0xFF {
            end[i] += 1;
            end.truncate(i + 1);
            return end;
        }
    }
    // All 0xFF: unbounded.
    Vec::new()
}

fn decode_link(id1: u64, link_type: u32, key: &[u8], data: &[u8]) -> Result<Link> {
    // key = 'l' (1) + id1 (8) + type (4) + inv_time (8) + id2 (8).
    if key.len() != 29 {
        return Err(BdbError::Format(format!("bad link key length {}", key.len())));
    }
    let inv_time = u64::from_be_bytes(key[13..21].try_into().expect("slice len"));
    let id2 = u64::from_be_bytes(key[21..29].try_into().expect("slice len"));
    Ok(Link { id1, link_type, id2, time: u64::MAX - inv_time, data: data.to_vec() })
}

/// The association store.
#[derive(Debug, Default)]
pub struct LinkStore {
    store: LsmStore,
}

impl LinkStore {
    /// A store with explicit LSM configuration.
    pub fn with_config(config: LsmConfig) -> Self {
        Self { store: LsmStore::with_config(config) }
    }

    /// Insert or overwrite a node's payload.
    pub fn add_node(&mut self, id: u64, data: Vec<u8>) {
        self.store.put(node_key(id), data);
    }

    /// Fetch a node's payload.
    pub fn get_node(&self, id: u64) -> Option<Vec<u8>> {
        self.store.get(&node_key(id))
    }

    /// Delete a node (links are managed separately, as in LinkBench).
    pub fn delete_node(&mut self, id: u64) {
        self.store.delete(node_key(id));
    }

    /// Add a link, maintaining the count index.
    pub fn add_link(&mut self, link: Link) {
        let key = link_key(link.id1, link.link_type, link.time, link.id2);
        // Only bump the count for a brand-new link.
        if self.store.get(&key).is_none() {
            let ck = count_key(link.id1, link.link_type);
            let n = self.count_links(link.id1, link.link_type) + 1;
            self.store.put(ck, n.to_be_bytes().to_vec());
        }
        self.store.put(key, link.data);
    }

    /// Delete a link identified by its natural key.
    pub fn delete_link(&mut self, id1: u64, link_type: u32, time: u64, id2: u64) {
        let key = link_key(id1, link_type, time, id2);
        if self.store.get(&key).is_some() {
            let n = self.count_links(id1, link_type).saturating_sub(1);
            self.store
                .put(count_key(id1, link_type), n.to_be_bytes().to_vec());
            self.store.delete(key);
        }
    }

    /// Fetch a single link.
    pub fn get_link(&self, id1: u64, link_type: u32, time: u64, id2: u64) -> Option<Link> {
        let key = link_key(id1, link_type, time, id2);
        let data = self.store.get(&key)?;
        decode_link(id1, link_type, &key, &data).ok()
    }

    /// LinkBench's `assoc_range`: newest links of `(id1, link_type)` first,
    /// up to `limit`.
    pub fn get_link_list(&self, id1: u64, link_type: u32, limit: usize) -> Vec<Link> {
        let prefix = link_prefix(id1, link_type);
        let end = prefix_end(&prefix);
        let end_ref = if end.is_empty() { None } else { Some(end.as_slice()) };
        self.store
            .scan(&prefix, end_ref, limit)
            .iter()
            .filter_map(|(k, v)| decode_link(id1, link_type, k, v).ok())
            .collect()
    }

    /// LinkBench's count query, answered from the maintained count index.
    pub fn count_links(&self, id1: u64, link_type: u32) -> u64 {
        self.store
            .get(&count_key(id1, link_type))
            .map(|v| u64::from_be_bytes(v.as_slice().try_into().unwrap_or([0; 8])))
            .unwrap_or(0)
    }

    /// Counter snapshot of the underlying store.
    pub fn stats(&self) -> crate::lsm::KvStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(id1: u64, t: u32, id2: u64, time: u64) -> Link {
        Link { id1, link_type: t, id2, time, data: vec![id2 as u8] }
    }

    #[test]
    fn node_crud() {
        let mut s = LinkStore::default();
        s.add_node(1, b"alice".to_vec());
        assert_eq!(s.get_node(1), Some(b"alice".to_vec()));
        s.delete_node(1);
        assert_eq!(s.get_node(1), None);
    }

    #[test]
    fn link_roundtrip_and_count() {
        let mut s = LinkStore::default();
        s.add_link(link(1, 7, 100, 1000));
        s.add_link(link(1, 7, 101, 2000));
        s.add_link(link(1, 8, 102, 1500));
        assert_eq!(s.count_links(1, 7), 2);
        assert_eq!(s.count_links(1, 8), 1);
        assert_eq!(s.count_links(2, 7), 0);
        let got = s.get_link(1, 7, 1000, 100).unwrap();
        assert_eq!(got.id2, 100);
        assert_eq!(got.time, 1000);
    }

    #[test]
    fn re_adding_same_link_does_not_double_count() {
        let mut s = LinkStore::default();
        s.add_link(link(1, 7, 100, 1000));
        s.add_link(link(1, 7, 100, 1000));
        assert_eq!(s.count_links(1, 7), 1);
    }

    #[test]
    fn assoc_range_returns_newest_first() {
        let mut s = LinkStore::default();
        for (id2, time) in [(100, 1000), (101, 3000), (102, 2000)] {
            s.add_link(link(1, 7, id2, time));
        }
        let list = s.get_link_list(1, 7, 10);
        let times: Vec<u64> = list.iter().map(|l| l.time).collect();
        assert_eq!(times, vec![3000, 2000, 1000]);
        // Limit applies.
        assert_eq!(s.get_link_list(1, 7, 2).len(), 2);
    }

    #[test]
    fn assoc_range_does_not_leak_across_types_or_nodes() {
        let mut s = LinkStore::default();
        s.add_link(link(1, 7, 100, 1000));
        s.add_link(link(1, 8, 200, 1000));
        s.add_link(link(2, 7, 300, 1000));
        let list = s.get_link_list(1, 7, 10);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].id2, 100);
    }

    #[test]
    fn delete_link_updates_count_and_range() {
        let mut s = LinkStore::default();
        s.add_link(link(1, 7, 100, 1000));
        s.add_link(link(1, 7, 101, 2000));
        s.delete_link(1, 7, 2000, 101);
        assert_eq!(s.count_links(1, 7), 1);
        let list = s.get_link_list(1, 7, 10);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].id2, 100);
        // Deleting a missing link is a no-op.
        s.delete_link(9, 9, 9, 9);
        assert_eq!(s.count_links(1, 7), 1);
    }

    #[test]
    fn prefix_end_handles_0xff() {
        assert_eq!(prefix_end(&[1, 2]), vec![1, 3]);
        assert_eq!(prefix_end(&[1, 0xFF]), vec![2]);
        assert_eq!(prefix_end(&[0xFF, 0xFF]), Vec::<u8>::new());
    }

    #[test]
    fn survives_flush_and_compaction() {
        let mut s = LinkStore::with_config(LsmConfig {
            memtable_capacity_bytes: 128,
            max_runs: 2, bloom_bits_per_key: 10, });
        for i in 0..100u64 {
            s.add_link(link(1, 7, i, 1000 + i));
        }
        assert_eq!(s.count_links(1, 7), 100);
        assert_eq!(s.get_link_list(1, 7, 1000).len(), 100);
        assert!(s.stats().flushes > 0);
    }
}
