//! Secure storage — the OP-TEE trusted-storage service (paper Fig. 1's
//! "storage" box, reached via tee-supplicant).
//!
//! Objects are opaque byte strings keyed by object id. In real OP-TEE the
//! backing store is the untrusted filesystem with authenticated
//! encryption applied inside the secure world; here the store lives in
//! secure-world memory, which gives the same visible semantics (only
//! secure-world code can read or tamper with objects).

use std::collections::BTreeMap;

use crate::TeeError;

/// An in-memory secure object store.
#[derive(Debug, Default)]
pub struct SecureStorage {
    objects: BTreeMap<String, Vec<u8>>,
}

impl SecureStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        SecureStorage::default()
    }

    /// Creates or replaces the object `id`.
    pub fn put(&mut self, id: &str, data: Vec<u8>) {
        self.objects.insert(id.to_string(), data);
    }

    /// Reads object `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] when no such object exists.
    pub fn get(&self, id: &str) -> Result<&[u8], TeeError> {
        self.objects
            .get(id)
            .map(Vec::as_slice)
            .ok_or(TeeError::ItemNotFound)
    }

    /// Deletes object `id`, returning its contents.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] when no such object exists.
    pub fn delete(&mut self, id: &str) -> Result<Vec<u8>, TeeError> {
        self.objects.remove(id).ok_or(TeeError::ItemNotFound)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Object ids in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = SecureStorage::new();
        s.put("poa/0", vec![1, 2, 3]);
        assert_eq!(s.get("poa/0").unwrap(), &[1, 2, 3]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn get_missing_is_item_not_found() {
        let s = SecureStorage::new();
        assert_eq!(s.get("nope"), Err(TeeError::ItemNotFound));
    }

    #[test]
    fn put_replaces() {
        let mut s = SecureStorage::new();
        s.put("k", vec![1]);
        s.put("k", vec![2]);
        assert_eq!(s.get("k").unwrap(), &[2]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_removes_and_returns() {
        let mut s = SecureStorage::new();
        s.put("k", vec![9]);
        assert_eq!(s.delete("k").unwrap(), vec![9]);
        assert_eq!(s.delete("k"), Err(TeeError::ItemNotFound));
        assert!(s.is_empty());
    }

    #[test]
    fn ids_sorted() {
        let mut s = SecureStorage::new();
        s.put("b", vec![]);
        s.put("a", vec![]);
        let ids: Vec<&str> = s.ids().collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn get_after_delete_is_item_not_found() {
        let mut s = SecureStorage::new();
        s.put("k", vec![1, 2, 3]);
        s.delete("k").unwrap();
        assert_eq!(s.get("k"), Err(TeeError::ItemNotFound));
        // Re-creating after delete starts from the new contents, not a
        // resurrected old object.
        s.put("k", vec![9]);
        assert_eq!(s.get("k").unwrap(), &[9]);
    }

    #[test]
    fn overwrite_replaces_whole_object_not_a_merge() {
        let mut s = SecureStorage::new();
        s.put("k", vec![1, 2, 3, 4, 5]);
        s.put("k", vec![7]);
        assert_eq!(
            s.get("k").unwrap(),
            &[7],
            "shorter rewrite must not keep a tail"
        );
        assert_eq!(s.len(), 1);
    }
}
