//! Tamper-evident audit log: hash chain, Merkle checkpoints, and
//! offline proof verification.
//!
//! The auditor's word is the whole protocol's output — a verdict it can
//! silently rewrite is a verdict that never constrained anyone. This
//! module makes the journal's history *verifiable by third parties*:
//!
//! * Every durable mutation record (registrations, zones, nonces,
//!   stored verdicts) is a leaf of an RFC 6962-style **Merkle tree**
//!   (leaf hash `SHA-256(0x00 ‖ payload)`, node hash
//!   `SHA-256(0x01 ‖ left ‖ right)`) and a link in a **hash chain**
//!   over those leaf hashes: the chain head after entry `i` is
//!   `SHA-256(prev_head ‖ seq_be ‖ leaf_i)`, so rewriting, dropping, or
//!   reordering any historical record changes every later head. Each
//!   payload is hashed once; the chain step hashes a fixed 72 bytes.
//! * The Merkle root is periodically journaled as a
//!   [`Record::AuditCheckpoint`](crate::journal::Record) and served
//!   over the wire as a [`SignedTreeHead`].
//! * [`verify_inclusion`] and [`verify_consistency`] are pure
//!   functions over hashes — a client (or court) verifies that a
//!   verdict is included in a signed head, and that two signed heads
//!   describe the same append-only history, without trusting the
//!   auditor or even talking to it.
//!
//! Replication followers recompute the same chain while applying
//! shipped frames (see [`crate::repl`]), so a primary that forks its
//! history is refused with a typed error at the first checkpoint.
//! Replay and followers check checkpoints by Merkle root only, so a
//! journal written by a build that chained the payload itself, rather
//! than its leaf hash, still recovers; only the `chain_head` values in
//! signed tree heads differ between such builds.

use std::fmt;

use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey, RsaPublicKey};
use alidrone_crypto::sha256::{sha256, Sha256, SHA256_LEN};

/// Byte length of every hash in this module.
pub const HASH_LEN: usize = SHA256_LEN;

/// One SHA-256 output.
pub type Hash = [u8; HASH_LEN];

/// Domain-separation prefix for leaf hashes (RFC 6962 §2.1).
const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior node hashes.
const NODE_PREFIX: u8 = 0x01;
/// Domain prefix mixed into every signed tree head, so an STH
/// signature can never be confused with any other RSA signature the
/// auditor key produces.
const STH_DOMAIN: &[u8; 8] = b"ALDSTH01";

// ------------------------------------------------------------------ errors

/// Typed audit-verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A requested leaf index lies outside the tree.
    IndexOutOfRange {
        /// The requested leaf index.
        index: u64,
        /// The tree size it was requested against.
        size: u64,
    },
    /// A consistency proof was requested for sizes that are not
    /// `0 < old <= new <= current`.
    BadRange {
        /// The older tree size.
        old: u64,
        /// The newer tree size.
        new: u64,
    },
    /// A recomputed root or chain head does not match the recorded one
    /// — the history was tampered with or forked.
    Divergence {
        /// Tree size (entry count) at which the mismatch was found.
        size: u64,
        /// What diverged.
        what: &'static str,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::IndexOutOfRange { index, size } => {
                write!(f, "audit leaf {index} out of range for tree size {size}")
            }
            AuditError::BadRange { old, new } => {
                write!(f, "bad audit proof range: {old} -> {new}")
            }
            AuditError::Divergence { size, what } => {
                write!(f, "audit divergence at size {size}: {what}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

// ------------------------------------------------------------------ hashes

/// RFC 6962 leaf hash: `SHA-256(0x00 ‖ payload)`.
pub fn leaf_hash(payload: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(payload);
    h.finalize()
}

/// RFC 6962 node hash: `SHA-256(0x01 ‖ left ‖ right)`.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// Advances the hash chain by one entry whose Merkle leaf hash is
/// `leaf`: `SHA-256(prev_head ‖ seq_be ‖ leaf)`. The leaf binds the
/// payload under SHA-256 collision resistance, so the head binds every
/// payload and its position exactly as hashing the payload again would.
pub fn chain_step(prev: &Hash, seq: u64, leaf: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&seq.to_be_bytes());
    h.update(leaf);
    h.finalize()
}

/// Largest power of two strictly less than `n` (`n >= 2`).
fn split_point(n: u64) -> u64 {
    debug_assert!(n >= 2);
    1 << (63 - (n - 1).leading_zeros())
}

// ------------------------------------------------------- offline verifiers

/// Verifies that the leaf with hash `leaf` sits at `index` in the tree
/// of `size` leaves whose root is `root` (RFC 6962-bis §2.1.3.2). Pure
/// function of hashes — usable offline, with no auditor in the loop.
pub fn verify_inclusion(leaf: &Hash, index: u64, size: u64, proof: &[Hash], root: &Hash) -> bool {
    if index >= size {
        return false;
    }
    let mut fn_ = index;
    let mut sn = size - 1;
    let mut r = *leaf;
    for p in proof {
        if sn == 0 {
            return false;
        }
        if fn_ & 1 == 1 || fn_ == sn {
            r = node_hash(p, &r);
            if fn_ & 1 == 0 {
                // Right-most node at this level: skip the levels where
                // it has no sibling.
                while fn_ != 0 && fn_ & 1 == 0 {
                    fn_ >>= 1;
                    sn >>= 1;
                }
            }
        } else {
            r = node_hash(&r, p);
        }
        fn_ >>= 1;
        sn >>= 1;
    }
    sn == 0 && r == *root
}

/// Verifies that the tree of `new` leaves with root `new_root` is an
/// append-only extension of the tree of `old` leaves with root
/// `old_root` (RFC 6962-bis §2.1.4.2). Pure function of hashes.
pub fn verify_consistency(
    old: u64,
    new: u64,
    proof: &[Hash],
    old_root: &Hash,
    new_root: &Hash,
) -> bool {
    if old > new || old == 0 {
        return false;
    }
    if old == new {
        return proof.is_empty() && old_root == new_root;
    }
    let mut fn_ = old - 1;
    let mut sn = new - 1;
    while fn_ & 1 == 1 {
        fn_ >>= 1;
        sn >>= 1;
    }
    let mut proof = proof.iter();
    let (mut fr, mut sr) = if fn_ != 0 {
        // The old tree is not a perfect power of two: its root is
        // derived from the first proof node.
        match proof.next() {
            Some(p) => (*p, *p),
            None => return false,
        }
    } else {
        (*old_root, *old_root)
    };
    for c in proof {
        if sn == 0 {
            return false;
        }
        if fn_ & 1 == 1 || fn_ == sn {
            fr = node_hash(c, &fr);
            sr = node_hash(c, &sr);
            if fn_ & 1 == 0 {
                while fn_ != 0 && fn_ & 1 == 0 {
                    fn_ >>= 1;
                    sn >>= 1;
                }
            }
        } else {
            sr = node_hash(&sr, c);
        }
        fn_ >>= 1;
        sn >>= 1;
    }
    sn == 0 && fr == *old_root && sr == *new_root
}

// ------------------------------------------------------------- tree heads

/// A signed tree head: the auditor's promise that the first `size`
/// audit entries hash to `root` with chain head `chain_head`. The
/// signature covers a domain-separated digest of all three, so holding
/// an STH is enough to later verify inclusion and consistency proofs
/// offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTreeHead {
    /// Number of audit entries covered.
    pub size: u64,
    /// Merkle root over those entries' leaf hashes.
    pub root: Hash,
    /// Hash-chain head after the last covered entry.
    pub chain_head: Hash,
    /// RSA-SHA256 signature by the auditor key over
    /// [`signing_bytes`](SignedTreeHead::signing_bytes).
    pub signature: Vec<u8>,
}

impl SignedTreeHead {
    /// The exact bytes the signature covers:
    /// `"ALDSTH01" ‖ size_be ‖ root ‖ chain_head`.
    pub fn signing_bytes(size: u64, root: &Hash, chain_head: &Hash) -> Vec<u8> {
        let mut out = Vec::with_capacity(STH_DOMAIN.len() + 8 + 2 * HASH_LEN);
        out.extend_from_slice(STH_DOMAIN);
        out.extend_from_slice(&size.to_be_bytes());
        out.extend_from_slice(root);
        out.extend_from_slice(chain_head);
        out
    }

    /// Signs a tree head with the auditor's key.
    ///
    /// # Errors
    ///
    /// Propagates RSA signing failures.
    pub fn sign(
        size: u64,
        root: Hash,
        chain_head: Hash,
        key: &RsaPrivateKey,
    ) -> Result<SignedTreeHead, alidrone_crypto::CryptoError> {
        let msg = SignedTreeHead::signing_bytes(size, &root, &chain_head);
        let signature = key.sign(&msg, HashAlg::Sha256)?;
        Ok(SignedTreeHead {
            size,
            root,
            chain_head,
            signature,
        })
    }

    /// Verifies the auditor signature under `key`.
    pub fn verify(&self, key: &RsaPublicKey) -> bool {
        let msg = SignedTreeHead::signing_bytes(self.size, &self.root, &self.chain_head);
        key.verify(&msg, &self.signature, HashAlg::Sha256).is_ok()
    }
}

/// An inclusion proof as served over the wire: everything a client
/// needs to call [`verify_inclusion`] against an STH it already holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Leaf index of the proven entry.
    pub index: u64,
    /// Tree size the proof was built against.
    pub size: u64,
    /// Leaf hash of the proven entry.
    pub leaf: Hash,
    /// Sibling hashes, leaf-to-root.
    pub path: Vec<Hash>,
}

/// A consistency proof as served over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// The older tree size.
    pub old_size: u64,
    /// The newer tree size.
    pub new_size: u64,
    /// Proof node hashes.
    pub path: Vec<Hash>,
}

// ------------------------------------------------------------------ chain

/// The auditor-side audit state: the hash chain head, every leaf hash,
/// and every complete subtree hash above them (RFC 6962 §2.1). That is
/// about 64 bytes per audited record, enough to serve inclusion and
/// consistency proofs for *any* historical size even after the journal
/// itself was compacted away.
///
/// `levels[k][j]` is the root of the aligned subtree over leaves
/// `[j * 2^(k+1), (j + 1) * 2^(k+1))`; level `k` holds exactly
/// `size >> (k + 1)` nodes and no level is left empty. Every node a
/// root or proof needs for a size up to [`size`](AuditChain::size) is
/// therefore stored, so a root costs O(log n) node hashes and a proof
/// O(log² n), where rebuilding from the leaves would cost O(n).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditChain {
    head: Hash,
    leaves: Vec<Hash>,
    levels: Vec<Vec<Hash>>,
}

/// An earlier state of an [`AuditChain`] to roll back to, or to sign a
/// tree head at: its size and chain head at the time
/// [`AuditChain::mark`] was called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ChainMark {
    size: u64,
    head: Hash,
}

impl ChainMark {
    /// Entries the chain held.
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// The chain head after its last entry.
    pub(crate) fn head(&self) -> Hash {
        self.head
    }
}

impl Default for AuditChain {
    fn default() -> Self {
        AuditChain::new()
    }
}

impl AuditChain {
    /// An empty chain (head = all zeros, no leaves).
    pub fn new() -> AuditChain {
        AuditChain {
            head: [0u8; HASH_LEN],
            leaves: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Rebuilds a chain from snapshot state, hashing the subtree levels
    /// once (about one node hash per leaf).
    pub fn from_parts(head: Hash, leaves: Vec<Hash>) -> AuditChain {
        let mut levels: Vec<Vec<Hash>> = Vec::new();
        loop {
            let below = levels.last().unwrap_or(&leaves);
            if below.len() < 2 {
                break;
            }
            let level = below
                .chunks_exact(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(level);
        }
        AuditChain {
            head,
            leaves,
            levels,
        }
    }

    /// Entries chained so far (== Merkle tree size).
    pub fn size(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// The chain head after the last entry.
    pub fn head(&self) -> Hash {
        self.head
    }

    /// The leaf hashes (for snapshots and proof construction).
    pub fn leaves(&self) -> &[Hash] {
        &self.leaves
    }

    /// Appends one audited record payload: hashes it once into its
    /// Merkle leaf, advances the chain head over that leaf, and stores
    /// the leaf plus every subtree it completes. A leaf at an odd index
    /// completes one subtree per trailing one bit of that index, so an
    /// append costs one node hash amortized.
    pub fn append(&mut self, payload: &[u8]) {
        let mut index = self.leaves.len();
        let mut right = leaf_hash(payload);
        self.head = chain_step(&self.head, index as u64, &right);
        self.leaves.push(right);
        let mut k = 0;
        while index & 1 == 1 {
            right = node_hash(&self.node(k, index as u64 - 1), &right);
            if k as usize == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[k as usize].push(right);
            index >>= 1;
            k += 1;
        }
    }

    /// The current size and head, for a later [`rollback`](AuditChain::rollback).
    pub(crate) fn mark(&self) -> ChainMark {
        ChainMark {
            size: self.size(),
            head: self.head,
        }
    }

    /// Rolls the chain back to a [`mark`](AuditChain::mark) taken
    /// earlier on this chain: drops every later leaf and every subtree
    /// hash that covers one. A mark beyond the current size is ignored.
    pub(crate) fn rollback(&mut self, mark: ChainMark) {
        if mark.size > self.size() {
            return;
        }
        self.head = mark.head;
        self.leaves.truncate(mark.size as usize);
        for (k, level) in self.levels.iter_mut().enumerate() {
            level.truncate((mark.size >> (k + 1)) as usize);
        }
        while self.levels.last().is_some_and(Vec::is_empty) {
            self.levels.pop();
        }
    }

    /// Root of the aligned perfect subtree of `2^k` leaves at position
    /// `j` of its level.
    fn node(&self, k: u32, j: u64) -> Hash {
        if k == 0 {
            self.leaves[j as usize]
        } else {
            self.levels[k as usize - 1][j as usize]
        }
    }

    /// Merkle root of leaves `[lo, hi)` (RFC 6962 `MTH`), for the ranges
    /// the RFC 6962 recursion visits: a power-of-two range there is
    /// always aligned, so it is one stored node; any other range splits
    /// on the largest power of two strictly below its length.
    fn range_root(&self, lo: u64, hi: u64) -> Hash {
        let n = hi - lo;
        if n.is_power_of_two() {
            let k = n.trailing_zeros();
            return self.node(k, lo >> k);
        }
        let k = split_point(n);
        node_hash(&self.range_root(lo, lo + k), &self.range_root(lo + k, hi))
    }

    /// Merkle root over the current entries.
    pub fn root(&self) -> Hash {
        self.root_of(self.size())
    }

    /// Merkle root over the first `size <= self.size()` entries
    /// (`SHA-256("")` for an empty tree, per RFC 6962).
    fn root_of(&self, size: u64) -> Hash {
        if size == 0 {
            return sha256(b"");
        }
        self.range_root(0, size)
    }

    /// Merkle root over the first `size` entries.
    ///
    /// # Errors
    ///
    /// [`AuditError::IndexOutOfRange`] when `size` exceeds the chain.
    pub fn root_at(&self, size: u64) -> Result<Hash, AuditError> {
        if size > self.size() {
            return Err(AuditError::IndexOutOfRange {
                index: size,
                size: self.size(),
            });
        }
        Ok(self.root_of(size))
    }

    /// Inclusion path (`PATH` in RFC 6962) for leaf `index` within
    /// `[lo, hi)`, sibling hashes in leaf-to-root order.
    fn range_path(&self, index: u64, lo: u64, hi: u64, out: &mut Vec<Hash>) {
        if hi - lo == 1 {
            return;
        }
        let k = split_point(hi - lo);
        if index < lo + k {
            self.range_path(index, lo, lo + k, out);
            out.push(self.range_root(lo + k, hi));
        } else {
            self.range_path(index, lo + k, hi, out);
            out.push(self.range_root(lo, lo + k));
        }
    }

    /// Consistency proof nodes (`SUBPROOF` in RFC 6962) extending the
    /// first `m` leaves of `[lo, hi)` to the whole range.
    fn range_subproof(&self, m: u64, lo: u64, hi: u64, whole: bool, out: &mut Vec<Hash>) {
        let n = hi - lo;
        if m == n {
            if !whole {
                out.push(self.range_root(lo, hi));
            }
            return;
        }
        let k = split_point(n);
        if m <= k {
            self.range_subproof(m, lo, lo + k, whole, out);
            out.push(self.range_root(lo + k, hi));
        } else {
            self.range_subproof(m - k, lo + k, hi, false, out);
            out.push(self.range_root(lo, lo + k));
        }
    }

    /// Inclusion proof for leaf `index` against the tree of `size`
    /// entries.
    ///
    /// # Errors
    ///
    /// [`AuditError::IndexOutOfRange`] unless `index < size <= self.size()`.
    pub fn prove_inclusion(&self, index: u64, size: u64) -> Result<InclusionProof, AuditError> {
        if index >= size || size > self.size() {
            return Err(AuditError::IndexOutOfRange { index, size });
        }
        let mut path = Vec::new();
        self.range_path(index, 0, size, &mut path);
        Ok(InclusionProof {
            index,
            size,
            leaf: self.leaves[index as usize],
            path,
        })
    }

    /// Consistency proof between the trees of `old` and `new` entries.
    ///
    /// # Errors
    ///
    /// [`AuditError::BadRange`] unless `0 < old <= new <= self.size()`.
    pub fn prove_consistency(&self, old: u64, new: u64) -> Result<ConsistencyProof, AuditError> {
        if old == 0 || old > new || new > self.size() {
            return Err(AuditError::BadRange { old, new });
        }
        let mut path = Vec::new();
        if old < new {
            self.range_subproof(old, 0, new, true, &mut path);
        }
        Ok(ConsistencyProof {
            old_size: old,
            new_size: new,
            path,
        })
    }

    /// Checks a journaled checkpoint claim against this chain's own
    /// history: the recorded `(size, root)` must match what this chain
    /// recomputed. This is how recovery and replication followers
    /// refuse forged or forked histories.
    ///
    /// # Errors
    ///
    /// [`AuditError::Divergence`] on any mismatch.
    pub fn check_checkpoint(&self, size: u64, root: &Hash) -> Result<(), AuditError> {
        if size > self.size() {
            return Err(AuditError::Divergence {
                size,
                what: "checkpoint claims entries the chain never saw",
            });
        }
        if self.root_of(size) != *root {
            return Err(AuditError::Divergence {
                size,
                what: "checkpoint root does not match recomputed history",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_crypto::rng::{Rng, XorShift64};

    // ---- Reference oracles: RFC 6962 straight from a leaf slice, with
    // no stored subtrees. Every chain-served root and proof must equal
    // these.

    /// Merkle root of `leaves[lo..hi)` (RFC 6962 `MTH`).
    fn subtree_root(leaves: &[Hash], lo: usize, hi: usize) -> Hash {
        if hi - lo == 1 {
            return leaves[lo];
        }
        let k = split_point((hi - lo) as u64) as usize;
        node_hash(
            &subtree_root(leaves, lo, lo + k),
            &subtree_root(leaves, lo + k, hi),
        )
    }

    /// Merkle root over the first `size` of `leaves`.
    fn merkle_root(leaves: &[Hash], size: usize) -> Hash {
        if size == 0 {
            return sha256(b"");
        }
        subtree_root(leaves, 0, size)
    }

    fn subtree_path(leaves: &[Hash], index: usize, lo: usize, hi: usize, out: &mut Vec<Hash>) {
        if hi - lo == 1 {
            return;
        }
        let k = split_point((hi - lo) as u64) as usize;
        if index < lo + k {
            subtree_path(leaves, index, lo, lo + k, out);
            out.push(subtree_root(leaves, lo + k, hi));
        } else {
            subtree_path(leaves, index, lo + k, hi, out);
            out.push(subtree_root(leaves, lo, lo + k));
        }
    }

    /// Inclusion path (`PATH`) for `leaves[index]` in the tree over the
    /// first `size` leaves.
    fn inclusion_path(leaves: &[Hash], index: usize, size: usize) -> Vec<Hash> {
        let mut out = Vec::new();
        subtree_path(leaves, index, 0, size, &mut out);
        out
    }

    fn subproof(leaves: &[Hash], m: usize, lo: usize, hi: usize, whole: bool, out: &mut Vec<Hash>) {
        let n = hi - lo;
        if m == n {
            if !whole {
                out.push(subtree_root(leaves, lo, hi));
            }
            return;
        }
        let k = split_point(n as u64) as usize;
        if m <= k {
            subproof(leaves, m, lo, lo + k, whole, out);
            out.push(subtree_root(leaves, lo + k, hi));
        } else {
            subproof(leaves, m - k, lo + k, hi, false, out);
            out.push(subtree_root(leaves, lo, lo + k));
        }
    }

    /// Consistency proof (`PROOF`) from the first `old` leaves to the
    /// first `new` leaves.
    fn consistency_path(leaves: &[Hash], old: usize, new: usize) -> Vec<Hash> {
        let mut out = Vec::new();
        if old < new {
            subproof(leaves, old, 0, new, true, &mut out);
        }
        out
    }

    fn leaves(n: usize) -> Vec<Hash> {
        (0..n).map(|i| leaf_hash(&[i as u8, 0xA5])).collect()
    }

    fn chain_of(n: usize) -> AuditChain {
        let mut c = AuditChain::new();
        for i in 0..n {
            c.append(&[i as u8, 0xA5]);
        }
        c
    }

    #[test]
    fn empty_root_is_sha256_of_empty_string() {
        // RFC 6962: MTH({}) = SHA-256().
        let expect = [
            0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f,
            0xb9, 0x24, 0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b, 0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b,
            0x78, 0x52, 0xb8, 0x55,
        ];
        assert_eq!(merkle_root(&[], 0), expect);
        assert_eq!(AuditChain::new().root(), expect);
        assert_eq!(AuditChain::new().root_at(0).unwrap(), expect);
    }

    #[test]
    fn chain_head_depends_on_every_entry_and_its_order() {
        let a = chain_of(5);
        let mut reordered = AuditChain::new();
        for i in [1usize, 0, 2, 3, 4] {
            reordered.append(&[i as u8, 0xA5]);
        }
        assert_ne!(a.head(), reordered.head());
        let mut dropped = AuditChain::new();
        for i in [0usize, 1, 2, 3] {
            dropped.append(&[i as u8, 0xA5]);
        }
        assert_ne!(a.head(), dropped.head());
    }

    #[test]
    fn chain_step_known_answer() {
        // head_1 = SHA-256(0^32 ‖ 0u64_be ‖ SHA-256(0x00 ‖ "abc")),
        // computed with an independent SHA-256 implementation.
        let expect = [
            0xf6, 0x22, 0x65, 0x41, 0x8b, 0x26, 0xde, 0xd0, 0x3d, 0x0d, 0xb9, 0x42, 0x00, 0xa3,
            0x71, 0x9c, 0x47, 0x85, 0x96, 0x12, 0x14, 0xcb, 0xd7, 0x27, 0x2f, 0x71, 0xa5, 0x37,
            0x6f, 0xe5, 0x70, 0x7f,
        ];
        let leaf = leaf_hash(b"abc");
        assert_eq!(chain_step(&[0u8; HASH_LEN], 0, &leaf), expect);
        let mut c = AuditChain::new();
        c.append(b"abc");
        assert_eq!(c.head(), expect);
        assert_eq!(c.leaves(), &[leaf]);
        // The second step chains the first head and the next sequence
        // number over the next leaf.
        c.append(b"de");
        assert_eq!(c.head(), chain_step(&expect, 1, &leaf_hash(b"de")));
    }

    #[test]
    fn inclusion_proofs_verify_for_every_leaf_at_every_size() {
        for n in 1..=20u64 {
            let c = chain_of(n as usize);
            for size in 1..=n {
                let root = c.root_at(size).unwrap();
                for index in 0..size {
                    let p = c.prove_inclusion(index, size).unwrap();
                    assert!(
                        verify_inclusion(&p.leaf, index, size, &p.path, &root),
                        "n={n} size={size} index={index}"
                    );
                    // A wrong leaf, index, or root must fail.
                    let bad = leaf_hash(b"not this one");
                    assert!(!verify_inclusion(&bad, index, size, &p.path, &root));
                    assert!(!verify_inclusion(&p.leaf, index, size, &p.path, &bad));
                    if size > 1 {
                        let wrong = (index + 1) % size;
                        assert!(
                            !verify_inclusion(&p.leaf, wrong, size, &p.path, &root),
                            "n={n} size={size} index={index}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn consistency_proofs_verify_for_every_size_pair() {
        let n = 20u64;
        let c = chain_of(n as usize);
        for old in 1..=n {
            let old_root = c.root_at(old).unwrap();
            for new in old..=n {
                let new_root = c.root_at(new).unwrap();
                let p = c.prove_consistency(old, new).unwrap();
                assert!(
                    verify_consistency(old, new, &p.path, &old_root, &new_root),
                    "old={old} new={new}"
                );
                // A forked old root must fail.
                let fork = leaf_hash(b"forked history");
                if old < new {
                    assert!(!verify_consistency(old, new, &p.path, &fork, &new_root));
                    assert!(!verify_consistency(old, new, &p.path, &old_root, &fork));
                }
            }
        }
    }

    #[test]
    fn consistency_rejects_rewritten_history() {
        // A server that rewrote entry 3 after handing out a size-6 head
        // cannot prove its new head consistent with that old head.
        let honest = chain_of(10);
        let mut forked = AuditChain::new();
        for i in 0..10usize {
            if i == 3 {
                forked.append(b"rewritten verdict");
            } else {
                forked.append(&[i as u8, 0xA5]);
            }
        }
        let old_root = honest.root_at(6).unwrap();
        let p = forked.prove_consistency(6, 10).unwrap();
        assert!(!verify_consistency(
            6,
            10,
            &p.path,
            &old_root,
            &forked.root()
        ));
        // Whereas a history that only *extends* the old head does prove
        // consistency — appends are allowed, rewrites are not.
        let p = honest.prove_consistency(6, 10).unwrap();
        assert!(verify_consistency(
            6,
            10,
            &p.path,
            &old_root,
            &honest.root()
        ));
    }

    #[test]
    fn bad_ranges_are_typed_errors() {
        let c = chain_of(4);
        assert!(matches!(
            c.prove_inclusion(4, 4),
            Err(AuditError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            c.prove_inclusion(0, 9),
            Err(AuditError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            c.prove_consistency(0, 3),
            Err(AuditError::BadRange { .. })
        ));
        assert!(matches!(
            c.prove_consistency(3, 2),
            Err(AuditError::BadRange { .. })
        ));
        assert!(matches!(
            c.prove_consistency(2, 5),
            Err(AuditError::BadRange { .. })
        ));
        assert!(c.root_at(9).is_err());
    }

    #[test]
    fn checkpoint_check_accepts_own_history_and_rejects_forks() {
        let c = chain_of(12);
        for size in 1..=12 {
            let root = c.root_at(size).unwrap();
            c.check_checkpoint(size, &root).unwrap();
        }
        let fork = leaf_hash(b"fork");
        let err = c.check_checkpoint(7, &fork).unwrap_err();
        assert!(matches!(err, AuditError::Divergence { size: 7, .. }));
        let err = c.check_checkpoint(13, &c.root()).unwrap_err();
        assert!(matches!(err, AuditError::Divergence { size: 13, .. }));
    }

    #[test]
    fn signed_tree_head_round_trips_and_binds_all_fields() {
        let key = crate::test_support::auditor_key();
        let c = chain_of(5);
        let sth = SignedTreeHead::sign(c.size(), c.root(), c.head(), key).unwrap();
        assert!(sth.verify(key.public_key()));
        // Any field change invalidates the signature.
        let mut bad = sth.clone();
        bad.size += 1;
        assert!(!bad.verify(key.public_key()));
        let mut bad = sth.clone();
        bad.root[0] ^= 1;
        assert!(!bad.verify(key.public_key()));
        let mut bad = sth.clone();
        bad.chain_head[31] ^= 1;
        assert!(!bad.verify(key.public_key()));
    }

    #[test]
    fn from_parts_round_trips_snapshot_state() {
        let c = chain_of(9);
        let rebuilt = AuditChain::from_parts(c.head(), c.leaves().to_vec());
        assert_eq!(rebuilt, c);
        assert_eq!(rebuilt.root(), c.root());
    }

    /// Sampled positions in `0..n`: both ends, the middle, either side
    /// of the largest power of two below `n`, and `random` LCG picks.
    fn picks(n: u64, random: usize) -> Vec<u64> {
        let mut out = vec![0, n / 2, n - 1];
        if n >= 2 {
            let k = split_point(n);
            out.extend([k - 1, k.min(n - 1)]);
        }
        let mut x = n;
        for _ in 0..random {
            x = (x.wrapping_mul(48_271) + 11) % 2_147_483_647;
            out.push(x % n);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Asserts that every chain serves, for the tree of `size` leaves,
    /// the oracle's root and the oracle's inclusion and consistency
    /// proofs at the sampled positions, and that those proofs verify
    /// offline. The oracle is O(size) per answer, so large trees take
    /// fewer random picks.
    fn assert_serves_oracle(chains: &[&AuditChain], leaves: &[Hash], size: u64) {
        let n = size as usize;
        let root = merkle_root(leaves, n);
        for c in chains {
            assert_eq!(c.root_at(size).unwrap(), root, "root size={size}");
            c.check_checkpoint(size, &root).unwrap();
        }
        let random = if size > 4096 { 0 } else { 3 };
        for index in picks(size, random) {
            let path = inclusion_path(leaves, index as usize, n);
            assert!(verify_inclusion(
                &leaves[index as usize],
                index,
                size,
                &path,
                &root
            ));
            for c in chains {
                let p = c.prove_inclusion(index, size).unwrap();
                assert_eq!(p.leaf, leaves[index as usize]);
                assert_eq!(p.path, path, "inclusion size={size} index={index}");
            }
            let old = index + 1;
            let path = consistency_path(leaves, old as usize, n);
            let old_root = merkle_root(leaves, old as usize);
            assert!(verify_consistency(old, size, &path, &old_root, &root));
            for c in chains {
                let p = c.prove_consistency(old, size).unwrap();
                assert_eq!(p.path, path, "consistency old={old} new={size}");
            }
        }
    }

    #[test]
    fn stored_subtrees_serve_the_oracle_at_every_small_size() {
        let mut c = AuditChain::new();
        for size in 1..=300u64 {
            c.append(&[size as u8, (size >> 8) as u8, 0x5A]);
            let rebuilt = AuditChain::from_parts(c.head(), c.leaves().to_vec());
            assert_eq!(rebuilt, c, "size={size}");
            assert_serves_oracle(&[&c, &rebuilt], c.leaves(), size);
        }
    }

    #[test]
    fn stored_subtrees_serve_the_oracle_near_powers_of_two() {
        let top = (1u64 << 16) + 1;
        let c = chain_of(top as usize);
        let rebuilt = AuditChain::from_parts(c.head(), c.leaves().to_vec());
        assert_eq!(rebuilt, c);
        let mut sizes = vec![top - 2, top - 1, top];
        for k in [9u32, 12] {
            sizes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for size in sizes {
            // Historical sizes are served from the top-size chain.
            assert_serves_oracle(&[&c, &rebuilt], c.leaves(), size);
        }
        // A chain rebuilt at exactly 2^16 leaves (a perfect tree).
        let perfect = AuditChain::from_parts(c.head(), c.leaves()[..1 << 16].to_vec());
        assert_eq!(perfect.root(), c.root_at(1 << 16).unwrap());
        assert_eq!(perfect.levels.len(), 16);
    }

    #[test]
    fn rollback_restores_the_exact_earlier_chain() {
        for (at, grow) in [(0usize, 5usize), (1, 1), (7, 9), (8, 8), (13, 50), (64, 1)] {
            let mut c = chain_of(at);
            let mark = c.mark();
            for i in 0..grow {
                c.append(&[0xEE, i as u8]);
            }
            c.rollback(mark);
            assert_eq!(c, chain_of(at), "at={at} grow={grow}");
            // And it keeps growing exactly like a chain that never forked.
            c.append(&[at as u8, 0xA5]);
            assert_eq!(c, chain_of(at + 1), "at={at} grow={grow}");
        }
    }

    #[test]
    fn golden_chain_over_seeded_history() {
        // Pins the head and root every earlier build produced for one
        // seeded history, so a hashing change that alters any digest,
        // on any CPU, fails here rather than orphaning stored journals
        // and signed checkpoints.
        let mut rng = XorShift64::seed_from_u64(0x601D);
        let mut c = AuditChain::new();
        let mut payload = Vec::new();
        for _ in 0..1_000 {
            payload.resize((rng.next_u64() % 4_097) as usize, 0);
            rng.fill_bytes(&mut payload);
            c.append(&payload);
        }
        let hex = |h: Hash| h.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(c.head()),
            "ce50ff6313712d8a26a3e48476d4bb8975d3083a3726b2812db2abd9a0971c5b"
        );
        assert_eq!(
            hex(c.root()),
            "28351f2b6530b429b3eb4062f2e327cc54582471ecc4af36721af073b9173f88"
        );
    }

    #[test]
    fn subtree_helpers_match_direct_leaves() {
        let l = leaves(7);
        let c = chain_of(7);
        assert_eq!(c.leaves(), l.as_slice());
        assert_eq!(merkle_root(&l, 7), c.root());
    }
}
