//! Crash-safe write-ahead journal for the auditor's durable state.
//!
//! The networked auditor (PR 3) keeps every registration, zone, nonce,
//! and verified PoA in memory; one crash silently destroys the audit
//! trail the whole protocol exists to produce. This module gives the
//! auditor a durable append-only journal with bounded-cost recovery:
//!
//! ```text
//! | magic "ALDJ" u32 | version u8 | base u64 | crc32 u32 |  header (17 bytes)
//! | len u32 | crc32 u32 | payload (len bytes) |              record frame
//! | len u32 | crc32 u32 | payload (len bytes) |
//! ...
//! ```
//!
//! The header's `base` is the logical offset of the image's first byte
//! in the journal's lifetime stream: 0 for an image that was never
//! compacted, and the old durable end for one [`Journal::compact`]
//! wrote. Every position — a journal's durable end, a follower's acked
//! offset — is that base plus bytes into the image, so it survives a
//! restart. The header's CRC covers magic, version and base, so rot in
//! the base is refused like rot in a frame rather than read as another
//! offset. Version 3 adds [`Record::Purge`] and drops the TEE
//! countersignature field from [`Record::AuditCheckpoint`]; an image of
//! version 1 (5-byte header, no base) or 2 is refused as an unsupported
//! version.
//!
//! The CRC covers the payload only; the payload's first byte is a record
//! tag (see [`Record`]) followed by a body in the wire codec. Records are
//! written with a single [`StorageBackend::append`] call each, so a crash
//! can only ever leave a *torn tail*: a truncated final frame. Recovery
//! distinguishes the two failure shapes the paper's threat model cares
//! about:
//!
//! - **Torn tail** (truncated final record): the crash interrupted the
//!   last write. Recovery stops cleanly at the last whole record, logs
//!   the event, and truncates the tail so the journal is appendable
//!   again.
//! - **Mid-journal corruption** (CRC mismatch, bad length, bad header):
//!   bytes *behind* the durable horizon changed — storage rot or
//!   tampering. Recovery refuses with a typed [`JournalError::Corrupt`];
//!   silently skipping records would forge history.
//!
//! One walker is the only reader of this history: it checks each
//! frame's CRC, decodes its record, moves the audit chain by the one
//! chain rule and hands the record on to be applied, all in one pass.
//! Recovery ([`Auditor::recover`](crate::Auditor::recover)) and every
//! replication follower path (see [`crate::repl`]) read images through
//! it, and differ only in what they keep: recovery refuses any damage
//! but a torn final frame and writes nothing to an image it refuses,
//! while a follower keeps the longest prefix that verifies.
//!
//! Compaction bounds recovery cost: [`Journal::compact`] atomically
//! replaces the whole journal with a fresh image of ordinary frames —
//! the auditor writes one [`Record::Snapshot`] (its audit section)
//! followed by one record per piece of state — after which appends
//! resume.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::audit::{AuditChain, ChainMark};
use crate::wire::codec::{Reader, Writer};
use crate::{DroneId, ProtocolError};

/// Journal file magic: `"ALDJ"`.
pub const JOURNAL_MAGIC: u32 = 0x414C_444A;
/// Current journal format version.
pub const JOURNAL_VERSION: u8 = 3;
/// Header length in bytes (magic + version + base + CRC).
pub const HEADER_LEN: usize = 17;
/// Frame overhead per record (length + CRC).
pub const FRAME_OVERHEAD: usize = 8;
/// Upper bound on a single record payload (matches the wire codec cap).
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

// ------------------------------------------------------------------ errors

/// Typed journal failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O failure in the storage backend.
    Io(String),
    /// The backend has no space left (injected or real `ENOSPC`).
    DiskFull,
    /// Bytes behind the durable horizon are damaged: a record whose
    /// frame is complete fails its CRC, declares an impossible length,
    /// or the file header itself is wrong.
    Corrupt {
        /// Byte offset of the damaged frame (0 for the header).
        offset: usize,
        /// What recovery found there.
        reason: &'static str,
    },
    /// A record payload decoded to something the auditor cannot apply.
    Malformed(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::DiskFull => write!(f, "journal storage full"),
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            JournalError::Malformed(what) => write!(f, "malformed journal record: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for ProtocolError {
    fn from(e: JournalError) -> Self {
        ProtocolError::Storage(e.to_string())
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::StorageFull {
            JournalError::DiskFull
        } else {
            JournalError::Io(e.to_string())
        }
    }
}

// ----------------------------------------------------------------- backend

/// Where journal bytes live. Implementations take `&self`; they are the
/// single writer for their underlying store and serialize internally.
pub trait StorageBackend: Send + Sync {
    /// Reads the entire journal image (empty for a fresh store).
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn read(&self) -> Result<Vec<u8>, JournalError>;

    /// Appends `bytes` atomically-enough: a crash mid-append may leave a
    /// prefix of `bytes` (a torn tail) but never interleaved garbage.
    ///
    /// # Errors
    ///
    /// Backend I/O failures, including [`JournalError::DiskFull`].
    fn append(&self, bytes: &[u8]) -> Result<(), JournalError>;

    /// Atomically replaces the whole journal image (compaction). After a
    /// crash the store holds either the old image or the new one, never
    /// a mix.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn replace(&self, bytes: &[u8]) -> Result<(), JournalError>;
}

/// A real filesystem backend. Appends go through `O_APPEND`, one
/// `write_all` per record; nothing is fsynced (`flush` on a `File` is a
/// no-op), so an appended record survives process death, not power
/// loss. [`replace`](StorageBackend::replace) writes a sibling temp
/// file and renames it over the journal, the standard atomic-swap
/// idiom.
#[derive(Debug)]
pub struct FsBackend {
    path: PathBuf,
    /// Serializes writers; the fs itself orders appends, but the tmp
    /// path used by `replace` must not race a concurrent `replace`.
    lock: Mutex<()>,
}

impl FsBackend {
    /// A backend at `path`. The file need not exist yet.
    pub fn new(path: impl AsRef<Path>) -> Self {
        FsBackend {
            path: path.as_ref().to_path_buf(),
            lock: Mutex::new(()),
        }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageBackend for FsBackend {
    fn read(&self) -> Result<Vec<u8>, JournalError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&self, bytes: &[u8]) -> Result<(), JournalError> {
        // A poisoned lock only means another writer panicked mid-append;
        // the fs state is still a clean prefix, so keep going.
        let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(bytes)?;
        f.flush()?;
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

/// Knobs for the in-memory backend's injected faults (driven by the
/// chaos plane; every field optional and one-shot where noted).
#[derive(Debug, Default)]
struct MemFaults {
    /// Total byte budget; appends that would exceed it fail with
    /// [`JournalError::DiskFull`] without writing anything.
    capacity: Option<usize>,
    /// One-shot torn write: the next append persists only this many
    /// bytes of the record, then reports an I/O error (the "crash
    /// during write" shape).
    tear_next: Option<usize>,
    /// One-shot hard failure for the next append.
    fail_next: bool,
}

/// An in-memory backend with deterministic fault injection, used by the
/// chaos campaign and the crash-at-every-offset property test.
#[derive(Debug, Default)]
pub struct MemBackend {
    data: Mutex<Vec<u8>>,
    faults: Mutex<MemFaults>,
}

impl MemBackend {
    /// An empty store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// A store pre-seeded with a journal image (e.g. a truncated copy of
    /// another backend's bytes, to model a crash at that offset).
    pub fn with_bytes(bytes: Vec<u8>) -> Self {
        MemBackend {
            data: Mutex::new(bytes),
            faults: Mutex::new(MemFaults::default()),
        }
    }

    /// A copy of the current journal image.
    pub fn bytes(&self) -> Vec<u8> {
        self.data.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Caps the store at `capacity` total bytes; appends beyond it fail
    /// with [`JournalError::DiskFull`].
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .capacity = capacity;
    }

    /// Arms a one-shot torn write: the next append persists only `keep`
    /// bytes and reports an error, modelling a crash mid-write.
    pub fn tear_next_append(&self, keep: usize) {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .tear_next = Some(keep);
    }

    /// Arms a one-shot append failure that persists nothing.
    pub fn fail_next_append(&self) {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .fail_next = true;
    }

    /// Flips the bits selected by `mask` at `offset`, modelling storage
    /// rot behind the durable horizon. Out-of-range offsets are ignored.
    pub fn flip_bits(&self, offset: usize, mask: u8) {
        let mut data = self.data.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(b) = data.get_mut(offset) {
            *b ^= mask;
        }
    }

    /// Truncates the image to `len` bytes, modelling a crash that lost
    /// the tail.
    pub fn truncate(&self, len: usize) {
        let mut data = self.data.lock().unwrap_or_else(|p| p.into_inner());
        data.truncate(len);
    }

    /// Current image length.
    pub fn len(&self) -> usize {
        self.data.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_empty()
    }
}

impl StorageBackend for MemBackend {
    fn read(&self) -> Result<Vec<u8>, JournalError> {
        Ok(self.bytes())
    }

    fn append(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let mut faults = self.faults.lock().unwrap_or_else(|p| p.into_inner());
        if faults.fail_next {
            faults.fail_next = false;
            return Err(JournalError::Io("injected append failure".into()));
        }
        if let Some(keep) = faults.tear_next.take() {
            let keep = keep.min(bytes.len());
            drop(faults);
            let mut data = self.data.lock().unwrap_or_else(|p| p.into_inner());
            data.extend_from_slice(&bytes[..keep]);
            return Err(JournalError::Io("injected torn write".into()));
        }
        let capacity = faults.capacity;
        drop(faults);
        let mut data = self.data.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(cap) = capacity {
            if data.len() + bytes.len() > cap {
                return Err(JournalError::DiskFull);
            }
        }
        data.extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let capacity = self
            .faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .capacity;
        if let Some(cap) = capacity {
            if bytes.len() > cap {
                return Err(JournalError::DiskFull);
            }
        }
        let mut data = self.data.lock().unwrap_or_else(|p| p.into_inner());
        *data = bytes.to_vec();
        Ok(())
    }
}

// ------------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum of every
/// header and frame: a PCLMULQDQ folding kernel where the CPU has one,
/// slicing-by-8 elsewhere (see [`alidrone_crypto::crc32`]).
pub use alidrone_crypto::crc32::crc32;

// ----------------------------------------------------------------- records

/// Record payload tags.
const TAG_REGISTER_DRONE: u8 = 1;
const TAG_REGISTER_ZONE: u8 = 2;
const TAG_NONCE_USED: u8 = 3;
const TAG_POA_STORED: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;
const TAG_EPOCH: u8 = 6;
const TAG_AUDIT_CHECKPOINT: u8 = 7;
const TAG_PURGE: u8 = 8;

/// One durable state mutation. Records carry the ids the live auditor
/// assigned, so replay reconstructs *exactly* the same registries.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A drone registration: the assigned id plus `D⁺` and `T⁺` as
    /// big-endian (modulus, exponent) byte strings.
    RegisterDrone {
        /// Assigned drone id.
        id: u64,
        /// Operator public key modulus.
        op_modulus: Vec<u8>,
        /// Operator public key exponent.
        op_exponent: Vec<u8>,
        /// TEE public key modulus.
        tee_modulus: Vec<u8>,
        /// TEE public key exponent.
        tee_exponent: Vec<u8>,
    },
    /// A circular zone registration.
    RegisterZone {
        /// Assigned zone id.
        id: u64,
        /// Center latitude, degrees.
        lat_deg: f64,
        /// Center longitude, degrees.
        lon_deg: f64,
        /// Radius, meters.
        radius_m: f64,
    },
    /// A query nonce was consumed (anti-replay state is durable: losing
    /// it would reopen query replay after a crash).
    NonceUsed {
        /// The querying drone.
        drone: u64,
        /// The consumed nonce.
        nonce: [u8; 16],
    },
    /// A verified PoA was retained, with the verdict it received.
    PoaStored {
        /// Submitting drone.
        drone: u64,
        /// Claimed window start, seconds.
        window_start: f64,
        /// Claimed window end, seconds.
        window_end: f64,
        /// `ProofOfAlibi::to_bytes`.
        poa: Vec<u8>,
        /// `wire`-encoded verdict bytes.
        verdict: Vec<u8>,
        /// Storage time, seconds.
        stored_at: f64,
    },
    /// The head of a compacted image: the audit section and the count
    /// of state records that follow it (see
    /// [`Auditor::compact_journal`](crate::Auditor::compact_journal)).
    /// Written by compaction as the first record of a fresh image.
    Snapshot(Vec<u8>),
    /// A leadership-epoch boundary: every record *after* this one was
    /// written by the primary holding the named epoch. Promotion appends
    /// one (see [`crate::repl`]), so replicated logs carry the fencing
    /// history and replay it into [`Auditor::current_epoch`](crate::Auditor::current_epoch).
    Epoch(u64),
    /// A Merkle checkpoint over the audit chain (see [`crate::audit`]):
    /// the tree size and root after the last audited record, signed by
    /// the auditor key. Replay and replication followers recompute the
    /// root and refuse the log on mismatch — this is the
    /// tamper-evidence anchor.
    AuditCheckpoint {
        /// Audit entries covered (Merkle tree size).
        size: u64,
        /// Merkle root over those entries.
        root: [u8; 32],
        /// Auditor RSA-SHA256 signature over the STH signing bytes.
        sig: Vec<u8>,
    },
    /// Retention (paper §IV-C2): every retained PoA stored before
    /// `before` is dropped. The audit leaves of the dropped verdicts
    /// stay, so their inclusion proofs still verify.
    Purge {
        /// Cutoff storage time, seconds.
        before: f64,
    },
}

impl Record {
    /// Whether this record is a link in the tamper-evident audit chain
    /// (see [`crate::audit`]). Mutation records are; `Snapshot`/`Epoch`
    /// bookkeeping and the checkpoints themselves are not — compaction
    /// re-journals those, so chaining them would fork the chain across
    /// a compaction boundary.
    pub fn is_audited(&self) -> bool {
        matches!(
            self,
            Record::RegisterDrone { .. }
                | Record::RegisterZone { .. }
                | Record::NonceUsed { .. }
                | Record::PoaStored { .. }
                | Record::Purge { .. }
        )
    }

    /// Encodes the payload (tag + body).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Record::RegisterDrone {
                id,
                op_modulus,
                op_exponent,
                tee_modulus,
                tee_exponent,
            } => {
                w.put_u8(TAG_REGISTER_DRONE)
                    .put_u64(*id)
                    .put_bytes(op_modulus)
                    .put_bytes(op_exponent)
                    .put_bytes(tee_modulus)
                    .put_bytes(tee_exponent);
            }
            Record::RegisterZone {
                id,
                lat_deg,
                lon_deg,
                radius_m,
            } => {
                w.put_u8(TAG_REGISTER_ZONE)
                    .put_u64(*id)
                    .put_f64(*lat_deg)
                    .put_f64(*lon_deg)
                    .put_f64(*radius_m);
            }
            Record::NonceUsed { drone, nonce } => {
                w.put_u8(TAG_NONCE_USED).put_u64(*drone);
                for b in nonce {
                    w.put_u8(*b);
                }
            }
            Record::PoaStored {
                drone,
                window_start,
                window_end,
                poa,
                verdict,
                stored_at,
            } => {
                w.put_u8(TAG_POA_STORED)
                    .put_u64(*drone)
                    .put_f64(*window_start)
                    .put_f64(*window_end)
                    .put_bytes(poa)
                    .put_bytes(verdict)
                    .put_f64(*stored_at);
            }
            Record::Snapshot(bytes) => {
                w.put_u8(TAG_SNAPSHOT).put_bytes(bytes);
            }
            Record::Epoch(epoch) => {
                w.put_u8(TAG_EPOCH).put_u64(*epoch);
            }
            Record::AuditCheckpoint { size, root, sig } => {
                w.put_u8(TAG_AUDIT_CHECKPOINT).put_u64(*size);
                for b in root {
                    w.put_u8(*b);
                }
                w.put_bytes(sig);
            }
            Record::Purge { before } => {
                w.put_u8(TAG_PURGE).put_f64(*before);
            }
        }
        w.into_bytes()
    }

    /// Decodes a payload.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] for unknown tags or truncated bodies.
    pub fn from_payload(payload: &[u8]) -> Result<Record, JournalError> {
        let mut r = Reader::new(payload);
        let mal = |_| JournalError::Malformed("truncated record body");
        let tag = r.get_u8().map_err(mal)?;
        let rec = match tag {
            TAG_REGISTER_DRONE => Record::RegisterDrone {
                id: r.get_u64().map_err(mal)?,
                op_modulus: r.get_bytes().map_err(mal)?.to_vec(),
                op_exponent: r.get_bytes().map_err(mal)?.to_vec(),
                tee_modulus: r.get_bytes().map_err(mal)?.to_vec(),
                tee_exponent: r.get_bytes().map_err(mal)?.to_vec(),
            },
            TAG_REGISTER_ZONE => Record::RegisterZone {
                id: r.get_u64().map_err(mal)?,
                lat_deg: r.get_f64().map_err(mal)?,
                lon_deg: r.get_f64().map_err(mal)?,
                radius_m: r.get_f64().map_err(mal)?,
            },
            TAG_NONCE_USED => Record::NonceUsed {
                drone: r.get_u64().map_err(mal)?,
                nonce: r.get_array().map_err(mal)?,
            },
            TAG_POA_STORED => Record::PoaStored {
                drone: r.get_u64().map_err(mal)?,
                window_start: r.get_f64().map_err(mal)?,
                window_end: r.get_f64().map_err(mal)?,
                poa: r.get_bytes().map_err(mal)?.to_vec(),
                verdict: r.get_bytes().map_err(mal)?.to_vec(),
                stored_at: r.get_f64().map_err(mal)?,
            },
            TAG_SNAPSHOT => Record::Snapshot(r.get_bytes().map_err(mal)?.to_vec()),
            TAG_EPOCH => Record::Epoch(r.get_u64().map_err(mal)?),
            TAG_AUDIT_CHECKPOINT => Record::AuditCheckpoint {
                size: r.get_u64().map_err(mal)?,
                root: r.get_array().map_err(mal)?,
                sig: r.get_bytes().map_err(mal)?.to_vec(),
            },
            TAG_PURGE => Record::Purge {
                before: r.get_f64().map_err(mal)?,
            },
            _ => return Err(JournalError::Malformed("unknown record tag")),
        };
        r.finish()
            .map_err(|_| JournalError::Malformed("trailing record bytes"))?;
        Ok(rec)
    }
}

// ------------------------------------------------------------------ frames

/// The header of an image whose first byte sits at logical offset
/// `base`: `magic | version | base | crc32` of the fields before it.
fn header(base: u64) -> [u8; HEADER_LEN] {
    let mut header = [0; HEADER_LEN];
    header[..4].copy_from_slice(&JOURNAL_MAGIC.to_be_bytes());
    header[4] = JOURNAL_VERSION;
    header[5..13].copy_from_slice(&base.to_be_bytes());
    let crc = crc32(&header[..13]);
    header[13..].copy_from_slice(&crc.to_be_bytes());
    header
}

/// The logical base an image's header records (0 for an empty image,
/// which has no header yet).
///
/// # Errors
///
/// [`FrameError::Corrupt`] for a wrong magic, version or header CRC,
/// and [`FrameError::Torn`] for any other header cut short — a prefix
/// of a valid one, as a crash leaves it.
pub(crate) fn image_base(image: &[u8]) -> Result<u64, FrameError> {
    let mut base = [0; 8];
    if let Some(bytes) = image.get(5..13) {
        base.copy_from_slice(bytes);
    }
    let base = u64::from_be_bytes(base);
    // Compare with the header this base would get: past the base, only
    // the CRC can differ.
    let held = &image[..image.len().min(HEADER_LEN)];
    match held.iter().zip(header(base)).position(|(a, b)| *a != b) {
        Some(0..=3) => Err(FrameError::Corrupt(0, "bad magic")),
        Some(4) => Err(FrameError::Corrupt(4, "unsupported version")),
        _ if held.is_empty() => Ok(0),
        _ if held.len() < HEADER_LEN => Err(FrameError::Torn(0)),
        Some(_) => Err(FrameError::Corrupt(13, "header crc mismatch")),
        // No journal lives that long: refusing such a base keeps every
        // `base + length` an offset is built from clear of overflow.
        None if base > u64::MAX / 2 => Err(FrameError::Corrupt(5, "impossible base")),
        None => Ok(base),
    }
}

/// Appends one `len | crc | payload` frame to `out`, refusing (as
/// [`JournalError::Malformed`]) an empty or oversized payload, which
/// [`Frames`] would read back as corrupt.
fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), JournalError> {
    if payload.is_empty() || payload.len() > MAX_RECORD_LEN {
        return Err(JournalError::Malformed("record exceeds frame length cap"));
    }
    out.reserve(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Where and why a [`Frames`] walk stopped short: the two shapes
/// damage takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// A final frame (or header) at this offset is cut short: a crash's
    /// torn write.
    Torn(usize),
    /// A complete frame or header at this offset is wrong: an
    /// impossible length, a CRC mismatch ([`Frame::checked`]), or a
    /// header's wrong magic, version or base.
    Corrupt(usize, &'static str),
}

impl FrameError {
    /// What the walk found, for a typed refusal.
    pub(crate) fn reason(&self) -> &'static str {
        match *self {
            FrameError::Torn(_) => "torn frame",
            FrameError::Corrupt(_, reason) => reason,
        }
    }
}

/// One whole frame from [`Frames`], borrowed from the walked bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame<'a> {
    /// Offset of the frame's length field in the walked bytes.
    offset: usize,
    /// The CRC the frame declares.
    crc: u32,
    /// The payload (tag + body), unchecked against `crc`.
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Offset just past this frame in the walked bytes.
    pub(crate) fn end(&self) -> usize {
        self.offset + FRAME_OVERHEAD + self.payload.len()
    }

    /// The payload, once it matches the declared CRC.
    ///
    /// # Errors
    ///
    /// [`FrameError::Corrupt`] on a mismatch.
    pub(crate) fn checked(&self) -> Result<&'a [u8], FrameError> {
        if crc32(self.payload) == self.crc {
            Ok(self.payload)
        } else {
            Err(FrameError::Corrupt(self.offset, "crc mismatch"))
        }
    }
}

/// The one reader of the journal's byte layout: yields each whole frame
/// of an image (after its header) or of a bare tail, and ends at the
/// first error, yielded once. It allocates nothing and checks no CRC
/// ([`Frame::checked`] is the caller's step), so counting frames reads
/// only their lengths.
#[derive(Debug, Clone)]
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    /// Offset of the next frame; `None` once the walk has ended.
    at: Option<usize>,
    /// `true` while the image header is still to be checked.
    header: bool,
}

impl<'a> Frames<'a> {
    /// Walks a whole image: its header, then its frames. An empty image
    /// holds no frames.
    pub(crate) fn image(bytes: &'a [u8]) -> Frames<'a> {
        Frames {
            bytes,
            at: Some(0),
            header: true,
        }
    }

    /// Walks bare frames: journal bytes that start after the header.
    pub(crate) fn tail(bytes: &'a [u8]) -> Frames<'a> {
        Frames {
            header: false,
            ..Frames::image(bytes)
        }
    }

    /// Reads the frame at `offset` (or after the header, while that is
    /// unchecked); `None` at the end of the bytes.
    fn read(&mut self, mut offset: usize) -> Result<Option<Frame<'a>>, FrameError> {
        if std::mem::take(&mut self.header) && !self.bytes.is_empty() {
            image_base(self.bytes)?;
            offset = HEADER_LEN;
        }
        let rest = &self.bytes[offset..];
        if rest.is_empty() {
            return Ok(None);
        }
        let head = rest.get(..FRAME_OVERHEAD).ok_or(FrameError::Torn(offset))?;
        let len = u32::from_be_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len == 0 || len > MAX_RECORD_LEN {
            // A length this wrong cannot be a clean truncation: the
            // length bytes themselves were fully written.
            return Err(FrameError::Corrupt(offset, "impossible record length"));
        }
        let payload = rest
            .get(FRAME_OVERHEAD..FRAME_OVERHEAD + len)
            .ok_or(FrameError::Torn(offset))?;
        self.at = Some(offset + FRAME_OVERHEAD + len);
        Ok(Some(Frame {
            offset,
            crc: u32::from_be_bytes([head[4], head[5], head[6], head[7]]),
            payload,
        }))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        let offset = self.at.take()?;
        self.read(offset).transpose()
    }
}

// -------------------------------------------------------------------- walk

/// `"ALD3"`: a [`Record::Snapshot`]'s audit section, whose state
/// records follow it as frames. The auditor's compaction writes it, and
/// [`advance_chain`] is its one reader.
pub(crate) const SNAPSHOT_MAGIC: u32 = 0x414C_4433;
/// `"ALD2"`: an earlier build's single-frame snapshot, refused.
const SNAPSHOT_MAGIC_V2: u32 = 0x414C_4432;

/// How [`advance_chain`] moved a chain for one record.
pub(crate) enum Step {
    /// An audited record extended it, a checkpoint matched it, or the
    /// record leaves it alone; it now ends at this mark.
    Chain(ChainMark),
    /// One of a snapshot's state records: the chain is unchanged.
    State,
    /// A snapshot reseeded it from its audit section.
    Reseed {
        /// The chain the snapshot replaced.
        replaced: AuditChain,
        /// Tree size covered by the last checkpoint before compaction.
        checkpoint_size: u64,
        /// Latest `PoaStored` leaf index per drone.
        verdict_leaves: BTreeMap<DroneId, u64>,
    },
}

/// The one rule for how a journal record (decoded from `payload`)
/// moves an audit chain, shared by [`walk`] and the auditor's live
/// appends: an audited record appends its payload, an
/// [`Record::AuditCheckpoint`] must match the recomputed root, and a
/// [`Record::Snapshot`] reseeds the chain from its audit section and
/// opens a `run` of that many state records still to come. Each record
/// of the run must be of an audited kind, and leaves the chain alone.
/// On error — [`ProtocolError::AuditDivergence`] for a contradicting
/// checkpoint, [`ProtocolError::Malformed`] for a bad snapshot or a
/// record kind that interrupts a run — the chain is unchanged.
pub(crate) fn advance_chain(
    chain: &mut AuditChain,
    run: &mut u64,
    record: &Record,
    payload: &[u8],
) -> Result<Step, ProtocolError> {
    if *run > 0 {
        if !record.is_audited() {
            return Err(ProtocolError::Malformed(
                "snapshot state records interrupted",
            ));
        }
        *run -= 1;
        return Ok(Step::State);
    }
    match record {
        // Any rewrite, drop, or reorder of chained history lands here.
        Record::AuditCheckpoint { size, root, .. } => chain
            .check_checkpoint(*size, root)
            .map_err(|_| ProtocolError::AuditDivergence { size: *size })?,
        Record::Snapshot(body) => {
            let mut r = Reader::new(body);
            match r.get_u32()? {
                SNAPSHOT_MAGIC => {}
                SNAPSHOT_MAGIC_V2 => {
                    return Err(ProtocolError::Malformed(
                        "ALD2 snapshot from an earlier build",
                    ))
                }
                _ => return Err(ProtocolError::Malformed("snapshot magic")),
            }
            let state_records = r.get_u64()?;
            let head = r.get_array()?;
            let checkpoint_size = r.get_u64()?;
            let n = r.get_u32()?;
            let leaves = (0..n)
                .map(|_| r.get_array())
                .collect::<Result<Vec<_>, _>>()?;
            let n = r.get_u32()?;
            let verdict_leaves = (0..n)
                .map(|_| Ok((DroneId::new(r.get_u64()?), r.get_u64()?)))
                .collect::<Result<_, ProtocolError>>()?;
            r.finish()?;
            *run = state_records;
            let restored = AuditChain::from_parts(head, leaves);
            return Ok(Step::Reseed {
                replaced: std::mem::replace(chain, restored),
                checkpoint_size,
                verdict_leaves,
            });
        }
        _ if record.is_audited() => chain.append(payload),
        _ => {}
    }
    Ok(Step::Chain(chain.mark()))
}

/// What [`walk`] found: the longest prefix of the walked bytes whose
/// records all verify and which ends outside any snapshot's state run.
/// Compaction replaces an image whole, so no honest image ends inside a
/// run.
#[derive(Default)]
pub(crate) struct Walk {
    /// Bytes of the prefix, from the start of the walked bytes (0 when
    /// it holds no record).
    pub(crate) len: usize,
    /// Records in the prefix.
    pub(crate) records: u64,
    /// The newest [`Record::Epoch`] in the prefix (0 without one).
    pub(crate) epoch: u64,
    /// Why the walk ended short of the bytes' end, if it did.
    pub(crate) stop: Option<Stop>,
}

/// Why a [`walk`] ended short of the end of its bytes.
pub(crate) enum Stop {
    /// The header or a frame is damaged. A [`FrameError::Torn`] stop is
    /// a cut-short final frame outside any state run: a crash's torn
    /// write.
    Frame(FrameError),
    /// A whole frame holds no record (a [`ProtocolError::Storage`]
    /// failure), [`advance_chain`] or the caller refused its record, or
    /// the bytes ended (whole or torn) inside a snapshot's state run.
    Refused(ProtocolError),
}

/// The one reader of journal history. For each whole frame `frames`
/// yields, in order, it checks the CRC, decodes the [`Record`], moves
/// `chain` by [`advance_chain`] and hands the record and that move to
/// `apply`, so records are applied as the walk reaches them. The walk
/// ends at the first frame or record that fails a step, or at the end
/// of the bytes; a record the chain rule refuses leaves the chain
/// unmoved.
///
/// What to keep is the caller's policy: recovery refuses any stop but
/// a torn final frame, and a follower keeps the verified prefix.
pub(crate) fn walk(
    mut frames: Frames<'_>,
    chain: &mut AuditChain,
    mut apply: impl FnMut(&Record, Step) -> Result<(), ProtocolError>,
) -> Walk {
    let mut walk = Walk::default();
    let (mut run, mut records) = (0, 0);
    let walked = frames.try_for_each(|frame| {
        let frame = frame.map_err(Stop::Frame)?;
        let payload = frame.checked().map_err(Stop::Frame)?;
        let record = Record::from_payload(payload).map_err(|e| Stop::Refused(e.into()))?;
        let step = advance_chain(chain, &mut run, &record, payload).map_err(Stop::Refused)?;
        apply(&record, step).map_err(Stop::Refused)?;
        records += 1;
        if run == 0 {
            (walk.len, walk.records) = (frame.end(), records);
        }
        // An epoch record is never part of a run, so it is in the prefix.
        if let Record::Epoch(epoch) = record {
            walk.epoch = walk.epoch.max(epoch);
        }
        Ok(())
    });
    walk.stop = match walked {
        Ok(()) | Err(Stop::Frame(FrameError::Torn(_))) if run > 0 => Some(Stop::Refused(
            ProtocolError::Malformed("snapshot state records cut short"),
        )),
        walked => walked.err(),
    };
    walk
}

// ----------------------------------------------------------------- journal

/// What [`DurableImage::missing`] hands a log shipper, borrowed from
/// the image.
///
/// Offsets are *logical*: a monotonically increasing byte position in
/// the journal's lifetime stream. Appends extend the stream; compaction
/// rebases it — the fresh image occupies logical bytes starting at the
/// old durable end, which its header records. An offset at or before
/// that base (0 included: nothing held) is not inside the image and
/// resolves to [`ShipSource::Image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipSource<'a> {
    /// Raw frame bytes from the requested offset to the durable end.
    /// Appending them to a follower image that ends at the requested
    /// offset reproduces this journal's image byte-for-byte.
    Tail(&'a [u8]),
    /// The requested offset lies at or before the image's base: the
    /// whole current image (header + frames). The follower must replace
    /// its image wholesale and resume from the base its header records
    /// plus its length.
    Image(&'a [u8]),
}

/// One consistent read of a journal's durable bytes: the current image
/// up to the durable end, and the logical offset of its first byte. A
/// log shipper reads it once per replication round and answers every
/// follower from it with [`missing`](DurableImage::missing).
#[derive(Debug)]
pub struct DurableImage {
    base: u64,
    bytes: Vec<u8>,
}

impl DurableImage {
    /// Logical durable end: `base` plus the image length.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// The image (header + whole frames).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The bytes a follower acked up to `from` lacks: the raw tail when
    /// `from` is inside this image, or the whole image when `from` is
    /// at or before its base.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] when `from` lies beyond the durable
    /// end (the follower claims bytes this journal never wrote — a
    /// protocol violation, not a race).
    pub fn missing(&self, from: u64) -> Result<ShipSource<'_>, JournalError> {
        // A follower's bytes up to the base are not this image's: they
        // are nothing (offset 0) or the pre-compaction history.
        if from <= self.base {
            return Ok(ShipSource::Image(&self.bytes));
        }
        if from > self.end() {
            return Err(JournalError::Malformed("ship offset beyond durable end"));
        }
        Ok(ShipSource::Tail(&self.bytes[(from - self.base) as usize..]))
    }

    /// Whole records in what [`missing`](Self::missing) answers for
    /// `from` (0 past the durable end), counted without a CRC.
    pub(crate) fn records_missing(&self, from: u64) -> u64 {
        let frames = match self.missing(from) {
            Ok(ShipSource::Tail(bytes)) => Frames::tail(bytes),
            Ok(ShipSource::Image(bytes)) => Frames::image(bytes),
            Err(_) => return 0,
        };
        frames.map_while(Result::ok).count() as u64
    }
}

/// An open, appendable journal over a [`StorageBackend`].
pub struct Journal {
    backend: std::sync::Arc<dyn StorageBackend>,
    /// Serializes record framing so concurrent appends cannot interleave,
    /// and guards the durable end below so shippers read a consistent
    /// (end, image) view.
    write_lock: Mutex<()>,
    /// Logical durable end: the base the image's header records plus
    /// the bytes of the image known to hold whole records. A failed
    /// append never advances it, so shippers can never ship a torn
    /// tail.
    end: std::sync::atomic::AtomicU64,
}

impl Journal {
    /// Opens (or creates) a journal on `backend`, which holds `image`,
    /// once the walk that reads history (see the module docs) found the
    /// image's first `clean` bytes whole. The rest, a torn final frame,
    /// is cut away so appends land on a record boundary, and an image
    /// with no clean byte (empty, or torn inside its header) starts
    /// afresh at base 0. Nothing is written when the whole image is
    /// clean.
    ///
    /// # Errors
    ///
    /// Backend failures while cutting the tail or writing the header.
    ///
    /// # Panics
    ///
    /// When `clean` exceeds the image's length.
    pub fn open(
        backend: std::sync::Arc<dyn StorageBackend>,
        image: &[u8],
        clean: usize,
    ) -> Result<Journal, JournalError> {
        let clean = &image[..clean];
        if clean.is_empty() {
            backend.replace(&header(0))?;
        } else if clean.len() < image.len() {
            backend.replace(clean)?;
        }
        // The walk checked the header, so a clean prefix has a base.
        let base = image_base(clean).unwrap_or(0);
        Ok(Journal {
            backend,
            write_lock: Mutex::new(()),
            end: std::sync::atomic::AtomicU64::new(base + clean.len().max(HEADER_LEN) as u64),
        })
    }

    /// Logical durable end: the offset the next appended byte will
    /// occupy. A follower acked up to this offset holds every record.
    pub fn end_offset(&self) -> u64 {
        self.end.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Reads the durable image, with the logical base its header
    /// records, under the write lock so the (end, bytes) view is
    /// consistent. This reads the whole image from the backend, whatever
    /// offset a shipper needs.
    ///
    /// # Errors
    ///
    /// Backend read failures, and [`JournalError::Corrupt`] when the
    /// image's header no longer checks out.
    pub fn read_durable(&self) -> Result<DurableImage, JournalError> {
        let _g = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        let end = self.end.load(std::sync::atomic::Ordering::Acquire);
        let mut bytes = self.backend.read()?;
        let base = image_base(&bytes).map_err(|e| JournalError::Corrupt {
            offset: 0,
            reason: e.reason(),
        })?;
        // The tracked end is the durable horizon: a failed append may
        // have left a torn physical tail past it, which must never ship.
        bytes.truncate(end.saturating_sub(base) as usize);
        Ok(DurableImage { base, bytes })
    }

    /// Appends one record as a single backend write (frame = length,
    /// CRC, payload), so a crash can only tear the final record.
    ///
    /// # Errors
    ///
    /// As for [`append_payload`](Journal::append_payload).
    pub fn append_record(&self, record: &Record) -> Result<(), JournalError> {
        self.append_payload(&record.to_payload())
    }

    /// Appends one already-encoded record payload
    /// ([`Record::to_payload`]) as a single backend write, so a caller
    /// that also hashes the payload encodes the record once.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] for an empty or oversized payload,
    /// and backend failures; on a backend error the journal may hold a
    /// torn tail, which the next [`Journal::open`] cleans up.
    pub fn append_payload(&self, payload: &[u8]) -> Result<(), JournalError> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, payload)?;
        let _g = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        self.backend.append(&frame)?;
        self.end
            .fetch_add(frame.len() as u64, std::sync::atomic::Ordering::AcqRel);
        Ok(())
    }

    /// Compacts the journal to a fresh image of one frame per record
    /// payload ([`Record::to_payload`]) via an atomic image replacement,
    /// bounding future recovery cost, and returns the image's length in
    /// bytes. The image's header records the old durable end as its
    /// base.
    ///
    /// # Errors
    ///
    /// [`JournalError::Malformed`] for an empty or oversized payload,
    /// and backend failures; the old image survives either.
    pub fn compact(&self, payloads: &[Vec<u8>]) -> Result<usize, JournalError> {
        use std::sync::atomic::Ordering;
        let mut image = header(0).to_vec();
        for payload in payloads {
            encode_frame(&mut image, payload)?;
        }
        let _g = self.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        // Rebase the logical stream: the fresh image occupies bytes
        // starting at the old durable end, so pre-compaction acked
        // offsets resolve to ShipSource::Image.
        let base = self.end.load(Ordering::Acquire);
        image[..HEADER_LEN].copy_from_slice(&header(base));
        self.backend.replace(&image)?;
        self.end.store(base + image.len() as u64, Ordering::Release);
        Ok(image.len())
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn zone_record(id: u64) -> Record {
        Record::RegisterZone {
            id,
            lat_deg: 40.0,
            lon_deg: -88.0,
            radius_m: 150.0,
        }
    }

    /// An image's whole records, decoded frame by frame, and its length
    /// before a torn final frame; other damage is refused. The chain
    /// rule is left out: these tests' snapshot bodies are placeholders.
    fn records(image: &[u8]) -> Result<(Vec<Record>, usize), JournalError> {
        let mut records = Vec::new();
        for frame in Frames::image(image) {
            match frame.and_then(|f| f.checked()) {
                Ok(payload) => records.push(Record::from_payload(payload)?),
                Err(FrameError::Torn(at)) => return Ok((records, at)),
                Err(FrameError::Corrupt(offset, reason)) => {
                    return Err(JournalError::Corrupt { offset, reason })
                }
            }
        }
        Ok((records, image.len()))
    }

    /// Opens the journal on `backend` as recovery does, with the verdict
    /// of [`records`]: the journal, its whole records, and whether a
    /// torn tail was cut.
    fn reopen(
        backend: Arc<dyn StorageBackend>,
    ) -> Result<(Journal, Vec<Record>, bool), JournalError> {
        let image = backend.read()?;
        let (records, clean) = records(&image)?;
        let journal = Journal::open(backend, &image, clean)?;
        Ok((journal, records, clean < image.len()))
    }

    #[test]
    fn open_fresh_writes_header_then_round_trips() {
        let backend = Arc::new(MemBackend::new());
        let (journal, records, tail_cut) = reopen(backend.clone()).unwrap();
        assert_eq!(records.len(), 0);
        assert!(!tail_cut);
        journal.append_record(&zone_record(1)).unwrap();
        journal
            .append_record(&Record::NonceUsed {
                drone: 7,
                nonce: [9; 16],
            })
            .unwrap();
        drop(journal);
        let (_, records, tail_cut) = reopen(backend).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], zone_record(1));
        assert_eq!(records.len(), 2);
        assert!(!tail_cut);
    }

    #[test]
    fn every_record_variant_round_trips() {
        let all = vec![
            Record::RegisterDrone {
                id: 3,
                op_modulus: vec![1, 2, 3],
                op_exponent: vec![1, 0, 1],
                tee_modulus: vec![9, 9],
                tee_exponent: vec![3],
            },
            zone_record(5),
            Record::NonceUsed {
                drone: 1,
                nonce: [0xAB; 16],
            },
            Record::PoaStored {
                drone: 2,
                window_start: 0.0,
                window_end: 30.0,
                poa: vec![0, 0, 0, 0],
                verdict: vec![0],
                stored_at: 31.0,
            },
            Record::Snapshot(vec![0xDE, 0xAD]),
            Record::Epoch(7),
            Record::AuditCheckpoint {
                size: 42,
                root: [0x5A; 32],
                sig: vec![1, 2, 3, 4],
            },
            Record::Purge { before: 172_800.5 },
        ];
        for rec in all {
            let payload = rec.to_payload();
            assert_eq!(Record::from_payload(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn only_mutation_records_are_audited() {
        assert!(zone_record(1).is_audited());
        assert!(Record::NonceUsed {
            drone: 1,
            nonce: [0; 16]
        }
        .is_audited());
        assert!(!Record::Snapshot(vec![]).is_audited());
        assert!(!Record::Epoch(3).is_audited());
        assert!(Record::Purge { before: 0.0 }.is_audited());
        assert!(!Record::AuditCheckpoint {
            size: 0,
            root: [0; 32],
            sig: vec![],
        }
        .is_audited());
    }

    #[test]
    fn torn_tail_is_truncated_and_logged() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        journal.append_record(&zone_record(2)).unwrap();
        let full = backend.bytes();
        // Crash mid-way through the second record.
        for cut in 1..FRAME_OVERHEAD + 4 {
            let torn = Arc::new(MemBackend::with_bytes(full[..full.len() - cut].to_vec()));
            let (_, records, tail_cut) = reopen(torn.clone()).unwrap();
            assert_eq!(records.len(), 1, "cut {cut}");
            assert!(tail_cut, "cut {cut}");
            // The tail was truncated away; reopening is now clean.
            let (_, records2, tail_cut2) = reopen(torn).unwrap();
            assert_eq!(records2.len(), 1);
            assert!(!tail_cut2);
        }
    }

    #[test]
    fn mid_journal_corruption_is_typed_error() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        journal.append_record(&zone_record(2)).unwrap();
        // Flip a payload bit inside the *first* record.
        backend.flip_bits(HEADER_LEN + FRAME_OVERHEAD + 2, 0x10);
        let err = reopen(Arc::new(MemBackend::with_bytes(backend.bytes()))).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Corrupt {
                    reason: "crc mismatch",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        let mut bytes = backend.bytes();
        bytes[0] ^= 0xFF;
        let err = records(&bytes).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { offset: 0, .. }));
        let mut bytes = backend.bytes();
        bytes[4] = 99;
        let err = records(&bytes).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { offset: 4, .. }));
        // Rot in the base is caught by the header CRC, and a base no
        // journal reaches is refused even with a matching CRC.
        let mut bytes = backend.bytes();
        bytes[12] ^= 0x01;
        let err = records(&bytes).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { offset: 13, .. }));
        let mut bytes = backend.bytes();
        bytes[..HEADER_LEN].copy_from_slice(&header(u64::MAX - 1));
        let err = records(&bytes).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { offset: 5, .. }));
        // A version-1 image (5-byte header, no base) is refused at
        // recovery, with frames or without.
        let mut v1 = b"ALDJ\x01".to_vec();
        for frames in [false, true] {
            if frames {
                encode_frame(&mut v1, &zone_record(1).to_payload()).unwrap();
            }
            let err = reopen(Arc::new(MemBackend::with_bytes(v1.clone()))).unwrap_err();
            assert_eq!(
                err,
                JournalError::Corrupt {
                    offset: 4,
                    reason: "unsupported version"
                }
            );
        }
        // So is a version-2 image, whose header CRC checks out.
        let mut v2 = header(0).to_vec();
        v2[4] = 2;
        let crc = crc32(&v2[..13]);
        v2[13..].copy_from_slice(&crc.to_be_bytes());
        encode_frame(&mut v2, &zone_record(1).to_payload()).unwrap();
        let err = reopen(Arc::new(MemBackend::with_bytes(v2))).unwrap_err();
        assert_eq!(
            err,
            JournalError::Corrupt {
                offset: 4,
                reason: "unsupported version"
            }
        );
    }

    #[test]
    fn impossible_length_is_corruption_not_torn_tail() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        let mut bytes = backend.bytes();
        // Zero out the length field of the first frame.
        for b in &mut bytes[HEADER_LEN..HEADER_LEN + 4] {
            *b = 0;
        }
        let err = records(&bytes).unwrap_err();
        assert!(matches!(
            err,
            JournalError::Corrupt {
                reason: "impossible record length",
                ..
            }
        ));
    }

    /// The payload list a compaction test writes.
    fn payloads(records: &[Record]) -> Vec<Vec<u8>> {
        records.iter().map(Record::to_payload).collect()
    }

    #[test]
    fn compaction_replaces_image_with_the_given_records() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        for i in 0..10 {
            journal.append_record(&zone_record(i)).unwrap();
        }
        let before = backend.bytes().len();
        let image = [Record::Snapshot(b"snapshot-bytes".to_vec()), zone_record(7)];
        journal.compact(&payloads(&image)).unwrap();
        assert!(backend.bytes().len() < before);
        journal.append_record(&zone_record(99)).unwrap();
        let (_, records, _) = reopen(backend.clone()).unwrap();
        assert_eq!(
            records,
            vec![image[0].clone(), image[1].clone(), zone_record(99)]
        );
        // An oversized payload fails the whole compaction before any
        // byte is replaced.
        let before = backend.bytes();
        let huge = vec![vec![TAG_SNAPSHOT; MAX_RECORD_LEN + 1]];
        assert!(matches!(
            journal.compact(&huge),
            Err(JournalError::Malformed(_))
        ));
        assert_eq!(backend.bytes(), before);
    }

    #[test]
    fn disk_full_is_typed_and_nondestructive() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        let len = backend.bytes().len();
        backend.set_capacity(Some(len));
        assert_eq!(
            journal.append_record(&zone_record(2)),
            Err(JournalError::DiskFull)
        );
        // Nothing was written; the journal still parses cleanly.
        backend.set_capacity(None);
        let (_, records, tail_cut) = reopen(backend).unwrap();
        assert_eq!(records.len(), 1);
        assert!(!tail_cut);
    }

    #[test]
    fn torn_write_fault_recovers_on_reopen() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        backend.tear_next_append(5);
        assert!(journal.append_record(&zone_record(2)).is_err());
        let (_, records, tail_cut) = reopen(backend).unwrap();
        assert_eq!(records.len(), 1);
        assert!(tail_cut);
    }

    #[test]
    fn fs_backend_round_trips_and_replaces() {
        let dir =
            std::env::temp_dir().join(format!("alidrone-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auditor.wal");
        let _ = std::fs::remove_file(&path);
        let backend = Arc::new(FsBackend::new(&path));
        assert!(backend.read().unwrap().is_empty());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        journal.append_record(&zone_record(2)).unwrap();
        drop(journal);
        let (journal, records, _) = reopen(Arc::new(FsBackend::new(&path))).unwrap();
        assert_eq!(records.len(), 2);
        journal
            .compact(&payloads(&[Record::Snapshot(b"snap".to_vec())]))
            .unwrap();
        let (_, records, _) = reopen(Arc::new(FsBackend::new(&path))).unwrap();
        assert_eq!(records, vec![Record::Snapshot(b"snap".to_vec())]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn offsets_track_appends_and_missing_ships_exact_tails() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        assert_eq!(journal.read_durable().unwrap().base, 0);
        assert_eq!(journal.end_offset(), HEADER_LEN as u64);
        journal.append_record(&zone_record(1)).unwrap();
        let end1 = journal.end_offset();
        journal.append_record(&zone_record(2)).unwrap();
        let end2 = journal.end_offset();
        assert_eq!(end2, backend.bytes().len() as u64);

        // A follower at offset 0 holds nothing and receives the whole
        // image; one at end1 receives exactly the second record's frame.
        let full = backend.bytes();
        let image = journal.read_durable().unwrap();
        assert_eq!(image.end(), end2);
        assert_eq!(image.bytes(), full.as_slice());
        assert_eq!(image.missing(0).unwrap(), ShipSource::Image(&full));
        assert_eq!(image.records_missing(0), 2);
        assert_eq!(
            image.missing(end1).unwrap(),
            ShipSource::Tail(&full[end1 as usize..])
        );
        // Fully caught up: an empty tail.
        assert_eq!(image.missing(end2).unwrap(), ShipSource::Tail(&[]));
        // Beyond the durable end is a protocol violation, typed.
        assert!(matches!(
            image.missing(end2 + 1),
            Err(JournalError::Malformed(_))
        ));
    }

    #[test]
    fn compaction_rebases_the_logical_stream() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        for i in 0..5 {
            journal.append_record(&zone_record(i)).unwrap();
        }
        let old_end = journal.end_offset();
        journal
            .compact(&payloads(&[Record::Snapshot(b"snap".to_vec())]))
            .unwrap();
        assert_eq!(journal.end_offset(), old_end + backend.bytes().len() as u64);
        // A follower holding nothing, acked before compaction, or at
        // exactly the new base, gets the whole re-based image, whose
        // header records that base.
        let image = journal.read_durable().unwrap();
        let compacted = backend.bytes();
        assert_eq!(image_base(&compacted), Ok(old_end));
        for from in [0, old_end - 1, old_end] {
            assert_eq!(image.missing(from).unwrap(), ShipSource::Image(&compacted));
        }
        // A reopened journal keeps the same offsets.
        let (reopened, _, _) = reopen(backend.clone()).unwrap();
        assert_eq!(reopened.end_offset(), journal.end_offset());
        assert_eq!(reopened.read_durable().unwrap().base, old_end);
        // Appends after compaction extend the re-based stream.
        journal.append_record(&zone_record(99)).unwrap();
        let after = journal.read_durable().unwrap();
        let ShipSource::Tail(tail) = after.missing(image.end()).unwrap() else {
            panic!("post-compaction offset must ship a tail");
        };
        assert_eq!(tail.len(), backend.bytes().len() - compacted.len());
    }

    #[test]
    fn failed_append_never_advances_the_durable_end() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        journal.append_record(&zone_record(1)).unwrap();
        let end = journal.end_offset();
        backend.tear_next_append(5);
        assert!(journal.append_record(&zone_record(2)).is_err());
        assert_eq!(journal.end_offset(), end, "torn append must not advance");
        // The durable image must not include the torn physical tail.
        let image = journal.read_durable().unwrap();
        assert_eq!(image.end(), end);
        let (records, clean) = records(image.bytes()).expect("shipped bytes are a clean image");
        assert_eq!(clean, image.bytes().len());
        assert_eq!(records, vec![zone_record(1)]);
    }

    #[test]
    fn oversized_record_is_rejected_before_any_byte_lands() {
        let backend = Arc::new(MemBackend::new());
        let (journal, _, _) = reopen(backend.clone()).unwrap();
        let len = backend.bytes().len();
        let huge = Record::Snapshot(vec![0u8; MAX_RECORD_LEN + 1]);
        assert!(matches!(
            journal.append_record(&huge),
            Err(JournalError::Malformed(_))
        ));
        assert_eq!(backend.bytes().len(), len, "nothing may be written");
    }

    #[test]
    fn header_only_torn_image_resets_to_fresh() {
        // A crash while writing the 17-byte header itself: in the
        // magic, in the base, or in its CRC.
        for cut in [2, 7, 15] {
            let torn = Arc::new(MemBackend::with_bytes(header(0)[..cut].to_vec()));
            let (journal, records, tail_cut) = reopen(torn).unwrap();
            assert_eq!(records.len(), 0);
            assert!(tail_cut);
            assert_eq!(journal.end_offset(), HEADER_LEN as u64);
            journal.append_record(&zone_record(1)).unwrap();
        }
    }
}
