//! Primary/follower replication for the auditor's write-ahead journal.
//!
//! One auditor process is both the scalability ceiling and a single
//! point of failure: a crash loses availability until restart, and the
//! paper's trust story assumes the auditor is always there to verify
//! PoAs. This module replicates the journal (see [`crate::journal`])
//! from a primary to N followers by **log shipping**: after every
//! durable mutation the primary ships each follower the raw frame
//! bytes it still lacks over a [`ReplLink`]; the follower appends them
//! to its own backend and acks the logical offset it is now durable up
//! to. Follower images are
//! therefore *byte-identical prefixes* of the primary's journal, so a
//! promoted follower recovers with the ordinary
//! [`Auditor::recover`](crate::Auditor::recover) replay — no second
//! on-disk format, no translation layer. Before persisting, a follower
//! reads the shipped bytes with the one walker recovery reads an image
//! with (see [`crate::journal`]), which moves its audit chain by the
//! same rule, so it acks only what its own recovery would replay: an
//! image (only ever a `Snapshot`) must start with a valid header, and
//! a torn frame is refused, not truncated. A restart reads the held
//! image through the same walker and keeps its verified prefix.
//!
//! Followers live in the primary's process ([`InProcessLink`]), each
//! over its own [`StorageBackend`]: they outlive the primary auditor
//! and its journal, not the process or the machine.
//!
//! # Ack policies
//!
//! [`ReplicationPolicy`] decides what "durable" means to callers:
//!
//! * **`Quorum(k)`** — a mutation (and therefore the verdict response
//!   built on it) is acknowledged only once ≥ `k` followers hold it.
//!   A failed quorum surfaces as a typed error to the caller *before*
//!   any response is sent, so nothing acknowledged can be lost by a
//!   fail-stop primary crash. The record stays pending on the primary,
//!   unserved, until [`Replicator::commit_offset`] passes it, and the
//!   primary refuses every later write unwritten (`Overloaded`) while
//!   it stays pending, so at most one write's outcome is unknown.
//! * **`Quorum(0)`** — ship best-effort; failures only show up in the
//!   lag metrics. A primary crash can lose the records appended since
//!   the slowest follower's last ack.
//!
//! # Epoch fencing
//!
//! Every shipped frame carries the primary's leadership epoch.
//! [`promote`] is the one promotion rule: it picks the follower with
//! the highest acked offset (ties to the greatest name), fences it at
//! one past the newest epoch any follower has seen, recovers it, and
//! arms it over the remaining followers. The recovered auditor appends
//! a [`Record::Epoch`](crate::journal::Record::Epoch) boundary
//! (shipped to the remaining followers immediately), and from then on
//! any frame from the deposed primary is answered with
//! [`ReplAck::Stale`] — surfaced to it as [`ReplError::StaleEpoch`],
//! which fails its appends under *any* policy. A `Quorum(k)` ack means `k` followers hold the record, so
//! the most-caught-up follower holds every acked record and, with
//! `Quorum(1)`, no acked record is lost to a fail-stop crash; a
//! *symmetric* partition (old primary still serving) additionally
//! needs a majority quorum, the classic overlap argument — see
//! DESIGN.md §13. Acked offsets are comparable across followers
//! because there is one offset space: every image's header records its
//! logical base (see [`crate::journal`]), so an acked offset is that
//! base plus the verified prefix, for a live follower, a restarted one
//! and a promoted primary alike.
//!
//! A replicator knows a follower only by the offset it acked to *that*
//! replicator, which starts at 0. So its first frame to any follower,
//! at boot and to every survivor [`promote`] re-arms, is a
//! [`ReplFrame::Snapshot`] that replaces whatever the follower holds:
//! bytes a deposed primary shipped at the same offsets as the new
//! primary's are replaced, never extended.
//!
//! # One read per round
//!
//! A replication round reads the durable image once
//! ([`Journal::read_durable`]), when the first follower needs bytes;
//! every follower's frame, its retries and the lag gauges borrow
//! slices of that one read ([`DurableImage::missing`]). A round whose
//! frames are tails ships them one after another, in follower order, on
//! the calling thread. A round that must ship the whole image to two
//! or more followers (an arm, a re-arm after promotion, a compaction)
//! ships those images at once, one scoped thread per image but the
//! last, once the image is large enough to repay a spawn (64 KiB);
//! each follower checks every record of its image itself, so only more
//! cores make that wait shorter. Either way the results are counted,
//! logged and fenced in follower order.
//!
//! # Catch-up
//!
//! The acked offset alone picks each frame. From 0 (nothing acked
//! yet), from at or before the image's base (compaction reclaimed it,
//! [`ShipSource::Image`]) or from past the durable end, the follower
//! gets the whole image as a [`ReplFrame::Snapshot`]; from anywhere
//! else, an [`ReplFrame::Append`] of the tail. So a follower that fell
//! behind (partition, slow disk) resumes incrementally, and one that
//! missed a compaction takes the fresh image, then tails as usual —
//! byte-identical to a follower that never missed a frame.
//!
//! Each frame kind has one meaning to the follower: a `Snapshot`
//! replaces its image, and an `Append` extends it only when it starts
//! at the follower's end and that end is not 0. Any other `Append` is
//! answered with the follower's end and applies nothing, and the
//! primary ships from there. A restarted follower keeps the prefix of
//! its image it can verify, dropping the rest as recovery drops a torn
//! tail, and acks the header's base plus that prefix, so the
//! replicator that shipped to it before the restart resumes it by
//! tail. A prefix with no whole record is held as nothing (offset 0):
//! a compacted image's earlier history lives in its snapshot run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::{panic, thread};

use alidrone_obs::{Counter, Gauge, Level, Obs};

use crate::audit::{AuditChain, ChainMark};
use crate::journal::{
    image_base, walk, DurableImage, Frames, Journal, JournalError, ShipSource, Step, Stop,
    StorageBackend,
};
use crate::{Auditor, AuditorConfig, ProtocolError, RecoveryReport};
use alidrone_crypto::rsa::RsaPrivateKey;

/// Frames shipped to one follower in one round before its acks count
/// as [`ReplError::Unconverged`].
const SHIPS_PER_ROUND: usize = 4;

/// The smallest image a round ships to several followers at once. A
/// scoped thread costs ~40 µs to spawn and join, about what a follower
/// takes to check 64 KiB of history, so a smaller image ships sooner
/// from the calling thread.
const CONCURRENT_IMAGE_MIN: usize = 64 * 1024;

// ------------------------------------------------------------------ errors

/// Typed replication failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// The follower has seen a newer leadership epoch: this primary was
    /// deposed and must stop acknowledging writes.
    StaleEpoch {
        /// The epoch this primary shipped under.
        epoch: u64,
        /// The newer epoch the follower reported.
        current: u64,
    },
    /// Fewer followers acked than the `Quorum(k)` policy requires.
    QuorumLost {
        /// Followers durable through the current end.
        acked: usize,
        /// The policy's requirement.
        needed: usize,
    },
    /// The link lost a frame or its ack: the follower may or may not
    /// have applied it, and the next round ships from the last ack.
    Transport(String),
    /// A storage failure on either side of the link.
    Storage(String),
    /// A follower's acks did not reach the durable end: it was shipped
    /// four frames in one round and still answered another offset. The
    /// replicator forgets its ack, so the follower counts toward no
    /// commit point and its next frame is the whole image.
    Unconverged {
        /// The follower's last acked offset.
        acked: u64,
        /// The durable end it was shipped toward.
        end: u64,
    },
    /// The shipped bytes diverge from the audit chain this follower
    /// recomputed (see [`crate::audit`]): a corrupt frame, an
    /// undecodable record, or a Merkle checkpoint whose root does not
    /// match the history before it. The follower refused the frame
    /// *before* persisting anything — a forked primary cannot spread
    /// its fork.
    ChainDivergence {
        /// Audit tree size at which the divergence was detected.
        size: u64,
        /// What diverged.
        reason: &'static str,
    },
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::StaleEpoch { epoch, current } => {
                write!(f, "stale epoch {epoch}: follower is at epoch {current}")
            }
            ReplError::QuorumLost { acked, needed } => {
                write!(
                    f,
                    "replication quorum lost: {acked} of {needed} followers acked"
                )
            }
            ReplError::Transport(what) => write!(f, "replication transport failure: {what}"),
            ReplError::Storage(what) => write!(f, "replication storage failure: {what}"),
            ReplError::Unconverged { acked, end } => write!(
                f,
                "follower acked offset {acked}, not the durable end {end}, \
                 after {SHIPS_PER_ROUND} frames"
            ),
            ReplError::ChainDivergence { size, reason } => {
                write!(f, "audit chain divergence at tree size {size}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplError {}

impl From<JournalError> for ReplError {
    fn from(e: JournalError) -> Self {
        ReplError::Storage(e.to_string())
    }
}

impl From<ReplError> for ProtocolError {
    fn from(e: ReplError) -> Self {
        match e {
            ReplError::ChainDivergence { size, .. } => ProtocolError::AuditDivergence { size },
            other => ProtocolError::Storage(other.to_string()),
        }
    }
}

// ------------------------------------------------------------------ policy

/// When a durable mutation may be acknowledged to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Require at least this many followers durable through the record
    /// before acknowledging. `Quorum(0)` ships best-effort: it never
    /// fails a response on follower durability, and a primary crash
    /// loses at most the shipping lag.
    Quorum(usize),
}

// ------------------------------------------------------------------ frames

/// One message on the replication stream, primary → follower. Its
/// bytes borrow the round's one read of the image: every follower's
/// frame is a slice of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame<'a> {
    /// Raw journal frame bytes starting at logical `offset` (the
    /// follower's acked end). Appending them reproduces the primary's
    /// image byte-for-byte. A follower whose end is not `offset`, or
    /// is 0, applies nothing and answers its end.
    Append {
        /// Shipping primary's leadership epoch.
        epoch: u64,
        /// Logical offset of the first shipped byte.
        offset: u64,
        /// Raw journal bytes (whole frames; never a torn tail).
        bytes: &'a [u8],
    },
    /// A whole journal image — the first frame to a follower, and the
    /// frame for one whose offset compaction reclaimed or that claims
    /// more than this primary wrote. The follower replaces its image
    /// wholesale and resumes from the base its header records plus its
    /// length.
    Snapshot {
        /// Shipping primary's leadership epoch.
        epoch: u64,
        /// The full journal image (header + frames).
        image: &'a [u8],
    },
}

impl ReplFrame<'_> {
    /// The epoch this frame was shipped under.
    pub fn epoch(&self) -> u64 {
        match self {
            ReplFrame::Append { epoch, .. } | ReplFrame::Snapshot { epoch, .. } => *epoch,
        }
    }
}

/// The follower's answer to one shipped frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplAck {
    /// Durable through `offset`; ship from there next. The answer to
    /// every frame of a current epoch, including an `Append` the
    /// follower did not apply.
    Acked {
        /// The follower's durable end.
        offset: u64,
    },
    /// The frame's epoch is older than one the follower has already
    /// seen: the shipper was deposed.
    Stale {
        /// The follower's current epoch.
        current: u64,
    },
}

/// How to undo an in-place [`walk`] of a shipped tail: the chain's
/// size and head before the frame, plus the whole earlier chain if a
/// shipped `Snapshot` record re-seeded it.
struct ChainUndo {
    mark: ChainMark,
    reseeded: Option<AuditChain>,
}

impl ChainUndo {
    fn new(chain: &AuditChain) -> ChainUndo {
        ChainUndo {
            mark: chain.mark(),
            reseeded: None,
        }
    }

    /// Puts `chain` back exactly as it was when this undo was taken.
    fn restore(self, chain: &mut AuditChain) {
        if let Some(earlier) = self.reseeded {
            *chain = earlier;
        }
        chain.rollback(self.mark);
    }
}

/// A [`walk`]'s stop over `chain`, as a follower reports it: a
/// [`ReplError::ChainDivergence`] at the chain's size (the stopping
/// record left it unmoved), counted on `divergence`.
fn diverged(chain: &AuditChain, stop: Stop, divergence: &Counter) -> ReplError {
    divergence.inc();
    let reason = match stop {
        Stop::Frame(e) => e.reason(),
        Stop::Refused(ProtocolError::AuditDivergence { size }) => {
            return ReplError::ChainDivergence {
                size,
                reason: "checkpoint root contradicts recomputed history",
            }
        }
        Stop::Refused(ProtocolError::Malformed(reason)) => reason,
        // The chain rule refuses only with the two above, and a
        // follower's callback never refuses: this is a payload that
        // is no record.
        Stop::Refused(_) => "undecodable record",
    };
    ReplError::ChainDivergence {
        size: chain.size(),
        reason,
    }
}

// ---------------------------------------------------------------- follower

/// A replication follower: holds a byte-identical prefix of the
/// primary's journal in its own backend and acks durable offsets.
///
/// All methods take `&self`; applies serialize on an internal lock.
pub struct Follower {
    backend: Arc<dyn StorageBackend>,
    /// Serializes applies (one shipping primary at a time is the
    /// protocol, but a fencing race must still be atomic).
    lock: Mutex<()>,
    /// Newest leadership epoch seen (frames below it are stale).
    epoch: AtomicU64,
    /// Logical durable end (== acked offset): the held image's header
    /// base plus its length, 0 while it holds nothing.
    end: AtomicU64,
    /// Whole records held (metrics/assertions only).
    records: AtomicU64,
    /// The audit chain recomputed over every applied record (see
    /// [`crate::audit`]): the follower's independent view of history,
    /// checked against shipped Merkle checkpoints *before* persisting.
    chain: Mutex<AuditChain>,
    /// `repl.chain_divergence` — bumped each time a shipped frame is
    /// refused for diverging from the recomputed chain.
    divergence: Arc<Counter>,
}

impl Follower {
    /// A follower over `backend`; see [`with_obs`](Self::with_obs).
    pub fn new(backend: Arc<dyn StorageBackend>) -> Follower {
        Follower::with_obs(backend, &Obs::noop())
    }

    /// A follower over `backend`, whose chain-divergence refusals are
    /// counted on `obs` (`repl.chain_divergence`).
    ///
    /// Over an empty backend it starts at offset 0, so the first frame
    /// it applies is a primary's `Snapshot`. Over a
    /// non-empty one (a restart) it takes back the longest prefix of
    /// the held image it can verify as it would a shipped one: the
    /// audit chain and record count over it, an epoch floor from its
    /// newest [`Record::Epoch`](crate::journal::Record::Epoch), and its
    /// end offset, the header's base plus the prefix length. A prefix without a whole record is no
    /// prefix: a compacted image's history before its base lives in
    /// its snapshot run, so a header alone holds nothing and acks 0.
    /// Bytes past the prefix — torn, corrupt, or contradicting the
    /// chain — are dropped, as [`Journal::open`] drops a torn tail,
    /// and the drop is counted on `repl.chain_divergence` with one
    /// Warn event. An image whose header does not read (another
    /// version, rot in the header) is refused the same way but left in
    /// the backend: the next image shipped replaces it whole, and until
    /// then it is the one copy an older build could still read. If the
    /// drop fails, or the backend is unreadable, the follower holds
    /// nothing either.
    pub fn with_obs(backend: Arc<dyn StorageBackend>, obs: &Obs) -> Follower {
        let image = backend.read().unwrap_or_default();
        let divergence = obs.counter("repl.chain_divergence");
        let mut chain = AuditChain::new();
        let (mut walked, mut before_run) = (0, None);
        let mut held = walk(Frames::image(&image), &mut chain, |_, step| {
            walked += 1;
            if let Step::Reseed { replaced, .. } = step {
                before_run = Some(replaced);
            }
            Ok(())
        });
        let mut kept = &image[..held.len];
        if let Some(stop) = held.stop.take() {
            let reason = diverged(&chain, stop, &divergence).to_string();
            obs.emit(Level::Warn, "repl", "unverified bytes dropped", |f| {
                f.field("kept_bytes", kept.len());
                f.field("dropped_bytes", image.len() - kept.len());
                f.field("reason", reason.as_str());
            });
            if image_base(&image).is_ok() && backend.replace(kept).is_err() {
                (kept, chain, held.records) = (&[], AuditChain::new(), 0);
            } else if walked > held.records {
                // Records walked past the prefix are one snapshot and
                // part of its state run, which leaves the chain alone:
                // the chain before that snapshot is the prefix's.
                chain = before_run.unwrap_or_default();
            }
        }
        Follower {
            backend,
            lock: Mutex::new(()),
            epoch: AtomicU64::new(held.epoch),
            end: AtomicU64::new(image_base(kept).unwrap_or(0) + kept.len() as u64),
            records: AtomicU64::new(held.records),
            chain: Mutex::new(chain),
            divergence,
        }
    }

    /// Applies one shipped frame, returning the protocol answer.
    ///
    /// # Errors
    ///
    /// [`ReplError::Storage`] when the local backend fails — the
    /// offset stays put, so the primary's retry is safe.
    pub fn apply(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
        // Poisoned lock: applies are single writes on the backend's own
        // serialization; a panicked peer thread cannot have torn state.
        let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        let current = self.epoch.load(Ordering::Acquire);
        if frame.epoch() < current {
            return Ok(ReplAck::Stale { current });
        }
        self.epoch.store(frame.epoch(), Ordering::Release);
        let end = self.end.load(Ordering::Acquire);
        let image = match frame {
            ReplFrame::Snapshot { image, .. } => image,
            // An Append extends only the image it was cut from; any
            // other is answered with this follower's end, applying
            // nothing, and the primary ships from there.
            ReplFrame::Append { offset, bytes, .. } => {
                if *offset == end && end > 0 && !bytes.is_empty() {
                    // Verify-before-persist: extend the audit chain over
                    // the shipped records and refuse divergent history
                    // before a single byte lands in the backend. A
                    // refused or unpersisted frame rolls the chain back.
                    let mut chain = self.chain.lock().unwrap_or_else(|p| p.into_inner());
                    let mut undo = ChainUndo::new(&chain);
                    let verified = walk(Frames::tail(bytes), &mut chain, |_, step| {
                        if let Step::Reseed { replaced, .. } = step {
                            undo.reseeded.get_or_insert(replaced);
                        }
                        Ok(())
                    });
                    let appended = match verified.stop {
                        Some(stop) => Err(diverged(&chain, stop, &self.divergence)),
                        None => self.backend.append(bytes).map_err(ReplError::from),
                    };
                    appended.inspect_err(|_| undo.restore(&mut chain))?;
                    self.end.store(end + bytes.len() as u64, Ordering::Release);
                    self.records.fetch_add(verified.records, Ordering::Relaxed);
                }
                return Ok(ReplAck::Acked {
                    offset: self.end.load(Ordering::Acquire),
                });
            }
        };
        // An image must verify whole, header included, and replaces
        // whatever the backend holds.
        let mut chain = AuditChain::new();
        let held = walk(Frames::image(image), &mut chain, |_, _| Ok(()));
        if let Some(stop) = held.stop {
            return Err(diverged(&chain, stop, &self.divergence));
        }
        self.backend.replace(image).map_err(ReplError::from)?;
        *self.chain.lock().unwrap_or_else(|p| p.into_inner()) = chain;
        // The walk checked the header, so the image has a base or is empty.
        let end = image_base(image).unwrap_or(0) + image.len() as u64;
        self.end.store(end, Ordering::Release);
        self.records.store(held.records, Ordering::Relaxed);
        Ok(ReplAck::Acked { offset: end })
    }

    /// Raises this follower's epoch floor without touching its log —
    /// the first step of [`promote`], so a deposed primary's in-flight
    /// frames land as [`ReplAck::Stale`] instead of appending.
    pub(crate) fn fence(&self, epoch: u64) {
        let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The newest epoch this follower has seen.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The logical offset this follower is durable through.
    pub fn acked_offset(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Whole records held.
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// The journal image held (for byte-identity assertions).
    ///
    /// # Errors
    ///
    /// Backend read failures.
    pub fn image(&self) -> Result<Vec<u8>, ReplError> {
        self.backend.read().map_err(ReplError::from)
    }

    /// The backend [`promote`] recovers this follower from.
    pub(crate) fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }
}

impl fmt::Debug for Follower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Follower")
            .field("epoch", &self.current_epoch())
            .field("acked_offset", &self.acked_offset())
            .finish_non_exhaustive()
    }
}

// ------------------------------------------------------------------- links

/// Transport carrying [`ReplFrame`]s to one follower and its
/// [`ReplAck`]s back. Implementations must be usable from the
/// primary's request threads (`Send + Sync`).
pub trait ReplLink: Send + Sync {
    /// Ships one frame and waits for the follower's answer.
    ///
    /// # Errors
    ///
    /// [`ReplError::Transport`] for lost exchanges (shipping is
    /// offset-checked on the follower, so retries are idempotent),
    /// [`ReplError::Storage`] when the follower's backend failed.
    fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError>;
}

/// The library's one link: followers live in the primary's process,
/// and shipping a frame is a call to [`Follower::apply`]. Test fakes
/// wrap it to drop frames or swap followers.
#[derive(Debug, Clone)]
pub struct InProcessLink {
    follower: Arc<Follower>,
}

impl InProcessLink {
    /// A link to `follower`.
    pub fn new(follower: Arc<Follower>) -> InProcessLink {
        InProcessLink { follower }
    }
}

impl ReplLink for InProcessLink {
    fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
        self.follower.apply(frame)
    }
}

// --------------------------------------------------------------- replicator

struct Peer {
    name: String,
    link: Box<dyn ReplLink>,
    /// The follower's last ack to this replicator: 0 until its first,
    /// so the first frame to any follower replaces its image.
    acked: AtomicU64,
    acked_gauge: Arc<Gauge>,
    ship_failures: Arc<Counter>,
}

/// The primary-side log shipper: tracks one acked offset per follower,
/// ships what each lacks (a tail, or the whole image) after every
/// journal append, and enforces the [`ReplicationPolicy`].
///
/// Metrics (all on the construction `Obs`): `repl.lag_bytes` /
/// `repl.lag_records` gauges (distance of the *slowest* follower from
/// the durable end — both exactly 0 on a quiesced, in-sync cluster),
/// `repl.acked_offset.<follower>` per-follower gauges, a `repl.epoch`
/// gauge, and `repl.ship_failures.<follower>`, `repl.records_shipped`,
/// `repl.snapshots_shipped` counters.
pub struct Replicator {
    obs: Obs,
    policy: ReplicationPolicy,
    peers: Vec<Peer>,
    epoch: AtomicU64,
    /// Non-zero once any follower reported a newer epoch: this primary
    /// is deposed and every subsequent replicate fails fast.
    fenced_by: AtomicU64,
    epoch_gauge: Arc<Gauge>,
    lag_bytes: Arc<Gauge>,
    lag_records: Arc<Gauge>,
    records_shipped: Arc<Counter>,
    snapshots_shipped: Arc<Counter>,
}

impl Replicator {
    /// A shipper with no followers yet; add them with
    /// [`with_follower`](Self::with_follower), then install on the
    /// primary via
    /// [`Auditor::set_replicator`](crate::Auditor::set_replicator).
    pub fn new(obs: &Obs, policy: ReplicationPolicy) -> Replicator {
        Replicator {
            obs: obs.clone(),
            policy,
            peers: Vec::new(),
            epoch: AtomicU64::new(0),
            fenced_by: AtomicU64::new(0),
            epoch_gauge: obs.gauge("repl.epoch"),
            lag_bytes: obs.gauge("repl.lag_bytes"),
            lag_records: obs.gauge("repl.lag_records"),
            records_shipped: obs.counter("repl.records_shipped"),
            snapshots_shipped: obs.counter("repl.snapshots_shipped"),
        }
    }

    /// Adds a follower reached over `link`. `name` labels its metrics
    /// (`repl.acked_offset.<name>`, `repl.ship_failures.<name>`).
    #[must_use]
    pub fn with_follower(mut self, name: impl Into<String>, link: impl ReplLink + 'static) -> Self {
        let name = name.into();
        self.peers.push(Peer {
            acked_gauge: self.obs.gauge(&format!("repl.acked_offset.{name}")),
            ship_failures: self.obs.counter(&format!("repl.ship_failures.{name}")),
            name,
            link: Box::new(link),
            acked: AtomicU64::new(0),
        });
        self
    }

    /// `true` when the policy gates responses on follower acks.
    pub fn requires_quorum(&self) -> bool {
        matches!(self.policy, ReplicationPolicy::Quorum(k) if k > 0)
    }

    /// Sets the epoch shipped with every frame (promotion bumps it via
    /// [`Auditor::begin_epoch`](crate::Auditor::begin_epoch)).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.epoch_gauge
            .set(self.epoch.load(Ordering::Acquire) as i64);
    }

    /// The epoch frames are currently shipped under.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Brings every follower up to the journal's durable end and
    /// applies the ack policy. Called by the auditor after each
    /// journal append (under the journal slot lock, so frames ship in
    /// append order).
    ///
    /// One round reads the durable image at most once: the first peer
    /// that needs bytes reads it, and every peer, its retries and the
    /// lag gauges slice that read. A whole image of 64 KiB or more
    /// bound for two or more peers ships concurrently, one scoped
    /// thread per image but the last; tails ship on the calling thread,
    /// without a spawn.
    ///
    /// # Errors
    ///
    /// [`ReplError::StaleEpoch`] under *any* policy once a follower
    /// reports a newer epoch (this primary is deposed);
    /// [`ReplError::QuorumLost`] when a `Quorum(k)` policy cannot be
    /// met. Shipping failures a policy does not count on are absorbed
    /// into the lag metrics.
    pub fn replicate(&self, journal: &Journal) -> Result<(), ReplError> {
        let fenced = self.fenced_by.load(Ordering::Acquire);
        if fenced != 0 {
            return Err(ReplError::StaleEpoch {
                epoch: self.epoch(),
                current: fenced,
            });
        }
        let epoch = self.epoch();
        let image = OnceLock::new();
        let mut in_sync = 0usize;
        let mut stale: Option<ReplError> = None;
        self.ship_round(journal, &image, epoch, |peer, result| match result {
            Ok(()) => in_sync += 1,
            Err(e @ ReplError::StaleEpoch { current, .. }) => {
                self.fenced_by.fetch_max(current, Ordering::AcqRel);
                stale.get_or_insert(e);
            }
            Err(e) => {
                peer.ship_failures.inc();
                let (name, detail) = (peer.name.clone(), e.to_string());
                self.obs.emit(Level::Warn, "repl", "ship failed", |f| {
                    f.field("follower", name.as_str());
                    f.field("error", detail.as_str());
                });
            }
        });
        self.update_lag(journal, &image);
        if let Some(e) = stale {
            // Fencing overrides the policy: a deposed primary must not
            // acknowledge anything, even under Quorum(0).
            return Err(e);
        }
        let ReplicationPolicy::Quorum(needed) = self.policy;
        if in_sync >= needed {
            Ok(())
        } else {
            Err(ReplError::QuorumLost {
                acked: in_sync,
                needed,
            })
        }
    }

    /// Runs [`sync_peer`](Self::sync_peer) for every peer and hands
    /// each result to `done` in follower order. Peers whose first frame this
    /// round is the whole image ship concurrently when there are two or
    /// more and the image is at least [`CONCURRENT_IMAGE_MIN`]: one
    /// scoped thread per image but the last, which ships on the calling
    /// thread with every tail. Every other round, the per-append path
    /// included, ships in follower order without a spawn.
    fn ship_round(
        &self,
        journal: &Journal,
        image: &OnceLock<Result<DurableImage, JournalError>>,
        epoch: u64,
        mut done: impl FnMut(&Peer, Result<(), ReplError>),
    ) {
        let sync = |peer: &Peer| self.sync_peer(peer, journal, image, epoch);
        let opens_with_large_image = |peer: &Peer| {
            let from = peer.acked.load(Ordering::Acquire);
            // A peer that needs bytes reads the image in `sync_peer`
            // anyway, so this is the round's one read, not another.
            from != journal.end_offset()
                && image
                    .get_or_init(|| journal.read_durable())
                    .as_ref()
                    .is_ok_and(|image| {
                        image.bytes().len() >= CONCURRENT_IMAGE_MIN
                            && !matches!(image.missing(from), Ok(ShipSource::Tail(_)))
                    })
        };
        let mut spawned: Vec<usize> = (0..self.peers.len())
            .filter(|&i| opens_with_large_image(&self.peers[i]))
            .collect();
        if spawned.len() < 2 {
            for peer in &self.peers {
                done(peer, sync(peer));
            }
            return;
        }
        // The last image ships on the calling thread, with every tail.
        spawned.pop();
        thread::scope(|s| {
            let mut running = spawned
                .iter()
                .map(|&i| s.spawn(move || sync(&self.peers[i])))
                .collect::<Vec<_>>()
                .into_iter();
            let inline: Vec<_> = (0..self.peers.len())
                .map(|i| (!spawned.contains(&i)).then(|| sync(&self.peers[i])))
                .collect();
            // Spawned peers come in follower order, so the next handle
            // is the next peer that did not ship inline.
            for (peer, shipped) in self.peers.iter().zip(inline) {
                let result = shipped.unwrap_or_else(|| {
                    let handle = running.next().expect("one thread per spawned peer");
                    handle
                        .join()
                        .unwrap_or_else(|panic| panic::resume_unwind(panic))
                });
                done(peer, result);
            }
        });
    }

    /// The commit point of a journal whose durable end is `end`: the
    /// offset at least `k` followers acked under `Quorum(k)` (the
    /// `k`-th highest ack), or `end` itself under `Quorum(0)`. A fenced
    /// primary commits nothing more, so it answers 0. An ack past `end`
    /// is a follower's own end over a suffix of a dead epoch, not ours,
    /// so it counts as holding nothing until the image that replaces
    /// that suffix is acked.
    pub fn commit_offset(&self, end: u64) -> u64 {
        if self.fenced_by.load(Ordering::Acquire) != 0 {
            return 0;
        }
        let ReplicationPolicy::Quorum(k) = self.policy;
        if k == 0 {
            return end;
        }
        let mut acked: Vec<u64> = self
            .peers
            .iter()
            .map(|p| p.acked.load(Ordering::Acquire))
            .map(|acked| if acked > end { 0 } else { acked })
            .collect();
        acked.sort_unstable();
        acked.len().checked_sub(k).map_or(0, |i| acked[i])
    }

    /// Ships whatever `peer` is missing, slicing the round's shared
    /// `image` (read on first use by whichever peer needs it). Its
    /// acked offset alone picks the frame, and its ack sets that
    /// offset, so a follower that answers an `Append` with another end
    /// gets the tail, or the whole image, from there on the next pass.
    fn sync_peer(
        &self,
        peer: &Peer,
        journal: &Journal,
        image: &OnceLock<Result<DurableImage, JournalError>>,
        epoch: u64,
    ) -> Result<(), ReplError> {
        for _ in 0..SHIPS_PER_ROUND {
            let from = peer.acked.load(Ordering::Acquire);
            if from == journal.end_offset() {
                return Ok(());
            }
            let image = image
                .get_or_init(|| journal.read_durable())
                .as_ref()
                .map_err(|e| ReplError::from(e.clone()))?;
            let frame = match image.missing(from) {
                Ok(ShipSource::Tail(bytes)) => {
                    if bytes.is_empty() {
                        return Ok(());
                    }
                    self.records_shipped.add(image.records_missing(from));
                    ReplFrame::Append {
                        epoch,
                        offset: from,
                        bytes,
                    }
                }
                // Nothing acked yet, an offset compaction reclaimed, or
                // one past our durable end (a suffix written under a
                // dead epoch): the whole image, replacing the follower's.
                Ok(ShipSource::Image(_)) | Err(_) => {
                    self.snapshots_shipped.inc();
                    ReplFrame::Snapshot {
                        epoch,
                        image: image.bytes(),
                    }
                }
            };
            match peer.link.ship(&frame)? {
                ReplAck::Acked { offset } => {
                    peer.acked.store(offset, Ordering::Release);
                    peer.acked_gauge.set(offset as i64);
                }
                ReplAck::Stale { current } => {
                    return Err(ReplError::StaleEpoch { epoch, current });
                }
            }
        }
        // Acks that never reach the end vouch for nothing: forget them,
        // so the follower holds nothing toward the commit point and its
        // next round opens with the whole image, as at first contact.
        let acked = peer.acked.swap(0, Ordering::AcqRel);
        peer.acked_gauge.set(0);
        Err(ReplError::Unconverged {
            acked,
            end: journal.end_offset(),
        })
    }

    /// Re-derives the lag gauges from the slowest follower: distance
    /// from the durable end in bytes, and whole records inside that
    /// distance, counted in the round's shared image. Exactly 0/0 once
    /// every follower acked the end.
    fn update_lag(&self, journal: &Journal, image: &OnceLock<Result<DurableImage, JournalError>>) {
        let end = journal.end_offset();
        let min_acked = self
            .peers
            .iter()
            .map(|p| p.acked.load(Ordering::Acquire))
            .min()
            .unwrap_or(end);
        let lag_bytes = end.saturating_sub(min_acked);
        self.lag_bytes.set(lag_bytes as i64);
        let lag_records = if lag_bytes == 0 {
            0
        } else {
            // A lagging follower needed bytes this round, so its ship
            // already read the image: this is not a second read.
            let image = image.get_or_init(|| journal.read_durable());
            image
                .as_ref()
                .map_or(0, |image| image.records_missing(min_acked))
        };
        self.lag_records.set(lag_records as i64);
    }
}

impl fmt::Debug for Replicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replicator")
            .field("policy", &self.policy)
            .field("followers", &self.peers.len())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------- promotion

/// Installs a fresh [`Replicator`] over `followers` on `primary` and
/// begins `epoch`: the one arm step of a boot and of every promotion.
///
/// A `Quorum(k)` larger than the follower set could never be met, so
/// `k` is clamped to it: a shrinking cluster keeps acking, with weaker
/// durability, instead of bricking. The `repl.quorum` gauge reads the
/// follower acks a response now waits for, and a
/// clamp emits one Warn `quorum clamped` event with the requested and
/// effective `k`.
///
/// # Errors
///
/// Journal/replication failures while recording the epoch.
pub fn arm(
    primary: &Auditor,
    followers: &[(String, Arc<Follower>)],
    policy: ReplicationPolicy,
    epoch: u64,
    obs: &Obs,
) -> Result<(), ProtocolError> {
    let ReplicationPolicy::Quorum(requested) = policy;
    let k = requested.min(followers.len());
    if k < requested {
        obs.emit(Level::Warn, "repl", "quorum clamped", |f| {
            f.field("requested", requested);
            f.field("effective", k);
        });
    }
    obs.gauge("repl.quorum").set(k as i64);
    let mut replicator = Replicator::new(obs, ReplicationPolicy::Quorum(k));
    for (name, follower) in followers {
        replicator =
            replicator.with_follower(name.clone(), InProcessLink::new(Arc::clone(follower)));
    }
    primary.set_replicator(Arc::new(replicator));
    primary.begin_epoch(epoch)
}

/// A follower promoted to primary by [`promote`].
#[derive(Debug)]
pub struct Promotion {
    /// The recovered primary, armed over the remaining followers and
    /// serving the new epoch.
    pub auditor: Auditor,
    /// The promoted follower's name.
    pub follower: String,
    /// What its replay found.
    pub report: RecoveryReport,
}

/// The one promotion rule, run after the primary died (fail-stop; the
/// dead primary is never read):
///
/// 1. pick the follower with the highest acked offset, ties to the
///    greatest name — under `Quorum(k)` it holds every acked record
///    (Raft's leader completeness);
/// 2. fence it at one past the newest epoch any follower has seen, so
///    the deposed primary's frames land as [`ReplAck::Stale`];
/// 3. replay its log with
///    [`Auditor::recover_with_obs`](crate::Auditor::recover_with_obs);
/// 4. [`arm`] it over the remaining followers at that epoch;
/// 5. record `repl.failovers`, `repl.failover_duration_us` and one
///    Info `follower promoted` event.
///
/// The promoted follower leaves `followers` once it is armed; after an
/// error the set is unchanged, and a retry picks the same follower.
///
/// # Errors
///
/// No follower to promote, recovery failures (damaged follower image),
/// or replication failures while recording the new epoch.
pub fn promote(
    followers: &mut Vec<(String, Arc<Follower>)>,
    policy: ReplicationPolicy,
    auditor_config: AuditorConfig,
    key: RsaPrivateKey,
    obs: &Obs,
) -> Result<Promotion, ProtocolError> {
    let t0 = std::time::Instant::now();
    let idx = (0..followers.len())
        .max_by_key(|&i| (followers[i].1.acked_offset(), &followers[i].0))
        .ok_or_else(|| ProtocolError::Storage("no follower to promote".into()))?;
    let epoch = 1 + followers
        .iter()
        .map(|(_, f)| f.current_epoch())
        .max()
        .unwrap_or(0);
    // Fence before replay: from this instant the deposed primary's
    // frames land as Stale, not as appends.
    followers[idx].1.fence(epoch);
    let (auditor, report) = Auditor::recover_with_obs(
        Arc::clone(followers[idx].1.backend()),
        auditor_config,
        key,
        obs,
    )?;
    // The follower leaves the set only once armed: a failed promotion
    // leaves the set whole, so a retry picks the same follower again.
    let rest: Vec<_> = (0..followers.len())
        .filter(|&i| i != idx)
        .map(|i| followers[i].clone())
        .collect();
    arm(&auditor, &rest, policy, epoch, obs)?;
    let (follower, _) = followers.remove(idx);
    obs.histogram("repl.failover_duration_us")
        .record_micros(t0.elapsed().as_micros() as u64);
    obs.counter("repl.failovers").inc();
    let records = report.records_applied;
    obs.emit(Level::Info, "repl", "follower promoted", |f| {
        f.field("follower", follower.as_str());
        f.field("records_replayed", records);
        f.field("epoch", epoch);
    });
    Ok(Promotion {
        auditor,
        follower,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{crc32, MemBackend, Record, FRAME_OVERHEAD, HEADER_LEN};
    use crate::test_support::auditor_key;
    use alidrone_geo::{Distance, GeoPoint, NoFlyZone};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn zone(i: u64) -> NoFlyZone {
        NoFlyZone::new(
            GeoPoint::new(40.0 + i as f64 * 0.01, -88.0).unwrap(),
            Distance::from_meters(100.0),
        )
    }

    /// A journaled primary armed at epoch 1 over `n` fresh followers
    /// named `f0`, `f1`, ...
    fn boot(
        n: usize,
        policy: ReplicationPolicy,
        obs: &Obs,
    ) -> (Auditor, Vec<(String, Arc<Follower>)>) {
        let followers: Vec<(String, Arc<Follower>)> = (0..n)
            .map(|i| {
                let backend = Arc::new(MemBackend::new());
                (format!("f{i}"), Arc::new(Follower::new(backend)))
            })
            .collect();
        let (primary, _) = Auditor::recover_with_obs(
            Arc::new(MemBackend::new()),
            AuditorConfig::default(),
            auditor_key().clone(),
            obs,
        )
        .unwrap();
        arm(&primary, &followers, policy, 1, obs).unwrap();
        (primary, followers)
    }

    /// Fails over to the most caught-up of `followers` by [`promote`].
    fn fail_over(
        followers: &mut Vec<(String, Arc<Follower>)>,
        policy: ReplicationPolicy,
        obs: &Obs,
    ) -> Auditor {
        promote(
            followers,
            policy,
            AuditorConfig::default(),
            auditor_key().clone(),
            obs,
        )
        .unwrap()
        .auditor
    }

    fn journal_with(n: u64) -> (Journal, Arc<MemBackend>) {
        let backend = Arc::new(MemBackend::new());
        let journal = Journal::open(backend.clone(), &[], 0).unwrap();
        for i in 0..n {
            journal
                .append_record(&Record::RegisterZone {
                    id: i,
                    lat_deg: 40.0,
                    lon_deg: -88.0,
                    radius_m: 100.0,
                })
                .unwrap();
        }
        (journal, backend)
    }

    #[test]
    fn shipping_keeps_follower_byte_identical() {
        let (journal, backend) = journal_with(0);
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let obs = Obs::noop();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
            .with_follower("f0", InProcessLink::new(follower.clone()));
        for i in 0..5 {
            journal.append_record(&Record::Epoch(i + 1)).unwrap();
            replicator.replicate(&journal).unwrap();
        }
        assert_eq!(follower.image().unwrap(), backend.bytes());
        assert_eq!(follower.acked_offset(), journal.end_offset());
        assert_eq!(follower.record_count(), 5);
        // Quiesced reconciliation: lag gauges read exactly zero.
        let snap = obs.snapshot();
        assert_eq!(snap.gauges["repl.lag_bytes"], 0);
        assert_eq!(snap.gauges["repl.lag_records"], 0);
        assert_eq!(
            snap.gauges["repl.acked_offset.f0"],
            journal.end_offset() as i64
        );
    }

    /// A link that can be partitioned (ships fail with a transport
    /// error while down).
    struct GateLink {
        inner: InProcessLink,
        up: AtomicBool,
    }

    impl GateLink {
        fn new(follower: Arc<Follower>) -> Arc<GateLink> {
            Arc::new(GateLink {
                inner: InProcessLink::new(follower),
                up: AtomicBool::new(true),
            })
        }
    }

    impl ReplLink for Arc<GateLink> {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            if !self.up.load(Ordering::Acquire) {
                return Err(ReplError::Transport("partitioned".into()));
            }
            self.inner.ship(frame)
        }
    }

    /// A backend that counts whole-image reads.
    #[derive(Default)]
    struct CountingBackend {
        inner: MemBackend,
        reads: AtomicU64,
    }

    impl StorageBackend for CountingBackend {
        fn read(&self) -> Result<Vec<u8>, JournalError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read()
        }

        fn append(&self, bytes: &[u8]) -> Result<(), JournalError> {
            self.inner.append(bytes)
        }

        fn replace(&self, bytes: &[u8]) -> Result<(), JournalError> {
            self.inner.replace(bytes)
        }
    }

    #[test]
    fn one_backend_read_per_round_with_a_follower_partitioned() {
        let obs = Obs::noop();
        let backend = Arc::new(CountingBackend::default());
        let (auditor, _) = Auditor::recover_with_obs(
            backend.clone(),
            AuditorConfig::default(),
            auditor_key().clone(),
            &obs,
        )
        .unwrap();
        let steady = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let dark = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let gate = GateLink::new(dark.clone());
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
            .with_follower("steady", InProcessLink::new(steady.clone()))
            .with_follower("dark", Arc::clone(&gate));
        auditor.set_replicator(Arc::new(replicator));
        auditor.begin_epoch(1).unwrap();
        auditor.register_zone_durable(zone(0)).unwrap();
        gate.up.store(false, Ordering::Release);
        auditor.register_zone_durable(zone(1)).unwrap();

        // One mutation with one follower partitioned: shipping to both
        // and the lag gauges share a single read of the image.
        let before = backend.reads.load(Ordering::Relaxed);
        auditor.register_zone_durable(zone(2)).unwrap();
        assert_eq!(backend.reads.load(Ordering::Relaxed) - before, 1);

        let image = backend.inner.bytes();
        assert_eq!(steady.image().unwrap(), image);
        let behind = &image[dark.acked_offset() as usize..];
        let snap = obs.snapshot();
        assert_eq!(snap.gauges["repl.lag_bytes"], behind.len() as i64);
        assert_eq!(snap.gauges["repl.lag_records"], 2);
        assert_eq!(Frames::tail(behind).map_while(Result::ok).count(), 2);
    }

    /// Two links whose images each wait, up to a timeout, for the
    /// other's image to arrive: both ship only when they ship at once.
    #[derive(Default)]
    struct Rendezvous {
        arrived: Mutex<usize>,
        met: std::sync::Condvar,
    }

    struct RendezvousLink {
        inner: InProcessLink,
        meet: Arc<Rendezvous>,
    }

    impl ReplLink for RendezvousLink {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            if matches!(frame, ReplFrame::Snapshot { .. }) {
                let mut arrived = self.meet.arrived.lock().unwrap();
                *arrived += 1;
                self.meet.met.notify_all();
                let (arrived, wait) = self
                    .meet
                    .met
                    .wait_timeout_while(arrived, Duration::from_secs(5), |n| *n < 2)
                    .unwrap();
                if wait.timed_out() {
                    return Err(ReplError::Transport(format!(
                        "{} of 2 images arrived",
                        *arrived
                    )));
                }
            }
            self.inner.ship(frame)
        }
    }

    /// A primary recovered from a history of `n` zone records (~41
    /// bytes each), with no replicator yet.
    fn primary_over(n: u64, obs: &Obs) -> (Auditor, Arc<MemBackend>) {
        let (_, backend) = journal_with(n);
        let (primary, _) = Auditor::recover_with_obs(
            backend.clone(),
            AuditorConfig::default(),
            auditor_key().clone(),
            obs,
        )
        .unwrap();
        (primary, backend)
    }

    /// Enough zone records for an image past `CONCURRENT_IMAGE_MIN`.
    const LARGE: u64 = 2_000;

    #[test]
    fn an_arm_ships_its_images_concurrently() {
        let obs = Obs::noop();
        let (primary, backend) = primary_over(LARGE, &obs);
        assert!(backend.len() >= CONCURRENT_IMAGE_MIN);
        let meet = Arc::new(Rendezvous::default());
        let followers: Vec<_> = (0..2)
            .map(|_| Arc::new(Follower::new(Arc::new(MemBackend::new()))))
            .collect();
        let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(2));
        for (i, follower) in followers.iter().enumerate() {
            let link = RendezvousLink {
                inner: InProcessLink::new(Arc::clone(follower)),
                meet: Arc::clone(&meet),
            };
            replicator = replicator.with_follower(format!("f{i}"), link);
        }
        primary.set_replicator(Arc::new(replicator));
        // Shipped one after another, the first image would wait out its
        // timeout for the second and fail the quorum of two.
        primary.begin_epoch(1).unwrap();
        for follower in &followers {
            assert_eq!(follower.image().unwrap(), backend.bytes());
        }
        assert_eq!(obs.snapshot().counters["repl.snapshots_shipped"], 2);
    }

    /// A link that records the thread every ship ran on.
    struct ThreadLink {
        inner: InProcessLink,
        ships: Arc<Mutex<Vec<thread::ThreadId>>>,
    }

    impl ReplLink for ThreadLink {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            self.ships.lock().unwrap().push(thread::current().id());
            self.inner.ship(frame)
        }
    }

    /// Arms `primary` over two fresh followers whose links record the
    /// thread of every ship, and returns those threads for the arm.
    fn arm_recording(primary: &Auditor, obs: &Obs) -> Arc<Mutex<Vec<thread::ThreadId>>> {
        let ships = Arc::new(Mutex::new(Vec::new()));
        let mut replicator = Replicator::new(obs, ReplicationPolicy::Quorum(1));
        for i in 0..2 {
            let link = ThreadLink {
                inner: InProcessLink::new(Arc::new(Follower::new(Arc::new(MemBackend::new())))),
                ships: Arc::clone(&ships),
            };
            replicator = replicator.with_follower(format!("f{i}"), link);
        }
        primary.set_replicator(Arc::new(replicator));
        primary.begin_epoch(1).unwrap();
        ships
    }

    #[test]
    fn a_tail_round_ships_on_the_calling_thread() {
        let obs = Obs::noop();
        let caller = thread::current().id();
        let (primary, _) = primary_over(LARGE, &obs);
        let ships = arm_recording(&primary, &obs);

        // The arm's two images: the first on a thread of its own, the
        // last on the caller's.
        let arm = std::mem::take(&mut *ships.lock().unwrap());
        assert_eq!(arm.len(), 2);
        assert_eq!(arm.iter().filter(|&&id| id == caller).count(), 1);

        // Every later round ships tails, each on the calling thread.
        for i in 0..3 {
            primary.register_zone_durable(zone(i)).unwrap();
        }
        let tails = ships.lock().unwrap().clone();
        assert_eq!(tails.len(), 6);
        assert!(tails.iter().all(|&id| id == caller), "{tails:?}");
    }

    #[test]
    fn images_under_the_spawn_threshold_ship_on_the_calling_thread() {
        let obs = Obs::noop();
        let (primary, backend) = primary_over(10, &obs);
        assert!(backend.len() < CONCURRENT_IMAGE_MIN);
        let arm = arm_recording(&primary, &obs).lock().unwrap().clone();
        assert_eq!(arm, [thread::current().id(); 2]);
    }

    #[test]
    fn a_concurrent_image_round_fences_and_reports_in_follower_order() {
        // f0 and f2 are cut off, f1 already follows a newer primary,
        // and f3 takes the image: four images, three on threads.
        let (journal, backend) = journal_with(LARGE);
        let obs = Obs::noop();
        let recorder = Arc::new(alidrone_obs::FlightRecorder::new(64));
        obs.set_subscriber(recorder.clone());
        let followers: Vec<_> = (0..4)
            .map(|_| Arc::new(Follower::new(Arc::new(MemBackend::new()))))
            .collect();
        followers[1].fence(5);
        let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1));
        for (i, follower) in followers.iter().enumerate() {
            let gate = GateLink::new(Arc::clone(follower));
            gate.up.store(i % 2 == 1, Ordering::Release);
            replicator = replicator.with_follower(format!("f{i}"), gate);
        }
        replicator.set_epoch(1);

        // Fencing overrides the quorum f3 alone would have met.
        let stale = Err(ReplError::StaleEpoch {
            epoch: 1,
            current: 5,
        });
        assert_eq!(replicator.replicate(&journal), stale);
        assert_eq!(followers[3].image().unwrap(), backend.bytes());
        assert_eq!(replicator.commit_offset(journal.end_offset()), 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["repl.snapshots_shipped"], 4);
        for (name, failures) in [("f0", 1), ("f1", 0), ("f2", 1), ("f3", 0)] {
            assert_eq!(
                snap.counters[&format!("repl.ship_failures.{name}")],
                failures
            );
        }
        assert_eq!(
            snap.gauges["repl.acked_offset.f3"],
            journal.end_offset() as i64
        );
        assert_eq!(snap.gauges["repl.lag_bytes"], journal.end_offset() as i64);
        let failed: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.message == "ship failed")
            .map(|e| e.field("follower").cloned())
            .collect();
        assert_eq!(failed, [Some("f0".into()), Some("f2".into())]);
        // A fenced replicator ships nothing more.
        assert_eq!(replicator.replicate(&journal), stale);
    }

    #[test]
    fn a_retried_begin_epoch_writes_one_epoch_record() {
        let obs = Obs::noop();
        let backend = Arc::new(MemBackend::new());
        let (primary, _) = Auditor::recover_with_obs(
            backend.clone(),
            AuditorConfig::default(),
            auditor_key().clone(),
            &obs,
        )
        .unwrap();
        let gate = GateLink::new(Arc::new(Follower::new(Arc::new(MemBackend::new()))));
        gate.up.store(false, Ordering::Release);
        primary.set_replicator(Arc::new(
            Replicator::new(&obs, ReplicationPolicy::Quorum(1))
                .with_follower("f0", Arc::clone(&gate)),
        ));
        let lost = primary.begin_epoch(1).unwrap_err();
        assert!(lost.to_string().contains("quorum lost"), "{lost}");
        assert_eq!(primary.current_epoch(), 0);

        // The retry's commit step commits the first record; the retry
        // itself writes nothing.
        gate.up.store(true, Ordering::Release);
        primary.begin_epoch(1).unwrap();
        assert_eq!(primary.current_epoch(), 1);
        let (recovered, report) =
            Auditor::recover(backend, AuditorConfig::default(), auditor_key().clone()).unwrap();
        assert_eq!(report.records_applied, 1);
        assert_eq!(recovered.current_epoch(), 1);
    }

    #[test]
    fn quorum_fails_typed_when_no_follower_reachable() {
        let (journal, _) = journal_with(1);
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let gate = GateLink::new(follower);
        let obs = Obs::noop();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
            .with_follower("f0", Arc::clone(&gate));
        gate.up.store(false, Ordering::Release);
        assert_eq!(
            replicator.replicate(&journal),
            Err(ReplError::QuorumLost {
                acked: 0,
                needed: 1
            })
        );
        // Lag is visible while the follower is dark.
        assert!(obs.snapshot().gauges["repl.lag_bytes"] > 0);
        // Heal: the same replicate converges and clears the lag.
        gate.up.store(true, Ordering::Release);
        replicator.replicate(&journal).unwrap();
        assert_eq!(obs.snapshot().gauges["repl.lag_bytes"], 0);
    }

    #[test]
    fn quorum_zero_absorbs_partition_into_lag_metrics() {
        let (journal, _) = journal_with(2);
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let gate = GateLink::new(follower);
        let obs = Obs::noop();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(0))
            .with_follower("f0", Arc::clone(&gate));
        gate.up.store(false, Ordering::Release);
        replicator.replicate(&journal).unwrap();
        let snap = obs.snapshot();
        assert!(snap.gauges["repl.lag_bytes"] > 0);
        assert_eq!(snap.gauges["repl.lag_records"], 2);
        assert_eq!(snap.counter("repl.ship_failures.f0"), 1);
    }

    /// Satellite: compaction racing catch-up. A follower that missed a
    /// compaction resumes via snapshot-then-tail and ends byte-identical
    /// to one that never missed a frame.
    #[test]
    fn compaction_racing_catch_up_resumes_snapshot_then_tail() {
        let obs = Obs::noop();
        let key = auditor_key().clone();

        // Reference: a follower that sees every frame, uninterrupted.
        let steady = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        // Laggard: partitioned across the compaction.
        let laggard = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let gate = GateLink::new(laggard.clone());

        let (auditor, _) = Auditor::recover_with_obs(
            Arc::new(MemBackend::new()),
            AuditorConfig::default(),
            key,
            &obs,
        )
        .unwrap();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(0))
            .with_follower("steady", InProcessLink::new(steady.clone()))
            .with_follower("laggard", Arc::clone(&gate));
        auditor.set_replicator(Arc::new(replicator));
        auditor.begin_epoch(1).unwrap();

        auditor.register_zone(zone(0));
        auditor.register_zone(zone(1));
        // Partition the laggard, then mutate and compact past its
        // acked offset.
        gate.up.store(false, Ordering::Release);
        auditor.register_zone(zone(2));
        auditor.compact_journal().unwrap();
        auditor.register_zone(zone(3));
        assert_ne!(laggard.image().unwrap(), steady.image().unwrap());
        // Heal: the next mutation ships snapshot-then-tail.
        gate.up.store(true, Ordering::Release);
        auditor.register_zone(zone(4));
        assert_eq!(laggard.image().unwrap(), steady.image().unwrap());
        assert_eq!(laggard.acked_offset(), steady.acked_offset());

        // Both recover to the same auditor state as the primary.
        let (from_laggard, _) = Auditor::recover(
            Arc::clone(laggard.backend()),
            AuditorConfig::default(),
            auditor_key().clone(),
        )
        .unwrap();
        assert_eq!(from_laggard.snapshot(), auditor.snapshot());
        assert_eq!(from_laggard.current_epoch(), 1);
    }

    #[test]
    fn promotion_fences_the_deposed_primary() {
        let obs = Obs::noop();
        let policy = ReplicationPolicy::Quorum(1);
        let (old_primary, mut followers) = boot(2, policy, &obs);
        old_primary.register_zone_durable(zone(0)).unwrap();
        assert_eq!(old_primary.current_epoch(), 1);

        let promoted = fail_over(&mut followers, policy, &obs);
        assert_eq!(promoted.current_epoch(), 2);
        // The promoted follower replayed the shipped log: the zone is
        // there and verdict-serving state matches the old primary's.
        assert_eq!(promoted.snapshot(), old_primary.snapshot());

        // The deposed primary is fenced at every surviving follower:
        // its next durable mutation fails with the typed stale-epoch
        // error (surfaced as ProtocolError::Storage at the API).
        let err = old_primary.register_zone_durable(zone(1)).unwrap_err();
        assert!(
            err.to_string().contains("stale epoch"),
            "expected stale-epoch fencing, got: {err}"
        );
        // ...and stays fenced on retry, even though the first failure
        // already marked the replicator.
        let err = old_primary.register_zone_durable(zone(2)).unwrap_err();
        assert!(err.to_string().contains("stale epoch"), "{err}");

        // The new primary keeps serving durable mutations.
        promoted.register_zone_durable(zone(3)).unwrap();
        assert_eq!(obs.snapshot().gauges["repl.epoch"], 2);
        assert_eq!(obs.snapshot().counter("repl.failovers"), 1);
    }

    /// A link whose follower can be swapped for a restarted one.
    struct RestartLink(Mutex<Arc<Follower>>);

    impl ReplLink for Arc<RestartLink> {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            let follower = Arc::clone(&self.0.lock().unwrap());
            follower.apply(frame)
        }
    }

    /// The `(size, root, chain_head)` a recovery of `image` reaches.
    fn recovered_head(image: Vec<u8>) -> (u64, [u8; 32], [u8; 32]) {
        let backend = Arc::new(MemBackend::with_bytes(image));
        let (auditor, _) =
            Auditor::recover(backend, AuditorConfig::default(), auditor_key().clone()).unwrap();
        let sth = auditor.signed_tree_head().unwrap();
        (sth.size, sth.root, sth.chain_head)
    }

    #[test]
    fn a_restarted_follower_keeps_its_fence_and_converges() {
        // Once over an image shipped frame by frame, once over a
        // compacted image, whose header records its logical base.
        for compact in [false, true] {
            let obs = Obs::noop();
            let store = Arc::new(MemBackend::new());
            let link = Arc::new(RestartLink(Mutex::new(Arc::new(Follower::new(
                store.clone(),
            )))));
            let primary_store = Arc::new(MemBackend::new());
            let (primary, _) = Auditor::recover(
                primary_store.clone(),
                AuditorConfig::default(),
                auditor_key().clone(),
            )
            .unwrap();
            let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
                .with_follower("f0", Arc::clone(&link));
            primary.set_replicator(Arc::new(replicator));
            primary.begin_epoch(1).unwrap();
            primary.register_zone_durable(zone(0)).unwrap();
            if compact {
                primary.compact_journal().unwrap();
                primary.register_zone_durable(zone(1)).unwrap();
            }

            let f0 = Arc::new(Follower::new(store.clone()));
            assert_eq!(f0.current_epoch(), 1, "compact {compact}");
            // A lower-epoch primary is fenced and lands nothing.
            let held = store.bytes();
            let (stale, _) = journal_with(2);
            let err = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
                .with_follower("f0", InProcessLink::new(Arc::clone(&f0)))
                .replicate(&stale)
                .unwrap_err();
            assert_eq!(
                err,
                ReplError::StaleEpoch {
                    epoch: 0,
                    current: 1
                }
            );
            assert_eq!(store.bytes(), held, "compact {compact}");

            // The replicator that shipped to f0 before its restart
            // resumes it by tail in the next round...
            let before = link.0.lock().unwrap().acked_offset();
            assert_eq!(f0.acked_offset(), before, "compact {compact}");
            let snapshots = obs.snapshot().counter("repl.snapshots_shipped");
            *link.0.lock().unwrap() = Arc::clone(&f0);
            primary.register_zone_durable(zone(2)).unwrap();
            assert_eq!(store.bytes(), primary_store.bytes(), "compact {compact}");
            assert_eq!(
                obs.snapshot().counter("repl.snapshots_shipped"),
                snapshots,
                "compact {compact}"
            );
            assert_eq!(
                recovered_head(store.bytes()),
                recovered_head(primary_store.bytes())
            );

            // ...and so does a fresh one: the primary restarted over its
            // own backend and re-armed at the current epoch.
            drop(primary);
            let (primary, _) = Auditor::recover(
                primary_store.clone(),
                AuditorConfig::default(),
                auditor_key().clone(),
            )
            .unwrap();
            let f0 = Arc::new(Follower::new(store.clone()));
            arm(
                &primary,
                &[("f0".into(), f0)],
                ReplicationPolicy::Quorum(1),
                1,
                &obs,
            )
            .unwrap();
            assert_eq!(store.bytes(), primary_store.bytes(), "compact {compact}");
            assert_eq!(
                recovered_head(store.bytes()),
                recovered_head(primary_store.bytes())
            );
        }
    }

    #[test]
    fn a_restarted_follower_drops_what_it_cannot_verify_and_catches_up() {
        // A torn final frame costs that frame: the follower acks the
        // header's base plus what it kept, and the replicator that
        // shipped to it before the restart resumes it by tail. Rot in
        // the first state record of a compacted image costs the whole
        // snapshot run, and with it every record: the history before
        // the base lived in that run, so the follower holds nothing,
        // acks 0, and takes the compacted image again as a Snapshot.
        for rot in [false, true] {
            let obs = Obs::noop();
            let store = Arc::new(MemBackend::new());
            let link = Arc::new(RestartLink(Mutex::new(Arc::new(Follower::new(
                store.clone(),
            )))));
            let primary_store = Arc::new(MemBackend::new());
            let (primary, _) = Auditor::recover(
                primary_store.clone(),
                AuditorConfig::default(),
                auditor_key().clone(),
            )
            .unwrap();
            let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
                .with_follower("f0", Arc::clone(&link));
            primary.set_replicator(Arc::new(replicator));
            primary.begin_epoch(1).unwrap();
            primary.register_zone_durable(zone(0)).unwrap();
            primary.register_zone_durable(zone(1)).unwrap();
            primary.compact_journal().unwrap();
            primary.register_zone_durable(zone(2)).unwrap();

            let image = store.bytes();
            let ends: Vec<usize> = Frames::image(&image).map(|f| f.unwrap().end()).collect();
            let base = link.0.lock().unwrap().acked_offset() - image.len() as u64;
            assert!(base > 0, "the image is compacted");
            let (damaged, kept, offset) = if rot {
                let mut damaged = image.clone();
                damaged[ends[0] + FRAME_OVERHEAD + 2] ^= 0x10;
                (damaged, 0, 0)
            } else {
                let kept = ends[ends.len() - 2];
                (image[..image.len() - 3].to_vec(), kept, base + kept as u64)
            };
            store.replace(&damaged).unwrap();
            let f0 = Arc::new(Follower::with_obs(store.clone(), &obs));
            assert_eq!(f0.acked_offset(), offset, "rot {rot}");
            assert_eq!(store.bytes(), image[..kept]);
            assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);

            let snapshots = obs.snapshot().counter("repl.snapshots_shipped");
            *link.0.lock().unwrap() = f0;
            primary.register_zone_durable(zone(3)).unwrap();
            assert_eq!(store.bytes(), primary_store.bytes());
            assert_eq!(
                obs.snapshot().counter("repl.snapshots_shipped"),
                snapshots + u64::from(rot),
                "rot {rot}"
            );
            assert_eq!(
                recovered_head(store.bytes()),
                recovered_head(primary_store.bytes())
            );
        }
    }

    #[test]
    fn a_clamped_quorum_shows_on_the_gauge_and_once_as_an_event() {
        let obs = Obs::noop();
        let recorder = Arc::new(alidrone_obs::FlightRecorder::new(64));
        obs.set_subscriber(recorder.clone());
        let policy = ReplicationPolicy::Quorum(2);
        let (primary, mut followers) = boot(2, policy, &obs);
        assert_eq!(obs.snapshot().gauges["repl.quorum"], 2);
        primary.register_zone_durable(zone(0)).unwrap();

        let promoted = fail_over(&mut followers, policy, &obs);
        assert_eq!(obs.snapshot().gauges["repl.quorum"], 1);
        let clamps: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.message == "quorum clamped")
            .collect();
        assert_eq!(clamps.len(), 1, "{clamps:?}");
        assert_eq!(clamps[0].level, Level::Warn);
        assert_eq!(clamps[0].field("requested"), Some(&2usize.into()));
        assert_eq!(clamps[0].field("effective"), Some(&1usize.into()));
        // The clamped quorum still gates acks on the survivor.
        promoted.register_zone_durable(zone(1)).unwrap();
    }

    #[test]
    fn promotion_picks_the_most_caught_up_follower_and_ties_to_the_greatest_name() {
        let obs = Obs::noop();
        let backends: Vec<Arc<MemBackend>> = (0..3).map(|_| Arc::new(MemBackend::new())).collect();
        let mut followers: Vec<(String, Arc<Follower>)> = ["b", "c", "a"]
            .iter()
            .zip(&backends)
            .map(|(name, b)| (name.to_string(), Arc::new(Follower::new(b.clone()))))
            .collect();
        let (primary, _) = Auditor::recover(
            Arc::new(MemBackend::new()),
            AuditorConfig::default(),
            auditor_key().clone(),
        )
        .unwrap();
        arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
        primary.register_zone_durable(zone(0)).unwrap();
        // "a" and "b" take the next record, "c" misses it.
        backends[1].fail_next_append();
        primary.register_zone_durable(zone(1)).unwrap();
        drop(primary);

        let promotion = promote(
            &mut followers,
            ReplicationPolicy::Quorum(1),
            AuditorConfig::default(),
            auditor_key().clone(),
            &obs,
        )
        .unwrap();
        assert_eq!(promotion.follower, "b");
        assert_eq!(promotion.auditor.zone_count(), 2);
        assert_eq!(promotion.auditor.current_epoch(), 2);
        let names: Vec<&str> = followers.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["c", "a"]);
        // The laggard caught up under the new epoch.
        assert_eq!(followers[0].1.current_epoch(), 2);
        assert_eq!(
            followers[0].1.image().unwrap(),
            followers[1].1.image().unwrap()
        );
        assert_eq!(obs.snapshot().counter("repl.failovers"), 1);
    }

    #[test]
    fn a_failed_promotion_can_be_retried_without_losing_acked_records() {
        let obs = Obs::noop();
        let backends: Vec<Arc<MemBackend>> = (0..2).map(|_| Arc::new(MemBackend::new())).collect();
        let mut followers: Vec<(String, Arc<Follower>)> = backends
            .iter()
            .enumerate()
            .map(|(i, b)| (format!("f{i}"), Arc::new(Follower::new(b.clone()))))
            .collect();
        let (primary, _) = Auditor::recover(
            Arc::new(MemBackend::new()),
            AuditorConfig::default(),
            auditor_key().clone(),
        )
        .unwrap();
        arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
        primary.register_zone_durable(zone(0)).unwrap();
        // Only f1 holds the second zone.
        backends[0].fail_next_append();
        primary.register_zone_durable(zone(1)).unwrap();
        drop(primary);

        // f0's disk is full, so the new epoch misses its quorum.
        backends[0].set_capacity(Some(0));
        let promote = |followers: &mut Vec<(String, Arc<Follower>)>| {
            promote(
                followers,
                ReplicationPolicy::Quorum(1),
                AuditorConfig::default(),
                auditor_key().clone(),
                &obs,
            )
        };
        assert!(promote(&mut followers).is_err());
        assert_eq!(followers.len(), 2, "a failed promotion keeps its follower");
        assert_eq!(obs.snapshot().counter("repl.failovers"), 0);

        backends[0].set_capacity(None);
        let promotion = promote(&mut followers).unwrap();
        assert_eq!(promotion.follower, "f1");
        assert_eq!(promotion.auditor.zone_count(), 2);
        assert_eq!(promotion.auditor.current_epoch(), 3);
        assert_eq!(obs.snapshot().counter("repl.failovers"), 1);
    }

    #[test]
    fn promotion_without_followers_is_a_typed_error() {
        let mut followers = Vec::new();
        let err = promote(
            &mut followers,
            ReplicationPolicy::Quorum(1),
            AuditorConfig::default(),
            auditor_key().clone(),
            &Obs::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::Storage(_)), "{err}");
    }

    #[test]
    fn divergent_follower_is_forced_back_with_a_replace() {
        // A follower holding MORE bytes than the primary's durable end
        // (a suffix from a dead epoch) must be truncated wholesale.
        let (journal, _) = journal_with(2);
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        // Hand-feed the follower a longer, divergent (but well-formed —
        // the chain check refuses garbage outright) image from a dead
        // epoch's primary.
        let (longer, longer_backend) = journal_with(4);
        assert!(longer.end_offset() > journal.end_offset());
        let feed_longer = || {
            follower
                .apply(&ReplFrame::Snapshot {
                    epoch: 1,
                    image: &longer_backend.bytes(),
                })
                .unwrap()
        };
        feed_longer();
        assert!(follower.acked_offset() > journal.end_offset());
        let obs = Obs::noop();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
            .with_follower("f0", InProcessLink::new(follower.clone()));
        replicator.set_epoch(1);
        // The replicator's first frame to it replaces its image.
        replicator.replicate(&journal).unwrap();
        assert_eq!(follower.acked_offset(), journal.end_offset());
        assert_eq!(
            follower.image().unwrap(),
            journal.read_durable().unwrap().bytes()
        );
        // After first contact too: the follower answers the next tail
        // with an end past the durable end, and gets the image again.
        feed_longer();
        journal.append_record(&Record::Epoch(1)).unwrap();
        assert!(follower.acked_offset() > journal.end_offset());
        let snapshots = obs.snapshot().counter("repl.snapshots_shipped");
        replicator.replicate(&journal).unwrap();
        assert_eq!(
            obs.snapshot().counter("repl.snapshots_shipped"),
            snapshots + 1
        );
        assert_eq!(
            follower.image().unwrap(),
            journal.read_durable().unwrap().bytes()
        );
    }

    /// A link that loses every image frame while `images` is off.
    struct ImageGate {
        inner: InProcessLink,
        images: AtomicBool,
    }

    impl ReplLink for Arc<ImageGate> {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            if matches!(frame, ReplFrame::Snapshot { .. }) && !self.images.load(Ordering::Acquire) {
                return Err(ReplError::Transport("image lost".into()));
            }
            self.inner.ship(frame)
        }
    }

    #[test]
    fn an_ack_past_the_durable_end_commits_nothing() {
        let (journal, _) = journal_with(2);
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let link = Arc::new(ImageGate {
            inner: InProcessLink::new(follower.clone()),
            images: AtomicBool::new(true),
        });
        let replicator = Replicator::new(&Obs::noop(), ReplicationPolicy::Quorum(1))
            .with_follower("f0", Arc::clone(&link));
        replicator.set_epoch(1);
        replicator.replicate(&journal).unwrap();
        let end = journal.end_offset();
        assert_eq!(replicator.commit_offset(end), end);

        // The follower takes a longer image of a dead primary, so it
        // answers our next Append with its own end, past ours, and the
        // image meant to replace that suffix is lost on the link.
        let (_, longer) = journal_with(4);
        let image = ReplFrame::Snapshot {
            epoch: 1,
            image: &longer.bytes(),
        };
        follower.apply(&image).unwrap();
        journal.append_record(&Record::Epoch(1)).unwrap();
        let end = journal.end_offset();
        assert!(follower.acked_offset() > end);
        link.images.store(false, Ordering::Release);
        assert!(replicator.replicate(&journal).is_err());
        assert_eq!(
            replicator.commit_offset(end),
            0,
            "holds none of our records"
        );

        // Once the image lands, the follower holds all of them.
        link.images.store(true, Ordering::Release);
        replicator.replicate(&journal).unwrap();
        assert_eq!(replicator.commit_offset(end), end);
    }

    /// A link whose follower acks offset 1 to every frame, so no frame
    /// ever brings it to the durable end.
    struct StuckLink {
        ships: AtomicU64,
    }

    impl ReplLink for Arc<StuckLink> {
        fn ship(&self, _: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            self.ships.fetch_add(1, Ordering::Relaxed);
            Ok(ReplAck::Acked { offset: 1 })
        }
    }

    #[test]
    fn a_follower_whose_acks_never_reach_the_end_fails_the_round() {
        let (journal, _) = journal_with(2);
        let link = Arc::new(StuckLink {
            ships: AtomicU64::new(0),
        });
        let obs = Obs::noop();
        let recorder = Arc::new(alidrone_obs::FlightRecorder::new(64));
        obs.set_subscriber(recorder.clone());
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1))
            .with_follower("f0", Arc::clone(&link));
        replicator.set_epoch(1);
        let end = journal.end_offset();
        let unconverged = ReplError::Unconverged { acked: 1, end };

        // The round gives up on the follower after four frames; the
        // policy then reports the quorum it could not meet.
        assert_eq!(
            replicator.replicate(&journal),
            Err(ReplError::QuorumLost {
                acked: 0,
                needed: 1
            })
        );
        assert_eq!(link.ships.load(Ordering::Relaxed), SHIPS_PER_ROUND as u64);
        assert_eq!(obs.snapshot().counter("repl.ship_failures.f0"), 1);
        let failed: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.message == "ship failed")
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(
            failed[0].field("error"),
            Some(&unconverged.to_string().as_str().into())
        );
        assert_eq!(replicator.commit_offset(end), 0);

        // The peer's own sync answers that error directly.
        let peer = &replicator.peers[0];
        assert_eq!(
            replicator.sync_peer(peer, &journal, &OnceLock::new(), 1),
            Err(unconverged)
        );
        assert_eq!(replicator.commit_offset(end), 0);
    }

    /// A shipped frame, its bytes copied out of the round's image.
    #[derive(Debug, PartialEq)]
    enum Shipped {
        Append {
            epoch: u64,
            offset: u64,
            bytes: Vec<u8>,
        },
        Snapshot {
            epoch: u64,
            image: Vec<u8>,
        },
    }

    /// A link that records every frame it ships, by value.
    struct RecordingLink {
        inner: InProcessLink,
        shipped: Mutex<Vec<Shipped>>,
    }

    impl ReplLink for Arc<RecordingLink> {
        fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
            let shipped = match *frame {
                ReplFrame::Append {
                    epoch,
                    offset,
                    bytes,
                } => Shipped::Append {
                    epoch,
                    offset,
                    bytes: bytes.to_vec(),
                },
                ReplFrame::Snapshot { epoch, image } => Shipped::Snapshot {
                    epoch,
                    image: image.to_vec(),
                },
            };
            self.shipped.lock().unwrap().push(shipped);
            self.inner.ship(frame)
        }
    }

    #[test]
    fn first_contact_replaces_a_deposed_primarys_suffix() {
        // Two journals of the same length and different bytes: the
        // follower holds the deposed primary's under epoch 1, so its
        // acked offset equals the new primary's durable end.
        let journal_of = |lat_deg: f64| {
            let backend = Arc::new(MemBackend::new());
            let journal = Journal::open(backend.clone(), &[], 0).unwrap();
            for id in 0..3 {
                let zone = Record::RegisterZone {
                    id,
                    lat_deg,
                    lon_deg: -88.0,
                    radius_m: 100.0,
                };
                journal.append_record(&zone).unwrap();
            }
            (journal, backend)
        };
        let (_, deposed) = journal_of(41.0);
        let (primary, primary_store) = journal_of(40.0);
        assert_eq!(deposed.bytes().len(), primary_store.bytes().len());
        assert_ne!(deposed.bytes(), primary_store.bytes());
        let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        follower
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: &deposed.bytes(),
            })
            .unwrap();
        assert_eq!(follower.acked_offset(), primary.end_offset());

        // A fresh replicator at the next epoch, as `arm` builds one
        // after `promote`: its first and only frame is the whole image.
        let link = Arc::new(RecordingLink {
            inner: InProcessLink::new(Arc::clone(&follower)),
            shipped: Mutex::new(Vec::new()),
        });
        let replicator = Replicator::new(&Obs::noop(), ReplicationPolicy::Quorum(1))
            .with_follower("f0", Arc::clone(&link));
        replicator.set_epoch(2);
        replicator.replicate(&primary).unwrap();
        let shipped = link.shipped.lock().unwrap();
        assert_eq!(shipped.len(), 1, "one frame");
        assert_eq!(
            shipped[0],
            Shipped::Snapshot {
                epoch: 2,
                image: primary_store.bytes(),
            }
        );
        assert_eq!(follower.image().unwrap(), primary_store.bytes());
        assert_eq!(follower.current_epoch(), 2);

        // An empty follower answers an Append with its end, 0, and
        // persists nothing, wherever the Append starts.
        let empty = Follower::new(Arc::new(MemBackend::new()));
        for offset in [0, primary.end_offset()] {
            let append = ReplFrame::Append {
                epoch: 2,
                offset,
                bytes: &primary_store.bytes(),
            };
            assert_eq!(empty.apply(&append), Ok(ReplAck::Acked { offset: 0 }));
            assert_eq!(empty.image().unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn follower_refuses_tampered_shipped_frames() {
        // A journal of three zone records plus a correct Merkle
        // checkpoint ships cleanly...
        let (journal, backend) = journal_with(3);
        let mut chain = AuditChain::new();
        for i in 0..3 {
            chain.append(
                &Record::RegisterZone {
                    id: i,
                    lat_deg: 40.0,
                    lon_deg: -88.0,
                    radius_m: 100.0,
                }
                .to_payload(),
            );
        }
        journal
            .append_record(&Record::AuditCheckpoint {
                size: 3,
                root: chain.root(),
                sig: vec![7; 4],
            })
            .unwrap();
        let clean = backend.bytes();
        let honest = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        honest
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: &clean,
            })
            .unwrap();
        assert_eq!(honest.record_count(), 4);

        // ...but a CRC-intact payload rewrite of the second record is
        // refused at the checkpoint, persisting nothing.
        let mut tampered = clean.clone();
        let first_len = u32::from_be_bytes([
            tampered[HEADER_LEN],
            tampered[HEADER_LEN + 1],
            tampered[HEADER_LEN + 2],
            tampered[HEADER_LEN + 3],
        ]) as usize;
        let second = HEADER_LEN + FRAME_OVERHEAD + first_len;
        let len = u32::from_be_bytes([
            tampered[second],
            tampered[second + 1],
            tampered[second + 2],
            tampered[second + 3],
        ]) as usize;
        let payload_at = second + FRAME_OVERHEAD;
        tampered[payload_at + 2] ^= 0x01; // rewrite the zone id
        let fixed = crc32(&tampered[payload_at..payload_at + len]);
        tampered[second + 4..second + 8].copy_from_slice(&fixed.to_be_bytes());
        let obs = Obs::noop();
        let victim = Arc::new(Follower::with_obs(Arc::new(MemBackend::new()), &obs));
        let err = victim
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: &tampered,
            })
            .unwrap_err();
        assert!(
            matches!(err, ReplError::ChainDivergence { size: 3, .. }),
            "{err}"
        );
        assert_eq!(victim.acked_offset(), 0, "nothing persisted");
        assert_eq!(victim.image().unwrap(), Vec::<u8>::new());
        assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);

        // A plain bit-flip (stale CRC) is refused too, before decode.
        let mut flipped = clean.clone();
        flipped[payload_at + 2] ^= 0x01;
        let err = victim
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: &flipped,
            })
            .unwrap_err();
        assert!(matches!(err, ReplError::ChainDivergence { .. }), "{err}");
        assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 2);

        // A follower already holding the first record extends its chain
        // in place over the tampered tail (records 2 and 3) before the
        // checkpoint refuses it: the refusal must roll the chain back
        // to exactly its earlier size, head and root.
        let prefix = second;
        victim
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: &clean[..prefix],
            })
            .unwrap();
        let state = |f: &Follower| {
            let chain = f.chain.lock().unwrap();
            (chain.size(), chain.head(), chain.root())
        };
        let before = state(&victim);
        assert_eq!(before.0, 1);
        let err = victim
            .apply(&ReplFrame::Append {
                epoch: 1,
                offset: prefix as u64,
                bytes: &tampered[prefix..],
            })
            .unwrap_err();
        assert!(
            matches!(err, ReplError::ChainDivergence { size: 3, .. }),
            "{err}"
        );
        assert_eq!(state(&victim), before, "refusal left the chain moved");
        assert_eq!(victim.acked_offset(), prefix as u64);
        assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 3);
        // The honest tail then lands on the restored chain.
        victim
            .apply(&ReplFrame::Append {
                epoch: 1,
                offset: prefix as u64,
                bytes: &clean[prefix..],
            })
            .unwrap();
        assert_eq!(state(&victim), state(&honest));
        assert_eq!(victim.image().unwrap(), clean);
    }

    /// Applies `frame` to a fresh follower that first took `held` as
    /// its image, and asserts the frame is refused as divergent with
    /// nothing moved: acked offset, backend bytes, and the refusal
    /// counted on `repl.chain_divergence`.
    fn assert_refused_unchanged(held: &[u8], frame: &ReplFrame<'_>) {
        let obs = Obs::noop();
        let follower = Follower::with_obs(Arc::new(MemBackend::new()), &obs);
        if !held.is_empty() {
            follower
                .apply(&ReplFrame::Snapshot {
                    epoch: 1,
                    image: held,
                })
                .unwrap();
        }
        let (offset, image) = (follower.acked_offset(), follower.image().unwrap());
        let err = follower.apply(frame).unwrap_err();
        assert!(matches!(err, ReplError::ChainDivergence { .. }), "{err}");
        assert_eq!(follower.acked_offset(), offset);
        assert_eq!(follower.image().unwrap(), image);
        assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);
    }

    #[test]
    fn follower_refuses_an_image_of_another_journal_version() {
        let (_, backend) = journal_with(3);
        let mut image = backend.bytes();
        // Version 1, the format before headers recorded their base.
        image[4] = 1;
        // Recovery refuses this image, so a follower must not ack it.
        let recovered = Auditor::recover(
            Arc::new(MemBackend::with_bytes(image.clone())),
            AuditorConfig::default(),
            auditor_key().clone(),
        );
        assert!(recovered.is_err());
        // A follower restarted over it holds nothing, but leaves it in
        // its backend byte for byte, as it does an image whose header
        // rotted: only a shipped image replaces what it cannot read.
        let mut rotted = backend.bytes();
        rotted[7] ^= 0x01;
        for unreadable in [&image, &rotted] {
            let store = Arc::new(MemBackend::with_bytes(unreadable.clone()));
            let obs = Obs::noop();
            assert_eq!(Follower::with_obs(store.clone(), &obs).acked_offset(), 0);
            assert_eq!(&store.bytes(), unreadable);
            assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);
        }
        let (_, held) = journal_with(1);
        for held in [Vec::new(), held.bytes()] {
            assert_refused_unchanged(
                &held,
                &ReplFrame::Snapshot {
                    epoch: 1,
                    image: &image,
                },
            );
        }
    }

    #[test]
    fn follower_refuses_a_headerless_image() {
        let (_, backend) = journal_with(3);
        let bare = backend.bytes()[HEADER_LEN..].to_vec();
        let recovered = Auditor::recover(
            Arc::new(MemBackend::with_bytes(bare.clone())),
            AuditorConfig::default(),
            auditor_key().clone(),
        );
        assert!(recovered.is_err());
        let snapshot = ReplFrame::Snapshot {
            epoch: 1,
            image: &bare,
        };
        let (_, held) = journal_with(1);
        for held in [Vec::new(), held.bytes()] {
            assert_refused_unchanged(&held, &snapshot);
        }
        // An empty follower takes an image only from a Snapshot: an
        // Append is answered with its end, 0, and lands nothing.
        let follower = Follower::new(Arc::new(MemBackend::new()));
        let append = ReplFrame::Append {
            epoch: 1,
            offset: 0,
            bytes: &bare,
        };
        assert_eq!(follower.apply(&append), Ok(ReplAck::Acked { offset: 0 }));
        assert_eq!(follower.acked_offset(), 0);
        assert_eq!(follower.image().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn quorum_of_two_needs_two_followers() {
        let (journal, _) = journal_with(1);
        let f0 = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let f1 = Arc::new(Follower::new(Arc::new(MemBackend::new())));
        let gate = GateLink::new(f1);
        let obs = Obs::noop();
        let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(2))
            .with_follower("f0", InProcessLink::new(f0))
            .with_follower("f1", Arc::clone(&gate));
        gate.up.store(false, Ordering::Release);
        assert_eq!(
            replicator.replicate(&journal),
            Err(ReplError::QuorumLost {
                acked: 1,
                needed: 2
            })
        );
        gate.up.store(true, Ordering::Release);
        replicator.replicate(&journal).unwrap();
    }
}
