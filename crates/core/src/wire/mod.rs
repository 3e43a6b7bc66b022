//! The auditor's wire protocol.
//!
//! The paper deploys the AliDrone Server as a network service the drone
//! client talks to (Fig. 4); this module defines the byte-level protocol
//! for that link: a [`Request`]/[`Response`] pair with a hand-rolled,
//! length-prefixed binary codec ([`codec`]), a server loop
//! ([`AuditorServer`](crate::wire::server::AuditorServer)) and a typed
//! client over any [`Transport`](crate::wire::transport::Transport).
//!
//! # Trace envelope
//!
//! Request frames may be wrapped in an optional envelope that carries
//! distributed-tracing context and a remaining-deadline budget, each
//! optional:
//!
//! ```text
//! +------+------+-------+----------------------------+--------------------------+----------+
//! | 0xE7 | 0x02 | flags | trace_id(16) span_id(8)    | budget_micros (8, BE)    | payload… |
//! |      |      |       |   present iff flags & 0x01 |   present iff flags & 0x02 |        |
//! +------+------+-------+----------------------------+--------------------------+----------+
//! ```
//!
//! The magic byte `0xE7` can never begin a bare request (tags are 1–10),
//! so [`split_envelope`] distinguishes the two by the first byte: bare
//! frames — the untraced, deadline-free request — pass through
//! untouched, while enveloped frames stitch the client's span into the
//! server's trace. The `budget_micros` field carries the client's
//! *remaining* call budget (relative, so clocks need not be
//! synchronised); the server compares it against its own measured
//! queue wait and sheds requests whose budget has already expired
//! instead of executing them. A frame that *starts* like an envelope
//! but is truncated or carries any version other than 2 (including the
//! retired trace-only version 1) is malformed — never a panic.

pub mod codec;
pub mod server;
pub mod tcp;
pub mod transport;

use alidrone_crypto::bigint::BigUint;
use alidrone_crypto::rsa::RsaPublicKey;
use alidrone_geo::{Distance, GeoPoint, NoFlyZone, Timestamp};

use crate::audit::{ConsistencyProof, InclusionProof, SignedTreeHead};
use crate::messages::{Accusation, ZoneQuery};
use crate::{DroneId, ProtocolError, Verdict, ZoneId};
use codec::{Reader, Writer};

/// A client → auditor request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Step 0 — register a drone (`D⁺`, `T⁺`).
    RegisterDrone {
        /// The operator verification key `D⁺`.
        operator_public: RsaPublicKey,
        /// The TEE verification key `T⁺`.
        tee_public: RsaPublicKey,
    },
    /// Step 1 — register a circular zone.
    RegisterZone {
        /// The zone geometry.
        zone: NoFlyZone,
    },
    /// Steps 2–3 — a signed zone query.
    QueryZones(ZoneQuery),
    /// Step 4 — submit a plaintext PoA for a flight window.
    SubmitPoa {
        /// The submitting drone.
        drone_id: DroneId,
        /// Claimed takeoff time.
        window_start: Timestamp,
        /// Claimed landing time.
        window_end: Timestamp,
        /// `ProofOfAlibi::to_bytes` payload.
        poa: Vec<u8>,
    },
    /// Step 4, encrypted — RSAES blocks of the PoA payload.
    SubmitEncryptedPoa {
        /// The submitting drone.
        drone_id: DroneId,
        /// Claimed takeoff time.
        window_start: Timestamp,
        /// Claimed landing time.
        window_end: Timestamp,
        /// The RSA ciphertext blocks.
        blocks: Vec<Vec<u8>>,
    },
    /// A zone owner's accusation.
    Accuse(Accusation),
    /// Liveness probe. Served straight from the wire layer without
    /// touching the auditor, and exempt from admission control so
    /// health probes keep answering even when the server is shedding
    /// every drone request.
    HealthCheck,
    /// Transparency — fetch the signed tree head over the auditor's
    /// tamper-evident audit chain (see [`crate::audit`]).
    FetchTreeHead,
    /// Transparency — fetch the inclusion proof for the drone's latest
    /// stored verdict against the tree of `tree_size` entries.
    FetchInclusionProof {
        /// The drone whose verdict is being proven.
        drone_id: DroneId,
        /// Tree size to prove against (0 = the auditor's current size,
        /// typically the size of a tree head fetched just before).
        tree_size: u64,
    },
    /// Transparency — fetch the consistency proof between two tree
    /// heads, evidence the newer extends the older append-only.
    FetchConsistencyProof {
        /// The older tree size.
        old_size: u64,
        /// The newer tree size (0 = the auditor's current size).
        new_size: u64,
    },
}

/// An auditor → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The issued drone id.
    DroneRegistered(DroneId),
    /// The issued zone id.
    ZoneRegistered(ZoneId),
    /// Zones within the queried rectangle.
    Zones(Vec<(ZoneId, NoFlyZone)>),
    /// The verification verdict for a submission.
    Verdict(Verdict),
    /// The outcome of an accusation: refuted (true) or upheld with a
    /// reason.
    Accusation {
        /// `true` when the stored alibi refutes the accusation.
        refuted: bool,
        /// Reason text when upheld (empty when refuted).
        reason: String,
    },
    /// A protocol-level error.
    Error {
        /// Coarse machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server shed the request before execution (admission queue
    /// full or per-drone rate limit exceeded). Distinct from
    /// [`Response::Error`] so clients can machine-read the backoff
    /// hint without string parsing.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Answer to [`Request::HealthCheck`]: the server is alive, with a
    /// snapshot of its admission state.
    Healthy {
        /// Requests currently waiting in the admission queue.
        queue_depth: u32,
        /// Requests currently executing in worker threads.
        inflight: u32,
    },
    /// Answer to [`Request::FetchTreeHead`].
    TreeHead(SignedTreeHead),
    /// Answer to [`Request::FetchInclusionProof`].
    InclusionProof(InclusionProof),
    /// Answer to [`Request::FetchConsistencyProof`].
    ConsistencyProof(ConsistencyProof),
}

/// Machine-readable error classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Could not decode the request.
    Malformed,
    /// Unknown drone id.
    UnknownDrone,
    /// Unknown zone id.
    UnknownZone,
    /// Bad query signature.
    BadSignature,
    /// Nonce replay.
    NonceReplayed,
    /// Decryption of an encrypted submission failed.
    DecryptFailed,
    /// Anything else.
    Internal,
    /// The request's propagated deadline budget expired while it waited
    /// in the server's admission queue; it was shed before execution.
    DeadlineExpired,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::UnknownDrone => 1,
            ErrorCode::UnknownZone => 2,
            ErrorCode::BadSignature => 3,
            ErrorCode::NonceReplayed => 4,
            ErrorCode::DecryptFailed => 5,
            ErrorCode::Internal => 6,
            ErrorCode::DeadlineExpired => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => ErrorCode::Malformed,
            1 => ErrorCode::UnknownDrone,
            2 => ErrorCode::UnknownZone,
            3 => ErrorCode::BadSignature,
            4 => ErrorCode::NonceReplayed,
            5 => ErrorCode::DecryptFailed,
            6 => ErrorCode::Internal,
            7 => ErrorCode::DeadlineExpired,
            _ => return Err(ProtocolError::Malformed("error code")),
        })
    }
}

// --------------------------------------------------------- trace envelope

/// First byte of an enveloped frame. Deliberately outside the request
/// tag space (1–10) so the envelope is detectable without ambiguity.
pub const ENVELOPE_MAGIC: u8 = 0xE7;

/// The envelope layout version: a flags byte selecting optional trace
/// context and deadline-budget fields.
pub const ENVELOPE_VERSION: u8 = 2;

/// Flag bit: the trace context (trace_id + span_id) is present.
pub const ENVELOPE_FLAG_TRACE: u8 = 0x01;

/// Flag bit: the remaining-deadline budget (`budget_micros`) is
/// present.
pub const ENVELOPE_FLAG_BUDGET: u8 = 0x02;

/// The trace context a frame envelope carries across the wire: which
/// trace the request belongs to and which client-side span is its
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTraceContext {
    /// The 128-bit trace id shared by every span of the causal chain.
    pub trace_id: u128,
    /// The client-side span that issued the request (the server's
    /// remote parent).
    pub span_id: u64,
}

/// Everything an envelope can carry: optional trace context and an
/// optional remaining-deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireEnvelope {
    /// Distributed-tracing context, if the client propagated one.
    pub trace: Option<WireTraceContext>,
    /// The client's *remaining* call budget in microseconds at send
    /// time. Relative on purpose: the server compares it to its own
    /// measured queue wait, so client and server clocks never need to
    /// agree.
    pub budget_micros: Option<u64>,
}

/// Wraps a request payload in the smallest frame that carries `env`'s
/// fields: the bare payload when both are `None`, else an envelope
/// whose flags name the fields present.
pub fn encode_envelope(env: &WireEnvelope, payload: &[u8]) -> Vec<u8> {
    if env.trace.is_none() && env.budget_micros.is_none() {
        return payload.to_vec();
    }
    let mut flags = 0;
    if env.trace.is_some() {
        flags |= ENVELOPE_FLAG_TRACE;
    }
    if env.budget_micros.is_some() {
        flags |= ENVELOPE_FLAG_BUDGET;
    }
    let mut w = Writer::new();
    w.put_u8(ENVELOPE_MAGIC)
        .put_u8(ENVELOPE_VERSION)
        .put_u8(flags);
    if let Some(ctx) = env.trace {
        w.put_u128(ctx.trace_id).put_u64(ctx.span_id);
    }
    if let Some(budget) = env.budget_micros {
        w.put_u64(budget);
    }
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Splits an incoming frame into its [`WireEnvelope`] (trace context
/// and deadline budget, either optional) and the request payload.
///
/// Frames not starting with [`ENVELOPE_MAGIC`] are bare and pass
/// through unchanged with an empty envelope.
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] when a frame announces the
/// envelope but is truncated, sets unknown flags, or carries a version
/// other than [`ENVELOPE_VERSION`].
pub fn split_envelope(bytes: &[u8]) -> Result<(WireEnvelope, &[u8]), ProtocolError> {
    if bytes.first() != Some(&ENVELOPE_MAGIC) {
        return Ok((WireEnvelope::default(), bytes));
    }
    let mut r = Reader::new(&bytes[1..]);
    if r.get_u8()? != ENVELOPE_VERSION {
        return Err(ProtocolError::Malformed("unsupported envelope version"));
    }
    let flags = r.get_u8()?;
    if flags & !(ENVELOPE_FLAG_TRACE | ENVELOPE_FLAG_BUDGET) != 0 {
        return Err(ProtocolError::Malformed("unknown envelope flags"));
    }
    let mut header = 1 + 1 + 1;
    let trace = if flags & ENVELOPE_FLAG_TRACE != 0 {
        let trace_id = r.get_u128()?;
        let span_id = r.get_u64()?;
        header += 16 + 8;
        Some(WireTraceContext { trace_id, span_id })
    } else {
        None
    };
    let budget_micros = if flags & ENVELOPE_FLAG_BUDGET != 0 {
        header += 8;
        Some(r.get_u64()?)
    } else {
        None
    };
    Ok((
        WireEnvelope {
            trace,
            budget_micros,
        },
        &bytes[header..],
    ))
}

// ----------------------------------------------------------- request kinds

/// The wire-visible request kinds, indexed like the request tags minus
/// one; used for per-kind metric and span names.
pub const REQUEST_KINDS: [&str; 10] = [
    "register_drone",
    "register_zone",
    "query_zones",
    "submit_poa",
    "submit_encrypted_poa",
    "accuse",
    "health_check",
    "tree_head",
    "inclusion_proof",
    "consistency_proof",
];

pub(crate) fn request_kind_index(req: &Request) -> usize {
    match req {
        Request::RegisterDrone { .. } => 0,
        Request::RegisterZone { .. } => 1,
        Request::QueryZones(_) => 2,
        Request::SubmitPoa { .. } => 3,
        Request::SubmitEncryptedPoa { .. } => 4,
        Request::Accuse(_) => 5,
        Request::HealthCheck => 6,
        Request::FetchTreeHead => 7,
        Request::FetchInclusionProof { .. } => 8,
        Request::FetchConsistencyProof { .. } => 9,
    }
}

/// The kind name for a raw request tag byte (the first payload byte),
/// `None` for unknown tags. Lets transports label frames without fully
/// decoding them.
pub fn request_kind_from_tag(tag: u8) -> Option<&'static str> {
    match tag {
        REQ_REGISTER_DRONE..=REQ_CONSISTENCY_PROOF => Some(REQUEST_KINDS[(tag - 1) as usize]),
        _ => None,
    }
}

/// The admission cost of a request in token-bucket units — the knob
/// that makes PoA verification (an RSA verify per sample, by far the
/// paper's most expensive server operation) count ~10× a registration
/// or query against a drone's rate budget. Health checks are free:
/// they never touch the auditor.
pub fn request_cost(req: &Request) -> u32 {
    match req {
        Request::SubmitPoa { .. } | Request::SubmitEncryptedPoa { .. } => 10,
        Request::HealthCheck => 0,
        _ => 1,
    }
}

/// The drone a request claims to come from, when the wire format
/// carries one. Used to key the per-drone rate limiter; requests
/// without a drone id (registrations, accusations, health checks)
/// share an anonymous bucket.
pub fn source_drone(req: &Request) -> Option<DroneId> {
    match req {
        Request::QueryZones(q) => Some(q.drone_id),
        Request::SubmitPoa { drone_id, .. }
        | Request::SubmitEncryptedPoa { drone_id, .. }
        | Request::FetchInclusionProof { drone_id, .. } => Some(*drone_id),
        _ => None,
    }
}

// ---------------------------------------------------------------- helpers

fn put_public_key(w: &mut Writer, k: &RsaPublicKey) {
    w.put_bytes(&k.modulus().to_bytes_be());
    w.put_bytes(&k.exponent().to_bytes_be());
}

fn get_public_key(r: &mut Reader<'_>) -> Result<RsaPublicKey, ProtocolError> {
    let n = BigUint::from_bytes_be(r.get_bytes()?);
    let e = BigUint::from_bytes_be(r.get_bytes()?);
    RsaPublicKey::new(n, e).map_err(ProtocolError::Crypto)
}

fn put_point(w: &mut Writer, p: &GeoPoint) {
    w.put_f64(p.lat_deg());
    w.put_f64(p.lon_deg());
}

fn get_point(r: &mut Reader<'_>) -> Result<GeoPoint, ProtocolError> {
    let lat = r.get_f64()?;
    let lon = r.get_f64()?;
    GeoPoint::new(lat, lon).map_err(ProtocolError::Geo)
}

fn put_zone(w: &mut Writer, z: &NoFlyZone) {
    put_point(w, &z.center());
    w.put_f64(z.radius().meters());
}

fn get_zone(r: &mut Reader<'_>) -> Result<NoFlyZone, ProtocolError> {
    let center = get_point(r)?;
    let radius = Distance::from_meters(r.get_f64()?);
    NoFlyZone::try_new(center, radius).map_err(ProtocolError::Geo)
}

// ---------------------------------------------------------------- Request

const REQ_REGISTER_DRONE: u8 = 1;
const REQ_REGISTER_ZONE: u8 = 2;
const REQ_QUERY_ZONES: u8 = 3;
const REQ_SUBMIT_POA: u8 = 4;
const REQ_SUBMIT_ENCRYPTED: u8 = 5;
const REQ_ACCUSE: u8 = 6;
const REQ_HEALTH: u8 = 7;
const REQ_TREE_HEAD: u8 = 8;
const REQ_INCLUSION_PROOF: u8 = 9;
const REQ_CONSISTENCY_PROOF: u8 = 10;

impl Request {
    /// `true` for the request kinds a client resends after a lost
    /// response. Only the read-only kinds (accusations, health checks,
    /// tree heads and proofs) are truly idempotent; a resent write is
    /// applied again:
    ///
    /// - a registration journals a second record and issues a second id
    ///   for the same key pair or geometry;
    /// - a PoA submission is verified again, against the zone registry
    ///   as it is then, and appends a second
    ///   [`StoredPoa`](crate::StoredPoa) (~9.6 KB for 60 samples under
    ///   1024-bit keys). A zone registered after the flight can change
    ///   the resend's verdict, and accusation handling reads the latest
    ///   covering proof, so the resend can flip a later accusation.
    ///
    /// Zone queries are not resent: each consumes its signed nonce, so
    /// a replay is indistinguishable from an attack and is rejected by
    /// the anti-replay check.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::QueryZones(_))
    }

    /// Serialises the request.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::RegisterDrone {
                operator_public,
                tee_public,
            } => {
                w.put_u8(REQ_REGISTER_DRONE);
                put_public_key(&mut w, operator_public);
                put_public_key(&mut w, tee_public);
            }
            Request::RegisterZone { zone } => {
                w.put_u8(REQ_REGISTER_ZONE);
                put_zone(&mut w, zone);
            }
            Request::QueryZones(q) => {
                w.put_u8(REQ_QUERY_ZONES);
                w.put_u64(q.drone_id.value());
                put_point(&mut w, &q.corner1);
                put_point(&mut w, &q.corner2);
                for b in q.nonce {
                    w.put_u8(b);
                }
                w.put_bytes(&q.signature);
            }
            Request::SubmitPoa {
                drone_id,
                window_start,
                window_end,
                poa,
            } => {
                w.put_u8(REQ_SUBMIT_POA);
                w.put_u64(drone_id.value());
                w.put_f64(window_start.secs());
                w.put_f64(window_end.secs());
                w.put_bytes(poa);
            }
            Request::SubmitEncryptedPoa {
                drone_id,
                window_start,
                window_end,
                blocks,
            } => {
                w.put_u8(REQ_SUBMIT_ENCRYPTED);
                w.put_u64(drone_id.value());
                w.put_f64(window_start.secs());
                w.put_f64(window_end.secs());
                w.put_u32(blocks.len() as u32);
                for b in blocks {
                    w.put_bytes(b);
                }
            }
            Request::Accuse(a) => {
                w.put_u8(REQ_ACCUSE);
                w.put_u64(a.zone_id.value());
                w.put_u64(a.drone_id.value());
                w.put_f64(a.time.secs());
            }
            Request::HealthCheck => {
                w.put_u8(REQ_HEALTH);
            }
            Request::FetchTreeHead => {
                w.put_u8(REQ_TREE_HEAD);
            }
            Request::FetchInclusionProof {
                drone_id,
                tree_size,
            } => {
                w.put_u8(REQ_INCLUSION_PROOF);
                w.put_u64(drone_id.value());
                w.put_u64(*tree_size);
            }
            Request::FetchConsistencyProof { old_size, new_size } => {
                w.put_u8(REQ_CONSISTENCY_PROOF);
                w.put_u64(*old_size);
                w.put_u64(*new_size);
            }
        }
        w.into_bytes()
    }

    /// Parses a request.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] on framing problems and
    /// propagates field validation errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        let req = match tag {
            REQ_REGISTER_DRONE => Request::RegisterDrone {
                operator_public: get_public_key(&mut r)?,
                tee_public: get_public_key(&mut r)?,
            },
            REQ_REGISTER_ZONE => Request::RegisterZone {
                zone: get_zone(&mut r)?,
            },
            REQ_QUERY_ZONES => {
                let drone_id = DroneId::new(r.get_u64()?);
                let corner1 = get_point(&mut r)?;
                let corner2 = get_point(&mut r)?;
                let nonce: [u8; 16] = r.get_array()?;
                let signature = r.get_bytes()?.to_vec();
                Request::QueryZones(ZoneQuery {
                    drone_id,
                    corner1,
                    corner2,
                    nonce,
                    signature,
                })
            }
            REQ_SUBMIT_POA => Request::SubmitPoa {
                drone_id: DroneId::new(r.get_u64()?),
                window_start: Timestamp::from_secs(r.get_f64()?),
                window_end: Timestamp::from_secs(r.get_f64()?),
                poa: r.get_bytes()?.to_vec(),
            },
            REQ_SUBMIT_ENCRYPTED => {
                let drone_id = DroneId::new(r.get_u64()?);
                let window_start = Timestamp::from_secs(r.get_f64()?);
                let window_end = Timestamp::from_secs(r.get_f64()?);
                // Each block is a length-prefixed byte string.
                let n = r.get_count(4)?;
                if n > 1 << 20 {
                    return Err(ProtocolError::Malformed("too many blocks"));
                }
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(r.get_bytes()?.to_vec());
                }
                Request::SubmitEncryptedPoa {
                    drone_id,
                    window_start,
                    window_end,
                    blocks,
                }
            }
            REQ_ACCUSE => Request::Accuse(Accusation {
                zone_id: ZoneId::new(r.get_u64()?),
                drone_id: DroneId::new(r.get_u64()?),
                time: Timestamp::from_secs(r.get_f64()?),
            }),
            REQ_HEALTH => Request::HealthCheck,
            REQ_TREE_HEAD => Request::FetchTreeHead,
            REQ_INCLUSION_PROOF => Request::FetchInclusionProof {
                drone_id: DroneId::new(r.get_u64()?),
                tree_size: r.get_u64()?,
            },
            REQ_CONSISTENCY_PROOF => Request::FetchConsistencyProof {
                old_size: r.get_u64()?,
                new_size: r.get_u64()?,
            },
            _ => return Err(ProtocolError::Malformed("unknown request tag")),
        };
        r.finish()?;
        Ok(req)
    }
}

// --------------------------------------------------------------- Response

const RESP_DRONE: u8 = 1;
const RESP_ZONE: u8 = 2;
const RESP_ZONES: u8 = 3;
const RESP_VERDICT: u8 = 4;
const RESP_ACCUSATION: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_OVERLOADED: u8 = 7;
const RESP_HEALTHY: u8 = 8;
const RESP_TREE_HEAD: u8 = 9;
const RESP_INCLUSION_PROOF: u8 = 10;
const RESP_CONSISTENCY_PROOF: u8 = 11;

/// A Merkle proof path can never exceed one sibling per tree level
/// (64 levels covers 2⁶⁴ leaves; consistency proofs add one node).
const MAX_PROOF_PATH: usize = 65;

fn put_hash(w: &mut Writer, h: &[u8; 32]) {
    for b in h {
        w.put_u8(*b);
    }
}

fn put_path(w: &mut Writer, path: &[[u8; 32]]) {
    w.put_u32(path.len() as u32);
    for h in path {
        put_hash(w, h);
    }
}

fn get_path(r: &mut Reader<'_>) -> Result<Vec<[u8; 32]>, ProtocolError> {
    let n = r.get_u32()? as usize;
    if n > MAX_PROOF_PATH {
        return Err(ProtocolError::Malformed("proof path too long"));
    }
    let mut path = Vec::with_capacity(n);
    for _ in 0..n {
        path.push(r.get_array()?);
    }
    Ok(path)
}

const VERDICT_COMPLIANT: u8 = 0;
const VERDICT_EMPTY: u8 = 1;
const VERDICT_BAD_SIG: u8 = 2;
const VERDICT_NON_MONO: u8 = 3;
const VERDICT_WINDOW: u8 = 4;
const VERDICT_IMPOSSIBLE: u8 = 5;
const VERDICT_INSIDE: u8 = 6;
const VERDICT_INSUFFICIENT: u8 = 7;
const VERDICT_BAD_GAP: u8 = 8;
const VERDICT_GAP_CONTRADICTION: u8 = 9;

pub(crate) fn put_verdict(w: &mut Writer, v: &Verdict) {
    match v {
        Verdict::Compliant => {
            w.put_u8(VERDICT_COMPLIANT);
        }
        Verdict::EmptyPoa => {
            w.put_u8(VERDICT_EMPTY);
        }
        Verdict::BadSignature { index } => {
            w.put_u8(VERDICT_BAD_SIG);
            w.put_u64(*index as u64);
        }
        Verdict::NonMonotonic { index } => {
            w.put_u8(VERDICT_NON_MONO);
            w.put_u64(*index as u64);
        }
        Verdict::WindowNotCovered => {
            w.put_u8(VERDICT_WINDOW);
        }
        Verdict::ImpossibleTrace { index } => {
            w.put_u8(VERDICT_IMPOSSIBLE);
            w.put_u64(*index as u64);
        }
        Verdict::InsideZone { index, zone } => {
            w.put_u8(VERDICT_INSIDE);
            w.put_u64(*index as u64);
            w.put_u64(zone.value());
        }
        Verdict::InsufficientAlibi { pair_indices } => {
            w.put_u8(VERDICT_INSUFFICIENT);
            w.put_u32(pair_indices.len() as u32);
            for i in pair_indices {
                w.put_u64(*i as u64);
            }
        }
        Verdict::BadGapMarker { index } => {
            w.put_u8(VERDICT_BAD_GAP);
            w.put_u64(*index as u64);
        }
        Verdict::GapContradiction { index } => {
            w.put_u8(VERDICT_GAP_CONTRADICTION);
            w.put_u64(*index as u64);
        }
    }
}

pub(crate) fn get_verdict(r: &mut Reader<'_>) -> Result<Verdict, ProtocolError> {
    Ok(match r.get_u8()? {
        VERDICT_COMPLIANT => Verdict::Compliant,
        VERDICT_EMPTY => Verdict::EmptyPoa,
        VERDICT_BAD_SIG => Verdict::BadSignature {
            index: r.get_u64()? as usize,
        },
        VERDICT_NON_MONO => Verdict::NonMonotonic {
            index: r.get_u64()? as usize,
        },
        VERDICT_WINDOW => Verdict::WindowNotCovered,
        VERDICT_IMPOSSIBLE => Verdict::ImpossibleTrace {
            index: r.get_u64()? as usize,
        },
        VERDICT_INSIDE => Verdict::InsideZone {
            index: r.get_u64()? as usize,
            zone: ZoneId::new(r.get_u64()?),
        },
        VERDICT_INSUFFICIENT => {
            let n = r.get_count(8)?;
            if n > 1 << 24 {
                return Err(ProtocolError::Malformed("too many pair indices"));
            }
            let mut pair_indices = Vec::with_capacity(n);
            for _ in 0..n {
                pair_indices.push(r.get_u64()? as usize);
            }
            Verdict::InsufficientAlibi { pair_indices }
        }
        VERDICT_BAD_GAP => Verdict::BadGapMarker {
            index: r.get_u64()? as usize,
        },
        VERDICT_GAP_CONTRADICTION => Verdict::GapContradiction {
            index: r.get_u64()? as usize,
        },
        _ => return Err(ProtocolError::Malformed("unknown verdict tag")),
    })
}

impl Response {
    /// Serialises the response.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::DroneRegistered(id) => {
                w.put_u8(RESP_DRONE);
                w.put_u64(id.value());
            }
            Response::ZoneRegistered(id) => {
                w.put_u8(RESP_ZONE);
                w.put_u64(id.value());
            }
            Response::Zones(zones) => {
                w.put_u8(RESP_ZONES);
                w.put_u32(zones.len() as u32);
                for (id, z) in zones {
                    w.put_u64(id.value());
                    put_zone(&mut w, z);
                }
            }
            Response::Verdict(v) => {
                w.put_u8(RESP_VERDICT);
                put_verdict(&mut w, v);
            }
            Response::Accusation { refuted, reason } => {
                w.put_u8(RESP_ACCUSATION);
                w.put_u8(u8::from(*refuted));
                w.put_str(reason);
            }
            Response::Error { code, message } => {
                w.put_u8(RESP_ERROR);
                w.put_u8(code.to_u8());
                w.put_str(message);
            }
            Response::Overloaded { retry_after_ms } => {
                w.put_u8(RESP_OVERLOADED);
                w.put_u64(*retry_after_ms);
            }
            Response::Healthy {
                queue_depth,
                inflight,
            } => {
                w.put_u8(RESP_HEALTHY);
                w.put_u32(*queue_depth);
                w.put_u32(*inflight);
            }
            Response::TreeHead(sth) => {
                w.put_u8(RESP_TREE_HEAD);
                w.put_u64(sth.size);
                put_hash(&mut w, &sth.root);
                put_hash(&mut w, &sth.chain_head);
                w.put_bytes(&sth.signature);
            }
            Response::InclusionProof(p) => {
                w.put_u8(RESP_INCLUSION_PROOF);
                w.put_u64(p.index);
                w.put_u64(p.size);
                put_hash(&mut w, &p.leaf);
                put_path(&mut w, &p.path);
            }
            Response::ConsistencyProof(p) => {
                w.put_u8(RESP_CONSISTENCY_PROOF);
                w.put_u64(p.old_size);
                w.put_u64(p.new_size);
                put_path(&mut w, &p.path);
            }
        }
        w.into_bytes()
    }

    /// Parses a response.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] on framing problems.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(bytes);
        let resp = match r.get_u8()? {
            RESP_DRONE => Response::DroneRegistered(DroneId::new(r.get_u64()?)),
            RESP_ZONE => Response::ZoneRegistered(ZoneId::new(r.get_u64()?)),
            RESP_ZONES => {
                // An id, a center (two f64) and a radius per zone.
                let n = r.get_count(32)?;
                if n > 1 << 20 {
                    return Err(ProtocolError::Malformed("too many zones"));
                }
                let mut zones = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = ZoneId::new(r.get_u64()?);
                    zones.push((id, get_zone(&mut r)?));
                }
                Response::Zones(zones)
            }
            RESP_VERDICT => Response::Verdict(get_verdict(&mut r)?),
            RESP_ACCUSATION => Response::Accusation {
                refuted: r.get_u8()? != 0,
                reason: r.get_str()?.to_string(),
            },
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.get_u8()?)?,
                message: r.get_str()?.to_string(),
            },
            RESP_OVERLOADED => Response::Overloaded {
                retry_after_ms: r.get_u64()?,
            },
            RESP_HEALTHY => Response::Healthy {
                queue_depth: r.get_u32()?,
                inflight: r.get_u32()?,
            },
            RESP_TREE_HEAD => Response::TreeHead(SignedTreeHead {
                size: r.get_u64()?,
                root: r.get_array()?,
                chain_head: r.get_array()?,
                signature: r.get_bytes()?.to_vec(),
            }),
            RESP_INCLUSION_PROOF => Response::InclusionProof(InclusionProof {
                index: r.get_u64()?,
                size: r.get_u64()?,
                leaf: r.get_array()?,
                path: get_path(&mut r)?,
            }),
            RESP_CONSISTENCY_PROOF => Response::ConsistencyProof(ConsistencyProof {
                old_size: r.get_u64()?,
                new_size: r.get_u64()?,
                path: get_path(&mut r)?,
            }),
            _ => return Err(ProtocolError::Malformed("unknown response tag")),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{operator_key, origin, tee_key};

    fn zone() -> NoFlyZone {
        NoFlyZone::new(origin(), Distance::from_meters(123.0))
    }

    #[test]
    fn register_drone_round_trip() {
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn register_zone_round_trip() {
        let req = Request::RegisterZone { zone: zone() };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn query_round_trip() {
        let q = ZoneQuery::new_signed(
            DroneId::new(3),
            origin(),
            origin().destination(45.0, Distance::from_km(1.0)),
            [5u8; 16],
            operator_key(),
        )
        .unwrap();
        let req = Request::QueryZones(q);
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn submit_round_trips() {
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(9),
            window_start: Timestamp::from_secs(1.5),
            window_end: Timestamp::from_secs(99.5),
            poa: vec![1, 2, 3, 4],
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);

        let req = Request::SubmitEncryptedPoa {
            drone_id: DroneId::new(9),
            window_start: Timestamp::from_secs(1.5),
            window_end: Timestamp::from_secs(99.5),
            blocks: vec![vec![1; 64], vec![2; 64]],
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn accuse_round_trip() {
        let req = Request::Accuse(Accusation {
            zone_id: ZoneId::new(4),
            drone_id: DroneId::new(5),
            time: Timestamp::from_secs(123.25),
        });
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn proof_requests_round_trip() {
        let reqs = vec![
            Request::FetchTreeHead,
            Request::FetchInclusionProof {
                drone_id: DroneId::new(17),
                tree_size: 4096,
            },
            Request::FetchInclusionProof {
                drone_id: DroneId::new(18),
                tree_size: 0,
            },
            Request::FetchConsistencyProof {
                old_size: 12,
                new_size: 4099,
            },
        ];
        for req in reqs {
            assert_eq!(
                Request::from_bytes(&req.to_bytes()).unwrap(),
                req,
                "round trip failed"
            );
        }
    }

    #[test]
    fn proof_responses_round_trip() {
        let responses = vec![
            Response::TreeHead(crate::audit::SignedTreeHead {
                size: 99,
                root: [0xAB; 32],
                chain_head: [0xCD; 32],
                signature: vec![1, 2, 3, 4, 5],
            }),
            Response::TreeHead(crate::audit::SignedTreeHead {
                size: 0,
                root: [0; 32],
                chain_head: [0; 32],
                signature: Vec::new(),
            }),
            Response::InclusionProof(crate::audit::InclusionProof {
                index: 5,
                size: 64,
                leaf: [0x11; 32],
                path: (0..6).map(|i| [i as u8; 32]).collect(),
            }),
            Response::ConsistencyProof(crate::audit::ConsistencyProof {
                old_size: 12,
                new_size: 64,
                path: (0..4).map(|i| [0x40 | i as u8; 32]).collect(),
            }),
        ];
        for resp in responses {
            assert_eq!(
                Response::from_bytes(&resp.to_bytes()).unwrap(),
                resp,
                "round trip failed"
            );
        }
    }

    #[test]
    fn oversized_proof_path_rejected() {
        let mut resp = Response::InclusionProof(crate::audit::InclusionProof {
            index: 0,
            size: 1,
            leaf: [0; 32],
            path: Vec::new(),
        })
        .to_bytes();
        // Rewrite the path count (last four bytes of the encoding) to
        // exceed MAX_PROOF_PATH; the decoder must refuse rather than
        // allocate.
        let n = resp.len();
        resp[n - 4..].copy_from_slice(&(MAX_PROOF_PATH as u32 + 1).to_be_bytes());
        assert!(Response::from_bytes(&resp).is_err());
    }

    #[test]
    fn all_responses_round_trip() {
        let responses = vec![
            Response::DroneRegistered(DroneId::new(1)),
            Response::ZoneRegistered(ZoneId::new(2)),
            Response::Zones(vec![(ZoneId::new(3), zone())]),
            Response::Verdict(Verdict::Compliant),
            Response::Verdict(Verdict::EmptyPoa),
            Response::Verdict(Verdict::BadSignature { index: 7 }),
            Response::Verdict(Verdict::NonMonotonic { index: 8 }),
            Response::Verdict(Verdict::WindowNotCovered),
            Response::Verdict(Verdict::ImpossibleTrace { index: 9 }),
            Response::Verdict(Verdict::InsideZone {
                index: 10,
                zone: ZoneId::new(11),
            }),
            Response::Verdict(Verdict::InsufficientAlibi {
                pair_indices: vec![1, 5, 9],
            }),
            Response::Verdict(Verdict::BadGapMarker { index: 12 }),
            Response::Verdict(Verdict::GapContradiction { index: 13 }),
            Response::Accusation {
                refuted: true,
                reason: String::new(),
            },
            Response::Accusation {
                refuted: false,
                reason: "no coverage".into(),
            },
            Response::Error {
                code: ErrorCode::NonceReplayed,
                message: "nonce replayed".into(),
            },
            Response::Error {
                code: ErrorCode::DeadlineExpired,
                message: "budget expired in queue".into(),
            },
            Response::Overloaded { retry_after_ms: 75 },
            Response::Healthy {
                queue_depth: 3,
                inflight: 4,
            },
        ];
        for resp in responses {
            assert_eq!(
                Response::from_bytes(&resp.to_bytes()).unwrap(),
                resp,
                "round trip failed"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::from_bytes(&[0xEE]).is_err());
        assert!(Response::from_bytes(&[0xEE]).is_err());
        assert!(Request::from_bytes(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::RegisterZone { zone: zone() }.to_bytes();
        bytes.push(0);
        assert!(Request::from_bytes(&bytes).is_err());
    }

    fn traced(trace_id: u128, span_id: u64) -> WireEnvelope {
        WireEnvelope {
            trace: Some(WireTraceContext { trace_id, span_id }),
            budget_micros: None,
        }
    }

    #[test]
    fn envelope_round_trips_and_bare_frames_pass_through() {
        let payload = Request::RegisterZone { zone: zone() }.to_bytes();
        let env = traced(0x0123_4567_89AB_CDEF_0011_2233_4455_6677, 0xFEED_F00D);
        let framed = encode_envelope(&env, &payload);
        assert_eq!(
            framed[..3],
            [ENVELOPE_MAGIC, ENVELOPE_VERSION, ENVELOPE_FLAG_TRACE]
        );
        let (got, got_payload) = split_envelope(&framed).unwrap();
        assert_eq!(got, env);
        assert_eq!(got_payload, &payload[..]);
        // A bare frame passes through unchanged.
        let (none, bare) = split_envelope(&payload).unwrap();
        assert_eq!(none, WireEnvelope::default());
        assert_eq!(bare, &payload[..]);
    }

    #[test]
    fn truncated_envelope_is_malformed_not_a_panic() {
        let framed = encode_envelope(&traced(7, 9), &[]);
        for cut in 1..framed.len() {
            assert!(split_envelope(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_envelope_version_rejected() {
        let mut framed = encode_envelope(&traced(1, 2), &[REQ_ACCUSE]);
        framed[1] = 99;
        assert!(split_envelope(&framed).is_err());
    }

    #[test]
    fn request_tags_never_collide_with_the_envelope_magic() {
        for tag in [
            REQ_REGISTER_DRONE,
            REQ_REGISTER_ZONE,
            REQ_QUERY_ZONES,
            REQ_SUBMIT_POA,
            REQ_SUBMIT_ENCRYPTED,
            REQ_ACCUSE,
            REQ_HEALTH,
        ] {
            assert_ne!(tag, ENVELOPE_MAGIC);
            assert!(request_kind_from_tag(tag).is_some());
        }
        assert_eq!(request_kind_from_tag(ENVELOPE_MAGIC), None);
        assert_eq!(request_kind_from_tag(0), None);
        assert_eq!(request_kind_from_tag(REQ_SUBMIT_POA), Some("submit_poa"));
    }

    #[test]
    fn only_zone_queries_are_non_idempotent() {
        let q = ZoneQuery::new_signed(
            DroneId::new(3),
            origin(),
            origin(),
            [5u8; 16],
            operator_key(),
        )
        .unwrap();
        assert!(!Request::QueryZones(q).is_idempotent());
        for req in [
            Request::RegisterZone { zone: zone() },
            Request::SubmitPoa {
                drone_id: DroneId::new(1),
                window_start: Timestamp::from_secs(0.0),
                window_end: Timestamp::from_secs(1.0),
                poa: vec![],
            },
            Request::Accuse(Accusation {
                zone_id: ZoneId::new(1),
                drone_id: DroneId::new(1),
                time: Timestamp::from_secs(0.0),
            }),
        ] {
            assert!(req.is_idempotent(), "{req:?}");
        }
    }

    #[test]
    fn health_check_round_trips_and_is_free() {
        let req = Request::HealthCheck;
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
        assert!(req.is_idempotent());
        assert_eq!(request_cost(&req), 0);
        assert_eq!(source_drone(&req), None);
        assert_eq!(REQUEST_KINDS[request_kind_index(&req)], "health_check");
    }

    #[test]
    fn cost_classes_weight_verification_heaviest() {
        let submit = Request::SubmitPoa {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(1.0),
            poa: vec![],
        };
        let register = Request::RegisterZone { zone: zone() };
        assert!(request_cost(&submit) > request_cost(&register));
        assert_eq!(source_drone(&submit), Some(DroneId::new(1)));
        assert_eq!(source_drone(&register), None);
    }

    #[test]
    fn envelope_v2_round_trips_all_flag_combinations() {
        let payload = Request::HealthCheck.to_bytes();
        let ctx = WireTraceContext {
            trace_id: 42,
            span_id: 7,
        };
        let cases = [
            WireEnvelope {
                trace: Some(ctx),
                budget_micros: None,
            },
            WireEnvelope {
                trace: None,
                budget_micros: Some(125_000),
            },
            WireEnvelope {
                trace: Some(ctx),
                budget_micros: Some(0),
            },
            WireEnvelope {
                trace: Some(ctx),
                budget_micros: Some(u64::MAX),
            },
        ];
        for env in cases {
            let framed = encode_envelope(&env, &payload);
            assert_eq!(framed[0], ENVELOPE_MAGIC);
            assert_eq!(framed[1], ENVELOPE_VERSION);
            let (got, got_payload) = split_envelope(&framed).unwrap();
            assert_eq!(got, env);
            assert_eq!(got_payload, &payload[..]);
        }
    }

    #[test]
    fn untraced_deadline_free_frames_stay_bare() {
        // For every request kind an empty envelope encodes to exactly
        // the request bytes, and those split back to the same request.
        let requests: Vec<Request> = vec![
            Request::RegisterZone { zone: zone() },
            Request::SubmitPoa {
                drone_id: DroneId::new(9),
                window_start: Timestamp::from_secs(1.5),
                window_end: Timestamp::from_secs(99.5),
                poa: vec![1, 2, 3, 4],
            },
            Request::Accuse(Accusation {
                zone_id: ZoneId::new(4),
                drone_id: DroneId::new(5),
                time: Timestamp::from_secs(123.25),
            }),
            Request::HealthCheck,
        ];
        for req in requests {
            let payload = req.to_bytes();
            let bare = encode_envelope(&WireEnvelope::default(), &payload);
            assert_eq!(bare, payload, "bare frame must be byte-identical");
            let (env, rest) = split_envelope(&bare).unwrap();
            assert_eq!(env, WireEnvelope::default());
            assert_eq!(Request::from_bytes(rest).unwrap(), req);
        }
    }

    #[test]
    fn envelope_version_1_is_rejected() {
        // The retired trace-only layout: magic, 0x01, trace_id, span_id,
        // payload — no flags byte.
        let mut v1 = vec![ENVELOPE_MAGIC, 1];
        v1.extend_from_slice(&0xDEAD_BEEFu128.to_be_bytes());
        v1.extend_from_slice(&0xCAFEu64.to_be_bytes());
        v1.extend_from_slice(&Request::HealthCheck.to_bytes());
        assert_eq!(
            split_envelope(&v1).unwrap_err(),
            ProtocolError::Malformed("unsupported envelope version")
        );
    }

    #[test]
    fn truncated_or_bad_flag_v2_envelope_is_malformed() {
        let framed = encode_envelope(
            &WireEnvelope {
                trace: Some(WireTraceContext {
                    trace_id: 7,
                    span_id: 9,
                }),
                budget_micros: Some(1),
            },
            &[],
        );
        for cut in 1..framed.len() {
            assert!(split_envelope(&framed[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_flags = framed.clone();
        bad_flags[2] |= 0x80;
        assert!(split_envelope(&bad_flags).is_err());
    }

    #[test]
    fn invalid_zone_coordinates_rejected() {
        // Hand-craft a RegisterZone with latitude 95°.
        let mut w = Writer::new();
        w.put_u8(REQ_REGISTER_ZONE);
        w.put_f64(95.0);
        w.put_f64(0.0);
        w.put_f64(10.0);
        assert!(Request::from_bytes(&w.into_bytes()).is_err());
    }
}
