//! Protocol-level error type.

use std::error::Error;
use std::fmt;

use crate::{DroneId, ZoneId};

/// Errors produced by protocol operations (registration, queries,
/// submission plumbing). Verification *verdicts* — a PoA being judged
/// non-compliant — are not errors; see
/// [`Verdict`](crate::Verdict).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The drone id is not registered with the auditor.
    UnknownDrone(DroneId),
    /// The zone id is not registered with the auditor.
    UnknownZone(ZoneId),
    /// A zone-query signature did not verify under the drone's `D⁺`.
    QuerySignatureInvalid,
    /// The nonce in a zone query was already used (replayed query).
    NonceReplayed,
    /// The underlying TEE returned an error.
    Tee(alidrone_tee::TeeError),
    /// A cryptographic operation failed.
    Crypto(alidrone_crypto::CryptoError),
    /// Geometry/validation failure.
    Geo(alidrone_geo::GeoError),
    /// Malformed message or payload.
    Malformed(&'static str),
    /// A transport-level failure: the request or response was lost in
    /// flight (connection reset, broken pipe, injected fault). Retryable
    /// for idempotent request kinds — see
    /// [`Request::is_idempotent`](crate::wire::Request::is_idempotent).
    Transport(String),
    /// A per-call deadline or socket timeout elapsed before a response
    /// arrived. Retryable like [`ProtocolError::Transport`].
    Timeout,
    /// A requested stored PoA does not exist.
    PoaNotFound,
    /// An accusation referenced a time not covered by the stored PoA.
    TimeNotCovered,
    /// Privacy extension: a revealed key does not decrypt its sample.
    RevealInvalid,
    /// Durable-storage failure: the auditor's write-ahead journal could
    /// not be read or written (I/O error, disk full, or detected
    /// corruption). Not retryable — storage faults need operator action.
    Storage(String),
    /// A shared-state lock was poisoned by a panicking handler thread.
    /// Surfaced instead of propagating the panic so clients see a typed
    /// error, never a torn response.
    LockPoisoned(&'static str),
    /// The server shed the request before executing it — admission queue
    /// full, the source drone exceeded its token-bucket rate, or the
    /// auditor refused a write while its last write's replication
    /// quorum is still lost. The request was **not** processed; the
    /// client may retry after the hinted delay (any request kind:
    /// shedding happens before any state change, so a shed request is
    /// never partially applied).
    Overloaded {
        /// Server's hint for how long to back off before retrying.
        retry_after_ms: u64,
    },
    /// The tamper-evident audit chain diverged from the journaled
    /// history: a Merkle checkpoint's recorded root does not match the
    /// root recomputed from the records preceding it (see
    /// [`crate::audit`]). Not retryable — the history was tampered with
    /// or forked, and the holder refuses to serve or extend it.
    AuditDivergence {
        /// Audit tree size (entry count) at which the mismatch was
        /// detected.
        size: u64,
    },
}

impl ProtocolError {
    /// `true` for transport-level losses ([`ProtocolError::Transport`]
    /// and [`ProtocolError::Timeout`]) — the failures a client may
    /// answer by resending, provided the request kind is idempotent.
    pub fn is_transport(&self) -> bool {
        matches!(self, ProtocolError::Transport(_) | ProtocolError::Timeout)
    }

    /// `true` when the server shed the request before executing it
    /// ([`ProtocolError::Overloaded`]), so resending is safe for *any*
    /// request kind. Unlike [`is_transport`](Self::is_transport), a
    /// shed carries no "response lost after execution" ambiguity, so
    /// even non-idempotent requests may retry.
    pub fn is_shed(&self) -> bool {
        matches!(self, ProtocolError::Overloaded { .. })
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownDrone(id) => write!(f, "unknown drone {id}"),
            ProtocolError::UnknownZone(id) => write!(f, "unknown zone {id}"),
            ProtocolError::QuerySignatureInvalid => write!(f, "zone query signature invalid"),
            ProtocolError::NonceReplayed => write!(f, "zone query nonce replayed"),
            ProtocolError::Tee(e) => write!(f, "tee error: {e}"),
            ProtocolError::Crypto(e) => write!(f, "crypto error: {e}"),
            ProtocolError::Geo(e) => write!(f, "geometry error: {e}"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtocolError::Transport(what) => write!(f, "transport failure: {what}"),
            ProtocolError::Timeout => write!(f, "deadline exceeded waiting for response"),
            ProtocolError::PoaNotFound => write!(f, "no stored proof-of-alibi found"),
            ProtocolError::TimeNotCovered => {
                write!(f, "accused time not covered by the stored proof-of-alibi")
            }
            ProtocolError::RevealInvalid => write!(f, "revealed key does not open the sample"),
            ProtocolError::Storage(what) => write!(f, "storage failure: {what}"),
            ProtocolError::LockPoisoned(which) => {
                write!(f, "internal lock poisoned: {which}")
            }
            ProtocolError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms}ms")
            }
            ProtocolError::AuditDivergence { size } => {
                write!(f, "audit chain divergence at tree size {size}")
            }
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Tee(e) => Some(e),
            ProtocolError::Crypto(e) => Some(e),
            ProtocolError::Geo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alidrone_tee::TeeError> for ProtocolError {
    fn from(e: alidrone_tee::TeeError) -> Self {
        ProtocolError::Tee(e)
    }
}

impl From<alidrone_crypto::CryptoError> for ProtocolError {
    fn from(e: alidrone_crypto::CryptoError) -> Self {
        ProtocolError::Crypto(e)
    }
}

impl From<alidrone_geo::GeoError> for ProtocolError {
    fn from(e: alidrone_geo::GeoError) -> Self {
        ProtocolError::Geo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ProtocolError::Tee(alidrone_tee::TeeError::NoData);
        assert!(e.to_string().contains("no data"));
        assert!(e.source().is_some());
        assert!(ProtocolError::NonceReplayed.source().is_none());
    }

    #[test]
    fn conversions() {
        let _: ProtocolError = alidrone_tee::TeeError::NoData.into();
        let _: ProtocolError = alidrone_crypto::CryptoError::DecryptionFailed.into();
        let _: ProtocolError = alidrone_geo::GeoError::InvalidLatitude(99.0).into();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
