//! Minimal binary codec primitives: big-endian, length-prefixed.
//!
//! The protocol messages are small and fixed-shape, so a hand-rolled
//! codec keeps the wire format auditable byte-for-byte (and keeps the
//! workspace free of serialization frameworks on the security path).
//!
//! Messages travel over byte streams as length-prefixed frames
//! (`u32 BE len | body`): `write_frame`, `read_frame` and
//! `extract_frame` are the one framing used by both the auditor's TCP
//! protocol ([`tcp`](crate::wire::tcp)) and replication links
//! ([`repl`](crate::repl)), each with its own size cap.

use std::io::{self, Read, Write};

use crate::ProtocolError;

/// An append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Finishes and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u128` (trace ids in the frame envelope).
    pub fn put_u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }
}

/// A cursor-style byte reader; every accessor fails cleanly on
/// truncation.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the reader is fully consumed — trailing garbage in a
    /// security protocol message is always a framing bug or an attack.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] if bytes remain.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed("truncated message"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation (same for all readers).
    pub fn get_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    #[allow(missing_docs)]
    pub fn get_u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u32` element count, refusing one the remaining bytes
    /// cannot hold when every element takes at least `min_len` encoded
    /// bytes. A decoder may then reserve the count before it reads an
    /// element: the reservation is bounded by the message, not by the
    /// claim.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation or such a count.
    pub fn get_count(&mut self, min_len: usize) -> Result<usize, ProtocolError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() / min_len {
            return Err(ProtocolError::Malformed("count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// Reads a big-endian `u64`.
    #[allow(missing_docs)]
    pub fn get_u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a big-endian `u128`.
    #[allow(missing_docs)]
    pub fn get_u128(&mut self) -> Result<u128, ProtocolError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads a big-endian `f64`, rejecting NaN (no protocol field is
    /// allowed to be NaN).
    #[allow(missing_docs)]
    pub fn get_f64(&mut self) -> Result<f64, ProtocolError> {
        let v = f64::from_be_bytes(self.take(8)?.try_into().expect("8"));
        if v.is_nan() {
            return Err(ProtocolError::Malformed("nan field"));
        }
        Ok(v)
    }

    /// Reads a `u32`-length-prefixed byte string (with a 16 MiB sanity
    /// cap against length-bomb payloads).
    #[allow(missing_docs)]
    pub fn get_bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.get_u32()? as usize;
        if len > 16 << 20 {
            return Err(ProtocolError::Malformed("oversized field"));
        }
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    #[allow(missing_docs)]
    pub fn get_str(&mut self) -> Result<&'a str, ProtocolError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| ProtocolError::Malformed("invalid utf-8"))
    }

    /// Reads exactly `N` bytes into an array.
    #[allow(missing_docs)]
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }
}

/// Writes one length-prefixed frame (`u32 BE len | body`).
///
/// # Errors
///
/// `InvalidInput` when `body` is longer than `cap`: the peer's reader
/// enforces the same cap and would drop the frame, so it is refused
/// here rather than sent. Otherwise any I/O error from `w`.
pub(crate) fn write_frame<W: Write>(w: &mut W, body: &[u8], cap: usize) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|_| body.len() <= cap)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame over its size cap"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Blocking read of one frame written by [`write_frame`]. A header
/// announcing more than `cap` bytes is refused before anything is
/// allocated.
///
/// # Errors
///
/// `InvalidData` for an over-cap header, otherwise any I/O error from
/// `r` (a socket read timeout bounds the wait).
pub(crate) fn read_frame<R: Read>(r: &mut R, cap: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let mut body = vec![0u8; frame_len(header, cap)?];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Pops one complete frame body off the front of `buf`, if present
/// (the incremental form of [`read_frame`] for callers that read a
/// socket in chunks).
///
/// # Errors
///
/// `InvalidData` when the buffered header announces more than `cap`
/// bytes.
pub(crate) fn extract_frame(buf: &mut Vec<u8>, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let Some(&header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = frame_len(header, cap)?;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(body))
}

/// The body length a frame header announces, refused over `cap`.
fn frame_len(header: [u8; 4], cap: usize) -> io::Result<usize> {
    let len = u32::from_be_bytes(header) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame header over its size cap",
        ));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_u128(u128::MAX - 1)
            .put_f64(-1.5)
            .put_bytes(b"abc")
            .put_str("hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u128().unwrap(), u128::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = Writer::new();
        w.put_u32(5).put_bytes(b"xyz");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let ok = r.get_u32().and_then(|_| r.get_bytes().map(|_| ()));
            assert!(ok.is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.put_u8(1);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        let mut r = Reader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn nan_rejected() {
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).get_f64().is_err());
    }

    #[test]
    fn length_bomb_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).get_bytes().is_err());
    }

    #[test]
    fn array_read() {
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2).put_u8(3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_array::<3>().unwrap(), [1, 2, 3]);
        assert!(r.get_array::<1>().is_err());
    }

    #[test]
    fn frames_round_trip_through_a_stream_and_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc", 8).unwrap();
        write_frame(&mut wire, b"", 8).unwrap();
        write_frame(&mut wire, b"12345678", 8).unwrap();
        assert_eq!(&wire[..7], &[0, 0, 0, 3, b'a', b'b', b'c']);

        let mut stream = &wire[..];
        assert_eq!(read_frame(&mut stream, 8).unwrap(), b"abc");
        assert_eq!(read_frame(&mut stream, 8).unwrap(), b"");
        assert_eq!(read_frame(&mut stream, 8).unwrap(), b"12345678");
        assert!(stream.is_empty());

        // Incrementally: nothing until a whole frame is buffered.
        let mut buf = wire[..5].to_vec();
        assert_eq!(extract_frame(&mut buf, 8).unwrap(), None);
        buf.extend_from_slice(&wire[5..]);
        for body in [&b"abc"[..], b"", b"12345678"] {
            assert_eq!(extract_frame(&mut buf, 8).unwrap().unwrap(), body);
        }
        assert_eq!(extract_frame(&mut buf, 8).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn over_cap_write_is_refused_and_sends_nothing() {
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, b"123456789", 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "a refused frame must not be half-sent");
    }

    #[test]
    fn over_cap_header_is_refused() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"123456789", 16).unwrap();
        let err = read_frame(&mut &wire[..], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The buffered form refuses on the header alone, before the
        // body has arrived.
        let err = extract_frame(&mut wire[..4].to_vec(), 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
