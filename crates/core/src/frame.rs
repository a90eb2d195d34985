//! The one frame codec behind a node's two byte formats: `PWCX` context
//! entries (the disk tier and peer fetches, `codec.rs`) and `PWCQ`
//! service frames (`pwcet-serve`'s `protocol`).
//!
//! Every frame is a fixed header and a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic
//! 4       4     format version (u32 LE)
//! 8       8     payload length in bytes (u64 LE)
//! 16      8     checksum of the payload (u64 LE)
//! 24      …     payload
//! ```
//!
//! An [`Envelope`] holds one format's parameters — magic, version,
//! payload cap and checksum — and seals and opens its frames. A payload
//! is written with a [`Writer`] (little-endian scalars, length-prefixed
//! bytes, presence flags) and read back with a [`Reader`], which
//! bounds-checks every read and guards every sequence length against the
//! bytes that remain before the caller allocates for it. Any failure is a
//! [`FrameError`]: corrupt or hostile bytes cost their reader an error,
//! never a panic or an unbounded allocation.

use std::fmt;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 24;

/// Why a frame could not be read. Every variant is recoverable: a reader
/// treats the frame as absent (a cache miss, a clean error response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header declares or the structure needs.
    Truncated,
    /// The bytes do not start with the envelope's magic.
    BadMagic,
    /// A format version this build does not read.
    UnsupportedVersion(u32),
    /// The length prefix exceeds the envelope's payload cap.
    Oversized(u64),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Structurally invalid, or inconsistent with what the reader expects.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame is truncated"),
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::Oversized(len) => write!(f, "length prefix {len} exceeds the frame cap"),
            FrameError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One byte format's header parameters.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// The first four bytes of every frame.
    pub magic: [u8; 4],
    /// The only version a reader accepts.
    pub version: u32,
    /// The largest payload a header may declare, checked before anything
    /// is allocated for it.
    pub max_payload: u64,
    /// The payload checksum the header carries.
    pub checksum: fn(&[u8]) -> u64,
}

impl Envelope {
    /// Puts `payload` behind this format's header.
    #[inline]
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.checksum)(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Checks a header's magic, version and declared length, and returns
    /// `(payload_len, checksum)`.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMagic`], [`FrameError::UnsupportedVersion`] or
    /// [`FrameError::Oversized`].
    #[inline]
    pub fn parse_header(&self, header: &[u8; HEADER_LEN]) -> Result<(u64, u64), FrameError> {
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        if header[..4] != self.magic {
            return Err(FrameError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != self.version {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let payload_len = word(8);
        if payload_len > self.max_payload {
            return Err(FrameError::Oversized(payload_len));
        }
        Ok((payload_len, word(16)))
    }

    /// Checks `payload` against the checksum its header declared.
    ///
    /// # Errors
    ///
    /// [`FrameError::ChecksumMismatch`].
    #[inline]
    pub fn verify(&self, payload: &[u8], declared: u64) -> Result<(), FrameError> {
        if (self.checksum)(payload) != declared {
            return Err(FrameError::ChecksumMismatch);
        }
        Ok(())
    }

    /// Checks a complete frame — header, exact length and checksum over
    /// every payload byte — and returns its payload.
    ///
    /// # Errors
    ///
    /// Any header error, [`FrameError::Truncated`] when the bytes are not
    /// exactly the declared length, or [`FrameError::ChecksumMismatch`].
    #[inline]
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], FrameError> {
        let (header, payload) = bytes
            .split_first_chunk::<HEADER_LEN>()
            .ok_or(FrameError::Truncated)?;
        let (payload_len, checksum) = self.parse_header(header)?;
        if payload_len != payload.len() as u64 {
            return Err(FrameError::Truncated);
        }
        self.verify(payload, checksum)?;
        Ok(payload)
    }
}

/// Appends little-endian fields to a payload.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload written so far.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A flag byte: 0 or 1.
    #[inline]
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bytes as they are, with no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `u64` length, then the bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// A string as length-prefixed UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A presence flag, then the value when there is one.
    #[inline]
    pub fn opt<T>(&mut self, value: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.flag(value.is_some());
        if let Some(v) = value {
            write(self, v);
        }
    }
}

/// Reads a payload back, checking every read against the bytes that
/// remain: a read past the end fails with [`FrameError::Truncated`], and
/// a flag other than 0 or 1 with [`FrameError::Malformed`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// How many bytes have been read.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// How many bytes are left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let bytes = *self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(FrameError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        self.u64().map(f64::from_bits)
    }

    /// A sequence length, guarded against allocation bombs: each element
    /// occupies at least `min_elem_bytes`, so a length the remaining bytes
    /// cannot hold is corruption ([`FrameError::Truncated`]), not data.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = usize::try_from(self.u64()?).map_err(|_| FrameError::Truncated)?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(FrameError::Truncated);
        }
        Ok(n)
    }

    /// A flag byte; any value but 0 or 1 is malformed, naming `what`.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed(what)),
        }
    }

    /// The presence flag written by [`Writer::opt`] (named `what` when
    /// malformed), then the value when present.
    #[inline]
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Option<T>, FrameError> {
        if self.flag(what)? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let len = self.seq_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// A length-prefixed string; bytes that are not UTF-8 are malformed.
    #[inline]
    pub fn str(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?).map_err(|_| FrameError::Malformed("non-UTF-8 string"))
    }

    /// Checks that every byte was read: trailing bytes are malformed.
    #[inline]
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}
