//! Section payload encoding: a flat little-endian byte stream.
//!
//! A [`SectionWriter`] appends primitives to a growable buffer; a
//! [`SectionReader`] walks the same bytes back, returning typed
//! [`StateError`]s (naming the section) on truncation or nonsense instead
//! of panicking — malformed input must never abort the process.
//!
//! Encoding rules, chosen for byte-for-byte determinism:
//! - integers little-endian;
//! - strings as a `u64` byte length then the UTF-8 bytes.

use crate::error::StateError;

/// Append-only encoder for one section's payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Consume the writer, yielding the payload.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor over one section's payload, with the section name carried for
/// error reporting.
#[derive(Debug)]
pub struct SectionReader<'a> {
    name: &'a str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wrap `buf` as the payload of section `name`.
    pub(crate) fn new(name: &'a str, buf: &'a [u8]) -> Self {
        SectionReader { name, buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::Truncated {
                section: self.name.to_string(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, StateError> {
        let len = self.get_u64()?;
        let raw = self.take(usize::try_from(len).unwrap_or(usize::MAX))?;
        core::str::from_utf8(raw)
            .map_err(|_| StateError::malformed(self.name, "string is not UTF-8"))
    }

    /// Error unless the payload was consumed exactly — catches writer/reader
    /// drift where a reader decodes fewer fields than were encoded.
    pub fn finish(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::malformed(
                self.name,
                format!("{} trailing bytes after decode", self.remaining()),
            ))
        }
    }
}
