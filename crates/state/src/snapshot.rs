//! Snapshot container: magic, format version, and CRC-framed sections.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! +----------------+---------+-----------------+
//! | magic (8B)     | version | section count   |
//! | "EFISTATE"     | u16     | u32             |
//! +----------------+---------+-----------------+
//! then, per section:
//! +----------+-----------+-------------+---------+-----------+
//! | name len | name      | payload len | payload | crc32     |
//! | u16      | UTF-8     | u64         | bytes   | u32 (IEEE)|
//! +----------+-----------+-------------+---------+-----------+
//! ```
//!
//! The CRC covers the payload only; framing damage shows up as a
//! truncation or nonsense length instead. Sections are independent — a
//! reader may load a subset, and an old reader encountering an unknown
//! section simply skips it (forward-compatible additions). Bumping
//! [`FORMAT_VERSION`] is reserved for changes old readers *cannot* skip
//! past: layout changes to the framing itself or incompatible
//! re-encodings of existing sections.

use std::path::Path;

use crate::crc32::crc32;
use crate::error::StateError;
use crate::section::{SectionReader, SectionWriter};

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"EFISTATE";

/// Current snapshot format revision. Readers accept `<= FORMAT_VERSION`.
pub const FORMAT_VERSION: u16 = 1;

/// Builder that accumulates named sections and serialises them with the
/// header and per-section checksums.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Empty snapshot.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Append a section whose payload is produced by `fill`.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut SectionWriter)) {
        let mut w = SectionWriter::default();
        fill(&mut w);
        self.sections.push((name.to_string(), w.into_bytes()));
    }

    /// Serialise header + all sections to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            16 + self
                .sections
                .iter()
                .map(|(n, p)| n.len() + p.len() + 14)
                .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        out
    }

    /// Write the snapshot to `path`, creating parent directories. The file
    /// is written to a `.tmp` sibling first and renamed into place, so an
    /// interrupted write never leaves a half-snapshot under the final name.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<u64, StateError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| StateError::Io {
            context: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(bytes.len() as u64)
    }
}

/// Parsed snapshot: all sections CRC-verified up front.
#[derive(Debug)]
pub struct SnapshotReader {
    version: u16,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotReader {
    /// Parse and verify a snapshot byte stream.
    pub fn from_bytes(data: &[u8]) -> Result<Self, StateError> {
        if data.len() < 8 || data[..8] != MAGIC {
            let mut found = [0u8; 8];
            let n = data.len().min(8);
            found[..n].copy_from_slice(&data[..n]);
            return Err(StateError::BadMagic { found });
        }
        let header = "header";
        let mut pos = 8usize;
        let need = |pos: usize, n: usize, section: &str| -> Result<(), StateError> {
            if pos + n > data.len() {
                Err(StateError::Truncated {
                    section: section.to_string(),
                })
            } else {
                Ok(())
            }
        };
        need(pos, 2, header)?;
        let version = u16::from_le_bytes([data[pos], data[pos + 1]]);
        pos += 2;
        if version > FORMAT_VERSION {
            return Err(StateError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        need(pos, 4, header)?;
        let count = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        pos += 4;

        let mut sections = Vec::with_capacity(count as usize);
        for i in 0..count {
            let frame = format!("section #{i}");
            need(pos, 2, &frame)?;
            let name_len = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            need(pos, name_len, &frame)?;
            let name = core::str::from_utf8(&data[pos..pos + name_len])
                .map_err(|_| StateError::malformed(&frame, "section name is not UTF-8"))?
                .to_string();
            pos += name_len;
            need(pos, 8, &name)?;
            let payload_len = u64::from_le_bytes([
                data[pos],
                data[pos + 1],
                data[pos + 2],
                data[pos + 3],
                data[pos + 4],
                data[pos + 5],
                data[pos + 6],
                data[pos + 7],
            ]);
            pos += 8;
            let payload_len = usize::try_from(payload_len).map_err(|_| {
                StateError::malformed(&name, format!("payload length {payload_len} overflows"))
            })?;
            need(pos, payload_len, &name)?;
            let payload = data[pos..pos + payload_len].to_vec();
            pos += payload_len;
            need(pos, 4, &name)?;
            let stored_crc =
                u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
            pos += 4;
            let computed_crc = crc32(&payload);
            if computed_crc != stored_crc {
                return Err(StateError::Corrupt {
                    section: name,
                    stored_crc,
                    computed_crc,
                });
            }
            sections.push((name, payload));
        }
        Ok(SnapshotReader { version, sections })
    }

    /// Read and parse a snapshot file.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self, StateError> {
        let path = path.as_ref();
        let data = std::fs::read(path).map_err(|e| StateError::Io {
            context: path.display().to_string(),
            message: e.to_string(),
        })?;
        SnapshotReader::from_bytes(&data)
    }

    /// Format version recorded in the header.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Open a section for decoding; [`StateError::MissingSection`] if absent.
    pub fn section<'a>(&'a self, name: &'a str) -> Result<SectionReader<'a>, StateError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, payload)| SectionReader::new(n, payload))
            .ok_or_else(|| StateError::MissingSection {
                section: name.to_string(),
            })
    }
}
