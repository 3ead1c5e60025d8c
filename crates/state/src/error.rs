//! Typed failure modes for snapshot decode.
//!
//! Every variant that concerns a section names it, so "which component's
//! state is damaged" is part of the error, not something the caller has to
//! reconstruct from a byte offset.

use core::fmt;

/// Why a snapshot (or one of its sections) could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The file does not start with the snapshot magic — it is not a
    /// snapshot at all (or the header itself was damaged).
    BadMagic {
        /// The first bytes actually found (zero-padded if the file is
        /// shorter than the magic).
        found: [u8; 8],
    },
    /// The snapshot was written by a newer format revision than this
    /// binary understands. Old readers refuse rather than misparse.
    UnsupportedVersion {
        /// Version recorded in the snapshot header.
        found: u16,
        /// Highest version this reader supports.
        supported: u16,
    },
    /// The byte stream ended mid-structure. `section` is the section being
    /// decoded, or `"header"`/`"section table"` for the framing itself.
    Truncated {
        /// Section (or framing region) that was cut short.
        section: String,
    },
    /// A section's payload does not match its recorded CRC-32 — bytes were
    /// flipped after the snapshot was written.
    Corrupt {
        /// Section whose checksum failed.
        section: String,
        /// CRC stored in the snapshot.
        stored_crc: u32,
        /// CRC computed over the payload as read.
        computed_crc: u32,
    },
    /// A section the loading component requires is absent.
    MissingSection {
        /// The section that was requested.
        section: String,
    },
    /// The section framing and checksum are fine but the payload does not
    /// decode as the component expects (bad tag byte, impossible length,
    /// mismatched topology...).
    Malformed {
        /// Section being decoded.
        section: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An underlying I/O operation failed (reading or writing the file).
    Io {
        /// What was being done (usually the path).
        context: String,
        /// The OS error text.
        message: String,
    },
}

impl StateError {
    /// Convenience constructor for [`StateError::Malformed`].
    pub fn malformed(section: &str, detail: impl Into<String>) -> StateError {
        StateError::Malformed {
            section: section.to_string(),
            detail: detail.into(),
        }
    }

    /// True when the error means the snapshot **bytes** are unusable —
    /// wrong magic, newer format, truncated, checksum-failed, missing or
    /// malformed sections — as opposed to an environmental I/O failure.
    ///
    /// Recovery paths branch on this: a damaged checkpoint is discarded
    /// and the work is redone from scratch (deterministic re-execution
    /// makes that safe), while an I/O error is surfaced — retrying or
    /// redoing work cannot fix a vanished disk.
    pub fn is_data_damage(&self) -> bool {
        !matches!(self, StateError::Io { .. })
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            StateError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format v{found} is newer than supported v{supported}"
            ),
            StateError::Truncated { section } => {
                write!(f, "snapshot truncated in section {section:?}")
            }
            StateError::Corrupt {
                section,
                stored_crc,
                computed_crc,
            } => write!(
                f,
                "section {section:?} corrupt: crc32 {computed_crc:#010x} != stored {stored_crc:#010x}"
            ),
            StateError::MissingSection { section } => {
                write!(f, "snapshot has no section {section:?}")
            }
            StateError::Malformed { section, detail } => {
                write!(f, "section {section:?} malformed: {detail}")
            }
            StateError::Io { context, message } => write!(f, "i/o error ({context}): {message}"),
        }
    }
}

impl std::error::Error for StateError {}
