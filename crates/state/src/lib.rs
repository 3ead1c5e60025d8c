//! `electrifi-state` — versioned, checksummed binary snapshots for
//! campaign checkpoint/resume.
//!
//! A campaign checkpoints at run granularity: the completed run records
//! are written into a snapshot so that an interrupted sweep picks up
//! where it stopped. This crate provides the snapshot container
//! ([`SnapshotWriter`]/[`SnapshotReader`]): magic + format version +
//! named sections, each payload CRC-32-framed, with typed [`StateError`]s
//! (naming the failing section) on truncation, corruption, or version
//! skew — never a panic on malformed input. Section payloads are written
//! and read with [`SectionWriter`]/[`SectionReader`].
//!
//! The crate sits at the very bottom of the workspace dependency graph,
//! so any crate can depend on it without cycles.

#![forbid(unsafe_code)]

mod crc32;
mod error;
mod section;
mod snapshot;

pub use crc32::crc32;
pub use error::StateError;
pub use section::{SectionReader, SectionWriter};
pub use snapshot::{SnapshotReader, SnapshotWriter, FORMAT_VERSION, MAGIC};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sections() {
        let mut snap = SnapshotWriter::new();
        snap.section("blob", |w| {
            for x in [1, 2, 3, u64::MAX] {
                w.put_u64(x);
            }
            w.put_str("hello");
        });
        snap.section("meta", |w| w.put_u64(42));
        let bytes = snap.to_bytes();

        let reader = SnapshotReader::from_bytes(&bytes).unwrap();
        assert_eq!(reader.version(), FORMAT_VERSION);
        let mut blob = reader.section("blob").unwrap();
        for x in [1, 2, 3, u64::MAX] {
            assert_eq!(blob.get_u64().unwrap(), x);
        }
        assert_eq!(blob.get_str().unwrap(), "hello");
        blob.finish().unwrap();
        let mut meta = reader.section("meta").unwrap();
        assert_eq!(meta.get_u64().unwrap(), 42);
        meta.finish().unwrap();
    }

    #[test]
    fn encode_is_deterministic() {
        let make = || {
            let mut snap = SnapshotWriter::new();
            snap.section("a", |w| w.put_u64(1));
            snap.section("b", |w| w.put_str("x"));
            snap.to_bytes()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = SnapshotWriter::new();
        let reader = SnapshotReader::from_bytes(&snap.to_bytes()).unwrap();
        match reader.section("nope") {
            Err(StateError::MissingSection { section }) => assert_eq!(section, "nope"),
            other => panic!("expected MissingSection, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut snap = SnapshotWriter::new();
        snap.section("s", |w| {
            w.put_u64(1);
            w.put_u64(2);
        });
        let reader = SnapshotReader::from_bytes(&snap.to_bytes()).unwrap();
        let mut r = reader.section("s").unwrap();
        r.get_u64().unwrap();
        match r.finish() {
            Err(StateError::Malformed { section, .. }) => assert_eq!(section, "s"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn short_and_non_utf8_strings_are_typed() {
        let mut snap = SnapshotWriter::new();
        // A string header claiming more bytes than the payload holds.
        snap.section("short", |w| w.put_u64(5));
        // A length of 8 followed by eight 0xFF bytes, which are not UTF-8.
        snap.section("bad", |w| {
            w.put_u64(8);
            w.put_u64(u64::MAX);
        });
        let reader = SnapshotReader::from_bytes(&snap.to_bytes()).unwrap();
        match reader.section("short").unwrap().get_str() {
            Err(StateError::Truncated { section }) => assert_eq!(section, "short"),
            other => panic!("expected Truncated, got {other:?}"),
        }
        match reader.section("bad").unwrap().get_str() {
            Err(StateError::Malformed { section, .. }) => assert_eq!(section, "bad"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
