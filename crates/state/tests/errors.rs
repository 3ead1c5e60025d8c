//! Round-trip error-path tests: every way a snapshot file can be damaged
//! must surface as the matching typed [`StateError`] variant — naming the
//! failing section where one exists — and never as a panic.

use electrifi_state::{SnapshotReader, SnapshotWriter, StateError, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;

/// A two-section snapshot used by all the damage tests.
fn sample() -> Vec<u8> {
    let mut snap = SnapshotWriter::new();
    snap.section("mac.sim", |w| {
        w.put_u64(0xDEAD_BEEF);
        w.put_str("tone maps");
        for x in 1..=5u64 {
            w.put_u64(x);
        }
    });
    snap.section("rng.master", |w| {
        for i in 0..4u64 {
            w.put_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    });
    snap.to_bytes()
}

#[test]
fn wrong_magic() {
    let mut bytes = sample();
    bytes[0..8].copy_from_slice(b"NOTASNAP");
    match SnapshotReader::from_bytes(&bytes) {
        Err(StateError::BadMagic { found }) => assert_eq!(&found, b"NOTASNAP"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn empty_and_short_files_are_bad_magic() {
    for len in 0..8 {
        let bytes = vec![0u8; len];
        assert!(
            matches!(
                SnapshotReader::from_bytes(&bytes),
                Err(StateError::BadMagic { .. })
            ),
            "len {len}"
        );
    }
}

#[test]
fn future_version_refused() {
    let mut bytes = sample();
    let v = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..10].copy_from_slice(&v);
    match SnapshotReader::from_bytes(&bytes) {
        Err(StateError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_names_the_section() {
    let full = sample();
    // Cutting anywhere inside the second section's frame must name it.
    // Find where "rng.master"'s payload starts: scan is unnecessary — any
    // cut strictly after the first section's trailing CRC and before EOF
    // lands in the second section.
    let cut = full.len() - 3;
    match SnapshotReader::from_bytes(&full[..cut]) {
        Err(StateError::Truncated { section }) => assert_eq!(section, "rng.master"),
        other => panic!("expected Truncated(rng.master), got {other:?}"),
    }
}

#[test]
fn every_truncation_point_is_typed() {
    let full = sample();
    for cut in 0..full.len() {
        let res = SnapshotReader::from_bytes(&full[..cut]);
        assert!(
            matches!(
                res,
                Err(StateError::BadMagic { .. })
                    | Err(StateError::Truncated { .. })
                    | Err(StateError::Malformed { .. })
            ),
            "cut at {cut} gave {res:?}"
        );
    }
}

#[test]
fn flipped_payload_byte_is_crc_corruption() {
    let full = sample();
    // Flip a byte inside the first section's payload. Header is 14 bytes,
    // then 2 + "mac.sim".len() name framing, then the 8-byte payload
    // length — the byte after that is payload.
    let payload_start = 14 + 2 + "mac.sim".len() + 8;
    let mut bytes = full.clone();
    bytes[payload_start + 4] ^= 0x01;
    match SnapshotReader::from_bytes(&bytes) {
        Err(StateError::Corrupt {
            section,
            stored_crc,
            computed_crc,
        }) => {
            assert_eq!(section, "mac.sim");
            assert_ne!(stored_crc, computed_crc);
        }
        other => panic!("expected Corrupt(mac.sim), got {other:?}"),
    }
}

#[test]
fn flipped_crc_byte_is_also_corruption() {
    let full = sample();
    let mut bytes = full.clone();
    let last = bytes.len() - 1; // last byte of the final section's CRC
    bytes[last] ^= 0xFF;
    match SnapshotReader::from_bytes(&bytes) {
        Err(StateError::Corrupt { section, .. }) => assert_eq!(section, "rng.master"),
        other => panic!("expected Corrupt(rng.master), got {other:?}"),
    }
}

#[test]
fn intact_snapshot_still_loads_after_damage_tests() {
    let reader = SnapshotReader::from_bytes(&sample()).unwrap();
    let mut s = reader.section("mac.sim").unwrap();
    assert_eq!(s.get_u64().unwrap(), 0xDEAD_BEEF);
    assert_eq!(s.get_str().unwrap(), "tone maps");
    for x in 1..=5u64 {
        assert_eq!(s.get_u64().unwrap(), x);
    }
    s.finish().unwrap();
}

#[test]
fn io_error_carries_path() {
    match SnapshotReader::read_from_file("/nonexistent/dir/snap.bin") {
        Err(StateError::Io { context, .. }) => assert!(context.contains("snap.bin")),
        other => panic!("expected Io, got {other:?}"),
    }
}

proptest! {
    /// Fuzz: arbitrary bytes never panic the parser — they parse or they
    /// yield a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SnapshotReader::from_bytes(&data);
    }

    /// Fuzz: a valid snapshot with one mutated byte either still parses
    /// (the mutation hit dead framing space — impossible here, but allowed)
    /// or yields a typed error; it never panics.
    #[test]
    fn mutated_snapshot_never_panics(idx in 0usize..1024, bit in 0u8..8) {
        let mut bytes = sample();
        let idx = idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = SnapshotReader::from_bytes(&bytes);
    }

    /// Fuzz: magic followed by arbitrary garbage never panics.
    #[test]
    fn garbage_after_magic_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&data);
        let _ = SnapshotReader::from_bytes(&bytes);
    }
}
