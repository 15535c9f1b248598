//! Versioned whole-simulation snapshot files: checkpoint a running
//! experiment to disk and restore it bit-identically.
//!
//! A snapshot captures everything that evolves deterministically — the
//! executor clock and event queue, every component's persisted state
//! (switch queues, NIC rings, kernels, sockets, TCP connections, guest
//! processes, RNG streams), and the harness's own drive position
//! (horizon, sampling cursor, recorded series). It deliberately does
//! **not** capture configuration: topology, link parameters at build
//! time, workload knobs, and the fault plan are rebuilt from the
//! scenario spec on restore, which is what lets a parameter sweep seed
//! many differently-tuned runs from one shared warmed checkpoint (the
//! restored state overwrites only state; rebuilt config wins). See
//! DESIGN.md §15 for the full what-is/what-isn't-serialized table.
//!
//! # File format
//!
//! ```text
//! magic       8 bytes  b"DIABSNAP"
//! version     u32      SNAP_VERSION; mismatch => SnapError::Version
//! fingerprint u64      structural hash; mismatch => SnapError::Fingerprint
//! drive       DriveState (harness horizon, sample cursor, series)
//! executor    SimHost::save_state (common serial/parallel format)
//! ```
//!
//! The fingerprint covers *structure only* — topology shape, fabric
//! kind, workload name — never sweepable knobs, so a checkpoint warmed
//! under one service time restores under another, but restoring a
//! 2-rack snapshot into a 4-rack cluster fails loudly instead of
//! corrupting memory-by-another-name.

use crate::cluster::SimHost;
use diablo_engine::prelude::SeriesRecorder;
use diablo_engine::snap::{Snap, SnapError, SnapReader, SnapWriter};
use diablo_engine::time::SimTime;
use std::path::Path;

/// Leading magic of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"DIABSNAP";

/// Format version this build writes and reads. Bump on any layout
/// change; restore rejects other versions with [`SnapError::Version`].
/// Version 16: a node kernel persists its CPU, then its socket layer, so
/// its entry-point time follows the CPU's fields and its wake-one cursor
/// and dead connections' TCP counters follow the loopback queue.
/// Each version's change, and what it did to the bytes of four pinned
/// snapshots, is stated in `tests/snapshot_golden.rs`.
pub const SNAP_VERSION: u32 = 16;

/// FNV-1a over the structural description strings, the cheap stable
/// hash used for the header fingerprint. Not cryptographic — it guards
/// against honest shape mismatches, not adversaries.
pub fn fingerprint<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_ref().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator step so ["ab","c"] and ["a","bc"] differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The drive loop's resumable position, snapshotted
/// alongside the executor so a restored run continues the same horizon
/// doubling schedule and sampling cadence (and keeps the series rows
/// already recorded).
#[derive(Debug, Clone, PartialEq)]
pub struct DriveState {
    /// Current drive horizon (doubled per pending poll).
    pub horizon: SimTime,
    /// Next periodic-scrape instant.
    pub next_sample: SimTime,
    /// Series rows recorded so far (`None` without a sampling cadence).
    pub series: Option<SeriesRecorder>,
}

diablo_engine::impl_snap_struct!(DriveState { horizon, next_sample, series });

/// Serializes `host` plus the harness drive position into a complete
/// snapshot byte stream (header included).
pub fn encode_snapshot(host: &mut SimHost, fingerprint: u64, drive: &DriveState) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_bytes(&SNAP_MAGIC);
    SNAP_VERSION.save(&mut w);
    fingerprint.save(&mut w);
    drive.save(&mut w);
    host.save_state(&mut w);
    w.into_bytes()
}

/// Restores a snapshot byte stream into a freshly built,
/// software-loaded `host`, validating magic, version, and structural
/// fingerprint before touching any state.
///
/// # Errors
///
/// [`SnapError::Malformed`] on bad magic or trailing bytes,
/// [`SnapError::Version`] / [`SnapError::Fingerprint`] on header
/// mismatches, and any decode error from the executor payload.
pub fn decode_snapshot(
    bytes: &[u8],
    host: &mut SimHost,
    expected_fingerprint: u64,
) -> Result<DriveState, SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take_bytes(SNAP_MAGIC.len())?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::Malformed(format!(
            "not a snapshot file: expected magic {:?}, found {:?}",
            SNAP_MAGIC, magic
        )));
    }
    let version: u32 = Snap::load(&mut r)?;
    if version != SNAP_VERSION {
        return Err(SnapError::Version { found: version, expected: SNAP_VERSION });
    }
    let found: u64 = Snap::load(&mut r)?;
    if found != expected_fingerprint {
        return Err(SnapError::Fingerprint { found, expected: expected_fingerprint });
    }
    let drive: DriveState = Snap::load(&mut r)?;
    host.load_state(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::Malformed(format!(
            "{} trailing bytes after the executor state",
            r.remaining()
        )));
    }
    Ok(drive)
}

/// A snapshot operation failure for CLI-facing reporting: either the
/// file could not be read/written, or its contents did not validate.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error on the snapshot path.
    Io {
        /// The snapshot path.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The snapshot stream failed to decode or validate.
    Decode {
        /// The snapshot path.
        path: String,
        /// The underlying decode error.
        error: SnapError,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, error } => write!(f, "snapshot `{path}`: {error}"),
            SnapshotError::Decode { path, error } => write!(f, "snapshot `{path}`: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Writes a complete snapshot of `host` (plus drive position) to `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be written.
pub fn write_snapshot_file(
    path: &Path,
    host: &mut SimHost,
    fingerprint: u64,
    drive: &DriveState,
) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(host, fingerprint, drive);
    std::fs::write(path, bytes)
        .map_err(|error| SnapshotError::Io { path: path.display().to_string(), error })
}

/// Reads and restores a snapshot file into `host`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be read,
/// [`SnapshotError::Decode`] when its contents fail validation.
pub fn read_snapshot_file(
    path: &Path,
    host: &mut SimHost,
    expected_fingerprint: u64,
) -> Result<DriveState, SnapshotError> {
    let bytes = std::fs::read(path)
        .map_err(|error| SnapshotError::Io { path: path.display().to_string(), error })?;
    decode_snapshot(&bytes, host, expected_fingerprint)
        .map_err(|error| SnapshotError::Decode { path: path.display().to_string(), error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec, RunMode};
    use diablo_net::topology::TopologyConfig;

    fn tiny_host() -> SimHost {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 });
        Cluster::instantiate(&spec, RunMode::Serial).0
    }

    #[test]
    fn fingerprint_separates_parts_and_is_stable() {
        assert_eq!(fingerprint(["a", "b"]), fingerprint(["a", "b"]));
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_ne!(fingerprint(["a"]), fingerprint(["a", ""]));
    }

    #[test]
    fn header_validation_rejects_magic_version_and_fingerprint() {
        let drive = DriveState {
            horizon: SimTime::from_millis(5),
            next_sample: SimTime::ZERO,
            series: None,
        };
        let mut host = tiny_host();
        let good = encode_snapshot(&mut host, 7, &drive);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Malformed(_))));

        // Bad version (little-endian u32 follows the 8-byte magic); a
        // file written before the switch's snapshot layout changed is one.
        let mut bad = good.clone();
        bad[8] = 1;
        let mut h = tiny_host();
        assert_eq!(
            decode_snapshot(&bad, &mut h, 7),
            Err(SnapError::Version { found: 1, expected: SNAP_VERSION })
        );

        // Bad fingerprint.
        let mut h = tiny_host();
        assert!(matches!(
            decode_snapshot(&good, &mut h, 8),
            Err(SnapError::Fingerprint { found: 7, expected: 8 })
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Malformed(_))));

        // The pristine stream restores.
        let mut h = tiny_host();
        assert_eq!(decode_snapshot(&good, &mut h, 7).expect("round trip"), drive);
    }
}
