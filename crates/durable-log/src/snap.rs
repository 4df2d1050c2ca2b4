//! Durable snapshot directory: checksummed per-partition snapshot files plus
//! an atomically committed manifest.
//!
//! Files are named `e{epoch}-p{partition}-{kind}.snap` and carry a
//! checksummed envelope; the `MANIFEST` file is the **commit point** — it is
//! written to a temp file, fsynced, renamed into place, and the directory
//! fsynced, so on disk an epoch is *sealed* exactly when a valid manifest
//! references it. Files not referenced by the current manifest are garbage
//! (half-uploaded snapshots from a crash, superseded chains) and are removed
//! by [`SnapshotDir::gc`].

use crate::crc::crc32;
use crate::fault::{CrashPoint, FaultInjector};
use crate::{io_err, DurableError};
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SESN";
/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"SEMF";
/// Magic bytes opening a spill blob.
pub const BLOB_MAGIC: [u8; 4] = *b"SEBL";
/// On-disk format version for all three envelopes.
pub const SNAP_VERSION: u32 = 1;

const MANIFEST_NAME: &str = "MANIFEST";

/// What a snapshot file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SnapKind {
    /// A full partition image (an anchor).
    Full,
    /// A dirty-set delta against the previous epoch.
    Delta,
    /// A lazily merged delta chain (amortized store), replacing the
    /// individual deltas since the anchor.
    Merged,
}

impl SnapKind {
    fn tag(self) -> u8 {
        match self {
            SnapKind::Full => 0,
            SnapKind::Delta => 1,
            SnapKind::Merged => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SnapKind::Full),
            1 => Some(SnapKind::Delta),
            2 => Some(SnapKind::Merged),
            _ => None,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            SnapKind::Full => "full",
            SnapKind::Delta => "delta",
            SnapKind::Merged => "merged",
        }
    }
}

/// The manifest: which epoch is sealed on disk, where the log stood at that
/// seal, and exactly which snapshot files the sealed state is made of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The latest sealed epoch.
    pub sealed_epoch: u64,
    /// Coordinator incarnation that wrote the manifest.
    pub incarnation: u64,
    /// Partition (= shard) count the snapshots were taken with.
    pub shards: u32,
    /// Per-partition ingress offsets at the sealed epoch's cut (exclusive).
    pub offsets: Vec<u64>,
    /// Snapshot files the sealed state references: `(epoch, partition, kind)`.
    pub files: Vec<(u64, u32, SnapKind)>,
}

fn snap_file_name(epoch: u64, partition: u32, kind: SnapKind) -> String {
    format!("e{epoch}-p{partition}-{}.snap", kind.suffix())
}

fn parse_snap_file_name(name: &str) -> Option<(u64, u32, SnapKind)> {
    let rest = name.strip_suffix(".snap")?;
    let mut parts = rest.split('-');
    let epoch = parts.next()?.strip_prefix('e')?.parse().ok()?;
    let partition = parts.next()?.strip_prefix('p')?.parse().ok()?;
    let kind = match parts.next()? {
        "full" => SnapKind::Full,
        "delta" => SnapKind::Delta,
        "merged" => SnapKind::Merged,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((epoch, partition, kind))
}

/// Write `bytes` to `path` fully fsynced (no atomicity — callers that need
/// the commit-point property go through the manifest).
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err(path, &e))?;
    file.write_all(bytes).map_err(|e| io_err(path, &e))?;
    file.sync_data().map_err(|e| io_err(path, &e))?;
    Ok(())
}

/// Fsync `dir` itself, which makes a rename inside it durable. A failure is
/// a typed error naming the directory: until this fsync succeeds, a renamed
/// manifest is not a committed seal.
fn sync_dir(dir: &Path) -> Result<(), DurableError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(dir, &e))
}

/// A directory of checksummed snapshot files with an atomically-replaced
/// manifest as the seal commit point.
#[derive(Debug)]
pub struct SnapshotDir {
    dir: PathBuf,
    fault: FaultInjector,
}

impl SnapshotDir {
    /// Open (creating if absent) the snapshot directory.
    pub fn open(dir: impl Into<PathBuf>, fault: &FaultInjector) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        Ok(SnapshotDir {
            dir,
            fault: fault.clone(),
        })
    }

    /// Root directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Upload one partition's snapshot bytes for an epoch. The file is fully
    /// fsynced before returning; it only becomes *referenced* (and thus part
    /// of sealed state) once a later [`commit_manifest`](Self::commit_manifest)
    /// names it.
    pub fn put(
        &self,
        epoch: u64,
        partition: u32,
        kind: SnapKind,
        payload: &[u8],
    ) -> Result<(), DurableError> {
        let path = self.dir.join(snap_file_name(epoch, partition, kind));
        let mut bytes = Vec::with_capacity(29 + payload.len());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&partition.to_le_bytes());
        bytes.push(kind.tag());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);

        if let Err(crash) = self.fault.check(CrashPoint::MidUpload) {
            // Torn upload: half the envelope lands on disk. The manifest does
            // not reference this file yet, so recovery GCs it.
            let torn = &bytes[..bytes.len() / 2];
            write_synced(&path, torn)?;
            return Err(crash);
        }
        write_synced(&path, &bytes)
    }

    /// Read back one snapshot file, verifying the envelope and checksum.
    pub fn get(&self, epoch: u64, partition: u32, kind: SnapKind) -> Result<Vec<u8>, DurableError> {
        let path = self.dir.join(snap_file_name(epoch, partition, kind));
        let corrupt = |detail: String| DurableError::CorruptSnapshotFile {
            path: path.to_string_lossy().into_owned(),
            epoch,
            partition: partition as usize,
            detail,
        };
        let data = fs::read(&path).map_err(|e| io_err(&path, &e))?;
        if data.len() < 29 {
            return Err(corrupt(format!(
                "truncated envelope ({} of at least 29 bytes)",
                data.len()
            )));
        }
        if data[0..4] != SNAPSHOT_MAGIC {
            return Err(corrupt(format!("bad magic {:02x?}", &data[0..4])));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != SNAP_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let file_epoch = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let file_partition = u32::from_le_bytes(data[16..20].try_into().unwrap());
        let file_kind = SnapKind::from_tag(data[20]);
        if file_epoch != epoch || file_partition != partition || file_kind != Some(kind) {
            return Err(corrupt(format!(
                "envelope identifies epoch {file_epoch} partition {file_partition} kind {:?}",
                file_kind
            )));
        }
        let len = u32::from_le_bytes(data[21..25].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(data[25..29].try_into().unwrap());
        if data.len() != 29 + len {
            return Err(corrupt(format!(
                "payload length {len} does not match file size {}",
                data.len()
            )));
        }
        let payload = &data[29..];
        let actual = crc32(payload);
        if actual != stored_crc {
            return Err(corrupt(format!(
                "payload checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(payload.to_vec())
    }

    /// Delete one snapshot file if present; returns whether it existed.
    pub fn delete(&self, epoch: u64, partition: u32, kind: SnapKind) -> Result<bool, DurableError> {
        let path = self.dir.join(snap_file_name(epoch, partition, kind));
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(&path, &e)),
        }
    }

    /// Atomically replace the manifest: write a temp file, fsync it, rename
    /// over `MANIFEST`, fsync the directory. Until the rename lands, the
    /// previous manifest (and the sealed epoch it names) stays current.
    pub fn commit_manifest(&self, manifest: &Manifest) -> Result<(), DurableError> {
        assert_eq!(
            manifest.offsets.len(),
            manifest.shards as usize,
            "one sealed offset per partition"
        );
        let mut body = Vec::new();
        body.extend_from_slice(&MANIFEST_MAGIC);
        body.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        body.extend_from_slice(&manifest.sealed_epoch.to_le_bytes());
        body.extend_from_slice(&manifest.incarnation.to_le_bytes());
        body.extend_from_slice(&manifest.shards.to_le_bytes());
        for &off in &manifest.offsets {
            body.extend_from_slice(&off.to_le_bytes());
        }
        body.extend_from_slice(&(manifest.files.len() as u32).to_le_bytes());
        for &(epoch, partition, kind) in &manifest.files {
            body.extend_from_slice(&epoch.to_le_bytes());
            body.extend_from_slice(&partition.to_le_bytes());
            body.push(kind.tag());
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        write_synced(&tmp, &body)?;
        // The crash lands after the temp file is durable but before the
        // rename: the previous manifest remains the commit point.
        self.fault.check(CrashPoint::MidManifestRename)?;
        let target = self.dir.join(MANIFEST_NAME);
        fs::rename(&tmp, &target).map_err(|e| io_err(&target, &e))?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Load the current manifest. `Ok(None)` means no manifest was ever
    /// committed (a fresh directory). Leftover `.tmp` files from a crash
    /// mid-commit are removed. Corruption is a typed error naming the path.
    pub fn load_manifest(&self) -> Result<Option<Manifest>, DurableError> {
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| io_err(&tmp, &e))?;
        }
        let path = self.dir.join(MANIFEST_NAME);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, &e)),
        };
        let corrupt = |detail: String| DurableError::CorruptManifest {
            path: path.to_string_lossy().into_owned(),
            detail,
        };
        if data.len() < 4 {
            return Err(corrupt("truncated manifest".to_string()));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let actual = crc32(body);
        if actual != stored_crc {
            return Err(corrupt(format!(
                "manifest checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
            )));
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DurableError> {
            if *pos + n > body.len() {
                return Err(corrupt("manifest body truncated".to_string()));
            }
            let s = &body[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != MANIFEST_MAGIC {
            return Err(corrupt("bad manifest magic".to_string()));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if version != SNAP_VERSION {
            return Err(corrupt(format!("unsupported manifest version {version}")));
        }
        let sealed_epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let incarnation = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let shards = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut offsets = Vec::with_capacity(shards as usize);
        for _ in 0..shards {
            offsets.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        }
        let n_files = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut files = Vec::with_capacity(n_files as usize);
        for _ in 0..n_files {
            let epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let partition = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let tag = take(&mut pos, 1)?[0];
            let kind = SnapKind::from_tag(tag)
                .ok_or_else(|| corrupt(format!("unknown snapshot kind tag {tag}")))?;
            files.push((epoch, partition, kind));
        }
        if pos != body.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after manifest body",
                body.len() - pos
            )));
        }
        Ok(Some(Manifest {
            sealed_epoch,
            incarnation,
            shards,
            offsets,
            files,
        }))
    }

    /// Remove every `.snap` file not referenced by `manifest` (half-uploaded
    /// files from a crash, superseded delta chains, rolled-back epochs).
    /// Returns the number of files removed.
    pub fn gc(&self, manifest: &Manifest) -> Result<usize, DurableError> {
        let referenced: std::collections::BTreeSet<(u64, u32, SnapKind)> =
            manifest.files.iter().copied().collect();
        let mut removed = 0;
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let stale = match parse_snap_file_name(&name) {
                Some(key) => !referenced.contains(&key),
                None => name.ends_with(".snap"),
            };
            if stale {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| io_err(&path, &e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Number of `.snap` files currently in the directory.
    pub fn snapshot_file_count(&self) -> Result<usize, DurableError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        let mut count = 0;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, &e))?;
            if entry.file_name().to_string_lossy().ends_with(".snap") {
                count += 1;
            }
        }
        Ok(count)
    }
}

/// Write a standalone checksummed blob (used for capture spilling). The file
/// is fully written and fsynced before returning.
pub fn write_blob(path: &Path, payload: &[u8]) -> Result<(), DurableError> {
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(&BLOB_MAGIC);
    bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    write_synced(path, &bytes)
}

/// Read back a blob written by [`write_blob`], verifying magic and checksum.
pub fn read_blob(path: &Path) -> Result<Vec<u8>, DurableError> {
    let corrupt = |detail: String| DurableError::CorruptSnapshotFile {
        path: path.to_string_lossy().into_owned(),
        epoch: 0,
        partition: 0,
        detail,
    };
    let data = fs::read(path).map_err(|e| io_err(path, &e))?;
    if data.len() < 16 {
        return Err(corrupt(format!("truncated blob ({} bytes)", data.len())));
    }
    if data[0..4] != BLOB_MAGIC {
        return Err(corrupt(format!("bad blob magic {:02x?}", &data[0..4])));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(corrupt(format!("unsupported blob version {version}")));
    }
    let len = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(data[12..16].try_into().unwrap());
    if data.len() != 16 + len {
        return Err(corrupt(format!(
            "payload length {len} does not match file size {}",
            data.len()
        )));
    }
    let payload = &data[16..];
    let actual = crc32(payload);
    if actual != stored_crc {
        return Err(corrupt(format!(
            "blob checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn sync_dir_on_a_removed_directory_is_an_error_naming_it() {
        let tmp = TempDir::new("sync-dir");
        sync_dir(tmp.path()).expect("an existing directory syncs");
        let gone = tmp.path().join("gone");
        fs::create_dir(&gone).unwrap();
        fs::remove_dir(&gone).unwrap();
        match sync_dir(&gone) {
            Err(DurableError::Io { path, .. }) => {
                assert_eq!(path, gone.to_string_lossy());
            }
            other => panic!("expected an i/o error naming the directory, got {other:?}"),
        }
    }
}
