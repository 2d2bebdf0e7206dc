//! Crash-safe on-disk session store: durable checkpoint frames keyed by
//! session id, surviving process kills, torn writes and media corruption.
//!
//! # Atomicity & fsync policy
//!
//! Every file the store writes — checkpoint frames and the manifest alike —
//! goes through the same discipline: write to a `*.tmp` sibling, `fsync` the
//! file, `rename` over the final name, `fsync` the directory. A crash
//! therefore leaves either the old content, the new content, or a stale
//! `*.tmp` (swept at the next [`SessionStore::open`]); a final-name file is
//! never half-written by the store itself.
//!
//! # Manifest
//!
//! `MANIFEST` is a sealed frame (same magic/version/checksum machinery as
//! session checkpoints, with its own payload kind) recording, per session id:
//! lifecycle state (*active* / *done*), the frame's byte length, and the
//! frame's whole-file FNV-1a checksum. The manifest record is authoritative:
//! at recovery, a frame that disagrees with its record — wrong length, wrong
//! checksum, missing, or present without a record — is **discarded with a
//! typed reason and quarantined to `*.ckpt.corrupt`**, never resurrected; the
//! job simply restarts fresh, which is always correct (just slower). This is
//! what makes a cross-id frame swap, a torn rename window, or silent media
//! corruption safe. Only when the manifest itself is missing or corrupt does
//! the store rebuild it by adopting frames that pass their own internal
//! seals (the service's label check is the backstop there).
//!
//! Write ordering: a put first preserves the currently-committed frame as a
//! `*.ckpt.prev` hard link (overwrites only), then renames the new frame
//! into place, then updates the manifest, then drops the link. A crash
//! between the rename and the manifest update therefore discards only the
//! newest slice: recovery sees the disagreement on the final name, finds the
//! preserved previous frame still matching the manifest record, and promotes
//! it back — the session falls back one slice instead of restarting fresh
//! ([`RecoveryReport::restored_previous`]). Completion marks the record
//! *done* in the manifest *before* unlinking the frame (a crash in between
//! is swept as done-with-leftover-frame).
//!
//! # Lock scope
//!
//! The store has two locks:
//!
//! * **the published map** (id → manifest record) is held only for short
//!   in-memory sections, never across I/O, so [`SessionStore::is_active`],
//!   [`SessionStore::get`] and [`SessionStore::active_ids`] never wait
//!   behind an fsync;
//! * **the manifest-writer lock** serialises manifest writers. Under it a
//!   writer ([`SessionStore::put`], [`SessionStore::remove`]) snapshots the
//!   published map plus its own change, writes that manifest, and publishes
//!   the change only once the write has succeeded. Every later snapshot
//!   therefore includes every earlier commit, and the map never holds a
//!   record the durable manifest lacks.
//!
//! A put's `.prev` link and its atomic frame write run outside both locks,
//! so frame writes for different ids overlap. That rests on the **per-id
//! contract**: calls for one id never overlap. The slice pool guarantees it
//! (a job runs on one worker at a time, and a drain parks only after
//! quiescing the workers); calls for different ids may run concurrently
//! from any number of threads.
//!
//! # Degradation & fault injection
//!
//! Writes retry with bounded exponential backoff ([`StoreOptions`]); the
//! slice pool behind [`crate::server::Server`] treats a put that still fails
//! as a *degraded* write: the session carries on from its resident state
//! rather than failing. All I/O paths consult an optional [`FaultPlan`]
//! ([`FaultSite::StoreWrite`] / [`FaultSite::StoreRead`] /
//! [`FaultSite::StoreRename`]) so torn writes, bit flips and synthetic I/O
//! errors are injectable deterministically — `tests/checkpoint_fuzz.rs` and
//! `tests/service_recovery.rs` drive these hooks.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::checkpoint::{
    fnv1a64, open_frame, open_frame_with_kind, seal_frame_with_kind, ByteReader, ByteWriter,
    CheckpointError, KIND_MANIFEST,
};
use crate::fault::{apply_bit_flip, Fault, FaultPlan, FaultSite};

/// File name of the store manifest inside the store directory.
const MANIFEST_NAME: &str = "MANIFEST";

/// Extension of checkpoint frame files.
const FRAME_EXT: &str = "ckpt";

/// Suffix of in-flight atomic-write temporaries (swept at open).
const TMP_SUFFIX: &str = ".tmp";

/// Suffix frames are quarantined under when recovery rejects them. Kept on
/// disk for forensics; never read back as a frame.
const CORRUPT_SUFFIX: &str = ".corrupt";

/// Suffix of the preserved previous frame during an overwriting put: the
/// fallback recovery promotes back when a crash lands between the frame
/// rename and the manifest update. Swept at open otherwise.
const PREV_SUFFIX: &str = ".prev";

/// A typed store failure. `Clone`/`PartialEq` so it can ride inside
/// [`crate::CoreError`]; raw `std::io::Error` details are carried as strings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// An I/O operation failed (after the store's bounded retries, where
    /// retries apply).
    Io {
        /// The operation that failed (`"write"`, `"rename"`, `"read"`, …).
        op: &'static str,
        /// Path involved.
        path: String,
        /// Stringified OS error (or injected-fault marker).
        detail: String,
    },
    /// A stored frame failed its integrity checks (sealed-frame validation).
    Corrupt {
        /// Session id of the offending entry.
        id: String,
        /// The underlying frame-validation failure.
        source: CheckpointError,
    },
    /// The manifest and the on-disk frame disagree (wrong length/checksum,
    /// frame missing for an active record, or frame present without a
    /// record). The entry is discarded — never resurrected on a guess.
    ManifestDisagreement {
        /// Session id of the offending entry.
        id: String,
        /// What disagreed.
        detail: String,
    },
    /// No active entry under this id.
    UnknownSession {
        /// The id that was looked up.
        id: String,
    },
    /// The session id cannot be used as a store key.
    InvalidId {
        /// The offending id.
        id: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "store {op} failed for `{path}`: {detail}")
            }
            StoreError::Corrupt { id, source } => {
                write!(f, "stored frame for session `{id}` is corrupt: {source}")
            }
            StoreError::ManifestDisagreement { id, detail } => {
                write!(f, "manifest/frame disagreement for session `{id}`: {detail}")
            }
            StoreError::UnknownSession { id } => write!(f, "no stored session `{id}`"),
            StoreError::InvalidId { id, reason } => {
                write!(f, "invalid session id `{id}`: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Durability tuning for a [`SessionStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Total attempts per durable write (first try + retries). At least 1.
    pub write_attempts: usize,
    /// Backoff before the first retry; doubles per subsequent retry
    /// (bounded by `write_attempts`).
    pub retry_backoff: Duration,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { write_attempts: 3, retry_backoff: Duration::from_millis(1) }
    }
}

/// What [`SessionStore::open`]'s recovery scan found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Ids with a manifest-consistent sealed frame, re-admittable via
    /// [`SessionStore::get`].
    pub recovered: Vec<String>,
    /// Entries discarded with their typed reasons (frame quarantined to
    /// `*.ckpt.corrupt` when bytes existed). These jobs restart fresh.
    pub discarded: Vec<(String, StoreError)>,
    /// Stale `*.tmp` files swept (the trace of crashes mid-write).
    pub swept_temp_files: usize,
    /// `done` records garbage-collected (including leftover frames from a
    /// crash between the done-mark and the unlink).
    pub swept_done: usize,
    /// Whether the manifest was missing/corrupt and rebuilt by adopting
    /// internally-sealed frames.
    pub manifest_rebuilt: bool,
    /// Sessions whose newest frame was lost to a crash mid-put but whose
    /// preserved previous frame still matched the manifest and was promoted
    /// back (the session resumes one slice behind instead of fresh).
    pub restored_previous: usize,
}

/// Lifecycle state of a manifest record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Active,
    Done,
}

#[derive(Debug, Clone)]
struct ManifestEntry {
    state: EntryState,
    frame_len: u64,
    frame_checksum: u64,
}

/// The crash-safe on-disk session store. All methods take `&self` and may
/// be called from many scheduler workers at once, provided calls for one id
/// never overlap (the slice pool runs a job on one worker at a time). Frame
/// writes for different ids proceed in parallel; manifest writers are
/// serialised on their own lock, and lookups take only a short in-memory
/// lock that is never held across I/O. See the module docs for the lock
/// scope and the durability contract.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    options: StoreOptions,
    fault_plan: Option<Arc<FaultPlan>>,
    /// The published records. Each one is in the durable manifest: writers
    /// insert only after their manifest write succeeded.
    entries: Mutex<BTreeMap<String, ManifestEntry>>,
    /// Serialises manifest writers (see [`SessionStore::commit`]).
    manifest_writer: Mutex<()>,
    recovery: RecoveryReport,
}

impl SessionStore {
    /// Opens (creating if needed) the store at `dir` with default options and
    /// runs the recovery scan. See [`SessionStore::open_with`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<SessionStore, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (creating if needed) the store at `dir`: sweeps stale temp
    /// files, loads or rebuilds the manifest, reconciles it against the
    /// on-disk frames (see module docs for the state machine), and persists
    /// the reconciled manifest. The scan's findings are available from
    /// [`SessionStore::recovery`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<SessionStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|err| io_error("create", &dir, &err))?;
        let mut store = SessionStore {
            dir,
            options,
            fault_plan: None,
            entries: Mutex::new(BTreeMap::new()),
            manifest_writer: Mutex::new(()),
            recovery: RecoveryReport::default(),
        };
        store.recovery = store.reconcile()?;
        Ok(store)
    }

    /// Arms deterministic fault injection on every subsequent I/O operation
    /// (reads, writes, renames — including manifest traffic). Call before
    /// handing the store to a [`crate::server::Server`].
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault_plan = plan;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the opening recovery scan found and did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Ids with an active stored frame, sorted.
    pub fn active_ids(&self) -> Vec<String> {
        self.lock_entries()
            .iter()
            .filter(|(_, entry)| entry.state == EntryState::Active)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Whether `id` has an active stored frame.
    pub fn is_active(&self, id: &str) -> bool {
        self.lock_entries().get(id).is_some_and(|entry| entry.state == EntryState::Active)
    }

    /// Durably stores `frame` under `id` (atomic write, bounded retries, then
    /// manifest update). On success the frame survives a process kill at any
    /// later point. On failure the previous frame (if any) is untouched.
    ///
    /// The frame write runs outside the store's locks; only the manifest
    /// update waits for other writers. Must not overlap another call for the
    /// same `id`.
    pub fn put(&self, id: &str, frame: &[u8]) -> Result<(), StoreError> {
        validate_id(id)?;
        let path = self.frame_path(id);
        let prev = prev_path(&path);
        let entry = ManifestEntry {
            state: EntryState::Active,
            frame_len: frame.len() as u64,
            frame_checksum: fnv1a64(frame),
        };
        // Preserve the committed frame across the rename-vs-manifest crash
        // window (overwrites only): a hard link is free and atomic; recovery
        // promotes it back if the manifest still points at it.
        let _ = fs::remove_file(&prev);
        let preserved = self.is_active(id)
            && (fs::hard_link(&path, &prev).is_ok() || fs::copy(&path, &prev).is_ok());
        if let Err(err) = self.with_retries(|| self.write_file_atomic(&path, frame)) {
            let _ = fs::remove_file(&prev);
            return Err(err);
        }
        if let Err(err) = self.commit(id, entry) {
            if preserved {
                // The manifest still records the previous frame: roll the
                // file back so disk, the map and a restart all agree on it.
                let _ = fs::rename(&prev, &path);
            } else {
                // No previous frame to fall back to: drop the now-unaccounted
                // frame, and the record of one that could not be preserved,
                // so the map matches what a restart would conclude.
                self.lock_entries().remove(id);
                let _ = fs::remove_file(&prev);
                let _ = fs::remove_file(&path);
            }
            return Err(err);
        }
        let _ = fs::remove_file(&prev);
        Ok(())
    }

    /// Loads the active frame stored under `id`, re-validating it end to end
    /// (manifest length/checksum, then the sealed-frame checks). Never waits
    /// behind a manifest write. Must not overlap a put or remove for the same
    /// `id`: the frame file could change under the record it is checked
    /// against.
    pub fn get(&self, id: &str) -> Result<Vec<u8>, StoreError> {
        validate_id(id)?;
        let entry = match self.lock_entries().get(id) {
            Some(entry) if entry.state == EntryState::Active => entry.clone(),
            _ => return Err(StoreError::UnknownSession { id: id.to_string() }),
        };
        let path = self.frame_path(id);
        let bytes = self.read_file(&path)?;
        if bytes.len() as u64 != entry.frame_len || fnv1a64(&bytes) != entry.frame_checksum {
            return Err(StoreError::ManifestDisagreement {
                id: id.to_string(),
                detail: format!(
                    "frame is {} bytes with checksum {:#018x}, manifest records {} bytes with \
                     checksum {:#018x}",
                    bytes.len(),
                    fnv1a64(&bytes),
                    entry.frame_len,
                    entry.frame_checksum
                ),
            });
        }
        open_frame(&bytes).map_err(|source| StoreError::Corrupt { id: id.to_string(), source })?;
        Ok(bytes)
    }

    /// Marks `id` complete and removes its frame: the record goes *done* in
    /// the manifest first, then the frame is unlinked (a crash in between is
    /// swept at the next open). After this, the session is no longer
    /// recoverable — call it only once the job's result is delivered. If the
    /// manifest write fails, the entry stays active in memory as on disk.
    /// Must not overlap another call for the same `id`.
    pub fn remove(&self, id: &str) -> Result<(), StoreError> {
        validate_id(id)?;
        let Some(entry) = self.lock_entries().get(id).cloned() else {
            return Err(StoreError::UnknownSession { id: id.to_string() });
        };
        self.commit(id, ManifestEntry { state: EntryState::Done, ..entry })?;
        let path = self.frame_path(id);
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => return Err(io_error("remove", &path, &err)),
        }
        self.lock_entries().remove(id);
        Ok(())
    }

    /// On-disk path of `id`'s frame file (ids are percent-encoded into safe
    /// file names).
    pub fn frame_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{}.{FRAME_EXT}", encode_id(id)))
    }

    fn lock_entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, ManifestEntry>> {
        // Manifest state stays consistent even if a panicking thread held the
        // lock: every mutation is a whole-entry insert/update.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commits one record change: under the manifest-writer lock, writes the
    /// published map with `id` set to `entry` (bounded retries), then
    /// publishes the change. Writers publish before releasing the lock, so
    /// each manifest includes every earlier commit; a failed write publishes
    /// nothing.
    fn commit(&self, id: &str, entry: ManifestEntry) -> Result<(), StoreError> {
        // The guard protects no data, so a writer that panicked left nothing
        // half-updated.
        let _writer = self.manifest_writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut manifest = self.lock_entries().clone();
        manifest.insert(id.to_string(), entry.clone());
        self.with_retries(|| self.persist_manifest(&manifest))?;
        self.lock_entries().insert(id.to_string(), entry);
        Ok(())
    }

    /// Runs `attempt` up to `write_attempts` times with doubling backoff.
    fn with_retries(
        &self,
        mut attempt: impl FnMut() -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let attempts = self.options.write_attempts.max(1);
        let mut backoff = self.options.retry_backoff;
        let mut last = Ok(());
        for round in 0..attempts {
            if round > 0 && !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            last = attempt();
            if last.is_ok() {
                return Ok(());
            }
        }
        last
    }

    /// One atomic durable write: temp file → fsync → rename → directory
    /// fsync, with `StoreWrite`/`StoreRename` fault hooks.
    fn write_file_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        let fault =
            self.fault_plan.as_ref().and_then(|p| p.decide(FaultSite::StoreWrite, bytes.len()));
        match fault {
            Some(Fault::IoError) => {
                return Err(injected_io("write", &tmp));
            }
            Some(Fault::TornWrite { keep }) => {
                // The crash-mid-write trace: a torn temp file left behind.
                let _ = fs::write(&tmp, &bytes[..keep.min(bytes.len())]);
                return Err(StoreError::Io {
                    op: "write",
                    path: tmp.display().to_string(),
                    detail: "injected fault: torn write".into(),
                });
            }
            Some(flip @ Fault::BitFlip { .. }) => {
                // Silent corruption: the write "succeeds" with damaged bytes;
                // the manifest checksum catches it at the next read/recovery.
                let mut damaged = bytes.to_vec();
                apply_bit_flip(flip, &mut damaged);
                self.write_file_raw(&tmp, &damaged)?;
            }
            _ => self.write_file_raw(&tmp, bytes)?,
        }
        if let Some(Fault::IoError) =
            self.fault_plan.as_ref().and_then(|p| p.decide(FaultSite::StoreRename, bytes.len()))
        {
            return Err(injected_io("rename", path));
        }
        fs::rename(&tmp, path).map_err(|err| io_error("rename", path, &err))?;
        self.sync_dir()
    }

    fn write_file_raw(&self, tmp: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let mut file = fs::File::create(tmp).map_err(|err| io_error("create", tmp, &err))?;
        file.write_all(bytes).map_err(|err| io_error("write", tmp, &err))?;
        file.sync_all().map_err(|err| io_error("fsync", tmp, &err))
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        let dir = fs::File::open(&self.dir).map_err(|err| io_error("open", &self.dir, &err))?;
        dir.sync_all().map_err(|err| io_error("fsync", &self.dir, &err))
    }

    /// One read with the `StoreRead` fault hooks (synthetic errors and
    /// in-flight bit flips).
    fn read_file(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        let mut bytes = fs::read(path).map_err(|err| io_error("read", path, &err))?;
        match self.fault_plan.as_ref().and_then(|p| p.decide(FaultSite::StoreRead, bytes.len())) {
            Some(Fault::IoError) => return Err(injected_io("read", path)),
            Some(flip @ Fault::BitFlip { .. }) => {
                apply_bit_flip(flip, &mut bytes);
            }
            _ => {}
        }
        Ok(bytes)
    }

    /// Serialises and durably writes the manifest (callers hold the
    /// manifest-writer lock or, at open, `&mut self`).
    fn persist_manifest(
        &self,
        entries: &BTreeMap<String, ManifestEntry>,
    ) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_usize(entries.len());
        for (id, entry) in entries {
            w.put_bytes(id.as_bytes());
            w.put_u8(match entry.state {
                EntryState::Active => 0,
                EntryState::Done => 1,
            });
            w.put_u64(entry.frame_len);
            w.put_u64(entry.frame_checksum);
        }
        let payload = w.into_bytes();
        let frame = seal_frame_with_kind(KIND_MANIFEST, fnv1a64(&payload), &payload);
        self.write_file_atomic(&self.dir.join(MANIFEST_NAME), &frame)
    }

    /// Parses manifest bytes (inverse of [`SessionStore::persist_manifest`]).
    fn parse_manifest(bytes: &[u8]) -> Result<BTreeMap<String, ManifestEntry>, CheckpointError> {
        let (digest, payload) = open_frame_with_kind(KIND_MANIFEST, bytes)?;
        let found = fnv1a64(payload);
        if digest != found {
            return Err(CheckpointError::DigestMismatch { expected: digest, found });
        }
        let mut r = ByteReader::new(payload);
        let count = r.take_usize()?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let id = String::from_utf8(r.take_bytes()?.to_vec())
                .map_err(|_| CheckpointError::Malformed("manifest id is not UTF-8".into()))?;
            let state = match r.take_u8()? {
                0 => EntryState::Active,
                1 => EntryState::Done,
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "invalid manifest entry state {other}"
                    )))
                }
            };
            let frame_len = r.take_u64()?;
            let frame_checksum = r.take_u64()?;
            entries.insert(id, ManifestEntry { state, frame_len, frame_checksum });
        }
        r.expect_end()?;
        Ok(entries)
    }

    /// The recovery scan (see module docs for the full state machine).
    fn reconcile(&mut self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();

        // 1. Sweep atomic-write temporaries: they are, by construction, the
        //    only files a crash can leave half-written.
        let mut frames_on_disk: Vec<String> = Vec::new();
        let mut prev_files: Vec<PathBuf> = Vec::new();
        let listing = fs::read_dir(&self.dir).map_err(|err| io_error("scan", &self.dir, &err))?;
        for entry in listing {
            let entry = entry.map_err(|err| io_error("scan", &self.dir, &err))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(TMP_SUFFIX) {
                if fs::remove_file(entry.path()).is_ok() {
                    report.swept_temp_files += 1;
                }
            } else if name.ends_with(PREV_SUFFIX) {
                // Preserved previous frames: only authoritative when the
                // manifest still describes them — checked per record below,
                // leftovers swept after the scan.
                prev_files.push(entry.path());
            } else if let Some(stem) = name.strip_suffix(&format!(".{FRAME_EXT}")) {
                if let Some(id) = decode_id(stem) {
                    frames_on_disk.push(id);
                }
            }
        }

        // 2. Load the manifest; a missing or corrupt one switches the scan to
        //    rebuild mode.
        let manifest_path = self.dir.join(MANIFEST_NAME);
        let manifest =
            self.read_file(&manifest_path).ok().and_then(|bytes| Self::parse_manifest(&bytes).ok());

        let mut reconciled: BTreeMap<String, ManifestEntry> = BTreeMap::new();
        match manifest {
            Some(entries) => {
                for (id, entry) in entries {
                    let path = self.frame_path(&id);
                    match entry.state {
                        EntryState::Done => {
                            // Crash window between done-mark and unlink.
                            let _ = fs::remove_file(&path);
                            report.swept_done += 1;
                        }
                        EntryState::Active => match self.read_file(&path) {
                            Ok(bytes)
                                if bytes.len() as u64 == entry.frame_len
                                    && fnv1a64(&bytes) == entry.frame_checksum =>
                            {
                                match open_frame(&bytes) {
                                    Ok(_) => {
                                        reconciled.insert(id.clone(), entry);
                                        report.recovered.push(id);
                                    }
                                    Err(source) => {
                                        self.quarantine_frame(&path);
                                        report
                                            .discarded
                                            .push((id.clone(), StoreError::Corrupt { id, source }));
                                    }
                                }
                            }
                            Ok(_) if self.restore_previous(&path, &entry) => {
                                // Crash mid-put: the final name held the
                                // torn newer frame, the preserved previous
                                // one still matches the manifest. Promoted
                                // back; the session resumes one slice behind.
                                reconciled.insert(id.clone(), entry);
                                report.recovered.push(id);
                                report.restored_previous += 1;
                            }
                            Ok(bytes) => {
                                self.quarantine_frame(&path);
                                let detail = format!(
                                    "frame is {} bytes with checksum {:#018x}, manifest records \
                                     {} bytes with checksum {:#018x}",
                                    bytes.len(),
                                    fnv1a64(&bytes),
                                    entry.frame_len,
                                    entry.frame_checksum
                                );
                                report.discarded.push((
                                    id.clone(),
                                    StoreError::ManifestDisagreement { id, detail },
                                ));
                            }
                            Err(_) if self.restore_previous(&path, &entry) => {
                                reconciled.insert(id.clone(), entry);
                                report.recovered.push(id);
                                report.restored_previous += 1;
                            }
                            Err(err) => {
                                self.quarantine_frame(&path);
                                report.discarded.push((
                                    id.clone(),
                                    StoreError::ManifestDisagreement {
                                        id,
                                        detail: format!(
                                            "active record but frame unreadable: {err}"
                                        ),
                                    },
                                ));
                            }
                        },
                    }
                }
                // Frames on disk with no manifest record: the rename-before-
                // manifest crash window, or foreign files. Discard — the
                // record is authoritative.
                for id in frames_on_disk {
                    if !reconciled.contains_key(&id)
                        && !report.discarded.iter().any(|(d, _)| d == &id)
                        && !report.recovered.contains(&id)
                    {
                        self.quarantine_frame(&self.frame_path(&id));
                        report.discarded.push((
                            id.clone(),
                            StoreError::ManifestDisagreement {
                                id,
                                detail: "frame present without a manifest record".into(),
                            },
                        ));
                    }
                }
            }
            None => {
                // Rebuild mode: adopt every internally-sealed frame. The
                // service's scenario-label check is the backstop against a
                // mis-keyed frame here.
                report.manifest_rebuilt = true;
                for id in frames_on_disk {
                    let path = self.frame_path(&id);
                    match self.read_file(&path) {
                        Ok(bytes) => match open_frame(&bytes) {
                            Ok(_) => {
                                reconciled.insert(
                                    id.clone(),
                                    ManifestEntry {
                                        state: EntryState::Active,
                                        frame_len: bytes.len() as u64,
                                        frame_checksum: fnv1a64(&bytes),
                                    },
                                );
                                report.recovered.push(id);
                            }
                            Err(source) => {
                                self.quarantine_frame(&path);
                                report
                                    .discarded
                                    .push((id.clone(), StoreError::Corrupt { id, source }));
                            }
                        },
                        Err(err) => {
                            self.quarantine_frame(&path);
                            report.discarded.push((id, err));
                        }
                    }
                }
            }
        }

        // Leftover preserved-previous frames (their put committed, or their
        // record resolved above): never authoritative on their own — sweep.
        for prev in prev_files {
            if fs::remove_file(&prev).is_ok() {
                report.swept_temp_files += 1;
            }
        }

        let persist = self.with_retries(|| self.persist_manifest(&reconciled));
        *self.lock_entries() = reconciled;
        persist?;
        report.recovered.sort();
        Ok(report)
    }

    /// Attempts to promote the preserved previous frame back into place when
    /// the manifest record still describes it exactly — the crash-mid-put
    /// fallback (see the module docs on write ordering). On success the
    /// final frame name holds the previous, manifest-consistent bytes.
    fn restore_previous(&self, path: &Path, entry: &ManifestEntry) -> bool {
        let prev = prev_path(path);
        let Ok(bytes) = self.read_file(&prev) else {
            return false;
        };
        bytes.len() as u64 == entry.frame_len
            && fnv1a64(&bytes) == entry.frame_checksum
            && open_frame(&bytes).is_ok()
            && fs::rename(&prev, path).is_ok()
    }

    /// Moves a rejected frame aside (best-effort) so it is never read as a
    /// frame again but stays available for forensics.
    fn quarantine_frame(&self, path: &Path) {
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(CORRUPT_SUFFIX);
        let _ = fs::rename(path, PathBuf::from(quarantined));
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(TMP_SUFFIX);
    PathBuf::from(tmp)
}

fn prev_path(path: &Path) -> PathBuf {
    let mut prev = path.as_os_str().to_owned();
    prev.push(PREV_SUFFIX);
    PathBuf::from(prev)
}

fn io_error(op: &'static str, path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io { op, path: path.display().to_string(), detail: err.to_string() }
}

fn injected_io(op: &'static str, path: &Path) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: "injected fault: synthetic I/O error".into(),
    }
}

fn validate_id(id: &str) -> Result<(), StoreError> {
    if id.is_empty() {
        return Err(StoreError::InvalidId { id: id.into(), reason: "empty id".into() });
    }
    if id.len() > 512 {
        return Err(StoreError::InvalidId {
            id: id.into(),
            reason: "id longer than 512 bytes".into(),
        });
    }
    // Worst case every byte percent-encodes to three; the stem plus the
    // frame extension must stay under common 255-byte file-name limits, so
    // oversized ids fail typed here instead of as an opaque I/O error at
    // the first write.
    let encoded = encode_id(id).len();
    if encoded > 240 {
        return Err(StoreError::InvalidId {
            id: id.into(),
            reason: format!("id encodes to a {encoded}-byte file name (limit 240)"),
        });
    }
    Ok(())
}

/// Percent-encodes an id into a safe file-name stem: ASCII alphanumerics,
/// `-`, `_` and `.` pass through (except a leading `.`); everything else
/// becomes `%XX` per byte. Injective, so distinct ids never collide on disk.
fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for (index, byte) in id.bytes().enumerate() {
        let plain = byte.is_ascii_alphanumeric()
            || byte == b'-'
            || byte == b'_'
            || (byte == b'.' && index > 0);
        if plain && byte != b'%' {
            out.push(byte as char);
        } else {
            out.push('%');
            out.push_str(&format!("{byte:02X}"));
        }
    }
    out
}

/// Inverse of [`encode_id`]; `None` for stems that are not valid encodings
/// (foreign files in the store directory are simply ignored by the scan).
/// Only **canonical** stems decode: re-encoding the decoded id must
/// reproduce the stem byte for byte, so aliases like `%2E%2E` for `..`
/// (whose canonical stem is `%2E.`) or lowercase hex are rejected — two
/// distinct on-disk stems can never claim the same session id, and ids the
/// validator refuses (empty, oversized) have no decodable stem at all.
fn decode_id(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = stem.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    let id = String::from_utf8(out).ok()?;
    if validate_id(&id).is_err() || encode_id(&id) != stem {
        return None;
    }
    Some(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "harvsim-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn frame(tag: u8) -> Vec<u8> {
        // Any sealed session-kind frame works for store-level tests.
        crate::checkpoint::seal_frame(fnv1a64(&[tag]), &[tag; 32])
    }

    #[test]
    fn id_encoding_is_injective_and_reversible() {
        for id in ["job-1", "a b/c", "..", "%41", "näme", ".hidden"] {
            let enc = encode_id(id);
            assert!(!enc.contains('/'), "{enc}");
            assert!(!enc.starts_with('.'), "{enc}");
            assert_eq!(decode_id(&enc).as_deref(), Some(id), "roundtrip of {id:?}");
        }
        assert_ne!(encode_id("a/b"), encode_id("a%2Fb"));
    }

    #[test]
    fn put_get_remove_roundtrip_and_recovery_across_reopen() {
        let dir = unique_dir("roundtrip");
        let store = SessionStore::open(&dir).unwrap();
        assert!(store.active_ids().is_empty());
        store.put("alpha", &frame(1)).unwrap();
        store.put("beta", &frame(2)).unwrap();
        assert_eq!(store.active_ids(), vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(store.get("alpha").unwrap(), frame(1));
        // Overwrite is atomic and replaces the record.
        store.put("alpha", &frame(3)).unwrap();
        assert_eq!(store.get("alpha").unwrap(), frame(3));
        store.remove("beta").unwrap();
        assert!(matches!(store.get("beta"), Err(StoreError::UnknownSession { .. })));
        drop(store);

        // Reopen: alpha survives the "restart", beta stays gone.
        let store = SessionStore::open(&dir).unwrap();
        assert_eq!(store.recovery().recovered, vec!["alpha".to_string()]);
        assert_eq!(store.get("alpha").unwrap(), frame(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_faults_exhaust_retries_with_a_typed_error_and_flips_are_caught() {
        let dir = unique_dir("faults");
        let mut store = SessionStore::open_with(
            &dir,
            StoreOptions { write_attempts: 2, retry_backoff: Duration::ZERO },
        )
        .unwrap();
        let plan = Arc::new(FaultPlan::new(11).with_site_kinds(
            FaultSite::StoreWrite,
            1,
            u64::MAX,
            &[FaultKind::Io],
        ));
        store.set_fault_plan(Some(plan));
        match store.put("gamma", &frame(4)) {
            Err(StoreError::Io { detail, .. }) => assert!(detail.contains("injected")),
            other => panic!("expected injected Io error, got {other:?}"),
        }
        store.set_fault_plan(None);

        // A bit-flipped write "succeeds" silently; the manifest checksum
        // catches it on read, typed — never a resurrect.
        store.set_fault_plan(Some(Arc::new(FaultPlan::new(12).with_site_kinds(
            FaultSite::StoreWrite,
            1,
            1,
            &[FaultKind::Flip],
        ))));
        store.put("delta", &frame(5)).unwrap();
        store.set_fault_plan(None);
        match store.get("delta") {
            Err(StoreError::ManifestDisagreement { .. }) => {}
            other => panic!("expected a manifest disagreement, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_discards_manifestless_frames_and_sweeps_temps() {
        let dir = unique_dir("reconcile");
        {
            let store = SessionStore::open(&dir).unwrap();
            store.put("keep", &frame(6)).unwrap();
        }
        // A frame with no manifest record (rename-before-manifest window)...
        fs::write(dir.join("orphan.ckpt"), frame(7)).unwrap();
        // ...and a stale atomic-write temp.
        fs::write(dir.join("stale.ckpt.tmp"), b"half").unwrap();

        let store = SessionStore::open(&dir).unwrap();
        let recovery = store.recovery();
        assert_eq!(recovery.recovered, vec!["keep".to_string()]);
        assert_eq!(recovery.swept_temp_files, 1);
        assert_eq!(recovery.discarded.len(), 1);
        assert!(matches!(recovery.discarded[0].1, StoreError::ManifestDisagreement { .. }));
        assert!(!dir.join("orphan.ckpt").exists());
        assert!(dir.join("orphan.ckpt.corrupt").exists(), "rejected frames are quarantined");
        assert!(!dir.join("stale.ckpt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One attempt per write and every `period`-th `StoreWrite` an I/O error.
    fn store_failing_every(dir: &Path, period: u64) -> SessionStore {
        let mut store = SessionStore::open_with(
            dir,
            StoreOptions { write_attempts: 1, retry_backoff: Duration::ZERO },
        )
        .unwrap();
        store.set_fault_plan(Some(Arc::new(FaultPlan::new(13).with_site_kinds(
            FaultSite::StoreWrite,
            period,
            u64::MAX,
            &[FaultKind::Io],
        ))));
        store
    }

    #[test]
    fn a_failed_remove_leaves_the_entry_active_in_memory_and_on_disk() {
        let dir = unique_dir("remove-fault");
        SessionStore::open(&dir).unwrap().put("epsilon", &frame(8)).unwrap();
        let store = store_failing_every(&dir, 1);
        assert!(matches!(store.remove("epsilon"), Err(StoreError::Io { .. })));
        assert!(store.is_active("epsilon"), "the manifest still records the entry active");
        assert_eq!(store.active_ids(), vec!["epsilon".to_string()]);
        drop(store);

        let store = SessionStore::open(&dir).unwrap();
        assert_eq!(store.recovery().recovered, vec!["epsilon".to_string()], "a reopen agrees");
        assert_eq!(store.get("epsilon").unwrap(), frame(8));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_manifest_write_rolls_a_put_back_on_disk() {
        let dir = unique_dir("put-fault");
        SessionStore::open(&dir).unwrap().put("zeta", &frame(9)).unwrap();
        // Each put writes its frame, then the manifest: period 2 fails
        // every manifest write and no frame write.
        let store = store_failing_every(&dir, 2);
        assert!(matches!(store.put("zeta", &frame(10)), Err(StoreError::Io { .. })));
        assert_eq!(store.get("zeta").unwrap(), frame(9), "the previous frame is back");
        assert!(matches!(store.put("eta", &frame(11)), Err(StoreError::Io { .. })));
        assert!(!store.is_active("eta"));
        assert!(!store.frame_path("eta").exists(), "an unrecorded frame is dropped");
        drop(store);

        let store = SessionStore::open(&dir).unwrap();
        let recovery = store.recovery();
        assert_eq!(recovery.recovered, vec!["zeta".to_string()]);
        assert!(recovery.discarded.is_empty(), "{:?}", recovery.discarded);
        assert_eq!((recovery.restored_previous, recovery.swept_temp_files), (0, 0));
        assert_eq!(store.get("zeta").unwrap(), frame(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The active records of a manifest map, comparable across maps.
    fn active_records(entries: &BTreeMap<String, ManifestEntry>) -> Vec<(String, u64, u64)> {
        entries
            .iter()
            .filter(|(_, entry)| entry.state == EntryState::Active)
            .map(|(id, entry)| (id.clone(), entry.frame_len, entry.frame_checksum))
            .collect()
    }

    #[test]
    fn concurrent_puts_and_removes_commit_every_last_frame() {
        const THREADS: u8 = 4;
        const ROUNDS: u8 = 8;
        let tag = |thread: u8, round: u8| round * THREADS + thread;
        let dir = unique_dir("concurrent");
        let store = SessionStore::open(&dir).unwrap();
        let barrier = std::sync::Barrier::new(usize::from(THREADS));
        let problems: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        let (keep, gone) = (format!("keep-{thread}"), format!("gone-{thread}"));
                        let mut problems = Vec::new();
                        for round in 0..ROUNDS {
                            // The barrier lines the threads up each round, so
                            // their frame and manifest writes overlap. Failures
                            // are collected, not raised: a thread that panicked
                            // would leave the others waiting here for ever.
                            barrier.wait();
                            let bytes = frame(tag(thread, round));
                            let kept = store.put(&keep, &bytes).and_then(|()| store.get(&keep));
                            if kept.as_ref() != Ok(&bytes) {
                                problems.push(format!("{keep} round {round}: {kept:?}"));
                            }
                            if thread % 2 == 0 {
                                let gone_now =
                                    store.put(&gone, &bytes).and_then(|()| store.remove(&gone));
                                if gone_now.is_err() || store.is_active(&gone) {
                                    problems.push(format!("{gone} round {round}: {gone_now:?}"));
                                }
                            }
                            // The others wait at the next round's barrier, so
                            // the leader sees the store at rest: the durable
                            // manifest records exactly the published entries.
                            if barrier.wait().is_leader() {
                                let durable = fs::read(store.dir().join(MANIFEST_NAME))
                                    .ok()
                                    .and_then(|bytes| SessionStore::parse_manifest(&bytes).ok());
                                let published = active_records(&store.lock_entries());
                                if durable.as_ref().map(active_records) != Some(published) {
                                    problems.push(format!("round {round}: manifest is stale"));
                                }
                            }
                        }
                        problems
                    })
                })
                .collect();
            workers.into_iter().flat_map(|worker| worker.join().unwrap()).collect()
        });
        assert!(problems.is_empty(), "{problems:#?}");
        let keep: Vec<String> = (0..THREADS).map(|thread| format!("keep-{thread}")).collect();
        let holds_last_frames = |store: &SessionStore| {
            (0..THREADS).all(|thread| {
                store.get(&keep[usize::from(thread)]).ok() == Some(frame(tag(thread, ROUNDS - 1)))
            })
        };
        assert_eq!(store.active_ids(), keep);
        assert!(holds_last_frames(&store));
        drop(store);

        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(TMP_SUFFIX) || name.ends_with(PREV_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let mut store = SessionStore::open(&dir).unwrap();
        let recovery = store.recovery().clone();
        assert_eq!(recovery.recovered, keep, "a reopen recovers exactly the active ids");
        assert!(recovery.discarded.is_empty(), "{:?}", recovery.discarded);
        assert_eq!((recovery.restored_previous, recovery.swept_temp_files), (0, 0));
        assert!(holds_last_frames(&store), "a reopen holds every last frame");

        // The durability cost per put is unchanged: two atomic writes (frame,
        // then manifest), each one write and one rename; a remove is one.
        let plan = Arc::new(FaultPlan::new(0));
        store.set_fault_plan(Some(Arc::clone(&plan)));
        store.put("keep-0", &frame(200)).unwrap();
        assert_eq!((plan.calls(FaultSite::StoreWrite), plan.calls(FaultSite::StoreRename)), (2, 2));
        store.remove("keep-0").unwrap();
        assert_eq!((plan.calls(FaultSite::StoreWrite), plan.calls(FaultSite::StoreRename)), (3, 3));
        fs::remove_dir_all(&dir).unwrap();
    }
}
