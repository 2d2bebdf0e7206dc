//! Versioned, durable session checkpoints (wire format v1).
//!
//! A checkpoint is a self-contained byte string capturing everything a
//! [`crate::Session`] needs to resume **bit-identically**: the scenario
//! configuration it was built from, the committed analogue state, the digital
//! kernel's clock/queue/process state, the in-flight march (if the session
//! was paused mid-segment) with every loop-carried solver datum, the
//! accumulated statistics and billing counters, and each probe's observation
//! state. `save → load → resume` takes exactly the steps the uninterrupted
//! run takes; only wall-clock (`cpu_time`) measurements differ, because they
//! measure the host, not the model.
//!
//! # Frame layout
//!
//! All integers are little-endian; `f64` values are stored as their IEEE-754
//! bit patterns (`to_bits`), so round-trips are exact — including NaNs.
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"HVCK"` |
//! | 4      | 2    | format version (`u16`, currently 1) |
//! | 6      | 1    | payload kind (1 = session, 2 = store manifest, 3 = explore record) |
//! | 7      | 1    | reserved, must be 0 |
//! | 8      | 8    | rebuild digest (`u64`, FNV-1a of the rebuild section) |
//! | 16     | 8    | payload length `L` (`u64`) |
//! | 24     | `L`  | payload |
//! | 24+`L` | 8    | frame checksum (`u64`, FNV-1a of bytes `0 .. 24+L`) |
//!
//! The payload opens with a length-prefixed **rebuild section** — the encoded
//! [`crate::ScenarioConfig`] the session is reconstructed from. Its FNV-1a
//! digest is duplicated in the header so an engine/options skew (a checkpoint
//! replayed against code that decodes the config differently, or a doctored
//! config) is reported as [`CheckpointError::DigestMismatch`] rather than a
//! silently different simulation. The runtime section that follows holds only
//! *loop-carried* data; anything re-derivable bit-identically from it (LU
//! factors, step ladders, partition index sets, ϕ-propagator caches) is
//! rebuilt at load time.
//!
//! # Version policy
//!
//! The format version covers the entire payload encoding. Any change to the
//! byte layout — field added, removed, reordered or re-typed — increments it;
//! readers reject other versions with [`CheckpointError::UnsupportedVersion`]
//! instead of guessing. There is no cross-version migration: checkpoints are
//! pause/resume artifacts, not archival storage.
//!
//! # Corruption safety
//!
//! The trailing checksum is FNV-1a, whose per-byte update is a bijection of
//! the hash state — so *any* single-byte change anywhere in the frame is
//! guaranteed to change the final value. Decoding corrupted, truncated or
//! skewed bytes yields a typed [`CheckpointError`]; it never panics and never
//! resumes a silently different simulation (see `tests/checkpoint_fuzz.rs`).

use std::fmt;

use harvsim_blocks::{ControllerConfig, HarvesterParameters, LoadMode, Scenario};
use harvsim_linalg::{DMatrix, DVector};

use crate::baseline::{BaselineMethod, BaselineOptions};
use crate::scenario::ScenarioConfig;
use crate::session::SimulationEngine;
use crate::solver::SolverOptions;

/// Magic bytes opening every checkpoint frame.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"HVCK";

/// The wire-format version this build writes and the only one it reads.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Payload kind tag of a serialised [`crate::Session`].
pub(crate) const KIND_SESSION: u8 = 1;

/// Payload kind tag of a [`crate::store::SessionStore`] manifest. Manifests
/// ride the same sealed-frame machinery as sessions (magic, version, digest,
/// trailing checksum) with their own kind byte, so a manifest can never be
/// mistaken for a session frame or vice versa.
pub(crate) const KIND_MANIFEST: u8 = 2;

/// Payload kind tag of one design-space exploration result record
/// ([`crate::explore`]): a single grid point's outcome, sealed as its own
/// frame and appended to the exploration's result-store file. Each record is
/// independently verifiable (own checksum, own grid digest in the header), so
/// a killed exploration loses at most the record being written — every
/// earlier point survives and `Explorer::resume` skips it.
pub(crate) const KIND_EXPLORE_RECORD: u8 = 3;

/// Fixed header length (magic + version + kind + reserved + digest + length).
/// `pub(crate)` so the explore result-store scanner can size candidate frames
/// while resynchronising past corruption.
pub(crate) const HEADER_LEN: usize = 24;

/// Trailing checksum length.
pub(crate) const CHECKSUM_LEN: usize = 8;

/// A typed decoding failure: the reason a byte string was rejected as a
/// checkpoint. Corrupt, truncated or version-skewed input always lands on one
/// of these variants — never a panic, never a silently wrong resume.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The input ended before a complete field/frame could be read.
    Truncated {
        /// Bytes required at the point of failure.
        needed: usize,
        /// Bytes actually available there.
        available: usize,
    },
    /// The frame does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The frame was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The only version this build supports.
        supported: u16,
    },
    /// The frame holds a payload kind this decoder does not understand.
    UnsupportedKind(u8),
    /// The trailing FNV-1a frame checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The header's rebuild digest does not match the rebuild section — the
    /// checkpoint was taken against a different configuration encoding.
    DigestMismatch {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest recomputed from the rebuild section.
        found: u64,
    },
    /// The frame passed the integrity checks but a field failed validation
    /// (out-of-range tag, dimension mismatch, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, only {available} available")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads version {supported})"
            ),
            CheckpointError::UnsupportedKind(kind) => {
                write!(f, "unsupported checkpoint payload kind {kind}")
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint frame checksum mismatch (corrupted bytes)")
            }
            CheckpointError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint rebuild digest mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            CheckpointError::Malformed(reason) => write!(f, "malformed checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// 64-bit FNV-1a over `bytes` — the frame checksum and rebuild digest of the
/// checkpoint format. Each byte's update (`xor` then multiply by an odd
/// constant) is a bijection of the hash state, so any single-byte change in
/// the input is guaranteed to change the output; that is the property the
/// corruption fuzz battery pins.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Wraps a payload in a v1 session frame: header (with the given rebuild
/// digest), payload, trailing FNV-1a checksum.
pub(crate) fn seal_frame(digest: u64, payload: &[u8]) -> Vec<u8> {
    seal_frame_with_kind(KIND_SESSION, digest, payload)
}

/// [`seal_frame`] parameterised over the payload kind byte ([`KIND_SESSION`]
/// or [`KIND_MANIFEST`]).
pub(crate) fn seal_frame_with_kind(kind: u8, digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    frame.extend_from_slice(&CHECKPOINT_MAGIC);
    frame.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    frame.push(kind);
    frame.push(0);
    frame.extend_from_slice(&digest.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Validates a session frame end to end (magic, version, kind, length,
/// checksum) and returns the header digest plus the payload slice.
pub(crate) fn open_frame(bytes: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    open_frame_with_kind(KIND_SESSION, bytes)
}

/// [`open_frame`] parameterised over the expected payload kind byte; a frame
/// of any other kind fails with [`CheckpointError::UnsupportedKind`].
pub(crate) fn open_frame_with_kind(
    kind: u8,
    bytes: &[u8],
) -> Result<(u64, &[u8]), CheckpointError> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    if bytes.len() < min {
        return Err(CheckpointError::Truncated { needed: min, available: bytes.len() });
    }
    if bytes[0..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    if bytes[6] != kind {
        return Err(CheckpointError::UnsupportedKind(bytes[6]));
    }
    if bytes[7] != 0 {
        return Err(CheckpointError::Malformed("reserved header byte is not zero".into()));
    }
    let digest = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload_len: usize = payload_len
        .try_into()
        .map_err(|_| CheckpointError::Malformed("payload length overflows usize".into()))?;
    let total =
        HEADER_LEN
            .checked_add(payload_len)
            .and_then(|sum| sum.checked_add(CHECKSUM_LEN))
            .ok_or_else(|| CheckpointError::Malformed("payload length overflows usize".into()))?;
    if bytes.len() < total {
        return Err(CheckpointError::Truncated { needed: total, available: bytes.len() });
    }
    if bytes.len() > total {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after the frame",
            bytes.len() - total
        )));
    }
    let stored = u64::from_le_bytes(bytes[total - CHECKSUM_LEN..].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..total - CHECKSUM_LEN]) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok((digest, &bytes[HEADER_LEN..HEADER_LEN + payload_len]))
}

/// Append-only little-endian byte encoder for checkpoint payloads. `f64`
/// values go through `to_bits`, so encoding is exact for every value
/// including NaNs and signed zeros.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    pub(crate) fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    pub(crate) fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }

    pub(crate) fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Length-prefixed `f64` slice.
    pub(crate) fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &value in values {
            self.put_f64(value);
        }
    }

    pub(crate) fn put_vector(&mut self, vector: &DVector) {
        self.put_f64_slice(vector.as_slice());
    }

    /// Row-major matrix with explicit dimensions.
    pub(crate) fn put_matrix(&mut self, matrix: &DMatrix) {
        self.put_usize(matrix.rows());
        self.put_usize(matrix.cols());
        for &value in matrix.as_slice() {
            self.put_f64(value);
        }
    }

    /// Length-prefixed raw byte string.
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a checkpoint payload: every read is bounds-checked and returns
/// a typed [`CheckpointError`] on failure, and bulk reads validate the
/// declared element count against the remaining bytes *before* allocating, so
/// a corrupted length field cannot request an absurd allocation.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < len {
            return Err(CheckpointError::Truncated { needed: len, available: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn take_usize(&mut self) -> Result<usize, CheckpointError> {
        self.take_u64()?
            .try_into()
            .map_err(|_| CheckpointError::Malformed("count overflows usize".into()))
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Malformed(format!("invalid boolean byte {other}"))),
        }
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Length-prefixed `f64` slice (inverse of [`ByteWriter::put_f64_slice`]).
    pub(crate) fn take_f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let len = self.take_usize()?;
        let needed = len
            .checked_mul(8)
            .ok_or_else(|| CheckpointError::Malformed("element count overflows".into()))?;
        if self.remaining() < needed {
            return Err(CheckpointError::Truncated { needed, available: self.remaining() });
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.take_f64()?);
        }
        Ok(values)
    }

    pub(crate) fn take_vector(&mut self) -> Result<DVector, CheckpointError> {
        Ok(DVector::from_vec(self.take_f64_vec()?))
    }

    pub(crate) fn take_matrix(&mut self) -> Result<DMatrix, CheckpointError> {
        let rows = self.take_usize()?;
        let cols = self.take_usize()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| CheckpointError::Malformed("matrix dimensions overflow".into()))?;
        let needed = len
            .checked_mul(8)
            .ok_or_else(|| CheckpointError::Malformed("matrix dimensions overflow".into()))?;
        if self.remaining() < needed {
            return Err(CheckpointError::Truncated { needed, available: self.remaining() });
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.take_f64()?);
        }
        DMatrix::from_row_major(rows, cols, data)
            .map_err(|err| CheckpointError::Malformed(format!("matrix rebuild failed: {err}")))
    }

    /// Length-prefixed raw byte string (inverse of [`ByteWriter::put_bytes`]).
    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Rejects trailing bytes — every decoder finishes with this, so a frame
    /// that passed the checksum but carries extra payload is still an error.
    pub(crate) fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} unread trailing payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Shorthand for the ubiquitous tag-validation failure.
pub(crate) fn malformed(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(reason.into())
}

// ---------------------------------------------------------------------------
// Rebuild section: the full ScenarioConfig.
// ---------------------------------------------------------------------------

/// Encodes the scenario configuration — the rebuild section whose FNV-1a
/// digest is pinned in the frame header.
pub(crate) fn encode_config(config: &ScenarioConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(match config.scenario {
        Scenario::NarrowTuning => 0,
        Scenario::WideTuning => 1,
    });
    w.put_f64(config.duration_s);
    w.put_f64(config.frequency_step_time_s);
    w.put_f64(config.initial_supercap_voltage);
    encode_parameters(&mut w, &config.parameters);
    encode_controller(&mut w, &config.controller);
    match &config.engine {
        SimulationEngine::StateSpace(options) => {
            w.put_u8(0);
            encode_solver_options(&mut w, options);
        }
        SimulationEngine::NewtonRaphson(options) => {
            w.put_u8(1);
            encode_baseline_options(&mut w, options);
        }
    }
    match &config.label {
        Some(label) => {
            w.put_bool(true);
            w.put_bytes(label.as_bytes());
        }
        None => w.put_bool(false),
    }
    w.into_bytes()
}

/// Decodes the rebuild section back into a [`ScenarioConfig`].
pub(crate) fn decode_config(r: &mut ByteReader<'_>) -> Result<ScenarioConfig, CheckpointError> {
    let scenario = match r.take_u8()? {
        0 => Scenario::NarrowTuning,
        1 => Scenario::WideTuning,
        other => return Err(malformed(format!("invalid scenario tag {other}"))),
    };
    let duration_s = r.take_f64()?;
    let frequency_step_time_s = r.take_f64()?;
    let initial_supercap_voltage = r.take_f64()?;
    let parameters = decode_parameters(r)?;
    let controller = decode_controller(r)?;
    let engine = match r.take_u8()? {
        0 => SimulationEngine::StateSpace(decode_solver_options(r)?),
        1 => SimulationEngine::NewtonRaphson(decode_baseline_options(r)?),
        other => return Err(malformed(format!("invalid engine tag {other}"))),
    };
    let label = if r.take_bool()? {
        let bytes = r.take_bytes()?;
        Some(
            String::from_utf8(bytes.to_vec())
                .map_err(|_| malformed("scenario label is not valid UTF-8"))?,
        )
    } else {
        None
    };
    Ok(ScenarioConfig {
        scenario,
        duration_s,
        frequency_step_time_s,
        initial_supercap_voltage,
        parameters,
        controller,
        engine,
        label,
    })
}

fn encode_parameters(w: &mut ByteWriter, p: &HarvesterParameters) {
    w.put_f64(p.proof_mass);
    w.put_f64(p.untuned_resonance_hz);
    w.put_f64(p.parasitic_damping);
    w.put_f64(p.flux_linkage);
    w.put_f64(p.coil_resistance);
    w.put_f64(p.coil_inductance);
    w.put_f64(p.buckling_load);
    w.put_f64(p.max_tuning_force);
    w.put_f64(p.acceleration_amplitude);
    w.put_usize(p.multiplier_stages);
    w.put_f64(p.stage_capacitance);
    w.put_f64(p.diode_saturation_current);
    w.put_f64(p.diode_emission_coefficient);
    w.put_usize(p.diode_table_segments);
    w.put_f64(p.input_capacitance);
    w.put_f64(p.supercap_ri);
    w.put_f64(p.supercap_ci0);
    w.put_f64(p.supercap_ci1);
    w.put_f64(p.supercap_rd);
    w.put_f64(p.supercap_cd);
    w.put_f64(p.supercap_rl);
    w.put_f64(p.supercap_cl);
    w.put_f64(p.load_sleep_ohms);
    w.put_f64(p.load_awake_ohms);
    w.put_f64(p.load_tuning_ohms);
    w.put_f64(p.watchdog_period_s);
    w.put_f64(p.energy_threshold_v);
    w.put_f64(p.frequency_tolerance_hz);
    w.put_f64(p.measurement_duration_s);
    w.put_f64(p.tuning_rate_hz_per_s);
}

fn decode_parameters(r: &mut ByteReader<'_>) -> Result<HarvesterParameters, CheckpointError> {
    Ok(HarvesterParameters {
        proof_mass: r.take_f64()?,
        untuned_resonance_hz: r.take_f64()?,
        parasitic_damping: r.take_f64()?,
        flux_linkage: r.take_f64()?,
        coil_resistance: r.take_f64()?,
        coil_inductance: r.take_f64()?,
        buckling_load: r.take_f64()?,
        max_tuning_force: r.take_f64()?,
        acceleration_amplitude: r.take_f64()?,
        multiplier_stages: r.take_usize()?,
        stage_capacitance: r.take_f64()?,
        diode_saturation_current: r.take_f64()?,
        diode_emission_coefficient: r.take_f64()?,
        diode_table_segments: r.take_usize()?,
        input_capacitance: r.take_f64()?,
        supercap_ri: r.take_f64()?,
        supercap_ci0: r.take_f64()?,
        supercap_ci1: r.take_f64()?,
        supercap_rd: r.take_f64()?,
        supercap_cd: r.take_f64()?,
        supercap_rl: r.take_f64()?,
        supercap_cl: r.take_f64()?,
        load_sleep_ohms: r.take_f64()?,
        load_awake_ohms: r.take_f64()?,
        load_tuning_ohms: r.take_f64()?,
        watchdog_period_s: r.take_f64()?,
        energy_threshold_v: r.take_f64()?,
        frequency_tolerance_hz: r.take_f64()?,
        measurement_duration_s: r.take_f64()?,
        tuning_rate_hz_per_s: r.take_f64()?,
    })
}

fn encode_controller(w: &mut ByteWriter, c: &ControllerConfig) {
    w.put_f64(c.watchdog_period_s);
    w.put_f64(c.energy_threshold_v);
    w.put_f64(c.frequency_tolerance_hz);
    w.put_f64(c.measurement_duration_s);
    w.put_f64(c.tuning_rate_hz_per_s);
    w.put_f64(c.tuning_update_interval_s);
}

fn decode_controller(r: &mut ByteReader<'_>) -> Result<ControllerConfig, CheckpointError> {
    Ok(ControllerConfig {
        watchdog_period_s: r.take_f64()?,
        energy_threshold_v: r.take_f64()?,
        frequency_tolerance_hz: r.take_f64()?,
        measurement_duration_s: r.take_f64()?,
        tuning_rate_hz_per_s: r.take_f64()?,
        tuning_update_interval_s: r.take_f64()?,
    })
}

fn encode_solver_options(w: &mut ByteWriter, o: &SolverOptions) {
    w.put_usize(o.ab_order);
    // Former adaptive-order switch: the order/step governor always runs, so
    // the slot is always written `true` and frames keep the version 1 layout.
    w.put_bool(true);
    w.put_f64(o.initial_step);
    w.put_f64(o.max_step);
    w.put_f64(o.min_step);
    w.put_f64(o.stability_safety);
    w.put_f64(o.relinearise_threshold);
    w.put_f64(o.record_interval);
    // Former partition switch: the partition is what the system declares,
    // so the slot is always written `true` and frames keep the version 1
    // layout.
    w.put_bool(true);
    w.put_f64(o.lte_relative_tolerance);
    w.put_f64(o.lte_absolute_tolerance);
}

fn decode_solver_options(r: &mut ByteReader<'_>) -> Result<SolverOptions, CheckpointError> {
    let ab_order = r.take_usize()?;
    if !r.take_bool()? {
        return Err(malformed(
            "frame selects the fixed-order state-space march, which this build no longer runs",
        ));
    }
    let initial_step = r.take_f64()?;
    let max_step = r.take_f64()?;
    let min_step = r.take_f64()?;
    let stability_safety = r.take_f64()?;
    let relinearise_threshold = r.take_f64()?;
    let record_interval = r.take_f64()?;
    if !r.take_bool()? {
        return Err(malformed(
            "frame selects the unpartitioned state-space march, which this build no longer runs",
        ));
    }
    Ok(SolverOptions {
        ab_order,
        initial_step,
        max_step,
        min_step,
        stability_safety,
        relinearise_threshold,
        record_interval,
        lte_relative_tolerance: r.take_f64()?,
        lte_absolute_tolerance: r.take_f64()?,
    })
}

fn encode_baseline_options(w: &mut ByteWriter, o: &BaselineOptions) {
    w.put_u8(match o.method {
        BaselineMethod::BackwardEuler => 0,
        BaselineMethod::Trapezoidal => 1,
    });
    w.put_f64(o.step);
    w.put_f64(o.newton_tolerance);
    w.put_usize(o.max_newton_iterations);
    w.put_f64(o.damping);
    w.put_f64(o.record_interval);
    // Former exact-device-evaluation switch: the baseline always evaluates
    // devices exactly, so the slot is always written `true` and frames keep
    // the version 1 layout.
    w.put_bool(true);
}

fn decode_baseline_options(r: &mut ByteReader<'_>) -> Result<BaselineOptions, CheckpointError> {
    let method = match r.take_u8()? {
        0 => BaselineMethod::BackwardEuler,
        1 => BaselineMethod::Trapezoidal,
        other => return Err(malformed(format!("invalid baseline method tag {other}"))),
    };
    let options = BaselineOptions {
        method,
        step: r.take_f64()?,
        newton_tolerance: r.take_f64()?,
        max_newton_iterations: r.take_usize()?,
        damping: r.take_f64()?,
        record_interval: r.take_f64()?,
    };
    if !r.take_bool()? {
        return Err(malformed(
            "frame selects the baseline on PWL device tables, which this build no longer runs",
        ));
    }
    Ok(options)
}

/// Encodes a [`LoadMode`] as a single tag byte.
pub(crate) fn encode_load_mode(w: &mut ByteWriter, mode: LoadMode) {
    w.put_u8(match mode {
        LoadMode::Sleep => 0,
        LoadMode::McuAwake => 1,
        LoadMode::Tuning => 2,
    });
}

/// Decodes a [`LoadMode`] tag byte.
pub(crate) fn decode_load_mode(r: &mut ByteReader<'_>) -> Result<LoadMode, CheckpointError> {
    match r.take_u8()? {
        0 => Ok(LoadMode::Sleep),
        1 => Ok(LoadMode::McuAwake),
        2 => Ok(LoadMode::Tuning),
        other => Err(malformed(format!("invalid load mode tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u64(u64::MAX - 3);
        w.put_bool(true);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64_slice(&[1.5, -2.25]);
        w.put_vector(&DVector::from_slice(&[3.0, 4.0, 5.0]));
        w.put_matrix(&DMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        w.put_bytes(b"blob");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_f64_vec().unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.take_vector().unwrap().as_slice(), &[3.0, 4.0, 5.0]);
        let m = r.take_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(r.take_bytes().unwrap(), b"blob");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_reports_truncation_not_panics() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(
            r.take_u64(),
            Err(CheckpointError::Truncated { needed: 8, available: 3 })
        ));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A length prefix claiming 2^60 elements must fail the remaining-bytes
        // check, not attempt the allocation.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_f64_vec(), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn frame_round_trip_and_typed_failures() {
        let frame = seal_frame(0xdead_beef, b"payload");
        let (digest, payload) = open_frame(&frame).unwrap();
        assert_eq!(digest, 0xdead_beef);
        assert_eq!(payload, b"payload");

        // Every strict prefix is Truncated.
        for len in 0..frame.len() {
            match open_frame(&frame[..len]) {
                Err(CheckpointError::Truncated { .. }) => {}
                other => panic!("prefix of {len} bytes gave {other:?}"),
            }
        }

        // Trailing garbage is rejected.
        let mut longer = frame.clone();
        longer.push(0);
        assert!(matches!(open_frame(&longer), Err(CheckpointError::Malformed(_))));

        // Any single-byte flip in the body lands on ChecksumMismatch (or an
        // earlier typed header error); none may succeed.
        for pos in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[pos] ^= 0x01;
            assert!(open_frame(&corrupt).is_err(), "flip at {pos} was accepted");
        }

        // Version skew with a re-sealed checksum is reported as such.
        let mut skewed = frame.clone();
        skewed[4..6].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        let len = skewed.len();
        let checksum = fnv1a64(&skewed[..len - 8]);
        skewed[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            open_frame(&skewed),
            Err(CheckpointError::UnsupportedVersion { found, supported })
                if found == CHECKPOINT_VERSION + 1 && supported == CHECKPOINT_VERSION
        ));
    }

    #[test]
    fn config_round_trips_exactly() {
        for mut config in [ScenarioConfig::scenario1(), ScenarioConfig::scenario2()] {
            config.label = Some("fixture".into());
            let bytes = encode_config(&config);
            let mut r = ByteReader::new(&bytes);
            let back = decode_config(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back.scenario, config.scenario);
            assert_eq!(back.duration_s.to_bits(), config.duration_s.to_bits());
            assert_eq!(back.parameters, config.parameters);
            assert_eq!(back.controller, config.controller);
            assert_eq!(back.label, config.label);
        }
    }

    /// The slots of the removed partition, adaptive-order and
    /// exact-device-evaluation switches are always written `true`; a frame
    /// carrying `false` in any asks for a march this build no longer runs
    /// (unpartitioned, fixed-order, or a baseline on PWL device tables), and
    /// is refused typed instead of resuming a different simulation.
    #[test]
    fn unpartitioned_march_option_is_rejected_typed() {
        let mut w = ByteWriter::new();
        encode_solver_options(&mut w, &SolverOptions::default());
        let bytes = w.into_bytes();
        let back = decode_solver_options(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, SolverOptions::default());
        // Adaptive order: right after ab_order (8 bytes). Partition: after
        // ab_order, the adaptive-order slot (1) and six f64 fields (48).
        for slot in [8, 8 + 1 + 6 * 8] {
            assert_eq!(bytes[slot], 1);
            let mut altered = bytes.clone();
            altered[slot] = 0;
            assert!(matches!(
                decode_solver_options(&mut ByteReader::new(&altered)),
                Err(CheckpointError::Malformed(_))
            ));
        }
        // Exact device evaluation: the last byte of the baseline options,
        // after the method tag (1) and five eight-byte fields (40).
        let mut w = ByteWriter::new();
        encode_baseline_options(&mut w, &BaselineOptions::default());
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 5 * 8 + 1);
        let back = decode_baseline_options(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, BaselineOptions::default());
        assert_eq!(bytes[41], 1);
        let mut altered = bytes.clone();
        altered[41] = 0;
        assert!(matches!(
            decode_baseline_options(&mut ByteReader::new(&altered)),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
