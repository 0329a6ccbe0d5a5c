//! Versioned on-disk session artifacts: everything the user taught a
//! [`VisSession`] — key-frame TFs, the trained IATF, paints, the trained
//! data-space classifier, completed tracking runs, and an optional in-flight
//! tracking *checkpoint* — in one self-describing file that a later process
//! can load and resume.
//!
//! ## Container format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "IFETSESS"
//! 8       4     format version        (u32 LE)
//! 12      4     section count N       (u32 LE)
//! 16      28·N  section table: per section
//!                 tag     8 bytes, ASCII, space-padded
//!                 offset  u64 LE (absolute, from file start)
//!                 length  u64 LE
//!                 crc32   u32 LE (IEEE, over the payload bytes)
//! 16+28N  4     header crc32          (u32 LE, over bytes [0, 16+28N))
//! ...           section payloads, contiguous, in table order
//! ```
//!
//! Model state (TFs, networks, paints) is stored as JSON payloads; bulky
//! per-frame masks use the word-packed binary encoding of
//! [`ifet_volume::maskio`]. Readers *skip unknown sections* (forward
//! compatibility: a newer writer can add sections without breaking old
//! readers), reject unknown *versions*, and verify both the header and every
//! section checksum — truncation and bit flips surface as typed
//! [`PersistError`]s, never panics.

use crate::session::{CompletedTrack, CriterionSpec, PendingTrack, TrackResult, VisSession};
use ifet_extract::paint::PaintSet;
use ifet_extract::{ClassifierSnapshot, DataSpaceClassifier, SnapshotError};
use ifet_obs as obs;
use ifet_tf::{ColorMap, Iatf, IatfParams, TransferFunction1D};
use ifet_track::{track_events, GrowCheckpoint, GrowError, Seed4, TrackReport};
use ifet_volume::maskio::{decode_mask, encode_mask_into, MaskIoError};
use ifet_volume::{FrameSource, Mask3};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File magic: first eight bytes of every session artifact.
pub const SESSION_MAGIC: [u8; 8] = *b"IFETSESS";
/// Current container format version.
pub const SESSION_FORMAT_VERSION: u32 = 1;

const TAG_LEN: usize = 8;
const TABLE_ENTRY_LEN: usize = TAG_LEN + 8 + 8 + 4;
const FIXED_HEADER_LEN: usize = 8 + 4 + 4;

// Section tags of format version 1.
const SEC_META: &str = "META";
const SEC_KEYFRAME: &str = "KEYFRAME";
const SEC_IATF: &str = "IATF";
const SEC_PAINTS: &str = "PAINTS";
const SEC_CLASSIFY: &str = "CLASSIFY";
const SEC_TRACKS: &str = "TRACKS";
const SEC_CHECKPT: &str = "CHECKPT";
/// Optional stable-mode trace summary (versioned obs JSON). Absent unless a
/// trace was attached; skipped by readers that predate it (forward compat).
const SEC_TRACE: &str = "TRACE";

/// Why a session artifact could not be written or read. Anything a damaged,
/// truncated, or foreign file can trigger is a variant here — loading never
/// panics on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Underlying file I/O failed.
    Io(String),
    /// The file ends before the fixed header / section table is complete.
    TruncatedHeader { needed: usize, got: usize },
    /// The file does not start with [`SESSION_MAGIC`].
    BadMagic,
    /// Written by an incompatible format version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The header/table bytes fail their checksum (corrupt section table).
    HeaderChecksumMismatch,
    /// A section's payload extends past the end of the file.
    TruncatedSection {
        section: String,
        needed: usize,
        got: usize,
    },
    /// A section's payload bytes fail their checksum.
    ChecksumMismatch { section: String },
    /// A section this reader requires is absent.
    MissingSection { section: String },
    /// A section decoded but its content is structurally invalid.
    Malformed { section: String, reason: String },
    /// A packed mask inside a section failed to decode.
    Mask { section: String, error: MaskIoError },
    /// A component schema (nn / tf / extract / track) is newer than this
    /// build understands.
    SchemaMismatch {
        component: String,
        found: u32,
        supported: u32,
    },
    /// The artifact was saved against a different time series.
    SeriesMismatch { reason: String },
    /// The stored classifier snapshot is internally inconsistent.
    Snapshot(SnapshotError),
    /// The stored tracking checkpoint was rejected by the grower.
    Grow(GrowError),
    /// `resume_track` was called but the session holds no checkpoint.
    NoCheckpoint,
    /// The frame source failed to deliver a frame while saving (paging I/O).
    Series { reason: String },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "session artifact I/O: {e}"),
            PersistError::TruncatedHeader { needed, got } => {
                write!(
                    f,
                    "artifact header truncated: need {needed} bytes, have {got}"
                )
            }
            PersistError::BadMagic => write!(f, "not a session artifact (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} unsupported (this build reads {supported})"
                )
            }
            PersistError::HeaderChecksumMismatch => {
                write!(
                    f,
                    "artifact header checksum mismatch (corrupt section table)"
                )
            }
            PersistError::TruncatedSection {
                section,
                needed,
                got,
            } => {
                write!(
                    f,
                    "section {section} truncated: need {needed} bytes, have {got}"
                )
            }
            PersistError::ChecksumMismatch { section } => {
                write!(f, "section {section} checksum mismatch")
            }
            PersistError::MissingSection { section } => {
                write!(f, "required section {section} missing")
            }
            PersistError::Malformed { section, reason } => {
                write!(f, "section {section} malformed: {reason}")
            }
            PersistError::Mask { section, error } => {
                write!(f, "section {section}: mask decode failed: {error}")
            }
            PersistError::SchemaMismatch {
                component,
                found,
                supported,
            } => {
                write!(
                    f,
                    "{component} schema version {found} unsupported (this build reads {supported})"
                )
            }
            PersistError::SeriesMismatch { reason } => {
                write!(f, "artifact belongs to a different series: {reason}")
            }
            PersistError::Snapshot(e) => write!(f, "stored classifier invalid: {e}"),
            PersistError::Grow(e) => write!(f, "stored checkpoint rejected: {e}"),
            PersistError::NoCheckpoint => write!(f, "no tracking checkpoint to resume"),
            PersistError::Series { reason } => write!(f, "frame source: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Snapshot(e) => Some(e),
            PersistError::Grow(e) => Some(e),
            PersistError::Mask { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

// ---- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ----

/// CRC32 of a byte slice: the one table-driven implementation every
/// CRC-framed format shares (`.ifet` here, `.rawz`, `.plz`, serve frames).
pub use ifet_volume::codec::crc32;

/// [`crc32`] accumulating elapsed time into `acc_ns` when tracing is active.
/// Timing is runtime-only information, so the disabled path pays a single
/// branch and never touches the clock.
fn timed_crc32(data: &[u8], acc_ns: &mut u64) -> u32 {
    if obs::is_enabled() {
        let t0 = std::time::Instant::now();
        let c = crc32(data);
        *acc_ns += t0.elapsed().as_nanos() as u64;
        c
    } else {
        crc32(data)
    }
}

// ---- Generic container writer / reader ----

/// Builds an artifact: sections are appended, then serialized with the
/// header, table, and checksums in one pass.
pub struct ArtifactWriter {
    sections: Vec<([u8; TAG_LEN], Vec<u8>)>,
}

impl ArtifactWriter {
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
        }
    }

    /// Append a section. `tag` must be 1..=8 ASCII bytes.
    pub fn add(&mut self, tag: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            !tag.is_empty() && tag.len() <= TAG_LEN && tag.bytes().all(|b| b.is_ascii_graphic()),
            "section tag must be 1..=8 printable ASCII bytes, got {tag:?}"
        );
        let mut t = [b' '; TAG_LEN];
        t[..tag.len()].copy_from_slice(tag.as_bytes());
        self.sections.push((t, payload));
        self
    }

    /// Serialize the whole artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = obs::span("persist.to_bytes");
        let mut crc_ns = 0u64;
        let table_len = self.sections.len() * TABLE_ENTRY_LEN;
        let payload_base = FIXED_HEADER_LEN + table_len + 4;
        let total: usize = payload_base + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&SESSION_MAGIC);
        out.extend_from_slice(&SESSION_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = payload_base;
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&timed_crc32(payload, &mut crc_ns).to_le_bytes());
            offset += payload.len();
        }
        let header_crc = timed_crc32(&out, &mut crc_ns);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        debug_assert_eq!(out.len(), total);
        obs::counter("sections", self.sections.len() as u64);
        obs::counter("bytes", out.len() as u64);
        obs::counter_runtime("crc_ns", crc_ns);
        out
    }
}

impl Default for ArtifactWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses and validates an artifact held in memory. All structural checks —
/// magic, version, header checksum, section bounds, section checksums — run
/// up front in [`ArtifactReader::parse`]; afterwards section access is
/// infallible slicing.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    data: &'a [u8],
    sections: Vec<(String, usize, usize)>,
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

impl<'a> ArtifactReader<'a> {
    pub fn parse(data: &'a [u8]) -> Result<Self, PersistError> {
        let _span = obs::span("persist.parse");
        obs::counter("bytes", data.len() as u64);
        let mut crc_ns = 0u64;
        if data.len() < FIXED_HEADER_LEN {
            return Err(PersistError::TruncatedHeader {
                needed: FIXED_HEADER_LEN,
                got: data.len(),
            });
        }
        if data[..8] != SESSION_MAGIC {
            return Err(PersistError::BadMagic);
        }
        // Version gates everything else: a future format may change the very
        // layout of the table, so it must be checked before parsing further.
        let version = read_u32(&data[8..]);
        if version != SESSION_FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: SESSION_FORMAT_VERSION,
            });
        }
        let count = read_u32(&data[12..]) as usize;
        let table_end = count
            .checked_mul(TABLE_ENTRY_LEN)
            .and_then(|t| t.checked_add(FIXED_HEADER_LEN))
            .ok_or(PersistError::HeaderChecksumMismatch)?;
        let header_end = table_end
            .checked_add(4)
            .ok_or(PersistError::HeaderChecksumMismatch)?;
        if data.len() < header_end {
            return Err(PersistError::TruncatedHeader {
                needed: header_end,
                got: data.len(),
            });
        }
        // The header checksum covers the table, so a bit flip in a *tag*
        // cannot silently turn a known section into a skipped unknown one.
        if timed_crc32(&data[..table_end], &mut crc_ns) != read_u32(&data[table_end..]) {
            return Err(PersistError::HeaderChecksumMismatch);
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let e = FIXED_HEADER_LEN + i * TABLE_ENTRY_LEN;
            let tag_bytes = &data[e..e + TAG_LEN];
            let tag = String::from_utf8_lossy(tag_bytes).trim_end().to_string();
            let offset = read_u64(&data[e + TAG_LEN..]);
            let len = read_u64(&data[e + TAG_LEN + 8..]);
            let crc = read_u32(&data[e + TAG_LEN + 16..]);
            let (offset, len) = match (usize::try_from(offset), usize::try_from(len)) {
                (Ok(o), Ok(l)) => (o, l),
                _ => {
                    return Err(PersistError::TruncatedSection {
                        section: tag,
                        needed: usize::MAX,
                        got: data.len(),
                    })
                }
            };
            let end = offset
                .checked_add(len)
                .ok_or_else(|| PersistError::TruncatedSection {
                    section: tag.clone(),
                    needed: usize::MAX,
                    got: data.len(),
                })?;
            if offset < header_end || end > data.len() {
                return Err(PersistError::TruncatedSection {
                    section: tag,
                    needed: end,
                    got: data.len(),
                });
            }
            if timed_crc32(&data[offset..end], &mut crc_ns) != crc {
                return Err(PersistError::ChecksumMismatch { section: tag });
            }
            sections.push((tag, offset, len));
        }
        obs::counter("sections", sections.len() as u64);
        obs::counter_runtime("crc_ns", crc_ns);
        Ok(Self { data, sections })
    }

    /// Payload of a section, or `None` if absent.
    pub fn section(&self, tag: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, _, _)| t == tag)
            .map(|&(_, o, l)| &self.data[o..o + l])
    }

    /// Payload of a section this reader cannot do without.
    pub fn require(&self, tag: &str) -> Result<&'a [u8], PersistError> {
        self.section(tag)
            .ok_or_else(|| PersistError::MissingSection {
                section: tag.to_string(),
            })
    }

    /// All section tags, in table order (includes unknown sections).
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(t, _, _)| t.as_str())
    }
}

// ---- JSON helpers ----

fn to_json_payload<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("session state serialization cannot fail")
        .into_bytes()
}

fn from_json_payload<T: Deserialize>(section: &str, payload: &[u8]) -> Result<T, PersistError> {
    let text = std::str::from_utf8(payload).map_err(|e| PersistError::Malformed {
        section: section.to_string(),
        reason: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| PersistError::Malformed {
        section: section.to_string(),
        reason: e.to_string(),
    })
}

// ---- Section payload types ----

/// The artifact's self-description: which series it belongs to and which
/// component schema versions its payloads use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SessionMeta {
    schema_nn: u32,
    schema_tf: u32,
    schema_extract: u32,
    schema_track: u32,
    dims: (u64, u64, u64),
    steps: Vec<u32>,
    global_range: (f32, f32),
    colormap: ColorMap,
    iatf_params: IatfParams,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TrackHeader {
    spec: CriterionSpec,
    seeds: Vec<Seed4>,
    report: TrackReport,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointHeader {
    spec: CriterionSpec,
    seeds: Vec<Seed4>,
    frontiers: Vec<Vec<u64>>,
    rounds: u64,
}

// ---- Binary sub-encoding for mask-bearing sections ----

/// Sequential reader over one section's payload with typed overrun errors.
struct Cursor<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(section: &'static str, buf: &'a [u8]) -> Self {
        Self {
            section,
            buf,
            pos: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::Malformed {
                section: self.section.to_string(),
                reason: format!(
                    "payload overrun: need {n} more bytes at offset {}, section has {}",
                    self.pos,
                    self.buf.len()
                ),
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(read_u32(self.take(4)?))
    }

    fn mask(&mut self) -> Result<Mask3, PersistError> {
        let (mask, used) =
            decode_mask(&self.buf[self.pos..]).map_err(|error| PersistError::Mask {
                section: self.section.to_string(),
                error,
            })?;
        self.pos += used;
        Ok(mask)
    }

    fn done(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Malformed {
                section: self.section.to_string(),
                reason: format!("{} trailing bytes after payload", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

fn push_json_block(out: &mut Vec<u8>, json: &[u8]) {
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(json);
}

fn encode_tracks(tracks: &[CompletedTrack]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tracks.len() as u32).to_le_bytes());
    for t in tracks {
        let header = TrackHeader {
            spec: t.spec.clone(),
            seeds: t.seeds.clone(),
            report: t.result.report.clone(),
        };
        push_json_block(&mut out, &to_json_payload(&header));
        out.extend_from_slice(&(t.result.masks.len() as u32).to_le_bytes());
        for m in &t.result.masks {
            encode_mask_into(&mut out, m);
        }
    }
    out
}

fn decode_tracks<S: FrameSource + ?Sized>(
    payload: &[u8],
    series: &S,
) -> Result<Vec<CompletedTrack>, PersistError> {
    let mut c = Cursor::new(SEC_TRACKS, payload);
    let count = c.u32()? as usize;
    let mut tracks = Vec::new();
    for _ in 0..count {
        let jlen = c.u32()? as usize;
        let header: TrackHeader = from_json_payload(SEC_TRACKS, c.take(jlen)?)?;
        let nmasks = c.u32()? as usize;
        if nmasks != series.len() {
            return Err(PersistError::Malformed {
                section: SEC_TRACKS.to_string(),
                reason: format!(
                    "track has {nmasks} masks but the series has {} frames",
                    series.len()
                ),
            });
        }
        let mut masks = Vec::with_capacity(nmasks);
        for _ in 0..nmasks {
            let m = c.mask()?;
            if m.dims() != series.dims() {
                return Err(PersistError::Malformed {
                    section: SEC_TRACKS.to_string(),
                    reason: format!(
                        "mask dims {:?} do not match series dims {:?}",
                        m.dims(),
                        series.dims()
                    ),
                });
            }
            masks.push(m);
        }
        // The report is derived state; recomputing it both validates the
        // masks and guarantees report/mask consistency after a reload.
        let report = track_events(&masks);
        if report != header.report {
            return Err(PersistError::Malformed {
                section: SEC_TRACKS.to_string(),
                reason: "stored track report disagrees with its masks".to_string(),
            });
        }
        tracks.push(CompletedTrack {
            spec: header.spec,
            seeds: header.seeds,
            result: TrackResult { masks, report },
        });
    }
    c.done()?;
    Ok(tracks)
}

fn encode_checkpoint(pending: &PendingTrack) -> Vec<u8> {
    let mut out = Vec::new();
    let header = CheckpointHeader {
        spec: pending.spec.clone(),
        seeds: pending.seeds.clone(),
        frontiers: pending
            .checkpoint
            .frontiers
            .iter()
            .map(|f| f.iter().map(|&i| i as u64).collect())
            .collect(),
        rounds: pending.checkpoint.rounds,
    };
    push_json_block(&mut out, &to_json_payload(&header));
    out.extend_from_slice(&(pending.checkpoint.masks.len() as u32).to_le_bytes());
    for m in &pending.checkpoint.masks {
        encode_mask_into(&mut out, m);
    }
    out
}

fn decode_checkpoint<S: FrameSource + ?Sized>(
    payload: &[u8],
    series: &S,
) -> Result<PendingTrack, PersistError> {
    let mut c = Cursor::new(SEC_CHECKPT, payload);
    let jlen = c.u32()? as usize;
    let header: CheckpointHeader = from_json_payload(SEC_CHECKPT, c.take(jlen)?)?;
    let nmasks = c.u32()? as usize;
    if nmasks != series.len() || header.frontiers.len() != series.len() {
        return Err(PersistError::Malformed {
            section: SEC_CHECKPT.to_string(),
            reason: format!(
                "checkpoint covers {nmasks} masks / {} frontiers but the series has {} frames",
                header.frontiers.len(),
                series.len()
            ),
        });
    }
    let mut masks = Vec::with_capacity(nmasks);
    for _ in 0..nmasks {
        masks.push(c.mask()?);
    }
    c.done()?;
    let frontiers = header
        .frontiers
        .into_iter()
        .map(|f| {
            f.into_iter()
                .map(|i| {
                    usize::try_from(i).map_err(|_| PersistError::Malformed {
                        section: SEC_CHECKPT.to_string(),
                        reason: format!("frontier index {i} exceeds the address space"),
                    })
                })
                .collect::<Result<Vec<usize>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PendingTrack {
        spec: header.spec,
        seeds: header.seeds,
        checkpoint: GrowCheckpoint {
            masks,
            frontiers,
            rounds: header.rounds,
        },
    })
}

// ---- Whole-session save / load ----

/// Serialize a session to artifact bytes (the series itself is not stored).
/// A paged source that cannot read its frames while computing the global
/// range is [`PersistError::Series`].
pub fn save_session_bytes<S: FrameSource>(sess: &VisSession<S>) -> Result<Vec<u8>, PersistError> {
    let _span = obs::span("persist.save");
    let series = sess.series();
    let d = series.dims();
    let meta = SessionMeta {
        schema_nn: ifet_nn::SCHEMA_VERSION,
        schema_tf: ifet_tf::SCHEMA_VERSION,
        schema_extract: ifet_extract::SCHEMA_VERSION,
        schema_track: ifet_track::SCHEMA_VERSION,
        dims: (d.nx as u64, d.ny as u64, d.nz as u64),
        steps: series.steps().to_vec(),
        global_range: series.global_range().map_err(|e| PersistError::Series {
            reason: e.to_string(),
        })?,
        colormap: sess.colormap,
        iatf_params: sess.iatf_params(),
    };
    // Each section's encoding gets its own span so a trace shows where save
    // time and bytes go (e.g. a large CHECKPT dominating the artifact).
    fn add_section(w: &mut ArtifactWriter, tag: &str, encode: impl FnOnce() -> Vec<u8>) {
        let _span = obs::span_dyn(format!("persist.section.{tag}"));
        let payload = encode();
        obs::counter("bytes", payload.len() as u64);
        w.add(tag, payload);
    }
    let mut w = ArtifactWriter::new();
    add_section(&mut w, SEC_META, || to_json_payload(&meta));
    add_section(&mut w, SEC_KEYFRAME, || {
        to_json_payload(&sess.key_frames().to_vec())
    });
    add_section(&mut w, SEC_IATF, || to_json_payload(&sess.iatf().cloned()));
    add_section(&mut w, SEC_PAINTS, || {
        to_json_payload(&sess.paints().to_vec())
    });
    add_section(&mut w, SEC_CLASSIFY, || {
        to_json_payload(&sess.classifier().map(|c| c.snapshot()))
    });
    add_section(&mut w, SEC_TRACKS, || encode_tracks(sess.tracks()));
    if let Some(pending) = sess.pending_track() {
        add_section(&mut w, SEC_CHECKPT, || encode_checkpoint(pending));
    }
    if let Some(trace) = sess.trace_summary() {
        add_section(&mut w, SEC_TRACE, || trace.as_bytes().to_vec());
    }
    Ok(w.to_bytes())
}

/// Rebuild a session from artifact bytes against its frame source.
pub fn load_session_bytes<S: FrameSource>(
    series: S,
    bytes: &[u8],
) -> Result<VisSession<S>, PersistError> {
    let _span = obs::span("persist.load");
    let r = ArtifactReader::parse(bytes)?;

    let meta: SessionMeta = from_json_payload(SEC_META, r.require(SEC_META)?)?;
    for (component, found, supported) in [
        ("nn", meta.schema_nn, ifet_nn::SCHEMA_VERSION),
        ("tf", meta.schema_tf, ifet_tf::SCHEMA_VERSION),
        ("extract", meta.schema_extract, ifet_extract::SCHEMA_VERSION),
        ("track", meta.schema_track, ifet_track::SCHEMA_VERSION),
    ] {
        if found > supported {
            return Err(PersistError::SchemaMismatch {
                component: component.to_string(),
                found,
                supported,
            });
        }
    }
    let d = series.dims();
    if meta.dims != (d.nx as u64, d.ny as u64, d.nz as u64) {
        return Err(PersistError::SeriesMismatch {
            reason: format!("artifact dims {:?}, series dims {d}", meta.dims),
        });
    }
    if meta.steps != series.steps() {
        return Err(PersistError::SeriesMismatch {
            reason: format!(
                "artifact has {} steps, series has {} (or step labels differ)",
                meta.steps.len(),
                series.len()
            ),
        });
    }

    let key_frames: Vec<(u32, TransferFunction1D)> =
        from_json_payload(SEC_KEYFRAME, r.require(SEC_KEYFRAME)?)?;
    for (t, _) in &key_frames {
        if series.index_of_step(*t).is_none() {
            return Err(PersistError::Malformed {
                section: SEC_KEYFRAME.to_string(),
                reason: format!("key frame step {t} not in series"),
            });
        }
    }

    let iatf: Option<Iatf> = from_json_payload(SEC_IATF, r.require(SEC_IATF)?)?;
    if let Some(iatf) = &iatf {
        iatf.validate().map_err(|reason| PersistError::Malformed {
            section: SEC_IATF.to_string(),
            reason,
        })?;
    }

    let paints: Vec<PaintSet> = from_json_payload(SEC_PAINTS, r.require(SEC_PAINTS)?)?;
    for p in &paints {
        if series.index_of_step(p.step).is_none() {
            return Err(PersistError::Malformed {
                section: SEC_PAINTS.to_string(),
                reason: format!("painted step {} not in series", p.step),
            });
        }
    }

    let snapshot: Option<ClassifierSnapshot> =
        from_json_payload(SEC_CLASSIFY, r.require(SEC_CLASSIFY)?)?;
    let classifier = snapshot
        .map(DataSpaceClassifier::from_snapshot)
        .transpose()?;

    let tracks = decode_tracks(r.require(SEC_TRACKS)?, &series)?;
    let pending = r
        .section(SEC_CHECKPT)
        .map(|p| decode_checkpoint(p, &series))
        .transpose()?;

    // The trace summary is kept as the raw JSON string so a load→save cycle
    // re-emits the section byte-for-byte, but it still has to parse as a
    // trace we understand — a corrupted summary should fail loudly at load,
    // not when some later tool tries to read it.
    let trace_summary = r
        .section(SEC_TRACE)
        .map(|p| -> Result<String, PersistError> {
            let text = std::str::from_utf8(p).map_err(|_| PersistError::Malformed {
                section: SEC_TRACE.to_string(),
                reason: "trace summary is not valid UTF-8".to_string(),
            })?;
            obs::Trace::from_json(text).map_err(|e| PersistError::Malformed {
                section: SEC_TRACE.to_string(),
                reason: e.to_string(),
            })?;
            Ok(text.to_string())
        })
        .transpose()?;

    Ok(VisSession::from_parts(
        series,
        key_frames,
        iatf,
        meta.iatf_params,
        paints,
        classifier,
        meta.colormap,
        tracks,
        pending,
        trace_summary,
    ))
}

/// Write a session artifact to disk.
pub fn save_session<S: FrameSource>(sess: &VisSession<S>, path: &Path) -> Result<(), PersistError> {
    Ok(std::fs::write(path, save_session_bytes(sess)?)?)
}

/// Read a session artifact from disk against its frame source.
pub fn load_session<S: FrameSource>(series: S, path: &Path) -> Result<VisSession<S>, PersistError> {
    let bytes = std::fs::read(path)?;
    load_session_bytes(series, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer_with(tags: &[(&str, &[u8])]) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        for (tag, payload) in tags {
            w.add(tag, payload.to_vec());
        }
        w.to_bytes()
    }

    #[test]
    fn container_roundtrips_sections_in_order() {
        let bytes = writer_with(&[("A", b"alpha"), ("BB", b""), ("CCC", b"\x00\x01\x02")]);
        let r = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(r.tags().collect::<Vec<_>>(), ["A", "BB", "CCC"]);
        assert_eq!(r.section("A"), Some(&b"alpha"[..]));
        assert_eq!(r.section("BB"), Some(&b""[..]));
        assert_eq!(r.section("CCC"), Some(&b"\x00\x01\x02"[..]));
        assert_eq!(r.section("ZZ"), None);
        assert!(matches!(
            r.require("ZZ"),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        // A "newer" writer adds a section this reader has never heard of;
        // parsing still succeeds and the known sections still load.
        let bytes = writer_with(&[("KNOWN", b"k"), ("FUTURE42", b"from the future")]);
        let r = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(r.section("KNOWN"), Some(&b"k"[..]));
        assert_eq!(r.section("FUTURE42"), Some(&b"from the future"[..]));
    }

    #[test]
    fn version_bump_is_rejected_before_anything_else() {
        let mut bytes = writer_with(&[("A", b"alpha")]);
        bytes[8] = SESSION_FORMAT_VERSION as u8 + 1;
        // Even with the (now stale) header CRC, the version gate fires first.
        assert_eq!(
            ArtifactReader::parse(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion {
                found: SESSION_FORMAT_VERSION + 1,
                supported: SESSION_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = writer_with(&[("A", b"alpha")]);
        bytes[0] ^= 0xFF;
        assert_eq!(
            ArtifactReader::parse(&bytes).unwrap_err(),
            PersistError::BadMagic
        );
    }

    #[test]
    fn every_truncation_length_is_a_typed_error() {
        let bytes = writer_with(&[("A", b"alpha"), ("B", b"beta")]);
        for n in 0..bytes.len() {
            let err = ArtifactReader::parse(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::TruncatedHeader { .. }
                        | PersistError::TruncatedSection { .. }
                        | PersistError::HeaderChecksumMismatch
                        | PersistError::ChecksumMismatch { .. }
                ),
                "truncation to {n} bytes gave unexpected error {err:?}"
            );
        }
        assert!(ArtifactReader::parse(&bytes).is_ok());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = writer_with(&[("A", b"alpha"), ("B", b"beta")]);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                ArtifactReader::parse(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
