//! Volume I/O: raw little-endian `f32` bricks with a JSON sidecar, the common
//! interchange format for scientific volume data (value-compatible with the
//! `.raw` + metadata convention used by most volume renderers).
//!
//! Frames come in two on-disk flavors, distinguished by the sidecar
//! `dtype`: `"f32le"` is the raw payload (`.raw`), and [`crate::codec::DTYPE`]
//! is the bricked compressed container (`.rawz`, written by
//! [`write_compressed`]). [`read_frame`] dispatches on the sidecar, so
//! readers are agnostic to how a series was written.

use crate::codec;
use crate::dims::Dims3;
use crate::series::TimeSeries;
use crate::volume::ScalarVolume;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Sidecar metadata for a raw volume file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolumeMeta {
    pub dims: Dims3,
    /// Value type; only `"f32le"` is produced/consumed.
    pub dtype: String,
    /// Optional time-step label.
    pub step: Option<u32>,
    /// Optional variable name.
    pub variable: Option<String>,
}

impl VolumeMeta {
    pub fn new(dims: Dims3) -> Self {
        Self {
            dims,
            dtype: "f32le".to_string(),
            step: None,
            variable: None,
        }
    }
}

/// Errors raised by volume I/O.
#[derive(Debug)]
pub enum IoError {
    Io(io::Error),
    Json(serde_json::Error),
    /// The file length does not match `dims.len() * 4`.
    SizeMismatch {
        expected: usize,
        got: usize,
    },
    /// Unsupported `dtype` in the sidecar.
    UnsupportedDtype(String),
    /// A compressed frame failed to decode (corruption or truncation).
    Codec(codec::CodecError),
    /// A series was asked for with no frame files.
    NoFrames,
    /// Frame `path` has a different grid from the series' first frame.
    DimsMismatch {
        path: PathBuf,
        expected: Dims3,
        got: Dims3,
    },
    /// Frame `path` carries a step label another frame of the series has.
    DuplicateStep {
        path: PathBuf,
        step: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Json(e) => write!(f, "metadata error: {e}"),
            IoError::SizeMismatch { expected, got } => {
                write!(f, "raw size mismatch: expected {expected} bytes, got {got}")
            }
            IoError::UnsupportedDtype(d) => write!(f, "unsupported dtype {d:?}"),
            IoError::Codec(e) => write!(f, "compressed frame error: {e}"),
            IoError::NoFrames => write!(f, "no frame files in series"),
            IoError::DimsMismatch {
                path,
                expected,
                got,
            } => write!(
                f,
                "frame {}: dims {got} differ from the series' {expected}",
                path.display()
            ),
            IoError::DuplicateStep { path, step } => write!(
                f,
                "frame {}: step {step} already labels another frame",
                path.display()
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

impl From<codec::CodecError> for IoError {
    fn from(e: codec::CodecError) -> Self {
        IoError::Codec(e)
    }
}

fn sidecar_path(raw: &Path) -> PathBuf {
    let mut p = raw.as_os_str().to_owned();
    p.push(".json");
    PathBuf::from(p)
}

/// Read just the `<path>.json` sidecar of a frame file.
pub fn read_sidecar(path: &Path) -> Result<VolumeMeta, IoError> {
    let side = File::open(sidecar_path(path))?;
    Ok(serde_json::from_reader(BufReader::new(side))?)
}

/// Write a volume as raw little-endian f32 plus a `<path>.json` sidecar.
pub fn write_raw(path: &Path, vol: &ScalarVolume, meta: &VolumeMeta) -> Result<(), IoError> {
    assert_eq!(vol.dims(), meta.dims, "meta dims must match volume dims");
    let _span = ifet_obs::span("volume.io.write");
    ifet_obs::counter_runtime("volume.io.bytes_written", (vol.dims().len() * 4) as u64);
    let mut w = BufWriter::new(File::create(path)?);
    for &v in vol.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    let side = File::create(sidecar_path(path))?;
    serde_json::to_writer_pretty(BufWriter::new(side), meta)?;
    Ok(())
}

/// Write a volume as a bricked compressed container (see [`crate::codec`])
/// plus a `<path>.json` sidecar whose `dtype` is [`codec::DTYPE`]. The
/// caller's `meta.dtype` is overridden; everything else is preserved.
pub fn write_compressed(path: &Path, vol: &ScalarVolume, meta: &VolumeMeta) -> Result<(), IoError> {
    assert_eq!(vol.dims(), meta.dims, "meta dims must match volume dims");
    let _span = ifet_obs::span("volume.io.write");
    let encoded = codec::encode_frame(vol.as_slice());
    ifet_obs::counter_runtime("volume.io.bytes_written", encoded.len() as u64);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&encoded)?;
    w.flush()?;
    let mut meta = meta.clone();
    meta.dtype = codec::DTYPE.to_string();
    let side = File::create(sidecar_path(path))?;
    serde_json::to_writer_pretty(BufWriter::new(side), &meta)?;
    Ok(())
}

/// Bytes per read in [`read_raw_payload`]: a stack buffer, a whole number
/// of `f32`s.
const READ_CHUNK: usize = 64 * 1024;

/// Read a raw payload straight into its `Vec<f32>`: the file length is
/// checked against `dims × 4` first, then the voxels are decoded as they
/// are read, so a page-in allocates one frame-sized buffer and copies each
/// byte once.
fn read_raw_payload(path: &Path, meta: VolumeMeta) -> Result<(ScalarVolume, VolumeMeta), IoError> {
    let mut file = File::open(path)?;
    let expected = meta.dims.len() * 4;
    let got = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    if got != expected {
        return Err(IoError::SizeMismatch { expected, got });
    }
    let data = decode_f32le(&mut file, meta.dims.len())?;
    ifet_obs::counter_runtime("volume.io.bytes_read", expected as u64);
    Ok((ScalarVolume::from_vec(meta.dims, data), meta))
}

/// Decode exactly `n` little-endian `f32`s from `r` through a fixed stack
/// chunk. The reader must end right after them: one that ends early or
/// holds more (a file whose length changed after it was checked) gives
/// `SizeMismatch` with the bytes it held, as reading it to the end would.
///
/// Kept out of line: inlined through `read_raw_payload` into
/// [`read_frame`], its loop decoded a 64³ frame at half the speed
/// (0.16 → 0.31 ms per frame from the page cache, x86-64).
#[inline(never)]
fn decode_f32le(r: &mut impl Read, n: usize) -> Result<Vec<f32>, IoError> {
    let expected = n * 4;
    let mut data = Vec::with_capacity(n);
    let mut chunk = [0u8; READ_CHUNK];
    while data.len() < n {
        let want = ((n - data.len()) * 4).min(READ_CHUNK);
        let filled = fill(r, &mut chunk[..want])?;
        if filled < want {
            let got = data.len() * 4 + filled;
            return Err(IoError::SizeMismatch { expected, got });
        }
        data.extend(
            chunk[..want]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    let extra = io::copy(r, &mut io::sink())?;
    if extra > 0 {
        let got = expected.saturating_add(usize::try_from(extra).unwrap_or(usize::MAX));
        return Err(IoError::SizeMismatch { expected, got });
    }
    Ok(data)
}

/// Read into `buf` until it is full or `r` ends; the number of bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

fn read_compressed_payload(
    path: &Path,
    meta: VolumeMeta,
) -> Result<(ScalarVolume, VolumeMeta), IoError> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    ifet_obs::counter_runtime("volume.io.bytes_read", bytes.len() as u64);
    let data = codec::decode_frame(&bytes, meta.dims.len())?;
    Ok((ScalarVolume::from_vec(meta.dims, data), meta))
}

/// Read a frame of either flavor, dispatching on the sidecar `dtype`:
/// raw `"f32le"` payloads and [`codec::DTYPE`] compressed containers.
pub fn read_frame(path: &Path) -> Result<(ScalarVolume, VolumeMeta), IoError> {
    // Runtime counters only — no span. Read counts depend on the paging
    // schedule (an out-of-core run re-reads evicted frames), and spans
    // survive `to_stable`, so a per-read span would make stable traces
    // differ across cache capacities.
    let meta = read_sidecar(path)?;
    match meta.dtype.as_str() {
        "f32le" => read_raw_payload(path, meta),
        codec::DTYPE => read_compressed_payload(path, meta),
        _ => Err(IoError::UnsupportedDtype(meta.dtype.clone())),
    }
}

/// Write every frame of a series as `prefix_t<step>.raw` (+ sidecars).
/// Returns the written paths.
pub fn write_series(
    dir: &Path,
    prefix: &str,
    series: &TimeSeries,
) -> Result<Vec<PathBuf>, IoError> {
    write_series_with(dir, prefix, series, false)
}

/// [`write_series`] with a choice of on-disk format: `compress = true`
/// writes bricked compressed `prefix_t<step>.rawz` containers (see
/// [`crate::codec`]) instead of raw `.raw` payloads. Either flavor reads
/// back through [`read_series`] / [`read_frame`] with bit-identical voxels.
pub fn write_series_with(
    dir: &Path,
    prefix: &str,
    series: &TimeSeries,
    compress: bool,
) -> Result<Vec<PathBuf>, IoError> {
    std::fs::create_dir_all(dir)?;
    series
        .iter()
        .map(|(t, frame)| write_series_frame(dir, prefix, t, frame, compress))
        .collect()
}

/// Write the frame for step `t` as `dir/{prefix}_t<step>.raw`, or `.rawz`
/// when `compress`, with the step in its sidecar. Returns the path. The one
/// frame-file writer behind [`write_series_with`] and
/// [`crate::OutOfCoreSink`].
pub(crate) fn write_series_frame(
    dir: &Path,
    prefix: &str,
    t: u32,
    vol: &ScalarVolume,
    compress: bool,
) -> Result<PathBuf, IoError> {
    let ext = if compress { "rawz" } else { "raw" };
    let p = dir.join(format!("{prefix}_t{t:05}.{ext}"));
    let mut meta = VolumeMeta::new(vol.dims());
    meta.step = Some(t);
    if compress {
        write_compressed(&p, vol, &meta)?;
    } else {
        write_raw(&p, vol, &meta)?;
    }
    Ok(p)
}

/// Whether `p` names a frame file: raw `.raw` or compressed `.rawz`.
pub fn is_frame_file(p: &Path) -> bool {
    matches!(
        p.extension().and_then(|e| e.to_str()),
        Some("raw") | Some("rawz")
    )
}

/// Sorted data-frame paths of a series directory: every `.raw`/`.rawz`
/// frame except the `_truth` ground-truth companions `ifet generate` writes
/// beside them. Lexicographic order; [`read_series`] and the out-of-core
/// series order by sidecar step. A directory without data frames is an
/// error.
pub fn frame_paths(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, String> {
    let dir = dir.as_ref();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| is_frame_file(p))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| !n.contains("_truth"))
                .unwrap_or(true)
        })
        .collect();
    if paths.is_empty() {
        return Err(format!("no .raw/.rawz frames in {}", dir.display()));
    }
    paths.sort();
    Ok(paths)
}

/// Read a series back from the paths produced by [`write_series`] or
/// [`write_series_with`] (any order; frames are sorted by their sidecar
/// step labels; raw and compressed frames may mix).
pub fn read_series(paths: &[PathBuf]) -> Result<TimeSeries, IoError> {
    let mut frames = Vec::with_capacity(paths.len());
    for p in paths {
        let (vol, meta) = read_frame(p)?;
        frames.push((meta, vol));
    }
    let (_, frames) = in_step_order(paths, frames)?;
    Ok(TimeSeries::from_frames(frames))
}

/// Put one series' frames in step order: `frames[k]` pairs the sidecar of
/// `paths[k]` with what was read from it. A frame without a step label is
/// labelled by its position in `paths`. Every frame must share the first
/// frame's grid and carry a distinct label; returns that grid and the items
/// labelled and sorted by step.
pub(crate) fn in_step_order<T>(
    paths: &[PathBuf],
    frames: Vec<(VolumeMeta, T)>,
) -> Result<(Dims3, Vec<(u32, T)>), IoError> {
    let dims = frames.first().ok_or(IoError::NoFrames)?.0.dims;
    let mut labelled = Vec::with_capacity(frames.len());
    for (k, (meta, item)) in frames.into_iter().enumerate() {
        if meta.dims != dims {
            return Err(IoError::DimsMismatch {
                path: paths[k].clone(),
                expected: dims,
                got: meta.dims,
            });
        }
        labelled.push((meta.step.unwrap_or(k as u32), k, item));
    }
    labelled.sort_by_key(|&(t, _, _)| t);
    if let Some(w) = labelled.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(IoError::DuplicateStep {
            path: paths[w[1].1].clone(),
            step: w[1].0,
        });
    }
    Ok((
        dims,
        labelled.into_iter().map(|(t, _, item)| (t, item)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = env::temp_dir().join(format!("ifet_io_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_volume() {
        let dir = tmpdir("vol");
        let v = ScalarVolume::from_fn(Dims3::new(3, 4, 5), |x, y, z| {
            x as f32 + 0.5 * y as f32 - z as f32
        });
        let p = dir.join("v.raw");
        let mut meta = VolumeMeta::new(v.dims());
        meta.variable = Some("density".into());
        write_raw(&p, &v, &meta).unwrap();
        let (back, meta2) = read_frame(&p).unwrap();
        assert_eq!(back, v);
        assert_eq!(meta2.variable.as_deref(), Some("density"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn size_mismatch_detected() {
        let dir = tmpdir("bad");
        let v = ScalarVolume::zeros(Dims3::cube(2));
        let p = dir.join("v.raw");
        write_raw(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
        // Corrupt: truncate the raw file.
        std::fs::write(&p, [0u8; 4]).unwrap();
        match read_frame(&p) {
            Err(IoError::SizeMismatch { expected, got }) => {
                assert_eq!(expected, 32);
                assert_eq!(got, 4);
            }
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// A frame whose voxels cover NaN payloads of both signs, ±0,
    /// subnormals, ±inf and arbitrary bit patterns, spanning more than one
    /// read chunk with a partial last chunk.
    fn special_bits_frame() -> ScalarVolume {
        let specials = [
            f32::NAN.to_bits(),
            0x7fc0_1234, // quiet NaN with a payload
            0x7f80_0001, // signalling NaN
            0xffc0_0000, // negative NaN
            0xffff_ffff,
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
        ];
        let mut state = 0x9e37_79b9u32;
        let mut k = 0;
        ScalarVolume::from_fn(Dims3::new(40, 30, 20), |_, _, _| {
            k += 1;
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            f32::from_bits(if k % 3 == 0 {
                specials[(state >> 8) as usize % specials.len()]
            } else {
                state
            })
        })
    }

    #[test]
    fn raw_read_is_bit_exact_for_special_values() {
        let dir = tmpdir("bits");
        let v = special_bits_frame();
        assert!(v.dims().len() * 4 > READ_CHUNK && (v.dims().len() * 4) % READ_CHUNK != 0);
        let p = dir.join("v.raw");
        write_raw(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
        // The reader behind the in-core series and the out-of-core copy path.
        let (back, _) = read_frame(&p).unwrap();
        assert_eq!(back.dims(), v.dims());
        for (a, b) in v.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// Write a 2³ frame, then resize its payload by `delta` bytes.
    fn resized_frame(dir: &Path, delta: isize) -> PathBuf {
        let v = ScalarVolume::filled(Dims3::cube(2), 1.5);
        let p = dir.join(format!("v_{}.raw", delta + 8));
        write_raw(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.resize((32 + delta) as usize, 0);
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn one_byte_short_or_long_is_size_mismatch() {
        let dir = tmpdir("pm1");
        for delta in [-1isize, 1] {
            let p = resized_frame(&dir, delta);
            match read_frame(&p) {
                Err(IoError::SizeMismatch { expected, got }) => {
                    assert_eq!((expected as isize, got as isize), (32, 32 + delta));
                }
                other => panic!("delta {delta}: expected SizeMismatch, got {other:?}"),
            }
        }

        // The file changes length after its size was checked: the decode
        // loop still reports the bytes the file held.
        let v = special_bits_frame();
        let p = dir.join("mid.raw");
        let expected = v.dims().len() * 4;
        for delta in [-1isize, 1] {
            write_raw(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
            let mut r = ResizedMidRead {
                file: File::open(&p).unwrap(),
                path: p.clone(),
                delta,
                resized: false,
            };
            match decode_f32le(&mut r, v.dims().len()) {
                Err(IoError::SizeMismatch { expected: e, got }) => {
                    assert!(r.resized);
                    assert_eq!((e, got as isize), (expected, expected as isize + delta));
                }
                other => panic!("delta {delta} mid-read: expected SizeMismatch, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// A reader over a frame file that resizes the file by `delta` bytes
    /// right after its first read, as a writer replacing the frame would.
    struct ResizedMidRead {
        file: File,
        path: PathBuf,
        delta: isize,
        resized: bool,
    }

    impl Read for ResizedMidRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.file.read(buf)?;
            if !self.resized {
                self.resized = true;
                let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
                let len = f.metadata()?.len();
                f.set_len(len.checked_add_signed(self.delta as i64).unwrap())?;
            }
            Ok(n)
        }
    }

    /// A reader that hands out at most 3 bytes per call and is interrupted
    /// before every other read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn decode_survives_short_and_interrupted_reads() {
        let v = special_bits_frame();
        let bytes: Vec<u8> = v.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
        let n = v.dims().len();
        let mut r = Trickle {
            bytes: &bytes,
            interrupt: false,
        };
        let back = decode_f32le(&mut r, n).unwrap();
        assert!(back
            .iter()
            .zip(v.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Ends early, mid-float.
        let short = bytes.len() - 5;
        let mut r = Trickle {
            bytes: &bytes[..short],
            interrupt: false,
        };
        assert!(matches!(
            decode_f32le(&mut r, n),
            Err(IoError::SizeMismatch { got, .. }) if got == short
        ));
        // Holds one float more than asked for.
        let mut r = Trickle {
            bytes: &bytes,
            interrupt: false,
        };
        assert!(matches!(
            decode_f32le(&mut r, n - 1),
            Err(IoError::SizeMismatch { expected, got })
                if expected == bytes.len() - 4 && got == bytes.len()
        ));
    }

    #[test]
    fn ooc_series_surfaces_size_mismatch_after_retries() {
        let dir = tmpdir("oocpm1");
        for delta in [-1isize, 1] {
            let ooc = crate::OutOfCoreSeries::open(vec![resized_frame(&dir, delta)], 2).unwrap();
            match ooc.frame(0) {
                Err(IoError::SizeMismatch { expected, got }) => {
                    assert_eq!((expected as isize, got as isize), (32, 32 + delta));
                }
                other => panic!("delta {delta}: expected SizeMismatch, got {other:?}"),
            }
            // Every attempt failed the same way: all retries were spent.
            assert_eq!(ooc.stats().read_retries, 2);
            assert_eq!(ooc.stats().resident, 0);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unsupported_dtype_rejected() {
        let dir = tmpdir("dtype");
        let v = ScalarVolume::zeros(Dims3::cube(2));
        let p = dir.join("v.raw");
        let mut meta = VolumeMeta::new(v.dims());
        write_raw(&p, &v, &meta).unwrap();
        meta.dtype = "u8".to_string();
        std::fs::write(sidecar_path(&p), serde_json::to_string(&meta).unwrap()).unwrap();
        assert!(matches!(read_frame(&p), Err(IoError::UnsupportedDtype(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn roundtrip_series() {
        let dir = tmpdir("series");
        let d = Dims3::cube(3);
        let s = TimeSeries::from_frames(vec![
            (5, ScalarVolume::filled(d, 1.0)),
            (10, ScalarVolume::filled(d, 2.0)),
        ]);
        let paths = write_series(&dir, "test", &s).unwrap();
        assert_eq!(paths.len(), 2);
        let back = read_series(&paths).unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Write one raw frame labelled `step` and return its path.
    fn labelled_frame(dir: &Path, name: &str, dims: Dims3, step: u32) -> PathBuf {
        let p = dir.join(name);
        let mut meta = VolumeMeta::new(dims);
        meta.step = Some(step);
        write_raw(&p, &ScalarVolume::zeros(dims), &meta).unwrap();
        p
    }

    /// The in-core read and the out-of-core open reject a malformed frame
    /// list with the same typed error, naming the offending file.
    fn both_readers_reject(paths: &[PathBuf], check: impl Fn(IoError)) {
        check(read_series(paths).unwrap_err());
        check(
            crate::OutOfCoreSeries::open(paths.to_vec(), 2)
                .err()
                .unwrap(),
        );
    }

    #[test]
    fn malformed_frame_lists_are_typed_errors() {
        let dir = tmpdir("malformed");
        let a = labelled_frame(&dir, "a.raw", Dims3::cube(2), 0);
        let b = labelled_frame(&dir, "b.raw", Dims3::cube(3), 1);
        both_readers_reject(&[a.clone(), b.clone()], |e| match e {
            IoError::DimsMismatch {
                path,
                expected,
                got,
            } => {
                assert_eq!(
                    (path, expected, got),
                    (b.clone(), Dims3::cube(2), Dims3::cube(3))
                );
            }
            other => panic!("expected DimsMismatch, got {other:?}"),
        });
        let c = labelled_frame(&dir, "c.raw", Dims3::cube(2), 4);
        let d = labelled_frame(&dir, "d.raw", Dims3::cube(2), 0);
        both_readers_reject(&[a.clone(), c, d.clone()], |e| {
            assert!(e.to_string().contains("d.raw"), "{e}");
            match e {
                IoError::DuplicateStep { path, step } => assert_eq!((path, step), (d.clone(), 0)),
                other => panic!("expected DuplicateStep, got {other:?}"),
            }
        });
        both_readers_reject(&[], |e| assert!(matches!(e, IoError::NoFrames), "{e:?}"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let p = PathBuf::from("/nonexistent/ifet/v.raw");
        assert!(matches!(read_frame(&p), Err(IoError::Io(_))));
    }

    #[test]
    fn compressed_roundtrip_is_bit_identical() {
        let dir = tmpdir("z");
        let v = ScalarVolume::from_fn(Dims3::new(7, 5, 3), |x, y, z| {
            (x as f32 * 0.5 - y as f32).powi(2) + z as f32
        });
        let p = dir.join("v.rawz");
        write_compressed(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
        let (back, meta) = read_frame(&p).unwrap();
        assert_eq!(meta.dtype, crate::codec::DTYPE);
        for (a, b) in v.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_series_roundtrips_and_shrinks() {
        let dir = tmpdir("zseries");
        let d = Dims3::cube(12);
        let s = TimeSeries::from_frames(
            (0..3u32)
                .map(|k| {
                    (
                        k * 2,
                        ScalarVolume::from_fn(d, move |x, y, z| (x + y + z) as f32 + k as f32),
                    )
                })
                .collect(),
        );
        let paths = write_series_with(&dir, "v", &s, true).unwrap();
        assert!(paths.iter().all(|p| p.extension().unwrap() == "rawz"));
        assert_eq!(read_series(&paths).unwrap(), s);
        let raw_bytes = (d.len() * 4) as u64;
        for p in &paths {
            assert!(
                std::fs::metadata(p).unwrap().len() < raw_bytes,
                "smooth frame must compress below {raw_bytes} bytes"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_compressed_frame_is_codec_error() {
        let dir = tmpdir("zbad");
        let v = ScalarVolume::from_fn(Dims3::cube(4), |x, _, _| x as f32);
        let p = dir.join("v.rawz");
        write_compressed(&p, &v, &VolumeMeta::new(v.dims())).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(read_frame(&p), Err(IoError::Codec(_))));
        std::fs::remove_dir_all(dir).ok();
    }
}
